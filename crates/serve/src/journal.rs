//! Crash-safe journal for the SLO max-RPS search.
//!
//! An AIMD search is a chain: trial `n+1`'s offered rate depends on every
//! prior trial's verdict. A killed search therefore cannot resume from
//! anywhere but an exact replay — so the journal records, per finished
//! trial, the offered rate, the full conservation ledger, the p99 and the
//! SLO verdict. On resume the recorded verdicts are fed back through fresh
//! regulators in order, which reconstructs the exact regulator state (the
//! regulator is a pure state machine over its observations) and the search
//! continues byte-identically to an uninterrupted run.
//!
//! The file follows the workspace journal contract of
//! [`silcfm_sim::journal`] (header digest, flushed appends, a torn final
//! line healed away, a malformed interior line an error); this module only
//! supplies the line format, [`TrialCodec`]:
//!
//! * header `silcfm-slo-journal v1 grid=<hex>`, binding the journal to one
//!   search grid (schemes × arrival profiles × parameters);
//! * `trial <search> <trial> <rate> <offered> <admitted> <completed>
//!   <shed> <timed_out> <failed> <retries> <p99> <met>` per finished
//!   trial, appended and flushed before the next trial starts.

use std::hash::{Hash, Hasher};

use silcfm_sim::journal::{Codec, JournalWriter};
use silcfm_types::FxHasher;

use crate::ledger::RequestLedger;

/// Digest binding a journal to one search grid. Hash the search's full
/// configuration rendering (schemes, arrival profiles, rates, serve and
/// AIMD parameters) — any change invalidates old journals.
pub fn search_digest(spec: &str) -> u64 {
    let mut h = FxHasher::default();
    spec.hash(&mut h);
    h.finish()
}

/// One finished trial: enough to replay the regulator and to re-emit the
/// trial's row in the final artifact without re-running it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialRecord {
    /// Index of the (scheme × arrival) search this trial belongs to.
    pub search: usize,
    /// Trial index within its search.
    pub trial: u32,
    /// Offered rate, requests per million cycles per lane.
    pub rate: u64,
    /// The trial's conservation ledger.
    pub ledger: RequestLedger,
    /// Whole-run p99 of completed-request latency.
    pub p99: u64,
    /// Whether the trial met the SLO.
    pub met: bool,
}

/// The SLO journal's line format: one `trial` line per [`TrialRecord`].
#[derive(Debug)]
pub struct TrialCodec;

/// The SLO journal's write side; [`silcfm_sim::journal::resume`] reopens
/// one.
pub type SloJournalWriter = JournalWriter<TrialCodec>;

impl Codec for TrialCodec {
    type Record = TrialRecord;
    const TAG: &'static str = "silcfm-slo-journal v1";
    const NAME: &'static str = "SLO journal";
    const GRID: &'static str = "search grid";

    fn encode(r: &TrialRecord) -> String {
        let l = &r.ledger;
        format!(
            "trial {} {} {} {} {} {} {} {} {} {} {} {}",
            r.search,
            r.trial,
            r.rate,
            l.offered,
            l.admitted,
            l.completed,
            l.shed,
            l.timed_out,
            l.failed,
            l.retries,
            r.p99,
            u8::from(r.met),
        )
    }

    fn decode(tokens: &[&str]) -> Option<TrialRecord> {
        let (&"trial", fields) = tokens.split_first()? else {
            return None;
        };
        let mut it = fields.iter();
        let mut int = || it.next()?.parse::<u64>().ok();
        let search = int()? as usize;
        let trial = int()? as u32;
        let rate = int()?;
        let ledger = RequestLedger {
            offered: int()?,
            admitted: int()?,
            completed: int()?,
            shed: int()?,
            timed_out: int()?,
            failed: int()?,
            retries: int()?,
        };
        let p99 = int()?;
        let met = match int()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        if it.next().is_some() {
            return None; // trailing junk: treat as malformed
        }
        Some(TrialRecord {
            search,
            trial,
            rate,
            ledger,
            p99,
            met,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write as _;
    use std::path::Path;

    fn resume(path: &Path, digest: u64) -> Result<(SloJournalWriter, Vec<TrialRecord>), String> {
        silcfm_sim::journal::resume(path, digest).map_err(|e| e.to_string())
    }

    fn record(search: usize, trial: u32, rate: u64, met: bool) -> TrialRecord {
        TrialRecord {
            search,
            trial,
            rate,
            ledger: RequestLedger {
                offered: 100,
                admitted: 90,
                completed: 80,
                shed: 10,
                timed_out: 8,
                failed: 2,
                retries: 5,
            },
            p99: 17_000,
            met,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = option_env!("CARGO_TARGET_TMPDIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(std::env::temp_dir)
            .join("silcfm-slo-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_preserves_trials_in_order() {
        let path = tmp("roundtrip.journal");
        let mut w = SloJournalWriter::create(&path, 42).unwrap();
        w.append(&record(0, 0, 20, true)).unwrap();
        w.append(&record(0, 1, 26, false)).unwrap();
        w.append(&record(1, 0, 20, true)).unwrap();
        drop(w);
        let (_w, done) = resume(&path, 42).unwrap();
        assert_eq!(
            done,
            vec![
                record(0, 0, 20, true),
                record(0, 1, 26, false),
                record(1, 0, 20, true),
            ]
        );
    }

    #[test]
    fn torn_tail_is_discarded_and_healed() {
        let path = tmp("torn.journal");
        let mut w = SloJournalWriter::create(&path, 9).unwrap();
        w.append(&record(0, 0, 20, true)).unwrap();
        drop(w);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "trial 0 1 26 100 9").unwrap();
        drop(f);
        let (mut w, done) = resume(&path, 9).unwrap();
        assert_eq!(done.len(), 1, "torn record must be dropped");
        w.append(&record(0, 1, 26, false)).unwrap();
        drop(w);
        let (_w, done) = resume(&path, 9).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[1], record(0, 1, 26, false));
    }

    #[test]
    fn grid_mismatch_and_interior_corruption_are_errors() {
        let path = tmp("mismatch.journal");
        drop(SloJournalWriter::create(&path, 1).unwrap());
        let err = resume(&path, 2).unwrap_err();
        assert!(err.to_string().contains("different search grid"), "{err}");

        let path = tmp("corrupt.journal");
        let mut w = SloJournalWriter::create(&path, 5).unwrap();
        w.append(&record(0, 0, 20, true)).unwrap();
        drop(w);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(f, "trial zzz corrupt").unwrap();
        writeln!(f, "{}", TrialCodec::encode(&record(0, 1, 26, false))).unwrap();
        drop(f);
        let err = resume(&path, 5).unwrap_err();
        assert!(err.to_string().contains("malformed"), "{err}");
    }

    #[test]
    fn digest_is_sensitive_to_the_spec() {
        assert_ne!(search_digest("a"), search_digest("b"));
        assert_eq!(search_digest("a"), search_digest("a"));
    }
}
