//! Crash-safe journals: append-only records of finished work that let a
//! killed run resume without repeating it.
//!
//! One contract serves every journal in the workspace; a [`Codec`] only
//! supplies the header tag and the record line format. A journal is a
//! plain text file, one line per record:
//!
//! * a header line, `<tag> grid=<hex>`, binding the journal to one exact
//!   job grid (the digest covers every job's full configuration);
//! * one line per finished record, appended and flushed before the caller
//!   moves on, so a crash loses at most the in-flight record.
//!
//! The reader tolerates exactly that loss: a torn final line is discarded
//! and healed away with `set_len`, anything else malformed is an error.
//!
//! The experiment grid's journal ([`GridCodec`]) has the header
//! `silcfm-journal v1 grid=<hex>` and one `job` line per finished job,
//! carrying the complete [`RunResult`] in whitespace-separated fields.
//! Floats are written as the hex of their IEEE-754 bits, so a journal
//! round-trip is *bit-identical* — a resumed grid's aggregate equals the
//! uninterrupted run's byte for byte.

// silcfm-lint: allow-file(T1) -- the only concurrency here is the process-wide
// intern pool below: an idempotent, leaked String -> &'static str map whose
// lock order cannot affect simulation results.

use std::fs::{File, OpenOptions};
use std::hash::{Hash, Hasher};
use std::io::{BufWriter, Read as _, Write as _};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

use silcfm_types::{FxHashMap, FxHasher, SilcFmError};

use crate::metrics::{RunResult, TrafficTally};
use crate::runner::Job;

/// One journal's line format. Tokens never contain whitespace.
pub trait Codec {
    /// What one record line carries.
    type Record;
    /// Header prefix: the header line is `<TAG> grid=<16 hex digits>`.
    const TAG: &'static str;
    /// What error messages call the file ("journal", "SLO journal").
    const NAME: &'static str;
    /// What error messages call the work the digest binds ("grid").
    const GRID: &'static str;
    /// Renders one record as a line, without its newline.
    fn encode(record: &Self::Record) -> String;
    /// Parses one line's whitespace-split tokens. Returns `None` on any
    /// shortfall or malformed field; [`resume`] decides whether that means
    /// "torn tail" (tolerated) or "corrupt" (error).
    fn decode(tokens: &[&str]) -> Option<Self::Record>;
}

/// Digest binding a journal to one job grid. Any change to the grid — a
/// workload, a scheme parameter, a seed — changes the digest and makes old
/// journals unusable (resuming against a different grid would splice
/// incompatible results).
pub fn grid_digest(jobs: &[Job]) -> u64 {
    let mut h = FxHasher::default();
    jobs.len().hash(&mut h);
    for job in jobs {
        // Jobs are plain-old-data with stable `Debug` output; hashing the
        // rendering covers every field without a bespoke Hash impl over f64.
        format!("{job:?}").hash(&mut h);
    }
    h.finish()
}

/// Returns the interned `&'static str` for `s`.
///
/// [`silcfm_types::SchemeStats`] detail keys are `&'static str` so the hot
/// path never allocates; a journal read must rebuild them from file text.
/// The intern pool leaks one copy of each *distinct* key ever read — keys
/// come from the fixed registry in `crates/lint/stat_keys.txt`, so the pool
/// is small and bounded.
fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<FxHashMap<String, &'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(FxHashMap::default()));
    let Ok(mut pool) = pool.lock() else {
        // A poisoned intern pool cannot corrupt data; fall back to leaking.
        return Box::leak(s.to_string().into_boxed_str());
    };
    if let Some(k) = pool.get(s) {
        return k;
    }
    let k: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(s.to_string(), k);
    k
}

fn f64_to_field(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// The experiment grid's codec: one `job <index> ...` line per finished
/// job. Scheme/workload labels are fixed identifiers and numbers are
/// decimal or hex.
#[derive(Debug)]
pub struct GridCodec;

impl Codec for GridCodec {
    type Record = (usize, RunResult);
    const TAG: &'static str = "silcfm-journal v1";
    const NAME: &'static str = "journal";
    const GRID: &'static str = "grid";

    fn encode((index, r): &(usize, RunResult)) -> String {
        use core::fmt::Write as _;
        let mut line = format!(
            "job {index} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            r.scheme,
            r.workload,
            r.cycles,
            r.instructions,
            r.llc_misses,
            f64_to_field(r.access_rate),
            r.traffic.nm_demand,
            r.traffic.fm_demand,
            r.traffic.nm_other,
            r.traffic.fm_other,
            f64_to_field(r.energy_pj),
            r.scheme_stats.accesses,
            r.scheme_stats.serviced_from_nm,
            r.scheme_stats.subblocks_moved,
            r.scheme_stats.blocks_migrated,
            f64_to_field(r.mpki),
            r.footprint_bytes,
            r.scheme_stats.details.len(),
        );
        for (key, value) in &r.scheme_stats.details {
            let _ = write!(line, " {key} {}", f64_to_field(*value));
        }
        line
    }

    fn decode(tokens: &[&str]) -> Option<(usize, RunResult)> {
        let (&"job", fields) = tokens.split_first()? else {
            return None;
        };
        let mut it = fields.iter();
        let mut next = || it.next().copied();
        let index: usize = next()?.parse().ok()?;
        let scheme = next()?.to_string();
        let workload = next()?.to_string();
        let int = |s: Option<&str>| s?.parse::<u64>().ok();
        let float = |s: Option<&str>| u64::from_str_radix(s?, 16).ok().map(f64::from_bits);
        let cycles = int(next())?;
        let instructions = int(next())?;
        let llc_misses = int(next())?;
        let access_rate = float(next())?;
        let traffic = TrafficTally {
            nm_demand: int(next())?,
            fm_demand: int(next())?,
            nm_other: int(next())?,
            fm_other: int(next())?,
        };
        let energy_pj = float(next())?;
        let mut scheme_stats = silcfm_types::SchemeStats {
            accesses: int(next())?,
            serviced_from_nm: int(next())?,
            subblocks_moved: int(next())?,
            blocks_migrated: int(next())?,
            ..Default::default()
        };
        let mpki = float(next())?;
        let footprint_bytes = int(next())?;
        let ndetails = int(next())? as usize;
        for _ in 0..ndetails {
            let key = intern(next()?);
            let value = float(next())?;
            scheme_stats.details.push((key, value));
        }
        if it.next().is_some() {
            return None; // trailing junk: treat as malformed
        }
        Some((
            index,
            RunResult {
                scheme,
                workload,
                cycles,
                instructions,
                llc_misses,
                access_rate,
                traffic,
                energy_pj,
                scheme_stats,
                mpki,
                footprint_bytes,
            },
        ))
    }
}

fn header_line<C: Codec>(digest: u64) -> String {
    format!("{} grid={digest:016x}", C::TAG)
}

/// The write side of a journal: created fresh or reopened by [`resume`],
/// it appends one flushed line per finished record.
#[derive(Debug)]
pub struct JournalWriter<C: Codec> {
    out: BufWriter<File>,
    codec: PhantomData<C>,
}

impl<C: Codec> JournalWriter<C> {
    /// Creates (truncating) a journal for a grid with the given digest and
    /// writes the header.
    ///
    /// # Errors
    ///
    /// Returns [`SilcFmError::Journal`] on any I/O failure.
    pub fn create(path: &Path, digest: u64) -> Result<Self, SilcFmError> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "{}", header_line::<C>(digest))?;
        out.flush()?;
        Ok(Self {
            out,
            codec: PhantomData,
        })
    }

    /// Appends one finished record and flushes, so a crash after this call
    /// never loses it.
    ///
    /// # Errors
    ///
    /// Returns [`SilcFmError::Journal`] on any I/O failure.
    pub fn append(&mut self, record: &C::Record) -> Result<(), SilcFmError> {
        writeln!(self.out, "{}", C::encode(record))?;
        self.out.flush()?;
        Ok(())
    }
}

/// Reads a journal back: validates the header against `digest`, collects
/// the finished records in append order, and reopens the file in append
/// mode so the run can continue where it stopped. A torn final line (no
/// trailing newline, or a line that stops mid-field) is discarded and cut
/// off the file — that is the crash the journal exists to survive.
///
/// # Errors
///
/// Returns [`SilcFmError::Journal`] when the file is unreadable, the header
/// names a different grid, or an interior line is malformed.
pub fn resume<C: Codec>(
    path: &Path,
    digest: u64,
) -> Result<(JournalWriter<C>, Vec<C::Record>), SilcFmError> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text)?;
    // Bytes past the last newline are the in-flight record of a crash;
    // they are the one loss the format tolerates.
    let complete_up_to = text.rfind('\n').map_or(0, |i| i + 1);
    let body = &text[..complete_up_to];
    let header_end = body
        .find('\n')
        .map(|i| i + 1)
        .ok_or_else(|| SilcFmError::journal(format!("{} is empty (no header line)", C::NAME)))?;
    let header = body[..header_end].trim_end();
    if header != header_line::<C>(digest) {
        return Err(SilcFmError::journal(format!(
            "{} belongs to a different {}: found {header:?}, expected {:?}",
            C::NAME,
            C::GRID,
            header_line::<C>(digest)
        )));
    }
    let mut done = Vec::new();
    // Track the byte offset of the last intact record so the file can be
    // truncated back to a clean state before appending resumes.
    let mut valid_up_to = header_end;
    let mut rest = body[header_end..].split_inclusive('\n').peekable();
    while let Some(raw) = rest.next() {
        let line = raw.trim_end_matches('\n');
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match C::decode(&tokens) {
            Some(record) => {
                done.push(record);
                valid_up_to += raw.len();
            }
            // A malformed *last* line can be a crash artifact and is
            // dropped; a malformed interior line cannot, and means
            // corruption the journal must not paper over.
            None if rest.peek().is_none() => break,
            None => {
                return Err(SilcFmError::journal(format!(
                    "malformed {} line: {line:?}",
                    C::NAME
                )))
            }
        }
    }
    if valid_up_to < text.len() {
        // Heal the crash damage: cut the torn/malformed tail so appended
        // records start on a fresh line.
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_up_to as u64)?;
    }
    let file = OpenOptions::new().append(true).open(path)?;
    Ok((
        JournalWriter {
            out: BufWriter::new(file),
            codec: PhantomData,
        },
        done,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use silcfm_types::SchemeStats;

    type Writer = JournalWriter<GridCodec>;

    /// Resumes a grid journal into its records by job index.
    fn resume_grid(path: &Path, digest: u64) -> (Writer, BTreeMap<usize, RunResult>) {
        let (w, done) = resume::<GridCodec>(path, digest).unwrap();
        (w, done.into_iter().collect())
    }

    fn result(cycles: u64) -> RunResult {
        RunResult {
            scheme: "silcfm".into(),
            workload: "milc".into(),
            cycles,
            instructions: 123_456,
            llc_misses: 789,
            access_rate: 0.8251,
            traffic: TrafficTally {
                nm_demand: 1,
                fm_demand: 2,
                nm_other: 3,
                fm_other: 4,
            },
            energy_pj: 1.5e9,
            scheme_stats: SchemeStats {
                accesses: 99,
                serviced_from_nm: 81,
                subblocks_moved: 7,
                blocks_migrated: 2,
                details: vec![("locks", 4.0), ("fault_poisoned", 0.125)],
            },
            mpki: 13.37,
            footprint_bytes: 1 << 21,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = option_env!("CARGO_TARGET_TMPDIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(std::env::temp_dir)
            .join("silcfm-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let path = tmp("roundtrip.journal");
        let mut w = Writer::create(&path, 42).unwrap();
        w.append(&(0, result(1000))).unwrap();
        w.append(&(3, result(2000))).unwrap();
        drop(w);
        let (_w, done) = resume_grid(&path, 42);
        assert_eq!(done.len(), 2);
        assert_eq!(done[&0], result(1000));
        assert_eq!(done[&3], result(2000));
    }

    #[test]
    fn float_bits_survive_exactly() {
        let mut r = result(1);
        r.access_rate = f64::from_bits(0x3FE9_9999_9999_999A); // 0.8 exactly as stored
        r.mpki = -0.0;
        let path = tmp("floatbits.journal");
        let mut w = Writer::create(&path, 7).unwrap();
        w.append(&(0, r.clone())).unwrap();
        drop(w);
        let (_w, done) = resume_grid(&path, 7);
        assert_eq!(done[&0].access_rate.to_bits(), r.access_rate.to_bits());
        assert_eq!(done[&0].mpki.to_bits(), r.mpki.to_bits());
    }

    #[test]
    fn torn_tail_is_discarded() {
        let path = tmp("torn.journal");
        let mut w = Writer::create(&path, 9).unwrap();
        w.append(&(0, result(500))).unwrap();
        drop(w);
        // Simulate a crash mid-append: partial line, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "job 1 silcfm milc 77").unwrap();
        drop(f);
        let (mut w, done) = resume_grid(&path, 9);
        assert_eq!(done.len(), 1, "torn record must be dropped");
        // Resume healed the tail: the re-appended record lands on a fresh
        // line and the journal reads back complete.
        w.append(&(1, result(600))).unwrap();
        drop(w);
        let (_w, done) = resume_grid(&path, 9);
        assert_eq!(done.len(), 2);
        assert_eq!(done[&1], result(600));
    }

    /// A journal written in the grid format every earlier release wrote:
    /// the header plus one `job` line, as literal text. Resuming it must
    /// give back the exact result, and encoding that result must give back
    /// the exact line, so journals on disk stay resumable across releases.
    #[test]
    fn todays_grid_format_still_resumes() {
        const HEADER: &str = "silcfm-journal v1 grid=000000000000002a";
        const JOB: &str = "job 0 silcfm milc 1000 123456 789 3fea67381d7dbf48 1 2 3 4 \
                           41d65a0bc0000000 99 81 7 2 402abd70a3d70a3d 2097152 2 \
                           locks 4010000000000000 fault_poisoned 3fc0000000000000";
        let path = tmp("fixture.journal");
        std::fs::write(&path, format!("{HEADER}\n{JOB}\n")).unwrap();
        let (_w, done) = resume_grid(&path, 42);
        assert_eq!(done.len(), 1);
        assert_eq!(done[&0], result(1000));
        assert_eq!(GridCodec::encode(&(0, result(1000))), JOB);
    }

    #[test]
    fn grid_mismatch_is_rejected() {
        let path = tmp("mismatch.journal");
        drop(Writer::create(&path, 1).unwrap());
        let err = resume::<GridCodec>(&path, 2).unwrap_err();
        assert!(err.to_string().contains("different grid"), "{err}");
    }

    #[test]
    fn interior_corruption_is_an_error() {
        let path = tmp("corrupt.journal");
        let mut w = Writer::create(&path, 5).unwrap();
        w.append(&(0, result(500))).unwrap();
        drop(w);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(f, "job zzz not-a-record").unwrap();
        writeln!(f, "{}", GridCodec::encode(&(1, result(600)))).unwrap();
        drop(f);
        let err = resume::<GridCodec>(&path, 5).unwrap_err();
        assert!(err.to_string().contains("malformed"), "{err}");
    }

    #[test]
    fn digest_is_sensitive_to_the_grid() {
        use crate::experiment::{RunParams, SchemeKind};
        use silcfm_trace::profiles;
        use silcfm_types::SystemConfig;
        let job = Job {
            profile: *profiles::by_name("milc").unwrap(),
            scheme: SchemeKind::NoNm,
            cfg: SystemConfig::small(),
            params: RunParams::smoke(),
        };
        let mut other = job;
        other.params.seed ^= 1;
        assert_ne!(grid_digest(&[job]), grid_digest(&[job, job]));
        assert_ne!(grid_digest(&[job]), grid_digest(&[other]));
        assert_eq!(grid_digest(&[job]), grid_digest(&[job]));
    }

    #[test]
    fn intern_returns_stable_pointers() {
        let a = intern("fault_masked");
        let b = intern("fault_masked");
        assert!(core::ptr::eq(a, b));
        assert_eq!(a, "fault_masked");
    }
}
