//! Search-level kill/resume: an AIMD search journaled trial by trial,
//! killed at an arbitrary cut, must resume through verdict replay and end
//! byte-identical to an uninterrupted search — for every cut point.

use std::io::Write as _;
use std::path::PathBuf;

use silcfm_serve::{Aimd, AimdParams, RequestLedger, SloJournalWriter, TrialCodec, TrialRecord};
use silcfm_sim::journal::resume;

const DIGEST: u64 = 0x517c_f00d;

fn params() -> AimdParams {
    AimdParams {
        trials: 8,
        ..AimdParams::default_search()
    }
}

/// A deterministic stand-in for a serving trial: met iff the rate is at or
/// below the search's synthetic capacity.
fn trial(search: usize, index: u32, rate: u64, capacity: u64) -> TrialRecord {
    let offered = 100 + rate;
    let met = rate <= capacity;
    let completed = if met { offered } else { offered / 2 };
    TrialRecord {
        search,
        trial: index,
        rate,
        ledger: RequestLedger {
            offered,
            admitted: offered,
            completed,
            shed: 0,
            timed_out: offered - completed,
            failed: 0,
            retries: 0,
        },
        p99: if met { 1_000 } else { 50_000 },
        met,
    }
}

/// Runs the two-search grid, journaling each finished trial, starting from
/// whatever `resumed` verdicts the journal already held.
fn run_search(writer: &mut SloJournalWriter, resumed: &[TrialRecord]) -> Vec<TrialRecord> {
    let capacities = [48u64, 30];
    let mut all = Vec::new();
    for (si, &capacity) in capacities.iter().enumerate() {
        let mut aimd = Aimd::new(params());
        for r in resumed.iter().filter(|r| r.search == si) {
            assert_eq!(r.trial, aimd.observed(), "replay out of order");
            assert_eq!(r.rate, aimd.rate(), "replay diverges from regulator");
            aimd.observe(r.met);
            all.push(*r);
        }
        while !aimd.done() {
            let rec = trial(si, aimd.observed(), aimd.rate(), capacity);
            writer.append(&rec).unwrap();
            aimd.observe(rec.met);
            all.push(rec);
        }
    }
    all
}

fn tmp(name: &str) -> PathBuf {
    let dir = option_env!("CARGO_TARGET_TMPDIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
        .join("silcfm-slo-resume-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn killed_search_resumes_byte_identically_at_every_cut() {
    // The uninterrupted reference search.
    let reference_path = tmp("reference.journal");
    let mut w = SloJournalWriter::create(&reference_path, DIGEST).unwrap();
    let reference = run_search(&mut w, &[]);
    drop(w);
    assert_eq!(reference.len(), 16, "two searches of eight trials");

    for cut in 0..reference.len() {
        let path = tmp(&format!("cut-{cut}.journal"));
        // Phase 1: journal the first `cut` trials, then "crash" leaving a
        // torn half-record on the tail.
        let mut w = SloJournalWriter::create(&path, DIGEST).unwrap();
        for rec in &reference[..cut] {
            w.append(rec).unwrap();
        }
        drop(w);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "trial 1 3 2").unwrap();
        drop(f);

        // Phase 2: resume. The torn tail is healed, the finished trials
        // replay, and the completed search matches the reference exactly.
        let (mut w, resumed) = resume::<TrialCodec>(&path, DIGEST).unwrap();
        assert_eq!(resumed, reference[..cut].to_vec(), "cut {cut}: replay set");
        let finished = run_search(&mut w, &resumed);
        drop(w);
        assert_eq!(finished, reference, "cut {cut}: resumed search diverged");

        // The healed journal now holds the full search: a second resume
        // replays everything with nothing left to run.
        let (_w, full) = resume::<TrialCodec>(&path, DIGEST).unwrap();
        assert_eq!(full, reference, "cut {cut}: journal contents diverged");
    }
}
