//! Parallel execution of experiment grids.
//!
//! Every figure harness runs the same shape of computation: a grid of
//! (workload profile × scheme × configuration point) simulations, each
//! completely independent of the others. This module dispatches that grid
//! across a `std::thread` worker pool with work stealing and returns results
//! in grid order, **bit-identical** to running the jobs serially:
//!
//! * each [`Job`] is self-contained (its own profile, scheme, config and
//!   seed), so execution order cannot leak into results;
//! * per-job seeds are derived deterministically from a base seed and the
//!   job's grid index via [`SplitMix64`](silcfm_types::rng::SplitMix64), so
//!   regridding or changing the thread count never changes any individual
//!   run;
//! * workers tag each result with its job index and the pool reassembles
//!   them in index order, so aggregate output is a pure function of the grid.
//!
//! # Example
//!
//! ```
//! use silcfm_sim::runner::{ExperimentGrid, run_grid, run_grid_serial};
//! use silcfm_sim::{RunParams, SchemeKind};
//! use silcfm_trace::profiles;
//! use silcfm_types::SystemConfig;
//!
//! let grid = ExperimentGrid::new(SystemConfig::small(), RunParams::smoke())
//!     .workload(profiles::by_name("mcf").unwrap())
//!     .scheme(SchemeKind::NoNm)
//!     .scheme(SchemeKind::silcfm());
//! let jobs = grid.jobs();
//! let parallel = run_grid(&jobs, 2);
//! let serial = run_grid_serial(&jobs);
//! for (p, s) in parallel.iter().zip(&serial) {
//!     assert_eq!(p.cycles, s.cycles);
//!     assert_eq!(p.traffic, s.traffic);
//! }
//! ```

use std::collections::VecDeque;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Mutex;

use silcfm_trace::profiles::WorkloadProfile;
use silcfm_types::rng::SplitMix64;
use silcfm_types::{SilcFmError, SystemConfig};

use silcfm_obs::{LatencyBreakdown, ObsReport};

use crate::experiment::{run, run_traced, RunParams, SchemeKind, TraceParams};
use crate::journal;
use crate::metrics::RunResult;

/// One self-contained simulation: everything [`run`] needs, by value, so the
/// job can execute on any worker in any order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Workload profile to simulate.
    pub profile: WorkloadProfile,
    /// Placement scheme.
    pub scheme: SchemeKind,
    /// System configuration (cores, caches, memories).
    pub cfg: SystemConfig,
    /// Run-size and seeding knobs.
    pub params: RunParams,
}

impl Job {
    /// Executes the job. This is the *only* path by which both the serial
    /// and the parallel engines run a simulation, which is what makes their
    /// outputs comparable bit for bit.
    pub fn execute(&self) -> RunResult {
        run(&self.profile, self.scheme, &self.cfg, &self.params)
    }
}

/// Builder for the scheme × workload grid all figure harnesses iterate.
///
/// Jobs are emitted workload-major (all schemes of workload 0, then workload
/// 1, …) matching the serial loops the figure binaries used to write by
/// hand.
#[derive(Debug, Clone)]
pub struct ExperimentGrid {
    cfg: SystemConfig,
    params: RunParams,
    workloads: Vec<WorkloadProfile>,
    schemes: Vec<SchemeKind>,
    seeded: bool,
}

impl ExperimentGrid {
    /// Starts an empty grid over one configuration point.
    pub fn new(cfg: SystemConfig, params: RunParams) -> Self {
        Self {
            cfg,
            params,
            workloads: Vec::new(),
            schemes: Vec::new(),
            seeded: false,
        }
    }

    /// Adds one workload row.
    #[must_use]
    pub fn workload(mut self, profile: &WorkloadProfile) -> Self {
        self.workloads.push(*profile);
        self
    }

    /// Adds every Table III workload as a row.
    #[must_use]
    pub fn all_workloads(mut self) -> Self {
        self.workloads
            .extend(silcfm_trace::profiles::all().iter().copied());
        self
    }

    /// Adds one scheme column.
    #[must_use]
    pub fn scheme(mut self, scheme: SchemeKind) -> Self {
        self.schemes.push(scheme);
        self
    }

    /// Adds several scheme columns.
    #[must_use]
    pub fn schemes(mut self, schemes: impl IntoIterator<Item = SchemeKind>) -> Self {
        self.schemes.extend(schemes);
        self
    }

    /// Derives a decorrelated per-job seed from the base seed and each job's
    /// grid index. Without this, every cell of a sweep reuses one seed and a
    /// lucky placement can masquerade as a scheme effect; with it, reordering
    /// the grid or changing the thread count still reproduces every run
    /// exactly.
    #[must_use]
    pub fn seed_per_job(mut self) -> Self {
        self.seeded = true;
        self
    }

    /// Materializes the grid in workload-major order.
    pub fn jobs(&self) -> Vec<Job> {
        let base = SplitMix64::new(self.params.seed);
        let mut jobs = Vec::with_capacity(self.workloads.len() * self.schemes.len());
        for profile in &self.workloads {
            for scheme in &self.schemes {
                let mut params = self.params;
                if self.seeded {
                    params.seed = base.split(jobs.len() as u64);
                }
                jobs.push(Job {
                    profile: *profile,
                    scheme: *scheme,
                    cfg: self.cfg,
                    params,
                });
            }
        }
        jobs
    }
}

/// Number of worker threads to use by default: the `SILCFM_THREADS`
/// environment variable if set, else the machine's available parallelism.
pub fn default_threads() -> usize {
    // silcfm-lint: allow(D2) -- explicit operator knob; thread count cannot change results (grid jobs are hermetic and reassembled in job order, see tests)
    std::env::var("SILCFM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Runs `jobs` serially in order. The reference implementation the parallel
/// engine is checked against.
pub fn run_grid_serial(jobs: &[Job]) -> Vec<RunResult> {
    jobs.iter().map(Job::execute).collect()
}

/// The work-stealing pool behind every grid runner: runs `execute` over
/// the jobs indexed by `todo` across `threads` workers and hands each
/// `(index, output)` to `sink` on the calling thread the moment its worker
/// reports it (completion order, not job order).
///
/// Jobs are dealt round-robin into per-worker deques. Each worker drains its
/// own deque from the front and, when empty, steals from the *back* of the
/// busiest sibling — the classic split that keeps owner and thief off the
/// same end. Long-running jobs (full SILC-FM sweeps take ~10× the no-NM
/// baseline) therefore cannot serialize the tail of the grid behind one
/// unlucky worker.
///
/// The first error from `sink` stops the pool: the serial path returns at
/// once, and parallel workers stop after the job in hand.
fn run_pool<R, E, F>(
    jobs: &[Job],
    todo: &[usize],
    threads: usize,
    execute: F,
    mut sink: impl FnMut(usize, R) -> Result<(), E>,
) -> Result<(), E>
where
    R: Send,
    F: Fn(&Job) -> R + Sync,
{
    let threads = threads.max(1).min(todo.len().max(1));
    if threads <= 1 || todo.len() <= 1 {
        for &i in todo {
            sink(i, execute(&jobs[i]))?;
        }
        return Ok(());
    }

    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| Mutex::new(todo.iter().copied().skip(w).step_by(threads).collect()))
        .collect();
    let queues = &queues;
    let execute = &execute;

    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for me in 0..threads {
            let tx = tx.clone();
            scope.spawn(move || loop {
                // Own work first (front), then steal (back).
                let next = queues[me].lock().unwrap().pop_front().or_else(|| {
                    (0..queues.len())
                        .filter(|&w| w != me)
                        .max_by_key(|&w| queues[w].lock().unwrap().len())
                        .and_then(|w| queues[w].lock().unwrap().pop_back())
                });
                let Some(idx) = next else { break };
                let result = execute(&jobs[idx]);
                if tx.send((idx, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Draining inside the scope delivers each output as its worker
        // finishes; returning early drops `rx`, so every worker's next send
        // fails and it stops.
        for (idx, result) in rx {
            sink(idx, result)?;
        }
        Ok(())
    })
}

/// Runs `execute` over every job on the [`run_pool`] workers and
/// reassembles the outputs in job order, so the result is bit-identical to
/// a serial loop regardless of thread count, scheduling, or steal pattern.
fn run_grid_with<R, F>(jobs: &[Job], threads: usize, execute: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Job) -> R + Sync,
{
    let todo: Vec<usize> = (0..jobs.len()).collect();
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(jobs.len(), || None);
    let filled: Result<(), std::convert::Infallible> =
        run_pool(jobs, &todo, threads, execute, |idx, result| {
            slots[idx] = Some(result);
            Ok(())
        });
    let Ok(()) = filled;
    slots
        .into_iter()
        .map(|r| r.expect("every job produces exactly one result"))
        .collect()
}

/// Runs `jobs` across `threads` workers with work stealing and returns the
/// results in job order, bit-identical to [`run_grid_serial`]; see
/// [`run_pool`] for the scheduling details.
pub fn run_grid(jobs: &[Job], threads: usize) -> Vec<RunResult> {
    run_grid_with(jobs, threads, Job::execute)
}

/// Runs `jobs` with a crash-safe journal at `path`: every finished job is
/// appended (and flushed) the moment its worker reports it, and with
/// `resume == true` an existing journal's completed jobs are loaded instead
/// of re-run. Results come back in job order and — because each job is
/// hermetic and the journal stores full bit-exact records — the aggregate
/// is identical whether the grid ran uninterrupted, was killed and resumed,
/// or was resumed with nothing left to do.
///
/// `on_done(index, result)` fires once per *newly executed* job, in
/// completion order (not job order), for progress reporting and
/// kill-window testing.
///
/// # Errors
///
/// Returns [`SilcFmError::Journal`] when the journal cannot be written, is
/// corrupt, or belongs to a different grid.
pub fn run_grid_journaled(
    jobs: &[Job],
    threads: usize,
    path: &Path,
    resume: bool,
    on_done: impl FnMut(usize, &RunResult),
) -> Result<Vec<RunResult>, SilcFmError> {
    let digest = journal::grid_digest(jobs);
    let (writer, done) = if resume && path.exists() {
        journal::resume(path, digest)?
    } else {
        (
            journal::JournalWriter::create(path, digest)?,
            std::collections::BTreeMap::new(),
        )
    };
    run_grid_journaled_core(
        jobs,
        threads,
        writer,
        done,
        on_done,
        Job::execute,
        |w, i, r| w.append(i, r),
    )
}

/// Runs a *traced* grid with a crash-safe journal: each finished job
/// appends its latency breakdown (`lat` line) and its result (`job` line)
/// in one flush, and a resume returns journaled jobs' `(result, breakdown)`
/// pairs without re-running them. The sketch codec is bit-exact and sketch
/// merges are order-invariant, so percentile reports built from the
/// returned breakdowns — per job or merged across the grid — are
/// byte-identical whether the grid ran uninterrupted or was killed and
/// resumed (the property the journal tests pin).
///
/// Only the percentile plane survives the journal round-trip; event buffers
/// and epoch series belong to live [`ObsReport`]s and are not journaled.
///
/// # Errors
///
/// Returns [`SilcFmError::Journal`] when the journal cannot be written, is
/// corrupt, or belongs to a different grid.
pub fn run_grid_traced_journaled(
    jobs: &[Job],
    trace: &TraceParams,
    threads: usize,
    path: &Path,
    resume: bool,
    on_done: impl FnMut(usize, &(RunResult, LatencyBreakdown)),
) -> Result<Vec<(RunResult, LatencyBreakdown)>, SilcFmError> {
    let digest = journal::grid_digest(jobs);
    let (writer, done) = if resume && path.exists() {
        let (writer, results, mut lats) = journal::resume_traced(path, digest)?;
        let done: std::collections::BTreeMap<usize, (RunResult, LatencyBreakdown)> = results
            .into_iter()
            .filter_map(|(i, r)| lats.remove(&i).map(|l| (i, (r, l))))
            .collect();
        (writer, done)
    } else {
        (
            journal::JournalWriter::create(path, digest)?,
            std::collections::BTreeMap::new(),
        )
    };
    run_grid_journaled_core(
        jobs,
        threads,
        writer,
        done,
        on_done,
        |job| {
            let (result, report) =
                run_traced(&job.profile, job.scheme, &job.cfg, &job.params, trace);
            (result, report.latency)
        },
        |w, i, (result, lat)| w.append_traced(i, result, lat),
    )
}

/// The scheduling/journaling engine shared by the plain and traced
/// journaled grids, generic over the per-job record `R`: executes missing
/// jobs with deal/steal workers, appends each record through `append` the
/// moment its worker reports it, and reassembles everything in job order.
fn run_grid_journaled_core<R, F>(
    jobs: &[Job],
    threads: usize,
    mut writer: journal::JournalWriter,
    done: std::collections::BTreeMap<usize, R>,
    mut on_done: impl FnMut(usize, &R),
    execute: F,
    append: impl Fn(&mut journal::JournalWriter, usize, &R) -> Result<(), SilcFmError>,
) -> Result<Vec<R>, SilcFmError>
where
    R: Send,
    F: Fn(&Job) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(jobs.len(), || None);
    for (index, result) in done {
        if let Some(slot) = slots.get_mut(index) {
            *slot = Some(result);
        }
        // Indices past the grid cannot occur for a digest-matched journal;
        // ignoring them beats panicking on a hand-edited file.
    }
    let todo: Vec<usize> = (0..jobs.len()).filter(|&i| slots[i].is_none()).collect();

    // Each record hits the journal as its worker finishes, not after the
    // whole grid completes — a kill at any moment loses at most the jobs
    // still in flight.
    run_pool(jobs, &todo, threads, execute, |idx, result| {
        append(&mut writer, idx, &result)?;
        on_done(idx, &result);
        if let Some(slot) = slots.get_mut(idx) {
            *slot = Some(result);
        }
        Ok::<(), SilcFmError>(())
    })?;

    slots
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.ok_or_else(|| SilcFmError::journal(format!("job {i} produced no result"))))
        .collect()
}

/// Runs `jobs` with full observability (see
/// [`run_traced`](crate::experiment::run_traced)) across `threads` workers.
/// Results and reports come back in job order — each job's tracers are its
/// own, so the traces (and their exports) are byte-identical to a serial
/// `run_traced` loop at any thread count.
pub fn run_grid_traced(
    jobs: &[Job],
    trace: &TraceParams,
    threads: usize,
) -> Vec<(RunResult, ObsReport)> {
    run_grid_with(jobs, threads, |job| {
        run_traced(&job.profile, job.scheme, &job.cfg, &job.params, trace)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use silcfm_trace::profiles;

    fn small_grid() -> Vec<Job> {
        ExperimentGrid::new(SystemConfig::small(), RunParams::smoke())
            .workload(profiles::by_name("milc").unwrap())
            .workload(profiles::by_name("lib").unwrap())
            .schemes([SchemeKind::NoNm, SchemeKind::Rand, SchemeKind::silcfm()])
            .jobs()
    }

    #[test]
    fn grid_is_workload_major() {
        let jobs = small_grid();
        assert_eq!(jobs.len(), 6);
        assert_eq!(jobs[0].profile.name, "milc");
        assert_eq!(jobs[2].profile.name, "milc");
        assert_eq!(jobs[3].profile.name, "lib");
        assert_eq!(jobs[0].scheme.label(), "base");
        assert_eq!(jobs[5].scheme.label(), "silcfm");
    }

    #[test]
    fn all_workloads_covers_table3() {
        let jobs = ExperimentGrid::new(SystemConfig::small(), RunParams::smoke())
            .all_workloads()
            .scheme(SchemeKind::NoNm)
            .jobs();
        assert_eq!(jobs.len(), 14);
    }

    #[test]
    fn per_job_seeds_are_distinct_and_stable() {
        let grid = ExperimentGrid::new(SystemConfig::small(), RunParams::smoke())
            .workload(profiles::by_name("milc").unwrap())
            .workload(profiles::by_name("lib").unwrap())
            .schemes([SchemeKind::NoNm, SchemeKind::Rand])
            .seed_per_job();
        let a = grid.jobs();
        let b = grid.jobs();
        assert_eq!(a, b, "seed derivation is deterministic");
        let seeds: silcfm_types::FxHashSet<u64> = a.iter().map(|j| j.params.seed).collect();
        assert_eq!(seeds.len(), a.len(), "every job gets its own seed");
    }

    #[test]
    fn parallel_results_match_serial_bit_for_bit() {
        let jobs = small_grid();
        let serial = run_grid_serial(&jobs);
        for threads in [2, 3, 8] {
            let parallel = run_grid(&jobs, threads);
            assert_eq!(parallel.len(), serial.len());
            for (p, s) in parallel.iter().zip(&serial) {
                assert_eq!(p.cycles, s.cycles, "{}/{}", s.workload, s.scheme);
                assert_eq!(p.traffic, s.traffic);
                assert_eq!(p.scheme_stats, s.scheme_stats);
                assert_eq!(p.llc_misses, s.llc_misses);
            }
        }
    }

    #[test]
    fn degenerate_pools_still_work() {
        let jobs = &small_grid()[..1];
        assert_eq!(run_grid(jobs, 1).len(), 1);
        assert_eq!(run_grid(jobs, 16).len(), 1);
        assert!(run_grid(&[], 4).is_empty());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = option_env!("CARGO_TARGET_TMPDIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(std::env::temp_dir)
            .join("silcfm-runner-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn journaled_grid_matches_serial_bit_for_bit() {
        let jobs = small_grid();
        let path = tmp("full.journal");
        let serial = run_grid_serial(&jobs);
        let journaled = run_grid_journaled(&jobs, 3, &path, false, |_, _| {}).unwrap();
        assert_eq!(serial, journaled);
        // A resume with everything already done re-runs nothing and still
        // returns the identical aggregate.
        let mut reran = 0;
        let resumed = run_grid_journaled(&jobs, 3, &path, true, |_, _| reran += 1).unwrap();
        assert_eq!(reran, 0);
        assert_eq!(serial, resumed);
    }

    #[test]
    fn interrupted_journal_resumes_without_repeating_work() {
        let jobs = small_grid();
        let path = tmp("partial.journal");
        let serial = run_grid_serial(&jobs);

        // Simulate a run killed after three jobs: journal only a prefix.
        let digest = journal::grid_digest(&jobs);
        let mut w = journal::JournalWriter::create(&path, digest).unwrap();
        for (i, r) in serial.iter().enumerate().take(3) {
            w.append(i, r).unwrap();
        }
        drop(w);

        let mut executed = Vec::new();
        let resumed = run_grid_journaled(&jobs, 2, &path, true, |i, _| executed.push(i)).unwrap();
        executed.sort_unstable();
        assert_eq!(executed, vec![3, 4, 5], "only the missing jobs run");
        assert_eq!(serial, resumed, "resumed aggregate is bit-identical");
    }

    #[test]
    fn journal_from_a_different_grid_is_refused() {
        let jobs = small_grid();
        let path = tmp("foreign.journal");
        let _ = run_grid_journaled(&jobs[..2], 1, &path, false, |_, _| {}).unwrap();
        let err = run_grid_journaled(&jobs, 2, &path, true, |_, _| {}).unwrap_err();
        assert!(err.to_string().contains("different grid"), "{err}");
    }

    /// Breakdowns as comparable bytes: the sketch codec is bit-exact, so
    /// string equality *is* distribution equality.
    fn encode_all(pairs: &[(RunResult, silcfm_obs::LatencyBreakdown)]) -> Vec<String> {
        pairs
            .iter()
            .map(|(_, lat)| {
                let mut s = String::new();
                lat.encode(&mut s);
                s
            })
            .collect()
    }

    #[test]
    fn traced_journal_resumes_byte_identically() {
        let jobs = small_grid();
        let trace = crate::experiment::TraceParams::default();
        let path = tmp("traced.journal");
        // One thread keeps journal lines in job order, which the crash
        // surgery below relies on; the resumes exercise the pool.
        let full = run_grid_traced_journaled(&jobs, &trace, 1, &path, false, |_, _| {}).unwrap();
        let results: Vec<&RunResult> = full.iter().map(|(r, _)| r).collect();
        let serial = run_grid_serial(&jobs);
        assert_eq!(serial.iter().collect::<Vec<_>>(), results);

        // Resume with everything sealed: nothing re-runs, and every
        // breakdown comes back byte-identical from the journal.
        let mut reran = 0;
        let resumed =
            run_grid_traced_journaled(&jobs, &trace, 2, &path, true, |_, _| reran += 1).unwrap();
        assert_eq!(reran, 0);
        assert_eq!(encode_all(&full), encode_all(&resumed));

        // Kill mid-grid: keep the header, job 0's sealed two-line record,
        // and job 1's `lat` line *without* its sealing `job` line — exactly
        // the crash window inside `append_traced`. The orphan's job re-runs
        // and the final percentile plane is still byte-identical.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: String = text.lines().take(4).map(|l| format!("{l}\n")).collect();
        assert!(
            keep.lines().nth(3).is_some_and(|l| l.starts_with("lat 1 ")),
            "test premise: line 3 is job 1's lat record"
        );
        let partial = tmp("traced-partial.journal");
        std::fs::write(&partial, keep).unwrap();
        let mut executed = Vec::new();
        let resumed =
            run_grid_traced_journaled(&jobs, &trace, 1, &partial, true, |i, _| executed.push(i))
                .unwrap();
        executed.sort_unstable();
        assert_eq!(executed, vec![1, 2, 3, 4, 5], "orphaned job 1 re-runs");
        assert_eq!(encode_all(&full), encode_all(&resumed));
    }
}
