//! The benchmark's four workloads and the untraced batch that times them.
//!
//! Every workload is a fixed set of simulation jobs run from one process,
//! one job after another (a closed loop with one client), except
//! `fig7-grid`, which hands its whole job list to `run_grid` with one
//! worker per host core. Each job builds its machine from scratch, so the
//! simulated caches start empty, as they do in the figure harnesses.

use std::sync::Mutex;
use std::time::Instant;

use silcfm_serve::{
    plan_trial, FailureTimeline, LanePlan, RequestLedger, RequestTracker, ServeLaneGen,
    ServeParams, ServeSource,
};
use silcfm_sim::experiment::space_for;
use silcfm_sim::runner::ExperimentGrid;
use silcfm_sim::system::SystemOutcome;
use silcfm_sim::{
    run_grid, run_system_sharded_tapped, Job, LaneSource, RecordFeed, RecordStream, RunParams,
    RunResult, SchemeKind, ServiceTap, ShardParams, System,
};
use silcfm_trace::{arrivals, profiles, WorkloadGen, WorkloadProfile};
use silcfm_types::{CoreId, SystemConfig, TraceRecord};

/// Rates of the serve ladder, in requests per million cycles per lane:
/// below, at and above the Poisson knee (637) that the `slo` bench's
/// smoke search recorded for SILC-FM on `mcf` in `results/BENCH_slo.json`.
pub const SERVE_RATES: [u64; 3] = [450, 637, 1100];

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small config, FM-only `base`, `mcf` + `omnet`: host time goes to
    /// the generator, translation and the cache hierarchy.
    CacheboundBase,
    /// Experiment config, SILC-FM, `lbm` + `leslie`: store-heavy, every
    /// access misses the LLC, so the swap engine, writebacks and DRAM work.
    MemhotSilcfm,
    /// A reduced Fig. 7 grid (7 schemes x 4 workloads) through `run_grid`.
    Fig7Grid,
    /// `mcf` on SILC-FM under open-loop Poisson arrivals at three rates.
    ServePoisson,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Self; 4] = [
        Self::CacheboundBase,
        Self::MemhotSilcfm,
        Self::Fig7Grid,
        Self::ServePoisson,
    ];

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::CacheboundBase => "cachebound-base",
            Self::MemhotSilcfm => "memhot-silcfm",
            Self::Fig7Grid => "fig7-grid",
            Self::ServePoisson => "serve-poisson",
        }
    }

    /// The simulated machine and its label.
    pub fn config(self) -> (SystemConfig, &'static str) {
        match self {
            Self::CacheboundBase | Self::ServePoisson => (SystemConfig::small(), "small"),
            Self::MemhotSilcfm | Self::Fig7Grid => (SystemConfig::experiment(), "experiment"),
        }
    }

    /// Host threads the workload runs on: `run_grid` gets one per host
    /// core; every other workload runs on the calling thread.
    pub fn threads(self) -> usize {
        match self {
            Self::Fig7Grid => host_cores(),
            _ => 1,
        }
    }

    /// The run size and seeding of every job of the workload. Sizes are
    /// fixed: a batch takes about a second of host time, so a run repeats
    /// it several times and reports medians.
    pub fn params(self, seed: u64) -> RunParams {
        let (accesses_per_core, footprint_scale) = match self {
            Self::CacheboundBase => (250_000, 0.5),
            Self::MemhotSilcfm => (40_000, 0.5),
            Self::Fig7Grid => (10_000, 0.5),
            // The smoke size the knee in `BENCH_slo.json` was searched at.
            Self::ServePoisson => (RunParams::smoke().accesses_per_core, 0.2),
        };
        RunParams {
            accesses_per_core,
            seed,
            footprint_scale,
            fm_to_nm_ratio: 4,
        }
    }

    /// The workload's jobs, in execution order.
    pub fn jobs(self, seed: u64) -> Vec<BenchJob> {
        let (cfg, _) = self.config();
        let params = self.params(seed);
        let grid = |schemes: Vec<SchemeKind>, names: &[&str]| -> Vec<BenchJob> {
            names
                .iter()
                .fold(
                    ExperimentGrid::new(cfg, params).schemes(schemes),
                    |g, name| g.workload(profile(name)),
                )
                .jobs()
                .into_iter()
                .map(|job| BenchJob { job, rate: None })
                .collect()
        };
        match self {
            Self::CacheboundBase => grid(vec![SchemeKind::NoNm], &["mcf", "omnet"]),
            Self::MemhotSilcfm => grid(vec![SchemeKind::silcfm()], &["lbm", "leslie"]),
            // One workload per story of the paper's §V: xalanc (locking),
            // gcc (associativity), gems (hot-set churn), milc (high MPKI).
            Self::Fig7Grid => {
                let mut schemes = vec![SchemeKind::NoNm];
                schemes.extend(SchemeKind::fig7_lineup());
                grid(schemes, &["xalanc", "gcc", "gems", "milc"])
            }
            Self::ServePoisson => {
                let job = grid(vec![SchemeKind::silcfm()], &["mcf"])[0].job;
                SERVE_RATES
                    .iter()
                    .map(|&rate| BenchJob {
                        job,
                        rate: Some(rate),
                    })
                    .collect()
            }
        }
    }
}

/// Host cores available to the process (`nproc`).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn profile(name: &str) -> &'static WorkloadProfile {
    profiles::by_name(name).expect("benchmark workloads name Table III profiles")
}

/// One simulation of a workload: a closed-loop job, or one rung of the
/// serve ladder when `rate` is set.
#[derive(Debug, Clone, Copy)]
pub struct BenchJob {
    /// Profile, scheme, config and run size.
    pub job: Job,
    /// Offered rate of a serve rung (requests per million cycles per lane).
    pub rate: Option<u64>,
}

impl BenchJob {
    /// `workload/scheme` (and `@rate` for a serve rung).
    pub fn label(&self) -> String {
        match self.rate {
            Some(rate) => format!(
                "{}/{}@{rate}",
                self.job.profile.name,
                self.job.scheme.label()
            ),
            None => format!("{}/{}", self.job.profile.name, self.job.scheme.label()),
        }
    }

    /// Simulated memory accesses the job services.
    pub fn accesses(&self) -> u64 {
        self.job.params.accesses_per_core * u64::from(self.job.cfg.core.cores)
    }

    /// The footprint-scaled profile the lanes run.
    pub fn scaled(&self) -> WorkloadProfile {
        profiles::scaled(&self.job.profile, self.job.params.footprint_scale)
    }

    /// Builds the machine exactly as `silcfm_sim::run` does.
    pub fn system(&self) -> System {
        let job = &self.job;
        let space = space_for(&self.scaled(), &job.cfg, &job.params);
        System::new(
            job.cfg,
            space,
            job.scheme.placement(job.params.seed),
            job.scheme.build(space, self.accesses()),
        )
    }

    /// The serving contract of the ladder: the `slo` bench's plane, whose
    /// admission estimate is optimistic so only real overload sheds.
    pub fn serve_params() -> ServeParams {
        ServeParams {
            est_service_cycles: 40,
            slo_p99_cycles: 8_000,
            ..ServeParams::default_plane()
        }
    }

    /// The admission plan of a serve rung (as `run_serve` plans it).
    pub fn plans(&self, rate: u64) -> Vec<LanePlan> {
        let arrival = arrivals::by_name("poisson").expect("the poisson arrival profile exists");
        plan_trial(
            arrival,
            rate,
            self.job.cfg.core.cores,
            self.job.params.seed,
            self.job.params.accesses_per_core,
            &Self::serve_params(),
        )
    }
}

/// The serial engine's record feed: one generator per lane, pulled in
/// chunks of up to 1024 records, the contract `System::run`'s internal
/// feed follows. Built before the run so the generators' construction
/// counts as set-up.
pub struct LaneFeed<G> {
    gens: Vec<G>,
}

impl LaneFeed<WorkloadGen> {
    /// The closed-loop generators of `job`'s lanes, as `System::run`
    /// builds them.
    pub fn closed(job: &BenchJob) -> Self {
        let scaled = job.scaled();
        Self {
            gens: (0..job.job.cfg.core.cores)
                .map(|i| WorkloadGen::new(&scaled, CoreId::new(i), job.job.params.seed))
                .collect(),
        }
    }
}

impl<G: RecordStream> RecordFeed for LaneFeed<G> {
    fn next(&mut self, lane: usize) -> TraceRecord {
        self.gens[lane].next_record()
    }

    fn next_chunk(&mut self, lane: usize, buf: &mut Vec<TraceRecord>, max: u64) -> usize {
        let gen = &mut self.gens[lane];
        let count = max.min(1024) as usize;
        buf.extend((0..count).map(|_| gen.next_record()));
        count
    }
}

/// Per-lane serve streams built ahead of the run, handed to the shard
/// feed on request. Each lane's stream is taken exactly once: the inline
/// engine (one thread) asks for every lane once, before the first access.
pub struct PrebuiltSource {
    streams: Mutex<Vec<Option<ServeLaneGen>>>,
}

impl PrebuiltSource {
    /// Builds every lane's admission-stamped stream of `source`.
    pub fn new(source: &ServeSource<'_>, lanes: u16) -> Self {
        Self {
            streams: Mutex::new(
                (0..usize::from(lanes))
                    .map(|i| Some(source.stream(i)))
                    .collect(),
            ),
        }
    }
}

impl LaneSource for PrebuiltSource {
    type Stream = ServeLaneGen;

    fn stream(&self, lane: usize) -> ServeLaneGen {
        self.streams
            .lock()
            .expect("no thread panics while holding the stream list")
            .get_mut(lane)
            .and_then(Option::take)
            .expect("each lane's stream is taken once")
    }
}

/// A serve rung's machine, ready to run: the output of set-up.
pub struct ServeMachine {
    /// The simulated system.
    pub system: System,
    /// The request tracker that rides the service tap.
    pub tracker: RequestTracker,
    /// The lanes' record streams.
    pub source: PrebuiltSource,
}

impl ServeMachine {
    /// Builds and wires one rung over its admission `plans`, as
    /// `run_serve` does without faults.
    pub fn build(job: &BenchJob, plans: &[LanePlan]) -> Self {
        let serve = BenchJob::serve_params();
        let scaled = job.scaled();
        Self {
            system: job.system(),
            tracker: RequestTracker::new(plans, &serve, FailureTimeline::default()),
            source: PrebuiltSource::new(
                &ServeSource::new(&scaled, plans, &serve, job.job.params.seed),
                job.job.cfg.core.cores,
            ),
        }
    }

    /// Runs the rung on the serial (inline) shard engine with the service
    /// tap `wrap` builds around the request tracker; returns the system,
    /// the engine outcome and the tap.
    pub fn run<S: ServiceTap>(
        self,
        job: &BenchJob,
        wrap: impl FnOnce(RequestTracker) -> S,
    ) -> (System, SystemOutcome, S) {
        let Self {
            mut system,
            tracker,
            source,
        } = self;
        let mut tap = wrap(tracker);
        let out = run_system_sharded_tapped(
            &mut system,
            &source,
            job.job.params.accesses_per_core,
            &ShardParams::with_threads(1),
            &mut tap,
        )
        .0;
        (system, out, tap)
    }
}

/// Folds a finished closed-loop system into the figure-level result, the
/// way `silcfm_sim::run` does, so bench-driven jobs and `run_grid` jobs
/// digest alike.
pub fn result_of(job: &BenchJob, system: &System, out: SystemOutcome) -> RunResult {
    let scheme_stats = system.scheme().stats();
    RunResult {
        scheme: job.job.scheme.label().to_string(),
        workload: job.job.profile.name.to_string(),
        cycles: out.cycles,
        instructions: out.instructions,
        llc_misses: out.llc_misses,
        access_rate: scheme_stats.access_rate(),
        traffic: *system.tally(),
        energy_pj: system.energy_pj(out.cycles),
        scheme_stats,
        mpki: if out.instructions == 0 {
            0.0
        } else {
            out.llc_misses as f64 * 1000.0 / out.instructions as f64
        },
        footprint_bytes: system.footprint_bytes(),
    }
}

/// 64-bit FNV-1a of a rendering of simulated statistics.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest of a closed-loop job: every field of its [`RunResult`].
pub fn run_digest(result: &RunResult) -> u64 {
    fnv1a(&format!("{result:?}"))
}

/// The digest of a serve rung: its serving-plane state (ledger, latency
/// sketch, epoch series) as `ServeReport::digest` renders it, plus the
/// engine cycles and scheme statistics.
pub fn serve_digest(cycles: u64, stats_digest: &str, scheme: &silcfm_types::SchemeStats) -> u64 {
    fnv1a(&format!("cycles {cycles}\n{stats_digest}{scheme:?}"))
}

/// The serve ledger check: offered = completed + shed + timed out +
/// failed, and admitted = completed + timed out + failed.
pub fn ledger_failures(ledger: &RequestLedger) -> Vec<String> {
    if ledger.conserved() {
        Vec::new()
    } else {
        vec![format!("serve ledger not conserved: {ledger:?}")]
    }
}

/// What one job of one batch measured.
#[derive(Debug, Clone)]
pub struct JobTiming {
    /// Host seconds building the machine (and, for serve, its plans).
    pub setup_s: f64,
    /// Host seconds running it.
    pub run_s: f64,
    /// Digest of every simulated statistic the job reports.
    pub digest: u64,
    /// Failed checks (empty when the job is correct).
    pub failures: Vec<String>,
}

/// One untraced batch: every job of the workload once.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Host seconds from the first machine's construction to the last
    /// result.
    pub wall_s: f64,
    /// Set-up seconds summed over jobs.
    pub setup_s: f64,
    /// Host seconds of simulation, set-up excluded. For the grid, the
    /// wall time less the set-up share of each worker.
    pub run_s: f64,
    /// Per-job outcome, in job order (a panicked job's digest is 0).
    pub jobs: Vec<JobTiming>,
}

/// Runs one job untraced: set-up, then the run, each timed.
fn time_job(job: &BenchJob) -> JobTiming {
    let t0 = Instant::now();
    match job.rate {
        None => {
            let mut system = job.system();
            let mut feed = LaneFeed::closed(job);
            let t1 = Instant::now();
            let out = system.run_with_feed(&mut feed, job.job.params.accesses_per_core);
            let t2 = Instant::now();
            let result = result_of(job, &system, out);
            JobTiming {
                setup_s: (t1 - t0).as_secs_f64(),
                run_s: (t2 - t1).as_secs_f64(),
                digest: run_digest(&result),
                failures: Vec::new(),
            }
        }
        Some(rate) => {
            let machine = ServeMachine::build(job, &job.plans(rate));
            let t1 = Instant::now();
            let (system, out, tracker) = machine.run(job, |t| t);
            let stats = tracker.finish(out.cycles);
            let t2 = Instant::now();
            JobTiming {
                setup_s: (t1 - t0).as_secs_f64(),
                run_s: (t2 - t1).as_secs_f64(),
                digest: serve_digest(out.cycles, &stats.digest(), &system.scheme().stats()),
                failures: ledger_failures(&stats.ledger),
            }
        }
    }
}

/// A job that panicked: counted as failed, timed as nothing.
fn panicked(label: &str) -> JobTiming {
    JobTiming {
        setup_s: 0.0,
        run_s: 0.0,
        digest: 0,
        failures: vec![format!("{label}: panicked")],
    }
}

/// Runs `jobs` one after another on this thread, untraced.
pub fn run_serial(jobs: &[BenchJob]) -> Batch {
    let start = Instant::now();
    let timings: Vec<JobTiming> = jobs
        .iter()
        .map(|j| std::panic::catch_unwind(|| time_job(j)).unwrap_or_else(|_| panicked(&j.label())))
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    Batch {
        wall_s,
        setup_s: timings.iter().map(|t| t.setup_s).sum(),
        run_s: timings.iter().map(|t| t.run_s).sum(),
        jobs: timings,
    }
}

/// Runs every job of `workload` once, untraced: serially, or for the
/// grid through `run_grid`.
pub fn run_batch(workload: Workload, jobs: &[BenchJob]) -> Batch {
    if workload != Workload::Fig7Grid {
        return run_serial(jobs);
    }

    // `run_grid` builds each machine inside its worker, so set-up is
    // timed by building the same machines (and lane generators) here.
    let setup: Vec<f64> = jobs
        .iter()
        .map(|j| {
            let t0 = Instant::now();
            let built = (j.system(), LaneFeed::closed(j));
            let s = t0.elapsed().as_secs_f64();
            drop(built);
            s
        })
        .collect();
    let setup_s: f64 = setup.iter().sum();
    let threads = workload.threads();
    let grid: Vec<Job> = jobs.iter().map(|j| j.job).collect();
    let start = Instant::now();
    let results = std::panic::catch_unwind(|| run_grid(&grid, threads));
    let wall_s = start.elapsed().as_secs_f64();
    let timings = match results {
        Ok(results) => results
            .iter()
            .zip(&setup)
            .map(|(r, &s)| JobTiming {
                setup_s: s,
                run_s: 0.0,
                digest: run_digest(r),
                failures: Vec::new(),
            })
            .collect(),
        Err(_) => jobs.iter().map(|j| panicked(&j.label())).collect(),
    };
    Batch {
        wall_s,
        setup_s,
        run_s: wall_s - setup_s / threads as f64,
        jobs: timings,
    }
}
