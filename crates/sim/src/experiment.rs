//! Experiment plumbing: scheme factory, run parameters, and the single-run
//! entry point used by every figure harness.

use silcfm_baselines::{Cameo, CameoParams, Hma, HmaParams, Pom, PomParams, RandomStatic};
use silcfm_core::{SilcFm, SilcFmParams};
use silcfm_dram::DramConfig;
use silcfm_fault::{FaultDriver, FaultRates, FaultSchedule, FaultStats, FaultTopology};
use silcfm_obs::{MetricsOnlyTracer, ObsReport, RingTracer, SamplingTracer};
use silcfm_trace::{profiles, PlacementPolicy, WorkloadProfile};
use silcfm_types::obs::{NullTracer, Tracer, EVENT_KINDS};
use silcfm_types::{AddressSpace, Geometry, MemoryScheme, SilcFmError, SystemConfig};

use crate::metrics::RunResult;
use crate::observe::RunObs;
use crate::system::System;

/// Which placement scheme to simulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeKind {
    /// The paper's baseline system without die-stacked DRAM: everything in
    /// FM, no migration. All speedups are normalized to this.
    NoNm,
    /// Random static placement over NM+FM (`rand`).
    Rand,
    /// Epoch-based OS management (`hma`).
    Hma,
    /// CAMEO (`cam`).
    Cameo,
    /// CAMEO with next-3-line prefetching (`camp`).
    CameoPrefetch,
    /// Part of Memory (`pom`).
    Pom,
    /// SILC-FM with the given feature configuration (`silcfm`).
    SilcFm(SilcFmParams),
}

impl SchemeKind {
    /// Full SILC-FM with the paper's parameters.
    pub fn silcfm() -> Self {
        Self::SilcFm(SilcFmParams::paper())
    }

    /// Label used in figures ("base", "rand", "hma", "cam", "camp", "pom",
    /// "silcfm").
    pub fn label(&self) -> &'static str {
        match self {
            Self::NoNm => "base",
            Self::Rand => "rand",
            Self::Hma => "hma",
            Self::Cameo => "cam",
            Self::CameoPrefetch => "camp",
            Self::Pom => "pom",
            Self::SilcFm(_) => "silcfm",
        }
    }

    /// The static page placement this scheme starts from.
    pub fn placement(&self, seed: u64) -> PlacementPolicy {
        match self {
            Self::NoNm => PlacementPolicy::FarOnly,
            _ => PlacementPolicy::RandomSeeded(seed),
        }
    }

    /// Instantiates the scheme over `space` for a run of `total_accesses`
    /// memory accesses, untraced.
    ///
    /// The paper's time constants (HMA's epoch, SILC-FM's 1 M-access aging
    /// period, PoM's counter decay) are proportions of a 16-billion-
    /// instruction run; here they are scaled to the same *proportion* of the
    /// simulated run so reduced runs exercise the same number of epochs and
    /// agings as the full-length ones.
    pub fn build(&self, space: AddressSpace, total_accesses: u64) -> Box<dyn MemoryScheme> {
        self.build_with_tracer(space, total_accesses, NullTracer)
    }

    /// [`SchemeKind::build`] with a SILC-FM controller recording its
    /// observability events into `tracer` (a ring or sampling tier).
    /// Baseline schemes have no controller-side emit points and build
    /// unchanged (their trace hooks are the [`MemoryScheme`] defaults).
    pub fn build_with_tracer<T: Tracer + 'static>(
        &self,
        space: AddressSpace,
        total_accesses: u64,
        tracer: T,
    ) -> Box<dyn MemoryScheme> {
        let period = (total_accesses / 16).max(1_000);
        match self {
            Self::NoNm | Self::Rand => Box::new(RandomStatic::new(space)),
            Self::Hma => {
                // Software overheads and the hotness threshold are fixed
                // *fractions* of an epoch in the paper's setup; scale them
                // with the shortened epochs so HMA keeps its real-system
                // cost/benefit proportions.
                // Paper-scale epochs span ~1.5e8 accesses (hundreds of ms
                // at 16 cores); software stall costs shrink by the same
                // factor as the epochs so the ~1 % overhead proportion is
                // preserved.
                let scale = period as f64 / 150_000_000.0;
                Box::new(Hma::new(
                    space,
                    HmaParams {
                        epoch_accesses: period,
                        // The threshold adapts dynamically from this start.
                        hot_threshold: 64,
                        stall_per_migration: ((5_000.0 * scale) as u64).max(1),
                        stall_per_epoch: ((200_000.0 * scale) as u64).max(1),
                    },
                ))
            }
            Self::Cameo => Box::new(Cameo::new(space, CameoParams::default())),
            Self::CameoPrefetch => Box::new(Cameo::new(space, CameoParams::with_prefetch())),
            Self::Pom => Box::new(Pom::new(
                space,
                PomParams {
                    decay_period: period,
                    ..PomParams::default()
                },
            )),
            Self::SilcFm(params) => Box::new(SilcFm::with_tracer(
                space,
                Geometry::paper(),
                Self::scale_silcfm(params, total_accesses),
                tracer,
            )),
        }
    }

    /// The paper's published constants assume full-length runs; scale them
    /// to `total_accesses` unless the caller overrode the defaults.
    fn scale_silcfm(params: &SilcFmParams, total_accesses: u64) -> SilcFmParams {
        let period = (total_accesses / 16).max(1_000);
        let mut p = *params;
        if p.aging_period == SilcFmParams::paper().aging_period {
            p.aging_period = period;
        }
        if p.bypass_window == SilcFmParams::paper().bypass_window {
            p.bypass_window = (total_accesses / 64).max(500);
        }
        if p.lock_threshold == SilcFmParams::paper().lock_threshold {
            // Threshold 50 is calibrated against 1 M-access aging
            // periods; keep the same touches-per-period proportion.
            // The floor keeps locking selective: a lock fetches a
            // whole 2 KB block, which only pays off for blocks with
            // sustained reuse.
            p.lock_threshold = ((50.0 * p.aging_period as f64 / 1_000_000.0) as u8).clamp(16, 50);
        }
        p
    }

    /// The six schemes of Fig. 7, in the paper's order.
    pub fn fig7_lineup() -> Vec<SchemeKind> {
        vec![
            Self::Rand,
            Self::Hma,
            Self::Cameo,
            Self::CameoPrefetch,
            Self::Pom,
            Self::silcfm(),
        ]
    }
}

/// Size and reproducibility knobs for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunParams {
    /// Memory accesses issued per core.
    pub accesses_per_core: u64,
    /// Workload/placement RNG seed.
    pub seed: u64,
    /// Footprint scale applied to the Table III profiles.
    pub footprint_scale: f64,
    /// FM:NM capacity ratio (4 in the main experiments; Fig. 9 sweeps it).
    pub fm_to_nm_ratio: u64,
}

impl RunParams {
    /// Full-size experiment runs (minutes across the whole Fig. 7 grid).
    /// The access count is sized so each hot page is touched hundreds of
    /// times, amortizing migrations the way the paper's billion-instruction
    /// runs do.
    pub const fn full() -> Self {
        Self {
            accesses_per_core: 600_000,
            seed: 2017,
            footprint_scale: 1.0,
            fm_to_nm_ratio: 4,
        }
    }

    /// Reduced runs for `--quick` experiment invocations (tens of seconds).
    /// The footprint scale keeps hot sets comfortably larger than the LLC.
    pub const fn quick() -> Self {
        Self {
            accesses_per_core: 150_000,
            seed: 2017,
            footprint_scale: 0.5,
            fm_to_nm_ratio: 4,
        }
    }

    /// Tiny runs for unit tests and doctests. The scale is chosen so hot
    /// working sets still exceed [`SystemConfig::small`]'s 1 MiB LLC —
    /// below that, the memory system sees only cold misses and no placement
    /// scheme can help.
    pub const fn smoke() -> Self {
        Self {
            accesses_per_core: 30_000,
            seed: 2017,
            footprint_scale: 0.2,
            fm_to_nm_ratio: 4,
        }
    }

    /// Returns a copy with a different FM:NM ratio (Fig. 9).
    pub const fn with_ratio(mut self, ratio: u64) -> Self {
        self.fm_to_nm_ratio = ratio;
        self
    }
}

impl Default for RunParams {
    fn default() -> Self {
        Self::full()
    }
}

/// Sizes the flat address space for a workload: FM holds the whole combined
/// footprint (so the no-NM baseline fits), NM adds `1/ratio` on top, and
/// block counts stay divisible by 64 for set/associativity alignment.
pub fn space_for(
    profile: &WorkloadProfile,
    cfg: &SystemConfig,
    params: &RunParams,
) -> AddressSpace {
    let total_pages = profile.footprint_pages * u64::from(cfg.core.cores);
    let align = params.fm_to_nm_ratio * 64;
    let fm_blocks = total_pages.div_ceil(align) * align;
    let nm_blocks = fm_blocks / params.fm_to_nm_ratio;
    AddressSpace::new(nm_blocks * 2048, fm_blocks * 2048)
}

/// Fault-injection knobs for [`RunSpec::faults`]: an independent seed (so
/// the fault plane never perturbs workload or placement randomness), a
/// schedule horizon in CPU cycles, and the per-class rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultParams {
    /// Seed of the fault plane, decorrelated from [`RunParams::seed`].
    pub fault_seed: u64,
    /// CPU-cycle horizon the schedule covers; faults past the run's actual
    /// length are simply never delivered.
    pub horizon_cycles: u64,
    /// Per-class injection rates.
    pub rates: FaultRates,
}

impl FaultParams {
    /// Generates this configuration's schedule for `scheme` over `space`.
    /// The topology is what the scheme exposes there: the controller's way
    /// count, NM frame and subblock geometry, and the Table II channel
    /// counts. The same inputs always give the same schedule, so audits
    /// can regenerate the one a run was armed with.
    ///
    /// # Errors
    ///
    /// Returns [`SilcFmError::FaultConfig`] when the rates or derived
    /// topology are invalid.
    pub fn schedule_for(
        &self,
        scheme: &SchemeKind,
        space: AddressSpace,
    ) -> Result<FaultSchedule, SilcFmError> {
        let ways = match scheme {
            SchemeKind::SilcFm(p) => p.associativity,
            _ => 1,
        };
        let topo = FaultTopology {
            nm_ways: ways.min(u32::from(u8::MAX)) as u8,
            nm_frames: (space.nm_bytes() / 2048).min(u64::from(u32::MAX)) as u32,
            subblocks: 32,
            nm_channels: DramConfig::hbm2().channels.min(u32::from(u8::MAX)) as u8,
            fm_channels: DramConfig::ddr3().channels.min(u32::from(u8::MAX)) as u8,
        };
        FaultSchedule::generate(self.fault_seed, self.horizon_cycles, &self.rates, &topo)
    }
}

/// How much of a run is observed: the tracer tier on the controller and
/// both DRAM devices, and whether the run keeps the metrics apparatus
/// ([`RunObs`]: epoch sampler, demand-latency histograms and quantile
/// sketches). The tier only decides what is *retained*, never what the
/// simulation does, so every tier's [`RunResult`] equals the `Off` run's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Observe {
    /// Untraced: null tracers everywhere and no [`RunObs`]; every
    /// `if T::ENABLED` emit site compiles away. What [`run`] does.
    #[default]
    Off,
    /// Metrics only: the DRAM devices carry [`MetricsOnlyTracer`]s, whose
    /// `record` inlines to nothing, and the controller runs its untraced
    /// build, yet every observability hook is live. The report has the
    /// full latency-percentile plane (byte-identical to the `Ring` tier's:
    /// both fold the same completions in the same order) and the time
    /// series, but no events. The cheapest "sketches ON" configuration.
    Metrics {
        /// CPU cycles between time-series samples.
        epoch_cycles: u64,
    },
    /// The sampling tier: the controller and both DRAM devices count every
    /// event exactly and retain full events one-in-`period` (a power of
    /// two), so tracing costs a few percent instead of the ring tier's
    /// double-digit share. With `epoch_cycles: None` the run keeps no
    /// [`RunObs`] and returns no report: the always-on configuration whose
    /// overhead the tier's budget is measured against.
    Sampled {
        /// Event capacity of each tracer.
        events_capacity: usize,
        /// Retain one event in this many (a power of two).
        period: u64,
        /// CPU cycles between time-series samples, or no metrics apparatus.
        epoch_cycles: Option<u64>,
    },
    /// Full observability: ring tracers on the controller and both DRAM
    /// devices plus the metrics apparatus. Oldest events are overwritten
    /// once a ring is full; the report counts the drops.
    Ring {
        /// Ring capacity (events) of each tracer.
        events_capacity: usize,
        /// CPU cycles between time-series samples (and queue-depth events).
        epoch_cycles: u64,
    },
}

impl Observe {
    /// Tracer capacity sized for a full workload capture: 1 Mi events.
    pub const CAPTURE_EVENTS: usize = 1 << 20;
    /// Default time-series resolution: a sample every 100 k cycles.
    pub const CAPTURE_EPOCH_CYCLES: u64 = 100_000;
}

/// Everything orthogonal to *what* is simulated: the observability tier
/// and an optional fault schedule. [`run_spec`] takes one; the default is
/// an untraced, fault-free run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunSpec {
    /// The tracer tier and metrics apparatus.
    pub observe: Observe,
    /// A deterministic fault schedule to arm, if any.
    pub faults: Option<FaultParams>,
}

/// What a [`run_spec`] run produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The figure-level metrics, identical to [`run`]'s under the same
    /// faults whatever the tier.
    pub result: RunResult,
    /// The assembled observability report: `Some` for every tier that
    /// keeps the metrics apparatus.
    pub report: Option<ObsReport>,
    /// The controller's exact per-kind event totals (indexed by
    /// [`Event::kind_index`](silcfm_types::obs::Event::kind_index)):
    /// `Some` on the sampling tier, whose tracers count every event.
    pub counters: Option<[u64; EVENT_KINDS]>,
    /// The fault-effect ledger: `Some` when a schedule was armed.
    pub fault_stats: Option<FaultStats>,
}

/// What every run derives from its inputs before it builds a machine: the
/// footprint-scaled profile, the address space sized for it, and the
/// run's total access count (the scheme time constants scale with it).
#[derive(Debug, Clone, Copy)]
pub struct RunSetup {
    /// The workload profile at the run's footprint scale.
    pub scaled: WorkloadProfile,
    /// The flat address space the run simulates.
    pub space: AddressSpace,
    /// Memory accesses over all cores.
    pub total_accesses: u64,
    scheme: SchemeKind,
    cfg: SystemConfig,
    params: RunParams,
}

impl RunSetup {
    /// Derives the setup of `scheme` running `profile` on `cfg` at `params`.
    pub fn new(
        profile: &WorkloadProfile,
        scheme: SchemeKind,
        cfg: &SystemConfig,
        params: &RunParams,
    ) -> Self {
        let scaled = profiles::scaled(profile, params.footprint_scale);
        Self {
            space: space_for(&scaled, cfg, params),
            scaled,
            total_accesses: params.accesses_per_core * u64::from(cfg.core.cores),
            scheme,
            cfg: *cfg,
            params: *params,
        }
    }

    /// Builds the machine the run simulates: `controller` records inside
    /// the scheme, `dram()` makes each DRAM device's tracer, and the run
    /// maintains `obs` when it is `Some`.
    pub fn system<C: Tracer + 'static, T: Tracer>(
        &self,
        controller: C,
        dram: impl Fn() -> T,
        obs: Option<RunObs>,
    ) -> System<T> {
        System::with_observability(
            self.cfg,
            self.space,
            self.scheme.placement(self.params.seed),
            self.scheme
                .build_with_tracer(self.space, self.total_accesses, controller),
            dram(),
            dram(),
            obs,
        )
    }

    /// The one run body behind [`run`] and every [`run_spec`] tier, generic
    /// over the DRAM tracer so each tier is its own monomorphized loop:
    /// arms `faults`, runs the workload on `system`, and collects what the
    /// tier produced (`counted` reads the controller's event counters).
    fn execute<T: Tracer>(
        &self,
        mut system: System<T>,
        faults: Option<FaultDriver>,
        counted: bool,
    ) -> RunOutput {
        let armed = faults.is_some();
        if let Some(driver) = faults {
            system.set_fault_driver(driver);
        }
        let outcome = system.run(
            &self.scaled,
            self.params.accesses_per_core,
            self.params.seed,
        );
        let scheme_stats = system.scheme().stats();
        let mpki = if outcome.instructions == 0 {
            0.0
        } else {
            // Per-core MPKI: total misses and total instructions scale together.
            outcome.llc_misses as f64 * 1000.0 / outcome.instructions as f64
        };
        let result = RunResult {
            scheme: self.scheme.label().to_string(),
            workload: self.scaled.name.to_string(),
            cycles: outcome.cycles,
            instructions: outcome.instructions,
            llc_misses: outcome.llc_misses,
            access_rate: scheme_stats.access_rate(),
            traffic: *system.tally(),
            energy_pj: system.energy_pj(outcome.cycles),
            scheme_stats,
            mpki,
            footprint_bytes: system.footprint_bytes(),
        };
        RunOutput {
            result,
            counters: counted.then(|| system.scheme().trace_counters()),
            fault_stats: armed.then(|| *system.fault_stats()),
            report: system.finish_observation(outcome.cycles),
        }
    }
}

/// Simulates `scheme` on `profile` (rate mode: one copy per core) and
/// returns the measured metrics: the untraced, fault-free spelling of
/// [`run_spec`].
pub fn run(
    profile: &WorkloadProfile,
    scheme: SchemeKind,
    cfg: &SystemConfig,
    params: &RunParams,
) -> RunResult {
    let setup = RunSetup::new(profile, scheme, cfg, params);
    let system = setup.system(NullTracer, || NullTracer, None);
    setup.execute(system, None, false).result
}

/// Simulates `scheme` on `profile` as `spec` says: the result is
/// bit-identical to [`run`]'s whatever the tier; `spec.observe` decides
/// what else comes back, and `spec.faults` arms a deterministic schedule
/// whose faults are delivered before the demand access that first reaches
/// their cycle, with every delivery accounted in the ledger.
///
/// # Errors
///
/// Returns [`SilcFmError::FaultConfig`] when `spec.faults` is invalid.
///
/// # Panics
///
/// Panics if a tier's `events_capacity` is zero or its sampling `period`
/// is not a power of two.
pub fn run_spec(
    profile: &WorkloadProfile,
    scheme: SchemeKind,
    cfg: &SystemConfig,
    params: &RunParams,
    spec: &RunSpec,
) -> Result<RunOutput, SilcFmError> {
    let setup = RunSetup::new(profile, scheme, cfg, params);
    let faults = match &spec.faults {
        Some(f) => Some(FaultDriver::new(f.schedule_for(&scheme, setup.space)?)),
        None => None,
    };
    // Preallocation hint only; the sampler grows if the run overshoots.
    let expected_cycles = params.accesses_per_core.saturating_mul(64);
    let obs = |epoch_cycles| Some(RunObs::new(epoch_cycles, expected_cycles));
    Ok(match spec.observe {
        Observe::Off => {
            let system = setup.system(NullTracer, || NullTracer, None);
            setup.execute(system, faults, false)
        }
        Observe::Metrics { epoch_cycles } => {
            let system = setup.system(NullTracer, || MetricsOnlyTracer, obs(epoch_cycles));
            setup.execute(system, faults, false)
        }
        Observe::Sampled {
            events_capacity,
            period,
            epoch_cycles,
        } => {
            let tracer = || SamplingTracer::with_capacity(events_capacity, period);
            let system = setup.system(tracer(), tracer, epoch_cycles.and_then(obs));
            setup.execute(system, faults, true)
        }
        Observe::Ring {
            events_capacity,
            epoch_cycles,
        } => {
            let tracer = || RingTracer::with_capacity(events_capacity);
            let system = setup.system(tracer(), tracer, obs(epoch_cycles));
            setup.execute(system, faults, false)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> &'static WorkloadProfile {
        profiles::by_name("milc").unwrap()
    }

    /// A smoke-size milc run of `scheme` with `faults` armed, untraced.
    fn run_faulted(scheme: SchemeKind, faults: &FaultParams) -> (RunResult, FaultStats) {
        let spec = RunSpec {
            observe: Observe::Off,
            faults: Some(*faults),
        };
        let cfg = SystemConfig::small();
        let out = run_spec(profile(), scheme, &cfg, &RunParams::smoke(), &spec).unwrap();
        (out.result, out.fault_stats.unwrap())
    }

    /// A smoke-size, fault-free milc run of SILC-FM on the `observe` tier.
    fn run_observed(observe: Observe) -> RunOutput {
        let spec = RunSpec {
            observe,
            faults: None,
        };
        let cfg = SystemConfig::small();
        run_spec(
            profile(),
            SchemeKind::silcfm(),
            &cfg,
            &RunParams::smoke(),
            &spec,
        )
        .unwrap()
    }

    #[test]
    fn space_sizing_is_aligned_and_sufficient() {
        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        let scaled = profiles::scaled(profile(), params.footprint_scale);
        let space = space_for(&scaled, &cfg, &params);
        // FM alone holds the whole footprint.
        assert!(space.fm_bytes() >= scaled.footprint_pages * 2048 * 4);
        // Integral ratio for congruence groups.
        assert_eq!(space.fm_bytes() % space.nm_bytes(), 0);
        // NM block count divisible by 4-way sets.
        assert_eq!((space.nm_bytes() / 2048) % 64, 0);
    }

    #[test]
    fn all_schemes_run_to_completion() {
        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        for kind in SchemeKind::fig7_lineup()
            .into_iter()
            .chain([SchemeKind::NoNm])
        {
            let r = run(profile(), kind, &cfg, &params);
            assert!(r.cycles > 0, "{} produced no cycles", r.scheme);
            assert_eq!(r.workload, "milc");
            assert!(r.instructions > 0);
        }
    }

    #[test]
    fn no_nm_baseline_has_zero_access_rate() {
        let cfg = SystemConfig::small();
        let r = run(profile(), SchemeKind::NoNm, &cfg, &RunParams::smoke());
        assert_eq!(r.access_rate, 0.0);
        assert_eq!(r.traffic.nm_demand, 0);
    }

    #[test]
    fn silcfm_beats_the_no_nm_baseline() {
        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        let base = run(profile(), SchemeKind::NoNm, &cfg, &params);
        let silc = run(profile(), SchemeKind::silcfm(), &cfg, &params);
        assert!(
            silc.speedup_over(&base) > 1.0,
            "SILC-FM must beat no-NM: {:.3}",
            silc.speedup_over(&base)
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SchemeKind::NoNm.label(), "base");
        assert_eq!(SchemeKind::silcfm().label(), "silcfm");
        let labels: Vec<_> = SchemeKind::fig7_lineup()
            .iter()
            .map(|k| k.label())
            .collect();
        assert_eq!(labels, vec!["rand", "hma", "cam", "camp", "pom", "silcfm"]);
    }

    #[test]
    fn faulted_run_with_empty_schedule_matches_the_plain_run() {
        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        let faults = FaultParams {
            fault_seed: 1,
            horizon_cycles: 1_000_000,
            rates: FaultRates::none(),
        };
        let plain = run(profile(), SchemeKind::silcfm(), &cfg, &params);
        let (faulted, stats) = run_faulted(SchemeKind::silcfm(), &faults);
        assert_eq!(stats.injected, 0);
        assert_eq!(plain.cycles, faulted.cycles);
        assert_eq!(plain.traffic, faulted.traffic);
        assert_eq!(plain.scheme_stats, faulted.scheme_stats);
    }

    #[test]
    fn faulted_runs_conserve_and_are_deterministic() {
        let faults = FaultParams {
            fault_seed: 7,
            horizon_cycles: 4_000_000,
            rates: FaultRates::harsh(),
        };
        let (a, sa) = run_faulted(SchemeKind::silcfm(), &faults);
        let (b, sb) = run_faulted(SchemeKind::silcfm(), &faults);
        assert!(sa.injected > 0, "harsh rates must inject something");
        assert!(sa.conserved());
        assert_eq!(sa, sb);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.scheme_stats, b.scheme_stats);
    }

    #[test]
    fn baselines_mask_scheme_faults_but_feel_channel_faults() {
        let faults = FaultParams {
            fault_seed: 3,
            horizon_cycles: 4_000_000,
            rates: FaultRates::harsh(),
        };
        let (r, stats) = run_faulted(SchemeKind::Hma, &faults);
        assert!(r.cycles > 0);
        assert!(stats.conserved());
        // The default `apply_fault` masks every scheme-side fault; nothing
        // may be lost by a scheme that holds no interleaved state.
        assert_eq!(stats.poisoned, 0);
    }

    #[test]
    fn sampled_runs_match_plain_runs_and_count_every_event() {
        use silcfm_obs::Unit;

        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        // Capacity large enough that neither run drops, so the fully-traced
        // stream is the exact reference for the counter totals.
        let plain = run(profile(), SchemeKind::silcfm(), &cfg, &params);
        let full = run_observed(Observe::Ring {
            events_capacity: 1 << 20,
            epoch_cycles: 100_000,
        });
        let full_report = full.report.unwrap();
        let out = run_observed(Observe::Sampled {
            events_capacity: 1 << 20,
            period: 64,
            epoch_cycles: Some(100_000),
        });
        let (sampled, report, counters) = (out.result, out.report.unwrap(), out.counters.unwrap());
        // Observability must never perturb the simulation.
        assert_eq!(plain.cycles, sampled.cycles);
        assert_eq!(plain.traffic, sampled.traffic);
        assert_eq!(plain.scheme_stats, sampled.scheme_stats);
        // The counter tier is exact: per-kind totals sum to the fully-traced
        // run's controller event count even though the ring keeps 1-in-64.
        assert_eq!(full_report.dropped, 0);
        let full_controller = full_report.events_from(Unit::Controller) as u64;
        assert!(full_controller > 0);
        assert_eq!(counters.iter().sum::<u64>(), full_controller);
        // The sampled stream really is ~64x sparser.
        let sampled_controller = report.events_from(Unit::Controller) as u64;
        assert_eq!(sampled_controller, full_controller.div_ceil(64));
    }

    #[test]
    fn metrics_only_tier_matches_plain_and_traced_runs() {
        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        let plain = run(profile(), SchemeKind::silcfm(), &cfg, &params);
        let traced = run_observed(Observe::Ring {
            events_capacity: 1 << 14,
            epoch_cycles: 100_000,
        });
        let (traced, traced_report) = (traced.result, traced.report.unwrap());
        let metrics = run_observed(Observe::Metrics {
            epoch_cycles: 100_000,
        });
        let (metrics, metrics_report) = (metrics.result, metrics.report.unwrap());
        // The tier is behavior-neutral against both neighbors.
        assert_eq!(plain.cycles, metrics.cycles);
        assert_eq!(plain.traffic, metrics.traffic);
        assert_eq!(plain.scheme_stats, metrics.scheme_stats);
        assert_eq!(traced.cycles, metrics.cycles);
        // The latency-percentile plane is byte-identical to the ring
        // tier's: retention policy never changes what the sketches fold.
        let mut traced_bytes = String::new();
        traced_report.latency.encode(&mut traced_bytes);
        let mut metrics_bytes = String::new();
        metrics_report.latency.encode(&mut metrics_bytes);
        assert_eq!(traced_bytes, metrics_bytes);
        assert!(metrics_report.latency.count() > 0);
        // But no events were buffered anywhere.
        assert_eq!(metrics_report.event_count(), 0);
        assert_eq!(metrics_report.dropped, 0);
    }

    #[test]
    fn runs_are_reproducible() {
        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        let a = run(profile(), SchemeKind::silcfm(), &cfg, &params);
        let b = run(profile(), SchemeKind::silcfm(), &cfg, &params);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.traffic, b.traffic);
    }
}
