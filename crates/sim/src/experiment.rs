//! Experiment plumbing: scheme factory, run parameters, and the single-run
//! entry point used by every figure harness.

use silcfm_baselines::{Cameo, CameoParams, Hma, HmaParams, Pom, PomParams, RandomStatic};
use silcfm_core::{SilcFm, SilcFmParams};
use silcfm_dram::DramConfig;
use silcfm_fault::{FaultDriver, FaultRates, FaultSchedule, FaultStats, FaultTopology};
use silcfm_obs::{MetricsOnlyTracer, ObsReport, RingTracer, SamplingTracer};
use silcfm_trace::{profiles, PlacementPolicy, WorkloadProfile};
use silcfm_types::obs::{Tracer, EVENT_KINDS};
use silcfm_types::{AddressSpace, Geometry, MemoryScheme, SilcFmError, SystemConfig};

use crate::metrics::RunResult;
use crate::observe::RunObs;
use crate::system::{System, SystemOutcome};

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
    /// memory accesses.
    ///
    /// The paper's time constants (HMA's epoch, SILC-FM's 1 M-access aging
    /// period, PoM's counter decay) are proportions of a 16-billion-
    /// instruction run; here they are scaled to the same *proportion* of the
    /// simulated run so reduced runs exercise the same number of epochs and
    /// agings as the full-length ones.
    pub fn build(&self, space: AddressSpace, total_accesses: u64) -> Box<dyn MemoryScheme> {
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
            Self::SilcFm(params) => Box::new(SilcFm::new(
                space,
                Geometry::paper(),
                Self::scale_silcfm(params, total_accesses),
            )),
        }
    }

    /// Like [`SchemeKind::build`], but a SILC-FM controller records its
    /// observability events into a ring buffer of `events_capacity`.
    /// Baseline schemes have no controller-side emit points and build
    /// unchanged (their trace hooks are the [`MemoryScheme`] defaults).
    pub fn build_traced(
        &self,
        space: AddressSpace,
        total_accesses: u64,
        events_capacity: usize,
    ) -> Box<dyn MemoryScheme> {
        match self {
            Self::SilcFm(params) => Box::new(SilcFm::with_tracer(
                space,
                Geometry::paper(),
                Self::scale_silcfm(params, total_accesses),
                RingTracer::with_capacity(events_capacity),
            )),
            _ => self.build(space, total_accesses),
        }
    }

    /// Like [`SchemeKind::build_traced`], but with the sampling tracer
    /// tier: every controller event is counted, full events are retained
    /// one-in-`sampling_period` (a power of two). Baseline schemes build
    /// unchanged, as in `build_traced`.
    pub fn build_sampled(
        &self,
        space: AddressSpace,
        total_accesses: u64,
        events_capacity: usize,
        sampling_period: u64,
    ) -> Box<dyn MemoryScheme> {
        match self {
            Self::SilcFm(params) => Box::new(SilcFm::with_tracer(
                space,
                Geometry::paper(),
                Self::scale_silcfm(params, total_accesses),
                SamplingTracer::with_capacity(events_capacity, sampling_period),
            )),
            _ => self.build(space, total_accesses),
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

/// Fault-injection knobs for [`run_faulted`]: an independent seed (so the
/// fault plane never perturbs workload or placement randomness), a schedule
/// horizon in CPU cycles, and the per-class rates.
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
    /// The fault topology `scheme` exposes over `space`: the controller's
    /// way count, NM frame and subblock geometry, and the Table II channel
    /// counts.
    pub fn topology_for(scheme: &SchemeKind, space: AddressSpace) -> FaultTopology {
        let ways = match scheme {
            SchemeKind::SilcFm(p) => p.associativity,
            _ => 1,
        };
        FaultTopology {
            nm_ways: ways.min(u32::from(u8::MAX)) as u8,
            nm_frames: (space.nm_bytes() / 2048).min(u64::from(u32::MAX)) as u32,
            subblocks: 32,
            nm_channels: DramConfig::hbm2().channels.min(u32::from(u8::MAX)) as u8,
            fm_channels: DramConfig::ddr3().channels.min(u32::from(u8::MAX)) as u8,
        }
    }

    /// Generates this configuration's schedule for `scheme` over `space`
    /// and wraps it in a delivery cursor.
    ///
    /// # Errors
    ///
    /// Returns [`SilcFmError::FaultConfig`] when the rates or derived
    /// topology are invalid.
    pub fn driver_for(
        &self,
        scheme: &SchemeKind,
        space: AddressSpace,
    ) -> Result<FaultDriver, SilcFmError> {
        let topo = Self::topology_for(scheme, space);
        let schedule =
            FaultSchedule::generate(self.fault_seed, self.horizon_cycles, &self.rates, &topo)?;
        Ok(FaultDriver::new(schedule))
    }
}

/// Observability knobs for [`run_traced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceParams {
    /// Ring-buffer capacity (events) of each tracer: one for the
    /// controller and one per DRAM device. Oldest events are overwritten
    /// once full; the report counts the drops.
    pub events_capacity: usize,
    /// CPU cycles between time-series samples (and queue-depth events).
    pub epoch_cycles: u64,
}

impl TraceParams {
    /// Defaults sized for a full workload capture: 1 Mi events per tracer,
    /// a sample every 100 k cycles.
    pub const fn default_capture() -> Self {
        Self {
            events_capacity: 1 << 20,
            epoch_cycles: 100_000,
        }
    }
}

impl Default for TraceParams {
    fn default() -> Self {
        Self::default_capture()
    }
}

/// Folds one finished system + outcome into the figure-level metrics.
fn collect<T: Tracer>(
    profile: &WorkloadProfile,
    scheme: SchemeKind,
    system: &System<T>,
    outcome: SystemOutcome,
) -> RunResult {
    let scheme_stats = system.scheme().stats();
    let mpki = if outcome.instructions == 0 {
        0.0
    } else {
        // Per-core MPKI: total misses and total instructions scale together.
        outcome.llc_misses as f64 * 1000.0 / outcome.instructions as f64
    };

    RunResult {
        scheme: scheme.label().to_string(),
        workload: profile.name.to_string(),
        cycles: outcome.cycles,
        instructions: outcome.instructions,
        llc_misses: outcome.llc_misses,
        access_rate: scheme_stats.access_rate(),
        traffic: *system.tally(),
        energy_pj: system.energy_pj(outcome.cycles),
        scheme_stats,
        mpki,
        footprint_bytes: system.footprint_bytes(),
    }
}

/// Simulates `scheme` on `profile` (rate mode: one copy per core) and
/// returns the measured metrics.
pub fn run(
    profile: &WorkloadProfile,
    scheme: SchemeKind,
    cfg: &SystemConfig,
    params: &RunParams,
) -> RunResult {
    let scaled = profiles::scaled(profile, params.footprint_scale);
    let space = space_for(&scaled, cfg, params);
    let total_accesses = params.accesses_per_core * u64::from(cfg.core.cores);
    let mut system = System::new(
        *cfg,
        space,
        scheme.placement(params.seed),
        scheme.build(space, total_accesses),
    );
    let outcome = system.run(&scaled, params.accesses_per_core, params.seed);
    collect(profile, scheme, &system, outcome)
}

/// Like [`run`], but with full observability: ring-buffer tracers on the
/// controller and both DRAM devices, demand-latency histograms and the
/// epoch time series. Returns the (bit-identical to [`run`]) metrics plus
/// the assembled [`ObsReport`].
pub fn run_traced(
    profile: &WorkloadProfile,
    scheme: SchemeKind,
    cfg: &SystemConfig,
    params: &RunParams,
    trace: &TraceParams,
) -> (RunResult, ObsReport) {
    let scaled = profiles::scaled(profile, params.footprint_scale);
    let space = space_for(&scaled, cfg, params);
    let total_accesses = params.accesses_per_core * u64::from(cfg.core.cores);
    // Preallocation hint only; the sampler grows if the run overshoots.
    let expected_cycles = params.accesses_per_core.saturating_mul(64);
    let mut system = System::with_observability(
        *cfg,
        space,
        scheme.placement(params.seed),
        scheme.build_traced(space, total_accesses, trace.events_capacity),
        RingTracer::with_capacity(trace.events_capacity),
        RingTracer::with_capacity(trace.events_capacity),
        Some(RunObs::new(trace.epoch_cycles, expected_cycles)),
    );
    let outcome = system.run(&scaled, params.accesses_per_core, params.seed);
    let result = collect(profile, scheme, &system, outcome);
    let report = system
        .finish_observation(outcome.cycles)
        // silcfm-lint: allow(E1) -- with_observability ten lines up always installs RunObs; the invariant is local
        .expect("the system above is always built with observability");
    (result, report)
}

/// Like [`run_traced`], but on the metrics-only tier: the `T::ENABLED`
/// observability hooks are live — the per-class latency quantile sketches,
/// the demand-latency histograms, and the epoch sampler all populate — yet
/// no event is ever buffered: the DRAM devices carry
/// [`MetricsOnlyTracer`]s whose `record` inlines to nothing, and the
/// controller runs its untraced build. The returned [`ObsReport`] has the
/// full latency-percentile plane and time series but an empty event
/// stream. This is the cheapest "sketches ON" configuration; the
/// `throughput --overhead` bench prices it against the untraced run.
///
/// The latency plane it produces is byte-identical to [`run_traced`]'s:
/// both fold the same demand completions in the same order — the tracer
/// tier only decides whether events are *retained*, never what the
/// simulation does.
pub fn run_metrics_only(
    profile: &WorkloadProfile,
    scheme: SchemeKind,
    cfg: &SystemConfig,
    params: &RunParams,
    trace: &TraceParams,
) -> (RunResult, ObsReport) {
    let scaled = profiles::scaled(profile, params.footprint_scale);
    let space = space_for(&scaled, cfg, params);
    let total_accesses = params.accesses_per_core * u64::from(cfg.core.cores);
    let expected_cycles = params.accesses_per_core.saturating_mul(64);
    let mut system = System::with_observability(
        *cfg,
        space,
        scheme.placement(params.seed),
        scheme.build(space, total_accesses),
        MetricsOnlyTracer,
        MetricsOnlyTracer,
        Some(RunObs::new(trace.epoch_cycles, expected_cycles)),
    );
    let outcome = system.run(&scaled, params.accesses_per_core, params.seed);
    let result = collect(profile, scheme, &system, outcome);
    let report = system
        .finish_observation(outcome.cycles)
        // silcfm-lint: allow(E1) -- with_observability ten lines up always installs RunObs; the invariant is local
        .expect("the system above is always built with observability");
    (result, report)
}

/// Like [`run_traced`], but on the sampling tracer tier: the controller and
/// both DRAM devices count every event and retain full events only
/// one-in-`sampling_period` (a power of two), so the observability cost is
/// a few percent instead of the ring tier's double-digit share. Returns the metrics, the
/// [`ObsReport`] assembled from the sampled stream, and the controller's
/// exact per-kind event totals (indexed by
/// [`Event::kind_index`](silcfm_types::obs::Event::kind_index)).
///
/// # Panics
///
/// Panics if `sampling_period` is not a power of two.
pub fn run_sampled(
    profile: &WorkloadProfile,
    scheme: SchemeKind,
    cfg: &SystemConfig,
    params: &RunParams,
    trace: &TraceParams,
    sampling_period: u64,
) -> (RunResult, ObsReport, [u64; EVENT_KINDS]) {
    let scaled = profiles::scaled(profile, params.footprint_scale);
    let space = space_for(&scaled, cfg, params);
    let total_accesses = params.accesses_per_core * u64::from(cfg.core.cores);
    let expected_cycles = params.accesses_per_core.saturating_mul(64);
    let mut system = System::with_observability(
        *cfg,
        space,
        scheme.placement(params.seed),
        scheme.build_sampled(
            space,
            total_accesses,
            trace.events_capacity,
            sampling_period,
        ),
        SamplingTracer::with_capacity(trace.events_capacity, sampling_period),
        SamplingTracer::with_capacity(trace.events_capacity, sampling_period),
        Some(RunObs::new(trace.epoch_cycles, expected_cycles)),
    );
    let outcome = system.run(&scaled, params.accesses_per_core, params.seed);
    let result = collect(profile, scheme, &system, outcome);
    let counters = system.scheme().trace_counters();
    let report = system
        .finish_observation(outcome.cycles)
        // silcfm-lint: allow(E1) -- with_observability above always installs RunObs; the invariant is local
        .expect("the system above is always built with observability");
    (result, report, counters)
}

/// The always-on configuration of the sampling tier: sampling tracers on
/// the controller and both DRAM devices, but *no* epoch sampler and no
/// demand-latency histograms (those belong to a capture session, not to a
/// tier meant to stay live in production runs). This is the configuration
/// whose overhead the tier's "few percent" budget is measured against —
/// [`run_sampled`] additionally pays the `RunObs` metrics apparatus, which
/// is the larger share of its cost. Returns the (bit-identical) metrics
/// plus the controller's exact per-kind event totals.
///
/// # Panics
///
/// Panics if `sampling_period` is not a power of two.
pub fn run_sampled_lean(
    profile: &WorkloadProfile,
    scheme: SchemeKind,
    cfg: &SystemConfig,
    params: &RunParams,
    trace: &TraceParams,
    sampling_period: u64,
) -> (RunResult, [u64; EVENT_KINDS]) {
    let scaled = profiles::scaled(profile, params.footprint_scale);
    let space = space_for(&scaled, cfg, params);
    let total_accesses = params.accesses_per_core * u64::from(cfg.core.cores);
    let mut system = System::with_observability(
        *cfg,
        space,
        scheme.placement(params.seed),
        scheme.build_sampled(
            space,
            total_accesses,
            trace.events_capacity,
            sampling_period,
        ),
        SamplingTracer::with_capacity(trace.events_capacity, sampling_period),
        SamplingTracer::with_capacity(trace.events_capacity, sampling_period),
        None,
    );
    let outcome = system.run(&scaled, params.accesses_per_core, params.seed);
    let result = collect(profile, scheme, &system, outcome);
    let counters = system.scheme().trace_counters();
    (result, counters)
}

/// Like [`run`], but with a deterministic fault schedule armed: faults are
/// delivered before the demand access that first reaches their cycle, the
/// scheme and DRAM devices absorb or recover from them, and the returned
/// ledger accounts every delivery.
///
/// # Errors
///
/// Returns [`SilcFmError::FaultConfig`] when `faults` is invalid.
pub fn run_faulted(
    profile: &WorkloadProfile,
    scheme: SchemeKind,
    cfg: &SystemConfig,
    params: &RunParams,
    faults: &FaultParams,
) -> Result<(RunResult, FaultStats), SilcFmError> {
    let scaled = profiles::scaled(profile, params.footprint_scale);
    let space = space_for(&scaled, cfg, params);
    let total_accesses = params.accesses_per_core * u64::from(cfg.core.cores);
    let mut system = System::new(
        *cfg,
        space,
        scheme.placement(params.seed),
        scheme.build(space, total_accesses),
    );
    system.set_fault_driver(faults.driver_for(&scheme, space)?);
    let outcome = system.run(&scaled, params.accesses_per_core, params.seed);
    let result = collect(profile, scheme, &system, outcome);
    Ok((result, *system.fault_stats()))
}

/// [`run_faulted`] with full observability, for harnesses that audit the
/// fault plane's trace events (`fault_injected`, `recovered`, `poisoned`,
/// `failover`) against the stats ledger.
///
/// # Errors
///
/// Returns [`SilcFmError::FaultConfig`] when `faults` is invalid.
pub fn run_faulted_traced(
    profile: &WorkloadProfile,
    scheme: SchemeKind,
    cfg: &SystemConfig,
    params: &RunParams,
    faults: &FaultParams,
    trace: &TraceParams,
) -> Result<(RunResult, FaultStats, ObsReport), SilcFmError> {
    let scaled = profiles::scaled(profile, params.footprint_scale);
    let space = space_for(&scaled, cfg, params);
    let total_accesses = params.accesses_per_core * u64::from(cfg.core.cores);
    let expected_cycles = params.accesses_per_core.saturating_mul(64);
    let mut system = System::with_observability(
        *cfg,
        space,
        scheme.placement(params.seed),
        scheme.build_traced(space, total_accesses, trace.events_capacity),
        RingTracer::with_capacity(trace.events_capacity),
        RingTracer::with_capacity(trace.events_capacity),
        Some(RunObs::new(trace.epoch_cycles, expected_cycles)),
    );
    system.set_fault_driver(faults.driver_for(&scheme, space)?);
    let outcome = system.run(&scaled, params.accesses_per_core, params.seed);
    let result = collect(profile, scheme, &system, outcome);
    let fault_stats = *system.fault_stats();
    let report = system
        .finish_observation(outcome.cycles)
        .ok_or_else(|| SilcFmError::experiment("traced run lost its observability state"))?;
    Ok((result, fault_stats, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> &'static WorkloadProfile {
        profiles::by_name("milc").unwrap()
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
        let (faulted, stats) =
            run_faulted(profile(), SchemeKind::silcfm(), &cfg, &params, &faults).unwrap();
        assert_eq!(stats.injected, 0);
        assert_eq!(plain.cycles, faulted.cycles);
        assert_eq!(plain.traffic, faulted.traffic);
        assert_eq!(plain.scheme_stats, faulted.scheme_stats);
    }

    #[test]
    fn faulted_runs_conserve_and_are_deterministic() {
        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        let faults = FaultParams {
            fault_seed: 7,
            horizon_cycles: 4_000_000,
            rates: FaultRates::harsh(),
        };
        let (a, sa) = run_faulted(profile(), SchemeKind::silcfm(), &cfg, &params, &faults).unwrap();
        let (b, sb) = run_faulted(profile(), SchemeKind::silcfm(), &cfg, &params, &faults).unwrap();
        assert!(sa.injected > 0, "harsh rates must inject something");
        assert!(sa.conserved());
        assert_eq!(sa, sb);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.scheme_stats, b.scheme_stats);
    }

    #[test]
    fn baselines_mask_scheme_faults_but_feel_channel_faults() {
        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        let faults = FaultParams {
            fault_seed: 3,
            horizon_cycles: 4_000_000,
            rates: FaultRates::harsh(),
        };
        let (r, stats) = run_faulted(profile(), SchemeKind::Hma, &cfg, &params, &faults).unwrap();
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
        let trace = TraceParams {
            events_capacity: 1 << 20,
            epoch_cycles: 100_000,
        };
        let plain = run(profile(), SchemeKind::silcfm(), &cfg, &params);
        let (_, full_report) = run_traced(profile(), SchemeKind::silcfm(), &cfg, &params, &trace);
        let (sampled, report, counters) =
            run_sampled(profile(), SchemeKind::silcfm(), &cfg, &params, &trace, 64);
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
        let trace = TraceParams {
            events_capacity: 1 << 14,
            epoch_cycles: 100_000,
        };
        let plain = run(profile(), SchemeKind::silcfm(), &cfg, &params);
        let (traced, traced_report) =
            run_traced(profile(), SchemeKind::silcfm(), &cfg, &params, &trace);
        let (metrics, metrics_report) =
            run_metrics_only(profile(), SchemeKind::silcfm(), &cfg, &params, &trace);
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
