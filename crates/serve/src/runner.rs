//! One serving trial end-to-end: plan admissions, run the engine with the
//! request tracker riding the service tap, resolve the ledger.
//!
//! A trial is a pure function of `(workload, scheme, config, run params,
//! serve params, arrival profile, rate, fault params)` — the admitted
//! record stream is planned before the engine starts, the tracker is a
//! pure observer, and retries resolve against the schedule-derived failure
//! timeline. Consequently the whole [`ServeReport`] (ledger, sketch, epoch
//! series) is reproducible byte for byte, which the golden digest pins.

use silcfm_fault::{FaultDriver, FaultSchedule, FaultStats};
use silcfm_sim::{FaultParams, RunParams, SchemeKind, StreamFeed, System};
use silcfm_trace::arrivals::ArrivalProfile;
use silcfm_trace::{profiles, WorkloadProfile};
use silcfm_types::{SchemeStats, SilcFmError, SystemConfig};

use crate::plan::{plan_lane, LanePlan, ServeParams, ServeSource};
use crate::tracker::{FailureTimeline, RequestTracker, ServeRunStats};

/// Everything one serving trial measured.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Scheme label (`silcfm`, `hma`, ...).
    pub scheme: String,
    /// Workload profile name.
    pub workload: String,
    /// Arrival profile name.
    pub arrival: String,
    /// Offered rate, requests per million cycles per lane.
    pub rate_per_m: u64,
    /// Engine cycles the trial ran.
    pub cycles: u64,
    /// The serving-plane statistics (ledger, latency sketch, epoch series,
    /// NACK audit, recovery samples).
    pub stats: ServeRunStats,
    /// The engine's fault ledger (zeroed when no faults were armed).
    pub fault_stats: FaultStats,
    /// Faults actually delivered to the engine before it finished.
    pub faults_delivered: usize,
    /// End-of-run scheme statistics.
    pub scheme_stats: SchemeStats,
}

impl ServeReport {
    /// Whether this trial met the SLO: whole-run completed-latency p99
    /// within the target AND goodput (completed/offered) at or above
    /// `min_goodput`.
    pub fn slo_met(&self, serve: &ServeParams, min_goodput: f64) -> bool {
        self.stats.p99() <= serve.slo_p99_cycles && self.stats.ledger.goodput() >= min_goodput
    }

    /// Deterministic rendering of the trial's serving-plane state; the
    /// golden test pins its hash.
    pub fn digest(&self) -> String {
        format!("cycles {}\n{}", self.cycles, self.stats.digest())
    }
}

/// Plans every lane's admissions for one trial.
pub fn plan_trial(
    arrival: &ArrivalProfile,
    rate_per_m: u64,
    lanes: u16,
    seed: u64,
    records_per_lane: u64,
    serve: &ServeParams,
) -> Vec<LanePlan> {
    (0..lanes)
        .map(|lane| plan_lane(arrival, rate_per_m, lane, seed, records_per_lane, serve))
        .collect()
}

/// Runs one serving trial: `rate_per_m` requests per million cycles per
/// lane, shaped by `arrival`, against `scheme`. `faults: Some(..)` arms the
/// engine's fault driver *and* the retry ladder's failure timeline from the
/// same schedule.
///
/// # Errors
///
/// Returns [`SilcFmError::FaultConfig`] when the fault configuration is
/// invalid.
#[allow(clippy::too_many_arguments)]
pub fn run_serve(
    profile: &WorkloadProfile,
    scheme: SchemeKind,
    cfg: &SystemConfig,
    params: &RunParams,
    serve: &ServeParams,
    arrival: &ArrivalProfile,
    rate_per_m: u64,
    faults: Option<&FaultParams>,
) -> Result<ServeReport, SilcFmError> {
    let scaled = profiles::scaled(profile, params.footprint_scale);
    let space = silcfm_sim::experiment::space_for(&scaled, cfg, params);
    let total_accesses = params.accesses_per_core * u64::from(cfg.core.cores);

    let plans = plan_trial(
        arrival,
        rate_per_m,
        cfg.core.cores,
        params.seed,
        params.accesses_per_core,
        serve,
    );

    let mut system = System::new(
        *cfg,
        space,
        scheme.placement(params.seed),
        scheme.build(space, total_accesses),
    );

    let (timeline, scheduled) = match faults {
        Some(f) => {
            let topo = FaultParams::topology_for(&scheme, space);
            let schedule =
                FaultSchedule::generate(f.fault_seed, f.horizon_cycles, &f.rates, &topo)?;
            let timeline = FailureTimeline::from_faults(schedule.faults());
            let scheduled = schedule.faults().len();
            system.set_fault_driver(FaultDriver::new(schedule));
            (timeline, scheduled)
        }
        None => (FailureTimeline::default(), 0),
    };

    let mut tracker = RequestTracker::new(&plans, serve, timeline);
    let source = ServeSource::new(&scaled, &plans, serve, params.seed);
    let mut feed = StreamFeed::new(&source, usize::from(cfg.core.cores));
    let outcome = system.run_with_feed_tapped(&mut feed, params.accesses_per_core, &mut tracker);

    let faults_delivered = scheduled - system.faults_remaining();
    Ok(ServeReport {
        scheme: scheme.label().to_string(),
        workload: profile.name.to_string(),
        arrival: arrival.name.to_string(),
        rate_per_m,
        cycles: outcome.cycles,
        stats: tracker.finish(outcome.cycles),
        fault_stats: *system.fault_stats(),
        faults_delivered,
        scheme_stats: system.scheme().stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use silcfm_fault::FaultRates;
    use silcfm_trace::arrivals;

    fn base() -> (
        &'static WorkloadProfile,
        SystemConfig,
        RunParams,
        ServeParams,
    ) {
        let profile = profiles::by_name("milc").unwrap();
        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        let serve = ServeParams {
            epoch_cycles: 200_000,
            ..ServeParams::default_plane()
        };
        (profile, cfg, params, serve)
    }

    #[test]
    fn serial_trial_conserves_and_completes() {
        let (profile, cfg, params, serve) = base();
        let arrival = arrivals::by_name("poisson").unwrap();
        let r = run_serve(
            profile,
            SchemeKind::silcfm(),
            &cfg,
            &params,
            &serve,
            arrival,
            10,
            None,
        )
        .unwrap();
        assert!(r.stats.ledger.conserved(), "{:?}", r.stats.ledger);
        assert!(r.stats.ledger.offered > 0);
        assert!(r.stats.ledger.completed > 0);
        assert!(r.cycles > 0);
        assert_eq!(r.fault_stats.injected, 0);
    }

    #[test]
    fn faulted_trial_resolves_every_request() {
        let (profile, cfg, params, serve) = base();
        let arrival = arrivals::by_name("poisson").unwrap();
        let faults = FaultParams {
            fault_seed: 11,
            horizon_cycles: 3_000_000,
            rates: FaultRates::harsh(),
        };
        let r = run_serve(
            profile,
            SchemeKind::silcfm(),
            &cfg,
            &params,
            &serve,
            arrival,
            10,
            Some(&faults),
        )
        .unwrap();
        assert!(r.stats.ledger.conserved(), "{:?}", r.stats.ledger);
        assert!(r.fault_stats.conserved());
        assert!(r.faults_delivered > 0, "harsh rates must deliver faults");
        // Every NACK-audited request names at least one affected device.
        for n in &r.stats.nacked {
            assert!(n.nm || n.fm);
        }
    }
}
