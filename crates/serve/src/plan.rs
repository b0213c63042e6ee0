//! Admission planning: turning an arrival schedule into an engine-ready
//! record stream.
//!
//! The central determinism problem of an open-loop plane is that admission
//! decisions must not depend on engine state — if shedding consulted the
//! live simulation, the admitted stream would depend on how far ahead of
//! the run loop each lane's records were generated (the feed pulls them in
//! chunks), and a trial would no longer be a pure function of its inputs.
//! The resolution: the
//! admission controller runs entirely in the *arrival domain*, against a
//! predicted backlog. Each lane's plan — which requests are admitted, which
//! are shed — is a pure function of `(workload profile, arrival profile,
//! rate, ServeParams, lane, seed, records-per-lane)`. The engine then
//! executes the admitted stream through the unmodified run loop; actual
//! queueing (and deadline misses the predictor under-estimated) is measured
//! by the [`crate::tracker::RequestTracker`], never fed back.

use silcfm_trace::arrivals::{ArrivalGen, ArrivalProfile};
use silcfm_trace::{WorkloadGen, WorkloadProfile};
use silcfm_types::{CoreId, TraceRecord};

use silcfm_sim::{LaneSource, RecordStream};

/// Shape of the serving plane: how requests map onto records and what the
/// deadline / retry / SLO contract is. All times are CPU cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeParams {
    /// Memory accesses one request performs (its record footprint).
    pub records_per_request: u64,
    /// Deadline measured from arrival; a request completing later is
    /// `timed_out`, and admission sheds requests *predicted* to exceed it.
    pub deadline_cycles: u64,
    /// Predicted cycles one record costs end-to-end, used by the admission
    /// backlog model and by the retry ladder's re-service estimate.
    pub est_service_cycles: u64,
    /// Retry attempts a channel-NACKed request may issue before it is
    /// abandoned as `failed`.
    pub retry_budget: u32,
    /// Base backoff: attempt `i` waits `base * (2^i - 1)` cycles after the
    /// NACKed completion (cycle-domain exponential backoff).
    pub retry_backoff_cycles: u64,
    /// The SLO: epoch and whole-run p99 request latency must not exceed
    /// this.
    pub slo_p99_cycles: u64,
    /// Epoch length of the `obs.slo.*` time series and of the compliance /
    /// recovery measurement.
    pub epoch_cycles: u64,
}

impl ServeParams {
    /// The default serving contract used by the `slo` bench: 8-access
    /// requests, a deadline of 40 k cycles (~10 µs at 4 GHz), a p99 SLO at
    /// half the deadline, and a 3-attempt retry ladder starting at 2 k
    /// cycles of backoff.
    pub const fn default_plane() -> Self {
        Self {
            records_per_request: 8,
            deadline_cycles: 40_000,
            est_service_cycles: 220,
            retry_budget: 3,
            retry_backoff_cycles: 2_000,
            slo_p99_cycles: 20_000,
            epoch_cycles: 100_000,
        }
    }
}

impl Default for ServeParams {
    fn default() -> Self {
        Self::default_plane()
    }
}

/// One lane's admission decision, fixed before the engine runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LanePlan {
    /// Arrival cycles of admitted requests, in arrival order. Request `r`
    /// occupies records `r*k .. (r+1)*k` of the lane's stream, and its
    /// first record carries `not_before = admitted[r]`.
    pub admitted: Vec<u64>,
    /// Arrival cycles of shed requests (kept for epoch attribution).
    pub shed_arrivals: Vec<u64>,
    /// Requests the generator offered within the horizon.
    pub offered: u64,
}

impl LanePlan {
    /// Requests shed at admission.
    pub fn shed(&self) -> u64 {
        self.shed_arrivals.len() as u64
    }
}

/// Plans one lane's admissions: draws arrivals until the planning horizon,
/// sheds what the backlog model predicts cannot meet its deadline (or what
/// no longer fits the trial's record capacity), and admits the rest.
///
/// The horizon is `records_per_lane * est_service_cycles` — the predicted
/// busy length of the trial — so the loop terminates at any rate: every
/// iteration either consumes capacity or moves the (strictly increasing)
/// arrival clock toward the horizon.
pub fn plan_lane(
    arrival: &ArrivalProfile,
    rate_per_m: u64,
    lane: u16,
    seed: u64,
    records_per_lane: u64,
    params: &ServeParams,
) -> LanePlan {
    let k = params.records_per_request.max(1);
    let capacity = records_per_lane / k;
    let horizon = records_per_lane.saturating_mul(params.est_service_cycles);
    let service = k.saturating_mul(params.est_service_cycles);

    let mut gen = ArrivalGen::new(arrival, rate_per_m, lane, seed);
    let mut plan = LanePlan::default();
    // Cycle at which the predicted backlog drains (the lane is free).
    let mut predicted_free = 0u64;
    loop {
        let at = gen.next_arrival();
        if at > horizon {
            break;
        }
        plan.offered += 1;
        let start = at.max(predicted_free);
        let predicted_latency = (start - at).saturating_add(service);
        if plan.admitted.len() as u64 >= capacity || predicted_latency > params.deadline_cycles {
            plan.shed_arrivals.push(at);
        } else {
            plan.admitted.push(at);
            predicted_free = start + service;
        }
    }
    plan
}

/// The per-lane record stream executing a [`LanePlan`]: the lane's normal
/// workload records, with the first record of each admitted request stamped
/// with its arrival cycle. After the last admitted request the stream keeps
/// yielding unstamped records — the engine contract is a fixed record count
/// per lane, so the tail is *filler*: issued back-to-back like batch work,
/// excluded from the request ledger (the tracker only accounts records
/// belonging to an admitted request).
#[derive(Debug)]
pub struct ServeLaneGen {
    gen: WorkloadGen,
    admitted: Vec<u64>,
    records_per_request: u64,
    issued: u64,
}

impl RecordStream for ServeLaneGen {
    fn next_record(&mut self) -> TraceRecord {
        let rec = WorkloadGen::next_record(&mut self.gen);
        let idx = self.issued;
        self.issued += 1;
        if idx.is_multiple_of(self.records_per_request) {
            let request = (idx / self.records_per_request) as usize;
            if let Some(&at) = self.admitted.get(request) {
                return rec.at(at);
            }
        }
        rec
    }
}

/// A [`LaneSource`] over a set of per-lane plans: `stream(lane)` is a pure
/// function of the construction inputs, which is what makes a serving
/// trial reproducible byte for byte.
#[derive(Debug, Clone, Copy)]
pub struct ServeSource<'a> {
    profile: &'a WorkloadProfile,
    plans: &'a [LanePlan],
    records_per_request: u64,
    seed: u64,
}

impl<'a> ServeSource<'a> {
    /// A source executing `plans` (one per lane, indexed by lane id) over
    /// `profile`'s access stream.
    pub fn new(
        profile: &'a WorkloadProfile,
        plans: &'a [LanePlan],
        params: &ServeParams,
        seed: u64,
    ) -> Self {
        Self {
            profile,
            plans,
            records_per_request: params.records_per_request.max(1),
            seed,
        }
    }
}

impl LaneSource for ServeSource<'_> {
    type Stream = ServeLaneGen;

    fn stream(&self, lane: usize) -> ServeLaneGen {
        let admitted = self
            .plans
            .get(lane)
            .map(|p| p.admitted.clone())
            .unwrap_or_default();
        ServeLaneGen {
            gen: WorkloadGen::new(self.profile, CoreId::new(lane as u16), self.seed),
            admitted,
            records_per_request: self.records_per_request,
            issued: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silcfm_trace::{arrivals, profiles};

    fn params() -> ServeParams {
        ServeParams::default_plane()
    }

    #[test]
    fn plans_are_deterministic_and_conserve_offers() {
        let arrival = arrivals::by_name("poisson").unwrap();
        let a = plan_lane(arrival, 40, 3, 99, 30_000, &params());
        let b = plan_lane(arrival, 40, 3, 99, 30_000, &params());
        assert_eq!(a, b);
        assert_eq!(a.offered, a.admitted.len() as u64 + a.shed());
        assert!(a.offered > 0);
    }

    #[test]
    fn low_rate_admits_everything() {
        let arrival = arrivals::by_name("poisson").unwrap();
        // 1 request per Mcycle over a ~6.6 Mcycle horizon: a handful of
        // arrivals, each meeting an idle predicted backlog.
        let plan = plan_lane(arrival, 1, 0, 7, 30_000, &params());
        assert!(plan.offered > 0);
        assert_eq!(plan.shed(), 0);
        assert_eq!(plan.admitted.len() as u64, plan.offered);
    }

    #[test]
    fn saturating_rate_sheds_and_terminates() {
        let arrival = arrivals::by_name("poisson").unwrap();
        // Far beyond per-lane service capacity: the plan must terminate
        // (horizon break) and shed most offers.
        let p = params();
        let plan = plan_lane(arrival, 100_000, 0, 7, 8_000, &p);
        assert!(plan.shed() > 0, "saturation must shed");
        let capacity = 8_000 / p.records_per_request;
        assert!(plan.admitted.len() as u64 <= capacity);
        // Admitted backlog never predicts past the deadline.
        let service = p.records_per_request * p.est_service_cycles;
        let mut free = 0u64;
        for &at in &plan.admitted {
            let start = at.max(free);
            assert!(start - at + service <= p.deadline_cycles);
            free = start + service;
        }
    }

    #[test]
    fn admitted_arrivals_are_increasing() {
        let arrival = arrivals::by_name("bursty").unwrap();
        let plan = plan_lane(arrival, 60, 1, 11, 30_000, &params());
        assert!(plan.admitted.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn stream_stamps_first_record_of_each_admitted_request() {
        let profile = profiles::by_name("mcf").unwrap();
        let arrival = arrivals::by_name("poisson").unwrap();
        let p = params();
        let plan = plan_lane(arrival, 30, 0, 42, 4_000, &p);
        assert!(!plan.admitted.is_empty());
        let plans = vec![plan.clone()];
        let source = ServeSource::new(profile, &plans, &p, 42);
        let mut stream = source.stream(0);
        let k = p.records_per_request;
        for idx in 0..4_000u64 {
            let rec = stream.next_record();
            let req = (idx / k) as usize;
            if idx % k == 0 && req < plan.admitted.len() {
                assert_eq!(rec.not_before, plan.admitted[req]);
            } else {
                assert_eq!(rec.not_before, 0, "record {idx} must be unstamped");
            }
        }
    }

    #[test]
    fn stream_matches_plain_workload_apart_from_stamps() {
        // The serving stream must be the *same* access stream the batch
        // engine sees — arrival stamping changes timing, never addresses.
        let profile = profiles::by_name("milc").unwrap();
        let arrival = arrivals::by_name("poisson").unwrap();
        let p = params();
        let plans = vec![plan_lane(arrival, 30, 0, 42, 1_000, &p)];
        let source = ServeSource::new(profile, &plans, &p, 42);
        let mut stream = source.stream(0);
        let mut plain = WorkloadGen::new(profile, CoreId::new(0), 42);
        for _ in 0..1_000 {
            let s = stream.next_record();
            let w = plain.next_record();
            assert_eq!(s.at(0), w);
        }
    }
}
