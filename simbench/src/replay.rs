//! The traced run: record the engine's service order, then replay every
//! layer on the recorded output of the layer before it and time it.
//!
//! The real run goes through `run_with_feed_tapped` (serve rungs through
//! the inline shard engine) with a [`Recorder`] on the service tap, which
//! keeps each serviced record's lane and issue cycle. Because every lane's
//! record stream is a pure function of (profile, lane, seed), the lane
//! sequence is enough to rebuild the exact stream the machine consumed.
//! The replay then calls each layer's public functions in that order:
//!
//! `WorkloadGen::next_record` -> `PageMapper::translate` ->
//! `CacheHierarchy::access_data` -> `MemoryScheme::access` (demand reads,
//! then the access's dirty LLC victims) -> `DramModel::{read,write,stream}`
//! at the tapped issue cycles.
//!
//! What the replay cannot reproduce is the core model, the lane scheduler
//! and the charge glue between the layers: that is the residual. Every
//! replayed count must equal the real run's, or the replay is not
//! measuring what the run did; [`ReplayCounts::check`] asserts that.

use std::time::Instant;

use silcfm_cache::{CacheHierarchy, HierarchyStats};
use silcfm_dram::{DramConfig, DramModel, DramStats};
use silcfm_serve::ServeSource;
use silcfm_sim::experiment::space_for;
use silcfm_sim::system::SystemOutcome;
use silcfm_sim::{LaneSource, RecordStream, ServiceTap, System, TrafficTally};
use silcfm_trace::{PageMapper, WorkloadGen};
use silcfm_types::{
    Access, AddressSpace, CoreId, MemKind, MemOp, PhysAddr, SchemeOutcome, SchemeStats,
    TrafficClass,
};

use crate::workload::{
    ledger_failures, result_of, run_digest, serve_digest, BenchJob, ServeMachine,
};

/// CPU cycles by which background operations trail their demand access:
/// the engine's `BACKGROUND_LAG` (`crates/sim/src/system.rs`). The DRAM
/// replay charges background and writeback traffic at `issue + LAG`.
const BACKGROUND_LAG: u64 = 120;

/// CPU cycles a metadata read adds to the critical path: the engine's
/// `METADATA_LATENCY`. Metadata is latency-only and reaches no device.
const METADATA_LATENCY: u64 = 44;

/// A service tap that records every serviced record's lane and issue
/// cycle, then forwards to `inner` (the request tracker of a serve rung).
pub struct Recorder<S> {
    inner: S,
    lanes: Vec<u16>,
    issues: Vec<u64>,
}

impl<S> Recorder<S> {
    fn new(inner: S, capacity: usize) -> Self {
        Self {
            inner,
            lanes: Vec::with_capacity(capacity),
            issues: Vec::with_capacity(capacity),
        }
    }
}

impl<S: ServiceTap> ServiceTap for Recorder<S> {
    fn on_serviced(&mut self, lane: usize, issue: u64, completion: u64, nm: u64, fm: u64) {
        self.lanes.push(lane as u16);
        self.issues.push(issue);
        if S::ENABLED {
            self.inner.on_serviced(lane, issue, completion, nm, fm);
        }
    }
}

/// Host nanoseconds one layer took over a job's whole stream, with the
/// span boundaries relative to the benchmark's start.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Span start, ns since the benchmark started.
    pub start_ns: u64,
    /// Span end, ns since the benchmark started.
    pub end_ns: u64,
}

impl LayerTime {
    /// The span's duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The job's traced pass and its timed layers, in pipeline order.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// The whole traced pass: set-up, the tapped run and the replay.
    pub job: LayerTime,
    /// The tapped real run (set-up excluded).
    pub run: LayerTime,
    /// Record generation for every lane.
    pub gen: LayerTime,
    /// Translation of the service-ordered stream.
    pub translate: LayerTime,
    /// The cache hierarchy over the translated stream.
    pub cache: LayerTime,
    /// The scheme over LLC misses and writebacks.
    pub scheme: LayerTime,
    /// The DRAM devices over the scheme's operations.
    pub dram: LayerTime,
    /// Admission planning of a serve rung (zero-length otherwise).
    pub plan: LayerTime,
}

impl LayerTimes {
    /// The spans below the job span, named.
    pub fn spans(&self) -> [(&'static str, LayerTime); 7] {
        [
            ("sim.run", self.run),
            ("trace.gen", self.gen),
            ("trace.translate", self.translate),
            ("cache", self.cache),
            ("scheme", self.scheme),
            ("dram", self.dram),
            ("serve.plan", self.plan),
        ]
    }
}

/// What the real (tapped) run reported through its accessors.
#[derive(Debug, Clone)]
pub struct RealCounts {
    /// The engine outcome.
    pub outcome: SystemOutcome,
    /// `hierarchy_stats()`.
    pub hierarchy: HierarchyStats,
    /// `scheme().stats()`.
    pub scheme: SchemeStats,
    /// `nm_stats()`.
    pub nm: DramStats,
    /// `fm_stats()`.
    pub fm: DramStats,
    /// `tally()`.
    pub tally: TrafficTally,
    /// Pages the real run allocated (`footprint_bytes() / 2048`).
    pub pages: u64,
    /// Serviced records the tap saw.
    pub serviced: u64,
    /// Records the job was asked to service.
    pub expected: u64,
}

/// What the replay counted at each layer boundary.
#[derive(Debug, Clone)]
pub struct ReplayCounts {
    /// Records replayed.
    pub records: u64,
    /// Pages the replayed mapper allocated.
    pub pages: u64,
    /// The replayed hierarchy's statistics.
    pub hierarchy: HierarchyStats,
    /// Demand fetches (LLC misses) the replayed hierarchy produced.
    pub llc_misses: u64,
    /// Dirty LLC victims the replayed hierarchy produced.
    pub writebacks: u64,
    /// Scheme calls made.
    pub scheme_calls: u64,
    /// Memory operations the scheme returned.
    pub scheme_ops: u64,
    /// The replayed scheme's statistics.
    pub scheme: SchemeStats,
    /// Operations charged to a DRAM device (metadata excluded).
    pub dram_ops: u64,
    /// Metadata bytes: tallied, but charged to no device.
    pub metadata_bytes: u64,
    /// The replayed near-memory device's statistics.
    pub nm: DramStats,
    /// The replayed far-memory device's statistics.
    pub fm: DramStats,
    /// The replayed traffic tally.
    pub tally: TrafficTally,
}

impl ReplayCounts {
    /// Every correctness check that compares the replay with the real run
    /// and the real run with itself. Returns the failed checks.
    pub fn check(&self, real: &RealCounts) -> Vec<String> {
        let mut failed = Vec::new();
        let mut expect = |ok: bool, what: String| {
            if !ok {
                failed.push(what);
            }
        };
        expect(
            real.serviced == real.expected && self.records == real.expected,
            format!(
                "serviced {} / replayed {} records, expected {}",
                real.serviced, self.records, real.expected
            ),
        );
        expect(
            real.scheme.accesses == real.outcome.llc_misses + self.writebacks,
            format!(
                "scheme accesses {} != LLC misses {} + writebacks {}",
                real.scheme.accesses, real.outcome.llc_misses, self.writebacks
            ),
        );
        let device_bytes = real.nm.total_bytes() + real.fm.total_bytes();
        expect(
            real.tally.total_bytes() == device_bytes + self.metadata_bytes,
            format!(
                "tally bytes {} != DRAM device bytes {} + metadata bytes {}",
                real.tally.total_bytes(),
                device_bytes,
                self.metadata_bytes
            ),
        );
        expect(
            self.llc_misses == real.outcome.llc_misses,
            format!(
                "replayed LLC misses {} != real {}",
                self.llc_misses, real.outcome.llc_misses
            ),
        );
        expect(
            self.hierarchy == real.hierarchy,
            "replayed hierarchy stats differ from the real run's".to_string(),
        );
        expect(
            self.scheme_calls == real.scheme.accesses && self.scheme == real.scheme,
            format!(
                "replayed scheme calls {} / stats differ from the real run's {}",
                self.scheme_calls, real.scheme.accesses
            ),
        );
        expect(
            self.nm == real.nm && self.fm == real.fm,
            format!(
                "replayed NM/FM bytes {}/{} differ from the real run's {}/{} (or other DRAM stats do)",
                self.nm.total_bytes(),
                self.fm.total_bytes(),
                real.nm.total_bytes(),
                real.fm.total_bytes()
            ),
        );
        expect(
            self.tally == real.tally,
            "replayed traffic tally differs from the real run's".to_string(),
        );
        expect(
            self.pages == real.pages,
            format!("replayed pages {} != real {}", self.pages, real.pages),
        );
        failed
    }
}

/// One job's traced run: timings, counts and the checks that failed.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Layer spans.
    pub times: LayerTimes,
    /// The real run's counts.
    pub real: RealCounts,
    /// The replay's counts.
    pub replay: ReplayCounts,
    /// Digest of the real run's statistics, as the untraced batch
    /// computes it.
    pub digest: u64,
    /// The serve rung's tracker stats, when the job is a rung.
    pub serve: Option<silcfm_serve::ServeRunStats>,
    /// Requests offered by the rung's admission plans.
    pub offered: u64,
    /// Failed checks.
    pub failures: Vec<String>,
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

fn real_counts(
    system: &System,
    outcome: SystemOutcome,
    serviced: usize,
    expected: u64,
) -> RealCounts {
    RealCounts {
        outcome,
        hierarchy: system.hierarchy_stats().clone(),
        scheme: system.scheme().stats(),
        nm: *system.nm_stats(),
        fm: *system.fm_stats(),
        tally: *system.tally(),
        pages: system.footprint_bytes() / 2048,
        serviced: serviced as u64,
        expected,
    }
}

/// Runs `job` with the recorder on the tap, replays every layer, and
/// checks the replay against the run. `origin` anchors the spans.
pub fn trace_job(job: &BenchJob, origin: Instant) -> Traced {
    let expected = job.accesses();
    let mut times = LayerTimes::default();
    times.job.start_ns = ns_since(origin);
    let (real, rec, digest, serve, offered) = match job.rate {
        None => {
            let mut system = job.system();
            let mut feed = crate::workload::LaneFeed::closed(job);
            let mut rec = Recorder::new(silcfm_sim::NullTap, expected as usize);
            times.run.start_ns = ns_since(origin);
            let out =
                system.run_with_feed_tapped(&mut feed, job.job.params.accesses_per_core, &mut rec);
            times.run.end_ns = ns_since(origin);
            let digest = run_digest(&result_of(job, &system, out));
            let real = real_counts(&system, out, rec.lanes.len(), expected);
            (real, (rec.lanes, rec.issues), digest, None, 0)
        }
        Some(rate) => {
            times.plan.start_ns = ns_since(origin);
            let plans = job.plans(rate);
            times.plan.end_ns = ns_since(origin);
            let offered = plans.iter().map(|p| p.offered).sum();
            let machine = ServeMachine::build(job, &plans);
            times.run.start_ns = ns_since(origin);
            let (system, out, rec) = machine.run(job, |t| Recorder::new(t, expected as usize));
            let stats = rec.inner.finish(out.cycles);
            times.run.end_ns = ns_since(origin);
            let digest = serve_digest(out.cycles, &stats.digest(), &system.scheme().stats());
            let real = real_counts(&system, out, rec.lanes.len(), expected);
            (real, (rec.lanes, rec.issues), digest, Some(stats), offered)
        }
    };

    // The replay's inputs: each lane's stream, rebuilt from its seed.
    let lanes = usize::from(job.job.cfg.core.cores);
    let seed = job.job.params.seed;
    let scaled = job.scaled();
    let replay = match job.rate {
        None => {
            let gens = (0..lanes)
                .map(|i| WorkloadGen::new(&scaled, CoreId::new(i as u16), seed))
                .collect();
            replay(job, gens, &rec.0, &rec.1, &mut times, origin)
        }
        Some(rate) => {
            let plans = job.plans(rate);
            let source = ServeSource::new(&scaled, &plans, &BenchJob::serve_params(), seed);
            let gens = (0..lanes).map(|i| source.stream(i)).collect();
            replay(job, gens, &rec.0, &rec.1, &mut times, origin)
        }
    };
    times.job.end_ns = ns_since(origin);
    let mut failures = replay.check(&real);
    if let Some(stats) = &serve {
        failures.extend(ledger_failures(&stats.ledger));
    }
    Traced {
        times,
        real,
        replay,
        digest,
        serve,
        offered,
        failures,
    }
}

/// The layer-by-layer replay of one recorded run.
///
/// `lanes` and `issues` are the tapped service order: the lane and issue
/// cycle of every serviced record.
fn replay<G: RecordStream>(
    job: &BenchJob,
    mut gens: Vec<G>,
    lanes: &[u16],
    issues: &[u64],
    times: &mut LayerTimes,
    origin: Instant,
) -> ReplayCounts {
    let cfg = job.job.cfg;
    let per_lane = job.job.params.accesses_per_core as usize;
    let space: AddressSpace = space_for(&job.scaled(), &cfg, &job.job.params);

    // Layer 1: generate every lane's stream.
    times.gen.start_ns = ns_since(origin);
    let streams: Vec<Vec<_>> = gens
        .iter_mut()
        .map(|g| (0..per_lane).map(|_| g.next_record()).collect())
        .collect();
    times.gen.end_ns = ns_since(origin);

    // Untimed: merge the lanes into service order (the scheduler's work).
    let mut cursor = vec![0usize; streams.len()];
    let records: Vec<(CoreId, silcfm_types::TraceRecord)> = lanes
        .iter()
        .map(|&lane| {
            let l = usize::from(lane);
            let r = streams[l][cursor[l]];
            cursor[l] += 1;
            (CoreId::new(lane), r)
        })
        .collect();
    drop(streams);

    // Layer 2: translate.
    let mut mapper = PageMapper::new(space, job.job.scheme.placement(job.job.params.seed));
    times.translate.start_ns = ns_since(origin);
    let paddrs: Vec<PhysAddr> = records
        .iter()
        .map(|(core, r)| {
            mapper
                .translate(*core, r.vaddr)
                .expect("workload footprint fits physical memory")
        })
        .collect();
    times.translate.end_ns = ns_since(origin);

    // Layer 3: the cache hierarchy. Its output is the scheme's input: one
    // demand read per LLC miss, then the access's dirty victims, tagged
    // with the index of the serviced record.
    let mut hierarchy = CacheHierarchy::new(&cfg);
    let mut calls: Vec<(u32, Access)> = Vec::with_capacity(records.len());
    let mut writebacks = 0u64;
    let mut llc_misses = 0u64;
    times.cache.start_ns = ns_since(origin);
    for (i, ((core, r), paddr)) in records.iter().zip(&paddrs).enumerate() {
        let h = hierarchy.access_data(*core, *paddr, r.kind.is_write());
        if h.traffic.demand_fetch {
            llc_misses += 1;
            calls.push((i as u32, Access::read(*paddr, r.pc, *core)));
        }
        for wb in &h.traffic.writebacks {
            writebacks += 1;
            calls.push((i as u32, Access::write(*wb, 0, *core)));
        }
    }
    times.cache.end_ns = ns_since(origin);
    drop(paddrs);
    drop(records);

    // Layer 4: the scheme. Its output is the DRAM's input: each operation
    // with its record index and whether it is on the demand's critical
    // path (writebacks are entirely off it).
    let mut scheme = job.job.scheme.build(space, job.accesses());
    let mut out = SchemeOutcome::empty();
    let mut ops: Vec<(u32, bool, MemOp)> = Vec::with_capacity(calls.len() * 2);
    times.scheme.start_ns = ns_since(origin);
    for (i, access) in &calls {
        scheme.access(access, &mut out);
        let demand = !access.kind.is_write();
        ops.extend(out.critical.iter().map(|op| (*i, demand, *op)));
        ops.extend(out.background.iter().map(|op| (*i, false, *op)));
    }
    times.scheme.end_ns = ns_since(origin);
    let scheme_calls = calls.len() as u64;
    let scheme_ops = ops.len() as u64;
    drop(calls);

    // Layer 5: the DRAM devices, at the tapped issue cycles.
    let mut dram = Devices::new(space);
    let mut current = u32::MAX;
    let mut cursor_cycle = 0u64;
    times.dram.start_ns = ns_since(origin);
    for (i, critical, op) in &ops {
        let issue = issues[*i as usize];
        if *i != current {
            current = *i;
            cursor_cycle = issue;
        }
        if *critical {
            cursor_cycle = dram.charge(op, cursor_cycle);
        } else {
            dram.charge(op, issue + BACKGROUND_LAG);
        }
    }
    times.dram.end_ns = ns_since(origin);

    ReplayCounts {
        records: lanes.len() as u64,
        pages: mapper.pages_allocated() as u64,
        hierarchy: hierarchy.stats().clone(),
        llc_misses,
        writebacks,
        scheme_calls,
        scheme_ops,
        scheme: scheme.stats(),
        dram_ops: dram.ops,
        metadata_bytes: dram.metadata_bytes,
        nm: *dram.nm.stats(),
        fm: *dram.fm.stats(),
        tally: dram.tally,
    }
}

/// The two DRAM devices plus the engine's charge rules (`System::charge`).
struct Devices {
    space: AddressSpace,
    nm: DramModel,
    fm: DramModel,
    tally: TrafficTally,
    ops: u64,
    metadata_bytes: u64,
}

impl Devices {
    fn new(space: AddressSpace) -> Self {
        Self {
            space,
            nm: DramModel::new(DramConfig::hbm2()),
            fm: DramModel::new(DramConfig::ddr3()),
            tally: TrafficTally::default(),
            ops: 0,
            metadata_bytes: 0,
        }
    }

    /// Charges `op` at CPU cycle `at`; returns its completion cycle.
    fn charge(&mut self, op: &MemOp, at: u64) -> u64 {
        let bytes = u64::from(op.bytes);
        if op.class == TrafficClass::Metadata {
            self.metadata_bytes += bytes;
            match op.mem {
                MemKind::Near => self.tally.nm_other += bytes,
                MemKind::Far => self.tally.fm_other += bytes,
            }
            return if op.kind.is_write() {
                at
            } else {
                at + METADATA_LATENCY
            };
        }
        self.ops += 1;
        let demand = op.class.is_demand();
        let dev = match (op.mem, demand) {
            (MemKind::Near, true) => {
                self.tally.nm_demand += bytes;
                &mut self.nm
            }
            (MemKind::Near, false) => {
                self.tally.nm_other += bytes;
                &mut self.nm
            }
            (MemKind::Far, true) => {
                self.tally.fm_demand += bytes;
                &mut self.fm
            }
            (MemKind::Far, false) => {
                self.tally.fm_other += bytes;
                &mut self.fm
            }
        };
        let addr = self.space.device_addr(op.addr);
        match (demand, op.kind.is_write()) {
            (true, true) => dev.write(at, addr, op.bytes),
            (true, false) => dev.read(at, addr, op.bytes),
            (false, is_write) => dev.stream(at, addr, op.bytes, is_write),
        }
    }
}
