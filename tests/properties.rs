//! Property-based tests of the core invariants.
//!
//! The load-bearing property of a *flat* memory organization is that data is
//! exchanged, never copied or lost: at all times every block of the combined
//! address space is resident at exactly one location. These tests drive the
//! schemes with generated access sequences and check the metadata invariants
//! that encode that property, plus conservation laws on the traffic the
//! schemes emit.
//!
//! The cases come from the in-tree harness ([`silc_fm::types::check`]):
//! 256 fixed-seed cases per property, with the failing case's seed printed
//! on assertion failure so it can be rerun in isolation via
//! `check::forall_seed`.

use silc_fm::baselines::{Cameo, CameoParams, Pom, PomParams};
use silc_fm::core::{LockState, SilcFm, SilcFmParams};
use silc_fm::dram::{DramConfig, DramModel};
use silc_fm::types::check::{forall, forall_cases};
use silc_fm::types::rng::{Rng, Xoshiro256StarStar};
use silc_fm::types::{
    Access, AddressSpace, BlockIndex, CoreId, Geometry, MemKind, MemOp, MemoryScheme, OpKind,
    PhysAddr, TrafficClass,
};

const NM_BLOCKS: u64 = 64;
const FM_BLOCKS: u64 = 256;

fn space() -> AddressSpace {
    AddressSpace::new(NM_BLOCKS * 2048, FM_BLOCKS * 2048)
}

/// An arbitrary access: uniform over blocks, subblock offsets, a small PC
/// pool, and read/write.
fn arb_access(rng: &mut Xoshiro256StarStar) -> Access {
    let block = rng.gen_range(0..NM_BLOCKS + FM_BLOCKS);
    let off = rng.gen_range(0u32..32);
    let pc = 0x400 + rng.gen_range(0u64..8) * 4;
    let addr = PhysAddr::new(block * 2048 + u64::from(off) * 64);
    if rng.gen_bool(0.5) {
        Access::write(addr, pc, CoreId::new(0))
    } else {
        Access::read(addr, pc, CoreId::new(0))
    }
}

/// A generated access sequence of length in `1..max_len`.
fn arb_accesses(rng: &mut Xoshiro256StarStar, max_len: usize) -> Vec<Access> {
    let len = rng.gen_range(1..max_len);
    (0..len).map(|_| arb_access(rng)).collect()
}

/// Sums migration bytes by (memory, direction).
fn migration_tally<'a>(ops: impl IntoIterator<Item = &'a MemOp>) -> (u64, u64, u64, u64) {
    let mut nm_r = 0;
    let mut nm_w = 0;
    let mut fm_r = 0;
    let mut fm_w = 0;
    for op in ops
        .into_iter()
        .filter(|o| o.class == TrafficClass::Migration)
    {
        match (op.mem, op.kind) {
            (MemKind::Near, OpKind::Read) => nm_r += u64::from(op.bytes),
            (MemKind::Near, OpKind::Write) => nm_w += u64::from(op.bytes),
            (MemKind::Far, OpKind::Read) => fm_r += u64::from(op.bytes),
            (MemKind::Far, OpKind::Write) => fm_w += u64::from(op.bytes),
        }
    }
    (nm_r, nm_w, fm_r, fm_w)
}

/// SILC-FM metadata invariants: an FM block is interleaved into at most one
/// frame of its congruence set; locked-remap frames are fully resident;
/// locked-native frames hold only native data; a set bit always has a tenant
/// to exchange with.
#[test]
fn silcfm_metadata_invariants() {
    forall("silcfm_metadata_invariants", |rng| {
        let mut scheme = SilcFm::new(
            space(),
            Geometry::paper(),
            SilcFmParams {
                lock_threshold: 6,
                lock_min_resident: 1,
                aging_period: 100,
                bypass_window: 50,
                ..SilcFmParams::paper()
            },
        );
        for a in arb_accesses(rng, 400) {
            let out = scheme.access_fresh(&a);
            assert!(!out.critical.is_empty(), "demand op always present");
            let demand = out.critical.last().unwrap();
            assert_eq!(demand.mem, out.serviced_from);
        }
        // Check every frame's metadata.
        let sets = scheme.sets();
        let mut tenants = silcfm_types::FxHashSet::default();
        for f in 0..NM_BLOCKS {
            let meta = scheme.frame(f);
            if let Some(tenant) = meta.remap {
                assert!(tenant.value() >= NM_BLOCKS, "tenants come from FM");
                assert_eq!(tenant.value() % sets, f % sets, "tenant in its set");
                assert!(tenants.insert(tenant), "tenant {tenant} in two frames");
            } else {
                assert_eq!(meta.bitvec, 0, "bits without a tenant");
            }
            match meta.lock {
                LockState::LockedRemap => {
                    assert_eq!(meta.bitvec, Geometry::paper().full_mask());
                    assert!(meta.remap.is_some());
                }
                LockState::LockedNative => {
                    assert_eq!(meta.bitvec, 0);
                    assert!(meta.remap.is_none());
                }
                LockState::Unlocked => {}
            }
        }
    });
}

/// Conservation: every migration writes as many bytes into each memory as it
/// reads out of the other (the demand read may substitute for one migration
/// read), so writes to NM+FM always equal 2 x 64 B per exchange.
#[test]
fn silcfm_swap_traffic_balances() {
    forall("silcfm_swap_traffic_balances", |rng| {
        let mut scheme = SilcFm::new(space(), Geometry::paper(), SilcFmParams::paper());
        for a in arb_accesses(rng, 300) {
            let out = scheme.access_fresh(&a);
            let (_, nm_w, fm_r, fm_w) = migration_tally(&out.background);
            // Per exchange: exactly one NM write and one FM write.
            assert_eq!(nm_w, fm_w, "NM and FM receive equal swap bytes");
            // Reads never exceed writes (demand covers at most one read).
            assert!(fm_r <= fm_w + nm_w);
        }
    });
}

/// CAMEO's line location table stays a permutation under arbitrary access
/// sequences: no line is ever lost or duplicated.
#[test]
fn cameo_permutation_totality() {
    forall("cameo_permutation_totality", |rng| {
        let mut cameo = Cameo::new(space(), CameoParams::with_prefetch());
        for a in arb_accesses(rng, 500) {
            let _ = cameo.access_fresh(&a);
        }
        // Re-access every line of set 0's congruence group: each must be
        // found somewhere (find_slot panics on a broken permutation).
        for member in 0..5u64 {
            let addr = member * NM_BLOCKS * 2048; // line 0 of each member
            let _ = cameo.access_fresh(&Access::read(PhysAddr::new(addr), 0, CoreId::new(0)));
        }
    });
}

/// A swapped-in line is immediately re-serviceable from NM (CAMEO swaps
/// unconditionally on every FM access).
#[test]
fn cameo_swap_in_is_visible() {
    forall("cameo_swap_in_is_visible", |rng| {
        let block = rng.gen_range(NM_BLOCKS..NM_BLOCKS + FM_BLOCKS);
        let off = rng.gen_range(0u32..32);
        let mut cameo = Cameo::new(space(), CameoParams::default());
        let addr = PhysAddr::new(block * 2048 + u64::from(off) * 64);
        let first = cameo.access_fresh(&Access::read(addr, 0, CoreId::new(0)));
        assert_eq!(first.serviced_from, MemKind::Far);
        let second = cameo.access_fresh(&Access::read(addr, 0, CoreId::new(0)));
        assert_eq!(second.serviced_from, MemKind::Near);
    });
}

/// PoM's permutation stays total and its migrations move whole blocks.
#[test]
fn pom_invariants() {
    forall("pom_invariants", |rng| {
        let mut pom = Pom::new(
            space(),
            PomParams {
                threshold: 3,
                ..PomParams::default()
            },
        );
        let mut migration_bytes = 0u64;
        for a in arb_accesses(rng, 400) {
            let out = pom.access_fresh(&a);
            for op in &out.background {
                assert_eq!(op.bytes, 2048, "PoM moves whole blocks");
                migration_bytes += u64::from(op.bytes);
            }
        }
        let stats = pom.stats();
        assert_eq!(migration_bytes, stats.blocks_migrated * 4 * 2048);
    });
}

/// DRAM model laws: completions never precede arrivals, per-channel bus
/// occupancy never exceeds elapsed time, and identical request streams give
/// identical timings.
#[test]
fn dram_model_laws() {
    forall("dram_model_laws", |rng| {
        let len = rng.gen_range(1usize..200);
        let requests: Vec<(u64, u32, bool)> = (0..len)
            .map(|_| {
                (
                    rng.gen_range(0u64..1 << 22),
                    rng.gen_range(1u32..4),
                    rng.gen_bool(0.5),
                )
            })
            .collect();
        let mut m1 = DramModel::new(DramConfig::ddr3());
        let mut m2 = DramModel::new(DramConfig::ddr3());
        let mut now = 0u64;
        let mut last = 0u64;
        for (addr, size64, is_write) in requests {
            let bytes = size64 * 64;
            let addr = addr & !63;
            let (a, b) = if is_write {
                (m1.write(now, addr, bytes), m2.write(now, addr, bytes))
            } else {
                (m1.read(now, addr, bytes), m2.read(now, addr, bytes))
            };
            assert_eq!(a, b, "deterministic");
            assert!(a >= now, "completion {a} before arrival {now}");
            last = last.max(a);
            now += 8; // advancing arrival times
        }
        let elapsed_mem = last / 4 + 1;
        let stats = m1.stats();
        assert!(
            stats.bus_busy_cycles <= elapsed_mem * 4,
            "bus busier ({}) than 4 channels x {} cycles",
            stats.bus_busy_cycles,
            elapsed_mem
        );
    });
}

/// Scheme determinism across the board: same access sequence, same emitted
/// operations. (Fewer cases: each case simulates three controllers.)
#[test]
fn schemes_are_deterministic() {
    forall_cases("schemes_are_deterministic", 128, |rng| {
        let accesses = arb_accesses(rng, 200);
        let mut a = SilcFm::new(space(), Geometry::paper(), SilcFmParams::paper());
        let mut b = SilcFm::new(space(), Geometry::paper(), SilcFmParams::paper());
        for acc in &accesses {
            assert_eq!(a.access_fresh(acc), b.access_fresh(acc));
        }
        // And reset really resets.
        a.reset();
        let mut c = SilcFm::new(space(), Geometry::paper(), SilcFmParams::paper());
        for acc in &accesses {
            assert_eq!(a.access_fresh(acc), c.access_fresh(acc));
        }
    });
}

/// The access-rate metric is always the fraction of NM-serviced demands.
#[test]
fn access_rate_accounting() {
    forall("access_rate_accounting", |rng| {
        let accesses = arb_accesses(rng, 300);
        let mut scheme = SilcFm::new(space(), Geometry::paper(), SilcFmParams::paper());
        let mut nm_count = 0u64;
        for a in &accesses {
            if scheme.access_fresh(a).serviced_from == MemKind::Near {
                nm_count += 1;
            }
        }
        let stats = scheme.stats();
        assert_eq!(stats.serviced_from_nm, nm_count);
        assert_eq!(stats.accesses, accesses.len() as u64);
        let expected = nm_count as f64 / accesses.len() as f64;
        assert!((stats.access_rate() - expected).abs() < 1e-12);
    });
}

/// Geometry round trips: any address decomposes into (block, offset) and
/// recomposes exactly.
#[test]
fn geometry_round_trip() {
    forall("geometry_round_trip", |rng| {
        let addr = rng.gen_range(0u64..1 << 40);
        let geom = Geometry::paper();
        let a = PhysAddr::new(addr);
        let block = BlockIndex::containing(a, geom);
        let off = silc_fm::types::SubblockIndex::containing(a, geom).offset_in_block(geom);
        let reconstructed = block.base_addr(geom).value() + u64::from(off) * 64 + (addr % 64);
        assert_eq!(reconstructed, addr);
    });
}

// ---- observability invariants ---------------------------------------------

/// Histogram bucketing round-trips: every value lands inside the bucket
/// reported for it, and adjacent buckets tile the `u64` line with no gap
/// or overlap.
#[test]
fn histogram_buckets_round_trip() {
    use silc_fm::obs::hist::{bucket_of, bucket_range};
    forall("histogram_buckets_round_trip", |rng| {
        // Stress the power-of-two boundaries plus a uniform draw.
        let exp = rng.gen_range(0u64..64);
        let base = 1u64 << exp;
        for v in [
            0,
            base,
            base - 1,
            base.saturating_add(1),
            rng.gen_range(0u64..u64::MAX),
        ] {
            let b = bucket_of(v);
            let (lo, hi) = bucket_range(b);
            assert!(lo <= v && v <= hi, "{v} outside bucket {b} [{lo}, {hi}]");
            if b > 0 {
                let (_, below) = bucket_range(b - 1);
                assert_eq!(lo, below + 1, "gap or overlap below bucket {b}");
            }
        }
    });
}

/// A ring tracer driven past capacity keeps exactly the newest
/// `capacity` events, in recording order, and counts each overwrite
/// as one drop.
#[test]
fn ring_wraparound_keeps_newest_events() {
    use silc_fm::obs::{Event, RingTracer, Tracer};
    forall("ring_wraparound_keeps_newest_events", |rng| {
        let capacity = rng.gen_range(1u64..48);
        let n = rng.gen_range(1u64..160);
        let mut t = RingTracer::with_capacity(capacity as usize);
        for i in 0..n {
            t.record(i, Event::PredictorHit);
        }
        let kept = n.min(capacity);
        assert_eq!(t.dropped(), n - kept);
        let events = t.drain();
        assert_eq!(events.len() as u64, kept);
        let oldest_kept = n - kept;
        for (k, e) in events.iter().enumerate() {
            assert_eq!(
                e.at,
                oldest_kept + k as u64,
                "drain must return the newest {kept} events oldest-first"
            );
        }
    });
}

/// However sparsely the driving loop notices epoch boundaries in-run, a
/// sealed sampler holds exactly `ceil(total_cycles / epoch)` rows.
#[test]
fn sampler_seals_to_exact_row_count() {
    use silc_fm::obs::{EpochSampler, SeriesSpec};
    forall("sampler_seals_to_exact_row_count", |rng| {
        let epoch = rng.gen_range(1u64..1_000);
        let total = rng.gen_range(0u64..50_000);
        let spec = SeriesSpec::new().series("obs.hit_rate");
        let mut s = EpochSampler::new(spec, epoch, total);
        // Advance in random strides, recording only when the sampler says a
        // row is due — exactly the `System::run` protocol.
        let mut cycle = 0u64;
        while cycle < total {
            cycle = (cycle + rng.gen_range(1u64..=3 * epoch)).min(total);
            if s.due(cycle) {
                s.record(&[cycle as f64]);
            }
        }
        s.seal(total, &[-1.0]);
        assert_eq!(s.rows() as u64, total.div_ceil(epoch));
        for i in 0..s.rows() {
            assert_eq!(s.row(i).len(), 1, "row arity survives sealing");
        }
    });
}

/// Fault schedules replay bit-identically from their seed and every drawn
/// payload stays inside the declared topology — the precondition for
/// delivering them into a controller without bounds checks downstream.
#[test]
fn fault_schedules_replay_and_respect_topology() {
    use silc_fm::fault::{FaultRates, FaultSchedule, FaultTopology};
    use silc_fm::types::fault::{FaultKind, SchemeFault};

    forall("fault_schedules_replay_and_respect_topology", |rng| {
        let topo = FaultTopology {
            nm_ways: rng.gen_range(1u64..8) as u8,
            nm_frames: rng.gen_range(1u64..4096) as u32,
            subblocks: 32,
            nm_channels: rng.gen_range(1u64..16) as u8,
            fm_channels: rng.gen_range(1u64..8) as u8,
        };
        let scale = rng.gen_range(0u64..40) as f64 / 10.0;
        let base = FaultRates::harsh();
        let rates = FaultRates {
            way_degrade_per_m: base.way_degrade_per_m * scale,
            bit_flip_per_m: base.bit_flip_per_m * scale,
            metadata_parity_per_m: base.metadata_parity_per_m * scale,
            channel_stall_per_m: base.channel_stall_per_m * scale,
            channel_fail_per_m: base.channel_fail_per_m * scale,
            ..base
        };
        let seed = rng.gen_range(0u64..1 << 60);
        let horizon = rng.gen_range(100_000u64..4_000_000);
        let a = FaultSchedule::generate(seed, horizon, &rates, &topo).unwrap();
        let b = FaultSchedule::generate(seed, horizon, &rates, &topo).unwrap();
        assert_eq!(a.faults(), b.faults(), "same seed, same schedule");

        let mut prev = 0;
        for f in a.faults() {
            assert!(f.at >= prev, "schedule sorted by delivery cycle");
            prev = f.at;
            match f.kind {
                FaultKind::Scheme(SchemeFault::DegradeWay { way })
                | FaultKind::Scheme(SchemeFault::RestoreWay { way }) => {
                    assert!(way < topo.nm_ways);
                }
                FaultKind::Scheme(SchemeFault::BitFlip {
                    frame, subblock, ..
                }) => {
                    assert!(frame < topo.nm_frames);
                    assert!(subblock < topo.subblocks);
                }
                FaultKind::Scheme(SchemeFault::MetadataParity { frame }) => {
                    assert!(frame < topo.nm_frames);
                }
                FaultKind::Dram { device, fault } => {
                    let channels = match device {
                        MemKind::Near => topo.nm_channels,
                        MemKind::Far => topo.fm_channels,
                    };
                    assert!(fault.channel() < channels);
                }
            }
        }
    });
}

/// Applying a schedule's scheme faults to a warmed-up controller is
/// deterministic (same effects, same stats on replay), conserves every
/// delivery in the effect ledger, and reports exactly the failover
/// transitions the schedule-only oracle derives.
#[test]
fn controller_fault_effects_replay_and_conserve() {
    use silc_fm::fault::{
        expected_failover_transitions, FaultRates, FaultSchedule, FaultStats, FaultTopology,
    };
    use silc_fm::types::fault::{FaultEffect, FaultKind, ScheduledFault};
    use silc_fm::types::{SchemeOutcome, SchemeStats};

    fn detail(stats: &SchemeStats, key: &str) -> f64 {
        stats
            .details
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |(_, v)| *v)
    }

    forall_cases("controller_fault_effects_replay_and_conserve", 64, |rng| {
        let topo = FaultTopology {
            nm_ways: 4,
            nm_frames: NM_BLOCKS as u32,
            subblocks: 32,
            nm_channels: 8,
            fm_channels: 4,
        };
        let accesses = arb_accesses(rng, 300);
        let seed = rng.gen_range(0u64..1 << 48);
        let schedule =
            FaultSchedule::generate(seed, 2_000_000, &FaultRates::harsh(), &topo).unwrap();
        let scheme_faults: Vec<ScheduledFault> = schedule
            .faults()
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::Scheme(_)))
            .copied()
            .collect();

        let drive = |acc: &[Access],
                     faults: &[ScheduledFault]|
         -> (Vec<FaultEffect>, FaultStats, SchemeStats) {
            let mut scheme = SilcFm::new(
                space(),
                Geometry::paper(),
                SilcFmParams {
                    aging_period: 100,
                    bypass_window: 50,
                    ..SilcFmParams::paper()
                },
            );
            for a in acc {
                let _ = scheme.access_fresh(a);
            }
            let mut out = SchemeOutcome::empty();
            let mut effects = Vec::new();
            let mut ledger = FaultStats::default();
            for f in faults {
                let FaultKind::Scheme(sf) = f.kind else {
                    continue;
                };
                let e = scheme.apply_fault(&sf, &mut out);
                ledger.record(e);
                effects.push(e);
            }
            (effects, ledger, scheme.stats())
        };

        let (e1, l1, s1) = drive(&accesses, &scheme_faults);
        let (e2, l2, s2) = drive(&accesses, &scheme_faults);
        assert_eq!(e1, e2, "effects replay bit-identically");
        assert_eq!(l1, l2);
        assert_eq!(s1, s2);
        assert!(l1.conserved(), "every delivery has one accounted effect");
        assert_eq!(l1.injected as usize, scheme_faults.len());

        // The controller's own counters agree with the external ledger.
        assert_eq!(detail(&s1, "faults_injected") as u64, l1.injected);
        assert_eq!(detail(&s1, "fault_corrected") as u64, l1.corrected);
        assert_eq!(detail(&s1, "fault_recovered") as u64, l1.recovered);
        assert_eq!(detail(&s1, "fault_poisoned") as u64, l1.poisoned);
        assert_eq!(detail(&s1, "fault_masked") as u64, l1.masked);

        // Failover transitions match the schedule-only oracle exactly.
        let oracle = expected_failover_transitions(&scheme_faults, 4);
        assert_eq!(detail(&s1, "failover_transitions") as usize, oracle.len());
    });
}

/// The ECC outcome mix of generated bit flips tracks the configured
/// probabilities (within binomial noise): the fault plane's randomness is
/// calibrated, not just reproducible.
#[test]
fn ecc_outcomes_track_configured_probabilities() {
    use silc_fm::fault::{FaultRates, FaultSchedule, FaultTopology};

    forall_cases("ecc_outcomes_track_configured_probabilities", 64, |rng| {
        let correct_pct = rng.gen_range(0u64..=90);
        let due_pct = rng.gen_range(0u64..=(100 - correct_pct));
        let rates = FaultRates {
            bit_flip_per_m: 200.0,
            ecc_correct_p: correct_pct as f64 / 100.0,
            ecc_due_p: due_pct as f64 / 100.0,
            ..FaultRates::none()
        };
        let topo = FaultTopology {
            nm_ways: 4,
            nm_frames: 1024,
            subblocks: 32,
            nm_channels: 8,
            fm_channels: 4,
        };
        let seed = rng.gen_range(0u64..1 << 60);
        let s = FaultSchedule::generate(seed, 10_000_000, &rates, &topo).unwrap();
        let (c, d, u) = s.ecc_histogram();
        let n = c + d + u;
        assert!(n > 1_000, "expected ~2000 flips, got {n}");

        let expect = [
            rates.ecc_correct_p,
            rates.ecc_due_p,
            1.0 - rates.ecc_correct_p - rates.ecc_due_p,
        ];
        for (label, (got, p)) in ["corrected", "due", "undetected"]
            .iter()
            .zip([c, d, u].into_iter().zip(expect))
        {
            let frac = got as f64 / n as f64;
            let tol = (5.0 * (p * (1.0 - p) / n as f64).sqrt()).max(0.02);
            assert!(
                (frac - p).abs() <= tol,
                "{label}: observed {frac:.3} vs configured {p:.3} (tol {tol:.3}, n={n})"
            );
        }
    });
}

/// Cutting a journal at an arbitrary byte (the crash model) and resuming
/// recovers exactly the records whose lines completed; re-appending the
/// missing ones reproduces the uninterrupted journal byte for byte.
#[test]
fn journal_resume_recovers_exactly_the_complete_prefix() {
    use silc_fm::sim::journal::{resume, GridCodec, JournalWriter};
    use silc_fm::sim::{RunResult, TrafficTally};
    use silc_fm::types::SchemeStats;

    fn arb_result(rng: &mut Xoshiro256StarStar, i: usize) -> RunResult {
        const KEYS: &[&str] = &["locks", "swaps", "epochs", "migrations"];
        let access_rate = rng.gen_range(0u64..1 << 52) as f64 / 1e18 - 1.0;
        let energy_pj = rng.gen_range(0u64..1 << 52) as f64 / 3.0 - 1.0;
        let mpki = rng.gen_range(0u64..1 << 52) as f64 / 1e6 - 1.0;
        let mut stats = SchemeStats {
            accesses: rng.gen_range(0u64..1 << 40),
            serviced_from_nm: rng.gen_range(0u64..1 << 40),
            subblocks_moved: rng.gen_range(0u64..1 << 40),
            blocks_migrated: rng.gen_range(0u64..1 << 20),
            details: Vec::new(),
        };
        for key in KEYS.iter().take(rng.gen_range(0usize..=KEYS.len())) {
            let v = rng.gen_range(0u64..1 << 52) as f64 / 7.0;
            stats.detail(key, v);
        }
        RunResult {
            scheme: ["silcfm", "hma", "cam"][i % 3].to_string(),
            workload: ["mcf", "milc"][i % 2].to_string(),
            cycles: rng.gen_range(1u64..u64::MAX),
            instructions: rng.gen_range(1u64..u64::MAX),
            llc_misses: rng.gen_range(0u64..1 << 40),
            access_rate,
            traffic: TrafficTally {
                nm_demand: rng.gen_range(0u64..1 << 40),
                fm_demand: rng.gen_range(0u64..1 << 40),
                nm_other: rng.gen_range(0u64..1 << 40),
                fm_other: rng.gen_range(0u64..1 << 40),
            },
            energy_pj,
            scheme_stats: stats,
            mpki,
            footprint_bytes: rng.gen_range(0u64..1 << 48),
        }
    }

    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("silcfm-prop-journal");
    std::fs::create_dir_all(&dir).unwrap();

    forall_cases(
        "journal_resume_recovers_exactly_the_complete_prefix",
        64,
        |rng| {
            let digest = rng.gen_range(0u64..u64::MAX);
            let n = rng.gen_range(1usize..6);
            let results: Vec<RunResult> = (0..n).map(|i| arb_result(rng, i)).collect();
            let path = dir.join(format!(
                "case-{:016x}.journal",
                rng.gen_range(0u64..u64::MAX)
            ));

            let mut w = JournalWriter::<GridCodec>::create(&path, digest).unwrap();
            for (i, r) in results.iter().enumerate() {
                w.append(&(i, r.clone())).unwrap();
            }
            drop(w);
            let full = std::fs::read(&path).unwrap();

            // Crash model: the file survives only up to an arbitrary byte.
            let header_end = full.iter().position(|b| *b == b'\n').unwrap() + 1;
            let cut = rng.gen_range(header_end..=full.len());
            std::fs::write(&path, &full[..cut]).unwrap();

            let (mut w2, done) = resume::<GridCodec>(&path, digest).unwrap();
            let ends: Vec<usize> = full
                .iter()
                .enumerate()
                .skip(header_end)
                .filter(|(_, b)| **b == b'\n')
                .map(|(i, _)| i + 1)
                .collect();
            let survived = ends.iter().filter(|e| **e <= cut).count();
            assert_eq!(done.len(), survived, "exactly the complete lines survive");
            for (i, r) in &done {
                assert_eq!(&results[*i], r, "record {i} round-trips bit-exactly");
            }

            // Finishing the interrupted run reproduces the uninterrupted file.
            for (i, r) in results.iter().enumerate().skip(survived) {
                w2.append(&(i, r.clone())).unwrap();
            }
            drop(w2);
            assert_eq!(std::fs::read(&path).unwrap(), full);
            std::fs::remove_file(&path).ok();
        },
    );
}

// ---- whole-run determinism -------------------------------------------------

/// Observation and the fault plane are orthogonal to what is simulated:
/// for every scheme, every observability tier and faults off or harsh, a
/// run's result and fault ledger equal the untraced run's under the same
/// faults. The tiers differ only in what they return, and the metrics
/// tier's latency-percentile plane is byte-identical to the ring tier's.
#[test]
fn every_tier_and_fault_combination_is_behavior_neutral() {
    use silc_fm::fault::FaultRates;
    use silc_fm::sim::{run, run_spec, FaultParams, Observe, RunParams, RunSpec, SchemeKind};
    use silc_fm::types::SystemConfig;

    let profile = silc_fm::trace::profiles::by_name("milc").unwrap();
    let cfg = SystemConfig::small();
    let params = RunParams {
        accesses_per_core: 2_000,
        ..RunParams::smoke()
    };
    let tiers = [
        Observe::Metrics {
            epoch_cycles: 50_000,
        },
        Observe::Sampled {
            events_capacity: 1 << 12,
            period: 16,
            epoch_cycles: Some(50_000),
        },
        Observe::Sampled {
            events_capacity: 1 << 12,
            period: 16,
            epoch_cycles: None,
        },
        Observe::Ring {
            events_capacity: 1 << 12,
            epoch_cycles: 50_000,
        },
    ];
    let harsh = FaultParams {
        fault_seed: 41,
        horizon_cycles: 3_000_000,
        rates: FaultRates::harsh(),
    };
    let latency = |out: &silc_fm::sim::RunOutput| {
        let mut bytes = String::new();
        out.report.as_ref().unwrap().latency.encode(&mut bytes);
        bytes
    };

    for scheme in SchemeKind::fig7_lineup()
        .into_iter()
        .chain([SchemeKind::NoNm])
    {
        for faults in [None, Some(harsh)] {
            let spec = |observe| RunSpec { observe, faults };
            let off = run_spec(profile, scheme, &cfg, &params, &spec(Observe::Off)).unwrap();
            let case = format!("{}/faults={}", scheme.label(), faults.is_some());
            assert!(off.report.is_none() && off.counters.is_none(), "{case}");
            if let Some(stats) = off.fault_stats {
                assert!(stats.injected > 0, "{case}: harsh rates injected nothing");
            }
            assert_eq!(off.fault_stats.is_some(), faults.is_some(), "{case}");
            if faults.is_none() {
                assert_eq!(off.result, run(profile, scheme, &cfg, &params), "{case}");
            }
            let mut planes = Vec::new();
            for observe in tiers {
                let out = run_spec(profile, scheme, &cfg, &params, &spec(observe)).unwrap();
                assert_eq!(out.result, off.result, "{case} {observe:?}: result moved");
                assert_eq!(
                    out.fault_stats, off.fault_stats,
                    "{case} {observe:?}: fault ledger moved"
                );
                let sampled = matches!(observe, Observe::Sampled { .. });
                assert_eq!(out.counters.is_some(), sampled, "{case} {observe:?}");
                let lean = matches!(
                    observe,
                    Observe::Sampled {
                        epoch_cycles: None,
                        ..
                    }
                );
                assert_eq!(out.report.is_none(), lean, "{case} {observe:?}");
                if matches!(observe, Observe::Metrics { .. } | Observe::Ring { .. }) {
                    planes.push(latency(&out));
                }
            }
            assert_eq!(planes.len(), 2);
            assert_eq!(
                planes[0], planes[1],
                "{case}: metrics and ring planes differ"
            );
        }
    }
}

/// The heavyweight run modes replay exactly and stay honest, for random run
/// sizes and seeds: a traced run reproduces the untraced result digest and
/// exports byte-identical Chrome traces and CSV series on a second run, and
/// a run with an armed fault schedule replays its result and ledger bit for
/// bit, conserves every effect, and still conserves after merging ledgers.
#[test]
fn traced_and_faulted_runs_replay_and_conserve() {
    use silc_fm::fault::FaultRates;
    use silc_fm::obs::export;
    use silc_fm::sim::{run, run_spec, FaultParams, Observe, RunParams, RunSpec, SchemeKind};
    use silc_fm::types::{FxHasher, SystemConfig};
    use std::hash::Hasher as _;

    fn digest(r: &silc_fm::sim::RunResult) -> u64 {
        let mut h = FxHasher::default();
        h.write(format!("{r:?}").as_bytes());
        h.finish()
    }

    forall_cases("traced_and_faulted_runs_replay_and_conserve", 4, |rng| {
        let profile = silc_fm::trace::profiles::by_name("milc").unwrap();
        let scheme = SchemeKind::silcfm();
        let cfg = SystemConfig::small();
        let params = RunParams {
            accesses_per_core: rng.gen_range(1_500u64..3_000),
            seed: rng.gen_range(0u64..1 << 48),
            ..RunParams::smoke()
        };

        // Tracing on: results unchanged, exported artifacts reproducible.
        let traced = |spec: &RunSpec| {
            let out = run_spec(profile, scheme, &cfg, &params, spec).unwrap();
            (out.result, out.report.unwrap())
        };
        let trace = RunSpec {
            observe: Observe::Ring {
                events_capacity: 1 << 14,
                epoch_cycles: 50_000,
            },
            faults: None,
        };
        let plain = run(profile, scheme, &cfg, &params);
        let (ar, a_report) = traced(&trace);
        let (br, b_report) = traced(&trace);
        assert_eq!(digest(&ar), digest(&plain), "tracing changed the result");
        assert_eq!(digest(&br), digest(&ar), "traced results diverged");
        assert_eq!(
            export::chrome_trace(&a_report),
            export::chrome_trace(&b_report),
            "chrome trace diverged on replay"
        );
        assert_eq!(
            export::csv_series(&a_report),
            export::csv_series(&b_report),
            "CSV time series diverged on replay"
        );

        // Fault schedule armed: the ledger replays bit for bit and is
        // conserved, and ledgers from independent runs merge without leaking.
        let faults = FaultParams {
            fault_seed: rng.gen_range(0u64..1 << 48),
            horizon_cycles: 3_000_000,
            rates: FaultRates::harsh(),
        };
        let faulted = || {
            let spec = RunSpec {
                observe: Observe::Off,
                faults: Some(faults),
            };
            let out = run_spec(profile, scheme, &cfg, &params, &spec).unwrap();
            (out.result, out.fault_stats.unwrap())
        };
        let (fr, f_stats) = faulted();
        let (gr, g_stats) = faulted();
        assert_eq!(digest(&gr), digest(&fr), "faulted results diverged");
        assert_eq!(g_stats, f_stats, "fault ledgers diverged");
        assert!(f_stats.conserved());
        let mut merged = g_stats;
        merged.merge(&f_stats);
        assert!(merged.conserved(), "merged ledgers must not leak effects");
        assert_eq!(merged.injected, 2 * f_stats.injected);
    });
}

/// The journal's crash model applied to real runs: cut the journal at an
/// arbitrary byte, resume on one or two workers, and the aggregate — and the
/// finished journal itself — must come back identical to the uninterrupted
/// run's.
#[test]
fn journaled_grid_survives_random_cuts() {
    use silc_fm::sim::runner::ExperimentGrid;
    use silc_fm::sim::{run_grid_journaled, RunParams, SchemeKind};
    use silc_fm::types::SystemConfig;

    /// The header line, then the job records in sorted order.
    fn records(journal: &[u8]) -> Vec<&[u8]> {
        let mut lines: Vec<&[u8]> = journal.split(|b| *b == b'\n').collect();
        lines[1..].sort_unstable();
        lines
    }

    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("silcfm-prop-journal");
    std::fs::create_dir_all(&dir).unwrap();

    forall_cases("journaled_grid_survives_random_cuts", 6, |rng| {
        let params = RunParams {
            accesses_per_core: rng.gen_range(1_000u64..2_000),
            seed: rng.gen_range(0u64..1 << 48),
            ..RunParams::smoke()
        };
        let jobs = ExperimentGrid::new(SystemConfig::small(), params)
            .workload(silc_fm::trace::profiles::by_name("mcf").unwrap())
            .workload(silc_fm::trace::profiles::by_name("milc").unwrap())
            .scheme(SchemeKind::silcfm())
            .seed_per_job()
            .jobs();
        let threads = rng.gen_range(1usize..3);
        let path = dir.join(format!(
            "case-{:016x}.journal",
            rng.gen_range(0u64..u64::MAX)
        ));

        let uninterrupted = run_grid_journaled(&jobs, threads, &path, false, |_, _| {}).unwrap();
        let full = std::fs::read(&path).unwrap();

        // Crash model: the file survives only up to an arbitrary byte.
        let header_end = full.iter().position(|b| *b == b'\n').unwrap() + 1;
        let cut = rng.gen_range(header_end..=full.len());
        std::fs::write(&path, &full[..cut]).unwrap();

        let resumed = run_grid_journaled(&jobs, threads, &path, true, |_, _| {}).unwrap();
        assert_eq!(uninterrupted, resumed, "aggregate must be cut-invariant");
        let finished = std::fs::read(&path).unwrap();
        if threads == 1 {
            assert_eq!(
                finished, full,
                "the finished journal must be byte-identical to the uninterrupted one"
            );
        } else {
            // Two workers append records in completion order, so only the
            // order of the record lines may differ.
            assert_eq!(
                records(&finished),
                records(&full),
                "the finished journal must hold the uninterrupted one's records"
            );
        }
        std::fs::remove_file(&path).ok();
    });
}

/// The 6-bit frame aging counters clamp at the field width from any
/// starting state — including a corrupt past-the-width one — instead of
/// wrapping or panicking.
#[test]
fn frame_counters_saturate_at_the_field_width() {
    use silc_fm::core::metadata::COUNTER_MAX;
    use silc_fm::core::FrameMeta;

    forall("frame_counters_saturate_at_the_field_width", |rng| {
        let mut m = FrameMeta::empty();
        m.nm_counter = rng.gen_range(0u64..256) as u8;
        m.fm_counter = rng.gen_range(0u64..256) as u8;
        let bumps = rng.gen_range(1usize..200);
        for _ in 0..bumps {
            let v = if rng.gen_bool(0.5) {
                m.bump_nm()
            } else {
                m.bump_fm()
            };
            assert!(v <= COUNTER_MAX, "counter escaped its width: {v}");
        }
        if bumps >= 2 * usize::from(COUNTER_MAX) {
            assert_eq!(m.nm_counter.max(m.fm_counter), COUNTER_MAX);
        }
    });
}

// ---- batched access path ----------------------------------------------------

/// The batched access path is, per access, byte-identical to the scalar
/// loop: every scheme (baselines included), every batch size — including a
/// batch larger than the whole stream — produces the same operations,
/// service decisions and stall charges, and leaves the scheme with the
/// same statistics.
#[test]
fn access_batch_is_bit_identical_to_the_scalar_loop() {
    use silc_fm::sim::SchemeKind;
    use silc_fm::types::{BatchOutcome, SchemeOutcome};

    forall_cases(
        "access_batch_is_bit_identical_to_the_scalar_loop",
        12,
        |rng| {
            let kinds = [
                SchemeKind::NoNm,
                SchemeKind::Rand,
                SchemeKind::Hma,
                SchemeKind::Cameo,
                SchemeKind::CameoPrefetch,
                SchemeKind::Pom,
                SchemeKind::silcfm(),
            ];
            let accesses = arb_accesses(rng, 600);
            for kind in kinds {
                for batch in [1usize, 7, 64, 4096] {
                    let mut scalar = kind.build(space(), accesses.len() as u64);
                    let mut batched = kind.build(space(), accesses.len() as u64);
                    let mut out = SchemeOutcome::empty();
                    let mut bout = BatchOutcome::new();
                    let mut done = 0usize;
                    for chunk in accesses.chunks(batch) {
                        batched.access_batch(chunk, &mut bout);
                        assert_eq!(bout.len(), chunk.len(), "one entry per access");
                        for (j, access) in chunk.iter().enumerate() {
                            scalar.access(access, &mut out);
                            let view = bout.entry(j).unwrap();
                            assert!(
                                view.matches(&out),
                                "{} batch={batch} access {}: {view:?} != {out:?}",
                                kind.label(),
                                done + j,
                            );
                        }
                        done += chunk.len();
                    }
                    assert_eq!(
                        format!("{:?}", scalar.stats()),
                        format!("{:?}", batched.stats()),
                        "{} batch={batch}: stats diverged",
                        kind.label(),
                    );
                }
            }
        },
    );
}

/// The batch equivalence holds with the heavyweight run modes on: a
/// sampling-traced SILC-FM instance driven batched stays access-for-access
/// identical to the scalar one — exact event counters included — while
/// faults (degrade, bit flips, parity, repair) land between batches.
#[test]
fn access_batch_matches_scalar_under_tracing_and_faults() {
    use silc_fm::obs::SamplingTracer;
    use silc_fm::sim::SchemeKind;
    use silc_fm::types::fault::EccOutcome;
    use silc_fm::types::{BatchOutcome, SchemeFault, SchemeOutcome};

    forall_cases(
        "access_batch_matches_scalar_under_tracing_and_faults",
        24,
        |rng| {
            let accesses = arb_accesses(rng, 400);
            let batch = [1usize, 7, 64, 4096][rng.gen_range(0usize..4)];
            let period = [1u64, 16, 256][rng.gen_range(0usize..3)];
            let kind = SchemeKind::silcfm();
            let total = accesses.len() as u64;
            let tracer = || SamplingTracer::with_capacity(1 << 10, period);
            let mut scalar = kind.build_with_tracer(space(), total, tracer());
            let mut batched = kind.build_with_tracer(space(), total, tracer());

            let arb_fault = |rng: &mut Xoshiro256StarStar| match rng.gen_range(0u64..4) {
                0 => SchemeFault::DegradeWay {
                    way: rng.gen_range(0u64..4) as u8,
                },
                1 => SchemeFault::RestoreWay {
                    way: rng.gen_range(0u64..4) as u8,
                },
                2 => SchemeFault::BitFlip {
                    frame: rng.gen_range(0..NM_BLOCKS) as u32,
                    subblock: rng.gen_range(0u64..32) as u8,
                    ecc: [
                        EccOutcome::Corrected,
                        EccOutcome::DetectedUncorrectable,
                        EccOutcome::Undetected,
                    ][rng.gen_range(0usize..3)],
                },
                _ => SchemeFault::MetadataParity {
                    frame: rng.gen_range(0..NM_BLOCKS) as u32,
                },
            };

            let mut out = SchemeOutcome::empty();
            let mut bout = BatchOutcome::new();
            let mut fault_out_a = SchemeOutcome::empty();
            let mut fault_out_b = SchemeOutcome::empty();
            for chunk in accesses.chunks(batch) {
                // A fault lands between batches with probability 1/2 — the
                // same fault at the same stream position on both instances,
                // mirroring how the driver delivers scheduled faults at
                // access boundaries.
                if rng.gen_bool(0.5) {
                    let fault = arb_fault(rng);
                    let ea = scalar.apply_fault(&fault, &mut fault_out_a);
                    let eb = batched.apply_fault(&fault, &mut fault_out_b);
                    assert_eq!(ea, eb, "fault effects diverged for {fault:?}");
                    assert_eq!(fault_out_a, fault_out_b, "fault traffic diverged");
                }
                batched.access_batch(chunk, &mut bout);
                for (j, access) in chunk.iter().enumerate() {
                    scalar.access(access, &mut out);
                    let view = bout.entry(j).unwrap();
                    assert!(view.matches(&out), "batch={batch} period={period}");
                }
            }
            assert_eq!(
                scalar.trace_counters(),
                batched.trace_counters(),
                "exact event counters diverged (batch={batch}, period={period})"
            );
            assert_eq!(
                format!("{:?}", scalar.stats()),
                format!("{:?}", batched.stats()),
                "stats diverged (batch={batch}, period={period})"
            );
        },
    );
}
