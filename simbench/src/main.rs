//! `silcfm-simbench`: the simulator's benchmark.
//!
//! ```text
//! silcfm-simbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! silcfm-simbench --self-test
//! ```
//!
//! `--trace 0` repeats the workload's untraced batch for `--seconds` and
//! reports the end-to-end metrics (medians over batches, each time
//! calibrated by the host probe timed after its batch); it then runs
//! every job once more with the service order recorded and checks the
//! layer-by-layer replay against it. `--trace 1` alternates untraced
//! batches with traced passes and reports the per-layer metrics. Either
//! way the last line of output is one JSON object. See `README.md`.

mod probe;
mod replay;
mod report;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use probe::HostProbe;
use replay::{trace_job, Traced};
use report::{json_line, median, print_metrics, quantile, ratio, spread_note, Metric, Span};
use silcfm_dram::DramConfig;
use workload::{host_cores, ledger_failures, run_batch, run_serial, Batch, BenchJob, Workload};

/// Untraced batches a run makes at least, however long they take.
const MIN_BATCHES: usize = 3;

/// The band the per-layer sum must fall in, as a share of the untraced
/// host ns per access. Replayed layers run on recorded inputs in tight
/// loops, so the sum may come out below or above the in-system cost; the
/// core model, the lane scheduler and the glue between layers (the
/// residual) are not replayed at all.
const LAYER_SUM_BAND: (f64, f64) = (0.4, 1.3);

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: silcfm-simbench --workload <name> --seed <n> --seconds <n> --trace <0|1>\n       \
         silcfm-simbench --self-test\nworkloads: {}",
        names.join(" ")
    )
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| (1..=600).contains(&s))
                        .ok_or_else(|| format!("bad --seconds `{value}` (1..=600)"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return if self_test() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("silcfm-simbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let origin = Instant::now();
    header(&parsed);
    let jobs = parsed.workload.jobs(parsed.seed);
    let (checks, metrics) = if parsed.trace {
        traced_run(&parsed, &jobs, origin)
    } else {
        untraced_run(&parsed, &jobs, origin)
    };
    print_metrics(&metrics);
    println!(
        "metric error_rate = {} ratio  ({} of {} jobs failed a check)",
        ratio(checks.failed as f64, checks.attempted as f64),
        checks.failed,
        checks.attempted
    );
    for f in &checks.failures {
        println!("FAILED {f}");
    }
    println!(
        "{}",
        json_line(
            checks.failed == 0,
            checks.attempted,
            checks.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}

fn header(args: &Args) {
    let (cfg, cfg_name) = args.workload.config();
    let jobs = args.workload.jobs(args.seed);
    let params = args.workload.params(args.seed);
    println!("# silcfm-simbench");
    println!("# git_revision: {}", report::git_revision());
    println!("# nproc: {}", host_cores());
    println!(
        "# command: {}",
        std::env::args().collect::<Vec<_>>().join(" ")
    );
    println!(
        "# workload: {}  seed: {}  seconds: {}  trace: {}  threads: {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.threads()
    );
    println!("# config: {cfg_name} ({cfg})");
    println!(
        "# run size: {} accesses/core, footprint scale {}, FM:NM {}:1, caches start empty",
        params.accesses_per_core, params.footprint_scale, params.fm_to_nm_ratio
    );
    println!(
        "# jobs ({}): {}",
        jobs.len(),
        jobs.iter()
            .map(BenchJob::label)
            .collect::<Vec<_>>()
            .join(" ")
    );
}

/// Correctness bookkeeping: every job execution is one attempt.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    fn record(&mut self, what: &str, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures
                .extend(failures.iter().map(|f| format!("{what}: {f}")));
        }
    }
}

/// Digest failures: every batch and the traced pass must report the same
/// digest for a job as its first batch did.
fn digest_failures(first: u64, got: u64) -> Vec<String> {
    if first == got {
        Vec::new()
    } else {
        vec![format!(
            "digest {got:016x} differs from the first run's {first:016x}"
        )]
    }
}

/// Books a batch's job outcomes, checking digests against `first`.
fn record_batch(checks: &mut Checks, jobs: &[BenchJob], batch: &Batch, first: &[u64]) {
    for ((job, t), &d) in jobs.iter().zip(&batch.jobs).zip(first) {
        let mut failures = t.failures.clone();
        failures.extend(digest_failures(d, t.digest));
        checks.record(&job.label(), &failures);
    }
}

/// Runs the traced pass of every job (on `threads` threads), books its
/// checks, and returns the passes in job order.
fn trace_all(
    jobs: &[BenchJob],
    threads: usize,
    first: &[u64],
    origin: Instant,
    checks: &mut Checks,
) -> Vec<Option<Traced>> {
    let run = |j: &BenchJob| std::panic::catch_unwind(|| trace_job(j, origin)).ok();
    let traced: Vec<Option<Traced>> = if threads <= 1 {
        jobs.iter().map(run).collect()
    } else {
        let chunk = jobs.len().div_ceil(threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .chunks(chunk)
                .map(|part| s.spawn(move || part.iter().map(run).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("traced passes catch their own panics"))
                .collect()
        })
    };
    for ((job, t), &d) in jobs.iter().zip(&traced).zip(first) {
        let failures = match t {
            Some(t) => {
                let mut f = t.failures.clone();
                f.extend(digest_failures(d, t.digest));
                f
            }
            None => vec!["traced pass panicked".to_string()],
        };
        checks.record(&format!("{} (traced)", job.label()), &failures);
    }
    traced
}

fn untraced_run(args: &Args, jobs: &[BenchJob], origin: Instant) -> (Checks, Vec<Metric>) {
    let budget = Duration::from_secs(args.seconds);
    let mut batches: Vec<Batch> = Vec::new();
    let mut probe = HostProbe::new();
    let mut probe_s = Vec::new();
    let mut peak_rss = 0.0;
    while batches.len() < MIN_BATCHES || origin.elapsed() < budget {
        batches.push(run_batch(args.workload, jobs));
        if batches.len() == 1 {
            peak_rss = report::peak_rss_mib();
        }
        probe_s.push(probe.after_batch(batches[batches.len() - 1].wall_s));
    }
    let series = |xs: &mut dyn Iterator<Item = f64>| {
        xs.map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ")
    };
    println!(
        "# batch wall_s: {}",
        series(&mut batches.iter().map(|b| b.wall_s))
    );
    println!(
        "# probe ms: {}",
        series(&mut probe_s.iter().map(|s| s * 1e3))
    );

    let mut checks = Checks::default();
    let first: Vec<u64> = batches[0].jobs.iter().map(|t| t.digest).collect();
    for b in &batches {
        record_batch(&mut checks, jobs, b, &first);
    }
    for (job, d) in jobs.iter().zip(&first) {
        println!("digest {} = {d:016x}", job.label());
    }
    // The replay checks run after the timed batches, on every job.
    let _ = trace_all(jobs, args.workload.threads(), &first, origin, &mut checks);

    let accesses: u64 = jobs.iter().map(BenchJob::accesses).sum();
    // Each batch's times, raw and calibrated by the probe timed after it.
    let scales: Vec<f64> = probe_s.iter().map(|&s| HostProbe::scale(s)).collect();
    let calibrated = |time: &dyn Fn(&Batch) -> f64| -> (Vec<f64>, Vec<f64>) {
        let raw: Vec<f64> = batches.iter().map(time).collect();
        let cal = raw.iter().zip(&scales).map(|(t, k)| t * k).collect();
        (raw, cal)
    };
    let (raw_run, run) = calibrated(&|b| b.run_s);
    let (raw_wall, wall) = calibrated(&|b| b.wall_s);
    let (raw_setup, setup) = calibrated(&|b| b.setup_s);
    let rate =
        |run_s: &[f64]| -> Vec<f64> { run_s.iter().map(|s| accesses as f64 / s / 1e6).collect() };
    let note = |cal: &[f64], raw: &[f64]| {
        format!(
            "calibrated, {}; uncalibrated median {:.6}",
            spread_note(cal),
            median(raw)
        )
    };
    println!(
        "# host probe: median {:.3} ms, reference {:.3} ms, median scale {:.4}",
        median(&probe_s) * 1e3,
        HostProbe::REFERENCE_S * 1e3,
        median(&scales)
    );
    let metrics = vec![
        Metric::new(
            "sim_macc_per_s",
            "Macc/s",
            median(&rate(&run)),
            format!(
                "{accesses} accesses per batch; {}",
                note(&rate(&run), &rate(&raw_run))
            ),
        ),
        Metric::new("wall_s", "s", median(&wall), note(&wall, &raw_wall)),
        Metric::new("setup_s", "s", median(&setup), note(&setup, &raw_setup)),
        Metric::new(
            "peak_rss_mib",
            "MiB",
            peak_rss,
            "VmHWM after the first batch",
        ),
    ];
    (checks, metrics)
}

fn traced_run(args: &Args, jobs: &[BenchJob], origin: Instant) -> (Checks, Vec<Metric>) {
    let budget = Duration::from_secs(args.seconds);
    let threads = args.workload.threads();
    let mut checks = Checks::default();
    let mut first: Option<Vec<u64>> = None;
    let mut spans: Vec<Span> = Vec::new();
    let mut untraced_ns_per_acc = Vec::new();
    let mut layer_sum_ratio = Vec::new();
    let mut per_layer: [Vec<f64>; 6] = Default::default();
    let mut overhead = Vec::new();
    let mut busy = Vec::new();
    let mut job_p50 = Vec::new();
    let mut job_max = Vec::new();
    let mut last: Vec<Option<Traced>> = Vec::new();
    let accesses: f64 = jobs.iter().map(|j| j.accesses() as f64).sum();

    let mut pass = 0;
    while pass < 1 || origin.elapsed() < budget {
        // Untraced reference: each job alone, serially; for the grid also
        // the real `run_grid` wall time, which busy_ratio compares with.
        let serial = run_serial(jobs);
        let digests: Vec<u64> = serial.jobs.iter().map(|t| t.digest).collect();
        let first = first.get_or_insert_with(|| digests.clone());
        record_batch(&mut checks, jobs, &serial, first);
        let wall = if threads > 1 {
            let grid = run_batch(args.workload, jobs);
            record_batch(&mut checks, jobs, &grid, first);
            grid.wall_s
        } else {
            serial.wall_s
        };
        let job_s: Vec<f64> = serial.jobs.iter().map(|t| t.setup_s + t.run_s).collect();
        job_p50.push(median(&job_s));
        job_max.push(quantile(&job_s, 1.0));
        busy.push(ratio(job_s.iter().sum(), threads as f64 * wall));

        let traced = trace_all(jobs, 1, first, origin, &mut checks);
        // Host ns per layer, summed over jobs: gen, translate, cache,
        // scheme, dram (the layer sum), then serve planning.
        let mut layer_ns = [0.0; 6];
        let mut traced_wall_ns = 0.0;
        for (j, (job, t)) in jobs.iter().zip(&traced).enumerate() {
            let Some(t) = t else { continue };
            let s = t.times;
            let layers = [s.gen, s.translate, s.cache, s.scheme, s.dram, s.plan];
            for (sum, layer) in layer_ns.iter_mut().zip(layers) {
                *sum += layer.ns() as f64;
            }
            traced_wall_ns += s.job.ns() as f64;
            let id = format!("{pass}.{j}");
            spans.push(Span {
                name: "job",
                id: id.clone(),
                job: job.label(),
                start_ns: s.job.start_ns,
                end_ns: s.job.end_ns,
                parent: None,
            });
            for (name, span) in s.spans() {
                if span.end_ns > 0 {
                    spans.push(Span {
                        name,
                        id: id.clone(),
                        job: job.label(),
                        start_ns: span.start_ns,
                        end_ns: span.end_ns,
                        parent: Some("job"),
                    });
                }
            }
        }
        let untraced = serial.run_s * 1e9 / accesses;
        let layer_sum = layer_ns[..5].iter().sum::<f64>() / accesses;
        untraced_ns_per_acc.push(untraced);
        layer_sum_ratio.push(ratio(layer_sum, untraced));
        overhead.push(ratio(traced_wall_ns / 1e9, serial.wall_s));
        for (samples, ns) in per_layer.iter_mut().zip(layer_ns) {
            samples.push(ns);
        }
        last = traced;
        pass += 1;
    }

    let sum_ratio = median(&layer_sum_ratio);
    let band = if (LAYER_SUM_BAND.0..=LAYER_SUM_BAND.1).contains(&sum_ratio) {
        Vec::new()
    } else {
        vec![format!(
            "layer sum is {sum_ratio:.3} of untraced ns/access, outside {LAYER_SUM_BAND:?}"
        )]
    };
    checks.record("layer-sum reconciliation", &band);

    let path = PathBuf::from("simbench/out").join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match report::write_spans(&path, &spans) {
        Ok(()) => println!("# spans: {} written to {}", spans.len(), path.display()),
        Err(e) => println!("# spans: not written ({e})"),
    }

    let metrics = layer_metrics(
        jobs,
        &last,
        &per_layer,
        median(&untraced_ns_per_acc),
        sum_ratio,
        pass,
        [median(&job_p50), median(&job_max), median(&busy)],
        median(&overhead),
    );
    (checks, metrics)
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    jobs: &[BenchJob],
    traced: &[Option<Traced>],
    per_layer_ns: &[Vec<f64>; 6],
    untraced_ns_per_acc: f64,
    layer_sum_ratio: f64,
    passes: usize,
    runner: [f64; 3],
    trace_overhead: f64,
) -> Vec<Metric> {
    let ok: Vec<(&BenchJob, &Traced)> = jobs
        .iter()
        .zip(traced)
        .filter_map(|(j, t)| t.as_ref().map(|t| (j, t)))
        .collect();
    let sum = |f: &dyn Fn(&Traced) -> f64| ok.iter().map(|(_, t)| f(t)).sum::<f64>();
    let records = sum(&|t| t.replay.records as f64);
    let calls = sum(&|t| t.replay.scheme_calls as f64);
    let dram_ops = sum(&|t| t.replay.dram_ops as f64);
    let cycles = sum(&|t| t.real.outcome.cycles as f64);
    let hbm = DramConfig::hbm2();
    let ddr = DramConfig::ddr3();
    let bus = |cfg: &DramConfig, busy: &dyn Fn(&Traced) -> f64| {
        let elapsed = sum(&|t| {
            (t.real.outcome.cycles / cfg.cpu_cycles_per_mem_cycle) as f64 * f64::from(cfg.channels)
        });
        ratio(sum(busy), elapsed)
    };
    let row_hits = |f: &dyn Fn(&Traced) -> &silcfm_dram::DramStats| {
        let hits = sum(&|t| f(t).row_hits as f64);
        let all = sum(&|t| {
            let s = f(t);
            (s.row_hits + s.row_misses + s.row_conflicts) as f64
        });
        ratio(hits, all)
    };
    let layer = |i: usize| median(&per_layer_ns[i]);
    let layer_sum: f64 = (0..5).map(layer).sum::<f64>() / records.max(1.0);

    // The serve plane: ledgers summed over rungs, latency sketches merged.
    let mut offered = 0.0;
    let mut completed = 0.0;
    let mut shed = 0.0;
    let mut timed_out = 0.0;
    let mut sketch: Option<silcfm_obs::QuantileSketch> = None;
    for (_, t) in &ok {
        if let Some(s) = &t.serve {
            offered += s.ledger.offered as f64;
            completed += s.ledger.completed as f64;
            shed += s.ledger.shed as f64;
            timed_out += s.ledger.timed_out as f64;
            match sketch.as_mut() {
                Some(m) => m.merge(&s.latency),
                None => sketch = Some(s.latency.clone()),
            }
        }
    }
    let planned: f64 = ok.iter().map(|(_, t)| t.offered as f64).sum();
    let n = format!("median of {passes} traced passes");

    vec![
        Metric::new(
            "trace.gen.ns_per_rec",
            "ns/rec",
            ratio(layer(0), records),
            &n,
        ),
        Metric::new(
            "trace.translate.ns_per_rec",
            "ns/rec",
            ratio(layer(1), records),
            &n,
        ),
        Metric::new(
            "trace.pages_allocated",
            "pages",
            sum(&|t| t.replay.pages as f64),
            "summed over jobs",
        ),
        Metric::new("cache.ns_per_acc", "ns/acc", ratio(layer(2), records), &n),
        Metric::new(
            "cache.l1_miss_ratio",
            "ratio",
            ratio(
                sum(&|t| t.real.hierarchy.l1_misses as f64),
                sum(&|t| (t.real.hierarchy.l1_hits + t.real.hierarchy.l1_misses) as f64),
            ),
            "L1 misses per L1 access",
        ),
        Metric::new(
            "cache.llc_miss_ratio",
            "1/acc",
            ratio(sum(&|t| t.real.outcome.llc_misses as f64), records),
            "LLC misses per access",
        ),
        Metric::new(
            "cache.wb_per_acc",
            "1/acc",
            ratio(sum(&|t| t.replay.writebacks as f64), records),
            "dirty LLC victims per access",
        ),
        Metric::new("scheme.ns_per_call", "ns/call", ratio(layer(3), calls), &n),
        Metric::new(
            "scheme.calls_per_acc",
            "1/acc",
            ratio(calls, records),
            "demand reads + writebacks",
        ),
        Metric::new(
            "scheme.ops_per_call",
            "ops/call",
            ratio(sum(&|t| t.replay.scheme_ops as f64), calls),
            "critical + background operations",
        ),
        Metric::new(
            "scheme.nm_access_rate",
            "ratio",
            ratio(
                sum(&|t| t.real.scheme.serviced_from_nm as f64),
                sum(&|t| t.real.scheme.accesses as f64),
            ),
            "Eq. 1, over all jobs",
        ),
        Metric::new(
            "scheme.subblocks_moved_per_call",
            "1/call",
            ratio(sum(&|t| t.real.scheme.subblocks_moved as f64), calls),
            "summed over jobs",
        ),
        Metric::new(
            "scheme.blocks_migrated",
            "count",
            sum(&|t| t.real.scheme.blocks_migrated as f64),
            "summed over jobs",
        ),
        Metric::new("dram.ns_per_op", "ns/op", ratio(layer(4), dram_ops), &n),
        Metric::new(
            "dram.nm.bytes",
            "B",
            sum(&|t| t.real.nm.total_bytes() as f64),
            "summed over jobs",
        ),
        Metric::new(
            "dram.fm.bytes",
            "B",
            sum(&|t| t.real.fm.total_bytes() as f64),
            "summed over jobs",
        ),
        Metric::new(
            "dram.nm.row_hit_ratio",
            "ratio",
            row_hits(&|t| &t.real.nm),
            "row hits per beat",
        ),
        Metric::new(
            "dram.fm.row_hit_ratio",
            "ratio",
            row_hits(&|t| &t.real.fm),
            "row hits per beat",
        ),
        Metric::new(
            "dram.nm.bus_util",
            "ratio",
            bus(&hbm, &|t| t.real.nm.bus_busy_cycles as f64),
            "busy bus cycles per channel cycle",
        ),
        Metric::new(
            "dram.fm.bus_util",
            "ratio",
            bus(&ddr, &|t| t.real.fm.bus_busy_cycles as f64),
            "busy bus cycles per channel cycle",
        ),
        Metric::new(
            "sim.residual_ns_per_acc",
            "ns/acc",
            untraced_ns_per_acc - layer_sum,
            format!("untraced {untraced_ns_per_acc:.1} ns/acc minus the layer sum {layer_sum:.1}"),
        ),
        Metric::new(
            "sim.layer_sum_ratio",
            "ratio",
            layer_sum_ratio,
            format!("band {LAYER_SUM_BAND:?}; {n}"),
        ),
        Metric::new(
            "sim.cycles",
            "cycles",
            cycles,
            "simulated, summed over jobs",
        ),
        Metric::new(
            "sim.ipc",
            "inst/cycle",
            ratio(sum(&|t| t.real.outcome.instructions as f64), cycles),
            "all cores",
        ),
        Metric::new(
            "runner.job_s_p50",
            "s",
            runner[0],
            format!("untraced, serial; {n}"),
        ),
        Metric::new(
            "runner.job_s_max",
            "s",
            runner[1],
            format!("untraced, serial; {n}"),
        ),
        Metric::new(
            "runner.busy_ratio",
            "ratio",
            runner[2],
            "job seconds / (threads x wall seconds)",
        ),
        Metric::new(
            "serve.plan.ns_per_req",
            "ns/req",
            ratio(median(&per_layer_ns[5]), planned),
            "0 where the workload has no serve plane",
        ),
        Metric::new(
            "serve.goodput",
            "ratio",
            ratio(completed, offered),
            "completed / offered",
        ),
        Metric::new(
            "serve.shed_ratio",
            "ratio",
            ratio(shed, offered),
            "shed / offered",
        ),
        Metric::new("serve.timed_out", "count", timed_out, "summed over rungs"),
        Metric::new(
            "serve.p99_cycles",
            "cycles",
            sketch.map_or(0.0, |s| s.p99() as f64),
            "merged over rungs",
        ),
        Metric::new(
            "bench.trace_overhead_ratio",
            "ratio",
            trace_overhead,
            "traced wall / untraced wall, serial",
        ),
    ]
}

/// Seeds one bug per check into a real traced job's counts (and a serve
/// ledger, and a digest) and confirms each check fires; also confirms the
/// unmodified counts pass. Prints one line per case.
fn self_test() -> bool {
    let origin = Instant::now();
    let mut ok = true;
    let mut case = |name: &str, caught: bool| {
        println!(
            "self-test {name}: {}",
            if caught { "ok" } else { "NOT CAUGHT" }
        );
        ok &= caught;
    };

    let mut job = Workload::MemhotSilcfm.jobs(7)[0];
    job.job.params.accesses_per_core = 2_000;
    let t = trace_job(&job, origin);
    case("clean run passes", t.failures.is_empty());

    let fires = |real: &replay::RealCounts, counts: &replay::ReplayCounts, needle: &str| {
        counts.check(real).iter().any(|f| f.contains(needle))
    };
    let mut real = t.real.clone();
    real.scheme.accesses += 1;
    case(
        "scheme accesses",
        fires(&real, &t.replay, "scheme accesses"),
    );
    let mut real = t.real.clone();
    real.tally.fm_demand += 64;
    case(
        "tally vs device bytes",
        fires(&real, &t.replay, "tally bytes"),
    );
    let mut counts = t.replay.clone();
    counts.llc_misses += 1;
    case(
        "replayed LLC misses",
        fires(&t.real, &counts, "replayed LLC misses"),
    );
    let mut counts = t.replay.clone();
    counts.fm.bytes_written += 64;
    case(
        "replayed NM/FM bytes",
        fires(&t.real, &counts, "NM/FM bytes"),
    );
    let mut counts = t.replay.clone();
    counts.scheme_calls += 1;
    case(
        "replayed scheme calls",
        fires(&t.real, &counts, "scheme calls"),
    );

    let mut rung = Workload::ServePoisson.jobs(7)[2];
    rung.job.params.accesses_per_core = 2_000;
    let s = trace_job(&rung, origin);
    case("clean serve rung passes", s.failures.is_empty());
    let mut ledger = s.serve.map(|s| s.ledger).unwrap_or_default();
    case(
        "serve ledger conserved",
        ledger_failures(&ledger).is_empty(),
    );
    ledger.completed += 1;
    case("serve ledger", !ledger_failures(&ledger).is_empty());

    case(
        "digest repeat",
        digest_failures(t.digest, t.digest).is_empty(),
    );
    case(
        "digest drift",
        !digest_failures(t.digest, t.digest ^ 1).is_empty(),
    );
    ok
}

#[cfg(test)]
mod tests {
    #[test]
    fn seeded_bugs_are_caught() {
        assert!(super::self_test());
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(
            super::parse_args(&args("--workload fig7-grid --seed 3 --seconds 5 --trace 1")).is_ok()
        );
        assert!(super::parse_args(&args("--workload nope --seed 3")).is_err());
        assert!(super::parse_args(&args("--workload fig7-grid --seed x")).is_err());
        assert!(super::parse_args(&args("--workload fig7-grid --seed 1 --trace 2")).is_err());
        assert!(super::parse_args(&args("--seed 1")).is_err());
        for w in super::Workload::ALL {
            assert_eq!(super::Workload::parse(w.name()), Some(w));
        }
    }
}
