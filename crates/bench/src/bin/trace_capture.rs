//! Captures a fully traced run and exports the observability artifacts.
//!
//! Runs one (workload, scheme) pair through [`silcfm_sim::run_spec`] on
//! the ring tier — the full system with ring tracers on the controller and
//! both DRAM devices plus the epoch time-series sampler — then writes:
//!
//! * `--trace PATH` — Chrome trace-event JSON, loadable in
//!   `chrome://tracing` or <https://ui.perfetto.dev> (timestamps are raw
//!   simulation cycles);
//! * `--metrics-out PATH` — the per-epoch time series as CSV;
//! * `--summary` — the human summary table on stdout (event counts per
//!   unit, demand-latency histograms).
//!
//! Everything is deterministic: the same seed produces byte-identical
//! files. Options:
//!
//!   --workload NAME   Table III profile (default mcf)
//!   --scheme LABEL    base|rand|hma|cam|camp|pom|silcfm (default silcfm)
//!   --trace PATH      write Chrome trace JSON here
//!   --metrics-out P   write the epoch CSV here
//!   --summary         print the human summary table
//!   --smoke           small config + smoke-size run (CI-friendly)
//!   --epoch N         CPU cycles per sample (default 100000)
//!   --capacity N      ring capacity per tracer (default 1 Mi events)
//!   --sampling N      use the sampling tracer tier instead of the full
//!                     ring: exact per-kind counters on every event, ring
//!                     entries kept 1-in-N (N a power of two). Prints the
//!                     counter table; the exporters consume the sampled
//!                     ring unchanged.

use silcfm_obs::export;
use silcfm_sim::{run_spec, Observe, RunParams, RunSpec, SchemeKind};
use silcfm_trace::profiles;
use silcfm_types::obs::EVENT_KIND_LABELS;
use silcfm_types::SystemConfig;

struct Options {
    workload: String,
    scheme: String,
    trace: Option<String>,
    metrics_out: Option<String>,
    summary: bool,
    smoke: bool,
    epoch: u64,
    capacity: usize,
    sampling: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: trace_capture [--workload NAME] [--scheme LABEL] [--trace PATH] \
         [--metrics-out PATH] [--summary] [--smoke] [--epoch N] [--capacity N] \
         [--sampling N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        workload: "mcf".to_string(),
        scheme: "silcfm".to_string(),
        trace: None,
        metrics_out: None,
        summary: false,
        smoke: false,
        epoch: Observe::CAPTURE_EPOCH_CYCLES,
        capacity: Observe::CAPTURE_EVENTS,
        sampling: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => opts.workload = args.next().unwrap_or_else(|| usage()),
            "--scheme" => opts.scheme = args.next().unwrap_or_else(|| usage()),
            "--trace" => opts.trace = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics-out" => opts.metrics_out = Some(args.next().unwrap_or_else(|| usage())),
            "--summary" => opts.summary = true,
            "--smoke" => opts.smoke = true,
            "--epoch" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.epoch = v.parse().expect("--epoch must be an integer");
                assert!(opts.epoch > 0, "--epoch must be positive");
            }
            "--capacity" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.capacity = v.parse().expect("--capacity must be an integer");
                assert!(opts.capacity > 0, "--capacity must be positive");
            }
            "--sampling" => {
                let v = args.next().unwrap_or_else(|| usage());
                let period: u64 = v.parse().expect("--sampling must be an integer");
                assert!(
                    period.is_power_of_two(),
                    "--sampling must be a power of two"
                );
                opts.sampling = Some(period);
            }
            other => {
                eprintln!("unknown argument '{other}'");
                usage();
            }
        }
    }
    opts
}

/// Maps a scheme label (as printed in every results table) back to its kind.
fn scheme_by_label(label: &str) -> Option<SchemeKind> {
    let mut lineup = vec![SchemeKind::NoNm, SchemeKind::Rand];
    lineup.extend(SchemeKind::fig7_lineup());
    lineup.into_iter().find(|k| k.label() == label)
}

fn write_file(path: &str, contents: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

fn main() {
    let opts = parse_args();
    let profile = profiles::by_name(&opts.workload).unwrap_or_else(|| {
        eprintln!("unknown workload '{}'", opts.workload);
        let names: Vec<&str> = profiles::all().iter().map(|p| p.name).collect();
        eprintln!("known workloads: {}", names.join(" "));
        std::process::exit(2);
    });
    let scheme = scheme_by_label(&opts.scheme).unwrap_or_else(|| {
        eprintln!("unknown scheme '{}'", opts.scheme);
        eprintln!("known schemes: base rand hma cam camp pom silcfm");
        std::process::exit(2);
    });

    let (cfg, params) = if opts.smoke {
        (SystemConfig::small(), RunParams::smoke())
    } else {
        (SystemConfig::experiment(), RunParams::quick())
    };

    println!(
        "trace_capture: workload={} scheme={} accesses/core={} epoch={} capacity={}{}",
        profile.name,
        opts.scheme,
        params.accesses_per_core,
        opts.epoch,
        opts.capacity,
        match opts.sampling {
            Some(period) => format!(" sampling=1-in-{period}"),
            None => String::new(),
        }
    );
    let observe = match opts.sampling {
        Some(period) => Observe::Sampled {
            events_capacity: opts.capacity,
            period,
            epoch_cycles: Some(opts.epoch),
        },
        None => Observe::Ring {
            events_capacity: opts.capacity,
            epoch_cycles: opts.epoch,
        },
    };
    let spec = RunSpec {
        observe,
        faults: None,
    };
    let out = run_spec(profile, scheme, &cfg, &params, &spec).expect("fault-free run");
    if let Some(counters) = out.counters {
        let total: u64 = counters.iter().sum();
        println!("controller event counters ({total} events, exact):");
        for (label, count) in EVENT_KIND_LABELS.iter().zip(counters.iter()) {
            if *count > 0 {
                println!("  {label:<18} {count}");
            }
        }
    }
    let (result, report) = (out.result, out.report.expect("a capture tier reports"));
    println!(
        "run: {} cycles, access rate {:.3}, {} events captured, {} dropped",
        result.cycles,
        result.access_rate,
        report.event_count(),
        report.dropped
    );

    if let Some(path) = &opts.trace {
        write_file(path, &export::chrome_trace(&report));
        println!("wrote {path}");
    }
    if let Some(path) = &opts.metrics_out {
        write_file(path, &export::csv_series(&report));
        println!("wrote {path}");
    }
    if opts.summary {
        println!("\n{}", export::summary(&report));
    }
}
