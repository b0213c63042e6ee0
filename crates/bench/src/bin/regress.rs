//! Performance-regression gate: a trajectory of simulator-speed metrics
//! and a noise-aware `--check` against the committed baseline.
//!
//! Single-run wall-clock numbers on a shared 1-vCPU host swing ±30%, so a
//! naive "today slower than yesterday" gate would cry wolf on every push.
//! This binary measures the way the throughput benchmark's `--overhead`
//! mode does: all regimes are *interleaved* inside every repeat (so each
//! sees the same noise window) and the best rate per regime across rounds
//! wins (minimum-time estimation discards interference). On top of that,
//! the gated quantities are *ratios* between regimes measured in the same
//! rounds — scheme-vs-baseline speed and traced-vs-untraced overhead —
//! which cancel host speed entirely; absolute acc/s is recorded for the
//! trajectory but never gated.
//!
//! Modes:
//!   (default)     measure and append one run to the trajectory JSON
//!   --check       measure and compare against the *last* committed run;
//!                 exit non-zero if any ratio leaves its band
//!
//! Options:
//!   --smoke       tiny budget (CI-sized, seconds)
//!   --repeats N   interleaved rounds, best-of per regime (default 3)
//!   --band X      multiplicative tolerance for `--check` (default 1.6:
//!                 a ratio may drift to 1.6x or 1/1.6x of the baseline
//!                 before the gate trips — wide enough for cross-host
//!                 noise, tight enough to catch a 2x hot-path regression)
//!   --out PATH    trajectory path (default results/BENCH_trajectory.json)
//!   --label S     free-form label recorded with the run (e.g. a commit)

use std::time::Instant;

use silcfm_obs::json;
use silcfm_sim::{run_spec, Observe, RunParams, RunSpec, SchemeKind};
use silcfm_trace::profiles;
use silcfm_types::SystemConfig;

/// Default accesses per regime per round, spread over the profiles.
const DEFAULT_BUDGET: u64 = 280_000;

/// `--smoke` accesses per regime per round.
const SMOKE_BUDGET: u64 = 16_000;

/// Ring capacity for the traced regime (see `throughput.rs`: big rings
/// would time allocation, not the record path).
const EVENTS_CAPACITY: usize = 1 << 14;

struct Options {
    check: bool,
    smoke: bool,
    repeats: u32,
    band: f64,
    out: String,
    label: String,
}

fn parse_args() -> Options {
    let mut opts = Options {
        check: false,
        smoke: false,
        repeats: 3,
        band: 1.6,
        out: "results/BENCH_trajectory.json".to_string(),
        label: "unlabeled".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => opts.check = true,
            "--smoke" => opts.smoke = true,
            "--repeats" => {
                let v = args.next().expect("--repeats needs a value");
                opts.repeats = v.parse().expect("--repeats must be an integer");
                assert!(opts.repeats > 0, "--repeats must be positive");
            }
            "--band" => {
                let v = args.next().expect("--band needs a value");
                opts.band = v.parse().expect("--band must be a number");
                assert!(opts.band > 1.0, "--band must exceed 1.0");
            }
            "--out" => opts.out = args.next().expect("--out needs a path"),
            "--label" => opts.label = args.next().expect("--label needs a value"),
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!(
                    "usage: regress [--check] [--smoke] [--repeats N] [--band X] \
                     [--out PATH] [--label S]"
                );
                std::process::exit(2);
            }
        }
    }
    opts
}

/// The metric set of one measured run, in trajectory order. Absolute
/// rates contextualize the trajectory; only the `ratio_` entries are
/// gated by `--check`.
const METRICS: [&str; 6] = [
    "fs_base_acc_s",
    "fs_silcfm_acc_s",
    "fs_silcfm_traced_acc_s",
    "ratio_fs_silcfm_over_base",
    "ratio_fs_traced_over_untraced",
    "ratio_fs_silcfm_over_rand",
];

/// Accesses/sec for one scheme through the full `System::run` pipeline
/// with `spec`'s observability tier live, one round (the caller
/// interleaves regimes and keeps the best).
fn fs_rate(
    kind: SchemeKind,
    cfg: &SystemConfig,
    params: &RunParams,
    per_profile: u64,
    spec: &RunSpec,
) -> f64 {
    let cores = u64::from(cfg.core.cores);
    let p = RunParams {
        accesses_per_core: (per_profile / cores).max(1),
        ..*params
    };
    let mut total = 0u64;
    let mut elapsed = 0.0f64;
    for profile in profiles::all() {
        let t0 = Instant::now();
        let out = run_spec(profile, kind, cfg, &p, spec).expect("fault-free run");
        elapsed += t0.elapsed().as_secs_f64();
        std::hint::black_box(&out);
        total += p.accesses_per_core * cores;
    }
    total as f64 / elapsed
}

/// Measures every regime with interleaved rounds and returns the metric
/// values in [`METRICS`] order.
fn measure(budget: u64, repeats: u32) -> Vec<f64> {
    let cfg = SystemConfig::small();
    let params = RunParams::smoke();
    let n_profiles = profiles::all().len() as u64;
    let per_profile = (budget / n_profiles).max(1);

    let mut fs_base = 0.0f64;
    let mut fs_rand = 0.0f64;
    let mut fs_silcfm = 0.0f64;
    let mut fs_traced = 0.0f64;
    let untraced = RunSpec::default();
    // The full observability stack: ring tracers, epoch sampler, and the
    // latency-percentile sketches.
    let traced = RunSpec {
        observe: Observe::Ring {
            events_capacity: EVENTS_CAPACITY,
            epoch_cycles: Observe::CAPTURE_EPOCH_CYCLES,
        },
        faults: None,
    };
    let rate = |kind, spec| fs_rate(kind, &cfg, &params, per_profile, spec);
    for _ in 0..repeats {
        fs_base = fs_base.max(rate(SchemeKind::NoNm, &untraced));
        fs_rand = fs_rand.max(rate(SchemeKind::Rand, &untraced));
        fs_silcfm = fs_silcfm.max(rate(SchemeKind::silcfm(), &untraced));
        fs_traced = fs_traced.max(rate(SchemeKind::silcfm(), &traced));
    }
    vec![
        fs_base,
        fs_silcfm,
        fs_traced,
        fs_silcfm / fs_base,
        fs_traced / fs_silcfm,
        fs_silcfm / fs_rand,
    ]
}

/// The last run's metric values out of a trajectory JSON, in [`METRICS`]
/// order. `None` when the trajectory holds no runs yet.
fn last_run(text: &str) -> Option<(String, Vec<f64>)> {
    let root = json::parse(text).ok()?;
    let runs = root.get("runs")?.as_array()?;
    let last = runs.last()?;
    let label = last.get("label")?.as_str()?.to_string();
    let metrics = last.get("metrics")?;
    let values: Option<Vec<f64>> = METRICS
        .iter()
        .map(|name| metrics.get(name).and_then(json::Value::as_f64))
        .collect();
    Some((label, values?))
}

/// Renders one trajectory entry.
fn render_run(label: &str, mode: &str, budget: u64, values: &[f64]) -> String {
    let body: Vec<String> = METRICS
        .iter()
        .zip(values)
        .map(|(name, v)| format!("        \"{name}\": {v:.4}"))
        .collect();
    format!(
        "    {{\n      \"label\": \"{label}\",\n      \"mode\": \"{mode}\",\n      \
         \"budget\": {budget},\n      \"metrics\": {{\n{}\n      }}\n    }}",
        body.join(",\n")
    )
}

/// Renders the whole trajectory file from its entry bodies.
fn render_trajectory(entries: &[String]) -> String {
    format!(
        "{{\n  \"meta\": {{\n    \"unit\": \"simulated accesses per second (fs_*) and \
         dimensionless ratios (ratio_*)\",\n    \"methodology\": \"interleaved regimes, \
         best-of per regime across rounds; only ratio_* metrics are gated\",\n    \
         \"config\": \"small\"\n  }},\n  \"runs\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    )
}

/// Extracts the existing entry bodies (the text between the outer
/// brackets of `"runs"`) so appending does not re-render history.
fn existing_entries(text: &str) -> Vec<String> {
    let Ok(root) = json::parse(text) else {
        return Vec::new();
    };
    let Some(runs) = root.get("runs").and_then(json::Value::as_array) else {
        return Vec::new();
    };
    runs.iter()
        .filter_map(|run| {
            let label = run.get("label")?.as_str()?;
            let mode = run.get("mode")?.as_str()?;
            let budget = run.get("budget")?.as_f64()? as u64;
            let metrics = run.get("metrics")?;
            let values: Option<Vec<f64>> = METRICS
                .iter()
                .map(|name| metrics.get(name).and_then(json::Value::as_f64))
                .collect();
            Some(render_run(label, mode, budget, &values?))
        })
        .collect()
}

fn main() {
    let opts = parse_args();
    let budget = if opts.smoke {
        SMOKE_BUDGET
    } else {
        DEFAULT_BUDGET
    };
    let mode = if opts.smoke { "smoke" } else { "default" };

    println!(
        "regress: {} rounds x {} accesses/regime, mode={mode}, {}",
        opts.repeats,
        budget,
        if opts.check { "checking" } else { "appending" }
    );

    let values = measure(budget, opts.repeats);
    println!("\n{:32} {:>14}", "metric", "value");
    for (name, v) in METRICS.iter().zip(&values) {
        println!("{name:32} {v:>14.4}");
    }

    if opts.check {
        let text = std::fs::read_to_string(&opts.out).unwrap_or_else(|e| {
            eprintln!("cannot read trajectory {}: {e}", opts.out);
            std::process::exit(1);
        });
        let Some((label, baseline)) = last_run(&text) else {
            eprintln!(
                "trajectory {} holds no complete runs; append one first",
                opts.out
            );
            std::process::exit(1);
        };
        println!(
            "\nchecking against last committed run \"{label}\" (band {:.2}x):",
            opts.band
        );
        let mut failed = false;
        for ((name, &now), &base) in METRICS.iter().zip(&values).zip(&baseline) {
            // Absolute rates vary with the host; only ratios are gated.
            if !name.starts_with("ratio_") {
                continue;
            }
            let drift = now / base;
            let ok = drift <= opts.band && drift >= 1.0 / opts.band;
            println!(
                "  {name:32} {base:>8.4} -> {now:>8.4}  ({drift:>5.2}x)  {}",
                if ok { "ok" } else { "OUT OF BAND" }
            );
            failed |= !ok;
        }
        if failed {
            eprintln!(
                "regression gate FAILED: a gated ratio left its band; if the change is \
                 intentional, append a new trajectory run (regress --label <why>) and commit it"
            );
            std::process::exit(1);
        }
        println!("regression gate: ok");
    } else {
        let mut entries = std::fs::read_to_string(&opts.out)
            .map(|text| existing_entries(&text))
            .unwrap_or_default();
        entries.push(render_run(&opts.label, mode, budget, &values));
        if let Some(dir) = std::path::Path::new(&opts.out).parent() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
        std::fs::write(&opts.out, render_trajectory(&entries)).expect("write trajectory");
        println!(
            "\nappended run \"{}\" ({} total) to {}",
            opts.label,
            entries.len(),
            opts.out
        );
    }
}
