//! Self-describing output: the header, one line per metric with its unit,
//! the trace spans file, and the final JSON line.

use std::fmt::Write as _;
use std::path::Path;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// How the value was obtained (sample count, spread), for the log.
    pub note: String,
}

impl Metric {
    /// A metric with an explanatory note.
    pub fn new(
        name: &'static str,
        unit: &'static str,
        value: f64,
        note: impl Into<String>,
    ) -> Self {
        Self {
            name,
            unit,
            value: if value.is_finite() { value } else { 0.0 },
            note: note.into(),
        }
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// "median of n (min .. max)" for a timing note.
pub fn spread_note(xs: &[f64]) -> String {
    format!(
        "median of {} samples, min {:.6} max {:.6}",
        xs.len(),
        quantile(xs, 0.0),
        quantile(xs, 1.0)
    )
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, 0 if unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checkout's git revision, read from `.git` in the working directory
/// without running git; "unknown" outside a git checkout.
pub fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Prints the metric lines.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("metric {} = {} {}  ({})", m.name, m.value, m.unit, m.note);
    }
}

/// The last line of output.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// One trace span: a layer's interval within one job of one traced pass.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// `pass.job` identifier shared by the spans of one job.
    pub id: String,
    /// Job label.
    pub job: String,
    /// Start, ns since the benchmark started.
    pub start_ns: u64,
    /// End, ns since the benchmark started.
    pub end_ns: u64,
    /// Parent span name (`None` for the job span).
    pub parent: Option<&'static str>,
}

/// Writes `spans` as JSON lines to `path`, creating its directory.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"id\": \"{}\", \"job\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            s.name, s.id, s.job, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, out)
}
