//! Metric arithmetic, the run header, and the result line.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Duration;

use crate::e2e::E2eRun;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
    /// Samples above the value, for a percentile.
    pub beyond: Option<usize>,
}

/// The `q`-quantile of `samples` by nearest rank, with the number of
/// samples ranked above it. `(0.0, 0)` for no samples.
pub fn quantile(samples: &[Duration], q: f64) -> (Duration, usize) {
    if samples.is_empty() {
        return (Duration::ZERO, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// The median of `samples`, in seconds.
pub fn median_s(samples: &[Duration]) -> f64 {
    quantile(samples, 0.5).0.as_secs_f64()
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
pub fn end_to_end(run: &E2eRun) -> Vec<Metric> {
    let served = run.attempted - run.failed;
    let (p50, _) = quantile(&run.latencies, 0.50);
    let (p99, beyond) = quantile(&run.latencies, 0.99);
    let mean = |sum: u64| {
        if served > 0 {
            sum as f64 / served as f64
        } else {
            0.0
        }
    };
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    let metric = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
        beyond: None,
    };
    let lat = run.latencies.len();
    // The fastest reopen of each store: the machine's speed flips between
    // two levels every few tens of milliseconds, which moves a median of
    // reopens lasting a few milliseconds more than a change would.
    let fastest_recoveries: Vec<f64> = run
        .recoveries
        .iter()
        .filter_map(|samples| samples.iter().min().map(Duration::as_secs_f64))
        .collect();
    vec![
        metric(
            "throughput_rps",
            served as f64 / run.wall.as_secs_f64(),
            "1/s",
            served as usize,
        ),
        metric("latency_p50_ms", p50.as_secs_f64() * 1e3, "ms", lat),
        Metric {
            beyond: Some(beyond),
            ..metric("latency_p99_ms", p99.as_secs_f64() * 1e3, "ms", lat)
        },
        metric(
            "routing_hops_mean",
            mean(run.routing_hops),
            "hops",
            served as usize,
        ),
        metric(
            "transform_rounds_mean",
            run.transform_rounds as f64 / run.restructured.max(1) as f64,
            "rounds",
            run.restructured as usize,
        ),
        metric("setup_s", median_s(&run.setups), "s", run.setups.len()),
        metric(
            "recover_s",
            fastest_recoveries.iter().sum::<f64>() / fastest_recoveries.len().max(1) as f64,
            "s",
            run.recoveries.iter().map(Vec::len).sum(),
        ),
        metric("peak_rss_mb", mib(run.peak_rss_bytes), "MiB", 1),
        metric("store_mb", mib(run.store_bytes), "MiB", 1),
        metric(
            "served_frac",
            served as f64 / run.attempted.max(1) as f64,
            "ratio",
            run.attempted as usize,
        ),
    ]
}

/// The human-readable metric table printed before the result line.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<32} {:>18} {:<7} samples",
        "metric", "value", "unit"
    );
    for m in metrics {
        let beyond = m.beyond.map_or(String::new(), |b| format!(" ({b} beyond)"));
        let _ = writeln!(
            out,
            "{:<32} {:>18.6} {:<7} {}{beyond}",
            m.name, m.value, m.unit, m.samples
        );
    }
    out
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics` (value and unit per metric).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The process's peak resident set (`VmHWM`) in bytes, 0 if unknown.
pub fn peak_rss_bytes() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<u64>().ok()
            })
        })
        .map_or(0, |kib| kib * 1024)
}

/// The type of the filesystem holding `path` (from the mount table),
/// `unknown` if it cannot be read.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    // Fields: id parent dev root mount-point options ... - fstype source.
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut halves = line.splitn(2, " - ");
        let (Some(left), Some(right)) = (halves.next(), halves.next()) else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or("unknown".to_string(), |(_, fstype)| fstype)
}

/// The commit of the checkout, read from `.git` in the working directory;
/// `none` outside a git checkout.
pub fn git_rev() -> String {
    let read = |path: &str| fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "none".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "none".to_string())
}
