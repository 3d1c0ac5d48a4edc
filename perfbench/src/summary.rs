//! The span file and the summary step that turns it into the per-layer
//! metrics.
//!
//! The file is tab-separated text. `#meta` lines carry run-level values
//! (`#meta<TAB>key<TAB>value`); every other line is one span:
//! `span<TAB>index<TAB>parent<TAB>request<TAB>name<TAB>start_ns<TAB>end_ns<TAB>counts`,
//! where `parent` and `request` are `-` when absent and `counts` is a
//! comma-separated list of `key=value` (or `-`). A span's self time is its
//! duration minus the durations of its children; the calls a span wraps
//! are sequential, so children never overlap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use crate::report::Metric;
use crate::twin::{Span, NO_REQUEST};

/// Every per-layer metric, in output order, with its unit.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("service.handoff_s", "s"),
    ("service.batches", "count"),
    ("service.epochs", "count"),
    ("persist.append_s", "s"),
    ("persist.append_us_p50", "us"),
    ("persist.capture_s", "s"),
    ("persist.checkpoint_s", "s"),
    ("persist.checkpoints", "count"),
    ("persist.bytes_per_req", "B/req"),
    ("persist.open_s", "s"),
    ("persist.restore_s", "s"),
    ("persist.replay_s", "s"),
    ("persist.replayed_requests", "count"),
    ("audit.fast_s", "s"),
    ("audit.deep_s", "s"),
    ("audit.deep_runs", "count"),
    ("engine.serve_s", "s"),
    ("engine.plan_s", "s"),
    ("engine.apply_s", "s"),
    ("engine.epochs", "count"),
    ("engine.clusters", "count"),
    ("engine.planned_clusters", "count"),
    ("engine.plan_shards_max", "count"),
    ("skipgraph.route_s", "s"),
    ("skipgraph.height_max", "count"),
    ("skipgraph.nodes_final", "count"),
    ("policy.pairs_gated", "count"),
    ("policy.admit_frac", "ratio"),
    ("policy.aging_passes", "count"),
    ("transform.touched_pairs", "count"),
    ("transform.notification_rounds", "rounds"),
    ("transform.median_rounds", "rounds"),
    ("transform.group_rounds", "rounds"),
    ("transform.restructuring_rounds", "rounds"),
    ("dummy.inserted", "count"),
    ("dummy.destroyed", "count"),
    ("dummy.reused_frac", "ratio"),
    ("dummy.live_final", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Run-level values the summary needs besides the spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Meta {
    /// Values by key.
    pub values: BTreeMap<String, String>,
}

impl Meta {
    /// Records a value.
    pub fn set(&mut self, key: &str, value: impl ToString) {
        self.values.insert(key.to_string(), value.to_string());
    }

    /// A numeric value, 0 when absent or unparsable.
    pub fn num(&self, key: &str) -> f64 {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }
}

/// Writes the span file in one pass.
pub fn write(path: &Path, meta: &Meta, spans: &[Span]) -> Result<(), String> {
    let mut out = String::with_capacity(spans.len() * 96);
    for (key, value) in &meta.values {
        let _ = writeln!(out, "#meta\t{key}\t{value}");
    }
    for (index, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
        let request = if span.request == NO_REQUEST {
            "-".to_string()
        } else {
            span.request.to_string()
        };
        let counts = if span.counts.is_empty() {
            "-".to_string()
        } else {
            span.counts
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = writeln!(
            out,
            "span\t{index}\t{parent}\t{request}\t{}\t{}\t{}\t{counts}",
            span.name, span.start_ns, span.end_ns
        );
    }
    let mut file = fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    file.write_all(out.as_bytes())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Reads a span file back.
pub fn read(path: &Path) -> Result<(Meta, Vec<Span>), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut meta = Meta::default();
    let mut spans = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let bad = || format!("{}:{}: malformed line", path.display(), number + 1);
        let fields: Vec<&str> = line.split('\t').collect();
        match fields.as_slice() {
            ["#meta", key, value] => meta.set(key, value),
            ["span", index, parent, request, name, start, end, counts] => {
                if index.parse::<usize>().ok() != Some(spans.len()) {
                    return Err(bad());
                }
                let opt = |field: &str| -> Result<Option<u64>, String> {
                    match field {
                        "-" => Ok(None),
                        digits => digits.parse().map(Some).map_err(|_| bad()),
                    }
                };
                let parent = opt(parent)?.map(|p| p as usize);
                if parent.is_some_and(|p| p >= spans.len()) {
                    return Err(bad());
                }
                let mut parsed = Vec::new();
                if *counts != "-" {
                    for pair in counts.split(',') {
                        let (k, v) = pair.split_once('=').ok_or_else(bad)?;
                        parsed.push((k.to_string(), v.parse().map_err(|_| bad())?));
                    }
                }
                spans.push(Span {
                    name: name.to_string(),
                    start_ns: start.parse().map_err(|_| bad())?,
                    end_ns: end.parse().map_err(|_| bad())?,
                    parent,
                    request: opt(request)?.unwrap_or(NO_REQUEST),
                    counts: parsed,
                });
            }
            _ => return Err(bad()),
        }
    }
    Ok((meta, spans))
}

fn add(map: &mut BTreeMap<&'static str, f64>, key: &'static str, value: f64) {
    *map.entry(key).or_default() += value;
}

fn count(span: &Span, key: &str) -> u64 {
    span.counts
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0, |&(_, v)| v)
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
///
/// Request-path metrics cover the timed region: the `request` root spans
/// whose request id is at least `#meta timed_from`. Recovery metrics are
/// means over the `recover` roots, one per recovered store.
pub fn per_layer(meta: &Meta, spans: &[Span]) -> Vec<Metric> {
    let timed_from = meta.num("timed_from") as u64;
    let durable = meta.values.get("durable").is_some_and(|v| v == "1");
    let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9;

    let mut child_time = vec![0.0f64; spans.len()];
    let mut root = vec![0usize; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        root[i] = match span.parent {
            Some(p) => {
                child_time[p] += dur(span);
                root[p]
            }
            None => i,
        };
    }

    let mut self_s: BTreeMap<&str, f64> = BTreeMap::new();
    let mut counts: BTreeMap<&str, f64> = BTreeMap::new();
    let mut request_time = 0.0;
    let mut timed_roots = 0u64;
    let mut covered = 0.0;
    let mut appends_us = Vec::new();
    let (mut journal_before, mut journal_after) = (0u64, 0u64);
    let mut height_max = 0u64;
    let mut shards_max = 0u64;
    for (i, span) in spans.iter().enumerate() {
        let top = &spans[root[i]];
        let self_time = dur(span) - child_time[i];
        if span.name == "recover" && span.parent.is_none() {
            add(&mut counts, "recoveries", 1.0);
        }
        if top.name == "recover" {
            let name: &'static str = match span.name.as_str() {
                "persist.open" => "persist.open_s",
                "persist.restore" => "persist.restore_s",
                "persist.replay" => {
                    add(&mut counts, "replayed", count(span, "requests") as f64);
                    "persist.replay_s"
                }
                _ => continue,
            };
            add(&mut self_s, name, self_time);
            continue;
        }
        if top.name != "request" {
            continue;
        }
        if span.name == "persist.append" {
            let len = count(span, "journal_len");
            if top.request < timed_from {
                journal_before = journal_before.max(len);
            } else {
                journal_after = journal_after.max(len);
            }
        }
        if top.request < timed_from {
            continue;
        }
        if span.parent.is_none() {
            request_time += dur(span);
            timed_roots += 1;
            continue;
        }
        covered += self_time;
        let name: &'static str = match span.name.as_str() {
            "skipgraph.route" => "route",
            "persist.append" => {
                appends_us.push(dur(span) * 1e6);
                "append"
            }
            "engine.serve" => {
                for key in [
                    "communicates",
                    "notification_rounds",
                    "median_rounds",
                    "group_rounds",
                    "restructuring_rounds",
                    "epochs",
                    "clusters",
                    "planned_clusters",
                    "plan_wall_ns",
                    "touched_pairs",
                    "dummies_inserted",
                    "dummies_destroyed",
                    "dummies_reused",
                    "pairs_gated",
                    "aging_passes",
                ] {
                    add(&mut counts, key, count(span, key) as f64);
                }
                height_max = height_max.max(count(span, "height_after"));
                shards_max = shards_max.max(count(span, "plan_shards"));
                "serve"
            }
            "audit.fast" => "fast",
            "audit.deep" => {
                add(&mut counts, "deep_runs", 1.0);
                "deep"
            }
            "persist.capture" => "capture",
            "persist.checkpoint" => {
                add(&mut counts, "checkpoints", 1.0);
                add(&mut counts, "checkpoint_bytes", count(span, "bytes") as f64);
                "checkpoint"
            }
            _ => "other",
        };
        add(&mut self_s, name, self_time);
    }
    let s = |key: &str| self_s.get(key).copied().unwrap_or(0.0);
    let c = |key: &str| counts.get(key).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    appends_us.sort_by(f64::total_cmp);
    let append_p50 = if appends_us.is_empty() {
        0.0
    } else {
        appends_us[(appends_us.len() - 1) / 2]
    };
    let communicates = c("communicates");
    let per_recovery = |total: f64| ratio(total, c("recoveries"));
    let twin_wall = meta.num("twin_wall_s");
    let (handoff, batches, epochs) = if durable {
        (
            // The twin's route probes are work the service does not do.
            meta.num("service_wall_s") - twin_wall + s("route"),
            timed_roots as f64,
            c("epochs"),
        )
    } else {
        (0.0, 0.0, 0.0)
    };
    let values = [
        handoff,
        batches,
        epochs,
        s("append"),
        append_p50,
        s("capture"),
        s("checkpoint"),
        c("checkpoints"),
        ratio(
            journal_after.saturating_sub(journal_before) as f64 + c("checkpoint_bytes"),
            communicates,
        ),
        per_recovery(s("persist.open_s")),
        per_recovery(s("persist.restore_s")),
        per_recovery(s("persist.replay_s")),
        per_recovery(c("replayed")),
        s("fast"),
        s("deep"),
        c("deep_runs"),
        s("serve"),
        c("plan_wall_ns") / 1e9,
        s("serve") - c("plan_wall_ns") / 1e9 - s("route"),
        c("epochs"),
        c("clusters"),
        c("planned_clusters"),
        shards_max as f64,
        s("route"),
        height_max as f64,
        meta.num("nodes_final"),
        c("pairs_gated"),
        ratio(communicates - c("pairs_gated"), communicates),
        c("aging_passes"),
        c("touched_pairs"),
        c("notification_rounds"),
        c("median_rounds"),
        c("group_rounds"),
        c("restructuring_rounds"),
        c("dummies_inserted"),
        c("dummies_destroyed"),
        ratio(c("dummies_reused"), c("dummies_inserted")),
        meta.num("dummies_final"),
        ratio(covered, request_time),
        ratio(meta.num("traced_wall_s") - twin_wall, twin_wall),
    ];
    let samples = meta.num("timed_requests") as usize;
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name,
            value,
            unit,
            samples,
            beyond: None,
        })
        .collect()
}
