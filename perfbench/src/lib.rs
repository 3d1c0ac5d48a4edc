//! End-to-end and per-layer benchmark of the DSG engine and its durable
//! ingest service, driven only through the public API of `dsg`.
//!
//! [`run_untraced`] and [`run_traced`] serve one workload each; `README.md`
//! in this package documents the workloads, the metrics and how each layer
//! metric is expected to move an end-to-end one.

#![forbid(unsafe_code)]

pub mod e2e;
pub mod report;
pub mod summary;
pub mod twin;
pub mod workload;

use std::path::{Path, PathBuf};

use report::Metric;
use summary::Meta;
use workload::Plan;

/// Where a run keeps its stores and span files, relative to the
/// directory it runs in.
pub const OUT_DIR: &str = ".perfbench";

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Timed requests attempted.
    pub attempted: u64,
    /// Timed requests refused or failed.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Correctness checks that failed, in words.
    pub errors: Vec<String>,
    /// The span file of a traced run.
    pub span_file: Option<PathBuf>,
}

/// Serves `plan` untraced and reports the end-to-end metrics; the set-up
/// and recovery repetitions run in a fresh process of `exe`, this
/// benchmark's own executable.
pub fn run_untraced(plan: &Plan, out: &Path, exe: &Path) -> Result<Outcome, String> {
    let work = out.join(format!("{}-{}", plan.kind.name(), std::process::id()));
    let run = e2e::run(plan, &work).and_then(|mut run| {
        (run.setups, run.recoveries) = e2e::repetitions_in_child(exe, plan, &work)?;
        Ok(run)
    });
    let _ = std::fs::remove_dir_all(&work);
    let run = run?;
    let metrics = report::end_to_end(&run);
    Ok(Outcome {
        correct: run.errors.is_empty(),
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        errors: run.errors,
        span_file: None,
    })
}

/// Serves `plan` untraced, then through the twin with spans off and on;
/// checks the three agree, writes the span file and summarises it into
/// the per-layer metrics.
pub fn run_traced(plan: &Plan, out: &Path) -> Result<Outcome, String> {
    let work = out.join(format!("{}-{}", plan.kind.name(), std::process::id()));
    let base = e2e::run(plan, &work);
    let base = base.inspect_err(|_| {
        let _ = std::fs::remove_dir_all(&work);
    })?;
    let twin = |tracing| {
        if plan.kind.durable() {
            twin::run_service_twin(plan, &work, tracing)
        } else {
            twin::run_batch_twin(plan, &work, tracing)
        }
    };
    let untraced = twin(false)?;
    let traced = twin(true)?;
    let _ = std::fs::remove_dir_all(&work);

    let mut errors = base.errors.clone();
    errors.extend(traced.errors.iter().cloned());
    for (label, run) in [("untraced twin", &untraced), ("traced twin", &traced)] {
        if run.image != base.image {
            errors.push(format!(
                "the {label}'s engine differs from the untraced run's"
            ));
        }
        if run.journal_len != base.journal_len {
            errors.push(format!(
                "the {label}'s journal is {} bytes, the service's {}",
                run.journal_len, base.journal_len
            ));
        }
        if let Some(m) = &base.service {
            let c = run.counts;
            let pairs = [
                ("batches", c.batches, m.batches),
                ("epochs", c.epochs, m.epochs),
                ("audits", c.audits, m.audits),
                ("deep audits", c.deep_audits, m.deep_audits),
                ("snapshots", c.snapshots, m.snapshots),
            ];
            for (what, twin, service) in pairs {
                if twin != service {
                    errors.push(format!(
                        "the {label} counted {twin} {what}, the service {service}"
                    ));
                }
            }
        }
    }

    let mut meta = Meta::default();
    meta.set("workload", plan.kind.name());
    meta.set("seed", plan.seed);
    meta.set("peers", plan.peers);
    meta.set("durable", u8::from(plan.kind.durable()));
    meta.set("timed_from", plan.warmup / plan.kind.chunk());
    meta.set("timed_requests", plan.timed);
    meta.set("service_wall_s", base.wall.as_secs_f64());
    meta.set("twin_wall_s", untraced.wall.as_secs_f64());
    meta.set("traced_wall_s", traced.wall.as_secs_f64());
    meta.set("nodes_final", base.nodes_final);
    meta.set("dummies_final", base.dummies_final);
    let span_file = out.join(format!("spans-{}-{}.tsv", plan.kind.name(), plan.seed));
    summary::write(&span_file, &meta, &traced.spans)?;
    drop(traced);

    let metrics = summarize(&span_file)?;
    if let Some(coverage) = metrics.iter().find(|m| m.name == "trace.coverage") {
        if coverage.value < 0.9 {
            errors.push(format!(
                "layer spans cover {:.3} of request time, below 0.9",
                coverage.value
            ));
        }
    }
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted: base.attempted,
        failed: base.failed,
        metrics,
        errors,
        span_file: Some(span_file),
    })
}

/// The summary step: reads a span file and computes every per-layer
/// metric from it.
pub fn summarize(span_file: &Path) -> Result<Vec<Metric>, String> {
    let (meta, spans) = summary::read(span_file)?;
    Ok(summary::per_layer(&meta, &spans))
}
