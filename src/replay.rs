//! Trace replay for the end-to-end tests, the paper-claim tests and the
//! comparison examples: run a request trace through the self-adjusting skip
//! graph (collecting the paper's cost metrics) and through the baseline
//! overlays, and format plain-text tables of the results.

use dsg::prelude::*;
use dsg_baselines::Baseline;
use dsg_metrics::{MetricsObserver, WorkingSetTracker};

/// Result of replaying a trace through the self-adjusting skip graph.
#[derive(Debug, Clone, Default)]
pub struct DsgRun {
    /// Routing cost (intermediate nodes) per request.
    pub routing_costs: Vec<usize>,
    /// Transformation rounds per request.
    pub transformation_rounds: Vec<usize>,
    /// Structure height after each request.
    pub heights: Vec<usize>,
    /// Working set number of each request (computed alongside).
    pub working_sets: Vec<usize>,
    /// Level of the direct link created for each request.
    pub pair_levels: Vec<usize>,
}

impl DsgRun {
    /// Sum of routing costs.
    pub fn total_routing(&self) -> usize {
        self.routing_costs.iter().sum()
    }

    /// Sum of transformation rounds.
    pub fn total_transformation(&self) -> usize {
        self.transformation_rounds.iter().sum()
    }

    /// Average routing cost per request.
    pub fn avg_routing(&self) -> f64 {
        if self.routing_costs.is_empty() {
            0.0
        } else {
            self.total_routing() as f64 / self.routing_costs.len() as f64
        }
    }

    /// The working-set bound `WS(σ)` of the replayed trace.
    pub fn working_set_bound(&self) -> f64 {
        self.working_sets
            .iter()
            .map(|&t| (t.max(2) as f64).log2())
            .sum()
    }

    /// Maximum height observed.
    pub fn max_height(&self) -> usize {
        self.heights.iter().copied().max().unwrap_or(0)
    }
}

/// Replays `trace` on a fresh `n`-peer session built with `config`, one
/// request per [`DsgSession::submit_batch`] (one epoch per communicate),
/// collecting the per-request metrics through the default recording
/// observer ([`MetricsObserver`]).
///
/// # Panics
///
/// Panics if the trace references peers outside `0..n` (traces from
/// `dsg-workloads` never do).
pub fn run_dsg(n: u64, config: DsgConfig, trace: &[Request]) -> DsgRun {
    let mut session = DsgSession::builder()
        .config(config)
        .peers(0..n)
        .build()
        .expect("peer keys 0..n are distinct and the config is valid");
    let metrics = session.observe(MetricsObserver::new());
    for request in trace {
        session
            .submit_batch(std::slice::from_ref(request))
            .expect("trace peers exist");
    }
    // Per-request series (working sets included) cover the *communication*
    // requests of the trace, in order; membership/clock requests are served
    // by the replay above but contribute no series entry.
    let mut tracker = WorkingSetTracker::new(n as usize);
    let working_sets = trace
        .iter()
        .filter_map(|r| r.endpoints())
        .map(|(u, v)| tracker.record(u, v))
        .collect();
    let metrics = metrics.lock().expect("metrics lock");
    DsgRun {
        routing_costs: metrics.routing_costs.clone(),
        transformation_rounds: metrics.transformation_rounds.clone(),
        heights: metrics.heights.clone(),
        working_sets,
        pair_levels: metrics.pair_levels.clone(),
    }
}

/// Replays `trace` on a baseline overlay and returns the per-request
/// routing costs. Like [`Baseline::serve_trace`], only communication
/// requests contribute (baselines model a fixed peer population), so the
/// returned series aligns with the per-request series of [`run_dsg`] for
/// the same trace.
pub fn run_baseline<B: Baseline>(baseline: &mut B, trace: &[Request]) -> Vec<usize> {
    trace
        .iter()
        .filter_map(|r| r.endpoints())
        .map(|(u, v)| baseline.serve(u, v))
        .collect()
}

/// Formats a plain-text table with aligned columns.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with two decimals (table helper).
pub fn f2(value: f64) -> String {
    format!("{value:.2}")
}
