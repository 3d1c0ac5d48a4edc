//! # dsg-bench — experiment harness
//!
//! Shared plumbing for the experiment binaries (`src/bin/exp_*.rs`), the
//! criterion bench (`benches/core.rs`), two runnable examples and the
//! end-to-end tests. Each experiment binary prints the table or series it
//! reproduces; end-to-end performance is measured by `perfbench/` alone.
//!
//! The helpers here run a request trace through the self-adjusting skip
//! graph (collecting the paper's cost metrics) and through the baseline
//! overlays, and format plain-text tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use dsg::prelude::*;
use dsg_baselines::Baseline;
use dsg_metrics::{MetricsObserver, WorkingSetTracker};
use dsg_skipgraph::reference::ReferenceGraph;
use dsg_skipgraph::{Key, SkipGraph};

/// The network sizes the `neighbors` and `route` groups of
/// `benches/core.rs` sweep.
pub const SIZES: &[u64] = &[256, 1024, 4096];

/// The source/destination key pairs the `route` microbenchmarks sweep for
/// an `n`-key graph.
pub fn route_pairs(n: u64) -> Vec<(Key, Key)> {
    let step = (n / 64).max(1) as usize;
    (0..n)
        .step_by(step)
        .map(|i| (Key::new(i), Key::new(n - 1 - i)))
        .collect()
}

/// Builds a [`ReferenceGraph`] holding exactly the nodes and membership
/// vectors of `graph`, inserted in ascending key order. For graphs that
/// were themselves built by key-ordered insertion (every fixture
/// `benches/core.rs` uses) the resulting node ids are identical, so
/// measurements drive both representations with the same id stream.
pub fn reference_graph_like(graph: &SkipGraph) -> ReferenceGraph {
    let reference = ReferenceGraph::from_members(graph.node_ids().map(|id| {
        (
            graph.key_of(id).expect("live node"),
            graph.mvec_of(id).expect("live node"),
        )
    }))
    .expect("keys are distinct in the source graph");
    // The comparisons drive both representations with the same id stream,
    // so the id-coincidence precondition is checked, not assumed: a graph
    // built with churn (free-list reuse) would violate it silently.
    for id in graph.node_ids() {
        let key = graph.key_of(id).expect("live node");
        assert_eq!(
            reference.node_by_key(key),
            Some(id),
            "reference_graph_like requires key-ordered insertion so ids coincide"
        );
    }
    reference
}

/// Result of replaying a trace through the self-adjusting skip graph.
#[derive(Debug, Clone, Default)]
pub struct DsgRun {
    /// Routing cost (intermediate nodes) per request.
    pub routing_costs: Vec<usize>,
    /// Transformation rounds per request.
    pub transformation_rounds: Vec<usize>,
    /// Total cost (`d + ρ + 1`) per request.
    pub total_costs: Vec<usize>,
    /// Structure height after each request.
    pub heights: Vec<usize>,
    /// Working set number of each request (computed alongside).
    pub working_sets: Vec<usize>,
    /// Level of the direct link created for each request.
    pub pair_levels: Vec<usize>,
    /// Dummy nodes alive after the whole trace.
    pub final_dummies: usize,
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
/// collecting the per-request metrics the experiments report through the
/// default recording observer ([`MetricsObserver`]).
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
        total_costs: metrics.total_costs.clone(),
        heights: metrics.heights.clone(),
        working_sets,
        pair_levels: metrics.pair_levels.clone(),
        final_dummies: session.engine().dummy_count(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use dsg_workloads::{RepeatedPairs, Workload};

    #[test]
    fn run_dsg_collects_one_sample_per_request() {
        let trace = RepeatedPairs::single(16, 1, 9).generate(5);
        let run = run_dsg(16, DsgConfig::default().with_seed(3), &trace);
        assert_eq!(run.routing_costs.len(), 5);
        assert_eq!(run.total_costs.len(), 5);
        assert_eq!(run.working_sets[0], 16);
        assert_eq!(run.working_sets[4], 2);
        // After the first request the pair is directly linked.
        assert!(run.routing_costs[1..].iter().all(|&c| c <= 1));
    }

    #[test]
    fn baselines_are_replayable() {
        let trace = RepeatedPairs::single(32, 0, 31).generate(4);
        let mut baseline = dsg_baselines::StaticSkipGraph::new(32);
        let costs = run_baseline(&mut baseline, &trace);
        assert_eq!(costs.len(), 4);
        assert!(costs.iter().all(|&c| c == costs[0]));
    }

    #[test]
    fn tables_are_aligned() {
        let table = format_table(
            &["n", "cost"],
            &[
                vec!["8".into(), "1.25".into()],
                vec!["1024".into(), "10.00".into()],
            ],
        );
        assert!(table.contains("1024"));
        assert!(table.lines().count() >= 4);
    }
}
