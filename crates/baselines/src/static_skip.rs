//! The non-adjusting baseline: a balanced, static skip graph.

use dsg_skipgraph::{Key, SkipGraph};

use crate::Baseline;

/// A perfectly balanced skip graph over peers `0..n` that never changes
/// shape: every request is served with the standard routing algorithm at
/// `O(log n)` cost, regardless of how skewed the workload is. This is the
/// structure DSG starts from and the natural "do nothing" comparator.
#[derive(Debug, Clone)]
pub struct StaticSkipGraph {
    graph: SkipGraph,
    n: u64,
}

impl StaticSkipGraph {
    /// Builds the balanced static skip graph over peers `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: u64) -> Self {
        assert!(n >= 2, "a skip graph needs at least two peers");
        let graph = dsg_skipgraph::fixtures::perfectly_balanced(n);
        StaticSkipGraph { graph, n }
    }

    /// The underlying skip graph (for structural inspection in tests).
    pub fn graph(&self) -> &SkipGraph {
        &self.graph
    }

    /// The structure height (`⌈log₂ n⌉` by construction).
    pub fn height(&self) -> usize {
        self.graph.height()
    }
}

impl Baseline for StaticSkipGraph {
    fn name(&self) -> &'static str {
        "static-skip-graph"
    }

    fn peers(&self) -> u64 {
        self.n
    }

    fn serve(&mut self, u: u64, v: u64) -> usize {
        self.graph
            .distance(Key::new(u), Key::new(v))
            .expect("peers 0..n exist in the static graph")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_is_logarithmic() {
        let mut g = StaticSkipGraph::new(256);
        let bound = 3 * 8; // a generous a · log2(n)
        for i in 0..255u64 {
            let cost = g.serve(i, 255 - i.max(1));
            assert!(cost <= bound, "cost {cost} exceeds {bound}");
        }
        assert_eq!(g.height(), 8);
    }

    #[test]
    fn repeated_requests_do_not_get_cheaper() {
        let mut g = StaticSkipGraph::new(128);
        let first = g.serve(0, 127);
        for _ in 0..5 {
            assert_eq!(g.serve(0, 127), first, "a static structure never adapts");
        }
    }

    #[test]
    fn trace_cost_is_the_sum_of_request_costs() {
        let mut g = StaticSkipGraph::new(32);
        let trace: Vec<dsg::Request> = [(0u64, 31u64), (5, 9), (14, 2)]
            .into_iter()
            .map(dsg::Request::from)
            .collect();
        let total = g.serve_trace(&trace);
        let mut g2 = StaticSkipGraph::new(32);
        let manual: usize = trace.iter().map(|r| { let (u, v) = r.pair(); g2.serve(u, v) }).sum();
        assert_eq!(total, manual);
    }
}
