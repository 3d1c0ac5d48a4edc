//! The working-set lower-bound reference (Theorem 1).

use dsg_metrics::WorkingSetTracker;

use crate::Baseline;

/// Charges every request exactly `⌈log₂ T_i(σ_i)⌉` — its share of the
/// working-set bound `WS(σ)` that Theorem 1 proves no conforming
/// self-adjusting algorithm can beat (amortized). It is not an executable
/// overlay; it is the yardstick the other overlays are compared against.
#[derive(Debug, Clone)]
pub struct WorkingSetOracle {
    tracker: WorkingSetTracker,
    n: u64,
}

impl WorkingSetOracle {
    /// Creates the oracle for an `n`-peer network.
    pub fn new(n: u64) -> Self {
        WorkingSetOracle {
            tracker: WorkingSetTracker::new(n as usize),
            n,
        }
    }

    /// The exact (un-rounded) bound accumulated so far.
    pub fn bound(&self) -> f64 {
        self.tracker.bound()
    }
}

impl Baseline for WorkingSetOracle {
    fn name(&self) -> &'static str {
        "working-set-bound"
    }

    fn peers(&self) -> u64 {
        self.n
    }

    fn serve(&mut self, u: u64, v: u64) -> usize {
        let t = self.tracker.record(u, v);
        (t.max(2) as f64).log2().ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_pairs_cost_one() {
        let mut oracle = WorkingSetOracle::new(1024);
        let first = oracle.serve(1, 2);
        assert_eq!(first, 10); // log2(1024)
        for _ in 0..5 {
            assert_eq!(oracle.serve(1, 2), 1); // log2(2)
        }
        assert!(oracle.bound() > 10.0);
    }

    #[test]
    fn unrelated_traffic_keeps_pairs_cheap() {
        let mut oracle = WorkingSetOracle::new(64);
        oracle.serve(1, 2);
        for i in 10..30u64 {
            oracle.serve(i, i + 1);
        }
        assert_eq!(oracle.serve(1, 2), 1);
    }
}
