//! Property-based tests over the core invariants of the reproduction:
//! whatever the (valid) request sequence, the structure stays a well-formed,
//! bounded-height, a-balanceable skip graph; working-set accounting stays
//! within its definitional bounds; and the AMF median respects Lemma 1.

use proptest::prelude::*;

use dsg::prelude::*;
use dsg::{AmfMedian, ExactMedian, MedianFinder, Priority};
use dsg_metrics::WorkingSetTracker;
use dsg_skipgraph::{Key, SkipGraph};

/// A strategy producing a small network size and a request sequence over it.
fn network_and_trace() -> impl Strategy<Value = (u64, Vec<(u64, u64)>)> {
    (8u64..40).prop_flat_map(|n| {
        let requests = proptest::collection::vec((0..n, 0..n), 1..60)
            .prop_map(move |pairs| {
                pairs
                    .into_iter()
                    .map(|(u, v)| if u == v { (u, (v + 1) % n) } else { (u, v) })
                    .collect::<Vec<_>>()
            });
        (Just(n), requests)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Serving any request sequence keeps the skip graph structurally valid,
    /// keeps every pair mutually reachable, and keeps the height within the
    /// O(log n) family bound.
    #[test]
    fn dsg_structure_stays_valid_under_arbitrary_traffic((n, trace) in network_and_trace()) {
        let mut session = DsgSession::builder().peers(0..n).seed(99).build().unwrap();
        let net = session.engine_mut();
        for &(u, v) in &trace {
            net.communicate(u, v).unwrap();
        }
        net.validate().unwrap();
        let log_n = (n as f64).log2();
        prop_assert!((net.height() as f64) <= 4.0 * log_n + 6.0,
            "height {} too large for n = {n}", net.height());
        // Spot-check reachability between a few pairs.
        for &(u, v) in trace.iter().take(5) {
            prop_assert!(net.peer_distance(u, v).unwrap() < n as usize);
        }
    }

    /// The direct-link postcondition of the self-adjusting model: after any
    /// request the communicating pair is adjacent (up to dummy nodes).
    #[test]
    fn every_request_ends_directly_linked((n, trace) in network_and_trace()) {
        let mut session = DsgSession::builder().peers(0..n).seed(7).build().unwrap();
        let net = session.engine_mut();
        for &(u, v) in &trace {
            net.communicate(u, v).unwrap();
            prop_assert!(net.are_directly_linked(u, v).unwrap(),
                "pair ({u}, {v}) not directly linked after its own request");
        }
    }

    /// Working set numbers always lie in [2, n] for repeat pairs and equal n
    /// for first-time pairs; the bound is monotone in the trace length.
    #[test]
    fn working_set_numbers_stay_in_range((n, trace) in network_and_trace()) {
        let mut tracker = WorkingSetTracker::new(n as usize);
        let mut seen = std::collections::HashSet::new();
        let mut previous_bound = 0.0f64;
        for &(u, v) in &trace {
            let pair = if u <= v { (u, v) } else { (v, u) };
            let t = tracker.record(u, v);
            if seen.insert(pair) {
                prop_assert_eq!(t, n as usize);
            } else {
                prop_assert!(t >= 2 && t <= n as usize);
            }
            prop_assert!(tracker.bound() >= previous_bound);
            previous_bound = tracker.bound();
        }
    }

    /// Lemma 1: the AMF output's rank error is within n/(2a) (plus one for
    /// rounding), for arbitrary value multisets.
    #[test]
    fn amf_median_respects_lemma_1(
        values in proptest::collection::vec(-1_000_000i64..1_000_000, 10..400),
        a in 2usize..6,
        seed in 0u64..1000,
    ) {
        let priorities: Vec<Priority> = values.iter().map(|&v| Priority::finite(v as i128)).collect();
        let mut finder = AmfMedian::new(seed);
        let outcome = finder.find_median(&priorities, a);
        let n = priorities.len();
        let below = priorities.iter().filter(|p| **p < outcome.median).count();
        let equal = priorities.iter().filter(|p| **p == outcome.median).count();
        let target = n / 2;
        let error = if target < below {
            below - target
        } else if target > below + equal.saturating_sub(1) {
            target - (below + equal - 1)
        } else {
            0
        };
        prop_assert!(error <= n / (2 * a) + 1,
            "rank error {error} exceeds n/2a for n = {n}, a = {a}");
    }

    /// The exact-median oracle always returns an element of the input whose
    /// rank is the upper median.
    #[test]
    fn exact_median_is_an_upper_median(values in proptest::collection::vec(-500i64..500, 1..50)) {
        let priorities: Vec<Priority> = values.iter().map(|&v| Priority::finite(v as i128)).collect();
        let mut finder = ExactMedian;
        let outcome = finder.find_median(&priorities, 3);
        let mut sorted = priorities.clone();
        sorted.sort();
        prop_assert_eq!(outcome.median, sorted[sorted.len() / 2]);
    }

    /// Random skip graphs constructed through the public API always validate
    /// and route between every sampled pair within the a·log n family bound.
    #[test]
    fn random_skip_graphs_route_all_sampled_pairs(n in 4u64..120, seed in 0u64..500) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let graph = SkipGraph::random((0..n).map(Key::new), &mut rng).unwrap();
        graph.validate().unwrap();
        let log_n = (n.max(2) as f64).log2();
        for step in 1..5u64 {
            let u = (step * 7) % n;
            let v = (step * 13 + 1) % n;
            if u == v { continue; }
            let route = graph.route(Key::new(u), Key::new(v)).unwrap();
            prop_assert!((route.hops() as f64) <= 8.0 * log_n + 4.0);
        }
    }
}
