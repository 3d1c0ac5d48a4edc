//! The paper's claims, checked on fixed seeds.
//!
//! Each claim has a tier-1 leg small enough for the debug suite and an
//! `#[ignore]`d leg at the sizes and seeds the claim was first measured
//! at, which CI runs in release:
//! `cargo test --release --test paper_claims -- --ignored`. Every
//! tolerance is explicit; where one is looser than the paper's bound, the
//! gap is stated beside the assertion.
//!
//! | claim | checked by |
//! |---|---|
//! | E1: routing in a random skip graph is `O(log n)`; Figure 1's lists | `routing_is_logarithmic_in_n*`; `dsg_skipgraph`'s `figure1_lists_match_the_paper` |
//! | E2: working set numbers (Figures 2–3) | `dsg_metrics`'s `figure2_sequence_yields_five`; the workload shape in `localised_workloads_have_small_working_sets*` |
//! | E3: the S₈ → S₉ worked example (Figure 4) | `tests/figure4.rs` |
//! | E4: AMF rank error within `n/2a` (Lemma 1) | `dsg::amf`'s `amf_rank_error_respects_lemma_1*` |
//! | E5: AMF takes `O(log n)` rounds (§V) | `dsg::amf`'s `amf_rounds_are_logarithmic*` |
//! | E7: the working set property (Theorem 2) | `distance_is_logarithmic_in_the_working_set*` |
//! | E8: routing cost within a constant of `WS(σ)` (Theorems 1, 4) | `costs_track_the_working_set_bound*` |
//! | E9: transformation rounds within `O(log n)` of `WS(σ)` (Theorems 3, 5) | `costs_track_the_working_set_bound*` |
//!
//! The E4/E5 release legs run with
//! `cargo test --release -p dsg --lib amf -- --ignored`.
//!
//! # Deviations from the paper
//!
//! Three claims do not hold on this implementation at their measured
//! seeds, so they are recorded here and not asserted (a loosened bound
//! would only hide them). ROADMAP.md items 3 and 7 own them.
//!
//! * **E6, Lemmas 4 and 5.** With `a = 3`, 800 requests, engine seed 4
//!   (Zipf α = 1.2 and uniform traces, workload seed 3), the level of the
//!   direct link exceeds Lemma 4's `log_{2a/(a+1)} n` in 5 of 6 rows and
//!   the height exceeds Lemma 5's `log_{3/2} n` in all 6:
//!
//!   | n | workload | max link level | Lemma 4 | max height | Lemma 5 |
//!   |---|---|---|---|---|---|
//!   | 128 | Zipf 1.2 | 15 | 11.97 | 17 | 11.97 |
//!   | 128 | uniform | 13 | 11.97 | 16 | 11.97 |
//!   | 256 | Zipf 1.2 | 16 | 13.68 | 17 | 13.68 |
//!   | 256 | uniform | 13 | 13.68 | 16 | 13.68 |
//!   | 512 | Zipf 1.2 | 16 | 15.39 | 18 | 15.39 |
//!   | 512 | uniform | 16 | 15.39 | 18 | 15.39 |
//!
//!   The dummy nodes the a-balance repair places take levels of their
//!   own; the lemmas count peers only.
//! * **E8, DSG against the static skip graph (Theorems 1 and 4).** Under
//!   Zipf traffic (8 requests per peer, workload seed 31, engine seed 2)
//!   the average routing cost of DSG is 1.06–2.78 times that of a static
//!   skip graph over the same keys, except 0.97 at n = 128, α = 2; the
//!   ratio does not fall monotonically with skew at n = 256 (2.17 at
//!   α = 1, 2.19 at α = 1.5). The static graph's key order is the
//!   workloads' rank order, and DSG pays dummy-node hops.
//! * **E10, a-balance after every transformation (§IV-F).** At n = 256,
//!   1000 requests, engine seed 3 and `a ∈ {2, 3, 4, 6}`, a Zipf 1.2 and a
//!   rotating hot-set trace (workload seed 5) leave the structure
//!   unbalanced after some request in all 8 rows, and the live dummy
//!   population peaks at up to 13.0 · n (`a = 2`, Zipf). ROADMAP.md item 3
//!   has the diagnosis.

use dsg::prelude::*;
use dsg_metrics::{working_set_bound, working_set_numbers, WorkingSetTracker};
use dsg_repro::replay::run_dsg;
use dsg_skipgraph::{fixtures, Key, SkipGraph};
use dsg_workloads::{RepeatedPairs, RotatingHotSet, UniformRandom, Workload, ZipfPairs};

// ---------------------------------------------------------------------------
// E1: routing in a skip graph with random membership vectors
// ---------------------------------------------------------------------------

/// The worst hop count over a grid of sampled key pairs of `graph`,
/// divided by `log2 n`.
fn worst_hops_per_log_n(graph: &SkipGraph) -> f64 {
    let keys: Vec<Key> = graph.keys().collect();
    let mut worst = 0usize;
    for i in (0..keys.len()).step_by(7.max(keys.len() / 40)) {
        for j in (0..keys.len()).step_by(11.max(keys.len() / 40)) {
            if i != j {
                worst = worst.max(graph.route(keys[i], keys[j]).unwrap().hops());
            }
        }
    }
    worst as f64 / (graph.len() as f64).log2()
}

fn assert_routing_is_logarithmic(sizes: &[u64]) {
    for &n in sizes {
        let ratio = worst_hops_per_log_n(&fixtures::uniform_random(n, 42));
        // Routing in a random skip graph takes O(log n) hops with high
        // probability; the paper states no constant. 2.1 is the worst
        // measured at these seeds (n = 1024).
        assert!(ratio <= 2.1, "n = {n}: worst hops / log2 n = {ratio:.2}");
    }
}

#[test]
fn routing_is_logarithmic_in_n() {
    assert_routing_is_logarithmic(&[64, 256]);
}

#[test]
#[ignore = "experiment scale; run with --release -- --ignored"]
fn routing_is_logarithmic_in_n_at_full_scale() {
    assert_routing_is_logarithmic(&[64, 256, 1024]);
}

// ---------------------------------------------------------------------------
// E2: working set numbers of localised and uniform workloads
// ---------------------------------------------------------------------------

fn mean(values: &[usize]) -> f64 {
    values.iter().sum::<usize>() as f64 / values.len().max(1) as f64
}

fn assert_localised_workloads_have_small_working_sets(n: u64, m: usize, pair: (u64, u64)) {
    let traces = [
        RepeatedPairs::single(n, pair.0, pair.1).generate(m),
        RotatingHotSet::new(n, 8, 0.9, 100, 5).generate(m),
        ZipfPairs::new(n, 1.2, 5).generate(m),
        UniformRandom::new(n, 5).generate(m),
    ]
    .map(|trace| {
        trace
            .iter()
            .filter_map(|r| r.endpoints())
            .collect::<Vec<_>>()
    });
    let [single, hot, _, uniform] = traces
        .each_ref()
        .map(|t| working_set_numbers(n as usize, t));

    // A single repeated pair: every repeat sees only its two endpoints.
    assert!(
        single[1..].iter().all(|&t| t == 2),
        "single pair: {single:?}"
    );
    // A hot set of 8 peers: a repeat's working set stays within the set's
    // size (numbers below n are the repeats).
    let hot_repeats: Vec<usize> = hot.into_iter().filter(|&t| t < n as usize).collect();
    let hot_mean = mean(&hot_repeats);
    assert!(hot_mean <= 8.0, "hot set repeat mean {hot_mean:.2}");
    // Uniform traffic stays Θ(n).
    let uniform_mean = mean(&uniform);
    assert!(
        uniform_mean >= 0.75 * n as f64,
        "uniform mean T_i {uniform_mean:.2} at n = {n}"
    );
    // Locality orders the working-set bound: single pair, hot set, Zipf,
    // uniform.
    let bounds = traces.each_ref().map(|t| working_set_bound(n as usize, t));
    assert!(bounds.windows(2).all(|w| w[0] < w[1]), "WS(σ): {bounds:?}");
}

#[test]
fn localised_workloads_have_small_working_sets() {
    assert_localised_workloads_have_small_working_sets(64, 600, (1, 50));
}

#[test]
#[ignore = "experiment scale; run with --release -- --ignored"]
fn localised_workloads_have_small_working_sets_at_full_scale() {
    assert_localised_workloads_have_small_working_sets(256, 3000, (1, 200));
}

// ---------------------------------------------------------------------------
// E7: the working set property (Theorem 2)
// ---------------------------------------------------------------------------

/// Replays `trace` request by request on an `n`-peer engine (seed 6) and
/// returns the worst `d / log2 T` over the requests that repeat a pair,
/// `d` being the pair's distance just before the request.
fn worst_distance_per_log_working_set(n: u64, trace: &[Request]) -> f64 {
    let mut session = DsgSession::builder().peers(0..n).seed(6).build().unwrap();
    let net = session.engine_mut();
    let mut tracker = WorkingSetTracker::new(n as usize);
    let mut worst = 0.0f64;
    for request in trace {
        let (u, v) = request.pair();
        let ws = tracker.record(u, v);
        let distance = net.peer_distance(u, v).unwrap() as f64;
        net.communicate(u, v).unwrap();
        if ws < n as usize {
            worst = worst.max(distance / (ws.max(2) as f64).log2());
        }
    }
    worst
}

fn assert_working_set_property(n: u64, requests: usize, repeated: Vec<(u64, u64)>) {
    let a = DsgConfig::default().a as f64;
    // Theorem 2 bounds a repeat request's distance by O(log T), with the
    // balance parameter a as the constant, up to the hops dummy nodes add.
    // The check allows 2a · log2 T, twice the paper's factor: the measured
    // worst (Zipf, n = 256) is exactly 2a. Disjoint pairs replayed round
    // robin have T = 2 and stay directly linked between their requests, as
    // Algorithm 1 leaves them: distance 0.
    for (name, trace, bound) in [
        (
            "repeated pairs",
            RepeatedPairs::new(n, repeated).generate(requests),
            0.0,
        ),
        (
            "hot set",
            RotatingHotSet::new(n, 8, 0.9, 120, 9).generate(requests),
            2.0 * a,
        ),
        (
            "zipf 1.2",
            ZipfPairs::new(n, 1.2, 9).generate(requests),
            2.0 * a,
        ),
    ] {
        let worst = worst_distance_per_log_working_set(n, &trace);
        assert!(
            worst <= bound,
            "{name}, n = {n}: worst d / log2 T = {worst:.2}"
        );
    }
}

#[test]
fn distance_is_logarithmic_in_the_working_set() {
    assert_working_set_property(64, 400, vec![(1, 50), (10, 11), (22, 43)]);
}

#[test]
#[ignore = "experiment scale; run with --release -- --ignored"]
fn distance_is_logarithmic_in_the_working_set_at_full_scale() {
    assert_working_set_property(256, 1500, vec![(1, 200), (40, 41), (90, 171)]);
}

// ---------------------------------------------------------------------------
// E8/E9: routing and transformation cost against the working-set bound
// ---------------------------------------------------------------------------

fn assert_costs_track_the_working_set_bound(sizes: &[u64], requests_per_peer: usize) {
    for &n in sizes {
        let m = requests_per_peer * n as usize;
        for alpha in [0.0f64, 0.5, 1.0, 1.5, 2.0] {
            let trace = ZipfPairs::new(n, alpha, 31).generate(m);
            let run = run_dsg(n, DsgConfig::default().with_seed(2), &trace);
            let ws = run.working_set_bound();
            // Theorems 1 and 4: the total routing cost is within a constant
            // factor of WS(σ). The paper gives no constant; measured
            // DSG / WS is 0.55–0.91 at n ∈ {128, 256}.
            let routing = run.total_routing() as f64 / ws;
            assert!(
                routing <= 1.0,
                "n = {n}, α = {alpha}: DSG / WS = {routing:.2}"
            );
            // Theorems 3 and 5: the transformation rounds are within a
            // log n factor of WS(σ). The paper gives no constant; measured
            // rounds / (WS · log2 n) is 6.85–12.41 at n ∈ {128, 256}.
            let rounds = run.total_transformation() as f64 / (ws * (n as f64).log2());
            assert!(
                rounds <= 13.0,
                "n = {n}, α = {alpha}: rounds / (WS · log2 n) = {rounds:.2}"
            );
        }
    }
}

#[test]
fn costs_track_the_working_set_bound() {
    assert_costs_track_the_working_set_bound(&[32, 64], 8);
}

#[test]
#[ignore = "experiment scale; run with --release -- --ignored"]
fn costs_track_the_working_set_bound_at_full_scale() {
    assert_costs_track_the_working_set_bound(&[128, 256], 8);
}
