//! Differential and behavioral tests for the adaptation policy (PR 8).
//!
//! The subsystem under test: a count-min frequency sketch plus a
//! TinyLFU-style admission gate that decides, per cluster, whether an
//! epoch restructures eagerly or routes without restructuring. Three
//! claims are pinned here:
//!
//! 1. **Off is really off.** With the default [`PolicyConfig`]
//!    (`AdaptPolicy::Always`) the engine is bit-for-bit identical to one
//!    built without mentioning the policy at all — graphs, per-peer
//!    state, dummy populations, outcomes, and counters — over random
//!    epoch-batched scripts with join/leave churn.
//! 2. **The gate is deterministic.** Two gated sessions fed the same
//!    script agree bit for bit, sketch included, because sketch updates
//!    and admission run at one fixed point per epoch (after routing,
//!    before planning).
//! 3. **The gate does what it says.** Cold traffic routes without
//!    restructuring (zero touched pairs, no direct link), repetition
//!    crosses the admission threshold, the per-epoch budget admits cold
//!    clusters, aging halves the counters on schedule, and the counters
//!    agree at every layer: `BatchOutcome`, `RunStats`, `MetricsObserver`
//!    and the service's `ServiceMetrics`.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

mod common;
use common::{assert_networks_agree, assert_outcomes_agree};

use dsg::prelude::*;
use dsg_metrics::MetricsObserver;

fn gated_session(n: u64, seed: u64, policy: PolicyConfig) -> DsgSession {
    DsgSession::builder()
        .peers(0..n)
        .seed(seed)
        .policy(policy)
        .build()
        .expect("peer keys 0..n are distinct")
}

/// Generates the mixed request script of one case: communicates with
/// sprinkled join/leave churn.
fn script(n: u64, raw: &[(u64, u64, u64)]) -> Vec<Request> {
    let mut joined: u64 = 0;
    raw.iter()
        .filter_map(|&(x, y, op)| match op {
            0..=7 => {
                joined += 1;
                Some(Request::Join(1000 + joined))
            }
            8..=12 if joined > 0 => {
                let gone = Request::Leave(1000 + joined);
                joined -= 1;
                Some(gone)
            }
            _ => {
                let (u, v) = (x % n, y % n);
                (u != v).then(|| Request::communicate(u, v))
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Claim 1: `AdaptPolicy::Always` (the default) is bit-identical to a
    /// session that never mentions the policy — the gate code path adds
    /// nothing when off.
    #[test]
    fn policy_off_is_bit_identical_to_the_plain_engine(
        n in 8u64..40,
        seed in 0u64..300,
        raw in proptest::collection::vec((0u64..1000, 0u64..1000, 0u64..100), 1..28),
        chunk in 1usize..7,
    ) {
        let requests = script(n, &raw);
        if requests.is_empty() {
            return;
        }
        let mut plain = DsgSession::builder().peers(0..n).seed(seed).build().unwrap();
        let mut explicit = gated_session(n, seed, PolicyConfig::default());
        for chunk in requests.chunks(chunk) {
            let baseline = plain.submit_batch(chunk).unwrap();
            let outcome = explicit.submit_batch(chunk).unwrap();
            assert_outcomes_agree("explicit Always vs default", &baseline, &outcome);
            prop_assert_eq!(outcome.counters.pairs_gated, 0, "the gate must not fire when off");
        }
        assert_networks_agree("explicit Always vs default", plain.engine(), explicit.engine());
        // Full stats equality, the execution fields excluded.
        let mut a = *plain.stats();
        let mut b = *explicit.stats();
        a.counters = a.counters.deterministic();
        b.counters = b.counters.deterministic();
        prop_assert_eq!(a, b);
    }

    /// Claim 2: a gated session is bit-for-bit reproducible: same seed, same
    /// script, same policy twice over — sketch estimates included.
    #[test]
    fn gated_sessions_are_reproducible(
        n in 8u64..32,
        seed in 0u64..200,
        raw in proptest::collection::vec((0u64..1000, 0u64..1000, 0u64..100), 1..20),
    ) {
        let requests = script(n, &raw);
        if requests.is_empty() {
            return;
        }
        let policy = PolicyConfig::gated().with_aging_period(32);
        let mut a = gated_session(n, seed, policy);
        let mut b = gated_session(n, seed, policy);
        let oa = a.submit_batch(&requests).unwrap();
        let ob = b.submit_batch(&requests).unwrap();
        assert_outcomes_agree("gated twin", &oa, &ob);
        assert_networks_agree("gated twin", a.engine(), b.engine());
        prop_assert_eq!(
            a.engine().capture_image(),
            b.engine().capture_image(),
            "engine images (sketch included) diverge"
        );
    }
}

// ---------------------------------------------------------------------
// Behavioral pins: the three verdicts, aging, and the observer hook
// ---------------------------------------------------------------------

/// Cold traffic under a strict gate (budget 0) routes without
/// restructuring: nothing is planned, nothing is touched, no direct link
/// is created, and the structure is untouched.
#[test]
fn cold_traffic_routes_without_restructuring() {
    let n = 64u64;
    let mut gated = gated_session(n, 7, PolicyConfig::gated());
    let reference = DsgSession::builder().peers(0..n).seed(7).build().unwrap();
    let baseline = reference.engine().capture_image();

    // Distinct pairs with real skip-list distance (odd/even endpoints
    // diverge at level 0): each seen once, so every estimate is 1 and the
    // threshold (2) admits nothing.
    let requests: Vec<Request> = (0..8u64)
        .map(|i| Request::communicate(8 * i + 1, 8 * i + 6))
        .collect();
    let outcome = gated.submit_batch(&requests).unwrap();

    assert_eq!(outcome.counters.pairs_gated, 8, "every cold pair is gated");
    assert_eq!(outcome.counters.restructures_budgeted, 0);
    assert_eq!(
        outcome.counters.touched_pairs, 0,
        "gated epochs install nothing"
    );
    assert!(
        outcome.counters.clusters >= 1,
        "gated clusters still counted"
    );
    assert_eq!(
        outcome.counters.planned_clusters, 0,
        "gated clusters are never planned"
    );
    for o in &outcome.outcomes {
        let o = o.request_outcome().expect("all requests are communicates");
        assert!(o.routing_cost > 0, "gated requests still route");
        assert_eq!(o.touched_pairs, 0);
        assert_eq!(o.dummies_inserted, 0);
    }
    assert!(
        !gated.engine().are_directly_linked(1, 6).unwrap(),
        "a gated pair must not get a direct link"
    );
    // The graph itself is exactly the freshly-built one: only the clock,
    // the sketch, and the (intentionally different) policy config moved.
    let mut after = gated.engine().capture_image();
    assert!(after.sketch.is_some(), "the gated engine carries a sketch");
    after.sketch = None;
    assert_eq!(after.time, baseline.time + 8);
    after.time = baseline.time;
    after.config.policy = baseline.config.policy;
    assert_eq!(
        after, baseline,
        "gated traffic must leave the graph untouched"
    );
}

/// Repetition crosses the threshold: the second occurrence of a pair is
/// admitted and restructures (sequential submits, one pair per epoch).
#[test]
fn repeated_pairs_become_hot_and_restructure() {
    let mut session = gated_session(64, 9, PolicyConfig::gated());
    let first = session.submit(Request::communicate(5, 40)).unwrap();
    assert_eq!(
        session.stats().counters.pairs_gated,
        1,
        "first sighting is cold"
    );
    assert_eq!(first.request_outcome().unwrap().touched_pairs, 0);

    let second = session.submit(Request::communicate(5, 40)).unwrap();
    assert_eq!(
        session.stats().counters.pairs_gated,
        1,
        "second sighting is hot"
    );
    assert!(
        second.request_outcome().unwrap().touched_pairs > 0,
        "the hot pair restructures"
    );
    assert!(session.engine().are_directly_linked(5, 40).unwrap());
}

/// The per-epoch budget admits cold clusters even below the threshold —
/// exactly `epoch_budget` of them per epoch.
#[test]
fn epoch_budget_admits_cold_clusters() {
    let n = 64u64;
    // Threshold high enough that nothing is ever hot; budget of 1.
    let policy = PolicyConfig::gated()
        .with_threshold(u32::MAX)
        .with_epoch_budget(1);
    let mut session = gated_session(n, 13, policy);
    // One epoch, two disjoint clusters (the pairs diverge at level 2, in
    // different level-2 subtrees), each needing real restructuring:
    // exactly one is budgeted in, the other routes gated.
    let requests = vec![Request::communicate(0, 20), Request::communicate(3, 31)];
    let outcome = session.submit_batch(&requests).unwrap();
    assert_eq!(outcome.epochs, 1);
    assert_eq!(
        outcome.counters.clusters, 2,
        "the pairs form disjoint clusters"
    );
    assert_eq!(
        outcome.counters.planned_clusters, 1,
        "only the budgeted cluster plans"
    );
    assert_eq!(
        outcome.counters.restructures_budgeted, 1,
        "one budget slot per epoch"
    );
    assert_eq!(
        outcome.counters.pairs_gated, 1,
        "the other cluster is gated"
    );
    assert!(
        outcome.counters.touched_pairs > 0,
        "the budgeted cluster restructured"
    );
}

/// Aging runs on schedule and surfaces in the counters: with a tiny
/// aging period, a burst of requests produces halving passes.
#[test]
fn sketch_aging_surfaces_in_stats() {
    let policy = PolicyConfig::gated().with_aging_period(16);
    let mut session = gated_session(64, 17, policy);
    for i in 0..32u64 {
        session
            .submit(Request::communicate(i % 8, (i % 8) + 32))
            .unwrap();
    }
    assert!(
        session.stats().counters.sketch_aging_passes >= 2,
        "32 requests at aging period 16 must age at least twice, got {}",
        session.stats().counters.sketch_aging_passes
    );
}

/// A fixed gated trace with joins, leaves, a tick and one brownout chunk:
/// cold one-shot pairs (gated, or browned out under the brownout verdict),
/// repeated pairs that turn hot and restructure, and a tiny aging period.
fn layered_trace() -> Vec<Vec<Request>> {
    let cold = |i: u64| Request::communicate(2 * i, 2 * i + 33);
    vec![
        (0..4).map(cold).collect(),
        // Served under brownout: cold pairs are browned out, not gated.
        (4..8).map(cold).collect(),
        vec![
            Request::communicate(5, 40),
            Request::Join(100),
            Request::communicate(5, 40),
            Request::communicate(100, 7),
        ],
        vec![
            Request::communicate(100, 7),
            Request::Tick(10_000),
            Request::communicate(5, 40),
            Request::Leave(100),
        ],
        (8..14).map(cold).collect(),
    ]
}

/// The chunk of [`layered_trace`] served under a brownout verdict.
const BROWNOUT_CHUNK: usize = 1;

fn layered_session() -> (DsgSession, Arc<Mutex<MetricsObserver>>) {
    let mut session = gated_session(64, 21, PolicyConfig::gated().with_aging_period(8));
    let metrics = session.observe(MetricsObserver::new());
    (session, metrics)
}

/// The counters agree at every layer, compared whole with the execution
/// fields cleared. Session leg: the engine's `RunStats`, the sum of the
/// returned `BatchOutcome`s and a `MetricsObserver`. Service leg: the
/// service's `ServiceMetrics`, the returned session's `RunStats` and its
/// `MetricsObserver`.
#[test]
fn gate_counters_flow_through_the_metrics_observer() {
    let (mut session, metrics) = layered_session();
    let mut summed = EpochCounters::default();
    for (i, chunk) in layered_trace().iter().enumerate() {
        let batch = session
            .submit_batch_degraded(chunk, i == BROWNOUT_CHUNK)
            .unwrap();
        summed += batch.counters;
    }
    let engine = session.stats().counters.deterministic();
    assert_eq!(summed.deterministic(), engine, "batch outcomes vs engine");
    let observed = metrics.lock().unwrap().counters.deterministic();
    assert_eq!(observed, engine, "observer vs engine");
    assert!(engine.pairs_gated > 0, "cold one-shot pairs must be gated");
    assert!(
        engine.pairs_browned_out > 0,
        "the brownout chunk must route"
    );
    assert!(engine.sketch_aging_passes > 0, "the tiny period must age");
    assert!(engine.touched_pairs > 0, "repeated pairs must restructure");

    let (session, metrics) = layered_session();
    let mut service = DsgService::spawn(session, ServiceConfig::default()).unwrap();
    for request in layered_trace().into_iter().flatten() {
        service.submit(request).unwrap().wait().unwrap();
    }
    let done = service.shutdown().unwrap();
    let engine = done.session.stats().counters.deterministic();
    assert_eq!(
        done.metrics.counters.deterministic(),
        engine,
        "service metrics vs engine"
    );
    let observed = metrics.lock().unwrap().counters.deterministic();
    assert_eq!(observed, engine, "observer vs engine");
    assert!(engine.pairs_gated > 0 && engine.touched_pairs > 0);
}
