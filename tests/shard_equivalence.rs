//! Determinism tests for the parallel epoch plan stage (PR 5).
//!
//! `DsgSession` serves every epoch **plan-then-apply**: the Θ(n) cluster
//! planning (transformation vectors, AMF medians, diff derivation) and the
//! dummy-reconciliation detection scans are pure reads that fan out across
//! `shards(k)` scoped worker threads, while all mutation is applied by the
//! calling thread in submission order. These tests pin the safety claim:
//! **every shard count produces bit-for-bit the same session** — graphs
//! (membership vectors, list orders at every level), dummy populations
//! (keys *and* vectors), per-peer self-adjusting state, and every
//! per-request outcome and counter — over epoch-batched random scripts
//! with join/leave churn.
//!
//! The compared shard set is {1, 2, 4, 8}; set `DSG_SHARDS=<k>` to add an
//! extra count (the CI matrix runs the suite at 1 and 4 via this
//! override).

use proptest::prelude::*;

mod common;
use common::{assert_networks_agree, assert_outcomes_agree};

use dsg::prelude::*;

/// The compared shard counts: {1, 2, 4, 8}, plus an optional `DSG_SHARDS`
/// override so the CI matrix can pin an arbitrary count.
fn shard_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 4, 8];
    if let Ok(extra) = std::env::var("DSG_SHARDS") {
        if let Ok(extra) = extra.trim().parse::<usize>() {
            if extra >= 1 && !counts.contains(&extra) {
                counts.push(extra);
            }
        }
    }
    counts
}

fn session(n: u64, seed: u64, shards: usize) -> DsgSession {
    DsgSession::builder()
        .peers(0..n)
        .seed(seed)
        .shards(shards)
        .build()
        .expect("peer keys 0..n are distinct and shards >= 1")
}

/// Generates the mixed request script of one case: communicates with
/// sprinkled join/leave churn (same shape as `tests/dummy_reconcile.rs`).
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

    /// The headline determinism property: for random epoch-batched scripts
    /// with join/leave churn, every shard count produces bit-for-bit the
    /// same graphs, states, dummy populations, and batch outcomes.
    #[test]
    fn shard_counts_produce_identical_sessions(
        n in 8u64..40,
        seed in 0u64..300,
        raw in proptest::collection::vec((0u64..1000, 0u64..1000, 0u64..100), 1..28),
        chunk in 1usize..7,
    ) {
        let requests = script(n, &raw);
        if requests.is_empty() {
            return;
        }
        let counts = shard_counts();
        let mut sessions: Vec<DsgSession> =
            counts.iter().map(|&k| session(n, seed, k)).collect();
        for chunk in requests.chunks(chunk) {
            let baseline = sessions[0].submit_batch(chunk).unwrap();
            for (i, other) in sessions.iter_mut().enumerate().skip(1) {
                let outcome = other.submit_batch(chunk).unwrap();
                let label = format!("shards {} vs 1", counts[i]);
                assert_outcomes_agree(&label, &baseline, &outcome);
            }
        }
        for (i, other) in sessions.iter().enumerate().skip(1) {
            let label = format!("shards {} vs 1", counts[i]);
            assert_networks_agree(&label, sessions[0].engine(), other.engine());
            prop_assert_eq!(
                sessions[0].stats().counters.deterministic(),
                other.stats().counters.deterministic(),
                "{}: engine counters diverge", &label
            );
        }
    }
}

/// Plain-form pin of the acceptance criterion: a merged multi-pair epoch
/// (everything overlapping at the root) and a disjoint multi-cluster epoch
/// both produce identical sessions at shards ∈ {1, 2, 4, 8}, and the
/// plan-stage observables surface through the batch outcome.
#[test]
fn plan_stage_observables_and_determinism_pin() {
    let n = 64u64;
    // Overlapping epoch: (2i, 2i+1) pairs share the α = 0 root.
    let overlapping: Vec<Request> =
        (0..8).map(|i| Request::communicate(2 * i, 2 * i + 1)).collect();
    // Disjoint epoch: (i, i + n/2) pairs have pairwise-incomparable roots.
    let disjoint: Vec<Request> = (0..8)
        .map(|i| Request::communicate(3 * i + 1, 3 * i + 1 + n / 2))
        .collect();

    let mut merged_baseline: Option<DsgSession> = None;
    let mut disjoint_baseline: Option<DsgSession> = None;
    for k in [1usize, 2, 4, 8] {
        // Merged epoch on one session...
        let mut merged = session(n, 11, k);
        let first = merged.submit_batch(&overlapping).unwrap();
        assert_eq!(
            first.counters.clusters, 1,
            "α = 0 pairs merge into one cluster"
        );
        assert_eq!(first.counters.planned_clusters, 1);
        // ...and the disjoint epoch on a fresh balanced session, where the
        // (i, i + n/2) construction guarantees pairwise-incomparable roots.
        let mut split = session(n, 11, k);
        let second = split.submit_batch(&disjoint).unwrap();
        assert!(
            second.counters.clusters > 1,
            "disjoint pairs keep their clusters"
        );
        assert_eq!(second.counters.planned_clusters, second.counters.clusters);
        if k > 1 {
            assert!(
                second.counters.plan_shards > 1,
                "a multi-cluster epoch at shards={k} must fan out"
            );
        }
        match &merged_baseline {
            None => merged_baseline = Some(merged),
            Some(b) => assert_networks_agree(
                &format!("merged epoch, shards {k} vs 1"),
                b.engine(),
                merged.engine(),
            ),
        }
        match &disjoint_baseline {
            None => disjoint_baseline = Some(split),
            Some(b) => assert_networks_agree(
                &format!("disjoint epoch, shards {k} vs 1"),
                b.engine(),
                split.engine(),
            ),
        }
    }
}
