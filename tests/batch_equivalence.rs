//! Differential tests for the epoch-batched request pipeline:
//! `DsgSession::submit_batch` against an equivalent sequence of one-request
//! `submit` calls.
//!
//! The contract under test (documented on
//! [`DynamicSkipGraph::communicate_epoch`]): when the pairs of a batch have
//! pairwise-*disjoint* `l_α` subtrees, the batched epoch produces the SAME
//! final graph — membership vectors, list orders at every level, dummy
//! placement — and the same per-peer self-adjusting state (group-ids,
//! group-bases, timestamps, dominating flags) as serving the requests one
//! by one, while performing a **single** transformation-install pass where
//! the sequential replay performs `k`. Pairs with overlapping subtrees (or
//! shared endpoints) fall back to the documented deterministic tie-break,
//! for which the tests assert bit-for-bit reproducibility and structural
//! soundness instead of sequential equality.

use proptest::prelude::*;

use dsg::prelude::*;

mod common;
use common::assert_networks_agree;

fn session(n: u64, seed: u64) -> DsgSession {
    DsgSession::builder()
        .peers(0..n)
        .seed(seed)
        .build()
        .expect("peer keys 0..n are distinct")
}

/// Pairs `(i, i + n/2)` on a freshly *balanced* `n`-peer network differ
/// only in their top membership-vector bit, so each pair's `l_α` is a
/// two-member list at level `log₂(n) − 1` whose prefix is determined by
/// `i` — distinct `i`s give pairwise-incomparable prefixes, i.e. disjoint
/// subtrees by construction.
fn disjoint_pairs(n: u64, picks: &[u64]) -> Vec<Request> {
    let mut seen = std::collections::HashSet::new();
    picks
        .iter()
        .map(|pick| pick % (n / 2))
        .filter(|i| seen.insert(*i))
        .map(|i| Request::communicate(i, i + n / 2))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline equivalence: a batch of k ∈ 1..=8 subtree-disjoint
    /// pairs produces the same final graph and state as the k-sequential
    /// replay — with ONE install pass instead of k.
    #[test]
    fn disjoint_batches_equal_sequential_replay(
        n_exp in 4u32..7,           // n ∈ {16, 32, 64}
        seed in 0u64..200,
        picks in proptest::collection::vec(0u64..1000, 1..9),
    ) {
        let n = 1u64 << n_exp;
        let batch = disjoint_pairs(n, &picks);
        let k = batch.len();

        let mut batched = session(n, seed);
        let outcome = batched.submit_batch(&batch).unwrap();
        prop_assert_eq!(outcome.epochs, 1, "disjoint pairs share one epoch");
        prop_assert_eq!(outcome.counters.planned_clusters, k,
            "the one epoch must restructure every disjoint pair for k = {}", k);
        prop_assert_eq!(batched.epochs(), 1);

        let mut sequential = session(n, seed);
        for request in &batch {
            sequential.submit(*request).unwrap();
        }
        prop_assert_eq!(sequential.epochs(), k as u64);
        prop_assert_eq!(sequential.stats().counters.planned_clusters, k);

        // Same installed work, one pass instead of k.
        prop_assert_eq!(
            batched.stats().counters.touched_pairs,
            sequential.stats().counters.touched_pairs,
            "disjoint clusters must install exactly the sequential changes"
        );
        assert_networks_agree("batched vs sequential", batched.engine(), sequential.engine());
    }

    /// Arbitrary (possibly overlapping, endpoint-sharing) batches: the
    /// pipeline must be deterministic — two identical sessions replaying
    /// the same batch agree bit for bit — and every served pair must end
    /// up directly linked in a structurally sound graph.
    #[test]
    fn arbitrary_batches_are_deterministic_and_sound(
        n in 8u64..48,
        seed in 0u64..200,
        raw in proptest::collection::vec((0u64..1000, 0u64..1000), 1..24),
        batch_size in 1usize..9,
    ) {
        let batch: Vec<Request> = raw
            .iter()
            .filter_map(|&(a, b)| {
                let (u, v) = (a % n, b % n);
                (u != v).then(|| Request::communicate(u, v))
            })
            .collect();
        if batch.is_empty() {
            return;
        }

        let mut first = session(n, seed);
        let mut second = session(n, seed);
        for chunk in batch.chunks(batch_size) {
            let outcome_first = first.submit_batch(chunk).unwrap();
            let outcome_second = second.submit_batch(chunk).unwrap();
            prop_assert_eq!(outcome_first.epochs, outcome_second.epochs);
            prop_assert_eq!(
                outcome_first.counters.planned_clusters,
                outcome_second.counters.planned_clusters
            );
            // With the policy off every epoch restructures, installing
            // all its clusters in its one pass.
            prop_assert!(outcome_first.epochs <= outcome_first.counters.planned_clusters);
            // The last pair of the chunk is directly linked afterwards (an
            // earlier pair's link may legitimately be recycled by a later
            // overlapping transformation in the same chunk).
            let (u, v) = chunk.last().unwrap().pair();
            prop_assert!(first.engine().are_directly_linked(u, v).unwrap(),
                "pair ({u}, {v}) not directly linked after its epoch");
        }
        assert_networks_agree("replay twins", first.engine(), second.engine());
    }
}

/// One pass per epoch in plain (non-property) form: a batch of k disjoint
/// pairs restructures all k clusters in one epoch, so one
/// transformation-install pass regardless of k, and the sequential replay
/// takes k epochs.
#[test]
fn install_pass_counter_proves_one_pass_per_epoch() {
    let n = 64u64;
    for k in [1usize, 2, 4, 8] {
        let picks: Vec<u64> = (0..k as u64).map(|i| i * 3 + 1).collect();
        let batch = disjoint_pairs(n, &picks);
        assert_eq!(batch.len(), k);

        let mut batched = session(n, 9);
        let outcome = batched.submit_batch(&batch).unwrap();
        assert_eq!(outcome.epochs, 1);
        assert_eq!(outcome.counters.planned_clusters, k, "k = {k}");
        assert_eq!(batched.epochs(), 1, "k = {k}");

        let mut sequential = session(n, 9);
        for request in &batch {
            sequential.submit(*request).unwrap();
        }
        assert_eq!(sequential.epochs(), k as u64);
        assert_eq!(sequential.stats().counters.planned_clusters, k);
        assert_networks_agree("batched vs sequential", batched.engine(), sequential.engine());
    }
}

/// Overlapping pairs (all α = 0 under uniform keys) merge into one cluster
/// and still leave every pair directly linked with one install pass.
#[test]
fn overlapping_pairs_merge_into_one_cluster() {
    let n = 64u64;
    let mut batched = session(n, 31);
    // Endpoint-disjoint pairs chosen so their α = 0 subtrees collide (the
    // balanced construction gives (2i, 2i+1) differing in their lowest
    // rank bit, hence α = 0 — the root list).
    let batch: Vec<Request> = (0..8).map(|i| Request::communicate(2 * i, 2 * i + 1)).collect();
    let outcome = batched.submit_batch(&batch).unwrap();
    assert_eq!(outcome.epochs, 1);
    assert_eq!(
        outcome.counters.clusters, 1,
        "α = 0 pairs share the root cluster"
    );
    assert_eq!(outcome.counters.planned_clusters, 1);
    for request in &batch {
        let (u, v) = request.pair();
        assert!(
            batched.engine().are_directly_linked(u, v).unwrap(),
            "pair ({u}, {v}) not directly linked after the merged epoch"
        );
    }
    batched.engine().validate().unwrap();
}
