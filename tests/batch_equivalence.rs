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
use dsg_skipgraph::Key;

/// Asserts that two engines are observably identical — structure, dummy
/// placement, and the full per-peer self-adjusting state.
fn assert_networks_agree(batched: &DynamicSkipGraph, sequential: &DynamicSkipGraph) {
    batched.validate().expect("batched network is structurally sound");
    sequential
        .validate()
        .expect("sequential network is structurally sound");
    assert_eq!(batched.height(), sequential.height(), "heights diverge");
    assert_eq!(
        batched.dummy_count(),
        sequential.dummy_count(),
        "dummy populations diverge"
    );
    let ga = batched.graph();
    let gb = sequential.graph();
    let keys_a: Vec<Key> = ga.keys().collect();
    let keys_b: Vec<Key> = gb.keys().collect();
    assert_eq!(keys_a, keys_b, "node (and dummy) key sets diverge");
    for &key in &keys_a {
        let ia = ga.node_by_key(key).expect("key just listed");
        let ib = gb.node_by_key(key).expect("key sets agree");
        assert_eq!(
            ga.node(ia).expect("live").is_dummy(),
            gb.node(ib).expect("live").is_dummy(),
            "dummy flag diverges for key {key}"
        );
        let mvec = ga.mvec_of(ia).expect("live");
        assert_eq!(
            mvec,
            gb.mvec_of(ib).expect("live"),
            "membership vector diverges for key {key}"
        );
        for level in 0..=mvec.len() + 1 {
            let list_a: Vec<u64> = ga
                .list_of_iter(ia, level)
                .expect("live")
                .map(|id| ga.key_of(id).expect("live").value())
                .collect();
            let list_b: Vec<u64> = gb
                .list_of_iter(ib, level)
                .expect("live")
                .map(|id| gb.key_of(id).expect("live").value())
                .collect();
            assert_eq!(
                list_a, list_b,
                "list order diverges at level {level} for key {key}"
            );
        }
    }
    for peer in batched.peers() {
        assert_eq!(
            batched.peer_state(peer).expect("peer exists"),
            sequential.peer_state(peer).expect("peer exists"),
            "self-adjusting state diverges for peer {peer}"
        );
    }
}

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
        prop_assert_eq!(outcome.counters.install_passes, 1,
            "one epoch must perform exactly one install pass for k = {}", k);
        prop_assert_eq!(batched.stats().counters.install_passes, 1);

        let mut sequential = session(n, seed);
        for request in &batch {
            sequential.submit(*request).unwrap();
        }
        prop_assert_eq!(sequential.stats().counters.install_passes, k);

        // Same installed work, one pass instead of k.
        prop_assert_eq!(
            batched.stats().counters.touched_pairs,
            sequential.stats().counters.touched_pairs,
            "disjoint clusters must install exactly the sequential changes"
        );
        assert_networks_agree(batched.engine(), sequential.engine());
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
                outcome_first.counters.install_passes,
                outcome_second.counters.install_passes
            );
            // Batched install: one pass per epoch, never more.
            prop_assert!(outcome_first.counters.install_passes <= outcome_first.epochs);
            // The last pair of the chunk is directly linked afterwards (an
            // earlier pair's link may legitimately be recycled by a later
            // overlapping transformation in the same chunk).
            let (u, v) = chunk.last().unwrap().pair();
            prop_assert!(first.engine().are_directly_linked(u, v).unwrap(),
                "pair ({u}, {v}) not directly linked after its epoch");
        }
        assert_networks_agree(first.engine(), second.engine());
    }
}

/// The install-pass counter in plain (non-property) form, pinned to the
/// acceptance criterion: a batch of k disjoint pairs performs one
/// transformation-install pass regardless of k, and the sequential replay
/// performs k.
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
        assert_eq!(outcome.counters.install_passes, 1, "k = {k}");
        assert_eq!(batched.stats().counters.install_passes, 1, "k = {k}");

        let mut sequential = session(n, 9);
        for request in &batch {
            sequential.submit(*request).unwrap();
        }
        assert_eq!(sequential.stats().counters.install_passes, k);
        assert_networks_agree(batched.engine(), sequential.engine());
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
    assert_eq!(outcome.counters.install_passes, 1);
    for request in &batch {
        let (u, v) = request.pair();
        assert!(
            batched.engine().are_directly_linked(u, v).unwrap(),
            "pair ({u}, {v}) not directly linked after the merged epoch"
        );
    }
    batched.engine().validate().unwrap();
}
