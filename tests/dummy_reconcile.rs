//! Differential tests for the reconciling dummy lifecycle (PR 4).
//!
//! The batched engine path no longer destroys and re-creates the dummy
//! population of rebuilt lists: it inventories standing dummies, reclaims
//! in place the ones the (shared, salvage-first) placement policy
//! re-derives, bulk-splices the genuinely new ones, and sweeps only the
//! genuinely stale ones. The [`InstallStrategy::PerNode`] oracle keeps the
//! literal destroy-then-recreate lifecycle over the same placement policy.
//! These tests pin the central claim: **the two lifecycles produce
//! bit-for-bit identical graphs, self-adjusting state, dummy populations,
//! and request outcomes** — over epoch-batched request streams with
//! interleaved membership churn, not just the sequential scripts the
//! `arena_reference_agreement` suite already replays.

use proptest::prelude::*;

use dsg::dummy::{repair_balance_reconciling, DummyReconcileOutcome, ReconcileScratch};
use dsg::prelude::*;
use dsg::StateTable;
use dsg_skipgraph::{Key, MembershipVector, Prefix, SkipGraph};

/// Asserts the two engines are observably identical — structure, dummy
/// placement (keys *and* vectors), and the full per-peer state. Dummy
/// `NodeId`s may legitimately differ (the lifecycles recycle arena slots
/// in different orders), so everything is compared by key.
fn assert_networks_agree(reconciling: &DynamicSkipGraph, oracle: &DynamicSkipGraph) {
    reconciling
        .validate()
        .expect("reconciling network is structurally sound");
    oracle.validate().expect("oracle network is structurally sound");
    assert_eq!(reconciling.height(), oracle.height(), "heights diverge");
    assert_eq!(
        reconciling.dummy_count(),
        oracle.dummy_count(),
        "dummy populations diverge"
    );
    let ga = reconciling.graph();
    let gb = oracle.graph();
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
    for peer in reconciling.peers() {
        assert_eq!(
            reconciling.peer_state(peer).expect("peer exists"),
            oracle.peer_state(peer).expect("peer exists"),
            "self-adjusting state diverges for peer {peer}"
        );
    }
}

fn session(n: u64, seed: u64, install: InstallStrategy) -> DsgSession {
    DsgSession::builder()
        .peers(0..n)
        .config(DsgConfig::default().with_seed(seed).with_install(install))
        .build()
        .expect("peer keys 0..n are distinct")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Epoch-batched request streams with interleaved joins and leaves:
    /// the reconciling lifecycle and the destroy/recreate oracle end in
    /// bit-for-bit identical networks, and every per-request outcome
    /// (costs, rounds, placed-dummy counts) agrees.
    #[test]
    fn reconciliation_equals_destroy_recreate_oracle(
        n in 8u64..40,
        seed in 0u64..300,
        raw in proptest::collection::vec((0u64..1000, 0u64..1000, 0u64..100), 1..28),
        chunk in 1usize..7,
    ) {
        let mut joined: u64 = 0;
        let requests: Vec<Request> = raw
            .iter()
            .filter_map(|&(x, y, op)| match op {
                // Sprinkle membership churn through the stream: joins and
                // leaves drive the full-sweep repair path on both sides.
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
            .collect();
        if requests.is_empty() {
            return;
        }

        let mut reconciling = session(n, seed, InstallStrategy::Batched);
        let mut oracle = session(n, seed, InstallStrategy::PerNode);
        for chunk in requests.chunks(chunk) {
            let out_a = reconciling.submit_batch(chunk).unwrap();
            let out_b = oracle.submit_batch(chunk).unwrap();
            prop_assert_eq!(
                out_a.outcomes, out_b.outcomes,
                "per-request outcomes diverge"
            );
            // Placed-slot accounting is lifecycle-independent; the reuse
            // split is the reconciliation's own observable.
            let (a, b) = (out_a.counters, out_b.counters);
            prop_assert_eq!(a.dummies_inserted, b.dummies_inserted);
            prop_assert_eq!(b.dummies_reused, 0, "the oracle cannot reclaim in place");
            prop_assert_eq!(b.dummies_bulk_inserted, 0, "the oracle join-walks each dummy");
            // What the reconciliation did not reuse, it created through the
            // bulk installer — there is no third way to place a dummy.
            prop_assert_eq!(a.dummies_reused + a.dummies_bulk_inserted, a.dummies_inserted);
        }
        assert_networks_agree(reconciling.engine(), oracle.engine());
    }
}

/// Builds one maximally unbalanced list (every peer picks the 0-sublist)
/// plus its registered state table — the classic repair fixture.
fn unbalanced_fixture(n: u64) -> (SkipGraph, StateTable) {
    let graph = SkipGraph::from_members((0..n).map(|i| {
        (
            Key::new((i + 1) << 20),
            MembershipVector::parse("0").unwrap(),
        )
    }))
    .unwrap();
    let mut states = StateTable::new();
    for id in graph.node_ids().collect::<Vec<_>>() {
        let key = graph.key_of(id).unwrap();
        states.register(id, key, 0);
    }
    (graph, states)
}

fn reconcile(
    graph: &mut SkipGraph,
    states: &mut StateTable,
    a: usize,
    scratch: &mut ReconcileScratch,
) -> DummyReconcileOutcome {
    let mut worklist: Vec<(usize, Prefix)> = vec![(0, Prefix::root())];
    repair_balance_reconciling(graph, states, a, &[], 0, &mut worklist, scratch)
}

/// The headline unit property: when a rebuilt list's runs are unchanged,
/// the reconciliation reuses **100 %** of its standing dummies — zero
/// creations, zero destructions, the graph untouched.
#[test]
fn balanced_rebuilt_list_reuses_every_standing_dummy() {
    let a = 3;
    let (mut graph, mut states) = unbalanced_fixture(10);
    let mut scratch = ReconcileScratch::default();

    // First notification: nothing standing, the repair creates the dummy
    // population through the bulk installer.
    let first = reconcile(&mut graph, &mut states, a, &mut scratch);
    assert!(graph.is_a_balanced(a));
    assert!(first.bulk_inserted > 0);
    assert_eq!(first.reused, 0);
    assert_eq!(first.destroyed, 0);
    assert_eq!(first.placed.len(), first.bulk_inserted);
    let population: Vec<(u64, MembershipVector)> = graph
        .node_ids()
        .filter(|&id| graph.node(id).unwrap().is_dummy())
        .map(|id| (graph.key_of(id).unwrap().value(), graph.mvec_of(id).unwrap()))
        .collect();

    // Second notification over the same (unchanged) list: every standing
    // dummy is reclaimed in place.
    let second = reconcile(&mut graph, &mut states, a, &mut scratch);
    assert!(graph.is_a_balanced(a));
    assert_eq!(second.reused, first.placed.len(), "every standing dummy is reused");
    assert_eq!(second.bulk_inserted, 0, "nothing new to create");
    assert_eq!(second.destroyed, 0, "nothing stale to destroy");
    // Placed-slot accounting stays lifecycle-independent.
    assert_eq!(second.placed.len(), first.placed.len());
    let population_after: Vec<(u64, MembershipVector)> = graph
        .node_ids()
        .filter(|&id| graph.node(id).unwrap().is_dummy())
        .map(|id| (graph.key_of(id).unwrap().value(), graph.mvec_of(id).unwrap()))
        .collect();
    assert_eq!(population, population_after, "the dummy population is untouched");
    graph.validate().unwrap();
}

/// The bulk splice installer and the one-by-one join walk produce the
/// same structure for the same dummy batch.
#[test]
fn bulk_dummy_install_matches_per_dummy_insertion() {
    let members: Vec<(Key, MembershipVector)> = (0..32u64)
        .map(|i| {
            let bits = if i % 2 == 0 { "00" } else { "11" };
            (Key::new((i + 1) << 20), MembershipVector::parse(bits).unwrap())
        })
        .collect();
    let dummies: Vec<(Key, MembershipVector)> = (0..12u64)
        .map(|i| {
            let bits = match i % 3 {
                0 => "0",
                1 => "10",
                _ => "111",
            };
            (
                Key::new(((i * 2 + 1) << 20) + 512),
                MembershipVector::parse(bits).unwrap(),
            )
        })
        .collect();

    let mut bulk = SkipGraph::from_members(members.iter().copied()).unwrap();
    let ids = bulk.insert_dummies_bulk(&dummies).unwrap();
    assert_eq!(ids.len(), dummies.len());
    bulk.validate().unwrap();

    let mut one_by_one = SkipGraph::from_members(members.iter().copied()).unwrap();
    for &(key, mvec) in &dummies {
        one_by_one.insert_dummy(key, mvec).unwrap();
    }
    one_by_one.validate().unwrap();

    assert_eq!(bulk.len(), one_by_one.len());
    assert_eq!(bulk.dummy_count(), one_by_one.dummy_count());
    let keys: Vec<Key> = bulk.keys().collect();
    assert_eq!(keys, one_by_one.keys().collect::<Vec<Key>>());
    for &key in &keys {
        let ia = bulk.node_by_key(key).unwrap();
        let ib = one_by_one.node_by_key(key).unwrap();
        let mvec = bulk.mvec_of(ia).unwrap();
        assert_eq!(mvec, one_by_one.mvec_of(ib).unwrap());
        for level in 0..=mvec.len() {
            let list_a: Vec<u64> = bulk
                .list_of_iter(ia, level)
                .unwrap()
                .map(|id| bulk.key_of(id).unwrap().value())
                .collect();
            let list_b: Vec<u64> = one_by_one
                .list_of_iter(ib, level)
                .unwrap()
                .map(|id| one_by_one.key_of(id).unwrap().value())
                .collect();
            assert_eq!(list_a, list_b, "list diverges at level {level} for {key}");
        }
    }

    // A duplicate key — in the graph or within the batch — is rejected
    // before any mutation.
    let before = bulk.len();
    assert!(bulk
        .insert_dummies_bulk(&[(members[0].0, MembershipVector::parse("0").unwrap())])
        .is_err());
    let dup = Key::new(999 << 20);
    assert!(bulk
        .insert_dummies_bulk(&[
            (dup, MembershipVector::parse("0").unwrap()),
            (dup, MembershipVector::parse("1").unwrap()),
        ])
        .is_err());
    assert_eq!(bulk.len(), before, "failed bulk installs must not mutate");
    bulk.validate().unwrap();
}

/// The dummy-churn guard: on the fixed-seed uniform replay at n = 4096 —
/// ten requests of `UniformRandom::new(4096, 3)`, one per `submit_batch`,
/// policy off — the reconciling lifecycle must keep reclaiming standing
/// dummies in place. Churn counts the dummies actually created (placed
/// slots minus reclaimed ones) plus those destroyed; the reconciling
/// lifecycle replays this trace at 59,606 (12,760 reclaimed), and a return
/// of destroy-everything behaviour costs about 200,000. The replay is
/// deterministic, so the bound is a count, not a timing.
#[test]
fn uniform_replay_at_4096_stays_under_the_dummy_churn_guard() {
    use dsg_workloads::{UniformRandom, Workload};

    const CHURN_GUARD: usize = 75_000;
    let mut session = session(4096, 1, InstallStrategy::Batched);
    let (mut churn, mut reused) = (0usize, 0usize);
    for request in &UniformRandom::new(4096, 3).generate(10) {
        let batch = session
            .submit_batch(std::slice::from_ref(request))
            .expect("trace peers exist");
        let c = batch.counters;
        churn += c.dummies_inserted - c.dummies_reused + c.dummies_destroyed;
        reused += c.dummies_reused;
    }
    assert!(
        churn <= CHURN_GUARD,
        "dummy churn regression: {churn} > {CHURN_GUARD} ({reused} reclaimed)"
    );
    assert!(reused > 0, "reconciliation reclaimed no standing dummy");
}
