//! Differential tests for the epoch engine's install and dummy lifecycle.
//!
//! The engine pushes each epoch's new membership vectors into the graph in
//! one batched splice pass and repairs a-balance with the reconciling
//! dummy lifecycle: it inventories the standing dummies of the rebuilt
//! lists, reclaims in place the ones the (shared, salvage-first) placement
//! policy re-derives, bulk-splices the genuinely new ones, and sweeps only
//! the genuinely stale ones. Both fast paths keep a slow reference that no
//! engine path runs: `SkipGraph::set_membership_vector`, node by node, for
//! the install, and `dummy::repair_balance_destroy_recreate`, the literal
//! destroy-then-recreate lifecycle, for the repair. The replay test below
//! serves real epochs (batches of endpoint-disjoint pairs, with joins and
//! leaves in between) and rebuilds each one through both references on a
//! copy of the pre-epoch graph (`common::replay_epoch`): **the graphs must
//! agree bit for bit**, and every cluster must place as many dummies, in as
//! many rounds, as the reconciliation and the engine did.
//! `arena_reference_agreement.rs` replays one-pair epochs the same way.

use proptest::prelude::*;

use dsg::dummy::{repair_balance_reconciling, DummyReconcileOutcome, ReconcileScratch};
use dsg::prelude::*;
use dsg::StateTable;
use dsg_skipgraph::{Key, MembershipVector, Prefix, SkipGraph};

mod common;
use common::replay_epoch;

fn session(n: u64, seed: u64) -> DsgSession {
    DsgSession::builder()
        .peers(0..n)
        .seed(seed)
        .build()
        .expect("peer keys 0..n are distinct")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every epoch the engine serves equals its rebuild through the
    /// node-by-node install and the destroy/recreate lifecycle: the same
    /// keys, dummy flags, vectors and list orders at every level, the same
    /// dummy group bases, and per cluster the same placed-dummy count and
    /// repair rounds as the reconciling lifecycle and the engine's report.
    #[test]
    fn reconciliation_equals_destroy_recreate_oracle(
        n in 8u64..40,
        seed in 0u64..300,
        script in proptest::collection::vec(
            (0u64..100, proptest::collection::vec((0u64..1000, 0u64..1000), 1..7)),
            1..12,
        ),
    ) {
        let mut session = session(n, seed);
        let mut joined = 0u64;
        for (churn, raw_pairs) in script {
            // Membership churn between epochs: joins and leaves run the
            // full-sweep repair, whose dummies the next epoch inherits.
            match churn {
                0..=14 => {
                    joined += 1;
                    session.engine_mut().add_peer(1000 + joined).unwrap();
                }
                15..=24 if joined > 0 => {
                    session.engine_mut().remove_peer(1000 + joined).unwrap();
                    joined -= 1;
                }
                _ => {}
            }
            let peers = session.engine().peers();
            let mut pairs: Vec<(u64, u64)> = Vec::new();
            for (x, y) in raw_pairs {
                let u = peers[(x % peers.len() as u64) as usize];
                let v = peers[(y % peers.len() as u64) as usize];
                let taken = |peer: u64| pairs.iter().any(|&(p, q)| p == peer || q == peer);
                if u != v && !taken(u) && !taken(v) {
                    pairs.push((u, v));
                }
            }
            if pairs.is_empty() {
                continue;
            }
            let before = session.engine().graph().clone();
            let before_image = session.engine().capture_image();
            let report = session.engine_mut().communicate_epoch(&pairs).unwrap();
            replay_epoch(&before, &before_image, session.engine(), &pairs, &report);
        }
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
    let mut session = session(4096, 1);
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
