//! Shared helpers of the integration suites: the bit-for-bit network,
//! graph and batch-outcome comparisons used by the determinism and
//! differential tests (`batch_equivalence.rs`, `policy_gate.rs`,
//! `dummy_reconcile.rs`, `service.rs`, …), and [`replay_epoch`], which
//! rebuilds one served epoch through the slow reference install and dummy
//! lifecycle (`dummy_reconcile.rs`, `arena_reference_agreement.rs`).
//!
//! Each consumer pulls this in with `mod common;`, so items unused by a
//! particular test binary are expected.
#![allow(dead_code)]

use dsg::dummy::{repair_balance_destroy_recreate, repair_balance_reconciling, ReconcileScratch};
use dsg::prelude::*;
use dsg::{EngineImage, StateTable};
use dsg_skipgraph::{Key, NodeId, Prefix, SkipGraph};

/// Asserts two engines are observably identical — structure, dummy
/// placement (keys and vectors), and the full per-peer state. NodeIds may
/// differ (slab order is hidden state), so everything is compared by key.
pub fn assert_networks_agree(label: &str, left: &DynamicSkipGraph, right: &DynamicSkipGraph) {
    left.validate().expect("left network is structurally sound");
    right
        .validate()
        .expect("right network is structurally sound");
    assert_eq!(left.height(), right.height(), "{label}: heights diverge");
    assert_graphs_agree(label, left.graph(), right.graph());
    for peer in left.peers() {
        assert_eq!(
            left.peer_state(peer).expect("peer exists"),
            right.peer_state(peer).expect("peer exists"),
            "{label}: self-adjusting state diverges for peer {peer}"
        );
    }
}

/// Asserts two skip graphs are observably identical, comparing by key:
/// the key set, each node's dummy flag and membership vector, and the
/// order of every list it belongs to (plus the level above its top).
pub fn assert_graphs_agree(label: &str, ga: &SkipGraph, gb: &SkipGraph) {
    assert_eq!(
        ga.dummy_count(),
        gb.dummy_count(),
        "{label}: dummy populations diverge"
    );
    let keys_a: Vec<Key> = ga.keys().collect();
    let keys_b: Vec<Key> = gb.keys().collect();
    assert_eq!(keys_a, keys_b, "{label}: node (and dummy) key sets diverge");
    for &key in &keys_a {
        let ia = ga.node_by_key(key).expect("key just listed");
        let ib = gb.node_by_key(key).expect("key sets agree");
        assert_eq!(
            ga.node(ia).expect("live").is_dummy(),
            gb.node(ib).expect("live").is_dummy(),
            "{label}: dummy flag diverges for key {key}"
        );
        let mvec = ga.mvec_of(ia).expect("live");
        assert_eq!(
            mvec,
            gb.mvec_of(ib).expect("live"),
            "{label}: membership vector diverges for key {key}"
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
                "{label}: list order diverges at level {level} for key {key}"
            );
        }
    }
}

/// Asserts two batch outcomes agree on everything deterministic: every
/// outcome, the epoch count and every counter but the execution fields,
/// which legitimately differ across runs.
pub fn assert_outcomes_agree(label: &str, left: &BatchOutcome, right: &BatchOutcome) {
    assert_eq!(left.outcomes, right.outcomes, "{label}: outcomes diverge");
    assert_eq!(left.epochs, right.epochs, "{label}: epochs diverge");
    assert_eq!(
        left.counters.deterministic(),
        right.counters.deterministic(),
        "{label}: counters diverge"
    );
}

/// The engine's internal key of an application peer.
pub fn internal_key(peer: u64) -> Key {
    Key::new((peer + 1) * DynamicSkipGraph::KEY_SPACING)
}

/// One transformation cluster of an epoch: its root list's prefix and its
/// pairs' indices, ascending.
struct Cluster {
    root: Prefix,
    pairs: Vec<usize>,
}

/// The engine's clustering rule, restated: pairs whose `l_α` prefixes are
/// comparable merge, transitively, under the shorter prefix; clusters come
/// in submission order of their first pair.
fn clusters_of(prefixes: &[Prefix]) -> Vec<Cluster> {
    let mut clusters: Vec<Cluster> = prefixes
        .iter()
        .enumerate()
        .map(|(i, &root)| Cluster {
            root,
            pairs: vec![i],
        })
        .collect();
    'merge: loop {
        for i in 0..clusters.len() {
            for j in (i + 1)..clusters.len() {
                let (a, b) = (clusters[i].root, clusters[j].root);
                if a.is_prefix_of(&b) || b.is_prefix_of(&a) {
                    let absorbed = clusters.remove(j);
                    let keeper = &mut clusters[i];
                    keeper.root = if a.level() <= b.level() { a } else { b };
                    keeper.pairs.extend(absorbed.pairs);
                    keeper.pairs.sort_unstable();
                    continue 'merge;
                }
            }
        }
        break;
    }
    clusters.sort_by_key(|cluster| cluster.pairs[0]);
    clusters
}

/// Rebuilds one served epoch through the reference install and lifecycle,
/// starting from `before` (the pre-epoch graph, whose nodes' group bases
/// `before_image` holds), and checks the result against `engine` after the
/// epoch. The reconciling lifecycle runs on a second copy of the same
/// post-install graph, so its placed count and rounds are checked against
/// the reference's too.
pub fn replay_epoch(
    before: &SkipGraph,
    before_image: &EngineImage,
    engine: &DynamicSkipGraph,
    pairs: &[(u64, u64)],
    report: &EpochReport,
) {
    let after = engine.graph();
    let prefixes: Vec<Prefix> = pairs
        .iter()
        .zip(&report.outcomes)
        .map(|(&(u, _), outcome)| {
            let id = before
                .node_by_key(internal_key(u))
                .expect("endpoint is live");
            before.mvec_of(id).expect("live").prefix(outcome.alpha)
        })
        .collect();
    let clusters = clusters_of(&prefixes);

    // The install, node by node: every member of every cluster's root list
    // takes its post-epoch vector. The lists each changed vector leaves or
    // joins, plus the parent list whose split pattern it changes, are its
    // cluster's repair scope.
    let mut reference = before.clone();
    let mut worklists: Vec<Vec<(usize, Prefix)>> = Vec::new();
    for cluster in &clusters {
        let members: Vec<NodeId> = before
            .list_iter(cluster.root.level(), cluster.root)
            .filter(|&id| !before.node(id).expect("live").is_dummy())
            .collect();
        let mut worklist = Vec::new();
        for id in members {
            let old = before.mvec_of(id).expect("live");
            let key = before.key_of(id).expect("live");
            let new = after
                .mvec_of(after.node_by_key(key).expect("peers survive an epoch"))
                .expect("live");
            reference
                .set_membership_vector(id, new)
                .expect("member is live");
            if old == new {
                continue;
            }
            let from = old.common_prefix_len(&new);
            worklist.extend((from..=old.len()).map(|level| (level, old.prefix(level))));
            worklist.extend((from..=new.len()).map(|level| (level, new.prefix(level))));
        }
        worklist.sort_unstable();
        worklist.dedup();
        worklists.push(worklist);
    }
    let mut states = StateTable::new();
    for node in &before_image.nodes {
        let key = Key::new(node.key);
        let id = before.node_by_key(key).expect("image and graph agree");
        states.register(id, key, node.group_base as usize);
    }
    let mut reconciled = reference.clone();
    let mut reconciled_states = states.clone();
    let mut scratch = ReconcileScratch::default();

    // The repair, cluster by cluster in submission order.
    let a = engine.config().a;
    for (cluster, mut worklist) in clusters.iter().zip(worklists) {
        let floor = cluster.root.level();
        let protect: Vec<(Key, Key)> = cluster
            .pairs
            .iter()
            .map(|&i| (internal_key(pairs[i].0), internal_key(pairs[i].1)))
            .collect();
        let oracle = repair_balance_destroy_recreate(
            &mut reference,
            &mut states,
            a,
            &protect,
            floor,
            &mut worklist.clone(),
        );
        let fast = repair_balance_reconciling(
            &mut reconciled,
            &mut reconciled_states,
            a,
            &protect,
            floor,
            &mut worklist,
            &mut scratch,
        );
        assert_eq!(
            oracle.inserted.len(),
            fast.placed.len(),
            "placed dummies diverge"
        );
        assert_eq!(oracle.rounds, fast.rounds, "repair rounds diverge");
        assert_eq!(
            report.outcomes[cluster.pairs[0]].dummies_inserted,
            oracle.inserted.len(),
            "the engine placed a different number of dummies"
        );
    }

    assert_graphs_agree("reference replay", after, &reference);
    for node in engine
        .capture_image()
        .nodes
        .iter()
        .filter(|node| node.dummy)
    {
        let id = reference
            .node_by_key(Key::new(node.key))
            .expect("key sets agree");
        assert_eq!(
            states.group_base(id) as u64,
            node.group_base,
            "group base of the dummy at {} diverges",
            node.key
        );
    }
    assert_eq!(
        report.counters.touched_pairs,
        report
            .outcomes
            .iter()
            .map(|o| o.touched_pairs)
            .sum::<usize>(),
        "the batch installer and the plans count different changes"
    );
}
