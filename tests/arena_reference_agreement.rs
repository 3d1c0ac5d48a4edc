//! Differential property tests: the intrusive linked-list arena
//! ([`SkipGraph`]) must agree observably with the naive index-based
//! reference representation ([`ReferenceGraph`]) on every operation
//! sequence — same node ids, same list orders, same neighbours, same list
//! sizes, and same `route` hop counts. [`SkipGraph::distance`], the
//! count-only walk the engine routes with, must equal that route's
//! intermediate nodes.
//!
//! Operation sequences mix inserts (with bounded random membership
//! vectors), removals, and `set_membership_suffix` updates — the three
//! mutations the self-adjusting layer drives the substrate with.
//!
//! A second test serves request scripts through a [`DynamicSkipGraph`],
//! one pair per epoch as `communicate` does, and rebuilds every epoch on a
//! copy of the pre-epoch graph through the node-by-node install
//! (`SkipGraph::set_membership_vector`) and the destroy/recreate dummy
//! lifecycle (`common::replay_epoch`): the engine's batched install
//! ([`SkipGraph::apply_membership_batch_collecting`]) and reconciling
//! repair must leave the same keys, dummy flags, vectors, list orders at
//! every level and dummy group bases. `tests/dummy_reconcile.rs` replays
//! multi-pair epochs with joins and leaves the same way.

use proptest::prelude::*;

use dsg::prelude::*;
use dsg_skipgraph::reference::ReferenceGraph;
use dsg_skipgraph::{Bit, Key, MembershipVector, SkipGraph};

mod common;
use common::replay_epoch;

/// One scripted mutation. `key_pick` / `level_pick` / `bits` are raw
/// randomness that gets mapped onto the graph's current population, so
/// every generated script is applicable to both representations.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { key: u64, bits: u64, len: usize },
    Remove { key_pick: u64 },
    SetSuffix { key_pick: u64, from_level: usize, bits: u64, len: usize },
}

fn mvec_from(bits: u64, len: usize) -> MembershipVector {
    MembershipVector::from_bits(
        (0..len).map(|i| Bit::from_u8(((bits >> i) & 1) as u8)),
    )
    .expect("len is far below the height limit")
}

/// Raw randomness for one scripted mutation:
/// `(op selector, key material, bit material, len, level)`.
type RawOp = (u64, u64, u64, usize, usize);

/// Strategy: a starting population plus a mutation script.
fn script() -> impl Strategy<Value = (u64, Vec<RawOp>)> {
    (4u64..32).prop_flat_map(|n| {
        let ops = proptest::collection::vec(
            // (op selector, key material, bit material, len, level)
            (0u64..100, 0u64..1000, 0u64..u64::MAX, 0usize..5, 0usize..4),
            1..40,
        );
        (Just(n), ops)
    })
}

fn decode(raw: RawOp) -> Op {
    let (selector, key, bits, len, level) = raw;
    match selector % 3 {
        0 => Op::Insert { key, bits, len },
        1 => Op::Remove { key_pick: key },
        _ => Op::SetSuffix {
            key_pick: key,
            from_level: level + 1,
            bits,
            len,
        },
    }
}

/// Applies one op to both representations, asserting identical outcomes.
fn apply(arena: &mut SkipGraph, reference: &mut ReferenceGraph, op: Op) {
    match op {
        Op::Insert { key, bits, len } => {
            let a = arena.insert(Key::new(key), mvec_from(bits, len));
            let r = reference.insert(Key::new(key), mvec_from(bits, len));
            match (a, r) {
                (Ok(aid), Ok(rid)) => assert_eq!(aid, rid, "insert ids diverge"),
                (Err(_), Err(_)) => {}
                (a, r) => panic!("insert outcomes diverge: {a:?} vs {r:?}"),
            }
        }
        Op::Remove { key_pick } => {
            let keys: Vec<Key> = arena.keys().collect();
            if keys.is_empty() {
                return;
            }
            let key = keys[(key_pick as usize) % keys.len()];
            let removed = arena.remove_key(key).expect("key just listed");
            let rid = reference.remove_key(key).expect("representations agree");
            assert_eq!(arena.node_by_key(key), None);
            assert_eq!(removed.key(), key);
            let _ = rid;
        }
        Op::SetSuffix {
            key_pick,
            from_level,
            bits,
            len,
        } => {
            let keys: Vec<Key> = arena.keys().collect();
            if keys.is_empty() {
                return;
            }
            let key = keys[(key_pick as usize) % keys.len()];
            let id = arena.node_by_key(key).expect("key just listed");
            assert_eq!(reference.node_by_key(key), Some(id), "ids diverge");
            let new_bits: Vec<Bit> = (0..len)
                .map(|i| Bit::from_u8(((bits >> i) & 1) as u8))
                .collect();
            arena
                .set_membership_suffix(id, from_level, new_bits.iter().copied())
                .expect("vector stays far below the height limit");
            reference
                .set_membership_suffix(id, from_level, new_bits.iter().copied())
                .expect("vector stays far below the height limit");
        }
    }
}

/// Asserts full observable agreement between the two representations.
fn assert_agreement(arena: &SkipGraph, reference: &ReferenceGraph) {
    arena.validate().expect("arena invariants hold");
    assert_eq!(arena.len(), reference.len());
    assert_eq!(arena.max_level(), reference.max_level());
    let ids: Vec<_> = arena.node_ids().collect();
    for &id in &ids {
        let key = arena.key_of(id).unwrap();
        assert_eq!(reference.key_of(id).unwrap(), key);
        let mvec = arena.mvec_of(id).unwrap();
        assert_eq!(reference.mvec_of(id).unwrap(), mvec);
        for level in 0..=mvec.len() + 1 {
            assert_eq!(
                arena.neighbors(id, level).unwrap(),
                reference.neighbors(id, level).unwrap(),
                "neighbours diverge for key {key} at level {level}"
            );
            assert_eq!(
                arena.list_size(id, level).unwrap(),
                reference.list_size(id, level).unwrap(),
                "list sizes diverge for key {key} at level {level}"
            );
            // Same members in the same (ascending key) order.
            let prefix = mvec.prefix(level.min(mvec.len()));
            let arena_list: Vec<_> = arena.list_iter(level.min(mvec.len()), prefix).collect();
            let ref_list = reference.list_members(level.min(mvec.len()), prefix);
            assert_eq!(arena_list, ref_list, "list order diverges at level {level}");
        }
    }
    // Route hop counts agree for sampled pairs, and the count-only walk
    // counts the recorded path.
    let keys: Vec<Key> = arena.keys().collect();
    for (i, &a) in keys.iter().enumerate().step_by(3) {
        let b = keys[(i * 7 + 1) % keys.len()];
        let route = arena.route(a, b).unwrap();
        assert_eq!(
            route.hops(),
            reference.route_hops(a, b).unwrap(),
            "route hops diverge for {a} -> {b}"
        );
        assert_eq!(
            arena.distance(a, b).unwrap(),
            route.intermediate_nodes(),
            "count-only walk and recorded path diverge for {a} -> {b}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random scripts of inserts/removes/suffix updates leave both
    /// representations observably identical.
    #[test]
    fn arena_agrees_with_reference((n, raw_ops) in script()) {
        let mut arena = SkipGraph::new();
        let mut reference = ReferenceGraph::new();
        // Seed population with deterministic vectors derived from the key.
        for k in 0..n {
            let mvec = mvec_from(k.wrapping_mul(0x9E3779B97F4A7C15), (k % 4) as usize);
            arena.insert(Key::new(k * 10), mvec).unwrap();
            reference.insert(Key::new(k * 10), mvec).unwrap();
        }
        assert_agreement(&arena, &reference);
        for raw in raw_ops {
            apply(&mut arena, &mut reference, decode(raw));
        }
        assert_agreement(&arena, &reference);
    }

    /// Full request scripts, served one pair per epoch, equal their rebuild
    /// through the node-by-node install and the destroy/recreate lifecycle
    /// after every request: the same structure and dummy placement, and
    /// per request the same placed-dummy count and repair rounds.
    #[test]
    fn batched_install_agrees_with_per_node_install(
        n in 8u64..40,
        seed in 0u64..500,
        raw_requests in proptest::collection::vec((0u64..1000, 0u64..1000), 1..25),
    ) {
        let mut session = DsgSession::builder().peers(0..n).seed(seed).build().unwrap();
        for (a, b) in raw_requests {
            let pair = [(a % n, b % n)];
            if pair[0].0 == pair[0].1 {
                continue;
            }
            let before = session.engine().graph().clone();
            let before_image = session.engine().capture_image();
            let report = session.engine_mut().communicate_epoch(&pair).unwrap();
            replay_epoch(&before, &before_image, session.engine(), &pair, &report);
        }
        session.engine().validate().expect("the engine is structurally sound");
    }

    /// Randomised construction through the public API also agrees: building
    /// the reference from the arena's final membership reproduces every
    /// neighbour and every hop count.
    #[test]
    fn random_graphs_mirror_into_the_reference(n in 4u64..96, seed in 0u64..200) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let arena = SkipGraph::random((0..n).map(Key::new), &mut rng).unwrap();
        let reference = ReferenceGraph::from_members(
            arena.node_ids().map(|id| {
                (arena.key_of(id).unwrap(), arena.mvec_of(id).unwrap())
            }),
        )
        .unwrap();
        assert_agreement(&arena, &reference);
    }
}
