//! The engine's generation stamp (`DynamicSkipGraph::generation`) is what
//! lets the service certify a deep audit and reuse a snapshot's node
//! section without re-reading the structure. Both shortcuts are sound only
//! if an unchanged stamp means an unchanged graph and state table, and
//! they pay only if the epochs the admission gate routes without
//! restructuring leave the stamp alone. The proptest drives scripts that
//! mix gated and admitted epochs, joins, leaves, ticks, `peer_state_mut`,
//! `restore_image` and `recover_from_surviving`, and checks both.

use std::collections::HashMap;

use proptest::prelude::*;

use dsg::persist::NodeImage;
use dsg::prelude::*;
use dsg::{failpoint, Generation};

/// One step of a script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// One epoch over a pair (gated or admitted, as the sketch decides).
    Pair(u64, u64),
    /// The same pair in three epochs: the third is hot and admitted.
    Repeat(u64, u64),
    Join(u64),
    Leave(u64),
    Tick(u64),
    /// `peer_state_mut` with no write through the reference.
    TouchState(u64),
    Restore,
    Recover,
}

fn op(kind: u32, a: u64, b: u64) -> Op {
    match kind {
        0..=3 => Op::Pair(a, b),
        4 => Op::Repeat(a, b),
        5 => Op::Join(a),
        6 => Op::Leave(a),
        7 => Op::Tick(b),
        8 => Op::TouchState(a),
        9 => Op::Restore,
        _ => Op::Recover,
    }
}

fn script() -> impl Strategy<Value = (u64, Vec<Op>)> {
    (12u64..40).prop_flat_map(|n| {
        // Peer ids reach past `n`, so joins add peers the build lacked.
        let ops = proptest::collection::vec((0u32..11, 0..n + 8, 0..n + 8), 1..40)
            .prop_map(|steps| steps.into_iter().map(|(k, a, b)| op(k, a, b)).collect());
        (Just(n), ops)
    })
}

/// Serves one epoch of `(u, v)` when both are present peers, asserting
/// that an epoch which restructured nothing left the stamp alone.
/// Returns whether it restructured, or `None` if it was skipped.
fn epoch(engine: &mut DynamicSkipGraph, u: u64, v: u64) -> Option<bool> {
    if u == v || engine.peer_state(u).is_err() || engine.peer_state(v).is_err() {
        return None;
    }
    let before = engine.generation();
    let report = engine.communicate_epoch(&[(u, v)]).unwrap();
    let admitted = report.planned_clusters > 0;
    if !admitted {
        assert_eq!(
            engine.generation(),
            before,
            "a fully gated epoch moved the stamp"
        );
    }
    Some(admitted)
}

/// Runs `ops` over a gated network of `n` peers, asserting after every
/// step that a stamp seen before still comes with the same node section
/// of `capture_image`, and that a rebuilt engine never reuses a stamp.
/// Returns the numbers of gated and admitted epochs served.
fn run(n: u64, ops: &[Op]) -> (usize, usize) {
    let mut session = DsgSession::builder()
        .peers(0..n)
        .seed(n * 31 + ops.len() as u64)
        .policy(PolicyConfig::gated().with_threshold(3))
        .build()
        .unwrap();
    let engine = session.engine_mut();
    let mut seen: HashMap<Generation, Vec<NodeImage>> = HashMap::new();
    seen.insert(engine.generation(), engine.capture_image().nodes);
    let mut epochs = [0usize; 2];
    for &step in ops {
        let before = engine.generation();
        let mut rebuilt = false;
        match step {
            Op::Pair(u, v) => {
                if let Some(admitted) = epoch(engine, u, v) {
                    epochs[usize::from(admitted)] += 1;
                }
            }
            Op::Repeat(u, v) => {
                for _ in 0..3 {
                    if let Some(admitted) = epoch(engine, u, v) {
                        epochs[usize::from(admitted)] += 1;
                    }
                }
            }
            Op::Join(p) => {
                let _ = engine.add_peer(p);
            }
            Op::Leave(p) => {
                if engine.len() > 4 {
                    let _ = engine.remove_peer(p);
                }
            }
            Op::Tick(by) => {
                engine.advance_time(engine.time() + by);
                assert_eq!(engine.generation(), before, "a tick moved the stamp");
            }
            Op::TouchState(p) => {
                if engine.peer_state_mut(p).is_ok() {
                    assert_ne!(
                        engine.generation(),
                        before,
                        "handing out a mutable state did not move the stamp"
                    );
                }
            }
            Op::Restore => {
                *engine = DynamicSkipGraph::restore_image(&engine.capture_image()).unwrap();
                rebuilt = true;
            }
            Op::Recover => {
                engine.recover_from_surviving().unwrap();
                rebuilt = true;
            }
        }
        let stamp = engine.generation();
        let nodes = engine.capture_image().nodes;
        if rebuilt {
            assert!(
                !seen.contains_key(&stamp),
                "a rebuilt engine reused a stamp"
            );
        }
        match seen.get(&stamp) {
            Some(earlier) => assert!(
                earlier == &nodes,
                "two captures under one stamp hold different nodes ({step:?})"
            ),
            None => {
                seen.insert(stamp, nodes);
            }
        }
    }
    engine.validate().unwrap();
    (epochs[0], epochs[1])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn an_unchanged_stamp_means_unchanged_nodes((n, ops) in script()) {
        let _guard = failpoint::exclusive();
        run(n, &ops);
    }
}

#[test]
fn a_fixed_script_reaches_gated_and_admitted_epochs() {
    let _guard = failpoint::exclusive();
    let ops = [
        Op::Pair(0, 1),
        Op::Pair(2, 3),
        Op::Tick(5),
        Op::Repeat(4, 5),
        Op::Pair(6, 7),
        Op::TouchState(8),
        Op::Restore,
        Op::Pair(9, 10),
        Op::Join(40),
        Op::Leave(11),
        Op::Recover,
        Op::Pair(12, 13),
        Op::Repeat(14, 15),
    ];
    let (gated, admitted) = run(32, &ops);
    assert!(gated >= 5, "{gated} gated epochs");
    assert!(admitted >= 2, "{admitted} admitted epochs");
}
