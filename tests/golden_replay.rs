//! Golden replays: the engine's exact outputs on fixed seeded traces.
//!
//! Each leg serves a trace through `DsgSession::submit_batch` and pins the
//! totals a pure speed-up of the restructure path must leave untouched:
//! how many requests restructured, the routing hops, the installed
//! `(node, level)` pairs, the transformation rounds, the dummy lifecycle
//! counts, the final node and dummy populations, and the length and CRC-32
//! of the engine's encoded snapshot (which covers every membership vector,
//! group-id, timestamp, dominating flag and dummy). A change that moves any
//! of these changed what the engine computes, not only how fast.
//!
//! The three n = 256 legs run in the tier-1 suite. The two n = 1024 legs
//! are `#[ignore]`d (a few seconds in release, far longer in debug) and
//! double as a timing loop for the large-rebuild path:
//! `cargo test --release --test golden_replay -- --ignored`.

use dsg::persist::encode_snapshot;
use dsg::prelude::*;
use dsg_skipgraph::crc32;
use dsg_workloads::{Datacenter, RotatingHotSet, UniformRandom, Workload};

/// The pinned outputs of one replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    /// Requests whose transformation ran (`transformation_rounds() > 0`).
    restructured: usize,
    /// Σ `routing_cost`.
    hops: usize,
    /// Σ `touched_pairs`.
    touched: usize,
    /// Σ `transformation_rounds()`.
    rounds: usize,
    /// Σ `RequestOutcome::dummies_inserted`.
    inserted: usize,
    /// Σ `BatchOutcome::dummies_destroyed`.
    destroyed: usize,
    /// Σ `BatchOutcome::dummies_reused`.
    reused: usize,
    /// Final node count, dummies included.
    nodes: usize,
    /// Final dummy count.
    dummies: usize,
    /// Length of the encoded snapshot in bytes.
    snapshot_len: usize,
    /// CRC-32 of the encoded snapshot.
    snapshot_crc: u32,
}

/// Serves `trace` through `session` in batches of `chunk` requests and
/// totals the pinned outputs.
fn replay(mut session: DsgSession, trace: &[Request], chunk: usize) -> Golden {
    let mut golden = Golden {
        restructured: 0,
        hops: 0,
        touched: 0,
        rounds: 0,
        inserted: 0,
        destroyed: 0,
        reused: 0,
        nodes: 0,
        dummies: 0,
        snapshot_len: 0,
        snapshot_crc: 0,
    };
    for batch in trace.chunks(chunk) {
        let outcome = session
            .submit_batch(batch)
            .expect("the trace serves cleanly");
        for request in outcome.request_outcomes() {
            golden.restructured += usize::from(request.transformation_rounds() > 0);
            golden.hops += request.routing_cost;
            golden.touched += request.touched_pairs;
            golden.rounds += request.transformation_rounds();
            golden.inserted += request.dummies_inserted;
        }
        golden.destroyed += outcome.dummies_destroyed;
        golden.reused += outcome.dummies_reused;
    }
    let engine = session.engine();
    engine.validate().expect("the replayed network is sound");
    golden.nodes = engine.graph().len();
    golden.dummies = engine.dummy_count();
    let snapshot = encode_snapshot(&engine.capture_image());
    golden.snapshot_len = snapshot.len();
    golden.snapshot_crc = crc32(&snapshot);
    golden
}

fn session(n: u64, seed: u64) -> DsgBuilder {
    DsgSession::builder().peers(0..n).seed(seed)
}

#[test]
fn gated_hot_set_replay_is_pinned() {
    let trace = RotatingHotSet::new(256, 32, 0.9, 200, 7).generate(1_000);
    let built = session(256, 7)
        .policy(PolicyConfig::gated())
        .build()
        .unwrap();
    assert_eq!(
        replay(built, &trace, 1),
        Golden {
            restructured: 760,
            hops: 3_484,
            touched: 83_717,
            rounds: 167_802,
            inserted: 9_097,
            destroyed: 5_760,
            reused: 3_108,
            nodes: 485,
            dummies: 229,
            snapshot_len: 43_609,
            snapshot_crc: 0x3546_bf90,
        }
    );
}

#[test]
fn uniform_replay_is_pinned() {
    let trace = UniformRandom::new(256, 7).generate(200);
    let built = session(256, 7).build().unwrap();
    assert_eq!(
        replay(built, &trace, 1),
        Golden {
            restructured: 200,
            hops: 1_059,
            touched: 145_096,
            rounds: 121_966,
            inserted: 21_117,
            destroyed: 13_000,
            reused: 7_896,
            nodes: 477,
            dummies: 221,
            snapshot_len: 13_974,
            snapshot_crc: 0x88d1_f74e,
        }
    );
}

#[test]
fn two_shard_datacenter_batches_are_pinned() {
    let trace = Datacenter::new(256, 16, 8, 0.9, 0.1, 7).generate(400);
    let built = session(256, 7).shards(2).build().unwrap();
    assert_eq!(
        replay(built, &trace, 8),
        Golden {
            restructured: 89,
            hops: 1_005,
            touched: 107_041,
            rounds: 74_422,
            inserted: 25_109,
            destroyed: 18_077,
            reused: 6_528,
            nodes: 760,
            dummies: 504,
            snapshot_len: 17_097,
            snapshot_crc: 0xdf07_f0f3,
        }
    );
}

#[test]
#[ignore = "n = 1024: a few seconds in release; run with --release -- --ignored"]
fn large_gated_hot_set_replay_is_pinned() {
    let trace = RotatingHotSet::new(1024, 32, 0.9, 200, 1).generate(6_000);
    let built = session(1024, 1)
        .policy(PolicyConfig::gated())
        .build()
        .unwrap();
    assert_eq!(
        replay(built, &trace, 1),
        Golden {
            restructured: 5_192,
            hops: 21_166,
            touched: 716_588,
            rounds: 1_190_339,
            inserted: 96_036,
            destroyed: 62_130,
            reused: 32_492,
            nodes: 2_438,
            dummies: 1_414,
            snapshot_len: 82_234,
            snapshot_crc: 0x736e_879e,
        }
    );
}

#[test]
#[ignore = "n = 1024: a few seconds in release; run with --release -- --ignored"]
fn large_uniform_rebuilds_are_pinned() {
    let trace = UniformRandom::new(1024, 1).generate(300);
    let built = session(1024, 1).build().unwrap();
    assert_eq!(
        replay(built, &trace, 1),
        Golden {
            restructured: 300,
            hops: 2_304,
            touched: 1_144_571,
            rounds: 470_039,
            inserted: 231_525,
            destroyed: 138_203,
            reused: 92_485,
            nodes: 1_861,
            dummies: 837,
            snapshot_len: 45_804,
            snapshot_crc: 0x03e4_01ae,
        }
    );
}
