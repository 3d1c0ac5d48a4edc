//! Criterion benchmarks for the skip graph core: O(1) neighbour reads and
//! routing on the intrusive linked-list arena versus the naive index-based
//! reference representation (`dsg_skipgraph::reference`), at the sizes in
//! [`SIZES`]. The `distance` group times the count-only walk the engine
//! routes every request with beside the same walk recording its path
//! (`route`) and the reference's walk. End-to-end request throughput is
//! `perfbench/`'s to measure.
//!
//! Run with `cargo bench -p dsg-skipgraph --bench core`; the vendored
//! criterion honours `BENCH_SAMPLE_SIZE` and `BENCH_WARMUP_MS` for a quick
//! smoke.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use dsg_skipgraph::reference::ReferenceGraph;
use dsg_skipgraph::{fixtures, Key, SkipGraph};

/// The network sizes the `neighbors` and `distance` groups sweep.
const SIZES: &[u64] = &[256, 1024, 4096];

/// The source/destination key pairs the `distance` group sweeps for an
/// `n`-key graph.
fn route_pairs(n: u64) -> Vec<(Key, Key)> {
    let step = (n / 64).max(1) as usize;
    (0..n)
        .step_by(step)
        .map(|i| (Key::new(i), Key::new(n - 1 - i)))
        .collect()
}

/// Builds a [`ReferenceGraph`] holding exactly the nodes and membership
/// vectors of `graph`, inserted in ascending key order. The fixtures here
/// are themselves built by key-ordered insertion, so the node ids coincide
/// and both representations are driven with the same id stream; the
/// precondition is checked, not assumed, since a graph built with churn
/// (free-list reuse) would violate it silently.
fn reference_graph_like(graph: &SkipGraph) -> ReferenceGraph {
    let reference = ReferenceGraph::from_members(graph.node_ids().map(|id| {
        (
            graph.key_of(id).expect("live node"),
            graph.mvec_of(id).expect("live node"),
        )
    }))
    .expect("keys are distinct in the source graph");
    for id in graph.node_ids() {
        let key = graph.key_of(id).expect("live node");
        assert_eq!(
            reference.node_by_key(key),
            Some(id),
            "reference_graph_like requires key-ordered insertion so ids coincide"
        );
    }
    reference
}

fn bench_neighbors(c: &mut Criterion) {
    let mut group = c.benchmark_group("neighbors");
    group.sample_size(20);
    for &n in SIZES {
        let graph = fixtures::uniform_random(n, 7);
        let reference = reference_graph_like(&graph);
        let ids: Vec<_> = graph.node_ids().collect();
        group.bench_with_input(BenchmarkId::new("arena", n), &n, |b, _| {
            b.iter(|| {
                let mut acc = 0usize;
                for &id in &ids {
                    for level in 0..=graph.mvec_of(id).unwrap().len() {
                        let (l, r) = graph.neighbors(black_box(id), black_box(level)).unwrap();
                        acc += l.is_some() as usize + r.is_some() as usize;
                    }
                }
                black_box(acc)
            });
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &n, |b, _| {
            b.iter(|| {
                let mut acc = 0usize;
                for &id in &ids {
                    for level in 0..=reference.mvec_of(id).unwrap().len() {
                        let (l, r) = reference
                            .neighbors(black_box(id), black_box(level))
                            .unwrap();
                        acc += l.is_some() as usize + r.is_some() as usize;
                    }
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

fn bench_distance(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance");
    group.sample_size(20);
    for &n in SIZES {
        let graph = fixtures::uniform_random(n, 7);
        let reference = reference_graph_like(&graph);
        let pairs = route_pairs(n);
        group.bench_with_input(BenchmarkId::new("arena", n), &n, |b, _| {
            b.iter(|| {
                let mut hops = 0usize;
                for &(a, b) in &pairs {
                    hops += graph.distance(a, b).unwrap_or(0);
                }
                black_box(hops)
            });
        });
        group.bench_with_input(BenchmarkId::new("arena-path", n), &n, |b, _| {
            b.iter(|| {
                let mut hops = 0usize;
                for &(a, b) in &pairs {
                    hops += graph
                        .route(a, b)
                        .map(|r| r.intermediate_nodes())
                        .unwrap_or(0);
                }
                black_box(hops)
            });
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &n, |b, _| {
            b.iter(|| {
                let mut hops = 0usize;
                for &(a, b) in &pairs {
                    hops += reference
                        .route_hops(a, b)
                        .map_or(0, |h| h.saturating_sub(1));
                }
                black_box(hops)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_neighbors, bench_distance);
criterion_main!(benches);
