//! Criterion benchmarks for the skip graph core: O(1) neighbour reads and
//! routing on the intrusive linked-list arena versus the naive index-based
//! reference representation (`dsg_skipgraph::reference`), at the sizes in
//! `dsg_bench::SIZES`. End-to-end request throughput is `perfbench/`'s to measure.
//!
//! Run with `cargo bench -p dsg-bench --bench core`; the vendored criterion
//! honours `BENCH_SAMPLE_SIZE` and `BENCH_WARMUP_MS` for a quick smoke.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use dsg_bench::{reference_graph_like, route_pairs, SIZES};
use dsg_skipgraph::fixtures;

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

fn bench_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("route");
    group.sample_size(20);
    for &n in SIZES {
        let graph = fixtures::uniform_random(n, 7);
        let reference = reference_graph_like(&graph);
        let pairs = route_pairs(n);
        group.bench_with_input(BenchmarkId::new("arena", n), &n, |b, _| {
            b.iter(|| {
                let mut hops = 0usize;
                for &(a, b) in &pairs {
                    hops += graph.route(a, b).map(|r| r.hops()).unwrap_or(0);
                }
                black_box(hops)
            });
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &n, |b, _| {
            b.iter(|| {
                let mut hops = 0usize;
                for &(a, b) in &pairs {
                    hops += reference.route_hops(a, b).unwrap_or(0);
                }
                black_box(hops)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_neighbors, bench_route);
criterion_main!(benches);
