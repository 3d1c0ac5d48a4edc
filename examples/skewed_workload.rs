//! Skewed-workload comparison: the self-adjusting skip graph (DSG) versus
//! the static skip graph and a SplayNet overlay under Zipf traffic of
//! increasing skew.
//!
//! This is the scenario the paper's introduction motivates: most real-world
//! communication patterns are skewed, and a self-adjusting topology should
//! exploit that. Run with
//! `cargo run --release --example skewed_workload`.

use dsg::DsgConfig;
use dsg_baselines::{SplayNet, StaticSkipGraph, WorkingSetOracle};
use dsg_repro::replay::{f2, format_table, run_baseline, run_dsg};
use dsg_workloads::{Workload, ZipfPairs};

fn main() {
    let n = 256u64;
    let requests = 3000usize;
    println!("Zipf workload over {n} peers, {requests} requests per skew level\n");

    let mut rows = Vec::new();
    for alpha in [0.0f64, 0.6, 0.9, 1.2, 1.5] {
        let trace = ZipfPairs::new(n, alpha, 7).generate(requests);

        let dsg_run = run_dsg(n, DsgConfig::default().with_seed(1), &trace);
        let mut static_graph = StaticSkipGraph::new(n);
        let static_costs = run_baseline(&mut static_graph, &trace);
        let mut splaynet = SplayNet::new(n);
        let splay_costs = run_baseline(&mut splaynet, &trace);
        let mut oracle = WorkingSetOracle::new(n);
        let oracle_costs = run_baseline(&mut oracle, &trace);

        let avg = |costs: &[usize]| costs.iter().sum::<usize>() as f64 / costs.len() as f64;
        rows.push(vec![
            f2(alpha),
            f2(dsg_run.avg_routing()),
            f2(avg(&static_costs)),
            f2(avg(&splay_costs)),
            f2(avg(&oracle_costs)),
            f2(dsg_run.avg_routing() / avg(&static_costs).max(1e-9)),
        ]);
    }

    println!(
        "{}",
        format_table(
            &[
                "zipf α",
                "DSG routing",
                "static skip",
                "splaynet",
                "WS bound",
                "DSG/static"
            ],
            &rows
        )
    );
    println!("Lower DSG/static ratios at higher skew show the benefit of self-adjustment.");
}
