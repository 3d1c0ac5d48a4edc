//! The VM-migration scenario from the paper's conclusion: communication in a
//! data center has several locality levels (rack, pod, global). A
//! self-adjusting overlay pulls the chatty VM pairs close together so that
//! intra-rack traffic stops paying global routing costs.
//!
//! Run with `cargo run --release --example datacenter_vm`.

use dsg::DsgConfig;
use dsg_baselines::StaticSkipGraph;
use dsg_repro::replay::{f2, format_table, run_baseline, run_dsg};
use dsg_workloads::{Datacenter, Workload};

fn main() {
    let n = 256u64;
    let requests = 4000usize;
    let mut workload = Datacenter::conventional(n, 3);
    let trace = workload.generate(requests);
    let probe = Datacenter::conventional(n, 3);

    let dsg_run = run_dsg(n, DsgConfig::default().with_seed(9), &trace);
    let mut static_graph = StaticSkipGraph::new(n);
    let static_costs = run_baseline(&mut static_graph, &trace);

    // Break the averages down by locality class.
    let mut rows = Vec::new();
    for (label, filter) in [
        (
            "intra-rack",
            Box::new(|u: u64, v: u64| probe.rack_of(u) == probe.rack_of(v))
                as Box<dyn Fn(u64, u64) -> bool>,
        ),
        (
            "intra-pod",
            Box::new(|u: u64, v: u64| {
                probe.pod_of(u) == probe.pod_of(v) && probe.rack_of(u) != probe.rack_of(v)
            }),
        ),
        (
            "global",
            Box::new(|u: u64, v: u64| probe.pod_of(u) != probe.pod_of(v)),
        ),
    ] {
        let mut dsg_sum = 0usize;
        let mut static_sum = 0usize;
        let mut count = 0usize;
        for (i, request) in trace.iter().enumerate() {
            let (u, v) = request.pair();
            if filter(u, v) {
                dsg_sum += dsg_run.routing_costs[i];
                static_sum += static_costs[i];
                count += 1;
            }
        }
        if count == 0 {
            continue;
        }
        rows.push(vec![
            label.to_string(),
            count.to_string(),
            f2(dsg_sum as f64 / count as f64),
            f2(static_sum as f64 / count as f64),
        ]);
    }

    println!("data-center workload over {n} VMs, {requests} requests\n");
    println!(
        "{}",
        format_table(
            &["traffic class", "requests", "DSG avg cost", "static avg cost"],
            &rows
        )
    );
    println!(
        "overall: DSG {:.2} vs static {:.2} intermediate nodes per request",
        dsg_run.avg_routing(),
        static_costs.iter().sum::<usize>() as f64 / static_costs.len() as f64
    );
}
