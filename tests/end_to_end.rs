//! Cross-crate integration tests: workloads → self-adjusting skip graph →
//! metrics → baselines, replayed together through `dsg_repro::replay`.

use dsg::prelude::*;
use dsg_baselines::{SplayNet, StaticSkipGraph, WorkingSetOracle};
use dsg_metrics::working_set_bound;
use dsg_repro::replay::{run_baseline, run_dsg};
use dsg_workloads::{
    Adversarial, Datacenter, RepeatedPairs, RotatingHotSet, UniformRandom, Workload, ZipfPairs,
};

#[test]
fn hot_pairs_become_cheap_while_structure_stays_sound() {
    let n = 128u64;
    let trace = RepeatedPairs::new(n, vec![(3, 90), (45, 77), (10, 11)]).generate(60);
    let run = run_dsg(n, DsgConfig::default().with_seed(5), &trace);
    // After the first round every request is between directly linked pairs.
    assert!(run.routing_costs[3..].iter().all(|&c| c <= 1));
    // Heights never blow past the Lemma-5 style bound.
    let bound = (n as f64).ln() / 1.5f64.ln() + 8.0;
    assert!((run.max_height() as f64) <= bound);
}

#[test]
fn skewed_traffic_beats_the_static_baseline() {
    // Heavy pair skew (Zipf α = 2): the hot pairs repeat often enough that
    // the direct links DSG builds for them pay off on average, despite the
    // extra dummy-node hops.
    let n = 96u64;
    let requests = 800usize;
    let trace = ZipfPairs::new(n, 2.0, 11).generate(requests);
    let run = run_dsg(n, DsgConfig::default().with_seed(3), &trace);
    let mut baseline = StaticSkipGraph::new(n);
    let static_costs = run_baseline(&mut baseline, &trace);
    let static_avg = static_costs.iter().sum::<usize>() as f64 / requests as f64;
    assert!(
        run.avg_routing() < static_avg,
        "DSG ({:.2}) should beat the static graph ({static_avg:.2}) under heavy skew",
        run.avg_routing()
    );
    // A single repeatedly-communicating pair is the clearest win: it ends up
    // at distance 0 while the static graph keeps paying O(log n).
    let pair_trace = RepeatedPairs::single(n, 7, 80).generate(50);
    let pair_run = run_dsg(n, DsgConfig::default().with_seed(3), &pair_trace);
    let mut static_again = StaticSkipGraph::new(n);
    let static_pair: usize = run_baseline(&mut static_again, &pair_trace).iter().sum();
    assert!(pair_run.total_routing() * 2 < static_pair);
}

#[test]
fn uniform_traffic_stays_within_a_constant_factor_of_static() {
    let n = 64u64;
    let trace = UniformRandom::new(n, 9).generate(500);
    let run = run_dsg(n, DsgConfig::default().with_seed(3), &trace);
    let mut baseline = StaticSkipGraph::new(n);
    let static_costs = run_baseline(&mut baseline, &trace);
    let static_avg = static_costs.iter().sum::<usize>() as f64 / trace.len() as f64;
    // Theorem 4: the routing cost is within a constant factor of optimal;
    // with no skew the static structure is essentially optimal.
    assert!(
        run.avg_routing() <= 3.0 * static_avg + 2.0,
        "DSG {:.2} vs static {static_avg:.2}",
        run.avg_routing()
    );
}

#[test]
fn routing_cost_respects_the_working_set_bound_shape() {
    // Theorem 1 + Theorem 4: total DSG routing cost is Ω(WS(σ)) and within a
    // constant factor of it for sequences it can exploit.
    let n = 64u64;
    let trace = RotatingHotSet::new(n, 6, 0.95, 40, 3).generate(800);
    let run = run_dsg(n, DsgConfig::default().with_seed(4), &trace);
    let pairs: Vec<(u64, u64)> = trace.iter().map(|r| r.pair()).collect();
    let ws = working_set_bound(n as usize, &pairs);
    let total_routing = run.total_routing() as f64;
    assert!(
        total_routing <= 6.0 * ws + 200.0,
        "total routing {total_routing} far above the working-set bound {ws:.0}"
    );
}

#[test]
fn adversarial_traffic_does_not_break_invariants() {
    let n = 64u64;
    let trace = Adversarial::new(n, 8).generate(400);
    let run = run_dsg(n, DsgConfig::default().with_seed(6), &trace);
    // No locality to exploit: the structure must still stay sound — bounded
    // height and every request ending with a direct link (checked inside
    // run_dsg via the recorded pair levels).
    assert!(run.max_height() <= 4 * 6 + 6);
    assert!(run.pair_levels.iter().all(|&l| l <= run.max_height()));
}

#[test]
fn exact_median_and_amf_agree_on_workload_level_behaviour() {
    let n = 64u64;
    let trace = ZipfPairs::new(n, 1.2, 21).generate(400);
    let amf = run_dsg(n, DsgConfig::default().with_seed(7), &trace);
    let exact = run_dsg(
        n,
        DsgConfig::default()
            .with_seed(7)
            .with_median(MedianStrategy::Exact),
        &trace,
    );
    let ratio = amf.avg_routing() / exact.avg_routing().max(0.1);
    assert!(
        (0.4..=2.5).contains(&ratio),
        "AMF ({:.2}) and exact-median ({:.2}) runs diverge too much",
        amf.avg_routing(),
        exact.avg_routing()
    );
}

#[test]
fn datacenter_locality_is_exploited() {
    // Within DSG, the traffic classes with locality (intra-rack pairs that
    // keep re-communicating) must end up markedly cheaper than the global
    // background traffic — the VM-migration motivation of §VII. (The static
    // baseline is not the comparison here: its key order coincides with the
    // rack layout by construction, which no real deployment can assume.)
    let n = 128u64;
    let probe = Datacenter::conventional(n, 13);
    let trace = Datacenter::conventional(n, 13).generate(800);
    let run = run_dsg(n, DsgConfig::default().with_seed(8), &trace);
    let mut rack_sum = 0usize;
    let mut rack_count = 0usize;
    let mut global_sum = 0usize;
    let mut global_count = 0usize;
    for (i, request) in trace.iter().enumerate() {
        let (u, v) = request.pair();
        if probe.rack_of(u) == probe.rack_of(v) {
            rack_sum += run.routing_costs[i];
            rack_count += 1;
        } else if probe.pod_of(u) != probe.pod_of(v) {
            global_sum += run.routing_costs[i];
            global_count += 1;
        }
    }
    let rack_avg = rack_sum as f64 / rack_count.max(1) as f64;
    let global_avg = global_sum as f64 / global_count.max(1) as f64;
    assert!(
        rack_avg < global_avg,
        "intra-rack traffic ({rack_avg:.2}) should be cheaper than global traffic ({global_avg:.2})"
    );
}

#[test]
fn splaynet_and_oracle_baselines_run_the_same_traces() {
    let n = 64u64;
    let trace = ZipfPairs::new(n, 1.0, 17).generate(500);
    let mut splaynet = SplayNet::new(n);
    let mut oracle = WorkingSetOracle::new(n);
    let splay_total: usize = run_baseline(&mut splaynet, &trace).iter().sum();
    let oracle_total: usize = run_baseline(&mut oracle, &trace).iter().sum();
    assert!(splay_total > 0);
    assert!(oracle_total > 0);
    // The oracle is a lower bound reference: nothing beats it by definition
    // of the working-set bound (up to the additive first-touch terms).
    assert!(oracle_total <= splay_total + 64 * 10);
}

#[test]
fn membership_churn_during_traffic_keeps_the_network_usable() {
    let n = 48u64;
    let mut session = DsgSession::builder().peers(0..n).seed(10).build().unwrap();
    let mut workload = ZipfPairs::new(n, 0.8, 3);
    for i in 0..100u64 {
        let request = workload.next_request();
        let (u, _) = request.pair();
        let mut batch = vec![request];
        if i % 10 == 0 {
            batch.push(Request::Join(1000 + i));
            batch.push(Request::communicate(1000 + i, u));
        }
        if i % 25 == 24 {
            batch.push(Request::Leave(1000 + (i / 10) * 10));
        }
        session.submit_batch(&batch).unwrap();
    }
    session.engine().validate().unwrap();
    assert!(session.len() >= n as usize);
}
