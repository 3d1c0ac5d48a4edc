//! Flash-crowd demonstration of the adaptation policy: the same trace —
//! uniform background traffic with one sudden burst of a few hot pairs —
//! replayed twice, once with the restructure-always default and once with
//! the frequency-sketch admission gate on.
//!
//! The gate should keep restructuring work (touched `(node, level)` pairs)
//! low while the traffic is uniform, admit the crowd once its pairs get
//! hot in the sketch, and still serve the burst at a comparable routing
//! cost.
//!
//! Run with `cargo run --release --example flash_crowd`.

use dsg::prelude::*;
use dsg_workloads::{FlashCrowd, Workload};

fn replay(policy: PolicyConfig, trace: &[Request]) -> Result<RunStats, DsgError> {
    let mut session = DsgSession::builder()
        .peers(0..512u64)
        .seed(11)
        .policy(policy)
        .build()?;
    for chunk in trace.chunks(16) {
        session.submit_batch(chunk)?;
    }
    Ok(*session.stats())
}

fn main() -> Result<(), DsgError> {
    // 2000 uniform requests, then a 2000-request burst where 4 fixed pairs
    // take 95% of the traffic, then 2000 uniform requests again.
    let trace = FlashCrowd::new(512, 4, 2000, 2000, 0.95, 7).generate(6000);

    let off = replay(PolicyConfig::default(), &trace)?;
    let on = replay(PolicyConfig::gated(), &trace)?;

    println!("policy  routing-cost  touched-pairs  gated  budgeted  aging");
    for (name, stats) in [("off", &off), ("on", &on)] {
        println!(
            "{name:<6}  {:>12}  {:>13}  {:>5}  {:>8}  {:>5}",
            stats.total_routing_cost,
            stats.counters.touched_pairs,
            stats.counters.pairs_gated,
            stats.counters.restructures_budgeted,
            stats.counters.sketch_aging_passes,
        );
    }

    let saved = off
        .counters
        .touched_pairs
        .saturating_sub(on.counters.touched_pairs);
    println!(
        "\nthe gate skipped restructuring for {} of {} requests, touching {} fewer (node, level) pairs",
        on.counters.pairs_gated,
        trace.len(),
        saved
    );
    println!(
        "routing cost ratio (on / off): {:.3}",
        on.total_routing_cost as f64 / off.total_routing_cost.max(1) as f64
    );
    Ok(())
}
