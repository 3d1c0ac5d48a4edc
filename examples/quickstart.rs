//! Quickstart: build a session over a self-adjusting skip graph, submit
//! typed requests — one at a time and as an epoch-batch — and watch the
//! topology adapt.
//!
//! Run with `cargo run --release --example quickstart`.

use dsg::prelude::*;

fn main() -> Result<(), DsgError> {
    // A network of 64 peers with the default balance parameter (a = 3).
    // The builder validates the configuration instead of panicking.
    let mut session = DsgSession::builder().peers(0..64).seed(42).build()?;
    println!(
        "built a skip graph over {} peers, height {}",
        session.len(),
        session.height()
    );

    // The first request between two arbitrary peers routes through the
    // balanced structure in O(log n) hops ...
    let first = session.submit(Request::communicate(5, 58))?;
    let first = first.request_outcome().expect("communication outcome");
    println!(
        "request #1  5 → 58: routing cost {}, transformation {} rounds, α = {}",
        first.routing_cost,
        first.transformation_rounds(),
        first.alpha
    );

    // ... and leaves the pair directly linked, so repeating it is free.
    let second = session.submit(Request::communicate(5, 58))?;
    println!(
        "request #2  5 → 58: routing cost {} (directly linked: {})",
        second.request_outcome().expect("communication outcome").routing_cost,
        session.engine().are_directly_linked(5, 58)?
    );

    // A batch of requests is served in *epochs*: every pair routes first,
    // then one merged transformation per cluster of overlapping subtrees,
    // and ONE install pass per epoch — however many pairs it holds.
    let batch = [
        Request::communicate(20, 33),
        Request::communicate(41, 2),
        Request::communicate(7, 55),
    ];
    let outcome = session.submit_batch(&batch)?;
    println!(
        "batch of {}: {} epoch(s), {} cluster(s), {} restructured",
        batch.len(),
        outcome.epochs,
        outcome.counters.clusters,
        outcome.counters.planned_clusters
    );

    // Unrelated traffic does not tear the hot pair apart.
    let third = session.submit(Request::communicate(5, 58))?;
    println!(
        "request #6  5 → 58: routing cost {} after unrelated traffic",
        third.request_outcome().expect("communication outcome").routing_cost
    );

    // Membership changes and clock control use the same typed vocabulary.
    session.submit_batch(&[
        Request::Join(100),
        Request::Leave(63),
        Request::communicate(100, 5),
    ])?;
    println!(
        "after churn: {} peers, height {}, {} dummy nodes, a-balanced: {}",
        session.len(),
        session.height(),
        session.engine().dummy_count(),
        session.engine().balance_report().is_balanced()
    );

    println!(
        "totals: {} requests in {} epochs, average cost {:.2} rounds",
        session.stats().requests,
        session.epochs(),
        session.stats().average_cost()
    );
    Ok(())
}
