//! Pins what a gated request allocates.
//!
//! Under the gated policy almost every cold request is served by routing
//! alone, and routing allocates nothing: the walk counts its hops instead
//! of recording them, and the engine and the session keep their per-epoch
//! buffers. What is left are the two outcome vectors the API returns, the
//! epoch report's and the batch's. A counting global allocator measures
//! this, counting only the calls the test's own thread makes while a
//! request is being served.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dsg::prelude::*;
use dsg_workloads::{UniformRandom, Workload};

/// Forwards to [`System`], counting the allocating calls of a thread that
/// has switched counting on.
struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: a thread's locals may already be gone while it exits.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping touches only `const`-initialised thread-locals of `Copy`
// types, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Serves `request` as a one-request batch, returning the batch outcome
/// and the allocations (allocs and reallocs) this thread made meanwhile.
fn counted_submit(session: &mut DsgSession, request: Request) -> (BatchOutcome, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|counting| counting.set(true));
    let outcome = session.submit_batch(std::slice::from_ref(&request));
    COUNTING.with(|counting| counting.set(false));
    (
        outcome.expect("uniform traffic over live peers"),
        ALLOCATIONS.with(Cell::get),
    )
}

#[test]
fn a_gated_request_allocates_only_its_two_outcome_vectors() {
    let n = 256;
    let mut session = DsgSession::builder()
        .peers(0..n)
        .seed(1)
        .policy(PolicyConfig::gated())
        .build()
        .expect("peer keys 0..n are distinct");
    let mut workload = UniformRandom::new(n, 1);
    for _ in 0..2_000 {
        let request = workload.next_request();
        session.submit_batch(&[request]).expect("warm-up request");
    }

    let (mut gated, mut gated_allocations, mut worst) = (0u64, 0u64, 0u64);
    let (mut restructured, mut restructured_allocations) = (0u64, 0u64);
    for _ in 0..1_000 {
        let (outcome, allocations) = counted_submit(&mut session, workload.next_request());
        assert_eq!(outcome.epochs, 1);
        if outcome.counters.pairs_gated == 1 {
            gated += 1;
            gated_allocations += allocations;
            worst = worst.max(allocations);
        } else {
            restructured += 1;
            restructured_allocations += allocations;
        }
    }
    println!(
        "gated: {gated} requests, {:.2} allocations each (worst {worst}); \
         restructured: {restructured} requests, {:.2} each",
        gated_allocations as f64 / gated.max(1) as f64,
        restructured_allocations as f64 / restructured.max(1) as f64,
    );
    // About three in four uniform requests are gated at this size.
    assert!(
        gated >= 500,
        "too few gated requests to measure: {gated} of 1000"
    );
    assert!(
        worst <= 2,
        "a gated one-pair submit_batch made {worst} allocations; only the epoch \
         report's and the batch's outcome vectors may allocate"
    );
}
