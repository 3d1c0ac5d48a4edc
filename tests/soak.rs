//! Long-horizon soak test (PR 5): a fixed-seed, ≥ 5k-request stress run of
//! mixed Communicate / Join / Leave / Tick traffic through the
//! epoch-batched session, asserting the arena invariants as it goes —
//! graph structure (`SkipGraph::validate` covers the link chains, the
//! cached list lengths, and the per-list dummy counters), the
//! state-table/graph registration invariant, the a-balance report, and the
//! height bound.
//!
//! `#[ignore]` by default: the run takes minutes in release mode, so a
//! dedicated CI job runs it with `cargo test --release --test soak --
//! --ignored` instead of every `cargo test` invocation paying for it.
//!
//! Every soak holds `failpoint::exclusive()`: the fail-point registry is
//! process-global, so an engine driven beside the fault-injection soak
//! could trip, or consume, the fault that soak armed.

use dsg::failpoint;
use dsg::prelude::*;

/// Deterministic splitmix64 stream so the trace is reproducible without
/// dragging in a RNG dependency.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn soak(shards: usize) {
    const PEERS: u64 = 256;
    const REQUESTS: usize = 5_000;
    const BATCH: usize = 16;
    /// Invariants are re-checked every this many submitted batches.
    const CHECK_EVERY: usize = 25;

    let mut session = DsgSession::builder()
        .peers(0..PEERS)
        .seed(0x50A6)
        .shards(shards)
        .build()
        .expect("soak config is valid");
    let mut mix = Mix(0x00DE_C0DE);
    let mut joined: Vec<u64> = Vec::new();
    let mut next_join = 10_000u64;
    let mut clock = 0u64;

    let mut submitted = 0usize;
    let mut batches = 0usize;
    let mut pending: Vec<Request> = Vec::new();
    while submitted < REQUESTS {
        pending.clear();
        for _ in 0..BATCH {
            let roll = mix.next() % 100;
            let request = match roll {
                // ~6% joins, ~4% leaves, ~2% clock ticks, the rest traffic.
                0..=5 => {
                    next_join += 1;
                    joined.push(next_join);
                    Request::Join(next_join)
                }
                6..=9 if !joined.is_empty() => {
                    let idx = (mix.next() as usize) % joined.len();
                    Request::Leave(joined.swap_remove(idx))
                }
                10..=11 => {
                    clock += 50;
                    Request::Tick(clock)
                }
                _ => {
                    let u = mix.next() % PEERS;
                    let mut v = mix.next() % PEERS;
                    if v == u {
                        v = (v + 1) % PEERS;
                    }
                    Request::communicate(u, v)
                }
            };
            pending.push(request);
        }
        submitted += pending.len();
        session.submit_batch(&pending).expect("soak trace peers exist");
        batches += 1;

        if batches.is_multiple_of(CHECK_EVERY) {
            // The full arena invariant sweep: link-chain consistency,
            // cached list lengths, per-list dummy counters, and the
            // graph/state registration bijection.
            session
                .engine()
                .validate()
                .unwrap_or_else(|e| panic!("invariants violated after {submitted} requests: {e}"));
            // Strict a-balance can be transiently violated by design:
            // repair slots colliding with *protected* adjacencies shift
            // aside, and repairs are scoped to the rebuilt subtree
            // (levels ≥ the cluster root), so a repair dummy joining its
            // *ancestor* lists can extend runs there that only the next
            // α = 0 epoch or membership-churn full sweep repairs —
            // bounded drift by design, not rot. The fixed-seed run
            // measures max_run ≤ 24 at a = 3; the 16·a envelope (48)
            // leaves ~2× headroom while failing loudly on any systematic
            // repair regression.
            let report = session.engine().balance_report();
            let a = session.engine().config().a;
            assert!(
                report.max_run <= 16 * a,
                "run of {} escaped the 16a = {} drift envelope after {submitted} requests: {:?}",
                report.max_run,
                16 * a,
                report.violations.first()
            );
            let n = session.len() as f64;
            assert!(
                (session.height() as f64) <= 4.0 * n.log2() + 6.0,
                "height {} escaped the O(log n) envelope after {submitted} requests",
                session.height()
            );
        }
    }
    session.engine().validate().expect("final invariant sweep");
    assert!(session.stats().requests > 0);
    assert_eq!(session.len() as u64, PEERS + joined.len() as u64);
}

/// ≥ 5k mixed requests, serial planning. `#[ignore]`: run via the
/// dedicated CI soak job.
#[test]
#[ignore = "long-horizon soak; run explicitly (CI soak job) with --ignored"]
fn soak_mixed_traffic_serial() {
    let _guard = failpoint::exclusive();
    soak(1);
}

/// The same trace with the plan stage fanned out over 4 worker shards —
/// the long-horizon companion to `tests/shard_equivalence.rs`.
#[test]
#[ignore = "long-horizon soak; run explicitly (CI soak job) with --ignored"]
fn soak_mixed_traffic_sharded() {
    let _guard = failpoint::exclusive();
    soak(4);
}

/// Overload soak (PR 9): an open-loop driver offers mixed traffic at
/// ≥ 2× the service's measured closed-loop capacity, with shedding and
/// brownout enabled. The run proves that (a) no accepted ticket ever
/// leaks — every one resolves with an outcome or a typed error, (b) the
/// controller actually walked the degradation ladder (brownout entered
/// AND exited), (c) overload surfaced to producers as typed refusals,
/// and (d) the surviving engine passes the deep invariant sweep.
#[test]
#[ignore = "long-horizon soak; run explicitly (CI soak job) with --ignored"]
fn soak_overload_shedding_and_brownout() {
    use std::time::{Duration, Instant};

    use dsg_workloads::{OpenLoop, Workload, ZipfPairs};

    let _guard = failpoint::exclusive();

    const PEERS: u64 = 192;
    const CALIBRATE: usize = 300;
    const OFFERED: usize = 2_000;

    // Phase A — closed-loop calibration: measure the sustained service
    // rate with the same skewed workload the overload phase offers.
    let build = || {
        DsgSession::builder()
            .peers(0..PEERS)
            .seed(0x0F_F3)
            .policy(PolicyConfig::gated())
            .build()
            .expect("soak config is valid")
    };
    let calibration = DsgService::spawn(build(), ServiceConfig::default()).unwrap();
    let mut workload = ZipfPairs::new(PEERS, 1.1, 0xA5);
    let started = Instant::now();
    for _ in 0..CALIBRATE {
        calibration
            .submit_deadline(workload.next_request(), Duration::from_secs(30))
            .expect("calibration admits")
            .wait()
            .expect("calibration serves cleanly");
    }
    let capacity_rps =
        ((CALIBRATE as f64 / started.elapsed().as_secs_f64()) as u64).clamp(50, 2_000_000);
    drop(calibration);

    // Phase B — open loop at 2× capacity against a fresh twin service
    // with the overload layer on.
    let overload = OverloadConfig::default()
        .with_brownout_target(Duration::from_millis(2))
        .with_shed_target(Duration::from_millis(10))
        .with_interval(Duration::from_millis(20))
        .with_retry_after(Duration::from_millis(5));
    let mut service = DsgService::spawn(
        build(),
        ServiceConfig {
            queue_capacity: 4096,
            ..ServiceConfig::default()
        }
        .with_overload(overload),
    )
    .unwrap();
    let mut open = OpenLoop::new(ZipfPairs::new(PEERS, 1.1, 0xA5), 2 * capacity_rps);
    let start = Instant::now();
    let mut accepted: Vec<Ticket> = Vec::new();
    let mut refused = 0u64;
    for i in 0..OFFERED {
        let (due, request) = open.next_arrival();
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        // Every 4th request carries a deadline: under 2× overload some of
        // them expire in the queue and must resolve typed, not hang.
        let submitted = if i % 4 == 0 {
            service.submit_with_deadline(request, Duration::from_secs(2))
        } else {
            service.submit(request)
        };
        match submitted {
            Ok(ticket) => accepted.push(ticket),
            Err(SubmitError::Shed { .. } | SubmitError::Overloaded) => refused += 1,
            Err(err) => panic!("unexpected refusal {err}"),
        }
    }
    assert!(refused >= 1, "2x offered load never produced a refusal");

    // No leaked tickets: every accepted submission resolves — served or
    // shed — within the drain budget.
    let mut served = 0u64;
    let mut expired = 0u64;
    for ticket in &accepted {
        match ticket
            .wait_timeout(Duration::from_secs(120))
            .expect("an accepted ticket leaked: no resolution within 120s")
        {
            Ok(_) => served += 1,
            Err(DsgError::DeadlineExceeded) => expired += 1,
            Err(err) => panic!("unexpected ticket error {err}"),
        }
    }
    assert_eq!(served + expired, accepted.len() as u64);
    assert!(served >= 1, "the overloaded service served nothing");

    // The drained queue exits the ladder: brownout entered AND exited.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let metrics = service.metrics();
        if metrics.brownout_entries >= 1 && metrics.brownout_exits >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "brownout was never both entered ({}) and exited ({})",
            metrics.brownout_entries,
            metrics.brownout_exits
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let done = service.shutdown().expect("first shutdown");
    assert_eq!(done.metrics.submitted, accepted.len() as u64);
    assert_eq!(done.metrics.shed_submits + done.metrics.rejected_overload, refused);
    assert!(done.metrics.brownout_chunks >= 1);
    done.session
        .engine()
        .validate()
        .expect("post-overload deep invariant sweep");
}

/// Fault-injection soak (PR 6; io sites PR 7): a seeded fault schedule
/// walks every named fail-point site several rounds through a live
/// [`DsgService`], proving that (a) each site actually fires under
/// organic traffic, (b) no submission ever hangs — every ticket resolves
/// or is refused with a typed error, (c) a poisoned service recovers and
/// keeps serving, and (d) the surviving engine passes the deep invariant
/// sweep at the end. The service runs with persistence on so the
/// `io.append` / `io.snapshot` / `io.manifest` sites are reachable;
/// checkpoint-path faults are *contained* (the ticket still resolves Ok),
/// so their drive ends on the hit itself rather than on a ticket error.
///
/// Serialized on `failpoint::exclusive()` because the registry is
/// process-global.
#[test]
#[ignore = "long-horizon soak; run explicitly (CI soak job) with --ignored"]
fn soak_fault_injection_schedule() {
    use std::time::Duration;

    const PEERS: u64 = 128;
    const ROUNDS: u64 = 3;
    /// Per-site cap on driven requests before declaring the site dead.
    const DRIVE_CAP: usize = 400;

    let _guard = failpoint::exclusive();
    failpoint::disarm_all();

    let dir = std::env::temp_dir().join(format!("dsg-soak-faults-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // Checkpoint every 8 epochs: with serial submissions (one-request
    // chunks) the 1st..4th checkpoint hit lands well inside DRIVE_CAP.
    let config = ServiceConfig {
        persist: Some(dsg::PersistConfig::default().with_snapshot_every(8)),
        ..ServiceConfig::default()
    };
    let (mut service, _) = DsgService::open(&dir, DsgSession::builder().peers(0..PEERS).seed(0xFA17), config)
        .expect("soak store cold-starts");
    let mut mix = Mix(0xFA17_C0DE);
    let mut recoveries = 0usize;

    for round in 0..ROUNDS {
        for &site in failpoint::sites() {
            let before = failpoint::hit_count(site);
            // The seeded schedule varies *when* each site fires per round
            // (1st..4th hit after arming) without giving up determinism.
            let nth = failpoint::seeded_nth(0xFA17 ^ round, site, 4);
            failpoint::arm(site, nth);
            let contained = site == failpoint::IO_SNAPSHOT || site == failpoint::IO_MANIFEST;

            // Drive organic traffic until the armed site trips, capped so a
            // dead site fails the test instead of spinning forever.
            let mut tripped = false;
            for _ in 0..DRIVE_CAP {
                let u = mix.next() % PEERS;
                let mut v = mix.next() % PEERS;
                if v == u {
                    v = (v + 1) % PEERS;
                }
                let submitted =
                    service.submit_deadline(Request::communicate(u, v), Duration::from_secs(30));
                match submitted {
                    Ok(ticket) => match ticket.wait() {
                        // A contained checkpoint fault never fails the
                        // ticket — the exhausted countdown (the counter
                        // reaching the armed nth) is the only evidence.
                        Ok(_) => {
                            if contained && failpoint::hit_count(site) >= before + nth {
                                tripped = true;
                                break;
                            }
                        }
                        Err(DsgError::EpochAborted(_))
                        | Err(DsgError::EnginePoisoned)
                        | Err(DsgError::Persist(_)) => {
                            tripped = true;
                            break;
                        }
                        Err(err) => panic!("round {round}, site {site}: unexpected {err}"),
                    },
                    Err(SubmitError::Poisoned) => {
                        tripped = true;
                        break;
                    }
                    Err(err) => panic!("round {round}, site {site}: refused with {err}"),
                }
            }
            // `disarm_all` zeroes the hit counters, so read the evidence first.
            let hits = failpoint::hit_count(site);
            failpoint::disarm_all();
            assert!(
                tripped && hits > before,
                "round {round}: site {site} never fired within {DRIVE_CAP} requests"
            );

            if service.is_poisoned() {
                let report = service.recover().unwrap_or_else(|e| {
                    panic!("round {round}: recovery after {site} failed: {e}")
                });
                assert!(report.peers > 0, "recovery after {site} kept no peers");
                recoveries += 1;
            }
            // Back-to-health probe: the service serves cleanly again.
            for probe in 0..4u64 {
                let u = (mix.next() + probe) % PEERS;
                let v = (u + 1 + mix.next() % (PEERS - 1)) % PEERS;
                service
                    .submit_deadline(Request::communicate(u, v), Duration::from_secs(30))
                    .expect("healthy service admits")
                    .wait()
                    .unwrap_or_else(|e| {
                        panic!("round {round}: post-{site} probe failed: {e}")
                    });
            }
        }
    }
    // Apply-side sites poison every round, so the schedule exercised the
    // recovery path at least that often; the checkpoint-path sites each
    // abandon one checkpoint per round without failing anything.
    assert!(recoveries >= 2 * ROUNDS as usize);
    let done = service.shutdown().expect("first shutdown");
    assert_eq!(done.metrics.recoveries as usize, recoveries);
    assert!(done.metrics.snapshot_failures >= 2 * ROUNDS);
    done.session
        .engine()
        .validate()
        .expect("post-schedule deep invariant sweep");
    std::fs::remove_dir_all(&dir).ok();
}
