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

/// One arm of the overload A/B: what an open-loop drive left behind.
struct OverloadArm {
    accepted: u64,
    refused: u64,
    served: u64,
    status: ServiceStatus,
    done: dsg::service::ShutdownOutcome,
}

/// Offers `schedule` open-loop — each request at its due time, whatever
/// the service is doing — to a service spawned over `session` with
/// `config`; every 4th request carries a deadline. Waits for every
/// accepted ticket, then waits for `settled` to hold on the metrics, and
/// shuts down.
fn drive_open_loop(
    session: DsgSession,
    config: ServiceConfig,
    schedule: &[(std::time::Duration, Request)],
    settled: impl Fn(&ServiceMetrics) -> bool,
) -> OverloadArm {
    use std::time::{Duration, Instant};

    let mut service = DsgService::spawn(session, config).unwrap();
    let start = Instant::now();
    let mut accepted: Vec<Ticket> = Vec::new();
    let mut refused = 0u64;
    for (i, &(due, request)) in schedule.iter().enumerate() {
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

    let deadline = Instant::now() + Duration::from_secs(30);
    while !settled(&service.metrics()) {
        assert!(
            Instant::now() < deadline,
            "the drained service never settled: {:?}",
            service.metrics()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let status = service.status();
    let done = service.shutdown().expect("first shutdown");
    assert_eq!(done.metrics.submitted, accepted.len() as u64);
    assert_eq!(
        done.metrics.shed_submits + done.metrics.rejected_overload,
        refused
    );
    done.session
        .engine()
        .validate()
        .expect("post-overload deep invariant sweep");
    OverloadArm {
        accepted: accepted.len() as u64,
        refused,
        served,
        status,
        done,
    }
}

/// Overload soak (PR 9) and its A/B: an open-loop driver offers mixed
/// traffic at 2× the rate the service was measured to sustain, with
/// shedding and brownout enabled. The run proves that (a) no accepted
/// ticket ever leaks — every one resolves with an outcome or a typed
/// error, (b) the controller actually walked the degradation ladder
/// (brownout entered AND exited), (c) overload surfaced to producers as
/// typed refusals, and (d) the surviving engine passes the deep invariant
/// sweep. An off twin replays the same schedule with no controller: it
/// sheds and browns out nothing, and (e) the shedding arm keeps a strictly
/// lower median queue sojourn and a tail no higher than the twin's (both
/// arms share the ramp before the controller engages, and the power-of-two
/// histogram buckets can tie at the top).
#[test]
#[ignore = "long-horizon soak; run explicitly (CI soak job) with --ignored"]
fn soak_overload_shedding_and_brownout() {
    use std::time::{Duration, Instant};

    use dsg_workloads::{OpenLoop, Workload, ZipfPairs};

    let _guard = failpoint::exclusive();

    const PEERS: u64 = 192;
    /// Requests served before the calibration's clock starts. The cold
    /// sketch gates most of the trace's first few hundred requests, so a
    /// rate timed over them is several times what the service sustains;
    /// by this point it restructures about four requests in five, as it
    /// does over the rest of the drive.
    const WARM_UP: usize = 5_000;
    const CALIBRATE: usize = 2_000;
    /// Two to three seconds of offered load on a 2-vCPU box: long enough
    /// that the ramp before the controller engages (both arms share it)
    /// is a small part of the drive, so the off twin's unbounded backlog
    /// sets its median sojourn.
    const OFFERED: usize = 20_000;

    // Phase A — calibration: the rate the service sustains under a
    // standing backlog (runs of up to `ingest_batch` requests, as in the
    // overloaded drive) of the same skewed workload the overload phase
    // offers, timed once the sketch has warmed up.
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
    let mut serve_backlogged = |requests: usize| {
        let tickets: Vec<Ticket> = (0..requests)
            .map(|_| {
                calibration
                    .submit_deadline(workload.next_request(), Duration::from_secs(30))
                    .expect("calibration admits")
            })
            .collect();
        for ticket in tickets {
            ticket.wait().expect("calibration serves cleanly");
        }
    };
    serve_backlogged(WARM_UP);
    let started = Instant::now();
    serve_backlogged(CALIBRATE);
    let capacity_rps =
        ((CALIBRATE as f64 / started.elapsed().as_secs_f64()) as u64).clamp(50, 2_000_000);
    drop(calibration);

    // Phase B — one open-loop schedule at 2× capacity, offered to a fresh
    // service with the overload layer on and to an off twin without it.
    // The queue holds the whole schedule, so the twin refuses nothing.
    let schedule =
        OpenLoop::new(ZipfPairs::new(PEERS, 1.1, 0xA5), 2 * capacity_rps).schedule(OFFERED);
    let queue = ServiceConfig {
        queue_capacity: 65_536,
        ..ServiceConfig::default()
    };
    let overload = OverloadConfig::default()
        .with_brownout_target(Duration::from_millis(2))
        .with_shed_target(Duration::from_millis(10))
        .with_interval(Duration::from_millis(20))
        .with_retry_after(Duration::from_millis(5));
    // The drained queue exits the ladder: brownout entered AND exited.
    let on = drive_open_loop(build(), queue.with_overload(overload), &schedule, |m| {
        m.brownout_entries >= 1 && m.brownout_exits >= 1
    });
    assert!(on.refused >= 1, "2x offered load never produced a refusal");
    assert!(on.done.metrics.brownout_chunks >= 1);

    let off = drive_open_loop(build(), queue, &schedule, |_| true);
    assert_eq!(
        off.refused, 0,
        "the off twin's queue holds the whole schedule"
    );
    assert_eq!(
        off.done.metrics.shed_submits, 0,
        "no controller, no shedding"
    );
    assert_eq!(
        off.done.metrics.brownout_chunks, 0,
        "no controller, no brownout"
    );

    let summary = format!(
        "on: {}/{} served, {} refused, sojourn p50 {} us p99 {} us; \
         off: {}/{} served, sojourn p50 {} us p99 {} us",
        on.served,
        on.accepted,
        on.refused,
        on.status.sojourn_p50_us,
        on.status.sojourn_p99_us,
        off.served,
        off.accepted,
        off.status.sojourn_p50_us,
        off.status.sojourn_p99_us
    );
    eprintln!("overload A/B at {capacity_rps} req/s x2: {summary}");
    assert!(
        on.status.sojourn_p50_us < off.status.sojourn_p50_us,
        "shedding did not improve the median sojourn ({summary})"
    );
    assert!(
        on.status.sojourn_p99_us <= off.status.sojourn_p99_us,
        "shedding worsened the tail sojourn ({summary})"
    );
}

/// Fault-injection soak (PR 6; io sites PR 7): a seeded fault schedule
/// walks every named fail-point site several rounds through a live
/// [`DsgService`], proving that (a) each site actually fires under
/// organic traffic, (b) no submission ever hangs — every ticket resolves
/// or is refused with a typed error, (c) a poisoned service recovers and
/// keeps serving, and (d) the surviving engine passes the deep invariant
/// sweep at the end. The service runs with persistence on so the
/// `io.append` / `io.snapshot` / `io.publish` sites are reachable;
/// checkpoint-path faults are *contained* (the ticket still resolves Ok),
/// so their drive ends on the hit itself rather than on a ticket error.
/// Finally (e) the store the schedule leaves behind restarts
/// bit-identical to the engine it served: every round ends on an
/// `io.publish` fault, whose snapshot is renamed into place after every
/// fault of the round, so the restart starts at or past it.
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
            let contained = site == failpoint::IO_SNAPSHOT || site == failpoint::IO_PUBLISH;

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
    let (mut restarted, report) = DsgService::open(
        &dir,
        DsgSession::builder().peers(0..PEERS).seed(0xFA17),
        config,
    )
    .expect("the soaked store reopens");
    assert!(report.recovered);
    let back = restarted.shutdown().expect("shutdown after the restart");
    assert!(
        back.session.engine().capture_image() == done.session.engine().capture_image(),
        "the restart diverged from the soaked engine"
    );
    std::fs::remove_dir_all(&dir).ok();
}
