//! Integration suite of the [`DsgService`] front-end (PR 6): ticket
//! lifecycle under backpressure, fail-point-driven fault containment on
//! both sides of the plan/apply boundary, recovery, and the headline
//! determinism property — a multi-producer pipelined run replays bit for
//! bit through a sequential `submit_batch` of its journal.
//!
//! Every test that drives a service holds `failpoint::exclusive()`: the
//! registry is process-global, so an engine running beside a
//! fault-injection test would trip, or consume, the fault that test armed.
//! Fault-injection tests also disarm on every exit path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use dsg::failpoint;
use dsg::prelude::*;
use dsg::service::ShutdownOutcome;

mod common;
use common::assert_networks_agree;

fn build(n: u64, seed: u64) -> DsgSession {
    DsgSession::builder()
        .peers(0..n)
        .seed(seed)
        .build()
        .expect("peer keys 0..n are distinct")
}

/// Submits each request, waits on its ticket, and panics on any failure.
fn serve_all(service: &DsgService, requests: &[Request]) {
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|&r| {
            service
                .submit_deadline(r, Duration::from_secs(30))
                .expect("queue admits within 30s")
        })
        .collect();
    for ticket in tickets {
        ticket.wait().expect("request serves cleanly");
    }
}

// ---------------------------------------------------------------------
// Ticket lifecycle under backpressure
// ---------------------------------------------------------------------

/// An observer whose `on_epoch` blocks until the test releases it —
/// a deterministic "slow engine" that wedges the ingest thread mid-epoch.
#[derive(Default)]
struct GateInner {
    entered: Mutex<bool>,
    released: Mutex<bool>,
    changed: Condvar,
}

struct GateObserver(Arc<GateInner>);

impl DsgObserver for GateObserver {
    fn on_epoch(&mut self, _event: &EpochEvent) {
        {
            let mut entered = self.0.entered.lock().unwrap();
            *entered = true;
            self.0.changed.notify_all();
        }
        let mut released = self.0.released.lock().unwrap();
        while !*released {
            released = self.0.changed.wait(released).unwrap();
        }
    }
}

impl GateInner {
    fn wait_entered(&self) {
        let mut entered = self.entered.lock().unwrap();
        while !*entered {
            entered = self.changed.wait(entered).unwrap();
        }
    }

    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.changed.notify_all();
    }
}

#[test]
fn slow_engine_backpressure_is_typed_and_leaks_no_tickets() {
    let _guard = failpoint::exclusive();
    let gate = Arc::new(GateInner::default());
    let mut session = build(32, 5);
    session.add_observer(Arc::new(Mutex::new(GateObserver(Arc::clone(&gate)))));
    let mut service = DsgService::spawn(
        session,
        ServiceConfig {
            queue_capacity: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();

    // r1 is drained immediately and wedges the ingest thread inside its
    // epoch's observer callback; the queue is empty again.
    let r1 = service.submit(Request::communicate(0, 16)).unwrap();
    gate.wait_entered();
    // r2 fills the capacity-1 queue behind the wedged engine.
    let r2 = service.submit(Request::communicate(1, 17)).unwrap();
    // Non-blocking submission: typed overload.
    assert_eq!(
        service.submit(Request::communicate(2, 18)).unwrap_err(),
        SubmitError::Overloaded
    );
    // Blocking submission: typed timeout once the deadline passes.
    assert_eq!(
        service
            .submit_deadline(Request::communicate(2, 18), Duration::from_millis(50))
            .unwrap_err(),
        SubmitError::Timeout
    );
    assert!(r1.try_result().is_none(), "r1 resolved while wedged");

    // Unwedge: every accepted ticket resolves, nothing leaks.
    gate.release();
    r1.wait().unwrap();
    r2.wait().unwrap();
    let done = service.shutdown().expect("first shutdown");
    assert_eq!(done.metrics.submitted, 2);
    assert_eq!(done.metrics.rejected_overload, 1);
    assert_eq!(done.metrics.submit_timeouts, 1);
    assert!(done.metrics.max_queue_depth >= 1);
    done.session.engine().validate().unwrap();
}

#[test]
fn drain_shutdown_serves_the_backlog() {
    let _guard = failpoint::exclusive();
    let mut service = DsgService::spawn(
        build(64, 6),
        ServiceConfig {
            queue_capacity: 512,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let tickets: Vec<Ticket> = (0..32u64)
        .map(|i| service.submit(Request::communicate(i, i + 32)).unwrap())
        .collect();
    let done = service.shutdown().expect("first shutdown");
    for ticket in &tickets {
        ticket
            .wait()
            .expect("drain policy serves every queued request");
    }
    assert_eq!(done.metrics.submitted, 32);
    done.session.engine().validate().unwrap();

    // A second shutdown is a typed error, never a panic — and the handle
    // can still be dropped safely afterwards.
    assert!(matches!(
        service.shutdown().unwrap_err(),
        DsgError::AlreadyShutDown
    ));
    drop(service);
}

// ---------------------------------------------------------------------
// Fault containment: the plan side of the boundary
// ---------------------------------------------------------------------

/// Arms `site` for its first hit, submits `faulted` as a burst, and
/// asserts at least one ticket resolves with `EpochAborted` while every
/// other ticket either rides in the aborted chunk or serves cleanly once
/// the one-shot fault is consumed. Returns the shutdown outcome.
fn run_with_abort_fault(
    site: &str,
    n: u64,
    seed: u64,
    warmup: &[Request],
    faulted: &[Request],
    after: &[Request],
) -> ShutdownOutcome {
    let mut service = DsgService::spawn(
        build(n, seed),
        ServiceConfig {
            record_journal: true,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    serve_all(&service, warmup);

    failpoint::arm(site, 1);
    let tickets: Vec<Ticket> = faulted
        .iter()
        .map(|&r| service.submit_deadline(r, Duration::from_secs(30)).unwrap())
        .collect();
    // The ingest thread is free to cut the burst into several chunks; only
    // the chunk that trips the one-shot fault aborts, the rest serve.
    let mut aborted = 0usize;
    for ticket in tickets {
        match ticket.wait() {
            Ok(_) => {}
            Err(DsgError::EpochAborted(_)) => aborted += 1,
            Err(err) => panic!("expected EpochAborted or success, got {err}"),
        }
    }
    assert!(aborted >= 1, "the armed {site} fault never fired");
    failpoint::disarm_all();
    assert!(!service.is_poisoned(), "plan-side faults must not poison");

    serve_all(&service, after);
    service.shutdown().expect("first shutdown")
}

#[test]
fn plan_stage_fault_aborts_the_epoch_and_leaves_the_engine_untouched() {
    let _guard = failpoint::exclusive();
    failpoint::disarm_all();
    let n = 48u64;
    let warmup: Vec<Request> = (0..8).map(|i| Request::communicate(i, i + 24)).collect();
    let faulted: Vec<Request> = (8..12).map(|i| Request::communicate(i, i + 24)).collect();
    let after: Vec<Request> = (12..16).map(|i| Request::communicate(i, i + 24)).collect();

    let done = run_with_abort_fault(failpoint::PLAN_WORKER, n, 77, &warmup, &faulted, &after);
    assert!(done.metrics.plan_aborts >= 1);
    assert_eq!(done.metrics.poisonings, 0);

    // Bit-for-bit containment: replaying the journal — which records only
    // the *successfully served* chunks — through a fresh session must land
    // on the identical structure. Had the aborted epoch leaked one write,
    // the twin would diverge.
    let mut twin = build(n, 77);
    for chunk in &done.journal {
        twin.submit_batch(chunk).expect("journal replays cleanly");
    }
    assert_networks_agree(
        "plan-abort journal twin",
        done.session.engine(),
        twin.engine(),
    );
}

#[test]
fn ingest_loop_fault_fails_the_run_and_the_service_continues() {
    let _guard = failpoint::exclusive();
    failpoint::disarm_all();
    let n = 32u64;
    let warmup: Vec<Request> = (0..4).map(|i| Request::communicate(i, i + 16)).collect();
    let faulted = [Request::communicate(4, 20), Request::communicate(5, 21)];
    let after = [Request::communicate(6, 22)];

    let done = run_with_abort_fault(failpoint::INGEST_LOOP, n, 13, &warmup, &faulted, &after);
    // The ingest.loop site fires before the engine is entered: contained
    // as a plan-side abort, no poisoning, service kept serving.
    assert!(done.metrics.plan_aborts >= 1);
    assert_eq!(done.metrics.poisonings, 0);
    done.session.engine().validate().unwrap();
}

/// A plan-stage fault in the *second* epoch of a run, after the first
/// epoch applied, is not an abort: the engine holds half of a run that no
/// replay of its (journaled) chunk reproduces, so the service poisons.
#[test]
fn a_plan_fault_after_an_applied_epoch_of_the_run_poisons() {
    let _guard = failpoint::exclusive();
    failpoint::disarm_all();
    let gate = Arc::new(GateInner::default());
    let mut session = build(32, 5);
    session.add_observer(Arc::new(Mutex::new(GateObserver(Arc::clone(&gate)))));
    let mut service = DsgService::spawn(session, ServiceConfig::default()).unwrap();

    // Wedge the ingest loop after its first run's planning, so the next
    // two requests queue up and drain as one run.
    let first = service.submit(Request::communicate(0, 16)).unwrap();
    gate.wait_entered();
    // Peer 1 repeats, so the run splits into two epochs, each planning one
    // cluster: the second planning hit fires.
    failpoint::arm(failpoint::PLAN_WORKER, 2);
    let pair = [
        service.submit(Request::communicate(1, 20)).unwrap(),
        service.submit(Request::communicate(1, 9)).unwrap(),
    ];
    gate.release();
    first.wait().expect("the wedged run serves cleanly");
    for ticket in &pair {
        assert_eq!(ticket.wait().unwrap_err(), DsgError::EnginePoisoned);
    }
    failpoint::disarm_all();
    assert!(service.is_poisoned());
    let metrics = service.metrics();
    assert_eq!((metrics.plan_aborts, metrics.poisonings), (0, 1));

    service.recover().expect("recovery succeeds");
    serve_all(&service, &[Request::communicate(2, 30)]);
    let done = service.shutdown().expect("first shutdown");
    done.session.engine().validate().unwrap();
}

// ---------------------------------------------------------------------
// Fault containment: the apply side of the boundary
// ---------------------------------------------------------------------

fn poison_and_recover(site: &str, seed: u64) {
    let _guard = failpoint::exclusive();
    failpoint::disarm_all();
    let n = 48u64;
    let mut service = DsgService::spawn(build(n, seed), ServiceConfig::default()).unwrap();
    serve_all(
        &service,
        &(0..6)
            .map(|i| Request::communicate(i, i + 24))
            .collect::<Vec<_>>(),
    );

    failpoint::arm(site, 1);
    // Burst of submissions: the first chunk trips the armed fault and
    // poisons the service. Later submissions either get admitted first
    // (their tickets then resolve EnginePoisoned — no hangs) or race the
    // poison transition and are refused at admission with the typed error.
    let mut admitted: Vec<Ticket> = Vec::new();
    for i in 6..10u64 {
        match service.submit_deadline(Request::communicate(i, i + 24), Duration::from_secs(30)) {
            Ok(ticket) => admitted.push(ticket),
            Err(SubmitError::Poisoned) => {}
            Err(err) => panic!("unexpected admission error {err}"),
        }
    }
    assert!(!admitted.is_empty());
    let mut poisoned_tickets = 0usize;
    for ticket in admitted {
        match ticket.wait() {
            Ok(_) => {} // a chunk served before the armed site was reached
            Err(DsgError::EnginePoisoned) => poisoned_tickets += 1,
            Err(err) => panic!("expected EnginePoisoned, got {err}"),
        }
    }
    assert!(poisoned_tickets >= 1, "the armed {site} fault never fired");
    failpoint::disarm_all();
    assert!(service.is_poisoned());

    // New submissions are refused while poisoned.
    assert_eq!(
        service.submit(Request::communicate(1, 30)).unwrap_err(),
        SubmitError::Poisoned
    );

    // Opt-in recovery rebuilds from the surviving state and deep-validates.
    let report = service.recover().expect("recovery succeeds");
    assert!(report.peers > 0 && report.peers <= n as usize);
    assert!(!service.is_poisoned());

    // A second recover finds a healthy service: typed refusal, and the
    // recovered structure is left untouched (idempotent in effect).
    assert!(matches!(
        service.recover().unwrap_err(),
        DsgError::NotPoisoned
    ));

    // The service is fully live again: serve more traffic, then prove the
    // final structure deep-validates clean.
    serve_all(
        &service,
        &(0..6)
            .map(|i| Request::communicate(i + 10, i + 34))
            .collect::<Vec<_>>(),
    );
    let done = service.shutdown().expect("first shutdown");
    assert_eq!(done.metrics.poisonings, 1);
    assert_eq!(done.metrics.recoveries, 1);
    done.session.engine().validate().unwrap();
}

#[test]
fn apply_splice_fault_poisons_then_recovers() {
    poison_and_recover(failpoint::APPLY_SPLICE, 301);
}

#[test]
fn dummy_reconciliation_fault_poisons_then_recovers() {
    // Pass 0 of the reconciling repair is a pure read, but it runs after
    // the epoch's install — the phase marker says Applying, so the
    // containment must poison, not abort.
    poison_and_recover(failpoint::DUMMY_PASS0, 302);
}

// ---------------------------------------------------------------------
// Determinism: pipelined multi-producer run == sequential journal replay
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The service adds concurrency only at the queue boundary: whatever
    /// interleaving the producers race into, replaying the recorded chunk
    /// journal through a fresh single-threaded session reproduces the
    /// final structure bit for bit (graphs, dummy populations, per-peer
    /// state).
    #[test]
    fn pipelined_run_replays_bit_for_bit(
        n in 16u64..48,
        seed in 0u64..1000,
        raw in proptest::collection::vec((0u64..1000, 0u64..1000), 8..48),
        producers in 2usize..5,
        overload_bit in 0u64..2,
    ) {
        let _guard = failpoint::exclusive();
        let overload = overload_bit == 1;
        let requests: Vec<Request> = raw
            .iter()
            .filter_map(|&(a, b)| {
                let (u, v) = (a % n, b % n);
                (u != v).then(|| Request::communicate(u, v))
            })
            .collect();
        if requests.is_empty() {
            return;
        }
        let mut config = ServiceConfig {
            record_journal: true,
            queue_capacity: 8,
            ingest_batch: 4,
            ..ServiceConfig::default()
        };
        if overload {
            // Targets far beyond any real sojourn: the overload layer is
            // armed (controller, watchdog, degraded submit path) but never
            // triggers, and must leave the run bit-identical to a service
            // without it.
            config = config.with_overload(
                OverloadConfig::default()
                    .with_brownout_target(Duration::from_secs(3600))
                    .with_shed_target(Duration::from_secs(7200))
                    .with_stall_after(Duration::from_secs(3600)),
            );
        }
        let mut service = DsgService::spawn(build(n, seed), config).unwrap();
        std::thread::scope(|scope| {
            for slice in requests.chunks(requests.len().div_ceil(producers)) {
                let service = &service;
                scope.spawn(move || {
                    for &request in slice {
                        let ticket = service
                            .submit_deadline(request, Duration::from_secs(30))
                            .expect("queue admits within 30s");
                        ticket.wait().expect("request serves cleanly");
                    }
                });
            }
        });
        let done = service.shutdown().expect("first shutdown");
        // Every request is submitted exactly once, and every run the
        // ingest loop served formed at least one epoch.
        prop_assert_eq!(done.metrics.submitted as usize, requests.len());
        prop_assert!(1 <= done.metrics.batches && done.metrics.batches <= done.metrics.epochs);
        if overload {
            // The armed-but-idle overload layer never degraded anything.
            prop_assert_eq!(done.metrics.shed_submits, 0);
            prop_assert_eq!(done.metrics.deadline_shed, 0);
            prop_assert_eq!(done.metrics.brownout_chunks, 0);
            prop_assert_eq!(done.metrics.counters.pairs_browned_out, 0);
        }

        let mut twin = build(n, seed);
        for chunk in &done.journal {
            twin.submit_batch(chunk).expect("journal replays cleanly");
        }
        assert_networks_agree("service journal twin", done.session.engine(), twin.engine());
        prop_assert_eq!(done.session.epochs(), twin.epochs());
    }
}

// ---------------------------------------------------------------------
// Certified deep audits
// ---------------------------------------------------------------------

/// Counts the deep audit events a service publishes.
#[derive(Default)]
struct DeepAudits {
    passed: u64,
    failed: u64,
}

impl DsgObserver for DeepAudits {
    fn on_audit(&mut self, event: &AuditEvent) {
        if event.deep {
            if event.passed {
                self.passed += 1;
            } else {
                self.failed += 1;
            }
        }
    }
}

/// Serves `requests` one epoch each through a gated service that
/// deep-audits every 4 epochs; returns the final metrics, the number of
/// epochs that restructured, and the deep audit events observed.
fn deep_audit_run(threshold: u32, requests: &[Request]) -> (ServiceMetrics, u64, (u64, u64)) {
    let mut session = DsgSession::builder()
        .peers(0..128)
        .seed(61)
        .policy(PolicyConfig::gated().with_threshold(threshold))
        .build()
        .unwrap();
    let audits = session.observe(DeepAudits::default());
    let config = ServiceConfig {
        ingest_batch: 1,
        deep_audit_every: 4,
        ..ServiceConfig::default()
    };
    let mut service = DsgService::spawn(session, config).unwrap();
    serve_all(&service, requests);
    let done = service.shutdown().expect("first shutdown");
    done.session.engine().validate().unwrap();
    let restructured = done.session.stats().counters.planned_clusters as u64;
    let audits = audits.lock().unwrap();
    (done.metrics, restructured, (audits.passed, audits.failed))
}

/// Fresh pairs of fresh peers: a gated policy routes every one of them.
fn fresh_pairs(range: std::ops::Range<u64>) -> impl Iterator<Item = Request> {
    range.map(|i| Request::communicate(2 * i, 2 * i + 1))
}

#[test]
fn deep_audits_of_a_gated_only_trace_are_certified_after_the_first() {
    let _guard = failpoint::exclusive();
    let requests: Vec<Request> = fresh_pairs(0..40).collect();
    let (metrics, restructured, (passed, failed)) = deep_audit_run(1_000_000, &requests);
    assert_eq!(restructured, 0, "the trace must be gated only");
    assert_eq!(metrics.epochs, 40);
    assert_eq!(metrics.deep_audits, 10, "every audit due is counted");
    // Only the first deep audit sweeps; nothing changed after it.
    assert_eq!(metrics.deep_audits_certified, 9);
    // The deep audit event fires for certified audits too.
    assert_eq!((passed, failed), (metrics.deep_audits, 0));
    assert_eq!(metrics.audit_failures, 0);
}

#[test]
fn an_interval_holding_one_admitted_request_runs_validate() {
    let _guard = failpoint::exclusive();
    // Epochs 1-16 and 20-40 are gated; (100, 101) restructures at its
    // third request, epoch 19, inside the interval the epoch-20 deep
    // audit closes.
    let mut requests: Vec<Request> = fresh_pairs(0..16).collect();
    requests.extend([Request::communicate(100, 101); 3]);
    requests.extend(fresh_pairs(16..37));
    let (metrics, restructured, (passed, failed)) = deep_audit_run(3, &requests);
    assert_eq!(restructured, 1, "exactly one request is admitted");
    assert_eq!(metrics.epochs, 40);
    assert_eq!(metrics.deep_audits, 10);
    // The sweeps at epochs 4 (the first) and 20 (after the admitted
    // request) run; the other eight are certified.
    assert_eq!(metrics.deep_audits_certified, 8);
    assert_eq!((passed, failed), (metrics.deep_audits, 0));
}

// ---------------------------------------------------------------------
// Durable journal vs the in-memory recording oracle
// ---------------------------------------------------------------------

fn temp_store_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dsg-service-{tag}-{}-{n}", std::process::id()))
}

/// With persistence on, the chunk journal handed back by `shutdown` is
/// read back from the durable log: it holds every acknowledged request
/// exactly once, and replaying it through a fresh session reproduces the
/// served structure.
#[test]
fn durable_journal_holds_every_request_once_and_replays_the_engine() {
    let _guard = failpoint::exclusive();
    let dir = temp_store_dir("journal");
    let n = 32u64;
    let config = ServiceConfig {
        ingest_batch: 4,
        persist: Some(PersistConfig::default()),
        ..ServiceConfig::default()
    };
    let (mut service, report) =
        DsgService::open(&dir, DsgSession::builder().peers(0..n).seed(41), config)
            .expect("cold start");
    assert!(!report.recovered);

    let requests: Vec<Request> = (0..24)
        .map(|i| Request::communicate(i % n, (i + 7) % n))
        .collect();
    serve_all(&service, &requests);
    let status = service.status();
    assert!(
        status.journal_bytes > 0,
        "served chunks must hit the journal"
    );
    let done = service.shutdown().expect("first shutdown");

    assert_eq!(
        done.journal.len() as u64,
        done.metrics.batches,
        "one journal frame per served run"
    );
    assert_eq!(
        done.journal.iter().map(Vec::len).sum::<usize>(),
        requests.len(),
        "every acknowledged request is journaled exactly once"
    );
    let mut twin = build(n, 41);
    for chunk in &done.journal {
        twin.submit_batch(chunk).expect("journal replays cleanly");
    }
    assert_networks_agree("durable journal twin", done.session.engine(), twin.engine());
    std::fs::remove_dir_all(&dir).ok();
}

/// `metrics()` and `status()` each return one moment's counters, never a
/// mix of two: a served run's `batches`, `epochs` and engine counters move
/// together, and so do a deep audit's two counters. One closed-loop
/// producer makes every run one request, so one epoch of one cluster;
/// every epoch is deep-audited (most audits are certified, since the gate
/// routes most pairs) and checkpointed; a second thread reads both views
/// throughout.
#[test]
fn metrics_and_status_are_each_one_consistent_snapshot() {
    let _guard = failpoint::exclusive();
    let dir = temp_store_dir("snapshot");
    let config = ServiceConfig {
        deep_audit_every: 1,
        persist: Some(PersistConfig::default().with_snapshot_every(1)),
        ..ServiceConfig::default()
    };
    let builder = DsgSession::builder()
        .peers(0..64)
        .seed(23)
        .policy(PolicyConfig::gated());
    let (mut service, _) = DsgService::open(&dir, builder, config).expect("cold start");
    let requests = 300u64;
    let served = AtomicBool::new(false);
    let reads = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let check = |m: &ServiceMetrics| {
                assert_eq!(m.epochs, m.batches, "{m:?}");
                assert_eq!(m.counters.clusters as u64, m.epochs, "{m:?}");
                assert!(m.deep_audits_certified <= m.deep_audits, "{m:?}");
            };
            let mut reads = 0u64;
            while !served.load(Ordering::Acquire) {
                check(&service.metrics());
                check(&service.status().metrics);
                reads += 2;
            }
            reads
        });
        for i in 0..requests {
            // Four pairs recur every 8 requests and sixteen every 32: the
            // gate admits some epochs and routes others, so deep audits
            // both sweep and certify.
            let v = if i % 2 == 0 { 32 + i % 8 } else { 32 + i % 32 };
            let ticket = service
                .submit_deadline(Request::communicate(i % 8, v), Duration::from_secs(30))
                .expect("queue admits within 30s");
            ticket.wait().expect("request serves cleanly");
        }
        served.store(true, Ordering::Release);
        poller.join().expect("every read is consistent")
    });
    let metrics = service.shutdown().expect("shutdown").metrics;
    assert!(reads > 0);
    assert_eq!((metrics.batches, metrics.epochs), (requests, requests));
    assert_eq!(
        (metrics.deep_audits, metrics.snapshots),
        (requests, requests)
    );
    assert!(metrics.deep_audits_certified > 0 && metrics.counters.planned_clusters > 0);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the builder accepts, the store reopens. Over every engine
    /// config field (the balance parameter, the median, and the policy's
    /// kind, threshold, budget and aging period) and the
    /// service and persistence settings `open` takes, invalid values
    /// included: either `open` refuses the config typed, because `build`
    /// does or because the queue or the ingest batch is empty, or a durable
    /// service built from it serves a few requests, shuts down, and reopens
    /// to an equal `capture_image`.
    #[test]
    fn whatever_the_builder_accepts_the_store_reopens(
        (a, median) in (0usize..5, 0usize..2),
        (gated, threshold, budget, period) in (0usize..2, 0usize..4, 0usize..3, 0usize..4),
        (queue, batch, deep, fsync, snapshot) in
            (0usize..3, 0usize..3, 0usize..3, 0usize..3, 0usize..3),
        seed in 0u64..u64::MAX,
    ) {
        let _guard = failpoint::exclusive();
        let policy = PolicyConfig {
            policy: [AdaptPolicy::Always, AdaptPolicy::Gated][gated],
            threshold: [0, 1, 2, u32::MAX][threshold],
            epoch_budget: [0, 1, u32::MAX][budget],
            aging_period: [0, 1, 64, 4096][period],
        };
        let median = [MedianStrategy::Amf, MedianStrategy::Exact][median];
        let engine = DsgConfig { a, median, seed, policy };
        let builder = || DsgSession::builder().peers(0..16).config(engine);
        // Each setting is 0, 1 or its default.
        let (defaults, persist) = (ServiceConfig::default(), PersistConfig::default());
        let config = ServiceConfig {
            queue_capacity: [0, 1, defaults.queue_capacity][queue],
            ingest_batch: [0, 1, defaults.ingest_batch][batch],
            deep_audit_every: [0, 1, defaults.deep_audit_every][deep],
            persist: Some(PersistConfig {
                fsync_every: [0, 1, persist.fsync_every][fsync],
                snapshot_every: [0, 1, persist.snapshot_every][snapshot],
            }),
            ..defaults
        };
        let valid_service = queue > 0 && batch > 0;
        let dir = temp_store_dir("builder");
        let built = builder().build().map(|_| ());
        if let Err(err) = &built {
            prop_assert!(matches!(err, DsgError::InvalidConfig(_)), "{err:?}");
        }
        match DsgService::open(&dir, builder(), config) {
            Err(refused) => {
                prop_assert!(matches!(refused, DsgError::InvalidConfig(_)), "{refused:?}");
                prop_assert!(built.is_err() || !valid_service, "refused {config:?}: {refused:?}");
            }
            Ok((mut service, _)) => {
                prop_assert!(built.is_ok() && valid_service, "opened {engine:?}, {config:?}");
                // Three pairs, each repeated, so a gated policy admits some.
                let offset = 1 + seed % 15;
                let requests: Vec<Request> = (0..12u64)
                    .map(|i| Request::communicate(i % 3, (i % 3 + offset) % 16))
                    .collect();
                serve_all(&service, &requests);
                let served = service.shutdown().expect("shutdown").session.engine().capture_image();
                let (mut reopened, report) =
                    DsgService::open(&dir, builder(), config).expect("reopen");
                prop_assert!(report.recovered);
                let restored = reopened.shutdown().expect("shutdown").session.engine().capture_image();
                prop_assert_eq!(restored, served);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// Overload control (PR 9): deadline shedding, sojourn shedding, watchdog
// ---------------------------------------------------------------------

#[test]
fn expired_deadline_is_shed_before_the_engine_and_the_ticket_resolves() {
    let _guard = failpoint::exclusive();
    let gate = Arc::new(GateInner::default());
    let mut session = build(32, 9);
    session.add_observer(Arc::new(Mutex::new(GateObserver(Arc::clone(&gate)))));
    let mut service = DsgService::spawn(session, ServiceConfig::default()).unwrap();

    // r1 wedges the ingest thread inside its epoch's observer callback.
    let r1 = service.submit(Request::communicate(0, 16)).unwrap();
    gate.wait_entered();
    // r2's budget expires while it waits behind the wedged engine; r3
    // rides the same drained chunk without a deadline — shedding its
    // neighbour must not touch it.
    let r2 = service
        .submit_with_deadline(Request::communicate(1, 17), Duration::from_millis(10))
        .unwrap();
    let r3 = service.submit(Request::communicate(2, 18)).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    gate.release();

    // Regression (`Ticket::wait_timeout` contract): a shed ticket
    // *resolves* the moment the request is dropped — the waiter is never
    // left to ride out its own timeout.
    match r2.wait_timeout(Duration::from_secs(10)) {
        Some(Err(DsgError::DeadlineExceeded)) => {}
        other => panic!("expected a resolved DeadlineExceeded ticket, got {other:?}"),
    }
    r1.wait().unwrap();
    r3.wait().expect("an expired neighbour must not fail the chunk");
    let done = service.shutdown().expect("first shutdown");
    assert_eq!(done.metrics.deadline_shed, 1);
    assert_eq!(done.metrics.submitted, 3);
    done.session.engine().validate().unwrap();
}

/// An observer that sleeps through every epoch — a deterministic slow
/// engine whose service rate stays far below any offered burst.
struct SlowEngine(Duration);

impl DsgObserver for SlowEngine {
    fn on_epoch(&mut self, _event: &EpochEvent) {
        std::thread::sleep(self.0);
    }
}

#[test]
fn sustained_backlog_engages_shedding_then_recovers() {
    let _guard = failpoint::exclusive();
    let mut session = build(64, 11);
    session.add_observer(Arc::new(Mutex::new(SlowEngine(Duration::from_millis(10)))));
    let overload = OverloadConfig::default()
        .with_brownout_target(Duration::from_millis(2))
        .with_shed_target(Duration::from_millis(8))
        .with_interval(Duration::from_millis(5))
        .with_retry_after(Duration::from_millis(25));
    let mut service = DsgService::spawn(
        session,
        ServiceConfig {
            queue_capacity: 256,
            ingest_batch: 1,
            ..ServiceConfig::default()
        }
        .with_overload(overload),
    )
    .unwrap();

    // Open-loop burst: keep offering work faster than the ~10 ms/epoch
    // engine serves it until the controller turns producers away.
    let mut accepted: Vec<Ticket> = Vec::new();
    let mut refusal = None;
    for i in 0..400u64 {
        match service.submit(Request::communicate(i % 64, (i + 31) % 64)) {
            Ok(ticket) => accepted.push(ticket),
            Err(SubmitError::Shed { retry_after }) => {
                refusal = Some(retry_after);
                break;
            }
            Err(err) => panic!("unexpected refusal {err}"),
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        refusal.expect("sustained overload must engage shedding"),
        Duration::from_millis(25),
        "the shed refusal carries the configured retry-after hint"
    );
    let status = service.status();
    assert!(status.metrics.shed_submits >= 1);
    assert!(
        status.brownout,
        "shedding is the harsher rung: brownout must already be engaged"
    );

    // Producer-side retry: with the queue still ~10 epochs deep, a
    // two-attempt policy burns its retry and hands back the last typed
    // refusal (its backoff is floored at the 25 ms hint).
    let policy = RetryPolicy {
        attempts: 2,
        base: Duration::from_micros(10),
        cap: Duration::from_micros(10),
        seed: 7,
    };
    match service.submit_retry(Request::communicate(5, 40), &policy) {
        Err(SubmitError::Shed { .. }) => {}
        other => panic!("expected the retries to exhaust against the backlog, got {other:?}"),
    }

    // Stop offering: every accepted ticket resolves, the backlog drains,
    // and the idle queue exits the degradation ladder.
    for ticket in accepted {
        ticket.wait().expect("accepted requests serve cleanly");
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = service.metrics();
        if metrics.brownout_exits >= 1 {
            assert!(metrics.brownout_entries >= 1);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the idle queue never exited brownout"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        service.status().sojourn_p99_us > 0,
        "queued requests must have recorded sojourns"
    );
    let done = service.shutdown().expect("first shutdown");
    assert!(done.metrics.shed_submits >= 2, "the retry loop also counted");
    assert!(done.metrics.brownout_chunks >= 1);
    done.session.engine().validate().unwrap();
}

/// An observer recording the watchdog's stall reports.
#[derive(Default)]
struct StallRecorder(Arc<Mutex<Vec<(&'static str, u64)>>>);

impl DsgObserver for StallRecorder {
    fn on_stall(&mut self, event: &StallEvent) {
        self.0
            .lock()
            .unwrap()
            .push((event.stage, event.stalled_for_ns));
    }
}

#[test]
fn watchdog_reports_a_wedged_ingest_loop() {
    let _guard = failpoint::exclusive();
    failpoint::disarm_all();
    let stalls: Arc<Mutex<Vec<(&'static str, u64)>>> = Arc::default();
    let mut session = build(32, 13);
    session.add_observer(Arc::new(Mutex::new(StallRecorder(Arc::clone(&stalls)))));
    let mut service = DsgService::spawn(
        session,
        ServiceConfig::default()
            .with_overload(OverloadConfig::default().with_stall_after(Duration::from_millis(40))),
    )
    .unwrap();

    // The armed sleep wedges the ingest loop for 250 ms inside the engine
    // stage — far past the 40 ms stall threshold, so the watchdog must
    // report exactly one stuck-heartbeat episode.
    failpoint::arm_sleep(failpoint::INGEST_LOOP, 1, 250);
    let ticket = service.submit(Request::communicate(0, 16)).unwrap();
    ticket
        .wait()
        .expect("a sleeping fail point injects delay, not failure");
    failpoint::disarm_all();

    {
        let recorded = stalls.lock().unwrap();
        assert!(!recorded.is_empty(), "the watchdog never fired");
        assert!(recorded.iter().all(|&(stage, _)| stage == "engine"));
        assert!(recorded.iter().all(|&(_, ns)| ns >= 40_000_000));
    }
    let done = service.shutdown().expect("first shutdown");
    assert!(done.metrics.stalls >= 1);
    done.session.engine().validate().unwrap();
}

// ---------------------------------------------------------------------
// The request handoff: no lost wake-ups
// ---------------------------------------------------------------------

/// How long any one submission or ticket wait of the handoff stress may
/// take. A request against a 64-peer engine serves in well under a
/// millisecond, so only a thread that missed its wake-up gets near this.
const WAKE_BOUND: Duration = Duration::from_secs(10);

/// How long a whole handoff stress may take before it fails as hung.
const STRESS_BOUND: Duration = Duration::from_secs(120);

/// Requests each producer submits back to back at the end and awaits
/// while the service shuts down.
const STRESS_TAIL: u64 = 4;

/// Submits `request` in the way `mode` picks: modes 0 and 3 block for
/// queue space in `submit_deadline`, modes 1 and 2 retry a non-blocking
/// `submit` while the queue is full. A submission still waiting at
/// [`WAKE_BOUND`] missed its wake-up, even if the queue then had room.
fn stress_submit(service: &DsgService, request: Request, mode: u64) -> Ticket {
    let started = std::time::Instant::now();
    let ticket = if matches!(mode, 0 | 3) {
        match service.submit_deadline(request, WAKE_BOUND) {
            Ok(ticket) => Some(ticket),
            Err(SubmitError::Timeout) => None,
            Err(other) => panic!("unexpected refusal: {other}"),
        }
    } else {
        loop {
            match service.submit(request) {
                Ok(ticket) => break Some(ticket),
                Err(SubmitError::Overloaded) if started.elapsed() < WAKE_BOUND => {
                    std::thread::yield_now()
                }
                Err(SubmitError::Overloaded) => break None,
                Err(other) => panic!("unexpected refusal: {other}"),
            }
        }
    };
    match ticket {
        Some(ticket) if started.elapsed() < WAKE_BOUND => ticket,
        _ => panic!(
            "no queue space within {WAKE_BOUND:?} (mode {mode}): a blocked producer \
             or the ingest thread missed its wake-up"
        ),
    }
}

/// Awaits `ticket` in the way `mode` picks: `Ticket::wait` (mode 1),
/// `try_result` polling (mode 3) or `wait_timeout` (modes 0 and 2). A
/// waiter still waiting at [`WAKE_BOUND`] missed its wake-up, even if
/// the ticket had resolved by then.
fn stress_resolve(ticket: &Ticket, mode: u64) -> Result<SubmitOutcome, DsgError> {
    let started = std::time::Instant::now();
    let result = match mode {
        1 => Some(ticket.wait()),
        3 => loop {
            if let Some(result) = ticket.try_result() {
                break Some(result);
            }
            if started.elapsed() >= WAKE_BOUND {
                break None;
            }
            std::thread::yield_now();
        },
        _ => ticket.wait_timeout(WAKE_BOUND),
    };
    match result {
        Some(result) if started.elapsed() < WAKE_BOUND => result,
        _ => panic!(
            "no result within {WAKE_BOUND:?} (mode {mode}): a ticket waiter \
             or the ingest thread missed its wake-up"
        ),
    }
}

/// One producer of [`handoff_stress`]: `rounds` requests, each submitted
/// and awaited one after the other in a mode that rotates with the round
/// and the producer. Every eighth round all producers meet at `barrier`
/// and sleep far past the ingest loop's idle spin, so it parks and must
/// be woken (whether it parked is not observable from outside the
/// service, so a sleep stands in for a handshake). Then [`STRESS_TAIL`]
/// requests go out back to back, the producer drops its service handle,
/// reports on `at_tail`, and awaits them while the service shuts down.
/// Returns the requests served.
fn stress_producer(
    p: u64,
    rounds: u64,
    service: Arc<DsgService>,
    barrier: &std::sync::Barrier,
    at_tail: std::sync::mpsc::Sender<()>,
) -> u64 {
    let request = |i: u64| {
        let u = (p * 31 + i * 7) % 64;
        Request::communicate(u, (u + 1 + i % 63) % 64)
    };
    let mut served = 0;
    for i in 0..rounds {
        if i.is_multiple_of(8) {
            barrier.wait();
            std::thread::sleep(Duration::from_millis(1));
        }
        let mode = (p + i) % 4;
        let ticket = stress_submit(&service, request(i), mode);
        stress_resolve(&ticket, mode).expect("the request serves cleanly");
        served += 1;
    }
    let tail: Vec<(u64, Ticket)> = (rounds..rounds + STRESS_TAIL)
        .map(|i| {
            let mode = (p + i) % 4;
            (mode, stress_submit(&service, request(i), mode))
        })
        .collect();
    drop(service);
    at_tail.send(()).expect("the test thread is listening");
    for (mode, ticket) in &tail {
        stress_resolve(ticket, *mode).expect("the drain policy serves the backlog");
        served += 1;
    }
    served
}

/// Lost wake-up stress of the submit → drain → resolve handoff: producers
/// against a capacity-1 queue, so the ingest thread parks and is woken,
/// producers block for queue space and are woken, and tickets resolve
/// with and without a registered waiter, over and over; the service
/// shuts down while the last requests are still in flight. Producers run
/// on unscoped threads, each joined once it finishes, and every wait is
/// bounded: a missed wake-up fails the test with a message instead of
/// hanging it on a thread that never returns.
fn handoff_stress(producers: u64, rounds: u64) {
    use std::sync::{mpsc, Barrier};
    use std::time::Instant;

    let _guard = failpoint::exclusive();
    let started = Instant::now();
    let mut service = Arc::new(
        DsgService::spawn(
            build(64, 23),
            ServiceConfig {
                queue_capacity: 1,
                ..ServiceConfig::default()
            },
        )
        .unwrap(),
    );
    let barrier = Arc::new(Barrier::new(producers as usize));
    let (at_tail, reached_tail) = mpsc::channel();
    let mut handles: Vec<Option<std::thread::JoinHandle<u64>>> = (0..producers)
        .map(|p| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            let at_tail = at_tail.clone();
            Some(std::thread::spawn(move || {
                stress_producer(p, rounds, service, &barrier, at_tail)
            }))
        })
        .collect();
    drop(at_tail);
    // Shut down once every producer is at its tail; a producer that
    // panicked fails the test at once, with its own message.
    let (mut at_tails, mut served, mut done) = (0, 0, None);
    while done.is_none() || handles.iter().any(Option::is_some) {
        for slot in &mut handles {
            if slot
                .as_ref()
                .is_some_and(std::thread::JoinHandle::is_finished)
            {
                let handle = slot.take().expect("checked above");
                served += handle
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e));
            }
        }
        at_tails += reached_tail.try_iter().count() as u64;
        if at_tails == producers && done.is_none() {
            let service = Arc::get_mut(&mut service).expect("every producer dropped its handle");
            done = Some(service.shutdown().expect("first shutdown"));
        }
        assert!(
            started.elapsed() < STRESS_BOUND,
            "{at_tails} of {producers} producers reached their tail: a blocked thread missed its wake-up"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let done = done.expect("the loop ends after the shutdown");
    let total = producers * (rounds + STRESS_TAIL);
    assert_eq!(served, total);
    assert_eq!(done.metrics.submitted, total);
    done.session.engine().validate().unwrap();
}

#[test]
fn handoff_loses_no_wake_ups() {
    handoff_stress(8, 48);
}

/// The heavier variant CI runs in release.
#[test]
#[ignore = "heavier handoff stress; run explicitly (CI fail-point job) with --ignored"]
fn handoff_loses_no_wake_ups_under_heavy_load() {
    handoff_stress(16, 800);
}
