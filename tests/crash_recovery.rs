//! Crash-restart differential harness of the durable service (PR 7).
//!
//! The property under test: for **every** fault-injection site and for
//! **every byte-boundary truncation** of the journal tail, reopening the
//! store yields an engine bit-identical to an uninterrupted twin — a
//! fresh, identically-built session that replays the journal's surviving
//! frames from genesis. Acknowledged requests are always a subsequence of
//! the journaled ones (WAL ordering: append + fsync before apply), and
//! exactly the journaled ones unless an apply fault poisoned the service
//! (a plan-aborted run's frame is taken back), a torn final frame is
//! truncated and never served, and a *corrupt* (bit-flipped but complete)
//! frame is a typed refusal, never applied.
//!
//! Every test holds `failpoint::exclusive()`: the registry is
//! process-global, so an engine running beside the fail-point matrix would
//! trip, or consume, the fault it armed. The matrix also disarms on every
//! exit path.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use dsg::failpoint;
use dsg::persist::{read_journal, PersistError, JOURNAL_FILE};
use dsg::prelude::*;
use dsg::DurableStore;

mod common;
use common::assert_networks_agree;

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dsg-crash-{tag}-{}-{n}", std::process::id()))
}

fn builder(n: u64, seed: u64) -> DsgBuilder {
    DsgSession::builder().peers(0..n).seed(seed)
}

/// Deterministic splitmix64 stream (same recipe as `tests/soak.rs`) so the
/// fail-point drives stay reproducible without a RNG dependency.
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

fn persist_config(fsync_every: u64, snapshot_every: u64, ingest_batch: usize) -> ServiceConfig {
    ServiceConfig {
        ingest_batch,
        persist: Some(
            PersistConfig::default()
                .with_fsync_every(fsync_every)
                .with_snapshot_every(snapshot_every),
        ),
        ..ServiceConfig::default()
    }
}

/// Submits one request and waits for its resolution.
fn serve_one(service: &DsgService, request: Request) -> Result<SubmitOutcome, DsgError> {
    service
        .submit_deadline(request, Duration::from_secs(30))
        .expect("queue admits within 30s")
        .wait()
}

/// The uninterrupted twin: a fresh, identically-built session that
/// replays every surviving journal frame from genesis. The journal file
/// is never rotated, so genesis replay is always well-defined.
fn genesis_twin(dir: &Path, n: u64, seed: u64) -> DsgSession {
    let mut twin = builder(n, seed).build().expect("twin builds");
    for chunk in &read_journal(dir)
        .expect("surviving journal scans clean")
        .frames
    {
        twin.submit_batch(chunk).expect("journal replays cleanly");
    }
    twin
}

/// Reopens the store and hands back the recovered session plus the report.
fn reopen(dir: &Path, n: u64, seed: u64, config: ServiceConfig) -> (DsgSession, OpenReport) {
    let (mut service, report) =
        DsgService::open(dir, builder(n, seed), config).expect("store reopens");
    let done = service.shutdown().expect("first shutdown");
    (done.session, report)
}

/// Asserts `needle` appears inside `hay` in order (a subsequence).
fn assert_subsequence(label: &str, needle: &[Request], hay: &[Request]) {
    let mut hay = hay.iter();
    for request in needle {
        assert!(
            hay.any(|h| h == request),
            "{label}: acknowledged request {request:?} is not in the journal (in order)"
        );
    }
}

fn flatten(frames: &[Vec<Request>]) -> Vec<Request> {
    frames.iter().flatten().copied().collect()
}

// ---------------------------------------------------------------------
// Cold start, clean restart, and the recovery edge cases
// ---------------------------------------------------------------------

#[test]
fn missing_directory_cold_starts_then_restarts_bit_identical() {
    let _guard = failpoint::exclusive();
    let dir = temp_dir("cold");
    let (n, seed) = (32u64, 11u64);
    let config = persist_config(1, 4, 4);

    let (mut service, report) =
        DsgService::open(&dir, builder(n, seed), config).expect("cold start on a missing dir");
    assert!(!report.recovered);
    assert_eq!(
        report.snapshot_seq, 1,
        "the initial checkpoint is cut eagerly"
    );
    assert_eq!(report.frames_replayed, 0);

    for i in 0..20u64 {
        serve_one(&service, Request::communicate(i % n, (i + 9) % n)).expect("serves cleanly");
    }
    let status = service.status();
    assert!(status.journal_bytes > 0);
    assert!(
        status.snapshot_seq >= 2,
        "the epoch cadence cut checkpoints"
    );
    let done = service.shutdown().expect("first shutdown");

    // Clean restart: the reopened engine equals both the engine we just
    // shut down and the genesis-replay twin, clock included.
    let (restarted, report) = reopen(&dir, n, seed, config);
    assert!(report.recovered);
    assert_eq!(
        report.torn_bytes_truncated, 0,
        "clean shutdown leaves no torn tail"
    );
    assert_networks_agree(
        "clean restart vs pre-shutdown",
        restarted.engine(),
        done.session.engine(),
    );
    assert_eq!(restarted.engine().time(), done.session.engine().time());
    let twin = genesis_twin(&dir, n, seed);
    assert_networks_agree(
        "clean restart vs genesis twin",
        restarted.engine(),
        twin.engine(),
    );
    assert_eq!(restarted.engine().time(), twin.engine().time());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn gated_policy_sketch_survives_restart_bit_identical() {
    let _guard = failpoint::exclusive();
    let dir = temp_dir("sketch");
    let (n, seed) = (32u64, 19u64);
    let config = persist_config(1, 3, 2);
    let gated = || builder(n, seed).policy(PolicyConfig::gated().with_aging_period(16));

    let (mut service, _) = DsgService::open(&dir, gated(), config).expect("cold start");
    // Repeated pairs cross the admission threshold, fresh ones stay
    // gated, and the tiny aging period forces halving passes — so the
    // restored sketch must reproduce non-trivial counters, not zeros.
    for i in 0..24u64 {
        serve_one(&service, Request::communicate(i % 6, (i % 6) + 16)).expect("serves cleanly");
    }
    let status = service.status();
    let counters = status.metrics.counters;
    assert!(counters.pairs_gated > 0, "cold sightings must be gated");
    assert!(counters.sketch_aging_passes > 0, "the tiny period must age");
    let done = service.shutdown().expect("first shutdown");
    let image = done.session.engine().capture_image();
    assert!(
        image.sketch.is_some(),
        "a gated engine checkpoints its sketch"
    );

    // Clean restart: the recovered engine equals the pre-shutdown one
    // bit-for-bit INCLUDING the frequency sketch, so replayed-and-resumed
    // admission decisions continue exactly where the crash left them.
    let (mut restored, report) = DsgService::open(&dir, gated(), config).expect("store reopens");
    assert!(report.recovered);
    let done2 = restored.shutdown().expect("first shutdown");
    assert_eq!(
        done2.session.engine().capture_image(),
        image,
        "restart must restore the sketch bit-identical"
    );

    // And the genesis twin (same gated config, full journal replay)
    // arrives at the same sketch — restart-replay determinism holds with
    // the policy on.
    let mut twin = gated().build().expect("twin builds");
    for chunk in &read_journal(&dir).expect("journal scans clean").frames {
        twin.submit_batch(chunk).expect("journal replays cleanly");
    }
    assert_eq!(twin.engine().capture_image(), image);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_crash_after_a_reused_checkpoint_restarts_bit_identical() {
    let _guard = failpoint::exclusive();
    let dir = temp_dir("reused");
    let (n, seed) = (64u64, 23u64);
    let gated = || builder(n, seed).policy(PolicyConfig::gated().with_threshold(3));
    // One request per epoch, a checkpoint every 2 epochs.
    let config = persist_config(1, 2, 1);
    let (service, _) = DsgService::open(&dir, gated(), config).expect("cold start");
    // A pair's third request is hot and restructures (epoch 3); fresh
    // pairs of fresh peers are gated. The checkpoints after epochs 2, 6, 8
    // and 10 find the engine's stamp where the previous one left it and
    // reuse its node section; the one after epoch 4 encodes every node.
    let mut requests = vec![Request::communicate(40, 41); 3];
    requests.extend((0..8u64).map(|i| Request::communicate(2 * i, 2 * i + 1)));
    let mut reused_through_epoch_8 = 0;
    for (i, &request) in requests.iter().enumerate() {
        serve_one(&service, request).expect("serves cleanly");
        if i + 1 == 9 {
            // Run 8 and its checkpoint finished before run 9 started.
            let metrics = service.metrics();
            assert_eq!(metrics.snapshots, 4);
            reused_through_epoch_8 = metrics.snapshots_reused;
        }
    }
    let metrics = service.metrics();
    assert_eq!(metrics.snapshots, 5);
    assert_eq!(metrics.snapshots_reused, 4, "{metrics:?}");
    assert_eq!(
        metrics.snapshots_reused,
        reused_through_epoch_8 + 1,
        "the checkpoint the crash lands on reused its node section"
    );
    // Crash: the binding is the reused checkpoint after epoch 10, and
    // epoch 11's frame is the journal suffix behind it.
    drop(service);

    // The reopen takes topology and policy from the snapshot, not from the
    // builder.
    let (restarted, report) = reopen(&dir, n, seed, config);
    assert!(report.recovered);
    assert_eq!(report.snapshot_seq, 6, "the initial checkpoint plus five");
    assert_eq!(report.frames_replayed, 1);
    let mut twin = gated().build().expect("twin builds");
    for chunk in &read_journal(&dir).expect("journal scans clean").frames {
        twin.submit_batch(chunk).expect("journal replays cleanly");
    }
    assert_networks_agree("reused checkpoint twin", restarted.engine(), twin.engine());
    assert_eq!(
        restarted.engine().capture_image(),
        twin.engine().capture_image(),
        "clock, RNG or sketch diverged"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_without_a_persist_config_is_refused() {
    let _guard = failpoint::exclusive();
    let dir = temp_dir("nopersist");
    let err = DsgService::open(&dir, builder(8, 1), ServiceConfig::default())
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, DsgError::InvalidConfig(_)));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn stray_journal_without_a_manifest_is_refused() {
    let _guard = failpoint::exclusive();
    let dir = temp_dir("stray");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(JOURNAL_FILE), b"orphaned bytes").unwrap();
    let err = DsgService::open(&dir, builder(8, 1), persist_config(1, 4, 4))
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, DsgError::Persist(PersistError::StrayJournal { .. })),
        "unexpected error: {err}"
    );
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// The torn-write sweep: every byte-boundary truncation of the journal
// ---------------------------------------------------------------------

/// Copies a store directory (snapshots, journal truncated to `keep`
/// bytes) into a fresh directory — a simulated crash image whose
/// final append stopped after exactly `keep` durable bytes.
fn copy_store_truncated(src: &Path, keep: u64, tag: &str) -> PathBuf {
    let dst = temp_dir(tag);
    fs::create_dir_all(&dst).unwrap();
    for entry in fs::read_dir(src).unwrap().flatten() {
        let name = entry.file_name();
        if name.to_str() == Some(JOURNAL_FILE) {
            let mut bytes = fs::read(entry.path()).unwrap();
            bytes.truncate(keep as usize);
            fs::write(dst.join(&name), &bytes).unwrap();
        } else {
            fs::copy(entry.path(), dst.join(&name)).unwrap();
        }
    }
    dst
}

#[test]
fn every_byte_boundary_truncation_recovers_or_refuses_typed() {
    let _guard = failpoint::exclusive();
    let dir = temp_dir("sweep");
    let (n, seed) = (24u64, 23u64);
    // A mid-stream checkpoint (snapshot_every 6) makes the newest snapshot
    // bind a non-zero offset, so the sweep also crosses the bound boundary.
    let config = persist_config(1, 6, 1);
    let (service, _) = DsgService::open(&dir, builder(n, seed), config).expect("cold start");
    for i in 0..14u64 {
        serve_one(&service, Request::communicate(i % n, (i + 5) % n)).expect("serves cleanly");
    }
    drop(service);
    let journal_len = fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
    assert!(journal_len > 0);

    let mut recovered_opens = 0u64;
    let mut short_refusals = 0u64;
    let mut torn_truncations = 0u64;
    for keep in 0..=journal_len {
        let copy = copy_store_truncated(&dir, keep, "sweep-cut");
        match DsgService::open(&copy, builder(n, seed), config) {
            Ok((mut service, report)) => {
                recovered_opens += 1;
                torn_truncations += u64::from(report.torn_bytes_truncated > 0);
                let done = service.shutdown().expect("first shutdown");
                // The surviving prefix (complete frames only — open
                // physically truncated the torn tail) replayed through a
                // fresh twin lands on the identical structure and clock.
                let twin = genesis_twin(&copy, n, seed);
                assert_networks_agree(
                    &format!("truncate@{keep}"),
                    done.session.engine(),
                    twin.engine(),
                );
                assert_eq!(
                    done.session.engine().time(),
                    twin.engine().time(),
                    "truncate@{keep}: logical clocks diverge"
                );
            }
            // Truncating *below* the snapshot's bound offset is not a torn
            // tail — it deleted data a checkpoint vouched for. Typed
            // refusal, never a silent partial recovery.
            Err(DsgError::Persist(PersistError::ShortJournal { .. })) => short_refusals += 1,
            Err(err) => panic!("truncate@{keep}: unexpected error {err}"),
        }
        fs::remove_dir_all(&copy).ok();
    }
    assert_eq!(
        recovered_opens + short_refusals,
        journal_len + 1,
        "every truncation point was exercised"
    );
    assert!(
        short_refusals > 0,
        "the sweep never crossed the snapshot binding"
    );
    assert!(torn_truncations > 0, "the sweep never produced a torn tail");
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// The fail-point matrix: crash at every site, restart, prove equality
// ---------------------------------------------------------------------

#[test]
fn every_fail_point_site_restarts_bit_identical() {
    let _guard = failpoint::exclusive();
    failpoint::disarm_all();
    let (n, seed_base) = (32u64, 400u64);

    for (round, &site) in [
        failpoint::PLAN_WORKER,
        failpoint::APPLY_SPLICE,
        failpoint::DUMMY_PASS0,
        failpoint::INGEST_LOOP,
        failpoint::IO_APPEND,
        failpoint::IO_SNAPSHOT,
        failpoint::IO_PUBLISH,
        failpoint::IO_SYNC,
    ]
    .iter()
    .enumerate()
    {
        let seed = seed_base + round as u64;
        let dir = temp_dir("matrix");
        // One request per chunk/frame, checkpoint every 2 epochs: the
        // snapshot machinery runs mid-test for every site.
        let config = persist_config(1, 2, 1);
        let (service, _) = DsgService::open(&dir, builder(n, seed), config).expect("cold start");

        // Seeded pair stream: varied pairs keep every epoch restructuring
        // (fixed-stride pairs can converge to no-op epochs whose install
        // and dummy passes never run, starving those fail-point sites).
        let mut mix = Mix(0xC8A5 ^ seed);
        let pair = |mix: &mut Mix| {
            let u = mix.next() % n;
            let mut v = mix.next() % n;
            if v == u {
                v = (v + 1) % n;
            }
            Request::communicate(u, v)
        };

        let mut acked: Vec<Request> = Vec::new();
        for _ in 0..4 {
            let request = pair(&mut mix);
            serve_one(&service, request).expect("warmup serves cleanly");
            acked.push(request);
        }

        // Checkpoint-path sites never fail a ticket — the checkpoint is
        // abandoned and the service keeps serving under the old binding —
        // so their drive ends on the hit itself rather than on a fault.
        let snapshot_site = site == failpoint::IO_SNAPSHOT || site == failpoint::IO_PUBLISH;
        failpoint::arm(site, 1);
        let mut faulted = false;
        for _ in 0..400 {
            let request = pair(&mut mix);
            match serve_one(&service, request) {
                Ok(_) => acked.push(request),
                // Plan-side aborts, apply-side poisonings, and journal
                // append faults each surface as their own typed error;
                // any of them ends the drive — the "crash" happens here.
                Err(
                    DsgError::EpochAborted(_) | DsgError::EnginePoisoned | DsgError::Persist(_),
                ) => {
                    faulted = true;
                    break;
                }
                Err(err) => panic!("site {site}: unexpected error {err}"),
            }
            if snapshot_site && failpoint::hit_count(site) >= 1 {
                break;
            }
        }
        let hits = failpoint::hit_count(site);
        failpoint::disarm_all();
        assert!(hits >= 1, "site {site} never fired");
        assert_eq!(
            faulted, !snapshot_site,
            "site {site}: ticket-failure expectation inverted"
        );
        if snapshot_site {
            // A ticket resolves before the checkpoint after its run, so the
            // hit may be seen while the abandoned checkpoint is still
            // unwinding. The ingest loop is sequential: once one more
            // request is served, the failure has been counted.
            let request = pair(&mut mix);
            serve_one(&service, request).expect("serves after the abandoned checkpoint");
            acked.push(request);
            assert!(service.metrics().snapshot_failures >= 1, "site {site}");
        }

        // Crash: drop the handle (possibly poisoned — no recovery) and
        // reopen the directory.
        drop(service);
        let (mut restarted, report) =
            DsgService::open(&dir, builder(n, seed), config).expect("store reopens");
        assert!(report.recovered, "site {site}");

        // The restarted service is live: serve fresh traffic through it.
        for i in 0..3u64 {
            let request = Request::communicate(i + 1, i + 20);
            serve_one(&restarted, request).expect("restarted service serves cleanly");
            acked.push(request);
        }
        let done = restarted.shutdown().expect("first shutdown");

        // Headline equality: recovered engine == genesis-replay twin,
        // structure and logical clock alike — and every acknowledged
        // request (pre- and post-crash) is in the durable journal in
        // order.
        let twin = genesis_twin(&dir, n, seed);
        assert_networks_agree(
            &format!("site {site}"),
            done.session.engine(),
            twin.engine(),
        );
        assert_eq!(
            done.session.engine().time(),
            twin.engine().time(),
            "site {site}: logical clocks diverge"
        );
        let journaled = flatten(&read_journal(&dir).unwrap().frames);
        if site == failpoint::APPLY_SPLICE || site == failpoint::DUMMY_PASS0 {
            // A poisoning fault leaves its unacknowledged run journaled:
            // the restart replays it in full, as the twin does.
            assert_subsequence(&format!("site {site}"), &acked, &journaled);
        } else {
            // An aborted run's frame is taken back, a failed append or
            // cadence fsync is rolled back to the frame's start, and a
            // failed checkpoint fails no ticket: the journal holds exactly
            // the acknowledged requests.
            assert_eq!(journaled, acked, "site {site}: journal != acknowledged");
        }
        fs::remove_dir_all(&dir).ok();
    }
}

/// A run aborted in the plan stage leaves no trace: its frame is taken
/// back off the journal before its ticket resolves, so a restart replays
/// only the served run and lands on the engine that served it, image and
/// logical clock alike — for a fault inside planning and for one before
/// the engine is entered.
#[test]
fn a_plan_aborted_run_leaves_no_frame_to_replay() {
    let _guard = failpoint::exclusive();
    failpoint::disarm_all();
    let (n, seed) = (32u64, 5u64);
    // Every frame fsynced, no periodic checkpoint: the restart replays the
    // whole journal behind the initial snapshot.
    let config = persist_config(1, 0, 1);
    for site in [failpoint::PLAN_WORKER, failpoint::INGEST_LOOP] {
        let dir = temp_dir("plan-abort");
        let (mut service, _) =
            DsgService::open(&dir, builder(n, seed), config).expect("cold start");
        let served = Request::communicate(3, 17);
        serve_one(&service, served).expect("serves cleanly");
        failpoint::arm(site, 1);
        let aborted = serve_one(&service, Request::communicate(5, 21));
        failpoint::disarm_all();
        assert!(
            matches!(aborted, Err(DsgError::EpochAborted(_))),
            "{site}: {aborted:?}"
        );
        assert_eq!(
            service.status().journal_bytes,
            fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(),
            "{site}"
        );
        let done = service.shutdown().expect("first shutdown");
        assert_eq!(done.metrics.plan_aborts, 1, "{site}");

        let (restarted, report) = reopen(&dir, n, seed, config);
        assert_eq!(report.frames_replayed, 1, "{site}");
        assert_eq!(done.journal, vec![vec![served]], "{site}");
        assert_eq!(
            restarted.engine().capture_image(),
            done.session.engine().capture_image(),
            "{site}: the restart diverged from the engine that served"
        );
        assert_eq!(
            restarted.engine().time(),
            done.session.engine().time(),
            "{site}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// Corruption (bit flips) is a typed refusal, never a silent apply
// ---------------------------------------------------------------------

/// Builds a small store with two checkpoints and a journal suffix, then
/// hands back its directory and the served session for comparison.
fn corruption_fixture(tag: &str, n: u64, seed: u64, snapshot_every: u64) -> (PathBuf, DsgSession) {
    let dir = temp_dir(tag);
    let config = persist_config(1, snapshot_every, 1);
    let (mut service, _) = DsgService::open(&dir, builder(n, seed), config).expect("cold start");
    for i in 0..10u64 {
        serve_one(&service, Request::communicate(i % n, (i + 3) % n)).expect("serves cleanly");
    }
    let done = service.shutdown().expect("first shutdown");
    (dir, done.session)
}

fn flip_last_byte(path: &Path) {
    let mut bytes = fs::read(path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    fs::write(path, &bytes).unwrap();
}

#[test]
fn bit_flipped_journal_frame_is_rejected_not_applied() {
    let _guard = failpoint::exclusive();
    // snapshot_every 0: no periodic checkpoints, so the whole journal is
    // the replay suffix and the flipped frame is in recovery's path.
    let (dir, _session) = corruption_fixture("flip-frame", 16, 71, 0);
    // The last byte of the journal is the final frame's payload tail: the
    // frame stays *complete* (same length), so this is corruption — a CRC
    // mismatch — not a torn write.
    flip_last_byte(&dir.join(JOURNAL_FILE));
    let err = DsgService::open(&dir, builder(16, 71), persist_config(1, 0, 1))
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, DsgError::Persist(PersistError::CorruptFrame { .. })),
        "unexpected error: {err}"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_snapshot_falls_back_to_the_previous_checkpoint() {
    let _guard = failpoint::exclusive();
    let (dir, session) = corruption_fixture("flip-snap", 16, 72, 3);
    // Find the newest snapshot file and damage it.
    let newest = fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_str()?.to_string();
            let seq: u64 = name
                .strip_prefix("snap-")?
                .strip_suffix(".img")?
                .parse()
                .ok()?;
            Some((seq, e.path()))
        })
        .max_by_key(|(seq, _)| *seq)
        .expect("the store holds snapshots")
        .1;
    flip_last_byte(&newest);

    let (restarted, report) = reopen(&dir, 16, 72, persist_config(1, 3, 1));
    assert!(
        report.fell_back,
        "recovery must fall back to the previous snapshot"
    );
    // The fallback replays a longer journal suffix and still lands on the
    // exact served structure.
    assert_networks_agree("snapshot fallback", restarted.engine(), session.engine());
    assert_eq!(restarted.engine().time(), session.engine().time());
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Brownout verdicts are journaled and replay bit-identical (PR 9)
// ---------------------------------------------------------------------

#[test]
fn journaled_brownout_verdicts_replay_bit_identical() {
    let _guard = failpoint::exclusive();
    let dir = temp_dir("brownout");
    let (n, seed) = (32u64, 91u64);
    // A gated policy makes the brownout verdict *observable*: under
    // brownout the admission gate degrades to route-only for cold pairs,
    // so replaying a frame with the wrong flag would diverge the sketch
    // and the structure alike.
    let gated = || builder(n, seed).policy(PolicyConfig::gated());
    // Forced degradation: a zero brownout target with a 1 ns evaluation
    // window means every window close finds min > target, so served
    // chunks are journaled under brownout essentially from the start.
    let overload = OverloadConfig::default()
        .with_brownout_target(Duration::ZERO)
        .with_interval(Duration::from_nanos(1));
    let config = persist_config(1, 0, 1).with_overload(overload);

    let (service, _) = DsgService::open(&dir, gated(), config).expect("cold start");
    for i in 0..16u64 {
        // A hot pair mixed with cold ones: route-only verdicts leave a
        // visibly different structure than full admission would.
        let request = if i % 2 == 0 {
            Request::communicate(3, 19)
        } else {
            Request::communicate(i % n, (i + 11) % n)
        };
        serve_one(&service, request).expect("serves cleanly");
    }
    let metrics = service.metrics();
    assert!(metrics.brownout_chunks >= 1, "brownout never engaged");
    // Crash without a shutdown: the journal alone carries the verdicts.
    drop(service);

    let scan = read_journal(&dir).expect("surviving journal scans clean");
    assert_eq!(scan.frames.len(), scan.brownout.len());
    assert!(
        scan.brownout.iter().any(|&flag| flag),
        "no frame recorded a brownout verdict"
    );

    // Reopen WITHOUT the overload layer: recovery must degrade each
    // replayed frame per its journaled flag, not per any live controller.
    let (mut restarted, report) =
        DsgService::open(&dir, gated(), persist_config(1, 0, 1)).expect("store reopens");
    assert!(report.recovered);
    assert_eq!(report.frames_replayed, scan.frames.len() as u64);
    let done = restarted.shutdown().expect("first shutdown");

    // The uninterrupted twin replays the frames with their recorded
    // verdicts; structure, clock, and frequency sketch must all agree.
    let mut twin = gated().build().expect("twin builds");
    for (chunk, &brownout) in scan.frames.iter().zip(&scan.brownout) {
        twin.submit_batch_degraded(chunk, brownout)
            .expect("journal replays cleanly");
    }
    assert_networks_agree("brownout replay twin", done.session.engine(), twin.engine());
    assert_eq!(done.session.engine().time(), twin.engine().time());
    assert_eq!(
        done.session.engine().capture_image(),
        twin.engine().capture_image(),
        "the replayed frequency sketch diverged"
    );
    fs::remove_dir_all(&dir).ok();
}

/// The files of a store directory, by name.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn a_damaged_newest_snapshot_falls_back_and_all_damaged_is_refused_typed() {
    let _guard = failpoint::exclusive();
    // snapshot_every 3 over ten one-request epochs: snapshots 1 to 4, of
    // which the last two are kept.
    let config = persist_config(1, 3, 1);
    let (dir, session) = corruption_fixture("damaged-snaps", 16, 73, 3);
    assert_eq!(file_names(&dir), [JOURNAL_FILE, "snap-3.img", "snap-4.img"]);
    let pristine = fs::read(dir.join("snap-4.img")).unwrap();
    let damages: [(&str, Vec<u8>); 3] = [
        ("garbage", b"not a snapshot at all".to_vec()),
        ("a bit flip", {
            let mut bytes = pristine.clone();
            bytes[pristine.len() / 2] ^= 0x08;
            bytes
        }),
        ("a truncation", pristine[..pristine.len() - 1].to_vec()),
    ];
    for (what, bytes) in &damages {
        fs::write(dir.join("snap-4.img"), bytes).unwrap();
        let (restarted, report) = reopen(&dir, 16, 73, config);
        assert!(report.fell_back, "{what}: recovery must fall back");
        assert_eq!(report.snapshot_seq, 3, "{what}");
        assert_eq!(
            restarted.engine().capture_image(),
            session.engine().capture_image(),
            "{what}: the fallback must land on the served engine"
        );
    }
    // Every snapshot damaged: a typed refusal, never a cold start.
    flip_last_byte(&dir.join("snap-3.img"));
    let err = DsgService::open(&dir, builder(16, 73), config)
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, DsgError::Persist(PersistError::CorruptSnapshot { .. })),
        "unexpected error: {err}"
    );
    fs::remove_dir_all(&dir).ok();
}

/// A crash inside a checkpoint, at either of its fail points, with none
/// of the ingest loop's cleanup: the session and the store are driven by
/// hand, the way the loop drives them, and dropped where the checkpoint
/// died. The restart must land on the crashed engine bit for bit, and its
/// first checkpoint must clear what the crash left behind.
#[test]
fn crashes_inside_a_checkpoint_restart_bit_identical() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let _guard = failpoint::exclusive();
    failpoint::disarm_all();
    let (n, seed) = (32u64, 61u64);
    let config = persist_config(1, 1, 1);
    for (site, recovered_seq, left_behind) in [
        (failpoint::IO_SNAPSHOT, 2, "snap-3.img.tmp"),
        (failpoint::IO_PUBLISH, 3, "snap-1.img"),
    ] {
        let dir = temp_dir("ckpt-crash");
        let mut session = builder(n, seed).build().expect("session builds");
        let (mut store, _) = DurableStore::open(&dir, config.persist.unwrap()).expect("cold store");
        store
            .checkpoint_engine(session.engine())
            .expect("initial checkpoint");
        let mut mix = Mix(0x5EED ^ seed);
        let mut serve = |session: &mut DsgSession, store: &mut DurableStore| {
            for _ in 0..5 {
                let u = mix.next() % n;
                let v = (u + 1 + mix.next() % (n - 1)) % n;
                let chunk = [Request::communicate(u, v)];
                store.append_chunk(&chunk, false).expect("append");
                session.submit_batch(&chunk).expect("serves");
            }
        };
        serve(&mut session, &mut store);
        store
            .checkpoint_engine(session.engine())
            .expect("checkpoint 2");
        serve(&mut session, &mut store);
        failpoint::arm(site, 1);
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            store.checkpoint_engine(session.engine())
        }));
        failpoint::disarm_all();
        assert!(crashed.is_err(), "{site} must fire");
        drop(store);
        assert!(
            file_names(&dir).iter().any(|name| name == left_behind),
            "{site}: {:?}",
            file_names(&dir)
        );

        let (mut restarted, report) =
            DsgService::open(&dir, builder(n, seed), config).expect("store reopens");
        assert!(report.recovered && !report.fell_back, "{site}");
        assert_eq!(report.snapshot_seq, recovered_seq, "{site}");
        assert_eq!(
            report.frames_replayed,
            if recovered_seq == 2 { 5 } else { 0 },
            "{site}"
        );
        // One more request: its checkpoint retires the crash's leftovers.
        serve_one(&restarted, Request::communicate(1, 2)).expect("serves cleanly");
        let done = restarted.shutdown().expect("first shutdown");
        let mut twin = session;
        twin.submit_batch(&[Request::communicate(1, 2)])
            .expect("twin serves");
        assert_eq!(
            done.session.engine().capture_image(),
            twin.engine().capture_image(),
            "{site}: the restart diverged from the crashed engine"
        );
        let next = recovered_seq + 1;
        assert_eq!(
            file_names(&dir),
            [
                JOURNAL_FILE.to_string(),
                format!("snap-{recovered_seq}.img"),
                format!("snap-{next}.img")
            ],
            "{site}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}
