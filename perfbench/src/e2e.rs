//! The untraced run: the workload served through the public API exactly
//! as a user would, timed from the client's side.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dsg::prelude::*;
use dsg::{DurableStore, EngineImage, PersistConfig};

use crate::report::peak_rss_bytes;
use crate::workload::{service_config, Plan};

/// What the untraced run measured and left behind.
#[derive(Debug)]
pub struct E2eRun {
    /// Requests attempted in the timed region.
    pub attempted: u64,
    /// Timed requests refused or resolved with an error.
    pub failed: u64,
    /// Wall time of the timed region.
    pub wall: Duration,
    /// Latency samples: one per request on the service workloads, one
    /// per `submit_batch` chunk on the batched one.
    pub latencies: Vec<Duration>,
    /// Σ `routing_cost` over the timed requests.
    pub routing_hops: u64,
    /// Σ `transformation_rounds()` over the timed requests.
    pub transform_rounds: u64,
    /// Timed requests the engine restructured (`transformation_rounds()`
    /// above 0); gated requests are only routed.
    pub restructured: u64,
    /// Set-up times, from [`repetitions`].
    pub setups: Vec<Duration>,
    /// Recovery times, from [`repetitions`]: one list per store of
    /// [`recovery_stores`].
    pub recoveries: Vec<Vec<Duration>>,
    /// Bytes in the store directory after the run.
    pub store_bytes: u64,
    /// Journal length after the run (0 without a journal).
    pub journal_len: u64,
    /// The engine's image at the end of the run.
    pub image: EngineImage,
    /// The service's counters after shutdown (service workloads only).
    pub service: Option<ServiceMetrics>,
    /// Peers plus dummies at the end of the run.
    pub nodes_final: u64,
    /// Live dummies at the end of the run.
    pub dummies_final: u64,
    /// Peak resident set of the process through the end of the timed
    /// region and shutdown, before the recovery path runs.
    pub peak_rss_bytes: u64,
    /// Correctness checks that failed, in words.
    pub errors: Vec<String>,
}

/// Runs the plan untraced, leaving the stores of [`recovery_stores`] under
/// `dir` for [`repetitions`]. The set-up and recovery samples are left
/// empty.
pub fn run(plan: &Plan, dir: &Path) -> Result<E2eRun, String> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    if plan.kind.durable() {
        run_service(plan, dir)
    } else {
        run_batches(plan, dir)
    }
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The durable workloads: a closed loop of one client submitting one
/// request at a time to a `DsgService` opened over a fresh store.
fn run_service(plan: &Plan, dir: &Path) -> Result<E2eRun, String> {
    let config = service_config();
    let store = dir.join("store");
    let (mut service, report) =
        DsgService::open(&store, plan.builder(), config).map_err(err("cold open"))?;
    let mut errors = Vec::new();
    if report.recovered {
        errors.push("the cold open recovered an existing store".to_string());
    }

    let trace = plan.trace();
    // The client polls its ticket instead of blocking in `wait`, so a
    // sample ends when the ticket resolves, not when the client thread
    // is next scheduled.
    let serve = |request: Request| -> Option<RequestOutcome> {
        let ticket = service.submit(request).ok()?;
        let result = loop {
            match ticket.try_result() {
                Some(result) => break result,
                None => std::hint::spin_loop(),
            }
        };
        match result.ok()? {
            SubmitOutcome::Communicated(outcome) => Some(outcome),
            _ => None,
        }
    };
    let mut warm_failed = 0u64;
    for &request in &trace[..plan.warmup] {
        if serve(request).is_none() {
            warm_failed += 1;
        }
    }
    let mut run = Totals::default();
    let mut points = plan.recovery_points().into_iter().peekable();
    let mut pins = Vec::new();
    let mut wall = Duration::ZERO;
    let mut start = Instant::now();
    for (index, &request) in trace.iter().enumerate().skip(plan.warmup) {
        let sent = Instant::now();
        let outcome = serve(request);
        run.latencies.push(sent.elapsed());
        run.record(outcome.as_ref());
        if points.next_if_eq(&(index + 1)).is_some() {
            // The clock stops while the store is pinned.
            wall += start.elapsed();
            pins.push(pin(&store, &point_dir(dir, pins.len()))?);
            start = Instant::now();
        }
    }
    wall += start.elapsed();
    if warm_failed > 0 {
        errors.push(format!("{warm_failed} warm-up requests failed"));
    }

    let done = service.shutdown().map_err(err("shutdown"))?;
    let engine = done.session.engine();
    if let Err(e) = engine.validate() {
        errors.push(format!("final validate() failed: {e}"));
    }
    let image = engine.capture_image();
    let nodes_final = (engine.len() + engine.dummy_count()) as u64;
    let dummies_final = engine.dummy_count() as u64;
    let metrics = done.metrics;
    let served = metrics.submitted;
    if served != plan.total() as u64 {
        errors.push(format!(
            "the service accepted {served} of {} requests",
            plan.total()
        ));
    }
    drop(done);
    let peak_rss_bytes = peak_rss_bytes();
    cut_journals(&store, &pins)?;
    let store_bytes = dir_bytes(&store)?;
    let journal_len = fs::metadata(store.join(dsg::persist::JOURNAL_FILE))
        .map_err(err("stat the journal"))?
        .len();

    let (mut reopened, report) =
        DsgService::open(&store, plan.builder(), config).map_err(err("reopen"))?;
    let back = reopened.shutdown().map_err(err("shutdown after reopen"))?;
    if !report.recovered || back.session.engine().capture_image() != image {
        errors.push("the reopened engine differs from the one shut down".to_string());
    }
    if dir_bytes(&store)? != store_bytes {
        errors.push("reopening changed the store".to_string());
    }

    Ok(E2eRun {
        attempted: plan.timed as u64,
        failed: run.failed,
        wall,
        latencies: run.latencies,
        routing_hops: run.routing_hops,
        transform_rounds: run.transform_rounds,
        restructured: run.restructured,
        setups: Vec::new(),
        recoveries: Vec::new(),
        store_bytes,
        journal_len,
        image,
        service: Some(metrics),
        nodes_final,
        dummies_final,
        peak_rss_bytes,
        errors,
    })
}

/// The batched workload: one caller serving fixed chunks through
/// `DsgSession::submit_batch`; no service, journal or audit. Its store is
/// the initial checkpoint of its session, cut after the build as
/// `DsgService::open` cuts one on a cold start, and reopened for
/// `recover_s`.
fn run_batches(plan: &Plan, dir: &Path) -> Result<E2eRun, String> {
    let mut session = plan.builder().build().map_err(err("build"))?;
    let store = dir.join("store");
    let initial = session.engine().capture_image();
    let (mut durable, recovered) =
        DurableStore::open(&store, PersistConfig::default()).map_err(err("open a store"))?;
    let mut errors = Vec::new();
    if recovered.is_some() {
        errors.push("the fresh store was not empty".to_string());
    }
    durable.checkpoint(&initial).map_err(err("checkpoint"))?;
    drop(durable);

    let chunk = plan.kind.chunk();
    let trace = plan.trace();
    for requests in trace[..plan.warmup].chunks(chunk) {
        if let Err(e) = session.submit_batch(requests) {
            errors.push(format!("a warm-up chunk failed: {e}"));
        }
    }
    let mut run = Totals::default();
    let start = Instant::now();
    for requests in trace[plan.warmup..].chunks(chunk) {
        let sent = Instant::now();
        let batch = session.submit_batch(requests);
        run.latencies.push(sent.elapsed());
        match batch {
            Ok(batch) => {
                for outcome in &batch.outcomes {
                    run.record(outcome.request_outcome());
                }
            }
            Err(_) => run.failed += requests.len() as u64,
        }
    }
    let wall = start.elapsed();
    let engine = session.engine();
    if let Err(e) = engine.validate() {
        errors.push(format!("final validate() failed: {e}"));
    }
    let image = engine.capture_image();
    let peak_rss_bytes = peak_rss_bytes();
    let nodes_final = (engine.len() + engine.dummy_count()) as u64;
    let dummies_final = engine.dummy_count() as u64;

    let store_bytes = dir_bytes(&store)?;
    if restore_checkpoint(&store)?.capture_image() != initial {
        errors.push("the restored engine differs from the checkpointed one".to_string());
    }

    Ok(E2eRun {
        attempted: plan.timed as u64,
        failed: run.failed,
        wall,
        latencies: run.latencies,
        routing_hops: run.routing_hops,
        transform_rounds: run.transform_rounds,
        restructured: run.restructured,
        setups: Vec::new(),
        recoveries: Vec::new(),
        store_bytes,
        journal_len: 0,
        nodes_final,
        dummies_final,
        peak_rss_bytes,
        image,
        service: None,
        errors,
    })
}

/// `DurableStore::open` and `restore_image` of a checkpoint-only store:
/// the batched workload's recovery.
fn restore_checkpoint(store: &Path) -> Result<DynamicSkipGraph, String> {
    let (_store, recovered) =
        DurableStore::open(store, PersistConfig::default()).map_err(err("reopen"))?;
    let recovered = recovered.ok_or("the reopened store is empty")?;
    DynamicSkipGraph::restore_image(&recovered.image).map_err(err("restore"))
}

/// Pause before each pair of repetitions.
const REPETITION_GAP: Duration = Duration::from_millis(10);

/// Directory of the store a durable run pins at its `k`-th recovery point.
pub fn point_dir(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("point-{k}"))
}

/// The stores whose reopens [`repetitions`] times: on the durable
/// workloads the store as it stood at each of the plan's recovery points,
/// on the batched workload its initial checkpoint.
pub fn recovery_stores(plan: &Plan, dir: &Path) -> Vec<PathBuf> {
    if plan.kind.durable() {
        (0..plan.recovery_points().len())
            .map(|k| point_dir(dir, k))
            .collect()
    } else {
        vec![dir.join("store")]
    }
}

/// Pins `store` as it stands into `to` and returns the journal's length.
/// Every file but the journal is hard-linked: a checkpoint writes new
/// snapshot and manifest files and renames them into place, so a linked
/// file never changes. The journal only grows, so [`cut_journals`] copies
/// its prefix once the run is over.
pub fn pin(store: &Path, to: &Path) -> Result<(PathBuf, u64), String> {
    fs::create_dir_all(to).map_err(err("create a pinned store"))?;
    let mut journal_len = None;
    for entry in fs::read_dir(store).map_err(err("list the store"))? {
        let entry = entry.map_err(err("list the store"))?;
        let name = entry.file_name();
        if name == dsg::persist::JOURNAL_FILE {
            let meta = entry.metadata().map_err(err("stat the journal"))?;
            journal_len = Some(meta.len());
        } else {
            let target = to.join(&name);
            fs::hard_link(entry.path(), &target)
                .or_else(|_| fs::copy(entry.path(), &target).map(drop))
                .map_err(err("pin a store file"))?;
        }
    }
    let journal_len = journal_len.ok_or("the store has no journal")?;
    Ok((to.to_path_buf(), journal_len))
}

/// Gives each store [`pin`]ned from `store` the prefix of `store`'s journal
/// that it had when pinned.
pub fn cut_journals(store: &Path, pins: &[(PathBuf, u64)]) -> Result<(), String> {
    if pins.is_empty() {
        return Ok(());
    }
    let journal =
        fs::read(store.join(dsg::persist::JOURNAL_FILE)).map_err(err("read the journal"))?;
    for (to, len) in pins {
        let prefix = journal
            .get(..*len as usize)
            .ok_or("the journal shrank after a pin")?;
        fs::write(to.join(dsg::persist::JOURNAL_FILE), prefix)
            .map_err(err("write a pinned journal"))?;
    }
    Ok(())
}

/// Times `plan.setups` set-ups and `plan.recoveries` recoveries,
/// alternating so both sample the same stretch of time. A set-up builds
/// the session, and on the durable workloads opens a service over a fresh
/// store (initial checkpoint included). A recovery is `DsgService::open`
/// over one of the [`recovery_stores`], taken in turn, which must replay
/// exactly one journal frame; on the batched workload it is
/// [`restore_checkpoint`]. Returns the set-up samples and one list of
/// recovery samples per store.
pub fn repetitions(plan: &Plan, dir: &Path) -> Result<(Vec<Duration>, Vec<Vec<Duration>>), String> {
    let stores = recovery_stores(plan, dir);
    let config = service_config();
    let mut setups = Vec::new();
    let mut recoveries = vec![Vec::new(); stores.len()];
    for i in 0..plan.setups.max(plan.recoveries) {
        // Spread the samples over a few seconds: the machine's speed
        // drifts over tens of milliseconds, and a median over a longer
        // stretch depends less on where a run happens to fall.
        std::thread::sleep(REPETITION_GAP);
        if i < plan.setups {
            let empty = dir.join(format!("setup-{i}"));
            let start = Instant::now();
            if plan.kind.durable() {
                let opened = DsgService::open(&empty, plan.builder(), config);
                setups.push(start.elapsed());
                drop(opened.map_err(err("cold open"))?);
                fs::remove_dir_all(&empty).map_err(err("remove a set-up store"))?;
            } else {
                let built = plan.builder().build();
                setups.push(start.elapsed());
                drop(built.map_err(err("build"))?);
            }
        }
        if i < plan.recoveries && !stores.is_empty() {
            let k = i % stores.len();
            let start = Instant::now();
            if plan.kind.durable() {
                let (mut service, report) =
                    DsgService::open(&stores[k], plan.builder(), config).map_err(err("reopen"))?;
                recoveries[k].push(start.elapsed());
                service.shutdown().map_err(err("shutdown after reopen"))?;
                if !report.recovered || report.frames_replayed != 1 {
                    return Err(format!(
                        "reopening {} replayed {} frames, not 1",
                        stores[k].display(),
                        report.frames_replayed
                    ));
                }
            } else {
                let restored = restore_checkpoint(&stores[k])?;
                recoveries[k].push(start.elapsed());
                drop(restored);
            }
        }
    }
    Ok((setups, recoveries))
}

/// Runs [`repetitions`] in a fresh process (`exe reps …`), so the samples
/// see a process that has not served the run, as a restarted service
/// would, and returns them.
pub fn repetitions_in_child(
    exe: &Path,
    plan: &Plan,
    dir: &Path,
) -> Result<(Vec<Duration>, Vec<Vec<Duration>>), String> {
    let output = std::process::Command::new(exe)
        .arg("reps")
        .args(["--workload", plan.kind.name()])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--peers", &plan.peers.to_string()])
        .args(["--warmup", &plan.warmup.to_string()])
        .args(["--timed", &plan.timed.to_string()])
        .args(["--setups", &plan.setups.to_string()])
        .args(["--recoveries", &plan.recoveries.to_string()])
        .arg("--dir")
        .arg(dir)
        .output()
        .map_err(err("start the repetitions"))?;
    if !output.status.success() {
        return Err(format!(
            "the repetitions failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let mut setups = Vec::new();
    let mut recoveries = vec![Vec::new(); recovery_stores(plan, dir).len()];
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let bad = || format!("bad repetition line: {line}");
        let fields: Vec<&str> = line.split(' ').collect();
        let ns = |field: &str| field.parse().map(Duration::from_nanos).map_err(|_| bad());
        match fields[..] {
            ["setup", sample] => setups.push(ns(sample)?),
            ["recover", k, sample] => recoveries
                .get_mut(k.parse::<usize>().map_err(|_| bad())?)
                .ok_or_else(bad)?
                .push(ns(sample)?),
            _ => return Err(bad()),
        }
    }
    Ok((setups, recoveries))
}

/// Per-request tallies of the timed region.
#[derive(Default)]
struct Totals {
    latencies: Vec<Duration>,
    failed: u64,
    routing_hops: u64,
    transform_rounds: u64,
    restructured: u64,
}

impl Totals {
    fn record(&mut self, outcome: Option<&RequestOutcome>) {
        match outcome {
            Some(outcome) => {
                self.routing_hops += outcome.routing_cost as u64;
                let rounds = outcome.transformation_rounds() as u64;
                self.transform_rounds += rounds;
                self.restructured += u64::from(rounds > 0);
            }
            None => self.failed += 1,
        }
    }
}

/// Total bytes of the regular files in `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in fs::read_dir(dir).map_err(err("list the store"))? {
        let meta = entry
            .map_err(err("list the store"))?
            .metadata()
            .map_err(err("stat a store file"))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
