//! The traced run: a twin of `DsgService`'s ingest loop built only from
//! public calls, made in the order the loop makes them, each wrapped in a
//! span.
//!
//! Per request the ingest loop appends the chunk to the journal, serves
//! it with `submit_batch_degraded`, runs `validate_fast`, and on the
//! 32-epoch cadences of `ServiceConfig::deep_audit_every` and
//! `PersistConfig::snapshot_every` runs `validate` and cuts a checkpoint.
//! The twin makes the same calls and adds a `distance(u, v)` probe before
//! each request, which times the routing the engine repeats inside the
//! epoch. The batched workload's twin wraps each `submit_batch` chunk and
//! its route probes. Spans stay in memory until the run ends.

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use dsg::prelude::*;
use dsg::{DurableStore, EngineImage, PersistConfig};

use crate::e2e::{cut_journals, pin, point_dir};
use crate::workload::{service_config, Plan};

/// Request id of spans that belong to no request (set-up, recovery).
pub const NO_REQUEST: u64 = u64::MAX;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer call, e.g. `persist.append`.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or chunk) the call served, or [`NO_REQUEST`].
    pub request: u64,
    /// Counts read off the call's return value.
    pub counts: Vec<(String, u64)>,
}

/// Collects spans in memory. A disabled tracer makes the same calls and
/// records nothing, which is what the untraced twin uses.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// A span that has started; [`Tracer::end`] closes it.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records (`on`) or only passes calls through.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span named `name` inside `parent` for `request`.
    pub fn begin(&mut self, name: &str, parent: Open, request: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: parent.0,
            request,
            counts: Vec::new(),
        });
        let index = self.spans.len() - 1;
        self.spans[index].start_ns = self.now_ns();
        Open(Some(index))
    }

    /// Ends a span and attaches the counts its call returned.
    pub fn end(&mut self, span: Open, counts: &[(&str, u64)]) {
        let Some(index) = span.0 else { return };
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.counts = counts.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    }

    /// Times `call` as a span without counts.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Open,
        request: u64,
        call: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, parent, request);
        let out = call();
        self.end(span, &[]);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// The root of no span.
pub const ROOT: Open = Open(None);

/// The work a twin run counted, to compare with the service's
/// `ServiceMetrics`.
#[derive(Debug, Default, Clone, Copy)]
pub struct TwinCounts {
    /// Chunks served: the service's `batches`.
    pub batches: u64,
    /// Epochs the chunks formed: the service's `epochs`.
    pub epochs: u64,
    /// Fast audits run: the service's `audits`.
    pub audits: u64,
    /// Deep audits run: the service's `deep_audits`.
    pub deep_audits: u64,
    /// Periodic checkpoints cut: the service's `snapshots`.
    pub snapshots: u64,
}

/// What a twin run ended with.
#[derive(Debug)]
pub struct TwinRun {
    /// Wall time of the timed region (tracing included when on).
    pub wall: Duration,
    /// The engine's image at the end of the run.
    pub image: EngineImage,
    /// Journal length at the end of the run (0 without a journal).
    pub journal_len: u64,
    /// The work counted over the whole run.
    pub counts: TwinCounts,
    /// The recorded spans (empty when tracing was off).
    pub spans: Vec<Span>,
    /// Correctness checks that failed, in words.
    pub errors: Vec<String>,
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Counts of one served chunk, attached to its `engine.serve` span.
fn batch_counts(batch: &BatchOutcome) -> Vec<(&'static str, u64)> {
    let mut routing = 0u64;
    let mut notification = 0u64;
    let mut median = 0u64;
    let mut group = 0u64;
    let mut restructuring = 0u64;
    let mut height = 0u64;
    let mut communicates = 0u64;
    for outcome in batch.request_outcomes() {
        communicates += 1;
        routing += outcome.routing_cost as u64;
        notification += outcome.breakdown.notification_rounds as u64;
        median += outcome.breakdown.median_rounds as u64;
        group += outcome.breakdown.group_accounting_rounds as u64;
        restructuring += outcome.breakdown.restructuring_rounds as u64;
        height = height.max(outcome.height_after as u64);
    }
    vec![
        ("communicates", communicates),
        ("routing_hops", routing),
        ("notification_rounds", notification),
        ("median_rounds", median),
        ("group_rounds", group),
        ("restructuring_rounds", restructuring),
        ("height_after", height),
        ("epochs", batch.epochs as u64),
        ("clusters", batch.clusters as u64),
        ("planned_clusters", batch.planned_clusters as u64),
        ("plan_shards", batch.plan_shards as u64),
        ("plan_wall_ns", batch.plan_wall_ns),
        ("touched_pairs", batch.touched_pairs as u64),
        ("dummies_inserted", batch.dummies_inserted as u64),
        ("dummies_destroyed", batch.dummies_destroyed as u64),
        ("dummies_reused", batch.dummies_reused as u64),
        ("pairs_gated", batch.pairs_gated),
        ("aging_passes", batch.sketch_aging_passes),
    ]
}

/// Replays the plan through the twin of the durable ingest loop in a
/// fresh store under `dir`. When tracing, it pins the store at the plan's
/// recovery points, as the untraced run does, and then traces a recovery
/// of each pinned store.
pub fn run_service_twin(plan: &Plan, dir: &Path, tracing: bool) -> Result<TwinRun, String> {
    let config = service_config();
    let persist = config.persist.unwrap_or_default();
    let store_dir = dir.join(if tracing { "twin-traced" } else { "twin" });
    let _ = fs::remove_dir_all(&store_dir);
    let mut t = Tracer::new(tracing);

    // Cold start, as `DsgService::open` makes it.
    let setup = t.begin("setup", ROOT, NO_REQUEST);
    let opened = t.time("persist.open", setup, NO_REQUEST, || {
        DurableStore::open(&store_dir, persist)
    });
    let (mut store, recovered) = opened.map_err(err("open the twin store"))?;
    if recovered.is_some() {
        return Err("the twin store was not empty".to_string());
    }
    let built = t.time("engine.build", setup, NO_REQUEST, || plan.builder().build());
    let mut session = built.map_err(err("build"))?;
    checkpoint(&mut t, setup, NO_REQUEST, &mut store, &session)?;
    t.end(setup, &[]);

    let trace = plan.trace();
    let mut counts = TwinCounts::default();
    let (mut last_deep, mut last_snapshot) = (session.epochs(), session.epochs());
    let mut points = plan.recovery_points().into_iter().peekable();
    let mut pins = Vec::new();
    let mut wall = Duration::ZERO;
    let mut start = Instant::now();
    for (index, request) in trace.iter().enumerate() {
        if index == plan.warmup {
            start = Instant::now();
        }
        let id = index as u64;
        let root = t.begin("request", ROOT, id);
        let (u, v) = request.pair();
        let probe = t.begin("skipgraph.route", root, id);
        let hops = session
            .engine()
            .distance(u, v)
            .map_err(err("route probe"))?;
        t.end(probe, &[("hops", hops as u64)]);

        let chunk = std::slice::from_ref(request);
        let append = t.begin("persist.append", root, id);
        store
            .append_chunk(chunk, false)
            .map_err(err("append a frame"))?;
        t.end(append, &[("journal_len", store.journal_len())]);

        let serve = t.begin("engine.serve", root, id);
        let batch = session
            .submit_batch_degraded(chunk, false)
            .map_err(err("serve"))?;
        if tracing {
            t.end(serve, &batch_counts(&batch));
        }
        counts.batches += 1;
        counts.epochs += batch.epochs as u64;

        let fast = t.time("audit.fast", root, id, || session.engine().validate_fast());
        fast.map_err(err("validate_fast"))?;
        counts.audits += 1;
        let epoch = session.epochs();
        if config.deep_audit_every > 0 && epoch - last_deep >= config.deep_audit_every {
            last_deep = epoch;
            let deep = t.time("audit.deep", root, id, || session.engine().validate());
            deep.map_err(err("validate"))?;
            counts.deep_audits += 1;
        }
        if persist.snapshot_every > 0 && epoch - last_snapshot >= persist.snapshot_every {
            last_snapshot = epoch;
            checkpoint(&mut t, root, id, &mut store, &session)?;
            counts.snapshots += 1;
        }
        t.end(root, &[]);
        if tracing && points.next_if_eq(&(index + 1)).is_some() {
            wall += start.elapsed();
            let to = dir.join("twin-points");
            let pinned = pin(&store_dir, &point_dir(&to, pins.len()))?;
            pins.push((pinned, session.engine().capture_image()));
            start = Instant::now();
        }
    }
    wall += start.elapsed();
    store.sync().map_err(err("sync the journal"))?;
    let journal_len = store.journal_len();
    let image = session.engine().capture_image();
    drop(store);

    let mut errors = Vec::new();
    let (pinned, images): (Vec<_>, Vec<_>) = pins.into_iter().unzip();
    cut_journals(&store_dir, &pinned)?;
    for ((point, _), pinned_image) in pinned.iter().zip(&images) {
        if trace_recovery(&mut t, point, persist)? != *pinned_image {
            errors.push(format!(
                "the twin's engine recovered from {} differs from the one pinned there",
                point.display()
            ));
        }
    }
    let _ = fs::remove_dir_all(&store_dir);
    let _ = fs::remove_dir_all(dir.join("twin-points"));
    Ok(TwinRun {
        wall,
        image,
        journal_len,
        counts,
        spans: t.into_spans(),
        errors,
    })
}

/// `capture_image` then `DurableStore::checkpoint`, as the ingest loop
/// cuts a checkpoint.
fn checkpoint(
    t: &mut Tracer,
    parent: Open,
    id: u64,
    store: &mut DurableStore,
    session: &DsgSession,
) -> Result<(), String> {
    let image = t.time("persist.capture", parent, id, || {
        session.engine().capture_image()
    });
    let cut = t.begin("persist.checkpoint", parent, id);
    let bytes = store.checkpoint(&image).map_err(err("checkpoint"))?;
    t.end(cut, &[("bytes", bytes)]);
    Ok(())
}

/// The recovery path of `DsgService::open`, call by call: open the store,
/// restore the snapshot, replay each journaled frame, validate. Returns
/// the recovered engine's image.
fn trace_recovery(
    t: &mut Tracer,
    store_dir: &Path,
    persist: PersistConfig,
) -> Result<EngineImage, String> {
    let root = t.begin("recover", ROOT, NO_REQUEST);
    let open = t.begin("persist.open", root, NO_REQUEST);
    let (store, recovered) = DurableStore::open(store_dir, persist).map_err(err("reopen"))?;
    let recovered = recovered.ok_or("the reopened store is empty")?;
    t.end(open, &[("frames", recovered.frames.len() as u64)]);
    let restored = t.time("persist.restore", root, NO_REQUEST, || {
        DynamicSkipGraph::restore_image(&recovered.image)
    });
    let mut engine = restored.map_err(err("restore"))?;
    for (frame, &brownout) in recovered.frames.iter().zip(&recovered.brownout) {
        let replay = t.begin("persist.replay", root, NO_REQUEST);
        for request in frame {
            engine
                .communicate_epoch_degraded(&[request.pair()], brownout)
                .map_err(err("replay"))?;
        }
        t.end(replay, &[("requests", frame.len() as u64)]);
    }
    let valid = t.time("recover.validate", root, NO_REQUEST, || engine.validate());
    valid.map_err(err("validate after replay"))?;
    t.end(root, &[]);
    drop(store);
    Ok(engine.capture_image())
}

/// Replays the batched workload with a route probe per pair and one span
/// per `submit_batch` chunk; when tracing, it also cuts the initial
/// checkpoint and traces its recovery, as the untraced run measures
/// `recover_s`.
pub fn run_batch_twin(plan: &Plan, dir: &Path, tracing: bool) -> Result<TwinRun, String> {
    let mut t = Tracer::new(tracing);
    let setup = t.begin("setup", ROOT, NO_REQUEST);
    let built = t.time("engine.build", setup, NO_REQUEST, || plan.builder().build());
    let mut session = built.map_err(err("build"))?;
    let store_dir = dir.join("twin-traced");
    let persist = PersistConfig::default();
    let mut initial = None;
    if tracing {
        let _ = fs::remove_dir_all(&store_dir);
        let (mut store, _) =
            DurableStore::open(&store_dir, persist).map_err(err("open a store"))?;
        checkpoint(&mut t, setup, NO_REQUEST, &mut store, &session)?;
        initial = Some(session.engine().capture_image());
    }
    t.end(setup, &[]);

    let trace = plan.trace();
    let chunk = plan.kind.chunk();
    let warm_chunks = plan.warmup / chunk;
    let mut counts = TwinCounts::default();
    let mut start = Instant::now();
    for (index, requests) in trace.chunks(chunk).enumerate() {
        if index == warm_chunks {
            start = Instant::now();
        }
        let id = index as u64;
        let root = t.begin("request", ROOT, id);
        for request in requests {
            let (u, v) = request.pair();
            let probe = t.begin("skipgraph.route", root, id);
            let hops = session
                .engine()
                .distance(u, v)
                .map_err(err("route probe"))?;
            t.end(probe, &[("hops", hops as u64)]);
        }
        let serve = t.begin("engine.serve", root, id);
        let batch = session.submit_batch(requests).map_err(err("serve"))?;
        if tracing {
            t.end(serve, &batch_counts(&batch));
        }
        counts.batches += 1;
        counts.epochs += batch.epochs as u64;
        t.end(root, &[]);
    }
    let wall = start.elapsed();
    let image = session.engine().capture_image();

    let mut errors = Vec::new();
    if let Some(initial) = initial {
        if trace_recovery(&mut t, &store_dir, persist)? != initial {
            errors.push("the restored engine differs from the checkpointed one".to_string());
        }
        let _ = fs::remove_dir_all(&store_dir);
    }
    Ok(TwinRun {
        wall,
        image,
        journal_len: 0,
        counts,
        spans: t.into_spans(),
        errors,
    })
}
