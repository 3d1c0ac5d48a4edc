//! [`DsgService`]: a fault-contained concurrent ingest front-end over a
//! [`DsgSession`], with backpressure, fail-point-testable fault
//! containment, and a self-auditing epoch pipeline.
//!
//! A service moves a session onto a dedicated **ingest thread** behind a
//! bounded request queue. Any number of producer threads call
//! [`submit`](DsgService::submit) (non-blocking; a full queue is a typed
//! [`SubmitError::Overloaded`]) or
//! [`submit_deadline`](DsgService::submit_deadline) (blocks for queue
//! space up to a deadline; a typed [`SubmitError::Timeout`] after). Each
//! submission returns a [`Ticket`] that resolves — always, on every code
//! path — with that request's individual result. The ingest thread drains
//! the queue in arrival order and serves the drained runs through
//! [`DsgSession::submit_batch`], so requests are epoch-batched exactly as
//! a single-threaded caller's batches would be; with
//! [`record_journal`](ServiceConfig::record_journal) the exact chunk
//! sequence is kept, and replaying it through a fresh session reproduces
//! the final structure bit for bit.
//!
//! # Robustness model
//!
//! Three failure classes are contained, each with a distinct blast radius:
//!
//! * **Malformed requests** (unknown peers, duplicate joins, leaves of
//!   absent peers, self-communication) are validated *per request* against
//!   the engine's membership — including membership changes queued earlier
//!   in the same drained run — and fail only their own ticket with the
//!   engine's typed [`DsgError`]. The rest of the run is served normally.
//! * **Plan-stage faults**: a panic caught while the engine's
//!   [`EpochPhase`] marker says `Planning` (or `Idle`) struck inside the
//!   pure-read plan stage. If nothing of the drained run had applied yet
//!   (neither the logical clock nor the generation stamp moved), the
//!   structure is bit-for-bit untouched: the run is abandoned, its journal
//!   frame is truncated off durably (with persistence on), its tickets
//!   resolve with [`DsgError::EpochAborted`] (resubmittable), and the
//!   service keeps serving. A fault in the plan stage of a *later* epoch
//!   of the run, after an earlier one applied, is an apply-stage fault:
//!   the engine holds part of a journaled run that no replay reproduces.
//! * **Apply-stage faults**: a panic caught while the marker says
//!   `Applying` may have left the structure half-mutated. The service
//!   **poisons** itself: every in-flight and queued ticket resolves with
//!   [`DsgError::EnginePoisoned`] (nothing hangs), new submissions are
//!   rejected with [`SubmitError::Poisoned`], and only the opt-in
//!   [`recover`](DsgService::recover) — which rebuilds the graph from the
//!   surviving per-peer state and deep-validates the result — resumes
//!   service.
//!
//! The **tiered auditor** guards against silent corruption: after every
//! served run the engine's incremental
//! [`validate_fast`](crate::DynamicSkipGraph::validate_fast) re-checks the
//! lists the last epoch's install touched, and every
//! [`deep_audit_every`](ServiceConfig::deep_audit_every) epochs a full
//! `validate()` sweeps the entire structure — unless the engine's
//! [`generation`](crate::DynamicSkipGraph::generation) stamp equals the
//! one the last clean deep sweep saw. `validate()` reads only the graph
//! and the state table, and the stamp moves whenever either changes, so
//! the sweep would find what the last one found: the audit is *certified*
//! clean without running it (counted in
//! [`ServiceMetrics::deep_audits_certified`]). Under a gated policy most
//! epochs only route, so most deep audits are certified. Audit results —
//! run or certified — are published as [`AuditEvent`]s to the session's
//! observers; a failed audit degrades the service to the poisoned state,
//! funnelling it into the same recovery path as an apply-stage fault.
//!
//! The fault paths are exercised deterministically through the named
//! fail-point sites of [`dsg_skipgraph::failpoint`] (re-exported as
//! `dsg::failpoint`): `plan.worker`, `apply.splice`, `dummy.pass0`, this
//! module's `ingest.loop`, and the durability layer's `io.append`,
//! `io.snapshot`, and `io.publish`.
//!
//! # Durability
//!
//! With [`ServiceConfig::persist`] set, the service is opened through
//! [`DsgService::open`] over a store directory (see
//! [`persist`](crate::persist) for the on-disk layout). The worker then
//! appends every drained chunk to the write-ahead journal — and, per
//! [`PersistConfig::fsync_every`], fsyncs it — **before** the engine
//! applies it, so an acknowledged request is always on disk. Snapshot
//! checkpoints are cut at the quiescent point after a served run every
//! [`PersistConfig::snapshot_every`] epochs, encoded straight from the
//! engine ([`DurableStore::checkpoint_engine`]): while the engine's
//! generation stamp has not moved since the last checkpoint, only the
//! snapshot's prefix is re-encoded and the node section is reused. Each
//! snapshot file carries its own journal binding and commits with one
//! rename. On the next [`open`](DsgService::open), the newest valid
//! snapshot is restored (and deep-validated), a torn journal tail is
//! truncated, the surviving suffix is replayed, and the result is
//! deep-validated again unless the replay left the stamp where the
//! restore's validation saw it —
//! `tests/crash_recovery.rs` proves it bit-identical to an uninterrupted
//! twin for every fail-point site and every byte-boundary truncation of
//! the journal tail.
//!
//! Durability failures are contained like engine faults: a failed or
//! panicked append rolls the journal back to the last committed frame,
//! fails only that run's tickets with [`DsgError::Persist`], and keeps
//! serving (if the rollback itself fails, the journal no longer matches
//! the engine and the service poisons — as it does when the frame of a
//! plan-aborted run cannot be truncated off); a failed checkpoint is
//! abandoned and counted, and the store keeps serving under the previous
//! snapshot's binding.
//!
//! # Overload model
//!
//! With [`ServiceConfig::overload`] set, a CoDel-style controller (see
//! [`overload`](crate::overload)) watches the queue sojourn of every
//! drained request and degrades service in two typed, observable steps
//! instead of letting latency grow without bound: **brownout** — chunks
//! are served with the admission gate degraded to route-only verdicts for
//! cold traffic, and the verdict is journaled inside each WAL frame so
//! crash replay stays bit-identical — and **shedding** — new submissions
//! are refused with [`SubmitError::Shed`] and a retry-after hint, over
//! which [`submit_retry`](DsgService::submit_retry) backs off with
//! jittered exponential delays. Submissions may carry a deadline
//! ([`submit_with_deadline`](DsgService::submit_with_deadline)); a
//! request whose deadline expired while queued is shed at drain time,
//! *before* the journal and the engine pay for it, resolving its ticket
//! with [`DsgError::DeadlineExceeded`]. The ingest loop stamps a
//! per-stage heartbeat, and a watchdog thread reports a stage stuck
//! longer than [`OverloadConfig::stall_after`] through
//! [`DsgObserver::on_stall`](crate::DsgObserver::on_stall) — so a hang is
//! an *event*, not a silently blocked producer. With the config unset
//! (the default) none of this machinery runs and the service behaves
//! bit-identically to the overload-unaware service.
//!
//! # Threading model
//!
//! One ingest thread owns the session; producers only touch the bounded
//! queue (a `Mutex<VecDeque>` with two condvars — `std::sync` only), the
//! counters and their tickets. Everything the engine does therefore runs
//! on that one thread — the service adds concurrency at the boundary,
//! never inside the pipeline, which is why the determinism guarantees of
//! [`DsgSession`] carry over verbatim.
//! [`shutdown`](DsgService::shutdown) closes the queue and, per
//! [`ShutdownPolicy`], either drains the backlog or resolves it with
//! [`DsgError::ShuttingDown`]; dropping the service does the same and
//! joins the thread either way.
//!
//! ## The request handoff
//!
//! A request crosses threads twice: the producer hands it to the ingest
//! thread through the queue, and the ingest thread hands the result back
//! through the ticket. While no thread sleeps, neither crossing makes a
//! system call or wakes a thread, because a side notifies a condvar only
//! when a thread has registered as blocked on it. Each registration is
//! read and written under the mutex its condvar waits with, so a sleeper
//! is either seen or has not yet checked what it waits for:
//!
//! | sleeper | registers (under) | notified by |
//! |---|---|---|
//! | the ingest thread, on an empty queue | a parked flag (the queue lock) | [`submit`](DsgService::submit) and its variants, `notify_one`; the producer clears the flag |
//! | a producer in [`submit_deadline`](DsgService::submit_deadline), on a full queue | a count of blocked producers (the queue lock) | the ingest thread's drain, `notify_all` |
//! | a caller in [`Ticket::wait`] or [`Ticket::wait_timeout`] | the ticket's waiter count (the ticket's mutex) | the ticket's resolution, `notify_all` |
//!
//! The rare paths notify unconditionally: shutdown wakes every sleeper,
//! and poisoning, [`recover`](DsgService::recover) and a transition into
//! shedding wake blocked producers (`recover` also wakes the ingest
//! thread). [`Ticket::try_result`] reads the result without a lock.
//!
//! Before the ingest thread parks on an empty queue it spins for up to
//! 50 µs, yielding every 64 polls, on a flag that submissions, `recover`
//! and shutdown set under the queue lock; a closed-loop client's next
//! request usually lands within that spin, which costs less than being
//! parked and woken (40–50 µs of wall time on average on a 2-vCPU host).
//! So an idle service burns at most 50 µs of one CPU after its last
//! request before it sleeps. The heartbeat reads the spin as idle, and
//! the overload controller's idle check runs before it.
//!
//! ## Counters and status
//!
//! What the service counts is defined once, as the fields of
//! [`ServiceMetrics`]; what else it publishes (the overload flags, the
//! durable store's position) as fields of [`ServiceStatus`]. One mutex
//! guards one `ServiceStatus` holding both, and each event updates its
//! fields in one critical section, where it happens. So
//! [`metrics`](DsgService::metrics) and [`status`](DsgService::status)
//! each return one moment's values: a served run's `batches`, `epochs`
//! and engine counters never disagree in a read, nor do a deep audit's
//! `deep_audits` and `deep_audits_certified`. That lock is innermost and
//! brief: it is never held across a call into the engine, the store, an
//! observer or a ticket, and no other lock is taken under it, so a reader,
//! and the stall watchdog, which counts stalls under it, never waits
//! behind a wedged ingest thread. The wake-up flag, the heartbeat and the
//! sojourn histogram stay lock-free atomics.
//!
//! # Example
//!
//! ```rust
//! use dsg::prelude::*;
//!
//! # fn main() -> Result<(), DsgError> {
//! let session = DsgSession::builder().peers(0..32).seed(7).build()?;
//! let mut service = DsgService::spawn(session, ServiceConfig::default())?;
//!
//! let ticket = service.submit(Request::communicate(3, 29)).unwrap();
//! let outcome = ticket.wait()?;
//! assert!(outcome.request_outcome().is_some());
//!
//! let done = service.shutdown()?;
//! assert!(done.session.engine().validate().is_ok());
//! # Ok(())
//! # }
//! ```

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dsg_skipgraph::failpoint;

use crate::cost::EpochCounters;
use crate::dsg::{DynamicSkipGraph, EpochPhase, Generation, RecoveryReport};
use crate::error::DsgError;
use crate::observer::{AuditEvent, OverloadEvent, SharedObserver, StallEvent};
use crate::overload::{OverloadConfig, OverloadController, OverloadTransition, RetryPolicy};
use crate::persist::{read_journal_from, DurableStore, PersistConfig, PersistError};
use crate::request::Request;
use crate::session::{DsgBuilder, DsgSession, SubmitOutcome};

/// What to do with requests still queued when the service shuts down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShutdownPolicy {
    /// Serve the backlog before exiting (every queued ticket resolves with
    /// its real result).
    #[default]
    Drain,
    /// Drop the backlog: every queued ticket resolves with
    /// [`DsgError::ShuttingDown`] without being served.
    Abort,
}

/// Configuration of a [`DsgService`]. Plain data; start from
/// [`ServiceConfig::default`] and override fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Capacity of the bounded ingest queue (≥ 1). A full queue rejects
    /// [`submit`](DsgService::submit) with [`SubmitError::Overloaded`] and
    /// blocks [`submit_deadline`](DsgService::submit_deadline).
    pub queue_capacity: usize,
    /// Most requests the ingest thread drains into one
    /// [`DsgSession::submit_batch`] run (≥ 1). The session still splits
    /// runs into epochs by its own rules; this only bounds per-run latency.
    pub ingest_batch: usize,
    /// Run a full deep `validate()` every this many epochs (the fast
    /// incremental audit runs after every served run regardless). 0
    /// disables the deep tier.
    pub deep_audit_every: u64,
    /// Keep the exact chunk sequence handed to `submit_batch` in memory,
    /// returned by [`shutdown`](DsgService::shutdown) for deterministic
    /// replay. Only a service without persistence records: a durable one
    /// returns the chunks its journal holds whatever this says.
    pub record_journal: bool,
    /// What happens to the queued backlog on shutdown or drop.
    pub shutdown: ShutdownPolicy,
    /// Durability tuning. `Some` services must be opened through
    /// [`DsgService::open`] (which supplies the store directory);
    /// [`spawn`](DsgService::spawn) refuses the combination so a
    /// configured journal can never be silently dropped.
    pub persist: Option<PersistConfig>,
    /// Overload-control tuning (sojourn controller, brownout, shedding,
    /// and the stall watchdog). `None` (the default) disables the layer
    /// entirely — no controller, no watchdog thread, behaviour
    /// bit-identical to the overload-unaware service.
    pub overload: Option<OverloadConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 256,
            ingest_batch: 64,
            deep_audit_every: 32,
            record_journal: false,
            shutdown: ShutdownPolicy::Drain,
            persist: None,
            overload: None,
        }
    }
}

impl ServiceConfig {
    /// Returns the config with overload control enabled under `overload`.
    pub fn with_overload(mut self, overload: OverloadConfig) -> Self {
        self.overload = Some(overload);
        self
    }
}

/// Why a submission was not accepted onto the queue. Queue-admission
/// errors only — a ticket that *was* accepted reports its request's fate
/// through [`Ticket::wait`] as a [`DsgError`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full; retry later or use
    /// [`submit_deadline`](DsgService::submit_deadline).
    Overloaded,
    /// No queue space appeared before the deadline.
    Timeout,
    /// The service is shutting down and accepts no new requests.
    ShuttingDown,
    /// The engine is poisoned by an apply-stage fault;
    /// [`recover`](DsgService::recover) first.
    Poisoned,
    /// The overload controller is shedding: the queue sojourn exceeded
    /// [`OverloadConfig::shed_target`], so admitting more work would only
    /// let it expire unserved. Retry after the hint (or use
    /// [`submit_retry`](DsgService::submit_retry), which backs off over
    /// this automatically).
    Shed {
        /// How long the service suggests waiting before retrying.
        retry_after: Duration,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "the ingest queue is full"),
            SubmitError::Timeout => write!(f, "no queue space appeared before the deadline"),
            SubmitError::ShuttingDown => write!(f, "the service is shutting down"),
            SubmitError::Poisoned => {
                write!(
                    f,
                    "the engine is poisoned by an apply-stage fault; recover() first"
                )
            }
            SubmitError::Shed { retry_after } => {
                write!(
                    f,
                    "the service is shedding load; retry in {retry_after:?} or later"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// The service's counters: every count the service keeps is one field
/// here. Each event updates its fields in one critical section of the
/// lock that [`DsgService::metrics`] copies them under, so a read is one
/// moment's values, never a mix of two: a served run's `batches`,
/// `epochs` and engine `counters` move together, as do a deep audit's
/// `deep_audits` and `deep_audits_certified`. A served run is counted
/// just after its tickets resolve, so a read taken as a ticket resolves
/// may not include that ticket's run yet; a request refused, shed,
/// aborted or poisoned is counted before its ticket resolves. The counts
/// are final once the service is shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceMetrics {
    /// Requests accepted onto the queue.
    pub submitted: u64,
    /// Submissions rejected because the queue was full
    /// ([`SubmitError::Overloaded`]).
    pub rejected_overload: u64,
    /// Blocking submissions that timed out waiting for queue space.
    pub submit_timeouts: u64,
    /// Transformation epochs the served runs formed.
    pub epochs: u64,
    /// Ingest runs served (each one `submit_batch` call).
    pub batches: u64,
    /// High-water mark of the queue depth.
    pub max_queue_depth: usize,
    /// Fast incremental audits run.
    pub audits: u64,
    /// Deep audits due on the
    /// [`deep_audit_every`](ServiceConfig::deep_audit_every) cadence:
    /// every one, whether its full `validate()` ran or it was certified
    /// ([`deep_audits_certified`](ServiceMetrics::deep_audits_certified)).
    pub deep_audits: u64,
    /// Deep audits certified clean without running `validate()`: the
    /// engine's [`generation`](crate::DynamicSkipGraph::generation) stamp
    /// equalled the one the last clean deep run saw, so neither the graph
    /// nor the state table had changed. Included in
    /// [`deep_audits`](ServiceMetrics::deep_audits).
    pub deep_audits_certified: u64,
    /// Audits (either tier) that found a violated invariant.
    pub audit_failures: u64,
    /// Plan-stage faults contained (run abandoned before anything of it
    /// applied, engine untouched, its journal frame taken back).
    pub plan_aborts: u64,
    /// Apply-stage faults (or failed audits) that poisoned the service.
    pub poisonings: u64,
    /// Successful [`recover`](DsgService::recover) calls.
    pub recoveries: u64,
    /// Snapshot checkpoints cut (persistence only).
    pub snapshots: u64,
    /// Of [`snapshots`](ServiceMetrics::snapshots), those whose node
    /// section was reused from the previous checkpoint: the engine's
    /// [`generation`](crate::DynamicSkipGraph::generation) stamp had not
    /// moved, so only the snapshot's prefix was encoded and checksummed
    /// again. The bytes written are the same either way.
    pub snapshots_reused: u64,
    /// Snapshot checkpoints that failed and were abandoned (the store kept
    /// serving under the previous snapshot's binding).
    pub snapshot_failures: u64,
    /// Journal appends that failed and were rolled back (the chunk's
    /// tickets resolved with [`DsgError::Persist`]; the engine never saw
    /// it).
    pub append_aborts: u64,
    /// Submissions refused with [`SubmitError::Shed`] while the overload
    /// controller was shedding.
    pub shed_submits: u64,
    /// Queued requests shed at drain time because their deadline expired
    /// (tickets resolved with [`DsgError::DeadlineExceeded`]; neither the
    /// journal nor the engine paid for them).
    pub deadline_shed: u64,
    /// Drained chunks served under a brownout verdict.
    pub brownout_chunks: u64,
    /// Times the controller entered brownout from nominal.
    pub brownout_entries: u64,
    /// Times the controller exited brownout back to nominal.
    pub brownout_exits: u64,
    /// Stall episodes the watchdog reported (one per stuck heartbeat).
    pub stalls: u64,
    /// The engine's counters, summed over every served run.
    pub counters: EpochCounters,
}

/// The session and bookkeeping handed back by
/// [`DsgService::shutdown`].
#[derive(Debug)]
pub struct ShutdownOutcome {
    /// The session, back under direct caller control. If the service was
    /// poisoned and never recovered, the engine is still in its
    /// half-mutated state — `recover_from_surviving` remains available.
    pub session: DsgSession,
    /// The exact chunk sequence served through `submit_batch`, in order.
    /// With persistence on, this is read back from the **durable journal**
    /// (the frames this instance appended) and is present regardless of
    /// [`ServiceConfig::record_journal`]. Without persistence it is the
    /// in-memory recording (empty unless `record_journal` was set).
    /// Replaying it through a fresh, identically-built session reproduces
    /// the final structure bit for bit.
    pub journal: Vec<Vec<Request>>,
    /// Final counter snapshot.
    pub metrics: ServiceMetrics,
}

/// What [`DsgService::open`] found in the store directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenReport {
    /// `false` for a cold start (missing or empty directory: the session
    /// was built fresh and the initial checkpoint cut), `true` when an
    /// existing store was recovered.
    pub recovered: bool,
    /// Seq of the snapshot the engine was restored from (on a cold start,
    /// of the initial checkpoint just cut).
    pub snapshot_seq: u64,
    /// Size of that snapshot file in bytes.
    pub snapshot_bytes: u64,
    /// Journal frames replayed on top of the snapshot.
    pub frames_replayed: u64,
    /// Requests inside those frames.
    pub requests_replayed: u64,
    /// Torn bytes truncated off the journal tail (a crash interrupted an
    /// append; the partial frame was dropped, never served).
    pub torn_bytes_truncated: u64,
    /// `true` if a newer snapshot file was damaged and recovery fell back
    /// to an older one (replaying a longer suffix).
    pub fell_back: bool,
}

/// A live introspection snapshot from [`DsgService::status`]: the
/// service's live state beside its counters. The queue fields, the
/// overload flags, the store's position and the counters are read at one
/// moment: the counters' lock is taken inside the queue lock, and every
/// update of the flags and the position takes that lock too. Only the
/// sojourn quantiles come from a lock-free histogram, read just after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStatus {
    /// Requests currently queued, awaiting the ingest thread.
    pub queue_depth: usize,
    /// Whether shutdown has begun (the queue accepts no new requests).
    pub closed: bool,
    /// Whether an apply-stage fault (or failed audit) has poisoned the
    /// engine.
    pub poisoned: bool,
    /// Whether the overload controller is currently refusing submissions
    /// with [`SubmitError::Shed`].
    pub shedding: bool,
    /// Whether chunks are currently served under a brownout verdict.
    pub brownout: bool,
    /// Median queue sojourn of drained requests, as the upper bound of
    /// the matching power-of-two histogram bucket, in microseconds (0
    /// with no drained requests yet).
    pub sojourn_p50_us: u64,
    /// 99th-percentile queue sojourn, bucketed like
    /// [`sojourn_p50_us`](ServiceStatus::sojourn_p50_us).
    pub sojourn_p99_us: u64,
    /// Durable journal length in bytes (0 without persistence).
    pub journal_bytes: u64,
    /// Seq of the snapshot in force — the one the store recovered from or
    /// last checkpointed (0 without persistence).
    pub snapshot_seq: u64,
    /// Journal offset the current snapshot binding replays from.
    pub snapshot_offset: u64,
    /// The service's counters, as [`DsgService::metrics`] reads them.
    pub metrics: ServiceMetrics,
}

/// One submitted request's resolution slot, written exactly once (by the
/// ingest thread, or by shutdown for an aborted backlog). The result is
/// read without a lock; only a thread that blocks on it takes `waiters`.
struct TicketCell {
    result: OnceLock<Result<SubmitOutcome, DsgError>>,
    /// Threads blocked in [`Ticket::wait`] or [`Ticket::wait_timeout`].
    /// Read and written under this mutex, which `ready` waits with.
    waiters: Mutex<usize>,
    ready: Condvar,
}

impl TicketCell {
    fn new() -> Arc<Self> {
        Arc::new(TicketCell {
            result: OnceLock::new(),
            waiters: Mutex::new(0),
            ready: Condvar::new(),
        })
    }

    /// First write wins; later resolutions are ignored. Notifies only
    /// while a waiter is registered: a waiter registers before it checks
    /// the result, so it either sees the result or is counted here.
    fn resolve(&self, value: Result<SubmitOutcome, DsgError>) {
        if self.result.set(value).is_ok() && *self.waiters.lock().expect("ticket lock") > 0 {
            self.ready.notify_all();
        }
    }
}

/// The resolution handle of one accepted request. The service guarantees
/// every ticket resolves — with the request's outcome, its own validation
/// error, [`DsgError::EpochAborted`], [`DsgError::EnginePoisoned`], or
/// [`DsgError::ShuttingDown`] — so [`wait`](Ticket::wait) never hangs on
/// a live service.
pub struct Ticket {
    cell: Arc<TicketCell>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("resolved", &self.try_result().is_some())
            .finish()
    }
}

impl Ticket {
    /// The result, if the request has been resolved yet. Takes no lock:
    /// an unresolved ticket costs one atomic load to poll.
    pub fn try_result(&self) -> Option<Result<SubmitOutcome, DsgError>> {
        self.cell.result.get().cloned()
    }

    /// Blocks until the request resolves.
    ///
    /// # Errors
    ///
    /// The request's own typed failure; see the [module docs](self) for
    /// the possible variants.
    pub fn wait(&self) -> Result<SubmitOutcome, DsgError> {
        self.block(None)
            .expect("a wait without a deadline ends resolved")
    }

    /// Blocks until the request resolves or the timeout elapses; `None`
    /// on timeout (the ticket stays valid and can be waited on again).
    ///
    /// A shed request still *resolves* — a deadline-expired submission's
    /// ticket carries [`DsgError::DeadlineExceeded`] the moment it is
    /// shed, so the waiter gets the typed error rather than sitting out
    /// its full timeout (`tests/service.rs` pins this).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<SubmitOutcome, DsgError>> {
        self.block(Some(Instant::now() + timeout))
    }

    /// Blocks until the request resolves (`Some`) or `deadline` passes
    /// (`None`), registered as a waiter throughout so that
    /// [`TicketCell::resolve`] knows to notify.
    fn block(&self, deadline: Option<Instant>) -> Option<Result<SubmitOutcome, DsgError>> {
        let cell = &*self.cell;
        if let Some(result) = cell.result.get() {
            return Some(result.clone());
        }
        let mut waiters = cell.waiters.lock().expect("ticket lock");
        *waiters += 1;
        let result = loop {
            if let Some(result) = cell.result.get() {
                break Some(result.clone());
            }
            waiters = match deadline {
                None => cell.ready.wait(waiters).expect("ticket lock"),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        break None;
                    }
                    cell.ready
                        .wait_timeout(waiters, deadline - now)
                        .expect("ticket lock")
                        .0
                }
            };
        };
        *waiters -= 1;
        result
    }
}

/// One queued request with its resolution slot.
struct Item {
    request: Request,
    ticket: Arc<TicketCell>,
    /// When the request was accepted onto the queue (sojourn clock).
    enqueued_at: Instant,
    /// Absolute deadline, if the submission carried one; an expired item
    /// is shed at drain time instead of being served.
    deadline: Option<Instant>,
}

/// Control messages bypass the queue capacity so a wedged (full or
/// poisoned) service still accepts them.
enum Control {
    Recover(Arc<ReplyCell>),
}

/// Reply slot of a [`Control::Recover`] round trip.
struct ReplyCell {
    slot: Mutex<Option<Result<RecoveryReport, DsgError>>>,
    ready: Condvar,
}

impl ReplyCell {
    fn new() -> Arc<Self> {
        Arc::new(ReplyCell {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn resolve(&self, value: Result<RecoveryReport, DsgError>) {
        let mut slot = self.slot.lock().expect("reply lock");
        *slot = Some(value);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<RecoveryReport, DsgError> {
        let mut slot = self.slot.lock().expect("reply lock");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.ready.wait(slot).expect("reply lock");
        }
    }
}

/// Queue state guarded by the one service mutex. `poisoned` lives here —
/// not in an atomic — so admission decisions and the poison transition are
/// serialized against each other.
#[derive(Default)]
struct QueueState {
    items: VecDeque<Item>,
    control: VecDeque<Control>,
    closed: bool,
    poisoned: bool,
    /// The ingest thread is parked on `not_empty`. A producer notifies it
    /// only then, and clears the flag as it does.
    ingest_parked: bool,
    /// Producers blocked in [`DsgService::submit_deadline`] on `not_full`;
    /// a drain notifies them only while this is non-zero.
    blocked_producers: usize,
}

/// Buckets of the power-of-two sojourn histogram: bucket `i` counts
/// drained requests whose queue sojourn was in `[2^i, 2^(i+1))`
/// microseconds (the last bucket absorbs everything above ~35 minutes).
const SOJOURN_BUCKETS: usize = 32;

/// Heartbeat stage names, indexed by `Shared::heartbeat_stage`.
const STAGES: [&str; 6] = ["idle", "drain", "journal", "engine", "audit", "checkpoint"];
const STAGE_IDLE: usize = 0;
const STAGE_DRAIN: usize = 1;
const STAGE_JOURNAL: usize = 2;
const STAGE_ENGINE: usize = 3;
const STAGE_AUDIT: usize = 4;
const STAGE_CHECKPOINT: usize = 5;

/// How long the ingest loop polls for work on an empty queue before it
/// parks on `not_empty`: about what being parked and woken costs (from
/// the producer's notify until the ingest thread runs, 40–50 µs on
/// average on a 2-vCPU host, under a long tail), so spinning never
/// costs more than twice what parking at once would. A closed-loop
/// client's next request lands within a few µs of its last result, well
/// inside the spin; an idle service burns at most this much CPU after
/// its last request before it sleeps.
const IDLE_SPIN: Duration = Duration::from_micros(50);

/// Polls of `work_posted` between two yields (and clock reads) of the
/// idle spin.
const SPIN_POLLS: u32 = 64;

struct Shared {
    queue: Mutex<QueueState>,
    /// Producers wait here for queue space.
    not_full: Condvar,
    /// The ingest thread waits here for work.
    not_empty: Condvar,
    /// Set under the queue lock by everything that gives the ingest loop
    /// work: an admitted request, a control message, the close. The loop
    /// clears it under the lock before its idle spin and polls it
    /// without the lock. It publishes no data (the loop reads the queue
    /// under the lock once it sees the flag), so its orderings only pair
    /// each set (`Release`) with the poll (`Acquire`).
    work_posted: AtomicBool,
    /// Epoch of the service's monotonic clock: heartbeat stamps and the
    /// controller's window timestamps are nanoseconds since this instant.
    start: Instant,
    /// Nanoseconds since `start` at the ingest loop's last stage change.
    heartbeat_ns: AtomicU64,
    /// Index into [`STAGES`] of the stage the ingest loop last entered.
    heartbeat_stage: AtomicUsize,
    /// Tells the watchdog thread to exit.
    watchdog_stop: AtomicBool,
    sojourn_hist: [AtomicU64; SOJOURN_BUCKETS],
    /// Everything the service counts and publishes: the counters, the
    /// overload flags and the durable store's position. The queue fields
    /// and the sojourn quantiles stay at their defaults here;
    /// [`DsgService::status`] fills them in as it reads. The innermost
    /// lock: held only to read or update these fields, never across a
    /// call into the engine, the store, an observer or a ticket, and no
    /// other lock is taken under it.
    status: Mutex<ServiceStatus>,
}

impl Shared {
    fn new() -> Arc<Self> {
        Arc::new(Shared {
            queue: Mutex::default(),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            work_posted: AtomicBool::new(false),
            start: Instant::now(),
            heartbeat_ns: AtomicU64::new(0),
            heartbeat_stage: AtomicUsize::new(STAGE_IDLE),
            watchdog_stop: AtomicBool::new(false),
            sojourn_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            status: Mutex::default(),
        })
    }

    /// Locks what the service counts and publishes.
    fn status(&self) -> MutexGuard<'_, ServiceStatus> {
        self.status.lock().expect("status lock")
    }

    /// Publishes the durable store's position: its journal length, the
    /// snapshot in force and the journal offset it binds, and the
    /// checkpoints that reused a node section; `cut` counts the snapshots
    /// just checkpointed, in the same critical section. The store is read
    /// before the lock is taken.
    fn publish_store(&self, store: &DurableStore, cut: u64) {
        let position = (
            store.journal_len(),
            store.snapshot_seq(),
            store.bound_offset(),
            store.reused_node_sections(),
        );
        let mut status = self.status();
        status.metrics.snapshots += cut;
        (
            status.journal_bytes,
            status.snapshot_seq,
            status.snapshot_offset,
            status.metrics.snapshots_reused,
        ) = position;
    }

    /// Tells the ingest loop that there is work: ends its idle spin, and
    /// wakes it if it is parked. Call with the queue lock held.
    fn post_work(&self, q: &mut QueueState) {
        self.work_posted.store(true, Ordering::Release);
        if std::mem::take(&mut q.ingest_parked) {
            self.not_empty.notify_one();
        }
    }

    /// Nanoseconds since the service's clock epoch.
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn record_sojourn_us(&self, us: u64) {
        let bucket = ((us | 1).ilog2() as usize).min(SOJOURN_BUCKETS - 1);
        self.sojourn_hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The `p`-quantile (`0..=100`) of the sojourn histogram, reported as
    /// the upper bound of the matching bucket in microseconds (0 with no
    /// samples).
    fn sojourn_quantile_us(&self, p: u64) -> u64 {
        let counts: Vec<u64> = self
            .sojourn_hist
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (total * p).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, &count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return 2u64.saturating_pow(i as u32 + 1).saturating_sub(1);
            }
        }
        u64::MAX
    }
}

/// Everything the ingest thread hands back when it exits.
type WorkerOutput = (DsgSession, Vec<Vec<Request>>, Option<DurableStore>);

/// The concurrent ingest front-end; see the [module docs](self).
pub struct DsgService {
    shared: Arc<Shared>,
    config: ServiceConfig,
    /// The store directory when persistence is on.
    persist_dir: Option<PathBuf>,
    /// Durable journal length at the moment this instance started serving:
    /// the frames *this* instance appended begin here.
    base_offset: u64,
    handle: Option<JoinHandle<WorkerOutput>>,
    /// The stall watchdog thread, when overload control is configured.
    watchdog: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for DsgService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsgService")
            .field("config", &self.config)
            .field("metrics", &self.metrics())
            .finish()
    }
}

impl DsgService {
    /// Moves the session onto a dedicated ingest thread and starts
    /// serving.
    ///
    /// # Errors
    ///
    /// Returns [`DsgError::InvalidConfig`] for a zero queue capacity or
    /// ingest batch size, and when [`ServiceConfig::persist`] is set — a
    /// persistent service needs a store directory and must be opened with
    /// [`open`](DsgService::open).
    pub fn spawn(session: DsgSession, config: ServiceConfig) -> Result<Self, DsgError> {
        Self::validate_config(&config)?;
        if config.persist.is_some() {
            return Err(DsgError::InvalidConfig(
                "a persistent service is opened with DsgService::open(dir, builder, config)"
                    .to_string(),
            ));
        }
        Ok(Self::spawn_inner(session, config, None))
    }

    /// Opens a **persistent** service over the store directory `dir`,
    /// recovering from a previous instance's journal and snapshots if the
    /// directory holds any.
    ///
    /// On a **cold start** (missing directory, or one with no snapshot and
    /// an empty journal) the `builder` is built into a fresh session, the
    /// initial snapshot checkpoint is cut (so the store is recoverable from
    /// its very first append), and the service starts serving. On
    /// **recovery**, the engine is restored from the newest valid snapshot
    /// (falling back to an older one if the newest is damaged; the restore
    /// deep-validates it), a torn journal tail is truncated, the surviving journal suffix
    /// is replayed, and the result is deep-validated before the service
    /// serves its first request — by a second `validate()`, or, when the
    /// replayed frames changed no node, link, vector or state entry (the
    /// engine's [`generation`](crate::DynamicSkipGraph::generation) stamp
    /// did not move), by the restore's own validation. In
    /// that case the `builder` only contributes its observers — topology
    /// and [`DsgConfig`](crate::DsgConfig) come from the snapshot, not
    /// from the builder.
    ///
    /// The returned [`OpenReport`] says which path ran and what was
    /// replayed or truncated.
    ///
    /// # Errors
    ///
    /// [`DsgError::InvalidConfig`] when [`ServiceConfig::persist`] is
    /// `None` or the queue/batch sizes are zero; [`DsgError::Persist`] for
    /// store damage a restart cannot safely serve over (a corrupt —
    /// not merely torn — journal frame, every snapshot file damaged or in
    /// the older `DSGSNAP2` format, a journal without any snapshot, a
    /// journal shorter than the chosen snapshot's binding, I/O failures);
    /// any engine error of the replay or the final deep validation.
    pub fn open(
        dir: impl AsRef<Path>,
        builder: DsgBuilder,
        config: ServiceConfig,
    ) -> Result<(Self, OpenReport), DsgError> {
        Self::validate_config(&config)?;
        let Some(persist) = config.persist else {
            return Err(DsgError::InvalidConfig(
                "DsgService::open needs ServiceConfig::persist to be set".to_string(),
            ));
        };
        let (mut store, recovered) = DurableStore::open(dir, persist)?;
        let (session, report) = match recovered {
            None => {
                let session = builder.build()?;
                let snapshot_bytes = store.checkpoint_engine(session.engine())?;
                let report = OpenReport {
                    recovered: false,
                    snapshot_seq: store.snapshot_seq(),
                    snapshot_bytes,
                    frames_replayed: 0,
                    requests_replayed: 0,
                    torn_bytes_truncated: 0,
                    fell_back: false,
                };
                (session, report)
            }
            Some(rec) => {
                let engine = DynamicSkipGraph::restore_image_owned(rec.image)?;
                // `restore_image` closed with a deep validation of this
                // stamp.
                let validated = engine.generation();
                let mut session = builder.build_recovered(engine);
                let mut requests_replayed = 0u64;
                for (frame, &brownout) in rec.frames.iter().zip(&rec.brownout) {
                    requests_replayed += frame.len() as u64;
                    // Replay each chunk under the degradation verdict it
                    // was journaled with, so the recovered structure is
                    // bit-identical to the pre-crash one.
                    session.submit_batch_degraded(frame, brownout)?;
                }
                if session.engine().generation() != validated {
                    session.engine().validate()?;
                }
                let report = OpenReport {
                    recovered: true,
                    snapshot_seq: rec.snapshot_seq,
                    snapshot_bytes: rec.snapshot_bytes,
                    frames_replayed: rec.frames.len() as u64,
                    requests_replayed,
                    torn_bytes_truncated: rec.torn_bytes_truncated,
                    fell_back: rec.fell_back,
                };
                (session, report)
            }
        };
        Ok((Self::spawn_inner(session, config, Some(store)), report))
    }

    fn validate_config(config: &ServiceConfig) -> Result<(), DsgError> {
        if config.queue_capacity == 0 {
            return Err(DsgError::InvalidConfig(
                "the ingest queue needs a capacity of at least 1".to_string(),
            ));
        }
        if config.ingest_batch == 0 {
            return Err(DsgError::InvalidConfig(
                "the ingest batch size must be at least 1".to_string(),
            ));
        }
        Ok(())
    }

    fn spawn_inner(
        session: DsgSession,
        config: ServiceConfig,
        store: Option<DurableStore>,
    ) -> Self {
        let shared = Shared::new();
        let (persist_dir, base_offset) = match &store {
            Some(store) => {
                shared.publish_store(store, 0);
                (Some(store.dir().to_path_buf()), store.journal_len())
            }
            None => (None, 0),
        };
        // Cadence baselines start at the session's current epoch count so
        // a recovery replay does not immediately trigger a deep audit or a
        // snapshot.
        let epochs = session.epochs();
        // The watchdog keeps its own observer handles so it can report a
        // stall while the ingest thread (which owns the session) is the
        // very thing that is stuck.
        let watchdog = config.overload.map(|overload| {
            let shared = Arc::clone(&shared);
            let observers = session.observer_handles();
            std::thread::Builder::new()
                .name("dsg-service-watchdog".to_string())
                .spawn(move || watchdog_loop(&shared, &observers, overload.stall_after))
                .expect("spawning the watchdog thread")
        });
        let worker = Worker {
            session,
            shared: Arc::clone(&shared),
            config,
            journal: Vec::new(),
            epochs_at_last_deep: epochs,
            last_clean_deep: None,
            epochs_at_last_snapshot: epochs,
            store,
            overload: config.overload.map(|o| OverloadController::new(&o)),
            run: RunBuffers::default(),
        };
        let handle = std::thread::Builder::new()
            .name("dsg-service-ingest".to_string())
            .spawn(move || worker.run())
            .expect("spawning the ingest thread");
        DsgService {
            shared,
            config,
            persist_dir,
            base_offset,
            handle: Some(handle),
            watchdog,
        }
    }

    /// Submits a request without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the queue is full,
    /// [`SubmitError::Shed`] while the overload controller is shedding,
    /// [`SubmitError::ShuttingDown`] after shutdown began,
    /// [`SubmitError::Poisoned`] while the engine is poisoned.
    pub fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        self.submit_inner(request, None)
    }

    /// Submits a request carrying a completion **deadline**: if it is
    /// still queued once `budget` has elapsed, it is shed at drain time —
    /// before the journal and the engine pay for it — and its ticket
    /// resolves with [`DsgError::DeadlineExceeded`] (the request was never
    /// served and can be resubmitted). Queue admission itself is
    /// non-blocking, exactly like [`submit`](Self::submit); the deadline
    /// governs the *queued* request, not the admission call.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_with_deadline(
        &self,
        request: Request,
        budget: Duration,
    ) -> Result<Ticket, SubmitError> {
        self.submit_inner(request, Some(Instant::now() + budget))
    }

    fn submit_inner(
        &self,
        request: Request,
        deadline: Option<Instant>,
    ) -> Result<Ticket, SubmitError> {
        let mut q = self.shared.queue.lock().expect("queue lock");
        self.admit(&mut q, request, deadline).inspect_err(|&e| {
            if e == SubmitError::Overloaded {
                self.shared.status().metrics.rejected_overload += 1;
            }
        })
    }

    /// Submits with producer-side backoff over the typed refusals: on
    /// [`SubmitError::Overloaded`] or [`SubmitError::Shed`] the call
    /// sleeps per `policy` — jittered exponential delays, floored at the
    /// shed refusal's retry-after hint — and tries again, up to
    /// [`RetryPolicy::attempts`] total attempts.
    ///
    /// # Errors
    ///
    /// The last refusal once the attempts are exhausted; any
    /// non-retryable refusal ([`SubmitError::ShuttingDown`],
    /// [`SubmitError::Poisoned`]) immediately.
    pub fn submit_retry(
        &self,
        request: Request,
        policy: &RetryPolicy,
    ) -> Result<Ticket, SubmitError> {
        let attempts = policy.attempts.max(1);
        let mut attempt = 0u32;
        loop {
            let refusal = match self.submit(request) {
                Ok(ticket) => return Ok(ticket),
                Err(e @ (SubmitError::Overloaded | SubmitError::Shed { .. })) => e,
                Err(other) => return Err(other),
            };
            attempt += 1;
            if attempt >= attempts {
                return Err(refusal);
            }
            let hint = match refusal {
                SubmitError::Shed { retry_after } => Some(retry_after),
                _ => None,
            };
            std::thread::sleep(policy.backoff(attempt - 1, hint));
        }
    }

    /// Submits a request, blocking for queue space up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Timeout`] if no space appeared in time; otherwise as
    /// [`submit`](Self::submit) (a service that shuts down or poisons
    /// while this call is blocked fails it immediately with the
    /// corresponding variant, not the timeout).
    pub fn submit_deadline(
        &self,
        request: Request,
        timeout: Duration,
    ) -> Result<Ticket, SubmitError> {
        let deadline = Instant::now() + timeout;
        let mut q = self.shared.queue.lock().expect("queue lock");
        loop {
            match self.admit(&mut q, request, None) {
                Err(SubmitError::Overloaded) => {}
                resolved => return resolved,
            }
            let now = Instant::now();
            if now >= deadline {
                self.shared.status().metrics.submit_timeouts += 1;
                return Err(SubmitError::Timeout);
            }
            q.blocked_producers += 1;
            let (guard, _) = self
                .shared
                .not_full
                .wait_timeout(q, deadline - now)
                .expect("queue lock");
            q = guard;
            q.blocked_producers -= 1;
        }
    }

    /// Queue admission under the lock: typed rejection or an enqueued
    /// ticket.
    fn admit(
        &self,
        q: &mut QueueState,
        request: Request,
        deadline: Option<Instant>,
    ) -> Result<Ticket, SubmitError> {
        if q.closed {
            return Err(SubmitError::ShuttingDown);
        }
        if q.poisoned {
            return Err(SubmitError::Poisoned);
        }
        {
            let mut status = self.shared.status();
            if status.shedding {
                status.metrics.shed_submits += 1;
                let retry_after = self
                    .config
                    .overload
                    .map_or(Duration::ZERO, |o| o.retry_after);
                return Err(SubmitError::Shed { retry_after });
            }
            if q.items.len() >= self.config.queue_capacity {
                return Err(SubmitError::Overloaded);
            }
            status.metrics.submitted += 1;
            status.metrics.max_queue_depth = status.metrics.max_queue_depth.max(q.items.len() + 1);
        }
        let cell = TicketCell::new();
        q.items.push_back(Item {
            request,
            ticket: Arc::clone(&cell),
            enqueued_at: Instant::now(),
            deadline,
        });
        self.shared.post_work(q);
        Ok(Ticket { cell })
    }

    /// Whether an apply-stage fault (or failed audit) has poisoned the
    /// engine.
    pub fn is_poisoned(&self) -> bool {
        self.shared.queue.lock().expect("queue lock").poisoned
    }

    /// A snapshot of the service counters, all read at one moment (see
    /// [`ServiceMetrics`]).
    pub fn metrics(&self) -> ServiceMetrics {
        self.shared.status().metrics
    }

    /// A live introspection snapshot: queue depth and health flags, the
    /// overload, sojourn and durability state and every counter, read at
    /// one moment (see [`ServiceStatus`]). Cheap enough to poll from
    /// monitoring loops.
    pub fn status(&self) -> ServiceStatus {
        let q = self.shared.queue.lock().expect("queue lock");
        let mut status = ServiceStatus {
            queue_depth: q.items.len(),
            closed: q.closed,
            poisoned: q.poisoned,
            ..*self.shared.status()
        };
        drop(q);
        status.sojourn_p50_us = self.shared.sojourn_quantile_us(50);
        status.sojourn_p99_us = self.shared.sojourn_quantile_us(99);
        status
    }

    /// Rebuilds the poisoned engine from the surviving per-peer state and
    /// resumes service (see
    /// [`DynamicSkipGraph::recover_from_surviving`](crate::DynamicSkipGraph::recover_from_surviving)
    /// for what survives). Blocks until the ingest thread finishes the
    /// rebuild and deep-validates the result.
    ///
    /// With persistence on, a successful recovery also cuts a fresh
    /// snapshot checkpoint binding the rebuilt engine at the current
    /// journal offset, so a later restart resumes from the recovered
    /// structure instead of replaying into the pre-fault one.
    ///
    /// # Errors
    ///
    /// [`DsgError::NotPoisoned`] if the service is not poisoned (there
    /// is nothing to recover — the rebuild would discard healthy adjusted
    /// structure), [`DsgError::ShuttingDown`] after shutdown began, and
    /// any error of the rebuild itself (the service then stays poisoned).
    pub fn recover(&self) -> Result<RecoveryReport, DsgError> {
        let reply = ReplyCell::new();
        {
            let mut q = self.shared.queue.lock().expect("queue lock");
            if q.closed {
                return Err(DsgError::ShuttingDown);
            }
            q.control.push_back(Control::Recover(Arc::clone(&reply)));
            self.shared.work_posted.store(true, Ordering::Release);
            self.shared.not_empty.notify_one();
        }
        reply.wait()
    }

    /// Shuts the service down and hands the session back. Per
    /// [`ServiceConfig::shutdown`], the queued backlog is either drained
    /// (served normally) or resolved with [`DsgError::ShuttingDown`];
    /// either way every outstanding ticket resolves and the ingest thread
    /// is joined. With persistence on, the journal is fsynced and
    /// [`ShutdownOutcome::journal`] is read back from the durable log —
    /// no final snapshot is cut, so the store directory stays a faithful
    /// crash image and the next [`open`](DsgService::open) exercises the
    /// same recovery path a real crash would.
    ///
    /// Takes `&mut self` so a shut-down service can still be dropped (or
    /// queried) safely; the work happens on the first call only.
    ///
    /// # Errors
    ///
    /// [`DsgError::AlreadyShutDown`] on a second call, and
    /// [`DsgError::Persist`] if reading the durable journal back fails
    /// (the session is lost with the error; this requires the just-written
    /// journal to be unreadable, i.e. a failing disk).
    pub fn shutdown(&mut self) -> Result<ShutdownOutcome, DsgError> {
        let (session, recorded, store) =
            self.close_and_join().ok_or(DsgError::AlreadyShutDown)?;
        let journal = match &self.persist_dir {
            Some(dir) => {
                // Close the write handle before reading the log back.
                drop(store);
                read_journal_from(dir, self.base_offset)
                    .map_err(DsgError::from)?
                    .frames
            }
            None => recorded,
        };
        Ok(ShutdownOutcome {
            session,
            journal,
            metrics: self.metrics(),
        })
    }

    /// Closes the queue (applying the shutdown policy to the backlog) and
    /// joins the ingest thread. `None` if already joined.
    fn close_and_join(&mut self) -> Option<WorkerOutput> {
        let handle = self.handle.take()?;
        self.shared.watchdog_stop.store(true, Ordering::Release);
        let aborted: Vec<Item> = {
            let mut q = self.shared.queue.lock().expect("queue lock");
            q.closed = true;
            let aborted = match self.config.shutdown {
                ShutdownPolicy::Drain => Vec::new(),
                ShutdownPolicy::Abort => q.items.drain(..).collect(),
            };
            self.shared.work_posted.store(true, Ordering::Release);
            self.shared.not_empty.notify_all();
            self.shared.not_full.notify_all();
            aborted
        };
        for item in aborted {
            item.ticket.resolve(Err(DsgError::ShuttingDown));
        }
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
        match handle.join() {
            Ok(out) => Some(out),
            // The ingest thread catches engine panics; a panic escaping it
            // is a service bug — surface it on the caller.
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

impl Drop for DsgService {
    fn drop(&mut self) {
        let _ = self.close_and_join();
    }
}

/// State owned by the ingest thread.
struct Worker {
    session: DsgSession,
    shared: Arc<Shared>,
    config: ServiceConfig,
    journal: Vec<Vec<Request>>,
    epochs_at_last_deep: u64,
    /// The engine stamp the last deep `validate()` passed on; a deep audit
    /// due while the stamp still equals it is certified without a sweep.
    last_clean_deep: Option<Generation>,
    epochs_at_last_snapshot: u64,
    /// The durable store, when the service was opened with persistence.
    /// Single-owner: only this thread touches it.
    store: Option<DurableStore>,
    /// The sojourn controller, when overload control is configured.
    overload: Option<OverloadController>,
    /// The run being served, kept across runs so that serving one
    /// allocates none of these.
    run: RunBuffers,
}

/// The drained items of one run, and the chunk and tickets of the
/// requests in it that pass validation.
#[derive(Default)]
struct RunBuffers {
    items: Vec<Item>,
    chunk: Vec<Request>,
    tickets: Vec<Arc<TicketCell>>,
}

impl RunBuffers {
    /// Empties the buffers, keeping their allocations.
    fn clear(&mut self) {
        self.items.clear();
        self.chunk.clear();
        self.tickets.clear();
    }
}

enum WorkUnit {
    /// A run was drained into [`Worker::run`].
    Batch,
    Control(Control),
    Exit,
}

impl Worker {
    fn run(mut self) -> WorkerOutput {
        loop {
            match self.next_work() {
                WorkUnit::Exit => break,
                WorkUnit::Control(Control::Recover(reply)) => self.handle_recover(&reply),
                WorkUnit::Batch => {
                    let mut run = std::mem::take(&mut self.run);
                    self.serve(&mut run);
                    run.clear();
                    self.run = run;
                }
            }
        }
        if let Some(store) = self.store.as_mut() {
            // Make everything served durable before exiting. Deliberately
            // no final snapshot: the directory stays a faithful crash
            // image, so reopening a cleanly shut down store exercises the
            // same recovery path a real crash would.
            let _ = store.sync();
        }
        (self.session, self.journal, self.store)
    }

    /// Blocks for the next unit of work. Control messages take priority
    /// over queued requests so recovery is never starved by a backlog.
    /// On an empty queue the loop spins for up to [`IDLE_SPIN`] before it
    /// parks, so a request that follows soon after costs no wake-up.
    fn next_work(&mut self) -> WorkUnit {
        let mut q = self.shared.queue.lock().expect("queue lock");
        let mut spun = false;
        loop {
            if let Some(control) = q.control.pop_front() {
                return WorkUnit::Control(control);
            }
            if !q.items.is_empty() {
                let take = self.config.ingest_batch.min(q.items.len());
                self.run.items.extend(q.items.drain(..take));
                if q.blocked_producers > 0 {
                    self.shared.not_full.notify_all();
                }
                return WorkUnit::Batch;
            }
            if q.closed {
                return WorkUnit::Exit;
            }
            // An empty queue is definitive evidence against overload:
            // exit any degradation immediately (outside the queue lock —
            // observers run user code).
            if let Some(controller) = self.overload.as_mut() {
                let now_ns = self.shared.now_ns();
                if let Some(transition) = controller.note_idle(now_ns) {
                    drop(q);
                    self.apply_transition(transition);
                    q = self.shared.queue.lock().expect("queue lock");
                    continue;
                }
            }
            // The watchdog reads the spin, like the park, as idle.
            self.beat(STAGE_IDLE);
            if !spun {
                spun = true;
                // Cleared under the lock, after the queue was seen empty:
                // anything posted since sets it again.
                self.shared.work_posted.store(false, Ordering::Relaxed);
                drop(q);
                self.spin_for_work();
                q = self.shared.queue.lock().expect("queue lock");
                continue;
            }
            q.ingest_parked = true;
            q = self.shared.not_empty.wait(q).expect("queue lock");
            q.ingest_parked = false;
        }
    }

    /// Polls `work_posted` for up to [`IDLE_SPIN`], yielding every
    /// [`SPIN_POLLS`] polls so that a producer sharing this CPU still
    /// runs.
    fn spin_for_work(&self) {
        let started = Instant::now();
        loop {
            for _ in 0..SPIN_POLLS {
                if self.shared.work_posted.load(Ordering::Acquire) {
                    return;
                }
                std::hint::spin_loop();
            }
            if started.elapsed() >= IDLE_SPIN {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Stamps the ingest heartbeat: the loop entered `stage` now.
    fn beat(&self, stage: usize) {
        self.shared
            .heartbeat_ns
            .store(self.shared.now_ns(), Ordering::Relaxed);
        self.shared.heartbeat_stage.store(stage, Ordering::Relaxed);
    }

    /// Publishes a controller transition: the shedding/brownout flags,
    /// the entry/exit counters, and the observer event. Blocked
    /// `submit_deadline` callers are woken so they learn about shedding
    /// promptly instead of at their timeout.
    fn apply_transition(&self, transition: OverloadTransition) {
        let shedding = transition.state.sheds();
        let brownout = transition.state.brownout();
        {
            let mut status = self.shared.status();
            status.shedding = shedding;
            let was = std::mem::replace(&mut status.brownout, brownout);
            status.metrics.brownout_entries += u64::from(brownout && !was);
            status.metrics.brownout_exits += u64::from(was && !brownout);
        }
        if shedding {
            self.shared.not_full.notify_all();
        }
        self.session.notify_overload(&OverloadEvent {
            epoch: self.session.epochs(),
            shedding,
            brownout,
            min_sojourn_ns: transition.min_sojourn_ns,
        });
    }

    fn handle_recover(&mut self, reply: &ReplyCell) {
        self.beat(STAGE_ENGINE);
        let poisoned = self.shared.queue.lock().expect("queue lock").poisoned;
        if !poisoned {
            reply.resolve(Err(DsgError::NotPoisoned));
            return;
        }
        match self.session.engine_mut().recover_from_surviving() {
            Ok(report) => {
                // With persistence on, the journal may hold the chunk whose
                // apply faulted; the rebuilt engine supersedes a replay of
                // it. Rebind the store to the recovered image so a restart
                // resumes from the structure the caller now observes.
                self.cut_checkpoint();
                {
                    let mut q = self.shared.queue.lock().expect("queue lock");
                    q.poisoned = false;
                    self.shared.status().metrics.recoveries += 1;
                }
                self.shared.not_full.notify_all();
                reply.resolve(Ok(report));
            }
            Err(err) => reply.resolve(Err(err)),
        }
    }

    /// Serves one drained run: sojourn accounting and overload
    /// transitions, deadline shedding, per-request validation, one
    /// guarded `submit_batch`, ticket resolution, and the tiered audit.
    ///
    /// A drained run never meets a poisoned engine: only this thread
    /// poisons, [`poison`](Self::poison) empties the queue, and admission
    /// refuses while the flag is set, so a non-empty drain saw it clear.
    fn serve(&mut self, run: &mut RunBuffers) {
        self.beat(STAGE_DRAIN);

        // The controller sees every drained request's queue sojourn —
        // including requests about to be shed — and its verdict for this
        // chunk is fixed here, before the journal write that records it.
        let now = Instant::now();
        let now_ns = self.shared.now_ns();
        let mut transitions: Vec<OverloadTransition> = Vec::new();
        for item in &run.items {
            let sojourn_ns = now.saturating_duration_since(item.enqueued_at).as_nanos() as u64;
            self.shared.record_sojourn_us(sojourn_ns / 1_000);
            if let Some(controller) = self.overload.as_mut() {
                if let Some(transition) = controller.record_sojourn(now_ns, sojourn_ns) {
                    transitions.push(transition);
                }
            }
        }
        for transition in transitions {
            self.apply_transition(transition);
        }
        let brownout = self.overload.as_ref().is_some_and(|c| c.state().brownout());

        // Deadline shedding, then per-request validation against the
        // engine's membership with the run's own queued membership changes
        // overlaid — one malformed or expired request fails one ticket and
        // never the run.
        let mut membership: HashMap<u64, bool> = HashMap::new();
        for item in run.items.drain(..) {
            if item.deadline.is_some_and(|deadline| deadline <= now) {
                self.shared.status().metrics.deadline_shed += 1;
                item.ticket.resolve(Err(DsgError::DeadlineExceeded));
                continue;
            }
            match self.validate(&item.request, &mut membership) {
                Ok(()) => {
                    run.chunk.push(item.request);
                    run.tickets.push(item.ticket);
                }
                Err(err) => item.ticket.resolve(Err(err)),
            }
        }
        let (chunk, tickets) = (&run.chunk, &run.tickets);
        if chunk.is_empty() {
            return;
        }

        // WAL ordering: the chunk — and its brownout verdict — reaches
        // the durable journal (and, per the fsync cadence, the disk)
        // before the engine ever sees it.
        self.beat(STAGE_JOURNAL);
        if !self.journal_chunk(chunk, tickets, brownout) {
            return;
        }

        self.beat(STAGE_ENGINE);
        let before = self.applied_mark();
        let session = &mut self.session;
        let served = panic::catch_unwind(AssertUnwindSafe(|| {
            // Fault-injection site: a panic at the top of the ingest loop
            // must fail this run's tickets and nothing else.
            failpoint::hit(failpoint::INGEST_LOOP);
            session.submit_batch_degraded(chunk, brownout)
        }));
        match served {
            Ok(Ok(batch)) => {
                debug_assert_eq!(batch.outcomes.len(), tickets.len());
                for (ticket, outcome) in tickets.iter().zip(batch.outcomes) {
                    ticket.resolve(Ok(outcome));
                }
                {
                    let mut status = self.shared.status();
                    status.metrics.batches += 1;
                    status.metrics.epochs += batch.epochs as u64;
                    status.metrics.counters += batch.counters;
                    status.metrics.brownout_chunks += u64::from(brownout);
                }
                if self.config.record_journal && self.store.is_none() {
                    self.journal.push(chunk.clone());
                }
                self.beat(STAGE_AUDIT);
                if !self.audit() {
                    self.beat(STAGE_CHECKPOINT);
                    self.maybe_checkpoint();
                }
            }
            Ok(Err(err)) => {
                // Pre-validation makes engine-side validation failures
                // unreachable; if one slips through anyway, the whole run
                // reports it rather than guessing which requests applied.
                for ticket in tickets {
                    ticket.resolve(Err(err.clone()));
                }
            }
            Err(payload) => self.contain_fault(tickets, payload, before),
        }
    }

    /// What a chunk moves once any of it applies: the logical clock (every
    /// epoch advances it at its plan/apply transition, and so may a tick)
    /// and the generation stamp (every join, leave and install moves it).
    fn applied_mark(&self) -> (u64, Generation) {
        let engine = self.session.engine();
        (engine.time(), engine.generation())
    }

    /// Appends the chunk to the durable journal (a no-op without
    /// persistence) **before** the engine applies it. Returns `false` when
    /// the append failed: the tickets are then already resolved and the
    /// run must not be served — the engine was never called, so nothing
    /// diverged. A rollback failure is the one exception: the journal can
    /// no longer be trusted to match the engine, so the service poisons.
    fn journal_chunk(
        &mut self,
        chunk: &[Request],
        tickets: &[Arc<TicketCell>],
        brownout: bool,
    ) -> bool {
        let Some(store) = self.store.as_mut() else {
            return true;
        };
        let appended =
            panic::catch_unwind(AssertUnwindSafe(|| store.append_chunk(chunk, brownout)));
        let err = match appended {
            Ok(Ok(())) => {
                self.shared.publish_store(store, 0);
                return true;
            }
            Ok(Err(err)) => DsgError::Persist(err),
            Err(payload) => DsgError::Persist(PersistError::AppendPanicked {
                detail: payload_message(payload.as_ref()),
            }),
        };
        match store.rollback() {
            Ok(()) => {
                self.shared.status().metrics.append_aborts += 1;
                for ticket in tickets {
                    ticket.resolve(Err(err.clone()));
                }
            }
            Err(_) => self.poison(tickets),
        }
        false
    }

    /// Cuts a snapshot checkpoint at the quiescent point after a served
    /// run whose audit passed, on the [`PersistConfig::snapshot_every`]
    /// epoch cadence.
    fn maybe_checkpoint(&mut self) {
        if self.store.is_none() {
            return;
        }
        let every = self.config.persist.map_or(0, |p| p.snapshot_every);
        if every == 0 {
            return;
        }
        if self
            .session
            .epochs()
            .saturating_sub(self.epochs_at_last_snapshot)
            < every
        {
            return;
        }
        self.cut_checkpoint();
    }

    /// Checkpoints the engine, encoded straight from it (reusing the last
    /// node section while the engine's generation stamp has not moved). A
    /// failure (or a panic through the `io.snapshot` / `io.publish` fail
    /// points) abandons the checkpoint — temp files removed, counted — and
    /// the store keeps serving under the previous snapshot's binding: a
    /// checkpoint shortens recovery, it is never required for correctness.
    fn cut_checkpoint(&mut self) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        self.epochs_at_last_snapshot = self.session.epochs();
        let session = &self.session;
        let cut = panic::catch_unwind(AssertUnwindSafe(|| {
            store.checkpoint_engine(session.engine())
        }));
        match cut {
            Ok(Ok(_bytes)) => self.shared.publish_store(store, 1),
            Ok(Err(_)) | Err(_) => {
                store.abandon_checkpoint();
                self.shared.status().metrics.snapshot_failures += 1;
            }
        }
    }

    /// Validates one request against the engine plus the membership
    /// changes queued earlier in the same run.
    fn validate(
        &self,
        request: &Request,
        membership: &mut HashMap<u64, bool>,
    ) -> Result<(), DsgError> {
        let present = |membership: &HashMap<u64, bool>, peer: u64| {
            membership
                .get(&peer)
                .copied()
                .unwrap_or_else(|| self.session.engine().peer_state(peer).is_ok())
        };
        match *request {
            Request::Communicate { u, v } => {
                if u == v {
                    return Err(DsgError::SelfCommunication(u));
                }
                for peer in [u, v] {
                    if !present(membership, peer) {
                        return Err(DsgError::UnknownPeer(peer));
                    }
                }
            }
            Request::Join(peer) => {
                if present(membership, peer) {
                    return Err(DsgError::DuplicatePeer(peer));
                }
                membership.insert(peer, true);
            }
            Request::Leave(peer) => {
                if !present(membership, peer) {
                    return Err(DsgError::UnknownPeer(peer));
                }
                membership.insert(peer, false);
            }
            Request::Tick(_) => {}
        }
        Ok(())
    }

    /// A panic unwound out of the engine: abort or poison depending on
    /// which side of the plan/apply boundary it struck, and on whether an
    /// earlier epoch (or membership change) of the chunk had already
    /// applied — `before` is the chunk's [`applied_mark`](Self::applied_mark)
    /// from before the engine was entered.
    fn contain_fault(
        &mut self,
        tickets: &[Arc<TicketCell>],
        payload: Box<dyn Any + Send>,
        before: (u64, Generation),
    ) {
        let msg = payload_message(payload.as_ref());
        // Planning (or Idle, for a fault before the engine was even
        // entered — e.g. the ingest.loop site) is pure-read territory. If
        // nothing of the chunk applied either, the engine is untouched:
        // abandon the chunk and keep serving. Otherwise the engine holds
        // part of a journaled chunk, which no replay reproduces.
        let untouched = self.session.engine().epoch_phase() != EpochPhase::Applying
            && self.applied_mark() == before;
        if untouched && self.abandon_chunk() {
            self.shared.status().metrics.plan_aborts += 1;
            for ticket in tickets {
                ticket.resolve(Err(DsgError::EpochAborted(msg.clone())));
            }
        } else {
            self.poison(tickets);
        }
    }

    /// Abandons the chunk a plan-stage fault left the engine untouched by:
    /// clears the phase marker and takes the chunk's frame back off the
    /// journal — durably, before its tickets say it was not served, since
    /// a restart would replay it into an engine that never applied it.
    /// `false` if the frame could not be taken back: the journal no longer
    /// matches the engine.
    fn abandon_chunk(&mut self) -> bool {
        self.session
            .engine_mut()
            .acknowledge_plan_abort()
            .expect("phase was not Applying");
        let Some(store) = self.store.as_mut() else {
            return true;
        };
        let retracted = store.retract_last_frame().is_ok();
        self.shared.publish_store(store, 0);
        retracted
    }

    /// Poisons the service: flag set and counted under the queue lock,
    /// every in-flight and queued ticket resolved with
    /// [`DsgError::EnginePoisoned`], all waiters woken.
    fn poison(&mut self, in_flight: &[Arc<TicketCell>]) {
        let queued: Vec<Item> = {
            let mut q = self.shared.queue.lock().expect("queue lock");
            q.poisoned = true;
            self.shared.status().metrics.poisonings += 1;
            let queued = q.items.drain(..).collect();
            self.shared.not_full.notify_all();
            queued
        };
        for ticket in in_flight {
            ticket.resolve(Err(DsgError::EnginePoisoned));
        }
        for item in queued {
            item.ticket.resolve(Err(DsgError::EnginePoisoned));
        }
    }

    /// The tiered invariant audit, run after every successfully served
    /// run. A deep audit due on an engine whose generation stamp the last
    /// clean deep run saw is certified instead of run. A failed audit
    /// degrades the service to the poisoned state; returns whether it did.
    fn audit(&mut self) -> bool {
        let epoch = self.session.epochs();
        let fast_ok = self.session.engine().validate_fast().is_ok();
        self.shared.status().metrics.audits += 1;
        self.session.notify_audit(&AuditEvent {
            epoch,
            deep: false,
            passed: fast_ok,
        });
        let mut failed = !fast_ok;
        if !failed
            && self.config.deep_audit_every > 0
            && epoch.saturating_sub(self.epochs_at_last_deep) >= self.config.deep_audit_every
        {
            self.epochs_at_last_deep = epoch;
            let stamp = self.session.engine().generation();
            let certified = self.last_clean_deep == Some(stamp);
            let deep_ok = certified || {
                let ok = self.session.engine().validate().is_ok();
                self.last_clean_deep = ok.then_some(stamp);
                ok
            };
            {
                let mut status = self.shared.status();
                status.metrics.deep_audits += 1;
                status.metrics.deep_audits_certified += u64::from(certified);
            }
            self.session.notify_audit(&AuditEvent {
                epoch,
                deep: true,
                passed: deep_ok,
            });
            failed = !deep_ok;
        }
        if failed {
            self.shared.status().metrics.audit_failures += 1;
            self.poison(&[]);
        }
        failed
    }
}

/// The stall watchdog: polls the ingest loop's heartbeat and reports a
/// busy stage older than `stall_after` through
/// [`DsgObserver::on_stall`](crate::DsgObserver::on_stall) — once per
/// stuck heartbeat, and with `try_lock` on each observer, so an observer
/// mutex held by the wedged ingest thread can never wedge the watchdog
/// too. An idle ingest loop (waiting for work) is never a stall.
fn watchdog_loop(shared: &Shared, observers: &[SharedObserver], stall_after: Duration) {
    let stall_ns = (stall_after.as_nanos() as u64).max(1);
    let poll = (stall_after / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
    let mut reported: Option<u64> = None;
    while !shared.watchdog_stop.load(Ordering::Acquire) {
        std::thread::sleep(poll);
        let stage = shared.heartbeat_stage.load(Ordering::Relaxed);
        if stage == STAGE_IDLE {
            reported = None;
            continue;
        }
        let beat = shared.heartbeat_ns.load(Ordering::Relaxed);
        let stalled_for = shared.now_ns().saturating_sub(beat);
        if stalled_for < stall_ns {
            reported = None;
            continue;
        }
        if reported == Some(beat) {
            continue;
        }
        reported = Some(beat);
        shared.status().metrics.stalls += 1;
        let event = StallEvent {
            stage: STAGES[stage.min(STAGES.len() - 1)],
            stalled_for_ns: stalled_for,
        };
        for observer in observers {
            if let Ok(mut observer) = observer.try_lock() {
                observer.on_stall(&event);
            }
        }
    }
}

fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::DsgSession;

    fn spawn(peers: u64, config: ServiceConfig) -> DsgService {
        let session = DsgSession::builder()
            .peers(0..peers)
            .seed(9)
            .build()
            .unwrap();
        DsgService::spawn(session, config).unwrap()
    }

    #[test]
    fn serves_requests_from_multiple_producers() {
        let mut service = spawn(64, ServiceConfig::default());
        std::thread::scope(|scope| {
            for p in 0..4u64 {
                let service = &service;
                scope.spawn(move || {
                    for i in 0..8u64 {
                        let u = (p * 8 + i) % 32;
                        let ticket = service
                            .submit_deadline(
                                Request::communicate(u, u + 32),
                                Duration::from_secs(5),
                            )
                            .unwrap();
                        ticket.wait().unwrap();
                    }
                });
            }
        });
        let done = service.shutdown().unwrap();
        assert_eq!(done.metrics.submitted, 32);
        assert!(1 <= done.metrics.batches && done.metrics.batches <= done.metrics.epochs);
        done.session.engine().validate().unwrap();
    }

    #[test]
    fn malformed_requests_fail_only_their_ticket() {
        let mut service = spawn(16, ServiceConfig::default());
        let good = service.submit(Request::communicate(1, 9)).unwrap();
        let dup = service.submit(Request::Join(3)).unwrap();
        let ghost = service.submit(Request::Leave(99)).unwrap();
        let selfish = service.submit(Request::Communicate { u: 5, v: 5 }).unwrap();
        assert!(good.wait().is_ok());
        assert_eq!(dup.wait().unwrap_err(), DsgError::DuplicatePeer(3));
        assert_eq!(ghost.wait().unwrap_err(), DsgError::UnknownPeer(99));
        assert_eq!(selfish.wait().unwrap_err(), DsgError::SelfCommunication(5));
        let done = service.shutdown().unwrap();
        done.session.engine().validate().unwrap();
    }

    #[test]
    fn validation_sees_membership_changes_queued_in_the_same_run() {
        let service = spawn(8, ServiceConfig::default());
        let join = service.submit(Request::Join(50)).unwrap();
        let talk = service.submit(Request::communicate(50, 3)).unwrap();
        let leave = service.submit(Request::Leave(50)).unwrap();
        let stale = service.submit(Request::communicate(50, 3)).unwrap();
        assert!(join.wait().is_ok());
        // The communicate may land in the same run as the join (override
        // admits it) or a later one (the engine knows the peer by then).
        assert!(talk.wait().is_ok());
        assert!(leave.wait().is_ok());
        assert_eq!(stale.wait().unwrap_err(), DsgError::UnknownPeer(50));
        drop(service);
    }

    #[test]
    fn overload_is_a_typed_rejection() {
        // Stall the ingest thread with a poisoned-free trick: fill the
        // queue faster than a tiny engine drains it by submitting from the
        // queue's own capacity edge. Deterministic variant: capacity 1 and
        // a request that blocks on... simplest is to rely on the bound
        // itself — submit bursts until one is rejected.
        let service = spawn(
            32,
            ServiceConfig {
                queue_capacity: 1,
                ..ServiceConfig::default()
            },
        );
        let mut saw_overload = false;
        for i in 0..512u64 {
            match service.submit(Request::communicate(i % 16, 16 + (i % 16))) {
                Ok(_) => {}
                Err(SubmitError::Overloaded) => {
                    saw_overload = true;
                    break;
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        assert!(saw_overload, "a capacity-1 queue never overflowed");
        assert!(service.metrics().rejected_overload >= 1);
        drop(service);
    }

    #[test]
    fn shutdown_abort_resolves_queued_tickets() {
        let mut service = spawn(
            32,
            ServiceConfig {
                shutdown: ShutdownPolicy::Abort,
                queue_capacity: 256,
                ..ServiceConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..64u64)
            .map(|i| {
                service
                    .submit(Request::communicate(i % 16, 16 + (i % 16)))
                    .unwrap()
            })
            .collect();
        let done = service.shutdown().unwrap();
        for ticket in tickets {
            // Every ticket resolved: served before the close, or aborted.
            match ticket.wait() {
                Ok(_) | Err(DsgError::ShuttingDown) => {}
                Err(other) => panic!("unexpected resolution: {other}"),
            }
        }
        done.session.engine().validate().unwrap();
    }

    #[test]
    fn spawn_validates_the_config() {
        let session = DsgSession::builder().peers(0..4).seed(1).build().unwrap();
        let err = DsgService::spawn(
            session,
            ServiceConfig {
                queue_capacity: 0,
                ..ServiceConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, DsgError::InvalidConfig(_)));
    }

    #[test]
    fn recover_on_a_healthy_service_is_refused() {
        let service = spawn(8, ServiceConfig::default());
        assert_eq!(service.recover().unwrap_err(), DsgError::NotPoisoned);
        drop(service);
    }

    #[test]
    fn spawn_refuses_a_persist_config() {
        let session = DsgSession::builder().peers(0..4).seed(1).build().unwrap();
        let err = DsgService::spawn(
            session,
            ServiceConfig {
                persist: Some(crate::persist::PersistConfig::default()),
                ..ServiceConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, DsgError::InvalidConfig(_)));
    }

    #[test]
    fn second_shutdown_is_a_typed_error_and_drop_stays_safe() {
        let mut service = spawn(8, ServiceConfig::default());
        let ticket = service.submit(Request::communicate(1, 5)).unwrap();
        ticket.wait().unwrap();
        let done = service.shutdown().unwrap();
        done.session.engine().validate().unwrap();
        assert_eq!(service.shutdown().unwrap_err(), DsgError::AlreadyShutDown);
        // Dropping the already-shut-down handle must not panic.
        drop(service);
    }

    #[test]
    fn sojourn_quantiles_walk_the_histogram() {
        let shared = Shared::new();
        assert_eq!(shared.sojourn_quantile_us(99), 0, "no samples yet");
        for _ in 0..99 {
            shared.record_sojourn_us(3); // bucket [2, 4)
        }
        shared.record_sojourn_us(1000); // bucket [512, 1024)
        assert_eq!(shared.sojourn_quantile_us(50), 3);
        assert_eq!(shared.sojourn_quantile_us(99), 3);
        assert_eq!(shared.sojourn_quantile_us(100), 1023);
    }

    #[test]
    fn status_reports_queue_and_progress() {
        let mut service = spawn(16, ServiceConfig::default());
        let status = service.status();
        assert!(!status.closed);
        assert!(!status.poisoned);
        assert_eq!(status.journal_bytes, 0, "no persistence, no journal");
        let ticket = service.submit(Request::communicate(2, 9)).unwrap();
        ticket.wait().unwrap();
        service.shutdown().unwrap();
        // Counters are exact once the worker is joined.
        let status = service.status();
        assert!(status.closed);
        assert!(status.metrics.epochs >= 1);
        assert!(status.metrics.batches >= 1);
        assert!(status.metrics.audits >= 1);
        assert!(status.metrics.counters.planned_clusters >= 1);
    }
}
