//! The session/batch request API: [`DsgBuilder`], [`DsgSession`], and the
//! typed submission pipeline.
//!
//! A session owns a [`DynamicSkipGraph`] engine and is the supported way
//! to build and drive one:
//!
//! ```rust
//! use dsg::prelude::*;
//!
//! # fn main() -> Result<(), DsgError> {
//! let mut session = DsgSession::builder()
//!     .peers(0..32)
//!     .seed(42)
//!     .build()?;
//!
//! // Single typed requests...
//! session.submit(Request::communicate(3, 29))?;
//!
//! // ...or whole batches: consecutive communication requests are served
//! // in epochs — all pairs routed first, one merged transformation per
//! // cluster of overlapping subtrees, ONE install pass per epoch.
//! let batch = [
//!     Request::communicate(1, 17),
//!     Request::communicate(5, 23),
//!     Request::Join(100),
//! ];
//! let outcome = session.submit_batch(&batch)?;
//! assert_eq!(outcome.outcomes.len(), 3);
//! # Ok(())
//! # }
//! ```
//!
//! The builder is the one construction path, and it *validates*: it
//! returns [`DsgError::InvalidConfig`] instead of panicking on bad
//! parameters. Metrics flow through [`DsgObserver`] hooks instead of
//! polling the engine's [`RunStats`].
//!
//! # Threading model
//!
//! A session is single-threaded at its surface: `submit`/`submit_batch`
//! take `&mut self` and everything observable happens on the caller's
//! thread. Internally, an epoch is served **plan-then-apply**: the
//! expensive Θ(n) *planning* work — the per-cluster transformation
//! (vector recomputation, AMF medians, diff derivation) and the
//! dummy-reconciliation detection scans — only *reads* the graph and
//! state table, so with [`DsgBuilder::shards`]`(k > 1)` it fans out
//! across `k` scoped worker threads (`std::thread::scope`; no threads
//! outlive the call). All *mutation* — state-delta replay, group/timestamp
//! rules, the membership install, dummy placement — is applied by the
//! calling thread in submission order. Results are bit-for-bit identical
//! for every shard count: planning reads are snapshots of the pre-epoch
//! structure, worker outputs are merged in deterministic (submission)
//! order, and every random draw is derived per cluster instead of from a
//! shared stream (`tests/shard_equivalence.rs` proves graphs, states,
//! dummy populations and outcomes equal for shards ∈ {1, 2, 4, 8}).
//!
//! To drive a session from **multiple producer threads**, hand it to a
//! [`DsgService`](crate::service::DsgService): the session moves onto a
//! dedicated ingest thread (it is `Send` — observers are shared via
//! `Arc<Mutex<_>>`), producers submit requests through a bounded queue
//! with backpressure, and the service layers fault containment (plan-stage
//! aborts, apply-stage poisoning, opt-in recovery) and a tiered invariant
//! auditor on top. The service serializes everything onto the one engine
//! thread, so the bit-for-bit determinism above carries over: the epochs
//! it forms replay identically through [`DsgSession::submit_batch`].
//!
//! # Failure model
//!
//! `submit`/`submit_batch` validate each request against the engine before
//! mutating anything and return typed [`DsgError`]s — duplicate joins,
//! leaves of absent peers, self-communications and unknown endpoints fail
//! cleanly with the structure untouched (requests of *earlier* epochs in
//! the same batch remain applied; the error names the first offender).

use std::ops::Deref;
use std::sync::{Arc, Mutex};

use dsg_skipgraph::MembershipVector;

use crate::config::{DsgConfig, MedianStrategy, PolicyConfig};
use crate::cost::{EpochCounters, RunStats};
use crate::dsg::{DynamicSkipGraph, EpochReport, RequestOutcome};
use crate::error::DsgError;
use crate::observer::{AuditEvent, DsgObserver, EpochEvent, SharedObserver};
use crate::request::Request;
use crate::transform::MAX_EPOCH_PAIRS;
use crate::Result;

/// How the builder assigns initial membership vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum InitialVectors {
    /// Rank-derived bits: every list splits exactly in half, so the initial
    /// structure is a-balanced for every `a ≥ 1` (the paper's `S₀ ∈ S`).
    #[default]
    Balanced,
    /// Explicit `(peer, vector)` pairs supplied via [`DsgBuilder::members`].
    Explicit,
}

/// Fluent, validating builder for a [`DsgSession`].
///
/// Obtained from [`DsgSession::builder`]; see the
/// [module documentation](self) for an example.
#[derive(Default)]
pub struct DsgBuilder {
    peers: Vec<u64>,
    members: Vec<(u64, MembershipVector)>,
    vectors: InitialVectors,
    /// Written as set, unchecked (`DsgConfig::with_a` and its siblings
    /// panic); [`DsgBuilder::build`] checks the final value.
    config: DsgConfig,
    observers: Vec<SharedObserver>,
}

impl std::fmt::Debug for DsgBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsgBuilder")
            .field("peers", &self.peers.len())
            .field("members", &self.members.len())
            .field("vectors", &self.vectors)
            .field("config", &self.config)
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl DsgBuilder {
    /// The peer keys of the initial network, given balanced rank-derived
    /// membership vectors.
    pub fn peers<I: IntoIterator<Item = u64>>(mut self, peers: I) -> Self {
        self.peers = peers.into_iter().collect();
        self
    }

    /// Explicit `(peer key, membership vector)` pairs (used by the paper's
    /// worked examples and by tests). Mutually exclusive with
    /// [`peers`](Self::peers).
    pub fn members<I: IntoIterator<Item = (u64, MembershipVector)>>(mut self, members: I) -> Self {
        self.members = members.into_iter().collect();
        self.vectors = InitialVectors::Explicit;
        self
    }

    /// Seed for all randomised components.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// The balance parameter `a` (validated at [`build`](Self::build) —
    /// must be ≥ 2).
    pub fn a(mut self, a: usize) -> Self {
        self.config.a = a;
        self
    }

    /// The median strategy of the per-level splits.
    pub fn median(mut self, median: MedianStrategy) -> Self {
        self.config.median = median;
        self
    }

    /// Worker shards for the epoch *plan* stages (validated at
    /// [`build`](Self::build) — must be ≥ 1). The default of 1 plans
    /// inline; higher counts fan the per-cluster transformation planning
    /// and the dummy-reconciliation detection scans out across scoped
    /// threads, with bit-for-bit identical results (see the
    /// [module documentation](self)'s threading model).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// The adaptation policy: with
    /// [`PolicyConfig::gated()`](crate::PolicyConfig::gated), a count-min
    /// frequency sketch estimates pair hotness and only hot (or budgeted)
    /// clusters restructure; cold pairs are routed without transformation.
    /// Defaults to [`AdaptPolicy::Always`](crate::AdaptPolicy::Always)
    /// (every communicate restructures, bit-identical to the pre-policy
    /// engine).
    pub fn policy(mut self, policy: PolicyConfig) -> Self {
        self.config.policy = policy;
        self
    }

    /// Start from a complete [`DsgConfig`]: it replaces every setting made
    /// before it, and the fluent setters after it refine it. It is checked
    /// at [`build`](Self::build) like the setters' values.
    pub fn config(mut self, config: DsgConfig) -> Self {
        self.config = config;
        self
    }

    /// Registers an observer; the session invokes its hooks for every
    /// served request and epoch.
    pub fn observer(mut self, observer: SharedObserver) -> Self {
        self.observers.push(observer);
        self
    }

    /// Validates the configuration and builds the session.
    ///
    /// # Errors
    ///
    /// [`DsgError::InvalidConfig`] for a configuration a snapshot could not
    /// be reopened with (a balance parameter below 2, no plan shard, a zero
    /// sketch aging period; the check the snapshot decoder makes) or for
    /// supplying both [`peers`](Self::peers) and [`members`](Self::members);
    /// [`DsgError::DuplicatePeer`] if a peer key appears twice.
    pub fn build(self) -> Result<DsgSession> {
        let config = self.config;
        crate::persist::check_engine_parts(&config, None).map_err(DsgError::InvalidConfig)?;
        if self.vectors == InitialVectors::Explicit && !self.peers.is_empty() {
            return Err(DsgError::InvalidConfig(
                "peers(..) and members(..) are mutually exclusive".to_string(),
            ));
        }
        let engine = match self.vectors {
            InitialVectors::Balanced => DynamicSkipGraph::build_balanced(self.peers, config)?,
            InitialVectors::Explicit => DynamicSkipGraph::build_from_members(self.members, config)?,
        };
        Ok(DsgSession {
            engine,
            observers: self.observers,
            epochs: 0,
            pending: Vec::new(),
        })
    }

    /// Builds a session around an engine restored from a snapshot
    /// checkpoint (`DsgService::open`'s recovery path). The builder's
    /// *observers* carry over — they describe the reopening process, not
    /// the persisted structure — while its peers/vectors/config describe a
    /// cold start and are ignored: the restored engine already carries the
    /// configuration it was captured with. The epoch counter restarts at
    /// zero, like the metrics of a restarted process.
    pub(crate) fn build_recovered(self, engine: DynamicSkipGraph) -> DsgSession {
        DsgSession {
            engine,
            observers: self.observers,
            epochs: 0,
            pending: Vec::new(),
        }
    }
}

/// The result of submitting one [`Request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// A communication request was served.
    Communicated(RequestOutcome),
    /// A peer joined.
    Joined {
        /// The joined peer's key.
        peer: u64,
    },
    /// A peer left.
    Left {
        /// The departed peer's key.
        peer: u64,
    },
    /// The logical clock advanced.
    Ticked {
        /// The clock value after the tick.
        now: u64,
    },
}

impl SubmitOutcome {
    /// The request outcome, if this was a communication.
    pub fn request_outcome(&self) -> Option<&RequestOutcome> {
        match self {
            SubmitOutcome::Communicated(outcome) => Some(outcome),
            _ => None,
        }
    }
}

/// The result of [`DsgSession::submit_batch`]: per-request outcomes plus
/// the epoch-level accounting of the batched pipeline.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// One outcome per submitted request, in submission order.
    pub outcomes: Vec<SubmitOutcome>,
    /// Transformation epochs the batch was served in. Consecutive
    /// communication requests share an epoch until an endpoint repeats, a
    /// membership/clock request intervenes, or the per-epoch pair limit is
    /// reached.
    pub epochs: usize,
    /// The counters of the batch's epochs, summed.
    pub counters: EpochCounters,
}

/// Reads through to [`BatchOutcome::counters`]. It exists only so that the
/// benchmark in `perfbench/`, which reads `batch.touched_pairs`,
/// `batch.pairs_gated` and the like, keeps compiling; it goes once the
/// benchmark reads `batch.counters` instead. Code in this repository reads
/// `counters` directly.
impl Deref for BatchOutcome {
    type Target = EpochCounters;

    fn deref(&self) -> &EpochCounters {
        &self.counters
    }
}

impl BatchOutcome {
    /// The outcomes of the batch's communication requests, in order.
    pub fn request_outcomes(&self) -> impl Iterator<Item = &RequestOutcome> {
        self.outcomes.iter().filter_map(|o| o.request_outcome())
    }
}

/// A session over a locally self-adjusting skip graph: the public entry
/// point of the crate.
///
/// Built with [`DsgSession::builder`]; serves typed [`Request`]s one at a
/// time ([`submit`](Self::submit)) or in epoch-batched form
/// ([`submit_batch`](Self::submit_batch)), and reports progress to
/// registered [`DsgObserver`]s. The underlying [`DynamicSkipGraph`] engine
/// stays reachable through [`engine`](Self::engine) for inspection.
pub struct DsgSession {
    engine: DynamicSkipGraph,
    observers: Vec<SharedObserver>,
    epochs: u64,
    /// The pairs of the epoch [`submit_batch`](Self::submit_batch) is
    /// collecting, kept so a warm session allocates no buffer for them.
    pending: Vec<(u64, u64)>,
}

impl std::fmt::Debug for DsgSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsgSession")
            .field("engine", &self.engine)
            .field("observers", &self.observers.len())
            .field("epochs", &self.epochs)
            .finish()
    }
}

impl DsgSession {
    /// Starts building a session.
    pub fn builder() -> DsgBuilder {
        DsgBuilder::default()
    }

    /// Registers an observer on a live session.
    pub fn add_observer(&mut self, observer: SharedObserver) {
        self.observers.push(observer);
    }

    /// Convenience for registering a freshly created observer, returning
    /// the shared handle for later inspection. The handle crosses threads,
    /// so it stays readable while the session serves requests from a
    /// [`DsgService`](crate::service::DsgService) ingest thread.
    pub fn observe<O: DsgObserver + Send + 'static>(&mut self, observer: O) -> Arc<Mutex<O>> {
        let shared = Arc::new(Mutex::new(observer));
        self.observers.push(shared.clone());
        shared
    }

    /// Submits one typed request.
    ///
    /// # Errors
    ///
    /// Propagates the engine's validation errors ([`DsgError::UnknownPeer`],
    /// [`DsgError::SelfCommunication`], [`DsgError::DuplicatePeer`]).
    pub fn submit(&mut self, request: Request) -> Result<SubmitOutcome> {
        let mut batch = self.submit_batch(std::slice::from_ref(&request))?;
        Ok(batch.outcomes.remove(0))
    }

    /// Submits a batch of typed requests, serving consecutive communication
    /// requests as **epochs**: every pair of an epoch is routed first, one
    /// merged transformation runs per cluster of overlapping `l_α`
    /// subtrees, and all membership changes are installed in a single
    /// batch pass per epoch (see
    /// [`DynamicSkipGraph::communicate_epoch`]). An epoch is flushed when
    /// an endpoint repeats within the batch, when a membership or clock
    /// request intervenes, or when it reaches the per-epoch pair limit;
    /// the flushed requests and the interleaved membership changes are
    /// applied strictly in submission order.
    ///
    /// # Errors
    ///
    /// Propagates the engine's validation errors. Requests of epochs that
    /// completed before the failing one remain applied.
    pub fn submit_batch(&mut self, requests: &[Request]) -> Result<BatchOutcome> {
        self.submit_batch_degraded(requests, false)
    }

    /// [`submit_batch`](Self::submit_batch) with an explicit **brownout**
    /// verdict, forwarded to every epoch the batch flushes (see
    /// [`DynamicSkipGraph::communicate_epoch_degraded`]). A durable
    /// [`DsgService`](crate::service::DsgService) journals the verdict
    /// per chunk and replays it on recovery, so the flag must cover the
    /// whole chunk — which is exactly what this entry point does.
    pub fn submit_batch_degraded(
        &mut self,
        requests: &[Request],
        brownout: bool,
    ) -> Result<BatchOutcome> {
        let mut batch = BatchOutcome {
            outcomes: Vec::with_capacity(requests.len()),
            ..BatchOutcome::default()
        };
        // An earlier batch that failed mid-epoch may have left pairs behind.
        self.pending.clear();
        for request in requests {
            match *request {
                Request::Communicate { u, v } => {
                    // A reused endpoint serialises into the next epoch —
                    // the documented deterministic order for requests that
                    // touch the same peer.
                    if self.pending.len() >= MAX_EPOCH_PAIRS
                        || self
                            .pending
                            .iter()
                            .any(|&(a, b)| a == u || b == u || a == v || b == v)
                    {
                        self.flush_epoch(brownout, &mut batch)?;
                    }
                    self.pending.push((u, v));
                }
                Request::Join(peer) => {
                    self.flush_epoch(brownout, &mut batch)?;
                    self.engine.add_peer(peer)?;
                    batch.outcomes.push(SubmitOutcome::Joined { peer });
                }
                Request::Leave(peer) => {
                    self.flush_epoch(brownout, &mut batch)?;
                    self.engine.remove_peer(peer)?;
                    batch.outcomes.push(SubmitOutcome::Left { peer });
                }
                Request::Tick(to) => {
                    self.flush_epoch(brownout, &mut batch)?;
                    self.engine.advance_time(to);
                    batch.outcomes.push(SubmitOutcome::Ticked {
                        now: self.engine.time(),
                    });
                }
            }
        }
        self.flush_epoch(brownout, &mut batch)?;
        Ok(batch)
    }

    /// Serves the pending pairs, if any, as one epoch. They are the batch's
    /// latest run of communication requests, so their outcomes follow the
    /// outcomes already in `batch` in submission order.
    fn flush_epoch(&mut self, brownout: bool, batch: &mut BatchOutcome) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let report = self
            .engine
            .communicate_epoch_degraded(&self.pending, brownout)?;
        self.pending.clear();
        self.record_epoch(&report);
        batch.epochs += 1;
        batch.counters += report.counters;
        batch
            .outcomes
            .extend(report.outcomes.into_iter().map(SubmitOutcome::Communicated));
        Ok(())
    }

    /// Notifies the observers about one completed epoch.
    fn record_epoch(&mut self, report: &EpochReport) {
        self.epochs += 1;
        if self.observers.is_empty() {
            return;
        }
        let event = EpochEvent {
            epoch: self.epochs,
            counters: report.counters,
        };
        for observer in &self.observers {
            let mut observer = observer.lock().expect("observer lock");
            for outcome in &report.outcomes {
                observer.on_request(outcome);
            }
            observer.on_epoch(&event);
        }
    }

    /// Notifies the observers about one completed invariant audit (invoked
    /// by the [`DsgService`](crate::service::DsgService) tiered auditor).
    pub(crate) fn notify_audit(&self, event: &AuditEvent) {
        for observer in &self.observers {
            observer.lock().expect("observer lock").on_audit(event);
        }
    }

    /// Notifies the observers about an overload-state transition (invoked
    /// by the [`DsgService`](crate::service::DsgService) ingest loop).
    pub(crate) fn notify_overload(&self, event: &crate::observer::OverloadEvent) {
        for observer in &self.observers {
            observer.lock().expect("observer lock").on_overload(event);
        }
    }

    /// Clones the observer handles — the service's stall watchdog keeps a
    /// set so it can report from its own thread while the ingest thread
    /// (and with it the session) is wedged.
    pub(crate) fn observer_handles(&self) -> Vec<SharedObserver> {
        self.observers.clone()
    }

    /// The number of transformation epochs served so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Read access to the underlying engine (structure queries, state
    /// inspection, validation).
    pub fn engine(&self) -> &DynamicSkipGraph {
        &self.engine
    }

    /// Mutable access to the underlying engine, for tests and tools that
    /// reconstruct paper fixtures. Requests submitted directly to the
    /// engine bypass the observers.
    pub fn engine_mut(&mut self) -> &mut DynamicSkipGraph {
        &mut self.engine
    }

    /// Cumulative cost statistics of the engine.
    pub fn stats(&self) -> &RunStats {
        self.engine.stats()
    }

    /// Number of peers (excluding dummy nodes).
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// Returns `true` if the network has no peers.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// Current structure height.
    pub fn height(&self) -> usize {
        self.engine.height()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        requests: usize,
        epochs: Vec<EpochEvent>,
    }

    impl DsgObserver for Recorder {
        fn on_request(&mut self, _outcome: &RequestOutcome) {
            self.requests += 1;
        }
        fn on_epoch(&mut self, event: &EpochEvent) {
            self.epochs.push(*event);
        }
    }

    #[test]
    fn builder_validates_the_balance_parameter() {
        let err = DsgSession::builder().peers(0..8).a(1).build().unwrap_err();
        assert!(matches!(err, DsgError::InvalidConfig(_)));
        assert!(DsgSession::builder().peers(0..8).a(2).build().is_ok());
    }

    /// A config handed over whole is checked like the setters' values: it
    /// used to build and serve, and the store it wrote was refused on
    /// reopen (`balance parameter a = 0 below 2`).
    #[test]
    fn builder_checks_a_whole_config() {
        let config = DsgConfig {
            a: 0,
            shards: 0,
            ..Default::default()
        };
        let err = DsgSession::builder()
            .peers(0..16)
            .config(config)
            .build()
            .unwrap_err();
        assert!(matches!(err, DsgError::InvalidConfig(_)), "{err:?}");
    }

    /// A gated policy with a zero aging period is refused typed; it used to
    /// panic in the frequency sketch's constructor.
    #[test]
    fn builder_refuses_a_zero_aging_period_typed() {
        let policy = PolicyConfig {
            aging_period: 0,
            ..PolicyConfig::gated()
        };
        let err = DsgSession::builder()
            .peers(0..16)
            .policy(policy)
            .build()
            .unwrap_err();
        assert!(matches!(err, DsgError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn builder_rejects_peers_and_members_together() {
        let err = DsgSession::builder()
            .peers(0..4)
            .members([(9, MembershipVector::empty())])
            .build()
            .unwrap_err();
        assert!(matches!(err, DsgError::InvalidConfig(_)));
    }

    #[test]
    fn builder_surfaces_duplicate_peers() {
        let err = DsgSession::builder().peers([1, 2, 2]).build().unwrap_err();
        assert_eq!(err, DsgError::DuplicatePeer(2));
    }

    #[test]
    fn submit_serves_every_request_kind() {
        let mut session = DsgSession::builder().peers(0..16).seed(3).build().unwrap();
        let outcome = session.submit(Request::communicate(1, 9)).unwrap();
        assert!(outcome.request_outcome().is_some());
        assert!(session.engine().are_directly_linked(1, 9).unwrap());
        assert!(matches!(
            session.submit(Request::Join(50)).unwrap(),
            SubmitOutcome::Joined { peer: 50 }
        ));
        assert!(matches!(
            session.submit(Request::Leave(50)).unwrap(),
            SubmitOutcome::Left { peer: 50 }
        ));
        let now = session.engine().time();
        assert!(matches!(
            session.submit(Request::Tick(now + 10)).unwrap(),
            SubmitOutcome::Ticked { .. }
        ));
        assert_eq!(session.engine().time(), now + 10);
        session.engine().validate().unwrap();
    }

    #[test]
    fn batches_share_epochs_and_flush_on_conflicts() {
        let mut session = DsgSession::builder().peers(0..32).seed(5).build().unwrap();
        let recorder = session.observe(Recorder::default());
        let batch = [
            Request::communicate(0, 16),
            Request::communicate(1, 17),
            // Reuses peer 1: forces a second epoch.
            Request::communicate(1, 18),
            Request::Join(99),
            Request::communicate(99, 3),
        ];
        let outcome = session.submit_batch(&batch).unwrap();
        assert_eq!(outcome.outcomes.len(), 5);
        assert_eq!(outcome.epochs, 3);
        assert_eq!(session.epochs(), 3);
        let recorder = recorder.lock().unwrap();
        assert_eq!(recorder.requests, 4);
        assert_eq!(recorder.epochs.len(), 3);
        let epochs: Vec<u64> = recorder.epochs.iter().map(|event| event.epoch).collect();
        assert_eq!(epochs, [1, 2, 3]);
        let mut summed = EpochCounters::default();
        for event in &recorder.epochs {
            summed += event.counters;
        }
        assert_eq!(summed, outcome.counters);
        // Every pair of the batch ends up directly linked.
        for (u, v) in [(1, 18), (99, 3)] {
            assert!(session.engine().are_directly_linked(u, v).unwrap());
        }
        session.engine().validate().unwrap();
    }

    #[test]
    fn malformed_requests_fail_typed_with_structure_untouched() {
        let mut session = DsgSession::builder().peers(0..8).seed(11).build().unwrap();
        let before_len = session.len();
        let before_height = session.height();

        // Duplicate join.
        assert_eq!(
            session.submit(Request::Join(3)).unwrap_err(),
            DsgError::DuplicatePeer(3)
        );
        // Leave of an absent peer.
        assert_eq!(
            session.submit(Request::Leave(77)).unwrap_err(),
            DsgError::UnknownPeer(77)
        );
        // Self-communication smuggled into a batch through the public
        // fields (the `Request::communicate` constructor rejects it up
        // front, `try_communicate` returns the same typed error).
        assert_eq!(
            session
                .submit_batch(&[Request::Communicate { u: 2, v: 2 }])
                .unwrap_err(),
            DsgError::SelfCommunication(2)
        );

        assert_eq!(session.len(), before_len);
        assert_eq!(session.height(), before_height);
        session.engine().validate().unwrap();
    }

    #[test]
    fn leaving_down_to_empty_is_typed_not_a_panic() {
        let mut session = DsgSession::builder().peers([0, 1]).seed(2).build().unwrap();
        session.submit(Request::Leave(0)).unwrap();
        // Leaving the last peer empties the network cleanly.
        session.submit(Request::Leave(1)).unwrap();
        assert!(session.is_empty());
        session.engine().validate().unwrap();
        // One more leave on the empty network is a typed error.
        assert_eq!(
            session.submit(Request::Leave(1)).unwrap_err(),
            DsgError::UnknownPeer(1)
        );
    }

    #[test]
    fn batched_epochs_install_once() {
        let mut session = DsgSession::builder().peers(0..64).seed(7).build().unwrap();
        // Four endpoint-disjoint pairs: one epoch that restructures, so
        // one install pass.
        let batch: Vec<Request> = (0..4).map(|i| Request::communicate(i, i + 32)).collect();
        let outcome = session.submit_batch(&batch).unwrap();
        assert_eq!(outcome.epochs, 1);
        assert!(outcome.counters.planned_clusters >= 1);
        assert_eq!(session.epochs(), 1);
        // The same four pairs sequentially: four epochs, four passes.
        let mut sequential = DsgSession::builder().peers(0..64).seed(7).build().unwrap();
        for request in &batch {
            sequential.submit(*request).unwrap();
        }
        assert_eq!(sequential.epochs(), 4);
        assert_eq!(sequential.stats().counters.planned_clusters, 4);
    }
}
