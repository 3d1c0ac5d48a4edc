//! Session observers: structured progress events instead of stats poking.
//!
//! A [`DsgObserver`] registered on a [`DsgSession`](crate::DsgSession)
//! receives one callback per served communication request, one per
//! transformation epoch, and one per balance-repair pass. This replaces
//! reading [`RunStats`](crate::RunStats) fields off the engine as the way
//! callers collect metrics: `dsg-metrics` ships `MetricsObserver`, the
//! default recording observer, and `dsg-bench`'s `run_dsg` replays traces
//! through it for the experiment binaries, examples and end-to-end tests.
//!
//! Observers are shared handles (`Arc<Mutex<_>>`) so the caller keeps
//! access to the collected data while the session drives the callbacks —
//! including when the session has moved onto a
//! [`DsgService`](crate::service::DsgService) ingest thread, which is why
//! the handles are `Send` and lock a `Mutex` rather than borrow a
//! `RefCell`. The callbacks stay single-threaded (the session invokes them
//! in order from whichever thread owns it), so the lock is uncontended in
//! practice.

use std::sync::{Arc, Mutex};

use crate::dsg::RequestOutcome;

/// A shared observer handle, as stored by the session.
pub type SharedObserver = Arc<Mutex<dyn DsgObserver + Send>>;

/// One transformation epoch completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformEvent {
    /// 1-based epoch counter of the session.
    pub epoch: u64,
    /// Communication requests the epoch served.
    pub requests: usize,
    /// Merged transformations the epoch ran (clusters of pairs with
    /// overlapping `l_α` subtrees).
    pub clusters: usize,
    /// Transformation-install passes pushed into the structure: 1 under
    /// the batched install strategy regardless of the batch size.
    pub install_passes: usize,
    /// Changed `(node, level)` pairs the install touched.
    pub touched_pairs: usize,
    /// Clusters the epoch's plan stage planned.
    pub planned_clusters: usize,
    /// Worker shards the epoch's plan stages actually ran on (1 = inline).
    pub plan_shards: usize,
    /// Wall-clock nanoseconds the plan stages took (timing-only; excluded
    /// from determinism comparisons).
    pub plan_wall_ns: u64,
    /// Requests whose cluster the admission gate declined to restructure
    /// this epoch (0 with the policy off).
    pub pairs_gated: u64,
    /// Cold clusters restructured via the per-epoch budget this epoch.
    pub restructures_budgeted: u64,
    /// Frequency-sketch counter-halving passes this epoch's commit ran.
    pub sketch_aging_passes: u64,
    /// Requests routed without restructuring because the epoch ran under
    /// a brownout verdict (the service's overload controller degraded the
    /// admission gate to route-only for cold traffic). 0 outside
    /// brownout and with the policy off.
    pub pairs_browned_out: u64,
}

/// The admission gate's activity for one epoch (only emitted when
/// [`AdaptPolicy::Gated`](crate::AdaptPolicy::Gated) is configured).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionEvent {
    /// 1-based epoch counter of the session.
    pub epoch: u64,
    /// Communication requests the epoch served.
    pub requests: usize,
    /// Transformation clusters the epoch formed (admitted + gated).
    pub clusters: usize,
    /// Requests whose cluster was gated (routed, not restructured).
    pub pairs_gated: u64,
    /// Cold clusters restructured via the per-epoch budget.
    pub restructures_budgeted: u64,
    /// Sketch counter-halving passes run at this epoch's commit.
    pub sketch_aging_passes: u64,
}

/// One balance-maintenance pass (dummy GC + a-balance repair) completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BalanceRepairEvent {
    /// 1-based epoch counter of the session the pass belongs to.
    pub epoch: u64,
    /// Stale dummy nodes the differential GC actually removed (reclaimed
    /// standing dummies are not counted).
    pub dummies_destroyed: usize,
    /// Dummy slots the repair established — reclaimed and created alike,
    /// so the count is lifecycle-independent.
    pub dummies_inserted: usize,
    /// Standing dummies the reconciliation reclaimed with zero graph
    /// mutation (0 under the per-node destroy/recreate oracle).
    pub dummies_reused: usize,
    /// Genuinely new dummies the reconciliation created (reclaims
    /// excluded); almost all go through the bulk splice installer.
    pub dummies_bulk_inserted: usize,
    /// Dummy nodes alive after the pass.
    pub live_dummies: usize,
}

/// One invariant audit completed (emitted by the
/// [`DsgService`](crate::service::DsgService) tiered auditor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditEvent {
    /// 1-based epoch counter of the session the audit ran after.
    pub epoch: u64,
    /// `true` for a deep audit — a full `validate()` sweep, or one the
    /// service certified because the engine's generation stamp had not
    /// moved since the last clean sweep — `false` for the incremental
    /// `validate_fast()` pass over the epoch's affected lists.
    pub deep: bool,
    /// Whether the audit found the structure clean.
    pub passed: bool,
}

/// The service's overload controller changed state (emitted by the
/// [`DsgService`](crate::service::DsgService) ingest loop when queue
/// sojourn crosses a configured target, and when it recedes again).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadEvent {
    /// Transformation epochs the session had served when the state
    /// changed.
    pub epoch: u64,
    /// Whether the service is now refusing new submissions with
    /// `SubmitError::Shed`.
    pub shedding: bool,
    /// Whether chunks are now served under brownout (admission gate
    /// degraded to route-only for cold traffic).
    pub brownout: bool,
    /// The minimum queue sojourn (nanoseconds) over the controller's
    /// evaluation interval that triggered the transition (0 when the
    /// transition was an idle-queue exit).
    pub min_sojourn_ns: u64,
}

/// The service's stall watchdog found the ingest loop stuck: no heartbeat
/// for longer than the configured stall threshold while work was in
/// flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallEvent {
    /// The ingest stage the loop last stamped before going quiet (e.g.
    /// `"journal"`, `"engine"`, `"audit"`, `"checkpoint"`).
    pub stage: &'static str,
    /// How long the heartbeat has been stale, in nanoseconds.
    pub stalled_for_ns: u64,
}

/// Hooks a session invokes while serving requests. All methods have empty
/// default bodies — implement only what you record.
pub trait DsgObserver {
    /// One communication request was served (called once per request, in
    /// submission order, after its epoch completed).
    fn on_request(&mut self, outcome: &RequestOutcome) {
        let _ = outcome;
    }

    /// One transformation epoch completed (after all of its `on_request`
    /// calls).
    fn on_transform(&mut self, event: &TransformEvent) {
        let _ = event;
    }

    /// One balance-maintenance pass completed.
    fn on_balance_repair(&mut self, event: &BalanceRepairEvent) {
        let _ = event;
    }

    /// One invariant audit completed (only emitted when the session is
    /// driven by a [`DsgService`](crate::service::DsgService)).
    fn on_audit(&mut self, event: &AuditEvent) {
        let _ = event;
    }

    /// The admission gate finished judging one epoch (only emitted when
    /// [`AdaptPolicy::Gated`](crate::AdaptPolicy::Gated) is configured;
    /// called after the epoch's `on_transform`).
    fn on_admission(&mut self, event: &AdmissionEvent) {
        let _ = event;
    }

    /// The service's overload controller entered or left shedding /
    /// brownout (only emitted when a
    /// [`DsgService`](crate::service::DsgService) runs with an
    /// `OverloadConfig`).
    fn on_overload(&mut self, event: &OverloadEvent) {
        let _ = event;
    }

    /// The service's stall watchdog found the ingest loop stuck. Unlike
    /// every other hook this one is invoked from the *watchdog* thread,
    /// not the ingest thread (the ingest thread is, by definition, not
    /// making progress); the watchdog uses `try_lock` and skips the
    /// report rather than contend with a wedged observer.
    fn on_stall(&mut self, event: &StallEvent) {
        let _ = event;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counting {
        requests: usize,
        epochs: usize,
    }

    impl DsgObserver for Counting {
        fn on_request(&mut self, _outcome: &RequestOutcome) {
            self.requests += 1;
        }
        fn on_transform(&mut self, _event: &TransformEvent) {
            self.epochs += 1;
        }
    }

    #[test]
    fn default_hooks_are_no_ops() {
        struct Silent;
        impl DsgObserver for Silent {}
        let mut observer = Silent;
        observer.on_transform(&TransformEvent {
            epoch: 1,
            requests: 1,
            clusters: 1,
            install_passes: 1,
            touched_pairs: 0,
            planned_clusters: 1,
            plan_shards: 1,
            plan_wall_ns: 0,
            pairs_gated: 0,
            restructures_budgeted: 0,
            sketch_aging_passes: 0,
            pairs_browned_out: 0,
        });
        observer.on_balance_repair(&BalanceRepairEvent {
            epoch: 1,
            dummies_destroyed: 0,
            dummies_inserted: 0,
            dummies_reused: 0,
            dummies_bulk_inserted: 0,
            live_dummies: 0,
        });
        observer.on_admission(&AdmissionEvent {
            epoch: 1,
            requests: 1,
            clusters: 1,
            pairs_gated: 0,
            restructures_budgeted: 0,
            sketch_aging_passes: 0,
        });
        observer.on_overload(&OverloadEvent {
            epoch: 1,
            shedding: true,
            brownout: true,
            min_sojourn_ns: 1,
        });
        observer.on_stall(&StallEvent {
            stage: "engine",
            stalled_for_ns: 1,
        });
    }

    #[test]
    fn observers_are_shareable() {
        let shared: SharedObserver = Arc::new(Mutex::new(Counting::default()));
        shared.lock().unwrap().on_transform(&TransformEvent {
            epoch: 1,
            requests: 2,
            clusters: 1,
            install_passes: 1,
            touched_pairs: 5,
            planned_clusters: 1,
            plan_shards: 1,
            plan_wall_ns: 0,
            pairs_gated: 0,
            restructures_budgeted: 0,
            sketch_aging_passes: 0,
            pairs_browned_out: 0,
        });
        let strong = Arc::strong_count(&shared);
        assert_eq!(strong, 1);
    }

    #[test]
    fn shared_observers_cross_threads() {
        let shared: SharedObserver = Arc::new(Mutex::new(Counting::default()));
        let clone = Arc::clone(&shared);
        std::thread::spawn(move || {
            clone.lock().unwrap().on_audit(&AuditEvent {
                epoch: 1,
                deep: false,
                passed: true,
            });
        })
        .join()
        .unwrap();
    }
}
