//! The default recording observer for [`DsgSession`](dsg::DsgSession)s.
//!
//! [`MetricsObserver`] implements [`dsg::DsgObserver`] and records the
//! per-request series and epoch-level counters of a replay — the
//! observer-based replacement for polling [`RunStats`](dsg::RunStats)
//! fields off the engine. Register it with
//! [`DsgSession::observe`](dsg::DsgSession::observe) (which hands back a
//! shared handle) and read the series after the replay.
//!
//! ```rust
//! use dsg::prelude::*;
//! use dsg_metrics::MetricsObserver;
//!
//! # fn main() -> Result<(), DsgError> {
//! let mut session = DsgSession::builder().peers(0..16).seed(1).build()?;
//! let metrics = session.observe(MetricsObserver::new());
//! session.submit_batch(&[
//!     Request::communicate(0, 9),
//!     Request::communicate(3, 12),
//! ])?;
//! let metrics = metrics.lock().unwrap();
//! assert_eq!(metrics.requests(), 2);
//! assert_eq!(metrics.epochs, 1);
//! # Ok(())
//! # }
//! ```

use dsg::{DsgObserver, EpochCounters, EpochEvent, OverloadEvent, RequestOutcome, StallEvent};

/// Records per-request series and epoch counters from session callbacks.
#[derive(Debug, Clone, Default)]
pub struct MetricsObserver {
    /// Routing cost (intermediate nodes) per request, in submission order.
    pub routing_costs: Vec<usize>,
    /// Transformation rounds per request.
    pub transformation_rounds: Vec<usize>,
    /// Structure height after each request.
    pub heights: Vec<usize>,
    /// Level of the direct link created for each request.
    pub pair_levels: Vec<usize>,
    /// Transformation epochs observed.
    pub epochs: usize,
    /// Every observed epoch's counters, summed.
    pub counters: EpochCounters,
    /// Overload-state transitions observed (brownout/shedding entries and
    /// exits alike).
    pub overload_transitions: u64,
    /// Ingest-loop stall episodes the service watchdog reported.
    pub stalls: u64,
}

impl MetricsObserver {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        MetricsObserver::default()
    }

    /// Number of requests observed.
    pub fn requests(&self) -> usize {
        self.routing_costs.len()
    }

    /// Average routing cost per request (0 for an empty recording).
    pub fn avg_routing(&self) -> f64 {
        if self.routing_costs.is_empty() {
            0.0
        } else {
            self.routing_costs.iter().sum::<usize>() as f64 / self.routing_costs.len() as f64
        }
    }

    /// Dummy churn: dummies actually created plus dummies actually
    /// destroyed. Reclaimed standing dummies contribute to neither side —
    /// that zero-mutation reuse is exactly what the reconciling lifecycle
    /// saves over destroy-then-recreate.
    pub fn dummy_churn(&self) -> usize {
        let c = &self.counters;
        (c.dummies_inserted - c.dummies_reused) + c.dummies_destroyed
    }
}

impl DsgObserver for MetricsObserver {
    fn on_request(&mut self, outcome: &RequestOutcome) {
        self.routing_costs.push(outcome.routing_cost);
        self.transformation_rounds
            .push(outcome.transformation_rounds());
        self.heights.push(outcome.height_after);
        self.pair_levels.push(outcome.pair_level);
    }

    fn on_epoch(&mut self, event: &EpochEvent) {
        self.epochs += 1;
        self.counters += event.counters;
    }

    fn on_overload(&mut self, _event: &OverloadEvent) {
        self.overload_transitions += 1;
    }

    fn on_stall(&mut self, _event: &StallEvent) {
        self.stalls += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsg::prelude::*;

    #[test]
    fn records_requests_and_epochs() {
        let mut session = DsgSession::builder().peers(0..32).seed(2).build().unwrap();
        let metrics = session.observe(MetricsObserver::new());
        session
            .submit_batch(&[
                Request::communicate(0, 16),
                Request::communicate(1, 17),
                Request::communicate(2, 18),
            ])
            .unwrap();
        session.submit(Request::communicate(0, 16)).unwrap();
        let metrics = metrics.lock().unwrap();
        assert_eq!(metrics.requests(), 4);
        assert_eq!(metrics.epochs, 2);
        assert_eq!(metrics.routing_costs.len(), 4);
        assert_eq!(metrics.heights.len(), 4);
        assert!(metrics.counters.planned_clusters >= 2);
        assert!(metrics.avg_routing() >= 0.0);
        // The stats the engine accumulated agree with the observer series.
        assert_eq!(
            session.stats().total_routing_cost,
            metrics.routing_costs.iter().sum::<usize>()
        );
        assert_eq!(session.stats().counters, metrics.counters);
    }
}
