//! # dsg-metrics — working-set accounting for self-adjusting overlays
//!
//! The yardstick the paper proposes for self-adjusting skip graphs is the
//! **working set property** (§III): for a request `σ_i = (u, v)`, the
//! *working set number* `T_i(σ_i)` counts the distinct nodes that are
//! transitively connected to `u` or `v` in the communication graph built
//! from all requests since the last time `u` and `v` talked to each other;
//! the **working set bound** `WS(σ) = Σ_i log T_i(σ_i)` lower-bounds the
//! amortized routing cost of *any* conforming self-adjusting algorithm
//! (Theorem 1).
//!
//! This crate computes those quantities over request traces:
//!
//! * [`CommunicationGraph`] — a time-labelled view of who communicated,
//! * [`WorkingSetTracker`] — incremental `T_i` / `WS(σ)` computation,
//! * [`MetricsObserver`] — the default recording [`dsg::DsgObserver`] that
//!   collects per-request series and epoch counters off a session.
//!
//! # Example
//!
//! ```rust
//! use dsg_metrics::WorkingSetTracker;
//!
//! let mut tracker = WorkingSetTracker::new(6);
//! // Figure 2 of the paper: u and v communicate, then (e, a), (a, k),
//! // (k, u), then (u, v) again.
//! tracker.record(0, 1);          // (u, v) — first time: T = n
//! tracker.record(2, 3);          // (e, a)
//! tracker.record(3, 4);          // (a, k)
//! tracker.record(4, 0);          // (k, u)
//! let t = tracker.record(0, 1);  // (u, v) again
//! assert_eq!(t, 5);              // e, a, k, u, v — as the paper computes
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod comm_graph;
pub mod observer;
pub mod working_set;

pub use comm_graph::CommunicationGraph;
pub use observer::MetricsObserver;
pub use working_set::{working_set_bound, working_set_numbers, WorkingSetTracker};
