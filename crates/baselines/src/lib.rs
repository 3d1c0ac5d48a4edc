//! # dsg-baselines — comparison overlays
//!
//! The paper positions DSG against two reference points: the *static* skip
//! graph it starts from (no adaptation, `O(log n)` per request no matter the
//! skew) and the family of self-adjusting tree networks it generalises
//! (SplayNet, Avin et al.). The comparisons also need the
//! information-theoretic reference of Theorem 1, the working-set bound.
//!
//! This crate implements all three:
//!
//! * [`StaticSkipGraph`] — a balanced skip graph that routes every request
//!   with the standard algorithm and never changes shape,
//! * [`SplayNet`] — a self-adjusting binary search tree overlay in which
//!   each request `(u, v)` splays `u` to the root of the lowest subtree
//!   containing both endpoints and then `v` to its child (the
//!   double-splay of the SplayNet paper),
//! * [`WorkingSetOracle`] — charges each request exactly
//!   `log₂ T_i(σ_i)`, the per-request share of the lower bound `WS(σ)`.
//!
//! All three expose the same [`Baseline`] interface so a trace replay can
//! sweep them uniformly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod oracle;
pub mod splaynet;
pub mod static_skip;

pub use oracle::WorkingSetOracle;
pub use splaynet::SplayNet;
pub use static_skip::StaticSkipGraph;

use dsg::Request;

/// A baseline overlay that serves communication requests and reports their
/// cost.
pub trait Baseline {
    /// A short human-readable name used in comparison tables.
    fn name(&self) -> &'static str;

    /// Number of peers in the overlay.
    fn peers(&self) -> u64;

    /// Serves the request `(u, v)` and returns its routing cost (number of
    /// intermediate nodes on the communication path), applying whatever
    /// self-adjustment the baseline performs.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `u == v` or a peer is out of range;
    /// traces produced by `dsg-workloads` never do either.
    fn serve(&mut self, u: u64, v: u64) -> usize;

    /// Serves a whole trace of typed [`Request`]s (the same vocabulary the
    /// workload generators emit and `DsgSession::submit_batch` consumes)
    /// and returns the total routing cost. Baselines model a fixed peer
    /// population, so only communication requests contribute; membership
    /// and clock requests are skipped.
    fn serve_trace(&mut self, trace: &[Request]) -> usize {
        trace
            .iter()
            .filter_map(|r| r.endpoints())
            .map(|(u, v)| self.serve(u, v))
            .sum()
    }
}
