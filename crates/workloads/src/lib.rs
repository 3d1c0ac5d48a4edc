//! # dsg-workloads — communication-sequence generators
//!
//! The paper motivates self-adjustment with *skewed* communication patterns:
//! "most real-world communication patterns are skewed". This crate provides
//! the request-sequence generators the tests, examples and benchmark use to
//! exercise the self-adjusting skip graph and its baselines:
//!
//! * [`UniformRandom`] — no skew at all (the adversarial regime for
//!   self-adjustment),
//! * [`ZipfPairs`] — source and destination drawn from Zipf distributions
//!   with configurable exponent (the classic skew model),
//! * [`RepeatedPairs`] — a small fixed set of pairs replayed round-robin
//!   (the pattern of Figures 2 and 3),
//! * [`RotatingHotSet`] — temporal locality: a hot community that drifts
//!   over time (the "working set" workload),
//! * [`Datacenter`] — the multi-level locality workload of the paper's
//!   conclusion (rack / pod / datacenter levels, as in VM migration),
//! * [`Adversarial`] — a non-repeating permutation stream with no locality
//!   to exploit,
//! * [`FlashCrowd`] — uniform background with a sudden burst window where a
//!   few fixed pairs dominate (the adaptation-policy stress pattern).
//!
//! [`OpenLoop`] wraps any of them into an **open-loop arrival schedule**
//! at a fixed offered rate, for driving a service *into* overload instead
//! of at whatever rate it sustains.
//!
//! All generators implement the [`Workload`] trait, are deterministic given
//! a seed, and produce [`Request`] values over peer keys `0..n`.
//!
//! # Example
//!
//! ```rust
//! use dsg_workloads::{Workload, ZipfPairs};
//!
//! let mut workload = ZipfPairs::new(64, 1.2, 42);
//! let trace = workload.generate(1000);
//! assert_eq!(trace.len(), 1000);
//! assert!(trace
//!     .iter()
//!     .all(|r| r.pair().0 != r.pair().1 && r.pair().0 < 64 && r.pair().1 < 64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod datacenter;
pub mod flash_crowd;
pub mod hotset;
pub mod open_loop;
pub mod repeated;
pub mod trace;
pub mod uniform;
pub mod zipf;

pub use datacenter::Datacenter;
pub use flash_crowd::FlashCrowd;
pub use hotset::RotatingHotSet;
pub use open_loop::{Arrival, OpenLoop};
pub use repeated::RepeatedPairs;
pub use trace::{Request, Trace};
pub use uniform::{Adversarial, UniformRandom};
pub use zipf::ZipfPairs;

/// A generator of communication requests over peers `0..n`.
pub trait Workload {
    /// Number of peers the workload addresses.
    fn peers(&self) -> u64;

    /// Produces the next request. Implementations never return a
    /// self-request (`u == v`).
    fn next_request(&mut self) -> Request;

    /// Generates a trace of `m` requests.
    fn generate(&mut self, m: usize) -> Trace {
        (0..m).map(|_| self.next_request()).collect()
    }
}
