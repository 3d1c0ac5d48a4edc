//! Workspace-root umbrella crate for the DSG reproduction.
//!
//! This crate hangs the repository-level integration tests (`tests/`) and
//! runnable examples (`examples/`) off one package and re-exports the
//! member crates. **The supported library surface is [`dsg::prelude`]**
//! (re-exported here as [`prelude`]): build a `DsgSession` with
//! `DsgSession::builder()`, submit typed `Request`s one at a time or in
//! epoch-batched form, and observe progress through `DsgObserver` hooks:
//!
//! ```rust
//! use dsg_repro::prelude::*;
//!
//! # fn main() -> Result<(), DsgError> {
//! let mut session = DsgSession::builder().peers(0..16).seed(7).build()?;
//! session.submit_batch(&[
//!     Request::communicate(0, 9),
//!     Request::communicate(3, 12),
//! ])?;
//! # Ok(())
//! # }
//! ```
//!
//! The re-exported member crates stay reachable for the specialised
//! surfaces (workload generators, baselines, metrics, the benchmark
//! plumbing), but applications should not need to depend on them
//! directly. The CONGEST simulator, `dsg-congest`, is a workspace member
//! this crate does not depend on: its own tests check the engine's
//! per-epoch notification charge against a simulated broadcast.

#![forbid(unsafe_code)]

pub use dsg;
pub use dsg_baselines;
pub use dsg_bench;
pub use dsg_metrics;
pub use dsg_skipgraph;
pub use dsg_workloads;

pub use dsg::prelude;
