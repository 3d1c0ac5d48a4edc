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
//! surfaces (workload generators, baselines, metrics), but applications
//! should not need to depend on them directly. The [`replay`] module runs
//! a trace through a session and through the baselines for the tests and
//! the comparison examples. The CONGEST simulator, `dsg-congest`, is a
//! workspace member this crate does not depend on: its own tests check the
//! engine's per-epoch notification charge against a simulated broadcast.

#![forbid(unsafe_code)]

pub mod replay;

pub use dsg;
pub use dsg_baselines;
pub use dsg_metrics;
pub use dsg_skipgraph;
pub use dsg_workloads;

pub use dsg::prelude;

#[cfg(test)]
mod tests {
    use crate::replay::{format_table, run_baseline, run_dsg};
    use dsg::DsgConfig;
    use dsg_workloads::{RepeatedPairs, Workload};

    #[test]
    fn run_dsg_collects_one_sample_per_request() {
        let trace = RepeatedPairs::single(16, 1, 9).generate(5);
        let run = run_dsg(16, DsgConfig::default().with_seed(3), &trace);
        assert_eq!(run.routing_costs.len(), 5);
        assert_eq!(run.transformation_rounds.len(), 5);
        assert_eq!(run.working_sets[0], 16);
        assert_eq!(run.working_sets[4], 2);
        // After the first request the pair is directly linked.
        assert!(run.routing_costs[1..].iter().all(|&c| c <= 1));
    }

    #[test]
    fn baselines_are_replayable() {
        let trace = RepeatedPairs::single(32, 0, 31).generate(4);
        let mut baseline = dsg_baselines::StaticSkipGraph::new(32);
        let costs = run_baseline(&mut baseline, &trace);
        assert_eq!(costs.len(), 4);
        assert!(costs.iter().all(|&c| c == costs[0]));
    }

    #[test]
    fn tables_are_aligned() {
        let table = format_table(
            &["n", "cost"],
            &[
                vec!["8".into(), "1.25".into()],
                vec!["1024".into(), "10.00".into()],
            ],
        );
        assert!(table.contains("1024"));
        assert!(table.lines().count() >= 4);
    }
}
