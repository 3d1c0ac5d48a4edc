//! # dsg-skipgraph — skip graph substrate
//!
//! This crate implements the *standard* skip graph data structure of
//! Aspnes & Shah ("Skip Graphs", SODA 2003) as the substrate on which the
//! self-adjusting algorithm of Huq & Ghosh ("Locally Self-Adjusting Skip
//! Graphs", ICDCS 2017) operates.
//!
//! A skip graph positions nodes in ascending key order in multiple levels.
//! Level 0 is a doubly linked list containing every node. Every linked list
//! with at least two nodes at level `i` splits into two distinct lists at
//! level `i + 1` according to the `i`-th bit of each node's *membership
//! vector*, and the construction recurses until every node is the only member
//! of its list.
//!
//! The crate provides:
//!
//! * [`MembershipVector`] and [`Prefix`] — the per-node bit strings that
//!   define the level structure (`mvec` module).
//! * [`SkipGraph`] — the structure itself, stored as an **intrusive
//!   linked-list arena**: each node slot carries per-level
//!   `{prev, next, list}` link records, so
//!   [`neighbors`](SkipGraph::neighbors) is two pointer reads and
//!   [`list_size`](SkipGraph::list_size) reads a cached length — O(1),
//!   with no hashing, tree walks or allocation on the hot paths. List
//!   contents are walked with borrowing iterators
//!   ([`list_iter`](SkipGraph::list_iter),
//!   [`list_of_iter`](SkipGraph::list_of_iter),
//!   [`lists_at_level_iter`](SkipGraph::lists_at_level_iter)); see the
//!   `graph` module docs for the representation.
//! * [`reference::ReferenceGraph`] — the naive index-based twin
//!   (`HashMap<Prefix, BTreeMap<Key, NodeId>>` per level), retained for
//!   differential testing and as the baseline the perf suite measures the
//!   arena's speedup against (`reference` module).
//! * [`route`](SkipGraph::route) — the standard skip graph routing algorithm
//!   (Appendix B of the paper) with hop accounting (`routing` module).
//! * a-balance checking (`balance` module) — the structural property the
//!   self-adjusting algorithm must preserve.
//! * [`BalancedSkipList`] — the probabilistic, support-balanced skip list
//!   that the paper's AMF algorithm (Section V) constructs over a linked
//!   list (`skiplist` module).
//! * join/leave maintenance (`maintenance` module).
//!
//! # Example
//!
//! ```rust
//! # use dsg_skipgraph::{SkipGraph, Key};
//! # use rand::SeedableRng;
//! # fn main() -> Result<(), dsg_skipgraph::SkipGraphError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let keys: Vec<Key> = (0..64).map(Key::new).collect();
//! let graph = SkipGraph::random(keys.iter().copied(), &mut rng)?;
//! let route = graph.route(Key::new(3), Key::new(60))?;
//! assert!(route.hops() <= 3 * 64usize.ilog2() as usize);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod balance;
pub mod crc32;
pub mod error;
pub mod failpoint;
pub mod fasthash;
pub mod fixtures;
pub mod graph;
pub mod ids;
pub mod maintenance;
pub mod mvec;
pub mod reference;
pub mod routing;
pub mod skiplist;
mod smallvec;

pub use balance::{BalanceReport, BalanceViolation};
pub use crc32::{crc32, Crc32};
pub use error::SkipGraphError;
pub use fasthash::{FastHashState, KeyHashState};
pub use graph::{ListIter, MembershipUpdate, NodeEntry, SkipGraph};
pub use ids::{Key, NodeId};
pub use maintenance::{JoinOutcome, LeaveOutcome};
pub use mvec::{Bit, MembershipVector, Prefix};
pub use routing::{RouteHop, RouteResult};
pub use skiplist::BalancedSkipList;

/// Convenience result alias used across the crate.
pub type Result<T, E = SkipGraphError> = std::result::Result<T, E>;
