//! # dsg-congest — a synchronous CONGEST-model simulator
//!
//! The self-adjusting skip graph paper (Huq & Ghosh, ICDCS 2017) assumes the
//! classic synchronous **CONGEST** model of distributed computing:
//! computation proceeds in rounds, and in every round a node may send at
//! most one message of `O(log n)` bits over each of its links.
//!
//! This crate provides a small, deterministic, single-process simulator for
//! that model. Protocols are written as per-node state machines implementing
//! [`NodeProtocol`]; the [`Simulator`] drives them round by round over an
//! explicit [`Topology`], enforcing the per-link capacity and auditing
//! message sizes against a configurable bit budget.
//!
//! The crate ships the one primitive the repository checks an analytical
//! charge against: [`protocols::Broadcast`], root-to-all dissemination of a
//! single value over a rooted [`protocols::Tree`] (the paper uses it to
//! distribute the epoch notification, the approximate median and new
//! group-ids). The `dsg` crate charges round costs analytically, and
//! `tests/epoch_notification.rs` checks its per-epoch notification charge
//! against a real broadcast run on this simulator.
//!
//! # Example
//!
//! ```rust
//! use dsg_congest::{Simulator, SimConfig, Topology};
//! use dsg_congest::protocols::{Broadcast, Tree};
//!
//! # fn main() -> Result<(), dsg_congest::CongestError> {
//! // A path of 8 nodes rooted at node 0.
//! let topology = Topology::path(8);
//! let tree = Tree::path(8);
//! let nodes = Broadcast::nodes(&tree, 42);
//! let mut sim = Simulator::new(topology, nodes, SimConfig::for_n(8));
//! let report = sim.run_to_completion()?;
//! assert!(report.rounds >= 7); // information must travel the path length
//! assert!(sim.nodes().iter().all(|node| node.value() == Some(42)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod message;
pub mod protocols;
pub mod sim;
pub mod topology;

pub use error::CongestError;
pub use message::{Envelope, MessageSize};
pub use sim::{Outbox, RunReport, SimConfig, Simulator};
pub use topology::Topology;

/// Per-node protocol logic driven by the [`Simulator`].
///
/// Implementations hold the node's local state. All methods receive the
/// node's own identifier so that a single type can serve every node.
pub trait NodeProtocol {
    /// The message type exchanged by this protocol.
    type Message: Clone + MessageSize;

    /// Invoked once before the first round; typically used by initiators to
    /// queue their first messages.
    fn on_start(&mut self, me: usize, outbox: &mut Outbox<Self::Message>);

    /// Invoked every round with the messages delivered to this node at the
    /// beginning of the round (sent by neighbours in the previous round).
    fn on_round(
        &mut self,
        me: usize,
        round: usize,
        inbox: &[Envelope<Self::Message>],
        outbox: &mut Outbox<Self::Message>,
    );

    /// Returns `true` once this node has terminated locally. The simulation
    /// stops when every node has terminated and no messages are in flight.
    fn is_halted(&self) -> bool;
}
