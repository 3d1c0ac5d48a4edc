//! Reference protocols built on the simulator.
//!
//! [`Broadcast`] implements the root-to-all dissemination the paper's
//! self-adjusting algorithm reuses from its balanced skip list (§IV-C/IV-D),
//! over a rooted [`Tree`]. It doubles as executable validation of the
//! notification charge of the `dsg` crate.

mod broadcast;
mod tree;

pub use broadcast::{Broadcast, BroadcastMsg};
pub use tree::Tree;
