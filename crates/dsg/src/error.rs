//! Error types for the self-adjusting layer.

use std::fmt;

use dsg_skipgraph::SkipGraphError;

/// Errors returned by the [`DynamicSkipGraph`](crate::DynamicSkipGraph)
/// driver.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DsgError {
    /// An error bubbled up from the underlying skip graph substrate.
    SkipGraph(SkipGraphError),
    /// The request referenced a peer key that is not part of the network.
    UnknownPeer(u64),
    /// A peer with this key already exists.
    DuplicatePeer(u64),
    /// A communication request named the same peer as both source and
    /// destination.
    SelfCommunication(u64),
    /// A consistency check of the self-adjusting state failed.
    StateInvariantViolated(String),
    /// A request batch reused a peer as an endpoint twice within one
    /// transformation epoch. The session layer splits such batches into
    /// successive epochs; hitting this from
    /// [`DynamicSkipGraph::communicate_epoch`](crate::DynamicSkipGraph::communicate_epoch)
    /// directly means the caller did not.
    BatchEndpointReuse(u64),
    /// A request batch exceeded the per-epoch pair limit
    /// ([`MAX_EPOCH_PAIRS`](crate::transform::MAX_EPOCH_PAIRS)).
    BatchTooLarge {
        /// The number of pairs submitted.
        size: usize,
        /// The per-epoch limit.
        max: usize,
    },
    /// A configuration value failed validation when building a
    /// [`DsgSession`](crate::DsgSession).
    InvalidConfig(String),
    /// An engine image handed to
    /// [`DynamicSkipGraph::restore_image`](crate::DynamicSkipGraph::restore_image)
    /// has a configuration the builder refuses or a frequency sketch of the
    /// wrong shape; the payload says which. The snapshot decoder refuses
    /// the same payloads, so an image it decoded never fails this way.
    InvalidImage(String),
    /// A fault (panic) interrupted the epoch **plan** stage — a pure read —
    /// before anything of the request's chunk applied, so the chunk was
    /// abandoned and the engine is bit-for-bit untouched. A durable
    /// service has also taken the chunk back out of its journal. The
    /// payload describes the fault. The aborted requests can simply be
    /// resubmitted.
    EpochAborted(String),
    /// A fault (panic) interrupted the epoch **apply** stage: the engine's
    /// structures may be half-mutated, so the owning
    /// [`DsgService`](crate::service::DsgService) refuses further work
    /// until [`recover`](crate::service::DsgService::recover) rebuilds the
    /// graph from the surviving state. Every in-flight ticket resolves with
    /// this error instead of hanging.
    EnginePoisoned,
    /// The request's deadline expired while it was queued, so the
    /// overload-control layer shed it before the engine paid for it. The
    /// ticket resolves with this error instead of leaving the waiter to
    /// time out; the request was never journaled or served and can be
    /// resubmitted (with a fresh deadline) once load subsides.
    DeadlineExceeded,
    /// The request was not served because the service is shutting down
    /// (abort-policy shutdowns resolve still-queued tickets this way).
    ShuttingDown,
    /// [`shutdown`](crate::service::DsgService::shutdown) was called on a
    /// service whose worker was already joined (a second `shutdown` after
    /// the first one succeeded).
    AlreadyShutDown,
    /// [`recover`](crate::service::DsgService::recover) was called on a
    /// healthy (non-poisoned) service: there is nothing to rebuild, and
    /// silently rebuilding a healthy engine would discard its structure.
    NotPoisoned,
    /// The durability layer failed; see
    /// [`PersistError`](crate::persist::PersistError). Requests that fail
    /// to reach the journal resolve their tickets with this error (the
    /// engine was never called, so they can be resubmitted once the
    /// underlying condition clears).
    Persist(crate::persist::PersistError),
}

impl fmt::Display for DsgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DsgError::SkipGraph(err) => write!(f, "skip graph error: {err}"),
            DsgError::UnknownPeer(key) => write!(f, "no peer with key {key} exists"),
            DsgError::DuplicatePeer(key) => write!(f, "a peer with key {key} already exists"),
            DsgError::SelfCommunication(key) => {
                write!(f, "peer {key} cannot communicate with itself")
            }
            DsgError::StateInvariantViolated(msg) => {
                write!(f, "self-adjusting state invariant violated: {msg}")
            }
            DsgError::BatchEndpointReuse(key) => {
                write!(f, "peer {key} appears as an endpoint twice in one epoch")
            }
            DsgError::BatchTooLarge { size, max } => {
                write!(f, "epoch of {size} pairs exceeds the limit of {max}")
            }
            DsgError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DsgError::InvalidImage(msg) => write!(f, "invalid engine image: {msg}"),
            DsgError::EpochAborted(msg) => {
                write!(f, "epoch aborted in the plan stage (engine untouched): {msg}")
            }
            DsgError::EnginePoisoned => {
                write!(f, "the engine is poisoned by an apply-stage fault; recover() first")
            }
            DsgError::DeadlineExceeded => {
                write!(f, "the request's deadline expired while queued; it was shed unserved")
            }
            DsgError::ShuttingDown => write!(f, "the service is shutting down"),
            DsgError::AlreadyShutDown => {
                write!(f, "the service has already been shut down")
            }
            DsgError::NotPoisoned => {
                write!(f, "the service is not poisoned; there is nothing to recover")
            }
            DsgError::Persist(err) => write!(f, "persistence error: {err}"),
        }
    }
}

impl std::error::Error for DsgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DsgError::SkipGraph(err) => Some(err),
            DsgError::Persist(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SkipGraphError> for DsgError {
    fn from(err: SkipGraphError) -> Self {
        DsgError::SkipGraph(err)
    }
}

impl From<crate::persist::PersistError> for DsgError {
    fn from(err: crate::persist::PersistError) -> Self {
        DsgError::Persist(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(DsgError::UnknownPeer(9).to_string().contains('9'));
        let err: DsgError = SkipGraphError::EmptyGraph.into();
        assert!(err.to_string().contains("skip graph"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DsgError>();
    }
}
