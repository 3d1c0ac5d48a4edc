//! Error types for the skip graph substrate.

use std::fmt;

use crate::ids::{Key, NodeId};

/// Errors returned by skip graph construction, mutation and routing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SkipGraphError {
    /// A node with the same key already exists in the graph.
    DuplicateKey(Key),
    /// A bulk construction ([`SkipGraph::from_sorted`](crate::SkipGraph::from_sorted))
    /// was given a key below the one before it.
    KeyOutOfOrder {
        /// The key given before.
        previous: Key,
        /// The smaller key that followed it.
        key: Key,
    },
    /// No node with the given key exists in the graph.
    UnknownKey(Key),
    /// The node id does not refer to a live node of this graph.
    UnknownNode(NodeId),
    /// A membership vector string or bit sequence was malformed.
    InvalidMembershipVector(String),
    /// A membership vector grew past the supported maximum height.
    HeightLimitExceeded {
        /// The maximum number of levels supported.
        limit: usize,
    },
    /// The operation requires a non-empty graph.
    EmptyGraph,
    /// A structural invariant of the skip graph was violated; produced by
    /// [`SkipGraph::validate`](crate::SkipGraph::validate).
    InvariantViolated(String),
}

impl fmt::Display for SkipGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipGraphError::DuplicateKey(key) => {
                write!(f, "a node with key {key} already exists")
            }
            SkipGraphError::KeyOutOfOrder { previous, key } => {
                write!(f, "key {key} follows the larger key {previous}")
            }
            SkipGraphError::UnknownKey(key) => write!(f, "no node with key {key} exists"),
            SkipGraphError::UnknownNode(id) => write!(f, "node id {id} is not live in this graph"),
            SkipGraphError::InvalidMembershipVector(msg) => {
                write!(f, "invalid membership vector: {msg}")
            }
            SkipGraphError::HeightLimitExceeded { limit } => {
                write!(f, "membership vector exceeds the supported height of {limit} levels")
            }
            SkipGraphError::EmptyGraph => write!(f, "operation requires a non-empty skip graph"),
            SkipGraphError::InvariantViolated(msg) => {
                write!(f, "skip graph invariant violated: {msg}")
            }
        }
    }
}

impl std::error::Error for SkipGraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let err = SkipGraphError::DuplicateKey(Key::new(3));
        assert_eq!(err.to_string(), "a node with key 3 already exists");
        let err = SkipGraphError::HeightLimitExceeded { limit: 128 };
        assert!(err.to_string().contains("128"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SkipGraphError>();
    }
}
