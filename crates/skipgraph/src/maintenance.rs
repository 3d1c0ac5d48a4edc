//! Node addition and removal (paper §IV-G).
//!
//! DSG relies on the *standard* skip graph join and leave procedures: a new
//! node searches for its position at the base level, then chooses random
//! membership-vector bits and links itself into one list per level until it
//! is singleton; a leaving node simply splices itself out of every list.
//! Both take `O(log n)` rounds in expectation. After either operation the
//! self-adjusting layer re-checks the a-balance property (see the `dsg`
//! crate).
//!
//! This module wraps the structural mutation with the round accounting the
//! rest of the reproduction uses.

use rand::Rng;

use crate::error::SkipGraphError;
use crate::graph::SkipGraph;
use crate::ids::{Key, NodeId};
use crate::Result;

/// Result of a node join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinOutcome {
    /// Id assigned to the new node.
    pub node: NodeId,
    /// Number of levels the node linked itself into (its membership-vector
    /// length).
    pub levels_joined: usize,
    /// Synchronous rounds charged to the join: the base-level search plus
    /// one neighbour search per level joined.
    pub rounds: usize,
}

/// Result of a node leave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaveOutcome {
    /// Key of the node that left.
    pub key: Key,
    /// Number of levels the node was linked into.
    pub levels_left: usize,
    /// Synchronous rounds charged to the leave (one splice per level).
    pub rounds: usize,
}

impl SkipGraph {
    /// Joins a new node with key `key` via the standard skip graph join:
    /// the node is routed to its base-level position starting from
    /// `introducer` (any existing node), then picks random membership-vector
    /// bits level by level.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::DuplicateKey`] if the key is already
    /// present, or [`SkipGraphError::UnknownKey`] if `introducer` does not
    /// exist. Joining an empty graph requires no introducer; pass `None`.
    pub fn join<R: Rng + ?Sized>(
        &mut self,
        key: Key,
        introducer: Option<Key>,
        rng: &mut R,
    ) -> Result<JoinOutcome> {
        if self.node_by_key(key).is_some() {
            return Err(SkipGraphError::DuplicateKey(key));
        }
        // Rounds for the base-level position search: route from the
        // introducer to the key's predecessor (or successor).
        let search_rounds = match introducer {
            Some(intro_key) => {
                let intro = self
                    .node_by_key(intro_key)
                    .ok_or(SkipGraphError::UnknownKey(intro_key))?;
                // Route toward the closest existing key, counting hops
                // without recording the path.
                let target = self.closest_existing_key(key);
                match target {
                    Some(target_key) => self.greedy_walk(
                        intro,
                        self.node_by_key(target_key).expect("key exists"),
                        None,
                    )?,
                    None => 0,
                }
            }
            None => {
                if !self.is_empty() {
                    return Err(SkipGraphError::InvariantViolated(
                        "joining a non-empty graph requires an introducer".to_string(),
                    ));
                }
                0
            }
        };
        let node = self.insert_random(key, rng)?;
        let levels_joined = self.mvec_of(node)?.len();
        Ok(JoinOutcome {
            node,
            levels_joined,
            // One neighbour search per level joined, plus the base search.
            rounds: search_rounds + levels_joined + 1,
        })
    }

    /// Removes the node with key `key` via the standard leave procedure.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownKey`] if the key is not present.
    pub fn leave(&mut self, key: Key) -> Result<LeaveOutcome> {
        let id = self
            .node_by_key(key)
            .ok_or(SkipGraphError::UnknownKey(key))?;
        let levels_left = self.mvec_of(id)?.len();
        self.remove(id)?;
        Ok(LeaveOutcome {
            key,
            levels_left,
            rounds: levels_left + 1,
        })
    }

    /// Finds the live key closest to `key` (used as the join target), the
    /// lower one on a tie: `key` itself if present. The top-down search of
    /// [`SkipGraph::predecessor_by_key`] finds the key below; the key at
    /// or above is that node's right neighbour in the base list (or the
    /// list's head when nothing lies below).
    pub(crate) fn closest_existing_key(&self, key: Key) -> Option<Key> {
        let below = self.predecessor_by_key(key);
        let above = match below {
            Some(id) => self.neighbors(id, 0).ok()?.1,
            None => self.node_ids().next(),
        };
        let below = below.and_then(|id| self.key_of(id).ok());
        let above = above.and_then(|id| self.key_of(id).ok());
        match (below, above) {
            (Some(b), Some(a)) => {
                if key.value() - b.value() <= a.value() - key.value() {
                    Some(b)
                } else {
                    Some(a)
                }
            }
            (Some(b), None) => Some(b),
            (None, Some(a)) => Some(a),
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn join_inserts_and_charges_logarithmic_rounds() {
        let mut g = fixtures::uniform_random(128, 21);
        let mut rng = StdRng::seed_from_u64(99);
        let outcome = g.join(Key::new(1000), Some(Key::new(0)), &mut rng).unwrap();
        assert!(g.node_by_key(Key::new(1000)).is_some());
        g.validate().unwrap();
        assert_eq!(outcome.levels_joined, g.mvec_of(outcome.node).unwrap().len());
        assert!(outcome.rounds >= outcome.levels_joined);
        assert!((outcome.rounds as f64) <= 12.0 * (129f64).log2());
    }

    #[test]
    fn join_into_empty_graph_needs_no_introducer() {
        let mut g = SkipGraph::new();
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = g.join(Key::new(5), None, &mut rng).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(outcome.levels_joined, 0);
    }

    #[test]
    fn join_into_nonempty_graph_requires_introducer() {
        let mut g = fixtures::figure1();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(g.join(Key::new(99), None, &mut rng).is_err());
    }

    #[test]
    fn duplicate_join_is_rejected() {
        let mut g = fixtures::figure1();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            g.join(Key::new(13), Some(Key::new(1)), &mut rng),
            Err(SkipGraphError::DuplicateKey(_))
        ));
    }

    #[test]
    fn leave_removes_from_every_level() {
        let mut g = fixtures::figure1();
        let outcome = g.leave(Key::new(13)).unwrap();
        assert_eq!(outcome.key, Key::new(13));
        assert_eq!(outcome.levels_left, 2);
        assert!(g.node_by_key(Key::new(13)).is_none());
        g.validate().unwrap();
        // Routing still works around the removed node.
        let r = g.route(Key::new(1), Key::new(23)).unwrap();
        assert_eq!(g.key_of(r.destination()).unwrap(), Key::new(23));
    }

    #[test]
    fn leave_unknown_key_fails() {
        let mut g = fixtures::figure1();
        assert!(matches!(
            g.leave(Key::new(999)),
            Err(SkipGraphError::UnknownKey(_))
        ));
    }

    #[test]
    fn churn_preserves_validity() {
        let mut g = fixtures::uniform_random(64, 5);
        let mut rng = StdRng::seed_from_u64(77);
        for i in 0..32u64 {
            g.join(Key::new(1000 + i), Some(Key::new(1)), &mut rng).unwrap();
            g.leave(Key::new(i * 2)).unwrap();
        }
        g.validate().unwrap();
        assert_eq!(g.len(), 64);
    }
}
