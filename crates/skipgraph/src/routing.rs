//! Standard skip graph routing (Appendix B of the paper).
//!
//! Routing starts at the *top level* of the source node and traverses the
//! structure greedily: while moving toward the destination key at the
//! current level would not overshoot it, follow the level's linked list;
//! otherwise drop one level and continue. Skip graphs guarantee `O(log n)`
//! hops between any pair of nodes.
//!
//! One walk serves every caller. It records the hops it takes only into a
//! buffer the caller passes, the idiom of a skiplist search that fills a
//! predecessor array only when asked for one.
//! [`route_ids`](SkipGraph::route_ids) passes one and returns the path;
//! [`distance_ids`](SkipGraph::distance_ids) passes none and returns the
//! count, allocating nothing. The engine serves every request through the
//! count.

use crate::error::SkipGraphError;
use crate::graph::SkipGraph;
use crate::ids::{Key, NodeId};
use crate::Result;

/// One hop of a route: the node visited and the level at which the hop was
/// taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteHop {
    /// The node reached by this hop.
    pub node: NodeId,
    /// The level of the linked list the hop traversed (or the level at which
    /// the search was positioned when reaching the node).
    pub level: usize,
}

/// The result of routing a request through the skip graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteResult {
    source: NodeId,
    destination: NodeId,
    path: Vec<RouteHop>,
}

impl RouteResult {
    /// The source node of the request.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The destination node of the request.
    pub fn destination(&self) -> NodeId {
        self.destination
    }

    /// The full path, starting at the source and ending at the destination.
    pub fn path(&self) -> &[RouteHop] {
        &self.path
    }

    /// Number of hops (edges traversed). A request from a node to itself has
    /// zero hops.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// The paper's distance `d_S(σ)`: the number of **intermediate** nodes
    /// on the communication path from source to destination.
    pub fn intermediate_nodes(&self) -> usize {
        self.path.len().saturating_sub(2)
    }
}

impl SkipGraph {
    /// Routes from the node holding `from` to the node holding `to` using
    /// the standard skip graph routing algorithm, returning the path taken.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownKey`] if either key is not present.
    pub fn route(&self, from: Key, to: Key) -> Result<RouteResult> {
        let (source, destination) = self.endpoints(from, to)?;
        self.route_ids(source, destination)
    }

    /// Routes between two nodes identified by id. See [`SkipGraph::route`].
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownNode`] if either id is dead.
    pub fn route_ids(&self, source: NodeId, destination: NodeId) -> Result<RouteResult> {
        let mut path = Vec::new();
        self.greedy_walk(source, destination, Some(&mut path))?;
        Ok(RouteResult {
            source,
            destination,
            path,
        })
    }

    /// The routing distance `d_S(u, v)` used throughout the paper: the
    /// number of intermediate nodes on the standard routing path between the
    /// nodes holding keys `from` and `to`.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownKey`] if either key is not present.
    pub fn distance(&self, from: Key, to: Key) -> Result<usize> {
        let (source, destination) = self.endpoints(from, to)?;
        self.distance_ids(source, destination)
    }

    /// [`distance`](Self::distance) between two nodes identified by id:
    /// the same walk as [`route_ids`](Self::route_ids), counted instead of
    /// recorded, so it allocates nothing. Equal to
    /// `route_ids(source, destination)?.intermediate_nodes()`.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownNode`] if either id is dead.
    pub fn distance_ids(&self, source: NodeId, destination: NodeId) -> Result<usize> {
        Ok(self
            .greedy_walk(source, destination, None)?
            .saturating_sub(1))
    }

    fn endpoints(&self, from: Key, to: Key) -> Result<(NodeId, NodeId)> {
        let source = self
            .node_by_key(from)
            .ok_or(SkipGraphError::UnknownKey(from))?;
        let destination = self.node_by_key(to).ok_or(SkipGraphError::UnknownKey(to))?;
        Ok((source, destination))
    }

    /// The greedy walk behind every route: returns the number of hops
    /// from `source` to `destination`. With `path`, it also pushes the
    /// source (at its top level) and every node it reaches, with the level
    /// of the list it moved along.
    ///
    /// # Errors
    ///
    /// [`SkipGraphError::UnknownNode`] if either id is dead, and
    /// [`SkipGraphError::InvariantViolated`] if the walk gets stuck on the
    /// base level (a corrupt structure).
    pub(crate) fn greedy_walk(
        &self,
        source: NodeId,
        destination: NodeId,
        mut path: Option<&mut Vec<RouteHop>>,
    ) -> Result<usize> {
        let src_key = self.key_of(source)?;
        let dst_key = self.key_of(destination)?;
        let mut level = self.mvec_of(source)?.len();
        if let Some(path) = path.as_deref_mut() {
            path.push(RouteHop {
                node: source,
                level,
            });
        }
        let going_right = dst_key > src_key;
        let (mut current, mut cur_key) = (source, src_key);
        let mut hops = 0;
        while cur_key != dst_key {
            let (left, right) = self.neighbors(current, level)?;
            let candidate = if going_right { right } else { left };
            let advance = match candidate {
                Some(next) => {
                    let next_key = self.key_of(next)?;
                    // Move along the current level only while we do not
                    // overshoot the destination.
                    if (going_right && next_key <= dst_key) || (!going_right && next_key >= dst_key)
                    {
                        Some((next, next_key))
                    } else {
                        None
                    }
                }
                None => None,
            };
            match advance {
                Some((next, next_key)) => {
                    current = next;
                    cur_key = next_key;
                    hops += 1;
                    if let Some(path) = path.as_deref_mut() {
                        path.push(RouteHop { node: next, level });
                    }
                }
                None => {
                    if level == 0 {
                        // At the base level the destination is always
                        // reachable without overshooting; reaching this
                        // branch means the structure is corrupt.
                        return Err(SkipGraphError::InvariantViolated(format!(
                            "routing from {src_key} to {dst_key} got stuck at {cur_key} on the base level"
                        )));
                    }
                    level -= 1;
                }
            }
        }
        Ok(hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::ids::Key;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn route_to_self_has_zero_hops() {
        let g = fixtures::figure1();
        let r = g.route(Key::new(13), Key::new(13)).unwrap();
        assert_eq!(r.hops(), 0);
        assert_eq!(r.intermediate_nodes(), 0);
        assert_eq!(r.source(), r.destination());
    }

    #[test]
    fn route_between_adjacent_keys_is_single_hop() {
        let g = fixtures::figure1();
        let r = g.route(Key::new(1), Key::new(7)).unwrap();
        assert!(r.hops() >= 1);
        assert_eq!(
            g.key_of(r.destination()).unwrap(),
            Key::new(7),
            "route must end at the destination"
        );
        assert_eq!(r.intermediate_nodes(), r.hops() - 1);
    }

    #[test]
    fn routes_are_monotone_toward_the_destination() {
        let g = fixtures::figure1();
        let r = g.route(Key::new(1), Key::new(23)).unwrap();
        let keys: Vec<u64> = r
            .path()
            .iter()
            .map(|h| g.key_of(h.node).unwrap().value())
            .collect();
        for pair in keys.windows(2) {
            assert!(pair[1] > pair[0], "rightward route must be monotone: {keys:?}");
        }
        assert_eq!(*keys.last().unwrap(), 23);
    }

    #[test]
    fn leftward_routes_work_symmetrically() {
        let g = fixtures::figure1();
        let r = g.route(Key::new(23), Key::new(1)).unwrap();
        let keys: Vec<u64> = r
            .path()
            .iter()
            .map(|h| g.key_of(h.node).unwrap().value())
            .collect();
        for pair in keys.windows(2) {
            assert!(pair[1] < pair[0], "leftward route must be monotone: {keys:?}");
        }
        assert_eq!(*keys.last().unwrap(), 1);
    }

    #[test]
    fn all_pairs_reachable_in_random_graph_within_log_bound() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 128u64;
        let g = crate::SkipGraph::random((0..n).map(Key::new), &mut rng).unwrap();
        let log_n = (n as f64).log2();
        let mut worst = 0usize;
        for a in (0..n).step_by(7) {
            for b in (0..n).step_by(13) {
                let r = g.route(Key::new(a), Key::new(b)).unwrap();
                worst = worst.max(r.hops());
            }
        }
        // Standard skip graph routing takes O(log n) hops w.h.p.; allow a
        // generous constant factor for the randomised structure.
        assert!(
            (worst as f64) <= 6.0 * log_n,
            "worst-case hops {worst} exceeds 6·log2(n) = {:.1}",
            6.0 * log_n
        );
    }

    #[test]
    fn routing_levels_never_increase_along_the_path() {
        let g = fixtures::figure1();
        let r = g.route(Key::new(1), Key::new(18)).unwrap();
        let levels: Vec<usize> = r.path().iter().map(|h| h.level).collect();
        for pair in levels.windows(2) {
            assert!(pair[1] <= pair[0], "levels must be non-increasing: {levels:?}");
        }
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let g = fixtures::figure1();
        assert!(matches!(
            g.route(Key::new(1), Key::new(999)),
            Err(SkipGraphError::UnknownKey(_))
        ));
        assert!(matches!(
            g.route(Key::new(999), Key::new(1)),
            Err(SkipGraphError::UnknownKey(_))
        ));
    }
}
