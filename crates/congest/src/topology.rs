//! Communication topologies for the simulator.
//!
//! A [`Topology`] is an undirected graph over nodes `0..n`; a node may send
//! a message to another node only if they share a link. Helpers are provided
//! for the shapes that appear in the reproduction: paths (linked lists) and
//! arbitrary edge lists (such as a tree's parent/child links).

use std::collections::BTreeSet;

/// An undirected communication topology over nodes `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    adjacency: Vec<BTreeSet<usize>>,
}

impl Topology {
    /// Creates a topology over `n` nodes with no links.
    pub fn empty(n: usize) -> Self {
        Topology {
            n,
            adjacency: vec![BTreeSet::new(); n],
        }
    }

    /// A simple path `0 — 1 — … — n-1` (a doubly linked list).
    pub fn path(n: usize) -> Self {
        let mut t = Topology::empty(n);
        for i in 1..n {
            t.add_link(i - 1, i);
        }
        t
    }

    /// Builds a topology from an explicit list of undirected edges.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut t = Topology::empty(n);
        for (a, b) in edges {
            t.add_link(a, b);
        }
        t
    }

    /// Adds an undirected link between `a` and `b`. Self-links are ignored.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_link(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n, "link endpoint out of range");
        if a == b {
            return;
        }
        self.adjacency[a].insert(b);
        self.adjacency[b].insert(a);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.adjacency.iter().map(|s| s.len()).sum::<usize>() / 2
    }

    /// Returns `true` if `a` and `b` share a link.
    pub fn has_link(&self, a: usize, b: usize) -> bool {
        self.adjacency.get(a).is_some_and(|s| s.contains(&b))
    }

    /// The neighbours of `node`, in ascending order.
    pub fn neighbors(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.adjacency
            .get(node)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// The degree of `node`.
    pub fn degree(&self, node: usize) -> usize {
        self.adjacency.get(node).map_or(0, |s| s.len())
    }

    /// The maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(|s| s.len()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_topology_links_consecutive_nodes() {
        let t = Topology::path(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.link_count(), 4);
        assert!(t.has_link(0, 1));
        assert!(t.has_link(3, 4));
        assert!(!t.has_link(0, 2));
        assert_eq!(t.degree(0), 1);
        assert_eq!(t.degree(2), 2);
    }

    #[test]
    fn star_topology_has_central_hub() {
        let t = Topology::from_edges(6, (0..6).filter(|&i| i != 2).map(|i| (2, i)));
        assert_eq!(t.degree(2), 5);
        assert_eq!(t.max_degree(), 5);
        assert_eq!(t.link_count(), 5);
        assert!(t.has_link(2, 0));
        assert!(!t.has_link(0, 1));
    }

    #[test]
    fn self_links_are_ignored() {
        let mut t = Topology::empty(3);
        t.add_link(1, 1);
        assert_eq!(t.link_count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_links_panic() {
        let mut t = Topology::empty(3);
        t.add_link(0, 7);
    }

    #[test]
    fn neighbors_are_sorted() {
        let t = Topology::from_edges(5, [(2, 4), (2, 0), (2, 3)]);
        let n: Vec<usize> = t.neighbors(2).collect();
        assert_eq!(n, vec![0, 3, 4]);
    }
}
