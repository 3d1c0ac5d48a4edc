//! A naive, index-based reference skip graph.
//!
//! [`ReferenceGraph`] is the representation the repository *used* to build
//! [`SkipGraph`](crate::SkipGraph) around: a
//! `HashMap<Prefix, BTreeMap<Key, NodeId>>` per level, with neighbour
//! queries answered by two B-tree range scans and list queries by
//! collecting a fresh `Vec`. It is retained for two jobs:
//!
//! * **differential testing** — property tests drive the intrusive arena
//!   and this reference with identical operation sequences and require
//!   identical observable behaviour (same ids, same list orders, same
//!   neighbours, same route hop counts);
//! * **benchmarking** — the `route`/`neighbors` groups of the `core`
//!   criterion bench (`crates/bench/benches/core.rs`) measure the arena's
//!   speedup against this representation.
//!
//! Node ids are assigned with exactly the same arena/free-list discipline
//! as [`SkipGraph`](crate::SkipGraph), so ids obtained from mirrored
//! operation sequences are directly comparable.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use crate::error::SkipGraphError;
use crate::ids::{Key, NodeId};
use crate::mvec::{Bit, MembershipVector, Prefix};
use crate::Result;

#[derive(Debug, Clone)]
struct RefEntry {
    key: Key,
    mvec: MembershipVector,
}

/// The naive index-based skip graph representation (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ReferenceGraph {
    arena: Vec<Option<RefEntry>>,
    free: Vec<u32>,
    by_key: BTreeMap<Key, NodeId>,
    levels: Vec<HashMap<Prefix, BTreeMap<Key, NodeId>>>,
}

impl ReferenceGraph {
    /// Creates an empty reference graph.
    pub fn new() -> Self {
        ReferenceGraph::default()
    }

    /// Builds a reference graph from `(key, membership vector)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::DuplicateKey`] if two members share a key.
    pub fn from_members<I>(members: I) -> Result<Self>
    where
        I: IntoIterator<Item = (Key, MembershipVector)>,
    {
        let mut graph = ReferenceGraph::new();
        for (key, mvec) in members {
            graph.insert(key, mvec)?;
        }
        Ok(graph)
    }

    /// Inserts a node, assigning ids with the same discipline as
    /// [`SkipGraph`](crate::SkipGraph).
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::DuplicateKey`] on key collisions.
    pub fn insert(&mut self, key: Key, mvec: MembershipVector) -> Result<NodeId> {
        if self.by_key.contains_key(&key) {
            return Err(SkipGraphError::DuplicateKey(key));
        }
        let entry = RefEntry { key, mvec };
        let id = match self.free.pop() {
            Some(raw) => {
                let id = NodeId::from_raw(raw);
                self.arena[id.raw() as usize] = Some(entry);
                id
            }
            None => {
                let id = NodeId::from_raw(self.arena.len() as u32);
                self.arena.push(Some(entry));
                id
            }
        };
        self.by_key.insert(key, id);
        self.index_node(id);
        Ok(id)
    }

    /// Removes the node with `key`.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownKey`] if absent.
    pub fn remove_key(&mut self, key: Key) -> Result<NodeId> {
        let id = self
            .by_key
            .get(&key)
            .copied()
            .ok_or(SkipGraphError::UnknownKey(key))?;
        self.unindex_node(id);
        self.by_key.remove(&key);
        self.arena[id.raw() as usize] = None;
        self.free.push(id.raw());
        Ok(id)
    }

    /// Replaces membership-vector bits from `from_level` upward, exactly
    /// like [`SkipGraph::set_membership_suffix`](crate::SkipGraph::set_membership_suffix).
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownNode`] for a dead id and
    /// [`SkipGraphError::HeightLimitExceeded`] on overlong vectors.
    pub fn set_membership_suffix<I>(
        &mut self,
        id: NodeId,
        from_level: usize,
        new_bits: I,
    ) -> Result<()>
    where
        I: IntoIterator<Item = Bit>,
    {
        if self.entry(id).is_none() {
            return Err(SkipGraphError::UnknownNode(id));
        }
        self.unindex_node(id);
        let result = {
            let entry = self.arena[id.raw() as usize]
                .as_mut()
                .expect("checked live above");
            entry.mvec.replace_suffix(from_level, new_bits)
        };
        self.index_node(id);
        result
    }

    fn entry(&self, id: NodeId) -> Option<&RefEntry> {
        self.arena.get(id.raw() as usize).and_then(|s| s.as_ref())
    }

    fn index_node(&mut self, id: NodeId) {
        let (key, len, mvec) = {
            let entry = self.entry(id).expect("node is live");
            (entry.key, entry.mvec.len(), entry.mvec)
        };
        for level in 0..=len {
            let prefix = mvec.prefix(level);
            if self.levels.len() <= level {
                self.levels.resize_with(level + 1, HashMap::new);
            }
            self.levels[level].entry(prefix).or_default().insert(key, id);
        }
    }

    fn unindex_node(&mut self, id: NodeId) {
        let (key, len, mvec) = {
            let entry = self.entry(id).expect("node is live");
            (entry.key, entry.mvec.len(), entry.mvec)
        };
        for level in 0..=len {
            let prefix = mvec.prefix(level);
            if let Some(map) = self.levels.get_mut(level) {
                if let Some(list) = map.get_mut(&prefix) {
                    list.remove(&key);
                    if list.is_empty() {
                        map.remove(&prefix);
                    }
                }
            }
        }
        while matches!(self.levels.last(), Some(m) if m.is_empty()) {
            self.levels.pop();
        }
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// The id holding `key`.
    pub fn node_by_key(&self, key: Key) -> Option<NodeId> {
        self.by_key.get(&key).copied()
    }

    /// The key of a live node.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownNode`] for a dead id.
    pub fn key_of(&self, id: NodeId) -> Result<Key> {
        self.entry(id)
            .map(|e| e.key)
            .ok_or(SkipGraphError::UnknownNode(id))
    }

    /// The membership vector of a live node.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownNode`] for a dead id.
    pub fn mvec_of(&self, id: NodeId) -> Result<MembershipVector> {
        self.entry(id)
            .map(|e| e.mvec)
            .ok_or(SkipGraphError::UnknownNode(id))
    }

    /// The largest level index for which any list exists.
    pub fn max_level(&self) -> usize {
        self.levels.len().saturating_sub(1)
    }

    /// Members of the list at `level` with `prefix`, in ascending key
    /// order (allocates, as the old representation did).
    pub fn list_members(&self, level: usize, prefix: Prefix) -> Vec<NodeId> {
        match self.levels.get(level).and_then(|m| m.get(&prefix)) {
            Some(list) => list.values().copied().collect(),
            None => Vec::new(),
        }
    }

    /// Size of the list `id` belongs to at `level` (O(log n) B-tree walk
    /// plus a hash lookup — the cost the intrusive arena removes).
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownNode`] for a dead id.
    pub fn list_size(&self, id: NodeId, level: usize) -> Result<usize> {
        let entry = self.entry(id).ok_or(SkipGraphError::UnknownNode(id))?;
        if level > entry.mvec.len() {
            return Ok(1);
        }
        let prefix = entry.mvec.prefix(level);
        Ok(self
            .levels
            .get(level)
            .and_then(|m| m.get(&prefix))
            .map(|l| l.len())
            .unwrap_or(0))
    }

    /// Left and right neighbours of `id` at `level`, answered with two
    /// B-tree range scans (the representation this crate benchmarked the
    /// intrusive arena against).
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownNode`] for a dead id.
    pub fn neighbors(&self, id: NodeId, level: usize) -> Result<(Option<NodeId>, Option<NodeId>)> {
        let entry = self.entry(id).ok_or(SkipGraphError::UnknownNode(id))?;
        if level > entry.mvec.len() {
            return Ok((None, None));
        }
        let prefix = entry.mvec.prefix(level);
        let list = match self.levels.get(level).and_then(|m| m.get(&prefix)) {
            Some(list) => list,
            None => return Ok((None, None)),
        };
        let left = list.range(..entry.key).next_back().map(|(_, id)| *id);
        let right = list
            .range((Bound::Excluded(entry.key), Bound::Unbounded))
            .next()
            .map(|(_, id)| *id);
        Ok((left, right))
    }

    /// Routes between two keys with the standard greedy algorithm, using
    /// this representation's neighbour queries; returns the hop count.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownKey`] for unknown keys and
    /// [`SkipGraphError::InvariantViolated`] if the structure is corrupt.
    pub fn route_hops(&self, from: Key, to: Key) -> Result<usize> {
        let source = self
            .node_by_key(from)
            .ok_or(SkipGraphError::UnknownKey(from))?;
        let destination = self
            .node_by_key(to)
            .ok_or(SkipGraphError::UnknownKey(to))?;
        if source == destination {
            return Ok(0);
        }
        let src_key = self.key_of(source)?;
        let dst_key = self.key_of(destination)?;
        let going_right = dst_key > src_key;
        let mut current = source;
        let mut level = self.mvec_of(source)?.len();
        let mut hops = 0usize;
        loop {
            let cur_key = self.key_of(current)?;
            if cur_key == dst_key {
                break;
            }
            let (left, right) = self.neighbors(current, level)?;
            let candidate = if going_right { right } else { left };
            let advance = match candidate {
                Some(next) => {
                    let next_key = self.key_of(next)?;
                    if (going_right && next_key <= dst_key)
                        || (!going_right && next_key >= dst_key)
                    {
                        Some(next)
                    } else {
                        None
                    }
                }
                None => None,
            };
            match advance {
                Some(next) => {
                    current = next;
                    hops += 1;
                }
                None => {
                    if level == 0 {
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
    use crate::SkipGraph;

    fn paired(members: &[(u64, &str)]) -> (SkipGraph, ReferenceGraph) {
        let arena = SkipGraph::from_members(
            members
                .iter()
                .map(|(k, v)| (Key::new(*k), MembershipVector::parse(v).unwrap())),
        )
        .unwrap();
        let reference = ReferenceGraph::from_members(
            members
                .iter()
                .map(|(k, v)| (Key::new(*k), MembershipVector::parse(v).unwrap())),
        )
        .unwrap();
        (arena, reference)
    }

    #[test]
    fn mirrors_the_arena_on_figure1() {
        let members = [
            (1u64, "00"),
            (7, "10"),
            (10, "00"),
            (13, "01"),
            (18, "11"),
            (23, "10"),
        ];
        let (arena, reference) = paired(&members);
        assert_eq!(arena.len(), reference.len());
        for (key, _) in members {
            let id = arena.node_by_key(Key::new(key)).unwrap();
            assert_eq!(reference.node_by_key(Key::new(key)), Some(id));
            for level in 0..=3 {
                assert_eq!(
                    arena.neighbors(id, level).unwrap(),
                    reference.neighbors(id, level).unwrap(),
                    "neighbours disagree for key {key} at level {level}"
                );
                assert_eq!(
                    arena.list_size(id, level).unwrap(),
                    reference.list_size(id, level).unwrap()
                );
            }
        }
        for (a, _) in members {
            for (b, _) in members {
                assert_eq!(
                    arena.route(Key::new(a), Key::new(b)).unwrap().hops(),
                    reference.route_hops(Key::new(a), Key::new(b)).unwrap()
                );
            }
        }
    }

    #[test]
    fn id_assignment_matches_after_removals() {
        let members = [(1u64, "0"), (2, "1"), (3, "0"), (4, "1")];
        let (mut arena, mut reference) = paired(&members);
        arena.remove_key(Key::new(2)).unwrap();
        reference.remove_key(Key::new(2)).unwrap();
        let a = arena
            .insert(Key::new(9), MembershipVector::parse("01").unwrap())
            .unwrap();
        let r = reference
            .insert(Key::new(9), MembershipVector::parse("01").unwrap())
            .unwrap();
        assert_eq!(a, r, "free-list discipline must match");
    }
}
