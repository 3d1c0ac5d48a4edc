//! Per-node self-adjusting state (paper §IV-B).
//!
//! In addition to its membership vector (stored in the skip graph
//! substrate), every DSG node `x` holds, for each level `j`:
//!
//! * a timestamp `T^x_j` — how recently `x` became attached to its group at
//!   that level (0 = never / detached),
//! * a group-id `G^x_j` — the identifier of the group `x` belongs to at that
//!   level (initially the node's own key),
//! * an is-dominating-group bit `D^x_j` — whether `x` moved to the
//!   0-subgraph the last time it received a *positive* approximate median at
//!   level `j`,
//!
//! plus a single *group-base* `B^x` — the highest level at which `x` belongs
//! to its biggest group (Appendix C).
//!
//! All of this is `O(H · log n) = O(log² n)` bits per node in total and
//! `O(log n)` bits per level, matching the paper's memory model (each level
//! is touched with `O(log n)`-bit messages).
//!
//! The vectors are stored sparsely: levels beyond the stored length report
//! the documented defaults (timestamp 0, group-id = own key, not
//! dominating), so a node's state never has to be resized eagerly when the
//! structure height changes.

use dsg_skipgraph::{Key, NodeId};

/// The self-adjusting state of one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeState {
    key: Key,
    timestamps: Vec<u64>,
    group_ids: Vec<u64>,
    dominating: Vec<bool>,
    group_base: usize,
}

impl NodeState {
    /// Creates the initial state for a node with the given key: all
    /// timestamps zero, every group-id equal to the node's own key, no
    /// dominating flags, and the group-base at `initial_group_base` (the
    /// lowest level at which the node is singleton, per Appendix C).
    pub fn new(key: Key, initial_group_base: usize) -> Self {
        NodeState {
            key,
            timestamps: Vec::new(),
            group_ids: Vec::new(),
            dominating: Vec::new(),
            group_base: initial_group_base,
        }
    }

    /// The key of the node this state belongs to.
    pub fn key(&self) -> Key {
        self.key
    }

    /// Timestamp `T^x_level` (0 if never set).
    pub fn timestamp(&self, level: usize) -> u64 {
        self.timestamps.get(level).copied().unwrap_or(0)
    }

    /// Sets `T^x_level`.
    pub fn set_timestamp(&mut self, level: usize, value: u64) {
        if self.timestamps.len() <= level {
            self.timestamps.resize(level + 1, 0);
        }
        self.timestamps[level] = value;
    }

    /// Group-id `G^x_level`; defaults to the node's own key.
    pub fn group_id(&self, level: usize) -> u64 {
        self.group_ids
            .get(level)
            .copied()
            .unwrap_or_else(|| self.key.value())
    }

    /// Sets `G^x_level`.
    pub fn set_group_id(&mut self, level: usize, value: u64) {
        if self.group_ids.len() <= level {
            let key = self.key.value();
            self.group_ids.resize(level + 1, key);
        }
        self.group_ids[level] = value;
    }

    /// Is-dominating-group flag `D^x_level`.
    pub fn dominating(&self, level: usize) -> bool {
        self.dominating.get(level).copied().unwrap_or(false)
    }

    /// Sets `D^x_level`.
    pub fn set_dominating(&mut self, level: usize, value: bool) {
        if self.dominating.len() <= level {
            self.dominating.resize(level + 1, false);
        }
        self.dominating[level] = value;
    }

    /// The group-base `B^x`.
    pub fn group_base(&self) -> usize {
        self.group_base
    }

    /// Sets the group-base `B^x`.
    pub fn set_group_base(&mut self, value: usize) {
        self.group_base = value;
    }

    /// The number of levels with an explicitly stored group-id. Levels at or
    /// above this report the default (the node's own key), which no *other*
    /// node can match — the fact the unbounded common-group scan exploits.
    pub fn stored_group_levels(&self) -> usize {
        self.group_ids.len()
    }

    /// The number of levels for which any explicit state is stored (useful
    /// for memory accounting in tests).
    pub fn stored_levels(&self) -> usize {
        self.timestamps
            .len()
            .max(self.group_ids.len())
            .max(self.dominating.len())
    }

    /// Rebuilds a state verbatim from its raw stored vectors, the inverse
    /// of [`NodeState::raw_parts`]. Used by the persistence layer: the
    /// stored *lengths* are observable behaviour (the unbounded
    /// common-group scan reads [`NodeState::stored_group_levels`]), so a
    /// checkpoint must restore them exactly — including trailing entries
    /// that happen to hold the default value, which the sparse setters
    /// could not reproduce from reads alone.
    pub fn from_raw_parts(
        key: Key,
        group_base: usize,
        timestamps: Vec<u64>,
        group_ids: Vec<u64>,
        dominating: Vec<bool>,
    ) -> Self {
        NodeState {
            key,
            timestamps,
            group_ids,
            dominating,
            group_base,
        }
    }

    /// The raw stored vectors `(timestamps, group_ids, dominating)`,
    /// exactly as long as they have grown — the lossless serialization
    /// view consumed by the persistence layer.
    pub fn raw_parts(&self) -> (&[u64], &[u64], &[bool]) {
        (&self.timestamps, &self.group_ids, &self.dominating)
    }
}

/// A recorded sequence of state writes, produced by the *planning* half of
/// the transformation engine and applied to a [`StateTable`] afterwards
/// ([`StateTable::apply_delta`]).
///
/// The split exists for the plan stage of
/// [`DynamicSkipGraph::communicate_epoch`](crate::DynamicSkipGraph::communicate_epoch):
/// every admitted cluster is planned against a shared `&StateTable`, its
/// intended writes recorded here instead of mutating the table, before
/// the first mutation of the epoch — so a fault while planning leaves the
/// engine untouched. Entries are replayed in
/// recording order (last write wins), which reproduces the exact write
/// sequence — including writes that re-store a default value, since those
/// still grow [`NodeState::stored_group_levels`] and the unbounded
/// common-group scan observes that length.
#[derive(Debug, Clone, Default)]
pub struct StateDelta {
    group_ids: Vec<(NodeId, usize, u64)>,
    dominating: Vec<(NodeId, usize, bool)>,
}

impl StateDelta {
    /// Records a pending `set_group_id(node, level, value)`.
    pub fn push_group_id(&mut self, node: NodeId, level: usize, value: u64) {
        self.group_ids.push((node, level, value));
    }

    /// Records a pending `set_dominating(node, level, value)`.
    pub fn push_dominating(&mut self, node: NodeId, level: usize, value: bool) {
        self.dominating.push((node, level, value));
    }

    /// Returns `true` if no writes are recorded.
    pub fn is_empty(&self) -> bool {
        self.group_ids.is_empty() && self.dominating.is_empty()
    }

    /// Number of recorded writes.
    pub fn len(&self) -> usize {
        self.group_ids.len() + self.dominating.len()
    }

    /// Drops all recorded writes (capacity retained).
    pub fn clear(&mut self) {
        self.group_ids.clear();
        self.dominating.clear();
    }
}

/// The state of every node in the network, addressed by [`NodeId`].
///
/// Stored as a slab indexed by the node id's arena index: node ids are
/// small dense integers handed out by the skip graph arena, so every state
/// access — and the transformation engine performs Θ(n · height) of them
/// per request — is a direct vector index instead of a hash lookup.
#[derive(Debug, Clone, Default)]
pub struct StateTable {
    states: Vec<Option<NodeState>>,
    live: usize,
    /// Bumped by every call that may change an entry; see
    /// [`StateTable::generation`].
    generation: u64,
}

impl StateTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        StateTable::default()
    }

    /// Registers a node with its initial state.
    pub fn register(&mut self, id: NodeId, key: Key, initial_group_base: usize) {
        self.generation += 1;
        let index = id.raw() as usize;
        if self.states.len() <= index {
            self.states.resize_with(index + 1, || None);
        }
        if self.states[index].is_none() {
            self.live += 1;
        }
        self.states[index] = Some(NodeState::new(key, initial_group_base));
    }

    /// Registers a node with a fully materialized state (the persistence
    /// layer's restore path, where the state comes from a checkpoint
    /// instead of [`NodeState::new`] defaults).
    pub fn register_state(&mut self, id: NodeId, state: NodeState) {
        self.generation += 1;
        let index = id.raw() as usize;
        if self.states.len() <= index {
            self.states.resize_with(index + 1, || None);
        }
        if self.states[index].is_none() {
            self.live += 1;
        }
        self.states[index] = Some(state);
    }

    /// Removes a node's state (when the node leaves or a dummy is
    /// destroyed).
    pub fn unregister(&mut self, id: NodeId) {
        if let Some(slot) = self.states.get_mut(id.raw() as usize) {
            if slot.take().is_some() {
                self.live -= 1;
                self.generation += 1;
            }
        }
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// The table's generation: a counter that every call which may change
    /// an entry bumps — registration, removal, every setter and every
    /// [`get_mut`](StateTable::get_mut) — and that reads, an empty
    /// [`apply_delta`](StateTable::apply_delta) and the removal of an
    /// unregistered node leave alone. Two reads that see the same
    /// generation therefore saw the same entries.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Returns `true` if no node is registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Immutable access to a node's state.
    ///
    /// # Panics
    ///
    /// Panics if the node was never registered; this indicates a driver bug,
    /// not a user error.
    pub fn get(&self, id: NodeId) -> &NodeState {
        self.states
            .get(id.raw() as usize)
            .and_then(|slot| slot.as_ref())
            .unwrap_or_else(|| panic!("node {id} has no registered state"))
    }

    /// Mutable access to a node's state. Bumps the
    /// [generation](StateTable::generation): the caller may write through
    /// the reference.
    ///
    /// # Panics
    ///
    /// Panics if the node was never registered.
    pub fn get_mut(&mut self, id: NodeId) -> &mut NodeState {
        self.generation += 1;
        self.states
            .get_mut(id.raw() as usize)
            .and_then(|slot| slot.as_mut())
            .unwrap_or_else(|| panic!("node {id} has no registered state"))
    }

    /// Returns `true` if the node has registered state.
    pub fn contains(&self, id: NodeId) -> bool {
        self.states
            .get(id.raw() as usize)
            .is_some_and(|slot| slot.is_some())
    }

    /// Iterates over all `(id, state)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeState)> {
        self.states
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|st| (NodeId::from_raw(i as u32), st)))
    }

    // Convenience pass-throughs used heavily by the transformation engine.

    /// Timestamp `T^x_level` of node `id`.
    pub fn timestamp(&self, id: NodeId, level: usize) -> u64 {
        self.get(id).timestamp(level)
    }

    /// Sets `T^x_level` of node `id`.
    pub fn set_timestamp(&mut self, id: NodeId, level: usize, value: u64) {
        self.get_mut(id).set_timestamp(level, value);
    }

    /// Group-id `G^x_level` of node `id`.
    pub fn group_id(&self, id: NodeId, level: usize) -> u64 {
        self.get(id).group_id(level)
    }

    /// Sets `G^x_level` of node `id`.
    pub fn set_group_id(&mut self, id: NodeId, level: usize, value: u64) {
        self.get_mut(id).set_group_id(level, value);
    }

    /// Is-dominating flag `D^x_level` of node `id`.
    pub fn dominating(&self, id: NodeId, level: usize) -> bool {
        self.get(id).dominating(level)
    }

    /// Sets `D^x_level` of node `id`.
    pub fn set_dominating(&mut self, id: NodeId, level: usize, value: bool) {
        self.get_mut(id).set_dominating(level, value);
    }

    /// Group-base `B^x` of node `id`.
    pub fn group_base(&self, id: NodeId) -> usize {
        self.get(id).group_base()
    }

    /// Sets `B^x` of node `id`.
    pub fn set_group_base(&mut self, id: NodeId, value: usize) {
        self.get_mut(id).set_group_base(value);
    }

    /// Replays a recorded write sequence ([`StateDelta`]) in order. The
    /// resulting table is bit-for-bit the one the recording code would have
    /// produced mutating the table directly.
    pub fn apply_delta(&mut self, delta: &StateDelta) {
        for &(node, level, value) in &delta.group_ids {
            self.set_group_id(node, level, value);
        }
        for &(node, level, value) in &delta.dominating {
            self.set_dominating(node, level, value);
        }
    }

    /// The highest level `c` such that nodes `x` and `y` hold the same
    /// group-id at `c` (used by priority rule P2), searching from
    /// `max_level` downward. Returns `None` if they share no group at any
    /// level `0..=max_level`.
    pub fn highest_common_group_level(
        &self,
        x: NodeId,
        y: NodeId,
        max_level: usize,
    ) -> Option<usize> {
        (0..=max_level)
            .rev()
            .find(|&level| self.group_id(x, level) == self.group_id(y, level))
    }

    /// [`StateTable::highest_common_group_level`] without a caller-supplied
    /// bound: the scan starts at the highest level either node stores an
    /// explicit group-id for. Above that level both nodes report their own
    /// (distinct) keys, so no match is possible — which makes the result
    /// independent of the structure height at call time. The batched
    /// request pipeline relies on this: priorities computed before a
    /// deferred install must equal the ones a sequential request sequence
    /// would compute after it.
    pub fn highest_common_group_level_unbounded(&self, x: NodeId, y: NodeId) -> Option<usize> {
        let (x, y) = (self.get(x), self.get(y));
        let top = x.stored_group_levels().max(y.stored_group_levels());
        (0..top)
            .rev()
            .find(|&level| x.group_id(level) == y.group_id(level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u32) -> NodeId {
        NodeId::from_raw(raw)
    }

    #[test]
    fn defaults_match_the_paper() {
        let st = NodeState::new(Key::new(21), 3);
        assert_eq!(st.timestamp(0), 0);
        assert_eq!(st.timestamp(17), 0);
        assert_eq!(st.group_id(0), 21);
        assert_eq!(st.group_id(9), 21);
        assert!(!st.dominating(2));
        assert_eq!(st.group_base(), 3);
        assert_eq!(st.stored_levels(), 0);
    }

    #[test]
    fn setting_levels_grows_sparsely() {
        let mut st = NodeState::new(Key::new(5), 0);
        st.set_timestamp(4, 8);
        assert_eq!(st.timestamp(4), 8);
        assert_eq!(st.timestamp(3), 0);
        st.set_group_id(2, 77);
        assert_eq!(st.group_id(2), 77);
        // Levels below the one set default to the node's own key.
        assert_eq!(st.group_id(1), 5);
        st.set_dominating(1, true);
        assert!(st.dominating(1));
        assert!(!st.dominating(0));
        assert_eq!(st.stored_levels(), 5);
    }

    #[test]
    fn table_round_trips_state() {
        let mut table = StateTable::new();
        table.register(id(0), Key::new(10), 2);
        table.register(id(1), Key::new(20), 1);
        assert_eq!(table.len(), 2);
        table.set_timestamp(id(0), 3, 99);
        assert_eq!(table.timestamp(id(0), 3), 99);
        assert_eq!(table.group_id(id(1), 5), 20);
        table.set_group_id(id(1), 0, 10);
        assert_eq!(table.group_id(id(1), 0), 10);
        table.unregister(id(0));
        assert!(!table.contains(id(0)));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn highest_common_group_level_scans_downward() {
        let mut table = StateTable::new();
        table.register(id(0), Key::new(1), 0);
        table.register(id(1), Key::new(2), 0);
        // Different keys: no common group anywhere by default.
        assert_eq!(table.highest_common_group_level(id(0), id(1), 4), None);
        // Make them share a group at levels 0 and 2.
        table.set_group_id(id(0), 0, 7);
        table.set_group_id(id(1), 0, 7);
        table.set_group_id(id(0), 2, 7);
        table.set_group_id(id(1), 2, 7);
        assert_eq!(table.highest_common_group_level(id(0), id(1), 4), Some(2));
        assert_eq!(table.highest_common_group_level(id(0), id(1), 1), Some(0));
    }

    #[test]
    fn raw_parts_round_trip_preserves_stored_lengths() {
        let mut st = NodeState::new(Key::new(5), 2);
        st.set_timestamp(4, 8);
        st.set_group_id(2, 77);
        // A write that re-stores the default still grows the stored
        // length — observable via stored_group_levels — and must survive
        // the round trip.
        st.set_group_id(3, 5);
        st.set_dominating(1, true);
        let (ts, gs, ds) = st.raw_parts();
        let rebuilt = NodeState::from_raw_parts(
            st.key(),
            st.group_base(),
            ts.to_vec(),
            gs.to_vec(),
            ds.to_vec(),
        );
        assert_eq!(rebuilt, st);
        assert_eq!(rebuilt.stored_group_levels(), 4);

        let mut table = StateTable::new();
        table.register_state(id(3), rebuilt);
        assert_eq!(table.len(), 1);
        assert_eq!(table.get(id(3)), &st);
        // Re-registering the same slot must not double-count.
        table.register_state(id(3), st.clone());
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn generation_moves_on_writes_and_not_on_reads() {
        let mut table = StateTable::new();
        let mut last = table.generation();
        let mut moved = |table: &StateTable, expected: bool, what: &str| {
            assert_eq!(table.generation() != last, expected, "{what}");
            last = table.generation();
        };
        table.register(id(0), Key::new(10), 2);
        moved(&table, true, "register");
        table.register_state(id(1), NodeState::new(Key::new(20), 1));
        moved(&table, true, "register_state");
        let _ = (table.get(id(0)), table.group_id(id(1), 3), table.len());
        moved(&table, false, "reads");
        table.apply_delta(&StateDelta::default());
        moved(&table, false, "an empty delta");
        table.unregister(id(7));
        moved(&table, false, "unregistering an unknown node");
        let mut delta = StateDelta::default();
        delta.push_dominating(id(0), 1, true);
        table.apply_delta(&delta);
        moved(&table, true, "a delta");
        table.set_timestamp(id(1), 0, 5);
        moved(&table, true, "a setter");
        let _ = table.get_mut(id(0));
        moved(&table, true, "handing out a mutable reference");
        table.unregister(id(1));
        moved(&table, true, "unregister");
    }

    #[test]
    #[should_panic(expected = "no registered state")]
    fn unknown_nodes_panic() {
        let table = StateTable::new();
        let _ = table.get(id(9));
    }
}
