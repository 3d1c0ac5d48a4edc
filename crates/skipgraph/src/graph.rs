//! The skip graph structure, stored as an intrusive linked-list arena.
//!
//! Skip graph nodes are, semantically, members of one doubly linked list
//! per level (Aspnes & Shah, SODA'03). This module materialises exactly
//! that: nodes live in an arena addressed by [`NodeId`], and each arena
//! slot carries an inline vector of per-level `{prev, next, list}` link
//! records. Neighbour queries ([`SkipGraph::neighbors`]) are therefore two
//! pointer reads — no hashing, no tree walk, no allocation — and every
//! list keeps a cached head, tail and length, so
//! [`SkipGraph::list_size`] is O(1) as well.
//!
//! A per-level `Prefix → list` index is kept *only* for enumeration and
//! construction (finding the list a joining node belongs to); the hot
//! paths — routing hops, balance sweeps, list scans — never touch it.
//! List members are walked with the borrowing iterators
//! ([`SkipGraph::list_iter`], [`SkipGraph::list_of_iter`],
//! [`SkipGraph::lists_at_level_iter`]), which allocate nothing; the
//! `Vec`-returning queries remain as conveniences for tests and one-shot
//! tooling.
//!
//! This "central store, distributed semantics" representation is the
//! idiomatic Rust answer to overlay pointers: algorithm code manipulates
//! ids, never references, and the distributed cost of each operation is
//! accounted separately by the callers (see the `dsg` crate). A naive
//! index-based twin of this structure lives in [`crate::reference`] and is
//! used for differential testing and for benchmarking the arena's speedup.
//!
//! ## Differential membership installs
//!
//! The self-adjusting layer moves nodes between subgraphs by rewriting
//! membership-vector suffixes. The per-node primitive
//! ([`SkipGraph::set_membership_suffix`]) re-splices the node at *every*
//! level; [`SkipGraph::apply_membership_batch`] is its differential, batched
//! twin: each update names the first level at which the node's vector
//! actually changes ([`MembershipUpdate::from_level`]), the node's links
//! below that level are left untouched, and the changed `(node, level)`
//! pairs are grouped by target list so that every affected list is rebuilt
//! in a single ordered splice pass. Untouched list segments — including
//! entire lists whose membership did not change — are reused in place,
//! which also means they keep serving reads (neighbour queries, group-id
//! scans) with no rebuild cost. The batch additionally reports the
//! *affected lists* (see
//! [`SkipGraph::apply_membership_batch_collecting`]), which is what lets
//! the balance repair above this layer re-check only the lists whose run
//! structure could have changed.
//!
//! ## Bulk construction
//!
//! Keys and membership vectors alone fix a skip graph, so a graph whose
//! nodes arrive in ascending key order (a snapshot's node section, a
//! balanced start) is built in one pass by [`SkipGraph::from_sorted`]: each
//! node is appended at the tail of every list it joins, and each level's
//! list is found from the list below through a per-list table of its two
//! child lists instead of the prefix index. The result is the graph that
//! inserting the same nodes one by one in key order builds, slot for slot.
//! An insert of a key above every present key finds its predecessor at
//! every level at that list's tail (the join walk and the head scan both
//! stop at the last smaller key), allocates node ids and list ids in the
//! same order, and bumps the same counters; `from_sorted` does exactly
//! those steps without the searches, and sizes the arena up front to the
//! capacity the pushes would reach. The unit tests compare the two builds
//! field for field, the arena and its capacity, the list records, the
//! prefix index and the key index included.
//!
//! Everything else is allocated in the order the inserts allocate it, the
//! ordered half of the key index included. Bulk-loading that `BTreeMap`
//! from the sorted keys built it faster (0.3–0.5 ms less per reopen of a
//! 2,000-node snapshot on 2 vCPUs), but a cold-durable service started
//! from it served at a median latency about 0.7 µs higher, in three sets
//! of interleaved perfbench runs, though no routed request reads that
//! map; why is not known.

use std::collections::{BTreeMap, HashMap};

use rand::{Rng, RngExt};

use crate::error::SkipGraphError;
use crate::fasthash::{FastHashState, KeyHashState};
use crate::ids::{Key, NodeId};
use crate::mvec::{Bit, MembershipVector, Prefix};
use crate::smallvec::SmallVec;
use crate::Result;

/// A single node of the skip graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeEntry {
    key: Key,
    mvec: MembershipVector,
    dummy: bool,
}

impl NodeEntry {
    /// The node's key (its position in every linked list).
    pub fn key(&self) -> Key {
        self.key
    }

    /// The node's membership vector.
    pub fn mvec(&self) -> &MembershipVector {
        &self.mvec
    }

    /// Whether the node is a *dummy* node: a logical routing-only node
    /// inserted to protect the a-balance property (paper §IV-F).
    pub fn is_dummy(&self) -> bool {
        self.dummy
    }
}

/// Index of a [`ListMeta`] record in the list arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ListId(u32);

impl ListId {
    const NONE: ListId = ListId(u32::MAX);

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl Default for ListId {
    fn default() -> Self {
        ListId::NONE
    }
}

/// One entry of a differential membership-vector batch
/// ([`SkipGraph::apply_membership_batch`]): the node, the complete new
/// vector, and the first level at which the new vector differs from the
/// current one (every bit below `from_level` is unchanged, so the node's
/// lists below that level are not touched by the install).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipUpdate {
    /// The node whose vector changes.
    pub node: NodeId,
    /// The first level (1-indexed bit position) whose bit — or existence —
    /// differs between the old and new vector.
    pub from_level: usize,
    /// The complete new membership vector.
    pub new_mvec: MembershipVector,
}

/// Reusable workspace of [`SkipGraph::apply_membership_batch`]: the changed
/// `(node, level)` pairs grouped by target list, plus recycled allocations
/// so that a warm batch install allocates nothing.
#[derive(Debug, Clone, Default)]
struct BatchScratch {
    /// `(level, new prefix)` → incoming nodes for that list.
    groups: HashMap<(usize, Prefix), Vec<NodeId>, FastHashState>,
    /// Recycled group member vectors.
    spare: Vec<Vec<NodeId>>,
    /// Sorted group keys, so the splice order is deterministic.
    order: Vec<(usize, Prefix)>,
}

/// The running state of one list during [`SkipGraph::from_sorted`]: the
/// lists its 0- and 1-members continue in one level up (the lookup the
/// prefix index serves for a join), its tail so far, and the counts its
/// list record receives once every node is linked.
#[derive(Debug, Clone, Copy)]
struct BulkList {
    children: [ListId; 2],
    tail: NodeId,
    len: u32,
    dummies: u32,
    stoppers: u32,
}

/// The intrusive per-level link record of one node: its left and right
/// neighbours in the list it belongs to at that level, plus the list
/// itself (so membership tests and size queries are O(1)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LevelLink {
    prev: Option<NodeId>,
    next: Option<NodeId>,
    list: ListId,
}

/// Number of link records stored inline in each arena slot. Structure
/// height is `O(log n)`, so levels beyond this only occur in graphs of
/// thousands of nodes and spill to the heap transparently.
const INLINE_LEVELS: usize = 6;

type LinkVec = SmallVec<LevelLink, INLINE_LEVELS>;

#[derive(Debug, Clone, Default)]
struct Slot {
    entry: Option<NodeEntry>,
    links: LinkVec,
}

/// Cached descriptor of one linked list: its identity plus head, tail and
/// length, maintained incrementally by every splice.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ListMeta {
    prefix: Prefix,
    level: usize,
    head: NodeId,
    tail: NodeId,
    len: usize,
    /// Last batch-install epoch that touched this list (0 = never). Used to
    /// deduplicate the affected-list collection without hashing.
    stamp: u64,
    /// Members whose membership vector *ends* at this list's level (their
    /// topmost list is this one). The randomised join must lazily extend
    /// exactly these members when it descends through the list; counting
    /// them lets the common case (zero stoppers) skip the member scan
    /// entirely, keeping bulk construction near-linear.
    stoppers: usize,
    /// Dummy members of the list. The reconciliation's fused
    /// collect + detect walk skips dummy-free lists without touching a
    /// single member.
    dummies: usize,
}

/// The key → node index of the graph: an exact-lookup fasthash map paired
/// with an ordered `BTreeMap` over the same `(key, id)` entries.
///
/// The hash half exists for the *dummy repair* hot path:
/// `free_key_between` (in the `dsg` crate) resolves every dummy key by
/// probing candidate keys for occupancy, and under uniform traffic most
/// split decisions are rewritten each request, so thousands of dummies
/// churn per request at large n — an O(1) hash probe with no tree walk
/// measured 7–12× cheaper than a `BTreeMap` probe at n = 256–4096. The
/// ordered half serves predecessor/successor queries and ascending
/// iteration. A sorted `Vec` was measured for the
/// ordered half first and rejected: at ~10k dummy inserts/removals per
/// request (n = 4096) the O(n) tail `memmove` per mutation cost more than
/// the probe win saved.
#[derive(Debug, Clone, Default)]
struct KeyIndex {
    /// Ordered view: predecessor/successor and ascending iteration.
    tree: BTreeMap<Key, NodeId>,
    /// Exact-lookup index over the same pairs (the occupancy-probe path).
    /// Keyed with the *finalised* hasher: node keys share the `2^20`
    /// `KEY_SPACING` stride, which the plain FxHash maps into one bucket
    /// chain (see [`KeyHashState`]).
    map: HashMap<Key, NodeId, KeyHashState>,
}

impl KeyIndex {
    fn len(&self) -> usize {
        self.map.len()
    }

    fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn contains(&self, key: Key) -> bool {
        self.map.contains_key(&key)
    }

    fn get(&self, key: Key) -> Option<NodeId> {
        self.map.get(&key).copied()
    }

    fn insert(&mut self, key: Key, id: NodeId) {
        self.map.insert(key, id);
        self.tree.insert(key, id);
    }

    fn remove(&mut self, key: Key) {
        if self.map.remove(&key).is_some() {
            let removed = self.tree.remove(&key);
            debug_assert!(removed.is_some());
        }
    }

    /// The entry with the largest key strictly below `key`.
    fn predecessor(&self, key: Key) -> Option<NodeId> {
        self.tree.range(..key).next_back().map(|(_, &id)| id)
    }

    /// The entry with the smallest key strictly above `key`.
    fn successor(&self, key: Key) -> Option<NodeId> {
        self.tree
            .range((std::ops::Bound::Excluded(key), std::ops::Bound::Unbounded))
            .next()
            .map(|(_, &id)| id)
    }

    /// All `(key, id)` entries in ascending key order.
    fn iter(&self) -> impl Iterator<Item = (Key, NodeId)> + '_ {
        self.tree.iter().map(|(&key, &id)| (key, id))
    }
}

/// A skip graph: the family-`S` data structure of the paper.
///
/// See the [crate-level documentation](crate) for an overview and an
/// example, and the [module documentation](self) for the representation.
#[derive(Debug, Clone, Default)]
pub struct SkipGraph {
    arena: Vec<Slot>,
    free: Vec<u32>,
    by_key: KeyIndex,
    /// List arena; `None` slots are free (ids recycled via `free_lists`).
    lists: Vec<Option<ListMeta>>,
    free_lists: Vec<u32>,
    /// `levels[d]` maps each length-`d` prefix to the list of nodes whose
    /// membership vector starts with that prefix. Used for enumeration and
    /// for locating the target list during construction only. Keyed with
    /// the crate's fast hasher: these maps sit on the link/install path of
    /// every level of every node.
    levels: Vec<HashMap<Prefix, ListId, FastHashState>>,
    /// `multi[d]` counts the lists at level `d` with two or more members,
    /// making [`SkipGraph::height`] a left-to-right scan of a small array.
    multi: Vec<usize>,
    /// Live dummy-node count, maintained on insert/remove so
    /// [`SkipGraph::dummy_count`] is O(1).
    dummies: usize,
    /// Reusable workspace of [`SkipGraph::apply_membership_batch`].
    batch: BatchScratch,
    /// Monotone counter identifying the current batch install, for the
    /// `stamp` based affected-list deduplication.
    batch_epoch: u64,
    /// Bumped by every call that changes a node, a link or a membership
    /// vector; see [`SkipGraph::generation`].
    generation: u64,
}

impl SkipGraph {
    /// Creates an empty skip graph.
    pub fn new() -> Self {
        SkipGraph::default()
    }

    /// Builds a skip graph from an explicit set of `(key, membership
    /// vector)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::DuplicateKey`] if two members share a key.
    pub fn from_members<I>(members: I) -> Result<Self>
    where
        I: IntoIterator<Item = (Key, MembershipVector)>,
    {
        let mut graph = SkipGraph::new();
        for (key, mvec) in members {
            graph.insert(key, mvec)?;
        }
        Ok(graph)
    }

    /// Builds a skip graph over `keys` with uniformly random membership
    /// vectors, extending every node's vector until it is singleton — the
    /// standard randomised skip graph construction.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::DuplicateKey`] if `keys` contains
    /// duplicates.
    pub fn random<I, R>(keys: I, rng: &mut R) -> Result<Self>
    where
        I: IntoIterator<Item = Key>,
        R: Rng + ?Sized,
    {
        let mut graph = SkipGraph::new();
        for key in keys {
            graph.insert_random(key, rng)?;
        }
        Ok(graph)
    }

    /// Builds a skip graph from `(key, membership vector, dummy)` nodes
    /// given in strictly ascending key order, in one pass: each node is
    /// appended at the tail of every list it joins (see the [module
    /// documentation](self#bulk-construction)).
    ///
    /// The result equals, slot for slot, the graph that inserting the nodes
    /// one by one in the given order with [`SkipGraph::insert`] and
    /// [`SkipGraph::insert_dummy`] builds: the `i`-th node gets
    /// `NodeId` `i`, and the list ids, counters and
    /// [`generation`](SkipGraph::generation) are those of the inserts.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::DuplicateKey`] for a key equal to the one
    /// before it and [`SkipGraphError::KeyOutOfOrder`] for a smaller one.
    pub fn from_sorted<I>(nodes: I) -> Result<Self>
    where
        I: IntoIterator<Item = (Key, MembershipVector, bool)>,
    {
        let nodes = nodes.into_iter();
        let mut graph = SkipGraph::new();
        // One push at a time doubles the arena from 4 slots, so it ends at
        // the power of two that holds every node. Reserving that capacity
        // up front builds the same arena without copying it at each
        // doubling, and a later join regrows it exactly when it would
        // after the inserts.
        let (count, _) = nodes.size_hint();
        if count > 0 {
            graph.arena.reserve_exact(count.next_power_of_two().max(4));
        }
        let mut root = ListId::NONE;
        // Per list, by list id (no list is freed during the build, so the
        // ids are dense): the running state the list records receive once
        // every node is linked.
        let mut lists: Vec<BulkList> = Vec::new();
        let mut previous: Option<Key> = None;
        for (key, mvec, dummy) in nodes {
            match previous {
                Some(prev) if key == prev => return Err(SkipGraphError::DuplicateKey(key)),
                Some(prev) if key < prev => {
                    return Err(SkipGraphError::KeyOutOfOrder {
                        previous: prev,
                        key,
                    })
                }
                _ => previous = Some(key),
            }
            graph.generation += 1;
            let id = graph.alloc_node(NodeEntry { key, mvec, dummy });
            let top = mvec.len();
            let mut list = ListId::NONE;
            for level in 0..=top {
                let below = list;
                let bit = usize::from(mvec.bit(level) == Some(Bit::One));
                let existing = match level {
                    0 => root,
                    _ => lists[below.index()].children[bit],
                };
                let stops = u32::from(level == top);
                list = if existing == ListId::NONE {
                    let lid = graph.open_list(id, level, mvec.prefix(level), level == top, dummy);
                    lists.push(BulkList {
                        children: [ListId::NONE; 2],
                        tail: id,
                        len: 1,
                        dummies: u32::from(dummy),
                        stoppers: stops,
                    });
                    match level {
                        0 => root = lid,
                        _ => lists[below.index()].children[bit] = lid,
                    }
                    lid
                } else {
                    let state = &mut lists[existing.index()];
                    let tail = std::mem::replace(&mut state.tail, id);
                    state.len += 1;
                    state.dummies += u32::from(dummy);
                    state.stoppers += stops;
                    graph.arena[tail.index()]
                        .links
                        .get_mut(level)
                        .expect("a list's tail is linked at its level")
                        .next = Some(id);
                    graph.arena[id.index()].links.push(LevelLink {
                        prev: Some(tail),
                        next: None,
                        list: existing,
                    });
                    existing
                };
            }
        }
        for (meta, state) in graph.lists.iter_mut().zip(&lists) {
            let meta = meta.as_mut().expect("no list is freed during the build");
            meta.tail = state.tail;
            meta.len = state.len as usize;
            meta.dummies = state.dummies as usize;
            meta.stoppers = state.stoppers as usize;
            if state.len >= 2 {
                graph.multi[meta.level] += 1;
            }
        }
        Ok(graph)
    }

    /// Builds the balanced skip graph over `keys`, given in strictly
    /// ascending order: the node of rank `r` among `n` gets `⌈log₂ n⌉`
    /// membership bits, bit `i - 1` of `r` at level `i`. Every list at
    /// every level splits exactly in half, which gives the minimum height
    /// and satisfies the a-balance property for every `a ≥ 1`. Built by
    /// [`SkipGraph::from_sorted`].
    ///
    /// # Errors
    ///
    /// As [`SkipGraph::from_sorted`], for a repeated or descending key.
    pub fn balanced<I>(keys: I) -> Result<Self>
    where
        I: IntoIterator<Item = Key>,
        I::IntoIter: ExactSizeIterator,
    {
        let keys = keys.into_iter();
        let height = keys.len().next_power_of_two().trailing_zeros() as usize;
        SkipGraph::from_sorted(keys.enumerate().map(|(rank, key)| {
            let bits = (0..height).map(|level| Bit::from_u8(((rank >> level) & 1) as u8));
            let mvec = MembershipVector::from_bits(bits).expect("a rank has at most 64 bits");
            (key, mvec, false)
        }))
    }

    // ------------------------------------------------------------------
    // Insertion / removal
    // ------------------------------------------------------------------

    /// Inserts a node with an explicit membership vector.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::DuplicateKey`] if a node with `key` already
    /// exists.
    pub fn insert(&mut self, key: Key, mvec: MembershipVector) -> Result<NodeId> {
        self.insert_inner(key, mvec, false)
    }

    /// Inserts a *dummy* node (a routing-only placeholder used to repair the
    /// a-balance property, paper §IV-F).
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::DuplicateKey`] if a node with `key` already
    /// exists.
    pub fn insert_dummy(&mut self, key: Key, mvec: MembershipVector) -> Result<NodeId> {
        self.insert_inner(key, mvec, true)
    }

    /// Inserts a node choosing membership-vector bits uniformly at random
    /// until the node is the only member of its top-level list — the
    /// standard skip graph join.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::DuplicateKey`] if a node with `key` already
    /// exists.
    pub fn insert_random<R>(&mut self, key: Key, rng: &mut R) -> Result<NodeId>
    where
        R: Rng + ?Sized,
    {
        if self.by_key.contains(key) {
            return Err(SkipGraphError::DuplicateKey(key));
        }
        // Walk down: starting from the root list, keep choosing random bits
        // while the list joined at the current level is non-empty.
        // Membership vectors are conceptually infinite strings of random
        // bits; as in the standard join protocol, any existing member of a
        // list the new node passes through that has not yet materialised its
        // bit for the next level draws one now (otherwise two nodes could
        // stay together in a large list forever, destroying the O(log n)
        // routing guarantee).
        let mut mvec = MembershipVector::empty();
        let mut prefix = Prefix::root();
        let mut needs_extension: Vec<NodeId> = Vec::new();
        loop {
            let level = prefix.level();
            let lid = match self.levels.get(level).and_then(|m| m.get(&prefix)) {
                Some(&lid) => lid,
                None => break,
            };
            // Lazily extend the existing members that stop at this level.
            // The list's stopper count says how many there are; in the
            // common case (zero) the member scan is skipped entirely, so
            // a bulk construction does O(height + extensions) work per
            // insert instead of copying whole lists.
            if self.list_meta(lid).stoppers > 0 {
                needs_extension.clear();
                needs_extension.extend(self.list_id_iter(lid).filter(|&id| {
                    self.entry(id).expect("list member is live").mvec.len() < level + 1
                }));
                // Every member of a level-`level` list has a vector of at
                // least `level` bits, so a stopper's length is exactly
                // `level` and the new bit goes at `level + 1`.
                for &id in &needs_extension {
                    let bit: Bit = rng.random_bool(0.5).into();
                    self.set_membership_suffix(id, level + 1, [bit])?;
                }
            }
            let bit: Bit = rng.random_bool(0.5).into();
            mvec.push(bit)?;
            prefix = prefix.child(bit);
        }
        self.insert_inner(key, mvec, false)
    }

    fn insert_inner(&mut self, key: Key, mvec: MembershipVector, dummy: bool) -> Result<NodeId> {
        if self.by_key.contains(key) {
            return Err(SkipGraphError::DuplicateKey(key));
        }
        self.generation += 1;
        let id = self.alloc_node(NodeEntry { key, mvec, dummy });
        self.link_node(id);
        Ok(id)
    }

    /// Allocates an arena slot for `entry` (reusing freed ids), registers
    /// the key, and bumps the dummy count — without linking the node into
    /// any list. Every caller must link the node before returning control.
    fn alloc_node(&mut self, entry: NodeEntry) -> NodeId {
        let key = entry.key;
        let dummy = entry.dummy;
        let id = match self.free.pop() {
            Some(raw) => {
                let id = NodeId(raw);
                self.arena[id.index()].entry = Some(entry);
                id
            }
            None => {
                let id = NodeId(self.arena.len() as u32);
                self.arena.push(Slot {
                    entry: Some(entry),
                    links: LinkVec::default(),
                });
                id
            }
        };
        self.by_key.insert(key, id);
        if dummy {
            self.dummies += 1;
        }
        id
    }

    /// Removes the node with the given key, returning its entry.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownKey`] if no such node exists.
    pub fn remove_key(&mut self, key: Key) -> Result<NodeEntry> {
        let id = self
            .by_key
            .get(key)
            .ok_or(SkipGraphError::UnknownKey(key))?;
        self.remove(id)
    }

    /// Removes a node by id, returning its entry.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownNode`] if the id is not live.
    pub fn remove(&mut self, id: NodeId) -> Result<NodeEntry> {
        let entry = self
            .arena
            .get(id.index())
            .and_then(|s| s.entry.clone())
            .ok_or(SkipGraphError::UnknownNode(id))?;
        self.generation += 1;
        self.unlink_node(id);
        self.by_key.remove(entry.key);
        if entry.dummy {
            self.dummies -= 1;
        }
        self.arena[id.index()].entry = None;
        self.free.push(id.raw());
        Ok(entry)
    }

    // ------------------------------------------------------------------
    // Link maintenance
    // ------------------------------------------------------------------

    /// Links a freshly inserted node into its list at every level
    /// `0..=len(mvec)`, bottom-up. The level-0 position comes from the key
    /// index; every higher-level position is found by walking left along
    /// the level below until a member of the target list is met — the
    /// standard join walk, O(1) steps in expectation per level for random
    /// membership vectors.
    fn link_node(&mut self, id: NodeId) {
        let (key, len, mvec, is_dummy) = {
            let entry = self.entry(id).expect("node just inserted");
            (entry.key, entry.mvec.len(), entry.mvec, entry.dummy)
        };
        debug_assert_eq!(self.arena[id.index()].links.len(), 0);
        for level in 0..=len {
            let prefix = mvec.prefix(level);
            match self.levels.get(level).and_then(|map| map.get(&prefix)).copied() {
                None => {
                    self.open_list(id, level, prefix, level == len, is_dummy);
                }
                Some(lid) => {
                    let pred = self.link_predecessor(id, key, level, lid);
                    self.splice_in(id, level, lid, pred);
                    if level == len {
                        self.list_meta_mut(lid).stoppers += 1;
                    }
                }
            }
        }
    }

    /// Opens the list `(level, prefix)` with `id` as its only member,
    /// registers it in the prefix index (growing the per-level tables to
    /// `level`) and appends `id`'s link record for it. `stops` says whether
    /// `level` is the top of `id`'s vector.
    fn open_list(
        &mut self,
        id: NodeId,
        level: usize,
        prefix: Prefix,
        stops: bool,
        dummy: bool,
    ) -> ListId {
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, HashMap::default);
            self.multi.resize(level + 1, 0);
        }
        let lid = self.alloc_list(ListMeta {
            prefix,
            level,
            head: id,
            tail: id,
            len: 1,
            stamp: 0,
            stoppers: usize::from(stops),
            dummies: usize::from(dummy),
        });
        self.levels[level].insert(prefix, lid);
        self.arena[id.index()].links.push(LevelLink {
            prev: None,
            next: None,
            list: lid,
        });
        lid
    }

    /// Finds the node after which `id` must be spliced into list `lid` at
    /// `level` (`None` = `id` becomes the new head).
    ///
    /// The primary strategy walks left along the level below until a member
    /// of the target list is met — O(1) steps in expectation for random
    /// membership vectors, because an expected constant fraction of the
    /// level-below list belongs to the target list. For adversarial vector
    /// layouts the gap can be as long as the whole level-below list, so the
    /// walk is capped at the target list's length: past that point a head
    /// scan of the target list (which costs exactly that much) is never
    /// slower, making the join O(target list size) in the worst case.
    fn link_predecessor(
        &self,
        id: NodeId,
        key: Key,
        level: usize,
        lid: ListId,
    ) -> Option<NodeId> {
        if level == 0 {
            return self.predecessor_by_key(key);
        }
        // Walk left along the level below. List refinement guarantees every
        // member of the target list appears there, in the same key order.
        let mut budget = self.list_meta(lid).len;
        let mut cursor = self.arena[id.index()]
            .links
            .get(level - 1)
            .and_then(|l| l.prev);
        while let Some(candidate) = cursor {
            let links = &self.arena[candidate.index()].links;
            if links.get(level).map(|l| l.list) == Some(lid) {
                return Some(candidate);
            }
            if budget == 0 {
                // Pathological layout: fall back to scanning the target list
                // from its head for the last member with a smaller key.
                return self.predecessor_by_head_scan(key, lid);
            }
            budget -= 1;
            cursor = links.get(level - 1).and_then(|l| l.prev);
        }
        None
    }

    /// Predecessor of `key` in list `lid` found by scanning from the list
    /// head — the O(list size) fallback for adversarial layouts.
    fn predecessor_by_head_scan(&self, key: Key, lid: ListId) -> Option<NodeId> {
        let meta = self.list_meta(lid);
        let level = meta.level;
        let mut pred = None;
        let mut cursor = Some(meta.head);
        while let Some(member) = cursor {
            let member_key = self.arena[member.index()]
                .entry
                .as_ref()
                .expect("list member is live")
                .key;
            if member_key >= key {
                break;
            }
            pred = Some(member);
            cursor = self.arena[member.index()]
                .links
                .get(level)
                .and_then(|l| l.next);
        }
        pred
    }

    /// Splices `id` into list `lid` at `level`, after `pred` (or at the
    /// head), appending the level's link record to `id`'s slot.
    fn splice_in(&mut self, id: NodeId, level: usize, lid: ListId, pred: Option<NodeId>) {
        let link = match pred {
            Some(p) => {
                let next = self.arena[p.index()]
                    .links
                    .get(level)
                    .expect("predecessor is linked at this level")
                    .next;
                self.arena[p.index()]
                    .links
                    .get_mut(level)
                    .expect("predecessor is linked at this level")
                    .next = Some(id);
                match next {
                    Some(n) => {
                        self.arena[n.index()]
                            .links
                            .get_mut(level)
                            .expect("successor is linked at this level")
                            .prev = Some(id);
                    }
                    None => {
                        self.list_meta_mut(lid).tail = id;
                    }
                }
                LevelLink {
                    prev: Some(p),
                    next,
                    list: lid,
                }
            }
            None => {
                let old_head = self.list_meta(lid).head;
                self.arena[old_head.index()]
                    .links
                    .get_mut(level)
                    .expect("head is linked at this level")
                    .prev = Some(id);
                self.list_meta_mut(lid).head = id;
                LevelLink {
                    prev: None,
                    next: Some(old_head),
                    list: lid,
                }
            }
        };
        debug_assert_eq!(self.arena[id.index()].links.len(), level);
        self.arena[id.index()].links.push(link);
        let is_dummy = self.arena[id.index()]
            .entry
            .as_ref()
            .expect("spliced node is live")
            .dummy;
        let meta = self.list_meta_mut(lid);
        meta.len += 1;
        meta.dummies += usize::from(is_dummy);
        if meta.len == 2 {
            self.multi[level] += 1;
        }
    }

    /// Splices a node out of every list it is linked into, destroying
    /// lists that become empty.
    fn unlink_node(&mut self, id: NodeId) {
        let level_count = self.arena[id.index()].links.len();
        for level in 0..level_count {
            self.unlink_level(id, level, level == level_count - 1);
        }
        self.arena[id.index()].links.clear();
        self.pop_empty_top_levels();
    }

    /// Splices `id` out of the single list it belongs to at `level`,
    /// destroying the list if it becomes empty. `stops_here` says whether
    /// this list is the node's topmost one (its stopper count must drop).
    /// The node's link record at `level` is left stale; the caller clears or
    /// truncates the link vector afterwards.
    fn unlink_level(&mut self, id: NodeId, level: usize, stops_here: bool) {
        let link = *self.arena[id.index()]
            .links
            .get(level)
            .expect("level within link count");
        let is_dummy = self.arena[id.index()]
            .entry
            .as_ref()
            .expect("unlinked node is live")
            .dummy;
        if let Some(p) = link.prev {
            self.arena[p.index()]
                .links
                .get_mut(level)
                .expect("neighbour is linked at this level")
                .next = link.next;
        }
        if let Some(n) = link.next {
            self.arena[n.index()]
                .links
                .get_mut(level)
                .expect("neighbour is linked at this level")
                .prev = link.prev;
        }
        let meta = self.list_meta_mut(link.list);
        if stops_here {
            meta.stoppers -= 1;
        }
        meta.len -= 1;
        meta.dummies -= usize::from(is_dummy);
        let emptied = meta.len == 0;
        if meta.len == 1 {
            self.multi[level] -= 1;
        }
        if emptied {
            let prefix = self.list_meta(link.list).prefix;
            self.levels[level].remove(&prefix);
            self.free_list(link.list);
        } else {
            let meta = self.list_meta_mut(link.list);
            if meta.head == id {
                meta.head = link.next.expect("non-empty list has a successor");
            }
            if meta.tail == id {
                meta.tail = link.prev.expect("non-empty list has a predecessor");
            }
        }
    }

    /// Drops trailing levels whose prefix index became empty.
    fn pop_empty_top_levels(&mut self) {
        while matches!(self.levels.last(), Some(m) if m.is_empty()) {
            self.levels.pop();
            self.multi.pop();
        }
    }

    fn alloc_list(&mut self, meta: ListMeta) -> ListId {
        match self.free_lists.pop() {
            Some(raw) => {
                let lid = ListId(raw);
                self.lists[lid.index()] = Some(meta);
                lid
            }
            None => {
                let lid = ListId(self.lists.len() as u32);
                self.lists.push(Some(meta));
                lid
            }
        }
    }

    fn free_list(&mut self, lid: ListId) {
        self.lists[lid.index()] = None;
        self.free_lists.push(lid.0);
    }

    fn list_meta(&self, lid: ListId) -> &ListMeta {
        self.lists[lid.index()].as_ref().expect("list id is live")
    }

    fn list_meta_mut(&mut self, lid: ListId) -> &mut ListMeta {
        self.lists[lid.index()].as_mut().expect("list id is live")
    }

    /// Replaces the membership-vector bits of `id` from `from_level` upward
    /// with `new_bits`, keeping levels `1..from_level` unchanged, and
    /// relinks the node in every list. This is the primitive the
    /// self-adjusting algorithm uses to "move" a node between subgraphs.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownNode`] for a dead id and
    /// [`SkipGraphError::HeightLimitExceeded`] if the resulting vector would
    /// be too long.
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
        self.generation += 1;
        self.unlink_node(id);
        let result = {
            let entry = self.arena[id.index()]
                .entry
                .as_mut()
                .expect("checked live above");
            entry.mvec.replace_suffix(from_level, new_bits)
        };
        // Re-link regardless of whether the suffix replacement failed so
        // that the node is never left out of the lists.
        self.link_node(id);
        result
    }

    /// Applies a batch of membership-vector updates, rebuilding only the
    /// lists that actually change and relinking each affected list in one
    /// ordered splice pass.
    ///
    /// This is the differential twin of calling
    /// [`SkipGraph::set_membership_suffix`] once per node. The per-node
    /// primitive unlinks the node from *every* level and relinks it with a
    /// predecessor walk per level — Θ(vector length) splices and walks per
    /// node even when most bits are unchanged. The batch installer instead:
    ///
    /// 1. unlinks every node only from the levels at and above its
    ///    [`MembershipUpdate::from_level`] (the links below are untouched —
    ///    those lists keep the node, its neighbours, and their order);
    /// 2. groups the changed `(node, level)` pairs by `(level, new prefix)`
    ///    in a reusable scratch workspace;
    /// 3. rebuilds each affected list in a single ordered merge pass:
    ///    incoming nodes (sorted by key) are spliced into the surviving
    ///    chain while it is walked once, so untouched list segments are
    ///    reused in place rather than re-spliced.
    ///
    /// The work is therefore proportional to the number of changed
    /// `(node, level)` pairs plus the sizes of the lists they move into —
    /// not to the total link count of the touched nodes. The resulting
    /// structure is observably identical to the per-node install: every
    /// list holds the nodes sharing its prefix, in ascending key order
    /// (this module's random-script test asserts exactly this, and the
    /// engine's epoch replay in `tests/dummy_reconcile.rs` does so for
    /// every epoch the engine serves).
    ///
    /// Returns the number of changed `(node, level)` pairs installed.
    /// Entries whose new vector equals the current one are skipped. Each
    /// node may appear at most once in `updates`.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownNode`] (before any mutation) if an
    /// update names a dead node.
    pub fn apply_membership_batch(&mut self, updates: &[MembershipUpdate]) -> Result<usize> {
        let mut affected = Vec::new();
        self.apply_membership_batch_collecting(updates, &mut affected)
    }

    /// [`SkipGraph::apply_membership_batch`], additionally collecting the
    /// *affected lists*: every list whose membership — or whose members'
    /// next-level split pattern — this batch changed. That is, for each
    /// changed node, its old and new lists from `from_level` upward plus the
    /// (unchanged-membership) parent list at `from_level - 1`, whose runs
    /// changed because the node's bit at `from_level` did.
    ///
    /// Deduplication is epoch-stamp based (each list descriptor remembers
    /// the last batch that touched it), so collection costs O(1) per
    /// changed `(node, level)` pair with no hashing. `affected` is cleared
    /// first; in the rare case of a list freed and re-created within one
    /// batch a duplicate entry can appear, so order-sensitive consumers
    /// should sort + dedup.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownNode`] (before any mutation) if an
    /// update names a dead node.
    pub fn apply_membership_batch_collecting(
        &mut self,
        updates: &[MembershipUpdate],
        affected: &mut Vec<(usize, Prefix)>,
    ) -> Result<usize> {
        affected.clear();
        self.batch_epoch += 1;
        for update in updates {
            if self.entry(update.node).is_none() {
                return Err(SkipGraphError::UnknownNode(update.node));
            }
        }
        #[cfg(debug_assertions)]
        {
            let mut seen = std::collections::HashSet::new();
            for update in updates {
                debug_assert!(
                    seen.insert(update.node),
                    "node {} appears twice in one membership batch",
                    update.node
                );
            }
        }
        let mut scratch = std::mem::take(&mut self.batch);
        for (_, mut members) in scratch.groups.drain() {
            members.clear();
            scratch.spare.push(members);
        }

        // Phase 1: partial unlink, vector write, and grouping of the
        // changed (node, level) pairs by their target list.
        let mut touched = 0usize;
        for update in updates {
            let id = update.node;
            let old = self.entry(id).expect("validated above").mvec;
            let new = update.new_mvec;
            if old == new {
                continue;
            }
            self.generation += 1;
            let from_level = old.common_prefix_len(&new) + 1;
            debug_assert_eq!(
                update.from_level, from_level,
                "from_level of node {id} disagrees with the vector diff"
            );
            let (old_len, new_len) = (old.len(), new.len());
            // The parent list keeps the node, but the node's bit at
            // `from_level` changes, so the parent's run pattern does too.
            let parent_lid = self.arena[id.index()]
                .links
                .get(from_level - 1)
                .expect("node is linked below its first changed level")
                .list;
            self.stamp_list(parent_lid, affected);
            for level in from_level..=old_len {
                let lid = self.arena[id.index()]
                    .links
                    .get(level)
                    .expect("level within link count")
                    .list;
                self.stamp_list(lid, affected);
                self.unlink_level(id, level, level == old_len);
            }
            self.arena[id.index()].links.truncate(from_level);
            if old_len < from_level {
                // The old vector is a proper prefix of the new one: the node
                // stays in its old top list but no longer stops there.
                let lid = self.arena[id.index()]
                    .links
                    .get(old_len)
                    .expect("node is linked at its old top level")
                    .list;
                self.list_meta_mut(lid).stoppers -= 1;
            }
            if new_len < from_level {
                // The new vector is a proper prefix of the old one: the node
                // now stops at a list it is already linked into.
                let lid = self.arena[id.index()]
                    .links
                    .get(new_len)
                    .expect("node is linked at its new top level")
                    .list;
                self.list_meta_mut(lid).stoppers += 1;
            }
            self.arena[id.index()]
                .entry
                .as_mut()
                .expect("validated above")
                .mvec = new;
            for level in from_level..=new_len {
                scratch
                    .groups
                    .entry((level, new.prefix(level)))
                    .or_insert_with(|| scratch.spare.pop().unwrap_or_default())
                    .push(id);
            }
            touched += old_len.max(new_len) + 1 - from_level;
        }

        // Phase 2: splice each affected list once. Levels are processed in
        // ascending order so that every node's link records are appended
        // bottom-up; the (level, prefix) sort also makes the pass order
        // independent of hash-map iteration order.
        scratch.order.clear();
        scratch.order.extend(scratch.groups.keys().copied());
        scratch.order.sort_unstable();
        for &(level, prefix) in &scratch.order {
            match self.levels.get(level).and_then(|m| m.get(&prefix)).copied() {
                // A list that already lost members in phase 1 was stamped
                // there; stamping again keeps `affected` duplicate-free.
                Some(lid) => self.stamp_list(lid, affected),
                None => affected.push((level, prefix)),
            }
            let mut incoming = scratch
                .groups
                .remove(&(level, prefix))
                .expect("group was just enumerated");
            // Updates are usually supplied in ascending key order (the
            // transformation emits them that way), which makes every group
            // arrive sorted already; one linear check avoids re-sorting the
            // hot path and falls back for arbitrary callers.
            let key_of = |id: NodeId| {
                self.arena[id.index()]
                    .entry
                    .as_ref()
                    .expect("update target is live")
                    .key
            };
            if incoming.windows(2).any(|w| key_of(w[0]) > key_of(w[1])) {
                incoming.sort_unstable_by_key(|&id| key_of(id));
            }
            self.splice_group(level, prefix, &incoming);
            incoming.clear();
            scratch.spare.push(incoming);
            // Fault-injection site, deliberately *after* the splice: firing
            // mid-batch leaves the arena genuinely half-installed, the
            // failure mode the service-poisoning suites need to reproduce.
            crate::failpoint::hit(crate::failpoint::APPLY_SPLICE);
        }
        self.pop_empty_top_levels();
        self.batch = scratch;
        Ok(touched)
    }

    /// Marks `lid` as touched by the current batch epoch, recording its
    /// identity in `affected` the first time.
    fn stamp_list(&mut self, lid: ListId, affected: &mut Vec<(usize, Prefix)>) {
        let epoch = self.batch_epoch;
        let meta = self.list_meta_mut(lid);
        if meta.stamp != epoch {
            meta.stamp = epoch;
            affected.push((meta.level, meta.prefix));
        }
    }

    /// Inserts a whole batch of *dummy* nodes through the ordered-splice
    /// machinery of [`SkipGraph::apply_membership_batch`]: the new nodes'
    /// `(node, level)` memberships are grouped by target list and each
    /// affected list is relinked in one merge pass, instead of paying one
    /// full join walk per dummy as [`SkipGraph::insert_dummy`] does. The
    /// balance-repair reconciliation pushes all of a repair pass's genuinely
    /// new dummies through this entry point.
    ///
    /// Each group's merge starts from a cheaply-found predecessor of the
    /// group's first key (the key index at level 0, the standard
    /// walk-from-the-level-below at higher levels), so a small batch costs
    /// O(batch · height) expected — never a scan from each list head. The
    /// resulting structure is identical to inserting the dummies one by one
    /// in any order: every list holds the nodes sharing its prefix in
    /// ascending key order.
    ///
    /// Returns the new node ids, parallel to `dummies`.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::DuplicateKey`] (before any mutation) if a
    /// key is already present in the graph or appears twice in the batch.
    pub fn insert_dummies_bulk(
        &mut self,
        dummies: &[(Key, MembershipVector)],
    ) -> Result<Vec<NodeId>> {
        for &(key, _) in dummies {
            if self.by_key.contains(key) {
                return Err(SkipGraphError::DuplicateKey(key));
            }
        }
        {
            // In-batch duplicates, via one sort instead of a quadratic scan.
            let mut keys: Vec<Key> = dummies.iter().map(|&(key, _)| key).collect();
            keys.sort_unstable();
            if let Some(window) = keys.windows(2).find(|w| w[0] == w[1]) {
                return Err(SkipGraphError::DuplicateKey(window[0]));
            }
        }
        if !dummies.is_empty() {
            self.generation += 1;
        }
        let mut ids = Vec::with_capacity(dummies.len());
        for &(key, mvec) in dummies {
            ids.push(self.alloc_node(NodeEntry {
                key,
                mvec,
                dummy: true,
            }));
        }
        // Deliberately no batch_epoch bump: the lists rebuilt by the
        // enclosing epoch's install keep their valid "already collected"
        // stamps (bumping here made every later cluster of the epoch
        // re-append and re-scan them), and the lists this install creates
        // are stamped 0 below — collectable by a later GC pass, exactly
        // like a list born from a per-dummy insertion.
        let mut scratch = std::mem::take(&mut self.batch);
        for (_, mut members) in scratch.groups.drain() {
            members.clear();
            scratch.spare.push(members);
        }
        for (i, &(_, mvec)) in dummies.iter().enumerate() {
            for level in 0..=mvec.len() {
                scratch
                    .groups
                    .entry((level, mvec.prefix(level)))
                    .or_insert_with(|| scratch.spare.pop().unwrap_or_default())
                    .push(ids[i]);
            }
        }
        // Ascending level order: a node's link records are appended
        // bottom-up, and the predecessor walk for a level-`l` group relies
        // on the batch already being linked at `l - 1`.
        scratch.order.clear();
        scratch.order.extend(scratch.groups.keys().copied());
        scratch.order.sort_unstable();
        for &(level, prefix) in &scratch.order {
            let mut incoming = scratch
                .groups
                .remove(&(level, prefix))
                .expect("group was just enumerated");
            {
                let key_of = |id: NodeId| {
                    self.arena[id.index()]
                        .entry
                        .as_ref()
                        .expect("batch member is live")
                        .key
                };
                if incoming.windows(2).any(|w| key_of(w[0]) > key_of(w[1])) {
                    incoming.sort_unstable_by_key(|&id| key_of(id));
                }
            }
            let first = incoming[0];
            let first_key = self.arena[first.index()]
                .entry
                .as_ref()
                .expect("batch member is live")
                .key;
            if self.levels.len() <= level {
                self.levels.resize_with(level + 1, HashMap::default);
                self.multi.resize(level + 1, 0);
            }
            match self.levels[level].get(&prefix).copied() {
                None => self.create_list_from(level, prefix, &incoming, 0),
                Some(lid) => {
                    // Dense group (a meaningful fraction of the target
                    // list): one ordered merge walk over the surviving
                    // chain. Sparse group: the walk between far-apart keys
                    // would dominate (dummy keys spread across the whole
                    // key space make the level-0 merge an O(n) scan), so
                    // seek each node's predecessor directly instead — the
                    // key index at level 0, the walk-from-the-level-below
                    // everywhere else.
                    if incoming.len() * 8 >= self.list_meta(lid).len {
                        // The key index already holds the whole batch, but
                        // the group's first member is the batch's smallest
                        // key in this list, so its predecessor is an
                        // existing (linked) node.
                        let start_pred = if level == 0 {
                            self.predecessor_by_key(first_key)
                        } else {
                            self.link_predecessor(first, first_key, level, lid)
                        };
                        self.merge_into_list(level, lid, &incoming, start_pred);
                    } else {
                        for &id in &incoming {
                            let key = self.arena[id.index()]
                                .entry
                                .as_ref()
                                .expect("batch member is live")
                                .key;
                            let pred = if level == 0 {
                                self.predecessor_by_key(key)
                            } else {
                                self.link_predecessor(id, key, level, lid)
                            };
                            self.splice_in(id, level, lid, pred);
                            if self.entry(id).expect("live").mvec.len() == level {
                                self.list_meta_mut(lid).stoppers += 1;
                            }
                        }
                    }
                }
            }
            incoming.clear();
            scratch.spare.push(incoming);
        }
        self.batch = scratch;
        Ok(ids)
    }

    /// Splices `incoming` (ascending key order, all sharing `prefix` at
    /// `level`) into the list identified by `(level, prefix)`, creating the
    /// list if it does not exist. One ordered merge pass: the surviving
    /// chain is walked at most once regardless of how many nodes arrive.
    fn splice_group(&mut self, level: usize, prefix: Prefix, incoming: &[NodeId]) {
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, HashMap::default);
            self.multi.resize(level + 1, 0);
        }
        match self.levels[level].get(&prefix).copied() {
            None => self.create_list_from(level, prefix, incoming, self.batch_epoch),
            Some(lid) => self.merge_into_list(level, lid, incoming, None),
        }
    }

    /// Materialises a brand-new list from `incoming` (ascending key order):
    /// the incoming chain *is* the list. `stamp` seeds the affected-list
    /// deduplication: the membership-batch installer passes the current
    /// epoch (it records the new list in `affected` itself), the bulk dummy
    /// installer passes 0 ("never collected") so a later GC pass can still
    /// stamp and re-check the list — exactly like a list born from a
    /// per-dummy insertion.
    fn create_list_from(&mut self, level: usize, prefix: Prefix, incoming: &[NodeId], stamp: u64) {
        let (mut stoppers, mut dummies) = (0usize, 0usize);
        for &id in incoming {
            let entry = self.entry(id).expect("live");
            stoppers += usize::from(entry.mvec.len() == level);
            dummies += usize::from(entry.dummy);
        }
        let lid = self.alloc_list(ListMeta {
            prefix,
            level,
            head: incoming[0],
            tail: *incoming.last().expect("group is non-empty"),
            len: incoming.len(),
            stamp,
            stoppers,
            dummies,
        });
        self.levels[level].insert(prefix, lid);
        for (i, &id) in incoming.iter().enumerate() {
            debug_assert_eq!(self.arena[id.index()].links.len(), level);
            self.arena[id.index()].links.push(LevelLink {
                prev: i.checked_sub(1).map(|p| incoming[p]),
                next: incoming.get(i + 1).copied(),
                list: lid,
            });
        }
        if incoming.len() >= 2 {
            self.multi[level] += 1;
        }
    }

    /// Splices `incoming` (ascending key order) into the existing list
    /// `lid` in one ordered merge pass, walking the surviving chain from
    /// `start_pred` (a member known to precede every incoming key; `None`
    /// starts at the head). The bulk dummy installer seeds `start_pred`
    /// with a cheaply-found predecessor so a small batch does not pay a
    /// walk from the list head.
    fn merge_into_list(
        &mut self,
        level: usize,
        lid: ListId,
        incoming: &[NodeId],
        start_pred: Option<NodeId>,
    ) {
        let mut pred = start_pred;
        let mut cursor = match start_pred {
            Some(p) => self.arena[p.index()]
                .links
                .get(level)
                .expect("start predecessor is linked at this level")
                .next,
            None => Some(self.list_meta(lid).head),
        };
        for &id in incoming {
            let key = self.entry(id).expect("update target is live").key;
            while let Some(member) = cursor {
                if self.arena[member.index()]
                    .entry
                    .as_ref()
                    .expect("list member is live")
                    .key
                    < key
                {
                    pred = Some(member);
                    cursor = self.arena[member.index()]
                        .links
                        .get(level)
                        .and_then(|l| l.next);
                } else {
                    break;
                }
            }
            self.splice_in(id, level, lid, pred);
            pred = Some(id);
            if self.entry(id).expect("live").mvec.len() == level {
                self.list_meta_mut(lid).stoppers += 1;
            }
        }
    }

    /// Replaces the node's entire membership vector.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownNode`] for a dead id.
    pub fn set_membership_vector(&mut self, id: NodeId, mvec: MembershipVector) -> Result<()> {
        if self.entry(id).is_none() {
            return Err(SkipGraphError::UnknownNode(id));
        }
        self.generation += 1;
        self.unlink_node(id);
        self.arena[id.index()]
            .entry
            .as_mut()
            .expect("checked live above")
            .mvec = mvec;
        self.link_node(id);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    fn entry(&self, id: NodeId) -> Option<&NodeEntry> {
        self.arena.get(id.index()).and_then(|s| s.entry.as_ref())
    }

    /// The structure's generation: a counter that every call changing a
    /// node, a link or a membership vector bumps before it mutates
    /// anything, and that a call changing nothing (an empty or all-no-op
    /// membership batch, a failed insert or removal) leaves alone. Two
    /// reads of the same graph that see the same generation therefore saw
    /// the same structure. Clones copy it, so it identifies a structure
    /// only together with the owner's own identity.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of live nodes (including dummy nodes).
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Number of live dummy nodes (maintained incrementally; O(1)).
    pub fn dummy_count(&self) -> usize {
        self.dummies
    }

    /// Returns the node entry for a live id.
    pub fn node(&self, id: NodeId) -> Option<&NodeEntry> {
        self.entry(id)
    }

    /// Returns the id of the node holding `key`.
    pub fn node_by_key(&self, key: Key) -> Option<NodeId> {
        self.by_key.get(key)
    }

    /// The node with the largest key strictly below `key` (its left
    /// neighbour in the base list, whether or not `key` itself is present).
    pub fn predecessor_by_key(&self, key: Key) -> Option<NodeId> {
        self.by_key.predecessor(key)
    }

    /// The node with the smallest key strictly above `key`.
    pub fn successor_by_key(&self, key: Key) -> Option<NodeId> {
        self.by_key.successor(key)
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

    /// Iterates over all live node ids in ascending key order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.by_key.iter().map(|(_, id)| id)
    }

    /// Iterates over all live keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.by_key.iter().map(|(key, _)| key)
    }

    /// The height of the skip graph: the smallest `H` such that every node
    /// is the only member of its list at level `H`. An empty or singleton
    /// graph has height 0. Computed from the per-level multi-member list
    /// counters, so it costs O(height), not a sweep of every list.
    pub fn height(&self) -> usize {
        for (level, &multi) in self.multi.iter().enumerate() {
            if multi == 0 {
                return level;
            }
        }
        self.levels.len()
    }

    /// The largest level index for which any list exists.
    pub fn max_level(&self) -> usize {
        self.levels.len().saturating_sub(1)
    }

    // ------------------------------------------------------------------
    // List queries
    // ------------------------------------------------------------------

    /// Borrowing iterator over the members (in ascending key order) of the
    /// list at `level` identified by `prefix`. Empty if no such list
    /// exists. Allocation-free.
    pub fn list_iter(&self, level: usize, prefix: Prefix) -> ListIter<'_> {
        match self.levels.get(level).and_then(|m| m.get(&prefix)) {
            Some(&lid) => self.list_id_iter(lid),
            None => ListIter {
                graph: self,
                cursor: None,
                level: 0,
                remaining: 0,
            },
        }
    }

    fn list_id_iter(&self, lid: ListId) -> ListIter<'_> {
        let meta = self.list_meta(lid);
        ListIter {
            graph: self,
            cursor: Some(meta.head),
            level: meta.level,
            remaining: meta.len,
        }
    }

    /// Borrowing iterator over the members of the list `id` belongs to at
    /// `level`, in ascending key order. For levels above the node's vector
    /// length the node is singleton, so only `id` itself is yielded.
    /// Allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownNode`] for a dead id.
    pub fn list_of_iter(&self, id: NodeId, level: usize) -> Result<ListIter<'_>> {
        let entry = self.entry(id).ok_or(SkipGraphError::UnknownNode(id))?;
        if level > entry.mvec.len() {
            // Conceptual singleton: the cursor starts at `id` and the walk
            // stops immediately because the node has no link at `level`.
            return Ok(ListIter {
                graph: self,
                cursor: Some(id),
                level,
                remaining: 1,
            });
        }
        let lid = self.arena[id.index()]
            .links
            .get(level)
            .expect("live node is linked at every level up to its length")
            .list;
        Ok(self.list_id_iter(lid))
    }

    /// Iterates over every live list as `(level, prefix, head, len)`
    /// tuples, in arena (allocation) order — a straight slab walk, with no
    /// per-level hash-map iteration. Used by whole-graph sweeps like the
    /// a-balance checker, which walk the chains themselves via
    /// [`SkipGraph::entry_and_next`].
    pub(crate) fn all_lists_iter(
        &self,
    ) -> impl Iterator<Item = (usize, Prefix, NodeId, usize)> + '_ {
        self.lists.iter().filter_map(move |slot| {
            slot.as_ref()
                .map(|meta| (meta.level, meta.prefix, meta.head, meta.len))
        })
    }

    /// Head and length of the list at `(level, prefix)`, if it exists.
    /// Like [`SkipGraph::list_head`], additionally reporting the list's
    /// cached dummy-member count.
    pub(crate) fn list_head_with_dummies(
        &self,
        level: usize,
        prefix: Prefix,
    ) -> Option<(NodeId, usize, usize)> {
        let lid = self.levels.get(level)?.get(&prefix)?;
        let meta = self.list_meta(*lid);
        Some((meta.head, meta.len, meta.dummies))
    }

    pub(crate) fn list_head(&self, level: usize, prefix: Prefix) -> Option<(NodeId, usize)> {
        let &lid = self.levels.get(level)?.get(&prefix)?;
        let meta = self.list_meta(lid);
        Some((meta.head, meta.len))
    }

    /// One fused arena read for chain walks: the node's entry together with
    /// its successor at `level`. Scans that previously paired a `ListIter`
    /// step with a separate [`SkipGraph::node`] lookup touch each slot once.
    pub(crate) fn entry_and_next(&self, id: NodeId, level: usize) -> (&NodeEntry, Option<NodeId>) {
        let slot = &self.arena[id.index()];
        (
            slot.entry.as_ref().expect("list member is live"),
            slot.links.get(level).and_then(|l| l.next),
        )
    }

    /// Iterates over all lists at `level` as `(prefix, members)` pairs, in
    /// unspecified order; members are yielded in ascending key order.
    /// Allocation-free.
    pub fn lists_at_level_iter(
        &self,
        level: usize,
    ) -> impl Iterator<Item = (Prefix, ListIter<'_>)> + '_ {
        self.levels
            .get(level)
            .into_iter()
            .flat_map(move |map| map.iter().map(move |(p, &lid)| (*p, self.list_id_iter(lid))))
    }

    /// Members (in ascending key order) of the list at `level` identified by
    /// `prefix`. Convenience wrapper around [`SkipGraph::list_iter`] that
    /// allocates; hot paths should use the iterator.
    pub fn list_members(&self, level: usize, prefix: Prefix) -> Vec<NodeId> {
        self.list_iter(level, prefix).collect()
    }

    /// Members of the list that `id` belongs to at `level`, in ascending key
    /// order. Convenience wrapper around [`SkipGraph::list_of_iter`] that
    /// allocates; hot paths should use the iterator.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownNode`] for a dead id.
    pub fn list_of(&self, id: NodeId, level: usize) -> Result<Vec<NodeId>> {
        Ok(self.list_of_iter(id, level)?.collect())
    }

    /// Size of the list that `id` belongs to at `level`. O(1): reads the
    /// list's cached length.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownNode`] for a dead id.
    pub fn list_size(&self, id: NodeId, level: usize) -> Result<usize> {
        let entry = self.entry(id).ok_or(SkipGraphError::UnknownNode(id))?;
        if level > entry.mvec.len() {
            return Ok(1);
        }
        let lid = self.arena[id.index()]
            .links
            .get(level)
            .expect("live node is linked at every level up to its length")
            .list;
        Ok(self.list_meta(lid).len)
    }

    /// All lists at `level`, as `(prefix, members)` pairs. Pairs are
    /// returned in an unspecified order; members are in ascending key order.
    /// Convenience wrapper around [`SkipGraph::lists_at_level_iter`] that
    /// allocates.
    pub fn lists_at_level(&self, level: usize) -> Vec<(Prefix, Vec<NodeId>)> {
        self.lists_at_level_iter(level)
            .map(|(p, iter)| (p, iter.collect()))
            .collect()
    }

    /// Left and right neighbours of `id` in its list at `level` (the
    /// doubly-linked-list pointers of the distributed structure). O(1):
    /// two pointer reads from the node's link record — no hashing, no tree
    /// walk, no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownNode`] for a dead id.
    pub fn neighbors(&self, id: NodeId, level: usize) -> Result<(Option<NodeId>, Option<NodeId>)> {
        let slot = self
            .arena
            .get(id.index())
            .filter(|s| s.entry.is_some())
            .ok_or(SkipGraphError::UnknownNode(id))?;
        Ok(match slot.links.get(level) {
            Some(link) => (link.prev, link.next),
            // Above the node's vector length it is conceptually singleton.
            None => (None, None),
        })
    }

    /// The highest level at which `u` and `v` share a linked list (the
    /// paper's `α` for a communication request), i.e. the length of the
    /// longest common prefix of their membership vectors.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownNode`] if either id is dead.
    pub fn common_level(&self, u: NodeId, v: NodeId) -> Result<usize> {
        let eu = self.entry(u).ok_or(SkipGraphError::UnknownNode(u))?;
        let ev = self.entry(v).ok_or(SkipGraphError::UnknownNode(v))?;
        Ok(eu.mvec.common_prefix_len(&ev.mvec))
    }

    /// The degree of a node: the number of *distinct* neighbours over all
    /// levels. Skip graphs guarantee `O(log n)` degree.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::UnknownNode`] for a dead id.
    pub fn degree(&self, id: NodeId) -> Result<usize> {
        let entry = self.entry(id).ok_or(SkipGraphError::UnknownNode(id))?;
        let mut distinct = std::collections::HashSet::new();
        for level in 0..=entry.mvec.len() {
            let (l, r) = self.neighbors(id, level)?;
            if let Some(l) = l {
                distinct.insert(l);
            }
            if let Some(r) = r {
                distinct.insert(r);
            }
        }
        Ok(distinct.len())
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Checks the structural invariants of the skip graph:
    ///
    /// 1. every live node appears exactly once in the base list;
    /// 2. every list's chain is consistent: ascending keys, symmetric
    ///    `prev`/`next` pointers, cached head/tail/length correct;
    /// 3. list membership recorded in the links matches the nodes'
    ///    membership vectors, and every list refines its parent list;
    /// 4. the per-level multi-member counters match the lists.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::InvariantViolated`] describing the first
    /// violation found.
    pub fn validate(&self) -> Result<()> {
        // 1. base list contains every live node.
        let base_len = self
            .levels
            .first()
            .and_then(|m| m.get(&Prefix::root()))
            .map(|&lid| self.list_meta(lid).len)
            .unwrap_or(0);
        if base_len != self.by_key.len() {
            return Err(SkipGraphError::InvariantViolated(format!(
                "base list has {} members but {} nodes are live",
                base_len,
                self.by_key.len()
            )));
        }
        // 2/3. chain consistency + prefix consistency + refinement.
        for (level, map) in self.levels.iter().enumerate() {
            let mut multi_seen = 0usize;
            for (prefix, &lid) in map {
                if prefix.level() != level {
                    return Err(SkipGraphError::InvariantViolated(format!(
                        "prefix {prefix} stored at level {level}"
                    )));
                }
                self.validate_list_inner(level, *prefix, lid)?;
                if self.list_meta(lid).len >= 2 {
                    multi_seen += 1;
                }
            }
            if self.multi.get(level).copied().unwrap_or(0) != multi_seen {
                return Err(SkipGraphError::InvariantViolated(format!(
                    "multi-member counter at level {level} is stale"
                )));
            }
        }
        // 4. the two halves of the key index agree.
        if self.by_key.map.len() != self.by_key.tree.len() {
            return Err(SkipGraphError::InvariantViolated(format!(
                "key index halves disagree: {} hashed, {} ordered",
                self.by_key.map.len(),
                self.by_key.tree.len()
            )));
        }
        for (key, id) in self.by_key.iter() {
            if self.by_key.get(key) != Some(id) {
                return Err(SkipGraphError::InvariantViolated(format!(
                    "key index halves disagree on key {key}"
                )));
            }
        }
        // 5. every node is linked at every level up to its vector length.
        for (key, id) in self.by_key.iter() {
            let entry = self.entry(id).ok_or_else(|| {
                SkipGraphError::InvariantViolated(format!("key {key} maps to dead node {id}"))
            })?;
            if entry.key != key {
                return Err(SkipGraphError::InvariantViolated(format!(
                    "node {id} stored under key {key} but has key {}",
                    entry.key
                )));
            }
            if self.arena[id.index()].links.len() != entry.mvec.len() + 1 {
                return Err(SkipGraphError::InvariantViolated(format!(
                    "node {id} missing link records (has {}, vector length {})",
                    self.arena[id.index()].links.len(),
                    entry.mvec.len()
                )));
            }
            for level in 0..=entry.mvec.len() {
                let prefix = entry.mvec.prefix(level);
                let link = self.arena[id.index()]
                    .links
                    .get(level)
                    .expect("length checked above");
                if self.list_meta(link.list).prefix != prefix {
                    return Err(SkipGraphError::InvariantViolated(format!(
                        "node {id} missing from its list at level {level}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Validates the invariants of **one** list: chain consistency
    /// (symmetric `prev`/`next`, ascending keys, cached head/tail/length
    /// correct), prefix membership, refinement against the parent list,
    /// and the cached stopper/dummy counters — the per-list slice of
    /// [`SkipGraph::validate`], exposed so incremental auditors (the
    /// `dsg::service` tiered auditor) can re-check just the lists an epoch
    /// touched in time proportional to those lists instead of the whole
    /// structure.
    ///
    /// A `(level, prefix)` that names no live list validates vacuously:
    /// affected-list sets legitimately outlive the lists they name (a
    /// repair can empty and free a list after the install recorded it).
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::InvariantViolated`] describing the first
    /// violation found.
    pub fn validate_list(&self, level: usize, prefix: Prefix) -> Result<()> {
        match self.levels.get(level).and_then(|m| m.get(&prefix)) {
            Some(&lid) => self.validate_list_inner(level, prefix, lid),
            None => Ok(()),
        }
    }

    /// The per-list body shared by [`SkipGraph::validate`] (every list) and
    /// [`SkipGraph::validate_list`] (one list).
    fn validate_list_inner(&self, level: usize, prefix: Prefix, lid: ListId) -> Result<()> {
        {
            let prefix = &prefix;
            {
                let meta = self.lists[lid.index()].as_ref().ok_or_else(|| {
                    SkipGraphError::InvariantViolated(format!(
                        "freed list recorded for prefix {prefix} at level {level}"
                    ))
                })?;
                if meta.prefix != *prefix || meta.level != level {
                    return Err(SkipGraphError::InvariantViolated(format!(
                        "list identity mismatch for prefix {prefix} at level {level}"
                    )));
                }
                let mut count = 0usize;
                let mut stoppers_seen = 0usize;
                let mut dummies_seen = 0usize;
                let mut previous: Option<NodeId> = None;
                let mut cursor = Some(meta.head);
                while let Some(id) = cursor {
                    let entry = self.entry(id).ok_or_else(|| {
                        SkipGraphError::InvariantViolated(format!(
                            "dead node {id} recorded in list {prefix} at level {level}"
                        ))
                    })?;
                    let link = self.arena[id.index()].links.get(level).ok_or_else(|| {
                        SkipGraphError::InvariantViolated(format!(
                            "node {id} in list {prefix} at level {level} has no link record"
                        ))
                    })?;
                    if link.list != lid {
                        return Err(SkipGraphError::InvariantViolated(format!(
                            "node {id} links to a different list than {prefix} at level {level}"
                        )));
                    }
                    if link.prev != previous {
                        return Err(SkipGraphError::InvariantViolated(format!(
                            "asymmetric prev pointer at node {id} in list {prefix} at level {level}"
                        )));
                    }
                    if let Some(p) = previous {
                        let pk = self.entry(p).expect("checked above").key;
                        if pk >= entry.key {
                            return Err(SkipGraphError::InvariantViolated(format!(
                                "keys out of order in list {prefix} at level {level}: {pk} before {}",
                                entry.key
                            )));
                        }
                    }
                    if entry.mvec.prefix(level) != *prefix {
                        return Err(SkipGraphError::InvariantViolated(format!(
                            "node {id} with vector {} is recorded in list {prefix} at level {level}",
                            entry.mvec
                        )));
                    }
                    if level >= 1 {
                        // Refinement: O(1) membership test via the link
                        // record of the level below.
                        let parent_prefix = prefix.parent().expect("level >= 1 has a parent");
                        let in_parent = self.arena[id.index()]
                            .links
                            .get(level - 1)
                            .map(|l| self.list_meta(l.list).prefix == parent_prefix)
                            .unwrap_or(false);
                        if !in_parent {
                            return Err(SkipGraphError::InvariantViolated(format!(
                                "node {id} appears in list {prefix} at level {level} but not in its parent list"
                            )));
                        }
                    }
                    count += 1;
                    if entry.mvec.len() == level {
                        stoppers_seen += 1;
                    }
                    if entry.dummy {
                        dummies_seen += 1;
                    }
                    previous = Some(id);
                    if count > meta.len {
                        return Err(SkipGraphError::InvariantViolated(format!(
                            "list {prefix} at level {level} longer than its cached length {}",
                            meta.len
                        )));
                    }
                    cursor = link.next;
                }
                if count != meta.len {
                    return Err(SkipGraphError::InvariantViolated(format!(
                        "list {prefix} at level {level} has {count} members but cached length {}",
                        meta.len
                    )));
                }
                if previous != Some(meta.tail) {
                    return Err(SkipGraphError::InvariantViolated(format!(
                        "cached tail of list {prefix} at level {level} is stale"
                    )));
                }
                if stoppers_seen != meta.stoppers {
                    return Err(SkipGraphError::InvariantViolated(format!(
                        "stopper counter of list {prefix} at level {level} is stale \
                         ({} cached, {stoppers_seen} found)",
                        meta.stoppers
                    )));
                }
                if dummies_seen != meta.dummies {
                    return Err(SkipGraphError::InvariantViolated(format!(
                        "dummy counter of list {prefix} at level {level} is stale \
                         ({} cached, {dummies_seen} found)",
                        meta.dummies
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Borrowing, allocation-free iterator over the members of one linked list
/// in ascending key order. Created by [`SkipGraph::list_iter`],
/// [`SkipGraph::list_of_iter`] and [`SkipGraph::lists_at_level_iter`].
#[derive(Debug, Clone)]
pub struct ListIter<'g> {
    graph: &'g SkipGraph,
    cursor: Option<NodeId>,
    level: usize,
    remaining: usize,
}

impl Iterator for ListIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.cursor?;
        self.cursor = self.graph.arena[id.index()]
            .links
            .get(self.level)
            .and_then(|l| l.next);
        self.remaining = self.remaining.saturating_sub(1);
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ListIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Direct edge-case coverage for the ordered half of [`KeyIndex`]
    /// (predecessor/successor windows), previously exercised only through
    /// full engine runs.
    #[test]
    fn key_index_ordered_queries_cover_the_edges() {
        let id = |raw: u32| NodeId::from_raw(raw);
        let mut index = KeyIndex::default();

        // Empty window: no predecessor or successor anywhere.
        assert!(index.is_empty());
        assert_eq!(index.predecessor(Key::new(0)), None);
        assert_eq!(index.predecessor(Key::new(u64::MAX)), None);
        assert_eq!(index.successor(Key::new(0)), None);
        assert_eq!(index.successor(Key::new(u64::MAX)), None);

        // Key-space boundaries: entries at 0 and u64::MAX. Both queries are
        // strict, so the extremes have no predecessor/successor themselves.
        index.insert(Key::new(0), id(1));
        index.insert(Key::new(u64::MAX), id(2));
        assert_eq!(index.predecessor(Key::new(0)), None);
        assert_eq!(index.successor(Key::new(u64::MAX)), None);
        assert_eq!(index.predecessor(Key::new(u64::MAX)), Some(id(1)));
        assert_eq!(index.successor(Key::new(0)), Some(id(2)));
        assert_eq!(index.predecessor(Key::new(1)), Some(id(1)));
        assert_eq!(index.successor(Key::new(u64::MAX - 1)), Some(id(2)));

        // Fully occupied window: a dense run of keys — every interior probe
        // resolves to its immediate neighbours, and both index halves stay
        // in lockstep with removals.
        for k in 10..=20u64 {
            index.insert(Key::new(k), id(k as u32));
        }
        assert_eq!(index.len(), 13);
        for k in 11..=19u64 {
            assert!(index.contains(Key::new(k)));
            assert_eq!(index.predecessor(Key::new(k)), Some(id(k as u32 - 1)));
            assert_eq!(index.successor(Key::new(k)), Some(id(k as u32 + 1)));
        }
        // Probing between the dense run and the extremes.
        assert_eq!(index.predecessor(Key::new(10)), Some(id(1)));
        assert_eq!(index.successor(Key::new(20)), Some(id(2)));

        // Removal empties both halves consistently; ascending iteration
        // reflects exactly the survivors.
        index.remove(Key::new(15));
        assert!(!index.contains(Key::new(15)));
        assert_eq!(index.predecessor(Key::new(16)), Some(id(14)));
        assert_eq!(index.successor(Key::new(14)), Some(id(16)));
        // Removing an absent key is a no-op.
        index.remove(Key::new(15));
        let keys: Vec<u64> = index.iter().map(|(k, _)| k.value()).collect();
        assert_eq!(keys.first(), Some(&0));
        assert_eq!(keys.last(), Some(&u64::MAX));
        assert_eq!(keys.len(), index.len());
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "ascending iteration");
    }

    /// Builds the 6-node skip graph of Figure 1 of the paper.
    ///
    /// Level-1 0-sublist = {A, J, M}, 1-sublist = {G, R, W};
    /// level-2 lists: {A, J} (00), {M} (01), {G, W} (10), {R} (11).
    pub(crate) fn figure1_graph() -> SkipGraph {
        let members = [
            (1u64, "00"),  // A
            (7, "10"),     // G
            (10, "00"),    // J
            (13, "01"),    // M
            (18, "11"),    // R
            (23, "10"),    // W
        ];
        SkipGraph::from_members(
            members
                .iter()
                .map(|(k, v)| (Key::new(*k), MembershipVector::parse(v).unwrap())),
        )
        .unwrap()
    }

    #[test]
    fn figure1_structure_matches_paper() {
        let g = figure1_graph();
        assert_eq!(g.len(), 6);
        g.validate().unwrap();

        let a = g.node_by_key(Key::new(1)).unwrap();
        let m = g.node_by_key(Key::new(13)).unwrap();
        let gg = g.node_by_key(Key::new(7)).unwrap();
        let w = g.node_by_key(Key::new(23)).unwrap();

        // Level-1 list containing A is {A, J, M}.
        let list = g.list_of(a, 1).unwrap();
        let keys: Vec<u64> = list.iter().map(|id| g.key_of(*id).unwrap().value()).collect();
        assert_eq!(keys, vec![1, 10, 13]);

        // The highest common level for A and M is 1 (as stated in §IV-C).
        assert_eq!(g.common_level(a, m).unwrap(), 1);

        // The 10-subgraph contains exactly G and W (as stated in §III).
        let p10 = Prefix::root().child(Bit::One).child(Bit::Zero);
        let sub: Vec<u64> = g
            .list_members(2, p10)
            .iter()
            .map(|id| g.key_of(*id).unwrap().value())
            .collect();
        assert_eq!(sub, vec![7, 23]);
        assert_eq!(g.common_level(gg, w).unwrap(), 2);
    }

    #[test]
    fn base_list_is_sorted_by_key() {
        let g = figure1_graph();
        let keys: Vec<u64> = g.keys().map(|k| k.value()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn neighbors_follow_key_order_within_lists() {
        let g = figure1_graph();
        let j = g.node_by_key(Key::new(10)).unwrap();
        // Base level: J's neighbours are G (7) and M (13).
        let (l, r) = g.neighbors(j, 0).unwrap();
        assert_eq!(g.key_of(l.unwrap()).unwrap().value(), 7);
        assert_eq!(g.key_of(r.unwrap()).unwrap().value(), 13);
        // Level 1 (list {A, J, M}): neighbours are A and M.
        let (l, r) = g.neighbors(j, 1).unwrap();
        assert_eq!(g.key_of(l.unwrap()).unwrap().value(), 1);
        assert_eq!(g.key_of(r.unwrap()).unwrap().value(), 13);
        // Level 2 (list {A, J}): only left neighbour A.
        let (l, r) = g.neighbors(j, 2).unwrap();
        assert_eq!(g.key_of(l.unwrap()).unwrap().value(), 1);
        assert_eq!(r, None);
    }

    #[test]
    fn height_of_figure1_is_three_levels_of_splitting() {
        let g = figure1_graph();
        // Lists at level 2 are {A,J} and {G,W}, which still have 2 members,
        // so the height (first all-singleton level) is 3.
        assert_eq!(g.height(), 3);
    }

    #[test]
    fn insert_duplicate_key_fails() {
        let mut g = figure1_graph();
        let err = g.insert(Key::new(13), MembershipVector::empty()).unwrap_err();
        assert_eq!(err, SkipGraphError::DuplicateKey(Key::new(13)));
    }

    #[test]
    fn remove_then_reinsert_reuses_slots() {
        let mut g = figure1_graph();
        let before = g.len();
        let removed = g.remove_key(Key::new(13)).unwrap();
        assert_eq!(removed.key(), Key::new(13));
        assert_eq!(g.len(), before - 1);
        g.validate().unwrap();
        g.insert(Key::new(13), MembershipVector::parse("01").unwrap())
            .unwrap();
        assert_eq!(g.len(), before);
        g.validate().unwrap();
    }

    #[test]
    fn random_construction_is_valid_and_logarithmic() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = SkipGraph::random((0..256).map(Key::new), &mut rng).unwrap();
        g.validate().unwrap();
        assert_eq!(g.len(), 256);
        // With random membership vectors the height is O(log n) w.h.p.; use
        // a generous constant.
        assert!(g.height() <= 4 * 8, "height {} too large", g.height());
        // Degree is O(log n) as well.
        for id in g.node_ids() {
            assert!(g.degree(id).unwrap() <= 4 * 8);
        }
    }

    #[test]
    fn set_membership_suffix_moves_node_between_subgraphs() {
        let mut g = figure1_graph();
        let m = g.node_by_key(Key::new(13)).unwrap();
        // Move M from the 01-subgraph to the 00-subgraph (joining A and J).
        g.set_membership_suffix(m, 2, [Bit::Zero]).unwrap();
        g.validate().unwrap();
        let a = g.node_by_key(Key::new(1)).unwrap();
        assert_eq!(g.common_level(a, m).unwrap(), 2);
        let list = g.list_of(m, 2).unwrap();
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn dummy_nodes_are_flagged_and_counted() {
        let mut g = figure1_graph();
        g.insert_dummy(Key::new(14), MembershipVector::parse("01").unwrap())
            .unwrap();
        assert_eq!(g.dummy_count(), 1);
        assert_eq!(g.len(), 7);
        g.validate().unwrap();
        g.remove_key(Key::new(14)).unwrap();
        assert_eq!(g.dummy_count(), 0);
    }

    #[test]
    fn unknown_ids_are_reported() {
        let g = figure1_graph();
        let bogus = NodeId::from_raw(999);
        assert!(matches!(
            g.key_of(bogus),
            Err(SkipGraphError::UnknownNode(_))
        ));
        assert!(matches!(
            g.neighbors(bogus, 0),
            Err(SkipGraphError::UnknownNode(_))
        ));
        assert!(matches!(
            g.list_of_iter(bogus, 0),
            Err(SkipGraphError::UnknownNode(_))
        ));
        assert!(matches!(
            g.list_size(bogus, 0),
            Err(SkipGraphError::UnknownNode(_))
        ));
    }

    #[test]
    fn common_level_for_identical_vectors_is_full_length() {
        let mut g = SkipGraph::new();
        let a = g.insert(Key::new(1), MembershipVector::parse("11").unwrap()).unwrap();
        let b = g.insert(Key::new(2), MembershipVector::parse("11").unwrap()).unwrap();
        assert_eq!(g.common_level(a, b).unwrap(), 2);
        assert_eq!(g.height(), 3);
    }

    #[test]
    fn iterators_agree_with_vec_queries() {
        let g = figure1_graph();
        for level in 0..=g.max_level() {
            let mut pairs = g.lists_at_level(level);
            pairs.sort_by_key(|(p, _)| p.to_string());
            let mut iter_pairs: Vec<(Prefix, Vec<NodeId>)> = g
                .lists_at_level_iter(level)
                .map(|(p, it)| (p, it.collect()))
                .collect();
            iter_pairs.sort_by_key(|(p, _)| p.to_string());
            assert_eq!(pairs, iter_pairs);
            for (prefix, members) in pairs {
                let from_iter: Vec<NodeId> = g.list_iter(level, prefix).collect();
                assert_eq!(members, from_iter);
                assert_eq!(g.list_iter(level, prefix).len(), members.len());
            }
        }
        for id in g.node_ids() {
            let top = g.mvec_of(id).unwrap().len();
            for level in 0..=top + 2 {
                let vec_list = g.list_of(id, level).unwrap();
                let iter_list: Vec<NodeId> = g.list_of_iter(id, level).unwrap().collect();
                assert_eq!(vec_list, iter_list);
                assert_eq!(g.list_size(id, level).unwrap(), vec_list.len());
            }
        }
    }

    #[test]
    fn list_size_matches_membership_after_churn() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = SkipGraph::random((0..64).map(Key::new), &mut rng).unwrap();
        for i in 0..32u64 {
            g.remove_key(Key::new(i * 2)).unwrap();
            g.insert(Key::new(1000 + i), MembershipVector::parse("10").unwrap())
                .unwrap();
        }
        g.validate().unwrap();
        for id in g.node_ids().collect::<Vec<_>>() {
            for level in 0..=g.mvec_of(id).unwrap().len() {
                assert_eq!(
                    g.list_size(id, level).unwrap(),
                    g.list_of(id, level).unwrap().len()
                );
            }
        }
    }

    #[test]
    fn predecessor_and_successor_by_key() {
        let g = figure1_graph();
        let pred = g.predecessor_by_key(Key::new(13)).unwrap();
        assert_eq!(g.key_of(pred).unwrap().value(), 10);
        let succ = g.successor_by_key(Key::new(13)).unwrap();
        assert_eq!(g.key_of(succ).unwrap().value(), 18);
        // Keys between members resolve to the surrounding members.
        let pred = g.predecessor_by_key(Key::new(12)).unwrap();
        assert_eq!(g.key_of(pred).unwrap().value(), 10);
        assert_eq!(g.predecessor_by_key(Key::new(1)), None);
        assert_eq!(g.successor_by_key(Key::new(23)), None);
    }

    /// Builds the batch update for moving `id` to `new_mvec` (computing the
    /// diff level the way the transformation engine does).
    fn update_for(g: &SkipGraph, id: NodeId, new_mvec: MembershipVector) -> MembershipUpdate {
        let old = g.mvec_of(id).unwrap();
        MembershipUpdate {
            node: id,
            from_level: old.common_prefix_len(&new_mvec) + 1,
            new_mvec,
        }
    }

    #[test]
    fn batch_install_matches_node_by_node_install_on_random_scripts() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut batched = SkipGraph::random((0..128).map(Key::new), &mut rng).unwrap();
        let mut naive = batched.clone();
        let ids: Vec<NodeId> = batched.node_ids().collect();
        for round in 0..12u64 {
            let mut updates = Vec::new();
            for (i, &id) in ids.iter().enumerate() {
                // A deterministic mix: some nodes keep their vector, some
                // flip one mid bit, some grow, some shrink.
                let mut mvec = batched.mvec_of(id).unwrap();
                match (i as u64 + round) % 4 {
                    0 => {}
                    1 => {
                        let bits: Vec<Bit> =
                            mvec.iter().map(Bit::flipped).take(2).collect();
                        mvec.replace_suffix(1, bits).unwrap();
                    }
                    2 => {
                        mvec.push(Bit::from_u8(((i as u64 ^ round) & 1) as u8)).unwrap();
                    }
                    _ => {
                        let len = mvec.len();
                        mvec.truncate(len.saturating_sub(1));
                    }
                }
                if mvec != batched.mvec_of(id).unwrap() {
                    updates.push(update_for(&batched, id, mvec));
                }
            }
            let touched = batched.apply_membership_batch(&updates).unwrap();
            let expected: usize = updates
                .iter()
                .map(|u| {
                    let old = naive.mvec_of(u.node).unwrap();
                    old.len().max(u.new_mvec.len()) + 1 - u.from_level
                })
                .sum();
            assert_eq!(touched, expected);
            for u in &updates {
                naive.set_membership_vector(u.node, u.new_mvec).unwrap();
            }
            batched.validate().unwrap();
            // Observable agreement: same vectors, same list orders, same
            // neighbours at every level.
            for &id in &ids {
                assert_eq!(batched.mvec_of(id).unwrap(), naive.mvec_of(id).unwrap());
                let top = batched.mvec_of(id).unwrap().len();
                for level in 0..=top + 1 {
                    assert_eq!(
                        batched.neighbors(id, level).unwrap(),
                        naive.neighbors(id, level).unwrap(),
                        "neighbours diverge at level {level}"
                    );
                    assert_eq!(
                        batched.list_of(id, level).unwrap(),
                        naive.list_of(id, level).unwrap(),
                        "list order diverges at level {level}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_install_skips_noop_entries_and_rejects_dead_nodes() {
        let mut g = figure1_graph();
        let m = g.node_by_key(Key::new(13)).unwrap();
        let noop = update_for(&g, m, g.mvec_of(m).unwrap());
        assert_eq!(g.apply_membership_batch(&[noop]).unwrap(), 0);
        g.validate().unwrap();
        let dead = MembershipUpdate {
            node: NodeId::from_raw(999),
            from_level: 1,
            new_mvec: MembershipVector::empty(),
        };
        assert!(matches!(
            g.apply_membership_batch(&[dead]),
            Err(SkipGraphError::UnknownNode(_))
        ));
        // The failed batch must not have mutated anything.
        g.validate().unwrap();
    }

    #[test]
    fn batch_install_handles_growth_shrink_and_list_creation() {
        let mut g = figure1_graph();
        let a = g.node_by_key(Key::new(1)).unwrap();
        let m = g.node_by_key(Key::new(13)).unwrap();
        let r = g.node_by_key(Key::new(18)).unwrap();
        let updates = vec![
            // M joins the 00-subgraph and grows a level ("000").
            update_for(&g, m, MembershipVector::parse("000").unwrap()),
            // R shrinks to a bare "1".
            update_for(&g, r, MembershipVector::parse("1").unwrap()),
            // A grows downward into a brand-new "000" list with M.
            update_for(&g, a, MembershipVector::parse("000").unwrap()),
        ];
        g.apply_membership_batch(&updates).unwrap();
        g.validate().unwrap();
        let p000 = Prefix::root()
            .child(Bit::Zero)
            .child(Bit::Zero)
            .child(Bit::Zero);
        let keys: Vec<u64> = g
            .list_members(3, p000)
            .iter()
            .map(|id| g.key_of(*id).unwrap().value())
            .collect();
        assert_eq!(keys, vec![1, 13]);
        assert_eq!(g.mvec_of(r).unwrap().to_string(), "1");
    }

    #[test]
    fn adversarial_layout_join_falls_back_to_head_scan() {
        // A long run of "10" nodes separates the joining "11" node from its
        // only "11"-list companion: the leftward walk along level 1 would
        // scan the whole run, so the capped walk must fall back to a head
        // scan of the (tiny) target list and still splice correctly.
        let mut g = SkipGraph::new();
        g.insert(Key::new(0), MembershipVector::parse("11").unwrap())
            .unwrap();
        for k in 1..=200u64 {
            g.insert(Key::new(k), MembershipVector::parse("10").unwrap())
                .unwrap();
        }
        g.insert(Key::new(201), MembershipVector::parse("11").unwrap())
            .unwrap();
        g.validate().unwrap();
        let joined = g.node_by_key(Key::new(201)).unwrap();
        let (l, r) = g.neighbors(joined, 2).unwrap();
        assert_eq!(g.key_of(l.unwrap()).unwrap().value(), 0);
        assert_eq!(r, None);

        // The mirror case: the joining node becomes the new head of the
        // target list (its key is below every member).
        let mut g = SkipGraph::new();
        for k in 1..=200u64 {
            g.insert(Key::new(k), MembershipVector::parse("10").unwrap())
                .unwrap();
        }
        g.insert(Key::new(201), MembershipVector::parse("11").unwrap())
            .unwrap();
        g.insert(Key::new(0), MembershipVector::parse("11").unwrap())
            .unwrap();
        g.validate().unwrap();
        let joined = g.node_by_key(Key::new(0)).unwrap();
        let (l, r) = g.neighbors(joined, 2).unwrap();
        assert_eq!(l, None);
        assert_eq!(g.key_of(r.unwrap()).unwrap().value(), 201);
    }

    #[test]
    fn neighbors_stay_consistent_with_list_order_under_suffix_updates() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut g = SkipGraph::random((0..96).map(Key::new), &mut rng).unwrap();
        let ids: Vec<NodeId> = g.node_ids().collect();
        for (i, &id) in ids.iter().enumerate() {
            let bits = [
                Bit::from_u8((i % 2) as u8),
                Bit::from_u8(((i / 2) % 2) as u8),
            ];
            g.set_membership_suffix(id, 1, bits).unwrap();
        }
        g.validate().unwrap();
        for &id in &ids {
            for level in 0..=g.mvec_of(id).unwrap().len() {
                let list = g.list_of(id, level).unwrap();
                let pos = list.iter().position(|x| *x == id).unwrap();
                let (l, r) = g.neighbors(id, level).unwrap();
                assert_eq!(l, pos.checked_sub(1).map(|p| list[p]));
                assert_eq!(r, list.get(pos + 1).copied());
            }
        }
    }

    /// Asserts that `bulk` is, field for field, the graph `reference` is:
    /// the arena's slots and link records, the list records in list-id
    /// order, the prefix index and the key index in their iteration order
    /// (both hash with fixed seeds, so equal insert histories iterate
    /// alike), the counters, the generation, and the capacities the arena
    /// and the key map grew to.
    fn assert_built_alike(bulk: &SkipGraph, reference: &SkipGraph) {
        let slots = |g: &SkipGraph| {
            g.arena
                .iter()
                .map(|slot| (slot.entry.clone(), slot.links.iter().copied().collect::<Vec<_>>()))
                .collect::<Vec<_>>()
        };
        assert_eq!(slots(bulk), slots(reference), "arena slots and link records");
        assert_eq!(bulk.lists, reference.lists, "list records in list-id order");
        let index = |g: &SkipGraph| {
            g.levels
                .iter()
                .map(|level| level.iter().map(|(&p, &l)| (p, l)).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        assert_eq!(index(bulk), index(reference), "the per-level prefix index");
        assert_eq!(bulk.multi, reference.multi, "multi-member list counters");
        assert_eq!(bulk.dummies, reference.dummies, "dummy count");
        assert_eq!(bulk.by_key.tree, reference.by_key.tree, "ordered key index");
        let hashed = |g: &SkipGraph| g.by_key.map.iter().map(|(&k, &id)| (k, id)).collect::<Vec<_>>();
        assert_eq!(hashed(bulk), hashed(reference), "hashed key index");
        assert_eq!(bulk.generation, reference.generation, "generation");
        assert_eq!(
            (bulk.free.len(), bulk.free_lists.len(), bulk.batch_epoch),
            (reference.free.len(), reference.free_lists.len(), reference.batch_epoch)
        );
        assert_eq!(bulk.arena.capacity(), reference.arena.capacity(), "arena growth");
        assert_eq!(
            bulk.by_key.map.capacity(),
            reference.by_key.map.capacity(),
            "key map growth"
        );
    }

    /// The graph key-ordered inserts build from `nodes`, and the bulk
    /// build of the same nodes, compared by [`assert_built_alike`].
    fn check_bulk_build(nodes: &[(Key, MembershipVector, bool)]) {
        let mut reference = SkipGraph::new();
        for &(key, mvec, dummy) in nodes {
            if dummy {
                reference.insert_dummy(key, mvec).unwrap();
            } else {
                reference.insert(key, mvec).unwrap();
            }
        }
        let bulk = SkipGraph::from_sorted(nodes.iter().copied()).unwrap();
        bulk.validate().unwrap();
        assert_built_alike(&bulk, &reference);
    }

    /// Ascending keys with random gaps and dummy flags, and vectors of one
    /// `shape`: 0 random, 1 empty, 2 skewed (prefixes of one shared
    /// vector, a quarter of them followed by the bit the shared vector
    /// does not take there). Skewed layouts separate a node from its
    /// list's tail by long runs of the level below, which sends the
    /// inserts' join walk into the head scan.
    fn bulk_build_input(shape: usize, n: usize, seed: u64) -> Vec<(Key, MembershipVector, bool)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let random_vector = |rng: &mut StdRng, max: usize| {
            let len = rng.random_range(0..=max);
            MembershipVector::from_bits((0..len).map(|_| Bit::from(rng.random_bool(0.5)))).unwrap()
        };
        let shared = random_vector(&mut rng, 16);
        let mut key = rng.random_range(0..1000u64);
        (0..n)
            .map(|_| {
                key += rng.random_range(1..50u64);
                let mvec = match shape {
                    0 => random_vector(&mut rng, 10),
                    1 => MembershipVector::empty(),
                    _ => {
                        let m = rng.random_range(0..=shared.len());
                        let mut mvec = MembershipVector::from_bits(shared.iter().take(m)).unwrap();
                        if rng.random_bool(0.25) {
                            let other = shared.bit(m + 1).map_or(Bit::One, Bit::flipped);
                            mvec.push(other).unwrap();
                        }
                        mvec
                    }
                };
                (Key::new(key), mvec, rng.random_bool(0.3))
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The bulk build equals key-ordered inserts field for field, and
        /// refuses a repeated or descending key typed.
        #[test]
        fn bulk_build_equals_key_ordered_inserts(
            shape in 0usize..3,
            n in 0usize..64,
            seed in 0u64..u64::MAX,
            at in 0usize..64,
        ) {
            let mut nodes = bulk_build_input(shape, n, seed);
            check_bulk_build(&nodes);
            if n >= 2 {
                let i = 1 + at % (n - 1);
                let (smaller, larger) = (nodes[i - 1].0, nodes[i].0);
                nodes.swap(i - 1, i);
                let err = SkipGraph::from_sorted(nodes.iter().copied()).unwrap_err();
                proptest::prop_assert_eq!(
                    err,
                    SkipGraphError::KeyOutOfOrder { previous: larger, key: smaller }
                );
                nodes.swap(i - 1, i);
                nodes[i].0 = smaller;
                let err = SkipGraph::from_sorted(nodes.iter().copied()).unwrap_err();
                proptest::prop_assert_eq!(err, SkipGraphError::DuplicateKey(smaller));
            }
        }
    }

    #[test]
    fn bulk_build_equals_inserts_on_the_head_scan_layout() {
        // The layout of `adversarial_layout_join_falls_back_to_head_scan`,
        // in key order: the last node's join walk at level 2 passes 200
        // "10" nodes before it would meet its list's only member.
        let vector = |bits: &str| MembershipVector::parse(bits).unwrap();
        let nodes: Vec<_> = std::iter::once((Key::new(0), vector("11"), false))
            .chain((1..=200).map(|k| (Key::new(k), vector("10"), k % 3 == 0)))
            .chain(std::iter::once((Key::new(201), vector("11"), false)))
            .collect();
        check_bulk_build(&nodes);
        assert_built_alike(&SkipGraph::from_sorted([]).unwrap(), &SkipGraph::new());
    }

    #[test]
    fn balanced_graph_takes_rank_bits() {
        for n in [0usize, 1, 2, 5, 64, 100] {
            let keys: Vec<Key> = (0..n as u64).map(|k| Key::new(k * 7 + 3)).collect();
            let g = SkipGraph::balanced(keys.iter().copied()).unwrap();
            g.validate().unwrap();
            let height = if n <= 1 { 0 } else { (n as f64).log2().ceil() as usize };
            assert_eq!(g.height(), height, "n = {n}");
            for (rank, &key) in keys.iter().enumerate() {
                let mvec = g.mvec_of(g.node_by_key(key).unwrap()).unwrap();
                let bits: Vec<u8> = mvec.iter().map(Bit::as_u8).collect();
                let expected: Vec<u8> = (0..height).map(|i| (rank >> i & 1) as u8).collect();
                assert_eq!(bits, expected, "rank {rank} of {n}");
            }
        }
        let err = SkipGraph::balanced([Key::new(2), Key::new(2)]).unwrap_err();
        assert_eq!(err, SkipGraphError::DuplicateKey(Key::new(2)));
    }

    #[test]
    fn generation_moves_exactly_when_the_structure_does() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut g = SkipGraph::random((0..32).map(Key::new), &mut rng).unwrap();
        let ids: Vec<NodeId> = g.node_ids().collect();
        let mut last = g.generation();
        let mut moved = |g: &SkipGraph, expected: bool, what: &str| {
            assert_eq!(g.generation() != last, expected, "{what}");
            last = g.generation();
        };
        // Calls that change nothing leave it alone.
        let mut affected = Vec::new();
        g.apply_membership_batch_collecting(&[], &mut affected)
            .unwrap();
        moved(&g, false, "an empty batch");
        let same = update_for(&g, ids[3], g.mvec_of(ids[3]).unwrap());
        g.apply_membership_batch(&[same]).unwrap();
        moved(&g, false, "a batch of no-op updates");
        assert!(g.insert(Key::new(5), MembershipVector::empty()).is_err());
        moved(&g, false, "a duplicate insert");
        assert!(g.remove_key(Key::new(999)).is_err());
        moved(&g, false, "removing an unknown key");
        assert!(g.insert_dummies_bulk(&[]).unwrap().is_empty());
        moved(&g, false, "an empty bulk insert");
        // Every structural change bumps it.
        let mut flipped = g.mvec_of(ids[3]).unwrap();
        flipped.truncate(0);
        flipped.push(Bit::One).unwrap();
        g.apply_membership_batch(&[update_for(&g, ids[3], flipped)])
            .unwrap();
        moved(&g, true, "a batch that moves a node");
        g.insert(Key::new(100), MembershipVector::empty()).unwrap();
        moved(&g, true, "an insert");
        g.insert_random(Key::new(101), &mut rng).unwrap();
        moved(&g, true, "a random insert");
        g.insert_dummies_bulk(&[(Key::new(102), MembershipVector::empty())])
            .unwrap();
        moved(&g, true, "a bulk dummy insert");
        g.set_membership_suffix(ids[4], 1, [Bit::Zero]).unwrap();
        moved(&g, true, "a suffix update");
        g.set_membership_vector(ids[5], MembershipVector::empty())
            .unwrap();
        moved(&g, true, "a vector replacement");
        g.remove_key(Key::new(100)).unwrap();
        moved(&g, true, "a removal");
        g.validate().unwrap();
    }
}
