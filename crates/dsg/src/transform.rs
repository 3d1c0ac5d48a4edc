//! The topological transformation of Algorithm 1 (paper §IV-C and §IV-D).
//!
//! After routing a request `(u, v)`, DSG rebuilds the part of the skip graph
//! rooted at `l_α` — the highest-level linked list containing both `u` and
//! `v` — so that the pair ends up in a linked list of size two. The rebuild
//! proceeds level by level: the members of every affected list compute an
//! approximate median of their priorities and split into a 0-sublist and a
//! 1-sublist, with two cases:
//!
//! * **Case 1 (positive median)** — nodes with `P(x) ≥ M` move to the
//!   0-subgraph (and record `D^x = true`), the rest to the 1-subgraph. Since
//!   only the merged communicating group has positive priorities, this can
//!   only split *that* group.
//! * **Case 2 (negative median)** — the median falls inside the priority
//!   band of one non-communicating group `g_s` (equation (2)). To avoid
//!   hurting `g_s`, the split depends on `|g_s|` relative to the list size:
//!   `g_s` is either kept whole (moved to one side), or — when it dominates
//!   the list (`|g_s| > ⅔|l|`) — split along its remembered
//!   is-dominating-group flags, which reproduces a split that already
//!   happened in the past and therefore cannot increase distances inside
//!   `g_s` (Lemma 3).
//!
//! The engine works on an explicit work stack of lists rather than on the
//! graph itself; the caller applies the resulting membership vectors
//! afterwards and then runs the group-base rules (Appendix C) and the
//! timestamp rules (T1–T6) using the trace recorded here.
//!
//! ## Differential install contract
//!
//! Besides every member's vector before and after, the engine reports the
//! *difference* between the new vectors and the ones currently installed in
//! the graph: [`TransformOutcome::changes`] lists, for every member whose
//! vector actually changes, the first level at which it differs
//! ([`MembershipUpdate::from_level`]) together with the complete new vector.
//! Members whose recomputed bits coincide with their current bits below
//! `l_α` — the common case under skewed and working-set workloads, where
//! the communicating pair is already grouped together and the split
//! decisions reproduce the existing partition — do not appear at all, so
//! the install step ([`SkipGraph::apply_membership_batch`]) touches only the
//! lists that genuinely change. [`TransformOutcome::touched_pairs`] counts
//! the changed `(node, level)` pairs, the quantity the install's work is
//! proportional to.
//!
//! ## The dense trace
//!
//! A member is addressed by its *position* in `members_alpha` (ascending
//! key order) throughout, so neither the per-level loop nor the trace it
//! hands on hashes a [`NodeId`]. The trace lives in flat buffers that the
//! caller recycles across transformations ([`plan_transformation`] refills
//! a [`TransformOutcome`] in place):
//!
//! * per position: the vector before and after
//!   ([`TransformOutcome::before`], [`TransformOutcome::after`]), the
//!   levels at which the member's group was split
//!   ([`TransformOutcome::split_levels`], one [`LevelSet`] bitmask each)
//!   and the pre-merge group masks of the pairs
//!   ([`TransformOutcome::u_groups`], [`TransformOutcome::v_groups`]);
//! * per list that computed a median: the level, the median and its
//!   members, concatenated in one buffer ([`TransformOutcome::median_lists`]),
//!   since every member of a list receives the same median;
//! * the state writes, as a [`StateDelta`] ([`TransformOutcome::delta`]).
//!
//! The group-base rules (`groups`) read the split levels; the timestamp
//! rules (`timestamps`) read all of it; the install reads the diff plan
//! ([`TransformOutcome::changes`]).

use dsg_skipgraph::{Bit, MembershipUpdate, MembershipVector, NodeId, SkipGraph};

use crate::amf::MedianFinder;
use crate::priority::{
    band_of, mix_group_id, negative_band_priority, p2_priority, pair_top_priority,
    recomputed_priority, Priority,
};
use crate::state::{StateDelta, StateTable};

/// The most pairs one transformation epoch may serve: work items track the
/// pairs they contain in a `u64` bitmask. The session layer flushes an
/// epoch before it accumulates more.
pub const MAX_EPOCH_PAIRS: usize = 64;

/// Marks a member position that is no pair's endpoint.
const NO_PAIR: u16 = u16::MAX;

/// One communicating pair served by a transformation epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformPair {
    /// The communicating source.
    pub u: NodeId,
    /// The communicating destination.
    pub v: NodeId,
    /// The request time `t` of this pair (1-based request index; strictly
    /// ascending across the pairs of one epoch).
    pub t: u64,
}

/// Parameters of one transformation epoch: one or more communicating pairs
/// rebuilt together over the subtree rooted at the level-`alpha` list that
/// contains every endpoint.
///
/// With a single pair this is exactly Algorithm 1. With several pairs the
/// engine generalises rule P1: each pair receives a distinct finite top
/// priority keyed by its request time ([`pair_top_priority`]), so every
/// threshold split keeps each pair together while later (more recent)
/// pairs dominate earlier ones — the documented deterministic tie-break
/// for overlapping requests in one batch.
#[derive(Debug, Clone, Copy)]
pub struct TransformInput<'a> {
    /// The pairs of the epoch, in submission order (ascending `t`).
    /// Non-empty; at most [`MAX_EPOCH_PAIRS`].
    pub pairs: &'a [TransformPair],
    /// The level of the rebuilt subtree's root list: the highest common
    /// level of the single pair, or the meet of the pairs' `l_α` roots.
    pub alpha: usize,
    /// The balance parameter `a`.
    pub a: usize,
}

impl TransformInput<'_> {
    /// The epoch time: the time of the most recent pair. Rules P3/P4 and
    /// the band arithmetic use one shared `t` per epoch; for a single-pair
    /// epoch this is exactly the paper's request time.
    pub fn t_epoch(&self) -> u64 {
        self.pairs.last().map(|p| p.t).unwrap_or(0)
    }
}

/// A set of levels in `1..=128` — the levels a transformation can split a
/// group at (the level of the new sublists) — as one bitmask.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelSet(u128);

impl LevelSet {
    /// Adds `level` (in `1..=128`).
    pub fn insert(&mut self, level: usize) {
        debug_assert!((1..=128).contains(&level), "split levels lie in 1..=128");
        self.0 |= 1u128 << (level - 1);
    }

    /// Whether `level` is in the set.
    pub fn contains(&self, level: usize) -> bool {
        (1..=128).contains(&level) && self.0 & (1u128 << (level - 1)) != 0
    }

    /// The lowest level in the set.
    pub fn lowest(&self) -> Option<usize> {
        (self.0 != 0).then(|| self.0.trailing_zeros() as usize + 1)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// The levels in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                bit as usize + 1
            })
        })
    }
}

/// One list of the transformation that computed an approximate median.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MedianList {
    /// The level at which the list was split (the median decides the bit
    /// of level `level + 1`).
    level: usize,
    /// The approximate median every member received.
    median: Priority,
    /// The list's members: `median_members[start..end]` of the outcome.
    start: u32,
    end: u32,
}

/// The trace of one transformation, consumed by the install, the group-base
/// and timestamp rules and the cost accounting. Every per-member field is
/// indexed by the member's position in `members_alpha`.
#[derive(Debug, Clone, Default)]
pub struct TransformOutcome {
    /// The level `α` of the rebuilt subtree's root list.
    pub alpha: usize,
    /// Per position: the member's membership vector before the
    /// transformation.
    pub before: Vec<MembershipVector>,
    /// Per position: the member's membership vector after it — the bits of
    /// levels up to `α` kept, the new bits for levels `α+1` upward.
    pub after: Vec<MembershipVector>,
    /// The differential install plan: one entry per member whose new vector
    /// *differs* from the one currently installed, carrying the first
    /// changed level and the complete new vector. Members whose bits are
    /// unchanged below `l_α` are absent — the batch installer skips them
    /// entirely. Ordered by position in `members_alpha` (ascending key).
    pub changes: Vec<MembershipUpdate>,
    /// Number of changed `(node, level)` pairs across [`Self::changes`] —
    /// the quantity the differential install's work is proportional to.
    pub touched_pairs: usize,
    /// The level `d'_i` at which each pair forms its linked list of size
    /// two, indexed like [`TransformInput::pairs`].
    pub pair_levels: Vec<usize>,
    /// The positions of each pair's `u` and `v` in `members_alpha`, indexed
    /// like [`TransformInput::pairs`] (`usize::MAX` for an endpoint outside
    /// the root list).
    pub endpoints: Vec<(usize, usize)>,
    /// Per position: bit `j` is set when the member was in pair `j`'s `u`
    /// group at level `α` before the merge (and is neither endpoint of
    /// pair `j`).
    pub u_groups: Vec<u64>,
    /// Per position: the same for pair `j`'s `v` group.
    pub v_groups: Vec<u64>,
    /// Per position: the levels at which the group the member belonged to
    /// was split by this transformation (rule T5 and the group-base updates
    /// of Appendix C need them): the level of the *new* sublists.
    pub split_levels: Vec<LevelSet>,
    /// The lists that computed a median, in processing order (a member's
    /// lists appear in ascending level order); read through
    /// [`Self::median_lists`].
    pub(crate) medians: Vec<MedianList>,
    /// The members of `medians`, concatenated.
    pub(crate) median_members: Vec<u32>,
    /// The state writes the plan recorded (group-ids, dominating flags),
    /// applied by the caller with [`StateTable::apply_delta`].
    pub delta: StateDelta,
    /// Number of lists processed (for diagnostics).
    pub processed_lists: usize,
    /// Rounds spent on median computations (including skip-list builds).
    pub median_rounds: usize,
    /// Rounds spent on distributed counts and group-id broadcasts.
    pub group_accounting_rounds: usize,
    /// Rounds spent on neighbour searches after moves (≤ `a` per level).
    pub restructuring_rounds: usize,
}

impl TransformOutcome {
    /// The lists that computed a median, in processing order, each with
    /// its level, its median and its members' positions.
    pub fn median_lists(&self) -> impl Iterator<Item = (usize, Priority, &[u32])> + '_ {
        self.medians.iter().map(|list| {
            let members = &self.median_members[list.start as usize..list.end as usize];
            (list.level, list.median, members)
        })
    }

    /// Records that the members at positions `members` formed a list at
    /// `level` and received `median`.
    pub fn push_median_list(&mut self, level: usize, median: Priority, members: &[u32]) {
        let start = self.median_members.len() as u32;
        self.median_members.extend_from_slice(members);
        self.medians.push(MedianList {
            level,
            median,
            start,
            end: self.median_members.len() as u32,
        });
    }

    /// Empties the trace for a transformation over `members` members and
    /// `pairs` pairs, keeping every buffer's capacity.
    fn reset(&mut self, alpha: usize, members: usize, pairs: usize) {
        self.alpha = alpha;
        self.before.clear();
        self.after.clear();
        self.changes.clear();
        self.touched_pairs = 0;
        self.pair_levels.clear();
        self.pair_levels.resize(pairs, 0);
        self.endpoints.clear();
        self.endpoints.resize(pairs, (usize::MAX, usize::MAX));
        self.u_groups.clear();
        self.u_groups.resize(members, 0);
        self.v_groups.clear();
        self.v_groups.resize(members, 0);
        self.split_levels.clear();
        self.split_levels.resize(members, LevelSet::default());
        self.medians.clear();
        self.median_members.clear();
        self.delta.clear();
        self.processed_lists = 0;
        self.median_rounds = 0;
        self.group_accounting_rounds = 0;
        self.restructuring_rounds = 0;
    }
}

/// One list awaiting a split: a range of the scratch's member order, which
/// holds the list's members as positions into `members_alpha` in ascending
/// order (hence ascending key order). Splitting a list partitions its range
/// stably in place, so the two sublists are the two halves of it.
#[derive(Debug, Clone, Copy)]
struct WorkItem {
    /// The level at which the members currently form a linked list.
    list_level: usize,
    start: usize,
    end: usize,
    /// Bitmask of the epoch pairs whose *both* endpoints are in this list.
    pairs: u64,
}

/// The round costs of one level: lists at the same level are processed
/// *in parallel* by the distributed algorithm, so a level is charged the
/// maximum over its lists, not the sum.
#[derive(Debug, Clone, Copy, Default)]
struct LevelCost {
    median: usize,
    group: usize,
    restructured: bool,
}

/// Reusable buffers of the transformation's planning half, owned by the
/// caller so a warm epoch plans without allocating.
#[derive(Debug, Default)]
pub struct TransformScratch {
    /// Per position: the member's current priority.
    priorities: Vec<Priority>,
    /// Per position: the member's group-id at the level of the list it is
    /// currently in, as decided by this transformation so far.
    group_ids: Vec<u64>,
    /// Per position: the pair the member is an endpoint of, or [`NO_PAIR`].
    pair_of_pos: Vec<u16>,
    /// Member positions, partitioned in place list by list.
    order: Vec<u32>,
    ones: Vec<u32>,
    stack: Vec<WorkItem>,
    levels: Vec<LevelCost>,
    values: Vec<Priority>,
    bits: Vec<Bit>,
    gs_mask: Vec<bool>,
    group_scratch: Vec<(u64, u32)>,
    /// Per pair: the group-ids of `u` and `v` at the root level before the
    /// merge.
    pair_groups: Vec<(u64, u64)>,
}

/// Plans the transformation of one epoch cluster: computes the full trace —
/// new membership vectors, the differential install plan, medians, split
/// events — against a **read-only** graph and state table, recording every
/// intended state write in [`TransformOutcome::delta`] instead of mutating
/// the table. `outcome` is overwritten; its buffers and `scratch`'s are
/// reused, so a warm plan allocates nothing.
///
/// `members_alpha` must be the members of the root list at `input.alpha`
/// in ascending key order with dummy nodes already removed, containing
/// every pair endpoint. Group-ids at the root level are merged per pair in
/// submission order (Algorithm 1 step 3, recorded in the delta); deeper
/// group-ids are assigned as lists form (step 8); timestamps are *not*
/// touched (the caller applies rules T1–T6 per pair using the trace, after
/// applying the delta). `graph` must still hold the *pre-transformation*
/// membership vectors: the differential install plan
/// ([`TransformOutcome::changes`]) is computed against them.
///
/// Everything this function reads is borrowed immutably, so every cluster
/// of an epoch is planned before any of them mutates the engine; the
/// caller applies the deltas in submission order, which replays the exact
/// write sequence a mutating engine would have produced.
pub fn plan_transformation(
    graph: &SkipGraph,
    states: &StateTable,
    median_finder: &mut dyn MedianFinder,
    input: &TransformInput,
    members_alpha: &[NodeId],
    scratch: &mut TransformScratch,
    outcome: &mut TransformOutcome,
) {
    let npairs = input.pairs.len();
    assert!(
        (1..=MAX_EPOCH_PAIRS).contains(&npairs),
        "a transformation epoch serves 1..={MAX_EPOCH_PAIRS} pairs"
    );
    let alpha = input.alpha;
    let t_epoch = input.t_epoch();
    let n_total = members_alpha.len();
    outcome.reset(alpha, n_total, npairs);
    let TransformScratch {
        priorities,
        group_ids,
        pair_of_pos,
        order,
        ones,
        stack,
        levels,
        values,
        bits,
        gs_mask,
        group_scratch,
        pair_groups,
    } = scratch;

    // Which pair (if any) each member position is an endpoint of, plus the
    // root-item mask of pairs with both endpoints present. Members are in
    // ascending key order, so each endpoint is found by binary search.
    pair_of_pos.clear();
    pair_of_pos.resize(n_total, NO_PAIR);
    let mut seen = [0u8; MAX_EPOCH_PAIRS];
    for (i, pair) in input.pairs.iter().enumerate() {
        for (which, node) in [(0, pair.u), (1, pair.v)] {
            let key = graph.key_of(node).expect("endpoint is live");
            let found = members_alpha
                .binary_search_by_key(&key, |&m| graph.key_of(m).expect("member is live"));
            if let Ok(pos) = found {
                pair_of_pos[pos] = i as u16;
                seen[i] += 1;
                if which == 0 {
                    outcome.endpoints[i].0 = pos;
                } else {
                    outcome.endpoints[i].1 = pos;
                }
            }
        }
    }
    let mut root_pairs = 0u64;
    for (i, &count) in seen.iter().take(npairs).enumerate() {
        if count == 2 {
            root_pairs |= 1 << i;
        }
    }

    // Step 2: initial priorities P1–P3 for every member of the root list,
    // and the snapshot of each pair's groups before the merge (rule T3).
    // P1 generalises to one distinct top priority per pair; P2 matches a
    // member against the pairs' groups in submission order (first match
    // wins — the deterministic tie-break when groups are shared).
    pair_groups.clear();
    pair_groups.extend(input.pairs.iter().map(|pair| {
        (
            states.group_id(pair.u, alpha),
            states.group_id(pair.v, alpha),
        )
    }));
    priorities.clear();
    group_ids.clear();
    outcome.before.reserve(n_total);
    outcome.after.reserve(n_total);
    for (pos, &x) in members_alpha.iter().enumerate() {
        let gx = states.group_id(x, alpha);
        group_ids.push(gx);
        let before = graph.mvec_of(x).expect("member is live");
        outcome.before.push(before);
        let mut after = before;
        if n_total > 1 {
            after.truncate(alpha);
        }
        outcome.after.push(after);
        let (mut u_mask, mut v_mask) = (0u64, 0u64);
        let mut p2 = None;
        for (j, (pair, &(gu, gv))) in input.pairs.iter().zip(pair_groups.iter()).enumerate() {
            if gx == gu && p2.is_none() {
                p2 = Some(pair.u);
            } else if gx == gv && p2.is_none() {
                p2 = Some(pair.v);
            }
            if x != pair.u && x != pair.v {
                u_mask |= u64::from(gx == gu) << j;
                v_mask |= u64::from(gx == gv) << j;
            }
        }
        outcome.u_groups[pos] = u_mask;
        outcome.v_groups[pos] = v_mask;
        priorities.push(match (pair_of_pos[pos], p2) {
            (p, _) if p != NO_PAIR => pair_top_priority(npairs, input.pairs[p as usize].t),
            (_, Some(anchor)) => p2_priority(states, alpha, x, anchor),
            (_, None) => recomputed_priority(states, t_epoch, alpha, x),
        });
    }

    // Step 3: merge each pair's groups at the root level, in submission
    // order (later pairs see — and may absorb — earlier merges). Planned
    // against the local group-ids: the shared table stays untouched, the
    // delta records every write.
    for (i, pair) in input.pairs.iter().enumerate() {
        let (u_pos, v_pos) = outcome.endpoints[i];
        let gu = group_ids
            .get(u_pos)
            .copied()
            .unwrap_or_else(|| states.group_id(pair.u, alpha));
        let gv = group_ids
            .get(v_pos)
            .copied()
            .unwrap_or_else(|| states.group_id(pair.v, alpha));
        let u_key = states.get(pair.u).key().value();
        for (pos, gx) in group_ids.iter_mut().enumerate() {
            if *gx == gu || *gx == gv {
                *gx = u_key;
                outcome
                    .delta
                    .push_group_id(members_alpha[pos], alpha, u_key);
            }
        }
    }

    // Steps 4–9: recursive, level-parallel splitting over a stack of lists
    // (last in, first out: the 1-sublist of a split is processed before
    // the 0-sublist, which fixes the order the median finder's random
    // draws are consumed in).
    order.clear();
    order.extend(0..n_total as u32);
    levels.clear();
    stack.clear();
    stack.push(WorkItem {
        list_level: alpha,
        start: 0,
        end: n_total,
        pairs: root_pairs,
    });

    while let Some(item) = stack.pop() {
        let n = item.end - item.start;
        if n <= 1 {
            continue;
        }
        outcome.processed_lists += 1;
        let level = item.list_level;
        let next_level = level + 1;
        if levels.len() <= level - alpha {
            levels.resize(level - alpha + 1, LevelCost::default());
        }
        let members = &order[item.start..item.end];

        bits.clear();
        if n == 2 {
            // A list of exactly two nodes splits into singletons directly:
            // a communicating pair stops here (this is its level d' of rule
            // T1) as `u → 0, v → 1`; any other two nodes are separated by
            // key order, i.e. by position.
            if item.pairs != 0 {
                let p = item.pairs.trailing_zeros() as usize;
                outcome.pair_levels[p] = level;
                let u_pos = outcome.endpoints[p].0;
                bits.extend(members.iter().map(|&i| {
                    if i as usize == u_pos {
                        Bit::Zero
                    } else {
                        Bit::One
                    }
                }));
            } else {
                debug_assert!(members[0] < members[1], "lists keep ascending positions");
                bits.extend([Bit::Zero, Bit::One]);
            }
        } else {
            // Step 4: approximate median of the members' priorities.
            values.clear();
            values.extend(members.iter().map(|&i| priorities[i as usize]));
            let median_outcome = median_finder.find_median(values, input.a);
            let cost = &mut levels[level - alpha];
            cost.median = cost.median.max(median_outcome.rounds);
            let m = median_outcome.median;
            outcome.push_median_list(level, m, members);
            // Steps 5–6: decide the split.
            let used_counts = decide_split_into(
                states,
                group_ids,
                t_epoch,
                level,
                members_alpha,
                members,
                values,
                m,
                gs_mask,
                bits,
            );
            if used_counts {
                // |l_d|, |g_s|, |L_low|, |L_high| are computed by reusing the
                // balanced skip list: one distributed sum plus a broadcast.
                let rounds = 2 * (n.max(2) as f64).log2().ceil() as usize;
                let cost = &mut levels[level - alpha];
                cost.group = cost.group.max(rounds);
            }
            // Degenerate guard: the approximate median may fail to separate
            // a list (all priorities equal, or an approximate median below
            // the minimum). Force a balanced split — single-pair epochs use
            // the classic interleave-and-swap (the pair lands in the
            // 0-subgraph), multi-pair lists interleave *pair atoms* so no
            // pair is torn apart — so that the recursion always terminates.
            if bits.iter().all(|b| *b == bits[0]) {
                if npairs > 1 && item.pairs != 0 {
                    forced_atom_split_into(pair_of_pos, item.pairs, members, bits);
                } else {
                    forced_balanced_split_into(&outcome.endpoints, item.pairs, members, bits);
                }
            }
            // Case 1 records the is-dominating-group flags. Reads of these
            // flags (the Case-2 dominating split) and this write target the
            // same level, but a list takes exactly one of the two cases, so
            // no planning read can observe a same-transformation write —
            // recording them in the delta is exact.
            if m.is_positive() {
                for (&i, &bit) in members.iter().zip(bits.iter()) {
                    outcome.delta.push_dominating(
                        members_alpha[i as usize],
                        level,
                        bit == Bit::Zero,
                    );
                }
            }
        }

        // Step 8: group bookkeeping for the new sublists. Neighbour search
        // after the move is bounded by the balance parameter (§IV-C), plus
        // the a-balance chain check of step 7; all lists of a level perform
        // it in parallel.
        let level_group_rounds = assign_new_group_ids(
            group_ids,
            &mut outcome.delta,
            &mut outcome.split_levels,
            graph,
            next_level,
            members_alpha,
            members,
            bits,
            group_scratch,
        );
        let cost = &mut levels[level - alpha];
        cost.group = cost.group.max(level_group_rounds);
        cost.restructured = true;

        // Record the new membership bits and partition the list stably in
        // place: 0-members first, then 1-members. A pair's endpoints always
        // take the same bit (they share one priority value and the forced
        // splits keep atoms whole), so a pair of the parent mask lands
        // entirely in one child; the seen-masks track that robustly rather
        // than assuming it.
        let (mut zero_seen, mut one_seen) = ([0u64; 2], [0u64; 2]);
        ones.clear();
        let mut write = item.start;
        for idx in 0..n {
            let i = order[item.start + idx];
            let pos = i as usize;
            let bit = bits[idx];
            outcome.after[pos]
                .push(bit)
                .expect("transformation depth stays far below the 128-level height cap");
            let seen = match bit {
                Bit::Zero => {
                    order[write] = i;
                    write += 1;
                    &mut zero_seen
                }
                Bit::One => {
                    ones.push(i);
                    &mut one_seen
                }
            };
            let p = pair_of_pos[pos];
            if p != NO_PAIR {
                seen[usize::from(pos != outcome.endpoints[p as usize].0)] |= 1 << p;
            }
        }
        order[write..item.end].copy_from_slice(ones);
        let zero = WorkItem {
            list_level: next_level,
            start: item.start,
            end: write,
            pairs: zero_seen[0] & zero_seen[1] & item.pairs,
        };
        let one = WorkItem {
            list_level: next_level,
            start: write,
            end: item.end,
            pairs: one_seen[0] & one_seen[1] & item.pairs,
        };

        // Priorities are recomputed with rule P4 for sublists that no
        // longer contain any communicating pair. The group-id at the new
        // level was just assigned by this transformation; the timestamp
        // read is safe against the base table (the transformation never
        // writes timestamps).
        for sublist in [zero, one] {
            if sublist.pairs == 0 {
                for &i in &order[sublist.start..sublist.end] {
                    let pos = i as usize;
                    priorities[pos] = negative_band_priority(
                        group_ids[pos],
                        t_epoch,
                        states.timestamp(members_alpha[pos], next_level + 1),
                    );
                }
            }
        }

        // Step 9: recurse on both sublists.
        stack.push(zero);
        stack.push(one);
    }

    for cost in levels.iter() {
        outcome.median_rounds += cost.median;
        outcome.group_accounting_rounds += cost.group;
        outcome.restructuring_rounds += usize::from(cost.restructured) * (input.a + 1);
    }

    // The differential install plan, in position (ascending key) order.
    for (pos, (&before, &after)) in outcome.before.iter().zip(&outcome.after).enumerate() {
        if after != before {
            let from_level = before.common_prefix_len(&after) + 1;
            outcome.touched_pairs += before.len().max(after.len()) + 1 - from_level;
            outcome.changes.push(MembershipUpdate {
                node: members_alpha[pos],
                from_level,
                new_mvec: after,
            });
        }
    }
}

/// A forced split used when priorities cannot separate a list (all values
/// tied, or an approximate median outside the value range). Members are
/// *interleaved* by list position — the same shape a perfectly balanced
/// skip graph uses — so that repeated forced splits keep routing paths
/// short instead of producing key-contiguous sublists. The communicating
/// pair of a single-pair epoch (if present) is kept in the 0-half; lists
/// holding several pairs use [`forced_atom_split_into`] instead.
fn forced_balanced_split_into(
    endpoints: &[(usize, usize)],
    item_pairs: u64,
    members: &[u32],
    bits: &mut Vec<Bit>,
) {
    let n = members.len();
    bits.clear();
    bits.extend((0..n).map(|i| if i % 2 == 0 { Bit::Zero } else { Bit::One }));
    if item_pairs != 0 {
        let (u_pos, v_pos) = endpoints[item_pairs.trailing_zeros() as usize];
        let is_endpoint = |i: u32| i as usize == u_pos || i as usize == v_pos;
        for target in [u_pos, v_pos] {
            if let Some(pos) = members.iter().position(|&i| i as usize == target) {
                if bits[pos] == Bit::One {
                    // Swap with a 0-half node that is not the other endpoint.
                    if let Some(swap) =
                        (0..n).find(|&k| bits[k] == Bit::Zero && !is_endpoint(members[k]))
                    {
                        bits.swap(pos, swap);
                    }
                }
            }
        }
    }
}

/// The multi-pair forced split: members are grouped into *atoms* — a
/// communicating pair forms one atom, every other member is its own atom —
/// and atoms are interleaved 0/1 in list order. No pair can be torn apart
/// (both endpoints copy the atom's bit), every list with at least two
/// atoms splits into two non-empty halves, and the result is deterministic
/// in list order. (A two-member list is split directly before this path
/// can be reached, so atom count ≥ 2 here.)
fn forced_atom_split_into(
    pair_of_pos: &[u16],
    item_pairs: u64,
    members: &[u32],
    bits: &mut Vec<Bit>,
) {
    bits.clear();
    let mut pair_bit = [None::<Bit>; MAX_EPOCH_PAIRS];
    let mut next = Bit::Zero;
    for &i in members {
        let p = pair_of_pos[i as usize];
        let bit = if p != NO_PAIR && item_pairs & (1 << p) != 0 {
            match pair_bit[p as usize] {
                // Second endpoint: copy the pair's bit, don't alternate.
                Some(bit) => bit,
                None => {
                    pair_bit[p as usize] = Some(next);
                    let bit = next;
                    next = next.flipped();
                    bit
                }
            }
        } else {
            let bit = next;
            next = next.flipped();
            bit
        };
        bits.push(bit);
    }
}

/// Implements Cases 1 and 2 of §IV-C for one list, writing the membership
/// bits (parallel to `members`) into `bits`. Returns whether the
/// distributed counts of Case 2 were needed. Group-ids are this
/// transformation's current ones (the current level's ids were assigned by
/// the previous split wave); the is-dominating flags come from the base
/// table — the transformation's own flag writes can never be observed by
/// its own reads (a list takes Case 1 *or* the Case-2 dominating split,
/// never both).
#[allow(clippy::too_many_arguments)]
fn decide_split_into(
    states: &StateTable,
    group_ids: &[u64],
    t_epoch: u64,
    list_level: usize,
    members_alpha: &[NodeId],
    members: &[u32],
    priorities: &[Priority],
    median: Priority,
    gs_mask: &mut Vec<bool>,
    bits: &mut Vec<Bit>,
) -> bool {
    let n = members.len();
    let by_median = |p: &Priority| if *p >= median { Bit::Zero } else { Bit::One };
    if median.is_positive() {
        // Case 1.
        bits.extend(priorities.iter().map(by_median));
        return false;
    }
    // Case 2: the median falls inside the band of one non-communicating
    // group (equation (2)). Bands are identified by the *mixed* group
    // identifier (see `priority::mix_group_id`).
    let Some(gs_band) = band_of(median, t_epoch) else {
        bits.extend(priorities.iter().map(by_median));
        return false;
    };
    gs_mask.clear();
    gs_mask.extend(
        members
            .iter()
            .zip(priorities)
            .map(|(&i, p)| !p.is_positive() && mix_group_id(group_ids[i as usize]) == gs_band),
    );
    let gs_size = gs_mask.iter().filter(|b| **b).count();
    if gs_size == 0 {
        // The median's band does not correspond to any present group (can
        // happen with the approximate median); fall back to the plain
        // comparison split, which cannot split any group because entire
        // bands lie on one side of the median.
        bits.extend(priorities.iter().map(by_median));
        return false;
    }

    if 3 * gs_size > 2 * n {
        // |g_s| > ⅔|l|: g_s must be split, but only along its remembered
        // is-dominating-group flags; everyone else joins the 0-subgraph.
        bits.extend(members.iter().zip(gs_mask.iter()).map(|(&i, in_gs)| {
            if *in_gs && states.dominating(members_alpha[i as usize], list_level) {
                Bit::One
            } else {
                Bit::Zero
            }
        }));
    } else if 3 * gs_size < n {
        // |g_s| < ⅓|l|: keep g_s whole on the emptier side, split the rest
        // by the median comparison.
        let l_high = priorities.iter().filter(|p| **p >= median).count();
        let l_low = n - l_high;
        let gs_bit = if l_high < l_low { Bit::Zero } else { Bit::One };
        bits.extend(priorities.iter().zip(gs_mask.iter()).map(|(p, in_gs)| {
            if *in_gs {
                gs_bit
            } else {
                by_median(p)
            }
        }));
    } else {
        // ⅓|l| ≤ |g_s| ≤ ⅔|l|: g_s moves whole to the 1-subgraph, the rest
        // to the 0-subgraph.
        bits.extend(
            gs_mask
                .iter()
                .map(|in_gs| if *in_gs { Bit::One } else { Bit::Zero }),
        );
    }
    true
}

/// Assigns level-`next_level` group-ids to the members of the two new
/// sublists (Algorithm 1 step 8), records a split level for every member
/// whose group was split, and returns the rounds of the split groups'
/// id broadcasts.
///
/// Groups are found by sorting `(group-id, index)` pairs in a reusable
/// scratch buffer — no per-list hash map, and no quadratic membership
/// scans; a list whose members share one group (the common case) is
/// already sorted. Members keep ascending positions, so within a group the
/// first 1-member met has the smallest key.
///
/// Note on Algorithm 1 step 8: the paper's wording has *every* member of
/// the sublist containing u and v adopt u's group-id. The members of the
/// merged communicating group already carry u's id here (their 0-portion
/// keeps the old id, which the level-α merge set to u), so applying the
/// wording literally would only *absorb unrelated groups* that happened to
/// land in that sublist — after which a later split could separate their
/// members, violating the working-set property Lemma 2 relies on. We
/// therefore keep unrelated groups' identities intact.
#[allow(clippy::too_many_arguments)]
fn assign_new_group_ids(
    group_ids: &mut [u64],
    delta: &mut StateDelta,
    split_levels: &mut [LevelSet],
    graph: &SkipGraph,
    next_level: usize,
    members_alpha: &[NodeId],
    members: &[u32],
    bits: &[Bit],
    scratch: &mut Vec<(u64, u32)>,
) -> usize {
    scratch.clear();
    scratch.extend(
        members
            .iter()
            .enumerate()
            .map(|(idx, &i)| (group_ids[i as usize], idx as u32)),
    );
    scratch.sort_unstable();
    let mut rounds = 0usize;
    let mut start = 0usize;
    while start < scratch.len() {
        let old_id = scratch[start].0;
        let mut end = start + 1;
        while end < scratch.len() && scratch[end].0 == old_id {
            end += 1;
        }
        let group = &scratch[start..end];
        let ones = group
            .iter()
            .filter(|&&(_, idx)| bits[idx as usize] == Bit::One)
            .count();
        let split = ones > 0 && ones < group.len();
        if split {
            // Broadcasting the new id over the split part reuses the
            // balanced skip list: O(log) rounds.
            rounds += (group.len().max(2) as f64).log2().ceil() as usize;
        }
        // 0-portion: keeps the old id. 1-portion: keeps the old id if the
        // group moved whole; a split portion adopts the key of its
        // left-most member as the new id.
        let mut one_id = None;
        for &(_, idx) in group {
            let pos = members[idx as usize] as usize;
            let node = members_alpha[pos];
            let mut id = old_id;
            if split {
                split_levels[pos].insert(next_level);
                if bits[idx as usize] == Bit::One {
                    id = *one_id
                        .get_or_insert_with(|| graph.key_of(node).expect("member is live").value());
                }
            }
            group_ids[pos] = id;
            delta.push_group_id(node, next_level, id);
        }
        start = end;
    }
    rounds
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::amf::ExactMedian;
    use dsg_skipgraph::{Key, MembershipVector};

    /// Builds a flat skip graph (everyone in one level-0 list) over the
    /// given keys, registers default DSG state and returns the pieces.
    fn flat_instance(keys: &[u64]) -> (SkipGraph, StateTable, Vec<NodeId>) {
        let graph = SkipGraph::from_members(
            keys.iter()
                .map(|&k| (Key::new(k), MembershipVector::empty())),
        )
        .unwrap();
        let mut states = StateTable::new();
        let mut ids = Vec::new();
        for &k in keys {
            let id = graph.node_by_key(Key::new(k)).unwrap();
            states.register(id, Key::new(k), 0);
            ids.push(id);
        }
        (graph, states, ids)
    }

    /// Plans one single-pair transformation over `members` at α = 0 with
    /// the exact median, applies its state writes, and returns the trace
    /// together with every member's new suffix bits.
    fn run(
        graph: &SkipGraph,
        states: &mut StateTable,
        u: NodeId,
        v: NodeId,
        t: u64,
        members: &[NodeId],
    ) -> (TransformOutcome, HashMap<NodeId, Vec<Bit>>) {
        let pairs = [TransformPair { u, v, t }];
        let input = TransformInput {
            pairs: &pairs,
            alpha: 0,
            a: 3,
        };
        let mut outcome = TransformOutcome::default();
        plan_transformation(
            graph,
            states,
            &mut ExactMedian,
            &input,
            members,
            &mut TransformScratch::default(),
            &mut outcome,
        );
        states.apply_delta(&outcome.delta);
        let suffixes = members
            .iter()
            .enumerate()
            .map(|(pos, &x)| (x, outcome.after[pos].iter().skip(outcome.alpha).collect()))
            .collect();
        (outcome, suffixes)
    }

    #[test]
    fn level_sets_iterate_in_ascending_order() {
        let mut set = LevelSet::default();
        assert!(set.is_empty());
        assert_eq!(set.lowest(), None);
        for level in [7, 1, 128, 3] {
            set.insert(level);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![1, 3, 7, 128]);
        assert_eq!(set.lowest(), Some(1));
        assert!(set.contains(128) && set.contains(3));
        assert!(!set.contains(0) && !set.contains(2) && !set.contains(129));
    }

    #[test]
    fn communicating_pair_ends_in_a_two_node_list() {
        let keys = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let (graph, mut states, ids) = flat_instance(&keys);
        let u = ids[0];
        let v = ids[5];
        let (outcome, suffixes) = run(&graph, &mut states, u, v, 1, &ids);

        // Every member received new bits.
        assert!(suffixes.values().all(|bits| !bits.is_empty()));
        // u and v share a prefix up to the pair level and then split 0/1.
        let su = &suffixes[&u];
        let sv = &suffixes[&v];
        let common = su
            .iter()
            .zip(sv.iter())
            .take_while(|(a, b)| a == b)
            .count();
        assert_eq!(common, outcome.pair_levels[0], "shared prefix up to d'");
        assert_eq!(su.get(common), Some(&Bit::Zero), "u moves to the 0-subgraph");
        assert_eq!(sv.get(common), Some(&Bit::One));
        // The pair always moves to 0-subgraphs on the way down.
        assert!(su[..common].iter().all(|b| *b == Bit::Zero));
    }

    #[test]
    fn all_nodes_become_singletons() {
        let keys: Vec<u64> = (1..=20).collect();
        let (graph, mut states, ids) = flat_instance(&keys);
        let (_, suffixes) = run(&graph, &mut states, ids[2], ids[17], 1, &ids);
        // Apply the suffixes to a scratch graph and verify every node ends
        // up singleton, i.e. all suffix paths are distinct.
        let mut suffix_strings: Vec<String> = suffixes
            .values()
            .map(|bits| bits.iter().map(|b| b.as_u8().to_string()).collect())
            .collect();
        suffix_strings.sort();
        // No suffix may be a prefix of another (that would leave a
        // non-singleton list at the top of one of the paths).
        for pair in suffix_strings.windows(2) {
            assert!(
                !pair[1].starts_with(pair[0].as_str()),
                "suffix {} is a prefix of {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn merged_group_id_becomes_u() {
        let keys = [10u64, 20, 30, 40];
        let (graph, mut states, ids) = flat_instance(&keys);
        let u = ids[1]; // key 20
        let v = ids[3]; // key 40
        // Put v in a pre-existing group with node 30 at level 0.
        states.set_group_id(ids[2], 0, 40);
        states.set_group_id(ids[3], 0, 40);
        let _ = run(&graph, &mut states, u, v, 2, &ids);
        // After the merge every member of u's or v's old group holds u's key
        // at level 0.
        assert_eq!(states.group_id(u, 0), 20);
        assert_eq!(states.group_id(v, 0), 20);
        assert_eq!(states.group_id(ids[2], 0), 20);
        // Node 10 was in neither group and keeps its own id.
        assert_eq!(states.group_id(ids[0], 0), 10);
    }

    #[test]
    fn forced_split_handles_identical_priorities() {
        // All nodes other than the pair share one group with identical
        // timestamps, so every priority in a sublist can tie; the engine
        // must still terminate with singleton lists.
        let keys: Vec<u64> = (1..=9).collect();
        let (graph, mut states, ids) = flat_instance(&keys);
        for &x in &ids {
            states.set_group_id(x, 0, 99);
            states.set_timestamp(x, 1, 0);
        }
        let (outcome, suffixes) = run(&graph, &mut states, ids[0], ids[8], 3, &ids);
        assert!(suffixes.values().all(|bits| !bits.is_empty()));
        assert!(outcome.processed_lists >= 4);
    }

    #[test]
    fn case2_keeps_small_noncommunicating_groups_whole() {
        // Ten nodes: the pair (keys 1, 2), and two non-communicating groups
        // g=50 (3 members) and g=60 (5 members). With an exact median the
        // median priority lands in one of the negative bands; whichever case
        // applies, no non-communicating group may be split.
        let keys = [1u64, 2, 11, 12, 13, 21, 22, 23, 24, 25];
        let (graph, mut states, ids) = flat_instance(&keys);
        for &x in &ids[2..5] {
            states.set_group_id(x, 0, 50);
        }
        for &x in &ids[5..10] {
            states.set_group_id(x, 0, 60);
        }
        let (_, suffixes) = run(&graph, &mut states, ids[0], ids[1], 4, &ids);
        // Group 50 members must share their full suffix path until their
        // group's own internal splits; at the very least their first bit
        // must be identical (they may not be separated at level 1), and the
        // same holds for group 60.
        let first_bits_50: Vec<Bit> = ids[2..5].iter().map(|x| suffixes[x][0]).collect();
        assert!(first_bits_50.windows(2).all(|w| w[0] == w[1]));
        let first_bits_60: Vec<Bit> = ids[5..10].iter().map(|x| suffixes[x][0]).collect();
        assert!(first_bits_60.windows(2).all(|w| w[0] == w[1]));
        // The communicating pair still ends up alone together.
        assert_eq!(suffixes[&ids[0]].last(), Some(&Bit::Zero));
        assert_eq!(suffixes[&ids[1]].last(), Some(&Bit::One));
    }

    #[test]
    fn dominating_flags_are_recorded_on_positive_medians() {
        let keys = [1u64, 2, 3, 4, 5, 6];
        let (graph, mut states, ids) = flat_instance(&keys);
        let u = ids[0];
        let v = ids[1];
        // Give nodes 3..6 membership in u's group with assorted timestamps
        // so that the first median is positive.
        for (i, &x) in ids[2..].iter().enumerate() {
            states.set_group_id(x, 0, 1);
            states.set_timestamp(x, 0, (i + 1) as u64);
            states.set_timestamp(x, 1, (i + 1) as u64);
        }
        states.set_timestamp(u, 0, 9);
        states.set_timestamp(u, 1, 9);
        let _ = run(&graph, &mut states, u, v, 10, &ids);
        // At level 0 the median was positive, so every member has an
        // explicit dominating flag and the flags agree with the first bit
        // they took.
        for &x in &ids {
            let first_bit = states.dominating(x, 0);
            // u and v always take bit 0 at level 1.
            if x == u || x == v {
                assert!(first_bit);
            }
        }
    }

    #[test]
    fn split_events_are_reported_for_the_merged_group() {
        let keys = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let (graph, mut states, ids) = flat_instance(&keys);
        let u = ids[0];
        let v = ids[7];
        // Everyone is in u's group with distinct timestamps: the merged
        // group must be split repeatedly on the way to the singleton lists.
        for (i, &x) in ids.iter().enumerate() {
            states.set_group_id(x, 0, 1);
            states.set_timestamp(x, 0, (i + 1) as u64);
            states.set_timestamp(x, 1, (i + 1) as u64);
        }
        let (outcome, _) = run(&graph, &mut states, u, v, 20, &ids);
        assert!(
            outcome.split_levels.iter().any(|levels| !levels.is_empty()),
            "splitting the merged group must be recorded"
        );
        assert!(outcome.median_rounds > 0);
        assert!(outcome.restructuring_rounds > 0);
    }
}
