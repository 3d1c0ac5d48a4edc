//! Timestamp reassignment — rules T1–T6 (paper §IV-E).
//!
//! Timestamps encode *how attached* a node is to its group at every level:
//! a larger timestamp at level `d` means the node joined (or re-confirmed)
//! its level-`d` group more recently. Priorities (rules P2–P4) and the
//! correctness argument of Lemma 2 both hinge on them, so after every
//! transformation the nodes of `l_α` rewrite their timestamps according to
//! six rules applied in order.
//!
//! Two of the paper's rules are stated with overloaded index variables; the
//! interpretation choices made here are documented inline:
//!
//! * **T2** — "the approximate median received by `x` at level `d`" is read
//!   as the median received when splitting the list at level `d` (deciding
//!   the bit for level `d + 1`), and the common-postfix length `c'` is read
//!   as the highest level at which `x` and its nearest communicating node
//!   shared a list before the transformation (the semantically meaningful
//!   quantity in both of the paper's uses).
//! * **T4** — the literal text copies a zero timestamp downward, which is a
//!   no-op; it is read as the intended gap-fill: the lowest level whose
//!   timestamp is still unset inherits the first set timestamp above it.
//!
//! The rules read the transformation's dense trace
//! ([`TransformOutcome`]), where a member is addressed by its position in
//! `members_alpha`: the vectors before and after, the pre-merge group
//! masks of each pair, the split levels, and the medians, recorded once
//! per list with the list's members. Rule T2 therefore walks the lists,
//! not the members; it writes only the visited member's own timestamps,
//! and each member meets its lists in ascending level order, so the result
//! is the member-by-member one.

use dsg_skipgraph::{NodeId, SkipGraph};

use crate::priority::Priority;
use crate::state::StateTable;
use crate::transform::TransformOutcome;

/// Inputs for the timestamp rules.
#[derive(Debug, Clone, Copy)]
pub struct TimestampInput<'a> {
    /// The communicating source.
    pub u: NodeId,
    /// The communicating destination.
    pub v: NodeId,
    /// The request time `t`.
    pub t: u64,
    /// The highest common level `α`.
    pub alpha: usize,
    /// This request's index among the transformation's pairs: it selects
    /// the pair's level `d'` ([`TransformOutcome::pair_levels`]), its
    /// endpoints' positions and its pre-merge group masks. An epoch applies
    /// the rules once per pair.
    pub pair: usize,
    /// Members of `l_α` (dummies excluded), key order.
    pub members_alpha: &'a [NodeId],
    /// Nodes that initialised or received `G_lower` (rule T4).
    pub glower_recipients: &'a [NodeId],
    /// The transformation trace. Its after-vectors are the
    /// post-transformation membership vectors, so the rules give the same
    /// result whether they run before or after the (possibly deferred,
    /// epoch-batched) install.
    pub outcome: &'a TransformOutcome,
}

impl TimestampInput<'_> {
    /// Positions of this pair's `u` and `v` in `members_alpha`.
    fn endpoints(&self) -> (usize, usize) {
        self.outcome.endpoints[self.pair]
    }
}

/// Applies rules T1–T6 in order. Post-transformation membership vectors
/// come from the trace, so the caller may invoke this either after the
/// install (the classic order) or before a deferred epoch-batched install.
pub fn apply_timestamp_rules(
    graph: &SkipGraph,
    states: &mut StateTable,
    input: &TimestampInput<'_>,
) {
    rule_t1(states, input);
    rule_t2(graph, states, input);
    rule_t3(states, input);
    rule_t4(states, input);
    rule_t5(states, input);
    rule_t6(states, input);
}

/// T1: the communicating pair stamps the level `d'` at which it forms its
/// two-node list (and the singleton level above) with the current time, and
/// harmonises the timestamps of the shared levels below.
fn rule_t1(states: &mut StateTable, input: &TimestampInput<'_>) {
    let d = input.outcome.pair_levels[input.pair];
    for x in [input.u, input.v] {
        states.set_timestamp(x, d, input.t);
        states.set_timestamp(x, d + 1, input.t);
    }
    let floor = states
        .group_base(input.u)
        .min(states.group_base(input.v));
    let mut level = d;
    while level > floor {
        level -= 1;
        let merged = states
            .timestamp(input.u, level)
            .max(states.timestamp(input.v, level));
        states.set_timestamp(input.u, level, merged);
        states.set_timestamp(input.v, level, merged);
    }
}

/// T2: nodes that remain in `u`'s group above `α` inherit, for each such
/// level, either an older timestamp of their own that already exceeds the
/// median they survived, or the median itself.
fn rule_t2(graph: &SkipGraph, states: &mut StateTable, input: &TimestampInput<'_>) {
    let u_key = graph.key_of(input.u).map(|k| k.value()).unwrap_or_default();
    let (u_pos, v_pos) = input.endpoints();
    let before = &input.outcome.before;
    let (old_u, old_v) = (before[u_pos], before[v_pos]);
    for (d, median, members) in input.outcome.median_lists() {
        let u_group = states.group_id(input.u, d);
        let median_ts = median_as_timestamp(median, input.t);
        for &i in members {
            let pos = i as usize;
            if pos == u_pos || pos == v_pos {
                continue;
            }
            let x = input.members_alpha[pos];
            let group = states.group_id(x, d);
            if group != u_key && group != u_group {
                continue;
            }
            // The nearest communicating node before the transformation:
            // the one sharing the longer membership-vector prefix with x.
            let old_x = &before[pos];
            let c_prime = old_u
                .common_prefix_len(old_x)
                .max(old_v.common_prefix_len(old_x));
            // The lowest level c in [α, c') whose timestamp already exceeds
            // the median; if none exists the median becomes the timestamp.
            let value = (input.alpha..c_prime)
                .map(|c| states.timestamp(x, c))
                .find(|&ts| ts > median_ts)
                .unwrap_or(median_ts);
            states.set_timestamp(x, d + 1, value);
        }
    }
}

/// T3: members of the communicating nodes' old groups whose distance to
/// their communicating node *shrank* copy the timestamp of the old meeting
/// level down to the levels the pair no longer shares.
fn rule_t3(states: &mut StateTable, input: &TimestampInput<'_>) {
    let outcome = input.outcome;
    let (u_pos, v_pos) = input.endpoints();
    let apply = |states: &mut StateTable, pos: usize, anchor: usize| {
        let c_prime = outcome.before[anchor].common_prefix_len(&outcome.before[pos]);
        let c_second = outcome.after[anchor].common_prefix_len(&outcome.after[pos]);
        if c_prime >= 1 && c_prime - 1 > c_second + 1 {
            let x = input.members_alpha[pos];
            let anchor_ts = states.timestamp(x, c_prime);
            for i in (c_second + 1)..c_prime {
                states.set_timestamp(x, i, anchor_ts);
            }
        }
    };
    let bit = 1u64 << input.pair;
    for pos in 0..input.members_alpha.len() {
        if pos == u_pos || pos == v_pos {
            continue;
        }
        if outcome.u_groups[pos] & bit != 0 {
            apply(states, pos, u_pos);
        }
        if outcome.v_groups[pos] & bit != 0 {
            apply(states, pos, v_pos);
        }
    }
}

/// T4: nodes that received `G_lower` fill the gap between their group-base
/// and the first level that already carries a timestamp.
fn rule_t4(states: &mut StateTable, input: &TimestampInput<'_>) {
    for &x in input.glower_recipients {
        if !states.contains(x) {
            continue;
        }
        let base = states.group_base(x);
        // Lowest level d ≥ base whose own timestamp is unset but whose
        // next level is set.
        let mut fill: Option<(usize, u64)> = None;
        for d in base..(base + 64) {
            let above = states.timestamp(x, d + 1);
            if states.timestamp(x, d) == 0 && above > 0 {
                fill = Some((d, above));
                break;
            }
        }
        if let Some((d, value)) = fill {
            if d >= base {
                let mut level = d + 1;
                while level > base {
                    level -= 1;
                    states.set_timestamp(x, level, value);
                }
            }
        }
    }
}

/// T5: a node whose group was split at level `d` seeds the level below with
/// the split level's timestamp if it is still unset.
fn rule_t5(states: &mut StateTable, input: &TimestampInput<'_>) {
    for (&x, levels) in input.members_alpha.iter().zip(&input.outcome.split_levels) {
        for d in levels.iter() {
            if states.timestamp(x, d - 1) == 0 {
                let ts = states.timestamp(x, d);
                if ts > 0 {
                    states.set_timestamp(x, d - 1, ts);
                }
            }
        }
    }
}

/// T6: every level below a node's group-base is cleared.
fn rule_t6(states: &mut StateTable, input: &TimestampInput<'_>) {
    for &x in input.members_alpha {
        let base = states.group_base(x);
        for d in 0..base {
            states.set_timestamp(x, d, 0);
        }
    }
}

/// Converts a median priority into a timestamp value: positive medians are
/// used as-is, `∞` (a median among communicating nodes) maps to the current
/// time, and negative medians (the node survived a split dominated by a
/// non-communicating band) contribute nothing.
fn median_as_timestamp(median: Priority, t: u64) -> u64 {
    match median.value() {
        None => t,
        Some(v) if v > 0 => u64::try_from(v).unwrap_or(t).min(t),
        Some(_) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{LevelSet, TransformOutcome};
    use dsg_skipgraph::{Key, MembershipVector, SkipGraph};

    struct Fixture {
        graph: SkipGraph,
        states: StateTable,
        ids: Vec<NodeId>,
        /// A trace whose pair 0 is `(ids[0], ids[1])` at α = 0, with the
        /// given old vectors before and the graph's vectors after.
        outcome: TransformOutcome,
    }

    fn fixture(
        keys: &[u64],
        new_vectors: &[&str],
        old_vectors: &[&str],
        pair_level: usize,
    ) -> Fixture {
        let graph = SkipGraph::from_members(
            keys.iter()
                .zip(new_vectors)
                .map(|(&k, v)| (Key::new(k), MembershipVector::parse(v).unwrap())),
        )
        .unwrap();
        let mut states = StateTable::new();
        let ids: Vec<NodeId> = keys
            .iter()
            .map(|&k| graph.node_by_key(Key::new(k)).unwrap())
            .collect();
        for (&k, &id) in keys.iter().zip(&ids) {
            states.register(id, Key::new(k), 0);
        }
        let outcome = TransformOutcome {
            before: old_vectors
                .iter()
                .map(|v| MembershipVector::parse(v).unwrap())
                .collect(),
            after: ids.iter().map(|&id| graph.mvec_of(id).unwrap()).collect(),
            pair_levels: vec![pair_level],
            endpoints: vec![(0, 1)],
            u_groups: vec![0; ids.len()],
            v_groups: vec![0; ids.len()],
            split_levels: vec![LevelSet::default(); ids.len()],
            ..TransformOutcome::default()
        };
        Fixture {
            graph,
            states,
            ids,
            outcome,
        }
    }

    /// The rules' input for pair 0 of `fx`'s trace at time `t`.
    fn input<'a>(
        fx_ids: &[NodeId],
        outcome: &'a TransformOutcome,
        t: u64,
        members: &'a [NodeId],
        glower: &'a [NodeId],
    ) -> TimestampInput<'a> {
        TimestampInput {
            u: fx_ids[0],
            v: fx_ids[1],
            t,
            alpha: 0,
            pair: 0,
            members_alpha: members,
            glower_recipients: glower,
            outcome,
        }
    }

    #[test]
    fn t1_stamps_the_pair_levels() {
        let mut fx = fixture(
            &[1, 2, 3, 4],
            &["000", "001", "01", "1"],
            &["0", "1", "00", "01"],
            2,
        );
        let (u, v) = (fx.ids[0], fx.ids[1]);
        // Pre-existing lower-level timestamps to harmonise.
        fx.states.set_timestamp(u, 1, 3);
        fx.states.set_timestamp(v, 1, 5);
        let ts = input(&fx.ids, &fx.outcome, 9, &fx.ids, &[]);
        apply_timestamp_rules(&fx.graph, &mut fx.states, &ts);
        assert_eq!(fx.states.timestamp(u, 2), 9);
        assert_eq!(fx.states.timestamp(u, 3), 9);
        assert_eq!(fx.states.timestamp(v, 2), 9);
        assert_eq!(fx.states.timestamp(v, 3), 9);
        // T1 harmonisation takes the max of the two at level 1.
        assert_eq!(fx.states.timestamp(u, 1), 5);
        assert_eq!(fx.states.timestamp(v, 1), 5);
    }

    #[test]
    fn t2_adopts_the_median_when_no_older_timestamp_exists() {
        let mut fx = fixture(&[1, 2, 3], &["00", "01", "1"], &["0", "00", "01"], 1);
        let (u, w) = (fx.ids[0], fx.ids[2]);
        // w received a positive median 4 when the level-0 list split.
        fx.outcome.push_median_list(0, Priority::finite(4), &[2]);
        // w is in u's group at level 0 after the transformation.
        fx.states.set_group_id(w, 0, 1);
        fx.states.set_group_id(u, 0, 1);
        let ts = input(&fx.ids, &fx.outcome, 7, &fx.ids, &[]);
        apply_timestamp_rules(&fx.graph, &mut fx.states, &ts);
        assert_eq!(fx.states.timestamp(w, 1), 4);
    }

    #[test]
    fn t5_seeds_the_level_below_a_split() {
        let mut fx = fixture(&[1, 2], &["0", "1"], &["0", "1"], 0);
        let x = fx.ids[1];
        fx.states.set_timestamp(x, 3, 6);
        fx.outcome.split_levels[1].insert(3);
        let ts = input(&fx.ids, &fx.outcome, 8, &fx.ids, &[]);
        rule_t5(&mut fx.states, &ts);
        assert_eq!(fx.states.timestamp(x, 2), 6);
        // An already-set timestamp is not overwritten.
        fx.states.set_timestamp(x, 2, 9);
        rule_t5(&mut fx.states, &ts);
        assert_eq!(fx.states.timestamp(x, 2), 9);
    }

    #[test]
    fn t6_clears_levels_below_the_group_base() {
        let mut fx = fixture(&[1, 2], &["0", "1"], &["0", "1"], 0);
        let x = fx.ids[0];
        fx.states.set_timestamp(x, 0, 4);
        fx.states.set_timestamp(x, 1, 5);
        fx.states.set_timestamp(x, 2, 6);
        fx.states.set_group_base(x, 2);
        let ts = input(&fx.ids, &fx.outcome, 8, &fx.ids[0..1], &[]);
        rule_t6(&mut fx.states, &ts);
        assert_eq!(fx.states.timestamp(x, 0), 0);
        assert_eq!(fx.states.timestamp(x, 1), 0);
        assert_eq!(fx.states.timestamp(x, 2), 6);
    }

    #[test]
    fn t4_fills_the_gap_above_the_group_base() {
        let mut fx = fixture(&[1, 2], &["0", "1"], &["0", "1"], 0);
        let x = fx.ids[0];
        fx.states.set_group_base(x, 1);
        fx.states.set_timestamp(x, 3, 7);
        fx.states.set_timestamp(x, 2, 0);
        let glower = vec![x];
        let ts = input(&fx.ids, &fx.outcome, 8, &fx.ids[0..1], &glower);
        rule_t4(&mut fx.states, &ts);
        assert_eq!(fx.states.timestamp(x, 2), 7);
        assert_eq!(fx.states.timestamp(x, 1), 7);
    }

    #[test]
    fn median_conversion_clamps_sensibly() {
        assert_eq!(median_as_timestamp(Priority::INFINITY, 9), 9);
        assert_eq!(median_as_timestamp(Priority::finite(4), 9), 4);
        assert_eq!(median_as_timestamp(Priority::finite(400), 9), 9);
        assert_eq!(median_as_timestamp(Priority::finite(-3), 9), 0);
    }
}
