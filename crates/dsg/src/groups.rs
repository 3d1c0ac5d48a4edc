//! Group-id and group-base maintenance below the transformation level
//! (paper §IV-D and Appendix C).
//!
//! The *group-base* `B^x` of a node is the highest level at which the node
//! belongs to its biggest group. When two nodes `u` and `v` whose groups
//! disagree below the transformation level `α` communicate, the group-ids of
//! both groups for the levels `0..α` must be reconciled so that future
//! priority computations (which scan for the highest level with a common
//! group-id) remain consistent: the vector `G_lower` of the node with the
//! *lower* group-base wins and is broadcast to every affected node.
//!
//! After a transformation, group-bases are also adjusted for nodes whose
//! group was split (the two rules at the end of Appendix C). The split
//! levels come from the transformation's dense trace: one
//! [`LevelSet`](crate::transform::LevelSet) per member, indexed by the
//! member's position in `members_alpha`
//! ([`TransformOutcome::split_levels`]), so no per-node map is looked up.

use dsg_skipgraph::{NodeId, SkipGraph};

use crate::state::StateTable;
use crate::transform::TransformOutcome;

/// Inputs for the post-transformation group maintenance.
#[derive(Debug, Clone, Copy)]
pub struct GroupUpdateInput<'a> {
    /// The communicating source.
    pub u: NodeId,
    /// The communicating destination.
    pub v: NodeId,
    /// The highest common level `α` of the request.
    pub alpha: usize,
    /// Members of `l_α` (dummy nodes excluded), in key order.
    pub members_alpha: &'a [NodeId],
    /// The transformation trace.
    pub outcome: &'a TransformOutcome,
}

/// Result of the group maintenance step.
#[derive(Debug, Clone, Default)]
pub struct GroupUpdateOutcome {
    /// Rounds charged for the broadcast of `G_lower`.
    pub rounds: usize,
}

/// Reusable buffers for [`apply_group_updates`], owned by the caller so
/// the per-request hot path allocates nothing after warm-up.
#[derive(Debug, Default)]
pub struct GroupScratch {
    /// Nodes that initialised or received the `G_lower` vector (timestamp
    /// rule T4 applies to exactly these nodes), sorted and deduplicated.
    /// Filled by [`apply_group_updates`]; cleared on the next call.
    pub recipients: Vec<NodeId>,
}

/// Applies the Appendix-C group-id and group-base updates after the
/// transformation's membership vectors have been installed in `graph`.
pub fn apply_group_updates(
    graph: &SkipGraph,
    states: &mut StateTable,
    input: &GroupUpdateInput<'_>,
    scratch: &mut GroupScratch,
) -> GroupUpdateOutcome {
    let mut outcome = GroupUpdateOutcome::default();
    scratch.recipients.clear();
    let alpha = input.alpha;
    let bu = states.group_base(input.u);
    let bv = states.group_base(input.v);

    // Reconcile group-ids below α when u's and v's groups disagree there.
    let disagree_below = alpha >= 1
        && states.group_id(input.u, alpha - 1) != states.group_id(input.v, alpha - 1);
    if disagree_below {
        let donor = if bu <= bv { input.u } else { input.v };
        let glower: Vec<u64> = (0..alpha).map(|i| states.group_id(donor, i)).collect();
        let meet_level = bu.max(bv).min(alpha);
        // Every node of the list containing both u and v at the meet level
        // whose group at that level matches either endpoint adopts G_lower
        // and the smaller group-base. The list is walked in place with the
        // arena's borrowing iterator — no member snapshot is allocated.
        let gu_meet = states.group_id(input.u, meet_level);
        let gv_meet = states.group_id(input.v, meet_level);
        let recipients = &mut scratch.recipients;
        let mut broadcast_len = 0usize;
        if let Ok(list) = graph.list_of_iter(input.u, meet_level) {
            for y in list {
                if !states.contains(y) {
                    continue;
                }
                broadcast_len += 1;
                let gy = states.group_id(y, meet_level);
                if gy == gu_meet || gy == gv_meet {
                    states.set_group_base(y, bu.min(bv));
                    for (i, &g) in glower.iter().enumerate() {
                        states.set_group_id(y, i, g);
                    }
                    recipients.push(y);
                }
            }
        }
        // Regardless of the comparison above, every member of l_α that ended
        // up in u's group adopts G_lower for the levels below α.
        let u_key = graph.key_of(input.u).map(|k| k.value()).unwrap_or_default();
        for &x in input.members_alpha {
            if states.group_id(x, alpha) == u_key {
                for (i, &g) in glower.iter().enumerate() {
                    states.set_group_id(x, i, g);
                }
                recipients.push(x);
            }
        }
        recipients.sort_unstable();
        recipients.dedup();
        outcome.rounds += 2 * (broadcast_len.max(2) as f64).log2().ceil() as usize;
    }

    // Group-base adjustments for nodes whose group was split by the
    // transformation (Appendix C, final two rules).
    for (&x, levels) in input.members_alpha.iter().zip(&input.outcome.split_levels) {
        let Some(lowest) = levels.lowest() else {
            continue;
        };
        let base = states.group_base(x);
        if levels.contains(base) && base > 0 {
            states.set_group_base(x, base - 1);
        }
        if states.group_base(x) == alpha && lowest > alpha + 1 {
            states.set_group_base(x, lowest - 1);
        }
    }

    // The communicating pair now shares a group up to the level at which
    // they form their two-node list; their biggest group is the merged group
    // at level α, so the group-base of both becomes min(B_u, B_v, α).
    let new_base = bu.min(bv).min(alpha);
    states.set_group_base(input.u, new_base);
    states.set_group_base(input.v, new_base);

    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{LevelSet, TransformOutcome};
    use dsg_skipgraph::{Key, MembershipVector};

    fn setup(keys: &[u64], vectors: &[&str]) -> (SkipGraph, StateTable, Vec<NodeId>) {
        let graph = SkipGraph::from_members(
            keys.iter()
                .zip(vectors)
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
        (graph, states, ids)
    }

    #[test]
    fn glower_is_taken_from_the_lower_group_base() {
        // Four nodes in one level-1 list ("0"); u = 10, v = 30.
        let keys = [10u64, 20, 30, 40];
        let (graph, mut states, ids) = setup(&keys, &["00", "00", "01", "01"]);
        let u = ids[0];
        let v = ids[2];
        // u's group below α = 1 is {10, 20} with id 10; v's is {30, 40} with
        // id 30. u has the lower group-base.
        for &x in &ids[0..2] {
            states.set_group_id(x, 0, 10);
        }
        for &x in &ids[2..4] {
            states.set_group_id(x, 0, 30);
        }
        states.set_group_base(u, 0);
        states.set_group_base(v, 1);
        // Simulate the post-transformation state: everyone in l_α adopted
        // u's id at level α = 1.
        for &x in &ids {
            states.set_group_id(x, 1, 10);
        }
        let outcome = TransformOutcome::default();
        let input = GroupUpdateInput {
            u,
            v,
            alpha: 1,
            members_alpha: &ids,
            outcome: &outcome,
        };
        let mut scratch = GroupScratch::default();
        let result = apply_group_updates(&graph, &mut states, &input, &mut scratch);
        // v's side adopted u's level-0 group-id.
        assert_eq!(states.group_id(v, 0), 10);
        assert_eq!(states.group_id(ids[3], 0), 10);
        assert!(!scratch.recipients.is_empty());
        assert!(result.rounds > 0);
        // Group-bases meet at the minimum.
        assert_eq!(states.group_base(v), 0);
        assert_eq!(states.group_base(u), 0);
    }

    #[test]
    fn no_reconciliation_when_groups_already_agree() {
        let keys = [1u64, 2, 3];
        let (graph, mut states, ids) = setup(&keys, &["0", "0", "1"]);
        for &x in &ids {
            states.set_group_id(x, 0, 1);
        }
        let outcome = TransformOutcome::default();
        let input = GroupUpdateInput {
            u: ids[0],
            v: ids[1],
            alpha: 1,
            members_alpha: &ids[0..2],
            outcome: &outcome,
        };
        let mut scratch = GroupScratch::default();
        let result = apply_group_updates(&graph, &mut states, &input, &mut scratch);
        assert!(scratch.recipients.is_empty());
        assert_eq!(result.rounds, 0);
    }

    #[test]
    fn group_base_drops_when_the_base_level_group_splits() {
        let keys = [1u64, 2, 3, 4];
        let (graph, mut states, ids) = setup(&keys, &["0", "0", "0", "0"]);
        states.set_group_base(ids[1], 2);
        let mut split_levels = vec![LevelSet::default(); ids.len()];
        split_levels[1].insert(2);
        let outcome = TransformOutcome {
            split_levels,
            ..TransformOutcome::default()
        };
        let input = GroupUpdateInput {
            u: ids[0],
            v: ids[3],
            alpha: 0,
            members_alpha: &ids,
            outcome: &outcome,
        };
        apply_group_updates(&graph, &mut states, &input, &mut GroupScratch::default());
        assert_eq!(states.group_base(ids[1]), 1);
    }

    #[test]
    fn group_base_jumps_to_below_the_lowest_split() {
        let keys = [1u64, 2, 3, 4];
        let (graph, mut states, ids) = setup(&keys, &["0", "0", "0", "0"]);
        // x's base sits exactly at α = 0 and its group first splits at
        // level 3 (> α + 1): the base moves up to 2.
        states.set_group_base(ids[2], 0);
        let mut split_levels = vec![LevelSet::default(); ids.len()];
        split_levels[2].insert(3);
        let outcome = TransformOutcome {
            split_levels,
            ..TransformOutcome::default()
        };
        let input = GroupUpdateInput {
            u: ids[0],
            v: ids[3],
            alpha: 0,
            members_alpha: &ids,
            outcome: &outcome,
        };
        apply_group_updates(&graph, &mut states, &input, &mut GroupScratch::default());
        assert_eq!(states.group_base(ids[2]), 2);
    }
}
