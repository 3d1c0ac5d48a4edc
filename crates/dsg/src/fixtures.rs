//! Ready-made instances reproducing the paper's worked examples.
//!
//! The centrepiece is [`figure4_s8`]: the ten-node skip graph S₈ of Figure
//! 4(b), complete with the membership vectors, per-level timestamps,
//! group-ids and group-bases the paper describes. Serving the request
//! `(U, V)` on it reproduces the S₈ → S₉ transformation that the paper uses
//! to illustrate every rule (`tests/figure4.rs` checks it).

use dsg_skipgraph::MembershipVector;

use crate::config::DsgConfig;
use crate::dsg::DynamicSkipGraph;
use crate::Result;

/// External peer keys of the Figure-4 nodes (their positions in the
/// alphabet): B, G, D, U, I, H, J, V, E, F.
pub mod peers {
    /// Node B.
    pub const B: u64 = 2;
    /// Node D.
    pub const D: u64 = 4;
    /// Node E.
    pub const E: u64 = 5;
    /// Node F.
    pub const F: u64 = 6;
    /// Node G.
    pub const G: u64 = 7;
    /// Node H.
    pub const H: u64 = 8;
    /// Node I.
    pub const I: u64 = 9;
    /// Node J.
    pub const J: u64 = 10;
    /// Node U.
    pub const U: u64 = 21;
    /// Node V.
    pub const V: u64 = 22;
}

/// The internal key of a peer (group-ids in the paper are node identifiers,
/// which in this implementation are the internal keys).
pub fn internal(peer: u64) -> u64 {
    (peer + 1) * DynamicSkipGraph::KEY_SPACING
}

/// Builds the skip graph S₈ of Figure 4(b) at time 8, ready for the `(U, V)`
/// request that produces S₉.
///
/// Structure (levels bottom-up):
///
/// * level 1: 0-subgraph `{E, F, H, I, J, V}`, 1-subgraph `{B, D, G, U}`;
/// * level 2: `{E, H, J, V}` / `{F, I}` and `{B, G}` / `{D, U}`;
/// * level 3: `{H, J}` / `{E, V}`; the remaining pairs split at their next
///   level so that the structure is a complete skip graph.
///
/// Timestamps, group-ids and group-bases follow the figure: the group of `U`
/// at level 1 is `{B, G, D, U}` with timestamps 4, 4, 4, 2; `{B, G}`
/// communicated at time 6; `{V, E}` at time 5; `{H, J}` at time 7; `{F, I}`
/// at time 1.
///
/// # Errors
///
/// Construction cannot realistically fail; errors from the underlying
/// builders are propagated.
pub fn figure4_s8(config: DsgConfig) -> Result<DynamicSkipGraph> {
    use peers::*;
    let members = [
        (B, "100"),
        (G, "101"),
        (D, "110"),
        (U, "111"),
        (H, "0000"),
        (J, "0001"),
        (V, "0010"),
        (E, "0011"),
        (F, "010"),
        (I, "011"),
    ];
    let mut net = DynamicSkipGraph::build_from_members(
        members.iter().map(|(peer, vector)| {
            (
                *peer,
                MembershipVector::parse(vector).expect("fixture vector"),
            )
        }),
        config,
    )?;

    // Group of U at levels 0 and 1: {B, G, D, U}, id = U.
    for peer in [B, G, D, U] {
        let st = net.peer_state_mut(peer)?;
        st.set_group_id(0, internal(U));
        st.set_group_id(1, internal(U));
        st.set_group_base(1);
    }
    // Sub-group {B, G} at level 2 (communicated at time 6), id = B.
    for peer in [B, G] {
        let st = net.peer_state_mut(peer)?;
        st.set_group_id(2, internal(B));
        st.set_timestamp(1, 4);
        st.set_timestamp(2, 6);
    }
    // Sub-group {D, U} at level 2.
    {
        let st = net.peer_state_mut(D)?;
        st.set_group_id(2, internal(U));
        st.set_timestamp(1, 4);
        st.set_timestamp(2, 4);
    }
    {
        let st = net.peer_state_mut(U)?;
        st.set_group_id(2, internal(U));
        st.set_timestamp(1, 2);
        st.set_timestamp(2, 2);
    }
    // Group {V, E} (communicated at time 5), id = V, levels 0..=3.
    for peer in [V, E] {
        let st = net.peer_state_mut(peer)?;
        for level in 0..=3 {
            st.set_group_id(level, internal(V));
        }
        st.set_timestamp(3, 5);
        st.set_group_base(3);
    }
    // Group {H, J} (communicated at time 7), id = J, levels 0..=3.
    for peer in [H, J] {
        let st = net.peer_state_mut(peer)?;
        for level in 0..=3 {
            st.set_group_id(level, internal(J));
        }
        st.set_timestamp(3, 7);
        st.set_group_base(3);
    }
    // Group {F, I} (communicated at time 1), id = F, levels 0..=2.
    for peer in [F, I] {
        let st = net.peer_state_mut(peer)?;
        for level in 0..=2 {
            st.set_group_id(level, internal(F));
        }
        st.set_timestamp(2, 1);
        st.set_group_base(2);
    }

    // The figure shows S₈ at time 8; the (U, V) request is the 8th request.
    net.advance_time(7);
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MedianStrategy;

    #[test]
    fn s8_matches_the_papers_structure() {
        let net = figure4_s8(DsgConfig::default()).unwrap();
        assert_eq!(net.len(), 10);
        net.validate().unwrap();
        // α for (U, V) in S₈ is 0, as stated in §IV-C.
        assert_eq!(net.common_level(peers::U, peers::V).unwrap(), 0);
        // E and V share a list up to level 3.
        assert_eq!(net.common_level(peers::E, peers::V).unwrap(), 3);
        // B and U share lists up to level 1 only.
        assert_eq!(net.common_level(peers::B, peers::U).unwrap(), 1);
        // Timestamps from the figure.
        assert_eq!(net.peer_state(peers::B).unwrap().timestamp(2), 6);
        assert_eq!(net.peer_state(peers::U).unwrap().timestamp(1), 2);
        assert_eq!(net.peer_state(peers::H).unwrap().timestamp(3), 7);
        // Group of U at level 1 has id U.
        assert_eq!(
            net.peer_state(peers::D).unwrap().group_id(1),
            internal(peers::U)
        );
    }

    #[test]
    fn s8_time_is_positioned_before_the_eighth_request() {
        let net = figure4_s8(DsgConfig::default().with_median(MedianStrategy::Exact)).unwrap();
        assert_eq!(net.time(), 7);
    }
}
