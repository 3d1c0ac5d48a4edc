//! Priorities and the priority rules P1–P4 (paper §IV-C).
//!
//! During a transformation every node of the affected linked list computes a
//! priority. Priorities are designed so that
//!
//! * the two communicating nodes rank highest (rule P1 assigns them `∞`),
//! * members of the (merged) communicating group rank next, ordered by how
//!   recently they attached to the group (rule P2 uses timestamps, which are
//!   always positive once set),
//! * every other node ranks below zero, and nodes of the same
//!   non-communicating group occupy one *distinct, disjoint* band of
//!   negative values `(-(G+1)·t, -G·t]` determined by their group-id `G`
//!   (rules P3/P4) — which is what lets the split logic recognise when the
//!   median falls *inside* a non-communicating group (equation (2)).

use std::fmt;

use dsg_skipgraph::NodeId;

use crate::state::StateTable;

/// A node priority: either a finite signed value or `+∞` (the communicating
/// pair).
///
/// Stored as the two halves of an `i128` — `∞` is `i128::MAX` — so a
/// priority takes 16 bytes at 8-byte alignment instead of the 32 an enum
/// over `i128` needs: the transformation copies one per member per level
/// and the median simulation sorts them. The derived order compares the
/// signed high half, then the unsigned low half, which is exactly the
/// order of the `i128` values. Finite priorities are capped one below `∞`;
/// the rules produce values below `2^101` in magnitude, far from the cap.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Priority {
    hi: i64,
    lo: u64,
}

impl Priority {
    /// The communicating nodes' priority (rule P1).
    pub const INFINITY: Priority = Priority::from_i128(i128::MAX);

    /// A finite priority (positive for the communicating group, negative
    /// for everyone else), capped one below [`Priority::INFINITY`].
    pub const fn finite(value: i128) -> Priority {
        let capped = if value < i128::MAX { value } else { i128::MAX - 1 };
        Priority::from_i128(capped)
    }

    const fn from_i128(value: i128) -> Priority {
        Priority {
            hi: (value >> 64) as i64,
            lo: value as u64,
        }
    }

    const fn as_i128(self) -> i128 {
        ((self.hi as i128) << 64) | self.lo as i128
    }

    /// Returns `true` for `∞`.
    pub fn is_infinite(&self) -> bool {
        *self == Priority::INFINITY
    }

    /// Returns `true` for strictly positive priorities (including `∞`).
    pub fn is_positive(&self) -> bool {
        self.as_i128() > 0
    }

    /// Returns the finite value, if any.
    pub fn value(&self) -> Option<i128> {
        (!self.is_infinite()).then(|| self.as_i128())
    }
}

impl fmt::Debug for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.value() {
            Some(v) => write!(f, "Finite({v})"),
            None => write!(f, "Infinity"),
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.value() {
            Some(v) => write!(f, "{v}"),
            None => write!(f, "∞"),
        }
    }
}

/// Inputs required to evaluate the priority rules for one transformation.
#[derive(Debug, Clone, Copy)]
pub struct PriorityContext {
    /// The communicating source node.
    pub u: NodeId,
    /// The communicating destination node.
    pub v: NodeId,
    /// The request time `t`.
    pub t: u64,
    /// The highest common level `α` of `u` and `v` before the
    /// transformation.
    pub alpha: usize,
}

/// The base value of the finite "pair-top" priorities used when one
/// transformation epoch serves several communicating pairs at once. It
/// exceeds every value rule P2 can produce (timestamps are `u64`), so each
/// pair ranks above all group members, and pairs rank among themselves by
/// request time — the more recent pair splits off first. Far below
/// `i128::MAX`, so `base + t` cannot overflow.
const PAIR_TOP_BASE: i128 = 1 << 100;

/// Rule P1, generalised to multi-pair epochs: the priority of the members
/// of a communicating pair. A single-pair transformation uses the paper's
/// `∞`; with several pairs each pair receives a finite top priority keyed
/// by its request time, so that every threshold split keeps each pair
/// together (both endpoints share one value) while distinct pairs can be
/// separated deterministically.
pub fn pair_top_priority(total_pairs: usize, t: u64) -> Priority {
    if total_pairs <= 1 {
        Priority::INFINITY
    } else {
        Priority::finite(PAIR_TOP_BASE + t as i128)
    }
}

/// Rule P2: the priority of a member `x` of the communicating node
/// `anchor`'s group — `min(T^x_c, T^anchor_c)` where `c` is the highest
/// level at which the two share a group-id (`alpha` if the scan finds
/// none).
pub fn p2_priority(
    states: &StateTable,
    alpha: usize,
    x: NodeId,
    anchor: NodeId,
) -> Priority {
    let c = states
        .highest_common_group_level_unbounded(x, anchor)
        .unwrap_or(alpha);
    Priority::finite(states.timestamp(x, c).min(states.timestamp(anchor, c)) as i128)
}

/// Evaluates rules P1–P3 for node `x` of the list `l_α` at the start of a
/// transformation.
///
/// * **P1** — `x ∈ {u, v}`: priority `∞`.
/// * **P2** — `x` shares `u`'s (or `v`'s) group at level `α`:
///   `min(T^x_c, T^{u}_c)` where `c` is the highest level at which `x` and
///   `u` (resp. `v`) share a group-id.
/// * **P3** — otherwise: `-(G^x_α · t) + T^x_{α+1}`.
pub fn initial_priority(states: &StateTable, ctx: &PriorityContext, x: NodeId) -> Priority {
    if x == ctx.u || x == ctx.v {
        return Priority::INFINITY;
    }
    let gx = states.group_id(x, ctx.alpha);
    if gx == states.group_id(ctx.u, ctx.alpha) {
        return p2_priority(states, ctx.alpha, x, ctx.u);
    }
    if gx == states.group_id(ctx.v, ctx.alpha) {
        return p2_priority(states, ctx.alpha, x, ctx.v);
    }
    negative_band_priority(gx, ctx.t, states.timestamp(x, ctx.alpha + 1))
}

/// Evaluates rule P4 for node `x` after it moved to a list at level `d` that
/// does not contain the communicating nodes:
/// `P(x) = -(G^x_d · t) + T^x_{d+1}`.
pub fn recomputed_priority(states: &StateTable, t: u64, d: usize, x: NodeId) -> Priority {
    negative_band_priority(states.group_id(x, d), t, states.timestamp(x, d + 1))
}

/// Bijective mixing of a group identifier into the numeric value used by the
/// negative priority bands (a splitmix64 finaliser).
///
/// The paper only requires group identifiers to be *distinct* non-negative
/// integers ("possibly an ip address of a node"). Using the raw node key
/// would make the priority bands — and therefore every split of
/// non-communicating nodes — follow key order, which degenerates the skip
/// graph into key-contiguous sublists with poor routing. Mixing the
/// identifier keeps the bands distinct (the map is a bijection on `u64`)
/// while decorrelating them from key order, so splits of unrelated groups
/// remain pseudo-random exactly like the initial membership vectors. This
/// refinement is documented in `DESIGN.md`.
pub fn mix_group_id(id: u64) -> u64 {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    // Keep the band index comfortably inside u64 so that band · t cannot
    // overflow an i128 for any realistic request count.
    (z ^ (z >> 31)) >> 16
}

/// The shared negative-band formula of rules P3 and P4.
///
/// DSG guarantees `t > T^x_{level+1}`, so the result lies in the half-open
/// band `(-(G+1)·t, -G·t]`, disjoint across group-ids. `pub(crate)` so the
/// transformation's planning half can evaluate rule P4 against its local
/// group-id overlay instead of a mutated [`StateTable`].
pub(crate) fn negative_band_priority(group_id: u64, t: u64, timestamp: u64) -> Priority {
    let group_id = mix_group_id(group_id);
    let base = -((group_id as i128) * (t as i128));
    // Clamp the timestamp into [0, t); the paper guarantees t > T, but a
    // defensive clamp keeps the bands disjoint even for adversarial state.
    let ts = (timestamp as i128).min(t.saturating_sub(1) as i128);
    Priority::finite(base + ts)
}

/// The group-id band that a *negative* finite priority falls into: the
/// (unique) `G` with `-G·t ≥ p ≥ -(G+1)·t`, i.e. the non-communicating group
/// the median points at in equation (2) of the paper. Returns `None` for
/// positive priorities or `∞`.
pub fn band_of(priority: Priority, t: u64) -> Option<u64> {
    let p = priority.value()?;
    if p > 0 {
        return None;
    }
    let t = t as i128;
    if t == 0 {
        return None;
    }
    // p ∈ (-(G+1)·t, -G·t]  ⇔  G = ⌈-p / t⌉ adjusted for the closed end.
    let neg = -p; // ≥ 0
    let g = if neg % t == 0 { neg / t } else { neg / t + 1 };
    // Sanity: 0 ≤ g fits u64 for all realistic keys/times.
    u64::try_from(g).ok().map(|g| g.saturating_sub(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsg_skipgraph::Key;

    fn id(raw: u32) -> NodeId {
        NodeId::from_raw(raw)
    }

    fn table_with(keys: &[u64]) -> StateTable {
        let mut t = StateTable::new();
        for (i, k) in keys.iter().enumerate() {
            t.register(id(i as u32), Key::new(*k), 0);
        }
        t
    }

    #[test]
    fn priority_ordering_puts_infinity_on_top() {
        let mut ps = vec![
            Priority::finite(-40),
            Priority::INFINITY,
            Priority::finite(5),
            Priority::finite(-68),
        ];
        ps.sort();
        assert_eq!(
            ps,
            vec![
                Priority::finite(-68),
                Priority::finite(-40),
                Priority::finite(5),
                Priority::INFINITY
            ]
        );
        assert!(Priority::INFINITY.is_positive());
        assert!(!Priority::finite(0).is_positive());
        assert!(Priority::finite(3).is_positive());
    }

    /// Reproduces the priority example of §IV-C: the communication (U, V) at
    /// time t = 8 with α = 0 yields P(U) = P(V) = ∞, P(D) = P(G) = P(B) = 2,
    /// P(E) = 5, P(H) = P(J) = −68, and P(F) = P(I) = −40.
    #[test]
    fn paper_worked_example_matches() {
        // Nodes indexed 0..=9: B,G,D,U,I,H,J,V,E,F with alphabet keys.
        let keys = [2u64, 7, 4, 21, 9, 8, 10, 22, 5, 6];
        let mut st = table_with(&keys);
        let b = id(0);
        let g = id(1);
        let d = id(2);
        let u = id(3);
        let i = id(4);
        let h = id(5);
        let j = id(6);
        let v = id(7);
        let e = id(8);
        let f = id(9);
        let t = 8u64;

        // Group structure of S8 (Figure 4(b)): at level 0 the group of U is
        // {B, G, D, U} and the group of V is {V, E}; H and J form group 10,
        // F and I form group 6.
        for x in [b, g, d, u] {
            st.set_group_id(x, 0, 21);
            st.set_group_id(x, 1, 21);
        }
        for x in [v, e] {
            st.set_group_id(x, 0, 22);
            st.set_group_id(x, 1, 22);
            st.set_group_id(x, 2, 22);
        }
        for x in [h, j] {
            st.set_group_id(x, 0, 10);
        }
        for x in [f, i] {
            st.set_group_id(x, 0, 6);
        }
        // Timestamps from Figure 4(b): level 1 carries 4,4,4,2 for B,G,D,U
        // and 5,5 for V,E at level 2; level 2 for B,G is 6 and D,U is 4,2.
        st.set_timestamp(b, 1, 4);
        st.set_timestamp(g, 1, 4);
        st.set_timestamp(d, 1, 4);
        st.set_timestamp(u, 1, 2);
        st.set_timestamp(b, 2, 6);
        st.set_timestamp(g, 2, 6);
        st.set_timestamp(d, 2, 4);
        st.set_timestamp(u, 2, 2);
        st.set_timestamp(v, 2, 5);
        st.set_timestamp(e, 2, 5);
        st.set_timestamp(h, 1, 7);
        st.set_timestamp(j, 1, 7);
        st.set_timestamp(f, 1, 1);
        st.set_timestamp(i, 1, 1);
        // The P3 formula uses T^x_{α+1} = T^x_1, which Figure 4(b) shows as
        // 2 for the level-1 list of H, J, F, I (their level-1 timestamps in
        // the figure are the group timestamps; the worked example uses 2).
        st.set_timestamp(h, 1, 2);
        st.set_timestamp(j, 1, 2);
        st.set_timestamp(f, 1, 2);
        st.set_timestamp(i, 1, 2);

        let ctx = PriorityContext { u, v, t, alpha: 0 };

        assert_eq!(initial_priority(&st, &ctx, u), Priority::INFINITY);
        assert_eq!(initial_priority(&st, &ctx, v), Priority::INFINITY);
        // P2: the highest level where D and U share a group-id is 1, so
        // P(D) = min(T^D_1, T^U_1) = min(4, 2) = 2; same for G and B.
        assert_eq!(initial_priority(&st, &ctx, d), Priority::finite(2));
        assert_eq!(initial_priority(&st, &ctx, g), Priority::finite(2));
        assert_eq!(initial_priority(&st, &ctx, b), Priority::finite(2));
        // P2 for E against V: highest shared level is 2, min(5, 5) = 5.
        assert_eq!(initial_priority(&st, &ctx, e), Priority::finite(5));
        // P3: the paper's example evaluates −(G · t) + 2 with the raw group
        // identifiers (10 for {H, J}, 6 for {F, I}); this implementation
        // mixes the identifier into the band index (see `mix_group_id`), so
        // the exact numbers differ but the structure is identical: the two
        // nodes of each non-communicating group share one negative priority,
        // and the two groups occupy distinct bands.
        let p_h = initial_priority(&st, &ctx, h);
        let p_j = initial_priority(&st, &ctx, j);
        let p_f = initial_priority(&st, &ctx, f);
        let p_i = initial_priority(&st, &ctx, i);
        assert_eq!(p_h, p_j);
        assert_eq!(p_f, p_i);
        assert_ne!(p_h, p_f);
        assert!(!p_h.is_positive() && !p_f.is_positive());
        assert_eq!(band_of(p_h, t), Some(mix_group_id(10)));
        assert_eq!(band_of(p_f, t), Some(mix_group_id(6)));
    }

    #[test]
    fn negative_bands_are_disjoint_per_group() {
        let t = 100u64;
        // Every priority a group can produce (timestamps 0..t) must map back
        // to that group's band, and two different groups must never share a
        // band.
        for (ga, gb) in [(5u64, 6u64), (1, 2), (1000, 1001), (42, 4242)] {
            for ts in [0u64, 1, 50, 99] {
                let pa = negative_band_priority(ga, t, ts);
                let pb = negative_band_priority(gb, t, ts);
                assert_eq!(band_of(pa, t), Some(mix_group_id(ga)));
                assert_eq!(band_of(pb, t), Some(mix_group_id(gb)));
                assert_ne!(band_of(pa, t), band_of(pb, t));
                assert!(!pa.is_positive() && !pb.is_positive());
            }
        }
    }

    #[test]
    fn mixing_is_deterministic_and_collision_free_on_small_ranges() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..20_000u64 {
            assert!(seen.insert(mix_group_id(id)), "collision at {id}");
        }
        assert_eq!(mix_group_id(7), mix_group_id(7));
    }

    #[test]
    fn band_of_ignores_positive_priorities() {
        assert_eq!(band_of(Priority::INFINITY, 10), None);
        assert_eq!(band_of(Priority::finite(5), 10), None);
        assert_eq!(band_of(Priority::finite(-25), 10), Some(3));
    }

    #[test]
    fn p4_uses_the_level_d_group() {
        let mut st = table_with(&[3, 4]);
        st.set_group_id(id(0), 2, 9);
        st.set_timestamp(id(0), 3, 6);
        let p = recomputed_priority(&st, 50, 2, id(0));
        let band = mix_group_id(9) as i128;
        assert_eq!(p, Priority::finite(-(band * 50) + 6));
        assert_eq!(band_of(p, 50), Some(mix_group_id(9)));
    }
}
