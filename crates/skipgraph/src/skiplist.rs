//! The balanced probabilistic skip list used by the AMF algorithm (§V).
//!
//! Given a linked list of `n` positions, AMF first constructs a skip list in
//! which the left-most node steps up to the next level with probability 1
//! and every other node with probability `1/a`. While each level is built,
//! nodes locally ensure that no two consecutive members of the level are
//! *supported* by fewer than `a/2` or more than `2a` nodes of the level
//! below ("supported by `k` nodes" means having `k - 1` nodes in between at
//! the immediately lower level). Construction ends when the left-most node
//! is the only member of the top level.
//!
//! The resulting structure is reused by the self-adjusting algorithm for
//! three distributed primitives, all `O(log n)` rounds:
//!
//! * gathering and sampling values for approximate median finding,
//! * computing distributed sums (|l_d|, |g_s|, |L_low|, |L_high|), and
//! * broadcasting a value (the approximate median, a new group-id) to every
//!   member of the base list.
//!
//! The skip list is built over *positions* `0..n` of the underlying linked
//! list rather than over node ids, so the same structure serves any list.

use rand::{Rng, RngExt};

/// A balanced probabilistic skip list over positions `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalancedSkipList {
    /// `levels[0]` is `0..n`; `levels[h]` is the singleton `[0]`.
    levels: Vec<Vec<usize>>,
    a: usize,
    construction_rounds: usize,
    /// [`BalancedSkipList::broadcast_rounds`], summed while building.
    broadcast_rounds: usize,
}

impl BalancedSkipList {
    /// Builds a balanced skip list over `n` positions with balance
    /// parameter `a` (the same constant as the a-balance property), using
    /// `rng` for the probabilistic step-up decisions.
    ///
    /// # Panics
    ///
    /// Panics if `a < 2` (the support window `[a/2, 2a]` degenerates) or if
    /// `n == 0`.
    pub fn build<R: Rng + ?Sized>(n: usize, a: usize, rng: &mut R) -> Self {
        let mut list = BalancedSkipList {
            levels: Vec::new(),
            a,
            construction_rounds: 0,
            broadcast_rounds: 0,
        };
        list.rebuild(n, a, rng);
        list
    }

    /// Rebuilds the skip list in place over `n` positions, recycling the
    /// level vectors of the previous build. The AMF engine runs one median
    /// per list of a rebuilt subtree; reusing the allocations makes those
    /// back-to-back builds allocation-free while drawing exactly the same
    /// randomness (results are identical to a fresh [`Self::build`]).
    ///
    /// # Panics
    ///
    /// Panics if `a < 2` or `n == 0`.
    pub fn rebuild<R: Rng + ?Sized>(&mut self, n: usize, a: usize, rng: &mut R) {
        assert!(n > 0, "cannot build a skip list over an empty list");
        assert!(a >= 2, "the balance parameter a must be at least 2");
        self.a = a;
        self.construction_rounds = 0;
        let mut broadcast_gaps = 0usize;
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        let base = &mut self.levels[0];
        base.clear();
        base.extend(0..n);
        let mut used = 1usize;
        loop {
            if self.levels[used - 1].len() <= 1 {
                break;
            }
            if self.levels.len() == used {
                self.levels.push(Vec::new());
            }
            let (head, tail) = self.levels.split_at_mut(used);
            let current = &head[used - 1];
            let next = &mut tail[0];
            Self::build_next_level_into(current, a, rng, next);
            // Linear neighbour search from the level below costs (at most)
            // the largest support gap; plus one round for the local support
            // checks.
            let gap = Self::max_gap(current, next);
            self.construction_rounds += gap + 1;
            if next.len() < current.len() {
                broadcast_gaps += gap;
            } else {
                // Degenerate random outcome (possible for tiny a): force a
                // deterministic thinning so construction terminates.
                let step = a.max(2);
                let mut keep = 0usize;
                let mut i = 0usize;
                while i < next.len() {
                    next[keep] = next[i];
                    keep += 1;
                    i += step;
                }
                next.truncate(keep);
                broadcast_gaps += Self::max_gap(current, next);
            }
            used += 1;
        }
        self.levels.truncate(used);
        self.broadcast_rounds = broadcast_gaps.max(1);
        // The root broadcasts the height h to every node of the skip list.
        self.construction_rounds += self.levels.len();
    }

    /// Selects the members of the next level from `current` into `out`:
    /// position 0 always steps up, the rest with probability `1/a`, and the
    /// support constraint `a/2 ≤ support ≤ 2a` is enforced locally, fused
    /// into the same pass (the normalisation only ever looks at the last
    /// emitted member, so no intermediate list is needed).
    fn build_next_level_into<R: Rng + ?Sized>(
        current: &[usize],
        a: usize,
        rng: &mut R,
        out: &mut Vec<usize>,
    ) {
        let min_support = (a / 2).max(1);
        let max_support = 2 * a;
        // `out` first holds normalised *indices into current*; they are
        // mapped to positions at the end.
        out.clear();
        out.push(0);
        let mut last = 0usize;
        for idx in 1..current.len() {
            if rng.random_bool(1.0 / a as f64) {
                let support = idx - last;
                if support < min_support {
                    // Too close: this node steps back down (is skipped).
                    continue;
                }
                // Too far: intermediate nodes are asked to step up so that
                // no gap exceeds 2a.
                while idx - last > max_support {
                    last += max_support;
                    out.push(last);
                }
                out.push(idx);
                last = idx;
            }
        }
        // Handle the tail: values held by trailing positions are forwarded
        // to the last chosen node, so its support must also stay within the
        // window.
        while current.len() - last > max_support {
            last += max_support;
            out.push(last);
        }
        for slot in out.iter_mut() {
            *slot = current[*slot];
        }
    }

    fn max_gap(lower: &[usize], upper: &[usize]) -> usize {
        if upper.is_empty() {
            return lower.len();
        }
        let mut max = 0usize;
        // Positions of upper members within the lower level.
        let mut upper_iter = upper.iter().peekable();
        let mut last_idx = 0usize;
        for (idx, pos) in lower.iter().enumerate() {
            if upper_iter.peek() == Some(&pos) {
                max = max.max(idx - last_idx);
                last_idx = idx;
                upper_iter.next();
            }
        }
        max = max.max(lower.len() - 1 - last_idx);
        max
    }

    /// The balance parameter the skip list was built with.
    pub fn a(&self) -> usize {
        self.a
    }

    /// Number of positions in the underlying list.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// Returns `true` if the underlying list has exactly one position.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Height `h` of the skip list: the index of the level at which the
    /// left-most node is singleton. A single-position list has height 0.
    pub fn height(&self) -> usize {
        self.levels.len() - 1
    }

    /// The members (as positions of the underlying list) present at `level`,
    /// in ascending order. Level 0 is the full list.
    pub fn level_members(&self, level: usize) -> &[usize] {
        &self.levels[level]
    }

    /// All levels, bottom-up.
    pub fn levels(&self) -> &[Vec<usize>] {
        &self.levels
    }

    /// Number of synchronous rounds the distributed construction takes
    /// (neighbour searches per level plus the height broadcast). Expected
    /// `O(log n)` by Theorem 3's supporting argument.
    pub fn construction_rounds(&self) -> usize {
        self.construction_rounds
    }

    /// Checks the support invariant: between any two consecutive members of
    /// any level above the base, the support (distance in the level below)
    /// is at most `2a`; violations of the lower bound are tolerated for the
    /// final member of a level (the tail cannot always be padded).
    pub fn supports_within_bounds(&self) -> bool {
        for upper_level in 1..self.levels.len() {
            let lower = &self.levels[upper_level - 1];
            let upper = &self.levels[upper_level];
            let idx_of = |pos: usize| lower.binary_search(&pos).ok();
            let mut last_idx = match upper.first().and_then(|p| idx_of(*p)) {
                Some(i) => i,
                None => return false,
            };
            for pos in upper.iter().skip(1) {
                let idx = match idx_of(*pos) {
                    Some(i) => i,
                    None => return false,
                };
                if idx - last_idx > 2 * self.a {
                    return false;
                }
                last_idx = idx;
            }
            if lower.len() - 1 - last_idx > 2 * self.a {
                return false;
            }
        }
        true
    }

    /// Computes the sum of `values` (one per position of the underlying
    /// list) the way the distributed-sum protocol of Appendix D would:
    /// partial sums climb the skip list toward the left-most node, which
    /// then broadcasts the total. Returns the sum together with the number
    /// of rounds consumed.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the length of the underlying
    /// list.
    pub fn distributed_sum(&self, values: &[i64]) -> (i64, usize) {
        assert_eq!(
            values.len(),
            self.len(),
            "one value per position is required"
        );
        let sum = values.iter().sum();
        // Rounds: at each level, partial sums travel at most the largest
        // support gap leftward; then the total is broadcast back down.
        let mut rounds = 0usize;
        for upper_level in 1..self.levels.len() {
            rounds += Self::max_gap(&self.levels[upper_level - 1], &self.levels[upper_level]);
        }
        rounds += self.height(); // broadcast of the result
        (sum, rounds.max(1))
    }

    /// Number of rounds needed to broadcast one `O(log n)`-bit value from
    /// the root to every position of the underlying list.
    pub fn broadcast_rounds(&self) -> usize {
        self.broadcast_rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn single_position_list_is_trivial() {
        let mut rng = StdRng::seed_from_u64(1);
        let sl = BalancedSkipList::build(1, 2, &mut rng);
        assert_eq!(sl.height(), 0);
        assert_eq!(sl.len(), 1);
        assert_eq!(sl.level_members(0), &[0]);
    }

    #[test]
    fn top_level_is_the_leftmost_singleton() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [2usize, 5, 17, 100, 1000] {
            let sl = BalancedSkipList::build(n, 3, &mut rng);
            let top = sl.level_members(sl.height());
            assert_eq!(top, &[0], "n = {n}");
        }
    }

    #[test]
    fn every_level_is_a_subset_of_the_level_below() {
        let mut rng = StdRng::seed_from_u64(3);
        let sl = BalancedSkipList::build(500, 4, &mut rng);
        for level in 1..=sl.height() {
            let lower = sl.level_members(level - 1);
            for pos in sl.level_members(level) {
                assert!(lower.contains(pos));
            }
        }
    }

    #[test]
    fn supports_respect_the_upper_bound() {
        let mut rng = StdRng::seed_from_u64(4);
        for a in [2usize, 3, 4, 8] {
            for n in [10usize, 64, 257, 1024] {
                let sl = BalancedSkipList::build(n, a, &mut rng);
                assert!(
                    sl.supports_within_bounds(),
                    "support bound violated for n = {n}, a = {a}"
                );
            }
        }
    }

    #[test]
    fn height_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [64usize, 256, 1024, 4096] {
            let a = 2usize;
            let sl = BalancedSkipList::build(n, a, &mut rng);
            // h = log_b n with a/2 <= b <= 2a, so h is between log_{2a} n
            // and log_{a/2} n; allow slack for the probabilistic build.
            let upper = (n as f64).log2() / ((a as f64) / 2.0).max(1.5).log2() + 4.0;
            assert!(
                (sl.height() as f64) <= upper.max(6.0) * 2.0,
                "height {} too large for n = {n}",
                sl.height()
            );
            assert!(sl.height() >= 1);
        }
    }

    #[test]
    fn construction_rounds_are_logarithmic() {
        let mut rng = StdRng::seed_from_u64(6);
        for n in [64usize, 512, 4096] {
            let a = 4usize;
            let sl = BalancedSkipList::build(n, a, &mut rng);
            let bound = 8.0 * (a as f64) * (n as f64).log2();
            assert!(
                (sl.construction_rounds() as f64) <= bound,
                "{} rounds for n = {n} exceeds {bound}",
                sl.construction_rounds()
            );
        }
    }

    #[test]
    fn distributed_sum_matches_sequential_sum() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 300usize;
        let sl = BalancedSkipList::build(n, 3, &mut rng);
        let values: Vec<i64> = (0..n as i64).map(|v| v * 3 - 100).collect();
        let (sum, rounds) = sl.distributed_sum(&values);
        assert_eq!(sum, values.iter().sum::<i64>());
        assert!(rounds >= 1);
        let bound = 8.0 * 3.0 * (n as f64).log2();
        assert!((rounds as f64) <= bound, "{rounds} rounds exceeds {bound}");
    }

    #[test]
    #[should_panic(expected = "one value per position")]
    fn distributed_sum_rejects_wrong_length() {
        let mut rng = StdRng::seed_from_u64(8);
        let sl = BalancedSkipList::build(10, 2, &mut rng);
        let _ = sl.distributed_sum(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_a_is_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let _ = BalancedSkipList::build(10, 1, &mut rng);
    }
}
