//! Approximate Median Finding (AMF) — paper §V, Algorithm 2, Lemma 1.
//!
//! Given a linked list of nodes each holding a value, AMF finds an
//! *approximate median* in expected `O(log n)` rounds:
//!
//! 1. build a balanced probabilistic skip list over the list (left-most node
//!    steps up with probability 1, the rest with probability `1/a`, supports
//!    kept within `[a/2, 2a]`);
//! 2. values climb the skip list toward the left-most node; from level
//!    `⌈log_{a/2} h⌉ + 1` upward each node sorts what it received, keeps a
//!    uniform sample of `a·h` values and discards the rest, maintaining a
//!    *left rank* and *right rank* per kept value (how many discarded values
//!    are known to be larger / smaller);
//! 3. the left-most node picks the value whose rank estimate is closest to
//!    `n/2` and broadcasts it.
//!
//! Lemma 1: the returned value has true rank within `n/2 ± n/(2a)`.
//!
//! Two [`MedianFinder`] implementations are provided: [`AmfMedian`] (the
//! distributed algorithm above, with per-call round accounting) and
//! [`ExactMedian`] (a deterministic oracle for unit tests and the
//! worked examples).
//!
//! The simulation keeps every climbing value in one flat buffer of compact
//! climb records — a 16-byte [`Priority`] plus two `u32` ranks, 24 bytes —
//! grouped by the skip-list member holding them, so a level's gather needs
//! no data movement at all unless a bucket is sampled, and a bucket is
//! sorted (stably) only when it is sampled or picked from. It builds the
//! same skip lists from the same random draws and samples the same sorted
//! sequences as a simulation holding one buffer per position would, so it
//! returns the same medians and charges the same rounds
//! (`tests::amf_outputs_are_pinned` pins a seeded sequence of calls).

use rand::rngs::StdRng;
use rand::SeedableRng;

use dsg_skipgraph::BalancedSkipList;

use crate::priority::Priority;

/// The result of one median computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MedianOutcome {
    /// The (approximate) median value.
    pub median: Priority,
    /// Number of synchronous rounds charged for the computation, including
    /// the skip-list construction and the final broadcast.
    pub rounds: usize,
    /// Height of the balanced skip list that was built (0 for the exact
    /// oracle).
    pub skip_list_height: usize,
}

/// Strategy interface for the per-level median computation of the
/// transformation (step 4 of Algorithm 1).
pub trait MedianFinder {
    /// Computes an (approximate) median of `values` (the priorities of the
    /// members of one linked list, in list order) using balance parameter
    /// `a`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `values` is empty; the transformation
    /// never asks for the median of an empty list.
    fn find_median(&mut self, values: &[Priority], a: usize) -> MedianOutcome;
}

/// Deterministic exact-median oracle.
///
/// Charged an idealised `⌈log₂ n⌉` rounds (the depth of any aggregation
/// tree); useful for reproducible unit tests and as the ablation baseline
/// that isolates the cost/accuracy impact of AMF.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactMedian;

impl MedianFinder for ExactMedian {
    fn find_median(&mut self, values: &[Priority], _a: usize) -> MedianOutcome {
        assert!(!values.is_empty(), "median of an empty list is undefined");
        let mut sorted: Vec<Priority> = values.to_vec();
        // The paper's splits use "P(x) ≥ M goes to the 0-subgraph", so the
        // upper median keeps the two subgraphs balanced for even sizes.
        let (_, &mut median, _) = sorted.select_nth_unstable(values.len() / 2);
        let rounds = (values.len().max(2) as f64).log2().ceil() as usize;
        MedianOutcome {
            median,
            rounds,
            skip_list_height: 0,
        }
    }
}

/// The paper's randomised distributed AMF algorithm.
///
/// The climb buffers and sampling scratch are owned by the engine and
/// recycled across calls: a transformation runs one median per list of the
/// rebuilt subtree. Every value still climbing lives in one flat buffer,
/// grouped by the skip-list member currently holding it, holders in
/// position order, so gathering a level's values to their owners moves no
/// data unless a bucket is sampled. Neither the recycling nor the layout
/// changes the arithmetic or draws extra randomness.
#[derive(Debug)]
pub struct AmfMedian {
    rng: StdRng,
    skip_list: Option<BalancedSkipList>,
    tiny: Vec<Priority>,
    /// The climb records of the values still travelling, grouped by the
    /// member of the current level that holds them.
    climbing: Vec<RankedValue>,
    /// Where each holder's run starts in `climbing` (one entry per member
    /// of the current level, plus the end).
    runs: Vec<u32>,
    next_runs: Vec<u32>,
    keep_indices: Vec<usize>,
    kept: Vec<RankedValue>,
}

impl AmfMedian {
    /// Creates an AMF engine with the given seed (skip-list construction is
    /// randomised; a fixed seed makes runs reproducible).
    pub fn new(seed: u64) -> Self {
        AmfMedian {
            rng: StdRng::seed_from_u64(seed),
            skip_list: None,
            tiny: Vec::new(),
            climbing: Vec::new(),
            runs: Vec::new(),
            next_runs: Vec::new(),
            keep_indices: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// Resets the random stream to `seed` without dropping the recycled
    /// buffers. The epoch engine reseeds per transformation cluster with a
    /// seed derived from the cluster's first request time, so the medians a
    /// cluster receives are a pure function of the cluster — independent of
    /// how many clusters share the epoch and of the order they are planned
    /// in. That independence is what lets a batch of disjoint pairs
    /// restructure exactly as the same requests served one at a time.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }
}

/// A value travelling up the skip list together with its discard ranks
/// (24 bytes: ranks never exceed the list length, which fits a `u32`).
#[derive(Debug, Clone, Copy)]
struct RankedValue {
    value: Priority,
    /// Number of discarded values known to be ≥ this value.
    left_rank: u32,
    /// Number of discarded values known to be ≤ this value.
    right_rank: u32,
}

impl MedianFinder for AmfMedian {
    fn find_median(&mut self, values: &[Priority], a: usize) -> MedianOutcome {
        assert!(!values.is_empty(), "median of an empty list is undefined");
        let n = values.len();
        if n <= 2 * a {
            // Tiny lists: the left-most node can gather everything directly
            // in O(a) rounds; return the exact upper median. (`tiny` is a
            // recycled buffer — a transformation computes medians for
            // thousands of small lists per request.)
            self.tiny.clear();
            self.tiny.extend_from_slice(values);
            let (_, median, _) = self.tiny.select_nth_unstable(n / 2);
            return MedianOutcome {
                median: *median,
                rounds: n + 1,
                skip_list_height: 0,
            };
        }
        assert!(u32::try_from(n).is_ok(), "AMF ranks are counted in u32");
        let skip_list = match self.skip_list.as_mut() {
            Some(list) => {
                list.rebuild(n, a, &mut self.rng);
                &*list
            }
            None => self
                .skip_list
                .insert(BalancedSkipList::build(n, a, &mut self.rng)),
        };
        let h = skip_list.height();
        let sample_size = (a * h.max(1)).max(2);
        // Levels below this threshold only gather; sampling starts here.
        let sampling_start = ((h.max(2) as f64).log((a as f64 / 2.0).max(1.5)).ceil() as usize) + 1;

        // Level 0: every position holds its own value.
        self.climbing.clear();
        self.climbing
            .extend(values.iter().map(|&value| RankedValue {
                value,
                left_rank: 0,
                right_rank: 0,
            }));
        self.runs.clear();
        self.runs.extend(0..=n as u32);

        let mut rounds = skip_list.construction_rounds();

        for level in 1..=h {
            let lower = skip_list.level_members(level - 1);
            let upper = skip_list.level_members(level);
            let do_sample = level >= sampling_start || level == h;
            // Every lower-level member forwards its values to the nearest
            // upper-level member at or before it (position 0 is always in
            // the upper level, and upper ⊆ lower). The holders' runs are
            // adjacent in position order, so an owner's bucket is one
            // contiguous slice: its own run and those of the lower members
            // up to the next owner. A sampled bucket is written back
            // compacted, left to right, so the write cursor never
            // overtakes the unread input. The number of rounds is bounded
            // by the largest support gap.
            //
            // A bucket is sorted only when it is sampled. A stable sort of
            // a concatenation of stably sorted runs equals the stable sort
            // of the concatenation itself, so sorting an unsampled bucket
            // would change nothing the next sort does not redo.
            self.next_runs.clear();
            let mut write = 0usize;
            let mut max_gap = 0usize;
            let mut idx = 0usize;
            for (owner_idx, &owner) in upper.iter().enumerate() {
                debug_assert_eq!(lower[idx], owner, "upper levels are subsets of lower ones");
                let first = idx;
                let next_owner = upper.get(owner_idx + 1).copied().unwrap_or(usize::MAX);
                idx += 1;
                while idx < lower.len() && lower[idx] < next_owner {
                    idx += 1;
                }
                max_gap = max_gap.max(idx - 1 - first);
                let (from, to) = (self.runs[first] as usize, self.runs[idx] as usize);
                self.next_runs.push(write as u32);
                if do_sample && to - from > sample_size {
                    rounds += 1; // local sort + sample round
                    let bucket = &mut self.climbing[from..to];
                    bucket.sort_by_key(|x| x.value);
                    sample_with_ranks(bucket, sample_size, &mut self.keep_indices, &mut self.kept);
                    self.climbing[write..write + self.kept.len()].copy_from_slice(&self.kept);
                    write += self.kept.len();
                } else {
                    if write != from {
                        self.climbing.copy_within(from..to, write);
                    }
                    write += to - from;
                }
            }
            self.next_runs.push(write as u32);
            self.climbing.truncate(write);
            std::mem::swap(&mut self.runs, &mut self.next_runs);
            rounds += max_gap.max(1);
        }

        // The left-most node now holds the surviving values (already
        // sorted if the top level sampled them); pick the one whose
        // estimated global rank is closest to n/2.
        self.climbing.sort_by_key(|x| x.value);
        let median = pick_by_rank(&self.climbing, n);
        // Broadcast the median back to every node of the list.
        rounds += skip_list.broadcast_rounds();

        MedianOutcome {
            median,
            rounds,
            skip_list_height: h,
        }
    }
}

/// Uniformly samples `sample_size` values from a sorted bucket, folding the
/// discarded values' counts and ranks into the nearest kept value above
/// them (its right rank). `keep_indices` and `kept` are caller-owned
/// scratch buffers (overwritten); `kept` holds the result.
fn sample_with_ranks(
    sorted: &[RankedValue],
    sample_size: usize,
    keep_indices: &mut Vec<usize>,
    kept: &mut Vec<RankedValue>,
) {
    let len = sorted.len();
    debug_assert!(sample_size >= 2);
    // Indices of kept values: evenly spaced, always keeping both extremes.
    keep_indices.clear();
    keep_indices.extend((0..sample_size).map(|i| i * (len - 1) / (sample_size - 1)));
    keep_indices.dedup();
    kept.clear();
    kept.extend(keep_indices.iter().map(|&i| sorted[i]));
    // Each discarded value is credited once, to the kept value immediately
    // above it (crediting both neighbours would double count). The last
    // index is always kept, so every discarded value has one above it, and
    // one merge walk finds it.
    let mut above = 0usize;
    for (idx, value) in sorted.iter().enumerate() {
        if keep_indices[above] == idx {
            above += 1;
            continue;
        }
        kept[above].right_rank += 1 + value.right_rank + value.left_rank;
    }
}

/// Picks from the surviving values — sorted ascending — the one whose
/// estimated global rank is closest to `n / 2`.
fn pick_by_rank(sorted: &[RankedValue], n: usize) -> Priority {
    debug_assert!(!sorted.is_empty());
    debug_assert!(sorted.windows(2).all(|w| w[0].value <= w[1].value));
    let target = n / 2;
    let mut best = sorted[sorted.len() / 2];
    let mut best_err = usize::MAX;
    // Estimated number of values ≤ v: survivors below it plus their folded
    // right ranks plus its own right rank.
    let mut cumulative_below = 0usize;
    for rv in sorted {
        let rank_from_bottom = cumulative_below + rv.right_rank as usize + 1;
        let err = rank_from_bottom.abs_diff(target.max(1));
        if err < best_err {
            best_err = err;
            best = *rv;
        }
        cumulative_below += 1 + rv.right_rank as usize + rv.left_rank as usize;
    }
    best.value
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite(values: &[i64]) -> Vec<Priority> {
        values.iter().map(|&v| Priority::finite(v as i128)).collect()
    }

    /// True rank error of `median` within `values`, measured as distance of
    /// its position from n/2 in the sorted order.
    fn rank_error(values: &[Priority], median: Priority) -> usize {
        let below = values.iter().filter(|v| **v < median).count();
        let equal = values.iter().filter(|v| **v == median).count();
        let n = values.len();
        // The best achievable position among equal values.
        let lo = below;
        let hi = below + equal.saturating_sub(1);
        let target = n / 2;
        if target < lo {
            lo - target
        } else { target.saturating_sub(hi) }
    }

    #[test]
    fn exact_median_is_the_upper_median() {
        let mut finder = ExactMedian;
        let out = finder.find_median(&finite(&[5, 1, 9, 3]), 2);
        assert_eq!(out.median, Priority::finite(5));
        let out = finder.find_median(&finite(&[7, 2, 4]), 2);
        assert_eq!(out.median, Priority::finite(4));
        assert!(out.rounds >= 1);
    }

    #[test]
    fn exact_median_handles_infinities() {
        let mut finder = ExactMedian;
        let values = vec![Priority::INFINITY, Priority::INFINITY, Priority::finite(-3)];
        let out = finder.find_median(&values, 2);
        assert_eq!(out.median, Priority::INFINITY);
    }

    #[test]
    #[should_panic(expected = "empty list")]
    fn empty_input_panics() {
        let mut finder = ExactMedian;
        let _ = finder.find_median(&[], 2);
    }

    #[test]
    fn amf_on_tiny_lists_is_exact() {
        let mut finder = AmfMedian::new(1);
        let out = finder.find_median(&finite(&[4, 8, 1]), 3);
        assert_eq!(out.median, Priority::finite(4));
    }

    /// One cell of the AMF grid: `trials` seeded inputs of length `n` at
    /// balance parameter `a`.
    struct GridCell {
        a: usize,
        n: usize,
        worst_rank_error: usize,
        mean_rounds: f64,
    }

    /// Runs AMF over the grid `a ∈ {2, 3, 4, 8}` × `sizes`, `trials`
    /// pseudo-random inputs per cell, each on a freshly seeded finder.
    fn amf_grid(sizes: &[usize], trials: usize) -> Vec<GridCell> {
        let mut cells = Vec::new();
        for a in [2usize, 3, 4, 8] {
            for &n in sizes {
                let mut worst_rank_error = 0;
                let mut rounds = 0;
                for trial in 0..trials {
                    let values: Vec<Priority> = (0..n as i64)
                        .map(|v| {
                            Priority::finite(((v * 2654435761 + trial as i64) % 1_000_003) as i128)
                        })
                        .collect();
                    let out = AmfMedian::new((a * n + trial) as u64).find_median(&values, a);
                    worst_rank_error = worst_rank_error.max(rank_error(&values, out.median));
                    rounds += out.rounds;
                }
                cells.push(GridCell {
                    a,
                    n,
                    worst_rank_error,
                    mean_rounds: rounds as f64 / trials as f64,
                });
            }
        }
        cells
    }

    /// Lemma 1 on every cell of the grid: rank error within `n/2a`.
    fn assert_lemma_1_on_grid(sizes: &[usize], trials: usize) {
        for cell in amf_grid(sizes, trials) {
            let bound = cell.n / (2 * cell.a);
            assert!(
                cell.worst_rank_error <= bound,
                "rank error {} exceeds n/2a = {bound} for n = {}, a = {}",
                cell.worst_rank_error,
                cell.n,
                cell.a
            );
        }
    }

    /// §V: AMF takes expected `O(log n)` rounds. The paper gives no
    /// constant; the mean over 50 trials is 9.9–17.1 · log2 n on the full
    /// grid (n up to 4096), so 18 · log2 n caps it.
    fn assert_logarithmic_rounds_on_grid(sizes: &[usize], trials: usize) {
        for cell in amf_grid(sizes, trials) {
            let per_log_n = cell.mean_rounds / (cell.n as f64).log2();
            assert!(
                per_log_n <= 18.0,
                "mean rounds {:.2} = {per_log_n:.2} · log2 n for n = {}, a = {}",
                cell.mean_rounds,
                cell.n,
                cell.a
            );
        }
    }

    #[test]
    fn amf_rank_error_respects_lemma_1() {
        // Lemma 1: the output has rank within n/2 ± n/(2a).
        for a in [2usize, 3, 4, 8] {
            for n in [50usize, 200, 801] {
                let mut finder = AmfMedian::new(42 + (a * n) as u64);
                let values: Vec<Priority> = (0..n as i64)
                    .map(|v| Priority::finite(((v * 7919) % 104729) as i128 - 50_000))
                    .collect();
                let out = finder.find_median(&values, a);
                let err = rank_error(&values, out.median);
                let bound = n / (2 * a) + 1;
                assert!(
                    err <= bound,
                    "rank error {err} exceeds n/2a = {bound} for n = {n}, a = {a}"
                );
            }
        }
        assert_lemma_1_on_grid(&[64, 256], 50);
    }

    #[test]
    #[ignore = "full grid; run with --release -- --ignored"]
    fn amf_rank_error_respects_lemma_1_on_the_full_grid() {
        assert_lemma_1_on_grid(&[64, 256, 1024, 4096], 50);
    }

    #[test]
    fn amf_rounds_are_logarithmic() {
        let mut finder = AmfMedian::new(3);
        for n in [128usize, 1024, 4096] {
            let a = 4;
            let values: Vec<Priority> =
                (0..n as i64).map(|v| Priority::finite(v as i128)).collect();
            let out = finder.find_median(&values, a);
            let bound = 40.0 * (a as f64) * (n as f64).log2();
            assert!(
                (out.rounds as f64) <= bound,
                "{} rounds for n = {n} exceeds {bound}",
                out.rounds
            );
            assert!(out.skip_list_height >= 1);
        }
        assert_logarithmic_rounds_on_grid(&[64, 256], 50);
    }

    #[test]
    #[ignore = "full grid; run with --release -- --ignored"]
    fn amf_rounds_are_logarithmic_on_the_full_grid() {
        assert_logarithmic_rounds_on_grid(&[64, 256, 1024, 4096], 50);
    }

    #[test]
    fn amf_handles_duplicate_values() {
        let mut finder = AmfMedian::new(9);
        let values: Vec<Priority> = (0..500).map(|v| Priority::finite((v % 3) as i128)).collect();
        let out = finder.find_median(&values, 3);
        let err = rank_error(&values, out.median);
        assert!(err <= 500 / 6 + 1, "err = {err}");
    }

    /// The shapes of the pinned AMF inputs: distinct values, heavy ties,
    /// and lists holding `∞` entries (the communicating pair).
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        Distinct,
        Ties,
        WithInfinity,
    }

    /// Deterministic inputs for the AMF pin: an LCG stream mapped onto the
    /// value ranges the priority rules produce (negative bands far below
    /// zero, small positive timestamps).
    fn pinned_values(n: usize, shape: Shape, state: &mut u64) -> Vec<Priority> {
        (0..n)
            .map(|i| {
                *state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let draw = (*state >> 20) as i128;
                match shape {
                    Shape::Distinct => Priority::finite(draw - (1 << 43)),
                    Shape::Ties => Priority::finite(draw % 4 - 1),
                    Shape::WithInfinity if i % 7 == 3 || draw % 11 == 0 => Priority::INFINITY,
                    Shape::WithInfinity => Priority::finite(-(draw % 1_000_003) * (1 << 40)),
                }
            })
            .collect()
    }

    /// Pins the exact `(median, rounds, skip_list_height)` of a seeded
    /// sequence of `AmfMedian::find_median` calls on one recycled engine,
    /// reseeded midway like the epoch engine does per cluster. Any change
    /// to the simulation must return the same medians from the same random
    /// draws; a median is written as its finite value, `None` for `∞`.
    #[test]
    fn amf_outputs_are_pinned() {
        const SIZES: [usize; 12] = [3, 5, 7, 8, 13, 31, 64, 100, 257, 400, 640, 800];
        let shapes = [Shape::Distinct, Shape::Ties, Shape::WithInfinity];
        let mut finder = AmfMedian::new(0x5EED);
        let mut state = 17u64;
        let mut observed = Vec::new();
        for (k, &n) in SIZES.iter().enumerate() {
            if k == SIZES.len() / 2 {
                finder.reseed(0xC1A5);
            }
            for (s, &shape) in shapes.iter().enumerate() {
                let a = 2 + (k + s) % 3;
                let values = pinned_values(n, shape, &mut state);
                let out = finder.find_median(&values, a);
                observed.push((n, a, out.median.value(), out.rounds, out.skip_list_height));
            }
        }
        let expected: Vec<(usize, usize, Option<i128>, usize, usize)> = vec![
            (3, 2, Some(-2868642806738), 4, 0),
            (3, 3, Some(1), 4, 0),
            (3, 4, Some(-446154330760806400), 4, 0),
            (5, 3, Some(780754718580), 6, 0),
            (5, 4, Some(0), 6, 0),
            (5, 2, Some(-115664225195524096), 22, 3),
            (7, 4, Some(-5245441979023), 8, 0),
            (7, 2, Some(0), 24, 3),
            (7, 3, Some(-593209612929335296), 20, 3),
            (8, 2, Some(-3834780970792), 31, 3),
            (8, 3, Some(0), 26, 2),
            (8, 4, Some(-485228774988709888), 9, 0),
            (13, 3, Some(-6042722712937), 33, 4),
            (13, 4, Some(0), 29, 2),
            (13, 2, Some(-284219357733584896), 38, 4),
            (31, 4, Some(1048253745312), 50, 2),
            (31, 2, Some(1), 68, 7),
            (31, 3, Some(-173761320095580160), 60, 5),
            (64, 2, Some(-887559990705), 72, 6),
            (64, 3, Some(0), 61, 4),
            (64, 4, Some(-707020061520429056), 57, 3),
            (100, 3, Some(346356998798), 72, 5),
            (100, 4, Some(0), 69, 3),
            (100, 2, Some(-371518381955743744), 87, 8),
            (257, 4, Some(349304445740), 79, 5),
            (257, 2, Some(0), 103, 9),
            (257, 3, Some(-415281143764484096), 111, 7),
            (400, 2, Some(653178144667), 119, 10),
            (400, 3, Some(1), 106, 7),
            (400, 4, Some(-352191166562697216), 88, 4),
            (640, 3, Some(154624082402), 105, 6),
            (640, 4, Some(0), 95, 5),
            (640, 2, Some(-324031574263726080), 135, 11),
            (800, 4, Some(220602230595), 113, 5),
            (800, 2, Some(1), 134, 11),
            (800, 3, Some(-410228887834853376), 121, 7),
        ];
        assert_eq!(observed, expected);
    }

    #[test]
    fn amf_with_infinities_keeps_them_at_the_top() {
        // Half the list is the communicating group (∞ priorities cannot
        // occur more than twice in practice, but the finder must not
        // misorder them).
        let mut values = vec![Priority::INFINITY, Priority::INFINITY];
        values.extend((0..100).map(|v| Priority::finite(-v as i128)));
        let mut finder = AmfMedian::new(5);
        let out = finder.find_median(&values, 2);
        assert!(out.median < Priority::INFINITY);
    }
}
