//! A count-min frequency sketch with periodic counter halving ("aging").
//!
//! The sketch answers one question in O(1): *roughly how often has this
//! pair (or this peer, or this `l_α` subtree) been requested recently?*
//! It is the
//! frequency estimator feeding the [`admission`](super::admission) gate,
//! shaped like the TinyLFU estimators used by cache admission policies:
//!
//! * [`SKETCH_ROWS`] rows of [`SKETCH_WIDTH`] saturating `u32` counters;
//!   an update increments one counter per row, an estimate takes the
//!   minimum over rows (classic count-min: overestimates only).
//! * Periodic **aging**: after every `aging_period` key updates, all
//!   counters are halved. Old traffic decays geometrically, so the
//!   estimate tracks *recent* frequency and a flash crowd can both rise
//!   above and fall back below the admission threshold.
//! * Row seeds derive deterministically from `DsgConfig::seed`, so two
//!   engines built with the same config hash identically — a requirement
//!   for the restart-replay and shard-equivalence oracles.
//!
//! # Staging discipline
//!
//! The epoch pipeline stages increments *before* planning but must be
//! able to abort the epoch with the engine bit-identical to its pre-epoch
//! state (the plan phase is pure-read by contract). The sketch therefore
//! exposes a two-phase API: [`FreqSketch::stage_increment`] applies the
//! increment and records an undo entry, then exactly one of
//! [`FreqSketch::commit`] (clears the undo log, advances the aging clock)
//! or [`FreqSketch::rollback`] (reverts every staged increment) runs.
//! Saturated counters are *not* incremented — and not recorded — so a
//! rollback is exact even at `u32::MAX`.

use crate::persist::{put_varint, Reader};
use dsg_skipgraph::Prefix;

/// Number of hash rows in the sketch.
pub const SKETCH_ROWS: usize = 4;

/// Counters per row. A power of two so row hashes reduce with a mask.
///
/// Sized against the default aging period (4096 updates): each staged
/// update increments one counter per row, so a row absorbs at most
/// `aging_period / SKETCH_WIDTH` ≈ 0.5 increments per cell between
/// halvings and the steady-state load stays ≈ 1. A narrow sketch is not
/// a graceful degradation — once the per-cell load crosses the admission
/// threshold, *cold* keys estimate hot and the gate admits everything.
/// 128 KiB per gated engine is the explicit price of that margin.
pub const SKETCH_WIDTH: usize = 8192;

const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Serialized sketch state, as embedded in the engine image.
///
/// Only the counters and the aging cursors are captured: the row seeds
/// and the aging period are pure functions of the (separately serialized)
/// `DsgConfig`, so a decoder rebuilds them from the config it just read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchImage {
    /// Row-major counter matrix, `SKETCH_ROWS * SKETCH_WIDTH` entries.
    pub counters: Vec<u32>,
    /// Key updates applied since the last halving pass.
    pub updates_since_aging: u64,
    /// Total halving passes performed over the sketch's lifetime.
    pub aging_passes: u64,
}

/// The sketch state an engine image carries, borrowed from a
/// [`SketchImage`] or straight from a live [`FreqSketch`]: the snapshot's
/// sketch section is encoded from this view alone, so both sources write
/// the same bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SketchView<'a> {
    counters: &'a [u32],
    updates_since_aging: u64,
    aging_passes: u64,
}

impl SketchView<'_> {
    /// Appends the sketch section to `out` in the engine-image byte format:
    /// the counter count, every counter and the two aging cursors, each a
    /// varint. Aging keeps counters small (a few hundred on the benchmark
    /// workloads), so most take one byte; they stay `u32` in memory.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(self.counters.len() + 30);
        put_varint(out, self.counters.len() as u64);
        for &c in self.counters {
            put_varint(out, u64::from(c));
        }
        put_varint(out, self.updates_since_aging);
        put_varint(out, self.aging_passes);
    }
}

impl SketchImage {
    /// The image as a [`SketchView`].
    pub(crate) fn view(&self) -> SketchView<'_> {
        SketchView {
            counters: &self.counters,
            updates_since_aging: self.updates_since_aging,
            aging_passes: self.aging_passes,
        }
    }

    /// Decodes an image previously written by [`SketchView::encode`],
    /// refusing a counter count other than the sketch's shape (or more
    /// than the remaining bytes hold) and a counter above `u32::MAX`.
    /// The opaque unit error follows the [`Reader`] convention: the
    /// snapshot decoder maps it to its typed corruption error.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, ()> {
        let len = r.varint()?;
        if len != (SKETCH_ROWS * SKETCH_WIDTH) as u64 || len > r.remaining() as u64 {
            return Err(());
        }
        let mut counters = Vec::with_capacity(len as usize);
        for _ in 0..len {
            counters.push(u32::try_from(r.varint()?).map_err(|_| ())?);
        }
        Ok(Self {
            counters,
            updates_since_aging: r.varint()?,
            aging_passes: r.varint()?,
        })
    }
}

/// The count-min sketch. See the [module docs](self) for the contract.
#[derive(Debug, Clone)]
pub struct FreqSketch {
    seeds: [u64; SKETCH_ROWS],
    counters: Vec<u32>,
    aging_period: u64,
    updates_since_aging: u64,
    aging_passes: u64,
    /// Undo log of counter indices incremented since the last commit.
    staged: Vec<u32>,
    staged_updates: u64,
}

impl FreqSketch {
    /// Creates an empty sketch whose row seeds derive from `seed` and
    /// whose counters halve after every `aging_period` key updates.
    ///
    /// # Panics
    /// Panics if `aging_period` is zero.
    pub fn new(seed: u64, aging_period: u64) -> Self {
        Self::with_counters(seed, aging_period, vec![0; SKETCH_ROWS * SKETCH_WIDTH])
    }

    /// A sketch over the given counter matrix, with nothing staged and no
    /// aging pass counted.
    fn with_counters(seed: u64, aging_period: u64, counters: Vec<u32>) -> Self {
        assert!(aging_period > 0, "sketch aging period must be positive");
        let mut seeds = [0u64; SKETCH_ROWS];
        for (row, slot) in seeds.iter_mut().enumerate() {
            *slot = splitmix64(seed ^ splitmix64(0xC3A5_C85C_97CB_3127 ^ row as u64));
        }
        Self {
            seeds,
            counters,
            aging_period,
            updates_since_aging: 0,
            aging_passes: 0,
            staged: Vec::new(),
            staged_updates: 0,
        }
    }

    /// The sketch key for a communication pair of external peer keys,
    /// normalized so that `(u, v)` and `(v, u)` count as the same pair.
    /// Peer keys above 2³² may alias — harmless for an approximate
    /// frequency estimate (count-min already overestimates).
    pub fn pair_key(u: u64, v: u64) -> u64 {
        let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
        (lo << 32) | (hi & 0xFFFF_FFFF)
    }

    /// The sketch key for a single peer endpoint. Endpoint frequencies
    /// are the TinyLFU community signal: the pair space is quadratically
    /// sparser than the peer space, so a hot *community* (working set,
    /// drifting hot set) shows up on its members long before any one of
    /// its pairs repeats. Disjoint from pair keys of realistic peer
    /// counts (bit 62) and from prefix keys (bit 63 clear).
    pub fn peer_key(peer: u64) -> u64 {
        (1u64 << 62) | peer
    }

    /// The sketch key for an `l_α` subtree, i.e. the meet prefix a pair's
    /// transformation would rebuild. Disjoint from pair keys of realistic
    /// peer counts (top bit set) and injective over (length, bits) via a
    /// leading-1 sentinel fold.
    pub fn prefix_key(prefix: &Prefix) -> u64 {
        let folded = prefix
            .iter()
            .fold(1u64, |acc, bit| (acc << 1) | u64::from(bit.as_u8()));
        (1u64 << 63) | folded
    }

    fn slot(&self, row: usize, key: u64) -> usize {
        let h = splitmix64(key ^ self.seeds[row]) as usize & (SKETCH_WIDTH - 1);
        row * SKETCH_WIDTH + h
    }

    /// The estimated recent frequency of `key` (minimum over rows; an
    /// overestimate, never an underestimate, up to aging decay).
    pub fn estimate(&self, key: u64) -> u32 {
        (0..SKETCH_ROWS)
            .map(|row| self.counters[self.slot(row, key)])
            .min()
            .unwrap_or(0)
    }

    /// Stages one occurrence of `key`: increments one counter per row and
    /// records the increments for [`rollback`](Self::rollback). Saturated
    /// counters are left untouched (and unrecorded) so rollback is exact.
    pub fn stage_increment(&mut self, key: u64) {
        for row in 0..SKETCH_ROWS {
            let idx = self.slot(row, key);
            if self.counters[idx] < u32::MAX {
                self.counters[idx] += 1;
                self.staged.push(idx as u32);
            }
        }
        self.staged_updates += 1;
    }

    /// Commits every staged increment, advances the aging clock, and runs
    /// any halving passes that are now due. Returns the number of halving
    /// passes performed by this commit.
    pub fn commit(&mut self) -> u64 {
        self.staged.clear();
        self.updates_since_aging += self.staged_updates;
        self.staged_updates = 0;
        let mut passes = 0;
        while self.updates_since_aging >= self.aging_period {
            self.updates_since_aging -= self.aging_period;
            for c in &mut self.counters {
                *c >>= 1;
            }
            passes += 1;
        }
        self.aging_passes += passes;
        passes
    }

    /// Reverts every increment staged since the last commit, restoring
    /// the sketch bit-identical to its pre-staging state.
    pub fn rollback(&mut self) {
        for idx in self.staged.drain(..) {
            self.counters[idx as usize] -= 1;
        }
        self.staged_updates = 0;
    }

    /// Total halving passes performed over the sketch's lifetime.
    pub fn aging_passes(&self) -> u64 {
        self.aging_passes
    }

    /// Committed key updates since the last halving pass (staged but
    /// uncommitted updates are excluded). Together with
    /// [`aging_passes`](Self::aging_passes) this lets the admission gate
    /// price an estimate against the *uniform share* of recent traffic.
    pub fn updates_since_aging(&self) -> u64 {
        self.updates_since_aging
    }

    /// Captures the persistent state. Must only be called with no staged
    /// increments outstanding (the engine captures images at `Idle`).
    ///
    /// # Panics
    /// Panics if increments are staged but neither committed nor rolled
    /// back.
    pub fn to_image(&self) -> SketchImage {
        let view = self.view();
        SketchImage {
            counters: view.counters.to_vec(),
            updates_since_aging: view.updates_since_aging,
            aging_passes: view.aging_passes,
        }
    }

    /// The persistent state as a [`SketchView`], without copying the
    /// counters: what a snapshot encodes straight from the engine.
    ///
    /// # Panics
    /// Panics if increments are staged but neither committed nor rolled
    /// back.
    pub(crate) fn view(&self) -> SketchView<'_> {
        assert!(
            self.staged.is_empty() && self.staged_updates == 0,
            "sketch image captured with staged increments outstanding"
        );
        SketchView {
            counters: &self.counters,
            updates_since_aging: self.updates_since_aging,
            aging_passes: self.aging_passes,
        }
    }

    /// Rebuilds a sketch from a captured image plus the config-derived
    /// parameters (`seed`, `aging_period`) it was created with. The
    /// image's counter matrix becomes the sketch's; nothing is copied.
    ///
    /// # Panics
    /// Panics if `aging_period` is zero or the image has the wrong
    /// matrix size (images a decoded snapshot carries are pre-checked).
    pub fn from_image(seed: u64, aging_period: u64, image: SketchImage) -> Self {
        assert_eq!(
            image.counters.len(),
            SKETCH_ROWS * SKETCH_WIDTH,
            "sketch image has the wrong counter matrix size"
        );
        Self {
            updates_since_aging: image.updates_since_aging,
            aging_passes: image.aging_passes,
            ..Self::with_counters(seed, aging_period, image.counters)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_never_underestimates() {
        let mut s = FreqSketch::new(7, 1 << 40);
        let key = FreqSketch::pair_key(3, 11);
        for _ in 0..25 {
            s.stage_increment(key);
        }
        s.commit();
        assert!(s.estimate(key) >= 25);
    }

    #[test]
    fn pair_key_is_symmetric() {
        assert_eq!(FreqSketch::pair_key(4, 9), FreqSketch::pair_key(9, 4));
        assert_ne!(FreqSketch::pair_key(4, 9), FreqSketch::pair_key(4, 8));
    }

    #[test]
    fn prefix_keys_distinguish_length_and_disjoint_from_pairs() {
        use dsg_skipgraph::Bit;
        let root = Prefix::root();
        let zero = root.child(Bit::Zero);
        let zero_zero = zero.child(Bit::Zero);
        let k_root = FreqSketch::prefix_key(&root);
        let k_zero = FreqSketch::prefix_key(&zero);
        let k_zz = FreqSketch::prefix_key(&zero_zero);
        assert_ne!(k_root, k_zero);
        assert_ne!(k_zero, k_zz);
        // Pair keys never have the top bit set for realistic peer counts.
        assert_eq!(FreqSketch::pair_key(0, u64::MAX >> 32) >> 63, 0);
        assert_eq!(k_root >> 63, 1);
    }

    #[test]
    fn peer_keys_are_disjoint_from_pair_and_prefix_keys() {
        let peer = FreqSketch::peer_key(7);
        assert_eq!(peer >> 62, 0b01, "peer keys carry the peer tag");
        // Pair keys of realistic peer counts leave bits 62–63 clear;
        // prefix keys set bit 63.
        assert_eq!(FreqSketch::pair_key(7, 9) >> 62, 0);
        assert_eq!(FreqSketch::prefix_key(&Prefix::root()) >> 63, 1);
        assert_ne!(FreqSketch::peer_key(3), FreqSketch::peer_key(4));
    }

    #[test]
    fn rollback_is_exact_including_saturation() {
        let mut s = FreqSketch::new(3, 1 << 40);
        let key = FreqSketch::pair_key(1, 2);
        s.stage_increment(key);
        s.commit();
        let baseline = s.clone();
        // Saturate one row's counter so the next staged increment skips it.
        let idx = s.slot(0, key);
        s.counters[idx] = u32::MAX;
        let saturated = s.clone();
        s.stage_increment(key);
        s.stage_increment(FreqSketch::pair_key(5, 6));
        s.rollback();
        assert_eq!(s.counters, saturated.counters);
        assert_eq!(s.estimate(key), baseline.estimate(key).max(1));
    }

    #[test]
    fn aging_halves_counters_on_schedule() {
        let mut s = FreqSketch::new(11, 8);
        let key = FreqSketch::pair_key(0, 1);
        for _ in 0..7 {
            s.stage_increment(key);
        }
        assert_eq!(s.commit(), 0, "seven updates under an eight-period");
        let before = s.estimate(key);
        s.stage_increment(key);
        assert_eq!(s.commit(), 1, "eighth update triggers one pass");
        assert_eq!(s.aging_passes(), 1);
        assert_eq!(s.estimate(key), before.div_ceil(2));
        // A burst larger than several periods drains in one commit.
        for _ in 0..17 {
            s.stage_increment(key);
        }
        assert_eq!(s.commit(), 2);
        assert_eq!(s.aging_passes(), 3);
    }

    #[test]
    fn image_round_trip_is_bit_identical() {
        let mut s = FreqSketch::new(0xD56, 64);
        for i in 0..100u64 {
            s.stage_increment(FreqSketch::pair_key(i % 7, i % 13));
        }
        s.commit();
        let image = s.to_image();
        let mut bytes = Vec::new();
        image.view().encode(&mut bytes);
        // The live sketch encodes the same bytes as its image.
        let mut live = Vec::new();
        s.view().encode(&mut live);
        assert_eq!(live, bytes);
        let mut r = Reader::new(&bytes);
        let decoded = SketchImage::decode(&mut r).expect("decode");
        assert!(r.is_at_end());
        assert_eq!(decoded, image);
        let rebuilt = FreqSketch::from_image(0xD56, 64, decoded);
        assert_eq!(rebuilt.counters, s.counters);
        assert_eq!(rebuilt.updates_since_aging, s.updates_since_aging);
        assert_eq!(rebuilt.aging_passes, s.aging_passes);
    }

    #[test]
    fn seeds_differ_by_engine_seed() {
        let a = FreqSketch::new(1, 64);
        let b = FreqSketch::new(2, 64);
        assert_ne!(a.seeds, b.seeds);
    }

    #[test]
    #[should_panic(expected = "staged increments outstanding")]
    fn image_capture_rejects_staged_state() {
        let mut s = FreqSketch::new(0, 64);
        s.stage_increment(FreqSketch::pair_key(0, 1));
        let _ = s.to_image();
    }
}
