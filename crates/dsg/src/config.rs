//! Configuration of the self-adjusting algorithm.

/// Which median finder the transformation uses (paper §IV-C step 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MedianStrategy {
    /// The paper's distributed approximate median finding algorithm (AMF,
    /// §V): randomised, `O(log n)` expected rounds, rank error within
    /// `n/2 ± n/2a` (Lemma 1).
    #[default]
    Amf,
    /// An exact median oracle. Deterministic, for unit tests and the
    /// worked examples; charged an idealised `⌈log₂ n⌉` rounds.
    Exact,
}

/// Whether the engine restructures on every communicate (the paper's
/// unconditional rule) or consults the adaptation policy first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdaptPolicy {
    /// Restructure on every communicate, unconditionally — the paper's
    /// amortized rule and the engine's historical behaviour. With this
    /// policy no sketch is allocated and the engine is bit-identical to
    /// the pre-policy engine (`tests/policy_gate.rs` pins this).
    #[default]
    Always,
    /// Sketch-fed TinyLFU-style admission: pairs whose count-min estimate
    /// clears [`PolicyConfig::threshold`] restructure eagerly; cold pairs
    /// route without restructuring, beyond a per-epoch budget of
    /// [`PolicyConfig::epoch_budget`] cold restructures.
    Gated,
}

/// Tuning for the adaptation policy subsystem
/// ([`policy`](crate::policy) module). Carried on [`DsgConfig`] so it is
/// serialized with the engine image and identical across replay twins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyConfig {
    /// The admission mode. Default [`AdaptPolicy::Always`] (gate off).
    pub policy: AdaptPolicy,
    /// Minimum count-min estimate for a cluster to be judged hot — on an
    /// exact pair repeat, on both endpoints being individually hot (the
    /// community signal), or scaled by subtree size for the amortization
    /// signal (see [`policy::admission`](crate::policy::admission)).
    /// Judged *after* the epoch's own occurrences are staged, so
    /// `threshold = 2` means "seen at least twice recently".
    pub threshold: u32,
    /// Cold-cluster restructures admitted per epoch before gating. Zero
    /// (the default) gates every cold cluster — the strictest setting,
    /// and the one that realises the uniform-traffic win, since
    /// sequential traffic forms single-pair epochs that a budget of even
    /// 1 would wave through.
    pub epoch_budget: u32,
    /// Sketch key-updates between counter-halving passes. Each request
    /// stages four key updates (pair + both endpoints + `l_α` prefix),
    /// so the default 4096 ages roughly every 1024 requests. Must stay
    /// well below `SKETCH_ROWS × SKETCH_WIDTH` cell capacity — a period
    /// that outruns the sketch width drives per-cell load past the
    /// threshold and the gate admits everything (fails open).
    pub aging_period: u64,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            policy: AdaptPolicy::default(),
            threshold: 2,
            epoch_budget: 0,
            aging_period: 4096,
        }
    }
}

impl PolicyConfig {
    /// A gated policy with the default threshold, budget, and aging.
    pub fn gated() -> Self {
        PolicyConfig {
            policy: AdaptPolicy::Gated,
            ..PolicyConfig::default()
        }
    }

    /// Sets the hotness threshold.
    pub fn with_threshold(mut self, threshold: u32) -> Self {
        self.threshold = threshold;
        self
    }

    /// Sets the per-epoch cold-restructure budget.
    pub fn with_epoch_budget(mut self, budget: u32) -> Self {
        self.epoch_budget = budget;
        self
    }

    /// Sets the sketch aging period (key updates between halvings).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn with_aging_period(mut self, period: u64) -> Self {
        assert!(period > 0, "the sketch aging period must be positive");
        self.aging_period = period;
        self
    }
}

/// Configuration for a [`DynamicSkipGraph`](crate::DynamicSkipGraph).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsgConfig {
    /// The balance parameter `a` of the a-balance property (§III). The
    /// search path between any pair is at most `a · log n`; dummy nodes are
    /// inserted to repair runs longer than `a`.
    pub a: usize,
    /// Median strategy used by every per-level split.
    pub median: MedianStrategy,
    /// Seed for all randomised components (AMF skip lists, the policy
    /// sketch's hashing, joining peers' membership vectors), making runs
    /// reproducible.
    pub seed: u64,
    /// The adaptation policy: whether (and how) the frequency-sketch
    /// admission gate decides which communicates earn a restructure.
    /// Default off ([`AdaptPolicy::Always`]).
    pub policy: PolicyConfig,
}

impl Default for DsgConfig {
    fn default() -> Self {
        DsgConfig {
            a: 3,
            median: MedianStrategy::default(),
            seed: 0xD56,
            policy: PolicyConfig::default(),
        }
    }
}

impl DsgConfig {
    /// Sets the balance parameter `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a < 2`: the AMF support window `[a/2, 2a]` and the
    /// a-balance property both degenerate below 2.
    pub fn with_a(mut self, a: usize) -> Self {
        assert!(a >= 2, "the balance parameter a must be at least 2");
        self.a = a;
        self
    }

    /// Selects the median strategy.
    pub fn with_median(mut self, median: MedianStrategy) -> Self {
        self.median = median;
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the adaptation policy (sketch-fed admission gate).
    pub fn with_policy(mut self, policy: PolicyConfig) -> Self {
        self.policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sensible() {
        let c = DsgConfig::default();
        assert!(c.a >= 2);
        assert_eq!(c.median, MedianStrategy::Amf);
    }

    #[test]
    fn builder_methods_compose() {
        let c = DsgConfig::default()
            .with_a(4)
            .with_median(MedianStrategy::Exact)
            .with_seed(9);
        assert_eq!(c.a, 4);
        assert_eq!(c.median, MedianStrategy::Exact);
        assert_eq!(c.seed, 9);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_a_is_rejected() {
        let _ = DsgConfig::default().with_a(1);
    }

    #[test]
    fn policy_defaults_to_off() {
        let c = DsgConfig::default();
        assert_eq!(c.policy.policy, AdaptPolicy::Always);
        let gated = PolicyConfig::gated()
            .with_threshold(3)
            .with_epoch_budget(1)
            .with_aging_period(128);
        let c = c.with_policy(gated);
        assert_eq!(c.policy.policy, AdaptPolicy::Gated);
        assert_eq!(c.policy.threshold, 3);
        assert_eq!(c.policy.epoch_budget, 1);
        assert_eq!(c.policy.aging_period, 128);
    }

    #[test]
    #[should_panic(expected = "aging period must be positive")]
    fn zero_aging_period_is_rejected() {
        let _ = PolicyConfig::gated().with_aging_period(0);
    }
}
