//! The per-epoch admission gate: given a cluster's sketch estimate,
//! decide whether its restructuring is admitted, budgeted, or gated.
//!
//! A fresh [`AdmissionGate`] is built at the top of every epoch from the
//! engine's `PolicyConfig`, so the per-epoch restructure budget resets on
//! epoch boundaries. Decisions are made per *cluster* (the planning
//! unit) from two signals:
//!
//! * **Member heat** — the maximum over the cluster's member pairs of
//!   `max(pair estimate, min(endpoint estimates))`. The pair term
//!   catches exact repeats; the endpoint term is the TinyLFU community
//!   signal (both peers individually hot ⇒ the pair belongs to a hot
//!   working set even if this exact pair has not repeated yet). The
//!   endpoint term is *relative*: it only counts when the estimate is
//!   well above the uniform per-peer share of recent sketch updates,
//!   because in a network small relative to the aging period every
//!   endpoint crosses a fixed threshold under purely uniform traffic.
//!   One hot member is enough to make the whole cluster worth
//!   rebuilding.
//! * **Subtree amortization** — the cluster rebuilds the subtree under
//!   its merged `l_α` prefix at Θ(subtree size) cost, so a subtree whose
//!   recent request demand covers `threshold × size` has *earned* its
//!   rebuild regardless of which individual members were hit — the
//!   paper's amortized-cost argument applied at runtime. Near-root
//!   prefixes (uniform traffic) can essentially never meet the bar;
//!   small busy neighbourhoods meet it quickly.

/// The gate's verdict for one transformation cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The cluster's estimate cleared the threshold: restructure eagerly,
    /// exactly as the ungated engine would.
    Hot,
    /// The estimate was cold, but the epoch's restructure budget had
    /// headroom: restructure anyway (and consume one budget slot). A
    /// non-zero budget bounds how stale a persistently-cold region can
    /// get while still capping per-epoch restructuring work.
    Budgeted,
    /// Cold and out of budget: the cluster's pairs are routed (and
    /// charged routing cost), but no transformation, dummy work, or
    /// balance repair happens for them this epoch.
    Gated,
}

/// The admission signals of one cluster, collected before judging so the
/// whole epoch can be judged at once ([`AdmissionGate::judge`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSignal {
    /// The cluster's member heat (see the [module docs](self)).
    pub max_estimate: u32,
    /// Sketch estimate of the cluster's merged `l_α` prefix.
    pub subtree_demand: u64,
    /// Peers the cluster's rebuild would touch.
    pub subtree_size: u64,
}

/// The admission gate for a single epoch. See the [module docs](self).
#[derive(Debug)]
pub struct AdmissionGate {
    threshold: u32,
    budget_remaining: u32,
}

impl AdmissionGate {
    /// Creates a gate with the given hotness threshold and per-epoch
    /// restructure budget.
    pub fn new(threshold: u32, epoch_budget: u32) -> Self {
        Self {
            threshold,
            budget_remaining: epoch_budget,
        }
    }

    /// Judges one cluster in isolation (the streaming first-come-first-
    /// served rule). `max_estimate` is the cluster's member heat (see the
    /// [module docs](self)); `subtree_demand` is the sketch estimate of
    /// the cluster's merged `l_α` prefix and `subtree_size` the number of
    /// peers its rebuild would touch — the cluster is also hot when
    /// `subtree_demand ≥ threshold × subtree_size`.
    ///
    /// The engine judges whole epochs through [`judge`](Self::judge)
    /// instead, which spends the budget hottest-first; `decide` remains
    /// the single-cluster building block (and the two agree whenever an
    /// epoch has at most one cold cluster).
    pub fn decide(
        &mut self,
        max_estimate: u32,
        subtree_demand: u64,
        subtree_size: u64,
    ) -> Admission {
        if self.is_hot(max_estimate, subtree_demand, subtree_size) {
            Admission::Hot
        } else if self.budget_remaining > 0 {
            self.budget_remaining -= 1;
            Admission::Budgeted
        } else {
            Admission::Gated
        }
    }

    fn is_hot(&self, max_estimate: u32, subtree_demand: u64, subtree_size: u64) -> bool {
        let amortized = subtree_demand >= u64::from(self.threshold).saturating_mul(subtree_size);
        amortized || max_estimate >= self.threshold
    }

    /// Judges a whole epoch at once, returning one verdict per signal
    /// (same order). Hot clusters are judged first; the restructure
    /// budget is then spent on the *hottest* cold clusters — descending
    /// `max_estimate`, ties broken by cluster index (submission order) —
    /// instead of first-come-first-served, so a budget slot is never
    /// wasted on a cluster colder than one later in the same epoch.
    ///
    /// Under `brownout` the gate degrades to route-only verdicts for all
    /// cold traffic: the budget and the subtree-amortization signal are
    /// suspended, and only member-heat-hot clusters restructure — the
    /// bounded-latency mode the service's overload controller forces
    /// while queue sojourn is above target.
    pub fn judge(&mut self, signals: &[ClusterSignal], brownout: bool) -> Vec<Admission> {
        let mut verdicts = vec![Admission::Gated; signals.len()];
        let mut cold: Vec<usize> = Vec::new();
        for (i, s) in signals.iter().enumerate() {
            let hot = if brownout {
                s.max_estimate >= self.threshold
            } else {
                self.is_hot(s.max_estimate, s.subtree_demand, s.subtree_size)
            };
            if hot {
                verdicts[i] = Admission::Hot;
            } else {
                cold.push(i);
            }
        }
        if !brownout && self.budget_remaining > 0 {
            // Stable sort: descending heat, ties keep ascending index.
            cold.sort_by_key(|&i| std::cmp::Reverse(signals[i].max_estimate));
            let spend = cold.len().min(self.budget_remaining as usize);
            for &i in cold.iter().take(spend) {
                verdicts[i] = Admission::Budgeted;
            }
            self.budget_remaining -= spend as u32;
        }
        verdicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cold subtree signal: demand 0 never covers any positive cost.
    const COLD_TREE: (u64, u64) = (0, 1 << 20);

    #[test]
    fn hot_estimates_are_admitted_without_spending_budget() {
        let (d, s) = COLD_TREE;
        let mut gate = AdmissionGate::new(2, 1);
        assert_eq!(gate.decide(5, d, s), Admission::Hot);
        assert_eq!(gate.decide(2, d, s), Admission::Hot);
        // The budget is still intact for the first cold cluster.
        assert_eq!(gate.decide(1, d, s), Admission::Budgeted);
        assert_eq!(gate.decide(1, d, s), Admission::Gated);
    }

    #[test]
    fn zero_budget_gates_every_cold_cluster() {
        let (d, s) = COLD_TREE;
        let mut gate = AdmissionGate::new(3, 0);
        assert_eq!(gate.decide(0, d, s), Admission::Gated);
        assert_eq!(gate.decide(2, d, s), Admission::Gated);
        assert_eq!(gate.decide(3, d, s), Admission::Hot);
    }

    #[test]
    fn zero_threshold_admits_everything() {
        let mut gate = AdmissionGate::new(0, 0);
        assert_eq!(gate.decide(0, 0, 1 << 20), Admission::Hot);
    }

    fn signal(max_estimate: u32) -> ClusterSignal {
        let (subtree_demand, subtree_size) = COLD_TREE;
        ClusterSignal {
            max_estimate,
            subtree_demand,
            subtree_size,
        }
    }

    #[test]
    fn budget_is_spent_hottest_first_not_fcfs() {
        // Threshold 5, budget 1: three cold clusters with estimates
        // 1, 3, 2 — FCFS would admit index 0; hottest-first must admit
        // index 1 and gate the rest.
        let mut gate = AdmissionGate::new(5, 1);
        let verdicts = gate.judge(&[signal(1), signal(3), signal(2)], false);
        assert_eq!(
            verdicts,
            vec![Admission::Gated, Admission::Budgeted, Admission::Gated]
        );
        // The budget is spent: a second epoch-judgement on the same gate
        // admits nothing cold.
        assert_eq!(gate.judge(&[signal(4)], false), vec![Admission::Gated]);
    }

    #[test]
    fn budget_ties_break_by_submission_order() {
        let mut gate = AdmissionGate::new(5, 1);
        let verdicts = gate.judge(&[signal(2), signal(2)], false);
        assert_eq!(verdicts, vec![Admission::Budgeted, Admission::Gated]);
    }

    #[test]
    fn judge_admits_hot_clusters_without_spending_budget() {
        let mut gate = AdmissionGate::new(2, 2);
        let verdicts = gate.judge(&[signal(5), signal(1), signal(0), signal(3)], false);
        assert_eq!(
            verdicts,
            vec![
                Admission::Hot,
                Admission::Budgeted,
                Admission::Budgeted,
                Admission::Hot
            ]
        );
    }

    #[test]
    fn brownout_suspends_budget_and_amortization() {
        // A generous budget and an amortized-hot subtree: under brownout
        // neither admits — only member heat does.
        let mut gate = AdmissionGate::new(2, 8);
        let amortized_hot = ClusterSignal {
            max_estimate: 1,
            subtree_demand: 64,
            subtree_size: 16,
        };
        let verdicts = gate.judge(&[signal(1), amortized_hot, signal(3)], true);
        assert_eq!(
            verdicts,
            vec![Admission::Gated, Admission::Gated, Admission::Hot]
        );
        // The budget was not touched by the brownout epoch.
        assert_eq!(gate.judge(&[signal(0)], false), vec![Admission::Budgeted]);
    }

    #[test]
    fn subtree_demand_covering_the_rebuild_cost_is_hot() {
        let mut gate = AdmissionGate::new(2, 0);
        // A 16-peer subtree needs demand ≥ 32 to earn its rebuild.
        assert_eq!(gate.decide(1, 31, 16), Admission::Gated);
        assert_eq!(gate.decide(1, 32, 16), Admission::Hot);
        // An enormous threshold can never be amortized (saturating cost).
        let mut strict = AdmissionGate::new(u32::MAX, 0);
        assert_eq!(strict.decide(1, u64::MAX - 1, u64::MAX), Admission::Gated);
    }
}
