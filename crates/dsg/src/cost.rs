//! Cost accounting (paper §III and Theorem 3).
//!
//! The cost of serving request `σ_t = (u, v)` is defined by the paper as
//!
//! ```text
//! d_{S_t}(σ_t)  +  ρ(A, S_t, σ_t)  +  1
//! ```
//!
//! where `d` is the routing distance (number of intermediate nodes on the
//! standard routing path) and `ρ` is the *transformation cost* — the number
//! of synchronous CONGEST rounds the topology reconstruction takes.
//!
//! The transformation cost charged by this reproduction decomposes exactly
//! along the steps of Algorithm 1 and is recorded per request in a
//! [`CostBreakdown`]; [`RunStats`] accumulates them over a whole request
//! sequence, the totals the paper compares against the working-set bound
//! `WS(σ)`. [`EpochCounters`] defines what one epoch counts besides.

use std::ops::AddAssign;

/// Per-request cost breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostBreakdown {
    /// Routing distance `d_{S_t}(σ_t)`: intermediate nodes on the standard
    /// routing path used to establish the communication.
    pub routing_cost: usize,
    /// Rounds spent broadcasting the transformation notification (with the
    /// membership vectors, timestamps, group-ids and group-bases of the
    /// communicating pair) to every node of `l_α` (Alg. 1 step 1).
    pub notification_rounds: usize,
    /// Rounds spent in approximate-median computations over all processed
    /// lists (Alg. 1 step 4), including balanced-skip-list construction.
    pub median_rounds: usize,
    /// Rounds spent on distributed counts `|l_d|, |g_s|, |L_low|, |L_high|`
    /// (Alg. 1 step 5) and on broadcasting new group-ids for split groups
    /// (step 8).
    pub group_accounting_rounds: usize,
    /// Rounds spent by nodes searching for their new neighbours after
    /// moving to a subgraph (bounded by the balance parameter `a` per level,
    /// §IV-C) and on a-balance repair (step 7).
    pub restructuring_rounds: usize,
}

impl CostBreakdown {
    /// Total transformation cost `ρ` in rounds.
    pub fn transformation_rounds(&self) -> usize {
        self.notification_rounds
            + self.median_rounds
            + self.group_accounting_rounds
            + self.restructuring_rounds
    }

    /// The paper's total cost of serving the request:
    /// `d + ρ + 1`.
    pub fn total_cost(&self) -> usize {
        self.routing_cost + self.transformation_rounds() + 1
    }
}

/// What one transformation epoch counted: the one definition of every
/// per-epoch counter the engine reports. [`EpochReport`](crate::EpochReport),
/// [`RunStats`], [`BatchOutcome`](crate::BatchOutcome), the observers'
/// [`EpochEvent`](crate::EpochEvent) and the service's
/// [`ServiceMetrics`](crate::ServiceMetrics) embed it, and `+=` sums it
/// across epochs.
///
/// Every field but the two execution fields is a pure function of the
/// engine's input: [`deterministic`](Self::deterministic) clears those two
/// for cross-run and cross-shard comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochCounters {
    /// Transformation clusters formed (pairs with overlapping `l_α`
    /// subtrees merge; disjoint pairs keep their own) — admitted and gated
    /// clusters alike.
    pub clusters: usize,
    /// Clusters the plan stage planned. Equal to
    /// [`clusters`](Self::clusters) with the adaptation policy off; with
    /// the gate on, gated clusters are never planned, so this counts only
    /// the admitted ones.
    pub planned_clusters: usize,
    /// Changed `(node, level)` pairs the installs touched — the work the
    /// differential install performs, as opposed to the Θ(n · height) a
    /// full per-node re-splice would.
    pub touched_pairs: usize,
    /// Dummy slots the balance repairs established — reclaimed standing
    /// dummies and created ones alike, so the count is lifecycle-independent
    /// (it equals what the destroy-then-recreate reference lifecycle,
    /// [`repair_balance_destroy_recreate`](crate::dummy::repair_balance_destroy_recreate),
    /// reports).
    pub dummies_inserted: usize,
    /// Dummy nodes actually removed from the graph: only the genuinely
    /// stale (or evicted) dummies, not the standing ones the reconciliation
    /// reclaimed in place.
    pub dummies_destroyed: usize,
    /// Standing dummies the reconciliation reclaimed with zero graph
    /// mutation.
    pub dummies_reused: usize,
    /// Genuinely new dummies the reconciliation created — almost all
    /// through the bulk splice installer
    /// ([`SkipGraph::insert_dummies_bulk`](dsg_skipgraph::SkipGraph::insert_dummies_bulk)),
    /// stragglers below the bulk threshold directly.
    pub dummies_bulk_inserted: usize,
    /// Requests whose cluster the admission gate declined to restructure:
    /// routed (and charged routing cost), but no transformation, install
    /// or balance repair. 0 with the policy off
    /// ([`AdaptPolicy::Always`](crate::AdaptPolicy::Always)).
    pub pairs_gated: u64,
    /// Requests routed without restructuring because the epoch ran under
    /// a brownout verdict
    /// ([`communicate_epoch_degraded`](crate::DynamicSkipGraph::communicate_epoch_degraded)
    /// with `brownout = true`): the admission gate was degraded to
    /// route-only for cold traffic. Disjoint from
    /// [`pairs_gated`](Self::pairs_gated); 0 outside brownout.
    pub pairs_browned_out: u64,
    /// Cold clusters restructured via the per-epoch budget
    /// ([`PolicyConfig::epoch_budget`](crate::PolicyConfig::epoch_budget))
    /// instead of a hot sketch estimate.
    pub restructures_budgeted: u64,
    /// Frequency-sketch counter-halving ("aging") passes run at the
    /// epochs' commit points.
    pub sketch_aging_passes: u64,
    /// Worker shards the plan stages actually ran on: 1 when everything
    /// was planned inline, up to the configured
    /// [`DsgConfig::shards`](crate::DsgConfig::shards) when clusters (or a
    /// single cluster's reconcile scan) fanned out. Sums keep the largest.
    /// An execution field, cleared by [`deterministic`](Self::deterministic).
    pub plan_shards: usize,
    /// Wall-clock nanoseconds the plan stages took (transformation planning
    /// plus dummy-reconciliation detection). An execution field, cleared by
    /// [`deterministic`](Self::deterministic).
    pub plan_wall_ns: u64,
}

impl EpochCounters {
    /// A copy with the execution fields
    /// ([`plan_shards`](Self::plan_shards) and
    /// [`plan_wall_ns`](Self::plan_wall_ns)) cleared: what two runs of the
    /// same input must agree on, whatever their shard count and timing.
    pub fn deterministic(self) -> Self {
        EpochCounters {
            plan_shards: 0,
            plan_wall_ns: 0,
            ..self
        }
    }
}

impl AddAssign for EpochCounters {
    /// Sums every counter, except [`plan_shards`](Self::plan_shards),
    /// which keeps the larger.
    fn add_assign(&mut self, rhs: Self) {
        self.clusters += rhs.clusters;
        self.planned_clusters += rhs.planned_clusters;
        self.touched_pairs += rhs.touched_pairs;
        self.dummies_inserted += rhs.dummies_inserted;
        self.dummies_destroyed += rhs.dummies_destroyed;
        self.dummies_reused += rhs.dummies_reused;
        self.dummies_bulk_inserted += rhs.dummies_bulk_inserted;
        self.pairs_gated += rhs.pairs_gated;
        self.pairs_browned_out += rhs.pairs_browned_out;
        self.restructures_budgeted += rhs.restructures_budgeted;
        self.sketch_aging_passes += rhs.sketch_aging_passes;
        self.plan_shards = self.plan_shards.max(rhs.plan_shards);
        self.plan_wall_ns += rhs.plan_wall_ns;
    }
}

/// Cumulative statistics over a served request sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Number of requests served.
    pub requests: usize,
    /// Sum of routing distances.
    pub total_routing_cost: usize,
    /// Sum of transformation rounds.
    pub total_transformation_rounds: usize,
    /// Sum of total request costs (`d + ρ + 1`).
    pub total_cost: usize,
    /// The largest structure height observed after any transformation.
    pub max_height: usize,
    /// Total number of dummy nodes ever created for a-balance repair, the
    /// repairs after joins, leaves and recoveries included. Under the
    /// reconciling lifecycle this counts only genuinely new dummies;
    /// `dummy_nodes_created + counters.dummies_reused` is the
    /// lifecycle-independent number of dummy slots established.
    pub dummy_nodes_created: usize,
    /// Every epoch's counters, summed.
    pub counters: EpochCounters,
}

impl RunStats {
    /// Records one served request.
    pub fn record(&mut self, breakdown: &CostBreakdown, height_after: usize) {
        self.requests += 1;
        self.total_routing_cost += breakdown.routing_cost;
        self.total_transformation_rounds += breakdown.transformation_rounds();
        self.total_cost += breakdown.total_cost();
        self.max_height = self.max_height.max(height_after);
    }

    /// Average cost per request (equation (1) of the paper), or 0 for an
    /// empty sequence.
    pub fn average_cost(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_cost as f64 / self.requests as f64
        }
    }

    /// Average routing cost per request.
    pub fn average_routing_cost(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_routing_cost as f64 / self.requests as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_follow_the_papers_formula() {
        let b = CostBreakdown {
            routing_cost: 4,
            notification_rounds: 3,
            median_rounds: 10,
            group_accounting_rounds: 2,
            restructuring_rounds: 5,
        };
        assert_eq!(b.transformation_rounds(), 20);
        assert_eq!(b.total_cost(), 4 + 20 + 1);
    }

    #[test]
    fn counters_sum_every_field_and_keep_the_widest_fan_out() {
        let epoch = EpochCounters {
            clusters: 1,
            planned_clusters: 2,
            touched_pairs: 4,
            dummies_inserted: 5,
            dummies_destroyed: 6,
            dummies_reused: 7,
            dummies_bulk_inserted: 8,
            pairs_gated: 9,
            pairs_browned_out: 10,
            restructures_budgeted: 11,
            sketch_aging_passes: 12,
            plan_shards: 4,
            plan_wall_ns: 13,
        };
        let mut sum = EpochCounters::default();
        sum += epoch;
        assert_eq!(sum, epoch);
        sum += EpochCounters {
            plan_shards: 2,
            ..epoch
        };
        assert_eq!(
            sum,
            EpochCounters {
                clusters: 2,
                planned_clusters: 4,
                touched_pairs: 8,
                dummies_inserted: 10,
                dummies_destroyed: 12,
                dummies_reused: 14,
                dummies_bulk_inserted: 16,
                pairs_gated: 18,
                pairs_browned_out: 20,
                restructures_budgeted: 22,
                sketch_aging_passes: 24,
                plan_shards: 4,
                plan_wall_ns: 26,
            }
        );
        let cleared = sum.deterministic();
        assert_eq!((cleared.plan_shards, cleared.plan_wall_ns), (0, 0));
        assert_eq!(
            EpochCounters {
                plan_shards: 4,
                plan_wall_ns: 26,
                ..cleared
            },
            sum
        );
    }

    #[test]
    fn stats_accumulate_and_average() {
        let mut stats = RunStats::default();
        assert_eq!(stats.average_cost(), 0.0);
        let b1 = CostBreakdown {
            routing_cost: 2,
            median_rounds: 3,
            ..CostBreakdown::default()
        };
        let b2 = CostBreakdown {
            routing_cost: 6,
            restructuring_rounds: 1,
            ..CostBreakdown::default()
        };
        stats.record(&b1, 5);
        stats.record(&b2, 7);
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.total_routing_cost, 8);
        assert_eq!(stats.total_transformation_rounds, 4);
        assert_eq!(stats.max_height, 7);
        assert!((stats.average_routing_cost() - 4.0).abs() < 1e-9);
        assert!((stats.average_cost() - ((6.0 + 8.0) / 2.0)).abs() < 1e-9);
    }
}
