//! The adaptation policy subsystem: a frequency sketch plus an admission
//! gate that decides, per transformation cluster, whether restructuring is
//! worth paying for.
//!
//! # Why the engine wants a gate
//!
//! The paper's self-adjusting skip graph justifies restructuring on every
//! communicate with a potential/amortized-cost argument — the cost of
//! rebuilding the `l_α` subtree is charged against the savings of future
//! requests to the same (or nearby) pairs. The engine historically paid
//! that cost *unconditionally*, which is exactly backwards under uniform
//! traffic: a transformed pair is almost never seen again, so every epoch
//! pays Θ(n) restructuring for savings that never materialise. This module
//! turns the amortized argument into a **runtime decision**, in the spirit
//! of TinyLFU-style sketch-fed admission policies used by modern caches:
//! estimate pair frequency in O(1), restructure eagerly when the estimate
//! says the pair is hot, and route without restructuring (or under a
//! capped per-epoch budget) when it is cold.
//!
//! The two pieces:
//!
//! * [`FreqSketch`] ([`sketch`]) — a 4-row count-min sketch with periodic
//!   counter halving ("aging"), counting normalized pair keys, endpoint
//!   peer keys, and `l_α`-subtree prefix keys. Row seeds derive
//!   deterministically from [`DsgConfig::seed`](crate::DsgConfig::seed).
//! * [`AdmissionGate`] ([`admission`]) — consulted by
//!   [`communicate_epoch`](crate::DynamicSkipGraph::communicate_epoch)
//!   once per cluster, from two signals: *member heat* (an exact pair
//!   repeat, or both endpoints individually hot — the community signal
//!   that catches working sets whose individual pairs rarely repeat) and
//!   *subtree amortization* (recent demand on the merged `l_α` prefix
//!   covers `threshold ×` its rebuild size). [`Admission::Hot`] clusters
//!   restructure eagerly as today, cold clusters either consume a
//!   per-epoch restructure budget ([`Admission::Budgeted`]) or are gated
//!   ([`Admission::Gated`]) — routed, timestamp clock advanced, but no
//!   transformation, no install, no balance repair.
//!
//! # Determinism points (what makes the gate safe)
//!
//! The engine's standing determinism properties — bit-for-bit
//! shard-equivalence and batched==sequential restart-replay — hold with
//! the gate enabled **by construction**, because every policy-visible
//! event happens at one deterministic point of the epoch pipeline:
//!
//! * **One update point per epoch.** Sketch increments happen on the main
//!   thread, in submission order, *after* the routing pass and *before*
//!   any cluster is planned — never from plan workers, so the sketch state
//!   (and therefore every admission decision) is independent of the shard
//!   count and of plan scheduling.
//! * **Plan aborts roll back.** Increments staged during the (pure-read)
//!   plan phase are recorded in an undo log;
//!   [`acknowledge_plan_abort`](crate::DynamicSkipGraph::acknowledge_plan_abort)
//!   rolls them back, so an aborted epoch's resubmission sees the exact
//!   pre-epoch sketch — the same containment contract the engine gives
//!   for graph state.
//! * **Aging at commit only.** Counter halving runs at the
//!   planning→applying transition (after the epoch's decisions are made),
//!   so an epoch's own increments can never age mid-decision, and the
//!   aging schedule is a pure function of the served request count.
//! * **The sketch is part of the engine image.** `capture_image` /
//!   `restore_image` carry the counters and aging cursors, so the PR 7
//!   crash-recovery matrix (snapshot + journal replay ≡ uninterrupted
//!   twin) stays bit-identical with the gate enabled.
//!
//! # Off by default
//!
//! [`PolicyConfig::default`](crate::PolicyConfig) selects
//! [`AdaptPolicy::Always`](crate::AdaptPolicy): no sketch is allocated, no
//! counter is touched, and the engine is **bit-identical** to the
//! pre-policy engine — `tests/policy_gate.rs` pins this differentially
//! (the repo's standing oracle pattern: the fast/gated path lands together
//! with a proptest proving the default path unchanged).

pub mod admission;
pub mod sketch;

pub use admission::{Admission, AdmissionGate, ClusterSignal, GateCounters};
pub(crate) use sketch::SketchView;
pub use sketch::{FreqSketch, SketchImage, SKETCH_ROWS, SKETCH_WIDTH};
