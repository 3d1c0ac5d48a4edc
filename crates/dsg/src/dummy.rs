//! a-balance maintenance with dummy nodes (paper §IV-F).
//!
//! A transformation (or a join/leave) may leave a linked list in which more
//! than `a` consecutive members move to the same sublist at the next level,
//! violating the a-balance property and threatening the `a · log n` bound on
//! search paths. DSG repairs this by placing *dummy nodes* — logical,
//! routing-only nodes — in the sibling subgraph so that no run of same-bit
//! members is longer than `a`. A dummy node holds no data, owns `O(log n)`
//! links like a regular node, and destroys itself the next time it receives
//! a transformation notification. The paper bounds the dummies placed for a
//! rearranged level by `n / a`; this implementation repairs every level, so
//! its live population is bounded by that per-level bound times the height.
//!
//! Two repair entry points serve the engine. [`repair_balance`] is the
//! full sweep used after membership churn (join/leave) and recovery:
//! destroy every dummy, then global balance check, repair, repeat.
//! [`repair_balance_reconciling`] is the differential form a transformation
//! runs (the epoch engine calls its two halves, [`plan_reconciliation`]
//! and [`repair_balance_reconciling_planned`], separately): it re-checks
//! only the lists the install actually changed (plus, transitively, the
//! runs around each dummy the repair itself places), so its cost is
//! proportional to the change, not the structure. The paper's "dummies
//! destroy themselves on notification" applies to the dummies sitting in
//! rebuilt lists only — a dummy in an untouched list still breaks exactly
//! the run it was placed for, so destroying and re-creating it each
//! request (the literal reading) would be pure churn with an observably
//! identical end state.
//!
//! The reconciling form pushes the same differential principle into the
//! dummy *lifecycle* itself. Destroying every dummy standing in a rebuilt
//! list and re-creating most of them at the very same keys costs tens of
//! thousands of full join walks per request under uniform traffic at
//! large n. The reconciling form runs **plan-then-apply** instead: its
//! fused first pass only *inventories* the standing dummies (they stay
//! linked, but the planner treats them as absent — the filtered balance
//! scans skip them and key-occupancy probes read their keys as free), the
//! repair then re-derives the desired dummy set per violated run exactly
//! as the destroy-then-recreate path would, and each break is *diffed*
//! against the inventory: a standing dummy whose key the shared
//! salvage-first policy (`next_break`) re-derives is reclaimed in place
//! (zero graph mutation), a superseded standing dummy at a freshly chosen
//! key is evicted, and only the genuinely new dummies are created — all of
//! a repair pass's creations in one [`SkipGraph::insert_dummies_bulk`]
//! ordered-splice pass instead of one join walk each. The end state is
//! bit-for-bit the destroy-then-recreate state. That literal lifecycle
//! stays as reference code, [`repair_balance_destroy_recreate`], which no
//! engine path calls: the `dummy_reconcile` replay test runs it beside
//! every epoch the engine serves and requires the same graph.

use std::collections::HashSet;

use dsg_skipgraph::{
    BalanceViolation, Bit, FastHashState, Key, MembershipVector, NodeId, Prefix, SkipGraph,
};

use crate::dsg::DynamicSkipGraph;
use crate::state::StateTable;

/// Result of one a-balance repair pass.
#[derive(Debug, Clone, Default)]
pub struct DummyRepairOutcome {
    /// Ids of the dummy nodes inserted.
    pub inserted: Vec<NodeId>,
    /// Runs that could not be repaired because no key was available between
    /// the run members (only possible when the application key space is
    /// fully dense).
    pub unrepairable_runs: usize,
    /// Rounds charged: one chain-detection sweep plus one insertion per
    /// dummy.
    pub rounds: usize,
}

/// Detects a-balance violations across the whole graph and inserts dummy
/// nodes to break every over-long run — the full sweep after membership
/// churn and recovery. Newly inserted dummies are registered in `states`
/// so that later transformations can destroy them cleanly.
///
/// Stale dummies from earlier repairs are garbage-collected first, so the
/// live dummy population always reflects the *current* structure and stays
/// within the paper's `n / a` bound; the passes below re-create exactly
/// the ones the current structure needs.
pub fn repair_balance(
    graph: &mut SkipGraph,
    states: &mut StateTable,
    a: usize,
) -> DummyRepairOutcome {
    let mut outcome = DummyRepairOutcome::default();
    let stale: Vec<NodeId> = graph
        .node_ids()
        .filter(|id| graph.node(*id).map(|e| e.is_dummy()).unwrap_or(false))
        .collect();
    for id in stale {
        let _ = graph.remove(id);
        states.unregister(id);
    }
    // Inserting a dummy splits a run of length r into pieces of length ≤ a,
    // but the inserted node itself joins every ancestor list and may extend
    // a run there; each pass repairs one "layer" of damage, so the number of
    // passes is bounded by the structure height (plus slack).
    let max_passes = graph.height() + 10;
    // Reused across violations/passes: the key snapshot of the run being
    // repaired (dummy insertion mutates the chain while the run is walked).
    let mut list_buf: Vec<Key> = Vec::new();
    // Full sweeps re-derive every dummy key from scratch: no salvage, and
    // no communicating pair to protect.
    let salvage: DummySalvage = Vec::new();
    for _pass in 0..max_passes {
        let mut report = graph.check_balance(a);
        outcome.rounds += a + 1;
        if report.is_balanced() {
            break;
        }
        // `check_balance` sweeps the list arena in slab order, which
        // depends on the engine's list-recycling history — hidden state
        // that legitimately differs between otherwise-identical engines.
        // Repairs in different orders can pick different dummy keys when
        // runs compete for overlapping gaps, so the sweep normalises to the
        // same sorted order the incremental paths use.
        report
            .violations
            .sort_unstable_by_key(|v| (v.level, v.prefix, v.start_key));
        for violation in &report.violations {
            repair_violation(
                graph,
                states,
                a,
                &[],
                violation,
                &salvage,
                &mut list_buf,
                &mut outcome,
            );
        }
    }
    outcome
}

/// The destroy-then-recreate lifecycle over one rebuilt scope — the
/// literal reading of §IV-F, with [`repair_balance_reconciling`]'s
/// arguments and contract. No engine path calls it: it is the reference
/// the reconciling lifecycle is tested against, with a proven-identical
/// end state.
///
/// Every dummy standing in one of the `worklist` lists (the lists an
/// install rebuilt) destroys itself first. Removing a dummy splices it out
/// of *all* its lists, which can merge two runs anywhere along its prefix
/// path, so each destroyed dummy's lists at levels ≥ `floor` join the
/// worklist. The repair then checks only the worklist lists, so its cost is
/// proportional to the change, not to the structure size; each dummy it
/// inserts enqueues the runs around it at levels ≥ `floor` for the next
/// pass, so follow-up damage from the insertions themselves is still
/// caught. The destroyed dummies' `(key, vector)` snapshot feeds the
/// salvage-first placement policy, which re-creates a destroyed dummy at
/// its old key whenever that key still falls in a slot needing its exact
/// vector.
///
/// `worklist` is consumed and must arrive sorted + deduplicated.
pub fn repair_balance_destroy_recreate(
    graph: &mut SkipGraph,
    states: &mut StateTable,
    a: usize,
    protect: &[(Key, Key)],
    floor: usize,
    worklist: &mut Vec<(usize, Prefix)>,
) -> DummyRepairOutcome {
    // Only the lists present on entry are searched for dummies.
    let mut stale: Vec<NodeId> = Vec::new();
    for &(level, prefix) in worklist.iter() {
        stale.extend(
            graph
                .list_iter(level, prefix)
                .filter(|&id| graph.node(id).map(|e| e.is_dummy()).unwrap_or(false)),
        );
    }
    let mut salvage: DummySalvage = Vec::new();
    for id in stale {
        // A dummy can sit in several rebuilt lists; the second sighting
        // finds it already removed.
        let Some(entry) = graph.node(id) else {
            continue;
        };
        let mvec = *entry.mvec();
        salvage.push(SalvageEntry::new(entry.key(), mvec));
        for level in floor..=mvec.len() {
            worklist.push((level, mvec.prefix(level)));
        }
        let _ = graph.remove(id);
        states.unregister(id);
    }
    salvage.sort_unstable_by_key(|e| e.sort_key());
    worklist.sort_unstable();
    worklist.dedup();

    let mut outcome = DummyRepairOutcome::default();
    let max_passes = graph.height() + 10;
    let mut list_buf: Vec<Key> = Vec::new();
    let mut protect_norm: Vec<(Key, Key)> = Vec::new();
    normalize_protect(protect, &mut protect_norm);
    let mut violations: Vec<BalanceViolation> = Vec::new();
    let mut prev_pass_dummies: Vec<NodeId> = Vec::new();
    for pass in 0..max_passes {
        violations.clear();
        let pass_inserted_from = outcome.inserted.len();
        if pass == 0 {
            // First pass: full scan of the rebuilt lists. The sort mirrors
            // the reconciling lifecycle, whose fused collect + detect scans
            // originals and appended lists in a different order — both
            // repair the sorted sequence.
            for &(level, prefix) in worklist.iter() {
                graph.list_balance_violations(a, level, prefix, &mut violations);
            }
        } else {
            // Cascade passes: a repair only lengthens the runs its dummies
            // landed in (every dummy joins its whole prefix path), so only
            // the runs around the dummies of the previous pass can have
            // become over-long — O(run length) checks instead of whole-list
            // rescans.
            for &dummy in &prev_pass_dummies {
                let Ok(mvec) = graph.mvec_of(dummy) else {
                    continue;
                };
                for level in floor..=mvec.len() {
                    if let Some(violation) = graph.run_violation_at(a, dummy, level) {
                        violations.push(violation);
                    }
                }
            }
        }
        // Sorting + dedup collapses dummies that landed in the same run.
        violations.sort_unstable_by_key(|v| (v.level, v.prefix, v.start_key));
        violations.dedup_by_key(|v| (v.level, v.prefix, v.start_key));
        outcome.rounds += a + 1;
        if violations.is_empty() {
            break;
        }
        for violation in &violations {
            repair_violation(
                graph,
                states,
                a,
                &protect_norm,
                violation,
                &salvage,
                &mut list_buf,
                &mut outcome,
            );
        }
        prev_pass_dummies.clear();
        prev_pass_dummies.extend_from_slice(&outcome.inserted[pass_inserted_from..]);
        if prev_pass_dummies.is_empty() {
            break;
        }
    }
    worklist.clear();
    outcome
}

/// Normalises a protected-adjacency slice for binary-search probing: each
/// pair ordered `(min, max)`, the whole set sorted and deduplicated. The
/// repair loops resolve run keys once and probe this set per slot, instead
/// of re-resolving both run members against every protected pair on every
/// slot (the old O(|protect| · run) inner loop).
fn normalize_protect(protect: &[(Key, Key)], out: &mut Vec<(Key, Key)>) {
    out.clear();
    out.extend(
        protect
            .iter()
            .map(|&(a, b)| if a <= b { (a, b) } else { (b, a) }),
    );
    out.sort_unstable();
    out.dedup();
}

/// Whether the adjacency `(left, right)` is protected. `protect` must be
/// normalised ([`normalize_protect`]).
fn is_protected(protect: &[(Key, Key)], left: Key, right: Key) -> bool {
    let pair = if left <= right {
        (left, right)
    } else {
        (right, left)
    };
    protect.binary_search(&pair).is_ok()
}

/// The `(key, vector)` snapshot of the dummies standing in the rebuilt
/// lists before a repair, sorted by `(vector, key)`. The *salvage-first
/// placement policy* consults it when filling a slot: a snapshot entry
/// whose key falls strictly inside the slot's gap and whose vector is
/// exactly the one the slot needs is placed at its old key instead of a
/// freshly derived one. Keys thereby stay *sticky* across requests even as
/// run boundaries shift, which is what makes the reconciling lifecycle's
/// in-place reclamation (and its churn win) possible — while the policy
/// itself is lifecycle-independent: the destroy-then-recreate oracle
/// consults the same snapshot and re-creates the dummy at the same sticky
/// key, so both lifecycles produce bit-for-bit identical structures.
type DummySalvage = Vec<SalvageEntry>;

/// One snapshot entry of a [`DummySalvage`]. Sorting by `(vector, key)`
/// means a slot lookup touches only the entries of the exact sibling list
/// it needs — sorting by key alone made every lookup wade through the
/// (unrelated) dummies of every other list in the gap's key range, which
/// in deep lists spans most of the key space.
#[derive(Debug, Clone, Copy)]
struct SalvageEntry {
    key: Key,
    mvec: MembershipVector,
}

impl SalvageEntry {
    fn new(key: Key, mvec: MembershipVector) -> Self {
        SalvageEntry { key, mvec }
    }

    fn sort_key(&self) -> (MembershipVector, Key) {
        (self.mvec, self.key)
    }
}

/// The contiguous run of snapshot entries whose vector equals `mvec` —
/// resolved once per violation, so the per-gap probes of [`next_break`]
/// search a handful of same-list entries (usually none) instead of
/// bisecting the whole snapshot per gap.
fn salvage_slice<'s>(salvage: &'s DummySalvage, mvec: &MembershipVector) -> &'s [SalvageEntry] {
    let lo = salvage.partition_point(|e| e.mvec < *mvec);
    let hi = lo + salvage[lo..].partition_point(|e| e.mvec == *mvec);
    &salvage[lo..hi]
}

/// Finds the salvageable entry for one slot: the smallest snapshot key
/// strictly inside `(left, right)` for which `reclaimable` still holds.
/// `list_salvage` is the violation's same-vector snapshot run
/// ([`salvage_slice`]).
///
/// `reclaimable` is the lifecycle's claim tracker — the snapshot itself is
/// never mutated. The destroy-up-front oracle passes "the key is
/// unoccupied" (true until the entry is re-created, or a fresh dummy lands
/// on its key); the reconciling path passes "the key holds a
/// still-inventoried dummy" (true until the standing dummy is reclaimed or
/// evicted). The two predicates flip at exactly the same policy steps, so
/// the lifecycles' break choices stay identical.
fn salvage_take<F: Fn(Key) -> bool>(
    list_salvage: &[SalvageEntry],
    left: Key,
    right: Key,
    reclaimable: &F,
) -> Option<Key> {
    let mut i = list_salvage.partition_point(|e| e.key <= left);
    while i < list_salvage.len() && list_salvage[i].key < right {
        if reclaimable(list_salvage[i].key) {
            return Some(list_salvage[i].key);
        }
        i += 1;
    }
    None
}

/// One decision of the salvage-first break walk over a violated run
/// ([`next_break`]).
enum BreakAction {
    /// A standing dummy with the needed vector sits in the gap after member
    /// `.0` — keep it (the reconciling lifecycle reclaims it in place, the
    /// oracle re-creates it at the same key `.1`).
    Salvaged(usize, Key),
    /// The segment overflowed `a` with no salvageable break: place a fresh
    /// dummy in the gap after member `.0`.
    Fresh(usize),
}

/// The shared break policy of both dummy lifecycles. Breaks are lazy —
/// member `last_break + a + 1` starts an over-long segment, so a dummy
/// must go into one of the window gaps `[i - a, i - 1]` (any of them keeps
/// both resulting segments within `a`). The window is scanned right to
/// left for a gap holding a salvageable standing dummy with exactly the
/// needed vector — rightmost wins, maximising the room left for later
/// breaks, which keeps break positions (and therefore dummy keys) *sticky*
/// when a run's boundaries drift between requests. Without a salvage hit
/// the break goes into the default gap `i - 1` (the classic "after every
/// `a`-th member" position), shifted one gap left off a protected
/// adjacency exactly as before. Protected gaps are never used, salvaged or
/// fresh.
///
/// Laziness keeps the placement minimal (one break per overflow — an eager
/// keep-every-standing-dummy variant was measured to cut churn a further
/// ~6% but grew the standing population ~25%, taxing every scan of every
/// request). Both lifecycles route every break through this one function,
/// which is what makes their final structures bit-for-bit equal. Returns
/// `None` when the remaining members fit within `a`.
fn next_break<F: Fn(Key) -> bool>(
    run: &[Key],
    last_break: isize,
    a: usize,
    protect: &[(Key, Key)],
    list_salvage: &[SalvageEntry],
    reclaimable: &F,
) -> Option<BreakAction> {
    let i = (last_break + a as isize + 1) as usize;
    if i >= run.len() {
        return None;
    }
    if !list_salvage.is_empty() {
        let lo = i - a;
        let mut b = i - 1;
        loop {
            if !is_protected(protect, run[b], run[b + 1]) {
                if let Some(key) = salvage_take(list_salvage, run[b], run[b + 1], reclaimable) {
                    return Some(BreakAction::Salvaged(b, key));
                }
            }
            if b == lo {
                break;
            }
            b -= 1;
        }
    }
    let mut b = i - 1;
    if is_protected(protect, run[b], run[b + 1]) && b >= 1 {
        b -= 1;
    }
    Some(BreakAction::Fresh(b))
}

/// Breaks one over-long run by inserting a dummy after every `a`-th member,
/// keyed between its neighbours, living in the sibling subgraph at the next
/// level. A slot that coincides with the protected adjacency (the pair that
/// just communicated) is shifted one step left so the pair's direct link
/// survives.
///
/// The run members' keys are walked directly from
/// [`BalanceViolation::start`] into `run_buf` (a reusable scratch vector)
/// before any insertion — a snapshot is needed because the insertions
/// splice into the chain being repaired, and walking only the run keeps the
/// repair O(run length) instead of O(list length). `protect` must be
/// normalised ([`normalize_protect`]); `salvage` is the salvage-first
/// placement snapshot (empty for the full membership-churn sweeps, which
/// re-derive every key from scratch).
#[allow(clippy::too_many_arguments)]
fn repair_violation(
    graph: &mut SkipGraph,
    states: &mut StateTable,
    a: usize,
    protect: &[(Key, Key)],
    violation: &BalanceViolation,
    salvage: &DummySalvage,
    run_buf: &mut Vec<Key>,
    outcome: &mut DummyRepairOutcome,
) {
    if graph.node(violation.start).is_none() {
        return;
    }
    run_buf.clear();
    let mut cursor = Some(violation.start);
    while let Some(id) = cursor {
        run_buf.push(graph.key_of(id).expect("run member is live"));
        if run_buf.len() >= violation.run_length {
            break;
        }
        cursor = graph
            .neighbors(id, violation.level)
            .expect("run member is live")
            .1;
    }
    let run: &[Key] = run_buf;
    let mut mvec = prefix_vector(&violation.prefix);
    mvec.push(violation.bit.flipped()).expect("within height limit");
    let list_salvage = salvage_slice(salvage, &mvec);
    // Walk the run's members, breaking it per the shared salvage-first
    // policy ([`next_break`]); this lifecycle physically re-creates even
    // the salvaged breaks.
    let mut last_break: isize = -1;
    while let Some(action) = next_break(
        run,
        last_break,
        a,
        protect,
        list_salvage,
        // A snapshot entry is reclaimable while its key is unoccupied: the
        // inventory was destroyed up front, and a claim (re-creation) or a
        // fresh dummy landing on the key permanently occupies it again.
        &|key| graph.node_by_key(key).is_none(),
    ) {
        let chosen = match action {
            BreakAction::Salvaged(g, key) => {
                last_break = g as isize;
                Some(key.value())
            }
            BreakAction::Fresh(b) => {
                last_break = b as isize;
                free_key_between(graph, run[b].value(), run[b + 1].value())
            }
        };
        match chosen {
            Some(key) => {
                if let Ok(id) = graph.insert_dummy(Key::new(key), mvec) {
                    states.register(id, Key::new(key), violation.level + 1);
                    outcome.inserted.push(id);
                    outcome.rounds += 1;
                }
            }
            None => outcome.unrepairable_runs += 1,
        }
    }
}

/// A set of [`NodeId`]s backed by a dense stamp vector indexed by the
/// arena slot — membership tests run inside every balance scan and run
/// walk of the reconciliation (millions per request), so they must be one
/// array read, not a hash. Clearing bumps the epoch; removal zeroes the
/// slot.
#[derive(Debug, Default)]
struct NodeStampSet {
    stamps: Vec<u32>,
    epoch: u32,
}

impl NodeStampSet {
    fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale stamps could collide with the fresh epoch.
            self.stamps.clear();
            self.epoch = 1;
        }
    }

    /// Inserts `id`; returns `true` if it was not yet a member.
    fn insert(&mut self, id: NodeId) -> bool {
        let index = id.raw() as usize;
        if self.stamps.len() <= index {
            self.stamps.resize(index + 1, 0);
        }
        let fresh = self.stamps[index] != self.epoch;
        self.stamps[index] = self.epoch;
        fresh
    }

    /// Removes `id`; returns `true` if it was a member.
    fn remove(&mut self, id: NodeId) -> bool {
        match self.stamps.get_mut(id.raw() as usize) {
            Some(slot) if *slot == self.epoch => {
                *slot = 0;
                true
            }
            _ => false,
        }
    }

    fn contains(&self, id: NodeId) -> bool {
        self.stamps.get(id.raw() as usize) == Some(&self.epoch)
    }
}

/// Scratch state of one reconciliation pass, owned by the engine and reused
/// across clusters so a warm pass allocates nothing.
///
/// The central piece is the *doomed* set: the standing dummies of the
/// rebuilt lists, inventoried by [`plan_reconciliation`]. They stay
/// physically linked, but every planning read treats them as absent — the
/// filtered balance scans skip them and the key-occupancy probes report
/// their keys free — so the plan the repair derives is exactly the plan the
/// destroy-up-front path would derive. A slot whose chosen `(key, vector)`
/// matches a doomed dummy reclaims it with zero graph mutation; whatever
/// remains doomed when the repair converges is removed in one final sweep.
#[derive(Debug, Default)]
pub struct ReconcileScratch {
    /// Recycled [`ReconcilePlan`] shell for the serial
    /// [`repair_balance_reconciling`] wrapper (the epoch engine pools its
    /// own shells, one per cluster).
    plan: ReconcilePlan,
    /// Dummies planned but not yet installed in the current repair pass,
    /// sorted by key. Planning reads treat them as present: run walks
    /// interleave them and occupancy probes report their keys taken.
    planned: Vec<PlannedDummy>,
    /// `(key, vector)` pairs handed to the bulk installer.
    specs: Vec<(Key, MembershipVector)>,
    /// Merged run-key snapshot of the violation being repaired.
    run_buf: Vec<Key>,
    /// Violations of the current pass.
    violations: Vec<BalanceViolation>,
    /// Dummies placed (reclaimed or created) by the previous pass, the
    /// anchors of the cascade re-checks.
    prev_placed: Vec<NodeId>,
    /// Normalised protected adjacencies ([`normalize_protect`]).
    protect_norm: Vec<(Key, Key)>,
}

/// One dummy the reconciliation planner decided to create.
#[derive(Debug, Clone, Copy)]
struct PlannedDummy {
    key: Key,
    mvec: MembershipVector,
}

/// Result of one reconciling a-balance repair pass.
#[derive(Debug, Clone, Default)]
pub struct DummyReconcileOutcome {
    /// Every dummy the repair placed, reclaimed-in-place and bulk-created
    /// alike. Its length is the count the destroy-then-recreate oracle
    /// reports as "inserted", so per-request outcomes agree across the two
    /// lifecycles.
    pub placed: Vec<NodeId>,
    /// Standing dummies reclaimed with zero graph mutation.
    pub reused: usize,
    /// Genuinely new dummies created (the fresh-creation half of
    /// `placed`). Almost all are routed through
    /// [`SkipGraph::insert_dummies_bulk`]; a handful of stragglers per
    /// cascade pass (below the bulk threshold) are inserted directly.
    pub bulk_inserted: usize,
    /// Dummies actually removed from the graph: stale inventory plus
    /// standing dummies evicted because a planned key collided with them.
    pub destroyed: usize,
    /// Runs that could not be repaired for lack of a free key.
    pub unrepairable_runs: usize,
    /// Rounds charged — identical accounting to [`DummyRepairOutcome`]: one
    /// chain-detection sweep per pass plus one round per placed dummy (a
    /// reclaimed slot is charged like a created one, keeping the paper-cost
    /// observables equal to the oracle's).
    pub rounds: usize,
}

/// The read-only *planning* half of the reconciling repair: the fused
/// collect + detect pass over the rebuilt lists, produced against a shared
/// `&SkipGraph` so the plans of an epoch's disjoint clusters can be
/// computed concurrently on worker shards (and a single big cluster's scan
/// can be chunked across them) before the main thread applies them in
/// submission order.
///
/// Contents mirror exactly what
/// [`repair_balance_reconciling`]'s first pass used to derive in place:
/// the standing-dummy inventory of the scanned lists (collection order,
/// possibly repeating a dummy sighted in several lists) and the pass-0
/// violation set — original worklist entries scanned with *all* dummies
/// logically absent, the lists appended by dooming the inventory scanned
/// with the *doomed* set absent — sorted and deduplicated.
#[derive(Debug, Default)]
pub struct ReconcilePlan {
    /// Collection-order sightings (a dummy standing in several scanned
    /// lists repeats), the order the final stale sweep follows.
    inventory: Vec<NodeId>,
    /// The distinct inventoried dummies, pre-stamped — used in place by
    /// the apply half, never re-derived.
    doomed: NodeStampSet,
    /// The `(key, vector)` salvage snapshot of the distinct inventory,
    /// sorted by `(vector, key)` — likewise computed once here.
    salvage: DummySalvage,
    violations: Vec<BalanceViolation>,
    /// Planner-internal dedup set for worklist appends (kept here so a
    /// recycled shell plans without allocating it).
    seen: HashSet<(usize, Prefix), FastHashState>,
}

impl ReconcilePlan {
    /// Clears the shell for reuse (capacities retained; the stamp set
    /// clears by epoch bump, so a warm shell plans allocation-free).
    pub fn reset(&mut self) {
        self.inventory.clear();
        self.doomed.clear();
        self.salvage.clear();
        self.violations.clear();
        self.seen.clear();
    }
}

/// Computes the [`ReconcilePlan`] for one repair scope: `worklist` names
/// the lists the install changed (sorted + deduplicated). Pure reads; with
/// `shards > 1` the two scan stages are chunked across that many scoped
/// worker threads — the merge preserves worklist order and the violation
/// set is sorted afterwards, so the result is bit-for-bit independent of
/// the shard count.
pub fn plan_reconciliation(
    graph: &SkipGraph,
    a: usize,
    floor: usize,
    worklist: &[(usize, Prefix)],
    shards: usize,
    plan: &mut ReconcilePlan,
) {
    plan.reset();
    // Fault-injection site (pass 0 of the reconciling repair). The pass is
    // a pure read, but it runs after its epoch's membership install, so
    // firing here models a crash in the middle of the apply stage.
    dsg_skipgraph::failpoint::hit(dsg_skipgraph::failpoint::DUMMY_PASS0);

    // Stage 1: fused collect + detect over the rebuilt lists — every dummy
    // is skipped (in a rebuilt list every standing dummy gets inventoried,
    // so skip-all equals the post-destroy view the oracle scans).
    scan_chunked(worklist, shards, &mut plan.violations, |chunk, violations| {
        let mut inventory = Vec::new();
        for &(level, prefix) in chunk {
            graph.list_balance_violations_collecting_dummies(
                a,
                level,
                prefix,
                &mut inventory,
                violations,
            );
        }
        inventory
    })
    .into_iter()
    .for_each(|inventory| plan.inventory.extend(inventory));

    // Doom the distinct inventory: each dummy's own lists at levels ≥
    // `floor` join the re-check set (removing it can merge runs anywhere
    // along its prefix path), deduplicated against the lists already
    // scanned. (`reset()` bumped the stamp epoch off 0, which
    // zero-initialised slots would otherwise match.)
    let doomed = &mut plan.doomed;
    plan.seen.extend(worklist.iter().copied());
    let mut appended: Vec<(usize, Prefix)> = Vec::new();
    for &id in &plan.inventory {
        if !doomed.insert(id) {
            continue;
        }
        let entry = graph.node(id).expect("inventoried dummy is live");
        plan.salvage.push(SalvageEntry::new(entry.key(), *entry.mvec()));
        let mvec = *entry.mvec();
        for level in floor..=mvec.len() {
            let entry = (level, mvec.prefix(level));
            if plan.seen.insert(entry) {
                appended.push(entry);
            }
        }
    }
    plan.salvage.sort_unstable_by_key(|e| e.sort_key());

    // Stage 2: the appended lists were not searched for dummies (only the
    // rebuilt ones are), so some of their dummies may keep standing: their
    // detection skips exactly the doomed set.
    let doomed = &plan.doomed;
    scan_chunked(&appended, shards, &mut plan.violations, |chunk, violations| {
        for &(level, prefix) in chunk {
            graph.list_balance_violations_filtered(
                a,
                level,
                prefix,
                |id| doomed.contains(id),
                violations,
            );
        }
    })
    .into_iter()
    .for_each(drop);

    // Both lifecycles repair the pass-0 violations in sorted order.
    plan.violations
        .sort_unstable_by_key(|v| (v.level, v.prefix, v.start_key));
    plan.violations
        .dedup_by_key(|v| (v.level, v.prefix, v.start_key));
}

/// Runs `job` over contiguous chunks of `items` — inline for one shard,
/// on scoped worker threads for several — merging each chunk's violations
/// (and returning each chunk's auxiliary result) in chunk order, so the
/// output is identical for every shard count.
fn scan_chunked<T: Sync, R: Send>(
    items: &[T],
    shards: usize,
    violations: &mut Vec<BalanceViolation>,
    job: impl Fn(&[T], &mut Vec<BalanceViolation>) -> R + Sync,
) -> Vec<R> {
    let jobs = shards.clamp(1, items.len().max(1));
    if jobs <= 1 {
        return vec![job(items, violations)];
    }
    let chunk_len = items.len().div_ceil(jobs);
    let mut results = Vec::with_capacity(jobs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| {
                let job = &job;
                scope.spawn(move || {
                    let mut chunk_violations = Vec::new();
                    let result = job(chunk, &mut chunk_violations);
                    (result, chunk_violations)
                })
            })
            .collect();
        for handle in handles {
            let (result, chunk_violations) = handle.join().expect("scan shard panicked");
            results.push(result);
            violations.extend(chunk_violations);
        }
    });
    results
}


/// The reconciling twin of [`repair_balance_destroy_recreate`]:
/// plan-then-apply over an inventory instead of destroy-then-recreate.
///
/// The **collect** phase is the read-only [`plan_reconciliation`] (inlined
/// here for the serial path; the epoch engine pre-computes plans on worker
/// shards and calls [`repair_balance_reconciling_planned`] directly): one
/// walk per rebuilt list inventories its standing dummies (they stay
/// linked, *doomed* — every planning read treats them as absent) and
/// reports the list's violations with them skipped, exactly what the
/// oracle sees after destroying them. Each inventoried dummy's own lists
/// at levels ≥ `floor` join the re-check set, since removing it would
/// merge runs anywhere along its prefix path. Every violated run is then
/// re-derived through the same `next_break` policy as the oracle and
/// each break is **diffed** against the inventory:
///
/// * salvageable standing dummy in the break gap → **reclaim** in place,
///   zero graph mutation;
/// * fresh key that lands on a doomed dummy (necessarily with a different
///   vector) → evict it and plan a fresh dummy;
/// * fresh key otherwise → plan a fresh dummy.
///
/// All of a pass's planned dummies are created in one
/// [`SkipGraph::insert_dummies_bulk`] splice pass; run walks and occupancy
/// probes interleave the plan in the meantime, so intra-pass reads match
/// what the insert-one-by-one oracle would observe. Dummies still doomed
/// when the cascade converges are removed in a final sweep. The resulting
/// graph, state table, and dummy population are bit-for-bit identical to
/// [`repair_balance_destroy_recreate`]'s; only the churn (and its
/// wall-clock cost) differs.
///
/// `worklist` is consumed and must arrive sorted + deduplicated.
#[allow(clippy::too_many_arguments)]
pub fn repair_balance_reconciling(
    graph: &mut SkipGraph,
    states: &mut StateTable,
    a: usize,
    protect: &[(Key, Key)],
    floor: usize,
    worklist: &mut Vec<(usize, Prefix)>,
    scratch: &mut ReconcileScratch,
) -> DummyReconcileOutcome {
    let mut plan = std::mem::take(&mut scratch.plan);
    plan_reconciliation(graph, a, floor, worklist, 1, &mut plan);
    worklist.clear();
    let outcome =
        repair_balance_reconciling_planned(graph, states, a, protect, floor, &mut plan, scratch);
    scratch.plan = plan;
    outcome
}

/// The *apply* half of the reconciling repair, consuming a pre-computed
/// [`ReconcilePlan`] in place (see [`repair_balance_reconciling`] for the
/// lifecycle's contract — this entry point is what the epoch engine calls
/// after planning clusters on worker shards). The plan's inventory,
/// doomed set, salvage snapshot and pass-0 violations are used where they
/// stand; the shell is left reusable (reset on its next plan).
pub fn repair_balance_reconciling_planned(
    graph: &mut SkipGraph,
    states: &mut StateTable,
    a: usize,
    protect: &[(Key, Key)],
    floor: usize,
    plan: &mut ReconcilePlan,
    scratch: &mut ReconcileScratch,
) -> DummyReconcileOutcome {
    let mut outcome = DummyReconcileOutcome::default();
    let ReconcileScratch {
        planned,
        specs,
        run_buf,
        violations,
        prev_placed,
        protect_norm,
        ..
    } = scratch;
    let doomed = &mut plan.doomed;
    let salvage = &plan.salvage;
    normalize_protect(protect, protect_norm);
    let max_passes = graph.height() + 10;
    prev_placed.clear();
    for pass in 0..max_passes {
        violations.clear();
        if pass == 0 {
            // The plan already detected (and sorted) the pass-0 violation
            // set: original lists scanned with all dummies absent, appended
            // lists with the doomed set absent.
            violations.append(&mut plan.violations);
        } else {
            // Cascade passes: only the runs around the previous pass's
            // placements can have become over-long (see
            // [`repair_balance_destroy_recreate`]).
            for &id in prev_placed.iter() {
                let Ok(mvec) = graph.mvec_of(id) else { continue };
                for level in floor..=mvec.len() {
                    if let Some(violation) =
                        graph.run_violation_at_filtered(a, id, level, |x| doomed.contains(x))
                    {
                        violations.push(violation);
                    }
                }
            }
            violations.sort_unstable_by_key(|v| (v.level, v.prefix, v.start_key));
            violations.dedup_by_key(|v| (v.level, v.prefix, v.start_key));
        }
        outcome.rounds += a + 1;
        if violations.is_empty() {
            break;
        }
        planned.clear();
        let placed_from = outcome.placed.len();
        for violation in violations.iter() {
            reconcile_violation(
                graph,
                states,
                a,
                protect_norm,
                violation,
                doomed,
                salvage,
                planned,
                run_buf,
                &mut outcome,
            );
        }
        if planned.len() >= 8 {
            specs.clear();
            specs.extend(planned.iter().map(|p| (p.key, p.mvec)));
            let ids = graph
                .insert_dummies_bulk(specs)
                .expect("planned dummy keys are free and distinct");
            for (p, &id) in planned.iter().zip(ids.iter()) {
                states.register(id, p.key, p.mvec.len());
            }
            outcome.bulk_inserted += ids.len();
            outcome.placed.extend(ids);
        } else {
            // A handful of stragglers (late cascade passes): the bulk
            // installer's fixed costs outweigh its grouping win, so insert
            // them directly — identical structure, same (sorted) insertion
            // order as the bulk path's allocation order.
            for p in planned.iter() {
                let id = graph
                    .insert_dummy(p.key, p.mvec)
                    .expect("planned dummy keys are free and distinct");
                states.register(id, p.key, p.mvec.len());
                outcome.bulk_inserted += 1;
                outcome.placed.push(id);
            }
        }
        prev_placed.clear();
        prev_placed.extend_from_slice(&outcome.placed[placed_from..]);
        if prev_placed.is_empty() {
            break;
        }
    }
    // Whatever no slot reclaimed is genuinely stale. The destroy-up-front
    // path removed these before planning; skipping them during planning
    // made the two orders observably identical, so the late removal cannot
    // create new violations.
    for &id in plan.inventory.iter() {
        if doomed.remove(id) {
            let _ = graph.remove(id);
            states.unregister(id);
            outcome.destroyed += 1;
        }
    }
    outcome
}

/// [`repair_violation`], reconciliation flavour: identical run walk, slot
/// arithmetic, and key choice — against the *logical* graph (doomed
/// dummies absent, planned dummies present) — but each slot is served by
/// reclaim / evict-and-plan / plan instead of an unconditional insert.
#[allow(clippy::too_many_arguments)]
fn reconcile_violation(
    graph: &mut SkipGraph,
    states: &mut StateTable,
    a: usize,
    protect: &[(Key, Key)],
    violation: &BalanceViolation,
    doomed: &mut NodeStampSet,
    salvage: &DummySalvage,
    planned: &mut Vec<PlannedDummy>,
    run_buf: &mut Vec<Key>,
    outcome: &mut DummyReconcileOutcome,
) {
    if graph.node(violation.start).is_none() {
        return;
    }
    let level = violation.level;
    let prefix = violation.prefix;
    let member_of_list =
        |p: &PlannedDummy| p.mvec.len() >= level && p.mvec.prefix(level) == prefix;
    // Merged run-key snapshot: the physical chain minus the doomed dummies,
    // with this pass's planned dummies interleaved at their key positions —
    // exactly the chain the insert-one-by-one oracle would walk.
    run_buf.clear();
    let mut cursor = Some(violation.start);
    // Forward cursor into the (key-sorted) plan: the run is walked in
    // ascending key order, so one binary search at the start and a linear
    // merge replace a bisection per gap.
    let mut pi = usize::MAX;
    'walk: while let Some(id) = cursor {
        let next = graph
            .neighbors(id, level)
            .expect("run member is live")
            .1;
        if doomed.contains(id) {
            cursor = next;
            continue;
        }
        let key = graph.key_of(id).expect("run member is live");
        if pi == usize::MAX {
            // First (non-doomed) member: planned dummies before it are
            // outside the run.
            pi = planned.partition_point(|p| p.key <= key);
        } else {
            while pi < planned.len() && planned[pi].key < key {
                if member_of_list(&planned[pi]) {
                    run_buf.push(planned[pi].key);
                    if run_buf.len() >= violation.run_length {
                        break 'walk;
                    }
                }
                pi += 1;
            }
        }
        run_buf.push(key);
        if run_buf.len() >= violation.run_length {
            break;
        }
        cursor = next;
    }
    if run_buf.len() < violation.run_length && pi != usize::MAX {
        // The physical chain ended first; planned dummies past its tail
        // belong to the run too (the oracle's chain continues through its
        // freshly inserted nodes).
        while pi < planned.len() && run_buf.len() < violation.run_length {
            if member_of_list(&planned[pi]) {
                run_buf.push(planned[pi].key);
            }
            pi += 1;
        }
    }
    let mut mvec = prefix_vector(&violation.prefix);
    mvec.push(violation.bit.flipped()).expect("within height limit");
    let list_salvage = salvage_slice(salvage, &mvec);
    // Identical member walk and break policy as [`repair_violation`]; only
    // the placement action differs per break.
    let mut last_break: isize = -1;
    while let Some(action) = next_break(
        run_buf,
        last_break,
        a,
        protect,
        list_salvage,
        // A snapshot entry is reclaimable while its key still holds an
        // inventoried (doomed) dummy: a claim un-dooms it, an eviction
        // removes it — the same flips the oracle's unoccupied-key
        // predicate makes.
        &|key| {
            graph
                .node_by_key(key)
                .is_some_and(|id| doomed.contains(id))
        },
    ) {
        let b = match action {
            BreakAction::Salvaged(g, key) => {
                // The standing dummy already breaks this segment with the
                // right vector — reclaim it in place, zero graph mutation.
                // The oracle makes the same choice and re-creates it at the
                // same key.
                let standing = graph
                    .node_by_key(key)
                    .expect("salvaged dummy is still standing");
                debug_assert!(doomed.contains(standing));
                doomed.remove(standing);
                outcome.placed.push(standing);
                outcome.reused += 1;
                outcome.rounds += 1;
                last_break = g as isize;
                continue;
            }
            BreakAction::Fresh(b) => b,
        };
        last_break = b as isize;
        let choice = free_key_between_by(
            |k| {
                let key = Key::new(k);
                if planned.binary_search_by_key(&key, |p| p.key).is_ok() {
                    return true;
                }
                match graph.node_by_key(key) {
                    Some(id) => !doomed.contains(id),
                    None => false,
                }
            },
            run_buf[b].value(),
            run_buf[b + 1].value(),
        );
        match choice {
            Some(key) => {
                let key = Key::new(key);
                if let Some(standing) = graph.node_by_key(key) {
                    // The probe reported this key free, so the standing node
                    // is an inventoried dummy — and its vector cannot match
                    // (a matching one would have been salvaged above), so it
                    // is superseded: evict it to make room.
                    debug_assert!(doomed.contains(standing));
                    let _ = graph.remove(standing);
                    states.unregister(standing);
                    doomed.remove(standing);
                    outcome.destroyed += 1;
                }
                plan_dummy(planned, key, mvec);
                outcome.rounds += 1;
            }
            None => outcome.unrepairable_runs += 1,
        }
    }
}

/// Records a planned dummy, keeping the plan sorted by key.
fn plan_dummy(planned: &mut Vec<PlannedDummy>, key: Key, mvec: MembershipVector) {
    let idx = planned
        .binary_search_by_key(&key, |p| p.key)
        .expect_err("planned keys are chosen unoccupied");
    planned.insert(idx, PlannedDummy { key, mvec });
}

/// An *unoccupied* key strictly between `left` and `right`, if one exists.
/// Candidates are spread across the gap (rather than clustered around the
/// midpoint) so that successive dummies keep leaving room for later ones.
/// Peer keys (multiples of [`DynamicSkipGraph::KEY_SPACING`]) are never
/// chosen: the key of a departed peer stays reserved for its rejoin.
fn free_key_between(graph: &SkipGraph, left: u64, right: u64) -> Option<u64> {
    free_key_between_by(
        |k| graph.node_by_key(Key::new(k)).is_some(),
        left,
        right,
    )
}

/// [`free_key_between`] against a caller-supplied occupancy oracle — the
/// reconciliation planner probes the *logical* occupancy (doomed dummies
/// free, planned dummies taken) so its key choices replay the
/// destroy-up-front path's exactly.
fn free_key_between_by<F: Fn(u64) -> bool>(occupied: F, left: u64, right: u64) -> Option<u64> {
    let key = sweep_free_key(&occupied, left, right)?;
    let spacing = DynamicSkipGraph::KEY_SPACING;
    if !key.is_multiple_of(spacing) {
        return Some(key);
    }
    // An unheld peer key (its peer left, or never joined) stays reserved
    // for that peer: take a slot in the peer-free stretch beside it
    // instead, which holds no peer key. While every peer in the gap is
    // present this branch never runs, so placement is unchanged.
    let (lo, hi) = (left.min(right), left.max(right));
    sweep_free_key(&occupied, key, hi.min(key.saturating_add(spacing)))
        .or_else(|| sweep_free_key(&occupied, lo.max(key - spacing), key))
}

/// The candidate sweep behind [`free_key_between_by`]; peer keys are
/// ordinary candidates here.
fn sweep_free_key<F: Fn(u64) -> bool>(occupied: &F, left: u64, right: u64) -> Option<u64> {
    let (lo, hi) = if left <= right { (left, right) } else { (right, left) };
    let gap = hi - lo;
    if gap <= 1 {
        return None;
    }
    // Fast path: the first candidate (the midpoint) is free — the
    // overwhelmingly common case, since keys are sparse in the gap. One
    // lookup instead of the candidate sweep.
    let midpoint = lo + gap / 2;
    if !occupied(midpoint) {
        return Some(midpoint);
    }
    // Probe 1/2, 1/4, 3/4, 1/8, … of the gap lazily, one occupancy check
    // each, then fall back to a linear scan of the (small) remaining space.
    let mut denom = 2u64;
    while denom <= 64 && (gap / denom) >= 1 {
        let step = gap / denom;
        let mut k = 1u64;
        while k < denom {
            let key = lo + step * k;
            if key > lo && key < hi && !occupied(key) {
                return Some(key);
            }
            k += 2;
        }
        denom *= 2;
    }
    if gap <= 64 {
        ((lo + 1)..hi).find(|&key| !occupied(key))
    } else {
        None
    }
}

/// Rebuilds the membership-vector prefix of a list as an owned vector.
fn prefix_vector(prefix: &dsg_skipgraph::Prefix) -> MembershipVector {
    let mut mvec = MembershipVector::empty();
    for level in 1..=prefix.level() {
        let bit: Bit = prefix.bit(level).expect("level within prefix");
        mvec.push(bit).expect("within height limit");
    }
    mvec
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsg_skipgraph::Key;

    /// Keys spaced far apart so that dummies always fit in between.
    fn spaced_key(i: u64) -> u64 {
        (i + 1) << 20
    }

    fn unbalanced_graph(n: u64, a: usize) -> (SkipGraph, StateTable) {
        // Every node goes to the 0-sublist at level 1: one long run.
        let graph = SkipGraph::from_members((0..n).map(|i| {
            (
                Key::new(spaced_key(i)),
                MembershipVector::parse("0").unwrap(),
            )
        }))
        .unwrap();
        let mut states = StateTable::new();
        for id in graph.node_ids().collect::<Vec<_>>() {
            let key = graph.key_of(id).unwrap();
            states.register(id, key, 0);
        }
        assert!(!graph.is_a_balanced(a));
        (graph, states)
    }

    #[test]
    fn repair_breaks_long_runs() {
        let a = 3;
        let (mut graph, mut states) = unbalanced_graph(10, a);
        let outcome = repair_balance(&mut graph, &mut states, a);
        assert!(!outcome.inserted.is_empty());
        assert_eq!(outcome.unrepairable_runs, 0);
        assert!(graph.is_a_balanced(a), "graph still unbalanced after repair");
        graph.validate().unwrap();
        // The paper bounds the number of dummies by n / a.
        assert!(outcome.inserted.len() <= 10 / a + 1);
        // Dummies are flagged and registered.
        for id in &outcome.inserted {
            assert!(graph.node(*id).unwrap().is_dummy());
            assert!(states.contains(*id));
        }
    }

    #[test]
    fn balanced_graphs_are_left_untouched() {
        let graph_members = (0..8u64).map(|i| {
            let v = if i % 2 == 0 { "0" } else { "1" };
            (Key::new(spaced_key(i)), MembershipVector::parse(v).unwrap())
        });
        let mut graph = SkipGraph::from_members(graph_members).unwrap();
        let mut states = StateTable::new();
        for id in graph.node_ids().collect::<Vec<_>>() {
            let key = graph.key_of(id).unwrap();
            states.register(id, key, 0);
        }
        let outcome = repair_balance(&mut graph, &mut states, 2);
        assert!(outcome.inserted.is_empty());
        assert_eq!(graph.dummy_count(), 0);
    }

    /// Edge-case coverage for the reconciliation's occupancy-oracle probe
    /// ([`free_key_between_by`]), previously exercised only through full
    /// runs.
    #[test]
    fn free_key_between_by_handles_doomed_and_dense_windows() {
        // All keys doomed (the reconciliation planner's view of a window
        // whose every standing dummy is inventoried): everything reads as
        // free, so the probe returns the midpoint immediately.
        let all_doomed = |_k: u64| false;
        assert_eq!(free_key_between_by(all_doomed, 100, 200), Some(150));
        assert_eq!(free_key_between_by(all_doomed, 200, 100), Some(150));

        // Fully occupied window: no key can be derived.
        let occupied = |_k: u64| true;
        assert_eq!(free_key_between_by(occupied, 100, 200), None);

        // Degenerate gaps: adjacent or equal bounds hold no interior key,
        // doomed or not.
        assert_eq!(free_key_between_by(all_doomed, 7, 8), None);
        assert_eq!(free_key_between_by(all_doomed, 7, 7), None);

        // Midpoint taken: the probe spreads across the gap instead of
        // giving up, and never returns an occupied or out-of-range key.
        let only_midpoint = |k: u64| k == 150;
        let key = free_key_between_by(only_midpoint, 100, 200).expect("gap has room");
        assert!(key > 100 && key < 200 && key != 150);

        // Small dense gap with one hole: the linear fallback finds it.
        let one_hole = |k: u64| k != 13;
        assert_eq!(free_key_between_by(one_hole, 10, 20), Some(13));
    }

    #[test]
    fn free_key_between_by_never_takes_a_peer_key() {
        let s = DynamicSkipGraph::KEY_SPACING;
        // Every peer present: the choice is the plain sweep's.
        let peers_held = |k: u64| k.is_multiple_of(s);
        for (lo, hi) in [(s, 3 * s), (s, 65 * s), (3 * s, 4 * s), (s, 2 * s + s / 2)] {
            assert_eq!(
                free_key_between_by(peers_held, lo, hi),
                sweep_free_key(&peers_held, lo, hi)
            );
        }
        // The peer at 2s has left: the sweep's midpoint is its key, which
        // stays free; the dummy goes to the middle of the stretch above.
        let nothing_held = |_k: u64| false;
        assert_eq!(sweep_free_key(&nothing_held, s, 3 * s), Some(2 * s));
        assert_eq!(
            free_key_between_by(nothing_held, s, 3 * s),
            Some(2 * s + s / 2)
        );
        // Stretch above taken too: the one below is used.
        let above_held = |k: u64| k > 2 * s && k < 3 * s;
        assert_eq!(free_key_between_by(above_held, s, 3 * s), Some(s + s / 2));
        // Over a long run of unheld peer keys every dyadic candidate is a
        // peer key; a slot beside the first one is still found.
        let key = free_key_between_by(nothing_held, s, 65 * s).expect("gap has room");
        assert!(!key.is_multiple_of(s) && key > s && key < 65 * s);
    }

    #[test]
    fn dense_keys_report_unrepairable_runs() {
        // Adjacent integer keys leave no room for dummy keys.
        let graph_members =
            (0..6u64).map(|i| (Key::new(i), MembershipVector::parse("0").unwrap()));
        let mut graph = SkipGraph::from_members(graph_members).unwrap();
        let mut states = StateTable::new();
        for id in graph.node_ids().collect::<Vec<_>>() {
            let key = graph.key_of(id).unwrap();
            states.register(id, key, 0);
        }
        let outcome = repair_balance(&mut graph, &mut states, 2);
        assert!(outcome.unrepairable_runs > 0);
        assert!(outcome.inserted.is_empty());
    }

}
