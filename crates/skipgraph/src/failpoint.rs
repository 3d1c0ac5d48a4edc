//! Deterministic fail-point registry for fault-injection testing.
//!
//! A *fail point* is a named site in the code (the [`sites`] catalog) that
//! can be **armed** to panic on its `n`-th hit. The robustness suites use
//! this to drive the epoch pipeline into its documented failure modes on
//! purpose — a plan-stage worker dying mid-plan, the membership installer
//! dying between two list splices, the dummy-reconciliation detection pass
//! dying after the install, the service ingest loop dying between epochs —
//! and then assert the containment story (`dsg::service`): plan-stage
//! faults abort the epoch with the engine untouched, apply-stage faults
//! poison the service with every in-flight ticket resolved. The `io.*`
//! sites extend the same registry into the durability layer
//! (`dsg::persist`): a journal append dying mid-frame or at its fsync, a
//! checkpoint dying before its snapshot is written or just after it is
//! renamed into place — driven by the crash-recovery harness, which then
//! proves restart-replay equivalence.
//!
//! # Cost when disarmed
//!
//! [`hit`] is a single relaxed atomic load of a global armed-site counter
//! (no site lookup, no branch beyond the zero test), so production code
//! paths carry the instrumentation permanently. Everything slower lives in
//! the `#[cold]` armed path.
//!
//! # Determinism
//!
//! Triggers are countdown-based: [`arm`]`(site, nth)` fires the panic on
//! exactly the `nth` hit of that site from now, then disarms it. Seeded
//! schedules derive each site's countdown from a splitmix64 stream
//! ([`seeded_nth`]), so a fault-injection run is reproducible from one
//! `u64` seed.
//!
//! # Process-global state
//!
//! The registry is process-global (the sites live in code shared by every
//! engine instance), so concurrently running tests that arm fail points
//! would interfere. Tests serialise through [`exclusive`] and reset with
//! [`disarm_all`].

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Fail-point site inside the parallel epoch *plan* stage: hit once per
/// cluster planned (worker shard or inline). Firing here aborts the epoch
/// before any apply — the engine is untouched.
pub const PLAN_WORKER: &str = "plan.worker";

/// Fail-point site inside the ordered-splice membership installer
/// ([`SkipGraph::apply_membership_batch`](crate::SkipGraph::apply_membership_batch)):
/// hit once per spliced list, *after* the splice, so firing mid-batch
/// leaves the arena genuinely half-mutated. Firing here poisons a
/// `dsg::service`.
pub const APPLY_SPLICE: &str = "apply.splice";

/// Fail-point site at the head of the dummy-reconciliation detection pass
/// (pass 0 of the reconciling balance repair): hit once per cluster
/// reconciled. The pass itself is a pure read, but it runs after the
/// membership install of its epoch, so firing here is an apply-stage fault
/// (the epoch is already half-applied) and poisons a `dsg::service`.
pub const DUMMY_PASS0: &str = "dummy.pass0";

/// Fail-point site in the `dsg::service` ingest loop, hit once per drained
/// request batch *before* the engine is called. Firing here fails the
/// batch's tickets but leaves the engine untouched; the service keeps
/// serving.
pub const INGEST_LOOP: &str = "ingest.loop";

/// Fail-point site in the durable journal's frame writer (`dsg::persist`),
/// hit between the frame header and the frame payload reaching the file,
/// so firing here leaves a genuinely *torn* frame on disk — the exact
/// artifact the recovery path's torn-tail truncation must drop. In a
/// `dsg::service` the append failure is contained: the journal is rolled
/// back to the last committed frame, the batch's tickets fail typed, and
/// the engine is never called.
pub const IO_APPEND: &str = "io.append";

/// Fail-point site in the durable journal's frame writer (`dsg::persist`),
/// hit after a whole frame reached the file and just before the cadence
/// fsync (`PersistConfig::fsync_every`) that makes it durable. Firing
/// here is a failed fsync: a `dsg::service` rolls the journal back to
/// where the frame began, fails the batch's tickets typed, and never calls
/// the engine — the same containment as [`IO_APPEND`].
pub const IO_SYNC: &str = "io.sync";

/// Fail-point site in the snapshot checkpoint writer (`dsg::persist`), hit
/// after the snapshot temp file is created but before its payload is
/// written. Firing here simulates a crash mid-checkpoint: a stray temp
/// file that recovery ignores. A `dsg::service` abandons the checkpoint and
/// keeps serving; recovery starts from the previous snapshot.
pub const IO_SNAPSHOT: &str = "io.snapshot";

/// Fail-point site in the snapshot checkpoint writer (`dsg::persist`), hit
/// after the snapshot is renamed into place — the commit point — but
/// before the directory fsync and the deletion of retired snapshots.
/// Firing here simulates a crash just after the commit: the new snapshot
/// is a complete recovery point, and the old ones are still on disk. A
/// `dsg::service` abandons the checkpoint and keeps serving; recovery
/// starts from the new snapshot.
pub const IO_PUBLISH: &str = "io.publish";

const SITE_NAMES: [&str; 8] = [
    PLAN_WORKER,
    APPLY_SPLICE,
    DUMMY_PASS0,
    INGEST_LOOP,
    IO_APPEND,
    IO_SYNC,
    IO_SNAPSHOT,
    IO_PUBLISH,
];

/// Number of armed sites; the disarmed fast path of [`hit`] tests only
/// this.
static ARMED_SITES: AtomicU32 = AtomicU32::new(0);
/// Per-site countdown: 0 = disarmed, `n > 0` = fire on the `n`-th hit
/// from now.
static COUNTDOWNS: [AtomicU64; 8] = [const { AtomicU64::new(0) }; 8];
/// Per-site stall duration in milliseconds: 0 = the site panics when it
/// fires (the default), `ms > 0` = the firing hit *sleeps* that long
/// instead — the hang-injection mode stall-watchdog tests drive.
static SLEEP_MS: [AtomicU64; 8] = [const { AtomicU64::new(0) }; 8];
/// Per-site hit counters, recorded while *any* site is armed (coverage
/// evidence for the fault-injection soak).
static HITS: [AtomicU64; 8] = [const { AtomicU64::new(0) }; 8];
/// Serialisation lock for tests (the registry is process-global).
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// The catalog of named fail-point sites.
pub fn sites() -> &'static [&'static str] {
    &SITE_NAMES
}

fn index(site: &str) -> usize {
    SITE_NAMES
        .iter()
        .position(|&s| s == site)
        .unwrap_or_else(|| panic!("unknown fail-point site `{site}`"))
}

/// Serialises fail-point tests: the registry is process-global, so any
/// test that arms a site must hold this guard for its whole arm → run →
/// [`disarm_all`] window. A panic while holding it (most fail-point tests
/// panic on purpose somewhere) does not wedge later tests — poisoning is
/// ignored.
pub fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Arms `site` to panic on its `nth` hit from now (`nth ≥ 1`; 1 = the very
/// next hit). Re-arming an already-armed site replaces its countdown. The
/// site disarms itself when it fires.
///
/// # Panics
///
/// Panics on an unknown site name or `nth == 0`.
pub fn arm(site: &str, nth: u64) {
    assert!(nth >= 1, "a fail point fires on the nth hit, nth >= 1");
    let i = index(site);
    SLEEP_MS[i].store(0, Ordering::SeqCst);
    if COUNTDOWNS[i].swap(nth, Ordering::SeqCst) == 0 {
        ARMED_SITES.fetch_add(1, Ordering::SeqCst);
    }
}

/// Arms `site` to **stall** (sleep `ms` milliseconds on the firing hit,
/// then continue) instead of panicking — hang injection for stall-watchdog
/// tests. Countdown semantics match [`arm`]: fires on the `nth` hit from
/// now, then disarms itself.
///
/// # Panics
///
/// Panics on an unknown site name, `nth == 0`, or `ms == 0` (use [`arm`]
/// for the panic mode).
pub fn arm_sleep(site: &str, nth: u64, ms: u64) {
    assert!(nth >= 1, "a fail point fires on the nth hit, nth >= 1");
    assert!(ms >= 1, "a stall fail point needs a positive sleep");
    let i = index(site);
    SLEEP_MS[i].store(ms, Ordering::SeqCst);
    if COUNTDOWNS[i].swap(nth, Ordering::SeqCst) == 0 {
        ARMED_SITES.fetch_add(1, Ordering::SeqCst);
    }
}

/// Disarms every site and zeroes every hit counter, restoring the
/// registry to its pristine (free) state.
pub fn disarm_all() {
    for countdown in &COUNTDOWNS {
        countdown.store(0, Ordering::SeqCst);
    }
    for sleep in &SLEEP_MS {
        sleep.store(0, Ordering::SeqCst);
    }
    for hits in &HITS {
        hits.store(0, Ordering::SeqCst);
    }
    ARMED_SITES.store(0, Ordering::SeqCst);
}

/// The number of times `site` was hit while the registry had any site
/// armed (hits with the registry fully disarmed are not counted — the
/// fast path never reaches the counter).
///
/// # Panics
///
/// Panics on an unknown site name.
pub fn hit_count(site: &str) -> u64 {
    HITS[index(site)].load(Ordering::SeqCst)
}

/// Derives a deterministic countdown in `1..=max_nth` for `site` from
/// `seed` (splitmix64 of the seed and the site's catalog index), so a
/// whole fault-injection schedule reproduces from one `u64`.
///
/// # Panics
///
/// Panics on an unknown site name or `max_nth == 0`.
pub fn seeded_nth(seed: u64, site: &str, max_nth: u64) -> u64 {
    assert!(max_nth >= 1, "the countdown range must be non-empty");
    let mut z = seed
        .wrapping_add((index(site) as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % max_nth + 1
}

/// Whether `site` is armed (its countdown is running). Free (one relaxed
/// load) while the registry is fully disarmed, like [`hit`]. A writer that
/// splits a write around a site only while it is armed uses this to keep
/// its disarmed path in one piece.
///
/// # Panics
///
/// Panics on an unknown site name while any site is armed.
#[inline]
pub fn armed(site: &'static str) -> bool {
    ARMED_SITES.load(Ordering::Relaxed) != 0 && COUNTDOWNS[index(site)].load(Ordering::Relaxed) != 0
}

/// Registers one hit of `site`. Free (one relaxed load) while the
/// registry is fully disarmed.
///
/// # Panics
///
/// Panics — that is the whole point — when the hit exhausts an armed
/// site's countdown. The panic payload is
/// `` fail point `<site>` fired ``.
#[inline]
pub fn hit(site: &'static str) {
    if ARMED_SITES.load(Ordering::Relaxed) == 0 {
        return;
    }
    hit_armed(site);
}

#[cold]
fn hit_armed(site: &'static str) {
    let i = index(site);
    HITS[i].fetch_add(1, Ordering::SeqCst);
    let mut current = COUNTDOWNS[i].load(Ordering::SeqCst);
    loop {
        if current == 0 {
            return;
        }
        match COUNTDOWNS[i].compare_exchange(
            current,
            current - 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => {
                if current == 1 {
                    ARMED_SITES.fetch_sub(1, Ordering::SeqCst);
                    let stall_ms = SLEEP_MS[i].swap(0, Ordering::SeqCst);
                    if stall_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(stall_ms));
                        return;
                    }
                    panic!("fail point `{site}` fired");
                }
                return;
            }
            Err(actual) => current = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_hits_are_free_and_uncounted() {
        let _guard = exclusive();
        disarm_all();
        hit(PLAN_WORKER);
        hit(APPLY_SPLICE);
        assert_eq!(hit_count(PLAN_WORKER), 0);
        assert_eq!(hit_count(APPLY_SPLICE), 0);
    }

    #[test]
    fn armed_site_fires_on_exactly_the_nth_hit_then_disarms() {
        let _guard = exclusive();
        disarm_all();
        arm(PLAN_WORKER, 3);
        hit(PLAN_WORKER);
        hit(PLAN_WORKER);
        let fired = std::panic::catch_unwind(|| hit(PLAN_WORKER));
        assert!(fired.is_err(), "third hit must fire");
        assert_eq!(hit_count(PLAN_WORKER), 3);
        // The site disarmed itself; further hits are counted (another
        // armed site may still exist) but never fire.
        arm(APPLY_SPLICE, 100);
        hit(PLAN_WORKER);
        assert_eq!(hit_count(PLAN_WORKER), 4);
        disarm_all();
        assert_eq!(hit_count(PLAN_WORKER), 0);
    }

    #[test]
    fn armed_reports_exactly_the_running_countdowns() {
        let _guard = exclusive();
        disarm_all();
        assert!(!armed(IO_APPEND));
        arm(IO_SNAPSHOT, 2);
        assert!(armed(IO_SNAPSHOT));
        assert!(!armed(IO_APPEND), "another armed site is not this one");
        arm(IO_APPEND, 1);
        assert!(armed(IO_APPEND));
        assert!(std::panic::catch_unwind(|| hit(IO_APPEND)).is_err());
        assert!(!armed(IO_APPEND), "a fired site disarms itself");
        assert!(armed(IO_SNAPSHOT));
        disarm_all();
        assert!(!armed(IO_SNAPSHOT));
    }

    #[test]
    fn other_sites_are_counted_but_do_not_fire() {
        let _guard = exclusive();
        disarm_all();
        arm(DUMMY_PASS0, 1);
        hit(INGEST_LOOP);
        hit(INGEST_LOOP);
        assert_eq!(hit_count(INGEST_LOOP), 2);
        assert_eq!(hit_count(DUMMY_PASS0), 0);
        let fired = std::panic::catch_unwind(|| hit(DUMMY_PASS0));
        assert!(fired.is_err());
        disarm_all();
    }

    #[test]
    fn seeded_countdowns_are_deterministic_and_in_range() {
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            for &site in sites() {
                let nth = seeded_nth(seed, site, 8);
                assert!((1..=8).contains(&nth));
                assert_eq!(nth, seeded_nth(seed, site, 8), "must reproduce");
            }
        }
        // Different sites get (generally) different countdowns from one
        // seed — the schedule is per-site, not one shared value.
        let all: Vec<u64> = sites().iter().map(|s| seeded_nth(7, s, 1 << 20)).collect();
        let distinct: std::collections::HashSet<u64> = all.iter().copied().collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn sleep_armed_site_stalls_instead_of_panicking() {
        let _guard = exclusive();
        disarm_all();
        arm_sleep(INGEST_LOOP, 2, 30);
        hit(INGEST_LOOP);
        let started = std::time::Instant::now();
        hit(INGEST_LOOP);
        assert!(
            started.elapsed() >= std::time::Duration::from_millis(25),
            "the firing hit must stall"
        );
        // The site disarmed itself (and dropped back to the free fast
        // path, so further hits are not even counted).
        hit(INGEST_LOOP);
        assert_eq!(hit_count(INGEST_LOOP), 2);
        // A later plain `arm` is back in panic mode.
        arm(INGEST_LOOP, 1);
        assert!(std::panic::catch_unwind(|| hit(INGEST_LOOP)).is_err());
        disarm_all();
    }

    #[test]
    fn unknown_sites_are_rejected() {
        assert!(std::panic::catch_unwind(|| hit_count("no.such.site")).is_err());
    }
}
