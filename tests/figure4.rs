//! Experiment E3: the S₈ → S₉ worked example of Figure 4.
//!
//! The paper walks the `(U, V)` request at time 8 through every rule of the
//! algorithm on a concrete ten-node instance. These tests rebuild S₈ exactly
//! (membership vectors, timestamps, group-ids, group-bases) and assert the
//! structural facts the paper states about S₉:
//!
//! * `α = 0` and the priorities of §IV-C's example,
//! * `U` and `V` end up in a linked list of size two (directly linked) with
//!   timestamps equal to the request time,
//! * the non-communicating groups `{H, J}`, `{F, I}` and `{B, G}` are not
//!   torn apart,
//! * `E` (V's old partner) stays on the communicating side, and
//! * the structure height stays within the Lemma-5 bound.
//!
//! Exact per-level timestamps depend on the interpretation choices the
//! `dsg::timestamps` module documents; the assertions here are the ones that
//! are unambiguous in the paper.

use dsg::fixtures::{figure4_s8, internal, peers};
use dsg::{DsgConfig, MedianStrategy};

fn exact_config() -> DsgConfig {
    // The worked example is deterministic with the exact-median oracle; the
    // AMF variant is exercised separately below.
    DsgConfig::default()
        .with_median(MedianStrategy::Exact)
        .with_a(3)
        .with_seed(8)
}

#[test]
fn alpha_is_zero_as_stated_in_the_paper() {
    let net = figure4_s8(exact_config()).unwrap();
    assert_eq!(net.common_level(peers::U, peers::V).unwrap(), 0);
    assert_eq!(net.time(), 7);
}

#[test]
fn uv_request_creates_the_direct_link_of_s9() {
    let mut net = figure4_s8(exact_config()).unwrap();
    let outcome = net.communicate(peers::U, peers::V).unwrap();
    assert_eq!(outcome.time, 8, "the request happens at time 8");
    assert_eq!(outcome.alpha, 0);
    // U and V form a linked list of size two (Figure 4(c) level 3).
    assert!(net.are_directly_linked(peers::U, peers::V).unwrap());
    assert_eq!(net.peer_distance(peers::U, peers::V).unwrap(), 0);
    // Rule T1: both carry the request time at the pair level.
    let d = outcome.pair_level;
    assert_eq!(net.peer_state(peers::U).unwrap().timestamp(d), 8);
    assert_eq!(net.peer_state(peers::V).unwrap().timestamp(d), 8);
    // The merged group carries U's identifier at level α.
    assert_eq!(
        net.peer_state(peers::V).unwrap().group_id(0),
        internal(peers::U)
    );
    assert_eq!(
        net.peer_state(peers::E).unwrap().group_id(0),
        internal(peers::U)
    );
    net.validate().unwrap();
}

#[test]
fn non_communicating_groups_survive_the_transformation() {
    let mut net = figure4_s8(exact_config()).unwrap();
    let before_hj = net.common_level(peers::H, peers::J).unwrap();
    let before_fi = net.common_level(peers::F, peers::I).unwrap();
    net.communicate(peers::U, peers::V).unwrap();
    // The groups that did not take part keep (or improve) their proximity:
    // their shared-prefix level may move around, but they must still be
    // directly linked or very close, as Figure 4(c) shows them staying
    // paired.
    let after_hj = net.common_level(peers::H, peers::J).unwrap();
    let after_fi = net.common_level(peers::F, peers::I).unwrap();
    assert!(net.peer_distance(peers::H, peers::J).unwrap() <= 1);
    assert!(net.peer_distance(peers::F, peers::I).unwrap() <= 1);
    assert!(after_hj >= 1, "H and J separated (was {before_hj}, now {after_hj})");
    assert!(after_fi >= 1, "F and I separated (was {before_fi}, now {after_fi})");
    // B and G, members of U's old group, also stay close (Figure 4(c) keeps
    // them in one group at level 3).
    assert!(net.peer_distance(peers::B, peers::G).unwrap() <= 2);
}

#[test]
fn e_stays_on_the_communicating_side() {
    let mut net = figure4_s8(exact_config()).unwrap();
    net.communicate(peers::U, peers::V).unwrap();
    // In S₉, E sits in the same level-1 subgraph as U and V (it was V's
    // most recent partner), while H, J, F, I end up in the sibling subgraph.
    let e_side = net.common_level(peers::E, peers::U).unwrap();
    let h_side = net.common_level(peers::H, peers::U).unwrap();
    assert!(
        e_side > h_side,
        "E (level {e_side}) should share more structure with U than H does (level {h_side})"
    );
}

#[test]
fn height_respects_lemma_5_after_the_transformation() {
    let mut net = figure4_s8(exact_config()).unwrap();
    let outcome = net.communicate(peers::U, peers::V).unwrap();
    // Lemma 5: height ≤ log_{3/2} n = log_{3/2} 10 ≈ 5.7, plus slack for
    // dummy nodes.
    assert!(outcome.height_after <= 7, "height {}", outcome.height_after);
    // Lemma 4: the direct link sits no higher than log_{2a/(a+1)} n.
    let lemma4 = (10f64).ln() / (2.0 * 3.0 / 4.0f64).ln();
    assert!((outcome.pair_level as f64) <= lemma4 + 1.0);
}

#[test]
fn the_worked_example_also_runs_under_amf() {
    let mut net = figure4_s8(DsgConfig::default().with_a(3).with_seed(8)).unwrap();
    let outcome = net.communicate(peers::U, peers::V).unwrap();
    assert!(net.are_directly_linked(peers::U, peers::V).unwrap());
    assert!(outcome.height_after <= 8);
    net.validate().unwrap();
}

#[test]
fn repeating_the_pair_after_s9_is_free() {
    let mut net = figure4_s8(exact_config()).unwrap();
    net.communicate(peers::U, peers::V).unwrap();
    let again = net.communicate(peers::U, peers::V).unwrap();
    assert_eq!(again.routing_cost, 0);
    assert_eq!(again.alpha, again.pair_level);
}
