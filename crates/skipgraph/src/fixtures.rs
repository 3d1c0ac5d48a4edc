//! Ready-made skip graph instances used by tests, examples and benchmarks.
//!
//! The most important fixture is [`figure1`], the 6-node instance the paper
//! uses to introduce skip graphs (Figure 1). Larger parametric fixtures
//! serve the tests and the `core` bench.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::graph::SkipGraph;
use crate::ids::Key;
use crate::mvec::MembershipVector;

/// The 6-node skip graph of Figure 1 of the paper.
///
/// Keys follow the nodes' positions in the alphabet (A=1, G=7, J=10, M=13,
/// R=18, W=23). Membership vectors reproduce the figure: the level-1
/// 0-sublist is {A, J, M}, the 1-sublist is {G, R, W}, and the 10-subgraph
/// contains exactly {G, W}.
pub fn figure1() -> SkipGraph {
    let members = [
        (1u64, "00"),  // A
        (7, "10"),     // G
        (10, "00"),    // J
        (13, "01"),    // M
        (18, "11"),    // R
        (23, "10"),    // W
    ];
    SkipGraph::from_members(
        members
            .iter()
            .map(|(k, v)| (Key::new(*k), MembershipVector::parse(v).expect("fixture vector"))),
    )
    .expect("fixture keys are distinct")
}

/// A skip graph over keys `0..n` with uniformly random membership vectors,
/// seeded for reproducibility.
pub fn uniform_random(n: u64, seed: u64) -> SkipGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    SkipGraph::random((0..n).map(Key::new), &mut rng).expect("keys 0..n are distinct")
}

/// A perfectly balanced skip graph over keys `0..n` ([`SkipGraph::balanced`]):
/// the membership-vector bit of a node at level `i` is bit `i - 1` of its
/// rank. Every list at every level splits exactly in half (by parity of the
/// corresponding rank bit), which yields the minimum possible height
/// `⌈log₂ n⌉`.
pub fn perfectly_balanced(n: u64) -> SkipGraph {
    SkipGraph::balanced((0..n as usize).map(|rank| Key::new(rank as u64)))
        .expect("keys 0..n ascend")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_is_valid() {
        let g = figure1();
        g.validate().unwrap();
        assert_eq!(g.len(), 6);
    }

    #[test]
    fn figure1_lists_match_the_paper() {
        let g = figure1();
        // The lists of Figure 1(b): the level-1 0- and 1-sublists {A, J, M}
        // and {G, R, W}, and the 10-subgraph {G, W}.
        let keys = |bits: &str| -> Vec<u64> {
            let prefix = MembershipVector::parse(bits).unwrap().prefix(bits.len());
            g.list_iter(bits.len(), prefix)
                .map(|id| g.key_of(id).unwrap().value())
                .collect()
        };
        assert_eq!(keys(""), vec![1, 7, 10, 13, 18, 23]);
        assert_eq!(keys("0"), vec![1, 10, 13]);
        assert_eq!(keys("1"), vec![7, 18, 23]);
        assert_eq!(keys("10"), vec![7, 23]);
    }

    #[test]
    fn uniform_random_is_reproducible() {
        let a = uniform_random(64, 9);
        let b = uniform_random(64, 9);
        for key in a.keys() {
            let ia = a.node_by_key(key).unwrap();
            let ib = b.node_by_key(key).unwrap();
            assert_eq!(a.mvec_of(ia).unwrap(), b.mvec_of(ib).unwrap());
        }
    }

    #[test]
    fn perfectly_balanced_has_minimum_height() {
        for n in [2u64, 4, 16, 64, 100, 128] {
            let g = perfectly_balanced(n);
            g.validate().unwrap();
            let expected = (n as f64).log2().ceil() as usize;
            assert_eq!(g.height(), expected, "n = {n}");
        }
    }

    #[test]
    fn perfectly_balanced_handles_tiny_inputs() {
        assert_eq!(perfectly_balanced(0).len(), 0);
        assert_eq!(perfectly_balanced(1).len(), 1);
        assert_eq!(perfectly_balanced(1).height(), 0);
    }
}
