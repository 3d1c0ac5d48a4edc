//! Experiments E4 and E5 (Lemma 1 and §V): accuracy of the distributed
//! approximate median finder and its round complexity.
//!
//! Run with `cargo run --release -p dsg-bench --bin exp_amf`.

use dsg::{AmfMedian, MedianFinder, Priority};
use dsg_bench::{f2, format_table};

fn rank_error(values: &[Priority], median: Priority) -> usize {
    let below = values.iter().filter(|v| **v < median).count();
    let equal = values.iter().filter(|v| **v == median).count();
    let n = values.len();
    let target = n / 2;
    if target < below {
        below - target
    } else if target > below + equal.saturating_sub(1) {
        target - (below + equal - 1)
    } else {
        0
    }
}

fn main() {
    println!("E4/E5 — AMF rank accuracy (Lemma 1) and round complexity (§V)\n");
    let trials = 50usize;
    let mut rows = Vec::new();
    for &a in &[2usize, 3, 4, 8] {
        for &n in &[64usize, 256, 1024, 4096] {
            let mut worst_error = 0usize;
            let mut violations = 0usize;
            let mut total_rounds = 0usize;
            let mut total_height = 0usize;
            for trial in 0..trials {
                let values: Vec<Priority> = (0..n as i64)
                    .map(|v| Priority::finite(((v * 2654435761 + trial as i64) % 1_000_003) as i128))
                    .collect();
                let mut finder = AmfMedian::new((a * n + trial) as u64);
                let outcome = finder.find_median(&values, a);
                let err = rank_error(&values, outcome.median);
                worst_error = worst_error.max(err);
                if err > n / (2 * a) {
                    violations += 1;
                }
                total_rounds += outcome.rounds;
                total_height += outcome.skip_list_height;
            }
            let bound = n / (2 * a);
            rows.push(vec![
                a.to_string(),
                n.to_string(),
                worst_error.to_string(),
                bound.to_string(),
                violations.to_string(),
                f2(total_rounds as f64 / trials as f64),
                f2(total_rounds as f64 / trials as f64 / (n as f64).log2()),
                f2(total_height as f64 / trials as f64),
            ]);
        }
    }
    println!(
        "{}",
        format_table(
            &[
                "a",
                "n",
                "worst rank err",
                "n/2a bound",
                "violations",
                "avg rounds",
                "rounds/log2(n)",
                "avg height"
            ],
            &rows
        )
    );
    println!(
        "Expected shape (Lemma 1 / §V): worst rank error ≤ n/2a with no violations,\n\
         and rounds/log2(n) roughly constant per a (expected O(log n) rounds)."
    );
}
