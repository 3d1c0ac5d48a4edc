//! Two runs with one seed report identical counts; another seed gives
//! another trace.

use std::path::{Path, PathBuf};

use dsg_perfbench::report::Metric;
use dsg_perfbench::workload::{Kind, Plan, RECOVERY_POINTS};
use dsg_perfbench::{run_traced, run_untraced, summarize, summary, OUT_DIR};

/// A small plan of each workload, quick enough for a debug build.
fn small(kind: Kind, seed: u64) -> Plan {
    let chunk = kind.chunk();
    Plan {
        kind,
        seed,
        peers: 128,
        warmup: 8 * chunk,
        timed: 40 * chunk,
        setups: 2,
        recoveries: 2,
    }
}

fn out_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(OUT_DIR)
        .join(format!("test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the test output directory");
    dir
}

/// The metrics that are counts (or ratios of counts), not times.
fn counts(metrics: &[Metric]) -> Vec<(&'static str, f64)> {
    const TIMED: [&str; 6] = ["s", "us", "ms", "1/s", "MiB", "ratio"];
    const COUNT_RATIOS: [&str; 4] = [
        "policy.admit_frac",
        "dummy.reused_frac",
        "served_frac",
        "store_mb",
    ];
    metrics
        .iter()
        .filter(|m| !TIMED.contains(&m.unit) || COUNT_RATIOS.contains(&m.name))
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn one_seed_repeats_every_count() {
    for kind in Kind::ALL {
        let plan = small(kind, 7);
        let dir = out_dir(kind.name());
        let exe = Path::new(env!("CARGO_BIN_EXE_perfbench"));
        let first = run_untraced(&plan, &dir, exe).expect("first untraced run");
        let second = run_untraced(&plan, &dir, exe).expect("second untraced run");
        assert!(first.correct, "{}: {:?}", kind.name(), first.errors);
        assert_eq!(first.failed, 0);
        let e2e = counts(&first.metrics);
        assert!(e2e.iter().any(|(name, _)| *name == "routing_hops_mean"));
        assert!(e2e.iter().any(|(name, _)| *name == "store_mb"));
        assert_eq!(e2e, counts(&second.metrics), "{}", kind.name());

        let traced = run_traced(&plan, &dir).expect("first traced run");
        let again = run_traced(&plan, &dir).expect("second traced run");
        assert!(traced.correct, "{}: {:?}", kind.name(), traced.errors);
        let layers = counts(&traced.metrics);
        assert!(layers.len() >= 20, "{}: {layers:?}", kind.name());
        assert_eq!(layers, counts(&again.metrics), "{}", kind.name());
        std::fs::remove_dir_all(&dir).expect("remove the test output directory");
    }
}

#[test]
fn another_seed_gives_another_trace() {
    for kind in Kind::ALL {
        assert_eq!(small(kind, 7).trace(), small(kind, 7).trace());
        assert_ne!(small(kind, 7).trace(), small(kind, 8).trace());
    }
}

#[test]
fn recovery_points_follow_checkpoints_through_the_timed_region() {
    for kind in [Kind::ColdDurable, Kind::HotDurable] {
        let plan = Plan::new(kind, 1, 20);
        let points = plan.recovery_points();
        assert_eq!(points.len(), RECOVERY_POINTS, "{}", kind.name());
        assert!(points[0] > plan.warmup + plan.timed / RECOVERY_POINTS / 2);
        assert!(points.windows(2).all(|pair| pair[0] < pair[1]));
        assert!(points.iter().all(|point| point % 32 == 1));
        assert_eq!(points.last(), Some(&plan.total()));
    }
    assert!(Plan::new(Kind::RackBatch, 1, 20)
        .recovery_points()
        .is_empty());
}

#[test]
fn the_span_file_round_trips_through_the_summary() {
    let plan = small(Kind::HotDurable, 3);
    let dir = out_dir("roundtrip");
    let outcome = run_traced(&plan, &dir).expect("traced run");
    let file = outcome.span_file.expect("a traced run writes a span file");
    let (meta, spans) = summary::read(&file).expect("read the span file");
    let copy = dir.join("copy.tsv");
    summary::write(&copy, &meta, &spans).expect("write the copy");
    assert_eq!(summary::read(&copy).expect("read the copy"), (meta, spans));
    assert_eq!(summarize(&copy).expect("summarize"), outcome.metrics);
    assert_eq!(outcome.metrics.len(), summary::PER_LAYER.len());
    std::fs::remove_dir_all(&dir).expect("remove the test output directory");
}
