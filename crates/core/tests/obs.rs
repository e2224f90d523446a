//! Telemetry-layer tests: counter conservation, histogram percentile
//! correctness, and profiled-vs-unprofiled result equivalence.

use dtc_core::obs::{LatencyHistogram, Phase, Profile};
use dtc_core::{gen, DynForest, Forest, NodeId, SubtreeSum};

/// Every action retires exactly one node, so across a full contraction
/// `rakes + splices + finishes == n`, and within each round the retirements
/// account exactly for the frontier shrinkage.
fn assert_conservation(f: &Forest<i64>, n: u64) {
    let c = f.contraction().seed(0xAB5EED).profiled().run(&SubtreeSum);
    let prof = c.profile().expect("contract_profiled attaches a profile");
    assert_eq!(prof.runs(), if n == 0 { 0 } else { 1 });
    assert_eq!(prof.totals().retired(), n, "every node dies exactly once");
    assert_eq!(prof.per_round().len(), c.rounds() as usize);

    let rounds = prof.per_round();
    if n > 0 {
        assert_eq!(rounds[0].frontier, n, "round 1 sees every node");
        assert_eq!(prof.totals().max_frontier, n as usize);
    }
    for (i, r) in rounds.iter().enumerate() {
        let next_frontier = rounds.get(i + 1).map_or(0, |next| next.frontier);
        assert_eq!(
            r.frontier - r.retired(),
            next_frontier,
            "round {} retirements must equal frontier shrinkage",
            i + 1
        );
        assert!(r.retired() > 0, "every round must make progress");
        assert!(
            r.coin_rejections <= r.frontier,
            "at most one rejection per live node"
        );
    }
}

#[test]
fn counters_conserve_nodes_across_shapes() {
    assert_conservation(&gen::random_tree(20_000, 9), 20_000);
    assert_conservation(&gen::path(10_000, 9), 10_000);
    assert_conservation(&gen::star(10_000, 9), 10_000);
    assert_conservation(&gen::caterpillar(2_000, 4, 9), 10_000);
    assert_conservation(&gen::random_forest(5_000, 17, 9), 5_000);
    assert_conservation(&Forest::new(), 0);
}

#[test]
fn profiled_contraction_matches_unprofiled() {
    let f = gen::random_tree(10_000, 33);
    let profiled = f.contraction().seed(0x1234).profiled().run(&SubtreeSum);
    let plain = f.contraction().seed(0x1234).run(&SubtreeSum);
    assert_eq!(profiled.values(), plain.values());
    assert_eq!(profiled.components(), plain.components());
    assert_eq!(profiled.rounds(), plain.rounds());
    assert!(
        plain.profile().is_none(),
        "unprofiled run carries no report"
    );
}

#[test]
fn phase_spans_track_rounds() {
    let f = gen::random_tree(5_000, 5);
    let c = f.contraction().seed(0x77).profiled().run(&SubtreeSum);
    let prof = c.profile().unwrap();
    let rounds = c.rounds() as u64;
    assert_eq!(prof.phase_stats(Phase::Plan).spans(), rounds);
    assert_eq!(prof.phase_stats(Phase::Apply).spans(), rounds);
    assert_eq!(prof.phase_stats(Phase::Backsolve).spans(), 1);
    assert_eq!(prof.phase_stats(Phase::DirtyMark).spans(), 0);
    // Spans are real measurements: totals bound the percentiles.
    let plan = prof.phase_stats(Phase::Plan);
    assert!(plan.p50_ns() <= plan.p99_ns());
    assert!(plan.p99_ns() <= plan.histogram().max().max(1));
}

#[test]
fn paths_exercise_splices_and_coin_rejections() {
    let f = gen::path(10_000, 1);
    let c = f.contraction().seed(0x5EED).profiled().run(&SubtreeSum);
    let prof = c.profile().unwrap();
    assert!(prof.totals().splices > 0, "a long chain must compress");
    assert!(
        prof.totals().coin_rejections > 0,
        "randomized compress must reject some candidates"
    );
    // A star never splices: the root is never unary until the very end.
    let star = gen::star(10_000, 1)
        .contraction()
        .seed(0x5EED)
        .profiled()
        .run(&SubtreeSum);
    assert_eq!(star.profile().unwrap().totals().splices, 0);
}

#[test]
fn dynamic_counters_match_dirty_set_per_recompute() {
    let mut d = DynForest::new(gen::random_tree(10_000, 3), SubtreeSum);
    assert!(d.profile().is_none());
    d.enable_profiling();
    assert!(d.profile().is_some());

    // Label-only batches recompute by trace propagation: no engine run,
    // so the counters retire nothing; `UpdateStats` reports the slots.
    for batch in 0..5u64 {
        let updates: Vec<(NodeId, i64)> = d
            .forest()
            .node_ids()
            .step_by(101 + batch as usize)
            .take(50)
            .map(|v| (v, batch as i64))
            .collect();
        d.batch_update_weights(&updates).unwrap();
        let stats = d.recompute();
        let counters = stats.counters.expect("profiling fills counters");
        assert_eq!(
            counters.retired(),
            0,
            "propagation replays slots, it retires nothing"
        );
        assert_eq!(counters.rounds, stats.rounds);
        assert!(
            stats.replayed_slots >= stats.dirty,
            "every edited slot replays"
        );
        assert_eq!(stats.replayed_slots + stats.reused_slots, stats.total);
    }

    {
        let prof = d.profile().unwrap();
        assert_eq!(prof.runs(), 0, "propagation recomputes without engine runs");
        assert_eq!(
            prof.phase_stats(Phase::DirtyMark).spans(),
            5,
            "one dirty-mark span per batch edit"
        );
        assert_eq!(
            prof.phase_stats(Phase::Propagate).spans(),
            5,
            "one propagate span per recompute"
        );
        assert_eq!(prof.phase_stats(Phase::Backsolve).spans(), 0);
    }

    // A structural batch runs no engine: one structure phase re-decides the
    // nodes the cuts disturbed, round by round, and propagation replays
    // only the slots it changed.
    let n = d.len();
    let cuts: Vec<NodeId> = d
        .forest()
        .node_ids()
        .filter(|&v| !d.forest().is_root(v))
        .step_by(37)
        .take(50)
        .collect();
    d.try_batch_cut(&cuts).unwrap();
    let stats = d.recompute();
    let counters = stats.counters.expect("profiling fills counters");
    assert_eq!(stats.dirty, cuts.len(), "the moved nodes are the edits");
    assert!(
        counters.retired() > 0 && counters.retired() < n as u64,
        "the structure phase re-decides some nodes, not all: {counters}"
    );
    assert_eq!(counters.rounds, stats.rounds);
    assert!(counters.max_frontier >= cuts.len() && counters.max_frontier < n);
    assert!(stats.reused_slots > 0, "a structural batch reuses slots");
    assert_eq!(stats.replayed_slots + stats.reused_slots, n);
    {
        let prof = d.profile().unwrap();
        assert_eq!(
            prof.phase_stats(Phase::Restructure).spans(),
            1,
            "one restructure span per structural recompute"
        );
        assert_eq!(
            prof.phase_stats(Phase::Plan).spans(),
            0,
            "no engine run on a structural recompute"
        );
        assert_eq!(prof.runs(), 1, "the structure phase reports its rounds");
        let rakes: u64 = prof.per_round().iter().map(|r| r.rakes).sum();
        assert_eq!(rakes, counters.rakes, "per-round candidate actions add up");
    }

    // An empty recompute reports zeroed counters, not None.
    let stats = d.recompute();
    assert_eq!(stats.dirty, 0);
    assert_eq!(stats.counters.unwrap().retired(), 0);

    // Detaching the profile disables collection again.
    let prof = d.take_profile().unwrap();
    assert_eq!(prof.runs(), 1);
    assert!(d.profile().is_none());
    d.batch_update_weights(&[(NodeId::from_index(0), 7)])
        .unwrap();
    assert!(d.recompute().counters.is_none());
}

#[test]
fn unprofiled_updates_report_no_counters() {
    let mut d = DynForest::new(gen::random_tree(1_000, 3), SubtreeSum);
    d.batch_update_weights(&[(NodeId::from_index(0), 7)])
        .unwrap();
    let stats = d.recompute();
    assert!(stats.counters.is_none());
    let line = stats.to_string();
    assert!(
        line.contains("of 1000 nodes"),
        "Display names the totals: {line}"
    );
    assert!(
        !line.contains("rakes"),
        "no counters without profiling: {line}"
    );
}

#[test]
fn update_stats_display_includes_counters_when_profiled() {
    let mut d = DynForest::new(gen::random_tree(1_000, 3), SubtreeSum);
    d.enable_profiling();
    d.batch_update_weights(&[(NodeId::from_index(0), 7)])
        .unwrap();
    let line = d.recompute().to_string();
    assert!(
        line.contains("rakes"),
        "profiled Display shows counters: {line}"
    );
    assert!(line.contains("peak frontier"), "{line}");
}

#[test]
fn histogram_percentiles_on_uniform_distribution() {
    let mut h = LatencyHistogram::default();
    for v in 1..=100_000u64 {
        h.record(v);
    }
    assert_eq!(h.count(), 100_000);
    assert_eq!(h.min(), 1);
    assert_eq!(h.max(), 100_000);
    for (q, expected) in [(50.0, 50_000.0), (90.0, 90_000.0), (99.0, 99_000.0)] {
        let got = h.percentile(q) as f64;
        let rel = (got - expected).abs() / expected;
        assert!(
            rel < 0.05,
            "p{q} = {got}, expected ≈ {expected} (rel err {rel:.4})"
        );
    }
    let mean = h.mean() as f64;
    assert!((mean - 50_000.5).abs() / 50_000.5 < 0.01, "mean = {mean}");
}

#[test]
fn histogram_percentiles_on_skewed_distribution() {
    // 999 fast ops at ~1µs, 1 outlier at 1s: p50/p90 must ignore the
    // outlier, p100 must find it.
    let mut h = LatencyHistogram::default();
    for _ in 0..999 {
        h.record(1_000);
    }
    h.record(1_000_000_000);
    let p50 = h.percentile(50.0) as f64;
    assert!((p50 - 1_000.0).abs() / 1_000.0 < 0.05, "p50 = {p50}");
    let p100 = h.percentile(100.0) as f64;
    assert!((p100 - 1e9).abs() / 1e9 < 0.05, "p100 = {p100}");
}

#[test]
fn profile_display_renders_report() {
    let c = gen::random_tree(1_000, 2)
        .contraction()
        .seed(0x5EED)
        .profiled()
        .run(&SubtreeSum);
    let report = c.profile().unwrap().to_string();
    for needle in [
        "profile:",
        "plan",
        "apply",
        "backsolve",
        "frontier",
        "rakes",
    ] {
        assert!(
            report.contains(needle),
            "report missing {needle:?}:\n{report}"
        );
    }
    let mut empty = String::new();
    use std::fmt::Write;
    write!(empty, "{}", Profile::default()).unwrap();
    assert!(empty.contains("0 run(s)"));
}
