//! Contraction and batch-dynamic update benchmarks, broken down by tree
//! shape so depth/degree sensitivity is visible in the numbers.
//!
//! Shapes (all ~100k nodes): `random` (O(log n) depth), `path` (worst-case
//! depth), `star` (worst-case degree), `caterpillar` (deep spine + legs),
//! `binary` (balanced), `broom` (deep handle into a high-degree head).
//! Each shape is exercised by a full contraction, a 1k batch of cuts, a 1k
//! batch of weight updates (driven by change propagation — its records
//! carry `replayed_slots`/`reused_slots`), and a 1k-query batch four ways:
//! static, dynamic after a label batch, dynamic after a structural batch,
//! and as individual walks. A churn bench interleaves
//! structural and label edits to price the structure phase, which
//! re-contracts only what each batch disturbs. The batch records run
//! `SubtreeSum`, whose propagation patches flat child aggregates; the
//! `_minmax` batch records repeat the star and broom under `MinMax`, which
//! is not invertible, so propagation and the slot renumbering go through
//! the sibling trees instead.
//!
//! Run with `cargo bench -p dtc-bench`, or `cargo bench -p dtc-bench --
//! --test` for the CI smoke mode (each bench executes once). Add
//! `--json BENCH_contract.json` to emit the machine-readable perf record —
//! timing percentiles plus per-round engine counters from a profiled run —
//! that seeds the repo's perf trajectory.

use dtc_bench::{Harness, Json};
use dtc_core::gen;
use dtc_core::gen::ChurnOp;
use dtc_core::obs::{Phase, Profile};
use dtc_core::{
    Answer, Contraction, DynForest, Forest, MinMax, NodeId, Propagate, QueryBatch, SubtreeSum,
    UpdateStats,
};
use std::cell::RefCell;

/// A named lazy forest generator.
type Shape = (&'static str, Box<dyn Fn() -> Forest<i64>>);

/// The shape generators of the breakdown matrix.
fn shapes() -> Vec<Shape> {
    vec![
        (
            "random_100k",
            Box::new(|| gen::random_tree(100_000, 42)) as _,
        ),
        ("path_100k", Box::new(|| gen::path(100_000, 42)) as _),
        ("star_100k", Box::new(|| gen::star(100_000, 42)) as _),
        (
            "caterpillar_100k",
            Box::new(|| gen::caterpillar(20_000, 4, 42)) as _,
        ),
        (
            "binary_100k",
            Box::new(|| gen::binary_tree(100_000, 42)) as _,
        ),
        (
            "broom_100k",
            Box::new(|| gen::broom(50_000, 50_000, 42)) as _,
        ),
    ]
}

fn main() {
    // The per-round invariant sweep and conflict detector behind `check`
    // turn every contraction into a validation run; any number recorded
    // with them on is incomparable with the BENCH_*.json trajectory.
    if dtc_core::check::enabled() {
        eprintln!(
            "dtc-bench: dtc-core was built with the `check` feature; \
             refusing to record benchmark numbers from an instrumented engine"
        );
        std::process::exit(2);
    }

    let h = Harness::from_env();
    h.meta("check", Json::Bool(dtc_core::check::enabled()));

    bench_contract(&h, "contract/random_10k", &|| gen::random_tree(10_000, 42));
    for (shape, make) in shapes() {
        bench_contract(&h, &format!("contract/{shape}"), make.as_ref());
    }

    for (shape, make) in shapes() {
        bench_batches(&h, shape, "", make(), SubtreeSum);
        if matches!(shape, "star_100k" | "broom_100k") {
            bench_batches(&h, shape, "_minmax", make(), MinMax);
        }
    }

    // Churn: interleaved cut/link/weight batches against a ~100k random
    // tree, pricing structural edits end to end (every chunk holding a cut
    // or link runs a structure phase over the nodes it disturbs before
    // propagating; label-only chunks only propagate).
    {
        let (f, script) = gen::churn(100_000, 512, 42);
        let base = DynForest::new(f, SubtreeSum);
        let name = "batch_churn_512/random_100k";
        if h.selected(name) {
            h.bench(name, || base.clone(), |d| churn(d, &script));
            h.attach(name, "ops", Json::num(script.len() as u32));
            let mut probe = base.clone();
            probe.enable_profiling();
            let (replayed, reused) = churn(&mut probe, &script);
            let oracle = probe.forest().sequential_fold(&SubtreeSum);
            for v in probe.forest().node_ids() {
                assert_eq!(
                    probe.try_subtree_value(v).unwrap(),
                    oracle[v.index()],
                    "{name}: recomputed value of {v} differs from sequential_fold"
                );
            }
            h.attach(name, "replayed_slots", Json::Num(replayed as f64));
            h.attach(name, "reused_slots", Json::Num(reused as f64));
            attach_profile(&h, name, probe.profile().unwrap());
        }
    }

    // Batch query engine vs 1k individual naive lookups per shape. A batch
    // walks the trace's death-parent chains and nested hop lists, O(rounds)
    // per query plus the hop prefixes its path folds reach, with no index
    // over the forest; the naive baseline pays an O(depth) parent walk per
    // query. Deep shapes (path, caterpillar) are where batching wins by
    // orders of magnitude. `dyn_query_1k` prices the same batch on a
    // `DynForest` after a label batch, and `dyn_query_1k_after_cut` after a
    // structural batch; a `DynForest` batch also ends with one pass over the
    // death records. All sides run the same 1k-query mix (250 each of
    // subtree / path / lca / component-value) and are checked against each
    // other once outside the measured region.
    for (shape, make) in shapes() {
        let f = make();
        let contraction = f.contraction().seed(0x5EED).run(&SubtreeSum);
        let batch = mixed_batch(&f, 1_000);
        assert_eq!(
            contraction
                .query_batch(&f, &SubtreeSum, &batch)
                .map(|answers| naive_checksum_of(&answers)),
            Ok(naive_resolve_all(&f, &contraction, &batch)),
            "batch and naive resolutions must agree on {shape}"
        );

        let name = format!("batch_query_1k/{shape}");
        if h.selected(&name) {
            h.bench(
                &name,
                || (),
                |()| {
                    contraction
                        .query_batch(&f, &SubtreeSum, &batch)
                        .unwrap()
                        .len()
                },
            );
            h.attach(&name, "queries", Json::num(batch.len() as u32));
        }
        let name = format!("individual_query_1k/{shape}");
        if h.selected(&name) {
            h.bench(
                &name,
                || (),
                |()| naive_resolve_all(&f, &contraction, &batch),
            );
            h.attach(&name, "queries", Json::num(batch.len() as u32));
        }
        let name = format!("dyn_query_1k/{shape}");
        if h.selected(&name) {
            let d = DynForest::new(f.clone(), SubtreeSum);
            assert_eq!(
                d.query_batch(&batch),
                contraction.query_batch(&f, &SubtreeSum, &batch),
                "dynamic and static batches must agree on {shape}"
            );
            // Each iteration first lands a 16-update label batch, outside
            // the timed region: the values and the hop prefixes change.
            let relabel: Vec<NodeId> = f.node_ids().step_by(f.len() / 16).take(16).collect();
            let d = RefCell::new(d);
            let mut bump = 0i64;
            h.bench(
                &name,
                || {
                    bump += 1;
                    let updates: Vec<(NodeId, i64)> = relabel.iter().map(|&v| (v, bump)).collect();
                    let mut d = d.borrow_mut();
                    d.batch_update_weights(&updates).unwrap();
                    d.recompute();
                },
                |()| d.borrow().query_batch(&batch).unwrap().len(),
            );
            h.attach(&name, "queries", Json::num(batch.len() as u32));
        }
        let name = format!("dyn_query_1k_after_cut/{shape}");
        if h.selected(&name) {
            // Each iteration first lands a structural batch outside the
            // timed region, as `dtc-e2e`'s mixed workloads do before their
            // query steps: 64 nodes cut and linked back to their old
            // parents, then a recompute.
            let moved: Vec<(NodeId, NodeId)> = f
                .node_ids()
                .filter_map(|v| Some((v, f.parent(v)?)))
                .step_by(f.len() / 64)
                .take(64)
                .collect();
            let cuts: Vec<NodeId> = moved.iter().map(|&(v, _)| v).collect();
            let d = RefCell::new(DynForest::new(f.clone(), SubtreeSum));
            h.bench(
                &name,
                || {
                    let mut d = d.borrow_mut();
                    d.try_batch_cut(&cuts).unwrap();
                    d.try_batch_link(&moved).unwrap();
                    d.recompute();
                },
                |()| d.borrow().query_batch(&batch).unwrap().len(),
            );
            assert_eq!(
                d.borrow().query_batch(&batch),
                contraction.query_batch(&f, &SubtreeSum, &batch),
                "batches after a structural batch must agree on {shape}"
            );
            h.attach(&name, "queries", Json::num(batch.len() as u32));
        }
    }

    h.finish();
}

/// Batches of 1k edits against a ~100k-node `forest` under `alg`: records
/// `batch_cut_1k{suffix}/{shape}` and `batch_update_1k{suffix}/{shape}`.
/// The state is built once and cloned per iteration so only edit +
/// recompute are measured (clone cost is part of setup, which the harness
/// excludes). The state has already run one structural batch
/// ([`settle_structure`]), so the records price a batch on a forest in
/// use, not the one-time set-up of its first. One profiled probe per
/// record, outside the measured region, supplies its report and is checked
/// against `sequential_fold`.
fn bench_batches<A>(h: &Harness, shape: &str, suffix: &str, forest: Forest<i64>, alg: A)
where
    A: Propagate<Label = i64>,
    A::Val: std::fmt::Debug,
{
    let mut base = DynForest::new(forest, alg.clone());
    settle_structure(&mut base);
    let cuts: Vec<NodeId> = base
        .forest()
        .node_ids()
        .filter(|v| !base.forest().is_root(*v))
        .step_by(97)
        .take(1_000)
        .collect();
    let updates: Vec<(NodeId, i64)> = cuts.iter().map(|&v| (v, 1)).collect();
    let run = |kind: &str, edit: &dyn Fn(&mut DynForest<A>)| {
        let name = format!("{kind}{suffix}/{shape}");
        if !h.selected(&name) {
            return;
        }
        h.bench(
            &name,
            || base.clone(),
            |d| {
                edit(d);
                d.recompute()
            },
        );
        let mut probe = base.clone();
        probe.enable_profiling();
        edit(&mut probe);
        let stats = probe.recompute();
        let oracle = probe.forest().sequential_fold(&alg);
        for v in probe.forest().node_ids() {
            assert_eq!(
                probe.try_subtree_value(v).unwrap(),
                oracle[v.index()],
                "{name}: recomputed value of {v} differs from sequential_fold"
            );
        }
        attach_dyn_report(h, &name, &stats, probe.profile().unwrap());
    };
    run("batch_cut_1k", &|d| d.try_batch_cut(&cuts).unwrap());
    run("batch_update_1k", &|d| {
        d.batch_update_weights(&updates).unwrap()
    });
}

/// Cuts one node and links it back in one batch, leaving the shape as it
/// was. A forest's first structural batch builds the per-node child and
/// raked-child lists the structure phase reads, and keeps them; this pays
/// that once.
fn settle_structure<A: Propagate>(d: &mut DynForest<A>) {
    let f = d.forest();
    let Some((v, p)) = f.node_ids().find_map(|v| Some((v, f.parent(v)?))) else {
        return;
    };
    d.try_batch_cut(&[v]).unwrap();
    d.try_batch_link(&[(v, p)]).unwrap();
    d.recompute();
}

/// Applies `script` to `d` in chunks of 16 ops, one recompute per chunk,
/// and returns the trace slots those recomputes replayed and reused.
fn churn(d: &mut DynForest<SubtreeSum>, script: &[ChurnOp]) -> (usize, usize) {
    let (mut replayed, mut reused) = (0, 0);
    for chunk in script.chunks(16) {
        for op in chunk {
            let edited = match *op {
                ChurnOp::Cut(v) => d.try_batch_cut(&[v]),
                ChurnOp::Link { child, parent } => d.try_batch_link(&[(child, parent)]),
                ChurnOp::Weight(v, w) => d.batch_update_weights(&[(v, w)]),
            };
            edited.unwrap();
        }
        let stats = d.recompute();
        replayed += stats.replayed_slots;
        reused += stats.reused_slots;
    }
    (replayed, reused)
}

/// A reproducible 1k-query mix: equal parts subtree, path, LCA, and
/// component-value queries over random nodes.
fn mixed_batch(f: &Forest<i64>, total: usize) -> QueryBatch {
    let n = f.len() as u64;
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        NodeId::from_index((state % n) as usize)
    };
    let mut batch = QueryBatch::with_capacity(total);
    for i in 0..total {
        match i % 4 {
            0 => batch.subtree(next()),
            1 => batch.path(next(), next()),
            2 => batch.lca(next(), next()),
            _ => batch.component_value(next()),
        };
    }
    batch
}

/// The individual-lookup baseline: each query resolved on its own with
/// parent-pointer walks (subtree reads are O(1) against the same
/// contraction either way). Folds every answer into a checksum so the
/// optimizer keeps all the work.
fn naive_resolve_all(f: &Forest<i64>, c: &Contraction<SubtreeSum>, batch: &QueryBatch) -> u64 {
    use dtc_core::Query;
    let mut sum = 0u64;
    for q in batch.queries() {
        match *q {
            Query::Subtree(v) => sum = sum.wrapping_add(*c.subtree_value(v) as u64),
            Query::Path(u, v) => {
                if let Some(total) = f.naive_path_fold(&SubtreeSum, u, v) {
                    sum = sum.wrapping_add(total as u64);
                }
            }
            Query::Lca(u, v) => {
                if let Some(w) = f.naive_lca(u, v) {
                    sum = sum.wrapping_add(w.index() as u64 + 1);
                }
            }
            Query::ComponentRoot(v) => sum = sum.wrapping_add(f.root_of(v).index() as u64 + 1),
            Query::ComponentValue(v) => {
                sum = sum.wrapping_add(*c.subtree_value(f.root_of(v)) as u64)
            }
        }
    }
    sum
}

/// Folds a batch-answer vector with the same checksum scheme as
/// [`naive_resolve_all`], for the cross-check outside the measured region.
fn naive_checksum_of(answers: &[dtc_core::QueryOutcome<SubtreeSum>]) -> u64 {
    let mut sum = 0u64;
    for a in answers {
        match a.as_ref().expect("bench queries are all valid") {
            Answer::Value(v) => sum = sum.wrapping_add(*v as u64),
            Answer::PathValue(p) => sum = sum.wrapping_add(*p as u64),
            Answer::Node(w) => sum = sum.wrapping_add(w.index() as u64 + 1),
            Answer::NotConnected => {}
        }
    }
    sum
}

fn bench_contract(h: &Harness, name: &str, make: &dyn Fn() -> Forest<i64>) {
    if !h.selected(name) {
        return;
    }
    h.bench(name, make, |f| f.contraction().run(&SubtreeSum).rounds());
    // Engine counters come from one profiled run outside the measured
    // region, so the timed numbers above stay unobserved.
    let contraction = make()
        .contraction()
        .seed(0x5EED)
        .profiled()
        .run(&SubtreeSum);
    attach_profile(h, name, contraction.profile().unwrap());
}

/// Attaches counter totals, phase latency percentiles, and the per-round
/// breakdown of `profile` to the benchmark record named `name`.
fn attach_profile(h: &Harness, name: &str, profile: &Profile) {
    let totals = profile.totals();
    h.attach(
        name,
        "counters",
        Json::Obj(vec![
            ("rounds".to_string(), Json::num(totals.rounds)),
            ("rakes".to_string(), Json::Num(totals.rakes as f64)),
            ("splices".to_string(), Json::Num(totals.splices as f64)),
            ("finishes".to_string(), Json::Num(totals.finishes as f64)),
            (
                "coin_rejections".to_string(),
                Json::Num(totals.coin_rejections as f64),
            ),
            (
                "max_frontier".to_string(),
                Json::Num(totals.max_frontier as f64),
            ),
        ]),
    );
    let phases: Vec<(String, Json)> = Phase::ALL
        .iter()
        .filter(|p| profile.phase_stats(**p).spans() > 0)
        .map(|p| {
            let s = profile.phase_stats(*p);
            (
                p.name().to_string(),
                Json::Obj(vec![
                    ("spans".to_string(), Json::Num(s.spans() as f64)),
                    ("total_ns".to_string(), Json::Num(s.total_ns() as f64)),
                    ("p50_ns".to_string(), Json::Num(s.p50_ns() as f64)),
                    ("p99_ns".to_string(), Json::Num(s.p99_ns() as f64)),
                ]),
            )
        })
        .collect();
    h.attach(name, "phases", Json::Obj(phases));
    let per_round: Vec<Json> = profile
        .per_round()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            Json::Obj(vec![
                ("round".to_string(), Json::num((i + 1) as u32)),
                ("frontier".to_string(), Json::Num(r.frontier as f64)),
                ("rakes".to_string(), Json::Num(r.rakes as f64)),
                ("splices".to_string(), Json::Num(r.splices as f64)),
                ("finishes".to_string(), Json::Num(r.finishes as f64)),
                (
                    "coin_rejections".to_string(),
                    Json::Num(r.coin_rejections as f64),
                ),
            ])
        })
        .collect();
    h.attach(name, "per_round", Json::Arr(per_round));
}

/// Like [`attach_profile`], plus the human-readable [`UpdateStats`] line
/// (which records how many nodes the batch edited) and the
/// change-propagation slot counters (schema v2).
fn attach_dyn_report(h: &Harness, name: &str, stats: &UpdateStats, profile: &Profile) {
    h.attach(name, "update_stats", Json::str(stats.to_string()));
    h.attach(
        name,
        "replayed_slots",
        Json::Num(stats.replayed_slots as f64),
    );
    h.attach(name, "reused_slots", Json::Num(stats.reused_slots as f64));
    attach_profile(h, name, profile);
}
