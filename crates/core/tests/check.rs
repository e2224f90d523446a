//! Correctness-tooling tests (`--features check`).
//!
//! With the `check` feature on, every contraction in this file runs the
//! engine's per-round invariant sweep and conflict detector implicitly; the
//! tests then call the structural validators explicitly after each
//! contraction and each `recompute()`, across the standard shape zoo up to
//! 1e5 nodes. The `smoke_`-prefixed tests are deliberately tiny — CI's
//! nightly Miri and thread-sanitizer jobs filter on that prefix to keep
//! interpreter/instrumentation runtimes bounded.
#![cfg(feature = "check")]

use dtc_core::check;
use dtc_core::gen::{self, XorShift64};
use dtc_core::{
    Answer, DynForest, Forest, MinMax, NodeId, PathAlgebra, Propagate, QueryBatch, SubtreeSum,
};

/// The shape zoo shared by the property tests.
fn shapes(n: usize, seed: u64) -> Vec<(&'static str, Forest<i64>)> {
    vec![
        ("random", gen::random_tree(n, seed)),
        ("path", gen::path(n, seed)),
        ("star", gen::star(n, seed)),
        ("caterpillar", gen::caterpillar(n / 2, 2, seed)),
        ("forest", gen::random_forest(n, 1 + n / 50, seed)),
    ]
}

/// Contracts every shape (running the per-round engine hooks) and then
/// validates both the arena and the recorded trace.
fn contract_and_validate(n: usize, seed: u64) {
    for (name, f) in shapes(n, seed) {
        f.validate()
            .unwrap_or_else(|e| panic!("{name}/{n}: forest invalid: {e}"));
        let c = f.contraction().seed(seed).run(&SubtreeSum);
        c.validate(&f)
            .unwrap_or_else(|e| panic!("{name}/{n}: trace invalid: {e}"));
    }
}

#[test]
fn smoke_validators_accept_small_shapes() {
    assert!(check::enabled());
    contract_and_validate(200, 7);
}

#[test]
#[cfg_attr(miri, ignore = "large shapes; the smoke_ tests cover miri")]
fn validators_accept_shapes_up_to_1e5() {
    for n in [1_000, 10_000, 100_000] {
        contract_and_validate(n, 0x5EED ^ n as u64);
    }
}

/// Random edit/recompute churn on a dynamic forest under `alg`, validating
/// the full dynamic layer (edit-mark coherence and the maintained trace
/// against a fresh same-seed contraction) after **every** `recompute()`,
/// with a query batch over the maintained trace first, plus the marks once
/// mid-batch while dirty. Under a non-invertible algebra such as
/// [`MinMax`], each raked node's recorded slot picks its leaf in the
/// parent's sibling tree, and `validate_trace` compares the trees part for
/// part.
fn churn_and_validate<A>(alg: A, n: usize, rounds: usize, seed: u64)
where
    A: Propagate<Label = i64> + PathAlgebra,
    A::Part: PartialEq,
{
    let f = gen::random_tree(n, seed);
    let mut d = DynForest::with_seed(f, alg, seed);
    let ids = [0, n / 3, n / 2, n - 1].map(NodeId::from_index);
    let mut batch = QueryBatch::new();
    batch
        .subtree(ids[1])
        .path(ids[3], ids[1])
        .lca(ids[2], ids[3])
        .component_root(ids[0]);
    let validate = |d: &DynForest<A>, when: &str| {
        // The batch walks the death-parent chains and hop lists that
        // `validate_trace` then compares with a fresh contraction's.
        d.query_batch(&batch)
            .unwrap_or_else(|e| panic!("{when}: query batch refused: {e}"));
        d.validate()
            .and_then(|()| d.validate_trace())
            .unwrap_or_else(|e| panic!("{when}: {e}"));
    };
    validate(&d, "fresh dynamic forest");

    let mut rng = XorShift64::new(seed | 1);
    for round in 0..rounds {
        // A batch of label bumps plus a cut; the cut node is random, so
        // roots get rejected — use the rolled-back try_ form.
        let bumps: Vec<(NodeId, i64)> = (0..4)
            .map(|_| {
                let v = NodeId::from_index((rng.next_u64() % n as u64) as usize);
                (v, (rng.next_u64() % 1_000) as i64)
            })
            .collect();
        d.batch_update_weights(&bumps).unwrap();
        let v = NodeId::from_index((rng.next_u64() % n as u64) as usize);
        let was_root = d.forest().is_root(v);
        let cut = d.try_batch_cut(&[v]);
        assert_eq!(cut.is_err(), was_root, "round {round}: cut of {v}");
        d.validate()
            .unwrap_or_else(|e| panic!("round {round}: invalid while dirty: {e}"));

        let stats = d.recompute();
        assert!(stats.dirty > 0, "round {round}: edits marked nothing dirty");
        validate(&d, &format!("round {round}: after recompute"));

        // Link the cut component back somewhere legal and re-validate.
        if cut.is_ok() {
            let mut p = NodeId::from_index((rng.next_u64() % n as u64) as usize);
            if d.forest().root_of(p) == v {
                p = v; // would cycle; linking v under itself is also a cycle
            }
            if p != v {
                d.try_batch_link(&[(v, p)]).unwrap();
                d.recompute();
            }
            validate(&d, &format!("round {round}: after relink"));
        }

        // A label-only batch propagates over the rebuilt trace. New
        // values, so the replayed slots (and compressed chains' refolds)
        // change what the trace records.
        let relabel: Vec<(NodeId, i64)> = bumps.iter().map(|&(v, w)| (v, w + 1)).collect();
        d.batch_update_weights(&relabel).unwrap();
        d.recompute();
        validate(&d, &format!("round {round}: after propagation"));
    }
}

#[test]
fn smoke_dynamic_validates_after_every_recompute() {
    churn_and_validate(SubtreeSum, 120, 6, 0xD1CE);
    churn_and_validate(MinMax, 120, 6, 0xD1CE);
}

#[test]
#[cfg_attr(miri, ignore = "large shapes; the smoke_ tests cover miri")]
fn dynamic_validates_under_heavy_churn() {
    churn_and_validate(SubtreeSum, 5_000, 30, 0xBEEF);
    churn_and_validate(MinMax, 5_000, 30, 0xBEEF);
}

#[test]
#[cfg_attr(miri, ignore = "large shapes; the smoke_ tests cover miri")]
fn query_batch_on_a_validated_trace_matches_the_oracles() {
    // A mixed batch over a trace that passed `validate`, checked against
    // the naive walks and `sequential_fold`.
    let f = gen::random_forest(20_000, 16, 99);
    let c = f.contraction().run(&SubtreeSum);
    c.validate(&f).expect("trace validates");
    let ids: Vec<NodeId> = f.node_ids().collect();
    let mut batch = QueryBatch::new();
    batch
        .subtree(ids[17])
        .path(ids[12_345], ids[1])
        .lca(ids[4_242], ids[17_000])
        .component_root(ids[19_999]);
    let answers = c.query_batch(&f, &SubtreeSum, &batch).expect("batch runs");
    assert_eq!(answers.len(), 4);
    let oracle = f.sequential_fold(&SubtreeSum);
    assert_eq!(answers[0], Ok(Answer::Value(oracle[17])));
    let path = f.naive_path_fold(&SubtreeSum, ids[12_345], ids[1]);
    assert_eq!(
        answers[1],
        Ok(path.map_or(Answer::NotConnected, Answer::PathValue))
    );
    let lca = f.naive_lca(ids[4_242], ids[17_000]);
    assert_eq!(
        answers[2],
        Ok(lca.map_or(Answer::NotConnected, Answer::Node))
    );
    assert_eq!(answers[3], Ok(Answer::Node(f.root_of(ids[19_999]))));
}
