//! Differential tests for change propagation: the trace-replay path must
//! produce exactly the values of a fresh contraction under the same seed
//! (and of the sequential oracle) over long random edit scripts, across
//! the whole shape zoo, for invertible and non-invertible algebras alike.

use dtc_core::gen::{self, ChurnOp, XorShift64};
use dtc_core::{
    DynForest, ExprEval, ExprLabel, Forest, MinMax, NodeId, OrderedRake, Propagate, SeqHash,
    SubtreeSum,
};

/// Every shape the propagator has to survive, including the adversarial
/// depth (path, broom handle) and degree (star, broom head) extremes.
fn shape_zoo(n: usize, seed: u64) -> Vec<(String, Forest<i64>)> {
    vec![
        (format!("random_tree({n})"), gen::random_tree(n, seed)),
        (format!("path({n})"), gen::path(n, seed)),
        (format!("star({n})"), gen::star(n, seed)),
        (
            format!("caterpillar({},4)", n / 5),
            gen::caterpillar(n / 5, 4, seed),
        ),
        (format!("binary_tree({n})"), gen::binary_tree(n, seed)),
        (
            format!("broom({},{})", n / 2, n / 2),
            gen::broom(n / 2, n / 2, seed),
        ),
        (
            format!("random_forest({n},7)"),
            gen::random_forest(n, 7, seed),
        ),
    ]
}

/// Asserts that every maintained value of `d` equals both a fresh
/// contraction of its forest under the same seed and the sequential fold.
fn assert_matches_fresh<A>(name: &str, d: &DynForest<A>, alg: &A, seed: u64)
where
    A: Propagate,
    A::Val: std::fmt::Debug,
{
    let fresh = d.forest().contraction().seed(seed).run(alg);
    let oracle = d.forest().sequential_fold(alg);
    for v in d.forest().node_ids() {
        let got = d.try_subtree_value(v).unwrap();
        assert_eq!(
            &got,
            fresh.subtree_value(v),
            "{name}: fresh mismatch at {v}"
        );
        assert_eq!(got, oracle[v.index()], "{name}: oracle mismatch at {v}");
    }
}

/// Applies a random label-edit script, checking the propagated values
/// against a fresh contraction and the oracle after every batch.
fn diff_label_script<A>(name: &str, forest: Forest<A::Label>, alg: A, edits: usize, seed: u64)
where
    A: Propagate<Label = i64>,
    A::Val: std::fmt::Debug,
{
    let n = forest.len();
    let mut rng = XorShift64::new(seed);
    let mut d = DynForest::with_seed(forest, alg.clone(), 0xFA57);

    let mut done = 0usize;
    while done < edits {
        let batch_len = 1 + rng.below(16) as usize;
        let updates: Vec<(NodeId, i64)> = (0..batch_len.min(edits - done))
            .map(|_| {
                (
                    NodeId::from_index(rng.below(n as u64) as usize),
                    rng.weight(),
                )
            })
            .collect();
        done += updates.len();
        d.batch_update_weights(&updates).unwrap();
        let stats = d.recompute();
        assert_eq!(
            stats.replayed_slots + stats.reused_slots,
            stats.total,
            "{name}: replay stats must partition the trace"
        );
        assert_matches_fresh(name, &d, &alg, 0xFA57);
    }
}

#[test]
fn propagation_matches_fresh_contraction_across_shape_zoo() {
    for (name, f) in shape_zoo(600, 0xD1FF) {
        diff_label_script(&name, f, SubtreeSum, 120, 0x5C41A7);
    }
}

#[test]
fn propagation_matches_fresh_contraction_for_noninvertible_minmax() {
    for (name, f) in shape_zoo(400, 0x3A11) {
        diff_label_script(&name, f, MinMax, 80, 0xBEEF);
    }
}

#[test]
fn propagation_matches_fresh_contraction_for_expressions() {
    let f = gen::random_expr(2_000, 9);
    let leaves: Vec<NodeId> = f
        .node_ids()
        .filter(|&v| matches!(f.label(v), ExprLabel::Leaf(_)))
        .collect();
    let mut d = DynForest::with_seed(f, ExprEval, 0xE4);

    let mut rng = XorShift64::new(0xAB);
    for i in 0..40 {
        let updates: Vec<(NodeId, ExprLabel)> = (0..1 + rng.below(8))
            .map(|_| {
                let v = leaves[rng.below(leaves.len() as u64) as usize];
                (v, ExprLabel::Leaf(rng.below(7) as i64 - 3))
            })
            .collect();
        d.batch_update_weights(&updates).unwrap();
        d.recompute();
        assert_matches_fresh(&format!("expr batch {i}"), &d, &ExprEval, 0xE4);
    }
}

/// One label batch of distinct nodes, applied as given to one clone and
/// reversed to another, four times over: both must report the same stats
/// and values. A round's slots drain in the order they were scheduled, so
/// the input order reaches the drain, and no result may depend on it.
#[test]
fn label_batch_order_does_not_change_the_result() {
    fn both_orders<A>(name: &str, forest: Forest<i64>, alg: A)
    where
        A: Propagate<Label = i64>,
        A::Val: std::fmt::Debug,
        A::Part: PartialEq,
    {
        let n = forest.len();
        let mut a = DynForest::with_seed(forest, alg.clone(), 0x0DE5);
        let mut b = a.clone();
        let mut rng = XorShift64::new(0x0DE6);
        for batch in 0..4 {
            let (mut updates, mut seen) = (Vec::new(), vec![false; n]);
            while updates.len() < n / 8 {
                let v = rng.below(n as u64) as usize;
                if !std::mem::replace(&mut seen[v], true) {
                    updates.push((NodeId::from_index(v), rng.weight()));
                }
            }
            a.batch_update_weights(&updates).unwrap();
            updates.reverse();
            b.batch_update_weights(&updates).unwrap();
            assert_eq!(a.recompute(), b.recompute(), "{name}: batch {batch}");
            for v in a.forest().node_ids() {
                assert_eq!(
                    a.try_subtree_value(v).unwrap(),
                    b.try_subtree_value(v).unwrap(),
                    "{name}: batch {batch}, {v}"
                );
            }
            #[cfg(feature = "check")]
            for d in [&a, &b] {
                d.validate_trace().unwrap();
            }
        }
        assert_matches_fresh(name, &a, &alg, 0x0DE5);
    }
    for (name, f) in [
        ("random_tree(2000)", gen::random_tree(2_000, 0x0DE7)),
        ("broom(1000,1000)", gen::broom(1_000, 1_000, 0x0DE7)),
    ] {
        both_orders(&format!("SubtreeSum, {name}"), f.clone(), SubtreeSum);
        both_orders(&format!("MinMax, {name}"), f.clone(), MinMax);
        both_orders(&format!("OrderedRake, {name}"), f, OrderedRake(SeqHash));
    }
}

/// Churn scripts interleave structural edits (whose recompute re-decides
/// the disturbed nodes and patches the trace) with label edits (which
/// propagate over the patched trace); values must stay exact through every
/// transition.
#[test]
fn propagation_survives_structural_churn_and_reanchors() {
    let (f, script) = gen::churn(500, 200, 0xC08A);
    let mut d = DynForest::with_seed(f, SubtreeSum, 0x11);
    for (i, chunk) in script.chunks(8).enumerate() {
        for &op in chunk {
            let edited = match op {
                ChurnOp::Cut(v) => d.try_batch_cut(&[v]),
                ChurnOp::Link { child, parent } => d.try_batch_link(&[(child, parent)]),
                ChurnOp::Weight(v, w) => d.batch_update_weights(&[(v, w)]),
            };
            edited.unwrap();
        }
        d.recompute();
        assert_matches_fresh(&format!("churn chunk {i}"), &d, &SubtreeSum, 0x11);
    }
    // A one-node structural batch replays few slots; the label batch after
    // it propagates over the patched trace.
    let v = NodeId::from_index(3);
    if d.forest().is_root(v) {
        let target = d
            .forest()
            .node_ids()
            .find(|&u| d.forest().root_of(u) != v)
            .unwrap();
        d.try_batch_link(&[(v, target)]).unwrap();
    } else {
        d.try_batch_cut(&[v]).unwrap();
    }
    let stats = d.recompute();
    assert!(
        stats.reused_slots > 0 && stats.replayed_slots < stats.total,
        "a structural batch reuses slots: {stats}"
    );
    assert_matches_fresh("after one move", &d, &SubtreeSum, 0x11);
    d.batch_update_weights(&[(v, -7)]).unwrap();
    let stats = d.recompute();
    assert!(
        stats.replayed_slots < stats.total,
        "label batches after a structural batch propagate incrementally"
    );
    assert_matches_fresh("after churn", &d, &SubtreeSum, 0x11);
}

/// The whole point of the accumulator caches: a small edit batch must not
/// replay the world, even on the depth/degree-adversarial shapes where
/// the dirty-path baseline degenerates to O(n).
#[test]
fn small_batches_replay_few_slots_on_adversarial_shapes() {
    let n = 50_000usize;
    for (name, f) in [
        ("path", gen::path(n, 5)),
        ("star", gen::star(n, 5)),
        ("random", gen::random_tree(n, 5)),
        ("broom", gen::broom(n / 2, n / 2, 5)),
    ] {
        let mut d = DynForest::with_seed(f, SubtreeSum, 0x909);
        d.batch_update_weights(&[(NodeId::from_index(n - 1), 42)])
            .unwrap();
        let stats = d.recompute();
        assert!(
            stats.replayed_slots * 10 < stats.total,
            "{name}: single edit replayed {} of {} slots",
            stats.replayed_slots,
            stats.total
        );
    }
}

/// Cutoff: a replayed slot that reproduces its recorded contribution
/// stops the wave. An identity edit still climbs its compress chain (one
/// survivor hop per trace round, O(log n) of them) but must cut off at
/// the first rake instead of replaying the whole path to the root.
#[test]
fn minmax_cutoff_stops_the_wave() {
    let n = 20_000usize;
    let f = gen::path(n, 7);
    let mid_weight = *f.label(NodeId::from_index(n / 2));
    let mut d = DynForest::with_seed(f, MinMax, 0x7777);
    d.batch_update_weights(&[(NodeId::from_index(n / 2), mid_weight)])
        .unwrap();
    let stats = d.recompute();
    assert!(
        stats.replayed_slots <= 64,
        "identity edit replayed {} slots (expected O(log n))",
        stats.replayed_slots
    );
    let oracle = d.forest().sequential_fold(&MinMax);
    for v in d.forest().node_ids() {
        assert_eq!(d.try_subtree_value(v).unwrap(), oracle[v.index()]);
    }
}

/// Trace identity with a fresh contraction, checked by the crate's own
/// validator up to 10⁵ nodes (`check` feature).
#[cfg(feature = "check")]
#[test]
fn validator_confirms_value_identity_at_100k() {
    let n = 100_000usize;
    let mut d = DynForest::with_seed(gen::random_tree(n, 0x51DE), SubtreeSum, 0xF00);
    d.validate().unwrap();
    d.validate_trace().unwrap();
    let mut rng = XorShift64::new(0xFACE);
    for _ in 0..5 {
        let updates: Vec<(NodeId, i64)> = (0..200)
            .map(|_| {
                (
                    NodeId::from_index(rng.below(n as u64) as usize),
                    rng.weight(),
                )
            })
            .collect();
        d.batch_update_weights(&updates).unwrap();
        d.recompute();
        d.validate().unwrap();
        d.validate_trace().unwrap();
    }
}

/// A cut and a relink in one recompute that move the top of a splice
/// chain, and with it the sibling slot of the raked node at the chain's
/// end, under a parent whose child list and raked children stay the same:
/// the parent's sibling tree must be laid out again from the new slots.
/// Shrunk by the script fuzzer from a `MinMax` failure.
#[test]
fn minmax_relink_that_moves_a_raked_slot() {
    const S: u64 = 0x5eca_73a6_96b6_4d55;
    let mut d = DynForest::with_seed(gen::caterpillar(41, 2, S), MinMax, S);
    let (n2, n9) = (NodeId::from_index(2), NodeId::from_index(9));
    d.try_batch_cut(&[n9]).unwrap();
    d.try_batch_link(&[(n9, n2)]).unwrap();
    d.recompute();
    assert_matches_fresh("caterpillar(41,2): cut n9, link under n2", &d, &MinMax, S);
}

/// Two raked chains that swap places under one parent in one recompute:
/// `y` and `w` stay raked into `p` and `p`'s child list stays the same, but
/// their chain tops trade places, so both raked slots move and `p` must be
/// laid out again. Equal chain labels cut both contributions off, so a stale
/// layout shows under `MinMax` only after the relabel, and under the
/// ordered algebra right after the swap.
#[test]
fn raked_chains_that_swap_under_one_parent() {
    fn swap<A: Propagate<Label = i64>>(name: &str, alg: A)
    where
        A::Val: std::fmt::Debug,
    {
        let mut f = Forest::new();
        let (p, y, w) = (f.add_root(0), f.add_root(5), f.add_root(7));
        let (c1, c2) = (f.add_child(p, 3), f.add_child(p, 3));
        let ya = f.add_child(y, 11);
        f.add_child(w, 900);
        let mut d = DynForest::with_seed(f, alg.clone(), 7);
        d.try_batch_link(&[(y, c1), (w, c2)]).unwrap();
        d.recompute();
        assert_matches_fresh(&format!("{name}: link y, w"), &d, &alg, 7);
        d.try_batch_cut(&[y, w]).unwrap();
        d.try_batch_link(&[(y, c2), (w, c1)]).unwrap();
        d.recompute();
        assert_matches_fresh(&format!("{name}: swap y, w"), &d, &alg, 7);
        d.batch_update_weights(&[(ya, 12)]).unwrap();
        d.recompute();
        assert_matches_fresh(&format!("{name}: relabel ya"), &d, &alg, 7);
    }
    swap("MinMax", MinMax);
    swap("OrderedRake", OrderedRake(SeqHash));
}
