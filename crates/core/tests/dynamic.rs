//! Batch-dynamic update tests: correctness against the sequential oracle,
//! and edit marks that name exactly the nodes a batch edited.

use dtc_core::gen::{self, XorShift64};
use dtc_core::{DynForest, EditError, ExprEval, ExprLabel, Forest, NodeId, QueryError, SubtreeSum};

fn assert_matches_oracle(d: &DynForest<SubtreeSum>, context: &str) {
    let oracle = d.forest().sequential_fold(&SubtreeSum);
    for v in d.forest().node_ids() {
        assert_eq!(
            d.try_subtree_value(v),
            Ok(oracle[v.index()]),
            "{context}: mismatch at {v}"
        );
    }
}

#[test]
fn initial_contraction_matches_static() {
    let f = gen::random_tree(5_000, 21);
    let stat = f.contraction().run(&SubtreeSum);
    let d = DynForest::new(f, SubtreeSum);
    for v in d.forest().node_ids() {
        assert_eq!(d.try_subtree_value(v), Ok(*stat.subtree_value(v)));
    }
}

#[test]
fn fuzz_cut_link_update_against_oracle() {
    let mut rng = XorShift64::new(0xFEED_F00D);
    let n = 400u64;
    let mut d = DynForest::new(gen::random_tree(n as usize, 33), SubtreeSum);

    for step in 0..120 {
        let v = NodeId::from_index(rng.below(n) as usize);
        match rng.below(3) {
            0 => {
                // Cut, unless v is already a root.
                if !d.forest().is_root(v) {
                    d.try_batch_cut(&[v]).unwrap();
                }
            }
            1 => {
                // Link some root under a node outside its subtree.
                let root = d.forest().root_of(v);
                let target = NodeId::from_index(rng.below(n) as usize);
                if d.forest().root_of(target) != root {
                    d.try_batch_link(&[(root, target)]).unwrap();
                }
            }
            _ => {
                let w = rng.weight();
                d.batch_update_weights(&[(v, w)]).unwrap();
            }
        }
        let stats = d.recompute();
        assert!(stats.dirty <= stats.total);
        assert_matches_oracle(&d, &format!("fuzz step {step}"));
    }
}

#[test]
fn batch_of_mixed_ops_in_one_recompute() {
    let mut rng = XorShift64::new(77);
    let n = 2_000usize;
    let mut d = DynForest::new(gen::random_tree(n, 5), SubtreeSum);

    let mut cuts = Vec::new();
    let mut updates = Vec::new();
    for i in 0..200 {
        let v = NodeId::from_index(1 + rng.below((n - 1) as u64) as usize);
        if i % 2 == 0 && !d.forest().is_root(v) && !cuts.contains(&v) {
            cuts.push(v);
        } else {
            updates.push((v, i as i64));
        }
    }
    d.try_batch_cut(&cuts).unwrap();
    d.batch_update_weights(&updates).unwrap();
    let stats = d.recompute();
    assert!(stats.dirty > 0 && stats.dirty < stats.total);
    assert_matches_oracle(&d, "mixed batch");
}

#[test]
fn thousand_edge_cut_link_round_trip_is_incremental() {
    let n = 100_000usize;
    let forest = gen::random_tree(n, 1234);
    let original = forest.contraction().run(&SubtreeSum);
    let mut d = DynForest::new(forest, SubtreeSum);

    // Pick 1k distinct non-root nodes and remember their parents.
    let mut rng = XorShift64::new(0xC0FFEE);
    let mut cuts: Vec<NodeId> = Vec::new();
    let mut seen = vec![false; n];
    while cuts.len() < 1_000 {
        let v = NodeId::from_index(1 + rng.below((n - 1) as u64) as usize);
        if !seen[v.index()] {
            seen[v.index()] = true;
            cuts.push(v);
        }
    }
    let parents: Vec<NodeId> = cuts
        .iter()
        .map(|&v| d.forest().parent(v).expect("non-root"))
        .collect();

    d.try_batch_cut(&cuts).unwrap();
    assert_eq!(d.pending(), cuts.len(), "a cut marks just the moved node");
    let stats = d.recompute();
    assert_eq!(stats.dirty, cuts.len());
    assert!(
        stats.reused_slots > 0 && stats.replayed_slots < stats.total / 4,
        "a cut batch re-contracts only what it disturbs: {stats}"
    );
    assert_eq!(d.forest().roots().count(), 1 + cuts.len());
    assert_matches_oracle(&d, "after 1k cuts");

    // Link everything back; the structure (and therefore every subtree
    // value) must return to the original contraction.
    let links: Vec<(NodeId, NodeId)> = cuts.iter().copied().zip(parents).collect();
    d.try_batch_link(&links).unwrap();
    assert_eq!(d.pending(), cuts.len(), "a link marks just the moved node");
    let stats = d.recompute();
    assert_eq!(stats.dirty, cuts.len());
    assert!(stats.reused_slots > 0, "a link batch reuses slots: {stats}");
    assert_eq!(d.forest().roots().count(), 1);
    for v in d.forest().node_ids() {
        assert_eq!(d.try_subtree_value(v), Ok(*original.subtree_value(v)));
    }
}

#[test]
fn weight_update_batch_is_incremental() {
    let n = 100_000usize;
    let mut d = DynForest::new(gen::random_tree(n, 99), SubtreeSum);
    let updates: Vec<(NodeId, i64)> = (0..500)
        .map(|i| (NodeId::from_index(i * 199 + 1), i as i64))
        .collect();
    d.batch_update_weights(&updates).unwrap();
    let stats = d.recompute();
    assert!(stats.dirty > 0 && stats.dirty < stats.total);
    assert_matches_oracle(&d, "weight updates");
}

#[test]
fn expression_leaf_updates() {
    let f = gen::random_expr(5_000, 64);
    let leaves: Vec<NodeId> = f
        .node_ids()
        .filter(|&v| matches!(f.label(v), ExprLabel::Leaf(_)))
        .collect();
    let mut d = DynForest::new(f, ExprEval);

    let updates: Vec<(NodeId, ExprLabel)> = leaves
        .iter()
        .step_by(17)
        .enumerate()
        .map(|(i, &v)| (v, ExprLabel::Leaf((i % 5) as i64 - 2)))
        .collect();
    d.batch_update_weights(&updates).unwrap();
    let stats = d.recompute();
    assert!(stats.dirty < stats.total);

    let oracle = d.forest().sequential_fold(&ExprEval);
    for v in d.forest().node_ids() {
        assert_eq!(d.try_subtree_value(v), Ok(oracle[v.index()]), "expr at {v}");
    }
}

#[test]
fn star_cut_batch_under_high_degree_node() {
    // Cutting many children of one very high-degree node: a cut only
    // flips a parent pointer, so the batch stays linear in its size.
    let n = 100_000usize;
    let f = gen::star(n, 12);
    let mut d = DynForest::new(f, SubtreeSum);
    let root = d.forest().root_of(NodeId::from_index(1));
    let cuts: Vec<NodeId> = (1..=20_000).map(NodeId::from_index).collect();
    d.try_batch_cut(&cuts).unwrap();
    let stats = d.recompute();
    assert!(stats.dirty < stats.total);
    assert_matches_oracle(&d, "star cuts");
    // And link a few back.
    d.try_batch_link(&cuts[..100].iter().map(|&v| (v, root)).collect::<Vec<_>>())
        .unwrap();
    d.recompute();
    assert_matches_oracle(&d, "star relink");
}

#[test]
fn noop_recompute_is_free() {
    let mut d = DynForest::new(gen::random_tree(1_000, 3), SubtreeSum);
    let stats = d.recompute();
    assert_eq!(stats.dirty, 0);
    assert_eq!(stats.rounds, 0);
}

#[test]
fn reading_a_dirty_node_is_stale() {
    let mut f = Forest::new();
    let r = f.add_root(1i64);
    let mut d = DynForest::new(f, SubtreeSum);
    d.batch_update_weights(&[(r, 2)]).unwrap();
    assert_eq!(d.try_subtree_value(r), Err(QueryError::Stale { node: r }));
    d.recompute();
    assert_eq!(d.try_subtree_value(r), Ok(2));
}

#[test]
fn linking_under_own_subtree_is_rejected() {
    let mut f = Forest::new();
    let r = f.add_root(1i64);
    let a = f.add_child(r, 2);
    let mut d = DynForest::new(f, SubtreeSum);
    d.try_batch_cut(&[a]).unwrap();
    d.recompute();
    // `a` is now a root; linking it under its own subtree (itself) would
    // make a cycle.
    assert_eq!(
        d.try_batch_link(&[(a, a)]),
        Err(EditError::WouldCycle {
            child: a,
            parent: a
        })
    );
    assert_eq!(d.pending(), 0, "a rejected link marks nothing");
    assert_eq!(d.try_subtree_value(a), Ok(2));
}
