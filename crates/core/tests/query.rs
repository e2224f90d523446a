//! Oracle tests for the batch query engine: every query kind must agree
//! with a naive sequential walk of the forest, on every shape, and the
//! non-panicking edit/read APIs must fail cleanly and roll back.

use dtc_core::{
    gen, Answer, DynForest, EditError, ExprEval, Forest, MinMax, NodeId, OrderedRake, PathAlgebra,
    Propagate, Query, QueryBatch, QueryError, SeqHash, SubtreeSum,
};

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn depth<L>(f: &Forest<L>, mut v: NodeId) -> usize {
    let mut d = 0;
    while let Some(p) = f.parent(v) {
        v = p;
        d += 1;
    }
    d
}

/// LCA by the two-pointer depth walk; `None` across components.
fn naive_lca<L>(f: &Forest<L>, mut u: NodeId, mut v: NodeId) -> Option<NodeId> {
    let (mut du, mut dv) = (depth(f, u), depth(f, v));
    while du > dv {
        u = f.parent(u).unwrap();
        du -= 1;
    }
    while dv > du {
        v = f.parent(v).unwrap();
        dv -= 1;
    }
    while u != v {
        match (f.parent(u), f.parent(v)) {
            (Some(pu), Some(pv)) => {
                u = pu;
                v = pv;
            }
            _ => return None,
        }
    }
    Some(u)
}

/// All nodes on the tree path `u..=v` (via the LCA); `None` across
/// components.
fn naive_path_nodes<L>(f: &Forest<L>, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
    let w = naive_lca(f, u, v)?;
    let mut nodes = vec![w];
    let mut x = u;
    while x != w {
        nodes.push(x);
        x = f.parent(x).unwrap();
    }
    let mut x = v;
    while x != w {
        nodes.push(x);
        x = f.parent(x).unwrap();
    }
    Some(nodes)
}

/// Builds a mixed batch of `nq` random queries and checks every answer
/// against the naive oracles.
fn check_queries<A>(name: &str, f: &Forest<A::Label>, alg: &A, nq: usize, seed: u64)
where
    A: PathAlgebra + Sync,
    A::Label: Sync,
    A::Val: Send + Sync + PartialEq + std::fmt::Debug,
    A::PathVal: Send + Sync + PartialEq + std::fmt::Debug,
{
    let c = f.contraction().seed(seed).run(alg);
    let oracle = f.sequential_fold(alg);
    let n = f.len();
    let mut rng = seed | 1;
    let mut batch = QueryBatch::with_capacity(nq);
    for i in 0..nq {
        let u = NodeId::from_index((xorshift(&mut rng) % n as u64) as usize);
        let v = NodeId::from_index((xorshift(&mut rng) % n as u64) as usize);
        match i % 5 {
            0 => batch.subtree(u),
            1 => batch.path(u, v),
            2 => batch.lca(u, v),
            3 => batch.component_root(u),
            _ => batch.component_value(u),
        };
    }
    let answers = c.query_batch(f, alg, &batch).unwrap();
    assert_eq!(answers.len(), nq, "{name}: one answer per query");
    for (i, (q, a)) in batch.queries().iter().zip(&answers).enumerate() {
        let a = a
            .as_ref()
            .unwrap_or_else(|e| panic!("{name}: query {i} failed: {e}"));
        match *q {
            Query::Subtree(v) => {
                assert_eq!(
                    a,
                    &Answer::Value(oracle[v.index()].clone()),
                    "{name}: q{i} {q:?}"
                );
            }
            Query::ComponentRoot(v) => {
                assert_eq!(a, &Answer::Node(f.root_of(v)), "{name}: q{i} {q:?}");
            }
            Query::ComponentValue(v) => {
                let r = f.root_of(v);
                assert_eq!(
                    a,
                    &Answer::Value(oracle[r.index()].clone()),
                    "{name}: q{i} {q:?}"
                );
            }
            Query::Lca(u, v) => match naive_lca(f, u, v) {
                Some(w) => assert_eq!(a, &Answer::Node(w), "{name}: q{i} {q:?}"),
                None => assert_eq!(a, &Answer::NotConnected, "{name}: q{i} {q:?}"),
            },
            Query::Path(u, v) => match naive_path_nodes(f, u, v) {
                Some(nodes) => {
                    let mut agg = alg.path_empty();
                    for w in nodes {
                        agg = alg.path_concat(&agg, &alg.path_of(f.label(w)));
                    }
                    assert_eq!(a, &Answer::PathValue(agg), "{name}: q{i} {q:?}");
                }
                None => assert_eq!(a, &Answer::NotConnected, "{name}: q{i} {q:?}"),
            },
        }
    }
}

#[test]
fn queries_match_oracle_on_all_shapes_100k() {
    check_queries(
        "random_tree(1e5)",
        &gen::random_tree(100_000, 31),
        &SubtreeSum,
        400,
        1,
    );
    // Naive oracles walk O(depth) per query, so deep shapes get fewer.
    check_queries("path(1e5)", &gen::path(100_000, 32), &SubtreeSum, 120, 2);
    check_queries("star(1e5)", &gen::star(100_000, 33), &SubtreeSum, 400, 3);
    check_queries(
        "caterpillar(5e4,1)",
        &gen::caterpillar(50_000, 1, 34),
        &SubtreeSum,
        200,
        4,
    );
}

#[test]
fn queries_match_oracle_under_other_algebras() {
    check_queries(
        "minmax random",
        &gen::random_tree(20_000, 7),
        &MinMax,
        300,
        5,
    );
    check_queries(
        "minmax caterpillar",
        &gen::caterpillar(2_000, 4, 8),
        &MinMax,
        300,
        6,
    );
    check_queries(
        "expr random",
        &gen::random_expr(20_000, 9),
        &ExprEval,
        300,
        7,
    );
}

#[test]
fn queries_match_oracle_on_forests_and_cross_component() {
    let f = gen::random_forest(10_000, 50, 21);
    check_queries("random_forest(1e4,50)", &f, &SubtreeSum, 500, 8);
    // Two nodes in provably different components.
    let roots: Vec<NodeId> = f.roots().collect();
    assert!(roots.len() >= 2);
    let (a, b) = (roots[0], roots[1]);
    let c = f.contraction().run(&SubtreeSum);
    let mut batch = QueryBatch::new();
    batch.lca(a, b).path(a, b);
    let answers = c.query_batch(&f, &SubtreeSum, &batch).unwrap();
    assert_eq!(answers[0], Ok(Answer::NotConnected));
    assert_eq!(answers[1], Ok(Answer::NotConnected));
}

#[test]
fn degenerate_shapes_and_empty_batches() {
    // Single node: every self-query is well defined.
    let mut f = Forest::new();
    let r = f.add_root(41i64);
    let c = f.contraction().run(&SubtreeSum);
    let mut batch = QueryBatch::new();
    batch
        .subtree(r)
        .path(r, r)
        .lca(r, r)
        .component_root(r)
        .component_value(r);
    let answers = c.query_batch(&f, &SubtreeSum, &batch).unwrap();
    assert_eq!(answers[0], Ok(Answer::Value(41)));
    assert_eq!(answers[1], Ok(Answer::PathValue(41)));
    assert_eq!(answers[2], Ok(Answer::Node(r)));
    assert_eq!(answers[3], Ok(Answer::Node(r)));
    assert_eq!(answers[4], Ok(Answer::Value(41)));
    // Empty batch resolves to an empty answer vector.
    assert_eq!(
        c.query_batch(&f, &SubtreeSum, &QueryBatch::new()).unwrap(),
        vec![]
    );
}

#[test]
fn unknown_nodes_fail_per_query_without_poisoning_the_batch() {
    let f = gen::random_tree(100, 3);
    let c = f.contraction().run(&SubtreeSum);
    let bogus = NodeId::from_index(f.len() + 5);
    let good = NodeId::from_index(7);
    let mut batch = QueryBatch::new();
    batch.subtree(bogus).subtree(good).lca(good, bogus);
    let answers = c.query_batch(&f, &SubtreeSum, &batch).unwrap();
    assert_eq!(
        answers[0],
        Err(QueryError::UnknownNode {
            node: bogus,
            nodes: f.len()
        })
    );
    assert!(
        answers[1].is_ok(),
        "good query unaffected by bad neighbours"
    );
    assert_eq!(
        answers[2],
        Err(QueryError::UnknownNode {
            node: bogus,
            nodes: f.len()
        })
    );
}

#[test]
fn mismatched_forest_is_rejected_at_the_batch_level() {
    let f1 = gen::random_tree(100, 3);
    let f2 = gen::random_tree(200, 3);
    let c = f1.contraction().run(&SubtreeSum);
    let mut batch = QueryBatch::new();
    batch.subtree(NodeId::from_index(0));
    assert_eq!(
        c.query_batch(&f2, &SubtreeSum, &batch),
        Err(QueryError::ForestMismatch {
            forest_nodes: 200,
            contraction_nodes: 100
        })
    );
}

#[test]
fn dyn_forest_guards_stale_reads_and_pending_queries() {
    let mut f = Forest::new();
    let r = f.add_root(1i64);
    let a = f.add_child(r, 2);
    let leaf = f.add_child(a, 3);
    let mut d = DynForest::new(f, SubtreeSum);

    assert_eq!(d.try_subtree_value(r), Ok(6));
    assert_eq!(d.try_component_value(leaf), Ok(6));
    let mut batch = QueryBatch::new();
    batch.subtree(a).path(leaf, r);
    assert!(d.query_batch(&batch).is_ok());

    d.batch_update_weights(&[(leaf, 30)]);
    // Stale paths are refused, clean subtrees still readable.
    assert_eq!(d.try_subtree_value(r), Err(QueryError::Stale { node: r }));
    assert_eq!(
        d.try_component_value(leaf),
        Err(QueryError::Stale { node: r })
    );
    assert_eq!(
        d.query_batch(&batch),
        Err(QueryError::PendingEdits {
            pending: d.pending()
        })
    );
    let bogus = NodeId::from_index(99);
    assert_eq!(
        d.try_subtree_value(bogus),
        Err(QueryError::UnknownNode {
            node: bogus,
            nodes: 3
        })
    );

    d.recompute();
    assert_eq!(d.try_subtree_value(r), Ok(33));
    let answers = d.query_batch(&batch).unwrap();
    assert_eq!(answers[0], Ok(Answer::Value(32)));
    assert_eq!(answers[1], Ok(Answer::PathValue(33)));
}

#[test]
fn failed_edit_batches_roll_back_the_shape() {
    let mut f = Forest::new();
    let r = f.add_root(1i64);
    let a = f.add_child(r, 2);
    let b = f.add_child(r, 3);
    let c = f.add_child(a, 4);
    let mut d = DynForest::new(f, SubtreeSum);
    let parent_of = |d: &DynForest<SubtreeSum>, v: NodeId| d.forest().parent(v);

    // Second cut names a root: the first (valid) cut must be undone.
    assert_eq!(
        d.try_batch_cut(&[a, r]),
        Err(EditError::AlreadyRoot { node: r })
    );
    assert_eq!(parent_of(&d, a), Some(r), "cut of `a` rolled back");

    // Duplicate cut in one batch: second op sees an already-cut node.
    assert_eq!(
        d.try_batch_cut(&[b, b]),
        Err(EditError::AlreadyRoot { node: b })
    );
    assert_eq!(parent_of(&d, b), Some(r), "cut of `b` rolled back");

    // Link whose second op would cycle (`a` is inside `r`'s own subtree):
    // the first (valid) link must be undone.
    d.batch_cut(&[b, c]);
    d.recompute();
    assert_eq!(
        d.try_batch_link(&[(b, a), (r, a)]),
        Err(EditError::WouldCycle {
            child: r,
            parent: a
        })
    );
    assert_eq!(parent_of(&d, b), None, "link of `b` rolled back");
    // Non-root child is rejected outright.
    assert_eq!(
        d.try_batch_link(&[(a, b)]),
        Err(EditError::NotARoot { node: a })
    );
    // After all failed batches, a recompute + reads still agree with a
    // from-scratch fold of the (unchanged) shape.
    d.recompute();
    let oracle = d.forest().sequential_fold(&SubtreeSum);
    for v in [r, a, b, c] {
        assert_eq!(d.subtree_value(v), oracle[v.index()]);
    }
}

#[test]
fn rejected_edit_batches_leave_no_marks() {
    let mut f = Forest::new();
    let r = f.add_root(1i64);
    let a = f.add_child(r, 2);
    let b = f.add_child(r, 3);
    let c = f.add_child(a, 4);
    let e = f.add_root(5);
    let mut d = DynForest::new(f, SubtreeSum);
    let nodes = [r, a, b, c, e];
    let reads = |d: &DynForest<SubtreeSum>| nodes.map(|v| d.try_subtree_value(v));
    let clean = reads(&d);

    // The third op fails after two valid ones: nothing stays marked.
    assert_eq!(
        d.try_batch_cut(&[a, b, r]),
        Err(EditError::AlreadyRoot { node: r })
    );
    assert_eq!(d.pending(), 0);
    assert!(nodes.iter().all(|&v| !d.is_dirty(v)));
    assert_eq!(reads(&d), clean, "reads unchanged by a rejected cut");

    // An id outside the forest is an error, not a panic, wherever it sits.
    let unknown = NodeId::from_index(150);
    let err = Err(EditError::UnknownNode {
        node: unknown,
        nodes: 5,
    });
    assert_eq!(d.try_batch_cut(&[a, b, unknown]), err);
    assert_eq!(d.try_batch_link(&[(e, c), (unknown, r)]), err);
    assert_eq!(d.try_batch_link(&[(e, c), (c, unknown)]), err);
    assert_eq!(d.pending(), 0);
    assert!(nodes.iter().all(|&v| !d.is_dirty(v)));
    assert_eq!(reads(&d), clean, "reads unchanged by unknown ids");
    assert_eq!(d.forest().parent(e), None, "link of `e` rolled back");

    d.batch_cut(&[c]);
    d.recompute();
    let clean = reads(&d);
    assert_eq!(
        d.try_batch_link(&[(c, b), (e, c), (r, e)]),
        Err(EditError::WouldCycle {
            child: r,
            parent: e
        })
    );
    assert_eq!(d.pending(), 0);
    assert!(nodes.iter().all(|&v| !d.is_dirty(v)));
    assert_eq!(reads(&d), clean, "reads unchanged by a rejected link");

    // With a label edit pending, a rejected batch keeps exactly that mark.
    d.batch_update_weights(&[(b, 30)]);
    assert_eq!(
        d.try_batch_link(&[(c, b), (e, a), (a, r)]),
        Err(EditError::NotARoot { node: a })
    );
    assert_eq!(d.pending(), 1);
    assert!(d.is_dirty(b) && !d.is_dirty(c) && !d.is_dirty(e));
    let stats = d.recompute();
    assert!(
        stats.replayed_slots < stats.total,
        "still a label-only batch"
    );
    let oracle = d.forest().sequential_fold(&SubtreeSum);
    for v in nodes {
        assert_eq!(d.subtree_value(v), oracle[v.index()]);
    }
}

/// Interleaves edit batches, recomputes and query batches on one
/// `DynForest`, checking every answer against a fresh fold and naive walks.
/// Two rounds in three are label-only, so consecutive query batches share
/// one trace shape with label edits between them; every third round also
/// cuts and links, which changes the shape.
fn interleave_and_check<A>(name: &str, forest: Forest<i64>, alg: A)
where
    A: Propagate<Label = i64> + PathAlgebra + Sync,
    A::Val: Send + Sync + std::fmt::Debug,
    A::PathVal: Send + Sync + PartialEq + std::fmt::Debug,
{
    let mut d = DynForest::new(forest, alg.clone());
    let mut rng = 0xFEED_u64;
    for round in 0..21 {
        let n = d.len();
        let pick = |rng: &mut u64| NodeId::from_index((xorshift(rng) % n as u64) as usize);
        let structural = round % 3 == 2;
        if structural {
            // Valid structural edits: cut non-roots, then link roots under
            // nodes outside their subtree, one link at a time so each sees
            // the shape the earlier ones left.
            let mut cuts = Vec::new();
            for _ in 0..8 {
                let v = pick(&mut rng);
                if d.forest().parent(v).is_some() && !cuts.contains(&v) {
                    cuts.push(v);
                }
            }
            d.try_batch_cut(&cuts).unwrap();
            for _ in 0..4 {
                let child = d.forest().root_of(pick(&mut rng));
                let parent = pick(&mut rng);
                if d.forest().root_of(parent) != child {
                    d.try_batch_link(&[(child, parent)]).unwrap();
                }
            }
        }
        let updates: Vec<(NodeId, i64)> = (0..16)
            .map(|_| (pick(&mut rng), (xorshift(&mut rng) % 1_000) as i64))
            .collect();
        d.batch_update_weights(&updates);
        let stats = d.recompute();
        assert_eq!(
            stats.reused_slots == 0,
            structural,
            "{name} round {round}: rebuilds exactly on structural rounds"
        );

        // Cached values match a from-scratch fold of the edited shape…
        let f = d.forest();
        let oracle = f.sequential_fold(&alg);
        for _ in 0..50 {
            let v = pick(&mut rng);
            assert_eq!(
                d.subtree_value(v),
                oracle[v.index()],
                "{name} round {round}"
            );
        }
        // …and so does a mixed query batch resolved over the same trace.
        let mut batch = QueryBatch::new();
        for i in 0..60 {
            let (u, v) = (pick(&mut rng), pick(&mut rng));
            match i % 5 {
                0 => batch.subtree(u),
                1 => batch.path(u, v),
                2 => batch.lca(u, v),
                3 => batch.component_root(u),
                _ => batch.component_value(u),
            };
        }
        let answers = d.query_batch(&batch).unwrap();
        for (q, a) in batch.queries().iter().zip(&answers) {
            let a = a.as_ref().unwrap();
            let at = format!("{name} round {round}: {q:?}");
            match *q {
                Query::Subtree(v) => {
                    assert_eq!(a, &Answer::Value(oracle[v.index()].clone()), "{at}");
                    assert_eq!(a, &Answer::Value(d.subtree_value(v)), "{at}");
                }
                Query::ComponentRoot(v) => assert_eq!(a, &Answer::Node(f.root_of(v)), "{at}"),
                Query::ComponentValue(v) => assert_eq!(
                    a,
                    &Answer::Value(oracle[f.root_of(v).index()].clone()),
                    "{at}"
                ),
                Query::Lca(u, v) => match naive_lca(f, u, v) {
                    Some(w) => assert_eq!(a, &Answer::Node(w), "{at}"),
                    None => assert_eq!(a, &Answer::NotConnected, "{at}"),
                },
                Query::Path(u, v) => match naive_path_nodes(f, u, v) {
                    Some(nodes) => {
                        let agg = nodes.iter().fold(alg.path_empty(), |agg, &w| {
                            alg.path_concat(&agg, &alg.path_of(f.label(w)))
                        });
                        assert_eq!(a, &Answer::PathValue(agg), "{at}");
                    }
                    None => assert_eq!(a, &Answer::NotConnected, "{at}"),
                },
            }
        }
    }
}

#[test]
fn interleaved_edits_queries_and_recomputes_match_oracle() {
    interleave_and_check("random", gen::random_tree(2_000, 99), SubtreeSum);
    interleave_and_check("path", gen::path(2_000, 98), SubtreeSum);
    interleave_and_check("broom", gen::broom(1_000, 1_000, 97), MinMax);
}

#[test]
fn ordered_rake_matches_sequential_fold_on_all_shapes() {
    let alg = OrderedRake(SeqHash);
    for seed in 1..=5u64 {
        for (name, f) in [
            ("random_tree(1e4)", gen::random_tree(10_000, 17)),
            ("path(4e3)", gen::path(4_000, 18)),
            ("star(4e3)", gen::star(4_000, 19)),
            ("caterpillar(500,4)", gen::caterpillar(500, 4, 20)),
            ("random_forest(3e3,40)", gen::random_forest(3_000, 40, 21)),
        ] {
            let c = f.contraction().seed(seed).run(&alg);
            let oracle = f.sequential_fold(&alg);
            assert_eq!(c.values(), &oracle[..], "{name} seed {seed}");
        }
    }
}

#[test]
fn ordered_rake_survives_dynamic_weight_updates() {
    // Ordered semantics stay oracle-exact under incremental recomputes:
    // weight edits never touch child order, and cuts/links keep children
    // in id order, the order `sequential_fold` folds them in.
    let alg = OrderedRake(SeqHash);
    let mut d = DynForest::new(gen::random_tree(3_000, 55), alg);
    let assert_exact = |d: &DynForest<OrderedRake<SeqHash>>, context: &str| {
        let oracle = d.forest().sequential_fold(&OrderedRake(SeqHash));
        for v in d.forest().node_ids() {
            assert_eq!(d.subtree_value(v), oracle[v.index()], "{context}");
        }
    };
    let mut rng = 0xBEEF_u64;
    for round in 0..10 {
        let n = d.len();
        let updates: Vec<(NodeId, i64)> = (0..16)
            .map(|_| {
                let v = NodeId::from_index((xorshift(&mut rng) % n as u64) as usize);
                (v, (xorshift(&mut rng) % 1_000) as i64)
            })
            .collect();
        d.batch_update_weights(&updates);
        d.recompute();
        assert_exact(&d, &format!("weight round {round}"));
    }
    // Cut/relink rounds: a round trip must restore every ordered value.
    for round in 0..20 {
        let n = d.len();
        let mut cuts: Vec<NodeId> = Vec::new();
        for _ in 0..8 {
            let v = NodeId::from_index((xorshift(&mut rng) % n as u64) as usize);
            if d.forest().parent(v).is_some() && !cuts.contains(&v) {
                cuts.push(v);
            }
        }
        let parents: Vec<NodeId> = cuts
            .iter()
            .map(|&v| d.forest().parent(v).unwrap())
            .collect();
        d.try_batch_cut(&cuts).unwrap();
        d.recompute();
        assert_exact(&d, &format!("cut round {round}"));
        let links: Vec<(NodeId, NodeId)> = cuts.iter().copied().zip(parents).collect();
        d.try_batch_link(&links).unwrap();
        d.recompute();
        assert_exact(&d, &format!("relink round {round}"));
    }
}
