//! Degenerate inputs: empty forest, tiny trees, deep paths (stack-safety),
//! and fully disconnected forests.

use dtc_core::gen;
use dtc_core::{DynForest, Forest, SubtreeSum};

#[test]
fn empty_forest() {
    let f = Forest::<i64>::new();
    let c = f.contraction().run(&SubtreeSum);
    assert!(c.components().is_empty());
    assert_eq!(c.rounds(), 0);
    assert!(f.sequential_fold(&SubtreeSum).is_empty());

    let mut d = DynForest::new(f, SubtreeSum);
    let stats = d.recompute();
    assert_eq!((stats.dirty, stats.total), (0, 0));
    assert!(d.is_empty());
}

#[test]
fn single_node() {
    let mut f = Forest::new();
    let r = f.add_root(42i64);
    let c = f.contraction().run(&SubtreeSum);
    assert_eq!(c.components(), &[(r, 42)]);
    assert_eq!(*c.subtree_value(r), 42);
    assert_eq!(c.rounds(), 1);
}

#[test]
fn two_node_tree() {
    let mut f = Forest::new();
    let r = f.add_root(1i64);
    let c = f.add_child(r, 2);
    let res = f.contraction().run(&SubtreeSum);
    assert_eq!(*res.subtree_value(r), 3);
    assert_eq!(*res.subtree_value(c), 2);
    // Leaf rakes in round 1, root finishes in round 2.
    assert_eq!(res.death_round(c), 1);
    assert_eq!(res.death_round(r), 2);
}

#[test]
fn deep_path_is_recursion_free() {
    // 100k-deep path: both contraction and the oracle must run without
    // recursion, and dropping the forest must not blow the stack either.
    let n = 100_000;
    let f = gen::path(n, 3);
    let oracle = f.sequential_fold(&SubtreeSum);
    let c = f.contraction().run(&SubtreeSum);
    assert_eq!(c.values(), &oracle[..]);
    assert!(c.rounds() < 300, "path rounds: {}", c.rounds());
}

#[test]
fn forest_of_isolated_nodes() {
    let n = 1_000;
    let f = gen::random_forest(n, n, 8);
    let c = f.contraction().run(&SubtreeSum);
    assert_eq!(c.components().len(), n);
    assert_eq!(c.rounds(), 1);
    for (root, val) in c.components() {
        assert_eq!(val, f.label(*root));
    }
}

#[test]
fn forest_of_disconnected_components() {
    let f = gen::random_forest(10_000, 37, 15);
    let c = f.contraction().run(&SubtreeSum);
    let oracle = f.sequential_fold(&SubtreeSum);
    assert_eq!(c.components().len(), 37);
    assert_eq!(c.values(), &oracle[..]);
}

#[test]
fn rounds_never_exceed_height_plus_one() {
    // Every round retires every childless node, so a node of height `h`
    // dies by round `h + 1`, and a run takes at most height + 1 ≤ n rounds:
    // the bound that lets the engine count rounds in a `u32` without a cap.
    fn height(f: &Forest<i64>) -> u32 {
        // Generated forests add every parent before its children.
        let mut depth = vec![0u32; f.len()];
        for v in f.node_ids() {
            if let Some(p) = f.parent(v) {
                depth[v.index()] = depth[p.index()] + 1;
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }
    for n in [1, 2, 3, 100, 10_000] {
        for seed in 1..=3u64 {
            let shapes = [
                ("random", gen::random_tree(n, seed)),
                ("path", gen::path(n, seed)),
                ("star", gen::star(n, seed)),
                ("caterpillar", gen::caterpillar(n.div_ceil(4), 3, seed)),
                ("binary", gen::binary_tree(n, seed)),
                ("broom", gen::broom(n.div_ceil(2), n / 2, seed)),
                ("forest", gen::random_forest(n, 1 + n / 50, seed)),
            ];
            for (name, f) in shapes {
                let rounds = f.contraction().seed(seed).run(&SubtreeSum).rounds();
                let h = height(&f);
                assert!(
                    rounds <= h + 1,
                    "{name}({n}), seed {seed}: {rounds} rounds for height {h}"
                );
                if name == "star" {
                    assert!(rounds <= 2, "star({n}), seed {seed}: {rounds} rounds");
                }
            }
        }
    }
}
