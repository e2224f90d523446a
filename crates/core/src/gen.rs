//! Deterministic forest generators for tests and benchmarks.

use crate::algebra::{ExprLabel, ExprOp};
use crate::arena::{Forest, NONE};
use crate::NodeId;

pub use crate::rng::XorShift64;

/// A path `0 → 1 → … → n-1` (node 0 is the root) with random weights.
pub fn path(n: usize, seed: u64) -> Forest<i64> {
    let mut rng = XorShift64::new(seed);
    let mut f = Forest::with_capacity(n);
    let mut prev: Option<NodeId> = None;
    for _ in 0..n {
        let w = rng.weight();
        prev = Some(match prev {
            None => f.add_root(w),
            Some(p) => f.add_child(p, w),
        });
    }
    f
}

/// A star: one root with `n - 1` direct children.
pub fn star(n: usize, seed: u64) -> Forest<i64> {
    let mut rng = XorShift64::new(seed);
    let mut f = Forest::with_capacity(n);
    if n == 0 {
        return f;
    }
    let root = f.add_root(rng.weight());
    for _ in 1..n {
        let w = rng.weight();
        f.add_child(root, w);
    }
    f
}

/// A caterpillar: a spine path where every spine node also has `legs`
/// leaf children.
pub fn caterpillar(spine: usize, legs: usize, seed: u64) -> Forest<i64> {
    let mut rng = XorShift64::new(seed);
    let mut f = Forest::with_capacity(spine * (legs + 1));
    let mut prev: Option<NodeId> = None;
    for _ in 0..spine {
        let w = rng.weight();
        let node = match prev {
            None => f.add_root(w),
            Some(p) => f.add_child(p, w),
        };
        for _ in 0..legs {
            let lw = rng.weight();
            f.add_child(node, lw);
        }
        prev = Some(node);
    }
    f
}

/// A complete binary tree in heap order: node `i` is the parent of
/// `2i + 1` and `2i + 2`, giving depth `⌊log₂ n⌋` — the balanced
/// adversary between the path (all depth) and the star (all degree).
pub fn binary_tree(n: usize, seed: u64) -> Forest<i64> {
    let mut rng = XorShift64::new(seed);
    let mut f = Forest::with_capacity(n);
    for i in 0..n {
        let w = rng.weight();
        if i == 0 {
            f.add_root(w);
        } else {
            f.add_child(NodeId(((i - 1) / 2) as u32), w);
        }
    }
    f
}

/// A broom: a path of `handle` nodes whose far end fans out into
/// `bristles` leaf children — depth *and* degree concentrated in one
/// tree, so an edit at a bristle must climb the whole handle.
pub fn broom(handle: usize, bristles: usize, seed: u64) -> Forest<i64> {
    let mut rng = XorShift64::new(seed);
    let mut f = Forest::with_capacity(handle + bristles);
    if handle == 0 {
        return f;
    }
    let mut prev = f.add_root(rng.weight());
    for _ in 1..handle {
        let w = rng.weight();
        prev = f.add_child(prev, w);
    }
    for _ in 0..bristles {
        let w = rng.weight();
        f.add_child(prev, w);
    }
    f
}

/// One operation of a [`churn`] edit script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// Detach this (non-root) node from its parent.
    Cut(NodeId),
    /// Attach a previously cut component root under a new parent.
    Link {
        /// The component root being attached.
        child: NodeId,
        /// Its new parent (never inside `child`'s component).
        parent: NodeId,
    },
    /// Replace a node's weight.
    Weight(NodeId, i64),
}

/// A random tree of `n` nodes plus a deterministic storm of `ops`
/// interleaved cut / link / weight operations, each valid at the moment
/// it applies (cuts only hit non-roots, links only re-attach cut-off
/// roots and never create cycles). Exercises the structure phase of a
/// recompute against alternating shape and label churn.
pub fn churn(n: usize, ops: usize, seed: u64) -> (Forest<i64>, Vec<ChurnOp>) {
    let f = random_tree(n, seed);
    let mut rng = XorShift64::new(seed ^ 0xC0FFEE);
    let mut script = Vec::with_capacity(ops);
    if n < 2 {
        return (f, script);
    }
    // Shadow shape so every generated op is legal when replayed in order.
    let mut parent: Vec<u32> = (0..n as u32).map(|v| f.parent_raw(v)).collect();
    let mut loose: Vec<u32> = Vec::new(); // roots created by cuts, not yet relinked
    let root_of = |parent: &[u32], mut v: u32| {
        while parent[v as usize] != NONE {
            v = parent[v as usize];
        }
        v
    };
    for _ in 0..ops {
        let op = match rng.below(3) {
            0 => {
                let v = rng.below(n as u64) as u32;
                if parent[v as usize] == NONE {
                    None
                } else {
                    parent[v as usize] = NONE;
                    loose.push(v);
                    Some(ChurnOp::Cut(NodeId(v)))
                }
            }
            1 if !loose.is_empty() => {
                let i = rng.below(loose.len() as u64) as usize;
                let child = loose[i];
                let p = rng.below(n as u64) as u32;
                if root_of(&parent, p) == child {
                    None
                } else {
                    loose.swap_remove(i);
                    parent[child as usize] = p;
                    Some(ChurnOp::Link {
                        child: NodeId(child),
                        parent: NodeId(p),
                    })
                }
            }
            _ => None,
        };
        // Ineligible draws (cutting a root, linking into the cut-off
        // component, no loose roots) degrade to a weight bump so the
        // script length stays exactly `ops`.
        script.push(
            op.unwrap_or_else(|| ChurnOp::Weight(NodeId(rng.below(n as u64) as u32), rng.weight())),
        );
    }
    (f, script)
}

/// A random recursive tree: node `i > 0` attaches to a uniformly random
/// earlier node, giving expected depth `O(log n)`.
pub fn random_tree(n: usize, seed: u64) -> Forest<i64> {
    random_forest(n, 1, seed)
}

/// Like [`random_tree`] but with `roots` independent components.
///
/// # Panics
/// Panics if `n > 0` and `roots == 0` (a non-empty forest needs a root).
pub fn random_forest(n: usize, roots: usize, seed: u64) -> Forest<i64> {
    assert!(
        roots > 0 || n == 0,
        "random_forest: a non-empty forest needs at least one root"
    );
    let mut rng = XorShift64::new(seed);
    let mut f = Forest::with_capacity(n);
    for i in 0..n {
        let w = rng.weight();
        if i < roots {
            f.add_root(w);
        } else {
            let p = NodeId(rng.below(i as u64) as u32);
            f.add_child(p, w);
        }
    }
    f
}

/// A random binary expression tree with `leaves` constant leaves and
/// `leaves - 1` random `+`/`×` internal nodes (built iteratively, so deep
/// shapes are fine).
pub fn random_expr(leaves: usize, seed: u64) -> Forest<ExprLabel> {
    let mut rng = XorShift64::new(seed);
    let mut f = Forest::with_capacity(leaves.saturating_mul(2));
    if leaves == 0 {
        return f;
    }
    let mut stack: Vec<(Option<NodeId>, usize)> = vec![(None, leaves)];
    while let Some((parent, k)) = stack.pop() {
        if k == 1 {
            // Small constants keep intermediate products meaningful even
            // though all arithmetic wraps.
            let v = rng.below(7) as i64 - 3;
            let label = ExprLabel::Leaf(v);
            match parent {
                None => f.add_root(label),
                Some(p) => f.add_child(p, label),
            };
        } else {
            let op = if rng.below(2) == 0 {
                ExprOp::Add
            } else {
                ExprOp::Mul
            };
            let node = match parent {
                None => f.add_root(ExprLabel::Op(op)),
                Some(p) => f.add_child(p, ExprLabel::Op(op)),
            };
            let left = 1 + rng.below((k - 1) as u64) as usize;
            stack.push((Some(node), left));
            stack.push((Some(node), k - left));
        }
    }
    f
}
