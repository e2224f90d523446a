//! Contraction algebras: the value semantics plugged into the engine.
//!
//! A [`Algebra`] describes how subtree values are built up during rake and
//! compress steps. The formulation follows Miller–Reif expression
//! evaluation: every live node keeps a partial accumulator (`Acc`) holding
//! the already-raked children, and every live edge carries a unary function
//! (`Fun`) mapping the child's final subtree value to its contribution at
//! the parent. Rake folds a finished child through its edge function into
//! the parent accumulator; compress composes edge functions so a unary
//! chain collapses to a single edge.
//!
//! Two concrete algebras ship with the crate:
//! * [`SubtreeSum`] — weighted subtree sums over `i64` labels;
//! * [`ExprEval`] — arithmetic expression trees with `+` and `×` internal
//!   nodes, evaluated via affine function composition.
//!
//! All arithmetic is wrapping (`ℤ/2⁶⁴`-style), so contraction and the
//! sequential oracle agree exactly even when products overflow.

use crate::check::invariant;

/// Value semantics for tree contraction.
///
/// Laws the engine relies on (for labels actually used in a forest):
/// * `absorb` must be commutative across sibling values: siblings may be
///   raked in any order within a round.
/// * `compose` must be associative with `identity` as unit, and
///   `apply(compose(f, g), x) == apply(f, apply(g, x))`.
/// * For a node with accumulator `acc` and exactly one remaining child
///   whose final value is `x`: the node's final value must equal
///   `apply(to_fun(acc), x)`, and for a node with no remaining children it
///   must equal `finish(acc)`.
pub trait Algebra: Clone {
    /// Per-node input label (weight, operator, ...).
    type Label: Clone;
    /// Final subtree value. `PartialEq` lets change propagation detect
    /// when a replayed action reproduced its recorded result and cut off.
    type Val: Clone + PartialEq;
    /// Partial accumulator held by a live node.
    type Acc: Clone;
    /// Unary function `Val -> Val` carried by a live edge.
    type Fun: Clone;

    /// Fresh accumulator for a node with the given label and no children
    /// absorbed yet.
    fn init_acc(&self, label: &Self::Label) -> Self::Acc;

    /// Folds a finished child's contribution into the accumulator.
    fn absorb(&self, acc: &mut Self::Acc, child: Self::Val);

    /// Like [`Algebra::absorb`], but also told the child's *sibling index*
    /// (its position in the parent's child list). Commutative algebras keep
    /// the default, which ignores the index; ordered (non-commutative)
    /// algebras such as [`OrderedRake`](crate::OrderedRake) override it to
    /// reassemble children in child-list order even though the engine
    /// retires siblings in arbitrary round order.
    ///
    /// The engine always calls this variant and guarantees that a spliced
    /// chain contributes at the slot of its topmost node, so every index in
    /// `0..children` is absorbed exactly once.
    #[inline]
    fn absorb_at(&self, acc: &mut Self::Acc, index: u32, child: Self::Val) {
        let _ = index;
        self.absorb(acc, child);
    }

    /// Final value of a node all of whose children have been absorbed.
    fn finish(&self, acc: &Self::Acc) -> Self::Val;

    /// Unary function for a node with exactly one remaining child: the
    /// node's final value as a function of that child's final value.
    fn to_fun(&self, acc: &Self::Acc) -> Self::Fun;

    /// Identity edge function.
    fn identity(&self) -> Self::Fun;

    /// Function composition, `outer ∘ inner`.
    fn compose(&self, outer: &Self::Fun, inner: &Self::Fun) -> Self::Fun;

    /// Applies an edge function to a value.
    fn apply(&self, f: &Self::Fun, x: Self::Val) -> Self::Val;
}

/// Extension required by [`DynForest`](crate::DynForest) change
/// propagation: a *partial aggregate* over a contiguous slot range of a
/// node's children, so a dirty parent can rebuild its accumulator from
/// cached per-child contributions instead of re-resolving every clean
/// child.
///
/// Two strategies hide behind one interface, selected by
/// [`Propagate::INVERTIBLE`]:
///
/// * **invertible** (e.g. [`SubtreeSum`]) — one flat `Part` aggregates all
///   children; a changed child is patched by [`Propagate::part_remove`] +
///   [`Propagate::part_merge`] in `O(1)`;
/// * **non-invertible** (e.g. [`MinMax`], [`ExprEval`],
///   [`OrderedRake`](crate::OrderedRake)) — the propagator keeps a
///   balanced sibling-accumulation tree of `Part`s and replays an
///   `O(log degree)` root-to-leaf path on change.
///
/// Laws: `part_merge` must be associative with `part_empty` as unit, and
/// merging the parts of slots `0..k` **in ascending slot order** then
/// absorbing via [`Propagate::absorb_part`] must equal absorbing each
/// child with [`Algebra::absorb_at`] directly. (Ascending order is what
/// lets ordered algebras participate.)
pub trait Propagate: Algebra {
    /// Aggregate of the contributions of a contiguous range of child
    /// slots.
    type Part: Clone;

    /// `true` when [`Propagate::part_remove`] is implemented and `O(1)`;
    /// the propagator then keeps a single flat `Part` per node instead of
    /// a sibling tree.
    const INVERTIBLE: bool = false;

    /// The aggregate of zero children (unit of [`Propagate::part_merge`]).
    fn part_empty(&self) -> Self::Part;

    /// The aggregate of the single child at slot `slot` with final value
    /// `child`.
    fn part_of(&self, slot: u32, child: Self::Val) -> Self::Part;

    /// Merges two adjacent ranges; `lo` covers strictly lower slots than
    /// `hi`.
    fn part_merge(&self, lo: &Self::Part, hi: &Self::Part) -> Self::Part;

    /// Folds a full-range aggregate into a node accumulator, as if every
    /// covered child had been absorbed via [`Algebra::absorb_at`].
    fn absorb_part(&self, acc: &mut Self::Acc, part: &Self::Part);

    /// Removes the child at `slot` (whose contribution was `old`) from a
    /// flat aggregate. Only called when [`Propagate::INVERTIBLE`] is
    /// `true`; the default is unreachable and flags misuse in debug
    /// builds.
    #[inline]
    fn part_remove(&self, part: &mut Self::Part, slot: u32, old: Self::Val) {
        let _ = (part, slot, old);
        debug_assert!(false, "part_remove called on a non-invertible algebra");
    }
}

impl Propagate for SubtreeSum {
    /// Sum of the covered children's subtree values.
    type Part = i64;
    const INVERTIBLE: bool = true;

    #[inline]
    fn part_empty(&self) -> i64 {
        0
    }

    #[inline]
    fn part_of(&self, _slot: u32, child: i64) -> i64 {
        child
    }

    #[inline]
    fn part_merge(&self, lo: &i64, hi: &i64) -> i64 {
        lo.wrapping_add(*hi)
    }

    #[inline]
    fn absorb_part(&self, acc: &mut i64, part: &i64) {
        *acc = acc.wrapping_add(*part);
    }

    #[inline]
    fn part_remove(&self, part: &mut i64, _slot: u32, old: i64) {
        *part = part.wrapping_sub(old);
    }
}

impl Propagate for MinMax {
    /// Join of the covered children's extrema.
    type Part = Extrema;

    #[inline]
    fn part_empty(&self) -> Extrema {
        Extrema::NEUTRAL
    }

    #[inline]
    fn part_of(&self, _slot: u32, child: Extrema) -> Extrema {
        child
    }

    #[inline]
    fn part_merge(&self, lo: &Extrema, hi: &Extrema) -> Extrema {
        lo.join(*hi)
    }

    #[inline]
    fn absorb_part(&self, acc: &mut Extrema, part: &Extrema) {
        *acc = acc.join(*part);
    }
}

impl Propagate for ExprEval {
    /// `(sum, product)` of the covered children — both folds are carried
    /// because the parent's operator (which picks one) is not known at
    /// merge time.
    type Part = (i64, i64);

    #[inline]
    fn part_empty(&self) -> (i64, i64) {
        (0, 1)
    }

    #[inline]
    fn part_of(&self, _slot: u32, child: i64) -> (i64, i64) {
        (child, child)
    }

    #[inline]
    fn part_merge(&self, lo: &(i64, i64), hi: &(i64, i64)) -> (i64, i64) {
        (lo.0.wrapping_add(hi.0), lo.1.wrapping_mul(hi.1))
    }

    #[inline]
    fn absorb_part(&self, acc: &mut ExprAcc, part: &(i64, i64)) {
        match acc {
            // A leaf only ever receives the empty aggregate (leaves have
            // no children); absorbing it is the identity.
            ExprAcc::Leaf(_) => {}
            ExprAcc::Partial { op, folded } => {
                *folded = match op {
                    ExprOp::Add => folded.wrapping_add(part.0),
                    ExprOp::Mul => folded.wrapping_mul(part.1),
                }
            }
        }
    }
}

/// Subtree-sum aggregation over `i64` node weights.
///
/// `Acc` is the partial sum, and the edge functions are additive shifts, so
/// compress simply adds the spliced-out chain's partial sums.
///
/// ```
/// use dtc_core::{Forest, SubtreeSum};
/// let mut f = Forest::new();
/// let r = f.add_root(10i64);
/// let a = f.add_child(r, 20);
/// f.add_child(a, 30);
/// assert_eq!(*f.contraction().run(&SubtreeSum).subtree_value(r), 60);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubtreeSum;

impl Algebra for SubtreeSum {
    type Label = i64;
    type Val = i64;
    type Acc = i64;
    /// Additive shift.
    type Fun = i64;

    #[inline]
    fn init_acc(&self, label: &i64) -> i64 {
        *label
    }

    #[inline]
    fn absorb(&self, acc: &mut i64, child: i64) {
        *acc = acc.wrapping_add(child);
    }

    #[inline]
    fn finish(&self, acc: &i64) -> i64 {
        *acc
    }

    #[inline]
    fn to_fun(&self, acc: &i64) -> i64 {
        *acc
    }

    #[inline]
    fn identity(&self) -> i64 {
        0
    }

    #[inline]
    fn compose(&self, outer: &i64, inner: &i64) -> i64 {
        outer.wrapping_add(*inner)
    }

    #[inline]
    fn apply(&self, f: &i64, x: i64) -> i64 {
        f.wrapping_add(x)
    }
}

/// Operator carried by internal nodes of an expression tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprOp {
    /// Sum of all children.
    Add,
    /// Product of all children.
    Mul,
}

/// Node label for expression trees: constants at the leaves, operators at
/// internal nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprLabel {
    /// A constant leaf.
    Leaf(i64),
    /// An operator node; its value combines the children's values.
    Op(ExprOp),
}

/// Affine function `x ↦ a·x + b` over wrapping `i64`.
///
/// Affine maps are closed under composition, which is exactly what makes
/// `+`/`×` expression trees contractible: a unary `Add` node with folded
/// constant `c` is `x ↦ x + c`, a unary `Mul` node is `x ↦ c·x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Affine {
    /// Multiplicative coefficient.
    pub a: i64,
    /// Additive constant.
    pub b: i64,
}

impl Affine {
    /// The identity map `x ↦ x`.
    pub const IDENTITY: Affine = Affine { a: 1, b: 0 };

    /// Evaluates the map at `x` (wrapping).
    #[inline]
    pub fn eval(self, x: i64) -> i64 {
        self.a.wrapping_mul(x).wrapping_add(self.b)
    }

    /// `self ∘ inner` (wrapping).
    #[inline]
    pub fn after(self, inner: Affine) -> Affine {
        Affine {
            a: self.a.wrapping_mul(inner.a),
            b: self.a.wrapping_mul(inner.b).wrapping_add(self.b),
        }
    }
}

/// Partial accumulator of an expression node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprAcc {
    /// A constant leaf.
    Leaf(i64),
    /// An operator node with the fold of its already-absorbed children
    /// (`0` for `Add`, `1` for `Mul` when nothing is absorbed yet).
    Partial {
        /// The node's operator.
        op: ExprOp,
        /// Fold of absorbed children under `op`.
        folded: i64,
    },
}

/// Expression-tree evaluation over [`ExprLabel`] nodes.
///
/// Internal nodes may have any arity ≥ 1; `Add` sums its children and `Mul`
/// multiplies them. Arithmetic wraps on overflow.
///
/// ```
/// use dtc_core::{ExprEval, ExprLabel::{Leaf, Op}, ExprOp::{Add, Mul}, Forest};
/// // (2 + 3) * 4
/// let mut f = Forest::new();
/// let root = f.add_root(Op(Mul));
/// let plus = f.add_child(root, Op(Add));
/// f.add_child(plus, Leaf(2));
/// f.add_child(plus, Leaf(3));
/// f.add_child(root, Leaf(4));
/// assert_eq!(*f.contraction().run(&ExprEval).subtree_value(root), 20);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExprEval;

impl Algebra for ExprEval {
    type Label = ExprLabel;
    type Val = i64;
    type Acc = ExprAcc;
    type Fun = Affine;

    #[inline]
    fn init_acc(&self, label: &ExprLabel) -> ExprAcc {
        match *label {
            ExprLabel::Leaf(v) => ExprAcc::Leaf(v),
            ExprLabel::Op(op) => ExprAcc::Partial {
                op,
                folded: match op {
                    ExprOp::Add => 0,
                    ExprOp::Mul => 1,
                },
            },
        }
    }

    #[inline]
    fn absorb(&self, acc: &mut ExprAcc, child: i64) {
        match acc {
            // Reachable by mis-building the input (a leaf-labelled node
            // with children), so fail through the sanctioned macro with a
            // message naming the misuse.
            ExprAcc::Leaf(_) => {
                invariant!(false, "expression leaf cannot have children");
            }
            ExprAcc::Partial { op, folded } => {
                *folded = match op {
                    ExprOp::Add => folded.wrapping_add(child),
                    ExprOp::Mul => folded.wrapping_mul(child),
                }
            }
        }
    }

    #[inline]
    fn finish(&self, acc: &ExprAcc) -> i64 {
        match *acc {
            ExprAcc::Leaf(v) => v,
            ExprAcc::Partial { folded, .. } => folded,
        }
    }

    #[inline]
    fn to_fun(&self, acc: &ExprAcc) -> Affine {
        match *acc {
            ExprAcc::Leaf(_) => {
                invariant!(false, "expression leaf cannot have children");
                Affine::IDENTITY // never reached: the invariant always fails
            }
            ExprAcc::Partial { op, folded } => match op {
                ExprOp::Add => Affine { a: 1, b: folded },
                ExprOp::Mul => Affine { a: folded, b: 0 },
            },
        }
    }

    #[inline]
    fn identity(&self) -> Affine {
        Affine::IDENTITY
    }

    #[inline]
    fn compose(&self, outer: &Affine, inner: &Affine) -> Affine {
        outer.after(*inner)
    }

    #[inline]
    fn apply(&self, f: &Affine, x: i64) -> i64 {
        f.eval(x)
    }
}

/// Path-decomposable extension of an [`Algebra`]: a commutative monoid over
/// *path segments*, letting the batch query engine fold the labels lying on
/// a tree path (for [`crate::Query::Path`] queries).
///
/// Laws: `path_concat` must be associative and commutative with
/// `path_empty` as unit. (Commutativity is required because a path between
/// two arbitrary nodes is folded as two root-ward climbs joined at the
/// LCA, so segment order is not preserved.)
pub trait PathAlgebra: Algebra {
    /// Aggregate over a set of labels on a path.
    type PathVal: Clone;

    /// The single-node segment for one label.
    fn path_of(&self, label: &Self::Label) -> Self::PathVal;

    /// The empty segment (unit of [`PathAlgebra::path_concat`]).
    fn path_empty(&self) -> Self::PathVal;

    /// Joins two segments.
    fn path_concat(&self, a: &Self::PathVal, b: &Self::PathVal) -> Self::PathVal;
}

/// Weighted path length: the (wrapping) sum of node weights on the path.
impl PathAlgebra for SubtreeSum {
    type PathVal = i64;

    #[inline]
    fn path_of(&self, label: &i64) -> i64 {
        *label
    }

    #[inline]
    fn path_empty(&self) -> i64 {
        0
    }

    #[inline]
    fn path_concat(&self, a: &i64, b: &i64) -> i64 {
        a.wrapping_add(*b)
    }
}

/// Hop count: expression labels have no meaningful path sum, so the path
/// aggregate is simply the number of nodes on the path.
impl PathAlgebra for ExprEval {
    type PathVal = u64;

    #[inline]
    fn path_of(&self, _label: &ExprLabel) -> u64 {
        1
    }

    #[inline]
    fn path_empty(&self) -> u64 {
        0
    }

    #[inline]
    fn path_concat(&self, a: &u64, b: &u64) -> u64 {
        a + b
    }
}

/// A `(min, max)` pair of `i64` weights — the carrier of [`MinMax`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extrema {
    /// Smallest weight seen.
    pub min: i64,
    /// Largest weight seen.
    pub max: i64,
}

impl Extrema {
    /// The neutral element: `join` with it is the identity.
    pub const NEUTRAL: Extrema = Extrema {
        min: i64::MAX,
        max: i64::MIN,
    };

    /// The singleton interval `[w, w]`.
    #[inline]
    pub fn of(w: i64) -> Extrema {
        Extrema { min: w, max: w }
    }

    /// Componentwise min/max — the semilattice join.
    #[inline]
    pub fn join(self, other: Extrema) -> Extrema {
        Extrema {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }
}

/// Min/max weight aggregation over `i64` node weights.
///
/// Subtree values are the extrema over the whole subtree; as a
/// [`PathAlgebra`] it answers min/max-weight-on-path queries. Because join
/// is an idempotent commutative semilattice, the edge functions are just
/// pending joins, closed under composition.
///
/// ```
/// use dtc_core::{Extrema, Forest, MinMax};
/// let mut f = Forest::new();
/// let r = f.add_root(5i64);
/// let a = f.add_child(r, -2);
/// f.add_child(a, 9);
/// let c = f.contraction().run(&MinMax);
/// assert_eq!(*c.subtree_value(r), Extrema { min: -2, max: 9 });
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinMax;

impl Algebra for MinMax {
    type Label = i64;
    type Val = Extrema;
    type Acc = Extrema;
    /// A pending join.
    type Fun = Extrema;

    #[inline]
    fn init_acc(&self, label: &i64) -> Extrema {
        Extrema::of(*label)
    }

    #[inline]
    fn absorb(&self, acc: &mut Extrema, child: Extrema) {
        *acc = acc.join(child);
    }

    #[inline]
    fn finish(&self, acc: &Extrema) -> Extrema {
        *acc
    }

    #[inline]
    fn to_fun(&self, acc: &Extrema) -> Extrema {
        *acc
    }

    #[inline]
    fn identity(&self) -> Extrema {
        Extrema::NEUTRAL
    }

    #[inline]
    fn compose(&self, outer: &Extrema, inner: &Extrema) -> Extrema {
        outer.join(*inner)
    }

    #[inline]
    fn apply(&self, f: &Extrema, x: Extrema) -> Extrema {
        f.join(x)
    }
}

/// Min/max weight on the path.
impl PathAlgebra for MinMax {
    type PathVal = Extrema;

    #[inline]
    fn path_of(&self, label: &i64) -> Extrema {
        Extrema::of(*label)
    }

    #[inline]
    fn path_empty(&self) -> Extrema {
        Extrema::NEUTRAL
    }

    #[inline]
    fn path_concat(&self, a: &Extrema, b: &Extrema) -> Extrema {
        a.join(*b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_composition_matches_pointwise() {
        let f = Affine { a: 3, b: 5 };
        let g = Affine { a: -2, b: 7 };
        for x in [-4i64, 0, 1, 9, i64::MAX] {
            assert_eq!(f.after(g).eval(x), f.eval(g.eval(x)));
        }
        assert_eq!(Affine::IDENTITY.after(f), f);
        assert_eq!(f.after(Affine::IDENTITY), f);
    }
}
