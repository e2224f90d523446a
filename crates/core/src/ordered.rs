//! Ordered (non-commutative) aggregation via sibling-indexed rake.
//!
//! The core [`Algebra`] contract requires absorption to be insensitive to
//! sibling arrival order, because rake retires children in arbitrary round
//! order. [`OrderedRake`] meets it for any associative monoid
//! ([`SeqMonoid`]): every child contributes through
//! [`Algebra::absorb_at`] with its *sibling index*, and the accumulator
//! keeps contiguous runs of already-absorbed children, coalescing
//! neighbours as they arrive. By the time a node finishes, the runs have
//! merged into a single prefix, so the final value is the fold of the
//! children **in child-list order** — preorder semantics on an engine that
//! never promised an order.
//!
//! Unary functions become two-sided sandwiches `x ↦ pre ⊕ x ⊕ post`, which
//! are closed under composition for any monoid, so compress works
//! unchanged.
//!
//! The shipped instance is [`SeqHash`], a polynomial rolling hash of the
//! preorder label sequence — deliberately non-commutative, which makes it a
//! sharp oracle test for the sibling-index plumbing.

use crate::algebra::{Algebra, Propagate};
use crate::rng::splitmix64;

/// An associative (not necessarily commutative) monoid over sequences of
/// labels, foldable left-to-right.
pub trait SeqMonoid: Clone {
    /// Per-node input label.
    type Label: Clone;
    /// Monoid element (the fold of a contiguous label sequence).
    /// `PartialEq` is inherited from the [`Algebra::Val`] bound so change
    /// propagation can detect unchanged replays.
    type Elem: Clone + PartialEq;

    /// The element of the single-label sequence.
    fn lift(&self, label: &Self::Label) -> Self::Elem;

    /// The element of the empty sequence (unit of [`SeqMonoid::concat`]).
    fn empty(&self) -> Self::Elem;

    /// Concatenation; must be associative with [`SeqMonoid::empty`] as
    /// unit, but need **not** be commutative.
    fn concat(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;
}

/// A maximal contiguous run `[start, end)` of absorbed sibling indices,
/// with the fold of their values in index order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Run<E> {
    start: u32,
    end: u32,
    val: E,
}

/// Accumulator of [`OrderedRake`]: the node's own lifted label plus the
/// coalesced runs of absorbed children, kept sorted and non-adjacent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqAcc<E> {
    own: E,
    runs: Vec<Run<E>>,
}

/// Edge function of [`OrderedRake`]: `x ↦ pre ⊕ x ⊕ post`. Two-sided
/// sandwiches are the closure of "insert the child's value mid-sequence"
/// under composition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sandwich<E> {
    /// Prefix folded to the left of the hole.
    pub pre: E,
    /// Suffix folded to the right of the hole.
    pub post: E,
}

/// Adapter turning any [`SeqMonoid`] into an [`Algebra`] with **preorder**
/// semantics: `val(v) = lift(label(v)) ⊕ val(c₀) ⊕ … ⊕ val(cₖ)` with the
/// children in child-list order.
///
/// ```
/// use dtc_core::{Forest, OrderedRake, SeqHash};
/// let mut f = Forest::new();
/// let r = f.add_root(1i64);
/// f.add_child(r, 2);
/// f.add_child(r, 3);
/// let alg = OrderedRake(SeqHash);
/// let c = f.contraction().run(&alg);
/// // The contraction agrees with the sequential left-to-right fold.
/// assert_eq!(c.values(), &f.sequential_fold(&alg)[..]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrderedRake<M>(pub M);

impl<M: SeqMonoid> OrderedRake<M> {
    /// Inserts the already-folded run `[start, end)`, coalescing with the
    /// runs that end at `start` and/or start at `end`.
    fn insert_run(&self, runs: &mut Vec<Run<M::Elem>>, start: u32, end: u32, val: M::Elem) {
        let pos = runs.partition_point(|r| r.end < start);
        let glue_left = pos < runs.len() && runs[pos].end == start;
        let right = if glue_left { pos + 1 } else { pos };
        let glue_right = right < runs.len() && runs[right].start == end;
        debug_assert!(
            pos >= runs.len() || runs[pos].start >= end || glue_left,
            "sibling run [{start}, {end}) absorbed twice"
        );
        match (glue_left, glue_right) {
            (true, true) => {
                let merged = self
                    .0
                    .concat(&self.0.concat(&runs[pos].val, &val), &runs[right].val);
                runs[pos].val = merged;
                runs[pos].end = runs[right].end;
                runs.remove(right);
            }
            (true, false) => {
                runs[pos].val = self.0.concat(&runs[pos].val, &val);
                runs[pos].end = end;
            }
            (false, true) => {
                runs[right].val = self.0.concat(&val, &runs[right].val);
                runs[right].start = start;
            }
            (false, false) => runs.insert(pos, Run { start, end, val }),
        }
    }
}

impl<M: SeqMonoid> Algebra for OrderedRake<M> {
    type Label = M::Label;
    type Val = M::Elem;
    type Acc = SeqAcc<M::Elem>;
    type Fun = Sandwich<M::Elem>;

    fn init_acc(&self, label: &M::Label) -> SeqAcc<M::Elem> {
        SeqAcc {
            own: self.0.lift(label),
            runs: Vec::new(),
        }
    }

    fn absorb_at(&self, acc: &mut SeqAcc<M::Elem>, index: u32, child: M::Elem) {
        self.insert_run(&mut acc.runs, index, index + 1, child);
    }

    fn finish(&self, acc: &SeqAcc<M::Elem>) -> M::Elem {
        debug_assert!(
            acc.runs.len() <= 1 && acc.runs.first().map_or(true, |r| r.start == 0),
            "finish on an accumulator with absorption gaps"
        );
        match acc.runs.first() {
            None => acc.own.clone(),
            Some(r) => self.0.concat(&acc.own, &r.val),
        }
    }

    /// With exactly one child left, the missing sibling index is the unique
    /// gap in the runs, so it can be inferred without being passed in: the
    /// runs are `[0, k)` and/or `[k + 1, n)` for the remaining index `k`.
    fn to_fun(&self, acc: &SeqAcc<M::Elem>) -> Sandwich<M::Elem> {
        debug_assert!(acc.runs.len() <= 2, "more than one absorption gap");
        let mut pre = acc.own.clone();
        let mut post = self.0.empty();
        for r in &acc.runs {
            if r.start == 0 {
                pre = self.0.concat(&pre, &r.val);
            } else {
                post = r.val.clone();
            }
        }
        Sandwich { pre, post }
    }

    fn identity(&self) -> Sandwich<M::Elem> {
        Sandwich {
            pre: self.0.empty(),
            post: self.0.empty(),
        }
    }

    fn compose(&self, outer: &Sandwich<M::Elem>, inner: &Sandwich<M::Elem>) -> Sandwich<M::Elem> {
        Sandwich {
            pre: self.0.concat(&outer.pre, &inner.pre),
            post: self.0.concat(&inner.post, &outer.post),
        }
    }

    fn apply(&self, f: &Sandwich<M::Elem>, x: M::Elem) -> M::Elem {
        self.0.concat(&self.0.concat(&f.pre, &x), &f.post)
    }
}

/// Partial sibling aggregate of [`OrderedRake`] for change propagation: a
/// sorted, coalesced list of absorbed sibling runs (the same shape as the
/// [`SeqAcc`] run list, minus the node's own label). Opaque — built and
/// consumed only through the [`Propagate`] methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunsPart<E>(Vec<Run<E>>);

impl<M: SeqMonoid> Propagate for OrderedRake<M> {
    type Part = RunsPart<M::Elem>;

    fn part_empty(&self) -> RunsPart<M::Elem> {
        RunsPart(Vec::new())
    }

    fn part_of(&self, slot: u32, child: M::Elem) -> RunsPart<M::Elem> {
        RunsPart(vec![Run {
            start: slot,
            end: slot + 1,
            val: child,
        }])
    }

    /// `lo` covers strictly lower sibling slots than `hi`, so the run
    /// lists concatenate; only the boundary pair can coalesce.
    fn part_merge(&self, lo: &RunsPart<M::Elem>, hi: &RunsPart<M::Elem>) -> RunsPart<M::Elem> {
        let mut out = lo.0.clone();
        let mut rest = hi.0.iter();
        if let (Some(last), Some(first)) = (out.last_mut(), hi.0.first()) {
            debug_assert!(last.end <= first.start, "part_merge ranges out of order");
            if last.end == first.start {
                last.val = self.0.concat(&last.val, &first.val);
                last.end = first.end;
                rest.next();
            }
        }
        out.extend(rest.cloned());
        RunsPart(out)
    }

    fn absorb_part(&self, acc: &mut SeqAcc<M::Elem>, part: &RunsPart<M::Elem>) {
        for r in &part.0 {
            self.insert_run(&mut acc.runs, r.start, r.end, r.val.clone());
        }
    }
}

/// Fold of a contiguous label sequence under [`SeqHash`]: the polynomial
/// hash plus `B^len`, which is what makes concatenation O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashSeq {
    /// Polynomial hash of the sequence (wrapping).
    pub hash: u64,
    /// `B.pow(len)` (wrapping), where `len` is the sequence length.
    pub pow: u64,
}

/// Polynomial rolling hash of `i64` label sequences:
/// `h(s · t) = h(s)·B^|t| + h(t)` over wrapping `u64`, with labels mixed
/// through splitmix64 first. Non-commutative by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeqHash;

/// The hash base; any odd constant works, this is the FNV-1a prime.
const BASE: u64 = 0x0000_0100_0000_01B3;

impl SeqMonoid for SeqHash {
    type Label = i64;
    type Elem = HashSeq;

    #[inline]
    fn lift(&self, label: &i64) -> HashSeq {
        HashSeq {
            hash: splitmix64(*label as u64),
            pow: BASE,
        }
    }

    #[inline]
    fn empty(&self) -> HashSeq {
        HashSeq { hash: 0, pow: 1 }
    }

    #[inline]
    fn concat(&self, a: &HashSeq, b: &HashSeq) -> HashSeq {
        HashSeq {
            hash: a.hash.wrapping_mul(b.pow).wrapping_add(b.hash),
            pow: a.pow.wrapping_mul(b.pow),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(labels: &[i64]) -> HashSeq {
        labels.iter().fold(SeqHash.empty(), |acc, l| {
            SeqHash.concat(&acc, &SeqHash.lift(l))
        })
    }

    #[test]
    fn hash_concat_is_associative_not_commutative() {
        let (a, b, c) = (h(&[1, 2]), h(&[3]), h(&[4, 5, 6]));
        let left = SeqHash.concat(&SeqHash.concat(&a, &b), &c);
        let right = SeqHash.concat(&a, &SeqHash.concat(&b, &c));
        assert_eq!(left, right);
        assert_eq!(left, h(&[1, 2, 3, 4, 5, 6]));
        assert_ne!(SeqHash.concat(&a, &b), SeqHash.concat(&b, &a));
        assert_eq!(SeqHash.concat(&a, &SeqHash.empty()), a);
        assert_eq!(SeqHash.concat(&SeqHash.empty(), &a), a);
    }

    #[test]
    fn out_of_order_absorption_reassembles_in_order() {
        let alg = OrderedRake(SeqHash);
        let expected = h(&[10, 0, 1, 2, 3, 4]);
        // Absorb sibling indices in a scrambled order.
        for order in [[3u32, 0, 4, 1, 2], [4, 3, 2, 1, 0], [0, 1, 2, 3, 4]] {
            let mut acc = alg.init_acc(&10);
            for &i in &order {
                alg.absorb_at(&mut acc, i, SeqHash.lift(&(i as i64)));
            }
            assert_eq!(alg.finish(&acc), expected, "order {order:?}");
        }
    }

    #[test]
    fn sandwich_matches_direct_insertion() {
        let alg = OrderedRake(SeqHash);
        // Node with children [c0, HOLE, c2]; the unary fun must equal
        // inserting the hole's value between the absorbed neighbours.
        let mut acc = alg.init_acc(&7);
        alg.absorb_at(&mut acc, 0, h(&[100]));
        alg.absorb_at(&mut acc, 2, h(&[300]));
        let fun = alg.to_fun(&acc);
        let x = h(&[200, 201]);
        assert_eq!(alg.apply(&fun, x), h(&[7, 100, 200, 201, 300]));
    }
}
