//! Change propagation over the recorded contraction trace.
//!
//! The round-stamped death trace left behind by a full contraction is a
//! dependency DAG: every rake delivered a contribution to the victim's
//! working parent, and every splice folded a victim's unary function into
//! the surviving chain. [`Replay`] caches what replaying a slot needs on
//! top of that [`Trace`] — for every node, an aggregate of its children's
//! contributions, filled from the recorded rakes alone — and then
//! re-executes **only the slots whose inputs changed** when a batch of label
//! edits lands, rewriting the trace in place:
//!
//! 1. every edited node is put in the bucket of its death round;
//! 2. the buckets drain in ascending death round, each in the order its
//!    slots were scheduled. A raked slot re-runs its fold;
//!    if the recomputed contribution equals the one the trace records (its
//!    edge function applied to its value) the wave *cuts off*, otherwise
//!    the parent's child-aggregate is patched and the parent is
//!    scheduled. A compressed slot schedules its surviving child with a
//!    pending *refold* (the chain's composed functions are re-derived
//!    bottom-to-top). A root slot re-finishes its value.
//!
//! Because rake victims die strictly before their targets and splice
//! victims strictly before their survivors, every dependency points to a
//! strictly later death round: one ascending sweep over the buckets
//! processes each slot at most once, in any order within a round (a slot
//! reads only aggregates patched in earlier rounds and writes only into
//! later ones), and a wave dies out after `O(rounds)` hops — the
//! depth-independence the static round structure was recorded for.
//!
//! A cut or link changes the shape the trace describes. The dynamic
//! layer's structure phase (`restructure.rs`) rewrites the records of the
//! nodes whose death changed and commits the new child and raked-child
//! lists. Change propagation then re-runs what those edits touched from its
//! current inputs instead of patching old results: [`Replay::relay`] lays
//! out afresh the aggregate of every parent the commit listed, numbering
//! the slots of the rakes into it (a rewritten rake contributes its
//! placeholder value), and propagation, seeded with those parents and the
//! rewritten nodes (whose splice chains it refolds), replaces the
//! placeholders by the real values. Afterwards the trace is exactly the one
//! a fresh contraction with the forest's seed records.
//!
//! Child aggregates come in two flavours, chosen by
//! [`Propagate::INVERTIBLE`]:
//!
//! * **flat** — invertible algebras (e.g. [`SubtreeSum`](crate::SubtreeSum))
//!   keep one merged `Part` per node and patch a changed child by
//!   subtract/re-add in `O(1)`;
//! * **sibling trees** — non-invertible algebras keep a balanced binary
//!   tree over each node's child slots, one group of a [`Csr`] table per
//!   node, and replay an `O(log degree)` leaf-to-root path, so even a
//!   10⁵-ary star patches one child without refolding the other 10⁵ − 1.

use crate::algebra::{Algebra, Propagate};
use crate::arena::{Csr, Forest};
use crate::check::invariant;
use crate::engine::{Death, Lists, Trace};
use crate::obs::{Phase, Sink};
use crate::NodeId;
use std::time::Instant;

/// Resolves the final subtree value of `v` from the death trace alone.
///
/// A raked node and a finished root knew their value at death; a
/// compressed node's value is its recorded unary function applied to the
/// value of the child that outlived it. Because working parents strictly
/// outlive their children, the chain has at most one hop per contraction
/// round: `O(rounds)` per call, no per-node value cache to keep coherent.
pub(crate) fn resolve_val<A: Algebra>(alg: &A, death: &[Death<A>], v: u32) -> A::Val {
    let mut f = alg.identity();
    let mut u = v as usize;
    loop {
        match &death[u] {
            Death::Raked { val, .. } | Death::Root(val) => return alg.apply(&f, val.clone()),
            Death::Compressed { child, fun } => {
                f = alg.compose(&f, fun);
                u = *child as usize;
            }
            // lint:allow(panic): resolution only runs on completed traces, where every node carries a death record
            Death::None => unreachable!("resolve_val on a node without a death record"),
        }
    }
}

/// Per-node aggregates of child contributions, strategy picked at build
/// time by [`Propagate::INVERTIBLE`].
#[derive(Clone)]
pub(crate) enum Kids<A: Propagate> {
    /// One merged `Part` per node; patched by subtract/re-add.
    Flat(Vec<A::Part>),
    /// One balanced sibling-accumulation tree per node: group `p` is `p`'s
    /// 0-based heap of `2 × size − 1` parts (`size` the degree rounded up
    /// to a power of two, 1 for a childless node) with the leaf of child
    /// slot `s` at `size − 1 + s`, padded with [`Propagate::part_empty`].
    /// Entry `i` merges entries `2i + 1` and `2i + 2`, lower slots on the
    /// left, so entry 0 is the in-order aggregate of every slot, and
    /// patching one slot remerges only its leaf-to-root path:
    /// `O(log degree)`. A tree is rewritten in place unless its size
    /// changes; then it moves into the table's reserve ([`Csr::resize`]).
    Trees(Csr<A::Part>),
}

impl<A: Propagate> Kids<A> {
    fn root(&self, u: usize) -> &A::Part {
        match self {
            Kids::Flat(parts) => &parts[u],
            Kids::Trees(trees) => &trees.of(u as u32)[0],
        }
    }

    /// Replaces the contribution `old` at `slot` of `u` by `new`.
    fn patch(&mut self, alg: &A, u: usize, slot: u32, old: A::Val, new: A::Val) {
        match self {
            Kids::Flat(parts) => {
                alg.part_remove(&mut parts[u], slot, old);
                parts[u] = alg.part_merge(&parts[u], &alg.part_of(slot, new));
            }
            Kids::Trees(trees) => {
                let tree = trees.of_mut(u as u32);
                let mut i = tree.len() / 2 + slot as usize;
                tree[i] = alg.part_of(slot, new);
                while i > 0 {
                    i = (i - 1) / 2;
                    tree[i] = alg.part_merge(&tree[2 * i + 1], &tree[2 * i + 2]);
                }
            }
        }
    }

    /// Lays out `u`'s aggregate afresh over `degree` child slots from its
    /// `contributions` (slot, value).
    fn relay(
        &mut self,
        alg: &A,
        u: usize,
        degree: usize,
        contributions: impl Iterator<Item = (u32, A::Val)>,
    ) {
        match self {
            Kids::Flat(parts) => {
                parts[u] = contributions.fold(alg.part_empty(), |acc, (slot, c)| {
                    alg.part_merge(&acc, &alg.part_of(slot, c))
                });
            }
            Kids::Trees(trees) => {
                let tree = trees.resize(u as u32, tree_len(degree), alg.part_empty());
                tree.fill(alg.part_empty());
                for (slot, c) in contributions {
                    tree[tree.len() / 2 + slot as usize] = alg.part_of(slot, c);
                }
                merge_up(alg, tree);
            }
        }
    }
}

/// The parts in the sibling tree of a node with `degree` child slots.
fn tree_len(degree: usize) -> usize {
    2 * degree.next_power_of_two() - 1
}

/// Merges every inner entry of the sibling tree `tree` from its two
/// children, bottom-up, once its leaves are in place.
fn merge_up<A: Propagate>(alg: &A, tree: &mut [A::Part]) {
    for i in (0..tree.len() / 2).rev() {
        tree[i] = alg.part_merge(&tree[2 * i + 1], &tree[2 * i + 2]);
    }
}

/// What one propagation pass did, for [`UpdateStats`](crate::UpdateStats).
pub(crate) struct PropagateOutcome {
    /// Trace slots re-executed (every other slot's result was reused).
    pub replayed: usize,
    /// Distinct death rounds the wave touched — its depth in the trace DAG.
    pub rounds: u32,
}

/// The caches that make replaying a slot of a [`Trace`] `O(1)`–
/// `O(log degree)` instead of `O(degree)`.
///
/// Built from one full contraction's trace by [`Replay::new`], then kept
/// valid by [`Replay::propagate`], and across a structure phase by
/// [`Replay::relay`] and the propagation after it.
#[derive(Clone)]
pub(crate) struct Replay<A: Propagate> {
    /// Aggregated child contributions per node (minus the surviving
    /// chain's slot for compressed nodes).
    kids: Kids<A>,
    /// Whether a slot is scheduled in the current pass, and whether its
    /// splice chain is refolded first; each is cleared as its slot drains.
    affected: Vec<bool>,
    refold: Vec<bool>,
    /// The current pass's scheduled slots, one bucket per death round.
    /// Every bucket is empty between passes and keeps its capacity.
    due: Vec<Vec<u32>>,
}

impl<A: Propagate> Replay<A> {
    /// Builds every cache from `trace`, which must be the completed trace
    /// of a full contraction, in one pass over its raked nodes.
    ///
    /// Every child slot of a node is absorbed by exactly one rake into it,
    /// except the slot of the chain that spliced a compressed node out (that
    /// chain contributes at the grandparent instead, so its slot stays
    /// empty). The rake of `u` delivered `apply(fun[u], val)` at the slot
    /// its record names in `up[u]`: the final value of the original child
    /// at that slot, since `fun[u]` composes the spliced chain above `u`.
    /// So the rakes alone fill every aggregate, and they size the sibling
    /// trees too: a node's degree is the rakes into it, plus one if it was
    /// compressed. `O(n + trace)`.
    pub fn new(alg: &A, trace: &Trace<A>) -> Self {
        let Trace { links, death, fun } = trace;
        let (n, up) = (death.len(), &links.up);
        let rakes = (0..n).filter_map(|u| match &death[u] {
            Death::Raked { val, slot } => Some((up[u], *slot, alg.apply(&fun[u], val.clone()))),
            _ => None,
        });
        let kids = if A::INVERTIBLE {
            let mut parts = vec![alg.part_empty(); n];
            for (p, slot, c) in rakes {
                let p = p as usize;
                parts[p] = alg.part_merge(&parts[p], &alg.part_of(slot, c));
            }
            Kids::Flat(parts)
        } else {
            let mut degree = vec![0u32; n];
            for (u, d) in death.iter().enumerate() {
                match d {
                    Death::Raked { .. } => degree[up[u] as usize] += 1,
                    Death::Compressed { .. } => degree[u] += 1,
                    _ => {}
                }
            }
            let mut trees = Csr::default();
            let lens = degree.into_iter().map(|d| tree_len(d as usize));
            trees.lay_out(lens, alg.part_empty());
            for (p, slot, c) in rakes {
                let tree = trees.of_mut(p);
                tree[tree.len() / 2 + slot as usize] = alg.part_of(slot, c);
            }
            for p in 0..n as u32 {
                merge_up(alg, trees.of_mut(p));
            }
            Kids::Trees(trees)
        };
        Replay {
            kids,
            affected: vec![false; n],
            refold: vec![false; n],
            due: Vec::new(),
        }
    }

    /// Whether the child aggregate of `u` equals `other`'s part for part:
    /// the merged part, or every entry of the sibling tree (`check`
    /// feature).
    #[cfg(feature = "check")]
    pub fn same_kids(&self, other: &Self, u: u32) -> bool
    where
        A::Part: PartialEq,
    {
        match (&self.kids, &other.kids) {
            (Kids::Flat(a), Kids::Flat(b)) => a[u as usize] == b[u as usize],
            (Kids::Trees(a), Kids::Trees(b)) => a.of(u) == b.of(u),
            _ => false,
        }
    }

    /// After a structure phase's commit: lays out afresh the aggregate of
    /// every parent in `parents` (those whose children, raked children or
    /// their slots may have changed), and lists them in `seeds`. It walks a
    /// parent's child list in id order, steps each child down to its raked
    /// end, writes the child's position into that rake's record as its
    /// slot, and puts the rake's contribution at that slot. A rewritten
    /// rake contributes its placeholder value; propagation, seeded with
    /// these parents and the rewritten nodes, replaces it by the real one.
    /// `O(degree)` per parent.
    pub fn relay(
        &mut self,
        alg: &A,
        trace: &mut Trace<A>,
        lists: &Lists,
        parents: &[u32],
        seeds: &mut Vec<u32>,
    ) {
        let Trace { links, death, fun } = trace;
        for &p in parents {
            let children = lists.children.of(p);
            let mut ends = 0;
            let contributions = (0u32..).zip(children).filter_map(|(at, &c)| {
                let x = links.raked_end(death, c, p)? as usize;
                let Death::Raked { val, slot } = &mut death[x] else {
                    return None;
                };
                *slot = at;
                ends += 1;
                Some((at, alg.apply(&fun[x], val.clone())))
            });
            self.kids
                .relay(alg, p as usize, children.len(), contributions);
            let raked = lists.raked.of(p).len();
            invariant!(
                ends == raked,
                "the child chains of n{p} end in {ends} rakes, but {raked} raked into it"
            );
        }
        seeds.extend_from_slice(parents);
    }

    /// Replays the trace slots affected by the nodes in `dirty` (edited
    /// nodes, and after a structure phase the nodes and parents it
    /// changed), re-deriving the splice chain of every node in `refold`
    /// first, and rewrites death records and edge functions in place so
    /// that [`resolve_val`] afterwards returns post-edit values everywhere.
    ///
    /// Requires the caches to match `trace`: built from it, then kept by
    /// propagation passes and structure phases.
    pub fn propagate<S: Sink>(
        &mut self,
        alg: &A,
        forest: &Forest<A::Label>,
        trace: &mut Trace<A>,
        dirty: &[u32],
        refolds: &[u32],
        sink: &mut S,
    ) -> PropagateOutcome {
        let start = if S::ENABLED {
            Some(Instant::now())
        } else {
            None
        };
        let Replay {
            kids,
            affected,
            refold,
            due,
        } = self;
        let Trace { links, death, fun } = trace;

        for &u in refolds {
            refold[u as usize] = true;
        }
        for &u in dirty.iter().chain(refolds) {
            schedule(affected, due, links.round[u as usize], u);
        }

        // Dependencies always point to a strictly later death round, so one
        // ascending sweep over the buckets, each drained in place, replays
        // every affected slot exactly once.
        let (mut replayed, mut rounds, mut r, mut i) = (0, 0, 0, 0);
        while r < due.len() {
            let Some(&u) = due[r].get(i) else {
                rounds += u32::from(i > 0);
                replayed += i;
                due[r].clear();
                (r, i) = (r + 1, 0);
                continue;
            };
            i += 1;
            let ui = u as usize;
            affected[ui] = false;
            enum Slot<V> {
                Raked(u32, V),
                Compressed(u32),
                Root,
            }
            let slot = match &death[ui] {
                // The contribution the trace records, taken before a refold
                // rewrites the slot's edge function.
                Death::Raked { val, slot } => Slot::Raked(*slot, alg.apply(&fun[ui], val.clone())),
                Death::Compressed { child, .. } => Slot::Compressed(*child),
                Death::Root(_) => Slot::Root,
                // lint:allow(panic): the replay was built from a completed trace
                Death::None => unreachable!("propagation reached a node without a death record"),
            };
            if std::mem::take(&mut refold[ui]) {
                refold_chain(alg, forest, links.hops.of(u), kids, death, fun, u);
            }
            let next = match slot {
                Slot::Raked(slot, old) => {
                    let mut acc = alg.init_acc(forest.label(NodeId(u)));
                    alg.absorb_part(&mut acc, kids.root(ui));
                    let val = alg.finish(&acc);
                    let new = alg.apply(&fun[ui], val.clone());
                    death[ui] = Death::Raked { val, slot };
                    // Equal contributions cut the wave off: everything above
                    // is reused as-is.
                    (new != old).then(|| {
                        kids.patch(alg, links.up[ui] as usize, slot, old, new);
                        links.up[ui]
                    })
                }
                // The victim's label or children feed the survivor's composed
                // function; re-derive the whole chain when the survivor drains.
                Slot::Compressed(child) => {
                    refold[child as usize] = true;
                    Some(child)
                }
                Slot::Root => {
                    let mut acc = alg.init_acc(forest.label(NodeId(u)));
                    alg.absorb_part(&mut acc, kids.root(ui));
                    death[ui] = Death::Root(alg.finish(&acc));
                    None
                }
            };
            if let Some(v) = next {
                let stamp = links.round[v as usize];
                invariant!(stamp as usize > r, "n{v} does not die after n{u}");
                schedule(affected, due, stamp, v);
            }
        }

        if let Some(t) = start {
            sink.phase(Phase::Propagate, t.elapsed().as_nanos() as u64);
        }
        PropagateOutcome { replayed, rounds }
    }
}

/// Puts `u` in the bucket of its death round `stamp` unless it is already
/// scheduled. Its flag is cleared when it drains, and no slot of a swept
/// round is scheduled again, so each slot drains at most once.
#[inline]
fn schedule(affected: &mut [bool], due: &mut Vec<Vec<u32>>, stamp: u32, u: u32) {
    if !affected[u as usize] {
        affected[u as usize] = true;
        let r = stamp as usize;
        if r >= due.len() {
            due.resize_with(r + 1, Vec::new);
        }
        due[r].push(u);
    }
}

/// Re-derives the composed functions of `x`'s splice chain, exactly as the
/// engine built them: walking `x`'s hop list `victims` bottom-to-top, each
/// victim's recorded function becomes `to_fun(acc(victim)) ∘ f` (where `f`
/// is the composition so far) and `x`'s edge function accumulates
/// `fun(victim) ∘ that`. Rewrites the victims' death records and `x`'s
/// edge function in place.
fn refold_chain<A: Propagate>(
    alg: &A,
    forest: &Forest<A::Label>,
    victims: &[u32],
    kids: &Kids<A>,
    death: &mut [Death<A>],
    fun: &mut [A::Fun],
    x: u32,
) {
    let mut f = alg.identity();
    for &v in victims {
        let vi = v as usize;
        let mut acc = alg.init_acc(forest.label(NodeId(v)));
        alg.absorb_part(&mut acc, kids.root(vi));
        let g = alg.compose(&alg.to_fun(&acc), &f);
        f = alg.compose(&fun[vi], &g);
        death[vi] = Death::Compressed { child: x, fun: g };
    }
    fun[x as usize] = f;
}

#[cfg(test)]
mod tests {
    use crate::engine::Death;
    use crate::{gen, DynForest, NodeId, SubtreeSum};

    /// A dependent that dies no later than the slot scheduling it would be
    /// dropped by the ascending sweep, whose bucket is already being
    /// drained; the drain stops on it instead.
    #[test]
    #[should_panic(expected = "invariant violated")]
    fn a_dependent_in_the_draining_round_is_refused() {
        let mut d = DynForest::with_seed(gen::random_tree(64, 3), SubtreeSum, 7);
        let u = (0..64)
            .find(|&u| matches!(d.trace.death[u], Death::Raked { .. }))
            .unwrap();
        let links = &mut d.trace.links;
        links.round[links.up[u] as usize] = links.round[u];
        let v = NodeId::from_index(u);
        let label = *d.forest().label(v);
        d.batch_update_weights(&[(v, label + 1)]).unwrap();
        d.recompute();
    }
}
