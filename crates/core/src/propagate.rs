//! Change propagation over the recorded contraction trace.
//!
//! The round-stamped death trace left behind by a full contraction is a
//! dependency DAG: every rake delivered a contribution to the victim's
//! working parent, and every splice folded a victim's unary function into
//! the surviving chain. [`Replay`] materializes that DAG once — per-slot
//! cached results plus, for every node, an aggregate of its children's
//! contributions — and then re-executes **only the slots whose inputs
//! changed** when a batch of label edits lands:
//!
//! 1. every edited node is seeded into a priority queue keyed by its death
//!    round;
//! 2. slots drain in ascending death round. A raked slot re-runs its fold;
//!    if the recomputed contribution equals the cached one the wave *cuts
//!    off*, otherwise the parent's child-aggregate is patched and the
//!    parent is scheduled. A compressed slot schedules its surviving child
//!    with a pending *refold* (the chain's composed functions are
//!    re-derived bottom-to-top). A root slot re-finishes its value.
//!
//! Because rake victims die strictly before their targets and splice
//! victims strictly before their survivors, every dependency points to a
//! strictly later death round: the single ascending drain processes each
//! slot at most once, and a wave dies out after `O(rounds)` hops — the
//! depth-independence the static round structure was recorded for.
//!
//! Only label edits propagate. A cut or link changes the shape the trace
//! describes, so the dynamic layer contracts the whole forest again under
//! the same coins and calls [`Replay::rebuild`]; the trace it then holds is
//! exactly the one a fresh contraction with that seed records.
//!
//! Child aggregates come in two flavours, chosen by
//! [`Propagate::INVERTIBLE`]:
//!
//! * **flat** — invertible algebras (e.g. [`SubtreeSum`](crate::SubtreeSum))
//!   keep one merged `Part` per node and patch a changed child by
//!   subtract/re-add in `O(1)`;
//! * **sibling tree** — non-invertible algebras keep a balanced binary
//!   tree over the child slots ([`SibTree`]) and replay an `O(log degree)`
//!   leaf-to-root path, so even a 10⁵-ary star patches one child without
//!   refolding the other 10⁵ − 1.

use crate::algebra::{Algebra, Propagate};
use crate::arena::{ChildCsr, Forest};
use crate::engine::{Death, Scratch};
use crate::obs::{Phase, Sink};
use crate::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
            Death::Raked(val) | Death::Root(val) => return alg.apply(&f, val.clone()),
            Death::Compressed { child, fun } => {
                f = alg.compose(&f, fun);
                u = *child as usize;
            }
            // lint:allow(panic): resolution only runs on completed traces, where every node carries a death record
            Death::None => unreachable!("resolve_val on a node without a death record"),
        }
    }
}

/// Balanced sibling-accumulation tree over one node's child slots.
///
/// A 1-based heap-shaped array: leaves live at `size + slot` (padded to a
/// power of two with [`Propagate::part_empty`]), internal nodes hold the
/// merge of their children with lower slots on the left, so the root is
/// the in-order aggregate of every slot. Patching one slot remerges only
/// the leaf-to-root path: `O(log degree)`.
#[derive(Clone)]
pub(crate) struct SibTree<P> {
    /// Leaf capacity (power of two, ≥ 1); the root sits at index 1.
    size: usize,
    nodes: Vec<P>,
}

impl<P: Clone> SibTree<P> {
    fn build<A: Propagate<Part = P>>(alg: &A, leaves: Vec<P>) -> Self {
        let size = leaves.len().next_power_of_two().max(1);
        let mut nodes = vec![alg.part_empty(); 2 * size];
        for (i, leaf) in leaves.into_iter().enumerate() {
            nodes[size + i] = leaf;
        }
        for i in (1..size).rev() {
            nodes[i] = alg.part_merge(&nodes[2 * i], &nodes[2 * i + 1]);
        }
        SibTree { size, nodes }
    }

    fn set<A: Propagate<Part = P>>(&mut self, alg: &A, slot: u32, part: P) {
        let mut i = self.size + slot as usize;
        self.nodes[i] = part;
        while i > 1 {
            i >>= 1;
            self.nodes[i] = alg.part_merge(&self.nodes[2 * i], &self.nodes[2 * i + 1]);
        }
    }

    fn root(&self) -> &P {
        &self.nodes[1]
    }
}

/// Per-node aggregates of child contributions, strategy picked at build
/// time by [`Propagate::INVERTIBLE`].
#[derive(Clone)]
pub(crate) enum Kids<A: Propagate> {
    /// One merged `Part` per node; patched by subtract/re-add.
    Flat(Vec<A::Part>),
    /// One sibling tree per node; patched along a leaf-to-root path.
    Trees(Vec<SibTree<A::Part>>),
}

impl<A: Propagate> Kids<A> {
    fn root(&self, u: usize) -> &A::Part {
        match self {
            Kids::Flat(parts) => &parts[u],
            Kids::Trees(trees) => trees[u].root(),
        }
    }

    fn update(&mut self, alg: &A, u: usize, slot: u32, old: A::Val, new: A::Val) {
        match self {
            Kids::Flat(parts) => {
                alg.part_remove(&mut parts[u], slot, old);
                let add = alg.part_of(slot, new);
                parts[u] = alg.part_merge(&parts[u], &add);
            }
            Kids::Trees(trees) => trees[u].set(alg, slot, alg.part_of(slot, new)),
        }
    }
}

/// What one propagation pass did, for [`UpdateStats`](crate::UpdateStats).
pub(crate) struct PropagateOutcome {
    /// Trace slots re-executed (every other slot's result was reused).
    pub replayed: usize,
    /// Distinct death rounds the wave touched — its depth in the trace DAG.
    pub rounds: u32,
}

/// The contraction trace reshaped for replay, plus the caches that make
/// replaying a slot `O(1)`–`O(log degree)` instead of `O(degree)`.
///
/// Built from one full contraction's scratch state by [`Replay::rebuild`],
/// and kept valid by [`Replay::propagate`] across label-only batches. A
/// structural batch changes the shape the tables describe, so the dynamic
/// layer contracts again and rebuilds them.
pub(crate) struct Replay<A: Propagate> {
    /// Child adjacency of the shape the tables were built from; rebuilt in
    /// place, so a rebuild does not reallocate it.
    children: ChildCsr,
    /// Cached contribution each raked node delivered to its working
    /// parent (`None` for compressed nodes and roots, which deliver
    /// through composed functions instead).
    contrib: Vec<Option<A::Val>>,
    /// For every survivor, the nodes spliced onto it, in ascending death
    /// round — bottom-to-top along the original path, the order their
    /// functions compose in.
    victims: Vec<Vec<u32>>,
    /// Aggregated child contributions per node (minus the surviving
    /// chain's slot for compressed nodes).
    kids: Kids<A>,
    /// Scheduling flags for the current pass; always reset before return.
    affected: Vec<bool>,
    refold: Vec<bool>,
}

impl<A: Propagate> Replay<A> {
    pub fn new() -> Self {
        Replay {
            children: ChildCsr::default(),
            contrib: Vec::new(),
            victims: Vec::new(),
            kids: Kids::Flat(Vec::new()),
            affected: Vec::new(),
            refold: Vec::new(),
        }
    }

    /// Rebuilds every table from `scratch`, which must hold the completed
    /// trace of a full contraction of `forest`. `O(n + trace)` using one
    /// backsolve sweep for child values.
    pub fn rebuild(&mut self, alg: &A, forest: &Forest<A::Label>, scratch: &Scratch<A>) {
        let n = forest.len();
        self.children.rebuild(forest);
        self.contrib.clear();
        self.contrib.resize(n, None);
        self.victims.clear();
        self.victims.resize(n, Vec::new());
        self.affected.clear();
        self.affected.resize(n, false);
        self.refold.clear();
        self.refold.resize(n, false);

        // `death_order` is chronological, so each victim list comes out in
        // ascending death round without sorting.
        for &u in &scratch.death_order {
            if let Death::Compressed { child, .. } = &scratch.death[u as usize] {
                self.victims[*child as usize].push(u);
            }
        }

        let mut vals: Vec<Option<A::Val>> = vec![None; n];
        scratch.backsolve(alg, &mut vals);
        for u in 0..n {
            if let Death::Raked(val) = &scratch.death[u] {
                let fun = scratch.fun[u]
                    .as_ref()
                    // lint:allow(panic): every raked node carried an edge function at death
                    .expect("raked node has an edge function");
                self.contrib[u] = Some(alg.apply(fun, val.clone()));
            }
        }

        // A compressed node's aggregate excludes the slot of the chain
        // that spliced it out — that chain outlives it and contributes at
        // the grandparent instead.
        let gap_of = |p: usize| match &scratch.death[p] {
            Death::Compressed { .. } => Some(scratch.gap[p]),
            _ => None,
        };
        let child_val = |vals: &[Option<A::Val>], c: u32| {
            vals[c as usize]
                .clone()
                // lint:allow(panic): a full-trace backsolve resolves every node
                .expect("backsolve resolved every child")
        };
        let children = &self.children;
        self.kids = if A::INVERTIBLE {
            let mut parts = Vec::with_capacity(n);
            for p in 0..n {
                let (kids, gap) = (children.of(p as u32), gap_of(p));
                let mut part = alg.part_empty();
                for (i, &c) in kids.iter().enumerate() {
                    if gap == Some(i as u32) {
                        continue;
                    }
                    let add = alg.part_of(i as u32, child_val(&vals, c));
                    part = alg.part_merge(&part, &add);
                }
                parts.push(part);
            }
            Kids::Flat(parts)
        } else {
            let mut trees = Vec::with_capacity(n);
            for p in 0..n {
                let (kids, gap) = (children.of(p as u32), gap_of(p));
                let leaves: Vec<A::Part> = kids
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| {
                        if gap == Some(i as u32) {
                            alg.part_empty()
                        } else {
                            alg.part_of(i as u32, child_val(&vals, c))
                        }
                    })
                    .collect();
                trees.push(SibTree::build(alg, leaves));
            }
            Kids::Trees(trees)
        };
    }

    /// Replays the trace slots affected by the edited nodes in `dirty`,
    /// updating death records (and caches) in place so that
    /// [`resolve_val`] afterwards returns post-edit values everywhere.
    ///
    /// Requires the trace in `scratch` to be the one the tables were
    /// rebuilt from, modulo earlier propagation passes.
    pub fn propagate<S: Sink>(
        &mut self,
        alg: &A,
        forest: &Forest<A::Label>,
        scratch: &mut Scratch<A>,
        dirty: &[u32],
        sink: &mut S,
    ) -> PropagateOutcome {
        let start = if S::ENABLED {
            Some(Instant::now())
        } else {
            None
        };
        let Replay {
            contrib,
            victims,
            kids,
            affected,
            refold,
            ..
        } = self;

        // Min-heap on (death round, node): dependencies always point to a
        // strictly later round, so one ascending drain visits each
        // affected slot exactly once.
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        for &u in dirty {
            schedule(affected, &mut heap, scratch.death_round[u as usize], u);
        }

        let mut processed: Vec<u32> = Vec::new();
        let (mut rounds, mut last) = (0u32, 0u32);
        while let Some(Reverse((stamp, u))) = heap.pop() {
            let ui = u as usize;
            processed.push(u);
            if rounds == 0 || stamp != last {
                rounds += 1;
                last = stamp;
            }
            if refold[ui] {
                refold_chain(alg, forest, victims, kids, scratch, u);
            }
            enum Slot {
                Raked,
                Compressed(u32),
                Root,
            }
            let slot = match &scratch.death[ui] {
                Death::Raked(_) => Slot::Raked,
                Death::Compressed { child, .. } => Slot::Compressed(*child),
                Death::Root(_) => Slot::Root,
                // lint:allow(panic): the replay was built from a completed trace
                Death::None => unreachable!("propagation reached a node without a death record"),
            };
            match slot {
                Slot::Raked => {
                    let mut acc = alg.init_acc(forest.label(NodeId(u)));
                    alg.absorb_part(&mut acc, kids.root(ui));
                    let val = alg.finish(&acc);
                    let new = alg.apply(
                        scratch.fun[ui]
                            .as_ref()
                            // lint:allow(panic): every raked node carried an edge function at death
                            .expect("raked node has an edge function"),
                        val.clone(),
                    );
                    scratch.death[ui] = Death::Raked(val);
                    if contrib[ui].as_ref() != Some(&new) {
                        let old = contrib[ui]
                            .replace(new.clone())
                            // lint:allow(panic): rebuild caches a contribution for every raked node
                            .expect("raked node has a cached contribution");
                        let p = scratch.death_parent[ui];
                        kids.update(alg, p as usize, scratch.sib[ui], old, new);
                        schedule(affected, &mut heap, scratch.death_round[p as usize], p);
                    }
                    // else: the recorded result still holds — the wave cuts
                    // off and everything above is reused as-is.
                }
                Slot::Compressed(child) => {
                    // The victim's label or children feed the survivor's
                    // composed function; re-derive the whole chain when the
                    // survivor drains (it dies strictly later).
                    refold[child as usize] = true;
                    schedule(
                        affected,
                        &mut heap,
                        scratch.death_round[child as usize],
                        child,
                    );
                }
                Slot::Root => {
                    let mut acc = alg.init_acc(forest.label(NodeId(u)));
                    alg.absorb_part(&mut acc, kids.root(ui));
                    scratch.death[ui] = Death::Root(alg.finish(&acc));
                }
            }
        }

        let replayed = processed.len();
        for u in processed {
            affected[u as usize] = false;
            refold[u as usize] = false;
        }
        if let Some(t) = start {
            sink.phase(Phase::Propagate, t.elapsed().as_nanos() as u64);
        }
        PropagateOutcome { replayed, rounds }
    }
}

/// Enqueues `u` at its death-round `stamp` unless already scheduled; the
/// flag is never reset mid-pass, so each slot drains at most once.
#[inline]
fn schedule(affected: &mut [bool], heap: &mut BinaryHeap<Reverse<(u32, u32)>>, stamp: u32, u: u32) {
    if !affected[u as usize] {
        affected[u as usize] = true;
        heap.push(Reverse((stamp, u)));
    }
}

/// Re-derives the composed functions of `x`'s splice chain, exactly as the
/// engine built them: walking the victims bottom-to-top, each victim's
/// recorded function becomes `to_fun(acc(victim)) ∘ f` (where `f` is the
/// composition so far) and `x`'s edge function accumulates
/// `fun(victim) ∘ that`. Rewrites the victims' death records and `x`'s
/// edge function in place.
fn refold_chain<A: Propagate>(
    alg: &A,
    forest: &Forest<A::Label>,
    victims: &[Vec<u32>],
    kids: &Kids<A>,
    scratch: &mut Scratch<A>,
    x: u32,
) {
    let mut f = alg.identity();
    for &v in &victims[x as usize] {
        let vi = v as usize;
        let mut acc = alg.init_acc(forest.label(NodeId(v)));
        alg.absorb_part(&mut acc, kids.root(vi));
        let g = alg.compose(&alg.to_fun(&acc), &f);
        let fv = scratch.fun[vi]
            .as_ref()
            // lint:allow(panic): every victim carried an edge function at death
            .expect("victim has an edge function")
            .clone();
        scratch.death[vi] = Death::Compressed {
            child: x,
            fun: g.clone(),
        };
        f = alg.compose(&fv, &g);
    }
    scratch.fun[x as usize] = Some(f);
}

impl<A: Propagate> Clone for Replay<A> {
    fn clone(&self) -> Self {
        Replay {
            children: self.children.clone(),
            contrib: self.contrib.clone(),
            victims: self.victims.clone(),
            kids: self.kids.clone(),
            affected: self.affected.clone(),
            refold: self.refold.clone(),
        }
    }
}
