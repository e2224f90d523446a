//! Change propagation over the recorded contraction trace.
//!
//! The round-stamped death trace left behind by a full contraction is a
//! dependency DAG: every rake delivered a contribution to the victim's
//! working parent, and every splice folded a victim's unary function into
//! the surviving chain. [`Replay`] caches what replaying a slot needs on
//! top of that [`Trace`] — per-slot contributions plus, for every node, an
//! aggregate of its children's contributions — and then re-executes **only
//! the slots whose inputs changed** when a batch of label edits lands,
//! rewriting the trace in place:
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
//! * **sibling trees** — non-invertible algebras keep a balanced binary
//!   tree over each node's child slots, all laid out in one buffer, and
//!   replay an `O(log degree)` leaf-to-root path, so even a 10⁵-ary star
//!   patches one child without refolding the other 10⁵ − 1.

use crate::algebra::{Algebra, Propagate};
use crate::arena::Forest;
use crate::engine::{Death, Trace};
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

/// Per-node aggregates of child contributions, strategy picked at build
/// time by [`Propagate::INVERTIBLE`].
#[derive(Clone)]
pub(crate) enum Kids<A: Propagate> {
    /// One merged `Part` per node; patched by subtract/re-add.
    Flat(Vec<A::Part>),
    /// One balanced sibling-accumulation tree per node, all in one buffer:
    /// node `p`'s tree is `parts[off[p]..off[p + 1]]`, a 0-based heap of
    /// `2 × size − 1` entries (`size` the degree rounded up to a power of
    /// two, 1 for a childless node) with the leaf of child slot `s` at
    /// `size − 1 + s`, padded with [`Propagate::part_empty`]. Entry `i`
    /// merges entries `2i + 1` and `2i + 2`, lower slots on the left, so
    /// entry 0 is the in-order aggregate of every slot, and patching one
    /// slot remerges only its leaf-to-root path: `O(log degree)`. The trees
    /// hold up to about `5n` parts, so the offsets are `usize`.
    Trees {
        off: Vec<usize>,
        parts: Vec<A::Part>,
    },
}

impl<A: Propagate> Kids<A> {
    fn root(&self, u: usize) -> &A::Part {
        match self {
            Kids::Flat(parts) => &parts[u],
            Kids::Trees { off, parts } => &parts[off[u]],
        }
    }

    fn update(&mut self, alg: &A, u: usize, slot: u32, old: A::Val, new: A::Val) {
        match self {
            Kids::Flat(parts) => {
                alg.part_remove(&mut parts[u], slot, old);
                let add = alg.part_of(slot, new);
                parts[u] = alg.part_merge(&parts[u], &add);
            }
            Kids::Trees { off, parts } => {
                let tree = &mut parts[off[u]..off[u + 1]];
                let mut i = tree.len() / 2 + slot as usize;
                tree[i] = alg.part_of(slot, new);
                while i > 0 {
                    i = (i - 1) / 2;
                    tree[i] = alg.part_merge(&tree[2 * i + 1], &tree[2 * i + 2]);
                }
            }
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

/// The caches that make replaying a slot of a [`Trace`] `O(1)`–
/// `O(log degree)` instead of `O(degree)`.
///
/// Built from one full contraction's trace by [`Replay::rebuild`], and kept
/// valid by [`Replay::propagate`] across label-only batches. A structural
/// batch changes the shape the trace describes, so the dynamic layer
/// contracts again and rebuilds the caches.
#[derive(Clone)]
pub(crate) struct Replay<A: Propagate> {
    /// Cached contribution each raked node delivered to its working
    /// parent (`None` for compressed nodes and roots, which deliver
    /// through composed functions instead).
    contrib: Vec<Option<A::Val>>,
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
            contrib: Vec::new(),
            kids: Kids::Flat(Vec::new()),
            affected: Vec::new(),
            refold: Vec::new(),
        }
    }

    /// Rebuilds every cache from `trace`, which must be the completed trace
    /// of a full contraction. `O(n + trace)` using one backsolve sweep for
    /// child values.
    pub fn rebuild(&mut self, alg: &A, trace: &Trace<A>) {
        let n = trace.death.len();
        self.contrib.clear();
        self.contrib.resize(n, None);
        self.affected.clear();
        self.affected.resize(n, false);
        self.refold.clear();
        self.refold.resize(n, false);

        let vals = trace.backsolve(alg);
        for u in 0..n {
            if let Death::Raked(val) = &trace.death[u] {
                self.contrib[u] = Some(alg.apply(&trace.fun[u], val.clone()));
            }
        }

        // A compressed node's aggregate excludes the slot of the chain
        // that spliced it out — that chain outlives it and contributes at
        // the grandparent instead.
        let gap_of = |p: usize| match &trace.death[p] {
            Death::Compressed { .. } => Some(trace.gap[p]),
            _ => None,
        };
        let children = &trace.links.children;
        self.kids = if A::INVERTIBLE {
            let mut parts = Vec::with_capacity(n);
            for p in 0..n {
                let (kids, gap) = (children.of(p as u32), gap_of(p));
                let mut part = alg.part_empty();
                for (i, &c) in kids.iter().enumerate() {
                    if gap == Some(i as u32) {
                        continue;
                    }
                    let add = alg.part_of(i as u32, vals[c as usize].clone());
                    part = alg.part_merge(&part, &add);
                }
                parts.push(part);
            }
            Kids::Flat(parts)
        } else {
            let mut off = Vec::with_capacity(n + 1);
            off.push(0);
            for p in 0..n {
                let size = children.of(p as u32).len().next_power_of_two();
                off.push(off[p] + 2 * size - 1);
            }
            let mut parts = vec![alg.part_empty(); off[n]];
            for p in 0..n {
                let (kids, gap) = (children.of(p as u32), gap_of(p));
                let tree = &mut parts[off[p]..off[p + 1]];
                let first_leaf = tree.len() / 2;
                for (i, &c) in kids.iter().enumerate() {
                    if gap != Some(i as u32) {
                        tree[first_leaf + i] = alg.part_of(i as u32, vals[c as usize].clone());
                    }
                }
                for i in (0..first_leaf).rev() {
                    tree[i] = alg.part_merge(&tree[2 * i + 1], &tree[2 * i + 2]);
                }
            }
            Kids::Trees { off, parts }
        };
    }

    /// Replays the trace slots affected by the edited nodes in `dirty`,
    /// rewriting death records and edge functions in place so that
    /// [`resolve_val`] afterwards returns post-edit values everywhere.
    ///
    /// Requires `trace` to be the one the caches were rebuilt from, modulo
    /// earlier propagation passes.
    pub fn propagate<S: Sink>(
        &mut self,
        alg: &A,
        forest: &Forest<A::Label>,
        trace: &mut Trace<A>,
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
            kids,
            affected,
            refold,
        } = self;
        let Trace {
            links,
            death,
            fun,
            sib,
            ..
        } = trace;

        // Min-heap on (death round, node): dependencies always point to a
        // strictly later round, so one ascending drain visits each
        // affected slot exactly once.
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        for &u in dirty {
            schedule(affected, &mut heap, links.round[u as usize], u);
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
                refold_chain(alg, forest, links.hops.of(u), kids, death, fun, u);
            }
            enum Slot {
                Raked,
                Compressed(u32),
                Root,
            }
            let slot = match &death[ui] {
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
                    let new = alg.apply(&fun[ui], val.clone());
                    death[ui] = Death::Raked(val);
                    if contrib[ui].as_ref() != Some(&new) {
                        let old = contrib[ui]
                            .replace(new.clone())
                            // lint:allow(panic): rebuild caches a contribution for every raked node
                            .expect("raked node has a cached contribution");
                        let p = links.up[ui];
                        kids.update(alg, p as usize, sib[ui], old, new);
                        schedule(affected, &mut heap, links.round[p as usize], p);
                    }
                    // else: the recorded result still holds — the wave cuts
                    // off and everything above is reused as-is.
                }
                Slot::Compressed(child) => {
                    // The victim's label or children feed the survivor's
                    // composed function; re-derive the whole chain when the
                    // survivor drains (it dies strictly later).
                    refold[child as usize] = true;
                    schedule(affected, &mut heap, links.round[child as usize], child);
                }
                Slot::Root => {
                    let mut acc = alg.init_acc(forest.label(NodeId(u)));
                    alg.absorb_part(&mut acc, kids.root(ui));
                    death[ui] = Death::Root(alg.finish(&acc));
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
