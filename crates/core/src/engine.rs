//! The rake/compress contraction engine.
//!
//! The engine runs classic Miller–Reif tree contraction over every node of
//! a forest: [`record`] contracts it and returns the [`Trace`] the run
//! recorded. Static contraction and the dynamic layer's initial build run
//! the same code on the same input, so under one coin seed both record the
//! same trace. After a cut or link the dynamic layer re-runs [`decide`]
//! only on the nodes the edits disturbed, reading every other node's round
//! state back from the trace through [`Recorded`], so it too keeps the
//! trace a fresh run records.
//!
//! Each round proceeds in two phases:
//!
//! 1. **Plan** (read-only, parallelized when the `parallel` feature is on):
//!    every live node inspects its local neighbourhood and picks one action:
//!    * `Finish` — it is a childless root; its accumulator is its value.
//!    * `Rake` — it is a childless non-root; fold its value into the parent.
//!    * `Splice` — it proposes compressing its *parent* `v`: `v` is unary
//!      (this node is the only child), `v` is not a root, `v` flipped heads
//!      and `v`'s parent flipped tails this round. The coin condition is a
//!      randomized independent set on chains: no two adjacent nodes are
//!      spliced in the same round, so all planned actions commute.
//! 2. **Apply** (sequential): execute the planned actions. Rake absorbs the
//!    child's contribution into the parent accumulator; splice composes the
//!    victim's unary function into the surviving edge and reattaches the
//!    child to its grandparent.
//!
//! A run records into one [`Trace`], the only record of a contraction the
//! crate keeps: every death is stamped with its round (`Death`), forming
//! the round-stamped contraction DAG, every rake records the sibling slot
//! its contribution landed at, and the run ends by grouping the compressed
//! nodes into hop lists. The trace's algebra-independent part, [`Links`],
//! is what the query engine reads with the death records. The trace holds
//! no child lists: only the dynamic layer's structure phase reads them, so
//! a forest's first structural batch derives them from the trace, with the
//! raked-child lists, as [`Lists`]. A replay of the trace in
//! descending death round ([`Trace::backsolve`]) recovers the final subtree
//! value of *every* node, not just the roots; only
//! [`Contraction::values`](crate::Contraction::values) needs it, since
//! reads and queries resolve values from the death records. The dynamic
//! layer's replay caches need no backsolve either: every rake recorded its
//! value, edge function and slot, which is all its contribution needs.
//! [`Contraction`](crate::Contraction) and [`DynForest`](crate::DynForest)
//! both own a `Trace`; the rest of the run's state, the death order
//! included, is working state that [`record`] drops or hands back.
//!
//! The run loop reports into a statically-dispatched [`Sink`]: per-round
//! `plan`/`apply` spans and a [`RoundCounters`] record (frontier size,
//! rakes, splices, finishes, coin rejections). All instrumentation is
//! guarded by `S::ENABLED`, so the default `NoopSink` path compiles to the
//! bare loop.

use crate::algebra::Algebra;
use crate::arena::{Csr, Forest, NONE};
use crate::check::{self, invariant, Cell, WriteMode};
use crate::obs::{Phase, RoundCounters, Sink};
use crate::par;
use crate::rng::coin;
use std::time::Instant;

/// Per-round action chosen by a live node during the plan phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Action {
    #[default]
    None,
    /// Childless root: record its component value and retire it.
    Finish,
    /// Childless non-root: fold into the parent and retire.
    Rake,
    /// Splice out this node's (unary) parent.
    Splice,
    /// Splice preconditions held but the coin toss failed; behaves like
    /// `None` and exists only so enabled sinks can count rejections.
    CoinReject,
}

/// How a node left the contraction, with everything needed to backsolve its
/// final subtree value and to replay its contribution.
#[derive(Debug, Clone)]
pub(crate) enum Death<A: Algebra> {
    /// Not yet contracted.
    None,
    /// Raked: the node's final value `val` was already known at death, and
    /// its contribution landed at child slot `slot` of its death parent.
    /// The slot is passed to [`Algebra::absorb_at`], so ordered
    /// (non-commutative) algebras reassemble children in child-list order
    /// although rakes retire siblings in any round order. It is the
    /// position, in the death parent's id-ordered child list, of the
    /// chain's top: a spliced-out node bequeaths its slot to its surviving
    /// child.
    Raked { val: A::Val, slot: u32 },
    /// Compressed: `val(self) = fun(val(child))`, where `child` strictly
    /// outlives this node.
    Compressed { child: u32, fun: A::Fun },
    /// A root whose contraction finished; its value is the component value.
    Root(A::Val),
}

/// The algebra-independent part of a [`Trace`]: the contraction's shortcut
/// structure, indexed by raw node id. It holds no values or functions, so
/// label propagation never changes it.
#[derive(Clone)]
pub(crate) struct Links {
    /// Round stamp per death (1-based; 0 = untouched).
    pub round: Vec<u32>,
    /// Working parent at the moment of death (`NONE` for finished roots).
    /// Because a node's working parent always strictly outlives it, these
    /// pointers form a shortcut tree of depth ≤ rounds — the spine of the
    /// contraction DAG that the batch query engine climbs.
    pub up: Vec<u32>,
    /// Hop lists: for every node `x`, the nodes that were spliced out from
    /// directly above it — its successive working parents, i.e. the
    /// original-tree ancestors lying strictly between `x` and `up[x]`, in
    /// ascending death round (equivalently, bottom-to-top along the
    /// original path, the order their functions compose in).
    ///
    /// Concatenating `x`, `hops.of(x)`, `up[x]`, its hop list, … therefore
    /// reconstructs `x`'s *entire* original ancestor path while only ever
    /// following `O(rounds)` shortcut pointers; this is what the batch
    /// query engine traverses and change propagation refolds.
    pub hops: Csr,
}

impl Links {
    /// The component root of `x`. Death parents are ancestors that die
    /// strictly later, and only a root finishes, so climbing them reaches
    /// it in `O(rounds)` steps however deep `x` sits.
    pub fn root(&self, mut x: u32) -> u32 {
        while self.up[x as usize] != NONE {
            x = self.up[x as usize];
        }
        x
    }

    /// The recorded parent of `x`, its working parent at round 1: the first
    /// node it spliced out, if any, else its death parent.
    pub fn parent(&self, x: u32) -> u32 {
        *self.hops.of(x).first().unwrap_or(&self.up[x as usize])
    }

    /// The *raked end* of the chain that `x` starts under `p`: the node of
    /// that chain that raked into `p`, found by stepping to the child that
    /// spliced a node out while that child also died under `p`. `None` when
    /// `x` did not die under `p` or the chain spliced `p` out too.
    pub fn raked_end<A: Algebra>(&self, death: &[Death<A>], mut x: u32, p: u32) -> Option<u32> {
        while self.up[x as usize] == p {
            match death[x as usize] {
                Death::Compressed { child, .. } => x = child,
                Death::Raked { .. } => return Some(x),
                _ => break,
            }
        }
        None
    }
}

/// The record of one contraction run: per-node death records and the
/// state each node died with, plus its [`Links`]. Indexed by raw node id.
#[derive(Clone)]
pub(crate) struct Trace<A: Algebra> {
    /// Death rounds, death parents and hop lists.
    pub links: Links,
    /// Death record per node.
    pub death: Vec<Death<A>>,
    /// Edge function towards the node's working parent, as it stood when
    /// the node died.
    pub fun: Vec<A::Fun>,
}

impl<A: Algebra> Trace<A> {
    /// Replays the death trace in reverse and returns the final subtree
    /// value of every node, indexed by node id. `compressed` lists every
    /// compressed node after the compressed node (if any) its record names
    /// as child: any descending-death-round order works, since that child
    /// outlives it.
    ///
    /// Raked nodes and finished roots knew their value at death; a
    /// compressed node's value is its recorded unary function applied to
    /// the value of the child that outlived it — which, in that order, is
    /// always already solved.
    pub fn backsolve(&self, alg: &A, compressed: impl Iterator<Item = u32>) -> Vec<A::Val> {
        let known = |d: &Death<A>| match d {
            Death::Raked { val, .. } | Death::Root(val) => Some(val.clone()),
            _ => None,
        };
        // Every component finishes a root, so a non-empty trace has a known
        // value; it stands in for compressed nodes until they are solved.
        let Some(filler) = self.death.iter().find_map(known) else {
            return Vec::new();
        };
        let mut out: Vec<A::Val> = self
            .death
            .iter()
            .map(|d| known(d).unwrap_or_else(|| filler.clone()))
            .collect();
        for u in compressed {
            if let Death::Compressed { child, fun } = &self.death[u as usize] {
                out[u as usize] = alg.apply(fun, out[*child as usize].clone());
            }
        }
        out
    }
}

/// The two lists the dynamic layer's structure phase reads and patches next
/// to a [`Trace`], indexed by raw node id. Reads, queries and propagation
/// need neither, so a forest builds them on its first structural batch.
#[derive(Clone)]
pub(crate) struct Lists {
    /// Child lists of the traced forest, each in id order — the order that
    /// numbers the sibling slots.
    pub children: Csr,
    /// The raked children of every node: group `p` lists the nodes whose
    /// record is `Raked` with death parent `p`, in ascending `(death round,
    /// id)`.
    pub raked: Csr,
}

impl Lists {
    /// Builds both lists from `trace` alone. A node is listed under its
    /// recorded parent ([`Links::parent`]), in id order, and is raked when
    /// its record says so. Three counting sorts, `O(n + rounds)`.
    pub fn new<A: Algebra>(trace: &Trace<A>) -> Lists {
        let Trace { links, death, .. } = trace;
        let n = death.len();
        let mut children = Csr::default();
        children.regroup(n, || {
            (0..n as u32).filter_map(|u| {
                let p = links.parent(u);
                (p != NONE).then_some((p, u))
            })
        });
        let rounds = links.round.iter().copied().max().unwrap_or(0) as usize;
        let mut by_round = Csr::default();
        by_round.regroup(rounds + 1, || {
            (0..n as u32).map(|u| (links.round[u as usize], u))
        });
        let mut raked = Csr::default();
        raked.regroup(n, || {
            by_round.items.iter().filter_map(|&u| {
                let raked = matches!(death[u as usize], Death::Raked { .. });
                raked.then_some((links.up[u as usize], u))
            })
        });
        Lists { children, raked }
    }
}

/// The round-by-round state of the run a [`Trace`] recorded, read back from
/// the trace alone: no per-round snapshot is stored. Death rounds say who
/// is alive, hop lists give the working parent, and the raked-child lists
/// (sorted by death round, see [`Lists`]) count the live children by binary
/// search. Every accessor asks about a node alive at
/// round `r`, the state *before* round `r`'s actions, as `decide` sees it.
pub(crate) struct Recorded<'a, A: Algebra> {
    pub links: &'a Links,
    pub death: &'a [Death<A>],
    pub raked: &'a Csr,
}

impl<'a, A: Algebra> Recorded<'a, A> {
    /// `true` when `u` is still alive at the start of round `r`.
    #[inline]
    pub fn alive(&self, u: u32, r: u32) -> bool {
        self.links.round[u as usize] >= r
    }

    /// The death round of `u`.
    #[inline]
    pub fn round(&self, u: u32) -> u32 {
        self.links.round[u as usize]
    }

    /// The working parent of `u` at round `r`: its parent changes only when
    /// `u` splices it out, so it is the first victim of `u` still alive at
    /// `r`, else the parent `u` died with.
    pub fn par(&self, u: u32, r: u32) -> u32 {
        let hops = self.links.hops.of(u);
        let i = hops.partition_point(|&v| self.round(v) < r);
        hops.get(i).copied().unwrap_or(self.links.up[u as usize])
    }

    /// The raked children of `u` still alive at round `r`.
    fn live_raked(&self, u: u32, r: u32) -> &[u32] {
        let raked = self.raked.of(u);
        &raked[raked.partition_point(|&x| self.round(x) < r)..]
    }

    /// The child that spliced `u` out, if `u` was compressed.
    #[inline]
    pub fn compressor(&self, u: u32) -> Option<u32> {
        match self.death[u as usize] {
            Death::Compressed { child, .. } => Some(child),
            _ => None,
        }
    }

    /// The live child count of `u` at round `r`: every working child's
    /// chain ends either in a rake into `u` or, for a compressed `u`, in the
    /// chain that splices `u` out, which lives as long as `u`.
    pub fn count(&self, u: u32, r: u32) -> u32 {
        let chain = self.compressor(u).is_some() && r <= self.round(u);
        self.live_raked(u, r).len() as u32 + u32::from(chain)
    }

    /// Rakes into `u` in round `r`.
    pub fn rakes_in(&self, u: u32, r: u32) -> u32 {
        let raked = self.raked.of(u);
        let lo = raked.partition_point(|&x| self.round(x) < r);
        let hi = raked.partition_point(|&x| self.round(x) <= r);
        (hi - lo) as u32
    }

    /// The working child of `u` at round `r` on the chain that ends at
    /// `end`, whose victims above it are `hops`: step to the last victim
    /// (the one directly below `u`) while it is still alive at `r`.
    fn chain_top(&self, end: u32, mut hops: &'a [u32], r: u32) -> u32 {
        let mut top = end;
        while let Some(&v) = hops.last().filter(|&&v| self.alive(v, r)) {
            top = v;
            hops = self.links.hops.of(v);
        }
        top
    }

    /// Pushes the working children of `u` at round `r` onto `out`, one per
    /// live child chain.
    pub fn children(&self, u: u32, r: u32, out: &mut Vec<u32>) {
        for &x in self.live_raked(u, r) {
            out.push(self.chain_top(x, self.links.hops.of(x), r));
        }
        out.extend(self.compressing_chain(u, r));
    }

    /// The working child of `u` at round `r` on the chain that splices `u`
    /// out, if `u` is compressed and alive at `r`. `u` is itself one of
    /// that chain's victims; only those below it are part of the chain under
    /// `u`.
    fn compressing_chain(&self, u: u32, r: u32) -> Option<u32> {
        let c = self.compressor(u).filter(|_| r <= self.round(u))?;
        let hops = self.links.hops.of(c);
        let below = hops.partition_point(|&v| self.round(v) < self.round(u));
        Some(self.chain_top(c, &hops[..below], r))
    }

    /// The unique working child of `u` at round `r`, when
    /// `count(u, r) == 1`.
    pub fn child(&self, u: u32, r: u32) -> Option<u32> {
        match self.live_raked(u, r).last() {
            Some(&x) => Some(self.chain_top(x, self.links.hops.of(x), r)),
            None => self.compressing_chain(u, r),
        }
    }
}

/// Contracts every node of `forest` under coin seed `seed`, reporting phase
/// spans and per-round counters into `sink`, and returns the trace the run
/// recorded, the nodes in death order (reversed, a valid backsolve order)
/// and the number of rounds. The run's other working buffers are dropped
/// before it returns.
///
/// Telemetry is statically dispatched: every instrumentation site is
/// guarded by `S::ENABLED`, so with [`crate::obs::NoopSink`] this compiles
/// to exactly the uninstrumented loop.
pub(crate) fn record<A: Algebra, S: Sink>(
    alg: &A,
    forest: &Forest<A::Label>,
    seed: u64,
    sink: &mut S,
) -> (Trace<A>, Vec<u32>, u32) {
    let mut scratch = Scratch::new(alg, forest);
    let rounds = scratch.run(alg, seed, sink);
    (scratch.trace, scratch.order, rounds)
}

/// One run's working state, indexed by raw node id, and the [`Trace`] the
/// run records into.
struct Scratch<A: Algebra> {
    /// Working copy of parent pointers (mutated by splices).
    par: Vec<u32>,
    /// Live child count.
    count: Vec<u32>,
    /// Working sibling slot: the node's position in its parent's id-ordered
    /// child list, inherited by a splice's survivor from its victim. A rake
    /// records it in its death record.
    sib: Vec<u32>,
    /// Partial accumulator.
    acc: Vec<A::Acc>,
    /// Liveness flag.
    alive: Vec<bool>,
    /// Nodes in death order; reversing it yields a valid backsolve order.
    order: Vec<u32>,
    /// What the run records.
    trace: Trace<A>,
}

impl<A: Algebra> Scratch<A> {
    /// Seeds the pre-contraction state of `forest`: each node's parent,
    /// live child count and sibling slot (children numbered in id order), a
    /// fresh accumulator and an identity edge function.
    fn new(alg: &A, forest: &Forest<A::Label>) -> Self {
        let n = forest.len();
        let par: Vec<u32> = (0..n as u32).map(|v| forest.parent_raw(v)).collect();
        let mut count = vec![0u32; n];
        let mut sib = vec![0u32; n];
        for (v, &p) in par.iter().enumerate() {
            if p != NONE {
                // Children appear in id order, so the running count is
                // exactly the node's position among its parent's children.
                sib[v] = count[p as usize];
                count[p as usize] += 1;
            }
        }
        // A run kills every node, overwriting its death record, round stamp
        // and death parent, and groups the hop lists.
        let links = Links {
            round: vec![0; n],
            up: vec![NONE; n],
            hops: Csr::default(),
        };
        let acc = forest.node_ids().map(|v| alg.init_acc(forest.label(v)));
        Scratch {
            par,
            count,
            sib,
            acc: acc.collect(),
            alive: vec![true; n],
            order: Vec::with_capacity(n),
            trace: Trace {
                links,
                death: (0..n).map(|_| Death::None).collect(),
                fun: vec![alg.identity(); n],
            },
        }
    }

    /// Runs rake/compress rounds until every node has died, reporting
    /// into `sink` as [`record`] describes, then builds the trace's hop
    /// lists. Returns the number of rounds.
    fn run<S: Sink>(&mut self, alg: &A, seed: u64, sink: &mut S) -> u32 {
        let mut live: Vec<u32> = (0..self.par.len() as u32).collect();
        let mut actions: Vec<Action> = Vec::new();
        let mut round: u32 = 0;
        // Shadow write-log for the conflict detector; field-less no-op
        // without the `check` feature (see `check.rs`).
        let mut wlog = check::WriteLog::new();

        // The loop needs no round cap, and `round` cannot overflow. Every
        // round retires every live childless node: `decide` returns
        // `Finish` or `Rake` whenever `count == 0`, apply executes both,
        // and such a node is never a splice victim (a victim is the parent
        // of the child that splices it). A node's working children are
        // original descendants, so by induction on height a node of
        // original height `h` dies by round `h + 1`: every descendant has
        // height below `h` and has died by round `h`, leaving the node
        // childless. A run therefore takes at most height + 1 ≤ n rounds,
        // and n < u32::MAX because node ids are `u32` with `NONE` reserved.
        // Under `check`, `check_round` asserts that each round retired a
        // node.
        while !live.is_empty() {
            round += 1;
            let frontier = live.len();
            let deaths_before = self.order.len();
            wlog.begin_round(round);

            // Plan: pure reads of the pre-round state; each slot is owned by
            // one node, so this parallelizes without synchronization.
            let plan_start = if S::ENABLED {
                Some(Instant::now())
            } else {
                None
            };
            actions.clear();
            actions.resize(live.len(), Action::None);
            {
                let (par, count, live) = (&self.par, &self.count, &live[..]);
                // Under `check`, every worker logs which action slots it
                // actually wrote; two workers on one slot fail the round.
                let plan_log = check::PlanLog::new();
                let plan_log = &plan_log;
                par::for_each_indexed(&mut actions, |i, slot| {
                    *slot = decide(par, count, seed, round, live[i]);
                    plan_log.record(live[i]);
                });
                check::must(plan_log.finish());
            }
            if let Some(t) = plan_start {
                sink.phase(Phase::Plan, t.elapsed().as_nanos() as u64);
            }

            // Apply: the coin condition guarantees all actions touch
            // disjoint state, so any order is correct.
            let apply_start = if S::ENABLED {
                Some(Instant::now())
            } else {
                None
            };
            let (mut rakes, mut splices, mut finishes, mut coin_rejections) =
                (0u32, 0u32, 0u32, 0u32);
            for (i, &action) in actions.iter().enumerate() {
                let u = live[i];
                let ui = u as usize;
                match action {
                    Action::None => {}
                    Action::CoinReject => {
                        if S::ENABLED {
                            coin_rejections += 1;
                        }
                    }
                    Action::Finish => {
                        if S::ENABLED {
                            finishes += 1;
                        }
                        let val = alg.finish(&self.acc[ui]);
                        check::must(wlog.record(Cell::Life(u), WriteMode::Exclusive, u as u64));
                        self.kill(u, round, Death::Root(val));
                    }
                    Action::Rake => {
                        if S::ENABLED {
                            rakes += 1;
                        }
                        let p = self.par[ui] as usize;
                        let val = alg.finish(&self.acc[ui]);
                        let contrib = alg.apply(&self.trace.fun[ui], val.clone());
                        let slot = self.sib[ui];
                        // Sibling rakes hit the same parent cells, but
                        // absorb/decrement commute — recorded as such.
                        check::must(wlog.record(Cell::Acc(p as u32), WriteMode::Absorb, u as u64));
                        check::must(wlog.record(
                            Cell::Count(p as u32),
                            WriteMode::Decrement,
                            u as u64,
                        ));
                        check::must(wlog.record(Cell::Life(u), WriteMode::Exclusive, u as u64));
                        alg.absorb_at(&mut self.acc[p], slot, contrib);
                        self.count[p] -= 1;
                        self.kill(u, round, Death::Raked { val, slot });
                    }
                    Action::Splice => {
                        // `u` splices out its unary parent `v`, reattaching
                        // itself to the grandparent. `g` maps val(u) to
                        // val(v); the new edge maps val(u) to v's old
                        // contribution at the grandparent.
                        if S::ENABLED {
                            splices += 1;
                        }
                        let v = self.par[ui];
                        let vi = v as usize;
                        let fun = &mut self.trace.fun;
                        let g = alg.compose(&alg.to_fun(&self.acc[vi]), &fun[ui]);
                        check::must(wlog.record(Cell::Fun(u), WriteMode::Exclusive, u as u64));
                        check::must(wlog.record(Cell::Par(u), WriteMode::Exclusive, u as u64));
                        check::must(wlog.record(Cell::Sib(u), WriteMode::Exclusive, u as u64));
                        check::must(wlog.record(Cell::Life(v), WriteMode::Exclusive, u as u64));
                        fun[ui] = alg.compose(&fun[vi], &g);
                        self.par[ui] = self.par[vi];
                        // `u` inherits the victim's slot in the grandparent's
                        // child order, keeping ordered rakes well-indexed.
                        self.sib[ui] = self.sib[vi];
                        self.kill(v, round, Death::Compressed { child: u, fun: g });
                    }
                }
            }
            if let Some(t) = apply_start {
                sink.phase(Phase::Apply, t.elapsed().as_nanos() as u64);
            }
            if S::ENABLED {
                let rc = RoundCounters {
                    round,
                    frontier,
                    rakes,
                    splices,
                    finishes,
                    coin_rejections,
                };
                sink.round(&rc);
            }

            let alive = &self.alive;
            live.retain(|&u| alive[u as usize]);
            if check::ENABLED {
                self.check_round(round, &live, deaths_before);
            }
        }

        // `order` is chronological, so each hop list comes out in
        // ascending death round without sorting.
        let Trace { links, death, .. } = &mut self.trace;
        let order = &self.order;
        links.hops.regroup(death.len(), || {
            order.iter().filter_map(|&u| match &death[u as usize] {
                Death::Compressed { child, .. } => Some((*child, u)),
                _ => None,
            })
        });
        round
    }

    fn kill(&mut self, u: u32, round: u32, death: Death<A>) {
        let ui = u as usize;
        if check::ENABLED {
            invariant!(self.alive[ui], "second death of node n{u} in round {round}");
        }
        self.alive[ui] = false;
        let trace = &mut self.trace;
        trace.death[ui] = death;
        trace.links.round[ui] = round;
        trace.links.up[ui] = self.par[ui];
        self.order.push(u);
    }

    /// Post-round invariant sweep (`check` feature): the round retired at
    /// least one node (the argument in `run` that bounds the
    /// round count), every node killed this round carries a coherent,
    /// round-stamped death record whose recorded parent survived the
    /// round, and every survivor has a live working parent and a `count`
    /// that matches its actual number of live children.
    /// `O(frontier)` per round.
    #[cfg(feature = "check")]
    fn check_round(&self, round: u32, live: &[u32], deaths_before: usize) {
        use std::collections::HashMap;
        let Trace { links, death, .. } = &self.trace;
        let order = &self.order;
        invariant!(order.len() > deaths_before, "round {round} retired no node");
        for &u in &order[deaths_before..] {
            let ui = u as usize;
            invariant!(
                !self.alive[ui],
                "node n{u} died in round {round} but is still flagged alive"
            );
            invariant!(
                links.round[ui] == round,
                "node n{u} killed in round {round} is stamped with round {}",
                links.round[ui]
            );
            invariant!(
                !matches!(death[ui], Death::None),
                "node n{u} died in round {round} without a death record"
            );
            let dp = links.up[ui];
            invariant!(
                dp == NONE || self.alive[dp as usize],
                "death parent n{dp} of n{u} did not survive round {round}"
            );
        }
        let mut kids: HashMap<u32, u32> = HashMap::new();
        for &u in live {
            let ui = u as usize;
            invariant!(self.alive[ui], "retained node n{u} is not alive");
            let p = self.par[ui];
            if p != NONE {
                invariant!(
                    self.alive[p as usize],
                    "live node n{u} points at dead parent n{p} after round {round}"
                );
                *kids.entry(p).or_insert(0) += 1;
            }
        }
        for &u in live {
            let expect = kids.get(&u).copied().unwrap_or(0);
            invariant!(
                self.count[u as usize] == expect,
                "count[n{u}] = {} after round {round}, but {expect} live children remain",
                self.count[u as usize]
            );
        }
    }

    #[cfg(not(feature = "check"))]
    #[inline(always)]
    fn check_round(&self, _round: u32, _live: &[u32], _deaths_before: usize) {}
}

/// Picks the action for live node `u` from the pre-round snapshot.
///
/// Compress eligibility is decided by the *child*: `u` proposes splicing its
/// parent `v` when `v` is unary (so `u` is the only child), `v` has a
/// grandparent to reattach to, `u` itself is not a leaf (leaves rake
/// instead, and raking into a vanishing parent would race), and the
/// heads/tails coin pair holds. The coins exclude adjacent splices: if `v`
/// is spliced it flipped heads, so neither `v`'s parent (needs heads as a
/// victim but flipped tails) nor `u` (its parent `v` would need tails) can
/// be spliced in the same round.
///
/// A candidate that loses only the coin toss returns `CoinReject` — same
/// no-op behaviour as `None`, but countable by telemetry sinks.
#[inline]
fn decide(par: &[u32], count: &[u32], seed: u64, round: u32, u: u32) -> Action {
    decide_by(|x| par[x as usize], |x| count[x as usize], seed, round, u)
}

/// [`decide`] over any state: `par` and `count` give a live node's working
/// parent and live child count. It reads them for `u` and, when `u` has
/// children, for its parent `p`; the only other inputs are the coins of `p`
/// and its parent, fixed by `(seed, round, node)`. The structure phase of a
/// dynamic recompute re-decides nodes with it over a mix of recorded and
/// re-simulated state.
#[inline]
pub(crate) fn decide_by(
    par: impl Fn(u32) -> u32,
    count: impl Fn(u32) -> u32,
    seed: u64,
    round: u32,
    u: u32,
) -> Action {
    let p = par(u);
    if count(u) == 0 {
        return if p == NONE {
            Action::Finish
        } else {
            Action::Rake
        };
    }
    if p == NONE {
        return Action::None;
    }
    let gp = par(p);
    if gp == NONE || count(p) != 1 {
        return Action::None;
    }
    if coin(seed, round, p) && !coin(seed, round, gp) {
        Action::Splice
    } else {
        Action::CoinReject
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::NoopSink;
    use crate::{gen, SubtreeSum};
    use std::collections::HashMap;

    /// Steps the engine's structural state machine (`decide` plus the
    /// parent/count/liveness effects of its apply arms) next to a recorded
    /// trace, and checks every [`Recorded`] accessor against the real state
    /// at every round. Returns the node-rounds checked.
    fn check_oracle(f: &Forest<i64>, seed: u64) -> usize {
        let (trace, ..) = record(&SubtreeSum, f, seed, &mut NoopSink);
        let lists = Lists::new(&trace);
        let old = Recorded {
            links: &trace.links,
            death: &trace.death,
            raked: &lists.raked,
        };
        let n = f.len();
        let mut par: Vec<u32> = (0..n as u32).map(|v| f.parent_raw(v)).collect();
        let mut count = vec![0u32; n];
        for &p in par.iter().filter(|&&p| p != NONE) {
            count[p as usize] += 1;
        }
        let mut alive = vec![true; n];
        let mut live: Vec<u32> = (0..n as u32).collect();
        let (mut r, mut checked) = (0, 0);
        let mut got = Vec::new();
        while !live.is_empty() {
            r += 1;
            let mut kids: HashMap<u32, Vec<u32>> = HashMap::new();
            for &u in &live {
                if par[u as usize] != NONE {
                    kids.entry(par[u as usize]).or_default().push(u);
                }
            }
            for u in 0..n as u32 {
                assert_eq!(old.alive(u, r), alive[u as usize], "alive n{u} r{r}");
            }
            let actions: Vec<Action> = live
                .iter()
                .map(|&u| decide(&par, &count, seed, r, u))
                .collect();
            let mut rakes: HashMap<u32, u32> = HashMap::new();
            for (&u, a) in live.iter().zip(&actions) {
                if *a == Action::Rake {
                    *rakes.entry(par[u as usize]).or_default() += 1;
                }
            }
            for &u in &live {
                let ui = u as usize;
                assert_eq!(old.par(u, r), par[ui], "par n{u} r{r}");
                assert_eq!(old.count(u, r), count[ui], "count n{u} r{r}");
                let rakes_in = rakes.get(&u).copied().unwrap_or(0);
                assert_eq!(old.rakes_in(u, r), rakes_in, "rakes into n{u} r{r}");
                got.clear();
                old.children(u, r, &mut got);
                got.sort_unstable();
                let mut want = kids.get(&u).cloned().unwrap_or_default();
                want.sort_unstable();
                assert_eq!(got, want, "working children of n{u} r{r}");
                if count[ui] == 1 {
                    assert_eq!(old.child(u, r), Some(want[0]), "unique child of n{u} r{r}");
                }
                checked += 1;
            }
            let mut killed = Vec::new();
            for (&u, a) in live.iter().zip(&actions) {
                let ui = u as usize;
                match a {
                    Action::Finish => killed.push(u),
                    Action::Rake => {
                        count[par[ui] as usize] -= 1;
                        killed.push(u);
                    }
                    Action::Splice => {
                        let v = par[ui];
                        par[ui] = par[v as usize];
                        killed.push(v);
                    }
                    Action::None | Action::CoinReject => {}
                }
            }
            for &u in &killed {
                assert_eq!(old.round(u), r, "the re-simulation killed n{u} in r{r}");
                alive[u as usize] = false;
            }
            live.retain(|&u| alive[u as usize]);
        }
        checked
    }

    /// Trees of every shape the generators make, under `seed`.
    fn zoo(seed: u64) -> [Forest<i64>; 7] {
        [
            gen::random_tree(1_500, seed),
            gen::path(600, seed),
            gen::star(800, seed),
            gen::caterpillar(400, 2, seed),
            gen::binary_tree(1_000, seed),
            gen::broom(500, 500, seed),
            gen::random_forest(1_500, 200, seed),
        ]
    }

    #[test]
    fn recorded_state_matches_the_engine_on_the_shape_zoo() {
        for seed in [1u64, 7, 0x5EED] {
            for f in &zoo(seed) {
                assert!(check_oracle(f, seed) >= f.len());
            }
        }
    }

    /// The lists built from a trace alone list every node under its parent
    /// in the traced forest, not under its death parent, and every rake
    /// under its death parent in death order.
    #[test]
    fn raked_lists_follow_the_run() {
        let [a, b, c, d, e, g, h] = zoo(3);
        for f in [gen::random_forest(2_000, 30, 3), a, b, c, d, e, g, h] {
            let (trace, order, _) = record(&SubtreeSum, &f, 3, &mut NoopSink);
            let lists = Lists::new(&trace);
            let kids = f.build_children();
            let mut listed = 0;
            for p in 0..f.len() as u32 {
                assert_eq!(lists.children.of(p), kids[p as usize], "children of n{p}");
                let raked = lists.raked.of(p);
                let keys: Vec<(u32, u32)> = raked
                    .iter()
                    .map(|&x| (trace.links.round[x as usize], x))
                    .collect();
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "n{p} not sorted");
                for &x in raked {
                    assert!(matches!(trace.death[x as usize], Death::Raked { .. }));
                    assert_eq!(trace.links.up[x as usize], p);
                }
                listed += keys.len();
            }
            let rakes = trace
                .death
                .iter()
                .filter(|d| matches!(d, Death::Raked { .. }))
                .count();
            assert_eq!(listed, rakes);
            let order = order.iter().rev().copied();
            assert!(trace.backsolve(&SubtreeSum, order) == f.sequential_fold(&SubtreeSum));
        }
    }

    /// Every trace holds one record per node, and a field that grows every
    /// record grows every trace and every read. These are the sizes on
    /// 64-bit targets; a raked node's slot fills the padding beside its
    /// value.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn death_records_stay_small() {
        use crate::{ExprEval, MinMax, OrderedRake, SeqHash};
        use std::mem::size_of;
        assert!(size_of::<Death<SubtreeSum>>() <= 16);
        assert!(size_of::<Death<MinMax>>() <= 24);
        assert!(size_of::<Death<ExprEval>>() <= 24);
        assert!(size_of::<Death<OrderedRake<SeqHash>>>() <= 40);
    }
}
