//! The rake/compress contraction engine.
//!
//! The engine runs classic Miller–Reif tree contraction over every node of
//! a forest loaded into a [`Scratch`]. Static contraction and the dynamic
//! layer's structural rebuilds run the same code on the same input, so
//! under one coin seed both record the same [`Trace`].
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
//! crate keeps: [`Scratch::load`] builds the loaded forest's child lists,
//! every death is stamped with its round (`Death`), forming the
//! round-stamped contraction DAG, and the run ends by grouping the
//! compressed nodes into hop lists. The trace's algebra-independent part,
//! [`Links`], is what the query engine reads. A reverse replay of the trace
//! ([`Trace::backsolve`]) recovers the final subtree value of *every* node,
//! not just the roots — the values the query engine starts from. The
//! dynamic layer's replay caches need no backsolve: every rake recorded
//! its value, edge function and slot, which is all its contribution needs.
//! [`Contraction`](crate::Contraction) and [`DynForest`](crate::DynForest)
//! both own a `Trace`; the rest of [`Scratch`] is per-run working state.
//!
//! The run loop reports into a statically-dispatched [`Sink`]: per-round
//! `plan`/`apply` spans and a [`RoundCounters`] record (frontier size,
//! rakes, splices, finishes, coin rejections). All instrumentation is
//! guarded by `S::ENABLED`, so the default `NoopSink` path compiles to the
//! bare loop.

use crate::algebra::Algebra;
use crate::arena::{Csr, Forest, NONE};
use crate::check::{self, invariant, Cell, WriteMode};
use crate::obs::{EngineCounters, Phase, RoundCounters, Sink};
use crate::par;
use crate::rng::coin;
use std::time::Instant;

/// Per-round action chosen by a live node during the plan phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Action {
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
/// final subtree value.
#[derive(Debug, Clone, Default)]
pub(crate) enum Death<A: Algebra> {
    /// Not yet contracted.
    #[default]
    None,
    /// Raked: the node's final value was already known at death.
    Raked(A::Val),
    /// Compressed: `val(self) = fun(val(child))`, where `child` strictly
    /// outlives this node.
    Compressed { child: u32, fun: A::Fun },
    /// A root whose contraction finished; its value is the component value.
    Root(A::Val),
}

/// Outcome of one engine run.
pub(crate) struct RunOutcome {
    /// Number of rake/compress rounds executed.
    pub rounds: u32,
    /// Whole-run action totals; all-zero unless the sink was enabled.
    pub counters: EngineCounters,
}

/// The algebra-independent part of a [`Trace`]: the loaded forest's child
/// lists and the contraction's shortcut structure, indexed by raw node id.
/// It holds no values or functions, so the query engine can share it
/// across threads whatever the algebra.
#[derive(Clone, Default, PartialEq)]
pub(crate) struct Links {
    /// Child lists of the loaded forest, each in id order — the order that
    /// numbers the sibling slots.
    pub children: Csr,
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

/// The record of one contraction run: per-node death records and the
/// state each node died with, plus its [`Links`]. Indexed by raw node id.
#[derive(Clone)]
pub(crate) struct Trace<A: Algebra> {
    /// Child lists, death rounds, death parents and hop lists.
    pub links: Links,
    /// Death record per node.
    pub death: Vec<Death<A>>,
    /// Nodes in death order; reversing it yields a valid backsolve order.
    pub order: Vec<u32>,
    /// Edge function towards the node's working parent, as it stood when
    /// the node died.
    pub fun: Vec<A::Fun>,
    /// Sibling index of each node in its (original) parent's child list.
    /// Passed to [`Algebra::absorb_at`] so ordered (non-commutative)
    /// algebras can reassemble children in child-list order even though
    /// rake retires siblings in arbitrary round order. A spliced-out
    /// node bequeaths its slot to its surviving child, so a raked node's
    /// slot is where its contribution landed in its death parent.
    pub sib: Vec<u32>,
}

impl<A: Algebra> Default for Trace<A> {
    fn default() -> Self {
        Trace {
            links: Links::default(),
            death: Vec::new(),
            order: Vec::new(),
            fun: Vec::new(),
            sib: Vec::new(),
        }
    }
}

impl<A: Algebra> Trace<A> {
    /// Replays the death trace in reverse and returns the final subtree
    /// value of every node, indexed by node id.
    ///
    /// Raked nodes and finished roots knew their value at death; a
    /// compressed node's value is its recorded unary function applied to
    /// the value of the child that outlived it — which, processed in
    /// reverse death order, is always already solved.
    pub fn backsolve(&self, alg: &A) -> Vec<A::Val> {
        let known = |d: &Death<A>| match d {
            Death::Raked(v) | Death::Root(v) => Some(v.clone()),
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
        for &u in self.order.iter().rev() {
            if let Death::Compressed { child, fun } = &self.death[u as usize] {
                out[u as usize] = alg.apply(fun, out[*child as usize].clone());
            }
        }
        out
    }
}

/// Reusable per-run working state, indexed by raw node id, and the
/// [`Trace`] the run records into.
///
/// [`Scratch::load`] sizes every vector to a forest and seeds it; after a
/// run `trace` is the completed trace, which stays readable until the next
/// load.
#[derive(Clone)]
pub(crate) struct Scratch<A: Algebra> {
    /// Working copy of parent pointers (mutated by splices).
    par: Vec<u32>,
    /// Live child count.
    count: Vec<u32>,
    /// Partial accumulator.
    acc: Vec<A::Acc>,
    /// Liveness flag.
    alive: Vec<bool>,
    /// What the run records.
    pub trace: Trace<A>,
}

impl<A: Algebra> Default for Scratch<A> {
    fn default() -> Self {
        Scratch {
            par: Vec::new(),
            count: Vec::new(),
            acc: Vec::new(),
            alive: Vec::new(),
            trace: Trace::default(),
        }
    }
}

impl<A: Algebra> Scratch<A> {
    /// Sizes every table to `forest` and seeds its pre-contraction state:
    /// each node's parent, live child count and sibling slot, the child
    /// lists (children numbered in id order), a fresh accumulator and an
    /// identity edge function. Reuses the buffers of the previous load.
    pub fn load(&mut self, alg: &A, forest: &Forest<A::Label>) {
        let n = forest.len();
        let Trace {
            links,
            death,
            fun,
            sib,
            ..
        } = &mut self.trace;
        self.par.clear();
        self.count.clear();
        self.count.resize(n, 0);
        sib.clear();
        sib.resize(n, 0);
        for v in 0..n as u32 {
            let p = forest.parent_raw(v);
            self.par.push(p);
            if p != NONE {
                // Children appear in id order, so the running count is
                // exactly the node's position among its parent's children.
                sib[v as usize] = self.count[p as usize];
                self.count[p as usize] += 1;
            }
        }
        // The child lists follow from the same pass: the counts give the
        // offsets, and each node's slot is its place in its parent's list.
        let Csr { off, items } = &mut links.children;
        off.clear();
        off.push(0);
        let mut total = 0;
        for &c in &self.count {
            total += c;
            off.push(total);
        }
        items.clear();
        items.resize(total as usize, 0);
        for (v, &p) in self.par.iter().enumerate() {
            if p != NONE {
                items[(off[p as usize] + sib[v]) as usize] = v as u32;
            }
        }
        self.acc.clear();
        self.acc
            .extend(forest.node_ids().map(|v| alg.init_acc(forest.label(v))));
        fun.clear();
        fun.resize(n, alg.identity());
        self.alive.clear();
        self.alive.resize(n, true);
        // A run kills every node, overwriting its death record, round stamp
        // and death parent, and regroups the hop lists, so these only need
        // the right length.
        death.resize_with(n, Death::default);
        links.round.resize(n, 0);
        links.up.resize(n, NONE);
    }

    /// Runs rake/compress rounds until every loaded node has died,
    /// reporting phase spans and per-round counters into `sink`, then
    /// builds the trace's hop lists.
    ///
    /// Telemetry is statically dispatched: every instrumentation site is
    /// guarded by `S::ENABLED`, so with [`crate::obs::NoopSink`] this
    /// compiles to exactly the uninstrumented loop.
    pub fn contract_with<S: Sink>(&mut self, alg: &A, seed: u64, sink: &mut S) -> RunOutcome {
        self.trace.order.clear();
        let mut live: Vec<u32> = (0..self.par.len() as u32).collect();
        let mut actions: Vec<Action> = Vec::new();
        let mut round: u32 = 0;
        let mut counters = EngineCounters::default();
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
            let deaths_before = self.trace.order.len();
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
                        let slot = self.trace.sib[ui];
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
                        self.kill(u, round, Death::Raked(val));
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
                        let Trace { fun, sib, .. } = &mut self.trace;
                        let g = alg.compose(&alg.to_fun(&self.acc[vi]), &fun[ui]);
                        check::must(wlog.record(Cell::Fun(u), WriteMode::Exclusive, u as u64));
                        check::must(wlog.record(Cell::Par(u), WriteMode::Exclusive, u as u64));
                        check::must(wlog.record(Cell::Sib(u), WriteMode::Exclusive, u as u64));
                        check::must(wlog.record(Cell::Life(v), WriteMode::Exclusive, u as u64));
                        fun[ui] = alg.compose(&fun[vi], &g);
                        self.par[ui] = self.par[vi];
                        // `u` inherits the victim's slot in the grandparent's
                        // child order, keeping ordered rakes well-indexed.
                        sib[ui] = sib[vi];
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
                counters.absorb_round(&rc);
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
        let Trace {
            links,
            death,
            order,
            ..
        } = &mut self.trace;
        links.hops.regroup(death.len(), || {
            order.iter().filter_map(|&u| match &death[u as usize] {
                Death::Compressed { child, .. } => Some((*child, u)),
                _ => None,
            })
        });
        RunOutcome {
            rounds: round,
            counters,
        }
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
        trace.order.push(u);
    }

    /// Post-round invariant sweep (`check` feature): the round retired at
    /// least one node (the argument in `contract_with` that bounds the
    /// round count), every node killed this round carries a coherent,
    /// round-stamped death record whose recorded parent survived the
    /// round, and every survivor has a live working parent and a `count`
    /// that matches its actual number of live children.
    /// `O(frontier)` per round.
    #[cfg(feature = "check")]
    fn check_round(&self, round: u32, live: &[u32], deaths_before: usize) {
        use std::collections::HashMap;
        let Trace {
            links,
            death,
            order,
            ..
        } = &self.trace;
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
    let p = par[u as usize];
    if count[u as usize] == 0 {
        return if p == NONE {
            Action::Finish
        } else {
            Action::Rake
        };
    }
    if p == NONE {
        return Action::None;
    }
    let gp = par[p as usize];
    if gp == NONE || count[p as usize] != 1 {
        return Action::None;
    }
    if coin(seed, round, p) && !coin(seed, round, gp) {
        Action::Splice
    } else {
        Action::CoinReject
    }
}
