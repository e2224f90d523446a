//! The rake/compress contraction engine.
//!
//! The engine runs classic Miller–Reif tree contraction over every node of
//! a forest loaded into a [`Scratch`]. Static contraction and the dynamic
//! layer's structural rebuilds run the same code on the same input, so
//! under one coin seed both record the same trace.
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
//! Every node death is stamped with its round and recorded in a trace
//! (`Death`), forming the round-stamped contraction DAG. A reverse replay
//! of the trace ([`Scratch::backsolve`]) recovers the final subtree value of
//! *every* node, not just the roots — the values the dynamic layer's replay
//! tables and the query engine start from.
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

/// Hard cap on contraction rounds; with rake + randomized compress the
/// expected round count is `O(log n)`, so hitting this indicates a bug.
const MAX_ROUNDS: u32 = 10_000;

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

/// Reusable per-node working state, indexed by raw node id.
///
/// [`Scratch::load`] sizes every vector to a forest and seeds it; after a
/// run the death records, round stamps, death parents and death order are
/// the recorded trace, which stays readable until the next load.
pub(crate) struct Scratch<A: Algebra> {
    /// Working copy of parent pointers (mutated by splices).
    pub par: Vec<u32>,
    /// Live child count.
    pub count: Vec<u32>,
    /// Partial accumulator.
    pub acc: Vec<Option<A::Acc>>,
    /// Edge function towards the current parent.
    pub fun: Vec<Option<A::Fun>>,
    /// Liveness flag.
    pub alive: Vec<bool>,
    /// Death record per node.
    pub death: Vec<Death<A>>,
    /// Round stamp per death (1-based; 0 = untouched).
    pub death_round: Vec<u32>,
    /// Nodes in death order; reversing it yields a valid backsolve order.
    pub death_order: Vec<u32>,
    /// Working parent at the moment of death (`NONE` for finished roots).
    /// Because a node's working parent always strictly outlives it, these
    /// pointers form a shortcut tree of depth ≤ rounds — the spine of the
    /// contraction DAG that the batch query engine climbs.
    pub death_parent: Vec<u32>,
    /// Sibling index of each node in its (original) parent's child list.
    /// Passed to [`Algebra::absorb_at`] so ordered (non-commutative)
    /// algebras can reassemble children in child-list order even though
    /// rake retires siblings in arbitrary round order. A spliced-out
    /// node bequeaths its slot to its surviving child.
    pub sib: Vec<u32>,
    /// The sibling slot a node surrendered when it was spliced out: the
    /// position *in its own child list* where its surviving chain keeps
    /// contributing (recorded just before `sib` is overwritten by the
    /// bequest). Change propagation uses it to rebuild a compressed
    /// node's accumulator from its original children minus that slot.
    pub gap: Vec<u32>,
}

impl<A: Algebra> Default for Scratch<A> {
    fn default() -> Self {
        Scratch {
            par: Vec::new(),
            count: Vec::new(),
            acc: Vec::new(),
            fun: Vec::new(),
            alive: Vec::new(),
            death: Vec::new(),
            death_round: Vec::new(),
            death_order: Vec::new(),
            death_parent: Vec::new(),
            sib: Vec::new(),
            gap: Vec::new(),
        }
    }
}

impl<A: Algebra> Clone for Scratch<A>
where
    A::Acc: Clone,
    A::Fun: Clone,
    A::Val: Clone,
{
    fn clone(&self) -> Self {
        Scratch {
            par: self.par.clone(),
            count: self.count.clone(),
            acc: self.acc.clone(),
            fun: self.fun.clone(),
            alive: self.alive.clone(),
            death: self.death.clone(),
            death_round: self.death_round.clone(),
            death_order: self.death_order.clone(),
            death_parent: self.death_parent.clone(),
            sib: self.sib.clone(),
            gap: self.gap.clone(),
        }
    }
}

impl<A: Algebra> Scratch<A> {
    /// Sizes every table to `forest` and seeds its pre-contraction state:
    /// each node's parent, live child count and sibling slot (children
    /// numbered in id order, as [`Csr::rebuild_children`] lists them), a
    /// fresh accumulator and an identity edge function. Reuses the buffers
    /// of the previous load.
    pub fn load(&mut self, alg: &A, forest: &Forest<A::Label>) {
        let n = forest.len();
        self.par.clear();
        self.count.clear();
        self.count.resize(n, 0);
        self.sib.clear();
        self.sib.resize(n, 0);
        for v in 0..n as u32 {
            let p = forest.parent_raw(v);
            self.par.push(p);
            if p != NONE {
                // Children appear in id order, so the running count is
                // exactly the node's position among its parent's children.
                self.sib[v as usize] = self.count[p as usize];
                self.count[p as usize] += 1;
            }
        }
        self.acc.clear();
        self.acc.extend(
            forest
                .node_ids()
                .map(|v| Some(alg.init_acc(forest.label(v)))),
        );
        self.fun.clear();
        self.fun.resize(n, Some(alg.identity()));
        self.alive.clear();
        self.alive.resize(n, true);
        // A run kills every node, overwriting its death record, round stamp
        // and death parent (and the gap of every compressed node), so these
        // only need the right length.
        self.death.resize_with(n, Death::default);
        self.death_round.resize(n, 0);
        self.death_parent.resize(n, NONE);
        self.gap.resize(n, 0);
    }

    /// Runs rake/compress rounds until every loaded node has died,
    /// reporting phase spans and per-round counters into `sink`.
    ///
    /// Telemetry is statically dispatched: every instrumentation site is
    /// guarded by `S::ENABLED`, so with [`crate::obs::NoopSink`] this
    /// compiles to exactly the uninstrumented loop.
    pub fn contract_with<S: Sink>(&mut self, alg: &A, seed: u64, sink: &mut S) -> RunOutcome {
        self.death_order.clear();
        let mut live: Vec<u32> = (0..self.par.len() as u32).collect();
        let mut actions: Vec<Action> = Vec::new();
        let mut round = 0;
        let mut counters = EngineCounters::default();
        // Shadow write-log for the conflict detector; field-less no-op
        // without the `check` feature (see `check.rs`).
        let mut wlog = check::WriteLog::new();

        while !live.is_empty() {
            round += 1;
            assert!(
                round <= MAX_ROUNDS,
                "contraction failed to converge after {MAX_ROUNDS} rounds"
            );
            let frontier = live.len();
            let deaths_before = self.death_order.len();
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
                        // lint:allow(panic): load() seeds Some acc for every node
                        let val = alg.finish(self.acc[u as usize].as_ref().unwrap());
                        check::must(wlog.record(Cell::Life(u), WriteMode::Exclusive, u as u64));
                        self.kill(u, round, Death::Root(val));
                    }
                    Action::Rake => {
                        if S::ENABLED {
                            rakes += 1;
                        }
                        let p = self.par[u as usize] as usize;
                        // lint:allow(panic): load() seeds Some acc for every node
                        let val = alg.finish(self.acc[u as usize].as_ref().unwrap());
                        let contrib =
                            // lint:allow(panic): load() seeds Some fun for every node
                            alg.apply(self.fun[u as usize].as_ref().unwrap(), val.clone());
                        let slot = self.sib[u as usize];
                        // Sibling rakes hit the same parent cells, but
                        // absorb/decrement commute — recorded as such.
                        check::must(wlog.record(Cell::Acc(p as u32), WriteMode::Absorb, u as u64));
                        check::must(wlog.record(
                            Cell::Count(p as u32),
                            WriteMode::Decrement,
                            u as u64,
                        ));
                        check::must(wlog.record(Cell::Life(u), WriteMode::Exclusive, u as u64));
                        // lint:allow(panic): a raking node's parent is live, and live nodes keep Some acc
                        alg.absorb_at(self.acc[p].as_mut().unwrap(), slot, contrib);
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
                        let v = self.par[u as usize];
                        let gp = self.par[v as usize];
                        // lint:allow(panic): live nodes carry Some acc/fun by seeding
                        let tf = alg.to_fun(self.acc[v as usize].as_ref().unwrap());
                        // lint:allow(panic): live nodes carry Some acc/fun by seeding
                        let g = alg.compose(&tf, self.fun[u as usize].as_ref().unwrap());
                        // lint:allow(panic): live nodes carry Some acc/fun by seeding
                        let new_fun = alg.compose(self.fun[v as usize].as_ref().unwrap(), &g);
                        check::must(wlog.record(Cell::Fun(u), WriteMode::Exclusive, u as u64));
                        check::must(wlog.record(Cell::Par(u), WriteMode::Exclusive, u as u64));
                        check::must(wlog.record(Cell::Sib(u), WriteMode::Exclusive, u as u64));
                        check::must(wlog.record(Cell::Life(v), WriteMode::Exclusive, u as u64));
                        self.fun[u as usize] = Some(new_fun);
                        self.par[u as usize] = gp;
                        // The victim remembers which of its own child slots
                        // the surviving chain occupies (change propagation
                        // rebuilds its accumulator around that gap), then
                        // `u` inherits the victim's slot in the grandparent's
                        // child order, keeping ordered rakes well-indexed.
                        self.gap[v as usize] = self.sib[u as usize];
                        self.sib[u as usize] = self.sib[v as usize];
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

        RunOutcome {
            rounds: round,
            counters,
        }
    }

    fn kill(&mut self, u: u32, round: u32, death: Death<A>) {
        if check::ENABLED {
            invariant!(
                self.alive[u as usize],
                "second death of node n{u} in round {round}"
            );
        }
        self.alive[u as usize] = false;
        self.death[u as usize] = death;
        self.death_round[u as usize] = round;
        self.death_parent[u as usize] = self.par[u as usize];
        self.death_order.push(u);
    }

    /// Post-round invariant sweep (`check` feature): every node killed this
    /// round carries a coherent, round-stamped death record whose recorded
    /// parent survived the round, and every survivor has live state — a
    /// present accumulator and edge function, a live working parent, and a
    /// `count` that matches its actual number of live children. `O(frontier)`
    /// per round.
    #[cfg(feature = "check")]
    fn check_round(&self, round: u32, live: &[u32], deaths_before: usize) {
        use std::collections::HashMap;
        for &u in &self.death_order[deaths_before..] {
            let ui = u as usize;
            invariant!(
                !self.alive[ui],
                "node n{u} died in round {round} but is still flagged alive"
            );
            invariant!(
                self.death_round[ui] == round,
                "node n{u} killed in round {round} is stamped with round {}",
                self.death_round[ui]
            );
            invariant!(
                !matches!(self.death[ui], Death::None),
                "node n{u} died in round {round} without a death record"
            );
            let dp = self.death_parent[ui];
            invariant!(
                dp == NONE || self.alive[dp as usize],
                "death parent n{dp} of n{u} did not survive round {round}"
            );
        }
        let mut kids: HashMap<u32, u32> = HashMap::new();
        for &u in live {
            let ui = u as usize;
            invariant!(self.alive[ui], "retained node n{u} is not alive");
            invariant!(
                self.acc[ui].is_some(),
                "live node n{u} lost its accumulator in round {round}"
            );
            invariant!(
                self.fun[ui].is_some(),
                "live node n{u} lost its edge function in round {round}"
            );
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

    /// Groups the nodes compressed in the last run into hop lists: for
    /// every node `x`, the nodes that were spliced out from directly above
    /// it — its successive working parents, i.e. the original-tree
    /// ancestors lying strictly between `x` and `death_parent[x]`, in
    /// ascending death round (equivalently, bottom-to-top along the
    /// original path, the order their functions compose in).
    ///
    /// Concatenating `x`, `hops.of(x)`, `death_parent[x]`, its hop list,
    /// … therefore reconstructs `x`'s *entire* original ancestor path while
    /// only ever following `O(rounds)` shortcut pointers; this is what the
    /// batch query engine traverses and change propagation refolds.
    pub fn hop_lists(&self, hops: &mut Csr) {
        // `death_order` is chronological, so each hop list comes out in
        // ascending death round without sorting.
        hops.regroup(self.death.len(), || {
            self.death_order
                .iter()
                .filter_map(|&u| match &self.death[u as usize] {
                    Death::Compressed { child, .. } => Some((*child, u)),
                    _ => None,
                })
        });
    }

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
        for &u in self.death_order.iter().rev() {
            if let Death::Compressed { child, fun } = &self.death[u as usize] {
                out[u as usize] = alg.apply(fun, out[*child as usize].clone());
            }
        }
        out
    }
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
