//! The structure phase of a recompute after cuts and links.
//!
//! A batch of cuts and links changes the round state of few nodes: the
//! moved nodes and their old and new parents at round 1, and then whatever
//! their changed decisions disturb. [`Restructure::run`] re-executes the
//! contraction on exactly those nodes, round by round, reading every other
//! node's state from the maintained trace (the oracle in
//! [`Recorded`]), and [`Restructure::commit`] rewrites the records of the
//! nodes whose death or hop list changed. Afterwards the trace's links are
//! exactly those a fresh contraction of the edited forest records under the
//! same seed; the values are left to change propagation (`propagate.rs`).
//!
//! Why a small set suffices. `decide` reads the live child count and
//! working parent of the node and, when it has children, of its parent,
//! plus the coins of the parent and grandparent, and coins depend only on
//! `(seed, round, node)`. Let `D_r` be the nodes whose state (alive,
//! working parent, live child count) before round `r` differs from the
//! recorded run's. A node outside `D_r` can decide differently only if its
//! parent `p` is in `D_r` and it is `p`'s only child in one of the runs,
//! since splicing `p` needs `p` unary. So round `r` re-decides `D_r` plus
//! those unique children. Applying both runs' decisions of these candidates
//! yields the state of every node they act on; `D_{r+1}` is those whose
//! new state differs from the recorded one. Untouched children rake into
//! a touched parent in both runs, so a parent's new count is its recorded
//! count minus the rakes that only the candidates change. When `D` is
//! empty every later round repeats the recorded run, so the phase stops.
//! The new run may also outlive the recorded one; there the recorded state
//! is "dead".
//!
//! The oracle reads the *recorded* trace throughout, so the new deaths are
//! staged while the rounds run and written only by
//! [`Restructure::commit`]. It patches the two lists derived from the
//! records (the trace's hop lists and the raked-child lists,
//! [`raked_lists`](crate::engine::raked_lists)) by one rule: each touched
//! group loses the nodes that left it and gains those that joined it, in
//! its own order. The run and the commit between them list every parent
//! whose children, raked children or their slots may have changed: the
//! parents whose child aggregates, and the slots in their raked ends'
//! records, propagation lays out afresh from the committed trace
//! (`Replay::relay`).

use crate::algebra::Algebra;
use crate::arena::{Csr, Forest, NONE};
use crate::check::{self, invariant};
use crate::engine::{decide_by, Action, Death, Links, Recorded, Trace};
use crate::obs::{EngineCounters, RoundCounters, Sink};
use crate::NodeId;

/// A node's state before a round, as `decide` reads it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct State {
    alive: bool,
    par: u32,
    count: u32,
}

const DEAD: State = State {
    alive: false,
    par: NONE,
    count: 0,
};

/// What a node does in one round, with the node it acts on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Move {
    Stay,
    Finish,
    /// Rake into the given parent.
    Rake(u32),
    /// Splice out the given parent.
    Splice(u32),
}

/// How a node dies in the new run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Raked,
    Root,
    Compressed(u32),
}

/// A node's staged death: round, death parent and kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Born {
    round: u32,
    up: u32,
    kind: Kind,
}

/// `(group, key, node, joins)`: `node` leaves the list of `group`, or joins
/// it when `joins`; the list's items are sorted by `(key, node)`.
type Edit = (u32, u32, u32, bool);

/// The lists [`Restructure::commit`] patches, as indices of its edits.
const RAKED: usize = 0;
const HOPS: usize = 1;

impl Born {
    /// The death the trace records for `x`, if it has one.
    fn recorded<A: Algebra>(links: &Links, death: &[Death<A>], x: u32) -> Option<Born> {
        let kind = match death[x as usize] {
            Death::Raked { .. } => Kind::Raked,
            Death::Root(_) => Kind::Root,
            Death::Compressed { child, .. } => Kind::Compressed(child),
            Death::None => return None,
        };
        let (round, up) = (links.round[x as usize], links.up[x as usize]);
        Some(Born { round, up, kind })
    }

    /// The list this death puts its node in, as `(list, group, key)`, keyed
    /// by death round: a rake is in the raked-child list of its death
    /// parent, a compressed node in the hop list of its host, a root in
    /// neither.
    fn entry(self) -> Option<(usize, u32, u32)> {
        match self.kind {
            Kind::Raked => Some((RAKED, self.up, self.round)),
            Kind::Compressed(host) => Some((HOPS, host, self.round)),
            Kind::Root => None,
        }
    }
}

/// A node's entry in one round's work list: its state before the round in
/// the new run, its moves in both runs if it is a candidate, and what the
/// candidates' moves do to it.
#[derive(Clone, Copy, Debug)]
struct Entry {
    node: u32,
    st: State,
    /// In `D_r`: `st` differs from the recorded state.
    diff: bool,
    cand: bool,
    /// A candidate, or acted on by one in either run.
    touched: bool,
    /// The recorded and the new move of a candidate.
    was: Move,
    now: Move,
    /// Candidates that raked into it in the recorded run, and in the new.
    old_in: u32,
    new_in: u32,
    /// The candidate that splices it out in the new run, or `NONE`.
    spliced_by: u32,
    /// `D_r` nodes alive under it in the new run, and one of them.
    d_kids: u32,
    d_kid: u32,
}

impl Entry {
    fn new(node: u32, st: State, diff: bool) -> Entry {
        Entry {
            node,
            st,
            diff,
            cand: false,
            touched: false,
            was: Move::Stay,
            now: Move::Stay,
            old_in: 0,
            new_in: 0,
            spliced_by: NONE,
            d_kids: 0,
            d_kid: NONE,
        }
    }
}

/// One round's work list, indexed by a sparse set: `slot[x]` is the
/// position of `x`'s entry whenever that entry names `x`, so the index is
/// never cleared and costs one `u32` per node.
#[derive(Clone, Default)]
struct Work {
    slot: Vec<u32>,
    list: Vec<Entry>,
}

impl Work {
    #[inline]
    fn find(&self, x: u32) -> Option<usize> {
        let i = self.slot[x as usize] as usize;
        (i < self.list.len() && self.list[i].node == x).then_some(i)
    }

    /// The entry of `x`, added with its recorded state before round `r`.
    #[inline]
    fn entry<A: Algebra>(&mut self, old: &Recorded<A>, x: u32, r: u32) -> usize {
        self.find(x)
            .unwrap_or_else(|| self.push(x, recorded(old, x, r), false))
    }

    fn push(&mut self, x: u32, st: State, diff: bool) -> usize {
        self.slot[x as usize] = self.list.len() as u32;
        self.list.push(Entry::new(x, st, diff));
        self.list.len() - 1
    }

    /// The new run's state of `x` before round `r`: its entry's, else the
    /// recorded one.
    #[inline]
    fn st<A: Algebra>(&self, old: &Recorded<A>, x: u32, r: u32) -> State {
        self.find(x)
            .map_or_else(|| recorded(old, x, r), |i| self.list[i].st)
    }

    fn is(&self, x: u32, flag: impl Fn(&Entry) -> bool) -> bool {
        self.find(x).is_some_and(|i| flag(&self.list[i]))
    }
}

/// The structure phase's working sets and its staged output, kept between
/// batches so their buffers are reused.
#[derive(Clone, Default)]
pub(crate) struct Restructure {
    work: Work,
    /// The new run's state before the next round of every node the last
    /// round touched, flagged when it differs from the recorded one: `D`
    /// and the states the next round would otherwise recompute.
    carry: Vec<(u32, State, bool)>,
    /// This round's candidates, as positions in the work list.
    cands: Vec<usize>,
    /// The new run's deaths, staged in the order they happen.
    born: Vec<(u32, Born)>,
    buf: Vec<u32>,
    /// Nodes whose death record changed, and every host whose hop list one
    /// of them left or joined, ascending: the splice chains to refold.
    pub changed: Vec<u32>,
    /// Parents whose children, raked children or their slots may have
    /// changed, ascending once committed: the old and new parents of every
    /// moved node (listed by the run), the old and new death parents of
    /// every rewritten rake, and the death parent of the raked end of every
    /// changed node. Their child aggregates are the ones to lay out afresh.
    pub parents: Vec<u32>,
}

/// Patches every group of `lists` that `edits` names. A group is sorted by
/// `(key, node)`, a node that stays having key `key(node)`, and a leaving
/// node is named at its key in the unpatched group. Each touched group drops
/// what left it, merges in what joined it, and is pushed onto `touched` in
/// ascending order. `O(group + edits)` per touched group.
fn patch(
    lists: &mut Csr,
    edits: &mut [Edit],
    key: impl Fn(u32) -> u32,
    touched: &mut Vec<u32>,
    buf: &mut Vec<u32>,
) {
    edits.sort_unstable();
    let mut rest = &*edits;
    while let Some(&(g, ..)) = rest.first() {
        let (edits, tail) = rest.split_at(rest.partition_point(|e| e.0 == g));
        rest = tail;
        let mut gone = edits.iter().filter(|e| !e.3).peekable();
        let mut add = edits.iter().filter(|e| e.3).peekable();
        buf.clear();
        for &x in lists.of(g) {
            if gone.next_if(|e| e.2 == x).is_some() {
                continue;
            }
            while let Some(e) = add.next_if(|e| (e.1, e.2) < (key(x), x)) {
                buf.push(e.2);
            }
            buf.push(x);
        }
        buf.extend(add.map(|e| e.2));
        lists.set(g, buf);
        touched.push(g);
    }
}

/// The recorded state of `x` before round `r`.
fn recorded<A: Algebra>(old: &Recorded<A>, x: u32, r: u32) -> State {
    if old.alive(x, r) {
        State {
            alive: true,
            par: old.par(x, r),
            count: old.count(x, r),
        }
    } else {
        DEAD
    }
}

/// What `x`, alive at round `r`, did in round `r` of the recorded run. A
/// victim's own decision was a no-op: it had a child, and the coins that
/// let its child splice it forbid it splicing its own parent.
fn recorded_move<A: Algebra>(old: &Recorded<A>, x: u32, r: u32) -> Move {
    if !old.alive(x, r) {
        return Move::Stay;
    }
    if old.round(x) == r {
        return match old.death[x as usize] {
            Death::Raked { .. } => Move::Rake(old.links.up[x as usize]),
            Death::Root(_) => Move::Finish,
            _ => Move::Stay,
        };
    }
    let hops = old.links.hops.of(x);
    match hops.get(hops.partition_point(|&v| old.round(v) < r)) {
        Some(&v) if old.round(v) == r => Move::Splice(v),
        _ => Move::Stay,
    }
}

impl Restructure {
    /// Re-decides the nodes whose round state differs from the recorded
    /// run's once the `edited` nodes (distinct) hang under their parents in
    /// `forest`, and stages their deaths in the new run. An edited node
    /// moved when its recorded parent (its working parent at round 1) is
    /// not its parent in `forest`; the old and new parents of the moved
    /// nodes go to `parents`. Reports one [`RoundCounters`] per round into
    /// `sink` (frontier = candidates) and returns their totals. A batch
    /// that moved nothing re-decides nothing.
    pub fn run<A: Algebra, S: Sink>(
        &mut self,
        old: &Recorded<A>,
        forest: &Forest<A::Label>,
        edited: &[u32],
        seed: u64,
        sink: &mut S,
    ) -> EngineCounters {
        self.born.clear();
        self.parents.clear();
        let work = &mut self.work;
        work.slot.resize(forest.len(), NONE);
        work.list.clear();
        for &m in edited {
            let (from, to) = (old.par(m, 1), forest.parent_raw(m));
            if from == to {
                continue;
            }
            let e = work.entry(old, m, 1);
            work.list[e].st.par = to;
            if from != NONE {
                let e = work.entry(old, from, 1);
                work.list[e].st.count = work.list[e].st.count.wrapping_sub(1);
                self.parents.push(from);
            }
            if to != NONE {
                let e = work.entry(old, to, 1);
                work.list[e].st.count = work.list[e].st.count.wrapping_add(1);
                self.parents.push(to);
            }
        }
        self.carry.clear();
        self.carry.extend(
            work.list
                .iter()
                .filter(|e| e.st != recorded(old, e.node, 1))
                .map(|e| (e.node, e.st, true)),
        );

        let mut totals = EngineCounters::default();
        let mut r = 1;
        while self.carry.iter().any(|c| c.2) {
            // Both runs end within n rounds, after which no state differs;
            // running on would loop forever on a corrupt trace.
            // lint:allow(panic): only a bug can get here, and a hang would hide it
            assert!(
                r as usize <= forest.len() + 1,
                "the structure phase outran the longest possible run"
            );
            let rc = self.round(old, seed, r);
            if S::ENABLED {
                totals.absorb_round(&rc);
                sink.round(&rc);
            }
            r += 1;
        }
        totals
    }

    /// Round `r`: picks the candidates, decides them in both runs, and
    /// leaves the touched nodes' next states, `D_{r+1}` flagged, in
    /// `carry`.
    fn round<A: Algebra>(&mut self, old: &Recorded<A>, seed: u64, r: u32) -> RoundCounters {
        let Restructure {
            work,
            carry,
            cands,
            born,
            ..
        } = self;
        work.list.clear();
        for &(x, st, diff) in carry.iter() {
            work.push(x, st, diff);
        }
        carry.clear();
        let carried = work.list.len();

        for i in 0..carried {
            let Entry { node, st, diff, .. } = work.list[i];
            if diff && st.alive && st.par != NONE {
                let p = work.entry(old, st.par, r);
                work.list[p].d_kids += 1;
                work.list[p].d_kid = node;
            }
        }
        // Candidates: D_r, plus the unique child of a D_r node in either
        // run. A node dead in the new run has no child there, and each of
        // its recorded children is in D_r already.
        cands.clear();
        let mark = |work: &mut Work, cands: &mut Vec<usize>, i: usize| {
            if !work.list[i].cand {
                work.list[i].cand = true;
                cands.push(i);
            }
        };
        for i in 0..carried {
            let Entry {
                node: p,
                st,
                diff,
                d_kids,
                d_kid,
                ..
            } = work.list[i];
            if !diff {
                continue;
            }
            mark(work, cands, i);
            if !st.alive {
                continue;
            }
            if old.alive(p, r) && old.count(p, r) == 1 {
                if let Some(c) = old.child(p, r) {
                    let c = work.entry(old, c, r);
                    mark(work, cands, c);
                }
            }
            if st.count == 1 {
                // The new run's only child is either a D_r node now under
                // `p` or the one recorded child of `p` outside D_r; all the
                // others differ, so this walk is paid for by D_r.
                let child = if d_kids > 0 {
                    Some(d_kid)
                } else {
                    let mut kids = old.chains(p, r).map(|(top, _)| top);
                    kids.find(|&x| !work.is(x, |e| e.diff))
                };
                if check::ENABLED {
                    invariant!(child.is_some(), "unary n{p} has no child in round {r}");
                }
                if let Some(c) = child {
                    let c = work.entry(old, c, r);
                    mark(work, cands, c);
                }
            }
        }

        let mut rc = RoundCounters {
            round: r,
            frontier: cands.len(),
            ..RoundCounters::default()
        };
        for &i in cands.iter() {
            let Entry { node: c, st, .. } = work.list[i];
            let now = if !st.alive {
                Move::Stay
            } else {
                let work = &*work;
                let state = |x| work.st(old, x, r);
                match decide_by(|x| state(x).par, |x| state(x).count, seed, r, c) {
                    Action::Finish => Move::Finish,
                    Action::Rake => Move::Rake(st.par),
                    Action::Splice => Move::Splice(st.par),
                    Action::CoinReject => {
                        rc.coin_rejections += 1;
                        Move::Stay
                    }
                    Action::None => Move::Stay,
                }
            };
            work.list[i].was = recorded_move(old, c, r);
            work.list[i].now = now;
        }

        // Stage the new run's deaths and note whom both runs' moves touch.
        for &i in cands.iter() {
            let Entry {
                node: c, was, now, ..
            } = work.list[i];
            work.list[i].touched = true;
            match was {
                Move::Rake(p) => {
                    let p = work.entry(old, p, r);
                    work.list[p].old_in += 1;
                    work.list[p].touched = true;
                }
                Move::Splice(v) => {
                    let v = work.entry(old, v, r);
                    work.list[v].touched = true;
                }
                Move::Stay | Move::Finish => {}
            }
            let (x, up, kind) = match now {
                Move::Stay => continue,
                Move::Finish => {
                    rc.finishes += 1;
                    (c, NONE, Kind::Root)
                }
                Move::Rake(p) => {
                    rc.rakes += 1;
                    let p = work.entry(old, p, r);
                    work.list[p].new_in += 1;
                    work.list[p].touched = true;
                    (c, work.list[p].node, Kind::Raked)
                }
                Move::Splice(v) => {
                    rc.splices += 1;
                    let e = work.entry(old, v, r);
                    work.list[e].spliced_by = c;
                    work.list[e].touched = true;
                    (v, work.list[e].st.par, Kind::Compressed(c))
                }
            };
            born.push((x, Born { round: r, up, kind }));
        }

        // Every node the moves touched: its state before round `r + 1`.
        for e in work.list.iter().filter(|e| e.touched) {
            let (w, s) = (e.node, e.st);
            let own = if e.cand {
                e.now
            } else {
                recorded_move(old, w, r)
            };
            // A non-candidate splices in both runs alike.
            let spliced = e.spliced_by != NONE
                || (old.round(w) == r
                    && old.compressor(w).is_some_and(|c| !work.is(c, |e| e.cand)));
            let new = if !s.alive || spliced || matches!(own, Move::Rake(_) | Move::Finish) {
                DEAD
            } else {
                let par = match own {
                    Move::Splice(v) => work.st(old, v, r).par,
                    _ => s.par,
                };
                // Rakes by non-candidates land in both runs.
                let rakes = if old.alive(w, r) {
                    old.rakes_in(w, r)
                } else {
                    0
                };
                let count = s.count + e.old_in - rakes - e.new_in;
                State {
                    alive: true,
                    par,
                    count,
                }
            };
            let same = if new.alive {
                old.alive(w, r + 1)
                    && (new.par, new.count) == (old.par(w, r + 1), old.count(w, r + 1))
            } else {
                !old.alive(w, r + 1)
            };
            carry.push((w, new, !same));
        }
        rc
    }

    /// Writes the staged deaths that differ from the recorded ones into
    /// `trace` (values are placeholders until propagation: a raked node or
    /// root holds its own label's value and a rake slot 0, a compressed
    /// node the identity) and patches the lists that depend on them.
    ///
    /// Both lists are patched by one rule ([`patch`]). A changed record
    /// leaves the list it was in and joins the one it is in now, keyed by
    /// death round: a rake the raked-child list (in `raked`) of its death
    /// parent, a compressed node the hop list of its host. `changed` lists
    /// the changed records and every host one left or joined; `parents`,
    /// which the run began with the moved nodes' old and new parents, every
    /// parent whose children, raked children or their slots may have
    /// changed, for propagation to lay out afresh.
    ///
    /// A rake's slot is the position of its chain's top (the original child
    /// of its death parent on its path) among that parent's children. A
    /// changed node can move the top of the chain it belongs to, or end it
    /// in another rake, while the parent's lists stay the same; so the
    /// death parent of every changed node's raked end is listed too.
    pub fn commit<A: Algebra>(
        &mut self,
        alg: &A,
        forest: &Forest<A::Label>,
        trace: &mut Trace<A>,
        raked: &mut Csr,
    ) {
        let Restructure {
            born,
            buf,
            changed,
            parents,
            ..
        } = self;
        let Trace { links, death, .. } = trace;
        let mut edits: [Vec<Edit>; 2] = Default::default();
        born.sort_unstable_by_key(|b| b.0);
        if check::ENABLED {
            for w in born.windows(2) {
                invariant!(w[0].0 != w[1].0, "n{} dies twice in the new run", w[0].0);
            }
        }
        changed.clear();
        for &(x, b) in born.iter() {
            let was = Born::recorded(links, death, x);
            if was == Some(b) {
                continue;
            }
            changed.push(x);
            for (record, joins) in [(was, false), (Some(b), true)] {
                if let Some((list, group, key)) = record.and_then(Born::entry) {
                    edits[list].push((group, key, x, joins));
                }
            }
            let leaf = || alg.finish(&alg.init_acc(forest.label(NodeId(x))));
            death[x as usize] = match b.kind {
                Kind::Raked => Death::Raked {
                    val: leaf(),
                    slot: 0,
                },
                Kind::Root => Death::Root(leaf()),
                Kind::Compressed(child) => Death::Compressed {
                    child,
                    fun: alg.identity(),
                },
            };
            links.round[x as usize] = b.round;
            links.up[x as usize] = b.up;
        }
        let [rakes, hops] = &mut edits;
        let round = |x: u32| links.round[x as usize];
        patch(raked, rakes, round, parents, buf);
        patch(&mut links.hops, hops, round, changed, buf);
        changed.sort_unstable();
        changed.dedup();
        for &x in changed.iter() {
            let p = links.up[x as usize];
            if links.raked_end(death, x, p).is_some() {
                parents.push(p);
            }
        }
        parents.sort_unstable();
        parents.dedup();
    }
}
