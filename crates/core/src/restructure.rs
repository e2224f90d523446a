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
//! The oracle reads the *recorded* trace throughout, so the new records are
//! staged while the rounds run and written only by
//! [`Restructure::commit`], which also patches the child lists, hop lists
//! and raked-children lists, renumbers the sibling slots of every parent
//! that gained or lost a child, and lists every parent whose raked
//! children, their slots or its degree changed: the parents whose child
//! aggregates propagation lays out afresh from the committed lists.

use crate::algebra::Algebra;
use crate::arena::{Csr, Forest, NONE};
use crate::check::{self, invariant};
use crate::engine::{decide_by, Action, Death, Recorded, Trace};
use crate::obs::{EngineCounters, RoundCounters, Sink};
use crate::NodeId;
use std::ops::Range;

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

impl Move {
    fn victim(self) -> u32 {
        match self {
            Move::Splice(v) => v,
            _ => NONE,
        }
    }
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
    /// `(host, recorded victim, new victim)` for every round a candidate
    /// splices differently; `NONE` for no splice.
    hop_edits: Vec<(u32, u32, u32)>,
    /// `(parent, node)` for every moved node's new parent, and its old one.
    arrivals: Vec<(u32, u32)>,
    departures: Vec<(u32, u32)>,
    buf: Vec<u32>,
    /// Hosts with a new hop list: `(host, range of hop_items)`.
    new_hops: Vec<(u32, Range<usize>)>,
    hop_items: Vec<u32>,
    /// Nodes whose death record or hop list changed, ascending.
    pub changed: Vec<u32>,
    /// Parents that gained or lost a child, ascending.
    renumbered: Vec<u32>,
    /// Parents whose raked children, their slots or their degree changed,
    /// ascending: the renumbered parents, the old and new death parents of
    /// every rewritten rake, and the parent of every raked node whose slot
    /// moved. Their child aggregates are the ones to lay out afresh.
    pub parents: Vec<u32>,
}

/// Splits `items`, sorted by `key`, into its runs of equal keys.
fn runs<T>(items: &[T], key: impl Fn(&T) -> u32) -> impl Iterator<Item = &[T]> {
    let mut rest = items;
    std::iter::from_fn(move || {
        let first = key(rest.first()?);
        let len = rest.iter().take_while(|t| key(t) == first).count();
        let (run, tail) = rest.split_at(len);
        rest = tail;
        Some(run)
    })
}

/// The items of `group` sorted by `key`, extracted from edits sorted by
/// `(group, …)`.
fn group_of<K>(edits: &[(u32, K, u32)], group: u32) -> impl Iterator<Item = u32> + '_ {
    let at = edits.partition_point(|e| e.0 < group);
    edits[at..]
        .iter()
        .take_while(move |e| e.0 == group)
        .map(|e| e.2)
}

/// Appends to `out` the sorted list `old` without `gone` (listed in the
/// same order) and with `add` (sorted by `key`) merged in. `O(old + add)`.
fn edit_sorted<K: Ord>(
    out: &mut Vec<u32>,
    old: &[u32],
    gone: impl Iterator<Item = u32>,
    add: impl Iterator<Item = u32>,
    key: impl Fn(u32) -> K,
) {
    let (mut gone, mut add) = (gone.peekable(), add.peekable());
    for &x in old {
        if gone.peek() == Some(&x) {
            gone.next();
            continue;
        }
        while let Some(y) = add.next_if(|&y| key(y) < key(x)) {
            out.push(y);
        }
        out.push(x);
    }
    out.extend(add);
}

/// Replaces the groups `edits` names, each by its range of `src`.
fn set_all(lists: &mut Csr, edits: &[(u32, Range<usize>)], src: &[u32]) {
    for (k, ids) in edits {
        lists.set(*k, &src[ids.clone()]);
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
            Death::Raked(_) => Move::Rake(old.links.up[x as usize]),
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
    /// run's once `moved` (sorted, distinct) hang under their parents in
    /// `forest`, and stages the records that change. Reports one
    /// [`RoundCounters`] per round into `sink` (frontier = candidates) and
    /// returns their totals. A batch that moved nothing re-decides nothing.
    pub fn run<A: Algebra, S: Sink>(
        &mut self,
        old: &Recorded<A>,
        forest: &Forest<A::Label>,
        moved: &[u32],
        seed: u64,
        sink: &mut S,
    ) -> EngineCounters {
        self.born.clear();
        self.hop_edits.clear();
        self.arrivals.clear();
        self.departures.clear();
        self.renumbered.clear();
        let work = &mut self.work;
        work.slot.resize(forest.len(), NONE);
        work.list.clear();
        for &m in moved {
            let (from, to) = (old.par(m, 1), forest.parent_raw(m));
            if from == to {
                continue;
            }
            let e = work.entry(old, m, 1);
            work.list[e].st.par = to;
            if from != NONE {
                let e = work.entry(old, from, 1);
                work.list[e].st.count = work.list[e].st.count.wrapping_sub(1);
                self.renumbered.push(from);
                self.departures.push((from, m));
            }
            if to != NONE {
                let e = work.entry(old, to, 1);
                work.list[e].st.count = work.list[e].st.count.wrapping_add(1);
                self.renumbered.push(to);
                self.arrivals.push((to, m));
            }
        }
        self.carry.clear();
        self.carry.extend(
            work.list
                .iter()
                .filter(|e| e.st != recorded(old, e.node, 1))
                .map(|e| (e.node, e.st, true)),
        );
        self.renumbered.sort_unstable();
        self.renumbered.dedup();

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
        self.stage(old);
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
            hop_edits,
            buf,
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
                    buf.clear();
                    old.children(p, r, buf);
                    buf.iter().copied().find(|&x| !work.is(x, |e| e.diff))
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
            if was.victim() != now.victim() {
                hop_edits.push((c, was.victim(), now.victim()));
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

    /// Keeps the staged deaths that differ from the recorded ones, builds
    /// the new hop lists, and lists the nodes whose death or hop list
    /// changed.
    fn stage<A: Algebra>(&mut self, old: &Recorded<A>) {
        let Restructure {
            born,
            hop_edits,
            new_hops,
            hop_items,
            changed,
            ..
        } = self;
        born.sort_unstable_by_key(|b| b.0);
        if check::ENABLED {
            for w in born.windows(2) {
                invariant!(w[0].0 != w[1].0, "n{} dies twice in the new run", w[0].0);
            }
        }
        born.retain(|&(x, b)| {
            let kind = match old.death[x as usize] {
                Death::Raked(_) => Some(Kind::Raked),
                Death::Root(_) => Some(Kind::Root),
                Death::Compressed { child, .. } => Some(Kind::Compressed(child)),
                Death::None => None,
            };
            (b.round, b.up, Some(b.kind)) != (old.round(x), old.links.up[x as usize], kind)
        });
        changed.clear();
        changed.extend(born.iter().map(|b| b.0));
        new_hops.clear();
        hop_items.clear();
        hop_edits.sort_unstable();
        let round = |v: u32| {
            born.binary_search_by_key(&v, |b| b.0)
                .map_or(old.round(v), |i| born[i].1.round)
        };
        for edits in runs(hop_edits, |e| e.0) {
            let host = edits[0].0;
            let lo = hop_items.len();
            let gone = |v: &u32| edits.iter().any(|e| e.1 == *v);
            hop_items.extend(old.links.hops.of(host).iter().filter(|v| !gone(v)));
            hop_items.extend(edits.iter().map(|e| e.2).filter(|&v| v != NONE));
            hop_items[lo..].sort_unstable_by_key(|&v| round(v));
            if hop_items[lo..] == *old.links.hops.of(host) {
                hop_items.truncate(lo);
            } else {
                new_hops.push((host, lo..hop_items.len()));
                changed.push(host);
            }
        }
        changed.sort_unstable();
        changed.dedup();
    }

    /// Writes the staged records into `trace` and patches the lists that
    /// depend on them: death rounds, death parents and kinds of the changed
    /// nodes (values are placeholders until propagation: a raked node or
    /// root holds its own label's value, a compressed node the identity),
    /// their hop lists, the raked-children lists in `raked`, the child
    /// lists of the renumbered parents, and the sibling slots. Lists in
    /// `parents` every parent whose raked children, their slots or its
    /// degree changed, for propagation to lay out afresh.
    ///
    /// A slot is the position of the chain's top node — the original child
    /// of the death parent on the node's path — in the parent's id-ordered
    /// child list. So a renumbered parent's children are walked down their
    /// splice chains, and a changed node elsewhere finds its top by
    /// stepping to its last victim until the hop list is empty. That can
    /// move the slot of a raked node below it on the chain while its
    /// parent's child list and raked children stay the same, so such a
    /// parent is listed too.
    pub fn commit<A: Algebra>(
        &mut self,
        alg: &A,
        forest: &Forest<A::Label>,
        trace: &mut Trace<A>,
        raked: &mut Csr,
    ) {
        let Restructure {
            born,
            arrivals,
            departures,
            buf,
            new_hops,
            hop_items,
            changed,
            renumbered,
            parents,
            ..
        } = self;
        // Raked-children lists: `(parent, death round, node)` for every
        // changed rake, recorded and new.
        let (mut gone, mut added) = (Vec::new(), Vec::new());
        for &(x, b) in born.iter() {
            let xi = x as usize;
            if matches!(trace.death[xi], Death::Raked(_)) {
                gone.push((trace.links.up[xi], trace.links.round[xi], x));
            }
            let leaf = || alg.finish(&alg.init_acc(forest.label(NodeId(x))));
            trace.death[xi] = match b.kind {
                Kind::Raked => {
                    added.push((b.up, b.round, x));
                    Death::Raked(leaf())
                }
                Kind::Root => Death::Root(leaf()),
                Kind::Compressed(child) => Death::Compressed {
                    child,
                    fun: alg.identity(),
                },
            };
            trace.links.round[xi] = b.round;
            trace.links.up[xi] = b.up;
        }
        gone.sort_unstable();
        added.sort_unstable();
        parents.clear();
        parents.extend(gone.iter().chain(&added).map(|e| e.0));
        parents.sort_unstable();
        parents.dedup();
        let links = &mut trace.links;
        let mut edits = Vec::new();
        buf.clear();
        for &p in &*parents {
            let lo = buf.len();
            let (old, gone, added) = (raked.of(p), group_of(&gone, p), group_of(&added, p));
            edit_sorted(buf, old, gone, added, |x| (links.round[x as usize], x));
            edits.push((p, lo..buf.len()));
        }
        set_all(raked, &edits, buf);
        set_all(&mut links.hops, new_hops, hop_items);

        // Child lists of the parents that gained or lost a child.
        let by_parent = |moves: &mut Vec<(u32, u32)>| {
            moves.sort_unstable();
            moves.iter().map(|&(p, x)| (p, (), x)).collect::<Vec<_>>()
        };
        let (arrivals, departures) = (by_parent(arrivals), by_parent(departures));
        edits.clear();
        buf.clear();
        for &p in renumbered.iter() {
            let lo = buf.len();
            let old = links.children.of(p);
            edit_sorted(
                buf,
                old,
                group_of(&departures, p),
                group_of(&arrivals, p),
                |x| x,
            );
            edits.push((p, lo..buf.len()));
        }
        set_all(&mut links.children, &edits, buf);

        let sib = &mut trace.sib;
        for &p in renumbered.iter() {
            for (slot, &c) in links.children.of(p).iter().enumerate() {
                let mut x = c;
                while links.up[x as usize] == p {
                    sib[x as usize] = slot as u32;
                    match trace.death[x as usize] {
                        Death::Compressed { child, .. } => x = child,
                        _ => break,
                    }
                }
            }
        }
        // A changed node's chain top may have moved, and with it the slot
        // of every node below it on the chain: those the chain's hosts
        // spliced it out for, down to the raked end.
        for &x in changed.iter() {
            let p = links.up[x as usize];
            let mut top = x;
            while let Some(&v) = links.hops.of(top).last() {
                top = v;
            }
            let slot = if p == NONE {
                Ok(0)
            } else {
                links.children.of(p).binary_search(&top)
            };
            if check::ENABLED {
                invariant!(
                    slot.is_ok(),
                    "the chain top n{top} of n{x} is no child of n{p}"
                );
            }
            let slot = slot.unwrap_or(0) as u32;
            sib[x as usize] = slot;
            let mut y = x;
            while let Death::Compressed { child, .. } = trace.death[y as usize] {
                if p == NONE || links.up[child as usize] != p {
                    break;
                }
                y = child;
                let old = std::mem::replace(&mut sib[y as usize], slot);
                if old != slot && matches!(trace.death[y as usize], Death::Raked(_)) {
                    parents.push(p);
                }
            }
        }
        parents.extend_from_slice(renumbered);
        parents.sort_unstable();
        parents.dedup();
    }
}
