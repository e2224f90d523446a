//! Batch-dynamic forests via change propagation over the contraction trace.
//!
//! [`DynForest`] owns one round-stamped trace — the same `Trace` type a
//! [`Contraction`](crate::Contraction) owns — and treats it as a
//! dependency DAG (see `propagate.rs`). After every
//! [`DynForest::recompute`] that trace is exactly the one a fresh
//! contraction of the current forest records under the forest's fixed coin
//! seed, `forest.contraction().seed(seed).run(..)`. Edits are applied to
//! the shape immediately but value recomputation is deferred, and
//! `recompute` takes one of two branches:
//!
//! * **label-only batches** ([`DynForest::batch_update_weights`]) mark
//!   only the edited nodes, and recompute *replays* just the trace slots
//!   whose inputs changed, round by round: a re-executed rake that
//!   reproduces its recorded contribution cuts the wave off, and every
//!   untouched slot's recorded result is reused verbatim. Cached per-node
//!   child aggregates (flat subtract/re-add parts for invertible algebras,
//!   balanced sibling trees otherwise) make each replayed slot
//!   `O(1)`–`O(log degree)`, so an update batch costs
//!   `O(affected × log)` independent of tree depth *and* node degree —
//!   paths and stars propagate as fast as random trees;
//! * **structural batches** (any [`DynForest::try_batch_cut`] or
//!   [`DynForest::try_batch_link`] pending) change the shape the trace
//!   describes. The edits only flip parent pointers and mark the moved
//!   nodes; recompute then contracts the whole forest again with the same
//!   seed and rebuilds the replay caches from that trace, `O(n)` per
//!   batch. Children are always numbered in id order, the order
//!   [`Forest::sequential_fold`] folds them in, so ordered algebras stay
//!   exact across cuts and links.
//!
//! Values are resolved lazily from the trace (`O(rounds)` per read, no
//! per-node value cache to keep coherent), which is why reads return
//! values rather than references and why *any* pending edit makes every
//! read stale until [`DynForest::recompute`] runs. Batch queries
//! ([`DynForest::query_batch`]) read the same trace's links through a shape
//! index (Euler intervals, component roots, hop hosts) that is built on the
//! first query after a structural batch and kept across label-only
//! batches; each query batch then costs one backsolve, `O(hosts + victims)`
//! hop prefixes and `O(log² n)` per query.
//!
//! Each operation has one public form, and none panics on a bad input:
//! edits return `Result<(), EditError>` and leave no trace of a rejected
//! batch, reads return `Result<_, QueryError>`.

use crate::algebra::{PathAlgebra, Propagate};
use crate::arena::{Forest, NONE};
use crate::engine::{RunOutcome, Scratch};
use crate::obs::{EngineCounters, NoopSink, Phase, Profile, Sink};
use crate::propagate::{resolve_val, Replay};
use crate::query::{self, QueryBatch, QueryError, QueryOutcome, Shape};
use crate::NodeId;
use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

/// Why a batch edit was rejected by [`DynForest::try_batch_cut`],
/// [`DynForest::try_batch_link`] or [`DynForest::batch_update_weights`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditError {
    /// A link named a child that is not a component root.
    NotARoot {
        /// The offending child.
        node: NodeId,
    },
    /// A cut named a node that is already a component root.
    AlreadyRoot {
        /// The offending node.
        node: NodeId,
    },
    /// A link would create a cycle: the requested parent lies inside the
    /// child's own subtree.
    WouldCycle {
        /// The child being linked.
        child: NodeId,
        /// The requested parent.
        parent: NodeId,
    },
    /// An op names a node id outside the forest.
    UnknownNode {
        /// The offending id.
        node: NodeId,
        /// Number of nodes in the forest.
        nodes: usize,
    },
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EditError::NotARoot { node } => write!(f, "{node} is not a root"),
            EditError::AlreadyRoot { node } => write!(f, "{node} is already a root"),
            EditError::WouldCycle { child, parent } => write!(
                f,
                "linking {child} under {parent} would create a cycle: \
                 parent is inside child's subtree"
            ),
            EditError::UnknownNode { node, nodes } => {
                write!(f, "edit names {node} but the forest has {nodes} nodes")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// Statistics returned by [`DynForest::recompute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateStats {
    /// Nodes edited since the last recompute: relabelled nodes plus, for a
    /// structural batch, the nodes cut or linked.
    pub dirty: usize,
    /// Total nodes in the forest.
    pub total: usize,
    /// On a structural batch, the rounds of the full contraction that
    /// rebuilt the trace; on a label-only batch, the number of distinct
    /// trace rounds the replay wave touched (its depth in the contraction
    /// DAG).
    pub rounds: u32,
    /// Trace slots re-executed by this recompute: the affected set of
    /// change propagation, or all `total` slots on a structural rebuild.
    pub replayed_slots: usize,
    /// Trace slots whose recorded results were reused untouched (0 on a
    /// structural rebuild).
    pub reused_slots: usize,
    /// Engine counters for this recompute — rounds, plus the
    /// rakes/splices/finishes/coin rejections and peak frontier of a
    /// structural rebuild's contraction; `Some` only when profiling is
    /// enabled via [`DynForest::enable_profiling`].
    pub counters: Option<EngineCounters>,
}

impl fmt::Display for UpdateStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recomputed {} of {} nodes in {} rounds",
            self.dirty, self.total, self.rounds
        )?;
        if self.replayed_slots + self.reused_slots > 0 {
            write!(
                f,
                " ({} slots replayed, {} reused)",
                self.replayed_slots, self.reused_slots
            )?;
        }
        if let Some(c) = &self.counters {
            write!(
                f,
                " ({} rakes, {} splices, {} finishes, {} coin rejections, peak frontier {})",
                c.rakes, c.splices, c.finishes, c.coin_rejections, c.max_frontier
            )?;
        }
        Ok(())
    }
}

/// A forest supporting batch-dynamic edits with incremental recomputation
/// by change propagation.
///
/// ```
/// use dtc_core::{DynForest, Forest, SubtreeSum};
///
/// let mut f = Forest::new();
/// let r = f.add_root(1i64);
/// let a = f.add_child(r, 2);
/// f.add_child(a, 3);
///
/// let mut d = DynForest::new(f, SubtreeSum);
/// assert_eq!(d.try_subtree_value(r), Ok(6));
///
/// // Cut `a` off: a structural edit, so recompute rebuilds the trace.
/// d.try_batch_cut(&[a]).unwrap();
/// let stats = d.recompute();
/// assert_eq!(stats.dirty, 1);
/// assert_eq!(d.try_subtree_value(r), Ok(1));
/// assert_eq!(d.try_subtree_value(a), Ok(5));
///
/// // Link it back and bump a weight in the same batch.
/// d.try_batch_link(&[(a, r)]).unwrap();
/// d.batch_update_weights(&[(r, 100)]).unwrap();
/// d.recompute();
/// assert_eq!(d.try_subtree_value(r), Ok(105));
///
/// // A label-only batch replays just the affected trace slots.
/// d.batch_update_weights(&[(a, 20)]).unwrap();
/// let stats = d.recompute();
/// assert!(stats.replayed_slots <= stats.total);
/// assert_eq!(d.try_subtree_value(r), Ok(123));
///
/// // Edits are rejected, not panicked on: `a` is no longer a root.
/// assert!(d.try_batch_link(&[(a, r)]).is_err());
/// ```
#[derive(Clone)]
pub struct DynForest<A: Propagate> {
    alg: A,
    forest: Forest<A::Label>,
    dirty: Vec<bool>,
    dirty_list: Vec<u32>,
    /// `true` once a cut/link landed since the last recompute: the trace
    /// no longer matches the shape, so the next recompute rebuilds it.
    has_structural: bool,
    /// The engine's buffers, kept so rebuilds reuse them, and the
    /// maintained trace (`scratch.trace`).
    scratch: Scratch<A>,
    /// Replay caches over the maintained trace. Both clone with the forest,
    /// so a cloned forest is immediately ready to propagate (benchmarks
    /// rely on this).
    replay: Replay<A>,
    /// The query shape index of the maintained trace: built by the first
    /// [`DynForest::query_batch`] after a rebuild, cleared by the next one.
    shape: OnceLock<Shape>,
    /// Coin seed of every contraction this forest runs, fixed for its life.
    seed: u64,
    /// Telemetry collector; `Some` once profiling is enabled. Boxed so the
    /// common unprofiled forest stays small.
    profile: Option<Box<Profile>>,
}

impl<A: Propagate> DynForest<A> {
    /// Wraps `forest` and runs the initial full contraction (which also
    /// builds the replay caches, so a freshly constructed forest is ready
    /// to propagate).
    pub fn new(forest: Forest<A::Label>, alg: A) -> Self {
        Self::with_seed(forest, alg, 0xD15EA5E)
    }

    /// Like [`DynForest::new`] with an explicit coin seed: the maintained
    /// trace is always the one `forest.contraction().seed(seed)` records.
    pub fn with_seed(forest: Forest<A::Label>, alg: A, seed: u64) -> Self {
        let n = forest.len();
        let mut d = DynForest {
            alg,
            forest,
            dirty: vec![false; n],
            dirty_list: Vec::new(),
            has_structural: false,
            scratch: Scratch::default(),
            replay: Replay::new(),
            shape: OnceLock::new(),
            seed,
            profile: None,
        };
        d.rebuild();
        d
    }

    /// Turns on telemetry collection: every subsequent batch edit and
    /// [`DynForest::recompute`] reports dirty-mark / plan / apply /
    /// propagate spans and per-round counters into an internal
    /// [`Profile`], and [`UpdateStats::counters`] becomes `Some`.
    ///
    /// Idempotent; an already-collected profile is kept. The unprofiled
    /// default pays zero overhead (the engine is compiled with a no-op
    /// sink on that path).
    pub fn enable_profiling(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::default());
        }
    }

    /// The accumulated telemetry report, if profiling is enabled.
    pub fn profile(&self) -> Option<&Profile> {
        self.profile.as_deref()
    }

    /// Detaches and returns the accumulated profile, turning profiling
    /// back off.
    pub fn take_profile(&mut self) -> Option<Profile> {
        self.profile.take().map(|p| *p)
    }

    /// Read access to the underlying forest shape.
    pub fn forest(&self) -> &Forest<A::Label> {
        &self.forest
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.forest.len()
    }

    /// `true` when the forest has no nodes.
    pub fn is_empty(&self) -> bool {
        self.forest.is_empty()
    }

    /// Number of nodes carrying pending edit marks (label edits mark the
    /// edited node, cuts/links the moved node; a rejected batch marks
    /// nothing).
    pub fn pending(&self) -> usize {
        self.dirty_list.len()
    }

    /// `true` when `v` carries a pending edit mark. Note that with *any*
    /// edit pending every read is stale (see
    /// [`DynForest::try_subtree_value`]), not only reads of marked nodes.
    pub fn is_dirty(&self, v: NodeId) -> bool {
        self.dirty[v.index()]
    }

    /// Final subtree value of `v` as of the last recompute, or an error if
    /// edits are pending or `v` is out of range.
    ///
    /// Values resolve lazily from the recorded trace (`O(rounds)` per
    /// read). With edits pending the trace no longer matches the forest,
    /// so *every* read returns `Err(QueryError::Stale)` — label edits
    /// deliberately mark only the edited node, leaving no cheap way to
    /// tell which ancestors a pending edit will reach; the caller must
    /// [`DynForest::recompute`] first.
    pub fn try_subtree_value(&self, v: NodeId) -> Result<A::Val, QueryError> {
        let n = self.forest.len();
        if v.index() >= n {
            return Err(QueryError::UnknownNode { node: v, nodes: n });
        }
        if !self.dirty_list.is_empty() {
            return Err(QueryError::Stale { node: v });
        }
        Ok(resolve_val(&self.alg, &self.scratch.trace.death, v.raw()))
    }

    /// Aggregate of the component containing `v` (any node of the
    /// component, not just its root), or an error if edits are pending or
    /// `v` is out of range.
    pub fn try_component_value(&self, v: NodeId) -> Result<A::Val, QueryError> {
        let n = self.forest.len();
        if v.index() >= n {
            return Err(QueryError::UnknownNode { node: v, nodes: n });
        }
        self.try_subtree_value(self.forest.root_of(v))
    }

    /// Marks a single node as edited. Label edits mark only the edited
    /// node (propagation finds the affected ancestors through the trace);
    /// structural edits mark the moved node.
    fn mark_dirty(&mut self, u: u32) {
        if !self.dirty[u as usize] {
            self.dirty[u as usize] = true;
            self.dirty_list.push(u);
        }
    }

    /// `Ok` when `v` names a node of the forest.
    fn known(&self, v: NodeId) -> Result<(), EditError> {
        let nodes = self.forest.len();
        if v.index() < nodes {
            Ok(())
        } else {
            Err(EditError::UnknownNode { node: v, nodes })
        }
    }

    /// Ends a structural batch that moved each `(node, old parent)` in
    /// `moved`, in order. A valid batch marks the moved nodes, so the next
    /// recompute rebuilds the trace; a rejected one restores the old
    /// parents in reverse and marks nothing, leaving the shape, the marks
    /// and every read exactly as before the call.
    fn settle(
        &mut self,
        moved: &[(u32, u32)],
        result: Result<(), EditError>,
        mark_start: Option<Instant>,
    ) -> Result<(), EditError> {
        if result.is_ok() {
            for &(u, _) in moved {
                self.mark_dirty(u);
            }
            self.has_structural |= !moved.is_empty();
        } else {
            for &(u, old) in moved.iter().rev() {
                self.forest.set_parent_raw(u, old);
            }
        }
        self.record_dirty_mark(mark_start);
        result
    }

    /// Cuts each node in `cuts` from its parent, making it a component
    /// root.
    ///
    /// Ops apply in order; on the first invalid op ([`EditError::AlreadyRoot`],
    /// including a node cut twice in the same batch, or
    /// [`EditError::UnknownNode`]) every already-applied cut is undone and
    /// nothing is marked: the forest is exactly as before the call.
    pub fn try_batch_cut(&mut self, cuts: &[NodeId]) -> Result<(), EditError> {
        let mark_start = self.profile.as_ref().map(|_| Instant::now());
        let mut moved: Vec<(u32, u32)> = Vec::with_capacity(cuts.len());
        let mut result = Ok(());
        for &v in cuts {
            if let Err(e) = self.known(v) {
                result = Err(e);
                break;
            }
            let p = self.forest.parent_raw(v.raw());
            if p == NONE {
                result = Err(EditError::AlreadyRoot { node: v });
                break;
            }
            self.forest.set_parent_raw(v.raw(), NONE);
            moved.push((v.raw(), p));
        }
        self.settle(&moved, result, mark_start)
    }

    /// Links each `(child, parent)` pair, attaching the tree rooted at
    /// `child` under `parent`.
    ///
    /// Each link walks `parent`'s chain to its root to reject cycles, so a
    /// batch costs `O(k × depth)` before any recomputation; the walk is
    /// kept in release builds because an undetected cycle would hang every
    /// later traversal.
    ///
    /// Ops apply in order — later links may legally build on earlier ones
    /// (chaining freshly linked components). On the first invalid op
    /// ([`EditError::UnknownNode`], [`EditError::NotARoot`] or
    /// [`EditError::WouldCycle`]) every already-applied link is undone and
    /// nothing is marked: the forest is exactly as before the call.
    pub fn try_batch_link(&mut self, links: &[(NodeId, NodeId)]) -> Result<(), EditError> {
        let mark_start = self.profile.as_ref().map(|_| Instant::now());
        let mut moved: Vec<(u32, u32)> = Vec::with_capacity(links.len());
        let mut result = Ok(());
        for &(child, parent) in links {
            if let Err(e) = self.known(child).and(self.known(parent)) {
                result = Err(e);
                break;
            }
            if !self.forest.is_root(child) {
                result = Err(EditError::NotARoot { node: child });
                break;
            }
            if self.forest.root_of(parent) == child {
                result = Err(EditError::WouldCycle { child, parent });
                break;
            }
            self.forest.set_parent_raw(child.raw(), parent.raw());
            moved.push((child.raw(), NONE));
        }
        self.settle(&moved, result, mark_start)
    }

    /// Replaces the labels (weights/operators) of the given nodes. Marks
    /// only the edited nodes: change propagation discovers the affected
    /// ancestors through the trace at [`DynForest::recompute`] time.
    ///
    /// Every id is checked before any label changes: a batch naming a node
    /// outside the forest returns [`EditError::UnknownNode`] and leaves the
    /// labels and the marks exactly as before the call.
    pub fn batch_update_weights(
        &mut self,
        updates: &[(NodeId, A::Label)],
    ) -> Result<(), EditError> {
        let mark_start = self.profile.as_ref().map(|_| Instant::now());
        let result = updates.iter().try_for_each(|&(v, _)| self.known(v));
        if result.is_ok() {
            for (v, label) in updates {
                self.forest.set_label(*v, label.clone());
                self.mark_dirty(v.raw());
            }
        }
        self.record_dirty_mark(mark_start);
        result
    }

    /// Closes a dirty-mark span opened at the top of a batch edit.
    fn record_dirty_mark(&mut self, start: Option<Instant>) {
        if let (Some(t), Some(p)) = (start, &mut self.profile) {
            p.phase(Phase::DirtyMark, t.elapsed().as_nanos() as u64);
        }
    }

    /// Contracts the current forest with the forest's fixed seed and
    /// rebuilds the replay caches from the trace, exactly as a fresh
    /// `forest.contraction().seed(seed)` run would record it. Drops the
    /// query shape index, which the next query batch rebuilds.
    fn rebuild(&mut self) -> RunOutcome {
        let DynForest {
            alg,
            forest,
            scratch,
            replay,
            shape,
            seed,
            profile,
            ..
        } = self;
        shape.take();
        scratch.load(alg, forest);
        // Both arms run the same engine code; the profiled arm pays for
        // telemetry, the default arm is compiled with the no-op sink.
        let outcome = match profile {
            Some(p) => scratch.contract_with(alg, *seed, p.as_mut()),
            None => scratch.contract_with(alg, *seed, &mut NoopSink),
        };
        replay.rebuild(alg, &scratch.trace);
        outcome
    }

    /// Clears all pending edit marks.
    fn clear_dirty(&mut self) {
        let DynForest {
            dirty,
            dirty_list,
            has_structural,
            ..
        } = self;
        for &u in dirty_list.iter() {
            dirty[u as usize] = false;
        }
        dirty_list.clear();
        *has_structural = false;
    }

    /// Refreshes all values invalidated by pending edits.
    ///
    /// A structural batch (any cut or link pending) contracts the whole
    /// forest again with the forest's fixed seed and rebuilds the replay
    /// tables, `O(n log n)` w.h.p. A label-only batch replays the recorded
    /// trace by change propagation, `O(affected × log)` (see the module
    /// docs). Either way the trace afterwards is exactly the one a fresh
    /// contraction of the current forest records.
    pub fn recompute(&mut self) -> UpdateStats {
        let n = self.forest.len();
        let edited = self.dirty_list.len();
        let profiled = self.profile.is_some();
        let stats = if edited == 0 {
            UpdateStats {
                dirty: 0,
                total: n,
                rounds: 0,
                replayed_slots: 0,
                reused_slots: 0,
                counters: profiled.then(EngineCounters::default),
            }
        } else if self.has_structural {
            let outcome = self.rebuild();
            UpdateStats {
                dirty: edited,
                total: n,
                rounds: outcome.rounds,
                replayed_slots: n,
                reused_slots: 0,
                counters: profiled.then_some(outcome.counters),
            }
        } else {
            let DynForest {
                alg,
                forest,
                scratch,
                replay,
                dirty_list,
                profile,
                ..
            } = self;
            let trace = &mut scratch.trace;
            let outcome = match profile {
                Some(p) => replay.propagate(alg, forest, trace, dirty_list, p.as_mut()),
                None => replay.propagate(alg, forest, trace, dirty_list, &mut NoopSink),
            };
            UpdateStats {
                dirty: edited,
                total: n,
                rounds: outcome.rounds,
                replayed_slots: outcome.replayed,
                reused_slots: n - outcome.replayed,
                counters: profiled.then(|| EngineCounters {
                    rounds: outcome.rounds,
                    ..EngineCounters::default()
                }),
            }
        };
        self.clear_dirty();
        stats
    }

    /// Resolves a [`QueryBatch`] against the current forest shape.
    ///
    /// Requires a clean forest: with edits pending the recorded trace is
    /// stale, so this returns [`QueryError::PendingEdits`] instead of
    /// silently answering from stale data — call
    /// [`DynForest::recompute`] first.
    ///
    /// Answers come from the maintained trace, which every recompute
    /// leaves equal to a fresh contraction of the current forest. The first
    /// batch after a structural recompute builds the trace's shape index
    /// in `O(n)`; label-only recomputes keep it. Every batch then pays one
    /// backsolve for the subtree values, `O(hosts + victims)` for the hop
    /// prefixes of the current labels, and `O(log² n)` per query (see
    /// [`Contraction::query_batch`](crate::Contraction::query_batch)).
    pub fn query_batch(&self, batch: &QueryBatch) -> Result<Vec<QueryOutcome<A>>, QueryError>
    where
        A: PathAlgebra + Sync,
        A::Label: Sync,
        A::Val: Send + Sync,
        A::PathVal: Send + Sync,
    {
        if !self.dirty_list.is_empty() {
            return Err(QueryError::PendingEdits {
                pending: self.dirty_list.len(),
            });
        }
        let trace = &self.scratch.trace;
        let shape = self
            .shape
            .get_or_init(|| Shape::new(&self.forest, &trace.links));
        let values = trace.backsolve(&self.alg);
        Ok(query::resolve(
            &self.forest,
            &trace.links,
            shape,
            &values,
            &self.alg,
            batch,
        ))
    }

    /// Verifies the structural invariants of the dynamic layer
    /// (`check` feature):
    ///
    /// * the underlying arena is well-formed ([`Forest::validate`]);
    /// * **edit-mark coherence** — `dirty_list` is a duplicate-free
    ///   enumeration of exactly the flagged nodes, and a structural edit
    ///   is pending only alongside a mark. (Edit marks are *not*
    ///   upward-closed: label edits mark only the edited node, and change
    ///   propagation finds the ancestors through the trace.)
    ///
    /// Returns a descriptive [`InvariantError`](crate::check::InvariantError)
    /// for the first violation. `O(n)`.
    #[cfg(feature = "check")]
    pub fn validate(&self) -> Result<(), crate::check::InvariantError> {
        use crate::check::ensure;
        self.forest.validate()?;
        let n = self.forest.len();
        ensure!(
            self.dirty.len() == n,
            "dirty flags are not sized to the forest ({n} nodes)"
        );
        ensure!(
            !self.has_structural || !self.dirty_list.is_empty(),
            "a structural edit is pending but no node is marked"
        );
        let mut in_list = vec![false; n];
        for &u in &self.dirty_list {
            ensure!(
                (u as usize) < n,
                "dirty_list contains out-of-range node {u}"
            );
            ensure!(!in_list[u as usize], "dirty_list lists n{u} twice");
            in_list[u as usize] = true;
            ensure!(
                self.dirty[u as usize],
                "dirty_list lists n{u}, which is not flagged dirty"
            );
        }
        for (v, (&flagged, &listed)) in self.dirty.iter().zip(&in_list).enumerate() {
            ensure!(
                !flagged || listed,
                "n{v} is flagged dirty but missing from dirty_list"
            );
        }
        Ok(())
    }

    /// Verifies (`check` feature) that the maintained trace *is* the trace
    /// a fresh contraction of the current forest records with the same
    /// seed. The fresh one must first pass
    /// [`Contraction::validate`](crate::Contraction::validate); then the
    /// two traces are compared field by field — child lists, death rounds,
    /// death parents, hop lists, slot kinds and backsolved values — and the
    /// first node that differs is named. When a query batch has built the
    /// shape index, also compares it with one built from the fresh trace.
    /// Requires a clean forest (no pending edits). `O(n log n)` w.h.p.
    #[cfg(feature = "check")]
    pub fn validate_trace(&self) -> Result<(), crate::check::InvariantError> {
        use crate::check::{ensure, InvariantError};
        use crate::engine::Death;
        ensure!(
            self.dirty_list.is_empty(),
            "validate_trace requires a clean forest ({} edits pending)",
            self.dirty_list.len()
        );
        let fresh = self.forest.contraction().seed(self.seed).run(&self.alg);
        fresh.validate(&self.forest)?;
        let (kept, fresh) = (&self.scratch.trace, &fresh.trace);
        let n = self.forest.len();
        let (k, f) = (&kept.links, &fresh.links);
        ensure!(
            kept.death.len() == n
                && k.round.len() == n
                && k.up.len() == n
                && k.children.off.len() == n + 1
                && k.hops.off.len() == n + 1,
            "the maintained trace is not sized to the forest ({n} nodes)"
        );
        let kind = |d: &Death<A>| match d {
            Death::None => "alive",
            Death::Raked(_) => "raked",
            Death::Compressed { .. } => "compressed",
            Death::Root(_) => "root",
        };
        let (kept_vals, fresh_vals) = (kept.backsolve(&self.alg), fresh.backsolve(&self.alg));
        for v in 0..n as u32 {
            let vi = v as usize;
            let differs = [
                ("child list", k.children.of(v) != f.children.of(v)),
                ("death round", k.round[vi] != f.round[vi]),
                ("death parent", k.up[vi] != f.up[vi]),
                ("hop list", k.hops.of(v) != f.hops.of(v)),
                ("slot kind", kind(&kept.death[vi]) != kind(&fresh.death[vi])),
                ("value", kept_vals[vi] != fresh_vals[vi]),
            ];
            if let Some((what, _)) = differs.iter().find(|(_, d)| *d) {
                return Err(InvariantError::new(format!(
                    "n{v}: the maintained trace's {what} differs from a fresh contraction's \
                     (maintained: {} in round {}, fresh: {} in round {})",
                    kind(&kept.death[vi]),
                    k.round[vi],
                    kind(&fresh.death[vi]),
                    f.round[vi]
                )));
            }
        }
        ensure!(
            *k == *f,
            "the maintained trace's links differ from a fresh contraction's"
        );
        if let Some(index) = self.shape.get() {
            ensure!(
                *index == Shape::new(&self.forest, f),
                "the kept query index differs from one built from a fresh contraction"
            );
        }
        Ok(())
    }
}
