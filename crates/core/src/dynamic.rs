//! Batch-dynamic forests via change propagation over the contraction trace.
//!
//! [`DynForest`] owns one round-stamped trace — the same `Trace` type a
//! [`Contraction`](crate::Contraction) owns — and treats it as a
//! dependency DAG (see `propagate.rs`). After every
//! [`DynForest::recompute`] that trace is exactly the one a fresh
//! contraction of the current forest records under the forest's fixed coin
//! seed, `forest.contraction().seed(seed).run(..)`. Edits are applied to
//! the shape immediately but value recomputation is deferred, and
//! `recompute` runs one path in two phases:
//!
//! * **structure** — when [`DynForest::try_batch_cut`] or
//!   [`DynForest::try_batch_link`] moved nodes, the edits only flip parent
//!   pointers and mark the moved nodes. Recompute then re-decides, round by
//!   round, just the nodes whose round state (alive, working parent, live
//!   child count) the moves disturbed, reading every other node's state
//!   from the trace itself, rewrites the records of the nodes whose death
//!   changed, and patches the hop lists and raked-child lists that depend
//!   on them (`restructure.rs`). No node outside that set is visited and no
//!   contraction runs. Children are always numbered in id order, the order
//!   [`Forest::sequential_fold`] folds them in, so ordered algebras stay
//!   exact across cuts and links.
//!   A label-only batch is the case where this phase has nothing to do;
//! * **values** — change propagation *replays* just the trace slots whose
//!   inputs changed: the relabelled nodes ([`DynForest::batch_update_weights`]
//!   marks only those) and whatever the structure phase rewrote. A
//!   re-executed rake that reproduces its recorded contribution cuts the
//!   wave off, and every untouched slot's recorded result is reused
//!   verbatim. Cached per-node child aggregates (flat subtract/re-add parts
//!   for invertible algebras, balanced sibling trees otherwise) make each
//!   replayed slot `O(1)`–`O(log degree)`, so a batch costs
//!   `O(affected × log)` independent of tree depth *and* node degree.
//!
//! Values are resolved lazily from the trace (`O(rounds)` per read, no
//! per-node value cache to keep coherent), which is why reads return
//! values rather than references and why *any* pending edit makes every
//! read stale until [`DynForest::recompute`] runs. Batch queries
//! ([`DynForest::query_batch`]) resolve values and roots as reads do, and
//! LCAs and paths from the endpoints' death-parent chains and the hop
//! lists between them. They keep no index, so a query batch costs
//! `O(rounds)` per query plus the hop prefixes its path folds reach,
//! whether the last batch was structural or label-only.
//!
//! Each operation has one public form, and none panics on a bad input:
//! edits return `Result<(), EditError>` and leave no trace of a rejected
//! batch, reads return `Result<_, QueryError>`.

use crate::algebra::{Algebra, PathAlgebra, Propagate};
use crate::arena::{Csr, Forest, NONE};
use crate::engine::{self, Death, Recorded, Trace};
use crate::obs::{EngineCounters, NoopSink, Phase, Profile, Sink};
use crate::propagate::{resolve_val, Replay};
use crate::query::{self, QueryBatch, QueryError, QueryOutcome};
use crate::restructure::Restructure;
use crate::NodeId;
use std::fmt;
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
    /// The number of distinct trace rounds the replay wave touched (its
    /// depth in the contraction DAG); on a structural batch, the larger of
    /// that and the rounds the structure phase re-decided.
    pub rounds: u32,
    /// Trace slots re-executed by change propagation. On a structural
    /// batch these include every slot the structure phase rewrote, the
    /// parents whose child aggregates it changed, and the wave above them.
    pub replayed_slots: usize,
    /// Trace slots whose recorded results were reused untouched,
    /// `total - replayed_slots`.
    pub reused_slots: usize,
    /// Counters for this recompute, `Some` only when profiling is enabled
    /// via [`DynForest::enable_profiling`]: `rounds` as above, and on a
    /// structural batch the structure phase's totals — the rakes, splices,
    /// finishes and coin rejections the re-decided nodes chose in the new
    /// run, and its largest per-round set of re-decided nodes as
    /// `max_frontier`. A label-only batch reports zero actions.
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
/// // Cut `a` off: a structural edit, so recompute re-decides the nodes it
/// // disturbed before propagating values.
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
    /// Whether a cut or link landed since the last recompute, so that the
    /// next one runs the structure phase, seeded with the edited nodes.
    structural: bool,
    /// The maintained trace: after every recompute, the one a fresh
    /// contraction of the current forest records under `seed`.
    pub(crate) trace: Trace<A>,
    /// The raked-child lists of the trace ([`engine::raked_lists`]), which
    /// only the structure phase reads and patches. Built by the first
    /// structural batch: a forest that is never cut or linked neither
    /// builds nor holds them. Built by [`DynForest::new`] instead, they cost
    /// ~3 ms and ~1.3 MB per 100k-node forest on a 2-vCPU host, which put
    /// `dtc-e2e`'s `setup_s` past its bound on the workloads without cuts
    /// or links.
    raked: Option<Csr>,
    /// The structure phase's working sets, kept so batches reuse them.
    restructure: Restructure,
    /// Replay caches over the maintained trace. Everything clones with the
    /// forest, so a cloned forest is immediately ready to recompute
    /// (benchmarks rely on this).
    replay: Replay<A>,
    /// Coin seed of every contraction this forest runs, fixed for its life.
    seed: u64,
    /// Telemetry collector; `Some` once profiling is enabled. Boxed so the
    /// common unprofiled forest stays small.
    profile: Option<Box<Profile>>,
}

impl<A: Propagate> DynForest<A> {
    /// Wraps `forest` and runs the initial full contraction (which also
    /// builds the replay caches, so a freshly constructed forest is ready
    /// to recompute).
    ///
    /// # Panics
    /// As [`DynForest::with_seed`] does.
    pub fn new(forest: Forest<A::Label>, alg: A) -> Self {
        Self::with_seed(forest, alg, 0xD15EA5E)
    }

    /// Like [`DynForest::new`] with an explicit coin seed: the maintained
    /// trace is always the one `forest.contraction().seed(seed)` records.
    ///
    /// # Panics
    /// Panics if a table outgrows its `u32` offsets, here or in a later
    /// [`recompute`](DynForest::recompute): past ~660 M nodes under a
    /// non-invertible algebra, whose sibling trees hold up to `6.5n` parts
    /// with room to grow, and past ~2.8 G nodes otherwise (the list tables
    /// hold up to `1.5n` ids).
    pub fn with_seed(forest: Forest<A::Label>, alg: A, seed: u64) -> Self {
        let n = forest.len();
        // The engine's working buffers and death order are dropped before
        // the replay caches are built.
        let (trace, ..) = engine::record(&alg, &forest, seed, &mut NoopSink);
        let replay = Replay::new(&alg, &trace);
        DynForest {
            alg,
            forest,
            dirty: vec![false; n],
            dirty_list: Vec::new(),
            structural: false,
            trace,
            raked: None,
            restructure: Restructure::default(),
            replay,
            seed,
            profile: None,
        }
    }

    /// Turns on telemetry collection: every subsequent batch edit reports a
    /// dirty-mark span, and every [`DynForest::recompute`] a propagate span
    /// and, after cuts or links, a restructure span with per-round counters
    /// of the nodes it re-decided, into an internal [`Profile`];
    /// [`UpdateStats::counters`] becomes `Some`. A `DynForest` runs the
    /// contraction engine only when it is built, before profiling can be
    /// on, so its profile holds no plan, apply or backsolve spans.
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
    /// An id outside the forest carries no mark.
    pub fn is_dirty(&self, v: NodeId) -> bool {
        self.dirty.get(v.index()).copied().unwrap_or(false)
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
        self.readable(v)?;
        Ok(resolve_val(&self.alg, &self.trace.death, v.raw()))
    }

    /// Aggregate of the component containing `v` (any node of the
    /// component, not just its root), or an error if edits are pending or
    /// `v` is out of range.
    ///
    /// Death parents are ancestors that die strictly later, so climbing
    /// them reaches the component root in `O(rounds)` steps, however deep
    /// `v` sits.
    pub fn try_component_value(&self, v: NodeId) -> Result<A::Val, QueryError> {
        self.readable(v)?;
        let root = self.trace.links.root(v.raw());
        Ok(resolve_val(&self.alg, &self.trace.death, root))
    }

    /// `Ok` when `v` names a node of the forest and no edit is pending.
    fn readable(&self, v: NodeId) -> Result<(), QueryError> {
        let nodes = self.forest.len();
        if v.index() >= nodes {
            return Err(QueryError::UnknownNode { node: v, nodes });
        }
        if !self.dirty_list.is_empty() {
            return Err(QueryError::Stale { node: v });
        }
        Ok(())
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
    /// `moved`, in order. A valid batch marks the moved nodes, which seed
    /// the next recompute's structure phase with the other edited nodes; a
    /// rejected one restores the old parents in reverse and marks nothing,
    /// leaving the shape, the marks and every read exactly as before the
    /// call.
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
            self.structural |= !moved.is_empty();
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

    /// Clears all pending edit marks.
    fn clear_dirty(&mut self) {
        let DynForest {
            dirty,
            dirty_list,
            structural,
            ..
        } = self;
        for &u in dirty_list.iter() {
            dirty[u as usize] = false;
        }
        dirty_list.clear();
        *structural = false;
    }

    /// Refreshes all values invalidated by pending edits, in two phases.
    ///
    /// 1. **Structure.** When cuts or links are pending, re-decide round by
    ///    round only the nodes whose round state the batch disturbed, and
    ///    patch their trace records in place (`restructure.rs`). A
    ///    label-only batch skips this phase.
    /// 2. **Values.** Change propagation replays the trace slots whose
    ///    inputs changed — the relabelled nodes and whatever phase 1
    ///    rewrote — in `O(affected × log)` (see the module docs).
    ///
    /// Either way the trace afterwards is exactly the one a fresh
    /// contraction of the current forest records under the forest's seed.
    /// On a structural batch, [`UpdateStats`] reports the rounds and
    /// counters of both phases (see its fields).
    ///
    /// # Panics
    /// Panics if a table outgrows its `u32` offsets, as described on
    /// [`DynForest::with_seed`].
    pub fn recompute(&mut self) -> UpdateStats {
        let n = self.forest.len();
        let edited = self.dirty_list.len();
        let profiled = self.profile.is_some();
        if edited == 0 {
            return UpdateStats {
                dirty: 0,
                total: n,
                rounds: 0,
                replayed_slots: 0,
                reused_slots: 0,
                counters: profiled.then(EngineCounters::default),
            };
        }
        let DynForest {
            alg,
            forest,
            dirty_list,
            structural,
            trace,
            raked,
            restructure,
            replay,
            seed,
            profile,
            ..
        } = self;
        let mut seeds: Vec<u32> = Vec::new();
        let mut refolds: &[u32] = &[];
        let mut structure = EngineCounters::default();
        if *structural {
            let start = profiled.then(Instant::now);
            let raked = raked.get_or_insert_with(|| engine::raked_lists(trace));
            let recorded = Recorded {
                links: &trace.links,
                death: &trace.death,
                raked,
            };
            structure = match profile {
                Some(p) => restructure.run(&recorded, forest, dirty_list, *seed, p.as_mut()),
                None => restructure.run(&recorded, forest, dirty_list, *seed, &mut NoopSink),
            };
            restructure.commit(alg, forest, trace, raked);
            replay.relay(alg, trace, raked, &restructure.parents, &mut seeds);
            refolds = &restructure.changed;
            if let (Some(t), Some(p)) = (start, profile.as_mut()) {
                p.phase(Phase::Restructure, t.elapsed().as_nanos() as u64);
            }
        }
        seeds.extend_from_slice(dirty_list);
        let outcome = match profile {
            Some(p) => replay.propagate(alg, forest, trace, &seeds, refolds, p.as_mut()),
            None => replay.propagate(alg, forest, trace, &seeds, refolds, &mut NoopSink),
        };
        if *structural {
            warm(&trace.death);
        }
        let rounds = structure.rounds.max(outcome.rounds);
        let stats = UpdateStats {
            dirty: edited,
            total: n,
            rounds,
            replayed_slots: outcome.replayed,
            reused_slots: n - outcome.replayed,
            counters: profiled.then_some(EngineCounters {
                rounds,
                ..structure
            }),
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
    /// leaves equal to a fresh contraction of the current forest, at the
    /// cost [`Contraction::query_batch`](crate::Contraction::query_batch)
    /// pays whether the last recompute was structural or label-only; then
    /// one pass over the death records warms them for the caller's reads.
    pub fn query_batch(&self, batch: &QueryBatch) -> Result<Vec<QueryOutcome<A>>, QueryError>
    where
        A: PathAlgebra,
    {
        if !self.dirty_list.is_empty() {
            return Err(QueryError::PendingEdits {
                pending: self.dirty_list.len(),
            });
        }
        let answers = query::resolve(&self.forest, &self.trace, &self.alg, batch);
        warm(&self.trace.death);
        Ok(answers)
    }

    /// Verifies the structural invariants of the dynamic layer
    /// (`check` feature):
    ///
    /// * the underlying arena is well-formed ([`Forest::validate`]);
    /// * **edit-mark coherence** — `dirty_list` is a duplicate-free
    ///   enumeration of exactly the flagged nodes. (Edit marks are *not*
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
    /// [`Contraction::validate`](crate::Contraction::validate). Then the
    /// two traces are compared node by node — death rounds, death parents,
    /// hop lists, slot kinds, the child a compressed node was spliced onto,
    /// the slot a raked node's record names, raked-child lists once built
    /// (against lists built from the fresh trace), child aggregates (part
    /// for part against replay caches built from the fresh trace) and
    /// backsolved values — and the first node that differs is named. Query
    /// batches keep nothing between calls, so there is no query state to
    /// compare.
    /// Requires a clean forest (no pending edits).
    /// `O(n log n)` w.h.p.
    #[cfg(feature = "check")]
    pub fn validate_trace(&self) -> Result<(), crate::check::InvariantError>
    where
        A::Part: PartialEq,
    {
        use crate::check::{ensure, InvariantError};
        use crate::engine::Death;
        ensure!(
            self.dirty_list.is_empty(),
            "validate_trace requires a clean forest ({} edits pending)",
            self.dirty_list.len()
        );
        let fresh_run = self.forest.contraction().seed(self.seed).run(&self.alg);
        fresh_run.validate(&self.forest)?;
        let (kept, fresh) = (&self.trace, &fresh_run.trace);
        let n = self.forest.len();
        let (k, f) = (&kept.links, &fresh.links);
        let raked = self.raked.as_ref();
        ensure!(
            kept.death.len() == n
                && k.round.len() == n
                && k.up.len() == n
                && k.hops.groups() == n
                && raked.map_or(true, |r| r.groups() == n),
            "the maintained trace is not sized to the forest ({n} nodes)"
        );
        let kind = |d: &Death<A>| match d {
            Death::None => "alive",
            Death::Raked { .. } => "raked",
            Death::Compressed { .. } => "compressed",
            Death::Root(_) => "root",
        };
        let host = |d: &Death<A>| match d {
            Death::Compressed { child, .. } => *child,
            _ => NONE,
        };
        let slot = |d: &Death<A>| match d {
            Death::Raked { slot, .. } => *slot,
            _ => NONE,
        };
        let fresh_vals = fresh_run.values();
        let kept_vals: Vec<A::Val> = (0..n as u32)
            .map(|v| resolve_val(&self.alg, &kept.death, v))
            .collect();
        let fresh_raked = engine::raked_lists(fresh);
        let fresh_replay = Replay::new(&self.alg, fresh);
        for v in 0..n as u32 {
            let vi = v as usize;
            let differs = [
                ("death round", k.round[vi] != f.round[vi]),
                ("death parent", k.up[vi] != f.up[vi]),
                ("hop list", k.hops.of(v) != f.hops.of(v)),
                ("slot kind", kind(&kept.death[vi]) != kind(&fresh.death[vi])),
                ("host", host(&kept.death[vi]) != host(&fresh.death[vi])),
                ("slot", slot(&kept.death[vi]) != slot(&fresh.death[vi])),
                (
                    "raked-child list",
                    raked.is_some_and(|r| r.of(v) != fresh_raked.of(v)),
                ),
                ("child aggregate", !self.replay.same_kids(&fresh_replay, v)),
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
        Ok(())
    }
}

/// Reads every death record once, in order, so that the caller's next
/// reads, which resolve from them, find them in cache. A structural
/// recompute reads the old round state all over the trace, and a query
/// batch reads death-parent chains, hop lists and labels; after either,
/// reads ran slower without this pass (on `dtc-e2e`, 1.6x after a
/// structural recompute, 3.6x after a query batch), which costs about
/// 0.1 ms per 100k nodes; ARCHITECTURE.md has the ablations.
fn warm<A: Algebra>(death: &[Death<A>]) {
    let finished = death.iter().filter(|d| matches!(d, Death::Root(_)));
    std::hint::black_box(finished.count());
}
