//! Machine-checked structural invariants and a dynamic write-conflict
//! detector (the `check` cargo feature).
//!
//! The engine's correctness rests on a handful of structural invariants —
//! every node dies exactly once, death rounds strictly increase along the
//! trace's shortcut (`up[]`) pointers, the hop CSR partitions the
//! compressed nodes, a dynamic forest's trace equals a fresh contraction's
//! — and on the claim that all actions planned in one rake/compress round
//! touch **disjoint** (or
//! commutatively-combinable) state. This module turns those proof
//! obligations into executable checks:
//!
//! * **Validators** — with the `check` feature enabled, the `validate()`
//!   methods of [`Forest`](crate::Forest),
//!   [`Contraction`](crate::Contraction) and
//!   [`DynForest`](crate::DynForest) verify the full invariant set of their
//!   layer (plus `DynForest::validate_trace()` for the maintained trace)
//!   and return a descriptive [`InvariantError`] on the first violation.
//!   The methods exist only in that build, so these docs name them without
//!   linking. (The arena is append-only — there is no free list — so its
//!   checks are parent-range, parallel-array length, and acyclicity.)
//! * **Per-round engine hooks** — the engine calls a round validator after
//!   every apply phase and asserts no node dies twice. Both are guarded by
//!   the crate-private constant `ENABLED` ([`enabled`] reports it), the
//!   same const-gating idiom as the telemetry sinks' `S::ENABLED` (see
//!   [`obs`](crate::obs)): with the feature off the hooks are empty
//!   `#[inline]` functions behind a constant-false branch, and the
//!   optimizer deletes them.
//! * **Conflict detector** — the crate-private `WriteLog` is a shadow
//!   last-writer map `cell → (round, owner, mode)` fed by every
//!   working-state mutation the apply phase performs, and `PlanLog` its
//!   concurrent sibling for the
//!   (possibly multi-threaded) plan phase. Two owners touching the same
//!   cell in the same round fail fast — a hand-rolled dynamic race
//!   detector for the "planned actions are disjoint" claim, usable where
//!   `loom`-style model checkers are unavailable. Writes that the
//!   [`Algebra`](crate::Algebra) laws make order-free (sibling rakes
//!   absorbing into one parent accumulator, child-count decrements) are
//!   recorded with a commutative write mode and only conflict with
//!   writes of a *different* mode. Reads are not tracked: the plan phase
//!   reads only the immutable pre-round snapshot, so write/write conflicts
//!   are the whole hazard surface.
//!
//! Everything here compiles to nothing without the feature: `WriteLog`
//! and `PlanLog` become field-less structs with empty inlined methods,
//! and the validators simply do not exist. Benchmarks assert the feature is
//! off (see `dtc-bench`) so recorded numbers stay comparable.

use std::fmt;

/// `true` when the `check` feature is compiled in.
///
/// Engine hooks are guarded as `if check::ENABLED { … }` so that, exactly
/// like the telemetry sinks' `S::ENABLED`, the unchecked build pays
/// nothing.
pub(crate) const ENABLED: bool = cfg!(feature = "check");

/// `true` when this build of `dtc-core` has the `check` feature enabled.
///
/// Benchmarks call this to refuse to record numbers from an instrumented
/// build (per-round validation is `O(frontier)` extra work per round).
pub const fn enabled() -> bool {
    ENABLED
}

/// Fail-fast assertion for internal invariants.
///
/// Unlike a bare `panic!`, every use signals a *broken engine invariant*
/// (never bad user input — those paths return proper `Err`s), and the
/// repo lint (`cargo run -p xtask -- lint`) sanctions `invariant!` while
/// forbidding raw `panic!`/`unwrap`/`expect` in library paths.
macro_rules! invariant {
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            // lint:allow(panic): invariant! is the sanctioned fail-fast primitive
            panic!("invariant violated: {}", format_args!($($arg)+));
        }
    };
}
pub(crate) use invariant;

/// Early-return helper for validators: like `invariant!` but produces an
/// `Err(InvariantError)` instead of panicking, so `validate()` callers can
/// report violations without unwinding.
#[cfg(feature = "check")]
macro_rules! ensure {
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err($crate::check::InvariantError::new(format!($($arg)+)));
        }
    };
}
#[cfg(feature = "check")]
pub(crate) use ensure;

/// A violated structural invariant, reported by the `validate()` methods.
///
/// Carries a human-readable description of the first violation found;
/// validators stop at the first problem so the message always points at a
/// concrete node or cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantError {
    what: String,
}

impl InvariantError {
    #[cfg(feature = "check")]
    pub(crate) fn new(what: impl Into<String>) -> Self {
        InvariantError { what: what.into() }
    }

    /// The violation description.
    pub fn message(&self) -> &str {
        &self.what
    }
}

impl fmt::Display for InvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant violated: {}", self.what)
    }
}

impl std::error::Error for InvariantError {}

/// One mutable cell of the engine's per-node scratch state, the unit of
/// conflict detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Cell {
    /// Working parent pointer `par[v]`.
    Par(u32),
    /// Live child count `count[v]`.
    Count(u32),
    /// Partial accumulator `acc[v]`.
    Acc(u32),
    /// Edge function `fun[v]`.
    Fun(u32),
    /// Sibling slot `sib[v]`.
    Sib(u32),
    /// Life state of `v`: the alive flag plus the death record, round
    /// stamp and trace entry written by a kill.
    Life(u32),
    /// Plan-phase action slot of live node `v` (recorded only under
    /// `check`).
    #[cfg_attr(not(feature = "check"), allow(dead_code))]
    Action(u32),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Cell::Par(v) => write!(f, "par[n{v}]"),
            Cell::Count(v) => write!(f, "count[n{v}]"),
            Cell::Acc(v) => write!(f, "acc[n{v}]"),
            Cell::Fun(v) => write!(f, "fun[n{v}]"),
            Cell::Sib(v) => write!(f, "sib[n{v}]"),
            Cell::Life(v) => write!(f, "life[n{v}]"),
            Cell::Action(v) => write!(f, "action[n{v}]"),
        }
    }
}

/// How a cell was written, deciding which same-round overlaps are races.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteMode {
    /// Plain write; any other owner touching the cell this round is a
    /// conflict.
    Exclusive,
    /// Commutative fold into an accumulator (the [`Algebra::absorb_at`]
    /// laws make sibling rakes order-free).
    ///
    /// [`Algebra::absorb_at`]: crate::Algebra::absorb_at
    Absorb,
    /// Commutative child-count decrement.
    Decrement,
}

impl WriteMode {
    /// Stable lowercase name for messages.
    fn name(self) -> &'static str {
        match self {
            WriteMode::Exclusive => "exclusive",
            WriteMode::Absorb => "absorb",
            WriteMode::Decrement => "decrement",
        }
    }
}

/// Two owners touched the same cell in the same round, reported by
/// [`WriteLog::record`] / [`PlanLog::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ConflictError {
    cell: Cell,
    round: u32,
    first_owner: u64,
    first_mode: WriteMode,
    second_owner: u64,
    second_mode: WriteMode,
}

impl fmt::Display for ConflictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "write conflict on {} in round {}: owner {} ({}) vs owner {} ({})",
            self.cell,
            self.round,
            self.first_owner,
            self.first_mode.name(),
            self.second_owner,
            self.second_mode.name()
        )
    }
}

impl std::error::Error for ConflictError {}

/// Last writer of a cell (enabled builds only).
#[cfg(feature = "check")]
#[derive(Debug, Clone, Copy)]
struct Written {
    round: u32,
    owner: u64,
    mode: WriteMode,
}

/// Shadow write-log for the (sequential) apply phase: a last-writer map
/// `cell → (round, owner, mode)`.
///
/// The engine records every scratch mutation an action performs, with the
/// acting node as the owner. Because the randomized coin condition is
/// supposed to make all planned actions disjoint (up to commutative
/// absorbs/decrements), any two owners hitting one cell in one round is a
/// planning bug — [`WriteLog::record`] reports it as a [`ConflictError`]
/// and the engine fails fast.
///
/// Without the `check` feature this is a field-less struct whose methods
/// are empty `#[inline]` bodies.
#[derive(Debug, Default)]
pub(crate) struct WriteLog {
    #[cfg(feature = "check")]
    entries: std::collections::HashMap<Cell, Written>,
    #[cfg(feature = "check")]
    round: u32,
}

impl WriteLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new round; entries from earlier rounds stop conflicting
    /// (they are lazily overwritten rather than eagerly cleared).
    #[inline]
    pub fn begin_round(&mut self, _round: u32) {
        #[cfg(feature = "check")]
        {
            self.round = _round;
        }
    }

    /// Records that `_owner` wrote `_cell` with `_mode` in the current
    /// round. Returns the conflict if another owner already touched the
    /// cell this round in a non-commuting way.
    #[inline]
    pub fn record(
        &mut self,
        _cell: Cell,
        _mode: WriteMode,
        _owner: u64,
    ) -> Result<(), ConflictError> {
        #[cfg(feature = "check")]
        {
            use std::collections::hash_map::Entry;
            match self.entries.entry(_cell) {
                Entry::Vacant(e) => {
                    e.insert(Written {
                        round: self.round,
                        owner: _owner,
                        mode: _mode,
                    });
                }
                Entry::Occupied(mut e) => {
                    let w = e.get_mut();
                    if w.round != self.round {
                        *w = Written {
                            round: self.round,
                            owner: _owner,
                            mode: _mode,
                        };
                    } else if w.owner != _owner
                        && (_mode != w.mode || _mode == WriteMode::Exclusive)
                    {
                        return Err(ConflictError {
                            cell: _cell,
                            round: self.round,
                            first_owner: w.owner,
                            first_mode: w.mode,
                            second_owner: _owner,
                            second_mode: _mode,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Concurrent write-log for the plan phase: one entry per action slot,
/// keyed by the worker thread that wrote it.
///
/// The plan phase hands each live node's action slot to exactly one worker
/// (contiguous chunks under the `parallel` feature); this log records the
/// actual writer of every slot and [`PlanLog::finish`] reports the first
/// slot two distinct workers both wrote. Interior mutability (a mutex) so
/// the recording call works from inside the scoped-thread fan-out.
///
/// Without the `check` feature this is a field-less struct whose methods
/// are empty `#[inline]` bodies.
#[derive(Debug, Default)]
pub(crate) struct PlanLog {
    #[cfg(feature = "check")]
    state: std::sync::Mutex<PlanState>,
}

#[cfg(feature = "check")]
#[derive(Debug, Default)]
struct PlanState {
    slots: std::collections::HashMap<u32, u64>,
    conflict: Option<ConflictError>,
}

impl PlanLog {
    /// Creates an empty log (one per planning round).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the *current thread* wrote the action slot of live
    /// node `_slot`.
    #[inline]
    pub fn record(&self, _slot: u32) {
        #[cfg(feature = "check")]
        self.record_as(_slot, crate::par::worker_tag());
    }

    /// Records a slot write by an explicit worker tag.
    ///
    /// This is the seam the conflict-detector tests use to simulate two
    /// workers colliding on one slot without spawning threads.
    #[cfg(feature = "check")]
    pub fn record_as(&self, slot: u32, worker: u64) {
        // A poisoned mutex means a sibling worker already panicked; the
        // run is failing anyway, so skip recording rather than unwind.
        let Ok(mut state) = self.state.lock() else {
            return;
        };
        if state.conflict.is_some() {
            return;
        }
        match state.slots.insert(slot, worker) {
            Some(prev) if prev != worker => {
                state.conflict = Some(ConflictError {
                    cell: Cell::Action(slot),
                    round: 0,
                    first_owner: prev,
                    first_mode: WriteMode::Exclusive,
                    second_owner: worker,
                    second_mode: WriteMode::Exclusive,
                });
            }
            _ => {}
        }
    }

    /// Reports the first conflicting slot write, if any.
    #[inline]
    pub fn finish(&self) -> Result<(), ConflictError> {
        #[cfg(feature = "check")]
        {
            let Ok(state) = self.state.lock() else {
                return Ok(());
            };
            if let Some(c) = &state.conflict {
                return Err(c.clone());
            }
        }
        Ok(())
    }
}

/// Escalates a detector result into a fail-fast panic (via `invariant!`).
///
/// In unchecked builds the result is always `Ok`, so the branch is
/// constant-false and vanishes.
#[inline]
pub(crate) fn must(r: Result<(), ConflictError>) {
    if let Err(c) = r {
        invariant!(false, "{c}");
    }
}

/// Euler tour intervals over a forest: `O(1)` ancestor tests for the
/// validators, plus a cycle check for free (a cyclic parent graph never
/// visits all nodes).
#[cfg(feature = "check")]
pub(crate) struct Euler {
    /// Preorder index: one tick per node, so the clock cannot wrap.
    tin: Vec<u32>,
    /// The last preorder index in the node's subtree.
    tout: Vec<u32>,
}

#[cfg(feature = "check")]
impl Euler {
    /// Computes intervals, or reports a parent cycle / dangling parent.
    pub(crate) fn of<L>(forest: &crate::Forest<L>) -> Result<Euler, InvariantError> {
        let n = forest.len();
        for v in 0..n as u32 {
            let p = forest.parent_raw(v);
            ensure!(
                p == crate::arena::NONE || (p as usize) < n,
                "parent pointer of n{v} ({p}) is out of range for {n} nodes"
            );
        }
        let children = forest.build_children();
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        let mut clock = 0u32;
        let mut visited = 0usize;
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for r in forest.roots() {
            stack.push((r.raw(), 0));
            tin[r.index()] = clock;
            clock += 1;
            visited += 1;
            while let Some((u, ci)) = stack.last_mut() {
                let u = *u;
                if *ci < children[u as usize].len() {
                    let k = children[u as usize][*ci];
                    *ci += 1;
                    tin[k as usize] = clock;
                    clock += 1;
                    visited += 1;
                    stack.push((k, 0));
                } else {
                    tout[u as usize] = clock - 1;
                    stack.pop();
                }
            }
        }
        ensure!(
            visited == n,
            "parent links reach only {visited} of {n} nodes from the roots (cycle?)"
        );
        Ok(Euler { tin, tout })
    }

    /// `true` iff `a` is an ancestor of `b` (or equal).
    #[inline]
    pub(crate) fn is_anc(&self, a: u32, b: u32) -> bool {
        self.tin[a as usize] <= self.tin[b as usize]
            && self.tout[b as usize] <= self.tout[a as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_log_allows_commuting_writes() {
        let mut log = WriteLog::new();
        log.begin_round(1);
        assert!(log.record(Cell::Acc(3), WriteMode::Absorb, 10).is_ok());
        assert!(log.record(Cell::Acc(3), WriteMode::Absorb, 11).is_ok());
        assert!(log.record(Cell::Count(3), WriteMode::Decrement, 10).is_ok());
        assert!(log.record(Cell::Count(3), WriteMode::Decrement, 11).is_ok());
        // Same owner may rewrite its own cell however it likes.
        assert!(log.record(Cell::Fun(5), WriteMode::Exclusive, 9).is_ok());
        assert!(log.record(Cell::Fun(5), WriteMode::Exclusive, 9).is_ok());
    }

    #[cfg(feature = "check")]
    #[test]
    fn smoke_write_log_reports_overlapping_writes() {
        // Two owners, same cell, same round: the seeded overlap every
        // parallel bug eventually reduces to. Commutative absorbs may share
        // a cell; anything else must be reported.
        let mut log = WriteLog::new();
        log.begin_round(3);
        assert!(log.record(Cell::Acc(7), WriteMode::Absorb, 1).is_ok());
        assert!(log.record(Cell::Acc(7), WriteMode::Absorb, 2).is_ok());
        let err = log
            .record(Cell::Par(7), WriteMode::Exclusive, 1)
            .and(log.record(Cell::Par(7), WriteMode::Exclusive, 2))
            .expect_err("overlapping exclusive writes must be detected");
        let msg = err.to_string();
        assert!(msg.contains("par[n7]"), "names the cell: {msg}");
        assert!(msg.contains("round 3"), "names the round: {msg}");
        assert!(msg.contains("owner 1") && msg.contains("owner 2"), "{msg}");
        // Mixing a commutative mode with an exclusive write also races.
        assert!(log.record(Cell::Count(9), WriteMode::Decrement, 1).is_ok());
        assert!(log.record(Cell::Count(9), WriteMode::Exclusive, 2).is_err());

        // A new round clears the slate.
        log.begin_round(4);
        assert!(log.record(Cell::Par(7), WriteMode::Exclusive, 2).is_ok());
        assert!(log.record(Cell::Par(8), WriteMode::Exclusive, 1).is_ok());
        let err = log
            .record(Cell::Par(8), WriteMode::Exclusive, 2)
            .expect_err("two exclusive writers on one cell must conflict");
        let msg = err.to_string();
        assert!(msg.contains("par[n8]"), "message names the cell: {msg}");
        assert!(msg.contains("round 4"), "message names the round: {msg}");
        assert!(log.record(Cell::Acc(9), WriteMode::Absorb, 1).is_ok());
        assert!(log.record(Cell::Acc(9), WriteMode::Exclusive, 2).is_err());
        log.begin_round(5);
        assert!(log.record(Cell::Par(8), WriteMode::Exclusive, 2).is_ok());
    }

    #[cfg(feature = "check")]
    #[test]
    fn smoke_plan_log_reports_two_workers_on_one_slot() {
        let log = PlanLog::new();
        for slot in 0..16 {
            log.record_as(slot, 0xA);
        }
        assert!(log.finish().is_ok(), "disjoint slots are fine");
        log.record_as(5, 0xB);
        let err = log
            .finish()
            .expect_err("slot 5 written by two workers must be detected");
        assert!(err.to_string().contains("action[n5]"), "{err}");

        let log = PlanLog::new();
        log.record_as(41, 0xAA);
        log.record_as(42, 0xAA);
        assert!(log.finish().is_ok());
        log.record_as(41, 0xBB);
        let err = log.finish().expect_err("two workers wrote slot 41");
        assert!(err.to_string().contains("action[n41]"));
    }
}
