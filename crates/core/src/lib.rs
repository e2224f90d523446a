//! Dynamic parallel tree contraction (Reif–Tate, SPAA 1994).
//!
//! This crate implements Miller–Reif tree contraction — alternating **rake**
//! (fold leaves into their parents) and randomized **compress** (splice out
//! unary chain nodes) — over an arena-allocated [`Forest`] of `u32`-indexed
//! nodes, and layers two engines on top of the recorded round-stamped
//! trace:
//!
//! * a **batch-dynamic** update API: subtree values resolve for every
//!   node from the recorded trace, batches of
//!   [`weight`](DynForest::batch_update_weights) edits *replay* only the
//!   trace slots whose inputs changed (change propagation with child
//!   aggregates filled from the recorded rakes — see the [`Propagate`]
//!   trait), and batches of [`cut`](DynForest::try_batch_cut) /
//!   [`link`](DynForest::try_batch_link) edits first re-contract, round by
//!   round, only the nodes whose round state they disturb, reading every
//!   other node's state back from the trace. Every edit and read has one
//!   form, which returns a `Result` instead of panicking;
//! * a **batch query** engine: a [`QueryBatch`] of mixed subtree / path /
//!   LCA / component queries resolves over the contraction DAG — values
//!   and roots from the death records as reads resolve them, LCAs and
//!   paths from the endpoints' death-parent chains and the hop lists
//!   between them — in `O(rounds)` per query plus the prefix folds its
//!   paths reach, instead of one tree walk per query (see the [`query`]
//!   module docs for the construction).
//!
//! A run records its trace once, and both [`Contraction`] and
//! [`DynForest`] own one of the same type: death records (a rake's names
//! the sibling slot it landed at) and edge functions, plus the
//! algebra-independent links (death rounds, death parents and hop lists).
//! The query engine reads the links and the death records. No child list
//! is kept: a dynamic forest's structure phase reads each node's child
//! chains back from the hop lists and the raked-child lists, which it
//! builds from the trace on the forest's first cut or link.
//!
//! Value semantics are pluggable through the [`Algebra`] trait; shipped
//! instances double as correctness oracles against
//! [`Forest::sequential_fold`]:
//!
//! * [`SubtreeSum`] — weighted subtree sums;
//! * [`ExprEval`] — `+`/`×` expression-tree evaluation via affine function
//!   composition;
//! * [`MinMax`] — subtree extrema;
//! * [`OrderedRake`] — adapter giving any associative [`SeqMonoid`]
//!   **preorder** (non-commutative) semantics via sibling-indexed rake,
//!   e.g. [`SeqHash`], a rolling hash of the preorder label sequence.
//!
//! [`SubtreeSum`], [`ExprEval`] and [`MinMax`] are also [`PathAlgebra`]s,
//! so they answer path-aggregate queries.
//!
//! The engine plans and applies every round on the calling thread.
//!
//! Everything the engine does is observable through the [`obs`] module: a
//! profiled run or forest reports phase spans
//! (plan/apply/backsolve/dirty-mark/propagate/restructure) and per-round
//! counters into
//! an [`obs::Profile`], which aggregates them into latency histograms
//! (p50/p90/p99) and per-round totals. Telemetry is statically dispatched,
//! so an unprofiled run compiles all instrumentation out.
//!
//! The `check` cargo feature compiles in the [`check`] module's
//! correctness tooling — structural `validate()` methods on [`Forest`],
//! [`Contraction`] and [`DynForest`], per-round engine invariant hooks,
//! and a dynamic write-conflict detector for the apply phase — all
//! const-gated so the default build pays nothing.
//!
//! ```
//! use dtc_core::{Answer, DynForest, Forest, QueryBatch, SubtreeSum};
//!
//! let mut f = Forest::new();
//! let root = f.add_root(1i64);
//! let mid = f.add_child(root, 2);
//! let leaf = f.add_child(mid, 3);
//!
//! // Static contraction via the builder; seed/profiling are opt-in.
//! let c = f.contraction().run(&SubtreeSum);
//! assert_eq!(*c.subtree_value(root), 6);
//! let p = f.contraction().seed(0x5EED).profiled().run(&SubtreeSum);
//! assert_eq!(p.profile().unwrap().totals().retired(), 3);
//!
//! // Batch queries over the same contraction: one trace pass, many answers.
//! let mut batch = QueryBatch::new();
//! batch.subtree(mid).path(leaf, root).lca(leaf, mid).component_root(leaf);
//! let answers = c.query_batch(&f, &SubtreeSum, &batch).unwrap();
//! assert_eq!(answers[0], Ok(Answer::Value(5)));
//! assert_eq!(answers[1], Ok(Answer::PathValue(6)));
//! assert_eq!(answers[2], Ok(Answer::Node(mid)));
//! assert_eq!(answers[3], Ok(Answer::Node(root)));
//!
//! // Batch-dynamic updates with non-panicking edits and explicit staleness.
//! let mut d = DynForest::new(f, SubtreeSum);
//! d.batch_update_weights(&[(leaf, 30)]).unwrap();
//! assert!(d.try_subtree_value(root).is_err()); // stale until recompute
//! d.recompute();
//! assert_eq!(d.try_subtree_value(root), Ok(33));
//! let answers = d.query_batch(&batch).unwrap(); // read from the maintained trace
//! assert_eq!(answers[0], Ok(Answer::Value(32)));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod algebra;
mod arena;
pub mod check;
mod contract;
mod dynamic;
mod engine;
pub mod gen;
pub mod obs;
mod ordered;
mod propagate;
pub mod query;
mod restructure;
mod rng;

pub use algebra::{
    Affine, Algebra, ExprAcc, ExprEval, ExprLabel, ExprOp, Extrema, MinMax, PathAlgebra, Propagate,
    SubtreeSum,
};
pub use arena::{Forest, NodeId};
pub use contract::{ContractOptions, Contraction};
pub use dynamic::{DynForest, EditError, UpdateStats};
pub use obs::Profile;
pub use ordered::{HashSeq, OrderedRake, RunsPart, Sandwich, SeqAcc, SeqHash, SeqMonoid};
pub use query::{Answer, Query, QueryBatch, QueryError, QueryOutcome};
