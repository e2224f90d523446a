//! Batch query engine over the recorded contraction trace.
//!
//! A [`QueryBatch`] resolves thousands of heterogeneous queries — subtree
//! aggregates, path aggregates, LCAs, component roots/values — against one
//! [`Contraction`] in a **single pass** over the contraction DAG, instead
//! of walking the tree once per query.
//!
//! The enabling observation: the engine records, for every node, its
//! *working parent at death* in the trace's links. Those pointers form a
//! shortcut tree of depth ≤ rounds (`O(log n)` w.h.p.), and each shortcut
//! hop `x → up(x)` skips the chain of `x`'s successive working parents
//! that were compressed out from directly above it — its *victims*, which
//! the trace records bottom-to-top. The skipped gap is
//! recursive: between two consecutive victims of `x` lie the earlier
//! victim's own victims, and so on. Since a victim always dies strictly
//! before its host, the nesting depth is bounded by the round count, so
//! any point of the original ancestor path is reachable by `O(log n)`
//! shortcut hops plus an `O(log n)`-deep descent through nested victim
//! lists. Everything a query needs is a walk of that structure:
//!
//! * **subtree / component value, component root** — resolved from the
//!   death records as [`DynForest`](crate::DynForest)'s reads resolve them:
//!   the root ends the death-parent chain, and a compressed node applies
//!   its recorded function to the value of the child that outlived it;
//!   `O(rounds)` per query;
//! * **LCA(u, v)** — climb `u`'s shortcut chain to the first hop whose top
//!   is an ancestor of `v` (constant-time ancestor tests via Euler
//!   intervals from the shape index; a climb off `u`'s root means the two
//!   are not connected), then descend: binary-search each
//!   victim list for the lowest ancestor of `v` and recurse into the gap
//!   just below it — the first node of `u`'s ancestor path that is also
//!   an ancestor of `v` *is* the LCA;
//! * **path aggregate** — fold labels along both climbs to the LCA. Each
//!   batch first folds every victim's *closed weight* (its label joined
//!   with its entire recursive gap) into per-hop prefixes, so a full hop
//!   contributes in `O(1)` and the final partial hop in an `O(log²)`
//!   descent. Requires a [`PathAlgebra`].
//!
//! The context splits by what invalidates it. The **shape index** — Euler
//! intervals, and the nodes with a non-empty hop list in ascending death
//! round — depends only on the forest's shape and the trace's rounds and
//! hop lists, which label propagation never changes; it costs one `O(n)`
//! pass over the child lists the trace already holds. The **hop prefixes**
//! depend on labels and cost `O(hosts + victims)` per batch. Both
//! [`Contraction::query_batch`] and
//! [`DynForest::query_batch`](crate::DynForest::query_batch) read the
//! trace they own; `Contraction::query_batch` builds a shape index per
//! call, while `DynForest::query_batch` keeps one per trace shape, so a
//! batch after label-only edits pays the prefixes and `O(log² n)` per
//! query. Queries are answered in query order on the calling thread.
//!
//! The API is uniformly non-panicking: per-query failures (unknown node
//! ids) come back as per-query `Err`s, cross-component path/LCA queries
//! answer [`Answer::NotConnected`], and batch-level misuse (mismatched
//! forest, stale [`DynForest`](crate::DynForest)) is a batch-level `Err`.
//!
//! ```
//! use dtc_core::{gen, Answer, Query, QueryBatch, SubtreeSum};
//! let f = gen::random_tree(1_000, 7);
//! let c = f.contraction().run(&SubtreeSum);
//! let mut batch = QueryBatch::new();
//! batch
//!     .subtree(dtc_core::NodeId::from_index(10))
//!     .lca(dtc_core::NodeId::from_index(5), dtc_core::NodeId::from_index(900))
//!     .path(dtc_core::NodeId::from_index(5), dtc_core::NodeId::from_index(900));
//! let answers = c.query_batch(&f, &SubtreeSum, &batch).unwrap();
//! assert_eq!(answers.len(), 3);
//! assert!(matches!(answers[1], Ok(Answer::Node(_))));
//! ```

use crate::algebra::{Algebra, PathAlgebra};
use crate::arena::{Csr, Forest, NONE};
use crate::contract::Contraction;
use crate::engine::{Links, Trace};
use crate::propagate::resolve_val;
use crate::NodeId;
use std::fmt;

/// One query against a contracted forest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// Aggregate of the subtree rooted at the node →
    /// [`Answer::Value`].
    Subtree(NodeId),
    /// Fold of the labels on the tree path between the two nodes
    /// (inclusive) → [`Answer::PathValue`], or [`Answer::NotConnected`].
    Path(NodeId, NodeId),
    /// Lowest common ancestor of the two nodes → [`Answer::Node`], or
    /// [`Answer::NotConnected`].
    Lca(NodeId, NodeId),
    /// Root of the node's component → [`Answer::Node`].
    ComponentRoot(NodeId),
    /// Aggregate of the node's whole component → [`Answer::Value`].
    ComponentValue(NodeId),
}

/// A batch of mixed queries, resolved together by
/// [`Contraction::query_batch`] or
/// [`DynForest::query_batch`](crate::DynForest::query_batch).
#[derive(Debug, Clone, Default)]
pub struct QueryBatch {
    queries: Vec<Query>,
}

impl QueryBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `n` queries.
    pub fn with_capacity(n: usize) -> Self {
        QueryBatch {
            queries: Vec::with_capacity(n),
        }
    }

    /// Appends an arbitrary [`Query`].
    pub fn push(&mut self, q: Query) -> &mut Self {
        self.queries.push(q);
        self
    }

    /// Appends a [`Query::Subtree`].
    pub fn subtree(&mut self, v: NodeId) -> &mut Self {
        self.push(Query::Subtree(v))
    }

    /// Appends a [`Query::Path`].
    pub fn path(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.push(Query::Path(u, v))
    }

    /// Appends a [`Query::Lca`].
    pub fn lca(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.push(Query::Lca(u, v))
    }

    /// Appends a [`Query::ComponentRoot`].
    pub fn component_root(&mut self, v: NodeId) -> &mut Self {
        self.push(Query::ComponentRoot(v))
    }

    /// Appends a [`Query::ComponentValue`].
    pub fn component_value(&mut self, v: NodeId) -> &mut Self {
        self.push(Query::ComponentValue(v))
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` when the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The queries, in insertion order (answers come back in this order).
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }
}

impl FromIterator<Query> for QueryBatch {
    fn from_iter<I: IntoIterator<Item = Query>>(iter: I) -> Self {
        QueryBatch {
            queries: iter.into_iter().collect(),
        }
    }
}

impl Extend<Query> for QueryBatch {
    fn extend<I: IntoIterator<Item = Query>>(&mut self, iter: I) {
        self.queries.extend(iter);
    }
}

/// Successful answer to one [`Query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer<V, P> {
    /// A subtree or component aggregate.
    Value(V),
    /// A path aggregate.
    PathValue(P),
    /// A node (LCA or component root).
    Node(NodeId),
    /// The two endpoints of a [`Query::Path`] / [`Query::Lca`] lie in
    /// different components.
    NotConnected,
}

/// Why a query (or a whole batch) could not be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The query names a node id outside the forest.
    UnknownNode {
        /// The offending id.
        node: NodeId,
        /// Number of nodes in the forest.
        nodes: usize,
    },
    /// The node's cached value is stale (pending edits not yet
    /// recomputed); call [`DynForest::recompute`](crate::DynForest::recompute).
    Stale {
        /// The dirty node.
        node: NodeId,
    },
    /// The [`DynForest`](crate::DynForest) has pending edits; call
    /// [`recompute`](crate::DynForest::recompute) before querying.
    PendingEdits {
        /// Nodes currently marked dirty.
        pending: usize,
    },
    /// The forest passed to [`Contraction::query_batch`] is not the one
    /// that was contracted (node counts differ).
    ForestMismatch {
        /// Nodes in the forest argument.
        forest_nodes: usize,
        /// Nodes in the contraction.
        contraction_nodes: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            QueryError::UnknownNode { node, nodes } => {
                write!(f, "query names {node} but the forest has {nodes} nodes")
            }
            QueryError::Stale { node } => {
                write!(f, "{node} has pending updates; call recompute()")
            }
            QueryError::PendingEdits { pending } => {
                write!(
                    f,
                    "forest has {pending} nodes with pending updates; call recompute()"
                )
            }
            QueryError::ForestMismatch {
                forest_nodes,
                contraction_nodes,
            } => write!(
                f,
                "forest has {forest_nodes} nodes but the contraction covered {contraction_nodes}"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// Per-query result type of a batch resolution under algebra `A`.
pub type QueryOutcome<A> =
    Result<Answer<<A as Algebra>::Val, <A as PathAlgebra>::PathVal>, QueryError>;

/// The label-independent half of the query context: what the resolver
/// needs of the forest's and the trace's *shape*. Label propagation never
/// changes death rounds, death parents or hop lists, so a shape index stays
/// valid until a structural batch rewrites them.
#[derive(Clone, PartialEq)]
pub(crate) struct Shape {
    /// Preorder index (ancestor tests in O(1)). One tick per node, so the
    /// clock stays below the node count and cannot wrap.
    tin: Vec<u32>,
    /// The last preorder index in the node's subtree: `u`'s subtree is
    /// exactly the nodes `v` with `tin[u] <= tin[v] <= tout[u]`.
    tout: Vec<u32>,
    /// The nodes with a non-empty hop list, in ascending death round. A
    /// victim dies strictly before its host, so in this order every
    /// victim's own hop list comes before its host's.
    hosts: Vec<u32>,
}

impl Shape {
    /// Indexes `forest` and the links of its trace. `O(n)`.
    pub fn new<L>(forest: &Forest<L>, links: &Links) -> Shape {
        let n = forest.len();
        let children = &links.children;
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        let mut clock = 0u32;
        let mut stack: Vec<(u32, u32)> = Vec::new();
        for r in forest.roots() {
            let rr = r.raw();
            tin[rr as usize] = clock;
            clock += 1;
            stack.push((rr, children.range(rr).0 as u32));
            while let Some((u, ci)) = stack.last_mut() {
                let u = *u;
                if (*ci as usize) < children.range(u).1 {
                    let k = children.items[*ci as usize];
                    *ci += 1;
                    tin[k as usize] = clock;
                    clock += 1;
                    stack.push((k, children.range(k).0 as u32));
                } else {
                    tout[u as usize] = clock - 1;
                    stack.pop();
                }
            }
        }
        if crate::check::ENABLED {
            check_euler(forest, &tin, &tout);
        }

        // Rounds are few, so a counting sort orders the hosts.
        let (hops, death_round) = (&links.hops, &links.round);
        let hosts = || (0..n as u32).filter(|&x| !hops.of(x).is_empty());
        let rounds = hosts().map(|x| death_round[x as usize]).max().unwrap_or(0);
        let mut by_round = Csr::default();
        by_round.regroup(rounds as usize + 1, || {
            hosts().map(|x| (death_round[x as usize], x))
        });
        Shape {
            tin,
            tout,
            hosts: by_round.items,
        }
    }

    /// `true` iff `a` is an ancestor of `b` (or equal).
    #[inline]
    fn is_anc(&self, a: u32, b: u32) -> bool {
        self.tin[a as usize] <= self.tin[b as usize]
            && self.tout[b as usize] <= self.tout[a as usize]
    }
}

/// Euler-interval nesting sweep (`check` feature): every closed interval
/// `[tin, tout]` is non-empty and every non-root's interval lies inside its
/// parent's, starting strictly after it — the property the batch engine's
/// `O(1)` ancestor tests and victim-list binary searches rest on. `O(n)`
/// per shape index.
#[cfg(feature = "check")]
fn check_euler<L>(forest: &Forest<L>, tin: &[u32], tout: &[u32]) {
    use crate::check::invariant;
    for v in 0..forest.len() as u32 {
        let vi = v as usize;
        invariant!(
            tin[vi] <= tout[vi],
            "Euler interval of n{v} is empty or inverted"
        );
        let p = forest.parent_raw(v);
        if p != NONE {
            let pi = p as usize;
            invariant!(
                tin[pi] < tin[vi] && tout[vi] <= tout[pi],
                "Euler interval of n{v} is not nested inside its parent n{p}"
            );
        }
    }
}

#[cfg(not(feature = "check"))]
#[inline(always)]
fn check_euler<L>(_forest: &Forest<L>, _tin: &[u32], _tout: &[u32]) {}

/// Prefix folds of victim *closed weights* within each hop list, aligned
/// with `hops.items`. A victim's closed weight is its label joined with its
/// gap — the ancestors strictly between it and the next hop up, which are
/// exactly the nodes its own hop list covers, recursively — so it is the
/// victim's label joined with the last prefix of its own hop list. A victim
/// dies before its host, so walking the hosts in ascending death round
/// finds that prefix already final. `O(hosts + victims)`.
pub(crate) fn hop_prefixes<A: PathAlgebra>(
    forest: &Forest<A::Label>,
    links: &Links,
    shape: &Shape,
    alg: &A,
) -> Vec<A::PathVal> {
    let (hops, hosts) = (&links.hops, &shape.hosts);
    let mut pref = vec![alg.path_empty(); hops.items.len()];
    for &x in hosts {
        let (lo, hi) = hops.range(x);
        let mut acc = alg.path_empty();
        for i in lo..hi {
            let y = hops.items[i];
            let mut closed = alg.path_of(forest.label(NodeId(y)));
            let (ylo, yhi) = hops.range(y);
            if ylo < yhi {
                closed = alg.path_concat(&closed, &pref[yhi - 1]);
            }
            acc = alg.path_concat(&acc, &closed);
            pref[i] = acc.clone();
        }
    }
    pref
}

/// One batch's view of a trace: the trace, its shape index and the hop
/// prefixes of the current labels.
struct Resolver<'a, A: PathAlgebra> {
    forest: &'a Forest<A::Label>,
    trace: &'a Trace<A>,
    shape: &'a Shape,
    hop_pref: Vec<A::PathVal>,
    alg: &'a A,
}

impl<A: PathAlgebra> Resolver<'_, A> {
    /// Lowest common ancestor via the shortcut chain: climb from `u` until
    /// the hop's top is an ancestor of `v`; the LCA then lies in that
    /// hop's gap (or is the hop top itself). Within a victim list, "is an
    /// ancestor of `v`" is monotone bottom-to-top, so binary-search the
    /// first ancestor — but the true LCA may sit *inside* the recursive
    /// gap just below it, so descend into the preceding victim's own list
    /// and repeat. Each descent moves to a strictly earlier death round,
    /// bounding the depth by the round count. `None` when the climb passes
    /// `u`'s root, which is an ancestor of every node of its component.
    fn lca(&self, u: u32, v: u32) -> Option<u32> {
        let (shape, links) = (self.shape, &self.trace.links);
        if shape.is_anc(u, v) {
            return Some(u);
        }
        if shape.is_anc(v, u) {
            return Some(v);
        }
        let mut x = u;
        let mut fallback = loop {
            let nxt = links.up[x as usize];
            if nxt == NONE {
                return None;
            }
            if shape.is_anc(nxt, v) {
                break nxt;
            }
            x = nxt;
        };
        // The LCA is the lowest ancestor of `v` in gap(x) ∪ {fallback}.
        loop {
            let seg = links.hops.of(x);
            let idx = seg.partition_point(|&vt| !shape.is_anc(vt, v));
            if idx == 0 {
                // Nothing lies strictly between a node and its first victim
                // (resp. its shortcut parent, when the list is empty).
                return Some(if seg.is_empty() { fallback } else { seg[0] });
            }
            if idx < seg.len() {
                fallback = seg[idx];
            }
            x = seg[idx - 1];
        }
    }

    /// Fold of the labels on `[u, w)` — `u` inclusive, the ancestor `w`
    /// exclusive — along the shortcut chain; `None` when `u == w`. Full
    /// hops cost `O(1)` via the closed-weight prefixes; once `w` falls
    /// within a hop's gap, descend through the nested victim lists. All
    /// chain nodes are ancestors of `u` and hence pairwise comparable, so
    /// "strictly below `w`" is just an Euler `tin` comparison, monotone
    /// along each victim list (which ascends the tree, i.e. has decreasing
    /// `tin`).
    fn seg_to_excl(&self, u: u32, w: u32) -> Option<A::PathVal> {
        if u == w {
            return None;
        }
        let (alg, shape, pref) = (self.alg, self.shape, &self.hop_pref);
        let links = &self.trace.links;
        let label = |x: u32| alg.path_of(self.forest.label(NodeId(x)));
        let mut x = u;
        let mut acc = label(u);
        // Climb full hops while `w` is above the hop top.
        loop {
            let nxt = links.up[x as usize];
            debug_assert!(nxt != NONE, "segment climb passed the component root");
            let (lo, hi) = links.hops.range(x);
            if nxt == w {
                // The whole gap lies strictly below `w`.
                if hi > lo {
                    acc = alg.path_concat(&acc, &pref[hi - 1]);
                }
                return Some(acc);
            }
            if shape.is_anc(nxt, w) {
                // `w` sits strictly inside gap(x): stop climbing and descend.
                break;
            }
            if hi > lo {
                acc = alg.path_concat(&acc, &pref[hi - 1]);
            }
            acc = alg.path_concat(&acc, &label(nxt));
            x = nxt;
        }
        // `w` is strictly between `x` and `up[x]`; fold the part of the gap
        // below `w`, descending into nested victim lists as needed.
        loop {
            let (lo, _) = links.hops.range(x);
            let seg = links.hops.of(x);
            // Victims strictly below `w` (deeper ⇒ larger tin on a chain).
            let idx = seg.partition_point(|&vt| shape.tin[vt as usize] > shape.tin[w as usize]);
            if idx < seg.len() && seg[idx] == w {
                // Everything below `w` in this gap: the closed prefix.
                if idx > 0 {
                    acc = alg.path_concat(&acc, &pref[lo + idx - 1]);
                }
                return Some(acc);
            }
            // `w` nests inside the gap of the victim just below it. `idx ≥ 1`:
            // nothing lies strictly between `x` and its first victim, so `w`
            // below `seg[0]` is impossible here.
            debug_assert!(idx >= 1, "exclusive bound escaped the gap");
            if idx >= 2 {
                acc = alg.path_concat(&acc, &pref[lo + idx - 2]);
            }
            acc = alg.path_concat(&acc, &label(seg[idx - 1]));
            x = seg[idx - 1];
        }
    }

    /// Answers one query; an unknown id is a per-query `Err`.
    fn one(&self, q: &Query) -> QueryOutcome<A> {
        let n = self.forest.len();
        let check = |v: NodeId| -> Result<u32, QueryError> {
            if v.index() < n {
                Ok(v.raw())
            } else {
                Err(QueryError::UnknownNode { node: v, nodes: n })
            }
        };
        let (alg, trace) = (self.alg, self.trace);
        let value = |v: u32| Answer::Value(resolve_val(alg, &trace.death, v));
        match *q {
            Query::Subtree(v) => Ok(value(check(v)?)),
            Query::ComponentRoot(v) => Ok(Answer::Node(NodeId(trace.links.root(check(v)?)))),
            Query::ComponentValue(v) => Ok(value(trace.links.root(check(v)?))),
            Query::Lca(u, v) => Ok(match self.lca(check(u)?, check(v)?) {
                Some(w) => Answer::Node(NodeId(w)),
                None => Answer::NotConnected,
            }),
            Query::Path(u, v) => {
                let (u, v) = (check(u)?, check(v)?);
                let Some(w) = self.lca(u, v) else {
                    return Ok(Answer::NotConnected);
                };
                let mut agg = alg.path_of(self.forest.label(NodeId(w)));
                if let Some(s) = self.seg_to_excl(u, w) {
                    agg = alg.path_concat(&agg, &s);
                }
                if let Some(s) = self.seg_to_excl(v, w) {
                    agg = alg.path_concat(&agg, &s);
                }
                Ok(Answer::PathValue(agg))
            }
        }
    }
}

/// Resolves `batch` against `trace`: `shape` is its shape index and
/// `hop_pref` its [`hop_prefixes`]. Answers the queries in query order,
/// each in `O(log² n)`.
pub(crate) fn resolve<A: PathAlgebra>(
    forest: &Forest<A::Label>,
    trace: &Trace<A>,
    shape: &Shape,
    hop_pref: Vec<A::PathVal>,
    alg: &A,
    batch: &QueryBatch,
) -> Vec<QueryOutcome<A>> {
    let resolver = Resolver {
        forest,
        trace,
        shape,
        hop_pref,
        alg,
    };
    batch.queries().iter().map(|q| resolver.one(q)).collect()
}

impl<A: Algebra> Contraction<A> {
    /// Resolves a whole [`QueryBatch`] against the recorded contraction
    /// trace.
    ///
    /// `forest` must be the forest this contraction was computed from, and
    /// `alg` the same algebra (both are needed for labels and path folds;
    /// a node-count mismatch is rejected with
    /// [`QueryError::ForestMismatch`]).
    ///
    /// Answers come back in query order. Per-query problems (unknown ids)
    /// surface as per-query `Err`s; path/LCA queries across components
    /// answer [`Answer::NotConnected`]. Nothing panics.
    ///
    /// Each call indexes the trace's shape in `O(n)` and then answers
    /// every query in `O(log² n)`, in query order on the calling thread.
    pub fn query_batch(
        &self,
        forest: &Forest<A::Label>,
        alg: &A,
        batch: &QueryBatch,
    ) -> Result<Vec<QueryOutcome<A>>, QueryError>
    where
        A: PathAlgebra,
    {
        let n = self.values().len();
        if forest.len() != n {
            return Err(QueryError::ForestMismatch {
                forest_nodes: forest.len(),
                contraction_nodes: n,
            });
        }
        let links = &self.trace.links;
        let shape = Shape::new(forest, links);
        let hop_pref = hop_prefixes(forest, links, &shape, alg);
        Ok(resolve(forest, &self.trace, &shape, hop_pref, alg, batch))
    }
}
