//! Batch query engine over the recorded contraction trace.
//!
//! A [`QueryBatch`] resolves thousands of heterogeneous queries — subtree
//! aggregates, path aggregates, LCAs, component roots/values — against one
//! recorded trace by short walks of the contraction DAG, `O(rounds)` per
//! query, instead of walking the tree once per query.
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
//! * **LCA(u, v)** — climb both death-parent chains to their first common
//!   node `z`; `xu` and `xv` are the chain nodes just below it. The LCA
//!   lies on one of the two chains: it is `z`, the lowest node of `u`'s
//!   chain inside the gap of `xv`, or the lowest node of `v`'s chain
//!   inside the gap of `xu`, and only the gap of the one of `xu`, `xv`
//!   that dies later can hold it. A descent through that gap's nested
//!   victim lists finds it by matching each list's top victims against
//!   the other chain, so no ancestor test is needed. Chains that end at
//!   different roots mean the two are not connected. `O(rounds)`;
//! * **path aggregate** — fold labels along both chains to the LCA: full
//!   hops up a chain that holds it; on the other side, full hops up to
//!   its top node, then the LCA's host chain walked back down that node's
//!   gap, one victim list per step. A full hop costs `O(1)` through the
//!   *hop prefixes*, folds of each list's victims' closed weights (a
//!   victim's label joined with its entire recursive gap). Each batch
//!   fills them on demand, only for the lists its folds reach, each
//!   victim's own list first. Requires a [`PathAlgebra`].
//!
//! Nothing outlives a batch: [`Contraction::query_batch`] and
//! [`DynForest::query_batch`](crate::DynForest::query_batch) read the
//! trace they own, and a batch costs `O(rounds)` per query plus the hop
//! prefixes its path folds reach, whether or not the last batch was
//! structural. Queries are answered in query order on the calling thread.
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
use crate::arena::{Forest, NONE};
use crate::contract::Contraction;
use crate::engine::Trace;
use crate::propagate::resolve_val;
use crate::NodeId;
use std::cmp::Ordering;
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

/// One batch's view of a trace: the trace, the chains of the pair being
/// answered, and the hop prefixes the batch's path folds have reached.
struct Resolver<'a, A: PathAlgebra> {
    forest: &'a Forest<A::Label>,
    trace: &'a Trace<A>,
    alg: &'a A,
    /// The death-parent chains of the pair's endpoints, each from the
    /// endpoint up to just below the chains' first common node `z`.
    chains: [Vec<u32>; 2],
    /// Left by [`Resolver::lca`] when the LCA lies below `z`: the chain
    /// that holds it and its index there, and the hop items of its host
    /// chain, from a victim of the other chain's top node down to the LCA.
    meet: Option<(usize, usize)>,
    steps: Vec<usize>,
    /// Prefix folds of victim *closed weights*, aligned with the hop items.
    /// A victim's closed weight is its label joined with its gap — the
    /// nodes strictly between it and the next hop up, which its own list
    /// covers, recursively — so with the last prefix of its own list. A
    /// list's prefixes hold once `filled` is set at its first item.
    pref: Vec<A::PathVal>,
    filled: Vec<bool>,
    /// `(lo, hi, next item)` of the lists a fill interrupted to fill a
    /// victim's own list first: nesting is bounded only by the round count.
    stack: Vec<(usize, usize, usize)>,
}

impl<'a, A: PathAlgebra> Resolver<'a, A> {
    fn new(forest: &'a Forest<A::Label>, trace: &'a Trace<A>, alg: &'a A) -> Self {
        Resolver {
            forest,
            trace,
            alg,
            chains: Default::default(),
            meet: None,
            steps: Vec::new(),
            pref: Vec::new(),
            filled: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn label(&self, x: u32) -> A::PathVal {
        self.alg.path_of(self.forest.label(NodeId(x)))
    }

    /// Lowest common ancestor of `u` and `v`, `None` when they lie in
    /// different components; `O(rounds)`. See the module docs for why.
    fn lca(&mut self, u: u32, v: u32) -> Option<u32> {
        let links = &self.trace.links;
        let [cu, cv] = &mut self.chains;
        for (chain, mut x) in [(&mut *cu, u), (&mut *cv, v)] {
            chain.clear();
            chain.push(x);
            while links.up[x as usize] != NONE {
                x = links.up[x as usize];
                chain.push(x);
            }
        }
        // Past their first common node the chains coincide up to the root.
        let mut z = None;
        while cu.last().is_some() && cu.last() == cv.last() {
            z = cu.pop();
            cv.pop();
        }
        let z = z?;
        self.meet = None;
        let (Some(&xu), Some(&xv)) = (cu.last(), cv.last()) else {
            // One endpoint lies on the other's chain.
            return Some(z);
        };
        let round = &links.round;
        let (side, top) = match round[xu as usize].cmp(&round[xv as usize]) {
            Ordering::Less => (0, xv),
            Ordering::Greater => (1, xu),
            Ordering::Equal => return Some(z),
        };
        // Each list's top victim sits just below the node that bounds its
        // gap from above, so it is on `chain` iff it is the chain node
        // expected next. No node the descent enters is an ancestor of the
        // other endpoint, so the victims on `chain` are the top of each
        // list, and a lower chain node can lie only in the gap of the
        // highest victim off it.
        let (hops, chain) = (&links.hops, &self.chains[side]);
        self.steps.clear();
        let (mut x, mut next, mut found) = (top, chain.len() - 1, None);
        'descent: loop {
            let (lo, mut i) = hops.range(x);
            while i > lo && hops.items[i - 1] == chain[next] {
                i -= 1;
                found = Some((next, self.steps.len(), i));
                if next == 0 {
                    break 'descent;
                }
                next -= 1;
            }
            if i == lo {
                // Nothing lies strictly between `x` and its first victim.
                break;
            }
            self.steps.push(i - 1);
            x = hops.items[i - 1];
        }
        let Some((at, depth, item)) = found else {
            return Some(z);
        };
        self.steps.truncate(depth);
        self.steps.push(item);
        self.meet = Some((side, at));
        Some(chain[at])
    }

    /// Fold of the labels on the tree path between `u` and `v`: the LCA,
    /// then `u`'s side bottom-up, then `v`'s; `None` when they lie in
    /// different components. A side climbs full hops — a chain node and
    /// its whole gap — to the LCA when its chain holds it, and otherwise to
    /// its top chain node, then walks the LCA's host chain down that node's
    /// gap: at each step the node's label, then its victims below the step.
    fn path(&mut self, u: u32, v: u32) -> Option<A::PathVal> {
        let w = self.lca(u, v)?;
        let (alg, hops) = (self.alg, &self.trace.links.hops);
        let mut agg = self.label(w);
        for side in 0..2 {
            let len = self.chains[side].len();
            let (full, descend) = match self.meet {
                Some((s, at)) if s == side => (at, false),
                Some(_) => (len - 1, true),
                None => (len, false),
            };
            for j in 0..full {
                let c = self.chains[side][j];
                agg = alg.path_concat(&agg, &self.label(c));
                let list = hops.range(c);
                if let Some(gap) = self.prefix(list, list.1) {
                    agg = alg.path_concat(&agg, gap);
                }
            }
            if !descend {
                continue;
            }
            let mut host = self.chains[side][full];
            for k in 0..self.steps.len() {
                agg = alg.path_concat(&agg, &self.label(host));
                let item = self.steps[k];
                if let Some(below) = self.prefix(hops.range(host), item) {
                    agg = alg.path_concat(&agg, below);
                }
                host = hops.items[item];
            }
        }
        Some(agg)
    }

    /// Fold of the closed weights of the victims at hop items `lo..end` of
    /// the list `[lo, hi)`; `None` when there are none.
    fn prefix(&mut self, (lo, hi): (usize, usize), end: usize) -> Option<&A::PathVal> {
        if end == lo {
            return None;
        }
        self.fill(lo, hi);
        Some(&self.pref[end - 1])
    }

    /// Fills the prefixes of the non-empty hop list `[lo, hi)` unless it is
    /// filled, each victim's own list first.
    fn fill(&mut self, mut lo: usize, mut hi: usize) {
        let (forest, alg, hops) = (self.forest, self.alg, &self.trace.links.hops);
        if self.filled.is_empty() {
            self.filled = vec![false; hops.items.len()];
            self.pref = vec![alg.path_empty(); hops.items.len()];
        }
        if self.filled[lo] {
            return;
        }
        self.filled[lo] = true;
        // `[lo, hi)` is the list being filled and `i` its next item.
        let mut i = lo;
        loop {
            if i == hi {
                let Some(outer) = self.stack.pop() else {
                    return;
                };
                (lo, hi, i) = outer;
                continue;
            }
            let y = hops.items[i];
            let (ylo, yhi) = hops.range(y);
            if ylo < yhi && !self.filled[ylo] {
                self.filled[ylo] = true;
                self.stack.push((lo, hi, i));
                (lo, hi, i) = (ylo, yhi, ylo);
                continue;
            }
            let mut closed = alg.path_of(forest.label(NodeId(y)));
            if ylo < yhi {
                closed = alg.path_concat(&closed, &self.pref[yhi - 1]);
            }
            if i > lo {
                closed = alg.path_concat(&self.pref[i - 1], &closed);
            }
            self.pref[i] = closed;
            i += 1;
        }
    }

    /// Answers one query; an unknown id is a per-query `Err`.
    fn one(&mut self, q: &Query) -> QueryOutcome<A> {
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
        let (apart, node) = (Answer::NotConnected, |w| Answer::Node(NodeId(w)));
        match *q {
            Query::Subtree(v) => Ok(value(check(v)?)),
            Query::ComponentRoot(v) => Ok(node(trace.links.root(check(v)?))),
            Query::ComponentValue(v) => Ok(value(trace.links.root(check(v)?))),
            Query::Lca(u, v) => Ok(self.lca(check(u)?, check(v)?).map_or(apart, node)),
            Query::Path(u, v) => Ok(self
                .path(check(u)?, check(v)?)
                .map_or(apart, Answer::PathValue)),
        }
    }
}

/// Resolves `batch` against `trace`, in query order: `O(rounds)` per query
/// plus the hop prefixes its path folds reach.
pub(crate) fn resolve<A: PathAlgebra>(
    forest: &Forest<A::Label>,
    trace: &Trace<A>,
    alg: &A,
    batch: &QueryBatch,
) -> Vec<QueryOutcome<A>> {
    let mut resolver = Resolver::new(forest, trace, alg);
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
    /// Each query costs `O(rounds)` plus the hop prefixes its path fold
    /// reaches, in query order on the calling thread.
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
        Ok(resolve(forest, &self.trace, alg, batch))
    }
}

#[cfg(test)]
mod tests {
    use super::Resolver;
    use crate::arena::{Forest, NONE};
    use crate::engine::Trace;
    use crate::gen::{self, XorShift64};
    use crate::{DynForest, NodeId, SubtreeSum};

    /// Checks that the resolver's LCA is `naive_lca`'s and where it lies:
    /// 0 at the chains' first common node, 1 on `u`'s chain, 2 on `v`'s.
    fn outcome(f: &Forest<i64>, trace: &Trace<SubtreeSum>, u: u32, v: u32) -> Option<usize> {
        let mut r = Resolver::new(f, trace, &SubtreeSum);
        let w = r.lca(u, v);
        assert_eq!(
            w.map(NodeId),
            f.naive_lca(NodeId(u), NodeId(v)),
            "n{u}, n{v}"
        );
        let (w, [cu, cv]) = (w?, &r.chains);
        let z = cu.last().map_or(u, |&x| trace.links.up[x as usize]);
        let at = [w == z, cu.contains(&w), cv.contains(&w)]
            .iter()
            .position(|&b| b);
        assert!(
            at.is_some(),
            "LCA n{w} of n{u} and n{v} lies on neither chain"
        );
        at
    }

    #[test]
    fn the_lca_lies_on_one_of_the_two_death_parent_chains() {
        let seed = 7;
        let zoo = [
            gen::random_tree(1_500, seed),
            gen::path(600, seed),
            gen::star(800, seed),
            gen::caterpillar(400, 2, seed),
            gen::binary_tree(1_000, seed),
            gen::broom(500, 500, seed),
            gen::random_forest(1_500, 200, seed),
        ];
        let mut owners: Vec<(Forest<i64>, Trace<SubtreeSum>)> = zoo
            .into_iter()
            .map(|f| (f.clone(), f.contraction().seed(seed).run(&SubtreeSum).trace))
            .collect();
        // A maintained trace after one batch that moves 32 subtrees under
        // the root.
        let mut d = DynForest::with_seed(gen::random_tree(1_500, seed), SubtreeSum, seed);
        let moved: Vec<NodeId> = (1..1_500).step_by(47).map(NodeId::from_index).collect();
        let under_root: Vec<_> = moved.iter().map(|&v| (v, NodeId(0))).collect();
        d.try_batch_cut(&moved).unwrap();
        d.try_batch_link(&under_root).unwrap();
        d.recompute();
        owners.push((d.forest().clone(), d.trace.clone()));

        let (mut seen, mut rng) = ([0; 3], XorShift64::new(seed));
        for (f, trace) in &owners {
            for _ in 0..500 {
                let [u, v] = [0; 2].map(|_| (rng.next_u64() % f.len() as u64) as u32);
                // `u` against one of its ancestors, too.
                let mut a = u;
                for _ in 0..rng.next_u64() % 8 {
                    if f.parent_raw(a) != NONE {
                        a = f.parent_raw(a);
                    }
                }
                for (x, y) in [(u, v), (u, a), (a, u)] {
                    if let Some(at) = outcome(f, trace, x, y) {
                        seen[at] += 1;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&k| k > 0), "outcomes {seen:?}");
    }
}
