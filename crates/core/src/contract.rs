//! Static (whole-forest) contraction, the [`ContractOptions`] builder, and
//! the sequential oracle.
//!
//! A [`Contraction`] owns the [`Trace`] its run recorded — the same type a
//! [`DynForest`](crate::DynForest) maintains — next to the backsolved
//! values, and answers queries from that trace.

use crate::algebra::{Algebra, PathAlgebra};
use crate::arena::Forest;
use crate::engine::{self, Death, Trace};
use crate::obs::{NoopSink, Phase, Profile, Sink};
use crate::NodeId;
use std::time::Instant;

/// Default coin seed used when [`ContractOptions::seed`] is not called.
pub(crate) const DEFAULT_SEED: u64 = 0x5EED;

/// Result of contracting a whole forest: final subtree values for every
/// node, per-component aggregates, and the round-stamped trace the run
/// recorded (read by [`Contraction::query_batch`]).
pub struct Contraction<A: Algebra> {
    vals: Vec<A::Val>,
    components: Vec<(NodeId, A::Val)>,
    rounds: u32,
    pub(crate) trace: Trace<A>,
    profile: Option<Box<Profile>>,
}

impl<A: Algebra> Contraction<A> {
    /// Final value of the subtree rooted at `v`.
    pub fn subtree_value(&self, v: NodeId) -> &A::Val {
        &self.vals[v.index()]
    }

    /// All subtree values, indexed by [`NodeId::index`].
    pub fn values(&self) -> &[A::Val] {
        &self.vals
    }

    /// `(root, aggregate)` for every component of the forest.
    pub fn components(&self) -> &[(NodeId, A::Val)] {
        &self.components
    }

    /// Number of rake/compress rounds the contraction took.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Round (1-based) in which `v` was contracted away — the node's stamp
    /// in the contraction DAG.
    pub fn death_round(&self, v: NodeId) -> u32 {
        self.trace.links.round[v.index()]
    }

    /// Telemetry report collected during the contraction, present only when
    /// the run was configured with [`ContractOptions::profiled`].
    pub fn profile(&self) -> Option<&Profile> {
        self.profile.as_deref()
    }

    /// Verifies the structural invariants of the recorded trace's links
    /// against the forest it was built from (`check` feature):
    ///
    /// * parallel arrays sized to the forest, and the hop lists well-formed
    ///   (one group per node, every span inside the items);
    /// * **exactly one death per node** — every node carries a round stamp
    ///   ≥ 1 (the engine's kill hook rules out double deaths, and the hop
    ///   lists below rule out duplicate compress records);
    /// * `up[v] = NONE` **iff** `v` is an original root, and otherwise
    ///   `up[v]` is an original-tree ancestor of `v` with a **strictly
    ///   larger death round** — the monotonicity that bounds query climbs
    ///   by the round count;
    /// * hop-list partition integrity: each node appears in at most one hop
    ///   list (a node is spliced out from above at most one surviving
    ///   child), every victim in the hop list of `x` is a proper original
    ///   ancestor of `x` strictly below `up[x]`, non-root, and listed in
    ///   ascending death round, each dying before `x` itself and recorded
    ///   as compressed onto `x`; every compressed node is some host's victim.
    ///
    /// Returns a descriptive [`InvariantError`](crate::check::InvariantError)
    /// for the first violation. `O(n + hops)` plus one Euler tour of the
    /// forest.
    #[cfg(feature = "check")]
    pub fn validate<L>(&self, forest: &Forest<L>) -> Result<(), crate::check::InvariantError> {
        use crate::arena::NONE;
        use crate::check::{ensure, Euler};
        let n = forest.len();
        let links = &self.trace.links;
        let (round, up, death) = (&links.round, &links.up, &self.trace.death);
        ensure!(
            self.vals.len() == n && death.len() == n && round.len() == n && up.len() == n,
            "trace arrays are not sized to the forest ({n} nodes)"
        );
        let hops = &links.hops;
        ensure!(hops.groups() == n, "hop lists are not sized to the forest");
        ensure!(
            (0..n as u32).all(|k| {
                let (lo, hi) = hops.range(k);
                lo <= hi && hi <= hops.items.len()
            }),
            "hop list spans leave their items"
        );
        let euler = Euler::of(forest)?;

        for v in 0..n as u32 {
            let vi = v as usize;
            ensure!(round[vi] >= 1, "node n{v} never died (death round 0)");
            let p = up[vi];
            if forest.parent_raw(v) == NONE {
                ensure!(
                    p == NONE,
                    "original root n{v} has trace parent n{p} instead of NONE"
                );
                continue;
            }
            ensure!(p != NONE, "non-root n{v} finished without a trace parent");
            ensure!(
                (p as usize) < n,
                "trace parent of n{v} ({p}) is out of range"
            );
            ensure!(
                euler.is_anc(p, v) && p != v,
                "trace parent n{p} of n{v} is not a proper ancestor"
            );
            ensure!(
                round[p as usize] > round[vi],
                "death rounds not strictly increasing along up[]: n{v} (round {}) -> n{p} (round {})",
                round[vi],
                round[p as usize]
            );
        }
        let mut hosted = vec![false; n];
        for x in 0..n {
            let top = up[x];
            let mut prev_round = 0u32;
            for &victim in hops.of(x as u32) {
                ensure!(
                    (victim as usize) < n,
                    "hop victim n{victim} of n{x} is out of range"
                );
                ensure!(
                    !hosted[victim as usize],
                    "node n{victim} appears in two hop lists — not a partition"
                );
                hosted[victim as usize] = true;
                ensure!(
                    matches!(death[victim as usize], Death::Compressed { child, .. } if child == x as u32),
                    "hop victim n{victim} of n{x} is not recorded as compressed onto n{x}"
                );
                ensure!(
                    forest.parent_raw(victim) != NONE,
                    "original root n{victim} was recorded as compressed"
                );
                ensure!(
                    euler.is_anc(victim, x as u32) && victim != x as u32,
                    "hop victim n{victim} is not a proper ancestor of its host n{x}"
                );
                ensure!(
                    top != NONE && euler.is_anc(top, victim) && top != victim,
                    "hop victim n{victim} of n{x} is not strictly below up[n{x}]"
                );
                let vr = round[victim as usize];
                ensure!(
                    vr > prev_round,
                    "hop list of n{x} not in strictly ascending death round"
                );
                ensure!(
                    vr < round[x],
                    "hop victim n{victim} (round {vr}) outlived its surviving child n{x} (round {})",
                    round[x]
                );
                prev_round = vr;
            }
        }
        for (v, d) in death.iter().enumerate() {
            ensure!(
                !matches!(d, Death::Compressed { .. }) || hosted[v],
                "compressed node n{v} is in no hop list"
            );
        }
        Ok(())
    }
}

/// Builder for a contraction run, created by [`Forest::contraction`]: one
/// fluent configuration, run by [`ContractOptions::run`].
///
/// ```
/// use dtc_core::{gen, SubtreeSum};
/// let f = gen::random_tree(1_000, 1);
/// // Plain run with defaults:
/// let c = f.contraction().run(&SubtreeSum);
/// // Reproducible coins + telemetry:
/// let p = f.contraction().seed(42).profiled().run(&SubtreeSum);
/// assert_eq!(c.values(), p.values());
/// assert_eq!(p.profile().unwrap().totals().retired(), 1_000);
/// ```
#[must_use = "the builder does nothing until `run` is called"]
pub struct ContractOptions<'f, L> {
    forest: &'f Forest<L>,
    seed: u64,
    profiled: bool,
}

impl<L> Forest<L> {
    /// Starts configuring a contraction of this forest; finish with
    /// [`ContractOptions::run`].
    pub fn contraction(&self) -> ContractOptions<'_, L> {
        ContractOptions {
            forest: self,
            seed: DEFAULT_SEED,
            profiled: false,
        }
    }
}

impl<'f, L> ContractOptions<'f, L> {
    /// Uses `seed` for the compress coin flips.
    ///
    /// The result is independent of the seed (the coins only affect *which*
    /// unary nodes are spliced each round, never the algebraic outcome);
    /// exposing it keeps runs reproducible.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Collects a full [`Profile`] — phase latency histograms and per-round
    /// counters — available afterwards via [`Contraction::profile`].
    pub fn profiled(mut self) -> Self {
        self.profiled = true;
        self
    }

    /// Runs the contraction under `alg`.
    ///
    /// # Panics
    /// Panics if the trace's hop lists outgrow their `u32` offsets. They
    /// hold at most one id per node and are laid out packed, so a forest
    /// within [`Forest::add_root`]'s `u32` node capacity stays inside that
    /// limit.
    pub fn run<A>(self, alg: &A) -> Contraction<A>
    where
        A: Algebra<Label = L>,
    {
        if self.profiled {
            let mut profile = Box::<Profile>::default();
            let mut c = run_contraction(self.forest, alg, self.seed, profile.as_mut());
            c.profile = Some(profile);
            c
        } else {
            run_contraction(self.forest, alg, self.seed, &mut NoopSink)
        }
    }
}

/// The contraction runner behind [`ContractOptions::run`], profiled or not:
/// records the trace, backsolves every value (reported to `sink` as the
/// backsolve phase) and moves the trace into the result.
fn run_contraction<L, A, S>(forest: &Forest<L>, alg: &A, seed: u64, sink: &mut S) -> Contraction<A>
where
    A: Algebra<Label = L>,
    S: Sink,
{
    let (trace, order, rounds) = engine::record(alg, forest, seed, sink);
    let backsolve_start = if S::ENABLED {
        Some(Instant::now())
    } else {
        None
    };
    let vals = trace.backsolve(alg, order.iter().rev().copied());
    if let Some(t) = backsolve_start {
        sink.phase(Phase::Backsolve, t.elapsed().as_nanos() as u64);
    }
    // Roots finish in death order, the order the engine retired them.
    let components = order
        .iter()
        .filter(|&&u| matches!(trace.death[u as usize], Death::Root(_)))
        .map(|&u| (NodeId(u), vals[u as usize].clone()))
        .collect();
    Contraction {
        vals,
        components,
        rounds,
        trace,
        profile: None,
    }
}

impl<L> Forest<L> {
    /// Sequential reference evaluation: an iterative bottom-up fold that
    /// shares only the [`Algebra`] with the contraction engine, making it a
    /// correctness oracle for [`ContractOptions::run`].
    ///
    /// Children are absorbed left-to-right (child-list order) with their
    /// sibling index, so the oracle is valid for ordered algebras too.
    ///
    /// Returns the final subtree value of every node, indexed by
    /// [`NodeId::index`]. Runs in `O(n)` with an explicit stack, so deep
    /// paths cannot overflow the call stack.
    pub fn sequential_fold<A>(&self, alg: &A) -> Vec<A::Val>
    where
        A: Algebra<Label = L>,
    {
        let n = self.len();
        let children = self.build_children();

        // Preorder via explicit stack; reversed, every child precedes its
        // parent, which is exactly the fold order we need.
        let mut order = Vec::with_capacity(n);
        let mut stack: Vec<u32> = self.roots().map(|r| r.raw()).collect();
        while let Some(u) = stack.pop() {
            order.push(u);
            stack.extend_from_slice(&children[u as usize]);
        }
        assert_eq!(order.len(), n, "parent links must be acyclic");

        let mut vals: Vec<Option<A::Val>> = vec![None; n];
        for &u in order.iter().rev() {
            let mut acc = alg.init_acc(self.label(NodeId(u)));
            for (i, &c) in children[u as usize].iter().enumerate() {
                // lint:allow(panic): reverse preorder folds children before parents
                let cv = vals[c as usize].clone().expect("children folded first");
                alg.absorb_at(&mut acc, i as u32, cv);
            }
            vals[u as usize] = Some(alg.finish(&acc));
        }
        // lint:allow(panic): the loop above fills every slot
        vals.into_iter().map(|v| v.unwrap()).collect()
    }
}

impl<L> Forest<L> {
    /// Reference lowest common ancestor by parent-pointer walks: climb the
    /// deeper node to the other's depth, then both in step. `None` when the
    /// nodes lie in different components. `O(depth)`; an oracle for
    /// [`Query::Lca`](crate::Query::Lca).
    pub fn naive_lca(&self, mut u: NodeId, mut v: NodeId) -> Option<NodeId> {
        let depth = |mut x: NodeId| {
            let mut d = 0usize;
            while let Some(p) = self.parent(x) {
                x = p;
                d += 1;
            }
            d
        };
        let (mut du, mut dv) = (depth(u), depth(v));
        while du > dv {
            u = self.parent(u)?;
            du -= 1;
        }
        while dv > du {
            v = self.parent(v)?;
            dv -= 1;
        }
        while u != v {
            u = self.parent(u)?;
            v = self.parent(v)?;
        }
        Some(u)
    }

    /// Reference path aggregate by parent-pointer walks: the labels on the
    /// tree path between `u` and `v`, folded as the query engine folds
    /// them — the LCA, then `u`'s side bottom-up, then `v`'s. `None` when
    /// the nodes lie in different components. `O(depth)`; an oracle for
    /// [`Query::Path`](crate::Query::Path).
    pub fn naive_path_fold<A>(&self, alg: &A, u: NodeId, v: NodeId) -> Option<A::PathVal>
    where
        A: PathAlgebra<Label = L>,
    {
        let w = self.naive_lca(u, v)?;
        let mut agg = alg.path_of(self.label(w));
        for end in [u, v] {
            let mut x = end;
            while x != w {
                agg = alg.path_concat(&agg, &alg.path_of(self.label(x)));
                x = self.parent(x)?;
            }
        }
        Some(agg)
    }
}
