//! Static (whole-forest) contraction, the [`ContractOptions`] builder, and
//! the sequential oracle.

use crate::algebra::Algebra;
use crate::arena::{Csr, Forest, NONE};
use crate::engine::{Death, Scratch};
use crate::obs::{NoopSink, Phase, Profile, Sink};
use crate::query::Links;
use crate::NodeId;
use std::time::Instant;

/// Default coin seed used when [`ContractOptions::seed`] is not called.
pub(crate) const DEFAULT_SEED: u64 = 0x5EED;

/// How a node was retired by the contraction — the *kind* of trace slot it
/// occupies in the replayable contraction DAG.
///
/// Change propagation dispatches on this: a raked slot is re-executed by
/// refolding the node's children and re-delivering its contribution; a
/// compressed slot by re-composing the unary chain; a root slot by
/// re-finishing the component value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotKind {
    /// Retired as a childless non-root: folded into its parent.
    Raked,
    /// Spliced out of a unary chain; its value is a recorded unary
    /// function of the surviving child.
    Compressed,
    /// Finished as a component root.
    Root,
}

impl SlotKind {
    /// The kind of slot a completed trace's death record describes.
    pub(crate) fn of<A: Algebra>(death: &Death<A>) -> SlotKind {
        match death {
            Death::Raked(_) => SlotKind::Raked,
            Death::Compressed { .. } => SlotKind::Compressed,
            Death::Root(_) => SlotKind::Root,
            // lint:allow(panic): the engine runs until every node dies
            Death::None => unreachable!("node survived a full contraction"),
        }
    }
}

/// Result of contracting a whole forest: final subtree values for every
/// node, per-component aggregates, the round-stamped trace, and the
/// shortcut structure of the contraction DAG (used by
/// [`Contraction::query_batch`]).
pub struct Contraction<A: Algebra> {
    vals: Vec<A::Val>,
    components: Vec<(NodeId, A::Val)>,
    rounds: u32,
    death_round: Vec<u32>,
    /// Working parent at death; `NONE` for finished roots. Strictly
    /// increases in death round along any chain, so climbing it reaches a
    /// root in at most `rounds` hops.
    up: Vec<u32>,
    /// For each node `x`, the nodes spliced out from directly above it —
    /// its successive working parents, bottom to top (ascending death
    /// round). Together with the victims' own (recursive) victim lists
    /// these are exactly the original ancestors strictly between `x` and
    /// `up[x]`.
    hops: Csr,
    /// How each node was retired (rake / compress / root finish).
    kinds: Vec<SlotKind>,
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
        self.death_round[v.index()]
    }

    /// `v`'s working parent at the moment it was contracted away, or
    /// `None` if `v` finished as a component root.
    ///
    /// These pointers form a shortcut tree of depth ≤ [`Contraction::rounds`]
    /// over the original forest: each hop skips exactly the nodes that were
    /// compressed out from above `v`. The batch query engine climbs them to
    /// answer root/LCA/path queries in `O(rounds)` per query.
    pub fn trace_parent(&self, v: NodeId) -> Option<NodeId> {
        let p = self.up[v.index()];
        (p != NONE).then_some(NodeId(p))
    }

    /// The kind of trace slot `v` occupies in the replayable contraction
    /// DAG: how the engine retired it.
    pub fn slot_kind(&self, v: NodeId) -> SlotKind {
        self.kinds[v.index()]
    }

    /// The nodes that were spliced out from directly above `v` — `v`'s
    /// successive working parents, bottom to top (ascending death round).
    ///
    /// Together with [`Contraction::trace_parent`] this exposes the trace
    /// as a replayable structure: `v`, `trace_victims(v)`,
    /// `trace_parent(v)`, … reconstructs the full original ancestor path
    /// of `v` in `O(rounds)` hops.
    pub fn trace_victims(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.hops.of(v.raw()).iter().map(|&u| NodeId(u))
    }

    /// The shortcut structure the query engine climbs.
    pub(crate) fn links(&self) -> Links<'_> {
        Links {
            up: &self.up,
            hops: &self.hops,
            death_round: &self.death_round,
        }
    }

    /// Telemetry report collected during the contraction, present only when
    /// the run was configured with [`ContractOptions::profiled`].
    pub fn profile(&self) -> Option<&Profile> {
        self.profile.as_deref()
    }

    /// Verifies the structural invariants of the recorded trace against the
    /// forest it was built from (`check` feature):
    ///
    /// * parallel arrays sized to the forest, and the hop CSR well-formed
    ///   (offsets monotone from 0 to the victim count);
    /// * **exactly one death per node** — every node carries a round stamp
    ///   ≥ 1 (the engine's kill hook rules out double deaths, and the hop
    ///   lists below rule out duplicate compress records);
    /// * `up[v] = NONE` **iff** `v` is an original root, and otherwise
    ///   `up[v]` is an original-tree ancestor of `v` with a **strictly
    ///   larger death round** — the monotonicity that bounds query climbs
    ///   by the round count;
    /// * hop-CSR partition integrity: each node appears in at most one hop
    ///   list (a node is spliced out from above at most one surviving
    ///   child), every victim in the hop list of `x` is a proper original
    ///   ancestor of `x` strictly below `up[x]`, non-root, and listed in
    ///   ascending death round, each dying before `x` itself.
    ///
    /// Returns a descriptive [`InvariantError`](crate::check::InvariantError)
    /// for the first violation. `O(n + hops)` plus one Euler tour of the
    /// forest.
    #[cfg(feature = "check")]
    pub fn validate<L>(&self, forest: &Forest<L>) -> Result<(), crate::check::InvariantError> {
        use crate::check::{ensure, Euler};
        let n = forest.len();
        ensure!(
            self.vals.len() == n
                && self.death_round.len() == n
                && self.up.len() == n
                && self.hops.off.len() == n + 1,
            "trace arrays are not sized to the forest ({n} nodes)"
        );
        let euler = Euler::of(forest)?;

        for v in 0..n as u32 {
            let vi = v as usize;
            ensure!(
                self.death_round[vi] >= 1,
                "node n{v} never died (death round 0)"
            );
            let up = self.up[vi];
            if forest.parent_raw(v) == NONE {
                ensure!(
                    up == NONE,
                    "original root n{v} has trace parent n{up} instead of NONE"
                );
            } else {
                ensure!(up != NONE, "non-root n{v} finished without a trace parent");
                ensure!(
                    (up as usize) < n,
                    "trace parent of n{v} ({up}) is out of range"
                );
                ensure!(
                    euler.is_anc(up, v) && up != v,
                    "trace parent n{up} of n{v} is not a proper ancestor"
                );
                ensure!(
                    self.death_round[up as usize] > self.death_round[vi],
                    "death rounds not strictly increasing along up[]: n{v} (round {}) -> n{up} (round {})",
                    self.death_round[vi],
                    self.death_round[up as usize]
                );
            }
        }

        let Csr { off, items } = &self.hops;
        ensure!(
            off[0] == 0 && off[n] as usize == items.len(),
            "hop CSR offsets do not span the victim array"
        );
        let mut hosted = vec![false; n];
        for x in 0..n {
            ensure!(off[x] <= off[x + 1], "hop CSR offsets not monotone at n{x}");
            let up = self.up[x];
            let mut prev_round = 0u32;
            for &victim in self.hops.of(x as u32) {
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
                    forest.parent_raw(victim) != NONE,
                    "original root n{victim} was recorded as compressed"
                );
                ensure!(
                    euler.is_anc(victim, x as u32) && victim != x as u32,
                    "hop victim n{victim} is not a proper ancestor of its host n{x}"
                );
                ensure!(
                    up != NONE && euler.is_anc(up, victim) && up != victim,
                    "hop victim n{victim} of n{x} is not strictly below up[n{x}]"
                );
                let vr = self.death_round[victim as usize];
                ensure!(
                    vr > prev_round,
                    "hop list of n{x} not in strictly ascending death round"
                );
                ensure!(
                    vr < self.death_round[x],
                    "hop victim n{victim} (round {vr}) outlived its surviving child n{x} (round {})",
                    self.death_round[x]
                );
                prev_round = vr;
            }
        }
        Ok(())
    }
}

/// Builder for a contraction run, created by [`Forest::contraction`].
///
/// Collapses the former `contract` / `contract_seeded` /
/// `contract_profiled` / `contract_with` entry points into one fluent
/// configuration:
///
/// ```
/// use dtc_core::{gen, SubtreeSum};
/// let f = gen::random_tree(1_000, 1);
/// // Plain run with defaults:
/// let c = f.contraction().run(&SubtreeSum);
/// // Reproducible coins + telemetry:
/// let p = f.contraction().seed(42).profiled().run(&SubtreeSum);
/// assert_eq!(c.values(), p.values());
/// assert_eq!(p.profile().unwrap().total_retired(), 1_000);
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

    /// Runs the contraction, streaming telemetry into a custom [`Sink`]
    /// with static dispatch (phase spans and per-round counters).
    ///
    /// The [`ContractOptions::profiled`] flag is ignored on this path — the
    /// provided sink *is* the telemetry destination.
    pub fn run_with<A, S>(self, alg: &A, sink: &mut S) -> Contraction<A>
    where
        A: Algebra<Label = L>,
        S: Sink,
    {
        run_contraction(self.forest, alg, self.seed, sink)
    }
}

/// The shared contraction runner behind every [`ContractOptions`] path.
fn run_contraction<L, A, S>(forest: &Forest<L>, alg: &A, seed: u64, sink: &mut S) -> Contraction<A>
where
    A: Algebra<Label = L>,
    S: Sink,
{
    let mut scratch: Scratch<A> = Scratch::default();
    scratch.load(alg, forest);
    scratch.contract_with(alg, seed, sink);
    Contraction::from_trace(alg, &scratch, sink)
}

impl<A: Algebra> Contraction<A> {
    /// Reads a contraction out of the completed trace in `scratch`:
    /// backsolves every value (reported to `sink` as the backsolve phase)
    /// and extracts the shortcut structure.
    fn from_trace<S: Sink>(alg: &A, scratch: &Scratch<A>, sink: &mut S) -> Self {
        let backsolve_start = if S::ENABLED {
            Some(Instant::now())
        } else {
            None
        };
        let vals = scratch.backsolve(alg);
        if let Some(t) = backsolve_start {
            sink.phase(Phase::Backsolve, t.elapsed().as_nanos() as u64);
        }
        // Roots finish in death order, the order the engine retired them.
        let components = scratch
            .death_order
            .iter()
            .filter(|&&u| matches!(scratch.death[u as usize], Death::Root(_)))
            .map(|&u| (NodeId(u), vals[u as usize].clone()))
            .collect();
        let mut hops = Csr::default();
        scratch.hop_lists(&mut hops);
        let kinds = scratch.death.iter().map(SlotKind::of).collect();

        Contraction {
            vals,
            components,
            // The last round retires the last live nodes.
            rounds: scratch.death_round.iter().copied().max().unwrap_or(0),
            death_round: scratch.death_round.clone(),
            up: scratch.death_parent.clone(),
            hops,
            kinds,
            profile: None,
        }
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
