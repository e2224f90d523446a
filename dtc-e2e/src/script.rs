//! Script generation: every operation of a run, drawn from the seed before
//! any timing starts.
//!
//! The generator tracks the shape in a shadow parent array, so each op is
//! legal at the moment it applies. The library under test only ever sees the
//! generated forest and these ops.

use crate::workload::{Shape, Workload, PROBE_QUERIES, READS_PER_STEP};
use dtc_core::gen::{self, XorShift64};
use dtc_core::{Forest, NodeId, QueryBatch};

/// Salt separating the op stream from the forest generator's stream.
const OPS_SALT: u64 = 0xE2E0_5C21_97A3_D00D;

/// A generated run: the initial forest and one pass of cycles.
#[derive(Debug, Clone)]
pub struct Script {
    /// The forest the run starts from.
    pub forest: Forest<i64>,
    /// Root of the forest's single tree.
    pub root: NodeId,
    /// One pass; a run replays it cyclically.
    pub cycles: Vec<Cycle>,
    /// The batch the traced run's query probe resolves on cycles that have
    /// no query step.
    pub probe_batch: QueryBatch,
}

/// One cycle of the script.
#[derive(Debug, Clone)]
pub struct Cycle {
    /// Structural step and its invalid-edit probe, if the workload has one.
    pub structural: Option<StructStep>,
    /// Label steps, each followed by its read step.
    pub labels: Vec<LabelStep>,
    /// Query step, if the workload has one.
    pub query: Option<QueryBatch>,
}

/// `try_batch_cut(cuts)`, `try_batch_link(links)`, `recompute()`, then one
/// edit the library must reject.
#[derive(Debug, Clone)]
pub struct StructStep {
    /// Nodes cut, all non-roots.
    pub cuts: Vec<NodeId>,
    /// `(child, parent)` links re-attaching every cut node.
    pub links: Vec<(NodeId, NodeId)>,
    /// The invalid edit probed after the step.
    pub reject: Reject,
}

/// An edit that must fail and leave `pending()` unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// `try_batch_cut(&[root])`: must return `EditError::AlreadyRoot`.
    CutRoot(NodeId),
    /// `try_batch_link(&[(root, descendant)])`: must return
    /// `EditError::WouldCycle`.
    LinkUnder {
        /// The tree's root, linked as the child.
        root: NodeId,
        /// A node inside the root's tree, named as the parent.
        descendant: NodeId,
    },
}

/// `batch_update_weights(updates)` + `recompute()`, then the read step:
/// `try_subtree_value` on each of `reads`.
#[derive(Debug, Clone)]
pub struct LabelStep {
    /// `(node, new weight)` pairs.
    pub updates: Vec<(NodeId, i64)>,
    /// Nodes read after the recompute.
    pub reads: Vec<NodeId>,
}

/// The shape and labels a script implies, kept outside the library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shadow {
    /// Parent of each node.
    pub parent: Vec<Option<NodeId>>,
    /// Weight of each node.
    pub label: Vec<i64>,
}

impl Shadow {
    /// The shape and labels of `forest`.
    pub fn of(forest: &Forest<i64>) -> Shadow {
        Shadow {
            parent: forest.node_ids().map(|v| forest.parent(v)).collect(),
            label: forest.node_ids().map(|v| *forest.label(v)).collect(),
        }
    }

    /// Applies a structural step's cuts and links.
    pub fn apply_struct(&mut self, step: &StructStep) {
        for &v in &step.cuts {
            self.parent[v.index()] = None;
        }
        for &(child, parent) in &step.links {
            self.parent[child.index()] = Some(parent);
        }
    }

    /// Applies a label step's weight updates, in order.
    pub fn apply_labels(&mut self, step: &LabelStep) {
        for &(v, w) in &step.updates {
            self.label[v.index()] = w;
        }
    }

    /// Applies every edit of `cycle`.
    pub fn apply(&mut self, cycle: &Cycle) {
        if let Some(step) = &cycle.structural {
            self.apply_struct(step);
        }
        for step in &cycle.labels {
            self.apply_labels(step);
        }
    }

    /// Number of nodes whose parent or label differs from `forest`'s.
    pub fn mismatches(&self, forest: &Forest<i64>) -> usize {
        if forest.len() != self.parent.len() {
            return forest.len().max(self.parent.len());
        }
        forest
            .node_ids()
            .filter(|&v| {
                forest.parent(v) != self.parent[v.index()]
                    || *forest.label(v) != self.label[v.index()]
            })
            .count()
    }
}

/// Generates the forest and one pass of ops for `w` from `seed`.
///
/// # Panics
/// Panics if a structural workload asks to move more nodes than the forest
/// has non-roots.
pub fn generate(w: &Workload, seed: u64) -> Script {
    let forest = match w.shape {
        Shape::Random(n) => gen::random_tree(n, seed),
        Shape::Broom(handle, bristles) => gen::broom(handle, bristles, seed),
    };
    let n = forest.len();
    // Both generators build one tree rooted at the first node.
    let root = NodeId::from_index(0);
    assert!(
        w.struct_k < n,
        "{}: cannot move {} of {n} nodes",
        w.name,
        w.struct_k
    );
    let mut rng = XorShift64::new(seed ^ OPS_SALT);
    let mut parent: Vec<Option<NodeId>> = forest.node_ids().map(|v| forest.parent(v)).collect();
    let mut node = |rng: &mut XorShift64| NodeId::from_index(rng.below(n as u64) as usize);

    // `(node, original parent)` of the last move, undone by the next cycle.
    let mut moved: Vec<(NodeId, NodeId)> = Vec::new();
    let mut cycles = Vec::with_capacity(w.pass_cycles);
    for c in 0..w.pass_cycles {
        let structural = (w.struct_k > 0).then(|| {
            // Even cycles move k nodes, odd cycles move them back, so the
            // shape does not drift (thousands of random moves would
            // flatten the broom) and a pass ends on the original shape.
            let (cuts, links) = if c % 2 == 0 {
                moved = move_nodes(&mut parent, root, w.struct_k, &mut rng);
                let cuts = moved.iter().map(|&(v, _)| v).collect();
                let links = moved
                    .iter()
                    .map(|&(v, _)| (v, parent_of(&parent, v)))
                    .collect();
                (cuts, links)
            } else {
                for &(v, p) in &moved {
                    parent[v.index()] = Some(p);
                }
                let cuts = moved.iter().map(|&(v, _)| v).collect();
                (cuts, moved.clone())
            };
            let reject = if c % 2 == 0 {
                Reject::CutRoot(root)
            } else {
                // Every node is in the root's tree after a step.
                let descendant = loop {
                    let v = node(&mut rng);
                    if v != root {
                        break v;
                    }
                };
                Reject::LinkUnder { root, descendant }
            };
            StructStep {
                cuts,
                links,
                reject,
            }
        });
        let labels = (0..w.label_steps)
            .map(|_| LabelStep {
                updates: (0..w.label_b)
                    .map(|_| (node(&mut rng), rng.weight()))
                    .collect(),
                reads: (0..READS_PER_STEP).map(|_| node(&mut rng)).collect(),
            })
            .collect();
        let query = (w.query_q > 0).then(|| mixed_batch(w.query_q, &mut node, &mut rng));
        cycles.push(Cycle {
            structural,
            labels,
            query,
        });
    }
    let probe_batch = mixed_batch(PROBE_QUERIES, &mut node, &mut rng);
    Script {
        forest,
        root,
        cycles,
        probe_batch,
    }
}

fn parent_of(parent: &[Option<NodeId>], v: NodeId) -> NodeId {
    parent[v.index()].expect("a moved node was just linked")
}

/// Moves `k` distinct random non-roots under random nodes of `root`'s
/// component (as it stands after the cuts, so no link can close a cycle).
/// Updates `parent` and returns each moved node with its original parent.
fn move_nodes(
    parent: &mut [Option<NodeId>],
    root: NodeId,
    k: usize,
    rng: &mut XorShift64,
) -> Vec<(NodeId, NodeId)> {
    let n = parent.len();
    let mut chosen = vec![false; n];
    let mut moved = Vec::with_capacity(k);
    while moved.len() < k {
        let v = rng.below(n as u64) as usize;
        if let (Some(p), false) = (parent[v], chosen[v]) {
            chosen[v] = true;
            moved.push((NodeId::from_index(v), p));
        }
    }
    for &(v, _) in &moved {
        parent[v.index()] = None;
    }
    let reachable = component(parent, root);
    for &(v, _) in &moved {
        parent[v.index()] = Some(reachable[rng.below(reachable.len() as u64) as usize]);
    }
    moved
}

/// The nodes of `root`'s tree under `parent`.
fn component(parent: &[Option<NodeId>], root: NodeId) -> Vec<NodeId> {
    let n = parent.len();
    // Child lists in compressed form: `kids[start[p]..start[p + 1]]`.
    let mut start = vec![0usize; n + 1];
    for p in parent.iter().flatten() {
        start[p.index() + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut fill = start.clone();
    let mut kids = vec![root; start[n]];
    for (v, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            kids[fill[p.index()]] = NodeId::from_index(v);
            fill[p.index()] += 1;
        }
    }
    let mut out = vec![root];
    let mut next = 0;
    while next < out.len() {
        let u = out[next].index();
        out.extend_from_slice(&kids[start[u]..start[u + 1]]);
        next += 1;
    }
    out
}

/// Equal parts subtree, path, LCA and component-value queries over random
/// nodes.
fn mixed_batch(
    total: usize,
    node: &mut impl FnMut(&mut XorShift64) -> NodeId,
    rng: &mut XorShift64,
) -> QueryBatch {
    let mut batch = QueryBatch::with_capacity(total);
    for i in 0..total {
        match i % 4 {
            0 => batch.subtree(node(rng)),
            1 => batch.path(node(rng), node(rng)),
            2 => batch.lca(node(rng), node(rng)),
            _ => batch.component_value(node(rng)),
        };
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn smoke(name: &str) -> Workload {
        Workload::by_name(name).unwrap().smoke()
    }

    /// A comparable digest of every op in a script.
    fn ops(s: &Script) -> Vec<String> {
        s.cycles
            .iter()
            .map(|c| {
                format!(
                    "{:?}",
                    (
                        &c.structural,
                        &c.labels,
                        c.query.as_ref().map(|q| q.queries())
                    )
                )
            })
            .chain([format!("{:?}", s.probe_batch.queries())])
            .collect()
    }

    #[test]
    fn same_seed_same_script_other_seed_other_script() {
        for w in WORKLOADS.map(Workload::smoke) {
            let a = generate(&w, 42);
            let b = generate(&w, 42);
            let c = generate(&w, 7);
            assert_eq!(ops(&a), ops(&b), "{}", w.name);
            assert_eq!(Shadow::of(&a.forest), Shadow::of(&b.forest), "{}", w.name);
            assert_ne!(ops(&a), ops(&c), "{}", w.name);
        }
    }

    /// Replays `s` on a shadow, asserting every op is legal when it applies
    /// and that every restoring cycle brings back the original parents.
    #[test]
    fn every_op_is_legal_and_each_undo_restores_the_parents() {
        for w in WORKLOADS.map(Workload::smoke) {
            let s = generate(&w, 42);
            let n = s.forest.len();
            let original = Shadow::of(&s.forest).parent;
            let mut parent = original.clone();
            let root_of = |parent: &[Option<NodeId>], mut v: NodeId| {
                while let Some(p) = parent[v.index()] {
                    v = p;
                }
                v
            };
            for (c, cycle) in s.cycles.iter().enumerate() {
                if let Some(step) = &cycle.structural {
                    assert_eq!(step.cuts.len(), w.struct_k);
                    for &v in &step.cuts {
                        assert!(parent[v.index()].is_some(), "{}: cut of a root {v}", w.name);
                        parent[v.index()] = None;
                    }
                    for &(child, p) in &step.links {
                        assert!(
                            parent[child.index()].is_none(),
                            "{}: link of a non-root",
                            w.name
                        );
                        assert_ne!(
                            root_of(&parent, p),
                            child,
                            "{}: link closes a cycle",
                            w.name
                        );
                        parent[child.index()] = Some(p);
                    }
                    assert!(
                        (0..n).all(|v| root_of(&parent, NodeId::from_index(v)) == s.root),
                        "{}: the forest is one tree after every step",
                        w.name
                    );
                    match step.reject {
                        Reject::CutRoot(r) => assert_eq!(r, s.root),
                        Reject::LinkUnder { root, descendant } => {
                            assert_eq!(root, s.root);
                            assert_ne!(descendant, root);
                        }
                    }
                    if c % 2 == 1 {
                        assert_eq!(
                            parent, original,
                            "{}: cycle {c} restores the parents",
                            w.name
                        );
                    } else {
                        assert_ne!(parent, original, "{}: cycle {c} moves nodes", w.name);
                    }
                }
                for step in &cycle.labels {
                    assert_eq!(step.updates.len(), w.label_b);
                    assert_eq!(step.reads.len(), READS_PER_STEP);
                    assert!(step.updates.iter().all(|&(v, _)| v.index() < n));
                    assert!(step.reads.iter().all(|v| v.index() < n));
                }
                assert_eq!(cycle.query.as_ref().map_or(0, QueryBatch::len), w.query_q);
            }
        }
    }

    #[test]
    fn shadow_counts_the_nodes_a_forest_disagrees_on() {
        let s = generate(&smoke("mixed-broom"), 3);
        let mut shadow = Shadow::of(&s.forest);
        assert_eq!(shadow.mismatches(&s.forest), 0);
        let step = s.cycles[0].structural.as_ref().unwrap();
        let moved = step
            .links
            .iter()
            .filter(|&&(v, p)| s.forest.parent(v) != Some(p))
            .count();
        assert!(moved > 0);
        shadow.apply_struct(step);
        assert_eq!(
            shadow.mismatches(&s.forest),
            moved,
            "every moved node differs"
        );
        shadow.apply_struct(s.cycles[1].structural.as_ref().unwrap());
        assert_eq!(
            shadow.mismatches(&s.forest),
            0,
            "the restore undoes the move"
        );
        shadow.label[7] += 1;
        assert_eq!(shadow.mismatches(&s.forest), 1);
    }
}
