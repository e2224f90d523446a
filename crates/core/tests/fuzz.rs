//! Shrinking script fuzzer for the batch-dynamic layer.
//!
//! Each seed generates a forest from the shape zoo (multi-root forests
//! included) and a script of edit batches: cuts, links and relabels mixed
//! in one recompute, nodes cut and relinked in the same batch, two nodes
//! that swap parents in one batch, links that build on earlier links, and
//! now and then an invalid edit that must be refused with its typed error
//! and change nothing. Reads, component reads and query batches run
//! between the batches, some of them while edits are pending (they must
//! answer `Stale` / `PendingEdits`). Every answer is checked against
//! [`Forest::sequential_fold`] and the naive walks [`Forest::naive_lca`] /
//! [`Forest::naive_path_fold`]; with the `check` feature, `validate()` and
//! `validate_trace()` also run after every recompute (the latter compares
//! child aggregates too, so the helpers need comparable parts). The
//! algebras are `SubtreeSum`, `MinMax`, `OrderedRake<SeqHash>` and
//! `ExprEval` (whose scripts link only under operator nodes: a constant
//! leaf cannot take children).
//!
//! A failing script is shrunk greedily — drop whole ops, then single
//! elements of the batches — and the test fails with its seed, shape and
//! the minimal script.
//!
//! Budget: `DTC_FUZZ_SCRIPTS` scripts per algebra (default 40, a few
//! seconds in a debug build); `DTC_FUZZ_SEED` changes the base seed, e.g.
//! to replay a reported failure with `DTC_FUZZ_SCRIPTS=1`.

use dtc_core::gen::{self, XorShift64};
use dtc_core::{
    Answer, DynForest, EditError, ExprEval, ExprLabel, ExprOp, Forest, MinMax, NodeId, OrderedRake,
    PathAlgebra, Propagate, Query, QueryBatch, QueryError, SeqHash, SubtreeSum,
};
use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// One step of a script; nodes are forest indices.
#[derive(Clone, Debug)]
enum Op<L> {
    /// One `try_batch_cut` call.
    Cut(Vec<u32>),
    /// One `try_batch_link` call, `(child, parent)`.
    Link(Vec<(u32, u32)>),
    /// One `batch_update_weights` call.
    Label(Vec<(u32, L)>),
    /// `recompute`, then every value against the oracle.
    Recompute,
    /// `try_subtree_value` and `try_component_value` of each node.
    Read(Vec<u32>),
    /// One `query_batch`: `(kind, u, v)` per query.
    Query(Vec<(u8, u32, u32)>),
}

impl<L> Op<L> {
    fn len(&self) -> usize {
        match self {
            Op::Cut(v) | Op::Read(v) => v.len(),
            Op::Link(v) => v.len(),
            Op::Label(v) => v.len(),
            Op::Query(v) => v.len(),
            Op::Recompute => 0,
        }
    }

    fn remove(&mut self, i: usize) {
        match self {
            Op::Cut(v) | Op::Read(v) => drop(v.remove(i)),
            Op::Link(v) => drop(v.remove(i)),
            Op::Label(v) => drop(v.remove(i)),
            Op::Query(v) => drop(v.remove(i)),
            Op::Recompute => {}
        }
    }
}

/// What the fuzzer needs of an algebra beyond [`Propagate`].
trait Subject: Propagate + Clone {
    /// Shape `k` of the zoo with about `n` nodes.
    fn forest(k: u64, n: usize, seed: u64) -> (&'static str, Forest<Self::Label>);
    /// A new label for a node labelled `old`.
    fn relabel(old: &Self::Label, rng: &mut XorShift64) -> Self::Label;
    /// Whether a node labelled so may take children.
    fn can_parent(_label: &Self::Label) -> bool {
        true
    }
    /// Checks a query batch against the naive walks, or, with edits
    /// pending, that it is refused. Algebras without path aggregates have
    /// no query engine and check nothing.
    fn queries(
        &self,
        _d: &DynForest<Self>,
        _qs: &[(u8, u32, u32)],
        _oracle: Option<&[Self::Val]>,
    ) -> Result<(), String> {
        Ok(())
    }
}

fn zoo(k: u64, n: usize, seed: u64) -> (&'static str, Forest<i64>) {
    match k % 7 {
        0 => ("random", gen::random_tree(n, seed)),
        1 => ("path", gen::path(n, seed)),
        2 => ("star", gen::star(n, seed)),
        3 => ("caterpillar", gen::caterpillar(n / 3 + 1, 2, seed)),
        4 => ("binary", gen::binary_tree(n, seed)),
        5 => ("broom", gen::broom(n / 2 + 1, n / 2, seed)),
        _ => ("forest", gen::random_forest(n, 2 + n / 10, seed)),
    }
}

fn relabel_i64(rng: &mut XorShift64) -> i64 {
    rng.below(41) as i64 - 20
}

/// [`Subject::queries`] for the algebras with a query engine; `oracle` is
/// `None` while edits are pending.
fn path_queries<A>(
    alg: &A,
    d: &DynForest<A>,
    qs: &[(u8, u32, u32)],
    oracle: Option<&[A::Val]>,
) -> Result<(), String>
where
    A: PathAlgebra + Propagate,
    A::Val: PartialEq + Debug,
    A::PathVal: PartialEq + Debug,
{
    let Some(oracle) = oracle else {
        let pending = d.pending();
        let got = d.query_batch(&QueryBatch::new()).map(|_| ());
        return match got {
            Err(QueryError::PendingEdits { pending: p }) if p == pending && p > 0 => Ok(()),
            _ => Err(format!(
                "a query with {pending} edits pending returned {got:?}"
            )),
        };
    };
    let f = d.forest();
    let n = f.len();
    let id = |x: u32| NodeId::from_index(x as usize);
    let batch: QueryBatch = qs
        .iter()
        .map(|&(k, u, v)| match k % 5 {
            0 => Query::Subtree(id(u)),
            1 => Query::Path(id(u), id(v)),
            2 => Query::Lca(id(u), id(v)),
            3 => Query::ComponentRoot(id(u)),
            _ => Query::ComponentValue(id(u)),
        })
        .collect();
    let answers = d
        .query_batch(&batch)
        .map_err(|e| format!("query batch refused on a clean forest: {e}"))?;
    for (q, got) in batch.queries().iter().zip(answers) {
        let named = match *q {
            Query::Path(u, v) | Query::Lca(u, v) => [u, v],
            Query::Subtree(u) | Query::ComponentRoot(u) | Query::ComponentValue(u) => [u, u],
        };
        let unknown = named.into_iter().find(|u| u.index() >= n);
        let want = match (unknown, *q) {
            (Some(node), _) => Err(QueryError::UnknownNode { node, nodes: n }),
            (None, Query::Subtree(v)) => Ok(Answer::Value(oracle[v.index()].clone())),
            (None, Query::Path(u, v)) => Ok(f
                .naive_path_fold(alg, u, v)
                .map_or(Answer::NotConnected, Answer::PathValue)),
            (None, Query::Lca(u, v)) => {
                Ok(f.naive_lca(u, v).map_or(Answer::NotConnected, Answer::Node))
            }
            (None, Query::ComponentRoot(v)) => Ok(Answer::Node(f.root_of(v))),
            (None, Query::ComponentValue(v)) => {
                Ok(Answer::Value(oracle[f.root_of(v).index()].clone()))
            }
        };
        if got != want {
            return Err(format!("{q:?} answered {got:?}, oracle says {want:?}"));
        }
    }
    Ok(())
}

impl Subject for SubtreeSum {
    fn forest(k: u64, n: usize, seed: u64) -> (&'static str, Forest<i64>) {
        zoo(k, n, seed)
    }
    fn relabel(_: &i64, rng: &mut XorShift64) -> i64 {
        relabel_i64(rng)
    }
    fn queries(
        &self,
        d: &DynForest<Self>,
        qs: &[(u8, u32, u32)],
        oracle: Option<&[i64]>,
    ) -> Result<(), String> {
        path_queries(self, d, qs, oracle)
    }
}

impl Subject for MinMax {
    fn forest(k: u64, n: usize, seed: u64) -> (&'static str, Forest<i64>) {
        zoo(k, n, seed)
    }
    fn relabel(_: &i64, rng: &mut XorShift64) -> i64 {
        relabel_i64(rng)
    }
    fn queries(
        &self,
        d: &DynForest<Self>,
        qs: &[(u8, u32, u32)],
        oracle: Option<&[Self::Val]>,
    ) -> Result<(), String> {
        path_queries(self, d, qs, oracle)
    }
}

impl Subject for OrderedRake<SeqHash> {
    fn forest(k: u64, n: usize, seed: u64) -> (&'static str, Forest<i64>) {
        zoo(k, n, seed)
    }
    fn relabel(_: &i64, rng: &mut XorShift64) -> i64 {
        relabel_i64(rng)
    }
}

impl Subject for ExprEval {
    /// The zoo's shapes with operators on inner nodes and small constants
    /// on leaves.
    fn forest(k: u64, n: usize, seed: u64) -> (&'static str, Forest<ExprLabel>) {
        let (name, f) = zoo(k, n, seed);
        let mut inner = vec![false; f.len()];
        for v in f.node_ids() {
            if let Some(p) = f.parent(v) {
                inner[p.index()] = true;
            }
        }
        let mut e = Forest::with_capacity(f.len());
        for v in f.node_ids() {
            let label = if inner[v.index()] {
                ExprLabel::Op(if f.label(v) % 2 == 0 {
                    ExprOp::Add
                } else {
                    ExprOp::Mul
                })
            } else {
                ExprLabel::Leaf(f.label(v) % 4)
            };
            match f.parent(v) {
                None => e.add_root(label),
                Some(p) => e.add_child(p, label),
            };
        }
        (name, e)
    }
    fn relabel(old: &ExprLabel, rng: &mut XorShift64) -> ExprLabel {
        match old {
            ExprLabel::Leaf(_) => ExprLabel::Leaf(rng.below(7) as i64 - 3),
            ExprLabel::Op(ExprOp::Add) => ExprLabel::Op(ExprOp::Mul),
            ExprLabel::Op(ExprOp::Mul) => ExprLabel::Op(ExprOp::Add),
        }
    }
    fn can_parent(label: &ExprLabel) -> bool {
        matches!(label, ExprLabel::Op(_))
    }
    fn queries(
        &self,
        d: &DynForest<Self>,
        qs: &[(u8, u32, u32)],
        oracle: Option<&[i64]>,
    ) -> Result<(), String> {
        path_queries(self, d, qs, oracle)
    }
}

fn root_of(parent: &[Option<u32>], mut v: u32) -> u32 {
    while let Some(p) = parent[v as usize] {
        v = p;
    }
    v
}

/// Generates a script of `batches` edit batches over `forest`, tracking the
/// shape so that almost every edit is valid.
fn generate<A: Subject>(forest: &Forest<A::Label>, batches: usize, seed: u64) -> Vec<Op<A::Label>> {
    let mut rng = XorShift64::new(seed ^ 0xF022);
    let n = forest.len() as u32;
    let mut parent: Vec<Option<u32>> = forest
        .node_ids()
        .map(|v| forest.parent(v).map(|p| p.index() as u32))
        .collect();
    let labels: Vec<A::Label> = forest.node_ids().map(|v| forest.label(v).clone()).collect();
    let mut script = Vec::new();
    let pick = |rng: &mut XorShift64| rng.below(n as u64) as u32;
    // A valid link of `child`'s root under a node outside its tree, if any.
    let link_for = |rng: &mut XorShift64, parent: &[Option<u32>], child: u32| {
        let root = root_of(parent, child);
        (0..8).find_map(|_| {
            let p = pick(rng);
            (root_of(parent, p) != root && A::can_parent(&labels[p as usize])).then_some((root, p))
        })
    };
    let queries = |rng: &mut XorShift64, k: usize| -> Vec<(u8, u32, u32)> {
        (0..k)
            .map(|_| {
                // One query in 32 names an unknown node.
                let u = if rng.below(32) == 0 { n } else { pick(rng) };
                (rng.below(5) as u8, u, pick(rng))
            })
            .collect()
    };
    for _ in 0..batches {
        for _ in 0..1 + rng.below(3) {
            match rng.below(6) {
                0 => {
                    let mut cuts = Vec::new();
                    for _ in 0..1 + rng.below(3) {
                        let v = pick(&mut rng);
                        if parent[v as usize].is_some() {
                            parent[v as usize] = None;
                            cuts.push(v);
                        } else if rng.below(8) == 0 {
                            // Invalid: cutting a root rejects the batch.
                            let mut bad = cuts.clone();
                            bad.push(v);
                            script.push(Op::Cut(bad));
                        }
                    }
                    script.push(Op::Cut(cuts));
                }
                1 => {
                    // Links, each possibly under the previous one's child.
                    let mut links: Vec<(u32, u32)> = Vec::new();
                    for _ in 0..1 + rng.below(3) {
                        let child = pick(&mut rng);
                        let chained = links
                            .last()
                            .map(|&(c, _)| c)
                            .filter(|&c| rng.below(2) == 0 && A::can_parent(&labels[c as usize]));
                        let link = match chained {
                            Some(p) => {
                                let root = root_of(&parent, child);
                                (root_of(&parent, p) != root).then_some((root, p))
                            }
                            None => link_for(&mut rng, &parent, child),
                        };
                        if let Some((c, p)) = link {
                            parent[c as usize] = Some(p);
                            links.push((c, p));
                        }
                    }
                    if rng.below(10) == 0 {
                        // Invalid: a non-root child, or a cycle.
                        let v = pick(&mut rng);
                        let bad = match parent[v as usize] {
                            Some(_) => (v, pick(&mut rng)),
                            None => (v, v),
                        };
                        let mut all = links.clone();
                        all.push(bad);
                        script.push(Op::Link(all));
                    }
                    script.push(Op::Link(links));
                }
                2 => {
                    let edits = (0..1 + rng.below(4))
                        .map(|_| {
                            let v = pick(&mut rng);
                            (v, A::relabel(&labels[v as usize], &mut rng))
                        })
                        .collect();
                    script.push(Op::Label(edits));
                }
                3 => {
                    // Swap the parents of two nodes in one batch: cut both,
                    // then link each under the other's old parent.
                    let (a, b) = (pick(&mut rng), pick(&mut rng));
                    if let (Some(pa), Some(pb)) = (parent[a as usize], parent[b as usize]) {
                        if pa != pb {
                            parent[a as usize] = None;
                            parent[b as usize] = None;
                            script.push(Op::Cut(vec![a, b]));
                            let mut links = Vec::new();
                            for (c, p) in [(a, pb), (b, pa)] {
                                if root_of(&parent, p) != c {
                                    parent[c as usize] = Some(p);
                                    links.push((c, p));
                                }
                            }
                            script.push(Op::Link(links));
                        }
                    }
                }
                _ => {
                    // Cut a node and relink it in the same batch.
                    let v = pick(&mut rng);
                    if parent[v as usize].is_some() {
                        parent[v as usize] = None;
                        script.push(Op::Cut(vec![v]));
                        if let Some((c, p)) = link_for(&mut rng, &parent, v) {
                            parent[c as usize] = Some(p);
                            script.push(Op::Link(vec![(c, p)]));
                        }
                    }
                }
            }
        }
        if rng.below(4) == 0 {
            script.push(Op::Read(vec![pick(&mut rng)]));
        }
        if rng.below(6) == 0 {
            script.push(Op::Query(queries(&mut rng, 2)));
        }
        script.push(Op::Recompute);
        script.push(Op::Read(
            (0..1 + rng.below(4)).map(|_| pick(&mut rng)).collect(),
        ));
        if rng.below(2) == 0 {
            let k = 4 + rng.below(8) as usize;
            script.push(Op::Query(queries(&mut rng, k)));
        }
    }
    script
}

#[cfg(feature = "check")]
fn validate<A: Propagate>(d: &DynForest<A>) -> Result<(), String>
where
    A::Part: PartialEq,
{
    d.validate().map_err(|e| format!("validate: {e}"))?;
    d.validate_trace()
        .map_err(|e| format!("validate_trace: {e}"))
}

#[cfg(not(feature = "check"))]
fn validate<A: Propagate>(_d: &DynForest<A>) -> Result<(), String> {
    Ok(())
}

/// Runs `script`; the first disagreement with the model or the oracle is
/// the error.
fn run<A>(
    alg: &A,
    forest: &Forest<A::Label>,
    script: &[Op<A::Label>],
    seed: u64,
) -> Result<(), String>
where
    A: Subject,
    A::Label: PartialEq + Debug,
    A::Val: PartialEq + Debug,
    A::Part: PartialEq,
{
    let n = forest.len();
    let id = |x: u32| NodeId::from_index(x as usize);
    let mut d = DynForest::with_seed(forest.clone(), alg.clone(), seed);
    let mut parent: Vec<Option<u32>> = forest
        .node_ids()
        .map(|v| forest.parent(v).map(|p| p.index() as u32))
        .collect();
    let mut labels: Vec<A::Label> = forest.node_ids().map(|v| forest.label(v).clone()).collect();
    let mut oracle = forest.sequential_fold(alg);
    let mut pending = false;
    for (i, op) in script.iter().enumerate() {
        let fail = |what: String| Err(format!("op {i} {op:?}: {what}"));
        match op {
            Op::Cut(vs) => {
                let mut next = parent.clone();
                let mut want = Ok(());
                for &v in vs {
                    if next[v as usize].take().is_none() {
                        want = Err(EditError::AlreadyRoot { node: id(v) });
                        break;
                    }
                }
                let got = d.try_batch_cut(&vs.iter().map(|&v| id(v)).collect::<Vec<_>>());
                if got != want {
                    return fail(format!("returned {got:?}, expected {want:?}"));
                }
                if got.is_ok() {
                    parent = next;
                    pending |= !vs.is_empty();
                }
            }
            Op::Link(ls) => {
                let mut next = parent.clone();
                let mut want = Ok(());
                for &(c, p) in ls {
                    let (child, par) = (id(c), id(p));
                    if next[c as usize].is_some() {
                        want = Err(EditError::NotARoot { node: child });
                        break;
                    }
                    if root_of(&next, p) == c {
                        want = Err(EditError::WouldCycle { child, parent: par });
                        break;
                    }
                    next[c as usize] = Some(p);
                }
                let links: Vec<_> = ls.iter().map(|&(c, p)| (id(c), id(p))).collect();
                let got = d.try_batch_link(&links);
                if got != want {
                    return fail(format!("returned {got:?}, expected {want:?}"));
                }
                if got.is_ok() {
                    parent = next;
                    pending |= !ls.is_empty();
                }
            }
            Op::Label(us) => {
                let edits: Vec<_> = us.iter().map(|(v, l)| (id(*v), l.clone())).collect();
                if let Err(e) = d.batch_update_weights(&edits) {
                    return fail(format!("a valid relabel was refused: {e}"));
                }
                for (v, l) in us {
                    labels[*v as usize] = l.clone();
                }
                pending |= !us.is_empty();
            }
            Op::Recompute => {
                let stats = d.recompute();
                if stats.replayed_slots + stats.reused_slots != stats.total && stats.dirty > 0 {
                    return fail(format!("slot counts do not add up: {stats}"));
                }
                pending = false;
                validate(&d).or_else(fail)?;
                oracle = d.forest().sequential_fold(alg);
                for v in 0..n as u32 {
                    let got = d.try_subtree_value(id(v));
                    if got.as_ref() != Ok(&oracle[v as usize]) {
                        return fail(format!(
                            "n{v} reads {got:?}, oracle {:?}",
                            oracle[v as usize]
                        ));
                    }
                }
            }
            Op::Read(vs) => {
                for &v in vs {
                    let root = root_of(&parent, v) as usize;
                    let (sub, comp) = (d.try_subtree_value(id(v)), d.try_component_value(id(v)));
                    let want = |x: usize| {
                        if pending {
                            Err(QueryError::Stale { node: id(v) })
                        } else {
                            Ok(oracle[x].clone())
                        }
                    };
                    if sub != want(v as usize) || comp != want(root) {
                        return fail(format!("n{v} reads {sub:?} / component {comp:?}"));
                    }
                }
                if d.is_dirty(id(n as u32)) {
                    return fail("an unknown node carries a mark".into());
                }
            }
            Op::Query(qs) => {
                let oracle = (!pending).then_some(&oracle[..]);
                alg.queries(&d, qs, oracle).or_else(fail)?;
            }
        }
        for v in 0..n {
            let node = NodeId::from_index(v);
            if d.forest().parent(node).map(|p| p.index() as u32) != parent[v]
                || *d.forest().label(node) != labels[v]
            {
                return fail(format!("n{v}'s parent or label differs from the model"));
            }
        }
    }
    Ok(())
}

/// [`run`] with panics turned into errors.
fn run_caught<A>(
    alg: &A,
    forest: &Forest<A::Label>,
    script: &[Op<A::Label>],
    seed: u64,
) -> Result<(), String>
where
    A: Subject,
    A::Label: PartialEq + Debug,
    A::Val: PartialEq + Debug,
    A::Part: PartialEq,
{
    panic::catch_unwind(AssertUnwindSafe(|| run(alg, forest, script, seed))).unwrap_or_else(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

/// Greedily shrinks a failing script: drop whole ops while it still fails,
/// then single elements of the batches, until neither helps.
fn shrink<A>(
    alg: &A,
    forest: &Forest<A::Label>,
    mut script: Vec<Op<A::Label>>,
    seed: u64,
) -> Vec<Op<A::Label>>
where
    A: Subject,
    A::Label: PartialEq + Debug,
    A::Val: PartialEq + Debug,
    A::Part: PartialEq,
{
    let fails = |s: &[Op<A::Label>]| run_caught(alg, forest, s, seed).is_err();
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < script.len() {
            let mut t = script.clone();
            t.remove(i);
            if fails(&t) {
                script = t;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        for i in 0..script.len() {
            let mut j = 0;
            while j < script[i].len() {
                let mut t = script.clone();
                t[i].remove(j);
                if fails(&t) {
                    script = t;
                    shrunk = true;
                } else {
                    j += 1;
                }
            }
        }
        if !shrunk {
            return script;
        }
    }
}

thread_local! {
    /// `true` while this thread shrinks a failing script, whose replays
    /// panic by design.
    static SHRINKING: Cell<bool> = const { Cell::new(false) };
}

/// Installs, once per process, a panic hook that stays quiet on a thread
/// that is shrinking and hands every other panic to the default hook. The
/// hook is process-wide and the fuzz tests run on parallel threads, so a
/// hook swapped per test would swallow another test's failure report.
fn quiet_while_shrinking() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SHRINKING.with(Cell::get) {
                default(info);
            }
        }));
    });
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Fuzzes `DTC_FUZZ_SCRIPTS` seeded scripts under `alg`.
fn fuzz<A>(alg: A, salt: u64)
where
    A: Subject,
    A::Label: PartialEq + Debug,
    A::Val: PartialEq + Debug,
    A::Part: PartialEq,
{
    quiet_while_shrinking();
    let scripts = env_u64("DTC_FUZZ_SCRIPTS", 40);
    let base = env_u64("DTC_FUZZ_SEED", 0x5EED_F022) ^ salt;
    for k in 0..scripts {
        let seed = base.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = XorShift64::new(seed);
        let n = 8 + rng.below(120) as usize;
        let (shape, forest) = A::forest(rng.below(7), n, seed);
        let script = generate::<A>(&forest, 4 + rng.below(8) as usize, seed);
        if let Err(first) = run_caught(&alg, &forest, &script, seed) {
            SHRINKING.with(|s| s.set(true));
            let minimal = shrink(&alg, &forest, script, seed);
            SHRINKING.with(|s| s.set(false));
            let last = run_caught(&alg, &forest, &minimal, seed)
                .err()
                .unwrap_or_default();
            panic!(
                "fuzz seed {seed:#x} (script {k}), {shape} of {n} nodes: {first}\n\
                 minimal script ({} ops) fails with: {last}\n{minimal:#?}",
                minimal.len()
            );
        }
    }
}

#[test]
fn fuzz_subtree_sum() {
    fuzz(SubtreeSum, 1);
}

#[test]
fn fuzz_min_max() {
    fuzz(MinMax, 2);
}

#[test]
fn fuzz_ordered_rake() {
    fuzz(OrderedRake(SeqHash), 3);
}

#[test]
fn fuzz_expr_eval() {
    fuzz(ExprEval, 4);
}
