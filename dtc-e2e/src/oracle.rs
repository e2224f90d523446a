//! Reference answers that share nothing with the library but the algebra:
//! `Forest::sequential_fold` for subtree values and parent-pointer walks for
//! paths, LCAs and components.

use dtc_core::{Answer, Forest, NodeId, PathAlgebra, Query};

/// Reference answers for one forest state.
pub struct Oracle<'f, A: PathAlgebra> {
    forest: &'f Forest<A::Label>,
    alg: &'f A,
    vals: Vec<A::Val>,
    depth: Vec<u32>,
}

impl<'f, A: PathAlgebra> Oracle<'f, A> {
    /// Folds `forest` sequentially and records every node's depth. `O(n)`.
    pub fn new(forest: &'f Forest<A::Label>, alg: &'f A) -> Self {
        let n = forest.len();
        let mut depth = vec![u32::MAX; n];
        let mut path = Vec::new();
        for v in forest.node_ids() {
            let mut u = v;
            while depth[u.index()] == u32::MAX {
                path.push(u);
                match forest.parent(u) {
                    Some(p) => u = p,
                    None => break,
                }
            }
            let mut d = match path.last().map(|&top| forest.parent(top)) {
                Some(None) => 0,
                _ => depth[u.index()] + 1,
            };
            while let Some(x) = path.pop() {
                depth[x.index()] = d;
                d += 1;
            }
        }
        Oracle {
            forest,
            alg,
            vals: forest.sequential_fold(alg),
            depth,
        }
    }

    /// Final value of `v`'s subtree.
    pub fn subtree(&self, v: NodeId) -> &A::Val {
        &self.vals[v.index()]
    }

    fn up(&self, v: NodeId) -> NodeId {
        self.forest
            .parent(v)
            .expect("a node below its LCA has a parent")
    }

    /// Lowest common ancestor, or `None` across components.
    pub fn lca(&self, mut u: NodeId, mut v: NodeId) -> Option<NodeId> {
        while self.depth[u.index()] > self.depth[v.index()] {
            u = self.up(u);
        }
        while self.depth[v.index()] > self.depth[u.index()] {
            v = self.up(v);
        }
        while u != v {
            u = self.forest.parent(u)?;
            v = self.forest.parent(v)?;
        }
        Some(u)
    }

    /// Fold of the labels on the path between `u` and `v`, inclusive, or
    /// `None` across components.
    pub fn path(&self, u: NodeId, v: NodeId) -> Option<A::PathVal> {
        let w = self.lca(u, v)?;
        let mut total = self.alg.path_of(self.forest.label(w));
        for mut x in [u, v] {
            while x != w {
                total = self
                    .alg
                    .path_concat(&total, &self.alg.path_of(self.forest.label(x)));
                x = self.up(x);
            }
        }
        Some(total)
    }

    /// The answer the library must give to `q`.
    pub fn answer(&self, q: &Query) -> Answer<A::Val, A::PathVal> {
        match *q {
            Query::Subtree(v) => Answer::Value(self.subtree(v).clone()),
            Query::Path(u, v) => self
                .path(u, v)
                .map_or(Answer::NotConnected, Answer::PathValue),
            Query::Lca(u, v) => self.lca(u, v).map_or(Answer::NotConnected, Answer::Node),
            Query::ComponentRoot(v) => Answer::Node(self.forest.root_of(v)),
            Query::ComponentValue(v) => Answer::Value(self.subtree(self.forest.root_of(v)).clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_core::{gen, MinMax, SubtreeSum};

    /// Plain parent walks, with no depth table, as the reference for the
    /// oracle itself.
    fn ancestors(f: &Forest<i64>, mut v: NodeId) -> Vec<NodeId> {
        let mut out = vec![v];
        while let Some(p) = f.parent(v) {
            out.push(p);
            v = p;
        }
        out
    }

    #[test]
    fn agrees_with_plain_walks_and_the_contraction_engine() {
        let f = gen::random_forest(300, 3, 9);
        let sum = Oracle::new(&f, &SubtreeSum);
        let c = f.contraction().run(&SubtreeSum);
        let mut rng = gen::XorShift64::new(1);
        let mut batch = dtc_core::QueryBatch::new();
        for _ in 0..200 {
            let u = NodeId::from_index(rng.below(300) as usize);
            let v = NodeId::from_index(rng.below(300) as usize);
            let (au, av) = (ancestors(&f, u), ancestors(&f, v));
            let w = au.iter().find(|x| av.contains(x)).copied();
            assert_eq!(sum.lca(u, v), w);
            let expected = w.map(|w| {
                au.iter()
                    .take_while(|&&x| x != w)
                    .chain(av.iter().take_while(|&&x| x != w))
                    .map(|&x| *f.label(x))
                    .sum::<i64>()
                    + f.label(w)
            });
            assert_eq!(sum.path(u, v), expected);
            batch
                .path(u, v)
                .lca(u, v)
                .subtree(u)
                .component_value(v)
                .component_root(u);
        }
        let answers = c.query_batch(&f, &SubtreeSum, &batch).unwrap();
        for (q, a) in batch.queries().iter().zip(answers) {
            assert_eq!(a, Ok(sum.answer(q)), "{q:?}");
        }
        let minmax = Oracle::new(&f, &MinMax);
        let c = f.contraction().run(&MinMax);
        for (q, a) in batch
            .queries()
            .iter()
            .zip(c.query_batch(&f, &MinMax, &batch).unwrap())
        {
            assert_eq!(a, Ok(minmax.answer(q)), "{q:?}");
        }
    }
}
