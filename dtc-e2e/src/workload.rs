//! The benchmark's workloads.
//!
//! Every workload is a cyclic script against one generated forest. One
//! cycle is, in order: an optional structural step followed by an
//! invalid-edit probe, `label_steps` × (label step, read step), and an
//! optional query step. The workloads differ in which steps a cycle holds
//! and in tree shape and algebra, so that each layer of `dtc-core` is
//! exercised by one workload and bypassed by another.

use dtc_bench::Json;

/// Tree shape of a workload's forest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `gen::random_tree(n, seed)`: expected depth `O(log n)`.
    Random(usize),
    /// `gen::broom(handle, bristles, seed)`: a path ending in one node of
    /// high degree, so an edit at a bristle dirties the whole handle.
    Broom(usize, usize),
}

/// Value algebra a workload maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algebra {
    /// Invertible: propagation patches flat child aggregates.
    SubtreeSum,
    /// Not invertible: propagation walks balanced sibling trees.
    MinMax,
}

/// One scripted workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name used on the command line and in results.
    pub name: &'static str,
    /// Why the workload exists: which layer it stresses and which it
    /// bypasses.
    pub why: &'static str,
    /// Forest shape.
    pub shape: Shape,
    /// Value algebra.
    pub algebra: Algebra,
    /// Nodes moved by each structural step; 0 means no structural steps.
    pub struct_k: usize,
    /// Label + read step pairs per cycle.
    pub label_steps: usize,
    /// Weight updates per label step.
    pub label_b: usize,
    /// Queries per query step; 0 means no query step.
    pub query_q: usize,
    /// Cycles in one pass of the script. A run replays passes until its
    /// time is up; counters are taken over the first pass, so they repeat
    /// exactly for a fixed seed.
    pub pass_cycles: usize,
    /// One cycle in every this many has its reads and answers checked
    /// against the oracle (see [`Workload::checkpoint`]).
    pub checkpoint_every: usize,
}

/// `try_subtree_value` calls per read step. A block of 256 reads was at
/// timer resolution on random trees.
pub const READS_PER_STEP: usize = 1024;

/// Size of the query batch the traced run's query probe resolves on
/// workloads that have no query step of their own.
pub const PROBE_QUERIES: usize = 1000;

/// The workloads, in the order results are reported.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "update-random",
        why: "label batches on a random tree: time is in propagate; no structural edits, \
              no queries, contraction only at set-up",
        shape: Shape::Random(100_000),
        algebra: Algebra::SubtreeSum,
        struct_k: 0,
        label_steps: 1,
        label_b: 1000,
        query_q: 0,
        pass_cycles: 512,
        checkpoint_every: 256,
    },
    Workload {
        name: "query-random",
        why: "query batches on a random tree: time is in the full contraction and query \
              resolution inside query_batch; propagate is nearly idle",
        shape: Shape::Random(100_000),
        algebra: Algebra::SubtreeSum,
        struct_k: 0,
        label_steps: 1,
        label_b: 16,
        query_q: 1000,
        pass_cycles: 32,
        checkpoint_every: 16,
    },
    Workload {
        name: "mixed-random",
        why: "cut/link, label, read and query steps on a random tree: every layer, dominated \
              by the re-anchor after each structural batch and the query contraction",
        shape: Shape::Random(100_000),
        algebra: Algebra::SubtreeSum,
        struct_k: 64,
        label_steps: 4,
        label_b: 256,
        query_q: 256,
        pass_cycles: 16,
        checkpoint_every: 16,
    },
    Workload {
        name: "mixed-broom",
        why: "the mixed script on a broom under MinMax: ~50k-node dirty sets, and propagation \
              through sibling trees instead of the invertible path",
        shape: Shape::Broom(50_000, 50_000),
        algebra: Algebra::MinMax,
        struct_k: 64,
        label_steps: 4,
        label_b: 256,
        query_q: 256,
        pass_cycles: 16,
        checkpoint_every: 16,
    },
];

impl Workload {
    /// The workload named `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).copied()
    }

    /// The same script at smoke scale: 1k nodes, 4 cycles, every other
    /// cycle checked against the oracle.
    pub fn smoke(self) -> Workload {
        Workload {
            shape: match self.shape {
                Shape::Random(_) => Shape::Random(1_000),
                Shape::Broom(..) => Shape::Broom(500, 500),
            },
            pass_cycles: 4,
            checkpoint_every: 2,
            ..self
        }
    }

    /// Whether cycle `i` (counted over the run) is checked against the
    /// oracle: one cycle in every `checkpoint_every`, at a position that
    /// moves back by one each time. Checks so land on odd and even cycles
    /// alike, and structural workloads alternate moving and restoring
    /// cycles.
    pub fn checkpoint(&self, i: usize) -> bool {
        let every = self.checkpoint_every;
        (i + i / every) % every == every - 1
    }

    /// Library operations one cycle attempts: cuts, links, the rejected
    /// edit, weight updates, reads and queries.
    pub fn ops_per_cycle(&self) -> u64 {
        let structural = if self.struct_k > 0 {
            2 * self.struct_k + 1
        } else {
            0
        };
        (structural + self.label_steps * (self.label_b + READS_PER_STEP) + self.query_q) as u64
    }

    /// The workload's parameters, for result provenance.
    pub fn params_json(&self) -> Json {
        let shape = match self.shape {
            Shape::Random(n) => format!("random_tree({n})"),
            Shape::Broom(h, b) => format!("broom({h}, {b})"),
        };
        let algebra = match self.algebra {
            Algebra::SubtreeSum => "SubtreeSum",
            Algebra::MinMax => "MinMax",
        };
        let num = |v: usize| Json::Num(v as f64);
        Json::Obj(vec![
            ("name".to_string(), Json::str(self.name)),
            ("shape".to_string(), Json::str(shape)),
            ("algebra".to_string(), Json::str(algebra)),
            ("struct_k".to_string(), num(self.struct_k)),
            ("label_steps".to_string(), num(self.label_steps)),
            ("label_b".to_string(), num(self.label_b)),
            ("reads_per_step".to_string(), num(READS_PER_STEP)),
            ("query_q".to_string(), num(self.query_q)),
            ("pass_cycles".to_string(), num(self.pass_cycles)),
            ("checkpoint_every".to_string(), num(self.checkpoint_every)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoints_rotate_over_odd_and_even_cycles() {
        for w in WORKLOADS.into_iter().chain(WORKLOADS.map(Workload::smoke)) {
            let every = w.checkpoint_every;
            let checked: Vec<usize> = (0..every * every * 2)
                .filter(|&i| w.checkpoint(i))
                .collect();
            // Exactly one checked cycle in each window of `every` cycles.
            for window in 0..2 * every {
                let hits = checked.iter().filter(|&&i| i / every == window).count();
                assert_eq!(hits, 1, "{} window {window}", w.name);
            }
            let mut positions: Vec<usize> = checked.iter().map(|i| i % w.pass_cycles).collect();
            positions.sort_unstable();
            positions.dedup();
            assert!(positions.len() >= every.min(w.pass_cycles), "{}", w.name);
            assert!(positions.iter().any(|p| p % 2 == 0), "{}", w.name);
            assert!(positions.iter().any(|p| p % 2 == 1), "{}", w.name);
        }
    }
}
