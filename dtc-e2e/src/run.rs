//! Runs a workload's script against `DynForest` and measures it.
//!
//! Only calls into `dtc-core`'s public API are timed. A step runs from its
//! first library call to the return of its last one. A cycle's script time
//! is its wall time less the oracle checks made inside it, so the harness's
//! own bookkeeping between steps shows up as time no layer accounts for.
//! Oracle checks and the traced run's probes happen between steps, outside
//! every clock.
//!
//! The loop replays the script's pass until its time is up. Passes are
//! identical units of work, and every timing is taken over the faster half
//! of them: on a shared host, co-tenant load slows whole stretches of a run
//! by up to 60%, and the faster half leaves those stretches out while
//! keeping the same mix of work.
//!
//! Every step takes the same timestamps whether or not its pass is traced;
//! a traced pass also keeps them as spans. With tracing on, passes
//! alternate untraced/traced, so the per-layer numbers of the traced passes
//! come with the cost of tracing, measured against the untraced passes.

use crate::oracle::Oracle;
use crate::script::{self, Cycle, LabelStep, Reject, Script, Shadow, StructStep};
use crate::stats::percentile;
use crate::sys;
use crate::workload::{Algebra, Workload, READS_PER_STEP};
use dtc_core::obs::Phase;
use dtc_core::{
    DynForest, EditError, MinMax, PathAlgebra, Propagate, QueryBatch, QueryError, QueryOutcome,
    SubtreeSum,
};
use std::time::{Duration, Instant};

/// The `dtc-core` modules whose public calls the script times, in the
/// order per-layer results list them.
const LAYERS: [&str; 3] = ["dynamic", "propagate", "engine"];

/// What the runner needs of an algebra: change propagation, path queries,
/// `i64` weights, and the thread-safety `query_batch` asks for.
pub trait BenchAlgebra:
    Propagate<Label = i64> + PathAlgebra<Val: Send + Sync, PathVal: PartialEq + Send + Sync> + Sync
{
}

impl<A> BenchAlgebra for A where
    A: Propagate<Label = i64>
        + PathAlgebra<Val: Send + Sync, PathVal: PartialEq + Send + Sync>
        + Sync
{
}

/// How to run a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settings {
    /// Seed of the forest and of every op.
    pub seed: u64,
    /// Wall time the cycle loop runs for (checks and probes included). The
    /// loop always finishes one pass, two when tracing.
    pub seconds: f64,
    /// Alternate untraced and traced passes and report per-layer metrics.
    pub trace: bool,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The measurement.
    pub value: f64,
}

/// One traced interval: a script step, a library call inside one, or a
/// probe outside the script clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Position in the run's span list.
    pub id: u64,
    /// The step span a call span belongs to.
    pub parent: Option<u64>,
    /// Script step the span belongs to, counted from 1 over the run.
    pub step: u64,
    /// `script`, or the `dtc-core` module the call enters.
    pub layer: &'static str,
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, in nanoseconds since the cycle loop began.
    pub start_ns: u64,
    /// End, in nanoseconds since the cycle loop began.
    pub end_ns: u64,
    /// `true` for probes, which run outside the script clock.
    pub probe: bool,
}

/// Everything a run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Library operations the script attempted.
    pub attempted: u64,
    /// Unexpected errors, wrong answers, accepted invalid edits, and nodes
    /// whose final value or shape disagrees with the oracle.
    pub failed: u64,
    /// Cycles run.
    pub cycles: u64,
    /// End-to-end metrics, over the untraced passes.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, over the traced passes; empty without tracing.
    pub per_layer: Vec<Metric>,
    /// Step latencies kept off the result line, and run totals.
    pub detail: Vec<Metric>,
    /// Counts over the first pass; they repeat exactly for a fixed seed,
    /// so a change in one is a change in behaviour, not noise.
    pub counters: Vec<(&'static str, u64)>,
    /// The traced passes' spans.
    pub spans: Vec<Span>,
}

impl Report {
    /// `true` when every checked output was right.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Generates `w`'s script from `settings.seed` and runs it.
pub fn run(w: &Workload, settings: &Settings) -> Report {
    let script = script::generate(w, settings.seed);
    match w.algebra {
        Algebra::SubtreeSum => execute(SubtreeSum, w, &script, settings),
        Algebra::MinMax => execute(MinMax, w, &script, settings),
    }
}

type Answers<A> = Result<Vec<QueryOutcome<A>>, QueryError>;

/// A library call inside a step: `(name, start, end)`, the name being
/// `layer.operation`.
type Call = (&'static str, Instant, Instant);

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

fn layer_of(name: &'static str) -> &'static str {
    name.split_once('.').map_or(name, |(layer, _)| layer)
}

fn pct(samples: &[u64], q: f64) -> f64 {
    percentile(samples, q).unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Timings of one pass, or of several merged.
#[derive(Debug, Default)]
struct Samples {
    traced: bool,
    ops: u64,
    script_ns: u64,
    /// Self time of the calls into each of [`LAYERS`].
    busy_ns: [u64; 3],
    cycle: Vec<u64>,
    /// Label steps with no structural step since the last recompute.
    label: Vec<u64>,
    label_after_struct: Vec<u64>,
    update: Vec<u64>,
    propagate: Vec<u64>,
    reanchor: Vec<u64>,
    structural: Vec<u64>,
    mark: Vec<u64>,
    recontract: Vec<u64>,
    reject: Vec<u64>,
    /// Read steps after the label steps in `label`.
    read_block: Vec<u64>,
    query: Vec<u64>,
    contract: Vec<u64>,
    resolve: Vec<u64>,
    probe_rounds: u64,
    probe_plan_ns: u64,
    probe_apply_ns: u64,
    probe_backsolve_ns: u64,
}

impl Samples {
    fn absorb(&mut self, o: &Samples) {
        self.ops += o.ops;
        self.script_ns += o.script_ns;
        for (mine, theirs) in self.busy_ns.iter_mut().zip(o.busy_ns) {
            *mine += theirs;
        }
        for (mine, theirs) in [
            (&mut self.cycle, &o.cycle),
            (&mut self.label, &o.label),
            (&mut self.label_after_struct, &o.label_after_struct),
            (&mut self.update, &o.update),
            (&mut self.propagate, &o.propagate),
            (&mut self.reanchor, &o.reanchor),
            (&mut self.structural, &o.structural),
            (&mut self.mark, &o.mark),
            (&mut self.recontract, &o.recontract),
            (&mut self.reject, &o.reject),
            (&mut self.read_block, &o.read_block),
            (&mut self.query, &o.query),
            (&mut self.contract, &o.contract),
            (&mut self.resolve, &o.resolve),
        ] {
            mine.extend_from_slice(theirs);
        }
        self.probe_rounds += o.probe_rounds;
        self.probe_plan_ns += o.probe_plan_ns;
        self.probe_apply_ns += o.probe_apply_ns;
        self.probe_backsolve_ns += o.probe_backsolve_ns;
    }

    /// The faster half (by script time) of the `traced` passes, merged,
    /// and the median script time of those passes.
    fn faster_half(passes: &[Samples], traced: bool) -> (Samples, f64) {
        let mut chosen: Vec<&Samples> = passes.iter().filter(|s| s.traced == traced).collect();
        chosen.sort_by_key(|s| s.script_ns);
        chosen.truncate(chosen.len().div_ceil(2));
        let walls: Vec<u64> = chosen.iter().map(|s| s.script_ns).collect();
        let mut merged = Samples {
            traced,
            ..Samples::default()
        };
        for s in chosen {
            merged.absorb(s);
        }
        (merged, pct(&walls, 50.0))
    }
}

/// `UpdateStats` totals over the first pass.
#[derive(Debug, Default)]
struct Counters {
    struct_steps: u64,
    pending: u64,
    recontract_slots: u64,
    propagate_steps: u64,
    replayed: u64,
    reused: u64,
    propagate_rounds: u64,
    reanchors: u64,
}

/// Span recorder; records only while `on`.
struct Timeline {
    origin: Instant,
    on: bool,
    step: u64,
    spans: Vec<Span>,
}

impl Timeline {
    /// Records a step span and, as its children, the calls inside it.
    fn step(&mut self, name: &'static str, start: Instant, end: Instant, calls: &[Call]) {
        self.step += 1;
        if !self.on {
            return;
        }
        let parent = self.spans.len() as u64;
        self.push(None, "script", name, start, end, false);
        for &(call, from, to) in calls {
            self.push(Some(parent), layer_of(call), call, from, to, false);
        }
    }

    fn probe(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            self.push(None, layer_of(name), name, start, end, true);
        }
    }

    fn push(
        &mut self,
        parent: Option<u64>,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
        probe: bool,
    ) {
        self.spans.push(Span {
            id: self.spans.len() as u64,
            parent,
            step: self.step,
            layer,
            name,
            start_ns: ns(self.origin, start),
            end_ns: ns(self.origin, end),
            probe,
        });
    }
}

/// CPU time over stretches of cycles that ran with no check or probe in
/// between, against their wall time.
#[derive(Debug, Default)]
struct CpuClock {
    open: Option<(Instant, u64)>,
    wall_ns: u64,
    ticks: u64,
}

impl CpuClock {
    fn set_running(&mut self, running: bool) {
        match (running, self.open) {
            (true, None) => self.open = sys::cpu_ticks().map(|c| (Instant::now(), c)),
            (false, Some((start, ticks))) => {
                self.wall_ns += ns(start, Instant::now());
                self.ticks += sys::cpu_ticks().unwrap_or(ticks) - ticks;
                self.open = None;
            }
            _ => {}
        }
    }

    /// CPU seconds per wall second.
    fn cpu_per_wall(&self) -> f64 {
        let hz = sys::user_hz().unwrap_or(100) as f64;
        ratio(self.ticks as f64 / hz, self.wall_ns as f64 / 1e9)
    }
}

struct Exec<'s, A: BenchAlgebra> {
    w: &'s Workload,
    script: &'s Script,
    alg: A,
    d: DynForest<A>,
    shadow: Shadow,
    /// Cycles whose edits the shadow holds.
    synced: usize,
    timeline: Timeline,
    /// One entry per pass started; the last is the current pass.
    passes: Vec<Samples>,
    counters: Counters,
    attempted: u64,
    failed: u64,
    reads: Vec<Result<A::Val, QueryError>>,
}

/// Times one `DynForest::new` of the script's forest, for `setup_s`.
fn build<A: BenchAlgebra>(alg: &A, script: &Script, setup_ns: &mut Vec<u64>) -> DynForest<A> {
    let forest = script.forest.clone();
    let t0 = Instant::now();
    let d = DynForest::new(forest, alg.clone());
    setup_ns.push(ns(t0, Instant::now()));
    d
}

fn execute<A: BenchAlgebra>(alg: A, w: &Workload, script: &Script, settings: &Settings) -> Report {
    // A single build varies by ±25% and the host's speed drifts over
    // seconds, so set-up is timed before the loop and again between passes,
    // and its median spans the same stretch of time as the other metrics.
    let mut setup_ns = Vec::new();
    let d = build(&alg, script, &mut setup_ns);
    let mut x = Exec::new(alg, w, script, d);

    let p = w.pass_cycles;
    let min_cycles = if settings.trace { 2 * p } else { p };
    let budget = Duration::from_secs_f64(settings.seconds);
    let mut cpu = CpuClock::default();
    let start = Instant::now();
    let mut i = 0;
    loop {
        let pass = i / p;
        let traced = settings.trace && pass % 2 == 1;
        if i % p == 0 {
            if i > 0 {
                cpu.set_running(false);
                drop(build(&x.alg, script, &mut setup_ns));
            }
            x.passes.push(Samples {
                traced,
                ..Samples::default()
            });
        }
        let checkpoint = w.checkpoint(i);
        let cycle = &script.cycles[i % p];
        let probe = traced && (cycle.query.is_some() || checkpoint);
        cpu.set_running(!checkpoint && !probe);
        x.timeline.on = traced;
        if checkpoint {
            x.sync(i);
        }
        let answers = x.cycle(cycle, pass == 0, checkpoint);
        if checkpoint {
            x.synced = i + 1;
        }
        if probe {
            let batch = cycle.query.as_ref().unwrap_or(&script.probe_batch);
            let probed = x.probe(batch);
            match &answers {
                Some(script_answers) => x.failed += mismatches::<A>(batch, &probed, script_answers),
                None if checkpoint => x.verify_answers(batch, &probed),
                None => {}
            }
        }
        i += 1;
        if i >= min_cycles && start.elapsed() >= budget {
            break;
        }
    }
    cpu.set_running(false);
    x.sync(i);
    x.verify_final();
    // Only whole passes are compared.
    x.passes.truncate(i / p);
    x.report(i as u64, &setup_ns, cpu.cpu_per_wall(), settings.trace)
}

/// Answers that differ between two resolutions of `batch`.
fn mismatches<A: BenchAlgebra>(batch: &QueryBatch, a: &Answers<A>, b: &Answers<A>) -> u64 {
    match (a, b) {
        (Ok(a), Ok(b)) => a.iter().zip(b).filter(|(x, y)| x != y).count() as u64,
        _ if a == b => 0,
        _ => batch.len() as u64,
    }
}

impl<'s, A: BenchAlgebra> Exec<'s, A> {
    fn new(alg: A, w: &'s Workload, script: &'s Script, d: DynForest<A>) -> Self {
        Exec {
            w,
            script,
            alg,
            d,
            shadow: Shadow::of(&script.forest),
            synced: 0,
            timeline: Timeline {
                origin: Instant::now(),
                on: false,
                step: 0,
                spans: Vec::new(),
            },
            passes: Vec::new(),
            counters: Counters::default(),
            attempted: 0,
            failed: 0,
            reads: Vec::with_capacity(READS_PER_STEP),
        }
    }

    fn current(&mut self) -> &mut Samples {
        self.passes.last_mut().expect("a pass is always open")
    }

    /// Records a finished step: its span and calls on the timeline, and the
    /// calls' time against their layers.
    fn record(&mut self, step: &'static str, start: Instant, end: Instant, calls: &[Call]) {
        let s = self.current();
        for &(call, from, to) in calls {
            let layer = LAYERS
                .iter()
                .position(|&l| l == layer_of(call))
                .expect("every call enters a known layer");
            s.busy_ns[layer] += ns(from, to);
        }
        self.timeline.step(step, start, end, calls);
    }

    /// Folds the edits of every cycle before `upto` into the shadow.
    fn sync(&mut self, upto: usize) {
        let p = self.w.pass_cycles;
        for j in self.synced..upto {
            self.shadow.apply(&self.script.cycles[j % p]);
        }
        self.synced = upto;
    }

    /// Runs one cycle and returns the query step's answers. With `check`,
    /// each read step and the query step are checked against the oracle
    /// right after they return. The oracle's `O(n)` passes evict the
    /// library's data from cache between steps, so a checked cycle's
    /// timings are left out of the pass.
    fn cycle(&mut self, c: &Cycle, first_pass: bool, check: bool) -> Option<Answers<A>> {
        if check {
            self.passes.push(Samples::default());
        }
        let answers = self.timed_cycle(c, first_pass, check);
        if check {
            self.passes.pop();
        }
        answers
    }

    fn timed_cycle(&mut self, c: &Cycle, first_pass: bool, check: bool) -> Option<Answers<A>> {
        let start = Instant::now();
        let mut check_ns = 0;
        if let Some(step) = &c.structural {
            self.structural(step, first_pass);
            if check {
                self.shadow.apply_struct(step);
            }
            self.reject(step.reject);
        }
        for (j, step) in c.labels.iter().enumerate() {
            // The first label step after a structural one pays for the
            // structural edit too; it and its reads are timed apart.
            let settled = j > 0 || c.structural.is_none();
            self.label(step, first_pass, settled);
            self.read(step, settled);
            if check {
                let t0 = Instant::now();
                self.shadow.apply_labels(step);
                self.verify_reads(step);
                check_ns += ns(t0, Instant::now());
            }
        }
        let answers = c.query.as_ref().map(|batch| {
            let answers = self.query(batch);
            if check {
                let t0 = Instant::now();
                self.verify_answers(batch, &answers);
                check_ns += ns(t0, Instant::now());
            }
            answers
        });
        let script_ns = ns(start, Instant::now()) - check_ns;
        let ops = self.w.ops_per_cycle();
        let s = self.current();
        s.cycle.push(script_ns);
        s.script_ns += script_ns;
        s.ops += ops;
        answers
    }

    /// `struct(k)`: cut k nodes, link them elsewhere, recompute.
    fn structural(&mut self, step: &StructStep, first_pass: bool) {
        let t0 = Instant::now();
        let cut = self.d.try_batch_cut(&step.cuts);
        let t1 = Instant::now();
        let link = self.d.try_batch_link(&step.links);
        let t2 = Instant::now();
        let pending = self.d.pending();
        let stats = self.d.recompute();
        let t3 = Instant::now();
        self.record(
            "script.struct",
            t0,
            t3,
            &[
                ("dynamic.cut", t0, t1),
                ("dynamic.link", t1, t2),
                ("dynamic.recontract", t2, t3),
            ],
        );
        let s = self.current();
        s.structural.push(ns(t0, t3));
        s.mark.push(ns(t0, t2));
        s.recontract.push(ns(t2, t3));
        if first_pass {
            let c = &mut self.counters;
            c.struct_steps += 1;
            c.pending += pending as u64;
            c.recontract_slots += stats.replayed_slots as u64;
        }
        let k = step.cuts.len() as u64;
        self.attempted += 2 * k;
        self.failed += k * (u64::from(cut.is_err()) + u64::from(link.is_err()));
    }

    /// The invalid edit after a structural step: it must be refused with
    /// its documented error and leave `pending()` unchanged.
    fn reject(&mut self, reject: Reject) {
        let before = self.d.pending();
        let t0 = Instant::now();
        let outcome = match reject {
            Reject::CutRoot(root) => self.d.try_batch_cut(&[root]),
            Reject::LinkUnder { root, descendant } => self.d.try_batch_link(&[(root, descendant)]),
        };
        let t1 = Instant::now();
        self.record("script.reject", t0, t1, &[("dynamic.reject", t0, t1)]);
        self.current().reject.push(ns(t0, t1));
        let refused = match (reject, outcome) {
            (Reject::CutRoot(root), Err(EditError::AlreadyRoot { node })) => node == root,
            (
                Reject::LinkUnder { root, descendant },
                Err(EditError::WouldCycle { child, parent }),
            ) => child == root && parent == descendant,
            _ => false,
        };
        self.attempted += 1;
        self.failed += u64::from(!refused || self.d.pending() != before);
    }

    /// `label(b)`: update b weights, recompute.
    fn label(&mut self, step: &LabelStep, first_pass: bool, settled: bool) {
        let t0 = Instant::now();
        self.d.batch_update_weights(&step.updates);
        let t1 = Instant::now();
        let stats = self.d.recompute();
        let t2 = Instant::now();
        // A label batch that replayed every slot and reused none re-anchored
        // on a full contraction instead of propagating.
        let reanchor = stats.reused_slots == 0 && stats.replayed_slots == stats.total;
        let recompute = if reanchor {
            "engine.reanchor"
        } else {
            "propagate.recompute"
        };
        self.record(
            "script.label",
            t0,
            t2,
            &[("dynamic.update", t0, t1), (recompute, t1, t2)],
        );
        let s = self.current();
        if settled {
            s.label.push(ns(t0, t2));
        } else {
            s.label_after_struct.push(ns(t0, t2));
        }
        s.update.push(ns(t0, t1));
        if reanchor {
            s.reanchor.push(ns(t1, t2));
        } else {
            s.propagate.push(ns(t1, t2));
        }
        if first_pass {
            let c = &mut self.counters;
            if reanchor {
                c.reanchors += 1;
            } else {
                c.propagate_steps += 1;
                c.replayed += stats.replayed_slots as u64;
                c.reused += stats.reused_slots as u64;
                c.propagate_rounds += u64::from(stats.rounds);
            }
        }
        self.attempted += step.updates.len() as u64;
    }

    /// `read`: one `try_subtree_value` per pre-drawn node.
    fn read(&mut self, step: &LabelStep, settled: bool) {
        self.reads.clear();
        let t0 = Instant::now();
        for &v in &step.reads {
            self.reads.push(self.d.try_subtree_value(v));
        }
        let t1 = Instant::now();
        self.record("script.read", t0, t1, &[("dynamic.read", t0, t1)]);
        if settled {
            self.current().read_block.push(ns(t0, t1));
        }
        self.attempted += step.reads.len() as u64;
        self.failed += self.reads.iter().filter(|r| r.is_err()).count() as u64;
    }

    /// `query(q)`: one `DynForest::query_batch`.
    fn query(&mut self, batch: &QueryBatch) -> Answers<A> {
        let t0 = Instant::now();
        let answers = self.d.query_batch(batch);
        let t1 = Instant::now();
        self.record("script.query", t0, t1, &[("dynamic.query_batch", t0, t1)]);
        self.current().query.push(ns(t0, t1));
        self.attempted += batch.len() as u64;
        self.failed += match &answers {
            Ok(answers) => answers.iter().filter(|a| a.is_err()).count(),
            Err(_) => batch.len(),
        } as u64;
        answers
    }

    /// The traced run's probe, outside the script clock: a profiled full
    /// contraction of the current forest (the `engine` work inside
    /// `DynForest::query_batch`) and the resolution of `batch` on it (the
    /// `query` work).
    fn probe(&mut self, batch: &QueryBatch) -> Answers<A> {
        let forest = self.d.forest();
        let t0 = Instant::now();
        let c = forest.contraction().profiled().run(&self.alg);
        let t1 = Instant::now();
        let answers = c.query_batch(forest, &self.alg, batch);
        let t2 = Instant::now();
        self.timeline.probe("engine.contract", t0, t1);
        self.timeline.probe("query.resolve", t1, t2);
        let profile = c.profile().expect("a profiled run keeps its profile");
        let s = self.passes.last_mut().expect("a pass is always open");
        s.contract.push(ns(t0, t1));
        s.resolve.push(ns(t1, t2));
        s.probe_rounds += u64::from(c.rounds());
        s.probe_plan_ns += profile.phase_stats(Phase::Plan).total_ns();
        s.probe_apply_ns += profile.phase_stats(Phase::Apply).total_ns();
        s.probe_backsolve_ns += profile.phase_stats(Phase::Backsolve).total_ns();
        answers
    }

    /// Counts wrong values among the last read step's results. Errors were
    /// already counted when the reads returned.
    fn verify_reads(&mut self, step: &LabelStep) {
        let forest = self.d.forest();
        let oracle = Oracle::new(forest, &self.alg);
        let wrong = step
            .reads
            .iter()
            .zip(&self.reads)
            .filter(|&(&v, got)| matches!(got, Ok(val) if val != oracle.subtree(v)))
            .count();
        self.failed += (self.shadow.mismatches(forest) + wrong) as u64;
    }

    /// Counts wrong answers among `answers` to `batch`. Errors were already
    /// counted when the batch returned.
    fn verify_answers(&mut self, batch: &QueryBatch, answers: &Answers<A>) {
        let Ok(answers) = answers else {
            return;
        };
        let oracle = Oracle::new(self.d.forest(), &self.alg);
        let wrong = batch
            .queries()
            .iter()
            .zip(answers)
            .filter(|&(q, a)| matches!(a, Ok(answer) if *answer != oracle.answer(q)))
            .count();
        self.failed += wrong as u64;
    }

    /// Compares the final shape against the shadow and every node's value
    /// against the oracle.
    fn verify_final(&mut self) {
        let forest = self.d.forest();
        let oracle = Oracle::new(forest, &self.alg);
        let wrong = forest
            .node_ids()
            .filter(|&v| self.d.try_subtree_value(v).as_ref() != Ok(oracle.subtree(v)))
            .count();
        self.failed += (self.shadow.mismatches(forest) + wrong) as u64;
    }

    fn report(self, cycles: u64, setup_ns: &[u64], cpu_per_wall: f64, trace: bool) -> Report {
        let metric = |name, unit, value| Metric { name, unit, value };
        let (u, untraced_wall) = Samples::faster_half(&self.passes, false);
        let rss_mib = sys::peak_rss_kib().unwrap_or(0) as f64 / 1024.0;
        let end_to_end = vec![
            metric(
                "ops_per_s",
                "ops/s",
                ratio(u.ops as f64, u.script_ns as f64 / 1e9),
            ),
            metric("cycle_p50_ms", "ms", pct(&u.cycle, 50.0) / 1e6),
            metric("cycle_p90_ms", "ms", pct(&u.cycle, 90.0) / 1e6),
            metric(
                "read_p50_ns",
                "ns",
                pct(&u.read_block, 50.0) / READS_PER_STEP as f64,
            ),
            metric("setup_s", "s", pct(setup_ns, 50.0) / 1e9),
            metric("peak_rss_mb", "MB", rss_mib),
        ];

        let mut detail = Vec::new();
        let mut optional = |name, unit, samples: &[u64], q: f64, scale: f64| {
            if !samples.is_empty() {
                detail.push(metric(name, unit, pct(samples, q) / scale));
            }
        };
        optional("struct_batch_p50_ms", "ms", &u.structural, 50.0, 1e6);
        optional("struct_batch_p90_ms", "ms", &u.structural, 90.0, 1e6);
        optional("dynamic.mark_us_p50", "us", &u.mark, 50.0, 1e3);
        optional("dynamic.recontract_ms_p50", "ms", &u.recontract, 50.0, 1e6);
        optional("dynamic.recontract_ms_p90", "ms", &u.recontract, 90.0, 1e6);
        optional("dynamic.reject_us_p50", "us", &u.reject, 50.0, 1e3);
        optional("engine.reanchor_ms_p50", "ms", &u.reanchor, 50.0, 1e6);
        optional(
            "label_after_struct_p50_ms",
            "ms",
            &u.label_after_struct,
            50.0,
            1e6,
        );
        optional("query_batch_p50_ms", "ms", &u.query, 50.0, 1e6);
        optional("query_batch_p90_ms", "ms", &u.query, 90.0, 1e6);
        optional("label_batch_p50_ms", "ms", &u.label, 50.0, 1e6);
        optional("label_batch_p90_ms", "ms", &u.label, 90.0, 1e6);
        optional("label_batch_p99_ms", "ms", &u.label, 99.0, 1e6);
        detail.push(metric(
            "failed_frac",
            "fraction",
            ratio(self.failed as f64, self.attempted as f64),
        ));
        detail.push(metric("cycles", "count", cycles as f64));
        detail.push(metric("passes", "count", self.passes.len() as f64));

        let c = &self.counters;
        let counters = vec![
            ("dynamic.struct_steps", c.struct_steps),
            ("dynamic.pending_sum", c.pending),
            ("dynamic.recontract_slots_sum", c.recontract_slots),
            ("propagate.steps", c.propagate_steps),
            ("propagate.replayed_slots_sum", c.replayed),
            ("propagate.reused_slots_sum", c.reused),
            ("propagate.rounds_sum", c.propagate_rounds),
            ("engine.reanchors", c.reanchors),
        ];

        let mut per_layer = Vec::new();
        if trace {
            let (tr, traced_wall) = Samples::faster_half(&self.passes, true);
            let script_ns = tr.script_ns as f64;
            let share = |layer: usize| ratio(tr.busy_ns[layer] as f64, script_ns);
            let probes = tr.contract.len() as f64;
            let n = |v: u64| v as f64;
            per_layer = vec![
                metric("dynamic.update_us_p50", "us", pct(&tr.update, 50.0) / 1e3),
                metric(
                    "propagate.recompute_us_p50",
                    "us",
                    pct(&tr.propagate, 50.0) / 1e3,
                ),
                metric(
                    "propagate.recompute_us_p90",
                    "us",
                    pct(&tr.propagate, 90.0) / 1e3,
                ),
                metric(
                    "propagate.replayed_slots_mean",
                    "count",
                    ratio(n(c.replayed), n(c.propagate_steps)),
                ),
                metric(
                    "propagate.reuse_ratio",
                    "fraction",
                    ratio(n(c.reused), n(c.reused + c.replayed)),
                ),
                metric(
                    "propagate.rounds_mean",
                    "count",
                    ratio(n(c.propagate_rounds), n(c.propagate_steps)),
                ),
                metric(
                    "dynamic.pending_mean",
                    "count",
                    ratio(n(c.pending), n(c.struct_steps)),
                ),
                metric(
                    "dynamic.recontract_slots_mean",
                    "count",
                    ratio(n(c.recontract_slots), n(c.struct_steps)),
                ),
                metric("engine.reanchors", "count", n(c.reanchors)),
                metric(
                    "engine.contract_ms_p50",
                    "ms",
                    pct(&tr.contract, 50.0) / 1e6,
                ),
                metric(
                    "engine.rounds_mean",
                    "count",
                    ratio(n(tr.probe_rounds), probes),
                ),
                metric(
                    "engine.plan_ms_mean",
                    "ms",
                    ratio(n(tr.probe_plan_ns), probes) / 1e6,
                ),
                metric(
                    "engine.apply_ms_mean",
                    "ms",
                    ratio(n(tr.probe_apply_ns), probes) / 1e6,
                ),
                metric(
                    "engine.backsolve_ms_mean",
                    "ms",
                    ratio(n(tr.probe_backsolve_ns), probes) / 1e6,
                ),
                metric("query.resolve_ms_p50", "ms", pct(&tr.resolve, 50.0) / 1e6),
                metric("query.resolve_ms_p90", "ms", pct(&tr.resolve, 90.0) / 1e6),
                metric("par.cpu_per_wall", "ratio", cpu_per_wall),
                metric("dynamic.share", "fraction", share(0)),
                metric("propagate.share", "fraction", share(1)),
                metric("engine.share", "fraction", share(2)),
                metric(
                    "bench.unattributed_frac",
                    "fraction",
                    1.0 - share(0) - share(1) - share(2),
                ),
                metric(
                    "bench.trace_overhead_frac",
                    "fraction",
                    ratio(traced_wall, untraced_wall) - 1.0,
                ),
            ];
            for (layer, name) in ["dynamic.busy_s", "propagate.busy_s", "engine.busy_s"]
                .into_iter()
                .enumerate()
            {
                detail.push(metric(name, "s", tr.busy_ns[layer] as f64 / 1e9));
            }
        }

        Report {
            attempted: self.attempted,
            failed: self.failed,
            cycles,
            end_to_end,
            per_layer,
            detail,
            counters,
            spans: self.timeline.spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use dtc_core::Answer;

    #[test]
    fn smoke_runs_of_every_workload_pass() {
        for w in WORKLOADS.map(Workload::smoke) {
            for trace in [false, true] {
                let r = run(
                    &w,
                    &Settings {
                        seed: 42,
                        seconds: 0.0,
                        trace,
                    },
                );
                assert_eq!(r.failed, 0, "{} trace={trace}", w.name);
                assert_eq!(r.cycles as usize, w.pass_cycles * (1 + usize::from(trace)));
                assert_eq!(r.attempted, r.cycles * w.ops_per_cycle());
                assert_eq!(r.end_to_end.len(), 6);
                assert!(
                    r.end_to_end.iter().all(|m| m.value > 0.0),
                    "{:?}",
                    r.end_to_end
                );
                let counter = |name| r.counters.iter().find(|c| c.0 == name).unwrap().1;
                if w.struct_k > 0 {
                    assert_eq!(counter("dynamic.struct_steps"), w.pass_cycles as u64);
                    assert_eq!(counter("engine.reanchors"), w.pass_cycles as u64);
                }
                assert_eq!(r.per_layer.is_empty(), !trace);
                assert_eq!(r.spans.is_empty(), !trace);
                if trace {
                    assert!(r.spans.iter().any(|s| s.probe && s.name == "query.resolve"));
                    for s in r.spans.iter().filter(|s| s.parent.is_some()) {
                        let parent = &r.spans[s.parent.unwrap() as usize];
                        assert_eq!((parent.layer, parent.step), ("script", s.step));
                        assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
                    }
                }
            }
        }
    }

    #[test]
    fn both_rejected_edits_return_their_documented_errors() {
        let w = Workload::by_name("mixed-broom").unwrap().smoke();
        let script = script::generate(&w, 11);
        let mut d = DynForest::new(script.forest.clone(), MinMax);
        for cycle in &script.cycles[..2] {
            let step = cycle.structural.as_ref().unwrap();
            d.try_batch_cut(&step.cuts).unwrap();
            d.try_batch_link(&step.links).unwrap();
            d.recompute();
            match step.reject {
                Reject::CutRoot(root) => assert_eq!(
                    d.try_batch_cut(&[root]),
                    Err(EditError::AlreadyRoot { node: root })
                ),
                Reject::LinkUnder { root, descendant } => assert_eq!(
                    d.try_batch_link(&[(root, descendant)]),
                    Err(EditError::WouldCycle {
                        child: root,
                        parent: descendant
                    })
                ),
            }
            assert_eq!(d.pending(), 0);
        }
    }

    #[test]
    fn injected_wrong_answers_count_in_failed_frac() {
        let w = Workload::by_name("query-random").unwrap().smoke();
        let script = script::generate(&w, 5);
        let d = DynForest::new(script.forest.clone(), SubtreeSum);
        let mut x = Exec::new(SubtreeSum, &w, &script, d);
        x.passes.push(Samples::default());
        let cycle = &script.cycles[0];
        let batch = cycle.query.as_ref().unwrap();
        let mut answers = x.cycle(cycle, true, true).unwrap();
        assert_eq!(x.failed, 0);

        if let Ok(v) = &mut x.reads[0] {
            *v += 1;
        }
        x.verify_reads(cycle.labels.last().unwrap());
        assert_eq!(x.failed, 1, "a wrong read is a failure");
        let first = &mut answers.as_mut().unwrap()[0];
        let Ok(Answer::Value(v)) = *first else {
            panic!("the first query of a batch asks for a subtree value")
        };
        *first = Ok(Answer::Value(v + 1));
        x.verify_answers(batch, &answers);
        assert_eq!(x.failed, 2, "a wrong answer is a failure");

        let attempted = x.attempted as f64;
        let r = x.report(1, &[1], 1.0, false);
        let frac = r
            .detail
            .iter()
            .find(|m| m.name == "failed_frac")
            .unwrap()
            .value;
        assert_eq!(frac, 2.0 / attempted);
        assert!(!r.correct());
    }
}
