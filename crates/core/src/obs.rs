//! Observability: phase spans, per-round counters, and latency histograms.
//!
//! The contraction engine is a *complexity claim* — `O(polylog)` rounds,
//! dirty work proportional to the batch — and this module is how the claim
//! becomes a number. The engine (and the batch-dynamic layer above it)
//! reports into a statically-dispatched sink:
//!
//! * **Phase spans** — wall time of each [`Phase`] (`Plan`, `Apply`,
//!   `Backsolve`, `DirtyMark`, `Propagate`, `Restructure`), one span per
//!   occurrence;
//! * **Per-round counters** — one record per rake/compress round: live
//!   frontier size, rakes, splices, finishes, and coin rejections (splice
//!   candidates that lost the randomized coin toss). A structure phase
//!   reports one record per round it re-decides, its frontier being the
//!   nodes it re-decided and its actions theirs.
//!
//! Dispatch is static: the engine is generic over its sink type and every
//! instrumentation site is guarded by the sink's associated constant
//! `S::ENABLED`. For the no-op sink of an unprofiled run (`ENABLED =
//! false`) the guards are constant-false branches the optimizer deletes,
//! so the default, unobserved build pays nothing — no timestamps, no
//! counter arithmetic.
//!
//! [`Profile`] is the one public sink: it aggregates spans into
//! log-bucketed latency histograms (hand-rolled HDR-style, ~3% relative
//! resolution, p50/p90/p99) and rounds into per-round-index totals, and is
//! what [`ContractOptions::profiled`](crate::ContractOptions::profiled) and
//! [`DynForest::enable_profiling`](crate::DynForest::enable_profiling)
//! attach.
//!
//! ```
//! use dtc_core::obs::Phase;
//! use dtc_core::{gen, SubtreeSum};
//!
//! let f = gen::random_tree(1_000, 42);
//! let c = f.contraction().seed(0xC0FFEE).profiled().run(&SubtreeSum);
//! let prof = c.profile().unwrap();
//! assert_eq!(prof.totals().retired(), 1_000); // every node died exactly once
//! assert!(prof.phase_stats(Phase::Plan).spans() >= 1);
//! println!("{prof}");
//! ```

use std::fmt;

/// Engine phase a span is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Per-round read-only planning (action selection).
    Plan,
    /// Per-round action application (rake/splice/finish execution).
    Apply,
    /// Reverse replay of the death trace recovering per-node values.
    Backsolve,
    /// A batch edit: applying its cuts, links or labels and marking the
    /// edited nodes (each marks only the nodes it names).
    DirtyMark,
    /// Trace replay performed by change propagation (affected-slot
    /// scheduling plus per-slot re-execution).
    Propagate,
    /// The structure phase of a recompute after cuts or links: re-deciding
    /// the nodes whose round state the batch disturbed, patching the trace
    /// records and lists they own, and laying out afresh the child
    /// aggregates of the parents they touched.
    Restructure,
}

impl Phase {
    /// Number of distinct phases.
    pub const COUNT: usize = 6;

    /// All phases, in display order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Plan,
        Phase::Apply,
        Phase::Backsolve,
        Phase::DirtyMark,
        Phase::Propagate,
        Phase::Restructure,
    ];

    /// Dense index, `0..Phase::COUNT`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name (used in reports and JSON records).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::Apply => "apply",
            Phase::Backsolve => "backsolve",
            Phase::DirtyMark => "dirty_mark",
            Phase::Propagate => "propagate",
            Phase::Restructure => "restructure",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Counters for one rake/compress round, emitted after its apply phase.
///
/// Conservation invariant (tested through [`RoundAgg`]): every action
/// retires exactly one node, so `rakes + splices + finishes` equals the
/// frontier shrinkage from this round to the next, and their sum over all
/// rounds equals the number of nodes contracted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RoundCounters {
    /// Round number (1-based).
    pub round: u32,
    /// Live nodes at the start of the round.
    pub frontier: usize,
    /// Childless non-roots folded into their parents.
    pub rakes: u32,
    /// Unary nodes spliced out of chains.
    pub splices: u32,
    /// Childless roots retired with their component value.
    pub finishes: u32,
    /// Splice candidates (unary non-root parent with a grandparent) that
    /// failed the heads/tails coin condition this round.
    pub coin_rejections: u32,
}

/// Whole-run counter totals, as carried by
/// [`UpdateStats::counters`](crate::UpdateStats::counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineCounters {
    /// Rounds the run took.
    pub rounds: u32,
    /// Total rake actions.
    pub rakes: u64,
    /// Total splice (compress) actions.
    pub splices: u64,
    /// Total finished roots.
    pub finishes: u64,
    /// Total coin rejections across rounds.
    pub coin_rejections: u64,
    /// Largest round-start frontier observed.
    pub max_frontier: usize,
}

impl EngineCounters {
    /// Nodes retired over the whole run; equals the node count.
    #[inline]
    pub fn retired(&self) -> u64 {
        self.rakes + self.splices + self.finishes
    }

    /// Folds one round's counters into the totals.
    #[inline]
    pub(crate) fn absorb_round(&mut self, rc: &RoundCounters) {
        self.rounds = self.rounds.max(rc.round);
        self.rakes += rc.rakes as u64;
        self.splices += rc.splices as u64;
        self.finishes += rc.finishes as u64;
        self.coin_rejections += rc.coin_rejections as u64;
        self.max_frontier = self.max_frontier.max(rc.frontier);
    }
}

impl fmt::Display for EngineCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds, {} retired ({} rakes, {} splices, {} finishes), \
             {} coin rejections, peak frontier {}",
            self.rounds,
            self.retired(),
            self.rakes,
            self.splices,
            self.finishes,
            self.coin_rejections,
            self.max_frontier
        )
    }
}

/// Receiver for engine telemetry, statically dispatched.
///
/// All instrumentation sites in the engine are guarded by
/// [`Sink::ENABLED`]; it is `true` (the default) for [`Profile`], and the
/// engine will time phases and count actions before calling in. A sink with
/// `ENABLED = false` (like [`NoopSink`]) promises it ignores everything,
/// letting the engine compile all instrumentation out.
pub(crate) trait Sink {
    /// Whether the engine should collect telemetry at all.
    const ENABLED: bool = true;

    /// One completed span of `phase`, lasting `nanos` nanoseconds.
    fn phase(&mut self, phase: Phase, nanos: u64);

    /// Counters for one completed round.
    fn round(&mut self, counters: &RoundCounters);
}

/// The do-nothing sink; `ENABLED = false` compiles all telemetry out.
pub(crate) struct NoopSink;

impl Sink for NoopSink {
    const ENABLED: bool = false;

    #[inline]
    fn phase(&mut self, _phase: Phase, _nanos: u64) {}

    #[inline]
    fn round(&mut self, _counters: &RoundCounters) {}
}

/// Number of linear sub-buckets per power of two (2⁵ = 32): worst-case
/// relative bucket width, and thus percentile resolution, is 1/32 ≈ 3%.
const SUB_BITS: u32 = 5;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Values `0..SUB_BUCKETS` get exact buckets; each of the remaining
/// `64 - SUB_BITS` octaves of `u64` gets `SUB_BUCKETS` buckets.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_BUCKETS as usize;

/// Log-bucketed latency histogram in the HDR-histogram style, hand-rolled
/// so the crate stays dependency-free.
///
/// Values below 32 are recorded exactly; larger values land in one of 32
/// linear sub-buckets of their power-of-two octave, bounding relative error
/// at ~3% (percentiles report the bucket midpoint, halving that again).
///
/// ```
/// use dtc_core::obs::LatencyHistogram;
/// let mut h = LatencyHistogram::default();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// assert_eq!(h.min(), 1);
/// assert_eq!(h.max(), 1000);
/// let p50 = h.percentile(50.0) as f64;
/// assert!((p50 - 500.0).abs() / 500.0 < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index for `v`: identity below `SUB_BUCKETS`, then
/// `(octave, top SUB_BITS mantissa bits)`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (v >> shift) & (SUB_BUCKETS - 1);
    (((msb - SUB_BITS + 1) as u64) * SUB_BUCKETS + sub) as usize
}

/// Smallest value mapping to bucket `i` (inverse of [`bucket_index`]).
#[inline]
fn bucket_low(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_BUCKETS {
        return i;
    }
    let octave = (i >> SUB_BITS) - 1;
    let sub = i & (SUB_BUCKETS - 1);
    (SUB_BUCKETS + sub) << octave
}

impl LatencyHistogram {
    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (exact); 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (exact); 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values; 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Value at percentile `q` (e.g. `50.0`, `99.0`), reported as the
    /// midpoint of the bucket holding the rank — exact for values below 32,
    /// within ~1.6% above. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 100.0);
        let target = ((q / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                let low = bucket_low(i);
                let width = if i + 1 < BUCKETS {
                    bucket_low(i + 1) - low
                } else {
                    1
                };
                // Midpoint, clamped to the recorded range so tails of wide
                // buckets never report beyond the true extremes.
                return (low + (width - 1) / 2).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Aggregated span statistics for one [`Phase`].
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    hist: LatencyHistogram,
}

impl PhaseStats {
    /// Number of spans recorded.
    pub fn spans(&self) -> u64 {
        self.hist.count()
    }

    /// Total nanoseconds across all spans.
    pub fn total_ns(&self) -> u64 {
        self.hist.sum()
    }

    /// Median span latency in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.hist.percentile(50.0)
    }

    /// 90th-percentile span latency in nanoseconds.
    pub fn p90_ns(&self) -> u64 {
        self.hist.percentile(90.0)
    }

    /// 99th-percentile span latency in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.hist.percentile(99.0)
    }

    /// The underlying latency histogram.
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.hist
    }
}

/// Per-round-index totals, aggregated across every run a [`Profile`] saw.
///
/// For a single contraction this is exactly that run's counters for the
/// round; across several runs (e.g. repeated [`recompute`] calls) counters
/// are summed and `runs` says how many runs reached this round.
///
/// [`recompute`]: crate::DynForest::recompute
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundAgg {
    /// Runs that executed this round.
    pub runs: u64,
    /// Summed round-start frontier sizes.
    pub frontier: u64,
    /// Summed rake actions.
    pub rakes: u64,
    /// Summed splice actions.
    pub splices: u64,
    /// Summed finished roots.
    pub finishes: u64,
    /// Summed coin rejections.
    pub coin_rejections: u64,
}

impl RoundAgg {
    /// Nodes retired in this round across all runs.
    #[inline]
    pub fn retired(&self) -> u64 {
        self.rakes + self.splices + self.finishes
    }
}

/// The telemetry collector: aggregates phase spans into latency histograms
/// and round counters into per-round totals.
///
/// Attach one with
/// [`ContractOptions::profiled`](crate::ContractOptions::profiled) or
/// [`DynForest::enable_profiling`](crate::DynForest::enable_profiling).
/// `Display` renders the full report.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    phases: [PhaseStats; Phase::COUNT],
    rounds: Vec<RoundAgg>,
    runs: u64,
    totals: EngineCounters,
}

impl Profile {
    /// Runs observed: a run is one contraction of a whole forest, or one
    /// structure phase of a [`recompute`](crate::DynForest::recompute),
    /// each reporting its rounds from round 1. Tell them apart by their
    /// spans: a contraction records `plan`/`apply`, a structure phase
    /// `restructure`.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Span statistics for `phase`.
    pub fn phase_stats(&self, phase: Phase) -> &PhaseStats {
        &self.phases[phase.index()]
    }

    /// Per-round totals, indexed by round (entry 0 = round 1); its length
    /// is the deepest round any observed run reached.
    pub fn per_round(&self) -> &[RoundAgg] {
        &self.rounds
    }

    /// Counter totals across all observed runs.
    pub fn totals(&self) -> EngineCounters {
        self.totals
    }
}

impl Sink for Profile {
    fn phase(&mut self, phase: Phase, nanos: u64) {
        self.phases[phase.index()].hist.record(nanos);
    }

    fn round(&mut self, c: &RoundCounters) {
        if c.round == 1 {
            self.runs += 1;
        }
        let idx = (c.round.max(1) - 1) as usize;
        if self.rounds.len() <= idx {
            self.rounds.resize_with(idx + 1, RoundAgg::default);
        }
        let agg = &mut self.rounds[idx];
        agg.runs += 1;
        agg.frontier += c.frontier as u64;
        agg.rakes += c.rakes as u64;
        agg.splices += c.splices as u64;
        agg.finishes += c.finishes as u64;
        agg.coin_rejections += c.coin_rejections as u64;
        self.totals.absorb_round(c);
    }
}

/// Formats nanoseconds with a sensible unit.
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "profile: {} run(s), deepest {} rounds — {}",
            self.runs, self.totals.rounds, self.totals
        )?;
        writeln!(
            f,
            "{:<12} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "phase", "spans", "total", "p50", "p90", "p99"
        )?;
        for phase in Phase::ALL {
            let s = self.phase_stats(phase);
            if s.spans() == 0 {
                continue;
            }
            writeln!(
                f,
                "{:<12} {:>8} {:>12} {:>12} {:>12} {:>12}",
                phase.name(),
                s.spans(),
                fmt_ns(s.total_ns()),
                fmt_ns(s.p50_ns()),
                fmt_ns(s.p90_ns()),
                fmt_ns(s.p99_ns()),
            )?;
        }
        writeln!(
            f,
            "{:<6} {:>6} {:>12} {:>10} {:>10} {:>10} {:>10}",
            "round", "runs", "frontier", "rakes", "splices", "finishes", "rejects"
        )?;
        for (i, r) in self.rounds.iter().enumerate() {
            writeln!(
                f,
                "{:<6} {:>6} {:>12} {:>10} {:>10} {:>10} {:>10}",
                i + 1,
                r.runs,
                r.frontier,
                r.rakes,
                r.splices,
                r.finishes,
                r.coin_rejections
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_low_are_inverse_and_monotone() {
        let mut prev = None;
        for i in 0..BUCKETS {
            let low = bucket_low(i);
            assert_eq!(bucket_index(low), i, "bucket_low({i}) = {low}");
            if let Some(p) = prev {
                assert!(low > p, "bucket lows must be strictly increasing");
            }
            prev = Some(low);
        }
        // Every value maps into range, including extremes.
        for v in [0u64, 1, 31, 32, 33, 1000, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < BUCKETS);
            assert!(bucket_low(i) <= v);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(31);
        assert_eq!(h.percentile(50.0), 10);
        assert_eq!(h.percentile(99.0), 10);
        assert_eq!(h.percentile(100.0), 31);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.percentile(50.0), 0);
    }

    #[test]
    fn profile_counts_runs_by_round_one() {
        let mut p = Profile::default();
        for run in 0..3 {
            for round in 1..=(run + 2) {
                p.round(&RoundCounters {
                    round,
                    frontier: 10,
                    rakes: 1,
                    ..Default::default()
                });
            }
        }
        assert_eq!(p.runs(), 3);
        assert_eq!(p.per_round().len(), 4);
        assert_eq!(p.per_round()[0].runs, 3);
        assert_eq!(p.per_round()[3].runs, 1);
        assert_eq!(p.totals().rakes, 2 + 3 + 4);
    }
}
