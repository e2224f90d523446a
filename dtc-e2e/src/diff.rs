//! `bench-diff`: compares the result documents of two commits.
//!
//! For every workload and end-to-end metric of `BENCHMARK.json` it reports
//! each side's median and quartiles, the ratio new/old, and a verdict:
//!
//! * **unresolved** — either side's quartile spread exceeds the metric's
//!   bound, unless every new run beats every old run (then **better**);
//! * **regression** — the new median is worse than the old by more than the
//!   bound;
//! * **better** — the new median is better by more than the old side's
//!   quartile spread, and the new run wins at least 90% of old/new pairs;
//! * **unchanged** — otherwise.
//!
//! Counters that repeat exactly for a fixed seed are compared exactly
//! between runs of the same workload and seed; a difference is reported as
//! a behaviour change. New failures count as a regression.

use crate::stats::quartiles;
use dtc_bench::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How far an end-to-end metric may worsen, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Metric unit.
    pub unit: String,
    /// `true` for `"better": "lower"`.
    pub lower_is_better: bool,
    /// Allowed worsening, as a share of the old median.
    pub bound: f64,
}

/// The workload names (in order) and end-to-end bounds of a
/// `BENCHMARK.json` text.
pub fn benchmark_spec(text: &str) -> Result<(Vec<String>, Vec<Bound>), String> {
    let doc = json::parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))
    };
    let text_of = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json entry lacks `{key}`"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| text_of(w, "name"))
        .collect::<Result<_, _>>()?;
    let bounds = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: text_of(m, "name")?,
                unit: text_of(m, "unit")?,
                lower_is_better: text_of(m, "better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::as_num)
                    .ok_or("BENCHMARK.json metric lacks `bound`")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((workloads, bounds))
}

/// One workload's result, as read back from a result document.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Seed of the run's inputs.
    pub seed: u64,
    /// Whether the run was traced.
    pub trace: bool,
    /// Failed operations.
    pub failed: u64,
    /// End-to-end metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Seed-deterministic counters by name.
    pub counters: BTreeMap<String, f64>,
}

/// The runs of one result document.
pub fn read_runs(text: &str) -> Result<Vec<RunRecord>, String> {
    let doc = json::parse(text)?;
    if doc.get("schema").and_then(Json::as_str) != Some(crate::SCHEMA) {
        return Err(format!("not a {} result document", crate::SCHEMA));
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("document has no `runs`")?;
    runs.iter()
        .map(|r| {
            let num = |key: &str| {
                r.get(key)
                    .and_then(Json::as_num)
                    .ok_or(format!("run lacks `{key}`"))
            };
            let members = |key: &str, inner: Option<&str>| -> BTreeMap<String, f64> {
                match r.get(key) {
                    Some(Json::Obj(members)) => members
                        .iter()
                        .filter_map(|(k, v)| {
                            let v = match inner {
                                Some(field) => v.get(field)?,
                                None => v,
                            };
                            Some((k.clone(), v.as_num()?))
                        })
                        .collect(),
                    _ => BTreeMap::new(),
                }
            };
            let correct = r.get("correct") == Some(&Json::Bool(true));
            Ok(RunRecord {
                workload: r
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or("run lacks `workload`")?
                    .to_string(),
                seed: num("seed")? as u64,
                trace: r.get("trace") == Some(&Json::Bool(true)),
                // A run that is not correct has failed, whatever it counted.
                failed: (num("failed")? as u64).max(u64::from(!correct)),
                metrics: members("metrics", Some("value")),
                counters: members("counters", None),
            })
        })
        .collect()
}

/// Outcome of comparing one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond the noise.
    Better,
    /// Within the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regression,
    /// Too noisy to tell at this bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Verdict on one metric's old and new values (each non-empty).
pub fn verdict(old: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (q1o, mo, q3o) = quartiles(old);
    let (q1n, mn, q3n) = quartiles(new);
    // `a` reads better than `b`.
    let beats = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let share = |d: f64, base: f64| {
        if base == 0.0 {
            f64::INFINITY
        } else {
            (d / base).abs()
        }
    };
    let old_spread = share(q3o - q1o, mo);
    let spread = old_spread.max(share(q3n - q1n, mn));
    let worsening = if beats(mo, mn) {
        share(mn - mo, mo)
    } else {
        -share(mn - mo, mo)
    };
    let pairs = (old.len() * new.len()) as f64;
    let wins = new
        .iter()
        .map(|&n| old.iter().filter(|&&o| beats(n, o)).count())
        .sum::<usize>() as f64;
    if spread > bound {
        if wins == pairs {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound {
        Verdict::Regression
    } else if -worsening > old_spread && wins >= 0.9 * pairs {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// A rendered comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The report to print.
    pub text: String,
    /// `true` when a metric regressed or new runs failed.
    pub regression: bool,
}

/// Compares `old` and `new` runs workload by workload.
pub fn compare(
    workloads: &[String],
    bounds: &[Bound],
    old: &[RunRecord],
    new: &[RunRecord],
) -> Outcome {
    let mut text = String::new();
    let mut regression = false;
    let untraced = |runs: &[RunRecord], w: &str| -> Vec<RunRecord> {
        runs.iter()
            .filter(|r| r.workload == w && !r.trace)
            .cloned()
            .collect()
    };
    let _ = writeln!(
        text,
        "{:<14} {:<20} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "new/old", "bound"
    );
    for w in workloads {
        let (o, n) = (untraced(old, w), untraced(new, w));
        if o.is_empty() || n.is_empty() {
            let _ = writeln!(
                text,
                "{w:<14} no untraced runs on {} side",
                if o.is_empty() { "the old" } else { "the new" }
            );
            continue;
        }
        for b in bounds {
            let values = |runs: &[RunRecord]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&b.name).copied())
                    .collect()
            };
            let (ov, nv) = (values(&o), values(&n));
            if ov.is_empty() || nv.is_empty() {
                let _ = writeln!(text, "{w:<14} {:<20} missing", b.name);
                continue;
            }
            let v = verdict(&ov, &nv, b.lower_is_better, b.bound);
            regression |= v == Verdict::Regression;
            let fmt = |vals: &[f64]| {
                let (q1, m, q3) = quartiles(vals);
                format!("{m:.4} [{q1:.4}, {q3:.4}]")
            };
            let _ = writeln!(
                text,
                "{w:<14} {:<20} {:>30} {:>30} {:>8.3} {:>5.0}%  {} ({} old, {} new runs; {})",
                b.name,
                fmt(&ov),
                fmt(&nv),
                quartiles(&nv).1 / quartiles(&ov).1,
                b.bound * 100.0,
                v.label(),
                ov.len(),
                nv.len(),
                b.unit
            );
        }
    }

    // Failures and seed-deterministic counters, over every run.
    let mut keys: Vec<(&str, u64)> = old
        .iter()
        .chain(new)
        .map(|r| (r.workload.as_str(), r.seed))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let mut changed = 0;
    for (w, seed) in keys {
        let pick = |runs: &[RunRecord]| -> Vec<RunRecord> {
            runs.iter()
                .filter(|r| r.workload == w && r.seed == seed)
                .cloned()
                .collect()
        };
        let (o, n) = (pick(old), pick(new));
        let failed: u64 = n.iter().map(|r| r.failed).sum();
        if failed > 0 {
            regression = true;
            let _ = writeln!(
                text,
                "{w} seed {seed}: {failed} failed operations in the new runs"
            );
        }
        let Some(base) = o.first().or(n.first()) else {
            continue;
        };
        for r in o.iter().chain(&n) {
            for (name, v) in &r.counters {
                let expected = base.counters.get(name);
                if expected != Some(v) {
                    changed += 1;
                    let _ = writeln!(
                        text,
                        "{w} seed {seed}: behaviour changed: counter {name} {} -> {v}",
                        expected.map_or("missing".to_string(), |e| e.to_string())
                    );
                }
            }
        }
    }
    if changed == 0 {
        let _ = writeln!(text, "deterministic counters: all match");
    }
    let _ = writeln!(
        text,
        "{}",
        if regression {
            "result: REGRESSION"
        } else {
            "result: no regression"
        }
    );
    Outcome { text, regression }
}

/// Runs `bench-diff [--benchmark PATH] OLD... -- NEW...`.
pub fn main_with(args: &[String]) -> Result<Outcome, String> {
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut sides: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    let mut side = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--benchmark" => benchmark = it.next().ok_or("--benchmark needs a path")?.clone(),
            "--" if side == 0 => side = 1,
            a if a.starts_with("--") => return Err(format!("unknown flag `{a}`")),
            path => sides[side].push(path.to_string()),
        }
    }
    if sides.iter().any(Vec::is_empty) {
        return Err(
            "usage: bench-diff [--benchmark PATH] OLD_RESULT... -- NEW_RESULT...".to_string(),
        );
    }
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let (workloads, bounds) =
        benchmark_spec(&read(&benchmark)?).map_err(|e| format!("{benchmark}: {e}"))?;
    let load = |paths: &[String]| -> Result<Vec<RunRecord>, String> {
        let mut runs = Vec::new();
        for p in paths {
            runs.extend(read_runs(&read(p)?).map_err(|e| format!("{p}: {e}"))?);
        }
        Ok(runs)
    };
    Ok(compare(
        &workloads,
        &bounds,
        &load(&sides[0])?,
        &load(&sides[1])?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
      "workloads": [{"name": "w", "why": "test"}],
      "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1}
      ]
    }"#;

    /// A result document with one untraced run of workload `w`.
    fn doc(seed: u64, latency: f64, ops: f64, reanchors: u64, failed: u64) -> String {
        format!(
            r#"{{"schema": "dtc-e2e/v1", "runs": [{{"workload": "w", "seed": {seed}, "trace": false,
               "correct": {}, "attempted": 100, "failed": {failed},
               "metrics": {{"latency_ms": {{"value": {latency}, "unit": "ms"}},
                            "ops_per_s": {{"value": {ops}, "unit": "ops/s"}}}},
               "counters": {{"engine.reanchors": {reanchors}}}}}]}}"#,
            failed == 0
        )
    }

    fn side(dir: &std::path::Path, name: &str, docs: &[String]) -> Vec<String> {
        docs.iter()
            .enumerate()
            .map(|(i, d)| {
                let path = dir.join(format!("{name}{i}.json"));
                std::fs::write(&path, d).unwrap();
                path.display().to_string()
            })
            .collect()
    }

    /// Runs the binary's entry point on synthetic result files.
    fn diff(old: &[String], new: &[String]) -> Outcome {
        let dir = std::env::temp_dir().join(format!(
            "bench-diff-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("BENCHMARK.json");
        std::fs::write(&spec, SPEC).unwrap();
        let mut args = vec!["--benchmark".to_string(), spec.display().to_string()];
        args.extend(side(&dir, "old", old));
        args.push("--".to_string());
        args.extend(side(&dir, "new", new));
        let out = main_with(&args).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        out
    }

    fn runs(latencies: &[f64], ops: f64) -> Vec<String> {
        latencies.iter().map(|&l| doc(42, l, ops, 400, 0)).collect()
    }

    #[test]
    fn identical_sides_are_unchanged() {
        let base = runs(&[10.0, 10.1, 10.2, 9.9, 10.0], 1000.0);
        let out = diff(&base, &base);
        assert!(!out.regression, "{}", out.text);
        assert_eq!(out.text.matches("unchanged").count(), 2, "{}", out.text);
        assert!(out.text.contains("deterministic counters: all match"));
    }

    #[test]
    fn a_slower_side_is_a_regression() {
        let old = runs(&[10.0, 10.1, 10.2, 9.9, 10.0], 1000.0);
        let new = runs(&[12.0, 12.1, 12.2, 11.9, 12.0], 1000.0);
        let out = diff(&old, &new);
        assert!(out.regression, "{}", out.text);
        assert!(out.text.contains("REGRESSION"));
        // Higher-is-better metrics regress downwards.
        let out = diff(&runs(&[10.0; 5], 1000.0), &runs(&[10.0; 5], 800.0));
        assert!(out.regression, "{}", out.text);
    }

    #[test]
    fn a_faster_side_is_better_and_noise_is_unresolved() {
        let old = runs(&[10.0, 10.1, 10.2, 9.9, 10.0], 1000.0);
        let new = runs(&[9.0, 9.1, 9.2, 8.9, 9.0], 1000.0);
        let out = diff(&old, &new);
        assert!(!out.regression);
        assert!(out.text.contains("better"), "{}", out.text);
        let noisy = runs(&[5.0, 15.0, 10.0, 20.0, 8.0], 1000.0);
        let out = diff(&old, &noisy);
        assert!(out.text.contains("unresolved"), "{}", out.text);
    }

    #[test]
    fn counter_changes_and_failures_are_flagged() {
        let old = runs(&[10.0; 3], 1000.0);
        let new: Vec<String> = (0..3).map(|_| doc(42, 10.0, 1000.0, 401, 0)).collect();
        let out = diff(&old, &new);
        assert!(
            out.text
                .contains("behaviour changed: counter engine.reanchors 400 -> 401"),
            "{}",
            out.text
        );
        let failing = vec![doc(42, 10.0, 1000.0, 400, 3)];
        let out = diff(&old, &failing);
        assert!(out.regression);
        assert!(out.text.contains("3 failed operations"), "{}", out.text);
    }

    #[test]
    fn reads_the_repository_benchmark_spec() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let (workloads, bounds) = benchmark_spec(&text).unwrap();
        let names: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, names);
        assert!(bounds.iter().any(|b| b.name == "setup_s"));
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }
}
