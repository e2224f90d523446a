//! `dtc-e2e`: an end-to-end benchmark of `dtc-core` as a caller sees it.
//!
//! A run replays a pre-generated script of structural edits, label edits,
//! recomputes, reads and query batches against a `DynForest`, timing only
//! the calls into the library's public API and checking outputs against an
//! oracle outside the clock. See `README.md` for the workloads, metrics
//! and how to compare two commits with `bench-diff`.

pub mod diff;
pub mod oracle;
pub mod run;
pub mod script;
pub mod stats;
pub mod sys;
pub mod workload;

use dtc_bench::Json;
use run::{Metric, Report, Settings, Span};
use std::path::{Path, PathBuf};
use std::process::Command;
use workload::Workload;

/// Schema tag of the result documents `--json` writes.
pub const SCHEMA: &str = "dtc-e2e/v1";

/// Command-line options of the `dtc-e2e` binary.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Run only this workload; all of them (one child process each) when
    /// `None`.
    pub workload: Option<Workload>,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured loop, in seconds.
    pub seconds: f64,
    /// Run traced and report per-layer metrics.
    pub trace: bool,
    /// Write the full result document here.
    pub json: Option<PathBuf>,
    /// Write the traced passes' spans here.
    pub spans: Option<PathBuf>,
    /// Smoke scale: 1k nodes, one pass of 4 cycles, every other cycle
    /// checked.
    pub smoke: bool,
}

const USAGE: &str = "usage: dtc-e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--json PATH] [--spans PATH] [--smoke]";

impl Args {
    /// Parses arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: 42,
            seconds: 20.0,
            trace: false,
            json: None,
            spans: None,
            smoke: false,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                out.smoke = true;
                continue;
            }
            let value = match flag.as_str() {
                "--workload" | "--seed" | "--seconds" | "--trace" | "--json" | "--spans" => it
                    .next()
                    .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?,
                _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
            };
            let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => {
                    out.workload = Some(Workload::by_name(&value).ok_or_else(|| {
                        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                        bad(&format!("expected one of {}", names.join(", ")))
                    })?);
                }
                "--seed" => {
                    out.seed = value
                        .parse()
                        .map_err(|_| bad("expected an unsigned integer"))?
                }
                "--seconds" => {
                    out.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && (0.0..=3600.0).contains(s))
                        .ok_or_else(|| bad("expected seconds between 0 and 3600"))?;
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    }
                }
                "--json" => out.json = Some(PathBuf::from(value)),
                _ => out.spans = Some(PathBuf::from(value)),
            }
        }
        Ok(out)
    }

    /// The settings a run of `self` uses. A smoke run stops after its
    /// minimum of cycles.
    pub fn settings(&self) -> Settings {
        Settings {
            seed: self.seed,
            seconds: if self.smoke { 0.0 } else { self.seconds },
            trace: self.trace,
        }
    }
}

/// Where a per-workload file goes when one path names the output of every
/// workload: `out.json` becomes `out.<workload>.json`.
pub fn per_workload_path(path: &Path, workload: &str) -> PathBuf {
    let stem = path
        .file_stem()
        .map_or_else(String::new, |s| s.to_string_lossy().into_owned());
    let name = match path.extension() {
        Some(ext) => format!("{stem}.{workload}.{}", ext.to_string_lossy()),
        None => format!("{stem}.{workload}"),
    };
    path.with_file_name(name)
}

/// Git revision of the repository the benchmark is built from, and whether
/// its tracked files have changes; `None` outside a git checkout. The
/// search for a repository stops at the repository root.
fn git_state() -> Option<(String, bool)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?;
    let git = |args: &[&str]| {
        let mut cmd = Command::new("git");
        cmd.arg("-C").arg(root).args(args);
        if let Some(ceiling) = root.parent() {
            cmd.env("GIT_CEILING_DIRECTORIES", ceiling);
        }
        let out = cmd.output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"])?;
    let dirty = !git(&["status", "--porcelain", "--untracked-files=no"])?.is_empty();
    Some((rev, dirty))
}

/// Where and how a result was produced: git revision with a dirty flag,
/// compiler, core count, engine features, seed, workload parameters and
/// `USER_HZ`.
pub fn provenance(w: &Workload, args: &Args) -> Json {
    let (rev, dirty) = match git_state() {
        Some((rev, dirty)) => (Json::str(rev), Json::Bool(dirty)),
        None => (Json::Null, Json::Null),
    };
    let features = if cfg!(feature = "parallel") {
        vec![Json::str("parallel")]
    } else {
        Vec::new()
    };
    let settings = args.settings();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let field = |k: &str, v: Json| (k.to_string(), v);
    Json::Obj(vec![
        field("git_rev", rev),
        field("git_dirty", dirty),
        field("rustc", Json::str(env!("DTC_E2E_RUSTC"))),
        field("available_parallelism", Json::Num(cores as f64)),
        field("features", Json::Arr(features)),
        field("check", Json::Bool(dtc_core::check::enabled())),
        field("seed", Json::Num(args.seed as f64)),
        field("seconds", Json::Num(settings.seconds)),
        field("trace", Json::Bool(args.trace)),
        field("smoke", Json::Bool(args.smoke)),
        field("workload", w.params_json()),
        field(
            "user_hz",
            sys::user_hz().map_or(Json::Null, |hz| Json::Num(hz as f64)),
        ),
        field("os", Json::str(std::env::consts::OS)),
        field("arch", Json::str(std::env::consts::ARCH)),
    ])
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let body = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::str(m.unit)),
                ];
                (m.name.to_string(), Json::Obj(body))
            })
            .collect(),
    )
}

/// Single-line JSON.
pub fn compact(value: &Json) -> String {
    fn write(value: &Json, out: &mut String) {
        match value {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write(item, out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, item)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(Json::str(key.as_str()).to_string_pretty().trim_end());
                    out.push_str(": ");
                    write(item, out);
                }
                out.push('}');
            }
            leaf => out.push_str(leaf.to_string_pretty().trim_end()),
        }
    }
    let mut out = String::new();
    write(value, &mut out);
    out
}

/// The result line: `correct`, `attempted`, `failed`, and the end-to-end
/// metrics, or the per-layer metrics of a traced run.
pub fn result_line(report: &Report, trace: bool) -> Json {
    let metrics = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(report.correct())),
        ("attempted".to_string(), Json::Num(report.attempted as f64)),
        ("failed".to_string(), Json::Num(report.failed as f64)),
        ("metrics".to_string(), metrics_json(metrics)),
    ])
}

/// One workload's entry in a result document.
pub fn run_record(w: &Workload, args: &Args, report: &Report) -> Json {
    let counters = report
        .counters
        .iter()
        .map(|&(name, v)| (name.to_string(), Json::Num(v as f64)))
        .collect();
    Json::Obj(vec![
        ("workload".to_string(), Json::str(w.name)),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("correct".to_string(), Json::Bool(report.correct())),
        ("attempted".to_string(), Json::Num(report.attempted as f64)),
        ("failed".to_string(), Json::Num(report.failed as f64)),
        ("metrics".to_string(), metrics_json(&report.end_to_end)),
        ("per_layer".to_string(), metrics_json(&report.per_layer)),
        ("detail".to_string(), metrics_json(&report.detail)),
        ("counters".to_string(), Json::Obj(counters)),
        ("provenance".to_string(), provenance(w, args)),
    ])
}

/// A result document holding `runs`.
pub fn document(runs: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("schema".to_string(), Json::str(SCHEMA)),
        ("runs".to_string(), Json::Arr(runs)),
    ])
}

/// The record of a workload whose child process crashed: one attempted
/// operation, failed.
pub fn crashed_record(w: &Workload, args: &Args) -> Json {
    let report = Report {
        attempted: 1,
        failed: 1,
        cycles: 0,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        detail: Vec::new(),
        counters: Vec::new(),
        spans: Vec::new(),
    };
    run_record(w, args, &report)
}

/// The traced passes' spans, one object per line.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let span = Json::Obj(vec![
            ("id".to_string(), Json::Num(s.id as f64)),
            (
                "parent".to_string(),
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("step".to_string(), Json::Num(s.step as f64)),
            ("layer".to_string(), Json::str(s.layer)),
            ("name".to_string(), Json::str(s.name)),
            ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
            ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
            ("probe".to_string(), Json::Bool(s.probe)),
        ]);
        out.push_str(&compact(&span));
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_arguments() {
        let a = args(&[
            "--workload",
            "mixed-broom",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.map(|w| w.name), Some("mixed-broom"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        let a = args(&["--smoke", "--json", "out.json"]).unwrap();
        assert!(a.smoke && a.workload.is_none());
        assert_eq!(a.settings().seconds, 0.0);
        assert_eq!(a.json.as_deref(), Some(Path::new("out.json")));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seed", "-1"],
            &["--seconds", "NaN"],
            &["--seconds"],
            &["--wat"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn per_workload_paths_keep_the_extension() {
        assert_eq!(
            per_workload_path(Path::new("res/out.json"), "query-random"),
            Path::new("res/out.query-random.json")
        );
        assert_eq!(
            per_workload_path(Path::new("spans"), "a"),
            Path::new("spans.a")
        );
    }

    /// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
    fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        let list = spec.get(key).and_then(Json::as_arr).unwrap();
        list.iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn result_lines_carry_exactly_the_listed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = dtc_bench::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let workloads = spec.get("workloads").and_then(Json::as_arr).unwrap();
        for (listed_w, w) in workloads.iter().zip(workload::WORKLOADS) {
            assert_eq!(listed_w.get("name").and_then(Json::as_str), Some(w.name));
            assert_eq!(listed_w.get("why").and_then(Json::as_str), Some(w.why));
        }
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let w = workload::WORKLOADS[0].smoke();
            let report = run::run(
                &w,
                &Settings {
                    seed: 1,
                    seconds: 0.0,
                    trace,
                },
            );
            let Json::Obj(metrics) = result_line(&report, trace).get("metrics").unwrap().clone()
            else {
                panic!("metrics is an object")
            };
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(emitted, listed(&spec, key), "{key}");
        }
    }

    #[test]
    fn compact_output_is_one_line_and_parses_back() {
        let doc = Json::Obj(vec![
            (
                "a".to_string(),
                Json::Arr(vec![Json::Num(1.25), Json::str("x\ny")]),
            ),
            ("b".to_string(), Json::Obj(vec![])),
            ("c".to_string(), Json::Null),
        ]);
        let line = compact(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(dtc_bench::json::parse(&line).unwrap(), doc);
    }
}
