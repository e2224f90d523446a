//! Runs the end-to-end benchmark.
//!
//! ```text
//! dtc-e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!         [--json PATH] [--spans PATH] [--smoke]
//! ```
//!
//! With `--workload`, runs that workload and prints a summary, then, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics, or with
//! `--trace 1` the per-layer ones. Without it, runs every workload in a
//! child process of its own, so peak memory is measured per workload;
//! `--json` and `--spans` paths then get the workload name inserted before
//! their extension.

use dtc_e2e::run::{self, Report};
use dtc_e2e::workload::{Workload, WORKLOADS};
use dtc_e2e::{compact, document, per_workload_path, result_line, run_record, Args};
use std::process::{exit, Command};

fn main() {
    // The `check` feature's per-round sweeps and conflict detector turn every
    // contraction into a validation run; its numbers are not comparable.
    if dtc_core::check::enabled() {
        eprintln!(
            "dtc-e2e: dtc-core was built with the `check` feature; \
             refusing to record benchmark numbers from an instrumented engine"
        );
        exit(2);
    }
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("dtc-e2e: {e}");
        exit(2);
    });
    let ok = match args.workload {
        Some(w) => run_one(&w, &args),
        None => run_all(&args),
    };
    if !ok {
        exit(1);
    }
}

/// Runs one workload in this process. Returns `false` if an output file
/// could not be written.
fn run_one(w: &Workload, args: &Args) -> bool {
    let w = if args.smoke { w.smoke() } else { *w };
    let report = run::run(&w, &args.settings());
    print_summary(&w, &report);
    let mut ok = true;
    if let Some(path) = &args.json {
        let doc = document(vec![run_record(&w, args, &report)]);
        ok &= write(path, &doc.to_string_pretty());
    }
    if let Some(path) = &args.spans {
        ok &= write(path, &dtc_e2e::spans_json(&report.spans));
    }
    println!("{}", compact(&result_line(&report, args.trace)));
    ok
}

fn write(path: &std::path::Path, text: &str) -> bool {
    match std::fs::write(path, text) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("dtc-e2e: cannot write {}: {e}", path.display());
            false
        }
    }
}

fn print_summary(w: &Workload, r: &Report) {
    println!(
        "{}: {} cycles, {} ops attempted, {} failed",
        w.name, r.cycles, r.attempted, r.failed
    );
    let sections = [
        ("end-to-end", &r.end_to_end),
        ("per-layer", &r.per_layer),
        ("detail", &r.detail),
    ];
    for (title, metrics) in sections {
        if !metrics.is_empty() {
            println!("  {title}:");
        }
        for m in metrics {
            println!("    {:<32} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    println!("  counters (first pass):");
    for (name, v) in &r.counters {
        println!("    {name:<32} {v:>14}");
    }
}

/// Runs every workload in its own child process. Returns `false` if any
/// child crashed or reported a failure.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("dtc-e2e: cannot locate own executable: {e}");
        exit(2);
    });
    let mut all_ok = true;
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        if let Some(path) = &args.json {
            cmd.arg("--json").arg(per_workload_path(path, w.name));
        }
        if let Some(path) = &args.spans {
            cmd.arg("--spans").arg(per_workload_path(path, w.name));
        }
        let out = cmd.output();
        let stdout = out
            .as_ref()
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
            .unwrap_or_default();
        print!("{stdout}");
        let result = stdout
            .lines()
            .last()
            .and_then(|l| dtc_bench::json::parse(l).ok());
        let correct = result
            .as_ref()
            .and_then(|r| r.get("correct"))
            .is_some_and(|c| *c == dtc_bench::Json::Bool(true));
        match &out {
            Ok(o) if o.status.success() && result.is_some() => {}
            _ => {
                eprintln!(
                    "dtc-e2e: workload {} crashed ({:?})",
                    w.name,
                    out.map(|o| o.status)
                );
                // A crashed workload counts as entirely failed.
                if let Some(path) = &args.json {
                    let doc = document(vec![dtc_e2e::crashed_record(&w, args)]);
                    write(&per_workload_path(path, w.name), &doc.to_string_pretty());
                }
            }
        }
        all_ok &= correct;
    }
    println!(
        "dtc-e2e: {} workloads, {}",
        WORKLOADS.len(),
        if all_ok { "all correct" } else { "FAILURES" }
    );
    all_ok
}
