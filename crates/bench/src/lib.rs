//! A minimal Criterion-style benchmark harness.
//!
//! The container this repo builds in has no access to crates.io, so instead
//! of depending on `criterion` we ship a tiny harness with the features CI
//! and the perf-trajectory pipeline need:
//!
//! * timed runs with per-iteration setup (measured region excludes setup);
//! * a `--test` smoke mode (`cargo bench -- --test`) that runs every bench
//!   exactly once so benchmarks cannot bit-rot without failing CI;
//! * a `--json <path>` mode that serializes every benchmark record
//!   (min/p50/mean/p90/p99, iteration count, minor page faults per timed
//!   iteration on Linux, plus any attached engine counters) with the
//!   hand-rolled [`json`] writer — this is what emits the `BENCH_*.json`
//!   files recording the repo's perf trajectory.
//!
//! Unknown `--flags` are rejected with a clear error (exit code 2) rather
//! than silently ignored; cargo's own `--bench` passthrough is tolerated.

use std::cell::RefCell;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub mod json;

pub use json::Json;

/// Schema tag written into every `--json` record this harness emits.
///
/// `v2` extends `v1` with change-propagation slot counters
/// (`replayed_slots` / `reused_slots`) on batch-update records; readers
/// that tolerate missing keys can treat the two identically, which is why
/// [`parse_record`] accepts both.
pub const SCHEMA: &str = "dtc-bench/v2";

/// Schema tags [`parse_record`] accepts: the current version plus every
/// older version still present in the repo's perf-trajectory files.
pub const ACCEPTED_SCHEMAS: &[&str] = &["dtc-bench/v2", "dtc-bench/v1"];

/// Parses a `BENCH_*.json` perf record and validates its `schema` tag
/// against [`ACCEPTED_SCHEMAS`], so trajectory tooling fails loudly on a
/// record from an incompatible future format instead of misreading it.
pub fn parse_record(text: &str) -> Result<Json, String> {
    let doc = json::parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(tag) if ACCEPTED_SCHEMAS.contains(&tag) => Ok(doc),
        Some(tag) => Err(format!(
            "unsupported schema `{tag}` (accepted: {})",
            ACCEPTED_SCHEMAS.join(", ")
        )),
        None => Err("record has no `schema` string".to_string()),
    }
}

/// Target measured wall time per benchmark before reporting.
const TARGET_TIME: Duration = Duration::from_millis(500);
/// Iteration bounds per benchmark.
const MIN_ITERS: usize = 5;
const MAX_ITERS: usize = 200;

/// One finished benchmark, as recorded for `--json` output.
#[derive(Debug)]
struct Record {
    name: String,
    iters: usize,
    min_ns: u64,
    p50_ns: u64,
    mean_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
    max_ns: u64,
    /// Mean minor page faults per timed iteration; `None` off Linux.
    minor_faults: Option<f64>,
    extra: Vec<(String, Json)>,
}

/// Benchmark runner configured from the command line.
#[derive(Debug)]
pub struct Harness {
    test_mode: bool,
    /// Name filters; a bench runs when its name contains any of them, or
    /// when there are none.
    filters: Vec<String>,
    json_path: Option<PathBuf>,
    records: RefCell<Vec<Record>>,
    meta: RefCell<Vec<(String, Json)>>,
}

impl Harness {
    /// Parses command-line style arguments (without the binary name):
    ///
    /// * `--test` — smoke mode, every bench runs exactly once;
    /// * `--json <path>` (or `--json=<path>`) — write a machine-readable
    ///   record of every benchmark to `path` when [`Harness::finish`] runs;
    /// * `--bench` — ignored (cargo passes it to `harness = false` benches);
    /// * any other `--flag` — an error;
    /// * a bare word — substring filter on benchmark names; with several,
    ///   a benchmark runs when its name contains any of them.
    pub fn try_from_args<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut test_mode = false;
        let mut filters = Vec::new();
        let mut json_path = None;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--test" => test_mode = true,
                // Cargo invokes `harness = false` bench binaries with
                // `--bench`; tolerate it.
                "--bench" => {}
                "--json" => {
                    let path = it
                        .next()
                        .ok_or_else(|| "--json requires a path argument".to_string())?;
                    json_path = Some(PathBuf::from(path));
                }
                s if s.starts_with("--json=") => {
                    json_path = Some(PathBuf::from(&s["--json=".len()..]));
                }
                s if s.starts_with('-') => {
                    return Err(format!(
                        "unknown flag `{s}` (expected --test, --json <path>, \
                         or a benchmark name filter)"
                    ));
                }
                s => filters.push(s.to_string()),
            }
        }
        Ok(Harness {
            test_mode,
            filters,
            json_path,
            records: RefCell::new(Vec::new()),
            meta: RefCell::new(Vec::new()),
        })
    }

    /// Parses `std::env::args`, printing the error and exiting with status
    /// 2 on an unknown flag.
    pub fn from_env() -> Self {
        match Self::try_from_args(std::env::args().skip(1)) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("dtc-bench: {e}");
                std::process::exit(2);
            }
        }
    }

    /// `true` when running in `--test` smoke mode.
    pub fn is_test_mode(&self) -> bool {
        self.test_mode
    }

    fn skip(&self, name: &str) -> bool {
        !self.filters.is_empty() && !self.filters.iter().any(|f| name.contains(f.as_str()))
    }

    /// `true` when `name` passes the command-line filter; lets callers skip
    /// expensive non-bench work (e.g. profiled counter collection) for
    /// benches that will not run.
    pub fn selected(&self, name: &str) -> bool {
        !self.skip(name)
    }

    /// Runs one benchmark: `setup` builds fresh per-iteration state (not
    /// measured), `routine` is the measured region. The routine's output is
    /// returned from a black-box sink so the optimizer cannot discard it.
    pub fn bench<S, T>(
        &self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(&mut S) -> T,
    ) {
        if self.skip(name) {
            return;
        }
        if self.test_mode {
            let (elapsed, faults) = time_once(&mut setup, &mut routine);
            self.push_record(name, &mut [elapsed], faults);
            println!("test {name} ... ok");
            return;
        }

        // Warmup.
        for _ in 0..2 {
            time_once(&mut setup, &mut routine);
        }

        let mut samples: Vec<Duration> = Vec::new();
        let mut total = Duration::ZERO;
        let mut faults = Some(0);
        while samples.len() < MIN_ITERS || (total < TARGET_TIME && samples.len() < MAX_ITERS) {
            let (elapsed, taken) = time_once(&mut setup, &mut routine);
            samples.push(elapsed);
            total += elapsed;
            faults = faults.zip(taken).map(|(sum, f)| sum + f);
        }
        let rec = self.push_record(name, &mut samples, faults);
        let iters = samples.len() as f64;
        let faults = faults.map_or(String::new(), |f| {
            format!(" | {:.1} faults/iter", f as f64 / iters)
        });
        println!(
            "{name:<32} min {:>12} | median {:>12} | mean {:>12} | p99 {:>12} | {} iters{faults}",
            fmt_duration(Duration::from_nanos(rec.0)),
            fmt_duration(Duration::from_nanos(rec.1)),
            fmt_duration(Duration::from_nanos(rec.2)),
            fmt_duration(Duration::from_nanos(rec.3)),
            samples.len()
        );
    }

    /// Sorts `samples`, records percentiles and the mean of the `faults`
    /// the samples took in total, and returns `(min, p50, mean, p99)` in
    /// nanoseconds for display.
    fn push_record(
        &self,
        name: &str,
        samples: &mut [Duration],
        faults: Option<u64>,
    ) -> (u64, u64, u64, u64) {
        samples.sort_unstable();
        let ns = |d: Duration| d.as_nanos() as u64;
        let pct = |q: usize| ns(samples[(samples.len() - 1) * q / 100]);
        let total: Duration = samples.iter().sum();
        let mean_ns = ns(total) / samples.len() as u64;
        let rec = Record {
            name: name.to_string(),
            iters: samples.len(),
            min_ns: ns(samples[0]),
            p50_ns: pct(50),
            mean_ns,
            p90_ns: pct(90),
            p99_ns: pct(99),
            max_ns: ns(samples[samples.len() - 1]),
            minor_faults: faults.map(|f| f as f64 / samples.len() as f64),
            extra: Vec::new(),
        };
        let out = (rec.min_ns, rec.p50_ns, rec.mean_ns, rec.p99_ns);
        self.records.borrow_mut().push(rec);
        out
    }

    /// Attaches an extra key/value (e.g. engine counters) to the record of
    /// an already-run benchmark named `name`. No-op if the benchmark was
    /// filtered out.
    pub fn attach(&self, name: &str, key: &str, value: Json) {
        let mut records = self.records.borrow_mut();
        if let Some(rec) = records.iter_mut().find(|r| r.name == name) {
            rec.extra.push((key.to_string(), value));
        }
    }

    /// Attaches a document-level key/value to the `--json` output (next to
    /// `schema`/`mode`), e.g. build configuration that affects whether the
    /// numbers are comparable across records.
    pub fn meta(&self, key: &str, value: Json) {
        self.meta.borrow_mut().push((key.to_string(), value));
    }

    /// Writes the `--json` record file, if one was requested. Call once,
    /// after the last benchmark.
    ///
    /// # Panics
    /// Panics if the file cannot be written.
    pub fn finish(&self) {
        let Some(path) = &self.json_path else {
            return;
        };
        let path = resolve_output_path(path);
        let records = self.records.borrow();
        let benches: Vec<Json> = records
            .iter()
            .map(|r| {
                let mut members = vec![
                    ("name".to_string(), Json::str(r.name.as_str())),
                    ("iters".to_string(), Json::num(r.iters as u32)),
                    ("min_ns".to_string(), Json::Num(r.min_ns as f64)),
                    ("p50_ns".to_string(), Json::Num(r.p50_ns as f64)),
                    ("mean_ns".to_string(), Json::Num(r.mean_ns as f64)),
                    ("p90_ns".to_string(), Json::Num(r.p90_ns as f64)),
                    ("p99_ns".to_string(), Json::Num(r.p99_ns as f64)),
                    ("max_ns".to_string(), Json::Num(r.max_ns as f64)),
                ];
                if let Some(f) = r.minor_faults {
                    members.push(("minor_faults".to_string(), Json::Num(f)));
                }
                members.extend(r.extra.iter().cloned());
                Json::Obj(members)
            })
            .collect();
        let unix_time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut members = vec![
            ("schema".to_string(), Json::str(SCHEMA)),
            (
                "mode".to_string(),
                Json::str(if self.test_mode { "test" } else { "bench" }),
            ),
            ("unix_time_s".to_string(), Json::Num(unix_time as f64)),
        ];
        members.extend(self.meta.borrow().iter().cloned());
        members.push(("benches".to_string(), Json::Arr(benches)));
        let doc = Json::Obj(members);
        std::fs::write(&path, doc.to_string_pretty())
            .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
        println!("wrote benchmark record to {}", path.display());
    }
}

/// Anchors a relative `--json` path at the workspace root.
///
/// Cargo runs `harness = false` bench binaries with the *package*
/// directory as cwd, not the directory `cargo bench` was invoked from, so
/// a bare `--json BENCH_contract.json` would land in `crates/bench/`. The
/// outermost ancestor directory containing a `Cargo.toml` is the workspace
/// root; anchoring there makes the output location predictable. Absolute
/// paths are used as-is.
fn resolve_output_path(path: &std::path::Path) -> PathBuf {
    if path.is_absolute() {
        return path.to_path_buf();
    }
    let Ok(cwd) = std::env::current_dir() else {
        return path.to_path_buf();
    };
    let mut root = cwd.as_path();
    for anc in cwd.ancestors() {
        if anc.join("Cargo.toml").is_file() {
            root = anc;
        }
    }
    root.join(path)
}

/// Runs `routine` once on fresh state from `setup`, and returns its wall
/// time and the minor page faults it took. The fault count is read on both
/// sides of the timed region, outside it.
fn time_once<S, T>(
    setup: &mut impl FnMut() -> S,
    routine: &mut impl FnMut(&mut S) -> T,
) -> (Duration, Option<u64>) {
    let mut state = setup();
    let before = minor_faults();
    let start = Instant::now();
    let out = routine(&mut state);
    let elapsed = start.elapsed();
    let after = minor_faults();
    std::hint::black_box(&out);
    (elapsed, after.zip(before).map(|(a, b)| a - b))
}

/// The minor page faults this process has taken, from `/proc/self/stat`.
/// The read fills a stack buffer and allocates nothing, so it takes no
/// fault of its own on the heap. `None` when the file cannot be read.
#[cfg(target_os = "linux")]
fn minor_faults() -> Option<u64> {
    use std::io::Read;
    let mut file = std::fs::File::open("/proc/self/stat").ok()?;
    let (mut buf, mut len) = ([0u8; 1024], 0);
    // A read may stop short; a full buffer reads 0 and ends the loop.
    loop {
        match file.read(&mut buf[len..]).ok()? {
            0 => break,
            n => len += n,
        }
    }
    let stat = std::str::from_utf8(&buf[..len]).ok()?;
    // `minflt` is field 10; the command name, field 2, is parenthesised
    // and may hold spaces, so count from the last `)`: the eighth field
    // after it.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_ascii_whitespace().nth(7)?.parse().ok()
}

/// Page faults are read from Linux's `/proc` only.
#[cfg(not(target_os = "linux"))]
fn minor_faults() -> Option<u64> {
    None
}

impl Default for Harness {
    fn default() -> Self {
        Harness::from_env()
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn fmt_picks_sensible_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }

    #[test]
    fn parses_known_flags_and_filter() {
        let h = Harness::try_from_args(args(&["--bench", "--test", "contract"])).unwrap();
        assert!(h.is_test_mode());
        assert!(h.selected("contract/star_100k"));
        assert!(!h.selected("dynamic/batch_cut"));

        // Several words select every bench that contains any of them.
        let h = Harness::try_from_args(args(&["batch_cut_1k", "contract/"])).unwrap();
        assert!(h.selected("contract/star_100k"));
        assert!(h.selected("batch_cut_1k_minmax/star_100k"));
        assert!(!h.selected("batch_update_1k/star_100k"));

        let h = Harness::try_from_args(args(&["--bench"])).unwrap();
        assert!(
            h.selected("batch_update_1k/star_100k"),
            "no filter selects all"
        );

        let h = Harness::try_from_args(args(&["--json", "/tmp/x.json"])).unwrap();
        assert_eq!(
            h.json_path.as_deref(),
            Some(std::path::Path::new("/tmp/x.json"))
        );
        let h = Harness::try_from_args(args(&["--json=/tmp/y.json"])).unwrap();
        assert_eq!(
            h.json_path.as_deref(),
            Some(std::path::Path::new("/tmp/y.json"))
        );
    }

    #[test]
    fn rejects_unknown_flags() {
        let err = Harness::try_from_args(args(&["--wat"])).unwrap_err();
        assert!(err.contains("--wat"), "error should name the flag: {err}");
        let err = Harness::try_from_args(args(&["--json"])).unwrap_err();
        assert!(err.contains("path"), "error should explain --json: {err}");
    }

    #[test]
    fn json_output_parses_back() {
        let path =
            std::env::temp_dir().join(format!("dtc_bench_smoke_{}.json", std::process::id()));
        let h = Harness::try_from_args(args(&["--test", "--json", &path.display().to_string()]))
            .unwrap();
        h.bench(
            "smoke/a",
            || 0u64,
            |x| {
                *x += 1;
                *x
            },
        );
        h.attach(
            "smoke/a",
            "counters",
            Json::Obj(vec![("rounds".to_string(), Json::num(3u32))]),
        );
        // Attaching to a filtered-out/unknown bench is a silent no-op.
        h.attach("smoke/missing", "counters", Json::Null);
        h.meta("check", Json::Bool(false));
        h.finish();

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let doc = parse_record(&text).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(doc.get("mode").unwrap().as_str(), Some("test"));
        assert_eq!(doc.get("check"), Some(&Json::Bool(false)));
        let benches = doc.get("benches").unwrap().as_arr().unwrap();
        assert_eq!(benches.len(), 1);
        let rec = &benches[0];
        assert_eq!(rec.get("name").unwrap().as_str(), Some("smoke/a"));
        assert_eq!(rec.get("iters").unwrap().as_num(), Some(1.0));
        assert!(rec.get("p99_ns").unwrap().as_num().is_some());
        let faults = rec.get("minor_faults").and_then(Json::as_num);
        assert_eq!(faults.is_some(), cfg!(target_os = "linux"));
        let counters = rec.get("counters").unwrap();
        assert_eq!(counters.get("rounds").unwrap().as_num(), Some(3.0));
    }

    #[test]
    fn parse_record_accepts_v1_and_rejects_unknown_schemas() {
        // v1 records from earlier in the perf trajectory must stay readable.
        let v1 = r#"{ "schema": "dtc-bench/v1", "benches": [] }"#;
        assert!(parse_record(v1).is_ok());
        let v2 = r#"{ "schema": "dtc-bench/v2", "benches": [] }"#;
        assert!(parse_record(v2).is_ok());

        let future = r#"{ "schema": "dtc-bench/v9", "benches": [] }"#;
        let err = parse_record(future).unwrap_err();
        assert!(err.contains("dtc-bench/v9"), "error names the tag: {err}");
        let missing = r#"{ "benches": [] }"#;
        assert!(parse_record(missing).is_err());
    }
}
