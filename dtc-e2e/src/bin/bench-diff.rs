//! Compares `dtc-e2e` result documents of two commits against the bounds in
//! `BENCHMARK.json`; exits 1 on a regression.
//!
//! ```text
//! bench-diff [--benchmark PATH] OLD_RESULT... -- NEW_RESULT...
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dtc_e2e::diff::main_with(&args) {
        Ok(outcome) => {
            print!("{}", outcome.text);
            if outcome.regression {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("bench-diff: {e}");
            std::process::exit(2);
        }
    }
}
