//! Records the compiler that builds the benchmark, for its provenance block.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .unwrap_or_default();
    println!("cargo:rustc-env=DTC_E2E_RUSTC={}", version.trim());
    println!("cargo:rerun-if-changed=build.rs");
}
