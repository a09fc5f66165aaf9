//! Helpers shared by the suites that drive the `chls` binary or sweep
//! the example corpus. Each suite uses only some of them.
#![allow(dead_code)]

use std::path::PathBuf;
use std::process::Command;
use std::sync::Once;

/// The release `chls` binary, built once via the `cargo` that launched
/// the test when it is missing.
pub fn chls_bin() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let bin = root.join("target/release/chls");
    static BUILD: Once = Once::new();
    BUILD.call_once(|| {
        if !bin.exists() {
            let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
            let status = Command::new(cargo)
                .args(["build", "--release", "-p", "chls", "--bins"])
                .current_dir(&root)
                .status()
                .expect("spawn cargo build");
            assert!(status.success(), "building the chls binary failed");
        }
    });
    bin
}

/// Every `.chl` under `examples/chl` with its entry: `main`, or the file
/// stem for the software corpus. Paths are relative to the package root.
pub fn corpus() -> Vec<(String, String)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for sub in ["examples/chl", "examples/chl/flow", "examples/chl/software"] {
        for e in std::fs::read_dir(root.join(sub)).expect("corpus dir") {
            let p = e.expect("dir entry").path();
            if p.extension().is_some_and(|x| x == "chl") {
                let stem = p.file_stem().unwrap().to_string_lossy().into_owned();
                let entry = if sub.ends_with("software") {
                    stem
                } else {
                    "main".to_string()
                };
                out.push((
                    format!("{sub}/{}", p.file_name().unwrap().to_string_lossy()),
                    entry,
                ));
            }
        }
    }
    out.sort();
    out
}
