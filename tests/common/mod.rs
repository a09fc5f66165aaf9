//! Helpers shared by the suites that drive the `chls` binary.

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
