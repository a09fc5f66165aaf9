//! The paper's evidence reproduces from the code: every report binary,
//! run again, prints exactly the output captured in `results/`. Only
//! wall-clock columns (`time (us)`, in exp12) are masked.
//!
//! After a deliberate change to an experiment, capture it again with
//! `cargo run --release -p chls-bench --bin <name> > results/<name>.txt`.

use std::path::Path;
use std::process::Command;

/// Every report binary, with the path Cargo built it at.
const BINS: [(&str, &str); 13] = [
    ("abl_pipeline", env!("CARGO_BIN_EXE_abl_pipeline")),
    ("exp01_taxonomy", env!("CARGO_BIN_EXE_exp01_taxonomy")),
    ("exp02_concurrency", env!("CARGO_BIN_EXE_exp02_concurrency")),
    ("exp03_ilp_limits", env!("CARGO_BIN_EXE_exp03_ilp_limits")),
    ("exp04_pipelining", env!("CARGO_BIN_EXE_exp04_pipelining")),
    (
        "exp05_handel_fusion",
        env!("CARGO_BIN_EXE_exp05_handel_fusion"),
    ),
    (
        "exp06_transmogrifier_unroll",
        env!("CARGO_BIN_EXE_exp06_transmogrifier_unroll"),
    ),
    (
        "exp07_cones_explosion",
        env!("CARGO_BIN_EXE_exp07_cones_explosion"),
    ),
    ("exp08_bitwidth", env!("CARGO_BIN_EXE_exp08_bitwidth")),
    (
        "exp09_memory_partition",
        env!("CARGO_BIN_EXE_exp09_memory_partition"),
    ),
    ("exp10_dse_pareto", env!("CARGO_BIN_EXE_exp10_dse_pareto")),
    (
        "exp11_async_vs_sync",
        env!("CARGO_BIN_EXE_exp11_async_vs_sync"),
    ),
    (
        "exp12_pointer_analysis",
        env!("CARGO_BIN_EXE_exp12_pointer_analysis"),
    ),
];

/// Replaces every cell of a table column headed `time (us)` with `#`.
fn mask_timings(text: &str) -> String {
    let mut column: Option<usize> = None;
    let lines: Vec<String> = text
        .lines()
        .map(|line| {
            if !line.starts_with('|') {
                column = None;
                return line.to_string();
            }
            let mut cells: Vec<&str> = line.split('|').collect();
            if column.is_none() {
                column = cells.iter().position(|c| c.trim() == "time (us)");
            }
            if let Some(i) = column {
                cells[i] = "#";
            }
            cells.join("|")
        })
        .collect();
    lines.join("\n")
}

#[test]
fn masking_touches_only_the_time_column() {
    let table = "E\n| n | time (us) |\n|---|-----------|\n| 2 | 30        |\n\n| time |\n| 5 |";
    assert_eq!(
        mask_timings(table),
        "E\n| n |#|\n|---|#|\n| 2 |#|\n\n| time |\n| 5 |"
    );
}

#[test]
fn every_report_binary_reproduces_its_captured_result() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut captured: Vec<String> = std::fs::read_dir(&results)
        .expect("results/ exists")
        .filter_map(|e| {
            let name = e
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned();
            name.strip_suffix(".txt").map(str::to_string)
        })
        .collect();
    captured.sort();
    let names: Vec<&str> = BINS.iter().map(|(name, _)| *name).collect();
    assert_eq!(captured, names, "results/ and the report binaries disagree");

    let mut stale = Vec::new();
    for (name, bin) in BINS {
        let out = Command::new(bin).output().expect("the report binary runs");
        assert!(
            out.status.success(),
            "{name} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = mask_timings(&String::from_utf8(out.stdout).expect("UTF-8 output"));
        let want = std::fs::read_to_string(results.join(format!("{name}.txt"))).expect("readable");
        let want = mask_timings(&want);
        if let Some((line, (g, w))) = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
        {
            stale.push(format!(
                "{name}.txt line {}:\n  got  {g}\n  want {w}",
                line + 1
            ));
        } else if got.lines().count() != want.lines().count() {
            stale.push(format!(
                "{name}.txt: {} lines, captured {}",
                got.lines().count(),
                want.lines().count()
            ));
        }
    }
    assert!(stale.is_empty(), "stale results:\n{}", stale.join("\n"));
}
