//! The backend registry — the paper's Table 1, executable.

use chls_backends::{
    Backend, BackendInfo, C2Verilog, Cash, Cones, Cyber, HandelC, HardwareC, Transmogrifier,
};

/// All implemented backends, in the paper's chronological order.
pub fn backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(Cones),
        Box::new(HardwareC),
        Box::new(Transmogrifier),
        Box::new(C2Verilog),
        Box::new(Cyber),
        Box::new(HandelC),
        Box::new(Cash),
    ]
}

/// Looks up a backend by its short name.
pub fn backend_by_name(name: &str) -> Option<Box<dyn Backend>> {
    backends().into_iter().find(|b| b.info().name == name)
}

/// Metadata rows for the Table 1 systems that are not separate compiler
/// backends: the structural libraries (executable here as
/// `chls_rtl::builder`) and SpecC, whose refinement *methodology* has no
/// compilation rule of its own — its synthesizable subset is the union of
/// features other rows execute (explicit concurrency and channels as in
/// `handelc`, scheduled sequential behaviors as in `hardwarec`/`c2v`).
pub fn structural_rows() -> Vec<BackendInfo> {
    use chls_backends::{ConcurrencyModel, TimingModel};
    vec![
        BackendInfo {
            name: "ocapi (chls_rtl::builder)",
            models: "Ocapi (IMEC) / PDL++ / structural SystemC",
            year: 1998,
            comment: "Algorithmic structural descriptions",
            concurrency: ConcurrencyModel::Structural,
            timing: TimingModel::ExplicitStates,
            pointers: false,
            data_dependent_loops: true,
            parallel_constructs: true,
            reads_pipeline: false,
            reads_narrow: false,
        },
        BackendInfo {
            name: "specc (methodology)",
            models: "SpecC (Gajski/Doemer)",
            year: 1997,
            comment: "Refinement-based; subset = par/channels + scheduled behaviors",
            concurrency: ConcurrencyModel::Explicit,
            timing: TimingModel::ExplicitStates,
            pointers: false,
            data_dependent_loops: true,
            parallel_constructs: true,
            reads_pipeline: false,
            reads_narrow: false,
        },
    ]
}

/// Regenerates the paper's Table 1 as a formatted text table, one row per
/// modeled language/compiler, from live backend metadata.
pub fn taxonomy_table() -> String {
    let mut rows: Vec<(u16, String)> = Vec::new();
    for b in backends() {
        let i = b.info();
        rows.push((
            i.year,
            format!(
                "| {:<14} | {:<44} | {:<4} | {:<24} | {:<40} | {:<8} | {:<5} | {:<3} |",
                i.name,
                i.models,
                i.year,
                i.concurrency.to_string(),
                i.timing.to_string(),
                if i.pointers { "yes" } else { "no" },
                if i.data_dependent_loops { "yes" } else { "no" },
                if i.parallel_constructs { "yes" } else { "no" },
            ),
        ));
    }
    for i in structural_rows() {
        rows.push((
            i.year,
            format!(
                "| {:<14} | {:<44} | {:<4} | {:<24} | {:<40} | {:<8} | {:<5} | {:<3} |",
                i.name,
                i.models,
                i.year,
                i.concurrency.to_string(),
                i.timing.to_string(),
                if i.pointers { "yes" } else { "no" },
                if i.data_dependent_loops { "yes" } else { "no" },
                if i.parallel_constructs { "yes" } else { "no" },
            ),
        ));
    }
    rows.sort();
    let mut out = String::new();
    out.push_str(
        "| backend        | models                                       | year | concurrency              | timing                                   | pointers | loops | par |\n",
    );
    out.push_str(
        "|----------------|----------------------------------------------|------|--------------------------|------------------------------------------|----------|-------|-----|\n",
    );
    for (_, r) in rows {
        out.push_str(&r);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_seven_compilers() {
        let names: Vec<&'static str> = backends().iter().map(|b| b.info().name).collect();
        assert_eq!(
            names,
            vec![
                "cones",
                "hardwarec",
                "transmogrifier",
                "c2v",
                "cyber",
                "handelc",
                "cash"
            ]
        );
    }

    #[test]
    fn lookup_by_name() {
        assert!(backend_by_name("cash").is_some());
        assert!(backend_by_name("vaporware").is_none());
    }

    #[test]
    fn taxonomy_covers_all_eleven_systems() {
        let t = taxonomy_table();
        // Every system named in the paper's Table 1 appears in some row.
        for name in [
            "Cones",
            "HardwareC",
            "Transmogrifier",
            "SystemC",
            "Ocapi",
            "C2Verilog",
            "Cyber",
            "Handel-C",
            "SpecC",
            "Bach C",
            "CASH",
        ] {
            assert!(t.contains(name), "missing {name} in:\n{t}");
        }
        // Chronological: Cones (1988) appears before CASH (2002).
        assert!(t.find("Cones").unwrap() < t.find("CASH").unwrap());
    }
}
