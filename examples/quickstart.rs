//! Quickstart: compile one C-like kernel with every synthesis paradigm
//! from the paper's Table 1 and compare what comes out.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use chls::interp::ArgValue;
use chls::{backends, fnum, simulate_design, Compiler, SynthOptions, Table};
use chls_rtl::CostModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = "
        int gcd(int a, int b) {
            while (b != 0) {
                int t = b;
                b = a % b;
                a = t;
            }
            return a;
        }
    ";
    let args = [ArgValue::Scalar(1071), ArgValue::Scalar(462)];

    println!("The paper's Table 1, regenerated from the backend registry:\n");
    println!("{}", chls::taxonomy_table());

    let compiler = Compiler::parse(source)?;
    let golden = compiler.interpret("gcd", &args)?;
    println!("golden model: gcd(1071, 462) = {:?}\n", golden.ret.unwrap());

    let model = CostModel::new();
    let opts = SynthOptions::default();
    let mut table = Table::new(vec![
        "backend",
        "result",
        "cycles",
        "async time",
        "area (gates)",
        "verdict",
    ]);
    for backend in backends() {
        let name = backend.info().name;
        match compiler.synthesize(backend.as_ref(), "gcd", &opts) {
            Err(e) => table.row(vec![
                name.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("refused: {e}"),
            ]),
            Ok(design) => {
                let out = simulate_design(&design, &args)?;
                let verdict = if out.ret == golden.ret {
                    "matches golden"
                } else {
                    "MISMATCH"
                };
                table.row(vec![
                    name.to_string(),
                    format!("{:?}", out.ret.unwrap_or(0)),
                    out.cycles
                        .map(|c| c.to_string())
                        .unwrap_or_else(|| "-".into()),
                    out.time_units
                        .map(|t| format!("{t} units"))
                        .unwrap_or_else(|| "-".into()),
                    fnum(design.area(&model)),
                    verdict.to_string(),
                ]);
            }
        }
    }
    println!("{table}");
    println!(
        "Cones refuses: its combinational paradigm cannot wait out a\n\
         data-dependent loop — exactly the restriction the paper describes."
    );
    Ok(())
}
