//! E8 — "Bit vectors are natural in hardware, yet C only supports four
//! sizes." The same 12-bit pixel pipeline written with C's `int`, with
//! bit-precise `uint<N>` types, and with C types plus compiler
//! bit-width recovery (value-range analysis).

use chls::interp::ArgValue;
use chls::{backend_by_name, fnum, simulate_design, Compiler, SynthOptions, Table};
use chls_rtl::CostModel;

/// 12-bit pixel blend: everything fits far inside `int`.
const C_INT: &str = "
    int blend(int a[16], int b[16], int alpha) {
        int acc = 0;
        for (int i = 0; i < 16; i++) {
            int pa = a[i] & 0xFFF;
            int pb = b[i] & 0xFFF;
            int mixed = (pa * (alpha & 0xFF) + pb * (255 - (alpha & 0xFF))) >> 8;
            acc ^= mixed;
        }
        return acc;
    }
";

/// The same kernel with the widths the data actually needs.
const BIT_PRECISE: &str = "
    int blend(int a[16], int b[16], int alpha) {
        uint<13> acc = 0;
        for (int i = 0; i < 16; i++) {
            uint<12> pa = (uint<12>) a[i];
            uint<12> pb = (uint<12>) b[i];
            uint<8> al = (uint<8>) alpha;
            uint<21> mixed =
                ((uint<21>) pa * al + (uint<21>) pb * (uint<8>) (255 - al)) >> 8;
            acc = acc ^ (uint<13>) mixed;
        }
        return (int) acc;
    }
";

fn main() {
    let args = [
        ArgValue::Array((0..16).map(|i| (i * 251) % 4096).collect()),
        ArgValue::Array((0..16).map(|i| (i * 97 + 13) % 4096).collect()),
        ArgValue::Scalar(180),
    ];
    let model = CostModel::new();
    let opts = SynthOptions::default();
    let backend = backend_by_name("handelc").expect("registered");

    // Handel-C maps each declared variable to a register of its declared
    // width and each expression to dedicated logic — source typing shows
    // up in the area directly.
    let mut t = Table::new(vec![
        "source typing",
        "result",
        "datapath area (gates)",
        "vs C int",
    ]);
    let mut base_area = 0.0;
    for (name, src) in [
        ("C `int` everywhere", C_INT),
        ("bit-precise uint<N>", BIT_PRECISE),
    ] {
        let compiler = Compiler::parse(src).expect("parses");
        let d = compiler
            .synthesize(backend.as_ref(), "blend", &opts)
            .expect("synthesizes");
        let out = simulate_design(&d, &args).expect("simulates");
        let area = d.area(&model);
        if base_area == 0.0 {
            base_area = area;
        }
        t.row(vec![
            name.to_string(),
            out.ret.unwrap().to_string(),
            fnum(area),
            format!("{}%", fnum(100.0 * area / base_area)),
        ]);
    }

    // Compiler recovery: value-range analysis on the C-int version.
    let hir = chls_frontend::compile_to_hir(C_INT).expect("parses");
    let (id, _) = hir.func_by_name("blend").expect("exists");
    let mut f = chls_ir::lower_function(&hir, id).expect("lowers");
    chls_opt::simplify::simplify(&mut f);
    let wa = chls_opt::width::analyze(&f);
    let (declared, narrowed) = wa.area_comparison(&f, &model);
    t.row(vec![
        "C int + compiler width recovery (estimate)".to_string(),
        "-".to_string(),
        format!("{} -> {}", fnum(declared), fnum(narrowed)),
        format!("{}%", fnum(100.0 * narrowed / declared)),
    ]);

    // The recovery is not just an estimate: `narrow_widths` drives real
    // register/datapath narrowing in the scheduled (c2v) flow.
    {
        let c2v = backend_by_name("c2v").expect("registered");
        let compiler = Compiler::parse(C_INT).expect("parses");
        let wide = compiler
            .synthesize(c2v.as_ref(), "blend", &SynthOptions::default())
            .expect("synthesizes");
        let narrow = compiler
            .synthesize(
                c2v.as_ref(),
                "blend",
                &SynthOptions {
                    narrow_widths: true,
                    ..Default::default()
                },
            )
            .expect("synthesizes");
        let rw = simulate_design(&wide, &args).expect("simulates");
        let rn = simulate_design(&narrow, &args).expect("simulates");
        assert_eq!(rw.ret, rn.ret);
        let (aw, an) = (wide.area(&model), narrow.area(&model));
        t.row(vec![
            "C int + narrow_widths, c2v (synthesized)".to_string(),
            rn.ret.unwrap().to_string(),
            format!("{} -> {}", fnum(aw), fnum(an)),
            format!("{}%", fnum(100.0 * an / aw)),
        ]);
    }
    println!("E8: 12-bit pixel blend under three typing disciplines\n");
    println!("{t}");
    println!(
        "Writing the widths down (as every surveyed HDL-flavoured language\n\
         lets you, and C does not) cuts the datapath substantially; a\n\
         range analysis recovers much of it automatically — but only where\n\
         masks and constants prove the bounds. Both results agree with the\n\
         paper's complaint about C's four integer sizes."
    );
}
