//! Output determinism: the same program prints the same bytes every
//! time. Every `HashMap` draws fresh `RandomState` keys, so repeating
//! a computation inside one process already exposes iteration order
//! that leaks into output; no second process is needed.

use chls::Compiler;

/// A generated program, reduced: lowering its `if` inside a loop left
/// incomplete phis whose fill order, and with it the SSA value
/// numbering `chls ir` prints, followed hash-map order.
const REDUCED: &str = "int main(int a[16], int x, int y) {
    int v1 = (int) (((sint<16>) (((x) <= (x)))));
    sint<16> v2 = (sint<16>) (((86) >> ((99) & 7)));
    if ((((a[(v2) & 15]) ? (((224) | (a[(v2) & 15]))) : (v2))) < (~(((a[(v1) & 15]) >= (v2))))) {
        v1 += ((((v1) != (y))) << ((((v1) && (a[(y) & 15]))) & 7));
        v2 = ((((158) < (a[(v1) & 15]))) > (((x) ? (((v1) == (79))) : (y))));
    }
    for (int i3 = 0; i3 < 8; i3++) {
        v1 -= ((((i3) ? (((128) | (y))) : (118))) || (((a[(i3) & 15]) & (i3))));
        if ((((181) ^ (148))) < (((v2) ? (((217) / ((x) | 1))) : (59)))) {
        }
    }
    return v1 ^ v2;
}";

#[test]
fn ir_text_is_identical_across_lowerings() {
    let compiler = Compiler::parse(REDUCED).expect("the reduced program parses");
    let first = compiler.prepared_ir("main").expect("the reduced program lowers");
    for run in 1..16 {
        let again = compiler.prepared_ir("main").expect("the reduced program lowers");
        assert_eq!(again, first, "lowering {run} printed different IR");
    }
}
