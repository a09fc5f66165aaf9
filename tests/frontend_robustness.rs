//! Frontend robustness: the lexer, parser, and semantic analysis must
//! never panic — every malformed input produces a diagnostic. Also checks
//! that common mistakes get *useful* messages (a compiler's first UX).

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Arbitrary byte soup (printable-ish) never panics the frontend.
    #[test]
    fn arbitrary_text_never_panics(s in "[ -~\\n\\t]{0,200}") {
        let _ = chls_frontend::compile_to_hir(&s);
    }

    /// Token-shaped soup (keywords, idents, punctuation in random order)
    /// never panics.
    #[test]
    fn token_soup_never_panics(tokens in proptest::collection::vec(
        prop_oneof![
            Just("int".to_string()),
            Just("while".to_string()),
            Just("par".to_string()),
            Just("chan".to_string()),
            Just("uint".to_string()),
            Just("<".to_string()),
            Just(">".to_string()),
            Just("(".to_string()),
            Just(")".to_string()),
            Just("{".to_string()),
            Just("}".to_string()),
            Just("[".to_string()),
            Just("]".to_string()),
            Just(";".to_string()),
            Just("=".to_string()),
            Just("+".to_string()),
            Just("x".to_string()),
            Just("42".to_string()),
            Just("return".to_string()),
            Just("#pragma unroll 2".to_string()),
        ],
        0..40,
    )) {
        let src = tokens.join(" ");
        let _ = chls_frontend::compile_to_hir(&src);
    }

    /// Mutations of a valid program never panic: delete a random slice.
    #[test]
    fn truncated_valid_program_never_panics(cut_start in 0usize..160, cut_len in 0usize..80) {
        let base = "int f(int a[8], int n) {
            int s = 0;
            #pragma unroll 2
            for (int i = 0; i < n; i++) {
                if ((a[i] & 1) == 0) { s += a[i]; } else { s -= a[i]; }
            }
            return s;
        }";
        let bytes = base.as_bytes();
        let start = cut_start.min(bytes.len());
        let end = (start + cut_len).min(bytes.len());
        let mutated: Vec<u8> = bytes[..start].iter().chain(&bytes[end..]).copied().collect();
        if let Ok(s) = String::from_utf8(mutated) {
            let _ = chls_frontend::compile_to_hir(&s);
        }
    }
}

#[test]
fn diagnostics_are_specific() {
    let cases = [
        ("int f() { return x; }", "undefined name `x`"),
        ("int f() { break; }", "`break` outside of a loop"),
        (
            "int f(int n) { return n * f(n - 1); }",
            "recursion is not synthesizable",
        ),
        ("int g = 3; int f() { return g; }", "must be `const`"),
        (
            "void f() { chan<int> c; int x = c + 1; }",
            "can only be used with send/recv",
        ),
        ("uint<0> f() { return 0; }", "bit width must be 1..=64"),
        (
            "int f() { int x = 1; int x = 2; return x; }",
            "already defined",
        ),
        (
            "void f() { while (true) { par { return; } } }",
            "`return` inside `par`",
        ),
        ("int f(int a[4]) { return a; }", "cannot convert"),
    ];
    for (src, expected) in cases {
        let err = chls_frontend::compile_to_hir(src).expect_err(src);
        let msg = err.to_string();
        assert!(
            msg.contains(expected),
            "for `{src}`: expected message containing {expected:?}, got {msg:?}"
        );
    }
}

#[test]
fn diagnostics_carry_positions() {
    let src = "int f() {\n    return nope;\n}";
    let err = chls_frontend::compile_to_hir(src).unwrap_err();
    let rendered = err.render(src);
    assert!(rendered.contains("2:"), "no line info: {rendered}");
}
