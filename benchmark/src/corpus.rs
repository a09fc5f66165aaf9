//! The hand-written input programs, frozen in `corpus/` beside this
//! package: copies of the registry kernels (`chls::benchmarks()`) and of
//! a fixed list of `examples/chl` programs. They are compiled into the
//! benchmark, so an edit to the repository's own copies changes the
//! program under test, never the benchmark's inputs.

use crate::gen::Rng;
use chls::interp::ArgValue;
use chls::Compiler;
use chls_frontend::types::Type;
use std::sync::Arc;

/// A registry kernel: name, entry, source and its own arguments.
struct Kernel {
    name: &'static str,
    entry: &'static str,
    source: &'static str,
    args: fn() -> Vec<ArgValue>,
}

macro_rules! registry {
    ($file:literal) => {
        include_str!(concat!("../corpus/registry/", $file, ".chl"))
    };
}

const REGISTRY: [Kernel; 15] = [
    Kernel {
        name: "fir8",
        entry: "fir",
        source: registry!("fir8"),
        args: || {
            vec![
                ArgValue::Array((0..16).map(|i| (i * 7 + 3) % 50).collect()),
                ArgValue::Array(vec![0; 16]),
            ]
        },
    },
    Kernel {
        name: "dot8",
        entry: "dot",
        source: registry!("dot8"),
        args: || {
            vec![
                ArgValue::Array(vec![1, 2, 3, 4, 5, 6, 7, 8]),
                ArgValue::Array(vec![8, 7, 6, 5, 4, 3, 2, 1]),
            ]
        },
    },
    Kernel {
        name: "matmul4",
        entry: "matmul",
        source: registry!("matmul4"),
        args: || {
            vec![
                ArgValue::Array((1..=16).collect()),
                ArgValue::Array((1..=16).rev().collect()),
                ArgValue::Array(vec![0; 16]),
            ]
        },
    },
    Kernel {
        name: "gcd",
        entry: "gcd",
        source: registry!("gcd"),
        args: || vec![ArgValue::Scalar(1071), ArgValue::Scalar(462)],
    },
    Kernel {
        name: "crc32",
        entry: "crc32",
        source: registry!("crc32"),
        args: || {
            vec![
                ArgValue::Array(vec![0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38]),
                ArgValue::Scalar(8),
            ]
        },
    },
    Kernel {
        name: "bubble8",
        entry: "sort",
        source: registry!("bubble8"),
        args: || vec![ArgValue::Array(vec![42, 7, 99, -3, 15, 0, 63, -20])],
    },
    Kernel {
        name: "fib16",
        entry: "fib",
        source: registry!("fib16"),
        args: || vec![ArgValue::Scalar(16)],
    },
    Kernel {
        name: "popcount",
        entry: "popcount",
        source: registry!("popcount"),
        args: || vec![ArgValue::Scalar(0x5A5A_5A5A)],
    },
    Kernel {
        name: "max8",
        entry: "maxv",
        source: registry!("max8"),
        args: || vec![ArgValue::Array(vec![3, -1, 4, 1, -5, 9, 2, 6])],
    },
    Kernel {
        name: "isqrt",
        entry: "isqrt",
        source: registry!("isqrt"),
        args: || vec![ArgValue::Scalar(137_641)],
    },
    Kernel {
        name: "vecscale",
        entry: "scale",
        source: registry!("vecscale"),
        args: || {
            vec![
                ArgValue::Array((0..16).map(|i| i * 3 - 8).collect()),
                ArgValue::Scalar(7),
            ]
        },
    },
    Kernel {
        name: "conv1d",
        entry: "conv",
        source: registry!("conv1d"),
        args: || {
            vec![
                ArgValue::Array((0..12).map(|i| i * i).collect()),
                ArgValue::Array(vec![0; 12]),
            ]
        },
    },
    Kernel {
        name: "strchr8",
        entry: "find",
        source: registry!("strchr8"),
        args: || {
            vec![
                ArgValue::Array(vec![11, 22, 33, 44, 33, 55, 66, 77]),
                ArgValue::Scalar(33),
            ]
        },
    },
    Kernel {
        name: "clamp_mix",
        entry: "mix",
        source: registry!("clamp_mix"),
        args: || {
            vec![
                ArgValue::Array(vec![-100, 5, 300, 42, -7, 0, 999, 13]),
                ArgValue::Scalar(0),
                ArgValue::Scalar(100),
            ]
        },
    },
    Kernel {
        name: "histogram",
        entry: "hist",
        source: registry!("histogram"),
        args: || {
            vec![
                ArgValue::Array((0..16).map(|i| (i * 13 + 5) % 23).collect()),
                ArgValue::Array(vec![0; 8]),
            ]
        },
    },
];

macro_rules! example {
    ($rel:literal) => {
        ($rel, include_str!(concat!("../corpus/examples/", $rel)))
    };
}

/// The example programs, by their path under `examples/chl`.
const EXAMPLE_FILES: [(&str, &str); 14] = [
    example!("blend.chl"),
    example!("checksum.chl"),
    example!("crc8.chl"),
    example!("fir.chl"),
    example!("gcd.chl"),
    example!("par_pipeline.chl"),
    example!("pointer_swap.chl"),
    example!("stream_multirate.chl"),
    example!("software/bitcount.chl"),
    example!("software/bsearch.chl"),
    example!("software/fact.chl"),
    example!("software/fib.chl"),
    example!("software/matmul.chl"),
    example!("software/memcpy_walk.chl"),
];

/// The examples in the corpus. Recursive programs (`software/fib`,
/// `software/fact`) are absent, since the strict frontend rejects them
/// until `chls rewrite` has run; so are the `flow/` programs, which
/// deadlock on purpose.
pub const EXAMPLES: [&str; 12] = [
    "blend.chl",
    "checksum.chl",
    "crc8.chl",
    "fir.chl",
    "gcd.chl",
    "par_pipeline.chl",
    "pointer_swap.chl",
    "stream_multirate.chl",
    "software/bitcount.chl",
    "software/bsearch.chl",
    "software/matmul.chl",
    "software/memcpy_walk.chl",
];

/// Programs `chls rewrite` repairs (the software corpus).
pub const SOFTWARE: [&str; 6] = [
    "bitcount",
    "bsearch",
    "fact",
    "fib",
    "matmul",
    "memcpy_walk",
];

/// One input program, parsed, with the arguments its QoR is taken at.
#[derive(Clone)]
pub struct Item {
    pub name: String,
    pub source: Arc<str>,
    pub entry: String,
    pub compiler: Arc<Compiler>,
    pub args: Vec<ArgValue>,
}

/// The frozen copy of `examples/chl/<rel>`.
pub fn example(rel: &str) -> Result<&'static str, String> {
    EXAMPLE_FILES
        .iter()
        .find(|(r, _)| *r == rel)
        .map(|(_, src)| *src)
        .ok_or_else(|| format!("the corpus has no example {rel}"))
}

/// The entry the CLI would pick: `main`, else the program's last
/// function.
fn entry_of(c: &Compiler) -> Option<String> {
    let funcs = &c.hir().funcs;
    if funcs.iter().any(|f| f.name == "main") {
        Some("main".to_string())
    } else {
        funcs.last().map(|f| f.name.clone())
    }
}

/// A random argument vector for `entry`'s signature: scalars and array
/// elements in 0..=255. `None` when a parameter has no value form.
pub fn random_args(c: &Compiler, entry: &str, rng: &mut Rng) -> Option<Vec<ArgValue>> {
    let (_, f) = c.hir().func_by_name(entry)?;
    f.params()
        .map(|(_, l)| match &l.ty {
            Type::Bool => Some(ArgValue::Scalar(rng.range(0, 1))),
            Type::Int(_) => Some(ArgValue::Scalar(rng.range(0, 255))),
            Type::Array(..) => Some(ArgValue::Array(
                (0..l.ty.flat_len()).map(|_| rng.range(0, 255)).collect(),
            )),
            Type::Void | Type::Ptr(_) | Type::Chan(_) => None,
        })
        .collect()
}

/// The corpus: the registry kernels at their own arguments, then the
/// listed examples at arguments drawn from a fixed seed.
pub fn corpus() -> Result<Vec<Item>, String> {
    let mut items = Vec::new();
    for k in &REGISTRY {
        let compiler = Compiler::parse(k.source).map_err(|e| e.render(k.source))?;
        items.push(Item {
            name: k.name.to_string(),
            source: k.source.into(),
            entry: k.entry.to_string(),
            compiler: Arc::new(compiler),
            args: (k.args)(),
        });
    }
    let mut rng = Rng::new(0x00C0_4B05);
    for rel in EXAMPLES {
        let source = example(rel)?;
        let compiler =
            Compiler::parse(source).map_err(|e| format!("{rel}: {}", e.render(source)))?;
        let entry = entry_of(&compiler).ok_or_else(|| format!("{rel}: no functions"))?;
        let args = random_args(&compiler, &entry, &mut rng)
            .ok_or_else(|| format!("{rel}: no argument values"))?;
        compiler
            .interpret(&entry, &args)
            .map_err(|e| format!("{rel}: golden run fails: {e}"))?;
        items.push(Item {
            name: rel.to_string(),
            source: source.into(),
            entry,
            compiler: Arc::new(compiler),
            args,
        });
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frozen registry kernels still give the results the registry's
    /// own tests pin.
    #[test]
    fn registry_copies_keep_their_results() {
        let items = corpus().expect("the corpus parses and runs");
        assert_eq!(items.len(), REGISTRY.len() + EXAMPLES.len());
        let ret = |name: &str| {
            let it = items.iter().find(|i| i.name == name).expect("in corpus");
            it.compiler
                .interpret(&it.entry, &it.args)
                .expect("interprets")
                .ret
        };
        assert_eq!(ret("gcd"), Some(21));
        assert_eq!(ret("dot8"), Some(120));
        assert_eq!(ret("fib16"), Some(987));
        assert_eq!(ret("isqrt"), Some(371));
        assert_eq!(ret("crc32"), Some(0x9AE0_DAAFu32 as i32 as i64));
        for name in SOFTWARE {
            example(&format!("software/{name}.chl")).expect("software program present");
        }
    }
}
