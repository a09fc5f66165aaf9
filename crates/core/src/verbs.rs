//! The verb table: every `chls` verb described once.
//!
//! One [`Verb`] row holds everything the three readers of a verb need:
//!
//! * the CLI parser in `bin/chls.rs` — usage line, positional layout
//!   (which also fixes the arity) and accepted flags;
//! * [`crate::service::handle`] — whether a source is needed and the
//!   handler to run;
//! * `chls schema` — the shape of the verb's `data` and a one-line note.
//!
//! Adding a verb is adding a row. `stats` and `shutdown` are answered by
//! the `chls serve` transport, and `serve` runs in the CLI process; their
//! rows carry no service handler.
//!
//! **Shape grammar.** `str`, `int`, `num`, `bool` and `null` match those
//! JSON types (`int` is a number without fraction or exponent); a quoted
//! string or `true` matches that literal; `A|B` matches either; `[T]` is
//! an array of `T`; `{"k":T,...}` is an object with exactly these keys in
//! this order; `{str:T}` is an object with any keys and `T` values; and a
//! name from [`TYPES`] stands for its shape. `tests/schema.rs` checks every
//! golden envelope and every verb's output over the example corpus
//! against these strings.

use crate::service::{self as s, Handler};

/// How a flag takes its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takes {
    /// A bare switch (`--json`).
    Nothing,
    /// One value after the flag (`--jobs N`); a repeated flag keeps
    /// every value (`equiv --backend A --backend B`).
    Value,
}

/// One flag a verb accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// Flag name including the leading dashes.
    pub name: &'static str,
    pub takes: Takes,
}

/// One positional argument slot, in command-line order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pos {
    /// A backend name (`synth`, `verilog`).
    Backend,
    /// The source file.
    File,
    /// The entry function.
    Entry,
    /// Optional second entry (`equiv`).
    EntryB,
    /// Any number of trailing program arguments.
    Args,
}

/// Who answers a verb.
#[derive(Clone, Copy)]
pub enum Run {
    /// [`crate::service::handle`], one-shot or behind the daemon.
    Service(Handler),
    /// The `chls serve` transport: server state, not compilation.
    Daemon,
    /// The CLI process itself (`serve`).
    Cli,
}

/// One verb's row.
pub struct Verb {
    pub name: &'static str,
    pub usage: &'static str,
    pub pos: &'static [Pos],
    pub flags: &'static [Flag],
    pub run: Run,
    /// The shape of the verb's `data` (see the module docs for the
    /// grammar); empty for `serve`, which answers no JSON.
    pub shape: &'static str,
    pub notes: &'static str,
}

impl Verb {
    /// Does the verb read a program?
    pub fn needs_source(&self) -> bool {
        self.pos.contains(&Pos::File)
    }

    /// Positionals the verb requires.
    pub fn min_pos(&self) -> usize {
        self.pos
            .iter()
            .filter(|p| !matches!(p, Pos::EntryB | Pos::Args))
            .count()
    }

    /// Positionals the verb accepts (`None`: any number).
    pub fn max_pos(&self) -> Option<usize> {
        (!self.pos.contains(&Pos::Args)).then_some(self.pos.len())
    }

    pub fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags.iter().find(|f| f.name == name)
    }
}

/// The row for `name`.
pub fn find(name: &str) -> Option<&'static Verb> {
    TABLE.iter().find(|v| v.name == name)
}

const fn switch(name: &'static str) -> Flag {
    Flag {
        name,
        takes: Takes::Nothing,
    }
}

const fn value(name: &'static str) -> Flag {
    Flag {
        name,
        takes: Takes::Value,
    }
}

const JSON: Flag = switch("--json");
const SOURCE: &[Pos] = &[Pos::File, Pos::Entry];
const SOURCE_ARGS: &[Pos] = &[Pos::File, Pos::Entry, Pos::Args];
const SYNTH_FLAGS: &[Flag] = &[
    switch("--pipeline"),
    switch("--narrow"),
    switch("--opt-netlist"),
    value("--unroll"),
    JSON,
];

/// Shapes shared by several rows, referenced by name.
pub const TYPES: &[(&str, &str)] = &[
    ("span", r#"{"start":int,"end":int}"#),
    (
        "diag",
        r#"{"severity":"error"|"warning","message":str,"span":span,"notes":[{"message":str,"span":span}]}"#,
    ),
    ("interval", r#"{"min":int,"max":int|null}"#),
    (
        "sim",
        r#"{"ret":int|null,"arrays":[{"arg":int,"values":[int]}],"cycles":int|null}"#,
    ),
];

/// Every verb, in `chls schema` and usage order.
pub const TABLE: &[Verb] = &[
    Verb {
        name: "backends",
        usage: "chls backends [--json]",
        pos: &[],
        flags: &[JSON],
        run: Run::Service(s::verb_backends),
        shape: r#"{"backends":[{"name":str,"kind":"compiler"|"structural","models":str,"year":int,"concurrency":str,"timing":str,"pointers":bool,"data_dependent_loops":bool,"parallel_constructs":bool}]}"#,
        notes: "the paper's Table 1, live",
    },
    Verb {
        name: "run",
        usage: "chls run [--jit] [--json] <file> <entry> [args...]",
        pos: SOURCE_ARGS,
        flags: &[switch("--jit"), JSON],
        run: Run::Service(s::verb_run),
        shape: r#"{"entry":str,"jit":bool,"result":sim}"#,
        notes: "golden interpreter (or --jit native) execution",
    },
    Verb {
        name: "check",
        usage: "chls check [--jobs N] [--jit] [--json] <file> <entry> [args...]",
        pos: SOURCE_ARGS,
        flags: &[value("--jobs"), switch("--jit"), JSON],
        run: Run::Service(s::verb_check),
        shape: r#"{"entry":str,"jobs":int,"jit":bool,"results":[{"backend":str,"verdict":"pass"|"unsupported"|"mismatch"|"error","cycles":int|null,"time_units":int|null,"detail":str|null}]}"#,
        notes: "all backends vs the golden interpreter",
    },
    Verb {
        name: "ir",
        usage: "chls ir [--json] <file> <entry>",
        pos: SOURCE,
        flags: &[JSON],
        run: Run::Service(s::verb_ir),
        shape: r#"{"entry":str,"ir":str}"#,
        notes: "prepared SSA IR dump",
    },
    Verb {
        name: "synth",
        usage: "chls synth [--pipeline] [--narrow] [--opt-netlist] [--unroll N] [--json] <backend> <file> <entry> [args...]",
        pos: &[Pos::Backend, Pos::File, Pos::Entry, Pos::Args],
        flags: SYNTH_FLAGS,
        run: Run::Service(s::verb_synth),
        shape: r#"{"backend":str,"models":str,"entry":str,"area":num,"style":"combinational","cells":int,"delay_ns":num,"result":sim|null}|{"backend":str,"models":str,"entry":str,"area":num,"style":"fsmd","states":int,"registers":int,"memories":int,"clock_ns":num,"fmax_mhz":num,"result":sim|null}|{"backend":str,"models":str,"entry":str,"area":num,"style":"dataflow","nodes":int,"result":sim|null}"#,
        notes: "one shape per design style; result is null without args",
    },
    Verb {
        name: "verilog",
        usage: "chls verilog [--pipeline] [--narrow] [--opt-netlist] [--unroll N] [--json] <backend> <file> <entry>",
        pos: &[Pos::Backend, Pos::File, Pos::Entry],
        flags: SYNTH_FLAGS,
        run: Run::Service(s::verb_verilog),
        shape: r#"{"backend":str,"entry":str,"verilog":str}"#,
        notes: "synthesizable Verilog for comb/fsmd designs",
    },
    Verb {
        name: "equiv",
        usage: "chls equiv --backend A --backend B [--bound K] [--json] <file> <entry> [entry_b]",
        pos: &[Pos::File, Pos::Entry, Pos::EntryB],
        flags: &[value("--backend"), value("--bound"), JSON],
        run: Run::Service(s::verb_equiv),
        shape: r#"{"backend_a":str,"backend_b":str,"entry_a":str,"entry_b":str,"bound":int|null,"verdict":"equivalent"|"differ"|"unknown","method":str,"aig_nodes":int,"sat_conflicts":int,"detail":null|str|{"inputs":{str:int},"rams":{str:[int]},"output":str,"a_value":int,"b_value":int}}"#,
        notes: "formal equivalence of two backends",
    },
    Verb {
        name: "lint",
        usage: "chls lint [--backend B] [--json] <file> <entry>",
        pos: SOURCE,
        flags: &[value("--backend"), JSON],
        run: Run::Service(s::verb_lint),
        shape: r#"{"entry":str,"backend":str|null,"races":[diag],"warnings":[diag],"features":{"par":bool,"channels":bool,"delay":bool,"pointers":bool,"multi_target_pointers":[str],"data_dependent_loops":bool,"timing_constraints":bool,"recursion":bool},"backends":[{"backend":str,"construct":str,"status":"rejected"|"penalized","reason":str,"detail":str|null,"repairable":bool,"rewrite":str|null}],"cycles":[{"backend":str,"min":int,"max":int|null}],"memory":[diag],"dead_branches":[diag]}"#,
        notes: "static analysis: races, support matrix, cycle bounds",
    },
    Verb {
        name: "flow",
        usage: "chls flow [--json] <file> <entry>",
        pos: SOURCE,
        flags: &[JSON],
        run: Run::Service(s::verb_flow),
        shape: r#"{"entry":str,"ok":bool,"networks":[{"processes":[str],"channels":[{"name":str,"sends":interval,"recvs":interval,"senders":int,"receivers":int,"balance":str}],"deadlock":{"cycle":[str],"blocked":[{"process":str,"channel":str,"dir":str,"span":span}]}|null,"capacities":[{"channel":str,"capacity":int}],"skipped":str|null}],"contracts":[{"channel":str,"declared":int,"achieved":interval,"verdict":str}],"diags":[diag]}"#,
        notes: "static process-network analysis",
    },
    Verb {
        name: "rewrite",
        usage: "chls rewrite [--backend B] [--json] <file> <entry>",
        pos: SOURCE,
        flags: &[value("--backend"), JSON],
        run: Run::Service(s::verb_rewrite),
        shape: r#"{"entry":str,"changed":bool,"certified":bool,"accepted_before":int,"accepted_after":int,"backends_total":int,"actions":[{"pass":str,"target":str,"applied":bool,"detail":str}],"certification":[{"check":str,"status":"pass"|"fail"|"skip","detail":str}],"source":str}"#,
        notes: "certified synthesizability repair: rewritten CHL + proof ladder",
    },
    Verb {
        name: "report",
        usage: "chls report [--backend B | --all] [--narrow] [--opt-netlist] [--unroll N] [--jit] [--json] <file> <entry> [args...]",
        pos: SOURCE_ARGS,
        flags: &[
            value("--backend"),
            switch("--all"),
            switch("--narrow"),
            switch("--opt-netlist"),
            value("--unroll"),
            switch("--jit"),
            JSON,
        ],
        run: Run::Service(s::verb_report),
        shape: r#"{"entry":str,"parse_seconds":num,"args":str|null,"backends":[{"backend":str,"status":"ok"|"unsupported"|"error","reason":str|null,"style":str|null,"fsm_states":int|null,"registers":int|null,"memories":int|null,"gates":int|null,"area":num|null,"narrowed_area":num|null,"opt_area":num|null,"sched_cycles":int|null,"ii":int|null,"cycles":int|null,"time_units":int|null,"sim_note":str|null,"jit_blocks":int|null,"jit_bytes":int|null,"jit_fallbacks":int|null,"phases":[{"phase":str,"seconds":num}]}]}"#,
        notes: "per-backend QoR metrics and per-phase timing",
    },
    Verb {
        name: "explore",
        usage: "chls explore [--backend B | --all] [--budget N] [--seq-bound K] [--jobs N] [--emit-dir DIR] [--json] <file> <entry>",
        pos: SOURCE,
        flags: &[
            value("--backend"),
            switch("--all"),
            value("--budget"),
            value("--seq-bound"),
            value("--jobs"),
            value("--emit-dir"),
            JSON,
        ],
        run: Run::Service(s::verb_explore),
        shape: r#"{"entry":str,"backends":[str],"lattice":int,"feasible":int,"evaluated":int,"budget":int|null,"seq_bound":int,"frontier":[{"backend":str,"pipeline":bool,"narrow":bool,"opt_netlist":bool,"unroll":int|null,"style":str|null,"area":num|null,"latency":int|null,"ii":int|null,"certification":{"tier":"certified"|"sampled"|"refuted"|"unchecked","method":str|null,"bound":int|null,"vectors":int|null,"detail":str|null},"emit":{"aiger":str,"blif":str,"roundtrip":str}|{"skipped":str}|null}]}"#,
        notes: "certified design-space exploration: Pareto frontier over (area, latency, II)",
    },
    Verb {
        name: "schema",
        usage: "chls schema [--json]",
        pos: &[],
        flags: &[JSON],
        run: Run::Service(s::verb_schema),
        shape: r#"{"schema":int,"verbs":[{"verb":str,"data":str,"notes":str}],"types":[{"name":str,"data":str}]}"#,
        notes: "this contract, machine-readable",
    },
    Verb {
        name: "serve",
        usage: "chls serve [--addr HOST:PORT] [--workers N] [--cache-mb M] [--stats]",
        pos: &[],
        flags: &[
            value("--addr"),
            value("--workers"),
            value("--cache-mb"),
            switch("--stats"),
        ],
        run: Run::Cli,
        shape: "",
        notes: "",
    },
    Verb {
        name: "stats",
        usage: "chls client stats [--json]",
        pos: &[],
        flags: &[JSON],
        run: Run::Daemon,
        shape: r#"{"uptime_seconds":num,"requests":int,"errors":int,"requests_per_second":num,"busy_seconds":num,"workers":int,"verbs":{str:int},"latency_ms":{"p50":num,"p99":num},"cache":{"hits":int,"misses":int,"hit_rate":num,"insertions":int,"evictions":int,"bytes":int,"entries":int,"budget":int}}"#,
        notes: "daemon only: service-level metrics",
    },
    Verb {
        name: "shutdown",
        usage: "chls client shutdown [--json]",
        pos: &[],
        flags: &[JSON],
        run: Run::Daemon,
        shape: r#"{"shutting_down":true}"#,
        notes: "daemon only: graceful stop",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_arity_follows_the_layout() {
        for (i, v) in TABLE.iter().enumerate() {
            assert!(TABLE[..i].iter().all(|w| w.name != v.name), "{}", v.name);
            assert!(v.usage.contains(v.name), "{}", v.name);
            assert_eq!(v.shape.is_empty(), matches!(v.run, Run::Cli), "{}", v.name);
        }
        let synth = find("synth").unwrap();
        assert_eq!((synth.min_pos(), synth.max_pos()), (3, None));
        let equiv = find("equiv").unwrap();
        assert_eq!((equiv.min_pos(), equiv.max_pos()), (2, Some(3)));
        assert!(equiv.needs_source() && !find("schema").unwrap().needs_source());
    }
}
