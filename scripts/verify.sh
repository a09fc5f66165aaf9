#!/usr/bin/env bash
# Repo verification: tier-1 tests, every workspace member's tests, the
# CLI integration suite, lint hygiene (clippy, rustdoc + a `chls lint` sweep
# over the example corpus), a
# `chls flow` sweep (examples must be deadlock-free, and the seeded
# deadlock corpus must be proved stuck), a `chls rewrite` sweep (the
# software-shaped corpus must be repaired, certified, and lint-clean,
# with at least 4 previously-rejected programs unlocking >=3 backends), a
# conformance smoke run through the CLI (sequential and parallel must
# agree), a `chls report` QoR smoke over the example corpus (width
# narrowing and the AIG logic optimizer must both pay for themselves),
# a `chls equiv` smoke (two backends proven bounded-equivalent on real
# examples, gcd's 216k-node c2v/cyber miter proved equivalent at bound
# 16, and a seeded miscompile refuted with a counterexample), and
# a `chls explore` sweep (fir + crc8: non-empty certified frontiers,
# every emitted AIGER re-proved equivalent after re-reading; fir's
# `--all --json` output must not depend on the job count), and the
# benchmark smoke test (every `benchmark/` workload runs with zero failed
# operations, and a corrupted golden value is caught).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== workspace tests (every member crate's unit and integration tests) =="
# Tier-1 tests only the root package; this runs the member crates' own
# suites too (the JIT differential tests, the logic tests, the unit
# tests of sim, frontend, opt and the rest, and `crates/bench`'s check
# that every report binary still prints its captured `results/` file).
cargo test -q --workspace --release

echo "== CLI integration suite =="
cargo test -q --test cli

echo "== rustfmt (the workspace must be formatted) =="
cargo fmt --all --check

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== chls lint sweep (examples must be race-free) =="
cargo build --release -p chls --bins
for f in examples/chl/*.chl; do
    echo "-- lint $f"
    ./target/release/chls lint "$f" main
done

echo "== chls flow sweep (examples must be deadlock-free) =="
for f in examples/chl/*.chl; do
    echo "-- flow $f"
    ./target/release/chls flow "$f" main
done

echo "== chls flow smoke (the seeded deadlock must be proved) =="
if ./target/release/chls flow examples/chl/flow/deadlock_order.chl main > /tmp/flow_dead.txt; then
    echo "FAIL: seeded ordering deadlock was not flagged" >&2
    cat /tmp/flow_dead.txt >&2
    exit 1
fi
grep -q "structural deadlock cycle" /tmp/flow_dead.txt
grep -q "needs capacity" /tmp/flow_dead.txt
./target/release/chls flow --json examples/chl/stream_multirate.chl main > /tmp/flow_clean.json
python3 - /tmp/flow_clean.json <<'EOF'
import json, sys
env = json.load(open(sys.argv[1]))
assert env["tool"] == "chls" and env["verb"] == "flow" and env["ok"] is True, env
data = env["data"]
assert all(n["deadlock"] is None for n in data["networks"]), data
assert all(c["balance"] == "balanced" for n in data["networks"] for c in n["channels"]), data
assert any(c["verdict"] == "met" for c in data["contracts"]), data
EOF
echo "flow verdicts valid"

echo "== chls rewrite sweep (software corpus repaired + certified) =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# Each software-shaped program must be auto-rewritten into a certified
# synthesizable form; the acceptance table shows the before/after
# backend counts, and the gates below hold the repair to its claims.
: > "$tmp/rewrite_table.txt"
for f in examples/chl/software/*.chl; do
    entry="$(basename "$f" .chl)"
    echo "-- rewrite $f ($entry)"
    ./target/release/chls rewrite --json "$f" "$entry" > "$tmp/rewrite.json"
    python3 - "$tmp/rewrite.json" "$f" "$tmp/rewrite_table.txt" "$tmp" <<'EOF'
import json, sys
env = json.load(open(sys.argv[1]))
assert env["tool"] == "chls" and env["verb"] == "rewrite" and env["ok"] is True, env
d = env["data"]
assert d["certified"], (sys.argv[2], d["certification"])
assert d["changed"], (sys.argv[2], "rewriter left the program alone")
assert all(c["status"] != "FAIL" for c in d["certification"]), d["certification"]
with open(sys.argv[3], "a") as out:
    out.write(f'{sys.argv[2]} {d["accepted_before"]} {d["accepted_after"]} {d["backends_total"]}\n')
# Hand the rewritten source back to the shell so `chls lint` can vet it
# exactly as a user would.
open(f'{sys.argv[4]}/rewritten_{d["entry"]}.chl', "w").write(d["source"])
EOF
    ./target/release/chls lint "$tmp/rewritten_$entry.chl" "$entry"
done
echo "-- acceptance table (file accepted_before accepted_after total)"
column -t "$tmp/rewrite_table.txt" 2>/dev/null || cat "$tmp/rewrite_table.txt"
repaired=$(awk '$2 < $4 && $3 > $2 && $3 >= 3' "$tmp/rewrite_table.txt" | wc -l)
echo "rewriting unlocks backends on $repaired previously-rejected programs"
if [ "$repaired" -lt 4 ]; then
    echo "FAIL: at least 4 previously-rejected programs must synthesize on >=3 backends after rewriting" >&2
    exit 1
fi

echo "== chls check smoke (jobs=1 vs jobs=4 must match) =="
cat > "$tmp/gcd.chl" <<'EOF'
int gcd(int a, int b) {
    while (b != 0) { int t = b; b = a % b; a = t; }
    return a;
}
EOF
./target/release/chls check --jobs 1 "$tmp/gcd.chl" gcd 48 36 > "$tmp/seq.txt"
./target/release/chls check --jobs 4 "$tmp/gcd.chl" gcd 48 36 > "$tmp/par.txt"
diff "$tmp/seq.txt" "$tmp/par.txt"
# All seven backends accept checksum.chl. At --jobs 1 they share one
# preparation; at --jobs 4 the fan-out threads look up the same memo
# concurrently and prepare for themselves, and the verdicts must match.
sum16="9,1,8,2,7,3,6,4,5,0,15,11,14,12,13,10"
./target/release/chls check --jobs 1 examples/chl/checksum.chl main "$sum16" > "$tmp/seq.txt"
./target/release/chls check --jobs 4 examples/chl/checksum.chl main "$sum16" > "$tmp/par.txt"
diff "$tmp/seq.txt" "$tmp/par.txt"
if [ "$(grep -c ' PASS ' "$tmp/par.txt")" -ne 7 ]; then
    echo "FAIL: all seven backends should pass on checksum.chl" >&2
    cat "$tmp/par.txt" >&2
    exit 1
fi
echo "verdicts identical"

echo "== chls report smoke (QoR JSON over the example corpus) =="
: > "$tmp/narrowed.txt"
: > "$tmp/optimized.txt"
for f in examples/chl/*.chl; do
    echo "-- report $f"
    ./target/release/chls report --all --json "$f" main > "$tmp/report.json"
    python3 - "$tmp/report.json" "$tmp/narrowed.txt" "$f" "$tmp/optimized.txt" <<'EOF'
import json, sys
env = json.load(open(sys.argv[1]))
assert env["tool"] == "chls" and env["verb"] == "report", env
assert isinstance(env["ok"], bool) and "version" in env, env
rows = env["data"]["backends"]
assert rows, "report emitted no backends"
assert any(r["status"] == "ok" for r in rows), rows
# Width narrowing must never cost area, and its savings are recorded
# so the sweep can assert the optimization actually fires.
for r in rows:
    a, n = r.get("area"), r.get("narrowed_area")
    if a is not None:
        assert n is not None, (sys.argv[3], r["backend"], "narrowed_area missing")
        assert n <= a * 1.001, (sys.argv[3], r["backend"], a, n)
        if n < a * 0.999:
            with open(sys.argv[2], "a") as out:
                out.write(f"{sys.argv[3]} {r['backend']} {n/a:.2f}\n")
# The AIG optimizer's rewrites are all area-monotone, so the what-if
# column must never exceed the baseline; record strict reductions so
# the sweep can assert the pass actually pays for itself.
for r in rows:
    a, o = r.get("area"), r.get("opt_area")
    if a is not None:
        assert o is not None, (sys.argv[3], r["backend"], "opt_area missing")
        assert o <= a * 1.001, (sys.argv[3], r["backend"], a, o)
        if o < a * 0.999:
            with open(sys.argv[4], "a") as out:
                out.write(f"{sys.argv[3]} {r['backend']} {o/a:.2f}\n")
EOF
done
echo "report envelopes valid"
reduced=$(cut -d' ' -f1 "$tmp/narrowed.txt" | sort -u | wc -l)
echo "narrowing reduces area on $reduced example programs"
if [ "$reduced" -lt 3 ]; then
    echo "FAIL: width narrowing should shrink at least 3 example programs" >&2
    exit 1
fi
opt_reduced=$(cut -d' ' -f1 "$tmp/optimized.txt" | sort -u | wc -l)
echo "logic optimizer reduces area on $opt_reduced example programs"
if [ "$opt_reduced" -lt 3 ]; then
    echo "FAIL: the logic optimizer should shrink at least 3 example programs" >&2
    exit 1
fi

echo "== chls jit smoke (native execution must match the interpreter) =="
# `run --jit` and a plain `run` must print identical results on every
# scalar-only example, and `check --jit` must reproduce the interpreter
# sweep's verdicts verbatim. On hosts without x86-64 JIT support the
# flag silently degrades to the interpreter, so the diffs still hold.
./target/release/chls run examples/chl/gcd.chl main 1071 462 > "$tmp/run_interp.txt"
./target/release/chls run --jit examples/chl/gcd.chl main 1071 462 > "$tmp/run_jit.txt"
diff <(grep -v '^cycles' "$tmp/run_jit.txt") "$tmp/run_interp.txt"
row16="9,1,8,2,7,3,6,4,5,0,15,11,14,12,13,10"
while read -r name args; do
    f="examples/chl/$name.chl"
    echo "-- check --jit $f"
    # shellcheck disable=SC2086
    ./target/release/chls check "$f" main $args > "$tmp/check_interp.txt"
    # shellcheck disable=SC2086
    ./target/release/chls check --jit "$f" main $args > "$tmp/check_jit.txt"
    diff "$tmp/check_interp.txt" "$tmp/check_jit.txt"
done <<EOF
gcd 1071 462
checksum $row16
crc8 $row16
blend $row16 $row16 0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0
fir $row16 0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0
EOF
echo "jit verdicts identical to interpreter"

echo "== chls equiv smoke (backends proven equivalent; seeded bug refuted) =="
for spec in "blend 70" "checksum 60" "fir 190"; do
    set -- $spec
    echo "-- equiv examples/chl/$1.chl (bound $2)"
    ./target/release/chls equiv --backend handelc --backend transmogrifier \
        --bound "$2" "examples/chl/$1.chl" main
done
echo "-- equiv examples/chl/gcd.chl c2v/cyber (bound 16)"
./target/release/chls equiv --backend c2v --backend cyber --bound 16 \
    examples/chl/gcd.chl main > "$tmp/equiv_gcd.txt"
cat "$tmp/equiv_gcd.txt"
grep -q "^EQUIVALENT" "$tmp/equiv_gcd.txt"
cat > "$tmp/bug.chl" <<'EOF'
int main(int a, int b) {
    int s = 0;
    for (int i = 0; i < 4; i++) {
        s = (s + a * 3 + b) & 4095;
    }
    return s;
}

int main_bug(int a, int b) {
    int s = 0;
    for (int i = 0; i < 4; i++) {
        s = (s + a * 3 + b) & 4095;
    }
    if (s == 2900) {
        s = s ^ 1;
    }
    return s;
}
EOF
if ./target/release/chls equiv --backend handelc --backend transmogrifier \
    --bound 24 "$tmp/bug.chl" main main_bug > "$tmp/equiv.txt"; then
    echo "FAIL: seeded miscompile was not refuted" >&2
    cat "$tmp/equiv.txt" >&2
    exit 1
fi
grep -q "DIFFER" "$tmp/equiv.txt"
grep -q "arg0" "$tmp/equiv.txt"
echo "seeded miscompile refuted with a counterexample"

echo "== chls serve smoke (daemon vs one-shot, warm cache, clean shutdown) =="
./target/release/chls serve --addr 127.0.0.1:0 > "$tmp/serve.log" 2>&1 &
serve_pid=$!
port=""
for _ in $(seq 1 50); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$tmp/serve.log")
    [ -n "$port" ] && break
    sleep 0.1
done
if [ -z "$port" ]; then
    echo "FAIL: daemon never reported its port" >&2
    cat "$tmp/serve.log" >&2
    exit 1
fi
addr="127.0.0.1:$port"
# check: byte-identical through the daemon.
./target/release/chls check "$tmp/gcd.chl" gcd 48 36 > "$tmp/check_local.txt"
./target/release/chls --connect "$addr" check "$tmp/gcd.chl" gcd 48 36 > "$tmp/check_remote.txt"
diff "$tmp/check_local.txt" "$tmp/check_remote.txt"
# equiv: byte-identical through the daemon.
./target/release/chls equiv --backend handelc --backend transmogrifier \
    --bound 60 examples/chl/checksum.chl main > "$tmp/eq_local.txt"
./target/release/chls --connect "$addr" equiv --backend handelc --backend transmogrifier \
    --bound 60 examples/chl/checksum.chl main > "$tmp/eq_remote.txt"
diff "$tmp/eq_local.txt" "$tmp/eq_remote.txt"
# report: identical modulo wall-clock timings (the only floats in the
# rendering), and the repeat request must come from the warm cache.
./target/release/chls report examples/chl/gcd.chl main 48 36 > "$tmp/rep_local.txt"
./target/release/chls --connect "$addr" report examples/chl/gcd.chl main 48 36 > "$tmp/rep_remote.txt"
diff <(sed -E 's/[0-9]+\.[0-9]+/N/g' "$tmp/rep_local.txt") \
     <(sed -E 's/[0-9]+\.[0-9]+/N/g' "$tmp/rep_remote.txt")
./target/release/chls --connect "$addr" report --json examples/chl/gcd.chl main 48 36 \
    | grep -q '"cached":true'
# service metrics, then a graceful stop the daemon acknowledges.
./target/release/chls client --addr "$addr" stats | grep -q '"requests":'
./target/release/chls client --addr "$addr" shutdown | grep -q '"shutting_down":true'
wait "$serve_pid"
echo "serve smoke OK"

echo "== chls explore sweep (certified frontiers + AIGER round-trips) =="
for f in examples/chl/fir.chl examples/chl/crc8.chl; do
    echo "-- explore $f"
    emit_dir="$tmp/explore_$(basename "$f" .chl)"
    ./target/release/chls explore --all --emit-dir "$emit_dir" --json "$f" main \
        > "$tmp/explore.json"
    python3 - "$tmp/explore.json" "$emit_dir" <<'EOF'
import json, os, sys
env = json.load(open(sys.argv[1]))
assert env["tool"] == "chls" and env["verb"] == "explore" and env["ok"] is True, env
d = env["data"]
frontier = d["frontier"]
assert frontier, "empty Pareto frontier"
for p in frontier:
    cert = p["certification"]
    # The tier taxonomy is closed; `certified` means an Equivalent proof
    # with a named method, and nothing on a frontier may be refuted.
    assert cert["tier"] in ("certified", "sampled", "unchecked"), p
    if cert["tier"] == "certified":
        assert cert["method"] in ("strash", "exhaustive", "sat"), p
    em = p["emit"]
    assert em and "roundtrip" in em, ("frontier point not emitted", p)
    assert em["roundtrip"] in ("strash", "sat"), ("round-trip not re-proved", p)
    assert os.path.getsize(em["aiger"]) > 0 and os.path.getsize(em["blif"]) > 0, p
print(f"  frontier {len(frontier)} points, all emitted + round-trip re-proved")
EOF
done
# Points that share a synthesis are evaluated once, on whichever worker
# runs it: the sweep's bytes must not depend on the job count.
echo "-- explore examples/chl/fir.chl (jobs=1 vs jobs=2 must match)"
./target/release/chls explore --all --json --jobs 1 examples/chl/fir.chl main > "$tmp/explore_j1.json"
./target/release/chls explore --all --json --jobs 2 examples/chl/fir.chl main > "$tmp/explore_j2.json"
cmp "$tmp/explore_j1.json" "$tmp/explore_j2.json"
echo "explore output identical across job counts"

echo "== benchmark smoke (every workload, zero failures, corrupted golden caught) =="
cargo test --release --manifest-path benchmark/Cargo.toml

echo "== verify OK =="
