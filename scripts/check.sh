#!/usr/bin/env bash
# Pre-PR verification gate. Run from the repository root:
#
#   ./scripts/check.sh
#
# Everything runs offline (--offline; external deps resolve to the
# in-tree stand-ins under crates/compat/). A PR is ready when all
# stages pass.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release (workspace, offline)"
cargo build --release --workspace --offline

echo "==> cargo test -q (workspace, offline)"
cargo test -q --workspace --offline

echo "==> link index vs per-call reference, full-grid inference digest (release, ignored tests)"
# The debug suite ranks a spread of each view's distractors against the
# per-call reference and pins the CWO + SBOD inference digest; these two
# release-only tests rank every column of every view and pin the digest of
# all 12,072 grid inferences.
cargo test -q --release --offline -p snails-llm -- --ignored \
    index_matches_per_call_reference_on_every_column full_grid_inference_digest_is_pinned

echo "==> incremental BPE trainer vs recounting reference, full English corpus (release, ignored tests)"
# The debug suite compares the trainer with the recount-every-pair reference
# on small random corpora and pins the three profiles' merge-list digests;
# this release-only test runs the reference on the full English corpus at
# the 4000/2000/800 merge budgets.
cargo test -q --release --offline -p snails-tokenize -- --ignored

echo "==> cargo clippy --workspace -- -D warnings (offline)"
cargo clippy --workspace --offline -- -D warnings

echo "==> cargo clippy -p snails-engine -p snails-bench -- -D warnings (offline)"
# The engine (plan/IR layer) and the bench helpers are gated separately
# so a workspace-level allow can never mask a regression in the
# compiled-plan code or the measurement helpers.
cargo clippy -p snails-engine -p snails-bench --offline -- -D warnings

echo "==> snails bench --fault-profile flaky (smoke: zero aborted cells)"
# The bench exits non-zero when any grid cell aborts without a record or
# when parallel records diverge from serial; grep double-checks the
# machine-readable line it prints.
bench_out=$(cargo run -q --release --offline --bin snails -- bench --fault-profile flaky)
echo "$bench_out"
echo "$bench_out" | grep -q '"bench":"fault_summary","profile":"flaky","aborted_cells":0' || {
    echo "error: flaky fault smoke run reported aborted cells" >&2
    exit 1
}

echo "==> snails bench --telemetry (smoke: deterministic report, full key coverage)"
# Telemetry smoke: the report must parse, the deterministic section must
# be byte-identical across thread counts (the bench exits non-zero
# otherwise), and every registered metric key must appear exactly once.
telemetry_out=$(mktemp)
trap 'rm -f "$telemetry_out"' EXIT
cargo run -q --release --offline --bin snails -- bench --telemetry "$telemetry_out" > /dev/null
python3 - "$telemetry_out" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["clock"] == "sim", "benchmark telemetry must use the simulated clock"
seen = []
for section in (report["deterministic"], report["assembly"], report["volatile"]):
    for kind in ("counters", "gauges", "histograms"):
        seen.extend(section[kind])
assert len(seen) == len(set(seen)), "duplicate metric key in report"
for key in ("engine.plan.compile", "engine.op.scan.rows", "engine.exec.steps",
            "engine.vec.batches", "engine.vec.selectivity_pct",
            "engine.vec.dict.entries",
            "llm.cells.planned", "llm.resilience.attempts",
            "llm.link_index.distractor_builds",
            "core.scheduler.items", "core.scheduler.workers"):
    assert key in seen, f"metric key {key} missing from report"
# Fused-pipeline telemetry must land in the *deterministic* section (it is
# byte-compared across thread counts by the bench itself), never volatile.
det_counters = report["deterministic"]["counters"]
for key in ("engine.vec.fused_pipelines", "engine.vec.pool.hits",
            "engine.vec.pool.allocs", "engine.vec.dict_kernel_rows"):
    assert key in det_counters, (
        f"fusion metric {key} missing from the deterministic section")
hit = report["assembly"]["counters"]["engine.plan.cache_hit"]
miss = report["assembly"]["counters"]["engine.plan.cache_miss"]
assert hit + miss > 0, "grid run recorded no plan-cache lookups"
assert report["assembly"]["counters"]["llm.link_index.distractor_builds"] > 0, (
    "grid run ranked no distractors")
spans = report["deterministic"]["spans"]
assert spans["cell"]["count"] > 0, "no cell spans recorded"
print(f"    {len(seen)} metric keys, plan-cache hit rate "
      f"{hit / (hit + miss):.3f}, {spans['cell']['count']} cell spans")
PY

echo "==> checkpoint kill/resume smoke (SIGKILL mid-grid, resume, byte-compare)"
# Crash-recovery smoke: run the grid with a deterministic abort injected
# after 200 checkpoint writes, resume from the surviving store, and
# byte-compare the resumed manifest against an uninterrupted run. Also
# merges a 2-way shard split into the same bytes.
ckpt_dir=$(mktemp -d)
manifest_dir=$(mktemp -d)
trap 'rm -f "$telemetry_out"; rm -rf "$ckpt_dir" "$manifest_dir"' EXIT
snails=./target/release/snails
"$snails" grid --threads 4 --out "$manifest_dir/clean.txt" 2> /dev/null
if "$snails" grid --threads 4 --ckpt "$ckpt_dir" --kill-after 200 \
        --out "$manifest_dir/killed.txt" 2> /dev/null; then
    echo "error: --kill-after 200 run was expected to abort mid-grid" >&2
    exit 1
fi
[ ! -f "$manifest_dir/killed.txt" ] || {
    echo "error: killed run should not have produced a manifest" >&2
    exit 1
}
"$snails" grid --threads 4 --ckpt "$ckpt_dir" --out "$manifest_dir/resumed.txt" 2> /dev/null
cmp -s "$manifest_dir/clean.txt" "$manifest_dir/resumed.txt" || {
    echo "error: resumed manifest differs from the uninterrupted run" >&2
    exit 1
}
"$snails" grid --threads 2 --shard 0/2 --out "$manifest_dir/s0.txt" 2> /dev/null
"$snails" grid --threads 8 --shard 1/2 --out "$manifest_dir/s1.txt" 2> /dev/null
"$snails" merge --out "$manifest_dir/merged.txt" \
    "$manifest_dir/s1.txt" "$manifest_dir/s0.txt" 2> /dev/null
cmp -s "$manifest_dir/clean.txt" "$manifest_dir/merged.txt" || {
    echo "error: 2-way shard merge differs from the single-process run" >&2
    exit 1
}
echo "    kill@200 resume and 2-way shard merge both byte-identical"

echo "==> snails explain (stable across threads 1/2/8, JSON parses, est vs actual)"
# The cost-based planner's explanation must be a pure function of the
# plan and the statistics — never of the thread count — and the trailing
# machine-readable line must parse and carry estimated vs actual
# cardinalities on at least one join operator of a 3-table gold query.
"$snails" explain KIS 32 --threads 1 > "$manifest_dir/explain1.txt"
"$snails" explain KIS 32 --threads 2 > "$manifest_dir/explain2.txt"
"$snails" explain KIS 32 --threads 8 > "$manifest_dir/explain8.txt"
cmp -s "$manifest_dir/explain1.txt" "$manifest_dir/explain2.txt" || {
    echo "error: explain output differs between --threads 1 and 2" >&2
    exit 1
}
cmp -s "$manifest_dir/explain1.txt" "$manifest_dir/explain8.txt" || {
    echo "error: explain output differs between --threads 1 and 8" >&2
    exit 1
}
python3 - "$manifest_dir/explain1.txt" <<'PY'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.startswith('{"explain":')]
assert len(lines) == 1, "expected exactly one machine-readable explain line"
ex = json.loads(lines[0])["explain"]
assert ex["optimized"], "KIS question 32 should be optimizer-eligible"
joins = [s for s in ex["steps"] if s["op"].startswith("join")]
assert joins, "no join operators in the 3-table explain"
for s in joins:
    assert isinstance(s["est_rows"], (int, float)), "join step lacks est_rows"
    assert isinstance(s["actual_rows"], int), "join step lacks actual_rows"
print(f"    optimized 3-table plan, {len(joins)} joins, "
      f"order {ex['join_order']}, {ex['rows_out']} rows out")
PY

echo "==> optimizer equivalence on the grid (--no-optimize byte-identical)"
# Every grid record the optimizer touches must stay byte-identical to the
# unoptimized run: the planner may only change how answers are computed,
# never the answers, the match verdicts, or the manifest bytes.
"$snails" grid --threads 4 --no-optimize --out "$manifest_dir/noopt.txt" 2> /dev/null
cmp -s "$manifest_dir/clean.txt" "$manifest_dir/noopt.txt" || {
    echo "error: optimizer-on grid manifest differs from --no-optimize" >&2
    exit 1
}
echo "    optimizer-on and --no-optimize grid manifests byte-identical"

echo "==> BENCH_engine.json artifact (exists, well-formed, plan stage present)"
# `snails bench` writes the artifact as its last act; it must exist, be
# valid JSON, and carry the plan_exec stage with identical results.
[ -f BENCH_engine.json ] || {
    echo "error: snails bench did not write BENCH_engine.json (re-run" \
         "'cargo run --release --bin snails -- bench' to regenerate it)" >&2
    exit 1
}
python3 - <<'PY'
import json, sys
try:
    doc = json.load(open("BENCH_engine.json"))
except ValueError as exc:
    sys.exit(f"error: BENCH_engine.json is not valid JSON ({exc}); "
             "re-run 'cargo run --release --bin snails -- bench'")
stages = {s["bench"]: s for s in doc["stages"]}
assert "plan_exec" in stages, "plan_exec stage missing"
assert stages["plan_exec"]["results_identical"], "compiled plans diverged"
assert stages["grid_determinism"]["identical"], "grid not thread-deterministic"
print(f"    plan_exec speedup {stages['plan_exec']['speedup']}x, "
      f"{stages['plan_exec']['rows_per_s']} rows/s, telemetry overhead "
      f"{stages['plan_exec']['telemetry_overhead_pct']}%")
# Vectorized executor: the fused pipelines must beat the row-at-a-time
# plan path on the gold workload by the PR 9 floor, return byte-identical
# results everywhere, and sustain the million-row synthetic join at the
# 9M rows/s floor with steady-state allocations pooled away.
vec = stages["vector_exec"]
assert vec["results_identical"], "vectorized results diverged"
assert vec["speedup_vs_row_plan"] >= 4.5, (
    f"fused pipelines below the 4.5x floor over row plans "
    f"({vec['speedup_vs_row_plan']}x)")
join = stages["synthetic_join"]
assert join["results_identical"], "synthetic join results diverged"
assert join["rows"] >= 1_000_000, "synthetic join below the 1M-row scale"
assert join["rows_per_s"] >= 9_000_000, (
    f"synthetic join below the 9M rows/s floor ({join['rows_per_s']})")
assert join["allocs_per_batch"] <= 2.0, (
    f"steady-state allocations not pooled: {join['allocs_per_batch']} "
    "allocs per batch in the synthetic join hot loop (floor: 2)")
sweep = stages["vector_batch_sweep"]
assert "ms_adaptive" in sweep, "sweep does not record the adaptive policy"
assert sweep["adaptive_pick_width2"] > sweep["adaptive_pick_width32"], (
    "adaptive batch sizing is not width-sensitive")
# Cost-based planner: the 3-table star-join stage must show at least the
# 3x floor from join reordering + predicate pushdown + index probes, with
# byte-identical results, and the plan-cache capacity stage must render a
# compulsory-vs-capacity verdict from a real hit-rate measurement.
mj = stages["multi_join"]
assert mj["results_identical"], "optimized multi-join results diverged"
assert mj["speedup"] >= 7.0, (
    f"multi_join speedup {mj['speedup']}x below the 7x floor")
cap = stages["plan_cache_capacity"]
assert cap["misses_are"] in ("compulsory", "capacity"), "bad cache verdict"
assert cap["records_match"], "capacity-bounded grid records diverged"
print(f"    multi_join {mj['speedup']}x over unoptimized at "
      f"{mj['rows']} fact rows; plan cache misses are {cap['misses_are']} "
      f"(hit rate {cap['hit_rate']} -> {cap['hit_rate_2x']} at 2x)")
ckpt = stages["checkpoint_resume"]
assert ckpt["identical"], "resume / shard-merge diverged from the cold run"
assert ckpt["resume_hits"] > 0, "50% resume restored no checkpointed cells"
print(f"    checkpoint_resume cold {ckpt['cold_ms']}ms, 50%-resume "
      f"{ckpt['resume50_ms']}ms ({ckpt['resume_speedup']}x), 4-shard "
      f"{ckpt['shard4_ms']}ms + merge {ckpt['merge_ms']}ms")
print(f"    vector_exec {vec['speedup_vs_interpreter']}x vs interpreter, "
      f"{vec['speedup_vs_row_plan']}x vs row plans; synthetic_join "
      f"{join['speedup']}x at {join['rows_per_s']} rows/s, "
      f"{join['allocs_per_batch']} allocs/batch")
PY

echo "==> snails load (serve suite: >=1000 clients, deterministic replay, overload)"
# The in-process serving load suite exits non-zero on any violated gate
# (dropped requests, diverging serial transcripts, unbounded queue); the
# validator then re-checks the BENCH_serve.json artifact it wrote so a
# malformed artifact fails fast even if the run "passed".
"$snails" load --clients 1024 --requests 2 --out BENCH_serve.json
python3 - <<'PY'
import json, sys
try:
    doc = json.load(open("BENCH_serve.json"))
except ValueError as exc:
    sys.exit(f"error: BENCH_serve.json is not valid JSON ({exc}); "
             "re-run './target/release/snails load'")
stages = {s["serve"]: s for s in doc["stages"]}
for name in ("load", "serial_replay", "fault_soak", "overload"):
    assert name in stages, f"serve stage {name} missing from BENCH_serve.json"
load = stages["load"]
assert load["clients"] >= 1000, f"load stage ran only {load['clients']} clients"
assert load["dropped"] == 0, f"{load['dropped']} requests never resolved"
assert load["ok"] + load["errors"] + load["shed"] == load["requests"], \
    "load accounting does not add up"
for key in ("p50_us", "p99_us", "throughput_rps"):
    assert isinstance(load[key], (int, float)), f"load stage lacks {key}"
replay = stages["serial_replay"]
assert replay["identical"], "serial replay transcripts or telemetry diverged"
assert replay["transcripts"] == 1 and replay["telemetries"] == 1
assert replay["shed"] > 0, "replay burst never exercised the shed path"
soak = stages["fault_soak"]
assert soak["dropped"] == 0, "fault soak dropped requests"
assert soak["faults_injected"] > 0, "flaky profile injected nothing"
assert soak["tenants_reconciled"], "per-tenant counters leaked under faults"
over = stages["overload"]
assert over["shed_exact"] and over["bounded"] and over["complete"] \
    and over["drain_complete"], f"overload invariants violated: {over}"
print(f"    {load['clients']} clients at {load['throughput_rps']} rps "
      f"(p50 {load['p50_us']}us, p99 {load['p99_us']}us); replay identical "
      f"across threads 1/2/8; overload shed {over['shed']} of 64 at depth "
      f"{over['queue_depth']}")
PY

echo "==> snails serve smoke (unix socket, lockstep load, shutdown frame)"
# A serial server on a real unix socket, driven by a short seeded lockstep
# load, then shut down over its own wire. Gates: zero dropped requests and
# a truthful Goodbye.
serve_sock="$manifest_dir/serve.sock"
serve_log="$manifest_dir/serve.log"
"$snails" serve --socket "$serve_sock" --serial --dbs CWO --tenants alpha,beta \
    > "$serve_log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 200); do [ -S "$serve_sock" ] && break; sleep 0.1; done
[ -S "$serve_sock" ] || {
    echo "error: snails serve never bound its socket" >&2
    cat "$serve_log" >&2
    kill "$serve_pid" 2> /dev/null || true
    exit 1
}
load_out=$("$snails" load --socket "$serve_sock" --dbs CWO --tenants alpha,beta \
    --clients 6 --requests 3 --shutdown)
echo "$load_out" | grep -q '"dropped":0' || {
    echo "error: socket load smoke dropped requests: $load_out" >&2
    exit 1
}
echo "$load_out" | grep -q '"load":"shutdown","responses":18' || {
    echo "error: shutdown Goodbye did not report all 18 responses: $load_out" >&2
    exit 1
}
wait "$serve_pid" || {
    echo "error: snails serve exited non-zero" >&2
    cat "$serve_log" >&2
    exit 1
}
grep -q '"serve":"goodbye","responses":18' "$serve_log" || {
    echo "error: server goodbye line missing or wrong: $(cat "$serve_log")" >&2
    exit 1
}
echo "    6 clients x 3 requests over the socket, 0 dropped, clean goodbye"

echo "==> all checks passed"
