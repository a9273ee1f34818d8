#!/usr/bin/env sh
# Tier-1 gate: everything a PR must keep green.
#   build + full test suite + clippy (deny warnings) + smoke runs +
#   the benchmark's self-test.
# Usage: scripts/tier1.sh   (from the repo root)
# Opt-in: BENCH_REGRESS=1 additionally runs scripts/bench_regress.sh
# (off by default — shared-container wall clock is too noisy to block
# every commit on it).
set -eu

echo "== build (release) =="
cargo build --workspace --release

echo "== tests =="
cargo test --workspace -q

echo "== kernels tests, forced-scalar tier (KERNELS_FORCE_SCALAR=1) =="
# The workspace run above exercises auto ISA dispatch (whatever the host
# exposes: AES-NI, SHA-NI, AVX2, ...). This second run pins every kernel
# to its scalar reference path through the same public entry points, so
# both dispatch tiers — and the env-var plumbing itself — stay covered
# by the same equivalence suite.
KERNELS_FORCE_SCALAR=1 cargo test -q -p accelerometer-kernels

echo "== clippy (deny warnings, release) =="
# Release profile so lint analysis sees the same cfg/codegen surface the
# perf-sensitive release builds use (and shares the build cache with the
# release build above).
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== --jobs smoke: tables table6 at widths 1 and 2 must match byte-for-byte =="
out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT
./target/release/tables --jobs 1 table6 > "$out_dir/j1.txt"
./target/release/tables --jobs 2 table6 > "$out_dir/j2.txt"
cmp "$out_dir/j1.txt" "$out_dir/j2.txt"

echo "== faults smoke: accelctl faults at widths 1 and 2 must match the committed fixture =="
./target/release/accelctl --jobs 1 faults > "$out_dir/faults_j1.json"
./target/release/accelctl --jobs 2 faults > "$out_dir/faults_j2.json"
cmp "$out_dir/faults_j1.json" "$out_dir/faults_j2.json"
# The binary appends a trailing newline to the report; the fixture
# stores the bare JSON string.
printf '\n' | cat crates/cli/tests/fixtures/golden_faults.json - > "$out_dir/faults_expected.json"
cmp "$out_dir/faults_expected.json" "$out_dir/faults_j1.json"

echo "== shards smoke: accelctl --shards 1 and 4 must match the committed sharded fixture =="
# The shard decomposition is derived from the configuration, so the
# worker width can only change wall-clock time, never a byte of output.
./target/release/accelctl --shards 1 faults > "$out_dir/faults_s1.json"
./target/release/accelctl --shards 4 faults > "$out_dir/faults_s4.json"
cmp "$out_dir/faults_s1.json" "$out_dir/faults_s4.json"
printf '\n' | cat crates/cli/tests/fixtures/golden_faults_sharded.json - > "$out_dir/faults_sharded_expected.json"
cmp "$out_dir/faults_sharded_expected.json" "$out_dir/faults_s1.json"

echo "== heavy-fallback smoke: fallback slices must conserve core capacity at any shard width =="
# configs/faults-heavy-fallback.json drives 60% of offload attempts into
# the fault path with a one-retry + fallback-to-host policy: over a
# third of all kernels re-execute on the host. Those re-executions are
# real scheduled slices, so (a) core_utilization must stay <= 1 for
# every policy — the old phantom accounting pushed it past 1 — and
# (b) the report must be byte-identical whether the simulation runs
# monolithically or sharded 4 ways.
./target/release/accelctl --shards 1 faults configs/faults-heavy-fallback.json > "$out_dir/faults_heavy_s1.json"
./target/release/accelctl --shards 4 faults configs/faults-heavy-fallback.json > "$out_dir/faults_heavy_s4.json"
cmp "$out_dir/faults_heavy_s1.json" "$out_dir/faults_heavy_s4.json"
grep '"fallbacks"' "$out_dir/faults_heavy_s1.json" | awk -F': ' \
    '{ gsub(/,/, "", $2); total += $2 } END { if (total < 1000) { print "heavy-fallback smoke: expected >= 1000 fallbacks, got " total; exit 1 } }'
grep '"core_utilization"' "$out_dir/faults_heavy_s1.json" | awk -F': ' \
    '{ gsub(/,/, "", $2); if ($2 + 0.0 > 1.0) { print "core_utilization " $2 " exceeds 1.0"; exit 1 } }'

echo "== trace-reuse smoke: accelctl faults with reuse on and off must match byte-for-byte =="
# Cross-point frozen-trace reuse replays pre-drawn requests instead of
# redrawing them at every sweep grid point; the toggle must be
# unobservable in output bytes (sharded too, where each shard adopts a
# trace for its derived seed).
./target/release/accelctl --trace-reuse on faults > "$out_dir/faults_reuse_on.json"
./target/release/accelctl --trace-reuse off faults > "$out_dir/faults_reuse_off.json"
cmp "$out_dir/faults_reuse_on.json" "$out_dir/faults_reuse_off.json"
cmp "$out_dir/faults_expected.json" "$out_dir/faults_reuse_on.json"

echo "== isa smoke: accelctl --isa scalar and auto must match byte-for-byte =="
# ISA dispatch may only change kernel wall-clock, never an output byte;
# pinning the scalar tier through the CLI must be unobservable in any
# deterministic command's output.
./target/release/accelctl --isa scalar faults > "$out_dir/faults_isa_scalar.json"
./target/release/accelctl --isa auto faults > "$out_dir/faults_isa_auto.json"
cmp "$out_dir/faults_isa_scalar.json" "$out_dir/faults_isa_auto.json"
cmp "$out_dir/faults_expected.json" "$out_dir/faults_isa_scalar.json"

echo "== services gate: every shipped profile pack must parse and validate =="
# A malformed configs/services/*.json (breakdown off 100%, non-monotone
# CDF, negative IPC/rate, wrong filename) fails this command with a
# structured error and breaks the gate.
./target/release/accelctl services validate configs/services

echo "== services smoke: data-driven profiles must be byte-identical to the builtins =="
# The load-bearing equivalence of the data-path refactor: every runner
# driven through --services configs/services must reproduce the
# hard-wired constructors' output byte-for-byte, including against the
# committed golden fixtures (which were NOT re-blessed for the data
# path).
./target/release/accelctl --services configs/services faults > "$out_dir/faults_svc.json"
cmp "$out_dir/faults_expected.json" "$out_dir/faults_svc.json"
./target/release/accelctl --services configs/services --shards 2 faults > "$out_dir/faults_svc_sharded.json"
cmp "$out_dir/faults_sharded_expected.json" "$out_dir/faults_svc_sharded.json"
./target/release/accelctl tables all > "$out_dir/tables_builtin.txt"
./target/release/accelctl --services configs/services tables all > "$out_dir/tables_svc.txt"
cmp "$out_dir/tables_builtin.txt" "$out_dir/tables_svc.txt"
./target/release/tables --services configs/services table6 > "$out_dir/t6_svc.txt"
cmp "$out_dir/j1.txt" "$out_dir/t6_svc.txt"

echo "== characterize smoke: every pack's folded stacks are identical through --services =="
# The trace generator resolves its IPC and symbol tables once, when it is
# built; each pack's collapsed stacks must not depend on whether its
# profile came from the builtins or from configs/services.
for slug in web feed1 feed2 ads1 ads2 cache1 cache2 cache3 ai-inference kvstore pqc; do
    ./target/release/accelctl characterize "$slug" --folded > "$out_dir/folded_builtin.txt"
    ./target/release/accelctl --services configs/services characterize "$slug" --folded > "$out_dir/folded_svc.txt"
    cmp "$out_dir/folded_builtin.txt" "$out_dir/folded_svc.txt"
done

echo "== characterize bound: an out-of-range --samples is a structured error (exit 1) =="
status=0
./target/release/accelctl characterize web --samples 1e18 > /dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "characterize --samples 1e18: expected exit 1, got $status"
    exit 1
fi

echo "== benchmark self-test: perfbench builds against the public API and checks itself =="
# perfbench is a separate package (its own empty [workspace]) that calls
# the simulator's public entry points by path; building and self-testing
# it here turns a break in any API it uses into a tier-1 failure.
cargo test --offline --manifest-path perfbench/Cargo.toml

if [ "${BENCH_REGRESS:-0}" = "1" ]; then
    echo "== bench regression gate (opt-in) =="
    sh scripts/bench_regress.sh
fi

echo "tier1: OK"
