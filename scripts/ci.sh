#!/usr/bin/env bash
# Hermetic CI: build, test and lint fully offline, then smoke-check that
# the figures binary still reproduces the committed reference run
# byte-for-byte (serially and in parallel).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo build --release --offline
cargo build --release --offline --examples
cargo test -q --offline
# Second test leg with the runtime invariant checkers armed: every
# component self-checks on every access and any violation fails the run.
STTCACHE_INVARIANTS=1 cargo test -q --offline
cargo clippy --offline --workspace --all-targets -- -D warnings

# Differential fuzzer: adversarial traces on every catalog organization,
# cross-checked against the shadow-memory oracle and the SRAM baseline.
./target/release/sttcache-check --quick
# Same battery as randomized 2-4 core mixes over the shared L2:
# co-scheduled runs cross-checked against per-core isolated runs, the
# per-core shadow oracles and the residency/conservation audit.
./target/release/sttcache-check --quick --kind multicore
# The irregular pointer-chasing family through the oracle and
# replay-vs-direct cross-checks at once — data-dependent streams, no affine safety net.
./target/release/sttcache-check --quick --kind irregular --events 2000

smoke="$(mktemp)"
trap 'rm -f "$smoke"' EXIT

./target/release/figures all > "$smoke"
diff -u figures_output.txt "$smoke"

./target/release/figures all --serial > "$smoke"
diff -u figures_output.txt "$smoke"

# The trace cache must be invisible in the output: byte-identical with
# the cache off, with every SRAM-baseline grid point's replay
# cross-checked against direct execution, and with the runtime invariant
# checkers armed.
./target/release/figures all --no-trace-cache > "$smoke"
diff -u figures_output.txt "$smoke"

STTCACHE_TRACE_CHECK=1 ./target/release/figures all > "$smoke"
diff -u figures_output.txt "$smoke"

STTCACHE_INVARIANTS=1 ./target/release/figures all > "$smoke"
diff -u figures_output.txt "$smoke"

# Telemetry must be observation-only: byte-identical output with the
# component registry armed, and again while exporting the span trace.
STTCACHE_TELEMETRY=1 ./target/release/figures all > "$smoke"
diff -u figures_output.txt "$smoke"

ttrace="$(mktemp)"
trap 'rm -f "$smoke" "$ttrace"' EXIT
./target/release/figures all --telemetry-json "$ttrace" > "$smoke" 2> /dev/null
diff -u figures_output.txt "$smoke"
grep -q '"traceEvents"' "$ttrace"
grep -q '"ph": "X"' "$ttrace"

# Multi-core: the shared-hierarchy interleave is deterministic, so the
# opt-in contention figure must be byte-identical serially, at any
# worker count and with the invariant checkers armed — and a two-core
# sim run must reproduce itself exactly.
mc="$(mktemp)"
trap 'rm -f "$smoke" "$ttrace" "$mc"' EXIT
./target/release/figures multicore --serial > "$smoke"
./target/release/figures multicore --jobs 4 > "$mc"
diff -u "$smoke" "$mc"
STTCACHE_INVARIANTS=1 ./target/release/figures multicore > "$mc"
diff -u "$smoke" "$mc"
./target/release/sim --cores 2 > "$smoke"
./target/release/sim --cores 2 > "$mc"
diff -u "$smoke" "$mc"

# The opt-in irregular sweep is deterministic at any worker count.
./target/release/figures irregular --serial > "$smoke"
./target/release/figures irregular --jobs 4 > "$mc"
diff -u "$smoke" "$mc"

# External trace ingestion: a recorded trace must replay byte-identically
# through --trace-file (same cycles the recording example reports) and
# parse as a file: mix entry.
exttrace="$(mktemp -u).trace"
trap 'rm -f "$smoke" "$ttrace" "$mc" "$exttrace"' EXIT
./target/release/examples/trace_sweep "$exttrace" > /dev/null
./target/release/sim --trace-file "$exttrace" --org vwb > "$smoke"
./target/release/sim --trace-file "$exttrace" --org vwb > "$mc"
diff -u "$smoke" "$mc"
grep -q '^# sim: trace:' "$smoke"
./target/release/sim --cores 2 --mix "file:$exttrace@64:vwb+gemm:sram" > "$mc"
grep -q 'file:' "$mc"

# The profiled snapshot path stays runnable and records the
# telemetry-gate overhead.
snapshot="$(mktemp)"
trap 'rm -f "$smoke" "$ttrace" "$mc" "$snapshot"' EXIT
scripts/bench_snapshot.sh "$snapshot" > /dev/null
grep -q '"trace_cache_enabled": true' "$snapshot"
grep -q '"disarmed_overhead_pct"' "$snapshot"

# The benchmark's correctness digests as a gate: its self-tests, then a
# short run of every workload, where each result line must report
# "failed": 0 against the committed sttbench/reference/*.txt. The
# benchmark refuses to run with any STTCACHE_* variable set, so those are
# cleared for this leg only.
cargo test -q --offline --manifest-path sttbench/Cargo.toml
bench_out="$(mktemp)"
trap 'rm -f "$smoke" "$ttrace" "$mc" "$snapshot" "$bench_out"' EXIT
env $(env | sed -n 's/^\(STTCACHE_[A-Za-z0-9_]*\)=.*/-u \1/p') \
    cargo run --quiet --release --offline --manifest-path sttbench/Cargo.toml -- \
    --workload all --seed 1 --seconds 5 --trace 0 > "$bench_out"
results="$(grep -c '^{' "$bench_out" || true)"
passed="$(grep '^{' "$bench_out" | grep -c '"failed": 0,' || true)"
if [ "$results" -eq 0 ] || [ "$passed" -ne "$results" ]; then
    echo "ci: benchmark digests: $passed of $results result lines report no failures" >&2
    grep '^{' "$bench_out" >&2
    exit 1
fi

# Bench regression gate against the committed snapshot. Failing is the
# default; set STTCACHE_BENCH_GATE=warn on runners whose wall-clock is
# too noisy to enforce a 25 % bound.
STTCACHE_BENCH_GATE="${STTCACHE_BENCH_GATE:-fail}" scripts/bench_gate.sh

echo "ci: fmt, build, tests (plain + invariants armed), clippy, differential + multicore + irregular fuzzers, figures smoke (telemetry on and off), multi-core + irregular determinism, external-trace replay, trace-cache checks, benchmark digests and bench gate all green"
