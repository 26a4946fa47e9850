#!/usr/bin/env bash
# Offline CI gate: formatting, lints, and the tier-1 test suite.
#
# The build is fully offline (path-shimmed external deps, see shims/),
# so every cargo invocation passes --offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> gaasx-lint (in-tree invariant checker + suppression ratchet)"
# --baseline is a one-way ratchet on per-rule suppression counts: paying
# debt down never touches the baseline; growing it fails here until
# results/lint_baseline.json is regenerated (and reviewed) with
#   cargo run -q --offline -p gaasx-lint -- . --json > results/lint_baseline.json
cargo run -q --offline -p gaasx-lint -- . --baseline results/lint_baseline.json

echo "==> miri (gated): unsafe-free memory-model check of gaasx-xbar"
# The offline image ships no miri component. When a toolchain with miri
# is available the device crate (CAM field index, hit lists, bit-sliced
# MAC bursts) runs under it; otherwise this step degrades to a visible
# skip rather than a hidden hole. Known-skipped under miri by design (would be filtered via
# GAASX_MIRI_SKIP if ever enabled): none today — the crate is #![forbid(unsafe_code)]
# and file-I/O-free, so the whole suite is miri-eligible.
if cargo miri --version >/dev/null 2>&1; then
    MIRIFLAGS="-Zmiri-strict-provenance" cargo miri test -q --offline -p gaasx-xbar
else
    echo "    skipped: cargo miri not installed in this toolchain"
fi

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline --workspace

echo "==> tier-1: cargo build --release && cargo test"
cargo build --release --offline
cargo test -q --offline

echo "==> modeled results: every deterministic results/ section vs a fresh run"
# Tables I-III, Figs 5 and 11-17, the GAPBS table, the phase table and the
# trace demo (not the *_host sections, which hold host wall-clock cells),
# byte for byte: a change to any modeled number, to either engine's schedule or
# to the phase attribution fails here until results/ is regenerated with
#   cargo run --release --offline -p gaasx-bench --bin experiments
cargo run -q --release --offline -p gaasx-bench --bin experiments -- --check

echo "==> workspace tests"
cargo test -q --workspace --offline

echo "==> self-checking reports at smoke size"
# jobs_scaling: sharded runs at jobs 1/2/4 bit-identical to serial.
# fault_campaign: recovered results equal the fault-free ones, BER=0 is
#   bit-identical, and the unrecoverable case degrades to a typed error.
# serve_soak: typed degradation and exact per-tenant billing.
# trace_export: the Chrome-trace JSON passes its structural scan.
cargo run -q --release --offline -p gaasx-bench --bin experiments -- --smoke \
    --timeline-out results/ci_trace.json jobs_scaling fault_campaign serve_soak trace_export
rm -f results/ci_trace.json

echo "==> oracle matrix: PR/SSSP/BFS/CC and batched BFS/SSSP x banks x fault x jobs vs reference oracles"
# The tier-1 pass above already runs this in the dev profile, where every
# index-served CAM search is also cross-checked against the scalar scan;
# re-running it under --release covers the binary shape the repo benchmark
# times, with that cross-check compiled out.
cargo test -q --release --offline --test oracle_matrix

echo "==> op sequences and fault properties (release)"
# The traced operation digests (fault-free and under keyed fault draws)
# and the fault-layer properties, in the release shape the benchmark
# times: keyed draws and the bulk verified load must give the same span
# streams and the same recovered answers there as in the dev profile.
cargo test -q --release --offline -p gaasx-core --test op_sequence --test fault_props

echo "==> allocation bounds (release): warm sweeps allocate nothing, warm traversals once per loaded shard"
# The tier-1 and workspace passes run this in the dev profile; the
# benchmark times release builds, whose inlining and buffer growth differ,
# so the zero-allocation sweeps and the warm BFS/SSSP/batch bound on a
# resident sharded engine are checked in that shape too.
cargo test -q --release --offline -p gaasx-core --test zero_alloc

echo "==> matcher equivalence (release): bucket field index + scan fallback vs reference scan, quantized MAC bursts, CAM and MAC program_block twin checks"
# Release builds compile out the per-search debug cross-check against the
# scalar scan, so this is the only release-mode check of the field index.
# It also runs the program_block twin checks: a bulk block program must
# leave a CAM exactly as invalidate_all plus one write per row does, and
# a MAC crossbar exactly as one write_row per row does (cells, stats,
# fault counters, wear and the next writes).
cargo test -q --release --offline -p gaasx-xbar --test packed_equivalence

echo "==> repo benchmark: fmt, clippy -D warnings, tests, --smoke"
# The benchmark is a Cargo package of its own (empty [workspace], own lock
# file), so the workspace-wide steps above do not reach it. Its build
# output goes under the workspace's ignored target/, not beside its
# sources under crates/.
BENCH_MANIFEST=crates/bench/src/bin/benchmark/Cargo.toml
BENCH_TARGET=target/benchmark
cargo fmt --check --manifest-path "$BENCH_MANIFEST"
cargo clippy -q --release --offline --all-targets --manifest-path "$BENCH_MANIFEST" \
    --target-dir "$BENCH_TARGET" -- -D warnings
cargo test -q --release --offline --manifest-path "$BENCH_MANIFEST" --target-dir "$BENCH_TARGET"
cargo run -q --release --offline --manifest-path "$BENCH_MANIFEST" --target-dir "$BENCH_TARGET" -- --smoke

echo "CI gate passed."
