#!/usr/bin/env bash
# Tier-1 verification gate. Everything runs with --offline: the build
# must stay hermetic (path-only workspace dependencies, no registry).
#
#   scripts/ci.sh            # fmt + build + tests + smoke bench
#
# The smoke bench exercises the mpvl-testkit harness end to end and
# leaves a machine-readable timing record in
# target/bench/BENCH_sparse_ldlt.json.
set -euo pipefail
cd "$(dirname "$0")/.."

# Deprecated names are shims for one release cycle: external code gets a
# warning, in-tree code must not use them. No in-tree file opts back in
# with #[allow(deprecated)].
export RUSTFLAGS="-D deprecated"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> console-hygiene gate (no println!/eprintln! in library code)"
# Library crates must route console output through mpvl_obs::cprintln!/
# ceprintln! (or a real sink); stray debug prints corrupt the bench
# tables and the MPVL_OBS=json stderr export. Exempt: binaries
# (src/bin/), doc-comment lines, and anything after a #[cfg(test)]
# module starts. cprintln!/ceprintln! themselves don't match — the
# leading `c` fails the word boundary.
violations=$(
    # `|| true`: an empty survivor set exits the grep pipeline nonzero,
    # which is the *passing* case under pipefail.
    { grep -rnE '(^|[^_[:alnum:]])(println|eprintln)!' crates/*/src --include='*.rs' \
        | grep -v '/src/bin/' \
        | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true; } \
        | while IFS=: read -r file line rest; do
            if ! head -n "$line" "$file" | grep -q '#\[cfg(test)\]'; then
                echo "$file:$line:$rest"
            fi
        done
)
if [ -n "$violations" ]; then
    echo "$violations" >&2
    echo "console-hygiene gate failed: use mpvl_obs::cprintln!/ceprintln!" >&2
    exit 1
fi

echo "==> cargo build --release --offline --all-targets"
# --all-targets pulls in the examples and integration tests, so a
# deprecated name anywhere in tree fails here under -D deprecated.
cargo build --release --offline --all-targets

echo "==> cargo build --release --offline --locked (reqbench workspace)"
# reqbench is its own workspace with path dependencies on crates/*, so
# the workspace build above does not cover it. Build-only: a renamed or
# deleted public name breaks the benchmark here. --locked rewrites no
# file under reqbench/.
cargo build --release --offline --locked --manifest-path reqbench/Cargo.toml

echo "==> cargo test -q --offline (MPVL_THREADS=1: single-thread fallback)"
# The env pin keeps the mpvl-par inline fallback on every env-driven
# entry point; the multi-thread pool is still exercised explicitly by
# crates/sim/tests/par_determinism.rs and the mpvl-par unit tests.
MPVL_THREADS=1 cargo test -q --offline

echo "==> smoke bench (bench_sparse_ldlt, reduced samples)"
MPVL_BENCH_WARMUP=1 MPVL_BENCH_SAMPLES=3 \
    cargo run -q --release --offline -p mpvl-bench --bin bench_sparse_ldlt

test -s target/bench/BENCH_sparse_ldlt.json
for name in ldlt_numeric_scalar/1360 ldlt_numeric_supernodal/1360 \
    speedup/supernodal_vs_scalar/1360 order_mindegree/path5000 \
    order_mindegree/path20000 order_mindegree/grid50 order_mindegree/grid100 \
    order_mindegree/grid200 order_mindegree/grid316; do
    grep -q "\"$name" target/bench/BENCH_sparse_ldlt.json || {
        echo "BENCH_sparse_ldlt.json missing result \"$name\"" >&2
        exit 1
    }
done

echo "==> golden bit-identity across thread counts (MPVL_THREADS=2,4)"
# The MPVL_THREADS=1 run above already covered the single-thread golden
# fingerprints; the reduction must produce the same bits at any worker
# count (column-chunked fan-out with the identical serial kernel).
MPVL_THREADS=2 cargo test -q --offline -p sympvl --test golden_bitident
MPVL_THREADS=4 cargo test -q --offline -p sympvl --test golden_bitident

echo "==> obs counter export across thread counts (MPVL_THREADS=2,4)"
# The pipeline suite pins the reduction's counter export byte for byte
# (structural Auto skips, dense fallbacks, Lanczos and LDLT counts); the
# same text must come out at any worker count.
MPVL_THREADS=2 cargo test -q --offline -p sympvl --test obs_pipeline
MPVL_THREADS=4 cargo test -q --offline -p sympvl --test obs_pipeline

echo "==> smoke bench (bench_lanczos, reduced samples)"
MPVL_BENCH_WARMUP=1 MPVL_BENCH_SAMPLES=3 \
    cargo run -q --release --offline -p mpvl-bench --bin bench_lanczos

test -s target/bench/BENCH_lanczos.json
grep -q '"suite": *"lanczos"' target/bench/BENCH_lanczos.json
for name in sympvl_order/8 sympvl_order/64 sympvl_size sympvl_reorth/full \
    sympvl_reorth/banded; do
    grep -q "\"$name" target/bench/BENCH_lanczos.json || {
        echo "BENCH_lanczos.json missing result \"$name\"" >&2
        exit 1
    }
done

echo "==> smoke bench (bench_engine, reduced samples)"
MPVL_BENCH_WARMUP=1 MPVL_BENCH_SAMPLES=3 \
    cargo run -q --release --offline -p mpvl-bench --bin bench_engine

test -s target/bench/BENCH_engine.json
grep -q '"suite": *"engine"' target/bench/BENCH_engine.json
for name in session_rc/cold session_rc/warm session_rlc/cold \
    session_rlc/warm ac_sweep/cold ac_sweep/warm; do
    grep -q "\"$name" target/bench/BENCH_engine.json || {
        echo "BENCH_engine.json missing result \"$name\"" >&2
        exit 1
    }
done

echo "==> session determinism across threads (MPVL_THREADS=2)"
# The MPVL_THREADS=1 workspace run above already covered the inline
# path; the engine's batch fan-out must be bit-identical with a pool.
MPVL_THREADS=2 cargo test -q --offline -p mpvl-engine --test session_determinism

echo "==> multi-point determinism across threads (MPVL_THREADS=2)"
# The multi-point driver is sequential over expansion points, so its
# merged models must be bit-identical to the free function at any cache
# state and any worker count (the suite also sweeps eval at 1/2/4
# in-process).
MPVL_THREADS=2 cargo test -q --offline -p mpvl-engine --test multipoint_determinism

echo "==> backend cross-validation golden (MPVL_THREADS=2,4)"
# Padé and balanced truncation share no approximation machinery; the
# golden suite pins their agreement inside the Hankel bound and every
# cross-validation scalar bit-identical at any worker count (the
# MPVL_THREADS=1 workspace run above covered the inline path).
MPVL_THREADS=2 cargo test -q --offline -p mpvl-engine --test cross_validate_golden
MPVL_THREADS=4 cargo test -q --offline -p mpvl-engine --test cross_validate_golden

echo "==> smoke bench (bench_par_sweep, MPVL_THREADS=2, MPVL_OBS=json export)"
rm -f target/obs/ci_smoke.jsonl
MPVL_BENCH_WARMUP=1 MPVL_BENCH_SAMPLES=3 MPVL_THREADS=2 \
    MPVL_OBS=json:target/obs/ci_smoke.jsonl \
    cargo run -q --release --offline -p mpvl-bench --bin bench_par_sweep

test -s target/bench/BENCH_par_sweep.json
for name in ac_sweep_large8/threads=1 ac_sweep_large8/threads=4 \
    speedup/large8_t4_vs_t1; do
    grep -q "\"$name" target/bench/BENCH_par_sweep.json || {
        echo "BENCH_par_sweep.json missing result \"$name\"" >&2
        exit 1
    }
done

echo "==> validate obs export (target/obs/ci_smoke.jsonl)"
cargo run -q --release --offline -p mpvl-bench --bin obs_validate -- \
    target/obs/ci_smoke.jsonl

echo "==> service layer across threads (MPVL_THREADS=2, stress also at 4)"
# The MPVL_THREADS=1 workspace run above covered the inline path. The
# service smoke suite walks ingest -> reduce -> evict -> re-ingest
# (registry hit) end to end; the stress suite replays a multi-client
# workload against shared sessions and asserts byte-identity with a
# serial reference at every worker count.
MPVL_THREADS=2 cargo test -q --offline -p mpvl-service
MPVL_THREADS=4 cargo test -q --offline -p mpvl-service --test service_stress

echo "==> poison + eviction regression (engine session hardening)"
# One crashed request must never brick a session (locks recover from
# poisoning) and the bounded model store must retire ids with a typed
# error, not a silent miss. Re-run the dedicated unit tests with a pool.
MPVL_THREADS=2 cargo test -q --offline -p mpvl-engine --lib -- \
    a_panic_under_a_session_lock_does_not_poison_later_requests \
    model_store_is_bounded_and_retires_ids

echo "==> smoke bench (bench_service, reduced samples)"
MPVL_BENCH_WARMUP=1 MPVL_BENCH_SAMPLES=3 \
    cargo run -q --release --offline -p mpvl-bench --bin bench_service

test -s target/bench/BENCH_service.json
grep -q '"suite": *"service"' target/bench/BENCH_service.json
for name in service_submit/cold service_submit/registry_warm \
    service_batch/mixed registry/warm_hit_ratio; do
    grep -q "\"$name" target/bench/BENCH_service.json || {
        echo "BENCH_service.json missing result \"$name\"" >&2
        exit 1
    }
done

echo "==> smoke bench (bench_eval, reduced samples)"
MPVL_BENCH_WARMUP=1 MPVL_BENCH_SAMPLES=3 \
    cargo run -q --release --offline -p mpvl-bench --bin bench_eval

test -s target/bench/BENCH_eval.json
for name in eval_lu/40x2001 eval_compiled/40x2001 \
    speedup/compiled_vs_lu/40x2001 eval_compiled/136x1000 \
    eval_pointwise/136x1000 gflops/compiled/136x1000; do
    grep -q "\"$name" target/bench/BENCH_eval.json || {
        echo "BENCH_eval.json missing result \"$name\"" >&2
        exit 1
    }
done

echo "==> smoke bench (bench_multipoint, reduced samples)"
MPVL_BENCH_WARMUP=1 MPVL_BENCH_SAMPLES=3 \
    cargo run -q --release --offline -p mpvl-bench --bin bench_multipoint

test -s target/bench/BENCH_multipoint.json
grep -q '"suite": *"multipoint"' target/bench/BENCH_multipoint.json
for name in multipoint/worst_band_error singlepoint/worst_band_error \
    multipoint/reduce_2pt multipoint_adaptive/worst_band_error; do
    grep -q "\"$name" target/bench/BENCH_multipoint.json || {
        echo "BENCH_multipoint.json missing result \"$name\"" >&2
        exit 1
    }
done

echo "==> smoke bench (bench_bt, reduced samples)"
MPVL_BENCH_WARMUP=1 MPVL_BENCH_SAMPLES=3 \
    cargo run -q --release --offline -p mpvl-bench --bin bench_bt

test -s target/bench/BENCH_bt.json
grep -q '"suite": *"bt"' target/bench/BENCH_bt.json
for name in bt/worst_band_error pade/worst_band_error \
    bt/hankel_spectrum bt/reduce bt/hankel_bound; do
    grep -q "\"$name" target/bench/BENCH_bt.json || {
        echo "BENCH_bt.json missing result \"$name\"" >&2
        exit 1
    }
done

echo "==> bench gate (factor kernel, sweep scaling, compiled eval, registry, multi-point, balanced truncation, path and mesh ordering scaling)"
# Fails if the supernodal kernel is slower than the scalar kernel at
# n=1360, if the threads=4 large-case sweep does not beat threads=1
# (strict on multicore; a loud skip + oversubscription bound on 1 core),
# if the compiled pole-residue eval is not faster than per-point LU, or
# if the warm service registry hit ratio drops below 0.5 / a registry
# hit stops being faster than a cold submit, or if the 2-point merged
# model stops beating the equal-order mid-band single-point expansion
# on worst-over-band error, or if balanced truncation stops beating the
# equal-order mid-band Pade expansion on the strongly-coupled PEEC band,
# or if min-degree ordering of a path stops scaling near-linearly
# (path20000 / path5000 time ratio must stay below 8), or of a mesh
# (grid316 / grid50 time ratio must stay below 100).
cargo run -q --release --offline -p mpvl-bench --bin bench_gate

echo "==> ci.sh: all green"
