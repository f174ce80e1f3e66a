#!/usr/bin/env bash
# Tier-1 verification, fully offline and warning-clean.
#
# The workspace is hermetic (path dependencies only, Cargo.lock
# committed), so --offline must always succeed; any attempt to reach a
# registry is a bug. -Dwarnings keeps the workspace warning-clean.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="-Dwarnings ${RUSTFLAGS:-}"

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo build --release --offline --locked (ledger benchmark package)"
# The benchmark lives outside the workspace but reads the library APIs
# (CacheStats, Config, Server); building it here makes a change to those
# APIs fail CI instead of the next benchmark run.
cargo build --release --offline --locked --manifest-path ledger/Cargo.toml

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> bench smoke run (quick mode)"
HARNESS_BENCH_QUICK=1 cargo bench --offline -p bench --bench omega_solver >/dev/null
HARNESS_BENCH_QUICK=1 cargo bench --offline -p bench --bench parallel_scaling >/dev/null
HARNESS_BENCH_QUICK=1 cargo bench --offline -p bench --bench warm_cache >/dev/null

echo "==> cache/prefilter/determinism smoke (includes the corpus-scaling gate)"
cargo run -q --release --offline -p bench --bin smoke

echo "==> CLI corpus mode byte-identity (1 vs 8 threads)"
# The whole built-in corpus through tinydep --corpus on the two-level
# pool must print byte-identical reports at every thread count.
corpus_t1=$(cargo run -q --release --offline --bin tinydep -- --corpus --threads=1)
corpus_t8=$(cargo run -q --release --offline --bin tinydep -- --corpus --threads=8)
if [ "$corpus_t1" != "$corpus_t8" ]; then
    echo "ci.sh: FAIL: tinydep --corpus output differs between 1 and 8 threads" >&2
    exit 1
fi

echo "==> CLI corpus mode byte-identity (memo cache on vs off)"
# The memo cache is a pure performance feature: the whole-corpus report
# must not change by a byte without it.
corpus_nocache=$(cargo run -q --release --offline --bin tinydep -- --corpus --threads=8 --no-cache)
if [ "$corpus_t8" != "$corpus_nocache" ]; then
    echo "ci.sh: FAIL: tinydep --corpus output differs with --no-cache" >&2
    exit 1
fi

echo "==> parallelize decision engine (corpus gate + byte-identity)"
# The newly-parallelizable counts per program are pinned in
# table_parallelize; any drift (kills regressing, or silently unlocking
# more) fails here.
cargo run -q --release --offline -p bench --bin table_parallelize >/dev/null
# The full --parallelize corpus report must be byte-identical at every
# thread count, with and without the memo cache.
par_base=$(cargo run -q --release --offline --bin tinydep -- --parallelize --corpus --threads=1)
for t in 2 8 16; do
    got=$(cargo run -q --release --offline --bin tinydep -- --parallelize --corpus --threads=$t)
    if [ "$par_base" != "$got" ]; then
        echo "ci.sh: FAIL: --parallelize --corpus differs at --threads=$t" >&2
        exit 1
    fi
    got=$(cargo run -q --release --offline --bin tinydep -- --parallelize --corpus --threads=$t --no-cache)
    if [ "$par_base" != "$got" ]; then
        echo "ci.sh: FAIL: --parallelize --corpus differs at --threads=$t --no-cache" >&2
        exit 1
    fi
done
# The corpus CHOLSKY section must equal the one-shot report, which the
# golden pins (the serve test below closes the loop with the server op).
par_cholsky=$(cargo run -q --release --offline --bin tinydep -- --parallelize corpus:cholsky)
par_section=$(printf '%s\n' "$par_base" \
    | awk '/^== cholsky ==$/{on=1; next} /^== /{on=0} on')
if [ "$par_cholsky" != "$par_section" ]; then
    echo "ci.sh: FAIL: --parallelize corpus section differs from the one-shot report" >&2
    exit 1
fi
if [ "$par_cholsky" != "$(cat tests/golden/cholsky_parallelize.txt)" ]; then
    echo "ci.sh: FAIL: --parallelize corpus:cholsky differs from the golden" >&2
    exit 1
fi
# The server parallelize op must match the one-shot report and golden.
cargo test -q --release --offline --test serve \
    parallelize_op_matches_the_one_shot_report_and_the_golden >/dev/null

echo "==> baseline-subsumption table (Banerjee book examples)"
# Fails when the Omega test stops eliminating the false dependences the
# GCD/Banerjee baselines report on the book examples.
cargo run -q --release --offline -p bench --bin table_banerjee >/dev/null

echo "==> server soak gate (1000 corpus requests through tinydep --serve)"
# Gates the analysis server: every response byte-identical to the
# one-shot report, flat live-row counts across the soak (row-store GC),
# and a warm-hit rate above the floor. Release build keeps it quick.
TINYDEP_SOAK_N=1000 cargo test -q --release --offline --test serve \
    soak_bounded_rows_warm_hits_and_byte_identical_reports

echo "==> determinism test, single-threaded test runner"
cargo test -q --offline --test determinism -- --test-threads=1

echo "==> allocation-regression gate (release perf guard)"
cargo test -q --release --offline --test perf_guard

echo "==> ci.sh: all checks passed"
