#!/usr/bin/env bash
# Tier-1 verification, fully offline and warning-clean.
#
# The workspace is hermetic (path dependencies only, Cargo.lock
# committed), so --offline must always succeed; any attempt to reach a
# registry is a bug. -Dwarnings keeps the workspace warning-clean.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="-Dwarnings ${RUSTFLAGS:-}"

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo doc --workspace --no-deps --offline (warning-free rustdoc)"
# Broken or private intra-doc links fail here; --keep-going reports
# every crate's errors, not just the first crate's.
RUSTDOCFLAGS="-Dwarnings ${RUSTDOCFLAGS:-}" \
    cargo doc --workspace --no-deps --offline --keep-going

echo "==> cargo build --release --offline --locked (ledger benchmark package)"
# The benchmark lives outside the workspace but reads the library APIs
# (CacheStats, Config, Server); building it here makes a change to those
# APIs fail CI instead of the next benchmark run.
cargo build --release --offline --locked --manifest-path ledger/Cargo.toml

echo "==> cargo test -q --release --offline (ledger benchmark package)"
# The ledger's own tests hold the benchmark's output checks (goldens,
# reference renderings); a change that breaks them fails here rather
# than in the next benchmark run.
cargo test -q --release --offline --manifest-path ledger/Cargo.toml

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> harness tests 20 times at 16 test threads (release)"
# The counting allocator's tests assert exact deltas of process-wide
# counters, so they serialize on a lock; a test that skips it races the
# others only now and then, and 20 runs make that race show here.
for _ in $(seq 20); do
    cargo test -q --release --offline -p harness -- --test-threads=16 >/dev/null
done

echo "==> formula-fallback differential property under two more seeds (release)"
# omega::implies_union and the depth-first search behind
# Formula::is_satisfiable are checked against brute force and the eager
# DNF on random p ∧ ¬q₁ ∧ … ∧ ¬qₙ queries; extra seeds widen that
# search at well under a second each.
for seed in 0x5eed0001 0x5eed0002; do
    HARNESS_SEED=$seed cargo test -q --release --offline -p omega --test formula_prop \
        fallback_shape_matches_brute_force_and_the_eager_dnf >/dev/null
done

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
# A single input runs the corpus path with one program, so every
# program's one-shot report must equal its `== NAME ==` section of the
# whole-corpus run, as text and under --parallelize.
tinydep="${CARGO_TARGET_DIR:-target}/release/tinydep"
for flag in "" --parallelize; do
    if [ -z "$flag" ]; then corpus_out=$corpus_t1; else corpus_out=$par_base; fi
    for name in $("$tinydep" --list-corpus); do
        one_shot=$("$tinydep" $flag "corpus:$name")
        section=$(printf '%s\n' "$corpus_out" \
            | awk -v head="== $name ==" '$0 == head {on=1; next} /^== /{on=0} on')
        if [ "$one_shot" != "$section" ]; then
            echo "ci.sh: FAIL: tinydep $flag corpus:$name differs from its corpus section" >&2
            exit 1
        fi
    done
done
if [ "$("$tinydep" --parallelize corpus:cholsky)" != "$(cat tests/golden/cholsky_parallelize.txt)" ]; then
    echo "ci.sh: FAIL: --parallelize corpus:cholsky differs from the golden" >&2
    exit 1
fi
# The cache file is a function of the cache's contents: its base table
# holds the bases the entries reference, so the file --parallelize
# --corpus writes must not depend on the thread count, and a reload of
# it must answer every lookup.
cache_dir=$(mktemp -d)
"$tinydep" --parallelize --corpus --threads=1 --cache-file="$cache_dir/t1" >/dev/null
"$tinydep" --parallelize --corpus --threads=8 --cache-file="$cache_dir/t8" >/dev/null
if ! cmp -s "$cache_dir/t1" "$cache_dir/t8"; then
    echo "ci.sh: FAIL: --parallelize --corpus cache file differs between 1 and 8 threads" >&2
    exit 1
fi
read -r _ hits _ _ lookups _ < <("$tinydep" --parallelize --corpus --threads=8 --stats \
    --cache-file="$cache_dir/t1" 2>&1 >/dev/null | grep '^cache:')
rm -rf "$cache_dir"
if [ "$hits" != "$lookups" ] || [ "$lookups" = 0 ]; then
    echo "ci.sh: FAIL: reloaded cache file served $hits of $lookups lookups" >&2
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
