//! Coarse performance regression guard: the whole-CHOLSKY extended
//! analysis must stay within an order of magnitude of its measured cost
//! (the paper's "suitable for production compilers" claim). Runs in
//! release CI only — debug builds get a generous multiplier.

use std::time::Instant;

use depend::{analyze_program, Config};

#[global_allocator]
static ALLOC: harness::alloc::CountingAlloc = harness::alloc::CountingAlloc::new();

/// Warm-run allocation count of the single solver kernel (release
/// profile, threads=1 extended analysis, measured with `profile_cholsky`).
/// History: pre-interning core 638,413; interned core (hash-consed rows +
/// COW problems) 187,123; dense tableau 102,742; one kernel, with the row
/// pipeline and base checkpoints deleted, 100,264; each access pair built
/// once, pinned distance levels not projected, 73,677; each program
/// lowered once, pairs built from integer-indexed forms, 41,899.
const CHOLSKY_WARM_ALLOC_BUDGET: u64 = 41_899;

/// Memo-cache lookups and hits of a warm extended CHOLSKY analysis
/// (threads=1) against the cache a first run of it filled: every lookup
/// hits. Replaces a 30 ms wall-clock ceiling on the warm run.
const CHOLSKY_WARM_LOOKUPS: u64 = 1_167;
const CHOLSKY_WARM_HITS: u64 = 1_167;

/// Allocation ceiling for one *warm* satisfiability query (pool hit: the
/// tableau and its workspace buffers are reused from the previous
/// query). Measured: 0 — the borrow-based dense entry solves straight
/// from the problem's constraint lists, so neither the API layer nor the
/// kernel allocates.
const WARM_SAT_ALLOC_BUDGET: u64 = 0;

/// Allocation ceiling for a *cold* single-threaded extended CHOLSKY
/// analysis (fresh solver cache, fresh memo, first run of the config),
/// pinned at the count this test measures with the test alone
/// (`--test-threads=1`): 41,897 in both the default (debug) and the
/// release profile. Tests running beside it intern some of the same
/// rows, so a parallel run counts less (41,490–41,652 over three runs).
/// History (release): 102,744 on the dense tableau; 100,950 with base
/// checkpoints; 100,264 with one kernel; 73,325 with each access pair
/// built once and pinned distance levels not projected (debug 100,638
/// → 73,872); 41,897 with each program lowered once (debug 73,872 →
/// 41,897).
const CHOLSKY_COLD_ALLOC_BUDGET: u64 = 41_897;

/// Memo-cache misses and inserts of a cold extended CHOLSKY analysis
/// (threads=1, fresh cache): the queries that reach the solver, and the
/// verdicts it records. Replaces a 45 ms wall-clock ceiling on the cold
/// run.
const CHOLSKY_COLD_MISSES: u64 = 539;
const CHOLSKY_COLD_INSERTS: u64 = 539;

#[test]
fn cholsky_extended_analysis_is_fast() {
    let program = tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap();
    let info = tiny::analyze(&program).unwrap();
    // Warm up once (allocator, page faults).
    let _ = analyze_program(&info, &Config::extended()).unwrap();
    let t = Instant::now();
    let a = analyze_program(&info, &Config::extended()).unwrap();
    let elapsed = t.elapsed();
    assert_eq!(a.dead_flows().count(), 14);
    let limit_ms = if cfg!(debug_assertions) {
        30_000
    } else {
        3_000
    };
    assert!(
        elapsed.as_millis() < limit_ms,
        "extended CHOLSKY analysis took {elapsed:?} (limit {limit_ms} ms): \
         investigate a solver regression"
    );
}

#[test]
fn cholsky_warm_analysis_stays_within_allocation_budget() {
    let program = tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap();
    let info = tiny::analyze(&program).unwrap();
    let config = Config {
        threads: 1,
        ..Config::extended()
    };
    // Warm the global row store and symbol table, then measure a full
    // analysis on this thread only (threads: 1 keeps all solver work
    // here, so concurrent tests in the runner don't pollute the count).
    let _ = analyze_program(&info, &config).unwrap();
    let before = harness::alloc::thread_allocs();
    let a = analyze_program(&info, &config).unwrap();
    let allocs = harness::alloc::thread_allocs() - before;
    assert_eq!(a.dead_flows().count(), 14);
    let limit = CHOLSKY_WARM_ALLOC_BUDGET + CHOLSKY_WARM_ALLOC_BUDGET / 10;
    assert!(
        allocs <= limit,
        "warm CHOLSKY analysis allocated {allocs} times, over the regression \
         limit {limit} (budget {CHOLSKY_WARM_ALLOC_BUDGET} + 10%): \
         something reintroduced per-constraint copying"
    );
}

/// The extended CHOLSKY analysis, threads=1, run twice against one
/// fresh cache: the cache counters of the cold first run and of the warm
/// second run alone.
fn cholsky_cache_counts() -> (omega::CacheStats, omega::CacheStats) {
    let program = tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap();
    let info = tiny::analyze(&program).unwrap();
    let config = Config {
        threads: 1,
        ..Config::extended()
    };
    let cache = Some(std::sync::Arc::new(omega::SolverCache::new()));
    let run = || {
        let mut a =
            depend::analyze_corpus_with_cache(std::slice::from_ref(&info), &config, cache.clone())
                .unwrap();
        let a = a.pop().unwrap();
        assert_eq!(a.dead_flows().count(), 14);
        a.stats.cache
    };
    let cold = run();
    let total = run();
    let warm = omega::CacheStats {
        hits: total.hits - cold.hits,
        misses: total.misses - cold.misses,
        inserts: total.inserts - cold.inserts,
        ..total
    };
    (cold, warm)
}

#[test]
fn cholsky_warm_analysis_is_all_hits() {
    let (_, warm) = cholsky_cache_counts();
    assert!(
        within_band(warm.lookups(), CHOLSKY_WARM_LOOKUPS)
            && within_band(warm.hits, CHOLSKY_WARM_HITS),
        "warm extended CHOLSKY analysis made {} memo lookups with {} hits, \
         outside {CHOLSKY_WARM_LOOKUPS} and {CHOLSKY_WARM_HITS} ± 10%: the \
         warm run solves again what the first run cached",
        warm.lookups(),
        warm.hits
    );
}

#[test]
fn cholsky_cold_analysis_stays_within_allocation_budget() {
    let program = tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap();
    let info = tiny::analyze(&program).unwrap();
    // Warm process-global state (row store, symbol table) with a throwaway
    // config, then measure a run against a *fresh* solver cache: every
    // delta query below is a memo miss, so this exercises the solver
    // kernel rather than memo hits.
    let _ = analyze_program(
        &info,
        &Config {
            threads: 1,
            ..Config::extended()
        },
    )
    .unwrap();
    let config = Config {
        threads: 1,
        ..Config::extended()
    };
    let before = harness::alloc::thread_allocs();
    let a = analyze_program(&info, &config).unwrap();
    let allocs = harness::alloc::thread_allocs() - before;
    assert_eq!(a.dead_flows().count(), 14);
    assert!(
        allocs <= CHOLSKY_COLD_ALLOC_BUDGET,
        "cold CHOLSKY analysis allocated {allocs} times, over the limit \
         {CHOLSKY_COLD_ALLOC_BUDGET}: the miss path got more expensive"
    );
}

#[test]
fn cholsky_cold_analysis_solves_within_band() {
    let (cold, _) = cholsky_cache_counts();
    assert!(
        within_band(cold.misses, CHOLSKY_COLD_MISSES)
            && within_band(cold.inserts, CHOLSKY_COLD_INSERTS),
        "cold extended CHOLSKY analysis missed {} times and inserted {} \
         entries, outside {CHOLSKY_COLD_MISSES} and {CHOLSKY_COLD_INSERTS} \
         ± 10%: more of the analysis reaches the solver",
        cold.misses,
        cold.inserts
    );
}

#[test]
fn warm_sat_query_allocates_almost_nothing() {
    use omega::{Budget, LinExpr, Problem, VarKind};
    // A representative dependence-shaped query: triangular bounds plus a
    // coupling equality, so the solve exercises normalization, equality
    // substitution, and Fourier-Motzkin.
    let mut p = Problem::new();
    let i = p.add_var(VarKind::Input);
    let j = p.add_var(VarKind::Input);
    let n = p.add_var(VarKind::Symbolic);
    p.add_geq(LinExpr::var(i).plus_const(-1));
    p.add_geq(LinExpr::var(n).plus_term(-1, i));
    p.add_geq(LinExpr::var(j).plus_term(-1, i));
    p.add_geq(LinExpr::var(n).plus_term(-1, j));
    p.add_eq(LinExpr::term(2, i).plus_term(-1, j).plus_const(-1));
    // Warm the thread-local tableau pool, then measure one query.
    assert!(p.is_satisfiable_with(&mut Budget::default()).unwrap());
    let before = harness::alloc::thread_allocs();
    assert!(p.is_satisfiable_with(&mut Budget::default()).unwrap());
    let allocs = harness::alloc::thread_allocs() - before;
    assert!(
        allocs <= WARM_SAT_ALLOC_BUDGET,
        "a warm sat query allocated {allocs} times \
         (budget {WARM_SAT_ALLOC_BUDGET}): the tableau pool stopped reusing \
         its buffers"
    );
}

#[test]
fn single_pair_analysis_is_microseconds_scale() {
    use depend::{build_dependence, AccessSite, DepKind};
    let program = tiny::Program::parse(tiny::corpus::WAVEFRONT).unwrap();
    let info = tiny::analyze(&program).unwrap();
    let s = &info.stmts[0];
    let mut budget = omega::Budget::default();
    let t = Instant::now();
    for _ in 0..100 {
        let d = build_dependence(
            &info,
            DepKind::Flow,
            s,
            AccessSite::Write,
            s,
            AccessSite::Read(0),
            &mut budget,
        )
        .unwrap();
        assert!(d.is_some());
    }
    let per_pair = t.elapsed() / 100;
    let limit_us = if cfg!(debug_assertions) {
        20_000
    } else {
        2_000
    };
    assert!(
        per_pair.as_micros() < limit_us,
        "per-pair analysis {per_pair:?} exceeds {limit_us} us"
    );
}

/// Allocations of a warm single-threaded extended `stepped_reset`
/// analysis (release profile). Its kill tests take the exact formula
/// fallback `p ∧ ¬q₁ ∧ … ∧ ¬qₙ`. History: 1,165,584 when the fallback
/// built the query's whole DNF before testing a piece; 9,651 (debug
/// profile 9,673) with the depth-first search over the product; 8,527
/// (debug 8,542) with each access pair built once and pinned distance
/// levels not projected; 6,731 (debug the same) with each program
/// lowered once.
const STEPPED_RESET_ALLOC_BUDGET: u64 = 6_731;

/// Memo-cache lookups of the same analysis (fresh cache). History:
/// 41,599 with the whole DNF; 309 with the depth-first search; 275 with
/// each access pair built once and pinned distance levels not projected.
const STEPPED_RESET_LOOKUPS: u64 = 275;

/// Whether `got` lies within ±10% of `pinned`.
fn within_band(got: u64, pinned: u64) -> bool {
    got.abs_diff(pinned) <= pinned / 10
}

/// The extended `stepped_reset` analysis, threads=1, after a warm-up run
/// of the same config: its allocation count on this thread and its memo
/// lookups.
fn stepped_reset_counts() -> (u64, u64) {
    let program = tiny::Program::parse(tiny::corpus::STEPPED_RESET).unwrap();
    let info = tiny::analyze(&program).unwrap();
    let config = Config {
        threads: 1,
        ..Config::extended()
    };
    let _ = analyze_program(&info, &config).unwrap();
    let before = harness::alloc::thread_allocs();
    let a = analyze_program(&info, &config).unwrap();
    let allocs = harness::alloc::thread_allocs() - before;
    (allocs, a.stats.cache.lookups())
}

#[test]
fn stepped_reset_formula_fallback_stays_within_allocation_band() {
    let (allocs, _) = stepped_reset_counts();
    assert!(
        within_band(allocs, STEPPED_RESET_ALLOC_BUDGET),
        "extended stepped_reset analysis allocated {allocs} times, outside \
         {STEPPED_RESET_ALLOC_BUDGET} ± 10%: the formula fallback changed cost"
    );
}

#[test]
fn stepped_reset_formula_fallback_stays_within_lookup_band() {
    let (_, lookups) = stepped_reset_counts();
    assert!(
        within_band(lookups, STEPPED_RESET_LOOKUPS),
        "extended stepped_reset analysis made {lookups} memo lookups, outside \
         {STEPPED_RESET_LOOKUPS} ± 10%: the formula fallback changed shape"
    );
}

/// §4.5 pre-filter tests of the corpus `--parallelize` analysis (the
/// extended analysis, threads=1). Each unordered access pair is tested
/// once: a (write, read) pair for its flow and anti dependence together,
/// a write pair for both output directions. History: 851 when every
/// directed pair ran its own test.
const CORPUS_PREFILTER_TESTS: u64 = 499;

/// Memo-cache lookups of the same corpus analysis (fresh cache).
/// History: 6,818 when every directed pair re-solved its base and every
/// distance level was projected, including levels the order case pins;
/// 5,998 with each pair's base solved once and pinned levels read off.
const CORPUS_LOOKUPS: u64 = 5_998;

/// The extended corpus analysis, threads=1, fresh cache: its pre-filter
/// tests and its memo lookups.
fn corpus_counts() -> (u64, u64) {
    let infos: Vec<tiny::ProgramInfo> = tiny::corpus::all()
        .into_iter()
        .map(|e| tiny::analyze(&tiny::Program::parse(e.source).unwrap()).unwrap())
        .collect();
    let config = Config {
        threads: 1,
        ..Config::extended()
    };
    let analyses = depend::analyze_corpus(&infos, &config).unwrap();
    let tested = analyses.iter().map(|a| a.stats.prefilter.tested()).sum();
    (tested, analyses[0].stats.cache.lookups())
}

#[test]
fn corpus_prefilter_runs_once_per_access_pair() {
    let (tested, _) = corpus_counts();
    assert_eq!(
        tested, CORPUS_PREFILTER_TESTS,
        "the corpus analysis ran {tested} pre-filter tests, not \
         {CORPUS_PREFILTER_TESTS}: the per-pair sharing was undone (each \
         direction of an access pair tests it again)"
    );
}

#[test]
fn corpus_memo_lookups_stay_within_band() {
    let (_, lookups) = corpus_counts();
    assert!(
        within_band(lookups, CORPUS_LOOKUPS),
        "the corpus analysis made {lookups} memo lookups, outside \
         {CORPUS_LOOKUPS} ± 10%: the base sharing or the pinned-level skip \
         was undone"
    );
}
