//! Parallel-analysis scaling: end-to-end `analyze_program` wall-clock at
//! several `Config::threads` settings, plus cache/pre-filter ablations.
//!
//! Beyond the per-case timing lines, this bench emits two extra JSON
//! lines summarizing the run:
//!
//! * `{"name":"analysis/parallel/speedup", "threads":N, "speedup":S}` —
//!   median sequential time over median time at N threads (S is
//!   hardware-dependent; ≈1.0 on a single-core host, and `threads=1`
//!   must never be slower than the plain sequential loop beyond noise);
//! * `{"name":"analysis/counters", ...}` — memo-cache and §4.5
//!   pre-filter counters for one extended CHOLSKY analysis, so the
//!   BENCH_*.json trajectory tracks cache effectiveness over time.
//!
//! A second section times `analyze_corpus` — the whole built-in corpus
//! as one batch on the two-level pool — at 1..16 threads, emitting
//! `{"name":"analysis/corpus/speedup","threads":N,"speedup":S}` lines.
//! This is the end-to-end corpus wall time the scheduling work is
//! gated on: programs and their pair batches share one pool, so the
//! speedup reflects both levels together.

use depend::{analyze_corpus, analyze_corpus_with_cache, analyze_program, Config};
use harness::bench::Bench;

#[global_allocator]
static ALLOC: harness::alloc::CountingAlloc = harness::alloc::CountingAlloc::new();

const THREAD_COUNTS: &[usize] = &[1, 2, 4];
const CORPUS_THREAD_COUNTS: &[usize] = &[1, 2, 4, 8, 16];

fn cholsky() -> tiny::ProgramInfo {
    let entry = tiny::corpus::by_name("cholsky").unwrap();
    let program = tiny::Program::parse(entry.source).unwrap();
    tiny::analyze(&program).unwrap()
}

fn main() {
    let mut b = Bench::from_env().default_samples(10);
    let info = cholsky();

    let mut medians = Vec::new();
    for &threads in THREAD_COUNTS {
        let config = Config {
            threads,
            ..Config::extended()
        };
        let stats = b.bench(&format!("analysis/parallel/cholsky_t{threads}"), || {
            analyze_program(&info, &config).unwrap()
        });
        medians.push((threads, stats.median_ns));
    }

    // Ablations: the cache and the pre-filter, each off in isolation.
    b.bench("analysis/parallel/cholsky_t1_nocache", || {
        analyze_corpus_with_cache(std::slice::from_ref(&info), &Config::extended(), None).unwrap()
    });
    b.bench("analysis/parallel/cholsky_t1_noprefilter", || {
        let config = Config {
            quick_tests: false,
            ..Config::extended()
        };
        analyze_program(&info, &config).unwrap()
    });

    let base = medians[0].1;
    for &(threads, median) in &medians[1..] {
        println!(
            "{{\"name\":\"analysis/parallel/speedup\",\"threads\":{},\"speedup\":{:.3}}}",
            threads,
            base / median.max(1.0)
        );
    }

    // End-to-end corpus wall time on the two-level pool: every built-in
    // program as one batch, programs and pair stages sharing `threads`
    // workers.
    let infos: Vec<tiny::ProgramInfo> = tiny::corpus::all()
        .iter()
        .map(|e| {
            let program = tiny::Program::parse(e.source).unwrap();
            tiny::analyze(&program).unwrap()
        })
        .collect();
    let mut corpus_medians = Vec::new();
    for &threads in CORPUS_THREAD_COUNTS {
        let config = Config {
            threads,
            ..Config::extended()
        };
        let stats = b.bench(&format!("analysis/corpus/all_t{threads}"), || {
            analyze_corpus(&infos, &config).unwrap()
        });
        corpus_medians.push((threads, stats.median_ns));
    }
    let corpus_base = corpus_medians[0].1;
    for &(threads, median) in &corpus_medians[1..] {
        println!(
            "{{\"name\":\"analysis/corpus/speedup\",\"threads\":{},\"speedup\":{:.3}}}",
            threads,
            corpus_base / median.max(1.0)
        );
    }

    let analysis = analyze_program(&info, &Config::extended()).unwrap();
    let c = &analysis.stats.cache;
    let p = &analysis.stats.prefilter;
    println!(
        "{{\"name\":\"analysis/counters\",\"cache_hits\":{},\"cache_misses\":{},\
         \"cache_inserts\":{},\"cache_hit_rate\":{:.3},\"canon_full\":{},\
         \"canon_delta\":{},\"prefilter_gcd\":{},\"prefilter_range\":{},\
         \"prefilter_symbolic\":{},\"prefilter_passed\":{}}}",
        c.hits,
        c.misses,
        c.inserts,
        c.hit_rate(),
        c.full_canons,
        c.delta_canons,
        p.gcd,
        p.range,
        p.symbolic_range,
        p.passed
    );
}
