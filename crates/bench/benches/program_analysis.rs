//! Whole-program analysis benchmarks: standard vs extended analysis per
//! kernel (the aggregate behind Figures 6 and 7), plus the baseline
//! (GCD + Banerjee) tests for scale.
//!
//! Runs on the in-repo `harness` bench runner; under `cargo test` (no
//! `--bench` arg) it performs a quick smoke run only.

use depend::{analyze_program, Config};
use harness::bench::Bench;

const KERNELS: &[&str] = &[
    "cholsky",
    "cholesky_dense",
    "lu",
    "wavefront",
    "matmul",
    "jacobi",
    "tridiag",
];

fn bench_programs(b: &mut Bench) {
    for name in KERNELS {
        let entry = tiny::corpus::by_name(name).unwrap();
        let program = tiny::Program::parse(entry.source).unwrap();
        let info = tiny::analyze(&program).unwrap();
        b.bench(&format!("analysis/standard/{name}"), || {
            analyze_program(&info, &Config::standard()).unwrap()
        });
        b.bench(&format!("analysis/extended/{name}"), || {
            analyze_program(&info, &Config::extended()).unwrap()
        });
    }
}

fn bench_frontend(b: &mut Bench) {
    let entry = tiny::corpus::by_name("cholsky").unwrap();
    b.bench("frontend/parse_cholsky", || {
        tiny::Program::parse(entry.source).unwrap()
    });
    let program = tiny::Program::parse(entry.source).unwrap();
    b.bench("frontend/analyze_cholsky", || {
        tiny::analyze(&program).unwrap()
    });
}

fn bench_baseline(b: &mut Bench) {
    use depend::baseline::baseline_pair_test;
    use depend::AccessSite;
    let entry = tiny::corpus::by_name("cholsky").unwrap();
    let program = tiny::Program::parse(entry.source).unwrap();
    let info = tiny::analyze(&program).unwrap();
    b.bench("baseline/cholsky_all_pairs", || {
        let mut maybes = 0;
        for s in &info.stmts {
            for d in &info.stmts {
                for (idx, _) in d.reads.iter().enumerate() {
                    if baseline_pair_test(s, AccessSite::Write, d, AccessSite::Read(idx))
                        == depend::baseline::Verdict::Maybe
                    {
                        maybes += 1;
                    }
                }
            }
        }
        maybes
    });
}

fn main() {
    // Whole-program analyses are slow; default to fewer samples than the
    // micro-benchmarks (mirrors the old `sample_size(10)`).
    let mut b = Bench::from_env().default_samples(10);
    bench_programs(&mut b);
    bench_frontend(&mut b);
    bench_baseline(&mut b);
}
