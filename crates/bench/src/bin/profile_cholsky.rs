//! Quick timing and allocation breakdown of the CHOLSKY analysis under
//! various configs. Each config is run twice: the cold run pays for row
//! interning and symbol-table population, the warm run is what the
//! perf_guard and smoke gates measure.

use std::time::Instant;

use depend::{analyze_program, Config};

#[global_allocator]
static ALLOC: harness::alloc::CountingAlloc = harness::alloc::CountingAlloc::new();

fn run(name: &str, config: &Config) {
    let program = tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap();
    let info = tiny::analyze(&program).unwrap();
    let report = |phase: &str| {
        let allocs_before = harness::alloc::thread_allocs();
        let t = Instant::now();
        let a = analyze_program(&info, config).unwrap();
        let elapsed = t.elapsed();
        let allocs = harness::alloc::thread_allocs() - allocs_before;
        println!(
            "{name:<28} {phase:<5} {elapsed:>8.2?}  flows={} dead={} allocs={allocs}",
            a.flows.len(),
            a.dead_flows().count()
        );
    };
    report("cold");
    report("warm");
}

fn main() {
    run("standard", &Config::standard());
    run(
        "refine only",
        &Config {
            cover: false,
            kill: false,
            ..Config::default()
        },
    );
    run(
        "refine+cover",
        &Config {
            kill: false,
            ..Config::default()
        },
    );
    run(
        "full, no formula fallback",
        &Config {
            formula_fallback: false,
            ..Config::default()
        },
    );
    run("full", &Config::default());
    run(
        "full, no quick tests",
        &Config {
            quick_tests: false,
            ..Config::default()
        },
    );
    // The gated configuration: single-threaded extended analysis, the
    // exact shape of the smoke / perf_guard warm measurements.
    run(
        "extended, threads=1",
        &Config {
            threads: 1,
            ..Config::extended()
        },
    );
}
