//! Cold-vs-warm persistent-cache benchmark (the tentpole's budget
//! contract): an extended CHOLSKY analysis whose memo cache is loaded
//! from a file before it and saved back after it, as `tinydep
//! --cache-file` does, measured from an empty cache file (cold — every
//! solve runs and is inserted) and from a fully primed one (warm —
//! every memoized query is served from the loaded cache).
//!
//! Beyond the two timing lines, the bench emits a summary JSON line
//!
//! ```text
//! {"name":"analysis/warm_cache/summary", "warm_hit_rate":H,
//!  "warm_over_cold":R, ...}
//! ```
//!
//! and **asserts** the contract the docs promise: the warm run answers
//! every cache lookup from the persisted file (hit rate 1.0, zero
//! inserts) and its report is byte-identical to the cold run's.
//! `warm_over_cold` (median warm time / median cold time) is
//! hardware-dependent and tracked in the BENCH_*.json trajectory rather
//! than asserted here; the smoke binary gates on the counters instead,
//! which are deterministic.

use std::path::Path;
use std::sync::Arc;

use depend::{analyze_corpus_with_cache, Config, ReportOptions};
use harness::bench::Bench;

#[global_allocator]
static ALLOC: harness::alloc::CountingAlloc = harness::alloc::CountingAlloc::new();

fn cholsky() -> tiny::ProgramInfo {
    let entry = tiny::corpus::by_name("cholsky").unwrap();
    let program = tiny::Program::parse(entry.source).unwrap();
    tiny::analyze(&program).unwrap()
}

fn render(info: &tiny::ProgramInfo, analysis: &depend::Analysis) -> String {
    let ropts = ReportOptions::default();
    let graph = depend::DepGraph::new(info, analysis);
    format!(
        "{}\n{}\n{}",
        depend::live_flow_table(&graph, &ropts),
        depend::dead_flow_table(&graph, &ropts),
        depend::report::to_json(&graph)
    )
}

/// One extended analysis with its memo cache loaded from `path` and
/// saved back to it.
fn analyze_with_file(info: &tiny::ProgramInfo, path: &Path) -> depend::Analysis {
    let cache = Arc::new(omega::SolverCache::load_from(path));
    let slice = std::slice::from_ref(info);
    let analysis = analyze_corpus_with_cache(slice, &Config::extended(), Some(Arc::clone(&cache)))
        .unwrap()
        .remove(0);
    cache.save_to(path).unwrap();
    analysis
}

fn main() {
    let mut b = Bench::from_env().default_samples(10);
    let info = cholsky();
    let path = std::env::temp_dir().join(format!(
        "omega_warm_cache_bench_{}.cache",
        std::process::id()
    ));

    // Cold: remove the cache file before every iteration so each run
    // starts from an empty cache and pays for every solve. The save at
    // the end of the iteration is part of the measured cost — that is
    // the price a first (cold) `tinydep --cache-file` run pays.
    let cold_ns = b
        .bench("analysis/warm_cache/cholsky_cold", || {
            let _ = std::fs::remove_file(&path);
            analyze_with_file(&info, &path)
        })
        .median_ns;

    // Prime the file once, then measure warm runs that load it each
    // iteration and answer every memoized query from it.
    let _ = std::fs::remove_file(&path);
    let cold_run = analyze_with_file(&info, &path);
    let warm_ns = b
        .bench("analysis/warm_cache/cholsky_warm", || {
            analyze_with_file(&info, &path)
        })
        .median_ns;

    // The contract: a warm run misses nothing, inserts nothing, and
    // reports exactly what the cold run reported.
    let warm_run = analyze_with_file(&info, &path);
    let c = &warm_run.stats.cache;
    assert_eq!(
        c.hits,
        c.lookups(),
        "warm run missed the persistent cache ({} hits / {} lookups)",
        c.hits,
        c.lookups()
    );
    assert_eq!(c.inserts, 0, "warm run inserted into a primed cache");
    assert_eq!(
        render(&info, &cold_run),
        render(&info, &warm_run),
        "warm report diverged from the cold report"
    );
    let _ = std::fs::remove_file(&path);

    println!(
        "{{\"name\":\"analysis/warm_cache/summary\",\"warm_hit_rate\":{:.3},\
         \"warm_hits\":{},\"warm_lookups\":{},\"cold_median_ns\":{:.1},\
         \"warm_median_ns\":{:.1},\"warm_over_cold\":{:.3}}}",
        c.hit_rate(),
        c.hits,
        c.lookups(),
        cold_ns,
        warm_ns,
        warm_ns / cold_ns.max(1.0)
    );
}
