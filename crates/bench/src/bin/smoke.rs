//! CI smoke check for the performance machinery: runs the extended
//! analysis over the corpus once and fails (exit 1) when the memo cache
//! or the §4.5 pre-filter is silently dead — nonzero hits on CHOLSKY,
//! nonzero skips corpus-wide (the strided sweeps), byte-identical
//! reports at several thread counts, per-pair contexts actually
//! deriving delta queries (canonicalizations stay below one-per-query),
//! a persisted cache file turning a CHOLSKY re-analysis fully warm
//! without changing a byte of the report, and the two-level corpus
//! driver reproducing the standalone reports byte-for-byte with its
//! multi-threaded wall time inside an overhead ceiling of sequential.

use std::process::ExitCode;

use bench::{counters_line, run_corpus};
use depend::{analyze_corpus, analyze_program, Config, ReportOptions};

#[global_allocator]
static ALLOC: harness::alloc::CountingAlloc = harness::alloc::CountingAlloc::new();

/// Allocation count of the pre-interning solver core for one warm
/// (memo-cache primed) single-threaded extended CHOLSKY analysis. The
/// interned representation must at least halve it.
const CHOLSKY_SEED_ALLOCS: u64 = 638_413; // measured on the pre-interning core (PR 4)

/// Absolute ceilings for the same warm run on the dense tableau kernel
/// (measured 102,742 allocations / ~27.7 ms, release). The wall gate
/// takes the minimum of three runs to damp scheduler noise.
const CHOLSKY_WARM_ALLOC_CEILING: u64 = 120_000;
const CHOLSKY_WARM_MS_CEILING: u128 = 30;

/// Absolute ceilings for a *cold* run of the same configuration (fresh
/// solver cache, every delta query a memo miss). The allocation ceiling
/// is pinned at the single solver kernel's measured count (100,264 with
/// `profile_cholsky`; 102,744 on the dense tableau, 100,950 with base
/// checkpoints); ~30 ms.
const CHOLSKY_COLD_ALLOC_CEILING: u64 = 100_264;
const CHOLSKY_COLD_MS_CEILING: u128 = 45;

fn main() -> ExitCode {
    let runs = run_corpus(&Config::extended());
    println!("{}", counters_line(&runs));
    let mut ok = true;

    let cholsky = runs
        .iter()
        .find(|r| r.name == "cholsky")
        .expect("cholsky is in the corpus");
    let hits = cholsky.analysis.stats.cache.hits;
    if hits == 0 {
        eprintln!("smoke: FAIL: memo cache scored no hits on CHOLSKY");
        ok = false;
    } else {
        println!("smoke: cache ok ({hits} hits on CHOLSKY)");
    }

    let skipped: u64 = runs
        .iter()
        .map(|r| r.analysis.stats.prefilter.skipped())
        .sum();
    if skipped == 0 {
        eprintln!("smoke: FAIL: the pre-filter skipped no pair in the whole corpus");
        ok = false;
    } else {
        println!("smoke: prefilter ok ({skipped} pairs skipped corpus-wide)");
    }

    // Per-pair context gate: the pair analyses must derive their refine
    // / cover / kill queries as deltas from one canonicalized base, so
    // CHOLSKY shows (a) delta-keyed queries happening at all and
    // (b) strictly fewer full canonicalizations than cache lookups —
    // without PairContext every memoized query canonicalizes a full
    // problem, making full_canons >= lookups.
    let c = &cholsky.analysis.stats.cache;
    if c.delta_canons == 0 {
        eprintln!("smoke: FAIL: no delta-keyed query on CHOLSKY (per-pair contexts dead)");
        ok = false;
    } else if c.full_canons >= c.lookups() {
        eprintln!(
            "smoke: FAIL: CHOLSKY canonicalized {} full problems for {} lookups \
             (per-pair contexts not eliminating repeat canonicalizations)",
            c.full_canons,
            c.lookups()
        );
        ok = false;
    } else {
        println!(
            "smoke: per-pair contexts ok ({} full / {} delta canons for {} lookups on CHOLSKY)",
            c.full_canons,
            c.delta_canons,
            c.lookups()
        );
    }

    let ropts = ReportOptions::default();
    let render = |analysis: &depend::Analysis| {
        let graph = depend::DepGraph::new(&cholsky.info, analysis);
        (
            depend::live_flow_table(&graph, &ropts),
            depend::dead_flow_table(&graph, &ropts),
            depend::report::to_json(&graph),
        )
    };
    let run = |config: &Config| render(&analyze_program(&cholsky.info, config).unwrap());
    let sequential = run(&Config::extended());
    for threads in [2, 8] {
        let config = Config {
            threads,
            ..Config::extended()
        };
        if run(&config) != sequential {
            eprintln!("smoke: FAIL: CHOLSKY report diverged at threads={threads}");
            ok = false;
        }
    }
    if ok {
        println!("smoke: determinism ok (threads 1/2/8 identical on CHOLSKY)");
    }

    // Persistent-cache gate: a second analysis pointed at the same cache
    // file must run fully warm (every lookup a hit, nothing inserted),
    // beat the cold run's miss count, and report byte-for-byte what the
    // cold run and a --no-cache run report.
    let path = std::env::temp_dir().join(format!("omega_smoke_{}.cache", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let config = Config {
        cache_file: Some(path.clone()),
        ..Config::extended()
    };
    let cold = analyze_program(&cholsky.info, &config).unwrap();
    let warm = analyze_program(&cholsky.info, &config).unwrap();
    let _ = std::fs::remove_file(&path);
    let (cc, wc) = (&cold.stats.cache, &warm.stats.cache);
    if wc.hits != wc.lookups() || wc.inserts != 0 || wc.misses >= cc.misses {
        eprintln!(
            "smoke: FAIL: warm CHOLSKY run not served from the cache file \
             (cold {}/{} hits, warm {}/{} hits, {} warm inserts)",
            cc.hits,
            cc.lookups(),
            wc.hits,
            wc.lookups(),
            wc.inserts
        );
        ok = false;
    } else {
        println!(
            "smoke: persistent cache ok (cold {}/{} -> warm {}/{} hits)",
            cc.hits,
            cc.lookups(),
            wc.hits,
            wc.lookups()
        );
    }
    let no_cache = Config {
        memo_cache: false,
        ..Config::extended()
    };
    if render(&cold) != sequential
        || render(&warm) != sequential
        || run(&no_cache) != sequential
    {
        eprintln!("smoke: FAIL: CHOLSKY report differs across cache settings");
        ok = false;
    } else {
        println!("smoke: cache transparency ok (cold/warm/no-cache reports identical)");
    }

    // Allocation gate: a warm single-threaded extended CHOLSKY analysis
    // must allocate at most half of what the pre-interning core did.
    // The per-thread counter only sees this thread's traffic, so the
    // measurement is exact even under concurrent load.
    let single = Config {
        threads: 1,
        ..Config::extended()
    };
    let _ = analyze_program(&cholsky.info, &single).unwrap();
    let allocs_before = harness::alloc::thread_allocs();
    let _ = analyze_program(&cholsky.info, &single).unwrap();
    let warm_allocs = harness::alloc::thread_allocs() - allocs_before;
    println!("smoke: warm CHOLSKY analysis performed {warm_allocs} allocations");
    if CHOLSKY_SEED_ALLOCS > 0 && warm_allocs * 2 > CHOLSKY_SEED_ALLOCS {
        eprintln!(
            "smoke: FAIL: warm CHOLSKY allocated {warm_allocs} times \
             (pre-interning core: {CHOLSKY_SEED_ALLOCS}; budget is half that)"
        );
        ok = false;
    } else if CHOLSKY_SEED_ALLOCS > 0 {
        println!(
            "smoke: allocation ok ({warm_allocs} <= {} = seed {CHOLSKY_SEED_ALLOCS} / 2)",
            CHOLSKY_SEED_ALLOCS / 2
        );
    }
    if warm_allocs > CHOLSKY_WARM_ALLOC_CEILING {
        eprintln!(
            "smoke: FAIL: warm CHOLSKY allocated {warm_allocs} times \
             (absolute ceiling {CHOLSKY_WARM_ALLOC_CEILING}): the dense \
             tableau kernel stopped reusing its buffers"
        );
        ok = false;
    } else {
        println!(
            "smoke: dense-kernel allocation ok ({warm_allocs} <= {CHOLSKY_WARM_ALLOC_CEILING})"
        );
    }

    // Warm wall-clock gate for the same configuration: minimum of three
    // runs, since a wall gate measures the machine as much as the code.
    let warm_ms = (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            let _ = analyze_program(&cholsky.info, &single).unwrap();
            t.elapsed().as_millis()
        })
        .min()
        .unwrap();
    if warm_ms > CHOLSKY_WARM_MS_CEILING {
        eprintln!(
            "smoke: FAIL: warm CHOLSKY analysis took {warm_ms} ms \
             (ceiling {CHOLSKY_WARM_MS_CEILING} ms): the dense-kernel \
             speedup regressed"
        );
        ok = false;
    } else {
        println!("smoke: dense-kernel wall time ok ({warm_ms} ms <= {CHOLSKY_WARM_MS_CEILING} ms)");
    }

    // Cold-path gates for the same single-threaded configuration: a
    // fresh Config per run keeps every delta query a memo miss, so this
    // bounds the solver kernel's miss path. Allocation counts are
    // deterministic; the wall gate takes the minimum of three runs.
    let cold_single = || Config {
        threads: 1,
        ..Config::extended()
    };
    let allocs_before = harness::alloc::thread_allocs();
    let _ = analyze_program(&cholsky.info, &cold_single()).unwrap();
    let cold_allocs = harness::alloc::thread_allocs() - allocs_before;
    if cold_allocs > CHOLSKY_COLD_ALLOC_CEILING {
        eprintln!(
            "smoke: FAIL: cold CHOLSKY allocated {cold_allocs} times \
             (ceiling {CHOLSKY_COLD_ALLOC_CEILING})"
        );
        ok = false;
    } else {
        println!("smoke: cold allocation ok ({cold_allocs} <= {CHOLSKY_COLD_ALLOC_CEILING})");
    }
    let cold_ms = (0..3)
        .map(|_| {
            let config = cold_single();
            let t = std::time::Instant::now();
            let _ = analyze_program(&cholsky.info, &config).unwrap();
            t.elapsed().as_millis()
        })
        .min()
        .unwrap();
    if cold_ms > CHOLSKY_COLD_MS_CEILING {
        eprintln!(
            "smoke: FAIL: cold CHOLSKY analysis took {cold_ms} ms \
             (ceiling {CHOLSKY_COLD_MS_CEILING} ms): the miss path slowed down"
        );
        ok = false;
    } else {
        println!("smoke: cold wall time ok ({cold_ms} ms <= {CHOLSKY_COLD_MS_CEILING} ms)");
    }

    // Corpus-scaling gate: the two-level corpus driver must reproduce
    // every standalone per-program report byte-for-byte at several
    // thread counts, and its multi-threaded wall time must stay inside
    // an overhead ceiling of the sequential run. On a multi-core host
    // the pool should win outright; on a single-core CI box it can only
    // add scheduling overhead, so the gate is a ceiling, not a speedup
    // requirement.
    let infos: Vec<tiny::ProgramInfo> = runs.iter().map(|r| r.info.clone()).collect();
    let render_one = |info: &tiny::ProgramInfo, a: &depend::Analysis| {
        let graph = depend::DepGraph::new(info, a);
        (
            depend::live_flow_table(&graph, &ropts),
            depend::dead_flow_table(&graph, &ropts),
            depend::report::to_json(&graph),
        )
    };
    let standalone: Vec<_> = runs
        .iter()
        .map(|r| render_one(&r.info, &r.analysis))
        .collect();
    let mut corpus_identical = true;
    for threads in [1usize, 8] {
        let config = Config {
            threads,
            ..Config::extended()
        };
        let analyses = analyze_corpus(&infos, &config).unwrap();
        let got: Vec<_> = runs
            .iter()
            .zip(&analyses)
            .map(|(r, a)| render_one(&r.info, a))
            .collect();
        if got != standalone {
            eprintln!(
                "smoke: FAIL: corpus driver diverged from the standalone \
                 driver at threads={threads}"
            );
            ok = false;
            corpus_identical = false;
        }
    }
    if corpus_identical {
        println!("smoke: corpus determinism ok (threads 1/8 match the standalone driver)");
    }
    let time_corpus = |threads: usize| {
        let config = Config {
            threads,
            ..Config::extended()
        };
        (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                let _ = analyze_corpus(&infos, &config).unwrap();
                start.elapsed()
            })
            .min()
            .unwrap()
    };
    // The gate is nproc-aware: a single- or dual-core runner can only
    // add scheduling overhead, so it merely gets an overhead ceiling;
    // a runner with 4+ cores must show a real win — the 8-thread wall
    // time has to come in at or under SPEEDUP_CEILING of sequential.
    const CORPUS_OVERHEAD_CEILING: f64 = 1.5;
    const CORPUS_SPEEDUP_CEILING: f64 = 0.8;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ceiling = if cores >= 4 {
        CORPUS_SPEEDUP_CEILING
    } else {
        CORPUS_OVERHEAD_CEILING
    };
    let seq = time_corpus(1);
    let par = time_corpus(8);
    let ratio = par.as_secs_f64() / seq.as_secs_f64().max(1e-9);
    if ratio > ceiling {
        eprintln!(
            "smoke: FAIL: 8-thread corpus run took {ratio:.2}x the sequential \
             wall time (ceiling {ceiling} on {cores} cores; seq {seq:?}, par {par:?})"
        );
        ok = false;
    } else {
        println!(
            "smoke: corpus scaling ok (8-thread wall time {ratio:.2}x of sequential, \
             ceiling {ceiling} on {cores} cores; seq {seq:?}, par {par:?})"
        );
    }

    if ok {
        println!("smoke: all checks passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
