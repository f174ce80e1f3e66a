//! Determinism of the parallel analysis driver: the report, the JSON
//! dump, and the per-pair statistics must be byte-identical at every
//! `Config::threads` setting and with the memo cache on or off — and
//! must match the goldens captured from the sequential, cache-less
//! driver (`tests/golden/`). The corpus driver (`analyze_corpus`, the
//! two-level pool) is held to the same bar: every program's report must
//! match the standalone single-program driver at every thread count,
//! with the cache cold, warm from a file, or disabled.

use std::process::Command;
use std::sync::Arc;

use depend::{analyze_corpus, analyze_corpus_with_cache, analyze_program, Config, ReportOptions};

fn cholsky() -> tiny::ProgramInfo {
    let program = tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap();
    tiny::analyze(&program).unwrap()
}

fn render(info: &tiny::ProgramInfo, config: &Config) -> (String, String, String) {
    render_analysis(info, &analyze_program(info, config).unwrap())
}

fn render_analysis(
    info: &tiny::ProgramInfo,
    analysis: &depend::Analysis,
) -> (String, String, String) {
    let ropts = ReportOptions::default();
    let graph = depend::DepGraph::new(info, analysis);
    (
        depend::live_flow_table(&graph, &ropts),
        depend::dead_flow_table(&graph, &ropts),
        depend::report::to_json(&graph),
    )
}

#[test]
fn cholsky_reports_are_identical_at_every_thread_count() {
    let info = cholsky();
    let base = render(&info, &Config::extended());
    for threads in [2, 8, 0] {
        let config = Config {
            threads,
            ..Config::extended()
        };
        assert_eq!(
            render(&info, &config),
            base,
            "threads={threads} diverged from the sequential report"
        );
    }
}

#[test]
fn cholsky_pair_stats_are_identical_at_every_thread_count() {
    let info = cholsky();
    let base = analyze_program(&info, &Config::extended()).unwrap();
    for threads in [2, 8] {
        let config = Config {
            threads,
            ..Config::extended()
        };
        let par = analyze_program(&info, &config).unwrap();
        // Timings differ run to run; everything else must not — including
        // the *order* of the per-pair and per-kill records.
        let strip_pairs = |a: &depend::Analysis| {
            a.stats
                .pairs
                .iter()
                .map(|p| (p.src, p.dst, p.class, p.dep_found))
                .collect::<Vec<_>>()
        };
        let strip_kills = |a: &depend::Analysis| {
            a.stats
                .kills
                .iter()
                .map(|k| (k.victim_src, k.killer, k.read, k.consulted_omega, k.killed))
                .collect::<Vec<_>>()
        };
        assert_eq!(strip_pairs(&par), strip_pairs(&base), "threads={threads}");
        assert_eq!(strip_kills(&par), strip_kills(&base), "threads={threads}");
        assert_eq!(
            par.stats.prefilter, base.stats.prefilter,
            "threads={threads}"
        );
    }
}

#[test]
fn cholsky_report_is_identical_without_the_memo_cache() {
    let info = cholsky();
    let cached = render(&info, &Config::extended());
    let uncached =
        analyze_corpus_with_cache(std::slice::from_ref(&info), &Config::extended(), None).unwrap();
    assert_eq!(cached, render_analysis(&info, &uncached[0]));
}

/// Every built-in corpus program, through the `tiny` front end.
fn corpus_infos() -> Vec<tiny::ProgramInfo> {
    tiny::corpus::all()
        .iter()
        .map(|e| {
            let program =
                tiny::Program::parse(e.source).unwrap_or_else(|err| panic!("{}: {err}", e.name));
            tiny::analyze(&program).unwrap_or_else(|err| panic!("{}: {err}", e.name))
        })
        .collect()
}

/// Renders every corpus analysis to its report/JSON triple.
fn render_corpus(
    infos: &[tiny::ProgramInfo],
    analyses: &[depend::Analysis],
) -> Vec<(String, String, String)> {
    let ropts = ReportOptions::default();
    infos
        .iter()
        .zip(analyses)
        .map(|(info, a)| {
            let graph = depend::DepGraph::new(info, a);
            (
                depend::live_flow_table(&graph, &ropts),
                depend::dead_flow_table(&graph, &ropts),
                depend::report::to_json(&graph),
            )
        })
        .collect()
}

#[test]
fn corpus_driver_matches_the_standalone_driver_at_every_thread_count() {
    // Baseline: each program through the standalone single-program
    // driver, sequential, its own private cache.
    let infos = corpus_infos();
    let base: Vec<_> = {
        let analyses: Vec<_> = infos
            .iter()
            .map(|info| analyze_program(info, &Config::extended()).unwrap())
            .collect();
        render_corpus(&infos, &analyses)
    };
    // The two-level corpus driver must reproduce it byte-for-byte at
    // every thread count — programs share one pool and one cache, and
    // completion order varies, but no report may change.
    for threads in [1, 2, 8, 16] {
        let config = Config {
            threads,
            ..Config::extended()
        };
        let analyses = analyze_corpus(&infos, &config).unwrap();
        assert_eq!(
            render_corpus(&infos, &analyses),
            base,
            "corpus threads={threads} diverged from the standalone driver"
        );
    }
    // And with the memo cache disabled entirely.
    let config = Config {
        threads: 8,
        ..Config::extended()
    };
    let analyses = analyze_corpus_with_cache(&infos, &config, None).unwrap();
    assert_eq!(
        render_corpus(&infos, &analyses),
        base,
        "cache-less corpus run diverged"
    );
}

#[test]
fn corpus_driver_is_identical_with_a_cold_and_warm_persistent_cache() {
    let infos = corpus_infos();
    let base: Vec<_> = {
        let analyses = analyze_corpus(&infos, &Config::extended()).unwrap();
        render_corpus(&infos, &analyses)
    };
    let path =
        std::env::temp_dir().join(format!("omega_corpus_cache_{}.cache", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // Cold run populates the file; warm runs are served from it. Every
    // run, at every thread count, must match the no-file baseline.
    for (label, threads) in [("cold", 8), ("warm", 1), ("warm", 8), ("warm", 16)] {
        let config = Config {
            threads,
            ..Config::extended()
        };
        let cache = Arc::new(omega::SolverCache::load_from(&path));
        let analyses =
            analyze_corpus_with_cache(&infos, &config, Some(Arc::clone(&cache))).unwrap();
        cache
            .save_to(&path)
            .unwrap_or_else(|e| panic!("{label} threads={threads}: cache save failed: {e}"));
        assert_eq!(
            render_corpus(&infos, &analyses),
            base,
            "{label} persistent-cache corpus run (threads={threads}) diverged"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tinydep_corpus_mode_is_identical_at_every_thread_count() {
    // The CLI corpus mode: one process, every built-in program, reports
    // concatenated as `== NAME ==` sections. Byte-identical across
    // thread counts, and each section matches the single-input run.
    let run = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_tinydep"))
            .args(["--corpus", threads])
            .output()
            .expect("tinydep --corpus runs");
        assert!(out.status.success());
        String::from_utf8(out.stdout).unwrap()
    };
    let base = run("--threads=1");
    assert!(base.starts_with("== "), "missing section headers:\n{base}");
    for threads in ["--threads=2", "--threads=8", "--threads=16"] {
        assert_eq!(run(threads), base, "{threads} corpus output diverged");
    }
    // Spot-check one section against the dedicated single-input run.
    let single = Command::new(env!("CARGO_BIN_EXE_tinydep"))
        .arg("corpus:cholsky")
        .output()
        .expect("tinydep runs");
    let single = String::from_utf8(single.stdout).unwrap();
    let section = base
        .split("== cholsky ==\n")
        .nth(1)
        .expect("cholsky section present")
        .split("== ")
        .next()
        .unwrap();
    assert_eq!(
        section, single,
        "corpus section diverged from the single run"
    );
}

#[test]
fn tinydep_gauss_jordan_matches_the_golden_at_every_thread_count() {
    // A second golden besides CHOLSKY: GAUSS_JORDAN concentrates its
    // kill tests in a single read, exercising the opposite stage-3
    // load shape (one heavy task instead of many light ones).
    let golden_all = include_str!("golden/gauss_jordan_all.txt");
    for extra in [None, Some("--threads=2"), Some("--threads=8")] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_tinydep"));
        cmd.arg("--all");
        if let Some(flag) = extra {
            cmd.arg(flag);
        }
        let out = cmd
            .arg("corpus:gauss_jordan")
            .output()
            .expect("tinydep runs");
        assert!(out.status.success());
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            golden_all,
            "--all {extra:?}"
        );
    }
}

#[test]
fn tinydep_cholsky_matches_the_goldens_at_every_thread_count() {
    let golden_all = include_str!("golden/cholsky_all.txt");
    let golden_json = include_str!("golden/cholsky.json");
    for extra in [None, Some("--threads=2"), Some("--threads=8")] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_tinydep"));
        cmd.arg("--all");
        if let Some(flag) = extra {
            cmd.arg(flag);
        }
        let out = cmd.arg("corpus:cholsky").output().expect("tinydep runs");
        assert!(out.status.success());
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            golden_all,
            "--all {extra:?}"
        );

        let mut cmd = Command::new(env!("CARGO_BIN_EXE_tinydep"));
        cmd.arg("--json");
        if let Some(flag) = extra {
            cmd.arg(flag);
        }
        let out = cmd.arg("corpus:cholsky").output().expect("tinydep runs");
        assert!(out.status.success());
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            golden_json,
            "--json {extra:?}"
        );
    }
}
