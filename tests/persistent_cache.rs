//! The persistent solver cache is *transparent*: for every corpus
//! program, a cold run that populates a cache file, a warm run served
//! from it, and an uncached run must produce byte-identical reports —
//! and a corrupt, truncated, or version-stale cache file must be
//! ignored (the run is simply cold) rather than ever changing a result.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use depend::{analyze_corpus_with_cache, analyze_program, Analysis, Config, ReportOptions};

fn temp_cache(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "omega_persist_test_{}_{}.cache",
        tag,
        std::process::id()
    ))
}

/// One extended analysis with `cache` (`None`: uncached).
fn analyze(info: &tiny::ProgramInfo, cache: Option<Arc<omega::SolverCache>>) -> Analysis {
    analyze_corpus_with_cache(std::slice::from_ref(info), &Config::extended(), cache)
        .unwrap()
        .remove(0)
}

/// One extended analysis the way `tinydep --cache-file` runs it: the
/// cache loaded from `path`, then saved back.
fn analyze_with_file(info: &tiny::ProgramInfo, path: &Path) -> Analysis {
    let cache = Arc::new(omega::SolverCache::load_from(path));
    let analysis = analyze(info, Some(Arc::clone(&cache)));
    cache.save_to(path).expect("cache save failed");
    analysis
}

fn render(info: &tiny::ProgramInfo, analysis: &Analysis) -> (String, String, String) {
    let ropts = ReportOptions::default();
    let graph = depend::DepGraph::new(info, analysis);
    (
        depend::live_flow_table(&graph, &ropts),
        depend::dead_flow_table(&graph, &ropts),
        depend::report::to_json(&graph),
    )
}

#[test]
fn cold_warm_and_uncached_reports_are_identical_across_the_corpus() {
    let path = temp_cache("corpus");
    for entry in tiny::corpus::all() {
        let program = tiny::Program::parse(entry.source).unwrap();
        let info = tiny::analyze(&program).unwrap();
        let _ = std::fs::remove_file(&path);
        let cold = render(&info, &analyze_with_file(&info, &path));
        let warm = render(&info, &analyze_with_file(&info, &path));
        assert_eq!(cold, warm, "{}: warm report diverged", entry.name);
        assert_eq!(
            cold,
            render(&info, &analyze(&info, None)),
            "{}: uncached report diverged",
            entry.name
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn warm_run_is_served_entirely_from_the_cache_file() {
    let path = temp_cache("warm");
    let _ = std::fs::remove_file(&path);
    let program = tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap();
    let info = tiny::analyze(&program).unwrap();
    let cold = analyze_with_file(&info, &path);
    assert!(path.exists(), "cold run did not write the cache file");
    let warm = analyze_with_file(&info, &path);
    let _ = std::fs::remove_file(&path);
    let (cc, wc) = (&cold.stats.cache, &warm.stats.cache);
    assert!(cc.misses > 0, "cold run unexpectedly warm");
    assert_eq!(wc.hits, wc.lookups(), "warm run missed the cache file");
    assert_eq!(wc.inserts, 0, "warm run inserted into a primed cache");
}

#[test]
fn a_cache_file_serves_a_program_that_only_renames_its_symbols() {
    // Variables are positions: the file holds no names, so analysing
    // the `n0` program primes every lookup of the `n1` program.
    let path = temp_cache("renamed");
    let _ = std::fs::remove_file(&path);
    let info = |sym: &str| {
        let src = format!("for i := 1 to {sym} do a(i) := a(i-1); endfor");
        tiny::analyze(&tiny::Program::parse(&src).unwrap()).unwrap()
    };
    let (n0, n1) = (info("n0"), info("n1"));
    let cold = analyze_with_file(&n0, &path);
    let warm = analyze_with_file(&n1, &path);
    let _ = std::fs::remove_file(&path);
    let (cc, wc) = (&cold.stats.cache, &warm.stats.cache);
    assert!(cc.misses > 0, "cold run unexpectedly warm");
    assert_eq!(wc.lookups(), cc.lookups(), "the programs differ in shape");
    assert_eq!(wc.hits, wc.lookups(), "the renamed program missed the file");
    assert_eq!(render(&n1, &warm), render(&n1, &analyze(&n1, None)));
}

/// FNV-1a 64 — mirrors the checksum in the cache format so these tests
/// can verify a file is complete and untorn from the raw bytes alone.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Asserts `bytes` is a complete cache file: header, checksum line at
/// the end, and the checksum validating every byte before it.
fn assert_untorn(bytes: &[u8], context: &str) {
    let text = std::str::from_utf8(bytes).unwrap_or_else(|_| panic!("{context}: not UTF-8"));
    assert!(
        text.starts_with("omega-solver-cache "),
        "{context}: missing header: {:?}",
        text.get(..40)
    );
    let c_start = text.rfind("\nC ").map(|p| p + 1).unwrap_or_else(|| {
        panic!("{context}: no checksum line");
    });
    let stored = u64::from_str_radix(text[c_start..].trim_end().trim_start_matches("C "), 16)
        .unwrap_or_else(|e| panic!("{context}: bad checksum line: {e}"));
    assert_eq!(
        fnv64(text[..c_start].as_bytes()),
        stored,
        "{context}: checksum mismatch — torn write"
    );
}

#[test]
fn a_torn_file_is_ignored_and_the_next_save_recovers() {
    // Regression: `save_to` used to write the file in place, so a crash
    // (or a concurrent writer) could leave a torn file. The torn file
    // must never panic the loader, must degrade to a cold run, and must
    // not prevent the analysis from re-writing a valid file afterwards.
    let program = tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap();
    let info = tiny::analyze(&program).unwrap();
    let baseline = render(&info, &analyze_program(&info, &Config::extended()).unwrap());

    let path = temp_cache("torn");
    let _ = std::fs::remove_file(&path);
    analyze_with_file(&info, &path);
    let good = std::fs::read(&path).unwrap();
    assert_untorn(&good, "freshly saved");

    // Tear the file mid-record (not on a line boundary).
    let cut = good.len() * 2 / 3 + 3;
    std::fs::write(&path, &good[..cut]).unwrap();

    // Cold-but-correct run over the torn file, which also re-saves.
    let report = render(&info, &analyze_with_file(&info, &path));
    assert_eq!(report, baseline, "torn cache changed the report");
    let rewritten = std::fs::read(&path).unwrap();
    assert_untorn(&rewritten, "re-saved over torn");

    // And the re-saved file serves a fully warm run.
    let warm = analyze_with_file(&info, &path);
    assert_eq!(
        warm.stats.cache.hits,
        warm.stats.cache.lookups(),
        "re-saved cache did not serve a warm run"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn concurrent_saves_never_produce_a_torn_file() {
    // Two writers hammering one path (server shutdown racing a one-shot
    // run) while a reader polls: every observed file state must be a
    // complete cache, and no temporary droppings may remain.
    let program = tiny::Program::parse(tiny::corpus::EXAMPLE_2).unwrap();
    let info = tiny::analyze(&program).unwrap();
    let path = temp_cache("race");
    let _ = std::fs::remove_file(&path);
    analyze_with_file(&info, &path);
    let cache = omega::SolverCache::load_from(&path);

    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for _ in 0..40 {
                    cache.save_to(&path).expect("save failed");
                }
            });
        }
        s.spawn(|| {
            for _ in 0..120 {
                let bytes = std::fs::read(&path).expect("cache file vanished mid-race");
                assert_untorn(&bytes, "concurrent read");
            }
        });
    });

    let dir = path.parent().unwrap();
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    let droppings: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(&format!(".{name}.tmp.")))
        .collect();
    assert!(
        droppings.is_empty(),
        "temp files left behind: {droppings:?}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn save_to_an_unwritable_path_errors_cleanly() {
    let cache = omega::SolverCache::new();
    let err = cache.save_to(std::path::Path::new("/nonexistent-dir-for-sure/x.cache"));
    assert!(
        err.is_err(),
        "save into a missing directory must error, not panic"
    );
}

#[test]
fn damaged_cache_files_fall_back_to_a_cold_run() {
    let program = tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap();
    let info = tiny::analyze(&program).unwrap();
    let baseline = render(&info, &analyze_program(&info, &Config::extended()).unwrap());

    // Prime a good file once so "truncated" below is realistic.
    let good = temp_cache("good");
    let _ = std::fs::remove_file(&good);
    analyze_with_file(&info, &good);
    let bytes = std::fs::read(&good).unwrap();
    let _ = std::fs::remove_file(&good);

    let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("garbage", b"not a cache file at all\n\x00\xff".to_vec()),
        ("empty", Vec::new()),
        ("truncated", bytes[..bytes.len() / 2].to_vec()),
        ("header_only", bytes[..header_end].to_vec()),
        ("stale_version", {
            let mut v = b"omega-solver-cache format=999 solver=999\n".to_vec();
            v.extend_from_slice(&bytes[header_end..]);
            v
        }),
    ];
    for (tag, contents) in cases {
        let path = temp_cache(tag);
        std::fs::write(&path, &contents).unwrap();
        let analysis = analyze_with_file(&info, &path);
        let report = render(&info, &analysis);
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            report, baseline,
            "{tag}: report changed under a damaged cache"
        );
        // A rejected file means a genuinely cold run: nothing to hit on
        // the very first lookup, and the solver does real work.
        assert!(
            analysis.stats.cache.misses > 0,
            "{tag}: damaged cache file was not ignored"
        );
    }
}

#[test]
fn a_checksummed_file_naming_an_unknown_variable_runs_the_cli_cold() {
    // A term on variable 2^32 under a valid checksum: the loader used to
    // panic in `VarId::from_index`, so `tinydep` exited 101. The header
    // comes from a real save, so a version bump cannot turn this into a
    // header-mismatch test.
    let path = temp_cache("unknown_variable");
    omega::SolverCache::new().save_to(&path).unwrap();
    let saved = std::fs::read_to_string(&path).unwrap();
    let header = saved.lines().next().unwrap();
    let body = format!("{header}\nE F 0 0 1 0 0 0 1 0 1 4294967296 1 0 1 S 1\n");
    std::fs::write(&path, format!("{body}C {:016x}\n", fnv64(body.as_bytes()))).unwrap();

    let run = |extra: &[String]| {
        Command::new(env!("CARGO_BIN_EXE_tinydep"))
            .args(["--parallelize", "--corpus", "--threads=2"])
            .args(extra)
            .output()
            .unwrap()
    };
    let hostile = run(&[format!("--cache-file={}", path.display())]);
    let _ = std::fs::remove_file(&path);
    let plain = run(&[]);
    assert!(plain.status.success());
    assert_eq!(
        hostile.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&hostile.stderr)
    );
    assert!(
        hostile.stdout == plain.stdout,
        "the hostile cache file changed the report"
    );
}

#[test]
fn a_failed_cache_save_warns_and_leaves_the_cli_report_unchanged() {
    // An unwritable cache file must not fail the run (the report is
    // complete), but it must not be silent either: the next run would
    // silently go cold. These tests may run as root, where read-only
    // directory permissions don't block writes — so the unwritable path
    // here is one whose parent is a regular file (NotADirectory fails for
    // root too).
    let blocker = temp_cache("save_blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let run = |extra: &[String]| {
        Command::new(env!("CARGO_BIN_EXE_tinydep"))
            .args(["--parallelize", "corpus:cholsky"])
            .args(extra)
            .output()
            .unwrap()
    };
    let failed = run(&[format!(
        "--cache-file={}",
        blocker.join("cache.bin").display()
    )]);
    let _ = std::fs::remove_file(&blocker);
    let plain = run(&[]);
    let stderr = String::from_utf8_lossy(&failed.stderr);
    assert_eq!(failed.status.code(), Some(0), "stderr: {stderr}");
    assert!(plain.status.success());
    assert!(
        failed.stdout == plain.stdout,
        "the failed save changed the report"
    );
    assert!(
        stderr.contains("warning: failed to save solver cache to"),
        "the failed save was swallowed silently; stderr: {stderr}"
    );
}
