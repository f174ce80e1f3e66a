#![doc = concat!(
    "`tinydep` — command-line dependence analyzer, in the spirit of the\n\
     augmented `tiny` tool the paper distributes.\n\n```text\n",
    include_str!("tinydep-usage.txt"),
    "```\n"
)]
//!
//! Examples:
//!
//! ```console
//! $ tinydep corpus:cholsky
//! $ tinydep --parallel corpus:double_buffer
//! $ tinydep --parallelize corpus:cholsky
//! $ tinydep --parallelize --corpus
//! $ tinydep --threads=8 --corpus
//! $ tinydep --threads=4 corpus:cholsky corpus:lu loops.t
//! $ echo 'for i := 1 to n do a(i) := a(i-1); endfor' | tinydep -
//! ```

use std::io::Read as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use depend::{analyze_corpus_on, decide_loops, DepGraph, ParallelizeSummary, Pool};
use omega_repro::server::{front_end, load_cache, save_cache, AnalyzeOptions, Format, Server};

/// Count allocations so `--stats` can report them alongside the solver
/// counters.
#[global_allocator]
static ALLOC: harness::alloc::CountingAlloc = harness::alloc::CountingAlloc::new();

/// The `--help` text, which also heads the module docs.
const USAGE: &str = include_str!("tinydep-usage.txt");

/// How `--serve` was requested: over stdio or a Unix domain socket.
enum ServeMode {
    Stdio,
    Socket(std::path::PathBuf),
}

#[derive(Default)]
struct Options {
    report: AnalyzeOptions,
    threads: usize,
    no_cache: bool,
    cache_file: Option<std::path::PathBuf>,
    stats: bool,
    serve: Option<ServeMode>,
    /// `--corpus`, or more than one input: `== NAME ==` sections.
    corpus_mode: bool,
    /// Every built-in corpus program (`--corpus`).
    corpus_all: bool,
    inputs: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let (mut standard, mut parallelize, mut json, mut dot) = (false, false, false, false);
    let mut opts = Options {
        threads: 1,
        ..Options::default()
    };
    // The first flag `--serve` rejects: reports are chosen per request.
    let mut report_flag: Option<String> = None;
    for arg in std::env::args().skip(1) {
        let flag = match arg.as_str() {
            "--standard" => &mut standard,
            "--all" => &mut opts.report.view.all,
            "--parallel" => &mut opts.report.view.parallel,
            "--parallelize" => &mut parallelize,
            "--storage-kills" => &mut opts.report.storage_kills,
            "--fortran" => &mut opts.report.fortran,
            "--dot" => &mut dot,
            "--signs" => &mut opts.report.view.signs,
            "--json" => &mut json,
            "--no-cache" => &mut opts.no_cache,
            "--stats" => {
                opts.stats = true;
                continue;
            }
            "--serve" => {
                opts.serve = Some(ServeMode::Stdio);
                continue;
            }
            "--corpus" => {
                opts.corpus_all = true;
                continue;
            }
            "--list-corpus" => {
                for e in tiny::corpus::all() {
                    println!("{}", e.name);
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with("--threads=") => {
                opts.threads = other["--threads=".len()..]
                    .parse()
                    .map_err(|_| format!("bad thread count in {other}"))?;
                continue;
            }
            other if other.starts_with("--serve=") => {
                let path = &other["--serve=".len()..];
                if path.is_empty() {
                    return Err("empty socket path in --serve=".into());
                }
                opts.serve = Some(ServeMode::Socket(path.into()));
                continue;
            }
            other if other.starts_with("--cache-file=") => {
                let path = &other["--cache-file=".len()..];
                if path.is_empty() {
                    return Err("empty path in --cache-file=".into());
                }
                opts.cache_file = Some(path.into());
                continue;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other}"));
            }
            other => {
                opts.inputs.push(other.to_string());
                continue;
            }
        };
        *flag = true;
        report_flag.get_or_insert(arg);
    }
    if parallelize && (json || dot || standard) {
        return Err("--parallelize renders its own report (drop --json/--dot/--standard)".into());
    }
    if json && dot {
        return Err("--json and --dot are two output formats (pick one)".into());
    }
    if opts.no_cache && opts.cache_file.is_some() {
        return Err("--no-cache disables the memo cache --cache-file persists (drop one)".into());
    }
    opts.report.standard = standard;
    opts.report.format = match (parallelize, json, dot) {
        (true, _, _) => Format::Parallelize,
        (_, true, _) => Format::Json,
        (_, _, true) => Format::Dot,
        _ => Format::Text,
    };
    opts.corpus_mode = opts.corpus_all || opts.inputs.len() > 1;
    if opts.serve.is_some() {
        if !opts.inputs.is_empty() || opts.corpus_all {
            return Err("--serve takes no input argument (programs arrive as requests)".into());
        }
        if let Some(flag) = report_flag {
            return Err(format!(
                "--serve chooses the report per request and always caches (drop {flag})"
            ));
        }
    } else if opts.corpus_all {
        if !opts.inputs.is_empty() {
            return Err(
                "--corpus analyzes every built-in program; drop the input arguments".into(),
            );
        }
    } else if opts.inputs.is_empty() {
        return Err("no input given (try --help)".into());
    }
    if opts.corpus_mode && (json || dot) {
        return Err("corpus mode prints text reports only (drop --json/--dot)".into());
    }
    Ok(opts)
}

fn read_input(input: &str) -> Result<String, String> {
    if input == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(s)
    } else if let Some(name) = input.strip_prefix("corpus:") {
        tiny::corpus::by_name(name)
            .map(|e| e.source.to_string())
            .ok_or_else(|| format!("no corpus program `{name}` (see --list-corpus)"))
    } else {
        std::fs::read_to_string(input).map_err(|e| format!("reading {input}: {e}"))
    }
}

/// The one run path: every input (a single one is a one-program corpus)
/// through the front end, one corpus analysis on a shared cache (loaded
/// from and saved back to `--cache-file`, absent under `--no-cache`),
/// then a report per program — under a `== NAME ==` header in corpus mode,
/// which `--parallelize` closes with the corpus table. The front end,
/// the analysis and the rendering all run on one [`Pool`]; each stage
/// merges in input order, so the first error and the output are those of
/// a sequential run.
fn run(opts: &Options) -> Result<(), String> {
    let t0 = Instant::now();
    let named: Vec<(String, String)> = if opts.corpus_all {
        tiny::corpus::all()
            .into_iter()
            .map(|e| (e.name.to_string(), e.source.to_string()))
            .collect()
    } else {
        opts.inputs
            .iter()
            .map(|input| Ok((input.clone(), read_input(input)?)))
            .collect::<Result<_, String>>()?
    };
    let pool = Pool::new(opts.threads);
    let parsed = pool.map_infallible(named.iter().collect(), |_, (name, source)| {
        front_end(name, source, opts.report.fortran).map_err(|e| {
            if opts.corpus_mode {
                format!("{name}: {e}")
            } else {
                e
            }
        })
    });
    let (programs, infos): (Vec<_>, Vec<_>) = parsed
        .into_iter()
        .collect::<Result<Vec<_>, String>>()?
        .into_iter()
        .unzip();
    let front_end_ms = ms_since(t0);

    let t0 = Instant::now();
    let alloc_before = harness::alloc::snapshot();
    let cache_file = opts.cache_file.as_deref();
    let cache = (!opts.no_cache).then(|| Arc::new(load_cache(cache_file)));
    let analyses = analyze_corpus_on(&pool, &infos, &opts.report.config(), cache.clone())
        .map_err(|e| format!("analysis failed: {e}"))?;
    if let Some(cache) = &cache {
        save_cache(cache, cache_file);
    }
    let alloc_after = harness::alloc::snapshot();
    let analysis_ms = ms_since(t0);
    if opts.stats {
        print_stats(&analyses, alloc_before, alloc_after);
    }

    let t0 = Instant::now();
    let table = opts.corpus_mode && opts.report.format == Format::Parallelize;
    let rendered = pool.map_infallible(
        programs.iter().zip(&infos).zip(&analyses).collect(),
        |_, ((program, info), analysis)| {
            let graph = DepGraph::new(info, analysis);
            let report = opts.report.render(program, &graph);
            // The corpus table's `NEWLY` column is the paper's headline:
            // loops parallelizable only once false dependences are killed.
            let summary = table.then(|| ParallelizeSummary::of(&decide_loops(&graph)));
            (report, summary)
        },
    );
    let mut rows: Vec<(&str, ParallelizeSummary)> = Vec::new();
    for ((name, _), (report, summary)) in named.iter().zip(rendered) {
        if opts.corpus_mode {
            println!("== {name} ==");
        }
        print!("{report}");
        rows.extend(summary.map(|s| (name.as_str(), s)));
    }
    if !rows.is_empty() {
        let mut total = ParallelizeSummary::default();
        println!("== corpus parallelize summary ==");
        println!("PROGRAM                LOOPS  PARALLEL  OUTRIGHT  WITHOUT-KILLS  NEWLY");
        for (name, s) in &rows {
            total.add(s);
            println!(
                "{:<22} {:>5} {:>9} {:>9} {:>14} {:>6}",
                name, s.loops, s.parallel, s.outright, s.pre_parallel, s.newly
            );
        }
        println!(
            "{:<22} {:>5} {:>9} {:>9} {:>14} {:>6}",
            "TOTAL", total.loops, total.parallel, total.outright, total.pre_parallel, total.newly
        );
    }
    let render_ms = ms_since(t0);
    if opts.stats {
        eprintln!(
            "time: front end {front_end_ms:.1} ms, analysis {analysis_ms:.1} ms, \
             render {render_ms:.1} ms"
        );
    }
    // The process is about to exit, which returns every block at once:
    // freeing the analyses, infos and programs one by one first would
    // only add a serial tail after the last line is printed.
    std::mem::forget((analyses, infos, programs));
    Ok(())
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// The `--stats` lines on stderr. Every analysis carries the same
/// run-total cache snapshot; the pre-filter counters are per program.
fn print_stats(
    analyses: &[depend::Analysis],
    before: harness::alloc::AllocSnapshot,
    after: harness::alloc::AllocSnapshot,
) {
    if let Some(last) = analyses.last() {
        let c = &last.stats.cache;
        eprintln!(
            "cache: {} hits / {} lookups ({} inserts, {} entries); \
             canon: {} full, {} delta",
            c.hits,
            c.lookups(),
            c.inserts,
            c.entries,
            c.full_canons,
            c.delta_canons
        );
    }
    let mut p = depend::PrefilterStats::default();
    for a in analyses {
        p.absorb(a.stats.prefilter);
    }
    eprintln!(
        "prefilter: {} skipped of {} tested (gcd {}, range {}, symbolic {})",
        p.skipped(),
        p.tested(),
        p.gcd,
        p.range,
        p.symbolic_range
    );
    eprintln!(
        "alloc: {} allocations during analysis ({} live blocks, peak {} bytes)",
        after.allocs - before.allocs,
        (after.allocs as i64 - after.deallocs as i64)
            - (before.allocs as i64 - before.deallocs as i64),
        after.peak_bytes
    );
    let r = omega::row_store_stats();
    eprintln!(
        "rows: {} live of {} built ({} dead entries across {} shards); \
         {} interns ({} shared, {} re-minted); {} sweeps removed {}",
        r.live,
        r.built,
        r.dead,
        r.shards.len(),
        r.interns,
        r.shared,
        r.reminted,
        r.sweeps,
        r.swept
    );
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tinydep: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(mode) = &opts.serve else {
        return match run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("tinydep: {e}");
                ExitCode::FAILURE
            }
        };
    };
    let server = Server::new(opts.threads, opts.cache_file.clone());
    let served = match mode {
        ServeMode::Stdio => server.run_stdio(),
        #[cfg(unix)]
        ServeMode::Socket(path) => server.run_unix(path),
        #[cfg(not(unix))]
        ServeMode::Socket(_) => {
            eprintln!("tinydep: --serve=PATH needs Unix domain sockets; use --serve");
            return ExitCode::FAILURE;
        }
    };
    if opts.stats {
        eprintln!("server stats: {}", server.stats_json());
    }
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tinydep: serve: {e}");
            ExitCode::FAILURE
        }
    }
}
