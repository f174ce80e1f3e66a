//! `tinydep` — command-line dependence analyzer, in the spirit of the
//! augmented `tiny` tool the paper distributes.
//!
//! ```text
//! USAGE: tinydep [OPTIONS] <FILE... | corpus:NAME... | - | --corpus>
//!
//! OPTIONS:
//!   --standard      standard analysis only (no kills/covers/refinement)
//!   --fortran       parse the input as fixed-form FORTRAN (also inferred
//!                   from a .f/.f77/.for extension)
//!   --all           also print anti and output dependences
//!   --parallel      report loop parallelism and privatization
//!   --parallelize   run the parallelization decision engine: print the
//!                   source annotated with a `!$` verdict per loop
//!                   (PARALLELIZABLE / privatization / blocking
//!                   dependences), the DOT graph of surviving
//!                   dependences, and a kills-on/off summary whose
//!                   headline is the loops parallelizable only once
//!                   false dependences are killed. In corpus mode, a
//!                   `== corpus parallelize summary ==` table follows
//!                   the per-program sections
//!   --storage-kills also run kill analysis on output dependences
//!   --dot           emit the dependence graph in Graphviz DOT format
//!   --json          emit all dependences as JSON
//!   --signs         print partially compressed direction-vector sets
//!                   (the paper's §2.1.1) for each live flow dependence
//!   --threads=N     analyze on N worker threads (0 = one per core;
//!                   the output is identical at every setting). With
//!                   one input the pairs of that program fan out; with
//!                   several inputs (or --corpus) whole programs and
//!                   their pair batches share one two-level work pool,
//!                   so a lone heavy program still fills every worker
//!   --corpus        analyze every built-in corpus program in one run;
//!                   reports print as `== NAME ==` sections in corpus
//!                   order (text format only). Several FILE /
//!                   corpus:NAME inputs behave the same way
//!   --no-cache      disable the canonical-problem memo cache
//!   --cache-file=PATH
//!                   persist the memo cache: load it from PATH before the
//!                   analysis (ignored when missing/corrupt/stale) and
//!                   save it back after, so re-analyzing the same program
//!                   is served from cache. The report is byte-identical
//!                   either way.
//!   --stats         print solver-cache, row-store and pre-filter
//!                   counters to stderr after the analysis
//!   --serve         run as a long-lived analysis server on
//!                   stdin/stdout: line-delimited JSON requests in,
//!                   one JSON response per line out, with the solver
//!                   cache and row store kept warm across requests
//!                   (see the `server` module docs for the protocol)
//!   --serve=PATH    the same server on a Unix domain socket at PATH,
//!                   accepting concurrent clients
//!   --list-corpus   list built-in corpus programs and exit
//! ```
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

use depend::{analyze_corpus, analyze_program, Config};
use omega_repro::server::{render_text_report, ReportView, Server};

/// Count allocations so `--stats` can report them alongside the solver
/// counters.
#[global_allocator]
static ALLOC: harness::alloc::CountingAlloc = harness::alloc::CountingAlloc::new();

/// How `--serve` was requested: over stdio or a Unix domain socket.
enum ServeMode {
    Stdio,
    Socket(std::path::PathBuf),
}

struct Options {
    standard: bool,
    all: bool,
    parallel: bool,
    parallelize: bool,
    storage_kills: bool,
    fortran: bool,
    dot: bool,
    json: bool,
    signs: bool,
    threads: usize,
    no_cache: bool,
    cache_file: Option<std::path::PathBuf>,
    stats: bool,
    serve: Option<ServeMode>,
    corpus_all: bool,
    inputs: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        standard: false,
        all: false,
        parallel: false,
        parallelize: false,
        storage_kills: false,
        fortran: false,
        dot: false,
        json: false,
        signs: false,
        threads: 1,
        no_cache: false,
        cache_file: None,
        stats: false,
        serve: None,
        corpus_all: false,
        inputs: Vec::new(),
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--standard" => opts.standard = true,
            "--all" => opts.all = true,
            "--parallel" => opts.parallel = true,
            "--parallelize" => opts.parallelize = true,
            "--storage-kills" => opts.storage_kills = true,
            "--fortran" => opts.fortran = true,
            "--dot" => opts.dot = true,
            "--signs" => opts.signs = true,
            "--json" => opts.json = true,
            "--no-cache" => opts.no_cache = true,
            "--stats" => opts.stats = true,
            "--serve" => opts.serve = Some(ServeMode::Stdio),
            "--corpus" => opts.corpus_all = true,
            "--list-corpus" => {
                for e in tiny::corpus::all() {
                    println!("{}", e.name);
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("USAGE: tinydep [--standard] [--all] [--parallel] [--storage-kills] [--threads=N] <FILE... | corpus:NAME... | - | --corpus>");
                std::process::exit(0);
            }
            other if other.starts_with("--threads=") => {
                opts.threads = other["--threads=".len()..]
                    .parse()
                    .map_err(|_| format!("bad thread count in {other}"))?;
            }
            other if other.starts_with("--serve=") => {
                let path = &other["--serve=".len()..];
                if path.is_empty() {
                    return Err("empty socket path in --serve=".into());
                }
                opts.serve = Some(ServeMode::Socket(path.into()));
            }
            other if other.starts_with("--cache-file=") => {
                let path = &other["--cache-file=".len()..];
                if path.is_empty() {
                    return Err("empty path in --cache-file=".into());
                }
                opts.cache_file = Some(path.into());
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other}"));
            }
            other => opts.inputs.push(other.to_string()),
        }
    }
    if opts.parallelize && (opts.json || opts.dot || opts.standard) {
        return Err(
            "--parallelize renders its own report (drop --json/--dot/--standard)".into(),
        );
    }
    if opts.serve.is_some() {
        if !opts.inputs.is_empty() || opts.corpus_all {
            return Err("--serve takes no input argument (programs arrive as requests)".into());
        }
    } else if opts.corpus_all {
        if !opts.inputs.is_empty() {
            return Err("--corpus analyzes every built-in program; drop the input arguments".into());
        }
    } else if opts.inputs.is_empty() {
        return Err("no input given (try --help)".into());
    }
    Ok(opts)
}

/// Parses `source` (inferring FORTRAN from the input name unless forced)
/// and runs the `tiny` semantic analysis.
fn front_end(
    name: &str,
    source: &str,
    force_fortran: bool,
) -> Result<(tiny::Program, tiny::sema::ProgramInfo), String> {
    let is_fortran = force_fortran
        || [".f", ".f77", ".for", ".F"]
            .iter()
            .any(|ext| name.ends_with(ext));
    let parsed = if is_fortran {
        tiny::fortran::parse(source)
    } else {
        tiny::Program::parse(source)
    };
    let program = parsed.map_err(|e| e.to_string())?;
    let info = tiny::analyze(&program).map_err(|e| e.to_string())?;
    Ok((program, info))
}

/// The analysis `Config` implied by the command-line options.
fn config_from(opts: &Options) -> Config {
    Config {
        storage_kills: opts.storage_kills,
        threads: opts.threads,
        memo_cache: !opts.no_cache,
        cache_file: opts.cache_file.clone(),
        ..if opts.standard {
            Config::standard()
        } else {
            Config::extended()
        }
    }
}

/// Corpus mode: several inputs (or the whole built-in corpus) analyzed
/// as one batch on a shared two-level pool and one shared solver cache,
/// printed as `== NAME ==` sections in input order.
fn run_corpus(opts: &Options) -> ExitCode {
    if opts.json || opts.dot {
        eprintln!("tinydep: corpus mode prints text reports only (drop --json/--dot)");
        return ExitCode::FAILURE;
    }
    let mut named: Vec<(String, String)> = Vec::new();
    if opts.corpus_all {
        for e in tiny::corpus::all() {
            named.push((e.name.to_string(), e.source.to_string()));
        }
    } else {
        for input in &opts.inputs {
            match read_input(input) {
                Ok(source) => named.push((input.clone(), source)),
                Err(e) => {
                    eprintln!("tinydep: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let mut programs = Vec::with_capacity(named.len());
    let mut infos = Vec::with_capacity(named.len());
    for (name, source) in &named {
        match front_end(name, source, opts.fortran) {
            Ok((program, info)) => {
                programs.push(program);
                infos.push(info);
            }
            Err(e) => {
                eprintln!("tinydep: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let analyses = match analyze_corpus(&infos, &config_from(opts)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tinydep: analysis failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.parallelize {
        // Per-program decision reports, then the corpus-level table whose
        // `newly` column is the paper's headline: loops parallelizable
        // only once false dependences are killed.
        let mut rows: Vec<(&str, depend::ParallelizeSummary)> = Vec::new();
        let mut total = depend::ParallelizeSummary::default();
        for ((name, _), (program, (info, analysis))) in named
            .iter()
            .zip(programs.iter().zip(infos.iter().zip(analyses.iter())))
        {
            println!("== {name} ==");
            let graph = depend::DepGraph::new(info, analysis);
            print!("{}", depend::render_parallelize_report(program, &graph));
            let summary = depend::ParallelizeSummary::of(&depend::decide_loops(&graph));
            total.add(&summary);
            rows.push((name, summary));
        }
        println!("== corpus parallelize summary ==");
        println!("PROGRAM                LOOPS  PARALLEL  OUTRIGHT  WITHOUT-KILLS  NEWLY");
        for (name, s) in &rows {
            println!(
                "{:<22} {:>5} {:>9} {:>9} {:>14} {:>6}",
                name, s.loops, s.parallel, s.outright, s.pre_parallel, s.newly
            );
        }
        println!(
            "{:<22} {:>5} {:>9} {:>9} {:>14} {:>6}",
            "TOTAL", total.loops, total.parallel, total.outright, total.pre_parallel, total.newly
        );
        return ExitCode::SUCCESS;
    }
    let view = ReportView {
        all: opts.all,
        signs: opts.signs,
        parallel: opts.parallel,
    };
    for ((name, _), (info, analysis)) in named.iter().zip(infos.iter().zip(analyses.iter())) {
        println!("== {name} ==");
        print!("{}", render_text_report(info, analysis, &view));
    }
    if opts.stats {
        // Every analysis carries the same corpus-total cache snapshot;
        // read it off the last one.
        if let Some(last) = analyses.last() {
            let c = &last.stats.cache;
            eprintln!(
                "corpus cache: {} hits / {} lookups ({} inserts, {} entries); \
                 canon: {} full, {} delta; \
                 bases: {} resident, {} sweeps evicted {}",
                c.hits,
                c.lookups(),
                c.inserts,
                c.entries,
                c.full_canons,
                c.delta_canons,
                c.base_forms,
                c.base_sweeps,
                c.base_evicted
            );
        }
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
    ExitCode::SUCCESS
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

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tinydep: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(mode) = &opts.serve {
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
        return match served {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("tinydep: serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if opts.corpus_all || opts.inputs.len() > 1 {
        return run_corpus(&opts);
    }
    let input_name = opts.inputs[0].as_str();
    let source = match read_input(input_name) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tinydep: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (program, info) = match front_end(input_name, &source, opts.fortran) {
        Ok(pi) => pi,
        Err(e) => {
            eprintln!("tinydep: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = config_from(&opts);
    let alloc_before = harness::alloc::snapshot();
    let analysis = match analyze_program(&info, &config) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tinydep: analysis failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let alloc_after = harness::alloc::snapshot();
    if opts.stats {
        let c = &analysis.stats.cache;
        let p = &analysis.stats.prefilter;
        eprintln!(
            "cache: {} hits / {} lookups ({} inserts); \
             canon: {} full, {} delta; \
             prefilter: {} skipped of {} tested (gcd {}, range {}, symbolic {})",
            c.hits,
            c.lookups(),
            c.inserts,
            c.full_canons,
            c.delta_canons,
            p.skipped(),
            p.tested(),
            p.gcd,
            p.range,
            p.symbolic_range
        );
        eprintln!(
            "alloc: {} allocations during analysis ({} live blocks, peak {} bytes)",
            alloc_after.allocs - alloc_before.allocs,
            (alloc_after.allocs as i64 - alloc_after.deallocs as i64)
                - (alloc_before.allocs as i64 - alloc_before.deallocs as i64),
            alloc_after.peak_bytes
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

    if opts.parallelize {
        // The same rendering path the corpus sections and the server
        // `parallelize` op use, so all three are byte-identical.
        let graph = depend::DepGraph::new(&info, &analysis);
        print!("{}", depend::render_parallelize_report(&program, &graph));
        return ExitCode::SUCCESS;
    }
    if opts.json {
        let graph = depend::DepGraph::new(&info, &analysis);
        print!("{}", depend::report::to_json(&graph));
        return ExitCode::SUCCESS;
    }
    if opts.dot {
        let dot_opts = depend::dot::DotOptions {
            antis: opts.all,
            outputs: opts.all,
            dead: true,
        };
        let graph = depend::DepGraph::new(&info, &analysis);
        print!("{}", depend::dot::to_dot(&graph, &dot_opts));
        return ExitCode::SUCCESS;
    }

    // The same rendering path the server uses, so a `--serve` response
    // is byte-identical to this one-shot output.
    let view = ReportView {
        all: opts.all,
        signs: opts.signs,
        parallel: opts.parallel,
    };
    print!("{}", render_text_report(&info, &analysis, &view));
    ExitCode::SUCCESS
}
