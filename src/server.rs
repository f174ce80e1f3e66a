//! Analysis server mode: a long-lived `tinydep --serve` daemon.
//!
//! A one-shot `tinydep` run pays the full cost of cold caches on every
//! invocation: the canonical-form memo cache starts empty and the
//! interned row store is rebuilt from scratch. Driving many analyses
//! from an editor, a build system, or a test harness therefore repeats
//! work that the solver has already done. The server keeps one
//! [`omega::SolverCache`] and the process-wide row store warm across
//! requests, so repeat queries (and the heavily shared sub-problems of
//! *different* programs) are served from cache.
//!
//! # Protocol
//!
//! Line-delimited JSON: one request per line in, one response per line
//! out, in request order. Over stdio (`tinydep --serve`) or a Unix
//! domain socket (`tinydep --serve=PATH`).
//!
//! Requests are JSON objects with an `op` field and an optional numeric
//! `id` that is echoed in the response:
//!
//! ```text
//! {"id":1,"op":"analyze","source":"for i := 1 to n do a(i) := a(i-1); endfor"}
//! {"id":2,"op":"analyze","corpus":"cholsky","options":{"all":true}}
//! {"id":3,"op":"parallelize","corpus":"cholsky"}
//! {"id":4,"op":"stats"}
//! {"id":5,"op":"gc"}
//! {"id":6,"op":"ping"}
//! {"id":7,"op":"shutdown"}
//! ```
//!
//! (There is also a `panic` op that deliberately panics inside the
//! request handler — a diagnostic back door for exercising the panic
//! containment below; it answers with an error response.)
//!
//! `analyze` takes the program text in `source` (or a built-in corpus
//! program by `corpus` name) plus an `options` object of booleans
//! mirroring the one-shot flags — `standard`, `all`, `parallel`,
//! `storage_kills`, `signs`, `fortran` — and a `format` of `"text"`
//! (default), `"json"`, or `"dot"`. The rendered report is returned as
//! an escaped string:
//!
//! ```text
//! {"id":1,"ok":true,"report":"live flow dependences:\n..."}
//! {"id":7,"ok":false,"error":"parse error: ..."}
//! ```
//!
//! `parallelize` takes the same `source`/`corpus` input (honoring the
//! `fortran` and `storage_kills` options) and returns the
//! `tinydep --parallelize` decision report — annotated source, the DOT
//! graph of surviving dependences, and the kills-on/off summary line —
//! byte-identical to the one-shot run.
//!
//! Reports are **byte-identical** to what a one-shot `tinydep` run with
//! the same flags prints: both paths render through
//! [`render_text_report`] (or the shared JSON/DOT emitters), and the
//! solver's determinism contract guarantees cache state can never leak
//! into a result.
//!
//! # Concurrency and cache sharing
//!
//! Requests are batched: the first request is taken blocking, then up
//! to [`MAX_BATCH`]`- 1` more are drained without waiting, and the
//! batch fans out over one long-lived two-level [`depend::Pool`].
//! Requests are the outer work items; each analysis additionally
//! submits its pair-stage batches to the *same* pool (via
//! [`depend::analyze_program_on`]), so a lone heavy request on an
//! otherwise idle server fans its pairs across every worker instead of
//! monopolizing one. The pool's merges preserve order at both levels,
//! so responses come back in request order no matter which worker ran
//! what. Every request sees the single shared [`omega::SolverCache`];
//! per-request `Config` cache settings are fixed (memoization on, no
//! per-request cache file).
//!
//! In socket mode each connection gets a reader thread, but all
//! requests funnel into the one batching dispatcher, so M concurrent
//! clients share the pool and the cache exactly like one pipelined
//! client.
//!
//! # Panic containment
//!
//! A panic while handling a request (a solver invariant violation, the
//! diagnostic `panic` op) must not kill the daemon or poison the shared
//! pool: each request runs under `catch_unwind` at the request
//! boundary, the offending request answers with an `"internal error"`
//! response, and the rest of its batch completes normally. The solver
//! cache and row store use poison-proof locks, so a contained panic
//! cannot wedge them either.
//!
//! # Row-store GC policy
//!
//! Interned rows are freed when their last strong reference drops, but
//! the store's `Weak` index entries linger until swept. A one-shot run
//! never cares; a daemon would accumulate dead index entries from every
//! request it ever served. The store itself sweeps when its dead count
//! crosses a threshold (see `omega::row`), and the server additionally
//! calls [`omega::row_store_gc`] after every batch, so the live-row
//! count observed by `stats` is flat across a soak: it reflects only
//! rows still referenced by the shared solver cache, not request
//! history.
//!
//! # Lifetime
//!
//! With `--cache-file=PATH` the server loads the persistent cache once
//! at startup and saves it (atomically — temp file plus rename) once at
//! shutdown. Shutdown happens on `{"op":"shutdown"}` or, in stdio mode,
//! on EOF. Requests already read when a shutdown request is processed
//! are still answered.

use std::fmt::Write as _;
use std::io::{BufRead as _, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use depend::{Config, ReportOptions};

use crate::json::{self, Json};

/// Requests taken per batch: one blocking receive plus up to this many
/// total drained without waiting, fanned over the worker pool together.
pub const MAX_BATCH: usize = 64;

/// Which sections of the one-shot text report to render. Mirrors the
/// `--all`, `--signs` and `--parallel` flags.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReportView {
    /// Also render anti and output dependences (`--all`).
    pub all: bool,
    /// Render §2.1.1 partially compressed sign sets (`--signs`).
    pub signs: bool,
    /// Render loop parallelism and privatization verdicts
    /// (`--parallel`).
    pub parallel: bool,
}

/// Renders the default text report exactly as one-shot `tinydep` prints
/// it — the single rendering path shared by the CLI and the server, so
/// a server response is byte-identical to the one-shot run with the
/// same flags.
pub fn render_text_report(
    info: &tiny::ProgramInfo,
    analysis: &depend::Analysis,
    view: &ReportView,
) -> String {
    let graph = depend::DepGraph::new(info, analysis);
    let ropts = ReportOptions::default();
    let mut out = String::new();
    out.push_str("live flow dependences:\n");
    out.push_str(&depend::live_flow_table(&graph, &ropts));
    if graph.dead_flows().next().is_some() {
        out.push_str("\ndead flow dependences:\n");
        out.push_str(&depend::dead_flow_table(&graph, &ropts));
    }
    if view.all {
        out.push_str("\nanti dependences:\n");
        for e in graph.edges_of_kind(depend::DepKind::Anti) {
            let _ = writeln!(out, "{}", depend::format_edge(e, &ropts));
        }
        out.push_str("\noutput dependences:\n");
        for e in graph.edges_of_kind(depend::DepKind::Output) {
            let _ = writeln!(out, "{}", depend::format_edge(e, &ropts));
        }
    }
    if view.signs {
        out.push_str("\npartially compressed direction-vector sets (live flows):\n");
        let mut budget = omega::Budget::default();
        for d in analysis.live_flows() {
            if d.common == 0 {
                continue;
            }
            // The sign decomposition works on the unordered dependence
            // problem: the union of the live cases' problems per level.
            let mut sets = Vec::new();
            for case in &d.cases {
                match depend::dirvec::partially_compressed_direction_vectors(
                    &case.problem,
                    &case.src_vars.iters,
                    &case.dst_vars.iters,
                    d.common,
                    false,
                    &mut budget,
                ) {
                    Ok(vs) => sets.extend(vs.into_iter().map(|v| v.to_string())),
                    Err(e) => {
                        sets.push(format!("<error: {e}>"));
                    }
                }
            }
            sets.sort();
            sets.dedup();
            let _ = writeln!(
                out,
                "  {} -> {}: {{{}}}",
                d.src.label,
                d.dst.label,
                sets.join(", ")
            );
        }
    }
    if view.parallel {
        out.push_str("\nloop parallelism:\n");
        let legality = depend::Legality::new(info, analysis);
        for l in depend::program_loops(info) {
            let verdict = if legality.is_parallel(&l) {
                "PARALLEL".to_string()
            } else {
                match legality.parallel_with_privatization(&l) {
                    Some(arrays) if arrays.is_empty() => "PARALLEL".to_string(),
                    Some(arrays) => format!(
                        "PARALLEL after privatizing {}",
                        arrays.into_iter().collect::<Vec<_>>().join(", ")
                    ),
                    None => "sequential".to_string(),
                }
            };
            let _ = writeln!(out, "  {:<6} depth {}: {}", l.var, l.depth, verdict);
        }
    }
    out
}

/// Output format of an `analyze` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Dot,
}

/// Per-request analysis options, decoded from the `options` object.
#[derive(Debug, Clone, Copy)]
struct AnalyzeOptions {
    standard: bool,
    all: bool,
    parallel: bool,
    storage_kills: bool,
    signs: bool,
    fortran: bool,
    format: Format,
}

impl AnalyzeOptions {
    fn from_request(req: &Json) -> Result<AnalyzeOptions, String> {
        let opts = req.get("options");
        let flag = |key: &str| -> Result<bool, String> {
            match opts.and_then(|o| o.get(key)) {
                None => Ok(false),
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| format!("option {key:?} must be a boolean")),
            }
        };
        let format = match opts.and_then(|o| o.get("format")) {
            None => Format::Text,
            Some(v) => match v.as_str() {
                Some("text") => Format::Text,
                Some("json") => Format::Json,
                Some("dot") => Format::Dot,
                _ => return Err("option \"format\" must be \"text\", \"json\" or \"dot\"".into()),
            },
        };
        Ok(AnalyzeOptions {
            standard: flag("standard")?,
            all: flag("all")?,
            parallel: flag("parallel")?,
            storage_kills: flag("storage_kills")?,
            signs: flag("signs")?,
            fortran: flag("fortran")?,
            format,
        })
    }

    fn view(&self) -> ReportView {
        ReportView {
            all: self.all,
            signs: self.signs,
            parallel: self.parallel,
        }
    }
}

/// One response line, plus whether the request asked the server to stop.
#[derive(Debug, Clone)]
pub struct Response {
    /// The serialized JSON response (no trailing newline).
    pub line: String,
    /// True when this response answers a `shutdown` request.
    pub shutdown: bool,
}

impl Response {
    fn ok(id: Option<i64>, body: &str, shutdown: bool) -> Response {
        let mut line = String::from("{");
        if let Some(id) = id {
            let _ = write!(line, "\"id\":{id},");
        }
        line.push_str("\"ok\":true");
        if !body.is_empty() {
            line.push(',');
            line.push_str(body);
        }
        line.push('}');
        Response { line, shutdown }
    }

    fn error(id: Option<i64>, msg: &str) -> Response {
        let mut line = String::from("{");
        if let Some(id) = id {
            let _ = write!(line, "\"id\":{id},");
        }
        let _ = write!(line, "\"ok\":false,\"error\":\"{}\"}}", json::escape(msg));
        Response {
            line,
            shutdown: false,
        }
    }
}

/// The analysis server: one shared solver cache, one batching worker
/// pool, a warm row store. See the module docs for the protocol.
pub struct Server {
    cache: Arc<omega::SolverCache>,
    threads: usize,
    cache_file: Option<PathBuf>,
    requests: AtomicU64,
    shutdown: AtomicBool,
}

/// Best-effort text of a caught panic payload (`panic!` with a string
/// literal or a formatted message covers practically every real panic).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

impl Server {
    /// Creates a server with `threads` pool workers (`0` = one per
    /// available core). With a `cache_file`, the persistent cache is
    /// loaded now and saved back (atomically) at shutdown; a missing or
    /// damaged file simply means a cold start.
    pub fn new(threads: usize, cache_file: Option<PathBuf>) -> Server {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        let cache = match &cache_file {
            Some(path) => omega::SolverCache::load_from(path),
            None => omega::SolverCache::new(),
        };
        Server {
            cache: Arc::new(cache),
            threads,
            cache_file,
            requests: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The shared solver cache (for inspection in tests and stats).
    pub fn cache(&self) -> &Arc<omega::SolverCache> {
        &self.cache
    }

    /// Handles one request line and produces its response line, or
    /// `None` for a blank line. Processing is synchronous and
    /// `&self`-only, so any number of requests may be handled
    /// concurrently; ordering is the caller's concern (the run loops
    /// preserve request order). Analyses run single-threaded; the run
    /// loops use [`Server::handle_line_on`] to fan pair batches onto
    /// their shared pool.
    pub fn handle_line(&self, line: &str) -> Option<Response> {
        self.handle_line_on(line, None)
    }

    /// [`Server::handle_line`] with an optional shared [`depend::Pool`]:
    /// when given, an `analyze` request fans its pair-stage batches onto
    /// that pool, so one heavy request can use every worker. A panic
    /// while handling the request is caught here, at the request
    /// boundary, and turned into an `"internal error"` response — the
    /// daemon and the rest of the batch are unaffected.
    pub fn handle_line_on(&self, line: &str, pool: Option<&depend::Pool>) -> Option<Response> {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return None;
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.dispatch(trimmed, pool)
        })) {
            Ok(resp) => Some(resp),
            Err(payload) => {
                // Re-parse just for the id: the panic may have struck
                // anywhere in dispatch, so nothing from it survives.
                let id = json::parse(trimmed)
                    .ok()
                    .and_then(|req| req.get("id").and_then(Json::as_i64));
                let what = panic_message(payload.as_ref());
                Some(Response::error(
                    id,
                    &format!("internal error: request panicked: {what}"),
                ))
            }
        }
    }

    fn dispatch(&self, trimmed: &str, pool: Option<&depend::Pool>) -> Response {
        let req = match json::parse(trimmed) {
            Ok(v) => v,
            Err(e) => return Response::error(None, &format!("bad request: {e}")),
        };
        let id = req.get("id").and_then(Json::as_i64);
        let op = match req.get("op").and_then(Json::as_str) {
            Some(op) => op,
            None => return Response::error(id, "missing \"op\" field"),
        };
        match op {
            "ping" => Response::ok(id, "\"pong\":true", false),
            "gc" => {
                let swept = omega::row_store_gc();
                let live = omega::row_store_stats().live;
                Response::ok(id, &format!("\"swept\":{swept},\"live\":{live}"), false)
            }
            "stats" => Response::ok(id, &format!("\"stats\":{}", self.stats_json()), false),
            "shutdown" => Response::ok(id, "\"shutdown\":true", true),
            "analyze" => match self.try_analyze(&req, pool) {
                Ok(report) => Response::ok(
                    id,
                    &format!("\"report\":\"{}\"", json::escape(&report)),
                    false,
                ),
                Err(e) => Response::error(id, &e),
            },
            "parallelize" => match self.try_parallelize(&req, pool) {
                Ok(report) => Response::ok(
                    id,
                    &format!("\"report\":\"{}\"", json::escape(&report)),
                    false,
                ),
                Err(e) => Response::error(id, &e),
            },
            // Diagnostic back door: proves a panicking request is
            // contained to its own response (see the module docs).
            "panic" => panic!("deliberate panic (op \"panic\")"),
            other => Response::error(id, &format!("unknown op {other:?}")),
        }
    }

    /// Resolves the request's `source`/`corpus` field into a parsed and
    /// semantically analyzed program — shared by `analyze` and
    /// `parallelize`.
    fn resolve_program(
        req: &Json,
        fortran: bool,
    ) -> Result<(tiny::Program, tiny::ProgramInfo), String> {
        let source: String = if let Some(name) = req.get("corpus").and_then(Json::as_str) {
            tiny::corpus::by_name(name)
                .map(|e| e.source.to_string())
                .ok_or_else(|| format!("no corpus program `{name}`"))?
        } else if let Some(src) = req.get("source").and_then(Json::as_str) {
            src.to_string()
        } else {
            return Err("request needs a \"source\" or \"corpus\" field".into());
        };
        let parsed = if fortran {
            tiny::fortran::parse(&source)
        } else {
            tiny::Program::parse(&source)
        };
        let program = parsed.map_err(|e| e.to_string())?;
        let info = tiny::analyze(&program).map_err(|e| e.to_string())?;
        Ok((program, info))
    }

    /// Runs dependence analysis under the server's cache-pinned config.
    /// With a shared pool, the request's pair batches interleave with
    /// the other requests' on the same workers; without one, the request
    /// runs sequentially.
    fn run_analysis(
        &self,
        info: &tiny::ProgramInfo,
        config: &Config,
        pool: Option<&depend::Pool>,
    ) -> Result<depend::Analysis, String> {
        match pool {
            Some(pool) => {
                depend::analyze_program_on(pool, info, config, Some(Arc::clone(&self.cache)))
            }
            None => depend::analyze_program_with_cache(info, config, Some(Arc::clone(&self.cache))),
        }
        .map_err(|e| format!("analysis failed: {e}"))
    }

    fn try_analyze(&self, req: &Json, pool: Option<&depend::Pool>) -> Result<String, String> {
        let opts = AnalyzeOptions::from_request(req)?;
        let (_, info) = Self::resolve_program(req, opts.fortran)?;
        // The server owns the cache, so the per-run cache knobs are
        // pinned here.
        let config = Config {
            storage_kills: opts.storage_kills,
            threads: 1,
            memo_cache: true,
            cache_file: None,
            ..if opts.standard {
                Config::standard()
            } else {
                Config::extended()
            }
        };
        let analysis = self.run_analysis(&info, &config, pool)?;
        Ok(match opts.format {
            Format::Json => {
                let graph = depend::DepGraph::new(&info, &analysis);
                depend::report::to_json(&graph)
            }
            Format::Dot => {
                let graph = depend::DepGraph::new(&info, &analysis);
                depend::dot::to_dot(
                    &graph,
                    &depend::dot::DotOptions {
                        antis: opts.all,
                        outputs: opts.all,
                        dead: true,
                    },
                )
            }
            Format::Text => render_text_report(&info, &analysis, &opts.view()),
        })
    }

    /// Handles a `parallelize` request: the full decision-engine report
    /// (annotated source, surviving-dependence DOT graph, summary),
    /// byte-identical to one-shot `tinydep --parallelize` on the same
    /// program. Honors the `fortran` and `storage_kills` options; the
    /// analysis is always the extended one (the report's point is the
    /// kills-on/off delta).
    fn try_parallelize(&self, req: &Json, pool: Option<&depend::Pool>) -> Result<String, String> {
        let opts = AnalyzeOptions::from_request(req)?;
        let (program, info) = Self::resolve_program(req, opts.fortran)?;
        let config = Config {
            storage_kills: opts.storage_kills,
            threads: 1,
            memo_cache: true,
            cache_file: None,
            ..Config::extended()
        };
        let analysis = self.run_analysis(&info, &config, pool)?;
        let graph = depend::DepGraph::new(&info, &analysis);
        Ok(depend::render_parallelize_report(&program, &graph))
    }

    /// Row-store and solver-cache counters as a JSON object — the body
    /// of a `stats` response.
    pub fn stats_json(&self) -> String {
        let r = omega::row_store_stats();
        let c = self.cache.stats();
        format!(
            "{{\"requests\":{},\
             \"rows\":{{\"built\":{},\"live\":{},\"dead\":{},\"interns\":{},\
             \"shared\":{},\"reminted\":{},\"sweeps\":{},\"swept\":{},\"shards\":{}}},\
             \"cache\":{{\"hits\":{},\"misses\":{},\"inserts\":{},\"entries\":{},\
             \"full_canons\":{},\"delta_canons\":{},\
             \"base_forms\":{},\
             \"base_sweeps\":{},\"base_evicted\":{},\"hit_rate\":\"{:.4}\"}}}}",
            self.requests.load(Ordering::Relaxed),
            r.built,
            r.live,
            r.dead,
            r.interns,
            r.shared,
            r.reminted,
            r.sweeps,
            r.swept,
            r.shards.len(),
            c.hits,
            c.misses,
            c.inserts,
            c.entries,
            c.full_canons,
            c.delta_canons,
            c.base_forms,
            c.base_sweeps,
            c.base_evicted,
            c.hit_rate(),
        )
    }

    fn save_cache(&self) {
        if let Some(path) = &self.cache_file {
            if let Err(e) = self.cache.save_to(path) {
                eprintln!("tinydep: saving cache to {}: {e}", path.display());
            }
        }
    }

    /// Takes one batch off a request channel: blocking receive for the
    /// first item, then drain without waiting up to [`MAX_BATCH`].
    /// `None` means the channel is closed.
    fn take_batch<T>(rx: &mpsc::Receiver<T>) -> Option<Vec<T>> {
        let first = rx.recv().ok()?;
        let mut batch = vec![first];
        while batch.len() < MAX_BATCH {
            match rx.try_recv() {
                Ok(item) => batch.push(item),
                Err(_) => break,
            }
        }
        Some(batch)
    }

    /// Serves line-delimited JSON over stdin/stdout until EOF or a
    /// `shutdown` request, then saves the persistent cache (if
    /// configured). Responses are written in request order.
    pub fn run_stdio(&self) -> std::io::Result<()> {
        let (tx, rx) = mpsc::channel::<String>();
        // Reader thread: decouples blocking stdin reads from batch
        // processing, so a batch forms from whatever has arrived. The
        // thread exits on EOF, or on a failed send once `rx` is
        // dropped; it is detached rather than joined because it may be
        // parked in a blocking read when the server shuts down.
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let stdout = std::io::stdout();
        // One two-level pool for the server's lifetime: requests are
        // the outer items, and each analysis feeds its pair batches
        // back into the same pool (see the module docs).
        let pool = depend::Pool::new(self.threads);
        'serve: while let Some(batch) = Self::take_batch(&rx) {
            let responses = pool.map_infallible(batch, |_, line| {
                self.handle_line_on(&line, Some(&pool))
            });
            let mut out = stdout.lock();
            let mut stop = false;
            for resp in responses.into_iter().flatten() {
                writeln!(out, "{}", resp.line)?;
                stop |= resp.shutdown;
            }
            out.flush()?;
            drop(out);
            // Keep the row-store index flat: rows die as request-local
            // problems drop; sweep their Weak residue between batches.
            omega::row_store_gc();
            if stop {
                break 'serve;
            }
        }
        self.save_cache();
        Ok(())
    }

    /// Serves line-delimited JSON over a Unix domain socket at `path`
    /// until a `shutdown` request, then saves the persistent cache (if
    /// configured). Each connection is read by its own thread, but all
    /// requests funnel into one batching dispatcher on the shared
    /// worker pool; per connection, responses come back in request
    /// order. A stale socket file at `path` is replaced; the file is
    /// removed again on shutdown.
    #[cfg(unix)]
    pub fn run_unix(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::os::unix::net::{UnixListener, UnixStream};

        struct Job {
            line: String,
            reply: mpsc::Sender<Response>,
        }

        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let (jtx, jrx) = mpsc::channel::<Job>();
        let pool = depend::Pool::new(self.threads);
        let pool = &pool;

        std::thread::scope(|scope| -> std::io::Result<()> {
            // The batching dispatcher: same loop shape as stdio mode,
            // with responses routed back to their connection.
            scope.spawn(move || {
                while let Some(batch) = Self::take_batch(&jrx) {
                    let responses = pool.map_infallible(batch, |_, job: Job| {
                        (job.reply, self.handle_line_on(&job.line, Some(pool)))
                    });
                    let mut stop = false;
                    for (reply, resp) in responses {
                        if let Some(resp) = resp {
                            stop |= resp.shutdown;
                            let _ = reply.send(resp);
                        }
                    }
                    omega::row_store_gc();
                    if stop {
                        self.shutdown.store(true, Ordering::SeqCst);
                        // Unblock the accept loop below.
                        let _ = UnixStream::connect(path);
                        break;
                    }
                }
            });

            for conn in listener.incoming() {
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let jtx = jtx.clone();
                scope.spawn(move || {
                    let Ok(read_half) = stream.try_clone() else {
                        return;
                    };
                    let reader = std::io::BufReader::new(read_half);
                    let mut writer = std::io::BufWriter::new(stream);
                    for line in reader.lines() {
                        let Ok(line) = line else { break };
                        let (rtx, rrx) = mpsc::channel();
                        if jtx.send(Job { line, reply: rtx }).is_err() {
                            break; // dispatcher shut down
                        }
                        let Ok(resp) = rrx.recv() else {
                            continue; // blank line: no response
                        };
                        if writeln!(writer, "{}", resp.line).is_err() || writer.flush().is_err() {
                            break;
                        }
                        if resp.shutdown {
                            break;
                        }
                    }
                });
            }
            // Closing the job channel ends the dispatcher (if a client
            // vanished without sending `shutdown`, e.g. bind errors).
            drop(jtx);
            Ok(())
        })?;

        let _ = std::fs::remove_file(path);
        self.save_cache();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(1, None)
    }

    #[test]
    fn ping_and_unknown_ops() {
        let s = server();
        let r = s.handle_line("{\"id\":7,\"op\":\"ping\"}").unwrap();
        assert_eq!(r.line, "{\"id\":7,\"ok\":true,\"pong\":true}");
        assert!(!r.shutdown);
        let r = s.handle_line("{\"op\":\"frobnicate\"}").unwrap();
        assert_eq!(r.line, "{\"ok\":false,\"error\":\"unknown op \\\"frobnicate\\\"\"}");
        assert!(s.handle_line("   ").is_none());
    }

    #[test]
    fn malformed_requests_error_without_panicking() {
        let s = server();
        for bad in [
            "not json at all",
            "{\"op\":",
            "{}",
            "[1,2,3]",
            "{\"op\":\"analyze\"}",
            "{\"op\":\"analyze\",\"source\":\"for i :=\"}",
            "{\"op\":\"analyze\",\"corpus\":\"no_such_program\"}",
            "{\"op\":\"analyze\",\"source\":\"\",\"options\":{\"all\":\"yes\"}}",
            "{\"op\":\"analyze\",\"source\":\"\",\"options\":{\"format\":\"yaml\"}}",
        ] {
            let r = s.handle_line(bad).unwrap();
            assert!(
                r.line.contains("\"ok\":false"),
                "{bad}: expected an error, got {}",
                r.line
            );
            assert!(!r.shutdown);
        }
    }

    #[test]
    fn analyze_matches_the_one_shot_rendering() {
        let s = server();
        let r = s
            .handle_line("{\"id\":1,\"op\":\"analyze\",\"corpus\":\"example3\"}")
            .unwrap();
        assert!(r.line.starts_with("{\"id\":1,\"ok\":true,\"report\":\""), "{}", r.line);

        let program = tiny::Program::parse(
            tiny::corpus::by_name("example3").expect("corpus program").source,
        )
        .unwrap();
        let info = tiny::analyze(&program).unwrap();
        let analysis = depend::analyze_program(&info, &Config::extended()).unwrap();
        let expected = render_text_report(&info, &analysis, &ReportView::default());
        let expected_line = format!(
            "{{\"id\":1,\"ok\":true,\"report\":\"{}\"}}",
            json::escape(&expected)
        );
        assert_eq!(r.line, expected_line);
    }

    #[test]
    fn stats_and_gc_round_trip() {
        let s = server();
        s.handle_line("{\"op\":\"analyze\",\"corpus\":\"example1\"}")
            .unwrap();
        let r = s.handle_line("{\"id\":2,\"op\":\"stats\"}").unwrap();
        let v = json::parse(&r.line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let stats = v.get("stats").expect("stats object");
        assert!(stats.get("requests").and_then(Json::as_i64).unwrap() >= 2);
        assert!(stats.get("rows").and_then(|r| r.get("built")).is_some());
        assert!(stats.get("cache").and_then(|c| c.get("hits")).is_some());

        let r = s.handle_line("{\"id\":3,\"op\":\"gc\"}").unwrap();
        let v = json::parse(&r.line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert!(v.get("swept").and_then(Json::as_i64).is_some());
        assert!(v.get("live").and_then(Json::as_i64).is_some());
    }

    #[test]
    fn shutdown_is_flagged() {
        let s = server();
        let r = s.handle_line("{\"id\":9,\"op\":\"shutdown\"}").unwrap();
        assert_eq!(r.line, "{\"id\":9,\"ok\":true,\"shutdown\":true}");
        assert!(r.shutdown);
    }

    #[test]
    fn repeat_requests_hit_the_shared_cache() {
        let s = server();
        s.handle_line("{\"op\":\"analyze\",\"corpus\":\"example2\"}")
            .unwrap();
        let cold = s.cache().stats();
        s.handle_line("{\"op\":\"analyze\",\"corpus\":\"example2\"}")
            .unwrap();
        let warm = s.cache().stats();
        assert!(cold.misses > 0, "first request found a warm cache");
        assert_eq!(
            warm.misses, cold.misses,
            "repeat request missed the shared cache"
        );
        assert!(warm.hits > cold.hits, "repeat request did not hit the cache");
    }
}
