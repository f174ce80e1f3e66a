//! Analysis server mode: a long-lived `tinydep --serve` daemon, and the
//! request model the command line shares with it.
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
//! # One request model
//!
//! An [`AnalyzeOptions`] describes one report: which analysis to run
//! ([`AnalyzeOptions::config`]) and how to render it
//! ([`AnalyzeOptions::render`], the only `match` over the output
//! [`Format`]). The server decodes it from a request's `options`
//! object; `tinydep` builds the same value from its flags and runs every
//! input through the same [`front_end`]. So a report is byte-identical
//! whichever door it came through, and a new output format is added in
//! one place.
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
//! `parallelize` is `analyze` with [`Format::Parallelize`]: the
//! `tinydep --parallelize` decision report — annotated source, the DOT
//! graph of surviving dependences, and the kills-on/off summary line.
//! It honors the `fortran` and `storage_kills` options and always runs
//! the extended analysis.
//!
//! Reports are **byte-identical** to what a one-shot `tinydep` run with
//! the same flags prints: both paths render through
//! [`AnalyzeOptions::render`], and the solver's determinism contract
//! guarantees cache state can never leak into a result.
//!
//! # Concurrency and cache sharing
//!
//! Requests are batched: the first request is taken blocking, then up
//! to [`MAX_BATCH`]`- 1` more are drained without waiting, and the
//! batch fans out over the two-level [`depend::Pool`] the server owns
//! for its whole lifetime. Requests are the outer work items; each
//! analysis additionally submits its pair-stage batches to the *same*
//! pool (via [`depend::analyze_corpus_on`] over a one-program slice,
//! which runs inline on the request's worker), so a lone heavy request
//! on an otherwise idle server fans its pairs across every worker
//! instead of monopolizing one. The pool's merges preserve order at both levels,
//! so responses come back in request order no matter which worker ran
//! what. Every request passes the single shared [`omega::SolverCache`];
//! a request cannot choose another cache or a cache file.
//!
//! Stdio and socket mode run the same batching loop and differ only in
//! how a response is delivered. In socket mode each connection gets a
//! reader thread, but all requests funnel into the one loop, so M
//! concurrent clients share the pool and the cache exactly like one
//! pipelined client.
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
//! shutdown, through the same [`load_cache`] and [`save_cache`] as a
//! one-shot `tinydep` run. Shutdown happens on `{"op":"shutdown"}` or,
//! in stdio mode, on EOF. Requests already read when a shutdown request is processed
//! are still answered. In socket mode a shutdown also ends every other
//! open connection: each gets the responses it is owed, then reads EOF,
//! so an idle client cannot keep the server (or the cache save) waiting.

use std::fmt::Write as _;
use std::io::{BufRead as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use depend::{Config, DepGraph, ReportOptions};

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
/// it: [`AnalyzeOptions::render`] with [`Format::Text`].
pub fn render_text_report(
    info: &tiny::ProgramInfo,
    analysis: &depend::Analysis,
    view: &ReportView,
) -> String {
    text_report(&DepGraph::new(info, analysis), view)
}

fn text_report(graph: &DepGraph<'_>, view: &ReportView) -> String {
    let ropts = ReportOptions::default();
    let mut out = String::new();
    out.push_str("live flow dependences:\n");
    out.push_str(&depend::live_flow_table(graph, &ropts));
    if graph.dead_flows().next().is_some() {
        out.push_str("\ndead flow dependences:\n");
        out.push_str(&depend::dead_flow_table(graph, &ropts));
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
        for d in graph.analysis().live_flows() {
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
        for l in depend::program_loops(graph.info()) {
            let verdict = match graph.loop_verdict(&l, depend::KillView::PostKill).privatize {
                Some(arrays) if arrays.is_empty() => "PARALLEL".to_string(),
                Some(arrays) => format!(
                    "PARALLEL after privatizing {}",
                    arrays.into_iter().collect::<Vec<_>>().join(", ")
                ),
                None => "sequential".to_string(),
            };
            let _ = writeln!(out, "  {:<6} depth {}: {}", l.var, l.depth, verdict);
        }
    }
    out
}

/// Output format of a report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Format {
    /// The dependence tables (`tinydep`'s default, request format
    /// `"text"`), with the sections [`ReportView`] selects.
    #[default]
    Text,
    /// Every dependence as JSON (`--json`, `"json"`).
    Json,
    /// The Graphviz dependence graph (`--dot`, `"dot"`); `all` adds the
    /// anti and output edges.
    Dot,
    /// The parallelization decision report (`--parallelize`, the
    /// `parallelize` op).
    Parallelize,
}

/// One report: the analysis to run and how to render it. `tinydep`
/// builds it from its flags, the server from a request's `options`.
/// The default is the extended analysis as a plain text report.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyzeOptions {
    /// Standard analysis only: no refinement, covering or killing
    /// (`--standard`). Ignored by [`Format::Parallelize`], whose point is
    /// the kills-on/off delta.
    pub standard: bool,
    /// Also run kill analysis on output dependences (`--storage-kills`).
    pub storage_kills: bool,
    /// Parse the source as fixed-form FORTRAN (`--fortran`).
    pub fortran: bool,
    /// The text report's optional sections.
    pub view: ReportView,
    /// The output format.
    pub format: Format,
}

impl AnalyzeOptions {
    fn from_request(req: &Json, op: &str) -> Result<AnalyzeOptions, String> {
        let opts = req.get("options");
        let flag = |key: &str| -> Result<bool, String> {
            match opts.and_then(|o| o.get(key)) {
                None => Ok(false),
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| format!("option {key:?} must be a boolean")),
            }
        };
        let format = match opts.and_then(|o| o.get("format")).map(Json::as_str) {
            None | Some(Some("text")) => Format::Text,
            Some(Some("json")) => Format::Json,
            Some(Some("dot")) => Format::Dot,
            _ => return Err("option \"format\" must be \"text\", \"json\" or \"dot\"".into()),
        };
        Ok(AnalyzeOptions {
            standard: flag("standard")?,
            storage_kills: flag("storage_kills")?,
            fortran: flag("fortran")?,
            view: ReportView {
                all: flag("all")?,
                signs: flag("signs")?,
                parallel: flag("parallel")?,
            },
            format: if op == "parallelize" {
                Format::Parallelize
            } else {
                format
            },
        })
    }

    /// The analysis this report needs, with the default thread count
    /// (the caller owns the pool and the memo cache).
    pub fn config(&self) -> Config {
        Config {
            storage_kills: self.storage_kills,
            ..if self.standard && self.format != Format::Parallelize {
                Config::standard()
            } else {
                Config::extended()
            }
        }
    }

    /// Renders the report over `graph`, the dependence graph of
    /// `program`'s analysis.
    pub fn render(&self, program: &tiny::Program, graph: &DepGraph<'_>) -> String {
        match self.format {
            Format::Text => text_report(graph, &self.view),
            Format::Json => depend::report::to_json(graph),
            Format::Dot => depend::dot::to_dot(
                graph,
                &depend::dot::DotOptions {
                    antis: self.view.all,
                    outputs: self.view.all,
                    dead: true,
                },
            ),
            Format::Parallelize => depend::render_parallelize_report(program, graph),
        }
    }
}

/// Parses `source` — as FORTRAN when `fortran` is set or `name` has a
/// `.f`/`.f77`/`.for`/`.F` extension, as `tiny` otherwise — and runs the
/// `tiny` semantic analysis.
///
/// # Errors
///
/// The parse or semantic error, as text.
pub fn front_end(
    name: &str,
    source: &str,
    fortran: bool,
) -> Result<(tiny::Program, tiny::ProgramInfo), String> {
    let is_fortran = fortran
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

/// The memo cache a run starts from: loaded from `path` when one is
/// given (a missing, damaged or stale file is a cold start), else empty.
pub fn load_cache(path: Option<&Path>) -> omega::SolverCache {
    path.map_or_else(omega::SolverCache::new, omega::SolverCache::load_from)
}

/// Saves `cache` to `path` when one is given. The save is atomic (temp
/// file plus rename), so a crash or a concurrent writer never leaves a
/// torn file. A failed save warns on stderr but fails nothing: the
/// reports are complete, only the next run starts cold.
pub fn save_cache(cache: &omega::SolverCache, path: Option<&Path>) {
    if let Some(path) = path {
        if let Err(e) = cache.save_to(path) {
            eprintln!(
                "tinydep: warning: failed to save solver cache to {}: {e}",
                path.display()
            );
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
    pool: depend::Pool,
    cache_file: Option<PathBuf>,
    requests: AtomicU64,
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
    /// Creates a server whose [`depend::Pool`] runs `threads` chunks
    /// at once (`0` = one per available core) for the server's whole
    /// lifetime. With a `cache_file`, the persistent cache is loaded now
    /// and saved back at shutdown ([`load_cache`], [`save_cache`]).
    pub fn new(threads: usize, cache_file: Option<PathBuf>) -> Server {
        Server {
            cache: Arc::new(load_cache(cache_file.as_deref())),
            pool: depend::Pool::new(threads),
            cache_file,
            requests: AtomicU64::new(0),
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
    /// preserve request order). An analysis fans its pair-stage batches
    /// onto the server's pool, so one heavy request can use every
    /// worker. A panic while handling the request is caught here, at the
    /// request boundary, and turned into an `"internal error"` response
    /// — the daemon and the rest of the batch are unaffected.
    pub fn handle_line(&self, line: &str) -> Option<Response> {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return None;
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.dispatch(trimmed))) {
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

    fn dispatch(&self, trimmed: &str) -> Response {
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
            "analyze" | "parallelize" => match self.try_analyze(&req, op) {
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

    /// Handles `analyze` and `parallelize`: resolves the request's
    /// `corpus`/`source` field through [`front_end`] and runs the
    /// analysis on the server's pool and cache, so the request's pair
    /// batches interleave with the other requests' on the same workers.
    fn try_analyze(&self, req: &Json, op: &str) -> Result<String, String> {
        let opts = AnalyzeOptions::from_request(req, op)?;
        let (name, source) = if let Some(name) = req.get("corpus").and_then(Json::as_str) {
            let entry =
                tiny::corpus::by_name(name).ok_or_else(|| format!("no corpus program `{name}`"))?;
            (name, entry.source)
        } else if let Some(source) = req.get("source").and_then(Json::as_str) {
            ("", source)
        } else {
            return Err("request needs a \"source\" or \"corpus\" field".into());
        };
        let (program, info) = front_end(name, source, opts.fortran)?;
        let analyses = depend::analyze_corpus_on(
            &self.pool,
            std::slice::from_ref(&info),
            &opts.config(),
            Some(Arc::clone(&self.cache)),
        )
        .map_err(|e| format!("analysis failed: {e}"))?;
        Ok(opts.render(&program, &DepGraph::new(&info, &analyses[0])))
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
             \"base_evicted\":{},\"hit_rate\":\"{:.4}\"}}}}",
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
            c.base_evicted,
            c.hit_rate(),
        )
    }

    /// The one serve loop behind both transports. Each batch is one
    /// blocking receive plus up to [`MAX_BATCH`]` - 1` more requests
    /// drained without waiting; it is answered on the pool (requests are
    /// the outer items, each analysis feeds its pair batches back into
    /// the same pool) and handed to `deliver` as `(reply, response)`
    /// pairs in request order, blank lines dropped. The row store is
    /// swept after every batch. Returns when `requests` closes or after
    /// the batch holding a `shutdown`.
    fn serve<R: Send>(
        &self,
        requests: &mpsc::Receiver<(String, R)>,
        mut deliver: impl FnMut(Vec<(R, Response)>) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        while let Ok(first) = requests.recv() {
            let mut batch = vec![first];
            batch.extend(requests.try_iter().take(MAX_BATCH - 1));
            let answered: Vec<(R, Response)> = self
                .pool
                .map_infallible(batch, |_, (line, reply)| (reply, self.handle_line(&line)))
                .into_iter()
                .filter_map(|(reply, resp)| Some((reply, resp?)))
                .collect();
            let stop = answered.iter().any(|(_, resp)| resp.shutdown);
            deliver(answered)?;
            // Keep the row-store index flat: rows die as request-local
            // problems drop; sweep their Weak residue between batches.
            omega::row_store_gc();
            if stop {
                break;
            }
        }
        Ok(())
    }

    /// Serves line-delimited JSON over stdin/stdout until EOF or a
    /// `shutdown` request, then saves the persistent cache (if
    /// configured). Responses are written in request order.
    pub fn run_stdio(&self) -> std::io::Result<()> {
        let (tx, rx) = mpsc::channel();
        // Reader thread: decouples blocking stdin reads from batch
        // processing, so a batch forms from whatever has arrived. The
        // thread exits on EOF, or on a failed send once `rx` is
        // dropped; it is detached rather than joined because it may be
        // parked in a blocking read when the server shuts down.
        std::thread::spawn(move || {
            for line in std::io::stdin().lock().lines() {
                let Ok(line) = line else { break };
                if tx.send((line, ())).is_err() {
                    break;
                }
            }
        });
        let stdout = std::io::stdout();
        self.serve(&rx, |answered| {
            let mut out = stdout.lock();
            for ((), resp) in answered {
                writeln!(out, "{}", resp.line)?;
            }
            out.flush()
        })?;
        save_cache(&self.cache, self.cache_file.as_deref());
        Ok(())
    }

    /// Serves line-delimited JSON over a Unix domain socket at `path`
    /// until a `shutdown` request, then saves the persistent cache (if
    /// configured). Each connection is read by its own thread, but all
    /// requests funnel into the one serve loop on the shared worker
    /// pool; per connection, responses come back in request order. On
    /// shutdown every other open connection gets the responses it is
    /// owed and then reads EOF. A stale socket file at `path` is
    /// replaced; the file is removed again on shutdown.
    #[cfg(unix)]
    pub fn run_unix(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::os::unix::net::{UnixListener, UnixStream};
        use std::sync::{Mutex, PoisonError, Weak};

        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let (tx, rx) = mpsc::channel::<(String, mpsc::Sender<Response>)>();
        // The open connections; `None` once the server stops accepting.
        let open: Mutex<Option<Vec<Weak<UnixStream>>>> = Mutex::new(Some(Vec::new()));
        let open = &open;

        std::thread::scope(|scope| {
            scope.spawn(move || {
                let _ = self.serve(&rx, |answered| {
                    for (reply, resp) in answered {
                        let _ = reply.send(resp);
                    }
                    Ok(())
                });
                drop(rx);
                // End every connection's reads: its thread writes the
                // responses it is owed, reads EOF and closes the socket.
                let conns = open.lock().unwrap_or_else(PoisonError::into_inner).take();
                for conn in conns.into_iter().flatten().filter_map(|c| c.upgrade()) {
                    let _ = conn.shutdown(std::net::Shutdown::Read);
                }
                // Unblock the accept loop below.
                let _ = UnixStream::connect(path);
            });

            for conn in listener.incoming() {
                let Ok(stream) = conn else { continue };
                let stream = Arc::new(stream);
                match open.lock().unwrap_or_else(PoisonError::into_inner).as_mut() {
                    Some(conns) => {
                        conns.retain(|c| c.strong_count() > 0);
                        conns.push(Arc::downgrade(&stream));
                    }
                    None => break,
                }
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut writer = std::io::BufWriter::new(&*stream);
                    for line in std::io::BufReader::new(&*stream).lines() {
                        let Ok(line) = line else { break };
                        let (reply, response) = mpsc::channel();
                        if tx.send((line, reply)).is_err() {
                            break; // the serve loop has stopped
                        }
                        let Ok(resp) = response.recv() else {
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
        });

        let _ = std::fs::remove_file(path);
        save_cache(&self.cache, self.cache_file.as_deref());
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

        // The CLI's run path: the front end, then a one-program corpus.
        let source = tiny::corpus::by_name("example3").expect("corpus program").source;
        let (_, info) = front_end("example3", source, false).unwrap();
        let infos = [info];
        let analyses = depend::analyze_corpus(&infos, &Config::extended()).unwrap();
        let expected = render_text_report(&infos[0], &analyses[0], &ReportView::default());
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
