//! End-to-end tests of `tinydep --serve`: the line-delimited JSON
//! protocol over stdio and Unix sockets, byte identity of server
//! responses with one-shot reports and the checked-in goldens, the
//! shared-cache warm path, the persistent cache file, panic containment
//! at the request boundary, and a soak that gates row-store growth,
//! base-intern occupancy and the warm-hit floor.

use std::io::{BufRead as _, BufReader, Write as _};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use omega_repro::json::{self, Json};
use omega_repro::server::{render_text_report, ReportView};

fn tinydep() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tinydep"))
}

/// A stdio server session with a strict send/receive discipline: the
/// test writes a bounded burst of requests, then reads the responses,
/// so neither side can fill a pipe while the other is blocked.
struct Session {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Session {
    fn start(args: &[&str]) -> Session {
        let mut child = tinydep()
            .arg("--serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("tinydep --serve starts");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Session {
            child,
            stdin,
            stdout,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stdin, "{line}").expect("server accepts requests");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line).expect("server responds");
        assert!(n > 0, "server closed its stdout early");
        line.trim_end_matches('\n').to_string()
    }

    /// Closes stdin (EOF shutdown) and waits for a clean exit.
    fn finish(mut self) {
        drop(self.stdin);
        let status = self.child.wait().expect("server exits");
        assert!(status.success(), "server exited with {status}");
    }
}

/// Decodes the `report` payload of a successful analyze response.
fn report_of(line: &str) -> String {
    let v = json::parse(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"));
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(true),
        "request failed: {line}"
    );
    v.get("report")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no report in {line}"))
        .to_string()
}

/// The one-shot report for a corpus program, rendered through the same
/// shared path the CLI uses — the byte-identity baseline.
fn one_shot_report(source: &str) -> String {
    let program = tiny::Program::parse(source).unwrap();
    let info = tiny::analyze(&program).unwrap();
    let analysis = depend::analyze_program(&info, &depend::Config::extended()).unwrap();
    render_text_report(&info, &analysis, &ReportView::default())
}

#[test]
fn protocol_errors_do_not_kill_the_server() {
    let mut s = Session::start(&[]);
    // Each burst below is write-then-read, so ordering is exact.
    s.send("this is not json");
    assert!(s.recv().contains("\"ok\":false,\"error\":\"bad request"));
    s.send(""); // blank lines are skipped, not answered
    s.send("{\"id\":1,\"op\":\"frobnicate\"}");
    let r = s.recv();
    assert!(r.contains("\"id\":1") && r.contains("unknown op"), "{r}");
    s.send("{\"id\":2,\"op\":\"analyze\",\"corpus\":\"no_such_program\"}");
    assert!(
        s.recv().contains("no corpus program"),
        "bad corpus must error"
    );
    s.send("{\"id\":3,\"op\":\"analyze\",\"source\":\"for i := 1 to\"}");
    assert!(
        s.recv().contains("\"ok\":false"),
        "parse errors must be errors"
    );
    // Nesting this deep would overflow the parser's stack.
    s.send(&"[".repeat(100_000));
    let r = s.recv();
    assert!(
        r.contains("\"ok\":false") && r.contains("nested deeper"),
        "{r}"
    );
    // So would a source this deeply nested.
    let deep = format!("x := {}1{};", "(".repeat(20_000), ")".repeat(20_000));
    s.send(&format!(
        "{{\"id\":5,\"op\":\"analyze\",\"source\":\"{deep}\"}}"
    ));
    let r = s.recv();
    assert!(
        r.contains("\"ok\":false") && r.contains("nested deeper than 64"),
        "{r}"
    );
    // The server is still alive and answers.
    s.send("{\"id\":4,\"op\":\"ping\"}");
    assert_eq!(s.recv(), "{\"id\":4,\"ok\":true,\"pong\":true}");
    s.finish();
}

#[test]
fn soak_bounded_rows_warm_hits_and_byte_identical_reports() {
    // The soak gate: many requests cycling the whole corpus through one
    // server. Every response must be byte-identical to the one-shot
    // report; quiescent live-row counts must be flat once the cache is
    // warm (the GC sweeps request-local rows between batches); warm
    // requests must insert no cache entries; and the warm-hit rate must
    // clear the floor.
    let n: usize = std::env::var("TINYDEP_SOAK_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let corpus = tiny::corpus::all();
    let expected: Vec<String> = corpus.iter().map(|e| one_shot_report(e.source)).collect();

    let mut s = Session::start(&["--threads=4"]);
    const CHUNK: usize = 100;
    let mut live_samples: Vec<i64> = Vec::new();
    let mut entry_samples: Vec<i64> = Vec::new();
    let mut final_stats: Option<Json> = None;
    let mut sent = 0usize;
    while sent < n {
        let burst = CHUNK.min(n - sent);
        for i in sent..sent + burst {
            let name = corpus[i % corpus.len()].name;
            s.send(&format!(
                "{{\"id\":{},\"op\":\"analyze\",\"corpus\":\"{name}\"}}",
                i + 1
            ));
        }
        for i in sent..sent + burst {
            let line = s.recv();
            let v = json::parse(&line).unwrap();
            assert_eq!(
                v.get("id").and_then(Json::as_i64),
                Some(i as i64 + 1),
                "responses out of order: {line}"
            );
            assert_eq!(
                report_of(&line),
                expected[i % corpus.len()],
                "request {} ({}) diverged from the one-shot report",
                i + 1,
                corpus[i % corpus.len()].name
            );
        }
        sent += burst;
        // The server is quiescent now (all responses read), so this
        // stats request forms its own batch and observes the post-GC
        // steady state.
        s.send(&format!("{{\"id\":{},\"op\":\"stats\"}}", 900_000 + sent));
        let v = json::parse(&s.recv()).unwrap();
        let stats = v.get("stats").expect("stats object").clone();
        let live = stats
            .get("rows")
            .and_then(|r| r.get("live"))
            .and_then(Json::as_i64)
            .expect("live row count");
        let entries = stats
            .get("cache")
            .and_then(|c| c.get("entries"))
            .and_then(Json::as_i64)
            .expect("cache entry count");
        if sent >= corpus.len() {
            live_samples.push(live);
            entry_samples.push(entries);
        }
        final_stats = Some(stats);
    }
    // An injected panicking request must not kill the soak server: it
    // answers with an error and the next request still works.
    s.send("{\"id\":999998,\"op\":\"panic\"}");
    let r = s.recv();
    assert!(
        r.contains("\"ok\":false") && r.contains("panicked"),
        "panic op not contained: {r}"
    );
    s.send("{\"id\":999999,\"op\":\"shutdown\"}");
    assert!(s.recv().contains("\"shutdown\":true"));
    let status = s.child.wait().expect("server exits");
    assert!(status.success());

    // Flat live-row profile: every warm-phase sample stays within 2x of
    // the smallest. Without the between-batch GC the dead-entry index
    // (and with a leak, the live count) would climb with every request.
    let (&min, &max) = (
        live_samples.iter().min().expect("at least one warm sample"),
        live_samples.iter().max().unwrap(),
    );
    assert!(
        max <= min * 2,
        "live rows grew across the soak: samples {live_samples:?}"
    );

    let stats = final_stats.unwrap();
    let cache = stats.get("cache").expect("cache stats");
    let (hits, misses) = (
        cache.get("hits").and_then(Json::as_i64).unwrap(),
        cache.get("misses").and_then(Json::as_i64).unwrap(),
    );
    let hit_rate = hits as f64 / (hits + misses) as f64;
    assert!(
        hit_rate >= 0.40,
        "warm-hit rate {hit_rate:.3} below the 0.40 floor ({hits} hits / {misses} misses)"
    );
    // Dead index entries are bounded by the sweep threshold.
    let dead = stats
        .get("rows")
        .and_then(|r| r.get("dead"))
        .and_then(Json::as_i64)
        .unwrap();
    assert!(dead <= 4096, "dead row-index entries unswept: {dead}");
    // Once every program has been analyzed, requests only hit: the
    // entry count is the same at every warm sample. A delta key that
    // stopped matching the same base built by a later request would
    // insert a fresh entry per request.
    assert!(
        entry_samples[0] > 0,
        "no cache entries after the first pass"
    );
    assert!(
        entry_samples.iter().all(|&e| e == entry_samples[0]),
        "warm requests inserted cache entries: samples {entry_samples:?}"
    );
}

#[test]
fn a_panicking_request_is_contained_to_its_response() {
    let mut s = Session::start(&["--threads=4", "--stats"]);
    // A burst with a panicking request in the middle: every request in
    // the batch still answers, in order, and only the offender errors.
    s.send("{\"id\":1,\"op\":\"analyze\",\"corpus\":\"example2\"}");
    s.send("{\"id\":2,\"op\":\"panic\"}");
    s.send("{\"id\":3,\"op\":\"analyze\",\"corpus\":\"example2\"}");
    let first = s.recv();
    assert!(
        first.contains("\"id\":1") && first.contains("\"ok\":true"),
        "{first}"
    );
    let second = s.recv();
    assert!(
        second.contains("\"id\":2")
            && second.contains("\"ok\":false")
            && second.contains("panicked"),
        "{second}"
    );
    let third = s.recv();
    assert!(
        third.contains("\"id\":3") && third.contains("\"ok\":true"),
        "{third}"
    );
    // The daemon survives and keeps serving.
    s.send("{\"id\":4,\"op\":\"ping\"}");
    assert_eq!(s.recv(), "{\"id\":4,\"ok\":true,\"pong\":true}");
    s.finish();
}

#[test]
fn repeat_requests_are_served_warm() {
    let mut s = Session::start(&[]);
    for id in 1..=3 {
        s.send(&format!(
            "{{\"id\":{id},\"op\":\"analyze\",\"corpus\":\"example2\"}}"
        ));
        s.recv();
    }
    s.send("{\"id\":4,\"op\":\"stats\"}");
    let v = json::parse(&s.recv()).unwrap();
    let cache = v.get("stats").and_then(|s| s.get("cache")).unwrap();
    let hits = cache.get("hits").and_then(Json::as_i64).unwrap();
    let inserts = cache.get("inserts").and_then(Json::as_i64).unwrap();
    assert!(hits > 0, "repeat requests never hit the shared cache");
    // Only the first (cold) request may insert; the repeats are warm.
    let misses = cache.get("misses").and_then(Json::as_i64).unwrap();
    assert_eq!(misses, inserts, "a warm request re-inserted entries");
    s.finish();
}

#[test]
fn programs_that_only_rename_a_symbol_share_the_cache() {
    // Memo keys hold no names, so `n1` and `n2` are answered wholly
    // from the entries `n0` inserted: 14 of the 21 lookups hit.
    let mut s = Session::start(&[]);
    for (id, sym) in ["n0", "n1", "n2"].into_iter().enumerate() {
        let src = format!("for i := 1 to {sym} do a(i) := a(i-1); endfor");
        s.send(&format!(
            "{{\"id\":{id},\"op\":\"analyze\",\"source\":\"{src}\"}}"
        ));
        report_of(&s.recv());
    }
    s.send("{\"id\":9,\"op\":\"stats\"}");
    let v = json::parse(&s.recv()).unwrap();
    let cache = v.get("stats").and_then(|s| s.get("cache")).unwrap();
    let count = |k: &str| cache.get(k).and_then(Json::as_i64).unwrap();
    assert_eq!(
        (count("hits"), count("misses"), count("inserts")),
        (14, 7, 7)
    );
    s.finish();
}

#[test]
fn parallelize_op_matches_the_one_shot_report_and_the_golden() {
    // The server's `parallelize` op must render through the same path
    // as `tinydep --parallelize`, so its report is byte-identical to
    // both the library rendering and the checked-in golden.
    let one_shot = |name: &str| {
        let entry = tiny::corpus::by_name(name).unwrap();
        let program = tiny::Program::parse(entry.source).unwrap();
        let info = tiny::analyze(&program).unwrap();
        let analysis = depend::analyze_program(&info, &depend::Config::extended()).unwrap();
        let graph = depend::DepGraph::new(&info, &analysis);
        depend::render_parallelize_report(&program, &graph)
    };
    let mut s = Session::start(&[]);
    s.send("{\"id\":1,\"op\":\"parallelize\",\"corpus\":\"cholsky\"}");
    let cholsky = report_of(&s.recv());
    assert_eq!(cholsky, one_shot("cholsky"));
    assert_eq!(cholsky, include_str!("golden/cholsky_parallelize.txt"));
    s.send("{\"id\":2,\"op\":\"parallelize\",\"corpus\":\"gauss_jordan\"}");
    let gj = report_of(&s.recv());
    assert_eq!(gj, one_shot("gauss_jordan"));
    assert_eq!(gj, include_str!("golden/gauss_jordan_parallelize.txt"));
    // Inline source works too, and bad programs answer with an error
    // instead of killing the server.
    s.send(
        "{\"id\":3,\"op\":\"parallelize\",\"source\":\"sym n; for i := 1 to n do a(i) := a(i) + 1; endfor\"}",
    );
    let inline = report_of(&s.recv());
    assert!(inline.contains("!$ PARALLELIZABLE"), "{inline}");
    s.send("{\"id\":4,\"op\":\"parallelize\",\"source\":\"for i := 1 to\"}");
    assert!(
        s.recv().contains("\"ok\":false"),
        "parse errors must be errors"
    );
    s.finish();
}

#[test]
fn server_cache_file_is_saved_at_shutdown_and_warms_the_next_start() {
    let path = std::env::temp_dir().join(format!("omega_serve_cache_{}.cache", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cache_arg = format!("--cache-file={}", path.display());

    let mut s = Session::start(&[&cache_arg]);
    s.send("{\"id\":1,\"op\":\"analyze\",\"corpus\":\"cholsky\"}");
    s.recv();
    s.finish(); // EOF shutdown saves the cache

    let bytes = std::fs::read(&path).expect("server saved the cache file");
    assert!(
        bytes.starts_with(b"omega-solver-cache "),
        "saved cache file has no header"
    );

    // A fresh server over the same file is warm from the first request.
    let mut s = Session::start(&[&cache_arg]);
    s.send("{\"id\":1,\"op\":\"analyze\",\"corpus\":\"cholsky\"}");
    s.recv();
    s.send("{\"id\":2,\"op\":\"stats\"}");
    let v = json::parse(&s.recv()).unwrap();
    let cache = v.get("stats").and_then(|s| s.get("cache")).unwrap();
    assert_eq!(
        cache.get("misses").and_then(Json::as_i64),
        Some(0),
        "persisted cache did not warm the next server: {}",
        v.get("stats").unwrap().get("cache").is_some()
    );
    s.finish();
    let _ = std::fs::remove_file(&path);
}

/// Connects to a socket server, waiting for its listener to come up.
/// The socket file appears at `bind(2)` but the server only accepts
/// after `listen(2)` — a separate syscall inside `UnixListener::bind` —
/// so a connect in that window is refused; retry it away here.
#[cfg(unix)]
fn connect(sock: &std::path::Path) -> std::os::unix::net::UnixStream {
    let mut waited = 0;
    loop {
        match std::os::unix::net::UnixStream::connect(sock) {
            Ok(s) => return s,
            Err(e) => {
                assert!(waited < 10_000, "server never accepted: {e}");
                std::thread::sleep(std::time::Duration::from_millis(20));
                waited += 20;
            }
        }
    }
}

#[cfg(unix)]
#[test]
fn concurrent_socket_clients_match_the_goldens() {
    let sock = std::env::temp_dir().join(format!("omega_serve_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut child = tinydep()
        .arg(format!("--serve={}", sock.display()))
        .arg("--threads=4")
        .spawn()
        .expect("socket server starts");

    // Each request kind must reproduce its golden byte-for-byte — the
    // same files the one-shot CLI is gated on at every thread count.
    let cases: [(&str, &str); 3] = [
        (
            "{\"id\":%,\"op\":\"analyze\",\"corpus\":\"cholsky\",\"options\":{\"all\":true}}",
            include_str!("golden/cholsky_all.txt"),
        ),
        (
            "{\"id\":%,\"op\":\"analyze\",\"corpus\":\"gauss_jordan\",\"options\":{\"all\":true}}",
            include_str!("golden/gauss_jordan_all.txt"),
        ),
        (
            "{\"id\":%,\"op\":\"analyze\",\"corpus\":\"cholsky\",\"options\":{\"format\":\"json\"}}",
            include_str!("golden/cholsky.json"),
        ),
    ];

    std::thread::scope(|scope| {
        for client in 0..8 {
            let sock = &sock;
            let cases = &cases;
            scope.spawn(move || {
                let stream = connect(sock);
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                for round in 0..6 {
                    let (template, golden) = &cases[(client + round) % cases.len()];
                    let id = (client * 100 + round + 1).to_string();
                    let request = template.replace('%', &id);
                    writeln!(writer, "{request}").unwrap();
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    let v = json::parse(line.trim_end()).unwrap();
                    assert_eq!(
                        v.get("id").and_then(Json::as_i64),
                        Some(id.parse().unwrap()),
                        "client {client}: response for another request"
                    );
                    assert_eq!(
                        v.get("report").and_then(Json::as_str),
                        Some(*golden),
                        "client {client} round {round}: report diverged from the golden"
                    );
                }
            });
        }
    });

    // One last client shuts the server down; the socket file goes away.
    let stream = connect(&sock);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(writer, "{{\"id\":1,\"op\":\"shutdown\"}}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"shutdown\":true"), "{line}");
    drop((reader, writer));
    let status = child.wait().expect("server exits");
    assert!(status.success());
    assert!(!sock.exists(), "socket file not removed at shutdown");
}

#[cfg(unix)]
#[test]
fn socket_shutdown_closes_idle_connections() {
    use std::time::{Duration, Instant};

    let sock = std::env::temp_dir().join(format!("omega_serve_idle_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut child = tinydep()
        .arg(format!("--serve={}", sock.display()))
        .arg("--threads=2")
        .spawn()
        .expect("socket server starts");

    // Client A talks once, then idles with its connection open.
    let idle = connect(&sock);
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut idle_reader = BufReader::new(idle.try_clone().unwrap());
    writeln!(&idle, "{{\"id\":1,\"op\":\"ping\"}}").unwrap();
    let mut line = String::new();
    idle_reader.read_line(&mut line).unwrap();
    assert_eq!(line, "{\"id\":1,\"ok\":true,\"pong\":true}\n");

    // Client B shuts the server down.
    let stopper = connect(&sock);
    writeln!(&stopper, "{{\"id\":2,\"op\":\"shutdown\"}}").unwrap();
    line.clear();
    BufReader::new(&stopper).read_line(&mut line).unwrap();
    assert_eq!(line, "{\"id\":2,\"ok\":true,\"shutdown\":true}\n");

    // The server exits although A is still connected.
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("server status") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&sock);
            panic!("server still running 10 s after shutdown with an idle client connected");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "server exited with {status}");
    assert!(!sock.exists(), "socket file not removed at shutdown");
    // A reads EOF: the server closed its connection.
    line.clear();
    assert_eq!(idle_reader.read_line(&mut line).unwrap(), 0, "{line}");
}
