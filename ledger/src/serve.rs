//! `serve_mixed`: a `tinydep --serve=SOCK --threads=2` daemon driven by
//! two closed-loop clients, each on its own connection, sending its next
//! request when the last one is answered.
//!
//! The mix, drawn per request from the seed: 70% `analyze` of a corpus
//! program with random `all`/`parallel` options, 15% `parallelize` of a
//! corpus program, 10% `analyze` with `"format":"json"` of a generated
//! program the server has not seen (cold misses inserting into the shared
//! cache), 5% `stats`. `stepped_reset` is left out, so the formula tail
//! `corpus_cold` measures does not set this workload's latency tail.

use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use harness::Rng;
use omega_repro::json::escape;

use crate::{proc, reference, stats, synth, Ctx, Outcome};

/// Untimed requests per client before measuring.
const WARMUP: usize = 100;
/// Timed requests per client under `--quick`.
const QUICK_REQUESTS: usize = 100;
/// Fresh programs drawn per second of measuring: the mix sends about
/// sixty a second on two cores, so none is sent twice.
const FRESH_PER_SECOND: f64 = 120.0;
/// The request kinds of the mix, in the order latencies are tallied.
const OPS: [&str; 4] = ["analyze", "parallelize", "fresh", "stats"];
/// Seed offset of the fresh-program draw, apart from `synth_mt`'s.
pub const FRESH_STREAM: u64 = 0x5e7e_f2e5;

/// One request line and the response line it must get.
struct Request {
    line: String,
    expected: String,
}

/// The server's response carrying `report`.
pub fn ok_report(report: &str) -> String {
    format!("{{\"ok\":true,\"report\":\"{}\"}}", escape(report))
}

/// The corpus programs the mix draws from.
pub fn corpus_names() -> Vec<&'static str> {
    tiny::corpus::all()
        .into_iter()
        .map(|e| e.name)
        .filter(|&n| n != "stepped_reset")
        .collect()
}

/// Fresh generated programs for `analyze` in JSON format, with the
/// response the library renders for each.
fn fresh_requests(seed: u64, count: usize) -> Result<Vec<Request>, String> {
    synth::analyzed(seed ^ FRESH_STREAM, count, |p, _, info, a| {
        let json = depend::report::to_json(&depend::DepGraph::new(info, a));
        let line = format!(
            "{{\"op\":\"analyze\",\"source\":\"{}\",\"options\":{{\"format\":\"json\"}}}}",
            escape(&p.source)
        );
        Request {
            line,
            expected: ok_report(&json),
        }
    })
}

/// Every request the corpus part of the mix can send, with its expected
/// response taken from one-shot `tinydep` runs: `[all][parallel]` analyze
/// requests per program, then the `parallelize` ones.
fn corpus_requests(ctx: &Ctx, names: &[&str]) -> Result<Vec<Vec<Request>>, String> {
    let inputs: Vec<String> = names.iter().map(|n| format!("corpus:{n}")).collect();
    let one_shot = |flags: &[&str]| -> Result<Vec<String>, String> {
        let mut args: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
        args.extend(inputs.iter().cloned());
        let r = proc::run(&ctx.tinydep, &args, &ctx.work)
            .map_err(|e| format!("running tinydep: {e}"))?;
        let out = String::from_utf8(r.stdout).map_err(|_| "tinydep wrote non-UTF-8")?;
        match reference::split_sections(&out, &inputs) {
            Some(s) if r.exit.success => Ok(s),
            _ => Err(format!("tinydep {flags:?} over the corpus failed")),
        }
    };
    let mut kinds = Vec::new();
    for (all, parallel) in [(false, false), (false, true), (true, false), (true, true)] {
        let mut flags = Vec::new();
        if all {
            flags.push("--all");
        }
        if parallel {
            flags.push("--parallel");
        }
        let reports = one_shot(&flags)?;
        kinds.push(
            names
                .iter()
                .zip(reports)
                .map(|(n, r)| Request {
                    line: format!(
                        "{{\"op\":\"analyze\",\"corpus\":\"{n}\",\
                         \"options\":{{\"all\":{all},\"parallel\":{parallel}}}}}"
                    ),
                    expected: ok_report(&r),
                })
                .collect(),
        );
    }
    let reports = one_shot(&["--parallelize"])?;
    kinds.push(
        names
            .iter()
            .zip(reports)
            .map(|(n, r)| Request {
                line: format!("{{\"op\":\"parallelize\",\"corpus\":\"{n}\"}}"),
                expected: ok_report(&r),
            })
            .collect(),
    );
    Ok(kinds)
}

/// The socket path, relative to the working directory when it can be:
/// Unix socket paths are limited to about a hundred bytes.
fn socket(ctx: &Ctx) -> PathBuf {
    let path = ctx.work.join("serve.sock");
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or(path)
}

fn spawn_server(ctx: &Ctx) -> Result<Child, String> {
    Command::new(&ctx.tinydep)
        .args(["--serve=serve.sock", "--threads=2"])
        .current_dir(&ctx.work)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning the server: {e}"))
}

/// A client connection: one request line out, one response line back.
struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    line: String,
}

impl Client {
    /// Connects, retrying while the server starts up.
    fn connect(path: &Path) -> Result<Client, String> {
        let t0 = Instant::now();
        let stream = loop {
            match UnixStream::connect(path) {
                Ok(s) => break s,
                Err(_) if t0.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_micros(200))
                }
                Err(e) => return Err(format!("connecting to {}: {e}", path.display())),
            }
        };
        let reader = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            writer: stream,
            reader: BufReader::new(reader),
            line: String::new(),
        })
    }

    fn call(&mut self, request: &str) -> Result<&str, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("sending a request: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(n) if n > 0 => Ok(self.line.trim_end_matches('\n')),
            Ok(_) => Err("the server closed the connection".into()),
            Err(e) => Err(format!("reading a response: {e}")),
        }
    }
}

/// Sends `shutdown` on a fresh connection and reaps the server.
fn stop_server(mut server: Child, sock: &Path) -> Result<proc::Exit, String> {
    let stopped = Client::connect(sock).and_then(|mut c| {
        c.call("{\"op\":\"shutdown\"}")
            .map(|r| r == "{\"ok\":true,\"shutdown\":true}")
    });
    let exit = proc::reap_within(&mut server, Duration::from_secs(30))
        .map_err(|e| format!("reaping the server: {e}"))?;
    Ok(proc::Exit {
        success: exit.success && stopped == Ok(true),
        ..exit
    })
}

/// Median spawn-to-first-`ping`-reply time of the server.
fn startup_s(ctx: &Ctx, o: &mut Outcome, sock: &Path) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..if ctx.quick { 1 } else { 11 } {
        let t0 = Instant::now();
        let server = spawn_server(ctx)?;
        let pong = Client::connect(sock).and_then(|mut c| {
            c.call("{\"op\":\"ping\"}")
                .map(|r| r == "{\"ok\":true,\"pong\":true}")
        });
        times.push(t0.elapsed().as_secs_f64());
        let exit = stop_server(server, sock)?;
        o.check(pong == Ok(true) && exit.success);
    }
    Ok(stats::median(&times))
}

/// What one client measured.
#[derive(Default)]
struct Tally {
    /// Timed latencies per kind of request, indexed like [`OPS`].
    latencies_ms: [Vec<f64>; 4],
    checked: u64,
    failed: u64,
}

/// The requests both clients draw from.
struct Mix {
    /// `analyze` requests for each `[all][parallel]` option set, then the
    /// `parallelize` ones.
    corpus: Vec<Vec<Request>>,
    /// Programs the server has not seen, each sent once.
    fresh: Vec<Request>,
    next_fresh: AtomicUsize,
}

impl Mix {
    /// The next request: its index in [`OPS`], its line, and the response
    /// it must get (`None` for `stats`, whose counters vary).
    fn draw(&self, rng: &mut Rng) -> (usize, &str, Option<&str>) {
        let (op, r) = match rng.below(100) {
            0..=69 => {
                let options = rng.below(4) as usize;
                (0, rng.choose(&self.corpus[options]))
            }
            70..=84 => (1, rng.choose(&self.corpus[4])),
            85..=94 => {
                let k = self.next_fresh.fetch_add(1, Ordering::Relaxed);
                (2, &self.fresh[k % self.fresh.len()])
            }
            _ => return (3, "{\"op\":\"stats\"}", None),
        };
        (op, &r.line, Some(&r.expected))
    }
}

/// One closed-loop client on its own connection: warm-up requests, then
/// measured ones until the time is up. Returns what it measured and for
/// how long.
fn client(
    ctx: &Ctx,
    id: u64,
    mix: &Mix,
    barrier: &Barrier,
    sock: &Path,
) -> Result<(Tally, f64), String> {
    let mut rng = Rng::from_seed(ctx.seed.wrapping_mul(31).wrapping_add(id));
    let mut conn = Client::connect(sock);
    let mut tally = Tally::default();
    let mut send = |rng: &mut Rng, timed: bool| -> Result<(), String> {
        let conn = conn.as_mut().map_err(|e| e.clone())?;
        let (op, line, expected) = mix.draw(rng);
        let t0 = Instant::now();
        let resp = conn.call(line)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let ok = match expected {
            Some(e) => resp == e,
            None => resp.starts_with("{\"ok\":true,\"stats\":{"),
        };
        if timed {
            tally.latencies_ms[op].push(ms);
        }
        tally.checked += 1;
        tally.failed += u64::from(!ok);
        Ok(())
    };
    let mut result = (0..WARMUP).try_for_each(|_| send(&mut rng, false));
    // Both clients start measuring together, whatever happened in
    // warm-up, so neither waits forever.
    barrier.wait();
    let start = Instant::now();
    let mut done = 0;
    while result.is_ok() && ctx.more(start, done, QUICK_REQUESTS) {
        result = send(&mut rng, true);
        done += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    result.map(|()| (tally, elapsed))
}

pub fn serve_mixed(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let fresh_count = if ctx.quick {
        40
    } else {
        ((ctx.seconds * FRESH_PER_SECOND) as usize).min(synth::POOL_SIZE)
    };
    let mix = Mix {
        corpus: corpus_requests(ctx, &corpus_names())?,
        fresh: fresh_requests(ctx.seed, fresh_count)?,
        next_fresh: AtomicUsize::new(0),
    };
    let sock = socket(ctx);
    let setup = startup_s(ctx, &mut o, &sock)?;
    o.metric("setup_s", setup, "s");

    let server = spawn_server(ctx)?;
    let barrier = Barrier::new(2);
    let runs: Vec<Result<(Tally, f64), String>> = std::thread::scope(|s| {
        let (mix, barrier, sock) = (&mix, &barrier, &sock);
        let clients: Vec<_> = (0..2)
            .map(|id| s.spawn(move || client(ctx, id, mix, barrier, sock)))
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let exit = stop_server(server, &sock)?;
    o.check(exit.success);
    let mut per_op: [Vec<f64>; 4] = Default::default();
    let mut timed_s = 0.0;
    for run in runs {
        let (tally, elapsed) = run?;
        timed_s = f64::max(timed_s, elapsed);
        o.attempted += tally.checked;
        o.failed += tally.failed;
        for (all, mine) in per_op.iter_mut().zip(tally.latencies_ms) {
            all.extend(mine);
        }
    }
    let latencies = per_op.concat();
    o.notes.push(format!(
        "{} timed requests over {timed_s:.1} s from 2 clients, p99 {:.3} ms; \
         {} fresh programs of {} generated",
        latencies.len(),
        stats::quantile(&latencies, 0.99),
        mix.next_fresh.into_inner(),
        mix.fresh.len()
    ));
    for (op, ms) in OPS.iter().zip(&per_op) {
        o.notes.push(format!(
            "{op}: {} requests, p50 {:.3} ms, p99 {:.3} ms",
            ms.len(),
            stats::median(ms),
            stats::quantile(ms, 0.99)
        ));
    }
    o.metric("latency_ms.p50", stats::median(&latencies), "ms");
    o.metric("latency_ms.p75", stats::quantile(&latencies, 0.75), "ms");
    o.metric("throughput_per_s", latencies.len() as f64 / timed_s, "1/s");
    o.metric("peak_rss_mb", exit.peak_rss_mb, "MB");
    Ok(o)
}
