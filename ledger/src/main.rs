//! `ledger`: the repository's benchmark, the single source of its
//! performance numbers.
//!
//! ```text
//! ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!        [--quick] [--tinydep PATH]
//! ```
//!
//! With `--trace 0` the workload runs against the real `tinydep` binary
//! (found next to this one, or at `--tinydep`) for `--seconds`, every
//! output is checked, and the end-to-end metrics are printed. With
//! `--trace 1` the same inputs go through the library in process, with a
//! span around each call into a layer, and the per-layer metrics are
//! printed; the spans land in `target/ledger/trace-NAME.jsonl`. `--quick`
//! replaces the time limit by a few runs (the `ledger_quick` test).
//!
//! `ledger --freeze-synth-pool > ledger/golden/synth_pool.txt` rewrites
//! the pool the generated-program workloads draw from (see `synth`).
//!
//! Each metric prints as `name value unit`; the last line of stdout is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. The
//! exit code is nonzero when any check failed. See README.md for the
//! workloads, the metrics and how to compare two commits.

mod cli;
mod layers;
mod proc;
mod reference;
mod serve;
mod stats;
mod synth;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Counts allocations for the `alloc.*` per-layer metrics.
#[global_allocator]
static ALLOC: harness::alloc::CountingAlloc = harness::alloc::CountingAlloc::new();

/// One measured number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run measured, and how many of its checked outputs were wrong.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Sample counts and input sizes, printed with the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one checked output.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The settings every workload reads.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub tinydep: PathBuf,
    /// Scratch directory of this invocation, removed at exit.
    pub work: PathBuf,
    /// `target/ledger`, where traces are written.
    pub out: PathBuf,
}

impl Ctx {
    /// Whether a measuring loop that started at `start` and has taken
    /// `done` samples takes another: until `--seconds` have passed (and
    /// at least three samples), or `quick` samples under `--quick`.
    pub fn more(&self, start: Instant, done: usize, quick: usize) -> bool {
        if self.quick {
            done < quick
        } else {
            done < 3 || start.elapsed().as_secs_f64() < self.seconds
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    tinydep: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        tinydep: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--tinydep" => args.tinydep = Some(value.into()),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

const WORKLOADS: [&str; 4] = ["corpus_cold", "corpus_warm", "synth_mt", "serve_mixed"];

fn run(args: &Args, ctx: &Ctx) -> Result<Outcome, String> {
    match (args.workload.as_str(), args.trace) {
        ("corpus_cold", false) => cli::corpus(ctx, false),
        ("corpus_warm", false) => cli::corpus(ctx, true),
        ("synth_mt", false) => cli::synth_mt(ctx),
        ("serve_mixed", false) => serve::serve_mixed(ctx),
        (workload, true) => layers::traced(ctx, workload),
        _ => unreachable!("workload names are checked in parse_args"),
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--freeze-synth-pool") {
        print!("{}", synth::freeze());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::FAILURE;
        }
    };
    let exe = std::env::current_exe().expect("the running binary has a path");
    let tinydep = args
        .tinydep
        .clone()
        .unwrap_or_else(|| exe.with_file_name("tinydep"));
    if !tinydep.is_file() {
        eprintln!("ledger: no tinydep binary at {}", tinydep.display());
        return ExitCode::FAILURE;
    }
    // target/release/ledger -> target/ledger
    let out = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("the binary sits in a profile directory")
        .join("ledger");
    let work = out.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("ledger: creating {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        tinydep,
        work,
        out,
    };
    let result = run(&args, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ledger: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    print_outcome(&args.workload, &outcome)
}

/// Prints each metric as `name value unit`, then the JSON summary line.
fn print_outcome(workload: &str, o: &Outcome) -> ExitCode {
    let mut failed = o.failed;
    let mut json = Vec::new();
    println!(
        "== {workload}: {} checks, {} failed ==",
        o.attempted, o.failed
    );
    for note in &o.notes {
        println!("# {note}");
    }
    for m in &o.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() {
            m.value
        } else {
            eprintln!("ledger: {} is not a finite number", m.name);
            failed += 1;
            0.0
        };
        json.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
