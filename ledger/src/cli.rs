//! The three batch workloads: one `tinydep` process per run, each run's
//! output compared byte for byte with a reference made without it.

use std::path::Path;
use std::time::Instant;

use depend::{decide_loops, render_parallelize_report, DepGraph, ParallelizeSummary};

use crate::{proc, reference, stats, synth, Ctx, Outcome};

/// The seed's `tinydep --parallelize --corpus` output.
pub const GOLDEN: &str = include_str!("../golden/corpus_parallelize.txt");
/// FNV-1a of the seed-1 `synth_mt` listing, pinning generator and
/// analysis together.
const SYNTH_SEED1_FNV: &str = include_str!("../golden/synth_mt_seed1.fnv");

/// `synth_mt` programs: a run of about 0.5 s on two cores.
const SYNTH_PROGRAMS: usize = 500;
/// `synth_mt` programs under `--quick`.
const QUICK_PROGRAMS: usize = 20;

/// Median spawn-to-exit time of `tinydep --list-corpus`, the binary's
/// start-up cost: the set-up time of the workloads that have no other.
fn startup_s(ctx: &Ctx, o: &mut Outcome) -> Result<f64, String> {
    let listed = tiny::corpus::all().len();
    let mut times = Vec::new();
    for _ in 0..if ctx.quick { 3 } else { 51 } {
        let r = proc::run(&ctx.tinydep, &["--list-corpus".into()], &ctx.work)
            .map_err(|e| format!("running tinydep: {e}"))?;
        o.check(r.exit.success && r.stdout.split(|&b| b == b'\n').count() == listed + 1);
        times.push(r.wall.as_secs_f64());
    }
    Ok(stats::median(&times))
}

/// Runs `tinydep args…` in `dir` until the time is up, checking each
/// output against `expected`, and reports the run-time metrics; a run
/// analyzes `programs` programs.
fn timed_runs(
    ctx: &Ctx,
    o: &mut Outcome,
    args: &[String],
    dir: &Path,
    expected: &[u8],
    programs: usize,
) -> Result<(), String> {
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let start = Instant::now();
    while ctx.more(start, walls.len(), 3) {
        let r = proc::run(&ctx.tinydep, args, dir).map_err(|e| format!("running tinydep: {e}"))?;
        o.check(r.exit.success && r.stdout == expected);
        walls.push(r.wall.as_secs_f64() * 1e3);
        rss.push(r.exit.peak_rss_mb);
    }
    let busy_s = walls.iter().sum::<f64>() / 1e3;
    o.notes
        .push(format!("{} runs of {programs} programs", walls.len()));
    o.metric("latency_ms.p50", stats::median(&walls), "ms");
    o.metric("latency_ms.p75", stats::quantile(&walls, 0.75), "ms");
    o.metric(
        "throughput_per_s",
        (programs * walls.len()) as f64 / busy_s,
        "1/s",
    );
    o.metric("peak_rss_mb", stats::median(&rss), "MB");
    Ok(())
}

/// `corpus_cold` and `corpus_warm`: `tinydep --parallelize --corpus
/// --threads=1`, without a cache file or with one that an untimed priming
/// run wrote (the priming run is the warm workload's set-up).
pub fn corpus(ctx: &Ctx, warm: bool) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut args: Vec<String> = ["--parallelize", "--corpus", "--threads=1"]
        .map(String::from)
        .to_vec();
    let setup = if warm {
        // Relative to the run directory, the scratch directory.
        args.push("--cache-file=corpus.cache".to_string());
        let cache = ctx.work.join("corpus.cache");
        let mut times = Vec::new();
        for _ in 0..if ctx.quick { 1 } else { 3 } {
            let _ = std::fs::remove_file(&cache);
            let r = proc::run(&ctx.tinydep, &args, &ctx.work)
                .map_err(|e| format!("running tinydep: {e}"))?;
            o.check(r.exit.success && r.stdout == GOLDEN.as_bytes() && cache.is_file());
            times.push(r.wall.as_secs_f64());
        }
        stats::median(&times)
    } else {
        startup_s(ctx, &mut o)?
    };
    o.metric("setup_s", setup, "s");
    let programs = tiny::corpus::all().len();
    timed_runs(ctx, &mut o, &args, &ctx.work, GOLDEN.as_bytes(), programs)?;
    Ok(o)
}

/// A `synth_mt` program with its in-process reference report.
pub struct SynthProgram {
    pub source: String,
    pub features: synth::Features,
    pub report: String,
    pub summary: ParallelizeSummary,
}

/// The `synth_mt` programs for the seed (a short list under `--quick`).
pub fn synth_programs(ctx: &Ctx) -> Result<Vec<SynthProgram>, String> {
    let count = if ctx.quick {
        QUICK_PROGRAMS
    } else {
        SYNTH_PROGRAMS
    };
    synth::analyzed(ctx.seed, count, |p, program, info, analysis| {
        let graph = DepGraph::new(info, analysis);
        SynthProgram {
            source: p.source.clone(),
            features: p.features,
            report: render_parallelize_report(program, &graph),
            summary: ParallelizeSummary::of(&decide_loops(&graph)),
        }
    })
}

/// `synth_mt`: `tinydep --parallelize --threads=2 f1.t … fN.t` over the
/// seed's generated programs, against the listing rendered in process at
/// one thread.
pub fn synth_mt(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let programs = synth_programs(ctx)?;
    let count =
        |f: fn(&synth::Features) -> bool| programs.iter().filter(|p| f(&p.features)).count();
    o.notes.push(format!(
        "{} generated programs: {} 3 deep, {} triangular, {} assume, {} guarded, \
         {} overwriting",
        programs.len(),
        count(|f| f.depth == 3),
        count(|f| f.triangular),
        count(|f| f.assume),
        count(|f| f.guard),
        count(|f| f.overwrite),
    ));
    let mut sections = Vec::with_capacity(programs.len());
    let mut args = vec!["--parallelize".to_string(), "--threads=2".to_string()];
    for (k, p) in programs.into_iter().enumerate() {
        let name = format!("f{}.t", k + 1);
        std::fs::write(ctx.work.join(&name), &p.source)
            .map_err(|e| format!("writing {name}: {e}"))?;
        args.push(name.clone());
        sections.push((name, p.report, p.summary));
    }
    let expected = reference::parallelize_listing(&sections);
    if ctx.seed == 1 && !ctx.quick {
        let pinned = u64::from_str_radix(SYNTH_SEED1_FNV.trim().trim_start_matches("0x"), 16);
        let digest = reference::fnv1a(expected.as_bytes());
        if pinned != Ok(digest) {
            eprintln!(
                "ledger: synth_mt: the seed-1 listing hashes to {digest:#018x}, not the pinned {}",
                SYNTH_SEED1_FNV.trim()
            );
        }
        o.check(pinned == Ok(digest));
    }
    let setup = startup_s(ctx, &mut o)?;
    o.metric("setup_s", setup, "s");
    timed_runs(
        ctx,
        &mut o,
        &args,
        &ctx.work,
        expected.as_bytes(),
        sections.len(),
    )?;
    Ok(o)
}
