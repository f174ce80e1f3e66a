//! The traced run: a workload's programs through the library in process,
//! one thread, with a span around each call into a layer (`tiny` parse
//! and sema, the `depend` analysis, graph, loop decisions and rendering,
//! `omega` cache persistence), plus the measurements spans cannot give:
//!
//! * the stage split inside the analysis, summed from what
//!   `Analysis::stats` already records per pair and per kill test;
//! * the formula fallback's cost and effect: the analysis with and
//!   without `Config::formula_fallback`, on fresh caches;
//! * the pool's speedup: the analysis at one thread and at two;
//! * the solver alone: every dependence problem of the analysis replayed
//!   through `sat` and `project` with a fresh budget and no cache;
//! * the server layer: the programs as `analyze`, `parallelize` and
//!   `stats` requests to an in-process `Server`;
//! * the tracing overhead: the same pipeline untraced.
//!
//! Passes repeat until the time is up; each metric is the median over
//! passes. Every output is also checked: reports against the golden
//! listing or the CLI reference, the two-thread analysis against the
//! one-thread one, and server responses against direct renderings.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use depend::{
    analyze_corpus, analyze_corpus_with_cache, decide_loops, render_parallelize_report, Analysis,
    Config, DepGraph, PairClass, ParallelizeSummary,
};
use harness::alloc;
use omega::{Budget, CacheStats, SolverCache};
use omega_repro::json::escape;
use omega_repro::server::{render_text_report, ReportView, Server};
use tiny::ProgramInfo;

use crate::trace::Tracer;
use crate::{cli, reference, serve, stats, Ctx, Metric, Outcome};

/// Fresh generated programs added to the corpus in the traced
/// `serve_mixed` pass.
const SERVE_FRESH: usize = 60;
/// `stats` requests per pass.
const STATS_REQUESTS: usize = 20;

/// A traced workload's inputs: named sources, and the listing their
/// `--parallelize` reports must form, when one is known in advance.
struct Inputs {
    programs: Vec<(String, String)>,
    listing: Option<String>,
}

fn inputs(ctx: &Ctx, workload: &str) -> Result<Inputs, String> {
    let corpus = |keep: &dyn Fn(&str) -> bool| -> Vec<(String, String)> {
        tiny::corpus::all()
            .into_iter()
            .filter(|e| keep(e.name))
            .map(|e| (e.name.to_string(), e.source.to_string()))
            .collect()
    };
    Ok(match workload {
        "synth_mt" => {
            let programs = cli::synth_programs(ctx)?;
            let sections: Vec<_> = programs
                .iter()
                .enumerate()
                .map(|(k, p)| (format!("f{}.t", k + 1), p.report.clone(), p.summary))
                .collect();
            Inputs {
                listing: Some(reference::parallelize_listing(&sections)),
                programs: programs
                    .into_iter()
                    .zip(sections)
                    .map(|(p, (name, _, _))| (name, p.source))
                    .collect(),
            }
        }
        "serve_mixed" => {
            let names = serve::corpus_names();
            let mut programs = corpus(&|n| names.contains(&n));
            let fresh = crate::synth::draw(ctx.seed ^ serve::FRESH_STREAM, SERVE_FRESH);
            programs.extend(
                fresh
                    .into_iter()
                    .enumerate()
                    .map(|(k, p)| (format!("fresh{k}"), p.source)),
            );
            Inputs {
                programs,
                listing: None,
            }
        }
        _ => Inputs {
            programs: corpus(&|_| true),
            listing: Some(cli::GOLDEN.to_string()),
        },
    })
}

/// What one run of the layer pipeline produced.
struct Pipeline {
    programs: Vec<tiny::Program>,
    infos: Vec<ProgramInfo>,
    analyses: Vec<Analysis>,
    reports: Vec<String>,
    summary: ParallelizeSummary,
    summaries: Vec<ParallelizeSummary>,
    edges: usize,
    cache: CacheStats,
    /// Interned rows alive while the cache still was.
    rows_live: usize,
}

/// Front end, analysis, graph, loop decisions and rendering over every
/// program, at one thread, each call in a span. `warm` loads the cache
/// from `cache_file`; otherwise it starts empty. The cache is saved to
/// `cache_file` at the end (and, when cold, loaded back, so every
/// workload measures both directions of persistence).
fn pipeline(
    t: &mut Tracer,
    sources: &[(String, String)],
    cache_file: &Path,
    warm: bool,
) -> Result<Pipeline, String> {
    t.begin("pass");
    let mut programs = Vec::with_capacity(sources.len());
    for (name, src) in sources {
        let p = t.span("tiny.parse", || tiny::Program::parse(src));
        programs.push(p.map_err(|e| format!("{name}: {e}"))?);
    }
    let mut infos = Vec::with_capacity(sources.len());
    for ((name, _), p) in sources.iter().zip(&programs) {
        let info = t.span("tiny.sema", || tiny::analyze(p));
        infos.push(info.map_err(|e| format!("{name}: {e}"))?);
    }
    let cache = Arc::new(if warm {
        t.span("omega.persist.load", || SolverCache::load_from(cache_file))
    } else {
        SolverCache::new()
    });
    let one_thread = Config::extended();
    let analyses = t
        .span("depend.analyze", || {
            analyze_corpus_with_cache(&infos, &one_thread, Some(Arc::clone(&cache)))
        })
        .map_err(|e| format!("analysis failed: {e}"))?;
    let mut reports = Vec::with_capacity(sources.len());
    let mut summaries = Vec::with_capacity(sources.len());
    let mut summary = ParallelizeSummary::default();
    let mut edges = 0;
    for ((p, info), a) in programs.iter().zip(&infos).zip(&analyses) {
        let graph = t.span("depend.graph", || DepGraph::new(info, a));
        edges += graph.edges().len();
        let decisions = t.span("depend.parallelize", || decide_loops(&graph));
        let s = ParallelizeSummary::of(&decisions);
        summary.add(&s);
        summaries.push(s);
        reports.push(t.span("depend.render", || render_parallelize_report(p, &graph)));
    }
    t.span("omega.persist.save", || cache.save_to(cache_file))
        .map_err(|e| format!("saving the cache: {e}"))?;
    if !warm {
        black_box(t.span("omega.persist.load", || SolverCache::load_from(cache_file)));
    }
    t.end();
    Ok(Pipeline {
        programs,
        infos,
        analyses,
        reports,
        summary,
        summaries,
        edges,
        cache: cache.stats(),
        rows_live: omega::row_store_stats().live,
    })
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One traced pass and everything measured around it, in a fixed order.
fn pass(
    t: &mut Tracer,
    inputs: &Inputs,
    cache_file: &Path,
    warm: bool,
    o: &mut Outcome,
) -> Result<Vec<Metric>, String> {
    let mut m = Outcome::default();
    let spans_before = t.spans().len();
    let rows_before = omega::row_store_stats();
    let t0 = Instant::now();
    let mut p = pipeline(t, &inputs.programs, cache_file, warm)?;
    let traced_ms = ms_since(t0);
    let rows = omega::row_store_stats();
    let cache = p.cache;
    let names: Vec<String> = inputs.programs.iter().map(|(n, _)| n.clone()).collect();
    if let Some(listing) = &inputs.listing {
        let sections: Vec<_> = names
            .iter()
            .zip(&p.reports)
            .zip(&p.summaries)
            .map(|((n, r), s)| (n.clone(), r.clone(), *s))
            .collect();
        o.check(reference::parallelize_listing(&sections) == *listing);
    }

    m.metric("tiny.parse_ms", t.self_ms("tiny.parse"), "ms");
    m.metric("tiny.sema_ms", t.self_ms("tiny.sema"), "ms");

    // The stage split inside the analysis, from its own statistics.
    let analysis_ms = t.self_ms("depend.analyze");
    let all_pairs = || p.analyses.iter().flat_map(|a| &a.stats.pairs);
    let all_kills = || p.analyses.iter().flat_map(|a| &a.stats.kills);
    let build_ms = ns_ms(all_pairs().map(|s| s.std_ns).sum());
    let refine_cover_ms = ns_ms(all_pairs().map(|s| s.ext_ns - s.std_ns).sum());
    let omega_kills: Vec<_> = all_kills().filter(|k| k.consulted_omega).collect();
    let kill_omega_ms = ns_ms(omega_kills.iter().map(|k| k.kill_ns).sum());
    let kill_quick_ms = ns_ms(
        all_kills()
            .filter(|k| !k.consulted_omega)
            .map(|k| k.kill_ns)
            .sum(),
    );
    let useful = omega_kills.iter().filter(|k| k.killed).count();
    let (mut tested, mut skipped) = (0, 0);
    for a in &p.analyses {
        tested += a.stats.prefilter.tested();
        skipped += a.stats.prefilter.skipped();
    }
    m.metric("depend.analysis_ms", analysis_ms, "ms");
    m.metric("depend.pairs.count", all_pairs().count() as f64, "count");
    m.metric(
        "depend.pairs.split",
        all_pairs().filter(|s| s.class == PairClass::Split).count() as f64,
        "count",
    );
    m.metric("depend.pairs.build_ms", build_ms, "ms");
    m.metric("depend.refine_cover_ms", refine_cover_ms, "ms");
    m.metric("depend.prefilter.tested", tested as f64, "count");
    m.metric(
        "depend.prefilter.skip_frac",
        skipped as f64 / tested.max(1) as f64,
        "ratio",
    );
    m.metric("depend.kill.tests", all_kills().count() as f64, "count");
    m.metric("depend.kill.omega_tests", omega_kills.len() as f64, "count");
    m.metric("depend.kill.omega_ms", kill_omega_ms, "ms");
    m.metric("depend.kill.quick_ms", kill_quick_ms, "ms");
    m.metric(
        "depend.kill.useful_frac",
        useful as f64 / omega_kills.len().max(1) as f64,
        "ratio",
    );
    m.metric(
        "depend.analysis.other_ms",
        analysis_ms - build_ms - refine_cover_ms - kill_omega_ms - kill_quick_ms,
        "ms",
    );

    // Fallback on and off, and one thread against two, on fresh caches.
    let config = |formula_fallback, threads| Config {
        formula_fallback,
        threads,
        ..Config::extended()
    };
    let failed = |e: depend::Error| format!("analysis failed: {e}");
    let allocs0 = alloc::thread_allocs();
    let t0 = Instant::now();
    let on = analyze_corpus(&p.infos, &config(true, 1)).map_err(failed)?;
    let one_thread_ms = ms_since(t0);
    let allocs = alloc::thread_allocs() - allocs0;
    let t0 = Instant::now();
    let off = analyze_corpus(&p.infos, &config(false, 1)).map_err(failed)?;
    let no_fallback_ms = ms_since(t0);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let t0 = Instant::now();
    let pooled = analyze_corpus(&p.infos, &config(true, threads)).map_err(failed)?;
    let pooled_ms = ms_since(t0);
    let all = ReportView {
        all: true,
        ..ReportView::default()
    };
    let texts: Vec<String> = p
        .infos
        .iter()
        .zip(&on)
        .map(|(info, a)| render_text_report(info, a, &all))
        .collect();
    let changed = p
        .infos
        .iter()
        .zip(&off)
        .zip(&texts)
        .filter(|((info, a), text)| render_text_report(info, a, &all) != **text)
        .count();
    for ((prog, info), (a, report)) in p
        .programs
        .iter()
        .zip(&p.infos)
        .zip(pooled.iter().zip(&p.reports))
    {
        o.check(render_parallelize_report(prog, &DepGraph::new(info, a)) == *report);
    }
    m.metric(
        "depend.logic.formula_ms",
        one_thread_ms - no_fallback_ms,
        "ms",
    );
    m.metric("depend.logic.changed_programs", changed as f64, "count");
    m.metric("depend.pool.speedup", one_thread_ms / pooled_ms, "ratio");

    m.metric("depend.graph_ms", t.self_ms("depend.graph"), "ms");
    m.metric("depend.graph.edges", p.edges as f64, "count");
    m.metric(
        "depend.parallelize_ms",
        t.self_ms("depend.parallelize"),
        "ms",
    );
    m.metric("depend.parallelize.loops", p.summary.loops as f64, "count");
    m.metric(
        "depend.parallelize.parallel",
        p.summary.parallel as f64,
        "count",
    );
    m.metric("depend.parallelize.newly", p.summary.newly as f64, "count");
    m.metric("depend.render_ms", t.self_ms("depend.render"), "ms");
    let bytes: usize = p.reports.iter().map(String::len).sum();
    m.metric("depend.render.bytes", bytes as f64, "bytes");

    // The solver alone, on this workload's own dependence problems.
    let problems: Vec<_> = on
        .iter()
        .flat_map(|a| a.flows.iter().chain(&a.antis).chain(&a.outputs))
        .flat_map(|d| &d.cases)
        .collect();
    let allocs0 = alloc::thread_allocs();
    let t0 = Instant::now();
    for c in &problems {
        let _ = black_box(c.problem.is_satisfiable_with(&mut Budget::default()));
    }
    let sat_us = ms_since(t0) * 1e3;
    let sat_allocs = alloc::thread_allocs() - allocs0;
    let t0 = Instant::now();
    for c in &problems {
        let keep: Vec<_> = c
            .src_vars
            .iters
            .iter()
            .chain(&c.dst_vars.iters)
            .copied()
            .collect();
        let _ = black_box(c.problem.project_with(&keep, &mut Budget::default()));
    }
    let project_us = ms_since(t0) * 1e3;
    let queries = problems.len().max(1) as f64;
    m.metric("omega.queries", problems.len() as f64, "count");
    m.metric("omega.sat_us_per_query", sat_us / queries, "us");
    m.metric("omega.project_us_per_query", project_us / queries, "us");
    m.metric(
        "omega.sat_allocs_per_query",
        sat_allocs as f64 / queries,
        "count",
    );

    m.metric("omega.cache.lookups", cache.lookups() as f64, "count");
    m.metric("omega.cache.hits", cache.hits as f64, "count");
    m.metric("omega.cache.hit_rate", cache.hit_rate(), "ratio");
    m.metric("omega.cache.inserts", cache.inserts as f64, "count");
    m.metric("omega.cache.entries", cache.entries as f64, "count");
    m.metric("omega.cache.full_canons", cache.full_canons as f64, "count");
    m.metric(
        "omega.cache.delta_canons",
        cache.delta_canons as f64,
        "count",
    );
    m.metric(
        "omega.cache.checkpoint_resumes",
        cache.checkpoint_resumes as f64,
        "count",
    );
    m.metric(
        "omega.cache.checkpoint_rebuilds",
        cache.checkpoint_rebuilds as f64,
        "count",
    );
    m.metric(
        "omega.cache.base_evicted",
        cache.base_evicted as f64,
        "count",
    );
    m.metric(
        "omega.persist.load_ms",
        t.self_ms("omega.persist.load"),
        "ms",
    );
    m.metric(
        "omega.persist.save_ms",
        t.self_ms("omega.persist.save"),
        "ms",
    );
    let file_bytes = std::fs::metadata(cache_file).map_or(0, |f| f.len());
    m.metric("omega.persist.file_mb", file_bytes as f64 / 1048576.0, "MB");
    m.metric("omega.rows.live", p.rows_live as f64, "count");
    m.metric(
        "omega.rows.built",
        (rows.built - rows_before.built) as f64,
        "count",
    );
    m.metric(
        "omega.rows.interns",
        (rows.interns - rows_before.interns) as f64,
        "count",
    );

    let jsons: Vec<String> = p
        .infos
        .iter()
        .zip(&on)
        .map(|(info, a)| depend::report::to_json(&DepGraph::new(info, a)))
        .collect();
    // Only the server's own cache keeps rows alive from here on.
    drop((on, off, pooled, std::mem::take(&mut p.analyses)));
    server_layer(&mut m, o, &inputs.programs, &jsons, &texts, &p.reports);

    m.metric("alloc.analyze", allocs as f64, "count");
    let peak = alloc::snapshot().peak_bytes;
    m.metric("alloc.peak_mb", peak as f64 / 1048576.0, "MB");

    drop(p);
    let t0 = Instant::now();
    pipeline(&mut Tracer::new(false), &inputs.programs, cache_file, warm)?;
    let untraced_ms = ms_since(t0);
    m.metric(
        "trace.overhead_frac",
        (traced_ms - untraced_ms) / untraced_ms,
        "ratio",
    );
    m.metric(
        "trace.spans",
        (t.spans().len() - spans_before) as f64,
        "count",
    );
    Ok(m.metrics)
}

/// The programs as requests to an in-process server: a cold `analyze` in
/// JSON format, a warm text `analyze --all`, a `parallelize`, and a few
/// `stats`, each response checked against the library's own rendering.
fn server_layer(
    m: &mut Outcome,
    o: &mut Outcome,
    programs: &[(String, String)],
    jsons: &[String],
    texts: &[String],
    reports: &[String],
) {
    let server = Server::new(1, None);
    let timed = |line: &str, expected: Option<&str>, o: &mut Outcome| -> f64 {
        let t0 = Instant::now();
        let resp = server.handle_line(line).map(|r| r.line);
        let ms = ms_since(t0);
        o.check(match (resp, expected) {
            (Some(r), Some(e)) => r == e,
            (Some(r), None) => r.starts_with("{\"ok\":true,\"stats\":{"),
            (None, _) => false,
        });
        ms
    };
    let sources: Vec<String> = programs.iter().map(|(_, src)| escape(src)).collect();
    let mut fresh = Vec::new();
    let mut analyze = Vec::new();
    let mut parallelize = Vec::new();
    for (src, json) in sources.iter().zip(jsons) {
        let line = format!(
            "{{\"op\":\"analyze\",\"source\":\"{src}\",\"options\":{{\"format\":\"json\"}}}}"
        );
        fresh.push(timed(&line, Some(&serve::ok_report(json)), o));
    }
    for (src, text) in sources.iter().zip(texts) {
        let line =
            format!("{{\"op\":\"analyze\",\"source\":\"{src}\",\"options\":{{\"all\":true}}}}");
        analyze.push(timed(&line, Some(&serve::ok_report(text)), o));
    }
    for (src, report) in sources.iter().zip(reports) {
        let line = format!("{{\"op\":\"parallelize\",\"source\":\"{src}\"}}");
        parallelize.push(timed(&line, Some(&serve::ok_report(report)), o));
    }
    let stats_ms: Vec<f64> = (0..STATS_REQUESTS)
        .map(|_| timed("{\"op\":\"stats\"}", None, o))
        .collect();
    omega::row_store_gc();
    m.metric("server.fresh_ms.p50", stats::median(&fresh), "ms");
    m.metric("server.analyze_ms.p50", stats::median(&analyze), "ms");
    m.metric(
        "server.parallelize_ms.p50",
        stats::median(&parallelize),
        "ms",
    );
    m.metric("server.stats_ms.p50", stats::median(&stats_ms), "ms");
    m.metric(
        "server.rows_live_end",
        omega::row_store_stats().live as f64,
        "count",
    );
    m.metric(
        "server.cache.base_evicted",
        server.cache().stats().base_evicted as f64,
        "count",
    );
}

pub fn traced(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    let inputs = inputs(ctx, workload)?;
    let warm = workload == "corpus_warm";
    let cache_file = ctx.work.join("layers.cache");
    if warm {
        // Untimed priming, like the CLI workload's priming run.
        pipeline(
            &mut Tracer::new(false),
            &inputs.programs,
            &cache_file,
            false,
        )?;
    }
    let mut o = Outcome::default();
    let mut tracer = Tracer::new(true);
    let mut passes: Vec<Vec<Metric>> = Vec::new();
    let start = Instant::now();
    while ctx.more(start, passes.len(), 1) {
        passes.push(pass(&mut tracer, &inputs, &cache_file, warm, &mut o)?);
        tracer.next_run();
    }
    let trace_file = ctx.out.join(format!("trace-{workload}.jsonl"));
    std::fs::write(&trace_file, tracer.to_jsonl())
        .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;
    o.notes.push(format!(
        "{} traced passes over {} programs; spans in {}",
        passes.len(),
        inputs.programs.len(),
        trace_file.display()
    ));
    // Every pass reports the same metrics in the same order.
    for (i, m) in passes[0].iter().enumerate() {
        let values: Vec<f64> = passes.iter().map(|p| p[i].value).collect();
        o.metric(m.name, stats::median(&values), m.unit);
    }
    Ok(o)
}
