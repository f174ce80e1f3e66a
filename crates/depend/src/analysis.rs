//! Whole-program dependence analysis: the driver described at the start of
//! §4 — all output dependences first, then per-read flow analysis with
//! refinement, covering and pairwise killing — plus the per-pair timing
//! and classification statistics behind Figures 6 and 7.
//!
//! The driver is organized as a sequence of *stages* whose tasks are
//! mutually independent (output pairs, flow pairs, per-read kill passes,
//! anti pairs); each stage fans out across [`Config::threads`] workers
//! via [`parallel_map`] and merges its results in task order, so the
//! analysis output is byte-identical at every thread count. All Omega
//! queries of one analysis share a canonical-form memo cache
//! ([`omega::SolverCache`]), and the §4.5 quick pre-tests
//! ([`crate::prefilter`]) reject obviously-independent pairs before a
//! `Problem` is ever built; both report counters in [`Stats`].
//!
//! At corpus scale, [`analyze_corpus`] runs whole programs as outer work
//! items on one shared [`Pool`] while each program's stages fan out as
//! inner batches on the same pool — idle workers steal pair chunks from
//! whichever program is still busy, so a lone heavy program fills every
//! core. The per-item merges are unchanged, so corpus reports are
//! byte-identical to analyzing each program alone.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use omega::Budget;
use tiny::ast::name_key;
use tiny::ProgramInfo;

use crate::config::Config;
use crate::cover::check_covering;
use crate::dep::{AccessSite, DeadReason, DepKind, Dependence};
use crate::error::Result;
use crate::kill::check_kill;
use crate::pairs::build_dependence;
use crate::parallel::{parallel_map, Pool};
use crate::prefilter::{prefilter_pair, PrefilterStats};
use crate::refine::refine_dependence;

/// How a write/read pair was handled, for the Figure 6 classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairClass {
    /// The extended capabilities were not needed (no dependence, or the
    /// §4.5 quick tests skipped both refinement and covering).
    NoTest,
    /// A general refinement/covering test ran on a single dependence
    /// vector.
    General,
    /// The dependence was split into several vectors during testing.
    Split,
}

/// Timing record for one write/read array pair.
#[derive(Debug, Clone)]
pub struct PairStat {
    /// Source (write) statement label.
    pub src: usize,
    /// Destination (read) statement label.
    pub dst: usize,
    /// Destination read index.
    pub read_idx: usize,
    /// Array name.
    pub array: String,
    /// Standard analysis time (dependence construction + direction
    /// vectors).
    pub std_ns: u64,
    /// Extended analysis time (standard + refinement + covering).
    pub ext_ns: u64,
    /// Figure 6 class.
    pub class: PairClass,
    /// Whether a dependence was found at all.
    pub dep_found: bool,
}

/// Timing record for one kill test.
#[derive(Debug, Clone)]
pub struct KillStat {
    /// Victim source label.
    pub victim_src: usize,
    /// Killer write label.
    pub killer: usize,
    /// Read statement label.
    pub read: usize,
    /// Kill test time.
    pub kill_ns: u64,
    /// Extended analysis time of the victim pair (the y-axis of the
    /// Figure 6 right-hand plot).
    pub victim_ext_ns: u64,
    /// Whether the Omega test was consulted (false = quick test).
    pub consulted_omega: bool,
    /// Whether the victim died.
    pub killed: bool,
}

/// Aggregated statistics of one program analysis.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// One record per write/read array pair.
    pub pairs: Vec<PairStat>,
    /// One record per kill test performed.
    pub kills: Vec<KillStat>,
    /// Memo-cache counters for the analysis (all zero when
    /// [`Config::memo_cache`] is off). For a caller-owned or corpus-wide
    /// cache these are cumulative across every analysis that shared it.
    pub cache: omega::CacheStats,
    /// §4.5 pre-filter counters (all zero when [`Config::quick_tests`]
    /// is off).
    pub prefilter: PrefilterStats,
    /// True when [`Config::cache_file`] was set but writing the cache
    /// back failed. The analysis itself is unaffected (the report is
    /// complete and correct); a warning went to stderr. Callers that
    /// rely on warm restarts should surface this.
    pub cache_save_failed: bool,
}

/// The result of analyzing a program.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All flow dependences (live and dead; check
    /// [`Dependence::is_live`]).
    pub flows: Vec<Dependence>,
    /// All anti dependences.
    pub antis: Vec<Dependence>,
    /// All output dependences.
    pub outputs: Vec<Dependence>,
    /// Timing and classification statistics.
    pub stats: Stats,
}

impl Analysis {
    /// Live flow dependences, in (src, dst) order.
    pub fn live_flows(&self) -> impl Iterator<Item = &Dependence> {
        self.flows.iter().filter(|d| d.is_live())
    }

    /// Dead flow dependences.
    pub fn dead_flows(&self) -> impl Iterator<Item = &Dependence> {
        self.flows.iter().filter(|d| !d.is_live())
    }

    /// The value sources of a read: the statements whose writes can still
    /// reach it after kill analysis. This is the paper's "flow of
    /// information" — the input a compiler needs for caches, distributed
    /// memories, or communication generation. A single-element result
    /// means the read's producer is known exactly.
    pub fn value_sources(&self, read_label: usize, read_idx: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .live_flows()
            .filter(|d| {
                d.dst.label == read_label && d.dst.site == AccessSite::Read(read_idx)
            })
            .map(|d| d.src.label)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Runs the full analysis of §4 over a program.
///
/// # Errors
///
/// Propagates solver errors.
///
/// # Examples
///
/// ```
/// use depend::{analyze_program, Config};
///
/// let program = tiny::Program::parse(tiny::corpus::EXAMPLE_3)?;
/// let info = tiny::analyze(&program)?;
/// let analysis = analyze_program(&info, &Config::extended())?;
/// let flow = analysis.live_flows().next().expect("one live flow");
/// assert_eq!(flow.summary().to_string(), "(0,1)");
/// assert!(flow.refined);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn analyze_program(info: &ProgramInfo, config: &Config) -> Result<Analysis> {
    // Each solver-heavy operation gets a fresh budget so one pathological
    // pair cannot starve the rest of the analysis; budget exhaustion in a
    // §4 test degrades conservatively (no kill/cover/refinement claimed).
    // All budgets share one memo cache, so structurally identical Omega
    // problems are solved once per analysis regardless of which pair (or
    // worker thread) reaches them first.
    let cache = config.memo_cache.then(|| {
        Arc::new(match &config.cache_file {
            // A missing/corrupt/stale file yields an empty cache: the run
            // is cold but correct.
            Some(path) => omega::SolverCache::load_from(path),
            None => omega::SolverCache::new(),
        })
    });
    let mut analysis =
        analyze_with(info, config, &cache, Exec::Threads(config.effective_threads()))?;
    if let (Some(cache), Some(path)) = (&cache, &config.cache_file) {
        // An unwritable path must not fail the analysis (the report is
        // complete), but it must not be silent either: the next run
        // would silently go cold. The save itself is atomic (temp file
        // + rename), so a crash or a concurrent writer can never leave
        // a torn file behind.
        if let Err(e) = cache.save_to(path) {
            eprintln!(
                "depend: warning: failed to save solver cache to {}: {e}",
                path.display()
            );
            analysis.stats.cache_save_failed = true;
        }
    }
    Ok(analysis)
}

/// Analyzes a whole corpus of programs on one shared two-level [`Pool`].
///
/// Programs are the outer work items; each program's analysis stages
/// submit their pair batches to the *same* pool, so workers that finish
/// their program steal pair chunks from programs still in flight — a
/// lone heavy program (or a corpus smaller than the thread count) still
/// fills every core. Every program's report is byte-identical to an
/// [`analyze_program`] run at any thread count.
///
/// All programs share one memo cache, built per [`Config`] exactly like
/// [`analyze_program`] (loaded from [`Config::cache_file`] when set,
/// saved back once after the whole corpus). Each returned
/// [`Stats::cache`] holds the corpus-cumulative counters. A failed save
/// warns on stderr and sets [`Stats::cache_save_failed`] on every
/// analysis.
///
/// # Errors
///
/// Propagates the first (lowest program index) solver error.
pub fn analyze_corpus(infos: &[ProgramInfo], config: &Config) -> Result<Vec<Analysis>> {
    let cache = config.memo_cache.then(|| {
        Arc::new(match &config.cache_file {
            Some(path) => omega::SolverCache::load_from(path),
            None => omega::SolverCache::new(),
        })
    });
    let mut analyses = analyze_corpus_with_cache(infos, config, cache.clone())?;
    if let (Some(cache), Some(path)) = (&cache, &config.cache_file) {
        if let Err(e) = cache.save_to(path) {
            eprintln!(
                "depend: warning: failed to save solver cache to {}: {e}",
                path.display()
            );
            for a in &mut analyses {
                a.stats.cache_save_failed = true;
            }
        }
    }
    Ok(analyses)
}

/// [`analyze_corpus`] with a caller-owned memo cache (the server's batch
/// path; ownership semantics as in [`analyze_program_with_cache`]).
///
/// # Errors
///
/// Propagates the first (lowest program index) solver error.
pub fn analyze_corpus_with_cache(
    infos: &[ProgramInfo],
    config: &Config,
    cache: Option<Arc<omega::SolverCache>>,
) -> Result<Vec<Analysis>> {
    let threads = config.effective_threads();
    let mut analyses = if threads <= 1 || infos.len() <= 1 {
        // Sequential outer loop; a single program still parallelizes
        // its inner stages across `threads`.
        infos
            .iter()
            .map(|info| analyze_with(info, config, &cache, Exec::Threads(threads)))
            .collect::<Result<Vec<_>>>()?
    } else {
        let pool = Pool::new(threads);
        pool.map(infos.iter().collect(), |_, info| {
            analyze_with(info, config, &cache, Exec::Pool(&pool))
        })?
    };
    if let Some(cache) = &cache {
        // Uniform semantics regardless of completion order: every
        // program reports the corpus-total counters.
        let total = cache.stats();
        for a in &mut analyses {
            a.stats.cache = total;
        }
    }
    Ok(analyses)
}

/// [`analyze_program_with_cache`] scheduled on a caller-owned [`Pool`]:
/// the analysis stages submit their pair batches to `pool`, so an
/// otherwise idle server (or concurrent analyses sharing the pool) lends
/// this analysis its workers. [`Config::threads`] is ignored — the
/// pool's size decides the parallelism.
///
/// # Errors
///
/// Propagates solver errors, exactly like [`analyze_program`].
pub fn analyze_program_on(
    pool: &Pool,
    info: &ProgramInfo,
    config: &Config,
    cache: Option<Arc<omega::SolverCache>>,
) -> Result<Analysis> {
    analyze_with(info, config, &cache, Exec::Pool(pool))
}

/// [`analyze_program`] with a caller-owned memo cache.
///
/// A long-lived caller — the `tinydep --serve` daemon — passes the same
/// [`omega::SolverCache`] for every request so canonical solves stay
/// warm across requests. Results are byte-identical to a fresh-cache run
/// (the cache's determinism contract: a hit is indistinguishable, in
/// value and budget consumption, from the cold computation).
///
/// With `Some(cache)`, [`Config::memo_cache`] and [`Config::cache_file`]
/// are ignored: the caller owns the cache's lifetime and persistence
/// (load it with [`omega::SolverCache::load_from`], save it with
/// [`omega::SolverCache::save_to`]). With `None` this is a plain
/// uncached run. [`Analysis::stats`] then reports the cache's
/// *cumulative* counters, so per-request deltas are the caller's
/// subtraction.
///
/// # Errors
///
/// Propagates solver errors, exactly like [`analyze_program`].
pub fn analyze_program_with_cache(
    info: &ProgramInfo,
    config: &Config,
    cache: Option<Arc<omega::SolverCache>>,
) -> Result<Analysis> {
    analyze_with(info, config, &cache, Exec::Threads(config.effective_threads()))
}

/// Where a stage's fan-out runs: an ephemeral scoped pool of its own
/// ([`parallel_map`]), or a shared long-lived [`Pool`] whose workers are
/// stolen across concurrent analyses (the corpus and server paths).
#[derive(Clone, Copy)]
enum Exec<'p> {
    /// Scoped threads per stage, the one-shot path.
    Threads(usize),
    /// Batches submitted to a shared two-level pool.
    Pool(&'p Pool),
}

impl Exec<'_> {
    fn map<T, R, F>(&self, work: Vec<T>, f: F) -> Result<Vec<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> Result<R> + Send + Sync,
    {
        match self {
            Exec::Threads(threads) => parallel_map(*threads, work, f),
            Exec::Pool(pool) => pool.map(work, f),
        }
    }
}

/// The driver body shared by [`analyze_program`] (which builds and
/// persists the cache per `Config`) and [`analyze_program_with_cache`]
/// (which borrows the caller's); `exec` decides where the stage
/// fan-outs run.
fn analyze_with(
    info: &ProgramInfo,
    config: &Config,
    cache: &Option<Arc<omega::SolverCache>>,
    exec: Exec<'_>,
) -> Result<Analysis> {
    let mut stats = Stats::default();

    // Deduplicated reads per statement (a statement may read the same
    // element twice, e.g. `a(jj)*a(jj)`).
    let mut reads: Vec<(usize, usize)> = Vec::new(); // (label, read idx)
    for s in &info.stmts {
        let mut seen = BTreeSet::new();
        for (idx, r) in s.reads.iter().enumerate() {
            let key = format!("{r}");
            if seen.insert(key) {
                reads.push((s.label, idx));
            }
        }
    }
    let writes: Vec<usize> = info.stmts.iter().map(|s| s.label).collect();

    // 1. All output dependences (they feed the quick tests), one task per
    // write pair, merged in pair order.
    let out_tasks: Vec<(usize, usize)> = writes
        .iter()
        .flat_map(|&w1| writes.iter().map(move |&w2| (w1, w2)))
        .collect();
    let out_results = exec.map(out_tasks, |_, (w1, w2)| {
        let a = info.stmt(w1);
        let b = info.stmt(w2);
        let mut pf = PrefilterStats::default();
        if config.quick_tests && name_key(&a.write.array) == name_key(&b.write.array) {
            let skip =
                prefilter_pair(a, AccessSite::Write, b, AccessSite::Write, &info.assumptions);
            pf.record(skip);
            if skip.is_some() {
                // Conservative by construction: the subscript equations
                // have no integer solution, so build_dependence would
                // have returned None (property-tested in tests/).
                return Ok((None, pf));
            }
        }
        let mut budget = fresh_budget(config, cache);
        let dep = build_dependence(
            info,
            DepKind::Output,
            a,
            AccessSite::Write,
            b,
            AccessSite::Write,
            &mut budget,
        )?;
        Ok((dep, pf))
    })?;
    let mut outputs = Vec::new();
    for (dep, pf) in out_results {
        stats.prefilter.absorb(pf);
        outputs.extend(dep);
    }
    let self_output: BTreeSet<usize> = writes
        .iter()
        .copied()
        .filter(|&w| outputs.iter().any(|d| d.src.label == w && d.dst.label == w))
        .collect();

    // 2. Per-pair flow analysis (construction + refinement + covering):
    // one task per same-array (write, read) pair, in read-major order —
    // exactly the iteration order of the sequential loop.
    let flow_tasks: Vec<(usize, usize)> = reads
        .iter()
        .enumerate()
        .flat_map(|(read_pos, &(read_label, read_idx))| {
            let read_array = name_key(&info.stmt(read_label).reads[read_idx].array);
            writes
                .iter()
                .filter(move |&&w| name_key(&info.stmt(w).write.array) == read_array)
                .map(move |&w| (read_pos, w))
        })
        .collect();
    // Remember each task's read position before the dispatch consumes the
    // vector: the merge below folds results back per read without
    // recomputing the task list.
    let merge_order: Vec<usize> = flow_tasks.iter().map(|&(read_pos, _)| read_pos).collect();
    let flow_results = exec.map(flow_tasks, |_, (read_pos, w)| {
        let (read_label, read_idx) = reads[read_pos];
        analyze_flow_pair(info, config, cache, &self_output, read_label, read_idx, w)
    })?;
    let mut flows_by_read: Vec<Vec<(Dependence, u64)>> =
        (0..reads.len()).map(|_| Vec::new()).collect();
    for (read_pos, (pair_stat, dep, pf)) in merge_order.into_iter().zip(flow_results) {
        stats.prefilter.absorb(pf);
        stats.pairs.push(pair_stat);
        if let Some(pair) = dep {
            flows_by_read[read_pos].push(pair);
        }
    }

    // 3. Pairwise kills among the flow dependences to each read. Reads
    // are independent of one another, so the per-read passes fan out;
    // within one read both passes run sequentially (the cover pass
    // first, its deaths visible to every kill test, as in the paper —
    // see `kill_passes` for why the victims are not parallelized).
    let kill_tasks: Vec<(usize, Vec<(Dependence, u64)>)> = reads
        .iter()
        .map(|&(read_label, _)| read_label)
        .zip(flows_by_read)
        .collect();
    let kill_results = exec.map(kill_tasks, |_, (read_label, mut flows_here)| {
        let kill_stats = if config.kill {
            kill_passes(info, config, cache, &outputs, read_label, &mut flows_here)?
        } else {
            Vec::new()
        };
        Ok((flows_here, kill_stats))
    })?;
    let mut flows = Vec::new();
    for (flows_here, kill_stats) in kill_results {
        flows.extend(flows_here.into_iter().map(|(d, _)| d));
        stats.kills.extend(kill_stats);
    }

    // 4. Anti dependences (reported unchanged, as in the paper): one task
    // per same-array (read, write) pair.
    let anti_tasks: Vec<(usize, usize, usize)> = reads
        .iter()
        .flat_map(|&(read_label, read_idx)| {
            let read_array = name_key(&info.stmt(read_label).reads[read_idx].array);
            writes
                .iter()
                .filter(move |&&w| name_key(&info.stmt(w).write.array) == read_array)
                .map(move |&w| (read_label, read_idx, w))
        })
        .collect();
    let anti_results = exec.map(anti_tasks, |_, (read_label, read_idx, w)| {
        let dst = info.stmt(read_label);
        let wst = info.stmt(w);
        let mut pf = PrefilterStats::default();
        if config.quick_tests {
            let skip = prefilter_pair(
                dst,
                AccessSite::Read(read_idx),
                wst,
                AccessSite::Write,
                &info.assumptions,
            );
            pf.record(skip);
            if skip.is_some() {
                return Ok((None, pf));
            }
        }
        let mut budget = fresh_budget(config, cache);
        let dep = build_dependence(
            info,
            DepKind::Anti,
            dst,
            AccessSite::Read(read_idx),
            wst,
            AccessSite::Write,
            &mut budget,
        )?;
        Ok((dep, pf))
    })?;
    let mut antis = Vec::new();
    for (dep, pf) in anti_results {
        stats.prefilter.absorb(pf);
        antis.extend(dep);
    }

    storage_kill_passes(info, config, cache, &mut outputs, &mut antis)?;

    if let Some(cache) = cache {
        // For a caller-owned cache these counters are cumulative across
        // every analysis that shared it.
        stats.cache = cache.stats();
    }
    Ok(Analysis {
        flows,
        antis,
        outputs,
        stats,
    })
}

/// A per-query budget, sharing the analysis-wide memo cache when one is
/// enabled.
fn fresh_budget(config: &Config, cache: &Option<Arc<omega::SolverCache>>) -> Budget {
    let b = Budget::new(config.budget);
    match cache {
        Some(c) => b.with_cache(c.clone()),
        None => b,
    }
}

/// Stage-2 task: dependence construction plus the extended analysis
/// (refinement then covering) for one same-array (write, read) pair.
fn analyze_flow_pair(
    info: &ProgramInfo,
    config: &Config,
    cache: &Option<Arc<omega::SolverCache>>,
    self_output: &BTreeSet<usize>,
    read_label: usize,
    read_idx: usize,
    w: usize,
) -> Result<(PairStat, Option<(Dependence, u64)>, PrefilterStats)> {
    let dst = info.stmt(read_label);
    let src = info.stmt(w);
    let mut pf = PrefilterStats::default();
    let no_dep_stat = |std_ns: u64| PairStat {
        src: w,
        dst: read_label,
        read_idx,
        array: src.write.array.clone(),
        std_ns,
        ext_ns: std_ns,
        class: PairClass::NoTest,
        dep_found: false,
    };

    let t0 = Instant::now();
    if config.quick_tests {
        let skip = prefilter_pair(
            src,
            AccessSite::Write,
            dst,
            AccessSite::Read(read_idx),
            &info.assumptions,
        );
        pf.record(skip);
        if skip.is_some() {
            return Ok((no_dep_stat(t0.elapsed().as_nanos() as u64), None, pf));
        }
    }
    let mut budget = fresh_budget(config, cache);
    let dep = build_dependence(
        info,
        DepKind::Flow,
        src,
        AccessSite::Write,
        dst,
        AccessSite::Read(read_idx),
        &mut budget,
    )?;
    let std_ns = t0.elapsed().as_nanos() as u64;

    let Some(mut dep) = dep else {
        return Ok((no_dep_stat(std_ns), None, pf));
    };

    // Extended analysis: refinement then covering (the paper performs
    // refinement first so loop-independent covers are recognized). Budget
    // exhaustion means "the test did not succeed" — sound, since both
    // analyses only remove information.
    let t1 = Instant::now();
    let mut budget = fresh_budget(config, cache);
    let r = match refine_dependence(
        info,
        &mut dep,
        self_output.contains(&w),
        config,
        &mut budget,
    ) {
        Ok(r) => r,
        Err(crate::Error::Solver(omega::Error::TooComplex { .. })) => {
            crate::refine::RefineOutcome {
                consulted_omega: true,
                ..Default::default()
            }
        }
        Err(e) => return Err(e),
    };
    let mut budget = fresh_budget(config, cache);
    let c = match check_covering(info, &mut dep, config, &mut budget) {
        Ok(c) => c,
        Err(crate::Error::Solver(omega::Error::TooComplex { .. })) => {
            crate::cover::CoverOutcome {
                consulted_omega: true,
                ..Default::default()
            }
        }
        Err(e) => return Err(e),
    };
    let ext_ns = std_ns + t1.elapsed().as_nanos() as u64;

    let consulted = r.consulted_omega || c.consulted_omega;
    let split = r.split || c.split;
    let stat = PairStat {
        src: w,
        dst: read_label,
        read_idx,
        array: src.write.array.clone(),
        std_ns,
        ext_ns,
        class: if !consulted {
            PairClass::NoTest
        } else if split {
            PairClass::Split
        } else {
            PairClass::General
        },
        dep_found: true,
    };
    Ok((stat, Some((dep, ext_ns)), pf))
}

/// Stage-3 task: the pairwise kill analysis for one read.
///
/// Two passes, mirroring the paper: covering dependences first rule out
/// everything that must precede them (marked `[c]`, no Omega query),
/// then the general pairwise kill tests run on what is left (marked
/// `[k]`).
///
/// The killer list is snapshotted before either pass and each victim
/// only consults its own death flag, so pass 2's victims *could* fan
/// out over the worker pool. Profiling on GAUSS_JORDAN showed that is
/// not worth wiring: ~95% of the read's kill time sits in one victim's
/// killer chain, which is inherently sequential (each test must see
/// that victim's earlier deaths), and the nested spawn under the
/// per-read fan-out regressed 8-thread wall time by ~30%. See
/// EXPERIMENTS.md ("Intra-read kill parallelism").
fn kill_passes(
    info: &ProgramInfo,
    config: &Config,
    cache: &Option<Arc<omega::SolverCache>>,
    outputs: &[Dependence],
    read_label: usize,
    flows_here: &mut Vec<(Dependence, u64)>,
) -> Result<Vec<KillStat>> {
    let dst = info.stmt(read_label);
    let has_output = |src: usize, dst: usize| {
        outputs
            .iter()
            .any(|d| d.src.label == src && d.dst.label == dst)
    };
    let mut kill_stats = Vec::new();
    let killers: Vec<(usize, bool, bool, crate::dir::DirectionVector)> = flows_here
        .iter()
        .map(|(d, _)| {
            let summary = d.summary();
            let all_zero = summary
                .0
                .iter()
                .all(|e| e.lo == Some(0) && e.hi == Some(0));
            (d.src.label, d.covering, all_zero, summary)
        })
        .collect();

    // Pass 1: cover-based elimination (quick, syntactic).
    if config.quick_tests {
        // Index-based: the body mutates `flows_here[v]` while the
        // killer list is read separately.
        #[allow(clippy::needless_range_loop)]
        for v in 0..flows_here.len() {
            for (killer_label, killer_covers, killer_loop_indep) in
                killers.iter().map(|(a, b, c, _)| (*a, *b, *c))
            {
                if flows_here[v].0.dead.is_some()
                    || killer_label == flows_here[v].0.src.label
                {
                    continue;
                }
                let victim_src = info.stmt(flows_here[v].0.src.label);
                let killer_stmt = info.stmt(killer_label);
                let t0 = Instant::now();
                // A loop-independent cover kills every write that
                // must precede it: the victim shares at most the
                // cover's common nest with the killer (m <= c) and
                // is lexically before it, so every victim instance
                // executes before the covering instance that
                // services the read.
                let m = victim_src.common_loops(killer_stmt);
                let c = killer_stmt.common_loops(dst);
                if killer_covers
                    && killer_loop_indep
                    && m <= c
                    && victim_src.lexically_before(killer_stmt)
                {
                    flows_here[v].0.dead = Some(DeadReason::Covered);
                    kill_stats.push(KillStat {
                        victim_src: flows_here[v].0.src.label,
                        killer: killer_label,
                        read: read_label,
                        kill_ns: t0.elapsed().as_nanos() as u64,
                        victim_ext_ns: flows_here[v].1,
                        consulted_omega: false,
                        killed: true,
                    });
                }
            }
        }
    }

    // Pass 2: general pairwise kill tests, sequential over victims
    // (measured: intra-read parallelism does not pay off — see the
    // function docs).
    for (victim, ext_ns) in flows_here.iter_mut().map(|(v, n)| (v, *n)) {
        let victim_summary = victim.summary();
        for (killer_label, killer_summary) in killers.iter().map(|(a, _, _, d)| (*a, d)) {
            if victim.dead.is_some() || killer_label == victim.src.label {
                continue;
            }
            let t0 = Instant::now();

            // §4.5 quick test 1: a kill needs an output dependence
            // from the victim's source to the killer.
            if config.quick_tests && !has_output(victim.src.label, killer_label) {
                kill_stats.push(KillStat {
                    victim_src: victim.src.label,
                    killer: killer_label,
                    read: read_label,
                    kill_ns: t0.elapsed().as_nanos() as u64,
                    victim_ext_ns: ext_ns,
                    consulted_omega: false,
                    killed: false,
                });
                continue;
            }

            // §4.5 quick test 2: "it must be possible for the
            // dependence distance from A to C to equal the total
            // distance from A to B and B to C."
            if config.quick_tests {
                let ab = outputs
                    .iter()
                    .find(|d| {
                        d.src.label == victim.src.label && d.dst.label == killer_label
                    })
                    .map(|d| d.summary());
                if let Some(ab) = ab {
                    if !distance_sum_feasible(&victim_summary, &ab, killer_summary) {
                        kill_stats.push(KillStat {
                            victim_src: victim.src.label,
                            killer: killer_label,
                            read: read_label,
                            kill_ns: t0.elapsed().as_nanos() as u64,
                            victim_ext_ns: ext_ns,
                            consulted_omega: false,
                            killed: false,
                        });
                        continue;
                    }
                }
            }

            let mut budget = fresh_budget(config, cache);
            let out = match check_kill(info, victim, killer_label, config, &mut budget) {
                Ok(o) => o,
                Err(crate::Error::Solver(omega::Error::TooComplex { .. })) => {
                    crate::kill::KillOutcome {
                        consulted_omega: true,
                        killed: false,
                    }
                }
                Err(e) => return Err(e),
            };
            if out.killed {
                victim.dead = Some(DeadReason::Killed);
            }
            kill_stats.push(KillStat {
                victim_src: victim.src.label,
                killer: killer_label,
                read: read_label,
                kill_ns: t0.elapsed().as_nanos() as u64,
                victim_ext_ns: ext_ns,
                consulted_omega: out.consulted_omega,
                killed: out.killed,
            });
        }
    }
    Ok(kill_stats)
}

/// Optional extension: kill analysis on storage dependences. The §4.1
/// formula is kind-agnostic — an output dependence A -> C is dead when
/// an intervening write B always overwrites A's value before C writes
/// again, and an anti dependence (read A -> write C) is dead when B
/// always overwrites the read location first (C's ordering constraint
/// is then carried through B). Runs sequentially: later tests skip
/// dependences already found dead.
fn storage_kill_passes(
    info: &ProgramInfo,
    config: &Config,
    cache: &Option<Arc<omega::SolverCache>>,
    outputs: &mut [Dependence],
    antis: &mut [Dependence],
) -> Result<()> {
    if !config.storage_kills {
        return Ok(());
    }
    let mut budget = fresh_budget(config, cache);
    {
        let out_pairs_anti: BTreeSet<(usize, usize)> = outputs
            .iter()
            .map(|d| (d.src.label, d.dst.label))
            .collect();
        #[allow(clippy::needless_range_loop)]
        for v in 0..antis.len() {
            if antis[v].dead.is_some() {
                continue;
            }
            let dst_label = antis[v].dst.label;
            let killers: Vec<usize> = info
                .stmts
                .iter()
                .map(|s| s.label)
                .filter(|&k| k != antis[v].src.label && k != dst_label)
                .collect();
            for killer in killers {
                // Quick gate: the killer must write the same array as the
                // destination write (checked inside check_kill) and reach
                // it (an output dependence killer -> dst exists).
                if config.quick_tests && !out_pairs_anti.contains(&(killer, dst_label)) {
                    continue;
                }
                let out = check_kill(info, &antis[v], killer, config, &mut budget)?;
                if out.killed {
                    antis[v].dead = Some(DeadReason::Killed);
                    break;
                }
            }
        }
    }
    {
        let out_pairs: BTreeSet<(usize, usize)> = outputs
            .iter()
            .map(|d| (d.src.label, d.dst.label))
            .collect();
        let dst_writes: Vec<usize> = outputs.iter().map(|d| d.dst.label).collect();
        let mut seen = BTreeSet::new();
        for &dst_label in &dst_writes {
            if !seen.insert(dst_label) {
                continue;
            }
            let killers: Vec<usize> = outputs
                .iter()
                .filter(|d| d.dst.label == dst_label)
                .map(|d| d.src.label)
                .collect();
            #[allow(clippy::needless_range_loop)]
            for v in 0..outputs.len() {
                if outputs[v].dst.label != dst_label || outputs[v].dead.is_some() {
                    continue;
                }
                for &killer in &killers {
                    if killer == outputs[v].src.label {
                        continue;
                    }
                    if config.quick_tests
                        && !out_pairs.contains(&(outputs[v].src.label, killer))
                    {
                        continue;
                    }
                    let out = check_kill(info, &outputs[v], killer, config, &mut budget)?;
                    if out.killed {
                        outputs[v].dead = Some(DeadReason::Killed);
                        break;
                    }
                }
            }
        }
    }
    Ok(())
}

/// §4.5 quick test: a kill requires that the victim's distance can equal
/// the sum of the killer-path distances (`dist(A→C) ∈ dist(A→B) +
/// dist(B→C)` per shared level). All three summaries align on the common
/// nest prefix; unbounded ends never refute.
fn distance_sum_feasible(
    victim: &crate::dir::DirectionVector,
    ab: &crate::dir::DirectionVector,
    bc: &crate::dir::DirectionVector,
) -> bool {
    let levels = victim.len().min(ab.len()).min(bc.len());
    for l in 0..levels {
        let sum_lo = match (ab.0[l].lo, bc.0[l].lo) {
            (Some(x), Some(y)) => Some(x + y),
            _ => None,
        };
        let sum_hi = match (ab.0[l].hi, bc.0[l].hi) {
            (Some(x), Some(y)) => Some(x + y),
            _ => None,
        };
        if let (Some(vh), Some(sl)) = (victim.0[l].hi, sum_lo) {
            if vh < sl {
                return false;
            }
        }
        if let (Some(vl), Some(sh)) = (victim.0[l].lo, sum_hi) {
            if sh < vl {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Analysis {
        let program = tiny::Program::parse(src).unwrap();
        let info = tiny::analyze(&program).unwrap();
        analyze_program(&info, &Config::extended()).unwrap()
    }

    #[test]
    fn example1_flow_is_killed() {
        let a = run(tiny::corpus::EXAMPLE_1);
        // Flow from stmt 1 (a(n)) to stmt 3 is dead; flow from stmt 2 live.
        let d1 = a
            .flows
            .iter()
            .find(|d| d.src.label == 1 && d.dst.label == 3)
            .unwrap();
        assert_eq!(d1.dead, Some(DeadReason::Killed));
        let d2 = a
            .flows
            .iter()
            .find(|d| d.src.label == 2 && d.dst.label == 3)
            .unwrap();
        assert!(d2.is_live());
    }

    #[test]
    fn example1_m_variants() {
        let a = run(tiny::corpus::EXAMPLE_1_M);
        let d1 = a
            .flows
            .iter()
            .find(|d| d.src.label == 1 && d.dst.label == 3)
            .unwrap();
        assert!(d1.is_live(), "kill not verifiable without the assertion");

        let b = run(tiny::corpus::EXAMPLE_1_M_ASSERTED);
        let d1 = b
            .flows
            .iter()
            .find(|d| d.src.label == 1 && d.dst.label == 3)
            .unwrap();
        assert!(!d1.is_live(), "assertion restores the kill");
    }

    #[test]
    fn example2_cover_and_kills() {
        let a = run(tiny::corpus::EXAMPLE_2);
        // Read is stmt 5. The write a(L2-1) (stmt 4) covers it.
        let cover = a
            .flows
            .iter()
            .find(|d| d.src.label == 4 && d.dst.label == 5)
            .unwrap();
        assert!(cover.is_live());
        assert!(cover.covering);
        // Flows from stmt 1 (a(m)) and stmt 2 (a(L1)) are dead.
        for src in [1, 2] {
            let d = a
                .flows
                .iter()
                .find(|d| d.src.label == src && d.dst.label == 5)
                .unwrap();
            assert!(!d.is_live(), "stmt {src} flow should be dead");
        }
        // stmt 3 (a(L2)) is killed by stmt 4 as well (general test).
        let d3 = a
            .flows
            .iter()
            .find(|d| d.src.label == 3 && d.dst.label == 5)
            .unwrap();
        assert!(!d3.is_live());
    }

    #[test]
    fn example3_pipeline() {
        let a = run(tiny::corpus::EXAMPLE_3);
        let flows: Vec<_> = a.live_flows().collect();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].summary().to_string(), "(0,1)");
        assert!(flows[0].refined);
    }

    #[test]
    fn stats_are_collected() {
        let a = run(tiny::corpus::EXAMPLE_2);
        assert!(!a.stats.pairs.is_empty());
        assert!(a.stats.pairs.iter().any(|p| p.dep_found));
        assert!(!a.stats.kills.is_empty());
        for p in &a.stats.pairs {
            assert!(p.ext_ns >= p.std_ns);
        }
    }

    #[test]
    fn standard_config_reports_unrefined() {
        let program = tiny::Program::parse(tiny::corpus::EXAMPLE_3).unwrap();
        let info = tiny::analyze(&program).unwrap();
        let a = analyze_program(&info, &Config::standard()).unwrap();
        let flows: Vec<_> = a.live_flows().collect();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].summary().to_string(), "(0+,1)");
        assert!(!flows[0].refined);
    }
}

#[cfg(test)]
mod storage_tests {
    use super::*;

    #[test]
    fn output_dependence_killed_by_intermediate_write() {
        // Three consecutive full overwrites: the output dep 1 -> 3 is
        // transitively covered by write 2.
        let src = "
            sym n;
            for i := 1 to n do a(i) := 0; endfor
            for i := 1 to n do a(i) := 1; endfor
            for i := 1 to n do a(i) := 2; endfor
        ";
        let program = tiny::Program::parse(src).unwrap();
        let info = tiny::analyze(&program).unwrap();
        let cfg = Config {
            storage_kills: true,
            ..Config::extended()
        };
        let a = analyze_program(&info, &cfg).unwrap();
        let d13 = a
            .outputs
            .iter()
            .find(|d| d.src.label == 1 && d.dst.label == 3)
            .unwrap();
        assert_eq!(d13.dead, Some(DeadReason::Killed));
        // Adjacent output deps stay live.
        for (s, t) in [(1, 2), (2, 3)] {
            let d = a
                .outputs
                .iter()
                .find(|d| d.src.label == s && d.dst.label == t)
                .unwrap();
            assert!(d.is_live(), "{s} -> {t}");
        }
        // Default config leaves all output deps live (paper behavior).
        let b = analyze_program(&info, &Config::extended()).unwrap();
        assert!(b.outputs.iter().all(|d| d.is_live()));
    }

    #[test]
    fn partial_intermediate_write_does_not_kill_output_dep() {
        let src = "
            sym n;
            for i := 1 to 2*n do a(i) := 0; endfor
            for i := 1 to n do a(2*i) := 1; endfor
            for i := 1 to 2*n do a(i) := 2; endfor
        ";
        let program = tiny::Program::parse(src).unwrap();
        let info = tiny::analyze(&program).unwrap();
        let cfg = Config {
            storage_kills: true,
            ..Config::extended()
        };
        let a = analyze_program(&info, &cfg).unwrap();
        let d13 = a
            .outputs
            .iter()
            .find(|d| d.src.label == 1 && d.dst.label == 3)
            .unwrap();
        assert!(
            d13.is_live(),
            "write 2 overwrites only even elements, so odd elements still \
             carry the output dependence from write 1 to write 3"
        );
    }
}

#[cfg(test)]
mod anti_kill_tests {
    use super::*;

    #[test]
    fn anti_dependence_killed_by_intermediate_overwrite() {
        // read a(i) (stmt 1); full overwrite (stmt 2); overwrite again
        // (stmt 3). The anti dependence 1 -> 3 is transitively enforced
        // through stmt 2: dead under storage-kill analysis.
        let src = "
            sym n;
            for i := 1 to n do x := a(i); endfor
            for i := 1 to n do a(i) := 1; endfor
            for i := 1 to n do a(i) := 2; endfor
        ";
        let program = tiny::Program::parse(src).unwrap();
        let info = tiny::analyze(&program).unwrap();
        let cfg = Config {
            storage_kills: true,
            ..Config::extended()
        };
        let a = analyze_program(&info, &cfg).unwrap();
        let d13 = a
            .antis
            .iter()
            .find(|d| d.src.label == 1 && d.dst.label == 3)
            .unwrap();
        assert_eq!(d13.dead, Some(DeadReason::Killed));
        let d12 = a
            .antis
            .iter()
            .find(|d| d.src.label == 1 && d.dst.label == 2)
            .unwrap();
        assert!(d12.is_live());
        // Default config: untouched, matching the paper's implementation.
        let b = analyze_program(&info, &Config::extended()).unwrap();
        assert!(b.antis.iter().all(|d| d.is_live()));
    }
}

#[cfg(test)]
mod dataflow_tests {
    use super::*;

    #[test]
    fn value_sources_shrink_under_extended_analysis() {
        // Three writes could reach the read syntactically; only the last
        // one actually provides values.
        let src = "
            sym n;
            for i := 1 to n do a(i) := 0; endfor
            for i := 1 to n do a(i) := 1; endfor
            for i := 1 to n do a(i) := 2; endfor
            for i := 1 to n do x := a(i); endfor
        ";
        let program = tiny::Program::parse(src).unwrap();
        let info = tiny::analyze(&program).unwrap();
        let std = analyze_program(&info, &Config::standard()).unwrap();
        assert_eq!(std.value_sources(4, 0), vec![1, 2, 3]);
        let ext = analyze_program(&info, &Config::extended()).unwrap();
        assert_eq!(
            ext.value_sources(4, 0),
            vec![3],
            "the producer is known exactly after kill analysis"
        );
    }

    #[test]
    fn value_sources_empty_for_live_in_reads() {
        let src = "sym n; for i := 1 to n do x := a(i); endfor";
        let program = tiny::Program::parse(src).unwrap();
        let info = tiny::analyze(&program).unwrap();
        let a = analyze_program(&info, &Config::extended()).unwrap();
        assert!(a.value_sources(1, 0).is_empty(), "a is live-in");
    }
}
