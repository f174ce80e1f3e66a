//! Whole-program dependence analysis: the driver described at the start of
//! §4 — all output dependences first, then per-read flow analysis with
//! refinement, covering and pairwise killing — plus the per-pair timing
//! and classification statistics behind Figures 6 and 7.
//!
//! The driver is organized as a sequence of *stages* whose tasks are
//! mutually independent (write pairs, (write, read) pairs, per-read kill
//! passes); each stage fans out as one batch on a [`Pool`] and merges
//! its results in task order, so the analysis output is byte-identical
//! at every thread count. Each unordered access pair is one task that
//! builds both of its dependences — the two output directions of a
//! write pair, the flow and the anti dependence of a (write, read) pair
//! — with one pre-filter run and one base satisfiability test. All
//! Omega queries share the caller's canonical-form memo cache
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
use tiny::ProgramInfo;

use crate::config::Config;
use crate::cover::check_covering;
use crate::dep::{AccessSite, DeadReason, DepKind, Dependence};
use crate::error::Result;
use crate::kill::check_kill;
use crate::pairs::build_directed;
use crate::parallel::Pool;
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
    /// Memo-cache counters, cumulative across every analysis that shared
    /// the cache (all zero for an uncached run).
    pub cache: omega::CacheStats,
    /// §4.5 pre-filter counters (all zero when [`Config::quick_tests`]
    /// is off).
    pub prefilter: PrefilterStats,
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
            .filter(|d| d.dst.label == read_label && d.dst.site == AccessSite::Read(read_idx))
            .map(|d| d.src.label)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Runs the full analysis of §4 over a program, on a [`Pool`] of
/// [`Config::threads`] built for this call, with a fresh in-memory memo
/// cache: [`analyze_corpus`] over a one-program slice.
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
    let mut analyses = analyze_corpus(std::slice::from_ref(info), config)?;
    Ok(analyses.pop().expect("one program, one analysis"))
}

/// [`analyze_corpus_with_cache`] with a fresh in-memory memo cache
/// shared by every program.
///
/// # Errors
///
/// Propagates the first (lowest program index) solver error.
pub fn analyze_corpus(infos: &[ProgramInfo], config: &Config) -> Result<Vec<Analysis>> {
    analyze_corpus_with_cache(infos, config, Some(Arc::new(omega::SolverCache::new())))
}

/// [`analyze_corpus_on`] on a [`Pool`] of [`Config::threads`] built for
/// this call.
///
/// # Errors
///
/// Propagates the first (lowest program index) solver error.
pub fn analyze_corpus_with_cache(
    infos: &[ProgramInfo],
    config: &Config,
    cache: Option<Arc<omega::SolverCache>>,
) -> Result<Vec<Analysis>> {
    analyze_corpus_on(&Pool::new(config.threads), infos, config, cache)
}

/// Analyzes a whole corpus of programs on a caller-owned two-level
/// [`Pool`] with a caller-owned memo cache — the entry point every other
/// one wraps.
///
/// Programs are the outer work items; each program's analysis stages
/// submit their pair batches to the *same* pool, so workers that finish
/// their program steal pair chunks from programs still in flight — a
/// lone heavy program (or a corpus smaller than the thread count) still
/// fills every core. A one-program slice runs inline on the calling
/// thread, so a caller already on the pool (the `tinydep --serve`
/// daemon) queues no extra batch. [`Config::threads`] is ignored: the
/// pool's size decides the parallelism. Every program's report is
/// byte-identical at any thread count.
///
/// With `Some(cache)` every program shares it, and the caller owns its
/// lifetime and whether it is persisted to a file (see
/// [`omega::SolverCache`]); a long-lived caller passes the same cache for
/// every call, so canonical solves stay warm. With `None` this is a
/// plain uncached run. Each returned [`Stats::cache`] holds the
/// cache's cumulative counters.
///
/// # Errors
///
/// Propagates the first (lowest program index) solver error.
pub fn analyze_corpus_on(
    pool: &Pool,
    infos: &[ProgramInfo],
    config: &Config,
    cache: Option<Arc<omega::SolverCache>>,
) -> Result<Vec<Analysis>> {
    let mut analyses = pool.map(infos.iter().collect(), |_, info| {
        analyze_with(info, config, &cache, pool)
    })?;
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

/// The driver body behind every entry point: each stage fans out as one
/// batch on `pool`.
fn analyze_with(
    info: &ProgramInfo,
    config: &Config,
    cache: &Option<Arc<omega::SolverCache>>,
    pool: &Pool,
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
    let write_arrays: Vec<u32> = info.stmts.iter().map(|s| s.write_form.array).collect();

    // 1. All output dependences (they feed the quick tests): one task per
    // unordered same-array write pair, building both directions, merged
    // in (source, destination) statement order.
    let out_tasks: Vec<(usize, usize)> = (0..writes.len())
        .flat_map(|p1| (p1..writes.len()).map(move |p2| (p1, p2)))
        .filter(|&(p1, p2)| write_arrays[p1] == write_arrays[p2])
        .collect();
    let out_results = pool.map(out_tasks, |_, (p1, p2)| {
        let deps = output_pair(info, config, cache, writes[p1], writes[p2])?;
        Ok(((p1, p2), deps))
    })?;
    let mut keyed = Vec::new();
    for ((p1, p2), ([fwd, bwd], pf)) in out_results {
        stats.prefilter.absorb(pf);
        keyed.extend(fwd.map(|d| ((p1, p2), d)));
        keyed.extend(bwd.map(|d| ((p2, p1), d)));
    }
    keyed.sort_unstable_by_key(|&(key, _)| key);
    let mut outputs: Vec<Dependence> = keyed.into_iter().map(|(_, d)| d).collect();
    let self_output: BTreeSet<usize> = writes
        .iter()
        .copied()
        .filter(|&w| outputs.iter().any(|d| d.src.label == w && d.dst.label == w))
        .collect();

    // 2. Per-pair flow analysis (construction + refinement + covering)
    // and the anti dependence of the same two accesses: one task per
    // same-array (write, read) pair, in read-major order — exactly the
    // iteration order of the sequential loop.
    let flow_tasks: Vec<(usize, usize)> = reads
        .iter()
        .enumerate()
        .flat_map(|(read_pos, &(read_label, read_idx))| {
            let read_array = info.stmt(read_label).read_forms[read_idx].array;
            writes
                .iter()
                .zip(&write_arrays)
                .filter(move |&(_, array)| *array == read_array)
                .map(move |(&w, _)| (read_pos, w))
        })
        .collect();
    let flow_results = pool.map(flow_tasks, |_, (read_pos, w)| {
        let (read_label, read_idx) = reads[read_pos];
        let pair = access_pair(info, config, cache, &self_output, read_label, read_idx, w)?;
        Ok((read_pos, pair))
    })?;
    let mut flows_by_read: Vec<Vec<(Dependence, u64)>> =
        (0..reads.len()).map(|_| Vec::new()).collect();
    let mut antis = Vec::new();
    for (read_pos, pair) in flow_results {
        stats.prefilter.absorb(pair.prefilter);
        stats.pairs.push(pair.stat);
        flows_by_read[read_pos].extend(pair.flow);
        antis.extend(pair.anti);
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
    let kill_results = pool.map(kill_tasks, |_, (read_label, mut flows_here)| {
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

    storage_kill_passes(info, config, cache, &mut outputs, &mut antis)?;

    Ok(Analysis {
        flows,
        antis,
        outputs,
        stats,
    })
}

/// A per-query budget, sharing the caller's memo cache when there is
/// one.
fn fresh_budget(config: &Config, cache: &Option<Arc<omega::SolverCache>>) -> Budget {
    let b = Budget::new(config.budget);
    match cache {
        Some(c) => b.with_cache(c.clone()),
        None => b,
    }
}

/// Runs one §4 test on its own fresh budget, so one pathological test
/// cannot starve the rest of the analysis. `None` means the solver gave
/// up (budget exhausted or integer overflow): the caller reads that as
/// "the test did not succeed", which is sound because every §4 test only
/// removes information.
fn attempt<T>(
    config: &Config,
    cache: &Option<Arc<omega::SolverCache>>,
    test: impl FnOnce(&mut Budget) -> Result<T>,
) -> Result<Option<T>> {
    match test(&mut fresh_budget(config, cache)) {
        Ok(out) => Ok(Some(out)),
        Err(crate::Error::Solver(omega::Error::TooComplex { .. } | omega::Error::Overflow)) => {
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// Stage-1 task: the output dependences of one unordered same-array
/// write pair `(w1, w2)`, as `[w1 → w2, w2 → w1]` (the second is `None`
/// for a self pair). The §4.5 pre-filter runs once for both directions —
/// a rejected pair has no common element, whichever access is the
/// source — and the second direction reuses the first's base verdict.
fn output_pair(
    info: &ProgramInfo,
    config: &Config,
    cache: &Option<Arc<omega::SolverCache>>,
    w1: usize,
    w2: usize,
) -> Result<([Option<Dependence>; 2], PrefilterStats)> {
    let a = info.stmt(w1);
    let b = info.stmt(w2);
    let mut pf = PrefilterStats::default();
    if config.quick_tests {
        let skip = prefilter_pair(
            a,
            AccessSite::Write,
            b,
            AccessSite::Write,
            &info.assumptions,
        );
        pf.record(skip);
        if skip.is_some() {
            // Conservative by construction: the subscript equations have
            // no integer solution, so build_dependence would have
            // returned None (property-tested in tests/).
            return Ok(([None, None], pf));
        }
    }
    let build = |src, dst, base_feasible| {
        build_directed(
            info,
            DepKind::Output,
            src,
            AccessSite::Write,
            dst,
            AccessSite::Write,
            base_feasible,
            &mut fresh_budget(config, cache),
        )
    };
    let (fwd, base_feasible) = build(a, b, false)?;
    let bwd = if w1 != w2 && base_feasible {
        build(b, a, true)?.0
    } else {
        None
    };
    Ok(([fwd, bwd], pf))
}

/// What the stage-2 task found for one (write, read) access pair.
struct AccessPair {
    /// The flow's Figure 6/7 record: its construction and extended
    /// analysis only, not the anti dependence built after it.
    stat: PairStat,
    /// The flow dependence and its extended-analysis time.
    flow: Option<(Dependence, u64)>,
    /// The anti dependence read → write (reported unchanged, as in the
    /// paper).
    anti: Option<Dependence>,
    prefilter: PrefilterStats,
}

/// Stage-2 task: for one same-array (write, read) pair, dependence
/// construction plus the extended analysis (refinement then covering) of
/// the flow, then the anti dependence of the same two accesses. The
/// §4.5 pre-filter runs once for both, and the anti reuses the flow's
/// base verdict.
fn access_pair(
    info: &ProgramInfo,
    config: &Config,
    cache: &Option<Arc<omega::SolverCache>>,
    self_output: &BTreeSet<usize>,
    read_label: usize,
    read_idx: usize,
    w: usize,
) -> Result<AccessPair> {
    let dst = info.stmt(read_label);
    let src = info.stmt(w);
    let mut prefilter = PrefilterStats::default();
    let mut stat = PairStat {
        src: w,
        dst: read_label,
        read_idx,
        array: src.write.array.clone(),
        std_ns: 0,
        ext_ns: 0,
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
        prefilter.record(skip);
        if skip.is_some() {
            stat.std_ns = t0.elapsed().as_nanos() as u64;
            stat.ext_ns = stat.std_ns;
            return Ok(AccessPair {
                stat,
                flow: None,
                anti: None,
                prefilter,
            });
        }
    }
    let (dep, base_feasible) = build_directed(
        info,
        DepKind::Flow,
        src,
        AccessSite::Write,
        dst,
        AccessSite::Read(read_idx),
        false,
        &mut fresh_budget(config, cache),
    )?;
    stat.std_ns = t0.elapsed().as_nanos() as u64;
    stat.ext_ns = stat.std_ns;
    let flow = match dep {
        None => None,
        Some(mut dep) => {
            let t1 = Instant::now();
            stat.class = extend_flow(info, config, cache, self_output.contains(&w), &mut dep)?;
            stat.ext_ns += t1.elapsed().as_nanos() as u64;
            stat.dep_found = true;
            Some((dep, stat.ext_ns))
        }
    };
    let anti = if base_feasible {
        build_directed(
            info,
            DepKind::Anti,
            dst,
            AccessSite::Read(read_idx),
            src,
            AccessSite::Write,
            true,
            &mut fresh_budget(config, cache),
        )?
        .0
    } else {
        None
    };
    Ok(AccessPair {
        stat,
        flow,
        anti,
        prefilter,
    })
}

/// The extended analysis of one flow dependence — refinement then
/// covering (the paper performs refinement first so loop-independent
/// covers are recognized) — and its Figure 6 class. A test that exhausts
/// its budget consulted the Omega test but succeeded at nothing.
fn extend_flow(
    info: &ProgramInfo,
    config: &Config,
    cache: &Option<Arc<omega::SolverCache>>,
    src_has_self_output: bool,
    dep: &mut Dependence,
) -> Result<PairClass> {
    let r = attempt(config, cache, |budget| {
        refine_dependence(info, dep, src_has_self_output, config, budget)
    })?
    .unwrap_or(crate::refine::RefineOutcome {
        consulted_omega: true,
        ..Default::default()
    });
    let c = attempt(config, cache, |budget| {
        check_covering(info, dep, config, budget)
    })?
    .unwrap_or(crate::cover::CoverOutcome {
        consulted_omega: true,
        ..Default::default()
    });
    Ok(if !(r.consulted_omega || c.consulted_omega) {
        PairClass::NoTest
    } else if r.split || c.split {
        PairClass::Split
    } else {
        PairClass::General
    })
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
            let all_zero = summary.0.iter().all(|e| e.lo == Some(0) && e.hi == Some(0));
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
                if flows_here[v].0.dead.is_some() || killer_label == flows_here[v].0.src.label {
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
                    .find(|d| d.src.label == victim.src.label && d.dst.label == killer_label)
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

            let out = attempt(config, cache, |budget| {
                check_kill(info, victim, killer_label, config, budget)
            })?
            .unwrap_or(crate::kill::KillOutcome {
                consulted_omega: true,
                killed: false,
            });
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
/// dependences already found dead. Each test has its own budget, and one
/// that exhausts it leaves its victim live.
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
    let killed_by = |victim: &Dependence, killer: usize| -> Result<bool> {
        Ok(attempt(config, cache, |budget| {
            check_kill(info, victim, killer, config, budget)
        })?
        .is_some_and(|out| out.killed))
    };
    {
        let out_pairs_anti: BTreeSet<(usize, usize)> =
            outputs.iter().map(|d| (d.src.label, d.dst.label)).collect();
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
                if killed_by(&antis[v], killer)? {
                    antis[v].dead = Some(DeadReason::Killed);
                    break;
                }
            }
        }
    }
    {
        let out_pairs: BTreeSet<(usize, usize)> =
            outputs.iter().map(|d| (d.src.label, d.dst.label)).collect();
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
                    if config.quick_tests && !out_pairs.contains(&(outputs[v].src.label, killer)) {
                        continue;
                    }
                    if killed_by(&outputs[v], killer)? {
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

    #[test]
    fn a_storage_kill_past_its_budget_leaves_the_victim_live() {
        // Each storage kill test gets its own budget, and one that gives
        // up kills nothing: the program still analyzes, and its flows
        // are those of the run without storage kills.
        let program = tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap();
        let info = tiny::analyze(&program).unwrap();
        let tables = |storage_kills| {
            let config = Config {
                storage_kills,
                budget: 1_000,
                ..Config::extended()
            };
            let analysis = analyze_program(&info, &config).unwrap();
            let graph = crate::DepGraph::new(&info, &analysis);
            let opts = crate::ReportOptions::default();
            (
                crate::live_flow_table(&graph, &opts),
                crate::dead_flow_table(&graph, &opts),
            )
        };
        assert_eq!(tables(true), tables(false));
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
