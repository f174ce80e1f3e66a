#![warn(missing_docs)]
//! Shared harness utilities for regenerating the paper's tables and
//! figures over the benchmark corpus.

use depend::{analyze_program, Analysis, Config, PairClass};
use tiny::corpus;

/// The analysis results for one corpus program.
#[derive(Debug)]
pub struct CorpusRun {
    /// Program name.
    pub name: &'static str,
    /// The analyzed program.
    pub info: tiny::ProgramInfo,
    /// Extended-analysis results (statistics included).
    pub analysis: Analysis,
}

/// Runs the extended analysis over the full corpus.
///
/// # Panics
///
/// Panics if a corpus program fails to parse or analyze — the corpus is
/// fixed and covered by tests.
pub fn run_corpus(config: &Config) -> Vec<CorpusRun> {
    corpus::all()
        .into_iter()
        .map(|entry| {
            let program = tiny::Program::parse(entry.source)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            let info = tiny::analyze(&program).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            let analysis =
                analyze_program(&info, config).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            CorpusRun {
                name: entry.name,
                info,
                analysis,
            }
        })
        .collect()
}

/// Aggregated Figure 6 numbers across the corpus.
#[derive(Debug, Default, Clone)]
pub struct Fig6Summary {
    /// Pairs where the extended capabilities were not needed (the paper's
    /// 264 plain dots).
    pub no_test: usize,
    /// Pairs with a general covering/refinement test on one vector (the
    /// paper's 81 `*`s).
    pub general: usize,
    /// Pairs split into several vectors (the paper's 72 `◇`s).
    pub split: usize,
    /// Kill tests resolved by quick tests (the paper's 284 fast points).
    pub quick_kills: usize,
    /// Kill tests that consulted the Omega test (the paper's 54 slow
    /// points).
    pub omega_kills: usize,
    /// (std_ns, ext_ns, class) per pair.
    pub pairs: Vec<(u64, u64, PairClass)>,
    /// (kill_ns, victim_ext_ns, consulted) per kill test.
    pub kills: Vec<(u64, u64, bool)>,
}

/// Collects Figure 6 statistics from corpus runs.
pub fn fig6_summary(runs: &[CorpusRun]) -> Fig6Summary {
    let mut s = Fig6Summary::default();
    for r in runs {
        for p in &r.analysis.stats.pairs {
            match p.class {
                PairClass::NoTest => s.no_test += 1,
                PairClass::General => s.general += 1,
                PairClass::Split => s.split += 1,
            }
            s.pairs.push((p.std_ns, p.ext_ns, p.class));
        }
        for k in &r.analysis.stats.kills {
            if k.consulted_omega {
                s.omega_kills += 1;
            } else {
                s.quick_kills += 1;
            }
            s.kills
                .push((k.kill_ns, k.victim_ext_ns, k.consulted_omega));
        }
    }
    s
}

/// Aggregated solver-cache and §4.5 pre-filter counters across runs.
pub fn counter_summary(runs: &[CorpusRun]) -> (omega::CacheStats, depend::PrefilterStats) {
    let mut cache = omega::CacheStats::default();
    let mut prefilter = depend::PrefilterStats::default();
    for r in runs {
        cache.hits += r.analysis.stats.cache.hits;
        cache.misses += r.analysis.stats.cache.misses;
        cache.inserts += r.analysis.stats.cache.inserts;
        cache.full_canons += r.analysis.stats.cache.full_canons;
        cache.delta_canons += r.analysis.stats.cache.delta_canons;
        prefilter.gcd += r.analysis.stats.prefilter.gcd;
        prefilter.range += r.analysis.stats.prefilter.range;
        prefilter.symbolic_range += r.analysis.stats.prefilter.symbolic_range;
        prefilter.passed += r.analysis.stats.prefilter.passed;
    }
    (cache, prefilter)
}

/// The counter summary as a one-line report for the figure drivers.
pub fn counters_line(runs: &[CorpusRun]) -> String {
    let (cache, prefilter) = counter_summary(runs);
    format!(
        "memo cache: {} hits / {} lookups ({:.0}% hit rate, {} inserts) | \
         canon: {} full, {} delta | \
         prefilter: {} skipped of {} pairs (gcd {}, range {}, symbolic {})",
        cache.hits,
        cache.lookups(),
        cache.hit_rate() * 100.0,
        cache.inserts,
        cache.full_canons,
        cache.delta_canons,
        prefilter.skipped(),
        prefilter.tested(),
        prefilter.gcd,
        prefilter.range,
        prefilter.symbolic_range
    )
}

/// One row of the baseline-vs-Omega accuracy table: what the GCD and
/// Banerjee bounds tests conclude about one access pair versus what the
/// Omega test proves.
#[derive(Debug)]
pub struct BaselineRow {
    /// Corpus program name.
    pub program: &'static str,
    /// Dependence kind tested.
    pub kind: depend::DepKind,
    /// Rendered source access, e.g. `1: a(2*i)`.
    pub src: String,
    /// Rendered destination access.
    pub dst: String,
    /// Combined GCD + Banerjee verdict (`Independent` when either test
    /// disproves the dependence).
    pub baseline: depend::baseline::Verdict,
    /// Whether the Omega test found the dependence real.
    pub omega_dependent: bool,
}

impl BaselineRow {
    /// A baseline "maybe" that the Omega test proves away — the false
    /// dependences the paper's exact test eliminates.
    pub fn eliminated_by_omega(&self) -> bool {
        self.baseline == depend::baseline::Verdict::Maybe && !self.omega_dependent
    }
}

/// Runs the GCD/Banerjee baselines and the Omega test over every
/// same-array access pair of the named corpus programs (flow, anti and
/// output kinds), one row per pair.
///
/// # Panics
///
/// Panics when a named program is missing from the corpus or fails the
/// front end — the table drives fixed book examples covered by tests.
pub fn baseline_vs_omega(names: &[&'static str]) -> Vec<BaselineRow> {
    use depend::dep::AccessSite;
    use depend::{baseline, build_dependence, DepKind};

    let mut rows = Vec::new();
    for &name in names {
        let entry = corpus::by_name(name).unwrap_or_else(|| panic!("{name} not in corpus"));
        let program = tiny::Program::parse(entry.source).unwrap();
        let info = tiny::analyze(&program).unwrap();
        let mut budget = omega::Budget::default();
        let sites = |s: &tiny::StmtInfo| {
            let mut v = Vec::new();
            if !s.write.subs.is_empty() {
                v.push(AccessSite::Write);
            }
            for (i, r) in s.reads.iter().enumerate() {
                if !r.subs.is_empty() {
                    v.push(AccessSite::Read(i));
                }
            }
            v
        };
        fn access(s: &tiny::StmtInfo, site: AccessSite) -> &tiny::Access {
            match site {
                AccessSite::Write => &s.write,
                AccessSite::Read(i) => &s.reads[i],
            }
        }
        for src in &info.stmts {
            for dst in &info.stmts {
                for &ss in &sites(src) {
                    for &ds in &sites(dst) {
                        let (sa, da) = (access(src, ss), access(dst, ds));
                        if tiny::ast::name_key(&sa.array) != tiny::ast::name_key(&da.array) {
                            continue;
                        }
                        let kind = match (ss, ds) {
                            (AccessSite::Write, AccessSite::Write) => DepKind::Output,
                            (AccessSite::Write, AccessSite::Read(_)) => DepKind::Flow,
                            (AccessSite::Read(_), AccessSite::Write) => DepKind::Anti,
                            // Read-read pairs carry no dependence.
                            (AccessSite::Read(_), AccessSite::Read(_)) => continue,
                        };
                        // Output pairs are symmetric: keep source order.
                        if kind == DepKind::Output && src.label > dst.label {
                            continue;
                        }
                        let baseline = baseline::baseline_pair_test(src, ss, dst, ds);
                        let omega_dependent =
                            build_dependence(&info, kind, src, ss, dst, ds, &mut budget)
                                .unwrap()
                                .is_some();
                        rows.push(BaselineRow {
                            program: entry.name,
                            kind,
                            src: format!("{}: {}", src.label, sa),
                            dst: format!("{}: {}", dst.label, da),
                            baseline,
                            omega_dependent,
                        });
                    }
                }
            }
        }
    }
    rows
}

/// The names of the Banerjee book examples carried in the corpus.
pub const BANERJEE_EXAMPLES: [&str; 4] = [
    "banerjee_5_7",
    "banerjee_5_10",
    "banerjee_5_11",
    "banerjee_5_12",
];

/// A crude textual scatter plot: `width`×`height` grid over log-log axes.
pub fn ascii_scatter(
    points: &[(f64, f64, char)],
    width: usize,
    height: usize,
    x_label: &str,
    y_label: &str,
) -> String {
    let xs: Vec<f64> = points.iter().map(|p| p.0.max(1.0).log10()).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1.max(1.0).log10()).collect();
    let (xmin, xmax) = bounds(&xs);
    let (ymin, ymax) = bounds(&ys);
    let mut grid = vec![vec![' '; width]; height];
    for ((x, y), p) in xs.iter().zip(&ys).zip(points) {
        let cx = scale(*x, xmin, xmax, width);
        let cy = scale(*y, ymin, ymax, height);
        let cell = &mut grid[height - 1 - cy][cx];
        if *cell == ' ' || p.2 != '.' {
            *cell = p.2;
        }
    }
    let mut out = format!("  {y_label} (log) ^\n");
    for row in grid {
        out.push_str("  |");
        out.extend(row);
        out.push('\n');
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(width));
    out.push_str(&format!("> {x_label} (log)\n"));
    out
}

fn bounds(v: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in v {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if !lo.is_finite() || !hi.is_finite() || lo == hi {
        (0.0, 1.0)
    } else {
        (lo, hi)
    }
}

fn scale(x: f64, lo: f64, hi: f64, n: usize) -> usize {
    (((x - lo) / (hi - lo)) * (n as f64 - 1.0)).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_runs_clean() {
        let runs = run_corpus(&Config::extended());
        assert!(runs.len() >= 25);
        let s = fig6_summary(&runs);
        let total = s.no_test + s.general + s.split;
        assert!(
            total >= 100,
            "expected a substantial pair count, got {total}"
        );
        assert!(s.quick_kills + s.omega_kills > 0);
    }

    #[test]
    fn banerjee_examples_show_omega_subsumes_baselines() {
        use depend::baseline::Verdict;
        use depend::DepKind;
        let rows = baseline_vs_omega(&BANERJEE_EXAMPLES);
        let find = |program: &str, kind: DepKind, src: &str| {
            rows.iter()
                .find(|r| r.program == program && r.kind == kind && r.src.contains(src))
                .unwrap_or_else(|| panic!("no row for {program}/{kind}/{src}"))
        };
        // 5.7: the GCD test already disproves the stride-2 flow pair, and
        // the Omega test agrees (subsumption, not divergence).
        let r = find("banerjee_5_7", DepKind::Flow, "a(2*i)");
        assert_eq!(r.baseline, Verdict::Independent);
        assert!(!r.omega_dependent);
        // 5.10: Banerjee's bounds disprove the disjoint ranges; Omega agrees.
        let r = find("banerjee_5_10", DepKind::Flow, "a(i+60)");
        assert_eq!(r.baseline, Verdict::Independent);
        assert!(!r.omega_dependent);
        // 5.11: coupled subscripts — only the exact simultaneous test wins.
        let r = find("banerjee_5_11", DepKind::Flow, "a(i,i)");
        assert!(r.eliminated_by_omega());
        // 5.12: symbolic disjoint regions — only Omega proves independence —
        // while the genuine stride-2 recurrence is kept by every test.
        let r = find("banerjee_5_12", DepKind::Flow, "a(i+n)");
        assert!(r.eliminated_by_omega());
        let r = find("banerjee_5_12", DepKind::Flow, "d(2*i)");
        assert_eq!(r.baseline, Verdict::Maybe);
        assert!(r.omega_dependent);
        // The headline number: a nontrivial set of baseline false
        // dependences vanishes under the exact test.
        let eliminated = rows.iter().filter(|r| r.eliminated_by_omega()).count();
        assert!(
            eliminated >= 10,
            "only {eliminated} false dependences eliminated"
        );
    }

    #[test]
    fn scatter_renders() {
        let pts = vec![(10.0, 20.0, '*'), (100.0, 400.0, '.'), (1000.0, 50.0, 'o')];
        let s = ascii_scatter(&pts, 20, 8, "x", "y");
        assert!(s.contains('*') && s.contains('o'));
    }
}
