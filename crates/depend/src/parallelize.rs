//! The parallelization decision engine behind `tinydep --parallelize`.
//!
//! For every loop of a program this module computes two verdicts from
//! one [`DepGraph`]: the *post-kill* verdict (extended analysis, dead
//! dependences discounted) and the *pre-kill* verdict (every dependence
//! taken at face value, as standard analysis would). A loop is
//! **parallelizable** when it carries no dependence at all, or when
//! every carried dependence is a storage (anti/output) dependence on an
//! array that can be privatized — i.e. no loop-carried flow on that
//! array. A loop that is parallelizable post-kill but not pre-kill is
//! **newly parallelizable**: the headline payoff of the paper's kill
//! analysis, since the false flow dependence that blocked privatization
//! is exactly what §4.3 eliminates.
//!
//! [`render_parallelize_report`] turns the decisions into the report the
//! CLI, corpus batch mode and server `parallelize` op all print: the
//! program source annotated with `!$` verdict comments per loop, a DOT
//! graph of the surviving dependences, and a one-line summary.

use std::fmt;

use tiny::pretty::{render_annotated, Annotations};
use tiny::Program;

use crate::dot::{to_dot, DotOptions};
use crate::graph::{DepGraph, KillView, LoopVerdict};
use crate::transform::{program_loops, LoopRef};

/// How many blocking dependences a `sequential:` annotation lists before
/// collapsing the tail into `+N more`.
const MAX_BLOCKERS_SHOWN: usize = 4;

/// The decision for one loop: its verdict with and without kill
/// analysis.
#[derive(Debug, Clone)]
pub struct LoopDecision {
    /// The loop.
    pub l: LoopRef,
    /// Verdict with kill/cover analysis applied (live edges only).
    pub post: LoopVerdict,
    /// Verdict as standard analysis would give it (every edge live).
    pub pre: LoopVerdict,
}

impl LoopDecision {
    /// Parallelizable only thanks to kill analysis.
    pub fn newly_parallelizable(&self) -> bool {
        self.post.parallelizable() && !self.pre.parallelizable()
    }
}

/// Decides every loop of the graph's program, in [`program_loops`]
/// order (source order, outer before inner).
pub fn decide_loops<'a>(graph: &DepGraph<'a>) -> Vec<LoopDecision> {
    program_loops(graph.info())
        .into_iter()
        .map(|l| {
            let post = graph.loop_verdict(&l, KillView::PostKill);
            let pre = graph.loop_verdict(&l, KillView::PreKill);
            LoopDecision { l, post, pre }
        })
        .collect()
}

/// Aggregate counts over one program's loop decisions — also the unit
/// the corpus-level table sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelizeSummary {
    /// Total loops examined.
    pub loops: usize,
    /// Loops parallelizable with kill analysis (outright or after
    /// privatization).
    pub parallel: usize,
    /// Of those, loops parallel as written (no carried dependence).
    pub outright: usize,
    /// Loops parallelizable even without kill analysis.
    pub pre_parallel: usize,
    /// Loops parallelizable *only* with kill analysis — the delta the
    /// paper is about.
    pub newly: usize,
}

impl ParallelizeSummary {
    /// Tallies a slice of decisions.
    pub fn of(decisions: &[LoopDecision]) -> ParallelizeSummary {
        let mut s = ParallelizeSummary::default();
        for d in decisions {
            s.loops += 1;
            if d.post.parallelizable() {
                s.parallel += 1;
            }
            if d.post.outright_parallel() {
                s.outright += 1;
            }
            if d.pre.parallelizable() {
                s.pre_parallel += 1;
            }
            if d.newly_parallelizable() {
                s.newly += 1;
            }
        }
        s
    }

    /// Adds another summary's counts (for corpus totals).
    pub fn add(&mut self, other: &ParallelizeSummary) {
        self.loops += other.loops;
        self.parallel += other.parallel;
        self.outright += other.outright;
        self.pre_parallel += other.pre_parallel;
        self.newly += other.newly;
    }
}

impl fmt::Display for ParallelizeSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "loops={} parallelizable={} (outright={}, privatized={}) \
             without-kills={} newly-parallelizable={}",
            self.loops,
            self.parallel,
            self.outright,
            self.parallel - self.outright,
            self.pre_parallel,
            self.newly
        )
    }
}

/// The annotation line for one decision (without the `!$ ` marker).
fn verdict_line(graph: &DepGraph<'_>, d: &LoopDecision) -> String {
    if d.post.parallelizable() {
        let mut line = String::from("PARALLELIZABLE");
        let arrays = d.post.privatize.as_ref().expect("parallelizable");
        if !arrays.is_empty() {
            let names: Vec<String> = arrays.iter().map(|a| a.to_uppercase()).collect();
            line.push_str(" after privatizing ");
            line.push_str(&names.join(", "));
        }
        if d.newly_parallelizable() {
            line.push_str(" (unlocked by kill analysis)");
        }
        line
    } else {
        let blockers = graph.blockers(&d.post, &d.l, KillView::PostKill);
        let mut parts: Vec<String> = blockers
            .iter()
            .take(MAX_BLOCKERS_SHOWN)
            .map(|&i| graph.edges()[i].describe())
            .collect();
        if blockers.len() > MAX_BLOCKERS_SHOWN {
            parts.push(format!("+{} more", blockers.len() - MAX_BLOCKERS_SHOWN));
        }
        format!("sequential: blocked by {}", parts.join("; "))
    }
}

/// Renders the full `--parallelize` report for one program: annotated
/// source, surviving-dependence DOT graph, and summary line. The exact
/// same string is produced by the one-shot CLI, each `--corpus` section
/// and the server `parallelize` op — byte-identity across the three is
/// regression-gated in CI.
pub fn render_parallelize_report(program: &Program, graph: &DepGraph<'_>) -> String {
    let decisions = decide_loops(graph);
    let mut ann = Annotations::new();
    for d in &decisions {
        ann.push(&d.l.path, verdict_line(graph, d));
    }
    let mut out = render_annotated(program, &ann);
    out.push_str("\ndependence graph (surviving dependences):\n");
    out.push_str(&to_dot(
        graph,
        &DotOptions {
            antis: true,
            outputs: true,
            dead: false,
        },
    ));
    let summary = ParallelizeSummary::of(&decisions);
    out.push_str(&format!("\nparallelize summary: {summary}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_program;
    use crate::config::Config;
    use tiny::ProgramInfo;

    fn run(src: &str) -> (Program, ProgramInfo, crate::Analysis) {
        let program = Program::parse(src).unwrap();
        let info = tiny::analyze(&program).unwrap();
        let analysis = analyze_program(&info, &Config::extended()).unwrap();
        (program, info, analysis)
    }

    #[test]
    fn example_2_inner_loop_is_newly_parallelizable() {
        // Example 2 of the paper: standard analysis sees a carried flow
        // on A in the L2 loop; kill analysis proves it dead.
        let (_, info, a) = run(tiny::corpus::EXAMPLE_2);
        let g = DepGraph::new(&info, &a);
        let decisions = decide_loops(&g);
        let s = ParallelizeSummary::of(&decisions);
        assert_eq!(s.newly, 1, "{decisions:?}");
        let newly: Vec<&LoopDecision> = decisions
            .iter()
            .filter(|d| d.newly_parallelizable())
            .collect();
        assert_eq!(newly[0].l.var, "L1");
    }

    #[test]
    fn summary_counts_are_consistent() {
        for entry in tiny::corpus::all() {
            let (_, info, a) = run(entry.source);
            let g = DepGraph::new(&info, &a);
            let s = ParallelizeSummary::of(&decide_loops(&g));
            assert!(s.outright <= s.parallel, "{}", entry.name);
            assert!(
                s.pre_parallel <= s.parallel,
                "{}: kills only help",
                entry.name
            );
            assert_eq!(s.newly, s.parallel - s.pre_parallel, "{}", entry.name);
            assert!(s.parallel <= s.loops, "{}", entry.name);
        }
    }

    #[test]
    fn report_sections_render() {
        let (p, info, a) = run(tiny::corpus::EXAMPLE_2);
        let g = DepGraph::new(&info, &a);
        let report = render_parallelize_report(&p, &g);
        assert!(report.contains("!$ PARALLELIZABLE"), "{report}");
        assert!(report.contains("(unlocked by kill analysis)"), "{report}");
        assert!(
            report.contains("dependence graph (surviving dependences):\ndigraph"),
            "{report}"
        );
        assert!(report.contains("\nparallelize summary: loops="), "{report}");
    }

    #[test]
    fn sequential_loops_name_their_blockers() {
        let (p, info, a) = run(tiny::corpus::SEIDEL);
        let g = DepGraph::new(&info, &a);
        let report = render_parallelize_report(&p, &g);
        assert!(report.contains("!$ sequential: blocked by"), "{report}");
        assert!(report.contains(" on A"), "{report}");
    }

    #[test]
    fn blocker_list_is_capped() {
        // Craft a loop with many carried flows on distinct arrays.
        let mut body = String::new();
        for c in ["a", "b", "c", "d", "e", "f"] {
            body.push_str(&format!("{c}(i) := {c}(i - 1);\n"));
        }
        let src = format!("sym n;\nfor i := 2 to n do\n{body}endfor\n");
        let (p, info, a) = run(&src);
        let g = DepGraph::new(&info, &a);
        let report = render_parallelize_report(&p, &g);
        assert!(report.contains("+2 more"), "{report}");
    }
}
