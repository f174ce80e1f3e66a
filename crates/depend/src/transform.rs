//! Transformation legality queries on top of the dependence analysis —
//! the paper's motivation made concrete. Killing false flow dependences
//! matters because storage-related dependences (anti/output) *can* be
//! removed by privatization, renaming or expansion, but only if doing so
//! "appears not to affect the flow dependences": a loop-carried flow that
//! is actually dead blocks privatization under standard analysis and is
//! unblocked by the extended analysis.

use std::collections::BTreeSet;

use omega::{Budget, LinExpr};
use tiny::ProgramInfo;

use crate::analysis::Analysis;
use crate::error::Result;
use crate::graph::DepGraph;

/// Identifies one loop of the program by its tree path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopRef {
    /// Tree path from the program root to the loop.
    pub path: Vec<usize>,
    /// The loop variable (as written).
    pub var: String,
    /// 1-based nesting depth (a top-level loop has depth 1).
    pub depth: usize,
}

/// Enumerates every loop of the program.
pub fn program_loops(info: &ProgramInfo) -> Vec<LoopRef> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for s in &info.stmts {
        for (d, l) in s.loops.iter().enumerate() {
            // Loops and `if` branches interleave in the tree path; the
            // loop's own entry sits at `loop_path_idx[d]`.
            let path = s.path[..=s.loop_path_idx[d]].to_vec();
            if seen.insert(path.clone()) {
                out.push(LoopRef {
                    path,
                    var: l.var.clone(),
                    depth: d + 1,
                });
            }
        }
    }
    out
}

/// The interchange and fusion legality tests over an [`Analysis`]: each
/// adds its own Omega queries on the edges of the analysis'
/// [`DepGraph`]. Parallelism and privatization are answered by the graph
/// itself ([`DepGraph::loop_verdict`], [`DepGraph::privatizable`]).
#[derive(Debug)]
pub struct Legality<'a> {
    info: &'a ProgramInfo,
    graph: DepGraph<'a>,
}

impl<'a> Legality<'a> {
    /// Wraps an analysis for querying (building its [`DepGraph`]).
    pub fn new(info: &'a ProgramInfo, analysis: &'a Analysis) -> Self {
        Legality {
            info,
            graph: DepGraph::new(info, analysis),
        }
    }

    /// Whether interchanging loop `l` with the loop immediately inside it
    /// is legal: no live dependence may have a distance vector that is
    /// positive at `l` and negative at the inner level (the classic
    /// `(<,>)` direction pattern, which interchange would reverse into a
    /// backward dependence).
    ///
    /// The test is exact: each dependence case's constraint problem is
    /// queried with `d_l >= 1 ∧ d_{l+1} <= -1` through the Omega test.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn interchange_legal(&self, l: &LoopRef, budget: &mut Budget) -> Result<bool> {
        let outer = l.depth - 1; // 0-based index into common loops
        let inner = l.depth; // the loop directly inside
        for d in self.graph.edges().iter().map(|e| e.dep) {
            if !d.is_live() || !self.graph.under(d, l) || d.common <= inner {
                continue;
            }
            for case in &d.cases {
                let mut p = case.problem.clone();
                let d_outer = LinExpr::var(case.dst_vars.iters[outer])
                    .combine(1, -1, &LinExpr::var(case.src_vars.iters[outer]))?;
                let d_inner = LinExpr::var(case.dst_vars.iters[inner])
                    .combine(1, -1, &LinExpr::var(case.src_vars.iters[inner]))?;
                // d_outer >= 1 and d_inner <= -1.
                let mut lo = d_outer;
                lo.add_constant(-1)?;
                p.add_geq(lo);
                let mut hi = d_inner.negated();
                hi.add_constant(-1)?;
                p.add_geq(hi);
                if p.is_satisfiable_with(budget)? {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Whether fusing two adjacent same-depth loops `l1` and `l2`
    /// (`l1` lexically first) is legal: fusion is illegal when some
    /// dependence from an `l1` statement to an `l2` statement would be
    /// reversed — i.e. the source iteration exceeds the destination
    /// iteration, which after fusion runs the consumer before the
    /// producer.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn fusion_legal(&self, l1: &LoopRef, l2: &LoopRef, budget: &mut Budget) -> Result<bool> {
        debug_assert_eq!(l1.depth, l2.depth);
        let level = l1.depth - 1;
        for d in self.graph.edges().iter().map(|e| e.dep) {
            if !d.is_live() {
                continue;
            }
            let src = self.info.stmt(d.src.label);
            let dst = self.info.stmt(d.dst.label);
            if !src.path.starts_with(&l1.path) || !dst.path.starts_with(&l2.path) {
                continue;
            }
            for case in &d.cases {
                // After fusion the two loop variables become one; the
                // dependence is reversed when src_iter > dst_iter.
                let mut p = case.problem.clone();
                let diff = LinExpr::var(case.src_vars.iters[level])
                    .combine(1, -1, &LinExpr::var(case.dst_vars.iters[level]))?;
                let mut strict = diff;
                strict.add_constant(-1)?;
                p.add_geq(strict); // src - dst >= 1
                if p.is_satisfiable_with(budget)? {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_program;
    use crate::config::Config;
    use crate::graph::KillView;
    use tiny::ast::name_key;

    /// Outright parallel after kills: no live carried dependence.
    fn is_parallel(g: &DepGraph, l: &LoopRef) -> bool {
        g.loop_verdict(l, KillView::PostKill).outright_parallel()
    }

    /// The arrays to privatize for a parallel loop after kills, `None`
    /// when it stays sequential.
    fn privatize(g: &DepGraph, l: &LoopRef) -> Option<BTreeSet<String>> {
        g.loop_verdict(l, KillView::PostKill).privatize
    }

    fn setup(src: &str, cfg: &Config) -> (ProgramInfo, Analysis) {
        let program = tiny::Program::parse(src).unwrap();
        let info = tiny::analyze(&program).unwrap();
        let analysis = analyze_program(&info, cfg).unwrap();
        (info, analysis)
    }

    fn find_loop<'a>(loops: &'a [LoopRef], var: &str) -> &'a LoopRef {
        loops
            .iter()
            .find(|l| name_key(&l.var) == name_key(var))
            .unwrap_or_else(|| panic!("no loop {var}"))
    }

    #[test]
    fn wavefront_inner_and_outer_are_sequential() {
        let (info, a) = setup(tiny::corpus::WAVEFRONT, &Config::extended());
        let loops = program_loops(&info);
        let g = DepGraph::new(&info, &a);
        assert!(!is_parallel(&g, find_loop(&loops, "i")));
        assert!(!is_parallel(&g, find_loop(&loops, "j")));
    }

    #[test]
    fn independent_updates_are_parallel() {
        let (info, a) = setup(
            "sym n; for i := 1 to n do a(i) := b(i) + c(i); endfor",
            &Config::extended(),
        );
        let loops = program_loops(&info);
        let g = DepGraph::new(&info, &a);
        assert!(is_parallel(&g, find_loop(&loops, "i")));
    }

    #[test]
    fn matmul_outer_loops_parallel_inner_reduction_not() {
        let (info, a) = setup(tiny::corpus::MATMUL, &Config::extended());
        let loops = program_loops(&info);
        let g = DepGraph::new(&info, &a);
        assert!(is_parallel(&g, find_loop(&loops, "i")));
        assert!(is_parallel(&g, find_loop(&loops, "j")));
        assert!(
            !is_parallel(&g, find_loop(&loops, "k")),
            "reduction on c(i,j)"
        );
    }

    #[test]
    fn double_buffer_needs_extended_analysis_to_privatize() {
        // The paper's central claim in miniature: under STANDARD analysis
        // the stale loop-carried flow on `b` blocks privatization of the
        // time loop; the EXTENDED analysis kills it (b is fully
        // overwritten each iteration), leaving only storage dependences.
        let (info, ext) = setup(tiny::corpus::DOUBLE_BUFFER, &Config::extended());
        let loops = program_loops(&info);
        let it = find_loop(&loops, "it");
        let g = DepGraph::new(&info, &ext);
        assert!(
            g.privatizable("b", it, KillView::PostKill),
            "extended analysis: b has no live carried flow"
        );

        let (info_s, std) = setup(tiny::corpus::DOUBLE_BUFFER, &Config::standard());
        let loops_s = program_loops(&info_s);
        let it_s = find_loop(&loops_s, "it");
        let g_s = DepGraph::new(&info_s, &std);
        assert!(
            !g_s.privatizable("b", it_s, KillView::PostKill),
            "standard analysis: the false carried flow on b blocks privatization"
        );
        // The time loop itself stays sequential either way (a genuinely
        // carries values between iterations).
        assert!(privatize(&g, it).is_none());
    }

    #[test]
    fn inner_loops_of_double_buffer_are_parallel() {
        let (info, a) = setup(tiny::corpus::DOUBLE_BUFFER, &Config::extended());
        let loops = program_loops(&info);
        let g = DepGraph::new(&info, &a);
        // Both i loops are parallel (each element independent).
        let inner: Vec<&LoopRef> = loops.iter().filter(|l| l.depth == 2).collect();
        assert_eq!(inner.len(), 2);
        for l in inner {
            assert!(is_parallel(&g, l), "{l:?}");
        }
    }

    #[test]
    fn privatization_unblocks_a_temporary() {
        // t(i) is written then read within each iteration of the outer
        // loop; anti/output deps on t are carried, but t is privatizable,
        // so the loop parallelizes with privatization.
        let src = "
            sym n, m;
            for i := 1 to n do
              for j := 1 to m do
                t(j) := a(i, j) * 2;
              endfor
              for j := 1 to m do
                b(i, j) := t(j) + t(j);
              endfor
            endfor
        ";
        let (info, a) = setup(src, &Config::extended());
        let loops = program_loops(&info);
        let i = find_loop(&loops, "i");
        let g = DepGraph::new(&info, &a);
        assert!(!is_parallel(&g, i), "anti/output deps on t are carried");
        let privatized = privatize(&g, i).expect("parallel after privatizing t");
        assert!(privatized.contains("t"), "{privatized:?}");
    }

    #[test]
    fn seidel_is_inherently_sequential() {
        let (info, a) = setup(tiny::corpus::SEIDEL, &Config::extended());
        let loops = program_loops(&info);
        let g = DepGraph::new(&info, &a);
        for l in &loops {
            assert!(privatize(&g, l).is_none(), "{l:?} carries a real flow");
        }
    }

    #[test]
    fn program_loops_enumerates_nests() {
        let info = tiny::analyze(&tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap()).unwrap();
        let loops = program_loops(&info);
        // CHOLSKY: J (1) + I, L(2), JJ+L under I... count distinct loops.
        assert!(loops.len() >= 15, "CHOLSKY has many loops: {}", loops.len());
        assert!(loops.iter().any(|l| l.var == "J" && l.depth == 1));
        assert!(loops.iter().any(|l| l.var == "L" && l.depth == 4));
    }
}

#[cfg(test)]
mod interchange_tests {
    use super::*;
    use crate::analysis::analyze_program;
    use crate::config::Config;
    use tiny::ast::name_key;

    fn legal(src: &str, var: &str) -> bool {
        let program = tiny::Program::parse(src).unwrap();
        let info = tiny::analyze(&program).unwrap();
        let a = analyze_program(&info, &Config::extended()).unwrap();
        let loops = program_loops(&info);
        let l = loops
            .iter()
            .find(|l| name_key(&l.var) == name_key(var))
            .unwrap();
        Legality::new(&info, &a)
            .interchange_legal(l, &mut Budget::default())
            .unwrap()
    }

    #[test]
    fn wavefront_interchange_is_legal() {
        // Distances (1,0) and (0,1): interchange permutes them to (0,1)
        // and (1,0), both still lexicographically positive.
        assert!(legal(tiny::corpus::WAVEFRONT, "i"));
    }

    #[test]
    fn antidiagonal_dependence_blocks_interchange() {
        // a(i,j) := a(i-1,j+1): distance (1,-1) becomes (-1,1) after
        // interchange — backward, so illegal.
        assert!(!legal(
            "sym n, m;
             for i := 2 to n do
               for j := 1 to m-1 do
                 a(i, j) := a(i-1, j+1);
               endfor
             endfor",
            "i"
        ));
    }

    #[test]
    fn refinement_can_enable_interchange() {
        // Unrefined, the flow a(i,j) := a(i-1, j+1) + a(i-1, j) blocks;
        // a purely (1,0) dependence does not.
        assert!(legal(
            "sym n, m;
             for i := 2 to n do
               for j := 1 to m do
                 a(i, j) := a(i-1, j);
               endfor
             endfor",
            "i"
        ));
    }

    #[test]
    fn matmul_all_interchanges_legal() {
        let program = tiny::Program::parse(tiny::corpus::MATMUL).unwrap();
        let info = tiny::analyze(&program).unwrap();
        let a = analyze_program(&info, &Config::extended()).unwrap();
        let loops = program_loops(&info);
        let legality = Legality::new(&info, &a);
        for l in loops.iter().filter(|l| l.depth <= 2) {
            assert!(
                legality
                    .interchange_legal(l, &mut Budget::default())
                    .unwrap(),
                "{l:?}"
            );
        }
    }
}

#[cfg(test)]
mod fusion_tests {
    use super::*;
    use crate::analysis::analyze_program;
    use crate::config::Config;

    fn check(src: &str) -> bool {
        let program = tiny::Program::parse(src).unwrap();
        let info = tiny::analyze(&program).unwrap();
        let a = analyze_program(&info, &Config::extended()).unwrap();
        let loops = program_loops(&info);
        let top: Vec<&LoopRef> = loops.iter().filter(|l| l.depth == 1).collect();
        assert_eq!(top.len(), 2, "expected two top-level loops");
        Legality::new(&info, &a)
            .fusion_legal(top[0], top[1], &mut Budget::default())
            .unwrap()
    }

    #[test]
    fn pointwise_producer_consumer_fuses() {
        // b(i) consumed at the same i it was produced: legal.
        assert!(check(
            "sym n;
             for i := 1 to n do b(i) := a(i) * 2; endfor
             for i := 1 to n do c(i) := b(i) + 1; endfor"
        ));
    }

    #[test]
    fn forward_shift_blocks_fusion() {
        // The second loop reads b(i+1): after fusion, iteration i would
        // read a value produced only at iteration i+1.
        assert!(!check(
            "sym n;
             for i := 1 to n do b(i) := a(i) * 2; endfor
             for i := 1 to n-1 do c(i) := b(i+1); endfor"
        ));
    }

    #[test]
    fn backward_shift_fuses() {
        // Reading b(i-1) is fine: the producer iteration precedes.
        assert!(check(
            "sym n;
             for i := 1 to n do b(i) := a(i) * 2; endfor
             for i := 2 to n do c(i) := b(i-1); endfor"
        ));
    }

    #[test]
    fn anti_dependence_can_also_block() {
        // First loop reads b(i-1); second overwrites b. Fused, iteration
        // i-1 writes b(i-1) BEFORE iteration i reads it — the anti
        // dependence (read at i, write at i-1) is reversed: illegal.
        assert!(!check(
            "sym n;
             for i := 2 to n do c(i) := b(i-1); endfor
             for i := 1 to n do b(i) := a(i); endfor"
        ));
        // Reading b(i+1) before a LATER write is preserved by fusion.
        assert!(check(
            "sym n;
             for i := 1 to n-1 do c(i) := b(i+1); endfor
             for i := 1 to n do b(i) := a(i); endfor"
        ));
    }
}
