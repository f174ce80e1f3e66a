//! The loops of a program, as the unit that parallelization and
//! privatization verdicts ([`DepGraph::loop_verdict`](crate::DepGraph::loop_verdict))
//! are asked about — the paper's motivation made concrete. Killing false
//! flow dependences matters because storage-related dependences
//! (anti/output) *can* be removed by privatization, renaming or
//! expansion, but only if doing so "appears not to affect the flow
//! dependences": a loop-carried flow that is actually dead blocks
//! privatization under standard analysis and is unblocked by the
//! extended analysis.

use std::collections::BTreeSet;

use tiny::ProgramInfo;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze_program, Analysis};
    use crate::config::Config;
    use crate::graph::{DepGraph, KillView};
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
