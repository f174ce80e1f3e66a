//! A case study: everything the library says about LU decomposition.
//!
//! Walks the full API surface on one kernel — dependence tables, exact
//! distance sets, sign-pattern decompositions and parallelism.
//!
//! Run with `cargo run --release --example lu_study`.

use depend::{analyze_program, dirvec, program_loops, Config, DepGraph, KillView, ReportOptions};
use omega::Budget;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = tiny::Program::parse(tiny::corpus::LU)?;
    let info = tiny::analyze(&program)?;
    let analysis = analyze_program(&info, &Config::extended())?;
    let mut budget = Budget::default();

    println!("== LU decomposition ==");
    println!("{}", tiny::corpus::LU.trim());
    println!();

    // 1. The dependence tables.
    let graph = DepGraph::new(&info, &analysis);
    let opts = ReportOptions::default();
    println!("live flow dependences:");
    print!("{}", depend::live_flow_table(&graph, &opts));
    println!();

    // 2. Restraint vectors and sign patterns per dependence.
    println!("restraint vectors and sign decompositions:");
    for d in analysis.live_flows() {
        if d.common == 0 {
            continue;
        }
        let cases: Vec<String> = d
            .cases
            .iter()
            .map(|c| format!("{} {}", c.order, c.summary))
            .collect();
        println!(
            "  {} -> {}: {}",
            d.src.label,
            d.dst.label,
            cases.join(" | ")
        );
        for c in &d.cases {
            // The loop-independent restraint exists only when the source
            // is lexically first, so all-zero sign patterns are forward.
            let lex_first = c.order == depend::OrderCase::LoopIndependent;
            let vecs = dirvec::partially_compressed_direction_vectors(
                &c.problem,
                &c.src_vars.iters,
                &c.dst_vars.iters,
                d.common,
                lex_first,
                &mut budget,
            )?;
            let rendered: Vec<String> = vecs.iter().map(|v| v.to_string()).collect();
            println!("      signs({}): {{{}}}", c.order, rendered.join(", "));
        }
        // Exact distance sets, when finite.
        if let Some(dists) = d.enumerate_distances(16, &mut budget)? {
            println!("      distances: {dists:?}");
        }
    }
    println!();

    // 3. Loop verdicts.
    println!("loop verdicts:");
    for l in program_loops(&info) {
        let parallel = graph
            .loop_verdict(&l, KillView::PostKill)
            .outright_parallel();
        println!(
            "  {:<3} depth {}: {}",
            l.var,
            l.depth,
            if parallel { "PARALLEL" } else { "sequential" }
        );
    }
    Ok(())
}
