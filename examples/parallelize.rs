//! The paper's motivation, end to end: find parallel loops and
//! privatization opportunities, and show how eliminating false flow
//! dependences changes the answer.
//!
//! Each program goes through the decision engine behind
//! `tinydep --parallelize` once; the engine's pre-kill view plays the
//! role of standard analysis, so one extended run yields both verdicts.
//! The last program prints the full annotated report.
//!
//! Run with `cargo run --example parallelize`.

use depend::{
    analyze_program, decide_loops, render_parallelize_report, Config, DepGraph, LoopVerdict,
    ParallelizeSummary,
};

fn verdict(v: &LoopVerdict) -> String {
    match &v.privatize {
        Some(arrays) if arrays.is_empty() => "PARALLEL".to_string(),
        Some(arrays) => format!(
            "PARALLEL after privatizing {}",
            arrays.iter().cloned().collect::<Vec<_>>().join(", ")
        ),
        None => "sequential".to_string(),
    }
}

fn report(name: &str, source: &str) -> Result<(), Box<dyn std::error::Error>> {
    let program = tiny::Program::parse(source)?;
    let info = tiny::analyze(&program)?;
    let analysis = analyze_program(&info, &Config::extended())?;
    let graph = DepGraph::new(&info, &analysis);
    let decisions = decide_loops(&graph);

    println!("== {name} ==");
    for d in &decisions {
        let unlocked = if d.newly_parallelizable() {
            "   <- unlocked by kill analysis"
        } else {
            ""
        };
        println!(
            "  loop {:<4} depth {}: without kills -> {:<34} with kills -> {}{}",
            d.l.var,
            d.l.depth,
            verdict(&d.pre),
            verdict(&d.post),
            unlocked
        );
    }
    println!("  {}", ParallelizeSummary::of(&decisions));
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A Jacobi-style double-buffered stencil: the temporary `b` is fully
    // overwritten every time step, so the carried flow the standard
    // analysis sees is FALSE — the extended analysis kills it and `b`
    // becomes privatizable.
    report("double-buffered stencil", tiny::corpus::DOUBLE_BUFFER)?;

    // A per-iteration temporary: storage dependences on `t` block naive
    // parallelization, privatization fixes it.
    report(
        "blocked row transform with a temporary",
        "
        sym n, m;
        for i := 1 to n do
          for j := 1 to m do
            t(j) := a(i, j) * 2;
          endfor
          for j := 1 to m do
            b(i, j) := t(j) + t(j);
          endfor
        endfor
        ",
    )?;

    // Matrix multiply: outer two loops parallel, the reduction loop not.
    report("matrix multiply", tiny::corpus::MATMUL)?;

    // Gauss-Seidel: genuinely sequential everywhere.
    report("gauss-seidel sweep", tiny::corpus::SEIDEL)?;

    // The showcase: a stale pivot write after the read loop makes the
    // carried flow on `t` false; killing it is exactly what lets `t` be
    // privatized and the `i` loop run in parallel. Full report, as
    // `tinydep --parallelize` would print it.
    report(
        "pivot reset (newly parallelizable)",
        tiny::corpus::PIVOT_RESET,
    )?;
    let program = tiny::Program::parse(tiny::corpus::PIVOT_RESET)?;
    let info = tiny::analyze(&program)?;
    let analysis = analyze_program(&info, &Config::extended())?;
    let graph = DepGraph::new(&info, &analysis);
    print!("{}", render_parallelize_report(&program, &graph));
    Ok(())
}
