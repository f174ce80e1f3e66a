//! Quickstart: parse a small loop nest, run the full dependence analysis,
//! and print every flow dependence with its distance vector and status.
//!
//! Run with `cargo run --example quickstart`.

use depend::{analyze_program, Config, ReportOptions};
use tiny::{analyze, Program};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A loop nest with a false dependence: the write a(i) in statement 2
    // kills the value statement 1 stored there, so the read in statement 3
    // never sees statement 1's values.
    let source = "
        sym n;
        for i := 1 to n do
          a(i) := 0;
          a(i) := a(i) + b(i);
        endfor
        for i := 1 to n do
          c(i) := a(i);
        endfor
    ";
    let program = Program::parse(source)?;
    let info = analyze(&program)?;
    let analysis = analyze_program(&info, &Config::extended())?;

    let opts = ReportOptions::default();
    println!("live flow dependences:");
    print!(
        "{}",
        depend::live_flow_table(&depend::DepGraph::new(&info, &analysis), &opts)
    );
    println!();
    println!("dead flow dependences (eliminated false dependences):");
    print!(
        "{}",
        depend::dead_flow_table(&depend::DepGraph::new(&info, &analysis), &opts)
    );

    // The library view: statement 1's flow to the final read is dead.
    let dead: Vec<_> = analysis.dead_flows().collect();
    assert!(
        dead.iter().any(|d| d.src.label == 1 && d.dst.label == 3),
        "the a(i) := 0 value never reaches c(i)"
    );
    Ok(())
}
