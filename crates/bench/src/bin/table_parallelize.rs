//! Corpus-wide parallelization-decision table and regression gate: for
//! every corpus program, how many loops are parallelizable with the
//! extended analysis, how many already were without the kill/cover
//! dead-marking, and how many are **newly** parallelizable — unlocked
//! only by eliminating false dependences, the paper's headline payoff.
//!
//! The per-program `newly` counts are pinned below (like the
//! `table_banerjee` elimination counts): a regression that stops killing
//! a false dependence, or an analysis change that silently unlocks more,
//! fails the gate instead of drifting by. Exits nonzero on any mismatch
//! or when the corpus-wide `newly` total is zero.

use std::process::ExitCode;

use depend::{analyze_program, decide_loops, Config, DepGraph, ParallelizeSummary};

/// Corpus programs with a nonzero `newly` count, pinned. Every program
/// absent from this list is pinned to zero.
const PINNED_NEWLY: &[(&str, usize)] = &[("example2", 1), ("pivot_reset", 1), ("stepped_reset", 1)];

fn main() -> ExitCode {
    println!(
        "{:<22} {:>5} {:>9} {:>9} {:>14} {:>6}",
        "PROGRAM", "LOOPS", "PARALLEL", "OUTRIGHT", "WITHOUT-KILLS", "NEWLY"
    );
    let mut total = ParallelizeSummary::default();
    let mut failures = 0usize;
    for entry in tiny::corpus::all() {
        let program = tiny::Program::parse(entry.source).expect("corpus parses");
        let info = tiny::analyze(&program).expect("corpus analyzes");
        let analysis = analyze_program(&info, &Config::extended()).expect("analysis");
        let graph = DepGraph::new(&info, &analysis);
        let s = ParallelizeSummary::of(&decide_loops(&graph));
        total.add(&s);
        let pinned = PINNED_NEWLY
            .iter()
            .find(|(name, _)| *name == entry.name)
            .map_or(0, |(_, n)| *n);
        let note = if s.newly == pinned {
            ""
        } else {
            failures += 1;
            " <- MISMATCH"
        };
        println!(
            "{:<22} {:>5} {:>9} {:>9} {:>14} {:>6}{}",
            entry.name, s.loops, s.parallel, s.outright, s.pre_parallel, s.newly, note
        );
        if s.newly != pinned {
            eprintln!(
                "table_parallelize: FAIL: {} has {} newly-parallelizable loop(s), pinned {}",
                entry.name, s.newly, pinned
            );
        }
    }
    println!(
        "{:<22} {:>5} {:>9} {:>9} {:>14} {:>6}",
        "TOTAL", total.loops, total.parallel, total.outright, total.pre_parallel, total.newly
    );
    let pinned_total: usize = PINNED_NEWLY.iter().map(|(_, n)| n).sum();
    println!(
        "\n{} loop(s) parallelizable only once kill analysis eliminates false dependences.",
        total.newly
    );
    if total.newly == 0 {
        eprintln!("table_parallelize: FAIL: kill analysis unlocked nothing corpus-wide");
        return ExitCode::FAILURE;
    }
    if total.newly != pinned_total || failures > 0 {
        eprintln!(
            "table_parallelize: FAIL: {failures} program(s) off their pin \
             (total {} vs pinned {pinned_total})",
            total.newly
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
