//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! the §4.5 quick tests, the exact-formula fallback for disjunctive
//! implications, and the refinement-widening extension.
//!
//! Runs on the in-repo `harness` bench runner; under `cargo test` (no
//! `--bench` arg) it performs a quick smoke run only.

use depend::{analyze_program, Config};
use harness::bench::Bench;

fn configs() -> Vec<(&'static str, Config)> {
    vec![
        ("full", Config::extended()),
        (
            "no_quick_tests",
            Config {
                quick_tests: false,
                ..Config::extended()
            },
        ),
        (
            "no_formula_fallback",
            Config {
                formula_fallback: false,
                ..Config::extended()
            },
        ),
        (
            "no_widening",
            Config {
                widen_refinement: false,
                ..Config::extended()
            },
        ),
        (
            "kills_only",
            Config {
                refine: false,
                cover: false,
                ..Config::extended()
            },
        ),
    ]
}

fn bench_ablations(b: &mut Bench) {
    let entry = tiny::corpus::by_name("cholsky").unwrap();
    let program = tiny::Program::parse(entry.source).unwrap();
    let info = tiny::analyze(&program).unwrap();
    for (name, cfg) in configs() {
        b.bench(&format!("ablation/cholsky/{name}"), || {
            analyze_program(&info, &cfg).unwrap()
        });
    }
}

fn bench_solver_ablations(b: &mut Bench) {
    use omega::{Budget, LinExpr, Problem, SolverOptions, VarKind};
    // An inexact, splinter-prone problem family where the dark shadow is
    // the fast path the paper's §3 motivates.
    let mut p = Problem::new();
    let x = p.add_var(VarKind::Input);
    let y = p.add_var(VarKind::Input);
    let z = p.add_var(VarKind::Input);
    p.add_geq(LinExpr::term(5, x).plus_term(-3, y).plus_const(2));
    p.add_geq(LinExpr::term(-5, x).plus_term(3, y).plus_const(4));
    p.add_geq(LinExpr::term(7, y).plus_term(-4, z).plus_const(1));
    p.add_geq(LinExpr::term(-7, y).plus_term(4, z).plus_const(9));
    p.add_geq(LinExpr::var(z).plus_const(-1));
    p.add_geq(LinExpr::term(-1, z).plus_const(500));

    b.bench("ablation/omega/sat_with_dark_shadow", || {
        p.is_satisfiable().unwrap()
    });
    b.bench("ablation/omega/sat_without_dark_shadow", || {
        let mut budget = Budget::new(omega::DEFAULT_BUDGET).with_options(SolverOptions {
            dark_shadow: false,
            ..SolverOptions::default()
        });
        p.is_satisfiable_with(&mut budget).unwrap()
    });
}

fn main() {
    // Whole-program ablations are slow; mirror the old `sample_size(10)`.
    let mut b = Bench::from_env().default_samples(10);
    bench_ablations(&mut b);
    bench_solver_ablations(&mut b);
}
