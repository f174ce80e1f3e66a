//! Micro-benchmarks of the Omega test core: satisfiability, projection,
//! gist computation and implication checking on representative
//! dependence-analysis-shaped problems.
//!
//! Runs on the in-repo `harness` bench runner: human-readable lines on
//! stderr, JSON lines on stdout. Under `cargo test` (no `--bench` arg)
//! it performs a quick smoke run only.

use harness::bench::Bench;
use omega::{gist, implies, LinExpr, Problem, VarKind};

#[global_allocator]
static ALLOC: harness::alloc::CountingAlloc = harness::alloc::CountingAlloc::new();

/// A typical dependence problem: two 2-deep iteration vectors with
/// symbolic bounds, subscript equality and a carried-order constraint.
fn dependence_problem() -> (Problem, Vec<omega::VarId>) {
    let mut p = Problem::new();
    let n = p.add_var("n", VarKind::Symbolic);
    let m = p.add_var("m", VarKind::Symbolic);
    let i1 = p.add_var("i1", VarKind::Input);
    let i2 = p.add_var("i2", VarKind::Input);
    let j1 = p.add_var("j1", VarKind::Input);
    let j2 = p.add_var("j2", VarKind::Input);
    for (v, lo) in [(i1, 1), (j1, 1), (i2, 2), (j2, 2)] {
        p.add_geq(LinExpr::var(v).plus_const(-lo));
    }
    for v in [i1, j1] {
        p.add_geq(LinExpr::term(-1, v).plus_term(1, n));
    }
    for v in [i2, j2] {
        p.add_geq(LinExpr::term(-1, v).plus_term(1, m));
    }
    // subscript: i2 = j2 - 1; order: i1 < j1.
    p.add_eq(LinExpr::var(i2).plus_term(-1, j2).plus_const(1));
    p.add_geq(LinExpr::var(j1).plus_term(-1, i1).plus_const(-1));
    (p, vec![j1, j2, n, m])
}

/// A problem that exercises the inexact machinery (dark shadow +
/// splinters).
fn splintering_problem() -> Problem {
    let mut p = Problem::new();
    let x = p.add_var("x", VarKind::Input);
    let y = p.add_var("y", VarKind::Input);
    let z = p.add_var("z", VarKind::Input);
    p.add_geq(LinExpr::term(3, x).plus_term(-2, y).plus_const(1));
    p.add_geq(LinExpr::term(-3, x).plus_term(2, y).plus_const(5));
    p.add_geq(LinExpr::term(5, y).plus_term(-7, z));
    p.add_geq(LinExpr::term(-5, y).plus_term(7, z).plus_const(11));
    p.add_geq(LinExpr::var(z).plus_const(50));
    p.add_geq(LinExpr::term(-1, z).plus_const(50));
    p
}

fn bench_satisfiability(b: &mut Bench) {
    let (dep, _) = dependence_problem();
    b.bench("sat/dependence_problem", || dep.is_satisfiable().unwrap());
    let sp = splintering_problem();
    b.bench("sat/splintering_problem", || sp.is_satisfiable().unwrap());
    // Diophantine: 7x + 12y = 31 with bounds.
    let mut dio = Problem::new();
    let x = dio.add_var("x", VarKind::Input);
    let y = dio.add_var("y", VarKind::Input);
    dio.add_eq(LinExpr::term(7, x).plus_term(12, y).plus_const(-31));
    dio.add_geq(LinExpr::var(x).plus_const(100));
    dio.add_geq(LinExpr::term(-1, x).plus_const(100));
    b.bench("sat/diophantine", || dio.is_satisfiable().unwrap());
}

fn bench_projection(b: &mut Bench) {
    let (dep, keep) = dependence_problem();
    b.bench("project/dependence_onto_dst", || {
        dep.project(&keep).unwrap()
    });
    let sp = splintering_problem();
    let x = sp.find_var("x").unwrap();
    b.bench("project/splintering_onto_x", || sp.project(&[x]).unwrap());
}

fn bench_gist_and_implies(b: &mut Bench) {
    let mut space = Problem::new();
    let x = space.add_var("x", VarKind::Input);
    let y = space.add_var("y", VarKind::Input);
    let n = space.add_var("n", VarKind::Symbolic);
    let mut p = space.clone();
    p.add_geq(LinExpr::var(x).plus_const(-1));
    p.add_geq(LinExpr::var(n).plus_term(-1, x));
    p.add_geq(LinExpr::var(y).plus_term(-1, x));
    p.add_geq(LinExpr::var(n).plus_term(-1, y));
    let mut q = space.clone();
    q.add_geq(LinExpr::var(x).plus_const(-1));
    q.add_geq(LinExpr::var(n).plus_term(-2, x).plus_const(3));
    q.add_geq(LinExpr::var(y));

    b.bench("gist/p_given_q", || gist(&p, &q).unwrap());
    let mut weak = space.clone();
    weak.add_geq(LinExpr::var(x));
    b.bench("implies/p_implies_weaker", || implies(&p, &weak).unwrap());
}

fn bench_union_and_witnesses(b: &mut Bench) {
    let (dep, keep) = dependence_problem();
    b.bench("sample/dependence_witness", || {
        dep.sample_solution().unwrap()
    });
    let pieces = dep.project(&keep).unwrap().into_problems();
    b.bench("implies/union_self", || {
        let mut budget = omega::Budget::default();
        pieces
            .iter()
            .all(|p| omega::implies_union(p, &pieces, &mut budget).unwrap())
    });
}

fn main() {
    let mut b = Bench::from_env();
    bench_satisfiability(&mut b);
    bench_projection(&mut b);
    bench_gist_and_implies(&mut b);
    bench_union_and_witnesses(&mut b);
}
