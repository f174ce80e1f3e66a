//! Robustness tests: the solver must fail *cleanly* (typed errors, no
//! panics, no wraparound) on adversarial inputs.

use omega::{Budget, Error, LinExpr, Problem, VarKind};

#[test]
fn budget_exhaustion_is_reported_not_diverging() {
    // A chain of coupled inequalities with non-unit coefficients forces
    // real Fourier-Motzkin work; a tiny budget must trip TooComplex.
    let mut p = Problem::new();
    let vars: Vec<_> = (0..8).map(|_| p.add_var(VarKind::Input)).collect();
    for w in vars.windows(2) {
        p.add_geq(LinExpr::term(3, w[0]).plus_term(-2, w[1]).plus_const(1));
        p.add_geq(LinExpr::term(-3, w[0]).plus_term(2, w[1]).plus_const(7));
    }
    p.add_geq(LinExpr::var(vars[0]).plus_const(-1));
    p.add_geq(LinExpr::term(-1, vars[7]).plus_const(1000));
    let mut tiny_budget = Budget::new(3);
    match p.is_satisfiable_with(&mut tiny_budget) {
        Err(Error::TooComplex { .. }) => {}
        other => panic!("expected TooComplex, got {other:?}"),
    }
    // With a real budget the same problem resolves.
    assert!(p.is_satisfiable().is_ok());
}

#[test]
fn coefficient_overflow_is_an_error_not_wraparound() {
    let mut p = Problem::new();
    let x = p.add_var(VarKind::Input);
    let y = p.add_var(VarKind::Input);
    let big = i64::MAX / 2;
    // Combining these lower/upper bounds multiplies coefficients past i64.
    p.add_geq(LinExpr::term(big, x).plus_term(-big + 7, y));
    p.add_geq(
        LinExpr::term(-big + 1, x)
            .plus_term(big - 13, y)
            .plus_const(5),
    );
    p.add_geq(LinExpr::var(y).plus_const(-1));
    p.add_geq(LinExpr::term(-1, y).plus_const(10));
    match p.is_satisfiable() {
        Ok(_) => {} // fine if an exact path avoided the blow-up
        Err(Error::Overflow) => {}
        Err(other) => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn empty_and_degenerate_problems() {
    // No variables at all.
    let p = Problem::new();
    assert!(p.is_satisfiable().unwrap());
    assert!(p.sample_solution().unwrap().is_some());

    // Only constant constraints.
    let mut q = Problem::new();
    q.add_geq(LinExpr::constant_expr(0));
    q.add_eq(LinExpr::zero());
    assert!(q.is_satisfiable().unwrap());
    let mut r = Problem::new();
    r.add_eq(LinExpr::constant_expr(3));
    assert!(!r.is_satisfiable().unwrap());

    // A variable with no constraints.
    let mut s = Problem::new();
    let _ = s.add_var(VarKind::Input);
    assert!(s.is_satisfiable().unwrap());
    let proj = s.project(&[]).unwrap();
    assert!(proj.is_exact());
}

#[test]
fn many_redundant_constraints_stay_cheap() {
    // 200 parallel copies of the same halfplane: normalization dedup must
    // keep this linear, not quadratic blow-up in FM combinations.
    let mut p = Problem::new();
    let x = p.add_var(VarKind::Input);
    let y = p.add_var(VarKind::Input);
    for k in 0..200 {
        p.add_geq(LinExpr::var(x).plus_term(1, y).plus_const(-k));
        p.add_geq(LinExpr::term(-1, x).plus_const(1000 + k));
    }
    p.add_geq(LinExpr::var(y).plus_const(-5));
    let mut budget = Budget::new(50_000);
    assert!(p.is_satisfiable_with(&mut budget).unwrap());
}

#[test]
fn deep_equality_chains_terminate() {
    // x0 = 2x1, x1 = 2x2, ...: exercises repeated substitution.
    let mut p = Problem::new();
    let vars: Vec<_> = (0..20).map(|_| p.add_var(VarKind::Input)).collect();
    for w in vars.windows(2) {
        p.add_eq(LinExpr::var(w[0]).plus_term(-2, w[1]));
    }
    p.add_geq(LinExpr::var(vars[19]).plus_const(-1)); // x19 >= 1
    assert!(p.is_satisfiable().unwrap());
    let sol = p.sample_solution().unwrap().unwrap();
    assert_eq!(sol[&vars[0]], sol[&vars[19]] << 19);
}

#[test]
fn projection_onto_everything_and_nothing() {
    let mut p = Problem::new();
    let x = p.add_var(VarKind::Input);
    let y = p.add_var(VarKind::Input);
    p.add_geq(LinExpr::var(x).plus_term(-1, y));
    p.add_geq(LinExpr::var(y).plus_const(-1));

    // Keep everything: the projection is the problem itself (normalized).
    let keep_all = p.project(&[x, y]).unwrap();
    assert!(keep_all.is_exact());
    assert!(keep_all.dark().satisfies(&[3, 2]));
    assert!(!keep_all.dark().satisfies(&[0, 2]));

    // Keep nothing: satisfiability collapses to a constant answer.
    let keep_none = p.project(&[]).unwrap();
    assert!(keep_none.is_exact());
    assert!(!keep_none.dark().is_known_infeasible());
}

#[test]
fn splinter_heavy_problem_resolves_within_budget() {
    // Many inexact pairs at once.
    let mut p = Problem::new();
    let x = p.add_var(VarKind::Input);
    let y = p.add_var(VarKind::Input);
    let z = p.add_var(VarKind::Input);
    p.add_geq(LinExpr::term(5, x).plus_term(-3, y).plus_const(1));
    p.add_geq(LinExpr::term(-5, x).plus_term(3, y).plus_const(1));
    p.add_geq(LinExpr::term(7, y).plus_term(-4, z).plus_const(2));
    p.add_geq(LinExpr::term(-7, y).plus_term(4, z).plus_const(2));
    p.add_geq(LinExpr::var(z).plus_const(-10));
    p.add_geq(LinExpr::term(-1, z).plus_const(100));
    let sat = p.is_satisfiable().unwrap();
    // Cross-check with a witness or brute force.
    let sol = p.sample_solution().unwrap();
    assert_eq!(sat, sol.is_some());
}

#[test]
fn gist_and_implies_survive_budget_pressure() {
    let mut s = Problem::new();
    let x = s.add_var(VarKind::Input);
    let mut p = s.clone();
    p.add_geq(LinExpr::var(x).plus_const(-5));
    let mut q = s.clone();
    q.add_geq(LinExpr::var(x).plus_const(-1));
    // Budget too small even for one satisfiability run.
    let mut b = Budget::new(0);
    match omega::implies_with(&p, &q, &mut b) {
        Ok(_) | Err(Error::TooComplex { .. }) => {}
        Err(other) => panic!("unexpected {other:?}"),
    }
}

#[test]
fn dark_shadow_ablation_preserves_answers() {
    use omega::SolverOptions;
    // Correctness must not depend on the dark-shadow fast path — it is
    // purely a performance device. Cross-check on inexact problems.
    let cases: Vec<(i64, i64, i64)> = (2..6)
        .flat_map(|a| (2..6).map(move |b| (a, b, a + b)))
        .collect();
    for (a, b, c) in cases {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        let y = p.add_var(VarKind::Input);
        p.add_geq(LinExpr::term(a, x).plus_term(-b, y).plus_const(1));
        p.add_geq(LinExpr::term(-a, x).plus_term(b, y).plus_const(c));
        p.add_geq(LinExpr::var(y).plus_const(-1));
        p.add_geq(LinExpr::term(-1, y).plus_const(40));
        let with = p.is_satisfiable().unwrap();
        let mut no_dark = Budget::new(omega::DEFAULT_BUDGET).with_options(SolverOptions {
            dark_shadow: false,
            ..SolverOptions::default()
        });
        let without = p.is_satisfiable_with(&mut no_dark).unwrap();
        assert_eq!(with, without, "({a},{b},{c})");
    }
}

#[test]
fn remove_redundant_quick_keeps_every_integer_point() {
    // x - y + 5 >= 0 is implied by x - y >= 0: the quick pass must drop
    // it without changing the integer points.
    let mut p = Problem::new();
    let x = p.add_var(VarKind::Input);
    let y = p.add_var(VarKind::Input);
    p.add_geq(LinExpr::var(x).plus_term(-1, y));
    p.add_geq(LinExpr::var(x).plus_term(-1, y).plus_const(5)); // redundant
    p.add_geq(LinExpr::var(y).plus_const(-1));
    p.add_geq(LinExpr::term(-1, y).plus_const(9));
    let mut tidy = p.clone();
    tidy.remove_redundant_quick();
    assert!(tidy.num_constraints() < p.num_constraints());
    for vx in -2..20 {
        for vy in -2..12 {
            assert_eq!(
                tidy.satisfies(&[vx, vy]),
                p.satisfies(&[vx, vy]),
                "(x, y) = ({vx}, {vy})"
            );
        }
    }
}
