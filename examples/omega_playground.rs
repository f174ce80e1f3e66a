//! A tour of the Omega test itself, following §3 of the paper: projection
//! and its shadows, satisfiability, gists, implication checking, and the
//! Presburger formula shapes dependence analysis asks.
//!
//! Run with `cargo run --example omega_playground`.

use omega::{gist, implies, Budget, Formula, LinExpr, Problem, VarKind};

fn main() -> Result<(), omega::Error> {
    // --- Projection (§3): the shadow of a set of constraints ----------
    // The paper's example: projecting {0 <= a <= 5, b < a <= 5b} onto a
    // gives {2 <= a <= 5}.
    let mut p = Problem::new();
    let a = p.add_var("a", VarKind::Input);
    let b = p.add_var("b", VarKind::Input);
    p.add_geq(LinExpr::var(a)); // a >= 0
    p.add_geq(LinExpr::term(-1, a).plus_const(5)); // a <= 5
    p.add_geq(LinExpr::var(a).plus_term(-1, b).plus_const(-1)); // b < a
    p.add_geq(LinExpr::term(5, b).plus_term(-1, a)); // a <= 5b
    let proj = p.project(&[a])?;
    println!("π_a {{0 <= a <= 5, b < a <= 5b}}:");
    println!("  dark shadow (exact here): {}", proj.dark());
    println!("  real shadow:              {}", proj.real());
    println!("  exact: {}", proj.is_exact());

    // --- Satisfiability with integer gaps ------------------------------
    let mut gap = Problem::new();
    let x = gap.add_var("x", VarKind::Input);
    gap.add_geq(LinExpr::term(3, x).plus_const(-4)); // 3x >= 4
    gap.add_geq(LinExpr::term(-3, x).plus_const(5)); // 3x <= 5
    println!();
    println!(
        "4 <= 3x <= 5 is {} over the integers (real-satisfiable!)",
        if gap.is_satisfiable()? {
            "SAT"
        } else {
            "UNSAT"
        }
    );

    // --- Witness extraction --------------------------------------------
    let mut dio = Problem::new();
    let u = dio.add_var("u", VarKind::Input);
    let v = dio.add_var("v", VarKind::Input);
    dio.add_eq(LinExpr::term(7, u).plus_term(12, v).plus_const(-31));
    let sol = dio.sample_solution()?.expect("7u + 12v = 31 is solvable");
    println!();
    println!(
        "witness for 7u + 12v = 31: u = {}, v = {}",
        sol[&u], sol[&v]
    );

    // --- Gist (§3.3): "the new information in p, given q" --------------
    let mut space = Problem::new();
    let k1 = space.add_var("k1", VarKind::Input);
    let n = space.add_var("n", VarKind::Symbolic);
    let m = space.add_var("m", VarKind::Symbolic);
    // p: k1 = m ∧ n <= k1 <= n+20 — when does the Example 1 variant's
    // first write reach the read?
    let mut p1 = space.clone();
    p1.add_eq(LinExpr::var(k1).plus_term(-1, m));
    p1.add_geq(LinExpr::var(k1).plus_term(-1, n));
    p1.add_geq(LinExpr::var(n).plus_term(-1, k1).plus_const(20));
    // q: the killer writes n <= k1 <= n+10.
    let mut q1 = space.clone();
    q1.add_geq(LinExpr::var(k1).plus_term(-1, n));
    q1.add_geq(LinExpr::var(n).plus_term(-1, k1).plus_const(10));
    println!();
    println!("does {p1}  imply  {q1}?  {}", implies(&p1, &q1)?);
    println!("gist of the target given the premise: {}", gist(&q1, &p1)?);
    // Adding the user assertion n <= m <= n+10 restores the kill.
    p1.add_geq(LinExpr::var(m).plus_term(-1, n));
    p1.add_geq(LinExpr::var(n).plus_term(-1, m).plus_const(10));
    println!(
        "with `assume n <= m <= n+10`: implication is {}",
        implies(&p1, &q1)?
    );

    // --- Presburger shapes (§3.2) ---------------------------------------
    // ∀x. (∃y. x = 2y) ⇒ (∃z. x = 2z - 4): shifting an even number by 4.
    let mut fs = Problem::new();
    let fx = fs.add_var("x", VarKind::Input);
    let fy = fs.add_var("y", VarKind::Input);
    let fz = fs.add_var("z", VarKind::Input);
    let even = Formula::exists(vec![fy], Formula::eq0(LinExpr::var(fx).plus_term(-2, fy)));
    let shifted = Formula::exists(
        vec![fz],
        Formula::eq0(LinExpr::var(fx).plus_term(-2, fz).plus_const(4)),
    );
    let mut budget = Budget::default();
    println!();
    println!(
        "forall x: even(x) => even(x+4)?  {}",
        even.clone().implies(shifted).is_valid(&fs, &mut budget)?
    );
    let odd_target = Formula::exists(
        vec![fz],
        Formula::eq0(LinExpr::var(fx).plus_term(-2, fz).plus_const(3)),
    );
    println!(
        "forall x: even(x) => odd(x+3)... wait, x+3 odd means x even: {}",
        even.implies(odd_target).is_valid(&fs, &mut budget)?
    );
    Ok(())
}
