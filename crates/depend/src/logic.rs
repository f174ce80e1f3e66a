//! Shared logical machinery for the §4 tests: implications whose
//! right-hand side is a union of conjunctions (the `∃` over several
//! execution-order cases), and when to pay for the exact test.

use omega::{Budget, Problem, ProblemLike};
use tiny::ProgramInfo;

use crate::dep::Dependence;
use crate::error::Result;

/// Decides `p ⇒ q₁ ∨ … ∨ qₙ`.
///
/// Strategy straight from §3.2/§4: first try each disjunct alone (the
/// sufficient test the paper's implementation uses — fast and usually
/// enough); if that fails and `formula_fallback` is set, run the exact
/// test [`omega::implies_union`] on at most 12 disjuncts. A fallback past
/// the budget or the formula depth guard stays conservative (not
/// implied).
///
/// # Errors
///
/// Propagates solver errors, except the fallback's
/// [`omega::Error::TooComplex`].
pub(crate) fn implies_union(
    p: &Problem,
    qs: &[Problem],
    formula_fallback: bool,
    budget: &mut Budget,
) -> Result<bool> {
    if !p.is_satisfiable_with(budget)? {
        return Ok(true);
    }
    for q in qs {
        if omega::implies_with(p, q, budget)? {
            return Ok(true);
        }
    }
    if !formula_fallback || qs.is_empty() || qs.len() > 12 {
        return Ok(false);
    }
    match omega::implies_union(p, qs, budget) {
        Err(omega::Error::TooComplex { .. }) => Ok(false),
        r => Ok(r?),
    }
}

/// Decides whether every instance of one endpoint `E` of `dep` — its
/// destination when `at_dst`, else its source — takes part in it:
///
/// ```text
/// ∀ e, Sym:  e ∈ [E] ∧ assumptions  ⇒  ∨_case ∃ (other endpoint). case
/// ```
///
/// Each case is projected onto `E`'s iterators and the symbols through
/// the pair's delta handle, so the shared base is canonicalized once.
/// Covering (§4.2) asks this of the destination, termination (§4.3) of
/// the source. `dep` must have at least one case.
///
/// # Errors
///
/// Propagates solver errors.
pub(crate) fn endpoint_implied(
    info: &ProgramInfo,
    dep: &Dependence,
    at_dst: bool,
    formula_fallback: bool,
    budget: &mut Budget,
) -> Result<bool> {
    let first = &dep.cases[0];
    let (label, vars) = if at_dst {
        (dep.dst.label, &first.dst_vars)
    } else {
        (dep.src.label, &first.src_vars)
    };
    let space = &first.space;
    let mut premise = space.problem();
    space.add_iteration_space(&mut premise, info.stmt(label), vars)?;
    space.add_assumptions(&mut premise, &info.assumptions)?;

    let keep: Vec<omega::VarId> = vars.iters.iter().copied().chain(space.sym_vars()).collect();
    let mut witnesses = Vec::new();
    for case in &dep.cases {
        witnesses.extend(case.delta.project_with(&keep, budget)?.into_problems());
    }
    implies_union(&premise, &witnesses, formula_fallback, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega::{LinExpr, VarKind};

    #[test]
    fn single_disjunct_path() {
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x).plus_const(-5)); // x >= 5
        let mut q = s.clone();
        q.add_geq(LinExpr::var(x).plus_const(-1)); // x >= 1
        let mut b = Budget::default();
        assert!(implies_union(&p, &[q], false, &mut b).unwrap());
    }

    #[test]
    fn union_needed() {
        // 0 <= x <= 10  ⇒  x <= 5 ∨ x >= 4: true, but neither disjunct
        // alone suffices.
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x));
        p.add_geq(LinExpr::term(-1, x).plus_const(10));
        let mut q1 = s.clone();
        q1.add_geq(LinExpr::term(-1, x).plus_const(5));
        let mut q2 = s.clone();
        q2.add_geq(LinExpr::var(x).plus_const(-4));
        let mut b = Budget::default();
        assert!(
            !implies_union(&p, &[q1.clone(), q2.clone()], false, &mut b).unwrap(),
            "case-by-case must fail"
        );
        assert!(
            implies_union(&p, &[q1, q2], true, &mut b).unwrap(),
            "formula fallback must succeed"
        );
    }

    #[test]
    fn union_that_really_fails() {
        // 0 <= x <= 10 ⇒ x <= 3 ∨ x >= 6 is false (x = 4).
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x));
        p.add_geq(LinExpr::term(-1, x).plus_const(10));
        let mut q1 = s.clone();
        q1.add_geq(LinExpr::term(-1, x).plus_const(3));
        let mut q2 = s.clone();
        q2.add_geq(LinExpr::var(x).plus_const(-6));
        let mut b = Budget::default();
        assert!(!implies_union(&p, &[q1, q2], true, &mut b).unwrap());
    }

    #[test]
    fn a_fallback_that_gives_up_is_not_implied() {
        // 1 ≤ y ≤ m ⇒ ∃w. y = 3 − 2w ∧ 1 ≤ w ≤ m: negating the stride
        // runs into the formula depth guard, so the exact test errors
        // and the policy answers "not implied".
        let mut s = Problem::new();
        let y = s.add_var("y", VarKind::Input);
        let m = s.add_var("m", VarKind::Symbolic);
        let mut p = s.clone();
        p.add_geq(LinExpr::var(y).plus_const(-1));
        p.add_geq(LinExpr::var(m).plus_term(-1, y));
        let mut q = s.clone();
        let w = q.add_var("w", VarKind::Wildcard);
        q.add_eq(LinExpr::term(2, w).plus_term(1, y).plus_const(-3));
        q.add_geq(LinExpr::var(m).plus_term(-1, w));
        q.add_geq(LinExpr::var(w).plus_const(-1));
        let qs = [q];
        let mut b = Budget::default();
        assert!(matches!(
            omega::implies_union(&p, &qs, &mut b),
            Err(omega::Error::TooComplex { .. })
        ));
        assert!(!implies_union(&p, &qs, true, &mut b).unwrap());
    }

    #[test]
    fn vacuous_premise() {
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x).plus_const(-5));
        p.add_geq(LinExpr::term(-1, x));
        let mut b = Budget::default();
        assert!(implies_union(&p, &[], true, &mut b).unwrap());
    }
}
