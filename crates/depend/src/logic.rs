//! Shared logical machinery for the §4 tests: implications whose
//! right-hand side is a union of conjunctions (the `∃` over several
//! execution-order cases), with the exact Presburger-formula fallback.

use omega::{Budget, Formula, Problem, ProblemLike};
use tiny::ProgramInfo;

use crate::dep::Dependence;
use crate::error::Result;

/// Decides `p ⇒ q₁ ∨ … ∨ qₙ`.
///
/// Strategy straight from §3.2/§4: first try each disjunct alone (the
/// sufficient test the paper's implementation uses — fast and usually
/// enough); if that fails and `formula_fallback` is set, run the exact
/// check by asking whether `p ∧ ¬q₁ ∧ … ∧ ¬qₙ` is satisfiable through the
/// Presburger layer. That check searches the product of `p`'s pieces and
/// each `¬qᵢ`'s pieces depth first ([`Formula::is_satisfiable`]), through
/// `budget`'s memo cache, so it usually stops at the first satisfiable
/// leaf; a query past the budget or the formula depth guard stays
/// conservative (not implied).
///
/// # Errors
///
/// Propagates solver errors.
pub fn implies_union(
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
    // Exact: ¬(p ⇒ ∨qᵢ) ≡ p ∧ ∧¬qᵢ satisfiable. The witness problems may
    // carry projection wildcards beyond p's table, so the formula space is
    // p's table extended to cover every operand.
    let mut space = p.clone();
    for q in qs {
        space.extend_space_to(q)?;
    }
    let negated_qs: Vec<Formula> = qs
        .iter()
        .map(|q| Formula::not(Formula::from_problem(q)))
        .collect();
    let mut parts = vec![Formula::from_problem(p)];
    parts.extend(negated_qs);
    let f = Formula::and(parts);
    let sat = match f.is_satisfiable(&space, budget) {
        Ok(s) => s,
        // The exact fallback is best-effort: on blow-up, stay conservative.
        Err(omega::Error::TooComplex { .. }) => true,
        Err(e) => return Err(e.into()),
    };
    Ok(!sat)
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
        let proj = case.delta.project_with(&keep, budget)?;
        witnesses.extend(
            proj.into_problems()
                .into_iter()
                .filter(|piece| !piece.is_known_infeasible()),
        );
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
