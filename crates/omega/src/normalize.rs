//! Constraint normalization: gcd reduction, integer tightening of
//! inequalities, duplicate elimination, contradiction detection, and
//! coalescing of opposed inequality pairs into equalities.
//!
//! The pass itself is the solver kernel's: [`Problem::normalize`] loads
//! the problem into a dense scratch tableau and runs the same normalize
//! step every satisfiability, projection and sampling query starts with.
//! This module keeps what the pass and the redundancy checks share: the
//! [`Outcome`] type, the direction hash that buckets parallel rows, and
//! the syntactic single-constraint implication.

use std::hash::Hasher;

use crate::hash::Mix;
use crate::int::Coef;
use crate::linexpr::{Constraint, Relation};
use crate::problem::Problem;
use crate::Result;

/// Result of a normalization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// No contradiction found; the problem may still be unsatisfiable.
    Consistent,
    /// The constraints are contradictory (no integer or real solution).
    Infeasible,
}

impl Problem {
    /// Normalizes every constraint in place.
    ///
    /// * Equalities are divided by the gcd of their coefficients and given
    ///   a positive first coefficient; if the constant is not divisible by
    ///   that gcd the problem is infeasible (the classic GCD test falls out
    ///   of this step).
    /// * Inequalities are divided by the gcd of their coefficients with the
    ///   constant rounded *down* — the integer tightening `⌊c/g⌋` that makes
    ///   later shadows sharper.
    /// * Syntactic duplicates are merged keeping the tightest constant, and
    ///   an opposed pair `e >= 0 ∧ -e >= 0` is coalesced into `e == 0`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overflow`](crate::Error::Overflow) on coefficient
    /// overflow; the problem is then left as it was.
    pub fn normalize(&mut self) -> Result<Outcome> {
        crate::tableau::normalize_problem(self)
    }
}

/// Placement hash of the sign-canonical direction of a dense coefficient
/// vector, one word per coefficient, plus whether the vector had to be
/// flipped (first non-zero coefficient negative) to reach that canonical
/// direction. Callers confirm every match with [`same_direction`].
pub(crate) fn direction_hash(coeffs: &[Coef]) -> (u64, bool) {
    let sign: Coef = match coeffs.iter().find(|&&c| c != 0) {
        Some(&c) if c < 0 => -1,
        _ => 1,
    };
    let mut h = Mix::default();
    for &c in coeffs {
        h.write_i64(sign * c);
    }
    (h.finish(), sign < 0)
}

/// Whether two dense coefficient vectors describe the same direction:
/// equal term-for-term, negated term-for-term when `opposite`.
pub(crate) fn same_direction(a: &[Coef], b: &[Coef], opposite: bool) -> bool {
    if a.len() != b.len() {
        return false;
    }
    if opposite {
        a.iter().zip(b).all(|(&x, &y)| x == -y)
    } else {
        a == b
    }
}

/// Re-exported relation check used by other modules: whether `a` implies
/// `b` on syntactic grounds (same direction, tighter constant), treating
/// both as `expr >= 0`.
pub(crate) fn single_implies(a: &Constraint, b: &Constraint) -> bool {
    match (a.relation(), b.relation()) {
        (Relation::NonNegative, Relation::NonNegative) => {
            a.expr().coeffs() == b.expr().coeffs() && a.expr().constant() <= b.expr().constant()
        }
        (Relation::Zero, Relation::NonNegative) => {
            // e == 0 implies λ·e + c >= 0 iff c >= 0, for either sign of
            // λ; the general check subsumes the same-key fast path.
            if a.expr().coeffs().is_empty() {
                return false;
            }
            let same_key = a.expr().coeffs() == b.expr().coeffs()
                && b.expr().constant() - a.expr().constant() >= 0;
            same_key || proportional_implies(a, b)
        }
        (Relation::Zero, Relation::Zero) => a.row == b.row,
        (Relation::NonNegative, Relation::Zero) => false,
    }
}

/// Whether equality `a` (e == 0) implies inequality `b` (f >= 0) because
/// `f = λ·e + c` with `c >= 0` for some integer λ (either sign).
fn proportional_implies(a: &Constraint, b: &Constraint) -> bool {
    debug_assert_eq!(a.relation(), Relation::Zero);
    // Find the ratio from the first term of a.
    let Some((p, q)) = a
        .expr()
        .terms()
        .next()
        .map(|(v, ca)| (b.expr().coef(v), ca))
    else {
        return false;
    };
    if p == 0 {
        return false;
    }
    if q == 0 || p % q != 0 {
        return false;
    }
    let lambda = p / q;
    // Check every coefficient matches b = lambda * a.
    for (v, ca) in a.expr().terms() {
        if b.expr().coef(v) != lambda * ca {
            return false;
        }
    }
    for (v, _) in b.expr().terms() {
        if a.expr().coef(v) == 0 {
            return false;
        }
    }
    b.expr().constant() - lambda * a.expr().constant() >= 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;
    use crate::var::VarKind;

    fn two_var_problem() -> (Problem, crate::VarId, crate::VarId) {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        let y = p.add_var(VarKind::Input);
        (p, x, y)
    }

    #[test]
    fn gcd_test_on_equalities() {
        // 2x + 4y = 1 has no integer solution.
        let (mut p, x, y) = two_var_problem();
        p.add_eq(LinExpr::term(2, x).plus_term(4, y).plus_const(-1));
        assert_eq!(p.normalize().unwrap(), Outcome::Infeasible);
    }

    #[test]
    fn gcd_reduces_equalities() {
        let (mut p, x, y) = two_var_problem();
        p.add_eq(LinExpr::term(2, x).plus_term(4, y).plus_const(-6));
        assert_eq!(p.normalize().unwrap(), Outcome::Consistent);
        assert_eq!(p.eqs()[0].expr().coef(x), 1);
        assert_eq!(p.eqs()[0].expr().coef(y), 2);
        assert_eq!(p.eqs()[0].expr().constant(), -3);
    }

    #[test]
    fn inequality_tightening_floors_constant() {
        // 2x >= 1  tightens to  x >= 1 (i.e. x - 1 >= 0): 2x - 1 >= 0 -> x + floor(-1/2) >= 0.
        let (mut p, x, _) = two_var_problem();
        p.add_geq(LinExpr::term(2, x).plus_const(-1));
        p.normalize().unwrap();
        assert_eq!(p.geqs()[0].expr().coef(x), 1);
        assert_eq!(p.geqs()[0].expr().constant(), -1);
    }

    #[test]
    fn constant_contradiction() {
        let (mut p, _, _) = two_var_problem();
        p.add_geq(LinExpr::constant_expr(-1));
        assert_eq!(p.normalize().unwrap(), Outcome::Infeasible);
        assert!(p.is_known_infeasible());
    }

    #[test]
    fn constant_tautology_dropped() {
        let (mut p, _, _) = two_var_problem();
        p.add_geq(LinExpr::constant_expr(5));
        p.add_eq(LinExpr::zero());
        assert_eq!(p.normalize().unwrap(), Outcome::Consistent);
        assert_eq!(p.num_constraints(), 0);
        assert!(p.is_trivially_true());
    }

    #[test]
    fn duplicate_inequalities_keep_tightest() {
        let (mut p, x, _) = two_var_problem();
        p.add_geq(LinExpr::var(x).plus_const(-3)); // x >= 3
        p.add_geq(LinExpr::var(x).plus_const(-5)); // x >= 5 (tighter)
        p.add_geq(LinExpr::var(x).plus_const(-1)); // x >= 1
        p.normalize().unwrap();
        assert_eq!(p.geqs().len(), 1);
        assert_eq!(p.geqs()[0].expr().constant(), -5);
    }

    #[test]
    fn opposed_pair_contradiction() {
        let (mut p, x, _) = two_var_problem();
        p.add_geq(LinExpr::var(x).plus_const(-5)); // x >= 5
        p.add_geq(LinExpr::term(-1, x).plus_const(3)); // x <= 3
        assert_eq!(p.normalize().unwrap(), Outcome::Infeasible);
    }

    #[test]
    fn opposed_pair_coalesces_to_equality() {
        let (mut p, x, _) = two_var_problem();
        p.add_geq(LinExpr::var(x).plus_const(-4)); // x >= 4
        p.add_geq(LinExpr::term(-1, x).plus_const(4)); // x <= 4
        assert_eq!(p.normalize().unwrap(), Outcome::Consistent);
        assert_eq!(p.geqs().len(), 0);
        assert_eq!(p.eqs().len(), 1);
        assert!(p.satisfies(&[4, 0]));
        assert!(!p.satisfies(&[5, 0]));
    }

    #[test]
    fn opposed_pair_via_gcd_tightening() {
        // 2x >= 3 and 2x <= 4: tightening gives x >= 2 and x <= 2 -> x == 2.
        let (mut p, x, _) = two_var_problem();
        p.add_geq(LinExpr::term(2, x).plus_const(-3));
        p.add_geq(LinExpr::term(-2, x).plus_const(4));
        assert_eq!(p.normalize().unwrap(), Outcome::Consistent);
        assert_eq!(p.eqs().len(), 1);
        assert!(p.satisfies(&[2, 0]));
    }

    #[test]
    fn direction_hash_is_shared_by_opposite_vectors() {
        for v in [vec![3, -1, 0, 2], vec![0, -5, 7], vec![-1], vec![0, 0]] {
            let neg: Vec<Coef> = v.iter().map(|&c| -c).collect();
            let (h, flipped) = direction_hash(&v);
            let (h_neg, neg_flipped) = direction_hash(&neg);
            assert_eq!(h, h_neg, "{v:?}");
            let nonzero = v.iter().any(|&c| c != 0);
            assert_eq!(neg_flipped, nonzero && !flipped, "{v:?}");
            assert_eq!(flipped, v.iter().find(|&&c| c != 0).is_some_and(|&c| c < 0));
        }
    }

    #[test]
    fn single_implies_same_direction() {
        let (_, x, _) = two_var_problem();
        let tight = Constraint::geq(LinExpr::var(x).plus_const(-5));
        let loose = Constraint::geq(LinExpr::var(x).plus_const(-3));
        assert!(single_implies(&tight, &loose));
        assert!(!single_implies(&loose, &tight));
    }

    #[test]
    fn equality_implies_scaled_inequality() {
        let (_, x, y) = two_var_problem();
        // x - y == 0 implies 2x - 2y + 3 >= 0.
        let e = Constraint::eq(LinExpr::var(x).plus_term(-1, y));
        let f = Constraint::geq(LinExpr::term(2, x).plus_term(-2, y).plus_const(3));
        assert!(single_implies(&e, &f));
        // ... and implies -3x + 3y >= 0 (lambda = -3).
        let g = Constraint::geq(LinExpr::term(-3, x).plus_term(3, y));
        assert!(single_implies(&e, &g));
        // ... but not 2x - 2y - 1 >= 0.
        let h = Constraint::geq(LinExpr::term(2, x).plus_term(-2, y).plus_const(-1));
        assert!(!single_implies(&e, &h));
    }
}
