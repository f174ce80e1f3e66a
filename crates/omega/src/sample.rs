//! Witness extraction: produce an explicit integer solution of a
//! satisfiable problem by running the elimination forward on the tableau
//! kernel and assigning values on the way back (back-substitution through
//! its substitution, mod̂ and Fourier–Motzkin steps).
//!
//! Not part of the 1992 paper, but invaluable for validating the solver:
//! every "satisfiable" answer can be certified by a concrete point.

use std::collections::BTreeMap;

use crate::int::Coef;
use crate::problem::{Budget, Problem};
use crate::var::VarId;
use crate::Result;

impl Problem {
    /// Finds an integer solution, if one exists.
    ///
    /// The returned map assigns every variable of the problem (and every
    /// column a constraint mentions beyond its table); free variables get
    /// an arbitrary value.
    /// The witness always satisfies the problem — this is checked in
    /// debug builds.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (overflow, exhausted budget).
    ///
    /// # Examples
    ///
    /// ```
    /// use omega::{LinExpr, Problem, VarKind};
    ///
    /// let mut p = Problem::new();
    /// let x = p.add_var("x", VarKind::Input);
    /// let y = p.add_var("y", VarKind::Input);
    /// p.add_eq(LinExpr::term(3, x).plus_term(5, y).plus_const(-12));
    /// p.add_geq(LinExpr::var(x));
    /// p.add_geq(LinExpr::var(y));
    /// let sol = p.sample_solution()?.expect("3x + 5y = 12 is solvable");
    /// let xv = sol[&x];
    /// let yv = sol[&y];
    /// assert_eq!(3 * xv + 5 * yv, 12);
    /// assert!(xv >= 0 && yv >= 0);
    /// # Ok::<(), omega::Error>(())
    /// ```
    pub fn sample_solution(&self) -> Result<Option<BTreeMap<VarId, Coef>>> {
        let Some(vals) = crate::tableau::sample_problem(self, &mut Budget::default())? else {
            return Ok(None);
        };
        debug_assert!(
            self.satisfies(&vals),
            "witness {vals:?} does not satisfy {self}"
        );
        Ok(Some(
            vals.into_iter()
                .enumerate()
                .map(|(i, c)| (VarId::from_index(i), c))
                .collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;
    use crate::var::VarKind;

    fn vars2() -> (Problem, VarId, VarId) {
        let mut p = Problem::new();
        let x = p.add_var("x", VarKind::Input);
        let y = p.add_var("y", VarKind::Input);
        (p, x, y)
    }

    fn check_witness(p: &Problem) {
        let sol = p
            .sample_solution()
            .unwrap()
            .unwrap_or_else(|| panic!("expected satisfiable: {p}"));
        let dense: Vec<Coef> = sol.values().copied().collect();
        assert!(p.satisfies(&dense), "witness {sol:?} fails {p}");
    }

    #[test]
    fn box_witness() {
        let (mut p, x, y) = vars2();
        p.add_geq(LinExpr::var(x).plus_const(-3));
        p.add_geq(LinExpr::term(-1, x).plus_const(7));
        p.add_geq(LinExpr::var(y).plus_term(-1, x));
        check_witness(&p);
    }

    #[test]
    fn diophantine_witness() {
        let (mut p, x, y) = vars2();
        p.add_eq(LinExpr::term(7, x).plus_term(12, y).plus_const(-31));
        check_witness(&p);
        let sol = p.sample_solution().unwrap().unwrap();
        assert_eq!(7 * sol[&x] + 12 * sol[&y], 31);
    }

    #[test]
    fn unsat_yields_none() {
        let (mut p, x, _) = vars2();
        p.add_geq(LinExpr::var(x).plus_const(-5));
        p.add_geq(LinExpr::term(-1, x).plus_const(4));
        assert!(p.sample_solution().unwrap().is_none());

        let (mut q, x, _) = vars2();
        q.add_eq(LinExpr::term(2, x).plus_const(-1));
        assert!(q.sample_solution().unwrap().is_none());
    }

    #[test]
    fn splinter_witness() {
        // Requires the inexact machinery: 3x ≡ 0 (mod), tight band.
        let (mut p, x, y) = vars2();
        p.add_geq(LinExpr::term(3, x).plus_term(-2, y));
        p.add_geq(LinExpr::term(-3, x).plus_term(2, y));
        p.add_geq(LinExpr::var(y).plus_const(-3));
        p.add_geq(LinExpr::term(-1, y).plus_const(30));
        check_witness(&p);
    }

    #[test]
    fn unbounded_problem_witness() {
        let (mut p, x, y) = vars2();
        p.add_geq(LinExpr::var(x).plus_term(1, y));
        check_witness(&p);
    }

    #[test]
    fn witness_matches_sat_on_grid() {
        // For a grid of problems, sample_solution() is Some iff
        // is_satisfiable(), and the witness always checks out.
        for a in -3i64..=3 {
            for b in -3i64..=3 {
                for c in -5i64..=5 {
                    if a == 0 && b == 0 {
                        continue;
                    }
                    let (mut p, x, y) = vars2();
                    p.add_geq(LinExpr::term(a, x).plus_term(b, y).plus_const(c));
                    p.add_geq(LinExpr::var(x).plus_const(4));
                    p.add_geq(LinExpr::term(-1, x).plus_const(4));
                    p.add_geq(LinExpr::var(y).plus_const(4));
                    p.add_geq(LinExpr::term(-1, y).plus_const(4));
                    p.add_eq(LinExpr::term(2, x).plus_term(3, y).plus_const(-1));
                    let sat = p.is_satisfiable().unwrap();
                    let sol = p.sample_solution().unwrap();
                    assert_eq!(sat, sol.is_some(), "{p}");
                    if let Some(sol) = sol {
                        let dense: Vec<Coef> = sol.values().copied().collect();
                        assert!(p.satisfies(&dense));
                    }
                }
            }
        }
    }
}
