//! Integer satisfiability via the Omega test.

use crate::cache::{self, CachedValue, MemoKey};
use crate::canon::{canonicalize_for_sat, CanonKey, Op};
use crate::problem::{Budget, Problem};
use crate::tableau;
use crate::Result;

impl Problem {
    /// Decides whether the conjunction has an **integer** solution.
    ///
    /// Uses the default work budget; see
    /// [`is_satisfiable_with`](Problem::is_satisfiable_with) to control it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overflow`](crate::Error::Overflow) or
    /// [`Error::TooComplex`](crate::Error::TooComplex) on pathological
    /// inputs; both are rare in dependence analysis practice.
    ///
    /// # Examples
    ///
    /// ```
    /// use omega::{LinExpr, Problem, VarKind};
    ///
    /// let mut p = Problem::new();
    /// let x = p.add_var("x", VarKind::Input);
    /// // 2x == 1 has a real solution but no integer one.
    /// p.add_eq(LinExpr::term(2, x).plus_const(-1));
    /// assert!(!p.is_satisfiable()?);
    /// # Ok::<(), omega::Error>(())
    /// ```
    pub fn is_satisfiable(&self) -> Result<bool> {
        self.is_satisfiable_with(&mut Budget::default())
    }

    /// Satisfiability with an explicit work budget.
    ///
    /// # Errors
    ///
    /// See [`is_satisfiable`](Problem::is_satisfiable).
    pub fn is_satisfiable_with(&self, budget: &mut Budget) -> Result<bool> {
        let Some(cache) = budget.active_cache() else {
            return tableau::sat_problem(self, budget);
        };
        let mut p = self.clone();
        if p.vars.iter().any(|v| v.protected) {
            let vars = p.vars_mut();
            for v in vars.iter_mut() {
                v.protected = false;
            }
        }
        // Colors and constraint order do not affect the verdict, so solve
        // the blackened canonical form: the verdict is then a pure
        // function of the key.
        cache.note_full_canon();
        let cp = canonicalize_for_sat(&p);
        let key = MemoKey::Full(CanonKey::new(Op::Sat, &cp));
        cache::with_memo(
            budget,
            cache,
            key,
            |&v| CachedValue::Sat(v),
            |v| match v {
                CachedValue::Sat(b) => Some(b),
                _ => None,
            },
            move |b, _| tableau::sat_problem(&cp, b),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::linexpr::LinExpr;
    use crate::problem::Problem;
    use crate::var::VarKind;

    fn vars2() -> (Problem, crate::VarId, crate::VarId) {
        let mut p = Problem::new();
        let x = p.add_var("x", VarKind::Input);
        let y = p.add_var("y", VarKind::Input);
        (p, x, y)
    }

    #[test]
    fn empty_problem_is_satisfiable() {
        assert!(Problem::new().is_satisfiable().unwrap());
    }

    #[test]
    fn simple_box_is_satisfiable() {
        let (mut p, x, y) = vars2();
        p.add_geq(LinExpr::var(x).plus_const(-1));
        p.add_geq(LinExpr::term(-1, x).plus_const(10));
        p.add_geq(LinExpr::var(y).plus_term(-1, x));
        assert!(p.is_satisfiable().unwrap());
    }

    #[test]
    fn empty_interval_is_unsatisfiable() {
        let (mut p, x, _) = vars2();
        p.add_geq(LinExpr::var(x).plus_const(-5)); // x >= 5
        p.add_geq(LinExpr::term(-1, x).plus_const(4)); // x <= 4
        assert!(!p.is_satisfiable().unwrap());
    }

    #[test]
    fn integer_gap_detected() {
        // 2 <= 3x <= 4 requires 3x in {2,3,4}: x = 1 works. But
        // 4 <= 3x <= 5 has no integer x.
        let (mut p, x, _) = vars2();
        p.add_geq(LinExpr::term(3, x).plus_const(-4));
        p.add_geq(LinExpr::term(-3, x).plus_const(5));
        assert!(!p.is_satisfiable().unwrap());

        let (mut q, x, _) = vars2();
        q.add_geq(LinExpr::term(3, x).plus_const(-2));
        q.add_geq(LinExpr::term(-3, x).plus_const(4));
        assert!(q.is_satisfiable().unwrap());
    }

    #[test]
    fn dark_shadow_shortcut_finds_solution() {
        // 2y <= 2x + 1 and 2x <= 2y + 1: x = y integer solutions.
        let (mut p, x, y) = vars2();
        p.add_geq(LinExpr::term(2, x).plus_term(-2, y).plus_const(1));
        p.add_geq(LinExpr::term(-2, x).plus_term(2, y).plus_const(1));
        assert!(p.is_satisfiable().unwrap());
    }

    #[test]
    fn splinter_case_knapsack() {
        // The classic splinter example: 3x + 5y = 12 with 0 <= x,y <= 10:
        // x=4,y=0 works. Then 3x + 5y = 7 with x,y >= 0: no... actually
        // x=4? 3*4=12>7. 7 = 3*4/... 7-5=2 not div 3; 7-0=7 not div 3;
        // no non-negative solution.
        let (mut p, x, y) = vars2();
        p.add_eq(LinExpr::term(3, x).plus_term(5, y).plus_const(-12));
        p.add_geq(LinExpr::var(x));
        p.add_geq(LinExpr::var(y));
        assert!(p.is_satisfiable().unwrap());

        let (mut q, x, y) = vars2();
        q.add_eq(LinExpr::term(3, x).plus_term(5, y).plus_const(-7));
        q.add_geq(LinExpr::var(x));
        q.add_geq(LinExpr::var(y));
        assert!(!q.is_satisfiable().unwrap());
    }

    #[test]
    fn inexact_inequalities_requiring_splinters() {
        // From Pugh '91 discussion: constraints where real shadow is
        // nonempty, dark shadow empty, but an integer point exists only in
        // a splinter. 3 <= 2x - 3y... construct: 2x = 3y exactly has
        // solutions (x=3,y=2); express as inequalities 2x >= 3y and
        // 2x <= 3y with box 1 <= x,y <= 10.
        let (mut p, x, y) = vars2();
        p.add_geq(LinExpr::term(2, x).plus_term(-3, y));
        p.add_geq(LinExpr::term(-2, x).plus_term(3, y)); // coalesces to eq
        p.add_geq(LinExpr::var(x).plus_const(-1));
        p.add_geq(LinExpr::var(y).plus_const(-1));
        p.add_geq(LinExpr::term(-1, x).plus_const(10));
        p.add_geq(LinExpr::term(-1, y).plus_const(10));
        assert!(p.is_satisfiable().unwrap());
    }

    #[test]
    fn symbolic_variables_participate() {
        // 1 <= x <= n is satisfiable (choose n >= 1) but
        // 1 <= x <= n && n <= 0 is not.
        let mut p = Problem::new();
        let x = p.add_var("x", VarKind::Input);
        let n = p.add_var("n", VarKind::Symbolic);
        p.add_geq(LinExpr::var(x).plus_const(-1));
        p.add_geq(LinExpr::var(n).plus_term(-1, x));
        assert!(p.is_satisfiable().unwrap());
        p.add_geq(LinExpr::term(-1, n));
        assert!(!p.is_satisfiable().unwrap());
    }

    #[test]
    fn brute_force_cross_check_random_inequalities() {
        // Deterministic pseudo-random cross-check against brute force on a
        // small box. Uses a simple LCG to stay dependency-free here.
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 11) as i64 - 5
        };
        for trial in 0..300 {
            let mut p = Problem::new();
            let x = p.add_var("x", VarKind::Input);
            let y = p.add_var("y", VarKind::Input);
            // Box [-4, 4]^2 to keep brute force fast and the problem bounded.
            p.add_geq(LinExpr::var(x).plus_const(4));
            p.add_geq(LinExpr::term(-1, x).plus_const(4));
            p.add_geq(LinExpr::var(y).plus_const(4));
            p.add_geq(LinExpr::term(-1, y).plus_const(4));
            for _ in 0..3 {
                let (a, b, c) = (next(), next(), next());
                p.add_geq(LinExpr::term(a, x).plus_term(b, y).plus_const(c));
            }
            let brute = {
                let mut found = false;
                'outer: for xv in -4..=4 {
                    for yv in -4..=4 {
                        if p.satisfies(&[xv, yv]) {
                            found = true;
                            break 'outer;
                        }
                    }
                }
                found
            };
            assert_eq!(
                p.is_satisfiable().unwrap(),
                brute,
                "trial {trial} disagreed with brute force: {p:?}"
            );
        }
    }

    /// Whether any point of `[lo, hi]^n` satisfies `p`.
    fn brute_force_sat(p: &Problem, lo: i64, hi: i64) -> bool {
        let n = p.num_vars();
        let mut vals = vec![lo; n];
        loop {
            if p.satisfies(&vals) {
                return true;
            }
            let mut i = 0;
            loop {
                if i == n {
                    return false;
                }
                vals[i] += 1;
                if vals[i] <= hi {
                    break;
                }
                vals[i] = lo;
                i += 1;
            }
        }
    }

    #[test]
    fn cross_check_diophantine_against_brute_force() {
        // For a grid of (a, b, c): a·x + b·y = c over x,y ∈ [-8, 8].
        for a in 2..=5i64 {
            for bb in 2..=5i64 {
                for c in -6..=6i64 {
                    let mut p = Problem::new();
                    let x = p.add_var("x", VarKind::Input);
                    let y = p.add_var("y", VarKind::Input);
                    p.add_eq(LinExpr::term(a, x).plus_term(bb, y).plus_const(-c));
                    // Keep the box bounds so brute force and solver agree.
                    p.add_geq(LinExpr::var(x).plus_const(8));
                    p.add_geq(LinExpr::term(-1, x).plus_const(8));
                    p.add_geq(LinExpr::var(y).plus_const(8));
                    p.add_geq(LinExpr::term(-1, y).plus_const(8));
                    let brute = brute_force_sat(&p, -8, 8);
                    let solved = p.is_satisfiable().unwrap();
                    assert_eq!(solved, brute, "mismatch for {a}x + {bb}y = {c}");
                }
            }
        }
    }
}
