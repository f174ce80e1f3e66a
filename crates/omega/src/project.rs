//! Exact projection: the integer shadow of a problem on a subset of its
//! variables, reported as dark shadow + splinters + real shadow (§3).

use crate::cache::{self, CachedValue, MemoKey};
use crate::canon::{canonicalize, CanonKey, Op};
use crate::problem::{Budget, Problem};
use crate::tableau;
use crate::var::VarId;
use crate::Result;

/// The result of projecting a problem onto a set of protected variables.
///
/// Writing `S` for the original problem, the paper's decomposition is
///
/// ```text
/// π(S) = S₀ ∪ S₁ ∪ … ∪ Sₚ ⊆ T
/// ```
///
/// where `S₀` is the **dark shadow** ([`Projection::dark`]), the `Sᵢ` are
/// the **splinters** ([`Projection::splinters`]), and `T` is the **real
/// shadow** ([`Projection::real`]). When no splintering occurred
/// ([`Projection::is_exact`]), `S₀` alone *is* the projection and equals
/// `T`'s integer points.
#[derive(Debug, Clone)]
pub struct Projection {
    pub(crate) dark: Problem,
    pub(crate) splinters: Vec<Problem>,
    pub(crate) real: Problem,
    pub(crate) exact: bool,
}

impl Projection {
    /// `S₀`: every integer point of the dark shadow lifts to a solution of
    /// the original problem.
    pub fn dark(&self) -> &Problem {
        &self.dark
    }

    /// `S₁…Sₚ`: the splinter problems (already fully projected).
    pub fn splinters(&self) -> &[Problem] {
        &self.splinters
    }

    /// `T`: the real shadow — a superset of the projection that may contain
    /// points with only real (non-integer) witnesses.
    pub fn real(&self) -> &Problem {
        &self.real
    }

    /// True when `dark()` alone is the exact projection.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// All pieces of the exact projection: the dark shadow followed by the
    /// splinters, less any piece normalization already found infeasible.
    pub fn problems(&self) -> impl Iterator<Item = &Problem> {
        std::iter::once(&self.dark)
            .chain(self.splinters.iter())
            .filter(|p| !p.is_known_infeasible())
    }

    /// Consumes the projection, returning the union pieces of
    /// [`problems`](Projection::problems).
    pub fn into_problems(self) -> Vec<Problem> {
        std::iter::once(self.dark)
            .chain(self.splinters)
            .filter(|p| !p.is_known_infeasible())
            .collect()
    }
}

impl Problem {
    /// Projects onto `keep`: the result constrains only those variables
    /// (plus symbolic constants listed in `keep`), with the same integer
    /// solutions for them as the original problem.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (overflow, exhausted budget).
    ///
    /// # Examples
    ///
    /// The paper's example: projecting `{0 ≤ a ≤ 5, b < a ≤ 5b}` onto `a`
    /// gives `{2 ≤ a ≤ 5}`.
    ///
    /// ```
    /// use omega::{LinExpr, Problem, VarKind};
    ///
    /// let mut p = Problem::new();
    /// let a = p.add_var("a", VarKind::Input);
    /// let b = p.add_var("b", VarKind::Input);
    /// p.add_geq(LinExpr::var(a));
    /// p.add_geq(LinExpr::term(-1, a).plus_const(5));
    /// p.add_geq(LinExpr::var(a).plus_term(-1, b).plus_const(-1));
    /// p.add_geq(LinExpr::term(5, b).plus_term(-1, a));
    /// let proj = p.project(&[a])?;
    /// assert!(proj.is_exact());
    /// let shadow = proj.dark();
    /// assert!(shadow.satisfies(&[2]));
    /// assert!(shadow.satisfies(&[5]));
    /// assert!(!shadow.satisfies(&[1]));
    /// assert!(!shadow.satisfies(&[6]));
    /// # Ok::<(), omega::Error>(())
    /// ```
    pub fn project(&self, keep: &[VarId]) -> Result<Projection> {
        self.project_with(keep, &mut Budget::default())
    }

    /// Projection with an explicit work budget.
    ///
    /// # Errors
    ///
    /// See [`project`](Problem::project).
    pub fn project_with(&self, keep: &[VarId], budget: &mut Budget) -> Result<Projection> {
        let mut p = self.clone();
        for v in p.var_ids().collect::<Vec<_>>() {
            p.set_protected(v, false);
        }
        for &v in keep {
            p.set_protected(v, true);
        }
        if let Some(cache) = budget.active_cache() {
            // Protected flags live in the variable table, so the keep-set
            // is part of the key. The projection is computed on the
            // canonical problem itself, making the cached value a pure
            // function of the key.
            cache.note_full_canon();
            let cp = canonicalize(&p);
            let key = MemoKey::Full(CanonKey::new(Op::Project, &cp));
            return cache::with_memo(
                budget,
                cache,
                key,
                |v: &Projection| CachedValue::Project(v.clone()),
                |v| match v {
                    CachedValue::Project(proj) => Some(proj),
                    _ => None,
                },
                move |b, _| project_prepared(cp, b),
            );
        }
        project_prepared(p, budget)
    }

    /// Projects *away* the listed variables, keeping every other live,
    /// non-wildcard one (the paper's `π¬x`).
    ///
    /// # Errors
    ///
    /// See [`project`](Problem::project).
    pub fn project_away(&self, remove: &[VarId], budget: &mut Budget) -> Result<Projection> {
        let keep: Vec<VarId> = self
            .var_ids()
            .filter(|v| {
                !remove.contains(v)
                    && !self.is_dead(*v)
                    && self.var_info(*v).kind() != crate::VarKind::Wildcard
            })
            .collect();
        self.project_with(&keep, budget)
    }
}

/// Projection body, once protected flags are set on `p`: the elimination
/// runs on the tableau kernel, then the dark shadow and splinters get
/// quick redundancy removal and pinned-variable demotion.
pub(crate) fn project_prepared(p: Problem, budget: &mut Budget) -> Result<Projection> {
    let (real, mut dark, mut splinters, exact) = tableau::project_parts(&p, budget)?;
    dark.remove_redundant_quick();
    demote_pinned(&mut dark);
    for s in &mut splinters {
        s.remove_redundant_quick();
        demote_pinned(s);
    }
    Ok(Projection {
        dark,
        splinters,
        real,
        exact,
    })
}

/// Pinned variables of a projection result are existentials: present them
/// as wildcards so callers treat them uniformly.
fn demote_pinned(p: &mut Problem) {
    if !p.vars.iter().any(|v| v.pinned && !v.dead) {
        return;
    }
    for v in p.vars_mut() {
        if v.pinned && !v.dead {
            v.kind = crate::VarKind::Wildcard;
            v.pinned = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;
    use crate::var::VarKind;

    #[test]
    fn exact_projection_of_triangle() {
        // 1 <= i <= j <= 10, project onto j: 1 <= j <= 10.
        let mut p = Problem::new();
        let i = p.add_var("i", VarKind::Input);
        let j = p.add_var("j", VarKind::Input);
        p.add_geq(LinExpr::var(i).plus_const(-1));
        p.add_geq(LinExpr::var(j).plus_term(-1, i));
        p.add_geq(LinExpr::term(-1, j).plus_const(10));
        let proj = p.project(&[j]).unwrap();
        assert!(proj.is_exact());
        let d = proj.dark();
        assert!(d.satisfies(&[0, 1]));
        assert!(d.satisfies(&[0, 10]));
        assert!(!d.satisfies(&[0, 0]));
        assert!(!d.satisfies(&[0, 11]));
    }

    #[test]
    fn projection_keeps_symbolic_constraints() {
        // 1 <= x <= n, project away x: requires n >= 1.
        let mut p = Problem::new();
        let x = p.add_var("x", VarKind::Input);
        let n = p.add_var("n", VarKind::Symbolic);
        p.add_geq(LinExpr::var(x).plus_const(-1));
        p.add_geq(LinExpr::var(n).plus_term(-1, x));
        let proj = p.project_away(&[x], &mut Budget::default()).unwrap();
        assert!(proj.is_exact());
        assert!(proj.dark().satisfies(&[0, 1]));
        assert!(!proj.dark().satisfies(&[0, 0]));
    }

    #[test]
    fn projection_with_equalities_substitutes() {
        // x = 2y, 0 <= x <= 10: projecting onto y gives 0 <= y <= 5.
        let mut p = Problem::new();
        let x = p.add_var("x", VarKind::Input);
        let y = p.add_var("y", VarKind::Input);
        p.add_eq(LinExpr::var(x).plus_term(-2, y));
        p.add_geq(LinExpr::var(x));
        p.add_geq(LinExpr::term(-1, x).plus_const(10));
        let proj = p.project(&[y]).unwrap();
        assert!(proj.is_exact());
        let d = proj.dark();
        for yv in -3..=8 {
            assert_eq!(d.satisfies(&[0, yv]), (0..=5).contains(&yv), "y = {yv}");
        }
    }

    #[test]
    fn projection_onto_even_numbers_splinters_or_strides() {
        // x = 2y (y unbounded) projected onto x: x even. The equality
        // forces a wildcard/stride representation; check membership via
        // satisfiability of the union with x pinned.
        let mut p = Problem::new();
        let x = p.add_var("x", VarKind::Input);
        let y = p.add_var("y", VarKind::Input);
        p.add_eq(LinExpr::var(x).plus_term(-2, y));
        p.add_geq(LinExpr::var(y)); // y >= 0 so x >= 0
        p.add_geq(LinExpr::term(-1, y).plus_const(50));
        let proj = p.project(&[x]).unwrap();
        for xv in 0..=12 {
            let member = proj.problems().any(|piece| {
                let mut q = piece.clone();
                let xq = q.find_var("x").unwrap();
                q.add_eq(LinExpr::var(xq).plus_const(-xv));
                q.is_satisfiable().unwrap()
            });
            assert_eq!(member, xv % 2 == 0, "x = {xv}");
        }
    }

    #[test]
    fn real_shadow_is_superset() {
        // Inexact case: 2x <= y <= 3x with, say, 4 <= y <= 5... pick a
        // problem that splinters when eliminating x: 3x >= y, 2x <= y - 1.
        let mut p = Problem::new();
        let x = p.add_var("x", VarKind::Input);
        let y = p.add_var("y", VarKind::Input);
        p.add_geq(LinExpr::term(3, x).plus_term(-1, y));
        p.add_geq(LinExpr::term(-2, x).plus_term(1, y).plus_const(-1));
        p.add_geq(LinExpr::var(y));
        p.add_geq(LinExpr::term(-1, y).plus_const(20));
        let proj = p.project(&[y]).unwrap();
        // Any y in the union must satisfy the real shadow too.
        for yv in 0..=20 {
            let in_union = proj.problems().any(|piece| {
                let mut q = piece.clone();
                let yq = q.find_var("y").unwrap();
                q.add_eq(LinExpr::var(yq).plus_const(-yv));
                q.is_satisfiable().unwrap()
            });
            if in_union {
                let mut r = proj.real().clone();
                let yr = r.find_var("y").unwrap();
                r.add_eq(LinExpr::var(yr).plus_const(-yv));
                assert!(r.is_satisfiable().unwrap(), "real shadow missing y={yv}");
            }
        }
    }

    #[test]
    fn elimination_cases_project_to_their_integer_shadows() {
        // Each case states equalities and inequalities over (x, y) as rows
        // (a, b, c) meaning a·x + b·y + c, projects onto x, and checks the
        // exactness flag and every x in a window against the expected
        // integer shadow.
        type Rows = &'static [(i64, i64, i64)];
        type Case = (&'static str, Rows, Rows, bool, fn(i64) -> bool);
        let cases: [Case; 10] = [
            (
                "unit substitution",
                &[(1, -1, -2), (1, 1, -10)],
                &[],
                true,
                |x| x == 6,
            ),
            (
                "contradiction",
                &[(1, 0, -2), (1, 0, -3)],
                &[],
                true,
                |_| false,
            ),
            ("gcd test", &[(3, 6, -2)], &[], true, |_| false),
            // No unit coefficient: mod̂ steps must keep x ≡ 1 (mod 12).
            ("mod hat", &[(7, 12, -31)], &[], true, |x| (x - 1) % 12 == 0),
            (
                "protected x kept",
                &[(1, -1, -1)],
                &[(0, 1, -3)],
                true,
                |x| x >= 4,
            ),
            // y has no eliminable pivot: pinned, leaving a stride.
            ("stride residue", &[(1, -2, 0)], &[(0, 1, -5)], true, |x| {
                x >= 10 && x % 2 == 0
            }),
            ("unbounded y", &[], &[(1, -1, 0)], true, |_| true),
            ("unit bounds", &[], &[(-1, 1, 0), (0, -1, 10)], true, |x| {
                x <= 10
            }),
            // §3: 0 <= a <= 5, b < a <= 5b has shadow 2 <= a <= 5.
            (
                "paper §3",
                &[],
                &[(1, 0, 0), (-1, 0, 5), (1, -1, -1), (-1, 5, 0)],
                true,
                |x| (2..=5).contains(&x),
            ),
            // Bounds 3y >= x and 2y <= x - 1 on y pair coefficients 3
            // and 2: the elimination splinters.
            (
                "splinters",
                &[],
                &[(-1, 3, 0), (1, -2, -1), (1, 0, 0), (-1, 0, 20)],
                false,
                |x| (0..=20).contains(&x) && (0..=10).any(|y| x <= 3 * y && 2 * y < x),
            ),
        ];
        for (name, eqs, geqs, exact, shadow) in cases {
            let mut p = Problem::new();
            let x = p.add_var("x", VarKind::Input);
            let y = p.add_var("y", VarKind::Input);
            let row =
                |&(a, b, c): &(i64, i64, i64)| LinExpr::term(a, x).plus_term(b, y).plus_const(c);
            eqs.iter().for_each(|r| p.add_eq(row(r)));
            geqs.iter().for_each(|r| p.add_geq(row(r)));
            let proj = p.project(&[x]).unwrap();
            assert_eq!(proj.is_exact(), exact, "{name}");
            for xv in -13..=26 {
                let member = proj.problems().any(|piece| {
                    let mut q = piece.clone();
                    q.add_eq(LinExpr::var(x).plus_const(-xv));
                    q.is_satisfiable().unwrap()
                });
                assert_eq!(member, shadow(xv), "{name}: x = {xv}");
            }
        }
    }

    #[test]
    fn projection_union_matches_brute_force() {
        // Exhaustive check of the union semantics on an inexact problem.
        let mut p = Problem::new();
        let x = p.add_var("x", VarKind::Input);
        let y = p.add_var("y", VarKind::Input);
        // 2x <= 3y <= 2x + 2, 0 <= x <= 15 - brute force over y.
        p.add_geq(LinExpr::term(3, y).plus_term(-2, x));
        p.add_geq(LinExpr::term(2, x).plus_term(-3, y).plus_const(2));
        p.add_geq(LinExpr::var(x));
        p.add_geq(LinExpr::term(-1, x).plus_const(15));
        let proj = p.project(&[y]).unwrap();
        for yv in -2..=13 {
            let brute = (0..=15).any(|xv| p.satisfies(&[xv, yv]));
            let union = proj.problems().any(|piece| {
                let mut q = piece.clone();
                let yq = q.find_var("y").unwrap();
                q.add_eq(LinExpr::var(yq).plus_const(-yv));
                q.is_satisfiable().unwrap()
            });
            assert_eq!(union, brute, "y = {yv}");
        }
    }
}
