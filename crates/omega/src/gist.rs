//! Gist computation (§3.3): `gist p given q` is a minimal conjunction `g`
//! drawn from `p`'s constraints with `g ∧ q ≡ p ∧ q` — "the new information
//! in `p`, given that we already know `q`".

use crate::cache::{self, CachedValue, MemoKey};
use crate::canon::{canonicalize, CanonKey, Op};
use crate::linexpr::{Color, Constraint};
use crate::normalize::{single_implies, Outcome};
use crate::problem::{Budget, Problem};
use crate::redundant::{negate_geq, split_equality};
use crate::var::VarId;
use crate::{Error, Result};

/// Computes `gist p given q`.
///
/// `p` and `q` must share a variable table. The result is a problem over
/// the same table containing a minimal subset of `p`'s constraints; it is
/// trivially true exactly when `q ⇒ p`, and marked infeasible when
/// `p ∧ q` is unsatisfiable.
///
/// # Errors
///
/// Returns [`Error::SpaceMismatch`] for incompatible tables and propagates
/// solver errors.
///
/// # Examples
///
/// ```
/// use omega::{gist, LinExpr, Problem, VarKind};
///
/// let mut space = Problem::new();
/// let x = space.add_var(VarKind::Input);
///
/// let mut p = space.clone();
/// p.add_geq(LinExpr::var(x).plus_const(-1));            // x >= 1
/// p.add_geq(LinExpr::term(-1, x).plus_const(50));       // x <= 50
///
/// let mut q = space.clone();
/// q.add_geq(LinExpr::term(-1, x).plus_const(50));       // x <= 50 (known)
///
/// let g = gist(&p, &q)?;
/// // Only "x >= 1" is new information.
/// assert_eq!(g.geqs().len(), 1);
/// assert_eq!(g.geqs()[0].expr().coef(x), 1);
/// # Ok::<(), omega::Error>(())
/// ```
pub fn gist(p: &Problem, q: &Problem) -> Result<Problem> {
    gist_with(p, q, &mut Budget::default())
}

/// [`gist`] with an explicit work budget.
///
/// # Errors
///
/// See [`gist`].
pub fn gist_with(p: &Problem, q: &Problem, budget: &mut Budget) -> Result<Problem> {
    let mut combined = q.clone();
    combined.blacken();
    combined.and_colored(p, Color::Red)?;
    combined.gist_red(budget)
}

/// Decides whether `p ⇒ q` is a tautology (over all integer values of the
/// shared variables).
///
/// Implemented as in §3.3.1: `q_i` is implied iff `p ∧ ¬q_i` is
/// unsatisfiable, with syntactic short-circuits; equivalently the gist of
/// `q` given `p` is `True`.
///
/// # Errors
///
/// Returns [`Error::SpaceMismatch`] for incompatible tables and propagates
/// solver errors.
///
/// # Examples
///
/// ```
/// use omega::{implies, LinExpr, Problem, VarKind};
///
/// let mut space = Problem::new();
/// let x = space.add_var(VarKind::Input);
///
/// let mut p = space.clone();
/// p.add_geq(LinExpr::var(x).plus_const(-5)); // x >= 5
/// let mut q = space.clone();
/// q.add_geq(LinExpr::var(x).plus_const(-1)); // x >= 1
///
/// assert!(implies(&p, &q)?);
/// assert!(!implies(&q, &p)?);
/// # Ok::<(), omega::Error>(())
/// ```
pub fn implies(p: &Problem, q: &Problem) -> Result<bool> {
    implies_with(p, q, &mut Budget::default())
}

/// [`implies`] with an explicit work budget.
///
/// # Errors
///
/// See [`implies`].
pub fn implies_with(p: &Problem, q: &Problem, budget: &mut Budget) -> Result<bool> {
    if !p.same_space(q) {
        return Err(Error::SpaceMismatch);
    }
    // q may carry extra (wildcard) columns from a projection; widen p's
    // table so its clones can hold q's constraints.
    let mut p = p.clone();
    p.extend_space_to(q)?;
    let p = &p;
    // Vacuous truth: if p is unsatisfiable, p ⇒ q holds.
    if !p.is_satisfiable_with(budget)? {
        return Ok(true);
    }
    let mut targets: Vec<Constraint> = Vec::new();
    for c in q.eqs() {
        targets.extend(split_equality(c));
    }
    targets.extend(q.geqs().iter().cloned());

    let p_constraints: Vec<&Constraint> = p.eqs().iter().chain(p.geqs()).collect();
    for t in &targets {
        // Syntactic short-circuit.
        if p_constraints.iter().any(|c| single_implies(c, t)) {
            continue;
        }
        let mut test = p.clone();
        test.blacken();
        test.add_constraint(Constraint::geq(negate_geq(t.expr())));
        budget.spend(1)?;
        if test.is_satisfiable_with(budget)? {
            return Ok(false);
        }
    }
    Ok(true)
}

impl Problem {
    /// Computes the gist of this problem's red constraints given its black
    /// ones, consuming the colors (the result is all-black).
    ///
    /// This is the workhorse behind [`gist`] and the combined
    /// projection-plus-gist of §3.3.2.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn gist_red(&self, budget: &mut Budget) -> Result<Problem> {
        if let Some(cache) = budget.active_cache() {
            // Colors carry the red/black split, so the canonical form
            // keeps them; the gist is computed on the canonical problem
            // itself so the cached value is a pure function of the key.
            cache.note_full_canon();
            let cp = canonicalize(self);
            let key = MemoKey::Full(CanonKey::new(Op::Gist, &cp));
            return cache::with_memo(
                budget,
                cache,
                key,
                |v: &Problem| CachedValue::Gist(v.clone()),
                |v| match v {
                    CachedValue::Gist(g) => Some(g),
                    _ => None,
                },
                move |b, _| cp.gist_red_inner(b),
            );
        }
        self.gist_red_inner(budget)
    }

    fn gist_red_inner(&self, budget: &mut Budget) -> Result<Problem> {
        let mut work = self.clone();
        if work.normalize()? == Outcome::Infeasible {
            // p ∧ q unsatisfiable: the paper leaves this case to context;
            // we report an (explicitly) infeasible problem.
            let mut out = empty_like(&work);
            out.known_infeasible = true;
            out.add_geq(crate::LinExpr::constant_expr(-1));
            return Ok(out);
        }

        // Convert red equalities into inequality pairs (§3.3).
        let mut base = empty_like(&work);
        let mut reds: Vec<Constraint> = Vec::new();
        for c in work.eqs() {
            if c.color() == Color::Red {
                reds.extend(split_equality(c));
            } else {
                base.add_constraint(c.clone());
            }
        }
        for c in work.geqs() {
            if c.color() == Color::Red {
                reds.push(c.clone());
            } else {
                base.add_constraint(c.clone());
            }
        }

        let n = reds.len();
        let mut dropped = vec![false; n];
        let mut essential = vec![false; n];

        // Fast check 1: implied by a single constraint of p or q.
        let blacks: Vec<&Constraint> = base.eqs().iter().chain(base.geqs()).collect();
        for i in 0..n {
            let by_black = blacks.iter().any(|c| single_implies(c, &reds[i]));
            let by_red = (0..n).any(|j| {
                j != i && !dropped[j] && single_implies(&reds[j], &reds[i]) && {
                    let identical = reds[j].row == reds[i].row;
                    !(identical && j > i)
                }
            });
            if by_black || by_red {
                dropped[i] = true;
            }
        }

        // Fast check 2 (bound presence) + 3 (normal inner products):
        // a red constraint whose direction is not even partially opposed
        // or shared by any other constraint must be in the gist.
        for i in 0..n {
            if dropped[i] {
                continue;
            }
            let has_support = blacks
                .iter()
                .map(|c| c.expr())
                .chain(
                    (0..n)
                        .filter(|&j| j != i && !dropped[j])
                        .map(|j| reds[j].expr()),
                )
                .any(|e| inner_product_positive(e, reds[i].expr()));
            if !has_support {
                essential[i] = true;
            }
        }

        // Fast check 4: implied by the sum of two other constraints
        // (e.g. x >= 1 ∧ y >= 2 imply x + y >= 3) — the paper's
        // "implied by any two constraints in p and/or q".
        for i in 0..n {
            if dropped[i] || essential[i] {
                continue;
            }
            let others: Vec<&Constraint> = blacks
                .iter()
                .copied()
                .chain((0..n).filter(|&j| j != i && !dropped[j]).map(|j| &reds[j]))
                .collect();
            'pairs: for (a_idx, a) in others.iter().enumerate() {
                for b in &others[a_idx + 1..] {
                    if pair_sum_implies(a, b, &reds[i]) {
                        dropped[i] = true;
                        break 'pairs;
                    }
                }
            }
        }

        // Naive algorithm on the survivors: e is redundant iff
        // ¬e ∧ (other reds) ∧ q is unsatisfiable.
        for i in 0..n {
            if dropped[i] || essential[i] {
                continue;
            }
            let mut test = base.clone();
            test.blacken();
            for (j, r) in reds.iter().enumerate() {
                if j != i && !dropped[j] {
                    test.add_constraint(r.clone().with_color(Color::Black));
                }
            }
            test.add_constraint(Constraint::geq(negate_geq(reds[i].expr())));
            budget.spend(1)?;
            if !test.is_satisfiable_with(budget)? {
                dropped[i] = true;
            }
        }

        let mut out = empty_like(&work);
        for (i, r) in reds.into_iter().enumerate() {
            if !dropped[i] {
                out.add_constraint(r.with_color(Color::Black));
            }
        }
        // Re-coalesce opposed pairs into equalities for presentation.
        out.normalize()?;
        Ok(out)
    }
}

/// Combined projection and gist (§3.3.2): computes
/// `gist π_keep(p ∧ q) given π_keep(q)` in one pass by tagging `p` red and
/// `q` black, projecting, and taking the gist of the surviving reds.
///
/// Returns `None` when the projection splinters (the gist of a union is
/// not a conjunction); callers fall back to conservative treatment.
///
/// # Errors
///
/// Returns [`Error::SpaceMismatch`] for incompatible tables and propagates
/// solver errors.
pub fn gist_projected(
    p: &Problem,
    q: &Problem,
    keep: &[VarId],
    budget: &mut Budget,
) -> Result<Option<Problem>> {
    let mut combined = q.clone();
    combined.blacken();
    combined.and_colored(p, Color::Red)?;
    let proj = combined.project_with(keep, budget)?;
    if !proj.is_exact() {
        return Ok(None);
    }
    proj.dark().gist_red(budget).map(Some)
}

fn empty_like(p: &Problem) -> Problem {
    Problem {
        vars: p.vars.clone(),
        eqs: Vec::new(),
        geqs: Vec::new(),
        known_infeasible: false,
    }
}

/// Whether `target >= 0` follows from `a >= 0 ∧ b >= 0` because
/// `target = a + b + c` with `c >= 0` (inequalities only).
fn pair_sum_implies(a: &Constraint, b: &Constraint, target: &Constraint) -> bool {
    use crate::Relation;
    if a.relation() != Relation::NonNegative
        || b.relation() != Relation::NonNegative
        || target.relation() != Relation::NonNegative
    {
        return false;
    }
    let Ok(sum) = a.expr().combine(1, 1, b.expr()) else {
        return false;
    };
    if sum.coeffs() != target.expr().coeffs() {
        return false;
    }
    target.expr().constant() >= sum.constant()
}

fn inner_product_positive(a: &crate::LinExpr, b: &crate::LinExpr) -> bool {
    let mut acc: i128 = 0;
    for (v, c) in b.terms() {
        acc += c as i128 * a.coef(v) as i128;
    }
    acc > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;
    use crate::var::VarKind;

    fn space1() -> (Problem, VarId) {
        let mut s = Problem::new();
        let x = s.add_var(VarKind::Input);
        (s, x)
    }

    #[test]
    fn gist_of_known_fact_is_true() {
        let (s, x) = space1();
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x).plus_const(-1));
        let mut q = s.clone();
        q.add_geq(LinExpr::var(x).plus_const(-5)); // x >= 5 already known
        let g = gist(&p, &q).unwrap();
        assert!(g.is_trivially_true(), "gist should be True: {g:?}");
    }

    #[test]
    fn gist_keeps_new_information() {
        let (s, x) = space1();
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x).plus_const(-10)); // x >= 10: new
        let mut q = s.clone();
        q.add_geq(LinExpr::var(x).plus_const(-5));
        let g = gist(&p, &q).unwrap();
        assert_eq!(g.geqs().len(), 1);
        assert_eq!(g.geqs()[0].expr().constant(), -10);
    }

    #[test]
    fn gist_with_combination_redundancy() {
        // q: x >= 2, y >= 3. p: x + y >= 5 (implied by q, but only via a
        // combination, so the naive satisfiability path must find it).
        let mut s = Problem::new();
        let x = s.add_var(VarKind::Input);
        let y = s.add_var(VarKind::Input);
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x).plus_term(1, y).plus_const(-5));
        let mut q = s.clone();
        q.add_geq(LinExpr::var(x).plus_const(-2));
        q.add_geq(LinExpr::var(y).plus_const(-3));
        let g = gist(&p, &q).unwrap();
        assert!(g.is_trivially_true());
    }

    #[test]
    fn gist_semantics_g_and_q_equals_p_and_q() {
        // Exhaustive semantic check on a small box.
        let mut s = Problem::new();
        let x = s.add_var(VarKind::Input);
        let y = s.add_var(VarKind::Input);
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x).plus_term(-1, y)); // x >= y
        p.add_geq(LinExpr::var(x).plus_const(-2)); // x >= 2
        let mut q = s.clone();
        q.add_geq(LinExpr::var(y).plus_const(-3)); // y >= 3 (makes x>=2 redundant? x>=y>=3 -> no, x>=y gives x>=3 so x>=2 redundant)
        let g = gist(&p, &q).unwrap();
        for xv in -1..=6 {
            for yv in -1..=6 {
                let vals = [xv, yv];
                let lhs = g.satisfies(&vals) && q.satisfies(&vals);
                let rhs = p.satisfies(&vals) && q.satisfies(&vals);
                assert_eq!(lhs, rhs, "at ({xv},{yv})");
            }
        }
        // And it should be minimal: only x >= y survives.
        assert_eq!(g.geqs().len(), 1);
    }

    #[test]
    fn gist_of_infeasible_conjunction() {
        let (s, x) = space1();
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x).plus_const(-10)); // x >= 10
        let mut q = s.clone();
        q.add_geq(LinExpr::term(-1, x)); // x <= 0
        let g = gist(&p, &q).unwrap();
        assert!(g.is_known_infeasible());
    }

    #[test]
    fn gist_with_red_equalities() {
        // p: x == 5; q: x >= 5. New information is x <= 5.
        let (s, x) = space1();
        let mut p = s.clone();
        p.add_eq(LinExpr::var(x).plus_const(-5));
        let mut q = s.clone();
        q.add_geq(LinExpr::var(x).plus_const(-5));
        let g = gist(&p, &q).unwrap();
        assert_eq!(g.num_constraints(), 1);
        let c = &g.geqs()[0];
        assert_eq!(c.expr().coef(x), -1);
        assert_eq!(c.expr().constant(), 5);
    }

    #[test]
    fn implies_basics() {
        let (s, x) = space1();
        let mut p = s.clone();
        p.add_eq(LinExpr::var(x).plus_const(-7));
        let mut q = s.clone();
        q.add_geq(LinExpr::var(x).plus_const(-1));
        q.add_geq(LinExpr::term(-1, x).plus_const(10));
        assert!(implies(&p, &q).unwrap()); // x = 7 ⇒ 1 <= x <= 10
        assert!(!implies(&q, &p).unwrap());
    }

    #[test]
    fn implies_is_vacuously_true_for_infeasible_premise() {
        let (s, x) = space1();
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x).plus_const(-3));
        p.add_geq(LinExpr::term(-1, x).plus_const(1)); // 3 <= x <= 1
        let mut q = s.clone();
        q.add_eq(LinExpr::var(x).plus_const(42));
        assert!(implies(&p, &q).unwrap());
    }

    #[test]
    fn implies_paper_kill_example() {
        // Example 1 of the paper: k = n  ⇒  n <= k <= n + 10.
        let mut s = Problem::new();
        let k = s.add_var(VarKind::Input);
        let n = s.add_var(VarKind::Symbolic);
        let mut p = s.clone();
        p.add_eq(LinExpr::var(k).plus_term(-1, n));
        let mut q = s.clone();
        q.add_geq(LinExpr::var(k).plus_term(-1, n)); // k >= n
        q.add_geq(LinExpr::var(n).plus_term(-1, k).plus_const(10)); // k <= n+10
        assert!(implies(&p, &q).unwrap());

        // With the write to a(m): k = m ∧ n <= k <= n+20  ⇏  n <= k <= n+10.
        let mut s2 = Problem::new();
        let k = s2.add_var(VarKind::Input);
        let n = s2.add_var(VarKind::Symbolic);
        let m = s2.add_var(VarKind::Symbolic);
        let mut p2 = s2.clone();
        p2.add_eq(LinExpr::var(k).plus_term(-1, m));
        p2.add_geq(LinExpr::var(k).plus_term(-1, n));
        p2.add_geq(LinExpr::var(n).plus_term(-1, k).plus_const(20));
        let mut q2 = s2.clone();
        q2.add_geq(LinExpr::var(k).plus_term(-1, n));
        q2.add_geq(LinExpr::var(n).plus_term(-1, k).plus_const(10));
        assert!(!implies(&p2, &q2).unwrap());

        // Asserting n <= m <= n + 10 restores the kill.
        p2.add_geq(LinExpr::var(m).plus_term(-1, n));
        p2.add_geq(LinExpr::var(n).plus_term(-1, m).plus_const(10));
        assert!(implies(&p2, &q2).unwrap());
    }

    #[test]
    fn gist_projected_combined() {
        // p: 1 <= y <= x; q: x <= 9. Project onto x.
        // π(p ∧ q) on x: 1 <= x <= 9; π(q) = x <= 9; gist = x >= 1.
        let mut s = Problem::new();
        let x = s.add_var(VarKind::Input);
        let y = s.add_var(VarKind::Input);
        let mut p = s.clone();
        p.add_geq(LinExpr::var(y).plus_const(-1));
        p.add_geq(LinExpr::var(x).plus_term(-1, y));
        let mut q = s.clone();
        q.add_geq(LinExpr::term(-1, x).plus_const(9));
        let mut b = Budget::default();
        let g = gist_projected(&p, &q, &[x], &mut b).unwrap().unwrap();
        assert_eq!(g.geqs().len(), 1);
        assert_eq!(g.geqs()[0].expr().coef(x), 1);
        assert_eq!(g.geqs()[0].expr().constant(), -1);
    }

    #[test]
    fn space_mismatch_is_reported() {
        let (s, _) = space1();
        // Kinds must agree position by position.
        let mut other = Problem::new();
        other.add_var(VarKind::Symbolic);
        assert_eq!(implies(&s, &other).unwrap_err(), Error::SpaceMismatch);
        assert_eq!(gist(&s, &other).unwrap_err(), Error::SpaceMismatch);
    }
}

#[cfg(test)]
mod pair_check_tests {
    use super::*;
    use crate::linexpr::LinExpr;
    use crate::var::VarKind;

    #[test]
    fn pair_sum_fast_check_drops_diamond() {
        // q: x >= 1, y >= 2; p: x + y >= 2 (implied by the pair sum with
        // slack 1): resolved without the satisfiability path.
        let mut s = Problem::new();
        let x = s.add_var(VarKind::Input);
        let y = s.add_var(VarKind::Input);
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x).plus_term(1, y).plus_const(-2));
        let mut q = s.clone();
        q.add_geq(LinExpr::var(x).plus_const(-1));
        q.add_geq(LinExpr::var(y).plus_const(-2));
        // A tiny budget that cannot afford satisfiability tests: the fast
        // checks alone must resolve the gist.
        let mut tight = Budget::new(40);
        let g = gist_with(&p, &q, &mut tight).unwrap();
        assert!(g.is_trivially_true(), "{g}");
    }

    #[test]
    fn pair_sum_respects_constants() {
        let mut s = Problem::new();
        let x = s.add_var(VarKind::Input);
        let y = s.add_var(VarKind::Input);
        let a = Constraint::geq(LinExpr::var(x).plus_const(-1));
        let b = Constraint::geq(LinExpr::var(y).plus_const(-2));
        let implied = Constraint::geq(LinExpr::var(x).plus_term(1, y).plus_const(-3));
        let not_implied = Constraint::geq(LinExpr::var(x).plus_term(1, y).plus_const(-4));
        assert!(pair_sum_implies(&a, &b, &implied));
        assert!(!pair_sum_implies(&a, &b, &not_implied));
    }
}
