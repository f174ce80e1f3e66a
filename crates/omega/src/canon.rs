//! Canonical forms of [`Problem`]s, used as memo-cache keys.
//!
//! Two problems that normalize to the same canonical form are
//! semantically identical conjunctions over the same variable table, so
//! a solver verdict computed for one is valid for the other. The
//! canonical form is obtained by GCD-reducing every constraint,
//! sign-normalizing equalities, and sorting + deduplicating the
//! constraint lists; coefficient vectors are already dense-trimmed by
//! the [`LinExpr`](crate::LinExpr) storage invariant.
//!
//! Cached *syntactic* results (projections, gists) are computed **on the
//! canonical problem itself**, so that the cached value is a pure
//! function of the key — this is what makes memoization safe under
//! concurrent, schedule-dependent lookup orders.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::linexpr::{Color, Constraint, LinExpr};
use crate::problem::Problem;
use crate::var::VarInfo;

/// The memoized operation a cache key belongs to. Verdicts of different
/// operations on the same problem must not collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    /// Integer satisfiability.
    Sat,
    /// Exact projection onto the protected variables.
    Project,
    /// Gist of the red constraints given the black ones.
    Gist,
}

/// A hashable key identifying (operation, canonical problem). Variable
/// kinds and flags are part of the key because projection and gist
/// results embed the variable table; names are not, because variables
/// are positions. Problems that differ only in how their caller names
/// the variables share one key.
///
/// Building and hashing the key never re-walks expression content: the
/// variable table is shared by `Arc` and the constraints hash by their
/// interned row ids.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CanonKey {
    pub(crate) op: Op,
    pub(crate) known_infeasible: bool,
    pub(crate) vars: Arc<Vec<VarInfo>>,
    pub(crate) eqs: Vec<Constraint>,
    pub(crate) geqs: Vec<Constraint>,
}

impl CanonKey {
    /// Builds the key for `op` from an **already canonicalized** problem.
    /// Cheap: the variable table is an `Arc` bump and the constraint lists
    /// clone as reference-count bumps.
    pub(crate) fn new(op: Op, canonical: &Problem) -> Self {
        CanonKey {
            op,
            known_infeasible: canonical.known_infeasible,
            vars: Arc::clone(&canonical.vars),
            eqs: canonical.eqs.clone(),
            geqs: canonical.geqs.clone(),
        }
    }
}

/// GCD-reduces `expr >= 0`: dividing by the coefficient GCD `g` and
/// floor-dividing the constant is exact over the integers
/// (`Σ cᵢxᵢ + k >= 0  ⇔  Σ (cᵢ/g)xᵢ + ⌊k/g⌋ >= 0`).
fn reduce_geq(expr: &LinExpr) -> LinExpr {
    let g = expr.coef_gcd();
    if g <= 1 {
        return expr.clone();
    }
    let mut out = LinExpr::constant_expr(expr.constant().div_euclid(g));
    for (v, c) in expr.terms() {
        out.set_coef(v, c / g);
    }
    out
}

/// GCD-reduces `expr == 0` when the constant is divisible (otherwise the
/// equality is returned unchanged — it is infeasible and normalization
/// will discover that), then sign-normalizes so the leading non-zero
/// coefficient — or, for constant expressions, the constant — is
/// positive.
fn reduce_eq(expr: &LinExpr) -> LinExpr {
    let g = expr.coef_gcd();
    let mut out = if g > 1 && expr.constant() % g == 0 {
        let mut e = LinExpr::constant_expr(expr.constant() / g);
        for (v, c) in expr.terms() {
            e.set_coef(v, c / g);
        }
        e
    } else {
        expr.clone()
    };
    let leading = out.terms().next().map(|(_, c)| c).unwrap_or(out.constant());
    if leading < 0 {
        out.negate();
    }
    out
}

/// Canonicalizes one equality, cloning the interned row handle (an
/// `Arc` bump) when the expression is already in canonical form.
fn canon_eq(c: &Constraint) -> Constraint {
    let e = c.expr();
    let g = e.coef_gcd();
    let reducible = g > 1 && e.constant() % g == 0;
    let leading = e.terms().next().map(|(_, c0)| c0).unwrap_or(e.constant());
    if !reducible && leading >= 0 {
        return c.clone();
    }
    Constraint::eq(reduce_eq(e)).with_color(c.color())
}

/// Canonicalizes one inequality, cloning the interned row handle when
/// the coefficients are already GCD-reduced.
fn canon_geq(c: &Constraint) -> Constraint {
    if c.expr().coef_gcd() <= 1 {
        return c.clone();
    }
    Constraint::geq(reduce_geq(c.expr())).with_color(c.color())
}

/// Deterministic total order on constraints: terms lexicographically,
/// then the constant, then the color. Content-based — never id-based —
/// so canonical constraint order (and with it every report byte) is
/// independent of interning history; but comparison is allocation-free
/// and short-circuits when both constraints share one interned row.
pub(crate) fn cmp_constraints(a: &Constraint, b: &Constraint) -> Ordering {
    let exprs = if a.row == b.row {
        Ordering::Equal
    } else {
        a.expr()
            .terms()
            .cmp(b.expr().terms())
            .then_with(|| a.expr().constant().cmp(&b.expr().constant()))
    };
    exprs.then_with(|| color_rank(a.color()).cmp(&color_rank(b.color())))
}

fn color_rank(c: Color) -> u8 {
    match c {
        Color::Black => 0,
        Color::Red => 1,
    }
}

/// Returns the canonical form of `p`: same variable table, GCD-reduced
/// constraints, sorted and exact-deduplicated constraint lists. The
/// result is semantically equivalent to `p` over the integers.
pub(crate) fn canonicalize(p: &Problem) -> Problem {
    let mut out = Problem {
        vars: p.vars.clone(),
        eqs: Vec::with_capacity(p.eqs.len()),
        geqs: Vec::with_capacity(p.geqs.len()),
        known_infeasible: p.known_infeasible,
    };
    for c in &p.eqs {
        out.eqs.push(canon_eq(c));
    }
    for c in &p.geqs {
        out.geqs.push(canon_geq(c));
    }
    for list in [&mut out.eqs, &mut out.geqs] {
        list.sort_by(cmp_constraints);
        list.dedup();
    }
    out
}

/// Canonical form specialized for satisfiability: colors are irrelevant
/// to the verdict, so constraints are blackened first (increasing hit
/// rates across red/black variants of the same conjunction).
pub(crate) fn canonicalize_for_sat(p: &Problem) -> Problem {
    let mut q = p.clone();
    q.blacken();
    canonicalize(&q)
}

/// Canonicalizes a *delta*: the handful of constraints a derived query
/// adds on top of an already-canonical base. Equalities and inequalities
/// are GCD-reduced exactly as [`canonicalize`] would, then each list is
/// sorted and deduplicated. Reduction is per-constraint-local, so the
/// canonical form of `base ∧ delta` is the sorted merge of the two
/// canonical lists (see [`merge_sorted`]).
pub(crate) fn canonicalize_delta(
    eqs: &[Constraint],
    geqs: &[Constraint],
) -> (Vec<Constraint>, Vec<Constraint>) {
    let mut ceqs: Vec<Constraint> = eqs.iter().map(canon_eq).collect();
    let mut cgeqs: Vec<Constraint> = geqs.iter().map(canon_geq).collect();
    for list in [&mut ceqs, &mut cgeqs] {
        list.sort_by(cmp_constraints);
        list.dedup();
    }
    (ceqs, cgeqs)
}

/// Merges two sorted, individually deduplicated canonical constraint
/// lists into one sorted deduplicated list. Because two constraints
/// comparing [`cmp_constraints`]-equal within one list (eq or geq) are
/// identical, the result equals sorting and deduplicating the
/// concatenation — i.e. what [`canonicalize`] would produce for the
/// conjunction.
pub(crate) fn merge_sorted(a: &[Constraint], b: &[Constraint]) -> Vec<Constraint> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match cmp_constraints(&a[i], &b[j]) {
            Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
            Ordering::Equal => {
                // Equal keys within an eq or geq list mean equal
                // constraints: keep one.
                out.push(a[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::{VarId, VarKind};

    fn two_var_space() -> (Problem, VarId, VarId) {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        let y = p.add_var(VarKind::Input);
        (p, x, y)
    }

    #[test]
    fn constraint_order_does_not_matter() {
        let (base, x, y) = two_var_space();
        let mut a = base.clone();
        a.add_geq(LinExpr::var(x).plus_const(-1));
        a.add_geq(LinExpr::var(y).plus_const(-2));
        let mut b = base.clone();
        b.add_geq(LinExpr::var(y).plus_const(-2));
        b.add_geq(LinExpr::var(x).plus_const(-1));
        assert_eq!(
            CanonKey::new(Op::Sat, &canonicalize(&a)),
            CanonKey::new(Op::Sat, &canonicalize(&b))
        );
    }

    #[test]
    fn gcd_reduction_unifies_scaled_constraints() {
        let (base, x, _) = two_var_space();
        let mut a = base.clone();
        a.add_geq(LinExpr::term(2, x).plus_const(-3)); // 2x >= 3 ⇔ x >= 2
        let mut b = base.clone();
        b.add_geq(LinExpr::var(x).plus_const(-2)); // x >= 2
        assert_eq!(canonicalize(&a).geqs(), canonicalize(&b).geqs());
    }

    #[test]
    fn equality_sign_is_normalized() {
        let (base, x, y) = two_var_space();
        let mut a = base.clone();
        a.add_eq(LinExpr::term(-2, x).plus_term(2, y)); // -2x + 2y == 0
        let mut b = base.clone();
        b.add_eq(LinExpr::var(x).plus_term(-1, y)); // x - y == 0
        assert_eq!(canonicalize(&a).eqs(), canonicalize(&b).eqs());
    }

    #[test]
    fn duplicates_collapse_but_colors_distinguish() {
        let (base, x, _) = two_var_space();
        let mut a = base.clone();
        a.add_geq(LinExpr::var(x));
        a.add_geq(LinExpr::var(x));
        assert_eq!(canonicalize(&a).geqs().len(), 1);
        // A red copy of a black constraint is preserved: the gist
        // machinery resolves that pair itself.
        let mut b = base.clone();
        b.add_geq(LinExpr::var(x));
        b.add_constraint(Constraint::geq(LinExpr::var(x)).with_color(Color::Red));
        assert_eq!(canonicalize(&b).geqs().len(), 2);
    }

    #[test]
    fn ops_do_not_collide() {
        let p = canonicalize(&Problem::new());
        assert_ne!(CanonKey::new(Op::Sat, &p), CanonKey::new(Op::Project, &p));
        assert_ne!(CanonKey::new(Op::Project, &p), CanonKey::new(Op::Gist, &p));
    }

    #[test]
    fn canonical_form_preserves_solutions() {
        let (base, x, y) = two_var_space();
        let mut p = base.clone();
        p.add_geq(LinExpr::term(3, x).plus_term(-3, y).plus_const(-4)); // 3x - 3y >= 4
        p.add_eq(LinExpr::term(-2, x).plus_const(8)); // x == 4
        let c = canonicalize(&p);
        for xv in -6..=6 {
            for yv in -6..=6 {
                assert_eq!(
                    p.satisfies(&[xv, yv]),
                    c.satisfies(&[xv, yv]),
                    "({xv},{yv})"
                );
            }
        }
    }

    #[test]
    fn delta_merge_matches_full_canonicalization() {
        // canonicalize(base ∧ delta) == merge(canonicalize(base),
        // canonicalize_delta(delta)) — the identity the per-pair delta
        // path relies on.
        let (base, x, y) = two_var_space();
        let mut b = base.clone();
        b.add_geq(LinExpr::var(x).plus_const(-1));
        b.add_geq(LinExpr::term(2, y).plus_const(-4)); // reduces to y >= 2
        b.add_eq(LinExpr::term(-3, x).plus_term(3, y)); // reduces to x - y == 0
        let canon_base = canonicalize(&b);

        let delta_eqs = vec![Constraint::eq(LinExpr::term(-2, x).plus_const(8))];
        let delta_geqs = vec![
            Constraint::geq(LinExpr::var(x).plus_const(-1)), // duplicate of base
            Constraint::geq(LinExpr::term(4, x).plus_term(-4, y)),
        ];
        let (ceqs, cgeqs) = canonicalize_delta(&delta_eqs, &delta_geqs);

        let mut full = b.clone();
        for c in &delta_eqs {
            full.add_constraint(c.clone());
        }
        for c in &delta_geqs {
            full.add_constraint(c.clone());
        }
        let canon_full = canonicalize(&full);
        assert_eq!(canon_full.eqs(), merge_sorted(canon_base.eqs(), &ceqs));
        assert_eq!(canon_full.geqs(), merge_sorted(canon_base.geqs(), &cgeqs));
    }

    #[test]
    fn relation_is_part_of_the_key() {
        // x == 0 and x >= 0 reduce to the same expression; the key must
        // keep them apart through the eq/geq split.
        let (base, x, _) = two_var_space();
        let mut a = base.clone();
        a.add_eq(LinExpr::var(x));
        let mut b = base.clone();
        b.add_geq(LinExpr::var(x));
        assert_ne!(
            CanonKey::new(Op::Sat, &canonicalize(&a)),
            CanonKey::new(Op::Sat, &canonicalize(&b))
        );
    }
}
