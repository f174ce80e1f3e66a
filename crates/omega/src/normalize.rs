//! Constraint normalization: gcd reduction, integer tightening of
//! inequalities, duplicate elimination, contradiction detection, and
//! coalescing of opposed inequality pairs into equalities.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hasher;

use crate::hash::{BuildMix, Mix};
use crate::int::{self, Coef};
use crate::linexpr::{Constraint, LinExpr, Relation};
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
    /// * Equalities are divided by the gcd of their coefficients; if the
    ///   constant is not divisible by that gcd the problem is infeasible
    ///   (the classic GCD test falls out of this step).
    /// * Inequalities are divided by the gcd of their coefficients with the
    ///   constant rounded *down* — the integer tightening `⌊c/g⌋` that makes
    ///   later shadows sharper.
    /// * Syntactic duplicates are merged keeping the tightest constant, and
    ///   an opposed pair `e >= 0 ∧ -e >= 0` is coalesced into `e == 0`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overflow`](crate::Error::Overflow) on coefficient
    /// overflow.
    pub fn normalize(&mut self) -> Result<Outcome> {
        if self.known_infeasible {
            return Ok(Outcome::Infeasible);
        }
        if self.normalize_eqs()? == Outcome::Infeasible
            || self.normalize_geqs()? == Outcome::Infeasible
        {
            self.known_infeasible = true;
            return Ok(Outcome::Infeasible);
        }
        Ok(Outcome::Consistent)
    }

    fn normalize_eqs(&mut self) -> Result<Outcome> {
        let mut out: Vec<Constraint> = Vec::with_capacity(self.eqs.len());
        for mut c in std::mem::take(&mut self.eqs) {
            let g = c.expr().coef_gcd();
            if g == 0 {
                if c.expr().constant() != 0 {
                    self.eqs = out;
                    return Ok(Outcome::Infeasible);
                }
                continue; // 0 == 0
            }
            if c.expr().constant() % g != 0 {
                // GCD test: Σ a_i x_i = -c has no integer solution.
                self.eqs = out;
                return Ok(Outcome::Infeasible);
            }
            let flip = {
                let e = c.expr();
                match e.terms().next() {
                    Some((_, c0)) => c0 < 0,
                    None => e.constant() < 0,
                }
            };
            if g > 1 || flip {
                c.map_expr(|e| {
                    e.divide_exact(g);
                    canonical_eq_sign(e);
                });
            }
            // Reduced equalities are interned, so syntactic duplicates
            // share one row: dedup is a scan over row handles (equality
            // lists are short — a handful of live equalities at most).
            match out.iter_mut().find(|o| o.row == c.row) {
                Some(prev) => prev.color = prev.color.meet(c.color),
                None => out.push(c),
            }
        }
        self.eqs = out;
        Ok(Outcome::Consistent)
    }

    fn normalize_geqs(&mut self) -> Result<Outcome> {
        // Single pass: gcd-tighten each inequality, then merge duplicates
        // and detect opposed pairs by bucketing on the constraint's
        // *direction* (coefficient vector with the first non-zero
        // coefficient made positive). No key vectors are materialized:
        // a bucket is found through a hash of the sign-canonical
        // coefficients and verified against a representative already in
        // `out` (hash collisions probe to the next slot).
        struct Bucket {
            /// Index into `out` of the constraint whose coefficients
            /// define this bucket's direction, and whether that
            /// representative is the flipped orientation. The entry at
            /// `rep` may later be replaced by a tighter constraint, but
            /// only by one with the same direction.
            rep: u32,
            rep_flipped: bool,
            pos: Option<u32>,
            neg: Option<u32>,
        }
        let mut out: Vec<Option<Constraint>> = Vec::with_capacity(self.geqs.len());
        // First-encounter order, so the coalesced-equality pass below is
        // deterministic.
        let mut buckets: Vec<Bucket> = Vec::new();
        let mut index: HashMap<(u64, u32), u32, BuildMix> =
            HashMap::with_capacity_and_hasher(self.geqs.len(), BuildMix::default());
        let mut new_eqs: Vec<Constraint> = Vec::new();

        for mut c in std::mem::take(&mut self.geqs) {
            let g = c.expr().coef_gcd();
            if g == 0 {
                if c.expr().constant() < 0 {
                    self.geqs = out.into_iter().flatten().collect();
                    return Ok(Outcome::Infeasible);
                }
                continue; // constant >= 0: tautology
            }
            if g > 1 {
                let k = int::floor_div(c.expr().constant(), g);
                c.map_expr(|e| {
                    e.divide_exact_coeffs_only(g);
                    e.set_constant(k);
                });
            }

            let (hash, flipped) = direction_hash(c.expr().coeffs());
            let mut probe = 0u32;
            let bidx = loop {
                match index.entry((hash, probe)) {
                    Entry::Vacant(e) => {
                        e.insert(buckets.len() as u32);
                        buckets.push(Bucket {
                            rep: out.len() as u32,
                            rep_flipped: flipped,
                            pos: None,
                            neg: None,
                        });
                        break buckets.len() - 1;
                    }
                    Entry::Occupied(e) => {
                        let bi = *e.get() as usize;
                        let b = &buckets[bi];
                        let rep = out[b.rep as usize]
                            .as_ref()
                            .expect("representatives live until bucketing ends");
                        if same_direction(
                            c.expr().coeffs(),
                            rep.expr().coeffs(),
                            flipped != b.rep_flipped,
                        ) {
                            break bi;
                        }
                        probe += 1;
                    }
                }
            };
            let bucket = &mut buckets[bidx];
            let slot = if flipped {
                &mut bucket.neg
            } else {
                &mut bucket.pos
            };
            match *slot {
                Some(i) => {
                    let prev = out[i as usize]
                        .as_mut()
                        .expect("slot points at live constraint");
                    // Same direction: keep the tighter (smaller constant);
                    // equal constants merge colors.
                    if c.expr().constant() < prev.expr().constant() {
                        *prev = c;
                    } else if c.expr().constant() == prev.expr().constant() {
                        prev.color = prev.color.meet(c.color);
                    }
                }
                None => {
                    *slot = Some(out.len() as u32);
                    out.push(Some(c));
                }
            }
        }

        // Opposed pairs: e + c1 >= 0 and -e + c2 >= 0 require c1 + c2 >= 0.
        for bucket in &buckets {
            if let (Some(i), Some(j)) = (bucket.pos, bucket.neg) {
                let (i, j) = (i as usize, j as usize);
                let (c1, c2) = {
                    let a = out[i].as_ref().expect("live");
                    let b = out[j].as_ref().expect("live");
                    (a.expr().constant(), b.expr().constant())
                };
                let sum = c1 as i128 + c2 as i128;
                if sum < 0 {
                    self.geqs = out.into_iter().flatten().collect();
                    return Ok(Outcome::Infeasible);
                }
                if sum == 0 {
                    // Coalesce into an equality.
                    let a = out[i].take().expect("live");
                    let b = out[j].take().expect("live");
                    let color = a.color.join(b.color);
                    // Reuse the interned row: only the relation changes.
                    new_eqs.push(Constraint {
                        row: a.row,
                        rel: Relation::Zero,
                        color,
                    });
                }
            }
        }

        self.geqs = out.into_iter().flatten().collect();
        if !new_eqs.is_empty() {
            self.eqs.extend(new_eqs);
            // Newly created equalities need their own normalization.
            if self.normalize_eqs()? == Outcome::Infeasible {
                return Ok(Outcome::Infeasible);
            }
        }
        Ok(Outcome::Consistent)
    }
}

impl LinExpr {
    /// Divides the variable coefficients (but not the constant) exactly.
    pub(crate) fn divide_exact_coeffs_only(&mut self, d: Coef) {
        debug_assert!(d > 0);
        let constant = self.constant();
        self.divide_coeffs(d);
        self.set_constant(constant);
    }

    fn divide_coeffs(&mut self, d: Coef) {
        let terms: Vec<(crate::VarId, Coef)> = self.terms().collect();
        for (v, c) in terms {
            debug_assert_eq!(c % d, 0);
            self.set_coef(v, c / d);
        }
    }
}

/// Flips the expression so the first non-zero coefficient is positive.
fn canonical_eq_sign(e: &mut LinExpr) {
    let first = e.terms().next();
    if let Some((_, c)) = first {
        if c < 0 {
            e.negate();
        }
    } else if e.constant() < 0 {
        e.negate();
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
    use crate::var::VarKind;

    fn two_var_problem() -> (Problem, crate::VarId, crate::VarId) {
        let mut p = Problem::new();
        let x = p.add_var("x", VarKind::Input);
        let y = p.add_var("y", VarKind::Input);
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
