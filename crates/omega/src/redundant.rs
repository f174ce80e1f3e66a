//! Redundant constraint elimination: a cheap syntactic pass, and the
//! presentation tidy-up built on it.

use crate::linexpr::{Color, Constraint, LinExpr, Relation};
use crate::normalize::{direction_hash, single_implies};
use crate::problem::{Budget, Problem};
use crate::Result;

impl Problem {
    /// Drops inequalities that are syntactically implied by a single other
    /// constraint (same direction with a tighter constant, or a multiple of
    /// an equality). Cheap; run after projection to tidy results.
    ///
    /// A red constraint may be dropped when implied by any constraint; a
    /// black constraint is only dropped when implied by another *black*
    /// constraint, so gist contexts are never weakened.
    pub fn remove_redundant_quick(&mut self) {
        let n = self.geqs.len();
        let mut drop = vec![false; n];
        // Inequality-vs-inequality implication needs the coefficient
        // vectors to be *identical*, so only constraints sharing a
        // direction can interact. Bucket by the sign-canonical direction
        // hash plus orientation (the same grouping normalization uses)
        // and run the pairwise scan within each class: classes are
        // independent, and within a class the original ascending-index
        // dynamics — earlier identical wins, a dropped constraint kills
        // nothing, black is never dropped by red — are preserved exactly.
        // Hash collisions merely merge classes; `single_implies`
        // re-checks the coefficients, so a collision costs comparisons,
        // never correctness.
        let mut keys: Vec<(u64, bool, u32)> = self
            .geqs
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let (h, f) = direction_hash(c.expr().coeffs());
                (h, f, i as u32)
            })
            .collect();
        keys.sort_unstable();
        let mut start = 0;
        while start < keys.len() {
            let mut end = start + 1;
            while end < keys.len() && (keys[end].0, keys[end].1) == (keys[start].0, keys[start].1) {
                end += 1;
            }
            // Indices within a class are ascending (the sort key ends
            // with the index), matching the original scan order.
            let class = &keys[start..end];
            for &(_, _, i) in class {
                let i = i as usize;
                if drop[i] {
                    continue;
                }
                for &(_, _, j) in class {
                    let j = j as usize;
                    if i == j || drop[j] {
                        continue;
                    }
                    let (a, b) = (&self.geqs[j], &self.geqs[i]);
                    if b.color == Color::Black && a.color == Color::Red {
                        continue;
                    }
                    if single_implies(a, b) {
                        // Identical constraints: keep the earlier one.
                        let identical = a.row == b.row;
                        if identical && j > i {
                            continue;
                        }
                        drop[i] = true;
                        break;
                    }
                }
            }
            start = end;
        }
        // Equalities also imply inequalities.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            if drop[i] {
                continue;
            }
            let b = &self.geqs[i];
            for e in &self.eqs {
                if b.color == Color::Black && e.color == Color::Red {
                    continue;
                }
                if single_implies(e, b) {
                    drop[i] = true;
                    break;
                }
            }
        }
        let mut keep = drop.iter().map(|d| !d);
        self.geqs.retain(|_| keep.next().unwrap());
    }

    /// Tidies a problem for presentation: normalizes, removes wildcards
    /// where exact substitution permits, and drops redundant constraints.
    ///
    /// All or nothing: on an error the problem is left exactly as it was.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn simplify(&mut self) -> Result<()> {
        let mut p = crate::tableau::reduce_equalities(self, &mut Budget::default())?;
        p.remove_redundant_quick();
        *self = p;
        Ok(())
    }
}

/// The integer negation of `e >= 0`: `-e - 1 >= 0`.
pub(crate) fn negate_geq(e: &LinExpr) -> LinExpr {
    let mut n = e.negated();
    n.add_constant(-1).expect("negation overflow");
    n
}

/// Splits an equality constraint into the two inequalities `e >= 0`,
/// `-e >= 0`, preserving color.
pub(crate) fn split_equality(c: &Constraint) -> [Constraint; 2] {
    debug_assert_eq!(c.relation(), Relation::Zero);
    [
        Constraint::geq(c.expr().clone()).with_color(c.color()),
        Constraint::geq(c.expr().negated()).with_color(c.color()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::VarKind;

    #[test]
    fn quick_removes_looser_bound() {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        p.add_geq(LinExpr::var(x).plus_const(-5)); // x >= 5
        p.add_geq(LinExpr::var(x).plus_const(-3)); // x >= 3 (redundant)
        p.remove_redundant_quick();
        assert_eq!(p.geqs().len(), 1);
        assert_eq!(p.geqs()[0].expr().constant(), -5);
    }

    #[test]
    fn quick_keeps_identical_once() {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        p.add_geq(LinExpr::var(x).plus_const(-5));
        p.add_geq(LinExpr::var(x).plus_const(-5));
        p.remove_redundant_quick();
        assert_eq!(p.geqs().len(), 1);
    }

    #[test]
    fn quick_drop_order_ties_keep_earliest_tight_copy() {
        // [x>=3, x>=5, x>=5, x>=3]: the looser bounds and the *later*
        // identical copy drop; the first x>=5 survives. Pins the
        // earlier-identical-wins dynamics of the bucketed scan.
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        p.add_geq(LinExpr::var(x).plus_const(-3));
        p.add_geq(LinExpr::var(x).plus_const(-5));
        p.add_geq(LinExpr::var(x).plus_const(-5));
        p.add_geq(LinExpr::var(x).plus_const(-3));
        p.remove_redundant_quick();
        assert_eq!(p.geqs().len(), 1);
        assert_eq!(p.geqs()[0].expr().constant(), -5);
    }

    #[test]
    fn quick_identical_red_black_ties_are_order_sensitive() {
        let x_ge_3 = |p: &mut Problem| LinExpr::var(p.add_var(VarKind::Input)).plus_const(-3);
        // Black first: the red copy is dropped (implied by an earlier
        // identical black constraint).
        let mut p = Problem::new();
        let e = x_ge_3(&mut p);
        p.add_geq(e.clone());
        p.add_constraint(Constraint::geq(e).with_color(Color::Red));
        p.remove_redundant_quick();
        assert_eq!(p.geqs().len(), 1);
        assert_eq!(p.geqs()[0].color(), Color::Black);

        // Red first: both survive — red cannot drop black, and the black
        // copy is later so it cannot drop the red one either.
        let mut q = Problem::new();
        let e = x_ge_3(&mut q);
        q.add_constraint(Constraint::geq(e.clone()).with_color(Color::Red));
        q.add_geq(e);
        q.remove_redundant_quick();
        assert_eq!(q.geqs().len(), 2);
    }

    #[test]
    fn quick_opposite_orientations_do_not_interact() {
        // x >= 3 and -x >= -10 share a direction class with opposite
        // orientation: neither implies the other.
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        p.add_geq(LinExpr::var(x).plus_const(-3));
        p.add_geq(LinExpr::term(-1, x).plus_const(10));
        p.remove_redundant_quick();
        assert_eq!(p.geqs().len(), 2);
    }

    #[test]
    fn quick_never_drops_black_for_red() {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        p.add_constraint(Constraint::geq(LinExpr::var(x).plus_const(-5)).with_color(Color::Red));
        p.add_geq(LinExpr::var(x).plus_const(-3)); // black, looser
        p.remove_redundant_quick();
        assert_eq!(p.geqs().len(), 2, "black context must survive");
    }

    #[test]
    fn simplify_is_all_or_nothing() {
        // The wildcard equality w + 2^40·x = 0 substitutes w := -2^40·x.
        // The first inequality rewrites fine; the second's 2^40·w becomes
        // -2^80·x and overflows. The failed call must leave the problem
        // exactly as it was: equality kept, nothing half-rewritten, no
        // protection flags set.
        const BIG: i64 = 1 << 40;
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        let y = p.add_var(VarKind::Input);
        let w = p.add_var(VarKind::Wildcard);
        p.add_eq(LinExpr::var(w).plus_term(BIG, x));
        p.add_geq(LinExpr::var(w).plus_term(1, x));
        p.add_geq(LinExpr::term(BIG, w).plus_term(3, y));
        let (text, digest) = (p.to_string(), p.canonical_digest());
        assert_eq!(p.simplify(), Err(crate::Error::Overflow));
        assert_eq!(p.to_string(), text);
        assert_eq!(p.canonical_digest(), digest);
        assert!(p.var_ids().all(|v| !p.is_protected(v)));
    }

    #[test]
    fn negate_geq_partitions_integers() {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        let e = LinExpr::var(x).plus_const(-5); // x - 5 >= 0
        let n = negate_geq(&e); // 4 - x >= 0
        for xv in 0..10 {
            let orig = e.eval(&[xv]) >= 0;
            let neg = n.eval(&[xv]) >= 0;
            assert!(orig != neg, "x = {xv} must satisfy exactly one side");
        }
    }
}
