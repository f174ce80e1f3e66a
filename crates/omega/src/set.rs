//! Finite unions of conjunctions over a shared variable space.
//!
//! Projection splinters and DNF conversion both naturally produce unions;
//! [`ProblemSet`] makes them first-class, with the set algebra the
//! original Omega library exposes on its relations (union, intersection,
//! subset, emptiness). Complementation is deliberately absent from the
//! core — the paper notes the Omega test "cannot directly form the union
//! of two sets of constraints" as a primitive, and negation of stride
//! constraints routes through the [`Formula`] layer instead.

use crate::formula::Formula;
use crate::int::Coef;
use crate::problem::{Budget, Problem};
use crate::project::Projection;
use crate::var::VarId;
use crate::{Error, Result};

/// A union of conjunctions (`Problem`s) over one variable table.
///
/// The empty union is the empty set; a union with one trivially-true
/// piece is the universe.
///
/// # Examples
///
/// ```
/// use omega::{LinExpr, Problem, ProblemSet, VarKind};
///
/// let mut space = Problem::new();
/// let x = space.add_var("x", VarKind::Input);
///
/// let mut low = space.clone();
/// low.add_geq(LinExpr::term(-1, x).plus_const(3)); // x <= 3
/// let mut high = space.clone();
/// high.add_geq(LinExpr::var(x).plus_const(-7)); // x >= 7
///
/// let set = ProblemSet::from(low).union(ProblemSet::from(high));
/// assert!(set.contains_point(&[2]));
/// assert!(set.contains_point(&[9]));
/// assert!(!set.contains_point(&[5]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProblemSet {
    pieces: Vec<Problem>,
}

impl From<Problem> for ProblemSet {
    fn from(p: Problem) -> Self {
        ProblemSet { pieces: vec![p] }
    }
}

impl From<Projection> for ProblemSet {
    /// The exact projection: dark shadow plus splinters.
    fn from(p: Projection) -> Self {
        ProblemSet {
            pieces: p
                .into_problems()
                .into_iter()
                .filter(|p| !p.is_known_infeasible())
                .collect(),
        }
    }
}

impl ProblemSet {
    /// The empty set (over an as-yet-unknown space).
    pub fn empty() -> ProblemSet {
        ProblemSet::default()
    }

    /// The pieces of the union.
    pub fn pieces(&self) -> &[Problem] {
        &self.pieces
    }

    /// Number of pieces.
    pub fn len(&self) -> usize {
        self.pieces.len()
    }

    /// Whether the union has no pieces (syntactically empty).
    pub fn is_empty(&self) -> bool {
        self.pieces.is_empty()
    }

    /// Set union (piece concatenation).
    #[must_use]
    pub fn union(mut self, other: ProblemSet) -> ProblemSet {
        self.pieces.extend(other.pieces);
        self
    }

    /// Whether a concrete point is in the union.
    pub fn contains_point(&self, values: &[Coef]) -> bool {
        self.pieces.iter().any(|p| p.satisfies(values))
    }

    /// Whether the union contains any integer point.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn is_satisfiable(&self, budget: &mut Budget) -> Result<bool> {
        for p in &self.pieces {
            if p.is_satisfiable_with(budget)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// A witness point from any satisfiable piece.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn sample(
        &self,
        budget: &mut Budget,
    ) -> Result<Option<std::collections::BTreeMap<VarId, Coef>>> {
        for p in &self.pieces {
            if let Some(sol) = p.sample_solution_with(budget)? {
                return Ok(Some(sol));
            }
        }
        Ok(None)
    }

    /// Drops unsatisfiable pieces and simplifies the survivors.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn simplify(&mut self, budget: &mut Budget) -> Result<()> {
        let mut kept = Vec::with_capacity(self.pieces.len());
        for mut p in std::mem::take(&mut self.pieces) {
            if p.is_satisfiable_with(budget)? {
                p.simplify()?;
                kept.push(p);
            }
        }
        self.pieces = kept;
        Ok(())
    }

    /// Projects every piece onto `keep`, collecting all resulting pieces
    /// (dark shadows and splinters) into one union — exactly.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn project(&self, keep: &[VarId], budget: &mut Budget) -> Result<ProblemSet> {
        let mut out = ProblemSet::empty();
        for p in &self.pieces {
            let proj = p.project_with(keep, budget)?;
            out = out.union(ProblemSet::from(proj));
        }
        Ok(out)
    }

    /// Exact subset test: every point of `self` is in `other`.
    ///
    /// Decided through the Presburger layer: for each piece `p`,
    /// `p ∧ ¬q₁ ∧ … ∧ ¬qₙ` must be unsatisfiable.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SpaceMismatch`] for incompatible spaces and
    /// propagates solver errors (including
    /// [`Error::TooComplex`] when stride negation exceeds the
    /// quantifier-elimination budget).
    pub fn is_subset_of(&self, other: &ProblemSet, budget: &mut Budget) -> Result<bool> {
        for p in &self.pieces {
            // Widen the space to cover every operand's wildcards.
            let mut space = p.clone();
            for q in &other.pieces {
                space.extend_space_to(q)?;
            }
            let mut parts = vec![Formula::from_problem(p)];
            parts.extend(
                other
                    .pieces
                    .iter()
                    .map(|q| Formula::not(Formula::from_problem(q))),
            );
            if Formula::and(parts).is_satisfiable(&space, budget)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Exact equality of the two sets.
    ///
    /// # Errors
    ///
    /// See [`is_subset_of`](ProblemSet::is_subset_of).
    pub fn set_eq(&self, other: &ProblemSet, budget: &mut Budget) -> Result<bool> {
        Ok(self.is_subset_of(other, budget)? && other.is_subset_of(self, budget)?)
    }
}

impl std::fmt::Display for ProblemSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.pieces.is_empty() {
            return write!(f, "{{ }}");
        }
        for (i, p) in self.pieces.iter().enumerate() {
            if i > 0 {
                write!(f, " union ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// Convenience: builds the union of two problems.
///
/// # Errors
///
/// Returns [`Error::SpaceMismatch`] for incompatible spaces.
pub fn union_of(a: &Problem, b: &Problem) -> Result<ProblemSet> {
    if !a.same_space(b) {
        return Err(Error::SpaceMismatch);
    }
    Ok(ProblemSet::from(a.clone()).union(ProblemSet::from(b.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;
    use crate::var::VarKind;

    fn space1() -> (Problem, VarId) {
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        (s, x)
    }

    fn interval(space: &Problem, x: VarId, lo: i64, hi: i64) -> Problem {
        let mut p = space.clone();
        p.add_geq(LinExpr::var(x).plus_const(-lo));
        p.add_geq(LinExpr::term(-1, x).plus_const(hi));
        p
    }

    #[test]
    fn union_and_membership() {
        let (s, x) = space1();
        let set = union_of(&interval(&s, x, 0, 3), &interval(&s, x, 7, 9)).unwrap();
        for v in -2..12 {
            assert_eq!(
                set.contains_point(&[v]),
                (0..=3).contains(&v) || (7..=9).contains(&v),
                "x = {v}"
            );
        }
    }

    #[test]
    fn subset_tests() {
        let (s, x) = space1();
        let inner = union_of(&interval(&s, x, 1, 2), &interval(&s, x, 8, 9)).unwrap();
        let outer = ProblemSet::from(interval(&s, x, 0, 10));
        let mut budget = Budget::default();
        assert!(inner.is_subset_of(&outer, &mut budget).unwrap());
        assert!(!outer.is_subset_of(&inner, &mut budget).unwrap());
    }

    #[test]
    fn union_covering_is_detected() {
        // [0,5] ∪ [4,10] ⊇ [0,10]: needs the genuine union test, no
        // single piece suffices.
        let (s, x) = space1();
        let cover = union_of(&interval(&s, x, 0, 5), &interval(&s, x, 4, 10)).unwrap();
        let whole = ProblemSet::from(interval(&s, x, 0, 10));
        let mut budget = Budget::default();
        assert!(whole.is_subset_of(&cover, &mut budget).unwrap());
        assert!(whole.set_eq(&cover, &mut budget).unwrap());
    }

    #[test]
    fn simplify_drops_empty_pieces() {
        let (s, x) = space1();
        let mut set = union_of(&interval(&s, x, 5, 1), &interval(&s, x, 0, 2)).unwrap();
        assert_eq!(set.len(), 2);
        let mut budget = Budget::default();
        set.simplify(&mut budget).unwrap();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn projection_of_union() {
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let y = s.add_var("y", VarKind::Input);
        // {x = 2y, 0 <= y <= 3} ∪ {x = 2y+1, 10 <= y <= 12}
        let mut even = s.clone();
        even.add_eq(LinExpr::var(x).plus_term(-2, y));
        even.add_geq(LinExpr::var(y));
        even.add_geq(LinExpr::term(-1, y).plus_const(3));
        let mut odd = s.clone();
        odd.add_eq(LinExpr::var(x).plus_term(-2, y).plus_const(-1));
        odd.add_geq(LinExpr::var(y).plus_const(-10));
        odd.add_geq(LinExpr::term(-1, y).plus_const(12));
        let set = union_of(&even, &odd).unwrap();
        let mut budget = Budget::default();
        let proj = set.project(&[x], &mut budget).unwrap();
        // Membership via piece satisfiability with x pinned.
        let member = |v: i64| {
            proj.pieces().iter().any(|p| {
                let mut q = p.clone();
                q.add_eq(LinExpr::var(x).plus_const(-v));
                q.is_satisfiable().unwrap()
            })
        };
        for v in -1..30 {
            let expect = (v % 2 == 0 && (0..=6).contains(&v))
                || (v % 2 == 1 && (21..=25).contains(&v));
            assert_eq!(member(v), expect, "x = {v}");
        }
    }

    #[test]
    fn sample_from_union() {
        let (s, x) = space1();
        let set = union_of(&interval(&s, x, 5, 1), &interval(&s, x, 8, 9)).unwrap();
        let mut budget = Budget::default();
        let sol = set.sample(&mut budget).unwrap().unwrap();
        let v = sol[&x];
        assert!((8..=9).contains(&v));
    }

    #[test]
    fn empty_set_properties() {
        let set = ProblemSet::empty();
        let mut budget = Budget::default();
        assert!(set.is_empty());
        assert!(!set.is_satisfiable(&mut budget).unwrap());
        assert!(!set.contains_point(&[0]));
        let (s, x) = space1();
        let nonempty = ProblemSet::from(interval(&s, x, 0, 1));
        assert!(set.is_subset_of(&nonempty, &mut budget).unwrap());
        assert!(!nonempty.is_subset_of(&set, &mut budget).unwrap());
    }

    #[test]
    fn display() {
        let (s, x) = space1();
        let set = union_of(&interval(&s, x, 0, 1), &interval(&s, x, 3, 4)).unwrap();
        let txt = set.to_string();
        assert!(txt.contains("union"), "{txt}");
    }
}
