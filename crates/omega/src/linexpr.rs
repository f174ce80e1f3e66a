//! Dense linear expressions and the constraints built from them.

use crate::int::{self, Coef};
use crate::{Result, VarId};

/// A linear expression `Σ cᵢ·xᵢ + k` with integer coefficients.
///
/// Coefficient storage is sparse-tailed: positions past the end of the
/// internal vector read as zero, so expressions created before a variable
/// was added to the problem remain valid afterwards. The vector never
/// ends in a zero — every mutator trims trailing zeros — so the derived
/// `PartialEq`/`Hash` are canonical: two expressions are equal exactly
/// when they denote the same linear function.
///
/// # Examples
///
/// ```
/// use omega::{LinExpr, Problem, VarKind};
///
/// let mut p = Problem::new();
/// let x = p.add_var(VarKind::Input);
/// let e = LinExpr::term(2, x).plus_const(3); // 2x + 3
/// assert_eq!(e.coef(x), 2);
/// assert_eq!(e.constant(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    coeffs: Vec<Coef>,
    constant: Coef,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant_expr(k: Coef) -> Self {
        LinExpr {
            coeffs: Vec::new(),
            constant: k,
        }
    }

    /// The single term `c · v`.
    pub fn term(c: Coef, v: VarId) -> Self {
        let mut e = LinExpr::zero();
        e.set_coef(v, c);
        e
    }

    /// The variable `v` itself (coefficient 1).
    pub fn var(v: VarId) -> Self {
        Self::term(1, v)
    }

    /// The coefficient of `v` (zero when absent).
    pub fn coef(&self, v: VarId) -> Coef {
        self.coeffs.get(v.index()).copied().unwrap_or(0)
    }

    /// Builds an expression from a dense coefficient slice (used by the
    /// tableau kernel when re-interning rows), trimming trailing zeros to
    /// keep the canonical no-trailing-zero invariant.
    pub(crate) fn from_dense(coeffs: &[Coef], constant: Coef) -> Self {
        let len = coeffs.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
        LinExpr {
            coeffs: coeffs[..len].to_vec(),
            constant,
        }
    }

    /// The constant term.
    pub fn constant(&self) -> Coef {
        self.constant
    }

    /// Sets the constant term.
    pub fn set_constant(&mut self, k: Coef) {
        self.constant = k;
    }

    /// Sets the coefficient of `v`.
    pub fn set_coef(&mut self, v: VarId, c: Coef) {
        let i = v.index();
        if i >= self.coeffs.len() {
            if c == 0 {
                return;
            }
            self.coeffs.resize(i + 1, 0);
        }
        self.coeffs[i] = c;
        if c == 0 {
            self.trim();
        }
    }

    /// Drops trailing zero coefficients, restoring the canonical-storage
    /// invariant after a mutation that may have zeroed the tail.
    fn trim(&mut self) {
        while self.coeffs.last() == Some(&0) {
            self.coeffs.pop();
        }
    }

    /// Adds `c` to the coefficient of `v`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overflow`](crate::Error::Overflow) on coefficient
    /// overflow.
    pub fn add_coef(&mut self, v: VarId, c: Coef) -> Result<()> {
        let cur = self.coef(v);
        self.set_coef(v, int::narrow(cur as i128 + c as i128)?);
        Ok(())
    }

    /// Adds `k` to the constant term.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overflow`](crate::Error::Overflow) on overflow.
    pub fn add_constant(&mut self, k: Coef) -> Result<()> {
        self.constant = int::narrow(self.constant as i128 + k as i128)?;
        Ok(())
    }

    /// Returns `self + k`, consuming `self`. Panics-free builder used in
    /// examples and tests where operands are small.
    ///
    /// # Panics
    ///
    /// Panics on overflow; use [`LinExpr::add_constant`] for checked
    /// arithmetic.
    pub fn plus_const(mut self, k: Coef) -> Self {
        self.add_constant(k).expect("constant overflow");
        self
    }

    /// Returns `self + c·v`, consuming `self`.
    ///
    /// # Panics
    ///
    /// Panics on overflow; use [`LinExpr::add_coef`] for checked arithmetic.
    pub fn plus_term(mut self, c: Coef, v: VarId) -> Self {
        self.add_coef(v, c).expect("coefficient overflow");
        self
    }

    /// `self := self + m * other`, exactly.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overflow`](crate::Error::Overflow) if any resulting
    /// coefficient exceeds `i64`.
    pub fn add_scaled(&mut self, m: Coef, other: &LinExpr) -> Result<()> {
        if other.coeffs.len() > self.coeffs.len() {
            self.coeffs.resize(other.coeffs.len(), 0);
        }
        for (i, &oc) in other.coeffs.iter().enumerate() {
            if oc != 0 {
                self.coeffs[i] = int::mul_add(m, oc, self.coeffs[i])?;
            }
        }
        self.constant = int::mul_add(m, other.constant, self.constant)?;
        self.trim();
        Ok(())
    }

    /// Returns `a*self + b*other` as a fresh expression.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overflow`](crate::Error::Overflow) on coefficient
    /// overflow.
    pub fn combine(&self, a: Coef, b: Coef, other: &LinExpr) -> Result<LinExpr> {
        let mut r = LinExpr::zero();
        r.add_scaled(a, self)?;
        r.add_scaled(b, other)?;
        Ok(r)
    }

    /// Negates the expression in place. Never overflows for values produced
    /// by this crate (we never store `i64::MIN`).
    pub fn negate(&mut self) {
        for c in &mut self.coeffs {
            *c = -*c;
        }
        self.constant = -self.constant;
    }

    /// Returns the negated expression.
    pub fn negated(&self) -> LinExpr {
        let mut e = self.clone();
        e.negate();
        e
    }

    /// Multiplies the whole expression by `m`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overflow`](crate::Error::Overflow) on overflow.
    pub fn scale(&mut self, m: Coef) -> Result<()> {
        for c in &mut self.coeffs {
            *c = int::narrow(*c as i128 * m as i128)?;
        }
        self.constant = int::narrow(self.constant as i128 * m as i128)?;
        if m == 0 {
            self.trim();
        }
        Ok(())
    }

    /// GCD of all variable coefficients (not the constant); zero when the
    /// expression has no variables.
    pub fn coef_gcd(&self) -> Coef {
        self.coeffs.iter().fold(0, |g, &c| int::gcd(g, c))
    }

    /// Iterates over `(VarId, coefficient)` pairs with non-zero coefficient.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, Coef)> + '_ {
        self.coeffs
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (VarId::from_index(i), c))
    }

    /// True when the expression has no variable with non-zero coefficient.
    pub fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// Number of variables with non-zero coefficient.
    pub fn num_terms(&self) -> usize {
        self.coeffs.iter().filter(|&&c| c != 0).count()
    }

    /// Evaluates the expression under a (dense) assignment. Positions past
    /// the end of `values` are treated as zero.
    pub fn eval(&self, values: &[Coef]) -> i128 {
        let mut acc = self.constant as i128;
        for (i, &c) in self.coeffs.iter().enumerate() {
            if c != 0 {
                acc += c as i128 * values.get(i).copied().unwrap_or(0) as i128;
            }
        }
        acc
    }

    /// Substitutes `v := replacement` (which must not mention `v`),
    /// eliminating `v` from this expression.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overflow`](crate::Error::Overflow) on overflow.
    ///
    /// # Panics
    ///
    /// Debug-panics if `replacement` mentions `v`.
    pub fn substitute(&mut self, v: VarId, replacement: &LinExpr) -> Result<()> {
        debug_assert_eq!(replacement.coef(v), 0, "self-referential substitution");
        let c = self.coef(v);
        if c == 0 {
            return Ok(());
        }
        self.set_coef(v, 0);
        self.add_scaled(c, replacement)
    }

    /// The dense coefficient vector, borrowed. The storage invariant (no
    /// trailing zeros) makes the slice canonical: two expressions have
    /// equal slices iff they have equal coefficients, so this doubles as
    /// an allocation-free duplicate-detection key (ignoring constants).
    pub(crate) fn coeffs(&self) -> &[Coef] {
        &self.coeffs
    }
}

/// The relation a constraint asserts about its expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `expr == 0`
    Zero,
    /// `expr >= 0`
    NonNegative,
}

/// Constraint color for the red/black gist machinery of §3.3.2.
///
/// Black constraints are "things already known"; red constraints are the
/// candidate new information whose gist is being computed. Ordinary
/// problems use [`Color::Black`] throughout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Color {
    /// Known context (`q` in `gist p given q`).
    #[default]
    Black,
    /// Candidate new information (`p` in `gist p given q`).
    Red,
}

impl Color {
    /// Combining rule for *derived* constraints: any red parent makes the
    /// child red (new information propagates).
    pub fn join(self, other: Color) -> Color {
        if self == Color::Red || other == Color::Red {
            Color::Red
        } else {
            Color::Black
        }
    }

    /// Merging rule for *identical* constraints: black wins — a fact that
    /// is already known stays known, and the red duplicate carries no new
    /// information.
    pub fn meet(self, other: Color) -> Color {
        if self == Color::Black || other == Color::Black {
            Color::Black
        } else {
            Color::Red
        }
    }
}

/// One constraint of a [`Problem`](crate::Problem): an expression together
/// with its relation to zero and its gist color.
///
/// The expression is held as an interned row (see the crate's `row`
/// module): structurally equal expressions share one allocation, so cloning a constraint is a reference-count bump and the
/// derived equality / hash collapse to an id comparison — which, for live
/// rows, the store guarantees coincides with content comparison.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    pub(crate) row: std::sync::Arc<crate::row::Row>,
    pub(crate) rel: Relation,
    pub(crate) color: Color,
}

impl Constraint {
    /// Creates `expr == 0`.
    pub fn eq(expr: LinExpr) -> Self {
        Constraint {
            row: crate::row::intern(expr),
            rel: Relation::Zero,
            color: Color::Black,
        }
    }

    /// Creates `expr >= 0`.
    pub fn geq(expr: LinExpr) -> Self {
        Constraint {
            row: crate::row::intern(expr),
            rel: Relation::NonNegative,
            color: Color::Black,
        }
    }

    /// Recolors the constraint.
    pub fn with_color(mut self, color: Color) -> Self {
        self.color = color;
        self
    }

    /// The underlying expression.
    pub fn expr(&self) -> &LinExpr {
        &self.row.expr
    }

    /// Rewrites the expression through `f`, re-interning only when the
    /// content actually changed (no-op rewrites keep the shared row).
    pub(crate) fn map_expr(&mut self, f: impl FnOnce(&mut LinExpr)) {
        let mut e = self.row.expr.clone();
        f(&mut e);
        if e != self.row.expr {
            self.row = crate::row::intern(e);
        }
    }

    /// The relation asserted.
    pub fn relation(&self) -> Relation {
        self.rel
    }

    /// The gist color.
    pub fn color(&self) -> Color {
        self.color
    }

    /// Whether an assignment satisfies the constraint.
    pub fn holds(&self, values: &[Coef]) -> bool {
        let v = self.expr().eval(values);
        match self.rel {
            Relation::Zero => v == 0,
            Relation::NonNegative => v >= 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::VarId;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    #[test]
    fn build_and_read_back() {
        let e = LinExpr::term(3, v(0)).plus_term(-2, v(2)).plus_const(5);
        assert_eq!(e.coef(v(0)), 3);
        assert_eq!(e.coef(v(1)), 0);
        assert_eq!(e.coef(v(2)), -2);
        assert_eq!(e.constant(), 5);
        assert_eq!(e.num_terms(), 2);
        assert!(!e.is_constant());
    }

    #[test]
    fn sparse_tail_reads_as_zero() {
        let e = LinExpr::term(1, v(0));
        assert_eq!(e.coef(v(100)), 0);
    }

    #[test]
    fn zeroing_a_tail_coefficient_restores_equality_and_hash() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |e: &LinExpr| {
            let mut h = DefaultHasher::new();
            e.hash(&mut h);
            h.finish()
        };
        // x + 2z, then z zeroed: must equal (and hash like) plain x.
        let mut a = LinExpr::term(1, v(0)).plus_term(2, v(2));
        a.set_coef(v(2), 0);
        let b = LinExpr::term(1, v(0));
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        assert_eq!(a.coeffs(), b.coeffs());
    }

    #[test]
    fn cancelling_arithmetic_trims_the_tail() {
        // add_scaled cancellation: (x + 3y) - 3y == x.
        let mut a = LinExpr::term(1, v(0)).plus_term(3, v(1));
        a.add_scaled(-3, &LinExpr::var(v(1))).unwrap();
        assert_eq!(a, LinExpr::var(v(0)));
        // scale by zero: everything collapses to the zero expression.
        let mut b = LinExpr::term(5, v(3)).plus_const(7);
        b.scale(0).unwrap();
        assert_eq!(b, LinExpr::zero());
        // substitute eliminating the last variable trims too.
        let mut c = LinExpr::term(2, v(1));
        c.substitute(v(1), &LinExpr::constant_expr(4)).unwrap();
        assert_eq!(c, LinExpr::constant_expr(8));
    }

    #[test]
    fn combine_is_exact() {
        let a = LinExpr::term(2, v(0)).plus_const(1);
        let b = LinExpr::term(3, v(1)).plus_const(-4);
        let c = a.combine(3, 2, &b).unwrap(); // 6x + 6y + 3 - 8
        assert_eq!(c.coef(v(0)), 6);
        assert_eq!(c.coef(v(1)), 6);
        assert_eq!(c.constant(), -5);
    }

    #[test]
    fn substitute_eliminates_variable() {
        // e = 2x + y + 1, x := 3y - 2  =>  e = 7y - 3
        let mut e = LinExpr::term(2, v(0)).plus_term(1, v(1)).plus_const(1);
        let r = LinExpr::term(3, v(1)).plus_const(-2);
        e.substitute(v(0), &r).unwrap();
        assert_eq!(e.coef(v(0)), 0);
        assert_eq!(e.coef(v(1)), 7);
        assert_eq!(e.constant(), -3);
    }

    #[test]
    fn eval_matches_structure() {
        let e = LinExpr::term(2, v(0)).plus_term(-1, v(1)).plus_const(4);
        assert_eq!(e.eval(&[3, 5]), 2 * 3 - 5 + 4);
        assert_eq!(e.eval(&[]), 4);
    }

    #[test]
    fn coef_gcd_ignores_constant() {
        let e = LinExpr::term(4, v(0)).plus_term(6, v(1)).plus_const(3);
        assert_eq!(e.coef_gcd(), 2);
        assert_eq!(LinExpr::constant_expr(7).coef_gcd(), 0);
    }

    #[test]
    fn color_join() {
        assert_eq!(Color::Black.join(Color::Black), Color::Black);
        assert_eq!(Color::Red.join(Color::Black), Color::Red);
        assert_eq!(Color::Black.join(Color::Red), Color::Red);
    }

    #[test]
    fn constraint_holds() {
        let c = Constraint::geq(LinExpr::term(1, v(0)).plus_const(-3)); // x - 3 >= 0
        assert!(c.holds(&[3]));
        assert!(c.holds(&[10]));
        assert!(!c.holds(&[2]));
        let e = Constraint::eq(LinExpr::term(2, v(0)).plus_term(-1, v(1))).with_color(Color::Red);
        assert!(e.holds(&[2, 4]));
        assert!(!e.holds(&[2, 5]));
        assert_eq!(e.color(), Color::Red);
    }
}
