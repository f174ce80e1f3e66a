//! The central [`Problem`] type: a conjunction of linear equalities and
//! inequalities over a table of integer variables.

use std::sync::Arc;

use crate::cache::SolverCache;
use crate::int::Coef;
use crate::linexpr::{Color, Constraint, LinExpr, Relation};
use crate::var::{VarId, VarInfo, VarKind};
use crate::{Error, Result};

/// Solver switches, mostly for ablation studies: the defaults are the
/// algorithms the paper describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverOptions {
    /// Use the dark shadow as a satisfiability fast path (§3.1). Disabling
    /// it forces splinter enumeration whenever elimination is inexact —
    /// the ablation that shows why the dark shadow matters.
    pub dark_shadow: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions { dark_shadow: true }
    }
}

/// A work budget threaded through recursive solver routines so pathological
/// inputs fail cleanly with [`Error::TooComplex`] instead of diverging.
/// Also carries the [`SolverOptions`] for the run.
#[derive(Debug, Clone)]
pub struct Budget {
    remaining: usize,
    initial: usize,
    pub(crate) options: SolverOptions,
    cache: Option<Arc<SolverCache>>,
}

impl Budget {
    /// A budget of `steps` elementary solver operations.
    pub fn new(steps: usize) -> Self {
        Budget {
            remaining: steps,
            initial: steps,
            options: SolverOptions::default(),
            cache: None,
        }
    }

    /// Replaces the solver options (ablation switches).
    #[must_use]
    pub fn with_options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches a shared memo cache, consulted by the sat/project/gist
    /// entry points (a budget without one runs every query cold). Cached
    /// results are charged against this budget at their cold cost, so
    /// budget behavior is identical with and without the cache.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<SolverCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The active solver options.
    pub fn options(&self) -> SolverOptions {
        self.options
    }

    /// Steps left before [`Error::TooComplex`].
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The attached cache, if any.
    pub(crate) fn active_cache(&self) -> Option<Arc<SolverCache>> {
        self.cache.clone()
    }

    /// Removes the cache (used while computing a miss, so nested queries
    /// run cold and recorded costs stay schedule-independent).
    pub(crate) fn detach_cache(&mut self) -> Option<Arc<SolverCache>> {
        self.cache.take()
    }

    /// Restores a cache removed by [`Budget::detach_cache`].
    pub(crate) fn attach_cache(&mut self, cache: Option<Arc<SolverCache>>) {
        self.cache = cache;
    }

    /// Consumes `n` steps.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooComplex`] once the budget is exhausted.
    pub fn spend(&mut self, n: usize) -> Result<()> {
        if self.remaining < n {
            Err(Error::TooComplex {
                budget: self.initial,
            })
        } else {
            self.remaining -= n;
            Ok(())
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::new(DEFAULT_BUDGET)
    }
}

/// Default work budget for the convenience entry points.
pub const DEFAULT_BUDGET: usize = 2_000_000;

/// A conjunction of linear equalities (`expr == 0`) and inequalities
/// (`expr >= 0`) over integer variables.
///
/// This is the object the Omega test manipulates: satisfiability asks
/// whether the conjunction has an *integer* solution; projection computes
/// its exact shadow on a subset of the variables; gists compute the new
/// information in one problem relative to another.
///
/// # Examples
///
/// ```
/// use omega::{LinExpr, Problem, VarKind};
///
/// // 0 <= a <= 5  and  b < a <= 5b  has integer solutions (e.g. a=2, b=1).
/// let mut p = Problem::new();
/// let a = p.add_var(VarKind::Input);
/// let b = p.add_var(VarKind::Input);
/// p.add_geq(LinExpr::var(a));                                   // a >= 0
/// p.add_geq(LinExpr::term(-1, a).plus_const(5));                // a <= 5
/// p.add_geq(LinExpr::var(a).plus_term(-1, b).plus_const(-1));   // a >= b+1
/// p.add_geq(LinExpr::term(5, b).plus_term(-1, a));              // 5b >= a
/// assert!(p.is_satisfiable()?);
/// # Ok::<(), omega::Error>(())
/// ```
/// The variable table is shared copy-on-write (`Arc`): cloning a problem
/// — which the solver does constantly while projecting and splintering —
/// bumps a reference count instead of copying the table, and the
/// constraint lists clone as reference-count bumps on interned rows. The
/// first mutation of a shared table copies it.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    pub(crate) vars: Arc<Vec<VarInfo>>,
    pub(crate) eqs: Vec<Constraint>,
    pub(crate) geqs: Vec<Constraint>,
    /// Set when normalization discovers a constant contradiction.
    pub(crate) known_infeasible: bool,
}

impl Problem {
    /// An empty (trivially true) problem over no variables.
    pub fn new() -> Self {
        Problem::default()
    }

    /// Mutable access to the variable table, copying it first if it is
    /// shared with other problems (copy-on-write).
    pub(crate) fn vars_mut(&mut self) -> &mut Vec<VarInfo> {
        Arc::make_mut(&mut self.vars)
    }

    /// Adds a variable and returns its id: the next position of the
    /// table.
    pub fn add_var(&mut self, kind: VarKind) -> VarId {
        let id = VarId::from_index(self.vars.len());
        self.vars_mut().push(VarInfo::new(kind));
        id
    }

    /// Number of variables ever added (including dead ones).
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Information about a variable.
    pub fn var_info(&self, v: VarId) -> &VarInfo {
        &self.vars[v.index()]
    }

    /// All variable ids, including dead ones.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.vars.len()).map(VarId::from_index)
    }

    /// Marks a variable protected: it will survive projection.
    pub fn set_protected(&mut self, v: VarId, protected: bool) {
        self.vars_mut()[v.index()].protected = protected;
    }

    /// Whether `v` is protected. Columns past the table (imported from a
    /// wider space) behave as unprotected wildcards.
    pub fn is_protected(&self, v: VarId) -> bool {
        self.vars.get(v.index()).is_some_and(|i| i.protected)
    }

    pub(crate) fn is_dead(&self, v: VarId) -> bool {
        self.vars.get(v.index()).is_some_and(|i| i.dead)
    }

    /// Adds the equality `expr == 0`.
    pub fn add_eq(&mut self, expr: LinExpr) {
        self.eqs.push(Constraint::eq(expr));
    }

    /// Adds the inequality `expr >= 0`.
    pub fn add_geq(&mut self, expr: LinExpr) {
        self.geqs.push(Constraint::geq(expr));
    }

    /// Adds an arbitrary constraint, keeping its color.
    pub fn add_constraint(&mut self, c: Constraint) {
        match c.rel {
            Relation::Zero => self.eqs.push(c),
            Relation::NonNegative => self.geqs.push(c),
        }
    }

    /// The equality constraints.
    pub fn eqs(&self) -> &[Constraint] {
        &self.eqs
    }

    /// The inequality constraints.
    pub fn geqs(&self) -> &[Constraint] {
        &self.geqs
    }

    /// Total number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.eqs.len() + self.geqs.len()
    }

    /// True when the problem has no constraints (and is therefore a
    /// tautology).
    pub fn is_trivially_true(&self) -> bool {
        !self.known_infeasible && self.eqs.is_empty() && self.geqs.is_empty()
    }

    /// True when normalization has already discovered a contradiction.
    pub fn is_known_infeasible(&self) -> bool {
        self.known_infeasible
    }

    /// A process-local digest of this problem's canonical form.
    ///
    /// Two problems stating the same conjunction over the same variable
    /// table digest equally, regardless of constraint insertion order,
    /// exact duplicates, GCD scaling, equality sign, or whether their
    /// constraints were built fresh or cloned from another problem.
    ///
    /// Unlike the in-memory memo keys, which hash interned row *ids*,
    /// the digest hashes canonical *content*: the rows canonicalization
    /// mints (e.g. a GCD-reduced inequality) are temporaries that die
    /// with this call, so a later digest of an equivalent problem would
    /// see them re-interned under fresh ids. The value comes from `std`'s
    /// `DefaultHasher`, whose algorithm may change between Rust releases,
    /// so it must never be persisted.
    pub fn canonical_digest(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let canon = crate::canon::canonicalize(self);
        let mut h = DefaultHasher::new();
        canon.known_infeasible.hash(&mut h);
        canon.vars.hash(&mut h);
        for list in [&canon.eqs, &canon.geqs] {
            list.len().hash(&mut h);
            for c in list {
                c.relation().hash(&mut h);
                c.color().hash(&mut h);
                c.expr().constant().hash(&mut h);
                for (v, coef) in c.expr().terms() {
                    (v.index(), coef).hash(&mut h);
                }
                // Terminator: keeps adjacent constraints' terms from
                // hashing identically under different groupings.
                usize::MAX.hash(&mut h);
            }
        }
        h.finish()
    }

    /// The canonical form of this problem: same variable table,
    /// GCD-reduced constraints, sorted and deduplicated constraint
    /// lists — the form the memo cache keys on and computes cached
    /// projections and gists against.
    ///
    /// Two problems with equal [`canonical_digest`](Self::canonical_digest)s
    /// canonicalize to byte-identical problems, so any *derived* output
    /// (a projection, a gist, a rendering) computed from the canonical
    /// form is stable across construction paths. Use this at render
    /// boundaries when the output of an order-sensitive algorithm
    /// (Fourier–Motzkin projection, gist) must not leak how the input
    /// problem happened to be assembled.
    pub fn canonicalized(&self) -> Problem {
        crate::canon::canonicalize(self)
    }

    /// Whether two problems share a variable table (kinds agree on the
    /// common prefix; one table may extend the other with wildcards).
    pub fn same_space(&self, other: &Problem) -> bool {
        let n = self.vars.len().min(other.vars.len());
        self.vars[..n].iter().zip(&other.vars[..n]).all(|(a, b)| {
            a.kind == b.kind
                // Projection may demote a variable to an existential
                // (wildcard); the tables remain compatible.
                || a.kind == VarKind::Wildcard
                || b.kind == VarKind::Wildcard
        }) && self.vars[n..].iter().all(|v| v.kind == VarKind::Wildcard)
            && other.vars[n..].iter().all(|v| v.kind == VarKind::Wildcard)
    }

    /// Extends this problem's variable table with any extra (wildcard)
    /// variables of `other`, without copying constraints. Needed before
    /// mixing constraints from a projection result (which may have
    /// introduced wildcards) into formulas over this problem's space.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SpaceMismatch`] if the tables are incompatible.
    pub fn extend_space_to(&mut self, other: &Problem) -> Result<()> {
        if !self.same_space(other) {
            return Err(Error::SpaceMismatch);
        }
        self.import_extra_vars(other);
        Ok(())
    }

    /// Appends `other`'s surplus (wildcard) variables to this table.
    /// Callers have already established [`Problem::same_space`].
    fn import_extra_vars(&mut self, other: &Problem) {
        if self.vars.len() >= other.vars.len() {
            return;
        }
        if self.vars.is_empty() {
            // Share the whole table instead of copying it.
            self.vars = Arc::clone(&other.vars);
            return;
        }
        let vars = self.vars_mut();
        vars.extend_from_slice(&other.vars[vars.len()..]);
    }

    /// Conjoins all constraints of `other` into `self`, recoloring them.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SpaceMismatch`] if the problems do not share a
    /// variable table.
    pub fn and_colored(&mut self, other: &Problem, color: Color) -> Result<()> {
        if !self.same_space(other) {
            return Err(Error::SpaceMismatch);
        }
        self.import_extra_vars(other);
        for c in other.eqs.iter().chain(&other.geqs) {
            self.add_constraint(c.clone().with_color(color));
        }
        self.known_infeasible |= other.known_infeasible;
        Ok(())
    }

    /// Conjoins `other` into `self`, keeping the original colors.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SpaceMismatch`] if the problems do not share a
    /// variable table.
    pub fn and(&mut self, other: &Problem) -> Result<()> {
        if !self.same_space(other) {
            return Err(Error::SpaceMismatch);
        }
        self.import_extra_vars(other);
        for c in other.eqs.iter().chain(&other.geqs) {
            self.add_constraint(c.clone());
        }
        self.known_infeasible |= other.known_infeasible;
        Ok(())
    }

    /// Checks an explicit assignment (dense, indexed by variable) against
    /// every constraint. Useful for testing and for validating witnesses.
    pub fn satisfies(&self, values: &[Coef]) -> bool {
        !self.known_infeasible && self.eqs.iter().chain(&self.geqs).all(|c| c.holds(values))
    }

    /// Strips colors, turning every constraint black.
    pub fn blacken(&mut self) {
        for c in self.eqs.iter_mut().chain(self.geqs.iter_mut()) {
            c.color = Color::Black;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProblemLike;

    #[test]
    fn build_simple_problem() {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        let n = p.add_var(VarKind::Symbolic);
        p.constrain_ge(&LinExpr::var(x), &LinExpr::constant_expr(1))
            .unwrap();
        p.constrain_le(&LinExpr::var(x), &LinExpr::var(n)).unwrap();
        assert_eq!(p.num_constraints(), 2);
        assert_eq!(n.index(), 1);
        assert!(p.satisfies(&[3, 5]));
        assert!(!p.satisfies(&[0, 5]));
        assert!(!p.satisfies(&[6, 5]));
    }

    #[test]
    fn constrain_lt_is_strict_integer() {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        let y = p.add_var(VarKind::Input);
        p.constrain_lt(&LinExpr::var(x), &LinExpr::var(y)).unwrap();
        assert!(p.satisfies(&[1, 2]));
        assert!(!p.satisfies(&[2, 2]));
    }

    #[test]
    fn same_space_and_merge() {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        let mut q = Problem::new();
        let xq = q.add_var(VarKind::Input);
        assert_eq!(x, xq);
        q.add_geq(LinExpr::var(xq));
        assert!(p.same_space(&q));
        p.and_colored(&q, Color::Red).unwrap();
        assert_eq!(p.geqs().len(), 1);
        assert_eq!(p.geqs()[0].color(), Color::Red);

        // Kinds must agree position by position.
        let mut r = Problem::new();
        r.add_var(VarKind::Symbolic);
        assert!(!p.same_space(&r));
        assert_eq!(p.and(&r), Err(Error::SpaceMismatch));
    }

    #[test]
    fn wildcard_extension_is_same_space() {
        let mut p = Problem::new();
        p.add_var(VarKind::Input);
        let mut q = p.clone();
        q.add_var(VarKind::Wildcard);
        assert!(p.same_space(&q));
        assert!(q.same_space(&p));
    }

    #[test]
    fn budget_exhausts() {
        let mut b = Budget::new(5);
        assert!(b.spend(3).is_ok());
        assert!(b.spend(2).is_ok());
        assert!(matches!(b.spend(1), Err(Error::TooComplex { budget: 5 })));
    }

    #[test]
    fn blacken_strips_colors() {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        p.add_constraint(
            Constraint::geq(LinExpr::term(-1, x).plus_const(5)).with_color(Color::Red),
        );
        p.blacken();
        assert_eq!(p.geqs()[0].color(), Color::Black);
    }
}
