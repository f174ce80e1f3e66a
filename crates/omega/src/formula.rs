//! A Presburger-formula layer on top of conjunctions (§3.2).
//!
//! Formulas are built from linear atoms over a shared variable space with
//! `∧`, `∨`, `¬`, `∃` and `∀`. Quantifiers are eliminated by rewriting to
//! disjunctive normal form ([`Formula::dnf`]), using the Omega test's
//! projection for existential quantifiers (splinters become extra
//! disjuncts).
//!
//! Satisfiability ([`Formula::is_satisfiable`], and validity through it)
//! never builds the whole formula's DNF. Each top-level conjunct is
//! expanded on its own, and the product of those expansions is searched
//! depth first: a partial conjunction that is infeasible prunes every
//! leaf below it, and the first satisfiable leaf ends the search. The §4
//! fallback query `p ∧ ¬q₁ ∧ … ∧ ¬qₙ` has a product that grows
//! exponentially with `n`, and its leaves are mostly either pruned early
//! or satisfiable at once.
//!
//! Every DNF piece keeps its own existentials: the wildcards of a
//! divisibility atom or a projection, and a quantified variable that a
//! projection leaves in a stride, live in columns past the formula's
//! space, and conjoining two pieces renumbers one side's so they never
//! share a column.
//!
//! The paper deliberately does not characterize the subclass it decides
//! efficiently; the same is true here — deeply alternating quantifiers can
//! blow up in DNF size, but the shapes dependence analysis needs
//! (`∀x. p ⇒ ∃y. q`) stay small. A work budget and a depth guard turn
//! the pathological ones into [`Error::TooComplex`](crate::Error).

use crate::linexpr::{Constraint, LinExpr, Relation};
use crate::problem::{Budget, Problem};
use crate::redundant::negate_geq;
use crate::var::{VarId, VarKind};
use crate::Result;

/// A formula of Presburger arithmetic over a fixed variable space.
///
/// The space is supplied when the formula is evaluated (see
/// [`Formula::dnf`]); atoms carry constraints whose variable ids refer to
/// that space.
#[derive(Debug, Clone)]
pub enum Formula {
    /// The true formula.
    True,
    /// The false formula.
    False,
    /// A single linear constraint.
    Atom(Constraint),
    /// Divisibility: `g | expr` (equivalently `∃α. expr = g·α`).
    ///
    /// First-class so that negation stays decidable:
    /// `¬(g | e) ≡ ∃α,ρ. e = g·α + ρ ∧ 1 ≤ ρ ≤ g−1`.
    Divides(crate::int::Coef, LinExpr),
    /// Non-divisibility: `g ∤ expr`.
    NotDivides(crate::int::Coef, LinExpr),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// Negation.
    Not(Box<Formula>),
    /// Existential quantification of the listed variables.
    Exists(Vec<VarId>, Box<Formula>),
    /// Universal quantification of the listed variables.
    Forall(Vec<VarId>, Box<Formula>),
}

impl Formula {
    /// The atom `expr == 0`.
    pub fn eq0(expr: LinExpr) -> Formula {
        Formula::Atom(Constraint::eq(expr))
    }

    /// The atom `expr >= 0`.
    pub fn geq0(expr: LinExpr) -> Formula {
        Formula::Atom(Constraint::geq(expr))
    }

    /// Conjunction of the given formulas.
    pub fn and(fs: Vec<Formula>) -> Formula {
        Formula::And(fs)
    }

    /// Disjunction of the given formulas.
    pub fn or(fs: Vec<Formula>) -> Formula {
        Formula::Or(fs)
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// `∃ vars. f`
    pub fn exists(vars: Vec<VarId>, f: Formula) -> Formula {
        Formula::Exists(vars, Box::new(f))
    }

    /// `∀ vars. f`
    pub fn forall(vars: Vec<VarId>, f: Formula) -> Formula {
        Formula::Forall(vars, Box::new(f))
    }

    /// `self ⇒ other`
    pub fn implies(self, other: Formula) -> Formula {
        Formula::Or(vec![Formula::not(self), other])
    }

    /// Converts a whole problem into a conjunction of atoms.
    ///
    /// A wildcard that appears exactly once, in a single equality, encodes
    /// a stride; such equalities become [`Formula::Divides`] atoms (keeping
    /// negation decidable). Remaining wildcards are wrapped in an
    /// existential.
    pub fn from_problem(p: &Problem) -> Formula {
        if p.is_known_infeasible() {
            return Formula::False;
        }
        // Count wildcard occurrences across all constraints.
        let mut occurrences = vec![0usize; p.num_vars()];
        for c in p.eqs().iter().chain(p.geqs()) {
            for (v, _) in c.expr().terms() {
                occurrences[v.index()] += 1;
            }
        }
        let is_lone_wild =
            |v: VarId| p.var_info(v).kind() == VarKind::Wildcard && occurrences[v.index()] == 1;
        let mut atoms: Vec<Formula> = Vec::new();
        let mut leftover_wilds: std::collections::BTreeSet<VarId> =
            std::collections::BTreeSet::new();
        for c in p.eqs() {
            // Stride pattern: exactly one lone wildcard in an equality.
            let wilds: Vec<(VarId, crate::int::Coef)> = c
                .expr()
                .terms()
                .filter(|&(v, _)| p.var_info(v).kind() == VarKind::Wildcard)
                .collect();
            if wilds.len() == 1 && is_lone_wild(wilds[0].0) {
                let (w, g) = wilds[0];
                let mut rest = c.expr().clone();
                rest.set_coef(w, 0);
                atoms.push(Formula::Divides(g.abs(), rest));
                continue;
            }
            for (v, _) in &wilds {
                leftover_wilds.insert(*v);
            }
            atoms.push(Formula::Atom(c.clone()));
        }
        for c in p.geqs() {
            for (v, _) in c.expr().terms() {
                if p.var_info(v).kind() == VarKind::Wildcard {
                    leftover_wilds.insert(v);
                }
            }
            atoms.push(Formula::Atom(c.clone()));
        }
        let body = Formula::And(atoms);
        if leftover_wilds.is_empty() {
            body
        } else {
            Formula::Exists(leftover_wilds.into_iter().collect(), Box::new(body))
        }
    }

    /// Rewrites into disjunctive normal form: a union of conjunctions over
    /// the free variables of `space`. Existentials are eliminated by exact
    /// projection; universals by `¬∃¬`.
    ///
    /// # Errors
    ///
    /// Propagates solver errors; may be exponential for deeply alternating
    /// formulas (guarded by `budget`).
    pub fn dnf(&self, space: &Problem, budget: &mut Budget) -> Result<Vec<Problem>> {
        let nnf = self.to_nnf(false);
        nnf.dnf_nnf(space, budget, 0)
    }

    /// Satisfiability over the free variables.
    ///
    /// The DNF of the whole formula is never built: each top-level
    /// conjunct is expanded on its own, and their product is searched
    /// depth first, smallest factor first. Every partial conjunction is
    /// checked (through the memo cache, when one is attached) and an
    /// infeasible one prunes its whole subtree; the first satisfiable leaf
    /// answers `true`. Each visited node charges the budget.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn is_satisfiable(&self, space: &Problem, budget: &mut Budget) -> Result<bool> {
        let nnf = self.to_nnf(false);
        // Depths as in `dnf`: an `And`'s conjuncts sit one level below it.
        let mut factors = match &nnf {
            Formula::And(fs) => fs
                .iter()
                .map(|f| f.dnf_nnf(space, budget, 1))
                .collect::<Result<Vec<_>>>()?,
            f => vec![f.dnf_nnf(space, budget, 0)?],
        };
        factors.sort_by_key(Vec::len);
        search_product(&space_copy(space), &factors, space.num_vars(), budget)
    }

    /// Validity: true for **all** integer values of the free variables.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn is_valid(&self, space: &Problem, budget: &mut Budget) -> Result<bool> {
        Ok(!Formula::not(self.clone()).is_satisfiable(space, budget)?)
    }

    /// Negation normal form. `negate` tracks an odd number of enclosing
    /// negations.
    fn to_nnf(&self, negate: bool) -> Formula {
        match self {
            Formula::True => {
                if negate {
                    Formula::False
                } else {
                    Formula::True
                }
            }
            Formula::False => {
                if negate {
                    Formula::True
                } else {
                    Formula::False
                }
            }
            Formula::Atom(c) => {
                if !negate {
                    Formula::Atom(c.clone())
                } else {
                    match c.relation() {
                        // ¬(e >= 0)  ≡  -e - 1 >= 0
                        Relation::NonNegative => {
                            Formula::Atom(Constraint::geq(negate_geq(c.expr())))
                        }
                        // ¬(e == 0)  ≡  e - 1 >= 0  ∨  -e - 1 >= 0
                        Relation::Zero => {
                            let mut pos = c.expr().clone();
                            pos.add_constant(-1).expect("overflow");
                            Formula::Or(vec![
                                Formula::Atom(Constraint::geq(pos)),
                                Formula::Atom(Constraint::geq(negate_geq(c.expr()))),
                            ])
                        }
                    }
                }
            }
            Formula::Divides(g, e) => {
                if negate {
                    Formula::NotDivides(*g, e.clone())
                } else {
                    Formula::Divides(*g, e.clone())
                }
            }
            Formula::NotDivides(g, e) => {
                if negate {
                    Formula::Divides(*g, e.clone())
                } else {
                    Formula::NotDivides(*g, e.clone())
                }
            }
            Formula::And(fs) => {
                let inner = fs.iter().map(|f| f.to_nnf(negate)).collect();
                if negate {
                    Formula::Or(inner)
                } else {
                    Formula::And(inner)
                }
            }
            Formula::Or(fs) => {
                let inner = fs.iter().map(|f| f.to_nnf(negate)).collect();
                if negate {
                    Formula::And(inner)
                } else {
                    Formula::Or(inner)
                }
            }
            Formula::Not(f) => f.to_nnf(!negate),
            Formula::Exists(vs, f) => {
                let inner = Box::new(f.to_nnf(negate));
                if negate {
                    Formula::Forall(vs.clone(), inner)
                } else {
                    Formula::Exists(vs.clone(), inner)
                }
            }
            Formula::Forall(vs, f) => {
                let inner = Box::new(f.to_nnf(negate));
                if negate {
                    Formula::Exists(vs.clone(), inner)
                } else {
                    Formula::Forall(vs.clone(), inner)
                }
            }
        }
    }

    /// DNF of a formula already in NNF.
    fn dnf_nnf(&self, space: &Problem, budget: &mut Budget, depth: usize) -> Result<Vec<Problem>> {
        if depth > MAX_FORMULA_DEPTH {
            return Err(crate::Error::TooComplex {
                budget: MAX_FORMULA_DEPTH,
            });
        }
        let depth = depth + 1;
        match self {
            Formula::True => Ok(vec![space_copy(space)]),
            Formula::False => Ok(Vec::new()),
            Formula::Atom(c) => {
                let mut p = space_copy(space);
                p.add_constraint(c.clone());
                Ok(vec![p])
            }
            Formula::Divides(g, e) => {
                let g = g.abs();
                let mut p = space_copy(space);
                if g <= 1 {
                    // 1 | e and 0 | e ≡ e = 0 (for g = 0).
                    if g == 0 {
                        p.add_eq(e.clone());
                    }
                    return Ok(vec![p]);
                }
                // ∃α. e − g·α = 0
                let alpha = p.add_wildcard();
                let mut eq = e.clone();
                eq.set_coef(alpha, -g);
                p.add_eq(eq);
                Ok(vec![p])
            }
            Formula::NotDivides(g, e) => {
                let g = g.abs();
                let mut p = space_copy(space);
                if g == 1 {
                    return Ok(Vec::new()); // 1 divides everything
                }
                if g == 0 {
                    // 0 ∤ e ≡ e ≠ 0.
                    return Formula::not(Formula::eq0(e.clone()))
                        .to_nnf(false)
                        .dnf_nnf(space, budget, depth);
                }
                // ∃α,ρ. e = g·α + ρ ∧ 1 ≤ ρ ≤ g−1
                let alpha = p.add_wildcard();
                let rho = p.add_wildcard();
                let mut eq = e.clone();
                eq.set_coef(alpha, -g);
                eq.set_coef(rho, -1);
                p.add_eq(eq);
                p.add_geq(LinExpr::var(rho).plus_const(-1));
                p.add_geq(LinExpr::term(-1, rho).plus_const(g - 1));
                Ok(vec![p])
            }
            // NNF has no bare negations, but stray ones (e.g. built by
            // callers) are handled by renormalizing.
            Formula::Not(f) => f.to_nnf(true).dnf_nnf(space, budget, depth),
            Formula::Or(fs) => {
                let mut out = Vec::new();
                for f in fs {
                    out.extend(f.dnf_nnf(space, budget, depth)?);
                }
                Ok(out)
            }
            Formula::And(fs) => {
                let mut acc = vec![space_copy(space)];
                for f in fs {
                    let parts = f.dnf_nnf(space, budget, depth)?;
                    let mut next = Vec::new();
                    budget.spend(acc.len() * parts.len())?;
                    for a in &acc {
                        for b in &parts {
                            next.push(conjoin(a, b, space.num_vars())?);
                        }
                    }
                    acc = next;
                }
                Ok(acc)
            }
            Formula::Exists(vs, f) => {
                let inner = f.dnf_nnf(space, budget, depth)?;
                let mut out = Vec::new();
                for p in inner {
                    let pieces = p.project_away(vs, budget)?.into_problems();
                    out.extend(pieces.into_iter().map(|piece| localize(piece, space)));
                }
                Ok(out)
            }
            Formula::Forall(vs, f) => {
                // ∀x.f ≡ ¬∃x.¬f. Compute the DNF of ∃x.¬f (f is already
                // in NNF, so `to_nnf(true)` is its NNF negation), then
                // negate the resulting union: ∧ over pieces of ¬piece.
                let not_f = f.to_nnf(true);
                let pieces =
                    Formula::Exists(vs.clone(), Box::new(not_f)).dnf_nnf(space, budget, depth)?;
                let negation = Formula::And(negations(&pieces).map(|f| f.to_nnf(false)).collect());
                negation.dnf_nnf(&widened(space, &pieces)?, budget, depth)
            }
        }
    }
}

/// Recursion guard for deeply alternating formulas.
const MAX_FORMULA_DEPTH: usize = 64;

/// Decides `p ⇒ q₁ ∨ … ∨ qₙ` exactly: the implication holds iff
/// `p ∧ ¬q₁ ∧ … ∧ ¬qₙ` has no integer solution (§3.2). That formula is
/// decided by [`Formula::is_satisfiable`], whose depth-first product
/// search charges `budget` and goes through its memo cache.
///
/// The `qᵢ` may carry wildcard columns past `p`'s table, as projection
/// pieces do; the formula's space is `p`'s table widened over them.
///
/// # Examples
///
/// ```
/// use omega::{implies_union, Budget, LinExpr, Problem, VarKind};
///
/// let mut space = Problem::new();
/// let x = space.add_var("x", VarKind::Input);
/// let mut p = space.clone(); // 0 <= x <= 10
/// p.add_geq(LinExpr::var(x));
/// p.add_geq(LinExpr::term(-1, x).plus_const(10));
/// let mut low = space.clone(); // x <= 5
/// low.add_geq(LinExpr::term(-1, x).plus_const(5));
/// let mut high = space.clone(); // x >= 4
/// high.add_geq(LinExpr::var(x).plus_const(-4));
/// // Neither disjunct alone covers p; their union does.
/// assert!(implies_union(&p, &[low, high], &mut Budget::default())?);
/// # Ok::<(), omega::Error>(())
/// ```
///
/// # Errors
///
/// Returns [`Error::SpaceMismatch`](crate::Error::SpaceMismatch) when a
/// `qᵢ` is over another space, and propagates solver errors, including
/// [`Error::TooComplex`](crate::Error::TooComplex) when negating a `qᵢ`
/// exceeds the budget or the formula depth guard.
pub fn implies_union(p: &Problem, qs: &[Problem], budget: &mut Budget) -> Result<bool> {
    let space = widened(p, qs)?;
    let query = Formula::And(
        std::iter::once(Formula::from_problem(p))
            .chain(negations(qs))
            .collect(),
    );
    Ok(!query.is_satisfiable(&space, budget)?)
}

/// `¬q` for each piece of a union, as flat conjuncts.
fn negations(qs: &[Problem]) -> impl Iterator<Item = Formula> + '_ {
    qs.iter().map(|q| Formula::not(Formula::from_problem(q)))
}

/// `space`'s table widened over every piece's surplus wildcard columns,
/// so a formula over the pieces can be decided in it.
fn widened(space: &Problem, pieces: &[Problem]) -> Result<Problem> {
    let mut wide = space.clone();
    for p in pieces {
        wide.extend_space_to(p)?;
    }
    Ok(wide)
}

/// Whether `acc` conjoined with one piece of every factor is satisfiable
/// for some choice of pieces: a depth-first walk that drops a branch as
/// soon as its partial conjunction is infeasible.
fn search_product(
    acc: &Problem,
    factors: &[Vec<Problem>],
    width: usize,
    budget: &mut Budget,
) -> Result<bool> {
    let Some((first, rest)) = factors.split_first() else {
        return Ok(true);
    };
    for piece in first {
        budget.spend(1)?;
        let c = conjoin(acc, piece, width)?;
        if c.is_satisfiable_with(budget)? && search_product(&c, rest, width, budget)? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// `acc ∧ piece` for two DNF pieces over a space of `width` columns.
///
/// A piece's columns past `width` are its own existentials (the `α`, `ρ`
/// of a divisibility atom, a projection's wildcards). They are renumbered
/// past `acc`'s columns, so two pieces' existentials never alias.
fn conjoin(acc: &Problem, piece: &Problem, width: usize) -> Result<Problem> {
    let mut c = acc.clone();
    let shift = c.num_vars() - width;
    if shift == 0 || piece.num_vars() <= width {
        c.and(piece)?;
        return Ok(c);
    }
    // Both tables extend the space's `width` columns, which stay put.
    for _ in width..piece.num_vars() {
        c.add_wildcard();
    }
    for k in piece.eqs.iter().chain(&piece.geqs) {
        let mut k = k.clone();
        k.map_expr(|e| {
            let mut moved = LinExpr::constant_expr(e.constant());
            for (v, a) in e.terms() {
                let i = v.index();
                moved.set_coef(VarId::from_index(if i < width { i } else { i + shift }), a);
            }
            *e = moved;
        });
        c.add_constraint(k);
    }
    c.known_infeasible |= piece.known_infeasible;
    Ok(c)
}

/// Gives a projection piece its own existentials. A variable of `space`
/// that the piece still mentions but the projection did not keep (it is
/// unprotected in the piece: a quantified variable left in a stride)
/// moves to a fresh wildcard past the table, where
/// [`conjoin`] keeps it apart from every other piece and
/// [`Formula::from_problem`] sees it as bound. The space's own wildcard
/// columns stay put: `from_problem` binds them again at every use, and
/// moving them would give each level of a `∀ → ∃ → ∀` recursion a new
/// problem instead of a memo hit.
fn localize(mut piece: Problem, space: &Problem) -> Problem {
    let stale: Vec<VarId> = space
        .var_ids()
        .filter(|&v| space.var_info(v).kind() != VarKind::Wildcard && !piece.is_protected(v))
        .filter(|&v| {
            piece
                .eqs
                .iter()
                .chain(&piece.geqs)
                .any(|k| k.expr().coef(v) != 0)
        })
        .collect();
    for v in stale {
        let w = piece.add_wildcard();
        for k in piece.eqs.iter_mut().chain(piece.geqs.iter_mut()) {
            let a = k.expr().coef(v);
            if a != 0 {
                k.map_expr(|e| {
                    e.set_coef(v, 0);
                    e.set_coef(w, a);
                });
            }
        }
    }
    piece
}

fn space_copy(space: &Problem) -> Problem {
    let mut p = space.clone();
    p.eqs.clear();
    p.geqs.clear();
    p.known_infeasible = false;
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_xy() -> (Problem, VarId, VarId) {
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let y = s.add_var("y", VarKind::Input);
        (s, x, y)
    }

    #[test]
    fn tautology_or() {
        // x >= 0 ∨ x <= 5 is valid.
        let (s, x, _) = space_xy();
        let f = Formula::or(vec![
            Formula::geq0(LinExpr::var(x)),
            Formula::geq0(LinExpr::term(-1, x).plus_const(5)),
        ]);
        let mut b = Budget::default();
        assert!(f.is_valid(&s, &mut b).unwrap());
    }

    #[test]
    fn non_tautology() {
        let (s, x, _) = space_xy();
        let f = Formula::geq0(LinExpr::var(x));
        let mut b = Budget::default();
        assert!(!f.is_valid(&s, &mut b).unwrap());
        assert!(f.is_satisfiable(&s, &mut b).unwrap());
    }

    #[test]
    fn negated_equality_splits() {
        // ¬(x == y) is satisfiable but not valid.
        let (s, x, y) = space_xy();
        let f = Formula::not(Formula::eq0(LinExpr::var(x).plus_term(-1, y)));
        let mut b = Budget::default();
        assert!(f.is_satisfiable(&s, &mut b).unwrap());
        assert!(!f.is_valid(&s, &mut b).unwrap());
    }

    #[test]
    fn exists_projection() {
        // ∃y. (x = 2y): x even. Satisfiable; not valid.
        let (s, x, y) = space_xy();
        let f = Formula::exists(vec![y], Formula::eq0(LinExpr::var(x).plus_term(-2, y)));
        let mut b = Budget::default();
        assert!(f.is_satisfiable(&s, &mut b).unwrap());
        assert!(!f.is_valid(&s, &mut b).unwrap());
        // ∃y. x = 2y ∨ x = 2y + 1 is valid.
        let g = Formula::exists(
            vec![y],
            Formula::or(vec![
                Formula::eq0(LinExpr::var(x).plus_term(-2, y)),
                Formula::eq0(LinExpr::var(x).plus_term(-2, y).plus_const(-1)),
            ]),
        );
        assert!(g.is_valid(&s, &mut b).unwrap());
    }

    #[test]
    fn forall_exists_shape_from_paper() {
        // ∀x. (∃y. x = y): trivially valid.
        let (s, x, y) = space_xy();
        let f = Formula::forall(
            vec![x],
            Formula::exists(vec![y], Formula::eq0(LinExpr::var(x).plus_term(-1, y))),
        );
        let mut b = Budget::default();
        assert!(f.is_valid(&s, &mut b).unwrap());
    }

    #[test]
    fn implication_shape() {
        // ∀x. (x >= 5 ⇒ x >= 1) valid; converse invalid.
        let (s, x, _) = space_xy();
        let mut b = Budget::default();
        let f = Formula::geq0(LinExpr::var(x).plus_const(-5))
            .implies(Formula::geq0(LinExpr::var(x).plus_const(-1)));
        assert!(f.is_valid(&s, &mut b).unwrap());
        let g = Formula::geq0(LinExpr::var(x).plus_const(-1))
            .implies(Formula::geq0(LinExpr::var(x).plus_const(-5)));
        assert!(!g.is_valid(&s, &mut b).unwrap());
    }

    #[test]
    fn exists_implies_exists() {
        // ∀x. (∃y. 2y = x) ⇒ (∃z. 4z = x ∨ 4z + 2 = x): even numbers are
        // 0 or 2 mod 4 — valid.
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let y = s.add_var("y", VarKind::Input);
        let z = s.add_var("z", VarKind::Input);
        let even = Formula::exists(vec![y], Formula::eq0(LinExpr::var(x).plus_term(-2, y)));
        let mod4 = Formula::exists(
            vec![z],
            Formula::or(vec![
                Formula::eq0(LinExpr::var(x).plus_term(-4, z)),
                Formula::eq0(LinExpr::var(x).plus_term(-4, z).plus_const(-2)),
            ]),
        );
        let mut b = Budget::default();
        assert!(even.implies(mod4).is_valid(&s, &mut b).unwrap());
    }

    /// `0 ≤ x ≤ 7 ∧ ¬(x = 0) ∧ … ∧ ¬(x = 7)`: unsatisfiable, but only
    /// after a search through many feasible partial conjunctions.
    fn excluded_interval(s: &Problem, x: VarId) -> Formula {
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x));
        p.add_geq(LinExpr::term(-1, x).plus_const(7));
        let mut parts = vec![Formula::from_problem(&p)];
        for i in 0..8 {
            let mut q = s.clone();
            q.add_eq(LinExpr::var(x).plus_const(-i));
            parts.push(Formula::not(Formula::from_problem(&q)));
        }
        Formula::and(parts)
    }

    #[test]
    fn budget_bounds_the_product_search() {
        let (s, x, _) = space_xy();
        let f = excluded_interval(&s, x);
        assert!(!f.is_satisfiable(&s, &mut Budget::default()).unwrap());
        for n in [0, 1, 5, 30] {
            assert_eq!(
                f.is_satisfiable(&s, &mut Budget::new(n)),
                Err(crate::Error::TooComplex { budget: n }),
                "a budget of {n} steps must stop the search",
            );
        }
    }

    #[test]
    fn every_visited_node_charges_the_budget() {
        // `x ≥ 0` first (one piece), then k constant-false pieces under
        // it: k + 1 nodes, none of them costly for the solver. The second
        // run is served from the memo cache and must charge as much.
        let (s, x, _) = space_xy();
        let k = 6;
        let dead_ends = (1..=k)
            .map(|i| Formula::geq0(LinExpr::constant_expr(-i)))
            .collect();
        let f = Formula::and(vec![Formula::or(dead_ends), Formula::geq0(LinExpr::var(x))]);
        let cache = std::sync::Arc::new(crate::SolverCache::new());
        let spent: Vec<usize> = (0..2)
            .map(|_| {
                let mut b = Budget::default().with_cache(cache.clone());
                assert!(!f.is_satisfiable(&s, &mut b).unwrap());
                crate::problem::DEFAULT_BUDGET - b.remaining()
            })
            .collect();
        assert!(
            spent[0] > k as usize,
            "{} steps for {} nodes",
            spent[0],
            k + 1
        );
        assert_eq!(spent[0], spent[1], "a memo hit must charge its cold cost");
    }

    #[test]
    fn existentials_of_separate_conjuncts_stay_separate() {
        // (∃y. x = 2y) ∧ (∃y. z = 3y) at x = 2, z = 6: y = 1 and y = 2.
        // Projection leaves y in each piece's stride; it must not become
        // one shared y, nor a free one.
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let y = s.add_var("y", VarKind::Input);
        let z = s.add_var("z", VarKind::Input);
        let f = Formula::and(vec![
            Formula::eq0(LinExpr::var(x).plus_const(-2)),
            Formula::eq0(LinExpr::var(z).plus_const(-6)),
            Formula::exists(vec![y], Formula::eq0(LinExpr::var(x).plus_term(-2, y))),
            Formula::exists(vec![y], Formula::eq0(LinExpr::var(z).plus_term(-3, y))),
        ]);
        let mut b = Budget::default();
        assert!(f.is_satisfiable(&s, &mut b).unwrap());
        // ∀y. ¬(x = 2y) is "x is odd", not "x ≠ 2y for the free y".
        let odd = Formula::forall(
            vec![y],
            Formula::not(Formula::eq0(LinExpr::var(x).plus_term(-2, y))),
        );
        let at = |v: i64| {
            Formula::and(vec![
                Formula::eq0(LinExpr::var(x).plus_const(-v)),
                odd.clone(),
            ])
        };
        assert!(at(3).is_satisfiable(&s, &mut b).unwrap());
        assert!(!at(4).is_satisfiable(&s, &mut b).unwrap());
    }

    #[test]
    fn negated_bounded_stride_gives_up_on_the_depth_guard() {
        // Shrunk from a kill query of a generated program: is
        // 1 ≤ y ≤ m ∧ ¬∃w. (y = 3 − 2w ∧ 1 ≤ w ≤ m) satisfiable? (Yes,
        // y = 2.) `w` sits in the stride and in the bounds, so it is not a
        // lone stride wildcard and the negation is `∀w`. Projecting the
        // `∃w` inside it keeps the same shape (`y = 3 − 2α` with `α`
        // bounded), `from_problem` wraps that piece in `∃α`, its negation
        // is `∀α`, and the `∀ → ∃ → ∀` cycle ends at the depth guard.
        // This pins today's conservative give-up.
        let mut s = Problem::new();
        let y = s.add_var("y", VarKind::Input);
        let m = s.add_var("m", VarKind::Symbolic);
        let mut p = s.clone();
        p.add_geq(LinExpr::var(y).plus_const(-1));
        p.add_geq(LinExpr::var(m).plus_term(-1, y));
        let mut q = s.clone();
        let w = q.add_wildcard();
        q.add_eq(LinExpr::term(2, w).plus_term(1, y).plus_const(-3));
        q.add_geq(LinExpr::var(m).plus_term(-1, w));
        q.add_geq(LinExpr::var(w).plus_const(-1));
        assert_eq!(
            implies_union(&p, &[q], &mut Budget::default()),
            Err(crate::Error::TooComplex {
                budget: MAX_FORMULA_DEPTH
            })
        );
    }

    fn interval(s: &Problem, x: VarId, lo: i64, hi: i64) -> Problem {
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x).plus_const(-lo));
        p.add_geq(LinExpr::term(-1, x).plus_const(hi));
        p
    }

    #[test]
    fn union_needed() {
        // 0 <= x <= 10  ⇒  x <= 5 ∨ x >= 4, though neither disjunct
        // alone covers the premise.
        let (s, x, _) = space_xy();
        let qs = [interval(&s, x, -100, 5), interval(&s, x, 4, 100)];
        let mut b = Budget::default();
        assert!(implies_union(&interval(&s, x, 0, 10), &qs, &mut b).unwrap());
    }

    #[test]
    fn union_that_really_fails() {
        // 0 <= x <= 10 ⇒ x <= 3 ∨ x >= 6 is false (x = 4).
        let (s, x, _) = space_xy();
        let qs = [interval(&s, x, -100, 3), interval(&s, x, 6, 100)];
        let mut b = Budget::default();
        assert!(!implies_union(&interval(&s, x, 0, 10), &qs, &mut b).unwrap());
    }

    #[test]
    fn union_implication_is_a_subset_test() {
        let (s, x, _) = space_xy();
        let mut b = Budget::default();
        let inner = [interval(&s, x, 1, 2), interval(&s, x, 8, 9)];
        let outer = interval(&s, x, 0, 10);
        for piece in &inner {
            assert!(implies_union(piece, std::slice::from_ref(&outer), &mut b).unwrap());
        }
        assert!(!implies_union(&outer, &inner, &mut b).unwrap());
        // The empty union: only an empty premise implies it.
        assert!(!implies_union(&outer, &[], &mut b).unwrap());
        assert!(implies_union(&interval(&s, x, 5, 1), &[], &mut b).unwrap());
    }

    #[test]
    fn from_problem_roundtrip() {
        let (s, x, y) = space_xy();
        let mut p = s.clone();
        p.add_geq(LinExpr::var(x).plus_term(-1, y));
        p.add_eq(LinExpr::var(y).plus_const(-3));
        let f = Formula::from_problem(&p);
        let mut b = Budget::default();
        let dnf = f.dnf(&s, &mut b).unwrap();
        assert_eq!(dnf.len(), 1);
        for xv in 0..6 {
            for yv in 0..6 {
                assert_eq!(dnf[0].satisfies(&[xv, yv]), p.satisfies(&[xv, yv]));
            }
        }
    }
}

impl Formula {
    /// Renders the formula with variable names drawn from `space`.
    ///
    /// # Examples
    ///
    /// ```
    /// use omega::{Formula, LinExpr, Problem, VarKind};
    /// let mut s = Problem::new();
    /// let x = s.add_var("x", VarKind::Input);
    /// let y = s.add_var("y", VarKind::Input);
    /// let f = Formula::exists(vec![y], Formula::eq0(LinExpr::var(x).plus_term(-2, y)));
    /// assert_eq!(f.display(&s), "exists y: x - 2y = 0");
    /// ```
    pub fn display(&self, space: &Problem) -> String {
        match self {
            Formula::True => "TRUE".to_string(),
            Formula::False => "FALSE".to_string(),
            Formula::Atom(c) => space.constraint_to_string(c),
            Formula::Divides(g, e) => format!("{g} | ({})", space.expr_to_string(e)),
            Formula::NotDivides(g, e) => {
                format!("not {g} | ({})", space.expr_to_string(e))
            }
            Formula::And(fs) => join_with(fs, space, " and "),
            Formula::Or(fs) => join_with(fs, space, " or "),
            Formula::Not(f) => format!("not ({})", f.display(space)),
            Formula::Exists(vs, f) => {
                format!("exists {}: {}", var_list(vs, space), f.display(space))
            }
            Formula::Forall(vs, f) => {
                format!("forall {}: {}", var_list(vs, space), f.display(space))
            }
        }
    }
}

fn join_with(fs: &[Formula], space: &Problem, sep: &str) -> String {
    if fs.is_empty() {
        return "TRUE".to_string();
    }
    fs.iter()
        .map(|f| {
            let s = f.display(space);
            if matches!(f, Formula::And(_) | Formula::Or(_)) {
                format!("({s})")
            } else {
                s
            }
        })
        .collect::<Vec<_>>()
        .join(sep)
}

fn var_list(vs: &[VarId], space: &Problem) -> String {
    vs.iter()
        .map(|&v| space.var_info(v).name().to_string())
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn renders_nested_formulas() {
        let mut s = Problem::new();
        let x = s.add_var("x", VarKind::Input);
        let y = s.add_var("y", VarKind::Input);
        let f = Formula::forall(
            vec![x],
            Formula::or(vec![
                Formula::geq0(LinExpr::var(x)),
                Formula::exists(vec![y], Formula::eq0(LinExpr::var(x).plus_term(-3, y))),
            ]),
        );
        assert_eq!(f.display(&s), "forall x: x >= 0 or exists y: x - 3y = 0");
        let d = Formula::Divides(4, LinExpr::var(x).plus_const(1));
        assert_eq!(d.display(&s), "4 | (x + 1)");
    }
}
