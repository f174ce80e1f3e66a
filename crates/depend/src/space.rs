//! Building Omega problems from tiny programs: iteration spaces,
//! subscript equality, and execution-order constraints.

use std::collections::BTreeSet;
use std::sync::Arc;

use omega::{LinExpr, Problem, ProblemLike, VarId, VarKind};
use tiny::ast::{name_key, Expr, RelOp};
use tiny::sema::{AccessForm, Affine, Assumptions, Cond, Var};
use tiny::{ProgramInfo, StmtInfo};

use crate::error::{Error, Result};

/// A constraint space for one analysis question: symbolic constants plus
/// one iteration-variable vector per participating statement.
///
/// All problems built from one `Space` share a variable table, so the
/// Omega test's [`implies`](omega::implies) and [`gist`](omega::gist) can
/// combine them directly. Program symbol `k` ([`Var::Sym`]) is the
/// space's `k`-th variable.
///
/// Solver variables are positions and carry no names. The space keeps
/// what it needs to name them — the program's shared symbol set and one
/// label per later variable — and builds a name string only when a §5
/// query looks one up ([`Space::sym`]) or prints ([`Space::names`]).
#[derive(Debug, Clone)]
pub struct Space {
    template: Problem,
    /// The program's symbols, shared with its [`ProgramInfo`].
    syms: Arc<BTreeSet<String>>,
    /// One label per variable after the symbols, in table order.
    labels: Vec<Label>,
}

/// How a variable after the program symbols is named when printed.
#[derive(Debug, Clone)]
enum Label {
    /// Loop `depth` (1-based) of a statement bound with `prefix`: `i1`.
    Iter(&'static str, usize),
    /// An occurrence variable added by [`Space::add_symbolic`].
    Occurrence(String),
}

/// The iteration variables bound for one statement within a [`Space`].
#[derive(Debug, Clone)]
pub struct StmtVars {
    /// One variable per enclosing loop, outermost first: the variable of
    /// [`Var::Loop`]`(d)` is `iters[d]`.
    pub iters: Vec<VarId>,
}

impl Space {
    /// Creates a space with one symbolic variable per program symbol, in
    /// the set's order.
    pub fn new(syms: &Arc<BTreeSet<String>>) -> Space {
        let mut template = Problem::new();
        for _ in 0..syms.len() {
            template.add_var(VarKind::Symbolic);
        }
        Space {
            template,
            syms: Arc::clone(syms),
            labels: Vec::new(),
        }
    }

    /// Binds iteration variables for `stmt`, named `prefix1..prefixN`
    /// (matching the paper's `i`, `j`, `k` vectors) when printed.
    pub fn bind_stmt(&mut self, prefix: &'static str, stmt: &StmtInfo) -> StmtVars {
        let iters = (1..=stmt.loops.len())
            .map(|d| {
                self.labels.push(Label::Iter(prefix, d));
                self.template.add_var(VarKind::Input)
            })
            .collect();
        StmtVars { iters }
    }

    /// Adds an extra scalar variable (used by the symbolic analysis for
    /// occurrence variables).
    pub fn add_symbolic(&mut self, name: impl Into<String>) -> VarId {
        self.labels.push(Label::Occurrence(name.into()));
        self.template.add_var(VarKind::Symbolic)
    }

    /// A fresh, constraint-free problem over this space.
    pub fn problem(&self) -> Problem {
        self.template.clone()
    }

    /// The symbolic variable named `name` (a program symbol or an
    /// occurrence variable), if present.
    pub fn sym(&self, name: &str) -> Option<VarId> {
        let key = name_key(name);
        if let Some(k) = self.syms.iter().position(|s| *s == key) {
            return Some(VarId::from_index(k));
        }
        let i = self
            .labels
            .iter()
            .position(|l| matches!(l, Label::Occurrence(n) if *n == key))?;
        Some(VarId::from_index(self.syms.len() + i))
    }

    /// All symbolic variables: the program symbols, then the occurrence
    /// variables.
    pub fn sym_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        let n = self.syms.len();
        let occurrences = self.labels.iter().enumerate().filter_map(move |(i, l)| {
            matches!(l, Label::Occurrence(_)).then(|| VarId::from_index(n + i))
        });
        (0..n).map(VarId::from_index).chain(occurrences)
    }

    /// The printed name of every variable of the space, indexed by
    /// [`VarId`]: the program symbols, `i1`-style iteration variables and
    /// occurrence names. Variables a problem adds past the space (stride
    /// and solver wildcards) print by position.
    pub fn names(&self) -> Vec<String> {
        let labels = self.labels.iter().map(|l| match l {
            Label::Iter(prefix, depth) => format!("{prefix}{depth}"),
            Label::Occurrence(name) => name.clone(),
        });
        self.syms.iter().cloned().chain(labels).collect()
    }

    /// Translates a lowered affine form into a [`LinExpr`], given the
    /// iteration variables of the statement it was lowered in. Returns
    /// `None` if it mentions a named scalar, which the exact analysis
    /// cannot bind.
    pub fn linexpr(&self, aff: &Affine, vars: &StmtVars) -> Option<LinExpr> {
        let mut e = LinExpr::constant_expr(aff.constant);
        for &(v, coef) in &aff.terms {
            let id = match v {
                Var::Loop(d) => vars.iters[d as usize],
                Var::Sym(k) => VarId::from_index(k as usize),
                Var::Scalar(_) => return None,
            };
            e.add_coef(id, coef).ok()?;
        }
        Some(e)
    }

    /// Adds the iteration-space constraints of `stmt` to `p` over the
    /// bound variables `vars`: every affine lower/upper bound piece plus
    /// stride constraints for non-unit steps. Opaque bound pieces are
    /// skipped (a sound over-approximation of the iteration space).
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn add_iteration_space(
        &self,
        p: &mut Problem,
        stmt: &StmtInfo,
        vars: &StmtVars,
    ) -> Result<()> {
        for (idx, l) in stmt.loops.iter().enumerate() {
            let iv = vars.iters[idx];
            if let Some(lowers) = &l.lower {
                for piece in lowers {
                    if let Some(e) = self.linexpr(piece, vars) {
                        p.constrain_ge(&LinExpr::var(iv), &e)
                            .map_err(Error::Solver)?;
                    }
                }
                // Stride: i = lower + step·α, α >= 0 (single-piece lower
                // bounds only; for max() bounds the base is data-dependent).
                if l.step > 1 && lowers.len() == 1 {
                    if let Some(lo) = self.linexpr(&lowers[0], vars) {
                        let alpha = p.add_var(VarKind::Wildcard);
                        // i - lo - step*alpha = 0
                        let mut eq = LinExpr::var(iv);
                        eq.add_scaled(-1, &lo).map_err(Error::Solver)?;
                        eq.add_coef(alpha, -l.step).map_err(Error::Solver)?;
                        p.add_eq(eq);
                        p.add_geq(LinExpr::var(alpha));
                    }
                }
            }
            if let Some(uppers) = &l.upper {
                for piece in uppers {
                    if let Some(e) = self.linexpr(piece, vars) {
                        p.constrain_le(&LinExpr::var(iv), &e)
                            .map_err(Error::Solver)?;
                    }
                }
            }
        }
        // Enclosing `if` guards restrict the iteration space further;
        // opaque or disjunctive ones were lowered to nothing (a sound
        // over-approximation).
        for cond in stmt.guards.iter().filter_map(|g| g.cond.as_ref()) {
            self.add_cond(p, cond, vars)?;
        }
        Ok(())
    }

    /// Adds one lowered relation over the statement bound to `vars`.
    fn add_cond(&self, p: &mut Problem, cond: &Cond, vars: &StmtVars) -> Result<()> {
        let (Some(l), Some(r)) = (self.linexpr(&cond.lhs, vars), self.linexpr(&cond.rhs, vars))
        else {
            return Ok(());
        };
        match cond.op {
            RelOp::Le => p.constrain_le(&l, &r),
            RelOp::Lt => p.constrain_lt(&l, &r),
            RelOp::Ge => p.constrain_ge(&l, &r),
            RelOp::Gt => p.constrain_lt(&r, &l),
            RelOp::Eq => p.constrain_eq(&l, &r),
            RelOp::Ne => Ok(()),
        }
        .map_err(Error::Solver)
    }

    /// Adds `A(i) =ₛᵤᵦ B(j)`: dimension-wise equality of the affine
    /// subscripts. Returns `true` when every dimension was affine; opaque
    /// dimensions are skipped (conservatively treated as possibly equal)
    /// and reported via `false` so the symbolic machinery can follow up.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn add_subscript_equality(
        &self,
        p: &mut Problem,
        a: &AccessForm,
        a_vars: &StmtVars,
        b: &AccessForm,
        b_vars: &StmtVars,
    ) -> Result<bool> {
        let mut all_affine = true;
        for (sa, sb) in a.subs.iter().zip(&b.subs) {
            let fa = sa.as_ref().and_then(|f| self.linexpr(f, a_vars));
            let fb = sb.as_ref().and_then(|f| self.linexpr(f, b_vars));
            match (fa, fb) {
                (Some(ea), Some(eb)) => {
                    p.constrain_eq(&ea, &eb).map_err(Error::Solver)?;
                }
                _ => all_affine = false,
            }
        }
        if a.subs.len() != b.subs.len() {
            all_affine = false;
        }
        Ok(all_affine)
    }

    /// Adds every program assumption over symbolic constants (relations
    /// that mention other names or use `!=` were lowered to nothing: they
    /// cannot be added to a conjunction).
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn add_assumptions(&self, p: &mut Problem, assumptions: &Assumptions) -> Result<()> {
        let no_loops = StmtVars { iters: Vec::new() };
        for rel in &assumptions.relations {
            self.add_cond(p, rel, &no_loops)?;
        }
        Ok(())
    }
}

/// Where an expression met at query time is lowered (see
/// [`ProgramInfo::lower`]): the program, and the statement whose loop
/// variables are in scope (`None` at program level).
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    /// The program.
    pub info: &'a ProgramInfo,
    /// The statement, if any.
    pub stmt: Option<&'a StmtInfo>,
}

/// Lowers an expression in `scope` and translates it over `vars`: `None`
/// for opaque expressions.
pub fn affine_in(e: &Expr, scope: Scope<'_>, vars: &StmtVars, space: &Space) -> Option<LinExpr> {
    space.linexpr(&scope.info.lower(scope.stmt, e)?, vars)
}

/// One conjunctive case of the execution-order predicate `A(i) ≪ B(j)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderCase {
    /// Carried at common loop `level` (1-based): equal on levels
    /// `1..level`, strictly increasing at `level`.
    CarriedAt(usize),
    /// Equal on all common loops; valid only when the source is lexically
    /// before the destination.
    LoopIndependent,
}

impl OrderCase {
    /// The distances this case's own equalities pin, one entry per common
    /// loop: `Some(0)` on the levels before the carrier (every level of
    /// the loop-independent case), `None` where the distance is free.
    pub(crate) fn fixed_distances(self, common: usize) -> Vec<Option<i64>> {
        let pinned = match self {
            OrderCase::CarriedAt(level) => level - 1,
            OrderCase::LoopIndependent => common,
        };
        (0..common).map(|l| (l < pinned).then_some(0)).collect()
    }
}

impl std::fmt::Display for OrderCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderCase::CarriedAt(l) => write!(f, "carried at level {l}"),
            OrderCase::LoopIndependent => write!(f, "loop independent"),
        }
    }
}

/// Enumerates the conjunctive cases of `A(i) ≪ B(j)` for statements with
/// `common` shared loops. `lex_before` states whether A precedes B
/// syntactically.
pub fn order_cases(common: usize, lex_before: bool) -> Vec<OrderCase> {
    let mut cases: Vec<OrderCase> = (1..=common).map(OrderCase::CarriedAt).collect();
    if lex_before {
        cases.push(OrderCase::LoopIndependent);
    }
    cases
}

/// Adds the constraints of one order case over the iteration vectors.
///
/// Generic over [`ProblemLike`]: the analysis applies order cases as
/// deltas over a pair's shared [`PairContext`](omega::PairContext) base.
///
/// # Errors
///
/// Propagates solver errors.
pub fn add_order<P: omega::ProblemLike>(
    p: &mut P,
    case: OrderCase,
    src: &StmtVars,
    dst: &StmtVars,
    common: usize,
) -> Result<()> {
    match case {
        OrderCase::CarriedAt(level) => {
            debug_assert!(level >= 1 && level <= common);
            for l in 0..level - 1 {
                p.constrain_eq(&LinExpr::var(src.iters[l]), &LinExpr::var(dst.iters[l]))
                    .map_err(Error::Solver)?;
            }
            p.constrain_lt(
                &LinExpr::var(src.iters[level - 1]),
                &LinExpr::var(dst.iters[level - 1]),
            )
            .map_err(Error::Solver)?;
        }
        OrderCase::LoopIndependent => {
            for l in 0..common {
                p.constrain_eq(&LinExpr::var(src.iters[l]), &LinExpr::var(dst.iters[l]))
                    .map_err(Error::Solver)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiny::{analyze, Program};

    fn setup(src: &str) -> (tiny::ProgramInfo, Space) {
        let p = Program::parse(src).unwrap();
        let info = analyze(&p).unwrap();
        let space = Space::new(&info.syms);
        (info, space)
    }

    #[test]
    fn iteration_space_triangular() {
        let (info, mut space) =
            setup("for i := 1 to n do for j := i to m do a(i,j) := 0; endfor endfor");
        let stmt = &info.stmts[0];
        let vars = space.bind_stmt("i", stmt);
        let mut p = space.problem();
        space.add_iteration_space(&mut p, stmt, &vars).unwrap();
        // Constraints: i >= 1, i <= n, j >= i, j <= m.
        assert_eq!(p.geqs().len(), 4);
        // n=5, m=5: (i,j) = (2,3) ok; (3,2) not.
        let n = space.sym("n").unwrap();
        let m = space.sym("m").unwrap();
        let mut vals = vec![0i64; p.num_vars()];
        vals[n.index()] = 5;
        vals[m.index()] = 5;
        vals[vars.iters[0].index()] = 2;
        vals[vars.iters[1].index()] = 3;
        assert!(p.satisfies(&vals));
        vals[vars.iters[0].index()] = 3;
        vals[vars.iters[1].index()] = 2;
        assert!(!p.satisfies(&vals));
    }

    #[test]
    fn max_bounds_become_two_constraints() {
        let (info, mut space) =
            setup("for j := 0 to n do for i := max(-m, -j) to -1 do a(i,j) := 0; endfor endfor");
        let stmt = &info.stmts[0];
        let vars = space.bind_stmt("i", stmt);
        let mut p = space.problem();
        space.add_iteration_space(&mut p, stmt, &vars).unwrap();
        // j: 2 constraints; i: 2 lower pieces + 1 upper = 3.
        assert_eq!(p.geqs().len(), 5);
    }

    #[test]
    fn subscript_equality_affine() {
        let (info, mut space) = setup("for i := 2 to n do a(i) := a(i-1); endfor");
        let stmt = &info.stmts[0];
        let wv = space.bind_stmt("i", stmt);
        let rv = space.bind_stmt("j", stmt);
        let mut p = space.problem();
        let exact = space
            .add_subscript_equality(&mut p, &stmt.write_form, &wv, &stmt.read_forms[0], &rv)
            .unwrap();
        assert!(exact);
        assert_eq!(p.eqs().len(), 1);
        // i = j - 1 is the equality.
        let e = p.eqs()[0].expr();
        assert_eq!(e.coef(wv.iters[0]) + e.coef(rv.iters[0]), 0);
    }

    #[test]
    fn opaque_subscripts_flagged() {
        let (info, mut space) = setup("for i := 1 to n do a(q(i)) := a(i); endfor");
        let stmt = &info.stmts[0];
        let wv = space.bind_stmt("i", stmt);
        let rv = space.bind_stmt("j", stmt);
        let mut p = space.problem();
        let exact = space
            .add_subscript_equality(&mut p, &stmt.write_form, &wv, &stmt.read_forms[1], &rv)
            .unwrap();
        assert!(!exact, "q(i) is opaque");
        assert!(p.eqs().is_empty());
    }

    #[test]
    fn order_cases_enumeration() {
        assert_eq!(
            order_cases(2, true),
            vec![
                OrderCase::CarriedAt(1),
                OrderCase::CarriedAt(2),
                OrderCase::LoopIndependent
            ]
        );
        assert_eq!(order_cases(0, false), vec![]);
        assert_eq!(order_cases(0, true), vec![OrderCase::LoopIndependent]);
    }

    #[test]
    fn order_cases_pin_the_levels_before_their_carrier() {
        assert_eq!(
            OrderCase::CarriedAt(1).fixed_distances(3),
            vec![None, None, None]
        );
        assert_eq!(
            OrderCase::CarriedAt(3).fixed_distances(3),
            vec![Some(0), Some(0), None]
        );
        assert_eq!(
            OrderCase::LoopIndependent.fixed_distances(2),
            vec![Some(0), Some(0)]
        );
        assert_eq!(OrderCase::LoopIndependent.fixed_distances(0), vec![]);
    }

    #[test]
    fn order_constraints_carried() {
        let (info, mut space) =
            setup("for i := 1 to n do for j := 1 to n do a(i,j) := a(i,j); endfor endfor");
        let stmt = &info.stmts[0];
        let sv = space.bind_stmt("i", stmt);
        let dv = space.bind_stmt("j", stmt);
        let mut p = space.problem();
        add_order(&mut p, OrderCase::CarriedAt(2), &sv, &dv, 2).unwrap();
        // i1 = j1 and i2 < j2.
        let mut vals = vec![0i64; p.num_vars()];
        vals[sv.iters[0].index()] = 3;
        vals[sv.iters[1].index()] = 4;
        vals[dv.iters[0].index()] = 3;
        vals[dv.iters[1].index()] = 5;
        assert!(p.satisfies(&vals));
        vals[dv.iters[1].index()] = 4;
        assert!(!p.satisfies(&vals));
        vals[dv.iters[0].index()] = 4;
        assert!(!p.satisfies(&vals));
    }

    #[test]
    fn assumptions_added() {
        let (info, space) = setup("sym n, m; assume 50 <= n <= 100; a(n) := a(m);");
        let mut p = space.problem();
        space.add_assumptions(&mut p, &info.assumptions).unwrap();
        assert_eq!(p.geqs().len(), 2);
        let n = space.sym("n").unwrap();
        let mut vals = vec![0i64; p.num_vars()];
        vals[n.index()] = 75;
        assert!(p.satisfies(&vals));
        vals[n.index()] = 101;
        assert!(!p.satisfies(&vals));
    }

    #[test]
    fn an_equality_assumption_is_one_equality() {
        let (info, space) = setup("sym n, m; assume n = 2 * m; assume n != 4; a(n) := a(m);");
        let mut p = space.problem();
        space.add_assumptions(&mut p, &info.assumptions).unwrap();
        assert_eq!((p.eqs().len(), p.geqs().len()), (1, 0), "`!=` is dropped");
        let (n, m) = (space.sym("n").unwrap(), space.sym("M").unwrap());
        let mut vals = vec![0i64; p.num_vars()];
        vals[n.index()] = 6;
        vals[m.index()] = 3;
        assert!(p.satisfies(&vals));
        vals[m.index()] = 2;
        assert!(!p.satisfies(&vals));
    }

    #[test]
    fn a_negated_guard_bounds_the_else_branch() {
        let (info, mut space) = setup(
            "sym n;
             for i := 1 to n do if i <= 5 then a(i) := 0; else a(i) := 1; endif endfor",
        );
        let stmt = info.stmt(2);
        let vars = space.bind_stmt("i", stmt);
        let mut p = space.problem();
        space.add_iteration_space(&mut p, stmt, &vars).unwrap();
        // i >= 1, i <= n, and the negated guard i > 5.
        assert_eq!(p.geqs().len(), 3);
        let n = space.sym("n").unwrap();
        let mut vals = vec![0i64; p.num_vars()];
        vals[n.index()] = 10;
        vals[vars.iters[0].index()] = 6;
        assert!(p.satisfies(&vals));
        vals[vars.iters[0].index()] = 5;
        assert!(!p.satisfies(&vals));
    }

    #[test]
    fn mixed_case_names_bind_one_variable() {
        let (info, mut space) = setup("sym N; for I := 2 to n do A(I) := a(i-1); endfor");
        let stmt = &info.stmts[0];
        let wv = space.bind_stmt("i", stmt);
        let rv = space.bind_stmt("j", stmt);
        let mut p = space.problem();
        space.add_iteration_space(&mut p, stmt, &wv).unwrap();
        let exact = space
            .add_subscript_equality(&mut p, &stmt.write_form, &wv, &stmt.read_forms[0], &rv)
            .unwrap();
        assert!(exact);
        assert_eq!((p.eqs().len(), p.geqs().len()), (1, 2));
        assert_eq!(space.sym("n"), space.sym("N"));
    }

    #[test]
    fn a_written_scalar_makes_its_dimension_opaque() {
        // Even where it cancels: `k - k + i` is not lowered past `k`.
        let (info, mut space) =
            setup("sym n; for i := 1 to n do k := k + 1; a(k - k + i) := a(i); endfor");
        let stmt = info.stmt(2);
        let wv = space.bind_stmt("i", stmt);
        let rv = space.bind_stmt("j", stmt);
        let mut p = space.problem();
        let read = stmt.reads.iter().position(|r| r.array == "a").unwrap();
        let exact = space
            .add_subscript_equality(&mut p, &stmt.write_form, &wv, &stmt.read_forms[read], &rv)
            .unwrap();
        assert!(!exact);
        assert!(p.eqs().is_empty());
    }

    #[test]
    fn stride_constraints_for_stepped_loops() {
        let (info, mut space) = setup("for i := 1 to n step 3 do a(i) := 0; endfor");
        let stmt = &info.stmts[0];
        let vars = space.bind_stmt("i", stmt);
        let mut p = space.problem();
        space.add_iteration_space(&mut p, stmt, &vars).unwrap();
        // i ∈ {1, 4, 7, …}: pin i and check satisfiability.
        let n = space.sym("n").unwrap();
        for (iv, expect) in [(1, true), (2, false), (4, true), (6, false), (7, true)] {
            let mut q = p.clone();
            q.add_eq(LinExpr::var(vars.iters[0]).plus_const(-iv));
            q.add_eq(LinExpr::var(n).plus_const(-10));
            assert_eq!(q.is_satisfiable().unwrap(), expect, "i = {iv}");
        }
    }
}
