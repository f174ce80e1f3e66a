//! Symbolic dependence analysis (§5): under which conditions on the
//! symbolic (loop-invariant) variables does a dependence exist? The answer
//! is computed by projecting the dependence problem onto the symbolic
//! variables and taking the **gist** of the result given everything
//! already known — producing exactly the concise user queries the paper
//! shows for Examples 7–11.

use std::collections::BTreeSet;
use std::fmt;

use omega::{Budget, LinExpr, Problem, VarId};
use tiny::ast::name_key;
use tiny::ProgramInfo;

use crate::dep::AccessSite;
use crate::error::Result;
use crate::occur::{
    exists_under_property, to_linexpr_with_occurrences, ArrayProperty, OccurrenceTable,
};
use crate::pairs::{access_of, executes_before};
use crate::space::{add_order, affine_in, order_cases, OrderCase, Scope, Space, StmtVars};

/// A dependence pair prepared for symbolic analysis: subscripts are
/// translated with occurrence variables for every opaque term, and
/// in-bounds assertions are derived from the array declarations.
#[derive(Debug, Clone)]
pub struct SymbolicPair {
    /// The constraint space (src `i*`, dst `j*`, symbolic constants,
    /// occurrence variables).
    pub space: Space,
    /// Source iteration variables.
    pub src_vars: StmtVars,
    /// Destination iteration variables.
    pub dst_vars: StmtVars,
    /// Occurrences introduced while translating the pair.
    pub table: OccurrenceTable,
    /// Source statement label.
    pub src_label: usize,
    /// Source access site.
    pub src_site: AccessSite,
    /// Destination statement label.
    pub dst_label: usize,
    /// Destination access site.
    pub dst_site: AccessSite,
    /// Dimension-wise subscript equalities `src_dim − dst_dim = 0`.
    sub_equalities: Vec<LinExpr>,
    /// In-bounds constraints (from declared array extents) and program
    /// assumptions — the "things we already know".
    known_extra: Vec<LinExpr>,
    common: usize,
    lex_before: bool,
}

/// The symbolic condition for one restraint vector of a pair. Its
/// `Display` prints the condition with the program's names.
#[derive(Debug, Clone)]
pub struct SymbolicCondition {
    /// The restraint vector (order case).
    pub order: OrderCase,
    /// `gist π(p ∧ q) given π(p)` — the *new* conditions under which the
    /// dependence exists, over the kept variables.
    pub condition: Problem,
    /// The printed names of the pair's space ([`Space::names`]).
    names: Vec<String>,
}

impl fmt::Display for SymbolicCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.names.iter().map(String::as_str).collect();
        self.condition.display_with(&names).fmt(f)
    }
}

impl SymbolicCondition {
    /// Renders the paper-style user query: the condition that must never
    /// hold for the dependence to be ruled out.
    pub fn question(&self) -> String {
        if self.condition.is_trivially_true() {
            "The dependence exists unconditionally.".to_string()
        } else if self.condition.is_known_infeasible() {
            "The dependence cannot exist.".to_string()
        } else {
            format!("Is it the case that the following never happens? {self}")
        }
    }
}

impl SymbolicPair {
    /// Prepares a pair for symbolic analysis.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn new(
        info: &ProgramInfo,
        src_label: usize,
        src_site: AccessSite,
        dst_label: usize,
        dst_site: AccessSite,
    ) -> Result<SymbolicPair> {
        let src = info.stmt(src_label);
        let dst = info.stmt(dst_label);
        let mut space = Space::new(&info.syms);
        let src_vars = space.bind_stmt("i", src);
        let dst_vars = space.bind_stmt("j", dst);
        let mut table = OccurrenceTable::default();

        // Translate the subscripts of EVERY access of both statements so
        // in-bounds assertions can be generated, sharing occurrences.
        let mut known_extra = Vec::new();
        let translate_access_bounds = |acc: &tiny::Access,
                                       stmt: &tiny::StmtInfo,
                                       vars: &StmtVars,
                                       prefix: &str,
                                       space: &mut Space,
                                       table: &mut OccurrenceTable|
         -> Result<Vec<LinExpr>> {
            let scope = Scope {
                info,
                stmt: Some(stmt),
            };
            let mut subs = Vec::new();
            for s in &acc.subs {
                subs.push(to_linexpr_with_occurrences(
                    s, scope, vars, space, table, prefix,
                )?);
            }
            Ok(subs)
        };

        // The pair's own subscripts give the dependence equalities.
        let src_acc = access_of(src, src_site).clone();
        let dst_acc = access_of(dst, dst_site).clone();
        let src_subs =
            translate_access_bounds(&src_acc, src, &src_vars, "i", &mut space, &mut table)?;
        let dst_subs =
            translate_access_bounds(&dst_acc, dst, &dst_vars, "j", &mut space, &mut table)?;
        let mut sub_equalities = Vec::new();
        for (a, b) in src_subs.iter().zip(&dst_subs) {
            sub_equalities.push(a.combine(1, -1, b)?);
        }

        // In-bounds assertions for all accesses of both statements.
        let empty = StmtVars { iters: vec![] };
        let program = Scope { info, stmt: None };
        let add_bounds =
            |acc: &tiny::Access, subs: &[LinExpr], space: &Space, known: &mut Vec<LinExpr>| {
                let Some(decl) = info.arrays.get(&name_key(&acc.array)) else {
                    return;
                };
                for (dim, sub) in subs.iter().enumerate() {
                    let Some((lo, hi)) = decl.dims.get(dim) else {
                        continue;
                    };
                    let lo = affine_in(lo, program, &empty, space);
                    let hi = affine_in(hi, program, &empty, space);
                    if let Some(lo) = lo {
                        if let Ok(e) = sub.combine(1, -1, &lo) {
                            known.push(e); // sub - lo >= 0
                        }
                    }
                    if let Some(hi) = hi {
                        if let Ok(e) = hi.combine(1, -1, sub) {
                            known.push(e); // hi - sub >= 0
                        }
                    }
                }
            };
        add_bounds(&src_acc, &src_subs, &space, &mut known_extra);
        add_bounds(&dst_acc, &dst_subs, &space, &mut known_extra);
        // Nested index-array accesses of the pair (the `s`, `s'` and
        // `Q_s`, `Q_s'` bounds of the paper's Example 8 setup): bound the
        // occurrence arguments by the index array's declared extents.
        for occ in table.occurrences.clone() {
            let Some(decl) = info.arrays.get(&occ.array) else {
                continue;
            };
            for (dim, arg) in occ.args.iter().enumerate() {
                let Some((lo, hi)) = decl.dims.get(dim) else {
                    continue;
                };
                if let Some(lo) = affine_in(lo, program, &empty, &space) {
                    if let Ok(e) = arg.combine(1, -1, &lo) {
                        known_extra.push(e);
                    }
                }
                if let Some(hi) = affine_in(hi, program, &empty, &space) {
                    if let Ok(e) = hi.combine(1, -1, arg) {
                        known_extra.push(e);
                    }
                }
            }
        }

        // Opaque loop bounds (array values or written scalars in bounds,
        // Example 9) become occurrence constraints on the iteration
        // variables: `j >= B(i)` etc.
        for (stmt, vars, prefix) in [(src, &src_vars, "i"), (dst, &dst_vars, "j")] {
            for (idx, l) in stmt.loops.iter().enumerate() {
                let iv = vars.iters[idx];
                let scope = Scope {
                    info,
                    stmt: Some(stmt),
                };
                if l.lower.is_none() {
                    let e = to_linexpr_with_occurrences(
                        &l.lower_expr,
                        scope,
                        vars,
                        &mut space,
                        &mut table,
                        prefix,
                    )?;
                    known_extra.push(LinExpr::var(iv).combine(1, -1, &e)?);
                }
                if l.upper.is_none() {
                    let e = to_linexpr_with_occurrences(
                        &l.upper_expr,
                        scope,
                        vars,
                        &mut space,
                        &mut table,
                        prefix,
                    )?;
                    known_extra.push(e.combine(1, -1, &LinExpr::var(iv))?);
                }
            }
        }

        let common = src.common_loops(dst);
        let lex_before = executes_before(src, src_site, dst, dst_site);
        Ok(SymbolicPair {
            space,
            src_vars,
            dst_vars,
            table,
            src_label,
            src_site,
            dst_label,
            dst_site,
            sub_equalities,
            known_extra,
            common,
            lex_before,
        })
    }

    /// The restraint vectors (order cases) of the pair.
    pub fn order_cases(&self) -> Vec<OrderCase> {
        order_cases(self.common, self.lex_before)
    }

    /// The "known" problem `p` for one order case: both iteration spaces,
    /// the order restraint, in-bounds assertions and program assumptions —
    /// everything true *whether or not* the dependence exists.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn known(&self, info: &ProgramInfo, case: OrderCase) -> Result<Problem> {
        let src = info.stmt(self.src_label);
        let dst = info.stmt(self.dst_label);
        let mut p = self.space.problem();
        self.space
            .add_iteration_space(&mut p, src, &self.src_vars)?;
        self.space
            .add_iteration_space(&mut p, dst, &self.dst_vars)?;
        self.space.add_assumptions(&mut p, &info.assumptions)?;
        for e in &self.known_extra {
            p.add_geq(e.clone());
        }
        add_order(&mut p, case, &self.src_vars, &self.dst_vars, self.common)?;
        Ok(p)
    }

    /// The "dependence exists" extra constraints `q`: subscript
    /// equalities.
    pub fn dependence_extra(&self) -> Problem {
        let mut q = self.space.problem();
        for e in &self.sub_equalities {
            q.add_eq(e.clone());
        }
        q
    }

    /// The full dependence problem `p ∧ q` for one order case.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn full_problem(&self, info: &ProgramInfo, case: OrderCase) -> Result<Problem> {
        let mut p = self.known(info, case)?;
        p.and(&self.dependence_extra())?;
        Ok(p)
    }

    /// Computes the symbolic condition for one order case over the kept
    /// variables: `gist π_keep(p ∧ q) given π_keep(p)` (§5, computed with
    /// the combined red/black projection of §3.3.2). Returns `None` when
    /// the projection splinters.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn condition(
        &self,
        info: &ProgramInfo,
        case: OrderCase,
        keep: &[VarId],
        budget: &mut Budget,
    ) -> Result<Option<SymbolicCondition>> {
        let p = self.known(info, case)?;
        let q = self.dependence_extra();
        let gist = omega::gist_projected(&q, &p, keep, budget)?;
        Ok(gist.map(|mut condition| {
            let _ = condition.simplify();
            SymbolicCondition {
                order: case,
                condition,
                names: self.space.names(),
            }
        }))
    }

    /// All symbolic conditions, one per restraint vector whose dependence
    /// problem is satisfiable.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn conditions(
        &self,
        info: &ProgramInfo,
        keep: &[VarId],
        budget: &mut Budget,
    ) -> Result<Vec<SymbolicCondition>> {
        let mut out = Vec::new();
        for case in self.order_cases() {
            if !self.full_problem(info, case)?.is_satisfiable_with(budget)? {
                continue;
            }
            if let Some(c) = self.condition(info, case, keep, budget)? {
                out.push(c);
            }
        }
        Ok(out)
    }

    /// Looks up symbolic variables by name for the `keep` set.
    pub fn keep_vars(&self, names: &[&str]) -> Vec<VarId> {
        names.iter().filter_map(|n| self.space.sym(n)).collect()
    }

    /// The occurrence variables (kept by default in queries).
    pub fn occurrence_vars(&self) -> Vec<VarId> {
        self.table.occurrences.iter().map(|o| o.var).collect()
    }

    /// Whether the dependence can still exist once `property` is assumed
    /// for the uninterpreted array `array`, over all restraint vectors.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn exists_with_property(
        &self,
        info: &ProgramInfo,
        array: &str,
        property: ArrayProperty,
        budget: &mut Budget,
    ) -> Result<bool> {
        let occs: Vec<&crate::occur::Occurrence> = self.table.of_array(array).collect();
        for case in self.order_cases() {
            let p = self.full_problem(info, case)?;
            if !p.is_satisfiable_with(budget)? {
                continue;
            }
            if exists_under_property(&p, &occs, property, budget)? {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

impl SymbolicPair {
    /// Whether the dependence can exist given that `scalar` is a strictly
    /// increasing induction variable (Example 11's `k`).
    ///
    /// For loop-carried restraints the source instance's occurrence of the
    /// scalar is strictly smaller than the destination's; for the
    /// loop-independent restraint the two values are equal when no
    /// increment separates the statements within one iteration. Soundness
    /// requires every increment of the scalar to be nested in all common
    /// loops of the pair — checked here; otherwise the test stays
    /// conservative.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn exists_with_increasing_scalar(
        &self,
        info: &ProgramInfo,
        scalar: &str,
        budget: &mut Budget,
    ) -> Result<bool> {
        let key = name_key(scalar);
        let src = info.stmt(self.src_label);
        let dst = info.stmt(self.dst_label);
        // Guard: every writer of the scalar shares the full common nest.
        let guard_ok = info
            .stmts
            .iter()
            .filter(|s| name_key(&s.write.array) == key && s.write.subs.is_empty())
            .all(|w| w.common_loops(src) >= self.common && w.common_loops(dst) >= self.common);
        let src_occ: Vec<VarId> = self
            .table
            .occurrences
            .iter()
            .filter(|o| o.array == key && o.side == "i" && o.args.is_empty())
            .map(|o| o.var)
            .collect();
        let dst_occ: Vec<VarId> = self
            .table
            .occurrences
            .iter()
            .filter(|o| o.array == key && o.side == "j" && o.args.is_empty())
            .map(|o| o.var)
            .collect();
        for case in self.order_cases() {
            let mut p = self.full_problem(info, case)?;
            if guard_ok {
                for &a in &src_occ {
                    for &b in &dst_occ {
                        let diff = LinExpr::var(a).combine(1, -1, &LinExpr::var(b))?;
                        match case {
                            OrderCase::CarriedAt(_) => {
                                // v_src < v_dst.
                                let mut e = diff.negated();
                                e.add_constant(-1)?;
                                p.add_geq(e);
                            }
                            OrderCase::LoopIndependent => {
                                // Same iteration: equal values only when no
                                // increment sits between the statements.
                                let increment_between = info.stmts.iter().any(|s| {
                                    name_key(&s.write.array) == key
                                        && src.lexically_before(s)
                                        && s.lexically_before(dst)
                                });
                                if !increment_between {
                                    p.add_eq(diff.clone());
                                }
                            }
                        }
                    }
                }
            }
            if p.is_satisfiable_with(budget)? {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Identifies written scalars that behave as strictly increasing
/// induction variables: every write has the form `k := k + e` with `e >= 1`
/// provable under the writing statement's iteration space (Example 11's
/// `k := k + j`).
///
/// # Errors
///
/// Propagates solver errors.
pub fn increasing_scalars(info: &ProgramInfo, budget: &mut Budget) -> Result<BTreeSet<String>> {
    let mut result = BTreeSet::new();
    'scalars: for name in &info.written {
        let writers: Vec<&tiny::StmtInfo> = info
            .stmts
            .iter()
            .filter(|s| name_key(&s.write.array) == *name && s.write.subs.is_empty())
            .collect();
        if writers.is_empty()
            || info
                .stmts
                .iter()
                .any(|s| name_key(&s.write.array) == *name && !s.write.subs.is_empty())
        {
            continue;
        }
        for w in &writers {
            // Must be k := k + e with e >= 1.
            let Some(incr) = increment_of(&w.write.array, &w.rhs) else {
                continue 'scalars;
            };
            let mut space = Space::new(&info.syms);
            let vars = space.bind_stmt("i", w);
            let mut p = space.problem();
            space.add_iteration_space(&mut p, w, &vars)?;
            space.add_assumptions(&mut p, &info.assumptions)?;
            let Some(e) = affine_in(
                &incr,
                Scope {
                    info,
                    stmt: Some(w),
                },
                &vars,
                &space,
            ) else {
                continue 'scalars;
            };
            // Provably e >= 1: p ∧ e <= 0 unsatisfiable.
            let mut test = p.clone();
            let mut neg = e.negated();
            neg.add_constant(0)?;
            test.add_geq(neg); // -e >= 0 i.e. e <= 0
            if test.is_satisfiable_with(budget)? {
                continue 'scalars;
            }
        }
        result.insert(name.clone());
    }
    Ok(result)
}

/// Pattern-matches `k := k + e` (or `e + k`), returning `e`.
fn increment_of(k: &str, rhs: &tiny::Expr) -> Option<tiny::Expr> {
    use tiny::ast::BinOp;
    use tiny::Expr;
    if let Expr::Bin(BinOp::Add, l, r) = rhs {
        if matches!(&**l, Expr::Var(v) if name_key(v) == name_key(k)) {
            return Some((**r).clone());
        }
        if matches!(&**r, Expr::Var(v) if name_key(v) == name_key(k)) {
            return Some((**l).clone());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiny::{analyze, Program};

    fn pair(
        src: &str,
        a: usize,
        a_site: AccessSite,
        b: usize,
        b_site: AccessSite,
    ) -> (ProgramInfo, SymbolicPair) {
        let info = analyze(&Program::parse(src).unwrap()).unwrap();
        let p = SymbolicPair::new(&info, a, a_site, b, b_site).unwrap();
        (info, p)
    }

    /// Example 7: the outer-loop-carried flow dependence exists only when
    /// `1 <= x <= 50` (given `50 <= n <= 100` and in-bounds assertions).
    #[test]
    fn example7_outer_carried_condition() {
        let src = format!("assume 50 <= n <= 100;\n{}", tiny::corpus::EXAMPLE_7);
        let (info, p) = pair(&src, 1, AccessSite::Write, 1, AccessSite::Read(0));
        let keep = p.keep_vars(&["x", "y", "m"]);
        let mut b = Budget::default();
        let c = p
            .condition(&info, OrderCase::CarriedAt(1), &keep, &mut b)
            .unwrap()
            .expect("projection is exact");
        let x = p.space.sym("x").unwrap();
        // Expect exactly { 1 <= x <= 50 }.
        let cond = &c.condition;
        assert!(
            cond.geqs().len() == 2 && cond.eqs().is_empty(),
            "expected two inequalities, got {cond}"
        );
        let lo = cond
            .geqs()
            .iter()
            .find(|g| g.expr().coef(x) > 0)
            .expect("lower bound on x");
        let hi = cond
            .geqs()
            .iter()
            .find(|g| g.expr().coef(x) < 0)
            .expect("upper bound on x");
        assert_eq!(lo.expr().constant(), -1, "x >= 1: {cond}");
        assert_eq!(hi.expr().constant(), 50, "x <= 50: {cond}");
    }

    /// Example 7, inner restraint `(0,+)`: exists iff `x = 0 ∧ y < m`.
    #[test]
    fn example7_inner_carried_condition() {
        let src = format!("assume 50 <= n <= 100;\n{}", tiny::corpus::EXAMPLE_7);
        let (info, p) = pair(&src, 1, AccessSite::Write, 1, AccessSite::Read(0));
        let keep = p.keep_vars(&["x", "y", "m"]);
        let mut b = Budget::default();
        let c = p
            .condition(&info, OrderCase::CarriedAt(2), &keep, &mut b)
            .unwrap()
            .expect("projection is exact");
        let cond = &c.condition;
        let x = p.space.sym("x").unwrap();
        let y = p.space.sym("y").unwrap();
        let m = p.space.sym("m").unwrap();
        // x = 0:
        assert!(
            cond.eqs().iter().any(|e| e.expr().coef(x) != 0
                && e.expr().constant() == 0
                && e.expr().num_terms() == 1),
            "expected x = 0 in {cond}"
        );
        // y < m i.e. m - y - 1 >= 0:
        assert!(
            cond.geqs().iter().any(|g| {
                g.expr().coef(m) == 1 && g.expr().coef(y) == -1 && g.expr().constant() == -1
            }),
            "expected y < m in {cond}"
        );
    }

    /// Example 8: the output dependence query is `Q[a] = Q[b]`; asserting
    /// injectivity rules the dependence out.
    #[test]
    fn example8_output_dependence_query_and_refutation() {
        let (info, p) = pair(
            tiny::corpus::EXAMPLE_8,
            1,
            AccessSite::Write,
            1,
            AccessSite::Write,
        );
        // One occurrence of q per side from the pair's subscripts.
        assert!(p.table.of_array("q").count() >= 2);
        let mut keep = p.occurrence_vars();
        keep.extend(p.keep_vars(&["n"]));
        let mut b = Budget::default();
        let cs = p.conditions(&info, &keep, &mut b).unwrap();
        assert_eq!(cs.len(), 1, "one restraint vector (+)");
        let cond = &cs[0].condition;
        // The condition is the equality of the two q occurrences.
        assert!(
            cond.eqs().iter().any(|e| e.expr().num_terms() == 2),
            "expected q(i) = q(j) in {cond}"
        );
        // Injectivity kills it.
        assert!(!p
            .exists_with_property(&info, "q", ArrayProperty::Injective, &mut b)
            .unwrap());
    }

    /// Example 8: the flow dependence asks about `Q[a] = Q[b] - 1`, which
    /// even a strictly increasing array cannot rule out.
    #[test]
    fn example8_flow_dependence_survives_monotonicity() {
        // Find the A[...] read (reads also include the nested Q reads).
        let info0 = analyze(&Program::parse(tiny::corpus::EXAMPLE_8).unwrap()).unwrap();
        let a_read = info0
            .stmt(1)
            .reads
            .iter()
            .position(|r| name_key(&r.array) == "a")
            .unwrap();
        let (info, p) = pair(
            tiny::corpus::EXAMPLE_8,
            1,
            AccessSite::Write,
            1,
            AccessSite::Read(a_read),
        );
        let mut b = Budget::default();
        assert!(p
            .exists_with_property(&info, "q", ArrayProperty::StrictlyIncreasing, &mut b)
            .unwrap());
        assert!(p
            .exists_with_property(&info, "q", ArrayProperty::Injective, &mut b)
            .unwrap());
        // A strictly DECREASING q cannot have Q[a] = Q[b+1] - 1 with
        // a < b+1 (values must drop).
        assert!(!p
            .exists_with_property(&info, "q", ArrayProperty::StrictlyDecreasing, &mut b)
            .unwrap());
    }

    /// Example 9: array values in loop bounds become occurrence
    /// constraints; the self output dependence of `A[i,j]` stays
    /// impossible.
    #[test]
    fn example9_bounds_occurrences() {
        let (info, p) = pair(
            tiny::corpus::EXAMPLE_9,
            1,
            AccessSite::Write,
            1,
            AccessSite::Write,
        );
        assert!(
            p.table.of_array("b").count() >= 2,
            "bound occurrences for B"
        );
        let mut b = Budget::default();
        let keep = p.occurrence_vars();
        let cs = p.conditions(&info, &keep, &mut b).unwrap();
        assert!(
            cs.is_empty(),
            "A[i,j] written once per iteration: no output dependence"
        );
    }

    /// Example 10: `i*j` is treated as an uninterpreted term `mul(i,j)`.
    #[test]
    fn example10_nonlinear_term() {
        let (info, p) = pair(
            tiny::corpus::EXAMPLE_10,
            1,
            AccessSite::Write,
            1,
            AccessSite::Write,
        );
        assert_eq!(p.table.of_array("mul").count(), 2);
        let mut b = Budget::default();
        let keep = p.occurrence_vars();
        let cs = p.conditions(&info, &keep, &mut b).unwrap();
        assert!(!cs.is_empty(), "dependence conditional on mul values");
        // Every condition equates the two occurrence values.
        for c in &cs {
            assert!(
                c.condition.eqs().iter().any(|e| e.expr().num_terms() == 2),
                "{}",
                c.condition
            );
        }
    }

    /// Example 11 (s141): `k` is recognized as strictly increasing, and
    /// the flow dependence of `a(k)` onto itself is refuted for all
    /// loop-carried restraints.
    #[test]
    fn example11_induction_scalar() {
        let info = analyze(&Program::parse(tiny::corpus::EXAMPLE_11).unwrap()).unwrap();
        let mut b = Budget::default();
        let inc = increasing_scalars(&info, &mut b).unwrap();
        assert!(inc.contains("k"), "k := k + j with j >= i >= 1");

        // Flow from the write a(k) (stmt 1) to its own read a(k).
        let read_idx = info
            .stmt(1)
            .reads
            .iter()
            .position(|r| name_key(&r.array) == "a")
            .unwrap();
        let p =
            SymbolicPair::new(&info, 1, AccessSite::Write, 1, AccessSite::Read(read_idx)).unwrap();
        assert!(
            !p.exists_with_increasing_scalar(&info, "k", &mut b).unwrap(),
            "no loop-carried dependence on a(k): s141 is vectorizable"
        );
        // Without the induction knowledge, the dependence is assumed.
        let mut q = p.clone();
        q.table.occurrences.clear(); // forget the link
        assert!(q.exists_with_increasing_scalar(&info, "k", &mut b).unwrap());
    }

    /// The induction test is conservative when increments sit outside the
    /// common nest.
    #[test]
    fn induction_guard_is_conservative() {
        let src = "
            sym n;
            for i := 1 to n do
              a(k) := a(k) + 1;
            endfor
            k := k + 1;
        ";
        let info = analyze(&Program::parse(src).unwrap()).unwrap();
        let mut b = Budget::default();
        // k's write is outside the loop: carried instances share the same
        // k, so the dependence must be assumed.
        let read_idx = info
            .stmt(1)
            .reads
            .iter()
            .position(|r| name_key(&r.array) == "a")
            .unwrap();
        let p =
            SymbolicPair::new(&info, 1, AccessSite::Write, 1, AccessSite::Read(read_idx)).unwrap();
        assert!(p.exists_with_increasing_scalar(&info, "k", &mut b).unwrap());
    }
}
