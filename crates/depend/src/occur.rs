//! Occurrence variables for opaque terms (§5).
//!
//! Index-array references (`Q[L1]`), non-linear terms (`i*j`) and written
//! scalars appearing in subscripts or bounds are modeled by introducing a
//! fresh symbolic variable per *occurrence* of the term, exactly as the
//! paper prescribes: `A[Q[L1]]` contributes a subscript variable `s = L1`
//! and a value variable `Q_s`, and queries are phrased over those.

use omega::{LinExpr, Problem, VarId};
use tiny::ast::{name_key, BinOp, Expr};

use crate::error::Result;
use crate::space::{affine_in, Scope, Space, StmtVars};

/// One uninterpreted occurrence introduced while translating an
/// expression.
#[derive(Debug, Clone)]
pub struct Occurrence {
    /// The occurrence's value variable in the space.
    pub var: VarId,
    /// Canonical name of the uninterpreted "array" (index arrays keep
    /// their name; a product `i*j` becomes the pseudo-array `mul`).
    pub array: String,
    /// Argument expressions (affine), one per dimension of the term.
    pub args: Vec<LinExpr>,
    /// Display text, e.g. `Q(i1)` or `i1*j1`.
    pub text: String,
    /// Which side of the pair introduced it (the statement's variable
    /// prefix, e.g. `"i"` or `"j"`).
    pub side: String,
}

/// Collects the occurrences produced by translating expressions for one
/// access pair.
#[derive(Debug, Clone, Default)]
pub struct OccurrenceTable {
    /// All occurrences, in introduction order.
    pub occurrences: Vec<Occurrence>,
}

impl OccurrenceTable {
    /// Occurrences of a given uninterpreted array.
    pub fn of_array<'a>(&'a self, array: &str) -> impl Iterator<Item = &'a Occurrence> {
        let key = name_key(array);
        self.occurrences.iter().filter(move |o| o.array == key)
    }
}

/// Translates an arbitrary expression to a [`LinExpr`] over loop
/// variables, symbolic constants **and occurrence variables**: every
/// opaque subterm (array access, written scalar, product of variables,
/// division) becomes a fresh occurrence.
///
/// Names resolve in `scope`. `prefix` namespaces the generated variable
/// names (use the statement's iteration-vector prefix so the two sides
/// of a pair stay distinct).
///
/// # Errors
///
/// Propagates solver errors.
pub fn to_linexpr_with_occurrences(
    e: &Expr,
    scope: Scope<'_>,
    vars: &StmtVars,
    space: &mut Space,
    table: &mut OccurrenceTable,
    prefix: &str,
) -> Result<LinExpr> {
    // Fast path: fully affine.
    if let Some(l) = affine_in(e, scope, vars, space) {
        return Ok(l);
    }
    match e {
        Expr::Int(n) => Ok(LinExpr::constant_expr(*n)),
        Expr::Var(name) => {
            // A written scalar: an occurrence of the 0-dim "array".
            Ok(LinExpr::var(occurrence(
                space,
                table,
                name,
                Vec::new(),
                name.to_string(),
                prefix,
            )))
        }
        Expr::Call(name, args) => {
            let mut lin_args = Vec::with_capacity(args.len());
            let mut texts = Vec::with_capacity(args.len());
            for a in args {
                lin_args.push(to_linexpr_with_occurrences(
                    a, scope, vars, space, table, prefix,
                )?);
                texts.push(rename_for_display(a, vars));
            }
            let text = format!("{}({})", name, texts.join(","));
            Ok(LinExpr::var(occurrence(
                space, table, name, lin_args, text, prefix,
            )))
        }
        Expr::Neg(inner) => {
            let mut l = to_linexpr_with_occurrences(inner, scope, vars, space, table, prefix)?;
            l.negate();
            Ok(l)
        }
        Expr::Bin(op, l, r) => {
            match op {
                BinOp::Add | BinOp::Sub => {
                    let a = to_linexpr_with_occurrences(l, scope, vars, space, table, prefix)?;
                    let b = to_linexpr_with_occurrences(r, scope, vars, space, table, prefix)?;
                    let sign = if *op == BinOp::Sub { -1 } else { 1 };
                    a.combine(1, sign, &b).map_err(Into::into)
                }
                BinOp::Mul => {
                    // Constant × opaque distributes; variable × variable
                    // becomes the pseudo-array `mul(x, y)` (the paper's
                    // `Q[i, j]` treatment of `i*j`).
                    let ca = affine_in(l, scope, vars, space).filter(|x| x.is_constant());
                    let cb = affine_in(r, scope, vars, space).filter(|x| x.is_constant());
                    if let Some(c) = ca {
                        let mut b =
                            to_linexpr_with_occurrences(r, scope, vars, space, table, prefix)?;
                        b.scale(c.constant())?;
                        return Ok(b);
                    }
                    if let Some(c) = cb {
                        let mut a =
                            to_linexpr_with_occurrences(l, scope, vars, space, table, prefix)?;
                        a.scale(c.constant())?;
                        return Ok(a);
                    }
                    let la = to_linexpr_with_occurrences(l, scope, vars, space, table, prefix)?;
                    let lb = to_linexpr_with_occurrences(r, scope, vars, space, table, prefix)?;
                    let text = format!(
                        "{}*{}",
                        rename_for_display(l, vars),
                        rename_for_display(r, vars)
                    );
                    Ok(LinExpr::var(occurrence(
                        space,
                        table,
                        "mul",
                        vec![la, lb],
                        text,
                        prefix,
                    )))
                }
                BinOp::Div => {
                    let la = to_linexpr_with_occurrences(l, scope, vars, space, table, prefix)?;
                    let lb = to_linexpr_with_occurrences(r, scope, vars, space, table, prefix)?;
                    let text = format!(
                        "{}/{}",
                        rename_for_display(l, vars),
                        rename_for_display(r, vars)
                    );
                    Ok(LinExpr::var(occurrence(
                        space,
                        table,
                        "div",
                        vec![la, lb],
                        text,
                        prefix,
                    )))
                }
            }
        }
    }
}

fn occurrence(
    space: &mut Space,
    table: &mut OccurrenceTable,
    array: &str,
    args: Vec<LinExpr>,
    text: String,
    prefix: &str,
) -> VarId {
    // Reuse an identical occurrence (same array, same argument
    // expressions, same side): a term denotes one value per instance.
    for o in &table.occurrences {
        if o.array == name_key(array) && o.args == args && o.text == text && o.side == prefix {
            return o.var;
        }
    }
    let var = space.add_symbolic(format!(
        "{prefix}_{}{}",
        name_key(array),
        table.occurrences.len()
    ));
    table.occurrences.push(Occurrence {
        var,
        array: name_key(array),
        args,
        text,
        side: prefix.to_string(),
    });
    var
}

/// Renders an argument expression for query display. The two sides of a
/// pair are namespaced by the occurrence variable's own prefixed name, so
/// the source text is kept as written.
fn rename_for_display(e: &Expr, _vars: &StmtVars) -> String {
    format!("{e}")
}

/// Known properties of an uninterpreted array that the user may assert in
/// the §5 dialog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayProperty {
    /// Distinct subscripts hold distinct values (e.g. a permutation
    /// array).
    Injective,
    /// Strictly increasing in its (single) argument.
    StrictlyIncreasing,
    /// Strictly decreasing in its (single) argument.
    StrictlyDecreasing,
}

/// Decides whether `problem` remains satisfiable once `property` is
/// assumed for the uninterpreted array behind `occs` — i.e. whether the
/// dependence can still exist after the user's answer.
///
/// The property relates each pair of occurrences through a case split on
/// the order of their arguments; the dependence survives iff some branch
/// is satisfiable.
///
/// # Errors
///
/// Propagates solver errors.
pub fn exists_under_property(
    problem: &Problem,
    occs: &[&Occurrence],
    property: ArrayProperty,
    budget: &mut omega::Budget,
) -> Result<bool> {
    // Build the branch constraints for every unordered pair.
    let mut branches: Vec<Problem> = vec![problem.clone()];
    for a in 0..occs.len() {
        for b in a + 1..occs.len() {
            let (oa, ob) = (occs[a], occs[b]);
            if oa.args.len() != 1 || ob.args.len() != 1 {
                continue; // multi-dim properties not modeled
            }
            let arg_a = &oa.args[0];
            let arg_b = &ob.args[0];
            let mut next = Vec::new();
            for base in &branches {
                for rel in [-1i64, 0, 1] {
                    let mut p = base.clone();
                    // Argument order: arg_a <rel> arg_b.
                    let diff = arg_a.combine(1, -1, arg_b)?;
                    match rel {
                        -1 => p.add_geq(negated_plus(&diff, -1)), // arg_a < arg_b
                        0 => p.add_eq(diff.clone()),
                        _ => {
                            let mut d = diff.clone();
                            d.add_constant(-1)?;
                            p.add_geq(d); // arg_a > arg_b
                        }
                    }
                    // Value consequence of the property.
                    let vdiff = LinExpr::var(oa.var).combine(1, -1, &LinExpr::var(ob.var))?;
                    match (property, rel) {
                        (_, 0) => p.add_eq(vdiff), // functional consistency
                        (ArrayProperty::Injective, _) => {
                            // v_a != v_b: two sub-branches.
                            let mut lt = p.clone();
                            lt.add_geq(negated_plus(&vdiff, -1)); // v_a < v_b
                            let mut gt = p;
                            let mut d = vdiff.clone();
                            d.add_constant(-1)?;
                            gt.add_geq(d); // v_a > v_b
                            next.push(lt);
                            next.push(gt);
                            continue;
                        }
                        (ArrayProperty::StrictlyIncreasing, -1) => {
                            p.add_geq(negated_plus(&vdiff, -1)); // v_a < v_b
                        }
                        (ArrayProperty::StrictlyIncreasing, _) => {
                            let mut d = vdiff.clone();
                            d.add_constant(-1)?;
                            p.add_geq(d); // v_a > v_b
                        }
                        (ArrayProperty::StrictlyDecreasing, -1) => {
                            let mut d = vdiff.clone();
                            d.add_constant(-1)?;
                            p.add_geq(d);
                        }
                        (ArrayProperty::StrictlyDecreasing, _) => {
                            p.add_geq(negated_plus(&vdiff, -1));
                        }
                    }
                    next.push(p);
                }
            }
            branches = next;
            if branches.len() > 256 {
                // Too many occurrence pairs: stay conservative.
                return Ok(true);
            }
        }
    }
    for b in &branches {
        if b.is_satisfiable_with(budget)? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// `-(e) + k`, used to build strict inequalities.
fn negated_plus(e: &LinExpr, k: i64) -> LinExpr {
    let mut n = e.negated();
    n.add_constant(k).expect("small constant");
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega::ProblemLike;
    use tiny::{analyze, Program};

    fn setup(src: &str) -> (tiny::ProgramInfo, Space) {
        let p = Program::parse(src).unwrap();
        let info = analyze(&p).unwrap();
        let space = Space::new(&info.syms);
        (info, space)
    }

    fn scope<'a>(info: &'a tiny::ProgramInfo, stmt: &'a tiny::StmtInfo) -> Scope<'a> {
        Scope {
            info,
            stmt: Some(stmt),
        }
    }

    #[test]
    fn index_array_subscript_gets_occurrence() {
        let (info, mut space) = setup("sym n; for i := 1 to n do a(q(i)) := 0; endfor");
        let stmt = &info.stmts[0];
        let vars = space.bind_stmt("i", stmt);
        let mut table = OccurrenceTable::default();
        let lin = to_linexpr_with_occurrences(
            &stmt.write.subs[0],
            scope(&info, stmt),
            &vars,
            &mut space,
            &mut table,
            "i",
        )
        .unwrap();
        assert_eq!(table.occurrences.len(), 1);
        let occ = &table.occurrences[0];
        assert_eq!(occ.array, "q");
        assert_eq!(occ.args.len(), 1);
        assert_eq!(lin.coef(occ.var), 1);
        assert_eq!(occ.text, "q(i)");
    }

    #[test]
    fn affine_combination_of_occurrences() {
        // q(i+1) - 1: one occurrence, result = occ - 1.
        let (info, mut space) = setup("sym n; for i := 1 to n do a(q(i+1) - 1) := 0; endfor");
        let stmt = &info.stmts[0];
        let vars = space.bind_stmt("i", stmt);
        let mut table = OccurrenceTable::default();
        let lin = to_linexpr_with_occurrences(
            &stmt.write.subs[0],
            scope(&info, stmt),
            &vars,
            &mut space,
            &mut table,
            "i",
        )
        .unwrap();
        assert_eq!(table.occurrences.len(), 1);
        assert_eq!(lin.constant(), -1);
    }

    #[test]
    fn product_becomes_mul_occurrence() {
        let (info, mut space) =
            setup("sym n; for i := 1 to n do for j := i to n do a(i*j) := 0; endfor endfor");
        let stmt = &info.stmts[0];
        let vars = space.bind_stmt("i", stmt);
        let mut table = OccurrenceTable::default();
        to_linexpr_with_occurrences(
            &stmt.write.subs[0],
            scope(&info, stmt),
            &vars,
            &mut space,
            &mut table,
            "i",
        )
        .unwrap();
        assert_eq!(table.occurrences.len(), 1);
        assert_eq!(table.occurrences[0].array, "mul");
        assert_eq!(table.occurrences[0].args.len(), 2);
    }

    #[test]
    fn identical_occurrences_are_shared() {
        let (info, mut space) = setup("sym n; for i := 1 to n do a(q(i) + q(i)) := 0; endfor");
        let stmt = &info.stmts[0];
        let vars = space.bind_stmt("i", stmt);
        let mut table = OccurrenceTable::default();
        let lin = to_linexpr_with_occurrences(
            &stmt.write.subs[0],
            scope(&info, stmt),
            &vars,
            &mut space,
            &mut table,
            "i",
        )
        .unwrap();
        assert_eq!(table.occurrences.len(), 1, "q(i) reused");
        assert_eq!(lin.coef(table.occurrences[0].var), 2);
    }

    #[test]
    fn injective_property_refutes_equal_values_at_distinct_args() {
        // Problem: v1 = v2 (via equality), args s1 = i, s2 = j with i < j.
        let mut space = Space::new(&Default::default());
        let i = space.add_symbolic("i");
        let j = space.add_symbolic("j");
        let v1 = space.add_symbolic("v1");
        let v2 = space.add_symbolic("v2");
        let mut p = space.problem();
        p.constrain_lt(&LinExpr::var(i), &LinExpr::var(j)).unwrap();
        p.constrain_eq(&LinExpr::var(v1), &LinExpr::var(v2))
            .unwrap();
        let occ1 = Occurrence {
            var: v1,
            array: "q".into(),
            args: vec![LinExpr::var(i)],
            text: "q(i)".into(),
            side: "i".into(),
        };
        let occ2 = Occurrence {
            var: v2,
            array: "q".into(),
            args: vec![LinExpr::var(j)],
            text: "q(j)".into(),
            side: "j".into(),
        };
        let mut b = omega::Budget::default();
        assert!(
            !exists_under_property(&p, &[&occ1, &occ2], ArrayProperty::Injective, &mut b).unwrap()
        );
        // Without the argument-order constraint the equal-args branch
        // survives.
        let mut q = space.problem();
        q.constrain_eq(&LinExpr::var(v1), &LinExpr::var(v2))
            .unwrap();
        assert!(
            exists_under_property(&q, &[&occ1, &occ2], ArrayProperty::Injective, &mut b).unwrap()
        );
    }

    #[test]
    fn strictly_increasing_refutes_offset_equalities() {
        // v1 = v2 with args i < j and Q strictly increasing -> v1 < v2:
        // contradiction.
        let mut space = Space::new(&Default::default());
        let i = space.add_symbolic("i");
        let j = space.add_symbolic("j");
        let v1 = space.add_symbolic("v1");
        let v2 = space.add_symbolic("v2");
        let mut p = space.problem();
        p.constrain_lt(&LinExpr::var(i), &LinExpr::var(j)).unwrap();
        p.constrain_eq(&LinExpr::var(v1), &LinExpr::var(v2))
            .unwrap();
        let occ1 = Occurrence {
            var: v1,
            array: "q".into(),
            args: vec![LinExpr::var(i)],
            text: "q(i)".into(),
            side: "i".into(),
        };
        let occ2 = Occurrence {
            var: v2,
            array: "q".into(),
            args: vec![LinExpr::var(j)],
            text: "q(j)".into(),
            side: "j".into(),
        };
        let mut b = omega::Budget::default();
        assert!(!exists_under_property(
            &p,
            &[&occ1, &occ2],
            ArrayProperty::StrictlyIncreasing,
            &mut b
        )
        .unwrap());
        // v1 = v2 - 3 is compatible with strict increase.
        let mut q = space.problem();
        q.constrain_lt(&LinExpr::var(i), &LinExpr::var(j)).unwrap();
        let mut e = LinExpr::var(v1);
        e.add_coef(v2, -1).unwrap();
        e.add_constant(3).unwrap();
        q.add_eq(e);
        assert!(exists_under_property(
            &q,
            &[&occ1, &occ2],
            ArrayProperty::StrictlyIncreasing,
            &mut b
        )
        .unwrap());
    }
}
