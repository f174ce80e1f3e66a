//! Human-readable rendering of expressions, constraints and problems.
//!
//! Variables are positions (see [`VarInfo`](crate::VarInfo)); names
//! belong to the caller. [`Problem::display_with`] prints variable `i`
//! as `names[i]`, and a variable without a name by position: `v3`, or
//! `alpha3` for a wildcard. Plain `Display` is the same renderer with no
//! names. [`Formula::display`](crate::Formula::display) uses it too.
//!
//! Rendering is a *boundary*: the string may end up in a server
//! response, a golden file, or a diff, where byte stability matters.
//! A problem's rendering therefore sorts its constraints into the
//! canonical order of [`canon`](crate::canon) before printing, so two
//! problems holding the same constraints in different orders — the
//! documented order-sensitivity of projection and gist output on raw,
//! non-canonical problems — render identically. The problem itself is
//! not rewritten: constraints print with their original coefficients
//! (no GCD reduction), only their order is normalized.

use std::fmt::{self, Write as _};

use crate::canon::cmp_constraints;
use crate::linexpr::{Constraint, LinExpr, Relation};
use crate::problem::Problem;
use crate::var::{VarId, VarKind};

/// A problem printed with caller-supplied variable names; see
/// [`Problem::display_with`].
#[derive(Debug, Clone, Copy)]
pub struct Named<'a> {
    problem: &'a Problem,
    names: &'a [&'a str],
}

impl Problem {
    /// Renders the problem with `names[i]` as the name of variable `i`;
    /// variables past the slice print by position (`v3`, `alpha3`).
    ///
    /// # Examples
    ///
    /// ```
    /// use omega::{LinExpr, Problem, VarKind};
    /// let mut p = Problem::new();
    /// let i = p.add_var(VarKind::Input);
    /// let n = p.add_var(VarKind::Symbolic);
    /// p.add_geq(LinExpr::var(n).plus_term(-1, i));
    /// assert_eq!(p.display_with(&["i", "n"]).to_string(), "{ -i + n >= 0 }");
    /// assert_eq!(p.to_string(), "{ -v0 + v1 >= 0 }");
    /// ```
    pub fn display_with<'a>(&'a self, names: &'a [&'a str]) -> Named<'a> {
        Named {
            problem: self,
            names,
        }
    }
}

impl Named<'_> {
    /// Appends the name of `v`.
    pub(crate) fn var(&self, out: &mut String, v: VarId) {
        if let Some(name) = self.names.get(v.index()) {
            out.push_str(name);
            return;
        }
        // Columns past the table behave as wildcards.
        let wild = self.problem.num_vars() <= v.index()
            || self.problem.var_info(v).kind() == VarKind::Wildcard;
        let prefix = if wild { "alpha" } else { "v" };
        let _ = write!(out, "{prefix}{}", v.index());
    }

    /// Renders a linear expression, e.g. `2x - y + 3`.
    pub(crate) fn expr(&self, e: &LinExpr) -> String {
        let mut s = String::new();
        for (i, (v, c)) in e.terms().enumerate() {
            match (i, c) {
                (0, 1) => {}
                (0, -1) => s.push('-'),
                (0, _) => {
                    let _ = write!(s, "{c}");
                }
                (_, 1) => s.push_str(" + "),
                (_, -1) => s.push_str(" - "),
                (_, _) if c > 0 => {
                    let _ = write!(s, " + {c}");
                }
                _ => {
                    let _ = write!(s, " - {}", -c);
                }
            }
            self.var(&mut s, v);
        }
        let k = e.constant();
        if e.terms().next().is_none() {
            let _ = write!(s, "{k}");
        } else if k > 0 {
            let _ = write!(s, " + {k}");
        } else if k < 0 {
            let _ = write!(s, " - {}", -k);
        }
        s
    }

    /// Renders a constraint, e.g. `x - y + 3 >= 0`.
    pub(crate) fn constraint(&self, c: &Constraint) -> String {
        let rel = match c.relation() {
            Relation::Zero => "=",
            Relation::NonNegative => ">=",
        };
        format!("{} {rel} 0", self.expr(c.expr()))
    }
}

impl fmt::Display for Named<'_> {
    /// Prints the problem as `{ c1; c2; ... }`, prefixing existential
    /// wildcards as `exists a,b:`. Equalities print before inequalities
    /// and each list is sorted into canonical constraint order, so the
    /// rendering is independent of the order constraints were added or
    /// produced in (see the module docs).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.problem;
        if p.is_known_infeasible() {
            return write!(f, "{{ FALSE }}");
        }
        if p.is_trivially_true() {
            return write!(f, "{{ TRUE }}");
        }
        let sorted = |cs: &[Constraint]| {
            let mut out: Vec<Constraint> = cs.to_vec();
            out.sort_by(cmp_constraints);
            out
        };
        let (eqs, geqs) = (sorted(p.eqs()), sorted(p.geqs()));
        let mut mentioned = vec![false; p.num_vars()];
        for c in eqs.iter().chain(&geqs) {
            for (v, _) in c.expr().terms() {
                mentioned[v.index()] = true;
            }
        }
        let mut wilds = String::new();
        for v in p.var_ids() {
            if mentioned[v.index()] && p.var_info(v).kind() == VarKind::Wildcard {
                if !wilds.is_empty() {
                    wilds.push(',');
                }
                self.var(&mut wilds, v);
            }
        }
        write!(f, "{{ ")?;
        if !wilds.is_empty() {
            write!(f, "exists {wilds}: ")?;
        }
        for (i, c) in eqs.iter().chain(&geqs).enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{}", self.constraint(c))?;
        }
        write!(f, " }}")
    }
}

impl fmt::Display for Problem {
    /// The rendering of [`Problem::display_with`] with no names: every
    /// variable prints by position.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.display_with(&[]).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::VarKind;

    #[test]
    fn expr_rendering() {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        let y = p.add_var(VarKind::Input);
        let named = p.display_with(&["x", "y"]);
        assert_eq!(named.expr(&LinExpr::zero()), "0");
        assert_eq!(named.expr(&LinExpr::var(x)), "x");
        assert_eq!(
            named.expr(&LinExpr::term(2, x).plus_term(-1, y).plus_const(3)),
            "2x - y + 3"
        );
        assert_eq!(named.expr(&LinExpr::term(-1, x).plus_const(-7)), "-x - 7");
    }

    #[test]
    fn problem_rendering() {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        p.add_geq(LinExpr::var(x).plus_const(-1));
        p.add_eq(LinExpr::term(2, x).plus_const(-8));
        let s = p.display_with(&["x"]).to_string();
        assert!(s.contains("2x - 8 = 0"), "{s}");
        assert!(s.contains("x - 1 >= 0"), "{s}");
    }

    #[test]
    fn trivial_and_infeasible_rendering() {
        let p = Problem::new();
        assert_eq!(p.to_string(), "{ TRUE }");
        let mut q = Problem::new();
        q.add_geq(LinExpr::constant_expr(-1));
        q.normalize().unwrap();
        assert_eq!(q.to_string(), "{ FALSE }");
    }

    #[test]
    fn rendering_is_independent_of_constraint_order() {
        let mut a = Problem::new();
        let x = a.add_var(VarKind::Input);
        let y = a.add_var(VarKind::Input);
        let mut b = a.clone();
        // Same constraints, opposite insertion order.
        a.add_geq(LinExpr::var(x).plus_const(-1));
        a.add_geq(LinExpr::term(2, y).plus_term(-1, x));
        a.add_eq(LinExpr::var(x).plus_term(-1, y));
        b.add_eq(LinExpr::var(x).plus_term(-1, y));
        b.add_geq(LinExpr::term(2, y).plus_term(-1, x));
        b.add_geq(LinExpr::var(x).plus_const(-1));
        assert_eq!(a.to_string(), b.to_string());
        // Order is normalized at the boundary, never the content: a
        // scaled (non-canonical) constraint still prints as written.
        let mut c = Problem::new();
        let z = c.add_var(VarKind::Input);
        c.add_geq(LinExpr::term(3, z).plus_const(-6));
        assert_eq!(c.display_with(&["z"]).to_string(), "{ 3z - 6 >= 0 }");
    }

    #[test]
    fn wildcards_are_quantified() {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        let a = p.add_var(VarKind::Wildcard);
        p.add_eq(LinExpr::var(x).plus_term(-2, a));
        let s = p.display_with(&["x", "a0"]).to_string();
        assert!(s.starts_with("{ exists a0:"), "{s}");
    }

    #[test]
    fn unnamed_variables_print_by_position() {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        let n = p.add_var(VarKind::Symbolic);
        let a = p.add_var(VarKind::Wildcard);
        p.add_eq(LinExpr::var(x).plus_term(-2, a));
        p.add_geq(LinExpr::var(n).plus_term(-1, x));
        assert_eq!(
            p.to_string(),
            "{ exists alpha2: v0 - 2alpha2 = 0; -v0 + v1 >= 0 }"
        );
        // A short name slice names a prefix; the rest print by position.
        assert_eq!(
            p.display_with(&["x"]).to_string(),
            "{ exists alpha2: x - 2alpha2 = 0; -x + v1 >= 0 }"
        );
    }
}
