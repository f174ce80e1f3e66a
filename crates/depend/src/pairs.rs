//! Constructing dependences for access pairs: the "standard analysis" of
//! the paper — one conjunctive dependence case per restraint vector
//! (carrier level or loop-independent).

use omega::{Budget, PairContext, ProblemLike};
use tiny::ast::name_key;
use tiny::sema::StmtInfo;
use tiny::Access;

use crate::dep::{AccessRef, AccessSite, DepCase, DepKind, Dependence};
use crate::dir::distance_summary;
use crate::error::Result;
use crate::space::{add_order, order_cases, Space};

/// Whether `src` executes before `dst` within one shared iteration: for
/// distinct statements this is lexical order; within one statement the
/// reads execute before the write.
pub fn executes_before(
    src: &StmtInfo,
    src_site: AccessSite,
    dst: &StmtInfo,
    dst_site: AccessSite,
) -> bool {
    if src.label != dst.label {
        src.lexically_before(dst)
    } else {
        matches!(src_site, AccessSite::Read(_)) && matches!(dst_site, AccessSite::Write)
    }
}

/// Resolves an access site on a statement.
pub fn access_of(stmt: &StmtInfo, site: AccessSite) -> &Access {
    match site {
        AccessSite::Write => &stmt.write,
        AccessSite::Read(i) => &stmt.reads[i],
    }
}

/// Builds the dependence (if any) from `(src, src_site)` to
/// `(dst, dst_site)`, split per restraint vector. Returns `None` when the
/// accesses cannot be to the same memory location in the required order.
///
/// # Errors
///
/// Propagates solver errors.
#[allow(clippy::too_many_arguments)]
pub fn build_dependence(
    info: &tiny::ProgramInfo,
    kind: DepKind,
    src: &StmtInfo,
    src_site: AccessSite,
    dst: &StmtInfo,
    dst_site: AccessSite,
    budget: &mut Budget,
) -> Result<Option<Dependence>> {
    let (dep, _) = build_directed(info, kind, src, src_site, dst, dst_site, false, budget)?;
    Ok(dep)
}

/// [`build_dependence`], also reporting whether the pair's base — the
/// two iteration spaces, the subscript equality and the assumptions,
/// before any order case — may be satisfiable. The base does not depend
/// on the direction, so the analysis driver builds the mirrored direction
/// of an access pair with `base_feasible` set from the first direction's
/// verdict, which skips re-solving it (an unsatisfiable base means
/// neither direction exists, and the caller does not build the second).
///
/// # Errors
///
/// Propagates solver errors.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_directed(
    info: &tiny::ProgramInfo,
    kind: DepKind,
    src: &StmtInfo,
    src_site: AccessSite,
    dst: &StmtInfo,
    dst_site: AccessSite,
    base_feasible: bool,
    budget: &mut Budget,
) -> Result<(Option<Dependence>, bool)> {
    let src_acc = access_of(src, src_site);
    let dst_acc = access_of(dst, dst_site);
    if name_key(&src_acc.array) != name_key(&dst_acc.array) {
        return Ok((None, false));
    }

    let common = src.common_loops(dst);
    let lex = executes_before(src, src_site, dst, dst_site);
    let orders = order_cases(common, lex);
    if base_feasible && orders.is_empty() {
        // Nothing to build: return before canonicalizing a base that
        // no query would use.
        return Ok((None, true));
    }

    let mut space = Space::new(&info.syms);
    let src_vars = space.bind_stmt("i", src);
    let dst_vars = space.bind_stmt("j", dst);

    // Base conjunction: iteration spaces, subscript equality, assumptions.
    let mut base = space.problem();
    space.add_iteration_space(&mut base, src, &src_vars)?;
    space.add_iteration_space(&mut base, dst, &dst_vars)?;
    let exact_subscripts =
        space.add_subscript_equality(&mut base, src_acc, &src_vars, dst_acc, &dst_vars)?;
    space.add_assumptions(&mut base, &info.assumptions)?;

    // Canonicalize the shared base once; every order case and every later
    // pass (§4.1–4.4) derives from this context as a constraint delta.
    let ctx = PairContext::new(base, budget);

    if !base_feasible {
        match ctx.derive().is_satisfiable_with(budget) {
            Ok(false) => return Ok((None, false)),
            Ok(true) => {}
            // Conservative: keep analyzing as if a dependence may exist.
            Err(omega::Error::TooComplex { .. }) => {}
            Err(e) => return Err(e.into()),
        }
    }

    let mut cases = Vec::new();
    for case in orders {
        let mut dp = ctx.derive();
        add_order(&mut dp, case, &src_vars, &dst_vars, common)?;
        // Budget exhaustion inside a summary degrades to the
        // all-unknown vector: the dependence is conservatively assumed
        // with no direction information, as a production compiler must.
        let fixed = case.fixed_distances(common);
        let summary = match distance_summary(&dp, &src_vars.iters, &dst_vars.iters, &fixed, budget)
        {
            Ok(None) => continue, // this order case is infeasible
            Ok(Some(s)) => s,
            Err(crate::Error::Solver(omega::Error::TooComplex { .. })) => {
                crate::dir::DirectionVector(vec![crate::dir::DirEntry::star(); common])
            }
            Err(e) => return Err(e),
        };
        cases.push(DepCase {
            order: case,
            summary,
            space: space.clone(),
            problem: dp.to_problem(),
            delta: dp,
            src_vars: src_vars.clone(),
            dst_vars: dst_vars.clone(),
            exact_subscripts,
        });
    }

    if cases.is_empty() {
        return Ok((None, true));
    }
    let dep = Dependence {
        kind,
        src: AccessRef {
            label: src.label,
            site: src_site,
        },
        dst: AccessRef {
            label: dst.label,
            site: dst_site,
        },
        common,
        cases,
        refined: false,
        covering: false,
        dead: None,
    };
    Ok((Some(dep), true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiny::{analyze, Program};

    fn info(src: &str) -> tiny::ProgramInfo {
        analyze(&Program::parse(src).unwrap()).unwrap()
    }

    fn flow_self(src: &str) -> Option<Dependence> {
        let info = info(src);
        let s = &info.stmts[0];
        build_dependence(
            &info,
            DepKind::Flow,
            s,
            AccessSite::Write,
            s,
            AccessSite::Read(0),
            &mut Budget::default(),
        )
        .unwrap()
    }

    #[test]
    fn example3_unrefined_vector() {
        // Paper Example 3: unrefined flow dependence (0+,1).
        let d = flow_self(
            "sym n, m;
             for L1 := 1 to n do
               for L2 := 2 to m do
                 a(L2) := a(L2-1);
               endfor
             endfor",
        )
        .expect("flow dependence exists");
        assert_eq!(d.cases.len(), 2, "carried at L1 and at L2");
        assert_eq!(d.summary().to_string(), "(0+,1)");
    }

    #[test]
    fn example6_coupled_vector() {
        // Paper Example 6: distances (α,α), α >= 1 — carried at L1 only.
        let d = flow_self(
            "sym n, m;
             for L1 := 1 to n do
               for L2 := 2 to m do
                 a(L1-L2) := a(L1-L2);
               endfor
             endfor",
        )
        .expect("flow dependence exists");
        assert_eq!(d.cases.len(), 1, "only the outer loop can carry it");
        let s = d.summary();
        assert_eq!(s.0[0].lo, Some(1));
        assert_eq!(s.0[1].lo, Some(1));
    }

    #[test]
    fn wavefront_distances() {
        let src = "sym n, m;
            for i := 2 to n do
              for j := 2 to m do
                a(i, j) := a(i-1, j) + a(i, j-1);
              endfor
            endfor";
        let pi = info(src);
        let s = &pi.stmts[0];
        let mut b = Budget::default();
        let d1 = build_dependence(&pi, DepKind::Flow, s, AccessSite::Write, s, AccessSite::Read(0), &mut b)
            .unwrap()
            .unwrap();
        assert_eq!(d1.summary().to_string(), "(1,0)");
        let d2 = build_dependence(&pi, DepKind::Flow, s, AccessSite::Write, s, AccessSite::Read(1), &mut b)
            .unwrap()
            .unwrap();
        assert_eq!(d2.summary().to_string(), "(0,1)");
    }

    #[test]
    fn no_dependence_between_different_arrays() {
        let pi = info("for i := 1 to n do a(i) := b(i); endfor");
        let s = &pi.stmts[0];
        let d = build_dependence(
            &pi,
            DepKind::Flow,
            s,
            AccessSite::Write,
            s,
            AccessSite::Read(0),
            &mut Budget::default(),
        )
        .unwrap();
        assert!(d.is_none());
    }

    #[test]
    fn no_dependence_when_ranges_disjoint() {
        let pi = info(
            "sym n;
             for i := 1 to n do a(i) := 0; endfor
             for i := n+1 to 2*n do x := a(i); endfor",
        );
        let w = &pi.stmts[0];
        let r = &pi.stmts[1];
        let d = build_dependence(
            &pi,
            DepKind::Flow,
            w,
            AccessSite::Write,
            r,
            AccessSite::Read(0),
            &mut Budget::default(),
        )
        .unwrap();
        assert!(d.is_none(), "write range 1..n, read range n+1..2n");
    }

    #[test]
    fn anti_dependence_same_statement_is_loop_independent() {
        // a(i) := a(i) + 1: read happens before write in the same
        // iteration -> anti dependence with distance (0).
        let pi = info("sym n; for i := 1 to n do a(i) := a(i) + 1; endfor");
        let s = &pi.stmts[0];
        let d = build_dependence(
            &pi,
            DepKind::Anti,
            s,
            AccessSite::Read(0),
            s,
            AccessSite::Write,
            &mut Budget::default(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(d.summary().to_string(), "(0)");
        // ... and the flow dependence the other way does not exist.
        let f = build_dependence(
            &pi,
            DepKind::Flow,
            s,
            AccessSite::Write,
            s,
            AccessSite::Read(0),
            &mut Budget::default(),
        )
        .unwrap();
        assert!(f.is_none());
    }

    #[test]
    fn output_dependence_self() {
        // a(i) := …; writes distinct elements: no self output dependence.
        let pi = info("sym n; for i := 1 to n do a(i) := 0; endfor");
        let s = &pi.stmts[0];
        let d = build_dependence(
            &pi,
            DepKind::Output,
            s,
            AccessSite::Write,
            s,
            AccessSite::Write,
            &mut Budget::default(),
        )
        .unwrap();
        assert!(d.is_none());

        // a(1) := … rewrites the same element every iteration.
        let pi = info("sym n; for i := 1 to n do a(1) := i; endfor");
        let s = &pi.stmts[0];
        let d = build_dependence(
            &pi,
            DepKind::Output,
            s,
            AccessSite::Write,
            s,
            AccessSite::Write,
            &mut Budget::default(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(d.summary().to_string(), "(+)");
    }

    #[test]
    fn assumptions_rule_out_dependences() {
        // Without the assumption x >= 1 there may be a loop-independent
        // dependence (x = 0); with it the write a(i-x) is always to an
        // earlier element, so only the carried case remains.
        let with = info(
            "sym n, x;
             assume x >= 1;
             for i := 1 to n do a(i) := a(i-x); endfor",
        );
        let s = &with.stmts[0];
        let d = build_dependence(
            &with,
            DepKind::Flow,
            s,
            AccessSite::Write,
            s,
            AccessSite::Read(0),
            &mut Budget::default(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(d.cases.len(), 1);
        assert_eq!(d.summary().0[0].lo, Some(1));
    }

    #[test]
    fn scalar_dependences() {
        // s := s + a(i): scalar flow dependence carried by the loop.
        let pi = info("sym n; for i := 1 to n do s := s + a(i); endfor");
        let s = &pi.stmts[0];
        let d = build_dependence(
            &pi,
            DepKind::Flow,
            s,
            AccessSite::Write,
            s,
            AccessSite::Read(0),
            &mut Budget::default(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(d.summary().to_string(), "(+)");
    }

    #[test]
    fn opaque_subscripts_are_conservative() {
        // a(q(i)) := a(q(i)): cannot disprove, marked inexact.
        let pi = info("sym n; for i := 1 to n do a(q(i)) := a(q(i)) + 1; endfor");
        let s = &pi.stmts[0];
        let read_idx = s
            .reads
            .iter()
            .position(|r| name_key(&r.array) == "a")
            .unwrap();
        let d = build_dependence(
            &pi,
            DepKind::Anti,
            s,
            AccessSite::Read(read_idx),
            s,
            AccessSite::Write,
            &mut Budget::default(),
        )
        .unwrap()
        .unwrap();
        assert!(!d.cases[0].exact_subscripts);
    }
}
