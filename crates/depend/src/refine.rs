//! Refining dependence distances (§4.4).
//!
//! A flow dependence's distance vector can be *refined* to a subset `D`
//! when every destination iteration that receives the dependence also
//! receives it from a source within `D`; flows outside `D` are then dead
//! (an intervening `D`-write overwrites the value first). `D` is generated
//! by fixing the distance to its minimum, loop by loop from the outermost
//! (the minimum distance selects the *most recent* source, which is what
//! makes the simplified test of §4.4 sound).
//!
//! As an extension beyond the paper's generator (which, as the paper
//! notes, "will not automatically find the partial refinement in
//! Example 5"), a failed exact fix optionally retries with the width-2
//! range `[min, min+1]`, verified through the exact disjunctive test.

use omega::{Budget, DeltaProblem, LinExpr, PairContext, Problem, ProblemLike};
use tiny::ProgramInfo;

use crate::config::Config;
use crate::dep::{DepCase, Dependence};
use crate::dir::{range_of, DirEntry};
use crate::error::Result;
use crate::logic::implies_union;
use crate::pairs::{executes_before, form_of};
use crate::space::{add_order, OrderCase, Space, StmtVars};

/// What refinement did, for the statistics of Figure 6.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineOutcome {
    /// Whether the dependence vector changed.
    pub changed: bool,
    /// Whether the Omega test ran a general (implication) test.
    pub consulted_omega: bool,
    /// Whether the dependence was split into several vectors during
    /// testing (more than one restraint-vector case examined).
    pub split: bool,
}

/// Attempts to refine `dep` in place. `src_has_self_output` feeds the
/// §4.5 quick test: without a self-output dependence on the source there
/// is at most one write per element, so refinement is impossible.
///
/// # Errors
///
/// Propagates solver errors.
pub fn refine_dependence(
    info: &ProgramInfo,
    dep: &mut Dependence,
    src_has_self_output: bool,
    config: &Config,
    budget: &mut Budget,
) -> Result<RefineOutcome> {
    let mut out = RefineOutcome::default();
    if !config.refine
        || dep.common == 0
        || dep.cases.is_empty()
        || dep.cases.iter().any(|c| !c.exact_subscripts)
    {
        return Ok(out);
    }
    if config.quick_tests && !src_has_self_output {
        return Ok(out);
    }
    out.split = dep.cases.len() > 1;

    let src = info.stmt(dep.src.label);
    let dst = info.stmt(dep.dst.label);
    let src_acc = form_of(src, dep.src.site);
    let dst_acc = form_of(dst, dep.dst.site);

    // Test space: i = original source instance, k = destination,
    // j = candidate more-recent source instance.
    let mut space = Space::new(&info.syms);
    let i_vars = space.bind_stmt("i", src);
    let k_vars = space.bind_stmt("k", dst);
    let j_vars = space.bind_stmt("j", src);

    // Premises: one conjunction per live order case, projected onto
    // (k, Sym).
    let keep: Vec<omega::VarId> = k_vars
        .iters
        .iter()
        .copied()
        .chain(space.sym_vars())
        .collect();
    // The premise base (everything but the order case) is shared by all
    // cases: canonicalize it once and add each order as a delta.
    let mut pbase = space.problem();
    space.add_iteration_space(&mut pbase, src, &i_vars)?;
    space.add_iteration_space(&mut pbase, dst, &k_vars)?;
    space.add_subscript_equality(&mut pbase, src_acc, &i_vars, dst_acc, &k_vars)?;
    space.add_assumptions(&mut pbase, &info.assumptions)?;
    let pctx = PairContext::new(pbase, budget);
    let mut premises = Vec::new();
    for case in &dep.cases {
        let mut p = pctx.derive();
        add_order(&mut p, case.order, &i_vars, &k_vars, dep.common)?;
        let proj = p.project_with(&keep, budget)?;
        if !proj.is_exact() {
            // A splintered premise cannot be handled conjunctively; give
            // up on refinement for this dependence (conservative).
            return Ok(out);
        }
        premises.push((case.order, p, proj.dark().clone()));
    }

    // Witness base for the refinement test: j ∈ [A] with subscripts
    // matching B(k); candidate distances and order are added per query.
    let mut wbase = space.problem();
    space.add_iteration_space(&mut wbase, src, &j_vars)?;
    space.add_subscript_equality(&mut wbase, src_acc, &j_vars, dst_acc, &k_vars)?;
    let wctx = PairContext::new(wbase, budget);

    // Generate D by fixing minimum distances, outermost first.
    let mut prefix: Vec<DirEntry> = Vec::new();
    'levels: for level in 0..dep.common {
        // Minimum possible distance at `level` given the fixed prefix.
        let mut min_d: Option<i64> = None;
        for (_, full, _) in &premises {
            let mut q = full.clone();
            add_prefix_constraints(&mut q, &prefix, &i_vars, &k_vars)?;
            let mut d_expr = LinExpr::var(k_vars.iters[level]);
            d_expr.add_coef(i_vars.iters[level], -1)?;
            if let Some(entry) = range_of(&q, &d_expr, budget)? {
                match entry.lo {
                    None => break 'levels, // unbounded below: cannot fix
                    Some(lo) => min_d = Some(min_d.map_or(lo, |m: i64| m.min(lo))),
                }
            }
        }
        let Some(min_d) = min_d else { break };

        // Candidate: exact fix at this level.
        let mut candidate = prefix.clone();
        candidate.push(DirEntry::exact(min_d));
        out.consulted_omega = true;
        if refinement_holds(
            &wctx, src, dst, &j_vars, &k_vars, dep, &candidate, &keep, &premises, config, budget,
        )? {
            prefix = candidate;
            continue;
        }
        // Extension: widen to [min, min+1] and stop on success.
        if config.widen_refinement {
            let mut widened = prefix.clone();
            widened.push(DirEntry {
                lo: Some(min_d),
                hi: Some(min_d + 1),
            });
            if refinement_holds(
                &wctx, src, dst, &j_vars, &k_vars, dep, &widened, &keep, &premises, config, budget,
            )? {
                prefix = widened;
            }
        }
        break;
    }

    if prefix.is_empty() {
        return Ok(out);
    }

    // Apply: restrict every case to the refined distances; drop cases
    // that become infeasible; recompute summaries.
    let before = dep.summary();
    let mut new_cases: Vec<DepCase> = Vec::new();
    for case in dep.cases.drain(..) {
        let mut dp = case.delta.clone();
        add_distance_constraints(&mut dp, &prefix, &case.src_vars, &case.dst_vars)?;
        if !dp.is_satisfiable_with(budget)? {
            continue; // refined away
        }
        // The order case and the refined exact prefix pin their levels.
        let mut fixed = case.order.fixed_distances(dep.common);
        for (pin, entry) in fixed.iter_mut().zip(&prefix) {
            if entry.is_exact() {
                *pin = entry.lo;
            }
        }
        let summary = crate::dir::distance_summary(
            &dp,
            &case.src_vars.iters,
            &case.dst_vars.iters,
            &fixed,
            budget,
        )?;
        let Some(summary) = summary else { continue };
        new_cases.push(DepCase {
            summary,
            problem: dp.to_problem(),
            delta: dp,
            ..case
        });
    }
    dep.cases = new_cases;
    let after = dep.summary();
    if before != after {
        dep.refined = true;
        out.changed = true;
    }
    Ok(out)
}

/// Tests the (simplified) refinement condition of §4.4 for a candidate
/// distance prefix `d`: every premise implies
/// `∃j. j ∈ [A] ∧ A(j) ≪_D B(k) ∧ A(j) =ₛᵤᵦ B(k)`.
#[allow(clippy::too_many_arguments)]
fn refinement_holds(
    wctx: &PairContext,
    src: &tiny::StmtInfo,
    dst: &tiny::StmtInfo,
    j_vars: &StmtVars,
    k_vars: &StmtVars,
    dep: &Dependence,
    d: &[DirEntry],
    keep: &[omega::VarId],
    premises: &[(OrderCase, DeltaProblem, Problem)],
    config: &Config,
    budget: &mut Budget,
) -> Result<bool> {
    // Base of the witness: j ∈ [A], subscripts match, distances fixed.
    let mut base = wctx.derive();
    add_distance_constraints(&mut base, d, j_vars, k_vars)?;

    // Execution order A(j) ≪_D B(k): implied by the distances when the
    // first constrained level is strictly positive; otherwise the
    // remaining levels must carry the order (a union of cases).
    let forward_forced = d
        .iter()
        .find(|e| !(e.lo == Some(0) && e.hi == Some(0)))
        .is_some_and(|e| e.lo.unwrap_or(i64::MIN) >= 1);
    let mut witnesses: Vec<DeltaProblem> = Vec::new();
    if forward_forced {
        witnesses.push(base);
    } else {
        // Remaining carriers: levels below the fixed prefix, plus the
        // loop-independent case when the source executes first.
        for level in d.len() + 1..=dep.common {
            let mut q = base.clone();
            add_order(
                &mut q,
                OrderCase::CarriedAt(level),
                j_vars,
                k_vars,
                dep.common,
            )?;
            witnesses.push(q);
        }
        // A width-2 first entry `[0, 1]` can also carry the dependence at
        // its own level with distance exactly 1.
        if let Some(last) = d.last() {
            if last.lo == Some(0) && last.hi == Some(1) {
                let mut q = base.clone();
                let level = d.len(); // 1-based level of the widened entry
                add_order(
                    &mut q,
                    OrderCase::CarriedAt(level),
                    j_vars,
                    k_vars,
                    dep.common,
                )?;
                witnesses.push(q);
            }
        }
        if executes_before(src, dep.src.site, dst, dep.dst.site) {
            let mut q = base.clone();
            add_order(
                &mut q,
                OrderCase::LoopIndependent,
                j_vars,
                k_vars,
                dep.common,
            )?;
            witnesses.push(q);
        }
    }

    // Project each witness onto (k, Sym).
    let mut q_projected = Vec::new();
    for w in witnesses {
        q_projected.extend(w.project_with(keep, budget)?.into_problems());
    }

    for (_, _, premise) in premises {
        if !implies_union(premise, &q_projected, config.formula_fallback, budget)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Adds `dst_t − src_t = d_t` (or the range form) for every entry of `d`.
fn add_distance_constraints<P: ProblemLike>(
    p: &mut P,
    d: &[DirEntry],
    src_vars: &StmtVars,
    dst_vars: &StmtVars,
) -> Result<()> {
    for (t, entry) in d.iter().enumerate() {
        let mut expr = LinExpr::var(dst_vars.iters[t]);
        expr.add_coef(src_vars.iters[t], -1)?;
        match (entry.lo, entry.hi) {
            (Some(lo), Some(hi)) if lo == hi => {
                p.constrain_eq(&expr, &LinExpr::constant_expr(lo))?;
            }
            (lo, hi) => {
                if let Some(lo) = lo {
                    p.constrain_ge(&expr, &LinExpr::constant_expr(lo))?;
                }
                if let Some(hi) = hi {
                    p.constrain_le(&expr, &LinExpr::constant_expr(hi))?;
                }
            }
        }
    }
    Ok(())
}

/// Prefix constraints during D generation (always exact entries).
fn add_prefix_constraints<P: ProblemLike>(
    p: &mut P,
    prefix: &[DirEntry],
    src_vars: &StmtVars,
    dst_vars: &StmtVars,
) -> Result<()> {
    add_distance_constraints(p, prefix, src_vars, dst_vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dep::{AccessSite, DepKind};
    use crate::pairs::build_dependence;
    use tiny::{analyze, Program};

    fn refined_flow(src: &str) -> (Dependence, RefineOutcome) {
        let info = analyze(&Program::parse(src).unwrap()).unwrap();
        let s = &info.stmts[0];
        let mut budget = Budget::default();
        let mut dep = build_dependence(
            &info,
            DepKind::Flow,
            s,
            AccessSite::Write,
            s,
            AccessSite::Read(0),
            &mut budget,
        )
        .unwrap()
        .expect("flow dependence");
        let cfg = Config::default();
        let out = refine_dependence(&info, &mut dep, true, &cfg, &mut budget).unwrap();
        (dep, out)
    }

    #[test]
    fn example3_refines_to_0_1() {
        let (dep, out) = refined_flow(tiny::corpus::EXAMPLE_3);
        assert!(out.changed);
        assert!(dep.refined);
        assert_eq!(dep.summary().to_string(), "(0,1)");
        assert_eq!(dep.cases.len(), 1);
    }

    #[test]
    fn example4_trapezoidal_refines_to_0_1() {
        let (dep, _) = refined_flow(tiny::corpus::EXAMPLE_4);
        assert_eq!(dep.summary().to_string(), "(0,1)");
    }

    #[test]
    fn example5_partial_refinement_to_0_1_range() {
        let (dep, _) = refined_flow(tiny::corpus::EXAMPLE_5);
        assert_eq!(dep.summary().to_string(), "(0:1,1)");
    }

    #[test]
    fn example6_coupled_refines_to_1_1() {
        let (dep, _) = refined_flow(tiny::corpus::EXAMPLE_6);
        assert_eq!(dep.summary().to_string(), "(1,1)");
    }

    #[test]
    fn seidel_sweep_refines() {
        // a(i) := a(i-1) + a(i) + a(i+1) under a time loop: the flow from
        // a(i) (same element) refines to the previous time step (1,0).
        let info = analyze(&Program::parse(tiny::corpus::SEIDEL).unwrap()).unwrap();
        let s = &info.stmts[0];
        let mut budget = Budget::default();
        // reads: a(i-1), a(i), a(i+1): index 1 is a(i).
        let mut dep = build_dependence(
            &info,
            DepKind::Flow,
            s,
            AccessSite::Write,
            s,
            AccessSite::Read(1),
            &mut budget,
        )
        .unwrap()
        .unwrap();
        assert_eq!(dep.summary().to_string(), "(+,0)");
        let cfg = Config::default();
        refine_dependence(&info, &mut dep, true, &cfg, &mut budget).unwrap();
        assert_eq!(dep.summary().to_string(), "(1,0)");
    }

    #[test]
    fn quick_test_skips_single_assignment() {
        // Each element written once: no self-output dep -> refinement
        // skipped without consulting the Omega test.
        let info =
            analyze(&Program::parse("sym n; for i := 2 to n do a(i) := a(i-1); endfor").unwrap())
                .unwrap();
        let s = &info.stmts[0];
        let mut budget = Budget::default();
        let mut dep = build_dependence(
            &info,
            DepKind::Flow,
            s,
            AccessSite::Write,
            s,
            AccessSite::Read(0),
            &mut budget,
        )
        .unwrap()
        .unwrap();
        let cfg = Config::default();
        let out = refine_dependence(&info, &mut dep, false, &cfg, &mut budget).unwrap();
        assert!(!out.consulted_omega);
        assert!(!out.changed);
        assert_eq!(dep.summary().to_string(), "(1)");
    }

    #[test]
    fn disabled_refinement_is_a_no_op() {
        let info = analyze(&Program::parse(tiny::corpus::EXAMPLE_3).unwrap()).unwrap();
        let s = &info.stmts[0];
        let mut budget = Budget::default();
        let mut dep = build_dependence(
            &info,
            DepKind::Flow,
            s,
            AccessSite::Write,
            s,
            AccessSite::Read(0),
            &mut budget,
        )
        .unwrap()
        .unwrap();
        let cfg = Config {
            refine: false,
            ..Config::default()
        };
        let out = refine_dependence(&info, &mut dep, true, &cfg, &mut budget).unwrap();
        assert!(!out.changed);
        assert_eq!(dep.summary().to_string(), "(0+,1)");
    }
}
