//! Killing dependences (§4.1): a dependence from A to C is killed by the
//! dependence from a write B to C when every element A accesses is
//! overwritten by B before C can access it.

use omega::{Budget, PairContext, ProblemLike};
use tiny::ProgramInfo;

use crate::config::Config;
use crate::dep::{AccessSite, Dependence};
use crate::error::Result;
use crate::logic::implies_union;
use crate::pairs::{executes_before, form_of};
use crate::space::{add_order, order_cases, Space};

/// What the kill test did (for the Figure 6 right-hand plot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KillOutcome {
    /// Whether the victim is dead.
    pub killed: bool,
    /// Whether a general Omega-test query ran (false means a quick test
    /// resolved it).
    pub consulted_omega: bool,
}

/// Tests whether `victim` (a dependence from A to C) is killed by the
/// write of statement `killer_label` (B):
///
/// ```text
/// ∀ i,k,Sym:  i ∈ [A] ∧ k ∈ [C] ∧ A(i) ≪ C(k) ∧ A(i) =ₛᵤᵦ C(k)
///   ⇒ ∃ j.  j ∈ [B] ∧ A(i) ≪ B(j) ≪ C(k) ∧ B(j) =ₛᵤᵦ C(k)
/// ```
///
/// # Errors
///
/// Propagates solver errors.
pub fn check_kill(
    info: &ProgramInfo,
    victim: &Dependence,
    killer_label: usize,
    config: &Config,
    budget: &mut Budget,
) -> Result<KillOutcome> {
    let mut out = KillOutcome::default();
    if !config.kill
        || victim.cases.is_empty()
        || victim.cases.iter().any(|c| !c.exact_subscripts)
        || killer_label == victim.src.label
    {
        return Ok(out);
    }

    let a = info.stmt(victim.src.label);
    let c = info.stmt(victim.dst.label);
    let b = info.stmt(killer_label);
    let a_acc = form_of(a, victim.src.site);
    let c_acc = form_of(c, victim.dst.site);
    let b_acc = &b.write_form;
    if b_acc.array != c_acc.array {
        return Ok(out);
    }

    out.consulted_omega = true;
    let mut space = Space::new(&info.syms);
    let i_vars = space.bind_stmt("i", a);
    let k_vars = space.bind_stmt("k", c);
    let j_vars = space.bind_stmt("j", b);

    // Premises: the victim's cases, rebuilt over (i, k).
    let common_ac = a.common_loops(c);
    let mut premises = Vec::new();
    for case in &victim.cases {
        let mut p = space.problem();
        space.add_iteration_space(&mut p, a, &i_vars)?;
        space.add_iteration_space(&mut p, c, &k_vars)?;
        if !space.add_subscript_equality(&mut p, a_acc, &i_vars, c_acc, &k_vars)? {
            return Ok(out);
        }
        space.add_assumptions(&mut p, &info.assumptions)?;
        add_order(&mut p, case.order, &i_vars, &k_vars, common_ac)?;
        premises.push(p);
    }

    // Witnesses: j ∈ [B] ∧ A(i) ≪ B(j) ∧ B(j) ≪ C(k) ∧ subscripts match,
    // one conjunction per (order(A,B), order(B,C)) pair, projected away j.
    let common_ab = a.common_loops(b);
    let common_bc = b.common_loops(c);
    let ab_cases = order_cases(
        common_ab,
        executes_before(a, victim.src.site, b, AccessSite::Write),
    );
    let bc_cases = order_cases(
        common_bc,
        executes_before(b, AccessSite::Write, c, victim.dst.site),
    );
    let keep: Vec<omega::VarId> = i_vars
        .iters
        .iter()
        .chain(&k_vars.iters)
        .copied()
        .chain(space.sym_vars())
        .collect();

    let mut base = space.problem();
    space.add_iteration_space(&mut base, b, &j_vars)?;
    if !space.add_subscript_equality(&mut base, b_acc, &j_vars, c_acc, &k_vars)? {
        return Ok(out);
    }
    space.add_assumptions(&mut base, &info.assumptions)?;
    // One canonicalization of the witness base; each order pair below is
    // a delta against it.
    let wctx = PairContext::new(base, budget);

    let mut witnesses = Vec::new();
    for &ab in &ab_cases {
        for &bc in &bc_cases {
            let mut q = wctx.derive();
            add_order(&mut q, ab, &i_vars, &j_vars, common_ab)?;
            add_order(&mut q, bc, &j_vars, &k_vars, common_bc)?;
            if !q.is_satisfiable_with(budget)? {
                continue;
            }
            witnesses.extend(q.project_with(&keep, budget)?.into_problems());
        }
    }

    for p in &premises {
        if !implies_union(p, &witnesses, config.formula_fallback, budget)? {
            return Ok(out);
        }
    }
    out.killed = true;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dep::DepKind;
    use crate::pairs::build_dependence;
    use tiny::{analyze, Program};

    fn kill_in(src: &str, victim_w: usize, read_stmt: usize, killer: usize) -> bool {
        let info = analyze(&Program::parse(src).unwrap()).unwrap();
        let mut budget = Budget::default();
        let victim = build_dependence(
            &info,
            DepKind::Flow,
            info.stmt(victim_w),
            AccessSite::Write,
            info.stmt(read_stmt),
            AccessSite::Read(0),
            &mut budget,
        )
        .unwrap()
        .expect("victim dependence exists");
        let cfg = Config::default();
        check_kill(&info, &victim, killer, &cfg, &mut budget)
            .unwrap()
            .killed
    }

    #[test]
    fn example1_write_kills_flow() {
        // Paper §4.1: the write a(L1) (stmt 2) kills the flow from a(n)
        // (stmt 1) to the read (stmt 3).
        assert!(kill_in(tiny::corpus::EXAMPLE_1, 1, 3, 2));
    }

    #[test]
    fn example1_m_kill_not_verifiable() {
        // With the first write to a(m) and no assertion, the kill cannot
        // be verified.
        assert!(!kill_in(tiny::corpus::EXAMPLE_1_M, 1, 3, 2));
    }

    #[test]
    fn example1_m_assertion_restores_kill() {
        // Asserting n <= m <= n+10 restores it.
        assert!(kill_in(tiny::corpus::EXAMPLE_1_M_ASSERTED, 1, 3, 2));
    }

    #[test]
    fn kill_chain_middle_write_kills_first() {
        assert!(kill_in(tiny::corpus::CONTRIVED_KILL_CHAIN, 1, 3, 2));
    }

    #[test]
    fn partial_kill_does_not_kill() {
        // Second write only covers even elements.
        assert!(!kill_in(tiny::corpus::CONTRIVED_PARTIAL_KILL, 1, 3, 2));
    }

    #[test]
    fn loop_carried_kill_within_same_nest() {
        // w1: a(i) := 0 (stmt 1); w2: a(i) := 1 (stmt 2, same loop, after);
        // read in a later loop: stmt 2 kills stmt 1's flow.
        assert!(kill_in(
            "sym n;
             for i := 1 to n do
               a(i) := 0;
               a(i) := 1;
             endfor
             for i := 1 to n do x := a(i); endfor",
            1,
            3,
            2
        ));
    }

    #[test]
    fn different_array_killer_is_rejected() {
        assert!(!kill_in(
            "sym n;
             for i := 1 to n do a(i) := 0; endfor
             for i := 1 to n do b(i) := 1; endfor
             for i := 1 to n do x := a(i); endfor",
            1,
            3,
            2
        ));
    }
}
