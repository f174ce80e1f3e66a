//! Terminating dependences (§4.3): a dependence from A to a write B
//! *terminates* A when every location A accesses is subsequently
//! overwritten by B — dependences from A past B are then dead.
//!
//! (Like the paper's implementation, the Figure 3/4 driver does not use
//! termination for flow analysis; it is provided as a first-class API.)

use omega::Budget;
use tiny::ProgramInfo;

use crate::config::Config;
use crate::dep::Dependence;
use crate::error::Result;
use crate::logic::endpoint_implied;

/// Checks whether `dep` (from access A to write B) terminates A:
///
/// ```text
/// ∀ i, Sym:  i ∈ [A]  ⇒  ∃ j. j ∈ [B] ∧ A(i) ≪ B(j) ∧ A(i) =ₛᵤᵦ B(j)
/// ```
///
/// # Errors
///
/// Propagates solver errors.
pub fn check_terminating(
    info: &ProgramInfo,
    dep: &Dependence,
    config: &Config,
    budget: &mut Budget,
) -> Result<bool> {
    if dep.cases.is_empty() || dep.cases.iter().any(|c| !c.exact_subscripts) {
        return Ok(false);
    }
    endpoint_implied(info, dep, false, config.formula_fallback, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dep::{AccessSite, DepKind};
    use crate::pairs::build_dependence;
    use tiny::{analyze, Program};

    fn terminates(src: &str, a: usize, a_site: AccessSite, b: usize) -> bool {
        let info = analyze(&Program::parse(src).unwrap()).unwrap();
        let mut budget = Budget::default();
        let kind = match a_site {
            AccessSite::Write => DepKind::Output,
            AccessSite::Read(_) => DepKind::Anti,
        };
        let Some(dep) = build_dependence(
            &info,
            kind,
            info.stmt(a),
            a_site,
            info.stmt(b),
            AccessSite::Write,
            &mut budget,
        )
        .unwrap() else {
            return false;
        };
        let cfg = Config::default();
        check_terminating(&info, &dep, &cfg, &mut budget).unwrap()
    }

    #[test]
    fn full_overwrite_terminates() {
        // Write a(1..n), then overwrite a(1..n): output dep terminates
        // the first write.
        assert!(terminates(
            "sym n;
             for i := 1 to n do a(i) := 0; endfor
             for i := 1 to n do a(i) := 1; endfor",
            1,
            AccessSite::Write,
            2
        ));
    }

    #[test]
    fn partial_overwrite_does_not_terminate() {
        assert!(!terminates(
            "sym n;
             for i := 1 to 2*n do a(i) := 0; endfor
             for i := 1 to n do a(i) := 1; endfor",
            1,
            AccessSite::Write,
            2
        ));
    }

    #[test]
    fn read_terminated_by_later_write() {
        // Every element read is later overwritten (anti dependence
        // terminates the read).
        assert!(terminates(
            "sym n;
             for i := 1 to n do x := a(i); endfor
             for i := 1 to n do a(i) := 0; endfor",
            1,
            AccessSite::Read(0),
            2
        ));
    }
}
