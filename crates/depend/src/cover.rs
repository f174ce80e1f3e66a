//! Covering dependences (§4.2): a write A covers a read (or write) B when
//! every location B accesses was previously written by A. A covering
//! dependence kills every dependence into B from accesses that must
//! precede A's writes.

use omega::Budget;
use tiny::ProgramInfo;

use crate::config::Config;
use crate::dep::Dependence;
use crate::error::Result;
use crate::logic::endpoint_implied;

/// What the covering check did (for Figure 6 statistics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverOutcome {
    /// Whether the dependence covers its destination.
    pub covering: bool,
    /// Whether a general Omega-test query ran.
    pub consulted_omega: bool,
    /// Whether multiple dependence vectors were examined.
    pub split: bool,
}

/// Checks whether `dep` (from write A to access B) is covering:
///
/// ```text
/// ∀ j, Sym:  j ∈ [B]  ⇒  ∃ i. i ∈ [A] ∧ A(i) ≪ B(j) ∧ A(i) =ₛᵤᵦ B(j)
/// ```
///
/// Sets [`Dependence::covering`] on success.
///
/// # Errors
///
/// Propagates solver errors.
pub fn check_covering(
    info: &ProgramInfo,
    dep: &mut Dependence,
    config: &Config,
    budget: &mut Budget,
) -> Result<CoverOutcome> {
    let mut out = CoverOutcome::default();
    if !config.cover || dep.cases.is_empty() || dep.cases.iter().any(|c| !c.exact_subscripts) {
        return Ok(out);
    }
    // §4.5 quick test: a dependence that cannot have distance 0 in some
    // common loop cannot cover the first trip through that loop.
    if config.quick_tests {
        let s = dep.summary();
        if s.0.iter().any(|e| !e.contains_zero()) {
            return Ok(out);
        }
        // The destination's loops below the common nest must also be
        // reachable; a non-common destination loop is fine (the write can
        // still cover all of them), so no further gate here.
    }
    out.consulted_omega = true;
    out.split = dep.cases.len() > 1;

    if endpoint_implied(info, dep, true, config.formula_fallback, budget)? {
        dep.covering = true;
        out.covering = true;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dep::{AccessSite, DepKind};
    use crate::pairs::build_dependence;
    use tiny::{analyze, Program};

    fn cover_of(src: &str, w: usize, r: usize, ridx: usize) -> bool {
        let info = analyze(&Program::parse(src).unwrap()).unwrap();
        let wst = info.stmt(w);
        let rst = info.stmt(r);
        let mut budget = Budget::default();
        let Some(mut dep) = build_dependence(
            &info,
            DepKind::Flow,
            wst,
            AccessSite::Write,
            rst,
            AccessSite::Read(ridx),
            &mut budget,
        )
        .unwrap() else {
            return false;
        };
        let cfg = Config::default();
        check_covering(&info, &mut dep, &cfg, &mut budget)
            .unwrap()
            .covering
    }

    #[test]
    fn example2_write_covers_read() {
        // Paper §4.2: the read of a(L2) (stmt 5) is covered by the write
        // to a(L2-1) (stmt 4).
        assert!(cover_of(tiny::corpus::EXAMPLE_2, 4, 5, 0));
    }

    #[test]
    fn example2_other_writes_do_not_cover() {
        // a(m) (stmt 1) writes one element: no cover.
        assert!(!cover_of(tiny::corpus::EXAMPLE_2, 1, 5, 0));
        // a(L2) (stmt 3) writes 1..n but executes before the read only for
        // iterations with L2 ordering; it does cover? Writes 1..n in the
        // same L1 iteration before the read of 2..n-1: covered range
        // includes all read elements, so it IS covering.
        assert!(cover_of(tiny::corpus::EXAMPLE_2, 3, 5, 0));
    }

    #[test]
    fn full_initialization_covers() {
        assert!(cover_of(
            "sym n;
             for i := 1 to n do a(i) := 0; endfor
             for i := 1 to n do x := a(i); endfor",
            1,
            2,
            0
        ));
    }

    #[test]
    fn partial_initialization_does_not_cover() {
        assert!(!cover_of(
            "sym n;
             for i := 1 to n do a(2*i) := 0; endfor
             for i := 1 to 2*n do x := a(i); endfor",
            1,
            2,
            0
        ));
    }

    #[test]
    fn carried_writes_do_not_cover_first_iteration() {
        // a(i-1) written before read of a(i): first read iteration sees
        // nothing.
        assert!(!cover_of(
            "sym n;
             for i := 1 to n do
               a(i-1) := 0;
               x := a(i);
             endfor",
            1,
            2,
            0
        ));
    }

    #[test]
    fn cover_disabled_by_config() {
        let info = analyze(
            &Program::parse(
                "sym n;
                 for i := 1 to n do a(i) := 0; endfor
                 for i := 1 to n do x := a(i); endfor",
            )
            .unwrap(),
        )
        .unwrap();
        let mut budget = Budget::default();
        let mut dep = build_dependence(
            &info,
            DepKind::Flow,
            info.stmt(1),
            AccessSite::Write,
            info.stmt(2),
            AccessSite::Read(0),
            &mut budget,
        )
        .unwrap()
        .unwrap();
        let cfg = Config {
            cover: false,
            ..Config::default()
        };
        let out = check_covering(&info, &mut dep, &cfg, &mut budget).unwrap();
        assert!(!out.covering && !out.consulted_omega);
    }
}
