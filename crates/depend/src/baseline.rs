//! Baseline dependence tests: the GCD test and a Banerjee-style bounds
//! test, the "methods currently in use" the paper improves on. These are
//! *approximate*: they answer "maybe" unless they can prove independence,
//! and they cannot express the kill/cover/refinement questions at all —
//! which is precisely the paper's point.

use omega::int::{self, Coef};
use tiny::sema::{Affine, StmtInfo, Var};

use crate::dep::AccessSite;
use crate::pairs::form_of;

/// A baseline test's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The accesses can never reference the same element.
    Independent,
    /// A dependence may exist (the test could not disprove it).
    Maybe,
}

/// A variable of a pair of statement instances, as the quick tests see
/// it. The two instances are distinct, so each has its own loop
/// variables: the destination's are the paper's primed `i'`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PairVar {
    /// A program symbol ([`Var::Sym`]): one unknown value shared by both
    /// instances.
    Free(Var),
    /// The source's loop variable at this depth.
    Src(u32),
    /// The destination's loop variable at this depth.
    Dst(u32),
    /// The counter `k` of the source's step loop at this depth, which
    /// runs as `lo + step·k`.
    SrcStep(u32),
    /// The destination's step-loop counter at this depth.
    DstStep(u32),
}

/// Which instance of a pair a statement form belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    Src,
    Dst,
}

impl Side {
    /// The pair variable of a statement variable on this side.
    pub(crate) fn var(self, v: Var) -> PairVar {
        match (v, self) {
            (Var::Loop(d), Side::Src) => PairVar::Src(d),
            (Var::Loop(d), Side::Dst) => PairVar::Dst(d),
            (v, _) => PairVar::Free(v),
        }
    }

    /// The step counter of this side's loop at depth `d`.
    pub(crate) fn step(self, d: u32) -> PairVar {
        match self {
            Side::Src => PairVar::SrcStep(d),
            Side::Dst => PairVar::DstStep(d),
        }
    }

    /// A statement form on this side, over pair variables.
    pub(crate) fn lift(self, aff: &Affine) -> Affine<PairVar> {
        aff.map(|v| self.var(v))
    }
}

/// The classic GCD test on one subscript pair: `Σ aᵢ·iᵢ − Σ bⱼ·jⱼ = c` has
/// integer solutions only if `gcd(aᵢ, bⱼ) | c`. Symbolic terms make the
/// test inapplicable for that dimension (returns `Maybe`).
pub fn gcd_test(src_sub: &Affine<PairVar>, dst_sub: &Affine<PairVar>) -> Verdict {
    let diff = src_sub.sub(dst_sub);
    let mut g: Coef = 0;
    for &(v, coef) in &diff.terms {
        if let PairVar::Free(_) = v {
            // Symbolic coefficient: cannot conclude.
            return Verdict::Maybe;
        }
        g = int::gcd(g, coef);
    }
    if g == 0 {
        return if diff.constant != 0 {
            Verdict::Independent
        } else {
            Verdict::Maybe
        };
    }
    if diff.constant % g != 0 {
        Verdict::Independent
    } else {
        Verdict::Maybe
    }
}

/// A Banerjee-style bounds test: evaluates the minimum and maximum of
/// `src_sub − dst_sub` over the (rectangular, constant-bounded hull of
/// the) iteration spaces; if 0 lies outside, the accesses are independent.
/// Loops with symbolic or non-rectangular bounds, and symbols, contribute
/// `(-∞, +∞)`. Each subscript is over its own statement's variables.
pub fn banerjee_test(
    src_sub: &Affine,
    dst_sub: &Affine,
    src: &StmtInfo,
    dst: &StmtInfo,
) -> Verdict {
    let mut lo: i128 = 0;
    let mut hi: i128 = 0;
    let mut unbounded = false;

    let mut contribute = |coef: i64, bounds: Option<(i64, i64)>| match bounds {
        Some((l, h)) => {
            if coef >= 0 {
                lo += coef as i128 * l as i128;
                hi += coef as i128 * h as i128;
            } else {
                lo += coef as i128 * h as i128;
                hi += coef as i128 * l as i128;
            }
        }
        None => unbounded = true,
    };

    let diff_const = src_sub.constant - dst_sub.constant;
    for &(v, coef) in &src_sub.terms {
        contribute(coef, const_bounds(src, v));
    }
    for &(v, coef) in &dst_sub.terms {
        contribute(-coef, const_bounds(dst, v));
    }
    if unbounded {
        return Verdict::Maybe;
    }
    if (lo + diff_const as i128) > 0 || (hi + diff_const as i128) < 0 {
        Verdict::Independent
    } else {
        Verdict::Maybe
    }
}

/// Constant rectangular bounds of a loop variable, when both bound pieces
/// are single constants.
fn const_bounds(stmt: &StmtInfo, v: Var) -> Option<(i64, i64)> {
    let Var::Loop(d) = v else { return None };
    let l = &stmt.loops[d as usize];
    let lows = l.lower.as_ref()?;
    let ups = l.upper.as_ref()?;
    if lows.len() != 1 || ups.len() != 1 || !lows[0].is_constant() || !ups[0].is_constant() {
        return None;
    }
    Some((lows[0].constant, ups[0].constant))
}

/// Runs both baseline tests on every affine dimension of an access pair.
/// `Independent` when any dimension is proven independent. A dimension
/// that names a written scalar is not affine here and is skipped.
pub fn baseline_pair_test(
    src: &StmtInfo,
    src_site: AccessSite,
    dst: &StmtInfo,
    dst_site: AccessSite,
) -> Verdict {
    let a = form_of(src, src_site);
    let b = form_of(dst, dst_site);
    if a.array != b.array {
        return Verdict::Independent;
    }
    for (sa, sb) in a.subs.iter().zip(&b.subs) {
        let (Some(sa), Some(sb)) = (sa, sb) else {
            continue;
        };
        if gcd_test(&Side::Src.lift(sa), &Side::Dst.lift(sb)) == Verdict::Independent {
            return Verdict::Independent;
        }
        if banerjee_test(sa, sb, src, dst) == Verdict::Independent {
            return Verdict::Independent;
        }
    }
    Verdict::Maybe
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiny::{analyze, Program};

    fn stmts(src: &str) -> tiny::ProgramInfo {
        analyze(&Program::parse(src).unwrap()).unwrap()
    }

    #[test]
    fn gcd_disproves_odd_even() {
        // a(2i) vs a(2i+1): gcd 2 does not divide 1.
        let info = stmts(
            "sym n;
             for i := 1 to n do a(2*i) := a(2*i+1); endfor",
        );
        let s = &info.stmts[0];
        let v = baseline_pair_test(s, AccessSite::Write, s, AccessSite::Read(0));
        assert_eq!(v, Verdict::Independent);
    }

    #[test]
    fn gcd_cannot_disprove_unit_stride() {
        let info = stmts("sym n; for i := 1 to n do a(i) := a(i-1); endfor");
        let s = &info.stmts[0];
        let v = baseline_pair_test(s, AccessSite::Write, s, AccessSite::Read(0));
        assert_eq!(v, Verdict::Maybe);
    }

    #[test]
    fn banerjee_disproves_disjoint_constant_ranges() {
        // a(i) for i in 1..10 vs a(i+100): difference range excludes 0.
        let info = stmts("for i := 1 to 10 do a(i) := a(i+100); endfor");
        let s = &info.stmts[0];
        let v = baseline_pair_test(s, AccessSite::Write, s, AccessSite::Read(0));
        assert_eq!(v, Verdict::Independent);
    }

    #[test]
    fn banerjee_gives_up_on_symbolic_bounds() {
        // The Omega test proves this independent (write 1..n, read
        // n+1..2n); the baseline cannot.
        let info = stmts(
            "sym n;
             for i := 1 to n do a(i) := 0; endfor
             for i := n+1 to 2*n do x := a(i); endfor",
        );
        let v = baseline_pair_test(
            info.stmt(1),
            AccessSite::Write,
            info.stmt(2),
            AccessSite::Read(0),
        );
        assert_eq!(v, Verdict::Maybe, "baseline is conservative here");
    }

    #[test]
    fn different_arrays_are_independent() {
        let info = stmts("for i := 1 to 10 do a(i) := b(i); endfor");
        let s = &info.stmts[0];
        let v = baseline_pair_test(s, AccessSite::Write, s, AccessSite::Read(0));
        assert_eq!(v, Verdict::Independent);
    }
}
