//! §4.5 quick pre-tests: reject obviously-independent access pairs
//! before constructing a full Omega [`Problem`](omega::Problem).
//!
//! These are the paper's "quick tests performed before the general
//! tests": the GCD divisibility test, a constant-bounds range
//! disjointness test, and a symbolic-bounds range test that additionally
//! exploits sign facts from the program's `assume` clauses (so `1..n` vs
//! `n+1..2n` is rejected without a solve). All run per subscript
//! dimension and are strictly *conservative* — a rejected pair has no
//! integer solution to its subscript equations, so the full Omega solve
//! would report it independent too (property-tested in
//! `crates/depend/tests`). Unlike [`baseline`](crate::baseline), which
//! exists to *compare* against the Omega test, this module is wired into
//! the analysis driver as a fast path, and reports *why* each pair was
//! skipped.

use omega::int;
use tiny::ast::{name_key, Affine};
use tiny::sema::StmtInfo;
use tiny::{RelOp, Relation};

use crate::baseline::{banerjee_test, gcd_test, Verdict};
use crate::dep::AccessSite;
use crate::pairs::access_of;

/// Why the pre-filter rejected a pair without consulting the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The GCD of the loop coefficients does not divide the constant
    /// difference in some dimension.
    Gcd,
    /// The constant-bounded ranges of some subscript dimension are
    /// disjoint.
    Range,
    /// The symbolically-bounded ranges of some subscript dimension are
    /// disjoint: substituting loop bounds of known sign (using `assume`
    /// facts) proves the subscript difference never zero, e.g. `1..n` vs
    /// `n+1..2n`.
    SymbolicRange,
}

/// Per-reason counters for pre-filter outcomes across an analysis.
///
/// The counts are of *unordered* same-array access pairs: the driver
/// tests a (write, read) pair once for its flow and its anti dependence,
/// and a write pair once for both output directions (a self pair is one
/// pair). A rejected pair has no common element whichever access is the
/// source, so neither direction is built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefilterStats {
    /// Pairs rejected by the GCD test.
    pub gcd: u64,
    /// Pairs rejected by constant-range disjointness.
    pub range: u64,
    /// Pairs rejected by symbolic-range disjointness.
    pub symbolic_range: u64,
    /// Pairs the pre-filter could not reject (passed on to the solver).
    pub passed: u64,
}

impl PrefilterStats {
    /// Total pairs the pre-filter examined.
    pub fn tested(&self) -> u64 {
        self.gcd + self.range + self.symbolic_range + self.passed
    }

    /// Total pairs rejected without building an Omega problem.
    pub fn skipped(&self) -> u64 {
        self.gcd + self.range + self.symbolic_range
    }

    /// Records one outcome.
    pub(crate) fn record(&mut self, outcome: Option<SkipReason>) {
        match outcome {
            Some(SkipReason::Gcd) => self.gcd += 1,
            Some(SkipReason::Range) => self.range += 1,
            Some(SkipReason::SymbolicRange) => self.symbolic_range += 1,
            None => self.passed += 1,
        }
    }

    /// Accumulates another counter set (parallel-worker merge).
    pub fn absorb(&mut self, other: PrefilterStats) {
        self.gcd += other.gcd;
        self.range += other.range;
        self.symbolic_range += other.symbolic_range;
        self.passed += other.passed;
    }
}

/// Runs the §4.5 quick tests on a same-array access pair. Returns the
/// reason the pair can be skipped, or `None` when a dependence may exist
/// and the full Omega analysis must run.
///
/// The caller guarantees both sites reference the same array; scalars
/// (no subscripts) always pass through. `assumptions` are the program's
/// `assume` clauses, which the symbolic range test may use as sign facts.
pub fn prefilter_pair(
    src: &StmtInfo,
    src_site: AccessSite,
    dst: &StmtInfo,
    dst_site: AccessSite,
    assumptions: &[Relation],
) -> Option<SkipReason> {
    let a = access_of(src, src_site);
    let b = access_of(dst, dst_site);
    debug_assert_eq!(name_key(&a.array), name_key(&b.array));

    // The two sides are distinct statement instances: rename the
    // destination's loop variables (as the exact analysis does) so
    // `a(i)` vs `a(i-1)` compares `i` against `i' - 1`.
    let mut loop_vars: Vec<String> = src.loops.iter().map(|l| name_key(&l.var)).collect();
    loop_vars.extend(dst.loops.iter().map(|l| format!("{}'", name_key(&l.var))));
    let rename = |aff: &Affine, stmt: &StmtInfo| -> Affine {
        let mut out = Affine::constant(aff.constant);
        for (name, coef) in &aff.terms {
            if stmt.loops.iter().any(|l| name_key(&l.var) == *name) {
                out.add_term(&format!("{name}'"), *coef);
            } else {
                out.add_term(name, *coef);
            }
        }
        out
    };

    // The GCD test additionally sees loop strides: substituting
    // `i = lo + step·k` (fresh counter `k`, written `i^`) folds a
    // `step 2` loop into even/odd coefficient arithmetic, which is how
    // the paper's quick test separates the red/black-style sweeps. The
    // counters are unbounded integers, so the substitution is a superset
    // of the real iteration set — still conservative.
    let mut gcd_vars = loop_vars.clone();
    gcd_vars.extend(loop_vars.iter().map(|v| format!("{v}^")));

    let facts = facts_of(assumptions);
    let is_scalar = |_: &str| true;
    for (sa, sb) in a.subs.iter().zip(&b.subs) {
        let (Some(sa), Some(sb)) = (
            tiny::sema::affine_of(sa, &is_scalar),
            tiny::sema::affine_of(sb, &is_scalar),
        ) else {
            continue;
        };
        let sb = rename(&sb, dst);
        let ga = fold_steps(&sa, src, false);
        let gb = fold_steps(&sb, dst, true);
        if gcd_test(&ga, &gb, &gcd_vars) == Verdict::Independent {
            return Some(SkipReason::Gcd);
        }
        if banerjee_test(&sa, &sb, src, dst) == Verdict::Independent {
            return Some(SkipReason::Range);
        }
        if symbolic_range_test(&sa, &sb, src, dst, &facts) == Verdict::Independent {
            return Some(SkipReason::SymbolicRange);
        }
    }
    None
}

/// Normalizes `assume` relations into affine facts `f >= 0`. Relations
/// whose sides are not affine (or `!=`, which is not convex) are dropped.
fn facts_of(assumptions: &[Relation]) -> Vec<Affine> {
    let is_scalar = |_: &str| true;
    let mut out = Vec::new();
    for rel in assumptions {
        let (Some(l), Some(r)) = (
            tiny::sema::affine_of(&rel.lhs, &is_scalar),
            tiny::sema::affine_of(&rel.rhs, &is_scalar),
        ) else {
            continue;
        };
        match rel.op {
            RelOp::Le => out.push(r.sub(&l)),
            RelOp::Lt => {
                let mut f = r.sub(&l);
                f.constant -= 1;
                out.push(f);
            }
            RelOp::Ge => out.push(l.sub(&r)),
            RelOp::Gt => {
                let mut f = l.sub(&r);
                f.constant -= 1;
                out.push(f);
            }
            RelOp::Eq => {
                out.push(l.sub(&r));
                out.push(r.sub(&l));
            }
            RelOp::Ne => {}
        }
    }
    out
}

/// The symbolic counterpart of [`banerjee_test`]: bounds the subscript
/// difference by substituting each loop variable with a *symbolic* bound
/// piece chosen by coefficient sign, then proves the resulting affine
/// estimate strictly positive (or strictly negative) everywhere using the
/// `assume` facts. Rejecting `1..n` vs `n+1..2n` needs no facts at all —
/// the `n` terms cancel to a constant.
fn symbolic_range_test(
    src_sub: &Affine,
    dst_sub: &Affine,
    src: &StmtInfo,
    dst: &StmtInfo,
    facts: &[Affine],
) -> Verdict {
    let diff = src_sub.sub(dst_sub);
    // Independence when `diff >= 1` everywhere or `diff <= -1` everywhere.
    if let Some(min) = extreme_of(&diff, false, src, dst) {
        let mut goal = min;
        goal.constant -= 1;
        if prove_nonneg(&goal, facts) {
            return Verdict::Independent;
        }
    }
    if let Some(max) = extreme_of(&diff, true, src, dst) {
        let mut goal = max.scale(-1);
        goal.constant -= 1;
        if prove_nonneg(&goal, facts) {
            return Verdict::Independent;
        }
    }
    Verdict::Maybe
}

/// A symbolic bound on `diff` over the two iteration spaces: every loop
/// variable (destination side primed) is replaced by one piece of its
/// loop bound — the upper piece when maximizing with a positive
/// coefficient, mirrored otherwise. A lower bound is the max of its
/// pieces and an upper the min, so any single piece bounds the variable
/// from the right side. `None` when some variable has no usable
/// loop-variable-free piece (triangular nests give up — conservative).
fn extreme_of(diff: &Affine, maximize: bool, src: &StmtInfo, dst: &StmtInfo) -> Option<Affine> {
    let is_loop_var = |name: &str| {
        let base = name.strip_suffix('\'').unwrap_or(name);
        src.loops.iter().any(|l| name_key(&l.var) == base)
            || dst.loops.iter().any(|l| name_key(&l.var) == base)
    };
    let mut out = Affine::constant(diff.constant);
    for (name, &coef) in &diff.terms {
        let (stmt, base) = match name.strip_suffix('\'') {
            Some(base) => (dst, base),
            None => {
                if src.loops.iter().any(|l| name_key(&l.var) == *name) {
                    (src, name.as_str())
                } else if dst.loops.iter().any(|l| name_key(&l.var) == *name) {
                    // Only the destination loops bind this unprimed name:
                    // its value here is ambiguous, give up.
                    return None;
                } else {
                    // Symbolic constant: contributes itself.
                    out.add_term(name, coef);
                    continue;
                }
            }
        };
        let l = stmt.loops.iter().find(|l| name_key(&l.var) == base)?;
        let want_upper = (coef > 0) == maximize;
        let pieces = if want_upper {
            l.upper.as_ref()?
        } else {
            l.lower.as_ref()?
        };
        let piece = pieces
            .iter()
            .find(|p| p.terms.keys().all(|t| !is_loop_var(t)))?;
        out.constant = out.constant.checked_add(coef.checked_mul(piece.constant)?)?;
        for (n2, &c2) in &piece.terms {
            out.add_term(n2, coef.checked_mul(c2)?);
        }
    }
    Some(out)
}

/// Proves `expr >= 0` under `facts` (each an affine `f >= 0`): every
/// variable of `expr` is bounded from the needed side through a
/// single-variable fact, and the bounds accumulate in 128-bit arithmetic.
/// Purely sufficient — `false` means "not provable this way".
fn prove_nonneg(expr: &Affine, facts: &[Affine]) -> bool {
    let mut total = i128::from(expr.constant);
    for (name, &coef) in &expr.terms {
        // The best provable lower bound on this term's contribution.
        let mut best: Option<i128> = None;
        for f in facts {
            if f.terms.len() != 1 {
                continue;
            }
            let (v, &a) = f.terms.iter().next().expect("len checked");
            if v != name {
                continue;
            }
            // Fact `a·v + k >= 0`.
            let contrib = if coef > 0 && a > 0 {
                // v >= ceil(-k/a), a lower bound — usable for coef > 0.
                Some(i128::from(coef) * i128::from(int::ceil_div(-f.constant, a)))
            } else if coef < 0 && a < 0 {
                // v <= floor(k/-a), an upper bound — usable for coef < 0.
                Some(i128::from(coef) * i128::from(int::floor_div(f.constant, -a)))
            } else {
                None
            };
            if let Some(c) = contrib {
                best = Some(best.map_or(c, |b| b.max(c)));
            }
        }
        match best {
            Some(c) => total += c,
            None => return false,
        }
    }
    total >= 0
}

/// Rewrites each step-`s` loop variable `i` (`s > 1`, single affine lower
/// bound `lo`) as `lo + s·i^` over a fresh counter `i^`, so the stride
/// reaches the GCD test's coefficients. `renamed` marks the destination
/// side, whose loop variables (and any loop variables appearing in `lo`)
/// carry a `'` suffix. Variables the rewrite cannot handle exactly pass
/// through unchanged — the plain variable is a superset of the strided
/// one, so the result stays conservative.
fn fold_steps(aff: &Affine, stmt: &StmtInfo, renamed: bool) -> Affine {
    let suffix = if renamed { "'" } else { "" };
    let mut out = Affine::constant(aff.constant);
    for (name, coef) in &aff.terms {
        let base = name.strip_suffix('\'').unwrap_or(name);
        let ctx = (base != name.as_str()) == renamed;
        let l = stmt
            .loops
            .iter()
            .find(|l| ctx && name_key(&l.var) == base && l.step > 1);
        let lows = l.and_then(|l| l.lower.as_deref());
        match (l, lows) {
            (Some(l), Some([lo])) => {
                out.add_term(&format!("{name}^"), coef * l.step);
                out.constant += coef * lo.constant;
                for (n2, c2) in &lo.terms {
                    let primed = stmt.loops.iter().any(|l| name_key(&l.var) == *n2);
                    if primed {
                        out.add_term(&format!("{n2}{suffix}"), coef * c2);
                    } else {
                        out.add_term(n2, coef * c2);
                    }
                }
            }
            _ => out.add_term(name, *coef),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiny::{analyze, Program};

    fn stmts(src: &str) -> tiny::ProgramInfo {
        analyze(&Program::parse(src).unwrap()).unwrap()
    }

    #[test]
    fn rejects_odd_even_strides_by_gcd() {
        let info = stmts(
            "sym n;
             for i := 1 to n do a(2*i) := a(2*i+1); endfor",
        );
        let s = &info.stmts[0];
        assert_eq!(
            prefilter_pair(s, AccessSite::Write, s, AccessSite::Read(0), &info.assumptions),
            Some(SkipReason::Gcd)
        );
    }

    #[test]
    fn rejects_odd_even_step_loops_by_gcd() {
        // The stride lives in the loop step, not the subscript: the write
        // sweeps odd indices, the read even ones.
        let info = stmts(
            "sym n;
             for i := 1 to n step 2 do a(i) := 0; endfor
             for i := 2 to n step 2 do x := a(i); endfor",
        );
        assert_eq!(
            prefilter_pair(
                info.stmt(1),
                AccessSite::Write,
                info.stmt(2),
                AccessSite::Read(0),
                &info.assumptions
            ),
            Some(SkipReason::Gcd)
        );
        // Same parity on both sides: may well alias; must pass through.
        assert_eq!(
            prefilter_pair(
                info.stmt(1),
                AccessSite::Write,
                info.stmt(1),
                AccessSite::Write,
                &info.assumptions
            ),
            None
        );
    }

    #[test]
    fn rejects_disjoint_constant_ranges() {
        let info = stmts("for i := 1 to 10 do a(i) := a(i+100); endfor");
        let s = &info.stmts[0];
        assert_eq!(
            prefilter_pair(s, AccessSite::Write, s, AccessSite::Read(0), &info.assumptions),
            Some(SkipReason::Range)
        );
    }

    #[test]
    fn passes_possible_dependences_through() {
        let info = stmts("sym n; for i := 1 to n do a(i) := a(i-1); endfor");
        let s = &info.stmts[0];
        assert_eq!(
            prefilter_pair(s, AccessSite::Write, s, AccessSite::Read(0), &info.assumptions),
            None
        );
    }

    #[test]
    fn rejects_disjoint_symbolic_ranges() {
        // Write 1..n, read n+1..2n: the `n` terms cancel, so the maximum
        // of the subscript difference is the constant -1 — no facts
        // needed.
        let info = stmts(
            "sym n;
             for i := 1 to n do a(i) := 0; endfor
             for i := n+1 to 2*n do x := a(i); endfor",
        );
        assert_eq!(
            prefilter_pair(
                info.stmt(1),
                AccessSite::Write,
                info.stmt(2),
                AccessSite::Read(0),
                &info.assumptions
            ),
            Some(SkipReason::SymbolicRange)
        );
    }

    #[test]
    fn symbolic_rejection_uses_assume_facts() {
        // The residual estimate is `m - n`, provable only through the
        // assumed per-variable bounds.
        let with_facts = stmts(
            "sym n, m;
             assume n <= 100;
             assume m >= 100;
             for i := 1 to n do a(i) := 0; endfor
             for i := 1 to n do x := a(i+m); endfor",
        );
        assert_eq!(
            prefilter_pair(
                with_facts.stmt(1),
                AccessSite::Write,
                with_facts.stmt(2),
                AccessSite::Read(0),
                &with_facts.assumptions
            ),
            Some(SkipReason::SymbolicRange)
        );
        // Without the assumptions nothing pins the sign of `m - n`.
        let without = stmts(
            "sym n, m;
             for i := 1 to n do a(i) := 0; endfor
             for i := 1 to n do x := a(i+m); endfor",
        );
        assert_eq!(
            prefilter_pair(
                without.stmt(1),
                AccessSite::Write,
                without.stmt(2),
                AccessSite::Read(0),
                &without.assumptions
            ),
            None
        );
    }

    #[test]
    fn triangular_bounds_give_up() {
        // The inner bound references the outer loop variable: no usable
        // loop-variable-free piece, so the symbolic test must pass the
        // pair through.
        let info = stmts(
            "sym n;
             for i := 1 to n do
               for j := i to n do a(j) := a(j-1); endfor
             endfor",
        );
        let s = &info.stmts[0];
        assert_eq!(
            prefilter_pair(s, AccessSite::Write, s, AccessSite::Read(0), &info.assumptions),
            None
        );
    }

    #[test]
    fn stats_bookkeeping() {
        let mut s = PrefilterStats::default();
        s.record(Some(SkipReason::Gcd));
        s.record(Some(SkipReason::Range));
        s.record(Some(SkipReason::SymbolicRange));
        s.record(None);
        assert_eq!(s.tested(), 4);
        assert_eq!(s.skipped(), 3);
        let mut t = PrefilterStats::default();
        t.absorb(s);
        t.absorb(s);
        assert_eq!(t.tested(), 8);
        assert_eq!(t.symbolic_range, 2);
    }
}
