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
use tiny::sema::{Affine, Assumptions, StmtInfo, Var};

use crate::baseline::{banerjee_test, gcd_test, PairVar, Side, Verdict};
use crate::dep::AccessSite;
use crate::pairs::form_of;

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
/// lowered `assume` clauses, whose facts the symbolic range test may use
/// as sign facts.
pub fn prefilter_pair(
    src: &StmtInfo,
    src_site: AccessSite,
    dst: &StmtInfo,
    dst_site: AccessSite,
    assumptions: &Assumptions,
) -> Option<SkipReason> {
    let a = form_of(src, src_site);
    let b = form_of(dst, dst_site);
    debug_assert_eq!(a.array, b.array);

    // The two sides are distinct statement instances, each with its own
    // loop variables ([`PairVar`]), so `a(i)` vs `a(i-1)` compares `i`
    // against `i' - 1`. Symbols are free unknowns shared by both. A
    // dimension that names a written scalar has no form and is skipped:
    // the scalar may change between the two accesses.
    for (sa, sb) in a.subs.iter().zip(&b.subs) {
        let (Some(sa), Some(sb)) = (sa, sb) else {
            continue;
        };
        let ga = fold_steps(sa, src, Side::Src);
        let gb = fold_steps(sb, dst, Side::Dst);
        if gcd_test(&ga, &gb) == Verdict::Independent {
            return Some(SkipReason::Gcd);
        }
        if banerjee_test(sa, sb, src, dst) == Verdict::Independent {
            return Some(SkipReason::Range);
        }
        if symbolic_range_test(sa, sb, src, dst, &assumptions.facts) == Verdict::Independent {
            return Some(SkipReason::SymbolicRange);
        }
    }
    None
}

/// The symbolic counterpart of [`banerjee_test`]: bounds the subscript
/// difference by substituting each loop variable with a *symbolic* bound
/// piece chosen by coefficient sign, then proves the resulting affine
/// estimate strictly positive (or strictly negative) everywhere using the
/// `assume` facts (each an affine `f >= 0`). Rejecting `1..n` vs
/// `n+1..2n` needs no facts at all — the `n` terms cancel to a constant.
fn symbolic_range_test(
    src_sub: &Affine,
    dst_sub: &Affine,
    src: &StmtInfo,
    dst: &StmtInfo,
    facts: &[Affine],
) -> Verdict {
    let diff = Side::Src.lift(src_sub).sub(&Side::Dst.lift(dst_sub));
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
/// variable is replaced by one piece of its loop bound — the upper piece
/// when maximizing with a positive coefficient, mirrored otherwise. A
/// lower bound is the max of its pieces and an upper the min, so any
/// single piece bounds the variable from the right side. `None` when
/// some variable has no usable loop-variable-free piece (triangular nests
/// give up — conservative).
fn extreme_of(
    diff: &Affine<PairVar>,
    maximize: bool,
    src: &StmtInfo,
    dst: &StmtInfo,
) -> Option<Affine> {
    let mut out = Affine::constant(diff.constant);
    for &(v, coef) in &diff.terms {
        let (stmt, d) = match v {
            // Symbolic constant: contributes itself.
            PairVar::Free(v) => {
                out.add_term(v, coef);
                continue;
            }
            PairVar::Src(d) => (src, d),
            PairVar::Dst(d) => (dst, d),
            // Step counters appear only in the GCD test's folded forms.
            PairVar::SrcStep(_) | PairVar::DstStep(_) => return None,
        };
        let l = &stmt.loops[d as usize];
        let want_upper = (coef > 0) == maximize;
        let pieces = if want_upper {
            l.upper.as_ref()?
        } else {
            l.lower.as_ref()?
        };
        let piece = pieces
            .iter()
            .find(|p| p.terms.iter().all(|&(t, _)| !matches!(t, Var::Loop(_))))?;
        out.constant = out
            .constant
            .checked_add(coef.checked_mul(piece.constant)?)?;
        for &(t, c) in &piece.terms {
            out.add_term(t, coef.checked_mul(c)?);
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
    for &(v, coef) in &expr.terms {
        // The best provable lower bound on this term's contribution.
        let mut best: Option<i128> = None;
        for f in facts {
            let [(fv, a)] = f.terms[..] else {
                continue;
            };
            if fv != v {
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
/// bound `lo`) as `lo + s·k` over a fresh counter `k`
/// ([`PairVar::SrcStep`]/[`PairVar::DstStep`]), so the stride reaches
/// the GCD test's coefficients: a `step 2` loop folds into even/odd
/// coefficient arithmetic, which is how the paper's quick test separates
/// the red/black-style sweeps. The counters are unbounded integers, so
/// the substitution is a superset of the real iteration set — still
/// conservative, like the variables the rewrite cannot handle exactly,
/// which pass through unchanged.
fn fold_steps(aff: &Affine, stmt: &StmtInfo, side: Side) -> Affine<PairVar> {
    let mut out = Affine::constant(aff.constant);
    for &(v, coef) in &aff.terms {
        let stepped = match v {
            Var::Loop(d) => {
                let l = &stmt.loops[d as usize];
                match l.lower.as_deref() {
                    Some([lo]) if l.step > 1 => Some((d, l.step, lo)),
                    _ => None,
                }
            }
            _ => None,
        };
        match stepped {
            Some((d, step, lo)) => {
                out.add_term(side.step(d), coef * step);
                out.constant += coef * lo.constant;
                for &(t, c) in &lo.terms {
                    out.add_term(side.var(t), coef * c);
                }
            }
            None => out.add_term(side.var(v), coef),
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
            prefilter_pair(
                s,
                AccessSite::Write,
                s,
                AccessSite::Read(0),
                &info.assumptions
            ),
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
            prefilter_pair(
                s,
                AccessSite::Write,
                s,
                AccessSite::Read(0),
                &info.assumptions
            ),
            Some(SkipReason::Range)
        );
    }

    #[test]
    fn passes_possible_dependences_through() {
        let info = stmts("sym n; for i := 1 to n do a(i) := a(i-1); endfor");
        let s = &info.stmts[0];
        assert_eq!(
            prefilter_pair(
                s,
                AccessSite::Write,
                s,
                AccessSite::Read(0),
                &info.assumptions
            ),
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
            prefilter_pair(
                s,
                AccessSite::Write,
                s,
                AccessSite::Read(0),
                &info.assumptions
            ),
            None
        );
    }

    #[test]
    fn names_match_whatever_their_case() {
        // `A(2*I)` and `a(2*i+1)` are one array and one loop variable.
        let info = stmts(
            "sym N;
             for I := 1 to N do A(2*I) := a(2*i+1); endfor",
        );
        let s = &info.stmts[0];
        assert_eq!(
            prefilter_pair(
                s,
                AccessSite::Write,
                s,
                AccessSite::Read(0),
                &info.assumptions
            ),
            Some(SkipReason::Gcd)
        );
    }

    #[test]
    fn a_written_scalar_in_a_subscript_leaves_the_pair_to_the_solver() {
        // `k` is neither a loop variable nor a symbol, and it may change
        // between the two accesses: the quick tests skip its dimension.
        // As one unknown of both accesses, `k` vs `k + 1` would differ by
        // 1 and the GCD test would drop the anti dependence of the second
        // program, which occurs on every iteration.
        for src in [
            "sym n;
             for i := 1 to n do k := k + 1; a(2*i) := a(2*k+1); endfor",
            "for i := 1 to 10 do k := k + 1; a(k) := 0; x := a(k + 1); endfor",
        ] {
            let info = stmts(src);
            let write = info.stmts.iter().find(|s| s.write.array == "a").unwrap();
            let (reader, read) = info
                .stmts
                .iter()
                .find_map(|s| Some((s, s.reads.iter().position(|r| r.array == "a")?)))
                .unwrap();
            assert_eq!(
                prefilter_pair(
                    reader,
                    AccessSite::Read(read),
                    write,
                    AccessSite::Write,
                    &info.assumptions
                ),
                None,
                "{src}"
            );
        }
    }

    #[test]
    fn step_loops_fold_a_lower_bound_over_an_outer_loop() {
        // `j` runs i, i+2, …, so `j - i` is even on both sides and
        // `j - i + 1` odd: the fold substitutes the outer variable too.
        let info = stmts(
            "sym n;
             for i := 1 to n do
               for j := i to n step 2 do a(j - i) := a(j - i + 1); endfor
             endfor",
        );
        let s = &info.stmts[0];
        assert_eq!(
            prefilter_pair(
                s,
                AccessSite::Write,
                s,
                AccessSite::Read(0),
                &info.assumptions
            ),
            Some(SkipReason::Gcd)
        );
    }

    #[test]
    fn min_and_max_bounds_use_a_loop_free_piece() {
        // The write's upper bound is min(n, m): the piece `n` bounds it
        // from above, so 1..min(n,m) and n+1..2n are disjoint; the
        // read's max(n+1, 0) lower bound works the same way.
        let info = stmts(
            "sym n, m;
             for i := 1 to min(n, m) do a(i) := 0; endfor
             for i := max(n+1, 0) to 2*n do x := a(i); endfor",
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
    fn an_equality_assumption_bounds_from_both_sides() {
        // `m = 100` is two facts: `m >= 100` separates a(i) from
        // a(i + m), and `m <= 100` separates a(i + 200) from a(i + m).
        let info = stmts(
            "sym n, m;
             assume n <= 100;
             assume m = 100;
             for i := 1 to n do a(i) := 0; b(i + 200) := 0; endfor
             for i := 1 to n do x := a(i + m); y := b(i + m); endfor",
        );
        for (w, r) in [(1, 3), (2, 4)] {
            assert_eq!(
                prefilter_pair(
                    info.stmt(w),
                    AccessSite::Write,
                    info.stmt(r),
                    AccessSite::Read(0),
                    &info.assumptions
                ),
                Some(SkipReason::SymbolicRange),
                "write {w}, read {r}"
            );
        }
        assert_eq!(info.assumptions.facts.len(), 3);
    }

    #[test]
    fn a_symbol_is_not_a_loop_variable_of_the_same_name() {
        // After the loop, `i` is a free symbol: `a(i + 1)` can read any
        // element the loop wrote, so the pair must reach the solver.
        let info = stmts(
            "for i := 1 to 10 do a(i) := 0; endfor
             x := a(i + 1);",
        );
        assert_eq!(
            prefilter_pair(
                info.stmt(1),
                AccessSite::Write,
                info.stmt(2),
                AccessSite::Read(0),
                &info.assumptions
            ),
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
