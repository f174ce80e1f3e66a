//! Dependence distance and direction vectors (§2.1).

use std::fmt;

use omega::{Budget, LinExpr, Problem, ProblemLike, VarId, VarKind};

use crate::error::Result;

/// The distance information for one loop: an integer interval, possibly
/// half-open.
///
/// Rendering matches the paper's notation:
/// `1` (exact), `+` (≥1), `0+` (≥0), `-` (≤−1), `0:1` (range), `*`
/// (unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirEntry {
    /// Smallest possible distance, if bounded below.
    pub lo: Option<i64>,
    /// Largest possible distance, if bounded above.
    pub hi: Option<i64>,
}

impl DirEntry {
    /// The completely unknown entry `*`.
    pub fn star() -> DirEntry {
        DirEntry { lo: None, hi: None }
    }

    /// An exact distance.
    pub fn exact(d: i64) -> DirEntry {
        DirEntry {
            lo: Some(d),
            hi: Some(d),
        }
    }

    /// Whether the entry pins a single distance.
    pub fn is_exact(&self) -> bool {
        self.lo.is_some() && self.lo == self.hi
    }

    /// Whether distance 0 is possible.
    pub fn contains_zero(&self) -> bool {
        self.lo.unwrap_or(i64::MIN) <= 0 && self.hi.unwrap_or(i64::MAX) >= 0
    }

    /// The union (interval hull) of two entries.
    pub fn hull(&self, other: &DirEntry) -> DirEntry {
        DirEntry {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.min(b)),
                _ => None,
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }
}

impl fmt::Display for DirEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.lo, self.hi) {
            (Some(a), Some(b)) if a == b => write!(f, "{a}"),
            (Some(a), Some(b)) => write!(f, "{a}:{b}"),
            (Some(1), _) => write!(f, "+"),
            (Some(0), _) => write!(f, "0+"),
            (Some(a), _) if a > 1 => write!(f, "{a}+"),
            (_, Some(-1)) => write!(f, "-"),
            (_, Some(0)) => write!(f, "0-"),
            _ => write!(f, "*"),
        }
    }
}

/// A per-common-loop summary of the possible dependence distances.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DirectionVector(pub Vec<DirEntry>);

impl DirectionVector {
    /// Entry-wise interval hull (used to merge carrier cases for display).
    pub fn hull(&self, other: &DirectionVector) -> DirectionVector {
        debug_assert_eq!(self.0.len(), other.0.len());
        DirectionVector(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| a.hull(b))
                .collect(),
        )
    }

    /// Number of loops summarized.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector is empty (no common loops).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for DirectionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

/// Reads syntactic bounds of a single variable from a (projected)
/// problem: the tightest `lo <= v <= hi` implied by constraints mentioning
/// `v` alone. Equalities `v = c` pin both ends.
fn syntactic_bounds(p: &Problem, v: VarId) -> DirEntry {
    let mut entry = direct_bounds(p, v);
    // Stride pattern left by projection: `a·v + g·w + k = 0` with
    // `|a| = 1` and `w` an (existential) variable with direct bounds —
    // e.g. `d = 2α, 1 <= α <= 5` gives d ∈ [2, 10].
    for c in p.eqs() {
        let a = c.expr().coef(v);
        if a.abs() != 1 || c.expr().num_terms() != 2 {
            continue;
        }
        let Some((w, g)) = c.expr().terms().find(|&(u, _)| u != v) else {
            continue;
        };
        let wb = direct_bounds(p, w);
        // v = -(g·w + k)/a = -a·(g·w + k) since a = ±1.
        let k = c.expr().constant();
        let m = -a * g;
        let ends = [wb.lo.map(|x| m * x - a * k), wb.hi.map(|x| m * x - a * k)];
        let (lo, hi) = if m >= 0 {
            (ends[0], ends[1])
        } else {
            (ends[1], ends[0])
        };
        let derived = DirEntry { lo, hi };
        // Intersect with whatever we already know.
        entry = DirEntry {
            lo: match (entry.lo, derived.lo) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (x, y) => x.or(y),
            },
            hi: match (entry.hi, derived.hi) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (x, y) => x.or(y),
            },
        };
    }
    entry
}

/// Bounds implied by constraints mentioning `v` alone.
fn direct_bounds(p: &Problem, v: VarId) -> DirEntry {
    let mut entry = DirEntry::star();
    for c in p.eqs() {
        let coef = c.expr().coef(v);
        if coef != 0 && c.expr().num_terms() == 1 {
            // coef·v + k = 0 → v = -k/coef when integral.
            let k = c.expr().constant();
            if k % coef == 0 {
                let val = -k / coef;
                entry = DirEntry::exact(val);
            }
        }
    }
    for c in p.geqs() {
        let coef = c.expr().coef(v);
        if coef == 0 || c.expr().num_terms() != 1 {
            continue;
        }
        let k = c.expr().constant();
        if coef > 0 {
            // coef·v + k >= 0 → v >= ceil(-k / coef)
            let b = omega::int::ceil_div(-k, coef);
            entry.lo = Some(entry.lo.map_or(b, |x| x.max(b)));
        } else {
            // coef·v + k >= 0 → v <= floor(k / -coef)
            let b = omega::int::floor_div(k, -coef);
            entry.hi = Some(entry.hi.map_or(b, |x| x.min(b)));
        }
    }
    entry
}

/// Computes the possible values of the affine quantity `expr` under the
/// constraints of `p`, as an interval (by projecting onto a fresh
/// variable). Returns `None` when `p` is unsatisfiable.
///
/// Generic over [`ProblemLike`], so a probe against a
/// [`DeltaProblem`](omega::DeltaProblem) stays on its pair's delta-keyed
/// cache path instead of re-canonicalizing the shared base.
///
/// # Errors
///
/// Propagates solver errors.
pub fn range_of<P: ProblemLike>(
    p: &P,
    expr: &LinExpr,
    budget: &mut Budget,
) -> Result<Option<DirEntry>> {
    let mut q = p.clone();
    let d = q.add_var(VarKind::Input);
    let mut eq = LinExpr::var(d);
    eq.add_scaled(-1, expr)?;
    q.add_eq(eq);
    let proj = q.project_with(&[d], budget)?;
    let mut any = false;
    let mut entry: Option<DirEntry> = None;
    for piece in proj.problems() {
        if !piece.is_satisfiable_with(budget)? {
            continue;
        }
        any = true;
        let b = syntactic_bounds(piece, d);
        entry = Some(match entry {
            None => b,
            Some(e) => e.hull(&b),
        });
    }
    if !any {
        return Ok(None);
    }
    Ok(entry)
}

/// Computes the distance summary `(Δ₁, …, Δ_c)` of a dependence problem:
/// for each common loop `l`, the interval of `dst_l − src_l`.
/// Returns `None` when the problem is unsatisfiable (no dependence).
///
/// `fixed` has one entry per common loop: `Some(d)` when the query's own
/// equalities already pin `dst_l − src_l = d` (the levels before an order
/// case's carrier, every level of a loop-independent case, a refined
/// exact prefix). Those levels read as `exact(d)` without a projection —
/// the answer [`range_of`] would give on a satisfiable problem. The other
/// levels run [`range_of`], which also establishes satisfiability; when
/// every level is pinned (or there are no common loops), one
/// satisfiability query does.
///
/// # Errors
///
/// Propagates solver errors.
pub fn distance_summary<P: ProblemLike>(
    p: &P,
    src_iters: &[VarId],
    dst_iters: &[VarId],
    fixed: &[Option<i64>],
    budget: &mut Budget,
) -> Result<Option<DirectionVector>> {
    let mut entries = Vec::with_capacity(fixed.len());
    for (l, pin) in fixed.iter().enumerate() {
        if let Some(d) = *pin {
            entries.push(DirEntry::exact(d));
            continue;
        }
        let mut expr = LinExpr::var(dst_iters[l]);
        expr.add_coef(src_iters[l], -1)?;
        match range_of(p, &expr, budget)? {
            None => return Ok(None),
            Some(e) => entries.push(e),
        }
    }
    if fixed.iter().all(Option::is_some) && !p.is_satisfiable_with(budget)? {
        return Ok(None);
    }
    Ok(Some(DirectionVector(entries)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega::{Problem, VarKind};

    #[test]
    fn dir_entry_rendering() {
        assert_eq!(DirEntry::exact(0).to_string(), "0");
        assert_eq!(DirEntry::exact(1).to_string(), "1");
        assert_eq!(DirEntry::exact(-2).to_string(), "-2");
        assert_eq!(
            DirEntry {
                lo: Some(1),
                hi: None
            }
            .to_string(),
            "+"
        );
        assert_eq!(
            DirEntry {
                lo: Some(0),
                hi: None
            }
            .to_string(),
            "0+"
        );
        assert_eq!(
            DirEntry {
                lo: None,
                hi: Some(-1)
            }
            .to_string(),
            "-"
        );
        assert_eq!(
            DirEntry {
                lo: Some(0),
                hi: Some(1)
            }
            .to_string(),
            "0:1"
        );
        assert_eq!(DirEntry::star().to_string(), "*");
    }

    #[test]
    fn hull_merges_intervals() {
        let a = DirEntry::exact(1);
        let b = DirEntry {
            lo: Some(3),
            hi: Some(5),
        };
        let h = a.hull(&b);
        assert_eq!(
            h,
            DirEntry {
                lo: Some(1),
                hi: Some(5)
            }
        );
        let c = DirEntry {
            lo: None,
            hi: Some(2),
        };
        assert_eq!(a.hull(&c).lo, None);
    }

    #[test]
    fn vector_rendering() {
        let v = DirectionVector(vec![
            DirEntry::exact(0),
            DirEntry {
                lo: Some(1),
                hi: None,
            },
            DirEntry::star(),
        ]);
        assert_eq!(v.to_string(), "(0,+,*)");
    }

    #[test]
    fn range_of_simple_interval() {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        let y = p.add_var(VarKind::Input);
        p.add_geq(LinExpr::var(x).plus_const(-1)); // x >= 1
        p.add_geq(LinExpr::term(-1, x).plus_const(5)); // x <= 5
        p.add_eq(LinExpr::var(y).plus_term(-2, x)); // y = 2x
        let mut b = Budget::default();
        let r = range_of(&p, &LinExpr::var(y), &mut b).unwrap().unwrap();
        assert_eq!(
            r,
            DirEntry {
                lo: Some(2),
                hi: Some(10)
            }
        );
    }

    #[test]
    fn range_of_unsat_is_none() {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        p.add_geq(LinExpr::var(x).plus_const(-5));
        p.add_geq(LinExpr::term(-1, x).plus_const(1));
        let mut b = Budget::default();
        assert!(range_of(&p, &LinExpr::var(x), &mut b).unwrap().is_none());
    }

    #[test]
    fn range_unbounded_side() {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        p.add_geq(LinExpr::var(x).plus_const(-3)); // x >= 3
        let mut b = Budget::default();
        let r = range_of(&p, &LinExpr::var(x), &mut b).unwrap().unwrap();
        assert_eq!(
            r,
            DirEntry {
                lo: Some(3),
                hi: None
            }
        );
    }

    #[test]
    fn distance_summary_coupled() {
        // i2 - i1 = j2 - j1 (coupled), with dst - src >= 1 on loop 1.
        let mut p = Problem::new();
        let i1 = p.add_var(VarKind::Input);
        let i2 = p.add_var(VarKind::Input);
        let j1 = p.add_var(VarKind::Input);
        let j2 = p.add_var(VarKind::Input);
        for v in [i1, i2, j1, j2] {
            p.add_geq(LinExpr::var(v).plus_const(-1));
            p.add_geq(LinExpr::term(-1, v).plus_const(10));
        }
        // j1 - i1 = j2 - i2 and j1 > i1.
        let mut e = LinExpr::var(j1);
        e.add_coef(i1, -1).unwrap();
        e.add_coef(j2, -1).unwrap();
        e.add_coef(i2, 1).unwrap();
        p.add_eq(e);
        p.constrain_lt(&LinExpr::var(i1), &LinExpr::var(j1))
            .unwrap();
        let mut b = Budget::default();
        let v = distance_summary(&p, &[i1, i2], &[j1, j2], &[None, None], &mut b)
            .unwrap()
            .unwrap();
        assert_eq!(v.0[0].lo, Some(1));
        assert_eq!(v.0[1].lo, Some(1));
        assert_eq!(v.to_string(), "(1:9,1:9)");
    }
}

/// Enumerates the exact set of distance vectors of a dependence problem,
/// level by level (each level's range conditioned on the fixed prefix).
/// Returns `None` when some level is unbounded (symbolic loop bounds) or
/// more than `limit` vectors exist.
///
/// # Errors
///
/// Propagates solver errors.
pub fn enumerate_distances(
    p: &Problem,
    src_iters: &[VarId],
    dst_iters: &[VarId],
    common: usize,
    limit: usize,
    budget: &mut Budget,
) -> Result<Option<Vec<Vec<i64>>>> {
    let mut out = Vec::new();
    let mut prefix = Vec::new();
    if !enum_rec(
        p,
        src_iters,
        dst_iters,
        common,
        limit,
        budget,
        &mut prefix,
        &mut out,
    )? {
        return Ok(None);
    }
    Ok(Some(out))
}

#[allow(clippy::too_many_arguments)]
fn enum_rec(
    p: &Problem,
    src_iters: &[VarId],
    dst_iters: &[VarId],
    common: usize,
    limit: usize,
    budget: &mut Budget,
    prefix: &mut Vec<i64>,
    out: &mut Vec<Vec<i64>>,
) -> Result<bool> {
    let level = prefix.len();
    if level == common {
        if out.len() >= limit {
            return Ok(false);
        }
        out.push(prefix.clone());
        return Ok(true);
    }
    // Constrain the fixed prefix, then range the next level.
    let mut q = p.clone();
    for (t, &v) in prefix.iter().enumerate() {
        let mut e = LinExpr::var(dst_iters[t]);
        e.add_coef(src_iters[t], -1)?;
        e.add_constant(-v)?;
        q.add_eq(e);
    }
    let mut d = LinExpr::var(dst_iters[level]);
    d.add_coef(src_iters[level], -1)?;
    let Some(entry) = range_of(&q, &d, budget)? else {
        return Ok(true); // prefix infeasible: nothing here
    };
    let (Some(lo), Some(hi)) = (entry.lo, entry.hi) else {
        return Ok(false); // unbounded level
    };
    if (hi - lo) as usize >= limit {
        return Ok(false);
    }
    for v in lo..=hi {
        prefix.push(v);
        let ok = enum_rec(p, src_iters, dst_iters, common, limit, budget, prefix, out)?;
        prefix.pop();
        if !ok {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod enum_tests {
    use crate::dep::{AccessSite, DepKind};
    use crate::pairs::build_dependence;
    use omega::Budget;
    use tiny::{analyze, Program};

    fn flow(src: &str) -> crate::dep::Dependence {
        let info = analyze(&Program::parse(src).unwrap()).unwrap();
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
        .unwrap()
    }

    #[test]
    fn constant_bounds_enumerate_exactly() {
        // Example 6 shape with constant bounds: distances (a, a) for
        // a in 1..=3 (L1 from 1..4).
        let d = flow(
            "for L1 := 1 to 4 do
               for L2 := 2 to 5 do
                 a(L1-L2) := a(L1-L2);
               endfor
             endfor",
        );
        let mut b = Budget::default();
        let dists = d.enumerate_distances(64, &mut b).unwrap().unwrap();
        assert_eq!(dists, vec![vec![1, 1], vec![2, 2], vec![3, 3]]);
    }

    #[test]
    fn unit_recurrence_distances() {
        let d = flow("for i := 2 to 10 do a(i) := a(i-1); endfor");
        let mut b = Budget::default();
        let dists = d.enumerate_distances(16, &mut b).unwrap().unwrap();
        assert_eq!(dists, vec![vec![1]]);
    }

    #[test]
    fn symbolic_bounds_are_unbounded() {
        let d = flow("sym n; for i := 2 to n do a(i) := a(i-1); endfor");
        // Distance is exactly 1, so even symbolic bounds enumerate...
        let mut b = Budget::default();
        let dists = d.enumerate_distances(16, &mut b).unwrap();
        assert_eq!(dists, Some(vec![vec![1]]));
        // ...but a genuinely growing distance set does not.
        let d = flow("sym n; for i := 2 to n do a(i) := a(2); endfor");
        let dists = d.enumerate_distances(16, &mut b).unwrap();
        assert_eq!(dists, None, "distance i-2 is unbounded in n");
    }

    #[test]
    fn limit_is_respected() {
        let d = flow(
            "for i := 1 to 100 do
               a(1) := a(1) + i;
             endfor",
        );
        let mut b = Budget::default();
        assert_eq!(d.enumerate_distances(10, &mut b).unwrap(), None);
        let all = d.enumerate_distances(200, &mut b).unwrap().unwrap();
        assert_eq!(all.len(), 99, "distances 1..=99");
    }
}
