//! Partially compressed direction vectors (§2.1.1).
//!
//! A single direction vector cannot always summarize a dependence
//! accurately: for distances `{(Δi, Δj) | Δi = Δj}` the compressed vector
//! `(0+, 0+)` falsely suggests `(0,+)` and `(+,0)` are possible. The
//! accurate representation is the *set* `{(+,+), (0,0), (-,-)}` — and
//! after filtering for lexicographically forward directions,
//! `{(+,+), (0,0)}`.
//!
//! This module enumerates the feasible sign patterns of a dependence
//! problem exactly (one Omega-test query per explored pattern, with
//! prefix pruning) and then *partially compresses* them: sign sets are
//! merged along one coordinate only when the resulting box contains no
//! infeasible pattern, so the output never over-approximates.

use std::collections::BTreeSet;

use omega::{Budget, LinExpr, Problem, VarId};

use crate::dir::{DirEntry, DirectionVector};
use crate::error::Result;

/// The sign of a dependence distance at one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Sign {
    /// Negative distance.
    Neg,
    /// Zero distance.
    Zero,
    /// Positive distance.
    Pos,
}

impl Sign {
    fn all() -> [Sign; 3] {
        [Sign::Neg, Sign::Zero, Sign::Pos]
    }
}

/// A box of sign patterns: one sign set per level. The represented
/// patterns are the product of the per-level sets.
type SignBox = Vec<BTreeSet<Sign>>;

/// Enumerates the feasible sign patterns of `dst − src` distances over
/// `common` levels. Each pattern is certified by a satisfiability query;
/// infeasible prefixes prune their whole subtree.
///
/// # Errors
///
/// Propagates solver errors.
pub fn sign_patterns(
    p: &Problem,
    src_iters: &[VarId],
    dst_iters: &[VarId],
    common: usize,
    budget: &mut Budget,
) -> Result<Vec<Vec<Sign>>> {
    let mut out = Vec::new();
    let mut prefix = Vec::new();
    rec(
        p,
        src_iters,
        dst_iters,
        common,
        budget,
        &mut prefix,
        &mut out,
    )?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn rec(
    p: &Problem,
    src_iters: &[VarId],
    dst_iters: &[VarId],
    common: usize,
    budget: &mut Budget,
    prefix: &mut Vec<Sign>,
    out: &mut Vec<Vec<Sign>>,
) -> Result<()> {
    if prefix.len() == common {
        out.push(prefix.clone());
        return Ok(());
    }
    for s in Sign::all() {
        prefix.push(s);
        let mut q = p.clone();
        constrain_signs(&mut q, src_iters, dst_iters, prefix)?;
        if q.is_satisfiable_with(budget)? {
            rec(p, src_iters, dst_iters, common, budget, prefix, out)?;
        }
        prefix.pop();
    }
    Ok(())
}

fn constrain_signs(
    q: &mut Problem,
    src_iters: &[VarId],
    dst_iters: &[VarId],
    signs: &[Sign],
) -> Result<()> {
    for (l, s) in signs.iter().enumerate() {
        let mut d = LinExpr::var(dst_iters[l]);
        d.add_coef(src_iters[l], -1)?;
        match s {
            Sign::Zero => q.add_eq(d),
            Sign::Pos => {
                let mut e = d;
                e.add_constant(-1)?;
                q.add_geq(e);
            }
            Sign::Neg => {
                let mut e = d.negated();
                e.add_constant(-1)?;
                q.add_geq(e);
            }
        }
    }
    Ok(())
}

/// Partially compresses a set of sign patterns: merges boxes along one
/// coordinate whenever the merged box's full product stays within the
/// feasible set — so the result is a *lossless* cover of the patterns by
/// (few) boxes.
pub fn compress(patterns: &[Vec<Sign>]) -> Vec<SignBox> {
    let feasible: BTreeSet<Vec<Sign>> = patterns.iter().cloned().collect();
    let mut boxes: Vec<SignBox> = patterns
        .iter()
        .map(|p| p.iter().map(|&s| BTreeSet::from([s])).collect())
        .collect();
    loop {
        let mut merged = false;
        'outer: for i in 0..boxes.len() {
            for j in i + 1..boxes.len() {
                if let Some(m) = try_merge(&boxes[i], &boxes[j], &feasible) {
                    boxes[i] = m;
                    boxes.swap_remove(j);
                    merged = true;
                    break 'outer;
                }
            }
        }
        if !merged {
            // Drop boxes subsumed by others.
            let mut k = 0;
            while k < boxes.len() {
                let subsumed =
                    (0..boxes.len()).any(|o| o != k && box_contains(&boxes[o], &boxes[k]));
                if subsumed {
                    boxes.swap_remove(k);
                } else {
                    k += 1;
                }
            }
            return boxes;
        }
    }
}

fn box_contains(outer: &SignBox, inner: &SignBox) -> bool {
    outer.iter().zip(inner).all(|(o, i)| i.is_subset(o))
}

/// Merges two boxes differing in at most one coordinate, when the union
/// box is a contiguous sign interval and fully feasible.
fn try_merge(a: &SignBox, b: &SignBox, feasible: &BTreeSet<Vec<Sign>>) -> Option<SignBox> {
    debug_assert_eq!(a.len(), b.len());
    let mut diff = None;
    for l in 0..a.len() {
        if a[l] != b[l] {
            if diff.is_some() {
                return None;
            }
            diff = Some(l);
        }
    }
    let Some(l) = diff else {
        return Some(a.clone()); // identical
    };
    let mut merged = a.clone();
    merged[l] = a[l].union(&b[l]).copied().collect();
    // {-,+} without 0 is not an interval; reject.
    if merged[l].contains(&Sign::Neg)
        && merged[l].contains(&Sign::Pos)
        && !merged[l].contains(&Sign::Zero)
    {
        return None;
    }
    // Every pattern in the merged product must be feasible.
    if product_within(&merged, feasible) {
        Some(merged)
    } else {
        None
    }
}

fn product_within(b: &SignBox, feasible: &BTreeSet<Vec<Sign>>) -> bool {
    let mut stack = vec![Vec::with_capacity(b.len())];
    while let Some(p) = stack.pop() {
        if p.len() == b.len() {
            if !feasible.contains(&p) {
                return false;
            }
            continue;
        }
        for &s in &b[p.len()] {
            let mut q = p.clone();
            q.push(s);
            stack.push(q);
        }
    }
    true
}

/// Converts a sign box into the paper's direction-vector notation.
pub fn box_to_vector(b: &SignBox) -> DirectionVector {
    DirectionVector(
        b.iter()
            .map(|s| {
                let has = |x| s.contains(&x);
                match (has(Sign::Neg), has(Sign::Zero), has(Sign::Pos)) {
                    (true, true, true) => DirEntry::star(),
                    (false, false, true) => DirEntry {
                        lo: Some(1),
                        hi: None,
                    },
                    (false, true, false) => DirEntry::exact(0),
                    (true, false, false) => DirEntry {
                        lo: None,
                        hi: Some(-1),
                    },
                    (false, true, true) => DirEntry {
                        lo: Some(0),
                        hi: None,
                    },
                    (true, true, false) => DirEntry {
                        lo: None,
                        hi: Some(0),
                    },
                    _ => DirEntry::star(), // non-interval (rejected earlier)
                }
            })
            .collect(),
    )
}

/// The §2.1.1 pipeline: enumerate, compress, filter forward, render.
///
/// # Errors
///
/// Propagates solver errors.
pub fn partially_compressed_direction_vectors(
    p: &Problem,
    src_iters: &[VarId],
    dst_iters: &[VarId],
    common: usize,
    src_lexically_first: bool,
    budget: &mut Budget,
) -> Result<Vec<DirectionVector>> {
    let patterns = sign_patterns(p, src_iters, dst_iters, common, budget)?;
    // Filter forward patterns BEFORE compression so forward/backward don't
    // merge into one box.
    let forward: Vec<Vec<Sign>> = patterns
        .into_iter()
        .filter(|pat| {
            for s in pat {
                match s {
                    Sign::Neg => return false,
                    Sign::Zero => continue,
                    Sign::Pos => return true,
                }
            }
            src_lexically_first
        })
        .collect();
    Ok(compress(&forward).iter().map(box_to_vector).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega::VarKind;

    /// The paper's §2.1.1 example: Δi = Δj over a 10×10 nest.
    fn coupled_problem() -> (Problem, Vec<VarId>, Vec<VarId>) {
        let mut p = Problem::new();
        let i1 = p.add_var(VarKind::Input);
        let i2 = p.add_var(VarKind::Input);
        let j1 = p.add_var(VarKind::Input);
        let j2 = p.add_var(VarKind::Input);
        for v in [i1, i2, j1, j2] {
            p.add_geq(LinExpr::var(v).plus_const(-1));
            p.add_geq(LinExpr::term(-1, v).plus_const(10));
        }
        // (j1 - i1) = (j2 - i2)
        let mut e = LinExpr::var(j1);
        e.add_coef(i1, -1).unwrap();
        e.add_coef(j2, -1).unwrap();
        e.add_coef(i2, 1).unwrap();
        p.add_eq(e);
        (p, vec![i1, i2], vec![j1, j2])
    }

    #[test]
    fn coupled_signs_enumerate_to_diagonal() {
        let (p, src, dst) = coupled_problem();
        let mut b = Budget::default();
        let pats = sign_patterns(&p, &src, &dst, 2, &mut b).unwrap();
        let set: BTreeSet<Vec<Sign>> = pats.into_iter().collect();
        let want: BTreeSet<Vec<Sign>> = [
            vec![Sign::Neg, Sign::Neg],
            vec![Sign::Zero, Sign::Zero],
            vec![Sign::Pos, Sign::Pos],
        ]
        .into_iter()
        .collect();
        assert_eq!(set, want, "paper: {{(-,-), (0,0), (+,+)}}");
    }

    #[test]
    fn coupled_forward_filter_matches_paper() {
        // §2.1.1: "After filtering for lexicographically forward
        // directions, this dependence is represented by {(+,+), (0,0)}."
        let (p, src, dst) = coupled_problem();
        let mut b = Budget::default();
        let vecs = partially_compressed_direction_vectors(&p, &src, &dst, 2, true, &mut b).unwrap();
        let rendered: BTreeSet<String> = vecs.iter().map(|v| v.to_string()).collect();
        let want: BTreeSet<String> = ["(+,+)".to_string(), "(0,0)".to_string()]
            .into_iter()
            .collect();
        assert_eq!(rendered, want);
    }

    #[test]
    fn rectangular_independence_compresses_to_one_box() {
        // Unconstrained distances over a box: all 9 patterns feasible,
        // forward filter keeps {(+,*), (0,0+)}, which compress into two
        // boxes (lex-forward sets are not boxes).
        let mut p = Problem::new();
        let i1 = p.add_var(VarKind::Input);
        let i2 = p.add_var(VarKind::Input);
        let j1 = p.add_var(VarKind::Input);
        let j2 = p.add_var(VarKind::Input);
        for v in [i1, i2, j1, j2] {
            p.add_geq(LinExpr::var(v).plus_const(-1));
            p.add_geq(LinExpr::term(-1, v).plus_const(10));
        }
        let mut b = Budget::default();
        let pats = sign_patterns(&p, &[i1, i2], &[j1, j2], 2, &mut b).unwrap();
        assert_eq!(pats.len(), 9, "all sign patterns feasible");
        let forward: Vec<Vec<Sign>> = pats
            .into_iter()
            .filter(|pat| match pat[0] {
                Sign::Neg => false,
                Sign::Pos => true,
                Sign::Zero => pat[1] != Sign::Neg,
            })
            .collect();
        assert_eq!(forward.len(), 5);
        let boxes = compress(&forward);
        // The cover is lossless (no over-approximation) and complete,
        // regardless of which of the valid covers the greedy merge found.
        let feasible: BTreeSet<Vec<Sign>> = forward.iter().cloned().collect();
        let mut covered = BTreeSet::new();
        for bx in &boxes {
            assert!(product_within(bx, &feasible), "box over-approximates");
            collect_product(bx, &mut covered);
        }
        assert_eq!(covered, feasible, "cover must be complete");
        assert!(
            boxes.len() <= 3,
            "compression should reduce 5 patterns: {boxes:?}"
        );
    }

    fn collect_product(b: &SignBox, out: &mut BTreeSet<Vec<Sign>>) {
        let mut stack = vec![Vec::new()];
        while let Some(p) = stack.pop() {
            if p.len() == b.len() {
                out.insert(p);
                continue;
            }
            for &s in &b[p.len()] {
                let mut q = p.clone();
                q.push(s);
                stack.push(q);
            }
        }
    }

    #[test]
    fn compression_never_over_approximates() {
        // For the coupled problem, (0+,0+) must NOT appear: it would
        // falsely include (0,+).
        let (p, src, dst) = coupled_problem();
        let mut b = Budget::default();
        let pats = sign_patterns(&p, &src, &dst, 2, &mut b).unwrap();
        let boxes = compress(&pats);
        for bx in &boxes {
            assert!(
                product_within(bx, &pats.iter().cloned().collect()),
                "box covers an infeasible pattern"
            );
        }
    }

    #[test]
    fn single_loop_signs() {
        // a(i) := a(i-1): distance exactly 1 -> pattern {(+)} only among
        // forward; backward pattern (-) never feasible for this flow.
        let info = tiny::analyze(
            &tiny::Program::parse("sym n; for i := 2 to n do a(i) := a(i-1); endfor").unwrap(),
        )
        .unwrap();
        let s = &info.stmts[0];
        let dep = crate::pairs::build_dependence(
            &info,
            crate::dep::DepKind::Flow,
            s,
            crate::dep::AccessSite::Write,
            s,
            crate::dep::AccessSite::Read(0),
            &mut Budget::default(),
        )
        .unwrap()
        .unwrap();
        // Rebuild the unordered problem: iteration spaces + subscripts.
        let case = &dep.cases[0];
        let mut b = Budget::default();
        let vecs = partially_compressed_direction_vectors(
            &case.problem,
            &case.src_vars.iters,
            &case.dst_vars.iters,
            1,
            false,
            &mut b,
        )
        .unwrap();
        assert_eq!(vecs.len(), 1);
        assert_eq!(vecs[0].to_string(), "(+)");
    }
}
