//! Dependence records.

use std::fmt;

use omega::{DeltaProblem, Problem};

use crate::dir::DirectionVector;
use crate::space::{OrderCase, Space, StmtVars};

/// The kind of a data dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Write → read (true dependence).
    Flow,
    /// Read → write.
    Anti,
    /// Write → write (storage dependence).
    Output,
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
        })
    }
}

/// Which access of a statement participates in a dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessSite {
    /// The left-hand-side write.
    Write,
    /// The `idx`-th read (source order).
    Read(usize),
}

/// A reference to one access: statement label plus site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessRef {
    /// Statement label.
    pub label: usize,
    /// Which access within the statement.
    pub site: AccessSite,
}

/// One conjunctive dependence case: a specific carrier level (or the
/// loop-independent case) of an access pair.
#[derive(Debug, Clone)]
pub struct DepCase {
    /// The execution-order case this dependence is restricted to; this is
    /// the case's *restraint vector* in the paper's terminology (§2.1.2).
    pub order: OrderCase,
    /// Per-common-loop distance summary.
    pub summary: DirectionVector,
    /// The constraint space (variables `i*` for the source, `j*` for the
    /// destination, plus symbolic constants).
    pub space: Space,
    /// The conjunction: `i ∈ [A] ∧ j ∈ [B] ∧ A(i) =ₛᵤᵦ B(j) ∧ order ∧
    /// assumptions`.
    pub problem: Problem,
    /// The same conjunction expressed as a delta over the pair's shared
    /// [`PairContext`](omega::PairContext) base (`problem` is its
    /// materialization). Later passes (§4.1–4.3) project and re-constrain
    /// through this handle so the base is canonicalized once per pair.
    pub delta: DeltaProblem,
    /// Source iteration variables.
    pub src_vars: StmtVars,
    /// Destination iteration variables.
    pub dst_vars: StmtVars,
    /// Whether every subscript dimension was affine (false means the
    /// dependence is assumed conservatively and §5 machinery applies).
    pub exact_subscripts: bool,
}

/// Why a dependence is dead (eliminated by the extended analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadReason {
    /// Eliminated by a pairwise kill test (`[k]` in Figure 4).
    Killed,
    /// Eliminated by a covering dependence (`[c]` in Figure 4).
    Covered,
}

/// A dependence between two accesses, possibly split into several
/// conjunctive cases (one per restraint vector).
#[derive(Debug, Clone)]
pub struct Dependence {
    /// Kind of dependence.
    pub kind: DepKind,
    /// Source access.
    pub src: AccessRef,
    /// Destination access.
    pub dst: AccessRef,
    /// Number of loops common to the two statements.
    pub common: usize,
    /// Live conjunctive cases.
    pub cases: Vec<DepCase>,
    /// Whether refinement (§4.4) changed the dependence (`[r]`).
    pub refined: bool,
    /// Whether this dependence covers its destination (§4.2, `[C]`).
    pub covering: bool,
    /// Set when the dependence is dead (`[k]`/`[c]`).
    pub dead: Option<DeadReason>,
}

impl Dependence {
    /// The merged per-loop distance summary over live cases (interval
    /// hull), or an empty vector when there are no common loops.
    pub fn summary(&self) -> DirectionVector {
        let mut it = self.cases.iter().map(|c| c.summary.clone());
        let Some(first) = it.next() else {
            return DirectionVector(vec![]);
        };
        it.fold(first, |acc, s| acc.hull(&s))
    }

    /// Whether the dependence is still live.
    pub fn is_live(&self) -> bool {
        self.dead.is_none() && !self.cases.is_empty()
    }

    /// Enumerates the exact distance vectors of the live cases, merged and
    /// sorted, when the set is finite and no larger than `limit`. Returns
    /// `None` for symbolic (unbounded) distance sets.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn enumerate_distances(
        &self,
        limit: usize,
        budget: &mut omega::Budget,
    ) -> crate::Result<Option<Vec<Vec<i64>>>> {
        let mut all = Vec::new();
        for case in &self.cases {
            match crate::dir::enumerate_distances(
                &case.problem,
                &case.src_vars.iters,
                &case.dst_vars.iters,
                self.common,
                limit,
                budget,
            )? {
                None => return Ok(None),
                Some(v) => all.extend(v),
            }
        }
        all.sort();
        all.dedup();
        if all.len() > limit {
            return Ok(None);
        }
        Ok(Some(all))
    }

    /// The status tag in the format of Figures 3 and 4: live tags `[Cr]`,
    /// dead tags `[k]`, `[c]`.
    pub fn status_tag(&self) -> String {
        match self.dead {
            Some(DeadReason::Killed) if self.refined => "[kr]".to_string(),
            Some(DeadReason::Killed) => "[ k]".to_string(),
            Some(DeadReason::Covered) if self.refined => "[cr]".to_string(),
            Some(DeadReason::Covered) => "[ c]".to_string(),
            None => {
                let c = if self.covering { "C" } else { " " };
                let r = if self.refined { "r" } else { " " };
                let tag = format!("[{c}{r}]");
                if tag == "[  ]" {
                    String::new()
                } else {
                    tag
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::DirEntry;

    fn dummy_dep(cases: Vec<DirectionVector>) -> Dependence {
        let space = Space::new(&Default::default());
        let problem = space.problem();
        let ctx = omega::PairContext::new(problem.clone(), &omega::Budget::default());
        Dependence {
            kind: DepKind::Flow,
            src: AccessRef {
                label: 1,
                site: AccessSite::Write,
            },
            dst: AccessRef {
                label: 2,
                site: AccessSite::Read(0),
            },
            common: cases.first().map_or(0, |v| v.len()),
            cases: cases
                .into_iter()
                .map(|summary| DepCase {
                    order: OrderCase::LoopIndependent,
                    summary,
                    space: space.clone(),
                    problem: problem.clone(),
                    delta: ctx.derive(),
                    src_vars: StmtVars { iters: vec![] },
                    dst_vars: StmtVars { iters: vec![] },
                    exact_subscripts: true,
                })
                .collect(),
            refined: false,
            covering: false,
            dead: None,
        }
    }

    #[test]
    fn merged_summary_hull() {
        let d = dummy_dep(vec![
            DirectionVector(vec![DirEntry::exact(0), DirEntry::exact(1)]),
            DirectionVector(vec![
                DirEntry {
                    lo: Some(1),
                    hi: None,
                },
                DirEntry::exact(1),
            ]),
        ]);
        assert_eq!(d.summary().to_string(), "(0+,1)");
    }

    #[test]
    fn status_tags() {
        let mut d = dummy_dep(vec![]);
        assert_eq!(d.status_tag(), "");
        d.refined = true;
        assert_eq!(d.status_tag(), "[ r]");
        d.covering = true;
        assert_eq!(d.status_tag(), "[Cr]");
        d.dead = Some(DeadReason::Killed);
        assert_eq!(d.status_tag(), "[kr]", "refined dead deps show r");
        d.dead = Some(DeadReason::Covered);
        assert_eq!(d.status_tag(), "[cr]");
        d.refined = false;
        d.dead = Some(DeadReason::Killed);
        assert_eq!(d.status_tag(), "[ k]");
        d.dead = Some(DeadReason::Covered);
        assert_eq!(d.status_tag(), "[ c]");
    }
}
