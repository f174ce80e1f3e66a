//! The dependence-graph IR: statements as nodes, dependences as edges.
//!
//! [`analyze_program`](crate::analyze_program) produces flat vectors of
//! [`Dependence`] records; every consumer used to re-walk those vectors
//! and re-derive the same presentation data (access strings via
//! [`access_of`], direction summaries, status tags) on its own. The
//! [`DepGraph`] computes that once: it is the single IR that
//! [`report`](crate::report), [`dot`](crate::dot), the `--parallel`
//! report section and the [`parallelize`](crate::parallelize) decision
//! engine consume.
//!
//! Edges keep a reference to their underlying [`Dependence`] (with its
//! constraint problems and cases intact) plus the precomputed render
//! strings, and are stored in the canonical analysis order — flows,
//! antis, outputs, each in construction order — so every renderer that
//! iterates the graph reproduces the pre-IR output byte for byte.
//!
//! The graph also answers the per-loop questions behind the
//! parallelization decisions under an explicit [`KillView`]: the
//! *post-kill* view sees only live (surviving) edges, the *pre-kill*
//! view sees every edge as if the dead-marking analyses (kill *and*
//! covering — the two ways a dependence is declared false) had never
//! run. Since those analyses only mark dependences dead — they never
//! add or reshape them — the pre-kill view of one extended analysis is
//! exactly what a `kill: false, cover: false` run would have produced
//! (property-tested in `tests/parallelize.rs`), which is what makes the
//! kills-on/kills-off delta computable from a single analysis.

use std::collections::BTreeSet;

use tiny::ast::name_key;
use tiny::ProgramInfo;

use crate::analysis::Analysis;
use crate::dep::{DepKind, Dependence};
use crate::pairs::access_of;
use crate::space::OrderCase;
use crate::transform::LoopRef;

/// One statement node of the dependence graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Statement label (source order, 1-based).
    pub label: usize,
    /// The written access, rendered (`a(i, j)`).
    pub write: String,
    /// Enclosing loop variables, outermost first.
    pub loop_vars: Vec<String>,
}

/// One dependence edge: the underlying record plus the render data every
/// consumer needs (previously re-derived separately by `report.rs` and
/// `dot.rs`).
#[derive(Debug, Clone)]
pub struct Edge<'a> {
    /// The underlying dependence (cases, problems, liveness).
    pub dep: &'a Dependence,
    /// Source access, rendered (`a(i-1)`).
    pub src_access: String,
    /// Destination access, rendered.
    pub dst_access: String,
    /// Canonical (case-folded) name of the source access's array.
    pub src_array: String,
    /// Direction/distance summary (`(0,1)`), empty when the endpoints
    /// share no loop.
    pub dir: String,
    /// Status tag (`[ k]`, `[Cr]`, ...).
    pub tag: String,
}

impl Edge<'_> {
    /// The dependence kind.
    pub fn kind(&self) -> DepKind {
        self.dep.kind
    }

    /// Whether the dependence survived kill/cover analysis.
    pub fn is_live(&self) -> bool {
        self.dep.is_live()
    }

    /// Source statement label.
    pub fn src_label(&self) -> usize {
        self.dep.src.label
    }

    /// Destination statement label.
    pub fn dst_label(&self) -> usize {
        self.dep.dst.label
    }

    /// Whether this edge exists under `view`: every edge pre-kill, only
    /// live ones post-kill.
    pub fn alive_under(&self, view: KillView) -> bool {
        match view {
            KillView::PreKill => true,
            KillView::PostKill => self.is_live(),
        }
    }

    /// Compact description for blocking-dependence annotations:
    /// `flow 2->5 (1,0) on A`.
    pub fn describe(&self) -> String {
        let mut s = format!(
            "{} {}->{}",
            self.dep.kind,
            self.src_label(),
            self.dst_label()
        );
        if !self.dir.is_empty() {
            s.push(' ');
            s.push_str(&self.dir);
        }
        s.push_str(" on ");
        s.push_str(&self.src_array.to_uppercase());
        s
    }
}

/// Which dependences a query sees: the surviving (post-kill/post-cover)
/// graph, or the full graph as standard analysis would report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillView {
    /// Only live edges — kill analysis applied.
    PostKill,
    /// Every edge, dead or not — as if kill analysis never ran.
    PreKill,
}

/// The parallelization verdict for one loop under one [`KillView`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopVerdict {
    /// Indices (into [`DepGraph::edges`]) of the dependences carried by
    /// the loop under the view, in edge order.
    pub carried: Vec<usize>,
    /// `Some(arrays)` when the loop can run in parallel after
    /// privatizing `arrays` (empty set = outright parallel, no
    /// privatization needed); `None` when a carried flow — or a storage
    /// dependence on an unprivatizable array — keeps it sequential.
    pub privatize: Option<BTreeSet<String>>,
}

impl LoopVerdict {
    /// No carried dependence at all: parallel as written.
    pub fn outright_parallel(&self) -> bool {
        self.carried.is_empty()
    }

    /// Parallelizable, possibly after privatization.
    pub fn parallelizable(&self) -> bool {
        self.privatize.is_some()
    }
}

/// The dependence-graph IR over one program's [`Analysis`].
#[derive(Debug)]
pub struct DepGraph<'a> {
    info: &'a ProgramInfo,
    analysis: &'a Analysis,
    nodes: Vec<Node>,
    edges: Vec<Edge<'a>>,
}

impl<'a> DepGraph<'a> {
    /// Builds the graph: one node per statement (source order), one edge
    /// per dependence in the canonical order flows → antis → outputs.
    pub fn new(info: &'a ProgramInfo, analysis: &'a Analysis) -> DepGraph<'a> {
        let nodes = info
            .stmts
            .iter()
            .map(|s| Node {
                label: s.label,
                write: s.write.to_string(),
                loop_vars: s.loops.iter().map(|l| l.var.clone()).collect(),
            })
            .collect();
        let mut edges = Vec::with_capacity(
            analysis.flows.len() + analysis.antis.len() + analysis.outputs.len(),
        );
        for dep in analysis
            .flows
            .iter()
            .chain(&analysis.antis)
            .chain(&analysis.outputs)
        {
            let src = access_of(info.stmt(dep.src.label), dep.src.site);
            let dst = access_of(info.stmt(dep.dst.label), dep.dst.site);
            edges.push(Edge {
                dep,
                src_access: src.to_string(),
                dst_access: dst.to_string(),
                src_array: name_key(&src.array),
                dir: if dep.common > 0 {
                    dep.summary().to_string()
                } else {
                    String::new()
                },
                tag: dep.status_tag(),
            });
        }
        DepGraph {
            info,
            analysis,
            nodes,
            edges,
        }
    }

    /// The program the graph describes.
    pub fn info(&self) -> &'a ProgramInfo {
        self.info
    }

    /// The analysis the graph was built from.
    pub fn analysis(&self) -> &'a Analysis {
        self.analysis
    }

    /// Statement nodes, in source order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All edges, in the canonical flows → antis → outputs order.
    pub fn edges(&self) -> &[Edge<'a>] {
        &self.edges
    }

    /// Edges of one dependence kind, in construction order.
    pub fn edges_of_kind(&self, kind: DepKind) -> impl Iterator<Item = &Edge<'a>> {
        self.edges.iter().filter(move |e| e.kind() == kind)
    }

    /// Live flow edges (the Figure 3 rows).
    pub fn live_flows(&self) -> impl Iterator<Item = &Edge<'a>> {
        self.edges_of_kind(DepKind::Flow).filter(|e| e.is_live())
    }

    /// Dead flow edges (the Figure 4 rows).
    pub fn dead_flows(&self) -> impl Iterator<Item = &Edge<'a>> {
        self.edges_of_kind(DepKind::Flow).filter(|e| !e.is_live())
    }

    /// Whether both endpoints of `dep` are nested inside loop `l`.
    pub fn under(&self, dep: &Dependence, l: &LoopRef) -> bool {
        let src = self.info.stmt(dep.src.label);
        let dst = self.info.stmt(dep.dst.label);
        src.path.starts_with(&l.path) && dst.path.starts_with(&l.path)
    }

    /// Indices of the edges carried by loop `l` under `view`: both
    /// endpoints inside `l` and some case carried at `l`'s depth.
    pub fn carried_edges(&self, l: &LoopRef, view: KillView) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                e.alive_under(view)
                    && self.under(e.dep, l)
                    && e.dep
                        .cases
                        .iter()
                        .any(|c| c.order == OrderCase::CarriedAt(l.depth))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether `array` (canonical name) is privatizable with respect to
    /// loop `l` under `view`: no flow dependence on the array is carried
    /// by `l`, so every iteration uses only values it produced itself
    /// (or loop-invariant live-ins, handled by copy-in).
    pub fn privatizable(&self, array: &str, l: &LoopRef, view: KillView) -> bool {
        let key = name_key(array);
        !self.edges.iter().any(|e| {
            e.kind() == DepKind::Flow
                && e.alive_under(view)
                && self.under(e.dep, l)
                && e.src_array == key
                && e.dep
                    .cases
                    .iter()
                    .any(|c| c.order == OrderCase::CarriedAt(l.depth))
        })
    }

    /// The parallelization verdict for loop `l` under `view` — the
    /// decision [`parallelize`](crate::parallelize) and the `--parallel`
    /// report section both consume.
    pub fn loop_verdict(&self, l: &LoopRef, view: KillView) -> LoopVerdict {
        let carried = self.carried_edges(l, view);
        let mut privatize = BTreeSet::new();
        for &i in &carried {
            let e = &self.edges[i];
            match e.kind() {
                DepKind::Flow => {
                    return LoopVerdict {
                        carried,
                        privatize: None,
                    }
                }
                DepKind::Anti | DepKind::Output => {
                    if !self.privatizable(&e.src_array, l, view) {
                        return LoopVerdict {
                            carried,
                            privatize: None,
                        };
                    }
                    privatize.insert(e.src_array.clone());
                }
            }
        }
        LoopVerdict {
            carried,
            privatize: Some(privatize),
        }
    }

    /// The carried edges that keep a sequential loop sequential: carried
    /// flows, plus storage edges on arrays that are not privatizable
    /// under `view`. Empty exactly when the loop is parallelizable.
    pub fn blockers(&self, verdict: &LoopVerdict, l: &LoopRef, view: KillView) -> Vec<usize> {
        if verdict.parallelizable() {
            return Vec::new();
        }
        verdict
            .carried
            .iter()
            .copied()
            .filter(|&i| {
                let e = &self.edges[i];
                e.kind() == DepKind::Flow || !self.privatizable(&e.src_array, l, view)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_program;
    use crate::config::Config;
    use crate::transform::program_loops;

    fn run(src: &str) -> (ProgramInfo, Analysis) {
        let program = tiny::Program::parse(src).unwrap();
        let info = tiny::analyze(&program).unwrap();
        let analysis = analyze_program(&info, &Config::extended()).unwrap();
        (info, analysis)
    }

    #[test]
    fn edges_are_in_canonical_order_with_render_data() {
        let (info, a) = run(tiny::corpus::EXAMPLE_2);
        let g = DepGraph::new(&info, &a);
        assert_eq!(g.nodes().len(), info.stmts.len());
        assert_eq!(
            g.edges().len(),
            a.flows.len() + a.antis.len() + a.outputs.len()
        );
        // Order: all flows first, then antis, then outputs.
        let kinds: Vec<DepKind> = g.edges().iter().map(Edge::kind).collect();
        let mut sorted = kinds.clone();
        sorted.sort_by_key(|k| match k {
            DepKind::Flow => 0,
            DepKind::Anti => 1,
            DepKind::Output => 2,
        });
        assert_eq!(kinds, sorted);
        for e in g.edges() {
            assert!(!e.src_access.is_empty());
            assert!(!e.dst_access.is_empty());
            assert_eq!(e.src_array, name_key(&e.src_array));
        }
        assert_eq!(g.live_flows().count(), a.live_flows().count());
        assert_eq!(g.dead_flows().count(), a.dead_flows().count());
    }

    #[test]
    fn prekill_view_sees_dead_edges() {
        let (info, a) = run(tiny::corpus::EXAMPLE_1);
        let g = DepGraph::new(&info, &a);
        let dead = g.edges().iter().filter(|e| !e.is_live()).count();
        assert!(dead > 0, "example 1 has a killed flow");
        for e in g.edges() {
            assert!(e.alive_under(KillView::PreKill));
            assert_eq!(e.alive_under(KillView::PostKill), e.is_live());
        }
    }

    #[test]
    fn blockers_empty_iff_parallelizable() {
        let (info, a) = run(tiny::corpus::SEIDEL);
        let g = DepGraph::new(&info, &a);
        for l in program_loops(&info) {
            for view in [KillView::PostKill, KillView::PreKill] {
                let v = g.loop_verdict(&l, view);
                let blockers = g.blockers(&v, &l, view);
                assert_eq!(v.parallelizable(), blockers.is_empty(), "{l:?}");
            }
        }
    }

    #[test]
    fn describe_is_compact() {
        let (info, a) = run("a(1) := 2; x := a(1);");
        let g = DepGraph::new(&info, &a);
        let e = g.live_flows().next().expect("one flow");
        assert_eq!(e.describe(), "flow 1->2 on A");
    }
}
