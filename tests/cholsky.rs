//! Integration test: the CHOLSKY analysis reproduces Figures 3 and 4 of
//! the paper — the same live/dead partition, the same direction/distance
//! vectors, and the same status tags.

use std::collections::BTreeSet;

use depend::{analyze_program, Config, DeadReason};

/// (paper label of FROM, paper label of TO, read index ignored) -> (dir, tag)
type Row = (usize, usize, &'static str, &'static str);

/// Figure 3 rows: (from, to, dir/dist, status). Read positions are
/// identified by the access text in the full table test below; here the
/// (from, to, dir) triple is unique per row except where noted.
const FIGURE3: &[Row] = &[
    (3, 3, "(0,0,1,0)", "[ r]"),
    (3, 2, "(0,0)", ""),
    (2, 3, "(0,+)", ""), // A(L,I+JJ,J)
    (2, 3, "(+,*)", ""), // A(L,JJ,I+J)
    (2, 5, "(0)", "[C ]"),
    (2, 7, "", "[C ]"),
    (2, 6, "", "[C ]"),
    (4, 1, "(0)", "[Cr]"),
    (5, 5, "(0,1,0)", "[ r]"),
    (5, 1, "(0)", ""),
    (1, 2, "(+)", ""),
    (1, 8, "", "[C ]"),
    (1, 9, "", "[C ]"),
    (8, 7, "(0,0)", "[C ]"),
    (8, 9, "(0)", "[C ]"),
    (8, 6, "(0)", "[C ]"),
    (7, 8, "(0,1)", "[ r]"),
    (7, 7, "(0,1,-1,0)", "[ r]"),
    (9, 6, "(0,0)", "[C ]"),
    (6, 9, "(0,1)", "[ r]"),
    (6, 6, "(0,1,-1,0)", "[ r]"),
];

/// Figure 4 rows. Distance vectors marked `*` in the paper may be tighter
/// here (`0+` instead of `*`), so only from/to/tag are matched for those.
const FIGURE4: &[(usize, usize, &str)] = &[
    (3, 3, "[ k]"), // A(L,I+JJ,J)
    (3, 3, "[ k]"), // A(L,JJ,I+J)
    (3, 5, "[ k]"),
    (3, 7, "[ k]"),
    (3, 6, "[ k]"),
    (5, 2, "[ k]"),
    (5, 8, "[ k]"),
    (5, 9, "[ k]"),
    (8, 6, "[ c]"),
    (7, 7, "[kr]"),
    (7, 9, "[ k]"),
    (7, 6, "[ c]"), // B(I,L,N-K)
    (7, 6, "[ k]"), // B(I,L,N-K-JJ)
    (6, 6, "[kr]"),
];

fn paper_label(internal: usize) -> usize {
    tiny::corpus::CHOLSKY_PAPER_LABELS[internal]
}

#[test]
fn cholsky_reproduces_figure_3_and_4() {
    let program = tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap();
    let info = tiny::analyze(&program).unwrap();
    let analysis = analyze_program(&info, &Config::extended()).unwrap();

    // --- Figure 3: the live rows -------------------------------------
    let live: Vec<(usize, usize, String, String)> = analysis
        .live_flows()
        .map(|d| {
            (
                paper_label(d.src.label),
                paper_label(d.dst.label),
                if d.common > 0 {
                    d.summary().to_string()
                } else {
                    String::new()
                },
                d.status_tag(),
            )
        })
        .collect();
    assert_eq!(live.len(), FIGURE3.len(), "21 live flow dependences");
    for &(from, to, dir, tag) in FIGURE3 {
        assert!(
            live.iter()
                .any(|(f, t, d, s)| *f == from && *t == to && d == dir && s == tag),
            "missing live row {from} -> {to} {dir} {tag}; have {live:#?}"
        );
    }

    // --- Figure 4: the dead rows -------------------------------------
    let dead: Vec<(usize, usize, String)> = analysis
        .dead_flows()
        .map(|d| {
            (
                paper_label(d.src.label),
                paper_label(d.dst.label),
                d.status_tag(),
            )
        })
        .collect();
    assert_eq!(dead.len(), FIGURE4.len(), "14 dead flow dependences");
    // Match as a multiset of (from, to, tag).
    let mut want: Vec<(usize, usize, String)> = FIGURE4
        .iter()
        .map(|&(f, t, s)| (f, t, s.to_string()))
        .collect();
    let mut got = dead.clone();
    want.sort();
    got.sort();
    assert_eq!(got, want, "dead rows with tags must match Figure 4");
}

#[test]
fn cholsky_standard_analysis_reports_everything_live() {
    let program = tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap();
    let info = tiny::analyze(&program).unwrap();
    let analysis = analyze_program(&info, &Config::standard()).unwrap();
    assert_eq!(
        analysis.dead_flows().count(),
        0,
        "standard analysis cannot eliminate false dependences"
    );
    assert_eq!(analysis.flows.len(), 35, "21 live + 14 would-be-dead");
    assert!(analysis.flows.iter().all(|d| !d.refined && !d.covering));
}

#[test]
fn cholsky_output_and_anti_dependences_are_computed() {
    let program = tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap();
    let info = tiny::analyze(&program).unwrap();
    let analysis = analyze_program(&info, &Config::extended()).unwrap();
    // The paper: "our changes have no effect on the output or anti
    // dependences computed". Spot-check presence and self-consistency.
    assert!(!analysis.outputs.is_empty());
    assert!(!analysis.antis.is_empty());
    let std = analyze_program(&info, &Config::standard()).unwrap();
    assert_eq!(std.outputs.len(), analysis.outputs.len());
    assert_eq!(std.antis.len(), analysis.antis.len());
}

#[test]
fn cholsky_dead_reasons_split_into_killed_and_covered() {
    let program = tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap();
    let info = tiny::analyze(&program).unwrap();
    let analysis = analyze_program(&info, &Config::extended()).unwrap();
    let killed = analysis
        .dead_flows()
        .filter(|d| d.dead == Some(DeadReason::Killed))
        .count();
    let covered = analysis
        .dead_flows()
        .filter(|d| d.dead == Some(DeadReason::Covered))
        .count();
    assert_eq!(killed, 12, "12 [k]/[kr] rows in Figure 4");
    assert_eq!(covered, 2, "2 [c] rows in Figure 4");
}

#[test]
fn cholsky_covering_set_matches_figure_3() {
    let program = tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap();
    let info = tiny::analyze(&program).unwrap();
    let analysis = analyze_program(&info, &Config::extended()).unwrap();
    let covers: BTreeSet<(usize, usize)> = analysis
        .live_flows()
        .filter(|d| d.covering)
        .map(|d| (paper_label(d.src.label), paper_label(d.dst.label)))
        .collect();
    let expected: BTreeSet<(usize, usize)> = [
        (2, 5),
        (2, 7),
        (2, 6),
        (4, 1),
        (1, 8),
        (1, 9),
        (8, 7),
        (8, 9),
        (8, 6),
        (9, 6),
    ]
    .into_iter()
    .collect();
    assert_eq!(covers, expected);
}

#[test]
fn cholsky_epss_is_privatizable_thanks_to_kill_analysis() {
    // EPSS is a scratch array rewritten every J iteration (statement 4 in
    // paper labels) and read back within the same iteration (statement 1).
    // Figure 3 reports the flow refined to (0) — loop independent — so
    // EPSS carries nothing across J iterations and privatizes. Standard
    // analysis keeps the stale carried flow and blocks exactly the
    // transformation the paper's introduction motivates.
    use depend::{program_loops, DepGraph, KillView};
    use tiny::ast::name_key;

    let program = tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap();
    let info = tiny::analyze(&program).unwrap();
    let loops = program_loops(&info);
    let j_loop = loops
        .iter()
        .find(|l| name_key(&l.var) == "j" && l.depth == 1)
        .expect("the decomposition J loop");

    let ext = analyze_program(&info, &Config::extended()).unwrap();
    let ext_graph = DepGraph::new(&info, &ext);
    assert!(
        ext_graph.privatizable("epss", j_loop, KillView::PostKill),
        "extended analysis: EPSS has no live carried flow"
    );

    let std = analyze_program(&info, &Config::standard()).unwrap();
    let std_graph = DepGraph::new(&info, &std);
    assert!(
        !std_graph.privatizable("epss", j_loop, KillView::PostKill),
        "standard analysis: the false carried flow on EPSS blocks privatization"
    );
}
