//! Rendering analysis results in the format of the paper's Figures 3/4:
//! one row per dependence with `FROM`, `TO`, `dir/dist` and status tag.
//!
//! All renderers consume the [`DepGraph`] IR — the graph precomputes the
//! access strings, direction summaries and status tags once, and the
//! tables here (like the DOT export in [`crate::dot`]) only format them.

use std::fmt::Write as _;

use crate::graph::{DepGraph, Edge};

/// Options controlling report rendering.
#[derive(Debug, Clone, Default)]
pub struct ReportOptions {
    /// Remaps internal (source-order) statement labels to display labels —
    /// used to print CHOLSKY with the Fortran DO-label numbering of the
    /// paper. `label_map[internal]` is the display label; index 0 unused.
    pub label_map: Option<Vec<usize>>,
}

impl ReportOptions {
    fn display_label(&self, label: usize) -> usize {
        match &self.label_map {
            Some(m) if label < m.len() => m[label],
            _ => label,
        }
    }
}

/// Renders one dependence row.
pub fn format_edge(edge: &Edge<'_>, opts: &ReportOptions) -> String {
    let from = format!(
        "{}: {}",
        opts.display_label(edge.src_label()),
        edge.src_access.to_uppercase()
    );
    let to = format!(
        "{}: {}",
        opts.display_label(edge.dst_label()),
        edge.dst_access.to_uppercase()
    );
    format!("{from:<22} {to:<22} {:<12} {}", edge.dir, edge.tag)
        .trim_end()
        .to_string()
}

/// The live flow dependence table (Figure 3).
pub fn live_flow_table(graph: &DepGraph<'_>, opts: &ReportOptions) -> String {
    let mut out =
        String::from("FROM                   TO                     dir/dist     status\n");
    for e in graph.live_flows() {
        let _ = writeln!(out, "{}", format_edge(e, opts));
    }
    out
}

/// The dead flow dependence table (Figure 4).
pub fn dead_flow_table(graph: &DepGraph<'_>, opts: &ReportOptions) -> String {
    let mut out =
        String::from("FROM                   TO                     dir/dist     status\n");
    for e in graph.dead_flows() {
        let _ = writeln!(out, "{}", format_edge(e, opts));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_program;
    use crate::config::Config;

    #[test]
    fn report_renders_rows_with_tags() {
        let program = tiny::Program::parse(tiny::corpus::EXAMPLE_2).unwrap();
        let info = tiny::analyze(&program).unwrap();
        let a = analyze_program(&info, &Config::extended()).unwrap();
        let graph = DepGraph::new(&info, &a);
        let opts = ReportOptions::default();
        let live = live_flow_table(&graph, &opts);
        let dead = dead_flow_table(&graph, &opts);
        assert!(live.contains("4: A(L2-1)"), "{live}");
        assert!(live.contains("[C"), "cover tag expected:\n{live}");
        assert!(dead.contains("1: A(M)"), "{dead}");
        assert!(
            dead.contains("[ k]") || dead.contains("[ c]"),
            "dead tags expected:\n{dead}"
        );
    }

    #[test]
    fn label_map_remaps() {
        let program = tiny::Program::parse("a(1) := 2; x := a(1);").unwrap();
        let info = tiny::analyze(&program).unwrap();
        let a = analyze_program(&info, &Config::extended()).unwrap();
        let graph = DepGraph::new(&info, &a);
        let opts = ReportOptions {
            label_map: Some(vec![0, 7, 9]),
        };
        let live = live_flow_table(&graph, &opts);
        assert!(live.contains("7: A(1)"), "{live}");
        assert!(live.contains("9: A(1)"), "{live}");
    }
}

/// Renders the full analysis as a JSON document (hand-rolled: the data is
/// flat and the crate stays dependency-free). Schema:
///
/// ```json
/// {
///   "flows": [ {"src": 1, "dst": 3, "srcAccess": "A(I)", "dstAccess": "A(I)",
///               "dir": "(0,1)", "status": "live", "tags": "[ r]"} , ...],
///   "antis": [...], "outputs": [...]
/// }
/// ```
pub fn to_json(graph: &DepGraph<'_>) -> String {
    use crate::dep::DepKind;

    let mut out = String::from("{\n");
    for (key, kind, last) in [
        ("flows", DepKind::Flow, false),
        ("antis", DepKind::Anti, false),
        ("outputs", DepKind::Output, true),
    ] {
        let edges: Vec<&Edge<'_>> = graph.edges_of_kind(kind).collect();
        out.push_str(&format!("  \"{key}\": [\n"));
        for (i, e) in edges.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"src\": {}, \"dst\": {}, \"srcAccess\": {}, \"dstAccess\": {}, \
                 \"dir\": {}, \"status\": {}, \"tags\": {}}}{}\n",
                e.src_label(),
                e.dst_label(),
                json_str(&e.src_access),
                json_str(&e.dst_access),
                json_str(&e.dir),
                json_str(if e.is_live() { "live" } else { "dead" }),
                json_str(e.tag.trim()),
                if i + 1 < edges.len() { "," } else { "" }
            ));
        }
        out.push_str(if last { "  ]\n" } else { "  ],\n" });
    }
    out.push_str("}\n");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod json_tests {
    use super::*;
    use crate::analysis::analyze_program;
    use crate::config::Config;

    #[test]
    fn json_is_well_formed_for_example_1() {
        let program = tiny::Program::parse(tiny::corpus::EXAMPLE_1).unwrap();
        let info = tiny::analyze(&program).unwrap();
        let a = analyze_program(&info, &Config::extended()).unwrap();
        let graph = DepGraph::new(&info, &a);
        let json = to_json(&graph);
        // Structural sanity without a JSON parser dependency.
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"flows\"").count(), 1);
        assert!(json.contains("\"status\": \"dead\""), "{json}");
        assert!(json.contains("\"tags\": \"[ k]\""), "{json}");
        // Balanced braces and brackets.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_str("x\\y"), "\"x\\\\y\"");
        assert_eq!(json_str("n\nl"), "\"n\\nl\"");
    }
}
