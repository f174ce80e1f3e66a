//! Pretty-printer: renders a [`Program`] back to parseable source, with
//! optional per-statement annotations (`!$ ...` comment lines) keyed by
//! tree path — the hook the `tinydep --parallelize` report uses to print
//! loop verdicts above the loops they describe.

use std::collections::BTreeMap;
use std::fmt;

use crate::ast::{Program, Stmt};

/// Comment lines attached to statements by tree path (the same
/// root-to-statement index path `sema` records in `StmtInfo::path` /
/// `LoopRef::path`), rendered by [`render_annotated`] as `!$ ...` lines
/// immediately before the statement, at its indentation.
#[derive(Debug, Clone, Default)]
pub struct Annotations {
    by_path: BTreeMap<Vec<usize>, Vec<String>>,
}

impl Annotations {
    /// Creates an empty annotation set.
    pub fn new() -> Annotations {
        Annotations::default()
    }

    /// Attaches one comment line (without the `!$ ` marker) to the
    /// statement at `path`. Multiple lines on one path print in
    /// insertion order.
    pub fn push(&mut self, path: &[usize], line: impl Into<String>) {
        self.by_path
            .entry(path.to_vec())
            .or_default()
            .push(line.into());
    }

    /// True when no annotation was attached.
    pub fn is_empty(&self) -> bool {
        self.by_path.is_empty()
    }

    fn lines_at(&self, path: &[usize]) -> &[String] {
        self.by_path.get(path).map_or(&[], Vec::as_slice)
    }
}

/// Renders `program` like its `Display` impl, with `annotations`
/// interleaved as `!$ ...` comment lines before the statements they
/// name. With empty annotations the output is byte-identical to
/// `program.to_string()`.
pub fn render_annotated(program: &Program, annotations: &Annotations) -> String {
    let mut out = String::new();
    write_program(&mut out, program, annotations).expect("fmt::Write on String cannot fail");
    out
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_program(f, self, &Annotations::default())
    }
}

fn write_program<W: fmt::Write>(f: &mut W, program: &Program, ann: &Annotations) -> fmt::Result {
    if !program.syms.is_empty() {
        writeln!(f, "sym {};", program.syms.join(", "))?;
    }
    for decl in program.arrays.values() {
        write!(f, "real {}", decl.name)?;
        if !decl.dims.is_empty() {
            write!(f, "[")?;
            for (i, (lo, hi)) in decl.dims.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{lo}:{hi}")?;
            }
            write!(f, "]")?;
        }
        writeln!(f, ";")?;
    }
    for r in &program.assumptions {
        writeln!(f, "assume {} {} {};", r.lhs, r.op, r.rhs)?;
    }
    let mut path = Vec::new();
    for (i, s) in program.stmts.iter().enumerate() {
        path.push(i);
        write_stmt(f, s, 0, &mut path, ann)?;
        path.pop();
    }
    Ok(())
}

/// Writes one statement at `indent`, preceded by its annotation lines.
/// `path` mirrors the traversal `sema::flatten` performs: the statement
/// index in each body list, with `0`/`1` selecting an `if`'s then/else
/// branch.
fn write_stmt<W: fmt::Write>(
    f: &mut W,
    s: &Stmt,
    indent: usize,
    path: &mut Vec<usize>,
    ann: &Annotations,
) -> fmt::Result {
    let pad = "  ".repeat(indent);
    for line in ann.lines_at(path) {
        writeln!(f, "{pad}!$ {line}")?;
    }
    match s {
        Stmt::For(l) => {
            write!(f, "{pad}for {} := {} to {}", l.var, l.lower, l.upper)?;
            if l.step != 1 {
                write!(f, " step {}", l.step)?;
            }
            writeln!(f, " do")?;
            for (i, b) in l.body.iter().enumerate() {
                path.push(i);
                write_stmt(f, b, indent + 1, path, ann)?;
                path.pop();
            }
            writeln!(f, "{pad}endfor")
        }
        Stmt::If(i) => {
            let conds = i
                .conds
                .iter()
                .map(|r| format!("{} {} {}", r.lhs, r.op, r.rhs))
                .collect::<Vec<_>>()
                .join(" && ");
            writeln!(f, "{pad}if {conds} then")?;
            path.push(0);
            for (j, b) in i.then_body.iter().enumerate() {
                path.push(j);
                write_stmt(f, b, indent + 1, path, ann)?;
                path.pop();
            }
            path.pop();
            if !i.else_body.is_empty() {
                writeln!(f, "{pad}else")?;
                path.push(1);
                for (j, b) in i.else_body.iter().enumerate() {
                    path.push(j);
                    write_stmt(f, b, indent + 1, path, ann)?;
                    path.pop();
                }
                path.pop();
            }
            writeln!(f, "{pad}endif")
        }
        Stmt::Assign(a) => writeln!(f, "{pad}{} := {};", a.lhs, a.rhs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;

    #[test]
    fn roundtrips_through_parser() {
        for entry in crate::corpus::all() {
            let p1 = Program::parse(entry.source).unwrap();
            let printed = p1.to_string();
            let p2 = Program::parse(&printed)
                .unwrap_or_else(|e| panic!("{} reprint failed: {e}\n{printed}", entry.name));
            // Statement structure must be preserved (labels are assigned
            // in source order, which printing preserves).
            assert_eq!(p1.stmts, p2.stmts, "{}", entry.name);
            assert_eq!(p1.syms, p2.syms, "{}", entry.name);
        }
    }

    #[test]
    fn prints_step_only_when_nontrivial() {
        let p = Program::parse("for i := 1 to n step 2 do a(i) := 0; endfor").unwrap();
        assert!(p.to_string().contains("step 2"));
        let q = Program::parse("for i := 1 to n do a(i) := 0; endfor").unwrap();
        assert!(!q.to_string().contains("step"));
    }

    #[test]
    fn empty_annotations_match_display() {
        for entry in crate::corpus::all() {
            let p = Program::parse(entry.source).unwrap();
            assert_eq!(
                render_annotated(&p, &Annotations::new()),
                p.to_string(),
                "{}",
                entry.name
            );
        }
    }

    #[test]
    fn annotations_print_before_their_statement_at_its_indent() {
        let p = Program::parse(
            "sym n;\nfor i := 1 to n do\n  for j := 1 to n do\n    a(i, j) := 0;\n  endfor\nendfor",
        )
        .unwrap();
        let mut ann = Annotations::new();
        ann.push(&[0], "PARALLELIZABLE");
        ann.push(&[0, 0], "inner verdict");
        ann.push(&[0, 0], "second line");
        let out = render_annotated(&p, &ann);
        assert_eq!(
            out,
            "sym n;\n!$ PARALLELIZABLE\nfor i := 1 to n do\n  !$ inner verdict\n  \
             !$ second line\n  for j := 1 to n do\n    a(i,j) := 0;\n  endfor\nendfor\n"
        );
    }

    #[test]
    fn annotation_paths_match_sema_paths() {
        // The paths sema computes for loops must address the same
        // statements the pretty-printer walks (if branches included).
        let src = "
            sym n;
            for i := 1 to n do
              if i <= 4 then
                for j := 1 to n do
                  a(i, j) := 0;
                endfor
              endif
            endfor
        ";
        let p = Program::parse(src).unwrap();
        let info = crate::analyze(&p).unwrap();
        let stmt = &info.stmts[0];
        // Inner j loop: its path entry is recorded at loop_path_idx[1].
        let j_path = &stmt.path[..=stmt.loop_path_idx[1]];
        let mut ann = Annotations::new();
        ann.push(j_path, "J-LOOP");
        let out = render_annotated(&p, &ann);
        let j_line = out
            .lines()
            .position(|l| l.trim_start().starts_with("for j"))
            .unwrap();
        assert_eq!(
            out.lines().nth(j_line - 1).unwrap().trim_start(),
            "!$ J-LOOP"
        );
    }
}
