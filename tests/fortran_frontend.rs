//! The FORTRAN frontend accepts the paper's Figure 2 verbatim and yields
//! the same analysis as the hand-translated tiny version: same statement
//! structure, same live/dead flow dependences, same Figures 3 and 4.

use std::collections::BTreeSet;

use depend::{analyze_program, Config};
use tiny::ast::name_key;
use tiny::{Affine, ProgramInfo, StmtInfo, Var};

/// Lowered bound pieces with every variable named again: the two front
/// ends number their symbols differently (the FORTRAN subroutine has
/// other parameters), so the forms compare by name.
fn named(info: &ProgramInfo, stmt: &StmtInfo, pieces: &Option<Vec<Affine>>) -> Option<Vec<String>> {
    let name = |v: Var| match v {
        Var::Sym(k) => info.syms.iter().nth(k as usize).unwrap().clone(),
        Var::Loop(d) => name_key(&stmt.loops[d as usize].var),
        Var::Scalar(s) => info.names[s as usize].clone(),
    };
    let render = |a: &Affine| {
        let terms: Vec<String> = a
            .terms
            .iter()
            .map(|&(v, c)| format!("{c}*{}", name(v)))
            .collect();
        format!("{} + {}", terms.join(" + "), a.constant)
    };
    pieces.as_ref().map(|p| p.iter().map(render).collect())
}

fn summarize(analysis: &depend::Analysis) -> (BTreeSet<String>, BTreeSet<String>) {
    let row = |d: &depend::Dependence| {
        format!(
            "{}->{} {} {}",
            d.src.label,
            d.dst.label,
            if d.common > 0 {
                d.summary().to_string()
            } else {
                String::new()
            },
            d.status_tag()
        )
    };
    (
        analysis.live_flows().map(row).collect(),
        analysis.dead_flows().map(row).collect(),
    )
}

#[test]
fn figure2_fortran_parses_to_nine_statements() {
    let program = tiny::fortran::parse(tiny::corpus::CHOLSKY_F77).unwrap();
    let info = tiny::analyze(&program).unwrap();
    assert_eq!(info.stmts.len(), 9);
    // Declared arrays with the negative-lower-bound extents.
    assert!(program.arrays.contains_key("a"));
    assert!(program.arrays.contains_key("b"));
    assert!(program.arrays.contains_key("epss"));
    assert_eq!(program.arrays["a"].dims.len(), 3);
}

#[test]
fn fortran_and_tiny_cholsky_have_identical_statement_structure() {
    let f = tiny::analyze(&tiny::fortran::parse(tiny::corpus::CHOLSKY_F77).unwrap()).unwrap();
    let t = tiny::analyze(&tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap()).unwrap();
    assert_eq!(f.stmts.len(), t.stmts.len());
    for (a, b) in f.stmts.iter().zip(&t.stmts) {
        assert_eq!(name_key(&a.write.array), name_key(&b.write.array));
        assert_eq!(a.loops.len(), b.loops.len(), "statement {}", a.label);
        for (la, lb) in a.loops.iter().zip(&b.loops) {
            assert_eq!(name_key(&la.var), name_key(&lb.var));
            assert_eq!(
                named(&f, a, &la.lower),
                named(&t, b, &lb.lower),
                "stmt {} loop {}",
                a.label,
                la.var
            );
            assert_eq!(
                named(&f, a, &la.upper),
                named(&t, b, &lb.upper),
                "stmt {} loop {}",
                a.label,
                la.var
            );
        }
        assert_eq!(
            a.reads.len(),
            b.reads.len(),
            "statement {}: {:?} vs {:?}",
            a.label,
            a.reads,
            b.reads
        );
        assert_eq!(a.common_loops(b), a.loops.len(), "same nesting path");
    }
}

#[test]
fn fortran_cholsky_reproduces_the_same_figures() {
    let f_info = tiny::analyze(&tiny::fortran::parse(tiny::corpus::CHOLSKY_F77).unwrap()).unwrap();
    let t_info = tiny::analyze(&tiny::Program::parse(tiny::corpus::CHOLSKY).unwrap()).unwrap();
    let f = analyze_program(&f_info, &Config::extended()).unwrap();
    let t = analyze_program(&t_info, &Config::extended()).unwrap();
    let (f_live, f_dead) = summarize(&f);
    let (t_live, t_dead) = summarize(&t);
    assert_eq!(f_live, t_live, "live flows must match the tiny translation");
    assert_eq!(f_dead, t_dead, "dead flows must match the tiny translation");
    assert_eq!(f_live.len(), 21, "Figure 3");
    assert_eq!(f_dead.len(), 14, "Figure 4");
}

#[test]
fn unnormalized_k_loop_matches_the_authors_hand_normalization() {
    // The Figure 2 header says: "1/28/92 W W PUGH ... NORMALIZED LOOP
    // THAT HAD STEP OF -1". Our frontend performs that normalization
    // automatically; the result must be equivalent to the hand-normalized
    // text — same statements, same dependences.
    let auto = tiny::analyze(
        &tiny::fortran::parse(tiny::corpus::CHOLSKY_SOLUTION_UNNORMALIZED_F77).unwrap(),
    )
    .unwrap();
    let hand = tiny::analyze(
        &tiny::fortran::parse(tiny::corpus::CHOLSKY_SOLUTION_NORMALIZED_F77).unwrap(),
    )
    .unwrap();
    assert_eq!(auto.stmts.len(), hand.stmts.len());

    let a = analyze_program(&auto, &Config::extended()).unwrap();
    let h = analyze_program(&hand, &Config::extended()).unwrap();
    let (a_live, a_dead) = summarize(&a);
    let (h_live, h_dead) = summarize(&h);
    assert_eq!(a_live, h_live, "live flows must coincide");
    assert_eq!(a_dead, h_dead, "dead flows must coincide");
}
