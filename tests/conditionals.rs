//! Integration tests for `if` guards: guard constraints participate in the
//! dependence problems, separating accesses that share subscripts but can
//! never touch the same elements.

use depend::{analyze_program, Config};
use tiny::{analyze, Program, Stmt};

fn run(src: &str) -> (tiny::ProgramInfo, depend::Analysis) {
    let program = Program::parse(src).unwrap();
    let info = analyze(&program).unwrap();
    let a = analyze_program(&info, &Config::extended()).unwrap();
    (info, a)
}

#[test]
fn parse_if_then_else() {
    let p = Program::parse(
        "
        sym n, k;
        for i := 1 to n do
          if i <= k then
            a(i) := 0;
          else
            b(i) := 1;
          endif
        endfor
        ",
    )
    .unwrap();
    let Stmt::For(f) = &p.stmts[0] else { panic!() };
    let Stmt::If(c) = &f.body[0] else { panic!() };
    assert_eq!(c.conds.len(), 1);
    assert_eq!(c.then_body.len(), 1);
    assert_eq!(c.else_body.len(), 1);
}

#[test]
fn guards_recorded_with_negation() {
    let info = analyze(
        &Program::parse(
            "
            sym n, k;
            for i := 1 to n do
              if i <= k then
                a(i) := 0;
              else
                a(i) := 1;
              endif
            endfor
            ",
        )
        .unwrap(),
    )
    .unwrap();
    assert_eq!(info.stmts.len(), 2);
    assert!(!info.stmts[0].guards[0].negated);
    assert!(info.stmts[1].guards[0].negated);
    // Both under the same loop.
    assert_eq!(info.stmts[0].common_loops(&info.stmts[1]), 1);
    assert!(info.stmts[0].lexically_before(&info.stmts[1]));
}

#[test]
fn disjoint_guard_ranges_eliminate_dependences() {
    // Then and else branches write the same subscripts, but the guards
    // are mutually exclusive within one iteration: no loop-independent
    // output dependence (and since the guard is loop-invariant here, no
    // carried one either).
    let (_, a) = run("
        sym n, k;
        for i := 1 to n do
          if i <= k then
            a(i) := 0;
          else
            a(i) := 1;
          endif
        endfor
        ");
    assert!(
        a.outputs.is_empty(),
        "guarded writes never overlap: {:?}",
        a.outputs.iter().map(|d| (d.src, d.dst)).collect::<Vec<_>>()
    );
}

#[test]
fn guard_constraints_refine_flow_sources() {
    // The read under `i >= k+1` can only see writes from iterations
    // with i <= k, i.e. the flow from the guarded write exists but is
    // carried; the reverse flow cannot exist.
    let (_, a) = run("
        sym n, k;
        for i := 1 to n do
          if i <= k then
            a(i) := 0;
          endif
        endfor
        for i := 1 to n do
          if i >= k+1 then
            x := a(i);
          endif
        endfor
        ");
    assert!(
        !a.flows.iter().any(|d| d.src.label == 1 && d.dst.label == 2),
        "write range [1,k] and read range [k+1,n] are disjoint"
    );
}

#[test]
fn boundary_guard_kills() {
    // A guarded re-initialization of the first element kills the original
    // write for that element only: the general flow survives.
    let (_, a) = run("
        sym n;
        for i := 1 to n do
          a(i) := 0;
          if i = 1 then
            a(i) := 7;
          endif
        endfor
        for i := 1 to n do
          x := a(i);
        endfor
        ");
    let d1 = a
        .flows
        .iter()
        .find(|d| d.src.label == 1 && d.dst.label == 3)
        .unwrap();
    assert!(
        d1.is_live(),
        "only a(1) is overwritten; a(2..n) still flows"
    );
    let d2 = a
        .flows
        .iter()
        .find(|d| d.src.label == 2 && d.dst.label == 3)
        .unwrap();
    assert!(d2.is_live());
}

#[test]
fn full_guard_coverage_kills() {
    // The guarded writes jointly cover the read, and the second write's
    // guard range alone kills the first's flow inside [1, k].
    let (_, a) = run("
        sym n, k;
        assume 1 <= k <= n;
        for i := 1 to n do
          a(i) := 0;
        endfor
        for i := 1 to n do
          a(i) := 1;
        endfor
        for i := 1 to n do
          x := a(i);
        endfor
        ");
    let d = a
        .flows
        .iter()
        .find(|d| d.src.label == 1 && d.dst.label == 3)
        .unwrap();
    assert!(!d.is_live(), "unguarded full overwrite still kills");
}

#[test]
fn pretty_printer_roundtrips_conditionals() {
    let src = "
        sym n, k;
        for i := 1 to n do
          if i <= k && i >= 2 then
            a(i) := 0;
          else
            a(i) := 1;
          endif
        endfor
    ";
    let p1 = Program::parse(src).unwrap();
    let printed = p1.to_string();
    let p2 = Program::parse(&printed).unwrap();
    assert_eq!(p1.stmts, p2.stmts, "{printed}");
}

#[test]
fn multi_condition_else_is_conservative() {
    // else of a 2-relation condition carries no constraint: the output
    // dependence must be (conservatively) assumed.
    let (_, a) = run("
        sym n, k;
        for i := 1 to n do
          if i <= k && i >= 2 then
            a(i) := 0;
          else
            a(i) := 1;
          endif
        endfor
        ");
    assert!(
        !a.outputs.is_empty(),
        "¬(p ∧ q) is disjunctive: the else branch is unconstrained"
    );
}
