//! Property test: random programs generated from the AST print to source
//! that parses back to the same AST (modulo statement labels, which are
//! assigned in source order and therefore preserved). Runs on the
//! in-repo `harness` property framework with hand-written AST shrinkers
//! (identifiers are never shrunk — that would minimize into parse
//! errors instead of the original bug).

use harness::prop::{check_value, check_with, Config};
use harness::{prop_assert_eq, Rng};
use tiny::ast::{Access, Assign, BinOp, Expr, ForLoop, IfStmt, Program, RelOp, Relation, Stmt};

fn gen_ident(rng: &mut Rng) -> String {
    // Avoid keywords; single letters with an index are safe.
    let letters = ["aa", "bb", "cc", "ii", "jj2", "kk"];
    format!("{}{}", rng.choose(&letters), rng.gen_range_usize(0..4))
}

/// Mirrors the old `prop_recursive(3, …)` expression distribution.
fn gen_expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.35) {
        return if rng.flip() {
            Expr::Int(rng.gen_range_i64(-9..=9))
        } else {
            Expr::Var(gen_ident(rng))
        };
    }
    match rng.gen_range_usize(0..=4) {
        0 => Expr::bin(
            BinOp::Add,
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1),
        ),
        1 => Expr::bin(
            BinOp::Sub,
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1),
        ),
        2 => Expr::bin(
            BinOp::Mul,
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1),
        ),
        // Mirror the parser: negated literals fold into the literal.
        3 => match gen_expr(rng, depth - 1) {
            Expr::Int(n) => Expr::Int(-n),
            other => Expr::Neg(Box::new(other)),
        },
        _ => {
            let n = rng.gen_range_usize(1..=2);
            Expr::Call(
                gen_ident(rng),
                (0..n).map(|_| gen_expr(rng, depth - 1)).collect(),
            )
        }
    }
}

fn gen_access(rng: &mut Rng) -> Access {
    let n = rng.gen_range_usize(0..=2);
    Access {
        array: gen_ident(rng),
        subs: (0..n).map(|_| gen_expr(rng, 3)).collect(),
    }
}

fn gen_relop(rng: &mut Rng) -> RelOp {
    *rng.choose(&[
        RelOp::Le,
        RelOp::Lt,
        RelOp::Ge,
        RelOp::Gt,
        RelOp::Eq,
        RelOp::Ne,
    ])
}

fn gen_assign(rng: &mut Rng) -> Stmt {
    Stmt::Assign(Assign {
        label: 0,
        lhs: gen_access(rng),
        rhs: gen_expr(rng, 3),
    })
}

/// Mirrors the old `prop_recursive(3, …)` statement distribution.
fn gen_stmt(rng: &mut Rng, depth: u32) -> Stmt {
    if depth == 0 || rng.gen_bool(0.4) {
        return gen_assign(rng);
    }
    if rng.flip() {
        let n = rng.gen_range_usize(1..=2);
        Stmt::For(ForLoop {
            var: gen_ident(rng),
            lower: gen_expr(rng, 2),
            upper: gen_expr(rng, 2),
            step: rng.gen_range_i64(1..=3),
            body: (0..n).map(|_| gen_stmt(rng, depth - 1)).collect(),
        })
    } else {
        let nt = rng.gen_range_usize(1..=2);
        let ne = rng.gen_range_usize(0..=1);
        Stmt::If(IfStmt {
            conds: vec![Relation {
                lhs: gen_expr(rng, 2),
                op: gen_relop(rng),
                rhs: gen_expr(rng, 2),
            }],
            then_body: (0..nt).map(|_| gen_stmt(rng, depth - 1)).collect(),
            else_body: (0..ne).map(|_| gen_stmt(rng, depth - 1)).collect(),
        })
    }
}

// ---- shrinkers (never touch identifiers) ----

fn shrink_expr(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Int(n) => {
            if *n == 0 {
                vec![]
            } else {
                vec![Expr::Int(0), Expr::Int(n / 2)]
            }
        }
        Expr::Var(_) => vec![Expr::Int(0)],
        Expr::Bin(_, a, b) => {
            let mut out = vec![(**a).clone(), (**b).clone()];
            out.extend(
                shrink_expr(a)
                    .into_iter()
                    .map(|s| Expr::Bin(binop_of(e), Box::new(s), b.clone())),
            );
            out.extend(
                shrink_expr(b)
                    .into_iter()
                    .map(|s| Expr::Bin(binop_of(e), a.clone(), Box::new(s))),
            );
            out
        }
        Expr::Neg(inner) => {
            let mut out = vec![(**inner).clone()];
            out.extend(shrink_expr(inner).into_iter().map(|s| match s {
                Expr::Int(n) => Expr::Int(-n),
                other => Expr::Neg(Box::new(other)),
            }));
            out
        }
        Expr::Call(name, args) => {
            let mut out: Vec<Expr> = args.to_vec();
            out.extend(
                harness::prop::shrink_vec(args, shrink_expr, 1)
                    .into_iter()
                    .map(|a| Expr::Call(name.clone(), a)),
            );
            out
        }
    }
}

fn binop_of(e: &Expr) -> BinOp {
    match e {
        Expr::Bin(op, _, _) => *op,
        _ => unreachable!("binop_of on non-binary expression"),
    }
}

fn shrink_stmt(s: &Stmt) -> Vec<Stmt> {
    match s {
        Stmt::Assign(a) => {
            let mut out = Vec::new();
            out.extend(
                harness::prop::shrink_vec(&a.lhs.subs, shrink_expr, 0)
                    .into_iter()
                    .map(|subs| {
                        Stmt::Assign(Assign {
                            label: a.label,
                            lhs: Access {
                                array: a.lhs.array.clone(),
                                subs,
                            },
                            rhs: a.rhs.clone(),
                        })
                    }),
            );
            out.extend(shrink_expr(&a.rhs).into_iter().map(|rhs| {
                Stmt::Assign(Assign {
                    label: a.label,
                    lhs: a.lhs.clone(),
                    rhs,
                })
            }));
            out
        }
        Stmt::For(f) => {
            let mut out: Vec<Stmt> = f.body.to_vec();
            out.extend(
                harness::prop::shrink_vec(&f.body, shrink_stmt, 1)
                    .into_iter()
                    .map(|body| Stmt::For(ForLoop { body, ..f.clone() })),
            );
            out.extend(
                shrink_expr(&f.lower)
                    .into_iter()
                    .map(|lower| Stmt::For(ForLoop { lower, ..f.clone() })),
            );
            out.extend(
                shrink_expr(&f.upper)
                    .into_iter()
                    .map(|upper| Stmt::For(ForLoop { upper, ..f.clone() })),
            );
            out
        }
        Stmt::If(i) => {
            let mut out: Vec<Stmt> = i.then_body.iter().chain(&i.else_body).cloned().collect();
            out.extend(
                harness::prop::shrink_vec(&i.then_body, shrink_stmt, 1)
                    .into_iter()
                    .map(|then_body| {
                        Stmt::If(IfStmt {
                            then_body,
                            ..i.clone()
                        })
                    }),
            );
            out.extend(
                harness::prop::shrink_vec(&i.else_body, shrink_stmt, 0)
                    .into_iter()
                    .map(|else_body| {
                        Stmt::If(IfStmt {
                            else_body,
                            ..i.clone()
                        })
                    }),
            );
            out
        }
    }
}

/// Renumbers labels in source order, mirroring what the parser does.
fn renumber(stmts: &mut [Stmt], next: &mut usize) {
    for s in stmts {
        match s {
            Stmt::For(f) => renumber(&mut f.body, next),
            Stmt::If(i) => {
                renumber(&mut i.then_body, next);
                renumber(&mut i.else_body, next);
            }
            Stmt::Assign(a) => {
                a.label = *next;
                *next += 1;
            }
        }
    }
}

/// The property: printing then reparsing reproduces the statement list.
fn prop_roundtrip(stmts: &Vec<Stmt>) -> Result<(), String> {
    let mut program = Program {
        stmts: stmts.clone(),
        ..Program::default()
    };
    let mut next = 1;
    renumber(&mut program.stmts, &mut next);
    let printed = program.to_string();
    let reparsed =
        Program::parse(&printed).map_err(|e| format!("reparse failed: {e}\n{printed}"))?;
    prop_assert_eq!(&program.stmts, &reparsed.stmts, "\n{}", printed);
    Ok(())
}

#[test]
fn print_parse_roundtrip() {
    check_with(
        &Config::with_cases(256),
        |rng| {
            let n = rng.gen_range_usize(1..=3);
            (0..n).map(|_| gen_stmt(rng, 3)).collect::<Vec<_>>()
        },
        |stmts| harness::prop::shrink_vec(stmts, shrink_stmt, 1),
        prop_roundtrip,
    );
}

// ---- named regressions, ported from the historical proptest seed file
// (`roundtrip_prop.proptest-regressions`) before it was deleted. ----

/// `cc c958e809…`: a subscript-free assignment whose right-hand side
/// folds `-1 + 0`; shrank to
/// `aa0 := (-1) + 0` (printing once lost the parenthesized literal).
#[test]
fn regression_negative_literal_in_addition() {
    let stmts = vec![Stmt::Assign(Assign {
        label: 0,
        lhs: Access {
            array: "aa0".to_string(),
            subs: vec![],
        },
        rhs: Expr::bin(BinOp::Add, Expr::Int(-1), Expr::Int(0)),
    })];
    check_value(&stmts, prop_roundtrip);
}

/// `cc 19312929…`: a `for` whose body assigns through a
/// nested-parenthesized zero subscript; shrank to
/// `for aa0 := 0 to 0 do aa0(0 + (0 + 0)) := 0`.
#[test]
fn regression_nested_zero_subscript_in_loop() {
    let stmts = vec![Stmt::For(ForLoop {
        var: "aa0".to_string(),
        lower: Expr::Int(0),
        upper: Expr::Int(0),
        step: 1,
        body: vec![Stmt::Assign(Assign {
            label: 0,
            lhs: Access {
                array: "aa0".to_string(),
                subs: vec![Expr::bin(
                    BinOp::Add,
                    Expr::Int(0),
                    Expr::bin(BinOp::Add, Expr::Int(0), Expr::Int(0)),
                )],
            },
            rhs: Expr::Int(0),
        })],
    })];
    check_value(&stmts, prop_roundtrip);
}
