//! Property tests for the Presburger formula layer: random
//! quantifier-free formulas (and single-level bounded quantifiers) are
//! checked against a direct brute-force evaluator, on the in-repo
//! `harness` property framework.

use harness::prop::{check_value, check_with, Config, Shrink};
use harness::{prop_assert_eq, Rng};
use omega::{Constraint, Formula, LinExpr, Problem, VarId, VarKind};

const BOX: i64 = 3;

fn space2() -> (Problem, VarId, VarId) {
    let mut s = Problem::new();
    let x = s.add_var(VarKind::Input);
    let y = s.add_var(VarKind::Input);
    (s, x, y)
}

/// A random linear atom over (x, y).
#[derive(Debug, Clone)]
struct AtomSpec {
    a: i64,
    b: i64,
    c: i64,
    eq: bool,
}

/// A random quantifier-free formula tree (as a serializable spec).
#[derive(Debug, Clone)]
enum Spec {
    Atom(AtomSpec),
    And(Vec<Spec>),
    Or(Vec<Spec>),
    Not(Box<Spec>),
}

fn gen_atom(rng: &mut Rng) -> AtomSpec {
    AtomSpec {
        a: rng.gen_range_i64(-3..=3),
        b: rng.gen_range_i64(-3..=3),
        c: rng.gen_range_i64(-5..=5),
        eq: rng.gen_bool(0.25),
    }
}

/// Mirrors the old `prop_recursive(3, …)` distribution: at most 3
/// levels of connectives above the atoms.
fn gen_spec(rng: &mut Rng, depth: u32) -> Spec {
    if depth == 0 || rng.gen_bool(0.4) {
        return Spec::Atom(gen_atom(rng));
    }
    let n = rng.gen_range_usize(1..=2);
    match rng.gen_range_usize(0..=2) {
        0 => Spec::And((0..n).map(|_| gen_spec(rng, depth - 1)).collect()),
        1 => Spec::Or((0..n).map(|_| gen_spec(rng, depth - 1)).collect()),
        _ => Spec::Not(Box::new(gen_spec(rng, depth - 1))),
    }
}

fn shrink_spec(spec: &Spec) -> Vec<Spec> {
    match spec {
        Spec::Atom(a) => (a.a, a.b, a.c, a.eq)
            .shrink()
            .into_iter()
            .map(|(a, b, c, eq)| Spec::Atom(AtomSpec { a, b, c, eq }))
            .collect(),
        Spec::And(fs) => {
            let mut out = fs.clone();
            out.extend(
                harness::prop::shrink_vec(fs, shrink_spec, 1)
                    .into_iter()
                    .map(Spec::And),
            );
            out
        }
        Spec::Or(fs) => {
            let mut out = fs.clone();
            out.extend(
                harness::prop::shrink_vec(fs, shrink_spec, 1)
                    .into_iter()
                    .map(Spec::Or),
            );
            out
        }
        Spec::Not(f) => {
            let mut out = vec![(**f).clone()];
            out.extend(shrink_spec(f).into_iter().map(|s| Spec::Not(Box::new(s))));
            out
        }
    }
}

fn build(spec: &Spec, x: VarId, y: VarId) -> Formula {
    match spec {
        Spec::Atom(a) => {
            let e = LinExpr::term(a.a, x).plus_term(a.b, y).plus_const(a.c);
            if a.eq {
                Formula::Atom(Constraint::eq(e))
            } else {
                Formula::Atom(Constraint::geq(e))
            }
        }
        Spec::And(fs) => Formula::and(fs.iter().map(|f| build(f, x, y)).collect()),
        Spec::Or(fs) => Formula::or(fs.iter().map(|f| build(f, x, y)).collect()),
        Spec::Not(f) => Formula::not(build(f, x, y)),
    }
}

fn eval(spec: &Spec, xv: i64, yv: i64) -> bool {
    match spec {
        Spec::Atom(a) => {
            let v = a.a * xv + a.b * yv + a.c;
            if a.eq {
                v == 0
            } else {
                v >= 0
            }
        }
        Spec::And(fs) => fs.iter().all(|f| eval(f, xv, yv)),
        Spec::Or(fs) => fs.iter().any(|f| eval(f, xv, yv)),
        Spec::Not(f) => !eval(f, xv, yv),
    }
}

/// The formula `lo <= v <= hi` as atoms.
fn bounds(v: VarId, lo: i64, hi: i64) -> Formula {
    Formula::and(vec![
        Formula::geq0(LinExpr::var(v).plus_const(-lo)),
        Formula::geq0(LinExpr::term(-1, v).plus_const(hi)),
    ])
}

// ---- the properties, as replayable functions ----

/// Satisfiability of a box-bounded quantifier-free formula agrees with
/// brute force.
fn prop_quantifier_free_sat(spec: &Spec) -> Result<(), String> {
    let (s, x, y) = space2();
    let f = Formula::and(vec![
        bounds(x, -BOX, BOX),
        bounds(y, -BOX, BOX),
        build(spec, x, y),
    ]);
    let mut budget = omega::Budget::default();
    let solved = f.is_satisfiable(&s, &mut budget).unwrap();
    let brute = (-BOX..=BOX).any(|xv| (-BOX..=BOX).any(|yv| eval(spec, xv, yv)));
    prop_assert_eq!(solved, brute, "{:?}", spec);
    Ok(())
}

/// `∃y (bounded). f` agrees with brute force over x.
fn prop_bounded_existential(spec: &Spec) -> Result<(), String> {
    let (s, x, y) = space2();
    let f = Formula::and(vec![
        bounds(x, -BOX, BOX),
        Formula::exists(
            vec![y],
            Formula::and(vec![bounds(y, -BOX, BOX), build(spec, x, y)]),
        ),
    ]);
    let mut budget = omega::Budget::default();
    let solved = f.is_satisfiable(&s, &mut budget).unwrap();
    let brute = (-BOX..=BOX).any(|xv| (-BOX..=BOX).any(|yv| eval(spec, xv, yv)));
    prop_assert_eq!(solved, brute, "{:?}", spec);
    Ok(())
}

/// `∀x (bounded). ∃y (bounded). f` — the paper's query shape — agrees
/// with brute force.
fn prop_forall_exists_shape(spec: &Spec) -> Result<(), String> {
    let (s, x, y) = space2();
    let inner = Formula::exists(
        vec![y],
        Formula::and(vec![bounds(y, -BOX, BOX), build(spec, x, y)]),
    );
    // ∀x. (-BOX <= x <= BOX) ⇒ inner
    let f = Formula::forall(vec![x], bounds(x, -BOX, BOX).implies(inner));
    let mut budget = omega::Budget::default();
    // Deeply alternating formulas may hit the documented complexity
    // guard (negating a union whose pieces share wildcards needs full
    // Presburger QE); those conservative failures are skipped.
    let solved = match f.is_valid(&s, &mut budget) {
        Ok(v) => v,
        Err(omega::Error::TooComplex { .. }) => return Ok(()),
        Err(e) => return Err(format!("{e}")),
    };
    let brute = (-BOX..=BOX).all(|xv| (-BOX..=BOX).any(|yv| eval(spec, xv, yv)));
    prop_assert_eq!(solved, brute, "{:?}", spec);
    Ok(())
}

/// Validity is the dual of the negation's satisfiability.
fn prop_valid_iff_negation_unsat(spec: &Spec) -> Result<(), String> {
    let (s, x, y) = space2();
    let body = bounds(x, -BOX, BOX).implies(bounds(y, -BOX, BOX).implies(build(spec, x, y)));
    let mut budget = omega::Budget::default();
    let valid = body.is_valid(&s, &mut budget).unwrap();
    let neg_sat = Formula::not(body).is_satisfiable(&s, &mut budget).unwrap();
    prop_assert_eq!(valid, !neg_sat);
    Ok(())
}

// ---- random-case drivers ----

fn run(property: impl Fn(&Spec) -> Result<(), String>) {
    check_with(
        &Config::with_cases(192),
        |rng| gen_spec(rng, 3),
        shrink_spec,
        property,
    );
}

#[test]
fn quantifier_free_sat() {
    run(prop_quantifier_free_sat);
}

#[test]
fn bounded_existential() {
    run(prop_bounded_existential);
}

#[test]
fn forall_exists_shape() {
    run(prop_forall_exists_shape);
}

#[test]
fn valid_iff_negation_unsat() {
    run(prop_valid_iff_negation_unsat);
}

// ---- named regressions, ported from the historical proptest seed
// files (`formula_prop.proptest-regressions`) before they were deleted.
// Each recorded minimal witness is replayed through all four
// properties. ----

fn all_props(spec: &Spec) -> Result<(), String> {
    prop_quantifier_free_sat(spec)?;
    prop_bounded_existential(spec)?;
    prop_forall_exists_shape(spec)?;
    prop_valid_iff_negation_unsat(spec)
}

/// `cc a89ac490…`: shrank to `And([Atom { a: 1, b: 2, c: 0, eq: true }])`.
#[test]
fn regression_single_eq_atom_conjunction() {
    let spec = Spec::And(vec![Spec::Atom(AtomSpec {
        a: 1,
        b: 2,
        c: 0,
        eq: true,
    })]);
    check_value(&spec, all_props);
}

/// `cc 29fa8e06…`: shrank to `And([Atom { a: -3, b: -2, c: 0, eq: true }])`.
#[test]
fn regression_negative_coefficient_eq_atom() {
    let spec = Spec::And(vec![Spec::Atom(AtomSpec {
        a: -3,
        b: -2,
        c: 0,
        eq: true,
    })]);
    check_value(&spec, all_props);
}

// ---- the §4 fallback's shape: p ∧ ¬q₁ ∧ … ∧ ¬qₙ ----

/// A stride row `g | a·x + b·y + c`, stored in its conjunction as the
/// equality `a·x + b·y + c − g·w = 0` over a lone wildcard `w` (the `eq`
/// flag of `row` is unused).
#[derive(Debug, Clone)]
struct StrideSpec {
    row: AtomSpec,
    g: i64,
}

/// One conjunction over (x, y): linear rows plus an optional stride.
#[derive(Debug, Clone)]
struct ConjSpec {
    rows: Vec<AtomSpec>,
    stride: Option<StrideSpec>,
}

/// `p` (boxed to `[-BOX, BOX]²` when built, so brute force is exact)
/// and the `qᵢ` it is tested against.
#[derive(Debug, Clone)]
struct FallbackSpec {
    p: Vec<AtomSpec>,
    qs: Vec<ConjSpec>,
}

fn gen_conj(rng: &mut Rng) -> ConjSpec {
    let n = rng.gen_range_usize(2..=4);
    let mut rows: Vec<AtomSpec> = (0..n).map(|_| gen_atom(rng)).collect();
    let stride = rng.gen_bool(0.5).then(|| StrideSpec {
        row: rows.pop().expect("two rows or more"),
        g: rng.gen_range_i64(2..=4),
    });
    ConjSpec { rows, stride }
}

fn gen_fallback(rng: &mut Rng) -> FallbackSpec {
    let n = rng.gen_range_usize(2..=4);
    let p = (0..n).map(|_| gen_atom(rng)).collect();
    let n = rng.gen_range_usize(2..=6);
    FallbackSpec {
        p,
        qs: (0..n).map(|_| gen_conj(rng)).collect(),
    }
}

fn shrink_atom(a: &AtomSpec) -> Vec<AtomSpec> {
    (a.a, a.b, a.c, a.eq)
        .shrink()
        .into_iter()
        .map(|(a, b, c, eq)| AtomSpec { a, b, c, eq })
        .collect()
}

fn shrink_conj(q: &ConjSpec) -> Vec<ConjSpec> {
    let mut out = Vec::new();
    if let Some(s) = &q.stride {
        let mut smaller = vec![None];
        if s.g > 2 {
            smaller.push(Some(StrideSpec {
                g: s.g - 1,
                ..s.clone()
            }));
        }
        smaller.extend(
            shrink_atom(&s.row)
                .into_iter()
                .map(|row| Some(StrideSpec { row, g: s.g })),
        );
        out.extend(smaller.into_iter().map(|stride| ConjSpec {
            rows: q.rows.clone(),
            stride,
        }));
    }
    out.extend(
        harness::prop::shrink_vec(&q.rows, shrink_atom, 0)
            .into_iter()
            .map(|rows| ConjSpec {
                rows,
                stride: q.stride.clone(),
            }),
    );
    out
}

fn shrink_fallback(f: &FallbackSpec) -> Vec<FallbackSpec> {
    let mut out: Vec<FallbackSpec> = harness::prop::shrink_vec(&f.qs, shrink_conj, 1)
        .into_iter()
        .map(|qs| FallbackSpec { p: f.p.clone(), qs })
        .collect();
    out.extend(
        harness::prop::shrink_vec(&f.p, shrink_atom, 0)
            .into_iter()
            .map(|p| FallbackSpec {
                p,
                qs: f.qs.clone(),
            }),
    );
    out
}

fn atom_expr(a: &AtomSpec, x: VarId, y: VarId) -> LinExpr {
    LinExpr::term(a.a, x).plus_term(a.b, y).plus_const(a.c)
}

fn conj_problem(
    s: &Problem,
    rows: &[AtomSpec],
    stride: Option<&StrideSpec>,
    x: VarId,
    y: VarId,
) -> Problem {
    let mut p = s.clone();
    for a in rows {
        if a.eq {
            p.add_eq(atom_expr(a, x, y));
        } else {
            p.add_geq(atom_expr(a, x, y));
        }
    }
    if let Some(st) = stride {
        let w = p.add_var(VarKind::Wildcard);
        p.add_eq(atom_expr(&st.row, x, y).plus_term(-st.g, w));
    }
    p
}

fn conj_holds(rows: &[AtomSpec], stride: Option<&StrideSpec>, xv: i64, yv: i64) -> bool {
    rows.iter().all(|a| eval(&Spec::Atom(a.clone()), xv, yv))
        && stride.is_none_or(|st| (st.row.a * xv + st.row.b * yv + st.row.c) % st.g == 0)
}

/// `p ∧ ¬q₁ ∧ … ∧ ¬qₙ` — the query behind `omega::implies_union` — and
/// `implies_union` itself agree with brute force over the box, and with
/// the eager reference that builds the whole DNF before testing any piece.
fn prop_fallback_shape(f: &FallbackSpec) -> Result<(), String> {
    let (s, x, y) = space2();
    let mut rows = f.p.clone();
    for (a, b) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
        rows.push(AtomSpec {
            a,
            b,
            c: BOX,
            eq: false,
        });
    }
    let p = conj_problem(&s, &rows, None, x, y);
    let qs: Vec<Problem> =
        f.qs.iter()
            .map(|q| conj_problem(&s, &q.rows, q.stride.as_ref(), x, y))
            .collect();
    let mut space = p.clone();
    for q in &qs {
        space.extend_space_to(q).map_err(|e| e.to_string())?;
    }
    let mut parts = vec![Formula::from_problem(&p)];
    parts.extend(qs.iter().map(|q| Formula::not(Formula::from_problem(q))));
    let query = Formula::and(parts);
    let brute = (-BOX..=BOX).any(|xv| {
        (-BOX..=BOX).any(|yv| {
            conj_holds(&rows, None, xv, yv)
                && !f
                    .qs
                    .iter()
                    .any(|q| conj_holds(&q.rows, q.stride.as_ref(), xv, yv))
        })
    });

    let sat = query
        .is_satisfiable(&space, &mut omega::Budget::default())
        .map_err(|e| e.to_string())?;
    prop_assert_eq!(sat, brute, "is_satisfiable vs brute force");

    let implied =
        omega::implies_union(&p, &qs, &mut omega::Budget::default()).map_err(|e| e.to_string())?;
    prop_assert_eq!(implied, !brute, "implies_union vs brute force");

    // The eager reference, kept only here: the whole DNF, then any
    // satisfiable piece. Its product can be far larger than anything the
    // search visits, so a case whose product outgrows the budget skips
    // this comparison (the brute-force ones above still ran).
    let mut budget = omega::Budget::new(200_000);
    let eager = query.dnf(&space, &mut budget).and_then(|pieces| {
        pieces.iter().try_fold(false, |any, d| {
            Ok(any || d.is_satisfiable_with(&mut budget)?)
        })
    });
    match eager {
        Ok(v) => prop_assert_eq!(v, sat, "eager DNF reference vs search"),
        Err(omega::Error::TooComplex { .. }) => {}
        Err(e) => return Err(format!("eager reference: {e}")),
    }
    Ok(())
}

#[test]
fn fallback_shape_matches_brute_force_and_the_eager_dnf() {
    check_with(
        &Config::with_cases(512),
        gen_fallback,
        shrink_fallback,
        prop_fallback_shape,
    );
}

/// The first witness the property found: two strides negated in one
/// query. `¬(2 | −x) ∧ ¬(2 | 5)` holds at x = 1, but the two `g ∤ e`
/// expansions once shared their `α`, `ρ` columns, forcing `−x = 5`.
#[test]
fn regression_negated_strides_do_not_share_wildcards() {
    let stride = |a, c| ConjSpec {
        rows: vec![],
        stride: Some(StrideSpec {
            row: AtomSpec {
                a,
                b: 0,
                c,
                eq: false,
            },
            g: 2,
        }),
    };
    let spec = FallbackSpec {
        p: vec![],
        qs: vec![stride(-1, 0), stride(0, 5)],
    };
    check_value(&spec, prop_fallback_shape);
}
