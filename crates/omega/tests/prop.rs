//! Property-based tests for the Omega test core, cross-checked against
//! brute-force enumeration on small boxes. Runs on the in-repo
//! `harness` property framework; each property is a plain function so
//! the named regression tests at the bottom can replay historical
//! failure witnesses exactly.

use harness::prop::{check, Config};
use harness::{prop_assert, prop_assert_eq, Rng};
use omega::{gist, implies, LinExpr, Problem, VarId, VarKind};

const BOX: i64 = 4;

/// One random constraint: coefficients + constant; `is_eq` selects
/// equality.
type Row = (Vec<i64>, i64, bool);

/// Builds a problem over `nvars` input variables confined to
/// `[-BOX, BOX]^n`, with the given random constraint rows.
fn build(nvars: usize, rows: &[Row]) -> Problem {
    let mut p = Problem::new();
    let vars: Vec<_> = (0..nvars).map(|_| p.add_var(VarKind::Input)).collect();
    for &v in &vars {
        p.add_geq(LinExpr::var(v).plus_const(BOX));
        p.add_geq(LinExpr::term(-1, v).plus_const(BOX));
    }
    for (coeffs, k, is_eq) in rows {
        let mut e = LinExpr::constant_expr(*k);
        for (i, &c) in coeffs.iter().enumerate() {
            if i < nvars {
                e.set_coef(vars[i], c);
            }
        }
        if *is_eq {
            p.add_eq(e);
        } else {
            p.add_geq(e);
        }
    }
    p
}

/// All points of the box, as dense assignments.
fn box_points(nvars: usize) -> Vec<Vec<i64>> {
    let mut pts: Vec<Vec<i64>> = vec![vec![]];
    for _ in 0..nvars {
        let mut next = Vec::new();
        for p in &pts {
            for v in -BOX..=BOX {
                let mut q = p.clone();
                q.push(v);
                next.push(q);
            }
        }
        pts = next;
    }
    pts
}

/// A row over `width` variables, coefficients in `[-coef, coef]`, an
/// equality with probability `eq`.
fn gen_row(rng: &mut Rng, width: usize, coef: i64, eq: f64) -> Row {
    (
        (0..width)
            .map(|_| rng.gen_range_i64(-coef..=coef))
            .collect(),
        rng.gen_range_i64(-8..=8),
        rng.gen_bool(eq),
    )
}

/// 1 to `max` (inclusive) random rows.
fn gen_rows(rng: &mut Rng, max: usize) -> Vec<Row> {
    let n = rng.gen_range_usize(1..=max);
    (0..n).map(|_| gen_row(rng, 3, 5, 0.3)).collect()
}

/// The four-variable shape the brute-force oracle must cover: up to
/// eight rows, coefficients in `[-3, 3]`, a quarter of them equalities.
fn gen_wide_rows(rng: &mut Rng) -> Vec<Row> {
    let n = rng.gen_range_usize(1..=8);
    (0..n).map(|_| gen_row(rng, 4, 3, 0.25)).collect()
}

/// Two to four rows over three variables, coefficients in `[-7, 7]`, a
/// tenth of them equalities: steep enough that Fourier–Motzkin steps are
/// inexact and the dark shadow misses points only splinters find.
fn gen_steep_rows(rng: &mut Rng) -> Vec<Row> {
    let n = rng.gen_range_usize(2..=4);
    (0..n).map(|_| gen_row(rng, 3, 7, 0.1)).collect()
}

// ---- the properties, as replayable functions ----

/// Satisfiability agrees with brute force over the box.
fn prop_sat(rows: &[Row], nvars: usize) -> Result<(), String> {
    let p = build(nvars, rows);
    let brute = box_points(nvars).iter().any(|pt| p.satisfies(pt));
    let solved = p.is_satisfiable().unwrap();
    prop_assert_eq!(solved, brute, "problem: {}", p);
    Ok(())
}

/// Normalization preserves the solution set.
fn prop_normalize(rows: &[Row], nvars: usize) -> Result<(), String> {
    let p = build(nvars, rows);
    let mut q = p.clone();
    q.normalize().unwrap();
    for pt in box_points(nvars) {
        prop_assert_eq!(p.satisfies(&pt), q.satisfies(&pt), "at {:?}", pt);
    }
    Ok(())
}

/// Projection onto the first `nkeep` variables matches brute-forced
/// shadows: a point is in the union of projection pieces iff some
/// completion satisfies the original problem.
fn prop_projection(rows: &[Row], nvars: usize, nkeep: usize) -> Result<(), String> {
    let p = build(nvars, rows);
    let keep: Vec<_> = p.var_ids().take(nkeep).collect();
    let proj = p.project(&keep).unwrap();
    let completions = box_points(nvars - nkeep);
    for x in box_points(nkeep) {
        let brute = completions.iter().any(|rest| {
            let mut pt = x.clone();
            pt.extend(rest);
            p.satisfies(&pt)
        });
        let union = proj.problems().any(|piece| {
            let mut q = piece.clone();
            for (&v, &xv) in keep.iter().zip(&x) {
                q.add_eq(LinExpr::var(v).plus_const(-xv));
            }
            q.is_satisfiable().unwrap()
        });
        prop_assert_eq!(union, brute, "x = {:?}, problem {}", x, p);
    }
    Ok(())
}

/// Gist semantics: (gist p given q) ∧ q  ≡  p ∧ q, pointwise.
fn prop_gist(rows_p: &[Row], rows_q: &[Row]) -> Result<(), String> {
    let nvars = 2;
    let p = build(nvars, rows_p);
    let q = build(nvars, rows_q);
    let g = gist(&p, &q).unwrap();
    for pt in box_points(nvars) {
        let lhs = g.satisfies(&pt) && q.satisfies(&pt);
        let rhs = p.satisfies(&pt) && q.satisfies(&pt);
        prop_assert_eq!(lhs, rhs, "at {:?}: gist {}", pt, g);
    }
    Ok(())
}

/// Implication agrees with brute force. Note `implies` quantifies over
/// all integers while brute force only sees the box; both problems
/// embed the same box constraints, so the answers must coincide.
fn prop_implies(rows_p: &[Row], rows_q: &[Row]) -> Result<(), String> {
    let nvars = 2;
    let p = build(nvars, rows_p);
    let q = build(nvars, rows_q);
    let brute = box_points(nvars)
        .iter()
        .all(|pt| !p.satisfies(pt) || q.satisfies(pt));
    let solved = implies(&p, &q).unwrap();
    prop_assert_eq!(solved, brute, "p {} q {}", p, q);
    Ok(())
}

/// Witness extraction agrees with satisfiability, and every witness
/// actually satisfies the problem.
fn prop_witness(rows: &[Row], nvars: usize) -> Result<(), String> {
    let p = build(nvars, rows);
    let sat = p.is_satisfiable().unwrap();
    let sol = p.sample_solution().unwrap();
    prop_assert_eq!(sat, sol.is_some(), "sample/sat mismatch on {}", p);
    if let Some(sol) = sol {
        let mut dense = vec![
            0i64;
            p.num_vars()
                .max(sol.keys().map(|v| v.index() + 1).max().unwrap_or(0))
        ];
        for (v, c) in &sol {
            dense[v.index()] = *c;
        }
        prop_assert!(p.satisfies(&dense), "witness fails {}", p);
    }
    Ok(())
}

/// The real shadow over-approximates and the dark shadow
/// under-approximates the projection.
fn prop_shadow_sandwich(rows: &[Row]) -> Result<(), String> {
    let nvars = 3;
    let p = build(nvars, rows);
    let keep = VarId::from_index(0);
    let proj = p.project(&[keep]).unwrap();
    for x in -BOX..=BOX {
        let brute = box_points(nvars - 1).iter().any(|rest| {
            let mut pt = vec![x];
            pt.extend(rest);
            p.satisfies(&pt)
        });
        // dark ⊆ projection
        let mut d = proj.dark().clone();
        d.add_eq(LinExpr::var(keep).plus_const(-x));
        if d.is_satisfiable().unwrap() {
            prop_assert!(brute, "dark shadow contains x={} not in projection", x);
        }
        // projection ⊆ real
        if brute {
            let mut r = proj.real().clone();
            r.add_eq(LinExpr::var(keep).plus_const(-x));
            prop_assert!(r.is_satisfiable().unwrap(), "real shadow misses x={}", x);
        }
    }
    Ok(())
}

// ---- random-case drivers ----

#[test]
fn sat_matches_brute_force() {
    check(
        &Config::with_cases(256),
        |rng| (gen_rows(rng, 3), rng.gen_range_usize(1..=3)),
        |(rows, nvars)| prop_sat(rows, (*nvars).clamp(1, 3)),
    );
}

#[test]
fn normalize_preserves_solutions() {
    check(
        &Config::with_cases(256),
        |rng| (gen_rows(rng, 3), rng.gen_range_usize(1..=3)),
        |(rows, nvars)| prop_normalize(rows, (*nvars).clamp(1, 3)),
    );
}

#[test]
fn projection_matches_brute_force() {
    check(
        &Config::with_cases(256),
        |rng| (gen_rows(rng, 2), rng.gen_range_usize(2..=3)),
        |(rows, nvars)| prop_projection(rows, (*nvars).clamp(2, 3), 1),
    );
}

#[test]
fn gist_semantics() {
    check(
        &Config::with_cases(256),
        |rng| (gen_rows(rng, 2), gen_rows(rng, 2)),
        |(rows_p, rows_q)| prop_gist(rows_p, rows_q),
    );
}

#[test]
fn implies_matches_brute_force() {
    check(
        &Config::with_cases(256),
        |rng| (gen_rows(rng, 2), gen_rows(rng, 2)),
        |(rows_p, rows_q)| prop_implies(rows_p, rows_q),
    );
}

#[test]
fn witness_agrees_with_sat() {
    check(
        &Config::with_cases(256),
        |rng| (gen_rows(rng, 3), rng.gen_range_usize(1..=3)),
        |(rows, nvars)| prop_witness(rows, (*nvars).clamp(1, 3)),
    );
}

#[test]
fn shadow_sandwich() {
    check(
        &Config::with_cases(256),
        |rng| gen_rows(rng, 2),
        |rows| prop_shadow_sandwich(rows),
    );
}

// The brute-force oracle for the solver kernel at the widest shape it
// can enumerate: four variables over `[-BOX, BOX]^4`, up to eight rows.

#[test]
fn wide_sat_matches_brute_force() {
    check(&Config::with_cases(128), gen_wide_rows, |rows| {
        prop_sat(rows, 4)
    });
}

#[test]
fn wide_projection_onto_two_variables_matches_brute_force() {
    check(&Config::with_cases(96), gen_wide_rows, |rows| {
        prop_projection(rows, 4, 2)
    });
}

#[test]
fn wide_witness_agrees_with_sat() {
    check(&Config::with_cases(128), gen_wide_rows, |rows| {
        prop_witness(rows, 4)
    });
}

// The same oracle on steep rows, whose splinters must be built and
// searched.

#[test]
fn steep_sat_matches_brute_force() {
    check(&Config::with_cases(256), gen_steep_rows, |rows| {
        prop_sat(rows, 3)
    });
}

#[test]
fn steep_projection_matches_brute_force() {
    check(&Config::with_cases(128), gen_steep_rows, |rows| {
        prop_projection(rows, 3, 1)
    });
}

#[test]
fn steep_witness_agrees_with_sat() {
    check(&Config::with_cases(256), gen_steep_rows, |rows| {
        prop_witness(rows, 3)
    });
}

// ---- named regressions, ported from the historical proptest seed
// files (`prop.proptest-regressions`) before they were deleted. Each is
// the recorded minimal witness, replayed through every property whose
// input shape it matches. ----

/// `cc d2f788bc…`: shrank to `rows = [([2, -5, 0], 0, true)], nvars = 2`.
#[test]
fn regression_single_eq_row_two_vars() {
    let rows: Vec<Row> = vec![(vec![2, -5, 0], 0, true)];
    harness::prop::check_value(&(rows, 2usize), |(rows, nvars)| {
        prop_sat(rows, *nvars)?;
        prop_normalize(rows, *nvars)?;
        prop_projection(rows, *nvars, 1)?;
        prop_witness(rows, *nvars)
    });
}

/// `cc c55b9dc7…`: shrank to `rows = [([2, 0, -5], 0, true)]` in the
/// fixed-arity (3-variable) shadow-sandwich property.
#[test]
fn regression_single_eq_row_shadow_sandwich() {
    let rows: Vec<Row> = vec![(vec![2, 0, -5], 0, true)];
    harness::prop::check_value(&rows, |rows| {
        prop_shadow_sandwich(rows)?;
        prop_sat(rows, 3)?;
        prop_normalize(rows, 3)?;
        prop_witness(rows, 3)
    });
}

/// Regression: `set_coef(v, 0)` used to leave trailing zeros in the
/// dense coefficient vector, so logically equal expressions compared
/// unequal and hashed differently — poisoning any map keyed on
/// expressions (the memo cache in particular).
#[test]
fn regression_trailing_zero_equality_and_hash() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    let mut p = Problem::new();
    let x = p.add_var(VarKind::Input);
    let y = p.add_var(VarKind::Input);
    let z = p.add_var(VarKind::Input);

    // x + 2z, then zero out the z coefficient: must equal plain x.
    let mut a = LinExpr::var(x);
    a.set_coef(z, 2);
    a.set_coef(z, 0);
    let b = LinExpr::var(x);
    assert_eq!(a, b);
    let hash = |e: &LinExpr| {
        let mut h = DefaultHasher::new();
        e.hash(&mut h);
        h.finish()
    };
    assert_eq!(hash(&a), hash(&b));

    // Cancellation through arithmetic must trim too: (x + y) - y == x.
    let mut c = LinExpr::var(x).plus_term(1, y);
    c.add_scaled(-1, &LinExpr::var(y)).unwrap();
    assert_eq!(c, LinExpr::var(x));
    assert_eq!(hash(&c), hash(&LinExpr::var(x)));
}

/// The same bug at the problem level: two problems whose constraints
/// differ only by a zeroed-out trailing coefficient must produce the
/// same canonical memo key, i.e. warm solves must actually hit.
#[test]
fn regression_trailing_zero_reaches_the_memo_cache() {
    use std::sync::Arc;

    let mk = |zero_via_set_coef: bool| {
        let mut p = Problem::new();
        let x = p.add_var(VarKind::Input);
        let z = p.add_var(VarKind::Input);
        let mut e = LinExpr::var(x).plus_const(-1);
        if zero_via_set_coef {
            e.set_coef(z, 3);
            e.set_coef(z, 0);
        }
        p.add_geq(e);
        p.add_geq(LinExpr::var(z));
        p
    };
    let cache = Arc::new(omega::SolverCache::new());
    let mut b1 = omega::Budget::default().with_cache(cache.clone());
    let r1 = mk(false).is_satisfiable_with(&mut b1).unwrap();
    let mut b2 = omega::Budget::default().with_cache(cache.clone());
    let r2 = mk(true).is_satisfiable_with(&mut b2).unwrap();
    assert_eq!(r1, r2);
    assert_eq!(cache.stats().hits, 1, "{:?}", cache.stats());
}

// ---- memo-cache properties ----

/// Caching is invisible in two senses: cached verdicts are semantically
/// equal to cold verdicts, and a cache *hit* is indistinguishable from
/// the *miss* that populated it — same value, same budget consumption —
/// so results never depend on which thread or pair computed a key first.
#[test]
fn cached_solves_match_cold_solves() {
    use std::sync::Arc;

    let hits_seen = std::cell::Cell::new(0u64);
    check(
        &Config::with_cases(128),
        |rng| (gen_rows(rng, 3), rng.gen_range_usize(1..=3)),
        |(rows, nvars)| {
            let nvars = (*nvars).clamp(1, 3);
            let p = build(nvars, rows);
            let cache = Arc::new(omega::SolverCache::new());

            // Sat: cold == miss == hit, and miss/hit spend identically.
            let cold_sat = p.is_satisfiable().unwrap();
            let mut miss = omega::Budget::default().with_cache(cache.clone());
            prop_assert_eq!(cold_sat, p.is_satisfiable_with(&mut miss).unwrap());
            let mut hit = omega::Budget::default().with_cache(cache.clone());
            prop_assert_eq!(cold_sat, p.is_satisfiable_with(&mut hit).unwrap());
            prop_assert_eq!(
                miss.remaining(),
                hit.remaining(),
                "hit/miss budgets diverged on {}",
                p
            );

            // Projection: the hit returns the exact value the miss
            // computed, which is semantically equal to the cold result.
            let keep = VarId::from_index(0);
            let cold_proj = p.project(&[keep]).unwrap();
            let mut miss = omega::Budget::default().with_cache(cache.clone());
            let miss_proj = p.project_with(&[keep], &mut miss).unwrap();
            let mut hit = omega::Budget::default().with_cache(cache.clone());
            let hit_proj = p.project_with(&[keep], &mut hit).unwrap();
            prop_assert_eq!(miss.remaining(), hit.remaining());
            prop_assert_eq!(cold_proj.is_exact(), miss_proj.is_exact());
            prop_assert_eq!(miss_proj.is_exact(), hit_proj.is_exact());
            for x in -BOX..=BOX {
                let member = |proj: &omega::Projection| {
                    proj.problems().any(|piece| {
                        let mut q = piece.clone();
                        q.add_eq(LinExpr::var(keep).plus_const(-x));
                        q.is_satisfiable().unwrap()
                    })
                };
                let in_cold = member(&cold_proj);
                prop_assert_eq!(in_cold, member(&miss_proj), "miss diverged at x={}", x);
                prop_assert_eq!(in_cold, member(&hit_proj), "hit diverged at x={}", x);
            }
            hits_seen.set(hits_seen.get() + cache.stats().hits);
            Ok(())
        },
    );
    // The repeated queries above must actually exercise the cache.
    assert!(hits_seen.get() > 0);
}
