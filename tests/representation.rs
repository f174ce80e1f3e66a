//! Representation equivalence of the interned solver core.
//!
//! The hash-consed row store makes a `Problem` a handle over shared,
//! interned constraint rows. Nothing observable may depend on *how* a
//! problem was assembled: a constraint built coefficient-by-coefficient
//! in ascending variable order must behave exactly like the same
//! constraint built in descending order, scaled by a positive factor,
//! duplicated, cloned out of another problem (copy-on-write), or added
//! in a different position. This property test builds each random
//! problem through two maximally different construction paths and
//! checks that satisfiability, projection, gist and the canonical
//! digest all agree.

use harness::prop_assert_eq;
use omega::{gist, implies_union, LinExpr, Problem, VarId, VarKind};

/// Deterministic xorshift64* PRNG — no external crates, fixed seed, so
/// failures are reproducible by iteration index.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn range(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A small signed coefficient in `[-3, 3]`.
    fn coef(&mut self) -> i64 {
        self.range(7) as i64 - 3
    }
}

/// One randomly generated constraint: dense coefficients plus constant.
#[derive(Clone, Debug)]
struct RawConstraint {
    coeffs: Vec<i64>,
    constant: i64,
    is_eq: bool,
}

fn gen_problem(rng: &mut Rng) -> (usize, Vec<RawConstraint>) {
    let num_vars = 2 + rng.range(3) as usize;
    let num_cons = 2 + rng.range(5) as usize;
    let cons = (0..num_cons)
        .map(|_| RawConstraint {
            coeffs: (0..num_vars).map(|_| rng.coef()).collect(),
            constant: rng.coef(),
            is_eq: rng.range(4) == 0,
        })
        .collect();
    (num_vars, cons)
}

fn add_vars(p: &mut Problem, num_vars: usize) -> Vec<VarId> {
    (0..num_vars).map(|_| p.add_var(VarKind::Input)).collect()
}

/// Path A: the straightforward dense build — variables then constraints
/// in generation order, coefficients set in ascending variable order.
fn build_dense(num_vars: usize, cons: &[RawConstraint]) -> Problem {
    let mut p = Problem::new();
    let vars = add_vars(&mut p, num_vars);
    for c in cons {
        let mut e = LinExpr::constant_expr(c.constant);
        for (v, &coef) in vars.iter().zip(&c.coeffs) {
            e.set_coef(*v, coef);
        }
        if c.is_eq {
            p.add_eq(e);
        } else {
            p.add_geq(e);
        }
    }
    p
}

/// Path B: the adversarial build. The first half of the constraints is
/// assembled in a *separate* problem that is then cloned (exercising
/// copy-on-write sharing of the variable table and rows); the rest is
/// added in reverse order with coefficients set in descending variable
/// order, every constraint scaled by a positive factor (and equalities
/// by a possibly negative one), with transient coefficients written and
/// zeroed again, and the first constraint appended once more as an
/// exact duplicate.
fn build_adversarial(rng: &mut Rng, num_vars: usize, cons: &[RawConstraint]) -> Problem {
    let half = cons.len() / 2;
    let mut base = Problem::new();
    let vars = add_vars(&mut base, num_vars);
    let raw_expr = |c: &RawConstraint, scale: i64| {
        let mut e = LinExpr::zero();
        // Transient churn: write garbage, then overwrite with the real
        // (scaled) values in descending variable order.
        e.set_coef(vars[num_vars - 1], 99);
        e.set_constant(c.constant * scale);
        for (v, &coef) in vars.iter().zip(&c.coeffs).rev() {
            e.set_coef(*v, coef * scale);
        }
        e
    };
    let add = |p: &mut Problem, c: &RawConstraint, rng: &mut Rng| {
        if c.is_eq {
            // Only negation is canonical-form-preserving for equalities:
            // a scale like 2 is undone by GCD reduction *only when the
            // constant divides exactly* (`4x = 2` reduces to `2x = 1`,
            // but `2x = 1` itself stays unreduced — infeasible yet
            // canonically distinct from `4x = 2`).
            let scale = [1, -1][rng.range(2) as usize];
            p.add_eq(raw_expr(c, scale));
        } else {
            // Positive scales keep an inequality's integer solutions and
            // are undone by GCD reduction — except for coefficient-free
            // constraints (`3 >= 0`), whose constant nothing reduces.
            let scale = if c.coeffs.iter().all(|&k| k == 0) {
                1
            } else {
                [1, 2, 3][rng.range(3) as usize]
            };
            p.add_geq(raw_expr(c, scale));
        }
    };
    for c in &cons[..half] {
        add(&mut base, c, rng);
    }
    // COW: `p` shares the var table and rows with `base` until mutated;
    // mutating `p` below must leave `base` untouched.
    let base_digest = base.canonical_digest();
    let mut p = base.clone();
    for c in cons[half..].iter().rev() {
        add(&mut p, c, rng);
    }
    if let Some(first) = cons.first() {
        add(&mut p, first, rng);
    }
    assert_eq!(
        base.canonical_digest(),
        base_digest,
        "mutating a clone changed the original (copy-on-write violated)"
    );
    p
}

#[test]
fn construction_path_cannot_be_observed() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut exact_set_checks = 0usize;
    for iter in 0..200 {
        let (num_vars, cons) = gen_problem(&mut rng);
        let dense = build_dense(num_vars, &cons);
        let adv = build_adversarial(&mut rng, num_vars, &cons);

        // Canonical digests: the memo cache would key both builds to the
        // same entry.
        assert_eq!(
            dense.canonical_digest(),
            adv.canonical_digest(),
            "iter {iter}: canonical digests diverged"
        );

        // Render equality of the canonical forms: the render boundary
        // (sorted constraint order in `Display`, canonicalization for
        // derived output) must erase the construction path entirely, so
        // a server response embedding a rendered problem is stable no
        // matter how the problem was assembled.
        assert_eq!(
            dense.canonicalized().to_string(),
            adv.canonicalized().to_string(),
            "iter {iter}: canonical renderings diverged"
        );

        // Satisfiability.
        let sat_a = dense.is_satisfiable().unwrap();
        let sat_b = adv.is_satisfiable().unwrap();
        assert_eq!(sat_a, sat_b, "iter {iter}: sat diverged");

        // Projection onto the first two variables. Fourier–Motzkin
        // output is order-sensitive (which is why the memo cache
        // computes cached projections on the canonical form), so raw
        // projections of differently-built problems are compared as
        // *sets*: exact mutual inclusion of the projected regions.
        // Projections *of the canonical forms*, by contrast, must render
        // byte-identically: identical input problems, deterministic
        // algorithm, order-normalized rendering. This is the route a
        // stable render boundary (and the memo cache) takes.
        let keep: Vec<VarId> = dense.var_ids().take(2).collect();
        let render_projection = |p: &Problem| {
            let proj = p.canonicalized().project(&keep).unwrap();
            let splinters: Vec<String> = proj.splinters().iter().map(|s| s.to_string()).collect();
            format!("{} | {} | {splinters:?}", proj.dark(), proj.real())
        };
        assert_eq!(
            render_projection(&dense),
            render_projection(&adv),
            "iter {iter}: canonical projection renderings diverged"
        );
        let proj_a = dense.project(&keep).unwrap();
        let proj_b = adv.project(&keep).unwrap();
        let any_piece_sat = |proj: &omega::Projection| -> omega::Result<bool> {
            let mut budget = omega::Budget::new(1_000_000);
            for p in proj.problems() {
                if p.is_satisfiable_with(&mut budget)? {
                    return Ok(true);
                }
            }
            Ok(false)
        };
        assert_eq!(
            any_piece_sat(&proj_a).unwrap(),
            any_piece_sat(&proj_b).unwrap(),
            "iter {iter}: projection satisfiability diverged"
        );
        let (pieces_a, pieces_b) = (proj_a.into_problems(), proj_b.into_problems());
        let mut budget = omega::Budget::new(1_000_000);
        // Exact set equality: every piece of each side implies the union
        // of the other's. That negates every piece, which can exceed the
        // formula depth cap for heavily splintered projections; such
        // iterations are skipped (a floor below keeps the skip rate
        // honest).
        let mut within = |xs: &[Problem], ys: &[Problem]| -> omega::Result<bool> {
            for x in xs {
                if !implies_union(x, ys, &mut budget)? {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        match within(&pieces_a, &pieces_b).and_then(|ab| Ok(ab && within(&pieces_b, &pieces_a)?)) {
            Ok(eq) => {
                assert!(eq, "iter {iter}: projected regions diverged");
                exact_set_checks += 1;
            }
            Err(omega::Error::TooComplex { .. }) => {}
            Err(e) => panic!("iter {iter}: region equality failed: {e}"),
        }

        // Gist of the full system given its own first half (built along
        // the other path, so the two arguments never share a build).
        // Gist output is order-sensitive like projection; the defining
        // property is `gist ∧ given ⇔ p ∧ given`, so the two gists must
        // be equivalent in the context of `given`.
        let half_dense = build_dense(num_vars, &cons[..cons.len() / 2]);
        let gist_a = gist(&dense, &half_dense).unwrap();
        let gist_b = gist(&adv, &half_dense).unwrap();
        let in_context = |g: &Problem| {
            let mut p = half_dense.clone();
            p.and(g).unwrap();
            p
        };
        let (ctx_a, ctx_b) = (in_context(&gist_a), in_context(&gist_b));
        assert!(
            omega::implies_with(&ctx_a, &ctx_b, &mut budget).unwrap()
                && omega::implies_with(&ctx_b, &ctx_a, &mut budget).unwrap(),
            "iter {iter}: gists diverged in context"
        );

        // And like projections, gists of the canonical forms render
        // byte-identically — the render-boundary contract.
        assert_eq!(
            gist(&dense.canonicalized(), &half_dense)
                .unwrap()
                .to_string(),
            gist(&adv.canonicalized(), &half_dense).unwrap().to_string(),
            "iter {iter}: canonical gist renderings diverged"
        );
    }
    assert!(
        exact_set_checks >= 100,
        "only {exact_set_checks}/200 projections were exactly compared"
    );
}

/// The dense scratch tableau is the second representation the solver
/// core keeps: queries run on a flat coefficient matrix and convert
/// back to interned rows only at canonical boundaries. Like the
/// construction path above, the representation must be unobservable:
/// rows → tableau → rows round-trips preserve the canonical digest and
/// the exact constraint content. Runs on the harness property framework
/// so failures shrink to a minimal constraint system and replay by
/// `HARNESS_CASE_SEED`.
#[test]
fn tableau_representation_cannot_be_observed() {
    use harness::prop::{check_with, shrink_vec, Config};

    const NUM_VARS: usize = 4;

    let generate = |rng: &mut harness::Rng| -> Vec<RawConstraint> {
        let num_cons = rng.gen_range_usize(1..=8);
        (0..num_cons)
            .map(|_| RawConstraint {
                coeffs: (0..NUM_VARS).map(|_| rng.gen_range_i64(-3..=3)).collect(),
                constant: rng.gen_range_i64(-8..=8),
                is_eq: rng.gen_bool(0.25),
            })
            .collect()
    };

    // Element shrink: zero out one coefficient, halve the constant
    // toward zero, or demote an equality to an inequality — each keeps
    // the constraint well-formed while making it strictly simpler.
    let shrink_con = |c: &RawConstraint| -> Vec<RawConstraint> {
        let mut out = Vec::new();
        for (i, &k) in c.coeffs.iter().enumerate() {
            if k != 0 {
                let mut s = c.clone();
                s.coeffs[i] = 0;
                out.push(s);
            }
        }
        if c.constant != 0 {
            let mut s = c.clone();
            s.constant /= 2;
            out.push(s);
        }
        if c.is_eq {
            let mut s = c.clone();
            s.is_eq = false;
            out.push(s);
        }
        out
    };

    check_with(
        &Config::with_cases(192),
        generate,
        |cons| shrink_vec(cons, shrink_con, 1),
        |cons: &Vec<RawConstraint>| {
            let p = build_dense(NUM_VARS, cons);

            // Round-trip through the dense tableau: digest and exact
            // per-constraint content (expression, relation, color) are
            // preserved, so a tableau-built problem is
            // indistinguishable at every canonical boundary.
            let rt = omega::tableau_roundtrip(&p);
            prop_assert_eq!(
                p.canonical_digest(),
                rt.canonical_digest(),
                "round-trip changed the canonical digest"
            );
            prop_assert_eq!(
                p.to_string(),
                rt.to_string(),
                "round-trip changed the rendering"
            );
            prop_assert_eq!(
                p.eqs().len(),
                rt.eqs().len(),
                "round-trip changed the eq count"
            );
            prop_assert_eq!(
                p.geqs().len(),
                rt.geqs().len(),
                "round-trip changed the geq count"
            );
            for (a, b) in p
                .eqs()
                .iter()
                .chain(p.geqs())
                .zip(rt.eqs().iter().chain(rt.geqs()))
            {
                prop_assert_eq!(
                    a.expr(),
                    b.expr(),
                    "round-trip changed a constraint expression"
                );
                prop_assert_eq!(
                    a.relation(),
                    b.relation(),
                    "round-trip changed a constraint relation"
                );
                prop_assert_eq!(
                    a.color(),
                    b.color(),
                    "round-trip changed a constraint color"
                );
            }

            Ok(())
        },
    );
}

/// The digest is insensitive to representation, not to meaning: adding
/// a constraint that actually changes the system must change it.
#[test]
fn canonical_digest_distinguishes_different_systems() {
    let mut p = Problem::new();
    let i = p.add_var(VarKind::Input);
    p.add_geq(LinExpr::term(1, i)); // i >= 0
    let d0 = p.canonical_digest();

    let mut q = p.clone();
    q.add_geq(LinExpr::term(-1, i).plus_const(10)); // i <= 10
    assert_ne!(d0, q.canonical_digest());

    // Re-adding an equivalent (scaled) form of an existing constraint
    // does not change the digest.
    let mut r = p.clone();
    r.add_geq(LinExpr::term(3, i)); // 3i >= 0, canonically i >= 0
    assert_eq!(d0, r.canonical_digest());
}
