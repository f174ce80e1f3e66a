//! End-to-end fuzzing: random small loop programs run through the whole
//! pipeline (parse → analyze → extended dependence analysis), checking
//! the soundness invariants that must hold for *any* program:
//!
//! * no panics, no solver errors within budget;
//! * the extended analysis only removes dependences or tightens vectors;
//! * every dead flow has a live killer/coverer writing the same array;
//! * value sources only shrink;
//! * the anti and output dependences the driver builds from shared
//!   per-pair work equal a stand-alone build of each directed pair, and
//!   every case summary equals a per-level projection of its problem.
//!
//! Runs on the in-repo `harness` property framework.

use std::sync::Arc;

use harness::prop::{check, check_value, Config, Shrink};
use harness::{prop_assert, prop_assert_eq, Rng};

use depend::dir::{range_of, DirEntry};
use depend::{
    analyze_corpus_with_cache, analyze_program, build_dependence, AccessSite,
    Config as AnalysisConfig, DepCase, DepKind, Dependence,
};
use omega::{Budget, LinExpr, SolverCache};
use tiny::ast::name_key;

/// A compact program description that always produces a valid, analyzable
/// program: a nest of 1–2 loops containing 2–4 assignments over a couple
/// of arrays with affine subscripts `c1*i + c2*j + k`.
#[derive(Debug, Clone)]
struct ProgSpec {
    two_deep: bool,
    stmts: Vec<StmtSpec>,
    trailing_read: bool,
}

#[derive(Debug, Clone)]
struct StmtSpec {
    array: usize, // 0..3
    write_sub: (i64, i64, i64),
    read_array: usize,
    read_sub: (i64, i64, i64),
}

impl Shrink for StmtSpec {
    fn shrink(&self) -> Vec<Self> {
        let tuple = (self.array, self.write_sub, self.read_array, self.read_sub);
        tuple
            .shrink()
            .into_iter()
            .map(|(array, write_sub, read_array, read_sub)| StmtSpec {
                array,
                write_sub,
                read_array,
                read_sub,
            })
            .collect()
    }
}

impl Shrink for ProgSpec {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        if self.two_deep {
            out.push(ProgSpec {
                two_deep: false,
                ..self.clone()
            });
        }
        if self.trailing_read {
            out.push(ProgSpec {
                trailing_read: false,
                ..self.clone()
            });
        }
        out.extend(
            harness::prop::shrink_vec(&self.stmts, StmtSpec::shrink, 1)
                .into_iter()
                .map(|stmts| ProgSpec {
                    stmts,
                    ..self.clone()
                }),
        );
        out
    }
}

fn gen_sub(rng: &mut Rng) -> (i64, i64, i64) {
    (
        rng.gen_range_i64(0..=2),
        rng.gen_range_i64(0..=2),
        rng.gen_range_i64(-2..=2),
    )
}

fn gen_spec(rng: &mut Rng) -> ProgSpec {
    let n = rng.gen_range_usize(2..=4);
    ProgSpec {
        two_deep: rng.flip(),
        stmts: (0..n)
            .map(|_| StmtSpec {
                array: rng.gen_range_usize(0..3),
                write_sub: gen_sub(rng),
                read_array: rng.gen_range_usize(0..3),
                read_sub: gen_sub(rng),
            })
            .collect(),
        trailing_read: rng.flip(),
    }
}

fn render(spec: &ProgSpec) -> String {
    let arrays = ["aa", "bb", "cc"];
    let sub = |(ci, cj, k): (i64, i64, i64), two: bool| {
        let mut s = String::new();
        s.push_str(&format!("{ci}*i"));
        if two {
            s.push_str(&format!(" + {cj}*j"));
        }
        s.push_str(&format!(" + {k}"));
        // Guard against the all-zero subscript colliding everything in
        // trivial ways (that's fine too, but keep variety).
        s
    };
    let mut out = String::from("sym n;\nfor i := 1 to n do\n");
    if spec.two_deep {
        out.push_str("for j := 1 to n do\n");
    }
    for st in &spec.stmts {
        out.push_str(&format!(
            "  {}({}) := {}({}) + 1;\n",
            arrays[st.array % 3],
            sub(st.write_sub, spec.two_deep),
            arrays[st.read_array % 3],
            sub(st.read_sub, spec.two_deep),
        ));
    }
    if spec.two_deep {
        out.push_str("endfor\n");
    }
    out.push_str("endfor\n");
    if spec.trailing_read {
        out.push_str("for i := 1 to n do\n  x := aa(i);\nendfor\n");
    }
    out
}

/// The pipeline soundness property (see the module docs).
fn prop_pipeline_invariants(spec: &ProgSpec) -> Result<(), String> {
    let src = render(spec);
    let program = tiny::Program::parse(&src)
        .map_err(|e| format!("generated program failed to parse: {e}\n{src}"))?;
    let info = tiny::analyze(&program).map_err(|e| format!("analysis failed: {e}\n{src}"))?;

    // A deliberately modest per-query budget: exhaustion must degrade
    // conservatively, never error (found by this very fuzzer).
    let std_cfg = AnalysisConfig {
        budget: 60_000,
        ..AnalysisConfig::standard()
    };
    let ext_cfg = AnalysisConfig {
        budget: 60_000,
        ..AnalysisConfig::extended()
    };
    let std = analyze_program(&info, &std_cfg)
        .map_err(|e| format!("standard analysis failed: {e}\n{src}"))?;
    let ext = analyze_program(&info, &ext_cfg)
        .map_err(|e| format!("extended analysis failed: {e}\n{src}"))?;

    // Same dependence pairs.
    prop_assert_eq!(std.flows.len(), ext.flows.len(), "\n{}", &src);
    prop_assert_eq!(std.outputs.len(), ext.outputs.len(), "\n{}", &src);
    prop_assert_eq!(std.antis.len(), ext.antis.len(), "\n{}", &src);
    prop_assert_eq!(std.dead_flows().count(), 0, "\n{}", &src);

    for (s, e) in std.flows.iter().zip(&ext.flows) {
        prop_assert_eq!((s.src, s.dst), (e.src, e.dst));
        if e.is_live() {
            // Refined vectors are entrywise within the unrefined ones.
            let su = s.summary();
            let eu = e.summary();
            for (a, b) in su.0.iter().zip(&eu.0) {
                let lo_ok = match (a.lo, b.lo) {
                    (None, _) => true,
                    (Some(x), Some(y)) => y >= x,
                    (Some(_), None) => false,
                };
                let hi_ok = match (a.hi, b.hi) {
                    (None, _) => true,
                    (Some(x), Some(y)) => y <= x,
                    (Some(_), None) => false,
                };
                prop_assert!(lo_ok && hi_ok, "{} within {}\n{}", eu, su, &src);
            }
        } else {
            // A dead flow needs a plausible killer: another statement
            // writing the same array.
            let victim_array = name_key(&info.stmt(e.src.label).write.array);
            let has_killer = info
                .stmts
                .iter()
                .any(|st| st.label != e.src.label && name_key(&st.write.array) == victim_array);
            prop_assert!(has_killer, "dead flow without any killer\n{}", &src);
        }
    }

    // Value sources only shrink under the extended analysis.
    for st in &info.stmts {
        for (idx, _) in st.reads.iter().enumerate() {
            let s_src = std.value_sources(st.label, idx);
            let e_src = ext.value_sources(st.label, idx);
            prop_assert!(
                e_src.iter().all(|x| s_src.contains(x)),
                "extended sources {:?} not within standard {:?}\n{}",
                e_src,
                s_src,
                &src
            );
        }
    }
    Ok(())
}

/// What a dependence must agree on with its reference: its access pair,
/// and per order case the restraint vector and the distance summary.
fn shape(d: &Dependence) -> String {
    let cases: Vec<String> = d
        .cases
        .iter()
        .map(|c| format!("{} {}", c.order, c.summary))
        .collect();
    format!(
        "{} {:?} -> {:?} [{}]",
        d.kind,
        d.src,
        d.dst,
        cases.join("; ")
    )
}

/// The summary route the driver replaced for pinned levels, kept as the
/// reference: one `range_of` projection per common loop. `None` when a
/// projection ran out of budget (the driver then degrades the case).
fn projected_summary(d: &Dependence, case: &DepCase, budget: &Budget) -> Option<Vec<DirEntry>> {
    let mut budget = budget.clone();
    (0..d.common)
        .map(|l| {
            let mut expr = LinExpr::var(case.dst_vars.iters[l]);
            expr.add_coef(case.src_vars.iters[l], -1).unwrap();
            match range_of(&case.delta, &expr, &mut budget) {
                Ok(Some(entry)) => Some(entry),
                Ok(None) => panic!("a reported case is infeasible: {d:?}"),
                Err(_) => None,
            }
        })
        .collect()
}

/// The shared per-pair work property: each anti and output dependence of
/// the analysis — built alongside its pair's flow or mirrored output
/// direction, with one pre-filter run and one base test — equals what
/// `build_dependence` builds for that directed pair alone with a fresh
/// budget; and every case summary, including refined flows', equals the
/// per-level projection that pinned levels skip. Checked with the memo
/// cache on and off, each against references on the same route: a
/// cached query solves the canonical form of its problem, and
/// `range_of`'s syntactic bound reading can differ between the two
/// forms (on either side of this change).
fn prop_shared_pair_work(spec: &ProgSpec) -> Result<(), String> {
    let src = render(spec);
    let program = tiny::Program::parse(&src).map_err(|e| format!("{e}\n{src}"))?;
    let info = tiny::analyze(&program).map_err(|e| format!("{e}\n{src}"))?;
    for memo_cache in [true, false] {
        let config = AnalysisConfig::extended();
        let cache = memo_cache.then(|| Arc::new(SolverCache::new()));
        let analysis = analyze_corpus_with_cache(std::slice::from_ref(&info), &config, cache)
            .map_err(|e| format!("analysis failed: {e}\n{src}"))?
            .remove(0);
        let fresh_budget = || {
            let budget = Budget::new(config.budget);
            if memo_cache {
                budget.with_cache(Arc::new(SolverCache::new()))
            } else {
                budget
            }
        };
        let alone = |kind, a, a_site, b, b_site| {
            build_dependence(&info, kind, a, a_site, b, b_site, &mut fresh_budget())
                .map(|d| d.as_ref().map(shape))
                .map_err(|e| format!("stand-alone build failed: {e}\n{src}"))
        };

        // Every directed pair, in the driver's merge order.
        let mut outputs = Vec::new();
        let mut antis = Vec::new();
        for w1 in &info.stmts {
            for w2 in &info.stmts {
                outputs.extend(alone(
                    DepKind::Output,
                    w1,
                    AccessSite::Write,
                    w2,
                    AccessSite::Write,
                )?);
            }
        }
        for r in &info.stmts {
            // The driver analyzes each distinct read text of a statement
            // once.
            let mut seen = std::collections::BTreeSet::new();
            for (idx, access) in r.reads.iter().enumerate() {
                if !seen.insert(access.to_string()) {
                    continue;
                }
                for w in &info.stmts {
                    antis.extend(alone(
                        DepKind::Anti,
                        r,
                        AccessSite::Read(idx),
                        w,
                        AccessSite::Write,
                    )?);
                }
            }
        }
        let got: Vec<String> = analysis.outputs.iter().map(shape).collect();
        prop_assert_eq!(
            got,
            outputs,
            "output dependences, cache {}\n{}",
            memo_cache,
            &src
        );
        let got: Vec<String> = analysis.antis.iter().map(shape).collect();
        prop_assert_eq!(
            got,
            antis,
            "anti dependences, cache {}\n{}",
            memo_cache,
            &src
        );

        let all = analysis
            .flows
            .iter()
            .chain(&analysis.antis)
            .chain(&analysis.outputs);
        let budget = fresh_budget();
        for d in all {
            for case in &d.cases {
                if let Some(reference) = projected_summary(d, case, &budget) {
                    prop_assert_eq!(
                        &case.summary.0,
                        &reference,
                        "{} {:?} -> {:?}, {}, cache {}\n{}",
                        d.kind,
                        d.src,
                        d.dst,
                        case.order,
                        memo_cache,
                        &src
                    );
                }
            }
        }
    }
    Ok(())
}

#[test]
fn shared_pair_work_matches_directed_builds() {
    check(&Config::with_cases(96), gen_spec, prop_shared_pair_work);
}

#[test]
fn pipeline_invariants_hold() {
    check(&Config::with_cases(96), gen_spec, prop_pipeline_invariants);
}

/// Ported from the historical proptest seed file
/// (`pipeline_fuzz.proptest-regressions`, `cc 4874656d…`) before it was
/// deleted: a 2-deep nest of four same-array statements with mixed
/// coefficients that once tripped the kill/cover invariants.
#[test]
fn regression_two_deep_mixed_coefficient_nest() {
    let spec = ProgSpec {
        two_deep: true,
        stmts: vec![
            StmtSpec {
                array: 0,
                write_sub: (2, 1, -2),
                read_array: 0,
                read_sub: (0, 0, 0),
            },
            StmtSpec {
                array: 0,
                write_sub: (2, 1, 0),
                read_array: 0,
                read_sub: (1, 1, 0),
            },
            StmtSpec {
                array: 0,
                write_sub: (0, 0, 0),
                read_array: 0,
                read_sub: (1, 1, 0),
            },
            StmtSpec {
                array: 0,
                write_sub: (2, 1, 0),
                read_array: 0,
                read_sub: (0, 2, 2),
            },
        ],
        trailing_read: false,
    };
    check_value(&spec, prop_pipeline_invariants);
}

/// The case the fuzzer found: non-unit subscript coefficients produce
/// inexact eliminations whose splinter cascades exhausted the (then
/// global) budget. The analysis must degrade conservatively, not fail.
#[test]
fn fuzz_found_budget_exhaustion_degrades_gracefully() {
    let src = "
        sym n;
        for i := 1 to n do
        for j := 1 to n do
          aa(2*i + 1*j + -2) := cc(1*i + 1*j + -2) + 1;
          aa(2*i + 1*j + 0) := aa(1*i + 1*j + -2) + 1;
          cc(1*i + 2*j + 1) := aa(1*i + 1*j + 1) + 1;
          aa(2*i + 2*j + 2) := aa(0*i + 2*j + 2) + 1;
        endfor
        endfor
        for i := 1 to n do
          x := aa(i);
        endfor
    ";
    let program = tiny::Program::parse(src).unwrap();
    let info = tiny::analyze(&program).unwrap();
    let std = analyze_program(&info, &AnalysisConfig::standard()).unwrap();
    let ext = analyze_program(&info, &AnalysisConfig::extended()).unwrap();
    assert_eq!(std.flows.len(), ext.flows.len());
    // Whatever the extended analysis managed within budget is sound; at
    // minimum it must not report fewer pairs or error out.
    assert!(ext.flows.iter().all(|d| !d.cases.is_empty()));
}
