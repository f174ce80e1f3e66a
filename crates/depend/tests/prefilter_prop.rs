//! Property test: the §4.5 pre-filter is *conservative*. Whenever
//! [`depend::prefilter_pair`] rejects an access pair, the full Omega
//! analysis ([`depend::build_dependence`]) must agree that no dependence
//! exists — for every dependence kind and in both pair orientations.
//!
//! Two generator families: one aims at the strided tests (subscripts
//! `a(2*i+c)`, `step 2`/`step 3` loops, constant bounds for the range
//! test), the other at the symbolic range test (bounds and subscript
//! offsets affine in a symbolic `n` whose sign is pinned by an `assume`).

use harness::prop::{check, Config as PropConfig, Shrink};
use harness::{prop_assert, Rng};

use depend::{build_dependence, prefilter_pair, AccessSite, DepKind};
use tiny::sema::StmtInfo;

/// One statement: `arr(stride*i + off) := arr(rstride*i + roff) + 1`
/// inside its own loop with the given bounds and step.
#[derive(Debug, Clone)]
struct StmtSpec {
    array: usize,
    write: (i64, i64),
    read: (i64, i64),
    lo: i64,
    hi: i64,
    step: i64,
}

#[derive(Debug, Clone)]
struct ProgSpec {
    stmts: Vec<StmtSpec>,
}

impl Shrink for StmtSpec {
    fn shrink(&self) -> Vec<Self> {
        let tuple = (
            self.array,
            self.write,
            self.read,
            (self.lo, self.hi, self.step),
        );
        tuple
            .shrink()
            .into_iter()
            .filter(|&(_, (ws, _), (rs, _), (lo, hi, step))| {
                ws != 0 && rs != 0 && step >= 1 && lo <= hi
            })
            .map(|(array, write, read, (lo, hi, step))| StmtSpec {
                array,
                write,
                read,
                lo,
                hi,
                step,
            })
            .collect()
    }
}

impl Shrink for ProgSpec {
    fn shrink(&self) -> Vec<Self> {
        harness::prop::shrink_vec(&self.stmts, StmtSpec::shrink, 1)
            .into_iter()
            .map(|stmts| ProgSpec { stmts })
            .collect()
    }
}

fn gen_stmt(rng: &mut Rng) -> StmtSpec {
    let lo = rng.gen_range_i64(-3..=8);
    StmtSpec {
        array: rng.gen_range_usize(0..2),
        write: (rng.gen_range_i64(1..=4), rng.gen_range_i64(-6..=6)),
        read: (rng.gen_range_i64(1..=4), rng.gen_range_i64(-6..=6)),
        lo,
        hi: lo + rng.gen_range_i64(0..=12),
        step: rng.gen_range_i64(1..=3),
    }
}

fn gen_spec(rng: &mut Rng) -> ProgSpec {
    ProgSpec {
        stmts: (0..rng.gen_range_usize(1..=3))
            .map(|_| gen_stmt(rng))
            .collect(),
    }
}

fn render(spec: &ProgSpec) -> String {
    let arrays = ["aa", "bb"];
    let mut out = String::new();
    for st in &spec.stmts {
        out.push_str(&format!(
            "for i := {} to {} step {} do\n  {}({}*i + {}) := {}({}*i + {}) + 1;\nendfor\n",
            st.lo,
            st.hi,
            st.step,
            arrays[st.array % 2],
            st.write.0,
            st.write.1,
            arrays[st.array % 2],
            st.read.0,
            st.read.1,
        ));
    }
    out
}

/// Every same-array pair the analysis driver would pre-filter, with the
/// dependence kind the driver would build for it.
fn pairs_of(stmts: &[StmtInfo]) -> Vec<(usize, AccessSite, usize, AccessSite, DepKind)> {
    let mut out = Vec::new();
    for (a, sa) in stmts.iter().enumerate() {
        for (b, sb) in stmts.iter().enumerate() {
            if tiny::ast::name_key(&sa.write.array) == tiny::ast::name_key(&sb.write.array) {
                out.push((a, AccessSite::Write, b, AccessSite::Write, DepKind::Output));
            }
            for (ri, read) in sb.reads.iter().enumerate() {
                if tiny::ast::name_key(&sa.write.array) == tiny::ast::name_key(&read.array) {
                    out.push((a, AccessSite::Write, b, AccessSite::Read(ri), DepKind::Flow));
                    out.push((b, AccessSite::Read(ri), a, AccessSite::Write, DepKind::Anti));
                }
            }
        }
    }
    out
}

/// The property body shared by both generator families: whenever the
/// pre-filter rejects a pair of `src`, the exact analysis must find no
/// dependence for it either.
fn check_conservative(src: &str) -> Result<(), String> {
    let program = tiny::Program::parse(src)
        .map_err(|e| format!("generated program failed to parse: {e}\n{src}"))?;
    let info = tiny::analyze(&program).map_err(|e| format!("analysis failed: {e}\n{src}"))?;

    for (a, sa, b, sb, kind) in pairs_of(&info.stmts) {
        let Some(reason) =
            prefilter_pair(&info.stmts[a], sa, &info.stmts[b], sb, &info.assumptions)
        else {
            continue;
        };
        let mut budget = omega::Budget::default();
        let dep = build_dependence(
            &info,
            kind,
            &info.stmts[a],
            sa,
            &info.stmts[b],
            sb,
            &mut budget,
        )
        .map_err(|e| format!("exact analysis failed: {e}\n{src}"))?;
        prop_assert!(
            dep.is_none(),
            "prefilter rejected ({reason:?}) a pair the Omega test proves \
             dependent: {kind:?} stmt {} -> stmt {}\n{}",
            a + 1,
            b + 1,
            src
        );
    }
    Ok(())
}

fn prop_prefilter_is_conservative(spec: &ProgSpec) -> Result<(), String> {
    check_conservative(&render(spec))
}

#[test]
fn prefilter_rejections_agree_with_the_omega_test() {
    check(
        &PropConfig::with_cases(400),
        gen_spec,
        prop_prefilter_is_conservative,
    );
}

#[test]
fn prefilter_fires_on_the_generated_family_at_all() {
    // Guard against the property passing vacuously: over a fixed sample
    // of generated programs, at least one pair must actually be rejected.
    let mut fired = false;
    for seed in 0..64 {
        let spec = gen_spec(&mut Rng::from_seed(seed));
        let program = tiny::Program::parse(&render(&spec)).unwrap();
        let info = tiny::analyze(&program).unwrap();
        for (a, sa, b, sb, _) in pairs_of(&info.stmts) {
            fired |=
                prefilter_pair(&info.stmts[a], sa, &info.stmts[b], sb, &info.assumptions).is_some();
        }
    }
    assert!(fired, "no generated pair was ever pre-filtered");
}

/// One statement of the symbolic family:
/// `for i := lo.0*n+lo.1 to hi.0*n+hi.1 do aa(i + w.0*n+w.1) := aa(i + r.0*n+r.1) + 1`.
#[derive(Debug, Clone)]
struct SymStmtSpec {
    lo: (i64, i64),
    hi: (i64, i64),
    w: (i64, i64),
    r: (i64, i64),
}

#[derive(Debug, Clone)]
struct SymProgSpec {
    /// Rendered as `assume n >= min_n`.
    min_n: i64,
    stmts: Vec<SymStmtSpec>,
}

impl Shrink for SymProgSpec {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        if self.stmts.len() > 1 {
            for i in 0..self.stmts.len() {
                let mut stmts = self.stmts.clone();
                stmts.remove(i);
                out.push(SymProgSpec {
                    min_n: self.min_n,
                    stmts,
                });
            }
        }
        out
    }
}

fn gen_sym_spec(rng: &mut Rng) -> SymProgSpec {
    let pair = |rng: &mut Rng| (rng.gen_range_i64(0..=2), rng.gen_range_i64(-4..=4));
    let stmts = (0..rng.gen_range_usize(1..=3))
        .map(|_| SymStmtSpec {
            lo: pair(rng),
            hi: pair(rng),
            w: pair(rng),
            r: pair(rng),
        })
        .collect();
    SymProgSpec {
        min_n: rng.gen_range_i64(1..=3),
        stmts,
    }
}

fn render_sym(spec: &SymProgSpec) -> String {
    let term = |(cn, c): (i64, i64)| {
        let sign = if c < 0 { '-' } else { '+' };
        format!("{}*n {} {}", cn, sign, c.abs())
    };
    let mut out = format!("sym n;\nassume n >= {};\n", spec.min_n);
    for st in &spec.stmts {
        out.push_str(&format!(
            "for i := {} to {} do\n  aa(i + {}) := aa(i + {}) + 1;\nendfor\n",
            term(st.lo),
            term(st.hi),
            term(st.w),
            term(st.r),
        ));
    }
    out
}

fn prop_symbolic_prefilter_is_conservative(spec: &SymProgSpec) -> Result<(), String> {
    check_conservative(&render_sym(spec))
}

#[test]
fn symbolic_prefilter_rejections_agree_with_the_omega_test() {
    check(
        &PropConfig::with_cases(400),
        gen_sym_spec,
        prop_symbolic_prefilter_is_conservative,
    );
}

#[test]
fn symbolic_prefilter_fires_on_the_generated_family_at_all() {
    // Guard against the symbolic property passing vacuously: the family
    // must produce SymbolicRange rejections specifically (a zero `n`
    // coefficient degenerates a bound to a constant, so plain Range
    // rejections also occur — they don't count).
    let mut symbolic = 0u64;
    for seed in 0..64 {
        let spec = gen_sym_spec(&mut Rng::from_seed(seed));
        let program = tiny::Program::parse(&render_sym(&spec)).unwrap();
        let info = tiny::analyze(&program).unwrap();
        for (a, sa, b, sb, _) in pairs_of(&info.stmts) {
            let reason = prefilter_pair(&info.stmts[a], sa, &info.stmts[b], sb, &info.assumptions);
            if reason == Some(depend::SkipReason::SymbolicRange) {
                symbolic += 1;
            }
        }
    }
    assert!(symbolic > 0, "the symbolic range test never fired");
}
