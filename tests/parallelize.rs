//! The parallelization decision engine, end to end: golden
//! `--parallelize` reports for CHOLSKY and GAUSS_JORDAN (at one and
//! eight threads — the report must not depend on the pool), plus two
//! properties over random programs on the in-repo shrinking framework:
//!
//! * kill analysis can only *add* parallelizable loops — a loop
//!   parallelizable with every dependence taken at face value stays
//!   parallelizable once dead ones are discounted;
//! * the pre-kill view is not a simulation: `KillView::PreKill`
//!   verdicts from an extended run equal the `PostKill` verdicts of a
//!   genuine run with the dead-marking analyses (kill + covering)
//!   switched off.

use harness::prop::{check, Config as PropConfig, Shrink};
use harness::Rng;

use depend::{analyze_program, decide_loops, Config, DepGraph, KillView};

fn corpus_info(name: &str) -> (tiny::Program, tiny::ProgramInfo) {
    let entry = tiny::corpus::by_name(name).unwrap();
    let program = tiny::Program::parse(entry.source).unwrap();
    let info = tiny::analyze(&program).unwrap();
    (program, info)
}

fn report(program: &tiny::Program, info: &tiny::ProgramInfo, threads: usize) -> String {
    let config = Config {
        threads,
        ..Config::extended()
    };
    let analysis = analyze_program(info, &config).unwrap();
    let graph = DepGraph::new(info, &analysis);
    depend::render_parallelize_report(program, &graph)
}

#[test]
fn cholsky_report_matches_the_golden_at_one_and_eight_threads() {
    let golden = include_str!("golden/cholsky_parallelize.txt");
    let (program, info) = corpus_info("cholsky");
    for threads in [1, 8] {
        assert_eq!(
            report(&program, &info, threads),
            golden,
            "threads={threads} diverged from the golden"
        );
    }
}

#[test]
fn gauss_jordan_report_matches_the_golden_at_one_and_eight_threads() {
    let golden = include_str!("golden/gauss_jordan_parallelize.txt");
    let (program, info) = corpus_info("gauss_jordan");
    for threads in [1, 8] {
        assert_eq!(
            report(&program, &info, threads),
            golden,
            "threads={threads} diverged from the golden"
        );
    }
}

/// The same compact program description `tests/pipeline_fuzz.rs` uses:
/// a 1–2 deep nest of 2–4 affine assignments over three arrays, with an
/// optional trailing read loop. Always parses and analyzes.
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

/// Kill analysis only adds parallelizable loops, and the pre-kill view
/// is faithful to a real no-dead-marking run (see the module docs).
fn prop_kill_only_unlocks(spec: &ProgSpec) -> Result<(), String> {
    let src = render(spec);
    let program = tiny::Program::parse(&src)
        .map_err(|e| format!("generated program failed to parse: {e}\n{src}"))?;
    let info = tiny::analyze(&program).map_err(|e| format!("analysis failed: {e}\n{src}"))?;

    let ext_cfg = Config {
        budget: 60_000,
        ..Config::extended()
    };
    // The pre-kill baseline as an actual configuration: refinement still
    // on, but neither of the dead-marking analyses.
    let nokill_cfg = Config {
        kill: false,
        cover: false,
        ..ext_cfg.clone()
    };
    let ext = analyze_program(&info, &ext_cfg)
        .map_err(|e| format!("extended analysis failed: {e}\n{src}"))?;
    let nokill = analyze_program(&info, &nokill_cfg)
        .map_err(|e| format!("no-kill analysis failed: {e}\n{src}"))?;

    let ext_graph = DepGraph::new(&info, &ext);
    let nokill_graph = DepGraph::new(&info, &nokill);
    let decisions = decide_loops(&ext_graph);

    for d in &decisions {
        // Monotonicity: discounting dead dependences never takes a
        // parallelizable loop away.
        if d.pre.parallelizable() && !d.post.parallelizable() {
            return Err(format!(
                "kill analysis took away loop {} at {:?}: pre {:?} vs post {:?}\n{src}",
                d.l.var, d.l.path, d.pre, d.post
            ));
        }
        // Faithfulness: the PreKill view of the extended run must equal
        // the PostKill verdict of the genuine kill/cover-off run.
        let real = nokill_graph.loop_verdict(&d.l, KillView::PostKill);
        if real != d.pre {
            return Err(format!(
                "PreKill view diverged from the kill/cover-off run for loop {} at {:?}:\n\
                 view {:?}\nrun  {:?}\n{src}",
                d.l.var, d.l.path, d.pre, real
            ));
        }
    }
    Ok(())
}

#[test]
fn kill_analysis_only_adds_parallelizable_loops() {
    check(
        &PropConfig::with_cases(64),
        gen_spec,
        prop_kill_only_unlocks,
    );
}

/// The corpus programs designed to showcase the delta stay unlocked:
/// each has exactly one loop that is parallelizable only post-kill.
#[test]
fn showcase_programs_have_a_newly_parallelizable_loop() {
    for name in ["example2", "pivot_reset", "stepped_reset"] {
        let (_, info) = corpus_info(name);
        let analysis = analyze_program(&info, &Config::extended()).unwrap();
        let graph = DepGraph::new(&info, &analysis);
        let newly: Vec<_> = decide_loops(&graph)
            .into_iter()
            .filter(|d| d.newly_parallelizable())
            .collect();
        assert_eq!(
            newly.len(),
            1,
            "{name}: expected exactly one newly-parallelizable loop, got {:?}",
            newly.iter().map(|d| d.l.var.clone()).collect::<Vec<_>>()
        );
    }
}
