#![warn(missing_docs)]
//! # depend — array data dependence analysis with array kills
//!
//! The analyses of Pugh & Wonnacott, *Eliminating False Data Dependences
//! using the Omega Test* (PLDI 1992), built on the [`omega`] solver and
//! the [`tiny`] loop-language frontend.
//!
//! The pipeline: [`build_dependence`] constructs exact flow/anti/output
//! dependences split per *restraint vector* (§2.1.2); the §4 analyses —
//! [`refine_dependence`], [`check_covering`], [`check_kill`],
//! [`check_terminating`] — eliminate the false ones; [`analyze_program`]
//! drives the whole thing and produces the Figure 3/4 tables plus the
//! Figure 6/7 statistics; [`SymbolicPair`] answers the §5 symbolic
//! questions; and [`DepGraph`] turns the results into parallelism and
//! privatization verdicts.
//!
//! Every analysis entry point wraps [`analyze_corpus_on`], which runs on
//! the caller's [`Pool`] with the caller's memo cache
//! ([`omega::SolverCache`]); the [`Config`] describes only the analysis.
//!
//! # Example
//!
//! ```
//! use depend::{analyze_program, Config};
//!
//! // Example 3 of the paper: the flow dependence refines from (0+,1)
//! // to (0,1) — each read receives its value within the same outer
//! // iteration.
//! let program = tiny::Program::parse(tiny::corpus::EXAMPLE_3)?;
//! let info = tiny::analyze(&program)?;
//! let analysis = analyze_program(&info, &Config::extended())?;
//! let flow = analysis.live_flows().next().unwrap();
//! assert_eq!(flow.summary().to_string(), "(0,1)");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod config;
pub mod dep;
pub mod dir;
pub mod dirvec;
pub mod dot;
pub mod graph;
pub mod occur;
pub mod pairs;
pub mod parallel;
pub mod parallelize;
pub mod prefilter;
pub mod space;
pub mod symbolic;

pub mod analysis;
pub mod baseline;
pub mod cover;
mod error;
pub mod kill;
mod logic;
pub mod refine;
pub mod report;
pub mod terminate;
pub mod transform;

pub use analysis::{
    analyze_corpus, analyze_corpus_on, analyze_corpus_with_cache, analyze_program, Analysis,
    KillStat, PairClass, PairStat, Stats,
};
pub use config::Config;
pub use cover::{check_covering, CoverOutcome};
pub use dep::{AccessRef, AccessSite, DeadReason, DepCase, DepKind, Dependence};
pub use dir::{DirEntry, DirectionVector};
pub use error::{Error, Result};
pub use graph::{DepGraph, Edge, KillView, LoopVerdict, Node};
pub use kill::{check_kill, KillOutcome};
pub use occur::{exists_under_property, ArrayProperty, Occurrence, OccurrenceTable};
pub use pairs::build_dependence;
pub use parallel::Pool;
pub use parallelize::{decide_loops, render_parallelize_report, LoopDecision, ParallelizeSummary};
pub use prefilter::{prefilter_pair, PrefilterStats, SkipReason};
pub use refine::{refine_dependence, RefineOutcome};
pub use report::{dead_flow_table, format_edge, live_flow_table, ReportOptions};
pub use space::{OrderCase, Space, StmtVars};
pub use symbolic::{increasing_scalars, SymbolicCondition, SymbolicPair};
pub use terminate::check_terminating;
pub use transform::{program_loops, LoopRef};
