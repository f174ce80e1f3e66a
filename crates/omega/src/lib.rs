#![warn(missing_docs)]
//! # The Omega test
//!
//! An exact integer-programming algorithm for linear constraints, built on
//! extended Fourier–Motzkin variable elimination, as introduced by
//! William Pugh (Supercomputing '91) and extended for dependence analysis
//! by Pugh & Wonnacott (PLDI 1992). This crate provides:
//!
//! * **Satisfiability** of conjunctions of linear equalities and
//!   inequalities over the integers ([`Problem::is_satisfiable`]);
//! * **Exact projection** onto a subset of the variables, decomposed into
//!   the *dark shadow*, *splinters*, and the *real shadow*
//!   ([`Problem::project`], [`Projection`]);
//! * **Gists**: `gist p given q`, the new information in `p` given `q`
//!   ([`gist`]), and fast implication tautology checks ([`implies`]);
//! * A **Presburger formula layer** with `∧ ∨ ¬ ∃ ∀` over linear atoms
//!   ([`Formula`]), decided through DNF + projection, and on it the exact
//!   union implication `p ⇒ q₁ ∨ … ∨ qₙ` ([`implies_union`]) that the
//!   §4 tests fall back to when no single `qᵢ` covers `p`.
//!
//! # Quick example
//!
//! ```
//! use omega::{LinExpr, Problem, VarKind};
//!
//! // Does  1 <= i <= n  ∧  i = n + 1  have an integer solution? (No.)
//! let mut p = Problem::new();
//! let i = p.add_var("i", VarKind::Input);
//! let n = p.add_var("n", VarKind::Symbolic);
//! p.add_geq(LinExpr::var(i).plus_const(-1));            // i >= 1
//! p.add_geq(LinExpr::var(n).plus_term(-1, i));          // i <= n
//! p.add_eq(LinExpr::var(i).plus_term(-1, n).plus_const(-1)); // i = n + 1
//! assert!(!p.is_satisfiable()?);
//! # Ok::<(), omega::Error>(())
//! ```
//!
//! # Design notes
//!
//! Coefficients are stored as `i64` and combined in `i128`; overflow is
//! reported as [`Error::Overflow`], never wrapped. Recursive searches are
//! metered by a [`Budget`] so adversarial inputs fail with
//! [`Error::TooComplex`] instead of diverging — integer programming is
//! NP-complete, but as the paper observes, the Omega test is fast on the
//! problems dependence analysis produces.

pub mod int;

mod cache;
mod canon;
mod error;
mod formula;
mod gist;
mod hash;
mod linexpr;
mod normalize;
mod pair;
mod persist;
mod pretty;
mod problem;
mod project;
mod redundant;
mod row;
mod sample;
mod sat;
mod symbol;
mod tableau;
mod var;

pub use cache::{CacheStats, SolverCache};
pub use error::{Error, Result};
pub use formula::{implies_union, Formula};
pub use gist::{gist, gist_projected, gist_with, implies, implies_with};
pub use linexpr::{Color, Constraint, LinExpr, Relation};
pub use normalize::Outcome;
pub use pair::{DeltaProblem, PairContext, ProblemLike};
pub use problem::{Budget, Problem, SolverOptions, DEFAULT_BUDGET};
pub use project::Projection;
pub use row::{gc as row_store_gc, stats as row_store_stats, RowShardStats, RowStoreStats};
pub use tableau::tableau_roundtrip;
pub use var::{VarId, VarInfo, VarKind};
