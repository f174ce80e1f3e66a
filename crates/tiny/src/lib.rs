#![warn(missing_docs)]
//! # tiny — a loop-program frontend for dependence analysis
//!
//! A reimplementation of the program model of Michael Wolfe's `tiny`
//! research tool, as used by Pugh & Wonnacott (PLDI 1992): structured
//! `for` nests with affine (or `min`/`max`) bounds, assignment statements
//! over array elements, symbolic constants, and user assertions.
//!
//! The crate provides a lexer, parser, pretty-printer and semantic
//! analysis that flattens the loop tree into per-statement records ready
//! for dependence analysis, plus the benchmark [`corpus`] containing the
//! paper's Examples 1–11 and the CHOLSKY NAS kernel of Figure 2.
//!
//! # Example
//!
//! ```
//! use tiny::{analyze, Program};
//!
//! let program = Program::parse(
//!     "
//!     sym n, m;
//!     for L1 := 1 to n do
//!       for L2 := 2 to m do
//!         a(L2) := a(L2-1);
//!       endfor
//!     endfor
//!     ",
//! )?;
//! let info = analyze(&program)?;
//! assert_eq!(info.stmts.len(), 1);
//! assert_eq!(info.stmts[0].loops.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod ast;
pub mod corpus;
mod error;
pub mod fortran;
pub mod lexer;
pub mod loop_normalize;
pub mod parser;
pub mod sema;
pub mod token;

pub mod pretty;

pub use ast::{Access, ArrayDecl, Assign, BinOp, Expr, ForLoop, Program, RelOp, Relation, Stmt};
pub use error::{Error, Result};
pub use sema::{analyze, AccessForm, Affine, LoopCtx, ProgramInfo, StmtInfo, Var};
