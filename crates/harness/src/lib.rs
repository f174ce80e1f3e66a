#![warn(missing_docs)]
//! Hermetic test and measurement substrate for the workspace.
//!
//! The build environment has no access to an external crate registry, so
//! everything the test and benchmark suites need lives here, in-repo:
//!
//! * [`rng`] — a deterministic, seedable PRNG (xoshiro256** seeded via
//!   SplitMix64) with the `gen_range`/`shuffle`-style helpers random
//!   generators need. Identical seeds produce identical streams on every
//!   platform, which is what reproducible fuzzing and benchmark input
//!   generation require.
//! * [`prop`] — a minimal property-testing framework: plain closures over
//!   [`Rng`] as generators, a [`Shrink`](prop::Shrink) trait (or an
//!   explicit shrink function) for greedy minimization of failing cases,
//!   an iteration-capped run loop, and explicit replay of regression
//!   witnesses.
//! * [`bench`](mod@bench) — a lightweight benchmark runner: warmup, batch-size
//!   calibration, a fixed sample budget, min/median/p95 statistics, and
//!   machine-readable JSON-lines output suitable for trajectory tracking.
//! * [`alloc`] — a counting global allocator (allocs/deallocs/peak-bytes
//!   plus a per-thread allocation counter) so allocation budgets can be
//!   measured, not asserted. Registered per-binary; when it is, the
//!   bench runner reports allocations per iteration alongside the
//!   timing statistics.
//!
//! Everything is deterministic by default. Set `HARNESS_SEED` to vary the
//! base seed of property runs, and `HARNESS_CASE_SEED` to replay one
//! specific failing case printed in a failure message.

pub mod alloc;
pub mod bench;
pub mod prop;
pub mod rng;

pub use rng::{Rng, SplitMix64};
