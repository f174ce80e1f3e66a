//! A minimal property-testing framework.
//!
//! Design: generators are plain closures `Fn(&mut Rng) -> T` (compose
//! them with ordinary Rust — helper functions, recursion with an explicit
//! depth budget). Shrinking is defined on the *value*, either through the
//! [`Shrink`] trait (generic impls cover ints, bools, tuples and `Vec`s)
//! or through an explicit shrink function passed to [`check_with`] when
//! the value type lives in another crate (the orphan rule forbids a local
//! `Shrink` impl there).
//!
//! Properties return `Result<(), String>`; use the [`prop_assert!`] and
//! [`prop_assert_eq!`] macros from the crate root. Panics inside a
//! property are caught and treated as failures, so `unwrap()`s shrink
//! too.
//!
//! A failure is greedily minimized (first failing shrink candidate is
//! taken, repeat until no candidate fails or the evaluation budget runs
//! out) and reported with its case seed. Replay knobs:
//!
//! * `HARNESS_SEED=<u64>` — change the base seed of the whole run;
//! * `HARNESS_CASE_SEED=<u64>` — run exactly one case with that seed
//!   (the value printed in a failure message).
//!
//! Persisted regression witnesses are explicit: re-build the minimal
//! failing value in a named `#[test]` and call [`check_value`]. That
//! keeps historical coverage independent of generator evolution — a new
//! generator cannot silently stop producing an old bug's trigger.
//!
//! [`prop_assert!`]: crate::prop_assert
//! [`prop_assert_eq!`]: crate::prop_assert_eq

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::{Rng, SplitMix64};

/// Default base seed (overridden by `HARNESS_SEED`).
pub const DEFAULT_SEED: u64 = 0x0DDB_1A5E_5BAD_5EED;

/// Run-loop configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to run.
    pub cases: u32,
    /// Cap on property evaluations spent shrinking a failure.
    pub max_shrink_evals: u32,
    /// Base seed; each case derives its own seed from it.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 256,
            max_shrink_evals: 4096,
            seed: seed_from_env(),
        }
    }
}

impl Config {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn seed_from_env() -> u64 {
    std::env::var("HARNESS_SEED")
        .ok()
        .and_then(|s| parse_u64(&s))
        .unwrap_or(DEFAULT_SEED)
}

fn case_seed(base: u64, case: u32) -> u64 {
    SplitMix64::new(base ^ (u64::from(case)).wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// Types that can propose strictly "smaller" candidate values for
/// failure minimization. Candidates need not preserve invariants — a
/// candidate that passes the property is simply not taken.
pub trait Shrink: Sized {
    /// Candidate simplifications of `self`, roughly smallest-first.
    fn shrink(&self) -> Vec<Self>;
}

macro_rules! shrink_signed {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                let mut out = Vec::new();
                if v != 0 {
                    out.push(0);
                    let half = v / 2;
                    if half != 0 && half != v {
                        out.push(half);
                    }
                    let step = v - v.signum();
                    if step != 0 && step != half {
                        out.push(step);
                    }
                }
                out
            }
        }
    )*};
}
shrink_signed!(i8, i16, i32, i64, isize);

macro_rules! shrink_unsigned {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                let mut out = Vec::new();
                if v != 0 {
                    out.push(0);
                    let half = v / 2;
                    if half != 0 {
                        out.push(half);
                    }
                    let step = v - 1;
                    if step != 0 && step != half {
                        out.push(step);
                    }
                }
                out
            }
        }
    )*};
}
shrink_unsigned!(u8, u16, u32, u64, usize);

impl Shrink for bool {
    fn shrink(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            vec![]
        }
    }
}

impl Shrink for String {
    // Identifiers and the like usually carry syntactic invariants;
    // shrinking them mostly minimizes into *different* bugs, so don't.
    fn shrink(&self) -> Vec<Self> {
        vec![]
    }
}

impl<T: Shrink + Clone> Shrink for Vec<T> {
    fn shrink(&self) -> Vec<Self> {
        shrink_vec(self, T::shrink, 0)
    }
}

/// The `Vec` shrink strategy with an explicit element shrinker and a
/// minimum length — for custom shrinkers over foreign element types.
///
/// Candidates: drop the first/second half, drop each single element,
/// then shrink each element in place.
pub fn shrink_vec<T: Clone>(
    xs: &[T],
    shrink_elem: impl Fn(&T) -> Vec<T>,
    min_len: usize,
) -> Vec<Vec<T>> {
    let n = xs.len();
    let mut out = Vec::new();
    if n > min_len.max(1) {
        if n / 2 >= min_len {
            out.push(xs[..n / 2].to_vec());
            out.push(xs[n / 2..].to_vec());
        }
    }
    if n > min_len {
        for i in 0..n {
            let mut v = xs.to_vec();
            v.remove(i);
            out.push(v);
        }
    }
    for i in 0..n {
        for cand in shrink_elem(&xs[i]) {
            let mut v = xs.to_vec();
            v[i] = cand;
            out.push(v);
        }
    }
    out
}

macro_rules! shrink_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Shrink + Clone),+> Shrink for ($($name,)+) {
            fn shrink(&self) -> Vec<Self> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink() {
                        let mut t = self.clone();
                        t.$idx = cand;
                        out.push(t);
                    }
                )+
                out
            }
        }
    )*};
}
shrink_tuple! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
}

/// Evaluates a property, converting a panic into a failure message.
fn eval<T>(property: &impl Fn(&T) -> Result<(), String>, value: &T) -> Option<String> {
    match catch_unwind(AssertUnwindSafe(|| property(value))) {
        Ok(Ok(())) => None,
        Ok(Err(msg)) => Some(msg),
        Err(payload) => Some(panic_message(payload.as_ref())),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("property panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("property panicked: {s}")
    } else {
        "property panicked".to_string()
    }
}

/// Greedily minimizes `value` under `failing`, spending at most
/// `max_evals` predicate evaluations. Returns the smallest failing value
/// reached (which is `value` itself if no candidate fails).
pub fn minimize<T: Clone>(
    mut value: T,
    shrink: impl Fn(&T) -> Vec<T>,
    mut failing: impl FnMut(&T) -> bool,
    max_evals: u32,
) -> T {
    let mut evals = 0u32;
    'outer: loop {
        for cand in shrink(&value) {
            if evals >= max_evals {
                break 'outer;
            }
            evals += 1;
            if failing(&cand) {
                value = cand;
                continue 'outer;
            }
        }
        break;
    }
    value
}

/// Runs `property` against `cases` values from `generate`, minimizing
/// any failure with the explicit `shrink` function.
///
/// # Panics
///
/// Panics (failing the enclosing test) on the first property failure,
/// reporting the minimal witness and the case seed for replay.
pub fn check_with<T, G, S, P>(config: &Config, generate: G, shrink: S, property: P)
where
    T: Clone + Debug,
    G: Fn(&mut Rng) -> T,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T) -> Result<(), String>,
{
    let replay = std::env::var("HARNESS_CASE_SEED")
        .ok()
        .and_then(|s| parse_u64(&s));
    let cases: Vec<u64> = match replay {
        Some(seed) => vec![seed],
        None => (0..config.cases)
            .map(|i| case_seed(config.seed, i))
            .collect(),
    };
    for (case, &seed) in cases.iter().enumerate() {
        let value = generate(&mut Rng::from_seed(seed));
        if let Some(msg) = eval(&property, &value) {
            let mut min_msg = msg.clone();
            let minimal = minimize(
                value.clone(),
                &shrink,
                |cand| match eval(&property, cand) {
                    Some(m) => {
                        min_msg = m;
                        true
                    }
                    None => false,
                },
                config.max_shrink_evals,
            );
            panic!(
                "property failed (case {case}/{}, case seed {seed:#018x}; \
                 replay with HARNESS_CASE_SEED={seed:#x})\n\
                 minimal witness: {minimal:#?}\n{min_msg}\n\
                 (original witness: {value:?})",
                cases.len(),
            );
        }
    }
}

/// Runs `property` against `cases` values from `generate`, minimizing
/// any failure through the value's [`Shrink`] impl.
///
/// # Panics
///
/// Panics (failing the enclosing test) on the first property failure.
pub fn check<T, G, P>(config: &Config, generate: G, property: P)
where
    T: Shrink + Clone + Debug,
    G: Fn(&mut Rng) -> T,
    P: Fn(&T) -> Result<(), String>,
{
    check_with(config, generate, T::shrink, property);
}

/// Replays one explicit value — the named-regression entry point. The
/// witness is printed on failure; nothing is shrunk.
///
/// # Panics
///
/// Panics (failing the enclosing test) if the property rejects `value`.
pub fn check_value<T: Debug>(value: &T, property: impl Fn(&T) -> Result<(), String>) {
    if let Some(msg) = eval(&property, value) {
        panic!("regression case failed: {msg}\nwitness: {value:#?}");
    }
}

/// Property-style assertion: early-returns `Err` from the enclosing
/// property function instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {}: {} ({}:{})",
                stringify!($cond),
                format!($($fmt)+),
                file!(),
                line!()
            ));
        }
    };
}

/// Property-style equality assertion: early-returns `Err` from the
/// enclosing property function instead of panicking.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}: {}\n  left: {:?}\n right: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let cfg = Config::with_cases(64);
        check(
            &cfg,
            |rng| rng.gen_range_i64(-100..=100),
            |v| {
                prop_assert!((-100..=100).contains(v));
                Ok(())
            },
        );
    }

    /// A planted failure ("some element >= 100") must minimize to its
    /// smallest witness: exactly `[100]`.
    #[test]
    fn planted_failure_minimizes_to_smallest_witness() {
        let minimal = minimize(
            vec![3i64, 250, 7, 131],
            |v| v.shrink(),
            |v| v.iter().any(|&x| x >= 100),
            100_000,
        );
        assert_eq!(minimal, vec![100]);
    }

    #[test]
    fn tuple_and_nested_shrinking_reach_fixpoints() {
        let minimal = minimize(
            (17i64, vec![9u64, 4, 12]),
            |v| v.shrink(),
            |(a, v)| *a > 4 && !v.is_empty(),
            100_000,
        );
        assert_eq!(minimal, (5, vec![0]));
    }

    #[test]
    fn failure_reports_minimal_witness_and_seed() {
        let cfg = Config {
            cases: 200,
            max_shrink_evals: 100_000,
            seed: 1,
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            check(
                &cfg,
                |rng| {
                    let n = rng.gen_range_usize(0..6);
                    (0..n)
                        .map(|_| rng.gen_range_i64(0..=300))
                        .collect::<Vec<_>>()
                },
                |v| {
                    prop_assert!(v.iter().all(|&x| x < 100), "element out of range");
                    Ok(())
                },
            );
        }));
        let msg = panic_message(result.expect_err("property must fail").as_ref());
        assert!(msg.contains("100"), "minimal witness missing from: {msg}");
        assert!(
            msg.contains("HARNESS_CASE_SEED"),
            "no replay seed in: {msg}"
        );
    }

    /// Panics inside the property (e.g. `unwrap`) are caught and shrunk
    /// like ordinary failures.
    #[test]
    fn panicking_property_is_caught_and_shrunk() {
        let cfg = Config {
            cases: 50,
            max_shrink_evals: 10_000,
            seed: 2,
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            check(
                &cfg,
                |rng| rng.gen_range_i64(0..=50),
                |v| {
                    assert!(*v < 10, "boom at {v}");
                    Ok(())
                },
            );
        }));
        let msg = panic_message(result.expect_err("property must fail").as_ref());
        assert!(msg.contains("minimal witness: 10"), "bad witness in: {msg}");
    }

    #[test]
    fn check_value_accepts_and_rejects() {
        check_value(&5i64, |v| {
            prop_assert_eq!(*v, 5);
            Ok(())
        });
        let result = catch_unwind(|| {
            check_value(&6i64, |v| {
                prop_assert_eq!(*v, 5);
                Ok(())
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn runs_are_deterministic_for_a_fixed_seed() {
        let collect = |seed: u64| {
            let out = std::cell::RefCell::new(Vec::new());
            let cfg = Config {
                cases: 20,
                max_shrink_evals: 0,
                seed,
            };
            check_with(
                &cfg,
                |rng| rng.next_u64(),
                |_| Vec::new(),
                |v| {
                    out.borrow_mut().push(*v);
                    Ok(())
                },
            );
            out.into_inner()
        };
        assert_eq!(collect(9), collect(9));
        assert_ne!(collect(9), collect(10));
    }
}
