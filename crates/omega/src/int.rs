//! Exact integer arithmetic helpers used throughout the Omega test.
//!
//! All routines are total over their documented domains and panic only on
//! violated preconditions (documented per function). Overflow in the solver
//! proper is handled by doing intermediate arithmetic in `i128` and
//! converting back with [`narrow`], which surfaces [`Error::Overflow`]
//! instead of wrapping.
//!
//! [`Error::Overflow`]: crate::Error::Overflow

use crate::{Error, Result};

/// The coefficient type stored in constraints.
pub type Coef = i64;

/// Greatest common divisor of two integers; always non-negative.
///
/// `gcd(0, 0) == 0` by convention.
///
/// # Examples
///
/// ```
/// assert_eq!(omega::int::gcd(12, -18), 6);
/// assert_eq!(omega::int::gcd(0, 5), 5);
/// ```
pub fn gcd(a: Coef, b: Coef) -> Coef {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a as Coef
}

/// Floor division: the largest integer `q` with `q * b <= a`.
///
/// # Panics
///
/// Panics if `b == 0`.
///
/// # Examples
///
/// ```
/// assert_eq!(omega::int::floor_div(7, 2), 3);
/// assert_eq!(omega::int::floor_div(-7, 2), -4);
/// assert_eq!(omega::int::floor_div(7, -2), -4);
/// ```
pub fn floor_div(a: Coef, b: Coef) -> Coef {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Ceiling division: the smallest integer `q` with `q * b >= a` (for
/// positive `b`).
///
/// # Panics
///
/// Panics if `b == 0`.
pub fn ceil_div(a: Coef, b: Coef) -> Coef {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// The symmetric remainder `a mod̂ b` from Pugh's equality-elimination step:
/// `a - b * floor(a/b + 1/2)`, which lies in `[-b/2, b/2)`.
///
/// The key property exploited by the Omega test is that for `m = |a| + 1`,
/// `a mod̂ m == -sign(a)`, producing a unit coefficient.
///
/// # Panics
///
/// Panics if `b <= 0`.
///
/// # Examples
///
/// ```
/// assert_eq!(omega::int::mod_hat(3, 4), -1);
/// assert_eq!(omega::int::mod_hat(-3, 4), 1);
/// assert_eq!(omega::int::mod_hat(2, 4), -2);
/// assert_eq!(omega::int::mod_hat(5, 4), 1);
/// ```
pub fn mod_hat(a: Coef, b: Coef) -> Coef {
    assert!(b > 0, "mod_hat requires a positive modulus");
    let r = a.rem_euclid(b);
    if 2 * r >= b {
        r - b
    } else {
        r
    }
}

/// Narrows an `i128` intermediate back to a stored coefficient.
///
/// # Errors
///
/// Returns [`Error::Overflow`] when the value does
/// not fit in `i64`.
#[inline]
pub fn narrow(v: i128) -> Result<Coef> {
    Coef::try_from(v).map_err(|_| Error::Overflow)
}

/// `a * b + c` computed exactly in `i128` and narrowed.
///
/// # Errors
///
/// Returns [`Error::Overflow`] if the result does
/// not fit in `i64`.
#[inline]
pub fn mul_add(a: Coef, b: Coef, c: Coef) -> Result<Coef> {
    narrow(a as i128 * b as i128 + c as i128)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, -7), 7);
        assert_eq!(gcd(-12, -8), 4);
        assert_eq!(gcd(13, 7), 1);
        assert_eq!(gcd(48, 36), 12);
    }

    #[test]
    fn floor_and_ceil_division_agree_with_reals() {
        for a in -20..=20 {
            for b in [-7, -3, -1, 1, 2, 5] {
                let f = floor_div(a, b);
                let c = ceil_div(a, b);
                assert!(f * b <= a && (f + 1) * b > a || b < 0 && f * b <= a.max(f * b));
                // Definitional checks.
                assert!((f as f64) <= (a as f64) / (b as f64) + 1e-9);
                assert!((f as f64) > (a as f64) / (b as f64) - 1.0 - 1e-9);
                assert!((c as f64) >= (a as f64) / (b as f64) - 1e-9);
                assert!((c as f64) < (a as f64) / (b as f64) + 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn mod_hat_range_and_congruence() {
        for a in -30..=30 {
            for b in 1..=9 {
                let r = mod_hat(a, b);
                assert!(
                    2 * r >= -b && 2 * r < b,
                    "mod_hat({a},{b}) = {r} outside [-b/2, b/2)"
                );
                assert_eq!((a - r).rem_euclid(b), 0, "not congruent");
            }
        }
    }

    #[test]
    fn mod_hat_unit_coefficient_property() {
        // For m = |a| + 1, a mod̂ m == -sign(a): the pivot of Pugh's
        // equality elimination.
        for a in [-9i64, -5, -2, 2, 3, 7, 100] {
            let m = a.abs() + 1;
            assert_eq!(mod_hat(a, m), -a.signum());
        }
    }

    #[test]
    fn narrow_detects_overflow() {
        assert_eq!(narrow(42).unwrap(), 42);
        assert!(narrow(i64::MAX as i128 + 1).is_err());
        assert!(narrow(i64::MIN as i128 - 1).is_err());
        assert!(mul_add(i64::MAX, 2, 0).is_err());
        assert_eq!(mul_add(3, 4, 5).unwrap(), 17);
    }
}
