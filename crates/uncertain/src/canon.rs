//! Canonical floating-point operations for the probability domain.
//!
//! Every executor in this workspace promises **bit-identical** answers
//! (see `INVARIANTS.md`): the indexed path, the plane-backed scan, and the
//! sequential reference all report the same `f64`s for the same query.
//! That only holds if the underlying float operations are written once.
//! This module is that single home: threshold validation, log-domain
//! conversion, tolerance comparison, and multi-occurrence combination all
//! live here. Outside `ustr-uncertain`, clippy rejects float arithmetic in
//! the crates that carry answers (`float_arithmetic`, `float_cmp`), and
//! everywhere it rejects a raw `ln`/`exp`/`powf`/… call (`clippy.toml`'s
//! `disallowed-methods`); `ci/invariants.sh` rejects a comparison against a
//! float literal. This module is the one that calls the primitives.
//!
//! **The threshold rule**, stated once: an occurrence of probability `p`
//! meets τ iff `ln p ≥ ln τ − PROB_EPS` ([`log_meets_threshold`]), decided
//! on the kernel's log value, whose `exp` is the reported probability. The
//! transform, the level prune, the top-k floor, every executor and the
//! possible-world oracle use it; §7's `τ − ε − PROB_EPS` is a sandwich edge.
//!
//! Everything here is `#[inline]` and delegates straight to the `f64`
//! primitive — the point is one definition, not a different numeric
//! result. Changing any formula in this file is a determinism-contract
//! change and must be called out as such.

#![allow(clippy::disallowed_methods, reason = "the log domain's one door")]

use crate::PROB_EPS;

/// Absolute tolerance for comparing query thresholds themselves (e.g.
/// τ against the construction-time floor). Distinct from [`PROB_EPS`],
/// which absorbs rounding in *computed* probabilities; thresholds come in
/// exact but may be re-derived (quantized, serialized) along the way.
pub const TAU_TOLERANCE: f64 = 1e-12;

/// Natural log of a probability. The one sanctioned entry into the log
/// domain: probability products are evaluated as sums of these.
#[inline]
pub fn ln(p: f64) -> f64 {
    p.ln()
}

/// The log of the empty product, `+0.0`: every window's sum starts here.
pub const LOG_ONE: f64 = 0.0;

/// One factor more of a window's product, in the log domain: `log_p +
/// ln_factor`. The workspace's one summation step, with two callers: the
/// kernel's walk ([`crate::MatchKernel::log_match_bounded`]) and an
/// index's window sum over its value codes. Both add a window's factors
/// left to right from [`LOG_ONE`], so a window's value is one sum in one
/// order wherever it is taken. A factor of exactly `+0.0` (a certain
/// character) leaves a sum that started at [`LOG_ONE`] as it was, bit for
/// bit — no such sum is ever `−0.0` — so the kernel skips it, and the
/// window sum adds it, to the same value.
#[inline]
pub fn log_mul(log_p: f64, ln_factor: f64) -> f64 {
    log_p + ln_factor
}

/// Inverse of [`ln`]: back from the log domain to a linear probability.
#[inline]
pub fn exp(log_p: f64) -> f64 {
    log_p.exp()
}

/// A query (or construction) threshold is valid iff it lies in `(0, 1]`.
#[inline]
pub fn valid_tau(tau: f64) -> bool {
    tau > 0.0 && tau <= 1.0
}

/// A model probability is valid iff it lies in `(0, 1 + PROB_EPS]`.
#[inline]
pub fn valid_prob(p: f64) -> bool {
    p > 0.0 && p <= 1.0 + PROB_EPS
}

/// Whether a model probability is 1, up to [`PROB_EPS`].
#[inline]
pub fn is_certain(p: f64) -> bool {
    p >= 1.0 - PROB_EPS
}

/// An approximation parameter ε is valid iff it lies in `(0, 1)` (ε = 1
/// would retain nothing; ε = 0 is the exact index).
#[inline]
pub fn valid_epsilon(epsilon: f64) -> bool {
    epsilon > 0.0 && epsilon < 1.0
}

/// Whether τ falls below the construction-time floor, up to
/// [`TAU_TOLERANCE`] (a τ exactly at the floor is allowed).
#[inline]
pub fn below_floor(tau: f64, tau_min: f64) -> bool {
    tau < tau_min - TAU_TOLERANCE
}

/// Combined check used by executors whose floor is baked in: τ is at or
/// above `tau_min` (up to [`TAU_TOLERANCE`]) and at most 1.
#[inline]
pub fn tau_in_range(tau: f64, tau_min: f64) -> bool {
    tau >= tau_min - TAU_TOLERANCE && tau <= 1.0
}

/// The least log-probability that meets `log_tau = ln τ`: the threshold
/// rule as a number, for structures that compare (an RMQ report, a floor).
#[inline]
pub fn log_cut(log_tau: f64) -> f64 {
    log_tau - PROB_EPS
}

/// The threshold rule (module docs): an occurrence of log-probability
/// `log_p` meets τ iff `ln p ≥ ln τ − PROB_EPS`, i.e. `p ≥ τ·e^−PROB_EPS`.
#[inline]
pub fn log_meets_threshold(log_p: f64, log_tau: f64) -> bool {
    log_p >= log_cut(log_tau)
}

/// Whether a probability contribution is strictly positive (a zero factor
/// annihilates a product, so scanners prune on this).
#[inline]
pub fn is_positive_prob(p: f64) -> bool {
    p > 0.0
}

/// Independent-event OR over occurrence probabilities: `1 − Π(1 − pᵢ)`.
#[inline]
pub fn independent_or(probs: impl Iterator<Item = f64>) -> f64 {
    1.0 - probs.map(|p| 1.0 - p).product::<f64>()
}

/// Bytes → mebibytes for telemetry display. Lives here so display math
/// cannot be confused with probability math: the divisor is an exact
/// power of two, so the conversion is lossless in the exponent.
#[inline]
pub fn bytes_to_mib(bytes: usize) -> f64 {
    const BYTES_PER_MIB: f64 = (1u64 << 20) as f64;
    bytes as f64 / BYTES_PER_MIB
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_validation_bounds() {
        assert!(valid_tau(1.0));
        assert!(valid_tau(f64::MIN_POSITIVE));
        assert!(!valid_tau(0.0));
        assert!(!valid_tau(1.0 + f64::EPSILON));
        assert!(!valid_tau(f64::NAN));
    }

    #[test]
    fn epsilon_validation_bounds() {
        assert!(valid_epsilon(0.5));
        assert!(!valid_epsilon(0.0));
        assert!(!valid_epsilon(1.0));
        assert!(!valid_epsilon(f64::NAN));
    }

    #[test]
    fn floor_checks_tolerate_exact_floor() {
        assert!(!below_floor(0.1, 0.1));
        assert!(below_floor(0.0999, 0.1));
        assert!(tau_in_range(0.1, 0.1));
        assert!(!tau_in_range(0.0999, 0.1));
        assert!(!tau_in_range(1.0 + f64::EPSILON, 0.1));
    }

    #[test]
    fn log_domain_round_trip_is_the_primitive() {
        // Bit-identity with the raw primitives, not approximate equality:
        // call sites were rewritten to route through canon and must not
        // change a single result bit.
        for &p in &[0.3, 0.5, 1.0, 1e-12] {
            assert_eq!(ln(p).to_bits(), p.ln().to_bits());
            assert_eq!(exp(ln(p)).to_bits(), p.ln().exp().to_bits());
        }
    }

    #[test]
    fn adding_a_certain_factor_keeps_every_bit() {
        // Sums from `LOG_ONE` of factors at most 0: `+0.0` is the identity
        // on each, the empty sum included.
        let mut log_p = LOG_ONE;
        for factor in [0.0, ln(0.7), 0.0, ln(1e-300), ln(0.5), f64::NEG_INFINITY] {
            assert_eq!(log_mul(log_p, 0.0).to_bits(), log_p.to_bits());
            log_p = log_mul(log_p, factor);
        }
        assert_eq!(log_p, f64::NEG_INFINITY);
        assert_eq!(LOG_ONE.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn independent_or_matches_closed_form() {
        let probs = [0.5, 0.5];
        assert_eq!(independent_or(probs.iter().copied()), 0.75);
        assert_eq!(independent_or(std::iter::empty()), 0.0);
    }

    #[test]
    fn mib_conversion_is_exact_for_whole_mib() {
        assert_eq!(bytes_to_mib(1 << 20), 1.0);
        assert_eq!(bytes_to_mib(3 << 19), 1.5);
        assert_eq!(bytes_to_mib(0), 0.0);
    }
}
