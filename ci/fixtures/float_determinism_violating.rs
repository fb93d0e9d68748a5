//! Fixture: ad-hoc threshold checks that fork the canonical ones. Trips
//! the float-literal comparison check twice: a literal on the right of a
//! comparison, and one on the left. (Raw arithmetic and `.ln()` are
//! clippy's to catch: `float_arithmetic` and `disallowed-methods`.)

pub fn tau_ok(tau: f64) -> bool {
    tau > 0.0 && tau <= 1.0
}

pub fn likely(p: f64) -> bool {
    0.5 < p
}
