//! Fixture: the same checks routed through the canonical-probability
//! module — no float literal is compared against.

use ustr_uncertain::canon;

pub fn tau_ok(tau: f64) -> bool {
    canon::valid_tau(tau)
}

pub fn likely(p: f64, half: f64) -> bool {
    canon::meets_threshold(p, half)
}
