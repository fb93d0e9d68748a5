//! The paper's *simple index* (§4.1): suffix range + exhaustive scan.
//!
//! Build the deterministic text of the (transformed) uncertain string, a
//! suffix array over it, and the cumulative probability array `C`. A query
//! finds the suffix range of the pattern and then verifies **every** element
//! of the range against the threshold — the baseline whose per-range cost
//! the efficient RMQ index removes.

use ustr_suffix::SuffixArray;
use ustr_uncertain::kstats::ScanPath;
use ustr_uncertain::{canon, transform, ModelError, ProbPlane, Scan, Transformed, UncertainString};

/// Simple (non-RMQ) index over a general uncertain string.
///
/// ```
/// use ustr_baseline::SimpleIndex;
/// use ustr_uncertain::UncertainString;
/// let s = UncertainString::parse("b:.4 | a:.7 | n:.5 | a:.8 | n:.9 | a:.6").unwrap();
/// let idx = SimpleIndex::build(&s, 0.1).unwrap();
/// // Figure 5: query ("ana", 0.3) reports only position 3 (.432).
/// assert_eq!(idx.query(b"ana", 0.3).unwrap(), vec![3]);
/// assert_eq!(idx.query(b"ana", 0.2).unwrap(), vec![1, 3]);
/// ```
#[derive(Debug)]
pub struct SimpleIndex {
    /// Flat verification plane over the source model (all the query path
    /// needs of it — bit-identical to `log_match_probability`).
    plane: ProbPlane,
    transformed: Transformed,
    sa: SuffixArray,
    tau_min: f64,
}

impl SimpleIndex {
    /// Builds the index with construction-time threshold `tau_min`.
    pub fn build(source: &UncertainString, tau_min: f64) -> Result<Self, ModelError> {
        let transformed = transform(source, tau_min)?;
        let sa = SuffixArray::new(transformed.special.chars().to_vec());
        Ok(Self {
            plane: ProbPlane::build(source),
            transformed,
            sa,
            tau_min,
        })
    }

    /// The construction-time threshold.
    pub fn tau_min(&self) -> f64 {
        self.tau_min
    }

    /// Occurrence positions of `pattern` in the source string with
    /// probability ≥ `tau`, sorted ascending. `tau` must satisfy
    /// `tau_min ≤ tau ≤ 1`.
    pub fn query(&self, pattern: &[u8], tau: f64) -> Result<Vec<usize>, ModelError> {
        if pattern.is_empty() {
            return Err(ModelError::EmptyPattern);
        }
        if !canon::tau_in_range(tau, self.tau_min) {
            return Err(ModelError::InvalidThreshold { value: tau });
        }
        let Some((l, r)) = self.sa.suffix_range(pattern) else {
            return Ok(Vec::new());
        };
        // Scan the whole range (the inefficiency the efficient index fixes),
        // mapping each text offset back to the source position and verifying
        // the exact probability there by the plane kernel's one call.
        let sa = &self.sa.sa()[l..=r];
        let sources = (sa.iter()).filter_map(|&x| self.transformed.source_pos(x as usize));
        let mut scan = Scan::new(ScanPath::Plane);
        (self.plane).with_kernel(pattern, |k| k.verify(sources, canon::ln(tau), &mut scan));
        let mut out: Vec<usize> = scan.finish().into_iter().map(|(src, _)| src).collect();
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// Number of candidates the query scans (the ablation `tests/paper_axes.rs` counts):
    /// the full suffix-range size, regardless of how many pass the threshold.
    pub fn candidates(&self, pattern: &[u8]) -> usize {
        self.sa.suffix_range(pattern).map_or(0, |(l, r)| r - l + 1)
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        self.sa.heap_size() + self.transformed.heap_size() + self.plane.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaiveScanner;

    #[test]
    fn matches_scanner_on_general_strings() {
        let s = UncertainString::parse(
            "P | S:.7,F:.3 | F | P | Q:.5,T:.5 | P | A:.4,F:.4,P:.2 | \
             I:.3,L:.3,P:.3,T:.1 | A | S:.5,T:.5 | A",
        )
        .unwrap();
        let idx = SimpleIndex::build(&s, 0.05).unwrap();
        for pattern in [&b"AT"[..], b"P", b"PQ", b"SFPQ", b"FP", b"TPA"] {
            for tau in [0.05, 0.1, 0.3, 0.5] {
                let got = idx.query(pattern, tau).unwrap();
                let expected = NaiveScanner::find(&s, pattern, tau);
                assert_eq!(got, expected, "pattern {pattern:?} tau {tau}");
            }
        }
    }

    #[test]
    fn rejects_invalid_queries() {
        let s = UncertainString::deterministic(b"abc");
        let idx = SimpleIndex::build(&s, 0.5).unwrap();
        assert!(matches!(idx.query(b"", 0.6), Err(ModelError::EmptyPattern)));
        assert!(matches!(
            idx.query(b"a", 0.3), // below tau_min
            Err(ModelError::InvalidThreshold { .. })
        ));
        assert!(matches!(
            idx.query(b"a", 1.5),
            Err(ModelError::InvalidThreshold { .. })
        ));
    }

    #[test]
    fn duplicate_source_positions_reported_once() {
        // Overlapping factors can contain the same source occurrence twice.
        let s = UncertainString::parse("a:.5,b:.5 | c | d | e:.5,f:.5").unwrap();
        let idx = SimpleIndex::build(&s, 0.2).unwrap();
        let got = idx.query(b"cd", 0.5).unwrap();
        assert_eq!(got, vec![1]);
    }

    #[test]
    fn missing_pattern() {
        let s = UncertainString::deterministic(b"abc");
        let idx = SimpleIndex::build(&s, 0.5).unwrap();
        assert!(idx.query(b"zzz", 0.9).unwrap().is_empty());
    }
}
