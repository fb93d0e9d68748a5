//! Construction statistics (used by the Figure 9 experiments).

use ustr_uncertain::canon;

use std::time::Duration;

/// Statistics recorded while building an index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildStats {
    /// Positions in the source uncertain string (collection total for the
    /// listing index).
    pub source_len: usize,
    /// Length of the transformed deterministic text (separators included).
    pub transformed_len: usize,
    /// Number of maximal factors emitted by the transform.
    pub num_factors: usize,
    /// Wall-clock construction time; zero for an index loaded from a
    /// snapshot, which records none (two builds write the same bytes).
    pub build_time: Duration,
    /// Approximate heap footprint, in bytes, of the index these statistics
    /// are read from: measured when built, and again when loaded.
    pub heap_bytes: usize,
}

impl BuildStats {
    /// Expansion ratio |X| / |S| (the space constant discussed in §8.7).
    #[allow(clippy::float_arithmetic, reason = "a size ratio, not a probability")]
    pub fn expansion(&self) -> f64 {
        if self.source_len == 0 {
            0.0
        } else {
            self.transformed_len as f64 / self.source_len as f64
        }
    }

    /// Heap footprint in mebibytes.
    pub fn heap_mib(&self) -> f64 {
        canon::bytes_to_mib(self.heap_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let s = BuildStats {
            source_len: 100,
            transformed_len: 250,
            num_factors: 40,
            build_time: Duration::from_millis(5),
            heap_bytes: 2 * 1024 * 1024,
        };
        assert!((s.expansion() - 2.5).abs() < 1e-12);
        assert!((s.heap_mib() - 2.0).abs() < 1e-12);
        assert_eq!(BuildStats::default().expansion(), 0.0);
    }
}
