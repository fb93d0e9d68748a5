//! Possible-world semantics (§1): exhaustive enumeration of the
//! deterministic strings an uncertain string can generate.
//!
//! The number of worlds grows exponentially, so enumeration is only suitable
//! for small strings — the workspace uses it as the ground-truth oracle in
//! tests, exactly the role "possible worlds" play in the paper's semantics.

use crate::{error::ModelError, string::UncertainString};

/// Default cap on enumerated worlds (≈ one million).
pub const DEFAULT_WORLD_LIMIT: u128 = 1 << 20;

/// Iterator over `(world, probability)` pairs in odometer order (the choice
/// at the last position varies fastest).
struct WorldIter<'a> {
    s: &'a UncertainString,
    /// Current choice index at each position; `None` once exhausted.
    state: Option<Vec<usize>>,
}

impl<'a> WorldIter<'a> {
    fn new(s: &'a UncertainString) -> Self {
        let state = if s.is_empty() {
            Some(Vec::new())
        } else {
            Some(vec![0; s.len()])
        };
        Self { s, state }
    }
}

impl Iterator for WorldIter<'_> {
    type Item = (Vec<u8>, f64);

    fn next(&mut self) -> Option<Self::Item> {
        let state = self.state.as_mut()?;
        let result = {
            let chars: Vec<u8> = state
                .iter()
                .enumerate()
                .map(|(i, &k)| self.s.position(i).choices()[k].0)
                .collect();
            let prob = self.s.match_probability(&chars, 0);
            (chars, prob)
        };
        // Advance the odometer.
        let mut i = state.len();
        loop {
            if i == 0 {
                self.state = None;
                break;
            }
            i -= 1;
            state[i] += 1;
            if state[i] < self.s.position(i).num_choices() {
                break;
            }
            state[i] = 0;
        }
        Some(result)
    }
}

impl UncertainString {
    /// Number of possible worlds (product of per-position choice counts),
    /// saturating at `u128::MAX`.
    pub fn num_worlds(&self) -> u128 {
        self.positions()
            .iter()
            .fold(1u128, |acc, p| acc.saturating_mul(p.num_choices() as u128))
    }

    /// Enumerates every possible world with its probability, failing when
    /// more than [`DEFAULT_WORLD_LIMIT`] worlds would be produced.
    pub fn possible_worlds(&self) -> Result<Vec<(Vec<u8>, f64)>, ModelError> {
        self.possible_worlds_with_limit(DEFAULT_WORLD_LIMIT)
    }

    /// Enumerates every possible world with an explicit safety limit.
    pub fn possible_worlds_with_limit(
        &self,
        limit: u128,
    ) -> Result<Vec<(Vec<u8>, f64)>, ModelError> {
        let count = self.num_worlds();
        if count > limit {
            return Err(ModelError::WorldExplosion {
                worlds_at_least: count,
                limit,
            });
        }
        Ok(WorldIter::new(self).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1_has_twelve_worlds() {
        let s = UncertainString::parse("a:.3,b:.4,d:.3 | a:.6,c:.4 | d | a:.5,c:.5 | a").unwrap();
        assert_eq!(s.num_worlds(), 12);
        let worlds = s.possible_worlds().unwrap();
        assert_eq!(worlds.len(), 12);
        let total: f64 = worlds.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9, "world probabilities sum to 1");
        // Spot-check the figure: aadaa = .09, badaa = .12, dcdca = .06.
        let lookup = |w: &[u8]| {
            worlds
                .iter()
                .find(|(chars, _)| chars == w)
                .map(|&(_, p)| p)
                .unwrap()
        };
        assert!((lookup(b"aadaa") - 0.09).abs() < 1e-12);
        assert!((lookup(b"badaa") - 0.12).abs() < 1e-12);
        assert!((lookup(b"dcdca") - 0.06).abs() < 1e-12);
    }

    #[test]
    fn deterministic_string_has_one_world() {
        let s = UncertainString::deterministic(b"abc");
        let worlds = s.possible_worlds().unwrap();
        assert_eq!(worlds, vec![(b"abc".to_vec(), 1.0)]);
    }

    #[test]
    fn empty_string_has_one_empty_world() {
        let s = UncertainString::new(Vec::new());
        let worlds = s.possible_worlds().unwrap();
        assert_eq!(worlds.len(), 1);
        assert!(worlds[0].0.is_empty());
        assert_eq!(worlds[0].1, 1.0);
    }

    #[test]
    fn explosion_guard() {
        // 4^40 worlds blows past any reasonable limit.
        let rows: Vec<Vec<(u8, f64)>> = (0..40)
            .map(|_| vec![(b'a', 0.25), (b'b', 0.25), (b'c', 0.25), (b'd', 0.25)])
            .collect();
        let s = UncertainString::from_rows(rows).unwrap();
        assert!(matches!(
            s.possible_worlds(),
            Err(ModelError::WorldExplosion { .. })
        ));
    }

    #[test]
    fn worlds_are_distinct() {
        let s = UncertainString::parse("a:.5,b:.5 | c:.4,d:.6").unwrap();
        let worlds = s.possible_worlds().unwrap();
        let mut seen: Vec<Vec<u8>> = worlds.iter().map(|(w, _)| w.clone()).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 4);
    }
}
