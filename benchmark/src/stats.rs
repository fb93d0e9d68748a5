//! Percentiles, epoch medians and self-time subtraction: the arithmetic
//! every reported number goes through, kept apart so it can be unit-tested.

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`); 0 for
/// an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Sorts `values` in place and returns its `p`-percentile.
pub fn percentile_of(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, p)
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `k`-th quartile (1 or 3) as Python's `statistics.quantiles(values,
/// n=4)` gives it — the rule the driver judges run-to-run spread by; the
/// one value of a single-element slice, 0 for an empty one.
pub fn quartile(values: &[f64], k: u32) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let at = (f64::from(k) * (v.len() + 1) as f64 / 4.0 - 1.0).clamp(0.0, (v.len() - 1) as f64);
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * at.fract()
}

/// Distance between the first and third quartile as a share of the median.
/// 0 for fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    (quartile(values, 3) - quartile(values, 1)) / mid.abs()
}

/// A reported value with what it was computed from: per-epoch (or
/// per-repetition) values, their median and extremes, and the number of raw
/// samples behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub samples: usize,
}

impl Summary {
    /// A single exact value (a count or a size): no spread.
    pub fn exact(value: f64) -> Self {
        Self::of_epochs(&[value], 1)
    }

    /// Summarizes per-epoch (or per-repetition) values by their median.
    pub fn of_epochs(epoch_values: &[f64], samples: usize) -> Self {
        let fold = |f: fn(f64, f64) -> f64| epoch_values.iter().copied().reduce(f).unwrap_or(0.0);
        let median = median(epoch_values);
        Self {
            value: median,
            median,
            min: fold(f64::min),
            max: fold(f64::max),
            samples,
        }
    }

    /// Summarizes per-epoch values of a cost by the **quietest epoch**,
    /// the smallest: for single-threaded phases whose epoch values repeat
    /// within a per cent or two on a quiet box. What the neighbours of this
    /// box do to such a phase only ever adds time, and for seconds to
    /// minutes at a stretch (four runs of one binary on one input: median
    /// epochs of 1.42, 1.53, 2.10 and 1.43 us, quietest epochs of 1.39,
    /// 1.40, 1.41 and 1.42), so the median epoch measures the neighbours and
    /// the quietest one the program. Not a low quartile either: of ten runs
    /// in a bad quarter of an hour four had one to three quiet epochs in
    /// ten and a first quartile 30-45 % up. The epoch count is fixed, so
    /// how far a minimum leans low is the same on every commit. Where an
    /// epoch value scatters by itself (requests that cross threads), the
    /// smallest of ten is a lucky one: those phases keep [`of_epochs`].
    ///
    /// [`of_epochs`]: Summary::of_epochs
    pub fn quietest(epoch_values: &[f64], samples: usize) -> Self {
        let all = Self::of_epochs(epoch_values, samples);
        Self {
            value: all.min,
            ..all
        }
    }

    /// How far this run's own epochs are from agreeing, as a share of the
    /// value: the range of the epochs for a median, the distance from the
    /// quietest epoch to the median one for a quietest-epoch value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else if self.value == self.median {
            (self.max - self.min) / self.value.abs()
        } else {
            (self.median - self.value).abs() / self.value.abs()
        }
    }
}

/// The `p`-percentile of each non-empty epoch's samples, and how many
/// samples there were in all.
fn epoch_percentiles(epochs: &mut [Vec<f64>], p: f64) -> (Vec<f64>, usize) {
    let samples = epochs.iter().map(Vec::len).sum();
    let per_epoch = epochs
        .iter_mut()
        .filter(|e| !e.is_empty())
        .map(|e| percentile_of(e, p))
        .collect();
    (per_epoch, samples)
}

/// The `p`-percentile of each epoch's samples, then the median of those.
pub fn epoch_percentile(epochs: &mut [Vec<f64>], p: f64) -> Summary {
    let (per_epoch, samples) = epoch_percentiles(epochs, p);
    Summary::of_epochs(&per_epoch, samples)
}

/// The `p`-percentile of each epoch's latency samples, then the quietest
/// epoch's (see [`Summary::quietest`]).
pub fn quietest_epoch_percentile(epochs: &mut [Vec<f64>], p: f64) -> Summary {
    let (per_epoch, samples) = epoch_percentiles(epochs, p);
    Summary::quietest(&per_epoch, samples)
}

/// Element-wise `outer − inner`: the time a boundary adds on top of the
/// next-inner boundary, request by request. Inputs align by request.
pub fn self_times(outer: &[f64], inner: &[f64]) -> Vec<f64> {
    assert_eq!(outer.len(), inner.len(), "boundaries align by request");
    outer.iter().zip(inner).map(|(o, i)| o - i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 51.0); // round(99 * 0.5) = 50 → 51
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn one_slow_epoch_does_not_move_the_median() {
        // Four quiet epochs and one disturbed by a neighbour: the reported
        // value is a quiet epoch's p50, the disturbance shows as `max`.
        let mut epochs = vec![
            vec![10.0, 11.0, 12.0],
            vec![10.0, 10.0, 13.0],
            vec![50.0, 60.0, 70.0],
            vec![9.0, 11.0, 30.0],
            vec![10.0, 12.0, 12.0],
        ];
        let s = epoch_percentile(&mut epochs, 0.5);
        assert_eq!(s.value, 11.0);
        assert_eq!((s.min, s.max), (10.0, 60.0));
        assert_eq!(s.samples, 15);
    }

    #[test]
    fn the_quietest_epoch_ignores_how_many_epochs_were_disturbed() {
        // Eight of ten epochs beside a busy neighbour: the median epoch
        // and the first quartile are disturbed ones, the quietest is not.
        let p50s = [2.3, 2.2, 1.43, 2.4, 2.3, 2.1, 2.2, 2.5, 1.44, 2.3];
        let cost = Summary::quietest(&p50s, 150);
        assert_eq!((cost.value, cost.median, cost.max), (1.43, 2.25, 2.5));
        assert!(quartile(&p50s, 1) > 1.9);
        assert!((cost.spread() - (2.25 - 1.43) / 1.43).abs() < 1e-12);
        // And through the per-epoch percentile.
        let mut epochs = vec![vec![50.0, 60.0, 70.0], vec![9.0, 11.0, 30.0]];
        let s = quietest_epoch_percentile(&mut epochs, 0.5);
        assert_eq!((s.value, s.max, s.samples), (11.0, 60.0, 6));
        // A median's spread is the range of its epochs.
        assert_eq!(Summary::of_epochs(&[1.0, 1.5, 2.0], 3).spread(), 1.0 / 1.5);
    }

    #[test]
    fn quartile_spread_matches_pythons_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        // Three runs: the quartiles are the extremes.
        assert!((quartile_spread(&[60.0, 66.0, 63.0]) - 6.0 / 63.0).abs() < 1e-12);
        // One outlier in ten does not widen it.
        let mut steady = vec![100.0; 9];
        steady.push(300.0);
        assert_eq!(quartile_spread(&steady), 0.0);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
        assert_eq!((quartile(&ten, 1), quartile(&ten, 3)), (2.75, 8.25));
        assert_eq!((quartile(&[5.0], 1), quartile(&[], 3)), (5.0, 0.0));
    }

    #[test]
    fn self_time_is_outer_minus_inner_per_request() {
        let engine = [100.0, 220.0, 90.0];
        let segment = [70.0, 200.0, 95.0];
        let added = self_times(&engine, &segment);
        assert_eq!(added, vec![30.0, 20.0, -5.0]);
        // The layer's reported cost is the median difference, which one
        // request measured backwards (−5) does not drag below zero.
        assert_eq!(median(&added), 20.0);
    }

    #[test]
    fn exact_values_have_no_spread() {
        let s = Summary::exact(1560.0);
        assert_eq!(
            (s.value, s.min, s.max, s.samples),
            (1560.0, 1560.0, 1560.0, 1)
        );
        let reps = Summary::of_epochs(&[1.4, 1.2, 1.9], 3);
        assert_eq!((reps.value, reps.min, reps.max), (1.4, 1.2, 1.9));
        assert_eq!(Summary::of_epochs(&[], 0).value, 0.0);
    }
}
