//! Lightweight timing spans: start a clock, record the elapsed
//! microseconds into a histogram when finished (or dropped).

use crate::metrics::Histogram;
use std::time::Instant;

/// A started stage timer. Records elapsed **microseconds** into its
/// histogram exactly once — on [`finish`](Span::finish) or on drop,
/// whichever comes first.
#[derive(Debug)]
pub struct Span {
    histogram: Histogram,
    start: Instant,
    armed: bool,
}

impl Span {
    /// Starts a span recording into an existing histogram handle.
    pub fn on(histogram: Histogram) -> Span {
        Span {
            histogram,
            start: Instant::now(),
            armed: true,
        }
    }

    /// Microseconds since the span started (saturating).
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Records the elapsed time and returns it in microseconds.
    pub fn finish(mut self) -> u64 {
        let us = self.elapsed_us();
        self.histogram.record(us);
        self.armed = false;
        us
    }

    /// Forgets the span without recording anything.
    pub fn cancel(mut self) {
        self.armed = false;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            self.histogram.record(self.elapsed_us());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_records_once() {
        let h = Histogram::new();
        let span = Span::on(h.clone());
        let us = span.finish();
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, us);
    }

    #[test]
    fn drop_records_and_cancel_does_not() {
        let h = Histogram::new();
        {
            let _span = Span::on(h.clone());
        }
        assert_eq!(h.snapshot().count, 1);
        Span::on(h.clone()).cancel();
        assert_eq!(h.snapshot().count, 1);
    }
}
