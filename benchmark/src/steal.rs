//! Epochs the hypervisor did not disturb.
//!
//! This guest shares its host. For seconds at a time the hypervisor gives
//! its vCPUs 20–45 % less than they ask for, and says so: the `steal`
//! column of `/proc/stat`. A request that needs two threads to hand work
//! to each other then takes two to three times as long (`serve-fanout`
//! epoch p50s of 1.7–2.5 ms against 0.66 ms, for exactly the ten seconds
//! the column read 20–45 %), which is the neighbours' doing and not the
//! program's. So a timed phase runs its epochs through [`undisturbed`]: it
//! starts once the box is quiet ([`await_quiet`], which gives up after
//! [`PATIENCE`]), and an epoch during which more than [`STOLEN_LIMIT`] of
//! the guest's CPU time was stolen is thrown away and run again, as long as
//! spare epochs remain (half as many as the phase has). The bursts last
//! 10–25 s and took about a run in five while this was written, so a run
//! in five is up to half a minute longer and the others are not.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Share of the guest's CPU time above which an epoch counts as disturbed.
/// Quiet seconds on this box read 0–2 %.
pub const STOLEN_LIMIT: f64 = 0.05;

/// Longest a phase waits, in all, for the box to go quiet, and the length
/// of one look at it.
pub const PATIENCE: Duration = Duration::from_secs(15);
const PROBE: Duration = Duration::from_millis(250);

/// Ticks per second of the `/proc/stat` columns (`USER_HZ`, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// The `steal` column of the first line of a `/proc/stat` text: ticks
/// during which the hypervisor ran something else, summed over the CPUs.
fn steal_column(stat: &str) -> Option<u64> {
    let mut fields = stat.lines().next()?.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    // user nice system idle iowait irq softirq steal
    fields.nth(7)?.parse().ok()
}

/// A reading of the steal clock; `None` where `/proc/stat` has none.
#[derive(Debug, Clone, Copy)]
pub struct StealClock {
    at: Instant,
    ticks: Option<u64>,
}

impl StealClock {
    pub fn read() -> Self {
        Self {
            at: Instant::now(),
            ticks: std::fs::read_to_string("/proc/stat")
                .ok()
                .and_then(|stat| steal_column(&stat)),
        }
    }

    /// Share of the guest's CPU time (all CPUs) stolen since `self` was
    /// read; 0 where the platform does not say.
    pub fn stolen_share_since(&self) -> f64 {
        let now = Self::read();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        match (self.ticks, now.ticks) {
            (Some(before), Some(after)) => stolen_share(
                after.saturating_sub(before),
                now.at.duration_since(self.at).as_secs_f64(),
                cpus,
            ),
            _ => 0.0,
        }
    }
}

fn stolen_share(ticks: u64, wall_s: f64, cpus: usize) -> f64 {
    if wall_s <= 0.0 {
        return 0.0;
    }
    ticks as f64 / (wall_s * TICKS_PER_S * cpus as f64)
}

/// Keeps one CPU busy — an idle vCPU has nothing to steal — a [`PROBE`] at
/// a time until a probe reads quiet or `patience` is used up, and takes
/// the time it waited out of `patience`. One probe on a quiet box.
pub fn await_quiet(patience: &mut Duration) {
    loop {
        let clock = StealClock::read();
        let mut spins = 0u64;
        while clock.at.elapsed() < PROBE {
            spins = black_box(spins + 1);
        }
        if clock.stolen_share_since() <= STOLEN_LIMIT || *patience < PROBE {
            return;
        }
        *patience -= PROBE;
    }
}

/// Decides, epoch by epoch, which ones count: a disturbed epoch is thrown
/// away — to be run again — while spare epochs remain; once they are used
/// up, disturbed epochs count too. They were measured, and the median of
/// the epochs leaves them out unless they are the majority.
#[derive(Debug)]
pub struct Sifter {
    spare: usize,
    /// Epochs thrown away and run again.
    pub rerun: usize,
    /// Counted epochs that were disturbed all the same.
    pub disturbed_kept: usize,
    /// How long the phase waited for the box to go quiet.
    pub waited: Duration,
}

impl Sifter {
    /// At most `spare` epochs will be run again.
    pub fn new(spare: usize) -> Self {
        Self {
            spare,
            rerun: 0,
            disturbed_kept: 0,
            waited: Duration::ZERO,
        }
    }

    /// Whether an epoch during which `stolen` of the CPU time was stolen
    /// counts.
    pub fn keeps(&mut self, stolen: f64) -> bool {
        if stolen <= STOLEN_LIMIT {
            true
        } else if self.rerun < self.spare {
            self.rerun += 1;
            false
        } else {
            self.disturbed_kept += 1;
            true
        }
    }

    /// A line for the report's notes, when anything was disturbed.
    pub fn note(&self, phase: &str) -> Option<String> {
        (self.rerun + self.disturbed_kept > 0 || !self.waited.is_zero()).then(|| {
            format!(
                "{phase}: waited {:.1} s for a quiet box; {} epochs with more than {:.0} % of the CPU time stolen were run again, {} were kept",
                self.waited.as_secs_f64(),
                self.rerun,
                STOLEN_LIMIT * 100.0,
                self.disturbed_kept
            )
        })
    }
}

/// Waits for a quiet box, then runs `epoch` until `count` epochs count
/// (see [`Sifter`]), running at most `spare` of them again and waiting for
/// quiet before each of those. Every call does the same fixed work and
/// returns what it measured; the values of the counted epochs come back in
/// the order they ran.
pub fn undisturbed<T>(
    count: usize,
    spare: usize,
    mut epoch: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<T>, Sifter), String> {
    let mut sifter = Sifter::new(spare);
    let mut kept = Vec::with_capacity(count);
    let mut patience = PATIENCE;
    await_quiet(&mut patience);
    while kept.len() < count {
        let clock = StealClock::read();
        let value = epoch()?;
        if sifter.keeps(clock.stolen_share_since()) {
            kept.push(value);
        } else {
            await_quiet(&mut patience);
        }
    }
    sifter.waited = PATIENCE - patience;
    Ok((kept, sifter))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_steal_column_is_the_eighth() {
        let stat =
            "cpu  1554991 0 308659 2339089 85143 0 82479 78305 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(steal_column(stat), Some(78305));
        assert_eq!(steal_column("cpu 1 2 3"), None);
        assert_eq!(steal_column("intr 5"), None);
        // 23 ticks in half a second on two CPUs: 23 %.
        assert!((stolen_share(23, 0.5, 2) - 0.23).abs() < 1e-12);
        assert_eq!(stolen_share(5, 0.0, 2), 0.0);
    }

    #[test]
    fn disturbed_epochs_are_run_again_while_spares_last() {
        // Epochs 2-4 fall into a burst: they are repeated, and the counted
        // epochs are all quiet ones.
        let mut sifter = Sifter::new(4);
        let kept: Vec<bool> = [0.0, 0.3, 0.4, 0.2, 0.01, 0.0, 0.02]
            .iter()
            .map(|&stolen| sifter.keeps(stolen))
            .collect();
        assert_eq!(kept, [true, false, false, false, true, true, true]);
        assert_eq!((sifter.rerun, sifter.disturbed_kept), (3, 0));
        assert!(sifter.note("latency").unwrap().contains("3 epochs"));

        // A burst that outlasts the spare epochs: the phase still ends, and
        // says what it kept.
        let mut sifter = Sifter::new(2);
        let kept: Vec<bool> = (0..5).map(|_| sifter.keeps(0.5)).collect();
        assert_eq!(kept, [false, false, true, true, true]);
        assert_eq!((sifter.rerun, sifter.disturbed_kept), (2, 3));

        // A quiet run says nothing.
        assert_eq!(Sifter::new(2).note("latency"), None);
    }

    #[test]
    fn a_phase_collects_its_epochs_and_stops_at_a_failure() {
        let mut calls = 0;
        let (kept, sifter) = undisturbed(3, 3, || {
            calls += 1;
            Ok(calls)
        })
        .unwrap();
        // Whatever this box steals while the test runs, three epochs count
        // and no more than three were run again.
        assert_eq!(kept.len(), 3);
        assert_eq!(calls, 3 + sifter.rerun);
        assert!(undisturbed(2, 1, || Err::<(), _>("refused".to_string())).is_err());
    }
}
