//! Input generation. Everything a workload feeds the program under test —
//! documents, patterns, thresholds — is a pure function of `--seed`, made
//! here inside the benchmark process; the crates only ever see the
//! generated documents and requests.

use ustr_service::QueryRequest;
use ustr_uncertain::UncertainString;
use ustr_workload::{sample_patterns, PatternMode};

/// Construction threshold used by every index in every workload.
pub const TAU_MIN: f64 = 0.1;
/// ε of every approximate index.
pub const EPSILON: f64 = 0.05;

/// How much work a run does, derived from `--seconds` and `--quick`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Multiplier on every pass count (`--seconds / RUN_SECONDS`).
    pub passes: f64,
    /// `--quick`: data sizes divided by ten, one set-up repetition.
    pub quick: bool,
}

impl Scale {
    /// `base` passes at full scale, never fewer than one.
    pub fn passes(&self, base: usize) -> usize {
        ((base as f64 * self.passes).round() as usize).max(1)
    }

    /// A data size: a tenth in `--quick` mode.
    pub fn size(&self, full: usize) -> usize {
        if self.quick {
            full / 10
        } else {
            full
        }
    }

    /// Set-up repetitions: `(discarded, timed)`. A full end-to-end run sets
    /// up once unmeasured — the first build in a process pays for memory
    /// the kernel has never handed out, which no later one does — and then
    /// `full` times, reporting the median. Traced and `--quick` runs set
    /// up once.
    pub fn setup_reps(&self, full: usize, traced: bool) -> (usize, usize) {
        if self.quick || traced {
            (0, 1)
        } else {
            (1, full)
        }
    }
}

/// All documents laid end to end: the text patterns are sampled from.
pub fn concat(docs: &[UncertainString]) -> UncertainString {
    UncertainString::new(
        docs.iter()
            .flat_map(|d| d.positions().iter().cloned())
            .collect(),
    )
}

/// Total positions of a collection.
pub fn positions(docs: &[UncertainString]) -> usize {
    docs.iter().map(UncertainString::len).sum()
}

/// Pattern lengths of the serving workloads' pool. An odd number of
/// lengths, so the median request of a mode is a middle-length pattern
/// and not the gap between two lengths (where one pattern more or less
/// moves a p50 by the whole gap).
pub const SERVE_LENGTHS: [usize; 5] = [2, 3, 4, 5, 6];
/// Distinct patterns per length (m = 2 over 22 letters has room for them).
pub const SERVE_PER_LENGTH: usize = 32;

/// The serving workloads' request pool: [`SERVE_PER_LENGTH`] distinct
/// probable patterns at each length of [`SERVE_LENGTHS`], modes round-robin
/// (threshold and approx at τ = 0.3, listing at τ = 0.2, top-k with k = 5).
/// Request `i` has mode `i % 4`, so every length meets every mode equally
/// often. 160 requests: a p50 over a 64-request pool moved by a third from
/// one seed's patterns to the next's.
pub fn serve_pool(docs: &[UncertainString], seed: u64) -> Vec<QueryRequest> {
    let text = concat(docs);
    let mut pool = Vec::new();
    for m in SERVE_LENGTHS {
        // Distinct (the first of a longer sample), so no request repeats
        // and a result cache sees each exactly once per replay.
        let mut distinct: Vec<Vec<u8>> = Vec::new();
        let sample = sample_patterns(
            &text,
            m,
            16 * SERVE_PER_LENGTH,
            PatternMode::Probable,
            seed ^ ((m as u64) << 8),
        );
        for pattern in sample {
            if distinct.len() < SERVE_PER_LENGTH && !distinct.contains(&pattern) {
                distinct.push(pattern);
            }
        }
        for pattern in distinct {
            pool.push(match pool.len() % 4 {
                0 => QueryRequest::Threshold { pattern, tau: 0.3 },
                1 => QueryRequest::TopK { pattern, k: 5 },
                2 => QueryRequest::Listing { pattern, tau: 0.2 },
                _ => QueryRequest::Approx { pattern, tau: 0.3 },
            });
        }
    }
    pool
}

/// Index of a request's mode in [`MODES`].
pub fn mode_index(req: &QueryRequest) -> usize {
    match req {
        QueryRequest::Threshold { .. } => 0,
        QueryRequest::TopK { .. } => 1,
        QueryRequest::Listing { .. } => 2,
        QueryRequest::Approx { .. } => 3,
    }
}

/// Mode keys, in [`mode_index`] order; `<mode>_p50_us` are the end-to-end
/// latency metrics.
pub const MODES: [&str; 4] = ["threshold", "topk", "listing", "approx"];

/// The pattern of any request.
pub fn pattern_of(req: &QueryRequest) -> &[u8] {
    match req {
        QueryRequest::Threshold { pattern, .. }
        | QueryRequest::TopK { pattern, .. }
        | QueryRequest::Listing { pattern, .. }
        | QueryRequest::Approx { pattern, .. } => pattern,
    }
}

/// One `paper-string` query: a pattern and the τ it is asked at.
#[derive(Debug, Clone)]
pub struct PaperQuery {
    pub pattern: Vec<u8>,
    pub tau: f64,
}

/// Pattern lengths of the `paper-string` pool (the paper's m axis).
pub const PAPER_LENGTHS: [usize; 5] = [3, 4, 6, 10, 100];
/// τ values the pool cycles through (the paper's τ axis, all ≥ τmin).
pub const PAPER_TAUS: [f64; 4] = [0.1, 0.2, 0.3, 0.4];
/// k of the `paper-string` top-k queries.
pub const PAPER_K: usize = 10;

/// `per_length` probable patterns at each length of [`PAPER_LENGTHS`], τ
/// cycling through [`PAPER_TAUS`].
pub fn paper_pool(s: &UncertainString, per_length: usize, seed: u64) -> Vec<PaperQuery> {
    let mut pool = Vec::new();
    for m in PAPER_LENGTHS {
        for pattern in sample_patterns(
            s,
            m,
            per_length,
            PatternMode::Probable,
            seed ^ ((m as u64) << 8),
        ) {
            let tau = PAPER_TAUS[pool.len() % PAPER_TAUS.len()];
            pool.push(PaperQuery { pattern, tau });
        }
    }
    pool
}
