//! Flat probability planes: the zero-allocation verification kernel behind
//! every query hot path, and the one in-memory copy of a document's model.
//!
//! Per-candidate verification (`UncertainString::log_match_probability`)
//! walks a `Vec<UncertainChar>` of per-position heap `Vec<(u8, f64)>`
//! choices, binary-searching each pattern character and probing the
//! correlation hash map at every window position. On the alphabets real
//! workloads use (DNA/IUPAC σ ≤ 16, protein σ ≤ 25) that walk dominates
//! query time. This module lays the same model out flat, storing only the
//! choices, the way space-efficient indexes for weighted sequences do:
//!
//! * [`ProbPlane`] — built once per document. The live alphabet is remapped
//!   to ranks `0..σ`. A *deterministic-position* bitmask with the flattened
//!   deterministic bytes answers every certain position; every other
//!   position has a *row*, found by rank over the bitmask. A row is one
//!   cell per choice, rank-ascending, and one record of ⌈(32 + σ)/64⌉
//!   words: the row's first cell in the low 32 bits, then one bit per rank.
//!   A cell is a code ([`crate::codes`]) into a table that holds each of
//!   the model's distinct probabilities once, both its bits and its
//!   **natural log**. A lookup tests the rank's bit and reads the table at
//!   the code of the cell at the row's start plus the set bits below it
//!   (one word at σ ≤ 32). The table's bits and the correlations, kept
//!   beside the rows, make [`ProbPlane::to_model`] give the model back bit
//!   for bit. Beside them too: per-character *presence bitmaps* (which
//!   positions can produce a character at all); and a
//!   *correlation-subject* bitmask over the handful of correlated
//!   positions, beside their correlations flattened to `ln` values.
//! * [`MatchKernel`] — a per-query view that remaps the pattern to ranks
//!   **once**, then evaluates every candidate window with **one walk**
//!   ([`MatchKernel::log_match_bounded`]): a tight flat-array loop that
//!   stops at the first impossible factor or the first running sum below
//!   τ's cut. Correlated windows take the same walk: at a correlation
//!   subject it reads the correlation's `ln pr⁺`, `ln pr⁻` or marginal in
//!   place of the cell. [`MatchKernel::log_match`] is that walk at a cut
//!   of −∞, and [`MatchKernel::verify`] runs it over a run of candidates
//!   into a [`Scan`], which keeps the hits and counts the work once — the
//!   one verify-and-count loop every executor calls. Pattern rank scratch
//!   lives in a thread-local buffer, so steady-state verification
//!   allocates nothing per candidate (and nothing per query once the
//!   buffer is warm).
//!
//! **Why one walk suffices.** A stored factor is at most 1
//! ([`UncertainChar::new`] stores a choice in `(1, 1 + PROB_EPS]` as 1), so
//! no running sum rises again: a window whose whole product meets τ meets
//! it after every factor, and the early exit drops only windows that fail.
//!
//! **Bit-identity contract.** For every `(pattern, pos)`,
//! [`MatchKernel::log_match`] returns *exactly* the `f64`
//! [`UncertainString::log_match_probability`] returns — not merely a close
//! value. The kernel preserves the naive evaluator's summation order and
//! adds precomputed `ln` values of the *same* `f64` inputs the naive path
//! feeds to `ln` at query time; the walk skips a position only when its
//! factor is exactly `ln 1 = 0.0`. This is what lets every
//! executor in the workspace (built index, scan, snapshot-loaded, TCP) keep
//! reporting bit-identical canonical probabilities while verifying through
//! the plane. The differential property test in `tests/prop_kernel.rs`
//! pins the contract down to `f64::to_bits` equality.

use std::cell::RefCell;

use crate::codes::{self, Code, Codes};
use crate::kstats::{self, ScanPath};
use crate::with_codes;
use crate::{canon, chars::UncertainChar, correlation::CorrelationSet, string::UncertainString};

/// Rank value meaning "this byte never occurs in the document" (byte 0 is
/// the reserved sentinel, so σ ≤ 255 and every live rank is below it).
pub const RANK_NONE: u8 = u8::MAX;

/// Low bits of a row record's first word that hold the row's first cell;
/// rank `r`'s bit is record bit `START_BITS + r`. The 32 ranks above them
/// share the word, so at σ ≤ 32 a record is one `u64`.
const START_BITS: usize = 32;
/// Ranks whose bits share a record's first word with the start.
const HEAD_RANKS: usize = 64 - START_BITS;

/// One flattened pairwise correlation, with every probability outcome the
/// naive evaluator could compute already resolved to its `ln` at build time.
#[derive(Debug, Clone)]
struct PlaneCorrelation {
    /// Subject position.
    pos: u32,
    /// Subject character byte.
    ch: u8,
    /// Conditioning position.
    cond_pos: u32,
    /// Conditioning character byte.
    cond_char: u8,
    /// `ln pr⁺` — conditioning character chosen inside the window.
    ln_present: f64,
    /// `ln pr⁻` — a different character chosen at the conditioning position.
    ln_absent: f64,
    /// `ln` of the total-probability marginal — conditioning position
    /// outside the window.
    ln_outside: f64,
}

impl PlaneCorrelation {
    /// `ln` of the subject's probability in the window `pattern` read from
    /// `pos`: `ln pr⁺` or `ln pr⁻` by the pattern's character at the
    /// conditioning position when the window holds it, the marginal's `ln`
    /// when it does not — [`crate::Correlation::effective_prob`]'s rule.
    #[inline]
    fn ln_in_window(&self, pos: usize, pattern: &[u8]) -> f64 {
        let inside = (self.cond_pos as usize).checked_sub(pos);
        match inside.and_then(|k| pattern.get(k)) {
            Some(&c) if c == self.cond_char => self.ln_present,
            Some(_) => self.ln_absent,
            None => self.ln_outside,
        }
    }
}

/// A flat, rank-remapped view of one [`UncertainString`]'s probabilities,
/// built once per document and shared by every query against it.
///
/// The one in-memory copy of the model: an index keeps the plane and not
/// the string, rebuilds the plane on load from the snapshot's string, and
/// gets the string back from [`ProbPlane::to_model`] when it writes one —
/// the snapshot formats are untouched. Its size is linear in the model's
/// choices: a row holds one cell per choice, never one per alphabet rank,
/// and a cell is a code as narrow as the model's distinct probabilities
/// allow, not an `f64`.
///
/// ```
/// use ustr_uncertain::{ProbPlane, UncertainString};
/// let s = UncertainString::parse("A:.3,B:.7 | C | A:.5,C:.5").unwrap();
/// let plane = ProbPlane::build(&s);
/// assert_eq!(plane.sigma(), 3);
/// plane.with_kernel(b"AC", |kernel| {
///     assert_eq!(
///         kernel.log_match(0).to_bits(),
///         s.log_match_probability(b"AC", 0).to_bits(),
///     );
/// });
/// assert_eq!(plane.to_model(), s);
/// ```
#[derive(Debug, Clone)]
pub struct ProbPlane {
    /// Number of positions (the document length).
    len: usize,
    /// Live alphabet size.
    sigma: usize,
    /// Byte → rank (`RANK_NONE` when the byte never occurs).
    rank_of: Box<[u8; 256]>,
    /// Rank → byte, ascending.
    alphabet: Vec<u8>,
    /// Each distinct probability of the non-det positions once, as `(p,
    /// ln p)` ([`codes::code`]).
    table: Box<[(f64, f64)]>,
    /// A code into `table` for every choice of the non-det positions
    /// (those clear in `det_mask`), one row each in position order,
    /// rank-ascending within a row.
    cells: Codes,
    /// `record_words` words per row: the row's first index into `cells`
    /// in the low [`START_BITS`] bits, then bit `START_BITS + r` set when
    /// rank `r` is one of the row's choices. A row's length is the
    /// popcount of its rank bits, and its bytes are their ranks' bytes.
    records: Vec<u64>,
    record_words: usize,
    /// Non-det positions before each 64-position word of `det_mask`: a
    /// position's row is this plus a popcount within its word.
    row_base: Vec<u32>,
    /// The model's correlations, kept as they came.
    correlations: CorrelationSet,
    /// `sigma` presence rows of `words_per_row` words each: bit `p` of row
    /// `r` is set when `char(r)` has nonzero probability at position `p`.
    presence: Vec<u64>,
    words_per_row: usize,
    /// Bit `p` set when position `p` is deterministic *for the kernel*:
    /// a single choice with probability exactly `1.0` and no correlation
    /// subject (so its factor is exactly `ln 1 = 0.0`).
    det_mask: Vec<u64>,
    /// The deterministic byte at det positions (`0`, the reserved sentinel,
    /// elsewhere) — the walk's per-position test: a det position verifies
    /// by byte compare, so an all-deterministic window never numbers a row.
    /// All the plane keeps of a det position.
    det_chars: Vec<u8>,
    /// Bit `p` set when any correlation subject lives at position `p` (never
    /// a det position): the walk looks up `corr` only where it is set.
    corr_mask: Vec<u64>,
    /// Flattened correlations, sorted by `(pos, ch)` for binary search.
    corr: Vec<PlaneCorrelation>,
}

thread_local! {
    /// Reusable pattern→rank scratch. Taken (not borrowed) around kernel
    /// use so nested kernels degrade to a fresh allocation instead of a
    /// re-borrow panic.
    static RANK_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Bit `i` of a bitmap.
#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// The set bits of `words` below bit `i` when bit `i` is set: the rank of
/// `i` among the set bits. `None` when it is clear.
#[inline]
fn rank_of_bit(words: &[u64], i: usize) -> Option<usize> {
    let (w, b) = (i / 64, i % 64);
    let word = words[w];
    if word >> b & 1 == 0 {
        return None;
    }
    let before: u32 = words[..w].iter().map(|x| x.count_ones()).sum();
    Some((before + (word & ((1u64 << b) - 1)).count_ones()) as usize)
}

/// The set bits of `words`, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            let b = rest.trailing_zeros() as usize;
            (rest != 0).then(|| {
                rest &= rest - 1;
                w * 64 + b
            })
        })
    })
}

impl ProbPlane {
    /// Flattens `source` into a plane: one rank-bitmap record and one cell
    /// per choice at each non-det position, whatever the alphabet, the
    /// cells coded into a table of the distinct probabilities.
    pub fn build(source: &UncertainString) -> Self {
        let n = source.len();
        let words_per_row = n.div_ceil(64);
        let corrs = source.correlations();
        let mut corr_mask = vec![0u64; words_per_row];
        for c in corrs.iter() {
            corr_mask[c.subject_pos / 64] |= 1u64 << (c.subject_pos % 64);
        }
        let det_char = |i: usize, p: &UncertainChar| match p.choices() {
            &[(c, pr)] if pr.to_bits() == 1.0f64.to_bits() && !bit(&corr_mask, i) => Some(c),
            _ => None,
        };

        let mut seen = [false; 256];
        let (mut rows, mut choices) = (0usize, 0usize);
        for (i, p) in source.positions().iter().enumerate() {
            for &(c, _) in p.choices() {
                seen[c as usize] = true;
            }
            if det_char(i, p).is_none() {
                rows += 1;
                choices += p.num_choices();
            }
        }
        let alphabet: Vec<u8> = (0u16..256)
            .filter(|&c| seen[c as usize])
            .map(|c| c as u8)
            .collect();
        let sigma = alphabet.len();
        let mut rank_of: Box<[u8; 256]> = Box::new([RANK_NONE; 256]);
        for (r, &c) in alphabet.iter().enumerate() {
            rank_of[c as usize] = r as u8;
        }
        let rank = |c: u8| rank_of[c as usize] as usize;

        let record_words = (START_BITS + sigma).div_ceil(64);
        let mut records = vec![0u64; rows * record_words];
        let (table, cells) = codes::code(
            choices,
            (source.positions().iter().enumerate())
                .filter(|&(i, p)| det_char(i, p).is_none())
                .flat_map(|(_, p)| p.choices().iter().map(|&(_, pr)| pr)),
        );
        let mut row_base = Vec::with_capacity(words_per_row);
        let mut presence = vec![0u64; sigma * words_per_row];
        let mut det_mask = vec![0u64; words_per_row];
        let mut det_chars = vec![0u8; n];
        let (mut row, mut cell) = (0usize, 0usize);
        for (i, p) in source.positions().iter().enumerate() {
            if i % 64 == 0 {
                row_base.push(row as u32);
            }
            for &(c, _) in p.choices() {
                presence[rank(c) * words_per_row + i / 64] |= 1u64 << (i % 64);
            }
            if let Some(c) = det_char(i, p) {
                det_mask[i / 64] |= 1u64 << (i % 64);
                det_chars[i] = c;
                continue;
            }
            let record = &mut records[row * record_words..(row + 1) * record_words];
            record[0] = u32::try_from(cell).expect("fewer than 2^32 choices") as u64;
            // Choices are sorted by byte, so ranks ascend and a choice's
            // cell is the row's start plus the rank bits set below its own.
            for &(c, _) in p.choices() {
                let b = START_BITS + rank(c);
                record[b / 64] |= 1u64 << (b % 64);
            }
            row += 1;
            cell += p.num_choices();
        }

        // Sized up front: the set's iterator does not report its length, and
        // a collect would start at a capacity of four records.
        let mut corr: Vec<PlaneCorrelation> = Vec::with_capacity(corrs.len());
        corr.extend(corrs.iter().map(|c| {
            let marginal = source.position(c.cond_pos).prob_of(c.cond_char);
            // Same formula (and the same f64 inputs) the naive
            // evaluator feeds through `effective_prob` at query time,
            // so the precomputed ln values are bit-identical.
            let outside = c.effective_prob(None, marginal);
            PlaneCorrelation {
                pos: c.subject_pos as u32,
                ch: c.subject_char,
                cond_pos: c.cond_pos as u32,
                cond_char: c.cond_char,
                ln_present: canon::ln(c.p_present),
                ln_absent: canon::ln(c.p_absent),
                ln_outside: canon::ln(outside),
            }
        }));
        corr.sort_unstable_by_key(|c| (c.pos, c.ch));

        Self {
            len: n,
            sigma,
            rank_of,
            alphabet,
            table,
            cells,
            records,
            record_words,
            row_base,
            correlations: corrs.clone(),
            presence,
            words_per_row,
            det_mask,
            det_chars,
            corr_mask,
            corr,
        }
    }

    /// The model this plane was built from, bit for bit: every choice's
    /// byte and probability, and the same correlations.
    pub fn to_model(&self) -> UncertainString {
        let mut records = self.records.chunks_exact(self.record_words);
        let positions = (self.det_chars.iter())
            .map(|&d| {
                if d != 0 {
                    return UncertainChar::deterministic(d);
                }
                let record = records.next().expect("a record per non-det position");
                let start = record[0] as u32 as usize;
                // The rank bits, ascending: a row's choices in cell order.
                let ranks = ones(record).filter(|&b| b >= START_BITS);
                let choices = ranks.enumerate().map(|(k, b)| {
                    (
                        self.alphabet[b - START_BITS],
                        self.table[self.cells.get(start + k)].0,
                    )
                });
                UncertainChar::from_validated(choices.collect())
            })
            .collect();
        UncertainString::from_validated(positions, self.correlations.clone())
    }

    /// The pairs `[a, b]` of a choice `a` at some position `i` and `b` at
    /// `i + 1` that the transform at `tau_min` accepts side by side, each
    /// once, ascending: each choice at its upper bound, which must be
    /// positive ([`CorrelationSet::upper_bound`], the transform's rule), and
    /// `ln a + ln b` meeting `tau_min` by [`canon::log_meets_threshold`]. An
    /// occurrence at τ ≥ τmin has every adjacent pair of its choices here,
    /// and the set is exactly the bigrams inside the factors of
    /// [`crate::transform`]'s text (INVARIANTS.md §10).
    pub fn bigrams(&self, tau_min: f64) -> Vec<[u8; 2]> {
        let log_tau = canon::ln(tau_min);
        let sigma = self.sigma;
        let mut seen = vec![false; sigma * sigma];
        // `(rank, ln bound)` of each viable choice at the previous position
        // and at this one.
        let mut prev: Vec<(usize, f64)> = Vec::new();
        let mut here = Vec::new();
        let mut records = self.records.chunks_exact(self.record_words);
        for (i, &d) in self.det_chars.iter().enumerate() {
            here.clear();
            if d != 0 {
                here.push((usize::from(self.rank_of[usize::from(d)]), canon::LOG_ONE));
            } else {
                let record = records.next().expect("a record per non-det position");
                let start = record[0] as u32 as usize;
                let ranks = ones(record).filter_map(|b| b.checked_sub(START_BITS));
                for (k, r) in ranks.enumerate() {
                    let (p, ln_p) = self.table[self.cells.get(start + k)];
                    // The table's `ln` is `canon::ln(p)`, and only a
                    // correlation subject's bound differs from `p`.
                    let ln_bound = if bit(&self.corr_mask, i) {
                        let bound = (self.correlations).upper_bound(i, self.alphabet[r], p);
                        canon::is_positive_prob(bound).then(|| canon::ln(bound))
                    } else {
                        canon::is_positive_prob(p).then_some(ln_p)
                    };
                    here.extend(ln_bound.map(|ln| (r, ln)));
                }
            }
            for &(a, ln_a) in &prev {
                for &(b, ln_b) in &here {
                    if canon::log_meets_threshold(ln_a + ln_b, log_tau) {
                        seen[a * sigma + b] = true;
                    }
                }
            }
            std::mem::swap(&mut prev, &mut here);
        }
        // Ranks ascend with bytes, so the pairs come out ascending.
        (seen.iter().enumerate())
            .filter(|&(_, &seen)| seen)
            .map(|(ab, _)| [self.alphabet[ab / sigma], self.alphabet[ab % sigma]])
            .collect()
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a zero-length document.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Live alphabet size σ.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// The live alphabet, ascending by byte.
    pub fn alphabet(&self) -> &[u8] {
        &self.alphabet
    }

    /// `true` when the model has any correlation.
    pub fn has_correlations(&self) -> bool {
        !self.corr.is_empty()
    }

    /// Rank of `ch`, or `None` when the byte never occurs in the document.
    #[inline]
    pub fn rank(&self, ch: u8) -> Option<u8> {
        match self.rank_of[ch as usize] {
            RANK_NONE => None,
            r => Some(r),
        }
    }

    /// `ln pr(char(rank) at pos)`; `−∞` when absent (or `rank` is
    /// [`RANK_NONE`]). A det position answers from its byte: `0.0` or `−∞`.
    /// The tests' cell-by-cell reading of the plane; the walk reads the
    /// same cells in window order.
    #[cfg(test)]
    fn log_prob(&self, pos: usize, rank: u8) -> f64 {
        match self.det_chars[pos] {
            _ if rank == RANK_NONE => f64::NEG_INFINITY,
            0 => with_codes!(&self.cells, c => self.row_log_prob(c, self.row_of(pos), rank)),
            d if self.alphabet[rank as usize] == d => 0.0,
            _ => f64::NEG_INFINITY,
        }
    }

    /// The non-det positions before `pos` — its row when it is non-det.
    #[inline]
    fn row_of(&self, pos: usize) -> usize {
        let w = pos / 64;
        let below = !self.det_mask[w] & ((1u64 << (pos % 64)) - 1);
        self.row_base[w] as usize + below.count_ones() as usize
    }

    /// `ln pr(char(rank))` in row `row`, for a live `rank`: `−∞` when the
    /// rank's record bit is clear, else the value the cell at the row's
    /// start plus the rank bits set below it codes. `cells` is the plane's
    /// cells at their width, which the caller picks once per walk.
    #[inline]
    fn row_log_prob<C: Code>(&self, cells: &[C], row: usize, rank: u8) -> f64 {
        let at = row * self.record_words;
        let head = self.records[at];
        let head_ranks = (head >> START_BITS) as u32;
        let r = rank as usize;
        // Ranks below 32 sit in the head word beside the start, which is
        // the whole record at σ ≤ 32; a higher rank counts the head's rank
        // bits and its own rank within the words after the head.
        let below = if r < HEAD_RANKS {
            if head_ranks >> r & 1 == 0 {
                return f64::NEG_INFINITY;
            }
            (head_ranks & ((1u32 << r) - 1)).count_ones() as usize
        } else {
            let tail = &self.records[at + 1..at + self.record_words];
            match rank_of_bit(tail, r - HEAD_RANKS) {
                Some(k) => head_ranks.count_ones() as usize + k,
                None => return f64::NEG_INFINITY,
            }
        };
        self.table[cells[head as u32 as usize + below].index()].1
    }

    /// Runs `f` with a [`MatchKernel`] for `pattern`, remapping the pattern
    /// into a reusable thread-local rank buffer: once the buffer is warm, a
    /// query allocates nothing here no matter how many candidates it
    /// verifies.
    pub fn with_kernel<R>(&self, pattern: &[u8], f: impl FnOnce(&MatchKernel<'_>) -> R) -> R {
        let mut buf = RANK_SCRATCH.with(RefCell::take);
        let impossible = self.remap_into(pattern, &mut buf);
        let kernel = MatchKernel {
            plane: self,
            pattern,
            ranks: &buf,
            first_row: self.first_char_row(pattern),
            impossible,
            any_corr: self.has_correlations(),
        };
        let out = f(&kernel);
        RANK_SCRATCH.with(|cell| cell.replace(buf));
        out
    }

    /// Fills `ranks` with the pattern's plane ranks; returns `true` when
    /// some pattern byte never occurs in the document (every window is then
    /// impossible).
    fn remap_into(&self, pattern: &[u8], ranks: &mut Vec<u8>) -> bool {
        ranks.clear();
        let mut impossible = false;
        ranks.extend(pattern.iter().map(|&c| {
            let r = self.rank_of[c as usize];
            impossible |= r == RANK_NONE;
            r
        }));
        impossible
    }

    /// The correlation whose subject is `(pos, ch)`, if any.
    #[inline]
    fn corr_at(&self, pos: usize, ch: u8) -> Option<&PlaneCorrelation> {
        let key = (pos as u32, ch);
        self.corr
            .binary_search_by_key(&key, |c| (c.pos, c.ch))
            .ok()
            .map(|i| &self.corr[i])
    }

    /// The presence row of `pattern`'s first character — the kernel's
    /// one-load candidate reject (empty for empty/impossible patterns, in
    /// which case the kernel never consults it).
    fn first_char_row(&self, pattern: &[u8]) -> &[u64] {
        match pattern.first().map(|&c| self.rank_of[c as usize]) {
            Some(r) if r != RANK_NONE => {
                let r = r as usize;
                &self.presence[r * self.words_per_row..(r + 1) * self.words_per_row]
            }
            _ => &[],
        }
    }

    /// Approximate heap footprint in bytes — the model's whole footprint,
    /// since the plane is its one copy.
    pub fn heap_size(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        self.cells.heap_size()
            + size_of_val(&*self.table)
            + size_of::<[u8; 256]>()
            + self.alphabet.capacity()
            + self.det_chars.capacity()
            + (self.records.capacity()
                + self.presence.capacity()
                + self.det_mask.capacity()
                + self.corr_mask.capacity())
                * size_of::<u64>()
            + self.row_base.capacity() * size_of::<u32>()
            + self.corr.capacity() * size_of::<PlaneCorrelation>()
            + self.correlations.heap_size()
    }
}

/// Ascending iterator over candidate start positions, driven by presence
/// bitmaps: the set bits of one presence row, optionally ANDed word-by-word
/// with a second row shifted left by one (candidates whose *second*
/// character is also possible at `pos + 1` — dropped starts fail their
/// first or second factor, so the filter never changes the survivor set).
pub struct PresenceIter<'a> {
    words: &'a [u64],
    /// Second-character row, tested at `pos + 1` via the shifted AND.
    next_words: Option<&'a [u64]>,
    word_idx: usize,
    current: u64,
    limit: usize,
}

impl<'a> PresenceIter<'a> {
    fn new(words: &'a [u64], next_words: Option<&'a [u64]>, limit: usize) -> Self {
        let mut it = Self {
            words,
            next_words,
            word_idx: 0,
            current: 0,
            limit,
        };
        it.current = it.load_word(0);
        it
    }

    /// The candidate bits of word `w`: first-char presence, masked by the
    /// second-char presence at the next position when available.
    #[inline]
    fn load_word(&self, w: usize) -> u64 {
        let Some(&x) = self.words.get(w) else {
            return 0;
        };
        match self.next_words {
            Some(next) => {
                let lo = next.get(w).copied().unwrap_or(0) >> 1;
                let hi = next.get(w + 1).copied().unwrap_or(0) << 63;
                x & (lo | hi)
            }
            None => x,
        }
    }
}

impl Iterator for PresenceIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                let pos = self.word_idx * 64 + bit;
                if pos >= self.limit {
                    return None;
                }
                self.current &= self.current - 1;
                return Some(pos);
            }
            self.word_idx += 1;
            if self.word_idx * 64 >= self.limit || self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.load_word(self.word_idx);
        }
    }
}

/// One scan's verification work, counted once: the candidates
/// [`MatchKernel::verify`] walked and the hits it kept. It reads no clock.
pub struct Scan {
    path: ScanPath,
    candidates: u64,
    hits: Vec<(usize, f64)>,
}

impl Scan {
    /// Starts a scan attributed to `path`.
    pub fn new(path: ScanPath) -> Self {
        Self {
            path,
            candidates: 0,
            hits: Vec::new(),
        }
    }

    /// Makes the scan's one batched [`kstats::record_scan_on`] (none when
    /// it walked no candidate) and returns its hits.
    pub fn finish(self) -> Vec<(usize, f64)> {
        if self.candidates > 0 {
            kstats::record_scan_on(self.path, self.candidates, self.hits.len() as u64);
        }
        self.hits
    }

    /// Keeps each of `candidates`, `(pos, ln p)` whose values are already
    /// the walk's own, that meets `log_tau`, as `(pos, p)`, and counts
    /// every one as a candidate: [`MatchKernel::verify`] without the walk.
    /// An index whose model has no correlations hands its level values in
    /// here: each is its window's cells summed left to right through
    /// [`canon::log_mul`], which is the walk.
    pub fn keep(&mut self, candidates: impl IntoIterator<Item = (usize, f64)>, log_tau: f64) {
        for (pos, log_p) in candidates {
            self.candidates += 1;
            if canon::log_meets_threshold(log_p, log_tau) {
                self.hits.push((pos, canon::exp(log_p)));
            }
        }
    }
}

/// The per-query verification kernel: `pattern` remapped to ranks once,
/// candidate windows evaluated as flat-array loops.
///
/// Obtained from [`ProbPlane::with_kernel`] (thread-local rank scratch).
pub struct MatchKernel<'a> {
    plane: &'a ProbPlane,
    pattern: &'a [u8],
    ranks: &'a [u8],
    /// Presence row of the first pattern character (empty iff the pattern
    /// is empty or impossible — never consulted in those cases).
    first_row: &'a [u64],
    impossible: bool,
    any_corr: bool,
}

impl<'a> MatchKernel<'a> {
    /// Candidate start positions for a scan: every `pos < limit` where the
    /// *first* pattern character has nonzero probability — ANDed with the
    /// second character's presence at `pos + 1` when the pattern has one.
    /// All other starts evaluate to `−∞` within their first two factors,
    /// so the filter never changes a scan's survivor set. Empty for an
    /// empty or impossible pattern.
    pub fn candidates(&self, limit: usize) -> PresenceIter<'a> {
        if self.impossible || self.pattern.is_empty() {
            return PresenceIter::new(&[], None, 0);
        }
        let next = (self.pattern.len() > 1)
            .then(|| self.plane.first_char_row(&self.pattern[1..]))
            .filter(|row| !row.is_empty());
        PresenceIter::new(self.first_row, next, limit.min(self.plane.len))
    }

    /// `ln` of the pattern's probability at `pos`: the one walk
    /// ([`Self::log_match_bounded`]) at a cut of −∞, which never fails, so
    /// the value is the walk's own. Bit-identical to
    /// [`UncertainString::log_match_probability`]`(pattern, pos)`.
    #[inline]
    pub fn log_match(&self, pos: usize) -> f64 {
        (self.log_match_bounded(pos, f64::NEG_INFINITY)).unwrap_or(f64::NEG_INFINITY)
    }

    /// The kernel's one walk: `Some(ln p)` exactly when the running sum
    /// meets `log_tau` by the threshold rule
    /// ([`canon::log_meets_threshold`]) after every factor, `None` at the
    /// first factor that drops it below (or at an impossible one). Every
    /// stored factor is at most 1, so no running sum rises again: the walk
    /// keeps exactly the windows whose whole product meets τ, and the value
    /// it keeps is the whole product's, bit for bit.
    ///
    /// Cheapest test first: (1) one presence-bitmap bit decides most
    /// candidates — the first factor is 0, exactly the naive walk's first
    /// early exit, from an L1-resident row instead of the probability
    /// table; (2) a deterministic position is a byte compare (its factor
    /// is exactly `ln 1 = 0.0`) and has no row, so an all-deterministic
    /// window never numbers one; (3) an uncertain position reads its row's
    /// cell, and only a correlation subject (its `corr_mask` bit, tested
    /// only when the plane has correlations) looks up the correlation whose
    /// `ln pr⁺`, `ln pr⁻` or marginal replaces that cell.
    #[inline]
    pub fn log_match_bounded(&self, pos: usize, log_tau: f64) -> Option<f64> {
        with_codes!(&self.plane.cells, c => self.walk(c, pos, log_tau))
    }

    /// [`Self::log_match_bounded`] over the plane's cells at their width:
    /// the width is matched once per call, not once per cell.
    #[inline]
    fn walk<C: Code>(&self, cells: &[C], pos: usize, log_tau: f64) -> Option<f64> {
        let m = self.pattern.len();
        let plane = self.plane;
        if pos + m > plane.len || self.impossible {
            return None;
        }
        if m == 0 {
            return Some(0.0);
        }
        if self.first_row[pos / 64] >> (pos % 64) & 1 == 0 {
            return None;
        }
        let mut log_p = canon::LOG_ONE;
        // Rows are in position order: the window's first non-det position
        // numbers its row by rank, and each later one takes the next.
        let mut row = None;
        for k in 0..m {
            let i = pos + k;
            // Deterministic positions resolve from the byte sidecar: their
            // factor is exactly 1, and `log_p + ln 1` is `log_p` bit for
            // bit, so they need no row and leave the running check as it was.
            let d = plane.det_chars[i];
            if d != 0 {
                if d == self.pattern[k] {
                    continue;
                }
                return None;
            }
            let r = row.get_or_insert_with(|| plane.row_of(i));
            let mut lp = plane.row_log_prob(cells, *r, self.ranks[k]);
            *r += 1;
            // A subject's character occurs at its position (the model
            // refuses any other), so only a live cell is ever replaced.
            if self.any_corr && bit(&plane.corr_mask, i) {
                if let Some(c) = plane.corr_at(i, self.pattern[k]) {
                    lp = c.ln_in_window(pos, self.pattern);
                }
            }
            if lp == f64::NEG_INFINITY {
                return None;
            }
            log_p = canon::log_mul(log_p, lp);
            if !canon::log_meets_threshold(log_p, log_tau) {
                return None;
            }
        }
        Some(log_p)
    }

    /// Verifies `candidates` at `log_tau`'s cut into `scan`, keeping
    /// `(pos, p)` for each one that meets τ, in candidate order, `p` being
    /// `exp` of the walk's value; returns the hits this call kept. The one
    /// verify-and-count loop of every executor: no atomic and no clock.
    pub fn verify<'s>(
        &self,
        candidates: impl IntoIterator<Item = usize>,
        log_tau: f64,
        scan: &'s mut Scan,
    ) -> &'s [(usize, f64)] {
        let (candidates, kept) = (candidates.into_iter(), scan.hits.len());
        // Room for every candidate when the run says how many it holds.
        (scan.hits).reserve(candidates.size_hint().1.unwrap_or(0));
        // One width match for the whole run of candidates.
        with_codes!(&self.plane.cells, c => {
            for pos in candidates {
                scan.candidates += 1;
                if let Some(log_p) = self.walk(c, pos, log_tau) {
                    scan.hits.push((pos, canon::exp(log_p)));
                }
            }
        });
        &scan.hits[kept..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Correlation, CorrelationSet};

    fn assert_bit_identical(s: &UncertainString, pattern: &[u8]) {
        let plane = ProbPlane::build(s);
        plane.with_kernel(pattern, |k| {
            for pos in 0..=s.len() + 1 {
                let naive = s.log_match_probability(pattern, pos);
                let fast = k.log_match(pos);
                assert_eq!(
                    naive.to_bits(),
                    fast.to_bits(),
                    "pattern {:?} pos {pos}: naive {naive} kernel {fast}",
                    String::from_utf8_lossy(pattern)
                );
            }
        });
    }

    #[test]
    fn matches_naive_on_figure_1() {
        let s = UncertainString::parse("a:.3,b:.4,d:.3 | a:.6,c:.4 | d | a:.5,c:.5 | a").unwrap();
        for pattern in [&b"aadaa"[..], b"ad", b"da", b"z", b"az", b"", b"dca"] {
            assert_bit_identical(&s, pattern);
        }
    }

    #[test]
    fn deterministic_fast_path_is_exact() {
        let s = UncertainString::deterministic(b"banana");
        let plane = ProbPlane::build(&s);
        for pattern in [&b"ana"[..], b"nan", b"banana", b"band", b"x"] {
            assert_bit_identical(&s, pattern);
        }
        plane.with_kernel(b"ana", |k| {
            assert_eq!(k.log_match(1), 0.0);
            assert_eq!(canon::exp(k.log_match(1)), 1.0);
            assert_eq!(k.log_match(0), f64::NEG_INFINITY);
        });
    }

    #[test]
    fn near_one_probability_is_not_deterministic_for_the_kernel() {
        // 0.999999999999 is "deterministic" for the model's tolerance-based
        // predicate but must NOT be a det position: the walk reads its cell.
        let s = UncertainString::parse("a:.999999999999 | b").unwrap();
        assert_bit_identical(&s, b"ab");
    }

    #[test]
    fn correlations_in_and_out_of_window() {
        let mut s = UncertainString::parse("e:.6,f:.4 | q | z:.36").unwrap();
        let mut corrs = CorrelationSet::new();
        corrs
            .add(Correlation {
                subject_pos: 2,
                subject_char: b'z',
                cond_pos: 0,
                cond_char: b'e',
                p_present: 0.3,
                p_absent: 0.4,
            })
            .unwrap();
        s.set_correlations(corrs).unwrap();
        for pattern in [&b"eqz"[..], b"fqz", b"qz", b"z", b"eq"] {
            assert_bit_identical(&s, pattern);
        }
    }

    #[test]
    fn zero_probability_correlation_outcome() {
        let mut s = UncertainString::parse("a:.5,b:.5 | c").unwrap();
        let mut corrs = CorrelationSet::new();
        corrs
            .add(Correlation {
                subject_pos: 1,
                subject_char: b'c',
                cond_pos: 0,
                cond_char: b'a',
                p_present: 0.0, // impossible when 'a' chosen
                p_absent: 1.0,
            })
            .unwrap();
        s.set_correlations(corrs).unwrap();
        for pattern in [&b"ac"[..], b"bc", b"c"] {
            assert_bit_identical(&s, pattern);
        }
    }

    #[test]
    fn csr_fallback_answers_identically() {
        // A wide, sparse alphabet: every position a distinct pair of bytes,
        // σ = 250, so a row record is five words.
        let mut rows = Vec::new();
        for i in 0..3000usize {
            let a = 1 + (i * 7 % 200) as u8;
            let b = 201 + (i % 50) as u8;
            rows.push(vec![(a, 0.6), (b, 0.4)]);
        }
        let s = UncertainString::from_rows(rows).unwrap();
        let world = s.most_probable_world();
        for start in [0usize, 17, 1234] {
            assert_bit_identical(&s, &world[start..start + 5]);
        }
    }

    /// A row record is one word at σ ≤ 32 and ⌈(32 + σ)/64⌉ above: rows of
    /// 1 to σ choices, each a run of consecutive ranks from a rotating
    /// offset so that runs straddle the record's word boundaries (ranks
    /// 31|32 and 95|96), between runs of certain positions.
    #[test]
    fn row_records_answer_across_word_boundaries() {
        for sigma in [1usize, 2, 31, 32, 33, 95, 96, 97, 255] {
            let alphabet: Vec<u8> = (1..=sigma as u8).collect();
            let mut rows = Vec::new();
            for row in 0..sigma.max(40) {
                let k = 1 + row % sigma;
                let offset = row * 29 % sigma;
                // Weights 1..=k over a total above their sum, so a
                // one-choice row is uncertain too.
                let total = (k * (k + 1) / 2 + 1) as f64;
                rows.push(
                    (0..k)
                        .map(|j| (alphabet[(offset + j) % sigma], (j + 1) as f64 / total))
                        .collect(),
                );
                for c in 0..row % 4 {
                    rows.push(vec![(alphabet[(row + c) % sigma], 1.0)]);
                }
            }
            let s = UncertainString::from_rows(rows).unwrap();
            let plane = ProbPlane::build(&s);
            assert_eq!(plane.sigma(), sigma);
            assert_eq!(plane.to_model(), s);
            for (pos, p) in s.positions().iter().enumerate() {
                for (rank, &c) in alphabet.iter().enumerate() {
                    let want = match p.prob_of(c) {
                        0.0 => f64::NEG_INFINITY,
                        pr => canon::ln(pr),
                    };
                    let got = plane.log_prob(pos, rank as u8);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "σ {sigma} pos {pos} rank {rank}"
                    );
                }
                assert_eq!(plane.log_prob(pos, RANK_NONE), f64::NEG_INFINITY);
            }
            // Patterns drawn through each row's choices, evaluated at every
            // window: a match where they were drawn, mostly −∞ elsewhere.
            let log_tau = canon::ln(0.01);
            for start in (0..s.len()).step_by(3) {
                for m in [1usize, 2, 3, 5] {
                    let Some(window) = s.positions().get(start..start + m) else {
                        continue;
                    };
                    let pattern: Vec<u8> = (window.iter().enumerate())
                        .map(|(k, p)| p.choices()[(start + k * 7) % p.num_choices()].0)
                        .collect();
                    plane.with_kernel(&pattern, |kernel| {
                        for pos in 0..=s.len() {
                            let naive = s.log_match_probability(&pattern, pos);
                            assert_eq!(kernel.log_match(pos).to_bits(), naive.to_bits());
                            let bounded = |lt| kernel.log_match_bounded(pos, lt).map(f64::to_bits);
                            // Bounded drops an impossible window at any τ.
                            let kept = |lt| {
                                naive != f64::NEG_INFINITY && canon::log_meets_threshold(naive, lt)
                            };
                            assert_eq!(
                                bounded(f64::NEG_INFINITY),
                                kept(f64::NEG_INFINITY).then_some(naive.to_bits())
                            );
                            assert_eq!(bounded(log_tau), kept(log_tau).then_some(naive.to_bits()));
                        }
                    });
                }
            }
        }
    }

    /// Every cell reads `canon::ln` of its probability to the bit, the
    /// plane gives the model back bit for bit, and the kernel's walk is the
    /// naive evaluator's at every start of patterns drawn through each
    /// row's choices.
    fn assert_plane_holds_the_model(s: &UncertainString) -> ProbPlane {
        let plane = ProbPlane::build(s);
        for (pos, p) in s.positions().iter().enumerate() {
            for (rank, &c) in plane.alphabet().iter().enumerate() {
                let want = match p.prob_of(c) {
                    0.0 => f64::NEG_INFINITY,
                    pr => canon::ln(pr),
                };
                let got = plane.log_prob(pos, rank as u8);
                assert_eq!(got.to_bits(), want.to_bits(), "pos {pos} rank {rank}");
            }
        }
        let model = plane.to_model();
        assert_eq!(&model, s);
        let bits = |s: &UncertainString| -> Vec<(u8, u64)> {
            (s.positions().iter())
                .flat_map(|p| p.choices().iter().map(|&(c, pr)| (c, pr.to_bits())))
                .collect()
        };
        assert_eq!(bits(&model), bits(s));
        for start in (0..s.len()).step_by(2) {
            for m in [1usize, 2, 3, 5] {
                let Some(window) = s.positions().get(start..start + m) else {
                    continue;
                };
                let pattern: Vec<u8> = (window.iter().enumerate())
                    .map(|(k, p)| p.choices()[(start + k * 7) % p.num_choices()].0)
                    .collect();
                plane.with_kernel(&pattern, |kernel| {
                    for pos in 0..=s.len() {
                        let naive = s.log_match_probability(&pattern, pos);
                        assert_eq!(
                            kernel.log_match(pos).to_bits(),
                            naive.to_bits(),
                            "pos {pos}"
                        );
                    }
                });
            }
        }
        plane
    }

    /// 600 distinct probabilities, more than a byte numbers: the cells take
    /// `u16` codes into a table of 600 entries.
    #[test]
    fn a_wide_value_table_takes_u16_cells() {
        let mut rows = Vec::new();
        for i in 0..300usize {
            let p = (i + 1) as f64 / 1000.0;
            rows.push(vec![(b'a', p), (b'b', 1.0 - p)]);
            if i % 4 == 0 {
                rows.push(vec![(b'c', 1.0)]);
            }
        }
        let s = UncertainString::from_rows(rows).unwrap();
        let plane = assert_plane_holds_the_model(&s);
        assert_eq!((plane.table.len(), plane.cells.width()), (600, 2));
        assert_eq!(plane.cells.len(), 600);
    }

    /// Correlation subjects at uncertain positions and at otherwise certain
    /// ones (which take a row), conditioned inside and outside the windows.
    #[test]
    fn a_correlated_plane_holds_its_model() {
        let rows = (0..60usize)
            .map(|i| match i % 3 {
                0 => vec![(b'a', 0.25 + (i % 5) as f64 / 20.0), (b'b', 0.5)],
                1 => vec![(b'c', 1.0)],
                _ => vec![(b'a', 0.6), (b'c', 0.4)],
            })
            .collect();
        let mut s = UncertainString::from_rows(rows).unwrap();
        let mut corrs = CorrelationSet::new();
        let mut add = |subject_pos, subject_char, cond_pos, cond_char, p_present, p_absent| {
            (corrs.add(Correlation {
                subject_pos,
                subject_char,
                cond_pos,
                cond_char,
                p_present,
                p_absent,
            }))
            .unwrap()
        };
        for i in (0..60).step_by(6) {
            add(i, b'a', i + 2, b'c', 0.3, 0.7);
        }
        for i in (1..60).step_by(9) {
            add(i, b'c', i - 1, b'b', 0.9, 0.5);
        }
        add(33, b'a', 59, b'a', 0.2, 0.4);
        s.set_correlations(corrs).unwrap();
        let plane = assert_plane_holds_the_model(&s);
        assert!(plane.has_correlations());
        // The certain subjects take a row, so the certain positions' 1 is
        // in the table too: it holds every distinct probability of the model.
        let distinct: std::collections::BTreeSet<u64> = (s.positions().iter())
            .flat_map(|p| p.choices().iter().map(|&(_, pr)| pr.to_bits()))
            .collect();
        assert_eq!(
            (plane.table.len(), plane.cells.width()),
            (distinct.len(), 1)
        );
    }

    #[test]
    fn presence_prefilter_enumerates_first_char_starts() {
        let s = UncertainString::parse("a:.5,b:.5 | c | a | c:.9,d:.1 | a:.2,c:.8").unwrap();
        let plane = ProbPlane::build(&s);
        plane.with_kernel(b"ac", |k| {
            let got: Vec<usize> = k.candidates(4).collect();
            assert_eq!(got, vec![0, 2]);
        });
        plane.with_kernel(b"az", |k| {
            assert!((0..5).all(|pos| k.log_match(pos) == f64::NEG_INFINITY));
            assert_eq!(k.candidates(5).count(), 0);
        });
    }

    #[test]
    fn bounded_matches_full_evaluation_when_passing() {
        let s = UncertainString::parse("a:.9,b:.1 | a:.8,b:.2 | a:.7,b:.3").unwrap();
        let plane = ProbPlane::build(&s);
        plane.with_kernel(b"aa", |k| {
            let full = k.log_match(0);
            assert_eq!(k.log_match_bounded(0, canon::ln(0.5)), Some(full));
            // .9 * .8 = .72 < .8: dropped by the threshold.
            assert_eq!(k.log_match_bounded(0, canon::ln(0.8)), None);
            // Out of bounds and absent chars are dropped, not −∞-summed.
            assert_eq!(k.log_match_bounded(2, canon::ln(0.1)), None);
        });
    }

    #[test]
    fn empty_pattern_and_empty_string() {
        let s = UncertainString::parse("a:.5,b:.5").unwrap();
        assert_bit_identical(&s, b"");
        let empty = UncertainString::new(Vec::new());
        let plane = ProbPlane::build(&empty);
        assert_eq!(plane.sigma(), 0);
        assert!(plane.is_empty());
        plane.with_kernel(b"a", |k| {
            assert_eq!(k.log_match(0), f64::NEG_INFINITY);
            assert_eq!(k.candidates(0).count(), 0);
        });
    }

    #[test]
    fn long_window_masks_cross_word_boundaries() {
        // 130 deterministic positions: the walk's byte compare crosses three
        // 64-position words.
        let text: Vec<u8> = (0..130u32).map(|i| b'a' + (i % 3) as u8).collect();
        let s = UncertainString::deterministic(&text);
        let plane = ProbPlane::build(&s);
        plane.with_kernel(&text, |k| {
            assert_eq!(k.log_match(0), 0.0);
        });
        let mut wrong = text.clone();
        wrong[129] = b'z';
        assert_bit_identical(&s, &wrong);
        assert_bit_identical(&s, &text[1..128]);
    }

    #[test]
    fn nested_kernels_do_not_panic() {
        let a = UncertainString::parse("a:.5,b:.5 | c").unwrap();
        let b = UncertainString::parse("x:.5,y:.5 | z").unwrap();
        let pa = ProbPlane::build(&a);
        let pb = ProbPlane::build(&b);
        pa.with_kernel(b"ac", |ka| {
            pb.with_kernel(b"xz", |kb| {
                assert_eq!(
                    ka.log_match(0).to_bits(),
                    a.log_match_probability(b"ac", 0).to_bits()
                );
                assert_eq!(
                    kb.log_match(0).to_bits(),
                    b.log_match_probability(b"xz", 0).to_bits()
                );
            });
        });
    }

    #[test]
    fn heap_size_is_positive_and_layout_reported() {
        let s = UncertainString::parse("A:.5,C:.5 | G | T:.9,A:.1").unwrap();
        let plane = ProbPlane::build(&s);
        assert!(plane.heap_size() > 0);
        assert_eq!(plane.alphabet(), b"ACGT");
        assert_eq!(plane.rank(b'G'), Some(2));
        assert_eq!(plane.rank(b'z'), None);
        assert_eq!(plane.log_prob(1, RANK_NONE), f64::NEG_INFINITY);
    }

    /// A correlation adds its own bytes to the plane and nothing per
    /// position: the subject's bit lives in a mask every plane holds.
    #[test]
    fn one_correlation_costs_only_its_own_bytes() {
        let rows = (0..1000)
            .map(|i| match i % 3 {
                0 => vec![(b'a', 0.5), (b'b', 0.5)],
                _ => vec![(b'c', 1.0)],
            })
            .collect();
        let plain = UncertainString::from_rows(rows).unwrap();
        let mut corrs = CorrelationSet::new();
        corrs
            .add(Correlation {
                subject_pos: 3,
                subject_char: b'a',
                cond_pos: 0,
                cond_char: b'b',
                p_present: 0.9,
                p_absent: 0.1,
            })
            .unwrap();
        let mut correlated = plain.clone();
        correlated.set_correlations(corrs).unwrap();
        let (with, without) = (ProbPlane::build(&correlated), ProbPlane::build(&plain));
        assert!(with.has_correlations());
        // Its table slots, and its one flattened record.
        let own = correlated.correlations().heap_size() + std::mem::size_of::<PlaneCorrelation>();
        assert!(
            with.heap_size() <= without.heap_size() + own,
            "{} B with one correlation, {} B without and {own} B of its own",
            with.heap_size(),
            without.heap_size()
        );
    }

    #[test]
    fn det_positions_have_no_row_and_answer_from_their_byte() {
        // Rows only at 0 and 2: position 1 is certain.
        let s = UncertainString::parse("A:.5,C:.5 | G | T:.9,A:.1").unwrap();
        let plane = ProbPlane::build(&s);
        let rank = |c| plane.rank(c).unwrap();
        assert_eq!(plane.log_prob(1, rank(b'G')).to_bits(), 0.0f64.to_bits());
        assert_eq!(plane.log_prob(1, rank(b'A')), f64::NEG_INFINITY);
        assert_eq!(plane.log_prob(2, rank(b'T')), canon::ln(0.9));
        assert_eq!(plane.log_prob(2, rank(b'G')), f64::NEG_INFINITY);
        assert_eq!(plane.to_model(), s);
    }
}
