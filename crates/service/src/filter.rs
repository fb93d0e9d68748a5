//! A segment's bigram document filter: which of its documents can hold a
//! pattern at all.
//!
//! Every segment has one, whatever serves its documents. A document's set
//! is [`ProbPlane::bigrams`] at its τmin: the adjacent pairs of choices
//! the Lemma-2 transform accepts side by side, each at its correlation
//! upper bound. An occurrence at τ ≥ τmin has each of its pattern's
//! `m − 1` bigrams among them, because a sum of logs only falls as it
//! grows; a correlated choice's bound is at least every probability it
//! takes. A document without one of those bigrams answers nothing in any
//! mode: top-k and listing answer from the threshold answer at τmin.
//!
//! The set is the model's, not an index's, so a scanned document has it
//! too ([`ScanIndex`] holds it from when it was made). It equals, bit for
//! bit, the set of bigrams inside the factors of the document's
//! transformed text: a pair inside a factor passes the pair test, since
//! the factor's running sum is the pair's plus values ≤ 0; and a passing
//! pair at `(i, i + 1)` is read by the factor from the latest start ≤ `i`,
//! whose characters before `i` are certain and add `ln 1 = +0.0`, so that
//! factor's sum at `i + 1` is the pair's to the bit. The filter is the
//! smallest case of a multigram prefilter (SNIPPETS.md, snippet 3).
//!
//! [`ProbPlane::bigrams`]: ustr_uncertain::ProbPlane::bigrams
//! [`ScanIndex`]: ustr_baseline::ScanIndex

use std::sync::Arc;

use crate::exec::DocExecutor;

/// The rank of a byte that no bigram of the segment holds. Byte 0 is the
/// reserved sentinel and in no model, so at most 255 bytes are ranked,
/// `0..=254`.
const ABSENT: u8 = u8::MAX;

/// The documents of a run of executors that can hold a pattern: for
/// every bigram over the run's alphabet, the bitmap of the documents whose
/// bigram sets ([`DocExecutor::bigrams`]) hold it. Derived from the
/// documents' models, never stored in a file. Cloning shares the table.
#[derive(Clone)]
pub struct DocFilter {
    table: Arc<Table>,
    /// The table's columns this filter serves, when some were dropped: bit
    /// `i` of word `w` for column `64w + i`. The served columns are the
    /// filter's documents, numbered `0, 1, …` in column order.
    served: Option<Box<[u64]>>,
    /// Documents served.
    docs: usize,
}

/// A dense table of σ² cells of `⌈columns / 64⌉` words each, bit `i` for
/// the run's `i`-th document.
struct Table {
    /// Byte → rank in the alphabet (the bytes of the run's bigrams,
    /// ascending), [`ABSENT`] for every other byte.
    rank: [u8; 256],
    /// The alphabet's size σ.
    sigma: usize,
    /// Documents the table covers.
    columns: usize,
    /// Words per cell, `⌈columns / 64⌉`.
    words: usize,
    /// The cell of bigram `(a, b)` starts at word `(rank a · σ + rank b) ·
    /// words`.
    cells: Box<[u64]>,
}

impl Table {
    /// The first word of bigram `(a, b)`'s cell, if both bytes are ranked.
    fn cell(&self, a: u8, b: u8) -> Option<usize> {
        let rank = |byte: u8| {
            let rank = *self.rank.get(usize::from(byte))?;
            (rank != ABSENT).then_some(usize::from(rank))
        };
        Some((rank(a)? * self.sigma + rank(b)?) * self.words)
    }
}

impl DocFilter {
    /// The filter over `docs` in order: it ORs each document's bigram set
    /// into the document's column.
    pub fn build<'a>(docs: impl IntoIterator<Item = &'a DocExecutor>) -> Self {
        let sets: Vec<_> = docs.into_iter().map(DocExecutor::bigrams).collect();
        let mut seen = [false; 256];
        for &byte in sets.iter().flat_map(|set| set.iter().flatten()) {
            if let Some(seen) = seen.get_mut(usize::from(byte)) {
                *seen = true;
            }
        }
        let mut rank = [ABSENT; 256];
        let mut sigma = 0u8;
        for (rank, _) in rank.iter_mut().zip(seen).filter(|&(_, seen)| seen) {
            *rank = sigma;
            sigma += 1;
        }
        let sigma = usize::from(sigma);
        let words = sets.len().div_ceil(64);
        let mut table = Table {
            rank,
            sigma,
            columns: sets.len(),
            words,
            cells: vec![0; sigma * sigma * words].into_boxed_slice(),
        };
        for (i, set) in sets.iter().enumerate() {
            for &[a, b] in set.iter() {
                let at = table.cell(a, b).map(|cell| cell + i / 64);
                if let Some(word) = at.and_then(|at| table.cells.get_mut(at)) {
                    *word |= 1 << (i % 64);
                }
            }
        }
        Self {
            table: Arc::new(table),
            served: None,
            docs: sets.len(),
        }
    }

    /// The filter over the documents whose `keep` flag is set, in order:
    /// its document `i` is the `i`-th kept one. It shares the table and
    /// masks the dropped columns, so it costs a bit per column, not a
    /// rebuilt table.
    pub fn retain(&self, keep: impl IntoIterator<Item = bool>) -> Self {
        let mut served = vec![0u64; self.table.words];
        let mut keep = keep.into_iter();
        let mut docs = 0;
        for (w, word) in served.iter_mut().enumerate() {
            let mut columns = self.columns(w);
            while columns != 0 {
                let bit = columns.trailing_zeros();
                if keep.next() == Some(true) {
                    *word |= 1 << bit;
                    docs += 1;
                }
                columns &= columns - 1;
            }
        }
        Self {
            table: Arc::clone(&self.table),
            served: Some(served.into_boxed_slice()),
            docs,
        }
    }

    /// Documents the filter serves.
    pub(crate) fn docs(&self) -> usize {
        self.docs
    }

    /// The columns of word `w` the filter serves.
    fn columns(&self, w: usize) -> u64 {
        match &self.served {
            Some(served) => served.get(w).copied().unwrap_or(0),
            None => match self.table.columns - 64 * w {
                covered @ 0..64 => (1u64 << covered) - 1,
                _ => !0,
            },
        }
    }

    /// Calls `visit(i)`, in ascending `i`, for every document `i` whose set
    /// holds each bigram of `pattern` — every document when
    /// `pattern` has none (`m = 1`), none when a byte of it is outside the
    /// alphabet — and stops at the first error. ANDs the cells one word at a
    /// time, so it allocates nothing.
    pub(crate) fn for_each_passed<E>(
        &self,
        pattern: &[u8],
        mut visit: impl FnMut(usize) -> Result<(), E>,
    ) -> Result<(), E> {
        let table = &self.table;
        // Documents served by the words before `w`.
        let mut before = 0;
        for w in 0..table.words {
            let columns = self.columns(w);
            let mut passed = columns;
            for pair in pattern.windows(2) {
                let word = match *pair {
                    [a, b] => table.cell(a, b).and_then(|cell| table.cells.get(cell + w)),
                    _ => None,
                };
                passed &= word.copied().unwrap_or(0);
                if passed == 0 {
                    break;
                }
            }
            while passed != 0 {
                let below = columns & ((1 << passed.trailing_zeros()) - 1);
                visit(before + below.count_ones() as usize)?;
                passed &= passed - 1;
            }
            before += columns.count_ones() as usize;
        }
        Ok(())
    }

    /// Heap bytes of the table — its allocation, the rank map among it, and
    /// its cells, shared with every filter cloned or retained from it — and
    /// of the served columns.
    pub(crate) fn heap_size(&self) -> usize {
        let table = std::mem::size_of::<Table>() + std::mem::size_of_val(&*self.table.cells);
        table
            + self
                .served
                .as_ref()
                .map_or(0, |s| std::mem::size_of_val(&**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustr_baseline::ScanIndex;
    use ustr_uncertain::UncertainString;

    fn passed(filter: &DocFilter, pattern: &[u8]) -> Vec<usize> {
        let mut out = Vec::new();
        filter
            .for_each_passed(pattern, |i| {
                out.push(i);
                Ok::<_, ()>(())
            })
            .unwrap();
        out
    }

    /// Each pattern's passed documents in `filter` after `retain(keep)`:
    /// those `filter` passes that `keep` holds, renumbered in order.
    fn passed_after(filter: &DocFilter, keep: &[bool], pattern: &[u8]) -> Vec<usize> {
        (passed(filter, pattern).into_iter())
            .filter(|&i| keep[i])
            .map(|i| keep[..i].iter().filter(|&&k| k).count())
            .collect()
    }

    #[test]
    fn built_and_scanned_columns_pass_the_same_patterns() {
        // 35 documents, each twice — built in column 2j, scanned in 2j + 1
        // — so the bitmaps take two words. At τmin = .1 every third holds
        // "AB" and "BC"; the others "AB", "AD", "BE" and "DE", but not "BC"
        // or "DC" (.5 · .1 < .1).
        let specs: Vec<&str> = (0..35)
            .map(|j| match j % 3 {
                0 => "A | B | C",
                _ => "A | B:.5,D:.5 | C:.1,E:.9",
            })
            .collect();
        let docs: Vec<DocExecutor> = (specs.iter())
            .flat_map(|spec| {
                let source = UncertainString::parse(spec).unwrap();
                [
                    DocExecutor::build(&source, 0.1).unwrap(),
                    DocExecutor::Scanned(ScanIndex::new(&source, 0.1).unwrap()),
                ]
            })
            .collect();
        let filter = DocFilter::build(&docs);
        assert_eq!(filter.docs(), 70);
        let thirds: Vec<usize> = (0..70).filter(|i| i / 2 % 3 == 0).collect();
        let others: Vec<usize> = (0..70).filter(|i| i / 2 % 3 != 0).collect();
        assert_eq!(passed(&filter, b"AB"), (0..70).collect::<Vec<_>>());
        assert_eq!(passed(&filter, b"B"), (0..70).collect::<Vec<_>>());
        assert_eq!(passed(&filter, b"ABC"), thirds);
        assert_eq!(passed(&filter, b"ADE"), others);
        assert!(passed(&filter, b"DC").is_empty());
        assert!(passed(&filter, b"CA").is_empty());
        assert!(passed(&filter, b"AZ").is_empty());
        let patterns: [&[u8]; 9] = [
            b"AB", b"B", b"ABC", b"ADE", b"BE", b"BC", b"DC", b"CA", b"AZ",
        ];
        for pattern in patterns {
            let passed = passed(&filter, pattern);
            for j in 0..35 {
                assert_eq!(
                    passed.contains(&(2 * j)),
                    passed.contains(&(2 * j + 1)),
                    "document {j} on {pattern:?}"
                );
            }
        }
        // Dropping the first column renumbers every other one down by one;
        // dropping the second word's first one too, those past it by two.
        // Retaining composes.
        let keep: Vec<bool> = (0..70).map(|i| i != 0).collect();
        let retained = filter.retain(keep.iter().copied());
        assert_eq!(retained.docs(), 69);
        let again: Vec<bool> = (0..69).map(|i| i != 63).collect();
        let twice = retained.retain(again.iter().copied());
        assert_eq!(twice.docs(), 68);
        let both: Vec<bool> = (0..70).map(|i| i != 0 && i != 64).collect();
        for pattern in patterns {
            let once = passed_after(&filter, &keep, pattern);
            assert_eq!(passed(&retained, pattern), once, "{pattern:?}");
            assert_eq!(
                passed(&twice, pattern),
                passed_after(&retained, &again, pattern)
            );
            assert_eq!(
                passed(&twice, pattern),
                passed_after(&filter, &both, pattern)
            );
        }
        assert_eq!(passed(&retained, b"ABC")[..3], [0, 5, 6]);
    }
}
