//! A segment's bigram document filter: which of its documents can hold a
//! pattern at all.
//!
//! Every occurrence an [`Index`] reports at a τ ≥ τmin reads its pattern off
//! one factor of the document's transformed text (Lemma 2), so each of the
//! pattern's `m − 1` bigrams lies inside a factor there
//! ([`Index::factor_bigrams`]). Under correlation the factors are cut on
//! upper bounds of the correlated probabilities, so they hold a superset of
//! the occurrences, and the argument stands. A document without one of
//! those bigrams answers nothing in any mode: top-k and listing answer from
//! the threshold answer at τmin. The filter is the smallest case of a
//! multigram prefilter (SNIPPETS.md, snippet 3) over the one text a
//! document's index holds.

use std::sync::Arc;

use ustr_core::Index;

use crate::exec::DocExecutor;

/// The rank of a byte that no in-factor bigram of the segment holds. Byte 0
/// separates factors and is never in one, so at most 255 bytes are ranked,
/// `0..=254`.
const ABSENT: u8 = u8::MAX;

/// The documents of a run of indexes that can hold a pattern: for every
/// bigram over the run's alphabet, the bitmap of the documents whose
/// transformed texts hold it inside a factor. Derived from the indexes,
/// never stored in a file. Cloning shares the table.
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
    /// Byte → rank in the alphabet (the bytes of the run's in-factor
    /// bigrams, ascending), [`ABSENT`] for every other byte.
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
    /// The filter over `docs` in order, or `None` when one of them is
    /// scanned: a scan has no transformed text, and passes every pattern.
    pub fn build<'a>(docs: impl IntoIterator<Item = &'a DocExecutor>) -> Option<Self> {
        let indexes = (docs.into_iter())
            .map(|d| match d {
                DocExecutor::Built { index } => Some(index),
                DocExecutor::Scanned(_) => None,
            })
            .collect::<Option<Vec<&Index>>>()?;
        let mut seen = [false; 256];
        for [a, b] in indexes.iter().flat_map(|index| index.factor_bigrams()) {
            for byte in [a, b] {
                if let Some(seen) = seen.get_mut(usize::from(byte)) {
                    *seen = true;
                }
            }
        }
        let mut rank = [ABSENT; 256];
        let mut sigma = 0u8;
        for (rank, _) in rank.iter_mut().zip(seen).filter(|&(_, seen)| seen) {
            *rank = sigma;
            sigma += 1;
        }
        let sigma = usize::from(sigma);
        let words = indexes.len().div_ceil(64);
        let mut table = Table {
            rank,
            sigma,
            columns: indexes.len(),
            words,
            cells: vec![0; sigma * sigma * words].into_boxed_slice(),
        };
        for (i, index) in indexes.iter().enumerate() {
            for [a, b] in index.factor_bigrams() {
                let at = table.cell(a, b).map(|cell| cell + i / 64);
                if let Some(word) = at.and_then(|at| table.cells.get_mut(at)) {
                    *word |= 1 << (i % 64);
                }
            }
        }
        Some(Self {
            table: Arc::new(table),
            served: None,
            docs: indexes.len(),
        })
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

    /// Calls `visit(i)`, in ascending `i`, for every document `i` whose text
    /// holds each bigram of `pattern` inside a factor — every document when
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

    fn built(spec: &str) -> DocExecutor {
        DocExecutor::build(&UncertainString::parse(spec).unwrap(), 0.1).unwrap()
    }

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

    #[test]
    fn a_document_passes_only_the_bigrams_of_its_factors() {
        // 70 documents, so the bitmaps take two words: "AB" everywhere,
        // "BC" in every third, "CA" in none (it would cross a factor).
        let docs: Vec<DocExecutor> = (0..70)
            .map(|i| built(if i % 3 == 0 { "A | B | C" } else { "A | B" }))
            .collect();
        let filter = DocFilter::build(&docs).unwrap();
        assert_eq!(filter.docs(), 70);
        assert_eq!(passed(&filter, b"AB"), (0..70).collect::<Vec<_>>());
        assert_eq!(passed(&filter, b"B"), (0..70).collect::<Vec<_>>());
        let thirds: Vec<usize> = (0..70).step_by(3).collect();
        assert_eq!(passed(&filter, b"ABC"), thirds);
        assert!(passed(&filter, b"CA").is_empty());
        assert!(passed(&filter, b"AZ").is_empty());
        // Dropping the first document renumbers every other one down by
        // one; dropping the second word's first one too, those past it by
        // two. Retaining composes.
        let retained = filter.retain((0..70).map(|i| i != 0));
        assert_eq!(retained.docs(), 69);
        let shifted: Vec<usize> = (2..69).step_by(3).collect();
        assert_eq!(passed(&retained, b"ABC"), shifted);
        assert_eq!(passed(&retained, b"AB"), (0..69).collect::<Vec<_>>());
        let twice = retained.retain((0..69).map(|i| i != 63));
        let shifted: Vec<usize> = (2..63).step_by(3).chain((64..68).step_by(3)).collect();
        assert_eq!(passed(&twice, b"ABC"), shifted);
        assert_eq!(twice.docs(), 68);
    }

    #[test]
    fn a_scanned_document_leaves_no_filter() {
        let source = UncertainString::parse("A | B").unwrap();
        let docs = [
            built("A | B"),
            DocExecutor::Scanned(ScanIndex::new(&source, 0.1).unwrap()),
        ];
        assert!(DocFilter::build(&docs).is_none());
        assert!(DocFilter::build(&docs[..1]).is_some());
    }
}
