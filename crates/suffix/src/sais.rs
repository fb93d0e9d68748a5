//! Linear-time suffix array construction by induced sorting (SA-IS).
//!
//! Nong, Zhang, Chan, "Two Efficient Algorithms for Linear Time Suffix Array
//! Construction" (2009). Every array is `u32`: the suffix array, the bucket
//! bounds, and the names of the LMS substrings, kept in an array half the
//! text's length (two LMS positions are never adjacent, so `p / 2` names
//! one). The top level sorts the text as byte *ranks* — the byte values that
//! occur, numbered from 1 — so the sentinel 0 fits beside them in a `u8`;
//! only a text holding all 256 byte values is read as `u32` symbols, as the
//! recursion over the names always is.

/// Builds the suffix array of `text`.
///
/// Returns `sa` with `sa[j]` = starting position of the j-th smallest suffix
/// of `text`. Suffix comparison treats a shorter suffix that is a prefix of
/// a longer one as smaller (the ordering induced by a unique minimal
/// sentinel, which the implementation appends internally).
///
/// # Panics
///
/// When `text` and the sentinel do not fit `u32` positions: `text.len()`
/// must be below `u32::MAX` (the value that marks an empty slot).
///
/// ```
/// use ustr_suffix::suffix_array;
/// assert_eq!(suffix_array(b"banana"), vec![5, 3, 1, 0, 4, 2]);
/// assert_eq!(suffix_array(b""), Vec::<u32>::new());
/// ```
pub fn suffix_array(text: &[u8]) -> Vec<u32> {
    assert!(
        fits_u32(text.len()),
        "suffix_array: a text of {} bytes and its sentinel do not fit u32 positions",
        text.len()
    );
    if text.is_empty() {
        return Vec::new();
    }
    // Rank the byte values that occur from 1: 0 is a unique, strictly
    // smallest sentinel, and the ranks keep the bytes' order.
    let mut rank = [0u32; 256];
    for &b in text {
        rank[b as usize] = 1;
    }
    let mut sigma = 1u32;
    for r in rank.iter_mut().filter(|r| **r != 0) {
        *r = sigma;
        sigma += 1;
    }
    let mut sa = if sigma <= 256 {
        let s: Vec<u8> = text
            .iter()
            .map(|&b| rank[b as usize] as u8)
            .chain([0])
            .collect();
        sais(&s, sigma as usize)
    } else {
        let s: Vec<u32> = text.iter().map(|&b| rank[b as usize]).chain([0]).collect();
        sais(&s, sigma as usize)
    };
    // Drop the sentinel suffix (always first).
    sa.remove(0);
    sa
}

/// Whether a text of `len` bytes and its sentinel have `u32` positions that
/// stay clear of [`EMPTY`].
const fn fits_u32(len: usize) -> bool {
    len < EMPTY as usize
}

/// An unfilled suffix-array slot.
const EMPTY: u32 = u32::MAX;

/// Symbol `i` of `s` — a byte rank at the top level, an LMS substring's
/// name below it — as a bucket index.
#[inline]
fn at<S: Copy + Into<u32>>(s: &[S], i: usize) -> usize {
    s[i].into() as usize
}

/// Core SA-IS over a sequence of symbols below `sigma` ending with a unique
/// smallest sentinel (0).
fn sais<S: Copy + Into<u32>>(s: &[S], sigma: usize) -> Vec<u32> {
    let n = s.len();
    debug_assert!(n >= 1);
    debug_assert_eq!(at(s, n - 1), 0, "sequence must end with the sentinel 0");
    if n == 1 {
        return vec![0];
    }
    if n == 2 {
        return vec![1, 0];
    }

    // Suffix types: true = S-type (suffix smaller than its right neighbour).
    let mut is_s = vec![false; n];
    is_s[n - 1] = true;
    for i in (0..n - 1).rev() {
        let (a, b) = (at(s, i), at(s, i + 1));
        is_s[i] = a < b || (a == b && is_s[i + 1]);
    }
    let is_lms = |i: usize| i > 0 && is_s[i] && !is_s[i - 1];

    let mut bucket = vec![0u32; sigma];
    for &c in s {
        bucket[c.into() as usize] += 1;
    }

    let mut sa = vec![EMPTY; n];

    // Pass 1: drop LMS suffixes at their bucket tails (arbitrary intra-bucket
    // order), then induce. This sorts the LMS *substrings*.
    let mut tails = bucket_tails(&bucket);
    for i in (1..n).filter(|&i| is_lms(i)) {
        let c = at(s, i);
        tails[c] -= 1;
        sa[tails[c] as usize] = i as u32;
    }
    induce(&mut sa, s, &bucket);

    // The LMS positions in their induced (sorted) order, compacted to the
    // front of `sa`.
    let mut lms_count = 0;
    for j in 0..n {
        let p = sa[j];
        if is_lms(p as usize) {
            sa[lms_count] = p;
            lms_count += 1;
        }
    }

    // Name LMS substrings in that order; position `p` keeps its name at
    // `p / 2`.
    let mut name_of = vec![EMPTY; n / 2 + 1];
    let mut name = 0u32;
    for k in 0..lms_count {
        let p = sa[k] as usize;
        if k > 0 && !lms_substrings_equal(s, &is_lms, sa[k - 1] as usize, p) {
            name += 1;
        }
        name_of[p / 2] = name;
    }
    let num_names = name as usize + 1;

    // All names unique: the substring order is the suffix order, already
    // at the front of `sa`. Otherwise recurse on the reduced problem, whose
    // sequence ends with the sentinel's name (always 0, unique) because the
    // sentinel is LMS.
    if num_names < lms_count {
        let lms_positions: Vec<u32> = (1..n).filter(|&i| is_lms(i)).map(|i| i as u32).collect();
        let reduced: Vec<u32> = (lms_positions.iter())
            .map(|&p| name_of[p as usize / 2])
            .collect();
        drop(name_of);
        debug_assert_eq!(reduced.last(), Some(&0));
        let sub_sa = sais(&reduced, num_names);
        for (slot, k) in sa.iter_mut().zip(sub_sa) {
            *slot = lms_positions[k as usize];
        }
    }

    // Pass 2: place LMS suffixes in their true sorted order at their bucket
    // tails, back to front, so the best-ranked ends up first in each bucket
    // (the k-th LMS suffix's slot is at least k: no unread entry is
    // overwritten), then induce again.
    sa[lms_count..].fill(EMPTY);
    let mut tails = bucket_tails(&bucket);
    for k in (0..lms_count).rev() {
        let p = std::mem::replace(&mut sa[k], EMPTY);
        let c = at(s, p as usize);
        tails[c] -= 1;
        sa[tails[c] as usize] = p;
    }
    induce(&mut sa, s, &bucket);
    sa
}

/// Exclusive prefix sums: index of the first slot of each bucket.
fn bucket_heads(bucket: &[u32]) -> Vec<u32> {
    let mut sum = 0u32;
    (bucket.iter())
        .map(|&b| {
            sum += b;
            sum - b
        })
        .collect()
}

/// Inclusive prefix sums: one past the last slot of each bucket.
fn bucket_tails(bucket: &[u32]) -> Vec<u32> {
    let mut sum = 0u32;
    (bucket.iter())
        .map(|&b| {
            sum += b;
            sum
        })
        .collect()
}

/// The two induced-sorting sweeps: L-types left-to-right from bucket heads,
/// then S-types right-to-left from bucket tails. Neither reads a type
/// array: a suffix and its left neighbour are two adjacent symbols, and the
/// neighbour's type follows from them and from where the suffix sits.
#[allow(clippy::needless_range_loop)] // index-driven sweeps mirror the algorithm's presentation
fn induce<S: Copy + Into<u32>>(sa: &mut [u32], s: &[S], bucket: &[u32]) {
    let n = s.len();
    // Every suffix this sweep reads is L-type or LMS, so its left neighbour
    // is L-type exactly when the neighbour's symbol is not smaller (an LMS
    // suffix's neighbour is strictly larger).
    let mut heads = bucket_heads(bucket);
    for i in 0..n {
        let j = sa[i] as usize;
        if j != EMPTY as usize && j > 0 {
            let (c, next) = (at(s, j - 1), at(s, j));
            if c >= next {
                sa[heads[c] as usize] = (j - 1) as u32;
                heads[c] += 1;
            }
        }
    }
    // The left neighbour is S-type when its symbol is smaller, or equal and
    // the suffix itself is S-type: in its bucket, a slot this sweep has
    // already filled down to.
    let mut tails = bucket_tails(bucket);
    for i in (0..n).rev() {
        let j = sa[i] as usize;
        if j != EMPTY as usize && j > 0 {
            let (c, next) = (at(s, j - 1), at(s, j));
            if c < next || (c == next && i as u32 >= tails[next]) {
                tails[c] -= 1;
                sa[tails[c] as usize] = (j - 1) as u32;
            }
        }
    }
}

/// Compares the LMS substrings starting at `a` and `b` (both LMS positions).
/// An LMS substring runs from its LMS position through the *next* LMS
/// position inclusive.
fn lms_substrings_equal<S: Copy + Into<u32>>(
    s: &[S],
    is_lms: &impl Fn(usize) -> bool,
    a: usize,
    b: usize,
) -> bool {
    if at(s, a) != at(s, b) {
        return false;
    }
    // The sentinel (unique smallest) only equals itself and is caught above.
    let mut i = a + 1;
    let mut j = b + 1;
    loop {
        let a_end = is_lms(i);
        let b_end = is_lms(j);
        if a_end && b_end {
            return at(s, i) == at(s, j);
        }
        if a_end != b_end || at(s, i) != at(s, j) {
            return false;
        }
        i += 1;
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(n² log n) reference construction.
    pub(crate) fn naive_suffix_array(text: &[u8]) -> Vec<u32> {
        let mut sa: Vec<u32> = (0..text.len() as u32).collect();
        sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
        sa
    }

    /// Xorshift64: the same texts on every run.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn known_small_cases() {
        assert_eq!(suffix_array(b"banana"), vec![5, 3, 1, 0, 4, 2]);
        assert_eq!(
            suffix_array(b"mississippi"),
            naive_suffix_array(b"mississippi")
        );
        assert_eq!(suffix_array(b"a"), vec![0]);
        assert_eq!(suffix_array(b"ab"), vec![0, 1]);
        assert_eq!(suffix_array(b"ba"), vec![1, 0]);
    }

    #[test]
    fn repetitive_inputs() {
        for text in [
            &b"aaaaaaaaaa"[..],
            b"abababababab",
            b"abcabcabcabc",
            b"aabaabaabaab",
            b"zzzzyzzzzyzzzzy",
        ] {
            assert_eq!(
                suffix_array(text),
                naive_suffix_array(text),
                "text {text:?}"
            );
        }
    }

    #[test]
    fn embedded_zero_bytes() {
        // The separator convention of the transformed strings: 0 bytes appear
        // repeatedly inside the text.
        let text = b"AB\0CAB\0B\0\0AB";
        assert_eq!(suffix_array(text), naive_suffix_array(text));
    }

    #[test]
    fn full_byte_range() {
        let text: Vec<u8> = (0..=255u8).rev().collect();
        assert_eq!(suffix_array(&text), naive_suffix_array(&text));
    }

    /// Against the naive sort, over every shape the construction branches
    /// on: alphabets of 1, 2, 4, 23 and all 256 byte values (the last read
    /// as `u32` symbols), runs of separators, periodic texts whose LMS
    /// substrings repeat so the names recurse two levels deep and more, at
    /// lengths 0–3 and 64–5 000.
    #[test]
    fn matches_the_naive_sort_on_every_shape() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let lengths = [0usize, 1, 2, 3, 64, 65, 127, 257, 1000, 2049, 5000];
        for &len in &lengths {
            for sigma in [1usize, 2, 4, 23, 256] {
                // Uniform over `sigma` values spread across the byte range.
                let alphabet: Vec<u8> = (0..sigma)
                    .map(|k| (k * 255 / (sigma - 1).max(1)) as u8)
                    .collect();
                let random: Vec<u8> = (0..len)
                    .map(|_| alphabet[xorshift(&mut state) as usize % sigma])
                    .collect();
                // Separator runs: a small alphabet with 0-byte runs of 1–7.
                let mut separated = Vec::with_capacity(len);
                while separated.len() < len {
                    let r = xorshift(&mut state);
                    let run = if r.is_multiple_of(3) {
                        1 + (r >> 8) as usize % 7
                    } else {
                        0
                    };
                    separated.extend(std::iter::repeat_n(0u8, run));
                    separated.push(1 + ((r >> 16) % sigma as u64) as u8);
                }
                separated.truncate(len);
                // Periodic: a short random word repeated, a point mutation
                // now and then so the periods nest.
                let word: Vec<u8> = (0..1 + len % 7)
                    .map(|_| (xorshift(&mut state) % sigma as u64) as u8)
                    .collect();
                let mut periodic: Vec<u8> = word.iter().copied().cycle().take(len).collect();
                for k in (0..len).step_by(97) {
                    periodic[k] = (xorshift(&mut state) % sigma as u64) as u8;
                }
                for text in [random, separated, periodic] {
                    assert_eq!(
                        suffix_array(&text),
                        naive_suffix_array(&text),
                        "len {len} sigma {sigma} text {:?}",
                        &text[..text.len().min(40)]
                    );
                }
            }
        }
        // Every byte value at once, long enough to recurse.
        let all: Vec<u8> = (0..5000).map(|k| ((k * 7 + k / 256) % 256) as u8).collect();
        assert_eq!(suffix_array(&all), naive_suffix_array(&all));
    }

    /// Texts whose reduced problem repeats names again: `(ab)^k`-style
    /// periods inside periods recurse level after level.
    #[test]
    fn nested_periods_recurse_and_stay_exact() {
        let mut text = b"ab".to_vec();
        while text.len() < 3000 {
            let half = text.clone();
            text.extend_from_slice(&half);
            text.push(b'c');
        }
        assert_eq!(suffix_array(&text), naive_suffix_array(&text));
        let fib = {
            let (mut a, mut b) = (b"a".to_vec(), b"ab".to_vec());
            while b.len() < 4000 {
                let next = [b.as_slice(), a.as_slice()].concat();
                a = std::mem::replace(&mut b, next);
            }
            b
        };
        assert_eq!(suffix_array(&fib), naive_suffix_array(&fib));
    }

    /// The longest text `suffix_array` takes is one byte short of
    /// `u32::MAX`: with the sentinel, its positions end just below the
    /// empty-slot marker. (A text that long cannot be built in a test; the
    /// entry point asserts exactly this.)
    #[test]
    fn the_text_and_its_sentinel_must_fit_u32() {
        assert!(fits_u32(u32::MAX as usize - 1));
        assert!(!fits_u32(u32::MAX as usize));
    }

    #[test]
    fn pseudo_random_matches_naive() {
        let mut state = 0x12345678u64;
        for len in [2usize, 3, 5, 17, 64, 100, 257, 1000] {
            let text: Vec<u8> = (0..len)
                .map(|_| (xorshift(&mut state) % 4) as u8 + b'a')
                .collect();
            assert_eq!(suffix_array(&text), naive_suffix_array(&text), "len {len}");
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(suffix_array(b""), Vec::<u32>::new());
    }

    #[test]
    fn sa_is_a_permutation() {
        let text = b"the quick brown fox jumps over the lazy dog";
        let sa = suffix_array(text);
        let mut seen = vec![false; text.len()];
        for &p in &sa {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
