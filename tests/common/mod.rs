//! Shared by the integration tests that cross an index's long levels.

/// The shortest pattern lengths an index's first and second long level
/// answer, `[L + 1, 2L + 1]`: an index over `transformed_len` characters
/// (one suffix-array slot more) has `L = ⌈log₂(slots + 1)⌉` short levels.
pub fn first_long_lengths(transformed_len: usize) -> [usize; 2] {
    let short = (usize::BITS - (transformed_len + 1).leading_zeros()) as usize;
    [short + 1, 2 * short + 1]
}
