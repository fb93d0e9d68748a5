//! The JSON reader `benchmark/` borrows ([`gate`]); the crate's one binary
//! is the CI soak client `net-soak`. Timing that gates a change lives in
//! `benchmark/` alone, and the paper's §8 axes are counted in the root
//! `tests/paper_axes.rs`.

#![forbid(unsafe_code)]

pub mod gate;
