//! Construction work on two cores.
//!
//! A build splits a pass into two halves only where the halves are
//! independent and their results are joined in input order, so what it
//! produces does not depend on how many cores ran it (INVARIANTS.md). No
//! option chooses this: a machine with one core, or an input below the
//! caller's floor, runs the pass on the calling thread.

/// Whether a pass over `items` inputs is worth two threads: the machine
/// has a second core and the input reaches `floor` (below it, spawning a
/// thread costs more than the half it takes). The floor is checked first,
/// so a small input never asks the system for its core count.
pub fn worth_splitting(items: usize, floor: usize) -> bool {
    items >= floor && std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2)
}

/// `(here(), there())`: when `split`, `there` runs on a scoped thread of its
/// own while `here` runs on the calling thread — so what the caller keeps
/// should be `here`'s, allocated where the caller's other allocations are —
/// and one after the other otherwise. A panic in either is resumed here.
pub fn join<A, B: Send>(
    split: bool,
    here: impl FnOnce() -> A,
    there: impl FnOnce() -> B + Send,
) -> (A, B) {
    if !split {
        return (here(), there());
    }
    std::thread::scope(|scope| {
        let there = scope.spawn(there);
        let here = here();
        let there = there
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (here, there)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_input_stays_on_one_thread() {
        assert!(!worth_splitting(10, 4096));
        assert!(!worth_splitting(0, 1));
    }

    #[test]
    fn both_halves_come_back_in_order_either_way() {
        for split in [false, true] {
            let (a, b) = join(split, || (0..10).sum::<u32>(), || (10..20).sum::<u32>());
            assert_eq!((a, b), (45, 145));
        }
    }

    #[test]
    #[should_panic(expected = "the other half")]
    fn a_panic_on_the_other_thread_reaches_the_caller() {
        join(true, || (), || panic!("the other half"));
    }
}
