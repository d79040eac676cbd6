//! Scoped fan-out: the one place in the workspace that spawns threads.
//!
//! Every parallel stage of the simulator hands its work to [`fan_out`]: the
//! GEMM's output column ranges (one fan-out per product), the analog
//! stages' site bands (whole channel planes for LRN), the SAR readout
//! bands, the accuracy harness's validation shards and the work-stealing
//! pool's workers. Each caller keeps its own banding and its own serial
//! threshold; this module only decides *how* a band runs, never how the
//! work is cut.

use std::panic::resume_unwind;
use std::thread;

/// Runs `f` once per item, each on its own scoped thread, and returns the
/// results in item order.
///
/// Items may borrow from the caller: every thread is joined before
/// `fan_out` returns. The caller's thread only waits, so `n` items cost
/// exactly `n` spawns; callers run a lone band inline instead.
///
/// # Panics
///
/// If an item panics, the panic is re-raised on the caller with the
/// item's original payload, after every thread has been joined. When
/// several items panic, the first in item order wins.
///
/// # Example
///
/// ```
/// use redeye_tensor::par::fan_out;
///
/// let mut data = [1u32, 2, 3, 4, 5];
/// let sums = fan_out(data.chunks_mut(2), |band| {
///     band.iter_mut().for_each(|v| *v *= 10);
///     band.iter().sum::<u32>()
/// });
/// assert_eq!(sums, [30, 70, 50]);
/// assert_eq!(data, [10, 20, 30, 40, 50]);
/// ```
pub fn fan_out<I, T, F>(items: I, f: F) -> Vec<T>
where
    I: IntoIterator,
    I::Item: Send,
    T: Send,
    F: Fn(I::Item) -> T + Sync,
{
    let f = &f;
    let joined: Vec<thread::Result<T>> = thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        handles
            .into_iter()
            .map(thread::ScopedJoinHandle::join)
            .collect()
    });
    joined
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, panic_any};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Item 1 panics with a non-string payload only after item 0 has
    /// finished; item 2 panics too. The caller sees item 1's payload as is.
    #[test]
    fn the_first_panicking_item_reraises_its_own_payload() {
        let finished = AtomicBool::new(false);
        let caught = catch_unwind(|| {
            fan_out(0..3u32, |i| match i {
                0 => finished.store(true, Ordering::Release),
                1 => {
                    while !finished.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    panic_any(41u32 + i);
                }
                _ => panic!("item {i}"),
            })
        })
        .expect_err("the panic reaches the caller");
        assert_eq!(caught.downcast_ref::<u32>(), Some(&42));
    }
}
