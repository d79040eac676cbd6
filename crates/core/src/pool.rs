//! The simulator's one worker pool: a fixed set of workers draining a task
//! slice through one shared claim cursor.
//!
//! A batch of frames ([`BatchExecutor`](crate::BatchExecutor)) and a fleet
//! of device×frame tasks ([`FleetExecutor`](crate::FleetExecutor)) each run
//! as one [`run_tasks`] call. Fleet tasks vary widely in weight (a
//! low-light device's denoised burst next to a privacy-filtered
//! thumbnail), so no task is bound to a worker in advance: a free worker
//! claims the next unclaimed index with one `fetch_add`. A heavy task holds
//! only the worker running it while the others keep claiming the tasks
//! behind it, which is all a work-stealing deque would buy. Every task
//! exists before the workers start and none spawns another, so a cursor
//! past the end is a stable stop condition. The pool lives for one call:
//! its workers are [`par::fan_out`] threads that borrow the tasks.
//!
//! # Determinism
//!
//! The pool never affects task *results*: each task is identified by its
//! index in the submitted slice, results return in submission order, and
//! the caller's task function is required to be a pure function of the
//! task payload (the fleet engine guarantees this — every noise draw is
//! counter-derived from the device seed, never from scheduling). Which
//! worker runs which task depends on timing alone.

use crate::{CoreError, Result};
use redeye_tensor::par;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count the host actually offers:
/// [`std::thread::available_parallelism`], or 1 when the host cannot say.
///
/// This is the default pool size everywhere a worker count is optional
/// (the batch executor's [`BatchExecutor::new_auto`](crate::BatchExecutor::new_auto),
/// the fleet executor, the perf bins' `--workers auto`), so hosts stop
/// hard-coding sweeps like 1/2/4 that only measure queue overhead on
/// smaller machines.
pub fn auto_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs every task on a pool of `workers` threads and returns the results
/// **in submission order**.
///
/// `init` builds one scratch state per worker (called on that worker's
/// thread); `run` executes one task against the worker's state. With
/// `workers <= 1` or at most one task everything runs inline on the
/// caller's thread.
///
/// Each task runs under `catch_unwind`, inline too. A panicking task's
/// slot holds [`CoreError::WorkerPanic`]; its worker throws its state
/// away, calls `init` again and keeps claiming tasks, so one bad task
/// costs exactly one result.
///
/// Tasks must be pure functions of their payload for the output to be
/// schedule-independent; the pool itself only decides *where* each task
/// runs, never what it computes.
///
/// # Panics
///
/// Propagates panics from `init`: a worker without state cannot run
/// anything.
pub fn run_tasks<T, S, R, I, F>(tasks: &[T], workers: usize, init: I, run: F) -> Vec<Result<R>>
where
    T: Sync,
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let n = tasks.len();
    if workers <= 1 || n <= 1 {
        let mut state = init(0);
        return tasks
            .iter()
            .enumerate()
            .map(|(idx, task)| contained(0, &init, &run, &mut state, idx, task))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let done = par::fan_out(0..workers.min(n), |w| {
        let mut state = init(w);
        let mut done = Vec::new();
        // Each index is claimed exactly once; the results travel back
        // through the join, so the cursor orders nothing else.
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(task) = tasks.get(idx) else { break };
            done.push((idx, contained(w, &init, &run, &mut state, idx, task)));
        }
        done
    });

    let mut results: Vec<Option<Result<R>>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    for (idx, r) in done.into_iter().flatten() {
        results[idx] = Some(r);
    }
    results
        .into_iter()
        .map(|r| r.expect("every task produces exactly one result"))
        .collect()
}

/// Runs task `idx` on worker `w` under `catch_unwind`. A panic becomes
/// [`CoreError::WorkerPanic`], and the worker's state is rebuilt with
/// `init(w)`: the panic may have left it half-updated, and asserting
/// unwind safety is sound only because that state is never seen again.
fn contained<T, S, R, I, F>(
    w: usize,
    init: &I,
    run: &F,
    state: &mut S,
    idx: usize,
    task: &T,
) -> Result<R>
where
    I: Fn(usize) -> S,
    F: Fn(&mut S, &T) -> R,
{
    match catch_unwind(AssertUnwindSafe(|| run(state, task))) {
        Ok(r) => Ok(r),
        Err(payload) => {
            *state = init(w);
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(CoreError::WorkerPanic { task: idx, message })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unwrap_all<R>(results: Vec<Result<R>>) -> Vec<R> {
        results.into_iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn every_task_runs_once_in_submission_order() {
        for workers in [1usize, 2, 3, 4, 7] {
            let tasks: Vec<u64> = (0..53).collect();
            let results = run_tasks(&tasks, workers, |_| (), |(), &t| t * t);
            let want: Vec<u64> = (0..53).map(|t| t * t).collect();
            assert_eq!(unwrap_all(results), want, "{workers} workers");
        }
    }

    #[test]
    fn init_runs_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let tasks: Vec<usize> = (0..40).collect();
        run_tasks(
            &tasks,
            4,
            |w| {
                inits.fetch_add(1, Ordering::Relaxed);
                w
            },
            |_, &t| t,
        );
        assert_eq!(inits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn panicking_task_rebuilds_its_worker_state() {
        // Task 3 panics: its slot holds the panic, its worker calls
        // `init` once more, and every other task still runs.
        for workers in [1usize, 2] {
            let inits = AtomicUsize::new(0);
            let tasks: Vec<usize> = (0..12).collect();
            let results = run_tasks(
                &tasks,
                workers,
                |_| {
                    inits.fetch_add(1, Ordering::Relaxed);
                },
                |(), &t| {
                    assert_ne!(t, 3, "task 3 fails");
                    t
                },
            );
            assert_eq!(results.len(), 12);
            assert_eq!(inits.load(Ordering::Relaxed), workers + 1);
            for (t, r) in results.into_iter().enumerate() {
                match r {
                    Err(CoreError::WorkerPanic { task, message }) => {
                        assert_eq!((t, task), (3, 3), "@ {workers} workers");
                        assert!(message.contains("task 3 fails"), "{message}");
                    }
                    other => assert_eq!(other, Ok(t), "@ {workers} workers"),
                }
            }
        }
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let results = run_tasks(&[1u64, 2, 3], 16, |_| (), |(), &t| t + 1);
        assert_eq!(unwrap_all(results), vec![2, 3, 4]);
    }

    #[test]
    fn empty_task_list_returns_empty() {
        let results = run_tasks(&Vec::<u64>::new(), 4, |_| (), |(), &t| t);
        assert!(results.is_empty());
    }
}
