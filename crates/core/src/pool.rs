//! The simulator's one worker pool: a fixed set of workers draining a task
//! slice through one shared claim cursor.
//!
//! A batch of frames ([`BatchExecutor`](crate::BatchExecutor)) and a fleet
//! of device frame segments ([`FleetExecutor`](crate::FleetExecutor)) each run
//! as one [`run_tasks`] call. Fleet tasks vary widely in weight (a
//! low-light device's denoised burst next to a privacy-filtered
//! thumbnail), so no task is bound to a worker in advance: a free worker
//! claims the next unclaimed index with one `fetch_add`. A heavy task holds
//! only the worker running it while the others keep claiming the tasks
//! behind it, which is all a work-stealing deque would buy. Every task
//! exists before the workers start and none spawns another, so a cursor
//! past the end is a stable stop condition. The threads live for one
//! call: they are [`par::fan_out`] threads that borrow the tasks and one
//! caller-owned state each. The states outlive the call, so a batch
//! executor's workers keep their warm conv workspaces from batch to
//! batch.
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
/// (the fleet executor, the perf bins' `--workers auto`), so hosts stop
/// hard-coding sweeps like 1/2/4 that only measure queue overhead on
/// smaller machines.
pub fn auto_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs every task on one worker per state in `states` (at most one per
/// task) and returns the results **in submission order**.
///
/// Worker `w` runs its tasks against `states[w]`, and the states outlive
/// the call: a caller that keeps them hands each worker its warm scratch
/// again on the next call. `run` executes one task against the worker's
/// state. With at most one state or at most one task everything runs
/// inline on the caller's thread, on `states[0]` (or on a fresh
/// `S::default()` when `states` is empty).
///
/// Each task runs under `catch_unwind`, inline too. A panicking task's
/// slot holds [`CoreError::WorkerPanic`]; its worker resets its state to
/// `S::default()` and keeps claiming tasks, so one bad task costs exactly
/// one result and a poisoned state is never reused.
///
/// Tasks must be pure functions of their payload for the output to be
/// schedule-independent; the pool itself only decides *where* each task
/// runs, never what it computes.
pub fn run_tasks<T, S, R, F>(tasks: &[T], states: &mut [S], run: F) -> Vec<Result<R>>
where
    T: Sync,
    S: Default + Send,
    R: Send,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let n = tasks.len();
    if states.len() <= 1 || n <= 1 {
        let mut fresh = None;
        let state = match states.first_mut() {
            Some(state) => state,
            None => fresh.insert(S::default()),
        };
        return tasks
            .iter()
            .enumerate()
            .map(|(idx, task)| contained(&run, state, idx, task))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let run = &run;
    let done = par::fan_out(states.iter_mut().take(n), |state| {
        let mut done = Vec::new();
        // Each index is claimed exactly once; the results travel back
        // through the join, so the cursor orders nothing else.
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(task) = tasks.get(idx) else { break };
            done.push((idx, contained(run, state, idx, task)));
        }
        done
    });

    // Every index in `0..n` was claimed by exactly one worker, so sorting
    // the joined pairs by index restores submission order.
    let mut pairs = Vec::with_capacity(n);
    for worker in done {
        pairs.extend(worker);
    }
    pairs.sort_unstable_by_key(|&(idx, _)| idx);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Runs task `idx` under `catch_unwind`. A panic becomes
/// [`CoreError::WorkerPanic`], and the worker's state is reset to
/// `S::default()`: the panic may have left it half-updated, and asserting
/// unwind safety is sound only because that state is never seen again.
fn contained<T, S, R, F>(run: &F, state: &mut S, idx: usize, task: &T) -> Result<R>
where
    S: Default,
    F: Fn(&mut S, &T) -> R,
{
    match catch_unwind(AssertUnwindSafe(|| run(state, task))) {
        Ok(r) => Ok(r),
        Err(payload) => {
            *state = S::default();
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
            let results = run_tasks(&tasks, &mut vec![(); workers], |(), &t| t * t);
            let want: Vec<u64> = (0..53).map(|t| t * t).collect();
            assert_eq!(unwrap_all(results), want, "{workers} workers");
        }
    }

    #[test]
    fn worker_state_persists_across_calls() {
        // Each worker counts the tasks it ran; the counts carry from one
        // call into the next.
        for workers in [1usize, 2, 4] {
            let mut states = vec![0usize; workers];
            let tasks: Vec<usize> = (0..40).collect();
            for call in 1..=2 {
                run_tasks(&tasks, &mut states, |ran, _| *ran += 1);
                let total: usize = states.iter().sum();
                assert_eq!(total, 40 * call, "{workers} workers, call {call}");
            }
        }
    }

    #[test]
    fn panicking_task_resets_its_worker_state() {
        // Each task logs itself in its worker's state, and task 3 panics
        // after logging: its slot holds the panic, its worker's log is
        // reset to empty, and every other task still runs.
        for workers in [1usize, 2] {
            let mut logs = vec![vec![99usize]; workers];
            let tasks: Vec<usize> = (0..12).collect();
            let results = run_tasks(&tasks, &mut logs, |log, &t| {
                log.push(t);
                assert_ne!(t, 3, "task 3 fails");
                t
            });
            assert!(logs.iter().all(|log| !log.contains(&3)), "{logs:?}");
            if workers == 1 {
                assert_eq!(logs, vec![(4..12).collect::<Vec<_>>()]);
            }
            assert_eq!(results.len(), 12);
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
        let results = run_tasks(&[1u64, 2, 3], &mut [(); 16], |(), &t| t + 1);
        assert_eq!(unwrap_all(results), vec![2, 3, 4]);
    }

    #[test]
    fn empty_task_list_returns_empty() {
        let results = run_tasks(&Vec::<u64>::new(), &mut [(); 4], |(), &t| t);
        assert!(results.is_empty());
    }

    #[test]
    fn no_states_runs_inline_on_a_fresh_one() {
        let results = run_tasks(&[1u64, 2], &mut Vec::<u64>::new(), |acc, &t| {
            *acc += t;
            *acc
        });
        assert_eq!(unwrap_all(results), vec![1, 3]);
    }
}
