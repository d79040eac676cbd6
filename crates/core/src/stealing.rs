//! A work-stealing task scheduler in the Chase–Lev deque style, for
//! heterogeneous task sets over a fixed worker pool.
//!
//! This is the simulator's one worker pool. A batch of frames
//! ([`BatchExecutor`](crate::BatchExecutor)) and a fleet of device×frame
//! tasks ([`FleetExecutor`](crate::FleetExecutor)) each run as one
//! [`run_stealing`] call. Fleet tasks vary widely in weight (a low-light
//! device's denoised burst next to a privacy-filtered thumbnail), so the
//! scheduler keeps the classic Chase–Lev discipline — every worker owns a
//! deque, pops its own work LIFO from the back, and steals FIFO from the
//! front of a victim's deque when it runs dry — and heavy tails migrate to
//! idle workers instead of serializing behind one queue. The pool lives
//! for one call: its workers are [`par::fan_out`] threads that borrow the
//! tasks.
//!
//! The canonical Chase–Lev deque is a lock-free array with subtle
//! publication ordering; this crate forbids `unsafe`, so each deque is a
//! `Mutex<VecDeque>` with the same owner-LIFO/thief-FIFO access pattern.
//! Tasks here are whole device×frame executions (milliseconds), so the
//! nanosecond-scale difference between a CAS and an uncontended lock is
//! noise — the *scheduling policy* is what matters.
//!
//! # Determinism
//!
//! The scheduler never affects task *results*: each task is identified by
//! its index in the submitted slice, results return in submission order,
//! and the caller's task function is required to be a pure function of the
//! task payload (the fleet engine guarantees this — every noise draw is
//! counter-derived from the device seed, never from scheduling). Placement
//! and victim order are explicit knobs so tests can prove output equality
//! across materially different steal schedules.

use crate::{CoreError, Result};
use redeye_tensor::par;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How submitted tasks are distributed across the worker deques before
/// execution starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Task `i` starts on worker `i mod workers` — interleaved, so every
    /// deque holds a cross-section of the task list.
    #[default]
    RoundRobin,
    /// Contiguous blocks: worker `w` starts with tasks
    /// `[w·n/workers, (w+1)·n/workers)`. Preserves task locality and, with
    /// skewed inputs, deliberately provokes stealing — useful in tests.
    Blocked,
}

/// The order a hungry worker scans victims in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VictimOrder {
    /// Ring order: worker `w` tries `w+1, w+2, …` (mod workers).
    #[default]
    Ring,
    /// Reverse ring: worker `w` tries `w-1, w-2, …` (mod workers).
    /// Exists so determinism tests can flip the steal schedule.
    ReverseRing,
}

/// Scheduler knobs: initial placement and victim scan order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StealOptions {
    /// Initial task placement across deques.
    pub placement: Placement,
    /// Victim scan order for steals.
    pub victim_order: VictimOrder,
}

/// Counters describing one scheduler run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StealStats {
    /// Tasks executed (always the number submitted).
    pub executed: u64,
    /// Tasks that ran on a worker other than the one they were placed on.
    pub steals: u64,
}

/// One worker's deque: tasks tagged with their submission index.
type Deque<T> = Mutex<VecDeque<(usize, T)>>;

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

/// Runs every task on a pool of `workers` threads with work stealing, and
/// returns the results **in submission order** plus scheduler counters.
///
/// `init` builds one scratch state per worker (called on that worker's
/// thread); `run` executes one task against the worker's state. With
/// `workers <= 1` or at most one task everything runs inline on the
/// caller's thread — the degenerate deque with no thieves.
///
/// Each task runs under `catch_unwind`, inline too. A panicking task's
/// slot holds [`CoreError::WorkerPanic`]; its worker throws its state
/// away, calls `init` again and keeps draining tasks, so one bad task
/// costs exactly one result.
///
/// Tasks must be pure functions of their payload for the output to be
/// schedule-independent; the scheduler itself only decides *where* each
/// task runs, never what it computes.
///
/// # Panics
///
/// Propagates panics from `init`: a worker without state cannot run
/// anything.
pub fn run_stealing<T, S, R, I, F>(
    tasks: &[T],
    workers: usize,
    opts: StealOptions,
    init: I,
    run: F,
) -> (Vec<Result<R>>, StealStats)
where
    T: Sync,
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let n = tasks.len();
    let executed = n as u64;
    if workers <= 1 || n <= 1 {
        let mut state = init(0);
        let results = tasks
            .iter()
            .enumerate()
            .map(|(idx, task)| contained(0, &init, &run, &mut state, idx, task))
            .collect();
        return (
            results,
            StealStats {
                executed,
                steals: 0,
            },
        );
    }

    let workers = workers.min(n);
    let deques: Vec<Deque<&T>> = (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    place(tasks, &deques, opts.placement);
    let steals = AtomicU64::new(0);

    let done = par::fan_out(0..workers, |w| {
        let mut state = init(w);
        let mut done = Vec::new();
        loop {
            // Own work first: LIFO from the back of our deque.
            let own = deques[w].lock().expect("deque poisoned").pop_back();
            let (idx, task) = match own {
                Some(job) => job,
                // Dry: scan victims, stealing FIFO from the front (the
                // oldest, largest-remaining work).
                None => match steal_from(&deques, w, opts.victim_order) {
                    Some(job) => {
                        steals.fetch_add(1, Ordering::Relaxed);
                        job
                    }
                    None => break,
                },
            };
            done.push((idx, contained(w, &init, &run, &mut state, idx, task)));
        }
        done
    });

    let mut results: Vec<Option<Result<R>>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    for (idx, r) in done.into_iter().flatten() {
        results[idx] = Some(r);
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("every task produces exactly one result"))
        .collect();
    (
        results,
        StealStats {
            executed,
            steals: steals.load(Ordering::Relaxed),
        },
    )
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

/// Distributes task references across the deques per the placement policy.
fn place<'t, T>(tasks: &'t [T], deques: &[Deque<&'t T>], placement: Placement) {
    let workers = deques.len();
    match placement {
        Placement::RoundRobin => {
            for (i, task) in tasks.iter().enumerate() {
                deques[i % workers]
                    .lock()
                    .expect("deque poisoned")
                    .push_back((i, task));
            }
        }
        Placement::Blocked => {
            let n = tasks.len();
            for (w, deque) in deques.iter().enumerate() {
                let lo = w * n / workers;
                let hi = (w + 1) * n / workers;
                let mut q = deque.lock().expect("deque poisoned");
                for (i, task) in tasks.iter().enumerate().take(hi).skip(lo) {
                    q.push_back((i, task));
                }
            }
        }
    }
}

/// One full victim scan for worker `w`: first hit wins, `None` means every
/// deque (including our own, already known dry) is empty. Because tasks
/// are all placed before workers start and never spawn successors, an
/// empty sweep is a stable termination condition, not a race.
fn steal_from<'t, T>(
    deques: &[Deque<&'t T>],
    w: usize,
    order: VictimOrder,
) -> Option<(usize, &'t T)> {
    let workers = deques.len();
    for step in 1..workers {
        let v = match order {
            VictimOrder::Ring => (w + step) % workers,
            VictimOrder::ReverseRing => (w + workers - step) % workers,
        };
        let task = deques[v].lock().expect("deque poisoned").pop_front();
        if task.is_some() {
            return task;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn opts_matrix() -> Vec<StealOptions> {
        let mut m = Vec::new();
        for placement in [Placement::RoundRobin, Placement::Blocked] {
            for victim_order in [VictimOrder::Ring, VictimOrder::ReverseRing] {
                m.push(StealOptions {
                    placement,
                    victim_order,
                });
            }
        }
        m
    }

    fn unwrap_all<R>(results: Vec<Result<R>>) -> Vec<R> {
        results.into_iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn every_task_runs_once_in_submission_order() {
        for opts in opts_matrix() {
            for workers in [1usize, 2, 3, 4, 7] {
                let tasks: Vec<u64> = (0..53).collect();
                let (results, stats) = run_stealing(&tasks, workers, opts, |_| (), |(), &t| t * t);
                let want: Vec<u64> = (0..53).map(|t| t * t).collect();
                assert_eq!(unwrap_all(results), want, "{opts:?} @ {workers} workers");
                assert_eq!(stats.executed, 53);
            }
        }
    }

    #[test]
    fn skewed_blocks_provoke_stealing() {
        // Worker 0's block holds all the heavy tasks; with blocked
        // placement the only way the pool balances is by stealing.
        let tasks: Vec<u64> = (0..32).map(|i| if i < 16 { 3_000 } else { 0 }).collect();
        let opts = StealOptions {
            placement: Placement::Blocked,
            victim_order: VictimOrder::Ring,
        };
        let (results, stats) = run_stealing(
            &tasks,
            2,
            opts,
            |_| (),
            |(), &spin| {
                // Busy work proportional to the task weight.
                let mut acc = 0u64;
                for i in 0..spin * 100 {
                    acc = acc.wrapping_add(i ^ acc.rotate_left(7));
                }
                std::hint::black_box(acc);
                spin
            },
        );
        assert_eq!(unwrap_all(results).iter().sum::<u64>(), 16 * 3_000);
        assert!(stats.steals > 0, "no steals despite a fully skewed block");
    }

    #[test]
    fn init_runs_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let tasks: Vec<usize> = (0..40).collect();
        let (_, _) = run_stealing(
            &tasks,
            4,
            StealOptions::default(),
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
            let (results, stats) = run_stealing(
                &tasks,
                workers,
                StealOptions::default(),
                |_| {
                    inits.fetch_add(1, Ordering::Relaxed);
                },
                |(), &t| {
                    assert_ne!(t, 3, "task 3 fails");
                    t
                },
            );
            assert_eq!(stats.executed, 12);
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
    fn results_identical_across_schedules() {
        // The whole point: materially different steal schedules, same
        // output for pure tasks.
        let tasks: Vec<u64> = (0..97).collect();
        let mut reference: Option<Vec<u64>> = None;
        for opts in opts_matrix() {
            for workers in [1usize, 2, 4] {
                let (results, _) = run_stealing(
                    &tasks,
                    workers,
                    opts,
                    |_| (),
                    |(), &t| t.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17),
                );
                let results = unwrap_all(results);
                match &reference {
                    Some(want) => assert_eq!(want, &results, "{opts:?} @ {workers}"),
                    None => reference = Some(results),
                }
            }
        }
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let (results, stats) = run_stealing(
            &[1u64, 2, 3],
            16,
            StealOptions::default(),
            |_| (),
            |(), &t| t + 1,
        );
        assert_eq!(unwrap_all(results), vec![2, 3, 4]);
        assert_eq!(stats.executed, 3);
    }

    #[test]
    fn empty_task_list_returns_empty() {
        let (results, stats) = run_stealing(
            &Vec::<u64>::new(),
            4,
            StealOptions::default(),
            |_| (),
            |(), &t| t,
        );
        assert!(results.is_empty());
        assert_eq!(stats.executed, 0);
    }
}
