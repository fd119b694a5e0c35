//! A deterministic ordered task executor.
//!
//! Every campaign runner in the workspace has the same shape: a statically
//! known list of independent tasks (seed expansions, `(program, sanitizer)`
//! group judgments, analyzer invocations) whose results must be *merged in
//! task order* so the output is bit-identical to the sequential loop.
//! [`Executor::map`] provides exactly that contract: it runs every task on
//! the executor's threads and returns the results in task order, and the
//! caller folds them.
//!
//! Tasks are indexed `0..n`, so thread scheduling can never reorder
//! observable output. Claiming indices from one shared counter balances
//! uneven task costs without any per-worker queues.
//!
//! The implementation is plain `std`: one atomic claim counter, scoped
//! threads, and one result list per worker. Task sets are in the thousands
//! at most and each task is a full compile+run pipeline, so claim overhead
//! is noise; the collected results are what the caller folds, so they are
//! meant to be small (the campaign's are per-group verdicts).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// An ordered task executor with a fixed worker count.
///
/// Construction is cheap; the threads live only for the duration of each
/// [`Executor::map`] call.
#[derive(Debug, Clone)]
pub struct Executor {
    workers: usize,
}

impl Executor {
    /// An executor over `workers` threads (must be nonzero).
    pub fn new(workers: usize) -> Executor {
        assert!(workers > 0, "worker count must be nonzero");
        Executor { workers }
    }

    /// An executor with one worker per available core.
    pub fn auto() -> Executor {
        Executor::new(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` over every task and returns the results **in task order**.
    ///
    /// `f` receives `(task index, task)` and must be pure with respect to
    /// shared state for the output to be deterministic (interior-mutability
    /// telemetry like cache counters is fine; anything order-dependent is
    /// not). Tasks run on executor threads, never the caller's, so a task
    /// that wants a thread-scoped recorder attaches it itself.
    ///
    /// # Panics
    ///
    /// With the first panicking task's payload. Once a task panics no
    /// worker claims another task; tasks already running finish first.
    pub fn map<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = tasks.len();
        let tasks: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        // `Relaxed` suffices: the counter publishes no data (a task passes
        // through its slot's lock, a result through `join`).
        let next = AtomicUsize::new(0);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.workers.min(n))
                .map(|_| {
                    scope.spawn(|| {
                        let _stop = StopClaims { next: &next, n };
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break done;
                            }
                            let task = tasks[i]
                                .lock()
                                .expect("a task slot is locked only to take its task")
                                .take()
                                .expect("each index is claimed once");
                            done.push((i, f(i, task)));
                        }
                    })
                })
                .collect();
            for worker in workers {
                match worker.join() {
                    Ok(done) => done.into_iter().for_each(|(i, r)| out[i] = Some(r)),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });
        out.into_iter().map(|r| r.expect("every task ran")).collect()
    }
}

/// Moves the claim counter past the last task if its worker unwinds, so a
/// panicking task stops every worker's claims and [`Executor::map`]
/// propagates the panic instead of running the rest of the tasks.
struct StopClaims<'a> {
    next: &'a AtomicUsize,
    n: usize,
}

impl Drop for StopClaims<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.next.store(self.n, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_task_order() {
        for workers in [1, 2, 3, 8, 16] {
            let exec = Executor::new(workers);
            let tasks: Vec<usize> = (0..100).collect();
            let out = exec.map(tasks, |i, t| {
                assert_eq!(i, t);
                t * 3
            });
            assert_eq!(out, (0..100).map(|t| t * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        let exec = Executor::new(4);
        assert_eq!(exec.map(Vec::<usize>::new(), |_, t| t), Vec::<usize>::new());
        assert_eq!(exec.map(vec![7], |_, t| t + 1), vec![8]);
        assert_eq!(exec.map(vec![1, 2], |_, t| t), vec![1, 2]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let exec = Executor::new(8);
        let counter = AtomicUsize::new(0);
        let out = exec.map((0..500).collect(), |_, t: usize| {
            counter.fetch_add(1, Ordering::Relaxed);
            t
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn imbalanced_tasks_complete_in_order() {
        // All the work at the front still completes and preserves order:
        // idle workers keep claiming past the slow tasks — we only assert
        // correctness here, the balancing is observable in the campaign
        // benches.
        let exec = Executor::new(4);
        let out = exec.map((0..64).collect(), |i, t: usize| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            t * t
        });
        assert_eq!(out, (0..64).map(|t| t * t).collect::<Vec<_>>());
    }

    #[test]
    fn tasks_run_only_on_executor_threads() {
        let caller = std::thread::current().id();
        for workers in [1, 4] {
            let out = Executor::new(workers).map((0..16).collect(), |_, t: usize| {
                assert_ne!(std::thread::current().id(), caller, "task ran on the caller");
                t
            });
            assert_eq!(out.len(), 16);
        }
    }

    #[test]
    #[should_panic(expected = "task 13 exploded")]
    fn panicking_task_propagates_instead_of_hanging() {
        // The first panic surfaces with its own payload; a hang here (test
        // timeout) is the deadlock regression.
        let exec = Executor::new(4);
        let _ = exec.map((0..64).collect(), |i, t: usize| {
            if i == 13 {
                panic!("task 13 exploded");
            }
            t
        });
    }

    #[test]
    fn a_panicking_task_stops_further_claims() {
        use std::sync::mpsc::{channel, Sender};
        use std::time::Duration;
        // Sends once the thread that holds it exits: after its worker has
        // unwound past the claim loop.
        struct SignalOnExit(Sender<()>);
        impl Drop for SignalOnExit {
            fn drop(&mut self) {
                let _ = self.0.send(());
            }
        }
        thread_local! {
            static ON_EXIT: std::cell::RefCell<Option<SignalOnExit>> =
                const { std::cell::RefCell::new(None) };
        }
        // Task 0 panics; task 1, on the other worker, finishes only once
        // task 0's worker thread has exited, so its next claim comes after
        // the panic. Without the stop, that worker would run all n tasks.
        let n = 64;
        let (tx, rx) = channel();
        let rx = Mutex::new(rx);
        let started = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Executor::new(2).map((0..n).collect(), |i, t: usize| {
                started.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    ON_EXIT.with(|slot| *slot.borrow_mut() = Some(SignalOnExit(tx.clone())));
                    panic!("task 0 exploded");
                }
                if i == 1 {
                    let exited = rx.lock().unwrap().recv_timeout(Duration::from_secs(60));
                    exited.expect("task 0's worker exits");
                }
                t
            })
        }));
        let payload = caught.expect_err("the task panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 0 exploded"));
        let started = started.load(Ordering::Relaxed);
        assert!(started <= 2, "{started} of {n} tasks started after a panic");
    }

    #[test]
    #[should_panic(expected = "worker count must be nonzero")]
    fn zero_workers_panics() {
        let _ = Executor::new(0);
    }
}
