//! A deterministic ordered task executor.
//!
//! Every campaign runner in the workspace has the same shape: a statically
//! known list of independent tasks (compile-and-run cells, seed expansions,
//! analyzer invocations) whose results must be *merged in task order* so the
//! output is bit-identical to the sequential loop. One scheduling engine
//! provides exactly that contract, in two shapes:
//!
//! * [`Executor::map_consume`] streams results to a consumer in index
//!   order while workers claim tasks in index order, at most `window`
//!   ahead of the consumer, so memory is bounded whatever the task count;
//! * [`Executor::map`] collects that stream into a vector (a window of the
//!   whole task list).
//!
//! Tasks are indexed `0..n`, so thread scheduling can never reorder
//! observable output. Claiming from one shared counter balances uneven
//! task costs without any per-worker queues.
//!
//! The implementation is plain `std`: one mutex-guarded claim state, two
//! condvars, scoped threads. Task sets are in the thousands at most and
//! each task is a full compile+run pipeline, so claim overhead is noise.

use std::sync::{Condvar, Mutex, MutexGuard};

/// Poison-recovering lock. A panicking task must abort *its* unit of work,
/// not every later lock acquisition: the executor already propagates panics
/// deliberately (through [`AbortGuard`]), so the poison flag carries no
/// extra information — recover the guard and move on. The state behind
/// these locks (task slots, result slots, counters) stays consistent across
/// an unwind because each critical section is a single take/store.
trait Relock<T> {
    fn relock(&self) -> MutexGuard<'_, T>;
}

impl<T> Relock<T> for Mutex<T> {
    fn relock(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// An ordered task executor with a fixed worker count.
///
/// Construction is cheap; the threads live only for the duration of each
/// [`Executor::map_consume`] (or [`Executor::map`]) call.
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
    pub fn map<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = tasks.len();
        let mut out = Vec::with_capacity(n);
        self.map_consume(tasks, n, f, |_, r| out.push(r));
        out
    }

    /// Runs `f` over every task and feeds the results to `consume` **in
    /// task order**, holding at most `window` completed-but-unconsumed
    /// results at any moment.
    ///
    /// The consumer (running on the calling thread) overlaps with the
    /// workers, and memory is capped at `window` results regardless of `n`.
    /// Tasks are claimed in index order — a worker that would run more than
    /// `window` tasks ahead of the consumer parks until the consumer catches
    /// up, and because claims are ordered, the task the consumer is waiting
    /// on is always the one a non-parked worker holds (no deadlock at any
    /// `window ≥ 1`).
    ///
    /// Determinism contract: `consume` observes exactly the sequence
    /// `(0, f(0, t0)), (1, f(1, t1)), …` whatever the worker count or
    /// scheduling.
    pub fn map_consume<T, R, F, C>(&self, tasks: Vec<T>, window: usize, f: F, mut consume: C)
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
        C: FnMut(usize, R),
    {
        let n = tasks.len();
        if n == 0 {
            return;
        }
        let window = window.max(1);
        let slots: Vec<Mutex<Option<T>>> =
            tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let state = StreamState {
            inner: Mutex::new(StreamInner { next: 0, cursor: 0, done: vec![false; n], aborted: false }),
            claim_cv: Condvar::new(),
            result_cv: Condvar::new(),
        };
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n) {
                let slots = &slots;
                let results = &results;
                let state = &state;
                let f = &f;
                scope.spawn(move || {
                    // If this worker unwinds, wake everyone so the consumer
                    // and peers exit instead of parking forever; the scope
                    // then re-raises the panic.
                    let _abort = AbortGuard(state);
                    while let Some(i) = state.claim(n, window) {
                        let task = slots[i]
                            .relock()
                            .take()
                            .expect("task claimed twice");
                        let r = f(i, task);
                        *results[i].relock() = Some(r);
                        state.complete(i);
                    }
                });
            }
            // The consumer runs here, inside the scope, on the caller's
            // thread — guarded the same way so a panicking `consume` frees
            // the workers before the scope joins them.
            let _abort = AbortGuard(&state);
            for (i, slot) in results.iter().enumerate() {
                if !state.await_result(i) {
                    break; // a worker died; its panic surfaces at scope exit
                }
                let r = slot.relock().take().expect("completed result present");
                consume(i, r);
                state.advance();
            }
        });
    }
}

/// Shared state of a [`Executor::map_consume`] run.
struct StreamState {
    inner: Mutex<StreamInner>,
    /// Signaled when the consumer advances (parked claimants recheck).
    claim_cv: Condvar,
    /// Signaled when a result lands (the consumer rechecks).
    result_cv: Condvar,
}

struct StreamInner {
    /// Next unclaimed task index.
    next: usize,
    /// Next index the consumer will take.
    cursor: usize,
    /// Completion flags, indexed by task.
    done: Vec<bool>,
    /// Set when any participant unwinds.
    aborted: bool,
}

impl StreamState {
    /// Claims the next task index, parking while the claim would run more
    /// than `window` ahead of the consumer. `None` when tasks are exhausted
    /// or the run aborted.
    fn claim(&self, n: usize, window: usize) -> Option<usize> {
        let mut inner = self.inner.relock();
        loop {
            if inner.aborted || inner.next >= n {
                return None;
            }
            if inner.next < inner.cursor + window {
                let i = inner.next;
                inner.next += 1;
                return Some(i);
            }
            inner = self.claim_cv.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Marks task `i` complete and wakes the consumer.
    fn complete(&self, i: usize) {
        let mut inner = self.inner.relock();
        inner.done[i] = true;
        drop(inner);
        self.result_cv.notify_all();
    }

    /// Waits until task `i`'s result landed; `false` on abort.
    fn await_result(&self, i: usize) -> bool {
        let mut inner = self.inner.relock();
        loop {
            if inner.done[i] {
                return true;
            }
            if inner.aborted {
                return false;
            }
            inner = self.result_cv.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Advances the consumption cursor, unparking claim-bounded workers.
    fn advance(&self) {
        let mut inner = self.inner.relock();
        inner.cursor += 1;
        drop(inner);
        self.claim_cv.notify_all();
    }

    fn abort(&self) {
        let mut inner = self.inner.relock();
        inner.aborted = true;
        drop(inner);
        self.claim_cv.notify_all();
        self.result_cv.notify_all();
    }
}

/// Sets the abort flag if the holder unwinds (and only then): parked peers
/// wake, drain, and the panic propagates out of the thread scope instead of
/// deadlocking it.
struct AbortGuard<'a>(&'a StreamState);

impl Drop for AbortGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    #[should_panic(expected = "panicked")]
    fn panicking_task_propagates_instead_of_hanging() {
        // The abort guard must wake the consumer and parked workers, so the
        // scope re-raises the panic — a hang here (test timeout) is the
        // deadlock regression.
        let exec = Executor::new(4);
        let _ = exec.map((0..64).collect(), |i, t: usize| {
            if i == 13 {
                panic!("task 13 exploded");
            }
            t
        });
    }

    #[test]
    #[should_panic(expected = "worker count must be nonzero")]
    fn zero_workers_panics() {
        let _ = Executor::new(0);
    }

    #[test]
    fn map_consume_is_in_order_and_complete() {
        for workers in [1, 2, 4, 16] {
            for window in [1, 2, 7, 1000] {
                let exec = Executor::new(workers);
                let mut seen = Vec::new();
                exec.map_consume((0..100).collect(), window, |i, t: usize| {
                    assert_eq!(i, t);
                    t * 3
                }, |i, r| {
                    assert_eq!(r, i * 3);
                    seen.push(i);
                });
                assert_eq!(seen, (0..100).collect::<Vec<_>>(), "w{workers} win{window}");
            }
        }
    }

    #[test]
    fn map_consume_bounds_outstanding_results() {
        // With window W, a worker may never be computing (or have
        // completed) a task more than W past the consumer's cursor. We
        // observe the high-water mark of (claimed index − consumed count).
        let exec = Executor::new(4);
        let window = 3;
        let claimed_max = AtomicUsize::new(0);
        let consumed = AtomicUsize::new(0);
        exec.map_consume(
            (0..200).collect(),
            window,
            |i, _t: usize| {
                let ahead = i - consumed.load(Ordering::Relaxed).min(i);
                claimed_max.fetch_max(ahead, Ordering::Relaxed);
            },
            |_, _| {
                consumed.fetch_add(1, Ordering::Relaxed);
            },
        );
        // The consumer may lag its counter update by the in-flight
        // notification, so allow exactly that slack.
        assert!(
            claimed_max.load(Ordering::Relaxed) <= window + 1,
            "look-ahead {} exceeds window {window}",
            claimed_max.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn map_consume_handles_empty_and_tiny_inputs() {
        let exec = Executor::new(4);
        let mut count = 0;
        exec.map_consume(Vec::<usize>::new(), 4, |_, t| t, |_, _| count += 1);
        assert_eq!(count, 0);
        let mut out = Vec::new();
        exec.map_consume(vec![7], 1, |_, t| t + 1, |_, r| out.push(r));
        assert_eq!(out, vec![8]);
    }

    // (The scope rewraps worker panics as "a scoped thread panicked"; the
    // consumer panic below unwinds on the calling thread and keeps its
    // message.)
    #[test]
    #[should_panic(expected = "panicked")]
    fn map_consume_worker_panic_propagates() {
        let exec = Executor::new(4);
        exec.map_consume(
            (0..64).collect(),
            2,
            |i, t: usize| {
                if i == 13 {
                    panic!("task 13 exploded");
                }
                t
            },
            |_, _| {},
        );
    }

    #[test]
    #[should_panic(expected = "consumer exploded")]
    fn map_consume_consumer_panic_propagates() {
        let exec = Executor::new(4);
        exec.map_consume(
            (0..64).collect(),
            2,
            |_, t: usize| t,
            |i, _| {
                if i == 5 {
                    panic!("consumer exploded");
                }
            },
        );
    }
}
