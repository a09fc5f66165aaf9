//! Worker threads: the daemon's persistent pool, and the scoped
//! fan-out of the one-shot verbs.
//!
//! `check` and `explore` fan independent jobs out with `par_map`:
//! scoped threads that borrow the caller's data, claim indices from one
//! atomic counter and die with the call. At one job it runs inline on
//! the calling thread, where the preparation memo (which serves only the
//! thread that created the program) is shared by every job.
//!
//! `chls serve` needs workers that outlive any single request, so
//! [`Executor`] is a long-lived pool:
//!
//! * **Sharded queues.** Each worker owns a `Mutex<VecDeque>` +
//!   `Condvar` shard; [`Executor::submit`] round-robins across shards
//!   (one atomic increment, one short lock) and idle workers steal from
//!   their neighbors before sleeping, so one slow request never strands
//!   queued work behind it.
//! * **Panic isolation.** Every job runs under `catch_unwind`; a panic
//!   becomes an `Err` on that job's [`Ticket`] and the worker loops on.
//!   As a second line of defense, [`Executor::reap_and_respawn`]
//!   replaces any worker thread that has actually died, so the pool
//!   never shrinks below its configured width.
//! * **Timeouts without cancellation.** [`Ticket::wait_timeout`] bounds
//!   how long a *caller* waits; a timed-out job keeps running and its
//!   result is dropped on the floor (cooperative cancellation would
//!   need deep hooks into synthesis for little gain).
//! * **Graceful shutdown.** [`Executor::shutdown`] flips a flag, wakes
//!   every worker, and joins them; queued-but-unstarted jobs resolve as
//!   errors on their tickets rather than hanging forever.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Runs `f`, turning a panic into the `Err` text a [`Ticket`] reports
/// for a job that panicked, so work nested inside one job can fail
/// alone and read exactly as if it had been its own job.
///
/// # Errors
///
/// `worker panicked: <message>` when `f` panics.
pub(crate) fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string());
        format!("worker panicked: {msg}")
    })
}

/// Runs `f` on every item, each under [`catch_panic`], and returns the
/// results in item order. With `jobs <= 1` or a single item it runs
/// inline on the calling thread; otherwise `min(jobs, items)` scoped
/// threads claim indices from one counter, so a slow item never holds
/// back the others.
pub(crate) fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.iter().map(|item| catch_panic(|| f(item))).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<R, String>>> =
        std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices;
                        // results reach the caller through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        mine.push((i, catch_panic(|| f(&items[i]))));
                    }
                })
            })
            .collect();
        for worker in workers {
            let mine = worker
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, r) in mine {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index is claimed exactly once"))
        .collect()
}

struct Shard {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

struct Shared {
    shards: Vec<Shard>,
    stop: AtomicBool,
    /// Jobs whose closure panicked (observability; the pool survives).
    panics: AtomicU64,
}

/// The worker pool. Dropping it shuts it down.
pub struct Executor {
    shared: Arc<Shared>,
    next: AtomicUsize,
    workers: Mutex<Vec<(usize, JoinHandle<()>)>>,
    respawns: AtomicU64,
}

/// The caller's handle on one submitted job.
pub struct Ticket<T> {
    rx: mpsc::Receiver<Result<T, String>>,
}

impl<T> Ticket<T> {
    /// Blocks until the job finishes or `limit` passes. `Err` means the
    /// job panicked, the pool shut down before running it, or the
    /// deadline passed; on timeout the job keeps running in the
    /// background and its eventual result is discarded.
    pub fn wait_timeout(self, limit: Duration) -> Result<T, String> {
        match self.rx.recv_timeout(limit) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => Err(format!(
                "request timed out after {:.1}s",
                limit.as_secs_f64()
            )),
            Err(RecvTimeoutError::Disconnected) => {
                Err("worker abandoned the job (pool shut down)".to_string())
            }
        }
    }
}

fn worker_loop(shared: &Shared, home: usize) {
    loop {
        // Own shard first, then steal a neighbor's backlog.
        let mut job = pop(&shared.shards[home]);
        if job.is_none() {
            for offset in 1..shared.shards.len() {
                job = pop(&shared.shards[(home + offset) % shared.shards.len()]);
                if job.is_some() {
                    break;
                }
            }
        }
        match job {
            Some(job) => {
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    shared.panics.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                let shard = &shared.shards[home];
                let guard = shard.queue.lock().expect("queue lock");
                if guard.is_empty() && !shared.stop.load(Ordering::Acquire) {
                    // Bounded nap so steal opportunities are re-checked
                    // even if our own condvar never fires.
                    let _ = shard
                        .ready
                        .wait_timeout(guard, Duration::from_millis(50))
                        .expect("queue lock");
                }
            }
        }
    }
}

fn pop(shard: &Shard) -> Option<Job> {
    shard.queue.lock().expect("queue lock").pop_front()
}

impl Executor {
    /// Spawns `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            shards: (0..workers)
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::new()),
                    ready: Condvar::new(),
                })
                .collect(),
            stop: AtomicBool::new(false),
            panics: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| (i, spawn_worker(&shared, i)))
            .collect();
        Executor {
            shared,
            next: AtomicUsize::new(0),
            workers: Mutex::new(handles),
            respawns: AtomicU64::new(0),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.shards.len()
    }

    /// Jobs that panicked so far.
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Workers respawned after dying.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// Enqueues `f` and returns its [`Ticket`]. Panics inside `f`
    /// surface as `Err` on the ticket, never as a dead pool.
    pub fn submit<T, F>(&self, f: F) -> Ticket<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.reap_and_respawn();
        let (tx, rx) = mpsc::channel();
        let panics = self.shared.clone();
        let job: Job = Box::new(move || {
            let result = catch_panic(f);
            if result.is_err() {
                panics.panics.fetch_add(1, Ordering::Relaxed);
            }
            let _ = tx.send(result);
        });
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.shared.shards.len();
        let shard = &self.shared.shards[i];
        shard.queue.lock().expect("queue lock").push_back(job);
        shard.ready.notify_one();
        Ticket { rx }
    }

    /// Replaces any worker whose thread has exited (belt-and-braces:
    /// `catch_unwind` in the loop means this should never trigger, but
    /// a poisoned worker must not silently shrink the pool).
    pub fn reap_and_respawn(&self) -> usize {
        let mut respawned = 0;
        if self.shared.stop.load(Ordering::Acquire) {
            return 0;
        }
        let mut workers = self.workers.lock().expect("workers lock");
        for slot in workers.iter_mut() {
            if slot.1.is_finished() {
                let home = slot.0;
                let fresh = spawn_worker(&self.shared, home);
                let (_, old) = std::mem::replace(slot, (home, fresh));
                let _ = old.join();
                respawned += 1;
            }
        }
        if respawned > 0 {
            self.respawns.fetch_add(respawned, Ordering::Relaxed);
        }
        #[allow(clippy::cast_possible_truncation)]
        {
            respawned as usize
        }
    }

    /// Stops accepting work, wakes everyone, joins every worker.
    /// Queued-but-unstarted jobs resolve as errors on their tickets.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        for shard in &self.shared.shards {
            // Drop abandoned jobs so their senders disconnect.
            shard.queue.lock().expect("queue lock").clear();
            shard.ready.notify_all();
        }
        let mut workers = self.workers.lock().expect("workers lock");
        for (_, handle) in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn spawn_worker(shared: &Arc<Shared>, home: usize) -> JoinHandle<()> {
    let shared = shared.clone();
    std::thread::Builder::new()
        .name(format!("chls-worker-{home}"))
        .spawn(move || worker_loop(&shared, home))
        .expect("spawn worker thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// Far longer than any job here takes: a ticket that reaches it has
    /// hung.
    const LONG: Duration = Duration::from_secs(60);

    #[test]
    fn runs_jobs_and_returns_results() {
        let ex = Executor::new(4);
        let tickets: Vec<Ticket<u32>> = (0..64).map(|i| ex.submit(move || i * 2)).collect();
        let mut got: Vec<u32> = tickets
            .into_iter()
            .map(|t| t.wait_timeout(LONG).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn panic_is_isolated_and_pool_survives() {
        let ex = Executor::new(2);
        let boom: Ticket<()> = ex.submit(|| panic!("kaboom"));
        let e = boom.wait_timeout(LONG).unwrap_err();
        assert!(e.contains("kaboom"), "{e}");
        assert_eq!(ex.panics(), 1);
        // The pool still works after the panic.
        assert_eq!(ex.submit(|| 7u32).wait_timeout(LONG).unwrap(), 7);
        assert_eq!(ex.workers(), 2);
    }

    #[test]
    fn timeout_leaves_the_job_running() {
        let ex = Executor::new(1);
        let done = Arc::new(AtomicU32::new(0));
        let d = done.clone();
        let slow: Ticket<()> = ex.submit(move || {
            std::thread::sleep(Duration::from_millis(120));
            d.store(1, Ordering::SeqCst);
        });
        let e = slow.wait_timeout(Duration::from_millis(10)).unwrap_err();
        assert!(e.contains("timed out"), "{e}");
        // The job still completes in the background.
        std::thread::sleep(Duration::from_millis(250));
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn work_stealing_drains_uneven_load() {
        // One worker shard gets everything via round-robin over one
        // submit thread; with 4 workers stealing, all finish.
        let ex = Executor::new(4);
        let counter = Arc::new(AtomicU32::new(0));
        let tickets: Vec<Ticket<()>> = (0..32)
            .map(|_| {
                let c = counter.clone();
                ex.submit(move || {
                    std::thread::sleep(Duration::from_millis(5));
                    c.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for t in tickets {
            t.wait_timeout(LONG).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn shutdown_joins_and_fails_queued_work() {
        let ex = Executor::new(1);
        // Block the single worker, queue one more, then shut down.
        let gate: Ticket<()> = ex.submit(|| std::thread::sleep(Duration::from_millis(80)));
        let queued: Ticket<u32> = ex.submit(|| 1);
        ex.shutdown();
        let _ = gate.wait_timeout(LONG);
        let e = queued.wait_timeout(LONG).unwrap_err();
        assert!(
            e.contains("abandoned"),
            "abandoned job must error, not hang: {e}"
        );
        // Idempotent.
        ex.shutdown();
    }

    #[test]
    fn par_map_returns_results_in_item_order() {
        let items: Vec<u32> = (0..40).collect();
        for jobs in [1, 2, 8] {
            let got: Vec<u32> = par_map(jobs, &items, |&i| {
                // Early items finish last, so claim order is not
                // completion order.
                std::thread::sleep(Duration::from_micros(u64::from(40 - i) * 50));
                i * 3
            })
            .into_iter()
            .map(Result::unwrap)
            .collect();
            assert_eq!(
                got,
                items.iter().map(|i| i * 3).collect::<Vec<_>>(),
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn par_map_isolates_a_panicking_item() {
        for jobs in [1, 2, 8] {
            let got = par_map(jobs, &[1u32, 2, 3, 4], |&i| {
                if i == 2 {
                    panic!("item two is bad");
                }
                i
            });
            assert_eq!(got[0], Ok(1), "jobs {jobs}");
            assert_eq!(
                got[1],
                Err("worker panicked: item two is bad".to_string()),
                "jobs {jobs}"
            );
            assert_eq!(got[2..], [Ok(3), Ok(4)], "jobs {jobs}");
        }
    }

    #[test]
    fn par_map_at_one_job_runs_on_the_calling_thread() {
        let me = std::thread::current().id();
        let threads = par_map(1, &[(); 4], |()| std::thread::current().id());
        assert!(threads.into_iter().all(|t| t == Ok(me)));
        // Several jobs run on scoped threads instead.
        let threads = par_map(2, &[(); 4], |()| std::thread::current().id());
        assert!(threads.into_iter().all(|t| t.is_ok_and(|t| t != me)));
    }
}
