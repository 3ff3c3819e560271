//! A persistent worker pool — the OpenMP-parallel-for stand-in.
//!
//! The paper's implementation relies on OpenMP's long-lived worker threads
//! (§2, §4.1.1); spawning fresh threads per batch would bury SLIDE's
//! sub-millisecond per-batch compute in thread start-up latency. As in
//! OpenMP, the caller is worker 0: a pool of `n` workers keeps `n − 1`
//! threads parked on a condition variable, and `run` hands them a
//! *borrowed* closure, runs worker 0's share itself, and does not return
//! (or unwind) until every spawned worker has finished, which is what makes
//! handing the closure to them by raw pointer sound. A 1-worker pool spawns
//! nothing: its `run` is a plain call on the calling thread.

use parking_lot::{Condvar, Mutex};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

type Job = *const (dyn Fn(usize) + Sync + 'static);

struct PoolShared {
    /// Current job pointer + generation; guarded by `lock`.
    job: Mutex<(Option<Job>, u64)>,
    start: Condvar,
    /// Spawned workers done with the current job.
    done_lock: Mutex<usize>,
    done: Condvar,
    /// Spawned workers: the caller waits for this many done signals.
    spawned: usize,
    panicked: AtomicBool,
    shutdown: AtomicBool,
}

// SAFETY: the raw job pointer is only dereferenced while `run` blocks, so the
// referent outlives every use (see `run`).
unsafe impl Send for PoolShared {}
unsafe impl Sync for PoolShared {}

/// A fixed-size pool of workers executing borrowed closures: the calling
/// thread is worker 0, and workers `1..n` are parked threads.
///
/// # Examples
///
/// ```
/// use slide_core::ThreadPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ThreadPool::new(4);
/// let hits = AtomicUsize::new(0);
/// pool.run(&|worker_id| {
///     assert!(worker_id < 4);
///     hits.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 4);
/// ```
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// A pool of `workers` workers (at least 1): the caller of
    /// [`ThreadPool::run`] and `workers − 1` spawned, parked threads.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            job: Mutex::new((None, 0)),
            start: Condvar::new(),
            done_lock: Mutex::new(0),
            done: Condvar::new(),
            spawned: workers - 1,
            panicked: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let handles = (1..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("slide-worker-{id}"))
                    .spawn(move || worker_loop(id, &shared))
                    .expect("spawn slide worker")
            })
            .collect();
        ThreadPool { shared, handles }
    }

    /// Number of workers, the calling thread included.
    pub fn workers(&self) -> usize {
        self.shared.spawned + 1
    }

    /// Execute `f(worker_id)` once per worker concurrently — `f(0)` on the
    /// calling thread, `f(1..n)` on the spawned ones — blocking until all
    /// calls return.
    ///
    /// # Panics
    ///
    /// Re-panics on the caller if any worker's closure panicked, once every
    /// spawned worker has returned.
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.shared.spawned == 0 {
            return f(0);
        }
        // Publish the job. The pointer stays valid because we neither return
        // nor unwind until every spawned worker reports done; the lifetime
        // erasure below is sound for the same reason.
        let ptr: *const (dyn Fn(usize) + Sync) = f;
        // SAFETY: same-layout fat-pointer transmute, erasing the borrow
        // lifetime; the referent outlives all uses (we block below).
        let job: Job = unsafe { std::mem::transmute(ptr) };
        {
            let mut guard = self.shared.job.lock();
            // Reset the panic flag for this generation while holding the job
            // lock (no worker can be running a closure here: the previous
            // `run` drained the done counter before returning), so a stale
            // flag from an earlier generation can never leak into this one.
            self.shared.panicked.store(false, Ordering::SeqCst);
            guard.0 = Some(job);
            guard.1 = guard.1.wrapping_add(1);
            self.shared.start.notify_all();
        }
        // Worker 0's share, caught so that a panic here cannot unwind past
        // the wait below while a spawned worker still holds `job`.
        let caller = catch_unwind(AssertUnwindSafe(|| f(0)));
        let mut done = self.shared.done_lock.lock();
        while *done < self.shared.spawned {
            self.shared.done.wait(&mut done);
        }
        *done = 0;
        drop(done);
        // Clear the job pointer so nothing dangles between runs.
        self.shared.job.lock().0 = None;
        // Re-raise after full cleanup; the flag is also reset at the next
        // job publication, so the pool stays reusable either way.
        let spawned_panicked = self.shared.panicked.swap(false, Ordering::SeqCst);
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if spawned_panicked {
            panic!("ThreadPool: a worker closure panicked");
        }
    }

    /// Parallel loop over `0..n` by chunk: workers pull `grain`-sized
    /// chunks from a shared counter (dynamic load balancing, like OpenMP's
    /// `schedule(dynamic)` which SLIDE uses for its skewed workloads), and
    /// `f(worker, chunk)` runs once per chunk, each chunk on exactly one
    /// worker, so `f` may take that worker's own state by its id.
    ///
    /// # Panics
    ///
    /// Panics if `grain == 0`, and re-panics if `f` panics on any worker.
    pub fn parallel_chunks(
        &self,
        n: usize,
        grain: usize,
        f: &(dyn Fn(usize, Range<usize>) + Sync),
    ) {
        assert!(
            grain > 0,
            "ThreadPool::parallel_chunks: grain must be positive"
        );
        if n == 0 {
            return;
        }
        let cursor = AtomicUsize::new(0);
        self.run(&|worker| loop {
            let start = cursor.fetch_add(grain, Ordering::Relaxed);
            if start >= n {
                break;
            }
            f(worker, start..(start + grain).min(n));
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake everyone so they observe shutdown.
        {
            let mut job = self.shared.job.lock();
            job.1 = job.1.wrapping_add(1);
            self.shared.start.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(worker_id: usize, shared: &PoolShared) {
    let mut seen_gen = 0u64;
    loop {
        let job: Option<Job> = {
            let mut guard = shared.job.lock();
            while guard.1 == seen_gen && !shared.shutdown.load(Ordering::SeqCst) {
                shared.start.wait(&mut guard);
            }
            seen_gen = guard.1;
            guard.0
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Some(job) = job {
            // SAFETY: `run` blocks until all workers signal done, so the
            // closure behind `job` is alive for the duration of this call.
            let f = unsafe { &*job };
            if catch_unwind(AssertUnwindSafe(|| f(worker_id))).is_err() {
                shared.panicked.store(true, Ordering::SeqCst);
            }
            let mut done = shared.done_lock.lock();
            *done += 1;
            if *done == shared.spawned {
                shared.done.notify_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_worker_runs_once() {
        let pool = ThreadPool::new(6);
        let mask = AtomicU64::new(0);
        pool.run(&|id| {
            mask.fetch_or(1 << id, Ordering::SeqCst);
        });
        assert_eq!(mask.load(Ordering::SeqCst), 0b111111);
    }

    #[test]
    fn reusable_across_many_runs() {
        let pool = ThreadPool::new(3);
        let counter = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run(&|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn parallel_chunks_hand_each_chunk_to_one_worker() {
        let pool = ThreadPool::new(3);
        let owner: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(usize::MAX)).collect();
        pool.parallel_chunks(1000, 7, &|worker, chunk| {
            assert!(chunk.len() <= 7 && chunk.start % 7 == 0);
            for i in chunk {
                assert_eq!(owner[i].swap(worker, Ordering::Relaxed), usize::MAX);
            }
        });
        assert!(owner.iter().all(|o| o.load(Ordering::Relaxed) < 3));
    }

    #[test]
    fn parallel_chunks_empty_is_noop() {
        let pool = ThreadPool::new(2);
        pool.parallel_chunks(0, 8, &|_, _| panic!("should not run"));
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|id| {
                if id == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool still usable afterwards.
        let counter = AtomicUsize::new(0);
        pool.run(&|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn panic_flag_resets_per_generation() {
        // Regression test: a caught worker panic must not leave `panicked`
        // sticky — every later generation starts clean, succeeds cleanly,
        // and a *second* panic still propagates.
        let pool = ThreadPool::new(3);
        for round in 0..3 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.run(&|id| {
                    if id == round % 3 {
                        panic!("boom {round}");
                    }
                });
            }));
            assert!(result.is_err(), "round {round} should re-raise");
            // The very next run must NOT spuriously panic.
            let counter = AtomicUsize::new(0);
            pool.run(&|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), 3, "round {round}");
        }
    }

    #[test]
    fn parallel_chunks_panic_leaves_pool_reusable() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_chunks(100, 8, &|_, chunk| {
                if chunk.contains(&57) {
                    panic!("item boom");
                }
            });
        }));
        assert!(result.is_err());
        let flags: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_chunks(64, 4, &|_, chunk| {
            for i in chunk {
                flags[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn the_caller_is_worker_zero() {
        let caller = std::thread::current().id();
        let inline = ThreadPool::new(1);
        inline.run(&|id| {
            assert_eq!(id, 0);
            assert_eq!(std::thread::current().id(), caller);
        });
        inline.parallel_chunks(100, 7, &|worker, _| {
            assert_eq!(worker, 0);
            assert_eq!(std::thread::current().id(), caller);
        });

        let pool = ThreadPool::new(3);
        let ids = Mutex::new(vec![None; 3]);
        pool.run(&|id| ids.lock()[id] = Some(std::thread::current().id()));
        let ids: Vec<_> = ids.into_inner().into_iter().map(Option::unwrap).collect();
        assert_eq!(ids[0], caller);
        assert!(ids[1] != caller && ids[2] != caller && ids[1] != ids[2]);
    }

    #[test]
    fn a_caller_panic_unwinds_after_the_spawned_workers_return() {
        // The caller panics only once worker 1 is inside the closure, which
        // then outlasts the caller's share by ~20 ms.
        let pool = ThreadPool::new(2);
        let inside = std::sync::Barrier::new(2);
        let finished = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|id| {
                inside.wait();
                if id == 0 {
                    panic!("caller boom");
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                finished.store(true, Ordering::SeqCst);
            });
        }));
        assert!(result.is_err());
        assert!(finished.load(Ordering::SeqCst));
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.workers(), 1);
        let counter = AtomicUsize::new(0);
        pool.run(&|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }
}
