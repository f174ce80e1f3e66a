//! A zero-dependency work pool for the analysis fan-outs: the shared
//! two-level [`Pool`] (long-lived workers, many batches). It is the one
//! executor every analysis runs on — a one-shot
//! [`analyze_program`](crate::analyze_program) builds a pool for its own
//! run, while the corpus driver and the analysis server share one across
//! many programs or requests.
//!
//! [`Pool::map`] runs one closure per item and collects the results **in
//! item order** — callers merge per-pair results exactly as the
//! sequential loop would have produced them, independent of which worker
//! ran which item. A one-thread pool spawns nothing and runs that plain
//! loop inline. No external crates, per the hermetic-build policy.
//!
//! # The two-level scheme
//!
//! A [`Pool`] holds one FIFO queue of *batches*. Every [`Pool::map`]
//! call enqueues its batch and then **helps**: the submitting thread
//! claims chunks of its own batch alongside the pool workers, and only
//! sleeps once every chunk is claimed. Because workers pull from the
//! shared queue regardless of which `map` call enqueued a batch, an
//! outer batch of whole programs and the inner batches of one program's
//! analysis stages interleave on the same workers — a lone heavy
//! program (or a lone heavy server request) fans its pair chunks out to
//! every idle core instead of monopolizing one. Nesting cannot
//! deadlock: a `map` call only blocks after all of its chunks are
//! claimed, and a claimed chunk is by definition being executed by some
//! live thread.
//!
//! # Panic containment
//!
//! A panicking closure does not abort the batch or poison the pool:
//! every item runs under [`std::panic::catch_unwind`], the remaining
//! items complete, and the merge re-raises the panic of the smallest
//! failing index (after errors at smaller indices, matching the
//! sequential loop's ordering). Long-lived callers that must survive a
//! panic — the analysis server — catch it at their own boundary
//! instead.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::Result;

/// Poison-proof lock: a panic in some closure must not wedge the pool,
/// and every critical section here is a plain read/write with no
/// invariant that a mid-section panic could break.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Chunk size for a batch of `n` items on `executors` threads: small
/// batches split fine enough that every executor gets work (a 12-item
/// stage on 8 threads runs 12 chunks, not 2), while large batches keep
/// runs of up to 8 adjacent items per claim — adjacent pairs tend to
/// share canonical sub-problems, so locality helps the memo cache, and
/// the shared counter is touched once per chunk rather than once per
/// item. Result placement is by index, so chunking cannot affect the
/// output.
fn chunk_size(n: usize, executors: usize) -> usize {
    n.div_ceil(executors.saturating_mul(4).max(1)).clamp(1, 8)
}

/// How one item ended: the closure's result, or the payload of its
/// panic (re-raised by the merge).
enum Outcome<R> {
    Done(Result<R>),
    Panicked(Box<dyn Any + Send>),
}

/// One batch of work: the items, their result slots, and a shared claim
/// counter. Chunks of consecutive indices are claimed with one
/// `fetch_add`; a completion count under a mutex lets the submitting
/// thread sleep until the last chunk (possibly run by a pool worker)
/// finishes.
struct Batch<T, R, F> {
    items: Vec<Mutex<Option<T>>>,
    slots: Vec<Mutex<Option<Outcome<R>>>>,
    next: AtomicUsize,
    chunk: usize,
    done: Mutex<usize>,
    done_cv: Condvar,
    f: F,
}

impl<T, R, F> Batch<T, R, F>
where
    F: Fn(usize, T) -> Result<R>,
{
    fn new(work: Vec<T>, chunk: usize, f: F) -> Batch<T, R, F> {
        let n = work.len();
        Batch {
            items: work.into_iter().map(|t| Mutex::new(Some(t))).collect(),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            chunk,
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            f,
        }
    }

    /// Claims and runs one chunk. Returns `false` when no unclaimed
    /// chunk remained (claimed chunks may still be *running* on other
    /// threads — see [`Batch::wait_done`]).
    fn run_chunk(&self) -> bool {
        let n = self.items.len();
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= n {
            return false;
        }
        let end = (start + self.chunk).min(n);
        for i in start..end {
            let item = lock(&self.items[i])
                .take()
                .expect("work item claimed twice");
            let out = catch_unwind(AssertUnwindSafe(|| (self.f)(i, item)));
            *lock(&self.slots[i]) = Some(match out {
                Ok(r) => Outcome::Done(r),
                Err(payload) => Outcome::Panicked(payload),
            });
        }
        let mut done = lock(&self.done);
        *done += end - start;
        if *done == n {
            self.done_cv.notify_all();
        }
        true
    }

    /// Blocks until every item of the batch has completed.
    fn wait_done(&self) {
        let mut done = lock(&self.done);
        while *done < self.items.len() {
            done = self.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Deterministic merge: walk the slots in item order; the first
    /// error or panic encountered is the one the sequential loop would
    /// have surfaced first.
    fn merge(self) -> Result<Vec<R>> {
        let mut results = Vec::with_capacity(self.slots.len());
        for slot in self.slots {
            let out = slot
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("worker pool exited with an unfilled slot");
            match out {
                Outcome::Done(Ok(r)) => results.push(r),
                Outcome::Done(Err(e)) => return Err(e),
                Outcome::Panicked(payload) => resume_unwind(payload),
            }
        }
        Ok(results)
    }
}

/// The worker-facing view of a [`Batch`], type-erased so batches with
/// different `(T, R, F)` share one queue.
trait Chunked: Send + Sync {
    /// Claims and runs one chunk; `false` when nothing was left to
    /// claim.
    fn run_chunk(&self) -> bool;
    /// Whether an unclaimed chunk remains.
    fn has_work(&self) -> bool;
}

impl<T, R, F> Chunked for Batch<T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> Result<R> + Send + Sync,
{
    fn run_chunk(&self) -> bool {
        Batch::run_chunk(self)
    }

    fn has_work(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.items.len()
    }
}

/// The queue shared by all workers of one [`Pool`].
struct PoolQueue {
    batches: VecDeque<Arc<dyn Chunked>>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    available: Condvar,
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let batch = {
            let mut q = lock(&shared.queue);
            loop {
                // Exhausted batches at the front are done with the
                // queue (their submitter holds the results); drop our
                // reference so the submitting `map` can reclaim sole
                // ownership and return.
                while q.batches.front().is_some_and(|b| !b.has_work()) {
                    q.batches.pop_front();
                }
                if let Some(b) = q.batches.iter().find(|b| b.has_work()) {
                    break Arc::clone(b);
                }
                if q.shutdown {
                    return;
                }
                q = shared.available.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        while batch.run_chunk() {}
    }
}

/// A shared work pool with helping submitters: the two-level scheduler
/// behind every analysis — one program, a corpus, or the analysis
/// server. See the module docs for the scheme.
///
/// A `Pool::new(threads)` pool executes up to `threads` chunks
/// concurrently: `threads - 1` long-lived workers plus the thread
/// calling [`Pool::map`], which always helps with its own batch. The
/// pool is cheap to share (`map` takes `&self`) and joins its workers
/// on drop.
pub struct Pool {
    shared: Arc<PoolShared>,
    threads: usize,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// A pool executing up to `threads` chunks concurrently (`0` means
    /// one per available core). `threads <= 1` spawns no workers at
    /// all: every [`Pool::map`] then runs its batch sequentially on the
    /// calling thread.
    pub fn new(threads: usize) -> Pool {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                batches: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..threads.saturating_sub(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Pool {
            shared,
            threads,
            workers,
        }
    }

    /// The concurrency this pool was built for (workers + one helping
    /// submitter).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, fanning chunks out across the pool's
    /// workers *and* the calling thread, and returns the results in the
    /// original item order. Nested calls are the point: a task running
    /// on a pool worker may itself call `map`, and idle workers (or
    /// other submitters) steal its chunks.
    ///
    /// With one item (or a single-threaded pool) this is the plain
    /// sequential loop with short-circuiting; otherwise every item runs
    /// to completion and the error of the smallest failing index is
    /// reported — what the sequential loop would have surfaced. A
    /// panicking closure is re-raised after the batch completes,
    /// smallest index first.
    ///
    /// # Errors
    ///
    /// Propagates the first (lowest-index) error returned by `f`.
    pub fn map<T, R, F>(&self, work: Vec<T>, f: F) -> Result<Vec<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> Result<R> + Send + Sync,
    {
        let n = work.len();
        if self.threads <= 1 || n <= 1 {
            return work
                .into_iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        let batch = Arc::new(Batch::new(work, chunk_size(n, self.threads), f));

        // Type-erase the batch for the shared queue. The batch borrows
        // caller-stack data (`f`'s captures, the items), so the erased
        // handle must not outlive this call.
        //
        // SAFETY: the `'static` here is a promise that no other thread
        // touches the batch after `map` returns, upheld below:
        // * `wait_done` blocks until every item has run, after which
        //   `run_chunk`/`has_work` on this batch only read the atomic
        //   claim counter and the (owned, alive) item vector's length —
        //   never `f` or an item;
        // * the queue's reference is removed, and we then wait until
        //   this `Arc` is the *sole* owner, so by the time `map`
        //   returns no worker holds even a dangling-capable handle;
        // * no code between the enqueue and that wait can unwind: the
        //   closure's panics are caught inside `run_chunk`, and every
        //   lock here is poison-proof.
        let erased: Arc<dyn Chunked + '_> = Arc::clone(&batch) as _;
        let erased: Arc<dyn Chunked + 'static> = unsafe { std::mem::transmute(erased) };
        {
            let mut q = lock(&self.shared.queue);
            q.batches.push_back(erased);
        }
        self.shared.available.notify_all();

        // Help with our own batch, then sleep until chunks claimed by
        // workers finish.
        while batch.run_chunk() {}
        batch.wait_done();

        // Reclaim sole ownership (see SAFETY above). Workers drop their
        // clone right after the final `run_chunk` returns, so this spin
        // is a few scheduler ticks at most.
        {
            let mut q = lock(&self.shared.queue);
            let ours = Arc::as_ptr(&batch) as *const ();
            q.batches.retain(|b| Arc::as_ptr(b) as *const () != ours);
        }
        let mut batch = batch;
        let batch = loop {
            match Arc::try_unwrap(batch) {
                Ok(owned) => break owned,
                Err(still_shared) => {
                    batch = still_shared;
                    std::thread::yield_now();
                }
            }
        };
        batch.merge()
    }

    /// [`Pool::map`] for closures that cannot fail — the analysis
    /// server's batch fan-out, where every request produces a response.
    pub fn map_infallible<T, R, F>(&self, work: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Send + Sync,
    {
        self.map(work, |i, item| Ok(f(i, item)))
            .expect("infallible closure returned an error")
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut q = lock(&self.shared.queue);
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Error;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pool_map_preserves_item_order_at_every_thread_count() {
        for threads in [1, 2, 3, 8, 33] {
            let pool = Pool::new(threads);
            let out = pool
                .map((0..100).collect::<Vec<usize>>(), |i, x| {
                    assert_eq!(i, x);
                    Ok(x * 2)
                })
                .unwrap();
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
            let out = pool.map_infallible((0..50).collect(), |i, x: usize| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..50).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_map_handles_empty_and_tiny_batches() {
        let pool = Pool::new(4);
        let out: Vec<i32> = pool.map(Vec::<i32>::new(), |_, x| Ok(x)).unwrap();
        assert!(out.is_empty());
        // More threads than items.
        let pool = Pool::new(16);
        let out = pool.map(vec![1, 2, 3], |_, x| Ok(x + 1)).unwrap();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn pool_map_reports_the_lowest_index_error() {
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let err = pool
                .map((0..64).collect::<Vec<usize>>(), |_, x| {
                    if x == 7 || x == 40 {
                        Err(Error::Solver(omega::Error::TooComplex { budget: x }))
                    } else {
                        Ok(x)
                    }
                })
                .unwrap_err();
            assert!(
                matches!(err, Error::Solver(omega::Error::TooComplex { budget: 7 })),
                "threads={threads}: {err:?}"
            );
        }
    }

    #[test]
    fn small_batches_use_every_worker() {
        // The adaptive chunk size must split a 12-item batch on 8
        // threads into single-item chunks (the old fixed CHUNK=8 gave
        // only two workers anything to do).
        assert_eq!(chunk_size(12, 8), 1);
        assert_eq!(chunk_size(1000, 4), 8);
        assert_eq!(chunk_size(0, 4), 1);
        assert_eq!(chunk_size(64, 2), 8);
    }

    #[test]
    fn pool_map_nests() {
        // The two-level shape: an outer batch whose tasks each run an
        // inner batch on the same pool. Results must be deterministic
        // and correctly ordered at both levels.
        let pool = Pool::new(8);
        let out = pool
            .map((0..6).collect::<Vec<usize>>(), |_, outer| {
                let inner =
                    pool.map((0..20).collect::<Vec<usize>>(), |_, x| Ok(outer * 100 + x))?;
                Ok(inner.iter().sum::<usize>())
            })
            .unwrap();
        let expect: Vec<usize> = (0..6).map(|o| (0..20).map(|x| o * 100 + x).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn pool_panic_completes_the_batch_then_reraises() {
        let pool = Pool::new(4);
        let completed = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.map((0..64).collect::<Vec<usize>>(), |_, x| {
                if x == 13 {
                    panic!("injected panic at 13");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                Ok(x)
            })
        }));
        let payload = caught.expect_err("panic must propagate to the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "injected panic at 13");
        // Every other item ran to completion before the re-raise.
        assert_eq!(completed.load(Ordering::Relaxed), 63);
        // The pool survives for the next batch.
        let out = pool.map(vec![1, 2, 3], |_, x| Ok(x + 1)).unwrap();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn pool_new_resolves_zero_to_the_core_count() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Pool::new(0).threads(), cores);
        assert_eq!(Pool::new(3).threads(), 3);
    }
}
