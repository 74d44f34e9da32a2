//! The executor's long-lived worker threads.
//!
//! A [`Pool`] owns `threads − 1` helper threads, spawned at its first multi-worker
//! batch and joined when the pool is dropped. [`Pool::broadcast`] runs one borrowed
//! closure on the calling thread and on up to `copies` helpers at once; the calling
//! thread is always one of the workers. When its own call returns it takes back every
//! copy no helper has claimed and waits for the claimed ones, so a batch completes
//! even when every helper is busy with another caller's batch or the caller is itself
//! a helper running a nested batch.
//!
//! Helpers living as long as their executor (rather than threads spawned per batch)
//! keep each thread's malloc arena stable across batches, which matters beside a live
//! tier's compactions: see `docs/ONLINE_UPDATES.md`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// A broadcast closure with the lifetime of its borrow erased (see the `SAFETY`
/// argument in [`Pool::broadcast`]).
type Work = &'static (dyn Fn() + Sync);

/// One queued copy of a broadcast closure.
struct Job {
    work: Work,
    batch: Arc<Batch>,
}

/// Completion state of one broadcast, shared by its caller and its claimed copies.
#[derive(Default)]
struct Batch {
    state: Mutex<BatchState>,
    finished: Condvar,
}

#[derive(Default)]
struct BatchState {
    /// Claimed copies that have returned or panicked.
    finished: usize,
    panicked: bool,
}

/// The job queue every helper of one pool waits on.
#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// A set of long-lived helper threads; see the module docs.
pub(crate) struct Pool {
    helpers: usize,
    shared: Arc<Shared>,
    handles: OnceLock<Vec<JoinHandle<()>>>,
}

/// The pool's locks guard only queue and counter updates, never user code, so their
/// state stays consistent even if a thread panicked while holding one.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    /// A pool of `helpers` threads, none spawned yet.
    pub(crate) fn new(helpers: usize) -> Self {
        Self { helpers, shared: Arc::default(), handles: OnceLock::new() }
    }

    /// Runs `work` on the calling thread and on up to `copies` helpers concurrently,
    /// and returns once every call has finished. `work` must share its work out
    /// itself (the executor's atomic cursor does); a copy no helper claimed before the
    /// caller's own call returned is never run.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the caller's own call after the claimed copies finished,
    /// and panics with `"batch worker thread panicked"` if a helper's call panicked
    /// (the helper itself survives and keeps serving).
    pub(crate) fn broadcast(&self, copies: usize, work: &(dyn Fn() + Sync)) {
        if copies == 0 {
            return work();
        }
        self.handles.get_or_init(|| {
            (0..self.helpers)
                .map(|i| {
                    let shared = Arc::clone(&self.shared);
                    std::thread::Builder::new()
                        .name(format!("p2h-engine-worker-{i}"))
                        .spawn(move || helper(&shared))
                        .expect("failed to spawn a batch worker thread")
                })
                .collect()
        });

        let batch = Arc::new(Batch::default());
        // SAFETY: `work` outlives every call made through `erased`. The only copies of
        // `erased` are the `copies` jobs pushed just below. A job leaves the queue
        // either through `Reclaim::drop`, which discards it uncalled, or through a
        // helper, which calls it and only afterwards counts it in `batch.finished`.
        // `Reclaim::drop` runs on every path out of this function — after the
        // caller's own call returns and while it unwinds — and blocks until every
        // job it did not take back has been counted. So no call through `erased` is
        // running or can start once this function returns or unwinds past `work`'s
        // borrow.
        let erased = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Work>(work) };
        lock(&self.shared.queue)
            .jobs
            .extend((0..copies).map(|_| Job { work: erased, batch: Arc::clone(&batch) }));
        let reclaim = Reclaim { shared: &self.shared, batch: &batch, queued: copies };
        for _ in 0..copies {
            self.shared.available.notify_one();
        }

        work();
        drop(reclaim);
        if lock(&batch.state).panicked {
            panic!("batch worker thread panicked");
        }
    }
}

/// Takes back a broadcast's unclaimed jobs and waits for its claimed ones, on drop —
/// so also when the caller's own call unwinds.
struct Reclaim<'a> {
    shared: &'a Shared,
    batch: &'a Arc<Batch>,
    queued: usize,
}

impl Drop for Reclaim<'_> {
    fn drop(&mut self) {
        let claimed = {
            let mut queue = lock(&self.shared.queue);
            let before = queue.jobs.len();
            queue.jobs.retain(|job| !Arc::ptr_eq(&job.batch, self.batch));
            self.queued - (before - queue.jobs.len())
        };
        let mut state = lock(&self.batch.state);
        while state.finished < claimed {
            state = self.batch.finished.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A helper's loop: claim a job, run it, count it finished; exit at shutdown.
fn helper(shared: &Shared) {
    loop {
        let Job { work, batch } = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.available.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // `work` is not touched again after this call: once `finished` counts it, the
        // broadcasting caller may return and end the borrow behind it.
        let panicked = catch_unwind(AssertUnwindSafe(work)).is_err();
        let mut state = lock(&batch.state);
        state.finished += 1;
        state.panicked |= panicked;
        drop(state);
        batch.finished.notify_all();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.available.notify_all();
        let current = std::thread::current().id();
        for handle in self.handles.take().into_iter().flatten() {
            // Never join the dropping thread itself: that join would wait forever. (A
            // helper only runs jobs of a broadcast that borrows this pool, so it is
            // not expected to drop it; if it does, it exits at its next shutdown
            // check.)
            if handle.thread().id() != current {
                // Helpers catch every job's panic, so the join cannot fail.
                let _ = handle.join();
            }
        }
    }
}
