//! Persistent scoped worker pool shared by every parallel kernel in the
//! workspace.
//!
//! The seed implementation spawned fresh `std::thread::scope` threads for
//! every parallel matmul and every fault campaign — tens of thousands of
//! spawns per detection sweep. This module replaces those with a single
//! process-wide pool of long-lived workers plus a *scoped* job protocol:
//! [`run`] fans `f(0..n_chunks)` out over the workers **and the calling
//! thread**, and does not return until every chunk has completed, so `f`
//! may freely borrow from the caller's stack exactly like
//! `std::thread::scope`.
//!
//! # Determinism contract
//!
//! Chunks are pure data-parallel units: which OS thread executes chunk
//! `i` is unspecified, so `f(i)` must depend only on `i` (plus captured
//! immutable state). Under that contract results are bit-identical
//! regardless of worker count, `HEALTHMON_THREADS`, or scheduling — the
//! property the campaign and kernel tests assert.
//!
//! # Nesting and panics
//!
//! Jobs may be submitted from worker threads (a campaign chunk calling a
//! parallel matmul): the inner caller always participates in its own job,
//! so progress never depends on free workers and the pool cannot
//! deadlock. A panicking chunk is caught, the remaining chunks still
//! complete, and the first panic payload (by completion order) is
//! re-raised on the calling thread once the job is done — workers never
//! die, and borrowed data is never used after the caller unwinds.
//!
//! # Stall story (deliberately timeout-free)
//!
//! The pool itself never kills a job: a chunk closure that spins forever
//! holds its worker forever. Adding timeouts *here* would break the
//! scoped-borrow safety argument (a chunk abandoned mid-execution could
//! touch caller stack memory after `run` returns), so stall handling is
//! layered instead:
//!
//! 1. **Visibility** — the `pool.jobs.inflight` gauge tracks jobs
//!    currently inside [`run`] (high-water via `set_max`), and the
//!    `pool.job_ns` histogram records each job's wall-clock duration
//!    from submission to completion. A hung device checkup shows up in
//!    `healthmon metrics` as a stuck non-zero inflight gauge and a
//!    missing final `pool.job_ns` sample long before anything is killed.
//! 2. **Enforcement** — deadline/timeout semantics live in the caller
//!    that owns the work's meaning: the fleet supervisor abandons a
//!    checkup attempt whose (virtual) stall exceeds its per-device
//!    deadline *before* the device transaction lands, then retries or
//!    quarantines. The pool stays simple and safe; policy stays where
//!    the domain knowledge is.

use healthmon_telemetry as tel;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

// Pool telemetry is all scheduling-dependent (which thread claims which
// chunk, how long the caller waits), so every metric here is Volatile:
// excluded from thread-count-invariance comparisons by construction.
static POOL_JOBS: tel::Counter = tel::Counter::new("pool.jobs", tel::Stability::Volatile);
static POOL_JOBS_INLINE: tel::Counter =
    tel::Counter::new("pool.jobs.inline", tel::Stability::Volatile);
static POOL_CHUNKS_CALLER: tel::Counter =
    tel::Counter::new("pool.chunks.caller", tel::Stability::Volatile);
static POOL_CHUNKS_WORKER: tel::Counter =
    tel::Counter::new("pool.chunks.worker", tel::Stability::Volatile);
static POOL_WAIT_NS: tel::Histogram =
    tel::Histogram::new("pool.wait_ns", tel::Stability::Volatile);
// Watchdog pair (see the module-level stall story): jobs currently
// inside `run`, and each job's submit-to-complete wall time. Gauges have
// no increment operation, so the live count rides in an atomic and the
// gauge snapshots it on every transition.
static POOL_INFLIGHT: tel::Gauge =
    tel::Gauge::new("pool.jobs.inflight", tel::Stability::Volatile);
static POOL_JOB_NS: tel::Histogram =
    tel::Histogram::new("pool.job_ns", tel::Stability::Volatile);
static INFLIGHT: AtomicUsize = AtomicUsize::new(0);

/// RAII guard for the inflight watchdog: counts a job in on creation and
/// out on drop (including the unwind path, so a re-raised chunk panic
/// cannot leak an inflight count).
struct InflightGuard {
    t0: Option<std::time::Instant>,
}

impl InflightGuard {
    fn enter() -> Self {
        let now = INFLIGHT.fetch_add(1, Ordering::Relaxed) + 1;
        POOL_INFLIGHT.set(now as f64);
        InflightGuard { t0: tel::enabled().then(std::time::Instant::now) }
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        let now = INFLIGHT.fetch_sub(1, Ordering::Relaxed) - 1;
        POOL_INFLIGHT.set(now as f64);
        POOL_JOB_NS.record_since(self.t0);
    }
}

/// The process-wide thread budget for parallel kernels.
///
/// Resolved once per process: the `HEALTHMON_THREADS` environment
/// variable when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`]. Every parallel entry point in
/// the workspace (matmul kernels, fault campaigns) derives its default
/// fan-out from this single cached lookup, so its first call is also
/// where the engine sets the process heap policy (`pin_heap_thresholds`).
pub fn max_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        pin_heap_thresholds();
        if let Ok(raw) = std::env::var("HEALTHMON_THREADS") {
            if let Ok(n) = raw.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

/// Fixes glibc's heap thresholds for the process; a no-op elsewhere.
///
/// Campaign, checkup and fleet loops build and drop megabytes of
/// model-sized buffers for every fault model or device: crossbar planes,
/// activations, fault-noise vectors, and in training the im2col matrix.
/// glibc's defaults adapt to allocation history: a buffer above a
/// threshold that tracks the largest mapping freed so far gets a fresh
/// mapping, and free memory above twice that threshold at the top of the
/// heap goes back to the kernel. Whether a loop re-faults its whole
/// working set on every model then depends on which buffers happened to
/// be freed before it started (DESIGN.md §6c and §8). Fixed thresholds,
/// above the largest per-model buffer (the crossbar planes and
/// activations in inference; convnet7's 5.9 MB im2col matrix at 10
/// samples in training), let every model reuse the same heap pages.
fn pin_heap_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only updates allocator parameters, under
        // glibc's own arena lock, and both values are in range.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 16 << 20);
            mallopt(M_TRIM_THRESHOLD, 64 << 20);
        }
    }
}

/// One in-flight job: a type-erased chunk closure plus claim/completion
/// counters.
struct Job {
    /// The chunk closure. The `'static` lifetime is a lie told by
    /// [`run`], which guarantees the borrow outlives every execution by
    /// blocking until `done == n_chunks`.
    task: &'static (dyn Fn(usize) + Sync),
    /// Next unclaimed chunk index.
    next: AtomicUsize,
    /// Total chunk count.
    n_chunks: usize,
    /// Completed chunk count, guarded for the completion condvar.
    done: Mutex<usize>,
    /// Signalled when `done` reaches `n_chunks`.
    done_cv: Condvar,
    /// First panic payload raised by a chunk, if any.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Pool state shared between the workers and submitting threads.
struct Shared {
    /// Jobs with potentially unclaimed chunks, oldest first.
    queue: Mutex<Vec<Arc<Job>>>,
    /// Signalled when a new job is pushed.
    work_cv: Condvar,
}

/// Claims and executes chunks of `job` until none remain unclaimed.
/// `chunk_counter` tallies chunk placement (caller vs worker threads) so
/// chunk imbalance is visible in telemetry.
fn execute(job: &Job, chunk_counter: &'static tel::Counter) {
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.n_chunks {
            return;
        }
        chunk_counter.inc();
        let outcome = catch_unwind(AssertUnwindSafe(|| (job.task)(i)));
        if let Err(payload) = outcome {
            let mut slot = job.panic.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut done = job.done.lock().unwrap();
        *done += 1;
        if *done == job.n_chunks {
            job.done_cv.notify_all();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue
                    .iter()
                    .find(|j| j.next.load(Ordering::Relaxed) < j.n_chunks)
                {
                    break job.clone();
                }
                queue = shared.work_cv.wait(queue).unwrap();
            }
        };
        execute(&job, &POOL_CHUNKS_WORKER);
    }
}

/// The lazily-started global pool. Workers are `max_threads() - 1`
/// detached threads; the submitting thread always acts as the final
/// worker for its own job.
fn shared() -> &'static Arc<Shared> {
    static POOL: OnceLock<Arc<Shared>> = OnceLock::new();
    POOL.get_or_init(|| {
        let shared = Arc::new(Shared { queue: Mutex::new(Vec::new()), work_cv: Condvar::new() });
        for w in 0..max_threads().saturating_sub(1) {
            let worker_shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("healthmon-pool-{w}"))
                .spawn(move || worker_loop(worker_shared))
                .expect("spawning a healthmon pool worker failed");
        }
        shared
    })
}

/// Runs `f(0)`, `f(1)`, …, `f(n_chunks - 1)` across the persistent pool
/// and the calling thread, returning once all chunks have completed.
///
/// `f` may borrow from the caller's stack: like `std::thread::scope`,
/// this function does not return (or unwind) while any chunk is still
/// executing. Chunk-to-thread assignment is unspecified; see the module
/// docs for the determinism contract.
///
/// # Panics
///
/// Re-raises the first panic observed among the chunks after every chunk
/// has finished.
pub fn run(n_chunks: usize, f: impl Fn(usize) + Sync) {
    if n_chunks == 0 {
        return;
    }
    let _watchdog = InflightGuard::enter();
    if n_chunks == 1 || max_threads() == 1 {
        // Inline path: same contract as the pooled path — every chunk
        // runs, and the first panic is re-raised only afterwards.
        POOL_JOBS_INLINE.inc();
        POOL_CHUNKS_CALLER.add(n_chunks as u64);
        let mut first_panic = None;
        for i in 0..n_chunks {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        return;
    }
    let task: &(dyn Fn(usize) + Sync) = &f;
    // SAFETY: `task` is only invoked by `execute`, every invocation
    // finishes before `done` reaches `n_chunks`, and this function does
    // not return or unwind until the completion wait below observes
    // `done == n_chunks` — so the erased borrow never outlives `f`.
    let task: &'static (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
    };
    let job = Arc::new(Job {
        task,
        next: AtomicUsize::new(0),
        n_chunks,
        done: Mutex::new(0),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
    });
    POOL_JOBS.inc();
    let shared = shared();
    shared.queue.lock().unwrap().push(job.clone());
    shared.work_cv.notify_all();
    // Participate: the caller is always one of the executors, so a job
    // completes even if every worker is busy with other jobs (including
    // nested jobs submitted from inside this one).
    execute(&job, &POOL_CHUNKS_CALLER);
    // Queue wait: how long the caller blocks on stragglers after running
    // out of chunks to claim itself.
    let wait_t0 = tel::enabled().then(std::time::Instant::now);
    let mut done = job.done.lock().unwrap();
    while *done < n_chunks {
        done = job.done_cv.wait(done).unwrap();
    }
    drop(done);
    POOL_WAIT_NS.record_since(wait_t0);
    let mut queue = shared.queue.lock().unwrap();
    if let Some(pos) = queue.iter().position(|j| Arc::ptr_eq(j, &job)) {
        queue.remove(pos);
    }
    drop(queue);
    let payload = job.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Raw-pointer wrapper that promises cross-thread use is sound because
/// [`run_chunks`] hands each chunk a disjoint region.
struct SharedMutPtr<T>(*mut T);
unsafe impl<T: Send> Sync for SharedMutPtr<T> {}

impl<T> SharedMutPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper instead of disjointly capturing the raw pointer.
    fn ptr(&self) -> *mut T {
        self.0
    }
}

/// Splits `items` into consecutive chunks of `chunk_len` elements (the
/// last may be shorter) and runs `f(chunk_index, chunk)` for each in
/// parallel on the pool.
///
/// This is the safe mutable-output entry point the matmul kernels and
/// fault campaigns build on: the chunks are disjoint `&mut` regions of
/// one allocation, so no locking is needed and results are independent
/// of how chunks are scheduled.
///
/// # Panics
///
/// Panics if `chunk_len` is zero; re-raises chunk panics like [`run`].
pub fn run_chunks<T, F>(items: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let len = items.len();
    if len == 0 {
        return;
    }
    let n_chunks = len.div_ceil(chunk_len);
    let base = SharedMutPtr(items.as_mut_ptr());
    run(n_chunks, move |ci| {
        let start = ci * chunk_len;
        let end = (start + chunk_len).min(len);
        // SAFETY: chunk `ci` covers [start, end) and chunks are disjoint
        // sub-ranges of `items`, which outlives `run` (it blocks until
        // all chunks complete).
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.ptr().add(start), end - start) };
        f(ci, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_covers_every_chunk_once() {
        let hits: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
        run(23, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {i} executed wrong number of times");
        }
    }

    #[test]
    fn run_zero_chunks_is_noop() {
        run(0, |_| panic!("must not be called"));
    }

    #[test]
    fn run_chunks_partitions_exactly() {
        let mut items = vec![0u32; 10];
        run_chunks(&mut items, 4, |ci, chunk| {
            let expected = if ci == 2 { 2 } else { 4 };
            assert_eq!(chunk.len(), expected);
            for v in chunk.iter_mut() {
                *v = ci as u32 + 1;
            }
        });
        assert_eq!(items, vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn nested_runs_complete() {
        let mut out = vec![0usize; 6];
        run_chunks(&mut out, 2, |outer, chunk| {
            let inner_sum = AtomicUsize::new(0);
            run(3, |i| {
                inner_sum.fetch_add(i + 1, Ordering::Relaxed);
            });
            for v in chunk.iter_mut() {
                *v = outer * 100 + inner_sum.load(Ordering::Relaxed);
            }
        });
        assert_eq!(out, vec![6, 6, 106, 106, 206, 206]);
    }

    #[test]
    fn panicking_chunk_is_reraised_after_completion() {
        let completed: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            run(5, |i| {
                completed[i].fetch_add(1, Ordering::Relaxed);
                if i == 2 {
                    panic!("chunk 2 exploded");
                }
            });
        }));
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "chunk 2 exploded");
        // Every chunk still ran exactly once despite the panic.
        for c in &completed {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn inflight_watchdog_drains_even_across_panics() {
        // A leak here would make the watchdog gauge cry wolf. Other
        // tests share the pool concurrently, so assert on drainage back
        // to the starting level rather than on an absolute zero.
        let before = INFLIGHT.load(Ordering::Relaxed);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            run(3, |i| {
                if i == 1 {
                    panic!("boom");
                }
            });
        }));
        run(4, |_| {});
        let t0 = std::time::Instant::now();
        while INFLIGHT.load(Ordering::Relaxed) > before && t0.elapsed().as_secs() < 10 {
            std::thread::yield_now();
        }
        assert!(
            INFLIGHT.load(Ordering::Relaxed) <= before,
            "inflight watchdog leaked a job"
        );
    }

    #[test]
    fn max_threads_is_stable_and_positive() {
        let a = max_threads();
        let b = max_threads();
        assert!(a >= 1);
        assert_eq!(a, b, "cached thread budget must not change between calls");
    }
}
