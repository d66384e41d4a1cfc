//! Persistent worker pool.
//!
//! Spawning and joining a crew on **every** call is fine for one
//! n = 26 transform, ruinous for a replay service dispatching thousands
//! of LLC-resident transforms per second, where thread start-up dwarfs
//! the work itself. This module keeps one long-lived crew
//! ([`WorkerPool`]) parked on a condvar and dispatches each compiled
//! schedule to it as a single generation-stamped job: a dispatch is one
//! mutex acquisition and one broadcast, not `k` clone/spawn/join cycles.
//!
//! ## Dispatch protocol
//!
//! The caller erases its job closure to a raw wide pointer, stamps a new
//! generation, and blocks until every worker has run the job and
//! decremented the outstanding count — so the erased borrow never
//! outlives the closure, and `&mut` data captured by the job is never
//! touched after [`WorkerPool::run`] returns. Workers park on the
//! condvar between jobs; an idle pool burns no cycles.
//!
//! ## Per-worker scratch
//!
//! Each worker owns a `Vec<u64>` byte arena that survives across jobs
//! and is lent to every job it runs (`scratch_words` reinterprets it
//! as `&mut [T]` for the call's scalar type). After the first call at a
//! given size the warm path allocates **nothing** — the batch transpose
//! tile lives in the arena.
//!
//! ## Locality
//!
//! The engine shards every unit into **stable per-worker ranges** (worker
//! `w` always owns claim indices `[w·count/k, (w+1)·count/k)`), so across
//! passes and across calls the same worker touches the same shard of
//! the vector — first-touch page locality without OS pinning, which the
//! vendored dependency set cannot express (no `libc`).
//!
//! ## Failure containment
//!
//! Every job body runs under `catch_unwind`. A panicking worker marks
//! the generation poisoned and keeps serving later jobs (its scratch is
//! still valid — jobs never assume arena contents); the dispatcher maps
//! a poisoned generation to [`WhtError::WorkerPanicked`] instead of
//! deadlocking or aborting. Barrier-synchronized jobs bail through
//! `PoisonBarrier` so a panic on one worker releases the others.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use wht_core::{Scalar, WhtError};

/// Type-erased job: worker index plus the worker's persistent scratch
/// arena. The pointee lives on the dispatcher's stack; the dispatch
/// protocol (caller blocks until the generation drains) bounds every
/// dereference to the closure's real lifetime.
type Job = *const (dyn Fn(usize, &mut Vec<u64>) + Sync);

/// `Job` wrapped so it can live inside the pool's mutex-guarded state.
#[derive(Clone, Copy)]
struct JobPtr(Job);

// SAFETY: the pointer is only dereferenced by workers between the
// dispatch and drain of its generation, during which the dispatcher is
// blocked in `run` and the pointee (a `Sync` closure) is alive; sending
// the pointer across threads transfers no ownership.
unsafe impl Send for JobPtr {}

/// Mutex-guarded pool state: the current job slot and drain accounting.
struct State {
    /// Current generation's job, present from dispatch until drain.
    job: Option<JobPtr>,
    /// Generation stamp; workers run each generation exactly once.
    generation: u64,
    /// Workers still running the current generation.
    remaining: usize,
    /// Whether any worker panicked inside the current generation.
    panicked: bool,
    /// Tells parked workers to exit (pool drop).
    shutdown: bool,
    /// Total jobs dispatched (introspection).
    jobs: u64,
}

/// State shared between the pool handle and its workers.
struct Shared {
    state: Mutex<State>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// Dispatchers park here while a generation drains.
    done_cv: Condvar,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // A panic can never happen while the state lock is held (jobs
        // run unlocked), but stay robust if that ever regresses.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Snapshot of a pool's shape and activity, recorded alongside parallel
/// measurements so a replayed number carries the crew geometry that
/// produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Crew size.
    pub workers: usize,
    /// Jobs dispatched over the pool's lifetime.
    pub jobs: u64,
    /// Work-stealing claims: chunks a worker took from another worker's
    /// stable range after draining its own.
    pub steals: u64,
}

impl fmt::Display for PoolStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} workers, {} jobs, {} steals",
            self.workers, self.jobs, self.steals,
        )
    }
}

/// A persistent crew of worker threads executing type-erased jobs (see
/// the module docs for the protocol). Construct one explicitly with
/// [`WorkerPool::new`], or share the process-global lazily-built pool
/// ([`WorkerPool::global`]) the engine wrappers dispatch through.
pub struct WorkerPool {
    shared: std::sync::Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    steals: AtomicU64,
    /// Cached scratch arena for the single-worker inline dispatch path
    /// (the dispatcher runs the lone share itself — no cross-thread
    /// hop); its mutex also serializes concurrent inline dispatchers.
    inline_arena: Mutex<Vec<u64>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawn a pool of `workers` threads (clamped to at least 1),
    /// parked until the first [`WorkerPool::run`].
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = std::sync::Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                generation: 0,
                remaining: 0,
                panicked: false,
                shutdown: false,
                jobs: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wht-pool-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            steals: AtomicU64::new(0),
            inline_arena: Mutex::new(Vec::new()),
        }
    }

    /// The process-global pool, built on first use with
    /// [`wht_core::env::threads`] workers (`WHT_THREADS`, defaulting to
    /// all cores). Never dropped; its workers park between jobs.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(wht_core::env::threads()))
    }

    /// Crew size.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Snapshot the pool's shape and activity.
    pub fn stats(&self) -> PoolStats {
        let jobs = self.shared.lock().jobs;
        PoolStats {
            workers: self.workers(),
            jobs,
            steals: self.steals.load(Ordering::Relaxed),
        }
    }

    /// Credit `n` work-stealing claims to the lifetime counter (called
    /// by the engine wrappers after each dispatch).
    pub(crate) fn add_steals(&self, n: u64) {
        if n != 0 {
            self.steals.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Run `job` once on **every** worker (as `job(worker_index, &mut
    /// scratch_arena)`), blocking until all of them finish. Concurrent
    /// dispatchers serialize: a second `run` waits for the slot.
    ///
    /// # Errors
    /// [`WhtError::WorkerPanicked`] when any worker's job body panicked;
    /// the data the job was mutating is left in an unspecified (but
    /// initialized) state, and the pool itself stays serviceable.
    pub fn run(&self, job: &(dyn Fn(usize, &mut Vec<u64>) + Sync)) -> Result<(), WhtError> {
        // A single-worker crew needs no cross-thread hop: the dispatcher
        // runs the one share itself (same index, same cached-arena
        // contract), so dispatch costs a function call instead of two
        // scheduler round-trips — the difference between ~50 ns and
        // ~10 µs on a busy host.
        if self.handles.len() == 1 {
            return self.run_inline(job);
        }
        // SAFETY: only the lifetime is erased (reference and raw
        // pointer to the same dyn type share fat-pointer layout); this
        // function blocks below until `remaining == 0`, i.e. until no
        // worker will ever dereference the pointer again, so the pointee
        // outlives every use.
        let erased: JobPtr = JobPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize, &mut Vec<u64>) + Sync), Job>(job)
        });
        let workers = self.handles.len();
        let mut st = self.shared.lock();
        // Wait for the job slot (another dispatcher may be draining).
        while st.job.is_some() || st.remaining != 0 {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.job = Some(erased);
        st.generation += 1;
        st.remaining = workers;
        st.panicked = false;
        st.jobs += 1;
        self.shared.work_cv.notify_all();
        while st.remaining != 0 {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.job = None;
        let panicked = st.panicked;
        drop(st);
        // Free the slot for any waiting dispatcher.
        self.shared.done_cv.notify_all();
        if panicked {
            Err(WhtError::WorkerPanicked { workers })
        } else {
            Ok(())
        }
    }

    /// The single-worker dispatch path: run the job's one share on the
    /// calling thread with the pool's cached inline arena. The arena
    /// mutex serializes concurrent dispatchers (the same guarantee the
    /// job slot gives the parked-crew path).
    fn run_inline(&self, job: &(dyn Fn(usize, &mut Vec<u64>) + Sync)) -> Result<(), WhtError> {
        let mut arena = self
            .inline_arena
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        {
            let mut st = self.shared.lock();
            st.jobs += 1;
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(0, &mut arena)));
        match outcome {
            Ok(()) => Ok(()),
            Err(_) => Err(WhtError::WorkerPanicked { workers: 1 }),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker's lifetime: park, run each generation exactly once under
/// `catch_unwind`, report the drain, repeat until shutdown.
fn worker_loop(shared: &Shared, worker: usize) {
    let mut scratch: Vec<u64> = Vec::new();
    let mut seen: u64 = 0;
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    if let Some(job) = st.job {
                        seen = st.generation;
                        break job;
                    }
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // SAFETY: the dispatcher blocks until this generation drains,
        // so the pointee is alive for the duration of this call.
        let body = std::panic::AssertUnwindSafe(|| unsafe { (*job.0)(worker, &mut scratch) });
        let panicked = std::panic::catch_unwind(body).is_err();
        let mut st = shared.lock();
        if panicked {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// A barrier whose waiters can be released by a panicking participant:
/// [`PoisonBarrier::wait`] returns `false` once poisoned, telling the
/// worker to bail out of the schedule instead of deadlocking on a crew
/// member that will never arrive.
pub(crate) struct PoisonBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
    parties: usize,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

impl PoisonBarrier {
    pub(crate) fn new(parties: usize) -> PoisonBarrier {
        PoisonBarrier {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
            parties,
        }
    }

    /// Block until all parties arrive; `false` means the barrier was
    /// poisoned (by a panicking party) and the caller must bail.
    pub(crate) fn wait(&self) -> bool {
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if st.poisoned {
            return false;
        }
        st.arrived += 1;
        if st.arrived == self.parties {
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
            return !st.poisoned;
        }
        let gen = st.generation;
        while st.generation == gen && !st.poisoned {
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        !st.poisoned
    }

    /// Poison the barrier, releasing every waiter with `false`.
    pub(crate) fn poison(&self) {
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st.poisoned = true;
        self.cv.notify_all();
    }
}

/// Poisons `barrier` if the scope unwinds — arm one at the top of every
/// barrier-synchronized job body so a panic releases the rest of the
/// crew (the pool's `catch_unwind` then reports the generation).
pub(crate) struct PoisonOnPanic<'a>(pub(crate) &'a PoisonBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Reinterpret (a prefix of) a worker's persistent `u64` arena as `elems`
/// elements of `T`, growing the arena if needed — never shrinking, so
/// the warm path allocates nothing. Arena contents are *not* zeroed
/// between jobs; callers must treat the slice as uninitialized scratch
/// (every engine use writes before reading).
pub(crate) fn scratch_words<T: Scalar>(arena: &mut Vec<u64>, elems: usize) -> &mut [T] {
    const WORD: usize = std::mem::size_of::<u64>();
    debug_assert!(std::mem::align_of::<T>() <= std::mem::align_of::<u64>());
    let words = elems
        .saturating_mul(std::mem::size_of::<T>())
        .div_ceil(WORD);
    if arena.len() < words {
        arena.resize(words, 0);
    }
    // SAFETY: the arena holds at least `elems * size_of::<T>()` bytes,
    // `u64`'s alignment covers every `Scalar` type (all 4- or 8-byte
    // primitives), and any bit pattern is a valid `Scalar` (plain
    // number types), so the reinterpreted slice is fully initialized.
    unsafe { std::slice::from_raw_parts_mut(arena.as_mut_ptr().cast::<T>(), elems) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn display_mentions_the_key_fields() {
        let s = PoolStats {
            workers: 4,
            jobs: 17,
            steals: 3,
        }
        .to_string();
        assert_eq!(s, "4 workers, 17 jobs, 3 steals");
    }

    #[test]
    fn every_worker_runs_each_job_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run(&|_, _| {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 400);
        let stats = pool.stats();
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.jobs, 100);
    }

    #[test]
    fn scratch_arena_persists_across_jobs() {
        let pool = WorkerPool::new(2);
        pool.run(&|w, arena| {
            let s = scratch_words::<f64>(arena, 8);
            s.fill(w as f64 + 1.0);
        })
        .unwrap();
        // The arena (not its contents' meaning) survives; no realloc at
        // equal size, and the bytes written last job are still there.
        pool.run(&|w, arena| {
            assert!(arena.capacity() >= 8);
            let s = scratch_words::<f64>(arena, 8);
            assert_eq!(s[0], w as f64 + 1.0);
        })
        .unwrap();
    }

    #[test]
    fn panicking_worker_surfaces_a_typed_error_and_pool_recovers() {
        let pool = WorkerPool::new(3);
        let err = pool
            .run(&|w, _| {
                if w == 1 {
                    panic!("injected worker fault");
                }
            })
            .unwrap_err();
        assert_eq!(err, WhtError::WorkerPanicked { workers: 3 });
        assert!(err.to_string().contains("worker"), "{err}");
        // The crew keeps serving.
        let hits = AtomicUsize::new(0);
        pool.run(&|_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn panic_at_a_barrier_releases_the_crew() {
        // Two workers synchronize on a PoisonBarrier; one panics before
        // ever arriving. Without poisoning this deadlocks.
        let pool = WorkerPool::new(2);
        let barrier = PoisonBarrier::new(2);
        let err = pool
            .run(&|w, _| {
                let _guard = PoisonOnPanic(&barrier);
                if w == 0 {
                    panic!("die before the barrier");
                }
                assert!(!barrier.wait(), "poisoned barrier must release");
            })
            .unwrap_err();
        assert_eq!(err, WhtError::WorkerPanicked { workers: 2 });
    }

    #[test]
    fn drop_joins_every_worker_and_calls_leak_no_threads() {
        // Counts the pool's own crew, not the process's threads (sibling
        // tests spawn and join threads concurrently): every worker holds
        // one handle on the shared state, so its strong count is the
        // pool's own handle plus one per live worker.
        let pool = WorkerPool::new(3);
        for _ in 0..1000 {
            pool.run(&|_, _| {}).unwrap();
        }
        assert_eq!(
            std::sync::Arc::strong_count(&pool.shared),
            1 + 3,
            "1000 dispatches must not spawn extra workers"
        );
        let shared = std::sync::Arc::downgrade(&pool.shared);
        drop(pool);
        // Drop joined the crew: no worker holds the shared state anymore.
        assert!(shared.upgrade().is_none());
    }

    #[test]
    fn concurrent_dispatchers_serialize_cleanly() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        pool.run(&|_, _| {
                            hits.fetch_add(1, Ordering::Relaxed);
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4 * 50 * 2);
        assert_eq!(pool.stats().jobs, 200);
    }

    #[test]
    fn global_pool_is_shared_and_sized_by_env() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.workers() >= 1);
    }
}
