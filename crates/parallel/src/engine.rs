//! Multi-threaded WHT execution over compiled pass schedules.
//!
//! The WHT package shipped pthread/OpenMP variants that parallelize the
//! loop nest of Equation 1. This module reproduces that scheme on top of
//! the compiled-plan layer: the plan is flattened into its (possibly
//! fused) super-pass schedule (`wht_core::compile`) and every super-pass
//! is distributed over worker threads, with a barrier ordering each
//! cross-unit dependence. That strictly generalizes the package's
//! "parallel outer loop" strategy — the interpreter could only shard the
//! top-level split's passes and ran nested recursions sequentially inside
//! each worker; compiled schedules expose all passes as flat, fully
//! shardable grids.
//!
//! ## One dispatch path
//!
//! Every parallel replay is a [`WorkerPool`] dispatch
//! ([`par_apply_compiled_on`] / [`par_apply_batch_on`]): zero spawn/join
//! per call on a persistent crew, per-worker scratch arenas cached across
//! calls (the warm path allocates nothing), and a panicking worker
//! surfaces [`WhtError::WorkerPanicked`] instead of deadlocking.
//! [`par_apply_compiled`] and [`par_apply_batch`] only pick the pool: the
//! process-global one when `threads` fits its crew, otherwise a per-call
//! `WorkerPool::new(threads)` — so `Threads(k)` always means a crew of
//! `k`, sharding the same `Unit` list through the same claiming protocol
//! (`run_units`), and output is bit-identical whatever the crew size and
//! to sequential execution.
//!
//! ## Units of work
//!
//! The engine walks the lowered schedule once, in order, and turns every
//! super-pass into barrier-separated units; each unit splits into
//! *claims*, the pieces of work a worker takes. The lowering pipeline is
//! the only place a schedule is cut into pieces: the engine claims the
//! tiles the stages cut and adds no rule of its own about what runs
//! chunk by chunk. Workers always run the kernel backend the sequential
//! replay picked (`PassBackend`, recorded in the schedule), so opting a
//! process into or out of SIMD changes sequential and parallel execution
//! together.
//!
//! * A super-pass with **two or more tiles** is one **tile unit**: claim
//!   `j` is tile `j`, run by `SuperPass::apply_tile`, the call sequential
//!   replay makes for the same tile. A fused tile runs all its parts
//!   while it stays cache-hot on the claiming worker, so the parallel
//!   engine inherits the fusion layer's locality. A column tail's tile is
//!   a chunk of residues mod its period `P`: the claiming worker runs
//!   every in-place part over it with no barrier between parts, so a
//!   large-stride tail costs one barrier and one cache-resident sweep per
//!   chunk instead of one barrier and one full sweep per pass. A tile
//!   unit keeps its tiles even when there are fewer of them than
//!   workers: replaying a fused unit pass-major would cost one barrier
//!   and one sweep per factor.
//! * A **one-tile** super-pass runs each part, in order, as a **pass
//!   unit** of its own, replayed as the part's flat, in-place factor
//!   (`SuperPass::flat_pass`): claim `i` is a contiguous range of
//!   invocations (one invocation is one codelet call at one grid point)
//!   covering at least 2^14 elements (128 KiB of `f64`s) unless the whole
//!   pass is smaller. On the lane backend a claim's partial rows run as
//!   one `apply_codelet_cols` call each and its whole rows as one
//!   `apply_pass_lanes` call; the scalar backend runs the codelet loop.
//!
//! Claim order never changes the butterflies an element sees or their
//! order, so output stays bit-identical to sequential execution.
//!
//! ## Stable shard ranges and stealing
//!
//! Within every unit, worker `w` of `k` owns the stable claim range
//! `[w·count/k, (w+1)·count/k)` — the same range for the same worker
//! across calls, so on a NUMA host the pages a worker first touched
//! stay the pages it keeps touching (first-touch locality). It takes its
//! claims a quarter of its range at a time. A worker that drains its own
//! range steals from the next workers' ranges (wrap-around), so skew
//! never idles the crew; steals are counted into the pool's
//! [`PoolStats`](crate::pool::PoolStats). Claim order never affects
//! output — the claims of a unit are write-disjoint.
//!
//! ## Safety argument
//!
//! Within one flat pass `(k, r, s)`, invocation `(j, t)` touches exactly
//! the elements `{ j·2^k·s + t + u·s : u < 2^k }`. Two distinct
//! invocations differ in `j` (disjoint `2^k·s`-aligned blocks) or in `t`
//! (distinct residues mod `s`), so their element sets are disjoint, and
//! so are the contiguous invocation ranges of a pass unit's claims.
//! Distinct *tiles* of one super-pass are disjoint contiguous blocks by
//! the schedule invariants (`CompiledPlan::verify`); the parts within a
//! claimed tile run sequentially on the claiming worker.
//!
//! A column tail's chunk claims need one more fact, the **mod-`P`
//! closure**: every part of the tail has an in-place stride `s = m·P`, so
//! each element `j·2^k·s + t + u·s` it touches is congruent to `t` mod
//! `P`. Every part therefore maps each residue class mod `P` onto itself,
//! the chunks (disjoint residue ranges) stay write-disjoint across *all*
//! parts of the tail, and no barrier is needed between them. Each chunk
//! still sees its parts in schedule order, so every column gets the same
//! butterflies in the same order as sequentially. `verify` proves the
//! closure for every column tail, and column tails are the only units
//! cut into chunks.
//!
//! Distributing disjoint claims over threads is race-free even though
//! the *slices* overlap; a raw pointer wrapper carries the buffer across
//! the workers (the pool's blocked-dispatcher protocol bounds every
//! worker access by the buffer's lifetime). The barrier between units
//! orders every cross-unit dependence, and the dispatcher's wait for the
//! crew to drain orders the last unit before the call returns.
//!
//! Because each worker runs the same codelet on the same values as the
//! sequential schedule, parallel output is **bit-identical** to
//! sequential output — property-tested in `tests/proptests.rs` (fused
//! tiles, column tails and pass units, batch; global-pool, per-call-pool,
//! and sequential against each other).
//!
//! ## Batched execution
//!
//! A **batch** of adjacent transforms ([`par_apply_batch`]) shards by
//! *row block* instead: rows are independent transforms, so the batch
//! splits into per-worker contiguous row chunks aligned to the lane-group
//! width `T::LANES` (the unit `CompiledPlan::apply_batch` transposes at a
//! time) and each worker replays its chunk through
//! `apply_batch_in` with private scratch — no barriers at all,
//! since no pass crosses a row boundary. Alignment keeps every lane
//! group's membership identical to the sequential batch replay, so output
//! is bit-identical whatever the thread count.

use crate::pool::{scratch_words, PoisonBarrier, PoisonOnPanic, WorkerPool};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use wht_core::{CompiledPlan, Pass, PassBackend, Plan, Scalar, SuperPass, WhtError};

/// Raw-pointer wrapper that lets worker threads write disjoint element
/// sets of one buffer.
struct SendPtr<T>(*mut T);
// SAFETY: the wrapper is only ever used under a protocol that bounds the
// workers' use by the buffer's lifetime (the pool dispatcher blocking
// until its generation drains), and the sharding protocol (verified
// write-disjointness of schedule units / lane-aligned row chunks) means
// no two threads touch the same element.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: shared references to the wrapper only hand out the raw pointer;
// all dereferences go through the per-thread disjoint slices below.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Number of worker threads to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads(pub usize);

impl Default for Threads {
    fn default() -> Self {
        Threads(wht_core::env::threads())
    }
}

/// Fewest elements one claim of a pass unit covers, unless the pass is
/// smaller (module docs' "Units of work"). On a 2-vCPU Xeon, claims of
/// one 8-column lane block each (one kernel call per claim) ran 2-worker
/// replay of `Plan::iterative(n)` at n = 18–22 slower than one thread.
/// Claims of at least 2^14 elements (128 KiB of `f64`s) keep both the
/// claim protocol and the kernel calls far from that shape; the value
/// was not tuned.
const MIN_CLAIM: usize = 1 << 14;

/// One flat (whole-vector, in-place) factor of a one-tile unit, and
/// whether it runs on the lane kernels.
#[derive(Debug, Clone, Copy)]
struct FlatPass {
    pass: Pass,
    /// `PassBackend::Lanes` at unit global stride.
    lanes: bool,
}

impl FlatPass {
    fn of(sp: &SuperPass, p: usize) -> FlatPass {
        let pass = sp.flat_pass(p);
        FlatPass {
            pass,
            lanes: sp.backend() == PassBackend::Lanes && pass.stride == 1,
        }
    }

    /// Run columns `t0 .. t0 + cols` of row `j` of the pass: one
    /// `apply_codelet_cols` call on the lane backend, the scalar codelet
    /// loop otherwise.
    ///
    /// # Safety
    /// `j < pass.r`, `t0 + cols <= pass.s`, and `data` holds the vector
    /// the (verified, whole-vector) pass was built for.
    unsafe fn run_fragment<T: Scalar>(&self, data: &mut [T], j: usize, t0: usize, cols: usize) {
        let p = self.pass;
        let start = p.invocation_base(j * p.s + t0);
        if self.lanes {
            // SAFETY: stride == 1, so the fragment's last element is
            // start + cols - 1 + (2^k - 1)·s <= the row's last element,
            // inside the vector (caller contract).
            unsafe { wht_core::apply_codelet_cols(p.k, data, start, p.s, cols) };
        } else {
            for t in 0..cols {
                // SAFETY: invocation j·s + t0 + t of the pass, in bounds
                // by the caller contract.
                unsafe {
                    wht_core::codelets::apply_codelet(
                        p.k,
                        data,
                        start + t * p.stride,
                        p.codelet_stride(),
                    )
                };
            }
        }
    }

    /// Run invocations `q0 .. q1` of the pass: a partial first row and a
    /// partial last row as one fragment each, the whole rows between as
    /// one `apply_pass_lanes` call on the lane backend.
    ///
    /// # Safety
    /// `q0 <= q1 <= pass.invocations()`, and `data` holds the vector the
    /// (verified, whole-vector) pass was built for.
    unsafe fn run_invocations<T: Scalar>(&self, data: &mut [T], q0: usize, q1: usize) {
        let p = self.pass;
        let mut q = q0;
        while q < q1 {
            let (j, t) = (q / p.s, q % p.s);
            let rows = if t == 0 { (q1 - q) / p.s } else { 0 };
            if self.lanes && rows > 0 {
                // SAFETY: rows j .. j + rows are whole rows of the pass,
                // inside the vector; stride == 1 for a lane pass.
                unsafe { wht_core::apply_pass_lanes(p.k, data, p.invocation_base(q), rows, p.s) };
                q += rows * p.s;
            } else {
                let cols = (p.s - t).min(q1 - q);
                // SAFETY: j < r and t + cols <= s since q < q1 <= r·s.
                unsafe { self.run_fragment(data, j, t, cols) };
                q += cols;
            }
        }
    }
}

/// One barrier-separated work unit of a lowered schedule (module docs'
/// "Units of work").
enum Unit<'a> {
    /// Claim indices are tile numbers of a super-pass with two or more
    /// tiles: fused tiles, or a column tail's chunks.
    Tiles(&'a SuperPass),
    /// One flat pass in `claims` contiguous invocation ranges: claim `i`
    /// is invocations `[i·len, (i+1)·len)` with `len = invocations /
    /// claims`, the last claim taking any remainder.
    Pass { flat: FlatPass, claims: usize },
}

impl Unit<'_> {
    fn count(&self) -> usize {
        match self {
            Unit::Tiles(sp) => sp.tiles(),
            Unit::Pass { claims, .. } => *claims,
        }
    }

    /// Execute claim `i` of this unit on `data`.
    ///
    /// # Safety
    /// `i < self.count()` and `data` holds the full transform the
    /// schedule was compiled for.
    unsafe fn exec<T: Scalar>(&self, data: &mut [T], i: usize) {
        match self {
            // SAFETY: i < count = tiles() and the buffer holds the full
            // transform the verified schedule was built for (caller
            // contract).
            Unit::Tiles(sp) => unsafe { sp.apply_tile(data, i) },
            Unit::Pass { flat, claims } => {
                let inv = flat.pass.invocations();
                let len = inv / claims;
                let end = if i + 1 == *claims { inv } else { (i + 1) * len };
                // SAFETY: i·len <= end <= invocations; data per the
                // caller contract.
                unsafe { flat.run_invocations(data, i * len, end) };
            }
        }
    }
}

/// Lower the compiled schedule into barrier-separated work units, in
/// schedule order (module docs' "Units of work"): a super-pass with two
/// or more tiles is one tile unit; every part of a one-tile super-pass is
/// a pass unit of claims covering at least `min_claim` elements.
fn build_units(compiled: &CompiledPlan, min_claim: usize) -> Vec<Unit<'_>> {
    let mut units = Vec::new();
    for sp in compiled.super_passes() {
        if sp.tiles() > 1 {
            units.push(Unit::Tiles(sp));
            continue;
        }
        for p in 0..sp.parts().len() {
            let flat = FlatPass::of(sp, p);
            units.push(Unit::Pass {
                flat,
                claims: (flat.pass.span() / min_claim).clamp(1, flat.pass.invocations()),
            });
        }
    }
    units
}

/// Worker `owner`'s stable claim range within a unit of `count` claims:
/// `[owner·count/k, (owner+1)·count/k)`. Deterministic in `(owner, k,
/// count)`, so the same worker touches the same shard across passes and
/// calls (first-touch locality — module docs).
fn shard_range(owner: usize, workers: usize, count: usize) -> (usize, usize) {
    (owner * count / workers, (owner + 1) * count / workers)
}

/// One worker's replay of the whole unit list: claim chunks from the
/// worker's own stable range, steal from the rest of the crew once
/// drained, synchronize between units. There is no barrier after the
/// last unit: the dispatcher's wait for the crew to drain orders every
/// write before `WorkerPool::run` returns.
///
/// # Safety
/// `data` must hold the full transform the units were built for; every
/// participating worker must call this with the same
/// `units`/`counters`/`barrier` and a distinct `worker < workers`, and
/// `barrier` must have exactly `workers` parties; `counters` must be
/// fresh (all zero) per dispatch with one counter per worker per unit.
unsafe fn run_units<T: Scalar>(
    data: &mut [T],
    units: &[Unit<'_>],
    counters: &[Vec<AtomicUsize>],
    worker: usize,
    workers: usize,
    barrier: &PoisonBarrier,
    steals: &AtomicU64,
) {
    for (u, (unit, ctrs)) in units.iter().zip(counters).enumerate() {
        let count = unit.count();
        let mut stolen = 0u64;
        for v in 0..workers {
            let owner = (worker + v) % workers;
            let (base, end) = shard_range(owner, workers, count);
            if base == end {
                continue;
            }
            let rlen = end - base;
            let chunk = rlen.div_ceil(4).max(1);
            loop {
                let s = ctrs[owner].fetch_add(chunk, Ordering::Relaxed);
                if s >= rlen {
                    break;
                }
                if v > 0 {
                    stolen += 1;
                }
                for i in base + s..base + (s + chunk).min(rlen) {
                    // SAFETY: i < end <= count by the range arithmetic;
                    // data per this function's contract.
                    unsafe { unit.exec(data, i) };
                }
            }
        }
        if stolen != 0 {
            steals.fetch_add(stolen, Ordering::Relaxed);
        }
        // No worker may start unit u+1 before every worker has drained
        // unit u (the wait also publishes all writes). A `false` means a
        // crew member died — bail, the dispatcher reports the failure.
        if u + 1 < units.len() && !barrier.wait() {
            return;
        }
    }
}

/// Parallel in-place WHT: `x <- WHT(2^n) * x` with every compiled pass
/// distributed over `threads` workers.
///
/// The schedule comes from the calling thread's schedule cache
/// ([`wht_core::compiled_for`], the one `apply_plan` uses), so only the
/// first call per plan on a thread compiles it; every call still looks
/// the plan up there. Callers holding a [`CompiledPlan`] use
/// [`par_apply_compiled`].
///
/// Falls back to the sequential engine when the plan is a single leaf or
/// `threads.0 <= 1`.
///
/// # Errors
/// [`WhtError::LengthMismatch`] unless `x.len() == plan.size()`;
/// [`WhtError::InvalidConfig`] for zero threads.
pub fn par_apply_plan<T: Scalar>(
    plan: &Plan,
    x: &mut [T],
    threads: Threads,
) -> Result<(), WhtError> {
    if threads.0 == 0 {
        return Err(WhtError::InvalidConfig("threads must be >= 1".into()));
    }
    if x.len() != plan.size() {
        return Err(WhtError::LengthMismatch {
            expected: plan.size(),
            got: x.len(),
        });
    }
    if threads.0 == 1 || plan.is_leaf() {
        return wht_core::apply_plan(plan, x);
    }
    par_apply_compiled(&wht_core::compiled_for(plan), x, threads)
}

/// Parallel in-place WHT over an already-compiled schedule.
///
/// Crews up to the process-global [`WorkerPool`]'s size dispatch through
/// the pool (persistent workers, cached scratch — zero spawn/join);
/// larger crews dispatch through a per-call `WorkerPool::new(threads)`.
/// One thread runs the sequential engine directly.
///
/// # Errors
/// [`WhtError::LengthMismatch`] unless `x.len() == compiled.size()`;
/// [`WhtError::InvalidConfig`] for zero threads;
/// [`WhtError::WorkerPanicked`] if a pool worker died mid-schedule.
pub fn par_apply_compiled<T: Scalar>(
    compiled: &CompiledPlan,
    x: &mut [T],
    threads: Threads,
) -> Result<(), WhtError> {
    if threads.0 == 0 {
        return Err(WhtError::InvalidConfig("threads must be >= 1".into()));
    }
    if x.len() != compiled.size() {
        return Err(WhtError::LengthMismatch {
            expected: compiled.size(),
            got: x.len(),
        });
    }
    if threads.0 == 1 {
        return compiled.apply(x);
    }
    let global = WorkerPool::global();
    if threads.0 <= global.workers() {
        par_apply_compiled_on(global, compiled, x, threads)
    } else {
        par_apply_compiled_on(&WorkerPool::new(threads.0), compiled, x, threads)
    }
}

/// [`par_apply_compiled`] dispatched through an **explicit**
/// [`WorkerPool`]: the crew is `threads` capped at the pool's size.
///
/// # Errors
/// As [`par_apply_compiled`].
pub fn par_apply_compiled_on<T: Scalar>(
    pool: &WorkerPool,
    compiled: &CompiledPlan,
    x: &mut [T],
    threads: Threads,
) -> Result<(), WhtError> {
    if threads.0 == 0 {
        return Err(WhtError::InvalidConfig("threads must be >= 1".into()));
    }
    if x.len() != compiled.size() {
        return Err(WhtError::LengthMismatch {
            expected: compiled.size(),
            got: x.len(),
        });
    }
    let crew = threads.0.min(pool.workers());
    if crew == 1 {
        return compiled.apply(x);
    }
    run_on(pool, compiled, x, &build_units(compiled, MIN_CLAIM), crew)
}

/// Dispatch `units`, built from `compiled` for a crew of `crew`, on
/// `pool`.
fn run_on<T: Scalar>(
    pool: &WorkerPool,
    compiled: &CompiledPlan,
    x: &mut [T],
    units: &[Unit<'_>],
    crew: usize,
) -> Result<(), WhtError> {
    assert!(x.len() == compiled.size() && crew >= 1 && crew <= pool.workers());
    let counters: Vec<Vec<AtomicUsize>> = units
        .iter()
        .map(|_| (0..crew).map(|_| AtomicUsize::new(0)).collect())
        .collect();
    let barrier = PoisonBarrier::new(crew);
    let steals = AtomicU64::new(0);
    let ptr = SendPtr(x.as_mut_ptr());
    // Borrow the whole wrapper so the closure captures `&SendPtr<T>`
    // (not the raw field, which disjoint capture would otherwise grab).
    let ptr = &ptr;
    let len = x.len();
    let result = pool.run(&|w, _| {
        // Pool workers beyond the crew sit this dispatch out (the
        // barrier counts only the crew).
        if w >= crew {
            return;
        }
        // Armed before any work: a panic anywhere below poisons the
        // barrier so the rest of the crew bails instead of deadlocking.
        let _guard = PoisonOnPanic(&barrier);
        // SAFETY: each claim index is taken by exactly one worker;
        // distinct claims touch disjoint elements (module docs), all
        // within `len` (schedule invariant + the length check above);
        // the dispatcher blocks in `run` until the crew drains, so the
        // pointee outlives every access.
        let data = unsafe { std::slice::from_raw_parts_mut(ptr.0, len) };
        // SAFETY: data holds the full transform (length checked above),
        // counters are fresh with one per worker per unit, and the
        // barrier has exactly `crew` parties.
        unsafe { run_units(data, units, &counters, w, crew, &barrier, &steals) };
    });
    pool.add_steals(steals.load(Ordering::Relaxed));
    result
}

/// Lane-aligned contiguous row spans for a batch of `rows` rows over
/// `workers` workers: spans `0..workers-1` hold whole lane groups, the
/// last span absorbs the `rows % w` remainder — identical membership to
/// the sequential batch replay, whatever the crew size.
fn batch_spans(rows: usize, w: usize, workers: usize) -> Vec<(usize, usize)> {
    let groups = rows / w;
    let per = groups / workers;
    let extra = groups % workers;
    let mut spans = Vec::with_capacity(workers);
    let mut start = 0usize;
    for i in 0..workers {
        let chunk_rows = if i == workers - 1 {
            rows - start
        } else {
            (per + usize::from(i < extra)) * w
        };
        spans.push((start, chunk_rows));
        start += chunk_rows;
    }
    spans
}

/// Parallel in-place **batched** WHT over an already-compiled schedule:
/// `x` viewed as `rows` adjacent contiguous transforms of
/// `compiled.size()` elements, sharded over `threads` workers by
/// lane-aligned row chunks (module docs' "Batched execution"). Each chunk
/// replays [`CompiledPlan::apply_batch_in`] with per-worker
/// scratch, so the cross-transform lane path engages inside every chunk
/// exactly as it would sequentially, and output is bit-identical to
/// [`CompiledPlan::apply_batch`] on the whole batch.
///
/// Crews up to the process-global [`WorkerPool`]'s size dispatch through
/// the pool; larger crews through a per-call `WorkerPool::new(threads)`.
///
/// # Errors
/// [`WhtError::LengthMismatch`] unless `x.len() == rows *
/// compiled.size()`; [`WhtError::InvalidConfig`] for zero threads;
/// [`WhtError::WorkerPanicked`] if a pool worker died mid-batch.
pub fn par_apply_batch<T: Scalar>(
    compiled: &CompiledPlan,
    x: &mut [T],
    rows: usize,
    threads: Threads,
) -> Result<(), WhtError> {
    if threads.0 == 0 {
        return Err(WhtError::InvalidConfig("threads must be >= 1".into()));
    }
    let size = compiled.size();
    let expected = rows.saturating_mul(size);
    if x.len() != expected {
        return Err(WhtError::LengthMismatch {
            expected,
            got: x.len(),
        });
    }
    // One lane group (or less) per worker cannot shard usefully; neither
    // can a single thread. The sequential batch path handles both.
    if threads.0 == 1 || rows < 2 * T::LANES {
        return compiled.apply_batch(x, rows);
    }
    let global = WorkerPool::global();
    if threads.0 <= global.workers() {
        par_apply_batch_on(global, compiled, x, rows, threads)
    } else {
        par_apply_batch_on(&WorkerPool::new(threads.0), compiled, x, rows, threads)
    }
}

/// [`par_apply_batch`] dispatched through an **explicit**
/// [`WorkerPool`]: the crew is `threads` capped at the pool's size.
///
/// # Errors
/// As [`par_apply_batch`].
pub fn par_apply_batch_on<T: Scalar>(
    pool: &WorkerPool,
    compiled: &CompiledPlan,
    x: &mut [T],
    rows: usize,
    threads: Threads,
) -> Result<(), WhtError> {
    if threads.0 == 0 {
        return Err(WhtError::InvalidConfig("threads must be >= 1".into()));
    }
    let size = compiled.size();
    let expected = rows.saturating_mul(size);
    if x.len() != expected {
        return Err(WhtError::LengthMismatch {
            expected,
            got: x.len(),
        });
    }
    let w = T::LANES;
    let crew = threads.0.min(pool.workers());
    if crew == 1 || rows < 2 * w {
        return compiled.apply_batch(x, rows);
    }
    let workers = crew.min(rows / w);
    let spans = batch_spans(rows, w, workers);
    let scratch_elems = compiled.batch_scratch_elems(w);
    let ptr = SendPtr(x.as_mut_ptr());
    // Borrow the whole wrapper so the closure captures `&SendPtr<T>`
    // (not the raw field, which disjoint capture would otherwise grab).
    let ptr = &ptr;
    pool.run(&|wid, arena| {
        let Some(&(start, chunk_rows)) = spans.get(wid) else {
            return;
        };
        if chunk_rows == 0 {
            return;
        }
        let scratch = scratch_words::<T>(arena, scratch_elems);
        // SAFETY: spans are disjoint contiguous row ranges covering
        // exactly `rows` rows (batch_spans), so every slice stays
        // inside the length-checked buffer and no two workers overlap;
        // the dispatcher blocks in `run` until the crew drains.
        let data =
            unsafe { std::slice::from_raw_parts_mut(ptr.0.add(start * size), chunk_rows * size) };
        compiled
            .apply_batch_in(data, chunk_rows, scratch)
            .expect("chunk geometry is exact by construction");
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wht_core::{apply_plan, max_abs_diff, naive_wht, CompiledPlan};

    /// A signal with no period: every residue class of every tail stride
    /// holds different values, so a skipped or misplaced butterfly shows.
    fn noise(n: u32) -> Vec<f64> {
        wht_core::testkit::random_signal(1 << n, u64::from(n))
    }

    #[test]
    fn parallel_matches_sequential() {
        for n in [4u32, 8, 12] {
            for plan in [
                Plan::iterative(n).unwrap(),
                Plan::right_recursive(n).unwrap(),
                Plan::left_recursive(n).unwrap(),
                Plan::balanced(n, 3).unwrap(),
            ] {
                let input = noise(n);
                let mut seq = input.clone();
                apply_plan(&plan, &mut seq).unwrap();
                for threads in [1usize, 2, 3, 8] {
                    let mut par = input.clone();
                    par_apply_plan(&plan, &mut par, Threads(threads)).unwrap();
                    assert_eq!(par, seq, "plan {plan}, {threads} threads");
                }
            }
        }
    }

    #[test]
    fn fused_parallel_matches_sequential_bit_for_bit() {
        use wht_core::{ExecPolicy, FusionPolicy};
        for n in [10u32, 13] {
            for plan in [Plan::iterative(n).unwrap(), Plan::balanced(n, 3).unwrap()] {
                let input = noise(n);
                for budget in [0usize, 1 << 4, 1 << 7, usize::MAX] {
                    let fused = CompiledPlan::compile_exec(
                        &plan,
                        &ExecPolicy::all_disabled().with_fusion(FusionPolicy::new(budget)),
                    );
                    let mut seq = input.clone();
                    fused.apply(&mut seq).unwrap();
                    for threads in [2usize, 3, 8] {
                        let mut par = input.clone();
                        par_apply_compiled(&fused, &mut par, Threads(threads)).unwrap();
                        assert_eq!(par, seq, "plan {plan}, budget {budget}, {threads} threads");
                    }
                }
            }
        }
    }

    #[test]
    fn fused_parallel_exact_on_both_sides_of_the_tile_sharding_threshold() {
        use wht_core::{ExecPolicy, FusionPolicy};
        // tiles = size / budget: with 8 workers, budget N/2 gives 2 tiles
        // (fewer tiles than workers, still sharded by tile) and budget
        // N/64 gives 64 tiles. Both must agree with sequential execution
        // exactly.
        let n = 14u32;
        let plan = Plan::iterative(n).unwrap();
        let input = noise(n);
        for budget in [1usize << (n - 1), 1 << (n - 6)] {
            let fused = CompiledPlan::compile_exec(
                &plan,
                &ExecPolicy::all_disabled().with_fusion(FusionPolicy::new(budget)),
            );
            assert!(fused.is_fused());
            let mut seq = input.clone();
            fused.apply(&mut seq).unwrap();
            let mut par = input.clone();
            par_apply_compiled(&fused, &mut par, Threads(8)).unwrap();
            assert_eq!(par, seq, "budget {budget}");
        }
    }

    #[test]
    fn simd_parallel_matches_sequential_bit_for_bit_in_both_sharding_regimes() {
        use wht_core::{ExecPolicy, FusionPolicy, SimdPolicy};
        // tiles = size / budget: with 8 workers, budget N/2 gives 2 tiles
        // and budget N/64 gives 64 tiles (both shard by tile); budget 0
        // leaves every pass a single-tile unit, so the whole schedule
        // runs as pass units. All must agree with the sequential SIMD
        // replay exactly, for floats and integers.
        let n = 13u32;
        for plan in [Plan::iterative(n).unwrap(), Plan::balanced(n, 4).unwrap()] {
            for budget in [0usize, 1 << (n - 1), 1 << (n - 6)] {
                let simd = CompiledPlan::compile_exec(
                    &plan,
                    &ExecPolicy::all_disabled()
                        .with_fusion(FusionPolicy::new(budget))
                        .with_simd(SimdPolicy::auto()),
                );
                assert!(simd.is_simd());
                let input = noise(n);
                let mut seq = input.clone();
                simd.apply(&mut seq).unwrap();
                for threads in [2usize, 3, 8] {
                    let mut par = input.clone();
                    par_apply_compiled(&simd, &mut par, Threads(threads)).unwrap();
                    assert_eq!(par, seq, "plan {plan}, budget {budget}, {threads} threads");
                }
                let ints: Vec<i32> = input.iter().map(|&v| v as i32).collect();
                let mut seq_i = ints.clone();
                simd.apply(&mut seq_i).unwrap();
                let mut par_i = ints;
                par_apply_compiled(&simd, &mut par_i, Threads(5)).unwrap();
                assert_eq!(par_i, seq_i, "plan {plan}, budget {budget} (i32)");
            }
        }
    }

    #[test]
    fn relayout_parallel_matches_sequential_bit_for_bit_in_both_sharding_regimes() {
        use wht_core::{ExecPolicy, FusionPolicy, RelayoutPolicy, SimdPolicy};
        // Fused head tile 2^6 at n = 14 leaves a column tail at period
        // 2^6 with 2^8-element columns. Chunk budget 2^9 gives cols 2 ->
        // 32 chunks, budget 2^12 cols 16 -> 4 chunks; the engine claims
        // the tail's chunks either way. Both must agree with the
        // sequential chunked replay exactly, scalar and SIMD, floats and
        // integers.
        let n = 14u32;
        for plan in [
            Plan::iterative(n).unwrap(),
            Plan::binary_iterative(n, 2).unwrap(),
        ] {
            for block_budget in [1usize << 9, 1 << 12] {
                for simd in [SimdPolicy::auto(), SimdPolicy::disabled()] {
                    let relaid = CompiledPlan::compile_exec(
                        &plan,
                        &ExecPolicy::all_disabled()
                            .with_fusion(FusionPolicy::new(1 << 6))
                            .with_relayout(RelayoutPolicy::new(block_budget))
                            .with_simd(simd),
                    );
                    assert!(relaid.has_relayout(), "plan {plan}");
                    let input = noise(n);
                    let mut seq = input.clone();
                    relaid.apply(&mut seq).unwrap();
                    for threads in [2usize, 3, 8] {
                        let mut par = input.clone();
                        par_apply_compiled(&relaid, &mut par, Threads(threads)).unwrap();
                        assert_eq!(
                            par, seq,
                            "plan {plan}, block budget {block_budget}, {threads} threads"
                        );
                    }
                    let ints: Vec<i64> = input.iter().map(|&v| v as i64).collect();
                    let mut seq_i = ints.clone();
                    relaid.apply(&mut seq_i).unwrap();
                    let mut par_i = ints;
                    par_apply_compiled(&relaid, &mut par_i, Threads(5)).unwrap();
                    assert_eq!(par_i, seq_i, "plan {plan} (i64)");
                }
            }
        }
    }

    #[test]
    fn recodeleted_parallel_matches_sequential_bit_for_bit_in_both_sharding_regimes() {
        use wht_core::{
            BatchPolicy, ExecPolicy, FusionPolicy, RecodeletPolicy, RelayoutPolicy, SimdPolicy,
            StreamPolicy,
        };
        // Same geometry as the column-tail test (32 chunks vs 4), but
        // lowered through the full pipeline so the tail replays merged
        // codelets: the parallel engine shards whatever units the lowered
        // schedule exposes — both must agree with the sequential
        // re-codeleted replay exactly.
        let n = 14u32;
        for plan in [
            Plan::iterative(n).unwrap(),
            Plan::binary_iterative(n, 2).unwrap(),
        ] {
            for block_budget in [1usize << 9, 1 << 12] {
                for simd in [SimdPolicy::auto(), SimdPolicy::disabled()] {
                    let lowered = CompiledPlan::compile(&plan).lower(&ExecPolicy {
                        fusion: FusionPolicy::new(1 << 6),
                        relayout: RelayoutPolicy::new(block_budget),
                        recodelet: RecodeletPolicy::default(),
                        simd,
                        batch: BatchPolicy::default(),
                        stream: StreamPolicy::disabled(),
                    });
                    assert!(
                        lowered.has_relayout() && lowered.has_recodeleted(),
                        "plan {plan}"
                    );
                    let input = noise(n);
                    let mut seq = input.clone();
                    lowered.apply(&mut seq).unwrap();
                    for threads in [2usize, 3, 8] {
                        let mut par = input.clone();
                        par_apply_compiled(&lowered, &mut par, Threads(threads)).unwrap();
                        assert_eq!(
                            par, seq,
                            "plan {plan}, block budget {block_budget}, {threads} threads"
                        );
                    }
                    let ints: Vec<i32> = input.iter().map(|&v| v as i32).collect();
                    let mut seq_i = ints.clone();
                    lowered.apply(&mut seq_i).unwrap();
                    let mut par_i = ints;
                    par_apply_compiled(&lowered, &mut par_i, Threads(5)).unwrap();
                    assert_eq!(par_i, seq_i, "plan {plan} (i32)");
                }
            }
        }
    }

    #[test]
    fn explicit_pool_overflow_crew_and_sequential_agree_bit_for_bit() {
        use wht_core::{ExecPolicy, FusionPolicy, RelayoutPolicy};
        // The same lowered schedule through an explicit 3-worker pool
        // and through the default entry point with up to 8 threads (past
        // the global crew on small hosts, so a per-call pool serves it):
        // both must agree with the sequential replay exactly.
        let pool = crate::pool::WorkerPool::new(3);
        let n = 14u32;
        for plan in [Plan::iterative(n).unwrap(), Plan::balanced(n, 3).unwrap()] {
            let lowered = CompiledPlan::compile(&plan).lower(&ExecPolicy {
                fusion: FusionPolicy::new(1 << 6),
                relayout: RelayoutPolicy::new(1 << 9),
                ..ExecPolicy::default()
            });
            let input = noise(n);
            let mut seq = input.clone();
            lowered.apply(&mut seq).unwrap();
            for threads in [2usize, 3, 7, 8] {
                let mut pooled = input.clone();
                par_apply_compiled_on(&pool, &lowered, &mut pooled, Threads(threads)).unwrap();
                let mut crew = input.clone();
                par_apply_compiled(&lowered, &mut crew, Threads(threads)).unwrap();
                assert_eq!(pooled, seq, "pooled vs sequential, {threads} threads");
                assert_eq!(crew, seq, "crew of {threads} vs sequential");
            }
        }
        assert!(pool.stats().jobs > 0);
    }

    #[test]
    fn warm_pooled_replay_is_zero_alloc_after_first_call() {
        // Second and later pooled dispatches of the same schedule reuse
        // each worker's arena: the stats stay consistent and repeated
        // replays agree with the first (a proxy for arena reuse that
        // stays robust without a counting allocator in this crate).
        use wht_core::{ExecPolicy, FusionPolicy, RelayoutPolicy};
        let pool = crate::pool::WorkerPool::new(2);
        let n = 13u32;
        let plan = Plan::iterative(n).unwrap();
        let lowered = CompiledPlan::compile(&plan).lower(&ExecPolicy {
            fusion: FusionPolicy::new(1 << 6),
            relayout: RelayoutPolicy::new(1 << 9),
            ..ExecPolicy::default()
        });
        let input = noise(n);
        let mut first = input.clone();
        par_apply_compiled_on(&pool, &lowered, &mut first, Threads(2)).unwrap();
        for _ in 0..10 {
            let mut again = input.clone();
            par_apply_compiled_on(&pool, &lowered, &mut again, Threads(2)).unwrap();
            assert_eq!(again, first);
        }
        assert_eq!(pool.stats().jobs, 11);
    }

    #[test]
    fn parallel_matches_naive() {
        let n = 10;
        let plan = Plan::balanced(n, 4).unwrap();
        let input = noise(n);
        let want = naive_wht(&input);
        let mut got = input;
        par_apply_plan(&plan, &mut got, Threads::default()).unwrap();
        assert!(max_abs_diff(&got, &want) < 1e-9);
    }

    #[test]
    fn precompiled_entry_point_agrees() {
        let n = 11;
        let plan = Plan::binary_iterative(n, 5).unwrap();
        let compiled = CompiledPlan::compile(&plan);
        let input = noise(n);
        let mut via_plan = input.clone();
        par_apply_plan(&plan, &mut via_plan, Threads(4)).unwrap();
        let mut via_compiled = input;
        par_apply_compiled(&compiled, &mut via_compiled, Threads(4)).unwrap();
        assert_eq!(via_plan, via_compiled);
    }

    #[test]
    fn leaf_plan_falls_back() {
        let plan = Plan::leaf(6).unwrap();
        let input = noise(6);
        let want = naive_wht(&input);
        let mut got = input;
        par_apply_plan(&plan, &mut got, Threads(4)).unwrap();
        assert!(max_abs_diff(&got, &want) < 1e-9);
    }

    #[test]
    fn errors() {
        let plan = Plan::iterative(4).unwrap();
        let mut short = vec![0.0f64; 8];
        assert!(par_apply_plan(&plan, &mut short, Threads(2)).is_err());
        let mut ok = vec![0.0f64; 16];
        assert!(par_apply_plan(&plan, &mut ok, Threads(0)).is_err());
        let compiled = CompiledPlan::compile(&plan);
        assert!(par_apply_compiled(&compiled, &mut short, Threads(2)).is_err());
        assert!(par_apply_compiled(&compiled, &mut ok, Threads(0)).is_err());
        let pool = crate::pool::WorkerPool::new(2);
        assert!(par_apply_compiled_on(&pool, &compiled, &mut short, Threads(2)).is_err());
        assert!(par_apply_compiled_on(&pool, &compiled, &mut ok, Threads(0)).is_err());
        assert!(par_apply_batch_on(&pool, &compiled, &mut ok, 1, Threads(0)).is_err());
        assert!(par_apply_batch(&compiled, &mut ok, 3, Threads(2)).is_err());
    }

    #[test]
    fn batched_parallel_matches_sequential_bit_for_bit() {
        use wht_core::{BatchPolicy, ExecPolicy};
        // Rows chosen to exercise every chunking regime: fewer rows than
        // one lane group per worker (sequential fallback), an exact
        // multiple of the widest lane width, and a ragged remainder.
        // The default entry point (global or per-call pool) and an
        // explicit pool must both agree with the sequential batch replay.
        let pool = crate::pool::WorkerPool::new(3);
        let n = 8u32;
        for plan in [Plan::iterative(n).unwrap(), Plan::balanced(n, 3).unwrap()] {
            let lowered = CompiledPlan::compile(&plan).lower(&ExecPolicy {
                batch: BatchPolicy::new(8),
                ..ExecPolicy::default()
            });
            assert!(lowered.is_batched(), "plan {plan}");
            for rows in [1usize, 7, 64, 131] {
                let input: Vec<f64> = wht_core::testkit::random_signal(rows << n, rows as u64);
                let mut seq = input.clone();
                lowered.apply_batch(&mut seq, rows).unwrap();
                for threads in [1usize, 2, 3, 8] {
                    let mut par = input.clone();
                    par_apply_batch(&lowered, &mut par, rows, Threads(threads)).unwrap();
                    assert_eq!(par, seq, "plan {plan}, rows {rows}, {threads} threads");
                    let mut pooled = input.clone();
                    par_apply_batch_on(&pool, &lowered, &mut pooled, rows, Threads(threads))
                        .unwrap();
                    assert_eq!(
                        pooled, seq,
                        "pooled: plan {plan}, rows {rows}, {threads} threads"
                    );
                }
                let ints: Vec<i32> = input.iter().map(|&v| v as i32).collect();
                let mut seq_i = ints.clone();
                lowered.apply_batch(&mut seq_i, rows).unwrap();
                let mut par_i = ints;
                par_apply_batch(&lowered, &mut par_i, rows, Threads(5)).unwrap();
                assert_eq!(par_i, seq_i, "plan {plan}, rows {rows} (i32)");
            }
        }
        // Geometry errors are rejected up front.
        let lowered =
            CompiledPlan::compile(&Plan::iterative(n).unwrap()).lower(&ExecPolicy::default());
        let mut bad = vec![0.0f64; (1 << n) + 1];
        assert!(par_apply_batch(&lowered, &mut bad, 1, Threads(2)).is_err());
        let mut ok = vec![0.0f64; 1 << n];
        assert!(par_apply_batch(&lowered, &mut ok, 1, Threads(0)).is_err());
    }

    #[test]
    fn integer_parallel_is_exact() {
        let n = 9;
        let plan = Plan::right_recursive(n).unwrap();
        let ints: Vec<i64> = (0..1i64 << n).map(|j| (j * 7 % 31) - 15).collect();
        let mut par = ints.clone();
        par_apply_plan(&plan, &mut par, Threads(6)).unwrap();
        let mut seq = ints;
        apply_plan(&plan, &mut seq).unwrap();
        assert_eq!(par, seq);
    }

    /// Elements each claim of `unit` covers.
    fn claim_elems(unit: &Unit<'_>) -> Vec<usize> {
        (0..unit.count())
            .map(|i| match unit {
                Unit::Tiles(sp) => sp.tile_elems(),
                Unit::Pass { flat, claims } => {
                    let inv = flat.pass.invocations();
                    let len = inv / claims;
                    let end = if i + 1 == *claims { inv } else { (i + 1) * len };
                    (end - i * len) << flat.pass.k
                }
            })
            .collect()
    }

    /// Every claim of every pass unit holds at least the claim floor,
    /// unless the unit itself is smaller.
    fn assert_claims_at_least(units: &[Unit<'_>], size: usize, floor: usize) {
        for (u, unit) in units.iter().enumerate() {
            if matches!(unit, Unit::Pass { .. }) {
                let claims = claim_elems(unit);
                assert_eq!(
                    claims.iter().sum::<usize>(),
                    size,
                    "unit {u} covers the vector"
                );
                if size >= floor {
                    assert!(
                        claims.iter().all(|&c| c >= floor),
                        "unit {u}: claims {claims:?} below the {floor}-element floor"
                    );
                }
            }
        }
    }

    #[test]
    fn canonical_schedules_shard_as_head_tiles_plus_one_column_tail() {
        use wht_core::ExecPolicy;
        // The default lowering of Plan::iterative(n) at n = 18 and 20 is a
        // fused head of 2^17-element tiles plus a tail at strides 2^17..:
        // one single-tile k = 1 pass at n = 18, a column tail (one merged
        // small[3]) at n = 20. The head shards by tile and the tail is one
        // unit, whatever the crew: the pass's invocation ranges at n = 18,
        // the column tail's own chunks at n = 20.
        let pools = [
            crate::pool::WorkerPool::new(2),
            crate::pool::WorkerPool::new(3),
        ];
        for n in [18u32, 20] {
            let lowered =
                CompiledPlan::compile(&Plan::iterative(n).unwrap()).lower(&ExecPolicy::default());
            let input = noise(n);
            let mut seq = input.clone();
            lowered.apply(&mut seq).unwrap();
            for pool in &pools {
                let crew = pool.workers();
                let units = build_units(&lowered, MIN_CLAIM);
                assert_eq!(units.len(), 2, "n = {n}, crew {crew}");
                let Unit::Tiles(head) = &units[0] else {
                    panic!("n = {n}, crew {crew}: the head does not shard by tile");
                };
                assert_eq!(head.tile_elems(), 1 << 17);
                match &units[1] {
                    Unit::Pass { flat, .. } if n == 18 => assert_eq!(flat.pass.s, 1 << 17),
                    Unit::Tiles(tail) if n == 20 => {
                        assert_eq!(tail.columns().map(|g| g.period), Some(1 << 17));
                    }
                    _ => panic!("n = {n}, crew {crew}: the tail is not one unit"),
                }
                assert_claims_at_least(&units, 1 << n, MIN_CLAIM);
                let mut par = input.clone();
                par_apply_compiled_on(pool, &lowered, &mut par, Threads(crew)).unwrap();
                assert_eq!(par, seq, "n = {n}, crew {crew}");
            }
        }
    }

    #[test]
    fn every_unit_is_claimed_at_its_lowered_geometry() {
        use wht_core::ExecPolicy;
        // The default lowering of Plan::iterative(n), n = 17..=24: one
        // tile unit per lowered unit with two or more tiles, carrying that
        // unit's own tile count (fused tiles or column-tail chunks), and
        // one pass unit per part of every one-tile unit, in schedule
        // order. The cut takes no crew: every crew of 2..=4 claims exactly
        // those tiles and ranges through its stable shard ranges.
        let mut tails = Vec::new();
        for n in 17u32..=24 {
            let lowered =
                CompiledPlan::compile(&Plan::iterative(n).unwrap()).lower(&ExecPolicy::default());
            let units = build_units(&lowered, MIN_CLAIM);
            let mut next = units.iter();
            for (i, sp) in lowered.super_passes().iter().enumerate() {
                if sp.tiles() > 1 {
                    match next.next() {
                        Some(Unit::Tiles(unit)) => {
                            assert!(std::ptr::eq(*unit, sp), "n = {n}, unit {i}");
                            assert_eq!(unit.tiles(), sp.tiles());
                        }
                        _ => panic!("n = {n}: unit {i} is not one tile unit"),
                    }
                    continue;
                }
                for p in 0..sp.parts().len() {
                    match next.next() {
                        Some(Unit::Pass { flat, claims }) => {
                            assert_eq!(flat.pass, sp.flat_pass(p), "n = {n}, unit {i}");
                            assert!(*claims >= 1 && *claims <= flat.pass.invocations());
                        }
                        _ => panic!("n = {n}: part {p} of unit {i} is not a pass unit"),
                    }
                }
            }
            assert!(next.next().is_none(), "n = {n}: units past the schedule");
            assert_claims_at_least(&units, 1 << n, MIN_CLAIM);
            for crew in 2..=4 {
                for unit in &units {
                    let claimed: usize = (0..crew)
                        .map(|w| {
                            let (base, end) = shard_range(w, crew, unit.count());
                            end - base
                        })
                        .sum();
                    assert_eq!(claimed, unit.count(), "n = {n}, crew {crew}");
                }
            }
            tails.push(
                units
                    .iter()
                    .skip(1)
                    .map(|u| match u {
                        Unit::Tiles(sp) => (sp.is_column_tail(), sp.tiles()),
                        Unit::Pass { claims, .. } => (false, *claims),
                    })
                    .collect::<Vec<_>>(),
            );
        }
        // The tails, pinned: at n = 18 one pass of 16 range claims, at
        // n = 20 and 22 a column tail of 8 and 32 chunks.
        assert_eq!(tails[1], [(false, 16)]);
        assert_eq!(tails[3], [(true, 8)]);
        assert_eq!(tails[5], [(true, 32)]);
    }

    #[test]
    fn unfused_passes_claim_contiguous_ranges_of_at_least_the_floor() {
        use wht_core::{ExecPolicy, SimdPolicy};
        // Unfused, every factor is a single-tile unit, so each becomes a
        // pass unit of several range claims.
        let pool = crate::pool::WorkerPool::new(3);
        let n = 16u32;
        for simd in [SimdPolicy::auto(), SimdPolicy::disabled()] {
            let lowered = CompiledPlan::compile(&Plan::iterative(n).unwrap())
                .lower(&ExecPolicy::all_disabled().with_simd(simd));
            let input = noise(n);
            let mut seq = input.clone();
            lowered.apply(&mut seq).unwrap();
            for crew in [2usize, 3] {
                let units = build_units(&lowered, MIN_CLAIM);
                let ranged = units
                    .iter()
                    .filter(|u| matches!(u, Unit::Pass { claims, .. } if *claims > 1))
                    .count();
                assert_eq!(ranged, n as usize, "crew {crew}");
                assert_eq!(units.len(), n as usize, "crew {crew}");
                assert_claims_at_least(&units, 1 << n, MIN_CLAIM);
                let mut par = input.clone();
                par_apply_compiled_on(&pool, &lowered, &mut par, Threads(crew)).unwrap();
                assert_eq!(par, seq, "{simd:?}, crew {crew}");
            }
        }
    }

    /// The race-detector target: small schedules on explicit pools with a
    /// fine claim floor, so one run covers all three claim shapes: fused
    /// tiles, column-tail chunks and multi-claim pass units. No global
    /// pool is touched (the pools are dropped and their workers joined).
    #[test]
    fn small_grain_sharding_matches_sequential_on_explicit_pools() {
        use wht_core::{ExecPolicy, FusionPolicy, RelayoutPolicy, SimdPolicy};
        fn check<T: Scalar>(pool: &WorkerPool, compiled: &CompiledPlan, crew: usize) -> Vec<u8> {
            let input: Vec<T> = wht_core::testkit::random_signal(compiled.size(), 7);
            let mut seq = input.clone();
            compiled.apply(&mut seq).unwrap();
            let units = build_units(compiled, FINE);
            let kinds = units
                .iter()
                .map(|u| match u {
                    Unit::Tiles(sp) => u8::from(sp.is_column_tail()),
                    Unit::Pass { claims, .. } => {
                        assert!(*claims > 1, "a pass unit of one claim");
                        2
                    }
                })
                .collect();
            let mut par = input;
            run_on(pool, compiled, &mut par, &units, crew).unwrap();
            assert_eq!(par, seq, "crew {crew}");
            kinds
        }
        const FINE: usize = 16;
        let n = 10u32;
        let plan = Plan::iterative(n).unwrap();
        let pool = crate::pool::WorkerPool::new(3);
        let mut seen = [false; 3];
        for simd in [SimdPolicy::disabled(), SimdPolicy::auto()] {
            for policy in [
                ExecPolicy::all_disabled(),
                ExecPolicy::all_disabled().with_fusion(FusionPolicy::new(1 << 6)),
                // A column tail of two 2^9-element chunks, claimed one
                // chunk at a time.
                ExecPolicy::all_disabled()
                    .with_fusion(FusionPolicy::new(1 << 6))
                    .with_relayout(RelayoutPolicy::new(1 << 9)),
            ] {
                let compiled = CompiledPlan::compile(&plan).lower(&policy.with_simd(simd));
                for crew in [2usize, 3] {
                    for kind in check::<f64>(&pool, &compiled, crew) {
                        seen[usize::from(kind)] = true;
                    }
                    check::<i32>(&pool, &compiled, crew);
                }
            }
        }
        assert_eq!(
            seen, [true; 3],
            "fused tiles, column-tail chunks, ranged passes"
        );
    }

    #[test]
    fn threads_default_respects_the_env_contract() {
        // Threads::default() routes through wht_core::env::threads —
        // the strict-parse WHT_THREADS knob (unit-tested there). Here:
        // it is at least 1 whatever the host.
        assert!(Threads::default().0 >= 1);
    }
}
