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
//! A **fused** super-pass with at least one tile per worker shards by
//! *tile*: a claimed tile runs all fused factors while cache-hot on the
//! claiming worker, so the parallel engine inherits the fusion layer's
//! locality win instead of re-interleaving the factors across threads.
//! With fewer tiles than workers (a single-tile super-pass, or huge
//! tiles), tile-sharding would idle most of the crew, so the engine
//! falls back to the unfused pass-major order and shards each factor
//! (`SuperPass::flat_pass`) — bit-identical output either way.
//!
//! Workers always run the **same kernel backend the sequential replay
//! picked** (`PassBackend`, recorded in the schedule): a claimed tile
//! replays through `SuperPass::apply_tile`, which dispatches on the
//! record, and the flat-pass fallback shards a `Lanes` pass by *lane
//! block* (one claim = one `W`-column block of one row, the SIMD kernel's
//! own unit of work — see `wht_core::codelets::apply_codelet_cols`)
//! instead of by scalar invocation, so opting a process into or out of
//! SIMD changes sequential and parallel execution together. Either way
//! the grouping performs the same adds/subs on the same values, so
//! output stays bit-identical to sequential execution.
//!
//! A **relayout** super-pass shards by *gathered block*: a claimed block
//! is gathered into the claiming worker's private scratch, streamed
//! through all tail factors, and scattered back
//! (`SuperPass::apply_gathered_block`) — blocks touch pairwise disjoint
//! column sets, so per-worker scratch is the only extra state. With
//! fewer blocks than workers the engine falls back to the relayout
//! unit's *in-place* flat passes (`SuperPass::flat_pass` maps scratch
//! parts back to the original large-stride factors), sharded like any
//! other pass — no gather, no starved workers, bit-identical output.
//!
//! ## Stable shard ranges and stealing
//!
//! Within every unit, worker `w` of `k` owns the stable claim range
//! `[w·count/k, (w+1)·count/k)` — the same range for the same worker
//! across passes **and across calls**, so on a NUMA host the pages a
//! worker first touched stay the pages it keeps touching (first-touch
//! locality). A worker that drains its own range steals chunks from the
//! next workers' ranges (wrap-around), so skew never idles the crew;
//! steals are counted into the pool's
//! [`PoolStats`](crate::pool::PoolStats).
//! Claim order never affects output — units are write-disjoint.
//!
//! ## Safety argument
//!
//! Within one pass, invocation `(j, t)` touches exactly the elements
//! `{ (j·2^k·s + t) + u·s : u < 2^k }`. Two distinct invocations differ in
//! `j` (disjoint `2^k·s`-aligned blocks) or in `t` (distinct residues mod
//! `s`), so their element sets are disjoint. Distinct *tiles* of one
//! super-pass are disjoint contiguous blocks by the schedule invariants
//! (`CompiledPlan::verify`), and the parts within a claimed tile run
//! sequentially on the claiming worker. Distributing disjoint units over
//! threads is race-free even though the *slices* overlap; a raw pointer
//! wrapper carries the buffer across the workers (the pool's
//! blocked-dispatcher protocol bounds every worker access by the
//! buffer's lifetime), and the barrier between units orders every
//! cross-unit dependence. A streamed relayout unit's non-temporal stores
//! are published by the `sfence` its scatter issues before the worker
//! reaches the barrier, so the ordering argument is unchanged.
//!
//! Because each worker runs the same codelet on the same values as the
//! sequential schedule (order within a unit is irrelevant: units are
//! disjoint), parallel output is **bit-identical** to sequential output —
//! property-tested in `tests/proptests.rs` (fused, relayout, batch;
//! global-pool, per-call-pool, and sequential against each other).
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
use wht_core::{CompiledPlan, Pass, Plan, Scalar, WhtError};

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

/// One barrier-separated work unit of a lowered schedule: fused
/// super-passes shard by tile, single-tile super-passes shard each
/// part's invocation grid (module docs).
enum Unit<'a> {
    /// Claim indices are tile numbers of the super-pass.
    Tiles(&'a wht_core::SuperPass),
    /// Claim indices are gathered-block numbers of a relayout
    /// super-pass; each claim gathers into the worker's scratch,
    /// transforms, and scatters back.
    GatheredBlocks(&'a wht_core::SuperPass),
    /// Claim indices are invocation numbers of the absolute pass
    /// (scalar-backend fallback).
    Invocations(Pass),
    /// Claim indices are lane blocks of the absolute unit-stride pass:
    /// index `i` is block `i % blocks_per_row` of row `i /
    /// blocks_per_row`, covering `width` columns (the last block of a
    /// row may be narrower). The lane-backend fallback: each claim
    /// runs the exact kernel unit the sequential SIMD replay runs.
    LaneBlocks {
        pass: Pass,
        blocks_per_row: usize,
        width: usize,
    },
}

impl Unit<'_> {
    fn count(&self) -> usize {
        match self {
            Unit::Tiles(sp) | Unit::GatheredBlocks(sp) => sp.tiles(),
            Unit::Invocations(pass) => pass.invocations(),
            Unit::LaneBlocks {
                pass,
                blocks_per_row,
                ..
            } => pass.r * blocks_per_row,
        }
    }

    /// Execute claim `i` of this unit on `data`.
    ///
    /// # Safety
    /// `i < self.count()`, `data` holds the full transform the schedule
    /// was compiled for, and for [`Unit::GatheredBlocks`] `scratch` holds
    /// at least the schedule's `scratch_elems()`.
    unsafe fn exec<T: Scalar>(&self, data: &mut [T], i: usize, scratch: &mut [T]) {
        match self {
            // SAFETY: i < count = tiles() and the buffer holds the full
            // transform (caller contract).
            Unit::Tiles(sp) => unsafe { sp.apply_tile(data, i) },
            // SAFETY: i < count = tiles(), scratch covers
            // scratch_elems(), and the buffer holds the full transform
            // (caller contract).
            Unit::GatheredBlocks(sp) => unsafe { sp.apply_gathered_block(data, i, scratch) },
            // SAFETY: i < count = invocations() and the buffer holds
            // the full transform (caller contract).
            Unit::Invocations(pass) => unsafe { pass.apply_invocation(data, i) },
            Unit::LaneBlocks {
                pass,
                blocks_per_row,
                width,
            } => {
                let row = i / blocks_per_row;
                let t0 = (i % blocks_per_row) * width;
                let cols = (*width).min(pass.s - t0);
                let block = (1usize << pass.k) * pass.s;
                // SAFETY: row < pass.r and t0 + cols <= pass.s, so the
                // block stays inside the pass span; pass.stride == 1 was
                // checked when the unit was built.
                unsafe {
                    wht_core::apply_codelet_cols(
                        pass.k,
                        data,
                        pass.base + row * block + t0,
                        pass.s,
                        cols,
                    )
                };
            }
        }
    }
}

/// The shared few-units-of-work fallback: replay the super-pass as its
/// flat (in-place, pass-major) factors, sharded per pass — by lane
/// block for a lane-backend unit-stride pass (every worker still runs
/// the kernel the schedule recorded), by scalar invocation otherwise.
/// Bit-identical output, no starved workers.
fn push_flat_parts<'a>(units: &mut Vec<Unit<'a>>, sp: &'a wht_core::SuperPass, width: usize) {
    for p in 0..sp.parts().len() {
        let pass = sp.flat_pass(p);
        if sp.backend() == wht_core::PassBackend::Lanes && pass.stride == 1 {
            units.push(Unit::LaneBlocks {
                pass,
                blocks_per_row: pass.s.div_ceil(width),
                width,
            });
        } else {
            units.push(Unit::Invocations(pass));
        }
    }
}

/// Lower the compiled schedule into barrier-separated work units for a
/// crew of `workers` (module docs' "Units of work").
fn build_units(compiled: &CompiledPlan, workers: usize, width: usize) -> Vec<Unit<'_>> {
    let mut units: Vec<Unit<'_>> = Vec::new();
    for sp in compiled.super_passes() {
        if sp.is_relayout() {
            if sp.tiles() >= workers {
                // Enough gathered blocks to keep the crew busy: shard by
                // block; each worker gathers into its own scratch, so the
                // fusion-grade locality of the relayouted tail survives
                // parallel execution.
                units.push(Unit::GatheredBlocks(sp));
            } else {
                // Too few blocks: replay the tail as its original
                // in-place large-stride passes (flat_pass maps the
                // scratch parts back), sharded like any other factor.
                push_flat_parts(&mut units, sp, width);
            }
        } else if sp.tiles() >= workers {
            // Enough tiles to keep every worker busy: shard by tile and
            // keep the fusion layer's per-tile locality (apply_tile runs
            // the backend recorded in the schedule).
            units.push(Unit::Tiles(sp));
        } else {
            // Too few tiles (a single-tile super-pass, or a fused run
            // whose tiles are huge relative to the crew): fall back to
            // the unfused pass-major order.
            push_flat_parts(&mut units, sp, width);
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
/// drained, synchronize between units.
///
/// # Safety
/// `data` must hold the full transform the units were built for;
/// `scratch` must cover the schedule's `scratch_elems()` whenever any
/// unit is [`Unit::GatheredBlocks`]; every participating worker must
/// call this with the same `units`/`counters`/`barrier` and a distinct
/// `worker < workers`, and `barrier` must have exactly `workers`
/// parties; `counters` must be fresh (all zero) per dispatch with one
/// counter per worker per unit.
#[allow(clippy::too_many_arguments)]
unsafe fn run_units<T: Scalar>(
    data: &mut [T],
    units: &[Unit<'_>],
    counters: &[Vec<AtomicUsize>],
    worker: usize,
    workers: usize,
    scratch: &mut [T],
    barrier: &PoisonBarrier,
    steals: &AtomicU64,
) {
    for (unit, ctrs) in units.iter().zip(counters) {
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
                    // data/scratch per this function's contract.
                    unsafe { unit.exec(data, i, scratch) };
                }
            }
        }
        if stolen != 0 {
            steals.fetch_add(stolen, Ordering::Relaxed);
        }
        // No worker may start unit i+1 before every worker has drained
        // unit i (the wait also publishes all writes; streamed scatters
        // published theirs with an sfence before arriving here). A
        // `false` means a crew member died — bail, the dispatcher
        // reports the failure.
        if !barrier.wait() {
            return;
        }
    }
}

/// Parallel in-place WHT: `x <- WHT(2^n) * x` with every compiled pass
/// distributed over `threads` workers.
///
/// Compiles the plan on each call; callers applying one plan repeatedly
/// should compile once and use [`par_apply_compiled`].
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
    let units = build_units(compiled, crew, T::LANES);
    let counters: Vec<Vec<AtomicUsize>> = units
        .iter()
        .map(|_| (0..crew).map(|_| AtomicUsize::new(0)).collect())
        .collect();
    let barrier = PoisonBarrier::new(crew);
    let steals = AtomicU64::new(0);
    let needs_scratch = units.iter().any(|u| matches!(u, Unit::GatheredBlocks(_)));
    let scratch_elems = compiled.scratch_elems();
    let ptr = SendPtr(x.as_mut_ptr());
    // Borrow the whole wrapper so the closure captures `&SendPtr<T>`
    // (not the raw field, which disjoint capture would otherwise grab).
    let ptr = &ptr;
    let len = x.len();
    let result = pool.run(&|w, arena| {
        // Pool workers beyond the crew sit this dispatch out (the
        // barrier counts only the crew).
        if w >= crew {
            return;
        }
        // Armed before any work: a panic anywhere below poisons the
        // barrier so the rest of the crew bails instead of deadlocking.
        let _guard = PoisonOnPanic(&barrier);
        let scratch: &mut [T] = if needs_scratch {
            scratch_words(arena, scratch_elems)
        } else {
            &mut []
        };
        // SAFETY: each claim index is taken by exactly one worker;
        // distinct claims touch disjoint elements (module docs), all
        // within `len` (schedule invariant + the length check above);
        // the dispatcher blocks in `run` until the crew drains, so the
        // pointee outlives every access.
        let data = unsafe { std::slice::from_raw_parts_mut(ptr.0, len) };
        // SAFETY: data holds the full transform (length checked above),
        // scratch covers scratch_elems() whenever a gathered unit
        // exists, counters are fresh with one per worker per unit, and
        // the barrier has exactly `crew` parties.
        unsafe { run_units(data, &units, &counters, w, crew, scratch, &barrier, &steals) };
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

    fn signal(n: u32) -> Vec<f64> {
        (0..1usize << n)
            .map(|j| ((j.wrapping_mul(2654435761)) % 4096) as f64 / 512.0 - 4.0)
            .collect()
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
                let input = signal(n);
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
        use wht_core::FusionPolicy;
        for n in [10u32, 13] {
            for plan in [Plan::iterative(n).unwrap(), Plan::balanced(n, 3).unwrap()] {
                let input = signal(n);
                for budget in [0usize, 1 << 4, 1 << 7, usize::MAX] {
                    let fused = CompiledPlan::compile(&plan).fuse(&FusionPolicy::new(budget));
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
        use wht_core::FusionPolicy;
        // tiles = size / budget: with 8 workers, budget N/2 gives 2 tiles
        // (flat-pass fallback) and budget N/64 gives 64 tiles (tile
        // sharding). Both must agree with sequential execution exactly.
        let n = 14u32;
        let plan = Plan::iterative(n).unwrap();
        let input = signal(n);
        for budget in [1usize << (n - 1), 1 << (n - 6)] {
            let fused = CompiledPlan::compile(&plan).fuse(&FusionPolicy::new(budget));
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
        use wht_core::{FusionPolicy, SimdPolicy};
        // tiles = size / budget: with 8 workers, budget N/2 gives 2 tiles
        // (lane-block/flat fallback) and budget N/64 gives 64 tiles (tile
        // sharding); budget 0 leaves every pass a single-tile unit, so the
        // whole schedule runs through the lane-block fallback. All must
        // agree with the sequential SIMD replay exactly, for floats and
        // integers.
        let n = 13u32;
        for plan in [Plan::iterative(n).unwrap(), Plan::balanced(n, 4).unwrap()] {
            for budget in [0usize, 1 << (n - 1), 1 << (n - 6)] {
                let simd = CompiledPlan::compile(&plan)
                    .fuse(&FusionPolicy::new(budget))
                    .with_simd(&SimdPolicy::auto());
                assert!(simd.is_simd());
                let input = signal(n);
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
        use wht_core::{FusionPolicy, RelayoutPolicy, SimdPolicy};
        // Fused head tile 2^6 at n = 14 leaves rows = 2^8 tail rows.
        // Block budget 2^9 gives cols 2 -> 32 gathered blocks (block
        // sharding with 8 workers); budget 2^12 gives cols 16 -> 4 blocks
        // (< 8 workers: in-place flat-pass fallback). Both must agree with
        // the sequential relayout replay exactly, scalar and SIMD, floats
        // and integers.
        let n = 14u32;
        for plan in [
            Plan::iterative(n).unwrap(),
            Plan::binary_iterative(n, 2).unwrap(),
        ] {
            for block_budget in [1usize << 9, 1 << 12] {
                for simd in [SimdPolicy::auto(), SimdPolicy::disabled()] {
                    let relaid = CompiledPlan::compile(&plan)
                        .fuse(&FusionPolicy::new(1 << 6))
                        .relayout(&RelayoutPolicy::eager(block_budget))
                        .with_simd(&simd);
                    assert!(relaid.has_relayout(), "plan {plan}");
                    let input = signal(n);
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
        // Same geometry as the relayout test (32 gathered blocks vs 4),
        // but lowered through the full pipeline so the gathered blocks
        // replay merged codelets: the parallel engine shards whatever
        // units the lowered schedule exposes, with no stage-specific
        // code — block sharding and the in-place flat-pass fallback must
        // both agree with the sequential re-codeleted replay exactly.
        let n = 14u32;
        for plan in [
            Plan::iterative(n).unwrap(),
            Plan::binary_iterative(n, 2).unwrap(),
        ] {
            for block_budget in [1usize << 9, 1 << 12] {
                for simd in [SimdPolicy::auto(), SimdPolicy::disabled()] {
                    let lowered = CompiledPlan::compile(&plan).lower(&ExecPolicy {
                        fusion: FusionPolicy::new(1 << 6),
                        relayout: RelayoutPolicy::eager(block_budget),
                        recodelet: RecodeletPolicy::default(),
                        simd,
                        batch: BatchPolicy::default(),
                        stream: StreamPolicy::disabled(),
                    });
                    assert!(
                        lowered.has_relayout() && lowered.has_recodeleted(),
                        "plan {plan}"
                    );
                    let input = signal(n);
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
                relayout: RelayoutPolicy::eager(1 << 9),
                ..ExecPolicy::default()
            });
            let input = signal(n);
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
            relayout: RelayoutPolicy::eager(1 << 9),
            ..ExecPolicy::default()
        });
        let input = signal(n);
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
        let input = signal(n);
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
        let input = signal(n);
        let mut via_plan = input.clone();
        par_apply_plan(&plan, &mut via_plan, Threads(4)).unwrap();
        let mut via_compiled = input;
        par_apply_compiled(&compiled, &mut via_compiled, Threads(4)).unwrap();
        assert_eq!(via_plan, via_compiled);
    }

    #[test]
    fn leaf_plan_falls_back() {
        let plan = Plan::leaf(6).unwrap();
        let input = signal(6);
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
                let input: Vec<f64> = (0..rows << n)
                    .map(|j| ((j.wrapping_mul(2654435761)) % 4096) as f64 / 512.0 - 4.0)
                    .collect();
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

    #[test]
    fn threads_default_respects_the_env_contract() {
        // Threads::default() routes through wht_core::env::threads —
        // the strict-parse WHT_THREADS knob (unit-tested there). Here:
        // it is at least 1 whatever the host.
        assert!(Threads::default().0 >= 1);
    }
}
