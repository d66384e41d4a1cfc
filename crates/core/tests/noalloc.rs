//! Allocation regression tests for the warm replay paths, run under a
//! counting global allocator: the single-transform replay
//! (`CompiledPlan::apply`, `apply_plan`) runs in place and must hit the
//! heap **zero** times, column tail included; and once a caller-owned
//! scratch buffer has been sized by a first (warmup) application, the
//! batched path (`CompiledPlan::apply_batch_with_scratch`) must too.
//!
//! The counter is per thread: the test harness runs tests (and their
//! allocations) concurrently, so a process-wide counter would charge one
//! test with its siblings' heap traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wht_core::{
    apply_plan, BatchPolicy, CompiledPlan, ExecPolicy, FusionPolicy, Plan, RelayoutPolicy, Scalar,
    SimdPolicy,
};

/// System allocator wrapper that counts every allocation (including
/// reallocs, which acquire new memory too) on the allocating thread.
/// Deallocations are free.
struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Const-initialized and
    /// destructor-free, so reading it never allocates (which would
    /// recurse into the allocator).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Bump this thread's counter. `try_with` because the allocator also
/// runs while thread-local storage is being torn down.
fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations this thread has made so far.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: pure pass-through to `System` plus a side-effect-free
// thread-local counter bump — every GlobalAlloc contract obligation is
// `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded caller contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn signal(n: u32) -> Vec<f64> {
    (0..1usize << n)
        .map(|j| ((j.wrapping_mul(0x9E3779B9)) % 512) as f64 / 64.0 - 4.0)
        .collect()
}

/// A column-tail schedule at n = 14: a head fused at 2^6, then the
/// 8-factor tail in 2^9-element chunks.
fn column_tail_schedule(n: u32) -> CompiledPlan {
    let tailed = CompiledPlan::compile_exec(
        &Plan::iterative(n).unwrap(),
        &ExecPolicy::all_disabled()
            .with_fusion(FusionPolicy::new(1 << 6))
            .with_relayout(RelayoutPolicy::new(1 << 9))
            .with_simd(SimdPolicy::auto()),
    );
    assert!(tailed.has_relayout());
    tailed
}

#[test]
fn apply_plan_and_column_tail_apply_do_not_allocate() {
    let n = 14u32;
    let tailed = column_tail_schedule(n);
    let plan = Plan::iterative(n).unwrap();
    let mut x = signal(n);
    // Warm apply_plan's per-thread schedule cache.
    apply_plan(&plan, &mut x).unwrap();

    let before = allocations();
    apply_plan(&plan, &mut x).unwrap();
    tailed.apply(&mut x).unwrap();
    tailed.apply(&mut x).unwrap();
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm apply_plan and column-tail replays must not touch the heap"
    );
}

#[test]
fn compiled_relayout_with_scratch_does_not_allocate_after_warmup() {
    let n = 14u32;
    let relaid = column_tail_schedule(n);
    let mut x = signal(n);
    let mut scratch: Vec<f64> = Vec::new();
    relaid.apply_with_scratch(&mut x, &mut scratch).unwrap();
    assert!(scratch.is_empty(), "the column tail runs in place");

    let mut y = signal(n);
    let before = allocations();
    relaid.apply_with_scratch(&mut y, &mut scratch).unwrap();
    relaid.apply_with_scratch(&mut y, &mut scratch).unwrap();
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm column-tail replays must not touch the heap"
    );
}

#[test]
fn apply_batch_with_scratch_does_not_allocate_after_warmup() {
    // The batched-small fast path: the first call sizes the scratch for
    // the transposed lane group, then every warm batch — engaged lane
    // groups, remainder, and all — must be allocation-free. (n = 4: the
    // batch stage builds no product past 2^4 elements.)
    let n = 4u32;
    let compiled = CompiledPlan::compile(&Plan::iterative(n).unwrap()).lower(&ExecPolicy {
        batch: BatchPolicy::new(1),
        ..ExecPolicy::default()
    });
    assert!(
        compiled.batch_schedule().is_some(),
        "the lowered plan must carry a batch schedule"
    );
    let size = compiled.size();
    // Rows chosen to engage the cross path and leave a remainder.
    let rows = 2 * <f64 as Scalar>::LANES + 3;
    let mut x: Vec<f64> = (0..rows * size)
        .map(|j| ((j.wrapping_mul(0x9E3779B9)) % 512) as f64 / 64.0 - 4.0)
        .collect();
    let mut scratch: Vec<f64> = Vec::new();
    compiled
        .apply_batch_with_scratch(&mut x, rows, &mut scratch)
        .unwrap();

    let before = allocations();
    compiled
        .apply_batch_with_scratch(&mut x, rows, &mut scratch)
        .unwrap();
    compiled
        .apply_batch_with_scratch(&mut x, rows, &mut scratch)
        .unwrap();
    // A smaller batch (below the engagement threshold, so per-row replay)
    // must reuse the same scratch too.
    let small_rows = 2;
    compiled
        .apply_batch_with_scratch(&mut x[..small_rows * size], small_rows, &mut scratch)
        .unwrap();
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm batched replays must not touch the heap"
    );
}
