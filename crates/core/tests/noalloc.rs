//! Allocation regression tests for the warm scratch-reuse paths, run
//! under a counting global allocator: once a caller-owned scratch buffer
//! has been sized by a first (warmup) application, replaying the same
//! plan must hit the heap **zero** times — both for the compiled relayout
//! executor (`CompiledPlan::apply_with_scratch`) and the batched path
//! (`CompiledPlan::apply_batch_with_scratch`).
//!
//! The counter is per thread: the test harness runs tests (and their
//! allocations) concurrently, so a process-wide counter would charge one
//! test with its siblings' heap traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wht_core::{
    BatchPolicy, CompiledPlan, ExecPolicy, FusionPolicy, Plan, RelayoutPolicy, Scalar, SimdPolicy,
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

#[test]
fn compiled_relayout_with_scratch_does_not_allocate_after_warmup() {
    let n = 14u32;
    let relaid = CompiledPlan::compile(&Plan::iterative(n).unwrap())
        .fuse(&FusionPolicy::new(1 << 6))
        .relayout(&RelayoutPolicy::eager(1 << 9))
        .with_simd(&SimdPolicy::auto());
    assert!(relaid.has_relayout());
    let mut x = signal(n);
    let mut scratch: Vec<f64> = Vec::new();
    relaid.apply_with_scratch(&mut x, &mut scratch).unwrap();
    assert_eq!(scratch.len(), relaid.scratch_elems());

    let mut y = signal(n);
    let before = allocations();
    relaid.apply_with_scratch(&mut y, &mut scratch).unwrap();
    relaid.apply_with_scratch(&mut y, &mut scratch).unwrap();
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm relayout replays must not touch the heap"
    );
}

#[test]
fn apply_batch_with_scratch_does_not_allocate_after_warmup() {
    // The batched-small fast path: the first call sizes the scratch for
    // the transposed cross tile (and the per-row schedule, which also
    // serves the remainder rows), then every warm batch — engaged lane
    // groups, remainder, and all — must be allocation-free.
    let n = 10u32;
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
