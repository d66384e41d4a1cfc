//! Unrolled base-case codelets (`small[1]`..`small[8]`).
//!
//! The WHT package computes small transforms "using the same approach;
//! however, the code is unrolled in order to avoid the overhead of loops or
//! recursion" (paper, Section 2). We reproduce that with one fixed-size
//! function per leaf exponent: the size is a compile-time constant, the
//! working set lives in a stack array, and the butterfly loops have constant
//! trip counts that the compiler unrolls/vectorizes — the Rust analogue of
//! the package's generated straight-line C codelets.
//!
//! A codelet call on `(x, base, stride)` computes, in place,
//! `x[base + j*stride] (j = 0..2^k)  <-  WHT(2^k) * that vector`.
//!
//! Memory behaviour (relied on by the trace executor in `wht-measure`): each
//! call reads each of its `2^k` elements exactly once (load pass), computes
//! in registers/stack, then writes each element exactly once (store pass).
//!
//! ## The SIMD lane-block backend
//!
//! The package's codelets get their speed from straight-line code; ours
//! additionally get vector arithmetic by blocking **across invocations**
//! rather than within a butterfly. A compiled pass `I(r) ⊗ WHT(2^k) ⊗ I(s)`
//! at unit global stride runs its inner `t in 0..s` loop over `s`
//! *contiguous* columns: column `t`'s element `u` lives at `row + t + u·s`.
//! Grouping `W = `[`Scalar::LANES`] consecutive columns therefore turns
//! every butterfly into `W`-wide arithmetic on `[T; W]` blocks loaded and
//! stored with unit stride — the shape LLVM reliably auto-vectorizes on
//! stable Rust. [`apply_pass_lanes`] runs a whole pass that way
//! (sub-blocks of width 8/4/2 mop up `s < W` heads, the `s == 1` head
//! pass uses a contiguous load/compute/store codelet variant, and a pass
//! wider than eight rows over more than 32 KiB per call runs as chained
//! sweeps of at most eight rows);
//! [`apply_codelet_cols`] is the same kernel restricted to a column range
//! of one row (with the same chained split), which the column tail's
//! chunks and the parallel engine's row fragments run. On `x86_64`,
//! `f64`/`f32` lane kernels are additionally
//! compiled under
//! `#[target_feature(enable = "avx2")]` and selected once per process via
//! runtime detection; every other type and host uses the portable
//! fallback, which still vectorizes at the target's baseline width.
//!
//! The `s == 1` head pass — the first pass of every fused tile and of
//! every single-leaf plan — has no columns to block across, so under
//! AVX2 the floats run it through an explicit shuffle-network kernel
//! instead: each 16-element block is loaded into registers and the
//! codelet's first four levels run there (`permute`/`blend` within a
//! register, add/sub across registers), and a `small[k]` with `k > 4`
//! finishes as a `small[k − 4]` lane pass at `s = 16` held in registers.
//! On a 2-vCPU Xeon it runs a 4096-element `s == 1` pass at 0.04–0.14 ns
//! per element per level, against 0.13–0.89 for the portable
//! contiguous codelet (`k = 2..8`, `f64` and `f32`). See the `avx2`
//! module for the network and why its bits are the scalar codelet's.
//!
//! Every lane grouping performs the **same** additions and subtractions on
//! the same values as the scalar loop — vector lanes never interact in an
//! add/sub — so lane-blocked output is bit-identical for floats and exact
//! for integers (property-tested in `tests/proptests.rs`). Each element is
//! still read exactly once and written exactly once per sweep, so the
//! trace-executor accounting contract above holds for every call except a
//! wide one, which the lane backend runs as two or three sweeps where the
//! trace charges one.
//!
//! [`SimdPolicy`] mirrors [`crate::compile::FusionPolicy`]: the compiled
//! executor selects the lane backend by default, and an
//! [`ExecPolicy`](crate::compile::ExecPolicy) carrying
//! [`SimdPolicy::disabled`] opts out.
//!
//! ## Safety contracts
//!
//! Every `unsafe` kernel in this module trusts its *schedule-derived*
//! indices and nothing else. The table names each contract, who
//! establishes it on the production path, and which check of the static
//! verifier ([`crate::verify`]) proves it for a lowered schedule (the
//! debug hook in `CompiledPlan::lower` re-proves after every stage, so a
//! violated contract is a caught pipeline bug, not UB):
//!
//! | kernel | precondition | established by | verifier check |
//! |--------|--------------|----------------|----------------|
//! | [`apply_codelet`] | `k ≤ MAX_LEAF_K`; `base + (2^k−1)·stride < x.len()` | executor replaying a lowered pass; engine's top-level length check | Structure (`k` in family) + Bounds (farthest-index interval) |
//! | [`apply_codelet_cols`] | column range inside one pass row at unit global stride; `base + cols−1 + (2^k−1)·s < x.len()` | the column tail's chunk kernel (`compile::apply_columns`): the `cols`-wide residue chunk of each `P`-column stretch of a row of a verified column tail's in-place part, run by `SuperPass::apply_tile` for sequential replay and the parallel engine's chunk claims alike; and the parallel engine's partial rows of a pass unit's contiguous invocation range | Bounds + Disjointness (whole-vector flat-pass frame) + the column tail's mod-`P` closure and chunk partition |
//! | [`apply_pass_lanes`] | whole pass at unit global stride; `base + r·2^k·s ≤ x.len()` | backend-select stage only picks `PassBackend::Lanes` at `stride == 1` | Bounds + Coverage (canonical frame `base = 0`, `stride = 1`, span = extent) |
//! | `avx2::unit_pass` (the unit-stride head kernel, behind [`apply_pass_lanes`] for `f64`/`f32` on AVX2 hosts) | `s = 1`; `k ≤ MAX_LEAF_K`; `base + r·2^k ≤ x.len()` | [`apply_pass_lanes`]'s own contract at `s = 1`, plus the runtime AVX2 check before dispatch | Bounds + Coverage, as for [`apply_pass_lanes`] |
//! | `gather_lanes*` / `scatter_lanes*` | transpose buffer `≥ n·w` elements; source/destination tile in bounds | batched executor's lane-group loop (whole rows of at most `BATCH_MAX_ELEMS` elements; `apply_batch_in` refuses scratch shorter than `batch_scratch_elems` = `w · 2^n`) and the SRHT's fused path (whole rows, scratch sized by the call) | Structure (the batch size cap); the scratch length is checked at run time |
//!
//! The checked wrapper [`apply_codelet_checked`] bounds-checks at the
//! call site and is the entry point for hand-built indices (tests,
//! external callers).

use crate::plan::MAX_LEAF_K;
use crate::scalar::Scalar;

/// In-place size-`SIZE` WHT on the strided vector starting at `base`.
///
/// # Safety
/// Caller must guarantee `base + (SIZE - 1) * stride < x.len()`; the loads
/// and stores are unchecked (this is the innermost measured loop, and the
/// engine proves the bound by induction from a single top-level length
/// check — see `engine::apply_rec`).
#[inline(always)]
unsafe fn codelet_fixed<T: Scalar, const SIZE: usize>(x: &mut [T], base: usize, stride: usize) {
    debug_assert!(SIZE.is_power_of_two());
    debug_assert!(base + (SIZE - 1) * stride < x.len());

    let mut buf = [T::ZERO; SIZE];
    // Load pass: one read per element.
    for (j, slot) in buf.iter_mut().enumerate() {
        // SAFETY: in-bounds per the function contract.
        *slot = unsafe { *x.get_unchecked(base + j * stride) };
    }
    // log2(SIZE) butterfly passes entirely within the stack buffer. The
    // tensor factors I (x) DFT2 (x) I commute, so any pass order computes
    // the same (natural/Hadamard-ordered) transform.
    let mut h = 1;
    while h < SIZE {
        let mut i = 0;
        while i < SIZE {
            for j in i..i + h {
                let a = buf[j];
                let b = buf[j + h];
                buf[j] = a + b;
                buf[j + h] = a - b;
            }
            i += 2 * h;
        }
        h *= 2;
    }
    // Store pass: one write per element.
    for (j, slot) in buf.iter().enumerate() {
        // SAFETY: in-bounds per the function contract.
        unsafe { *x.get_unchecked_mut(base + j * stride) = *slot };
    }
}

/// Apply the unrolled leaf codelet `small[k]` at `(base, stride)`.
///
/// # Safety
/// `k` must be in `1..=MAX_LEAF_K` (guaranteed for any [`crate::Plan`] built
/// through its validating constructors) and
/// `base + (2^k - 1) * stride < x.len()`.
#[inline]
pub unsafe fn apply_codelet<T: Scalar>(k: u32, x: &mut [T], base: usize, stride: usize) {
    debug_assert!((1..=MAX_LEAF_K).contains(&k));
    // SAFETY: forwarded contract.
    unsafe {
        match k {
            1 => codelet_fixed::<T, 2>(x, base, stride),
            2 => codelet_fixed::<T, 4>(x, base, stride),
            3 => codelet_fixed::<T, 8>(x, base, stride),
            4 => codelet_fixed::<T, 16>(x, base, stride),
            5 => codelet_fixed::<T, 32>(x, base, stride),
            6 => codelet_fixed::<T, 64>(x, base, stride),
            7 => codelet_fixed::<T, 128>(x, base, stride),
            8 => codelet_fixed::<T, 256>(x, base, stride),
            _ => unreachable!("leaf exponent validated at plan construction"),
        }
    }
}

/// Safe, validating wrapper around [`apply_codelet`] for standalone use.
///
/// # Errors
/// [`crate::WhtError::LeafSizeOutOfRange`] for a bad `k`;
/// [`crate::WhtError::LengthMismatch`] if the strided span does not fit in
/// `x`.
pub fn apply_codelet_checked<T: Scalar>(
    k: u32,
    x: &mut [T],
    base: usize,
    stride: usize,
) -> Result<(), crate::WhtError> {
    if !(1..=MAX_LEAF_K).contains(&k) {
        return Err(crate::WhtError::LeafSizeOutOfRange { k });
    }
    if stride == 0 {
        // A zero stride is a configuration error, not a short buffer:
        // reporting it as LengthMismatch { expected: base + 1 } would send
        // the caller hunting for an allocation bug that does not exist.
        return Err(crate::WhtError::InvalidStride { stride });
    }
    let size = 1usize << k;
    let span_end = base.saturating_add((size - 1).saturating_mul(stride));
    if span_end >= x.len() {
        return Err(crate::WhtError::LengthMismatch {
            expected: span_end.saturating_add(1),
            got: x.len(),
        });
    }
    // SAFETY: bounds checked just above.
    unsafe { apply_codelet(k, x, base, stride) };
    Ok(())
}

// ---------------------------------------------------------------------------
// SIMD lane-block backend (see the module docs).
// ---------------------------------------------------------------------------

/// Opt-in/opt-out switch for the lane-block codelet backend (the
/// backend-select stage of
/// [`CompiledPlan::lower`](crate::compile::CompiledPlan::lower)),
/// mirroring [`crate::compile::FusionPolicy`]: [`SimdPolicy::disabled`]
/// in an [`ExecPolicy`](crate::compile::ExecPolicy) turns it off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdPolicy {
    /// Whether compiled schedules select the lane-block kernels for their
    /// unit-stride passes (the scalar per-column loop runs otherwise).
    pub use_lanes: bool,
}

impl SimdPolicy {
    /// Lane kernels on — the default.
    pub fn auto() -> Self {
        SimdPolicy { use_lanes: true }
    }

    /// Lane kernels off: every pass replays through the scalar per-column
    /// codelet loop.
    pub fn disabled() -> Self {
        SimdPolicy { use_lanes: false }
    }

    /// `true` if this policy selects the lane-block backend.
    pub fn enabled(&self) -> bool {
        self.use_lanes
    }
}

impl Default for SimdPolicy {
    fn default() -> Self {
        SimdPolicy::auto()
    }
}

/// Lane-block width the SIMD backend uses for element type `T`
/// ([`Scalar::LANES`] — the elements of one 64-byte block). Exposed so
/// cost backends in `wht-search` can model the vector throughput of the
/// executor they rank plans for.
pub const fn lane_width<T: Scalar>() -> usize {
    T::LANES
}

/// In-place size-`SIZE` WHT on each of `W` adjacent unit-stride columns:
/// column `w`'s element `u` lives at `x[base + w + u * s]`. Loads, computes
/// and stores whole `[T; W]` blocks, so every butterfly is `W`-wide
/// arithmetic on contiguous memory.
///
/// # Safety
/// Caller must guarantee `base + W - 1 + (SIZE - 1) * s < x.len()` (the
/// last element of the last column is in bounds; columns are at unit
/// stride so every other index is below it).
#[inline(always)]
unsafe fn lane_block_fixed<T: Scalar, const SIZE: usize, const W: usize>(
    x: &mut [T],
    base: usize,
    s: usize,
) {
    debug_assert!(SIZE.is_power_of_two() && W.is_power_of_two());
    debug_assert!(base + W - 1 + (SIZE - 1) * s < x.len());

    let mut buf = [[T::ZERO; W]; SIZE];
    // Load pass: one contiguous W-element block per codelet row — still
    // exactly one read per element.
    for (u, block) in buf.iter_mut().enumerate() {
        let row = base + u * s;
        for (w, slot) in block.iter_mut().enumerate() {
            // SAFETY: in-bounds per the function contract.
            *slot = unsafe { *x.get_unchecked(row + w) };
        }
    }
    // The same butterfly network as `codelet_fixed`, W lanes at a time.
    // Lanes never interact, so each lane computes bit-for-bit what the
    // scalar codelet computes for its column.
    let mut h = 1;
    while h < SIZE {
        let mut i = 0;
        while i < SIZE {
            for j in i..i + h {
                // Plain index loop over two *different* rows (`j`, `j+h`):
                // a zip would need a split borrow that only obscures the
                // butterfly; the constant trip count vectorizes as is.
                #[allow(clippy::needless_range_loop)]
                for w in 0..W {
                    let a = buf[j][w];
                    let b = buf[j + h][w];
                    buf[j][w] = a + b;
                    buf[j + h][w] = a - b;
                }
            }
            i += 2 * h;
        }
        h *= 2;
    }
    // Store pass: one contiguous block per row, one write per element.
    for (u, block) in buf.iter().enumerate() {
        let row = base + u * s;
        for (w, slot) in block.iter().enumerate() {
            // SAFETY: in-bounds per the function contract.
            unsafe { *x.get_unchecked_mut(row + w) = *slot };
        }
    }
}

/// [`lane_block_fixed`] dispatched over the leaf exponent.
///
/// # Safety
/// `k` in `1..=MAX_LEAF_K` and the [`lane_block_fixed`] bound for
/// `SIZE = 2^k`.
#[inline(always)]
unsafe fn lane_block<T: Scalar, const W: usize>(k: u32, x: &mut [T], base: usize, s: usize) {
    debug_assert!((1..=MAX_LEAF_K).contains(&k));
    // SAFETY: forwarded contract.
    unsafe {
        match k {
            1 => lane_block_fixed::<T, 2, W>(x, base, s),
            2 => lane_block_fixed::<T, 4, W>(x, base, s),
            3 => lane_block_fixed::<T, 8, W>(x, base, s),
            4 => lane_block_fixed::<T, 16, W>(x, base, s),
            5 => lane_block_fixed::<T, 32, W>(x, base, s),
            6 => lane_block_fixed::<T, 64, W>(x, base, s),
            7 => lane_block_fixed::<T, 128, W>(x, base, s),
            8 => lane_block_fixed::<T, 256, W>(x, base, s),
            _ => unreachable!("leaf exponent validated at plan construction"),
        }
    }
}

/// Contiguous (`stride == 1`) codelet: the lane-blocked load/compute/store
/// variant for the `s == 1` head pass of a schedule. The unit stride is a
/// compile-time fact here, so the load and store passes lower to straight
/// vector copies and the fixed-size butterfly stages vectorize without any
/// strided address arithmetic.
///
/// # Safety
/// `base + SIZE - 1 < x.len()`.
#[inline(always)]
unsafe fn codelet_unit_fixed<T: Scalar, const SIZE: usize>(x: &mut [T], base: usize) {
    debug_assert!(base + SIZE - 1 < x.len());
    let mut buf = [T::ZERO; SIZE];
    for (j, slot) in buf.iter_mut().enumerate() {
        // SAFETY: in-bounds per the function contract.
        *slot = unsafe { *x.get_unchecked(base + j) };
    }
    let mut h = 1;
    while h < SIZE {
        let mut i = 0;
        while i < SIZE {
            for j in i..i + h {
                let a = buf[j];
                let b = buf[j + h];
                buf[j] = a + b;
                buf[j + h] = a - b;
            }
            i += 2 * h;
        }
        h *= 2;
    }
    for (j, slot) in buf.iter().enumerate() {
        // SAFETY: in-bounds per the function contract.
        unsafe { *x.get_unchecked_mut(base + j) = *slot };
    }
}

/// [`codelet_unit_fixed`] dispatched over the leaf exponent.
///
/// # Safety
/// `k` in `1..=MAX_LEAF_K` and `base + 2^k - 1 < x.len()`.
#[inline(always)]
unsafe fn codelet_unit<T: Scalar>(k: u32, x: &mut [T], base: usize) {
    debug_assert!((1..=MAX_LEAF_K).contains(&k));
    // SAFETY: forwarded contract.
    unsafe {
        match k {
            1 => codelet_unit_fixed::<T, 2>(x, base),
            2 => codelet_unit_fixed::<T, 4>(x, base),
            3 => codelet_unit_fixed::<T, 8>(x, base),
            4 => codelet_unit_fixed::<T, 16>(x, base),
            5 => codelet_unit_fixed::<T, 32>(x, base),
            6 => codelet_unit_fixed::<T, 64>(x, base),
            7 => codelet_unit_fixed::<T, 128>(x, base),
            8 => codelet_unit_fixed::<T, 256>(x, base),
            _ => unreachable!("leaf exponent validated at plan construction"),
        }
    }
}

/// Portable body of the column-range kernel: codelet `small[k]` applied to
/// `cols` adjacent unit-stride columns starting at `base` (inner extent
/// `s`), in descending block widths — `W`-wide blocks, then 8/4/2-wide
/// sub-blocks for the `s < W` head, then scalar columns for any ragged
/// tail (real schedules have power-of-two `s`, so the tail is empty
/// whenever any block ran).
///
/// # Safety
/// `k` in `1..=MAX_LEAF_K`, `cols <= s`, and the whole range in bounds:
/// `base + cols - 1 + (2^k - 1) * s < x.len()`.
#[inline(always)]
unsafe fn codelet_cols_body<T: Scalar>(k: u32, x: &mut [T], base: usize, s: usize, cols: usize) {
    // SAFETY: (all calls) each block covers columns [t, t + width) of the
    // caller's range, so its last element is at most the caller's bound.
    unsafe {
        let mut t = 0;
        if T::LANES >= 16 {
            while t + 16 <= cols {
                lane_block::<T, 16>(k, x, base + t, s);
                t += 16;
            }
        }
        while t + 8 <= cols {
            lane_block::<T, 8>(k, x, base + t, s);
            t += 8;
        }
        while t + 4 <= cols {
            lane_block::<T, 4>(k, x, base + t, s);
            t += 4;
        }
        while t + 2 <= cols {
            lane_block::<T, 2>(k, x, base + t, s);
            t += 2;
        }
        while t < cols {
            if s == 1 {
                codelet_unit(k, x, base + t);
            } else {
                apply_codelet(k, x, base + t, s);
            }
            t += 1;
        }
    }
}

/// Portable body of the whole-pass kernel: every row of the `r × s` grid
/// of `I(r) ⊗ WHT(2^k) ⊗ I(s)` at unit global stride, lane-blocked.
///
/// # Safety
/// `k` in `1..=MAX_LEAF_K` and `base + r * 2^k * s - 1 < x.len()`.
#[inline(always)]
unsafe fn pass_lanes_body<T: Scalar>(k: u32, x: &mut [T], base: usize, r: usize, s: usize) {
    let block = (1usize << k) * s;
    for j in 0..r {
        // SAFETY: row j's columns end at base + j*block + (s-1) + (2^k-1)*s
        // = base + (j+1)*block - 1, within the caller's bound.
        unsafe { codelet_cols_body(k, x, base + j * block, s, s) };
    }
}

/// `true` if this x86-64 host executes AVX2. `is_x86_feature_detected!`
/// caches its CPUID probe in std's own atomic, so after the first call
/// this is one relaxed load — cheap enough for per-pass (and per-block)
/// dispatch.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// The portable bodies re-monomorphized under AVX2 for the float types:
/// same Rust code, compiled against 256-bit vectors and selected at
/// runtime — plus explicit shuffle-network kernels for the `s == 1` head
/// pass, the one pass whose columns are too narrow for lane blocks.
/// Integer lane kernels stay on the portable path — the baseline
/// target already vectorizes integer add/sub well enough that a second
/// copy is not worth the code size.
///
/// ## The unit-stride head kernels
///
/// At `s == 1` a pass is `r` contiguous `2^k`-element codelets, and
/// every butterfly of the codelet's first four levels pairs two elements
/// of the same 16-element block. Left to LLVM, `codelet_unit` vectorizes
/// across codelets with scalar gathers. The kernels below instead load
/// each 16-element block into registers and run the first `min(k, 4)`
/// levels there: `f64` runs the `h = 1` and `h = 2` levels inside one
/// `__m256d` and `h = 4, 8` across registers, `f32` runs `h = 1, 2, 4`
/// inside one `__m256` and `h = 8` across the two. A `small[k]` with
/// `k > 4` then runs its remaining levels as a `small[k − 4]` lane pass
/// at `s = 16` — the same levels in the same order, so the same
/// butterflies.
///
/// An in-register level pairs `v` with its partner-swapped copy `p`
/// (`permute_pd`/`permute_ps`/`permute2f128`) and keeps `v + p` in the
/// low element of each pair and `p − v` in the high one (`blend`). In the
/// low element `v` holds `a` and `p` holds `b`; in the high one `p` holds
/// `a` and `v` holds `b`: every output is `a + b` or `a − b`, the scalar
/// codelet's operations, so every output is bit for bit the scalar
/// codelet's, signed zeros included. (Which payload a sum of two
/// different NaNs keeps is not fixed by Rust for any kernel here: LLVM
/// commutes `fadd` at will.)
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// One float type's registers for the unit-stride head kernel (see
    /// the module docs).
    trait Head: Scalar {
        /// One `__m256d` or `__m256`.
        type V: Copy;
        /// Elements per register.
        const VEC: usize;

        /// # Safety
        /// `p` valid for `VEC` reads; AVX2 available.
        unsafe fn load(p: *const Self) -> Self::V;

        /// # Safety
        /// `p` valid for `VEC` writes; AVX2 available.
        unsafe fn store(p: *mut Self, v: Self::V);

        /// One butterfly across two registers: `(a + b, a − b)`.
        ///
        /// # Safety
        /// AVX2 available.
        unsafe fn across(a: Self::V, b: Self::V) -> (Self::V, Self::V);

        /// Levels `0..M` (`h = 1 .. 2^(M−1)`) of every codelet inside
        /// each of the `blocks` consecutive 16-element blocks from `p`.
        ///
        /// # Safety
        /// `p` valid for `16 · blocks` reads and writes; AVX2 available;
        /// `1 ≤ M ≤ 4`.
        unsafe fn head<const M: u32>(p: *mut Self, blocks: usize);
    }

    /// The in-register level of the module docs for `f64`: `p` is `v`
    /// with partners swapped, `MASK` selects the high element of each
    /// pair.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline(always)]
    unsafe fn within_pd<const MASK: i32>(v: __m256d, p: __m256d) -> __m256d {
        // SAFETY: register arithmetic; AVX2 is the caller's contract.
        unsafe { _mm256_blend_pd::<MASK>(_mm256_add_pd(v, p), _mm256_sub_pd(p, v)) }
    }

    /// `f64`: four registers per block, `h = 1, 2` inside each, `h = 4`
    /// and `h = 8` across them.
    impl Head for f64 {
        type V = __m256d;
        const VEC: usize = 4;

        #[inline(always)]
        unsafe fn load(p: *const f64) -> __m256d {
            // SAFETY: the caller's contract.
            unsafe { _mm256_loadu_pd(p) }
        }

        #[inline(always)]
        unsafe fn store(p: *mut f64, v: __m256d) {
            // SAFETY: the caller's contract.
            unsafe { _mm256_storeu_pd(p, v) }
        }

        #[inline(always)]
        unsafe fn across(a: __m256d, b: __m256d) -> (__m256d, __m256d) {
            // SAFETY: register arithmetic; AVX2 is the caller's contract.
            unsafe { (_mm256_add_pd(a, b), _mm256_sub_pd(a, b)) }
        }

        #[inline(always)]
        unsafe fn head<const M: u32>(p: *mut f64, blocks: usize) {
            // SAFETY: block b's 16 elements at p + 16b are inside the
            // caller's range; the rest is register arithmetic.
            unsafe {
                for b in 0..blocks {
                    let p = p.add(16 * b);
                    let mut v: [__m256d; 4] = core::array::from_fn(|i| Self::load(p.add(4 * i)));
                    for r in &mut v {
                        *r = within_pd::<0b1010>(*r, _mm256_permute_pd::<0b0101>(*r));
                    }
                    if M > 1 {
                        for r in &mut v {
                            *r = within_pd::<0b1100>(*r, _mm256_permute2f128_pd::<0x01>(*r, *r));
                        }
                    }
                    if M > 2 {
                        (v[0], v[1]) = Self::across(v[0], v[1]);
                        (v[2], v[3]) = Self::across(v[2], v[3]);
                    }
                    if M > 3 {
                        (v[0], v[2]) = Self::across(v[0], v[2]);
                        (v[1], v[3]) = Self::across(v[1], v[3]);
                    }
                    for (i, r) in v.into_iter().enumerate() {
                        Self::store(p.add(4 * i), r);
                    }
                }
            }
        }
    }

    /// The `f32` twin of [`within_pd`].
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline(always)]
    unsafe fn within_ps<const MASK: i32>(v: __m256, p: __m256) -> __m256 {
        // SAFETY: register arithmetic; AVX2 is the caller's contract.
        unsafe { _mm256_blend_ps::<MASK>(_mm256_add_ps(v, p), _mm256_sub_ps(p, v)) }
    }

    /// `f32`: two registers per block, `h = 1, 2, 4` inside each, `h = 8`
    /// across them.
    impl Head for f32 {
        type V = __m256;
        const VEC: usize = 8;

        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m256 {
            // SAFETY: the caller's contract.
            unsafe { _mm256_loadu_ps(p) }
        }

        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m256) {
            // SAFETY: the caller's contract.
            unsafe { _mm256_storeu_ps(p, v) }
        }

        #[inline(always)]
        unsafe fn across(a: __m256, b: __m256) -> (__m256, __m256) {
            // SAFETY: register arithmetic; AVX2 is the caller's contract.
            unsafe { (_mm256_add_ps(a, b), _mm256_sub_ps(a, b)) }
        }

        #[inline(always)]
        unsafe fn head<const M: u32>(p: *mut f32, blocks: usize) {
            // SAFETY: as for f64.
            unsafe {
                for b in 0..blocks {
                    let p = p.add(16 * b);
                    let mut v = [Self::load(p), Self::load(p.add(8))];
                    for r in &mut v {
                        *r = within_ps::<0b1010_1010>(*r, _mm256_permute_ps::<0b1011_0001>(*r));
                    }
                    if M > 1 {
                        for r in &mut v {
                            *r = within_ps::<0b1100_1100>(*r, _mm256_permute_ps::<0b0100_1110>(*r));
                        }
                    }
                    if M > 2 {
                        for r in &mut v {
                            *r = within_ps::<0b1111_0000>(
                                *r,
                                _mm256_permute2f128_ps::<0x01>(*r, *r),
                            );
                        }
                    }
                    if M > 3 {
                        (v[0], v[1]) = Self::across(v[0], v[1]);
                    }
                    Self::store(p, v[0]);
                    Self::store(p.add(8), v[1]);
                }
            }
        }
    }

    /// [`Head::head`] for the first `min(k, 4)` levels.
    ///
    /// # Safety
    /// As [`Head::head`], and `k ≥ 1`.
    #[inline(always)]
    unsafe fn head_levels<T: Head>(k: u32, p: *mut T, blocks: usize) {
        // SAFETY: forwarded contract; every arm's M is in 1..=4.
        unsafe {
            match k {
                1 => T::head::<1>(p, blocks),
                2 => T::head::<2>(p, blocks),
                3 => T::head::<3>(p, blocks),
                _ => T::head::<4>(p, blocks),
            }
        }
    }

    /// Levels `4..k` of the `small[k]` codelet at `p`, `ROWS = 2^(k−4)`:
    /// the `small[k − 4]` lane pass at `s = 16` over the codelet read as
    /// `ROWS` rows of 16, one register column at a time — its `ROWS`
    /// registers loaded, the levels run across them, stored. (The
    /// portable lane block keeps two or four registers per row live and
    /// spills at `k ≥ 6`.)
    ///
    /// # Safety
    /// `p` valid for `16 · ROWS` reads and writes; AVX2 available.
    #[inline(always)]
    unsafe fn rows_levels<T: Head, const ROWS: usize>(p: *mut T) {
        // SAFETY: row u's register at column c covers p + 16u + c ..
        // + VEC, inside the codelet since c + VEC ≤ 16 and u < ROWS.
        unsafe {
            for c in (0..16).step_by(T::VEC) {
                let mut v: [T::V; ROWS] = core::array::from_fn(|u| T::load(p.add(16 * u + c)));
                let mut h = 1;
                while h < ROWS {
                    for i in (0..ROWS).step_by(2 * h) {
                        for j in i..i + h {
                            (v[j], v[j + h]) = T::across(v[j], v[j + h]);
                        }
                    }
                    h *= 2;
                }
                for (u, r) in v.into_iter().enumerate() {
                    T::store(p.add(16 * u + c), r);
                }
            }
        }
    }

    /// The `s == 1` pass of `small[k]`: `r` contiguous codelets from
    /// `base`. Its first `min(k, 4)` levels run on every whole 16-element
    /// block in registers — and, when `k < 4` leaves codelets past the
    /// last whole block, on those too, copied through a 16-element stack
    /// block. For `k > 4`, each codelet runs them on its own blocks and
    /// then levels `4..k` across its rows of 16 ([`rows_levels`]).
    ///
    /// # Safety
    /// `k` in `1..=MAX_LEAF_K`, `base + r·2^k ≤ x.len()`, AVX2 available.
    #[inline(always)]
    unsafe fn unit_pass<T: Head>(k: u32, x: &mut [T], base: usize, r: usize) {
        debug_assert!((1..=MAX_LEAF_K).contains(&k) && base + (r << k) <= x.len());
        if k > 4 {
            for row in 0..r {
                // SAFETY: codelet `row` spans base + row·2^k .. + 2^k,
                // inside x per the contract.
                unsafe {
                    let p = x.as_mut_ptr().add(base + (row << k));
                    T::head::<4>(p, 1 << (k - 4));
                    match k {
                        5 => rows_levels::<T, 2>(p),
                        6 => rows_levels::<T, 4>(p),
                        7 => rows_levels::<T, 8>(p),
                        _ => rows_levels::<T, 16>(p),
                    }
                }
            }
            return;
        }
        let len = r << k;
        let whole = len / 16 * 16;
        // SAFETY: the whole blocks are the first `whole ≤ len` elements
        // of this pass, inside x per the contract.
        unsafe { head_levels(k, x.as_mut_ptr().add(base), whole / 16) };
        if whole < len {
            // Whole codelets (2^k divides 16), so the stack block's
            // zero-padded end holds codelets of its own.
            let rest = &mut x[base + whole..base + len];
            let mut block = [T::ZERO; 16];
            block[..rest.len()].copy_from_slice(rest);
            // SAFETY: the stack block holds 16 elements.
            unsafe { head_levels(k, block.as_mut_ptr(), 1) };
            rest.copy_from_slice(&block[..rest.len()]);
        }
    }

    /// # Safety
    /// [`codelet_cols_body`]'s contract, plus AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn codelet_cols_f64(k: u32, x: &mut [f64], base: usize, s: usize, cols: usize) {
        // SAFETY: forwarded contract.
        unsafe { codelet_cols_body(k, x, base, s, cols) }
    }

    /// # Safety
    /// [`codelet_cols_body`]'s contract, plus AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn codelet_cols_f32(k: u32, x: &mut [f32], base: usize, s: usize, cols: usize) {
        // SAFETY: forwarded contract.
        unsafe { codelet_cols_body(k, x, base, s, cols) }
    }

    /// # Safety
    /// [`pass_lanes_body`]'s contract, plus AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pass_lanes_f64(k: u32, x: &mut [f64], base: usize, r: usize, s: usize) {
        // SAFETY: forwarded contract; at s == 1 it is unit_pass's.
        unsafe {
            if s == 1 {
                unit_pass(k, x, base, r)
            } else {
                pass_lanes_body(k, x, base, r, s)
            }
        }
    }

    /// # Safety
    /// [`pass_lanes_body`]'s contract, plus AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pass_lanes_f32(k: u32, x: &mut [f32], base: usize, r: usize, s: usize) {
        // SAFETY: as pass_lanes_f64.
        unsafe {
            if s == 1 {
                unit_pass(k, x, base, r)
            } else {
                pass_lanes_body(k, x, base, r, s)
            }
        }
    }
}

/// Reinterpret `x` as a slice of `U`. Caller asserts `T` and `U` are the
/// same type (checked); the cast is then the identity.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn same_type_slice<T: Scalar, U: Scalar>(x: &mut [T]) -> &mut [U] {
    assert_eq!(std::any::TypeId::of::<T>(), std::any::TypeId::of::<U>());
    // SAFETY: T == U was just checked, so layout and validity are
    // trivially identical.
    unsafe { &mut *(x as *mut [T] as *mut [U]) }
}

/// Apply codelet `small[k]` to `cols` adjacent unit-stride columns of a
/// pass with inner extent `s`, lane-blocked: column `t`'s element `u`
/// lives at `x[base + t + u * s]`. This is the SIMD backend's unit of
/// work below a whole pass — the column tail's chunks and the parallel
/// engine's row fragments run with it. Dispatches to the AVX2 build of
/// the kernel for `f64`/`f32` when the host supports it (decided once
/// per process), portable otherwise; every dispatch choice computes
/// bit-identical results.
///
/// A **wide** call — more than eight rows over more than 32 KiB — runs
/// as chained calls of at most eight rows, exactly as
/// [`apply_pass_lanes`] splits a wide pass: the `2^b` groups of `2^a`
/// rows (the codelet's `h < 2^a` stages) first, then the `2^a`
/// interleaved groups of `2^b` rows at stride `2^a · s`. Every butterfly
/// sees the same operands, so the output bits do not change.
///
/// # Safety
/// `k` in `1..=MAX_LEAF_K`, `cols <= s`, and
/// `base + cols - 1 + (2^k - 1) * s < x.len()`.
#[inline]
pub unsafe fn apply_codelet_cols<T: Scalar>(
    k: u32,
    x: &mut [T],
    base: usize,
    s: usize,
    cols: usize,
) {
    debug_assert!(cols <= s);
    if let Some((a, b)) = wide_split::<T>(k, s) {
        // SAFETY: group v's rows v·2^a .. (v+1)·2^a and group w's rows
        // w, w + 2^a, … are rows of this call, so every fragment stays
        // inside the caller's range; cols <= s <= 2^a·s.
        unsafe {
            for v in 0..1usize << b {
                apply_codelet_cols(a, x, base + v * (s << a), s, cols);
            }
            for w in 0..1usize << a {
                apply_codelet_cols(b, x, base + w * s, s << a, cols);
            }
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        use std::any::TypeId;
        // The TypeId comparisons are monomorphization-time constants; only
        // the AVX2 flag is a (relaxed, cached) runtime load.
        if TypeId::of::<T>() == TypeId::of::<f64>() && avx2_available() {
            // SAFETY: forwarded contract; AVX2 presence checked above.
            return unsafe { avx2::codelet_cols_f64(k, same_type_slice(x), base, s, cols) };
        }
        if TypeId::of::<T>() == TypeId::of::<f32>() && avx2_available() {
            // SAFETY: forwarded contract; AVX2 presence checked above.
            return unsafe { avx2::codelet_cols_f32(k, same_type_slice(x), base, s, cols) };
        }
    }
    // SAFETY: forwarded contract.
    unsafe { codelet_cols_body(k, x, base, s, cols) }
}

/// Most codelet rows one sweep of [`apply_pass_lanes`] keeps in flight
/// once a pass is wide: eight rows fit one L1 set's associativity at any
/// stride — the same bound [`crate::compile::SMALL_MERGE_ROWS`] puts on
/// the re-codelet stage's merges.
const WIDE_SWEEP_ROWS: usize = crate::compile::SMALL_MERGE_ROWS;

/// Bytes one codelet call spans (`2^k · s` elements) past which more
/// than [`WIDE_SWEEP_ROWS`] of its rows share an L1 set (the set index
/// repeats every 4 KiB). For `f64` this is the re-codelet stage's default
/// footprint cap, `RecodeletPolicy::DEFAULT_FOOTPRINT_ELEMS`.
const WIDE_PASS_SPAN_BYTES: usize = 32 << 10;

/// `Some((a, b))` with `a + b = k` when a call of `2^k` rows at inner
/// extent `s` is wide (more than [`WIDE_SWEEP_ROWS`] rows spanning more
/// than [`WIDE_PASS_SPAN_BYTES`]): run it as `2^a`-row sweeps, then
/// `2^b`-row ones.
#[inline]
fn wide_split<T: Scalar>(k: u32, s: usize) -> Option<(u32, u32)> {
    let rows = 1usize << k;
    let span = rows
        .saturating_mul(s)
        .saturating_mul(std::mem::size_of::<T>());
    let a = WIDE_SWEEP_ROWS.trailing_zeros();
    (rows > WIDE_SWEEP_ROWS && span > WIDE_PASS_SPAN_BYTES).then(|| (a, k - a))
}

/// Apply one whole pass `I(r) ⊗ WHT(2^k) ⊗ I(s)` at unit global stride
/// through the lane-block backend (the kernel `PassBackend::Lanes`
/// schedules select — see `wht_core::compile`). Same AVX2/portable
/// dispatch as [`apply_codelet_cols`], hoisted above the row loop.
///
/// A **wide** pass — more than eight codelet rows over more than 32 KiB
/// per call — runs as chained sweeps of at most eight rows:
/// `WHT(2^k) = (WHT(2^b) ⊗ I(2^a)) · (I(2^b) ⊗ WHT(2^a))`, the codelet's
/// own `h < 2^a` stages first, so every butterfly sees the same operands
/// and the output bits do not change (the re-codelet identity read
/// backwards; see [`crate::compile::RecodeletPolicy`]). Run as
/// one sweep, each call keeps all `2^k` rows in flight; at a page-multiple
/// stride they map to one L1 set and, when the vector's pages are
/// physically contiguous, to one L2 set, so the pass's speed depends on
/// where the OS placed the vector. perfbench's large_replay serves the
/// planner's n = 20 schedule, a `small[5]` at a 256 KiB stride after a
/// fused head holding a `small[6]` at 4 KiB: over ten 30 s runs on a
/// 2-vCPU Xeon (2 MiB L2, 105 MiB L3) its per-run median call took
/// 9.7–17.8 ms as single sweeps and 5.3–6.5 ms as chained ones.
///
/// # Safety
/// `k` in `1..=MAX_LEAF_K` and `base + r * 2^k * s - 1 < x.len()`.
#[inline]
pub unsafe fn apply_pass_lanes<T: Scalar>(k: u32, x: &mut [T], base: usize, r: usize, s: usize) {
    if let Some((a, b)) = wide_split::<T>(k, s) {
        // SAFETY: both sweeps cover exactly this pass's elements —
        // r·2^b rows of 2^a·s and r rows of 2^b·(2^a·s), each r·2^k·s —
        // and a, b are in 1..k.
        unsafe {
            apply_pass_lanes(a, x, base, r << b, s);
            apply_pass_lanes(b, x, base, r, s << a);
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        use std::any::TypeId;
        if TypeId::of::<T>() == TypeId::of::<f64>() && avx2_available() {
            // SAFETY: forwarded contract; AVX2 presence checked above.
            return unsafe { avx2::pass_lanes_f64(k, same_type_slice(x), base, r, s) };
        }
        if TypeId::of::<T>() == TypeId::of::<f32>() && avx2_available() {
            // SAFETY: forwarded contract; AVX2 presence checked above.
            return unsafe { avx2::pass_lanes_f32(k, same_type_slice(x), base, r, s) };
        }
    }
    // SAFETY: forwarded contract.
    unsafe { pass_lanes_body(k, x, base, r, s) }
}

// ---------------------------------------------------------------------------
// Cross-transform lane kernels (the batched-small transpose path).
// ---------------------------------------------------------------------------
//
// A batch of adjacent transforms is a row-major `rows × 2^n` matrix. For a
// *single* transform the lane kernels above can only go as wide as the
// pass's inner extent `s` — the head passes (`s < LANES`) run on narrow
// sub-blocks. Transposing a group of `w` adjacent rows into scratch
// (`scratch[j*w + u] = rows[u][j]`) turns every per-transform pass
// `I(r) ⊗ WHT(2^k) ⊗ I(s)` into `I(r) ⊗ WHT(2^k) ⊗ I(s·w)` at unit stride
// on the scratch: the `w` lanes of column block `j` are the *same
// coordinate of `w` different transforms*, so every butterfly is full-width
// whatever `s` was, and lanes never interact — output bits per transform
// are identical to the per-row replay. The kernels below are the
// transposes that carry blocks in and out of that domain (plus the
// SRHT-fused variants); the butterflies themselves reuse the lane kernels
// above through the ordinary `Pass` machinery with `s` scaled by `w`. The
// transposes cost about two sweeps of the group, which pays only where a
// lone transform leaves lanes idle: batches of transforms of at most
// `compile::BATCH_MAX_ELEMS` elements, and the SRHT sketches that fuse
// their sign flips and sampling into the copies (see `crate::srht`).

/// Columns per transpose tile: each tile moves `w × TRANSPOSE_TILE`
/// elements — at most 16 lanes × 32 columns × 8 bytes = 4 KiB, L1-resident
/// for every scalar type — so the strided side of the transpose stays in
/// cache while the contiguous side streams.
const TRANSPOSE_TILE: usize = 32;

/// Portable body of [`gather_lanes_tile`]: `dst[j*w + u] =
/// src[u*row_stride + j]` for `j < cols`, `u < w` — transpose one
/// `w × cols` window of `w` strided rows into the lane-major scratch
/// layout. Tiled over columns so the strided writes of one tile stay
/// L1-resident while the row reads stream contiguously.
///
/// # Safety
/// `w >= 1`, `cols >= 1`, `cols <= row_stride`,
/// `src.len() >= (w-1) * row_stride + cols`, `dst.len() >= w * cols`.
#[inline(always)]
unsafe fn gather_lanes_body<T: Scalar>(
    src: &[T],
    cols: usize,
    row_stride: usize,
    w: usize,
    dst: &mut [T],
) {
    debug_assert!(w >= 1 && cols >= 1 && cols <= row_stride);
    debug_assert!(src.len() >= (w - 1) * row_stride + cols && dst.len() >= w * cols);
    let mut j0 = 0;
    while j0 < cols {
        let jend = (j0 + TRANSPOSE_TILE).min(cols);
        for u in 0..w {
            let row = u * row_stride;
            for j in j0..jend {
                // SAFETY: u*row_stride + j and j*w + u are in bounds per
                // the contract.
                unsafe { *dst.get_unchecked_mut(j * w + u) = *src.get_unchecked(row + j) };
            }
        }
        j0 = jend;
    }
}

/// Portable body of [`scatter_lanes`]: `dst[u*n + j] = src[j*w + u]` — the
/// exact inverse transpose of [`gather_lanes_body`].
///
/// # Safety
/// Same contract as [`gather_lanes_body`] with the roles swapped.
#[inline(always)]
unsafe fn scatter_lanes_body<T: Scalar>(
    dst: &mut [T],
    cols: usize,
    row_stride: usize,
    w: usize,
    src: &[T],
) {
    debug_assert!(w >= 1 && cols >= 1 && cols <= row_stride);
    debug_assert!(dst.len() >= (w - 1) * row_stride + cols && src.len() >= w * cols);
    let mut j0 = 0;
    while j0 < cols {
        let jend = (j0 + TRANSPOSE_TILE).min(cols);
        for u in 0..w {
            let row = u * row_stride;
            for j in j0..jend {
                // SAFETY: mirror of gather_lanes_body.
                unsafe { *dst.get_unchecked_mut(row + j) = *src.get_unchecked(j * w + u) };
            }
        }
        j0 = jend;
    }
}

/// Portable body of [`gather_lanes_signed`]: the transpose-in with the
/// SRHT's Rademacher sign flips fused into the load — `dst[j*w + u] =
/// signs[j] * src[u*n + j]`, where `signs[j]` is the diagonal entry of `D`
/// for transform coordinate `j` (shared by all `w` lanes of block `j`,
/// which is what makes the fused flip branch-free per column tile).
/// Negation is `ZERO - v`, exact for every [`Scalar`].
///
/// # Safety
/// [`gather_lanes_body`]'s contract plus `signs.len() >= n`.
#[inline(always)]
unsafe fn gather_lanes_signed_body<T: Scalar>(
    src: &[T],
    n: usize,
    w: usize,
    signs: &[i8],
    dst: &mut [T],
) {
    debug_assert!(w >= 1 && n >= 1);
    debug_assert!(src.len() >= w * n && dst.len() >= w * n && signs.len() >= n);
    let mut j0 = 0;
    while j0 < n {
        let jend = (j0 + TRANSPOSE_TILE).min(n);
        for u in 0..w {
            let row = u * n;
            for j in j0..jend {
                // SAFETY: same bounds as gather_lanes_body; signs[j] has
                // j < n <= signs.len().
                unsafe {
                    let v = *src.get_unchecked(row + j);
                    let flipped = if *signs.get_unchecked(j) < 0 {
                        T::ZERO - v
                    } else {
                        v
                    };
                    *dst.get_unchecked_mut(j * w + u) = flipped;
                }
            }
        }
        j0 = jend;
    }
}

/// The transpose bodies re-monomorphized under AVX2, runtime-selected
/// exactly like the lane-kernel dispatch above — plus explicit
/// shuffle-network kernels for the hot shape, `w == 8` rows of 8-byte
/// scalars (the f64/i64 lane group): an 8 × 4 column block is transposed
/// entirely in registers (two 4 × 4 `unpack`/`permute2f128` networks), so
/// both sides of the transpose move whole vectors instead of scalar
/// elements. The 8-byte kernels are pure data movement (loads, shuffles,
/// stores — no arithmetic), so dispatching `i64` through the `f64` kernel
/// is bit-exact; narrower scalars stay on the recompiled portable body.
#[cfg(target_arch = "x86_64")]
mod avx2_lanes {
    use super::*;
    use std::arch::x86_64::*;

    /// Transpose a 4 × 4 f64 block held in four row vectors into its four
    /// column vectors.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline(always)]
    unsafe fn transpose4(
        a: __m256d,
        b: __m256d,
        c: __m256d,
        d: __m256d,
    ) -> (__m256d, __m256d, __m256d, __m256d) {
        // SAFETY: pure register shuffles; AVX2 presence is the caller's
        // contract.
        unsafe {
            let t0 = _mm256_unpacklo_pd(a, b); // a0 b0 a2 b2
            let t1 = _mm256_unpackhi_pd(a, b); // a1 b1 a3 b3
            let t2 = _mm256_unpacklo_pd(c, d);
            let t3 = _mm256_unpackhi_pd(c, d);
            (
                _mm256_permute2f128_pd(t0, t2, 0x20), // a0 b0 c0 d0
                _mm256_permute2f128_pd(t1, t3, 0x20), // a1 b1 c1 d1
                _mm256_permute2f128_pd(t0, t2, 0x31), // a2 b2 c2 d2
                _mm256_permute2f128_pd(t1, t3, 0x31), // a3 b3 c3 d3
            )
        }
    }

    /// [`gather_lanes_body`] specialized to `w == 8` rows of 8-byte
    /// scalars, 4 columns per register-transposed block.
    ///
    /// # Safety
    /// [`gather_lanes_body`]'s contract with `w == 8`, `cols.is_multiple_of(4)`,
    /// both buffers valid for `f64` reinterpretation (any 8-byte
    /// [`Scalar`]: the kernel only moves bits), and AVX2 available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather8_x64(src: *const f64, cols: usize, row_stride: usize, dst: *mut f64) {
        // SAFETY: all offsets stay under the caller's bounds contract:
        // reads at u*row_stride + j + 0..4 for u < 8, j + 4 <= cols;
        // writes at (j+t)*8 + 0..8 for j + t < cols.
        unsafe {
            let mut j = 0;
            while j < cols {
                let a = _mm256_loadu_pd(src.add(j));
                let b = _mm256_loadu_pd(src.add(row_stride + j));
                let c = _mm256_loadu_pd(src.add(2 * row_stride + j));
                let d = _mm256_loadu_pd(src.add(3 * row_stride + j));
                let (lo0, lo1, lo2, lo3) = transpose4(a, b, c, d);
                let a = _mm256_loadu_pd(src.add(4 * row_stride + j));
                let b = _mm256_loadu_pd(src.add(5 * row_stride + j));
                let c = _mm256_loadu_pd(src.add(6 * row_stride + j));
                let d = _mm256_loadu_pd(src.add(7 * row_stride + j));
                let (hi0, hi1, hi2, hi3) = transpose4(a, b, c, d);
                _mm256_storeu_pd(dst.add(j * 8), lo0);
                _mm256_storeu_pd(dst.add(j * 8 + 4), hi0);
                _mm256_storeu_pd(dst.add((j + 1) * 8), lo1);
                _mm256_storeu_pd(dst.add((j + 1) * 8 + 4), hi1);
                _mm256_storeu_pd(dst.add((j + 2) * 8), lo2);
                _mm256_storeu_pd(dst.add((j + 2) * 8 + 4), hi2);
                _mm256_storeu_pd(dst.add((j + 3) * 8), lo3);
                _mm256_storeu_pd(dst.add((j + 3) * 8 + 4), hi3);
                j += 4;
            }
        }
    }

    /// Inverse of [`gather8_x64`]: lane-major scratch back to `w == 8`
    /// strided rows.
    ///
    /// # Safety
    /// [`scatter_lanes_body`]'s contract with `w == 8`, `cols.is_multiple_of(4)`,
    /// 8-byte scalars, AVX2 available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scatter8_x64(dst: *mut f64, cols: usize, row_stride: usize, src: *const f64) {
        // SAFETY: exact mirror of gather8_x64's access pattern.
        unsafe {
            let mut j = 0;
            while j < cols {
                let c0 = _mm256_loadu_pd(src.add(j * 8));
                let c1 = _mm256_loadu_pd(src.add((j + 1) * 8));
                let c2 = _mm256_loadu_pd(src.add((j + 2) * 8));
                let c3 = _mm256_loadu_pd(src.add((j + 3) * 8));
                let (r0, r1, r2, r3) = transpose4(c0, c1, c2, c3);
                _mm256_storeu_pd(dst.add(j), r0);
                _mm256_storeu_pd(dst.add(row_stride + j), r1);
                _mm256_storeu_pd(dst.add(2 * row_stride + j), r2);
                _mm256_storeu_pd(dst.add(3 * row_stride + j), r3);
                let c0 = _mm256_loadu_pd(src.add(j * 8 + 4));
                let c1 = _mm256_loadu_pd(src.add((j + 1) * 8 + 4));
                let c2 = _mm256_loadu_pd(src.add((j + 2) * 8 + 4));
                let c3 = _mm256_loadu_pd(src.add((j + 3) * 8 + 4));
                let (r4, r5, r6, r7) = transpose4(c0, c1, c2, c3);
                _mm256_storeu_pd(dst.add(4 * row_stride + j), r4);
                _mm256_storeu_pd(dst.add(5 * row_stride + j), r5);
                _mm256_storeu_pd(dst.add(6 * row_stride + j), r6);
                _mm256_storeu_pd(dst.add(7 * row_stride + j), r7);
                j += 4;
            }
        }
    }

    /// [`gather8_x64`] with the SRHT sign flips fused in: after the
    /// in-register transpose every vector holds one coordinate's 4 lanes,
    /// so `signs[j] < 0` is one vector `0.0 - v` per column vector — the
    /// exact operation the portable body performs per element, so the
    /// fused path is bit-identical to it (signed zeros included). **f64
    /// only** — the body handles integers.
    ///
    /// # Safety
    /// [`gather_lanes_signed_body`]'s contract with `w == 8`,
    /// `cols.is_multiple_of(4)`, f64 data, `signs` valid for `cols` reads, and
    /// AVX2 available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather8_signed_f64(
        src: *const f64,
        cols: usize,
        row_stride: usize,
        signs: *const i8,
        dst: *mut f64,
    ) {
        // SAFETY: gather8_x64's access pattern plus signs[j..j+4] reads
        // under the caller's contract.
        unsafe {
            let zero = _mm256_setzero_pd();
            let flip = |v: __m256d, s: i8| if s < 0 { _mm256_sub_pd(zero, v) } else { v };
            let mut j = 0;
            while j < cols {
                let a = _mm256_loadu_pd(src.add(j));
                let b = _mm256_loadu_pd(src.add(row_stride + j));
                let c = _mm256_loadu_pd(src.add(2 * row_stride + j));
                let d = _mm256_loadu_pd(src.add(3 * row_stride + j));
                let (lo0, lo1, lo2, lo3) = transpose4(a, b, c, d);
                let a = _mm256_loadu_pd(src.add(4 * row_stride + j));
                let b = _mm256_loadu_pd(src.add(5 * row_stride + j));
                let c = _mm256_loadu_pd(src.add(6 * row_stride + j));
                let d = _mm256_loadu_pd(src.add(7 * row_stride + j));
                let (hi0, hi1, hi2, hi3) = transpose4(a, b, c, d);
                let s0 = *signs.add(j);
                let s1 = *signs.add(j + 1);
                let s2 = *signs.add(j + 2);
                let s3 = *signs.add(j + 3);
                _mm256_storeu_pd(dst.add(j * 8), flip(lo0, s0));
                _mm256_storeu_pd(dst.add(j * 8 + 4), flip(hi0, s0));
                _mm256_storeu_pd(dst.add((j + 1) * 8), flip(lo1, s1));
                _mm256_storeu_pd(dst.add((j + 1) * 8 + 4), flip(hi1, s1));
                _mm256_storeu_pd(dst.add((j + 2) * 8), flip(lo2, s2));
                _mm256_storeu_pd(dst.add((j + 2) * 8 + 4), flip(hi2, s2));
                _mm256_storeu_pd(dst.add((j + 3) * 8), flip(lo3, s3));
                _mm256_storeu_pd(dst.add((j + 3) * 8 + 4), flip(hi3, s3));
                j += 4;
            }
        }
    }

    /// # Safety
    /// [`gather_lanes_body`]'s contract, plus AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_f64(
        src: &[f64],
        cols: usize,
        row_stride: usize,
        w: usize,
        dst: &mut [f64],
    ) {
        // SAFETY: forwarded contract.
        unsafe { gather_lanes_body(src, cols, row_stride, w, dst) }
    }

    /// # Safety
    /// [`gather_lanes_body`]'s contract, plus AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_f32(
        src: &[f32],
        cols: usize,
        row_stride: usize,
        w: usize,
        dst: &mut [f32],
    ) {
        // SAFETY: forwarded contract.
        unsafe { gather_lanes_body(src, cols, row_stride, w, dst) }
    }

    /// # Safety
    /// [`scatter_lanes_body`]'s contract, plus AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scatter_f64(
        dst: &mut [f64],
        cols: usize,
        row_stride: usize,
        w: usize,
        src: &[f64],
    ) {
        // SAFETY: forwarded contract.
        unsafe { scatter_lanes_body(dst, cols, row_stride, w, src) }
    }

    /// # Safety
    /// [`scatter_lanes_body`]'s contract, plus AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scatter_f32(
        dst: &mut [f32],
        cols: usize,
        row_stride: usize,
        w: usize,
        src: &[f32],
    ) {
        // SAFETY: forwarded contract.
        unsafe { scatter_lanes_body(dst, cols, row_stride, w, src) }
    }

    /// # Safety
    /// [`gather_lanes_signed_body`]'s contract, plus AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_signed_f32(
        src: &[f32],
        n: usize,
        w: usize,
        signs: &[i8],
        dst: &mut [f32],
    ) {
        // SAFETY: forwarded contract.
        unsafe { gather_lanes_signed_body(src, n, w, signs, dst) }
    }
}

/// Reinterpret an immutable `x` as a slice of `U` (the shared-reference
/// sibling of [`same_type_slice`], for the read-only side of a transpose).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn same_type_slice_ref<T: Scalar, U: Scalar>(x: &[T]) -> &[U] {
    assert_eq!(std::any::TypeId::of::<T>(), std::any::TypeId::of::<U>());
    // SAFETY: T == U was just checked, so layout and validity are
    // trivially identical.
    unsafe { &*(x as *const [T] as *const [U]) }
}

/// Transpose one `w × cols` window of `w` strided rows (row `u` starts at
/// `src[u * row_stride]`) into the lane-major scratch layout:
/// `dst[j*w + u] = src[u*row_stride + j]` for `j < cols`. This is the
/// batched executor's transpose-in, tile-addressable so the caller can
/// walk a large transform in L1-sized column windows — after it, every
/// per-transform pass `(k, r, s)` runs on `dst` as `(k, r, s·w)` at unit
/// stride, full lane width whatever `s` was.
///
/// Dispatch: `w == 8` rows of 8-byte scalars with `cols.is_multiple_of(4)` hits the
/// in-register AVX2 shuffle network (bit-exact for `i64` — pure data
/// movement); f64/f32 otherwise take the AVX2-recompiled portable body;
/// everything else the portable body.
///
/// # Safety
/// `w >= 1`, `1 <= cols <= row_stride`,
/// `src.len() >= (w-1) * row_stride + cols`, `dst.len() >= w * cols`.
#[inline]
pub unsafe fn gather_lanes_tile<T: Scalar>(
    src: &[T],
    cols: usize,
    row_stride: usize,
    w: usize,
    dst: &mut [T],
) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::any::TypeId;
        if std::mem::size_of::<T>() == 8 && w == 8 && cols.is_multiple_of(4) && avx2_available() {
            // SAFETY: forwarded contract; the kernel is pure 8-byte data
            // movement, so reinterpreting any 8-byte Scalar as f64 bits is
            // value-preserving. AVX2 presence checked above.
            return unsafe {
                avx2_lanes::gather8_x64(
                    src.as_ptr() as *const f64,
                    cols,
                    row_stride,
                    dst.as_mut_ptr() as *mut f64,
                )
            };
        }
        if TypeId::of::<T>() == TypeId::of::<f64>() && avx2_available() {
            // SAFETY: forwarded contract; AVX2 presence checked above.
            return unsafe {
                avx2_lanes::gather_f64(
                    same_type_slice_ref(src),
                    cols,
                    row_stride,
                    w,
                    same_type_slice(dst),
                )
            };
        }
        if TypeId::of::<T>() == TypeId::of::<f32>() && avx2_available() {
            // SAFETY: forwarded contract; AVX2 presence checked above.
            return unsafe {
                avx2_lanes::gather_f32(
                    same_type_slice_ref(src),
                    cols,
                    row_stride,
                    w,
                    same_type_slice(dst),
                )
            };
        }
    }
    // SAFETY: forwarded contract.
    unsafe { gather_lanes_body(src, cols, row_stride, w, dst) }
}

/// Transpose the lane-major scratch back over one `w × cols` window of
/// strided rows: `dst[u*row_stride + j] = src[j*w + u]` — the exact
/// inverse of [`gather_lanes_tile`], same dispatch.
///
/// # Safety
/// Same contract as [`gather_lanes_tile`] with the roles swapped.
#[inline]
pub unsafe fn scatter_lanes_tile<T: Scalar>(
    dst: &mut [T],
    cols: usize,
    row_stride: usize,
    w: usize,
    src: &[T],
) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::any::TypeId;
        if std::mem::size_of::<T>() == 8 && w == 8 && cols.is_multiple_of(4) && avx2_available() {
            // SAFETY: forwarded contract; pure 8-byte data movement as in
            // gather_lanes_tile. AVX2 presence checked above.
            return unsafe {
                avx2_lanes::scatter8_x64(
                    dst.as_mut_ptr() as *mut f64,
                    cols,
                    row_stride,
                    src.as_ptr() as *const f64,
                )
            };
        }
        if TypeId::of::<T>() == TypeId::of::<f64>() && avx2_available() {
            // SAFETY: forwarded contract; AVX2 presence checked above.
            return unsafe {
                avx2_lanes::scatter_f64(
                    same_type_slice(dst),
                    cols,
                    row_stride,
                    w,
                    same_type_slice_ref(src),
                )
            };
        }
        if TypeId::of::<T>() == TypeId::of::<f32>() && avx2_available() {
            // SAFETY: forwarded contract; AVX2 presence checked above.
            return unsafe {
                avx2_lanes::scatter_f32(
                    same_type_slice(dst),
                    cols,
                    row_stride,
                    w,
                    same_type_slice_ref(src),
                )
            };
        }
    }
    // SAFETY: forwarded contract.
    unsafe { scatter_lanes_body(dst, cols, row_stride, w, src) }
}

/// Transpose `w` adjacent length-`n` rows of `src` into the lane-major
/// layout: `dst[j*w + u] = src[u*n + j]` — [`gather_lanes_tile`] with the
/// window covering whole rows (`cols == row_stride == n`).
///
/// # Safety
/// `w >= 1`, `n >= 1`, `src.len() >= w * n`, `dst.len() >= w * n`.
#[inline]
pub unsafe fn gather_lanes<T: Scalar>(src: &[T], n: usize, w: usize, dst: &mut [T]) {
    // SAFETY: forwarded contract with cols == row_stride == n.
    unsafe { gather_lanes_tile(src, n, n, w, dst) }
}

/// Transpose the lane-major scratch back over `w` adjacent rows:
/// `dst[u*n + j] = src[j*w + u]` — the exact inverse of [`gather_lanes`].
///
/// # Safety
/// Same contract as [`gather_lanes`] with the roles swapped.
#[inline]
pub unsafe fn scatter_lanes<T: Scalar>(dst: &mut [T], n: usize, w: usize, src: &[T]) {
    // SAFETY: forwarded contract with cols == row_stride == n.
    unsafe { scatter_lanes_tile(dst, n, n, w, src) }
}

/// `true` when [`gather_lanes_signed`] of `w` rows of length `n` runs its
/// in-register AVX2 kernel: `f64` lane groups of eight on an AVX2 host,
/// `n` a multiple of four. Every other case runs a per-element body.
#[inline]
pub(crate) fn signed_gather_in_registers<T: Scalar>(n: usize, w: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::any::TypeId::of::<T>() == std::any::TypeId::of::<f64>()
            && w == 8
            && n.is_multiple_of(4)
            && avx2_available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (n, w);
        false
    }
}

/// [`gather_lanes`] with the SRHT's per-coordinate Rademacher sign flips
/// fused into the load: `dst[j*w + u] = signs[j] * src[u*n + j]`
/// (`signs[j] < 0` negates — exact for every scalar type). The diagonal
/// `D` of `P·H·D` is applied for free on the way into the transposed
/// domain instead of in a separate sweep.
///
/// # Safety
/// [`gather_lanes`]'s contract plus `signs.len() >= n`.
#[inline]
pub unsafe fn gather_lanes_signed<T: Scalar>(
    src: &[T],
    n: usize,
    w: usize,
    signs: &[i8],
    dst: &mut [T],
) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::any::TypeId;
        if TypeId::of::<T>() == TypeId::of::<f64>() && avx2_available() {
            if signed_gather_in_registers::<T>(n, w) {
                // SAFETY: forwarded contract (cols == row_stride == n);
                // AVX2 presence checked above. The fused flip is the same
                // `0.0 - v` the portable body computes, so bit-identical.
                return unsafe {
                    avx2_lanes::gather8_signed_f64(
                        src.as_ptr() as *const f64,
                        n,
                        n,
                        signs.as_ptr(),
                        dst.as_mut_ptr() as *mut f64,
                    )
                };
            }
        } else if TypeId::of::<T>() == TypeId::of::<f32>() && avx2_available() {
            // SAFETY: forwarded contract; AVX2 presence checked above.
            return unsafe {
                avx2_lanes::gather_signed_f32(
                    same_type_slice_ref(src),
                    n,
                    w,
                    signs,
                    same_type_slice(dst),
                )
            };
        }
    }
    // SAFETY: forwarded contract.
    unsafe { gather_lanes_signed_body(src, n, w, signs, dst) }
}

/// The SRHT's subsampled transpose-out: `dst[u*m + i] =
/// src[indices[i]*w + u]` for `i < m = indices.len()`, `u < w` — only the
/// sampled coordinates leave the transposed domain, fusing the `P` of
/// `P·H·D` into the store (the full inverse transpose never happens).
/// Each sampled column is one contiguous `w`-element block of `src`, so
/// the reads vectorize; portable only — `m` is small by construction
/// (sketching), so this is never the hot sweep.
///
/// # Safety
/// `w >= 1`, `dst.len() >= w * m`, and every index must be in bounds:
/// `indices[i] * w + w - 1 < src.len()`.
#[inline]
pub unsafe fn scatter_lanes_sampled<T: Scalar>(
    dst: &mut [T],
    m: usize,
    w: usize,
    indices: &[usize],
    src: &[T],
) {
    debug_assert!(w >= 1 && indices.len() == m);
    debug_assert!(dst.len() >= w * m);
    for (i, &j) in indices.iter().enumerate() {
        debug_assert!(j * w + w - 1 < src.len());
        for u in 0..w {
            // SAFETY: j*w + u < src.len() and u*m + i < w*m <= dst.len()
            // per the contract.
            unsafe { *dst.get_unchecked_mut(u * m + i) = *src.get_unchecked(j * w + u) };
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming memory codelets: the StreamPolicy variants of the lane
// transposes above.
//
// A batch scatter writes every destination line exactly once and
// nothing reads it back before the next full sweep, so past the LLC a plain
// cached store pays a read-for-ownership fill per line that streaming
// (non-temporal) stores skip. The kernels below are bit-identical to their
// cached twins — they move the same bytes through `_mm256_stream_si256`
// (type-agnostic: every `Scalar` is 4 or 8 bytes of plain data) — and each
// streamed sweep ends with one `sfence`, so the stores are globally visible
// before the call returns and the parallel engine's ordering argument is
// unchanged. The gather twin issues `_mm_prefetch` for the head of each
// source row. All of it dispatches on
// [`avx2_available`] exactly like the transpose kernels (false under Miri
// and off-x86, where the portable cached bodies run instead).
// ---------------------------------------------------------------------------

/// Elements per stack tile of the streamed lanes scatter: 4 KiB of 8-byte
/// scalars — one page, L1-resident, and long enough that the non-temporal
/// runs dwarf the scalar head/tail each tile seam costs.
#[cfg(target_arch = "x86_64")]
const STREAM_TILE: usize = 512;

#[cfg(target_arch = "x86_64")]
mod nt {
    use std::arch::x86_64::*;

    /// Copy `len` elements from `src` to `dst` through 32-byte
    /// non-temporal stores: scalar stores until `dst` reaches 32-byte
    /// alignment (an element-aligned pointer gets there in whole
    /// elements — 4 and 8 both divide 32), then `_mm256_stream_si256`
    /// vectors, then a scalar tail. Pure data movement, so bit-identical
    /// to `copy_nonoverlapping` for any 4/8-byte scalar.
    ///
    /// The caller issues [`sfence`] once per streamed sweep; this
    /// function does not.
    ///
    /// # Safety
    /// `src`/`dst` valid for `len` reads/writes, non-overlapping,
    /// element-aligned; `size_of::<T>()` divides 32; AVX2 available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn stream_copy<T: Copy>(src: *const T, dst: *mut T, len: usize) {
        debug_assert!(32 % std::mem::size_of::<T>() == 0);
        let per = 32 / std::mem::size_of::<T>();
        // SAFETY: every offset below stays < len per the contract.
        unsafe {
            let mut i = 0;
            while i < len && !(dst.add(i) as usize).is_multiple_of(32) {
                *dst.add(i) = *src.add(i);
                i += 1;
            }
            while i + per <= len {
                let v = _mm256_loadu_si256(src.add(i) as *const __m256i);
                _mm256_stream_si256(dst.add(i) as *mut __m256i, v);
                i += per;
            }
            while i < len {
                *dst.add(i) = *src.add(i);
                i += 1;
            }
        }
    }

    /// Order every outstanding non-temporal store before the call
    /// returns (NT stores are weakly ordered; the parallel engine's
    /// barriers assume a unit's writes are visible when its workers
    /// arrive, so every streamed sweep fences on exit).
    #[inline]
    pub fn sfence() {
        // SAFETY: SFENCE is baseline x86-64 and has no memory operand.
        unsafe { _mm_sfence() }
    }

    /// Hint the line holding `p` into all cache levels.
    #[inline]
    pub fn prefetch<T>(p: *const T) {
        // SAFETY: PREFETCHT0 never faults, whatever the address.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p as *const i8) }
    }
}

/// [`scatter_lanes_tile`] through non-temporal stores: each destination
/// row's `cols` contiguous elements are first transposed out of the
/// lane-major scratch into an L1-resident stack tile (`STREAM_TILE`
/// elements), then streamed to the row with `_mm256_stream_si256`; one
/// `sfence` ends the sweep. Same elements, same values — the extra hop
/// through the tile trades an L1-resident copy for skipping the
/// destination's read-for-ownership fills, which only pays past the LLC
/// (exactly where [`crate::StreamPolicy`] engages it). Falls back to the
/// cached kernel off x86-64 or without AVX2 (including under Miri).
///
/// # Safety
/// Same contract as [`scatter_lanes_tile`].
#[inline]
pub unsafe fn scatter_lanes_tile_stream<T: Scalar>(
    dst: &mut [T],
    cols: usize,
    row_stride: usize,
    w: usize,
    src: &[T],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        debug_assert!(w >= 1 && cols >= 1 && cols <= row_stride);
        debug_assert!(dst.len() >= (w - 1) * row_stride + cols && src.len() >= w * cols);
        let mut buf = [T::ZERO; STREAM_TILE];
        for u in 0..w {
            let mut j0 = 0;
            while j0 < cols {
                let jend = (j0 + STREAM_TILE).min(cols);
                for (slot, j) in (j0..jend).enumerate() {
                    // SAFETY: j*w + u < w*cols <= src.len() per the
                    // contract; slot < STREAM_TILE by construction.
                    unsafe { *buf.get_unchecked_mut(slot) = *src.get_unchecked(j * w + u) };
                }
                // SAFETY: the row run ends at u*row_stride + jend - 1,
                // inside dst per the contract; buf holds jend - j0
                // elements; distinct buffers; AVX2 checked above.
                unsafe {
                    nt::stream_copy(
                        buf.as_ptr(),
                        dst.as_mut_ptr().add(u * row_stride + j0),
                        jend - j0,
                    );
                }
                j0 = jend;
            }
        }
        nt::sfence();
        return;
    }
    // SAFETY: forwarded contract.
    unsafe { scatter_lanes_tile(dst, cols, row_stride, w, src) }
}

/// [`gather_lanes_tile`] with software prefetch: the first line of each
/// of the `w` source rows is hinted into cache before the transpose walks
/// them (the transpose reads rows interleaved in column tiles, so warm
/// row heads hide the strided-access latency), then the plain dispatch
/// runs unchanged. Falls back to the plain kernel off x86-64 or without
/// AVX2 (including under Miri).
///
/// # Safety
/// Same contract as [`gather_lanes_tile`].
#[inline]
pub unsafe fn gather_lanes_tile_prefetch<T: Scalar>(
    src: &[T],
    cols: usize,
    row_stride: usize,
    w: usize,
    dst: &mut [T],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        debug_assert!(w >= 1 && cols >= 1 && cols <= row_stride);
        debug_assert!(src.len() >= (w - 1) * row_stride + cols);
        for u in 0..w {
            // SAFETY: row u's first element is a read the transpose
            // performs, in bounds per the contract (and PREFETCHT0 never
            // faults regardless).
            nt::prefetch(unsafe { src.as_ptr().add(u * row_stride) });
        }
    }
    // SAFETY: forwarded contract.
    unsafe { gather_lanes_tile(src, cols, row_stride, w, dst) }
}

/// Reference loop-based small WHT for arbitrary `k`, used by tests to
/// cross-check the fixed-size codelets. Same in-place strided contract as
/// [`apply_codelet_checked`], but the size is a runtime value and the
/// working set is heap-allocated; never used on a measured path.
///
/// # Panics
/// Panics on out-of-bounds access (safe indexing throughout).
pub fn apply_codelet_generic<T: Scalar>(k: u32, x: &mut [T], base: usize, stride: usize) {
    let size = 1usize << k;
    let mut buf: Vec<T> = (0..size).map(|j| x[base + j * stride]).collect();
    let mut h = 1;
    while h < size {
        let mut i = 0;
        while i < size {
            for j in i..i + h {
                let a = buf[j];
                let b = buf[j + h];
                buf[j] = a + b;
                buf[j + h] = a - b;
            }
            i += 2 * h;
        }
        h *= 2;
    }
    for (j, v) in buf.into_iter().enumerate() {
        x[base + j * stride] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_wht;

    #[test]
    fn codelet_matches_naive_for_all_k() {
        for k in 1..=MAX_LEAF_K {
            let size = 1usize << k;
            let input: Vec<f64> = (0..size).map(|j| (j * j % 17) as f64 - 3.0).collect();
            let mut got = input.clone();
            apply_codelet_checked(k, &mut got, 0, 1).unwrap();
            let want = naive_wht(&input);
            assert_eq!(got, want, "codelet small[{k}] disagrees with naive WHT");
        }
    }

    #[test]
    fn generic_codelet_matches_fixed() {
        for k in 1..=MAX_LEAF_K {
            let size = 1usize << k;
            let input: Vec<f64> = (0..size).map(|j| (3 * j + 1) as f64).collect();
            let mut a = input.clone();
            let mut b = input;
            apply_codelet_checked(k, &mut a, 0, 1).unwrap();
            apply_codelet_generic(k, &mut b, 0, 1);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn strided_access_only_touches_its_elements() {
        // Apply small[2] at base 1, stride 3 inside a size-16 buffer and
        // check untouched slots are preserved.
        let mut x: Vec<f64> = (0..16).map(|v| v as f64).collect();
        let orig = x.clone();
        apply_codelet_checked(2, &mut x, 1, 3).unwrap();
        let touched: Vec<usize> = (0..4).map(|j| 1 + 3 * j).collect();
        for (i, (now, before)) in x.iter().zip(orig.iter()).enumerate() {
            if touched.contains(&i) {
                continue;
            }
            assert_eq!(now, before, "slot {i} should be untouched");
        }
        // And the touched slots hold the size-4 WHT of [1, 4, 7, 10].
        let want = naive_wht(&[1.0, 4.0, 7.0, 10.0]);
        let got: Vec<f64> = touched.iter().map(|&i| x[i]).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn integer_codelets_are_exact() {
        let input: Vec<i64> = vec![5, -3, 2, 7, 0, 1, -1, 4];
        let mut got = input.clone();
        apply_codelet_checked(3, &mut got, 0, 1).unwrap();
        let want_f: Vec<f64> = naive_wht(&input.iter().map(|&v| v as f64).collect::<Vec<_>>());
        let got_f: Vec<f64> = got.iter().map(|&v| v as f64).collect();
        assert_eq!(got_f, want_f);
    }

    #[test]
    fn checked_wrapper_rejects_bad_inputs() {
        let mut x = vec![0.0f64; 8];
        assert_eq!(
            apply_codelet_checked(0, &mut x, 0, 1),
            Err(crate::WhtError::LeafSizeOutOfRange { k: 0 })
        );
        assert_eq!(
            apply_codelet_checked(9, &mut x, 0, 1),
            Err(crate::WhtError::LeafSizeOutOfRange { k: 9 })
        );
        // span 0 + 7*2 = 14 >= len 8: genuinely a too-short buffer.
        assert_eq!(
            apply_codelet_checked(3, &mut x, 0, 2),
            Err(crate::WhtError::LengthMismatch {
                expected: 15,
                got: 8
            })
        );
        // Zero stride is a *config* error, and must be diagnosed as one —
        // not disguised as LengthMismatch { expected: base + 1 }.
        assert_eq!(
            apply_codelet_checked(1, &mut x, 0, 0),
            Err(crate::WhtError::InvalidStride { stride: 0 })
        );
        assert_eq!(
            apply_codelet_checked(2, &mut x, 5, 0),
            Err(crate::WhtError::InvalidStride { stride: 0 }),
            "stride 0 must win over any base/length combination"
        );
        // exactly fits:
        assert!(apply_codelet_checked(3, &mut x, 0, 1).is_ok());
    }

    #[test]
    fn simd_policy_constructors() {
        assert!(SimdPolicy::auto().enabled());
        assert!(SimdPolicy::default().enabled());
        assert!(!SimdPolicy::disabled().enabled());
        assert_eq!(lane_width::<f64>(), 8);
        assert_eq!(lane_width::<f32>(), 16);
        assert_eq!(lane_width::<i64>(), 8);
        assert_eq!(lane_width::<i32>(), 16);
    }

    /// The lane-block kernels against the scalar per-column loop: same
    /// pass, the same bits in every element, for every leaf size, a
    /// spread of inner extents (below, at, and above every block width,
    /// plus twice the narrowest stride that makes a pass of more than
    /// eight rows wide, so it runs as chained sweeps), and all four scalar
    /// types — the floats on inputs whose sums round, so a sweep order
    /// that reassociated any butterfly would show. Each pass also runs as
    /// `apply_codelet_cols` calls over a ragged column sub-range of every
    /// row, which the chained split covers the same way at the wide
    /// stride. The floats also run every `s = 1` pass on ±0.0, ±∞ and
    /// NaN: the first codelet on signed zeros alone, whose output signs
    /// follow every `a − b` of the network (`b − a` flips them), the
    /// other two on a mix that turns whole codelets into ±∞ and NaN. `==`
    /// cannot see a flipped zero sign, so the comparison is on `to_bits`.
    /// The NaN is the host's own, the one `∞ − ∞` makes, so every NaN in
    /// a pass has the same bits: which of two different NaNs a sum keeps
    /// is not fixed by Rust in any kernel (LLVM commutes `fadd`).
    #[test]
    fn lane_pass_is_bit_identical_to_scalar_columns() {
        fn check<T: Scalar>(value: fn(usize) -> T, bits: fn(T) -> u64, special: &[T]) {
            let bitwise = |v: &[T]| v.iter().map(|&e| bits(e)).collect::<Vec<u64>>();
            for k in 1..=MAX_LEAF_K {
                let rows = 1usize << k;
                let mut strides = vec![1usize, 2, 3, 4, 6, 8, 16, 17, 32];
                if rows > WIDE_SWEEP_ROWS {
                    strides.push(2 * WIDE_PASS_SPAN_BYTES / (rows * std::mem::size_of::<T>()));
                }
                for s in strides {
                    let r = 3usize;
                    let len = r * rows * s;
                    let mut inputs = vec![(0..len).map(value).collect::<Vec<T>>()];
                    if s == 1 && !special.is_empty() {
                        inputs.push(
                            (0..len)
                                .map(|j| {
                                    let pool = if j < rows { &special[..2] } else { special };
                                    pool[(j * 37 + 11) % 251 % pool.len()]
                                })
                                .collect(),
                        );
                    }
                    for input in inputs {
                        let mut scalar = input.clone();
                        for j in 0..r {
                            let row = j * rows * s;
                            for t in 0..s {
                                // SAFETY: (row + t) + (2^k - 1) * s < len.
                                unsafe { apply_codelet(k, &mut scalar, row + t, s) };
                            }
                        }
                        let mut lanes = input.clone();
                        // SAFETY: whole pass fits the buffer by construction.
                        unsafe { apply_pass_lanes(k, &mut lanes, 0, r, s) };
                        assert_eq!(bitwise(&lanes), bitwise(&scalar), "k={k}, s={s}");
                        let t0 = s / 3;
                        let cols = (s - t0).div_ceil(2);
                        let mut scalar = input.clone();
                        let mut ranged = input;
                        for j in 0..r {
                            let row = j * rows * s;
                            for t in t0..t0 + cols {
                                // SAFETY: (row + t) + (2^k - 1) * s < len.
                                unsafe { apply_codelet(k, &mut scalar, row + t, s) };
                            }
                            // SAFETY: cols <= s - t0 and the row is in bounds.
                            unsafe { apply_codelet_cols(k, &mut ranged, row + t0, s, cols) };
                        }
                        assert_eq!(
                            bitwise(&ranged),
                            bitwise(&scalar),
                            "k={k}, s={s}, columns {t0}..+{cols}"
                        );
                    }
                }
            }
        }
        let inf = std::hint::black_box(f64::INFINITY);
        check::<f64>(
            |j| ((j * 37 + 11) % 251) as f64 * 0.37 - 41.3,
            f64::to_bits,
            &[0.0, -0.0, inf, -inf, inf - inf, 1.5, -2.25],
        );
        let inf = std::hint::black_box(f32::INFINITY);
        check::<f32>(
            |j| ((j * 37 + 11) % 251) as f32 * 0.37 - 41.3,
            |v| u64::from(v.to_bits()),
            &[0.0, -0.0, inf, -inf, inf - inf, 1.5, -2.25],
        );
        check::<i64>(|j| ((j * 37 + 11) % 251) as i64 - 125, |v| v as u64, &[]);
        check::<i32>(
            |j| ((j * 37 + 11) % 251) as i32 - 125,
            |v| u64::from(v as u32),
            &[],
        );
    }

    /// The lane transposes are exact inverses, for every scalar type and
    /// a spread of widths (including non-lane-width `w`s and `n`s that are
    /// not multiples of the transpose tile).
    #[test]
    fn lane_transposes_round_trip() {
        fn check<T: Scalar>() {
            for (w, n) in [(1usize, 7usize), (2, 32), (8, 33), (8, 64), (16, 100)] {
                let src: Vec<T> = (0..w * n)
                    .map(|j| T::from_i64((j % 113) as i64 - 56))
                    .collect();
                let mut t = vec![T::ZERO; w * n];
                // SAFETY: both buffers hold exactly w*n elements.
                unsafe { gather_lanes(&src, n, w, &mut t) };
                for u in 0..w {
                    for j in 0..n {
                        assert_eq!(t[j * w + u], src[u * n + j], "w={w}, n={n}");
                    }
                }
                let mut back = vec![T::ZERO; w * n];
                // SAFETY: same bounds.
                unsafe { scatter_lanes(&mut back, n, w, &t) };
                assert_eq!(back, src, "w={w}, n={n}");
            }
        }
        check::<f64>();
        check::<f32>();
        check::<i64>();
        check::<i32>();
    }

    /// The signed gather flips exactly the negative-sign columns, for all
    /// lanes of a block, and the sampled scatter picks exactly the indexed
    /// columns in order.
    #[test]
    fn srht_fused_transposes_are_exact() {
        fn check<T: Scalar>() {
            let (w, n) = (4usize, 40usize);
            let src: Vec<T> = (0..w * n).map(|j| T::from_i64(j as i64 - 70)).collect();
            let signs: Vec<i8> = (0..n).map(|j| if j % 3 == 0 { -1 } else { 1 }).collect();
            let mut t = vec![T::ZERO; w * n];
            // SAFETY: buffers hold w*n elements, signs holds n.
            unsafe { gather_lanes_signed(&src, n, w, &signs, &mut t) };
            for u in 0..w {
                for j in 0..n {
                    let want = if signs[j] < 0 {
                        T::ZERO - src[u * n + j]
                    } else {
                        src[u * n + j]
                    };
                    assert_eq!(t[j * w + u], want, "u={u}, j={j}");
                }
            }
            let indices = [0usize, 7, 7, 39, 13];
            let m = indices.len();
            let mut out = vec![T::ZERO; w * m];
            // SAFETY: out holds w*m elements, every index < n.
            unsafe { scatter_lanes_sampled(&mut out, m, w, &indices, &t) };
            for u in 0..w {
                for (i, &j) in indices.iter().enumerate() {
                    assert_eq!(out[u * m + i], t[j * w + u], "u={u}, i={i}");
                }
            }
        }
        check::<f64>();
        check::<f32>();
        check::<i64>();
        check::<i32>();
    }

    /// `apply_codelet_cols` on an arbitrary column sub-range leaves the
    /// other columns untouched and matches the scalar codelets on its own.
    #[test]
    fn column_ranges_are_exact_and_contained() {
        let k = 3u32;
        let s = 16usize;
        let len = (1usize << k) * s;
        let input: Vec<f64> = (0..len)
            .map(|j| ((j * 13 + 5) % 97) as f64 - 48.0)
            .collect();
        for (t0, cols) in [(0usize, 5usize), (3, 8), (11, 5), (0, 16), (15, 1)] {
            let mut scalar = input.clone();
            for t in t0..t0 + cols {
                // SAFETY: t + (2^k - 1) * s < len.
                unsafe { apply_codelet(k, &mut scalar, t, s) };
            }
            let mut ranged = input.clone();
            // SAFETY: cols <= s and the range is in bounds.
            unsafe { apply_codelet_cols(k, &mut ranged, t0, s, cols) };
            assert_eq!(ranged, scalar, "t0={t0}, cols={cols}");
        }
    }
}
