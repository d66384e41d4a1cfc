//! Subsampled randomized Hadamard transform (SRHT) sketching, composed
//! on top of the transposed lane-group replay of the batched executor.
//!
//! The SRHT sketch of a row vector `x` of size `N = 2^n` is
//! `y = P · H · D · x`: a diagonal of Rademacher signs `D`, the
//! Walsh–Hadamard transform `H = WHT(N)`, and a row-subsampling `P`
//! keeping `m` of the `N` coordinates. It is the classic
//! fast-Johnson–Lindenstrauss construction (Ailon–Chazelle), and its cost
//! profile is exactly the batched-small regime this crate's
//! [`CompiledPlan::apply_batch`] targets: many small transforms, one per
//! data row.
//!
//! [`Srht`] holds one draw of `(D, P)` and sketches whole batches through
//! the batched executor's transposed lane domain, fusing both random
//! operators into the copies that were already there:
//!
//! * the sign flips ride the transpose **in**
//!   ([`crate::codelets::gather_lanes_signed`]) — `D` costs nothing on
//!   top of the load the batched path does anyway;
//! * the subsampling rides the transpose **out**
//!   ([`crate::codelets::scatter_lanes_sampled`]) — only the `m` sampled
//!   coordinates ever leave the transposed domain, and the full inverse
//!   transpose never happens.
//!
//! Between the two, *every* pass of the lowered flat schedule
//! ([`CompiledPlan::passes`]) runs full-lane-width across transforms
//! (with the sampled store there is no reason to scatter back early);
//! a pass whose codelet has more than 16 rows runs as two sweeps of at
//! most 16, which keeps the lane blocks from spilling. A 64-row sketch
//! through a single-leaf `small[6]` plan (`f64`, a 2-vCPU AVX2 Xeon)
//! took 3.4–3.8 µs that way in four runs, against 4.1–4.3 µs as one
//! sweep, or 6.6 µs in runs that hit a slow mode, which one sweep's
//! 4 KiB stack block shows in some processes and builds and not others.
//! Each transform's butterfly DAG is identical to a per-row replay, and
//! negation is exact for every scalar type, so the sketch is
//! bit-identical to the reference composition sign-flip → full WHT →
//! subsample.
//!
//! Engagement does not follow the batch product. The fused path needs
//! only the flat passes, and it runs on each full lane group wherever it
//! beats a per-row composition through the ordinary executor (which
//! every other row, and every other case, replays — bit-identical
//! either way): at every size up to the batch stage's cap (`2^4`), and
//! up to `2^14` (`FUSED_SKETCH_MAX_ELEMS`) where the sign flip rides
//! the in-register transpose (`f64` on AVX2 hosts). Elsewhere the
//! per-row composition, whose unit-stride head pass runs in registers,
//! is faster. Interleaved
//! timing of 64-row sketches (`m = 2^n / 8`, default-lowered
//! `Plan::iterative(n)`, a 2-vCPU AVX2 Xeon; per-row / fused time,
//! above 1: the fused path wins) read, for `n = 4, 6, 8, 10, 12, 14, 15`:
//! `f64` 1.98, 2.21, 1.32, 1.13, 0.99–1.04, 1.05, 0.90; `f32` 1.26,
//! 0.90, 0.58, 0.58, 0.46; `i64` 1.02, 0.78, 0.72, 0.71, 0.79; `i32`
//! 1.21, 0.84, 0.72, 0.73, 0.71.
//!
//! ```
//! use wht_core::{CompiledPlan, ExecPolicy, Plan, Srht};
//!
//! let plan = Plan::iterative(8)?;
//! let compiled = CompiledPlan::compile(&plan).lower(&ExecPolicy::default());
//! let srht = Srht::new(8, 32, 42)?; // sketch 256 coords down to 32
//! let rows = 64;
//! let x: Vec<f64> = (0..rows * 256).map(|v| (v % 13) as f64 - 6.0).collect();
//! let mut sketch = vec![0.0; rows * 32];
//! srht.sketch_batch(&compiled, &x, rows, &mut sketch)?;
//! # Ok::<(), wht_core::WhtError>(())
//! ```

use crate::codelets::{gather_lanes_signed, scatter_lanes_sampled, signed_gather_in_registers};
use crate::compile::{CompiledPlan, Pass, RecodeletPolicy, BATCH_MAX_ELEMS};
use crate::error::WhtError;
use crate::plan::MAX_N;
use crate::scalar::Scalar;

/// Largest transform whose sketch runs the fused transposed path when the
/// sign flip rides the in-register transpose (see the module docs): the
/// `f64` crossover on the reference host, past which the per-row
/// composition wins.
const FUSED_SKETCH_MAX_ELEMS: usize = 1 << 14;

/// Flat pass `p` as it runs on a transposed lane group of `w` rows: at
/// inner extent `s · w`, every pass is a lane pass, and a lane block of
/// more than `2^4` codelet rows spills its registers (the reason the
/// re-codelet stage caps codelets at
/// [`RecodeletPolicy::DEFAULT_MAX_K`](crate::compile::RecodeletPolicy::DEFAULT_MAX_K)).
/// A single-leaf plan's `small[k > 4]` keeps its leaf in the lowered
/// schedule, since its `s == 1` pass runs in registers, so here it runs
/// as a `small[4]` sweep over each group of 16 rows and a `small[k − 4]`
/// sweep at 16 times the stride: the codelet's levels in the same
/// order, so the same butterflies and the same bits.
fn transposed_sweeps(p: &Pass, w: usize) -> [Option<Pass>; 2] {
    let s = p.s * w;
    let a = RecodeletPolicy::DEFAULT_MAX_K;
    if p.k <= a {
        return [Some(Pass { s, ..*p }), None];
    }
    let b = p.k - a;
    [
        Some(Pass {
            k: a,
            r: p.r << b,
            s,
            ..*p
        }),
        Some(Pass {
            k: b,
            s: s << a,
            ..*p
        }),
    ]
}

/// One draw of the SRHT's random operators: the Rademacher sign diagonal
/// `D` (length `2^n`) and the sampled coordinate set `P` (`m` distinct
/// indices, kept sorted so the sampled store reads scratch in address
/// order). Construction is deterministic in the seed — two [`Srht`]s
/// built with the same `(n, m, seed)` sketch identically, which is what
/// lets distributed consumers agree on a sketch without shipping the
/// operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Srht {
    n: u32,
    signs: Vec<i8>,
    indices: Vec<usize>,
}

/// The testkit's splitmix64, re-derived here so the core module keeps no
/// dependency on test scaffolding: one 64-bit state, full-period, and
/// every output bit avalanche-mixed — more than enough for Rademacher
/// draws and index sampling.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Srht {
    /// Draw an SRHT for size `2^n` keeping `m` coordinates, seeded
    /// deterministically.
    ///
    /// Signs take one hashed bit per coordinate; the sample is uniform
    /// without replacement (Floyd's algorithm — `O(m)` memory whatever
    /// `n` is), then sorted.
    ///
    /// # Errors
    /// [`WhtError::InvalidConfig`] unless `1 <= n <= MAX_N` and
    /// `1 <= m <= 2^n`.
    pub fn new(n: u32, m: usize, seed: u64) -> Result<Self, WhtError> {
        if n == 0 || n > MAX_N {
            return Err(WhtError::InvalidConfig(format!(
                "SRHT exponent must be in 1..={MAX_N}, got {n}"
            )));
        }
        let size = 1usize << n;
        if m == 0 || m > size {
            return Err(WhtError::InvalidConfig(format!(
                "SRHT sample size must be in 1..={size}, got {m}"
            )));
        }
        let mut state = seed ^ (u64::from(n) << 32) ^ (m as u64);
        let signs = (0..size)
            .map(|_| {
                if splitmix64(&mut state) >> 63 == 1 {
                    -1
                } else {
                    1
                }
            })
            .collect();
        // Floyd's sampling: for j in size-m..size, draw r in 0..=j; take r
        // unless already taken, else take j. Uniform over m-subsets.
        let mut sample = std::collections::BTreeSet::new();
        for j in size - m..size {
            let r = (splitmix64(&mut state) % (j as u64 + 1)) as usize;
            if !sample.insert(r) {
                sample.insert(j);
            }
        }
        let indices: Vec<usize> = sample.into_iter().collect();
        debug_assert_eq!(indices.len(), m);
        Ok(Srht { n, signs, indices })
    }

    /// Exponent of the transform this SRHT sketches (`log2` of the input
    /// row length).
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Coordinates kept per sketched row (`m`, the sketch row length).
    #[inline]
    pub fn sample_len(&self) -> usize {
        self.indices.len()
    }

    /// The Rademacher diagonal, one `±1` per input coordinate.
    #[inline]
    pub fn signs(&self) -> &[i8] {
        &self.signs
    }

    /// The sampled coordinate set, sorted ascending.
    #[inline]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Sketch every row of a row-major `rows × 2^n` batch into the
    /// row-major `rows × m` output: `out_row = P · H · D · x_row`, the
    /// input left untouched. Allocates its scratch per call; hot services
    /// use [`Srht::sketch_batch_with_scratch`].
    ///
    /// # Errors
    /// [`WhtError::InvalidConfig`] if `compiled` is for a different size
    /// than this SRHT; [`WhtError::LengthMismatch`] unless
    /// `x.len() == rows * 2^n` and `out.len() == rows * m`.
    pub fn sketch_batch<T: Scalar>(
        &self,
        compiled: &CompiledPlan,
        x: &[T],
        rows: usize,
        out: &mut [T],
    ) -> Result<(), WhtError> {
        let mut scratch = Vec::new();
        self.sketch_batch_with_scratch(compiled, x, rows, out, &mut scratch)
    }

    /// [`Srht::sketch_batch`] with a caller-owned scratch buffer, grown on
    /// first use and never shrunk — the warm path allocates nothing.
    ///
    /// Where the fused path wins (see the module docs), every full lane
    /// group of [`Scalar::LANES`] rows runs it: signed transpose in, the
    /// whole lowered flat schedule at scaled stride (full lane width
    /// across transforms), sampled transpose out. The sub-lane-group
    /// remainder, and every row elsewhere, replays the composition per
    /// row through the ordinary executor — bit-identical either way.
    ///
    /// # Errors
    /// As [`Srht::sketch_batch`].
    pub fn sketch_batch_with_scratch<T: Scalar>(
        &self,
        compiled: &CompiledPlan,
        x: &[T],
        rows: usize,
        out: &mut [T],
        scratch: &mut Vec<T>,
    ) -> Result<(), WhtError> {
        if compiled.n() != self.n {
            return Err(WhtError::InvalidConfig(format!(
                "SRHT for n = {} sketched through a compiled plan for n = {}",
                self.n,
                compiled.n()
            )));
        }
        let size = compiled.size();
        let m = self.indices.len();
        let expected = rows.saturating_mul(size);
        if x.len() != expected {
            return Err(WhtError::LengthMismatch {
                expected,
                got: x.len(),
            });
        }
        if out.len() != rows * m {
            return Err(WhtError::LengthMismatch {
                expected: rows * m,
                got: out.len(),
            });
        }
        if rows == 0 {
            return Ok(());
        }
        let w = T::LANES;
        // One scratch serves both paths: the transposed lane group of the
        // fused path, and the row buffer of the per-row fallback.
        let needed = w * size;
        if scratch.len() < needed {
            scratch.resize(needed, T::ZERO);
        }
        let fused = rows >= w
            && (size <= BATCH_MAX_ELEMS
                || (size <= FUSED_SKETCH_MAX_ELEMS && signed_gather_in_registers::<T>(size, w)));
        let groups = if fused {
            let backend = compiled.flat_backend();
            let group = w * size;
            for g in 0..rows / w {
                let block = &x[g * group..(g + 1) * group];
                let tblock = &mut scratch[..group];
                // SAFETY: block and tblock both hold exactly w·size
                // elements and signs covers all size coordinates.
                unsafe { gather_lanes_signed(block, size, w, &self.signs, tblock) };
                for p in compiled.passes() {
                    for sweep in transposed_sweeps(p, w).into_iter().flatten() {
                        // SAFETY: every flat pass of a CompiledPlan spans
                        // exactly size elements at base 0, stride 1 —
                        // compile emits them so, the lowering stages keep
                        // them so, and from_super_passes proves it
                        // (verify_flat_passes) — so each sweep of the
                        // scaled pass spans size·w == tblock.len().
                        unsafe { sweep.apply_full_backend(tblock, backend) };
                    }
                }
                // SAFETY: every index is < size (constructor invariant),
                // so index·w + w - 1 < size·w; the destination rows are
                // exactly w·m elements.
                unsafe {
                    scatter_lanes_sampled(
                        &mut out[g * w * m..(g + 1) * w * m],
                        m,
                        w,
                        &self.indices,
                        tblock,
                    )
                };
            }
            rows / w
        } else {
            0
        };
        // Per-row composition for the remainder (and for disengaged
        // batches): signed copy, the ordinary executor's schedule replay,
        // sampled store — the same DAG the fused path runs.
        let rowbuf = &mut scratch[..size];
        for row in groups * w..rows {
            let src = &x[row * size..(row + 1) * size];
            for (j, (dst, &v)) in rowbuf.iter_mut().zip(src).enumerate() {
                *dst = if self.signs[j] < 0 { T::ZERO - v } else { v };
            }
            for sp in compiled.super_passes() {
                // SAFETY: rowbuf is exactly size elements — the apply
                // invariant.
                unsafe { sp.apply_all(rowbuf) };
            }
            for (o, &j) in out[row * m..(row + 1) * m].iter_mut().zip(&self.indices) {
                *o = rowbuf[j];
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{BatchPolicy, ExecPolicy};
    use crate::plan::Plan;
    use crate::testkit::{random_plan, random_signal};

    /// The reference composition, spelled out: sign-flip (same negation
    /// op as the fused load), full WHT through the same compiled
    /// schedule, subsample.
    fn reference_sketch<T: Scalar>(
        srht: &Srht,
        compiled: &CompiledPlan,
        x: &[T],
        rows: usize,
    ) -> Vec<T> {
        let size = compiled.size();
        let m = srht.sample_len();
        let mut out = Vec::with_capacity(rows * m);
        for row in 0..rows {
            let mut buf: Vec<T> = x[row * size..(row + 1) * size]
                .iter()
                .zip(srht.signs())
                .map(|(&v, &s)| if s < 0 { T::ZERO - v } else { v })
                .collect();
            compiled.apply(&mut buf).unwrap();
            out.extend(srht.indices().iter().map(|&j| buf[j]));
        }
        out
    }

    fn check_all_scalars(compiled: &CompiledPlan, srht: &Srht, rows: usize, seed: u64) {
        fn check<T: Scalar>(compiled: &CompiledPlan, srht: &Srht, rows: usize, seed: u64) {
            let size = compiled.size();
            let x: Vec<T> = random_signal(rows * size, seed);
            let want = reference_sketch(srht, compiled, &x, rows);
            let mut got = vec![T::ZERO; rows * srht.sample_len()];
            srht.sketch_batch(compiled, &x, rows, &mut got).unwrap();
            assert_eq!(got, want, "rows {rows}");
        }
        check::<f64>(compiled, srht, rows, seed);
        check::<f32>(compiled, srht, rows, seed);
        check::<i64>(compiled, srht, rows, seed);
        check::<i32>(compiled, srht, rows, seed);
    }

    #[test]
    fn sketch_matches_the_reference_composition_for_every_scalar_type() {
        // Sizes at and below the batch stage's cap (every type runs the
        // fused path) and past it (f64 on AVX2 hosts still does, the other
        // types replay per row). A single leaf keeps its codelet in the
        // lowered schedule, which at n = 6 the fused path runs as two
        // sweeps.
        for n in [3u32, 4, 6, 9] {
            let srht = Srht::new(n, (1usize << n) / 2, 7 * u64::from(n)).unwrap();
            let mut plans = vec![
                Plan::iterative(n).unwrap(),
                Plan::balanced(n, 3).unwrap(),
                random_plan(n, 99 + u64::from(n)),
            ];
            plans.extend(Plan::leaf(n).ok());
            for (i, plan) in plans.iter().enumerate() {
                let compiled = CompiledPlan::compile(plan).lower(&ExecPolicy {
                    batch: BatchPolicy::new(1),
                    ..ExecPolicy::default()
                });
                assert_eq!(compiled.is_batched(), n <= 4);
                // Engaged groups, remainders, sub-group batches, and a
                // batch of one.
                for rows in [1usize, 5, 16, 19, 48] {
                    check_all_scalars(&compiled, &srht, rows, u64::from(n) * 31 + i as u64);
                }
            }
        }
    }

    #[test]
    fn sketch_bits_do_not_depend_on_the_batch_stage() {
        // The sketch's engagement does not follow the batch product: with
        // the batch stage on or off, its fused lane groups and per-row
        // remainder reproduce the reference composition.
        let n = 4u32;
        let srht = Srht::new(n, 5, 3).unwrap();
        let plan = Plan::binary_iterative(n, 2).unwrap();
        let on = CompiledPlan::compile(&plan).lower(&ExecPolicy {
            batch: BatchPolicy::new(1),
            ..ExecPolicy::default()
        });
        let off = CompiledPlan::compile(&plan).lower(&ExecPolicy {
            batch: BatchPolicy::disabled(),
            ..ExecPolicy::default()
        });
        assert!(on.is_batched() && !off.is_batched());
        for compiled in [&on, &off] {
            check_all_scalars(compiled, &srht, 37, 11);
        }
    }

    #[test]
    fn sketch_agrees_with_the_naive_transform() {
        // Ground-truth anchor: the same composition through naive_wht,
        // within float tolerance.
        let n = 6u32;
        let size = 1usize << n;
        let srht = Srht::new(n, 16, 21).unwrap();
        let compiled =
            CompiledPlan::compile(&Plan::iterative(n).unwrap()).lower(&ExecPolicy::default());
        let rows = 20;
        let x: Vec<f64> = random_signal(rows * size, 5);
        let mut got = vec![0.0; rows * 16];
        srht.sketch_batch(&compiled, &x, rows, &mut got).unwrap();
        for row in 0..rows {
            let signed: Vec<f64> = x[row * size..(row + 1) * size]
                .iter()
                .zip(srht.signs())
                .map(|(&v, &s)| f64::from(s) * v)
                .collect();
            let full = crate::reference::naive_wht(&signed);
            for (i, &j) in srht.indices().iter().enumerate() {
                assert!((got[row * 16 + i] - full[j]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn draws_are_deterministic_and_well_formed() {
        let a = Srht::new(10, 100, 1234).unwrap();
        let b = Srht::new(10, 100, 1234).unwrap();
        assert_eq!(a, b);
        let c = Srht::new(10, 100, 1235).unwrap();
        assert_ne!(a, c, "a different seed must draw different operators");
        assert_eq!(a.signs().len(), 1 << 10);
        assert!(a.signs().iter().all(|&s| s == 1 || s == -1));
        assert!(a.signs().contains(&-1));
        assert!(a.signs().contains(&1));
        assert_eq!(a.sample_len(), 100);
        assert!(
            a.indices().windows(2).all(|p| p[0] < p[1]),
            "sorted, distinct"
        );
        assert!(a.indices().iter().all(|&j| j < 1 << 10));
        // Degenerate but legal: keep every coordinate.
        let full = Srht::new(3, 8, 0).unwrap();
        assert_eq!(full.indices(), &[0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn constructor_and_sketch_reject_bad_geometry() {
        assert!(Srht::new(0, 1, 0).is_err());
        assert!(Srht::new(MAX_N + 1, 1, 0).is_err());
        assert!(Srht::new(4, 0, 0).is_err());
        assert!(Srht::new(4, 17, 0).is_err());
        let srht = Srht::new(4, 4, 0).unwrap();
        let compiled = CompiledPlan::compile(&Plan::iterative(5).unwrap());
        let x = vec![0.0f64; 32];
        let mut out = vec![0.0f64; 8];
        // Mismatched transform size is a configuration error.
        assert!(matches!(
            srht.sketch_batch(&compiled, &x, 2, &mut out),
            Err(WhtError::InvalidConfig(_))
        ));
        let right = CompiledPlan::compile(&Plan::iterative(4).unwrap());
        // Wrong input length.
        assert!(srht.sketch_batch(&right, &x[..24], 2, &mut out).is_err());
        // Wrong output length.
        assert!(srht.sketch_batch(&right, &x, 2, &mut out[..7]).is_err());
        // Empty batch is fine.
        assert!(srht.sketch_batch::<f64>(&right, &[], 0, &mut []).is_ok());
    }
}
