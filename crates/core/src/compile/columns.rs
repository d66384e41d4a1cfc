//! Lowering stage 2: the in-place column tail (see the module docs' "the
//! lowering pipeline"), and the chunk kernel every executor replays it
//! with.

use super::{ColumnTail, CompiledPlan, Pass, PassBackend, Provenance, RelayoutPolicy, SuperPass};
use crate::codelets::{apply_codelet, apply_codelet_cols};
use crate::scalar::Scalar;

/// Narrowest chunk the tail stage cuts, in columns: a 64-byte cache line
/// of 4-byte scalars (two of 8-byte ones) and the widest lane block. A
/// narrower chunk would share every cache line of its rows with the next
/// chunk, so replaying chunk by chunk would multiply the tail's traffic
/// instead of cutting it to one sweep.
const MIN_CHUNK_COLS: usize = 16;

/// Most rows (elements per column) a chunk holds. A chunk's rows sit a
/// power-of-two period apart, so once the period is a multiple of the
/// page size the rows differ only in their page-frame address bits and
/// compete for the same cache sets: a 2 MiB, 16-way L2 holds about 512
/// such rows. On a 2-vCPU Xeon with that L2, the planner's n = 24 pick
/// (a 2-factor tail in 1024-row chunks) ran 127–149 ms with its tail
/// grouped and 124–130 ms without, and `Plan::iterative(26)` ran
/// 482–525 ms as one 512-row column tail and 456–477 ms as one sweep
/// plus a 256-row column tail.
const MAX_CHUNK_ROWS: usize = 256;

impl CompiledPlan {
    /// Rewrite the schedule's large-stride **tail** into one column
    /// super-pass under `policy` (see the module docs' "the lowering
    /// pipeline").
    ///
    /// The maximal trailing run of single-factor super-passes (the passes
    /// prefix fusion could not merge) computes `WHT(size / P) ⊗ I(P)`,
    /// with `P` the stride of its first factor, each factor sweeping the
    /// whole vector once. When the run holds at least two factors and the
    /// vector does not fit `policy.budget_elems`, the run is replaced by
    /// one [`ColumnTail`] unit: each of its `P / cols` chunks is `cols`
    /// adjacent residues mod `P` (`size / P · cols` elements, at most the
    /// budget), and every tail factor runs over one chunk, in place,
    /// before the next — cutting the tail's sweeps to one. A chunk is at
    /// least `MIN_CHUNK_COLS` (16) columns wide, so chunks never share a
    /// cache line, and at most `MAX_CHUNK_ROWS` (256) rows deep; when a
    /// column is deeper, or 16 columns (`16 · size / P` elements) exceed
    /// the budget, the earliest tail passes are left in place (they keep
    /// sweeping) and only the suffix that fits is grouped.
    ///
    /// Like [`CompiledPlan::fuse`], this is a regrouping:
    /// [`CompiledPlan::passes`] is unchanged, output bits cannot change
    /// (every tail stride is a multiple of `P`, so each residue class mod
    /// `P` sees its butterflies in schedule order whatever the chunk
    /// order; property-tested against the recursive and direct compiled
    /// paths), and the backend rides along. Applying it to a schedule
    /// whose tail is already grouped returns an equal schedule.
    #[must_use]
    pub(crate) fn column_tail(&self, policy: &RelayoutPolicy) -> CompiledPlan {
        let size = 1usize << self.n;
        let mut schedule = self.schedule.clone();
        'tail: {
            // A vector that fits the chunk budget is already
            // "cache-resident" by this policy's own definition: one chunk
            // would be the whole vector, replayed pass-major as before.
            if !policy.enabled() || size <= policy.budget_elems {
                break 'tail;
            }
            // The maximal trailing run of trivial single-factor units
            // (one part, one vector-spanning tile, not already a column
            // tail), with chained strides.
            let mut start = schedule.len();
            while start > 0 {
                let sp = &schedule[start - 1];
                if sp.columns.is_some()
                    || sp.parts.len() != 1
                    || sp.tiles != 1
                    || sp.base != 0
                    || sp.stride != 1
                    || sp.parts[0].base != 0
                    || sp.parts[0].stride != 1
                {
                    break;
                }
                if start < schedule.len() {
                    // Strides must chain: next pass's s = this one's
                    // s * 2^k (always true for compiled schedules; guards
                    // hand-built ones).
                    let this = sp.parts[0];
                    let next = schedule[start].parts[0];
                    if next.s != this.s << this.k {
                        break;
                    }
                }
                start -= 1;
            }
            // Shrink from the left until the column depth is at most
            // MAX_CHUNK_ROWS and the narrowest chunk fits the budget (each
            // drop multiplies the period by the dropped factor's size,
            // dividing the column depth).
            while start < schedule.len() && {
                let depth = size / schedule[start].parts[0].s;
                depth > MAX_CHUNK_ROWS || depth * MIN_CHUNK_COLS > policy.budget_elems
            } {
                start += 1;
            }
            if schedule.len() - start < 2 {
                break 'tail;
            }
            let period = schedule[start].parts[0].s;
            let depth = size / period;
            // Widest power-of-two chunk whose elements fit the budget,
            // capped at the whole row (at least MIN_CHUNK_COLS: the period
            // is a multiple of 16 once the column depth times 16 fits a
            // budget below the vector). A power of two always divides the
            // power-of-two period, so the chunks partition the vector.
            let max_cols = (policy.budget_elems / depth).min(period);
            let cols = 1usize << max_cols.ilog2();
            let tile = depth * cols;
            let backend = schedule[start].backend;
            let parts = schedule[start..]
                .iter()
                .map(|sp| {
                    let p = sp.parts[0];
                    let s = cols * (p.s / period);
                    Pass {
                        k: p.k,
                        r: tile / ((1usize << p.k) * s),
                        s,
                        base: 0,
                        stride: 1,
                    }
                })
                .collect();
            schedule.truncate(start);
            schedule.push(SuperPass {
                parts,
                tile,
                tiles: period / cols,
                base: 0,
                stride: 1,
                backend,
                columns: Some(ColumnTail { period, cols }),
                provenance: Provenance {
                    relayouted: true,
                    ..Provenance::default()
                },
            });
        }
        CompiledPlan {
            n: self.n,
            passes: self.passes.clone(),
            schedule,
            batch: None,
        }
    }
}

/// Run every pass of `passes`, in order, over the residues
/// `[c0, c0 + width)` mod `period` only — one chunk of a column tail.
/// This is the one chunk kernel: [`SuperPass::apply_tile`] runs a column
/// tail's chunk `j` through it, for [`CompiledPlan::apply`] and the
/// parallel engine's chunk claims alike.
///
/// Each pass's inner extent `s` is a multiple of `period`, so every
/// stretch of `period` columns in a row holds the chunk's residues once:
/// the kernel runs one `width`-column row fragment per stretch per row,
/// on the lane kernels ([`apply_codelet_cols`]) under
/// [`PassBackend::Lanes`] at unit global stride, through the scalar
/// codelet otherwise. Because each pass maps each residue class mod
/// `period` onto itself, the chunks of one unit are write-disjoint
/// across *all* its passes, and every column sees the same butterflies
/// in the same order as a pass-major replay: output is bit-identical
/// whatever order the chunks run in.
///
/// # Safety
/// Every pass lies in `x` (`base + (span() − 1)·stride < x.len()`) with
/// an inner extent that is a multiple of `period`, and
/// `c0 + width <= period`. [`CompiledPlan::verify`] proves the first two
/// for the in-place passes of a column unit
/// ([`SuperPass::flat_pass`]).
pub(crate) unsafe fn apply_columns<T: Scalar>(
    x: &mut [T],
    passes: impl IntoIterator<Item = Pass>,
    backend: PassBackend,
    period: usize,
    c0: usize,
    width: usize,
) {
    debug_assert!(c0 + width <= period);
    for pass in passes {
        debug_assert!(pass.s.is_multiple_of(period));
        let lanes = backend == PassBackend::Lanes && pass.stride == 1;
        let block = (1usize << pass.k) * pass.s;
        for j in 0..pass.r {
            let row = pass.base + j * block * pass.stride;
            let mut t = c0;
            while t < pass.s {
                let start = row + t * pass.stride;
                // SAFETY: the fragment is columns [t, t + width) of row j
                // with t ≡ c0 mod period, so t + width <= s (s is a
                // multiple of period and c0 + width <= period): every
                // element is one of the pass's own, inside x by the
                // caller's contract. For the lane kernel stride == 1 and
                // width <= period <= s.
                unsafe {
                    if lanes {
                        apply_codelet_cols(pass.k, x, start, pass.s, width);
                    } else {
                        for c in 0..width {
                            apply_codelet(
                                pass.k,
                                x,
                                start + c * pass.stride,
                                pass.codelet_stride(),
                            );
                        }
                    }
                }
                t += period;
            }
        }
    }
}
