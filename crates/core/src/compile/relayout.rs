//! Lowering stage 2: DDL tail relayout (see the module docs' "the
//! lowering pipeline").

use super::{CompiledPlan, Pass, Provenance, Relayout, RelayoutPolicy, SuperPass};

impl CompiledPlan {
    /// Rewrite the schedule's large-stride **tail** into a relayout
    /// super-pass under `policy` (the paper's DDL idea, lifted into the
    /// compiled executor — see the module docs' "the lowering pipeline").
    ///
    /// The maximal trailing run of single-factor super-passes (the passes
    /// prefix fusion could not merge) computes `WHT(rows) ⊗ I(row_stride)`
    /// on the vector viewed as an `rows × row_stride` matrix, each factor
    /// sweeping the whole vector once. When the run is at least
    /// `policy.min_passes` long, the vector spans at least
    /// `policy.min_elems`, and a gathered block of `rows · cols` elements
    /// fits `policy.budget_elems`, the run is replaced by one relayout
    /// unit: each of the `row_stride / cols` blocks gathers `cols`
    /// contiguous columns into scratch, streams **all** tail factors over
    /// the cache-resident scratch at unit global stride (so the SIMD lane
    /// kernels apply), and scatters back — cutting the tail's
    /// `min_passes..` full memory sweeps to the gather's read sweep plus
    /// the scatter's write sweep. When `rows` alone exceeds the budget,
    /// the earliest tail passes are left in place (they keep sweeping)
    /// and only the suffix that fits is gathered.
    ///
    /// Like [`CompiledPlan::fuse`], this is a regrouping:
    /// [`CompiledPlan::passes`] is unchanged, output bits cannot change
    /// (property-tested against the recursive and direct compiled
    /// paths), and the backend rides along. Applying it to a schedule
    /// whose tail is already relayouted returns an equal schedule.
    #[must_use]
    pub fn relayout(&self, policy: &RelayoutPolicy) -> CompiledPlan {
        let size = 1usize << self.n;
        let mut schedule = self.schedule.clone();
        'relayout: {
            // A vector that fits the gathered-block budget is already
            // "cache-resident" by this policy's own definition — gathering
            // it would be a pure copy of everything for no saved sweep.
            if !policy.enabled() || size < policy.min_elems.max(2) || size <= policy.budget_elems {
                break 'relayout;
            }
            // The maximal trailing run of trivial single-factor units
            // (one part, one vector-spanning tile, not already a
            // relayout), with chained strides.
            let mut start = schedule.len();
            while start > 0 {
                let sp = &schedule[start - 1];
                if sp.relayout.is_some()
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
            // Shrink from the left until the gathered rows fit the
            // budget (each drop multiplies row_stride by the dropped
            // factor's size, dividing rows).
            while start < schedule.len() && size / schedule[start].parts[0].s > policy.budget_elems
            {
                start += 1;
            }
            let tail = schedule.len() - start;
            if tail < policy.min_passes.max(2) {
                break 'relayout;
            }
            let row_stride = schedule[start].parts[0].s;
            let rows = size / row_stride;
            // Widest power-of-two column block whose gathered span fits
            // the budget (capped at the full row, in which case the
            // "gather" is a single contiguous run per block). A power of
            // two always divides the power-of-two row length, so the
            // blocks partition the vector exactly.
            let max_cols = (policy.budget_elems / rows).min(row_stride);
            let cols = if max_cols.is_power_of_two() {
                max_cols
            } else {
                max_cols.next_power_of_two() >> 1
            };
            debug_assert!(cols >= 1 && row_stride.is_multiple_of(cols));
            let tile = rows * cols;
            let backend = schedule[start].backend;
            let parts = schedule[start..]
                .iter()
                .map(|sp| {
                    let p = sp.parts[0];
                    let s = cols * (p.s / row_stride);
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
                tiles: row_stride / cols,
                base: 0,
                stride: 1,
                backend,
                relayout: Some(Relayout {
                    rows,
                    row_stride,
                    cols,
                }),
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
