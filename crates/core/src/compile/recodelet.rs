//! Lowering stage 3: re-codeleting the lowered schedule (see the module
//! docs' "the lowering pipeline").
//!
//! ## What merges
//!
//! After fusion and relayout, every multi-factor scheduling unit — a
//! fused tile's parts, a relayouted tail's scratch passes — replays a run
//! of **chained** factors over a cache-resident working set: part `i` is
//! `I(r_i) ⊗ WHT(2^{k_i}) ⊗ I(s_i)` with `s_{i+1} = s_i · 2^{k_i}`. Each
//! factor is one load/store pass over the unit's elements, and because
//! the unit is resident those passes cost μops, not memory — the exact
//! floor that capped the relayout stage's win. This stage merges chained
//! factors into larger unrolled codelets, cutting an `m`-factor group's
//! load/store passes to one at identical flops. Trivial single-factor
//! units (the unfused baseline's sweeps) have nothing to merge within
//! and are never touched.
//!
//! ## Why this is bit-identical
//!
//! Two chained factors compose by the same Kronecker identity that
//! justifies flattening —
//!
//! ```text
//! (I ⊗ WHT(2^b) ⊗ I(2^a·s)) · (I ⊗ WHT(2^a) ⊗ I(s))
//!     = I ⊗ WHT(2^{a+b}) ⊗ I(s)
//! ```
//!
//! — and the unrolled codelet for `WHT(2^{a+b})` *is* that product: its
//! butterfly network runs the `h < 2^a` stages (exactly factor one's
//! butterflies on each strided `2^{a+b}`-element group) followed by the
//! `h >= 2^a` stages (factor two's). Within one pass, butterflies touch
//! disjoint pairs, and the strided groups of the merged codelet partition
//! the elements both factors touch, so every add/sub sees the same
//! operands in either grouping: **the same butterfly DAG, so the same
//! output bits** — for floats (no reassociation happens) and integers
//! alike. Property-tested against the recursive and per-factor relayout
//! executors for all four scalar types.
//!
//! ## Why the merge is bounded
//!
//! Bigger is not monotonically better, and both bounds were measured on
//! the reference host (105 MiB-LLC Xeon, 48 KiB L1, 4 KiB pages):
//!
//! - **`max_k`** — a `small[8]` (256-element) group at unit stride
//!   spills its 2 KiB stack buffer out of registers; two `small[4]`s ran
//!   ~15% faster than one `small[8]` on the fused head's contiguous
//!   group.
//! - **`footprint_elems`** — a merged codelet call at inner extent `s`
//!   touches `2^k` rows spaced `s` elements apart. At `s` = 1024 (the
//!   default relayout geometry's `cols`), a `small[128]` call's 128 rows
//!   sit 8 KiB apart: every row maps to the *same* L1 set (stride ≡ 0
//!   mod 4 KiB) and a fresh TLB page, and the merged tail measured 10%
//!   *slower* than the per-factor passes it replaced. Capping the span
//!   `2^k · s` keeps each call inside a few pages and spread across L1
//!   sets. Groups of at most [`SMALL_MERGE_ROWS`] rows are exempt —
//!   size-8 codelets at arbitrary strides are the `blocked8` shape the
//!   whole size range measures fast.
//!
//! With the default policy (`max_k = 4`, footprint 4096 elements) the
//! canonical radix-2 plans lower to `[4,4,4,3,2]`-shaped fused tiles and
//! `[4,4,…]`-shaped relayouted tails, and the full pipeline measured
//! 1.9–3.4× over the per-factor relayout executor at n = 16–24.

use crate::plan::MAX_LEAF_K;

use super::{CompiledPlan, Pass, RecodeletPolicy, SuperPass, SMALL_MERGE_ROWS};

impl CompiledPlan {
    /// Regroup every scheduling unit's chained factors into larger
    /// unrolled codelets under `policy`: consecutive parts merge while
    /// their combined exponent stays `<= policy.max_k` and each merged
    /// call's strided span stays within `policy.footprint_elems` (or
    /// [`SMALL_MERGE_ROWS`] rows — greedy, left to right), each merge
    /// replacing `m` load/store passes over the unit with one at
    /// identical flops (see the module docs).
    ///
    /// This is the one lowering stage that rewrites the factor list —
    /// `WHT(2^a) ⊗ WHT(2^b) → WHT(2^{a+b})` is a different (equivalent)
    /// factorization, so [`CompiledPlan::passes`] is re-derived from the
    /// rewritten schedule (via [`SuperPass::flat_pass`], the same mapping
    /// [`CompiledPlan::from_super_passes`] uses). Output bits cannot
    /// change (module docs); single-factor units are never touched; the
    /// backend and unit geometry ride along; and re-applying the stage is
    /// a no-op (the greedy merge is maximal).
    #[must_use]
    pub fn recodelet(&self, policy: &RecodeletPolicy) -> CompiledPlan {
        if !policy.enabled() {
            return self.clone();
        }
        let mut changed = false;
        let schedule: Vec<SuperPass> = self
            .schedule
            .iter()
            .map(|sp| {
                let merged = merge_chained_parts(&sp.parts, sp.tile, policy);
                if merged.len() == sp.parts.len() {
                    return sp.clone();
                }
                changed = true;
                let mut out = sp.clone();
                out.provenance.recodeleted = sp.parts.len() - merged.len();
                out.parts = merged;
                out
            })
            .collect();
        if !changed {
            return self.clone();
        }
        // Re-derive the flat factor list from the rewritten schedule so
        // passes() and super_passes() stay two views of one program.
        let passes = schedule
            .iter()
            .flat_map(|sp| (0..sp.parts.len()).map(move |p| sp.flat_pass(p)))
            .collect();
        CompiledPlan {
            n: self.n,
            passes,
            schedule,
            batch: None,
        }
    }
}

/// Greedy left-to-right merge of chained parts: a part joins the current
/// group when its inner extent equals the group's grown block
/// (`s == s_g · 2^{k_g}`, the chained-stride condition), the combined
/// exponent stays within `max_k`, and the merged call's strided span
/// `2^k · s_g` respects the footprint cap (or the group stays within
/// [`SMALL_MERGE_ROWS`] rows). The merged part's grid is re-derived from
/// the tile it must cover exactly (the verify coverage invariant).
fn merge_chained_parts(parts: &[Pass], tile: usize, policy: &RecodeletPolicy) -> Vec<Pass> {
    let max_k = policy.max_k.min(MAX_LEAF_K);
    let mut out: Vec<Pass> = Vec::with_capacity(parts.len());
    for &part in parts {
        if let Some(group) = out.last_mut() {
            let k = group.k + part.k;
            let chained = part.s == group.s << group.k;
            let call_friendly = (1usize << k.min(usize::BITS - 1))
                .checked_mul(group.s)
                .is_some_and(|span| span <= policy.footprint_elems)
                || (1usize << k.min(usize::BITS - 1)) <= SMALL_MERGE_ROWS;
            if chained && k <= max_k && call_friendly {
                group.k = k;
                group.r = tile / ((1usize << group.k) * group.s);
                continue;
            }
        }
        out.push(part);
    }
    out
}
