//! Lowering stage 3: re-codeleting the lowered schedule (see the module
//! docs' "the lowering pipeline").
//!
//! ## What regroups
//!
//! After fusion and the column tail, every multi-part scheduling unit —
//! a fused tile's parts, a column tail's parts — replays a run
//! of **chained** factors over a cache-resident working set: part `i` is
//! `I(r_i) ⊗ WHT(2^{k_i}) ⊗ I(s_i)` with `s_{i+1} = s_i · 2^{k_i}`. Every
//! plan in the family runs the same radix-2 butterfly levels there (inner
//! extents `s_0, 2·s_0, 4·s_0, …`, in order); the plan's leaves only
//! choose how those levels are grouped into `small[k]` codelets. Because
//! the unit is resident, each codelet is one load/store pass that costs
//! μops, not memory, so this stage chooses the grouping again for the
//! executor: it expands every part `small[k]@s` into its `k` chained
//! `small[1]` levels and merges the levels back, greedily, into the
//! largest codelets the policy allows. Small leaves merge (an `m`-factor
//! group's load/store passes drop to one at identical flops) and large
//! ones split (a fused tile's `small[6]` replays as `small[4]` +
//! `small[2]`), so `max_k` caps every codelet a multi-part unit replays,
//! whatever leaves the plan had. Single-part units (the unfused
//! baseline's sweeps, a single-leaf plan) are never touched.
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
//! alike. Read right to left, the identity splits a codelet into its
//! levels, so expanding and re-merging is bit-identical too.
//! Property-tested against the recursive and per-factor column executors
//! for all four scalar types.
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
//!   touches `2^k` rows spaced `s` elements apart. At `s` = 1024, a
//!   `small[128]` call's 128 rows sit 8 KiB apart: every row maps to the
//!   *same* L1 set (stride ≡ 0 mod 4 KiB) and a fresh TLB page, and the
//!   merged tail measured 10% *slower* than the per-factor passes it
//!   replaced. Capping the span `2^k · s` keeps each call inside a few
//!   pages and spread across L1 sets. Groups of at most
//!   [`SMALL_MERGE_ROWS`] rows are exempt — size-8 codelets at arbitrary
//!   strides are the `blocked8` shape the whole size range measures fast.
//!   A column tail's calls run at its *in-place* strides (multiples of
//!   its period), so its span is measured there, not in the chunk
//!   coordinates its parts are stored in: past the default fusion budget
//!   only the eight-row exemption can merge its factors.
//!
//! With the default policy (`max_k = 4`, footprint 4096 elements) every
//! plan's multi-part units lower to `[4,4,4,3,2]`-shaped fused tiles and
//! `[3,3,…]`-shaped column tails (the canonical n = 24 tail is
//! `small[3]@2^17, small[3]@2^20, small[1]@2^23`). The regrouping depends
//! only on a unit's levels, so when `2^n` fits
//! [`FusionPolicy::DEFAULT_BUDGET_ELEMS`](super::FusionPolicy::DEFAULT_BUDGET_ELEMS)
//! (one fused tile) every plan with two or more leaves lowers to
//! `Plan::iterative(n)`'s schedule.

use crate::plan::MAX_LEAF_K;

use super::{CompiledPlan, Pass, RecodeletPolicy, SuperPass, SMALL_MERGE_ROWS};

impl CompiledPlan {
    /// Re-derive every multi-part unit's codelets from its radix-2 levels
    /// under `policy`: each part `small[k]@s` expands into its `k` chained
    /// `small[1]` levels, and consecutive levels merge while their
    /// combined exponent stays `<= policy.max_k` and each merged call's
    /// strided span stays within `policy.footprint_elems` (or
    /// [`SMALL_MERGE_ROWS`] rows) — greedy, left to right (see the module
    /// docs).
    ///
    /// This is the one lowering stage that rewrites the factor list —
    /// `WHT(2^a) ⊗ WHT(2^b) ↔ WHT(2^{a+b})` is a different (equivalent)
    /// factorization, so [`CompiledPlan::passes`] is re-derived from the
    /// rewritten schedule (via [`SuperPass::flat_pass`], the same mapping
    /// [`CompiledPlan::from_super_passes`] uses). Output bits cannot
    /// change (module docs); single-part units are never touched; the
    /// backend and unit geometry ride along; and re-applying the stage is
    /// a no-op (the regrouping depends only on the unit's levels, which it
    /// keeps).
    #[must_use]
    pub(crate) fn recodelet(&self, policy: &RecodeletPolicy) -> CompiledPlan {
        if !policy.enabled() {
            return self.clone();
        }
        let mut changed = false;
        let schedule: Vec<SuperPass> = self
            .schedule
            .iter()
            .map(|sp| {
                if sp.parts.len() < 2 {
                    return sp.clone();
                }
                // Chunk coordinates shrink a column tail's strides by
                // period / cols; its calls run at the in-place ones.
                let scale = sp.columns.map_or(1, |g| g.period / g.cols.max(1));
                let regrouped =
                    merge_chained_parts(levels(&sp.parts, sp.tile), sp.tile, scale, policy);
                // Compare parts, not counts: (3, 5) -> (4, 4) keeps two.
                if regrouped == sp.parts {
                    return sp.clone();
                }
                changed = true;
                let level_count: usize = sp.parts.iter().map(|p| p.k as usize).sum();
                let mut out = sp.clone();
                out.provenance.recodeleted = level_count.saturating_sub(regrouped.len());
                out.parts = regrouped;
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

/// The radix-2 levels of a unit's parts, in execution order: part
/// `small[k]@s` is the `k` chained `small[1]` factors at inner extents
/// `s, 2·s, …, 2^{k-1}·s`, each re-gridded to cover the `tile`.
fn levels(parts: &[Pass], tile: usize) -> impl Iterator<Item = Pass> + '_ {
    parts.iter().flat_map(move |&part| {
        (0..part.k).map(move |i| {
            let s = part.s << i;
            Pass {
                k: 1,
                r: tile / (2 * s),
                s,
                ..part
            }
        })
    })
}

/// Greedy left-to-right merge of chained parts: a part joins the current
/// group when its inner extent equals the group's grown block
/// (`s == s_g · 2^{k_g}`, the chained-stride condition), the combined
/// exponent stays within `max_k`, and the merged call's strided span
/// `2^k · s_g · scale` (`scale` maps the stored inner extent to the one
/// the call runs at) respects the footprint cap (or the group stays
/// within [`SMALL_MERGE_ROWS`] rows). The merged part's grid is
/// re-derived from the tile it must cover exactly (the verify coverage
/// invariant).
fn merge_chained_parts(
    parts: impl Iterator<Item = Pass>,
    tile: usize,
    scale: usize,
    policy: &RecodeletPolicy,
) -> Vec<Pass> {
    let max_k = policy.max_k.min(MAX_LEAF_K);
    let mut out: Vec<Pass> = Vec::new();
    for part in parts {
        if let Some(group) = out.last_mut() {
            let k = group.k + part.k;
            let chained = part.s == group.s << group.k;
            let call_friendly = (1usize << k.min(usize::BITS - 1))
                .checked_mul(group.s)
                .and_then(|span| span.checked_mul(scale))
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
