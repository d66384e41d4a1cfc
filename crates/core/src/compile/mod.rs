//! Compiled-plan execution: flatten a [`Plan`] into a pass schedule once,
//! lower it through a staged rewrite pipeline, replay it with zero
//! recursion.
//!
//! ## Why flattening is possible
//!
//! Equation 1 factors `WHT(2^n)` into Kronecker products, and Kronecker
//! factors compose: `I ⊗ (X·Y) ⊗ I = (I ⊗ X ⊗ I) · (I ⊗ Y ⊗ I)`.
//! Substituting every split of a plan into its parent therefore rewrites
//! the whole tree as a *flat* product with exactly one factor per leaf,
//!
//! ```text
//! WHT(2^n) = prod_{leaf ℓ} ( I(R_ℓ) ⊗ WHT(2^{k_ℓ}) ⊗ I(S_ℓ) )
//! ```
//!
//! where `S_ℓ` is the product of the sizes of all factors applied before
//! `ℓ` (everything to its right in the product) and `R_ℓ = 2^n / (2^{k_ℓ}
//! S_ℓ)`. Each factor is one [`Pass`]: codelet `k` applied `R·S` times at
//! stride `S` — the engine's `(r, s)` loop pair, hoisted to the top level.
//! [`CompiledPlan::compile`] emits passes in the engine's exact
//! right-to-left factor order, so compilation is a pure schedule
//! transformation: pay the tree walk once, then every
//! [`CompiledPlan::apply`] is a branch-light linear sweep over the
//! schedule with precomputed strides — no recursion, no re-derived
//! stride arithmetic on the hot path.
//!
//! ## The lowering pipeline
//!
//! Between compilation and execution the schedule passes through a
//! sequence of explicit rewrite **stages** over the [`SuperPass`]
//! schedule IR — each one a verified, output-bit-preserving rewrite,
//! each gated by one field of a single [`ExecPolicy`]
//! ([`CompiledPlan::lower`] runs them in order):
//!
//! 1. **Fuse** ([`FusionPolicy`]) — merge
//!    contiguous small-stride pass runs into cache-blocked super-passes.
//!    A pass at stride `S` covering the whole vector streams all `2^n`
//!    elements through the cache; a `t`-factor plan therefore moves `t`
//!    vector-sized sweeps of memory traffic, which is exactly where the
//!    paper says WHT performance is won or lost once `2^n` outgrows the
//!    cache. Consecutive passes at strides `S, S·2^{k_1}, …` all stay
//!    inside *contiguous blocks* of `B = S·2^{k_1+…+k_m}` elements, so the
//!    stage greedily merges the longest runs whose block size `B` (the
//!    *tile*) fits [`FusionPolicy::budget_elems`]: one [`SuperPass`]
//!    iterates each of the `2^n / B` tiles through **all** fused factors
//!    before moving on, dropping the run's traffic from `m` sweeps to one.
//!    Because strides multiply monotonically, only the small-stride prefix
//!    can fuse.
//! 2. **Column tail** ([`RelayoutPolicy`]) — the paper's remedy for the
//!    unfusable large-stride tail, run in place. The tail computes
//!    `WHT(size / P) ⊗ I(P)` with `P` the stride of its first factor, and
//!    every tail stride is a multiple of `P`, so each residue class mod
//!    `P` (one *column* of the vector viewed as a `size/P × P` matrix) is
//!    closed under the whole tail. A [`ColumnTail`] super-pass therefore
//!    replays the tail **chunk by chunk**: a chunk is `cols` adjacent
//!    residues, its elements fit the cache budget, and every tail factor
//!    runs over it in place while it stays resident — collapsing the
//!    tail's many sweeps to one, with no copies and no scratch.
//! 3. **Re-codelet**
//!    ([`RecodeletPolicy`]) — once a unit's working set is cache-resident
//!    (a fused tile, a column chunk), its per-factor passes are
//!    load/store-μop-bound, not memory-bound, and its factors are
//!    chained (`s, s·2^{k_1}, …`): together they run the radix-2
//!    butterfly levels at `s, 2·s, 4·s, …` that every plan runs there, in
//!    the plan's grouping. The stage re-derives each multi-part unit's
//!    codelets from those levels: every part `small[k]` expands into its
//!    `k` chained `small[1]` levels, and consecutive levels merge into
//!    the largest unrolled codelets `max_k` and a measured per-call
//!    footprint rule allow (see the stage docs) —
//!    `WHT(2^a) ⊗ WHT(2^b) ↔ WHT(2^{a+b})`, the same Kronecker identity
//!    the codelets already unroll internally. Small leaves merge (`m`
//!    chained factors cost one load/store pass at identical flops) and
//!    large ones split, so no multi-part unit replays a codelet past
//!    `max_k` — the same butterfly DAG, so output is bit-identical.
//!    Single-part units are never touched.
//! 4. **Backend select** ([`crate::codelets::SimdPolicy`]) — record which
//!    kernel replays each unit ([`PassBackend`]): the scalar per-column
//!    codelet loop, or the SIMD lane-block kernels of [`crate::codelets`].
//! 5. **Batch** ([`BatchPolicy`]) — build the [`BatchSchedule`] that
//!    [`CompiledPlan::apply_batch`] runs across adjacent transforms.
//! 6. **Stream** ([`StreamPolicy`]) — mark the batch product's copy
//!    sweeps for the streaming-store memory codelets.
//!
//! The stages are not callable one by one: [`CompiledPlan::lower`] is the
//! only way through them, so the verifier it runs after every stage in
//! debug builds cannot be skipped. To run a subset, lower under
//! [`ExecPolicy::all_disabled`] with the wanted stages switched back on
//! (`ExecPolicy::all_disabled().with_fusion(…)`).
//!
//! Every stage is a **schedule rewrite, never a semantics change**: the
//! recursive engine interleaves nested factors (block-major), the compiled
//! schedule runs pass-major, a fused super-pass tile-major, a column tail
//! chunk-major — but the multiset of butterfly
//! operations and the values they see are identical in all of them (each
//! stage's docs carry the argument), so every lowered schedule agrees with
//! the interpreter **bit for bit**, property-tested for all four scalar
//! types over random plans and policies.
//!
//! Each stage records what it did on the unit it produced
//! ([`SuperPass::provenance`]), and [`CompiledPlan::verify`] re-proves
//! the schedule invariants after every stage in debug builds. The
//! lowered schedule is the only place a transform is cut into units of
//! work: [`CompiledPlan::apply`] runs every unit tile by tile through
//! [`SuperPass::apply_tile`], and the parallel engine claims the same
//! tiles (or, for a one-tile unit, ranges of its flat passes).
//!
//! ## One policy, one cache
//!
//! [`crate::apply_plan`] replays schedules lowered under
//! `ExecPolicy::default()`, served from a per-thread cache keyed by
//! `(plan, ExecPolicy)` — one key covering every stage, so mixed-policy
//! traffic never cross-talks and adding a stage never adds a cache layer.
//! [`compiled_for_exec`] serves any other configuration from the same
//! cache.

mod columns;
mod fuse;
mod policy;
mod recodelet;
#[cfg(test)]
mod tests;

use columns::apply_columns;
pub use policy::{
    BatchPolicy, ExecKey, ExecPolicy, FusionPolicy, RecodeletPolicy, RelayoutPolicy, StreamPolicy,
    SMALL_MERGE_ROWS,
};

use crate::codelets::{
    apply_codelet, apply_pass_lanes, gather_lanes_tile, gather_lanes_tile_prefetch,
    scatter_lanes_tile, scatter_lanes_tile_stream, SimdPolicy,
};
use crate::error::WhtError;
use crate::plan::Plan;
use crate::scalar::Scalar;
use crate::verify::VerifySite;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// One factor `I(r) ⊗ WHT(2^k) ⊗ I(s)` of the flattened product: codelet
/// `small[k]` applied over the `r × s` iteration grid.
///
/// Invocation `(j, t)` (for `j < r`, `t < s`) runs the codelet on the
/// strided vector starting at `base + (j·2^k·s + t)·stride` with element
/// stride `s·stride`. Top-level schedules have `base = 0, stride = 1`; the
/// fields exist so sub-ranges of a pass can be described (the parallel
/// engine shards the grid, fused super-passes restrict passes to tiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pass {
    /// Leaf codelet exponent (`small[k]`, size `2^k`).
    pub k: u32,
    /// Outer grid extent: number of `2^k·s`-element blocks.
    pub r: usize,
    /// Inner grid extent — also the codelet stride in units of `stride`.
    pub s: usize,
    /// Base element offset of the pass.
    pub base: usize,
    /// Global stride multiplier applied to every index of the pass.
    pub stride: usize,
}

impl Pass {
    /// Number of codelet invocations in this pass (`r·s`).
    #[inline]
    pub fn invocations(&self) -> usize {
        self.r * self.s
    }

    /// Elements covered by the pass (`r · 2^k · s`), each touched once.
    #[inline]
    pub fn span(&self) -> usize {
        self.r * ((1usize << self.k) * self.s)
    }

    /// Element stride the codelet runs at.
    #[inline]
    pub fn codelet_stride(&self) -> usize {
        self.s * self.stride
    }

    /// Start index of invocation `q` (linearized `j·s + t`).
    #[inline]
    pub fn invocation_base(&self, q: usize) -> usize {
        let j = q / self.s;
        let t = q % self.s;
        self.base + (j * ((1usize << self.k) * self.s) + t) * self.stride
    }

    /// Run the whole pass on `x` (all `r·s` invocations, in grid order)
    /// through the scalar per-column codelet loop.
    ///
    /// # Safety
    /// `base + (span() - 1) · stride < x.len()`.
    unsafe fn apply_full<T: Scalar>(&self, x: &mut [T]) {
        let block = (1usize << self.k) * self.s;
        let codelet_stride = self.codelet_stride();
        for j in 0..self.r {
            let row = self.base + j * block * self.stride;
            for t in 0..self.s {
                // SAFETY: row + (s-1)·stride + (2^k - 1)·s·stride
                // = base + (j·block + block - 1)·stride <= the bound in the
                // function contract.
                unsafe { apply_codelet(self.k, x, row + t * self.stride, codelet_stride) };
            }
        }
    }

    /// Run the whole pass through the kernel `backend` selects: the
    /// lane-block kernels for [`PassBackend::Lanes`] (they require the
    /// unit global stride every valid schedule has; a non-unit stride
    /// falls back to the scalar loop rather than mis-indexing), the
    /// scalar per-column loop otherwise. Bit-identical either way.
    ///
    /// # Safety
    /// `base + (span() - 1) · stride < x.len()`.
    #[inline]
    pub(crate) unsafe fn apply_full_backend<T: Scalar>(&self, x: &mut [T], backend: PassBackend) {
        // SAFETY: (both arms) forwarded contract; for the lane kernel,
        // stride == 1 makes the bound exactly base + r·2^k·s - 1 < len.
        unsafe {
            match backend {
                PassBackend::Lanes if self.stride == 1 => {
                    apply_pass_lanes(self.k, x, self.base, self.r, self.s)
                }
                _ => self.apply_full(x),
            }
        }
    }

    /// Pass span as `Option`, `None` on arithmetic overflow (hand-built
    /// schedules can hold absurd extents; validation must not panic).
    fn checked_span(&self) -> Option<usize> {
        if self.k >= usize::BITS {
            return None;
        }
        (1usize << self.k).checked_mul(self.s)?.checked_mul(self.r)
    }
}

/// Which kernel replays a scheduling unit's codelet work — recorded on
/// every [`SuperPass`] so the executed program is a property of the
/// schedule itself: `apply` and the parallel engine read one record
/// instead of re-deciding.
///
/// Both backends run the same butterfly operations on the same values
/// (vector lanes never interact in add/sub), so the backend choice is
/// observable in speed, never in output bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PassBackend {
    /// The per-column scalar codelet loop (`small[k]` once per `(j, t)`
    /// grid point).
    #[default]
    Scalar,
    /// The SIMD lane-block kernels of [`crate::codelets`]: butterflies
    /// over `[T; `[`Scalar::LANES`]`]` unit-stride column blocks, with
    /// AVX2-compiled float variants selected at runtime.
    Lanes,
}

/// Geometry of one column super-pass (the compiled executor's tail
/// stage — see the module docs' "the lowering pipeline").
///
/// The vector is viewed as a `size / period × period` row-major matrix.
/// Every part's in-place stride is a multiple of `period`, so each column
/// (residue class mod `period`) is closed under the whole unit. Chunk `c`
/// is the columns `c·cols .. (c+1)·cols`; [`SuperPass::apply_tile`] runs
/// every part over one chunk, in place, while the chunk's `size / period
/// · cols` elements stay cache-resident. `cols` is a power of two dividing
/// `period`, so the `period / cols` chunks partition the vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnTail {
    /// Row length of the matrix view — the in-place stride of the unit's
    /// first part (the product of all factor sizes applied before it).
    pub period: usize,
    /// Columns (residues mod `period`) per chunk.
    pub cols: usize,
}

/// Per-unit record of what the lowering pipeline did — the **per-stage
/// provenance** of a scheduling unit, stamped by each stage that rewrote
/// it, so verifier diagnostics and measurement consumers can attribute a
/// unit to the stage that caused it (structure like
/// [`SuperPass::is_fused`] says what a unit *is*; provenance says which
/// rewrite *made it so*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Provenance {
    /// The fuse stage merged two or more factors into this unit.
    pub fused: bool,
    /// The tail stage ([`RelayoutPolicy`]) grouped this unit's factors
    /// into a column super-pass.
    pub relayouted: bool,
    /// Radix-2 levels the re-codelet stage merged away in this unit: the
    /// unit's levels (the sum of its parts' exponents) minus the codelets
    /// it replays after the stage, `0` when the stage left the unit
    /// alone. A radix-2 unit counts the factors merged away; a unit whose
    /// leaves were split or regrouped (`small[5], small[5]` →
    /// `small[4], small[4], small[2]`) counts too.
    pub recodeleted: usize,
}

/// One scheduling unit of a [`CompiledPlan`]: `parts` consecutive factors
/// replayed tile by tile over a `tiles × tile_elems` blocking of the
/// vector (see the module docs).
///
/// An unfused pass is the trivial super-pass: one part, one tile spanning
/// the whole pass. A fused super-pass iterates each tile through all its
/// parts before touching the next tile — the parts are stored
/// *tile-relative* (`base`/`stride` of a part are offsets *within* a
/// tile), and [`SuperPass::tile_pass`] rebases them to absolute passes.
/// A **column** super-pass ([`ColumnTail`]) has the same shape over its
/// chunks: "tile" `c` is chunk `c` (`size / period` rows of `cols`
/// columns, not contiguous in the vector), and the parts are stored in
/// chunk coordinates (the chunk read row by row as one `tile_elems()`
/// array); [`SuperPass::flat_pass`] maps them back in place.
///
/// Equality compares the *executed program* — parts, geometry, backend,
/// column geometry — and deliberately ignores [`SuperPass::provenance`]:
/// a hand-built unit and a stage-built unit that replay identically are
/// the same schedule, whatever their history.
#[derive(Debug, Clone, Eq)]
pub struct SuperPass {
    /// Tile-relative factor passes, in execution order within each tile.
    parts: Vec<Pass>,
    /// Elements per tile.
    tile: usize,
    /// Number of tiles.
    tiles: usize,
    /// Base element offset of the super-pass.
    base: usize,
    /// Global stride multiplier.
    stride: usize,
    /// Kernel backend replaying the parts (see [`PassBackend`]).
    backend: PassBackend,
    /// `Some` when the unit is a **column** super-pass: "tile" `c` is
    /// chunk `c` of the [`ColumnTail`] geometry, the parts are passes in
    /// chunk coordinates, and execution runs every part over one chunk
    /// in place before the next (the tail stage of
    /// [`CompiledPlan::lower`]).
    columns: Option<ColumnTail>,
    /// Which lowering stages rewrote this unit (see [`Provenance`]).
    provenance: Provenance,
}

impl PartialEq for SuperPass {
    fn eq(&self, other: &Self) -> bool {
        // Provenance is stage history, not program: excluded on purpose
        // (see the struct docs).
        self.parts == other.parts
            && self.tile == other.tile
            && self.tiles == other.tiles
            && self.base == other.base
            && self.stride == other.stride
            && self.backend == other.backend
            && self.columns == other.columns
    }
}

impl SuperPass {
    /// Assemble a super-pass from tile-relative parts (scalar backend;
    /// chain [`SuperPass::with_backend`] to select the lane kernels).
    /// This is a plain carrier — no invariants are checked here;
    /// [`CompiledPlan::from_super_passes`] / [`CompiledPlan::verify`]
    /// are the validity gate for hand-built schedules.
    pub fn new(parts: Vec<Pass>, tile: usize, tiles: usize, base: usize, stride: usize) -> Self {
        SuperPass {
            parts,
            tile,
            tiles,
            base,
            stride,
            backend: PassBackend::Scalar,
            columns: None,
            provenance: Provenance::default(),
        }
    }

    /// Assemble a **column** super-pass over a `2^n`-element vector from
    /// chunk-relative parts and a [`ColumnTail`] geometry: the tile grid
    /// is `period / cols` chunks of `2^n / period · cols` elements, and
    /// the parts run over each chunk read row by row. A plain carrier
    /// like [`SuperPass::new`] — [`CompiledPlan::from_super_passes`] /
    /// [`CompiledPlan::verify`] gate hand-built schedules.
    pub fn new_columns(n: u32, parts: Vec<Pass>, columns: ColumnTail) -> Self {
        let size = 1usize.checked_shl(n).unwrap_or(0);
        SuperPass {
            parts,
            tile: (size.checked_div(columns.period).unwrap_or(0)).saturating_mul(columns.cols),
            tiles: columns.period.checked_div(columns.cols).unwrap_or(0),
            base: 0,
            stride: 1,
            backend: PassBackend::Scalar,
            columns: Some(columns),
            provenance: Provenance {
                relayouted: true,
                ..Provenance::default()
            },
        }
    }

    /// The column geometry, if this unit is a column super-pass.
    #[inline]
    pub fn columns(&self) -> Option<ColumnTail> {
        self.columns
    }

    /// `true` if this scheduling unit is a column super-pass (a tail the
    /// stage of [`RelayoutPolicy`] grouped).
    #[inline]
    pub fn is_column_tail(&self) -> bool {
        self.columns.is_some()
    }

    /// Base element offset of the super-pass (`0` for every valid
    /// top-level unit — the canonical frame the [`crate::verify`]
    /// checks require).
    #[inline]
    pub fn base(&self) -> usize {
        self.base
    }

    /// Global stride multiplier of the super-pass (`1` for every valid
    /// top-level unit, like [`SuperPass::base`]).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The same super-pass with its kernel backend replaced (builder
    /// style).
    #[must_use]
    pub fn with_backend(mut self, backend: PassBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The kernel backend [`CompiledPlan::apply`] (and the parallel
    /// engine) will run this super-pass with.
    #[inline]
    pub fn backend(&self) -> PassBackend {
        self.backend
    }

    /// Which lowering stages rewrote this unit (see [`Provenance`]).
    #[inline]
    pub fn provenance(&self) -> Provenance {
        self.provenance
    }

    /// The trivial (unfused) super-pass: one part, one tile spanning the
    /// whole pass.
    fn single(pass: Pass) -> Self {
        SuperPass {
            tile: pass.span(),
            tiles: 1,
            base: pass.base,
            stride: pass.stride,
            parts: vec![Pass {
                base: 0,
                stride: 1,
                ..pass
            }],
            backend: PassBackend::Scalar,
            columns: None,
            provenance: Provenance::default(),
        }
    }

    /// The tile-relative parts, in execution order within each tile.
    #[inline]
    pub fn parts(&self) -> &[Pass] {
        &self.parts
    }

    /// Elements per tile.
    #[inline]
    pub fn tile_elems(&self) -> usize {
        self.tile
    }

    /// Number of tiles.
    #[inline]
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// Elements covered by the super-pass (`tiles · tile_elems`).
    #[inline]
    pub fn span(&self) -> usize {
        self.tiles * self.tile
    }

    /// `true` if this super-pass actually fused more than one factor.
    #[inline]
    pub fn is_fused(&self) -> bool {
        self.parts.len() > 1
    }

    /// Part `p` rebased to an absolute [`Pass`] restricted to tile `j`.
    ///
    /// Only meaningful for direct (non-column) super-passes: a column
    /// chunk is not contiguous in the vector (use [`SuperPass::flat_pass`]
    /// for the in-place pass).
    #[inline]
    pub fn tile_pass(&self, p: usize, j: usize) -> Pass {
        debug_assert!(
            self.columns.is_none(),
            "tile_pass is x-space; column parts live in chunk space"
        );
        let part = self.parts[p];
        Pass {
            k: part.k,
            r: part.r,
            s: part.s,
            base: self.base + (j * self.tile + part.base) * self.stride,
            stride: part.stride * self.stride,
        }
    }

    /// Part `p` expanded over **all** tiles as one absolute [`Pass`]: the
    /// factor as it would appear in the unfused schedule. Executing the
    /// flat passes part by part replays the super-pass in unfused
    /// (pass-major) order — bit-identical output, no tile blocking. The
    /// parallel engine replays single-tile units through their flat
    /// passes.
    ///
    /// Only meaningful under the [`CompiledPlan::verify`] invariants
    /// (every part tiles its tile exactly once): then tile `j`'s blocks
    /// are exactly blocks `j·r .. (j+1)·r` of the flat pass.
    ///
    /// For a **column** super-pass the parts are stored in chunk
    /// coordinates (`s = cols · c` over one chunk); this maps part `p`
    /// back to the in-place factor — `s = period · c` over the whole
    /// vector — which is what [`SuperPass::apply_tile`] runs over each
    /// chunk, and what [`CompiledPlan::from_super_passes`] derives the
    /// factor list from. A factor the re-codelet stage regrouped maps
    /// back the same way — to the regrouped `WHT(2^k)` factor at its
    /// in-place stride.
    #[inline]
    pub fn flat_pass(&self, p: usize) -> Pass {
        let part = self.parts[p];
        if let Some(g) = self.columns {
            // part.s = cols * c with c = the product of the tail factor
            // sizes applied before part p; the in-place pass runs the
            // same factor at s = period * c over the whole vector.
            let c = part.s.checked_div(g.cols).unwrap_or(0);
            let s = g.period.saturating_mul(c);
            let span = self.tiles.saturating_mul(self.tile);
            let block = (1usize << part.k.min(usize::BITS - 1)).saturating_mul(s);
            return Pass {
                k: part.k,
                r: span.checked_div(block).unwrap_or(0),
                s,
                base: self.base,
                stride: self.stride,
            };
        }
        // Saturating, like the column branch: hand-built units can hold
        // absurd extents, which the verifier must diagnose, not overflow on.
        Pass {
            k: part.k,
            r: part.r.saturating_mul(self.tiles),
            s: part.s,
            base: self
                .base
                .saturating_add(part.base.saturating_mul(self.stride)),
            stride: part.stride.saturating_mul(self.stride),
        }
    }

    /// Run tile `j`, the unit of work of every super-pass: every part
    /// over tile `j` of a direct unit, or every in-place part over chunk
    /// `j` of a column tail, through the chunk kernel. Tiles (and
    /// chunks) are pairwise write-disjoint, so distinct tiles may run
    /// concurrently: the parallel engine claims them one by one.
    ///
    /// # Safety
    /// `j < self.tiles()`, and the whole super-pass must be in bounds:
    /// `base + (span() - 1) · stride < x.len()`, with every part tiling
    /// its tile and, for a column tail, every in-place part a
    /// whole-vector pass whose stride is a multiple of the period (the
    /// [`CompiledPlan::verify`] invariants).
    #[inline]
    pub unsafe fn apply_tile<T: Scalar>(&self, x: &mut [T], j: usize) {
        if let Some(g) = self.columns {
            // SAFETY: chunk j's residues [j·cols, (j+1)·cols) lie inside
            // [0, period) since cols divides the period, and the rest is
            // apply_columns' contract, forwarded from the caller's.
            unsafe {
                apply_columns(
                    x,
                    (0..self.parts.len()).map(|p| self.flat_pass(p)),
                    self.backend,
                    g.period,
                    j * g.cols,
                    g.cols,
                )
            };
            return;
        }
        for p in 0..self.parts.len() {
            // SAFETY: a valid part stays inside tile `j`, which is inside
            // the super-pass bound forwarded from the caller's contract.
            unsafe { self.tile_pass(p, j).apply_full_backend(x, self.backend) };
        }
    }

    /// Run the whole super-pass: [`SuperPass::apply_tile`] over every
    /// tile in order (tile-major for a fused unit, chunk-major for a
    /// column tail).
    ///
    /// # Safety
    /// As [`SuperPass::apply_tile`], for every tile.
    pub(crate) unsafe fn apply_all<T: Scalar>(&self, x: &mut [T]) {
        for j in 0..self.tiles {
            // SAFETY: j < tiles; the rest is forwarded.
            unsafe { self.apply_tile(x, j) };
        }
    }
}

/// Inner extents at or past this are already full lane width for every
/// scalar type (the widest lane block is 16 — `f32`/`i32`), so the batched
/// executor runs those passes within-transform; only the narrower head
/// passes pay the transposes to run cross-transform. Type-independent so
/// schedules stay scalar-type-agnostic.
pub(crate) const CROSS_MAX_S: usize = 16;

/// Largest transform the batch stage builds a [`BatchSchedule`] for
/// (`2^18` elements): the transposed working set of one lane group is
/// `LANES · 2^n` elements — 16 MiB of `f64`s at this cap, LLC-resident on
/// the reference host. Past it the batched-small premise (per-call
/// overhead and idle lanes dominate) no longer holds: the single-transform
/// pipeline's own stages are the right tool, and a per-row replay is what
/// `apply_batch` falls back to.
pub(crate) const BATCH_MAX_ELEMS: usize = 1 << 18;

/// Target size of one transposed cross-stage tile in elements (a power of
/// two): `512` is 4 KiB of `f64`s — small enough that the tile, the lane
/// group's streaming rows, and the codelet working set all stay
/// L1-resident together (measured best among 256–4096 on an AVX2 host) —
/// so the cross passes hit cache however large `2^n` grows, at the cost
/// of re-walking the short cross pass list once per tile. The actual tile
/// widens past this only when a single cross footprint `2^k·s` is larger
/// (it must divide the tile).
const CROSS_TILE_ELEMS: usize = 512;

/// The batched-execution product of the lowering pipeline's batch stage:
/// how [`CompiledPlan::apply_batch`] runs a `rows × 2^n` batch of adjacent
/// transforms (see the module docs' "the lowering pipeline").
///
/// The flat factor schedule is split at [`struct@Pass`] granularity by inner
/// extent: the **cross** prefix (every pass with `s <` the widest lane
/// width) runs in the transposed scratch domain, where a lane group of
/// `w = `[`crate::Scalar::LANES`] adjacent rows turns each pass
/// `(k, r, s)` into `(k, r, s·w)` at unit stride — full-width butterflies
/// whatever `s` was; the **tail** (passes already at full lane width
/// within one transform) runs per row after the scatter back, while the
/// group's rows are still cache-resident. Execution order per transform is
/// exactly the flat schedule's, and lanes never interact, so batched
/// output is bit-identical to the per-row replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSchedule {
    /// Flat-schedule prefix run cross-transform, in per-transform
    /// coordinates (`base` 0, `stride` 1; strides are scaled by the lane
    /// width at execution time, keeping the schedule scalar-type-agnostic).
    cross: Vec<Pass>,
    /// Flat-schedule suffix run within-transform per row.
    tail: Vec<Pass>,
    /// Engagement threshold recorded from the [`BatchPolicy`] this
    /// schedule was lowered under (see [`BatchPolicy::block_rows`]).
    block_rows: usize,
    /// Kernel backend replaying both domains (the batch stage runs after
    /// backend selection and inherits its choice).
    backend: PassBackend,
    /// Total batch elements (`rows · 2^n`) at which the cross-stage copy
    /// sweeps use the streaming memory codelets — recorded from the
    /// [`StreamPolicy`] by the stream stage and compared against the
    /// live batch length at apply time (rows are unknown at compile
    /// time). `usize::MAX` when streaming is disabled.
    stream_min_elems: usize,
}

impl BatchSchedule {
    /// The flat-schedule prefix run cross-transform (per-transform
    /// coordinates).
    #[inline]
    pub fn cross(&self) -> &[Pass] {
        &self.cross
    }

    /// The flat-schedule suffix run within-transform per row.
    #[inline]
    pub fn tail(&self) -> &[Pass] {
        &self.tail
    }

    /// Minimum batch rows at which the cross path engages.
    #[inline]
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Kernel backend replaying the batched passes.
    #[inline]
    pub fn backend(&self) -> PassBackend {
        self.backend
    }

    /// Total batch elements at which the cross-stage copy sweeps stream
    /// (`usize::MAX`: never — streaming disabled for this schedule).
    #[inline]
    pub fn stream_min_elems(&self) -> usize {
        self.stream_min_elems
    }

    /// Columns per transposed cross-stage tile at lane width `lanes`, for
    /// a `size`-element transform: the power-of-two `CROSS_TILE_ELEMS`
    /// target widened to the largest cross footprint `2^k·s` (a tile must
    /// hold whole butterfly blocks), clamped to the row. `None` when a
    /// footprint computation overflows (hand-built splits can hold absurd
    /// extents; geometry derivation must not panic). This is the one
    /// derivation [`CompiledPlan::apply_batch_with_scratch`],
    /// [`CompiledPlan::batch_scratch_elems`], and the
    /// [`crate::verify`] checks all share.
    pub fn cross_tile_cols(&self, size: usize, lanes: usize) -> Option<usize> {
        cross_tile_cols_for(&self.cross, size, lanes)
    }
}

/// [`BatchSchedule::cross_tile_cols`] over a raw cross prefix — shared
/// with [`crate::verify`], which re-derives the geometry for hand-built
/// (including deliberately corrupted) splits that never became a
/// `BatchSchedule`.
pub(crate) fn cross_tile_cols_for(cross: &[Pass], size: usize, lanes: usize) -> Option<usize> {
    let mut max_foot = 1usize;
    for p in cross {
        if p.k >= usize::BITS {
            return None;
        }
        max_foot = max_foot.max((1usize << p.k).checked_mul(p.s)?);
    }
    Some((CROSS_TILE_ELEMS / lanes.max(1)).max(max_foot).min(size))
}

/// A [`Plan`] lowered to its flat factor schedule, grouped into
/// [`SuperPass`] scheduling units (trivial groups until the lowering
/// stages rewrite them — see the module docs).
///
/// Compile once, lower once, apply many times:
///
/// ```
/// use wht_core::{naive_wht, CompiledPlan, ExecPolicy, Plan};
///
/// let plan = Plan::right_recursive(10)?;
/// let compiled = CompiledPlan::compile(&plan).lower(&ExecPolicy::default());
/// let mut x: Vec<f64> = (0..1024).map(|v| (v % 5) as f64).collect();
/// let want = naive_wht(&x);
/// compiled.apply(&mut x)?;
/// assert_eq!(x, want);
/// # Ok::<(), wht_core::WhtError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPlan {
    n: u32,
    /// The flat factor schedule, one pass per executed factor. Fusion,
    /// the column tail, and backend selection regroup but never change it; the
    /// re-codelet stage is the one rewrite that replaces factors
    /// (regrouping a multi-part unit's radix-2 levels), and it re-derives
    /// this list to match.
    passes: Vec<Pass>,
    /// The execution grouping actually replayed by [`CompiledPlan::apply`].
    schedule: Vec<SuperPass>,
    /// The batched-execution product ([`CompiledPlan::apply_batch`]'s
    /// program), `None` until the batch stage builds one (and always
    /// `None` when the [`BatchPolicy`] is disabled or the transform is
    /// past [`BATCH_MAX_ELEMS`]). Pre-batch stages reset it: they rewrite
    /// the flat schedule the split was derived from.
    batch: Option<BatchSchedule>,
}

impl CompiledPlan {
    /// Lower `plan` into its (unfused) pass schedule (cost: one tree walk,
    /// one `Vec` of `plan.leaf_count()` entries).
    pub fn compile(plan: &Plan) -> Self {
        let n = plan.n();
        let size = 1usize << n;
        let mut passes = Vec::with_capacity(plan.leaf_count());
        let mut s = 1usize;
        emit(plan, size, &mut s, &mut passes);
        debug_assert_eq!(s, size, "factor sizes must multiply to the transform size");
        let schedule = passes.iter().copied().map(SuperPass::single).collect();
        CompiledPlan {
            n,
            passes,
            schedule,
            batch: None,
        }
    }

    /// Compile and lower through the full staged pipeline under `policy`:
    /// `CompiledPlan::compile(plan).lower(policy)`.
    pub fn compile_exec(plan: &Plan, policy: &ExecPolicy) -> Self {
        Self::compile(plan).lower(policy)
    }

    /// Lower this schedule through the full staged pipeline under
    /// `policy`, in execution order: fuse → column tail → recodelet →
    /// backend-select → batch → stream. The order is fixed here once:
    /// fusion must run before the tail stage (the tail is whatever fusion
    /// could not merge), re-fusing later would discard the tail grouping,
    /// re-codeleting before backend selection keeps the structural
    /// rewrites together, the batch stage's cross/tail split is derived
    /// from the final flat factor list and inherits the selected backend
    /// (every earlier stage resets the batch product it would
    /// invalidate), and the stream stage — a pure dispatch marking over
    /// whatever units the pipeline produced — runs last.
    ///
    /// In debug builds every stage's output is re-proved by the full
    /// static verifier ([`CompiledPlan::verify`] — bounds, disjointness,
    /// coverage, scratch sizing, column closure), so a pipeline regression fails at the
    /// stage that caused it with a diagnostic naming the violated
    /// invariant. This is the production lowering — [`compiled_for`]
    /// caches exactly `compile(plan).lower(policy)` per `(plan, policy)`.
    #[must_use]
    pub fn lower(&self, policy: &ExecPolicy) -> CompiledPlan {
        self.fuse(&policy.fusion)
            .verified_after("fuse")
            .column_tail(&policy.relayout)
            .verified_after("column tail")
            .recodelet(&policy.recodelet)
            .verified_after("recodelet")
            .with_simd(&policy.simd)
            .verified_after("backend-select")
            .with_batch(&policy.batch)
            .verified_after("batch")
            .with_stream(&policy.stream)
            .verified_after("stream")
    }

    /// Debug builds: assert that lowering stage `stage` left a schedule
    /// [`CompiledPlan::verify`] proves safe. Release builds: identity.
    fn verified_after(self, stage: &str) -> CompiledPlan {
        if cfg!(debug_assertions) {
            let diags = self.verify();
            assert!(
                diags.is_empty(),
                "lowering stage {stage:?} produced an unsafe schedule:\n{}",
                diags
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
        self
    }

    /// `true` if any scheduling unit is a column tail (the tail stage of
    /// [`RelayoutPolicy`] engaged).
    pub fn has_relayout(&self) -> bool {
        self.schedule.iter().any(SuperPass::is_column_tail)
    }

    /// `true` if the re-codelet stage regrouped factors anywhere in this
    /// schedule (see [`Provenance::recodeleted`]).
    pub fn has_recodeleted(&self) -> bool {
        self.schedule.iter().any(|sp| sp.provenance.recodeleted > 0)
    }

    /// Select the kernel backend under `policy`: every super-pass is
    /// marked [`PassBackend::Lanes`] when the policy is enabled (all
    /// top-level schedule units run at unit stride, the lane kernels'
    /// habitat), [`PassBackend::Scalar`] otherwise. Like the fusion
    /// stage, this is a *relabeling* of the same factor list — output
    /// bits cannot change, only which kernel produces them — and the
    /// choice is recorded in the schedule, so `apply` and the parallel
    /// engine agree on what actually runs.
    #[must_use]
    pub(crate) fn with_simd(&self, policy: &SimdPolicy) -> CompiledPlan {
        let backend = if policy.enabled() {
            PassBackend::Lanes
        } else {
            PassBackend::Scalar
        };
        CompiledPlan {
            n: self.n,
            passes: self.passes.clone(),
            schedule: self
                .schedule
                .iter()
                .map(|sp| sp.clone().with_backend(backend))
                .collect(),
            batch: None,
        }
    }

    /// `true` if any super-pass selects the SIMD lane backend.
    pub fn is_simd(&self) -> bool {
        self.schedule
            .iter()
            .any(|sp| sp.backend == PassBackend::Lanes)
    }

    /// Build the batched-execution product under `policy` (lowering stage
    /// 5 — the last stage, so it sees the post-re-codelet flat factor list
    /// and the selected backend). The single-transform schedule is
    /// untouched: the product is *additional* ([`CompiledPlan::apply`]
    /// replays exactly as before), so like every stage this is
    /// output-bit-preserving by construction. With a disabled policy —
    /// or a transform past the `BATCH_MAX_ELEMS` size cap, or a
    /// hand-built schedule
    /// whose flat factors are not in canonical chained form — no product
    /// is built and [`CompiledPlan::apply_batch`] replays per row.
    #[must_use]
    pub(crate) fn with_batch(&self, policy: &BatchPolicy) -> CompiledPlan {
        let mut out = self.clone();
        out.batch = self.build_batch(policy);
        out
    }

    /// The [`BatchSchedule`] split for this schedule under `policy`, when
    /// one applies (see [`CompiledPlan::with_batch`] for when it doesn't).
    fn build_batch(&self, policy: &BatchPolicy) -> Option<BatchSchedule> {
        if !policy.enabled() || self.size() > BATCH_MAX_ELEMS || self.passes.is_empty() {
            return None;
        }
        // The split relies on the flat schedule's canonical form: every
        // pass covers the whole vector at base 0, stride 1 (that is what
        // makes the lane-width scaling of the cross prefix safe on the
        // transposed scratch), with non-decreasing inner extents (so the
        // narrow passes form a prefix). Every pipeline-compiled plan has
        // it by construction; a hand-built schedule that doesn't simply
        // does not batch.
        let size = self.size();
        let mut prev_s = 0usize;
        for p in &self.passes {
            if p.base != 0 || p.stride != 1 || p.checked_span() != Some(size) || p.s < prev_s {
                return None;
            }
            prev_s = p.s;
        }
        let split = self
            .passes
            .iter()
            .position(|p| p.s >= CROSS_MAX_S)
            .unwrap_or(self.passes.len());
        if split == 0 {
            // Every pass is already full lane width within one transform:
            // the transposes would buy nothing.
            return None;
        }
        let backend = if self.is_simd() {
            PassBackend::Lanes
        } else {
            PassBackend::Scalar
        };
        Some(BatchSchedule {
            cross: self.passes[..split].to_vec(),
            tail: self.passes[split..].to_vec(),
            block_rows: policy.block_rows,
            backend,
            stream_min_elems: usize::MAX,
        })
    }

    /// Mark the batch product's copy sweeps for the streaming memory
    /// codelets under `policy` (lowering stage 6 — the last stage: a pure
    /// dispatch marking that rewrites nothing). The batched product
    /// (whose live size depends on the row count) records the policy's
    /// floor and gates at apply time; the single-transform schedule
    /// copies nothing, so there is nothing else to mark. Outputs are
    /// bit-identical either way — the streamed kernels move the same
    /// bytes — so like every stage this is output-preserving by
    /// construction.
    #[must_use]
    pub(crate) fn with_stream(&self, policy: &StreamPolicy) -> CompiledPlan {
        let mut out = self.clone();
        if policy.enabled() {
            if let Some(b) = out.batch.as_mut() {
                b.stream_min_elems = policy.min_elems;
            }
        }
        out
    }

    /// `true` if the stream stage marked the batch product's copy sweeps
    /// to stream at this transform size, i.e. a batch of any row count
    /// streams (the stream-stage counterpart of
    /// [`CompiledPlan::is_fused`] / [`CompiledPlan::is_simd`]).
    pub fn has_streamed(&self) -> bool {
        self.batch
            .as_ref()
            .is_some_and(|b| b.stream_min_elems <= self.size())
    }

    /// The batched-execution product the batch stage built, if any.
    #[inline]
    pub fn batch_schedule(&self) -> Option<&BatchSchedule> {
        self.batch.as_ref()
    }

    /// Scratch elements one [`CompiledPlan::apply_batch_with_scratch`]
    /// call needs at lane width `lanes` ([`Scalar::LANES`] of the batch's
    /// scalar type): one transposed cross tile, or `0` when no batch
    /// product was built (the per-row path replays in place). A
    /// *declared* requirement that [`CompiledPlan::verify`] re-derives
    /// independently and checks for exact equality.
    pub fn batch_scratch_elems(&self, lanes: usize) -> usize {
        self.batch
            .as_ref()
            .and_then(|b| b.cross_tile_cols(self.size(), lanes))
            .and_then(|tc| tc.checked_mul(lanes))
            .unwrap_or(0)
    }

    /// `true` if this schedule carries a batched-execution product (the
    /// batch-stage counterpart of [`CompiledPlan::is_fused`] /
    /// [`CompiledPlan::is_simd`]).
    pub fn is_batched(&self) -> bool {
        self.batch.is_some()
    }

    /// Assemble a compiled plan from hand-built super-passes, gated by
    /// the full static verifier ([`CompiledPlan::verify`]) in every build.
    ///
    /// # Errors
    /// [`WhtError::InvalidSchedule`] on a schedule `verify` rejects,
    /// carrying the first diagnostic that names a unit (its index and the
    /// rendered diagnostic, invariant name first), or the first
    /// schedule-wide one (index = the schedule length) when no unit is
    /// at fault; and [`WhtError::SizeTooLarge`] when `n` exceeds
    /// [`crate::plan::MAX_N`] (`2^n` would not even be a representable
    /// vector length — before this guard, `n >= 64` wrapped
    /// [`CompiledPlan::size`] to a tiny value in release builds and every
    /// downstream check ran against the wrong extent).
    pub fn from_super_passes(n: u32, schedule: Vec<SuperPass>) -> Result<Self, WhtError> {
        if n > crate::plan::MAX_N {
            return Err(WhtError::SizeTooLarge { n });
        }
        // flat_pass saturates: hand-built schedules can hold absurd
        // extents, and the contract is a typed error from verify(), never
        // an overflow panic while deriving this view.
        let passes = schedule
            .iter()
            .flat_map(|sp| (0..sp.parts.len()).map(move |p| sp.flat_pass(p)))
            .collect();
        let plan = CompiledPlan {
            n,
            passes,
            schedule,
            batch: None,
        };
        let diags = plan.verify();
        let at_unit = diags.iter().find_map(|d| match d.site {
            VerifySite::Unit { unit, .. } => Some((unit, d)),
            _ => None,
        });
        match at_unit.or_else(|| diags.first().map(|d| (plan.schedule.len(), d))) {
            None => Ok(plan),
            Some((index, d)) => Err(WhtError::InvalidSchedule {
                index,
                msg: d.to_string(),
            }),
        }
    }

    /// Exponent of the transform (`log2` of its size).
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Size `2^n` of the transform.
    #[inline]
    pub fn size(&self) -> usize {
        1usize << self.n
    }

    /// The flat factor schedule, in execution order (one pass per
    /// executed factor — one per plan leaf until the re-codeleting
    /// stage regroups a fused tile's or a column tail's factors from their
    /// radix-2 levels). Fusion, the column tail, and backend selection
    /// never change this list — they regroup it.
    #[inline]
    pub fn passes(&self) -> &[Pass] {
        &self.passes
    }

    /// The execution grouping [`CompiledPlan::apply`] replays: one
    /// [`SuperPass`] per unfused pass, fused run or column tail.
    #[inline]
    pub fn super_passes(&self) -> &[SuperPass] {
        &self.schedule
    }

    /// `true` if any super-pass actually fused multiple factors.
    pub fn is_fused(&self) -> bool {
        self.schedule.iter().any(SuperPass::is_fused)
    }

    /// Compute `x <- WHT(2^n) · x` in place by replaying the schedule
    /// (tile-major within fused super-passes, chunk-major within column
    /// tails). The replay needs no scratch and allocates nothing.
    ///
    /// # Errors
    /// [`WhtError::LengthMismatch`] unless `x.len() == self.size()`.
    pub fn apply<T: Scalar>(&self, x: &mut [T]) -> Result<(), WhtError> {
        if x.len() != self.size() {
            return Err(WhtError::LengthMismatch {
                expected: self.size(),
                got: x.len(),
            });
        }
        for sp in &self.schedule {
            debug_assert!(sp.base + (sp.span() - 1) * sp.stride < x.len());
            // SAFETY: every lowering stage emits only super-passes with
            // base = 0, stride = 1 and span() == size() whose parts tile
            // each tile exactly (and whose column geometry is closed and
            // partitions the vector); from_super_passes() verifies the
            // same invariants; and the length was checked above.
            unsafe { sp.apply_all(x) };
        }
        Ok(())
    }

    /// [`CompiledPlan::apply`]; the buffer is left untouched, since the
    /// single-transform replay needs no scratch. Kept with this signature
    /// because the benchmark harness in `perfbench/` calls it with the
    /// buffer it also lends [`CompiledPlan::apply_batch_with_scratch`].
    ///
    /// # Errors
    /// [`WhtError::LengthMismatch`] unless `x.len() == self.size()`.
    pub fn apply_with_scratch<T: Scalar>(
        &self,
        x: &mut [T],
        scratch: &mut Vec<T>,
    ) -> Result<(), WhtError> {
        let _ = scratch;
        self.apply(x)
    }

    /// Compute the WHT of every row of a row-major `rows × 2^n` batch in
    /// place — the batched-small fast path. One schedule lookup and one
    /// scratch setup amortize over the whole batch, and when the batch
    /// stage built a [`BatchSchedule`] (see [`BatchPolicy`]) and `rows`
    /// reaches the engagement threshold, lane groups of
    /// [`Scalar::LANES`] adjacent rows run the narrow head passes
    /// **cross-transform**: the group is transposed into scratch
    /// ([`crate::codelets::gather_lanes`]), where every head pass
    /// `(k, r, s)` becomes `(k, r, s·w)` at unit stride — full-width
    /// butterflies regardless of `s` — and the full-width tail then runs
    /// per row while the group is still cache-resident. Each transform's
    /// butterfly DAG is identical to the per-row replay (lanes never
    /// interact), so output is bit-identical for floats and exact for
    /// integers, whatever path a row took.
    ///
    /// Batches below the threshold (and the sub-lane-group remainder of
    /// any batch) replay row by row through the ordinary schedule, so a
    /// batch of one costs exactly one [`CompiledPlan::apply`].
    ///
    /// Allocates its scratch per call; hot services use
    /// [`CompiledPlan::apply_batch_with_scratch`] to amortize that away.
    ///
    /// # Errors
    /// [`WhtError::LengthMismatch`] unless `x.len() == rows * self.size()`.
    pub fn apply_batch<T: Scalar>(&self, x: &mut [T], rows: usize) -> Result<(), WhtError> {
        let mut scratch = Vec::new();
        self.apply_batch_with_scratch(x, rows, &mut scratch)
    }

    /// [`CompiledPlan::apply_batch`] with a caller-owned scratch buffer:
    /// grown to one transposed cross tile
    /// (`LANES` · tile columns — L1-sized) on first use, never shrunk — the
    /// warm path allocates nothing (asserted by the counting-allocator
    /// test in `tests/noalloc.rs`).
    ///
    /// # Errors
    /// [`WhtError::LengthMismatch`] unless `x.len() == rows * self.size()`.
    pub fn apply_batch_with_scratch<T: Scalar>(
        &self,
        x: &mut [T],
        rows: usize,
        scratch: &mut Vec<T>,
    ) -> Result<(), WhtError> {
        let needed = self.batch_scratch_elems(T::LANES);
        if scratch.len() < needed {
            scratch.resize(needed, T::ZERO);
        }
        self.apply_batch_in(x, rows, scratch)
    }

    /// [`CompiledPlan::apply_batch_with_scratch`] over a caller-**sized**
    /// scratch slice (at least
    /// [`CompiledPlan::batch_scratch_elems`]`(T::LANES)` elements) — the
    /// zero-alloc hook for executors that manage their own scratch arenas
    /// (the persistent worker pool lends each worker's arena here).
    ///
    /// # Errors
    /// [`WhtError::LengthMismatch`] unless `x.len() == rows *
    /// self.size()`; [`WhtError::InvalidConfig`] when `scratch` is too
    /// short.
    pub fn apply_batch_in<T: Scalar>(
        &self,
        x: &mut [T],
        rows: usize,
        scratch: &mut [T],
    ) -> Result<(), WhtError> {
        let size = self.size();
        let expected = rows.saturating_mul(size);
        if x.len() != expected {
            return Err(WhtError::LengthMismatch {
                expected,
                got: x.len(),
            });
        }
        if rows == 0 {
            return Ok(());
        }
        if scratch.len() < self.batch_scratch_elems(T::LANES) {
            return Err(WhtError::InvalidConfig(format!(
                "scratch of {} elements is shorter than the batch schedule's {} elements",
                scratch.len(),
                self.batch_scratch_elems(T::LANES)
            )));
        }
        let w = T::LANES;
        let Some(b) = self.batch.as_ref().filter(|b| rows >= b.block_rows.max(w)) else {
            for row in x.chunks_exact_mut(size) {
                self.apply(row)?;
            }
            return Ok(());
        };
        let group = w * size;
        // Column-tile the cross stage so the transposed scratch stays
        // L1-resident whatever 2^n is: every cross footprint 2^k·s is a
        // power of two, so a power-of-two tile at least as wide as the
        // largest footprint splits every pass into whole butterfly blocks
        // — pass (k, r, s) becomes (k, tile/2^k·s, s·w) per tile, same
        // butterflies, same order within each column. The geometry is
        // derived once in BatchSchedule::cross_tile_cols, shared with
        // batch_scratch_elems and the verify checks; a batch-stage
        // schedule can never overflow it (validated extents).
        let tile_cols = b
            .cross_tile_cols(size, w)
            .expect("validated batch split has computable tile geometry");
        let tile_elems = tile_cols * w;
        let groups = rows / w;
        // Streaming engages on the *live* batch footprint (rows are a
        // call-time property), gated against the floor the stream stage
        // recorded.
        let stream = x.len() >= b.stream_min_elems;
        for g in 0..groups {
            let block = &mut x[g * group..(g + 1) * group];
            let mut j0 = 0;
            while j0 < size {
                let tblock = &mut scratch[..tile_elems];
                // SAFETY: j0 + tile_cols <= size (both powers of two), so
                // the window reads (w-1)·size + tile_cols elements past
                // j0 within the w·size block; tblock holds w·tile_cols.
                // The streamed variants share the plain kernels'
                // contracts and move the same bytes.
                unsafe {
                    if stream {
                        gather_lanes_tile_prefetch(&block[j0..], tile_cols, size, w, tblock);
                    } else {
                        gather_lanes_tile(&block[j0..], tile_cols, size, w, tblock);
                    }
                };
                for p in &b.cross {
                    let scaled = Pass {
                        k: p.k,
                        r: tile_cols / ((1usize << p.k) * p.s),
                        s: p.s * w,
                        base: 0,
                        stride: 1,
                    };
                    // SAFETY: the scaled pass spans r·2^k·s·w =
                    // tile_cols·w == tblock.len() elements at base 0,
                    // stride 1.
                    unsafe { scaled.apply_full_backend(tblock, b.backend) };
                }
                // SAFETY: same bounds as the gather.
                unsafe {
                    if stream {
                        scatter_lanes_tile_stream(&mut block[j0..], tile_cols, size, w, tblock);
                    } else {
                        scatter_lanes_tile(&mut block[j0..], tile_cols, size, w, tblock);
                    }
                };
                j0 += tile_cols;
            }
            if !b.tail.is_empty() {
                for row in block.chunks_exact_mut(size) {
                    for p in &b.tail {
                        // SAFETY: build_batch checked each flat pass spans
                        // exactly size elements at base 0, stride 1.
                        unsafe { p.apply_full_backend(row, b.backend) };
                    }
                }
            }
        }
        for row in x[groups * group..].chunks_exact_mut(size) {
            self.apply(row)?;
        }
        Ok(())
    }
}

/// Emit the factor schedule of `plan` given `s` = product of the sizes of
/// the factors already emitted (everything applied before this subtree).
fn emit(plan: &Plan, total: usize, s: &mut usize, passes: &mut Vec<Pass>) {
    match plan {
        Plan::Leaf { k } => {
            let size = 1usize << *k;
            passes.push(Pass {
                k: *k,
                r: total / (size * *s),
                s: *s,
                base: 0,
                stride: 1,
            });
            *s *= size;
        }
        Plan::Split { children, .. } => {
            // Same right-to-left factor order as the interpreter.
            for child in children.iter().rev() {
                emit(child, total, s, passes);
            }
        }
    }
}

const CACHE_CAP: usize = 64;

/// Per-plan cache entries keyed by the full executor configuration
/// ([`ExecPolicy::cache_key`] — one key covering every lowering stage).
type ConfigCache = HashMap<ExecKey, Rc<CompiledPlan>>;

thread_local! {
    /// Per-thread schedule cache backing [`compiled_for`]: plans are
    /// immutable and hashable, so `(plan, ExecPolicy)` is the key
    /// (nested so the hot lookup borrows the plan instead of cloning it).
    static PLAN_CACHE: RefCell<HashMap<Plan, ConfigCache>> = RefCell::new(HashMap::new());
}

/// The lazily-lowered schedule for `plan` under `ExecPolicy::default()`
/// (every stage on, streaming past its size floor):
/// compiled on first use on this thread, then served from a bounded
/// per-thread cache. This is what lets [`crate::apply_plan`] keep its
/// signature while paying the tree walk once per plan instead of once
/// per call. Equal to `compiled_for_exec(plan, &ExecPolicy::default())`.
pub fn compiled_for(plan: &Plan) -> Rc<CompiledPlan> {
    compiled_for_exec(plan, &ExecPolicy::default())
}

/// [`compiled_for`] under an explicit executor configuration
/// (`ExecPolicy::all_disabled()` replays the pure scalar unfused
/// baseline). Schedules are cached per `(plan, ExecPolicy)`, so
/// mixed-policy traffic never cross-talks.
pub fn compiled_for_exec(plan: &Plan, policy: &ExecPolicy) -> Rc<CompiledPlan> {
    let key = policy.cache_key();
    PLAN_CACHE.with(|cache| {
        let mut map = cache.borrow_mut();
        if let Some(hit) = map.get(plan).and_then(|by_key| by_key.get(&key)) {
            return Rc::clone(hit);
        }
        let compiled = Rc::new(CompiledPlan::compile_exec(plan, policy));
        // The bound counts (plan, config) schedules, not just plans — a
        // budget sweep over one plan must still trigger eviction.
        if map.values().map(HashMap::len).sum::<usize>() >= CACHE_CAP {
            // Simplest bounded policy: drop everything, refill from live
            // traffic. CACHE_CAP schedules is far beyond any working set
            // here.
            map.clear();
        }
        map.entry(plan.clone())
            .or_default()
            .insert(key, Rc::clone(&compiled));
        compiled
    })
}
