//! Executor configuration: the per-stage policies of the lowering
//! pipeline and the [`ExecPolicy`] that carries all of them.
//!
//! Each lowering stage (see [`CompiledPlan::lower`](crate::compile::CompiledPlan::lower)) is gated by
//! one policy struct; [`ExecPolicy`] bundles the six so the whole
//! executor configuration travels as **one value** — one argument, one
//! schedule-cache key.

use crate::codelets::SimdPolicy;
use crate::plan::MAX_LEAF_K;

/// Tile-budget policy for the fusion stage (stage 1 of
/// [`CompiledPlan::lower`](crate::compile::CompiledPlan::lower)):
/// how many *elements* a fused tile may span (see the module docs' "how
/// fusion decides").
///
/// The budget is in elements, not bytes, because schedules are
/// scalar-type-agnostic; size it to `cache_bytes / size_of::<T>()` for the
/// cache level the tiles should live in. The default targets a 1 MiB
/// L2-ish working set for `f64` data — big tiles shorten the unfusable
/// large-stride tail, which is where the remaining memory sweeps live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionPolicy {
    /// Maximum tile span in elements; runs fuse only while their combined
    /// block size stays `<=` this. `0` and `1` disable fusion,
    /// `usize::MAX` fuses without bound (one super-pass per schedule).
    pub budget_elems: usize,
}

impl FusionPolicy {
    /// Default tile budget: `2^17` elements (1 MiB of `f64`s) — resident
    /// in any megabyte-class L2, and large enough to fuse ~17 radix-2
    /// factors so only a handful of large-stride tail passes still sweep
    /// the vector. Measured on a 2 MiB-L2 host, this beat smaller
    /// (L1-sized) budgets at every out-of-LLC size.
    pub const DEFAULT_BUDGET_ELEMS: usize = 1 << 17;

    /// Policy with an explicit element budget.
    pub fn new(budget_elems: usize) -> Self {
        FusionPolicy { budget_elems }
    }

    /// Fusion off: the fusion stage reproduces the unfused schedule.
    pub fn disabled() -> Self {
        FusionPolicy { budget_elems: 0 }
    }

    /// No budget: every contiguous run fuses (whole schedules collapse to
    /// one super-pass with a single vector-sized tile).
    pub fn unbounded() -> Self {
        FusionPolicy {
            budget_elems: usize::MAX,
        }
    }

    /// `true` if this policy can fuse anything at all (a tile of two
    /// elements is the smallest possible fusion product).
    pub fn enabled(&self) -> bool {
        self.budget_elems >= 2
    }

    /// Canonical cache key for this policy (all disabled budgets are the
    /// same policy).
    pub(crate) fn cache_key(&self) -> usize {
        if self.enabled() {
            self.budget_elems
        } else {
            0
        }
    }
}

impl Default for FusionPolicy {
    fn default() -> Self {
        FusionPolicy {
            budget_elems: Self::DEFAULT_BUDGET_ELEMS,
        }
    }
}

/// Policy for the tail stage (stage 2 of
/// [`CompiledPlan::lower`](crate::compile::CompiledPlan::lower)): when the
/// large-stride tail of a fused schedule is grouped into one in-place
/// column super-pass, replayed chunk by chunk (see the module docs). The
/// name is the stage's older one, when it gathered the tail through
/// scratch (the relayout the paper calls DDL).
///
/// Mirrors [`FusionPolicy`]: [`RelayoutPolicy::disabled`] turns the stage
/// off, and the per-thread schedule cache keys on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayoutPolicy {
    /// Maximum elements of one column chunk — the working set every tail
    /// factor runs over while it stays cache-resident. The stage engages
    /// only on vectors larger than this. `0` and `1` disable the stage.
    pub budget_elems: usize,
}

impl RelayoutPolicy {
    /// Default chunk budget: the fusion layer's tile budget (`2^17`
    /// elements = 1 MiB of `f64`s), so the column tail runs in the same
    /// cache level the fused head's tiles live in. Measured with
    /// perfbench's `core.ablate.relayout.nN` (time with the stage off
    /// over time with it on, on `apply_plan`'s f64 schedule; above 1.0
    /// means the stage helps) in three traced large_replay runs on a
    /// 2-vCPU Xeon with a 2 MiB L2 and a 105 MiB L3: 0.87, 1.10 and 1.31
    /// at n = 20, 1.54–1.77 at n = 24. Over ten untraced large_replay
    /// runs on that host the workload's own `apply_plan` p50 fell from
    /// 6.9 to 5.1 ms at n = 20 and from 136 to 105 ms at n = 24.
    pub const DEFAULT_BUDGET_ELEMS: usize = FusionPolicy::DEFAULT_BUDGET_ELEMS;

    /// Policy with an explicit chunk budget.
    pub fn new(budget_elems: usize) -> Self {
        RelayoutPolicy { budget_elems }
    }

    /// Tail stage off: the stage returns the schedule unchanged.
    pub fn disabled() -> Self {
        RelayoutPolicy { budget_elems: 0 }
    }

    /// `true` if this policy can group anything at all (a chunk of two
    /// elements is the smallest possible).
    pub fn enabled(&self) -> bool {
        self.budget_elems >= 2
    }

    /// Canonical cache key for this policy (all disabled policies are the
    /// same policy).
    pub(crate) fn cache_key(&self) -> usize {
        if self.enabled() {
            self.budget_elems
        } else {
            0
        }
    }
}

impl Default for RelayoutPolicy {
    fn default() -> Self {
        RelayoutPolicy {
            budget_elems: Self::DEFAULT_BUDGET_ELEMS,
        }
    }
}

/// Policy for the re-codelet stage (stage 3 of
/// [`CompiledPlan::lower`](crate::compile::CompiledPlan::lower)): how
/// aggressively the chained factors *within* a scheduling unit — a
/// fused tile's parts, or a column tail's parts — are
/// regrouped into larger unrolled codelets (see the module docs'
/// "re-codeleting the lowered schedule").
///
/// A unit's working set is cache-resident by construction (that is what
/// fusion and the column tail bought), so its per-factor passes are
/// load/store-μop-bound, not memory-bound; merging `m` chained factors
/// into one `small[k1+…+km]` codelet cuts the unit's load/store passes
/// `m`-fold while performing the exact same butterflies (the merge is the
/// Kronecker identity `WHT(2^a) ⊗ WHT(2^b) = WHT(2^{a+b})` the codelets
/// already unroll — output is bit-identical).
///
/// Two knobs bound the merge, both measured on the reference host:
/// `max_k` caps the merged exponent (a `small[8]` at unit stride spills
/// registers and ran *slower* than two `small[4]`s), and
/// `footprint_elems` caps a merged codelet call's strided span — a
/// `small[128]` whose 128 rows sit 8 KiB apart lands every row in one L1
/// set and a fresh TLB page, and measured 10% *slower* than the
/// per-factor passes it replaced. Merges up to [`SMALL_MERGE_ROWS`] rows
/// are always allowed whatever the span: size-8 codelets at huge strides
/// are the well-measured `blocked8` shape (1.45× over radix-2 at equal
/// flops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecodeletPolicy {
    /// Largest merged codelet exponent: chained factors merge while
    /// their combined exponent stays `<=` this (capped at
    /// [`MAX_LEAF_K`], the biggest unrolled codelet). `0` and `1`
    /// disable the stage — a single factor cannot merge with nothing.
    pub max_k: u32,
    /// Largest strided span (elements) one merged codelet call may touch:
    /// factors merge only while `2^k · s` stays `<=` this (or the merged
    /// codelet stays within [`SMALL_MERGE_ROWS`] rows). Keeps every call
    /// L1- and TLB-friendly whatever the unit's internal strides.
    pub footprint_elems: usize,
}

/// Merged codelets of at most this many rows (`small[3]`, size 8) are
/// exempt from the [`RecodeletPolicy::footprint_elems`] cap: eight rows
/// fit any L1 set's associativity at any stride — the `blocked8` plan
/// shape, measured fast across the whole size range.
pub const SMALL_MERGE_ROWS: usize = 8;

impl RecodeletPolicy {
    /// Default merged-codelet cap: `small[4]` (16 elements). Measured on
    /// the reference host across n = 16–24, `max_k = 4` beat both smaller
    /// caps (more remaining passes) and larger ones (register spills in
    /// the unit-stride head group; footprint violations elsewhere):
    /// lowering the canonical plans' radix-2 schedules to
    /// `[4,4,4,3,2]`-shaped tiles ran 1.9–3.4× faster than per-factor
    /// replay, while `small[8]` merges gave back a third of that.
    pub const DEFAULT_MAX_K: u32 = 4;

    /// Default per-call footprint cap: `4096` elements (32 KiB of `f64`s
    /// — inside a 48 KiB L1, spanning at most eight 4 KiB pages).
    /// Measured best among 2 KiB–64 KiB on the reference host.
    pub const DEFAULT_FOOTPRINT_ELEMS: usize = 4096;

    /// Policy with an explicit merged-codelet cap (clamped to
    /// [`MAX_LEAF_K`] — the unrolled family ends there) and the default
    /// footprint.
    pub fn new(max_k: u32) -> Self {
        RecodeletPolicy {
            max_k: max_k.min(MAX_LEAF_K),
            ..RecodeletPolicy::default()
        }
    }

    /// Re-codeleting off: every unit keeps one pass per factor.
    pub fn disabled() -> Self {
        RecodeletPolicy {
            max_k: 0,
            footprint_elems: 0,
        }
    }

    /// `true` if this policy can merge anything at all (the smallest
    /// merge is two `small[1]` factors into a `small[2]`).
    pub fn enabled(&self) -> bool {
        self.max_k >= 2
    }

    /// Canonical cache key for this policy (all disabled policies are the
    /// same policy).
    pub(crate) fn cache_key(&self) -> (u32, usize) {
        if self.enabled() {
            (self.max_k, self.footprint_elems)
        } else {
            (0, 0)
        }
    }
}

impl Default for RecodeletPolicy {
    fn default() -> Self {
        RecodeletPolicy {
            max_k: Self::DEFAULT_MAX_K,
            footprint_elems: Self::DEFAULT_FOOTPRINT_ELEMS,
        }
    }
}

/// Policy for the batched-small fast path
/// ([`CompiledPlan::apply_batch`](crate::compile::CompiledPlan::apply_batch)):
/// when a batch of adjacent transforms runs through the cross-transform
/// lane kernels instead of a per-row replay of the schedule.
///
/// A batch is a row-major `rows × 2^n` matrix of independent transforms.
/// The batched executor transposes lane groups of [`crate::Scalar::LANES`]
/// adjacent rows into scratch, where every head pass (`s <` the widest
/// lane block) runs full-width *across* transforms; the two transposes
/// cost about two sweeps of the group, so the path only pays off once
/// enough rows amortize them. `block_rows` is that measured engagement
/// threshold. Mirrors [`FusionPolicy`]: [`BatchPolicy::disabled`] turns
/// the stage off, and the schedule cache keys on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Minimum batch rows at which [`CompiledPlan::apply_batch`](crate::compile::CompiledPlan::apply_batch)
    /// engages the cross-transform path (batches below it — and the
    /// sub-lane-group remainder of any batch — replay per row). `0`
    /// disables the stage: no [`BatchSchedule`](crate::compile::BatchSchedule)
    /// is built at all.
    pub block_rows: usize,
}

impl BatchPolicy {
    /// Default engagement threshold: one full lane group of the widest
    /// scalar type (16 rows — `f32`/`i32` lane width; two groups of
    /// `f64`/`i64`), so the path engages as soon as a full group of any
    /// type exists. Measured with perfbench's `core.batch.gain.nN` (a
    /// per-row `apply_with_scratch` loop over the same schedule, divided
    /// by `apply_batch_with_scratch`; f64, 64 rows, AVX2): on a 2-vCPU
    /// Xeon with a 300 MiB L3, 1.5–2.5 at n = 6, 1.05–1.42 at n = 8 and
    /// 0.93–1.10 at n = 10–12 in three traced runs; on one with a 105 MiB
    /// L3, 1.57 and 2.05 at n = 6 and 0.69–1.14 at n = 8–12 in two. So
    /// the stage gains where lone transforms leave lanes idle (n = 6) and
    /// shows no gain once the full-width tail dominates.
    /// `core.batch.gain.nN` and `core.ablate.batch.nN` re-measure it.
    pub const DEFAULT_BLOCK_ROWS: usize = 16;

    /// Policy with an explicit engagement threshold.
    pub fn new(block_rows: usize) -> Self {
        BatchPolicy { block_rows }
    }

    /// Batched execution off: `apply_batch` replays every row through the
    /// ordinary schedule.
    pub fn disabled() -> Self {
        BatchPolicy { block_rows: 0 }
    }

    /// `true` if this policy can batch anything at all (a threshold of one
    /// row engages whenever a full lane group exists).
    pub fn enabled(&self) -> bool {
        self.block_rows >= 1
    }

    /// Canonical cache key for this policy (all disabled policies are the
    /// same policy).
    pub(crate) fn cache_key(&self) -> usize {
        if self.enabled() {
            self.block_rows
        } else {
            0
        }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            block_rows: Self::DEFAULT_BLOCK_ROWS,
        }
    }
}

/// Policy for the streaming memory codelets: when the batch product's
/// copy sweeps (`scatter_lanes_tile`) write through non-temporal
/// (`_mm256_stream_si256`) stores instead of plain cached stores, and its
/// gather twin issues software prefetch. The single-transform schedule
/// copies nothing (its tail runs in place), so the batch product is all
/// this stage marks.
///
/// A scatter writes each destination line exactly once and never reads it
/// back before the next full sweep, so past the last-level cache a cached
/// store wastes a read-for-ownership fill per line — a third of the sweep's
/// DRAM traffic. Non-temporal stores skip the fill; below the LLC they
/// *evict* lines the next pass wants, so the policy engages only past an
/// out-of-LLC size floor, compared against the live batch length.
/// The stores move the same bytes, so output is bit-identical either way;
/// an `sfence` at the end of every streamed sweep keeps the ordering
/// argument of the parallel engine's per-unit barriers unchanged.
///
/// Mirrors the other stages: [`StreamPolicy::disabled`] turns the stage
/// off, and the schedule cache keys on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPolicy {
    /// Vector size (elements) below which the copy sweeps keep cached
    /// stores. `usize::MAX` disables streaming entirely; `0` streams at
    /// every size (what differential tests use).
    pub min_elems: usize,
}

impl StreamPolicy {
    /// Default engagement threshold: `2^24` elements (128 MiB of `f64`s),
    /// meant to sit past the last-level cache, where sweeps' lines cannot
    /// survive in cache until reuse. No gain has been measured at it: no
    /// perfbench workload sends a batch this large, and no
    /// single-transform schedule copies anything, so perfbench's
    /// `core.ablate.stream.nN` reads exactly 1.0 (three traced
    /// large_replay runs on a 2-vCPU Xeon with a 105 MiB L3).
    pub const DEFAULT_MIN_ELEMS: usize = 1 << 24;

    /// Policy with an explicit engagement floor.
    pub fn new(min_elems: usize) -> Self {
        StreamPolicy { min_elems }
    }

    /// Streaming off: every copy sweep uses plain cached stores.
    pub fn disabled() -> Self {
        StreamPolicy {
            min_elems: usize::MAX,
        }
    }

    /// Policy that streams at *every* size (no floor) — what differential
    /// tests use so small batches exercise the non-temporal path.
    pub fn eager() -> Self {
        StreamPolicy { min_elems: 0 }
    }

    /// `true` if this policy can stream anything at all.
    pub fn enabled(&self) -> bool {
        self.min_elems != usize::MAX
    }

    /// Canonical cache key for this policy (all disabled policies are the
    /// same policy).
    pub(crate) fn cache_key(&self) -> usize {
        if self.enabled() {
            self.min_elems
        } else {
            usize::MAX
        }
    }
}

impl Default for StreamPolicy {
    fn default() -> Self {
        StreamPolicy {
            min_elems: Self::DEFAULT_MIN_ELEMS,
        }
    }
}

/// The full executor configuration, as **one value**: every stage of the
/// lowering pipeline (fuse → column tail → re-codelet → backend-select →
/// batch → stream) reads its policy from here, and the per-thread schedule
/// cache keys on [`ExecPolicy::cache_key`].
///
/// This is the only way to choose how a schedule is lowered. A schedule
/// compiles under the policy the caller passes (`Planner::with_exec`,
/// [`compiled_for_exec`](crate::compile::compiled_for_exec),
/// [`CompiledPlan::lower`](crate::compile::CompiledPlan::lower)), and
/// under `ExecPolicy::default()` when none is passed
/// ([`compiled_for`](crate::compile::compiled_for), `Planner::new`). No
/// environment variable changes it, and wisdom records which plan won a
/// search, never how it was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecPolicy {
    /// Cache-blocked prefix fusion (stage 1).
    pub fusion: FusionPolicy,
    /// In-place column tail (stage 2).
    pub relayout: RelayoutPolicy,
    /// Re-codeleting of chained factors within units (stage 3).
    pub recodelet: RecodeletPolicy,
    /// Kernel backend selection (stage 4).
    pub simd: SimdPolicy,
    /// Batched-small cross-transform execution (stage 5).
    pub batch: BatchPolicy,
    /// Streaming-store / prefetch memory codelets (stage 6).
    pub stream: StreamPolicy,
}

/// One cache key covering every knob of an [`ExecPolicy`] (see
/// [`ExecPolicy::cache_key`]).
pub type ExecKey = (usize, usize, (u32, usize), bool, usize, usize);

impl ExecPolicy {
    /// Returns `ExecPolicy::default()`: no environment variable configures
    /// the executor. It exists because the benchmark harness in
    /// `perfbench/` calls it to check that its process runs the default
    /// policy.
    pub fn from_env() -> Self {
        ExecPolicy::default()
    }

    /// Every stage off: the pure-scalar, unfused, in-place baseline
    /// executor — one trivial scalar unit per factor. Tests start from it
    /// and switch single stages on with the `with_*` builders.
    pub fn all_disabled() -> Self {
        ExecPolicy {
            fusion: FusionPolicy::disabled(),
            relayout: RelayoutPolicy::disabled(),
            recodelet: RecodeletPolicy::disabled(),
            simd: SimdPolicy::disabled(),
            batch: BatchPolicy::disabled(),
            stream: StreamPolicy::disabled(),
        }
    }

    /// This policy with the fusion stage replaced (builder style).
    #[must_use]
    pub fn with_fusion(mut self, fusion: FusionPolicy) -> Self {
        self.fusion = fusion;
        self
    }

    /// This policy with the tail stage replaced (builder style).
    #[must_use]
    pub fn with_relayout(mut self, relayout: RelayoutPolicy) -> Self {
        self.relayout = relayout;
        self
    }

    /// This policy with the re-codelet stage replaced (builder
    /// style).
    #[must_use]
    pub fn with_recodelet(mut self, recodelet: RecodeletPolicy) -> Self {
        self.recodelet = recodelet;
        self
    }

    /// This policy with the kernel backend replaced (builder style).
    #[must_use]
    pub fn with_simd(mut self, simd: SimdPolicy) -> Self {
        self.simd = simd;
        self
    }

    /// This policy with the batch stage replaced (builder style).
    #[must_use]
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// This policy with the streaming stage replaced (builder style).
    #[must_use]
    pub fn with_stream(mut self, stream: StreamPolicy) -> Self {
        self.stream = stream;
        self
    }

    /// Canonical schedule-cache key: one tuple covering every knob, with
    /// all disabled variants of a stage collapsing to the same key. This
    /// is **the** cache key — adding a lowering stage means adding a
    /// component here, not a new cache layer.
    pub fn cache_key(&self) -> ExecKey {
        (
            self.fusion.cache_key(),
            self.relayout.cache_key(),
            self.recodelet.cache_key(),
            self.simd.enabled(),
            self.batch.cache_key(),
            self.stream.cache_key(),
        )
    }
}
