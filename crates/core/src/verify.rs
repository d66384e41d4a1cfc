//! Static schedule verifier: proves — without executing anything — that
//! a lowered [`CompiledPlan`] cannot index out of bounds, race, skip, or
//! double-write an element, that it applies the interpreter's radix-2
//! levels once each and in order, and that its declared scratch
//! requirements are exactly what its geometry implies.
//!
//! The `unsafe` kernels in [`crate::codelets`] replay whatever schedule
//! the lowering pipeline hands them; their soundness rests entirely on
//! schedule-level invariants. This module is the analyzer that proves
//! them: it walks the IR symbolically, checks every invariant family the
//! executor and the parallel engine rely on, and returns **all**
//! violations as typed [`VerifyDiagnostic`]s (site, unit provenance,
//! violated invariant) instead of one error. Differential
//! tests witness "bit-identical on the inputs we sampled"; `verify()`
//! upgrades that to "cannot fault, and computes the interpreter's bits,
//! for any input".
//!
//! # The four invariant families
//!
//! **Bounds** ([`VerifyInvariant::Bounds`]): interval arithmetic over
//! every index expression the executor evaluates. A part `(k, r, s)` at
//! `base`/`stride` reaches element `base + (r·2^k·s − 1)·stride` of its
//! tile, and its in-place replay the same of the vector; a column tail's
//! period must divide the vector; a batched cross tile sweeps
//! `tile_cols` columns at a time across a `2^n`-element row.
//! All of it must stay inside the declared extent, computed with checked
//! arithmetic so absurd hand-built extents surface as
//! [`VerifyInvariant::Overflow`], never as a wrapped index that happens
//! to pass.
//!
//! **Write-disjointness** ([`VerifyInvariant::Disjointness`]): butterfly
//! output ranges within a pass are pairwise disjoint (the mixed-radix
//! index map `(j, t, u) ↦ j·2^k·s + t + u·s` is a bijection onto
//! `[0, r·2^k·s)` — corroborated concretely for small tiles by
//! exhaustive write-counting), and the chunk and shard boundaries the
//! executors cut never split a butterfly: whole tiles, contiguous ranges
//! of whole invocations of a flat pass, and chunks of residues mod the
//! period `P` of a column unit. A column unit's chunk width must be a
//! power of two dividing `P`, so the chunks partition the residues, and
//! every part's in-place stride must be a multiple of `P` (the **mod-`P`
//! closure**), so that each part maps each residue class mod `P` onto
//! itself and chunks stay write-disjoint across all parts. Column tails
//! are the only units cut into chunks, so with those checks `apply`'s
//! chunk-major replay and `par_apply_*` are race-free by construction,
//! not by testing.
//!
//! **Coverage / the level chain** ([`VerifyInvariant::Coverage`]): every
//! pass writes every element of its unit exactly once (canonical frame:
//! `base = 0`, `stride = 1`, span equal to its tile), every unit's tile
//! grid covers the whole vector, and the flat passes, in execution
//! order, apply the radix-2 levels `0..n` once each and in increasing
//! order: each pass starts at the next unapplied level (inner extent
//! `s = 2^level`) and the walk ends at level `n`. Every plan of the
//! paper's family applies its levels in that order, so a schedule that
//! passes is bit-identical to the recursive interpreter for every input.
//! A schedule that is bounds-safe but drops, repeats or reorders a level
//! is refused, whether it then computes a wrong transform or the right
//! one with other bits. The same chain runs over the flat factor list
//! and the batch product's `cross ++ tail` passes.
//!
//! **Scratch sizing** ([`VerifyInvariant::Scratch`]): the batched path's
//! declared [`CompiledPlan::batch_scratch_elems`] must *equal* the L1
//! tile the cross sweep actually streams through, for every lane width
//! (not merely exceed it — over-allocation is a bug the ROADMAP's
//! service front-end would pay per worker). The single-transform replay
//! runs in place and needs none.
//!
//! # Wiring
//!
//! Four layers consume the verifier:
//! - [`CompiledPlan::verify`] — the public API; returns every diagnostic.
//! - [`CompiledPlan::lower`] re-proves the schedule after **every**
//!   pipeline stage in debug builds.
//! - [`CompiledPlan::from_super_passes`] gates hand-built schedules with
//!   it in every build, returning the first diagnostic as a typed
//!   [`WhtError::InvalidSchedule`](crate::WhtError::InvalidSchedule).
//! - the `verifier_fuzz` test runs the checker over thousands of random
//!   plans × [`ExecPolicy`](crate::ExecPolicy) points and
//!   mutation-tests it (corrupted stride/offset/k, or a part moved onto
//!   an applied level, must be rejected with a diagnostic naming the
//!   invariant).

use crate::compile::{
    cross_tile_cols_for, BatchSchedule, CompiledPlan, Pass, Provenance, SuperPass, BATCH_MAX_ELEMS,
    CROSS_MAX_S,
};
use crate::plan::{MAX_LEAF_K, MAX_N};
use std::fmt;

/// Largest tile for which the verifier *additionally* corroborates the
/// symbolic coverage/disjointness proof by exhaustively counting writes
/// (one `u8` per tile element, one increment per butterfly output).
/// Bigger tiles rely on the mixed-radix argument alone — which is exact,
/// so the cap only bounds verifier cost, never soundness. `2^10` keeps
/// the debug-build post-stage hook negligible while letting the fuzz
/// suite exercise the concrete counter on every small transform.
pub const EXACT_COVER_MAX_TILE: usize = 1 << 10;

/// The invariant family a [`VerifyDiagnostic`] reports as violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyInvariant {
    /// The schedule is not in the canonical form every executor path
    /// assumes (empty grids, non-canonical top-level frame, codelet
    /// exponent outside the unrolled family, malformed batch split, …).
    Structure,
    /// An index expression escapes its declared extent (tile, vector,
    /// column period, or batched row).
    Bounds,
    /// An extent/index computation overflows `usize` — the schedule's
    /// arithmetic is not even evaluable, let alone safe.
    Overflow,
    /// Two writes alias: butterfly outputs within a pass, column chunks
    /// that are not closed under a part or do not partition the residues,
    /// or parallel shard boundaries that would split a butterfly.
    Disjointness,
    /// An element is skipped, or the flat passes do not apply the
    /// radix-2 levels `0..n` once each and in order (the level chain): a
    /// wrong result, or other bits than the interpreter's, even if
    /// memory-safe.
    Coverage,
    /// A declared scratch requirement differs from the one the geometry
    /// implies.
    Scratch,
}

impl VerifyInvariant {
    /// Stable lowercase name (used in diagnostics and test assertions).
    pub fn name(self) -> &'static str {
        match self {
            VerifyInvariant::Structure => "structure",
            VerifyInvariant::Bounds => "bounds",
            VerifyInvariant::Overflow => "overflow",
            VerifyInvariant::Disjointness => "disjointness",
            VerifyInvariant::Coverage => "coverage",
            VerifyInvariant::Scratch => "scratch",
        }
    }
}

impl fmt::Display for VerifyInvariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where in the schedule IR a [`VerifyDiagnostic`] points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifySite {
    /// A scheduling unit of the super-pass schedule (and optionally one
    /// tile-relative part within it).
    Unit {
        /// Index into [`CompiledPlan::super_passes`].
        unit: usize,
        /// Index into that unit's [`SuperPass::parts`], when the
        /// violation is attributable to one part.
        part: Option<usize>,
    },
    /// A pass of the flat factor schedule ([`CompiledPlan::passes`]).
    FlatPass {
        /// Index into the flat pass list.
        index: usize,
    },
    /// The batched-execution product ([`BatchSchedule`]), optionally one
    /// pass of the concatenated `cross ++ tail` sequence.
    Batch {
        /// Index into `cross ++ tail` (cross passes first), when the
        /// violation is attributable to one pass.
        pass: Option<usize>,
    },
    /// The schedule as a whole (factor-product and scratch-sizing
    /// violations have no single offending unit).
    Schedule,
}

impl fmt::Display for VerifySite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifySite::Unit { unit, part: None } => write!(f, "unit {unit}"),
            VerifySite::Unit {
                unit,
                part: Some(p),
            } => write!(f, "unit {unit} part {p}"),
            VerifySite::FlatPass { index } => write!(f, "flat pass {index}"),
            VerifySite::Batch { pass: None } => write!(f, "batch schedule"),
            VerifySite::Batch { pass: Some(p) } => write!(f, "batch pass {p}"),
            VerifySite::Schedule => write!(f, "schedule"),
        }
    }
}

/// One violation found by the verifier: where, which invariant, and (for
/// unit sites) which lowering stages produced the offending unit — so a
/// pipeline regression names the stage that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyDiagnostic {
    /// Where in the IR the violation sits.
    pub site: VerifySite,
    /// Per-stage provenance of the offending unit, when the site is one.
    pub provenance: Option<Provenance>,
    /// The violated invariant family.
    pub invariant: VerifyInvariant,
    /// Human-readable statement of the violation (concrete numbers).
    pub message: String,
}

impl fmt::Display for VerifyDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.invariant, self.site, self.message)?;
        if let Some(p) = self.provenance {
            write!(
                f,
                " (provenance: fused={} relayouted={} recodeleted={})",
                p.fused, p.relayouted, p.recodeleted
            )?;
        }
        Ok(())
    }
}

/// Accumulator shared by every check: pushes fully-formed diagnostics.
struct Diags {
    out: Vec<VerifyDiagnostic>,
}

impl Diags {
    fn new() -> Self {
        Diags { out: Vec::new() }
    }

    fn push(
        &mut self,
        site: VerifySite,
        provenance: Option<Provenance>,
        invariant: VerifyInvariant,
        message: String,
    ) {
        self.out.push(VerifyDiagnostic {
            site,
            provenance,
            invariant,
            message,
        });
    }
}

/// `2^n` as `usize`, or a diagnostic when the exponent itself is out of
/// the supported range (`n > MAX_N` would make every downstream extent
/// check meaningless — and `1usize << n` plain UB-adjacent arithmetic).
fn checked_size(n: u32, diags: &mut Diags) -> Option<usize> {
    if n > MAX_N || n >= usize::BITS {
        diags.push(
            VerifySite::Schedule,
            None,
            VerifyInvariant::Overflow,
            format!("transform exponent n = {n} exceeds the supported maximum {MAX_N}"),
        );
        return None;
    }
    Some(1usize << n)
}

/// Checked `r · 2^k · s` (a pass's span), `None` on overflow.
fn checked_span(p: &Pass) -> Option<usize> {
    if p.k >= usize::BITS {
        return None;
    }
    (1usize << p.k).checked_mul(p.s)?.checked_mul(p.r)
}

/// Checked farthest element a pass touches relative to its own frame:
/// `base + (span − 1) · stride`. `None` on overflow (including span
/// overflow) and for an empty pass, which reaches nothing.
fn checked_reach(p: &Pass) -> Option<usize> {
    let span = checked_span(p)?;
    span.checked_sub(1)?
        .checked_mul(p.stride)?
        .checked_add(p.base)
}

/// What [`check_pass_in_frame`] established about a pass, gating the
/// dependent checks: exhaustive write-counting needs every index
/// in-range (`indexable`), the level chain needs the pass fully
/// canonical (`clean`).
#[derive(Clone, Copy)]
struct PassCheck {
    /// Grid non-empty, `k` in the codelet family, and every index the
    /// pass evaluates provably inside the frame — safe to enumerate.
    indexable: bool,
    /// No violation at all.
    clean: bool,
}

/// Shared per-pass checks against an `extent`-element frame (a tile, the
/// whole vector, or a column chunk): structure of the grid,
/// bounds of the farthest index, and the canonical exactly-once coverage
/// frame.
fn check_pass_in_frame(
    p: &Pass,
    extent: usize,
    frame: &str,
    site: VerifySite,
    provenance: Option<Provenance>,
    diags: &mut Diags,
) -> PassCheck {
    let failed = PassCheck {
        indexable: false,
        clean: false,
    };
    if !(1..=MAX_LEAF_K).contains(&p.k) {
        diags.push(
            site,
            provenance,
            VerifyInvariant::Structure,
            format!(
                "codelet exponent k = {} outside the unrolled family 1..={MAX_LEAF_K}",
                p.k
            ),
        );
        return failed;
    }
    if p.r == 0 || p.s == 0 {
        diags.push(
            site,
            provenance,
            VerifyInvariant::Structure,
            format!("empty invocation grid (r = {}, s = {})", p.r, p.s),
        );
        return failed;
    }
    let Some(span) = checked_span(p) else {
        diags.push(
            site,
            provenance,
            VerifyInvariant::Overflow,
            format!(
                "span r·2^k·s overflows (r = {}, k = {}, s = {})",
                p.r, p.k, p.s
            ),
        );
        return failed;
    };
    let mut indexable = true;
    let mut clean = true;
    match checked_reach(p) {
        None => {
            diags.push(
                site,
                provenance,
                VerifyInvariant::Overflow,
                format!(
                    "farthest index base + (span−1)·stride overflows \
                     (base = {}, stride = {}, span = {span})",
                    p.base, p.stride
                ),
            );
            indexable = false;
            clean = false;
        }
        Some(reach) if reach >= extent => {
            diags.push(
                site,
                provenance,
                VerifyInvariant::Bounds,
                format!(
                    "pass reaches element {reach} of a {extent}-element {frame} \
                     (base = {}, stride = {}, span = {span})",
                    p.base, p.stride
                ),
            );
            indexable = false;
            clean = false;
        }
        Some(_) => {}
    }
    if p.base != 0 || p.stride != 1 || span != extent {
        diags.push(
            site,
            provenance,
            VerifyInvariant::Coverage,
            format!(
                "pass does not write every element of its {frame} exactly once \
                 (base = {}, stride = {}, span = {span} vs {frame} {extent})",
                p.base, p.stride
            ),
        );
        clean = false;
    }
    PassCheck { indexable, clean }
}

/// Concrete corroboration of the symbolic coverage/disjointness proof:
/// replay the pass's own index arithmetic ([`Pass::invocation_base`] /
/// [`Pass::codelet_stride`] — exactly what the executor evaluates) into
/// a per-element write counter. Only called for passes that already
/// passed [`check_pass_in_frame`] on a frame of at most
/// [`EXACT_COVER_MAX_TILE`] elements, so every index is in bounds.
fn check_exact_cover(
    p: &Pass,
    extent: usize,
    site: VerifySite,
    provenance: Option<Provenance>,
    diags: &mut Diags,
) {
    let mut writes = vec![0u8; extent];
    let cs = p.codelet_stride();
    for q in 0..p.invocations() {
        let b = p.invocation_base(q);
        for u in 0..(1usize << p.k) {
            let idx = b + u * cs;
            // Saturate so one duplicated element cannot wrap to "once".
            writes[idx] = writes[idx].saturating_add(1);
        }
    }
    if let Some(idx) = writes.iter().position(|&c| c > 1) {
        diags.push(
            site,
            provenance,
            VerifyInvariant::Disjointness,
            format!(
                "butterfly outputs alias: element {idx} written {} times in one pass",
                writes[idx]
            ),
        );
    } else if let Some(idx) = writes.iter().position(|&c| c == 0) {
        diags.push(
            site,
            provenance,
            VerifyInvariant::Coverage,
            format!("element {idx} never written by the pass"),
        );
    }
}

/// The level chain (see the module docs): fed a schedule's flat passes
/// in execution order, it requires each to start at the next unapplied
/// radix-2 level — inner extent `s = 2^level` — and stay within the `n`
/// levels, and the walk to end at level `n`. The first miss is one
/// [`VerifyInvariant::Coverage`] diagnostic at its pass; the walk stops
/// there.
struct LevelChain {
    n: u32,
    /// Levels applied so far; `None` once a pass broke the chain or was
    /// too malformed to have a level (its own checks reported it).
    level: Option<u32>,
}

impl LevelChain {
    fn new(n: u32) -> Self {
        LevelChain { n, level: Some(0) }
    }

    /// A pass too malformed to have a level (its own checks reported
    /// it): the walk stops without a further diagnostic.
    fn stop(&mut self) {
        self.level = None;
    }

    /// The next flat pass in execution order.
    fn step(
        &mut self,
        p: &Pass,
        site: VerifySite,
        provenance: Option<Provenance>,
        diags: &mut Diags,
    ) {
        let Some(level) = self.level.take() else {
            return;
        };
        let message = if p.s != 1usize << level {
            format!(
                "pass at inner extent {} does not start at the next unapplied \
                 radix-2 level {level} (inner extent {}): it repeats, skips or \
                 reorders levels",
                p.s,
                1usize << level
            )
        } else if p.k > self.n - level {
            format!(
                "pass applies radix-2 levels {level}..{}, past the transform's {}",
                level + p.k,
                self.n
            )
        } else {
            self.level = Some(level + p.k);
            return;
        };
        diags.push(site, provenance, VerifyInvariant::Coverage, message);
    }

    /// The walk is over: it must have reached level `n` (reported at
    /// `site` when it stopped short).
    fn end(self, site: VerifySite, diags: &mut Diags) {
        if let Some(level) = self.level.filter(|&level| level != self.n) {
            diags.push(
                site,
                None,
                VerifyInvariant::Coverage,
                format!(
                    "factor sequence applies radix-2 levels 0..{level}: it multiplies \
                     to 2^{level}, not the transform size 2^{}",
                    self.n
                ),
            );
        }
    }
}

/// Verify one scheduling unit against the vector size, and feed its
/// parts, as flat passes, to the level chain.
fn check_unit(
    index: usize,
    sp: &SuperPass,
    size: usize,
    chain: &mut LevelChain,
    diags: &mut Diags,
) {
    let prov = Some(sp.provenance());
    let site = VerifySite::Unit {
        unit: index,
        part: None,
    };
    if sp.parts().is_empty() {
        diags.push(
            site,
            prov,
            VerifyInvariant::Structure,
            "super-pass has no parts".into(),
        );
        chain.stop();
        return;
    }
    // A column unit's geometry first: its chunk grid is derived from it,
    // so a bad period or chunk width is the root cause of any grid
    // finding below.
    if let Some(g) = sp.columns() {
        check_column_unit(index, sp, size, diags);
        // The mod-P closure: column parts are stored in chunk
        // coordinates, where the in-place stride s = m·period reads
        // s' = m·cols. An inner extent that is not a whole number of
        // chunk columns is an in-place stride that is not a multiple of
        // the period: the part would move elements between chunks.
        for (pi, part) in sp.parts().iter().enumerate() {
            if g.cols == 0 || part.s % g.cols != 0 {
                diags.push(
                    VerifySite::Unit {
                        unit: index,
                        part: Some(pi),
                    },
                    prov,
                    VerifyInvariant::Disjointness,
                    format!(
                        "column part inner extent {} is not a multiple of the chunk \
                         width {}: its in-place stride is not a multiple of the \
                         period {}, so chunks are not closed under it",
                        part.s, g.cols, g.period
                    ),
                );
            }
        }
    }
    if sp.tile_elems() == 0 || sp.tiles() == 0 {
        diags.push(
            site,
            prov,
            VerifyInvariant::Structure,
            format!(
                "empty tile grid ({} tiles × {} elements)",
                sp.tiles(),
                sp.tile_elems()
            ),
        );
        chain.stop();
        return;
    }
    // Canonical top-level frame: both the tile partition argument and the
    // parallel engine's shard arithmetic assume it.
    if sp.base() != 0 || sp.stride() != 1 {
        diags.push(
            site,
            prov,
            VerifyInvariant::Structure,
            format!(
                "top-level unit must sit at base 0, stride 1 (got base {}, stride {})",
                sp.base(),
                sp.stride()
            ),
        );
    }
    // The tile grid must cover the vector exactly: `tiles` contiguous
    // `tile`-element blocks partition [0, 2^n) iff their product is 2^n
    // (given the canonical frame above) — that partition is also what
    // makes tile-granular parallel shards disjoint.
    match sp.tiles().checked_mul(sp.tile_elems()) {
        None => diags.push(
            site,
            prov,
            VerifyInvariant::Overflow,
            format!(
                "tile grid size {} × {} overflows",
                sp.tiles(),
                sp.tile_elems()
            ),
        ),
        Some(span) if span != size => diags.push(
            site,
            prov,
            VerifyInvariant::Coverage,
            format!(
                "{} tiles × {} elements span {span}, not the {size}-element vector",
                sp.tiles(),
                sp.tile_elems()
            ),
        ),
        Some(_) => {}
    }
    for (pi, part) in sp.parts().iter().enumerate() {
        let psite = VerifySite::Unit {
            unit: index,
            part: Some(pi),
        };
        let check = check_pass_in_frame(part, sp.tile_elems(), "tile", psite, prov, diags);
        // The write counter only needs in-range indices, not a clean
        // pass: a non-canonical frame that aliases (e.g. stride 0) is
        // exactly what it should pin down as a disjointness violation.
        if check.indexable && sp.tile_elems() <= EXACT_COVER_MAX_TILE {
            check_exact_cover(part, sp.tile_elems(), psite, prov, diags);
        }
        if !check.clean {
            chain.stop();
            continue;
        }
        // Parallel invocation-granular sharding replays the unfused flat
        // pass, and the level chain reads it; its frame is the whole
        // vector.
        let flat = sp.flat_pass(pi);
        if checked_reach(&flat).is_none_or(|reach| reach >= size)
            || flat.base != 0
            || flat.stride != 1
            || checked_span(&flat) != Some(size)
        {
            diags.push(
                psite,
                prov,
                VerifyInvariant::Disjointness,
                format!(
                    "unfused replay of this part is not a whole-vector pass \
                     (k = {}, r = {}, s = {}, base = {}, stride = {}): \
                     invocation-granular parallel shards would mis-slice",
                    flat.k, flat.r, flat.s, flat.base, flat.stride
                ),
            );
            chain.stop();
        } else {
            chain.step(&flat, psite, prov, diags);
        }
    }
}

/// The column-specific geometry checks of one unit: the chunk partition
/// (disjointness), the matrix view (bounds) and the chunk grid the unit
/// declares (coverage, structure).
fn check_column_unit(index: usize, sp: &SuperPass, size: usize, diags: &mut Diags) {
    let g = sp.columns().expect("caller checked is_column_tail");
    let prov = Some(sp.provenance());
    let site = VerifySite::Unit {
        unit: index,
        part: None,
    };
    if g.period == 0 || g.cols == 0 {
        diags.push(
            site,
            prov,
            VerifyInvariant::Structure,
            format!(
                "empty column geometry (period = {}, cols = {})",
                g.period, g.cols
            ),
        );
        return;
    }
    // Chunk c takes residues [c·cols, (c+1)·cols) mod the period; the
    // chunks are pairwise disjoint and cover every residue (so chunk-
    // granular replay and parallel claims are race-free) iff whole
    // chunks tile the period.
    if !g.cols.is_power_of_two() || !g.period.is_multiple_of(g.cols) {
        diags.push(
            site,
            prov,
            VerifyInvariant::Disjointness,
            format!(
                "chunks of {} columns do not partition the {} residues mod \
                 the period: the chunk width must be a power of two dividing it",
                g.cols, g.period
            ),
        );
    }
    if g.period > size || !size.is_multiple_of(g.period) {
        diags.push(
            site,
            prov,
            VerifyInvariant::Bounds,
            format!(
                "period {} does not divide the {size}-element vector: its \
                 columns would run past the end",
                g.period
            ),
        );
        return;
    }
    let depth = size / g.period;
    if depth.checked_mul(g.cols) != Some(sp.tile_elems()) {
        diags.push(
            site,
            prov,
            VerifyInvariant::Coverage,
            format!(
                "a chunk holds {depth} × {} elements but the unit declares \
                 {}-element tiles",
                g.cols,
                sp.tile_elems()
            ),
        );
    }
    if g.period / g.cols != sp.tiles() {
        diags.push(
            site,
            prov,
            VerifyInvariant::Structure,
            format!(
                "a period of {} columns splits into {} chunks of {} but the \
                 unit declares {} tiles",
                g.period,
                g.period / g.cols,
                g.cols,
                sp.tiles()
            ),
        );
    }
}

/// Verify a super-pass schedule for a `2^n`-element transform: every
/// unit's bounds, disjointness, and coverage, plus the level chain over
/// its flat passes. This is the core of [`CompiledPlan::verify`],
/// exposed standalone so hand-built (including deliberately corrupted)
/// unit lists can be checked without constructing a `CompiledPlan` — the
/// mutation tests' entry point, since [`CompiledPlan::from_super_passes`]
/// refuses to carry an invalid schedule in the first place.
pub fn verify_schedule(n: u32, schedule: &[SuperPass]) -> Vec<VerifyDiagnostic> {
    let mut diags = Diags::new();
    let Some(size) = checked_size(n, &mut diags) else {
        return diags.out;
    };
    if schedule.is_empty() {
        diags.push(
            VerifySite::Schedule,
            None,
            VerifyInvariant::Structure,
            "schedule has no units".into(),
        );
        return diags.out;
    }
    // Every part is one composed factor WHT(2^k) of the global Kronecker
    // product (re-codeleted parts carry the regrouped exponent), applying
    // k radix-2 levels at its in-place stride.
    let mut chain = LevelChain::new(n);
    for (index, sp) in schedule.iter().enumerate() {
        check_unit(index, sp, size, &mut chain, &mut diags);
    }
    chain.end(VerifySite::Schedule, &mut diags);
    diags.out
}

/// Verify the flat factor schedule (the unfused view every regrouping
/// stage preserves and the parallel engine's in-place replay runs):
/// every pass must cover the whole vector exactly once in the
/// canonical frame, and the passes must form the level chain.
pub fn verify_flat_passes(n: u32, passes: &[Pass]) -> Vec<VerifyDiagnostic> {
    let mut diags = Diags::new();
    let Some(size) = checked_size(n, &mut diags) else {
        return diags.out;
    };
    if passes.is_empty() {
        diags.push(
            VerifySite::Schedule,
            None,
            VerifyInvariant::Structure,
            "flat schedule has no factors".into(),
        );
        return diags.out;
    }
    let mut chain = LevelChain::new(n);
    for (index, p) in passes.iter().enumerate() {
        let site = VerifySite::FlatPass { index };
        let check = check_pass_in_frame(p, size, "vector", site, None, &mut diags);
        if check.indexable && size <= EXACT_COVER_MAX_TILE {
            check_exact_cover(p, size, site, None, &mut diags);
        }
        if check.clean {
            chain.step(p, site, None, &mut diags);
        } else {
            chain.stop();
        }
    }
    chain.end(VerifySite::Schedule, &mut diags);
    diags.out
}

/// Lane widths ([`crate::Scalar::LANES`]) of the supported scalar types:
/// 8 for the 8-byte scalars (`f64`/`i64`), 16 for the 4-byte ones
/// (`f32`/`i32`). The batch checks re-derive the cross-tile geometry at
/// every width, since the schedule is scalar-type-agnostic but the
/// executed tile arithmetic is not.
const BATCH_LANE_WIDTHS: [usize; 2] = [8, 16];

/// Verify a batched-execution product against the transform exponent
/// (see [`verify_batch_split`] for the checks; this borrows them for a
/// pipeline-built [`BatchSchedule`]).
pub fn verify_batch(n: u32, batch: &BatchSchedule) -> Vec<VerifyDiagnostic> {
    verify_batch_split(n, batch.cross(), batch.tail())
}

/// Verify a batched-execution split against the transform exponent: the
/// `cross ++ tail` split must itself be a valid flat schedule (whole-vector
/// passes forming the level chain), the split
/// must respect the lane-width threshold it was cut at, and the
/// cross-tile sweep [`CompiledPlan::apply_batch_with_scratch`] runs must
/// be exact (whole butterflies per tile, whole tiles per row) for every
/// lane width. Takes the raw pass lists so hand-built (including
/// deliberately corrupted) splits can be checked — the batch mutation
/// tests' entry point, since only the batch stage constructs a
/// [`BatchSchedule`].
pub fn verify_batch_split(n: u32, cross: &[Pass], tail: &[Pass]) -> Vec<VerifyDiagnostic> {
    let mut diags = Diags::new();
    let Some(size) = checked_size(n, &mut diags) else {
        return diags.out;
    };
    let whole = VerifySite::Batch { pass: None };
    if cross.is_empty() {
        diags.push(
            whole,
            None,
            VerifyInvariant::Structure,
            "batch product with an empty cross prefix".into(),
        );
    }
    if size > BATCH_MAX_ELEMS {
        diags.push(
            whole,
            None,
            VerifyInvariant::Structure,
            format!(
                "2^{n}-element transform exceeds the {BATCH_MAX_ELEMS}-element \
                 batch cap"
            ),
        );
    }
    // The concatenated split is the flat schedule apply_batch replays per
    // transform: the same whole-vector-per-pass and level-chain
    // obligations. The chain's increasing inner extents also make the
    // narrow passes a prefix, which the lane-width checks below pin to
    // the cross side.
    let mut chain = LevelChain::new(n);
    let cross_len = cross.len();
    for (index, p) in cross.iter().chain(tail).enumerate() {
        let site = VerifySite::Batch { pass: Some(index) };
        if !check_pass_in_frame(p, size, "vector", site, None, &mut diags).clean {
            chain.stop();
            continue;
        }
        chain.step(p, site, None, &mut diags);
        if index < cross_len && p.s >= CROSS_MAX_S {
            diags.push(
                site,
                None,
                VerifyInvariant::Structure,
                format!(
                    "pass with inner extent {} ≥ {CROSS_MAX_S} is already full \
                     lane width, yet scheduled cross-transform",
                    p.s
                ),
            );
        }
        if index >= cross_len && p.s < CROSS_MAX_S {
            diags.push(
                site,
                None,
                VerifyInvariant::Structure,
                format!(
                    "narrow pass (inner extent {} < {CROSS_MAX_S}) left in the \
                     within-transform tail",
                    p.s
                ),
            );
        }
    }
    chain.end(whole, &mut diags);
    // Per lane width: re-derive the cross-tile geometry and prove the
    // sweep exact. tile_cols must divide the row (or the last gather
    // overruns it) and every cross footprint must divide tile_cols (or a
    // tile boundary would split a butterfly — the batched counterpart of
    // the parallel shard rule).
    for w in BATCH_LANE_WIDTHS {
        for (ci, p) in cross.iter().enumerate() {
            let site = VerifySite::Batch { pass: Some(ci) };
            let Some(foot) = checked_span(&Pass { r: 1, ..*p }) else {
                // Already diagnosed as Overflow by the flat checks above.
                continue;
            };
            let Some(tile_cols) = cross_tile_cols_for(cross, size, w) else {
                diags.push(
                    whole,
                    None,
                    VerifyInvariant::Overflow,
                    format!("cross-tile geometry overflows at lane width {w}"),
                );
                break;
            };
            if tile_cols == 0 || size % tile_cols != 0 {
                diags.push(
                    site,
                    None,
                    VerifyInvariant::Bounds,
                    format!(
                        "cross tile of {tile_cols} columns does not divide the \
                         {size}-element row at lane width {w}: the tile sweep \
                         would overrun the lane group"
                    ),
                );
                continue;
            }
            if foot == 0 || tile_cols % foot != 0 {
                diags.push(
                    site,
                    None,
                    VerifyInvariant::Disjointness,
                    format!(
                        "cross tile of {tile_cols} columns splits the \
                         {foot}-element butterfly block at lane width {w}"
                    ),
                );
                continue;
            }
            // The scaled pass (k, tile_cols/foot, s·w) must span exactly
            // the transposed tile: (tile_cols/foot)·2^k·s·w = tile_cols·w.
            let scaled_ok =
                p.s.checked_mul(w)
                    .and_then(|sw| (1usize << p.k).checked_mul(sw))
                    .and_then(|block| (tile_cols / foot).checked_mul(block))
                    == tile_cols.checked_mul(w);
            if !scaled_ok {
                diags.push(
                    site,
                    None,
                    VerifyInvariant::Coverage,
                    format!(
                        "lane-scaled pass does not span the transposed \
                         {tile_cols}×{w} tile exactly"
                    ),
                );
            }
        }
    }
    diags.out
}

impl CompiledPlan {
    /// Statically prove this lowered schedule safe to execute: every
    /// index in bounds, every write-set disjoint, every element covered
    /// exactly once per factor with the factors applying the radix-2
    /// levels `0..n` once each and in order (so the replay computes the
    /// interpreter's bits), and every declared scratch requirement
    /// exactly the derived one —
    /// for the super-pass schedule, the flat factor view, and the
    /// batched product alike. Returns **all** violations (empty means
    /// proven); see the [module docs](crate::verify) for the invariant
    /// families and what each guards.
    pub fn verify(&self) -> Vec<VerifyDiagnostic> {
        let mut diags = verify_schedule(self.n(), self.super_passes());
        diags.extend(verify_flat_passes(self.n(), self.passes()));
        if let Some(batch) = self.batch_schedule() {
            diags.extend(verify_batch(self.n(), batch));
            for w in BATCH_LANE_WIDTHS {
                let declared = self.batch_scratch_elems(w);
                let expected = batch
                    .cross_tile_cols(self.size(), w)
                    .and_then(|tc| tc.checked_mul(w));
                if expected != Some(declared) {
                    diags.push(VerifyDiagnostic {
                        site: VerifySite::Batch { pass: None },
                        provenance: None,
                        invariant: VerifyInvariant::Scratch,
                        message: format!(
                            "declared batch scratch {declared} at lane width {w} \
                             differs from the derived cross tile ({expected:?})"
                        ),
                    });
                }
            }
        }
        diags
    }
}
