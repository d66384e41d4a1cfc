//! Trace-driven cache measurement: replay the engine's exact memory
//! accesses through a simulated hierarchy.
//!
//! This replaces the paper's PAPI L1 data-cache miss counter. A leaf
//! codelet call at `(base, stride)` loads its `2^k` elements in index order
//! and then stores them in the same order (the codelet contract documented
//! in `wht_core::codelets`), so the trace is reproduced exactly without
//! touching data.

use wht_cachesim::{CacheConfig, CacheStats, ConfigError, Hierarchy};
use wht_core::{
    traverse, ColumnTail, CompiledPlan, ExecHooks, PassBackend, Plan, Provenance, SuperPass,
};

/// [`ExecHooks`] implementation that feeds every element access of the
/// computation through a [`Hierarchy`].
#[derive(Debug)]
pub struct TraceExecutor {
    hierarchy: Hierarchy,
}

impl TraceExecutor {
    /// Wrap a (typically cold) hierarchy.
    pub fn new(hierarchy: Hierarchy) -> Self {
        TraceExecutor { hierarchy }
    }

    /// Finish and return the hierarchy with its accumulated stats.
    pub fn into_hierarchy(self) -> Hierarchy {
        self.hierarchy
    }

    /// Borrow the hierarchy (e.g. to read stats mid-trace).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }
}

/// One leaf codelet's memory trace — the codelet contract documented in
/// `wht_core::codelets`: load the `2^k` elements in index order, then
/// store them in the same order. Every trace consumer in this module
/// shares this generator so segmented and aggregate traces cannot
/// diverge.
fn trace_leaf(hierarchy: &mut Hierarchy, k: u32, base: usize, stride: usize) {
    let size = 1usize << k;
    // Load pass.
    for j in 0..size {
        hierarchy.access_element(base + j * stride);
    }
    // Store pass (same addresses, same order).
    for j in 0..size {
        hierarchy.access_element(base + j * stride);
    }
}

impl ExecHooks for TraceExecutor {
    #[inline]
    fn leaf_call(&mut self, k: u32, base: usize, stride: usize) {
        trace_leaf(&mut self.hierarchy, k, base, stride);
    }
}

/// Per-level stats of one cold execution of `plan` through `hierarchy`
/// (the hierarchy is reset first).
pub fn trace_misses(plan: &Plan, hierarchy: &mut Hierarchy) -> Vec<CacheStats> {
    hierarchy.reset();
    let mut exec = TraceExecutor::new(hierarchy.clone());
    traverse(plan, &mut exec);
    let result = exec.into_hierarchy();
    let stats: Vec<CacheStats> = (0..result.depth()).map(|i| result.stats(i)).collect();
    *hierarchy = result;
    stats
}

/// Per-level stats of one cold *compiled* execution through `hierarchy`
/// (reset first): the same [`TraceExecutor`] hooks driven by
/// [`CompiledPlan::traverse`], so the trace replays exactly the `Vec<Pass>`
/// program [`CompiledPlan::apply`] runs — measured and executed work share
/// one schedule and structurally cannot drift. Compiled execution is
/// pass-major rather than the interpreter's block-major order, so its miss
/// counts legitimately differ from [`trace_misses`]; that difference is
/// the schedule change, not measurement error.
pub fn trace_misses_compiled(
    compiled: &CompiledPlan,
    hierarchy: &mut Hierarchy,
) -> Vec<CacheStats> {
    hierarchy.reset();
    let mut exec = TraceExecutor::new(hierarchy.clone());
    compiled.traverse(&mut exec);
    let result = exec.into_hierarchy();
    let stats: Vec<CacheStats> = (0..result.depth()).map(|i| result.stats(i)).collect();
    *hierarchy = result;
    stats
}

/// Cache traffic of one super-pass of a fused replay: the schedule-level
/// observability behind the fusion layer (`wht_core::compile`) — each row
/// says how much of the vector one scheduling unit streamed and what it
/// cost in misses, so the miss reduction fusion buys is quantified per
/// super-pass rather than only in aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperPassTraffic {
    /// Fused factor count (1 for an unfused pass).
    pub parts: usize,
    /// Cache tiles the super-pass iterates.
    pub tiles: usize,
    /// Elements per tile.
    pub tile_elems: usize,
    /// Kernel backend the executor replays this super-pass with (recorded
    /// in the schedule; the lane backend loads `W`-element blocks but
    /// still reads and writes each element exactly once per pass, so the
    /// access and miss columns are charged identically for both backends —
    /// except for a pass wider than eight rows over more than 32 KiB per
    /// call, which the lane backend runs as chained sweeps; see
    /// `wht_core::apply_pass_lanes`).
    pub backend: PassBackend,
    /// `Some` when the unit is a column tail (its "tiles" are chunks).
    /// The trace replays its leaf calls chunk by chunk, in place, as
    /// [`CompiledPlan::apply`] runs them: the row's accesses are the
    /// per-factor 1R/1W contract and nothing more (no copies), and its
    /// misses show what keeping each chunk resident across every part
    /// saves.
    pub columns: Option<ColumnTail>,
    /// Which lowering stages produced this unit (per-stage provenance,
    /// straight off the schedule): e.g. `provenance.recodeleted > 0` says
    /// the re-codelet stage regrouped this unit's radix-2 levels into
    /// that many fewer codelets, which is why the row's leaf calls differ
    /// from what the factor list of the plan would suggest.
    pub provenance: Provenance,
    /// Element accesses issued by this super-pass (loads + stores).
    pub accesses: u64,
    /// L1 misses charged to this super-pass.
    pub l1_misses: u64,
}

/// [`ExecHooks`] consumer that segments the trace at super-pass
/// boundaries, charging each super-pass its own access/miss delta.
struct SuperPassTracer {
    hierarchy: Hierarchy,
    report: Vec<SuperPassTraffic>,
    open: Option<SuperPassTraffic>,
}

impl SuperPassTracer {
    fn close(&mut self) {
        if let Some(mut seg) = self.open.take() {
            let l1 = self.hierarchy.stats(0);
            seg.accesses = l1.accesses - seg.accesses;
            seg.l1_misses = l1.misses - seg.l1_misses;
            self.report.push(seg);
        }
    }
}

impl ExecHooks for SuperPassTracer {
    #[inline]
    fn super_pass(&mut self, sp: &SuperPass) {
        self.close();
        let l1 = self.hierarchy.stats(0);
        self.open = Some(SuperPassTraffic {
            parts: sp.parts().len(),
            tiles: sp.tiles(),
            tile_elems: sp.tile_elems(),
            backend: sp.backend(),
            columns: sp.columns(),
            provenance: sp.provenance(),
            accesses: l1.accesses,
            l1_misses: l1.misses,
        });
    }

    #[inline]
    fn leaf_call(&mut self, k: u32, base: usize, stride: usize) {
        trace_leaf(&mut self.hierarchy, k, base, stride);
    }
}

/// Per-super-pass traffic of one cold replay of `compiled` through
/// `hierarchy` (reset first): one [`SuperPassTraffic`] row per scheduling
/// unit, in execution order. Driven by the same
/// [`CompiledPlan::traverse`] the executor order comes from, so the rows
/// segment exactly the program [`CompiledPlan::apply`] runs — compare the
/// rows of `compiled` against the same plan lowered with fusion on
/// (`compiled.lower(&ExecPolicy::all_disabled().with_fusion(...))`) to
/// see where fusion removes memory sweeps.
pub fn super_pass_traffic(
    compiled: &CompiledPlan,
    hierarchy: &mut Hierarchy,
) -> Vec<SuperPassTraffic> {
    hierarchy.reset();
    let mut tracer = SuperPassTracer {
        hierarchy: hierarchy.clone(),
        report: Vec::with_capacity(compiled.super_passes().len()),
        open: None,
    };
    compiled.traverse(&mut tracer);
    tracer.close();
    *hierarchy = tracer.hierarchy;
    tracer.report
}

/// L1 and (if present) L2 miss counts of one cold execution on the paper's
/// Opteron hierarchy.
pub fn opteron_misses(plan: &Plan) -> (u64, u64) {
    let mut h = Hierarchy::opteron();
    let stats = trace_misses(plan, &mut h);
    (stats[0].misses, stats.get(1).map_or(0, |s| s.misses))
}

/// Miss count of one cold execution on a single-level direct-mapped cache
/// of `2^log2_capacity_elems` elements with single-element lines — the
/// geometry of the analytic model in `wht-models::cache`, for validation.
///
/// # Errors
/// [`ConfigError`] if the geometry is invalid (capacity of zero elements).
pub fn direct_mapped_unit_misses(
    plan: &Plan,
    log2_capacity_elems: u32,
) -> Result<u64, ConfigError> {
    let elem = 8usize;
    let cfg = CacheConfig::direct_mapped_unit_line(1usize << log2_capacity_elems, elem)?;
    let mut h = Hierarchy::single(cfg, elem)?;
    let stats = trace_misses(plan, &mut h);
    Ok(stats[0].misses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wht_models::{analytic_misses, ModelCache};

    #[test]
    fn fitting_plan_pays_compulsory_misses_only() {
        // Unit lines: compulsory misses = N. Any plan, any shape.
        for n in 1..=6u32 {
            for plan in [
                Plan::iterative(n).unwrap(),
                Plan::right_recursive(n).unwrap(),
                Plan::balanced(n, 2).unwrap(),
            ] {
                let m = direct_mapped_unit_misses(&plan, 10).unwrap();
                assert_eq!(m, 1 << n, "plan {plan}");
            }
        }
    }

    #[test]
    fn line_size_gives_spatial_locality() {
        // On the Opteron hierarchy (64-byte lines = 8 doubles), a fitting
        // transform pays N/8 compulsory line misses.
        let plan = Plan::right_recursive(10).unwrap();
        let (l1, l2) = opteron_misses(&plan);
        assert_eq!(l1, 1 << 7);
        assert_eq!(l2, 1 << 7);
    }

    #[test]
    fn analytic_model_matches_simulator_for_single_level_splits() {
        // One split level: the model's cold-footprint recursion is exact.
        let c = 6u32;
        for plan in [
            Plan::iterative(9).unwrap(),
            Plan::binary_iterative(9, 3).unwrap(),
            Plan::split(vec![Plan::Leaf { k: 4 }, Plan::Leaf { k: 5 }]).unwrap(),
            Plan::split(vec![Plan::Leaf { k: 5 }, Plan::Leaf { k: 4 }]).unwrap(),
            Plan::split(vec![Plan::Leaf { k: 8 }, Plan::Leaf { k: 1 }]).unwrap(),
        ] {
            let sim = direct_mapped_unit_misses(&plan, c).unwrap();
            let model = analytic_misses(&plan, ModelCache { log2_capacity: c });
            assert_eq!(sim, model, "plan {plan}");
        }
    }

    #[test]
    fn analytic_model_close_for_recursive_plans() {
        // Deep trees: the cold-refill assumption may miss rare boundary
        // survivals; require exactness or a very small relative gap, and
        // record the regime here.
        let c = 7u32;
        for n in [9u32, 11, 13] {
            for plan in [
                Plan::right_recursive(n).unwrap(),
                Plan::left_recursive(n).unwrap(),
                Plan::balanced(n, 4).unwrap(),
            ] {
                let sim = direct_mapped_unit_misses(&plan, c).unwrap() as f64;
                let model = analytic_misses(&plan, ModelCache { log2_capacity: c }) as f64;
                let rel = (sim - model).abs() / sim;
                assert!(
                    rel < 0.02,
                    "plan {plan}: sim {sim} vs model {model} (rel {rel:.4})"
                );
            }
        }
    }

    #[test]
    fn compiled_trace_same_accesses_fewer_or_equal_misses_for_canonicals() {
        // Same access multiset (one load + one store per element per
        // level), pass-major order. For the deep canonical recursions the
        // compiled schedule equals the iterative one, whose locality is no
        // worse on the Opteron hierarchy at these sizes.
        for n in [8u32, 12] {
            for plan in [
                Plan::right_recursive(n).unwrap(),
                Plan::left_recursive(n).unwrap(),
                Plan::iterative(n).unwrap(),
            ] {
                let compiled = wht_core::CompiledPlan::compile(&plan);
                let mut h = Hierarchy::opteron();
                let interp = trace_misses(&plan, &mut h);
                let mut h2 = Hierarchy::opteron();
                let flat = trace_misses_compiled(&compiled, &mut h2);
                assert_eq!(flat[0].accesses, interp[0].accesses, "plan {plan}");
                assert!(
                    flat[0].misses <= interp[0].misses,
                    "plan {plan}: compiled {} vs interpreted {}",
                    flat[0].misses,
                    interp[0].misses
                );
            }
        }
    }

    #[test]
    fn fusion_cuts_l1_misses_and_the_report_localizes_the_win() {
        use wht_core::{CompiledPlan, ExecPolicy, FusionPolicy};
        // n = 16 (512 KiB of f64) on the Opteron hierarchy (64 KiB L1):
        // unfused, every one of the 16 radix-2 factors sweeps the whole
        // vector through L1; with a half-L1 tile budget the first 12
        // factors fuse into one compulsory-miss sweep.
        let n = 16u32;
        let plan = Plan::iterative(n).unwrap();
        let compiled = CompiledPlan::compile(&plan);
        let fused =
            compiled.lower(&ExecPolicy::all_disabled().with_fusion(FusionPolicy::new(1 << 12)));
        assert!(fused.is_fused());

        let mut h = Hierarchy::opteron();
        let unfused_misses = trace_misses_compiled(&compiled, &mut h)[0].misses;
        let mut h = Hierarchy::opteron();
        let fused_misses = trace_misses_compiled(&fused, &mut h)[0].misses;
        assert!(
            fused_misses * 2 < unfused_misses,
            "fused {fused_misses} should be far below unfused {unfused_misses}"
        );

        let mut h = Hierarchy::opteron();
        let report = super_pass_traffic(&fused, &mut h);
        assert_eq!(report.len(), fused.super_passes().len());
        // Access totals are fusion-invariant: one load + one store per
        // element per factor, distributed across the rows.
        let total_accesses: u64 = report.iter().map(|r| r.accesses).sum();
        assert_eq!(total_accesses, 2 * (1u64 << n) * u64::from(n));
        let total_misses: u64 = report.iter().map(|r| r.l1_misses).sum();
        assert_eq!(
            total_misses, fused_misses,
            "segments must partition the trace"
        );
        // The fused head does 12 factors of work...
        let head = &report[0];
        assert_eq!((head.parts, head.tiles, head.tile_elems), (12, 16, 1 << 12));
        assert_eq!(head.accesses, 2 * (1u64 << n) * 12);
        // ...for about one compulsory sweep of misses (N/8 on 64-byte
        // lines), while every unfused tail pass pays a full sweep again.
        assert!(
            head.l1_misses <= 2 * (1u64 << (n - 3)),
            "fused head misses {} should be near-compulsory",
            head.l1_misses
        );
        for row in &report[1..] {
            assert_eq!(row.parts, 1);
            assert!(
                row.l1_misses >= 1u64 << (n - 3),
                "tail passes sweep the vector"
            );
        }
    }

    #[test]
    fn backend_selection_never_changes_the_accounting() {
        use wht_core::{CompiledPlan, ExecPolicy, FusionPolicy, SimdPolicy};
        // The lane kernels load W-element blocks, but the accounting
        // contract — one read and one write per element per pass — is
        // backend-invariant, so the trace executor charges SIMD and scalar
        // schedules identically while the report records which kernel ran.
        let plan = Plan::iterative(14).unwrap();
        let fused = ExecPolicy::all_disabled().with_fusion(FusionPolicy::new(1 << 10));
        let scalar = CompiledPlan::compile_exec(&plan, &fused);
        let simd = CompiledPlan::compile_exec(&plan, &fused.with_simd(SimdPolicy::auto()));

        let mut h = Hierarchy::opteron();
        let scalar_stats = trace_misses_compiled(&scalar, &mut h);
        let mut h = Hierarchy::opteron();
        let simd_stats = trace_misses_compiled(&simd, &mut h);
        assert_eq!(scalar_stats, simd_stats);

        let mut h = Hierarchy::opteron();
        let scalar_rows = super_pass_traffic(&scalar, &mut h);
        let mut h = Hierarchy::opteron();
        let simd_rows = super_pass_traffic(&simd, &mut h);
        assert_eq!(scalar_rows.len(), simd_rows.len());
        for (a, b) in scalar_rows.iter().zip(simd_rows.iter()) {
            assert_eq!(a.backend, PassBackend::Scalar);
            assert_eq!(b.backend, PassBackend::Lanes);
            assert_eq!(
                (a.parts, a.tiles, a.tile_elems, a.accesses, a.l1_misses),
                (b.parts, b.tiles, b.tile_elems, b.accesses, b.l1_misses),
            );
        }
    }

    #[test]
    fn column_tail_accounting_charges_no_copies_and_never_adds_misses() {
        use wht_core::{CompiledPlan, ExecPolicy, FusionPolicy, RelayoutPolicy};
        // n = 16 on the Opteron hierarchy (64 KiB L1): fuse the first 10
        // factors (8 KiB tiles), then group the 6-pass tail into a column
        // tail of 2^12-element chunks.
        let n = 16u32;
        let plan = Plan::iterative(n).unwrap();
        let head = ExecPolicy::all_disabled().with_fusion(FusionPolicy::new(1 << 10));
        let fused = CompiledPlan::compile_exec(&plan, &head);
        let tailed =
            CompiledPlan::compile_exec(&plan, &head.with_relayout(RelayoutPolicy::new(1 << 12)));
        assert!(tailed.has_relayout());
        let tail_parts = tailed.super_passes().last().unwrap().parts().len() as u64;
        assert_eq!(tail_parts, 6);

        // The 1R/1W-per-element contract holds unchanged: every factor
        // accesses each element twice, and the column tail runs in place,
        // so it adds no copy sweeps.
        let mut h = Hierarchy::opteron();
        let report = super_pass_traffic(&tailed, &mut h);
        let size = 1u64 << n;
        let total: u64 = report.iter().map(|r| r.accesses).sum();
        assert_eq!(total, 2 * size * u64::from(n));
        let tail = report.last().unwrap();
        assert!(tail.columns.is_some());
        assert_eq!(tail.accesses, 2 * size * tail_parts);
        for row in &report[..report.len() - 1] {
            assert_eq!(row.columns, None);
        }

        // Chunk by chunk, the tail never misses more than the pass-major
        // sweeps. It cannot miss less in this L1: it is 2-way, and a
        // chunk's rows sit a power-of-two period apart, so past the cache
        // at most two of them share a set and each part re-misses, exactly
        // as a sweep does. (On hosts with a 16-way, physically indexed L2
        // the chunk stays resident across the parts; that is where the
        // tail stage's measured gain comes from.)
        let mut h = Hierarchy::opteron();
        let fused_misses: u64 = super_pass_traffic(&fused, &mut h)
            .iter()
            .skip(1)
            .map(|r| r.l1_misses)
            .sum();
        let mut h = Hierarchy::opteron();
        let tailed_misses: u64 = super_pass_traffic(&tailed, &mut h)
            .iter()
            .skip(1)
            .map(|r| r.l1_misses)
            .sum();
        assert!(
            tailed_misses <= fused_misses,
            "column tail misses {tailed_misses} exceed the sweeping tail's \
             {fused_misses}"
        );

        // Aggregate per-level stats agree between the two trace consumers.
        let mut h = Hierarchy::opteron();
        let stats = trace_misses_compiled(&tailed, &mut h);
        let mut h = Hierarchy::opteron();
        let segmented: u64 = super_pass_traffic(&tailed, &mut h)
            .iter()
            .map(|r| r.l1_misses)
            .sum();
        assert_eq!(stats[0].misses, segmented);
    }

    #[test]
    fn recodeleted_accounting_reports_provenance_and_saved_passes() {
        use wht_core::{CompiledPlan, ExecPolicy, FusionPolicy, RecodeletPolicy, RelayoutPolicy};
        // Same geometry as the column-tail accounting test; re-codeleting
        // merges the 6 chained tail factors into [3, 3] (eight rows at
        // most: their in-place strides are past the footprint cap) and
        // the 10-part fused head into [4, 4, 2], so the 1R/1W-per-pass
        // contract now charges each unit 2 accesses per element per
        // *merged* pass — the measured counterpart of the stage's saved
        // load/store passes.
        let n = 16u32;
        let plan = Plan::iterative(n).unwrap();
        let tail = ExecPolicy::all_disabled()
            .with_fusion(FusionPolicy::new(1 << 10))
            .with_relayout(RelayoutPolicy::new(1 << 12));
        let relaid = CompiledPlan::compile_exec(&plan, &tail);
        let merged =
            CompiledPlan::compile_exec(&plan, &tail.with_recodelet(RecodeletPolicy::default()));
        assert!(merged.has_recodeleted());
        let size = 1u64 << n;
        let mut h = Hierarchy::opteron();
        let report = super_pass_traffic(&merged, &mut h);
        assert_eq!(report.len(), 2);
        // Per-stage provenance travels into the traffic report.
        let head = &report[0];
        assert!(head.provenance.fused && !head.provenance.relayouted);
        assert_eq!(head.provenance.recodeleted, 7, "10 factors -> [4, 4, 2]");
        assert_eq!(head.parts, 3);
        assert_eq!(head.accesses, 2 * size * 3);
        let tail = report.last().unwrap();
        assert!(tail.provenance.relayouted);
        assert_eq!(tail.provenance.recodeleted, 4, "6 factors -> [3, 3]");
        assert_eq!(tail.parts, 2);
        assert_eq!(tail.accesses, 2 * size * 2);
        // The merged schedule accesses strictly less than the per-factor
        // one (2·6 tail sweeps before, 2·2 after).
        let mut h = Hierarchy::opteron();
        let per_factor_tail = super_pass_traffic(&relaid, &mut h).last().unwrap().accesses;
        assert_eq!(per_factor_tail, 2 * size * 6);
        assert!(tail.accesses < per_factor_tail);
    }

    #[test]
    fn trace_stats_reset_between_runs() {
        let plan = Plan::iterative(8).unwrap();
        let mut h = Hierarchy::opteron();
        let first = trace_misses(&plan, &mut h);
        let second = trace_misses(&plan, &mut h);
        assert_eq!(first, second, "cold-start runs must be identical");
    }

    #[test]
    fn access_counts_match_structure() {
        // Every leaf call makes 2 * 2^k accesses; totals must equal
        // 2 * N * leaf_count (each element loaded+stored once per level).
        let plan = Plan::balanced(10, 3).unwrap();
        let mut h = Hierarchy::opteron();
        let stats = trace_misses(&plan, &mut h);
        let want = 2 * (1u64 << 10) * plan.leaf_count() as u64;
        assert_eq!(stats[0].accesses, want);
    }
}
