//! Trace-driven cache measurement: replay the engine's exact memory
//! accesses through a simulated hierarchy.
//!
//! This replaces the paper's PAPI L1 data-cache miss counter. A leaf
//! codelet call at `(base, stride)` loads its `2^k` elements in index order
//! and then stores them in the same order (the codelet contract documented
//! in `wht_core::codelets`), so the trace is reproduced exactly without
//! touching data.

use wht_cachesim::{CacheConfig, CacheStats, ConfigError, Hierarchy};
use wht_core::{traverse, ExecHooks, Plan};

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

impl ExecHooks for TraceExecutor {
    /// One leaf codelet's memory trace — the codelet contract documented
    /// in `wht_core::codelets`: load the `2^k` elements in index order,
    /// then store them in the same order.
    #[inline]
    fn leaf_call(&mut self, k: u32, base: usize, stride: usize) {
        let size = 1usize << k;
        // Load pass.
        for j in 0..size {
            self.hierarchy.access_element(base + j * stride);
        }
        // Store pass (same addresses, same order).
        for j in 0..size {
            self.hierarchy.access_element(base + j * stride);
        }
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
