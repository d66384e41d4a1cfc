//! Instrumented execution: measure operation counts by *running* the loop
//! nest.
//!
//! This is the measurement-side counterpart of the analytic model in
//! `wht-models::instructions` — the role PAPI's retired-instruction counter
//! plays in the paper. The counter is an [`ExecHooks`] implementation driven
//! by the engine's own traversal, so it counts exactly what
//! `wht_core::apply_plan` executes. `measured == modelled`, exactly, is a
//! tested invariant of the workspace (it is the paper's "the models can be
//! computed from a high-level description" property).

use wht_core::{traverse, CompiledPlan, ExecHooks, Plan};
use wht_models::{CostModel, OpCounts};

/// [`ExecHooks`] accumulator for operation counts.
#[derive(Debug, Default, Clone)]
pub struct InstructionCounter {
    counts: OpCounts,
}

impl InstructionCounter {
    /// Fresh counter with all categories at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counts accumulated so far.
    pub fn counts(&self) -> OpCounts {
        self.counts
    }
}

impl ExecHooks for InstructionCounter {
    #[inline]
    fn enter_split(&mut self, _n: u32, t: usize) {
        self.counts.node_invocations += 1;
        self.counts.outer_iters += t as u64;
    }

    #[inline]
    fn child_loops(&mut self, child_n: u32, r: usize, s: usize) {
        // The j loop runs r times; the k loop runs r*s times in total —
        // identical bookkeeping to the model's recurrence.
        let _ = child_n;
        self.counts.j_iters += r as u64;
        self.counts.k_iters += (r * s) as u64;
    }

    #[inline]
    fn leaf_call(&mut self, k: u32, _base: usize, _stride: usize) {
        let size = 1u64 << k;
        self.counts.leaf_calls += 1;
        self.counts.arith += u64::from(k) * size;
        self.counts.loads += size;
        self.counts.stores += size;
        self.counts.addr += 2 * size;
    }
}

/// Execute the loop nest (dataless) and count every operation category.
pub fn measured_op_counts(plan: &Plan) -> OpCounts {
    let mut counter = InstructionCounter::new();
    traverse(plan, &mut counter);
    counter.counts()
}

/// Measured instruction count under `cost` — what PAPI would report on the
/// abstract machine.
pub fn measured_instruction_count(plan: &Plan, cost: &CostModel) -> u64 {
    cost.total(&measured_op_counts(plan))
}

/// Operation counts of replaying a *compiled* schedule — the same counter
/// driven by [`CompiledPlan::traverse`], so what is measured is exactly
/// the `Vec<Pass>` program [`CompiledPlan::apply`] executes and the two
/// structurally cannot drift. Leaf-work categories (arith, loads, stores,
/// addr, leaf calls) always equal the interpreter's; the loop-bookkeeping
/// categories are smaller — that difference *is* the compiled layer's win.
pub fn compiled_op_counts(compiled: &CompiledPlan) -> OpCounts {
    let mut counter = InstructionCounter::new();
    compiled.traverse(&mut counter);
    counter.counts()
}

/// Instruction count of replaying a compiled schedule under `cost`.
pub fn compiled_instruction_count(compiled: &CompiledPlan, cost: &CostModel) -> u64 {
    cost.total(&compiled_op_counts(compiled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wht_models::{instruction_count, op_counts};

    #[test]
    fn measurement_equals_model_for_canonicals() {
        let cost = CostModel::default();
        for n in 1..=14u32 {
            for plan in [
                Plan::iterative(n).unwrap(),
                Plan::right_recursive(n).unwrap(),
                Plan::left_recursive(n).unwrap(),
                Plan::balanced(n, 3).unwrap(),
                Plan::binary_iterative(n, 5).unwrap(),
            ] {
                assert_eq!(
                    measured_op_counts(&plan),
                    op_counts(&plan),
                    "op counts diverge for {plan}"
                );
                assert_eq!(
                    measured_instruction_count(&plan, &cost),
                    instruction_count(&plan, &cost)
                );
            }
        }
    }

    #[test]
    fn compiled_counts_same_leaf_work_less_overhead() {
        for n in [6u32, 10, 13] {
            for plan in [
                Plan::right_recursive(n).unwrap(),
                Plan::balanced(n, 3).unwrap(),
                Plan::binary_iterative(n, 4).unwrap(),
            ] {
                let interp = measured_op_counts(&plan);
                let compiled = compiled_op_counts(&CompiledPlan::compile(&plan));
                // Identical real work...
                assert_eq!(compiled.arith, interp.arith, "plan {plan}");
                assert_eq!(compiled.loads, interp.loads);
                assert_eq!(compiled.stores, interp.stores);
                assert_eq!(compiled.addr, interp.addr);
                assert_eq!(compiled.leaf_calls, interp.leaf_calls);
                // ...never more bookkeeping (strictly less once any split
                // nests below the root).
                assert!(compiled.node_invocations <= interp.node_invocations);
                assert!(compiled.j_iters <= interp.j_iters);
                assert!(compiled.k_iters <= interp.k_iters);
                if plan.depth() > 2 {
                    assert!(
                        compiled.node_invocations < interp.node_invocations,
                        "nested {plan} must save split invocations"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_counts_keep_leaf_work_and_cut_schedule_overhead() {
        use wht_core::{ExecPolicy, FusionPolicy};
        let plan = Plan::right_recursive(14).unwrap();
        let compiled = CompiledPlan::compile(&plan);
        let fused =
            compiled.lower(&ExecPolicy::all_disabled().with_fusion(FusionPolicy::new(1 << 10)));
        assert!(fused.is_fused());
        let c = compiled_op_counts(&compiled);
        let f = compiled_op_counts(&fused);
        // Fusion regroups the schedule; it must not change any work
        // category — the loop bookkeeping sums tile-locally to the same
        // totals, and the leaf multiset is invariant.
        assert_eq!(f.arith, c.arith);
        assert_eq!(f.loads, c.loads);
        assert_eq!(f.stores, c.stores);
        assert_eq!(f.addr, c.addr);
        assert_eq!(f.leaf_calls, c.leaf_calls);
        assert_eq!(f.j_iters, c.j_iters);
        assert_eq!(f.k_iters, c.k_iters);
        assert_eq!(f.node_invocations, c.node_invocations);
        // Fewer scheduling units is the one structural difference.
        assert!(f.outer_iters < c.outer_iters);
    }

    #[test]
    fn relayout_counts_add_exactly_the_copy_work() {
        use wht_core::{ExecPolicy, FusionPolicy, RelayoutPolicy};
        let n = 14u32;
        let plan = Plan::iterative(n).unwrap();
        let head = ExecPolicy::all_disabled().with_fusion(FusionPolicy::new(1 << 6));
        let fused = CompiledPlan::compile_exec(&plan, &head);
        let tailed =
            CompiledPlan::compile_exec(&plan, &head.with_relayout(RelayoutPolicy::new(1 << 9)));
        assert!(tailed.has_relayout());
        let f = compiled_op_counts(&fused);
        let t = compiled_op_counts(&tailed);
        // The column tail runs in place: the copy work it adds is none.
        // The butterflies, the leaf multiset and the element traffic are
        // the pass-major tail's; only the row loop runs once per chunk.
        assert_eq!(t.arith, f.arith);
        assert_eq!(t.leaf_calls, f.leaf_calls);
        assert_eq!(t.loads, f.loads);
        assert_eq!(t.stores, f.stores);
        assert_eq!(t.addr, f.addr);
        assert_eq!(t.k_iters, f.k_iters);
        assert!(t.j_iters > f.j_iters);
    }

    #[test]
    fn counter_accumulates_across_traversals() {
        let plan = Plan::iterative(4).unwrap();
        let mut counter = InstructionCounter::new();
        traverse(&plan, &mut counter);
        let once = counter.counts();
        traverse(&plan, &mut counter);
        assert_eq!(counter.counts(), once.scale(2));
    }
}
