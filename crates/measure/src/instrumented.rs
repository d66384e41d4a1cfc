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

    #[inline]
    fn relayout_gather(&mut self, _x_base: usize, rl: wht_core::Relayout, _scratch: usize) {
        // One load (strided source), one store (scratch slot), and their
        // address computations per copied element — the gather half of
        // the two extra sweeps a relayout unit pays.
        let elems = (rl.rows * rl.cols) as u64;
        self.counts.loads += elems;
        self.counts.stores += elems;
        self.counts.addr += 2 * elems;
    }

    #[inline]
    fn relayout_scatter(&mut self, _x_base: usize, rl: wht_core::Relayout, _scratch: usize) {
        // The scatter half: the exact inverse copy, same operation bill.
        let elems = (rl.rows * rl.cols) as u64;
        self.counts.loads += elems;
        self.counts.stores += elems;
        self.counts.addr += 2 * elems;
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

/// Operation counts of the **batched** replay — the same counter driven
/// by [`CompiledPlan::traverse_batch`], so what is measured is exactly
/// the program [`CompiledPlan::apply_batch`] executes for a `rows × 2^n`
/// batch with lane width `lanes` ([`wht_core::Scalar::LANES`] of the
/// element type being modeled). Engaged lane groups pay the two
/// transpose copies — charged through the relayout gather/scatter hooks,
/// one load, one store, and two address computations per copied element —
/// and run every scaled cross pass once per group; the sub-group
/// remainder, and the whole batch when the schedule carries no engaged
/// [`wht_core::BatchSchedule`], replay the ordinary per-row program. The
/// butterfly count is invariant either way (`rows ×` the single-transform
/// arith) — batching only moves loads, stores, and bookkeeping.
pub fn batch_op_counts(compiled: &CompiledPlan, rows: usize, lanes: usize) -> OpCounts {
    let mut counter = InstructionCounter::new();
    compiled.traverse_batch(rows, lanes, &mut counter);
    counter.counts()
}

/// Instruction count of the batched replay under `cost` — what PAPI
/// would report for one [`CompiledPlan::apply_batch`] call on the
/// abstract machine.
pub fn batch_instruction_count(
    compiled: &CompiledPlan,
    rows: usize,
    lanes: usize,
    cost: &CostModel,
) -> u64 {
    cost.total(&batch_op_counts(compiled, rows, lanes))
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
        use wht_core::FusionPolicy;
        let plan = Plan::right_recursive(14).unwrap();
        let compiled = CompiledPlan::compile(&plan);
        let fused = compiled.fuse(&FusionPolicy::new(1 << 10));
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
        use wht_core::{FusionPolicy, RelayoutPolicy};
        let n = 14u32;
        let plan = Plan::iterative(n).unwrap();
        let fused = CompiledPlan::compile(&plan).fuse(&FusionPolicy::new(1 << 6));
        let relaid = fused.relayout(&RelayoutPolicy::eager(1 << 9));
        assert!(relaid.has_relayout());
        let f = compiled_op_counts(&fused);
        let r = compiled_op_counts(&relaid);
        // The butterflies and leaf multiset are untouched; the gather and
        // scatter each add one load, one store, and two address
        // computations per element of the vector.
        let size = 1u64 << n;
        assert_eq!(r.arith, f.arith);
        assert_eq!(r.leaf_calls, f.leaf_calls);
        assert_eq!(r.loads, f.loads + 2 * size);
        assert_eq!(r.stores, f.stores + 2 * size);
        assert_eq!(r.addr, f.addr + 4 * size);
    }

    #[test]
    fn batch_counts_charge_the_transposes_and_save_bookkeeping() {
        use wht_core::BatchPolicy;
        let n = 10u32;
        let w = 8usize; // f64 lane width: the batch path's group size
        let plan = Plan::iterative(n).unwrap();
        let compiled = CompiledPlan::compile(&plan).with_batch(&BatchPolicy::new(1));
        assert!(compiled.is_batched());
        let single = compiled_op_counts(&compiled);

        // Below the lane width the batched replay is the per-row program
        // — identical bill, one shared schedule entry aside.
        let rows = 5usize;
        let few = batch_op_counts(&compiled, rows, w);
        let mut want = single.scale(rows as u64);
        want.node_invocations = 1;
        assert_eq!(few, want);

        // Engaged: 2 full lane groups + 3 remainder rows.
        let rows = 19usize;
        let b = batch_op_counts(&compiled, rows, w);
        let size = 1u64 << n;
        let groups = (rows / w) as u64;
        // The butterfly DAG is the batch invariant: same arith, same
        // codelet calls, same k-loop trips as `rows` lone transforms...
        assert_eq!(b.arith, single.arith * rows as u64);
        assert_eq!(b.leaf_calls, single.leaf_calls * rows as u64);
        assert_eq!(b.k_iters, single.k_iters * rows as u64);
        // ...each engaged group pays the gather and scatter copies on top
        // (1 load + 1 store + 2 addr per copied element, two copies of
        // the w·2^n group)...
        let copies = groups * 2 * (w as u64) * size;
        assert_eq!(b.loads, single.loads * rows as u64 + copies);
        assert_eq!(b.stores, single.stores * rows as u64 + copies);
        assert_eq!(b.addr, single.addr * rows as u64 + 2 * copies);
        // ...and each scaled cross pass runs once per group instead of
        // once per row — the j-loop saving the transposed domain buys.
        assert!(b.j_iters < single.j_iters * rows as u64);
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
