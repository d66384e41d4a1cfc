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

use wht_core::{traverse, ExecHooks, Plan};
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
    fn counter_accumulates_across_traversals() {
        let plan = Plan::iterative(4).unwrap();
        let mut counter = InstructionCounter::new();
        traverse(&plan, &mut counter);
        let once = counter.counts();
        traverse(&plan, &mut counter);
        assert_eq!(counter.counts(), once.scale(2));
    }
}
