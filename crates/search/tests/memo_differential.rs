//! Differential harness: the memoized branch-and-bound search against the
//! plain DP baseline and the exhaustive oracle.
//!
//! Three independently implemented searches, one answer:
//! - `memo_search` ≡ `dp_search`: identical best **cost and plan** (the
//!   shared deterministic tie-break — cost, then earliest candidate in
//!   canonical generation order) for context-free models at n ≤ 12.
//! - both ≡ `exhaustive_search` on best **cost** where full enumeration
//!   is feasible: the exhaustive space contains nested shapes the
//!   bottom-up searches never build, so plan identity is not required —
//!   but for a context-free cost no nested shape can beat the DP optimum.
//! - the same identity at large sizes: n = 14..=32 (step 2), a fresh
//!   memo per size, under the instruction and combined models.
//! - memoization + pruning must actually pay: strictly fewer evaluations
//!   than dp at n ≥ 16, and an n = 30 search stays within a generous
//!   evaluation budget (the anti-exponential-blowup gate).

use wht_core::MAX_LEAF_K;
use wht_search::{
    dp_search, exhaustive_search, memo_search, CombinedModelCost, DpOptions, InstructionCost,
    MemoTable, PlanCost,
};

#[test]
fn memo_dp_and_exhaustive_agree_for_context_free_models() {
    let opts = DpOptions::unbounded_parts();
    let mut dp_cost = InstructionCost::default();
    let mut memo_cost = InstructionCost::default();
    let mut memo = MemoTable::new();
    for n in 1..=12u32 {
        let dp = dp_search(n, &opts, &mut dp_cost).unwrap();
        let mm = memo_search(n, &opts, &mut memo_cost, &mut memo).unwrap();
        assert_eq!(mm.cost, dp.best_cost(), "cost diverged at n={n}");
        assert_eq!(
            mm.best,
            *dp.best_plan(),
            "plan diverged at n={n} (tie-break mismatch)"
        );
        // Exhaustive enumeration of the *entire* (nested) plan space where
        // it fits a budget: no shape at all beats the context-free
        // optimum the bottom-up searches found.
        if n <= 6 {
            let ex = exhaustive_search(n, MAX_LEAF_K, 1_000_000, &mut InstructionCost::default())
                .unwrap();
            assert_eq!(ex.cost, mm.cost, "exhaustive found better at n={n}");
        }
    }
}

#[test]
fn memo_matches_dp_for_the_combined_model_too() {
    // The combined model adds the analytic-miss term (stride-monotone, so
    // the invocation-scaled bound still holds): same answers, bounded or
    // unbounded arity.
    for opts in [
        DpOptions::default(),
        DpOptions {
            max_parts: 2,
            ..DpOptions::default()
        },
    ] {
        let mut dp_cost = CombinedModelCost::paper_default();
        let mut memo_cost = CombinedModelCost::paper_default();
        let mut memo = MemoTable::new();
        for n in 1..=12u32 {
            let dp = dp_search(n, &opts, &mut dp_cost).unwrap();
            let mm = memo_search(n, &opts, &mut memo_cost, &mut memo).unwrap();
            assert_eq!(mm.cost, dp.best_cost(), "cost diverged at n={n}");
            assert_eq!(mm.best, *dp.best_plan(), "plan diverged at n={n}");
        }
    }
}

/// Pruning must never change the answer at large sizes either: a cold
/// (fresh-memo) search returns dp's cost and plan at every even n from
/// 14 to 32, under both model backends and the default options.
#[test]
fn memo_matches_dp_at_large_sizes_under_both_models() {
    fn check<C: PlanCost>(model: &str, make: fn() -> C) {
        let opts = DpOptions::default();
        for n in (14..=32u32).step_by(2) {
            let dp = dp_search(n, &opts, &mut make()).unwrap();
            let mm = memo_search(n, &opts, &mut make(), &mut MemoTable::new()).unwrap();
            assert_eq!(mm.cost, dp.best_cost(), "{model}: cost diverged at n={n}");
            assert_eq!(mm.best, *dp.best_plan(), "{model}: plan diverged at n={n}");
        }
    }
    check("instruction", InstructionCost::default);
    check("combined", CombinedModelCost::paper_default);
}

#[test]
fn memo_performs_strictly_fewer_evaluations_than_dp_past_n16() {
    for n in [16u32, 20, 24] {
        for opts in [DpOptions::default(), DpOptions::unbounded_parts()] {
            let mut dp_cost = InstructionCost::default();
            let dp = dp_search(n, &opts, &mut dp_cost).unwrap();
            let mut memo_cost = InstructionCost::default();
            let mut memo = MemoTable::new();
            let mm = memo_search(n, &opts, &mut memo_cost, &mut memo).unwrap();
            assert!(
                mm.evaluations < dp.evaluations(),
                "n={n}, {opts:?}: memo {} evals vs dp {}",
                mm.evaluations,
                dp.evaluations()
            );
            assert_eq!(mm.cost, dp.best_cost(), "pruning changed the answer");
            assert_eq!(mm.best, *dp.best_plan());
        }
    }
}

/// The anti-blowup gate (and the acceptance bar's evaluation half): an
/// n = 30 memoized search under the paper's combined model must stay at
/// least 10x under dp's evaluation count, and far inside a generous
/// absolute budget that would catch any accidental return to exponential
/// (or even quadratic-per-size) candidate evaluation.
#[test]
fn memo_n30_completes_under_a_generous_evaluation_budget() {
    let opts = DpOptions::default();
    let mut memo_cost = CombinedModelCost::paper_default();
    let mut memo = MemoTable::new();
    let mm = memo_search(30, &opts, &mut memo_cost, &mut memo).unwrap();
    assert_eq!(mm.n, 30);
    assert_eq!(mm.best.n(), 30);
    // dp evaluates every candidate: 30 leaves/splits aside, about m^2/2
    // compositions per size m — ~4.5k at n = 30. Ten percent of that is
    // the acceptance ceiling; 450 is *generous* for 30 groups.
    let mut dp_cost = CombinedModelCost::paper_default();
    let dp = dp_search(30, &opts, &mut dp_cost).unwrap();
    assert!(
        mm.evaluations * 10 <= dp.evaluations(),
        "memo {} evals vs dp {} — lost the 10x bar",
        mm.evaluations,
        dp.evaluations()
    );
    assert_eq!(mm.cost, dp.best_cost(), "best cost diverged at n=30");
    assert_eq!(mm.best, *dp.best_plan(), "best plan diverged at n=30");
    // A warm repeat is free.
    let again = memo_search(30, &opts, &mut memo_cost, &mut memo).unwrap();
    assert_eq!(again.evaluations, 0);
    assert_eq!(again.reused_groups, 30);
}
