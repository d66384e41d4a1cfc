//! Quickstart: compute a WHT three ways, verify them against the
//! definition, and model their costs without running them.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use wht::prelude::*;

fn main() -> Result<(), WhtError> {
    let n = 10u32; // transform size 2^10 = 1024

    // --- 1. Pick algorithms (split trees over Equation 1). ---------------
    let iterative = Plan::iterative(n)?;
    let recursive = Plan::right_recursive(n)?;
    let custom: Plan = "split[small[4],split[small[3],small[3]]]".parse()?;
    println!("iterative plan: {iterative}");
    println!("recursive plan: {recursive}");
    println!("custom plan:    {custom}");

    // --- 2. Run them; every plan computes the same transform. ------------
    let input: Vec<f64> = (0..1usize << n).map(|j| (j as f64 * 0.37).sin()).collect();
    let reference = naive_wht(&input);
    for plan in [&iterative, &recursive, &custom] {
        let mut x = input.clone();
        apply_plan(plan, &mut x)?;
        let max_err = x
            .iter()
            .zip(reference.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        println!("plan {plan} matches the definition (max err {max_err:.2e})");
        assert!(max_err < 1e-9);
    }

    // --- 3. Cost them WITHOUT running (the paper's models). --------------
    println!();
    println!("model costs (no execution needed):");
    let cost = CostModel::default();
    let l1 = ModelCache::opteron_l1_elems();
    for plan in [&iterative, &recursive, &custom] {
        println!(
            "  {:60}  instructions {:>9}  L1-model misses {:>7}",
            plan.to_string(),
            instruction_count(plan, &cost),
            analytic_misses(plan, l1),
        );
    }

    // --- 4. And time them for real. ---------------------------------------
    println!();
    println!("measured (median wall-clock per transform):");
    for plan in [&iterative, &recursive, &custom] {
        let t = time_plan(plan, &TimingConfig::default())?;
        println!("  {:60}  {:>10.0} ns", plan.to_string(), t.median_ns);
    }

    // --- 5. Parallel execution gives the same answer. ---------------------
    // Bit for bit the sequential engine's (the engine's contract); the
    // O(N^2) definition sums in another order, so it agrees only to
    // rounding, like every plan in step 2.
    let mut sequential = input.clone();
    apply_plan(&custom, &mut sequential)?;
    let mut x = input.clone();
    par_apply_plan(&custom, &mut x, Threads::default())?;
    assert_eq!(x, sequential);
    assert!(wht::core::max_abs_diff(&x, &reference) < 1e-9);
    println!();
    println!("parallel engine matches the sequential one bit for bit.");
    Ok(())
}
