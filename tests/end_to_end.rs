//! Cross-crate integration tests: the paper's pipeline, end to end, at
//! test-friendly sizes, asserting the qualitative claims the figures
//! reproduce at full scale.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wht::prelude::*;
use wht_measure::measured_op_counts;
use wht_stats::{outer_fence_filter, select};

/// Sample → measure (deterministic backends) → correlate: the Figure 6/9
/// program. In the simulated world cycles are a noiseless function of
/// instructions and misses, so correlations must be strongly positive.
#[test]
fn sample_measure_correlate_pipeline() {
    let n = 11u32;
    let samples = 250usize;
    let plans = sample_plans_seeded(n, samples, 42).unwrap();
    let opts = MeasureOptions {
        timing: None,
        ..MeasureOptions::default()
    };
    let hierarchy = Hierarchy::opteron();
    let ms = measure_sweep(&plans, &opts, &hierarchy, 8).unwrap();

    let cycles: Vec<f64> = ms.iter().map(|m| m.sim_cycles.unwrap()).collect();
    let instr: Vec<f64> = ms.iter().map(|m| m.instructions as f64).collect();

    let keep = outer_fence_filter(&cycles, 3.0);
    let rho = pearson(&select(&instr, &keep), &select(&cycles, &keep));
    assert!(
        rho > 0.85,
        "in-cache instruction/cycle correlation should be strong, got {rho}"
    );
}

/// The pruning claim (Figures 10/11): filtering by the model retains a
/// top-5% performer with a small survivor set.
#[test]
fn model_pruning_retains_top_performers() {
    let n = 10u32;
    let samples = 400usize;
    let plans = sample_plans_seeded(n, samples, 7).unwrap();
    let cost = CostModel::default();
    let model: Vec<f64> = plans
        .iter()
        .map(|p| instruction_count(p, &cost) as f64)
        .collect();

    let opts = MeasureOptions {
        timing: None,
        ..MeasureOptions::default()
    };
    let hierarchy = Hierarchy::opteron();
    let ms = measure_sweep(&plans, &opts, &hierarchy, 8).unwrap();
    let cycles: Vec<f64> = ms.iter().map(|m| m.sim_cycles.unwrap()).collect();

    let curve = PruneCurve::new(&model, &cycles, 0.05);
    assert!((curve.limit() - 0.95).abs() < 0.05);
    let safe = PruneCurve::safe_prune_threshold(&model, &cycles, 0.05);
    let survivors = model.iter().filter(|&&m| m <= safe).count();
    // Pruning at the safe threshold should discard a useful chunk of the
    // space while keeping at least one top-5% plan (by construction).
    assert!(survivors >= 1);
    assert!(
        survivors <= samples / 2,
        "model should prune at least half the sample, kept {survivors}"
    );
}

/// The full story of Figure 1 on the deterministic machine: in cache the
/// instruction-lean iterative algorithm wins among canonicals; far out of
/// cache the localizing right-recursion wins; DP's best beats all three.
#[test]
fn canonical_ordering_flips_across_the_hierarchy() {
    let mut sim = SimCyclesCost::opteron();

    // In cache (n = 10): iterative < right < left.
    let it = sim.cost(&Plan::iterative(10).unwrap()).unwrap();
    let rr = sim.cost(&Plan::right_recursive(10).unwrap()).unwrap();
    let lr = sim.cost(&Plan::left_recursive(10).unwrap()).unwrap();
    assert!(it < rr && rr < lr, "in cache: {it} {rr} {lr}");

    // Past the L2 boundary (n = 19): right recursive beats iterative;
    // left recursive is the off-scale outlier.
    let it = sim.cost(&Plan::iterative(19).unwrap()).unwrap();
    let rr = sim.cost(&Plan::right_recursive(19).unwrap()).unwrap();
    let lr = sim.cost(&Plan::left_recursive(19).unwrap()).unwrap();
    assert!(
        rr < it,
        "out of cache: right {rr} should beat iterative {it}"
    );
    assert!(
        lr > 2.0 * rr,
        "left {lr} should be far worse than right {rr}"
    );

    // DP-found best beats every canonical at both sizes.
    let dp = dp_search(10, &DpOptions::default(), &mut sim).unwrap();
    let best10 = dp.cost(10).unwrap();
    assert!(best10 <= it.min(rr).min(lr));
}

/// Instruction model == instrumented measurement == engine work, linked by
/// the flop invariant (n * 2^n butterflies for every plan).
#[test]
fn model_measurement_and_engine_are_consistent() {
    let mut rng = StdRng::seed_from_u64(3);
    let sampler = Sampler::default();
    for n in [4u32, 9, 13] {
        for _ in 0..10 {
            let plan = sampler.sample(n, &mut rng).unwrap();
            let counts = measured_op_counts(&plan);
            assert_eq!(counts, op_counts(&plan));
            assert_eq!(counts.arith, u64::from(n) << n);
            // Engine agrees with the definition.
            let size = plan.size();
            let input: Vec<f64> = (0..size).map(|j| ((j % 16) as f64) - 8.0).collect();
            let want = naive_wht(&input);
            let mut got = input;
            apply_plan(&plan, &mut got).unwrap();
            assert_eq!(got, want);
        }
    }
}

/// The combined model's grid search recovers a sensible optimum on
/// deterministic data (rho must beat instruction-only correlation at an
/// out-of-cache size).
#[test]
fn combined_model_improves_out_of_cache_correlation() {
    let n = 15u32;
    let samples = 200usize;
    let plans = sample_plans_seeded(n, samples, 99).unwrap();
    let opts = MeasureOptions {
        timing: None,
        ..MeasureOptions::default()
    };
    let hierarchy = Hierarchy::opteron();
    let ms = measure_sweep(&plans, &opts, &hierarchy, 8).unwrap();
    let cycles: Vec<f64> = ms.iter().map(|m| m.sim_cycles.unwrap()).collect();
    let instr: Vec<u64> = ms.iter().map(|m| m.instructions).collect();
    let misses: Vec<u64> = ms.iter().map(|m| m.l1_misses.unwrap()).collect();

    let instr_f: Vec<f64> = instr.iter().map(|&v| v as f64).collect();
    let rho_i = pearson(&instr_f, &cycles);
    let grid = wht_stats::grid_search_combined(&instr, &misses, &cycles, 0.05);
    assert!(
        grid.best_rho >= rho_i,
        "combined rho {} must be >= instruction rho {rho_i}",
        grid.best_rho
    );
    assert!(
        grid.best_rho > 0.9,
        "deterministic combined rho should be high"
    );
}

/// Golden vectors through the full production path: `Planner::transform`
/// with fusion on and off against the naive and fast references. Integer
/// golden vectors are exact (the WHT matrix has ±1 entries), so both
/// executor configurations must reproduce them bit for bit — and each
/// other, since fusion only reorders provably-commuting invocations.
#[test]
fn planner_fusion_on_and_off_match_golden_vectors() {
    use wht::core::testkit::{random_signal, reference_wht};
    use wht::core::{max_abs_diff, FusionPolicy};
    for n in [8u32, 12] {
        let size = 1usize << n;
        let ints: Vec<i64> = random_signal(size, 2026 + u64::from(n));
        let golden = reference_wht(&ints);
        let floats: Vec<f64> = ints.iter().map(|&v| v as f64).collect();
        let golden_f = naive_wht(&floats);

        let pinned = |fusion| ExecPolicy::default().with_fusion(fusion);
        let mut fused =
            Planner::new(InstructionCost::default()).with_exec(pinned(FusionPolicy::new(1 << 8)));
        let mut unfused =
            Planner::new(InstructionCost::default()).with_exec(pinned(FusionPolicy::disabled()));

        let mut a = ints.clone();
        fused.transform(&mut a).unwrap();
        assert_eq!(a, golden, "fused integer path must hit the golden vector");
        let mut b = ints.clone();
        unfused.transform(&mut b).unwrap();
        assert_eq!(b, golden, "unfused integer path must hit the golden vector");

        let mut fa = floats.clone();
        fused.transform(&mut fa).unwrap();
        assert!(max_abs_diff(&fa, &golden_f) < 1e-9);
        let mut fb = floats;
        unfused.transform(&mut fb).unwrap();
        assert_eq!(
            fa, fb,
            "fused and unfused production paths must agree bit for bit"
        );
    }
}

/// The FFTW-style wisdom workflow carries the search result, not the
/// executor configuration: a plan searched under one tile budget survives
/// the JSON round trip and is served warm under the importing planner's
/// own budget, with the reference output.
#[test]
fn wisdom_round_trip_serves_the_plan_under_the_importers_tile_budget() {
    use wht::core::FusionPolicy;
    let mut tuned = Planner::new(InstructionCost::default())
        .with_exec(ExecPolicy::default().with_fusion(FusionPolicy::new(4096)));
    let mut x: Vec<f64> = (0..1 << 10).map(|j| (j % 23) as f64 - 11.0).collect();
    let want = naive_wht(&x);
    tuned.transform(&mut x).unwrap();
    assert!(wht::core::max_abs_diff(&x, &want) < 1e-9);

    let json = tuned.wisdom().to_json();
    assert!(!json.contains("fuse_budget"), "wisdom records no policy");
    let restored = Wisdom::from_json(&json).unwrap();
    assert_eq!(&restored, tuned.wisdom());

    // A warm import serves the size with zero searches, compiled under
    // its own (smaller) budget, bit-identically.
    let importer = ExecPolicy::default().with_fusion(FusionPolicy::new(256));
    let mut warm = Planner::new(InstructionCost::default())
        .with_exec(importer)
        .with_wisdom(restored);
    assert_eq!(warm.resolved_exec(10), importer);
    let mut y: Vec<f64> = (0..1 << 10).map(|j| (j % 23) as f64 - 11.0).collect();
    warm.transform(&mut y).unwrap();
    assert_eq!(y, x);
    assert_eq!(warm.evaluations(), 0);
    assert_eq!(warm.plan(10).unwrap(), tuned.plan(10).unwrap());
}

/// The full executor pipeline (fusion + relayout + SIMD) reproduces the
/// integer golden vectors bit for bit against the in-place configuration,
/// and the wisdom a relayout planner records survives JSON.
#[test]
fn planner_relayout_round_trips_and_matches_golden_vectors() {
    use wht::core::testkit::{random_signal, reference_wht};
    use wht::core::{FusionPolicy, RelayoutPolicy};
    let n = 14u32;
    let ints: Vec<i64> = random_signal(1usize << n, 4242);
    let golden = reference_wht(&ints);

    let mut tuned = Planner::new(InstructionCost::default()).with_exec(
        ExecPolicy::default()
            .with_fusion(FusionPolicy::new(1 << 6))
            .with_relayout(RelayoutPolicy::new(1 << 9)),
    );
    let mut a = ints.clone();
    tuned.transform(&mut a).unwrap();
    assert_eq!(a, golden, "relayout path must hit the golden vector");

    let json = tuned.wisdom().to_json();
    let restored = Wisdom::from_json(&json).unwrap();
    assert_eq!(&restored, tuned.wisdom());

    let mut off = Planner::new(InstructionCost::default()).with_exec(
        ExecPolicy::default()
            .with_fusion(FusionPolicy::new(1 << 6))
            .with_relayout(RelayoutPolicy::disabled()),
    );
    let mut b = ints.clone();
    off.transform(&mut b).unwrap();
    assert_eq!(b, golden, "in-place tail must hit the same golden vector");
}

/// Sequency-ordered spectrum analysis works through the whole public API.
#[test]
fn sequency_pipeline() {
    // A Walsh function of sequency s must have a one-hot sequency spectrum.
    let n = 8u32;
    let size = 1usize << n;
    let s = 37usize;
    let perm = wht::core::ordering::sequency_permutation(n);
    let nat = perm[s];
    let row: Vec<f64> = (0..size)
        .map(|j| wht::core::reference::hadamard_entry(nat, j) as f64)
        .collect();
    let plan = Plan::balanced(n, 4).unwrap();
    let mut spec = row;
    apply_plan(&plan, &mut spec).unwrap();
    let seq_spec = to_sequency_order(&spec);
    for (i, &v) in seq_spec.iter().enumerate() {
        if i == s {
            assert_eq!(v, size as f64);
        } else {
            assert_eq!(v, 0.0);
        }
    }
}
