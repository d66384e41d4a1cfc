//! Facade-level API exercises: everything a downstream user reaches through
//! `wht::prelude` and the extension modules, composed the way an
//! application would.

use wht::prelude::*;

#[test]
fn prelude_covers_the_whole_pipeline() {
    // plan -> run -> model -> search, all through the prelude.
    let plan: Plan = "split[small[2],split[small[3],small[2]]]".parse().unwrap();
    assert_eq!(plan.n(), 7);

    let mut x: Vec<f64> = (0..128).map(|v| (v % 13) as f64).collect();
    let want = naive_wht(&x);
    apply_plan(&plan, &mut x).unwrap();
    assert_eq!(x, want);

    let i = instruction_count(&plan, &CostModel::default());
    let m = analytic_misses(&plan, ModelCache::opteron_l1_elems());
    assert!(CombinedModel::paper_optimum().value(i, m) > 0.0);

    let mut cost = InstructionCost::default();
    let dp = dp_search(7, &DpOptions::default(), &mut cost).unwrap();
    assert!(cost.cost(dp.best_plan()).unwrap() <= i as f64);
}

#[test]
fn compiled_layer_and_planner_through_the_prelude() {
    // Compile once, replay sequentially and in parallel, bit-identically.
    let plan: Plan = "split[small[1],split[small[4],small[3]]]".parse().unwrap();
    let compiled = CompiledPlan::compile(&plan);
    assert_eq!(compiled.passes().len(), plan.leaf_count());
    let input: Vec<f64> = (0..256).map(|v| ((v * 11) % 23) as f64 - 11.0).collect();
    let mut interp = input.clone();
    apply_plan_recursive(&plan, &mut interp).unwrap();
    let mut flat = input.clone();
    compiled.apply(&mut flat).unwrap();
    assert_eq!(flat, interp);
    let mut par = input;
    par_apply_compiled(&compiled, &mut par, Threads(4)).unwrap();
    assert_eq!(par, interp);

    // Planner: search once, export wisdom, serve warm with zero searches.
    let mut planner = Planner::new(InstructionCost::default());
    let mut x: Vec<f64> = (0..128).map(|v| (v % 9) as f64).collect();
    let want = naive_wht(&x);
    planner.transform(&mut x).unwrap();
    assert_eq!(x, want);
    let wisdom = Wisdom::from_json(&planner.wisdom().to_json()).unwrap();
    let mut warm = Planner::new(InstructionCost::default()).with_wisdom(wisdom);
    let mut y: Vec<f64> = (0..128).map(|v| (v % 9) as f64).collect();
    warm.transform(&mut y).unwrap();
    assert_eq!(y, want);
    assert_eq!(warm.evaluations(), 0);
}

#[test]
fn fusion_layer_through_the_prelude() {
    // Fuse, replay sequentially and in parallel, measure per-super-pass
    // traffic, and cost a plan fusion-aware — all prelude items.
    let plan = Plan::iterative(12).unwrap();
    let compiled = CompiledPlan::compile(&plan);
    let head = ExecPolicy::all_disabled().with_fusion(FusionPolicy::new(1 << 6));
    let fused = compiled.lower(&head);
    assert!(fused.is_fused());
    assert_eq!(fused.passes(), compiled.passes());

    let input: Vec<f64> = (0..1 << 12)
        .map(|v| ((v * 13) % 31) as f64 - 15.0)
        .collect();
    let mut seq = input.clone();
    compiled.apply(&mut seq).unwrap();
    let mut tiled = input.clone();
    fused.apply(&mut tiled).unwrap();
    assert_eq!(tiled, seq);
    let mut par = input.clone();
    par_apply_compiled(&fused, &mut par, Threads(4)).unwrap();
    assert_eq!(par, seq);

    // The explicit-policy cache entry point honors every opt-out.
    let via_cache = compiled_for_exec(&plan, &ExecPolicy::all_disabled());
    assert!(!via_cache.is_fused());
    assert!(!via_cache.is_simd());
    assert!(!via_cache.has_relayout());
    let mut unfused = input.clone();
    via_cache.apply(&mut unfused).unwrap();
    assert_eq!(unfused, seq);

    // And the SIMD lane backend is prelude-reachable and bit-identical.
    let lanes = compiled_for_exec(
        &plan,
        &ExecPolicy::all_disabled()
            .with_fusion(FusionPolicy::new(1 << 6))
            .with_simd(SimdPolicy::auto()),
    );
    assert!(lanes.is_simd());
    let mut simd = input.clone();
    lanes.apply(&mut simd).unwrap();
    assert_eq!(simd, seq);

    // The relayout stage is prelude-reachable, bit-identical, and
    // parallel-safe through the facade.
    let relaid = compiled.lower(&head.with_relayout(RelayoutPolicy::new(1 << 8)));
    assert!(relaid.has_relayout());
    let mut gathered = input.clone();
    relaid.apply(&mut gathered).unwrap();
    assert_eq!(gathered, seq);
    let mut par_gathered = input;
    par_apply_compiled(&relaid, &mut par_gathered, Threads(4)).unwrap();
    assert_eq!(par_gathered, seq);

    let mut h = Hierarchy::opteron();
    let report: Vec<SuperPassTraffic> = super_pass_traffic(&fused, &mut h);
    assert_eq!(report.len(), fused.super_passes().len());
    assert!(report[0].parts > 1);

    let mut cost = FusedTrafficCost::default();
    assert!(cost.cost(&plan).unwrap() > 0.0);
}

#[test]
fn column_tail_is_a_drop_in_replacement() {
    // The large-stride tail runs in place, chunk by chunk, as the column
    // tail stage. n = 15 is past the simulated L1 (2^13 doubles).
    let plan = Plan::left_recursive(15).unwrap();
    let head = ExecPolicy::all_disabled().with_fusion(FusionPolicy::new(1 << 8));
    let in_place = CompiledPlan::compile_exec(&plan, &head);
    let tailed =
        CompiledPlan::compile_exec(&plan, &head.with_relayout(RelayoutPolicy::new(1 << 12)));
    assert!(tailed.has_relayout());
    assert_eq!(tailed.passes(), in_place.passes());
    let input: Vec<f64> = (0..1 << 15).map(|v| ((v * 7) % 29) as f64 - 14.0).collect();
    let mut plain = input.clone();
    apply_plan_recursive(&plan, &mut plain).unwrap();
    let mut chunked = input.clone();
    tailed.apply(&mut chunked).unwrap();
    assert_eq!(plain, chunked);
    let mut par = input;
    par_apply_compiled(&tailed, &mut par, Threads(3)).unwrap();
    assert_eq!(plain, par);

    // It copies nothing, so the trace charges exactly the in-place
    // factors' accesses, and chunking never adds misses (the Opteron
    // L1 is 2-way, so the chunk's power-of-two rows alias there and it
    // ties the sweeping tail).
    let mut h = Hierarchy::opteron();
    let base = wht::measure::trace_misses_compiled(&in_place, &mut h);
    let chunks = wht::measure::trace_misses_compiled(&tailed, &mut h);
    assert_eq!(chunks[0].accesses, base[0].accesses);
    assert!(chunks[0].misses <= base[0].misses);
}

#[test]
fn calibration_feeds_search() {
    use rand::SeedableRng;
    use wht::search::{calibrate, CalibrateOptions};
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let opts = CalibrateOptions {
        samples_per_size: 20,
        sizes: [6, 8, 10],
        timing: TimingConfig::fast(),
    };
    let mut model = calibrate(&opts, &mut rng).unwrap();
    // The calibrated model plugs straight into the DP autotuner.
    let dp = dp_search(10, &DpOptions::default(), &mut model).unwrap();
    assert_eq!(dp.best_plan().n(), 10);
    assert!(dp.best_cost() > 0.0);
}

#[test]
fn spectral_toolchain() {
    use wht::core::dyadic::dyadic_convolution;
    use wht::core::dyadic::dyadic_convolution_naive;
    use wht::core::twod::apply_plan_2d;

    // 1-D dyadic convolution through a fast plan.
    let plan = Plan::balanced(6, 3).unwrap();
    let x: Vec<f64> = (0..64).map(|v| ((v * 3) % 7) as f64).collect();
    let y: Vec<f64> = (0..64).map(|v| ((v * 5) % 11) as f64 - 5.0).collect();
    let fast = dyadic_convolution(&plan, &x, &y).unwrap();
    let slow = dyadic_convolution_naive(&x, &y);
    for (a, b) in fast.iter().zip(slow.iter()) {
        assert!((a - b).abs() < 1e-7);
    }

    // 2-D transform and sequency reordering compose.
    let rp = Plan::leaf(3).unwrap();
    let cp = Plan::leaf(3).unwrap();
    let mut img: Vec<f64> = (0..64).map(|v| (v / 8) as f64).collect();
    apply_plan_2d(&rp, &cp, &mut img).unwrap();
    let row0: Vec<f64> = img[..8].to_vec();
    let seq = to_sequency_order(&row0);
    assert_eq!(seq.len(), 8);
}

#[test]
fn parallel_and_sweep_through_facade() {
    let plan = Plan::balanced(11, 4).unwrap();
    let mut x: Vec<f64> = (0..1 << 11).map(|v| (v % 5) as f64).collect();
    let want = {
        let mut s = x.clone();
        apply_plan(&plan, &mut s).unwrap();
        s
    };
    par_apply_plan(&plan, &mut x, Threads(5)).unwrap();
    assert_eq!(x, want);

    let plans = vec![
        Plan::iterative(8).unwrap(),
        Plan::right_recursive(8).unwrap(),
    ];
    let opts = MeasureOptions {
        timing: None,
        ..MeasureOptions::default()
    };
    let h = Hierarchy::opteron();
    let ms = measure_sweep(&plans, &opts, &h, 2).unwrap();
    assert_eq!(ms.len(), 2);
    assert!(ms[0].instructions < ms[1].instructions); // iterative < right
}

#[test]
fn wisdom_store_through_the_prelude() {
    // Search, persist into a sharded store, restart cold, replay warm —
    // with the commit path and diagnostics all prelude-reachable.
    let dir = std::env::temp_dir().join(format!("wht_api_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut planner = Planner::new(InstructionCost::default());
    let mut x: Vec<f64> = (0..64).map(|v| (v % 7) as f64).collect();
    let want = naive_wht(&x);
    planner.transform(&mut x).unwrap();
    assert_eq!(x, want);

    let store = ShardedStore::open(&dir).unwrap();
    let written = planner.save_store(&store).unwrap();
    assert!(written > 0);

    let loaded: StoreLoad = store.load();
    assert!(loaded.diagnostics.is_empty());
    let mut warm = Planner::new(InstructionCost::default()).with_store(&store);
    let mut y: Vec<f64> = (0..64).map(|v| (v % 7) as f64).collect();
    warm.transform(&mut y).unwrap();
    assert_eq!(y, want);
    assert_eq!(warm.evaluations(), 0);

    // Winner provenance survives the restart and renders through explain.
    let backend = warm.backend_name().to_string();
    let p: &PlanProvenance = warm
        .wisdom()
        .provenance(6, &backend)
        .expect("persisted provenance");
    assert!(p.candidates >= p.evaluated);
    assert!(warm
        .explain(6)
        .expect("replayed")
        .contains("replayed from wisdom"));

    // The raw atomic commit helper and typed diagnostics are exported too.
    let blob = dir.join("extra.bin");
    atomic_write(&blob, b"payload").unwrap();
    assert_eq!(std::fs::read(&blob).unwrap(), b"payload");
    let diag = StoreDiagnostic::Corrupt {
        shard: "x.shard".into(),
        detail: "demo".into(),
    };
    assert_eq!(diag.kind(), "corrupt");
    let _ = std::fs::remove_dir_all(&dir);
}
