//! Property-based tests for the core WHT invariants.
//!
//! Plans are generated by the shared `wht_core::testkit` decoder driven by
//! a proptest byte strategy (every byte sequence decodes to *some* valid
//! plan, so proptest shrinking stays meaningful).

use proptest::prelude::*;
use wht_core::testkit::{decode_plan, random_plan};
use wht_core::{
    apply_plan, apply_plan_recursive, max_abs_diff, naive_wht, parse_plan, BatchPolicy,
    CompiledPlan, ExecPolicy, FusionPolicy, Plan, RecodeletPolicy, RelayoutPolicy, Scalar,
    SimdPolicy, StreamPolicy,
};

fn arb_plan(max_n: u32) -> impl Strategy<Value = Plan> {
    (1..=max_n, proptest::collection::vec(any::<u8>(), 64)).prop_map(|(n, bytes)| {
        let mut it = bytes.into_iter().cycle();
        decode_plan(n, &mut it)
    })
}

/// Fusion budgets covering both degenerate limits (0 = no fusion,
/// usize::MAX = one super-pass) and the interesting middle.
fn arb_budget() -> impl Strategy<Value = usize> {
    (0u32..24, 2usize..5000).prop_map(|(sel, small)| match sel {
        0 => 0,                 // degenerate: fusion off
        1 => 1,                 // degenerate: fusion off
        2 => usize::MAX,        // degenerate: one super-pass
        s if s < 13 => small,   // arbitrary (non-power-of-two) budgets
        s => 1usize << (s - 8), // powers of two 2^5..=2^15
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any plan in the family computes exactly the naive WHT.
    #[test]
    fn any_plan_matches_naive(plan in arb_plan(8), seed in any::<u64>()) {
        let size = plan.size();
        let input: Vec<f64> = (0..size)
            .map(|j| {
                let h = (j as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed);
                ((h >> 16) % 2048) as f64 / 256.0 - 4.0
            })
            .collect();
        let want = naive_wht(&input);
        let mut got = input;
        apply_plan(&plan, &mut got).unwrap();
        prop_assert!(max_abs_diff(&got, &want) < 1e-9, "plan {} differs", plan);
    }

    /// WHT is self-inverse up to the factor N.
    #[test]
    fn any_plan_self_inverse(plan in arb_plan(8)) {
        let size = plan.size();
        let input: Vec<f64> = (0..size).map(|j| ((j * 31 + 7) % 101) as f64 - 50.0).collect();
        let mut x = input.clone();
        apply_plan(&plan, &mut x).unwrap();
        apply_plan(&plan, &mut x).unwrap();
        for (a, b) in x.iter().zip(input.iter()) {
            prop_assert!((a - b * size as f64).abs() < 1e-6);
        }
    }

    /// Linearity: WHT(a*x + y) = a*WHT(x) + WHT(y).
    #[test]
    fn any_plan_linear(plan in arb_plan(7), a in -4.0f64..4.0) {
        let size = plan.size();
        let x: Vec<f64> = (0..size).map(|j| ((j * 13 + 1) % 37) as f64 - 18.0).collect();
        let y: Vec<f64> = (0..size).map(|j| ((j * 7 + 5) % 23) as f64 - 11.0).collect();

        let mut combo: Vec<f64> = x.iter().zip(y.iter()).map(|(&u, &v)| a * u + v).collect();
        apply_plan(&plan, &mut combo).unwrap();

        let mut tx = x;
        apply_plan(&plan, &mut tx).unwrap();
        let mut ty = y;
        apply_plan(&plan, &mut ty).unwrap();

        for ((c, u), v) in combo.iter().zip(tx.iter()).zip(ty.iter()) {
            prop_assert!((c - (a * u + v)).abs() < 1e-7);
        }
    }

    /// Printing and re-parsing a plan yields the identical tree.
    #[test]
    fn parse_round_trip(plan in arb_plan(16)) {
        let s = plan.to_string();
        let back = parse_plan(&s).unwrap();
        prop_assert_eq!(back, plan);
    }

    /// The round trip holds out to the deepest trees the family allows
    /// (and through `str::parse`, the idiomatic entry point).
    #[test]
    fn parse_round_trip_deep(plan in arb_plan(wht_core::MAX_N)) {
        let s = plan.to_string();
        let back: Plan = s.parse().unwrap();
        prop_assert_eq!(&back, &plan);
        prop_assert_eq!(back.to_string(), s, "display must be canonical");
    }

    /// The compiled pass schedule computes a bit-identical transform to
    /// the recursive interpreter, for every scalar type the engine
    /// supports (the module-level disjointness argument, tested).
    #[test]
    fn compiled_equals_recursive_bitwise_all_scalars(plan in arb_plan(10), seed in any::<u64>()) {
        fn check<T: Scalar>(plan: &Plan, compiled: &CompiledPlan, seed: u64) {
            let input: Vec<T> = (0..plan.size())
                .map(|j| {
                    let h = (j as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed);
                    T::from_i64(((h >> 16) % 255) as i64 - 127)
                })
                .collect();
            let mut rec = input.clone();
            apply_plan_recursive(plan, &mut rec).unwrap();
            let mut flat = input;
            compiled.apply(&mut flat).unwrap();
            assert_eq!(flat, rec, "compiled/interpreted divergence for {plan}");
        }
        let compiled = CompiledPlan::compile(&plan);
        prop_assert_eq!(compiled.passes().len(), plan.leaf_count());
        check::<f64>(&plan, &compiled, seed);
        check::<f32>(&plan, &compiled, seed);
        check::<i64>(&plan, &compiled, seed);
        check::<i32>(&plan, &compiled, seed);
    }

    /// The differential harness for pass fusion **and** the SIMD lane
    /// backend: for every plan and every fusion policy (degenerate
    /// budgets included), the fused schedule — scalar and lane-kernel
    /// alike — is bit-identical to the unfused schedule and to the
    /// recursive interpreter, for all four scalar types.
    #[test]
    fn fused_and_simd_equal_unfused_and_recursive_all_scalars(
        plan in arb_plan(11),
        budget in arb_budget(),
        seed in any::<u64>(),
    ) {
        fn check<T: Scalar>(
            plan: &Plan,
            fused: &CompiledPlan,
            simd: &CompiledPlan,
            unfused: &CompiledPlan,
            seed: u64,
        ) {
            let input: Vec<T> = (0..plan.size())
                .map(|j| {
                    let h = (j as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed);
                    T::from_i64(((h >> 16) % 255) as i64 - 127)
                })
                .collect();
            let mut rec = input.clone();
            apply_plan_recursive(plan, &mut rec).unwrap();
            let mut flat = input.clone();
            unfused.apply(&mut flat).unwrap();
            assert_eq!(flat, rec, "unfused/interpreted divergence for {plan}");
            let mut tiled = input.clone();
            fused.apply(&mut tiled).unwrap();
            assert_eq!(tiled, rec, "fused/interpreted divergence for {plan}");
            let mut lanes = input;
            simd.apply(&mut lanes).unwrap();
            assert_eq!(lanes, rec, "simd/interpreted divergence for {plan}");
        }
        let policy = FusionPolicy::new(budget);
        let unfused = CompiledPlan::compile(&plan);
        let only_fusion = ExecPolicy::all_disabled().with_fusion(policy);
        let fused = unfused.lower(&only_fusion);
        let simd = unfused.lower(&only_fusion.with_simd(SimdPolicy::auto()));
        prop_assert!(fused.verify().is_empty());
        prop_assert!(simd.verify().is_empty());
        prop_assert!(simd.is_simd() && !fused.is_simd());
        prop_assert_eq!(fused.passes(), unfused.passes(), "fusion must not edit the factor list");
        prop_assert_eq!(simd.passes(), fused.passes(), "backend selection must not edit the factor list");
        if !policy.enabled() {
            prop_assert_eq!(&fused, &unfused, "budget {} must not fuse", budget);
        }
        if budget == usize::MAX {
            prop_assert_eq!(fused.super_passes().len(), 1, "unbounded budget fuses everything");
        }
        check::<f64>(&plan, &fused, &simd, &unfused, seed);
        check::<f32>(&plan, &fused, &simd, &unfused, seed);
        check::<i64>(&plan, &fused, &simd, &unfused, seed);
        check::<i32>(&plan, &fused, &simd, &unfused, seed);
    }

    /// `apply_plan` (the lazily-compiled production path) agrees with an
    /// explicitly compiled schedule — the cache can only change *when*
    /// compilation happens, never the result.
    #[test]
    fn cached_apply_equals_explicit_compile(plan in arb_plan(9), seed in any::<u64>()) {
        let input: Vec<f64> = (0..plan.size())
            .map(|j| {
                let h = (j as u64).wrapping_mul(0xA24BAED4963EE407).wrapping_add(seed);
                ((h >> 24) % 1024) as f64 / 128.0 - 4.0
            })
            .collect();
        let mut via_cache = input.clone();
        apply_plan(&plan, &mut via_cache).unwrap();
        let mut via_compile = input;
        CompiledPlan::compile(&plan).apply(&mut via_compile).unwrap();
        prop_assert_eq!(via_cache, via_compile);
    }

    /// Decoded plans always satisfy the structural invariants.
    #[test]
    fn decoded_plans_validate(plan in arb_plan(20)) {
        prop_assert!(plan.validate().is_ok());
    }

    /// Every element is touched exactly `leaf_count` times across the whole
    /// computation (each tensor level visits each element once).
    #[test]
    fn leaf_calls_touch_each_element_leafcount_times(plan in arb_plan(10)) {
        let mut touches = vec![0usize; plan.size()];
        wht_core::for_each_leaf_call(&plan, |k, base, stride| {
            for j in 0..(1usize << k) {
                touches[base + j * stride] += 1;
            }
        });
        let want = plan.leaf_count();
        prop_assert!(touches.iter().all(|&c| c == want));
    }

    /// Integer instantiation agrees with the float engine exactly
    /// (the WHT matrix has +-1 entries; both are exact on small ints).
    #[test]
    fn integer_and_float_agree(plan in arb_plan(8)) {
        let size = plan.size();
        let ints: Vec<i64> = (0..size as i64).map(|j| (j * 17 % 29) - 14).collect();
        let mut xi = ints.clone();
        apply_plan(&plan, &mut xi).unwrap();
        let mut xf: Vec<f64> = ints.iter().map(|&v| v as f64).collect();
        apply_plan(&plan, &mut xf).unwrap();
        for (i, f) in xi.iter().zip(xf.iter()) {
            prop_assert_eq!(*i as f64, *f);
        }
    }
}

// The large-n leg of the fusion differential harness: out where the
// unfused replay is memory-bound (n up to 20, the acceptance regime),
// with few cases because each one moves hundreds of megabytes.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// SIMD, scalar-fused, and recursive execution agree — bit for bit
    /// for the float types, exactly for the integer types — at
    /// n = 16..=20 (the acceptance regime), for budgets from "no fusion"
    /// through L1/L2-sized tiles to "one super-pass".
    #[test]
    fn simd_differential_harness_at_large_n(
        n in 16u32..=20,
        seed in any::<u64>(),
        budget in (0u32..4).prop_map(|i| [0usize, 1 << 12, 1 << 15, usize::MAX][i as usize]),
    ) {
        fn check<T: Scalar>(plan: &Plan, fused: &CompiledPlan, simd: &CompiledPlan, seed: u64) {
            let input: Vec<T> = wht_core::testkit::random_signal(plan.size(), seed);
            let mut rec = input.clone();
            apply_plan_recursive(plan, &mut rec).unwrap();
            let mut tiled = input.clone();
            fused.apply(&mut tiled).unwrap();
            assert_eq!(tiled, rec, "fused/interpreted divergence for {plan}");
            let mut lanes = input;
            simd.apply(&mut lanes).unwrap();
            assert_eq!(lanes, rec, "simd/interpreted divergence for {plan}");
        }
        let plan = random_plan(n, seed);
        let unfused = CompiledPlan::compile(&plan);
        let only_fusion = ExecPolicy::all_disabled().with_fusion(FusionPolicy::new(budget));
        let fused = unfused.lower(&only_fusion);
        let simd = unfused.lower(&only_fusion.with_simd(SimdPolicy::auto()));
        prop_assert!(fused.verify().is_empty());
        prop_assert!(simd.verify().is_empty() && simd.is_simd());
        // Unfused vs fused: same program, one execution each per type.
        let probe: Vec<i64> = wht_core::testkit::random_signal(plan.size(), seed ^ 1);
        let mut a = probe.clone();
        unfused.apply(&mut a).unwrap();
        let mut b = probe;
        fused.apply(&mut b).unwrap();
        prop_assert_eq!(a, b, "fused/unfused divergence for {}", plan);
        check::<f64>(&plan, &fused, &simd, seed);
        check::<f32>(&plan, &fused, &simd, seed);
        check::<i64>(&plan, &fused, &simd, seed);
        check::<i32>(&plan, &fused, &simd, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The shared testkit generator (the seeded, dependency-free cousin
    /// of `arb_plan`) only ever produces structurally valid plans.
    #[test]
    fn testkit_random_plans_validate(n in 1u32..=20, seed in any::<u64>()) {
        let plan = random_plan(n, seed);
        prop_assert_eq!(plan.n(), n);
        prop_assert!(plan.validate().is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance harness for the column tail: at n = 16..=20, for
    /// random plans and fusion × chunk budget combinations, the
    /// column-tail compiled executor (scalar and SIMD) is bit-identical to
    /// the recursive interpreter, for all four scalar types.
    #[test]
    fn relayout_differential_harness_to_n20(
        n in 16u32..=20,
        seed in any::<u64>(),
        fuse_budget in (0u32..3).prop_map(|i| [0usize, 1 << 10, 1 << 13][i as usize]),
        block_budget in (0u32..3).prop_map(|i| [1usize << 10, 1 << 13, 1 << 15][i as usize]),
    ) {
        fn check<T: Scalar>(plan: &Plan, relaid: &CompiledPlan, simd: &CompiledPlan, seed: u64) {
            let input: Vec<T> = wht_core::testkit::random_signal(plan.size(), seed);
            let mut rec = input.clone();
            apply_plan_recursive(plan, &mut rec).unwrap();
            let mut gathered = input.clone();
            relaid.apply(&mut gathered).unwrap();
            assert_eq!(gathered, rec, "relayout/interpreted divergence for {plan}");
            let mut lanes = input;
            simd.apply(&mut lanes).unwrap();
            assert_eq!(lanes, rec, "relayout-simd/interpreted divergence for {plan}");
        }
        let plan = random_plan(n, seed);
        let tail = ExecPolicy::all_disabled()
            .with_fusion(FusionPolicy::new(fuse_budget))
            .with_relayout(RelayoutPolicy::new(block_budget));
        let relaid = CompiledPlan::compile_exec(&plan, &tail);
        let simd = CompiledPlan::compile_exec(&plan, &tail.with_simd(SimdPolicy::auto()));
        prop_assert!(relaid.verify().is_empty());
        prop_assert!(simd.verify().is_empty());
        prop_assert_eq!(
            relaid.passes(),
            CompiledPlan::compile(&plan).passes(),
            "relayout must not edit the factor list"
        );
        check::<f64>(&plan, &relaid, &simd, seed);
        check::<f32>(&plan, &relaid, &simd, seed);
        check::<i64>(&plan, &relaid, &simd, seed);
        check::<i32>(&plan, &relaid, &simd, seed);
    }

    /// The acceptance harness for re-codeleting (lowering stage 3): at
    /// n = 16..=20, for random plans and fusion × chunk budget ×
    /// codelet-cap combinations, the re-codeleted executor (scalar and
    /// SIMD) is bit-identical to the recursive interpreter *and* the
    /// column-tail executor it rewrites, for all four scalar types — the
    /// same butterfly DAG, regrouped into other codelets.
    #[test]
    fn recodelet_differential_harness_to_n20(
        n in 16u32..=20,
        seed in any::<u64>(),
        fuse_budget in (0u32..3).prop_map(|i| [0usize, 1 << 10, 1 << 13][i as usize]),
        block_budget in (0u32..3).prop_map(|i| [1usize << 10, 1 << 13, 1 << 15][i as usize]),
        max_k in 2u32..=8,
    ) {
        use wht_core::RecodeletPolicy;
        fn check<T: Scalar>(
            plan: &Plan,
            relaid: &CompiledPlan,
            merged: &CompiledPlan,
            simd: &CompiledPlan,
            seed: u64,
        ) {
            let input: Vec<T> = wht_core::testkit::random_signal(plan.size(), seed);
            let mut rec = input.clone();
            apply_plan_recursive(plan, &mut rec).unwrap();
            let mut per_factor = input.clone();
            relaid.apply(&mut per_factor).unwrap();
            assert_eq!(per_factor, rec, "relayout/interpreted divergence for {plan}");
            let mut recodeleted = input.clone();
            merged.apply(&mut recodeleted).unwrap();
            assert_eq!(
                recodeleted, rec,
                "recodelet/interpreted divergence for {plan}"
            );
            let mut lanes = input;
            simd.apply(&mut lanes).unwrap();
            assert_eq!(lanes, rec, "recodelet-simd/interpreted divergence for {plan}");
        }
        let plan = random_plan(n, seed);
        let tail = ExecPolicy::all_disabled()
            .with_fusion(FusionPolicy::new(fuse_budget))
            .with_relayout(RelayoutPolicy::new(block_budget));
        let relaid = CompiledPlan::compile_exec(&plan, &tail);
        let merging = tail.with_recodelet(RecodeletPolicy::new(max_k));
        let merged = CompiledPlan::compile_exec(&plan, &merging);
        let simd = CompiledPlan::compile_exec(&plan, &merging.with_simd(SimdPolicy::auto()));
        prop_assert!(merged.verify().is_empty());
        prop_assert!(simd.verify().is_empty());
        // Every part of a multi-part unit respects the cap, whatever
        // leaves the plan had; single-part units are left as they were;
        // and the factor lists of the two views of the merged schedule
        // stay consistent.
        prop_assert_eq!(merged.super_passes().len(), relaid.super_passes().len());
        for (sp, before) in merged.super_passes().iter().zip(relaid.super_passes()) {
            if before.parts().len() < 2 {
                prop_assert_eq!(sp, before);
                continue;
            }
            for part in sp.parts() {
                prop_assert!(part.k <= max_k, "k = {} past max_k = {max_k} in {plan}", part.k);
            }
        }
        let rebuilt =
            CompiledPlan::from_super_passes(n, merged.super_passes().to_vec()).unwrap();
        prop_assert_eq!(rebuilt.passes(), merged.passes());
        check::<f64>(&plan, &relaid, &merged, &simd, seed);
        check::<f32>(&plan, &relaid, &merged, &simd, seed);
        check::<i64>(&plan, &relaid, &merged, &simd, seed);
        check::<i32>(&plan, &relaid, &merged, &simd, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Below the fusion budget the whole vector is one fused tile, and
    /// re-codeleting derives its codelets from the tile's radix-2 levels,
    /// which every plan shares: under the default policy every plan with
    /// two or more leaves lowers to `Plan::iterative(n)`'s schedule,
    /// whatever its leaves.
    #[test]
    fn multi_leaf_plans_below_the_fusion_budget_lower_to_the_iterative_schedule(
        n in 2u32..=FusionPolicy::DEFAULT_BUDGET_ELEMS.ilog2(),
        seed in any::<u64>(),
    ) {
        // random_plan draws a single leaf for about a third of the seeds
        // at n <= 8; take the first multi-leaf plan from `seed` on.
        let plan = (0..)
            .map(|i| random_plan(n, seed.wrapping_add(i)))
            .find(|p| p.leaf_count() >= 2)
            .unwrap();
        let policy = ExecPolicy::default();
        prop_assert_eq!(
            CompiledPlan::compile_exec(&plan, &policy),
            CompiledPlan::compile_exec(&Plan::iterative(n).unwrap(), &policy),
            "{} lowers off the canonical schedule",
            plan
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance harness for batched execution (lowering stage 5):
    /// to n = 16, for random plans, executor knob combinations, and batch
    /// shapes — a batch of one, sub-lane-group batches, exact lane
    /// groups, and non-multiple-of-LANES remainders — `apply_batch` is
    /// bit-identical to a per-row `apply` of the same lowered schedule,
    /// for all four scalar types.
    #[test]
    fn batched_differential_harness_to_n16(
        n in 1u32..=16,
        seed in any::<u64>(),
        rows_and_simd in 0usize..16,
        fuse_budget in (0u32..3).prop_map(|i| [0usize, 1 << 6, 1 << 12][i as usize]),
        max_k in 0u32..=6,
        block_rows in (0u32..4).prop_map(|i| [0usize, 1, 8, 64][i as usize]),
    ) {
        fn check<T: Scalar>(compiled: &CompiledPlan, rows: usize, seed: u64) {
            let size = compiled.size();
            let input: Vec<T> = wht_core::testkit::random_signal(rows * size, seed);
            let mut per_row = input.clone();
            for row in per_row.chunks_exact_mut(size) {
                compiled.apply(row).unwrap();
            }
            let mut batched = input;
            compiled.apply_batch(&mut batched, rows).unwrap();
            assert_eq!(batched, per_row, "batched/per-row divergence at rows {rows}");
        }
        let rows = [1usize, 3, 7, 8, 15, 16, 17, 33][rows_and_simd / 2];
        let simd_on = rows_and_simd % 2 == 1;
        let plan = random_plan(n, seed);
        let exec = ExecPolicy::default()
            .with_fusion(FusionPolicy::new(fuse_budget))
            .with_recodelet(RecodeletPolicy::new(max_k))
            .with_simd(if simd_on { SimdPolicy::auto() } else { SimdPolicy::disabled() })
            .with_batch(BatchPolicy::new(block_rows));
        let compiled = CompiledPlan::compile(&plan).lower(&exec);
        prop_assert!(compiled.verify().is_empty());
        // The batch stage builds its product up to its 2^4-element cap.
        prop_assert_eq!(compiled.is_batched(), block_rows > 0 && n <= 4);
        check::<f64>(&compiled, rows, seed);
        check::<f32>(&compiled, rows, seed);
        check::<i64>(&compiled, rows, seed);
        check::<i32>(&compiled, rows, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The SRHT sketch equals the reference sign-flip → full-WHT →
    /// subsample composition bit for bit, for random plans, draws,
    /// sample sizes, and batch shapes, over every scalar type — on both
    /// the fused cross-transform path and the per-row fallback.
    #[test]
    fn srht_matches_the_reference_composition(
        n in 1u32..=10,
        seed in any::<u64>(),
        rows_sel in 0usize..6,
        m_frac in 1usize..=4,
        block_rows in (0u32..3).prop_map(|i| [0usize, 1, 16][i as usize]),
    ) {
        use wht_core::Srht;
        fn check<T: Scalar>(srht: &Srht, compiled: &CompiledPlan, rows: usize, seed: u64) {
            let size = compiled.size();
            let m = srht.sample_len();
            let x: Vec<T> = wht_core::testkit::random_signal(rows * size, seed);
            let mut want = Vec::with_capacity(rows * m);
            for row in 0..rows {
                let mut buf: Vec<T> = x[row * size..(row + 1) * size]
                    .iter()
                    .zip(srht.signs())
                    .map(|(&v, &s)| if s < 0 { T::ZERO - v } else { v })
                    .collect();
                compiled.apply(&mut buf).unwrap();
                want.extend(srht.indices().iter().map(|&j| buf[j]));
            }
            let mut got = vec![T::ZERO; rows * m];
            srht.sketch_batch(compiled, &x, rows, &mut got).unwrap();
            assert_eq!(got, want, "sketch/reference divergence at rows {rows}");
        }
        let rows = [1usize, 7, 16, 17, 32, 41][rows_sel];
        let size = 1usize << n;
        let m = (size / m_frac).max(1);
        let srht = Srht::new(n, m, seed).unwrap();
        let plan = random_plan(n, seed);
        let compiled = CompiledPlan::compile(&plan)
            .lower(&ExecPolicy::default().with_batch(BatchPolicy::new(block_rows)));
        check::<f64>(&srht, &compiled, rows, seed);
        check::<f32>(&srht, &compiled, rows, seed);
        check::<i64>(&srht, &compiled, rows, seed);
        check::<i32>(&srht, &compiled, rows, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Streaming (non-temporal scatter + prefetched gather) is a pure
    /// memory-system policy: an eagerly-streamed replay is bit-identical
    /// to the cached replay of the same lowered schedule, for random
    /// plans and column-tail geometries, over every scalar type. (The
    /// stream stage marks only the batch product's copies, so a single
    /// transform must replay identically whatever it says.)
    #[test]
    fn streamed_replay_is_bit_identical_to_cached(
        n in 8u32..=14,
        seed in any::<u64>(),
        relayout_bits in 6u32..=12,
        simd_on in any::<bool>(),
    ) {
        fn check<T: Scalar>(cached: &CompiledPlan, streamed: &CompiledPlan, seed: u64) {
            let input: Vec<T> = wht_core::testkit::random_signal(cached.size(), seed);
            let mut cold = input.clone();
            cached.apply(&mut cold).unwrap();
            let mut hot = input;
            streamed.apply(&mut hot).unwrap();
            assert_eq!(hot, cold, "stream/cached divergence");
        }
        let plan = random_plan(n, seed);
        let base = ExecPolicy::default()
            .with_relayout(RelayoutPolicy::new(1usize << relayout_bits))
            .with_simd(if simd_on { SimdPolicy::auto() } else { SimdPolicy::disabled() });
        let cached = CompiledPlan::compile(&plan)
            .lower(&base.with_stream(StreamPolicy::disabled()));
        let streamed = CompiledPlan::compile(&plan)
            .lower(&base.with_stream(StreamPolicy::eager()));
        prop_assert!(streamed.verify().is_empty());
        check::<f64>(&cached, &streamed, seed);
        check::<f32>(&cached, &streamed, seed);
        check::<i64>(&cached, &streamed, seed);
        check::<i32>(&cached, &streamed, seed);
    }
}

/// The streaming differential at real streaming sizes: n = 20 (8 MiB of
/// f64, past any L2) with the default out-of-LLC threshold forced on via
/// the eager policy — one deterministic case so the suite stays fast.
#[test]
fn streamed_replay_matches_cached_at_n20() {
    let n = 20u32;
    let plan = random_plan(n, 0x57_AE_A3);
    let base = ExecPolicy::default().with_relayout(RelayoutPolicy::new(1 << 10));
    let cached = CompiledPlan::compile(&plan).lower(&base.with_stream(StreamPolicy::disabled()));
    let streamed = CompiledPlan::compile(&plan).lower(&base.with_stream(StreamPolicy::eager()));
    assert!(streamed.verify().is_empty());
    let input: Vec<f64> = wht_core::testkit::random_signal(1 << n, 7);
    let mut cold = input.clone();
    cached.apply(&mut cold).unwrap();
    let mut hot = input;
    streamed.apply(&mut hot).unwrap();
    assert_eq!(hot, cold);
}
