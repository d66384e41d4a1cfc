use super::*;
use crate::engine::{apply_plan_recursive, for_each_leaf_call};
use crate::reference::{max_abs_diff, naive_wht};

fn signal(n: u32) -> Vec<f64> {
    (0..1usize << n)
        .map(|j| ((j.wrapping_mul(2654435761)) % 1000) as f64 / 250.0 - 2.0)
        .collect()
}

fn test_plans(n: u32) -> Vec<Plan> {
    vec![
        Plan::iterative(n).unwrap(),
        Plan::right_recursive(n).unwrap(),
        Plan::left_recursive(n).unwrap(),
        Plan::balanced(n, 3).unwrap(),
        Plan::binary_iterative(n, 4).unwrap(),
    ]
}

#[test]
fn schedule_shape_one_pass_per_leaf() {
    for n in 1..=12u32 {
        for plan in test_plans(n) {
            let compiled = CompiledPlan::compile(&plan);
            assert_eq!(compiled.passes().len(), plan.leaf_count(), "plan {plan}");
            assert_eq!(compiled.super_passes().len(), compiled.passes().len());
            assert!(!compiled.is_fused());
            assert!(compiled.verify().is_empty());
            // Strides multiply up: pass i runs at stride = product of
            // earlier factor sizes.
            let mut s = 1usize;
            for pass in compiled.passes() {
                assert_eq!(pass.s, s, "plan {plan}");
                s *= 1usize << pass.k;
            }
            assert_eq!(s, compiled.size());
        }
    }
}

#[test]
fn deep_recursions_flatten_to_the_iterative_schedule() {
    // Both canonical binary recursions are *algorithms for building a
    // schedule*; flattened, all-small[1] plans become the same n-pass
    // program regardless of tree shape.
    let n = 9u32;
    let it = CompiledPlan::compile(&Plan::iterative(n).unwrap());
    let rr = CompiledPlan::compile(&Plan::right_recursive(n).unwrap());
    let lr = CompiledPlan::compile(&Plan::left_recursive(n).unwrap());
    assert_eq!(it, rr);
    assert_eq!(it, lr);
}

#[test]
fn fusion_merges_the_small_stride_prefix() {
    // iterative(12) with a 2^6-element budget: the first 6 radix-2
    // factors fuse into one super-pass of 2^6 tiles; the remaining 6
    // large-stride passes stay single.
    let compiled = CompiledPlan::compile(&Plan::iterative(12).unwrap());
    let fused = compiled.fuse(&FusionPolicy::new(1 << 6));
    assert_eq!(
        fused.passes(),
        compiled.passes(),
        "fusion must not touch the factor list"
    );
    assert_eq!(fused.super_passes().len(), 7);
    let head = &fused.super_passes()[0];
    assert!(head.is_fused());
    assert!(
        head.provenance().fused,
        "the fuse stage must stamp its work"
    );
    assert_eq!(head.parts().len(), 6);
    assert_eq!(head.tile_elems(), 1 << 6);
    assert_eq!(head.tiles(), 1 << 6);
    assert_eq!(head.span(), fused.size());
    for sp in &fused.super_passes()[1..] {
        assert!(!sp.is_fused());
        assert_eq!(sp.tiles(), 1);
        assert_eq!(sp.provenance(), Provenance::default());
    }
    assert!(fused.verify().is_empty());
}

#[test]
fn degenerate_budgets_are_the_limits() {
    let compiled = CompiledPlan::compile(&Plan::balanced(10, 3).unwrap());
    // Budget 0 (and 1): no fusion — the schedule is the unfused one.
    for policy in [FusionPolicy::disabled(), FusionPolicy::new(1)] {
        assert_eq!(compiled.fuse(&policy), compiled);
    }
    // Unbounded budget: the whole schedule is one super-pass with a
    // single vector-sized tile.
    let all = compiled.fuse(&FusionPolicy::unbounded());
    assert_eq!(all.super_passes().len(), 1);
    assert_eq!(all.super_passes()[0].tiles(), 1);
    assert_eq!(all.super_passes()[0].tile_elems(), all.size());
    assert_eq!(all.super_passes()[0].parts().len(), compiled.passes().len());
    assert!(all.verify().is_empty());
}

#[test]
fn fused_apply_is_bit_identical_to_unfused_and_recursive() {
    for n in 1..=11u32 {
        let input = signal(n);
        for plan in test_plans(n) {
            let mut rec = input.clone();
            apply_plan_recursive(&plan, &mut rec).unwrap();
            let compiled = CompiledPlan::compile(&plan);
            for budget in [0usize, 2, 16, 64, 1 << n, usize::MAX] {
                let fused = compiled.fuse(&FusionPolicy::new(budget));
                let mut got = input.clone();
                fused.apply(&mut got).unwrap();
                assert_eq!(got, rec, "plan {plan}, budget {budget}");
            }
        }
    }
}

#[test]
fn compiled_matches_naive_and_recursive_bitwise() {
    for n in 1..=11u32 {
        let input = signal(n);
        let want = naive_wht(&input);
        for plan in test_plans(n) {
            let compiled = CompiledPlan::compile(&plan);
            let mut got = input.clone();
            compiled.apply(&mut got).unwrap();
            assert!(max_abs_diff(&got, &want) < 1e-9, "plan {plan}");

            let mut rec = input.clone();
            apply_plan_recursive(&plan, &mut rec).unwrap();
            assert_eq!(got, rec, "bit-exact agreement required for {plan}");
        }
    }
}

#[test]
fn simd_relabeling_is_bit_identical_and_recorded() {
    for n in [6u32, 10, 12] {
        let input = signal(n);
        for plan in test_plans(n) {
            for budget in [0usize, 1 << 5, usize::MAX] {
                let scalar = CompiledPlan::compile(&plan).fuse(&FusionPolicy::new(budget));
                let simd = scalar.with_simd(&SimdPolicy::auto());
                // The relabeling is recorded, verifies, and keeps the
                // factor list...
                assert!(simd.is_simd() && !scalar.is_simd());
                assert!(simd
                    .super_passes()
                    .iter()
                    .all(|sp| sp.backend() == PassBackend::Lanes));
                assert!(simd.verify().is_empty());
                assert_eq!(simd.passes(), scalar.passes());
                // ...and both backends produce identical bits.
                let mut a = input.clone();
                scalar.apply(&mut a).unwrap();
                let mut b = input.clone();
                simd.apply(&mut b).unwrap();
                assert_eq!(a, b, "plan {plan}, budget {budget}");
                // Disabling flips back; fusing preserves the backend.
                assert!(!simd.with_simd(&SimdPolicy::disabled()).is_simd());
                assert!(simd.fuse(&FusionPolicy::new(1 << 4)).is_simd());
                assert!(!scalar.fuse(&FusionPolicy::new(1 << 4)).is_simd());
            }
        }
    }
}

#[test]
fn relayout_rewrites_the_unfusable_tail() {
    // iterative(14) fused at 2^6: 6-factor head + 8 tail passes. A
    // column tail with a 2^12 chunk budget groups all 8 tail factors:
    // period = 2^6, columns of 2^14 / 2^6 = 256 elements, cols =
    // 4096/256 = 16, chunks = 64/16 = 4.
    let n = 14u32;
    let compiled = CompiledPlan::compile(&Plan::iterative(n).unwrap());
    let fused = compiled.fuse(&FusionPolicy::new(1 << 6));
    let relaid = fused.column_tail(&RelayoutPolicy::new(1 << 12));
    assert!(relaid.has_relayout());
    assert_eq!(
        relaid.passes(),
        compiled.passes(),
        "the column tail must not touch the factor list"
    );
    assert_eq!(relaid.super_passes().len(), 2);
    let tail = &relaid.super_passes()[1];
    let g = tail.columns().expect("tail must be a column unit");
    assert!(tail.provenance().relayouted);
    assert_eq!(tail.provenance().recodeleted, 0);
    assert_eq!((g.period, g.cols), (1 << 6, 16));
    assert_eq!(tail.parts().len(), 8);
    assert_eq!(tail.tile_elems(), 1 << 12);
    assert_eq!(tail.tiles(), (1 << 6) / 16);
    assert_eq!(tail.span(), relaid.size());
    assert!(relaid.verify().is_empty(), "{:?}", relaid.verify());
    // Chunk-coordinate parts run at unit global stride with s = cols * c.
    let mut c = 1usize;
    for part in tail.parts() {
        assert_eq!((part.base, part.stride), (0, 1));
        assert_eq!(part.s, 16 * c);
        c <<= part.k;
    }
    // The in-place view of each part is the original tail factor.
    for (p, pass) in compiled.passes()[6..].iter().enumerate() {
        assert_eq!(tail.flat_pass(p), *pass);
    }
    // Bit-identical to every other executor for all scalar types.
    let input = signal(n);
    let mut want = input.clone();
    fused.apply(&mut want).unwrap();
    let mut got = input.clone();
    relaid.apply(&mut got).unwrap();
    assert_eq!(got, want);
    // ...including through the SIMD backend, which needs no scratch.
    let simd = relaid.with_simd(&SimdPolicy::auto());
    assert!(simd.has_relayout() && simd.is_simd());
    let mut scratch = Vec::new();
    let mut got2 = input;
    simd.apply_with_scratch(&mut got2, &mut scratch).unwrap();
    assert_eq!(got2, want);
    assert!(scratch.is_empty());
}

/// The chunk kernel's unsafe indexing at a size Miri can run: n = 8,
/// a head fused at 2^5 and a 3-factor column tail of two 128-element
/// chunks, through both backends and two scalar widths.
#[test]
fn column_tail_replays_in_place_at_n8() {
    let n = 8u32;
    let plan = Plan::iterative(n).unwrap();
    for simd in [SimdPolicy::disabled(), SimdPolicy::auto()] {
        let tailed = CompiledPlan::compile_exec(
            &plan,
            &ExecPolicy::all_disabled()
                .with_fusion(FusionPolicy::new(1 << 5))
                .with_relayout(RelayoutPolicy::new(1 << 7))
                .with_simd(simd),
        );
        let tail = tailed.super_passes().last().unwrap();
        assert_eq!(
            tail.columns(),
            Some(ColumnTail {
                period: 32,
                cols: 16
            })
        );
        assert_eq!((tail.parts().len(), tail.tiles()), (3, 2));
        let input = signal(n);
        let mut want = input.clone();
        apply_plan_recursive(&plan, &mut want).unwrap();
        let mut got = input.clone();
        tailed.apply(&mut got).unwrap();
        assert_eq!(got, want, "{simd:?}");
        let ints: Vec<i32> = input.iter().map(|&v| v as i32).collect();
        let mut want = ints.clone();
        apply_plan_recursive(&plan, &mut want).unwrap();
        let mut got = ints;
        tailed.apply(&mut got).unwrap();
        assert_eq!(got, want, "{simd:?} (i32)");
    }
}

#[test]
fn relayout_policy_gates() {
    let n = 14u32;
    let fused =
        CompiledPlan::compile(&Plan::iterative(n).unwrap()).fuse(&FusionPolicy::new(1 << 6));
    // Disabled policies, one-factor tails, and resident vectors all
    // leave the schedule unchanged.
    assert_eq!(fused.column_tail(&RelayoutPolicy::disabled()), fused);
    let one_factor_tail =
        CompiledPlan::compile(&Plan::iterative(n).unwrap()).fuse(&FusionPolicy::new(1 << 13));
    assert_eq!(one_factor_tail.super_passes().len(), 2);
    assert_eq!(
        one_factor_tail.column_tail(&RelayoutPolicy::new(1 << 9)),
        one_factor_tail
    );
    assert_eq!(
        fused.column_tail(&RelayoutPolicy::new(1 << n)),
        fused,
        "a budget holding the whole vector must not group the tail"
    );
    // Idempotence: grouping a grouped tail changes nothing.
    let relaid = fused.column_tail(&RelayoutPolicy::new(1 << 12));
    assert!(relaid.has_relayout());
    assert_eq!(relaid.column_tail(&RelayoutPolicy::new(1 << 12)), relaid);
    // A budget too small for a 16-column chunk drops the earliest tail
    // passes: budget 2^11 needs columns of at most 128 elements, so the
    // first tail pass (columns of 256) stays in place and 7 factors
    // group at period 2^7.
    let partial = fused.column_tail(&RelayoutPolicy::new(1 << 11));
    assert!(partial.has_relayout());
    assert_eq!(partial.super_passes().len(), 3);
    let tail = partial.super_passes().last().unwrap();
    assert_eq!(tail.parts().len(), 7);
    assert_eq!(
        tail.columns().unwrap(),
        ColumnTail {
            period: 1 << 7,
            cols: 16
        }
    );
    assert!(partial.verify().is_empty());
    let input = signal(n);
    let mut want = input.clone();
    fused.apply(&mut want).unwrap();
    let mut got = input;
    partial.apply(&mut got).unwrap();
    assert_eq!(got, want);
}

#[test]
fn relayout_units_round_trip_through_from_super_passes() {
    let plan = Plan::iterative(12).unwrap();
    let relaid = CompiledPlan::compile(&plan)
        .fuse(&FusionPolicy::new(1 << 5))
        .column_tail(&RelayoutPolicy::new(1 << 8));
    assert!(relaid.has_relayout());
    let rebuilt = CompiledPlan::from_super_passes(12, relaid.super_passes().to_vec()).unwrap();
    assert_eq!(rebuilt.super_passes(), relaid.super_passes());
    assert_eq!(rebuilt.passes(), relaid.passes());
    let mut a = signal(12);
    let mut b = a.clone();
    relaid.apply(&mut a).unwrap();
    rebuilt.apply(&mut b).unwrap();
    assert_eq!(a, b);
}

#[test]
fn relayout_env_policy_constructors() {
    assert!(!RelayoutPolicy::disabled().enabled());
    assert!(!RelayoutPolicy::new(1).enabled());
    assert!(RelayoutPolicy::new(2).enabled());
    assert!(RelayoutPolicy::default().enabled());
    assert_eq!(
        RelayoutPolicy::default().budget_elems,
        RelayoutPolicy::DEFAULT_BUDGET_ELEMS
    );
    assert_eq!(RelayoutPolicy::new(64).budget_elems, 64);
    assert_eq!(
        RelayoutPolicy::disabled().cache_key(),
        RelayoutPolicy { budget_elems: 1 }.cache_key()
    );
}

// ---------------------------------------------------------------------------
// Re-codeleting (lowering stage 3).
// ---------------------------------------------------------------------------

/// An unbounded-footprint policy, for tests that pin pure merge shapes
/// without the cache-friendliness cap.
fn uncapped(max_k: u32) -> RecodeletPolicy {
    RecodeletPolicy {
        max_k,
        footprint_elems: usize::MAX,
    }
}

#[test]
fn recodelet_merges_chained_factors_in_head_and_tail() {
    // iterative(14) fused at 2^6, a column tail at 2^12, merged with an
    // uncapped footprint at max_k = 8: the 8 radix-2 tail factors merge
    // into one small[8] codelet, and the 6-factor fused head into a
    // small[8]-bounded group.
    let n = 14u32;
    let relaid = CompiledPlan::compile(&Plan::iterative(n).unwrap())
        .fuse(&FusionPolicy::new(1 << 6))
        .column_tail(&RelayoutPolicy::new(1 << 12));
    let merged = relaid.recodelet(&uncapped(8));
    assert!(merged.has_recodeleted());
    let tail = merged.super_passes().last().unwrap();
    assert_eq!(
        tail.parts().len(),
        1,
        "8 chained radix-2 factors -> small[8]"
    );
    assert_eq!(tail.parts()[0].k, 8);
    assert_eq!(
        tail.parts()[0].s,
        16,
        "merged codelet keeps the first factor's chunk extent (cols)"
    );
    assert_eq!(tail.provenance().recodeleted, 7);
    assert!(tail.provenance().relayouted);
    // The fused head merges too: its 6 chained radix-2 parts become one
    // small[6] codelet per tile.
    let head = &merged.super_passes()[0];
    assert_eq!(
        head.parts().iter().map(|p| p.k).collect::<Vec<_>>(),
        vec![6]
    );
    assert_eq!(head.provenance().recodeleted, 5);
    assert!(head.provenance().fused);
    // Geometry, backend, and the tile grid are untouched.
    assert_eq!(
        tail.columns(),
        relaid.super_passes().last().unwrap().columns()
    );
    assert_eq!(tail.tile_elems(), 1 << 12);
    assert!(merged.verify().is_empty(), "{:?}", merged.verify());
    // The factor list is re-derived: 1 merged head factor + 1 merged tail
    // factor, and the merged flat passes are the in-place merged factors.
    assert_eq!(merged.passes().len(), 2);
    let flat = tail.flat_pass(0);
    assert_eq!((flat.k, flat.s, flat.r), (8, 1 << 6, 1));
    // Bit-identical to the per-factor column replay (and hence to the
    // recursive engine), through both kernel backends.
    let input = signal(n);
    let mut want = input.clone();
    relaid.apply(&mut want).unwrap();
    let mut got = input.clone();
    merged.apply(&mut got).unwrap();
    assert_eq!(got, want);
    let mut simd = input;
    merged
        .with_simd(&SimdPolicy::auto())
        .apply(&mut simd)
        .unwrap();
    assert_eq!(simd, want);
}

#[test]
fn recodelet_respects_the_codelet_cap_and_chains_greedily() {
    // 8 tail factors at max_k = 3 (footprint uncapped, so the cap is
    // the only bound): greedy left-to-right merge gives small[3] +
    // small[3] + small[2].
    let n = 16u32;
    let relaid = CompiledPlan::compile(&Plan::iterative(n).unwrap())
        .fuse(&FusionPolicy::new(1 << 8))
        .column_tail(&RelayoutPolicy::new(1 << 12));
    assert_eq!(relaid.super_passes().last().unwrap().parts().len(), 8);
    let merged = relaid.recodelet(&uncapped(3));
    let tail = merged.super_passes().last().unwrap();
    assert_eq!(
        tail.parts().iter().map(|p| p.k).collect::<Vec<_>>(),
        vec![3, 3, 2]
    );
    assert_eq!(tail.provenance().recodeleted, 5);
    assert!(merged.verify().is_empty());
    // Caps above MAX_LEAF_K clamp to the unrolled family's edge.
    let clamped = relaid.recodelet(&uncapped(99));
    assert!(clamped
        .super_passes()
        .iter()
        .flat_map(|sp| sp.parts())
        .all(|p| p.k <= crate::plan::MAX_LEAF_K));
    // Mixed-radix tails merge too: binary_iterative(16, 2) has k=2
    // factors; its 4-part column tail merges under max_k = 6 into 6+2.
    let blocked = CompiledPlan::compile(&Plan::binary_iterative(n, 2).unwrap())
        .fuse(&FusionPolicy::new(1 << 8))
        .column_tail(&RelayoutPolicy::new(1 << 12));
    let tail_ks: Vec<u32> = blocked
        .super_passes()
        .last()
        .unwrap()
        .parts()
        .iter()
        .map(|p| p.k)
        .collect();
    assert_eq!(tail_ks, vec![2; 4]);
    let bmerged = blocked.recodelet(&uncapped(6));
    assert_eq!(
        bmerged
            .super_passes()
            .last()
            .unwrap()
            .parts()
            .iter()
            .map(|p| p.k)
            .collect::<Vec<_>>(),
        vec![6, 2]
    );
    let input = signal(n);
    let mut want = input.clone();
    blocked.apply(&mut want).unwrap();
    let mut got = input;
    bmerged.apply(&mut got).unwrap();
    assert_eq!(got, want);
}

#[test]
fn recodelet_footprint_cap_bounds_strided_merges() {
    // The production shape where the cap binds: iterative(24) under the
    // default pipeline groups a column tail with period 2^17 and cols =
    // 1024, so the 7 parts are stored at chunk extents s = 1024·c and run
    // at in-place strides 2^17·c. A merged small[16] call there would
    // touch 16 rows 2^17 elements apart — past the 4096-element footprint
    // and past the 8-row exemption — so the default policy must stop each
    // group at small[8] (8 rows) even though max_k = 4 alone would allow
    // 16. (Compiling touches no data; a 2^24 schedule is cheap.)
    let relaid = CompiledPlan::compile(&Plan::iterative(24).unwrap())
        .fuse(&FusionPolicy::default())
        .column_tail(&RelayoutPolicy::new(RelayoutPolicy::DEFAULT_BUDGET_ELEMS));
    let tail = relaid.super_passes().last().unwrap();
    assert_eq!(tail.parts().len(), 7);
    assert_eq!(
        tail.parts()[0].s,
        1024,
        "the default chunk holds wide column runs"
    );
    let merged = relaid.recodelet(&RecodeletPolicy::default());
    let tail_ks: Vec<u32> = merged
        .super_passes()
        .last()
        .unwrap()
        .parts()
        .iter()
        .map(|p| p.k)
        .collect();
    assert_eq!(tail_ks, vec![3, 3, 1]);
    // The fused head (17 chained radix-2 parts over a 2^17 tile) merges
    // to the measured production shape: small-stride groups fill to
    // max_k, then the footprint (via the 8-row exemption) bounds the
    // large-stride groups.
    let head_ks: Vec<u32> = merged.super_passes()[0]
        .parts()
        .iter()
        .map(|p| p.k)
        .collect();
    assert_eq!(head_ks, vec![4, 4, 4, 3, 2]);
    // Every merged call in the whole schedule respects the bound.
    for sp in merged.super_passes() {
        for part in sp.parts() {
            assert!(
                (1usize << part.k) * part.s <= RecodeletPolicy::DEFAULT_FOOTPRINT_ELEMS
                    || (1usize << part.k) <= SMALL_MERGE_ROWS,
                "part k={} s={} escapes the footprint cap",
                part.k,
                part.s
            );
        }
    }
    // An uncapped policy merges the same tail further ([4, 3]): the cap,
    // not max_k, is what stopped the default.
    let unbounded = relaid.recodelet(&uncapped(4));
    assert_eq!(
        unbounded
            .super_passes()
            .last()
            .unwrap()
            .parts()
            .iter()
            .map(|p| p.k)
            .collect::<Vec<_>>(),
        vec![4, 3]
    );
    assert!(merged.verify().is_empty() && unbounded.verify().is_empty());
}

#[test]
fn recodelet_gates_and_idempotence() {
    let n = 14u32;
    let relaid = CompiledPlan::compile(&Plan::iterative(n).unwrap())
        .fuse(&FusionPolicy::new(1 << 6))
        .column_tail(&RelayoutPolicy::new(1 << 9));
    // Disabled policies and single-factor-only schedules are no-ops.
    assert_eq!(relaid.recodelet(&RecodeletPolicy::disabled()), relaid);
    assert_eq!(relaid.recodelet(&RecodeletPolicy::new(1)), relaid);
    let unfused = CompiledPlan::compile(&Plan::iterative(n).unwrap());
    assert_eq!(
        unfused.recodelet(&RecodeletPolicy::default()),
        unfused,
        "trivial single-factor units have nothing to merge within"
    );
    // A fused head merges even without a column tail.
    let fused_only =
        CompiledPlan::compile(&Plan::iterative(n).unwrap()).fuse(&FusionPolicy::new(1 << 6));
    let head_merged = fused_only.recodelet(&RecodeletPolicy::default());
    assert!(head_merged.has_recodeleted() && !head_merged.has_relayout());
    assert!(head_merged.super_passes()[0].provenance().recodeleted > 0);
    let input = signal(n);
    let mut want = input.clone();
    fused_only.apply(&mut want).unwrap();
    let mut got = input;
    head_merged.apply(&mut got).unwrap();
    assert_eq!(got, want);
    // The greedy merge is maximal, so re-applying changes nothing.
    let merged = relaid.recodelet(&RecodeletPolicy::default());
    assert_eq!(merged.recodelet(&RecodeletPolicy::default()), merged);
    // Merged schedules round-trip through from_super_passes.
    let rebuilt = CompiledPlan::from_super_passes(n, merged.super_passes().to_vec()).unwrap();
    assert_eq!(rebuilt.super_passes(), merged.super_passes());
    assert_eq!(rebuilt.passes(), merged.passes());
}

#[test]
fn lower_runs_the_documented_stage_order() {
    let n = 14u32;
    let plan = Plan::iterative(n).unwrap();
    let policy = ExecPolicy {
        fusion: FusionPolicy::new(1 << 6),
        relayout: RelayoutPolicy::new(1 << 9),
        recodelet: RecodeletPolicy::default(),
        simd: SimdPolicy::auto(),
        batch: BatchPolicy::default(),
        stream: StreamPolicy::disabled(),
    };
    let lowered = CompiledPlan::compile(&plan).lower(&policy);
    let by_hand = CompiledPlan::compile(&plan)
        .fuse(&policy.fusion)
        .column_tail(&policy.relayout)
        .recodelet(&policy.recodelet)
        .with_simd(&policy.simd)
        .with_batch(&policy.batch);
    assert_eq!(lowered, by_hand);
    assert!(lowered.is_fused() && lowered.has_relayout());
    assert!(lowered.has_recodeleted() && lowered.is_simd());
    assert!(lowered.is_batched());
    // All stages disabled: the pipeline is the identity on the compiled
    // schedule (the pure scalar unfused baseline).
    let baseline = CompiledPlan::compile(&plan).lower(&ExecPolicy::all_disabled());
    assert_eq!(baseline, CompiledPlan::compile(&plan));
    // Output bits are stage-invariant.
    let input = signal(n);
    let mut want = input.clone();
    apply_plan_recursive(&plan, &mut want).unwrap();
    let mut got = input;
    lowered.apply(&mut got).unwrap();
    assert_eq!(got, want);
}

#[test]
fn exec_policy_cache_keys_cover_every_stage() {
    let base = ExecPolicy::default();
    assert_eq!(base.cache_key(), ExecPolicy::default().cache_key());
    for changed in [
        base.with_fusion(FusionPolicy::new(1 << 4)),
        base.with_relayout(RelayoutPolicy::new(1 << 4)),
        base.with_recodelet(RecodeletPolicy::new(3)),
        base.with_simd(SimdPolicy::disabled()),
        base.with_batch(BatchPolicy::new(64)),
    ] {
        assert_ne!(changed.cache_key(), base.cache_key(), "{changed:?}");
    }
    // All disabled variants of one stage share a key.
    assert_eq!(
        base.with_recodelet(RecodeletPolicy::disabled()).cache_key(),
        base.with_recodelet(RecodeletPolicy::new(1)).cache_key()
    );
    assert_eq!(
        base.with_batch(BatchPolicy::disabled()).cache_key(),
        base.with_batch(BatchPolicy { block_rows: 0 }).cache_key()
    );
    assert_eq!(
        ExecPolicy::all_disabled().cache_key(),
        ExecPolicy::all_disabled()
            .with_fusion(FusionPolicy::new(0))
            .cache_key()
    );
}

#[test]
fn column_tail_traverse_replays_the_chunk_order() {
    #[derive(Default)]
    struct Watch {
        column_units: usize,
        in_tail: bool,
        tail_calls: Vec<(u32, usize, usize)>,
    }
    impl ExecHooks for Watch {
        fn super_pass(&mut self, sp: &SuperPass) {
            self.in_tail = sp.is_column_tail();
            self.column_units += usize::from(self.in_tail);
        }
        fn leaf_call(&mut self, k: u32, base: usize, stride: usize) {
            if self.in_tail {
                self.tail_calls.push((k, base, stride));
            }
        }
    }
    // iterative(12) fused at 2^7: a 5-factor tail in chunks of 32 rows
    // × 16 columns, 8 chunks per period.
    let n = 12u32;
    let fused =
        CompiledPlan::compile(&Plan::iterative(n).unwrap()).fuse(&FusionPolicy::new(1 << 7));
    let tailed = fused.column_tail(&RelayoutPolicy::new(1 << 9));
    let g = tailed.super_passes().last().unwrap().columns().unwrap();
    assert_eq!((g.period, g.cols), (1 << 7, 16));
    let mut w = Watch::default();
    tailed.traverse(&mut w);
    assert_eq!(w.column_units, 1);
    // Chunk-major, in place: every leaf call's column lies in its chunk,
    // and the chunks come in order.
    let chunks: Vec<usize> = w
        .tail_calls
        .iter()
        .map(|&(_, base, _)| base % g.period / g.cols)
        .collect();
    assert!(chunks.windows(2).all(|c| c[0] <= c[1]));
    assert_eq!(chunks.last(), Some(&(g.period / g.cols - 1)));
    assert!(w
        .tail_calls
        .iter()
        .all(|&(_, base, _)| base < tailed.size()));
    // The same calls as the pass-major tail, in another order.
    let mut pass_major: Vec<(u32, usize, usize)> = fused.passes()[7..]
        .iter()
        .flat_map(|p| {
            (0..p.invocations()).map(move |q| (p.k, p.invocation_base(q), p.codelet_stride()))
        })
        .collect();
    pass_major.sort_unstable();
    w.tail_calls.sort_unstable();
    assert_eq!(w.tail_calls, pass_major);
}

#[test]
fn length_mismatch_rejected() {
    let compiled = CompiledPlan::compile(&Plan::iterative(4).unwrap());
    let mut x = vec![0.0f64; 15];
    assert_eq!(
        compiled.apply(&mut x),
        Err(WhtError::LengthMismatch {
            expected: 16,
            got: 15
        })
    );
}

#[test]
fn traverse_visits_same_leaf_multiset_as_interpreter() {
    let plan = Plan::balanced(9, 3).unwrap();
    let mut interp: Vec<(u32, usize, usize)> = Vec::new();
    for_each_leaf_call(&plan, |k, b, s| interp.push((k, b, s)));
    struct Collect<'a>(&'a mut Vec<(u32, usize, usize)>);
    impl ExecHooks for Collect<'_> {
        fn leaf_call(&mut self, k: u32, base: usize, stride: usize) {
            self.0.push((k, base, stride));
        }
    }
    // The invocation multiset is invariant under compilation AND any
    // fusion policy — only the order changes.
    for policy in [
        FusionPolicy::disabled(),
        FusionPolicy::new(64),
        FusionPolicy::unbounded(),
    ] {
        let compiled = CompiledPlan::compile(&plan).fuse(&policy);
        let mut flat: Vec<(u32, usize, usize)> = Vec::new();
        compiled.traverse(&mut Collect(&mut flat));
        assert_eq!(flat.len(), interp.len());
        let mut interp_sorted = interp.clone();
        interp_sorted.sort_unstable();
        flat.sort_unstable();
        assert_eq!(
            flat, interp_sorted,
            "same invocation multiset, different order"
        );
    }
}

#[test]
fn traverse_reports_super_pass_structure() {
    #[derive(Default)]
    struct Count {
        super_passes: Vec<(usize, usize, usize)>,
        fused_units: usize,
        child_loops: usize,
    }
    impl ExecHooks for Count {
        fn super_pass(&mut self, sp: &SuperPass) {
            self.super_passes
                .push((sp.parts().len(), sp.tiles(), sp.tile_elems()));
            self.fused_units += usize::from(sp.provenance().fused);
        }
        fn child_loops(&mut self, _c: u32, _r: usize, _s: usize) {
            self.child_loops += 1;
        }
    }
    let compiled = CompiledPlan::compile(&Plan::iterative(8).unwrap());
    let fused = compiled.fuse(&FusionPolicy::new(1 << 4));
    let mut c = Count::default();
    fused.traverse(&mut c);
    // 4 factors fused over 16 tiles + 4 single passes.
    assert_eq!(c.super_passes.len(), 5);
    assert_eq!(c.super_passes[0], (4, 16, 16));
    assert_eq!(c.fused_units, 1, "provenance travels through the hook");
    // child_loops fires once per part per tile: 4 * 16 + 4.
    assert_eq!(c.child_loops, 4 * 16 + 4);
}

#[test]
fn cached_compile_returns_identical_schedule() {
    let plan = Plan::balanced(10, 4).unwrap();
    let a = compiled_for(&plan);
    let b = compiled_for(&plan);
    assert!(Rc::ptr_eq(&a, &b), "second lookup must hit the cache");
    // The default entry point lowers under the default policy; at this
    // LLC-resident size no stage rewrites factors, so the factor list is
    // policy-invariant.
    assert_eq!(a.passes(), CompiledPlan::compile(&plan).passes());
    // Distinct policies are distinct cache entries.
    let simd = SimdPolicy::default();
    let unfused = compiled_for_exec(&plan, &ExecPolicy::all_disabled().with_simd(simd));
    assert_eq!(*unfused, CompiledPlan::compile(&plan).with_simd(&simd));
    let fused = compiled_for_exec(
        &plan,
        &ExecPolicy::all_disabled()
            .with_fusion(FusionPolicy::new(1 << 8))
            .with_simd(simd),
    );
    assert_eq!(
        *fused,
        CompiledPlan::compile(&plan)
            .fuse(&FusionPolicy::new(1 << 8))
            .with_simd(&simd)
    );
    // The kernel backend is part of the cache key too.
    let scalar = compiled_for_exec(
        &plan,
        &ExecPolicy::all_disabled()
            .with_fusion(FusionPolicy::new(1 << 8))
            .with_simd(SimdPolicy::disabled()),
    );
    assert!(!scalar.is_simd());
    let lanes = compiled_for_exec(
        &plan,
        &ExecPolicy::all_disabled()
            .with_fusion(FusionPolicy::new(1 << 8))
            .with_simd(SimdPolicy::auto()),
    );
    assert!(lanes.is_simd());
    assert_eq!(scalar.passes(), lanes.passes());
    // An explicit ExecPolicy pin is served and cached like any other
    // configuration.
    let exec = ExecPolicy {
        fusion: FusionPolicy::new(1 << 6),
        relayout: RelayoutPolicy::new(1 << 8),
        recodelet: RecodeletPolicy::default(),
        simd: SimdPolicy::auto(),
        batch: BatchPolicy::default(),
        stream: StreamPolicy::disabled(),
    };
    let pinned = compiled_for_exec(&plan, &exec);
    assert_eq!(*pinned, CompiledPlan::compile_exec(&plan, &exec));
    assert!(Rc::ptr_eq(&pinned, &compiled_for_exec(&plan, &exec)));
    // Flood the cache past capacity; the entry may be evicted but
    // lookups must stay correct.
    for n in 1..=8u32 {
        for k in 1..=8u32 {
            let p = Plan::binary_iterative(n + 8, k).unwrap();
            assert_eq!(compiled_for(&p).n(), n + 8);
        }
    }
    assert_eq!(*compiled_for(&plan), *a);
}

#[test]
fn invocation_indexing_is_consistent_with_apply() {
    let plan = Plan::split(vec![Plan::leaf(2).unwrap(), Plan::leaf(3).unwrap()]).unwrap();
    let compiled = CompiledPlan::compile(&plan);
    let input = signal(5);
    let mut whole = input.clone();
    compiled.apply(&mut whole).unwrap();
    // Re-run pass by pass through the public invocation API.
    let mut pieces = input;
    for pass in compiled.passes() {
        for q in 0..pass.invocations() {
            // SAFETY: q ranges over the pass grid and the buffer has
            // the full transform size.
            unsafe { pass.apply_invocation(&mut pieces, q) };
        }
    }
    assert_eq!(pieces, whole);
}

#[test]
fn tile_pass_restriction_is_consistent_with_apply() {
    // Drive a fused schedule tile by tile through the public
    // `tile_pass` API and compare against the built-in executor.
    let plan = Plan::iterative(9).unwrap();
    let fused = CompiledPlan::compile(&plan).fuse(&FusionPolicy::new(1 << 4));
    assert!(fused.is_fused());
    let input = signal(9);
    let mut whole = input.clone();
    fused.apply(&mut whole).unwrap();
    let mut pieces = input;
    for sp in fused.super_passes() {
        for j in 0..sp.tiles() {
            for p in 0..sp.parts().len() {
                let pass = sp.tile_pass(p, j);
                for q in 0..pass.invocations() {
                    // SAFETY: q ranges over the restricted grid; the
                    // schedule is valid by construction.
                    unsafe { pass.apply_invocation(&mut pieces, q) };
                }
            }
        }
    }
    assert_eq!(pieces, whole);
}

#[test]
fn from_super_passes_round_trips_valid_schedules() {
    let plan = Plan::balanced(10, 3).unwrap();
    let fused = CompiledPlan::compile(&plan).fuse(&FusionPolicy::new(1 << 5));
    let rebuilt = CompiledPlan::from_super_passes(10, fused.super_passes().to_vec()).unwrap();
    assert_eq!(rebuilt.super_passes(), fused.super_passes());
    assert_eq!(rebuilt.passes(), fused.passes());
    let mut a = signal(10);
    let mut b = a.clone();
    fused.apply(&mut a).unwrap();
    rebuilt.apply(&mut b).unwrap();
    assert_eq!(a, b);
}

#[test]
fn budget_sweeps_stay_correct_across_cache_eviction() {
    // A budget sweep over one plan walks the per-(plan, budget) cache
    // past its bound; every lookup must stay correct through the
    // eviction the sweep triggers.
    let plan = Plan::iterative(10).unwrap();
    let reference = CompiledPlan::compile(&plan);
    for b in 0..CACHE_CAP + 8 {
        let c = compiled_for_exec(
            &plan,
            &ExecPolicy::all_disabled()
                .with_fusion(FusionPolicy::new(b + 2))
                .with_simd(SimdPolicy::default()),
        );
        assert_eq!(c.passes(), reference.passes(), "budget {}", b + 2);
    }
}

#[test]
fn env_policy_constructors() {
    assert!(!FusionPolicy::disabled().enabled());
    assert!(!FusionPolicy::new(1).enabled());
    assert!(FusionPolicy::new(2).enabled());
    assert!(FusionPolicy::unbounded().enabled());
    assert_eq!(
        FusionPolicy::default().budget_elems,
        FusionPolicy::DEFAULT_BUDGET_ELEMS
    );
    assert_eq!(
        FusionPolicy::disabled().cache_key(),
        FusionPolicy::new(1).cache_key()
    );
    assert!(!RecodeletPolicy::disabled().enabled());
    assert!(!RecodeletPolicy::new(1).enabled());
    assert!(RecodeletPolicy::new(2).enabled());
    assert_eq!(
        RecodeletPolicy::default().max_k,
        RecodeletPolicy::DEFAULT_MAX_K
    );
    assert_eq!(
        RecodeletPolicy::default().footprint_elems,
        RecodeletPolicy::DEFAULT_FOOTPRINT_ELEMS
    );
    assert_eq!(RecodeletPolicy::new(99).max_k, crate::plan::MAX_LEAF_K);
    assert_eq!(
        RecodeletPolicy::disabled().cache_key(),
        RecodeletPolicy::new(0).cache_key()
    );
    assert!(!BatchPolicy::disabled().enabled());
    assert!(BatchPolicy::new(1).enabled());
    assert_eq!(
        BatchPolicy::default().block_rows,
        BatchPolicy::DEFAULT_BLOCK_ROWS
    );
    assert_eq!(
        BatchPolicy::disabled().cache_key(),
        BatchPolicy { block_rows: 0 }.cache_key()
    );
}

#[test]
fn batch_stage_splits_at_the_lane_width_frontier() {
    // iterative(10): radix-2 passes at s = 1, 2, ..., 512. The cross
    // prefix is every pass narrower than the widest lane block (16); the
    // tail is everything already full width within one transform.
    let compiled = CompiledPlan::compile(&Plan::iterative(10).unwrap());
    let batched = compiled.with_batch(&BatchPolicy::new(8));
    assert!(batched.is_batched());
    let b = batched.batch_schedule().unwrap();
    assert_eq!(b.block_rows(), 8);
    assert_eq!(b.backend(), PassBackend::Scalar);
    assert_eq!(b.cross().len(), 4, "s = 1, 2, 4, 8 run cross-transform");
    assert!(b.cross().iter().all(|p| p.s < 16));
    assert!(b.tail().iter().all(|p| p.s >= 16));
    // The split partitions the flat factor list in order.
    let mut joined = b.cross().to_vec();
    joined.extend_from_slice(b.tail());
    assert_eq!(joined.as_slice(), batched.passes());
    // The single-transform schedule is untouched: the product is additive.
    assert_eq!(batched.super_passes(), compiled.super_passes());
    assert_eq!(batched.passes(), compiled.passes());
    // The stage runs after backend selection and inherits its choice.
    let lanes = compiled
        .with_simd(&SimdPolicy::auto())
        .with_batch(&BatchPolicy::new(8));
    assert_eq!(
        lanes.batch_schedule().unwrap().backend(),
        PassBackend::Lanes
    );
    // A pre-batch stage that rewrites the schedule resets the product it
    // would invalidate; a no-op stage (nothing to merge in these
    // single-part units) preserves it.
    assert!(!batched.fuse(&FusionPolicy::new(1 << 6)).is_batched());
    assert!(batched.recodelet(&RecodeletPolicy::default()).is_batched());
    assert!(!batched
        .fuse(&FusionPolicy::new(1 << 4))
        .recodelet(&RecodeletPolicy::default())
        .is_batched());
}

#[test]
fn batch_stage_declines_when_it_cannot_help() {
    // A disabled policy builds no product.
    let compiled = CompiledPlan::compile(&Plan::iterative(10).unwrap());
    assert!(!compiled.with_batch(&BatchPolicy::disabled()).is_batched());
    // Past the size cap (2^19 > BATCH_MAX_ELEMS = 2^18) the batched-small
    // premise is gone: no product, apply_batch replays per row.
    let big = CompiledPlan::compile(&Plan::iterative(19).unwrap());
    assert!(!big.with_batch(&BatchPolicy::default()).is_batched());
    // A hand-built schedule whose every pass is already full lane width
    // has nothing to run cross-transform. (`verify` proves bounds,
    // disjointness, coverage and Σk = n, not that the strides chain into
    // a WHT, so five stride-16 passes at n = 5 pass the gate.)
    let wide = Pass {
        k: 1,
        r: 1,
        s: 16,
        base: 0,
        stride: 1,
    };
    let all_wide =
        CompiledPlan::from_super_passes(5, vec![SuperPass::new(vec![wide; 5], 32, 1, 0, 1)])
            .unwrap();
    assert!(!all_wide.with_batch(&BatchPolicy::default()).is_batched());
    // A hand-built schedule with decreasing inner extents is not in
    // canonical chained form: the narrow passes are no prefix, so the
    // split declines rather than build a wrong program.
    let decreasing = CompiledPlan::from_super_passes(
        2,
        vec![
            SuperPass::new(
                vec![Pass {
                    k: 1,
                    r: 1,
                    s: 2,
                    base: 0,
                    stride: 1,
                }],
                4,
                1,
                0,
                1,
            ),
            SuperPass::new(
                vec![Pass {
                    k: 1,
                    r: 2,
                    s: 1,
                    base: 0,
                    stride: 1,
                }],
                4,
                1,
                0,
                1,
            ),
        ],
    )
    .unwrap();
    assert!(!decreasing.with_batch(&BatchPolicy::default()).is_batched());
}

#[test]
fn apply_batch_is_bit_identical_to_per_row_apply() {
    // The core batched-execution contract, over every scalar type: for a
    // lowered schedule with a batch product, apply_batch equals a per-row
    // apply bit for bit — engaged lane groups, the sub-group remainder,
    // and disengaged small batches alike.
    fn check<T: Scalar>(compiled: &CompiledPlan, rows: usize, seed: u64) {
        let size = compiled.size();
        let input: Vec<T> = crate::testkit::random_signal(rows * size, seed);
        let mut per_row = input.clone();
        for row in per_row.chunks_exact_mut(size) {
            compiled.apply(row).unwrap();
        }
        let mut batched = input;
        compiled.apply_batch(&mut batched, rows).unwrap();
        assert_eq!(batched, per_row, "rows {rows}");
    }
    for n in [3u32, 7, 10] {
        for plan in test_plans(n) {
            let lowered = CompiledPlan::compile(&plan).lower(&ExecPolicy {
                batch: BatchPolicy::new(1),
                ..ExecPolicy::default()
            });
            assert!(lowered.is_batched(), "plan {plan}");
            // Rows straddling every engagement regime: batch-of-one,
            // below the widest lane group, exactly one f64 group, one
            // f32 group plus remainder, several groups plus remainder.
            for rows in [1usize, 3, 8, 17, 33, 64] {
                check::<f64>(&lowered, rows, 0x5eed ^ u64::from(n));
                check::<f32>(&lowered, rows, 0x5eed ^ u64::from(n));
                check::<i64>(&lowered, rows, 0x5eed ^ u64::from(n));
                check::<i32>(&lowered, rows, 0x5eed ^ u64::from(n));
            }
        }
    }
}

#[test]
fn apply_batch_checks_geometry_and_handles_the_empty_batch() {
    let compiled =
        CompiledPlan::compile(&Plan::iterative(4).unwrap()).with_batch(&BatchPolicy::default());
    let mut x = vec![1.0f64; 3 * 16];
    assert_eq!(
        compiled.apply_batch(&mut x, 2),
        Err(WhtError::LengthMismatch {
            expected: 32,
            got: 48
        })
    );
    // rows = 0 with an empty buffer is a fine (empty) batch.
    let mut empty: Vec<f64> = Vec::new();
    assert!(compiled.apply_batch(&mut empty, 0).is_ok());
    // A non-empty buffer with rows = 0 is a length mismatch, not a hang.
    assert!(compiled.apply_batch(&mut x, 0).is_err());
    // rows * size overflow must come back as a typed error.
    assert!(compiled.apply_batch(&mut x, usize::MAX / 2).is_err());
}

#[test]
fn apply_batch_scratch_warms_once_and_is_reused() {
    // The warm path allocates nothing: one scratch grow on first use,
    // then stable capacity across batches (the counting-allocator proof
    // lives in tests/noalloc.rs; this pins the sizing contract).
    let compiled = CompiledPlan::compile(&Plan::iterative(8).unwrap()).lower(&ExecPolicy {
        batch: BatchPolicy::new(1),
        ..ExecPolicy::default()
    });
    let size = compiled.size();
    let rows = 3 * <f64 as Scalar>::LANES + 5;
    let mut x: Vec<f64> = crate::testkit::random_signal(rows * size, 9);
    let mut scratch: Vec<f64> = Vec::new();
    compiled
        .apply_batch_with_scratch(&mut x, rows, &mut scratch)
        .unwrap();
    let warm = scratch.len();
    assert_eq!(
        warm,
        compiled.batch_scratch_elems(<f64 as Scalar>::LANES),
        "scratch is exactly one transposed cross tile"
    );
    assert!(
        warm >= <f64 as Scalar>::LANES,
        "scratch must hold at least one transposed column"
    );
    assert!(
        warm <= <f64 as Scalar>::LANES * size,
        "the cross tile never exceeds one transposed lane group"
    );
    compiled
        .apply_batch_with_scratch(&mut x, rows, &mut scratch)
        .unwrap();
    assert_eq!(scratch.len(), warm, "second batch must not regrow scratch");
}
