//! Fuzz + mutation harness for the static schedule verifier
//! (`wht_core::verify`).
//!
//! Two directions, both required for the verifier to mean anything:
//!
//! - **Soundness of the pipeline** (fuzz): thousands of random plans ×
//!   [`ExecPolicy`] points — every lowering stage engaged somewhere in
//!   the corpus — must verify clean, for the super-pass schedule, the
//!   flat view, and the batched product alike.
//! - **Sensitivity of the verifier** (mutation): deliberately corrupted
//!   schedules (stride, offset, exponent, grid, column geometry, level
//!   order) must each be *rejected* with a diagnostic
//!   naming the violated invariant — no silent acceptance. Corruptions
//!   are injected through `SuperPass::new`/`new_columns` (unchecked
//!   carriers by design) and the slice-based `verify_*` entry points,
//!   since `CompiledPlan::from_super_passes` refuses to carry an invalid
//!   schedule at all.

use proptest::prelude::*;
use wht_core::testkit::{decode_plan, random_plan, random_signal, reference_wht};
use wht_core::verify::{
    verify_flat_passes, verify_schedule, VerifyDiagnostic, VerifyInvariant, VerifySite,
};
use wht_core::{
    compiled_for_exec, BatchPolicy, ColumnTail, CompiledPlan, ExecPolicy, FusionPolicy, Pass,
    Provenance, RecodeletPolicy, RelayoutPolicy, Scalar, SimdPolicy, StreamPolicy, SuperPass,
    WhtError, MAX_N,
};

/// SplitMix64 — the same deterministic generator `testkit` seeds plans
/// with, reused here to derive policy points.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// A random point in executor-policy space, exercising every stage's
/// enabled and disabled settings (plus eager/unbounded extremes).
fn random_policy(rng: &mut Rng) -> ExecPolicy {
    let fusion = match rng.below(4) {
        0 => FusionPolicy::disabled(),
        1 => FusionPolicy::unbounded(),
        _ => FusionPolicy::new(1usize << (4 + rng.below(14))),
    };
    let relayout = match rng.below(3) {
        0 => RelayoutPolicy::disabled(),
        // `eager` drops the size floor so small fuzzed transforms
        // actually engage the stage.
        _ => RelayoutPolicy::new(1usize << (6 + rng.below(10))),
    };
    let recodelet = match rng.below(3) {
        0 => RecodeletPolicy::disabled(),
        _ => RecodeletPolicy::new(2 + u32::try_from(rng.below(7)).unwrap()),
    };
    let simd = if rng.below(2) == 0 {
        SimdPolicy::disabled()
    } else {
        SimdPolicy::auto()
    };
    let batch = match rng.below(3) {
        0 => BatchPolicy::disabled(),
        _ => BatchPolicy::new(1 + usize::try_from(rng.below(32)).unwrap()),
    };
    ExecPolicy {
        fusion,
        relayout,
        recodelet,
        simd,
        batch,
        stream: match rng.below(3) {
            0 => StreamPolicy::disabled(),
            1 => StreamPolicy::eager(),
            _ => StreamPolicy::default(),
        },
    }
}

/// ≥1000 random plan × `ExecPolicy` points, all lowering stages engaged
/// across the corpus, every lowered schedule proven clean by the
/// verifier (acceptance criterion of the verifier issue).
#[test]
fn fuzzed_lowered_schedules_all_verify_clean() {
    let mut rng = Rng(0xC0FFEE);
    let (mut fused, mut relayouted, mut recodeleted, mut simd, mut batched) = (0, 0, 0, 0, 0);
    for case in 0..1200u64 {
        let n = 1 + u32::try_from(rng.below(16)).unwrap();
        let plan = random_plan(n, rng.next());
        let policy = random_policy(&mut rng);
        let compiled = CompiledPlan::compile_exec(&plan, &policy);
        let diags = compiled.verify();
        assert!(
            diags.is_empty(),
            "case {case}: plan {plan} under {policy:?} failed verification:\n{}",
            diags
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        fused += usize::from(compiled.is_fused());
        relayouted += usize::from(compiled.has_relayout());
        recodeleted += usize::from(compiled.has_recodeleted());
        simd += usize::from(compiled.is_simd());
        batched += usize::from(compiled.is_batched());
    }
    // The corpus must actually exercise every stage, or "all clean" says
    // nothing about the rewrites.
    assert!(fused > 0, "no fuzz case engaged fusion");
    assert!(relayouted > 0, "no fuzz case engaged relayout");
    assert!(recodeleted > 0, "no fuzz case engaged re-codeleting");
    assert!(simd > 0, "no fuzz case selected the lane backend");
    assert!(batched > 0, "no fuzz case built a batch product");
}

/// The verified schedules execute correctly for all four scalar types:
/// static proof and dynamic ground truth agree (single-transform and
/// batched paths both).
#[test]
fn verified_schedules_match_reference_for_all_scalar_types() {
    fn check<T: Scalar + std::fmt::Debug + PartialEq>(compiled: &CompiledPlan, seed: u64) {
        let size = compiled.size();
        let x: Vec<T> = random_signal(size, seed);
        let want = reference_wht(&x);
        let mut got = x.clone();
        compiled.apply(&mut got).unwrap();
        assert_eq!(got, want, "single-transform replay diverged");
        // A batch tall enough to engage the cross path at every width.
        let rows = 2 * T::LANES + 3;
        let mut batch: Vec<T> = (0..rows)
            .flat_map(|r| random_signal(size, seed ^ r as u64))
            .collect();
        compiled.apply_batch(&mut batch, rows).unwrap();
        for (r, row) in batch.chunks_exact(size).enumerate() {
            let want = reference_wht(&random_signal::<T>(size, seed ^ r as u64));
            assert_eq!(row, &want[..], "batched row {r} diverged");
        }
    }
    let mut rng = Rng(0xBADC0DE);
    for case in 0..24u64 {
        let n = 2 + u32::try_from(rng.below(8)).unwrap();
        let plan = random_plan(n, rng.next());
        let policy = random_policy(&mut rng);
        let compiled = CompiledPlan::compile_exec(&plan, &policy);
        assert!(compiled.verify().is_empty(), "case {case} must verify");
        let seed = rng.next();
        check::<f64>(&compiled, seed);
        check::<f32>(&compiled, seed);
        check::<i64>(&compiled, seed);
        check::<i32>(&compiled, seed);
    }
}

fn arb_plan(max_n: u32) -> impl Strategy<Value = wht_core::Plan> {
    (1..=max_n, proptest::collection::vec(any::<u8>(), 64)).prop_map(|(n, bytes)| {
        let mut it = bytes.into_iter().cycle();
        decode_plan(n, &mut it)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every schedule the production cache can compile — the exact entry
    /// point `apply_plan` traffic flows through — proves clean.
    #[test]
    fn production_cache_schedules_verify_clean(
        plan in arb_plan(12),
        seed in any::<u64>(),
    ) {
        let mut rng = Rng(seed);
        let policy = random_policy(&mut rng);
        let compiled = compiled_for_exec(&plan, &policy);
        let diags = compiled.verify();
        prop_assert!(
            diags.is_empty(),
            "plan {} under {:?}: {:?}",
            plan,
            policy,
            diags
        );
    }
}

// ---------------------------------------------------------------------
// Mutation tests: every corruption must be rejected with a diagnostic
// naming the violated invariant.
// ---------------------------------------------------------------------

/// Assert the verifier rejected the corruption *and* categorized it.
fn assert_rejects(diags: &[VerifyDiagnostic], want: VerifyInvariant, ctx: &str) {
    assert!(!diags.is_empty(), "{ctx}: corruption silently accepted");
    assert!(
        diags.iter().any(|d| d.invariant == want),
        "{ctx}: expected a {want} diagnostic, got {diags:?}"
    );
}

/// A diagnostic names every stage that shaped the offending unit.
#[test]
fn diagnostic_display_names_every_provenance_stage() {
    let diag = VerifyDiagnostic {
        site: VerifySite::Unit {
            unit: 3,
            part: None,
        },
        provenance: Some(Provenance {
            fused: true,
            relayouted: true,
            recodeleted: 2,
        }),
        invariant: VerifyInvariant::Bounds,
        message: "index 70 past the end of a 64-element vector".to_string(),
    };
    let shown = diag.to_string();
    assert!(
        shown.ends_with("(provenance: fused=true relayouted=true recodeleted=2)"),
        "{shown}"
    );
}

/// A valid unfused radix-2 schedule for `n = 4` (each unit one
/// whole-vector factor), to mutate from.
fn valid_units() -> (u32, Vec<SuperPass>) {
    let n = 4u32;
    let size = 1usize << n;
    let units = (0..n)
        .map(|i| {
            let s = 1usize << i;
            let pass = Pass {
                k: 1,
                r: size / (2 * s),
                s,
                base: 0,
                stride: 1,
            };
            SuperPass::new(vec![pass], size, 1, 0, 1)
        })
        .collect();
    (n, units)
}

#[test]
fn valid_baseline_schedules_verify_clean() {
    let (n, units) = valid_units();
    assert_eq!(verify_schedule(n, &units), vec![]);
}

#[test]
fn mutated_part_stride_is_rejected_as_bounds() {
    let (n, mut units) = valid_units();
    let part = units[1].parts()[0];
    units[1] = SuperPass::new(vec![Pass { stride: 2, ..part }], 16, 1, 0, 1);
    assert_rejects(
        &verify_schedule(n, &units),
        VerifyInvariant::Bounds,
        "part stride 1 -> 2",
    );
}

#[test]
fn mutated_part_offset_is_rejected_as_bounds() {
    let (n, mut units) = valid_units();
    let part = units[2].parts()[0];
    units[2] = SuperPass::new(vec![Pass { base: 1, ..part }], 16, 1, 0, 1);
    assert_rejects(
        &verify_schedule(n, &units),
        VerifyInvariant::Bounds,
        "part base 0 -> 1",
    );
}

#[test]
fn mutated_codelet_exponent_is_rejected() {
    let (n, mut units) = valid_units();
    let part = units[0].parts()[0];
    // k+1 doubles the span: the part escapes its tile.
    units[0] = SuperPass::new(vec![Pass { k: 2, ..part }], 16, 1, 0, 1);
    assert_rejects(
        &verify_schedule(n, &units),
        VerifyInvariant::Bounds,
        "part k 1 -> 2",
    );
    // k outside the unrolled codelet family is malformed outright.
    let (n, mut units) = valid_units();
    let part = units[0].parts()[0];
    units[0] = SuperPass::new(vec![Pass { k: 0, ..part }], 16, 1, 0, 1);
    assert_rejects(
        &verify_schedule(n, &units),
        VerifyInvariant::Structure,
        "part k 1 -> 0",
    );
    let (n, mut units) = valid_units();
    let part = units[0].parts()[0];
    units[0] = SuperPass::new(vec![Pass { k: 9, ..part }], 16, 1, 0, 1);
    assert_rejects(
        &verify_schedule(n, &units),
        VerifyInvariant::Structure,
        "part k 1 -> 9",
    );
}

#[test]
fn shrunken_grid_is_rejected_as_coverage() {
    let (n, mut units) = valid_units();
    let part = units[0].parts()[0]; // (k=1, r=8, s=1)
    units[0] = SuperPass::new(
        vec![Pass {
            r: part.r / 2,
            ..part
        }],
        16,
        1,
        0,
        1,
    );
    assert_rejects(
        &verify_schedule(n, &units),
        VerifyInvariant::Coverage,
        "part r 8 -> 4",
    );
}

#[test]
fn overflowing_extents_are_rejected_as_overflow() {
    let (n, mut units) = valid_units();
    let part = units[0].parts()[0];
    units[0] = SuperPass::new(
        vec![Pass {
            stride: usize::MAX / 2,
            ..part
        }],
        16,
        1,
        0,
        1,
    );
    assert_rejects(
        &verify_schedule(n, &units),
        VerifyInvariant::Overflow,
        "part stride -> usize::MAX/2",
    );
    let (_, mut units) = valid_units();
    let part = units[0].parts()[0];
    units[0] = SuperPass::new(
        vec![Pass {
            r: usize::MAX,
            ..part
        }],
        16,
        1,
        0,
        1,
    );
    assert_rejects(
        &verify_schedule(n, &units),
        VerifyInvariant::Overflow,
        "part r -> usize::MAX",
    );
}

#[test]
fn corrupted_tile_grid_is_rejected_as_coverage() {
    let (n, mut units) = valid_units();
    let part = units[0].parts()[0];
    // Two 16-element tiles span 32 of a 16-element vector.
    units[0] = SuperPass::new(vec![part], 16, 2, 0, 1);
    assert_rejects(
        &verify_schedule(n, &units),
        VerifyInvariant::Coverage,
        "tiles 1 -> 2",
    );
}

#[test]
fn non_canonical_unit_frame_is_rejected_as_structure() {
    let (n, mut units) = valid_units();
    let part = units[0].parts()[0];
    units[0] = SuperPass::new(vec![part], 16, 1, 1, 1);
    assert_rejects(
        &verify_schedule(n, &units),
        VerifyInvariant::Structure,
        "unit base 0 -> 1",
    );
    let (_, mut units) = valid_units();
    let part = units[0].parts()[0];
    units[0] = SuperPass::new(vec![part], 16, 1, 0, 2);
    assert_rejects(
        &verify_schedule(n, &units),
        VerifyInvariant::Structure,
        "unit stride 1 -> 2",
    );
}

#[test]
fn fused_tile_escape_is_rejected_as_bounds() {
    // A valid fused unit: 4 tiles of 4 elements, two radix-2 parts per
    // tile — then double one part's inner extent so it escapes the tile.
    let n = 4u32;
    let good = vec![
        SuperPass::new(
            vec![
                Pass {
                    k: 1,
                    r: 2,
                    s: 1,
                    base: 0,
                    stride: 1,
                },
                Pass {
                    k: 1,
                    r: 1,
                    s: 2,
                    base: 0,
                    stride: 1,
                },
            ],
            4,
            4,
            0,
            1,
        ),
        SuperPass::new(
            vec![
                Pass {
                    k: 1,
                    r: 2,
                    s: 4,
                    base: 0,
                    stride: 1,
                },
                Pass {
                    k: 1,
                    r: 1,
                    s: 8,
                    base: 0,
                    stride: 1,
                },
            ],
            16,
            1,
            0,
            1,
        ),
    ];
    assert_eq!(verify_schedule(n, &good), vec![]);
    let mut bad = good;
    bad[0] = SuperPass::new(
        vec![
            Pass {
                k: 1,
                r: 2,
                s: 1,
                base: 0,
                stride: 1,
            },
            Pass {
                k: 1,
                r: 1,
                s: 4,
                base: 0,
                stride: 1,
            },
        ],
        4,
        4,
        0,
        1,
    );
    assert_rejects(
        &verify_schedule(n, &bad),
        VerifyInvariant::Bounds,
        "fused part s 2 -> 4",
    );
}

/// A valid column-tail schedule for `n = 6`: three head factors
/// in-place, three tail factors over the vector viewed as an 8×8 matrix,
/// replayed 2 columns (a 16-element chunk) at a time.
fn valid_relayout_units() -> (u32, Vec<SuperPass>, ColumnTail) {
    let n = 6u32;
    let rl = ColumnTail { period: 8, cols: 2 };
    let mut units: Vec<SuperPass> = (0..3)
        .map(|i| {
            let s = 1usize << i;
            SuperPass::new(
                vec![Pass {
                    k: 1,
                    r: 64 / (2 * s),
                    s,
                    base: 0,
                    stride: 1,
                }],
                64,
                1,
                0,
                1,
            )
        })
        .collect();
    // Chunk-coordinate tail parts over a 16-element chunk: inner
    // extents are whole chunk columns (multiples of cols = 2).
    units.push(SuperPass::new_columns(
        n,
        vec![
            Pass {
                k: 1,
                r: 4,
                s: 2,
                base: 0,
                stride: 1,
            },
            Pass {
                k: 1,
                r: 2,
                s: 4,
                base: 0,
                stride: 1,
            },
            Pass {
                k: 1,
                r: 1,
                s: 8,
                base: 0,
                stride: 1,
            },
        ],
        rl,
    ));
    (n, units, rl)
}

#[test]
fn valid_relayout_baseline_verifies_clean() {
    let (n, units, _) = valid_relayout_units();
    assert_eq!(verify_schedule(n, &units), vec![]);
}

#[test]
fn overlapping_relayout_blocks_are_rejected_as_disjointness() {
    let (n, mut units, rl) = valid_relayout_units();
    let parts = units[3].parts().to_vec();
    // cols = 3 does not divide the 8-column period: chunks overlap or
    // overrun.
    units[3] = SuperPass::new_columns(n, parts, ColumnTail { cols: 3, ..rl });
    assert_rejects(
        &verify_schedule(n, &units),
        VerifyInvariant::Disjointness,
        "column cols 2 -> 3",
    );
    let (_, mut units, rl) = valid_relayout_units();
    let parts = units[3].parts().to_vec();
    units[3] = SuperPass::new_columns(n, parts, ColumnTail { cols: 16, ..rl });
    // Chunks wider than the period leave no whole chunk at all.
    assert_rejects(
        &verify_schedule(n, &units),
        VerifyInvariant::Disjointness,
        "column cols 2 -> 16 (wider than the period)",
    );
}

#[test]
fn corrupted_relayout_view_is_rejected_as_coverage() {
    let (n, mut units, rl) = valid_relayout_units();
    let parts = units[3].parts().to_vec();
    // A 4 × 16 matrix view halves the chunk the parts were built for.
    units[3] = SuperPass::new_columns(n, parts, ColumnTail { period: 16, ..rl });
    assert_rejects(
        &verify_schedule(n, &units),
        VerifyInvariant::Coverage,
        "column period 8 -> 16",
    );
}

/// Hand-built column units with each invariant of the chunk kernel
/// broken: the verifier must reject every one with a typed diagnostic.
#[test]
fn column_unit_violations_are_rejected_with_typed_diagnostics() {
    let (n, units, rl) = valid_relayout_units();
    let parts = units[3].parts().to_vec();
    let with_tail = |tail: SuperPass| {
        let mut units = units.clone();
        units[3] = tail;
        verify_schedule(n, &units)
    };
    // A part whose in-place stride (12, from chunk extent 3) is not a
    // multiple of the period 8.
    let mut unclosed = parts.clone();
    unclosed[1] = Pass {
        s: 3,
        r: 16 / (2 * 3),
        ..unclosed[1]
    };
    assert_rejects(
        &with_tail(SuperPass::new_columns(n, unclosed, rl)),
        VerifyInvariant::Disjointness,
        "part stride not a multiple of the period",
    );
    // Chunk widths that are not a power of two, or do not divide the
    // period.
    for cols in [3usize, 6, 16] {
        assert_rejects(
            &with_tail(SuperPass::new_columns(
                n,
                parts.clone(),
                ColumnTail { cols, ..rl },
            )),
            VerifyInvariant::Disjointness,
            &format!("chunk width {cols}"),
        );
    }
    // A part that does not span the whole vector: half a chunk.
    let mut short = parts.clone();
    short[2] = Pass { r: 1, ..short[1] };
    assert_rejects(
        &with_tail(SuperPass::new_columns(n, short, rl)),
        VerifyInvariant::Coverage,
        "part spanning half of each chunk",
    );
    // Absurd extents: a period past the vector, and a part grid whose
    // span overflows.
    assert_rejects(
        &with_tail(SuperPass::new_columns(
            n,
            parts.clone(),
            ColumnTail {
                period: 1 << 40,
                cols: 2,
            },
        )),
        VerifyInvariant::Bounds,
        "period past the vector",
    );
    let mut huge = parts;
    huge[0] = Pass {
        r: usize::MAX,
        ..huge[0]
    };
    assert_rejects(
        &with_tail(SuperPass::new_columns(n, huge, rl)),
        VerifyInvariant::Overflow,
        "part grid overflows",
    );
}

#[test]
fn duplicate_writes_are_rejected_as_disjointness() {
    // stride 0 folds every butterfly output onto the base element: the
    // exhaustive write counter must see the aliasing.
    let n = 4u32;
    let passes = vec![
        Pass {
            k: 1,
            r: 8,
            s: 1,
            base: 0,
            stride: 0,
        },
        Pass {
            k: 1,
            r: 4,
            s: 2,
            base: 0,
            stride: 1,
        },
        Pass {
            k: 1,
            r: 2,
            s: 4,
            base: 0,
            stride: 1,
        },
        Pass {
            k: 1,
            r: 1,
            s: 8,
            base: 0,
            stride: 1,
        },
    ];
    assert_rejects(
        &verify_flat_passes(n, &passes),
        VerifyInvariant::Disjointness,
        "flat pass stride 1 -> 0",
    );
}

#[test]
fn dropped_and_duplicated_factors_are_rejected_as_coverage() {
    let n = 4u32;
    let flat: Vec<Pass> = (0..4)
        .map(|i| Pass {
            k: 1,
            r: 8 >> i,
            s: 1 << i,
            base: 0,
            stride: 1,
        })
        .collect();
    assert_eq!(verify_flat_passes(n, &flat), vec![]);
    // Dropping a factor leaves 2^3 != 2^4.
    assert_rejects(
        &verify_flat_passes(n, &flat[..3]),
        VerifyInvariant::Coverage,
        "dropped flat factor",
    );
    // Doubling one leaves 2^5 != 2^4.
    let mut dup = flat.clone();
    dup.push(flat[0]);
    assert_rejects(
        &verify_flat_passes(n, &dup),
        VerifyInvariant::Coverage,
        "duplicated flat factor",
    );
}

/// The two schedules `from_super_passes(4, …)` used to accept: levels
/// 0–1 twice and levels 2–3 never (Σk = n, yet the wrong transform), and
/// levels 2–3 before 0–1 (a WHT, but not the interpreter's bits on
/// floats). The level chain refuses both at the first out-of-order pass.
#[test]
fn repeated_and_reordered_levels_are_rejected_as_coverage() {
    let (n, units) = valid_units();
    let repeated = vec![
        units[0].clone(),
        units[1].clone(),
        units[0].clone(),
        units[1].clone(),
    ];
    let reordered = vec![
        units[2].clone(),
        units[3].clone(),
        units[0].clone(),
        units[1].clone(),
    ];
    for (ctx, schedule, at) in [
        ("levels 0-1 twice", repeated, 2),
        ("levels 2-3 before 0-1", reordered, 0),
    ] {
        let diags = verify_schedule(n, &schedule);
        assert_rejects(&diags, VerifyInvariant::Coverage, ctx);
        assert_eq!(
            diags.iter().map(|d| d.site).collect::<Vec<_>>(),
            [VerifySite::Unit {
                unit: at,
                part: Some(0)
            }],
            "{ctx}"
        );
        match CompiledPlan::from_super_passes(n, schedule) {
            Err(WhtError::InvalidSchedule { index, msg }) => {
                assert_eq!(index, at, "{ctx}: {msg}");
                assert!(msg.starts_with("[coverage]"), "{ctx}: {msg}");
            }
            other => panic!("{ctx}: expected a coverage refusal, got {other:?}"),
        }
    }
}

/// Mutation: move one part of a valid whole-vector schedule onto a
/// radix-2 level an earlier part already applied. The moved part still
/// covers the vector exactly once, so only the level chain can see it.
#[test]
fn part_moved_onto_an_applied_level_is_rejected_as_coverage() {
    let mut rng = Rng(0x1E7E1);
    for _ in 0..300 {
        let n = 2 + u32::try_from(rng.below(11)).unwrap();
        let size = 1usize << n;
        // A random composition of n into codelets of at most 4 levels,
        // one whole-vector unit each, chained.
        let mut ks = Vec::new();
        let mut level = 0u32;
        while level < n {
            let k = 1 + u32::try_from(rng.below(u64::from((n - level).min(4)))).unwrap();
            ks.push(k);
            level += k;
        }
        let unit = |k: u32, l: u32| {
            SuperPass::new(
                vec![Pass {
                    k,
                    r: size >> (k + l),
                    s: 1 << l,
                    base: 0,
                    stride: 1,
                }],
                size,
                1,
                0,
                1,
            )
        };
        let starts: Vec<u32> = ks
            .iter()
            .scan(0, |l, &k| {
                let start = *l;
                *l += k;
                Some(start)
            })
            .collect();
        let mut units: Vec<SuperPass> = ks.iter().zip(&starts).map(|(&k, &l)| unit(k, l)).collect();
        assert_eq!(verify_schedule(n, &units), vec![], "n = {n}, ks {ks:?}");
        if ks.len() < 2 {
            continue;
        }
        let victim = 1 + usize::try_from(rng.below(ks.len() as u64 - 1)).unwrap();
        let applied = u32::try_from(rng.below(u64::from(starts[victim]))).unwrap();
        units[victim] = unit(ks[victim], applied);
        let ctx = format!("n = {n}, ks {ks:?}: unit {victim} moved onto level {applied}");
        let diags = verify_schedule(n, &units);
        assert_rejects(&diags, VerifyInvariant::Coverage, &ctx);
        assert!(
            diags
                .iter()
                .all(|d| d.invariant == VerifyInvariant::Coverage
                    && d.site
                        == VerifySite::Unit {
                            unit: victim,
                            part: Some(0)
                        }),
            "{ctx}: {diags:?}"
        );
        match CompiledPlan::from_super_passes(n, units) {
            Err(WhtError::InvalidSchedule { index, .. }) => assert_eq!(index, victim, "{ctx}"),
            other => panic!("{ctx}: expected a refusal, got {other:?}"),
        }
    }
}

#[test]
fn oversized_exponent_is_rejected_as_overflow() {
    let (_, units) = valid_units();
    assert_rejects(
        &verify_schedule(MAX_N + 1, &units),
        VerifyInvariant::Overflow,
        "n past MAX_N",
    );
}

/// Regression test for the `n` guard on hand-built schedules: before it,
/// `from_super_passes(64, ..)` wrapped `size()` to 1 in release builds
/// and checked the whole schedule against the wrong extent.
#[test]
fn from_super_passes_rejects_oversized_exponent() {
    let (_, units) = valid_units();
    match CompiledPlan::from_super_passes(64, units) {
        Err(WhtError::SizeTooLarge { n: 64 }) => {}
        other => panic!("expected SizeTooLarge, got {other:?}"),
    }
}

/// `from_super_passes` gates hand-built schedules with exactly the
/// verifier. Random corrupted schedules: whenever it errors, the
/// standalone verifier must also produce diagnostics and the error must
/// name the corrupted unit; whenever it accepts, the verifier must be
/// clean.
#[test]
fn from_super_passes_rejects_exactly_what_verify_rejects() {
    let mut rng = Rng(0x5EED);
    let mut rejected = 0;
    for _ in 0..400 {
        let n = 2 + u32::try_from(rng.below(8)).unwrap();
        let size = 1usize << n;
        // One whole-vector radix-2 schedule with a random field warped.
        let mut units: Vec<SuperPass> = (0..n)
            .map(|i| {
                let s = 1usize << i;
                SuperPass::new(
                    vec![Pass {
                        k: 1,
                        r: size / (2 * s),
                        s,
                        base: 0,
                        stride: 1,
                    }],
                    size,
                    1,
                    0,
                    1,
                )
            })
            .collect();
        let victim = usize::try_from(rng.below(u64::from(n))).unwrap();
        let part = units[victim].parts()[0];
        let warped = match rng.below(6) {
            0 => Pass {
                k: part.k + u32::try_from(rng.below(9)).unwrap(),
                ..part
            },
            1 => Pass {
                r: part.r.wrapping_add(rng.below(3) as usize),
                ..part
            },
            2 => Pass {
                s: part.s.wrapping_add(rng.below(3) as usize),
                ..part
            },
            3 => Pass {
                base: rng.below(4) as usize,
                ..part
            },
            4 => Pass {
                stride: rng.below(4) as usize,
                ..part
            },
            _ => part,
        };
        units[victim] = SuperPass::new(vec![warped], size, 1, 0, 1);
        let diags = verify_schedule(n, &units);
        match CompiledPlan::from_super_passes(n, units) {
            Ok(compiled) => assert!(
                diags.is_empty() && compiled.verify().is_empty(),
                "from_super_passes accepted but verify rejected: {diags:?}"
            ),
            Err(err) => {
                rejected += 1;
                assert!(
                    !diags.is_empty(),
                    "from_super_passes rejected (n={n}, warped={warped:?}) but verify was silent"
                );
                assert!(
                    matches!(err, WhtError::InvalidSchedule { index, .. } if index == victim),
                    "error must name unit {victim}: {err:?}"
                );
            }
        }
    }
    assert!(rejected > 100, "corruption sweep barely corrupted anything");
}
