//! Negative tests for `CompiledPlan::from_super_passes` on malformed
//! hand-built fused schedules: every broken invariant must come back as a
//! *typed* `WhtError::InvalidSchedule` carrying the verifier's first
//! diagnostic for the offending unit — never a panic, and never a
//! silently-accepted schedule that would make the unsafe executor read or
//! write out of bounds.

use wht_core::VerifyInvariant::{self, Bounds, Coverage, Overflow, Structure};
use wht_core::{CompiledPlan, FusionPolicy, Plan, Relayout, SuperPass, WhtError};

/// A correct tile-relative part for a `tile`-element tile: `small[k]`
/// covering the tile exactly once at stride `s`.
fn part(k: u32, s: usize, tile: usize) -> wht_core::Pass {
    wht_core::Pass {
        k,
        r: tile / ((1usize << k) * s),
        s,
        base: 0,
        stride: 1,
    }
}

/// Assert that `from_super_passes` rejects `schedule` at unit `index`
/// with the verifier's `invariant` and a message containing `fragment`.
fn assert_rejects(
    n: u32,
    schedule: Vec<SuperPass>,
    index: usize,
    invariant: VerifyInvariant,
    fragment: &str,
) {
    match CompiledPlan::from_super_passes(n, schedule) {
        Err(WhtError::InvalidSchedule { index: got, msg }) => {
            assert_eq!(got, index, "{msg}");
            assert!(msg.starts_with(&format!("[{invariant}]")), "got: {msg}");
            assert!(msg.contains(fragment), "got: {msg}");
        }
        other => panic!("expected InvalidSchedule at unit {index}, got {other:?}"),
    }
}

#[test]
fn well_formed_hand_built_schedule_is_accepted() {
    // Two fused radix-2 factors over 4-element tiles of a 16-vector,
    // followed by two single large-stride passes — the shape fuse() makes.
    let n = 4u32;
    let fused_head = SuperPass::new(vec![part(1, 1, 4), part(1, 2, 4)], 4, 4, 0, 1);
    let tail1 = SuperPass::new(vec![part(1, 4, 16)], 16, 1, 0, 1);
    let tail2 = SuperPass::new(vec![part(1, 8, 16)], 16, 1, 0, 1);
    let plan = CompiledPlan::from_super_passes(n, vec![fused_head, tail1, tail2]).unwrap();
    assert!(plan.verify().is_empty());
    // And it computes the right transform: it is exactly iterative(4) fused.
    let want = CompiledPlan::compile(&Plan::iterative(n).unwrap()).fuse(&FusionPolicy::new(4));
    assert_eq!(plan.super_passes(), want.super_passes());
    let mut x: Vec<i64> = (0..16).map(|j| (j * 7 % 13) - 6).collect();
    let mut y = x.clone();
    plan.apply(&mut x).unwrap();
    want.apply(&mut y).unwrap();
    assert_eq!(x, y);
}

#[test]
fn overlapping_tiles_rejected() {
    // The part spans 8 elements but the tile is only 4: invocations bleed
    // into the next tile, so concurrent tiles would overlap.
    let bad = SuperPass::new(vec![part(1, 1, 8)], 4, 4, 0, 1);
    assert_rejects(
        4,
        vec![bad],
        0,
        Bounds,
        "reaches element 7 of a 4-element tile",
    );
}

#[test]
fn span_exceeding_vector_length_rejected() {
    // 8 tiles of 4 elements = 32 > 2^4: the grid runs past the buffer.
    let bad = SuperPass::new(vec![part(1, 1, 4), part(1, 2, 4)], 4, 8, 0, 1);
    assert_rejects(
        4,
        vec![bad],
        0,
        Coverage,
        "span 32, not the 16-element vector",
    );
}

#[test]
fn uncovered_elements_rejected() {
    // 2 tiles of 4 elements cover only 8 of 16.
    let bad = SuperPass::new(vec![part(1, 1, 4), part(1, 2, 4)], 4, 2, 0, 1);
    assert_rejects(
        4,
        vec![bad],
        0,
        Coverage,
        "span 8, not the 16-element vector",
    );
}

#[test]
fn partial_tile_coverage_rejected() {
    // The part fits inside the tile but covers only half of it.
    let half = wht_core::Pass {
        k: 1,
        r: 1,
        s: 1,
        base: 0,
        stride: 1,
    };
    let bad = SuperPass::new(vec![half], 4, 4, 0, 1);
    assert_rejects(
        4,
        vec![bad],
        0,
        Coverage,
        "does not write every element of its tile exactly once",
    );
}

#[test]
fn offset_and_strided_super_passes_rejected_at_top_level() {
    let off_base = SuperPass::new(vec![part(1, 1, 2)], 2, 8, 1, 1);
    assert_rejects(
        4,
        vec![off_base],
        0,
        Structure,
        "must sit at base 0, stride 1 (got base 1, stride 1)",
    );
    let strided = SuperPass::new(vec![part(1, 1, 2)], 2, 8, 0, 2);
    assert_rejects(4, vec![strided], 0, Structure, "(got base 0, stride 2)");
}

#[test]
fn empty_grids_and_parts_rejected() {
    let no_parts = SuperPass::new(vec![], 4, 4, 0, 1);
    assert_rejects(4, vec![no_parts], 0, Structure, "super-pass has no parts");
    let zero_tiles = SuperPass::new(vec![part(1, 1, 16)], 16, 0, 0, 1);
    assert_rejects(
        4,
        vec![zero_tiles],
        0,
        Structure,
        "empty tile grid (0 tiles",
    );
    let empty_part = wht_core::Pass {
        k: 1,
        r: 0,
        s: 1,
        base: 0,
        stride: 1,
    };
    assert_rejects(
        4,
        vec![SuperPass::new(vec![empty_part], 16, 1, 0, 1)],
        0,
        Structure,
        "empty invocation grid (r = 0, s = 1)",
    );
}

#[test]
fn out_of_range_codelet_rejected() {
    let huge_k = wht_core::Pass {
        k: 99,
        r: 1,
        s: 1,
        base: 0,
        stride: 1,
    };
    // k = 99 would shift-overflow a naive span computation; the verifier
    // must return the typed error instead of panicking.
    assert_rejects(
        4,
        vec![SuperPass::new(vec![huge_k], 16, 1, 0, 1)],
        0,
        Structure,
        "codelet exponent k = 99 outside the unrolled family",
    );
    let zero_k = wht_core::Pass {
        k: 0,
        r: 16,
        s: 1,
        base: 0,
        stride: 1,
    };
    assert_rejects(
        4,
        vec![SuperPass::new(vec![zero_k], 16, 1, 0, 1)],
        0,
        Structure,
        "codelet exponent k = 0 outside the unrolled family",
    );
}

#[test]
fn absurd_extents_return_typed_errors_not_overflow_panics() {
    // Offsets/strides near usize::MAX must flow through the saturating
    // flat-pass derivation into the verifier's typed rejection (a plain
    // `+` there would overflow-panic in debug builds before verify runs).
    let huge_base = SuperPass::new(vec![part(1, 1, 2)], 2, 8, usize::MAX, 1);
    assert_rejects(
        4,
        vec![huge_base],
        0,
        Structure,
        "must sit at base 0, stride 1",
    );
    let huge_stride = SuperPass::new(vec![part(1, 1, 2)], 2, 8, 1, usize::MAX);
    assert_rejects(
        4,
        vec![huge_stride],
        0,
        Structure,
        "must sit at base 0, stride 1",
    );
    let huge_part = wht_core::Pass {
        k: 1,
        r: usize::MAX / 2,
        s: usize::MAX / 2,
        base: usize::MAX,
        stride: usize::MAX,
    };
    assert_rejects(
        4,
        vec![SuperPass::new(vec![huge_part], 16, 1, 0, 1)],
        0,
        Overflow,
        "span r·2^k·s overflows",
    );
    // A tile grid whose size overflows, with a part that is clean inside
    // its tile: the whole-vector replay of that part must be derived
    // without overflowing either.
    let huge_grid = SuperPass::new(vec![part(1, 1, 4)], 4, usize::MAX, 0, 1);
    assert_rejects(4, vec![huge_grid], 0, Overflow, "tile grid size");
}

#[test]
fn well_formed_hand_built_relayout_schedule_is_accepted() {
    // The shape relayout() makes for iterative(6) fused at 2^2: a 4-factor
    // head over 4-element tiles, then a relayout unit gathering the
    // 4-pass... here 4-row tail: rows 4 (2^6/2^4... keep it simple):
    // fused head covers factors at strides 1..8 (tile 16), the 2-factor
    // tail is viewed as a 4 x 16 matrix gathered 8 columns at a time.
    let n = 6u32;
    let head = SuperPass::new(
        vec![
            part(1, 1, 16),
            part(1, 2, 16),
            part(1, 4, 16),
            part(1, 8, 16),
        ],
        16,
        4,
        0,
        1,
    );
    // Scratch block of 4 rows x 8 cols = 32 elements; tail factors at
    // scratch strides 8 and 16.
    let tail = SuperPass::new_relayout(
        vec![part(1, 8, 32), part(1, 16, 32)],
        Relayout {
            rows: 4,
            row_stride: 16,
            cols: 8,
        },
    );
    let plan = CompiledPlan::from_super_passes(n, vec![head, tail]).unwrap();
    assert!(plan.verify().is_empty());
    // It computes exactly what the builder pipeline builds.
    let want = CompiledPlan::compile(&Plan::iterative(n).unwrap())
        .fuse(&FusionPolicy::new(16))
        .relayout(&wht_core::RelayoutPolicy {
            min_passes: 2, // the hand-built tail is exactly two factors
            ..wht_core::RelayoutPolicy::eager(32)
        });
    assert_eq!(plan.super_passes(), want.super_passes());
    let mut x: Vec<i64> = (0..64).map(|j| (j * 5 % 17) - 8).collect();
    let mut y = x.clone();
    plan.apply(&mut x).unwrap();
    want.apply(&mut y).unwrap();
    assert_eq!(x, y);
}

#[test]
fn relayout_geometry_violations_rejected() {
    // Matrix view not covering the vector: 4 x 8 = 32 of 64 elements
    // (the 2-block grid of 16-element tiles falls short first).
    let bad = SuperPass::new_relayout(
        vec![part(1, 4, 16), part(1, 8, 16)],
        Relayout {
            rows: 4,
            row_stride: 8,
            cols: 4,
        },
    );
    assert_rejects(
        6,
        vec![bad],
        0,
        Coverage,
        "span 32, not the 64-element vector",
    );
    // Columns that do not partition the row length (6 % 4 != 0): the
    // 6 / 4 = 1-block grid leaves half the vector uncovered, which the
    // verifier reports first.
    let ragged = SuperPass::new_relayout(
        vec![part(1, 4, 16)],
        Relayout {
            rows: 4,
            row_stride: 6,
            cols: 4,
        },
    );
    assert_rejects(
        5,
        vec![ragged],
        0,
        Coverage,
        "span 16, not the 32-element vector",
    );
    // Empty geometry.
    let empty = SuperPass::new_relayout(
        vec![part(1, 1, 2)],
        Relayout {
            rows: 0,
            row_stride: 4,
            cols: 2,
        },
    );
    assert_rejects(
        4,
        vec![empty],
        0,
        Structure,
        "empty tile grid (2 tiles × 0 elements)",
    );
    // A part that does not tile the gathered block exactly once; its
    // inner extent is not even a whole gathered column.
    let short_part = SuperPass::new_relayout(
        vec![part(1, 1, 4)],
        Relayout {
            rows: 4,
            row_stride: 4,
            cols: 2,
        },
    );
    assert_rejects(
        4,
        vec![short_part],
        0,
        Structure,
        "inner extent 1 is not a multiple of the gathered column width 2",
    );
    // A part that covers its gathered block exactly but at an inner
    // extent below one column: its in-place replay has an empty grid,
    // which must be diagnosed, not underflow.
    let sub_column = SuperPass::new_relayout(
        vec![part(3, 1, 8)],
        Relayout {
            rows: 2,
            row_stride: 8,
            cols: 4,
        },
    );
    assert_rejects(
        4,
        vec![sub_column],
        0,
        Structure,
        "inner extent 1 is not a multiple of the gathered column width 4",
    );
    // Absurd geometry extents return typed errors, not overflow panics.
    let absurd = SuperPass::new_relayout(
        vec![part(1, 1, 2)],
        Relayout {
            rows: usize::MAX,
            row_stride: usize::MAX,
            cols: usize::MAX,
        },
    );
    assert_rejects(4, vec![absurd], 0, Coverage, "not the 16-element vector");
}

#[test]
fn bad_second_super_pass_is_reported_by_index() {
    // The first unit is sound on its own (its three factors leave the
    // schedule-wide factor product short, which the verifier reports
    // after every unit-level finding), so the error must point past it,
    // at index 1.
    let good = SuperPass::new(
        vec![part(1, 1, 16), part(1, 2, 16), part(1, 4, 16)],
        16,
        1,
        0,
        1,
    );
    let bad = SuperPass::new(vec![part(1, 1, 8)], 4, 4, 0, 1);
    assert_rejects(
        4,
        vec![good, bad],
        1,
        Bounds,
        "reaches element 7 of a 4-element tile",
    );
}

#[test]
fn schedule_wide_violations_report_the_schedule_length() {
    // Every unit is sound but the factors multiply to 2^3, not 2^4: no
    // unit is at fault, so the index is one past the last unit.
    let short = SuperPass::new(
        vec![part(1, 1, 16), part(1, 2, 16), part(1, 4, 16)],
        16,
        1,
        0,
        1,
    );
    assert_rejects(
        4,
        vec![short],
        1,
        Coverage,
        "multiplies to 2^3, not the transform size 2^4",
    );
    assert_rejects(4, vec![], 0, Structure, "no units");
}
