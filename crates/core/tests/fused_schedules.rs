//! Negative tests for `CompiledPlan::from_super_passes` on malformed
//! hand-built fused schedules: every broken invariant must come back as a
//! *typed* `WhtError::InvalidSchedule` carrying the verifier's first
//! diagnostic for the offending unit — never a panic, and never a
//! silently-accepted schedule that would make the unsafe executor read or
//! write out of bounds.

use wht_core::VerifyInvariant::{self, Bounds, Coverage, Disjointness, Overflow, Structure};
use wht_core::{
    ColumnTail, CompiledPlan, ExecPolicy, FusionPolicy, Plan, RelayoutPolicy, SuperPass, WhtError,
};

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
    // followed by two single large-stride passes — the shape fusion makes.
    let n = 4u32;
    let fused_head = SuperPass::new(vec![part(1, 1, 4), part(1, 2, 4)], 4, 4, 0, 1);
    let tail1 = SuperPass::new(vec![part(1, 4, 16)], 16, 1, 0, 1);
    let tail2 = SuperPass::new(vec![part(1, 8, 16)], 16, 1, 0, 1);
    let plan = CompiledPlan::from_super_passes(n, vec![fused_head, tail1, tail2]).unwrap();
    assert!(plan.verify().is_empty());
    // And it computes the right transform: it is exactly iterative(4) fused.
    let want = CompiledPlan::compile_exec(
        &Plan::iterative(n).unwrap(),
        &ExecPolicy::all_disabled().with_fusion(FusionPolicy::new(4)),
    );
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
    // The shape the tail stage makes for iterative(8) fused at 2^5: a
    // 5-factor head over 32-element tiles, then a column tail over the
    // 3-factor tail at in-place strides 32, 64 and 128, viewed as an
    // 8 × 32 matrix and replayed 16 columns (a 128-element chunk) at a
    // time.
    let n = 8u32;
    let head = SuperPass::new(
        vec![
            part(1, 1, 32),
            part(1, 2, 32),
            part(1, 4, 32),
            part(1, 8, 32),
            part(1, 16, 32),
        ],
        32,
        8,
        0,
        1,
    );
    // Chunk coordinates: the in-place strides 32·c read 16·c.
    let tail = SuperPass::new_columns(
        n,
        vec![part(1, 16, 128), part(1, 32, 128), part(1, 64, 128)],
        ColumnTail {
            period: 32,
            cols: 16,
        },
    );
    let plan = CompiledPlan::from_super_passes(n, vec![head, tail]).unwrap();
    assert!(plan.verify().is_empty());
    // It computes exactly what the builder pipeline builds.
    let want = CompiledPlan::compile_exec(
        &Plan::iterative(n).unwrap(),
        &ExecPolicy::all_disabled()
            .with_fusion(FusionPolicy::new(32))
            .with_relayout(RelayoutPolicy::new(128)),
    );
    assert_eq!(plan.super_passes(), want.super_passes());
    let mut x: Vec<i64> = (0..256).map(|j| (j * 5 % 17) - 8).collect();
    let mut y = x.clone();
    plan.apply(&mut x).unwrap();
    want.apply(&mut y).unwrap();
    assert_eq!(x, y);
}

#[test]
fn relayout_geometry_violations_rejected() {
    // Column units on a 64-element vector (n = 6), period 16, 8-column
    // chunks of 4 × 8 = 32 elements unless stated otherwise.
    let g = ColumnTail {
        period: 16,
        cols: 8,
    };
    // A part whose in-place stride is not a multiple of the period: in
    // chunk coordinates its inner extent 4 is half a chunk column.
    let unclosed = SuperPass::new_columns(6, vec![part(1, 4, 32)], g);
    assert_rejects(
        6,
        vec![unclosed],
        0,
        Disjointness,
        "inner extent 4 is not a multiple of the chunk width 8",
    );
    // A chunk width that is not a power of two (so cannot divide the
    // power-of-two period), and one wider than the period.
    for cols in [6usize, 32] {
        let ragged = SuperPass::new_columns(6, vec![part(1, 8, 32)], ColumnTail { cols, ..g });
        assert_rejects(
            6,
            vec![ragged],
            0,
            Disjointness,
            &format!("chunks of {cols} columns do not partition the 16 residues"),
        );
    }
    // A part that does not span the whole vector: it covers half of
    // each chunk.
    let short_part = SuperPass::new_columns(6, vec![part(1, 8, 16)], g);
    assert_rejects(
        6,
        vec![short_part],
        0,
        Coverage,
        "does not write every element of its tile exactly once",
    );
    // Empty geometry.
    let empty = SuperPass::new_columns(6, vec![part(1, 8, 32)], ColumnTail { cols: 0, ..g });
    assert_rejects(6, vec![empty], 0, Structure, "empty column geometry");
    // Absurd extents return typed errors, not overflow panics: a period
    // past the vector, and a part grid whose span overflows.
    let far = SuperPass::new_columns(
        6,
        vec![part(1, 8, 32)],
        ColumnTail {
            period: 1 << 62,
            cols: 8,
        },
    );
    assert_rejects(
        6,
        vec![far],
        0,
        Bounds,
        "does not divide the 64-element vector",
    );
    let huge = SuperPass::new_columns(
        6,
        vec![wht_core::Pass {
            r: usize::MAX,
            ..part(1, 8, 32)
        }],
        g,
    );
    assert_rejects(6, vec![huge], 0, Overflow, "span r·2^k·s overflows");
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
