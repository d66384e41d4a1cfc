//! The executor matrix: every on/off corner of the six lowering stages,
//! through every entry point that lowers a schedule, for all four scalar
//! types, in one process.
//!
//! A corner starts from `ExecPolicy::all_disabled()` and switches each
//! stage whose bit is set on with a setting that engages at the test size.
//! Every entry point must agree with the recursive interpreter bit for bit
//! (row by row for batches), and each lowered schedule must carry the
//! marks of exactly the stages its corner switched on.

use wht::core::testkit::{random_plan, random_signal};
use wht::prelude::*;
use wht::search::Wisdom;

/// Transform exponent of the matrix (256 elements).
const N: u32 = 8;
/// Batch rows: a full lane group of every scalar type plus a remainder
/// that replays per row.
const ROWS: usize = 17;
/// The six stages, in the order of a corner's bits and of [`marks`].
const STAGES: [&str; 6] = ["fusion", "relayout", "recodelet", "simd", "batch", "stream"];

fn on(corner: u8, stage: usize) -> bool {
    corner >> stage & 1 == 1
}

fn pick<T>(corner: u8, stage: usize, on_value: T, off_value: T) -> T {
    if on(corner, stage) {
        on_value
    } else {
        off_value
    }
}

fn corner_policy(corner: u8) -> ExecPolicy {
    let off = ExecPolicy::all_disabled();
    ExecPolicy {
        fusion: pick(corner, 0, FusionPolicy::new(1 << 4), off.fusion),
        relayout: pick(corner, 1, RelayoutPolicy::new(1 << 6), off.relayout),
        recodelet: pick(corner, 2, RecodeletPolicy::default(), off.recodelet),
        simd: pick(corner, 3, SimdPolicy::auto(), off.simd),
        batch: pick(corner, 4, BatchPolicy::new(1), off.batch),
        stream: pick(corner, 5, StreamPolicy::eager(), off.stream),
    }
}

/// Which stages left their mark on `c`, in [`STAGES`] order.
fn marks(c: &CompiledPlan) -> [bool; 6] {
    let streamed_batch = c
        .batch_schedule()
        .is_some_and(|b| b.stream_min_elems() != usize::MAX);
    [
        c.super_passes().iter().any(|sp| sp.provenance().fused),
        c.has_relayout(),
        c.has_recodeleted(),
        c.is_simd(),
        c.is_batched(),
        c.has_streamed() || streamed_batch,
    ]
}

/// Whether a stage has something to rewrite in `corner`: re-codeleting
/// regroups factors within the multi-factor units fusion or the column
/// tail build, and streaming marks the batch product's copies.
fn can_engage(corner: u8, stage: usize) -> bool {
    on(corner, stage)
        && match stage {
            2 => on(corner, 0) || on(corner, 1),
            5 => on(corner, 4),
            _ => true,
        }
}

fn plans() -> [Plan; 3] {
    [
        Plan::iterative(N).unwrap(),
        Plan::balanced(N, 3).unwrap(),
        random_plan(N, 2026),
    ]
}

fn run<T: Scalar>(x: &[T], f: impl FnOnce(&mut [T]) -> Result<(), WhtError>) -> Vec<T> {
    let mut out = x.to_vec();
    f(&mut out).unwrap();
    out
}

fn pool() -> &'static WorkerPool {
    static POOL: std::sync::OnceLock<WorkerPool> = std::sync::OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(3))
}

fn srht() -> Srht {
    Srht::new(N, 24, 7).unwrap()
}

/// One plan's inputs in one scalar type and the answers every entry point
/// must reproduce: the recursive interpreter's, row by row for the batch,
/// and the sketch through the every-stage-off lowering.
struct Case<T> {
    plan: Plan,
    x: Vec<T>,
    want: Vec<T>,
    batch: Vec<T>,
    want_rows: Vec<T>,
    want_sketch: Vec<T>,
}

impl<T: Scalar> Case<T> {
    fn new(plan: &Plan, seed: u64) -> Self {
        let recursive = |x: &[T]| {
            run(x, |v| {
                v.chunks_exact_mut(plan.size())
                    .try_for_each(|row| apply_plan_recursive(plan, row))
            })
        };
        let x = random_signal(plan.size(), seed);
        let batch = random_signal(ROWS * plan.size(), seed + 1);
        let baseline = CompiledPlan::compile_exec(plan, &ExecPolicy::all_disabled());
        let mut want_sketch = vec![T::ZERO; ROWS * srht().sample_len()];
        srht()
            .sketch_batch(&baseline, &batch, ROWS, &mut want_sketch)
            .unwrap();
        Case {
            plan: plan.clone(),
            want: recursive(&x),
            want_rows: recursive(&batch),
            x,
            batch,
            want_sketch,
        }
    }

    /// Every entry point of one corner. `lowered` is `compile_exec`'s
    /// schedule; the cache and `planner` lower on their own.
    fn check(&self, lowered: &CompiledPlan, planner: &mut Planner<InstructionCost>, at: &str) {
        let at = format!("{at}, {}", std::any::type_name::<T>());
        let (x, want, rows) = (&self.x, &self.want, &self.want_rows);
        assert_eq!(run(x, |v| lowered.apply(v)), *want, "apply: {at}");
        let batched = run(&self.batch, |v| lowered.apply_batch(v, ROWS));
        assert_eq!(batched, *rows, "apply_batch: {at}");
        let cached = compiled_for_exec(&self.plan, planner.exec());
        assert_eq!(*cached, *lowered, "compiled_for_exec: {at}");
        assert_eq!(run(x, |v| cached.apply(v)), *want, "cached apply: {at}");
        let par = run(x, |v| par_apply_compiled_on(pool(), lowered, v, Threads(3)));
        assert_eq!(par, *want, "par_apply_compiled_on: {at}");
        assert_eq!(run(x, |v| planner.transform(v)), *want, "transform: {at}");
        let batched = run(&self.batch, |v| planner.transform_batch(v, ROWS));
        assert_eq!(batched, *rows, "transform_batch: {at}");
        let mut sketch = vec![T::ZERO; self.want_sketch.len()];
        srht()
            .sketch_batch(lowered, &self.batch, ROWS, &mut sketch)
            .unwrap();
        assert_eq!(sketch, self.want_sketch, "sketch_batch: {at}");
    }
}

#[test]
fn every_corner_agrees_with_the_interpreter_through_every_entry_point() {
    for (p, plan) in plans().iter().enumerate() {
        let seed = 10 * p as u64;
        let f64s = Case::<f64>::new(plan, seed);
        let f32s = Case::<f32>::new(plan, seed);
        let i64s = Case::<i64>::new(plan, seed);
        let i32s = Case::<i32>::new(plan, seed);
        let mut wisdom = Wisdom::new();
        wisdom.insert(N, "instruction-model", plan.clone()).unwrap();
        for corner in 0..64u8 {
            let exec = corner_policy(corner);
            let at = format!("corner {corner:06b}, plan {plan}");
            let lowered = CompiledPlan::compile_exec(plan, &exec);
            assert!(lowered.verify().is_empty(), "compile_exec: {at}");
            let mut planner = Planner::new(InstructionCost::default())
                .with_exec(exec)
                .with_wisdom(wisdom.clone());
            f64s.check(&lowered, &mut planner, &at);
            f32s.check(&lowered, &mut planner, &at);
            i64s.check(&lowered, &mut planner, &at);
            i32s.check(&lowered, &mut planner, &at);
            assert_eq!(planner.evaluations(), 0, "served from wisdom: {at}");
        }
    }
}

#[test]
fn each_corner_engages_exactly_the_stages_it_switches_on() {
    for corner in 0..64u8 {
        let mut seen = [false; 6];
        for plan in plans() {
            let stamped = marks(&CompiledPlan::compile_exec(&plan, &corner_policy(corner)));
            for (stage, &mark) in stamped.iter().enumerate() {
                let name = STAGES[stage];
                assert!(!mark || on(corner, stage), "{corner:06b}: {name} while off");
                seen[stage] |= mark;
            }
        }
        for (stage, &engaged) in seen.iter().enumerate() {
            let name = STAGES[stage];
            assert_eq!(engaged, can_engage(corner, stage), "{corner:06b}: {name}");
        }
    }
}

/// What `apply_plan`, `Planner::new` and every other default serve.
#[test]
fn the_default_policy_engages_every_stage_at_production_sizes() {
    assert_eq!(ExecPolicy::from_env(), ExecPolicy::default());
    // Compiling touches no data, so a 2^26-element plan is cheap: it
    // fuses a head under the default budget, sweeps the first tail
    // factor (its columns would be 512 deep, past the 256-row chunk
    // cap) and groups the other eight into one column tail of
    // re-codeleted parts of at most eight rows, replayed in place (no
    // scratch, nothing to stream).
    let plan = Plan::iterative(26).unwrap();
    let compiled = CompiledPlan::compile_exec(&plan, &ExecPolicy::default());
    let units = compiled.super_passes();
    assert_eq!(units.len(), 3, "a fused head, one sweep and a column tail");
    assert!(units[0].provenance().fused && !units[0].is_column_tail());
    assert_eq!(units[1].parts().len(), 1);
    assert_eq!(units[1].flat_pass(0).s, 1 << 17);
    assert!(units.iter().all(|sp| sp.backend() == PassBackend::Lanes));
    assert!(compiled.has_relayout() && compiled.has_recodeleted() && !compiled.has_streamed());
    assert!(
        compiled.batch_schedule().is_none(),
        "past the batch size cap"
    );
    assert_eq!(compiled.batch_scratch_elems(8), 0, "no scratch");
    let tail = &units[2];
    let g = tail.columns().unwrap();
    assert_eq!(g.period, 1 << 18, "256-row columns");
    assert_eq!(tail.tile_elems(), compiled.size() / g.period * g.cols);
    assert!(tail.tile_elems() <= RelayoutPolicy::default().budget_elems);
    assert!(tail.parts().iter().all(|p| p.k <= 3), "at most eight rows");
    assert!(tail.provenance().relayouted && tail.provenance().recodeleted > 0);

    // apply_plan's cache serves the default lowering, batched at n = 12,
    // with the stream stage's floor recorded on the batch product.
    let small = Plan::iterative(12).unwrap();
    let served = wht::core::compiled_for(&small);
    let lowered = CompiledPlan::compile_exec(&small, &ExecPolicy::default());
    assert_eq!(*served, lowered);
    assert_eq!(
        served.batch_schedule().map(|b| b.stream_min_elems()),
        Some(StreamPolicy::default().min_elems)
    );

    // Every stage off: one trivial, single-tile, scalar unit per pass.
    let baseline = CompiledPlan::compile_exec(&plan, &ExecPolicy::all_disabled());
    assert_eq!(baseline.super_passes().len(), baseline.passes().len());
    assert!(baseline.batch_schedule().is_none());
    assert!(baseline.super_passes().iter().all(|sp| {
        (sp.parts().len(), sp.tiles(), sp.backend()) == (1, 1, PassBackend::Scalar)
            && !sp.is_column_tail()
            && sp.provenance() == Provenance::default()
    }));
}
