//! Property tests for the parallel engine: race-freedom in practice means
//! bit-exact agreement with the sequential engine on random plans, fusion
//! policies, thread counts, and data. Plans and signals come from the
//! shared `wht_core::testkit` generators.

use proptest::prelude::*;
use std::sync::OnceLock;
use wht_core::testkit::{random_plan, random_signal};
use wht_core::{
    apply_plan, apply_plan_recursive, BatchPolicy, CompiledPlan, ExecPolicy, FusionPolicy,
    RecodeletPolicy, RelayoutPolicy, Scalar, SimdPolicy, StreamPolicy,
};
use wht_parallel::{
    par_apply_batch, par_apply_batch_on, par_apply_compiled, par_apply_compiled_on, par_apply_plan,
    Threads, WorkerPool,
};

/// One shared 4-worker pool for the whole proptest binary: real pools are
/// process-lived, and sharing it across hundreds of cases also stresses
/// slot reuse and arena growth far harder than a fresh pool per case.
fn pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(4))
}

/// An 8-worker pool for the legs that draw crews past [`pool`]'s four.
fn wide_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(8))
}

/// A random point in executor-policy space from proptest-drawn axes,
/// every lowering stage togglable (streaming eager so it engages on
/// test-sized transforms).
#[allow(clippy::fn_params_excessive_bools)]
fn policy_point(
    fuse_bits: u32,
    relayout_bits: u32,
    recodelet: bool,
    simd: bool,
    batch: usize,
    stream: bool,
) -> ExecPolicy {
    ExecPolicy {
        fusion: if fuse_bits == 0 {
            FusionPolicy::disabled()
        } else {
            FusionPolicy::new(1usize << fuse_bits)
        },
        relayout: if relayout_bits == 0 {
            RelayoutPolicy::disabled()
        } else {
            RelayoutPolicy::new(1usize << relayout_bits)
        },
        recodelet: if recodelet {
            RecodeletPolicy::default()
        } else {
            RecodeletPolicy::disabled()
        },
        simd: if simd {
            SimdPolicy::auto()
        } else {
            SimdPolicy::disabled()
        },
        batch: if batch == 0 {
            BatchPolicy::disabled()
        } else {
            BatchPolicy::new(batch)
        },
        stream: if stream {
            StreamPolicy::eager()
        } else {
            StreamPolicy::disabled()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_equals_sequential_bit_for_bit(
        n in 1u32..=12,
        seed in any::<u64>(),
        threads in 1usize..=16,
    ) {
        let plan = random_plan(n, seed);
        let input: Vec<f64> = (0..plan.size())
            .map(|j| {
                let h = (j as u64).wrapping_mul(0xD1B5_4A32_D192_ED03).wrapping_add(seed);
                ((h >> 20) % 4096) as f64 / 512.0 - 4.0
            })
            .collect();
        let mut seq = input.clone();
        apply_plan(&plan, &mut seq).unwrap();
        let mut par = input;
        par_apply_plan(&plan, &mut par, Threads(threads)).unwrap();
        // Floating-point operations happen in identical order per element
        // (only the schedule differs), so agreement is exact, not approximate.
        prop_assert_eq!(par, seq);
    }

    /// The compiled schedule, the recursive interpreter, and the parallel
    /// engine all agree bit for bit on random plans, for every scalar
    /// type.
    #[test]
    fn compiled_recursive_and_parallel_all_agree(
        n in 1u32..=12,
        seed in any::<u64>(),
        threads in 1usize..=8,
    ) {
        fn check<T: Scalar>(
            plan: &wht_core::Plan,
            compiled: &CompiledPlan,
            seed: u64,
            threads: usize,
        ) {
            let input: Vec<T> = random_signal(plan.size(), seed);
            let mut rec = input.clone();
            apply_plan_recursive(plan, &mut rec).unwrap();
            let mut flat = input.clone();
            compiled.apply(&mut flat).unwrap();
            assert_eq!(flat, rec, "compiled vs recursive for {plan}");
            let mut par = input;
            par_apply_compiled(compiled, &mut par, Threads(threads)).unwrap();
            assert_eq!(par, rec, "parallel vs recursive for {plan} ({threads} threads)");
        }
        let plan = random_plan(n, seed);
        let compiled = CompiledPlan::compile(&plan);
        check::<f64>(&plan, &compiled, seed, threads);
        check::<f32>(&plan, &compiled, seed, threads);
        check::<i64>(&plan, &compiled, seed, threads);
        check::<i32>(&plan, &compiled, seed, threads);
    }

    /// Tile-sharded execution of fused schedules is bit-identical to the
    /// sequential fused replay (and hence to the interpreter), for any
    /// fusion budget — the parallel leg of the fusion differential
    /// harness.
    #[test]
    fn fused_parallel_equals_sequential_bit_for_bit(
        n in 1u32..=13,
        seed in any::<u64>(),
        threads in 2usize..=8,
        budget_bits in 0u32..=14,
    ) {
        let budget = if budget_bits == 0 { 0 } else { 1usize << budget_bits };
        let plan = random_plan(n, seed);
        let fused = CompiledPlan::compile_exec(
            &plan,
            &ExecPolicy::all_disabled().with_fusion(FusionPolicy::new(budget)),
        );
        let input: Vec<i64> = random_signal(plan.size(), seed);
        let mut seq = input.clone();
        fused.apply(&mut seq).unwrap();
        let mut par = input;
        par_apply_compiled(&fused, &mut par, Threads(threads)).unwrap();
        prop_assert_eq!(par, seq, "plan {}, budget {}", plan, budget);
    }

    /// An explicit persistent pool, the default entry point's crew (the
    /// global pool, or a per-call pool for crews past it), and the
    /// sequential replay agree bit for bit on random plans lowered
    /// through random executor policies (fusion, column tail,
    /// re-codeleting, SIMD, streaming), for all four scalar types.
    #[test]
    fn pooled_crew_and_sequential_agree_on_random_lowered_schedules(
        n in 1u32..=13,
        seed in any::<u64>(),
        threads in 2usize..=8,
        fuse_bits in 0u32..=12,
        relayout_bits in 0u32..=12,
        flags in 0u8..8,
    ) {
        let (recodelet, simd, stream) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        fn check<T: Scalar>(lowered: &CompiledPlan, seed: u64, threads: usize) {
            let input: Vec<T> = random_signal(lowered.size(), seed);
            let mut seq = input.clone();
            lowered.apply(&mut seq).unwrap();
            let mut pooled = input.clone();
            par_apply_compiled_on(pool(), lowered, &mut pooled, Threads(threads)).unwrap();
            assert_eq!(pooled, seq, "pooled vs sequential ({threads} threads)");
            let mut crew = input;
            par_apply_compiled(lowered, &mut crew, Threads(threads)).unwrap();
            assert_eq!(crew, seq, "crew of {threads} vs sequential");
        }
        let plan = random_plan(n, seed);
        // Column chunk budgets below 2^6 are degenerate; fold the low
        // draws onto "tail stage disabled" so that leg stays covered too.
        let relayout_bits = if relayout_bits < 6 { 0 } else { relayout_bits };
        let policy = policy_point(fuse_bits, relayout_bits, recodelet, simd, 0, stream);
        let lowered = CompiledPlan::compile(&plan).lower(&policy);
        check::<f64>(&lowered, seed, threads);
        check::<f32>(&lowered, seed, threads);
        check::<i64>(&lowered, seed, threads);
        check::<i32>(&lowered, seed, threads);
    }

    /// Batched execution on an explicit pool and through the default
    /// entry point's crew agrees bit for bit with the sequential batch
    /// replay on random row counts (every chunking regime:
    /// sub-lane-group, exact multiples, ragged remainders), with and
    /// without streaming.
    #[test]
    fn pooled_and_crew_batches_agree_with_sequential(
        n in 1u32..=8,
        seed in any::<u64>(),
        rows in 1usize..=80,
        threads in 2usize..=8,
        stream in any::<bool>(),
    ) {
        fn check<T: Scalar>(lowered: &CompiledPlan, rows: usize, seed: u64, threads: usize) {
            let input: Vec<T> = random_signal(lowered.size() * rows, seed);
            let mut seq = input.clone();
            lowered.apply_batch(&mut seq, rows).unwrap();
            let mut pooled = input.clone();
            par_apply_batch_on(pool(), lowered, &mut pooled, rows, Threads(threads)).unwrap();
            assert_eq!(pooled, seq, "pooled batch ({rows} rows, {threads} threads)");
            let mut crew = input;
            par_apply_batch(lowered, &mut crew, rows, Threads(threads)).unwrap();
            assert_eq!(crew, seq, "crew batch ({rows} rows, {threads} threads)");
        }
        let plan = random_plan(n, seed);
        let policy = policy_point(4, 0, false, true, 8, stream);
        let lowered = CompiledPlan::compile(&plan).lower(&policy);
        check::<f64>(&lowered, rows, seed, threads);
        check::<f32>(&lowered, rows, seed, threads);
        check::<i64>(&lowered, rows, seed, threads);
        check::<i32>(&lowered, rows, seed, threads);
    }

    /// Tails of several single-tile passes (small fusion budgets) and
    /// column tails with fewer chunks than workers replay as the
    /// engine's column units and range-claimed pass units; an explicit
    /// pool and the default entry point's crew both agree with the
    /// sequential replay bit for bit, for all four scalar types.
    #[test]
    fn column_and_pass_units_agree_with_sequential(
        n in 4u32..=14,
        seed in any::<u64>(),
        crew_pick in 0usize..4,
        fuse_bits in 2u32..=8,
        blocks_bits in 0u32..=2,
        simd in any::<bool>(),
    ) {
        fn check<T: Scalar>(lowered: &CompiledPlan, seed: u64, crew: usize) {
            let input: Vec<T> = random_signal(lowered.size(), seed);
            let mut seq = input.clone();
            lowered.apply(&mut seq).unwrap();
            let mut pooled = input.clone();
            par_apply_compiled_on(wide_pool(), lowered, &mut pooled, Threads(crew)).unwrap();
            assert_eq!(pooled, seq, "pooled vs sequential (crew {crew})");
            let mut par = input;
            par_apply_compiled(lowered, &mut par, Threads(crew)).unwrap();
            assert_eq!(par, seq, "crew of {crew} vs sequential");
        }
        let crew = [2, 3, 5, 8][crew_pick];
        let plan = random_plan(n, seed);
        // A chunk budget of size / 2^b cuts a column tail into 2^b chunks
        // (b = 1, 2): fewer than the crew except for 2 chunks on a crew
        // of 2.
        let relayout_bits = if blocks_bits == 0 { 0 } else { n - blocks_bits };
        let policy = policy_point(fuse_bits, relayout_bits, true, simd, 0, false);
        let lowered = CompiledPlan::compile(&plan).lower(&policy);
        check::<f64>(&lowered, seed, crew);
        check::<f32>(&lowered, seed, crew);
        check::<i64>(&lowered, seed, crew);
        check::<i32>(&lowered, seed, crew);
    }

    #[test]
    fn parallel_integer_engine_exact(n in 1u32..=10, seed in any::<u64>(), threads in 1usize..=8) {
        let plan = random_plan(n, seed);
        let ints: Vec<i64> = (0..plan.size() as i64).map(|j| (j * 29 % 61) - 30).collect();
        let mut seq = ints.clone();
        apply_plan(&plan, &mut seq).unwrap();
        let mut par = ints;
        par_apply_plan(&plan, &mut par, Threads(threads)).unwrap();
        prop_assert_eq!(par, seq);
    }
}
