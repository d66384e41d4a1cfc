//! # wht — reproduction of *Performance Analysis of a Family of WHT
//! Algorithms* (Andrews & Johnson, 2007)
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`core`] (`wht-core`) | split-tree plans, unrolled codelets, the in-place strided interpreter, and the compiled-plan layer ([`CompiledPlan`](wht_core::CompiledPlan)) behind `apply_plan`: a staged lowering pipeline — cache-blocked pass fusion ([`FusionPolicy`](wht_core::FusionPolicy)) → the in-place column tail, replayed chunk by chunk ([`RelayoutPolicy`](wht_core::RelayoutPolicy)) → re-codeleting ([`RecodeletPolicy`](wht_core::RecodeletPolicy)) → SIMD lane-block kernel selection ([`SimdPolicy`](wht_core::SimdPolicy)) → batched-small cross-transform scheduling ([`BatchPolicy`](wht_core::BatchPolicy), behind [`CompiledPlan::apply_batch`](wht_core::CompiledPlan::apply_batch)) → streaming-store/prefetch memory codelets for out-of-LLC batches ([`StreamPolicy`](wht_core::StreamPolicy)) — driven by one [`ExecPolicy`](wht_core::ExecPolicy) passed in code ([`CompiledPlan::lower`](wht_core::CompiledPlan::lower), `compiled_for_exec`, `Planner::with_exec`), every stage on in `ExecPolicy::default()`, which `apply_plan` uses; plus SRHT sketching ([`Srht`](wht_core::Srht)) fused into the batched executor, and the static schedule safety verifier ([`CompiledPlan::verify`](wht_core::CompiledPlan::verify)) proving bounds, write-disjointness, coverage, and scratch sizing of every lowered schedule |
//! | [`space`] (`wht-space`) | algorithm-space counting, enumeration, the recursive-split-uniform sampler |
//! | [`models`] (`wht-models`) | instruction-count model, direct-mapped cache-miss model, combined model, theory |
//! | [`cachesim`] (`wht-cachesim`) | set-associative LRU cache simulator (Opteron presets) |
//! | [`measure`] (`wht-measure`) | timing, instrumented execution, trace-driven miss measurement |
//! | [`stats`] (`wht-stats`) | Pearson, histograms, IQR fences, pruning curves, grid search |
//! | [`search`] (`wht-search`) | plan search: the memoized branch-and-bound engine ([`memo_search`](wht_search::memo_search) over a [`MemoTable`](wht_search::MemoTable) of factor-span groups with provenance), the classic DP autotuner ([`dp_search`](wht_search::dp_search)), exhaustive/random/model-pruned strategies, cost backends that each score one transform under fixed weights ([`PlanCost`](wht_search::PlanCost); the model backends also report their work/traffic terms as a [`CostVec`](wht_search::CostVec)), the [`Planner`](wht_search::Planner) facade with wisdom caching, and crash-safe wisdom persistence: the sharded [`ShardedStore`](wht_search::ShardedStore) (atomic commit, typed [`StoreDiagnostic`](wht_search::StoreDiagnostic) quarantine, keep-best merge) with a hermetic fault-injection layer (`wht_search::failpoints`, `WHT_FAILPOINTS`) |
//! | [`parallel`] (`wht-parallel`) | multi-threaded WHT over a persistent [`WorkerPool`](wht_parallel::WorkerPool) (zero spawn/join on the warm path, stable shard ranges with work stealing, [`PoolStats`](wht_parallel::PoolStats) introspection) — one dispatch path, with a per-call pool for crews larger than the global one — and parallel measurement sweeps |
//!
//! ## Quick start
//!
//! ```
//! use wht::prelude::*;
//!
//! // Parse a plan in the WHT package's grammar and run it.
//! let plan: Plan = "split[small[2],small[3]]".parse()?;
//! let mut x: Vec<f64> = (0..32).map(|v| v as f64).collect();
//! let want = naive_wht(&x);
//! apply_plan(&plan, &mut x)?;
//! assert_eq!(x, want);
//!
//! // Model its cost without running it (the paper's central trick):
//! let instructions = instruction_count(&plan, &CostModel::default());
//! let misses = analytic_misses(&plan, ModelCache::opteron_l1_elems());
//! assert!(instructions > 0 && misses >= 32);
//!
//! // Production path: a Planner picks and compiles the best plan per
//! // size, amortizing search through its wisdom cache.
//! let mut planner = Planner::new(InstructionCost::default());
//! let mut y: Vec<f64> = (0..64).map(|v| (v % 3) as f64).collect();
//! let expect = naive_wht(&y);
//! planner.transform(&mut y)?;
//! assert_eq!(y, expect);
//! # Ok::<(), wht::WhtError>(())
//! ```

#![warn(missing_docs)]

pub use wht_cachesim as cachesim;
pub use wht_core as core;
pub use wht_measure as measure;
pub use wht_models as models;
pub use wht_parallel as parallel;
pub use wht_search as search;
pub use wht_space as space;
pub use wht_stats as stats;

pub use wht_core::{Plan, WhtError};

/// The items most programs need, in one import.
pub mod prelude {
    pub use wht_cachesim::{Cache, CacheConfig, Hierarchy};
    pub use wht_core::{
        apply_plan, apply_plan_recursive, compiled_for_exec, lane_width, naive_wht, parse_plan,
        to_sequency_order, BatchPolicy, ColumnTail, CompiledPlan, ExecPolicy, FusionPolicy, Pass,
        PassBackend, Plan, Provenance, RecodeletPolicy, RelayoutPolicy, Scalar, SimdPolicy, Srht,
        StreamPolicy, SuperPass, VerifyDiagnostic, VerifyInvariant, WhtError,
    };
    pub use wht_measure::{
        measure_plan, super_pass_traffic, time_plan, MeasureOptions, Measurement, SimMachine,
        SuperPassTraffic, TimingConfig,
    };
    pub use wht_models::{
        analytic_misses, instruction_count, op_counts, CombinedModel, CostModel, ModelCache,
    };
    pub use wht_parallel::{
        measure_sweep, par_apply_batch, par_apply_batch_on, par_apply_compiled,
        par_apply_compiled_on, par_apply_plan, PoolStats, Threads, WorkerPool,
    };
    pub use wht_search::{
        atomic_write, dp_search, memo_search, pruned_search, random_search, CombinedModelCost,
        CostVec, CostWeights, DpOptions, FusedTrafficCost, InstructionCost, MemoTable, PlanCost,
        PlanProvenance, Planner, ShardedStore, SimCyclesCost, StoreDiagnostic, StoreLoad,
        WallClockCost, Wisdom,
    };
    pub use wht_space::{plan_count, sample_plans_seeded, Sampler};
    pub use wht_stats::{describe, pearson, Histogram, PruneCurve};
}
