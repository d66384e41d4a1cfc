//! # wht-core — the WHT algorithm family
//!
//! Core of the reproduction of *Performance Analysis of a Family of WHT
//! Algorithms* (Andrews & Johnson, 2007): the algorithm space of the
//! Johnson–Püschel WHT package and the execution engine the paper measures.
//!
//! The Walsh–Hadamard transform of a signal `x` of size `N = 2^n` is the
//! matrix–vector product `WHT(N) · x` where `WHT(N)` is the n-fold Kronecker
//! power of `DFT(2) = [[1, 1], [1, -1]]`. Algorithms are derived from the
//! factorization (the paper's Equation 1)
//!
//! ```text
//! WHT(2^n) = prod_{i=1..t} ( I(2^{n1+...+n(i-1)}) ⊗ WHT(2^{ni}) ⊗ I(2^{n(i+1)+...+nt}) )
//! ```
//!
//! so each algorithm is a [`Plan`]: a *split tree* whose internal nodes are
//! ordered compositions of `n` and whose leaves are unrolled codelets
//! (`small[1]`..`small[8]`).
//!
//! ## Quick start
//!
//! ```
//! use wht_core::{apply_plan, naive_wht, Plan};
//!
//! // A three-way split algorithm for size 2^6 = 64:
//! let plan: Plan = "split[small[2],small[2],small[2]]".parse()?;
//!
//! let mut x: Vec<f64> = (0..64).map(|v| v as f64).collect();
//! let reference = naive_wht(&x);
//! apply_plan(&plan, &mut x)?;
//! assert_eq!(x, reference);
//! # Ok::<(), wht_core::WhtError>(())
//! ```
//!
//! ## Module map
//!
//! | module | contents |
//! |--------|----------|
//! | [`plan`] | the [`Plan`] split tree, canonical algorithms, invariants |
//! | [`parse`] | WHT-package plan grammar (`split[small[1],...]` strings) |
//! | [`codelets`] | unrolled base cases `small[1]`..`small[8]`, the SIMD lane-block backend ([`SimdPolicy`]), and the batch path's lane transposes |
//! | [`engine`] | the triply-nested-loop interpreter ([`apply_plan_recursive`]) and the hook-based traversal ([`traverse`]) instrumentation builds on |
//! | [`compile`] | flattened pass schedules and the staged lowering pipeline: [`CompiledPlan`] compilation, the [`ExecPolicy`]-driven stage chain of [`CompiledPlan::lower`] — fuse ([`FusionPolicy`], [`SuperPass`]) → the in-place column tail, chunk by chunk ([`RelayoutPolicy`], [`ColumnTail`]) → re-codelet ([`RecodeletPolicy`]) → kernel backend selection ([`PassBackend`]) → batch ([`BatchPolicy`]) → stream ([`StreamPolicy`]) — per-unit stage [`Provenance`], the zero-recursion executor behind [`apply_plan`], the per-thread `(plan, ExecPolicy)` schedule cache |
//! | [`mod@env`] | the `WHT_THREADS` crew-size knob and its strict parse contract |
//! | [`srht`] | SRHT sketching ([`Srht`]): Rademacher signs and subsampling fused into the batched executor's transposes |
//! | [`mod@reference`] | `O(N^2)` ground truth ([`naive_wht`]) and test helpers |
//! | [`testkit`] | shared test scaffolding: seeded random-plan generator, `O(n·2^n)` fast reference transform, deterministic signals |
//! | [`verify`] | static schedule verifier: proves bounds, write-disjointness, and coverage (the level chain: the interpreter's radix-2 levels, once each and in order) of a lowered schedule ([`CompiledPlan::verify`], [`VerifyDiagnostic`]); the gate [`CompiledPlan::from_super_passes`] applies to hand-built schedules |
//! | [`ordering`] | natural (Hadamard) vs sequency (Walsh) ordering |
//! | [`scalar`] | element types: `f64` (default), `f32`, `i64`, `i32` |

#![warn(missing_docs)]

pub mod codelets;
pub mod compile;
pub mod dyadic;
pub mod engine;
pub mod env;
pub mod error;
pub mod ordering;
pub mod parse;
pub mod plan;
pub mod reference;
pub mod scalar;
pub mod srht;
pub mod testkit;
pub mod twod;
pub mod verify;

pub use codelets::{
    apply_codelet_checked, apply_codelet_cols, apply_codelet_generic, apply_pass_lanes, lane_width,
    SimdPolicy,
};
pub use compile::{
    compiled_for, compiled_for_exec, BatchPolicy, BatchSchedule, ColumnTail, CompiledPlan,
    ExecPolicy, FusionPolicy, Pass, PassBackend, Provenance, RecodeletPolicy, RelayoutPolicy,
    StreamPolicy, SuperPass,
};
pub use dyadic::{dyadic_autocorrelation, dyadic_convolution, dyadic_convolution_naive};
pub use engine::{apply_plan, apply_plan_recursive, for_each_leaf_call, traverse, ExecHooks};
pub use error::WhtError;
pub use ordering::{sequency_permutation, to_natural_order, to_sequency_order};
pub use parse::parse_plan;
pub use plan::{Plan, MAX_LEAF_K, MAX_N};
pub use reference::{max_abs_diff, naive_wht, norm_sq};
pub use scalar::Scalar;
pub use srht::Srht;
pub use twod::{apply_plan_2d, naive_wht_2d};
pub use verify::{
    verify_flat_passes, verify_schedule, VerifyDiagnostic, VerifyInvariant, VerifySite,
};
