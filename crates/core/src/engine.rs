//! The WHT execution engine: the paper's triply-nested loop, verbatim.
//!
//! Section 2 of the paper evaluates `WHT(N) * x` for a split
//! `n = n1 + ... + nt` with
//!
//! ```text
//! R = N; S = 1;
//! for i = 1, ..., t
//!     R = R / Ni;
//!     for j = 0, ..., R - 1
//!         for k = 0, ..., S - 1
//!             x[j*Ni*S + k ; stride S ; length Ni] = WHT(Ni) * (same);
//!     S = S * Ni;
//! ```
//!
//! recursing on each `WHT(Ni)` until an unrolled leaf codelet is reached.
//! The scheme is in-place and strided. [`apply_plan_recursive`] runs exactly
//! this nest over real data (the code path the measurement substrate
//! *times*), while [`traverse`] runs the identical nest with no data,
//! invoking [`ExecHooks`] callbacks — the instrumented instruction counter
//! and the cache-trace executor in `wht-measure` are hooks, so measured
//! counts and executed work can never drift apart. [`apply_plan`], the
//! production entry point, instead replays the plan's flattened pass
//! schedule from [`crate::compile`] (bit-identical output, no recursion).
//! The hooks observe the interpreter only: the paper's counters count
//! its loop nest, not the compiled schedule.
//!
//! ## Child order (WHT-package convention)
//!
//! The matrix product of Equation 1 applies its factors right-to-left, and
//! factor `i` contains `WHT(2^ni)` at stride `2^(n(i+1) + ... + nt)`. The
//! WHT package evaluates in exactly that order, so in `split[c1, ..., ct]`
//! the **last child runs first at stride 1** and `c1` runs last at the
//! largest stride. (All factors commute, so any order computes the same
//! transform — but the order fixes which child gets which stride, which is
//! what distinguishes the canonical algorithms: `right_recursive =
//! split[small[1], W(n-1)]` recurses on *contiguous halves* and combines
//! with one large-stride pass, while `left_recursive = split[W(n-1),
//! small[1]]` does a pairwise pass and then recurses *interleaved* at
//! doubled stride — the cache-hostile shape the paper finds off-scale slow
//! at n = 18.)

use crate::codelets::apply_codelet;
use crate::compile::compiled_for;
use crate::error::WhtError;
use crate::plan::Plan;
use crate::scalar::Scalar;

/// Compute `x <- WHT(2^n) * x` in place using the algorithm described by
/// `plan`.
///
/// Since the compiled-plan layer landed, this delegates through a
/// lazily-compiled, per-thread-cached pass schedule
/// ([`crate::compile::compiled_for`]): first use of a plan pays one tree
/// walk, every later call replays the flat schedule with zero recursion.
/// The schedule is lowered under `ExecPolicy::default()`, so it is
/// **fused by default** — consecutive small-stride passes are merged into
/// cache-blocked super-passes under the default
/// [`crate::compile::FusionPolicy`] (call
/// [`crate::compile::compiled_for_exec`] for any other policy). The
/// result is bit-identical to the recursive interpreter either way (see
/// the `compile` module docs); callers that specifically want the paper's
/// interpreted loop nest — the artifact the measurement substrate times —
/// use [`apply_plan_recursive`].
///
/// # Errors
/// [`WhtError::LengthMismatch`] unless `x.len() == plan.size()`.
pub fn apply_plan<T: Scalar>(plan: &Plan, x: &mut [T]) -> Result<(), WhtError> {
    compiled_for(plan).apply(x)
}

/// Compute `x <- WHT(2^n) * x` in place by *interpreting* the split tree —
/// the paper's recursive loop nest, verbatim (the module docs' pseudocode).
///
/// This is the measured artifact of the reproduction: after one length
/// check here, all inner loads/stores are unchecked (see the safety
/// argument on `apply_rec`). Production callers want [`apply_plan`], which
/// replays the compiled schedule instead.
///
/// # Errors
/// [`WhtError::LengthMismatch`] unless `x.len() == plan.size()`.
pub fn apply_plan_recursive<T: Scalar>(plan: &Plan, x: &mut [T]) -> Result<(), WhtError> {
    if x.len() != plan.size() {
        return Err(WhtError::LengthMismatch {
            expected: plan.size(),
            got: x.len(),
        });
    }
    apply_rec(plan, x, 0, 1);
    Ok(())
}

/// Recursive worker for [`apply_plan`].
///
/// Invariant (proved by induction, checked in debug builds): every call
/// satisfies `base + (2^n - 1) * stride < x.len()` where `n = plan.n()`.
/// The top-level call has `base = 0, stride = 1, 2^n = x.len()`. For a child
/// invocation `(i, j, k)` of a split, the maximal touched index is
/// `base + ((R-1)*Ni*S + (S-1) + (Ni-1)*S) * stride = base + (R*Ni*S - 1) * stride`,
/// and `R*Ni*S = 2^n` at every step of the loop, so the bound is preserved.
fn apply_rec<T: Scalar>(plan: &Plan, x: &mut [T], base: usize, stride: usize) {
    debug_assert!(base + (plan.size() - 1) * stride < x.len());
    match plan {
        Plan::Leaf { k } => {
            // SAFETY: the induction invariant above is exactly the codelet
            // contract, and `k` is validated at plan construction.
            unsafe { apply_codelet(*k, x, base, stride) };
        }
        Plan::Split { n, children } => {
            let mut r = 1usize << n;
            let mut s = 1usize;
            // Children run right-to-left: the last child at stride 1 first
            // (the WHT package's factor order; see the module docs).
            for child in children.iter().rev() {
                let ni = 1usize << child.n();
                r /= ni;
                for j in 0..r {
                    for k in 0..s {
                        apply_rec(child, x, base + (j * ni * s + k) * stride, s * stride);
                    }
                }
                s *= ni;
            }
        }
    }
}

/// Observation points for [`traverse`].
///
/// The default methods do nothing, so implementors override only what they
/// need (e.g. the trace executor only overrides [`ExecHooks::leaf_call`]).
/// Callback order is the exact execution order of
/// [`apply_plan_recursive`].
pub trait ExecHooks {
    /// A split node of size `2^n` with `t` children begins one invocation.
    #[inline]
    fn enter_split(&mut self, n: u32, t: usize) {
        let _ = (n, t);
    }

    /// Within the current split invocation, child `i` (of size `2^child_n`)
    /// is about to be applied `r * s` times (`j` loop of `r` iterations,
    /// `k` loop of `s` iterations). Called once per child per invocation,
    /// *before* the `j`/`k` loops run.
    #[inline]
    fn child_loops(&mut self, child_n: u32, r: usize, s: usize) {
        let _ = (child_n, r, s);
    }

    /// A leaf codelet `small[k]` is invoked at `(base, stride)` — one call
    /// per actual codelet execution, in execution order.
    #[inline]
    fn leaf_call(&mut self, k: u32, base: usize, stride: usize) {
        let _ = (k, base, stride);
    }
}

/// Run the engine's exact loop nest without touching data, reporting every
/// step to `hooks`. Used by the instrumented instruction counter and the
/// cache-trace executor.
///
/// The `(base, stride)` arguments passed to [`ExecHooks::leaf_call`] are
/// element indices into the conceptual in-place vector of `plan.size()`
/// elements, identical to the indices [`apply_plan_recursive`] touches.
pub fn traverse<H: ExecHooks>(plan: &Plan, hooks: &mut H) {
    traverse_rec(plan, 0, 1, hooks);
}

fn traverse_rec<H: ExecHooks>(plan: &Plan, base: usize, stride: usize, hooks: &mut H) {
    match plan {
        Plan::Leaf { k } => hooks.leaf_call(*k, base, stride),
        Plan::Split { n, children } => {
            hooks.enter_split(*n, children.len());
            let mut r = 1usize << n;
            let mut s = 1usize;
            // Same right-to-left child order as `apply_rec`.
            for child in children.iter().rev() {
                let ni = 1usize << child.n();
                r /= ni;
                hooks.child_loops(child.n(), r, s);
                for j in 0..r {
                    for k in 0..s {
                        traverse_rec(child, base + (j * ni * s + k) * stride, s * stride, hooks);
                    }
                }
                s *= ni;
            }
        }
    }
}

/// Convenience wrapper over [`traverse`]: call `f(k, base, stride)` for each
/// leaf codelet invocation in execution order.
pub fn for_each_leaf_call<F: FnMut(u32, usize, usize)>(plan: &Plan, f: F) {
    struct Fn1<F>(F);
    impl<F: FnMut(u32, usize, usize)> ExecHooks for Fn1<F> {
        #[inline]
        fn leaf_call(&mut self, k: u32, base: usize, stride: usize) {
            (self.0)(k, base, stride)
        }
    }
    let mut h = Fn1(f);
    traverse(plan, &mut h);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{max_abs_diff, naive_wht};

    fn test_signal(n: u32) -> Vec<f64> {
        (0..1usize << n)
            .map(|j| ((j * 2654435761usize) % 1000) as f64 / 250.0 - 2.0)
            .collect()
    }

    #[test]
    fn length_mismatch_rejected() {
        let plan = Plan::iterative(4).unwrap();
        let mut x = vec![0.0f64; 15];
        assert_eq!(
            apply_plan(&plan, &mut x),
            Err(WhtError::LengthMismatch {
                expected: 16,
                got: 15
            })
        );
    }

    #[test]
    fn canonical_plans_match_naive() {
        for n in 1..=10u32 {
            let input = test_signal(n);
            let want = naive_wht(&input);
            for plan in [
                Plan::iterative(n).unwrap(),
                Plan::right_recursive(n).unwrap(),
                Plan::left_recursive(n).unwrap(),
                Plan::balanced(n, 3).unwrap(),
                Plan::binary_iterative(n, 4).unwrap(),
            ] {
                let mut got = input.clone();
                apply_plan(&plan, &mut got).unwrap();
                assert!(
                    max_abs_diff(&got, &want) < 1e-9,
                    "plan {plan} wrong at n={n}"
                );
            }
        }
    }

    #[test]
    fn single_leaf_plan_works() {
        for k in 1..=8u32 {
            let plan = Plan::leaf(k).unwrap();
            let input = test_signal(k);
            let mut got = input.clone();
            apply_plan(&plan, &mut got).unwrap();
            assert!(max_abs_diff(&got, &naive_wht(&input)) < 1e-9);
        }
    }

    #[test]
    fn deep_unbalanced_plan_matches_naive() {
        // split[small[2], split[small[1], split[small[3], small[1]]], small[1]]
        let inner2 = Plan::split(vec![Plan::leaf(3).unwrap(), Plan::leaf(1).unwrap()]).unwrap();
        let inner1 = Plan::split(vec![Plan::leaf(1).unwrap(), inner2]).unwrap();
        let plan =
            Plan::split(vec![Plan::leaf(2).unwrap(), inner1, Plan::leaf(1).unwrap()]).unwrap();
        assert_eq!(plan.n(), 8);
        let input = test_signal(8);
        let mut got = input.clone();
        apply_plan(&plan, &mut got).unwrap();
        assert!(max_abs_diff(&got, &naive_wht(&input)) < 1e-9);
    }

    #[test]
    fn self_inverse_property() {
        let plan = Plan::right_recursive(8).unwrap();
        let input = test_signal(8);
        let mut x = input.clone();
        apply_plan(&plan, &mut x).unwrap();
        apply_plan(&plan, &mut x).unwrap();
        let n = 1usize << 8;
        for (a, b) in x.iter().zip(input.iter()) {
            assert!((a - b * n as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn traverse_leaf_calls_cover_all_elements_each_level() {
        // For any plan, the leaf calls at a given "tensor level" partition
        // the index space; in total each element is touched once per leaf
        // level on its root-to-leaf path. Easy exact check: for the
        // iterative plan of size 2^n there are n levels, each touching all
        // N elements exactly once (as size-2 transforms of N/2 calls).
        let n = 6u32;
        let plan = Plan::iterative(n).unwrap();
        let mut touches = vec![0usize; 1 << n];
        for_each_leaf_call(&plan, |k, base, stride| {
            assert_eq!(k, 1);
            for j in 0..2usize {
                touches[base + j * stride] += 1;
            }
        });
        assert!(touches.iter().all(|&c| c == n as usize));
    }

    #[test]
    fn traverse_call_count_matches_formula() {
        // Right-recursive plan of size 2^n: leaf small[1] at depth d is
        // invoked 2^(n-1) times total; total leaf calls = n * 2^(n-1).
        let n = 10u32;
        let plan = Plan::right_recursive(n).unwrap();
        let mut calls = 0usize;
        for_each_leaf_call(&plan, |_, _, _| calls += 1);
        assert_eq!(calls, (n as usize) * (1 << (n - 1)));
    }

    #[test]
    fn hooks_see_split_structure() {
        #[derive(Default)]
        struct Counter {
            splits: usize,
            child_loops: usize,
            leaves: usize,
        }
        impl ExecHooks for Counter {
            fn enter_split(&mut self, _n: u32, _t: usize) {
                self.splits += 1;
            }
            fn child_loops(&mut self, _c: u32, _r: usize, _s: usize) {
                self.child_loops += 1;
            }
            fn leaf_call(&mut self, _k: u32, _b: usize, _s: usize) {
                self.leaves += 1;
            }
        }
        // split[small[1], small[2]] size 8: one split invocation, 2 child
        // loops. Right-to-left execution: small[2] first (r=2, s=1, 2 leaf
        // calls at stride 1), then small[1] (r=1, s=4, 4 leaf calls at
        // stride 4): 6 leaf calls.
        let plan = Plan::split(vec![Plan::leaf(1).unwrap(), Plan::leaf(2).unwrap()]).unwrap();
        let mut c = Counter::default();
        traverse(&plan, &mut c);
        assert_eq!(c.splits, 1);
        assert_eq!(c.child_loops, 2);
        assert_eq!(c.leaves, 6);
    }

    #[test]
    fn f32_and_i64_engines_agree_with_f64() {
        let n = 7u32;
        let plan = Plan::balanced(n, 2).unwrap();
        let ints: Vec<i64> = (0..1i64 << n).map(|j| (j * 13 % 23) - 11).collect();

        let mut xi = ints.clone();
        apply_plan(&plan, &mut xi).unwrap();

        let mut xf: Vec<f64> = ints.iter().map(|&v| v as f64).collect();
        apply_plan(&plan, &mut xf).unwrap();

        for (i, f) in xi.iter().zip(xf.iter()) {
            assert_eq!(*i as f64, *f);
        }
    }
}
