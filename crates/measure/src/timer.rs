//! Wall-clock timing of the real execution engine.
//!
//! Substitute for the paper's PAPI cycle counter: the same quantity
//! (time to apply one WHT) measured with the monotonic clock on the host
//! CPU instead of a hardware cycle register. Methodology: warmup runs, then
//! `reps` timed blocks, reporting the **median** block time (robust to
//! scheduler noise) normalized per transform.
//!
//! Because the WHT is applied in place, repeated application grows values
//! by a factor of `N` each time and would overflow `f64` after ~50
//! applications at n = 20. Each timed block therefore applies the transform
//! `iters_per_block` times (chosen so the growth stays finite) and the
//! buffer is refilled from the pristine input between blocks, *outside* the
//! timed region.

use std::time::Instant;
use wht_core::{apply_plan_recursive, Plan, WhtError};

/// Timing methodology parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingConfig {
    /// Untimed warmup transforms (page in the buffer, train the branch
    /// predictors, populate caches).
    pub warmup: usize,
    /// Timed blocks; the median block is reported.
    pub reps: usize,
    /// Transforms per timed block, or 0 to auto-size so that one block
    /// neither overflows `f64` nor takes unmeasurably little time.
    pub iters_per_block: usize,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            warmup: 2,
            reps: 5,
            iters_per_block: 0,
        }
    }
}

impl TimingConfig {
    /// Quick preset for tests and smoke runs.
    pub fn fast() -> Self {
        TimingConfig {
            warmup: 1,
            reps: 3,
            iters_per_block: 0,
        }
    }

    /// Resolve `iters_per_block` for a transform of size `2^n`.
    ///
    /// `f64` holds up to ~1e308 = 2^1023 and each application multiplies
    /// magnitudes by at most `2^n`, so `900 / n` applications are safe from
    /// a unit-scale start; small transforms get more iterations per block so
    /// a block is long enough to time reliably.
    pub fn resolved_iters(&self, n: u32) -> usize {
        if self.iters_per_block > 0 {
            return self.iters_per_block;
        }
        let overflow_cap = (900 / n.max(1)) as usize;
        // Target at least ~2^22 butterflies per block for clock resolution.
        let per_run = u64::from(n) << n;
        let for_resolution = ((1u64 << 22) / per_run.max(1)).max(1) as usize;
        for_resolution.min(overflow_cap).max(1)
    }
}

/// Result of timing one plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingResult {
    /// Median time per single transform, in nanoseconds.
    pub median_ns: f64,
    /// Fastest observed time per transform, in nanoseconds.
    pub min_ns: f64,
    /// Number of timed blocks.
    pub reps: usize,
    /// Transforms per block after resolution.
    pub iters_per_block: usize,
}

/// Time the recursive *interpreter* on `plan`, on freshly allocated data.
///
/// This deliberately times [`apply_plan_recursive`] — the paper's measured
/// artifact — so that wall-clock numbers stay consistent with the
/// instrumented counts and traces in one [`crate::Measurement`], which are
/// all derived from the recursive loop nest. The compiled execution
/// layer is timed by perfbench (`perfbench/` at the repository root).
///
/// # Errors
/// [`WhtError::InvalidConfig`] for zero `reps`.
pub fn time_plan(plan: &Plan, cfg: &TimingConfig) -> Result<TimingResult, WhtError> {
    if cfg.reps == 0 {
        return Err(WhtError::InvalidConfig("reps must be >= 1".into()));
    }
    let n = plan.n();
    let size = 1usize << n;
    let iters = cfg.resolved_iters(n);

    // Pristine input: unit-scale pseudo-random values, fixed seed.
    let pristine: Vec<f64> = (0..size)
        .map(|j| {
            let h = (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 40) as f64) / ((1u64 << 24) as f64) - 0.5
        })
        .collect();
    let mut buf = pristine.clone();

    for _ in 0..cfg.warmup {
        apply_plan_recursive(plan, &mut buf)?;
    }

    let mut per_transform: Vec<f64> = Vec::with_capacity(cfg.reps);
    for _ in 0..cfg.reps {
        buf.copy_from_slice(&pristine);
        let start = Instant::now();
        for _ in 0..iters {
            apply_plan_recursive(plan, &mut buf)?;
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        per_transform.push(elapsed / iters as f64);
    }
    per_transform.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    let median_ns = per_transform[per_transform.len() / 2];
    let min_ns = per_transform[0];
    Ok(TimingResult {
        median_ns,
        min_ns,
        reps: cfg.reps,
        iters_per_block: iters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_reports_positive_times() {
        let plan = Plan::right_recursive(8).unwrap();
        let r = time_plan(&plan, &TimingConfig::fast()).unwrap();
        assert!(r.median_ns > 0.0);
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert_eq!(r.reps, 3);
    }

    #[test]
    fn iteration_resolution_respects_overflow_cap() {
        let cfg = TimingConfig::default();
        // n = 20: cap = 900/20 = 45 blocks.
        assert!(cfg.resolved_iters(20) <= 45);
        // small n: many iterations for resolution, but bounded by cap.
        assert!(cfg.resolved_iters(2) <= 450);
        assert!(cfg.resolved_iters(2) > 10);
        // explicit override wins:
        let fixed = TimingConfig {
            iters_per_block: 7,
            ..TimingConfig::default()
        };
        assert_eq!(fixed.resolved_iters(20), 7);
    }

    #[test]
    fn zero_reps_rejected() {
        let plan = Plan::leaf(3).unwrap();
        let cfg = TimingConfig {
            reps: 0,
            ..TimingConfig::default()
        };
        assert!(matches!(
            time_plan(&plan, &cfg),
            Err(WhtError::InvalidConfig(_))
        ));
    }

    #[test]
    fn bigger_transforms_take_longer() {
        let cfg = TimingConfig::fast();
        let small = time_plan(&Plan::right_recursive(6).unwrap(), &cfg).unwrap();
        let large = time_plan(&Plan::right_recursive(14).unwrap(), &cfg).unwrap();
        assert!(
            large.median_ns > small.median_ns,
            "2^14 ({}) should beat 2^6 ({}) comfortably",
            large.median_ns,
            small.median_ns
        );
    }
}
