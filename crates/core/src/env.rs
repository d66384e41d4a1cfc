//! Central registry of the `WHT_*` environment knobs.
//!
//! Every executor policy used to read and parse its own environment
//! variables, each with slightly different parse behavior (one panicked on
//! malformed input, others silently defaulted). This module is the single
//! place process-environment configuration enters the workspace:
//! [`crate::compile::ExecPolicy::from_env`] reads the kill switches through
//! [`flag`] and [`threads`] reads the crew size, so every knob shares one
//! documented, tested contract:
//!
//! - A **kill switch** (`WHT_NO_*`) is *on* when the variable is set to any
//!   non-empty value other than `0` — `WHT_NO_FUSE=1` disables,
//!   `WHT_NO_FUSE=0` and `WHT_NO_FUSE=` (empty) do not.
//! - A **value knob** (`WHT_THREADS`) must parse as a plain unsigned
//!   integer; a malformed value **panics** with a message naming the
//!   variable. Silently falling back to the default would run every
//!   benchmark and transform under the wrong configuration with no signal,
//!   which is strictly worse than a crash at startup.
//!
//! ## The knobs
//!
//! | variable | effect | default |
//! |----------|--------|---------|
//! | `WHT_NO_FUSE` | kill switch: replay unfused schedules | fusion on |
//! | `WHT_NO_SIMD` | kill switch: scalar codelet loops | lane kernels on |
//! | `WHT_NO_RELAYOUT` | kill switch: large-stride tail sweeps in place | relayout on past `2^24` elements |
//! | `WHT_NO_RECODELET` | kill switch: every scheduling unit keeps one pass per factor | re-codeleting on |
//! | `WHT_NO_BATCH` | kill switch: [`apply_batch`](crate::compile::CompiledPlan::apply_batch) replays every row per-transform | batching on from 16 rows |
//! | `WHT_NO_STREAM` | kill switch: relayout/batch copy sweeps use plain cached stores | streaming stores on past `2^24` elements |
//! | `WHT_THREADS` | worker crew size for the parallel engine and bench sweeps (`0` panics) | all cores |
//!
//! Each kill switch also has an API equivalent (`*Policy::disabled()`)
//! that *pins* the choice per call site, and the other stage settings
//! (tile budgets, thresholds, codelet caps) exist only in the API. The
//! environment configures the process-wide default that
//! [`crate::apply_plan`] snapshots once. An explicit
//! [`crate::compile::ExecPolicy`] replaces that snapshot, and nothing
//! else does: wisdom carries plans, not policy.

/// `true` when kill-switch variable `name` is set on: any non-empty value
/// other than `0`.
pub fn flag(name: &str) -> bool {
    flag_value(std::env::var(name).ok().as_deref())
}

/// The pure kill-switch predicate behind [`flag`] (`None` = unset).
/// Factored out so tests can pin the contract without mutating the
/// process environment under a threaded test runner.
pub fn flag_value(raw: Option<&str>) -> bool {
    raw.is_some_and(|v| !v.is_empty() && v != "0")
}

/// The strict value-knob parse: surrounding whitespace is tolerated,
/// anything else panics with a message naming the knob (see the module
/// docs for why malformed knobs crash instead of defaulting).
fn parse_value(name: &str, raw: &str) -> usize {
    raw.trim()
        .parse()
        .unwrap_or_else(|_| panic!("{name} must be an unsigned integer, got {raw:?}"))
}

/// The process-wide worker crew size: `WHT_THREADS` when set (strict
/// parse, and `0` is rejected — a zero-thread crew can make no progress),
/// else [`std::thread::available_parallelism`]. Both the parallel engine's
/// `Threads::default()` and the bench binaries resolve their crew size
/// here, so the two can never disagree.
///
/// # Panics
/// If `WHT_THREADS` is set but malformed or `0`.
pub fn threads() -> usize {
    threads_value(
        std::env::var("WHT_THREADS").ok().as_deref(),
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1),
    )
}

/// The pure resolution behind [`threads`] (`None` = unset → `fallback`).
/// A set-but-empty value also falls back: CI matrixes express "this leg
/// does not pin the crew" as `WHT_THREADS: ''`, mirroring how the kill
/// switches treat empty as off.
///
/// # Panics
/// On malformed or zero values, naming the knob.
pub fn threads_value(raw: Option<&str>, fallback: usize) -> usize {
    match raw {
        None => fallback,
        Some(v) if v.trim().is_empty() => fallback,
        Some(v) => {
            let n = parse_value("WHT_THREADS", v);
            assert!(n != 0, "WHT_THREADS must be at least 1, got 0");
            n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_switch_contract() {
        assert!(!flag_value(None), "unset is off");
        assert!(!flag_value(Some("")), "empty is off");
        assert!(!flag_value(Some("0")), "explicit zero is off");
        for on in ["1", "true", "yes", "2", " "] {
            assert!(flag_value(Some(on)), "{on:?} must switch on");
        }
    }

    #[test]
    fn value_knobs_parse_strictly() {
        assert_eq!(parse_value("WHT_THREADS", "4096"), 4096);
        assert_eq!(parse_value("WHT_THREADS", " 512 "), 512);
        assert_eq!(parse_value("WHT_THREADS", "0"), 0);
    }

    #[test]
    #[should_panic(expected = "WHT_THREADS")]
    fn malformed_value_panics_naming_the_knob() {
        parse_value("WHT_THREADS", "32k");
    }

    /// The crew-size resolution goes through the same strict parse: a
    /// negative count is refused, not clamped.
    #[test]
    #[should_panic(expected = "WHT_THREADS")]
    fn every_knob_shares_the_strict_contract() {
        threads_value(Some("-3"), 4);
    }

    #[test]
    fn threads_resolution_contract() {
        assert_eq!(threads_value(None, 7), 7, "unset falls back to all cores");
        assert_eq!(threads_value(Some(""), 7), 7, "empty counts as unset");
        assert_eq!(threads_value(Some("3"), 7), 3);
        assert_eq!(threads_value(Some(" 12 "), 1), 12);
    }

    #[test]
    #[should_panic(expected = "WHT_THREADS")]
    fn malformed_threads_panics() {
        threads_value(Some("two"), 4);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threads_panics() {
        threads_value(Some("0"), 4);
    }
}
