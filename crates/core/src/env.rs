//! The crew-size knob, `WHT_THREADS`, and its parse contract.
//!
//! A **value knob** must parse as a plain unsigned integer; a malformed
//! value **panics** with a message naming the variable. Silently falling
//! back to the default would run every benchmark and transform under the
//! wrong configuration with no signal, which is strictly worse than a
//! crash at startup. Unset or empty means "not pinned".
//!
//! | variable | effect | default |
//! |----------|--------|---------|
//! | `WHT_THREADS` | worker crew size for the parallel engine and bench sweeps (`0` panics) | all cores |
//!
//! How a schedule is lowered is not an environment setting: it is the
//! [`ExecPolicy`](crate::compile::ExecPolicy) passed in code, and
//! `ExecPolicy::default()` wherever none is passed.

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
/// A set-but-empty value also falls back, so `WHT_THREADS=` means "not
/// pinned".
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
