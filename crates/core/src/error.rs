//! Error type shared by all WHT crates.

use core::fmt;

/// Errors produced while constructing plans, parsing plan strings, or
/// applying a plan to data.
///
/// Every fallible public operation in the workspace returns `Result<_, WhtError>`
/// so downstream users handle one error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WhtError {
    /// A leaf codelet size `2^k` was requested with `k` outside
    /// `1..=MAX_LEAF_K` (the WHT package ships unrolled codelets
    /// `small[1]`..`small[8]` only).
    LeafSizeOutOfRange {
        /// The offending exponent.
        k: u32,
    },
    /// A split node was constructed with no children.
    EmptySplit,
    /// A split node was constructed with a single child. A one-way split is
    /// the identity factorization; the WHT package (and the algorithm count
    /// in the paper) excludes it, so we reject it at construction time.
    SingleChildSplit,
    /// The total size `2^n` of a plan exceeds [`crate::plan::MAX_N`],
    /// guarding against shift overflow and absurd allocations.
    SizeTooLarge {
        /// The offending total exponent.
        n: u32,
    },
    /// A codelet was invoked with an invalid element stride (`0`). A zero
    /// stride would make every "strided" index alias the base element —
    /// a configuration error, reported as such instead of being disguised
    /// as a buffer-length problem.
    InvalidStride {
        /// The offending stride.
        stride: usize,
    },
    /// A data buffer had the wrong length for the plan it was applied to.
    LengthMismatch {
        /// Length the plan requires (`plan.size()`).
        expected: usize,
        /// Length that was supplied.
        got: usize,
    },
    /// The plan grammar parser failed.
    Parse {
        /// Byte offset in the input at which the failure was detected.
        pos: usize,
        /// Human-readable description of what was expected.
        msg: String,
    },
    /// A configuration value (cache geometry, measurement repetitions, ...)
    /// was invalid; the message explains the constraint.
    InvalidConfig(String),
    /// A hand-built compiled schedule violates the schedule invariants
    /// `CompiledPlan::verify` proves: a part escapes its tile, tiles
    /// overlap or exceed the vector length, coverage has holes, ...
    InvalidSchedule {
        /// Index of the offending super-pass in the schedule (the
        /// schedule's length when the violation is schedule-wide).
        index: usize,
        /// The verifier's diagnostic: invariant, site, and message.
        msg: String,
    },
    /// A worker of the persistent parallel pool panicked while running
    /// a dispatched job. The dispatch is reported failed instead of
    /// deadlocking the crew or aborting the process; the data the job
    /// was transforming is left in an unspecified (but initialized)
    /// state, and the pool itself stays serviceable.
    WorkerPanicked {
        /// Crew size of the pool the job was dispatched to.
        workers: usize,
    },
    /// A filesystem operation failed (wisdom shards, benchmark
    /// artifacts, ...). The fields are owned strings rather than
    /// `std::io::Error` so the workspace error stays `Clone + Eq`.
    Io {
        /// The operation that failed (`create`, `write`, `fsync`,
        /// `rename`, ...).
        op: String,
        /// The path the operation targeted.
        path: String,
        /// The underlying failure, rendered.
        detail: String,
    },
}

impl fmt::Display for WhtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WhtError::LeafSizeOutOfRange { k } => write!(
                f,
                "leaf codelet size 2^{k} out of range (valid: 2^1..=2^{})",
                crate::plan::MAX_LEAF_K
            ),
            WhtError::EmptySplit => write!(f, "split node must have at least one child"),
            WhtError::SingleChildSplit => {
                write!(
                    f,
                    "split node with a single child is not a valid factorization"
                )
            }
            WhtError::SizeTooLarge { n } => write!(
                f,
                "plan size 2^{n} exceeds the supported maximum 2^{}",
                crate::plan::MAX_N
            ),
            WhtError::InvalidStride { stride } => {
                write!(f, "invalid codelet stride {stride}: stride must be nonzero")
            }
            WhtError::LengthMismatch { expected, got } => {
                write!(f, "data length {got} does not match plan size {expected}")
            }
            WhtError::Parse { pos, msg } => write!(f, "plan parse error at byte {pos}: {msg}"),
            WhtError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            WhtError::InvalidSchedule { index, msg } => {
                write!(f, "invalid compiled schedule at super-pass {index}: {msg}")
            }
            WhtError::WorkerPanicked { workers } => write!(
                f,
                "a parallel worker panicked mid-job ({workers}-worker pool); \
                 output buffer contents are unspecified"
            ),
            WhtError::Io { op, path, detail } => {
                write!(f, "io failure during {op} of {path}: {detail}")
            }
        }
    }
}

impl std::error::Error for WhtError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_data() {
        let e = WhtError::LeafSizeOutOfRange { k: 9 };
        assert!(e.to_string().contains("2^9"));
        let e = WhtError::LengthMismatch {
            expected: 8,
            got: 7,
        };
        assert!(e.to_string().contains('8') && e.to_string().contains('7'));
        let e = WhtError::Parse {
            pos: 3,
            msg: "expected '['".into(),
        };
        assert!(e.to_string().contains("byte 3"));
        let e = WhtError::SizeTooLarge { n: 99 };
        assert!(e.to_string().contains("2^99"));
        let e = WhtError::InvalidConfig("bad".into());
        assert!(e.to_string().contains("bad"));
        let e = WhtError::InvalidStride { stride: 0 };
        assert!(e.to_string().contains("stride 0") && e.to_string().contains("nonzero"));
        let e = WhtError::InvalidSchedule {
            index: 2,
            msg: "tiles overlap".into(),
        };
        assert!(e.to_string().contains("super-pass 2") && e.to_string().contains("tiles overlap"));
        let e = WhtError::WorkerPanicked { workers: 4 };
        assert!(e.to_string().contains("4-worker") && e.to_string().contains("panicked"));
        let e = WhtError::Io {
            op: "rename".into(),
            path: "/tmp/w.shard".into(),
            detail: "No space left on device".into(),
        };
        assert!(e.to_string().contains("rename") && e.to_string().contains("w.shard"));
        assert!(WhtError::EmptySplit.to_string().contains("at least one"));
        assert!(WhtError::SingleChildSplit
            .to_string()
            .contains("single child"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&WhtError::EmptySplit);
    }
}
