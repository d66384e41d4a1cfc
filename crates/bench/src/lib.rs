//! # wht-bench — the experiment harness
//!
//! One binary per figure of the paper (`fig01`..`fig11`), plus tables for
//! the in-text results (`table_space`, `table_theory`) and criterion
//! micro-benchmarks (see `benches/`). Run with `--release`; every binary
//! accepts the flags documented in [`args`] and writes CSV series under
//! `results/` while printing the paper-vs-reproduction comparison.
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig01` | cycle-count ratios canonical/best, n = 1..20 |
//! | `fig02` | instruction-count ratios canonical/best |
//! | `fig03` | log cache-miss ratios canonical/best |
//! | `fig04` | histograms of cycles and instructions, WHT(2^9) |
//! | `fig05` | histograms of cycles, instructions, misses, WHT(2^18) |
//! | `fig06` | scatter + rho, instructions vs cycles, n = 9 (paper: 0.96) |
//! | `fig07` | scatter + rho, instructions vs cycles, n = 18 (paper: 0.77) |
//! | `fig08` | scatter + rho, misses vs cycles, n = 18 (paper: 0.66) |
//! | `fig09` | rho(alpha, beta) surface + argmax (paper: 0.92 at 1.00/0.05) |
//! | `fig10` | percentile pruning curves vs instructions, n = 9 |
//! | `fig11` | percentile pruning curves vs alpha*I + beta*M, n = 18 |
//! | `table_space` | the O(7^n) space-size claim, exact counts |
//! | `table_theory` | model moments/extremes vs Monte-Carlo + normality |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod output;
pub mod study;

pub use args::CommonArgs;
pub use output::{ascii_histogram, ascii_scatter, ascii_table, results_dir, write_csv};
pub use study::{
    best_plans_simcycles, canonical_plans, canonical_vs_best, load_or_run_study,
    load_or_run_study_in, run_study, Study,
};
