//! # wht-search — search over the WHT algorithm space
//!
//! The WHT package's generate-and-test machinery and the paper's
//! model-based pruning:
//!
//! * [`cost`] — pluggable cost backends: instruction model, combined
//!   `alpha*I + beta*M` model, fusion-aware traffic model (scores the
//!   cache-blocked schedule the compiled executor actually replays),
//!   deterministic simulated cycles, wall clock. Each scores one
//!   transform under fixed weights; the model backends also report the
//!   (work, traffic) terms behind their cost as a [`CostVec`], which the
//!   memo stamps on each winner;
//! * [`dp`] — the package's dynamic-programming autotuner (the source of
//!   the paper's "best" algorithms), kept as the evaluate-everything
//!   baseline;
//! * [`memo`] — the cascades-style rebuild of that search: a persistent
//!   [`MemoTable`] of per-span groups with branch-and-bound pruning
//!   ([`PlanCost::compose_lower_bound`]) and per-group provenance, same
//!   answers as [`dp_search`] at a fraction of the evaluations;
//! * [`strategies`] — exhaustive search (small sizes), uniform random
//!   search, and the paper's model-pruned search;
//! * [`planner`] — the production facade: a [`Planner`] owning a cost
//!   backend, amortizing memoized search across calls through an
//!   FFTW-style [`Wisdom`] cache of winning plans and serving transforms
//!   from compiled pass schedules;
//! * [`store`] — the crash-safe persistence layer under that cache (see
//!   the contract below);
//! * [`failpoints`] — the hermetic fault-injection layer that proves the
//!   store's claims.
//!
//! ## Wisdom persistence & crash-safety contract
//!
//! The durable form of [`Wisdom`] is a [`ShardedStore`]: a directory of
//! per-`(n, cost-backend, host-fingerprint)` shard files, each a 36-byte
//! header (magic `WHTSHRD\0`, container version, write stamp, payload
//! length, FNV-1a 64 checksum) over a single-entry wisdom JSON payload.
//! The guarantees, in order of line of defense:
//!
//! 1. **Atomic commit** ([`atomic_write`]): every shard (and
//!    `wht-bench`'s `BENCH_*.json` artifacts) is written temp-file →
//!    fsync → rename → dir-fsync. A crash at any byte leaves the previous
//!    committed file intact; uncommitted temp files are never loaded.
//! 2. **Detection** ([`decode_shard`]): a shard damaged anyway —
//!    truncated, bit-flipped, bad magic, another container or wisdom
//!    format version — is *detectable*, never *loadable*; the failure is
//!    a typed [`StoreDiagnostic`] (`Corrupt` / `Truncated` /
//!    `VersionUnknown` / `ChecksumMismatch` / `IoFailed`).
//! 3. **Quarantine, not failure** ([`ShardedStore::load`]): bad shards
//!    move into `quarantine/` with their diagnostic; the remaining
//!    shards merge normally (best entry per key: measured-fastest when
//!    evidence exists, else newest stamp). A load never fails as a
//!    whole and never partially applies a damaged shard.
//! 4. **Graceful degradation** ([`Planner::with_store`]): whatever the
//!    store's condition — up to 100% of shards corrupt — the planner
//!    never panics and never serves a poisoned plan; affected sizes
//!    cold-search on first use, bit-identically, and
//!    [`Planner::explain`] / [`Planner::store_diagnostics`] report what
//!    was quarantined.
//!
//! Every failure path is exercised by the fault-injection matrix
//! (`tests/fault_matrix.rs`) through [`failpoints`]: ENOSPC, short
//! writes, fsync/rename failure, and kill-at-any-byte truncation at
//! every named site of the atomic-write path, replayed over hundreds of
//! schedules. The `wht-wisdom` CLI (in `wht-bench`) exposes
//! `inspect` / `fsck` / `merge` over the same APIs.
//!
//! ```
//! use wht_search::{dp_search, DpOptions, InstructionCost};
//!
//! // Autotune size 2^10 against the instruction model:
//! let mut cost = InstructionCost::default();
//! let result = dp_search(10, &DpOptions::default(), &mut cost)?;
//! println!("best plan: {}", result.best_plan());
//! assert_eq!(result.best_plan().n(), 10);
//! # Ok::<(), wht_core::WhtError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibrate;
pub mod cost;
pub mod dp;
pub mod failpoints;
pub mod local;
pub mod memo;
pub mod planner;
pub mod store;
pub mod strategies;

pub use calibrate::{calibrate, CalibrateOptions, CalibratedCost};
pub use cost::{
    invocation_scaled_bound, CombinedModelCost, CostVec, CostWeights, FusedTrafficCost,
    InstructionCost, PlanCost, SimCyclesCost, WallClockCost,
};
pub use dp::{dp_search, split_compositions, DpOptions, DpResult};
pub use failpoints::Fault;
pub use local::{local_search, mutate, LocalSearchOptions};
pub use memo::{memo_search, memo_to_dp_result, Group, GroupProvenance, MemoResult, MemoTable};
pub use planner::{PlanProvenance, Planner, Wisdom};
pub use store::{
    atomic_write, decode_shard, encode_shard, fnv1a64, host_fingerprint, ShardedStore,
    StoreDiagnostic, StoreLoad,
};
pub use strategies::{exhaustive_search, pruned_search, random_search, PrunedSearchResult, Ranked};
