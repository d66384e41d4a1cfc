//! The production facade: a [`Planner`] that amortizes search across
//! millions of transforms via an FFTW-style **wisdom** cache.
//!
//! The paper's pipeline — search the algorithm space with a cost model,
//! then run the winner — assumes search cost is paid rarely and execution
//! cost constantly. This module packages that contract:
//!
//! 1. [`Planner::transform`] looks up the best known plan for the input's
//!    size in its [`Wisdom`] store; on a miss it runs the memoized
//!    branch-and-bound search ([`crate::memo_search`]) against the
//!    planner's cost backend **once**, recording the best plan of *every*
//!    size up to `n` (the memo solves them all anyway). The [`MemoTable`]
//!    persists inside the planner, so a later, larger search only solves
//!    the spans it has never seen, and [`Planner::explain`] can say which
//!    composition won each searched size and why.
//! 2. The chosen plan is lowered through the staged pipeline of
//!    `wht_core::compile` under one **resolved** [`ExecPolicy`]
//!    (fuse → relayout → re-codelet → kernel backend → batch), and the
//!    compiled schedule is cached — steady-state traffic is a wisdom hit
//!    plus a flat schedule replay: zero cost evaluations, zero tree
//!    walks.
//! 3. Wisdom round-trips through JSON ([`Wisdom::to_json`] /
//!    [`Wisdom::from_json`], or [`Wisdom::save`] / [`Wisdom::load`]), so a
//!    fleet can ship pre-tuned wisdom and a fresh process starts warm —
//!    the FFTW `wisdom` workflow, keyed by `(n, cost-backend name)`. Each
//!    entry records the executor [`Tuning`] it was recorded with, and an
//!    importing planner replays that configuration per size.
//!
//! ## How a policy is resolved
//!
//! Every executor knob resolves through one rule —
//! [`wht_core::resolve_knob`], **API pin > wisdom > environment >
//! default** — exactly once per compiled size:
//!
//! - [`Planner::with_exec`] is the one API **pin**: the whole policy it
//!   sets beats recorded wisdom, including this planner's own earlier
//!   searches. To change one stage, pin the planner's own policy with
//!   that stage replaced (`planner.exec().with_fusion(..)`, via
//!   [`ExecPolicy`]'s builders).
//! - An unpinned but *disabled* policy (what a `WHT_NO_*` kill switch
//!   produces at construction) also beats wisdom: imported tuning must
//!   never re-enable a stage the process opted out of.
//! - Otherwise a recorded [`Tuning`] replays the recorder's
//!   configuration, and absent any record the planner's environment
//!   snapshot / defaults apply.
//!
//! ## Wisdom format history
//!
//! - **Version 7** (current): [`Tuning`] gains the `stream` field —
//!   whether the recorder's executor ran with the streaming-store /
//!   prefetch memory codelets enabled (lowering stage 6). An on/off
//!   record only: the stage's engagement threshold
//!   (`WHT_STREAM_THRESHOLD`) is host tuning, so an importer replaying
//!   `Some(true)` uses its *own* policy's threshold — and the stage is
//!   bit-identical either way, so a migrated replay cannot change
//!   output. Version-6 blobs load transparently (no choice recorded).
//! - **Version 6**: each entry gains two optional columns —
//!   `provenance` (the memo search's winning composition and candidate
//!   counts, a [`PlanProvenance`] record, so [`Planner::explain`]
//!   survives a process restart) and `measured_ns` (measured wall-clock
//!   evidence for the entry's plan; the sharded store's merge keeps the
//!   measured-fastest entry per key — see [`crate::store`]). Version-5
//!   blobs load transparently (both columns simply absent).
//! - **Version 5**: [`Tuning`] gains the `objective` field —
//!   which [`CostObjective`] weighting the recorder's vectored cost
//!   backend collapsed its terms under when the entry's plan won, or
//!   absent when the backend ran with its default weights. A planner
//!   re-aimed via [`Planner::with_objective`] treats entries recorded
//!   under a *different* objective as misses (the plan was optimal for a
//!   different collapse) while legacy planners keep reading every entry.
//!   Version-4 blobs load transparently (no objective recorded).
//! - **Version 4**: [`Tuning`] gains the `batch` field — the
//!   row-block threshold the recorder's batched executor engaged at, or
//!   `0` when batching was off. Version-3 blobs load transparently (the
//!   field is simply absent: no choice recorded).
//! - **Version 3** (PR 5): each entry carries one forward-compatible
//!   `tuning` record ([`Tuning`]) — new executor stages add fields there,
//!   never new entry-level columns. Unknown fields inside `tuning` (from
//!   newer builds) are ignored on load.
//! - **Version 2** (PR 4): flat per-entry `fuse_budget` / `simd` /
//!   `relayout` columns. Loads transparently — the flat fields migrate
//!   into a [`Tuning`] with no `recodelet` choice recorded — and
//!   re-serializes as version 3.
//! - **Version 1** (PR 2): as version 2 without `relayout`. Same
//!   migration path.
//!
//! Migrated blobs replay bit-identically: the recorded knobs resolve
//! exactly as they did when written, and the stages they predate resolve
//! to the importer's defaults (which never change output bits — every
//! lowering stage is bit-exact by construction).
//!
//! ```
//! use wht_search::{InstructionCost, Planner};
//!
//! let mut planner = Planner::new(InstructionCost::default());
//! let mut x: Vec<f64> = (0..1024).map(|v| (v % 7) as f64).collect();
//! planner.transform(&mut x)?;          // first call: DP search + compile
//! let evals_after_first = planner.evaluations();
//! planner.transform(&mut x)?;          // warm call: pure replay
//! assert_eq!(planner.evaluations(), evals_after_first);
//!
//! // Ship the tuning to another process:
//! let json = planner.wisdom().to_json();
//! let warm = wht_search::Wisdom::from_json(&json)?;
//! assert!(warm.get(10, planner.backend_name()).is_some());
//! # Ok::<(), wht_core::WhtError>(())
//! ```

use crate::cost::{CostObjective, PlanCost, VectorCost};
use crate::dp::DpOptions;
use crate::memo::{memo_search, MemoTable};
use crate::store::{atomic_write, ShardedStore, StoreDiagnostic};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;
use wht_core::{
    resolve_knob, BatchPolicy, CompiledPlan, ExecPolicy, FusionPolicy, Plan, RecodeletPolicy,
    RelayoutPolicy, Scalar, SimdPolicy, StreamPolicy, WhtError,
};

/// Per-entry executor tuning: which configuration the recorder's executor
/// actually ran when the entry's plan was chosen. One forward-compatible
/// record — every lowering stage owns one optional field, `None` meaning
/// "no choice recorded, the reader's policy applies" (distinct from a
/// recorded *off*, which replays as off).
///
/// Stored sizes are `u64` so wisdom written on 64-bit hosts loads on
/// 32-bit ones (values saturate to `usize::MAX` on conversion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Tuning {
    /// Fused-tile budget in elements; `Some(0)` = fusion was off.
    pub fuse_budget: Option<u64>,
    /// Kernel backend: `Some(true)` = the SIMD lane kernels.
    pub simd: Option<bool>,
    /// Relayout gathered-block budget in elements at this size;
    /// `Some(0)` = the recorder's executor did not gather this size.
    pub relayout: Option<u64>,
    /// Whether the re-codelet stage ran. An on/off record only: the
    /// stage's shape knobs (`max_k`, `footprint_elems`) are host tuning,
    /// so an importer replaying `Some(true)` uses its *own* policy's
    /// shape rather than the recorder's.
    pub recodelet: Option<bool>,
    /// Batched-execution row-block threshold at this size; `Some(0)` =
    /// the recorder's executor did not build a batch schedule for this
    /// size (stage off, or the size is past the batch cap).
    pub batch: Option<u64>,
    /// Whether the streaming-store / prefetch memory codelets (stage 6)
    /// were enabled in the recorder's executor. On/off only: the
    /// engagement threshold is host tuning, so an importer replaying
    /// `Some(true)` uses its *own* [`StreamPolicy`] threshold rather
    /// than the recorder's.
    pub stream: Option<bool>,
    /// The [`CostObjective`] the recorder's vectored cost backend was
    /// collapsed under when this plan won; `None` = default weights (or a
    /// pre-version-5 record). Unlike the executor knobs above this is not
    /// replayed into an [`ExecPolicy`] — it gates wisdom *reuse*: a
    /// planner aimed at a different objective must re-search, not replay
    /// a plan that was optimal for a different collapse.
    pub objective: Option<CostObjective>,
}

impl Tuning {
    /// `true` when no choice at all was recorded.
    pub fn is_empty(&self) -> bool {
        *self == Tuning::default()
    }
}

/// How a wisdom entry's plan won its memo search: the winning
/// composition and the candidate counts, lifted out of the searcher's
/// [`crate::memo::GroupProvenance`] into a serializable record so
/// [`Planner::explain`] survives a process restart (wisdom version 6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanProvenance {
    /// The winning composition's part spans (`None`: the leaf codelet
    /// won).
    pub composition: Option<Vec<u32>>,
    /// Total candidates in the group when it was solved.
    pub candidates: u64,
    /// Candidates actually cost-evaluated.
    pub evaluated: u64,
    /// Candidates pruned unevaluated by the lower bound.
    pub pruned: u64,
    /// The winner's collapsed model cost.
    pub cost: f64,
}

impl PlanProvenance {
    /// One-line human-readable account of the recorded choice — the same
    /// shape as the live memo's [`crate::memo::Group::explain`], marked
    /// as a replay so a reader can tell a restart-survived record from a
    /// this-process deliberation.
    pub fn explain(&self, m: u32) -> String {
        let via = match &self.composition {
            Some(parts) => {
                let parts: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
                format!("split[{}]", parts.join(","))
            }
            None => "leaf".to_string(),
        };
        format!(
            "2^{m}: cost={:.3} via {via}; evaluated {}/{} candidates ({} pruned) \
             [replayed from wisdom]",
            self.cost, self.evaluated, self.candidates, self.pruned
        )
    }
}

/// One best-known plan plus everything recorded with it: the executor
/// tuning, the search provenance (version 6), and measured wall-clock
/// evidence when any exists.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WisdomRecord {
    pub(crate) plan: Plan,
    pub(crate) tuning: Tuning,
    pub(crate) provenance: Option<PlanProvenance>,
    pub(crate) measured_ns: Option<u64>,
}

/// Serialized wisdom entry, current (version-7) shape: the plan travels
/// as its WHT-package grammar string (stable, human-readable, validated
/// on parse), the executor tuning as one nested [`Tuning`] record, plus
/// the optional provenance and measurement columns.
#[derive(Debug, Clone, Serialize)]
struct WisdomEntryOut {
    n: u32,
    backend: String,
    plan: String,
    tuning: Tuning,
    provenance: Option<PlanProvenance>,
    measured_ns: Option<u64>,
}

/// Permissive read-side entry covering every supported version: versions
/// 3–7 carry `tuning` (earlier records simply lack the later fields);
/// versions 1–2 carried the flat fields, which migrate into a [`Tuning`]
/// on load. Unknown fields are ignored by the JSON layer (forward
/// compatibility).
#[derive(Debug, Clone, Deserialize)]
struct WisdomEntryIn {
    n: u32,
    backend: String,
    plan: String,
    tuning: Option<Tuning>,
    provenance: Option<PlanProvenance>,
    measured_ns: Option<u64>,
    fuse_budget: Option<u64>,
    simd: Option<bool>,
    relayout: Option<u64>,
}

/// Serialized wisdom store (write side).
#[derive(Debug, Clone, Serialize)]
struct WisdomFileOut {
    version: u32,
    entries: Vec<WisdomEntryOut>,
}

/// Serialized wisdom store (read side).
#[derive(Debug, Clone, Deserialize)]
struct WisdomFileIn {
    version: u32,
    entries: Vec<WisdomEntryIn>,
}

const WISDOM_VERSION: u32 = 7;

/// Oldest wisdom format [`Wisdom::from_json`] still reads (see the module
/// docs' format history).
const WISDOM_MIN_VERSION: u32 = 1;

/// Best-known plans keyed by `(n, cost-backend name)` — the FFTW-style
/// wisdom store behind [`Planner`].
///
/// Keyed size-first so the hot lookup ([`Wisdom::get`]) borrows the
/// backend name instead of allocating a composite key per probe.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Wisdom {
    entries: HashMap<u32, HashMap<String, WisdomRecord>>,
}

impl Wisdom {
    /// Empty store.
    pub fn new() -> Self {
        Wisdom::default()
    }

    /// Number of `(size, backend)` entries.
    pub fn len(&self) -> usize {
        self.entries.values().map(HashMap::len).sum()
    }

    /// `true` when no wisdom has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Best known plan for size `2^n` under `backend`, if recorded.
    pub fn get(&self, n: u32, backend: &str) -> Option<&Plan> {
        Some(&self.entries.get(&n)?.get(backend)?.plan)
    }

    /// The executor [`Tuning`] recorded with the `(n, backend)` entry,
    /// `None` when no entry exists.
    pub fn tuning(&self, n: u32, backend: &str) -> Option<Tuning> {
        Some(self.entries.get(&n)?.get(backend)?.tuning)
    }

    /// Record (or overwrite) the best plan for `(n, backend)` with no
    /// executor tuning attached.
    ///
    /// # Errors
    /// [`WhtError::SizeTooLarge`] if `n` exceeds [`wht_core::MAX_N`];
    /// [`WhtError::LengthMismatch`] if `plan.n() != n` — wisdom for size
    /// `n` must transform size-`2^n` inputs.
    pub fn insert(&mut self, n: u32, backend: &str, plan: Plan) -> Result<(), WhtError> {
        self.insert_with_tuning(n, backend, plan, Tuning::default())
    }

    /// Record (or overwrite) the best plan for `(n, backend)`, attaching
    /// the full executor [`Tuning`] it was recorded under.
    ///
    /// # Errors
    /// [`WhtError::SizeTooLarge`] if `n` exceeds [`wht_core::MAX_N`] (a
    /// wisdom file can claim any `n`); [`WhtError::LengthMismatch`] if
    /// `plan.n() != n`.
    pub fn insert_with_tuning(
        &mut self,
        n: u32,
        backend: &str,
        plan: Plan,
        tuning: Tuning,
    ) -> Result<(), WhtError> {
        if n > wht_core::MAX_N {
            return Err(WhtError::SizeTooLarge { n });
        }
        if plan.n() != n {
            return Err(WhtError::LengthMismatch {
                expected: 1usize << n,
                got: plan.size(),
            });
        }
        self.entries.entry(n).or_default().insert(
            backend.to_string(),
            WisdomRecord {
                plan,
                tuning,
                provenance: None,
                measured_ns: None,
            },
        );
        Ok(())
    }

    /// The search provenance recorded with the `(n, backend)` entry —
    /// how its plan won — or `None` when no entry exists or the entry
    /// predates wisdom version 6.
    pub fn provenance(&self, n: u32, backend: &str) -> Option<&PlanProvenance> {
        self.entries.get(&n)?.get(backend)?.provenance.as_ref()
    }

    /// Attach search provenance to an existing `(n, backend)` entry.
    pub(crate) fn set_provenance(&mut self, n: u32, backend: &str, provenance: PlanProvenance) {
        if let Some(record) = self.entries.get_mut(&n).and_then(|b| b.get_mut(backend)) {
            record.provenance = Some(provenance);
        }
    }

    /// Measured wall-clock evidence (nanoseconds) recorded with the
    /// `(n, backend)` entry, if any. The sharded store's merge keeps the
    /// measured-fastest entry per key.
    pub fn measured_ns(&self, n: u32, backend: &str) -> Option<u64> {
        self.entries.get(&n)?.get(backend)?.measured_ns
    }

    /// Record measured wall-clock evidence for the `(n, backend)` entry's
    /// plan — the adaptive-feedback input to the store's
    /// measured-fastest merge.
    ///
    /// # Errors
    /// [`WhtError::InvalidConfig`] when no entry exists to attach the
    /// measurement to.
    pub fn record_measurement(&mut self, n: u32, backend: &str, ns: u64) -> Result<(), WhtError> {
        match self.entries.get_mut(&n).and_then(|b| b.get_mut(backend)) {
            Some(record) => {
                record.measured_ns = Some(ns);
                Ok(())
            }
            None => Err(WhtError::InvalidConfig(format!(
                "no wisdom entry for (n={n}, backend={backend}) to attach a measurement to"
            ))),
        }
    }

    /// Every `(n, backend)` key currently recorded (unsorted).
    pub fn entry_keys(&self) -> Vec<(u32, String)> {
        self.entries
            .iter()
            .flat_map(|(n, backends)| backends.keys().map(|b| (*n, b.clone())))
            .collect()
    }

    /// Consume the store into its records.
    pub(crate) fn into_records(self) -> impl Iterator<Item = (u32, String, WisdomRecord)> {
        self.entries.into_iter().flat_map(|(n, backends)| {
            backends
                .into_iter()
                .map(move |(backend, record)| (n, backend, record))
        })
    }

    /// Insert a full record, replacing any existing `(n, backend)` entry.
    pub(crate) fn insert_record(&mut self, n: u32, backend: &str, record: WisdomRecord) {
        self.entries
            .entry(n)
            .or_default()
            .insert(backend.to_string(), record);
    }

    /// The single `(n, backend)` entry rendered as a current-version
    /// wisdom JSON document — the payload of one store shard.
    pub(crate) fn entry_json(&self, n: u32, backend: &str) -> Option<String> {
        let record = self.entries.get(&n)?.get(backend)?;
        let file = WisdomFileOut {
            version: WISDOM_VERSION,
            entries: vec![WisdomEntryOut {
                n,
                backend: backend.to_string(),
                plan: record.plan.to_string(),
                tuning: record.tuning,
                provenance: record.provenance.clone(),
                measured_ns: record.measured_ns,
            }],
        };
        Some(serde_json::to_string_pretty(&file).expect("wisdom serialization is infallible"))
    }

    /// Merge `incoming` into this store, key by key: missing entries are
    /// adopted outright, and an existing entry is replaced only when the
    /// incoming one carries **strictly better measured evidence** (a
    /// faster `measured_ns`, or any measurement where the incumbent has
    /// none). Without evidence the incumbent wins — absorbing a store
    /// must never silently discard this process's own fresher tuning.
    pub fn absorb(&mut self, incoming: Wisdom) {
        for (n, backend, record) in incoming.into_records() {
            let replace = match self.entries.get(&n).and_then(|b| b.get(&backend)) {
                None => true,
                Some(existing) => crate::store::prefer_candidate(
                    record.measured_ns,
                    0,
                    existing.measured_ns,
                    u64::MAX,
                ),
            };
            if replace {
                self.insert_record(n, &backend, record);
            }
        }
    }

    /// Render the store as JSON (entries sorted for determinism), in the
    /// current (version-7) format.
    pub fn to_json(&self) -> String {
        let mut entries: Vec<WisdomEntryOut> = self
            .entries
            .iter()
            .flat_map(|(n, backends)| {
                backends.iter().map(|(backend, record)| WisdomEntryOut {
                    n: *n,
                    backend: backend.clone(),
                    plan: record.plan.to_string(),
                    tuning: record.tuning,
                    provenance: record.provenance.clone(),
                    measured_ns: record.measured_ns,
                })
            })
            .collect();
        entries.sort_by(|a, b| (a.n, &a.backend).cmp(&(b.n, &b.backend)));
        serde_json::to_string_pretty(&WisdomFileOut {
            version: WISDOM_VERSION,
            entries,
        })
        .expect("wisdom serialization is infallible")
    }

    /// Parse a store from JSON, validating every plan. Version-1 through
    /// version-6 stores migrate transparently (see the module docs'
    /// format history) and re-serialize as the current version 7.
    ///
    /// # Errors
    /// [`WhtError::InvalidConfig`] on malformed JSON or a version
    /// mismatch; [`WhtError::Parse`] / structural errors on a bad plan
    /// string; [`WhtError::SizeTooLarge`] / [`WhtError::LengthMismatch`]
    /// on an entry whose `n` is out of range or disagrees with its plan.
    pub fn from_json(json: &str) -> Result<Self, WhtError> {
        let file: WisdomFileIn = serde_json::from_str(json)
            .map_err(|e| WhtError::InvalidConfig(format!("wisdom JSON: {e}")))?;
        if !(WISDOM_MIN_VERSION..=WISDOM_VERSION).contains(&file.version) {
            return Err(WhtError::InvalidConfig(format!(
                "wisdom version {} unsupported (expected {WISDOM_MIN_VERSION}..={WISDOM_VERSION})",
                file.version
            )));
        }
        let mut wisdom = Wisdom::new();
        for entry in file.entries {
            let plan: Plan = entry.plan.parse()?;
            // Versions 3-7 carry the nested record; versions 1-2 carried
            // flat columns, which migrate into the same shape. A nested
            // record wins over any stray flat fields.
            let tuning = entry.tuning.unwrap_or(Tuning {
                fuse_budget: entry.fuse_budget,
                simd: entry.simd,
                relayout: entry.relayout,
                recodelet: None,
                batch: None,
                stream: None,
                objective: None,
            });
            wisdom.insert_with_tuning(entry.n, &entry.backend, plan, tuning)?;
            if let Some(provenance) = entry.provenance {
                wisdom.set_provenance(entry.n, &entry.backend, provenance);
            }
            if let Some(ns) = entry.measured_ns {
                wisdom.record_measurement(entry.n, &entry.backend, ns)?;
            }
        }
        Ok(wisdom)
    }

    /// Write the store to `path` as JSON, atomically and durably
    /// (temp file + fsync + rename — see [`crate::store::atomic_write`]):
    /// a crash mid-save leaves the previous blob intact, never a torn
    /// half-JSON.
    ///
    /// # Errors
    /// [`WhtError::Io`] naming the failed step.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), WhtError> {
        atomic_write(path.as_ref(), self.to_json().as_bytes())
    }

    /// Read a store previously written by [`Wisdom::save`].
    ///
    /// # Errors
    /// [`WhtError::InvalidConfig`] wrapping I/O failures and the parse
    /// errors of [`Wisdom::from_json`]. Callers that must not fail on a
    /// damaged blob use [`Wisdom::load_or_default`] instead.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, WhtError> {
        let text = std::fs::read_to_string(path.as_ref()).map_err(|e| {
            WhtError::InvalidConfig(format!("reading wisdom {}: {e}", path.as_ref().display()))
        })?;
        Wisdom::from_json(&text)
    }

    /// [`Wisdom::load`] with the store's quarantine-and-degrade contract
    /// instead of a hard failure: a missing file is a clean cold start
    /// (empty wisdom, no diagnostic); an unreadable or damaged blob
    /// yields empty wisdom plus a typed [`StoreDiagnostic`] saying
    /// exactly what was wrong, and the damaged file is moved aside into
    /// a sibling `quarantine/` directory so the next save starts clean.
    /// Never panics, never errors, never partially applies a blob.
    pub fn load_or_default(path: impl AsRef<Path>) -> (Self, Vec<StoreDiagnostic>) {
        let path = path.as_ref();
        let name = path.display().to_string();
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return (Wisdom::new(), Vec::new());
            }
            Err(e) => {
                return (
                    Wisdom::new(),
                    vec![StoreDiagnostic::IoFailed {
                        shard: name,
                        detail: e.to_string(),
                    }],
                );
            }
        };
        match classify_wisdom_json(&name, &text) {
            Ok(wisdom) => (wisdom, Vec::new()),
            Err(diag) => {
                if let Some(parent) = path.parent() {
                    crate::store::quarantine_file(parent, path);
                }
                (Wisdom::new(), vec![diag])
            }
        }
    }
}

/// Parse a wisdom JSON document, classifying any failure as a typed
/// [`StoreDiagnostic`] — truncation (the parser ran off the end of the
/// text), an unsupported future version, or plain corruption. Shared by
/// the sharded store's payload path and [`Wisdom::load_or_default`], so
/// one classification covers both the shard and legacy-blob formats.
pub(crate) fn classify_wisdom_json(name: &str, text: &str) -> Result<Wisdom, StoreDiagnostic> {
    match Wisdom::from_json(text) {
        Ok(wisdom) => Ok(wisdom),
        Err(e) => {
            let msg = e.to_string();
            if msg.contains("unexpected end of input")
                || msg.contains("unterminated string")
                || json_failed_at_end(&msg, text.len())
            {
                Err(StoreDiagnostic::Truncated {
                    shard: name.to_string(),
                    detail: msg,
                })
            } else if let Some(version) = unsupported_version(text) {
                Err(StoreDiagnostic::VersionUnknown {
                    shard: name.to_string(),
                    version,
                })
            } else {
                Err(StoreDiagnostic::Corrupt {
                    shard: name.to_string(),
                    detail: msg,
                })
            }
        }
    }
}

/// `true` when a *JSON-layer* parse failure points at (or within one
/// token of) the end of the text — how a truncated document fails when
/// the cut lands after a complete token, where the parser reports a
/// structural error ("expected ',' or '}'", a half literal) instead of
/// running off the input. Restricted to the JSON layer so a bad plan
/// string's own byte offsets (tiny, relative to the whole blob) never
/// match.
fn json_failed_at_end(msg: &str, len: usize) -> bool {
    if !msg.contains("wisdom JSON") || !msg.contains("at byte ") {
        return false;
    }
    let tail = msg
        .rsplit("at byte ")
        .next()
        .expect("rsplit yields at least one piece");
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    // "false" is the longest half-consumable token: a cut leaving 1-4 of
    // its bytes reports the token's start, up to 4 bytes shy of the end.
    digits
        .parse::<usize>()
        .is_ok_and(|pos| pos >= len.saturating_sub(4))
}

/// The declared version of a wisdom document this build cannot read, if
/// that is what is wrong with it (`None`: the version is fine or the
/// document is too damaged to tell — in which case the real failure is
/// classified elsewhere).
fn unsupported_version(text: &str) -> Option<u32> {
    #[derive(Debug, Clone, Deserialize)]
    struct VersionOnly {
        version: u32,
    }
    let v: VersionOnly = serde_json::from_str(text).ok()?;
    if (WISDOM_MIN_VERSION..=WISDOM_VERSION).contains(&v.version) {
        None
    } else {
        Some(v.version)
    }
}

/// Production entry point: owns a cost backend, a [`Wisdom`] store, and a
/// compiled-schedule cache; serves `planner.transform(&mut x)` with
/// memoized search amortized to zero on the warm path (see the module
/// docs).
#[derive(Debug)]
pub struct Planner<C: PlanCost> {
    cost: C,
    opts: DpOptions,
    /// The planner's own executor configuration (environment snapshot at
    /// construction, replaced by [`Planner::with_exec`]).
    exec: ExecPolicy,
    /// Whether `exec` was pinned through [`Planner::with_exec`].
    pinned: bool,
    wisdom: Wisdom,
    compiled: HashMap<u32, CompiledPlan>,
    /// Solved search groups, kept across `plan` calls: a later, larger
    /// search only solves the spans no earlier search has seen.
    memo: MemoTable,
    /// The named weighting the cost backend was last aimed at via
    /// [`Planner::with_objective`]; `None` = the backend's own weights.
    objective: Option<CostObjective>,
    /// Diagnostics accumulated from store/blob loads this planner
    /// degraded through ([`Planner::with_store`],
    /// [`Planner::with_wisdom_file`]) — surfaced via
    /// [`Planner::store_diagnostics`] and [`Planner::explain`].
    store_diagnostics: Vec<StoreDiagnostic>,
    evaluations: usize,
}

impl<C: PlanCost> Planner<C> {
    /// Planner with default DP options, empty wisdom, and the
    /// process-default executor configuration
    /// ([`ExecPolicy::from_env`]).
    pub fn new(cost: C) -> Self {
        Planner::with_options(cost, DpOptions::default())
    }

    /// Planner with explicit DP options.
    pub fn with_options(cost: C, opts: DpOptions) -> Self {
        Planner {
            cost,
            opts,
            exec: ExecPolicy::from_env(),
            pinned: false,
            wisdom: Wisdom::new(),
            compiled: HashMap::new(),
            memo: MemoTable::new(),
            objective: None,
            store_diagnostics: Vec::new(),
            evaluations: 0,
        }
    }

    /// Override the **whole** executor configuration (builder style),
    /// pinning every knob: recorded wisdom no longer overrides any stage.
    /// Drops compiled schedules so already-served sizes recompile under
    /// the new configuration. `with_exec(ExecPolicy::all_disabled())` is
    /// the full API opt-out: the pure scalar unfused baseline, whatever
    /// the environment or the wisdom says.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self.pinned = true;
        self.compiled.clear();
        self
    }

    /// The planner's own executor configuration (before per-size wisdom
    /// resolution).
    pub fn exec(&self) -> &ExecPolicy {
        &self.exec
    }

    /// Adopt previously saved wisdom (builder style). Drops any compiled
    /// schedules so already-served sizes re-resolve against the new
    /// wisdom instead of silently replaying superseded plans.
    #[must_use]
    pub fn with_wisdom(mut self, wisdom: Wisdom) -> Self {
        self.wisdom = wisdom;
        self.compiled.clear();
        self
    }

    /// Warm the planner from a [`ShardedStore`] (builder style), under
    /// the **degradation contract**: whatever the store's condition —
    /// missing shards, some corrupt, all corrupt — this never fails and
    /// never panics. Intact shards merge into the planner's wisdom
    /// ([`Wisdom::absorb`]: holes fill, measured evidence wins, this
    /// planner's own fresher tuning is never discarded); damaged shards
    /// are quarantined by the load and reported through
    /// [`Planner::store_diagnostics`] and [`Planner::explain`], and the
    /// affected sizes simply cold-search on first use — a warm **miss**,
    /// never poisoned tuning.
    #[must_use]
    pub fn with_store(mut self, store: &ShardedStore) -> Self {
        let loaded = store.load();
        self.store_diagnostics.extend(loaded.diagnostics);
        self.wisdom.absorb(loaded.wisdom);
        self.compiled.clear();
        self
    }

    /// Warm the planner from a legacy single-blob wisdom file (builder
    /// style), with the same degradation contract as
    /// [`Planner::with_store`]: a missing file is a clean cold start, a
    /// damaged one is quarantined and reported, never an error or a
    /// panic ([`Wisdom::load_or_default`]).
    #[must_use]
    pub fn with_wisdom_file(mut self, path: impl AsRef<Path>) -> Self {
        let (wisdom, diagnostics) = Wisdom::load_or_default(path);
        self.store_diagnostics.extend(diagnostics);
        self.wisdom.absorb(wisdom);
        self.compiled.clear();
        self
    }

    /// Persist this planner's accumulated wisdom into `store`, one
    /// atomically committed shard per `(n, backend)` entry. Returns the
    /// number of shards written.
    ///
    /// # Errors
    /// [`WhtError::Io`] on the first shard that fails to commit;
    /// already-committed shards are unaffected.
    pub fn save_store(&self, store: &ShardedStore) -> Result<usize, WhtError> {
        store.save(&self.wisdom)
    }

    /// Diagnostics from every store/blob load this planner degraded
    /// through (empty when all loads were clean).
    pub fn store_diagnostics(&self) -> &[StoreDiagnostic] {
        &self.store_diagnostics
    }

    /// Name of the owned cost backend — the wisdom key this planner reads
    /// and writes.
    pub fn backend_name(&self) -> &'static str {
        self.cost.name()
    }

    /// The named objective the cost backend is currently aimed at
    /// ([`Planner::with_objective`]); `None` = the backend's own weights.
    pub fn objective(&self) -> Option<CostObjective> {
        self.objective
    }

    /// The persistent memo of solved search groups (spans searched by
    /// *this* planner instance; wisdom imported from elsewhere carries no
    /// groups).
    pub fn memo(&self) -> &MemoTable {
        &self.memo
    }

    /// Why size `2^n`'s plan won: the winning composition, the candidate
    /// counts (evaluated / pruned), and — for vectored backends — the
    /// cost terms, as one human-readable line. A size this planner
    /// instance searched reports the live memo's account; a size served
    /// from imported wisdom falls back to the provenance persisted in the
    /// entry (wisdom version 6, marked `[replayed from wisdom]`), so the
    /// account survives a process restart. When the size has already been
    /// compiled, the line also carries the static verifier's verdict on
    /// the schedule actually serving traffic ([`CompiledPlan::verify`]):
    /// `verified` when every invariant proved clean, otherwise the
    /// diagnostic count and the first violation. When any store/blob load
    /// degraded ([`Planner::store_diagnostics`]), the line ends with a
    /// quarantine summary. `None` when this planner neither searched the
    /// size nor holds an entry with recorded provenance.
    pub fn explain(&self, n: u32) -> Option<String> {
        let mut line = match self.memo.group(n) {
            Some(group) => group.explain(n),
            None => self.wisdom.provenance(n, self.cost.name())?.explain(n),
        };
        if let Some(compiled) = self.compiled.get(&n) {
            let diags = compiled.verify();
            if diags.is_empty() {
                line.push_str(" | verified: bounds+disjointness+coverage+scratch");
            } else {
                line.push_str(&format!(
                    " | VERIFY FAILED: {} diagnostic(s), first: {}",
                    diags.len(),
                    diags[0]
                ));
            }
        }
        if !self.store_diagnostics.is_empty() {
            line.push_str(&format!(
                " | store: {} shard(s) quarantined; first: {}",
                self.store_diagnostics.len(),
                self.store_diagnostics[0]
            ));
        }
        Some(line)
    }

    /// Total cost evaluations this planner has performed; a warm planner
    /// serves transforms without increasing this.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// The wisdom accumulated (and/or imported) so far.
    pub fn wisdom(&self) -> &Wisdom {
        &self.wisdom
    }

    /// The [`ExecPolicy`] size `2^n` would compile under right now: every
    /// knob resolved through the one precedence rule (API pin > wisdom >
    /// environment > default, with disabled-default as a kill switch —
    /// see [`wht_core::resolve_knob`]). Exposed so services and tests can
    /// inspect the decision without compiling.
    pub fn resolved_exec(&self, n: u32) -> ExecPolicy {
        let t = self.wisdom.tuning(n, self.cost.name()).unwrap_or_default();
        ExecPolicy {
            fusion: resolve_knob(
                self.pinned,
                self.exec.fusion,
                t.fuse_budget
                    .map(|b| FusionPolicy::new(usize::try_from(b).unwrap_or(usize::MAX))),
            ),
            relayout: resolve_knob(
                self.pinned,
                self.exec.relayout,
                t.relayout.map(replay_relayout),
            ),
            recodelet: resolve_knob(
                self.pinned,
                self.exec.recodelet,
                // The record is a bool (the stage's shape knobs are
                // host-tuning, not per-size wisdom), so a recorded *on*
                // replays through the reader's own policy — preserving
                // its WHT_RECODELET_* environment tuning — rather than
                // clobbering it with the compiled-in default.
                t.recodelet.map(|on| {
                    if on {
                        self.exec.recodelet
                    } else {
                        RecodeletPolicy::disabled()
                    }
                }),
            ),
            simd: resolve_knob(
                self.pinned,
                self.exec.simd,
                t.simd.map(|on| {
                    if on {
                        SimdPolicy::auto()
                    } else {
                        SimdPolicy::disabled()
                    }
                }),
            ),
            batch: resolve_knob(self.pinned, self.exec.batch, t.batch.map(replay_batch)),
            stream: resolve_knob(
                self.pinned,
                self.exec.stream,
                // On/off record, like `recodelet`: the engagement
                // threshold is host tuning, so a recorded *on* replays
                // through the reader's own policy (preserving its
                // WHT_STREAM_THRESHOLD environment tuning).
                t.stream.map(|on| {
                    if on {
                        self.exec.stream
                    } else {
                        StreamPolicy::disabled()
                    }
                }),
            ),
        }
    }

    /// Whether the `(m, backend)` wisdom entry may serve this planner: it
    /// must exist, and — when the planner is aimed at a named objective —
    /// must have been recorded under that same objective (a plan optimal
    /// for a different collapse is a miss, not a hit).
    fn wisdom_entry_is_current(&self, m: u32, backend: &str) -> bool {
        match self.wisdom.tuning(m, backend) {
            None => false,
            Some(t) => self.objective.is_none() || t.objective == self.objective,
        }
    }

    /// Best plan for size `2^n`: wisdom hit, or one memoized search whose
    /// entire per-size table is recorded as wisdom.
    ///
    /// # Errors
    /// Propagates search option validation and cost-backend failures.
    pub fn plan(&mut self, n: u32) -> Result<&Plan, WhtError> {
        let backend = self.cost.name();
        if !self.wisdom_entry_is_current(n, backend) {
            let res = memo_search(n, &self.opts, &mut self.cost, &mut self.memo)?;
            self.evaluations += res.evaluations;
            // Record the executor tuning this planner compiles with, so a
            // process importing the wisdom replays the same configuration
            // (budget 0 = fusion off; simd = which kernels ran; relayout
            // = the gathered-block budget where this plan's schedule
            // actually relayouts at that size, 0 where it does not — the
            // record must reflect the executed configuration, so it is
            // read off the compiled schedule itself rather than the
            // policy gates: a policy knob like `min_passes`, or a plan
            // shape with too short a tail, can decline relayout even
            // where the size gates pass, and an importer must not replay
            // a schedule this planner never ran).
            let budget = if self.exec.fusion.enabled() {
                self.exec.fusion.budget_elems as u64
            } else {
                0
            };
            for m in 1..=n {
                // Smaller sizes only fill holes (or replace entries
                // recorded under a different objective): an imported
                // entry may encode better (e.g. measured) wisdom than
                // this search.
                if m == n || !self.wisdom_entry_is_current(m, backend) {
                    let plan = self
                        .memo
                        .group(m)
                        .expect("memo_search solved every span up to n")
                        .plan
                        .clone();
                    let relayout = if self.exec.relayout.enabled()
                        && CompiledPlan::compile(&plan)
                            .fuse(&self.exec.fusion)
                            .relayout(&self.exec.relayout)
                            .has_relayout()
                    {
                        self.exec.relayout.budget_elems as u64
                    } else {
                        0
                    };
                    // Like relayout, the batch record is read off the
                    // lowered schedule: a size past the batch cap never
                    // built the product, and an importer must not replay
                    // a threshold this planner's executor never ran.
                    let batch = if self.exec.batch.enabled()
                        && CompiledPlan::compile(&plan)
                            .with_batch(&self.exec.batch)
                            .is_batched()
                    {
                        self.exec.batch.block_rows as u64
                    } else {
                        0
                    };
                    self.wisdom.insert_with_tuning(
                        m,
                        backend,
                        plan,
                        Tuning {
                            fuse_budget: Some(budget),
                            simd: Some(self.exec.simd.enabled()),
                            relayout: Some(relayout),
                            recodelet: Some(self.exec.recodelet.enabled()),
                            batch: Some(batch),
                            // On/off like `recodelet`: engagement is a
                            // call-time property (vector length against
                            // the host-tuned threshold), so the record
                            // is whether the stage ran at all.
                            stream: Some(self.exec.stream.enabled()),
                            objective: self.objective,
                        },
                    )?;
                    // Persist the memo's account of the choice alongside
                    // the plan, so explain(m) survives a process restart
                    // (wisdom version 6).
                    let group = self
                        .memo
                        .group(m)
                        .expect("memo_search solved every span up to n");
                    self.wisdom.set_provenance(
                        m,
                        backend,
                        PlanProvenance {
                            composition: group.provenance.composition.clone(),
                            candidates: group.provenance.candidates as u64,
                            evaluated: group.provenance.evaluated as u64,
                            pruned: group.provenance.pruned as u64,
                            cost: group.cost,
                        },
                    );
                }
            }
        }
        Ok(self
            .wisdom
            .get(n, backend)
            .expect("entry inserted or present above"))
    }

    /// In-place transform `x <- WHT(x.len()) * x` using the best known
    /// plan for that size: the warm path is a wisdom hit plus a compiled
    /// pass-schedule replay, with **zero** cost evaluations.
    ///
    /// # Errors
    /// [`WhtError::InvalidConfig`] unless `x.len()` is a power of two with
    /// exponent in `1..=MAX_N`; propagates search errors on cold sizes.
    pub fn transform<T: Scalar>(&mut self, x: &mut [T]) -> Result<(), WhtError> {
        let len = x.len();
        if len < 2 || !len.is_power_of_two() {
            return Err(WhtError::InvalidConfig(format!(
                "transform length {len} is not a power of two >= 2"
            )));
        }
        let n = len.trailing_zeros();
        if n > wht_core::MAX_N {
            return Err(WhtError::SizeTooLarge { n });
        }
        if !self.compiled.contains_key(&n) {
            let plan = self.plan(n)?.clone();
            let exec = self.resolved_exec(n);
            self.compiled
                .insert(n, CompiledPlan::compile_exec(&plan, &exec));
        }
        // Measure the replay and feed the wall-clock back into the wisdom
        // entry it executed (fastest sample wins, matching the sharded
        // store's measured-fastest merge) — so a planner that merely
        // *runs* accumulates the measured evidence the store's
        // cross-process merge arbitrates on.
        let start = std::time::Instant::now();
        self.compiled.get(&n).expect("inserted above").apply(x)?;
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let backend = self.cost.name();
        if self
            .wisdom
            .measured_ns(n, backend)
            .is_none_or(|best| ns < best)
        {
            // Entry existence was just established by `plan`; a racing
            // absence is harmless (measurement is advisory evidence).
            let _ = self.wisdom.record_measurement(n, backend, ns);
        }
        Ok(())
    }

    /// In-place **batched** transform: `x` viewed as `rows` adjacent
    /// contiguous transforms of size `x.len() / rows`, each mapped
    /// through the best known plan for that size via
    /// [`CompiledPlan::apply_batch`] — past the resolved row-block
    /// threshold the batch runs the cross-transform lane path, below it
    /// (or under `WHT_NO_BATCH`) every row replays the per-transform
    /// schedule, bit-identically either way.
    ///
    /// # Errors
    /// [`WhtError::InvalidConfig`] unless `rows >= 1` divides `x.len()`
    /// and the row length is a power of two with exponent in `1..=MAX_N`;
    /// propagates search errors on cold sizes.
    pub fn transform_batch<T: Scalar>(&mut self, x: &mut [T], rows: usize) -> Result<(), WhtError> {
        if rows == 0 || !x.len().is_multiple_of(rows) {
            return Err(WhtError::InvalidConfig(format!(
                "batch of {rows} rows does not divide {} elements",
                x.len()
            )));
        }
        let len = x.len() / rows;
        if len < 2 || !len.is_power_of_two() {
            return Err(WhtError::InvalidConfig(format!(
                "batched row length {len} is not a power of two >= 2"
            )));
        }
        let n = len.trailing_zeros();
        if n > wht_core::MAX_N {
            return Err(WhtError::SizeTooLarge { n });
        }
        if !self.compiled.contains_key(&n) {
            let plan = self.plan(n)?.clone();
            let exec = self.resolved_exec(n);
            self.compiled
                .insert(n, CompiledPlan::compile_exec(&plan, &exec));
        }
        self.compiled
            .get(&n)
            .expect("inserted above")
            .apply_batch(x, rows)
    }
}

impl<C: VectorCost> Planner<C> {
    /// Re-aim the planner at a named multi-objective weighting (builder
    /// style): the cost backend's collapse weights become
    /// [`VectorCost::objective_weights`] for `objective`, the memo and
    /// compiled-schedule caches are dropped (their entries were scored
    /// under the old collapse), and every wisdom entry this planner
    /// records from now on carries the objective — so an importer can
    /// tell a latency-tuned plan from a memory-tuned one, and a planner
    /// aimed at one objective never silently replays the other's plans
    /// ([`Tuning::objective`]).
    #[must_use]
    pub fn with_objective(mut self, objective: CostObjective) -> Self {
        self.cost.set_objective(objective);
        self.objective = Some(objective);
        self.memo.clear();
        self.compiled.clear();
        self
    }
}

/// How a recorded relayout tuning replays: `0` means the recorder's
/// executor did not gather this size (stays off), a nonzero budget
/// replays at the engine's floor (`min_passes = 2`, no size gate) rather
/// than the default policy's knobs — the record only exists because the
/// recorder's schedule actually gathered, and a recorder tuned with
/// `min_passes` below the default must not have its configuration
/// silently dropped on import.
fn replay_relayout(budget: u64) -> RelayoutPolicy {
    if budget == 0 {
        RelayoutPolicy::disabled()
    } else {
        RelayoutPolicy {
            budget_elems: usize::try_from(budget).unwrap_or(usize::MAX),
            min_elems: 0,
            min_passes: 2,
        }
    }
}

/// How a recorded batch tuning replays: `0` means the recorder's executor
/// built no batch schedule for this size (stays off); a nonzero record
/// replays the recorder's row-block threshold exactly.
fn replay_batch(block: u64) -> BatchPolicy {
    if block == 0 {
        BatchPolicy::disabled()
    } else {
        BatchPolicy::new(usize::try_from(block).unwrap_or(usize::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CombinedModelCost, InstructionCost};
    use wht_core::{apply_plan, max_abs_diff, naive_wht};

    /// A planner pinned through `with_exec` to the environment's policy
    /// with `edit` applied — how a caller overrides one stage.
    fn pinned_to(edit: impl FnOnce(ExecPolicy) -> ExecPolicy) -> Planner<InstructionCost> {
        Planner::new(InstructionCost::default()).with_exec(edit(ExecPolicy::from_env()))
    }

    /// The tuning recorded with the `(m, "instruction-model")` entry.
    fn tuning_of(wisdom: &Wisdom, m: u32) -> Tuning {
        wisdom
            .tuning(m, "instruction-model")
            .expect("entry recorded")
    }

    #[test]
    fn transform_matches_reference_and_amortizes_search() {
        let mut planner = Planner::new(InstructionCost::default());
        let input: Vec<f64> = (0..512)
            .map(|j| ((j * 37 + 5) % 64) as f64 - 32.0)
            .collect();
        let want = naive_wht(&input);
        let mut x = input.clone();
        planner.transform(&mut x).unwrap();
        assert!(max_abs_diff(&x, &want) < 1e-9);
        let cold_evals = planner.evaluations();
        assert!(cold_evals > 0, "cold path must have searched");

        for _ in 0..3 {
            let mut y = input.clone();
            planner.transform(&mut y).unwrap();
            assert!(max_abs_diff(&y, &want) < 1e-9);
        }
        assert_eq!(
            planner.evaluations(),
            cold_evals,
            "warm path must not search"
        );
    }

    #[test]
    fn dp_table_becomes_wisdom_for_all_smaller_sizes() {
        let mut planner = Planner::new(InstructionCost::default());
        planner.plan(9).unwrap();
        for m in 1..=9u32 {
            let plan = planner
                .wisdom()
                .get(m, "instruction-model")
                .expect("size recorded");
            assert_eq!(plan.n(), m);
        }
        // A smaller size is now free.
        let evals = planner.evaluations();
        planner.plan(5).unwrap();
        assert_eq!(planner.evaluations(), evals);
    }

    #[test]
    fn wisdom_round_trips_through_json_and_warms_a_new_planner() {
        let mut tuned = Planner::new(CombinedModelCost::paper_default());
        tuned.plan(10).unwrap();
        let json = tuned.wisdom().to_json();

        let wisdom = Wisdom::from_json(&json).unwrap();
        assert_eq!(&wisdom, tuned.wisdom());

        let mut warm = Planner::new(CombinedModelCost::paper_default()).with_wisdom(wisdom);
        let mut x: Vec<f64> = (0..1024).map(|j| (j % 11) as f64).collect();
        let want = naive_wht(&x);
        warm.transform(&mut x).unwrap();
        assert!(max_abs_diff(&x, &want) < 1e-9);
        assert_eq!(
            warm.evaluations(),
            0,
            "imported wisdom must skip search entirely"
        );
    }

    #[test]
    fn with_wisdom_invalidates_compiled_schedules() {
        let mut planner = Planner::new(InstructionCost::default());
        let mut x: Vec<f64> = (0..256).map(|j| (j % 5) as f64).collect();
        planner.transform(&mut x).unwrap(); // compiles the DP winner for n=8
        assert!(!planner.compiled.is_empty());

        // Import wisdom that names a *different* plan for n=8.
        let mut wisdom = Wisdom::new();
        let imported = Plan::iterative(8).unwrap();
        wisdom
            .insert(8, "instruction-model", imported.clone())
            .unwrap();
        let evals_before_import = planner.evaluations();
        let mut planner = planner.with_wisdom(wisdom);
        assert!(
            planner.compiled.is_empty(),
            "stale schedules must not survive a wisdom import"
        );
        planner.transform(&mut x).unwrap();
        assert_eq!(
            planner.compiled.get(&8),
            Some(&CompiledPlan::compile_exec(
                &imported,
                &planner.resolved_exec(8)
            )),
            "warm transform must execute the imported plan"
        );
        assert_eq!(
            planner.evaluations(),
            evals_before_import,
            "imported wisdom covers the size; no new search"
        );
    }

    #[test]
    fn wisdom_records_the_tile_budget_and_round_trips_it() {
        // The planner stamps its fusion budget on every entry it records.
        let mut planner = pinned_to(|p| p.with_fusion(FusionPolicy::new(1 << 9)));
        planner.plan(8).unwrap();
        for m in 1..=8u32 {
            assert_eq!(tuning_of(planner.wisdom(), m).fuse_budget, Some(1 << 9));
        }
        // ...and the budget survives the JSON round trip.
        let back = Wisdom::from_json(&planner.wisdom().to_json()).unwrap();
        assert_eq!(&back, planner.wisdom());
        assert_eq!(tuning_of(&back, 8).fuse_budget, Some(1 << 9));

        // A fusion-off planner records budget 0, distinct from "not
        // recorded".
        let mut off = pinned_to(|p| p.with_fusion(FusionPolicy::disabled()));
        off.plan(4).unwrap();
        let back = Wisdom::from_json(&off.wisdom().to_json()).unwrap();
        assert_eq!(tuning_of(&back, 4).fuse_budget, Some(0));
        let mut plain = Wisdom::new();
        plain
            .insert(4, "instruction-model", Plan::iterative(4).unwrap())
            .unwrap();
        assert_eq!(tuning_of(&plain, 4).fuse_budget, None);
        assert!(tuning_of(&plain, 4).is_empty());
    }

    #[test]
    fn recorded_budget_overrides_the_importing_planners_policy() {
        // Tune with fusion off; a default (fusion-on) importer must still
        // compile that size unfused, honoring the recorded configuration.
        let mut tuned = pinned_to(|p| p.with_fusion(FusionPolicy::disabled()));
        tuned.plan(10).unwrap();
        let wisdom = Wisdom::from_json(&tuned.wisdom().to_json()).unwrap();

        let mut warm = Planner::new(InstructionCost::default()).with_wisdom(wisdom);
        let mut x: Vec<f64> = (0..1024).map(|j| (j % 13) as f64).collect();
        let want = naive_wht(&x);
        warm.transform(&mut x).unwrap();
        assert!(max_abs_diff(&x, &want) < 1e-9);
        assert!(
            !warm.compiled.get(&10).unwrap().is_fused(),
            "recorded budget 0 must win over the importer's default policy"
        );
        // Version-1 wisdom without the field still loads (budget absent).
        let legacy =
            "{\"version\":1,\"entries\":[{\"n\":4,\"backend\":\"x\",\"plan\":\"split[small[2],small[2]]\"}]}";
        let w = Wisdom::from_json(legacy).unwrap();
        assert_eq!(w.tuning(4, "x").unwrap().fuse_budget, None);
    }

    #[test]
    fn disabled_default_policy_is_a_kill_switch_over_recorded_budgets() {
        // An *unpinned* disabled policy is what WHT_NO_FUSE=1 produces at
        // construction (simulated here by setting the private fields —
        // tests must not mutate process env under a threaded test
        // runner). Imported wisdom carrying a fused budget must not
        // re-enable fusion past the kill switch.
        let mut wisdom = Wisdom::new();
        wisdom
            .insert_with_tuning(
                10,
                "instruction-model",
                Plan::iterative(10).unwrap(),
                Tuning {
                    fuse_budget: Some(1 << 9),
                    ..Tuning::default()
                },
            )
            .unwrap();
        let mut planner = Planner::new(InstructionCost::default()).with_wisdom(wisdom);
        planner.exec.fusion = FusionPolicy::disabled();
        let mut x: Vec<f64> = (0..1024).map(|j| (j % 5) as f64).collect();
        planner.transform(&mut x).unwrap();
        assert!(
            !planner.compiled.get(&10).unwrap().is_fused(),
            "a disabled default policy must beat the recorded budget"
        );
    }

    #[test]
    fn with_exec_pins_the_fusion_policy_over_recorded_budgets() {
        // A planner that already recorded a fused budget for a size must
        // still honor a later explicit opt-out — with_exec pins the
        // policy, beating the planner's own earlier wisdom.
        let mut planner = pinned_to(|p| p.with_fusion(FusionPolicy::new(1 << 12)));
        let mut x: Vec<f64> = (0..4096).map(|j| (j % 7) as f64).collect();
        planner.transform(&mut x).unwrap();
        assert!(planner.compiled.get(&12).unwrap().is_fused());
        assert_eq!(tuning_of(planner.wisdom(), 12).fuse_budget, Some(1 << 12));

        let exec = planner.exec().with_fusion(FusionPolicy::disabled());
        let mut planner = planner.with_exec(exec);
        let mut y: Vec<f64> = (0..4096).map(|j| (j % 7) as f64).collect();
        planner.transform(&mut y).unwrap();
        assert!(
            !planner.compiled.get(&12).unwrap().is_fused(),
            "an explicitly pinned disabled fusion must beat the recorded budget"
        );
        // And flipping back on works the same way.
        let exec = planner.exec().with_fusion(FusionPolicy::unbounded());
        let mut planner = planner.with_exec(exec);
        let mut z: Vec<f64> = (0..4096).map(|j| (j % 7) as f64).collect();
        planner.transform(&mut z).unwrap();
        assert!(planner.compiled.get(&12).unwrap().is_fused());
    }

    #[test]
    fn wisdom_records_the_kernel_backend_and_round_trips_it() {
        // The planner stamps its SIMD policy on every entry it records...
        let mut planner = pinned_to(|p| p.with_simd(SimdPolicy::disabled()));
        planner.plan(8).unwrap();
        for m in 1..=8u32 {
            assert_eq!(tuning_of(planner.wisdom(), m).simd, Some(false));
        }
        // ...and the record survives the JSON round trip.
        let back = Wisdom::from_json(&planner.wisdom().to_json()).unwrap();
        assert_eq!(&back, planner.wisdom());
        assert_eq!(tuning_of(&back, 8).simd, Some(false));

        // An importing planner with an unpinned enabled policy replays the
        // recorded scalar choice.
        let mut warm = Planner::new(InstructionCost::default()).with_wisdom(back);
        warm.exec.simd = SimdPolicy::auto();
        let mut x: Vec<f64> = (0..256).map(|j| (j % 7) as f64).collect();
        warm.transform(&mut x).unwrap();
        assert!(
            !warm.compiled.get(&8).unwrap().is_simd(),
            "recorded scalar tuning must win over the importer's default"
        );

        // Entries without the field (legacy wisdom) record no choice.
        let legacy =
            "{\"version\":1,\"entries\":[{\"n\":4,\"backend\":\"x\",\"plan\":\"split[small[2],small[2]]\"}]}";
        let w = Wisdom::from_json(legacy).unwrap();
        assert_eq!(w.tuning(4, "x").unwrap().simd, None);
    }

    #[test]
    fn simd_kill_switch_and_pinning_beat_recorded_backends() {
        // Imported wisdom tuned with the lane kernels must not re-enable
        // them past an (unpinned) disabled policy — what WHT_NO_SIMD=1
        // produces at construction.
        let mut wisdom = Wisdom::new();
        wisdom
            .insert_with_tuning(
                10,
                "instruction-model",
                Plan::iterative(10).unwrap(),
                Tuning {
                    simd: Some(true),
                    ..Tuning::default()
                },
            )
            .unwrap();
        let mut planner = Planner::new(InstructionCost::default()).with_wisdom(wisdom.clone());
        planner.exec.simd = SimdPolicy::disabled();
        let mut x: Vec<f64> = (0..1024).map(|j| (j % 5) as f64).collect();
        planner.transform(&mut x).unwrap();
        assert!(
            !planner.compiled.get(&10).unwrap().is_simd(),
            "a disabled default policy must beat the recorded backend"
        );

        // And an explicit pin beats the record in both directions.
        let mut pinned = pinned_to(|p| p.with_simd(SimdPolicy::disabled())).with_wisdom(wisdom);
        let mut y: Vec<f64> = (0..1024).map(|j| (j % 5) as f64).collect();
        pinned.transform(&mut y).unwrap();
        assert!(!pinned.compiled.get(&10).unwrap().is_simd());
        let exec = pinned.exec().with_simd(SimdPolicy::auto());
        let mut repinned = pinned.with_exec(exec);
        let mut z: Vec<f64> = (0..1024).map(|j| (j % 5) as f64).collect();
        repinned.transform(&mut z).unwrap();
        assert!(repinned.compiled.get(&10).unwrap().is_simd());
    }

    #[test]
    fn wisdom_records_relayout_tuning_and_round_trips_it() {
        // The record is read off the compiled schedule itself: for every
        // size the recorded budget is nonzero exactly where this
        // planner's executor would actually relayout that size's plan —
        // a policy knob (min_passes) or a short-tailed DP winner that
        // declines relayout must record 0, whatever the size gates say.
        let mut planner = pinned_to(|p| {
            p.with_fusion(FusionPolicy::new(1 << 6))
                .with_relayout(RelayoutPolicy::eager(1 << 9))
        });
        planner.plan(14).unwrap();
        for m in 1..=14u32 {
            let plan_m = planner
                .wisdom()
                .get(m, "instruction-model")
                .unwrap()
                .clone();
            let executed = CompiledPlan::compile(&plan_m)
                .fuse(&planner.exec().fusion)
                .relayout(&planner.exec().relayout)
                .has_relayout();
            assert_eq!(
                tuning_of(planner.wisdom(), m).relayout,
                Some(if executed { 1 << 9 } else { 0 }),
                "record must match the executed schedule at n = {m}"
            );
        }
        assert_eq!(
            tuning_of(planner.wisdom(), 8).relayout,
            Some(0),
            "sizes inside the block budget cannot gather and record 0"
        );
        // And a policy whose min_passes declines every tail records 0
        // everywhere even though its size gates pass.
        let mut never = pinned_to(|p| {
            p.with_fusion(FusionPolicy::new(1 << 6))
                .with_relayout(RelayoutPolicy {
                    min_passes: 99,
                    ..RelayoutPolicy::eager(1 << 9)
                })
        });
        never.plan(14).unwrap();
        for m in 1..=14u32 {
            assert_eq!(
                tuning_of(never.wisdom(), m).relayout,
                Some(0),
                "a declining policy must not record a tuning it never ran"
            );
        }
        // ...and the record survives the JSON round trip.
        let back = Wisdom::from_json(&planner.wisdom().to_json()).unwrap();
        assert_eq!(&back, planner.wisdom());

        // An importing planner with an unpinned default policy replays
        // the recorded tuning: the served schedule relayouts at n = 14
        // even though the default policy's size floor would decline it.
        // (The recorded plan is pinned to a many-factor shape so its
        // fused schedule actually has a gatherable tail.)
        let mut imported = Wisdom::new();
        imported
            .insert_with_tuning(
                14,
                "instruction-model",
                Plan::iterative(14).unwrap(),
                Tuning {
                    fuse_budget: Some(1 << 6),
                    relayout: Some(1 << 9),
                    ..Tuning::default()
                },
            )
            .unwrap();
        let mut warm = Planner::new(InstructionCost::default()).with_wisdom(imported);
        // Unpinned default policy regardless of the CI leg's env (the
        // WHT_NO_RELAYOUT leg would otherwise kill-switch the replay,
        // which has its own test below).
        warm.exec.relayout = RelayoutPolicy::default();
        let mut x: Vec<f64> = (0..1 << 14).map(|j| (j % 11) as f64 - 5.0).collect();
        let want = naive_wht(&x);
        warm.transform(&mut x).unwrap();
        assert!(max_abs_diff(&x, &want) < 1e-9);
        assert!(
            warm.compiled.get(&14).unwrap().has_relayout(),
            "recorded relayout tuning must be replayed by the importer"
        );
        assert_eq!(warm.evaluations(), 0);
    }

    #[test]
    fn recorded_relayout_replays_at_the_engine_floor_not_the_default_knobs() {
        // A recorder tuned with min_passes = 2 can gather a 2-pass tail
        // and record its budget; the importer must replay that exact
        // configuration instead of re-gating it through the default
        // min_passes = 3 (which would silently drop the tuning).
        // binary_iterative(10, 2) fused at 2^6 leaves a 2-pass tail
        // (strides 64 and 256) that a 2^9 block budget can gather.
        let plan = Plan::binary_iterative(10, 2).unwrap();
        let two_pass_tail = CompiledPlan::compile(&plan)
            .fuse(&FusionPolicy::new(1 << 6))
            .relayout(&RelayoutPolicy {
                min_passes: 2,
                ..RelayoutPolicy::eager(1 << 9)
            });
        assert!(two_pass_tail.has_relayout(), "test precondition");
        let mut wisdom = Wisdom::new();
        wisdom
            .insert_with_tuning(
                10,
                "instruction-model",
                plan,
                Tuning {
                    fuse_budget: Some(1 << 6),
                    relayout: Some(1 << 9),
                    ..Tuning::default()
                },
            )
            .unwrap();
        let mut warm = Planner::new(InstructionCost::default()).with_wisdom(wisdom);
        warm.exec.relayout = RelayoutPolicy::default();
        let mut x: Vec<f64> = (0..1 << 10).map(|j| (j % 9) as f64 - 4.0).collect();
        let want = naive_wht(&x);
        warm.transform(&mut x).unwrap();
        assert!(max_abs_diff(&x, &want) < 1e-9);
        assert!(
            warm.compiled.get(&10).unwrap().has_relayout(),
            "a recorded 2-pass-tail tuning must survive import"
        );
    }

    #[test]
    fn relayout_kill_switch_and_pinning_beat_recorded_tuning() {
        // Imported wisdom tuned with relayout must not re-enable it past
        // an (unpinned) disabled policy — what WHT_NO_RELAYOUT=1 produces
        // at construction.
        let mut wisdom = Wisdom::new();
        wisdom
            .insert_with_tuning(
                14,
                "instruction-model",
                Plan::iterative(14).unwrap(),
                Tuning {
                    fuse_budget: Some(1 << 6),
                    relayout: Some(1 << 9),
                    ..Tuning::default()
                },
            )
            .unwrap();
        let mut planner = Planner::new(InstructionCost::default()).with_wisdom(wisdom.clone());
        planner.exec.relayout = RelayoutPolicy::disabled();
        let mut x: Vec<f64> = (0..1 << 14).map(|j| (j % 5) as f64).collect();
        planner.transform(&mut x).unwrap();
        assert!(
            !planner.compiled.get(&14).unwrap().has_relayout(),
            "a disabled default policy must beat the recorded tuning"
        );

        // And an explicit pin beats the record both ways. (The pin covers
        // every knob, so it carries the recorded fusion budget too: the
        // tail is whatever fusion leaves.)
        let mut pinned = pinned_to(|p| {
            p.with_fusion(FusionPolicy::new(1 << 6))
                .with_relayout(RelayoutPolicy::disabled())
        })
        .with_wisdom(wisdom);
        let mut y: Vec<f64> = (0..1 << 14).map(|j| (j % 5) as f64).collect();
        pinned.transform(&mut y).unwrap();
        assert!(!pinned.compiled.get(&14).unwrap().has_relayout());
        let exec = pinned.exec().with_relayout(RelayoutPolicy::eager(1 << 9));
        let mut repinned = pinned.with_exec(exec);
        let mut z: Vec<f64> = (0..1 << 14).map(|j| (j % 5) as f64).collect();
        repinned.transform(&mut z).unwrap();
        assert!(repinned.compiled.get(&14).unwrap().has_relayout());
    }

    #[test]
    fn version_1_wisdom_migrates_and_round_trips_as_current() {
        // A version-1 store (pre-relayout) must load — its entries carry
        // no relayout, recodelet, batch, or objective choice — and
        // re-serialize as the current version without bricking anything.
        let legacy = "{\"version\":1,\"entries\":[{\"n\":4,\"backend\":\"x\",\
                       \"plan\":\"split[small[2],small[2]]\",\"fuse_budget\":512,\
                       \"simd\":true}]}";
        let w = Wisdom::from_json(legacy).unwrap();
        assert_eq!(w.tuning(4, "x").unwrap().fuse_budget, Some(512));
        assert_eq!(w.tuning(4, "x").unwrap().simd, Some(true));
        assert_eq!(w.tuning(4, "x").unwrap().relayout, None);
        assert_eq!(w.tuning(4, "x").unwrap().recodelet, None);
        assert_eq!(w.tuning(4, "x").unwrap().batch, None);
        assert_eq!(w.tuning(4, "x").unwrap().objective, None);
        let json = w.to_json();
        assert!(json.contains("\"version\": 7"), "{json}");
        assert!(json.contains("\"tuning\""), "{json}");
        let back = Wisdom::from_json(&json).unwrap();
        assert_eq!(back, w);
        // Future versions stay rejected.
        assert!(Wisdom::from_json("{\"version\":8,\"entries\":[]}").is_err());
    }

    #[test]
    fn version_3_wisdom_migrates_and_records_no_batch_choice() {
        // A version-3 store (nested tuning, pre-batch) must load with its
        // record intact and no batch choice — the reader's own policy
        // applies — and re-serialize as the current version, replaying
        // identically.
        let legacy = "{\"version\":3,\"entries\":[{\"n\":12,\"backend\":\
                      \"instruction-model\",\"plan\":\"split[small[4],small[4],\
                      small[4]]\",\"tuning\":{\"fuse_budget\":4096,\"simd\":true,\
                      \"relayout\":0,\"recodelet\":true}}]}";
        let w = Wisdom::from_json(legacy).unwrap();
        assert_eq!(tuning_of(&w, 12).fuse_budget, Some(4096));
        assert_eq!(
            tuning_of(&w, 12).batch,
            None,
            "a stage the blob predates records no choice"
        );
        let migrated = Wisdom::from_json(&w.to_json()).unwrap();
        assert_eq!(migrated, w);
        // The importer's unpinned default batch policy applies, and the
        // migrated replay is bit-identical to a fresh computation.
        let mut warm = Planner::new(InstructionCost::default()).with_wisdom(migrated);
        warm.exec = ExecPolicy::default();
        assert_eq!(
            warm.resolved_exec(12).batch,
            BatchPolicy::default(),
            "no recorded choice -> the reader's default policy"
        );
        let mut x: Vec<f64> = (0..1 << 12).map(|j| (j % 13) as f64 - 6.0).collect();
        let want = naive_wht(&x);
        warm.transform(&mut x).unwrap();
        assert!(max_abs_diff(&x, &want) < 1e-9, "migrated replay is exact");
        assert_eq!(warm.evaluations(), 0);
    }

    #[test]
    fn version_2_wisdom_migrates_and_replays_like_the_recorder() {
        // A version-2 store (flat fuse_budget/simd/relayout columns, the
        // PR 4 format) must load with every recorded knob intact...
        let legacy = "{\"version\":2,\"entries\":[{\"n\":14,\"backend\":\
                      \"instruction-model\",\"plan\":\"split[small[1],small[1],\
                      small[1],small[1],small[1],small[1],small[1],small[1],\
                      small[1],small[1],small[1],small[1],small[1],small[1]]\",\
                      \"fuse_budget\":64,\"simd\":true,\"relayout\":512}]}";
        let w = Wisdom::from_json(legacy).unwrap();
        assert_eq!(tuning_of(&w, 14).fuse_budget, Some(64));
        assert_eq!(tuning_of(&w, 14).simd, Some(true));
        assert_eq!(tuning_of(&w, 14).relayout, Some(512));
        assert_eq!(
            tuning_of(&w, 14).recodelet,
            None,
            "a stage the blob predates records no choice"
        );
        // ...re-serialize as version 3...
        let migrated = Wisdom::from_json(&w.to_json()).unwrap();
        assert_eq!(migrated, w);
        // ...and replay the recorded configuration: the resolved policy
        // matches the legacy per-knob resolution exactly, and with the
        // post-v2 stages killed (an unpinned disabled policy beats
        // wisdom, which records no choice for them anyway), the compiled
        // schedule is *equal* to what the pre-pipeline executor compiled
        // for this blob.
        let mut warm = Planner::new(InstructionCost::default()).with_wisdom(migrated);
        warm.exec = ExecPolicy::default();
        warm.exec.recodelet = RecodeletPolicy::disabled();
        warm.exec.batch = BatchPolicy::disabled();
        let resolved = warm.resolved_exec(14);
        assert_eq!(resolved.fusion, FusionPolicy::new(64));
        assert!(resolved.simd.enabled());
        assert_eq!(resolved.relayout, replay_relayout(512));
        let mut x: Vec<f64> = (0..1 << 14).map(|j| (j % 11) as f64 - 5.0).collect();
        let want = naive_wht(&x);
        warm.transform(&mut x).unwrap();
        assert!(max_abs_diff(&x, &want) < 1e-9, "migrated replay is exact");
        let plan = warm.wisdom().get(14, "instruction-model").unwrap().clone();
        assert_eq!(
            warm.compiled.get(&14).unwrap(),
            &CompiledPlan::compile(&plan)
                .fuse(&FusionPolicy::new(64))
                .relayout(&replay_relayout(512))
                .with_simd(&SimdPolicy::auto()),
            "v2 blob + pinned-off later stages = the pre-refactor schedule, exactly"
        );
        // With the importer's default (unpinned) tail policy the schedule
        // additionally re-codelets — and output bits cannot change.
        let mut modern = Planner::new(InstructionCost::default())
            .with_wisdom(Wisdom::from_json(legacy).unwrap());
        modern.exec = ExecPolicy::default();
        let mut y: Vec<f64> = (0..1 << 14).map(|j| (j % 11) as f64 - 5.0).collect();
        modern.transform(&mut y).unwrap();
        assert_eq!(
            y, x,
            "re-codeleted replay of migrated wisdom is bit-identical"
        );
        assert!(modern.compiled.get(&14).unwrap().has_recodeleted());
    }

    #[test]
    fn unknown_json_fields_are_tolerated() {
        // Forward compatibility: a store written by a newer build with
        // extra tuning fields must still load here — unknown fields are
        // ignored, known ones are honored.
        let future = "{\"version\":3,\"future_knob\":\"xyz\",\"entries\":[{\"n\":4,\
                      \"backend\":\"x\",\"plan\":\"split[small[2],small[2]]\",\
                      \"tuning\":{\"fuse_budget\":64,\"simd\":false,\"relayout\":32,\
                      \"recodelet\":true,\"prefetch_distance\":8}}]}";
        let w = Wisdom::from_json(future).unwrap();
        assert_eq!(w.tuning(4, "x").unwrap().fuse_budget, Some(64));
        assert_eq!(w.tuning(4, "x").unwrap().simd, Some(false));
        assert_eq!(w.tuning(4, "x").unwrap().relayout, Some(32));
        assert_eq!(w.tuning(4, "x").unwrap().recodelet, Some(true));
    }

    #[test]
    fn recodelet_resolves_through_the_same_precedence_rule() {
        // Recorded off beats the importer's default-on...
        let mut wisdom = Wisdom::new();
        wisdom
            .insert_with_tuning(
                14,
                "instruction-model",
                Plan::iterative(14).unwrap(),
                Tuning {
                    fuse_budget: Some(1 << 6),
                    relayout: Some(1 << 9),
                    recodelet: Some(false),
                    ..Tuning::default()
                },
            )
            .unwrap();
        let mut planner = Planner::new(InstructionCost::default()).with_wisdom(wisdom.clone());
        planner.exec = ExecPolicy::default();
        let mut x: Vec<f64> = (0..1 << 14).map(|j| (j % 5) as f64).collect();
        planner.transform(&mut x).unwrap();
        let compiled = planner.compiled.get(&14).unwrap();
        assert!(compiled.has_relayout());
        assert!(
            !compiled.has_recodeleted(),
            "recorded recodelet=false must replay per-factor"
        );
        // ...an unpinned disabled default is a kill switch over a
        // recorded on...
        let mut on_record = Wisdom::new();
        on_record
            .insert_with_tuning(
                14,
                "instruction-model",
                Plan::iterative(14).unwrap(),
                Tuning {
                    fuse_budget: Some(1 << 6),
                    relayout: Some(1 << 9),
                    recodelet: Some(true),
                    ..Tuning::default()
                },
            )
            .unwrap();
        let mut killed = Planner::new(InstructionCost::default()).with_wisdom(on_record);
        killed.exec = ExecPolicy::default();
        killed.exec.recodelet = RecodeletPolicy::disabled();
        assert!(!killed.resolved_exec(14).recodelet.enabled());
        // ...and an explicit pin beats the record both ways. (The pin
        // covers every knob, so it carries the fusion/relayout tuning
        // the record replays, identically on every CI leg.)
        let mut pinned = Planner::new(InstructionCost::default())
            .with_wisdom(wisdom)
            .with_exec(
                ExecPolicy::default()
                    .with_fusion(FusionPolicy::new(1 << 6))
                    .with_relayout(replay_relayout(1 << 9)),
            );
        assert!(pinned.resolved_exec(14).recodelet.enabled());
        let mut y: Vec<f64> = (0..1 << 14).map(|j| (j % 5) as f64).collect();
        pinned.transform(&mut y).unwrap();
        assert!(pinned.compiled.get(&14).unwrap().has_recodeleted());
        assert_eq!(y, x, "re-codeleting never changes output bits");
    }

    #[test]
    fn with_exec_pins_every_knob() {
        // Wisdom records a full executor configuration; with_exec must
        // beat all of it at once.
        let mut wisdom = Wisdom::new();
        wisdom
            .insert_with_tuning(
                14,
                "instruction-model",
                Plan::iterative(14).unwrap(),
                Tuning {
                    fuse_budget: Some(1 << 6),
                    simd: Some(true),
                    relayout: Some(1 << 9),
                    recodelet: Some(true),
                    batch: Some(16),
                    stream: Some(true),
                    objective: None,
                },
            )
            .unwrap();
        let mut planner = Planner::new(InstructionCost::default())
            .with_wisdom(wisdom)
            .with_exec(ExecPolicy::all_disabled());
        let resolved = planner.resolved_exec(14);
        assert!(!resolved.fusion.enabled());
        assert!(!resolved.simd.enabled());
        assert!(!resolved.relayout.enabled());
        assert!(!resolved.recodelet.enabled());
        assert!(!resolved.batch.enabled());
        assert!(!resolved.stream.enabled());
        let mut x: Vec<f64> = (0..1 << 14).map(|j| (j % 5) as f64).collect();
        let want = naive_wht(&x);
        planner.transform(&mut x).unwrap();
        assert!(max_abs_diff(&x, &want) < 1e-9);
        let compiled = planner.compiled.get(&14).unwrap();
        assert!(!compiled.is_fused() && !compiled.is_simd());
        assert!(!compiled.has_relayout() && !compiled.has_recodeleted());
        assert!(!compiled.is_batched());
    }

    #[test]
    fn wisdom_records_the_batch_threshold_and_round_trips_it() {
        // The record is read off the lowered schedule: small sizes build
        // the batch product and record the policy's threshold; a size
        // past the batch cap records 0 even though the policy is on.
        let mut planner = pinned_to(|p| p.with_batch(BatchPolicy::new(32)));
        planner.plan(10).unwrap();
        for m in 1..=10u32 {
            assert_eq!(
                tuning_of(planner.wisdom(), m).batch,
                Some(32),
                "sizes within the cap record the threshold at n = {m}"
            );
        }
        let back = Wisdom::from_json(&planner.wisdom().to_json()).unwrap();
        assert_eq!(&back, planner.wisdom());
        assert_eq!(tuning_of(&back, 10).batch, Some(32));

        // A batch-off planner records 0, distinct from "not recorded".
        let mut off = pinned_to(|p| p.with_batch(BatchPolicy::disabled()));
        off.plan(4).unwrap();
        assert_eq!(tuning_of(off.wisdom(), 4).batch, Some(0));

        // A size past the batch cap records 0 under an enabled policy.
        let mut big = pinned_to(|p| p.with_batch(BatchPolicy::new(32)));
        big.plan(20).unwrap();
        assert_eq!(tuning_of(big.wisdom(), 20).batch, Some(0));
        assert_eq!(tuning_of(big.wisdom(), 10).batch, Some(32));

        // An importing planner with an unpinned default policy replays
        // the recorded threshold.
        let mut warm = Planner::new(InstructionCost::default()).with_wisdom(back);
        warm.exec.batch = BatchPolicy::default();
        assert_eq!(warm.resolved_exec(10).batch, BatchPolicy::new(32));
    }

    #[test]
    fn batch_kill_switch_and_pinning_beat_recorded_thresholds() {
        // Imported wisdom tuned with batching must not re-enable it past
        // an (unpinned) disabled policy — what WHT_NO_BATCH=1 produces at
        // construction.
        let mut wisdom = Wisdom::new();
        wisdom
            .insert_with_tuning(
                10,
                "instruction-model",
                Plan::iterative(10).unwrap(),
                Tuning {
                    batch: Some(16),
                    ..Tuning::default()
                },
            )
            .unwrap();
        let mut planner = Planner::new(InstructionCost::default()).with_wisdom(wisdom.clone());
        planner.exec.batch = BatchPolicy::disabled();
        assert!(
            !planner.resolved_exec(10).batch.enabled(),
            "a disabled default policy must beat the recorded threshold"
        );
        let mut x: Vec<f64> = (0..1024).map(|j| (j % 5) as f64).collect();
        planner.transform(&mut x).unwrap();
        assert!(!planner.compiled.get(&10).unwrap().is_batched());

        // Recorded off beats the importer's default-on...
        let mut off_record = Wisdom::new();
        off_record
            .insert_with_tuning(
                10,
                "instruction-model",
                Plan::iterative(10).unwrap(),
                Tuning {
                    batch: Some(0),
                    ..Tuning::default()
                },
            )
            .unwrap();
        let mut reader = Planner::new(InstructionCost::default()).with_wisdom(off_record);
        reader.exec.batch = BatchPolicy::default();
        assert!(!reader.resolved_exec(10).batch.enabled());

        // ...and an explicit pin beats the record both ways.
        let pinned = pinned_to(|p| p.with_batch(BatchPolicy::disabled())).with_wisdom(wisdom);
        assert!(!pinned.resolved_exec(10).batch.enabled());
        let exec = pinned.exec().with_batch(BatchPolicy::new(8));
        let repinned = pinned.with_exec(exec);
        assert_eq!(repinned.resolved_exec(10).batch, BatchPolicy::new(8));
    }

    #[test]
    fn transform_batch_matches_per_row_transforms() {
        // One warm planner, both entry points, every row bit-identical —
        // whatever executor configuration this CI leg resolves.
        let rows = 33; // deliberately not a multiple of any lane width
        let n = 7u32;
        let input: Vec<f64> = (0..rows << n)
            .map(|j| ((j * 31 + 7) % 23) as f64 - 11.0)
            .collect();
        let mut planner = Planner::new(InstructionCost::default());
        let mut batched = input.clone();
        planner.transform_batch(&mut batched, rows).unwrap();
        let mut per_row = input;
        for row in per_row.chunks_exact_mut(1 << n) {
            planner.transform(row).unwrap();
        }
        assert_eq!(batched, per_row, "batched rows must replay bit-identically");

        // Bad geometries are rejected.
        let mut x = vec![0.0f64; 96];
        assert!(planner.transform_batch(&mut x, 0).is_err());
        assert!(planner.transform_batch(&mut x, 5).is_err());
        assert!(planner.transform_batch(&mut x, 32).is_err(), "row length 3");
    }

    #[test]
    fn wisdom_save_load_files() {
        let mut planner = Planner::new(InstructionCost::default());
        planner.plan(8).unwrap();
        let dir = std::env::temp_dir().join("wht_wisdom_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("wisdom_{}.json", std::process::id()));
        planner.wisdom().save(&path).unwrap();
        let loaded = Wisdom::load(&path).unwrap();
        assert_eq!(&loaded, planner.wisdom());
        std::fs::remove_file(&path).ok();
        assert!(Wisdom::load(dir.join("missing.json")).is_err());
    }

    #[test]
    fn planner_transform_agrees_with_direct_plan_application() {
        let mut planner = Planner::new(InstructionCost::default());
        let mut via_planner: Vec<f64> = (0..256).map(|j| (j % 17) as f64 - 8.0).collect();
        let direct_input = via_planner.clone();
        planner.transform(&mut via_planner).unwrap();
        let plan = planner.plan(8).unwrap().clone();
        let mut direct = direct_input;
        apply_plan(&plan, &mut direct).unwrap();
        assert_eq!(
            via_planner, direct,
            "planner must run exactly its chosen plan"
        );
    }

    #[test]
    fn bad_lengths_rejected() {
        let mut planner = Planner::new(InstructionCost::default());
        let mut odd = vec![0.0f64; 24];
        assert!(planner.transform(&mut odd).is_err());
        let mut one = vec![0.0f64; 1];
        assert!(planner.transform(&mut one).is_err());
        assert_eq!(planner.evaluations(), 0);
    }

    #[test]
    fn malformed_wisdom_rejected() {
        assert!(Wisdom::from_json("not json").is_err());
        assert!(Wisdom::from_json("{\"version\":99,\"entries\":[]}").is_err());
        let bad_plan =
            "{\"version\":1,\"entries\":[{\"n\":4,\"backend\":\"x\",\"plan\":\"small[\"}]}";
        assert!(Wisdom::from_json(bad_plan).is_err());
        let wrong_size =
            "{\"version\":1,\"entries\":[{\"n\":4,\"backend\":\"x\",\"plan\":\"small[3]\"}]}";
        assert!(Wisdom::from_json(wrong_size).is_err());
    }

    #[test]
    fn version_4_wisdom_migrates_and_records_no_objective() {
        // A version-4 store (pre-objective) must load with its tuning
        // intact and no objective recorded — so a default-weighted reader
        // replays it, and an objective-aimed reader re-searches.
        let legacy = "{\"version\":4,\"entries\":[{\"n\":10,\"backend\":\
                      \"combined-model\",\"plan\":\"split[small[5],small[5]]\",\
                      \"tuning\":{\"fuse_budget\":4096,\"simd\":true,\
                      \"relayout\":0,\"recodelet\":true,\"batch\":0}}]}";
        let w = Wisdom::from_json(legacy).unwrap();
        assert_eq!(
            w.tuning(10, "combined-model").unwrap().fuse_budget,
            Some(4096)
        );
        assert_eq!(
            w.tuning(10, "combined-model").unwrap().objective,
            None,
            "a field the blob predates records no choice"
        );
        let migrated = Wisdom::from_json(&w.to_json()).unwrap();
        assert_eq!(migrated, w);
        // A legacy (objective-less) planner serves the entry warm...
        let mut warm = Planner::new(CombinedModelCost::paper_default()).with_wisdom(w.clone());
        warm.plan(10).unwrap();
        assert_eq!(warm.evaluations(), 0);
        // ...while a planner aimed at an explicit objective treats it as
        // stale and re-searches.
        let mut aimed = Planner::new(CombinedModelCost::paper_default())
            .with_wisdom(w)
            .with_objective(CostObjective::Memory);
        aimed.plan(10).unwrap();
        assert!(aimed.evaluations() > 0);
    }

    #[test]
    fn objective_round_trips_through_wisdom() {
        // The acceptance contract: the planner selects among named
        // weightings via the vector-cost trait, and wisdom round-trips
        // the choice.
        let mut planner =
            Planner::new(CombinedModelCost::paper_default()).with_objective(CostObjective::Memory);
        planner.plan(12).unwrap();
        let backend = planner.backend_name();
        assert_eq!(
            planner.wisdom().tuning(12, backend).unwrap().objective,
            Some(CostObjective::Memory)
        );
        let json = planner.wisdom().to_json();
        assert!(json.contains("\"objective\": \"Memory\""), "{json}");
        let reloaded = Wisdom::from_json(&json).unwrap();
        assert_eq!(
            reloaded.tuning(12, backend).unwrap().objective,
            Some(CostObjective::Memory)
        );
        // Same-objective importer: warm. Different objective: re-search.
        let mut same = Planner::new(CombinedModelCost::paper_default())
            .with_objective(CostObjective::Memory)
            .with_wisdom(reloaded.clone());
        same.plan(12).unwrap();
        assert_eq!(same.evaluations(), 0);
        let mut other = Planner::new(CombinedModelCost::paper_default())
            .with_objective(CostObjective::Latency)
            .with_wisdom(reloaded);
        other.plan(12).unwrap();
        assert!(other.evaluations() > 0);
        assert_eq!(
            other.wisdom().tuning(12, backend).unwrap().objective,
            Some(CostObjective::Latency),
            "the stale entry is replaced under the new objective"
        );
    }

    #[test]
    fn objectives_select_different_plans_for_the_same_backend() {
        // Two weightings must be able to disagree about the best plan —
        // otherwise the multi-objective layer is a no-op. Under the
        // combined model, latency blends instructions with misses while
        // memory ignores instructions entirely, which flips the winner at
        // out-of-model-cache sizes.
        let n = 16;
        let mut latency =
            Planner::new(CombinedModelCost::paper_default()).with_objective(CostObjective::Latency);
        let lat_plan = latency.plan(n).unwrap().clone();
        let mut memory =
            Planner::new(CombinedModelCost::paper_default()).with_objective(CostObjective::Memory);
        let mem_plan = memory.plan(n).unwrap().clone();
        assert_ne!(
            lat_plan, mem_plan,
            "latency and memory objectives should pick different plans at n={n}"
        );
        // And each planner's explain names its memo-search provenance.
        let line = latency.explain(n).expect("searched this instance");
        assert!(line.contains("candidates"), "{line}");
    }

    #[test]
    fn planner_explain_reports_provenance_for_searched_and_replayed_sizes() {
        let mut planner = Planner::new(InstructionCost::default());
        assert_eq!(planner.explain(8), None, "nothing searched yet");
        planner.plan(8).unwrap();
        let line = planner.explain(8).expect("just searched");
        assert!(line.contains("2^8"), "{line}");
        assert!(
            !line.contains("replayed"),
            "live memo account, not a replay: {line}"
        );
        // Every smaller span was solved by the same memo search.
        assert!(planner.explain(3).is_some());
        // A wisdom-served planner replays the persisted provenance
        // (wisdom version 6): the account survives a process restart,
        // marked as a replay.
        let mut warm =
            Planner::new(InstructionCost::default()).with_wisdom(planner.wisdom().clone());
        warm.plan(8).unwrap();
        assert_eq!(warm.evaluations(), 0);
        let replayed = warm.explain(8).expect("persisted provenance");
        assert!(replayed.contains("[replayed from wisdom]"), "{replayed}");
        assert!(replayed.contains("2^8"), "{replayed}");
        // An entry with no recorded provenance (hand-inserted wisdom)
        // still reports nothing.
        let mut plain = Wisdom::new();
        plain
            .insert(4, "instruction-model", Plan::iterative(4).unwrap())
            .unwrap();
        let mut bare = Planner::new(InstructionCost::default()).with_wisdom(plain);
        bare.plan(4).unwrap();
        assert_eq!(bare.explain(4), None);
    }

    #[test]
    fn planner_explain_carries_the_verifier_verdict_once_compiled() {
        let mut planner = Planner::new(InstructionCost::default());
        planner.plan(8).unwrap();
        let line = planner.explain(8).expect("just searched");
        assert!(
            !line.contains("verified"),
            "no schedule compiled yet, nothing to verify: {line}"
        );
        let mut x = vec![1.0f64; 256];
        planner.transform(&mut x).unwrap();
        let line = planner.explain(8).expect("searched and compiled");
        assert!(
            line.contains("verified: bounds+disjointness+coverage+scratch"),
            "the serving schedule must prove clean: {line}"
        );
    }

    #[test]
    fn planner_memo_persists_across_sizes() {
        // The memo table must make the second, larger search cheaper than
        // a cold one: spans 1..=12 are reused, only 13..=16 are solved.
        let mut planner = Planner::new(InstructionCost::default());
        planner.plan(12).unwrap();
        let after_first = planner.evaluations();
        planner.plan(16).unwrap();
        let incremental = planner.evaluations() - after_first;
        let mut cold = Planner::new(InstructionCost::default());
        cold.plan(16).unwrap();
        assert!(
            incremental < cold.evaluations(),
            "incremental {incremental} should be under cold {}",
            cold.evaluations()
        );
        assert_eq!(planner.memo().solved_n(), 16);
    }
}
