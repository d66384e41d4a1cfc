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
//!    `wht_core::compile` under the planner's [`ExecPolicy`]
//!    (fuse → relayout → re-codelet → kernel backend → batch), and the
//!    compiled schedule is cached — steady-state traffic is a wisdom hit
//!    plus a flat schedule replay: zero cost evaluations, zero tree
//!    walks.
//! 3. Wisdom round-trips through JSON ([`Wisdom::to_json`] /
//!    [`Wisdom::from_json`]) and persists in a crash-safe [`ShardedStore`]
//!    ([`Planner::save_store`] / [`Planner::with_store`]), so a fleet can
//!    ship pre-tuned wisdom and a fresh process starts warm — the FFTW
//!    `wisdom` workflow, keyed by `(n, cost-backend name)`.
//!
//! ## Wisdom holds plans; the policy decides execution
//!
//! A wisdom entry records what the search decided and nothing about how
//! the winner was executed. Every size compiles under one [`ExecPolicy`]:
//! the one [`Planner::with_exec`] set, else the [`ExecPolicy::from_env`]
//! snapshot [`Planner::new`] takes. A planner that imports wisdom runs the
//! recorder's plans under its *own* policy; output bits cannot differ,
//! because every lowering stage is bit-identical to the recursive
//! interpreter.
//!
//! ## Wisdom format (version 8)
//!
//! ```text
//! {"version": 8, "entries": [{"n": 4, "backend": "instruction-model",
//!   "plan": "split[small[2],small[2]]", "objective": null,
//!   "provenance": {"composition": [2, 2], "candidates": 8, "evaluated": 5,
//!                  "pruned": 3, "cost": 42.5},
//!   "measured_ns": 910}]}
//! ```
//!
//! - `n`, `backend`: the entry's key.
//! - `plan`: the winner in the WHT-package grammar, parsed and validated
//!   on load.
//! - `objective`: the [`CostObjective`] the vectored cost backend was
//!   collapsed under when the plan won (`null`: the backend's own
//!   weights). A planner aimed at a different objective
//!   ([`Planner::with_objective`]) treats the entry as a miss.
//! - `provenance`: how the plan won its memo search ([`PlanProvenance`]),
//!   so [`Planner::explain`] survives a process restart.
//! - `measured_ns`: measured wall-clock evidence; the store's merge keeps
//!   the measured-fastest entry per key (see [`crate::store`]).
//!
//! [`Wisdom::from_json`] reads version 8 only and ignores unknown fields.
//! A document of any other version is refused: in a store its shard is
//! quarantined as [`StoreDiagnostic::VersionUnknown`] and its sizes
//! cold-search. Wisdom caches search results, so an old store costs one
//! search per size, never a wrong answer.
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
//! // Ship the search results to another process:
//! let json = planner.wisdom().to_json();
//! let warm = wht_search::Wisdom::from_json(&json)?;
//! assert!(warm.get(10, planner.backend_name()).is_some());
//! # Ok::<(), wht_core::WhtError>(())
//! ```

use crate::cost::{CostObjective, PlanCost, VectorCost};
use crate::dp::DpOptions;
use crate::memo::{memo_search, MemoTable};
use crate::store::{ShardedStore, StoreDiagnostic};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use wht_core::{CompiledPlan, ExecPolicy, Plan, Scalar, WhtError};

/// How a wisdom entry's plan won its memo search: the winning
/// composition and the candidate counts, lifted out of the searcher's
/// [`crate::memo::GroupProvenance`] into a serializable record so
/// [`Planner::explain`] survives a process restart.
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

/// One best-known plan plus everything recorded with it: the objective
/// it won under, the search provenance, and measured wall-clock evidence
/// when any exists.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WisdomRecord {
    pub(crate) plan: Plan,
    pub(crate) objective: Option<CostObjective>,
    pub(crate) provenance: Option<PlanProvenance>,
    pub(crate) measured_ns: Option<u64>,
}

/// One serialized entry (see the module docs' format section). The plan
/// travels as its WHT-package grammar string: stable, human-readable, and
/// validated on parse.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WisdomEntry {
    n: u32,
    backend: String,
    plan: String,
    objective: Option<CostObjective>,
    provenance: Option<PlanProvenance>,
    measured_ns: Option<u64>,
}

impl WisdomEntry {
    fn new(n: u32, backend: &str, record: &WisdomRecord) -> Self {
        WisdomEntry {
            n,
            backend: backend.to_string(),
            plan: record.plan.to_string(),
            objective: record.objective,
            provenance: record.provenance.clone(),
            measured_ns: record.measured_ns,
        }
    }
}

/// One serialized wisdom document.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WisdomFile {
    version: u32,
    entries: Vec<WisdomEntry>,
}

/// The one wisdom format version this build writes and reads.
const WISDOM_VERSION: u32 = 8;

/// Render `entries` as a current-version wisdom document.
fn render(entries: Vec<WisdomEntry>) -> String {
    serde_json::to_string_pretty(&WisdomFile {
        version: WISDOM_VERSION,
        entries,
    })
    .expect("wisdom serialization is infallible")
}

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

    /// The whole `(n, backend)` record, if any — how the planner reads
    /// the objective an entry was searched under.
    pub(crate) fn record(&self, n: u32, backend: &str) -> Option<&WisdomRecord> {
        self.entries.get(&n)?.get(backend)
    }

    /// Best known plan for size `2^n` under `backend`, if recorded.
    pub fn get(&self, n: u32, backend: &str) -> Option<&Plan> {
        Some(&self.record(n, backend)?.plan)
    }

    /// Record (or overwrite) the best plan for `(n, backend)`, with no
    /// objective, provenance or measurement attached.
    ///
    /// # Errors
    /// [`WhtError::SizeTooLarge`] if `n` exceeds [`wht_core::MAX_N`];
    /// [`WhtError::LengthMismatch`] if `plan.n() != n` — wisdom for size
    /// `n` must transform size-`2^n` inputs.
    pub fn insert(&mut self, n: u32, backend: &str, plan: Plan) -> Result<(), WhtError> {
        self.insert_checked(
            n,
            backend,
            WisdomRecord {
                plan,
                objective: None,
                provenance: None,
                measured_ns: None,
            },
        )
    }

    /// [`Wisdom::insert`] for a whole record: every entry passes these
    /// checks, whether a search or a wisdom document produced it (a
    /// document can claim any `n`).
    fn insert_checked(
        &mut self,
        n: u32,
        backend: &str,
        record: WisdomRecord,
    ) -> Result<(), WhtError> {
        if n > wht_core::MAX_N {
            return Err(WhtError::SizeTooLarge { n });
        }
        if record.plan.n() != n {
            return Err(WhtError::LengthMismatch {
                expected: 1usize << n,
                got: record.plan.size(),
            });
        }
        self.insert_record(n, backend, record);
        Ok(())
    }

    /// The search provenance recorded with the `(n, backend)` entry —
    /// how its plan won — or `None` when no entry exists or none was
    /// recorded.
    pub fn provenance(&self, n: u32, backend: &str) -> Option<&PlanProvenance> {
        self.record(n, backend)?.provenance.as_ref()
    }

    /// Measured wall-clock evidence (nanoseconds) recorded with the
    /// `(n, backend)` entry, if any. The sharded store's merge keeps the
    /// measured-fastest entry per key.
    pub fn measured_ns(&self, n: u32, backend: &str) -> Option<u64> {
        self.record(n, backend)?.measured_ns
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
        let record = self.record(n, backend)?;
        Some(render(vec![WisdomEntry::new(n, backend, record)]))
    }

    /// Merge `incoming` into this store, key by key: missing entries are
    /// adopted outright, and an existing entry is replaced only when the
    /// incoming one carries **strictly better measured evidence** (a
    /// faster `measured_ns`, or any measurement where the incumbent has
    /// none). Without evidence the incumbent wins — absorbing a store
    /// must never silently discard this process's own fresher searches.
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
    /// current version-8 format.
    pub fn to_json(&self) -> String {
        let mut entries: Vec<WisdomEntry> = self
            .entries
            .iter()
            .flat_map(|(n, backends)| {
                backends
                    .iter()
                    .map(|(backend, record)| WisdomEntry::new(*n, backend, record))
            })
            .collect();
        entries.sort_by(|a, b| (a.n, &a.backend).cmp(&(b.n, &b.backend)));
        render(entries)
    }

    /// Parse a version-8 store from JSON, validating every plan. Unknown
    /// fields are ignored; every other version is refused.
    ///
    /// # Errors
    /// [`WhtError::InvalidConfig`] on malformed JSON or any version but 8;
    /// [`WhtError::Parse`] / structural errors on a bad plan string;
    /// [`WhtError::SizeTooLarge`] / [`WhtError::LengthMismatch`] on an
    /// entry whose `n` is out of range or disagrees with its plan.
    pub fn from_json(json: &str) -> Result<Self, WhtError> {
        let file: WisdomFile = serde_json::from_str(json)
            .map_err(|e| WhtError::InvalidConfig(format!("wisdom JSON: {e}")))?;
        if file.version != WISDOM_VERSION {
            return Err(WhtError::InvalidConfig(format!(
                "wisdom version {} unsupported (this build reads version {WISDOM_VERSION})",
                file.version
            )));
        }
        let mut wisdom = Wisdom::new();
        for entry in file.entries {
            let record = WisdomRecord {
                plan: entry.plan.parse()?,
                objective: entry.objective,
                provenance: entry.provenance,
                measured_ns: entry.measured_ns,
            };
            wisdom.insert_checked(entry.n, &entry.backend, record)?;
        }
        Ok(wisdom)
    }
}

/// Parse a wisdom JSON document, classifying any failure as a typed
/// [`StoreDiagnostic`] — truncation (the parser ran off the end of the
/// text), a version other than 8, or plain corruption. The sharded
/// store's payload path.
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
/// string's own byte offsets (tiny, relative to the whole document) never
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
    (v.version != WISDOM_VERSION).then_some(v.version)
}

/// Production entry point: owns a cost backend, a [`Wisdom`] store, and a
/// compiled-schedule cache; serves `planner.transform(&mut x)` with
/// memoized search amortized to zero on the warm path (see the module
/// docs).
#[derive(Debug)]
pub struct Planner<C: PlanCost> {
    cost: C,
    opts: DpOptions,
    /// The executor configuration every size compiles under (environment
    /// snapshot at construction, replaced by [`Planner::with_exec`]).
    exec: ExecPolicy,
    wisdom: Wisdom,
    compiled: HashMap<u32, CompiledPlan>,
    /// Solved search groups, kept across `plan` calls: a later, larger
    /// search only solves the spans no earlier search has seen.
    memo: MemoTable,
    /// The named weighting the cost backend was last aimed at via
    /// [`Planner::with_objective`]; `None` = the backend's own weights.
    objective: Option<CostObjective>,
    /// Diagnostics accumulated from store loads this planner degraded
    /// through ([`Planner::with_store`]) — surfaced via
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
            wisdom: Wisdom::new(),
            compiled: HashMap::new(),
            memo: MemoTable::new(),
            objective: None,
            store_diagnostics: Vec::new(),
            evaluations: 0,
        }
    }

    /// Replace the **whole** executor configuration (builder style).
    /// Drops compiled schedules so already-served sizes recompile under
    /// the new configuration. `with_exec(ExecPolicy::all_disabled())` is
    /// the full API opt-out: the pure scalar unfused baseline, whatever
    /// the environment says.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self.compiled.clear();
        self
    }

    /// The executor configuration every size compiles under.
    pub fn exec(&self) -> &ExecPolicy {
        &self.exec
    }

    /// Adopt previously saved wisdom (builder style). Drops any compiled
    /// schedules so already-served sizes recompile the new wisdom's plans
    /// instead of silently replaying superseded ones.
    #[must_use]
    pub fn with_wisdom(mut self, wisdom: Wisdom) -> Self {
        self.wisdom = wisdom;
        self.compiled.clear();
        self
    }

    /// Warm the planner from a [`ShardedStore`] (builder style), under
    /// the **degradation contract**: whatever the store's condition —
    /// missing shards, some corrupt, all corrupt, written by another
    /// format version — this never fails and never panics. Intact shards
    /// merge into the planner's wisdom ([`Wisdom::absorb`]: holes fill,
    /// measured evidence wins, this planner's own fresher searches are
    /// never discarded); refused shards are quarantined by the load and
    /// reported through [`Planner::store_diagnostics`] and
    /// [`Planner::explain`], and the affected sizes simply cold-search on
    /// first use — a warm **miss**, never a poisoned plan.
    #[must_use]
    pub fn with_store(mut self, store: &ShardedStore) -> Self {
        let loaded = store.load();
        self.store_diagnostics.extend(loaded.diagnostics);
        self.wisdom.absorb(loaded.wisdom);
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

    /// Diagnostics from every store load this planner degraded through
    /// (empty when all loads were clean).
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
    /// entry (marked `[replayed from wisdom]`), so the account survives a
    /// process restart. When the size has already been
    /// compiled, the line also carries the static verifier's verdict on
    /// the schedule actually serving traffic ([`CompiledPlan::verify`]):
    /// `verified` when every invariant proved clean, otherwise the
    /// diagnostic count and the first violation. When any store load
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

    /// The [`ExecPolicy`] size `2^n` compiles under: this planner's own
    /// ([`Planner::exec`]) at every size, whatever its wisdom holds.
    /// Exposed so services can inspect the configuration without
    /// compiling.
    pub fn resolved_exec(&self, _n: u32) -> ExecPolicy {
        self.exec
    }

    /// Whether the `(m, backend)` wisdom entry may serve this planner: it
    /// must exist, and — when the planner is aimed at a named objective —
    /// must have been recorded under that same objective (a plan optimal
    /// for a different collapse is a miss, not a hit).
    fn wisdom_entry_is_current(&self, m: u32, backend: &str) -> bool {
        self.wisdom
            .record(m, backend)
            .is_some_and(|r| self.objective.is_none() || r.objective == self.objective)
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
            for m in 1..=n {
                // Smaller sizes only fill holes (or replace entries
                // recorded under a different objective): an imported
                // entry may encode better (e.g. measured) wisdom than
                // this search.
                if m == n || !self.wisdom_entry_is_current(m, backend) {
                    let group = self
                        .memo
                        .group(m)
                        .expect("memo_search solved every span up to n");
                    let record = WisdomRecord {
                        plan: group.plan.clone(),
                        objective: self.objective,
                        // The memo's account of the choice travels with
                        // the plan, so explain(m) survives a restart.
                        provenance: Some(PlanProvenance {
                            composition: group.provenance.composition.clone(),
                            candidates: group.provenance.candidates as u64,
                            evaluated: group.provenance.evaluated as u64,
                            pruned: group.provenance.pruned as u64,
                            cost: group.cost,
                        }),
                        measured_ns: None,
                    };
                    self.wisdom.insert_checked(m, backend, record)?;
                }
            }
        }
        Ok(self
            .wisdom
            .get(n, backend)
            .expect("entry inserted or present above"))
    }

    /// The compiled schedule serving size `2^n`, searched and lowered
    /// under this planner's policy on first use.
    fn schedule(&mut self, n: u32) -> Result<&CompiledPlan, WhtError> {
        if !self.compiled.contains_key(&n) {
            let plan = self.plan(n)?.clone();
            self.compiled
                .insert(n, CompiledPlan::compile_exec(&plan, &self.exec));
        }
        Ok(self.compiled.get(&n).expect("inserted above"))
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
        let compiled = self.schedule(n)?;
        // Measure the replay and feed the wall-clock back into the wisdom
        // entry it executed (fastest sample wins, matching the sharded
        // store's measured-fastest merge) — so a planner that merely
        // *runs* accumulates the measured evidence the store's
        // cross-process merge arbitrates on.
        let start = std::time::Instant::now();
        compiled.apply(x)?;
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
    /// [`CompiledPlan::apply_batch`] — past the policy's row-block
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
        self.schedule(n)?.apply_batch(x, rows)
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
    /// (see the module docs' format section).
    #[must_use]
    pub fn with_objective(mut self, objective: CostObjective) -> Self {
        self.cost.set_objective(objective);
        self.objective = Some(objective);
        self.memo.clear();
        self.compiled.clear();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CombinedModelCost, InstructionCost};
    use wht_core::{
        apply_plan, max_abs_diff, naive_wht, BatchPolicy, FusionPolicy, RecodeletPolicy,
        RelayoutPolicy, SimdPolicy,
    };

    /// A planner set through `with_exec` to the environment's policy with
    /// `edit` applied — how a caller overrides one stage.
    fn pinned_to(edit: impl FnOnce(ExecPolicy) -> ExecPolicy) -> Planner<InstructionCost> {
        Planner::new(InstructionCost::default()).with_exec(edit(ExecPolicy::from_env()))
    }

    /// Wisdom for size `2^n`, searched by a planner running `recorder` and
    /// shipped through JSON.
    fn recorded_under(recorder: ExecPolicy, n: u32) -> Wisdom {
        let mut planner = Planner::new(InstructionCost::default()).with_exec(recorder);
        planner.plan(n).unwrap();
        Wisdom::from_json(&planner.wisdom().to_json()).unwrap()
    }

    /// Wisdom holding `plan` for its size — a many-factor shape gives
    /// every stage something to do.
    fn wisdom_with(plan: Plan) -> Wisdom {
        let mut wisdom = Wisdom::new();
        wisdom.insert(plan.n(), "instruction-model", plan).unwrap();
        wisdom
    }

    /// The schedule a planner running `exec` serves for size `2^n` out of
    /// `wisdom`: warm, correct, and compiled under `exec` itself.
    fn served(exec: ExecPolicy, wisdom: &Wisdom, n: u32) -> CompiledPlan {
        let mut planner = Planner::new(InstructionCost::default())
            .with_exec(exec)
            .with_wisdom(wisdom.clone());
        assert_eq!(planner.resolved_exec(n), exec);
        let mut x: Vec<f64> = (0..1 << n).map(|j| (j % 13) as f64 - 6.0).collect();
        let want = naive_wht(&x);
        planner.transform(&mut x).unwrap();
        assert!(max_abs_diff(&x, &want) < 1e-9);
        assert_eq!(planner.evaluations(), 0, "the wisdom covers the size");
        planner.compiled.remove(&n).expect("served")
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
        assert!(json.contains("\"version\": 8"), "{json}");

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
    fn imported_wisdom_compiles_under_the_importers_policy() {
        // The recorder runs fusion off and an eager relayout; the importer
        // keeps its own (environment) policy and serves exactly the
        // schedule a fresh planner with that policy compiles.
        let n = 14;
        let input: Vec<f64> = (0..1 << n).map(|j| (j % 11) as f64 - 5.0).collect();
        let mut recorder = pinned_to(|p| {
            p.with_fusion(FusionPolicy::disabled())
                .with_relayout(RelayoutPolicy::eager(1 << 9))
        });
        let mut recorded = input.clone();
        recorder.transform(&mut recorded).unwrap();
        let wisdom = Wisdom::from_json(&recorder.wisdom().to_json()).unwrap();

        let mut importer = Planner::new(InstructionCost::default()).with_wisdom(wisdom);
        assert_eq!(importer.resolved_exec(n), *importer.exec());
        let mut imported = input.clone();
        importer.transform(&mut imported).unwrap();
        assert_eq!(importer.evaluations(), 0, "served from the import");

        let mut fresh = Planner::new(InstructionCost::default());
        let mut searched = input;
        fresh.transform(&mut searched).unwrap();
        assert_eq!(importer.compiled.get(&n), fresh.compiled.get(&n));
        assert_eq!(imported, searched);
        assert_eq!(imported, recorded, "the policy never changes output bits");
    }

    #[test]
    fn disabled_default_policy_is_a_kill_switch_over_recorded_budgets() {
        // Wisdom carries only the plan, so a planner with fusion off (what
        // WHT_NO_FUSE=1 produces at construction) serves it unfused, and
        // one with fusion on serves it fused.
        let wisdom = wisdom_with(Plan::iterative(10).unwrap());
        let fused = ExecPolicy::default().with_fusion(FusionPolicy::new(1 << 9));
        let off = fused.with_fusion(FusionPolicy::disabled());
        assert!(!served(off, &wisdom, 10).is_fused());
        assert!(served(fused, &wisdom, 10).is_fused());
    }

    #[test]
    fn with_exec_pins_the_fusion_policy_over_recorded_budgets() {
        // A planner that already served a size fused must honor a later
        // explicit opt-out: with_exec drops the compiled schedule, and the
        // size recompiles its own wisdom's plan under the new policy.
        let mut planner = pinned_to(|p| p.with_fusion(FusionPolicy::new(1 << 12)));
        let mut x: Vec<f64> = (0..4096).map(|j| (j % 7) as f64).collect();
        planner.transform(&mut x).unwrap();
        assert!(planner.compiled.get(&12).unwrap().is_fused());

        let exec = planner.exec().with_fusion(FusionPolicy::disabled());
        let mut planner = planner.with_exec(exec);
        let mut y: Vec<f64> = (0..4096).map(|j| (j % 7) as f64).collect();
        planner.transform(&mut y).unwrap();
        assert!(
            !planner.compiled.get(&12).unwrap().is_fused(),
            "an explicitly pinned disabled fusion must beat the earlier schedule"
        );
        // And flipping back on works the same way.
        let exec = planner.exec().with_fusion(FusionPolicy::unbounded());
        let mut planner = planner.with_exec(exec);
        let mut z: Vec<f64> = (0..4096).map(|j| (j % 7) as f64).collect();
        planner.transform(&mut z).unwrap();
        assert!(planner.compiled.get(&12).unwrap().is_fused());
    }

    #[test]
    fn simd_kill_switch_and_pinning_beat_recorded_backends() {
        // Wisdom searched with scalar kernels does not carry the backend:
        // each importer serves it with its own.
        let scalar = ExecPolicy::default().with_simd(SimdPolicy::disabled());
        let wisdom = recorded_under(scalar, 10);
        assert!(!served(scalar, &wisdom, 10).is_simd());
        let lanes = scalar.with_simd(SimdPolicy::auto());
        assert!(served(lanes, &wisdom, 10).is_simd());
    }

    #[test]
    fn relayout_kill_switch_and_pinning_beat_recorded_tuning() {
        // The importer's relayout policy alone decides whether a tail that
        // can be gathered is.
        let wisdom = wisdom_with(Plan::iterative(14).unwrap());
        let fused = ExecPolicy::default().with_fusion(FusionPolicy::new(1 << 6));
        let off = fused.with_relayout(RelayoutPolicy::disabled());
        assert!(!served(off, &wisdom, 14).has_relayout());
        let eager = fused.with_relayout(RelayoutPolicy::eager(1 << 9));
        assert!(served(eager, &wisdom, 14).has_relayout());
        // binary_iterative(10, 2) fused at 2^6 leaves a 2-pass tail
        // (strides 64 and 256): gathered only under a policy that allows
        // two passes, and correct when it is.
        let two_pass = wisdom_with(Plan::binary_iterative(10, 2).unwrap());
        assert!(!served(eager, &two_pass, 10).has_relayout());
        let floor = fused.with_relayout(RelayoutPolicy {
            min_passes: 2,
            ..RelayoutPolicy::eager(1 << 9)
        });
        assert!(served(floor, &two_pass, 10).has_relayout());
    }

    #[test]
    fn recodelet_resolves_through_the_same_precedence_rule() {
        // Re-codeleting follows the importer's policy like every other
        // stage, and never changes output bits.
        let wisdom = wisdom_with(Plan::iterative(14).unwrap());
        let tail = ExecPolicy::default()
            .with_fusion(FusionPolicy::new(1 << 6))
            .with_relayout(RelayoutPolicy::eager(1 << 9));
        let per_factor = served(
            tail.with_recodelet(RecodeletPolicy::disabled()),
            &wisdom,
            14,
        );
        let merged = served(tail, &wisdom, 14);
        assert!(per_factor.has_relayout() && !per_factor.has_recodeleted());
        assert!(merged.has_recodeleted());
        let mut x: Vec<f64> = (0..1 << 14).map(|j| (j % 5) as f64).collect();
        let mut y = x.clone();
        per_factor.apply(&mut x).unwrap();
        merged.apply(&mut y).unwrap();
        assert_eq!(y, x, "re-codeleting never changes output bits");
    }

    #[test]
    fn batch_kill_switch_and_pinning_beat_recorded_thresholds() {
        // Wisdom searched under one row threshold is served under the
        // importer's: off, or its own threshold.
        let wisdom = recorded_under(ExecPolicy::default().with_batch(BatchPolicy::new(16)), 10);
        let off = ExecPolicy::default().with_batch(BatchPolicy::disabled());
        assert!(!served(off, &wisdom, 10).is_batched());
        let eight = ExecPolicy::default().with_batch(BatchPolicy::new(8));
        assert!(served(eight, &wisdom, 10).is_batched());
    }

    #[test]
    fn with_exec_pins_every_knob() {
        // Wisdom searched with every stage on is served with every stage
        // off under with_exec(all_disabled).
        let wisdom = recorded_under(ExecPolicy::default(), 14);
        let compiled = served(ExecPolicy::all_disabled(), &wisdom, 14);
        assert!(!compiled.is_fused() && !compiled.is_simd());
        assert!(!compiled.has_relayout() && !compiled.has_recodeleted());
        assert!(!compiled.is_batched() && !compiled.has_streamed());
    }

    #[test]
    fn unknown_json_fields_are_tolerated() {
        // Forward compatibility within version 8: fields this build does
        // not know, at the top level and inside an entry, are ignored;
        // known ones are honored.
        let doc = "{\"version\":8,\"future_knob\":\"xyz\",\"entries\":[{\"n\":4,\
                   \"backend\":\"x\",\"plan\":\"split[small[2],small[2]]\",\
                   \"objective\":\"Memory\",\"measured_ns\":77,\
                   \"hints\":{\"prefetch_distance\":8,\"lanes\":[4,8]}}]}";
        let w = Wisdom::from_json(doc).unwrap();
        assert_eq!(
            w.get(4, "x").unwrap().to_string(),
            "split[small[2],small[2]]"
        );
        assert_eq!(
            w.record(4, "x").unwrap().objective,
            Some(CostObjective::Memory)
        );
        assert_eq!(w.measured_ns(4, "x"), Some(77));
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
        // The on-disk form is the sharded store: one file per entry, read
        // back whole by a fresh planner.
        let _isolate = crate::failpoints::scope();
        let dir = std::env::temp_dir().join(format!("wht_wisdom_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut planner = Planner::new(InstructionCost::default());
        planner.plan(8).unwrap();
        let store = ShardedStore::open(&dir).unwrap();
        assert_eq!(planner.save_store(&store).unwrap(), 8);
        let warm = Planner::new(InstructionCost::default()).with_store(&store);
        assert!(warm.store_diagnostics().is_empty());
        assert_eq!(warm.wisdom(), planner.wisdom());
        let _ = std::fs::remove_dir_all(&dir);
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
        // Version 8 only: older documents are refused like future ones.
        for version in [1, 7, 9, 99] {
            let doc = format!("{{\"version\":{version},\"entries\":[]}}");
            assert!(Wisdom::from_json(&doc).is_err(), "version {version}");
        }
        assert!(Wisdom::from_json("{\"version\":8,\"entries\":[]}").is_ok());
        let bad_plan =
            "{\"version\":8,\"entries\":[{\"n\":4,\"backend\":\"x\",\"plan\":\"small[\"}]}";
        assert!(Wisdom::from_json(bad_plan).is_err());
        let wrong_size =
            "{\"version\":8,\"entries\":[{\"n\":4,\"backend\":\"x\",\"plan\":\"small[3]\"}]}";
        assert!(Wisdom::from_json(wrong_size).is_err());
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
            planner.wisdom().record(12, backend).unwrap().objective,
            Some(CostObjective::Memory)
        );
        let json = planner.wisdom().to_json();
        assert!(json.contains("\"objective\": \"Memory\""), "{json}");
        let reloaded = Wisdom::from_json(&json).unwrap();
        assert_eq!(
            reloaded.record(12, backend).unwrap().objective,
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
            other.wisdom().record(12, backend).unwrap().objective,
            Some(CostObjective::Latency),
            "the stale entry is replaced under the new objective"
        );
        // An entry searched under the backend's own weights records no
        // objective: it is a miss for a planner aimed at one.
        let mut plain = Planner::new(CombinedModelCost::paper_default());
        plain.plan(10).unwrap();
        assert_eq!(plain.wisdom().record(10, backend).unwrap().objective, None);
        let mut aimed = Planner::new(CombinedModelCost::paper_default())
            .with_wisdom(plain.wisdom().clone())
            .with_objective(CostObjective::Memory);
        aimed.plan(10).unwrap();
        assert!(aimed.evaluations() > 0);
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
        // A wisdom-served planner replays the persisted provenance: the
        // account survives a process restart, marked as a replay.
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
