//! Cascades-style memoized plan search with branch-and-bound pruning.
//!
//! [`dp_search`](crate::dp_search) re-evaluates every composed candidate
//! from scratch on every call. This module rebuilds the same bottom-up
//! search around a **memo table of groups** — the cascades framing from
//! optd, where a *group* is one subproblem (here: the factor span `2^m`)
//! holding its best plan, its cost, and the provenance of how it won:
//!
//! - **Memoization across searches.** A [`MemoTable`] outlives one call;
//!   `memo_search(n)` reuses every group a previous search (of any size,
//!   under the same backend and options) already solved, so a planner
//!   serving many sizes pays for each span once.
//! - **Branch-and-bound pruning.** Backends that implement
//!   [`PlanCost::compose_lower_bound`] give each composition a lower bound
//!   from its children's memoized best costs. Candidates are evaluated in
//!   ascending-bound order, and the moment the next bound exceeds the
//!   incumbent the whole remainder of the group is pruned unevaluated.
//! - **Identical answers.** The winner is chosen by the same deterministic
//!   tie-break as `dp_search` — cost first, then earliest candidate in
//!   canonical generation order (leaf = candidate 0, then
//!   [`split_compositions`] order) — and a pruned candidate's cost is
//!   *strictly* above the final incumbent by construction, so the best
//!   plan and cost match `dp_search` exactly whenever the advertised
//!   bound is sound (differentially tested in
//!   `tests/memo_differential.rs`).
//!
//! Backends with no sound bound (e.g. `FusedTrafficCost`, whose fusion
//! makes cost sub-additive) simply fall back to evaluating every
//! candidate — still memoized across sizes and searches.

use crate::cost::{CostVec, PlanCost};
use crate::dp::{split_compositions, validate_search_args, DpOptions, DpResult};
use wht_core::{Plan, WhtError};

/// How one group's winner was chosen — the planner's "explain" record.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupProvenance {
    /// The winning composition's part spans (`None`: the leaf codelet won).
    pub composition: Option<Vec<u32>>,
    /// Total candidates in the group (leaf, if eligible, + compositions).
    pub candidates: usize,
    /// Candidates actually cost-evaluated.
    pub evaluated: usize,
    /// Candidates discarded by the branch-and-bound lower bound without
    /// being evaluated.
    pub pruned: usize,
}

/// One solved subproblem: the best plan of span `2^m` under the table's
/// cost backend and options, with cost, optional term vector, and
/// provenance.
#[derive(Debug, Clone)]
pub struct Group {
    /// The winning plan.
    pub plan: Plan,
    /// Its (collapsed, scalar) cost.
    pub cost: f64,
    /// Its term vector, when the backend reports one
    /// ([`PlanCost::cost_terms`]); `None` for scalar-only backends.
    pub terms: Option<CostVec>,
    /// How it won.
    pub provenance: GroupProvenance,
}

impl Group {
    /// One-line human-readable account of the choice.
    pub fn explain(&self, m: u32) -> String {
        let via = match &self.provenance.composition {
            Some(parts) => {
                let parts: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
                format!("split[{}]", parts.join(","))
            }
            None => "leaf".to_string(),
        };
        let mut line = format!(
            "2^{m}: cost={:.3} via {via}; evaluated {}/{} candidates ({} pruned)",
            self.cost,
            self.provenance.evaluated,
            self.provenance.candidates,
            self.provenance.pruned
        );
        if let Some(terms) = &self.terms {
            line.push_str("; ");
            line.push_str(&terms.explain());
        }
        line
    }
}

/// The memo: one [`Group`] per solved span, remembered across searches.
///
/// Groups are only valid for one (backend, [`DpOptions`]) context; a
/// `memo_search` under a different context resets the table. The backend
/// is identified by [`PlanCost::name`] — callers that mutate a backend's
/// weights in place must call [`MemoTable::clear`] themselves, since the
/// name does not change.
#[derive(Debug, Clone, Default)]
pub struct MemoTable {
    context: Option<(&'static str, DpOptions)>,
    /// `groups[m]` for span exponent `m`; index 0 stays empty.
    groups: Vec<Option<Group>>,
    evaluations: usize,
}

impl MemoTable {
    /// An empty table.
    pub fn new() -> Self {
        MemoTable::default()
    }

    /// Drop every group (e.g. after re-weighting the cost backend).
    pub fn clear(&mut self) {
        self.context = None;
        self.groups.clear();
        self.evaluations = 0;
    }

    /// The solved group for span `2^m`, if any.
    pub fn group(&self, m: u32) -> Option<&Group> {
        self.groups.get(m as usize).and_then(Option::as_ref)
    }

    /// The largest span exponent solved so far (0 = empty table).
    pub fn solved_n(&self) -> u32 {
        (self.groups.len().saturating_sub(1)) as u32
    }

    /// Total cost evaluations across every search this table served.
    pub fn total_evaluations(&self) -> usize {
        self.evaluations
    }

    fn ensure_context(&mut self, backend: &'static str, opts: &DpOptions) {
        if self.context != Some((backend, *opts)) {
            self.clear();
            self.context = Some((backend, *opts));
        }
    }
}

/// Result of one [`memo_search`] call: the winner plus this call's search
/// effort (the memo's cross-call totals live on the table).
#[derive(Debug, Clone)]
pub struct MemoResult {
    /// The size exponent searched.
    pub n: u32,
    /// Best plan for `2^n`.
    pub best: Plan,
    /// Its cost.
    pub cost: f64,
    /// Candidate cost evaluations performed by *this* call (provenance
    /// term-vector stamping — at most one `cost_terms` per newly solved
    /// group — is not counted).
    pub evaluations: usize,
    /// Candidates pruned unevaluated by the lower bound in this call.
    pub pruned: usize,
    /// Groups reused from previous searches instead of being solved.
    pub reused_groups: usize,
}

/// Memoized branch-and-bound search up to `2^n`; same contract and same
/// answer as [`dp_search`](crate::dp_search) (see the module docs), at a
/// fraction of the evaluations.
///
/// # Errors
/// [`WhtError::InvalidConfig`] for `n == 0`, `max_parts < 2`, or
/// `max_leaf_k` outside `1..=MAX_LEAF_K`; propagates cost-function errors.
pub fn memo_search<C: PlanCost>(
    n: u32,
    opts: &DpOptions,
    cost_fn: &mut C,
    memo: &mut MemoTable,
) -> Result<MemoResult, WhtError> {
    validate_search_args(n, opts)?;
    memo.ensure_context(cost_fn.name(), opts);
    if memo.groups.len() < n as usize + 1 {
        memo.groups.resize(n as usize + 1, None);
    }

    let mut evaluations = 0usize;
    let mut pruned_total = 0usize;
    let mut reused = 0usize;

    for m in 1..=n {
        if memo.groups[m as usize].is_some() {
            reused += 1;
            continue;
        }
        let group = solve_group(m, opts, cost_fn, memo, &mut evaluations, &mut pruned_total)?;
        memo.groups[m as usize] = Some(group);
    }

    memo.evaluations += evaluations;
    let top = memo.groups[n as usize].as_ref().expect("just solved");
    Ok(MemoResult {
        n,
        best: top.plan.clone(),
        cost: top.cost,
        evaluations,
        pruned: pruned_total,
        reused_groups: reused,
    })
}

/// Everything solved so far as a classic [`DpResult`] (per-size table).
/// `None` if any span in `1..=n` is unsolved. The result's evaluation
/// count is the table's cross-call total.
pub fn memo_to_dp_result(memo: &MemoTable, n: u32) -> Option<DpResult> {
    if n == 0 || memo.solved_n() < n {
        return None;
    }
    let mut table: Vec<Option<(Plan, f64)>> = vec![None; n as usize + 1];
    for m in 1..=n {
        let g = memo.group(m)?;
        table[m as usize] = Some((g.plan.clone(), g.cost));
    }
    Some(DpResult::from_table(table, memo.total_evaluations()))
}

/// One candidate: its lower bound, its canonical generation index, and
/// the composition behind it (`None` = leaf).
struct Candidate {
    bound: f64,
    index: usize,
    composition: Option<Vec<u32>>,
}

fn solve_group<C: PlanCost>(
    m: u32,
    opts: &DpOptions,
    cost_fn: &mut C,
    memo: &MemoTable,
    evaluations: &mut usize,
    pruned_total: &mut usize,
) -> Result<Group, WhtError> {
    // Enumerate the group's candidates with lower bounds. The leaf (when
    // eligible) is candidate 0 with an always-evaluate bound: it is the
    // cheapest evaluation and seeds the incumbent for pruning.
    let mut candidates = Vec::new();
    if m <= opts.max_leaf_k {
        candidates.push(Candidate {
            bound: f64::NEG_INFINITY,
            index: 0,
            composition: None,
        });
    }
    if m >= 2 {
        let mut parts_buf = Vec::new();
        for (i, comp) in split_compositions(m, opts.max_parts)
            .into_iter()
            .enumerate()
        {
            parts_buf.clear();
            for &c in &comp {
                let child = memo.group(c).expect("children solved bottom-up");
                parts_buf.push((c, child.cost));
            }
            // No advertised bound => never pruned (and, sorting below,
            // kept in generation order ahead of bounded candidates).
            let bound = cost_fn
                .compose_lower_bound(m, &parts_buf)
                .unwrap_or(f64::NEG_INFINITY);
            candidates.push(Candidate {
                bound,
                index: i + 1,
                composition: Some(comp),
            });
        }
    }
    let total = candidates.len();
    if total == 0 {
        return Err(WhtError::InvalidConfig(format!(
            "no candidate plan for size 2^{m}"
        )));
    }
    // Cheapest-possible first; generation order breaks bound ties so the
    // incumbent tightens deterministically.
    candidates.sort_by(|a, b| a.bound.total_cmp(&b.bound).then(a.index.cmp(&b.index)));

    let mut best: Option<(Plan, f64, usize)> = None;
    let mut evaluated = 0usize;
    let mut pruned = 0usize;
    for (pos, cand) in candidates.iter().enumerate() {
        if let Some((_, incumbent, _)) = &best {
            // Strictly above the incumbent: this candidate — and everything
            // after it in bound order — costs strictly more than the final
            // winner, so it can neither win nor tie. (`bound == incumbent`
            // still evaluates: an exact tie must fall to the earlier
            // generation index, which only an evaluation can establish.)
            if cand.bound > *incumbent {
                pruned = total - pos;
                break;
            }
        }
        let plan = match &cand.composition {
            None => Plan::Leaf { k: m },
            Some(comp) => {
                let children: Vec<Plan> = comp
                    .iter()
                    .map(|&c| memo.group(c).expect("solved").plan.clone())
                    .collect();
                Plan::split(children)?
            }
        };
        let c = cost_fn.cost(&plan)?;
        *evaluations += 1;
        evaluated += 1;
        let wins = match &best {
            None => true,
            // dp_search's tie-break, made explicit: cost, then earliest
            // canonical candidate.
            Some((_, bc, bi)) => c < *bc || (c == *bc && cand.index < *bi),
        };
        if wins {
            best = Some((plan, c, cand.index));
        }
    }
    *pruned_total += pruned;

    let (plan, cost, winner_index) = best.expect("at least one candidate evaluated");
    let composition = candidates
        .iter()
        .find(|c| c.index == winner_index)
        .and_then(|c| c.composition.clone());
    let terms = cost_fn.cost_terms(&plan)?;
    Ok(Group {
        plan,
        cost,
        terms,
        provenance: GroupProvenance {
            composition,
            candidates: total,
            evaluated,
            pruned,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CombinedModelCost, FusedTrafficCost, InstructionCost};
    use crate::dp::dp_search;

    #[test]
    fn memo_matches_dp_for_model_backends() {
        for opts in [DpOptions::default(), DpOptions::unbounded_parts()] {
            let mut dp_cost = CombinedModelCost::paper_default();
            let mut memo_cost = CombinedModelCost::paper_default();
            let mut memo = MemoTable::new();
            for n in 1..=10u32 {
                let dp = dp_search(n, &opts, &mut dp_cost).unwrap();
                let mm = memo_search(n, &opts, &mut memo_cost, &mut memo).unwrap();
                assert_eq!(mm.cost, dp.best_cost(), "n={n}");
                assert_eq!(mm.best, *dp.best_plan(), "n={n}");
            }
        }
    }

    #[test]
    fn memo_reuses_groups_across_searches() {
        let mut cost = InstructionCost::default();
        let mut memo = MemoTable::new();
        let first = memo_search(12, &DpOptions::default(), &mut cost, &mut memo).unwrap();
        assert!(first.evaluations > 0);
        assert_eq!(first.reused_groups, 0);
        // Same search again: every group is a memo hit.
        let again = memo_search(12, &DpOptions::default(), &mut cost, &mut memo).unwrap();
        assert_eq!(again.evaluations, 0);
        assert_eq!(again.reused_groups, 12);
        assert_eq!(again.best, first.best);
        // A *larger* search only solves the new spans.
        let bigger = memo_search(14, &DpOptions::default(), &mut cost, &mut memo).unwrap();
        assert_eq!(bigger.reused_groups, 12);
        assert!(bigger.evaluations < first.evaluations);
        // A smaller one is free.
        let smaller = memo_search(8, &DpOptions::default(), &mut cost, &mut memo).unwrap();
        assert_eq!(smaller.evaluations, 0);
    }

    #[test]
    fn context_change_resets_the_table() {
        let mut inst = InstructionCost::default();
        let mut memo = MemoTable::new();
        memo_search(8, &DpOptions::default(), &mut inst, &mut memo).unwrap();
        assert_eq!(memo.solved_n(), 8);
        // Different options: stale groups must not leak in.
        let narrow = DpOptions {
            max_parts: 2,
            ..DpOptions::default()
        };
        let r = memo_search(8, &narrow, &mut inst, &mut memo).unwrap();
        assert_eq!(r.reused_groups, 0);
        // Different backend (by name): reset again.
        let mut comb = CombinedModelCost::paper_default();
        let r = memo_search(8, &narrow, &mut comb, &mut memo).unwrap();
        assert_eq!(r.reused_groups, 0);
    }

    #[test]
    fn pruning_actually_prunes_for_bounded_backends() {
        let mut cost = CombinedModelCost::paper_default();
        let mut memo = MemoTable::new();
        let r = memo_search(16, &DpOptions::default(), &mut cost, &mut memo).unwrap();
        assert!(r.pruned > 0, "bounded backend should prune something");
        let mut dp_cost = CombinedModelCost::paper_default();
        let dp = dp_search(16, &DpOptions::default(), &mut dp_cost).unwrap();
        assert!(
            r.evaluations < dp.evaluations(),
            "memo {} vs dp {}",
            r.evaluations,
            dp.evaluations()
        );
    }

    #[test]
    fn unbounded_backend_degenerates_to_dp_evaluations() {
        // FusedTrafficCost advertises no composition bound, so the memo
        // search must evaluate exactly what dp does on a cold table —
        // memoization still pays on the second call.
        let opts = DpOptions::default();
        let mut memo_cost = FusedTrafficCost::default();
        let mut dp_cost = FusedTrafficCost::default();
        let mut memo = MemoTable::new();
        let r = memo_search(10, &opts, &mut memo_cost, &mut memo).unwrap();
        let dp = dp_search(10, &opts, &mut dp_cost).unwrap();
        assert_eq!(r.evaluations, dp.evaluations());
        assert_eq!(r.pruned, 0);
        assert_eq!(r.cost, dp.best_cost());
        assert_eq!(r.best, *dp.best_plan());
    }

    #[test]
    fn provenance_explains_the_choice() {
        let mut cost = InstructionCost::default();
        let mut memo = MemoTable::new();
        memo_search(10, &DpOptions::default(), &mut cost, &mut memo).unwrap();
        // Small spans: the leaf wins (candidate 0, no composition).
        let g2 = memo.group(2).unwrap();
        assert_eq!(g2.provenance.composition, None);
        // Past MAX_LEAF_K a split must win, its parts summing to the span.
        let g10 = memo.group(10).unwrap();
        let comp = g10.provenance.composition.as_ref().expect("split winner");
        assert_eq!(comp.iter().sum::<u32>(), 10);
        assert!(g10.provenance.evaluated + g10.provenance.pruned <= g10.provenance.candidates);
        // Vectored backend => terms stamped; the explain line mentions both.
        assert!(g10.terms.is_some());
        let line = g10.explain(10);
        assert!(line.contains("split["), "{line}");
        assert!(line.contains("weighted="), "{line}");
        // And the round-trip helper reproduces a classic per-size table.
        let dp = memo_to_dp_result(&memo, 10).unwrap();
        assert_eq!(dp.best_plan(), &g10.plan);
        assert!(memo_to_dp_result(&memo, 11).is_none());
    }

    #[test]
    fn memo_rejects_invalid_options() {
        let mut cost = InstructionCost::default();
        let mut memo = MemoTable::new();
        assert!(memo_search(0, &DpOptions::default(), &mut cost, &mut memo).is_err());
        let bad = DpOptions {
            max_leaf_k: 99,
            ..DpOptions::default()
        };
        assert!(memo_search(4, &bad, &mut cost, &mut memo).is_err());
    }
}
