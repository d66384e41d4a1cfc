//! Cost functions the searchers can optimize.
//!
//! The WHT package searches by *empirical runtime*; the paper's point is
//! that *model* costs (computable without running) can stand in for much of
//! that search. Both are [`PlanCost`] implementations here, so every search
//! strategy works with either backend.

use wht_cachesim::Hierarchy;
use wht_core::{lane_width, CompiledPlan, ExecPolicy, FusionPolicy, Plan, WhtError};
use wht_measure::{simulated_cycles, time_plan, SimMachine, TimingConfig};
use wht_models::{analytic_misses, instruction_count, op_counts, CostModel, ModelCache};

/// A (possibly stateful) cost function over plans; smaller is better.
pub trait PlanCost {
    /// Evaluate one plan.
    ///
    /// # Errors
    /// Backend-specific failures (e.g. invalid timing configuration).
    fn cost(&mut self, plan: &Plan) -> Result<f64, WhtError>;

    /// Human-readable backend name, used in experiment logs.
    fn name(&self) -> &'static str;

    /// The term vector behind `cost(plan)`, for provenance recording.
    ///
    /// Scalar-only backends return `Ok(None)` (the default); the model
    /// backends return their [`CostVec`], whose weighted slot equals
    /// `cost(plan)`, so the memo table can stamp each group winner with
    /// *which terms* made it win.
    ///
    /// # Errors
    /// Same failure modes as [`PlanCost::cost`].
    fn cost_terms(&mut self, plan: &Plan) -> Result<Option<CostVec>, WhtError> {
        let _ = plan;
        Ok(None)
    }

    /// A lower bound on the cost of **any** split of span `2^m` whose
    /// ordered children have the given spans and per-child best standalone
    /// costs (`parts[i] = (c_i, best_cost(c_i))`).
    ///
    /// `None` (the default) means "no sound bound is known" and disables
    /// branch-and-bound pruning for this backend — the memo search then
    /// evaluates every candidate, exactly like [`crate::dp_search`].
    /// Backends whose recursion is *invocation-superadditive* — a child of
    /// span `c_i` inside a span-`m` split executes `2^(m-c_i)` times, each
    /// at least as expensive as one standalone run — return
    /// [`invocation_scaled_bound`]. That holds for the instruction model
    /// (exactly: the split adds loop overhead on top) and for the combined
    /// model (analytic misses are stride-monotone, and every in-split
    /// invocation runs at stride ≥ 1), but **not** for
    /// [`FusedTrafficCost`]: fusion collapses the sweeps of adjacent
    /// factors, so a split can stream *less* than its parts in isolation.
    fn compose_lower_bound(&self, m: u32, parts: &[(u32, f64)]) -> Option<f64> {
        let _ = (m, parts);
        None
    }
}

/// The invocation-scaled composition bound `Σ 2^(m-c_i) · best(c_i)`:
/// inside a span-`m` split, the child of span `c_i` is invoked
/// `2^(m-c_i)` times. Sound as a [`PlanCost::compose_lower_bound`]
/// whenever one in-split invocation costs at least one standalone run of
/// the best span-`c_i` plan (see the trait docs for which backends
/// qualify).
pub fn invocation_scaled_bound(m: u32, parts: &[(u32, f64)]) -> f64 {
    parts
        .iter()
        .map(|&(c, best)| (1u64 << (m - c.min(m))) as f64 * best)
        .sum()
}

/// A vectored plan cost in the style of optd's `Cost(Vec<f64>)`: slot 0 is
/// the weighted collapse the searches compare, the remaining slots are the
/// named terms it was collapsed from.
#[derive(Debug, Clone, PartialEq)]
pub struct CostVec(pub Vec<f64>);

impl CostVec {
    /// Slot of the weighted collapse (what [`PlanCost::cost`] returns).
    pub const WEIGHTED: usize = 0;
    /// Slot of the work term (instructions / flops).
    pub const WORK: usize = 1;
    /// Slot of the memory-traffic term (streamed elements or model misses).
    pub const TRAFFIC: usize = 2;
    /// Number of slots.
    pub const LEN: usize = 3;

    /// Build from the two named terms, collapsing under `weights`.
    pub fn from_terms(work: f64, traffic: f64, weights: CostWeights) -> Self {
        CostVec(vec![weights.collapse(work, traffic), work, traffic])
    }

    /// The weighted collapse (slot 0).
    pub fn weighted(&self) -> f64 {
        self.0[Self::WEIGHTED]
    }

    /// The work term.
    pub fn work(&self) -> f64 {
        self.0[Self::WORK]
    }

    /// The traffic term.
    pub fn traffic(&self) -> f64 {
        self.0[Self::TRAFFIC]
    }

    /// One-line rendering for logs and `Planner::explain`.
    pub fn explain(&self) -> String {
        format!(
            "weighted={:.3} (work={:.3}, traffic={:.3})",
            self.weighted(),
            self.work(),
            self.traffic()
        )
    }
}

/// Weights collapsing a [`CostVec`]'s named terms into one comparable
/// scalar — optd's `compute_cost + io_cost * 10.0` generalized to the
/// two terms this package models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight on work (instructions / flops).
    pub work: f64,
    /// Weight on memory traffic (streamed elements or model misses).
    pub traffic: f64,
}

impl Default for CostWeights {
    /// Pure work: cost = the work term, nothing else.
    fn default() -> Self {
        CostWeights {
            work: 1.0,
            traffic: 0.0,
        }
    }
}

impl CostWeights {
    /// Collapse the two terms into the comparable scalar.
    pub fn collapse(&self, work: f64, traffic: f64) -> f64 {
        self.work * work + self.traffic * traffic
    }
}

/// The instruction-count model (context-free: the unique cost backend for
/// which dynamic programming is *exact*).
#[derive(Debug, Clone, Default)]
pub struct InstructionCost {
    /// Abstract machine weights.
    pub cost_model: CostModel,
}

impl PlanCost for InstructionCost {
    fn cost(&mut self, plan: &Plan) -> Result<f64, WhtError> {
        Ok(instruction_count(plan, &self.cost_model) as f64)
    }

    fn name(&self) -> &'static str {
        "instruction-model"
    }

    /// The model has no traffic term: the vector carries the instruction
    /// count as its work term and collapses to it.
    fn cost_terms(&mut self, plan: &Plan) -> Result<Option<CostVec>, WhtError> {
        let i = self.cost(plan)?;
        Ok(Some(CostVec::from_terms(i, 0.0, CostWeights::default())))
    }

    fn compose_lower_bound(&self, m: u32, parts: &[(u32, f64)]) -> Option<f64> {
        // T(split) = Σ 2^(m-c_i)·T(c_i) + overhead(c_1..c_t): the
        // recursion is invocation-linear and the overhead term is exactly
        // computable from the part exponents, so scaled-children + overhead
        // is a *tight* lower bound (exact when the children are the memo's
        // own best plans).
        let exps: Vec<u32> = parts.iter().map(|&(c, _)| c).collect();
        let ov = self.cost_model.split_overhead(m, &exps) as f64;
        Some(ov + invocation_scaled_bound(m, parts))
    }
}

/// The paper's combined model `alpha*I + beta*M` with analytic misses.
#[derive(Debug, Clone)]
pub struct CombinedModelCost {
    /// Abstract machine weights for `I`.
    pub cost_model: CostModel,
    /// Direct-mapped model cache for `M`.
    pub cache: ModelCache,
    /// Weight on instructions.
    pub alpha: f64,
    /// Weight on misses.
    pub beta: f64,
}

impl CombinedModelCost {
    /// The paper's optimum (`alpha = 1, beta = 0.05`) against the Opteron
    /// L1-sized model cache.
    pub fn paper_default() -> Self {
        CombinedModelCost {
            cost_model: CostModel::default(),
            cache: ModelCache::opteron_l1_elems(),
            alpha: 1.0,
            beta: 0.05,
        }
    }
}

impl PlanCost for CombinedModelCost {
    fn cost(&mut self, plan: &Plan) -> Result<f64, WhtError> {
        let i = instruction_count(plan, &self.cost_model) as f64;
        let m = analytic_misses(plan, self.cache) as f64;
        Ok(self.alpha * i + self.beta * m)
    }

    fn name(&self) -> &'static str {
        "combined-model"
    }

    /// `I` is the work term and `M` the traffic term, collapsed under
    /// `alpha` and `beta`.
    fn cost_terms(&mut self, plan: &Plan) -> Result<Option<CostVec>, WhtError> {
        let i = instruction_count(plan, &self.cost_model) as f64;
        let m = analytic_misses(plan, self.cache) as f64;
        let weights = CostWeights {
            work: self.alpha,
            traffic: self.beta,
        };
        Ok(Some(CostVec::from_terms(i, m, weights)))
    }

    fn compose_lower_bound(&self, m: u32, parts: &[(u32, f64)]) -> Option<f64> {
        // Instructions are invocation-linear with an overhead term that is
        // exactly computable from the part exponents, so the instruction
        // side of the bound is exact. The miss side splits by regime:
        //
        // * `m <= c` (footprint fits): every plan of size `m` — and every
        //   child standalone — pays compulsory misses exactly, so the
        //   scaled child sum counts the `2^m` footprint once per child
        //   where the composed plan pays it once. Subtracting the
        //   `(t-1)·2^m` over-count makes the miss side exact too.
        // * `m > c` (thrashes): inside the split each child runs at a
        //   stride at least its standalone stride, and the analytic model
        //   is monotone in stride, so the plain scaled sum is a sound
        //   (now conservative) floor.
        if self.alpha < 0.0 || self.beta < 0.0 {
            return None;
        }
        let exps: Vec<u32> = parts.iter().map(|&(c, _)| c).collect();
        let ov = self.cost_model.split_overhead(m, &exps) as f64;
        let mut lb = self.alpha * ov + invocation_scaled_bound(m, parts);
        if m <= self.cache.log2_capacity {
            lb -= self.beta * (parts.len() as f64 - 1.0) * (1u64 << m) as f64;
        }
        Some(lb)
    }
}

/// Fusion-aware model cost `alpha·I + beta·T`: instruction count plus the
/// memory traffic of the schedule the fused executor *actually replays*.
///
/// The combined model charges analytic cache misses of the interpreter's
/// execution order; production traffic runs through the compiled layer,
/// whose fusion stage ([`CompiledPlan::lower`]) collapses each fused run
/// to a single sweep. This backend scores that: `T` counts the elements streamed by
/// the fused schedule — a super-pass whose tile fits
/// [`FusedTrafficCost::cache_elems`] streams its span once (load +
/// store); one whose tile cannot stay cache-resident streams once per
/// part, like the unfused program it effectively is. Plans whose factor
/// lists fuse into fewer resident super-passes under `policy` cost less —
/// the search optimizes the executor it will actually run, tile budget
/// included.
///
/// Below the fusion budget (`2^n` within
/// [`FusionPolicy::DEFAULT_BUDGET_ELEMS`] under the default policy) the
/// whole vector is one fused tile, and the re-codelet stage derives its
/// codelets from the tile's radix-2 levels, so every plan with two or
/// more leaves replays `Plan::iterative(n)`'s schedule: such plans score
/// the same leaf work and traffic and differ only in the bookkeeping term
/// (the plan tree's loop overhead). There the ranking only chooses
/// between a single leaf and the canonical schedule.
#[derive(Debug, Clone)]
pub struct FusedTrafficCost {
    /// Abstract machine weights for `I`.
    pub cost_model: CostModel,
    /// The full executor configuration the ranked plans will be lowered
    /// under: the cost function scores `compile(plan).lower(&exec)` —
    /// the exact schedule the executor replays — so every lowering stage
    /// (fusion's tile blocking, the column tail's chunked sweep, the
    /// re-codeleted units' regrouped factors, the kernel backend) shows up
    /// in the ranking the moment it exists, with no per-stage code here.
    pub exec: ExecPolicy,
    /// Elements that fit the cache level tiles are expected to live in.
    /// A super-pass whose tile exceeds this is charged one sweep **per
    /// part** — fusion buys no traffic once the tile itself cannot stay
    /// resident (e.g. an unbounded budget collapses the schedule to one
    /// vector-sized tile, which still streams once per factor).
    pub cache_elems: usize,
    /// Vector width of the kernel backend the executor will run: each
    /// pass's leaf work term (butterflies, element loads/stores and their
    /// address arithmetic) is divided by its **effective** width
    /// `min(s, W)`, because the lane-block kernels retire columns in
    /// unit-stride blocks and a single transform only offers a pass `s`
    /// adjacent columns — the narrow head passes (`s < W`) cannot go full
    /// width. `1` models the scalar backend; loop bookkeeping is never
    /// divided (the lane kernels run the same pass/row loops). Matching
    /// the ranking model to the executor matters: under SIMD the ALU term
    /// shrinks, so memory traffic weighs relatively more and traffic-lean
    /// plans rank higher — exactly what wall-clock measurement shows.
    pub simd_lanes: usize,
    /// Collapse weights: `work` multiplies the instruction term (the
    /// `alpha` above), `traffic` the streamed-element term (`beta`).
    pub weights: CostWeights,
}

impl FusedTrafficCost {
    /// Cost under an explicit [`ExecPolicy`] with the default weights
    /// (`work = 1`, `traffic = 4`: a streamed element costs about what a
    /// handful of bookkeeping instructions does, matching the combined
    /// model's miss-penalty scale on 8-element lines) and an L2-sized
    /// residency threshold. The lane width models the measured default
    /// element type, `f64`. Rank plans under the same `exec` the planner
    /// that serves them lowers under (`Planner::with_exec`): wisdom is
    /// keyed by size, backend and host, not by policy.
    pub fn with_exec(exec: ExecPolicy) -> Self {
        FusedTrafficCost {
            cost_model: CostModel::default(),
            cache_elems: FusionPolicy::DEFAULT_BUDGET_ELEMS,
            simd_lanes: if exec.simd.enabled() {
                lane_width::<f64>()
            } else {
                1
            },
            exec,
            weights: CostWeights {
                work: 1.0,
                traffic: 4.0,
            },
        }
    }
}

/// Ranks plans for `ExecPolicy::default()`, the policy a default
/// `wht_search::Planner` (and [`wht_core::apply_plan`]) lowers under.
impl Default for FusedTrafficCost {
    fn default() -> Self {
        FusedTrafficCost::with_exec(ExecPolicy::default())
    }
}

impl FusedTrafficCost {
    /// The (work, traffic) term pair behind [`Self::cost`]: instruction
    /// term and streamed elements of one transform.
    fn terms(&self, plan: &Plan) -> (f64, f64) {
        // Lower the plan exactly as the executor will; everything below
        // scores that schedule generically, stage-agnostically.
        let compiled = CompiledPlan::compile(plan).lower(&self.exec);
        // Instruction term, split into loop bookkeeping (from the plan
        // tree — the lane kernels run the same pass/row loops) and leaf
        // work re-derived from the *lowered* factor list: a stage that
        // rewrites factors (re-codeleting regroups a unit's radix-2
        // levels, so m merged factors drop m-1 load/store passes over
        // their elements) is scored from what will actually execute.
        let ops = op_counts(plan);
        let plan_leaf_work = (self.cost_model.arith * ops.arith
            + self.cost_model.load * ops.loads
            + self.cost_model.store * ops.stores
            + self.cost_model.addr * ops.addr) as f64;
        let bookkeeping = self.cost_model.total(&ops) as f64 - plan_leaf_work;
        let lanes = self.simd_lanes.max(1);
        // Leaf work at each pass's effective width min(s, W): a lone
        // transform only offers a pass s adjacent unit-stride columns,
        // so the narrow head passes cannot fill the lanes.
        let mut leaf = 0f64;
        for pass in compiled.passes() {
            // One codelet invocation of size 2^k: k·2^k butterfly ops,
            // 2^k loads + 2^k stores, one address computation per load
            // and store (the same accounting as `op_counts` on a leaf).
            let size = 1u64 << pass.k;
            let inv = pass.invocations() as u64;
            let work = (inv
                * (self.cost_model.arith * u64::from(pass.k) * size
                    + (self.cost_model.load + self.cost_model.store + 2 * self.cost_model.addr)
                        * size)) as f64;
            leaf += work / pass.s.max(1).min(lanes) as f64;
        }
        // Traffic term: sweeps per scheduling unit, off the lowered
        // schedule. A unit whose tile (a fused tile, a column tail's
        // chunk) fits the cache streams its span once; one whose tile
        // does not streams once per part.
        let streamed: usize = compiled
            .super_passes()
            .iter()
            .map(|sp| {
                let sweeps = if sp.tile_elems() <= self.cache_elems {
                    1
                } else {
                    sp.parts().len()
                };
                sp.span() * sweeps
            })
            .sum();
        (bookkeeping + leaf, (2 * streamed) as f64)
    }
}

impl PlanCost for FusedTrafficCost {
    fn cost(&mut self, plan: &Plan) -> Result<f64, WhtError> {
        let (work, traffic) = self.terms(plan);
        Ok(self.weights.collapse(work, traffic))
    }

    fn name(&self) -> &'static str {
        "fused-traffic"
    }

    fn cost_terms(&mut self, plan: &Plan) -> Result<Option<CostVec>, WhtError> {
        let (work, traffic) = self.terms(plan);
        Ok(Some(CostVec::from_terms(work, traffic, self.weights)))
    }

    // No compose_lower_bound override: fusion collapses the sweeps of
    // adjacent factors, so a split can legitimately stream *less* than
    // its parts in isolation — the invocation-scaled bound is unsound
    // here, and the memo search falls back to exhaustive evaluation
    // (still memoized across sizes and searches).
}

/// Deterministic simulated cycles on the reference Opteron (trace-driven:
/// much more expensive than the models, noise-free unlike the wall clock).
#[derive(Debug)]
pub struct SimCyclesCost {
    /// Abstract machine weights.
    pub cost_model: CostModel,
    /// Latency parameters.
    pub machine: SimMachine,
    hierarchy: Hierarchy,
}

impl SimCyclesCost {
    /// Simulated cycles on the paper's Opteron hierarchy.
    pub fn opteron() -> Self {
        SimCyclesCost {
            cost_model: CostModel::default(),
            machine: SimMachine::default(),
            hierarchy: Hierarchy::opteron(),
        }
    }
}

impl PlanCost for SimCyclesCost {
    fn cost(&mut self, plan: &Plan) -> Result<f64, WhtError> {
        // Cold-start the hierarchy *here*, not only inside the trace:
        // this backend's contract is that cost(plan) is a pure function
        // of the plan, so no simulator state (resident lines or counters)
        // may leak from one evaluation into the next whatever the callee
        // does. Regression-tested below (cost order must not matter).
        self.hierarchy.reset();
        Ok(simulated_cycles(
            plan,
            &self.cost_model,
            &self.machine,
            &mut self.hierarchy,
        ))
    }

    fn name(&self) -> &'static str {
        "sim-cycles"
    }
}

/// Median wall-clock nanoseconds (what the WHT package's own search uses).
#[derive(Debug, Clone, Default)]
pub struct WallClockCost {
    /// Timing methodology.
    pub timing: TimingConfig,
}

impl PlanCost for WallClockCost {
    fn cost(&mut self, plan: &Plan) -> Result<f64, WhtError> {
        Ok(time_plan(plan, &self.timing)?.median_ns)
    }

    fn name(&self) -> &'static str {
        "wall-clock"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wht_core::{RecodeletPolicy, RelayoutPolicy, SimdPolicy};

    #[test]
    fn model_backends_are_deterministic() {
        let plan = Plan::right_recursive(10).unwrap();
        let mut c1 = InstructionCost::default();
        assert_eq!(c1.cost(&plan).unwrap(), c1.cost(&plan).unwrap());
        let mut c2 = CombinedModelCost::paper_default();
        assert_eq!(c2.cost(&plan).unwrap(), c2.cost(&plan).unwrap());
        let mut c3 = SimCyclesCost::opteron();
        assert_eq!(c3.cost(&plan).unwrap(), c3.cost(&plan).unwrap());
        let mut c4 = FusedTrafficCost::default();
        assert_eq!(c4.cost(&plan).unwrap(), c4.cost(&plan).unwrap());
    }

    #[test]
    fn fused_traffic_rewards_fusable_schedules() {
        // Same plan, same instructions — the only difference between the
        // backends is whether the executor's fusion collapses sweeps, so
        // the fusion-off policy must cost strictly more at a size where
        // the schedule fuses.
        let plan = Plan::iterative(18).unwrap();
        let exec = ExecPolicy::default();
        let mut on = FusedTrafficCost::with_exec(exec);
        let mut off = FusedTrafficCost::with_exec(exec.with_fusion(FusionPolicy::disabled()));
        assert!(on.cost(&plan).unwrap() < off.cost(&plan).unwrap());
        // An unbounded budget makes one vector-sized tile, which cannot be
        // cache-resident: the model must charge it the unfused traffic,
        // not a single sweep. (Re-codeleting and the column tail pinned
        // off on both sides — the first legitimately merges the unbounded
        // unit's parts, the second groups the unfused schedule's
        // large-stride suffix into resident chunks; both are *real* sweep
        // reductions, not the fusion identity this pins.)
        let no_recodelet = ExecPolicy::default()
            .with_recodelet(RecodeletPolicy::disabled())
            .with_relayout(RelayoutPolicy::disabled());
        let mut unbounded =
            FusedTrafficCost::with_exec(no_recodelet.with_fusion(FusionPolicy::unbounded()));
        let mut off_plain =
            FusedTrafficCost::with_exec(no_recodelet.with_fusion(FusionPolicy::disabled()));
        assert_eq!(
            unbounded.cost(&plan).unwrap(),
            off_plain.cost(&plan).unwrap(),
            "non-resident tiles stream once per factor, exactly like no fusion"
        );
        // And under one policy, a factor list with fewer unfusable
        // large-stride passes streams less: blocked-8 beats all-radix-2
        // past the budget.
        let blocked = Plan::binary_iterative(18, 8).unwrap();
        let mut c = FusedTrafficCost::default();
        assert!(c.cost(&blocked).unwrap() < c.cost(&plan).unwrap());
    }

    #[test]
    fn fused_traffic_learns_the_vector_width() {
        let plan = Plan::iterative(18).unwrap();
        let policy = FusionPolicy::default();
        let fused = ExecPolicy::default().with_fusion(policy);
        let mut simd = FusedTrafficCost::with_exec(fused.with_simd(SimdPolicy::auto()));
        let mut scalar = FusedTrafficCost::with_exec(fused.with_simd(SimdPolicy::disabled()));
        assert_eq!(simd.simd_lanes, wht_core::lane_width::<f64>());
        assert_eq!(scalar.simd_lanes, 1);
        // The lane backend retires the leaf work W columns at a time, so
        // the modelled cost must drop — but only the leaf-work share of
        // it: bookkeeping and traffic are backend-invariant, so the
        // SIMD cost stays well above total/W.
        let c_simd = simd.cost(&plan).unwrap();
        let c_scalar = scalar.cost(&plan).unwrap();
        assert!(c_simd < c_scalar);
        assert!(c_simd > c_scalar / simd.simd_lanes as f64);
        // Under SIMD the ALU term shrinks, so traffic weighs relatively
        // more: the cost ratio between the fusion-off and fusion-on
        // executors must widen when the ranking model knows the executor
        // is vectorized. Re-codeleting is pinned off on all four sides so
        // the compared schedules differ *only* in traffic: recodelet
        // rewrites the factor list (it merges the narrow head into one
        // wide codelet at s = 1, which a lone transform runs at scalar
        // width), and that leaf-term change is a different — separately
        // tested — signal from the one this assertion isolates.
        let no_rc = |fusion: FusionPolicy, simd: SimdPolicy| {
            FusedTrafficCost::with_exec(
                ExecPolicy::default()
                    .with_fusion(fusion)
                    .with_simd(simd)
                    .with_recodelet(RecodeletPolicy::disabled()),
            )
        };
        let c_simd_rc = no_rc(policy, SimdPolicy::auto()).cost(&plan).unwrap();
        let c_scalar_rc = no_rc(policy, SimdPolicy::disabled()).cost(&plan).unwrap();
        let simd_ratio = no_rc(FusionPolicy::disabled(), SimdPolicy::auto())
            .cost(&plan)
            .unwrap()
            / c_simd_rc;
        let scalar_ratio = no_rc(FusionPolicy::disabled(), SimdPolicy::disabled())
            .cost(&plan)
            .unwrap()
            / c_scalar_rc;
        assert!(
            simd_ratio > scalar_ratio,
            "traffic must weigh relatively more under SIMD \
             ({simd_ratio:.3} vs {scalar_ratio:.3})"
        );
    }

    #[test]
    fn fused_traffic_scores_a_column_tail_as_one_sweep() {
        // n = 20 with the default 2^17 fusion budget: the fused head is
        // one resident sweep and the 3-pass tail sweeps three more times
        // in place. The column tail runs all three over one resident
        // chunk at a time, so the modeled traffic must drop by exactly
        // two vector sweeps.
        let plan = Plan::iterative(20).unwrap();
        // Tail re-codeleting pinned off on both sides: it changes the
        // leaf-work term (that's its point — asserted below), and this
        // test isolates the traffic charge.
        let base = ExecPolicy::default().with_recodelet(RecodeletPolicy::disabled());
        let mut in_place =
            FusedTrafficCost::with_exec(base.with_relayout(RelayoutPolicy::disabled()));
        let mut columns = FusedTrafficCost::with_exec(base);
        let c_in_place = in_place.cost(&plan).unwrap();
        let c_columns = columns.cost(&plan).unwrap();
        let sweep = columns.weights.traffic * (2 * (1usize << 20)) as f64;
        assert!(
            (c_in_place - c_columns - 2.0 * sweep).abs() < 1e-6,
            "tail of 3 sweeps -> 1 chunked sweep must save exactly two \
             ({c_in_place} vs {c_columns})"
        );
        // Re-codeleting the column tail merges its chained factors,
        // shrinking the leaf-work term (fewer load/store passes per
        // chunk) while traffic is unchanged — the generic scoring sees
        // the stage because it scores the lowered factor list.
        let mut recodeleted = FusedTrafficCost::default();
        assert!(
            recodeleted.cost(&plan).unwrap() < c_columns,
            "the ranking model must see the re-codeleted tail's saved μops"
        );
        // A 2-pass tail (n = 19) saves one sweep; a 1-pass tail (n = 18)
        // is left in place, so both executors and their modeled costs
        // coincide.
        let plan19 = Plan::iterative(19).unwrap();
        let sweep19 = sweep / 2.0;
        let saved = in_place.cost(&plan19).unwrap() - columns.cost(&plan19).unwrap();
        assert!((saved - sweep19).abs() < 1e-6, "n = 19 saved {saved}");
        let plan18 = Plan::iterative(18).unwrap();
        let a = in_place.cost(&plan18).unwrap();
        let b = columns.cost(&plan18).unwrap();
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        assert!(!CompiledPlan::compile_exec(&plan18, &ExecPolicy::default()).has_relayout());
    }

    #[test]
    fn fused_traffic_below_the_budget_differs_only_in_bookkeeping() {
        // 2^12 fits the default fusion budget: every multi-leaf plan
        // lowers to the canonical schedule, so leaf work and traffic match
        // it exactly and only the plan tree's loop bookkeeping differs.
        let c = FusedTrafficCost::default();
        let bookkeeping = |plan: &Plan| {
            let ops = op_counts(plan);
            let m = &c.cost_model;
            let leaf = m.arith * ops.arith + m.load * ops.loads + m.store * ops.stores;
            (m.total(&ops) - leaf - m.addr * ops.addr) as f64
        };
        let canon = Plan::iterative(12).unwrap();
        let (work0, traffic0) = c.terms(&canon);
        let leaf0 = work0 - bookkeeping(&canon);
        for plan in [
            Plan::balanced(12, 4).unwrap(),
            Plan::binary_iterative(12, 6).unwrap(),
            Plan::right_recursive(12).unwrap(),
            Plan::split(vec![Plan::leaf(5).unwrap(), Plan::leaf(7).unwrap()]).unwrap(),
        ] {
            let (work, traffic) = c.terms(&plan);
            assert_eq!(traffic, traffic0, "{plan}");
            assert!(
                (work - bookkeeping(&plan) - leaf0).abs() < 1e-6,
                "{plan}: leaf work {} vs {leaf0}",
                work - bookkeeping(&plan)
            );
        }
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            InstructionCost::default().name(),
            CombinedModelCost::paper_default().name(),
            SimCyclesCost::opteron().name(),
            WallClockCost::default().name(),
            FusedTrafficCost::default().name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn sim_cycles_cost_is_order_independent() {
        // cost(A); cost(B) must equal cost(B); cost(A): evaluation order
        // leaking simulator state between plans would silently bias every
        // search that uses this backend.
        let a = Plan::right_recursive(12).unwrap();
        let b = Plan::left_recursive(12).unwrap();

        let mut ab = SimCyclesCost::opteron();
        let a_first = ab.cost(&a).unwrap();
        let b_second = ab.cost(&b).unwrap();

        let mut ba = SimCyclesCost::opteron();
        let b_first = ba.cost(&b).unwrap();
        let a_second = ba.cost(&a).unwrap();

        assert_eq!(a_first, a_second, "cost(A) depends on evaluation order");
        assert_eq!(b_first, b_second, "cost(B) depends on evaluation order");
        // And re-evaluating on a warm backend changes nothing either.
        assert_eq!(ab.cost(&a).unwrap(), a_first);
    }

    #[test]
    fn combined_cost_orders_cache_hostile_plans_last() {
        let n = 16;
        let mut c = CombinedModelCost::paper_default();
        let rr = c.cost(&Plan::right_recursive(n).unwrap()).unwrap();
        let lr = c.cost(&Plan::left_recursive(n).unwrap()).unwrap();
        assert!(lr > rr);
    }

    /// `cost` must equal the term vector's weighted collapse for every
    /// model backend — scalar searches and provenance stamping may never
    /// disagree.
    #[test]
    fn vector_collapse_matches_scalar_cost() {
        fn check<C: PlanCost>(mut c: C) {
            let plan = Plan::iterative(14).unwrap();
            let v = c.cost_terms(&plan).unwrap().expect("model backend");
            assert_eq!(v.weighted(), c.cost(&plan).unwrap(), "{}", c.name());
            assert_eq!(v.0.len(), CostVec::LEN);
        }
        check(InstructionCost::default());
        check(CombinedModelCost::paper_default());
        check(FusedTrafficCost::default());
    }

    /// The instruction backend returns the plain count, the traffic
    /// backend the work + 4·traffic collapse.
    #[test]
    fn default_weights_reproduce_legacy_costs() {
        let plan = Plan::iterative(12).unwrap();
        let mut i = InstructionCost::default();
        assert_eq!(
            i.cost(&plan).unwrap(),
            instruction_count(&plan, &CostModel::default()) as f64
        );
        let mut f = FusedTrafficCost::default();
        let v = f.cost_terms(&plan).unwrap().expect("model backend");
        assert_eq!(f.cost(&plan).unwrap(), v.work() + 4.0 * v.traffic());
    }

    /// The invocation-scaled composition bound must never exceed the true
    /// cost of the composed split it bounds (B&B soundness for the
    /// backends that advertise it).
    #[test]
    fn compose_lower_bound_is_sound() {
        fn check<C: PlanCost>(mut c: C) {
            for m in 3..=10u32 {
                for c1 in 1..m {
                    let c2 = m - c1;
                    let best1 = Plan::right_recursive(c1).unwrap();
                    let best2 = Plan::right_recursive(c2).unwrap();
                    let parts = [(c1, c.cost(&best1).unwrap()), (c2, c.cost(&best2).unwrap())];
                    let Some(lb) = c.compose_lower_bound(m, &parts) else {
                        panic!("{} should advertise a bound", c.name());
                    };
                    let split = Plan::split(vec![best1, best2]).unwrap();
                    let actual = c.cost(&split).unwrap();
                    assert!(
                        lb <= actual + 1e-9,
                        "{}: lb {lb} > actual {actual} at m={m}, c1={c1}",
                        c.name()
                    );
                }
            }
        }
        check(InstructionCost::default());
        check(CombinedModelCost::paper_default());
        // And the fusion-aware backend must *not* advertise one.
        assert!(FusedTrafficCost::default()
            .compose_lower_bound(4, &[(2, 1.0), (2, 1.0)])
            .is_none());
    }
}
