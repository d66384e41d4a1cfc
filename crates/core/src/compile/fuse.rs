//! Lowering stage 1: cache-blocked prefix fusion (see the module docs'
//! "the lowering pipeline").

use super::{CompiledPlan, FusionPolicy, Pass, PassBackend, Provenance, SuperPass};

impl CompiledPlan {
    /// Regroup the factor schedule under `policy`: greedily merge the
    /// longest runs of consecutive contiguous passes whose combined block
    /// size fits `policy.budget_elems` into cache-blocked super-passes
    /// (see the module docs' "the lowering pipeline"). The flat factor
    /// list ([`CompiledPlan::passes`]) is unchanged; only the grouping
    /// differs, so fusing is idempotent and re-fusing with a different
    /// policy is always safe. The kernel backend rides along: a SIMD
    /// schedule stays SIMD after re-fusing. Column-tail grouping does
    /// **not** ride along — re-fusing rebuilds the grouping from the
    /// factor list, so chain [`CompiledPlan::column_tail`] (and
    /// [`CompiledPlan::recodelet`]) after the final `fuse`, as
    /// [`CompiledPlan::lower`] does.
    ///
    /// Degenerate budgets behave as limits: a budget of `0` (or `1`)
    /// disables fusion and reproduces the unfused schedule; an unbounded
    /// budget fuses the entire schedule into one super-pass with a single
    /// vector-sized tile, which replays exactly like the unfused program.
    pub(crate) fn fuse(&self, policy: &FusionPolicy) -> CompiledPlan {
        let backend = if self.is_simd() {
            PassBackend::Lanes
        } else {
            PassBackend::Scalar
        };
        CompiledPlan {
            n: self.n,
            passes: self.passes.clone(),
            schedule: fuse_schedule(&self.passes, 1usize << self.n, policy)
                .into_iter()
                .map(|sp| sp.with_backend(backend))
                .collect(),
            batch: None,
        }
    }
}

/// Greedy fusion pass over the flat schedule (see the module docs):
/// extend each run while the next pass is contiguous (`base 0, stride 1`,
/// stride equal to the run's accumulated block size) and the grown tile
/// stays within budget; emit a fused super-pass for runs of two or more.
fn fuse_schedule(passes: &[Pass], size: usize, policy: &FusionPolicy) -> Vec<SuperPass> {
    let budget = policy.budget_elems;
    let mut schedule = Vec::new();
    let mut i = 0;
    while i < passes.len() {
        let first = passes[i];
        let mut tile = (1usize << first.k) * first.s;
        let mut end = i + 1;
        if policy.enabled() && first.base == 0 && first.stride == 1 {
            while end < passes.len() {
                let next = passes[end];
                if next.base != 0 || next.stride != 1 || next.s != tile {
                    break;
                }
                let Some(grown) = (1usize << next.k)
                    .checked_mul(tile)
                    .filter(|&t| t <= budget)
                else {
                    break;
                };
                tile = grown;
                end += 1;
            }
        }
        if end - i >= 2 {
            let parts = passes[i..end]
                .iter()
                .map(|p| Pass {
                    k: p.k,
                    r: tile / ((1usize << p.k) * p.s),
                    s: p.s,
                    base: 0,
                    stride: 1,
                })
                .collect();
            schedule.push(SuperPass {
                parts,
                tile,
                tiles: size / tile,
                base: 0,
                stride: 1,
                backend: PassBackend::Scalar,
                columns: None,
                provenance: Provenance {
                    fused: true,
                    ..Provenance::default()
                },
            });
        } else {
            schedule.push(SuperPass::single(first));
        }
        i = end;
    }
    schedule
}
