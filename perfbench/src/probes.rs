//! Per-layer metrics, each timed from outside the library by calling the
//! layer's public function on the schedules the workloads serve: the
//! `Planner` schedule (`FusedTrafficCost::default()` under the default
//! `ExecPolicy`) that `Planner::transform`, `transform_batch` and the
//! sketches replay, and the canonical iterative plan that `apply_plan`
//! and `par_apply_plan` replay. Every traced run measures the same set,
//! so the numbers compare across workloads.
//!
//! Which end-to-end metric each layer metric should move. large_replay
//! spends about a third of its time in each of `Planner::transform`,
//! `par_apply_plan` and `apply_plan` (most of it in apply n24); its p50
//! falls inside apply n18 and its p99 inside apply n24.
//!
//! | layer (module) | metrics | should move |
//! |---|---|---|
//! | replay (`core::compile` replay, `codelets`) | `core.apply.*`, `host.copy_gbs` | `melem_per_s` on both workloads; `latency_p50_us` on large_replay (apply n18) |
//! | lowering stages (`compile::{fuse,relayout,recodelet,stages}`, simd/batch/stream policies) | `core.ablate.*` | a ratio ≈ 1.0 predicts that deleting the stage leaves `melem_per_s` unchanged where it engages (stream, relayout: large_replay at n = 24, which also sets its `latency_p99_us`; batch: serve_small) |
//! | entry path (`apply_plan` schedule cache, `search::planner` warm path) | `core.entry.*`, `search.planner.entry_ns.*` | `latency_p50_us` on serve_small; nothing on large_replay |
//! | batch stage, `core::srht` | `core.batch.gain.*`, `core.srht.ns_per_row.*` | `melem_per_s` and `latency_p99_us` on serve_small |
//! | lowering, `core::verify` | `core.lower_us.*`, `core.verify_us.*` | `setup_s` on both workloads |
//! | `search::memo`, `search::cost` | `search.evals/pruned/us.*`; `search.choice_ratio.*`, `search.model_pearson` | evals and us: `setup_s`; choice_ratio: `melem_per_s` on both workloads |
//! | `search::store` | `store.*` | none: no served workload opens a store |
//! | `parallel::pool`, `parallel::engine` | `parallel.*` | `melem_per_s` on large_replay; nothing on serve_small |

use std::time::Instant;

use wht_core::{
    apply_plan, compiled_for, BatchPolicy, CompiledPlan, ExecPolicy, FusionPolicy, Plan,
    RecodeletPolicy, RelayoutPolicy, SimdPolicy, Srht, StreamPolicy, WhtError,
};
use wht_parallel::{par_apply_plan, Threads, WorkerPool};
use wht_search::{memo_search, DpOptions, FusedTrafficCost, MemoTable, PlanCost, ShardedStore};

use crate::trace::{Tracer, PROBE};
use crate::util::{
    clear_shards, median, metric, ns_since, pearson, reference_rows, reference_sketch, run_dir,
    small_ints, verdict, Metric, Rng, Tally,
};
use crate::workloads::new_planner;

pub const PROBE_SIZES: [u32; 10] = [6, 8, 10, 12, 14, 16, 18, 20, 22, 24];
const ABLATE_SIZES: [u32; 3] = [12, 20, 24];
const ENTRY_SIZES: [u32; 2] = [6, 8];
const BATCH_SIZES: [u32; 4] = [6, 8, 10, 12];
const BATCH_ROWS: usize = 64;
/// Wall time spent timing one schedule (at least three samples).
const TARGET_NS: u64 = 40_000_000;

/// `(metric-name prefix, better, layer, end-to-end metric it should
/// move)`, most specific prefix first: the table above, as data.
pub const LAYERS: &[(&str, &str, &str, &str)] = &[
    (
        "core.apply.bw_frac",
        "higher",
        "replay",
        "melem_per_s on large_replay",
    ),
    (
        "core.apply",
        "lower",
        "replay",
        "melem_per_s on both workloads; latency_p50_us on large_replay",
    ),
    (
        "host.copy_gbs",
        "higher",
        "host",
        "none (bw_frac denominator)",
    ),
    (
        "core.ablate.batch",
        "higher",
        "lowering stages",
        "melem_per_s on serve_small",
    ),
    (
        "core.ablate.relayout",
        "higher",
        "lowering stages",
        "melem_per_s, latency_p99_us on large_replay (apply n24)",
    ),
    (
        "core.ablate.stream",
        "higher",
        "lowering stages",
        "melem_per_s, latency_p99_us on large_replay (apply n24)",
    ),
    (
        "core.ablate",
        "higher",
        "lowering stages",
        "melem_per_s where the stage engages",
    ),
    (
        "core.entry",
        "lower",
        "entry path",
        "latency_p50_us on serve_small",
    ),
    (
        "search.planner.entry_ns",
        "lower",
        "entry path",
        "latency_p50_us on serve_small",
    ),
    (
        "core.batch.gain",
        "higher",
        "batch stage",
        "melem_per_s, latency_p99_us on serve_small",
    ),
    (
        "core.srht",
        "lower",
        "core::srht",
        "melem_per_s, latency_p99_us on serve_small",
    ),
    (
        "core.lower_us",
        "lower",
        "lowering",
        "setup_s on both workloads",
    ),
    (
        "core.verify_us",
        "lower",
        "core::verify",
        "setup_s on both workloads",
    ),
    (
        "search.choice_ratio",
        "lower",
        "search::memo+cost",
        "melem_per_s on both workloads",
    ),
    (
        "search.model_pearson",
        "higher",
        "search::cost",
        "melem_per_s on both workloads",
    ),
    ("search.pruned", "higher", "search::memo", "setup_s"),
    ("search", "lower", "search::memo+cost", "setup_s"),
    (
        "store",
        "lower",
        "search::store",
        "none (no served workload opens a store)",
    ),
    (
        "parallel.speedup_2t",
        "higher",
        "parallel",
        "melem_per_s on large_replay",
    ),
    (
        "parallel",
        "lower",
        "parallel",
        "melem_per_s on large_replay",
    ),
];

pub fn describe(name: &str) -> (&'static str, &'static str, &'static str) {
    LAYERS
        .iter()
        .find(|(prefix, ..)| name.starts_with(prefix))
        .map_or(("lower", "?", "?"), |&(_, b, l, m)| (b, l, m))
}

struct Probe<'a> {
    tracer: &'a mut Tracer,
    tally: &'a mut Tally,
    out: Vec<Metric>,
}

impl Probe<'_> {
    fn put(&mut self, name: String, value: f64, unit: &'static str) {
        self.out.push(metric(name, value, unit));
    }

    fn check(&mut self, what: &str, v: Result<bool, String>) {
        self.tally.settle(usize::MAX, what, 0, 0, v);
    }

    /// Median ns per call of `f`, each sample starting from a fresh copy
    /// of `input`. The first call warms up and its output is checked
    /// against `want`. Sub-20 µs calls are timed in runs of up to 64.
    fn time_inplace(
        &mut self,
        name: &'static str,
        input: &[f64],
        want: &[f64],
        work: &mut Vec<f64>,
        mut f: impl FnMut(&mut [f64]) -> Result<(), WhtError>,
    ) -> f64 {
        work.clear();
        work.extend_from_slice(input);
        let t0 = Instant::now();
        let res = f(work);
        let est = ns_since(t0).max(1);
        self.check(name, verdict(res, work, want));
        let inner = if est < 20_000 {
            (20_000 / est).clamp(1, 64)
        } else {
            1
        };
        let samples = (TARGET_NS / (est * inner)).clamp(3, 200);
        let mut v = Vec::with_capacity(samples as usize);
        for _ in 0..samples {
            work.copy_from_slice(input);
            let t0 = Instant::now();
            for _ in 0..inner {
                let _ = f(work);
            }
            let t1 = Instant::now();
            if self.tracer.on {
                self.tracer.mark(name, PROBE, t0, t1);
            }
            v.push((t1 - t0).as_nanos() as f64 / inner as f64);
        }
        median(&v)
    }

    /// Median µs of `reps` calls of `f`.
    fn time_us<R>(
        &mut self,
        name: &'static str,
        reps: usize,
        mut f: impl FnMut() -> R,
    ) -> (f64, R) {
        let mut v = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            let (r, ns) = self.tracer.call(name, PROBE, &mut f);
            v.push(ns as f64 / 1e3);
            last = Some(r);
        }
        (median(&v), last.expect("reps >= 1"))
    }
}

fn ablations() -> [(&'static str, ExecPolicy); 5] {
    let d = ExecPolicy::default();
    [
        ("fuse", d.with_fusion(FusionPolicy::disabled())),
        ("relayout", d.with_relayout(RelayoutPolicy::disabled())),
        ("recodelet", d.with_recodelet(RecodeletPolicy::disabled())),
        ("simd", d.with_simd(SimdPolicy::disabled())),
        ("stream", d.with_stream(StreamPolicy::disabled())),
    ]
}

/// Copy bandwidth of the machine in GB/s, counting bytes read plus bytes
/// written, over 128 MiB buffers (the largest working set served).
fn copy_gbs(p: &mut Probe<'_>) -> f64 {
    let len = 1usize << 24;
    let src = vec![1.0f64; len];
    let mut dst = vec![0.0f64; len];
    dst.copy_from_slice(&src);
    let mut v = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        let t1 = Instant::now();
        if p.tracer.on {
            p.tracer.mark("host::copy", PROBE, t0, t1);
        }
        v.push((t1 - t0).as_nanos() as f64);
    }
    std::hint::black_box(&dst);
    (2 * 8 * len) as f64 / median(&v)
}

/// Run every probe. `pool` is the global pool's (jobs, steals) per
/// `par_apply_plan` request of the workload's own traffic.
pub fn run(seed: u64, tracer: &mut Tracer, tally: &mut Tally, pool: (f64, f64)) -> Vec<Metric> {
    let mut p = Probe {
        tracer,
        tally,
        out: Vec::new(),
    };
    let gbs = copy_gbs(&mut p);
    p.put("host.copy_gbs".into(), gbs, "GB/s");

    let mut planner = new_planner();
    let default = ExecPolicy::default();
    let (mut model_cost, mut model_ns) = (Vec::new(), Vec::new());
    let mut work = Vec::new();
    let mut scratch: Vec<f64> = Vec::new();
    for n in PROBE_SIZES {
        let size = 1usize << n;
        let mut rng = Rng::new(seed, 7000 + u64::from(n));
        let input: Vec<f64> = small_ints(size, &mut rng);
        let want = reference_rows(&input, size);

        // search::memo and search::cost, on a fresh memo table each time.
        let (us, res) = p.time_us("memo_search", 3, || {
            memo_search(
                n,
                &DpOptions::default(),
                &mut FusedTrafficCost::default(),
                &mut MemoTable::new(),
            )
        });
        match res {
            Ok(r) => {
                p.put(format!("search.evals.n{n}"), r.evaluations as f64, "count");
                p.put(format!("search.pruned.n{n}"), r.pruned as f64, "count");
            }
            Err(e) => p.check("memo_search", Err(e.to_string())),
        }
        p.put(format!("search.us.n{n}"), us, "us");

        // The schedule Planner::transform serves, its lowering and verify.
        let plan = planner
            .plan(n)
            .expect("the planner searches every probed size")
            .clone();
        let exec = planner.resolved_exec(n);
        let (lower_us, served) = p.time_us("CompiledPlan::compile_exec", 5, || {
            CompiledPlan::compile_exec(&plan, &exec)
        });
        p.put(format!("core.lower_us.n{n}"), lower_us, "us");
        let (verify_us, diags) = p.time_us("CompiledPlan::verify", 5, || served.verify());
        p.check("CompiledPlan::verify", Ok(diags.is_empty()));
        p.put(format!("core.verify_us.n{n}"), verify_us, "us");

        let apply_ns = p.time_inplace(
            "CompiledPlan::apply_with_scratch",
            &input,
            &want,
            &mut work,
            |x| served.apply_with_scratch(x, &mut scratch),
        );
        let sweeps = served.super_passes().len();
        p.put(format!("core.apply.ns.n{n}"), apply_ns, "ns");
        p.put(format!("core.apply.sweeps.n{n}"), sweeps as f64, "count");
        if n >= 20 {
            let bytes_per_ns = (sweeps * 2 * size * 8) as f64 / apply_ns;
            p.put(
                format!("core.apply.bw_frac.n{n}"),
                bytes_per_ns / gbs,
                "ratio",
            );
        }

        // Chosen schedule against the canonical three, and the cost model
        // against measured time (both per element).
        let mut cost = FusedTrafficCost::default();
        let mut predicted = |plan: &Plan| cost.cost(plan).unwrap_or(f64::NAN) / size as f64;
        model_cost.push(predicted(&plan));
        model_ns.push(apply_ns / size as f64);
        let iterative = Plan::iterative(n).expect("canonical plan");
        let mut best = f64::INFINITY;
        let mut iterative_ns = f64::NAN;
        for canon in [
            iterative.clone(),
            Plan::right_recursive(n).expect("canonical plan"),
            Plan::left_recursive(n).expect("canonical plan"),
        ] {
            let c = CompiledPlan::compile_exec(&canon, &default);
            let ns = p.time_inplace(
                "CompiledPlan::apply_with_scratch",
                &input,
                &want,
                &mut work,
                |x| c.apply_with_scratch(x, &mut scratch),
            );
            if canon == iterative {
                iterative_ns = ns;
            }
            model_cost.push(predicted(&canon));
            model_ns.push(ns / size as f64);
            best = best.min(ns);
        }
        p.put(
            format!("search.choice_ratio.n{n}"),
            apply_ns / best,
            "ratio",
        );

        // Leave-one-out ablations from the default, on apply_plan's schedule.
        if ABLATE_SIZES.contains(&n) {
            let base = CompiledPlan::compile_exec(&iterative, &default);
            for (stage, policy) in ablations() {
                let variant = CompiledPlan::compile_exec(&iterative, &policy);
                let ratio = if same_replay(&variant, &base) {
                    1.0
                } else {
                    p.time_inplace(
                        "CompiledPlan::apply_with_scratch",
                        &input,
                        &want,
                        &mut work,
                        |x| variant.apply_with_scratch(x, &mut scratch),
                    ) / iterative_ns
                };
                p.put(format!("core.ablate.{stage}.n{n}"), ratio, "ratio");
            }
        }

        // Entry overhead: the entry call minus a bare replay of its schedule.
        if ENTRY_SIZES.contains(&n) {
            let cached = compiled_for(&iterative);
            let bare = p.time_inplace(
                "CompiledPlan::apply_with_scratch",
                &input,
                &want,
                &mut work,
                |x| cached.apply_with_scratch(x, &mut scratch),
            );
            let entry = p.time_inplace("apply_plan", &input, &want, &mut work, |x| {
                apply_plan(&iterative, x)
            });
            p.put(format!("core.entry.apply_plan_ns.n{n}"), entry - bare, "ns");
            let entry = p.time_inplace("Planner::transform", &input, &want, &mut work, |x| {
                planner.transform(x)
            });
            p.put(
                format!("search.planner.entry_ns.n{n}"),
                entry - apply_ns,
                "ns",
            );
        }

        // The batch stage and SRHT sketches, at 64 rows.
        if BATCH_SIZES.contains(&n) {
            let rows: Vec<f64> = small_ints(BATCH_ROWS * size, &mut rng);
            let rows_want = reference_rows(&rows, size);
            let batch = p.time_inplace(
                "CompiledPlan::apply_batch_with_scratch",
                &rows,
                &rows_want,
                &mut work,
                |x| served.apply_batch_with_scratch(x, BATCH_ROWS, &mut scratch),
            );
            let looped = p.time_inplace(
                "CompiledPlan::apply_with_scratch",
                &rows,
                &rows_want,
                &mut work,
                |x| {
                    x.chunks_mut(size)
                        .try_for_each(|row| served.apply_with_scratch(row, &mut scratch))
                },
            );
            p.put(format!("core.batch.gain.n{n}"), looped / batch, "ratio");

            let base = CompiledPlan::compile_exec(&iterative, &default);
            let variant = CompiledPlan::compile_exec(
                &iterative,
                &default.with_batch(BatchPolicy::disabled()),
            );
            let ratio = if variant == base {
                1.0
            } else {
                let on = p.time_inplace(
                    "CompiledPlan::apply_batch_with_scratch",
                    &rows,
                    &rows_want,
                    &mut work,
                    |x| base.apply_batch_with_scratch(x, BATCH_ROWS, &mut scratch),
                );
                let off = p.time_inplace(
                    "CompiledPlan::apply_batch_with_scratch",
                    &rows,
                    &rows_want,
                    &mut work,
                    |x| variant.apply_batch_with_scratch(x, BATCH_ROWS, &mut scratch),
                );
                off / on
            };
            p.put(format!("core.ablate.batch.n{n}"), ratio, "ratio");

            let srht = Srht::new(n, size / 8, seed).expect("m = 2^n / 8 is a valid sample size");
            let m = srht.sample_len();
            let mut sketch_want = vec![0.0; BATCH_ROWS * m];
            reference_sketch(&rows, size, srht.signs(), srht.indices(), &mut sketch_want);
            let mut out = vec![0.0; BATCH_ROWS * m];
            let res =
                srht.sketch_batch_with_scratch(&served, &rows, BATCH_ROWS, &mut out, &mut scratch);
            p.check(
                "Srht::sketch_batch_with_scratch",
                verdict(res, &out, &sketch_want),
            );
            let (us, _) = p.time_us("Srht::sketch_batch_with_scratch", 50, || {
                srht.sketch_batch_with_scratch(&served, &rows, BATCH_ROWS, &mut out, &mut scratch)
            });
            p.put(
                format!("core.srht.ns_per_row.n{n}"),
                us * 1e3 / BATCH_ROWS as f64,
                "ns",
            );
        }

        // Two pool threads against one, on par_apply_plan's schedule.
        if n >= 18 {
            let one = p.time_inplace("par_apply_plan", &input, &want, &mut work, |x| {
                par_apply_plan(&iterative, x, Threads(1))
            });
            let two = p.time_inplace("par_apply_plan", &input, &want, &mut work, |x| {
                par_apply_plan(&iterative, x, Threads(2))
            });
            p.put(format!("parallel.speedup_2t.n{n}"), one / two, "ratio");
        }
    }
    drop(work);
    p.put(
        "search.model_pearson".into(),
        pearson(&model_cost, &model_ns),
        "r",
    );

    store_probe(&mut p);

    let global = WorkerPool::global();
    for _ in 0..20 {
        let _ = global.run(&|_, _| {});
    }
    let (us, _) = p.time_us("WorkerPool::run", 400, || global.run(&|_, _| {}));
    p.put("parallel.dispatch_ns".into(), us * 1e3, "ns");
    p.put("parallel.jobs_per_call".into(), pool.0, "1/call");
    p.put("parallel.steals_per_call".into(), pool.1, "1/call");
    p.out
}

/// Whether two lowerings replay one vector with the same kernels, i.e.
/// the stage that differs between them does not engage for `apply`. Unit
/// equality ignores provenance, and the stream stage only marks it.
fn same_replay(a: &CompiledPlan, b: &CompiledPlan) -> bool {
    a.super_passes() == b.super_passes() && a.has_streamed() == b.has_streamed()
}

/// `ShardedStore::save` of a 16-size wisdom, then `Planner::with_store`
/// loading it back, five times each.
fn store_probe(p: &mut Probe<'_>) {
    let dir = run_dir().join(format!("probe-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut searched = new_planner();
    if let Err(e) = searched.plan(16) {
        p.check("Planner::plan", Err(e.to_string()));
        return;
    }
    let (mut save, mut load) = (Vec::new(), Vec::new());
    let (mut shards, mut quarantined) = (0usize, 0usize);
    for _ in 0..5 {
        clear_shards(&dir);
        let store = match ShardedStore::open(&dir) {
            Ok(s) => s,
            Err(e) => return p.check("ShardedStore::open", Err(e.to_string())),
        };
        let (saved, ns) = p.tracer.call("ShardedStore::save", PROBE, || {
            store.save(searched.wisdom())
        });
        shards = match saved {
            Ok(s) => s,
            Err(e) => return p.check("ShardedStore::save", Err(e.to_string())),
        };
        save.push(ns as f64 / 1e3 / shards as f64);
        let (loaded, ns) = p.tracer.call("Planner::with_store", PROBE, || {
            new_planner().with_store(&store)
        });
        load.push(ns as f64 / 1e3 / shards as f64);
        quarantined = loaded.store_diagnostics().len();
        p.check(
            "Planner::with_store",
            Ok(loaded.wisdom().len() == shards && quarantined == 0),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    p.put("store.save_us_per_shard".into(), median(&save), "us");
    p.put("store.load_us_per_shard".into(), median(&load), "us");
    p.put("store.shards".into(), shards as f64, "count");
    p.put("store.quarantined".into(), quarantined as f64, "count");
}
