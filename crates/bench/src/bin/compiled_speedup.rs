//! Compiled-vs-interpreted-vs-fused-vs-SIMD-vs-relayout-vs-recodelet
//! speedup table: the acceptance measurement for the compiled-plan
//! execution layer and every stage of its lowering pipeline.
//!
//! For each canonical plan and size, times the recursive interpreter
//! (`apply_plan_recursive`, the paper's measured artifact), the unfused
//! compiled pass-schedule replay (`CompiledPlan::apply`), the fused
//! cache-blocked replay (`CompiledPlan::fuse`), the fused replay through
//! the lane-block kernels (`CompiledPlan::with_simd`), the pipeline with
//! the large-stride tail relayouted through gathered scratch
//! (`CompiledPlan::relayout`, compiled eagerly so every size reports the
//! effect), and the **full lowering pipeline** with every unit's chained
//! factors re-codeleted into merged `small[k]` codelets
//! (`CompiledPlan::recodelet`) — all with the same median-of-blocks
//! methodology, printing fastest-observed times and ratios (the minimum
//! is the noise-robust estimator for ratio claims; medians track it
//! closely on a quiet machine).
//!
//! Where each stage pays: fusion and relayout pay once the vector
//! outgrows the last-level cache — every unfused pass re-streams DRAM,
//! the fused head streams once, and the relayouted tail turns its
//! remaining per-factor sweeps into one gather + one scatter; the SIMD
//! backend pays *below* that point, where the replay is ALU-bound; and
//! re-codeleting pays everywhere fusion or relayout made a unit
//! cache-resident, because a resident unit is load/store-μop-bound and
//! merged codelets cut its load/store passes by the merge factor at
//! identical flops.
//!
//! Besides the table, the run emits a machine-readable
//! **`BENCH_tailcodelet.json`** (override with `--json PATH`): one row
//! per plan × size × executor leg with min-of-blocks ns/transform and
//! Melem/s, so the perf trajectory is tracked across PRs instead of
//! living only in commit messages. The file carries a `schema_version`
//! so `BENCH_*.json` artifacts stay comparable across PRs as columns
//! accrete (version 1 = the PR 4 `BENCH_relayout.json` shape without the
//! field; version 2 adds `schema_version` itself and the
//! `fused+simd+relayout+recodelet` executor rows).
//!
//! A second, batched-small table follows (emitting **`BENCH_batch.json`**,
//! override with `--batch-json PATH`): rows × 2^n grids for n = 6–14
//! timed through three executors — a per-transform `apply_plan` loop (the
//! production serving baseline, paying the schedule-cache lookup per
//! call), a per-row `CompiledPlan::apply_with_scratch` loop (lookup
//! amortized, per-row kernels), and `CompiledPlan::apply_batch` (the
//! cross-transform lane path) — with aggregate Melem/s per cell. This is
//! the acceptance measurement for the batch stage: batching pays where a
//! lone transform cannot fill the lanes (small n), and must stay neutral
//! at batch size 1.
//!
//! A third, parallel table follows (emitting **`BENCH_parallel.json`**,
//! schema version 2, override with `--parallel-json PATH`): an
//! empty-work dispatch-overhead microbench (one no-op job through the
//! persistent global `WorkerPool` vs a per-call `WorkerPool::new` crew of
//! the same size, built, dispatched and joined every call — the per-call
//! cost the persistent pool exists to delete), then canonical plans ×
//! n = 20–26 × threads ∈ {1, 2, 4, all} (clamped to the host) through
//! three executors: `per-call` (a `WorkerPool::new(k)` crew per call, the
//! path crews larger than the global pool take), `pooled` (persistent
//! pool, cached arenas), and `pooled+stream`
//! (non-temporal scatter + prefetched gather on the relayout tail,
//! forced eager so every measured size reports the memory-path effect).
//! The n = 26 rows are skipped when `/proc/meminfo` reports too little
//! available memory for the two 512 MiB buffers.
//!
//! Run with `--release`; flags: `--nmax N` (default 24, so the table
//! reaches past a ~100 MiB LLC), `--reps R` (default 5), `--budget
//! ELEMS` (fusion tile budget, default
//! `FusionPolicy::DEFAULT_BUDGET_ELEMS`), `--relayout-budget ELEMS`
//! (gathered-block budget, default
//! `RelayoutPolicy::DEFAULT_BUDGET_ELEMS`), `--llc-mib MIB` (the
//! working-set bound the acceptance summaries treat as LLC-resident; set
//! it to your host's LLC — the default 64 suits a ~100 MiB server part),
//! `--json PATH`, `--batch-json PATH`, `--parallel-json PATH`,
//! `--batch-only` / `--parallel-only` (run just that table).

use serde::Serialize;
use std::time::Instant;
use wht_core::{
    apply_plan, BatchPolicy, CompiledPlan, ExecPolicy, FusionPolicy, Plan, RecodeletPolicy,
    RelayoutPolicy, SimdPolicy, StreamPolicy,
};
use wht_measure::{time_compiled_plan, time_plan, TimingConfig};

/// Schema version of the emitted JSON (see the module docs).
const BENCH_SCHEMA_VERSION: u64 = 2;

/// One measured (plan, size, executor) cell of the speedup table.
#[derive(Debug, Clone, Serialize)]
struct BenchRow {
    plan: String,
    /// `true` for the paper's canonical three (iterative/right/left);
    /// `false` for reference shapes — so tooling aggregating this file
    /// can reproduce the table's canonical-only summaries.
    canonical: bool,
    n: u32,
    executor: String,
    min_ns: f64,
    melem_per_s: f64,
}

/// The checked-in benchmark artifact (`BENCH_tailcodelet.json`).
#[derive(Debug, Serialize)]
struct BenchFile {
    schema_version: u64,
    bench: String,
    methodology: String,
    tile_budget_elems: u64,
    relayout_budget_elems: u64,
    reps: u64,
    rows: Vec<BenchRow>,
}

/// One measured (plan, size, batch rows, executor) cell of the batched
/// table — `min_ns` covers the whole batch; `melem_per_s` is aggregate.
#[derive(Debug, Clone, Serialize)]
struct BatchRow {
    plan: String,
    canonical: bool,
    n: u32,
    rows: u64,
    executor: String,
    min_ns: f64,
    melem_per_s: f64,
}

/// The checked-in batched-small artifact (`BENCH_batch.json`).
#[derive(Debug, Serialize)]
struct BatchFile {
    schema_version: u64,
    bench: String,
    methodology: String,
    reps: u64,
    rows: Vec<BatchRow>,
}

/// Schema version of `BENCH_parallel.json` (independent of the other
/// artifacts). Version 2 replaced the spawn-per-call scoped baseline
/// (`scoped_ns`, executor `scoped`) with a per-call `WorkerPool`
/// (`per_call_ns`, executor `per-call`).
const PARALLEL_SCHEMA_VERSION: u64 = 2;

/// One measured (plan, size, threads, executor) cell of the parallel
/// table.
#[derive(Debug, Clone, Serialize)]
struct ParRow {
    plan: String,
    n: u32,
    threads: u64,
    executor: String,
    min_ns: f64,
    melem_per_s: f64,
}

/// The empty-work dispatch-overhead microbench result.
#[derive(Debug, Serialize)]
struct DispatchOverhead {
    /// Crew size both dispatchers drove.
    workers: u64,
    /// ns per no-op dispatch through the persistent pool.
    pooled_ns: f64,
    /// ns per no-op dispatch through a `WorkerPool::new(workers)` built
    /// and dropped (spawn + dispatch + join) every call.
    per_call_ns: f64,
    /// `per_call_ns / pooled_ns` — how much per-call cost the persistent
    /// pool deletes.
    ratio: f64,
}

/// The checked-in parallel artifact (`BENCH_parallel.json`).
#[derive(Debug, Serialize)]
struct ParallelFile {
    schema_version: u64,
    bench: String,
    methodology: String,
    /// `wht_core::env::threads()` on the measuring host — the ceiling
    /// every `threads` column was clamped to.
    host_threads: u64,
    /// NUMA nodes the pool detected on the measuring host.
    numa_nodes: u64,
    /// Whether workers were OS-pinned to their node (the pure-std pool
    /// cannot pin; recorded so the numbers stay honest).
    pinned: bool,
    reps: u64,
    dispatch: DispatchOverhead,
    rows: Vec<ParRow>,
}

fn main() {
    let mut nmax = 24u32;
    let mut reps = 5usize;
    let mut budget = FusionPolicy::DEFAULT_BUDGET_ELEMS;
    let mut relayout_budget = RelayoutPolicy::DEFAULT_BUDGET_ELEMS;
    let mut llc_mib = 64u64;
    let mut json_path = String::from("BENCH_tailcodelet.json");
    let mut batch_json_path = String::from("BENCH_batch.json");
    let mut parallel_json_path = String::from("BENCH_parallel.json");
    let mut batch_only = false;
    let mut parallel_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--nmax" => nmax = args.next().expect("--nmax N").parse().expect("integer"),
            "--reps" => reps = args.next().expect("--reps R").parse().expect("integer"),
            "--budget" => {
                budget = args
                    .next()
                    .expect("--budget ELEMS")
                    .parse()
                    .expect("integer")
            }
            "--relayout-budget" => {
                relayout_budget = args
                    .next()
                    .expect("--relayout-budget ELEMS")
                    .parse()
                    .expect("integer")
            }
            "--llc-mib" => {
                llc_mib = args
                    .next()
                    .expect("--llc-mib MIB")
                    .parse()
                    .expect("integer")
            }
            "--json" => json_path = args.next().expect("--json PATH"),
            "--batch-json" => batch_json_path = args.next().expect("--batch-json PATH"),
            "--parallel-json" => parallel_json_path = args.next().expect("--parallel-json PATH"),
            "--batch-only" => batch_only = true,
            "--parallel-only" => parallel_only = true,
            other => panic!(
                "unknown flag {other}; valid: --nmax N, --reps R, --budget ELEMS, \
                 --relayout-budget ELEMS, --llc-mib MIB, --json PATH, --batch-json PATH, \
                 --parallel-json PATH, --batch-only, --parallel-only"
            ),
        }
    }
    if parallel_only {
        parallel_bench(reps, &parallel_json_path);
        return;
    }
    if batch_only {
        batch_bench(reps, &batch_json_path);
        return;
    }
    let cfg = TimingConfig {
        warmup: 2,
        reps,
        iters_per_block: 0,
    };
    let policy = FusionPolicy::new(budget);
    // Eager engagement so the table reports the relayout (and tail
    // re-codeleting) effect at every size — exactly the data that tunes
    // the production policy's `min_elems` threshold per host.
    let relayout_policy = RelayoutPolicy::eager(relayout_budget);

    println!(
        "compiled vs interpreted vs fused vs SIMD vs relayout vs recodelet execution \
         (min ns/transform over {reps} blocks, tile budget {budget} elems, \
         gathered-block budget {relayout_budget} elems, f64)"
    );
    println!(
        "{:>3}  {:<10}  {:>13}  {:>13}  {:>13}  {:>13}  {:>13}  {:>13}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
        "n",
        "plan",
        "interpreted",
        "compiled",
        "fused",
        "simd",
        "relayout",
        "recodelet",
        "comp/int",
        "fuse/comp",
        "simd/fuse",
        "relay/simd",
        "recod/relay"
    );
    let mut rows: Vec<BenchRow> = Vec::new();
    let mut worst_compiled_16 = f64::INFINITY;
    let mut fused_by_size: Vec<(u32, f64)> = Vec::new();
    let mut simd_by_size: Vec<(u32, f64)> = Vec::new();
    let mut relayout_by_size: Vec<(u32, f64)> = Vec::new();
    let mut tail_by_size: Vec<(u32, f64)> = Vec::new();
    for n in (8..=nmax).step_by(2) {
        // The paper's canonical three, plus one blocked reference shape
        // (depth-1, so the interpreter is already flat there — it bounds
        // what recursion elimination alone can buy).
        let plans = [
            ("iterative", Plan::iterative(n).expect("valid")),
            ("right", Plan::right_recursive(n).expect("valid")),
            ("left", Plan::left_recursive(n).expect("valid")),
            ("blocked8*", Plan::binary_iterative(n, 8).expect("valid")),
        ];
        let mut worst_fused = f64::INFINITY;
        let mut worst_simd = f64::INFINITY;
        let mut worst_relayout = f64::INFINITY;
        let mut worst_tail = f64::INFINITY;
        for (name, plan) in plans {
            let interp = time_plan(&plan, &cfg).expect("valid config");
            let compiled_plan = CompiledPlan::compile(&plan);
            let compiled = time_compiled_plan(&compiled_plan, &cfg).expect("valid config");
            let fused_plan = compiled_plan.fuse(&policy);
            let fused = time_compiled_plan(&fused_plan, &cfg).expect("valid config");
            let simd_plan = fused_plan.with_simd(&SimdPolicy::auto());
            let simd = time_compiled_plan(&simd_plan, &cfg).expect("valid config");
            let relayout_plan = fused_plan
                .relayout(&relayout_policy)
                .with_simd(&SimdPolicy::auto());
            let relayout = time_compiled_plan(&relayout_plan, &cfg).expect("valid config");
            // The full lowering pipeline, exactly as `lower` runs it.
            let tail_plan = CompiledPlan::compile(&plan).lower(&ExecPolicy {
                fusion: policy,
                relayout: relayout_policy,
                recodelet: RecodeletPolicy::default(),
                simd: SimdPolicy::auto(),
                // Single-transform timing: the batch product is dead
                // weight here (apply() never reads it).
                batch: BatchPolicy::disabled(),
                stream: StreamPolicy::disabled(),
            });
            let tail = time_compiled_plan(&tail_plan, &cfg).expect("valid config");
            let compiled_speedup = interp.min_ns / compiled.min_ns;
            let fused_speedup = compiled.min_ns / fused.min_ns;
            let simd_speedup = fused.min_ns / simd.min_ns;
            let relayout_speedup = simd.min_ns / relayout.min_ns;
            let tail_speedup = relayout.min_ns / tail.min_ns;
            let melem = |min_ns: f64| (1u64 << n) as f64 / min_ns * 1e3;
            for (executor, t) in [
                ("interpreted", interp.min_ns),
                ("compiled", compiled.min_ns),
                ("fused", fused.min_ns),
                ("fused+simd", simd.min_ns),
                ("fused+simd+relayout", relayout.min_ns),
                ("fused+simd+relayout+recodelet", tail.min_ns),
            ] {
                rows.push(BenchRow {
                    plan: name.trim_end_matches('*').to_string(),
                    canonical: !name.ends_with('*'),
                    n,
                    executor: executor.to_string(),
                    min_ns: t,
                    melem_per_s: melem(t),
                });
            }
            if !name.ends_with('*') {
                if n >= 16 {
                    worst_compiled_16 = worst_compiled_16.min(compiled_speedup);
                }
                worst_fused = worst_fused.min(fused_speedup);
                worst_simd = worst_simd.min(simd_speedup);
                worst_relayout = worst_relayout.min(relayout_speedup);
                worst_tail = worst_tail.min(tail_speedup);
            }
            println!(
                "{:>3}  {:<10}  {:>13.0}  {:>13.0}  {:>13.0}  {:>13.0}  {:>13.0}  {:>13.0}  {:>8.2}x  {:>8.2}x  {:>8.2}x  {:>8.2}x  {:>8.2}x",
                n,
                name,
                interp.min_ns,
                compiled.min_ns,
                fused.min_ns,
                simd.min_ns,
                relayout.min_ns,
                tail.min_ns,
                compiled_speedup,
                fused_speedup,
                simd_speedup,
                relayout_speedup,
                tail_speedup
            );
        }
        // Sub-cache sizes finish in microseconds and their ratios are
        // noise; the summary tracks the sizes each stage's story is about.
        if n >= 16 {
            fused_by_size.push((n, worst_fused));
            simd_by_size.push((n, worst_simd));
            relayout_by_size.push((n, worst_relayout));
            tail_by_size.push((n, worst_tail));
        }
    }
    if nmax >= 16 {
        println!("\nworst canonical-plan compiled speedup at n >= 16: {worst_compiled_16:.2}x");
    }
    if !fused_by_size.is_empty() {
        println!("worst canonical-plan per-stage speedups per size:");
        for ((((n, worst_f), (_, worst_s)), (_, worst_r)), (_, worst_t)) in fused_by_size
            .iter()
            .zip(simd_by_size.iter())
            .zip(relayout_by_size.iter())
            .zip(tail_by_size.iter())
        {
            let bytes = (1u64 << n) * 8;
            println!(
                "  n = {n:>2} ({:>4} MiB): fuse/comp {worst_f:.2}x   simd/fuse {worst_s:.2}x   \
                 relay/simd {worst_r:.2}x   tail/relay {worst_t:.2}x",
                bytes >> 20
            );
        }
        if let Some((n, worst)) = fused_by_size.last() {
            println!("fused-over-compiled at the largest (memory-bound) size n = {n}: {worst:.2}x");
        }
        if let Some((n, worst)) = simd_by_size
            .iter()
            .rfind(|(n, _)| (1u64 << n) * 8 <= llc_mib << 20)
        {
            println!(
                "simd-over-scalar-fused at the largest size within the {llc_mib} MiB \
                 LLC proxy (--llc-mib), n = {n}: {worst:.2}x (acceptance: >= 1.5x \
                 at an LLC-resident size)"
            );
        }
        if let Some((n, worst)) = relayout_by_size.last() {
            println!(
                "relayout-over-fused-simd at the largest (memory-bound) size n = {n}: \
                 {worst:.2}x"
            );
        }
        if let Some((n, worst)) = tail_by_size.last() {
            println!(
                "recodelet-over-relayout at the largest (memory-bound) size n = {n}: \
                 {worst:.2}x (acceptance: >= 1.1x for every canonical plan at n >= 24)"
            );
        }
    }
    println!("(* reference shape, not one of the paper's canonical three)");

    let file = BenchFile {
        schema_version: BENCH_SCHEMA_VERSION,
        bench: "recodelet".to_string(),
        methodology: format!(
            "min-of-{reps}-blocks ns per transform, f64, warmup 2; executors: \
             interpreted = apply_plan_recursive, compiled = unfused CompiledPlan::apply, \
             fused = tile budget {budget}, fused+simd = lane kernels, \
             fused+simd+relayout = eager gathered tail (block budget {relayout_budget}), \
             fused+simd+relayout+recodelet = full lowering pipeline (merged codelets in \
             every unit, max_k {}, footprint {} elems)",
            RecodeletPolicy::default().max_k,
            RecodeletPolicy::default().footprint_elems
        ),
        tile_budget_elems: budget as u64,
        relayout_budget_elems: relayout_budget as u64,
        reps: reps as u64,
        rows,
    };
    let json = serde_json::to_string_pretty(&file).expect("benchmark serialization is infallible");
    wht_search::atomic_write(std::path::Path::new(&json_path), json.as_bytes())
        .expect("write benchmark JSON");
    println!("wrote {json_path}");

    batch_bench(reps, &batch_json_path);
    parallel_bench(reps, &parallel_json_path);
}

/// The batched-small acceptance table: rows × 2^n grids through the
/// per-transform `apply_plan` loop, the per-row compiled loop, and
/// `apply_batch` — aggregate throughput per cell, `BENCH_batch.json` out.
fn batch_bench(reps: usize, json_path: &str) {
    println!(
        "\nbatched-small execution (aggregate Melem/s, min over {reps} blocks, f64; \
         batched = CompiledPlan::apply_batch, loops re-transform row by row)"
    );
    println!(
        "{:>3}  {:<10}  {:>5}  {:>15}  {:>15}  {:>15}  {:>10}  {:>10}",
        "n", "plan", "rows", "apply_plan loop", "compiled loop", "batched", "vs plan", "vs comp"
    );
    let exec = ExecPolicy::default().with_simd(SimdPolicy::auto());
    let mut rows_out: Vec<BatchRow> = Vec::new();
    // Worst batched/apply_plan-loop ratios over the canonical plans at
    // engaged batch sizes — the acceptance summary.
    let mut worst_small = f64::INFINITY; // n = 6..=12, rows >= 64
    let mut worst_14 = f64::INFINITY; // n = 14, rows >= 64
    let mut worst_single = f64::INFINITY; // rows == 1 (neutrality)
    for n in (6..=14u32).step_by(2) {
        let plans = [
            ("iterative", Plan::iterative(n).expect("valid")),
            ("right", Plan::right_recursive(n).expect("valid")),
            ("left", Plan::left_recursive(n).expect("valid")),
        ];
        let size = 1usize << n;
        for (name, plan) in plans {
            let compiled = CompiledPlan::compile(&plan).lower(&exec);
            for batch_rows in [1usize, 64, 256, 1024] {
                let src: Vec<f64> = (0..batch_rows * size)
                    .map(|j| ((j.wrapping_mul(0x9E3779B9)) % 512) as f64 / 64.0 - 4.0)
                    .collect();
                let mut x = src.clone();
                let mut scratch: Vec<f64> = Vec::new();
                // Warm every path (schedule caches, scratch sizing).
                compiled
                    .apply_batch_with_scratch(&mut x, batch_rows, &mut scratch)
                    .expect("sized above");
                apply_plan(&plan, &mut x[..size]).expect("sized above");
                let (mut t_batch, mut t_plan, mut t_comp) = (f64::MAX, f64::MAX, f64::MAX);
                for _ in 0..reps {
                    x.copy_from_slice(&src);
                    let t = Instant::now();
                    compiled
                        .apply_batch_with_scratch(&mut x, batch_rows, &mut scratch)
                        .expect("sized above");
                    t_batch = t_batch.min(t.elapsed().as_secs_f64());
                    x.copy_from_slice(&src);
                    let t = Instant::now();
                    for row in x.chunks_exact_mut(size) {
                        apply_plan(&plan, row).expect("sized above");
                    }
                    t_plan = t_plan.min(t.elapsed().as_secs_f64());
                    x.copy_from_slice(&src);
                    let t = Instant::now();
                    for row in x.chunks_exact_mut(size) {
                        compiled
                            .apply_with_scratch(row, &mut scratch)
                            .expect("sized above");
                    }
                    t_comp = t_comp.min(t.elapsed().as_secs_f64());
                }
                let melem = |t: f64| (batch_rows * size) as f64 / t / 1e6;
                for (executor, t) in [
                    ("apply_plan-loop", t_plan),
                    ("compiled-loop", t_comp),
                    ("batched", t_batch),
                ] {
                    rows_out.push(BatchRow {
                        plan: name.to_string(),
                        canonical: true,
                        n,
                        rows: batch_rows as u64,
                        executor: executor.to_string(),
                        min_ns: t * 1e9,
                        melem_per_s: melem(t),
                    });
                }
                let vs_plan = t_plan / t_batch;
                let vs_comp = t_comp / t_batch;
                if batch_rows >= 64 {
                    if n <= 12 {
                        worst_small = worst_small.min(vs_plan);
                    } else {
                        worst_14 = worst_14.min(vs_plan);
                    }
                } else {
                    worst_single = worst_single.min(vs_plan);
                }
                println!(
                    "{:>3}  {:<10}  {:>5}  {:>15.0}  {:>15.0}  {:>15.0}  {:>9.2}x  {:>9.2}x",
                    n,
                    name,
                    batch_rows,
                    melem(t_plan),
                    melem(t_comp),
                    melem(t_batch),
                    vs_plan,
                    vs_comp
                );
            }
        }
    }
    println!(
        "worst batched-over-apply_plan-loop, canonical plans: {worst_small:.2}x at \
         n = 6..12 with >= 64 rows (acceptance: >= 3x), {worst_14:.2}x at n = 14 \
         (acceptance: >= 1.5x), {worst_single:.2}x at batch size 1 (acceptance: \
         neutral or better)"
    );

    let file = BatchFile {
        schema_version: BENCH_SCHEMA_VERSION,
        bench: "batch".to_string(),
        methodology: format!(
            "min-of-{reps}-blocks ns per whole batch, aggregate Melem/s, f64, warmup 1; \
             executors: apply_plan-loop = per-row apply_plan (schedule-cache lookup per \
             call), compiled-loop = per-row CompiledPlan::apply_with_scratch, batched = \
             CompiledPlan::apply_batch_with_scratch (cross-transform lane path, default \
             BatchPolicy, SimdPolicy::auto)"
        ),
        reps: reps as u64,
        rows: rows_out,
    };
    let json = serde_json::to_string_pretty(&file).expect("benchmark serialization is infallible");
    wht_search::atomic_write(std::path::Path::new(json_path), json.as_bytes())
        .expect("write benchmark JSON");
    println!("wrote {json_path}");
}

/// `MemAvailable` from `/proc/meminfo`, in bytes (`None` off Linux or on
/// parse failure — callers then skip the memory-guarded sizes).
fn mem_available_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// The persistent-pool acceptance table: the empty-work dispatch
/// overhead microbench, then canonical plans × large sizes × thread
/// counts through per-call-pool, pooled, and pooled+streaming executors
/// — `BENCH_parallel.json` out.
fn parallel_bench(reps: usize, json_path: &str) {
    use wht_parallel::{par_apply_compiled_on, Threads, WorkerPool};
    let host_threads = wht_core::env::threads();
    let pool = WorkerPool::global();

    // --- Dispatch overhead: what does one parallel call cost before any
    // work happens? The global pool parks its crew on a condvar; a
    // per-call pool pays thread creation + join every call.
    let crew = pool.workers();
    pool.run(&|_, _| {}).expect("no-op job cannot panic");
    let pooled_iters = 2_000u32;
    let t = Instant::now();
    for _ in 0..pooled_iters {
        pool.run(&|_, _| {}).expect("no-op job cannot panic");
    }
    let pooled_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(pooled_iters);
    let per_call_iters = 500u32;
    let t = Instant::now();
    for _ in 0..per_call_iters {
        WorkerPool::new(crew)
            .run(&|_, _| {})
            .expect("no-op job cannot panic");
    }
    let per_call_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(per_call_iters);
    let dispatch = DispatchOverhead {
        workers: crew as u64,
        pooled_ns,
        per_call_ns,
        ratio: per_call_ns / pooled_ns,
    };
    println!(
        "\nempty-work dispatch overhead ({crew}-worker crew): pooled {pooled_ns:.0} ns/call, \
         per-call pool spawn+join {per_call_ns:.0} ns/call — persistent pool is {:.1}x \
         cheaper than a per-call crew (acceptance: >= 10x)",
        dispatch.ratio
    );

    // --- Replay table: the production lowering pipeline, streamed and
    // not, through both dispatchers at each crew size.
    println!(
        "\nparallel compiled replay (min ns/transform over {reps} blocks, f64; per-call = \
         WorkerPool::new crew per call, pooled = persistent pool, +stream = non-temporal \
         relayout tail)"
    );
    println!(
        "{:>3}  {:<10}  {:>7}  {:>13}  {:>13}  {:>13}  {:>9}  {:>11}",
        "n", "plan", "threads", "per-call", "pooled", "pooled+strm", "pool/call", "strm/pooled"
    );
    let mut thread_counts: Vec<usize> = [1usize, 2, 4, host_threads]
        .into_iter()
        .filter(|&t| t <= host_threads)
        .collect();
    thread_counts.sort_unstable();
    thread_counts.dedup();
    let base = ExecPolicy::default()
        .with_relayout(RelayoutPolicy::eager(RelayoutPolicy::DEFAULT_BUDGET_ELEMS))
        .with_batch(BatchPolicy::disabled());
    let cached_policy = base.with_stream(StreamPolicy::disabled());
    let streamed_policy = base.with_stream(StreamPolicy::eager());
    let mut rows: Vec<ParRow> = Vec::new();
    for n in (20..=26u32).step_by(2) {
        let bytes = (1u64 << n) * 8;
        // Source + working buffer, plus headroom for the rest of the
        // process: skip a size the host cannot honestly hold.
        if let Some(avail) = mem_available_bytes() {
            if bytes.saturating_mul(3) > avail {
                println!(
                    "  (skipping n = {n}: {} MiB needed, too little available)",
                    (bytes * 3) >> 20
                );
                continue;
            }
        }
        let size = 1usize << n;
        let src: Vec<f64> = (0..size)
            .map(|j| ((j.wrapping_mul(0x9E3779B9)) % 512) as f64 / 64.0 - 4.0)
            .collect();
        let mut x = vec![0.0f64; size];
        for (name, plan) in [
            ("iterative", Plan::iterative(n).expect("valid")),
            ("right", Plan::right_recursive(n).expect("valid")),
            ("left", Plan::left_recursive(n).expect("valid")),
        ] {
            let cached = CompiledPlan::compile(&plan).lower(&cached_policy);
            let streamed = CompiledPlan::compile(&plan).lower(&streamed_policy);
            for &threads in &thread_counts {
                let mut time_exec = |f: &mut dyn FnMut(&mut [f64])| {
                    // One warm pass (pool arenas, page faults), then min.
                    x.copy_from_slice(&src);
                    f(&mut x);
                    let mut best = f64::MAX;
                    for _ in 0..reps {
                        x.copy_from_slice(&src);
                        let t = Instant::now();
                        f(&mut x);
                        best = best.min(t.elapsed().as_secs_f64());
                    }
                    best * 1e9
                };
                let t_per_call = time_exec(&mut |x| {
                    par_apply_compiled_on(&WorkerPool::new(threads), &cached, x, Threads(threads))
                        .expect("sized above");
                });
                let t_pooled = time_exec(&mut |x| {
                    par_apply_compiled_on(pool, &cached, x, Threads(threads)).expect("sized above");
                });
                let t_stream = time_exec(&mut |x| {
                    par_apply_compiled_on(pool, &streamed, x, Threads(threads))
                        .expect("sized above");
                });
                let melem = |ns: f64| size as f64 / ns * 1e3;
                for (executor, t) in [
                    ("per-call", t_per_call),
                    ("pooled", t_pooled),
                    ("pooled+stream", t_stream),
                ] {
                    rows.push(ParRow {
                        plan: name.to_string(),
                        n,
                        threads: threads as u64,
                        executor: executor.to_string(),
                        min_ns: t,
                        melem_per_s: melem(t),
                    });
                }
                println!(
                    "{:>3}  {:<10}  {:>7}  {:>13.0}  {:>13.0}  {:>13.0}  {:>8.2}x  {:>10.2}x",
                    n,
                    name,
                    threads,
                    t_per_call,
                    t_pooled,
                    t_stream,
                    t_per_call / t_pooled,
                    t_pooled / t_stream
                );
            }
        }
    }
    let stats = pool.stats();
    println!("pool after run: {stats}");

    let file = ParallelFile {
        schema_version: PARALLEL_SCHEMA_VERSION,
        bench: "parallel".to_string(),
        methodology: format!(
            "min-of-{reps}-blocks ns per transform, f64, one warm pass; executors: per-call = \
             par_apply_compiled_on a WorkerPool::new(threads) built and joined per call, pooled = \
             par_apply_compiled_on the process-global persistent WorkerPool (parked workers, \
             cached scratch arenas), pooled+stream = same pool with StreamPolicy::eager() \
             (non-temporal scatter + prefetched gather on the eager relayout tail; the \
             production default engages past 2^24 elems). Dispatch overhead = ns per \
             empty-work call, global pool vs per-call WorkerPool::new, same crew size."
        ),
        host_threads: host_threads as u64,
        numa_nodes: stats.numa_nodes as u64,
        pinned: stats.pinned,
        reps: reps as u64,
        dispatch,
        rows,
    };
    let json = serde_json::to_string_pretty(&file).expect("benchmark serialization is infallible");
    wht_search::atomic_write(std::path::Path::new(json_path), json.as_bytes())
        .expect("write benchmark JSON");
    println!("wrote {json_path}");
}
