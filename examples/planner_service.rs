//! Production-shaped usage: a `Planner` serving heavy transform traffic
//! with search amortized through the wisdom cache.
//!
//! Simulates a two-process deployment: a *tuning* process autotunes a set
//! of sizes and exports wisdom as JSON; a *serving* process imports the
//! wisdom and handles a burst of transforms without ever evaluating a
//! cost function — the FFTW wisdom workflow on the paper's algorithm
//! space. Run with `cargo run --release --example planner_service`.
//!
//! Executor knobs: served transforms replay schedules lowered through the
//! staged pipeline of `wht_core::compile` — prefix fusion, DDL tail
//! relayout past the size threshold, re-codeleting, SIMD lane
//! kernels — under **one** `ExecPolicy`: the one `.with_exec(policy)`
//! sets, else the environment snapshot `Planner::new` takes (the
//! `WHT_NO_*` kill switches and tuning knobs; see `wht_core::env` for the
//! full table). Wisdom carries only the plans the tuning process
//! searched, so the serving process runs them under its own policy. To
//! change one stage, replace it in the planner's policy, e.g.
//! `.with_exec(ExecPolicy::from_env().with_fusion(FusionPolicy::disabled()))`.

use std::time::Instant;
use wht::prelude::*;

fn main() -> Result<(), WhtError> {
    // ---- tuning process -------------------------------------------------
    let mut tuner = Planner::new(InstructionCost::default());
    for n in [8u32, 10, 12, 14] {
        let best = tuner.plan(n)?.clone();
        println!("tuned n={n:2}: {best}");
    }
    let wisdom_json = tuner.wisdom().to_json();
    println!(
        "exported wisdom: {} entries, {} cost evaluations paid once, {} bytes of JSON",
        tuner.wisdom().len(),
        tuner.evaluations(),
        wisdom_json.len()
    );

    // ---- serving process ------------------------------------------------
    let wisdom = Wisdom::from_json(&wisdom_json)?;
    let mut server = Planner::new(InstructionCost::default()).with_wisdom(wisdom);

    let n = 14u32;
    let size = 1usize << n;
    let requests = 200usize;
    let pristine: Vec<f64> = (0..size)
        .map(|j| ((j * 29 + 3) % 256) as f64 / 32.0)
        .collect();

    let start = Instant::now();
    let mut checksum = 0.0f64;
    for _ in 0..requests {
        let mut x = pristine.clone();
        server.transform(&mut x)?;
        checksum += x[1];
    }
    let elapsed = start.elapsed();
    println!(
        "served {requests} transforms of 2^{n} in {:.1} ms ({:.0} ns each), checksum {checksum:.3}",
        elapsed.as_secs_f64() * 1e3,
        elapsed.as_nanos() as f64 / requests as f64
    );

    // Requests for the same (size, scalar type) need not be served one at
    // a time: batched as rows of one matrix, `transform_batch` routes
    // them through the cross-transform lane path — every pass at full
    // SIMD width — and falls back to the per-row replay below the row
    // threshold or under WHT_NO_BATCH, bit-identically. Small rows is
    // where batching pays: per-row, a 2^6 transform is too narrow to
    // fill the lanes.
    let n_small = 6u32;
    let row = 1usize << n_small;
    let small: Vec<f64> = (0..row)
        .map(|j| ((j * 13 + 7) % 256) as f64 / 32.0)
        .collect();
    let pristine_batch: Vec<f64> = (0..requests).flat_map(|_| small.iter().copied()).collect();
    // Warm the size first (wisdom hit + one compile) so both timings
    // measure steady-state serving, then keep the best of a few runs.
    let mut warm = small.clone();
    server.transform(&mut warm)?;
    let mut batch = pristine_batch.clone();
    let mut per_row = warm;
    let (mut batched, mut looped) = (f64::MAX, f64::MAX);
    for _ in 0..5 {
        batch.copy_from_slice(&pristine_batch);
        let start = Instant::now();
        server.transform_batch(&mut batch, requests)?;
        batched = batched.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for r in 0..requests {
            per_row.copy_from_slice(&small);
            server.transform(&mut per_row)?;
            if r == requests - 1 {
                assert_eq!(batch[row * r..row * (r + 1)], per_row[..], "bit-identical");
            }
        }
        looped = looped.min(start.elapsed().as_secs_f64());
    }
    println!(
        "served {requests} transforms of 2^{n_small} batched in {:.0} us vs {:.0} us looped \
         ({:.1}x)",
        batched * 1e6,
        looped * 1e6,
        looped / batched.max(f64::EPSILON)
    );

    // Every size compiles under the serving planner's own ExecPolicy —
    // inspectable without compiling anything.
    let resolved: ExecPolicy = server.resolved_exec(n);
    assert_eq!(&resolved, server.exec(), "wisdom never changes the policy");
    let on_off = |on: bool| if on { "on" } else { "off" };
    println!(
        "serving executor config (every size): fusion {} (budget {} elems), \
         tail relayout {} past {} elems, re-codeleting {} (max small[{}]), \
         SIMD lanes {}, batching {} past {} rows",
        on_off(resolved.fusion.enabled()),
        resolved.fusion.budget_elems,
        on_off(resolved.relayout.enabled()),
        resolved.relayout.min_elems,
        on_off(resolved.recodelet.enabled()),
        resolved.recodelet.max_k,
        on_off(resolved.simd.enabled()),
        on_off(resolved.batch.enabled()),
        resolved.batch.block_rows,
    );
    println!(
        "(set by the environment — kill switches WHT_NO_FUSE / WHT_NO_SIMD / \
         WHT_NO_RELAYOUT / WHT_NO_RECODELET / WHT_NO_BATCH — or by with_exec; \
         the imported wisdom never changes it)"
    );
    assert_eq!(
        server.evaluations(),
        0,
        "a warm server must never evaluate a cost function"
    );
    println!(
        "cost evaluations in the serving process: {}",
        server.evaluations()
    );
    Ok(())
}
