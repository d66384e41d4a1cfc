//! Caller-path benchmark of the WHT workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_small|large_replay> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One seeded client drives the caller-facing entry points
//! (`Planner::transform`/`transform_batch`, `apply_plan`, `par_apply_plan`,
//! `Srht::sketch_batch_with_scratch`), checks every output bit for bit
//! against the benchmark's own reference, and prints the end-to-end
//! metrics. With `--trace 1` it also serves the workload with a span
//! around every library call, reports the tracing overhead, and times each
//! layer's public calls (see `probes.rs`, which also probes the
//! `ShardedStore` behind `Planner::with_store`); the last line then
//! carries the per-layer metrics instead. The last line of standard output
//! is always one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`.
//!
//! `--setup-only` is internal: the run starts fresh copies of itself with
//! it to measure set-up in a new process each time.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
mod cpus;
mod header;
mod probes;
mod trace;
mod util;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use wht_core::{apply_plan, ExecPolicy, Plan};
use wht_parallel::WorkerPool;

use crate::cpus::Cpus;
use crate::trace::Tracer;
use crate::util::{
    json_num, median, mem_available_kib, metric, quantile, reference_wht, rss_kib, run_dir,
    small_ints, verdict, Metric, Rng, Tally,
};
use crate::workloads::{serve_for, setup, Kind, LargeReplay, ServeSmall, Workload};

const WORKLOADS: [&str; 2] = ["serve_small", "large_replay"];

/// Set-ups measured per untraced run, each in a fresh process (the run's
/// own process is one of them); `setup_s` is their median.
const SETUPS: usize = 9;
/// Blocks' worth of latency samples a serving pass reserves up front, so
/// that booking a sample never moves a vector: reserved pages become
/// resident only once written, and `peak_rss_mib` subtracts those.
const RESERVED_BLOCKS: usize = 1 << 14;
/// large_replay holds about 0.5 GiB of vectors and its probes 0.4 GiB.
const LARGE_MEM_KIB: u64 = 1200 * 1024;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_only) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must lie in 0..=3600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_only,
    })
}

fn make(args: &Args) -> Box<dyn Workload> {
    if args.workload == "serve_small" {
        Box::new(ServeSmall::new(args.seed))
    } else {
        Box::new(LargeReplay::new(args.seed))
    }
}

/// `WHT_*` knobs change the lowered schedules and arm fault injection, so
/// a run under any of them would not measure the default library.
fn pin_environment(args: &Args) -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("WHT_"))
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: WHT_* variables change the lowered schedules and the fault injection",
            set.join(", ")
        ));
    }
    if ExecPolicy::from_env() != ExecPolicy::default() {
        return Err("the process-default ExecPolicy differs from ExecPolicy::default()".into());
    }
    if args.workload == "large_replay" {
        let avail = mem_available_kib().ok_or("cannot read MemAvailable from /proc/meminfo")?;
        if avail < LARGE_MEM_KIB {
            return Err(format!(
                "large_replay needs {} MiB of available memory but MemAvailable is {} MiB; refusing rather than swap",
                LARGE_MEM_KIB / 1024,
                avail / 1024
            ));
        }
    }
    Ok(())
}

/// The harness checks itself: its radix-2 reference equals the Hadamard
/// definition, and one corrupted expected element and one injected `Err`
/// each count as exactly one failed request.
fn self_test() -> Result<(), String> {
    let mut rng = Rng::new(0, 42);
    let x: Vec<f64> = small_ints(32, &mut rng);
    let mut want = x.clone();
    reference_wht(&mut want);
    for (k, w) in want.iter().enumerate() {
        let d: f64 = x
            .iter()
            .enumerate()
            .map(|(i, v)| {
                if (i & k).count_ones() % 2 == 0 {
                    *v
                } else {
                    -v
                }
            })
            .sum();
        if d != *w {
            return Err(format!(
                "the radix-2 reference disagrees with the definition at {k}"
            ));
        }
    }
    let plan = Plan::iterative(5).map_err(|e| e.to_string())?;
    let mut t = Tally::default();
    let mut out = x.clone();
    let res = apply_plan(&plan, &mut out);
    t.settle(usize::MAX, "clean", 0, 0, verdict(res, &out, &want));
    let clean = (t.attempted, t.failed);
    let mut corrupted = want.clone();
    corrupted[7] += 1.0;
    let mut out = x.clone();
    let res = apply_plan(&plan, &mut out);
    t.settle(
        usize::MAX,
        "corrupted",
        0,
        0,
        verdict(res, &out, &corrupted),
    );
    let after_corrupt = (t.attempted, t.failed);
    let mut short = x[..31].to_vec();
    let res = apply_plan(&plan, &mut short);
    t.settle(
        usize::MAX,
        "injected Err",
        0,
        0,
        verdict(res, &short, &want[..31]),
    );
    if clean != (1, 0) || after_corrupt != (2, 1) || (t.attempted, t.failed) != (3, 2) {
        return Err(format!(
            "failure accounting is off: clean {clean:?}, corrupted {after_corrupt:?}, Err {:?}",
            (t.attempted, t.failed)
        ));
    }
    Ok(())
}

/// Set up once in a fresh process; returns (setup_s, attempted, failed).
fn fresh_setup(args: &Args, traced: bool) -> Result<(f64, u64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args([
            "--seconds",
            "0",
            "--trace",
            if traced { "1" } else { "0" },
            "--setup-only",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("a set-up process exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .rfind(|l| l.starts_with("SETUP "))
        .ok_or("a set-up process printed no result")?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    match f[..] {
        [ns, attempted, failed] => Ok((ns as f64 / 1e9, attempted, failed)),
        _ => Err(format!("malformed set-up result: {line}")),
    }
}

/// Peak memory of the library, in KiB: the largest resident set seen
/// after set-up and between blocks, less what the benchmark itself holds,
/// namely everything resident before the first library call (inputs,
/// references, filled work buffers, reserved sample storage) and the
/// pages of latency samples written since.
struct Rss {
    peak: u64,
    base: u64,
    samples: u64,
}

impl Rss {
    /// `peak` excludes the serving pass's own samples; `held` are the
    /// tallies of earlier serving passes, still resident.
    fn new(peak: u64, base: u64, held: &[&Tally]) -> Rss {
        Rss {
            peak,
            base,
            samples: held.iter().map(|t| t.sample_kib()).sum(),
        }
    }

    fn library_mib(&self) -> f64 {
        self.peak.saturating_sub(self.base + self.samples) as f64 / 1024.0
    }
}

/// The end-to-end metrics of one serving pass. `melem_per_s` is the median
/// over blocks of the elements each block transformed per second inside
/// calls: every block holds the same requests, so each is one sample of
/// the whole mix, and the median leaves out the blocks that a burst of
/// load elsewhere on the host slowed (or the first blocks, while caches
/// warm up).
struct E2e {
    melem_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    setup_s: f64,
    rss: Rss,
    samples: usize,
    beyond_p99: usize,
    setups: Vec<f64>,
}

impl E2e {
    fn new(t: &Tally, setups: &[f64], rss: Rss) -> E2e {
        let lat = t.latencies();
        let n = lat.len();
        let rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n.max(1));
        E2e {
            melem_per_s: median(&t.block_melem_per_s()),
            p50_us: quantile(&lat, 0.5) as f64 / 1e3,
            p99_us: quantile(&lat, 0.99) as f64 / 1e3,
            setup_s: median(setups),
            rss,
            samples: n,
            beyond_p99: n.saturating_sub(rank),
            setups: setups.to_vec(),
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("melem_per_s", self.melem_per_s, "Melem/s"),
            metric("latency_p50_us", self.p50_us, "us"),
            metric("latency_p99_us", self.p99_us, "us"),
            metric("setup_s", self.setup_s, "s"),
            metric("peak_rss_mib", self.rss.library_mib(), "MiB"),
        ]
    }

    fn print(&self, title: &str, t: &Tally) {
        let failed_frac = t.failed as f64 / t.attempted.max(1) as f64;
        println!("{title}");
        println!(
            "  melem_per_s      {:>14.3} Melem/s  (median of {} blocks; whole pass {:.3}: {} elements in {:.3} s inside calls)",
            self.melem_per_s,
            t.blocks.len(),
            t.elems as f64 / t.busy_ns.max(1) as f64 * 1e3,
            t.elems,
            t.busy_ns as f64 / 1e9
        );
        println!(
            "  latency_p50_us   {:>14.3} us       ({} samples)",
            self.p50_us, self.samples
        );
        println!(
            "  latency_p99_us   {:>14.3} us       ({} samples, {} beyond p99)",
            self.p99_us, self.samples, self.beyond_p99
        );
        println!(
            "  setup_s          {:>14.6} s        (median of {} fresh-process set-ups: {:?})",
            self.setup_s,
            self.setups.len(),
            self.setups
        );
        println!(
            "  peak_rss_mib     {:>14.3} MiB      (peak RSS less {:.1} MiB resident before the first library call and {:.1} MiB of earlier latency samples)",
            self.rss.library_mib(),
            self.rss.base as f64 / 1024.0,
            self.rss.samples as f64 / 1024.0
        );
        println!(
            "  failed_frac      {:>14.6}          ({} failed of {} attempted)",
            failed_frac, t.failed, t.attempted
        );
    }
}

fn result_line(t: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0,
        t.attempted.max(1),
        t.failed,
        body.join(", ")
    )
}

fn print_groups(w: &dyn Workload, t: &Tally) {
    println!(
        "per request kind (copies per block of {}):",
        w.mix().block_len()
    );
    for ((spec, copies), lat) in w.mix().specs.iter().zip(&t.groups) {
        let mut lat = lat.clone();
        lat.sort_unstable();
        println!(
            "  {:<22} x{:<4} {:>8} samples  p50 {:>12.3} us  max {:>12.3} us",
            spec.label(),
            copies,
            lat.len(),
            quantile(&lat, 0.5) as f64 / 1e3,
            lat.last().copied().unwrap_or(0) as f64 / 1e3
        );
    }
}

fn run(args: &Args) -> Result<(), String> {
    let dir = run_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    if args.setup_only {
        let mut w = make(args);
        let mut tracer = Tracer::new(args.trace);
        let mut tally = Tally::default();
        let ns = setup(w.as_mut(), args.seed, &mut tracer, &mut tally);
        for note in &tally.notes {
            eprintln!("set-up request failed: {note}");
        }
        println!("SETUP {ns} {} {}", tally.attempted, tally.failed);
        return Ok(());
    }

    let (l2, llc) = header::cache_sizes();
    println!(
        "# perfbench --workload {} --seed {} --seconds {} --trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("git rev:        {}", header::git_rev());
    println!("rustc:          {}", header::rustc_version());
    println!(
        "build:          release profile of the repository root (debug_assertions={})",
        cfg!(debug_assertions)
    );
    println!("host:           {}", wht_search::host_fingerprint());
    println!(
        "parallelism:    {} (available_parallelism)",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("caches:         L2 {l2}, LLC {llc}");
    println!("global pool:    {} workers", wht_core::env::threads());
    println!("environment:    no WHT_* variable set; process-default ExecPolicy");
    let cpus = Cpus::allowed();
    println!(
        "client:         closed loop, 1 thread, taking turns block by block on {} allowed CPU(s)",
        cpus.count()
    );

    // Set-up, each time in a fresh process.
    let mut totals = Tally::default();
    let (mut plain_setups, mut traced_setups) = (Vec::new(), Vec::new());
    let children = if args.trace {
        vec![false, false, true, true]
    } else {
        vec![false; SETUPS - 1]
    };
    for traced in children {
        let (s, attempted, failed) = fresh_setup(args, traced)?;
        totals.attempted += attempted;
        totals.failed += failed;
        if traced {
            &mut traced_setups
        } else {
            &mut plain_setups
        }
        .push(s);
    }

    let mut w = make(args);
    // Sample storage is reserved before the baseline, so that only the
    // samples written later add resident pages.
    let mut setup_tally = tally_for(w.as_ref(), 1);
    let mut tally = tally_for(w.as_ref(), RESERVED_BLOCKS);
    let mut traced_tally = tally_for(w.as_ref(), usize::from(args.trace) * RESERVED_BLOCKS);
    let rss_now = || rss_kib().ok_or("cannot read Rss from /proc/self/smaps_rollup");
    let base_kib = rss_now()?;
    let mut tracer = Tracer::new(args.trace);
    let ns = setup(w.as_mut(), args.seed, &mut tracer, &mut setup_tally);
    if args.trace {
        &mut traced_setups
    } else {
        &mut plain_setups
    }
    .push(ns as f64 / 1e9);
    totals.absorb_counts(&setup_tally);
    let setup_peak = rss_now()?;

    println!("seed:           {}", args.seed);
    println!(
        "mix digest:     {:016x} ({} kinds, {} requests per block)",
        w.mix().digest(args.seed),
        w.mix().specs.len(),
        w.mix().block_len()
    );

    // A traced run serves twice (untraced, then traced) for half the time
    // each, so that it measures for `--seconds` in all.
    let pass_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    tracer.on = false;
    let served = serve_for(
        w.as_mut(),
        args.seed,
        pass_s,
        1,
        &cpus,
        &mut tracer,
        &mut tally,
    );
    let rss = Rss::new(served.peak_kib.max(setup_peak), base_kib, &[]);
    let plain = E2e::new(&tally, &plain_setups, rss);
    totals.absorb_counts(&tally);
    println!(
        "stream digest:  {:016x} ({} requests, {} blocks)",
        served.digest, served.requests, served.blocks
    );
    print_groups(w.as_ref(), &tally);
    plain.print("end-to-end (untraced):", &tally);

    let metrics = if args.trace {
        tracer.on = true;
        let first = served.requests + 1;
        let again = serve_for(
            w.as_mut(),
            args.seed,
            pass_s,
            first,
            &cpus,
            &mut tracer,
            &mut traced_tally,
        );
        let rss = Rss::new(again.peak_kib, base_kib, &[&tally]);
        let traced = E2e::new(&traced_tally, &traced_setups, rss);
        totals.absorb_counts(&traced_tally);
        println!(
            "traced stream:  {:016x} ({} requests, {} blocks)",
            again.digest, again.requests, again.blocks
        );
        traced.print("end-to-end (traced):", &traced_tally);
        println!("tracing overhead (traced - untraced):");
        for (a, b) in plain.metrics().iter().zip(traced.metrics()) {
            let d = b.value - a.value;
            println!(
                "  {:<16} {:>+14.6} {:<8} ({:+.2}%)",
                a.name,
                d,
                a.unit,
                100.0 * d / a.value
            );
        }
        // Every global-pool job so far came from a par_apply_plan request.
        let pool = WorkerPool::global().stats();
        let par: u64 = [&setup_tally, &tally, &traced_tally]
            .iter()
            .map(|t| par_requests(w.as_ref(), t))
            .sum();
        let per_call = |count: u64| {
            if par == 0 {
                0.0
            } else {
                count as f64 / par as f64
            }
        };
        println!(
            "pool traffic:   {} jobs and {} steals over {par} par_apply_plan requests",
            pool.jobs, pool.steals
        );
        print_schedules(w.as_mut());
        drop(w);
        let layers = probes::run(
            args.seed,
            &mut tracer,
            &mut totals,
            (per_call(pool.jobs), per_call(pool.steals)),
        );
        let spans = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        tracer
            .write(&spans)
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
        println!(
            "spans:          {} written to {}",
            tracer.len(),
            spans.display()
        );
        println!("time by call (count, total ms, self ms):");
        for (name, (count, total, own)) in tracer.summary() {
            println!(
                "  {name:<40} {count:>9} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        println!(
            "per-layer metrics (value, unit, better; layer -> end-to-end metric it should move):"
        );
        for m in &layers {
            let (better, layer, moves) = probes::describe(&m.name);
            println!(
                "  {:<36} {:>16.6} {:<7} {:<6}  {layer} -> {moves}",
                m.name, m.value, m.unit, better
            );
        }
        layers
    } else {
        print_schedules(w.as_mut());
        plain.metrics()
    };
    for note in &totals.notes {
        println!("FAILED: {note}");
    }
    self_test()?;
    println!("self-test:      reference = definition; 1 corrupted element -> 1 failure; 1 injected Err -> 1 failure");
    println!("{}", result_line(&totals, &metrics));
    Ok(())
}

/// A tally with room for `blocks` blocks of `w`'s mix.
fn tally_for(w: &dyn Workload, blocks: usize) -> Tally {
    Tally::with_capacity(
        w.mix().specs.iter().map(|&(_, copies)| copies * blocks),
        blocks,
    )
}

/// `par_apply_plan` requests booked in `t`.
fn par_requests(w: &dyn Workload, t: &Tally) -> u64 {
    w.mix()
        .specs
        .iter()
        .zip(&t.groups)
        .filter(|((spec, _), _)| spec.kind == Kind::Par)
        .map(|(_, g)| g.len() as u64)
        .sum()
}

fn print_schedules(w: &mut dyn Workload) {
    println!("served schedules (stages engaged):");
    for (name, c) in w.schedules() {
        println!("  {name:<44} {}", header::stage_flags(&c));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = pin_environment(&args) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn harness_counts_each_fault_once() {
        assert_eq!(super::self_test(), Ok(()));
    }
}
