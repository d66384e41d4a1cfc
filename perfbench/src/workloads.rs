//! The two workloads. Each is a closed loop: one client thread sends its
//! next request only when the previous one has returned, as a caller
//! blocked on the library does. Requests come in blocks that hold every
//! request kind of the mix an exact number of times, shuffled by the
//! seed; a run serves whole blocks, so every run serves the same mix and
//! the latency quantiles fall at the same place in it.

use std::collections::BTreeMap;
use std::time::Instant;

use wht_core::{apply_plan, compiled_for, CompiledPlan, Plan, Srht};
use wht_parallel::{par_apply_plan, Threads};
use wht_search::{FusedTrafficCost, Planner};

use crate::cpus::Cpus;
use crate::trace::{Tracer, SETUP};
use crate::util::{
    fnv_words, reference_rows, reference_sketch, rss_kib, small_ints, verdict, Elem, Rng, Tally,
    FNV_OFFSET,
};

pub type Pl = Planner<FusedTrafficCost>;

/// Every planner the benchmark builds: the backend that scores the
/// schedule the executor replays, under the process-default `ExecPolicy`.
pub fn new_planner() -> Pl {
    Planner::new(FusedTrafficCost::default())
}

/// Each workload serves at least this many requests per run, so at least
/// ten latency samples lie beyond p99.
pub const MIN_REQUESTS: u64 = 1000;
/// A run stops serving after this long even if it has not reached
/// `MIN_REQUESTS`, so it always ends in time.
const HARD_LIMIT_S: f64 = 100.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Transform,
    ApplyPlan,
    Batch(usize),
    Sketch,
    Par,
}

impl Kind {
    fn name(self) -> String {
        match self {
            Kind::Transform => "transform".into(),
            Kind::ApplyPlan => "apply_plan".into(),
            Kind::Batch(rows) => format!("batch{rows}"),
            Kind::Sketch => "sketch".into(),
            Kind::Par => "par2".into(),
        }
    }

    fn code(self) -> u64 {
        match self {
            Kind::Transform => 1,
            Kind::ApplyPlan => 2,
            Kind::Batch(rows) => 3 | (rows as u64) << 8,
            Kind::Sketch => 4,
            Kind::Par => 5,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sc {
    F64,
    F32,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub n: u32,
    pub sc: Sc,
}

impl Spec {
    pub fn label(&self) -> String {
        let sc = match self.sc {
            Sc::F64 => "f64",
            Sc::F32 => "f32",
        };
        format!("{} n{} {sc}", self.kind.name(), self.n)
    }

    fn code(&self) -> u64 {
        self.kind.code() << 16 | u64::from(self.n) << 1 | u64::from(self.sc == Sc::F32)
    }
}

/// A workload's traffic: `(spec, copies per block)`.
pub struct Mix {
    pub specs: Vec<(Spec, usize)>,
}

impl Mix {
    /// Block `b` of the stream, and the generator its requests draw
    /// their inputs from.
    fn block(&self, seed: u64, b: u64) -> (Vec<usize>, Rng) {
        let mut order: Vec<usize> = self
            .specs
            .iter()
            .enumerate()
            .flat_map(|(i, &(_, copies))| std::iter::repeat_n(i, copies))
            .collect();
        let mut rng = Rng::new(seed, 1_000_000 + b);
        rng.shuffle(&mut order);
        (order, rng)
    }

    pub fn block_len(&self) -> usize {
        self.specs.iter().map(|&(_, c)| c).sum()
    }

    /// Digest of the mix and the seed: equal digests mean equal streams.
    pub fn digest(&self, seed: u64) -> u64 {
        let mut h = FNV_OFFSET;
        fnv_words(&mut h, &[seed]);
        for (s, c) in &self.specs {
            fnv_words(&mut h, &[s.code(), *c as u64]);
        }
        h
    }
}

pub trait Workload {
    fn mix(&self) -> &Mix;

    /// The library calls that build the serving state (planners, plans,
    /// sketches); returns the ns spent inside them.
    fn prepare(&mut self, tracer: &mut Tracer) -> u64;

    /// Serve one request of mix entry `i` and book it into `tally`.
    fn serve(&mut self, i: usize, req: u64, rng: &mut Rng, tracer: &mut Tracer, tally: &mut Tally);

    /// Every schedule the workload served, by entry point and size.
    fn schedules(&mut self) -> Vec<(String, CompiledPlan)>;
}

/// Set-up: from the first library call until every mix entry (request
/// kind, n, scalar) has served once. Only time inside library calls
/// counts; input generation and reference checks are excluded.
pub fn setup(w: &mut dyn Workload, seed: u64, tracer: &mut Tracer, tally: &mut Tally) -> u64 {
    let mut ns = w.prepare(tracer);
    let before = tally.busy_ns;
    let mut rng = Rng::new(seed, 999);
    for i in 0..w.mix().specs.len() {
        w.serve(i, SETUP, &mut rng, tracer, tally);
    }
    ns += tally.busy_ns - before;
    ns
}

pub struct Served {
    pub requests: u64,
    pub blocks: u64,
    pub digest: u64,
    /// Largest resident set seen between blocks, less the pages of this
    /// pass's own latency samples, in KiB.
    pub peak_kib: u64,
}

/// Serve whole blocks until `seconds` have passed and at least
/// `MIN_REQUESTS` requests were served, each block on the next of `cpus`.
pub fn serve_for(
    w: &mut dyn Workload,
    seed: u64,
    seconds: f64,
    first_req: u64,
    cpus: &Cpus,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Served {
    let codes: Vec<u64> = w.mix().specs.iter().map(|(s, _)| s.code()).collect();
    let t0 = Instant::now();
    let mut digest = FNV_OFFSET;
    fnv_words(&mut digest, &[seed]);
    let mut req = first_req;
    let mut blocks = 0u64;
    let mut peak_kib = 0;
    loop {
        cpus.take_turn(blocks);
        let (order, mut rng) = w.mix().block(seed, blocks);
        let (elems, busy_ns) = (tally.elems, tally.busy_ns);
        for i in order {
            fnv_words(&mut digest, &[codes[i]]);
            w.serve(i, req, &mut rng, tracer, tally);
            req += 1;
        }
        tally
            .blocks
            .push([tally.elems - elems, tally.busy_ns - busy_ns]);
        blocks += 1;
        let rss = rss_kib().unwrap_or(0);
        peak_kib = peak_kib.max(rss.saturating_sub(tally.sample_kib()));
        let elapsed = t0.elapsed().as_secs_f64();
        if (elapsed >= seconds && req - first_req >= MIN_REQUESTS) || elapsed >= HARD_LIMIT_S {
            break;
        }
    }
    cpus.release();
    Served {
        requests: req - first_req,
        blocks,
        digest,
        peak_kib,
    }
}

/// Expand `(size weight) × (scalar weight) × (kind weight)` into mix
/// entries with those exact products as copies per block.
fn product_mix(
    sizes: &[(u32, usize)],
    scalars: &[(Sc, usize)],
    kinds: &[(Kind, usize)],
) -> Vec<(Spec, usize)> {
    let mut specs = Vec::new();
    for &(n, wn) in sizes {
        for &(sc, ws) in scalars {
            for &(kind, wk) in kinds {
                specs.push((Spec { kind, n, sc }, wn * ws * wk));
            }
        }
    }
    specs
}

fn planner_schedule(p: &mut Pl, n: u32) -> CompiledPlan {
    let plan = p.plan(n).expect("a warm planner serves its sizes").clone();
    CompiledPlan::compile_exec(&plan, &p.resolved_exec(n))
}

// ---------------------------------------------------------------- serve_small

const SMALL_SIZES: [u32; 4] = [6, 8, 10, 12];
/// Rows per input pool; batch and sketch requests take a seeded window.
const POOL_ROWS: usize = 320;
const SKETCH_ROWS: usize = 64;
/// A sketch keeps one element in this many.
const SKETCH_RATIO: usize = 8;

struct Rows<T> {
    size: usize,
    input: Vec<T>,
    expected: Vec<T>,
    sketched: Vec<T>,
}

impl<T: Elem> Rows<T> {
    fn new(n: u32, rng: &mut Rng) -> Rows<T> {
        let size = 1usize << n;
        let input = small_ints(POOL_ROWS * size, rng);
        let expected = reference_rows(&input, size);
        Rows {
            size,
            input,
            expected,
            sketched: vec![T::ONE; POOL_ROWS * size / SKETCH_RATIO],
        }
    }
}

struct Bufs<T> {
    work: Vec<T>,
    out: Vec<T>,
    scratch: Vec<T>,
}

impl<T: Elem> Bufs<T> {
    /// Filled rather than zeroed, so that the pages are resident before
    /// the first library call and `peak_rss_mib` leaves them out.
    fn new() -> Bufs<T> {
        Bufs {
            work: vec![T::ONE; 256 << 12],
            out: vec![T::ONE; SKETCH_ROWS << 12],
            scratch: Vec::new(),
        }
    }
}

/// The serving state one serve_small request may call into.
struct Entries<'a> {
    planner: &'a mut Pl,
    canon: &'a Plan,
    sketch: &'a (Srht, CompiledPlan),
}

pub struct ServeSmall {
    mix: Mix,
    seed: u64,
    f64s: BTreeMap<u32, Rows<f64>>,
    f32s: BTreeMap<u32, Rows<f32>>,
    b64: Bufs<f64>,
    b32: Bufs<f32>,
    planner: Option<Pl>,
    canon: BTreeMap<u32, Plan>,
    sketch: BTreeMap<u32, (Srht, CompiledPlan)>,
}

impl ServeSmall {
    /// Weighted toward small sizes and single vectors, mostly f64; batch
    /// requests sit below (4 rows) and above (64, 256 rows) the batch
    /// stage's 16-row threshold. Single vectors and batches/sketches have
    /// their own size weights, so that p50 falls in the middle of one
    /// group and p99 inside another. Per block of 1080: the n6 single
    /// vectors (420) are the fastest, the n8 f64 single vectors (240)
    /// come next, and the other 420 requests are slower, so p50 is the
    /// median of the n8 f64 single vectors; the n12 batches of 256 (5) and
    /// sketches (10) are the slowest, so p99 falls inside the sketches.
    /// Either quantile then moves only with its own group. A quantile on a
    /// gap between groups moves with the tails of its neighbours: one size
    /// weight for every kind puts p50 between the n8 and n10 groups, where
    /// the 45th and 55th percentiles are 1.7x apart.
    pub fn new(seed: u64) -> ServeSmall {
        let scalars = [(Sc::F64, 4), (Sc::F32, 1)];
        let mut specs = product_mix(
            &[(6, 7), (8, 5), (10, 1), (12, 1)],
            &scalars,
            &[(Kind::Transform, 7), (Kind::ApplyPlan, 5)],
        );
        specs.extend(product_mix(
            &[(6, 3), (8, 1), (10, 1), (12, 1)],
            &scalars,
            &[
                (Kind::Batch(4), 3),
                (Kind::Batch(64), 2),
                (Kind::Batch(256), 1),
                (Kind::Sketch, 2),
            ],
        ));
        let mix = Mix { specs };
        let mut rng = Rng::new(seed, 1);
        let f64s = SMALL_SIZES
            .iter()
            .map(|&n| (n, Rows::new(n, &mut rng)))
            .collect();
        let f32s = SMALL_SIZES
            .iter()
            .map(|&n| (n, Rows::new(n, &mut rng)))
            .collect();
        ServeSmall {
            mix,
            seed,
            f64s,
            f32s,
            b64: Bufs::new(),
            b32: Bufs::new(),
            planner: None,
            canon: BTreeMap::new(),
            sketch: BTreeMap::new(),
        }
    }
}

fn serve_rows<T: Elem>(
    kind: Kind,
    rows: &Rows<T>,
    b: &mut Bufs<T>,
    s: Entries<'_>,
    req: u64,
    rng: &mut Rng,
    tracer: &mut Tracer,
) -> (u64, u64, Result<bool, String>) {
    let size = rows.size;
    match kind {
        Kind::Transform | Kind::ApplyPlan => {
            let r = rng.below(POOL_ROWS);
            let span = r * size..(r + 1) * size;
            let x = &mut b.work[..size];
            x.copy_from_slice(&rows.input[span.clone()]);
            let (res, ns) = if kind == Kind::Transform {
                tracer.call("Planner::transform", req, || s.planner.transform(x))
            } else {
                tracer.call("apply_plan", req, || apply_plan(s.canon, x))
            };
            (ns, size as u64, verdict(res, x, &rows.expected[span]))
        }
        Kind::Batch(k) => {
            let r = rng.below(POOL_ROWS - k + 1);
            let span = r * size..(r + k) * size;
            let x = &mut b.work[..k * size];
            x.copy_from_slice(&rows.input[span.clone()]);
            let (res, ns) = tracer.call("Planner::transform_batch", req, || {
                s.planner.transform_batch(x, k)
            });
            (ns, (k * size) as u64, verdict(res, x, &rows.expected[span]))
        }
        Kind::Sketch => {
            let (srht, compiled) = s.sketch;
            let m = srht.sample_len();
            let r = rng.below(POOL_ROWS - SKETCH_ROWS + 1);
            let x = &rows.input[r * size..(r + SKETCH_ROWS) * size];
            let out = &mut b.out[..SKETCH_ROWS * m];
            let scratch = &mut b.scratch;
            let (res, ns) = tracer.call("Srht::sketch_batch_with_scratch", req, || {
                srht.sketch_batch_with_scratch(compiled, x, SKETCH_ROWS, out, scratch)
            });
            let want = &rows.sketched[r * m..(r + SKETCH_ROWS) * m];
            (ns, x.len() as u64, verdict(res, out, want))
        }
        other => unreachable!("serve_small never sends {other:?}"),
    }
}

impl Workload for ServeSmall {
    fn mix(&self) -> &Mix {
        &self.mix
    }

    fn prepare(&mut self, tracer: &mut Tracer) -> u64 {
        let mut ns = 0;
        let (mut planner, t) = tracer.call("Planner::new", SETUP, new_planner);
        ns += t;
        for n in SMALL_SIZES {
            let (plan, t) = tracer.call("Plan::iterative", SETUP, || Plan::iterative(n));
            ns += t;
            self.canon
                .insert(n, plan.expect("a canonical plan exists for every n"));
            let size = 1usize << n;
            let (srht, t) = tracer.call("Srht::new", SETUP, || {
                Srht::new(n, size / SKETCH_RATIO, self.seed)
            });
            ns += t;
            let srht = srht.expect("m = 2^n / 8 is a valid sample size");
            let (plan, t) = tracer.call("Planner::plan", SETUP, || planner.plan(n).cloned());
            ns += t;
            let plan = plan.expect("the planner searches every small size");
            let (exec, t) =
                tracer.call("Planner::resolved_exec", SETUP, || planner.resolved_exec(n));
            ns += t;
            let (compiled, t) = tracer.call("CompiledPlan::compile_exec", SETUP, || {
                CompiledPlan::compile_exec(&plan, &exec)
            });
            ns += t;
            let (signs, idx) = (srht.signs(), srht.indices());
            let p64 = self.f64s.get_mut(&n).expect("pool per size");
            reference_sketch(&p64.input, size, signs, idx, &mut p64.sketched);
            let p32 = self.f32s.get_mut(&n).expect("pool per size");
            reference_sketch(&p32.input, size, signs, idx, &mut p32.sketched);
            self.sketch.insert(n, (srht, compiled));
        }
        self.planner = Some(planner);
        ns
    }

    fn serve(&mut self, i: usize, req: u64, rng: &mut Rng, tracer: &mut Tracer, tally: &mut Tally) {
        let spec = self.mix.specs[i].0;
        let s = Entries {
            planner: self.planner.as_mut().expect("prepared"),
            canon: &self.canon[&spec.n],
            sketch: &self.sketch[&spec.n],
        };
        let (ns, elems, v) = match spec.sc {
            Sc::F64 => serve_rows(
                spec.kind,
                &self.f64s[&spec.n],
                &mut self.b64,
                s,
                req,
                rng,
                tracer,
            ),
            Sc::F32 => serve_rows(
                spec.kind,
                &self.f32s[&spec.n],
                &mut self.b32,
                s,
                req,
                rng,
                tracer,
            ),
        };
        tally.settle(i, &spec.label(), ns, elems, v);
    }

    fn schedules(&mut self) -> Vec<(String, CompiledPlan)> {
        let planner = self.planner.as_mut().expect("prepared");
        let mut out = Vec::new();
        for n in SMALL_SIZES {
            out.push((
                format!("Planner::transform/transform_batch n{n}"),
                planner_schedule(planner, n),
            ));
            out.push((
                format!("apply_plan n{n}"),
                (*compiled_for(&self.canon[&n])).clone(),
            ));
            out.push((
                format!("Srht::sketch_batch_with_scratch n{n}"),
                self.sketch[&n].1.clone(),
            ));
        }
        out
    }
}

// -------------------------------------------------------------- large_replay

const LARGE_SIZES: [u32; 4] = [18, 20, 22, 24];

pub struct LargeReplay {
    mix: Mix,
    data: BTreeMap<u32, (Vec<f64>, Vec<f64>)>,
    work: Vec<f64>,
    planner: Option<Pl>,
    canon: BTreeMap<u32, Plan>,
}

impl LargeReplay {
    pub fn new(seed: u64) -> LargeReplay {
        // Copies per block of 200, 2.5% at n = 24. Each entry point
        // carries about a third of the time (on a 2-vCPU Xeon:
        // Planner::transform 32%, par_apply_plan 32%, apply_plan 36%, of
        // which n24 29%), so doubling any one of them moves melem_per_s by
        // about a quarter. apply n18 is the fastest group and 70% of the
        // requests, so p50 falls inside it; apply n24 is the slowest and
        // 2.5%, so p99 falls in its middle. Both are apply_plan groups:
        // on a shared host the planner's and the pool's replays drift by
        // up to a quarter between runs, and a quantile inside them would
        // too. n = 24 is served by apply_plan only: it is the path whose
        // schedule relayouts and streams there.
        let mut specs = Vec::new();
        for (n, t, a, p) in [
            (18, 8, 140, 8),
            (20, 10, 2, 12),
            (22, 7, 0, 8),
            (24, 0, 5, 0),
        ] {
            for (kind, copies) in [(Kind::Transform, t), (Kind::ApplyPlan, a), (Kind::Par, p)] {
                if copies > 0 {
                    specs.push((
                        Spec {
                            kind,
                            n,
                            sc: Sc::F64,
                        },
                        copies,
                    ));
                }
            }
        }
        let mut rng = Rng::new(seed, 2);
        let data = LARGE_SIZES
            .iter()
            .map(|&n| {
                let input: Vec<f64> = small_ints(1 << n, &mut rng);
                let expected = reference_rows(&input, 1 << n);
                (n, (input, expected))
            })
            .collect();
        LargeReplay {
            mix: Mix { specs },
            data,
            // Filled, so resident before the first library call.
            work: vec![1.0; 1 << 24],
            planner: None,
            canon: BTreeMap::new(),
        }
    }
}

impl Workload for LargeReplay {
    fn mix(&self) -> &Mix {
        &self.mix
    }

    fn prepare(&mut self, tracer: &mut Tracer) -> u64 {
        let (planner, mut ns) = tracer.call("Planner::new", SETUP, new_planner);
        for n in LARGE_SIZES {
            let (plan, t) = tracer.call("Plan::iterative", SETUP, || Plan::iterative(n));
            ns += t;
            self.canon
                .insert(n, plan.expect("a canonical plan exists for every n"));
        }
        self.planner = Some(planner);
        ns
    }

    fn serve(&mut self, i: usize, req: u64, rng: &mut Rng, tracer: &mut Tracer, tally: &mut Tally) {
        let spec = self.mix.specs[i].0;
        let size = 1usize << spec.n;
        let (input, expected) = &self.data[&spec.n];
        // A seeded slot of the work buffer: an n18 vector fills the 2 MiB
        // L2, so which physical pages it lands on sets its conflict misses.
        // Moving it between requests makes a run average over many
        // placements instead of reading the one its process happened to get.
        let at = rng.below(self.work.len() / size) * size;
        let x = &mut self.work[at..at + size];
        x.copy_from_slice(input);
        let canon = &self.canon[&spec.n];
        let planner = self.planner.as_mut().expect("prepared");
        let (res, ns) = match spec.kind {
            Kind::Transform => tracer.call("Planner::transform", req, || planner.transform(x)),
            Kind::ApplyPlan => tracer.call("apply_plan", req, || apply_plan(canon, x)),
            Kind::Par => tracer.call("par_apply_plan", req, || {
                par_apply_plan(canon, x, Threads(2))
            }),
            other => unreachable!("large_replay never sends {other:?}"),
        };
        tally.settle(i, &spec.label(), ns, size as u64, verdict(res, x, expected));
    }

    fn schedules(&mut self) -> Vec<(String, CompiledPlan)> {
        let planner = self.planner.as_mut().expect("prepared");
        self.mix
            .specs
            .iter()
            .map(|(spec, _)| {
                let schedule = match spec.kind {
                    Kind::Transform => planner_schedule(planner, spec.n),
                    _ => (*compiled_for(&self.canon[&spec.n])).clone(),
                };
                (spec.label(), schedule)
            })
            .collect()
    }
}
