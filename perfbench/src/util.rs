//! Shared pieces: the seeded generator, the element types served, the
//! benchmark's own radix-2 reference, request accounting, statistics, and
//! the `/proc` readers.

use std::path::{Path, PathBuf};
use std::time::Instant;

use wht_core::{Scalar, WhtError};

/// splitmix64: every input and every request choice derives from the
/// `--seed` argument through one of these.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent `stream` of the run's `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD605_0BB5_8C61_F6E5));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n >= 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// FNV-1a over 64-bit words, for request-stream digests.
pub fn fnv_words(h: &mut u64, words: &[u64]) {
    for w in words {
        for b in w.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// An element type the workloads serve, compared bit for bit.
pub trait Elem: Scalar {
    fn bits(self) -> u64;
}

impl Elem for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Elem for f32 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

/// Seeded inputs drawn from {-8..-1, 1..8}. Every partial sum of a
/// transform is then an exact integer (for f32 while `n <= 12`, for f64
/// up to `n = 24`), so any correct plan reproduces the reference bit for
/// bit; and since no input is zero, no signed zero can arise.
pub fn small_ints<T: Scalar>(len: usize, rng: &mut Rng) -> Vec<T> {
    (0..len)
        .map(|_| {
            let v = rng.below(16) as i64 - 8;
            T::from_i64(if v >= 0 { v + 1 } else { v })
        })
        .collect()
}

/// The benchmark's own reference: the textbook in-place radix-2 loop, in
/// natural (Hadamard) order. The butterflies with span below 2^15 run
/// block by block so a large reference stays in cache; each stage still
/// sees exactly the values the unblocked loop would.
pub fn reference_wht<T: Scalar>(x: &mut [T]) {
    let block = x.len().min(1 << 15);
    for chunk in x.chunks_mut(block) {
        radix2_stages(chunk, 1);
    }
    radix2_stages(x, block);
}

/// Radix-2 stages of span `h`, `2h`, ... up to half of `x`.
fn radix2_stages<T: Scalar>(x: &mut [T], mut h: usize) {
    let n = x.len();
    while h < n {
        for base in (0..n).step_by(2 * h) {
            for j in base..base + h {
                let (a, b) = (x[j], x[j + h]);
                x[j] = a + b;
                x[j + h] = a - b;
            }
        }
        h *= 2;
    }
}

/// Reference transform of every `size`-element row of `rows`.
pub fn reference_rows<T: Scalar>(rows: &[T], size: usize) -> Vec<T> {
    let mut out = rows.to_vec();
    for row in out.chunks_mut(size) {
        reference_wht(row);
    }
    out
}

/// Reference SRHT sketch of every row into `out`: signs, transform, then
/// the sample.
pub fn reference_sketch<T: Scalar>(
    rows: &[T],
    size: usize,
    signs: &[i8],
    indices: &[usize],
    out: &mut [T],
) {
    let mut row = vec![T::ZERO; size];
    for (src, dst) in rows.chunks(size).zip(out.chunks_mut(indices.len())) {
        for ((d, &s), &sign) in row.iter_mut().zip(src).zip(signs) {
            *d = if sign < 0 { T::ZERO - s } else { s };
        }
        reference_wht(&mut row);
        for (d, &i) in dst.iter_mut().zip(indices) {
            *d = row[i];
        }
    }
}

pub fn same_bits<T: Elem>(a: &[T], b: &[T]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bits() == y.bits())
}

/// A request's verdict: `Err` when the call failed, else whether its
/// output equals the expected one bit for bit.
pub fn verdict<T: Elem>(res: Result<(), WhtError>, out: &[T], want: &[T]) -> Result<bool, String> {
    res.map_err(|e| e.to_string())
        .map(|()| same_bits(out, want))
}

/// Request accounting for one phase of a run. Latency samples are kept
/// per request group (one group per entry of the workload's mix).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub elems: u64,
    pub busy_ns: u64,
    pub groups: Vec<Vec<u64>>,
    /// `[elements, ns inside calls]` of each block served.
    pub blocks: Vec<[u64; 2]>,
    pub notes: Vec<String>,
}

impl Tally {
    /// One latency group per mix entry, each with room for `caps[i]`
    /// samples, and room for `blocks` block records.
    pub fn with_capacity(caps: impl IntoIterator<Item = usize>, blocks: usize) -> Tally {
        Tally {
            groups: caps.into_iter().map(Vec::with_capacity).collect(),
            blocks: Vec::with_capacity(blocks),
            ..Tally::default()
        }
    }

    /// Elements per second inside calls, in millions, of each block.
    pub fn block_melem_per_s(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .map(|&[elems, ns]| elems as f64 / ns.max(1) as f64 * 1e3)
            .collect()
    }

    /// Book one request: it fails if its call returned an error or its
    /// output differs from the expected output.
    pub fn settle(
        &mut self,
        group: usize,
        what: &str,
        ns: u64,
        elems: u64,
        v: Result<bool, String>,
    ) {
        self.attempted += 1;
        self.elems += elems;
        self.busy_ns += ns;
        if let Some(g) = self.groups.get_mut(group) {
            g.push(ns);
        }
        let why = match v {
            Ok(true) => return,
            Ok(false) => "output differs from the reference".to_string(),
            Err(e) => e,
        };
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(format!("{what}: {why}"));
        }
    }

    pub fn absorb_counts(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes.iter().take(8).cloned());
    }

    /// Resident memory the latency samples and block records added, in
    /// KiB. Each is one reserved allocation whose first page (it holds the
    /// allocator's header) was resident already; records fill the pages
    /// after it.
    pub fn sample_kib(&self) -> u64 {
        let kib = |bytes: usize| bytes.div_ceil(4096).saturating_sub(1) as u64 * 4;
        self.groups
            .iter()
            .map(|g| kib(std::mem::size_of_val(g.as_slice())))
            .sum::<u64>()
            + kib(std::mem::size_of_val(self.blocks.as_slice()))
    }

    pub fn latencies(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.groups.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }
}

/// Nearest-rank quantile of sorted samples.
pub fn quantile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len()) as f64;
    let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (a, b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    sxy / (sxx * syy).sqrt()
}

pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn proc_kib(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Resident set of this process now, in KiB, counted page by page from
/// `/proc/self/smaps_rollup`. `VmRSS` and `VmHWM` come from per-CPU
/// counters that can be off by a few hundred KiB, which is as much as the
/// library itself holds.
pub fn rss_kib() -> Option<u64> {
    proc_kib("/proc/self/smaps_rollup", "Rss:")
}

pub fn mem_available_kib() -> Option<u64> {
    proc_kib("/proc/meminfo", "MemAvailable:")
}

/// Scratch directory for the store probe and span files: inside the
/// build's target directory, so a run writes nothing outside its checkout.
pub fn run_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    // <target>/release/perfbench -> <target>/perfbench-run
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("the executable lives under <target>/<profile>/");
    target.join("perfbench-run")
}

/// Remove every `*.shard` file directly under `dir`.
pub fn clear_shards(dir: &Path) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.extension().is_some_and(|x| x == "shard") {
                let _ = std::fs::remove_file(p);
            }
        }
    }
}

/// A JSON number: full shortest round-trip digits, never NaN or infinite.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}
