//! Spans around every public library call the benchmark makes, kept in
//! memory and written out when the run ends. The spans live in the
//! benchmark's own code; nothing inside the library is instrumented.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Request id of the spans recorded during set-up.
pub const SETUP: u64 = 0;
/// Request id of the spans recorded by the layer probes.
pub const PROBE: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    /// The request the call served (`SETUP`, `PROBE`, or 1-based request
    /// number).
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run one public library call and return its result with its wall
    /// time in ns; with tracing on, also record it as a span of `req`.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        if self.on {
            self.mark(name, req, t0, t1);
        }
        (r, u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX))
    }

    /// Record an interval timed by the caller (a request made of several
    /// calls).
    pub fn mark(&mut self, name: &'static str, req: u64, t0: Instant, t1: Instant) {
        let at = |t: Instant| u64::try_from((t - self.epoch).as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            req,
            name,
            start_ns: at(t0),
            end_ns: at(t1),
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: (count, total ns, self ns). Self time is a span's
    /// duration minus the part of it covered by other spans of the same
    /// request nested inside it.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut by_req: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in &self.spans {
            by_req.entry(s.req).or_default().push(s);
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for spans in by_req.values_mut() {
            // Outer spans first; a stack of open spans finds each span's
            // direct parent.
            spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
            let mut covered = vec![0u64; spans.len()];
            let mut open: Vec<usize> = Vec::new();
            for (i, s) in spans.iter().enumerate() {
                while open.last().is_some_and(|&p| spans[p].end_ns <= s.start_ns) {
                    open.pop();
                }
                if let Some(&p) = open.last() {
                    if s.end_ns <= spans[p].end_ns {
                        covered[p] += s.end_ns - s.start_ns;
                    }
                }
                open.push(i);
            }
            for (s, c) in spans.iter().zip(covered) {
                let dur = s.end_ns - s.start_ns;
                let e = out.entry(s.name).or_default();
                e.0 += 1;
                e.1 += dur;
                e.2 += dur.saturating_sub(c);
            }
        }
        out
    }

    /// Write every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "req\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(w, "{}\t{}\t{}\t{}", s.req, s.name, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}
