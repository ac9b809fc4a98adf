//! In-memory span recorder for the traced run.
//!
//! A span covers one call the benchmark makes into a layer's public
//! function.  Spans are recorded only when tracing is on, kept in memory,
//! and written out as JSON lines when the run ends.  A layer's *self
//! time* is the summed duration of its spans minus the part of each
//! span's interval that its child spans cover (the union of the
//! children's intervals, so overlapping children on worker threads are
//! not counted twice).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer the called function belongs to (`sim`, `core.serve_suite`, …).
    pub layer: &'static str,
    /// The function called.
    pub name: &'static str,
    /// The shape or request kind it was called on.
    pub case: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job (request) id; 0 for spans outside any job.
    pub job: u64,
}

/// The recorder.  When off, every method is a no-op.
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span that encloses the spans recorded until [`Spans::close`].
    pub fn open(&mut self, layer: &'static str, name: &'static str, case: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            layer,
            name,
            case,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = self.ns(Instant::now());
        let i = self.open.pop().expect("close matches an open span");
        self.spans[i].end_ns = end;
    }

    /// Record a finished call timed by the caller, as a child of the
    /// innermost open span.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        case: &'static str,
        job: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            layer,
            name,
            case,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            job,
        });
    }

    /// Time `f` and record it as a span.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        case: &'static str,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(layer, name, case, job, start, Instant::now());
        out
    }

    /// Durations (ms) of the spans with this name and case.
    pub fn durations_ms(&self, name: &str, case: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.case == case)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time (ms) per layer.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children) {
            let own = s.end_ns - s.start_ns;
            let covered = covered_ns(s.start_ns, s.end_ns, kids);
            *out.entry(s.layer).or_insert(0.0) += own.saturating_sub(covered) as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"layer\": \"{}\", \"name\": \"{}\", \"case\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"job\": {}}}",
                s.layer, s.name, s.case, s.start_ns, s.end_ns, s.job
            )?;
        }
        w.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered_ns(0, 100, vec![(10, 30), (20, 40), (90, 150)]), 40);
        assert_eq!(covered_ns(0, 100, vec![]), 0);
        assert_eq!(covered_ns(50, 60, vec![(0, 100)]), 10);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        s.open("bench", "segment", "x");
        let a = s.t0 + std::time::Duration::from_millis(1);
        let b = a + std::time::Duration::from_millis(2);
        s.record("sim", "run", "x", 1, a, b);
        std::thread::sleep(std::time::Duration::from_millis(5));
        s.close();
        let st = s.self_ms();
        assert!((st["sim"] - 2.0).abs() < 1e-9);
        let seg = &s.spans[0];
        let seg_ms = (seg.end_ns - seg.start_ns) as f64 / 1e6;
        assert!((st["bench"] - (seg_ms - 2.0)).abs() < 1e-6);
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::new(false);
        s.open("bench", "segment", "x");
        s.time("sim", "run", "x", 1, || ());
        s.close();
        assert_eq!(s.len(), 0);
    }
}
