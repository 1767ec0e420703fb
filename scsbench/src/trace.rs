//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Nothing here reaches inside the program: a span covers one
//! public call (or a group of them) made by the benchmark.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed interval. `parent` is 0 for a root span; spans of one
/// request share `req`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

/// Collects spans when on; every method is a cheap no-op when off, so
/// the untraced run pays only for the `Instant` reads it needs anyway.
pub struct Tracer {
    on: bool,
    /// The last id handed out.
    last_id: Mutex<u64>,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            last_id: Mutex::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id (0 when off).
    pub fn id(&self) -> u64 {
        if !self.on {
            return 0;
        }
        let mut last = self.last_id.lock().expect("span id lock");
        *last += 1;
        *last
    }

    /// Records a finished span under a pre-allocated `id`.
    pub fn record(&self, id: u64, parent: u64, req: u64, name: &'static str, start: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            id,
            parent,
            req,
            name,
            start,
            end: Instant::now(),
        };
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Runs `f` inside a leaf span and returns its result and duration.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        self.record(self.id(), parent, req, name, start);
        (out, took)
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock"))
    }
}

/// Self time of every span, microseconds, grouped by span name: the
/// span's duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut children: HashMap<u64, Vec<(Instant, Instant)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let mut covered = Duration::ZERO;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort();
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let own = (s.end - s.start).saturating_sub(covered);
        out.entry(s.name).or_default().push(own.as_secs_f64() * 1e6);
    }
    out
}

/// Writes the spans as JSON lines, times in microseconds from `t0`.
pub fn write_spans(spans: &[Span], t0: Instant, path: &Path) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let us = |t: Instant| t.saturating_duration_since(t0).as_secs_f64() * 1e6;
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
            s.id,
            s.parent,
            s.req,
            s.name,
            us(s.start),
            us(s.end)
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let root = t.id();
        let start = Instant::now();
        t.time("child", root, 1, || {
            std::thread::sleep(Duration::from_millis(20))
        });
        std::thread::sleep(Duration::from_millis(10));
        t.record(root, 0, 1, "root", start);
        let selfs = self_times(&t.take());
        let (root_us, child_us) = (selfs["root"][0], selfs["child"][0]);
        assert!(child_us >= 20_000.0, "{child_us}");
        assert!((10_000.0..20_000.0).contains(&root_us), "{root_us}");
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        t.time("x", 0, 0, || ());
        assert!(t.take().is_empty());
    }
}
