//! In-memory spans, written as JSONL when the run ends, and the
//! per-layer table computed from them.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public functions; nothing inside the daemon or the libraries
//! is instrumented.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request the call served, when there is one.
    pub req: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: Option<u64>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(name, parent, req);
        let out = std::hint::black_box(f());
        self.close(idx);
        out
    }

    /// Records a span measured elsewhere (the wire phase's requests).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, req: u64) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            req: Some(req),
        });
    }

    /// Median duration of the spans named `name`, in microseconds.
    pub fn p50_us(&self, name: &str) -> Option<f64> {
        let mut d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        d.sort_by(f64::total_cmp);
        (!d.is_empty()).then(|| crate::stats::percentile(&d, 0.5))
    }

    /// Per-name count, total time, self time and median, in name order.
    pub fn table(&self) -> Vec<LayerRow> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut by_name: BTreeMap<&str, (Vec<f64>, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_default();
            e.0.push(s.dur_ns() as f64 / 1e3);
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(child_ns[i]);
        }
        by_name
            .into_iter()
            .map(|(name, (mut d, total, self_ns))| {
                d.sort_by(f64::total_cmp);
                LayerRow {
                    name: name.to_string(),
                    count: d.len(),
                    total_ms: total as f64 / 1e6,
                    self_ms: self_ns as f64 / 1e6,
                    p50_us: crate::stats::percentile(&d, 0.5),
                }
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.req)
            )?;
        }
        out.flush()
    }
}

pub struct LayerRow {
    pub name: String,
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
    pub p50_us: f64,
}
