//! Spans recorded by the benchmark around each timed call into a
//! layer. Kept in memory and written as JSONL when the run ends; a
//! tracer that is off only times.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use simcore::Json;

struct Span {
    id: u64,
    parent: u64,
    layer: &'static str,
    name: &'static str,
    cell: String,
    start_ns: u64,
    end_ns: u64,
}

/// Times calls and, when on, records one span per call.
pub struct Tracer {
    workload: &'static str,
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(workload: &'static str, on: bool) -> Tracer {
        Tracer {
            workload,
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` and returns its result with its duration in seconds.
    /// `f` receives the span's id (0 when off) so that it can nest
    /// children under it; `parent` 0 means a root span.
    pub fn timed<T>(
        &self,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        cell: &str,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        let id = if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.on {
            self.push(id, parent, layer, name, cell, start, end);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Records a span whose interval was measured elsewhere, such as a
    /// study cell reported by the executor's progress callback.
    pub fn record(
        &self,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        cell: &str,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            self.push(id, parent, layer, name, cell, start, end);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        id: u64,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        cell: &str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            layer,
            name,
            cell: cell.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking worker")
            .push(span);
    }

    pub fn span_count(&self) -> usize {
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking worker")
            .len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("span lock poisoned by a panicking worker");
        let mut text = String::new();
        for s in spans.iter() {
            let line = Json::obj()
                .with("id", s.id)
                .with("parent", s.parent)
                .with("workload", self.workload)
                .with("layer", s.layer)
                .with("name", s.name)
                .with("cell", s.cell.as_str())
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns);
            text.push_str(&line.to_string());
            text.push('\n');
        }
        cluster_study::write_atomic(path, text.as_bytes())
    }
}
