//! Benchmark-side spans: recorded around the calls the benchmark makes into
//! each layer, kept in memory, and written out once when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;

/// One recorded span. Times are microseconds since the log was created.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Unique within the log.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer or operation name (`rep`, `campaign`, `workloads.expand`, ...).
    pub name: String,
    /// The cell, app or request this span belongs to.
    pub key: String,
    /// Start, microseconds.
    pub start_us: f64,
    /// End, microseconds.
    pub end_us: f64,
    /// Work done, in the layer's natural unit (instructions, bytes, records).
    pub units: f64,
}

/// Self time, count and work of one span name, from [`SpanLog::layers`].
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct LayerTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed span time minus the time covered by child spans, ms.
    pub self_ms: f64,
    /// Summed natural units.
    pub units: f64,
}

/// An in-memory span recorder shared by the threads of one run.
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds since the log was created.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Microseconds between the log's origin and `at`.
    pub fn at_us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        parent: Option<u64>,
        name: &str,
        key: &str,
        start_us: f64,
        end_us: f64,
        units: f64,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("span log lock poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            key: key.to_string(),
            start_us,
            end_us,
            units,
        });
        id
    }

    /// Reserves an id for a span whose children are recorded before it
    /// ends; finish it with [`SpanLog::close`].
    pub fn open(&self, parent: Option<u64>, name: &str, key: &str) -> u64 {
        let now = self.now_us();
        self.record(parent, name, key, now, now, 0.0)
    }

    /// Ends a span reserved with [`SpanLog::open`].
    pub fn close(&self, id: u64, units: f64) {
        let now = self.now_us();
        let mut spans = self.spans.lock().expect("span log lock poisoned");
        if let Some(span) = spans.get_mut(id as usize - 1) {
            span.end_us = now;
            span.units = units;
        }
    }

    /// Runs `f` inside a span named `name` and returns its result; the span's
    /// units come from `units(&result)`.
    pub fn time<T>(
        &self,
        parent: Option<u64>,
        name: &str,
        key: &str,
        f: impl FnOnce() -> T,
        units: impl FnOnce(&T) -> f64,
    ) -> T {
        let start = self.now_us();
        let out = f();
        let end = self.now_us();
        self.record(parent, name, key, start, end, units(&out));
        out
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span log lock poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .collect()
    }

    /// Count, self time and units per span name. Self time is a span's
    /// duration minus the part its direct children cover.
    pub fn layers(&self) -> BTreeMap<String, LayerTotals> {
        let spans = self.spans.lock().expect("span log lock poisoned");
        let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                *child_us.entry(parent).or_default() += span.end_us - span.start_us;
            }
        }
        let mut out: BTreeMap<String, LayerTotals> = BTreeMap::new();
        for span in spans.iter() {
            let total = out.entry(span.name.clone()).or_default();
            let covered = child_us.get(&span.id).copied().unwrap_or(0.0);
            total.count += 1;
            total.self_ms += (span.end_us - span.start_us - covered).max(0.0) / 1e3;
            total.units += span.units;
        }
        out
    }

    /// Writes every span as one JSON array.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log lock poisoned");
        let json = serde_json::to_string(&*spans)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, json)
    }
}
