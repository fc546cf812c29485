//! The benchmark's own span recorder, used only in traced runs.
//!
//! A span is recorded around every public call the benchmark makes into
//! a layer: name, start, end, parent span and trace id (one trace per
//! operation). Spans stay in memory and are written once, at the end of
//! the run, to `trace.json` together with per-name self times. Untraced
//! rounds pass no tracer, so they pay nothing.

use healthmon_nn::{InferenceBackend, Network, NonFiniteActivation};
use healthmon_serdes::Json;
use healthmon_tensor::Tensor;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span. `id` is 1-based; `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: usize,
    pub parent: usize,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    trace: u64,
}

/// Records nested spans from the benchmark's single driving thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
#[must_use = "a span covers the scope its guard lives in"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        let mut inner = self.tracer.inner.borrow_mut();
        if let Some(index) = inner.open.pop() {
            inner.spans[index].end_ns = end_ns;
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span. A span opened with no
    /// span open starts a new trace.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().map_or(0, |&i| inner.spans[i].id);
        if parent == 0 {
            inner.trace += 1;
        }
        let id = inner.spans.len() + 1;
        let trace = inner.trace;
        inner.spans.push(SpanRecord {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns: start_ns,
        });
        inner.open.push(id - 1);
        SpanGuard { tracer: self }
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.borrow().spans.clone()
    }
}

/// Opens a span when tracing, and does nothing otherwise.
pub fn span<'a>(tracer: Option<&'a Tracer>, name: &'static str) -> Option<SpanGuard<'a>> {
    tracer.map(|t| t.span(name))
}

/// Per-name totals: calls, summed duration and summed self time (duration
/// minus the part covered by direct children), in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStats {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl NameStats {
    pub fn mean_s(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_s / self.calls as f64
        }
    }

    pub fn mean_self_s(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_s / self.calls as f64
        }
    }
}

pub fn stats_by_name(spans: &[SpanRecord]) -> BTreeMap<&'static str, NameStats> {
    let mut child_s = vec![0.0f64; spans.len() + 1];
    for s in spans {
        child_s[s.parent] += s.duration_s();
    }
    let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let entry = by_name.entry(s.name).or_default();
        entry.calls += 1;
        entry.total_s += s.duration_s();
        entry.self_s += s.duration_s() - child_s[s.id];
    }
    by_name
}

/// The `trace.json` document: every span, then per-name self times.
pub fn trace_json(spans: &[SpanRecord], extra: Vec<(String, Json)>) -> Json {
    let list = spans
        .iter()
        .map(|s| {
            Json::Object(vec![
                ("id".into(), Json::Number(s.id as f64)),
                ("parent".into(), Json::Number(s.parent as f64)),
                ("trace".into(), Json::Number(s.trace as f64)),
                ("name".into(), Json::String(s.name.into())),
                ("start_us".into(), Json::Number(s.start_ns as f64 / 1e3)),
                ("end_us".into(), Json::Number(s.end_ns as f64 / 1e3)),
            ])
        })
        .collect();
    let layers = stats_by_name(spans)
        .into_iter()
        .map(|(name, st)| {
            (
                name.to_owned(),
                Json::Object(vec![
                    ("calls".into(), Json::Number(st.calls as f64)),
                    ("total_ms".into(), Json::Number(st.total_s * 1e3)),
                    ("self_ms".into(), Json::Number(st.self_s * 1e3)),
                ]),
            )
        })
        .collect();
    let mut fields = vec![
        ("spans".into(), Json::Array(list)),
        ("self_times".into(), Json::Object(layers)),
    ];
    fields.extend(extra);
    Json::Object(fields)
}

/// An inference backend that records a `reram.infer` span around every
/// forward pass of the device it wraps.
pub struct TracedBackend<'a, B: InferenceBackend> {
    pub inner: &'a B,
    pub tracer: &'a Tracer,
}

impl<B: InferenceBackend> InferenceBackend for TracedBackend<'_, B> {
    fn infer(&self, input: &Tensor) -> Tensor {
        let _span = self.tracer.span("reram.infer");
        self.inner.infer(input)
    }

    fn infer_checked(&self, input: &Tensor) -> Result<Tensor, NonFiniteActivation> {
        let _span = self.tracer.span("reram.infer");
        self.inner.infer_checked(input)
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn readback(&self) -> Network {
        self.inner.readback()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_into_traces_with_self_time() {
        let tracer = Tracer::new();
        for _ in 0..2 {
            let _op = tracer.span("op");
            let _child = tracer.span("child");
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[0].parent, spans[0].trace), (0, 1));
        assert_eq!((spans[1].parent, spans[1].trace), (1, 1));
        assert_eq!((spans[2].parent, spans[2].trace), (0, 2));
        assert_eq!(spans[3].parent, 3);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let stats = stats_by_name(&spans);
        let (op, child) = (stats["op"], stats["child"]);
        assert_eq!((op.calls, child.calls), (2, 2));
        assert!((op.self_s - (op.total_s - child.total_s)).abs() < 1e-12);
        assert!((child.self_s - child.total_s).abs() < 1e-12);
    }
}
