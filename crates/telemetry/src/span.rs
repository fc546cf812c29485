//! Nested timed scopes and the ring-buffer event recorder.
//!
//! A [`span`] is an RAII guard around a scope of work. Spans nest
//! through a thread-local stack: a span's *path* is the `/`-joined
//! chain of enclosing span names (`lifetime/epoch/checkup`), so the
//! merged statistics render as a tree — a poor-man's flamegraph.
//! Per-path stats accumulate calls, total wall time, *self* time (total
//! minus time attributed to child spans), and the maximum single call.
//!
//! Alongside spans, [`record_event`] appends discrete occurrences
//! (lifetime events, repair-ladder transitions) to a bounded ring
//! buffer, timestamped relative to the moment telemetry was enabled.
//!
//! All span data is wall-clock and therefore [`Volatile`]: it never
//! participates in thread-count-invariance comparisons.
//!
//! [`Volatile`]: crate::metrics::Stability::Volatile

use crate::enabled;
use crate::metrics::nanos_since;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Ring-buffer capacity: old events are overwritten once full.
const RING_CAPACITY: usize = 1024;

/// Merged statistics for one span path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// `/`-joined chain of span names, e.g. `lifetime/epoch/checkup`.
    pub path: String,
    /// Number of completed calls.
    pub calls: u64,
    /// Total wall time across calls, nanoseconds.
    pub total_ns: u64,
    /// Total time minus time spent in child spans, nanoseconds.
    pub self_ns: u64,
    /// Longest single call, nanoseconds.
    pub max_ns: u64,
}

/// One recorded discrete event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventSnapshot {
    /// Monotonic sequence number (never reused within a run).
    pub seq: u64,
    /// Nanoseconds since telemetry was enabled.
    pub t_ns: u64,
    /// Event stream name, e.g. `lifetime.event`.
    pub name: &'static str,
    /// Free-form detail line.
    pub detail: String,
}

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

#[derive(Default)]
struct SpanStats {
    by_path: HashMap<String, SpanSnapshot>,
}

struct Ring {
    events: Vec<EventSnapshot>,
    head: usize,
    next_seq: u64,
}

fn stats() -> &'static Mutex<SpanStats> {
    static STATS: OnceLock<Mutex<SpanStats>> = OnceLock::new();
    STATS.get_or_init(|| Mutex::new(SpanStats::default()))
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(Ring { events: Vec::new(), head: 0, next_seq: 0 }))
}

/// The process time origin for event timestamps; pinned when telemetry
/// is first enabled (see [`crate::set_enabled`]).
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// An RAII guard for a timed scope; created by [`span`]. Statistics are
/// recorded when the guard drops. Inert if telemetry was disabled at
/// creation time.
#[derive(Debug)]
#[must_use = "a span measures the scope it is alive in; bind it to a variable"]
pub struct Span {
    armed: bool,
}

/// Opens a nested timed scope named `name`. Near-zero cost (one relaxed
/// atomic load) while telemetry is disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { armed: false };
    }
    STACK.with(|s| {
        s.borrow_mut().push(Frame { name, start: Instant::now(), child_ns: 0 });
    });
    Span { armed: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let Some(frame) = stack.pop() else { return };
            let total_ns = nanos_since(frame.start);
            let self_ns = total_ns.saturating_sub(frame.child_ns);
            let mut path = String::new();
            for f in stack.iter() {
                path.push_str(f.name);
                path.push('/');
            }
            path.push_str(frame.name);
            if let Some(parent) = stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(total_ns);
            }
            drop(stack);
            let mut stats = stats().lock().unwrap();
            let entry = stats.by_path.entry(path.clone()).or_insert_with(|| SpanSnapshot {
                path,
                ..SpanSnapshot::default()
            });
            entry.calls += 1;
            entry.total_ns = entry.total_ns.saturating_add(total_ns);
            entry.self_ns = entry.self_ns.saturating_add(self_ns);
            entry.max_ns = entry.max_ns.max(total_ns);
        });
    }
}

/// Appends a discrete event to the ring buffer. No-op while telemetry
/// is disabled. `detail` is only rendered when enabled, so callers that
/// must format a string should pre-gate on [`crate::enabled`].
pub fn record_event(name: &'static str, detail: impl Into<String>) {
    if !enabled() {
        return;
    }
    let t_ns = nanos_since(epoch());
    let mut ring = ring().lock().unwrap();
    let seq = ring.next_seq;
    ring.next_seq += 1;
    let ev = EventSnapshot { seq, t_ns, name, detail: detail.into() };
    if ring.events.len() < RING_CAPACITY {
        ring.events.push(ev);
    } else {
        let head = ring.head;
        ring.events[head] = ev;
        ring.head = (head + 1) % RING_CAPACITY;
    }
}

/// Collects merged span statistics (sorted by path) and ring-buffer
/// events (oldest first). Used by [`crate::snapshot`].
pub(crate) fn collect() -> (Vec<SpanSnapshot>, Vec<EventSnapshot>) {
    let mut spans: Vec<SpanSnapshot> =
        stats().lock().unwrap().by_path.values().cloned().collect();
    spans.sort_by(|a, b| a.path.cmp(&b.path));
    let ring = ring().lock().unwrap();
    let mut events = Vec::with_capacity(ring.events.len());
    events.extend_from_slice(&ring.events[ring.head..]);
    events.extend_from_slice(&ring.events[..ring.head]);
    (spans, events)
}

/// Clears span statistics and the event ring buffer. The sequence
/// counter keeps running so events from different windows stay ordered.
pub(crate) fn reset_spans() {
    stats().lock().unwrap().by_path.clear();
    let mut ring = ring().lock().unwrap();
    ring.events.clear();
    ring.head = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testlock;

    #[test]
    fn nested_spans_build_paths_and_self_time() {
        let _g = testlock::exclusive();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let (spans, _) = collect();
        let paths: Vec<_> = spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["outer", "outer/inner"]);
        let outer = &spans[0];
        let inner = &spans[1];
        assert_eq!(outer.calls, 1);
        assert!(inner.total_ns > 0);
        assert!(outer.total_ns >= inner.total_ns);
        // Outer self time excludes the inner span's wall time.
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns);
        assert!(outer.max_ns == outer.total_ns);
    }

    #[test]
    fn sibling_spans_merge_by_path() {
        let _g = testlock::exclusive();
        for _ in 0..3 {
            let _s = span("repeat");
        }
        let (spans, _) = collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].calls, 3);
    }

    #[test]
    fn ring_buffer_overwrites_oldest() {
        let _g = testlock::exclusive();
        for i in 0..(RING_CAPACITY + 10) {
            record_event("test.event", format!("e{i}"));
        }
        let (_, events) = collect();
        assert_eq!(events.len(), RING_CAPACITY);
        assert_eq!(events.first().unwrap().detail, "e10");
        assert_eq!(events.last().unwrap().detail, format!("e{}", RING_CAPACITY + 9));
        // Sequence numbers are strictly increasing oldest -> newest.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn disabled_span_is_inert() {
        let _g = testlock::exclusive();
        crate::set_enabled(false);
        {
            let _s = span("never");
            record_event("never.event", "x");
        }
        crate::set_enabled(true);
        let (spans, events) = collect();
        assert!(spans.is_empty());
        assert!(events.is_empty());
    }
}
