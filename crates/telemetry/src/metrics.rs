//! The metrics registry: counters, gauges, and log-bucketed histograms.
//!
//! Metrics are declared as `static` items with `const` constructors and
//! lazily register themselves in a process-global registry on first
//! touch. Counters are sharded across cache-line-padded atomic cells
//! (thread-local shard selection) so concurrent recording through the
//! worker pool never contends; shards merge by summation at snapshot
//! time, which is commutative, so aggregate counts are bit-identical at
//! any thread count when the underlying work items are deterministic.
//!
//! Every metric carries a [`Stability`] tag. `Stable` metrics count
//! deterministic work items and must be thread-count-invariant;
//! `Volatile` metrics measure scheduling or wall-clock effects and are
//! excluded from invariance comparisons (see `scripts/ci.sh`).

use crate::enabled;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Nanoseconds elapsed since `t0`, saturating at `u64::MAX`.
pub(crate) fn nanos_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Whether a metric's aggregate value is thread-count-invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    /// Counts deterministic work items: bit-identical at any
    /// `HEALTHMON_THREADS`, included in CI invariance byte-compares.
    Stable,
    /// Measures scheduling or timing (queue waits, chunk placement,
    /// span durations): legitimately varies run to run.
    Volatile,
}

impl Stability {
    fn is_stable(self) -> bool {
        matches!(self, Stability::Stable)
    }
}

/// Number of counter shards; threads hash onto shards round-robin.
const N_SHARDS: usize = 16;

/// One cache line per shard so concurrent increments don't false-share.
#[repr(align(64))]
#[derive(Debug)]
struct Shard(AtomicU64);

#[allow(clippy::declare_interior_mutable_const)] // array-repeat seed, never read as a const
const ZERO_SHARD: Shard = Shard(AtomicU64::new(0));

/// Round-robin shard assignment: each thread picks a slot once.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % N_SHARDS;
}

#[inline]
fn my_slot() -> usize {
    SLOT.with(|s| *s)
}

/// A monotonically increasing sum, sharded per thread.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    stability: Stability,
    registered: AtomicBool,
    shards: [Shard; N_SHARDS],
}

impl Counter {
    /// Creates a counter; usable in `static` items.
    pub const fn new(name: &'static str, stability: Stability) -> Self {
        Counter {
            name,
            stability,
            registered: AtomicBool::new(false),
            shards: [ZERO_SHARD; N_SHARDS],
        }
    }

    /// Adds `n` to the counter. No-op while telemetry is disabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.ensure_registered();
        self.shards[my_slot()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter. No-op while telemetry is disabled.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// The merged value across all shards.
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    fn ensure_registered(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().lock().unwrap().push(MetricRef::Counter(self));
        }
    }

    fn clear(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
        self.registered.store(false, Ordering::Relaxed);
    }
}

/// A last/extremum-valued measurement (stored as `f64` bits).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    stability: Stability,
    registered: AtomicBool,
    bits: AtomicU64,
}

/// Quiet-NaN sentinel marking a gauge that has never been set; any first
/// observation replaces it unconditionally, making `set_min`/`set_max`
/// commutative without an artificial 0.0 floor.
const UNSET_BITS: u64 = 0x7FF8_0000_0000_0000;

impl Gauge {
    /// Creates a gauge; usable in `static` items. Reads NaN until set.
    pub const fn new(name: &'static str, stability: Stability) -> Self {
        Gauge {
            name,
            stability,
            registered: AtomicBool::new(false),
            bits: AtomicU64::new(UNSET_BITS),
        }
    }

    /// Sets the gauge to `v`. No-op while telemetry is disabled.
    #[inline]
    pub fn set(&'static self, v: f64) {
        if !enabled() {
            return;
        }
        self.ensure_registered();
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is greater than the current value.
    /// Commutative, so the result is thread-count-invariant when the set
    /// of observed values is. No-op while telemetry is disabled.
    #[inline]
    pub fn set_max(&'static self, v: f64) {
        self.set_extremum(v, |cur, new| new > cur);
    }

    /// Lowers the gauge to `v` if `v` is less than the current value.
    /// The first observation always wins (the unset sentinel is NaN, not
    /// a 0.0 floor). No-op while telemetry is disabled.
    #[inline]
    pub fn set_min(&'static self, v: f64) {
        self.set_extremum(v, |cur, new| new < cur);
    }

    fn set_extremum(&'static self, v: f64, better: impl Fn(f64, f64) -> bool) {
        if !enabled() {
            return;
        }
        self.ensure_registered();
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let curf = f64::from_bits(cur);
            if !(curf.is_nan() || better(curf, v)) {
                return;
            }
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current gauge value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn ensure_registered(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().lock().unwrap().push(MetricRef::Gauge(self));
        }
    }

    fn clear(&self) {
        self.bits.store(UNSET_BITS, Ordering::Relaxed);
        self.registered.store(false, Ordering::Relaxed);
    }
}

/// Number of histogram buckets: one per power of two of a `u64`, plus a
/// dedicated zero bucket at index 0.
const N_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (typically nanoseconds or
/// element counts). Bucket `i` (for `i >= 1`) holds samples in
/// `[2^(i-1), 2^i)`; bucket 0 holds exact zeros.
pub struct Histogram {
    name: &'static str,
    stability: Stability,
    registered: AtomicBool,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; N_BUCKETS],
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("name", &self.name)
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[allow(clippy::declare_interior_mutable_const)] // array-repeat seed, never read as a const
const ZERO_CELL: AtomicU64 = AtomicU64::new(0);

impl Histogram {
    /// Creates a histogram; usable in `static` items.
    pub const fn new(name: &'static str, stability: Stability) -> Self {
        Histogram {
            name,
            stability,
            registered: AtomicBool::new(false),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO_CELL; N_BUCKETS],
        }
    }

    /// Records one sample. No-op while telemetry is disabled.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        self.ensure_registered();
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records the nanoseconds elapsed since `start`, if there is one.
    /// A timed site takes `start` as `tel::enabled().then(Instant::now)`,
    /// so a phase that began with telemetry off records nothing.
    #[inline]
    pub fn record_since(&'static self, start: Option<Instant>) {
        if let Some(t0) = start {
            self.record(nanos_since(t0));
        }
    }

    /// Bucket index for a sample: 0 for 0, else `64 - leading_zeros`.
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    fn ensure_registered(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().lock().unwrap().push(MetricRef::Histogram(self));
        }
    }

    fn clear(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.registered.store(false, Ordering::Relaxed);
    }
}

/// The global registry of every metric touched since the last reset.
enum MetricRef {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

fn registry() -> &'static Mutex<Vec<MetricRef>> {
    static REGISTRY: Mutex<Vec<MetricRef>> = Mutex::new(Vec::new());
    &REGISTRY
}

/// Zeroes every registered metric and empties the registry, so the next
/// touch re-registers from scratch (a fresh process and a reset process
/// produce identical snapshots). Crate-internal; use [`crate::reset`].
pub(crate) fn reset_registry() {
    let mut reg = registry().lock().unwrap();
    for m in reg.drain(..) {
        match m {
            MetricRef::Counter(c) => c.clear(),
            MetricRef::Gauge(g) => g.clear(),
            MetricRef::Histogram(h) => h.clear(),
        }
    }
}

/// Point-in-time value of one counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name (dot-separated, e.g. `gemm.calls`).
    pub name: String,
    /// Merged value across all shards.
    pub value: u64,
    /// Whether the value is thread-count-invariant.
    pub stable: bool,
}

/// Point-in-time value of one gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Current value.
    pub value: f64,
    /// Whether the value is thread-count-invariant.
    pub stable: bool,
}

/// Point-in-time state of one histogram. Only non-empty buckets are
/// kept, as `(bucket_index, count)` pairs in ascending index order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// `(bucket_index, count)` for non-empty buckets; bucket `i >= 1`
    /// covers `[2^(i-1), 2^i)`, bucket 0 is exact zeros.
    pub buckets: Vec<(u32, u64)>,
    /// Whether the distribution is thread-count-invariant.
    pub stable: bool,
}

impl HistogramSnapshot {
    /// Inclusive upper bound of a bucket, for display and exposition.
    pub fn bucket_upper(index: u32) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Inclusive lower bound of a bucket: 0 for the zero bucket, else
    /// `2^(index-1)`.
    pub fn bucket_lower(index: u32) -> u64 {
        if index == 0 {
            0
        } else {
            1u64 << (index - 1).min(63)
        }
    }

    /// Deterministic nearest-rank quantile estimate from the log2
    /// buckets.
    ///
    /// The sample at 1-based rank `ceil(q * count)` is located in its
    /// bucket and its value estimated by linear interpolation across the
    /// bucket's `[2^(i-1), 2^i)` span, assuming ranks spread evenly
    /// within a bucket. All arithmetic is exact integer math (`u128`
    /// intermediate), so the estimate is bit-identical across platforms
    /// and thread counts whenever the bucket counts are. Returns 0 for
    /// an empty histogram; `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            if seen + n >= rank {
                let lower = Self::bucket_lower(i);
                let width = Self::bucket_upper(i) - lower;
                let k = rank - seen - 1; // 0-based position within the bucket
                let step = (width as u128 * k as u128) / n as u128;
                return lower + step as u64;
            }
            seen += n;
        }
        // Unreachable when count == sum of bucket counts; fall back to
        // the top of the highest occupied bucket.
        self.buckets.last().map(|&(i, _)| Self::bucket_upper(i)).unwrap_or(0)
    }
}

/// A deterministic snapshot of everything recorded since the last reset:
/// metrics sorted by name, span stats sorted by path, events in
/// recording order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All registered counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All registered gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All registered histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Merged span statistics, sorted by path.
    pub spans: Vec<crate::span::SpanSnapshot>,
    /// Ring-buffer events, oldest first.
    pub events: Vec<crate::span::EventSnapshot>,
}

/// Captures a [`MetricsSnapshot`] of the current registry, span stats,
/// and event ring buffer.
pub fn snapshot() -> MetricsSnapshot {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    {
        let reg = registry().lock().unwrap();
        for m in reg.iter() {
            match m {
                MetricRef::Counter(c) => counters.push(CounterSnapshot {
                    name: c.name.to_string(),
                    value: c.value(),
                    stable: c.stability.is_stable(),
                }),
                MetricRef::Gauge(g) => gauges.push(GaugeSnapshot {
                    name: g.name.to_string(),
                    value: g.value(),
                    stable: g.stability.is_stable(),
                }),
                MetricRef::Histogram(h) => {
                    let mut buckets = Vec::new();
                    for (i, b) in h.buckets.iter().enumerate() {
                        let n = b.load(Ordering::Relaxed);
                        if n > 0 {
                            buckets.push((i as u32, n));
                        }
                    }
                    histograms.push(HistogramSnapshot {
                        name: h.name.to_string(),
                        count: h.count.load(Ordering::Relaxed),
                        sum: h.sum.load(Ordering::Relaxed),
                        buckets,
                        stable: h.stability.is_stable(),
                    });
                }
            }
        }
    }
    counters.sort_by(|a, b| a.name.cmp(&b.name));
    gauges.sort_by(|a, b| a.name.cmp(&b.name));
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    let (spans, events) = crate::span::collect();
    MetricsSnapshot { counters, gauges, histograms, spans, events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testlock;

    #[test]
    fn counter_merges_across_threads() {
        let _g = testlock::exclusive();
        static C: Counter = Counter::new("metrics.threads", Stability::Stable);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        C.inc();
                    }
                });
            }
        });
        assert_eq!(C.value(), 4000);
        let snap = snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].value, 4000);
        assert!(snap.counters[0].stable);
    }

    #[test]
    fn gauge_extrema_are_commutative() {
        let _g = testlock::exclusive();
        static HI: Gauge = Gauge::new("metrics.hi", Stability::Stable);
        static LO: Gauge = Gauge::new("metrics.lo", Stability::Stable);
        for v in [3.0, -1.0, 7.5, 2.0] {
            HI.set_max(v);
            LO.set_min(v);
        }
        assert_eq!(HI.value(), 7.5);
        assert_eq!(LO.value(), -1.0); // NaN sentinel: first observation replaces it
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let _g = testlock::exclusive();
        static H: Histogram = Histogram::new("metrics.hist", Stability::Volatile);
        for v in [0, 1, 2, 3, 4, 1024] {
            H.record(v);
        }
        let snap = snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1034);
        // 0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; 4 -> bucket 3; 1024 -> bucket 11.
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (2, 2), (3, 1), (11, 1)]);
        assert!(!h.stable);
    }

    #[test]
    fn record_since_records_one_sample_only_for_a_start() {
        let _g = testlock::exclusive();
        static H: Histogram = Histogram::new("metrics.since", Stability::Volatile);
        H.record_since(None);
        assert!(snapshot().histograms.is_empty(), "no start, no sample");
        H.record_since(Some(Instant::now()));
        assert_eq!(snapshot().histograms[0].count, 1);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let _g = testlock::exclusive();
        static B: Counter = Counter::new("metrics.sort.b", Stability::Stable);
        static A: Counter = Counter::new("metrics.sort.a", Stability::Stable);
        B.inc();
        A.inc();
        let snap = snapshot();
        let names: Vec<_> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["metrics.sort.a", "metrics.sort.b"]);
    }

    #[test]
    fn bucket_upper_bounds() {
        assert_eq!(HistogramSnapshot::bucket_upper(0), 0);
        assert_eq!(HistogramSnapshot::bucket_upper(1), 1);
        assert_eq!(HistogramSnapshot::bucket_upper(4), 15);
        assert_eq!(HistogramSnapshot::bucket_upper(64), u64::MAX);
        assert_eq!(HistogramSnapshot::bucket_lower(0), 0);
        assert_eq!(HistogramSnapshot::bucket_lower(1), 1);
        assert_eq!(HistogramSnapshot::bucket_lower(4), 8);
        assert_eq!(HistogramSnapshot::bucket_lower(64), 1u64 << 63);
    }

    fn hist(count: u64, buckets: Vec<(u32, u64)>) -> HistogramSnapshot {
        HistogramSnapshot { name: "q".into(), count, sum: 0, buckets, stable: false }
    }

    #[test]
    fn quantile_is_exact_on_single_value_buckets() {
        // Zeros and ones occupy single-value buckets, so every quantile
        // inside them is exact, not interpolated.
        let h = hist(4, vec![(0, 2), (1, 2)]);
        assert_eq!(h.quantile(0.25), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.75), 1);
        assert_eq!(h.quantile(1.0), 1);
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        // Four samples in bucket 11 ([1024, 2047]): ranks spread evenly
        // across the 1023-wide span at k/n steps.
        let h = hist(4, vec![(11, 4)]);
        assert_eq!(h.quantile(0.25), 1024);
        assert_eq!(h.quantile(0.5), 1024 + 1023 / 4);
        assert_eq!(h.quantile(1.0), 1024 + (1023 * 3) / 4);
    }

    #[test]
    fn quantile_walks_cumulative_counts() {
        let h = hist(100, vec![(1, 50), (5, 45), (11, 5)]);
        assert_eq!(h.quantile(0.5), 1);
        // p95 is the 95th sample: rank 95 is the last of bucket 5.
        assert_eq!(HistogramSnapshot::bucket_lower(5), 16);
        assert_eq!(h.quantile(0.95), 16 + (15 * 44) / 45);
        // p99 lands in bucket 11.
        assert_eq!(h.quantile(0.99), 1024 + (1023 * 3) / 5);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        assert_eq!(hist(0, vec![]).quantile(0.99), 0);
    }
}
