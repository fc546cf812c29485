//! Fixed-capacity time series with deterministic downsample-on-overflow,
//! and the per-device [`HealthTimeline`] built on top of them.
//!
//! The fleet supervisor tracks hundreds of devices over unbounded
//! lifetimes, so per-device history must be bounded. A [`Series`] keeps
//! at most `capacity` points; when a push would exceed that, it halves
//! the retained set by dropping every point whose sequence number is not
//! a multiple of the doubled stride, then keeps accepting only every
//! stride-th point. The resulting contents are a *pure function of the
//! offered sequence* — independent of batching, timing, or which OS
//! thread pushed — so two devices fed the same epochs hold byte-identical
//! timelines at any `HEALTHMON_THREADS` setting.
//!
//! Timelines are indexed by the **virtual epoch clock** (the runtime's
//! deterministic epoch counter), never by wall time: wall-clock stamps
//! would differ between runs and break the flight-recorder byte-compare
//! guarantee (see `healthmon::fleet`).

/// Default capacity for per-device health timelines: enough to cover a
/// long lifetime at full resolution and centuries at downsampled strides.
pub const TIMELINE_CAPACITY: usize = 256;

/// A bounded sequence of `(sequence, value)` points that downsamples
/// itself deterministically instead of growing without bound.
///
/// Push `N` values and the series retains at most `capacity` of them:
/// the points whose 0-based offer index is a multiple of the current
/// stride (always a power of two). See the module docs for why the
/// result is independent of scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct Series<T> {
    capacity: usize,
    stride: u64,
    offered: u64,
    points: Vec<(u64, T)>,
}

impl<T: Clone> Series<T> {
    /// Creates an empty series bounded to `capacity` points.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (a one-point series cannot downsample).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "series capacity must be at least 2");
        Series { capacity, stride: 1, offered: 0, points: Vec::new() }
    }

    /// Offers the next value in the sequence. Retained only when the
    /// offer index lands on the current stride; triggers a downsample
    /// (drop every other retained point, double the stride) when the
    /// series is exactly at capacity.
    pub fn push(&mut self, value: T) {
        let seq = self.offered;
        self.offered += 1;
        if !seq.is_multiple_of(self.stride) {
            return;
        }
        if self.points.len() == self.capacity {
            let doubled = self.stride * 2;
            self.points.retain(|&(s, _)| s.is_multiple_of(doubled));
            self.stride = doubled;
            if !seq.is_multiple_of(self.stride) {
                return;
            }
        }
        self.points.push((seq, value));
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no point has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total number of values offered (retained or not).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Current keep stride (a power of two; 1 until the first overflow).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The fixed capacity this series was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Retained `(offer_index, value)` points, oldest first.
    pub fn points(&self) -> &[(u64, T)] {
        &self.points
    }

    /// The most recent `n` retained points, oldest first.
    pub fn window(&self, n: usize) -> &[(u64, T)] {
        let start = self.points.len().saturating_sub(n);
        &self.points[start..]
    }
}

/// Merges several series into one bounded series, ordering points by
/// `(offer_index, source position)`. Deterministic for a fixed `sources`
/// order — callers pass sources in a canonical order (e.g. ascending
/// device id) to get a scheduling-independent fleet-wide view.
pub fn merge<T: Clone>(capacity: usize, sources: &[&Series<T>]) -> Series<T> {
    let mut all: Vec<(u64, usize, &T)> = Vec::new();
    for (si, s) in sources.iter().enumerate() {
        for (seq, v) in s.points() {
            all.push((*seq, si, v));
        }
    }
    all.sort_by_key(|&(seq, si, _)| (seq, si));
    let mut out = Series::new(capacity);
    for (_, _, v) in all {
        out.push(v.clone());
    }
    out
}

healthmon_serdes::json_codec! {
    /// One health observation on the virtual epoch clock.
    ///
    /// Every field is derived from deterministic per-device state (never
    /// from wall time or global telemetry), so a point — and therefore a
    /// whole timeline — is bit-identical across reruns and thread counts.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TimelinePoint {
        /// Virtual epoch the observation was taken at.
        pub epoch: u64,
        /// Health state label at the end of the epoch (e.g. `healthy`).
        pub state: String,
        /// Monitor accuracy estimate at the end of the epoch.
        pub accuracy: f64,
        /// Detection score: the checkup's confidence-distance statistic.
        pub score: f64,
        /// Cumulative repair sessions completed so far.
        pub repairs: u64,
        /// Cumulative soft errors scrubbed so far.
        pub scrubs: u64,
        /// Cumulative supervisor retries absorbed so far (fleet runs only).
        pub retries: u64,
    }
}

/// A per-device health history: one [`TimelinePoint`] per completed
/// epoch, bounded by deterministic downsampling.
///
/// Owned by exactly one device runtime and recorded under the virtual
/// epoch clock, so its contents never depend on scheduling. Not part of
/// any checkpoint format — a resumed runtime restarts its timeline from
/// the resume epoch (history before the crash lives in the flight
/// recorder's artifacts, not the checkpoint).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthTimeline {
    series: Series<TimelinePoint>,
}

impl Default for HealthTimeline {
    fn default() -> Self {
        HealthTimeline::new(TIMELINE_CAPACITY)
    }
}

impl HealthTimeline {
    /// Creates an empty timeline bounded to `capacity` points.
    pub fn new(capacity: usize) -> Self {
        HealthTimeline { series: Series::new(capacity) }
    }

    /// Records the observation for the next epoch in sequence.
    pub fn record(&mut self, point: TimelinePoint) {
        self.series.push(point);
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether no point has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Total number of epochs observed (retained or downsampled away).
    pub fn observed(&self) -> u64 {
        self.series.offered()
    }

    /// The underlying bounded series.
    pub fn series(&self) -> &Series<TimelinePoint> {
        &self.series
    }

    /// Retained points, oldest first.
    pub fn points(&self) -> impl Iterator<Item = &TimelinePoint> {
        self.series.points().iter().map(|(_, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_keeps_everything_under_capacity() {
        let mut s = Series::new(8);
        for v in 0..8u64 {
            s.push(v);
        }
        assert_eq!(s.len(), 8);
        assert_eq!(s.stride(), 1);
        let kept: Vec<u64> = s.points().iter().map(|&(seq, v)| {
            assert_eq!(seq, v);
            v
        }).collect();
        assert_eq!(kept, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_at_exact_capacity_boundary_halves_once() {
        let mut s = Series::new(8);
        for v in 0..8u64 {
            s.push(v);
        }
        // The 9th push finds the series exactly at capacity: it must
        // compact to the even-sequence half *then* accept the new point
        // (seq 8 is a stride-2 multiple).
        s.push(8);
        assert_eq!(s.stride(), 2);
        let seqs: Vec<u64> = s.points().iter().map(|&(seq, _)| seq).collect();
        assert_eq!(seqs, vec![0, 2, 4, 6, 8]);
        // seq 9 is off-stride and must be dropped without changing state.
        s.push(9);
        assert_eq!(s.points().len(), 5);
        assert_eq!(s.offered(), 10);
    }

    #[test]
    fn repeated_overflow_doubles_the_stride() {
        let mut s = Series::new(4);
        for v in 0..64u64 {
            s.push(v);
        }
        // Strides double 1 -> 2 -> 4 -> 8 -> 16 as the sequence grows;
        // the retained set is always the stride multiples that fit.
        assert_eq!(s.stride(), 16);
        let seqs: Vec<u64> = s.points().iter().map(|&(seq, _)| seq).collect();
        assert_eq!(seqs, vec![0, 16, 32, 48]);
        assert_eq!(s.offered(), 64);
    }

    #[test]
    fn contents_are_a_pure_function_of_the_offered_sequence() {
        // Feeding the same values in one burst or in odd-sized chunks
        // (as different schedulers would) yields identical series.
        let mut a = Series::new(6);
        let mut b = Series::new(6);
        for v in 0..100u64 {
            a.push(v);
        }
        for chunk in (0..100u64).collect::<Vec<_>>().chunks(7) {
            for &v in chunk {
                b.push(v);
            }
        }
        assert_eq!(a, b);
    }

    #[test]
    fn merge_is_deterministic_for_a_fixed_source_order() {
        let mut a = Series::new(8);
        let mut b = Series::new(8);
        for v in 0..5u64 {
            a.push(v * 10);
            b.push(v * 10 + 1);
        }
        let m1 = merge(16, &[&a, &b]);
        let m2 = merge(16, &[&a, &b]);
        assert_eq!(m1, m2);
        // Points interleave by (seq, source index): a0 b0 a1 b1 ...
        let vals: Vec<u64> = m1.points().iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![0, 1, 10, 11, 20, 21, 30, 31, 40, 41]);
        // Merging into a smaller capacity downsamples the merged order.
        let small = merge(8, &[&a, &b]);
        let vals: Vec<u64> = small.points().iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn timeline_round_trips_points_through_json() {
        let mut t = HealthTimeline::new(16);
        for e in 0..4u64 {
            t.record(TimelinePoint {
                epoch: e,
                state: "healthy".into(),
                accuracy: 0.875,
                score: 0.25,
                repairs: e,
                scrubs: 0,
                retries: 1,
            });
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.observed(), 4);
        let window: Vec<TimelinePoint> =
            t.series().window(2).iter().map(|(_, p)| p.clone()).collect();
        let back: Vec<TimelinePoint> =
            healthmon_serdes::from_str(&healthmon_serdes::to_string(&window)).unwrap();
        assert_eq!(back, window);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].epoch, 2);
        assert_eq!(back[0].state, "healthy");
        assert_eq!(back[0].retries, 1);
    }
}
