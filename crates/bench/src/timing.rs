//! A tiny wall-clock timing harness for the `benches/` targets.
//!
//! Replaces the registry `criterion` dependency with the slice of it these
//! benchmarks used: named groups, per-case warmup + timed iterations, and
//! a median-of-samples report. No statistics engine, no HTML output — the
//! point is a stable relative ordering of the kernels under `--offline`
//! builds, not publication-grade confidence intervals.
//!
//! # Example
//!
//! ```
//! use healthmon_bench::timing::TimingHarness;
//!
//! let mut h = TimingHarness::new("demo").samples(5).iters_per_sample(10);
//! h.case("add", || std::hint::black_box(1u64 + 1));
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Collects timing cases under a group name and prints one line per case.
#[derive(Debug)]
pub struct TimingHarness {
    group: String,
    samples: usize,
    iters: usize,
}

/// One case's measurement: the median and min of the per-sample mean
/// iteration times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Median per-iteration time across samples.
    pub median: Duration,
    /// Fastest per-iteration time across samples.
    pub min: Duration,
}

impl TimingHarness {
    /// Creates a harness for a named benchmark group.
    pub fn new(group: impl Into<String>) -> Self {
        TimingHarness { group: group.into(), samples: 10, iters: 0 }
    }

    /// Number of timed samples per case (default 10).
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples.max(1);
        self
    }

    /// Fixed iteration count per sample. The default (0) auto-calibrates
    /// so each sample runs for roughly 10 ms.
    pub fn iters_per_sample(mut self, iters: usize) -> Self {
        self.iters = iters;
        self
    }

    /// Times `f`, prints a `group/name: median ... min ...` line, and
    /// returns the measurement.
    pub fn case<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> Measurement {
        // Warmup and calibration: run until ~10 ms have elapsed to size
        // the per-sample iteration count.
        let iters = if self.iters > 0 {
            self.iters
        } else {
            let budget = Duration::from_millis(10);
            let started = Instant::now();
            let mut warmup_iters = 0usize;
            while started.elapsed() < budget {
                black_box(f());
                warmup_iters += 1;
            }
            warmup_iters.max(1)
        };

        let mut per_iter: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                started.elapsed() / iters as u32
            })
            .collect();
        per_iter.sort_unstable();
        let m = Measurement { median: per_iter[per_iter.len() / 2], min: per_iter[0] };
        println!(
            "{}/{name}: median {:>12?}  min {:>12?}  ({} samples x {iters} iters)",
            self.group, m.median, m.min, self.samples
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut h = TimingHarness::new("test").samples(3).iters_per_sample(100);
        let m = h.case("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        assert!(m.min <= m.median);
        assert!(m.median > Duration::ZERO);
    }

    #[test]
    fn auto_calibration_produces_iters() {
        let mut h = TimingHarness::new("test").samples(2);
        // Cheap closure: calibration must still terminate quickly and
        // produce a sane measurement.
        let m = h.case("noop", || black_box(1u64));
        assert!(m.min <= m.median);
    }
}
