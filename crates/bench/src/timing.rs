//! A tiny wall-clock timing harness for the `benches/` targets.
//!
//! Replaces the registry `criterion` dependency with the slice of it these
//! benchmarks used: named groups, per-case warmup + timed iterations, and
//! a median-of-samples report. No statistics engine, no HTML output — the
//! point is a stable relative ordering of the kernels under `--offline`
//! builds, not publication-grade confidence intervals.
//!
//! Enabled by the crate's default `timing` feature; the bench targets
//! declare `required-features = ["timing"]` so `--no-default-features`
//! builds skip them entirely.
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
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Collects timing cases under a group name and prints one line per case.
#[derive(Debug)]
pub struct TimingHarness {
    group: String,
    samples: usize,
    iters: usize,
}

/// One recorded measurement, kept for the optional JSON report.
#[derive(Debug, Clone)]
struct Record {
    group: String,
    name: String,
    median_ns: u128,
    min_ns: u128,
    samples: usize,
    iters: usize,
}

fn records() -> &'static Mutex<Vec<Record>> {
    static RECORDS: OnceLock<Mutex<Vec<Record>>> = OnceLock::new();
    RECORDS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Whether the benches run in short "smoke" mode
/// (`HEALTHMON_BENCH_SMOKE=1`): samples are capped at 2 and calibration
/// budgets shrink, so a full bench binary finishes in seconds, enough to
/// prove it runs without panicking.
pub fn smoke_mode() -> bool {
    static SMOKE: OnceLock<bool> = OnceLock::new();
    *SMOKE.get_or_init(|| {
        std::env::var("HEALTHMON_BENCH_SMOKE").map(|v| v == "1").unwrap_or(false)
    })
}

/// Writes every measurement recorded so far as a JSON array to the path
/// named by `HEALTHMON_BENCH_JSON` (no-op when the variable is unset).
///
/// Each bench binary calls this at the end of `main`; the
/// `artifacts/bench_pr*_ab_*.json` baselines were written this way.
pub fn write_json_report() {
    let Ok(path) = std::env::var("HEALTHMON_BENCH_JSON") else { return };
    let recs = records().lock().unwrap();
    let mut out = String::from("[\n");
    for (i, r) in recs.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"group\": \"{}\", \"name\": \"{}\", \"median_ns\": {}, \"min_ns\": {}, \
             \"samples\": {}, \"iters\": {}}}{}\n",
            r.group,
            r.name,
            r.median_ns,
            r.min_ns,
            r.samples,
            r.iters,
            if i + 1 < recs.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    if let Err(e) = std::fs::write(&path, out) {
        healthmon_telemetry::log_warn!("warning: could not write bench report to {path}: {e}");
    }
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
        let samples = if smoke_mode() { 2 } else { 10 };
        TimingHarness { group: group.into(), samples, iters: 0 }
    }

    /// Number of timed samples per case (default 10; capped at 2 in
    /// [`smoke_mode`]).
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = if smoke_mode() { samples.clamp(1, 2) } else { samples.max(1) };
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
        // the per-sample iteration count (~1 ms in smoke mode).
        let iters = if self.iters > 0 {
            self.iters
        } else {
            let budget = Duration::from_millis(if smoke_mode() { 1 } else { 10 });
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
        records().lock().unwrap().push(Record {
            group: self.group.clone(),
            name: name.to_owned(),
            median_ns: m.median.as_nanos(),
            min_ns: m.min.as_nanos(),
            samples: self.samples,
            iters,
        });
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
