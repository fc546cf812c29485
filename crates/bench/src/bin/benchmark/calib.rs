//! The host's speed next to every timed sample, so that times can be
//! reported at a reference speed.
//!
//! The host the benchmark was tuned on shares its cores with other
//! tenants. How fast it runs vector code changes by 30% within a second
//! and by 40% between processes, so the fastest time of one lenet5
//! campaign call differed that much from run to run, and no statistic over
//! a run's own samples removed it. Every timed sample is therefore
//! bracketed by two probe bursts of i16 products accumulated in i32, the
//! analog read path's arithmetic, over one plane resident in L1 and one in
//! L2. Of the kernels tried (f32 matrix products in L1 and in L2, these two,
//! a scalar dependency chain), this pair followed the host's slow moments
//! best on the checkup and on both campaigns. The program never runs this
//! code, so a change to the program cannot move it, while a slow moment of
//! the host moves both. A sample's time divided by its probes' mean time,
//! times [`REFERENCE_S`], is its time on a host where one burst takes
//! [`REFERENCE_S`].

use std::hint::black_box;
use std::time::Instant;

/// i16 elements of the L1 plane and passes over it in one burst.
const L1_LEN: usize = 4096;
const L1_PASSES: usize = 64;
/// i16 elements of the L2 plane and passes over it: about as long as the
/// L1 part.
const L2_LEN: usize = 65536;
const L2_PASSES: usize = 4;

/// One burst's time on the reference host: about its median on the 2-vCPU
/// host the benchmark was tuned on, in the host's fast moments (its median
/// over a run was 67-77 us in fast runs and 100-133 us in slow ones). Only
/// the ratio to it matters.
pub const REFERENCE_S: f64 = 75e-6;

/// One timed sample: its time and the mean time of the two probe bursts
/// around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub seconds: f64,
    pub probe_s: f64,
}

impl Sample {
    /// The sample's time on the reference host.
    pub fn at_reference(&self) -> f64 {
        self.seconds / self.probe_s * REFERENCE_S
    }

    /// The sample's time as measured.
    pub fn as_measured(&self) -> f64 {
        self.seconds
    }
}

/// Runs `f` between two probe bursts and times all three.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Sample) {
    let before = burst();
    let t = Instant::now();
    let out = f();
    let seconds = t.elapsed().as_secs_f64();
    let after = burst();
    (
        out,
        Sample {
            seconds,
            probe_s: (before + after) / 2.0,
        },
    )
}

/// Codes and weights of one plane.
struct Plane {
    codes: Vec<i16>,
    weights: Vec<i16>,
}

impl Plane {
    fn new(len: usize) -> Plane {
        Plane {
            codes: (0..len).map(|i| (i % 255) as i16 - 127).collect(),
            weights: (0..len).map(|i| (i * 7 % 511) as i16 - 255).collect(),
        }
    }

    fn passes(&self, n: usize) {
        for _ in 0..n {
            black_box(mac(black_box(&self.codes), black_box(&self.weights)));
        }
    }
}

thread_local! {
    static PROBE: [Plane; 2] = [Plane::new(L1_LEN), Plane::new(L2_LEN)];
}

/// One probe burst's time, in seconds. An untimed pass first brings the
/// planes back into their caches, so that the burst does not also time how
/// much of them the sample before evicted.
fn burst() -> f64 {
    PROBE.with(|[l1, l2]| {
        l1.passes(1);
        l2.passes(1);
        let t = Instant::now();
        l1.passes(L1_PASSES);
        l2.passes(L2_PASSES);
        t.elapsed().as_secs_f64()
    })
}

fn mac(codes: &[i16], weights: &[i16]) -> i32 {
    codes.iter().zip(weights).fold(0i32, |acc, (&x, &w)| {
        acc.wrapping_add(i32::from(x) * i32::from(w))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_scales_by_its_probes() {
        let s = Sample {
            seconds: 3e-3,
            probe_s: 2.0 * REFERENCE_S,
        };
        assert_eq!(s.as_measured(), 3e-3);
        assert!((s.at_reference() - 1.5e-3).abs() < 1e-15);
        let (out, s) = timed(|| 7);
        assert_eq!(out, 7);
        assert!(s.seconds >= 0.0 && s.probe_s > 0.0);
    }
}
