//! Deterministic random source for the whole workspace.
//!
//! Every stochastic component — weight init, dataset synthesis, fault
//! injection, O-TP seeding — draws from a [`SeededRng`], so any experiment
//! is exactly reproducible from the seeds recorded in its report.
//!
//! The generator is an in-tree xoshiro256++ seeded through SplitMix64:
//! no registry dependency and identical streams on every platform. The
//! bulk samplers behind the per-weight fault models run their Box–Muller
//! math on the widest vector tier the CPU supports ([`crate::simd`]);
//! what remains is the serial xoshiro chain, about 2 ns per draw.

use crate::simd::{self, Tier};

/// A seeded pseudo-random number generator with the samplers the ReRAM
/// error models need.
///
/// Core stream: xoshiro256++ (Blackman & Vigna), state expanded from a
/// 64-bit seed with SplitMix64. On top of the raw stream it provides
/// Box–Muller normal / lognormal sampling for the paper's error models.
///
/// # Example
///
/// ```
/// use healthmon_tensor::SeededRng;
///
/// let mut rng = SeededRng::new(1234);
/// let theta = rng.normal(0.0, 0.1);
/// assert!(theta.is_finite());
/// // lognormal multiplicative weight error, as in w' = w * e^theta
/// let factor = rng.lognormal(0.0, 0.1);
/// assert!(factor > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SeededRng {
    state: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f32>,
}

/// Pairs of Box–Muller variates computed per block by the bulk samplers;
/// sized so the scratch buffers live comfortably in L1.
const BM_BLOCK: usize = 64;

/// The tiers the block sampler is built for, widest first (see
/// [`crate::simd`]).
const SAMPLER_TIERS: [Tier; 1] = [Tier::Avx512];

/// One Box–Muller pair from two raw 64-bit draws, on the fast polynomial
/// transcendentals. `u1 ∈ (0, 1]` (so `ln` never sees zero) and
/// `u2 ∈ [0, 1)`.
#[inline(always)]
fn box_muller(u_a: u64, u_b: u64) -> (f32, f32) {
    let u1 = ((u_a >> 40) as f32 + 1.0) * (1.0 / (1u64 << 24) as f32);
    let u2 = (u_b >> 40) as f32 * (1.0 / (1u64 << 24) as f32);
    let r = (-2.0 * crate::fastmath::ln(u1)).sqrt();
    let (s, c) = crate::fastmath::sincos_2pi(u2);
    (r * c, r * s)
}

/// One SplitMix64 step; used to expand seeds and mix fork streams.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeededRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion guarantees a non-zero xoshiro state for
        // every seed (the all-zero state is a fixed point of xoshiro).
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SeededRng { state, spare_normal: None }
    }

    /// Next raw 64-bit output (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Derives an independent child generator; used to give each fault
    /// model or worker its own stream while keeping the parent stream
    /// untouched by how much the child consumes.
    pub fn fork(&mut self, stream: u64) -> SeededRng {
        let base = self.next_u64();
        // SplitMix-style mixing of the stream id into the forked seed.
        let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SeededRng::new(z ^ (z >> 31))
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "uniform bounds inverted: [{lo}, {hi})");
        lo + (hi - lo) * self.unit()
    }

    /// Uniform sample in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        // 24 high bits -> all f32 values in [0, 1) are equally likely and
        // exactly representable.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f64` sample in `[0, 1)`.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's multiply-shift range reduction; bias is < n / 2^64,
        // negligible for every n this workspace uses.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli trial with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0,1]");
        self.unit_f64() < p
    }

    /// Normal sample with the given mean and standard deviation
    /// (Box–Muller; the spare variate is cached).
    ///
    /// # Panics
    ///
    /// Panics if `std_dev < 0`.
    pub fn normal(&mut self, mean: f32, std_dev: f32) -> f32 {
        assert!(std_dev >= 0.0, "negative standard deviation {std_dev}");
        let z = if let Some(z) = self.spare_normal.take() {
            z
        } else {
            // Box–Muller: two uniforms -> two independent standard normals.
            let u1: f32 = loop {
                let u = self.unit();
                if u > f32::MIN_POSITIVE {
                    break u;
                }
            };
            let u2: f32 = self.unit();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            self.spare_normal = Some(r * theta.sin());
            r * theta.cos()
        };
        mean + std_dev * z
    }

    /// Lognormal sample `e^N(mu, sigma^2)`, the multiplicative factor of the
    /// paper's programming-variation error model `w' = w * e^theta`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0`.
    pub fn lognormal(&mut self, mu: f32, sigma: f32) -> f32 {
        self.normal(mu, sigma).exp()
    }

    /// Fills `out` with independent `N(mean, std_dev²)` samples — the bulk
    /// counterpart of [`SeededRng::normal`] for the per-weight error
    /// models, where sampling cost dominates whole campaigns.
    ///
    /// Draws from the same underlying xoshiro stream (two raw draws per
    /// Box–Muller pair) but computes the transform with the vectorizable
    /// polynomial approximations in [`crate::fastmath`], so the values
    /// differ from repeated [`SeededRng::normal`] calls in the last few
    /// ulps and in draw order. The procedure is fully deterministic for a
    /// given seed and length; it neither reads nor writes the cached
    /// spare variate of the scalar sampler.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev < 0`.
    pub fn fill_normal(&mut self, out: &mut [f32], mean: f32, std_dev: f32) {
        self.apply_normal(out, mean, std_dev, |_, x| x);
    }

    /// Fills `out` with independent lognormal samples `e^N(mu, sigma²)` —
    /// the bulk counterpart of [`SeededRng::lognormal`], with the same
    /// stream semantics as [`SeededRng::fill_normal`].
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0`.
    pub fn fill_lognormal(&mut self, out: &mut [f32], mu: f32, sigma: f32) {
        self.apply_normal(out, mu, sigma, |_, x| crate::fastmath::exp(x));
    }

    /// Applies `out[i] = f(out[i], x_i)` in place, with `x_i` the `i`-th
    /// variate [`SeededRng::fill_normal`] would write: the same draws, in
    /// the same order, and the same bits. A per-weight error model folds
    /// its update into the sampler this way (`f = |w, θ| w·e^θ` for
    /// programming variation) instead of filling a buffer as long as the
    /// tensor and reading it back.
    ///
    /// The variates are made 128 at a time: 64 pairs of raw draws, then
    /// the Box–Muller math and `f` over the block, compiled for the
    /// widest tier the CPU supports. `f` should be a short, branch-free
    /// expression, so that it vectorizes with the block.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev < 0`.
    pub fn apply_normal(
        &mut self,
        out: &mut [f32],
        mean: f32,
        std_dev: f32,
        f: impl Fn(f32, f32) -> f32,
    ) {
        self.apply_normal_on(Tier::best_of(&SAMPLER_TIERS), out, mean, std_dev, f);
    }

    /// [`SeededRng::apply_normal`] compiled for a named `tier`, which
    /// returns the same bits on every tier; for tests that run each one.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev < 0` or the CPU does not support `tier`.
    pub fn apply_normal_on(
        &mut self,
        tier: Tier,
        out: &mut [f32],
        mean: f32,
        std_dev: f32,
        f: impl Fn(f32, f32) -> f32,
    ) {
        assert!(std_dev >= 0.0, "negative standard deviation {std_dev}");
        simd::run(tier, #[inline(always)] move || self.normal_blocks(out, mean, std_dev, f));
    }

    /// The body of [`SeededRng::apply_normal`], inlined into every tier's
    /// build. A whole block draws its 64 pairs first (a serial dependency
    /// chain that keeps only each draw's top 24 bits), then computes its
    /// 128 variates, the first of each pair into the lower half and the
    /// second into the upper half. A last, shorter block takes one scalar
    /// [`box_muller`] pair at a time, dropping the second variate of an
    /// odd last pair. `f` then runs over the block.
    #[inline(always)]
    fn normal_blocks(
        &mut self,
        out: &mut [f32],
        mean: f32,
        std_dev: f32,
        f: impl Fn(f32, f32) -> f32,
    ) {
        const SCALE: f32 = 1.0 / (1u64 << 24) as f32;
        let mut a = [0i32; BM_BLOCK];
        let mut b = [0i32; BM_BLOCK];
        let mut x = [0f32; 2 * BM_BLOCK];
        for block in out.chunks_mut(2 * BM_BLOCK) {
            if block.len() == 2 * BM_BLOCK {
                for (a, b) in a.iter_mut().zip(b.iter_mut()) {
                    *a = (self.next_u64() >> 40) as i32;
                    *b = (self.next_u64() >> 40) as i32;
                }
                let (lo, hi) = x.split_at_mut(BM_BLOCK);
                for i in 0..BM_BLOCK {
                    let u1 = (a[i] as f32 + 1.0) * SCALE;
                    let u2 = b[i] as f32 * SCALE;
                    let r = (-2.0 * crate::fastmath::ln(u1)).sqrt();
                    let (s, c) = crate::fastmath::sincos_2pi(u2);
                    lo[i] = mean + std_dev * (r * c);
                    hi[i] = mean + std_dev * (r * s);
                }
            } else {
                for pair in x[..block.len().next_multiple_of(2)].chunks_exact_mut(2) {
                    let (z0, z1) = box_muller(self.next_u64(), self.next_u64());
                    pair[0] = mean + std_dev * z0;
                    pair[1] = mean + std_dev * z1;
                }
            }
            for (o, &x) in block.iter_mut().zip(&x) {
                *o = f(*o, x);
            }
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx
    }

    /// Samples `k` distinct indices from `0..n` (reservoir-free; shuffles a
    /// prefix).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct indices from 0..{n}");
        let mut idx = self.permutation(n);
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SeededRng::new(99);
        let mut b = SeededRng::new(99);
        for _ in 0..100 {
            assert_eq!(a.unit(), b.unit());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let same = (0..32).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 4, "streams from different seeds should differ");
    }

    #[test]
    fn zero_seed_stream_is_healthy() {
        // SplitMix64 expansion must prevent the degenerate all-zero state.
        let mut rng = SeededRng::new(0);
        let draws: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        assert!(draws.iter().any(|&v| v != 0));
        let mut dedup = draws.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), draws.len(), "xoshiro output repeated immediately");
    }

    #[test]
    fn unit_covers_interval() {
        let mut rng = SeededRng::new(13);
        let mut lo = 1.0f32;
        let mut hi = 0.0f32;
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = SeededRng::new(17);
        let mut counts = [0usize; 5];
        for _ in 0..10_000 {
            counts[rng.below(5)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((1800..2200).contains(&c), "bucket {i} count {c}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = SeededRng::new(7);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|&x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn lognormal_positive_and_median() {
        let mut rng = SeededRng::new(21);
        let n = 20_000;
        let mut samples: Vec<f32> = (0..n).map(|_| rng.lognormal(0.0, 0.3)).collect();
        assert!(samples.iter().all(|&v| v > 0.0));
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Median of lognormal(mu=0) is e^0 = 1.
        let median = samples[n / 2];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
    }

    #[test]
    fn fill_normal_moments() {
        let mut rng = SeededRng::new(7);
        let mut samples = vec![0.0f32; 20_000];
        rng.fill_normal(&mut samples, 2.0, 3.0);
        let n = samples.len() as f32;
        let mean = samples.iter().sum::<f32>() / n;
        let var = samples.iter().map(|&x| (x - mean).powi(2)).sum::<f32>() / n;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn fill_normal_deterministic_and_handles_odd_lengths() {
        for len in [0usize, 1, 2, 3, 127, 128, 129, 300] {
            let mut a = vec![0.0f32; len];
            let mut b = vec![0.0f32; len];
            SeededRng::new(31).fill_normal(&mut a, 0.0, 1.0);
            SeededRng::new(31).fill_normal(&mut b, 0.0, 1.0);
            assert_eq!(a, b, "length {len} not deterministic");
            assert!(a.iter().all(|v| v.is_finite()), "non-finite sample at length {len}");
        }
    }

    #[test]
    fn fill_normal_zero_std_dev_is_constant() {
        let mut samples = vec![1.0f32; 300];
        SeededRng::new(3).fill_normal(&mut samples, 0.25, 0.0);
        assert!(samples.iter().all(|&v| v == 0.25));
    }

    #[test]
    fn fill_lognormal_positive_and_median() {
        let mut rng = SeededRng::new(21);
        let mut samples = vec![0.0f32; 20_000];
        rng.fill_lognormal(&mut samples, 0.0, 0.3);
        assert!(samples.iter().all(|&v| v > 0.0));
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
    }

    #[test]
    fn fill_lognormal_zero_sigma_is_exact_identity_factor() {
        // The fault models rely on sigma = 0 producing factor 1.0 exactly.
        let mut samples = vec![0.0f32; 130];
        SeededRng::new(9).fill_lognormal(&mut samples, 0.0, 0.0);
        assert!(samples.iter().all(|&v| v == 1.0));
    }

    /// `fill_normal` as written before the block sampler took an update:
    /// uniforms converted inside the draw loop, the transform written
    /// straight into `out` 128 variates at a time (the hard-coded sizes
    /// keep a change of the block size visible), and a scalar tail.
    fn two_loop_fill_normal(rng: &mut SeededRng, out: &mut [f32], mean: f32, std_dev: f32) {
        const SCALE: f32 = 1.0 / (1u64 << 24) as f32;
        let (mut u1, mut u2) = ([0f32; 64], [0f32; 64]);
        let mut chunks = out.chunks_exact_mut(128);
        for chunk in &mut chunks {
            for (a, b) in u1.iter_mut().zip(u2.iter_mut()) {
                *a = ((rng.next_u64() >> 40) as f32 + 1.0) * SCALE;
                *b = (rng.next_u64() >> 40) as f32 * SCALE;
            }
            let (lo, hi) = chunk.split_at_mut(64);
            for i in 0..64 {
                let r = (-2.0 * crate::fastmath::ln(u1[i])).sqrt();
                let (s, c) = crate::fastmath::sincos_2pi(u2[i]);
                lo[i] = mean + std_dev * (r * c);
                hi[i] = mean + std_dev * (r * s);
            }
        }
        let rem = chunks.into_remainder();
        let mut i = 0;
        while i < rem.len() {
            let (z0, z1) = box_muller(rng.next_u64(), rng.next_u64());
            rem[i] = mean + std_dev * z0;
            if i + 1 < rem.len() {
                rem[i + 1] = mean + std_dev * z1;
            }
            i += 2;
        }
    }

    /// `fill_lognormal` as written before: the normal fill, then `exp`.
    fn two_loop_fill_lognormal(rng: &mut SeededRng, out: &mut [f32], mu: f32, sigma: f32) {
        two_loop_fill_normal(rng, out, mu, sigma);
        for v in out.iter_mut() {
            *v = crate::fastmath::exp(*v);
        }
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: variate {i}: {g} vs {w}");
        }
    }

    /// Lengths around the 8-, 16- and 32-lane vector boundaries, the
    /// 128-variate blocks and the odd tail.
    const LENGTHS: [usize; 24] =
        [0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1000, 4097];

    /// Every tier of the block sampler, and the dispatched bulk samplers,
    /// draw the same stream and write the same bits as the two loops they
    /// replaced; σ = 0 gives the mean (the factor 1.0) exactly.
    #[test]
    fn every_sampler_tier_matches_the_two_loop_samplers_bit_for_bit() {
        for tier in Tier::runnable(&Tier::ALL) {
            for len in LENGTHS {
                for sigma in [0.0f32, 0.3, 2.0] {
                    let what = format!("{tier:?}, length {len}, sigma {sigma}");
                    let seed = 1000 + len as u64;
                    let mut want = vec![f32::NAN; len];
                    let mut reference = SeededRng::new(seed);
                    two_loop_fill_normal(&mut reference, &mut want, 0.5, sigma);
                    let mut got = vec![f32::NAN; len];
                    let mut rng = SeededRng::new(seed);
                    rng.apply_normal_on(tier, &mut got, 0.5, sigma, |_, x| x);
                    assert_same_bits(&got, &want, &format!("normal, {what}"));
                    assert_eq!(rng.next_u64(), reference.next_u64(), "normal stream, {what}");

                    let mut want = vec![f32::NAN; len];
                    two_loop_fill_lognormal(&mut reference, &mut want, 0.0, sigma);
                    let mut got = vec![f32::NAN; len];
                    let exp = |_, x| crate::fastmath::exp(x);
                    rng.apply_normal_on(tier, &mut got, 0.0, sigma, exp);
                    assert_same_bits(&got, &want, &format!("lognormal, {what}"));
                    assert_eq!(rng.next_u64(), reference.next_u64(), "lognormal stream, {what}");
                    if sigma == 0.0 {
                        assert!(got.iter().all(|&f| f == 1.0), "σ = 0 factor, {what}");
                    }
                }
            }
        }
        for len in LENGTHS {
            let (mut want, mut got) = (vec![0.0f32; len], vec![0.0f32; len]);
            let (mut reference, mut rng) = (SeededRng::new(len as u64), SeededRng::new(len as u64));
            two_loop_fill_normal(&mut reference, &mut want, -1.0, 0.7);
            rng.fill_normal(&mut got, -1.0, 0.7);
            assert_same_bits(&got, &want, &format!("fill_normal, length {len}"));
            two_loop_fill_lognormal(&mut reference, &mut want, 0.1, 0.7);
            rng.fill_lognormal(&mut got, 0.1, 0.7);
            assert_same_bits(&got, &want, &format!("fill_lognormal, length {len}"));
            assert_eq!(rng.next_u64(), reference.next_u64(), "stream, length {len}");
        }
    }

    /// The update sees each element's old value: `f(w, x)` on every tier
    /// equals filling a buffer and combining it with `out` afterwards.
    #[test]
    fn apply_normal_passes_each_old_value_to_the_update() {
        let tiny = f32::from_bits(1);
        let old: Vec<f32> = (0..300)
            .map(|i| match i % 7 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => -0.0,
                3 => tiny,
                4 => f32::NEG_INFINITY,
                _ => i as f32 * 0.01 - 1.5,
            })
            .collect();
        let update = |w: f32, t: f32| w * crate::fastmath::exp(t);
        for tier in Tier::runnable(&Tier::ALL) {
            for sigma in [0.0f32, 0.3] {
                let mut factors = vec![0.0f32; old.len()];
                two_loop_fill_lognormal(&mut SeededRng::new(4), &mut factors, 0.0, sigma);
                let want: Vec<f32> = old.iter().zip(&factors).map(|(&w, &f)| w * f).collect();
                let mut got = old.clone();
                SeededRng::new(4).apply_normal_on(tier, &mut got, 0.0, sigma, update);
                assert_same_bits(&got, &want, &format!("{tier:?}, sigma {sigma}"));
                if sigma == 0.0 {
                    assert_same_bits(&got, &old, &format!("{tier:?}: σ = 0 leaves w as it is"));
                }
            }
        }
    }

    #[test]
    fn chance_frequency() {
        let mut rng = SeededRng::new(5);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2200..2800).contains(&hits), "hits {hits}");
    }

    #[test]
    fn permutation_is_permutation() {
        let mut rng = SeededRng::new(3);
        let mut p = rng.permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = SeededRng::new(4);
        let s = rng.sample_indices(100, 10);
        assert_eq!(s.len(), 10);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
    }

    #[test]
    fn fork_streams_are_independent_of_consumption() {
        let mut parent1 = SeededRng::new(42);
        let mut parent2 = SeededRng::new(42);
        let mut c1 = parent1.fork(0);
        let c2 = parent2.fork(0);
        // Consuming from one child must not change the other's stream.
        for _ in 0..10 {
            c1.unit();
        }
        let mut c1b = SeededRng::new(42).fork(0);
        for _ in 0..10 {
            c1b.unit();
        }
        assert_eq!(c1.unit(), c1b.unit());
        let _ = c2;
    }

    #[test]
    fn fork_distinct_streams_differ() {
        let mut parent = SeededRng::new(42);
        // fork() consumes parent state, so fork ids must come from one parent.
        let mut a = parent.fork(1);
        let mut parent = SeededRng::new(42);
        let mut b = parent.fork(2);
        let same = (0..32).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 4);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn chance_rejects_out_of_range() {
        SeededRng::new(0).chance(1.5);
    }
}
