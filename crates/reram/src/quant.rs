//! Uniform quantization shared by the DAC, ADC and cell-programming
//! models.

/// Largest magnitude [`round_fast`] handles: above 2²² the magic-constant
/// add loses integer resolution. Every converter grid the config
/// validator admits stays far below it (DAC ≤ 16 bits, ADC ≤ 24 would
/// exceed it, so slice quantization guards on it explicitly).
pub(crate) const ROUND_MAGIC_LIMIT: f32 = 4_194_304.0;

/// `f32::round` for non-negative `v < 2²²`, written so the loop
/// vectorizer can handle it. The magic-constant add/sub rounds to
/// nearest-ties-even (the value parks where the ulp is exactly 1), and
/// the compare/select bumps exact `.5` ties upward — bit-identical to
/// `round`'s half-away-from-zero on the whole supported domain, but four
/// branch-free ops instead of a ~10-cycle serial lowering. NaN
/// propagates (the tie compare is false for NaN).
#[inline(always)]
pub(crate) fn round_fast(v: f32) -> f32 {
    const MAGIC: f32 = 12_582_912.0; // 1.5 · 2²³
    let r = (v + MAGIC) - MAGIC;
    if v - r == 0.5 {
        r + 1.0
    } else {
        r
    }
}

/// Converts an integral `f32` in `[-32768, 32767]` to `i16` by reading
/// the integer straight out of the magic-add mantissa: biasing by 2¹⁵
/// and adding 1.5·2²³ parks the value where the mantissa's low 22 bits
/// ARE the biased integer. Bit-for-bit equal to `as i16` on that domain,
/// but pure add/and/sub ops the vectorizer handles — a float→small-int
/// `as` cast must saturate and gets scalarized.
#[inline(always)]
pub(crate) fn narrow_i16(c: f32) -> i16 {
    const MAGIC2: f32 = 12_582_912.0 + 32_768.0;
    (((c + MAGIC2).to_bits() & 0x3F_FFFF) as i32 - 32_768) as i16
}

/// [`narrow_i16`]'s wide sibling: converts an integral non-negative
/// `f32` below `2²² − 2¹⁵` to `u32` via the same magic-add mantissa
/// read. Bit-slice codes span `0..=2¹⁶` (16 weight bits plus the
/// rounding edge at `hi / step`), which overflows `i16` but sits well
/// inside this domain. Bit-for-bit equal to `as u32` there, without the
/// saturating-cast scalarization.
#[inline(always)]
pub(crate) fn narrow_code(c: f32) -> u32 {
    const MAGIC2: f32 = 12_582_912.0 + 32_768.0;
    (((c + MAGIC2).to_bits() & 0x3F_FFFF) as i32 - 32_768) as u32
}

/// A uniform mid-tread quantizer over a closed range.
///
/// # Example
///
/// ```
/// use healthmon_reram::Quantizer;
///
/// let q = Quantizer::new(0.0, 1.0, 2); // 4 levels: 0, 1/3, 2/3, 1
/// assert_eq!(q.quantize(0.4), 1.0 / 3.0);
/// assert_eq!(q.quantize(0.55), 2.0 / 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    lo: f32,
    hi: f32,
    levels: u32,
    // `(hi - lo) / (levels - 1)`, precomputed so the per-element hot path
    // pays one division instead of three. Pure function of the other
    // fields, so the derived PartialEq stays consistent.
    step: f32,
}

impl Quantizer {
    /// Creates a quantizer with `2^bits` levels spanning `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `bits` is 0 or > 24.
    pub fn new(lo: f32, hi: f32, bits: u32) -> Self {
        assert!(lo < hi, "quantizer range [{lo}, {hi}] inverted");
        assert!((1..=24).contains(&bits), "bits {bits} out of supported range 1..=24");
        let levels = 1u32 << bits;
        Quantizer { lo, hi, levels, step: (hi - lo) / (levels - 1) as f32 }
    }

    /// Number of representable levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// The step between adjacent levels.
    pub fn step(&self) -> f32 {
        self.step
    }

    /// Snaps `v` to the nearest representable level (values outside the
    /// range clamp to the endpoints).
    pub fn quantize(&self, v: f32) -> f32 {
        let clamped = v.clamp(self.lo, self.hi);
        let idx = ((clamped - self.lo) / self.step).round();
        self.lo + idx * self.step
    }

    /// The level index `v` snaps to.
    pub fn index_of(&self, v: f32) -> u32 {
        let clamped = v.clamp(self.lo, self.hi);
        ((clamped - self.lo) / self.step).round() as u32
    }

    /// Quantizes a slice in place. Bit-identical to mapping
    /// [`Self::quantize`] over the slice, but grids with fewer than 2²²
    /// levels (every converter the config validator admits) take a
    /// branch-free `round_fast` loop the compiler can vectorize instead
    /// of `f32::round`'s serial scalar lowering.
    #[inline(always)]
    pub fn quantize_slice(&self, values: &mut [f32]) {
        if (self.levels - 1) as f32 >= ROUND_MAGIC_LIMIT {
            for v in values {
                *v = self.quantize(*v);
            }
            return;
        }
        for v in values {
            let clamped = (*v).clamp(self.lo, self.hi);
            let idx = round_fast((clamped - self.lo) / self.step);
            *v = self.lo + idx * self.step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_are_exact() {
        let q = Quantizer::new(-1.0, 1.0, 3);
        assert_eq!(q.quantize(-1.0), -1.0);
        assert_eq!(q.quantize(1.0), 1.0);
        assert_eq!(q.quantize(-5.0), -1.0); // clamps
        assert_eq!(q.quantize(5.0), 1.0);
    }

    #[test]
    fn idempotent() {
        let q = Quantizer::new(0.0, 2.0, 4);
        for i in 0..100 {
            let v = i as f32 * 0.02;
            let once = q.quantize(v);
            assert_eq!(q.quantize(once), once);
        }
    }

    #[test]
    fn error_bounded_by_half_step() {
        let q = Quantizer::new(0.0, 1.0, 5);
        let half = q.step() / 2.0;
        for i in 0..=100 {
            let v = i as f32 / 100.0;
            assert!((q.quantize(v) - v).abs() <= half + 1e-6);
        }
    }

    #[test]
    fn monotone() {
        let q = Quantizer::new(0.0, 1.0, 3);
        let mut prev = f32::NEG_INFINITY;
        for i in 0..=50 {
            let v = q.quantize(i as f32 / 50.0);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn slice_quantization() {
        let q = Quantizer::new(0.0, 1.0, 1);
        let mut vals = vec![0.2, 0.7, 0.5];
        q.quantize_slice(&mut vals);
        assert_eq!(vals, vec![0.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn rejects_inverted_range() {
        Quantizer::new(1.0, 0.0, 4);
    }

    #[test]
    fn narrow_code_matches_as_cast_on_the_code_domain() {
        // Exhaustive over the whole bit-slice code range, including the
        // 2¹⁶ rounding edge that overflows i16.
        for code in 0..=65_536u32 {
            let f = code as f32;
            assert_eq!(narrow_code(f), f as u32, "code {code}");
        }
    }
}
