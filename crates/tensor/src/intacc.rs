//! Integer-domain accumulation kernels for quantized crossbar emulation.
//!
//! A ReRAM tile that quantizes its inputs through a DAC and stores
//! cell-resolution conductance codes computes, per bit line, an integer
//! dot product: `acc_j = Σ_i x_i · w_ij` with `x_i` a DAC level index and
//! `w_ij` a signed differential conductance code. This module provides
//! that accumulate as a row-block kernel over an `i32` accumulator, with
//! a runtime-dispatched AVX2 variant and a portable scalar fallback.
//!
//! # Bit-exactness
//!
//! Integer addition is associative, so — unlike the `f32` GEMM in
//! [`crate::Tensor::matmul`], which must pin its accumulation order — the
//! AVX2 and scalar kernels are bit-identical by construction, and callers
//! may split work across threads or row blocks freely as long as every
//! `(i, j)` product is added exactly once. Callers are responsible for
//! guaranteeing the accumulator cannot overflow (the crossbar layer gates
//! the integer path on `max_code · max_level · rows` staying far below
//! `i32::MAX`).

use healthmon_telemetry as tel;

// Dispatch tallies mirror `gemm.row_blocks.*`: which kernel ran is a
// property of the host CPU, not of the computation, so the counts are
// Volatile (they differ between AVX2 and non-AVX2 hosts).
static I32_BLOCKS_AVX2: tel::Counter =
    tel::Counter::new("gemm.i32_blocks.avx2", tel::Stability::Volatile);
static I32_BLOCKS_SCALAR: tel::Counter =
    tel::Counter::new("gemm.i32_blocks.scalar", tel::Stability::Volatile);

/// Width granularity of the integer kernels: weight-code rows must be
/// padded to a multiple of this many columns so the vector kernel never
/// needs a masked tail.
pub const LANES: usize = 8;

/// Whether the running CPU supports AVX2 (checked once per process).
#[cfg(target_arch = "x86_64")]
pub fn avx2_available() -> bool {
    static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// Whether the running CPU supports AVX2 (always false off x86-64).
#[cfg(not(target_arch = "x86_64"))]
pub fn avx2_available() -> bool {
    false
}

/// Accumulates one row block of the integer crossbar product:
/// `acc[j] += Σ_i x[i] · w[i·width + j]` for every `j < width`.
///
/// `x` holds one DAC code per word line of the block, `w` the signed
/// conductance codes of those rows laid out row-major at `width` columns
/// (zero-padded past the logical column count), and `acc` the running
/// bit-line accumulator.
///
/// # Panics
///
/// Panics if `width` is not a multiple of [`LANES`], `acc.len() != width`,
/// or `w.len() != x.len() * width`.
pub fn accumulate_rows(x: &[i32], w: &[i16], width: usize, acc: &mut [i32]) {
    assert!(width.is_multiple_of(LANES), "width {width} must be a multiple of {LANES}");
    assert_eq!(acc.len(), width, "accumulator width mismatch");
    assert_eq!(w.len(), x.len() * width, "weight-code block shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        I32_BLOCKS_AVX2.inc();
        // SAFETY: `avx2_available()` verified CPU support; the asserts
        // above establish the exact bounds the vector loop walks.
        unsafe { accumulate_rows_avx2(x, w, width, acc) };
        return;
    }
    I32_BLOCKS_SCALAR.inc();
    for (&xi, w_row) in x.iter().zip(w.chunks_exact(width)) {
        for (a, &wv) in acc.iter_mut().zip(w_row) {
            *a += xi * wv as i32;
        }
    }
}

/// Four-batch-row variant of [`accumulate_rows`]: the same row block of
/// weight codes accumulated against four independent DAC-code vectors in
/// one sweep, so each `i16 → i32` weight load is amortized over four
/// products. `acc` holds the four accumulators back to back
/// (`acc[b·width + j]` for batch row `b`).
///
/// Integer addition is exact, so the result is bit-identical to four
/// separate [`accumulate_rows`] calls — callers may mix the two freely
/// (e.g. a blocked main loop with a scalar remainder).
///
/// # Panics
///
/// Panics if `width` is not a multiple of [`LANES`], the four DAC-code
/// slices differ in length, `acc.len() != 4 * width`, or
/// `w.len() != x[0].len() * width`.
pub fn accumulate_rows_x4(x: [&[i32]; 4], w: &[i16], width: usize, acc: &mut [i32]) {
    assert!(width.is_multiple_of(LANES), "width {width} must be a multiple of {LANES}");
    assert_eq!(acc.len(), 4 * width, "accumulator width mismatch");
    let rows = x[0].len();
    assert!(x.iter().all(|xi| xi.len() == rows), "DAC-code rows differ in length");
    assert_eq!(w.len(), rows * width, "weight-code block shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        I32_BLOCKS_AVX2.add(4);
        // SAFETY: `avx2_available()` verified CPU support; the asserts
        // above establish the exact bounds the vector loop walks.
        unsafe { accumulate_rows_x4_avx2(x, w, width, acc) };
        return;
    }
    I32_BLOCKS_SCALAR.add(4);
    for (i, w_row) in w.chunks_exact(width).enumerate() {
        for (b, xb) in x.iter().enumerate() {
            let xi = xb[i];
            for (a, &wv) in acc[b * width..(b + 1) * width].iter_mut().zip(w_row) {
                *a += xi * wv as i32;
            }
        }
    }
}

/// Packs the signed codes of two word lines into one pair word, the
/// layout [`accumulate_col_pairs`] reads its weights in: `first` in the
/// low 16 bits, `second` in the high 16 bits.
pub fn pair_word(first: i16, second: i16) -> i32 {
    i32::from(first as u16) | (i32::from(second) << 16)
}

/// Column-layout sibling of [`accumulate_rows`], for products whose
/// inputs are the columns of a patch matrix: the vector lanes run over
/// `n` input columns instead of over bit lines, and word lines go two at
/// a time as 16-bit codes.
///
/// `x` holds one row of 16-bit input codes per word line, `x_stride`
/// apart, of which columns `[0, n)` are read; `w` holds the block's
/// signed conductance codes as pair words ([`pair_word`]), `lines` per
/// pair of word lines; `acc` holds one row of `n` accumulators per bit
/// line. For every bit line `j < lines` and column `p < n`, with `q`
/// running over the `w.len() / lines` pairs:
/// `acc[j·n + p] += Σ_q x[2q·x_stride + p]·lo(w[q·lines + j])
///                  + x[(2q+1)·x_stride + p]·hi(w[q·lines + j])`.
///
/// A crossbar tile running a convolution has one bit line per filter
/// (6–16 in the zoo) and one input column per patch (thousands), so
/// lanes over patches stay full where lanes over bit lines would idle.
/// Integer addition is exact, so the result is bit-identical to
/// [`accumulate_rows`] over the transposed inputs. As for the other
/// kernels, the caller keeps every sum inside `i32` (see the module docs).
///
/// # Panics
///
/// Panics if `lines` is zero, `w.len()` is not a multiple of `lines`,
/// `acc.len() != lines * n`, or `x` is too short for the block's rows.
pub fn accumulate_col_pairs(
    x: &[i16],
    x_stride: usize,
    n: usize,
    w: &[i32],
    lines: usize,
    acc: &mut [i32],
) {
    assert!(lines > 0 && w.len().is_multiple_of(lines), "pair-word block shape mismatch");
    assert_eq!(acc.len(), lines * n, "accumulator shape mismatch");
    let rows = 2 * (w.len() / lines);
    if rows == 0 || n == 0 {
        return;
    }
    assert!(n <= x_stride && x.len() >= (rows - 1) * x_stride + n, "input-code block too short");
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        I32_BLOCKS_AVX2.inc();
        // SAFETY: `avx2_available()` verified CPU support; the asserts
        // above establish the exact bounds the vector loops walk.
        unsafe { accumulate_col_pairs_avx2(x, x_stride, n, w, lines, acc) };
        return;
    }
    I32_BLOCKS_SCALAR.inc();
    col_pairs_scalar(x, x_stride, 0, n, w, lines, 0, lines, acc);
}

/// The portable [`accumulate_col_pairs`] loop over columns `[p0, n)` of
/// bit lines `[j0, j1)` (bounds checked by the caller).
#[allow(clippy::too_many_arguments)]
fn col_pairs_scalar(
    x: &[i16],
    x_stride: usize,
    p0: usize,
    n: usize,
    w: &[i32],
    lines: usize,
    j0: usize,
    j1: usize,
    acc: &mut [i32],
) {
    for (q, pairs) in w.chunks_exact(lines).enumerate() {
        let first = &x[2 * q * x_stride..];
        let second = &x[(2 * q + 1) * x_stride..];
        for j in j0..j1 {
            let (lo, hi) = (i32::from(pairs[j] as i16), pairs[j] >> 16);
            for p in p0..n {
                acc[j * n + p] += i32::from(first[p]) * lo + i32::from(second[p]) * hi;
            }
        }
    }
}

/// [`accumulate_col_pairs`] on AVX2: bit lines in groups of four, each
/// group's accumulators held in registers over 16 columns while the row
/// pairs stream past. Interleaving two rows' codes makes each
/// `vpmaddwd` two exact multiply-adds per lane, sixteen per instruction;
/// the columns past the last full 16 run the portable loop. Same integer
/// results as the scalar loop, bit for bit.
///
/// # Safety
///
/// The CPU must support AVX2, and the arguments must pass the checks of
/// [`accumulate_col_pairs`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_col_pairs_avx2(
    x: &[i16],
    x_stride: usize,
    n: usize,
    w: &[i32],
    lines: usize,
    acc: &mut [i32],
) {
    let mut j = 0;
    while j + 4 <= lines {
        // SAFETY: this function's contract, and bit lines j..j + 4 lie
        // inside `lines`.
        unsafe { col_pairs_group_avx2::<4>(x, x_stride, n, w, lines, j, acc) };
        j += 4;
    }
    // SAFETY (all arms): this function's contract, and each group ends at
    // `lines`.
    match lines - j {
        3 => unsafe { col_pairs_group_avx2::<3>(x, x_stride, n, w, lines, j, acc) },
        2 => unsafe { col_pairs_group_avx2::<2>(x, x_stride, n, w, lines, j, acc) },
        1 => unsafe { col_pairs_group_avx2::<1>(x, x_stride, n, w, lines, j, acc) },
        _ => {}
    }
    let tail = n - n % 16;
    col_pairs_scalar(x, x_stride, tail, n, w, lines, 0, lines, acc);
}

/// Bit lines `[j0, j0 + J)` of [`accumulate_col_pairs_avx2`] over the
/// full 16-column blocks.
///
/// # Safety
///
/// The CPU must support AVX2, the arguments must pass the checks of
/// [`accumulate_col_pairs`], and `j0 + J <= lines`.
#[cfg(target_arch = "x86_64")]
// `jj` indexes the register arrays and the weight row at once.
#[allow(clippy::needless_range_loop)]
#[target_feature(enable = "avx2")]
unsafe fn col_pairs_group_avx2<const J: usize>(
    x: &[i16],
    x_stride: usize,
    n: usize,
    w: &[i32],
    lines: usize,
    j0: usize,
    acc: &mut [i32],
) {
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16,
        _mm256_permute2x128_si256, _mm256_set1_epi32, _mm256_setzero_si256, _mm256_storeu_si256,
        _mm256_unpackhi_epi16, _mm256_unpacklo_epi16,
    };
    let pairs = w.len() / lines;
    let xp = x.as_ptr();
    let ap = acc.as_mut_ptr();
    for p in (0..n - n % 16).step_by(16) {
        // SAFETY: every block has p + 16 <= n. The loads read x from
        // 2q·x_stride + p to (2q + 1)·x_stride + p + 16 for q < pairs,
        // inside the (2·pairs − 1)·x_stride + n codes the caller checked;
        // the accumulator accesses stay inside row j0 + jj < lines of the
        // lines·n accumulators.
        unsafe {
            // Within each 128-bit half, `lo` collects columns 0–3 (8–11)
            // and `hi` columns 4–7 (12–15) of the block.
            let mut lo = [_mm256_setzero_si256(); J];
            let mut hi = [_mm256_setzero_si256(); J];
            for q in 0..pairs {
                let a = _mm256_loadu_si256(xp.add(2 * q * x_stride + p) as *const __m256i);
                let b = _mm256_loadu_si256(xp.add((2 * q + 1) * x_stride + p) as *const __m256i);
                let (xl, xh) = (_mm256_unpacklo_epi16(a, b), _mm256_unpackhi_epi16(a, b));
                let words = &w[q * lines + j0..q * lines + j0 + J];
                for jj in 0..J {
                    let wv = _mm256_set1_epi32(words[jj]);
                    lo[jj] = _mm256_add_epi32(lo[jj], _mm256_madd_epi16(xl, wv));
                    hi[jj] = _mm256_add_epi32(hi[jj], _mm256_madd_epi16(xh, wv));
                }
            }
            for jj in 0..J {
                let dst = ap.add((j0 + jj) * n + p);
                let first = _mm256_permute2x128_si256::<0x20>(lo[jj], hi[jj]);
                let second = _mm256_permute2x128_si256::<0x31>(lo[jj], hi[jj]);
                let old0 = _mm256_loadu_si256(dst as *const __m256i);
                let old1 = _mm256_loadu_si256(dst.add(8) as *const __m256i);
                _mm256_storeu_si256(dst as *mut __m256i, _mm256_add_epi32(old0, first));
                _mm256_storeu_si256(dst.add(8) as *mut __m256i, _mm256_add_epi32(old1, second));
            }
        }
    }
}

/// [`accumulate_rows_x4`] on AVX2: one widened weight load feeds four
/// broadcast-multiply-adds, quadrupling the arithmetic per memory access.
/// Same integer ops as the scalar loop, so results match bit-for-bit.
#[cfg(target_arch = "x86_64")]
// The row index addresses all four batch slices at once; an iterator
// chain over one of them would obscure the symmetry.
#[allow(clippy::needless_range_loop)]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_rows_x4_avx2(x: [&[i32]; 4], w: &[i16], width: usize, acc: &mut [i32]) {
    use core::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_cvtepi16_epi32, _mm256_loadu_si256,
        _mm256_mullo_epi32, _mm256_set1_epi32, _mm256_storeu_si256, _mm_loadu_si128,
    };
    let rows = x[0].len();
    for j in (0..width).step_by(LANES) {
        unsafe {
            let p = acc.as_mut_ptr();
            let mut a0 = _mm256_loadu_si256(p.add(j) as *const __m256i);
            let mut a1 = _mm256_loadu_si256(p.add(width + j) as *const __m256i);
            let mut a2 = _mm256_loadu_si256(p.add(2 * width + j) as *const __m256i);
            let mut a3 = _mm256_loadu_si256(p.add(3 * width + j) as *const __m256i);
            for i in 0..rows {
                let wv = _mm_loadu_si128(w.as_ptr().add(i * width + j) as *const __m128i);
                let wi = _mm256_cvtepi16_epi32(wv);
                a0 = _mm256_add_epi32(a0, _mm256_mullo_epi32(wi, _mm256_set1_epi32(x[0][i])));
                a1 = _mm256_add_epi32(a1, _mm256_mullo_epi32(wi, _mm256_set1_epi32(x[1][i])));
                a2 = _mm256_add_epi32(a2, _mm256_mullo_epi32(wi, _mm256_set1_epi32(x[2][i])));
                a3 = _mm256_add_epi32(a3, _mm256_mullo_epi32(wi, _mm256_set1_epi32(x[3][i])));
            }
            _mm256_storeu_si256(p.add(j) as *mut __m256i, a0);
            _mm256_storeu_si256(p.add(width + j) as *mut __m256i, a1);
            _mm256_storeu_si256(p.add(2 * width + j) as *mut __m256i, a2);
            _mm256_storeu_si256(p.add(3 * width + j) as *mut __m256i, a3);
        }
    }
}

/// [`accumulate_rows`] with each group of [`LANES`] bit lines held in one
/// 256-bit lane group: weight codes widen `i16 → i32` on load, multiply
/// against the broadcast DAC code, and add into the accumulator — the
/// identical integer operations as the scalar loop, so results match
/// bit-for-bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_rows_avx2(x: &[i32], w: &[i16], width: usize, acc: &mut [i32]) {
    use core::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_cvtepi16_epi32, _mm256_loadu_si256,
        _mm256_mullo_epi32, _mm256_set1_epi32, _mm256_storeu_si256, _mm_loadu_si128,
    };
    for j in (0..width).step_by(LANES) {
        unsafe {
            let mut accv = _mm256_loadu_si256(acc.as_ptr().add(j) as *const __m256i);
            for (i, &xi) in x.iter().enumerate() {
                let wv = _mm_loadu_si128(w.as_ptr().add(i * width + j) as *const __m128i);
                let wi = _mm256_cvtepi16_epi32(wv);
                accv = _mm256_add_epi32(accv, _mm256_mullo_epi32(wi, _mm256_set1_epi32(xi)));
            }
            _mm256_storeu_si256(acc.as_mut_ptr().add(j) as *mut __m256i, accv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeededRng;

    fn reference(x: &[i32], w: &[i16], width: usize, acc: &mut [i32]) {
        for (i, &xi) in x.iter().enumerate() {
            for j in 0..width {
                acc[j] += xi * w[i * width + j] as i32;
            }
        }
    }

    fn random_case(rows: usize, width: usize, seed: u64) -> (Vec<i32>, Vec<i16>) {
        let mut rng = SeededRng::new(seed);
        let x: Vec<i32> = (0..rows).map(|_| rng.uniform(0.0, 255.0) as i32).collect();
        let w: Vec<i16> =
            (0..rows * width).map(|_| rng.uniform(-255.0, 255.0) as i16).collect();
        (x, w)
    }

    #[test]
    fn matches_reference_on_odd_shapes() {
        for &(rows, width) in &[(1usize, 8usize), (3, 16), (32, 128), (17, 40), (128, 8)] {
            let (x, w) = random_case(rows, width, 7 + rows as u64);
            let mut got = vec![0i32; width];
            let mut want = vec![0i32; width];
            accumulate_rows(&x, &w, width, &mut got);
            reference(&x, &w, width, &mut want);
            assert_eq!(got, want, "rows={rows} width={width}");
        }
    }

    #[test]
    fn accumulates_on_top_of_existing_values() {
        let (x, w) = random_case(16, 24, 11);
        let mut got: Vec<i32> = (0..24).map(|j| j * 1000).collect();
        let mut want = got.clone();
        accumulate_rows(&x, &w, 24, &mut got);
        reference(&x, &w, 24, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn split_row_blocks_sum_to_whole() {
        // Accumulating [0, 13) then [13, 32) must equal one [0, 32) pass:
        // the contract that lets callers chunk by row block freely.
        let (x, w) = random_case(32, 48, 13);
        let mut whole = vec![0i32; 48];
        accumulate_rows(&x, &w, 48, &mut whole);
        let mut split = vec![0i32; 48];
        accumulate_rows(&x[..13], &w[..13 * 48], 48, &mut split);
        accumulate_rows(&x[13..], &w[13 * 48..], 48, &mut split);
        assert_eq!(whole, split);
    }

    #[test]
    fn negative_codes_and_extremes() {
        let x = vec![255, 0, 1, 255];
        let w: Vec<i16> = vec![
            255, -255, 0, 1, -1, 127, -128, 255, //
            -255, 255, 0, -1, 1, -127, 128, -255, //
            0, 0, 0, 0, 0, 0, 0, 0, //
            255, 255, -255, -255, 1, -1, 0, 127,
        ];
        let mut got = vec![0i32; 8];
        let mut want = vec![0i32; 8];
        accumulate_rows(&x, &w, 8, &mut got);
        reference(&x, &w, 8, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn rejects_unpadded_width() {
        accumulate_rows(&[1], &[0i16; 7], 7, &mut [0i32; 7]);
    }

    #[test]
    fn x4_matches_four_single_calls() {
        // The blocked kernel must be bit-identical to four independent
        // single-row accumulations — the contract that lets the crossbar
        // layer mix a blocked main loop with a scalar batch remainder.
        for &(rows, width) in &[(1usize, 8usize), (17, 40), (32, 128), (128, 8)] {
            let (_, w) = random_case(rows, width, 31 + rows as u64);
            let xs: Vec<Vec<i32>> = (0..4)
                .map(|b| random_case(rows, width, 100 + b as u64).0)
                .collect();
            let mut got: Vec<i32> = (0..4 * width).map(|j| j as i32 * 3).collect();
            let mut want = got.clone();
            accumulate_rows_x4([&xs[0], &xs[1], &xs[2], &xs[3]], &w, width, &mut got);
            for b in 0..4 {
                accumulate_rows(&xs[b], &w, width, &mut want[b * width..(b + 1) * width]);
            }
            assert_eq!(got, want, "rows={rows} width={width}");
        }
    }

    /// The column-pair product element by element, from separate
    /// per-row weight codes `w[i·lines + j]`.
    fn col_pairs_reference(
        x: &[i16],
        stride: usize,
        n: usize,
        w: &[i16],
        lines: usize,
        acc: &mut [i32],
    ) {
        for i in 0..w.len() / lines {
            for j in 0..lines {
                for p in 0..n {
                    acc[j * n + p] += i32::from(x[i * stride + p]) * i32::from(w[i * lines + j]);
                }
            }
        }
    }

    /// Pair words of per-row codes `w` (`rows` even, `lines` per row).
    fn pair_words(w: &[i16], lines: usize) -> Vec<i32> {
        let rows = w.len() / lines;
        (0..rows / 2)
            .flat_map(|q| (0..lines).map(move |j| (q, j)))
            .map(|(q, j)| pair_word(w[2 * q * lines + j], w[(2 * q + 1) * lines + j]))
            .collect()
    }

    fn random_codes(len: usize, lo: f32, hi: f32, seed: u64) -> Vec<i16> {
        let mut rng = SeededRng::new(seed);
        (0..len).map(|_| rng.uniform(lo, hi) as i16).collect()
    }

    #[test]
    fn pair_word_round_trips_both_halves() {
        for &(a, b) in &[(0i16, 0i16), (-1, 1), (255, -255), (-32768, 32767), (32767, -32768)] {
            let word = pair_word(a, b);
            assert_eq!((word as i16, (word >> 16) as i16), (a, b));
        }
    }

    #[test]
    fn col_pairs_match_reference_on_odd_shapes() {
        // Every group width (1–4 lines past the 4-line blocks), full
        // 16-column blocks plus scalar tails, a stride wider than n,
        // codes over the whole centered 16-bit range, and accumulation on
        // top of existing values.
        for &(rows, lines, n, stride) in &[
            (2usize, 1usize, 1usize, 1usize),
            (4, 6, 16, 16),
            (26, 6, 40, 57),
            (32, 16, 23, 23),
            (18, 19, 8, 9),
            (6, 7, 31, 40),
            (64, 12, 48, 48),
        ] {
            let w = random_codes(rows * lines, -255.0, 255.0, 50 + rows as u64);
            let x = random_codes(rows * stride, -32768.0, 32767.0, 60 + n as u64);
            let mut got: Vec<i32> = (0..lines * n).map(|v| v as i32 * 7 - 30).collect();
            let (mut scalar, mut want) = (got.clone(), got.clone());
            let pairs = pair_words(&w, lines);
            accumulate_col_pairs(&x, stride, n, &pairs, lines, &mut got);
            col_pairs_scalar(&x, stride, 0, n, &pairs, lines, 0, lines, &mut scalar);
            col_pairs_reference(&x, stride, n, &w, lines, &mut want);
            let what = format!("rows={rows} lines={lines} n={n} stride={stride}");
            assert_eq!(got, want, "{what}");
            assert_eq!(scalar, want, "{what} (portable loop)");
        }
    }

    #[test]
    fn col_pairs_equal_rows_over_the_transpose() {
        // The two layouts of one product: lanes over patches must give
        // the accumulators lanes over bit lines give, transposed.
        let (rows, width, lines, n) = (30usize, 16usize, 13usize, 37usize);
        let (_, w) = random_case(rows, width, 70);
        let (x, _) = random_case(rows * n, 8, 71);
        let x16: Vec<i16> = x.iter().map(|&v| v as i16).collect();
        let live: Vec<i16> = w.chunks_exact(width).flat_map(|row| row[..lines].to_vec()).collect();
        let mut cols = vec![0i32; lines * n];
        accumulate_col_pairs(&x16, n, n, &pair_words(&live, lines), lines, &mut cols);
        for p in 0..n {
            let column: Vec<i32> = (0..rows).map(|i| x[i * n + p]).collect();
            let mut row = vec![0i32; width];
            accumulate_rows(&column, &w, width, &mut row);
            for j in 0..lines {
                assert_eq!(cols[j * n + p], row[j], "patch {p} line {j}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "accumulator shape")]
    fn col_pairs_reject_short_accumulator() {
        accumulate_col_pairs(&[1; 16], 8, 8, &[0i32; 2], 2, &mut [0i32; 8]);
    }

    #[test]
    #[should_panic(expected = "accumulator width")]
    fn x4_rejects_short_accumulator() {
        let x = [1i32];
        accumulate_rows_x4([&x, &x, &x, &x], &[0i16; 8], 8, &mut [0i32; 8]);
    }
}
