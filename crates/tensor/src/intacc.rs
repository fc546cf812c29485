//! The integer-domain accumulation kernel of quantized crossbar emulation.
//!
//! A ReRAM tile that quantizes its inputs through a DAC and stores
//! cell-resolution conductance codes computes, per bit line, an integer
//! dot product: `acc_j = Σ_i x_i · w_ij` with `x_i` a DAC code and `w_ij`
//! a signed differential conductance code. This module provides that
//! accumulate as one column-layout kernel, [`accumulate_col_pairs`]: the
//! inputs arrive as one row of 16-bit codes per word line, the vector
//! lanes run over the input columns (a convolution's patches, or a dense
//! layer's batch), and the weights arrive two word lines to an `i32`
//! ([`pair_word`]). A runtime-dispatched AVX2 variant and a portable
//! scalar loop compute the same sums.
//!
//! # Bit-exactness
//!
//! Integer addition is associative, so — unlike the `f32` GEMM in
//! [`crate::Tensor::matmul`], which must pin its accumulation order — the
//! AVX2 and scalar kernels are bit-identical by construction, and callers
//! may split work across threads, row blocks or column blocks freely as
//! long as every `(i, j)` product is added exactly once. Each column's
//! sums depend on that column's inputs alone, so a caller may pad the
//! columns to whole vector blocks and ignore the padding's sums. Callers
//! are responsible for guaranteeing the accumulator cannot overflow (the
//! crossbar layer gates the integer path on `max_code · max_level · rows`
//! staying far below `i32::MAX`).

use crate::simd::Tier;
use healthmon_telemetry as tel;

// Dispatch tallies mirror `gemm.row_blocks.*`: which kernel ran is a
// property of the host CPU, not of the computation, so the counts are
// Volatile (they differ between AVX2 and non-AVX2 hosts).
static I32_BLOCKS_AVX2: tel::Counter =
    tel::Counter::new("gemm.i32_blocks.avx2", tel::Stability::Volatile);
static I32_BLOCKS_SCALAR: tel::Counter =
    tel::Counter::new("gemm.i32_blocks.scalar", tel::Stability::Volatile);

/// Whether the running CPU supports AVX2, the tier the vector kernel
/// needs: [`Tier::Avx2`] of the workspace's one CPU probe
/// ([`crate::simd`]).
pub fn avx2_available() -> bool {
    Tier::Avx2.supported()
}

/// Packs the signed codes of two word lines into one pair word, the
/// layout [`accumulate_col_pairs`] reads its weights in: `first` in the
/// low 16 bits, `second` in the high 16 bits.
pub fn pair_word(first: i16, second: i16) -> i32 {
    i32::from(first as u16) | (i32::from(second) << 16)
}

/// Accumulates one block of the integer crossbar product with the vector
/// lanes over `n` input columns, word lines two at a time as 16-bit codes.
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
/// lanes over patches stay full where lanes over bit lines would idle; a
/// dense layer's batch is padded to a multiple of 16 columns so the lanes
/// run whole. The caller keeps every sum inside `i32` (see the module
/// docs).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeededRng;

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

    /// Pair words of per-row codes `w` (`lines` per row), an odd last row
    /// paired with code 0.
    fn pair_words(w: &[i16], lines: usize) -> Vec<i32> {
        let rows = w.len() / lines;
        let code = move |r: usize, j: usize| if r < rows { w[r * lines + j] } else { 0 };
        (0..rows.div_ceil(2))
            .flat_map(|q| (0..lines).map(move |j| pair_word(code(2 * q, j), code(2 * q + 1, j))))
            .collect()
    }

    fn random_codes(len: usize, lo: f32, hi: f32, seed: u64) -> Vec<i16> {
        let mut rng = SeededRng::new(seed);
        (0..len).map(|_| rng.uniform(lo, hi) as i16).collect()
    }

    #[test]
    fn matches_reference_on_odd_shapes() {
        // Odd word-line counts: the last word line pairs with code 0, so
        // the spare input row it reads past the block adds nothing,
        // whatever codes that row holds.
        for &(rows, lines, n) in
            &[(1usize, 8usize, 16usize), (3, 16, 5), (17, 40, 33), (33, 6, 48), (127, 8, 17)]
        {
            let w = random_codes(rows * lines, -255.0, 255.0, 7 + rows as u64);
            let x = random_codes((rows + 1) * n, -32768.0, 32767.0, 17 + rows as u64);
            let mut got = vec![0i32; lines * n];
            let mut want = got.clone();
            accumulate_col_pairs(&x, n, n, &pair_words(&w, lines), lines, &mut got);
            col_pairs_reference(&x, n, n, &w, lines, &mut want);
            assert_eq!(got, want, "rows={rows} lines={lines} n={n}");
        }
    }

    #[test]
    fn accumulates_on_top_of_existing_values() {
        let (rows, lines, n) = (16usize, 24usize, 20usize);
        let w = random_codes(rows * lines, -255.0, 255.0, 11);
        let x = random_codes(rows * n, -128.0, 127.0, 12);
        let mut got: Vec<i32> = (0..lines * n).map(|v| v as i32 * 1000).collect();
        let mut want = got.clone();
        accumulate_col_pairs(&x, n, n, &pair_words(&w, lines), lines, &mut got);
        col_pairs_reference(&x, n, n, &w, lines, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn split_row_blocks_sum_to_whole() {
        // Accumulating word lines [0, 14) then [14, 32) must equal one
        // [0, 32) pass: the contract that lets callers chunk by row block
        // (an even split point keeps every pair whole).
        let (rows, lines, n) = (32usize, 48usize, 19usize);
        let w = pair_words(&random_codes(rows * lines, -255.0, 255.0, 13), lines);
        let x = random_codes(rows * n, -128.0, 127.0, 14);
        let mut whole = vec![0i32; lines * n];
        accumulate_col_pairs(&x, n, n, &w, lines, &mut whole);
        let mut split = vec![0i32; lines * n];
        accumulate_col_pairs(&x, n, n, &w[..7 * lines], lines, &mut split);
        accumulate_col_pairs(&x[14 * n..], n, n, &w[7 * lines..], lines, &mut split);
        assert_eq!(whole, split);
    }

    #[test]
    fn negative_codes_and_extremes() {
        // The widest centered input codes against the widest 8-bit-cell
        // weight codes, both signs, in both halves of a pair word.
        let extremes = [i16::MIN, i16::MAX, 0, -1, 1, 255, -255, 127];
        let x: Vec<i16> = (0..4 * 16).map(|i| extremes[i * 5 % 8]).collect();
        let w: Vec<i16> = vec![
            255, -255, 0, 1, -1, 127, -128, 255, //
            -255, 255, 0, -1, 1, -127, 128, -255, //
            0, 0, 0, 0, 0, 0, 0, 0, //
            255, 255, -255, -255, 1, -1, 0, 127,
        ];
        let mut got = vec![0i32; 8 * 16];
        let mut want = got.clone();
        accumulate_col_pairs(&x, 16, 16, &pair_words(&w, 8), 8, &mut got);
        col_pairs_reference(&x, 16, 16, &w, 8, &mut want);
        assert_eq!(got, want);
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
        // A dense product's layout: `batch` input rows transposed into
        // columns, padded to whole 16-lane blocks whose padding holds
        // arbitrary codes, plus the spare row. Each real column's sums
        // are its input row's dot products, whatever the padding holds.
        let (rows, lines) = (29usize, 13usize);
        let w = random_codes(rows * lines, -255.0, 255.0, 70);
        let words = pair_words(&w, lines);
        for batch in [1usize, 2, 3, 15, 16, 17, 33] {
            let lanes = batch.next_multiple_of(16);
            let inputs = random_codes(batch * rows, -128.0, 127.0, 71 + batch as u64);
            let mut x = random_codes((rows + 1) * lanes, -32768.0, 32767.0, 90 + batch as u64);
            for (b, row) in inputs.chunks_exact(rows).enumerate() {
                for (i, &v) in row.iter().enumerate() {
                    x[i * lanes + b] = v;
                }
            }
            let mut acc = vec![0i32; lines * lanes];
            accumulate_col_pairs(&x, lanes, lanes, &words, lines, &mut acc);
            for (b, row) in inputs.chunks_exact(rows).enumerate() {
                for j in 0..lines {
                    let dot: i32 =
                        row.iter().enumerate().map(|(i, &v)| i32::from(v) * i32::from(w[i * lines + j])).sum();
                    assert_eq!(acc[j * lanes + b], dot, "batch {batch} row {b} line {j}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "accumulator shape")]
    fn col_pairs_reject_short_accumulator() {
        accumulate_col_pairs(&[1; 16], 8, 8, &[0i32; 2], 2, &mut [0i32; 8]);
    }
}
