//! Matrix multiplication kernels.
//!
//! Three variants cover everything backprop needs: `A·B`, `Aᵀ·B`, and
//! `A·Bᵀ`. All three funnel into one register-tiled GEMM that reads the
//! row-major right operand in place: an `MR`×`NR` (4×16) tile keeps
//! eight AVX accumulators live and streams each `NR`-column strip of B
//! straight from its rows. Only the `n % NR` tail columns are
//! copied, into one zero-padded strip, so they run through the same
//! vector tile. `Aᵀ·B` and `A·Bᵀ` materialize the transposed operand
//! first. Large problems fan out across the persistent [`crate::pool`] by
//! row block.
//!
//! B is never packed. The workspace's products have few output rows (6
//! to 32 test patterns or conv filters against an im2col matrix that can
//! be 10k columns wide), so a packed copy of B would be read only
//! `⌈m/MR⌉` times, and copying it cost more than the arithmetic.
//!
//! # Bit-exactness
//!
//! Each output element is produced by a single `f32` accumulator walking
//! the shared dimension in ascending order — exactly the naive triple
//! loop's order. Tiling only changes which elements are computed
//! together, never the float operation order, so the kernels are
//! bit-identical to the naive reference, and row-parallel execution is
//! bit-identical at any thread count (chunks own disjoint output rows).
//! Multiply and add stay separate operations (never a fused FMA). The
//! kernels also make no zero-skip shortcuts: `0.0 · NaN` and `0.0 · ∞`
//! contribute `NaN` to the accumulator exactly as IEEE 754 (and the naive
//! loop) demand.

use crate::pool;
use crate::Tensor;
use healthmon_telemetry as tel;

// GEMM call and flop counts are per-work-item and thread-count-invariant
// (Stable); the chosen fan-out and per-block kernel dispatch counts vary
// with `HEALTHMON_THREADS` (Volatile).
static GEMM_CALLS: tel::Counter = tel::Counter::new("gemm.calls", tel::Stability::Stable);
static GEMM_FLOPS: tel::Counter = tel::Counter::new("gemm.flops", tel::Stability::Stable);
static GEMM_THREADS: tel::Histogram =
    tel::Histogram::new("gemm.threads", tel::Stability::Volatile);
static GEMM_BLOCKS_AVX: tel::Counter =
    tel::Counter::new("gemm.row_blocks.avx", tel::Stability::Volatile);
static GEMM_BLOCKS_SCALAR: tel::Counter =
    tel::Counter::new("gemm.row_blocks.scalar", tel::Stability::Volatile);
static MATVEC_CALLS: tel::Counter = tel::Counter::new("gemm.matvec_calls", tel::Stability::Stable);

/// Register-tile height: output rows carried per kernel call.
const MR: usize = 4;
/// Register-tile width: output columns per kernel call (two 8-lane vectors).
const NR: usize = 16;

/// Below this many multiply-accumulates, threading costs more than it saves.
const PAR_THRESHOLD: usize = 1 << 18;

fn thread_count(rows: usize, work: usize) -> usize {
    if work < PAR_THRESHOLD {
        return 1;
    }
    pool::max_threads().min(rows).max(1)
}

/// The right operand as the kernel reads it: row-major `b` (`k×n`) in
/// place for every full `NR`-column strip, and a zero-padded `k×NR` copy
/// of the `n % NR` tail columns, so the tail runs through the same vector
/// tile instead of a scalar loop.
struct Rhs<'a> {
    b: &'a [f32],
    n: usize,
    tail: Vec<f32>,
}

impl<'a> Rhs<'a> {
    fn new(b: &'a [f32], k: usize, n: usize) -> Rhs<'a> {
        let full = n - n % NR;
        let mut tail = Vec::new();
        if full < n {
            tail = vec![0.0f32; k * NR];
            for (dst, src) in tail.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
                dst[..n - full].copy_from_slice(&src[full..]);
            }
        }
        Rhs { b, n, tail }
    }

    /// Every column strip as `(b from its first column, row stride,
    /// first output column, columns to store)`.
    fn strips(&self) -> impl Iterator<Item = (&[f32], usize, usize, usize)> {
        let full = self.n - self.n % NR;
        let body = (0..full).step_by(NR).map(move |j0| (&self.b[j0..], self.n, j0, NR));
        let tail = (full < self.n).then(|| (&self.tail[..], NR, full, self.n - full));
        body.chain(tail)
    }
}

/// AVX kernel: each output element owns one lane of a 256-bit accumulator
/// that walks `k` in ascending order with explicit `mul` + `add` (never
/// fused), so every lane performs the naive loop's IEEE 754 operation
/// sequence and results stay bit-identical to the portable path.
#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{Rhs, MR, NR};
    use core::arch::x86_64::{
        _mm256_add_ps, _mm256_broadcast_ss, _mm256_loadu_ps, _mm256_mul_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    /// Whether the running CPU supports AVX (checked once per process).
    pub fn available() -> bool {
        static AVX: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVX.get_or_init(|| std::arch::is_x86_feature_detected!("avx"))
    }

    /// One `ROWS×NR` register tile: `a` holds the tile's rows (`ROWS×k`,
    /// row-major), `b` the strip from its first column with row stride
    /// `ldb`. Stores the first `w` columns of each row into `c` (row
    /// stride `ldc`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX.
    #[target_feature(enable = "avx")]
    unsafe fn tile<const ROWS: usize>(
        a: &[f32],
        k: usize,
        b: &[f32],
        ldb: usize,
        c: &mut [f32],
        ldc: usize,
        w: usize,
    ) {
        assert!(a.len() >= ROWS * k && (k == 0 || b.len() >= (k - 1) * ldb + NR) && w <= NR);
        let (a, b) = (a.as_ptr(), b.as_ptr());
        let mut acc = [[_mm256_setzero_ps(); 2]; ROWS];
        for p in 0..k {
            // SAFETY: the assert bounds every read: row `r < ROWS` of `a`
            // ends by `ROWS·k`, and B row `p < k` spans `NR` lanes from
            // `p·ldb`.
            unsafe {
                let b_lo = _mm256_loadu_ps(b.add(p * ldb));
                let b_hi = _mm256_loadu_ps(b.add(p * ldb + NR / 2));
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let a_v = _mm256_broadcast_ss(&*a.add(r * k + p));
                    acc_r[0] = _mm256_add_ps(acc_r[0], _mm256_mul_ps(a_v, b_lo));
                    acc_r[1] = _mm256_add_ps(acc_r[1], _mm256_mul_ps(a_v, b_hi));
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let dst = &mut c[r * ldc..r * ldc + w];
            if w == NR {
                // SAFETY: `dst` is exactly the two 8-lane stores wide.
                unsafe {
                    _mm256_storeu_ps(dst.as_mut_ptr(), acc_r[0]);
                    _mm256_storeu_ps(dst.as_mut_ptr().add(NR / 2), acc_r[1]);
                }
            } else {
                let mut buf = [0.0f32; NR];
                // SAFETY: `buf` is exactly the two 8-lane stores wide.
                unsafe {
                    _mm256_storeu_ps(buf.as_mut_ptr(), acc_r[0]);
                    _mm256_storeu_ps(buf.as_mut_ptr().add(NR / 2), acc_r[1]);
                }
                dst.copy_from_slice(&buf[..w]);
            }
        }
    }

    /// Output rows `[r0, r1)` into `c` (those rows only), strip by strip:
    /// `MR`-row tiles, then one tile of the remaining `(r1 − r0) % MR`
    /// rows.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX.
    #[target_feature(enable = "avx")]
    pub unsafe fn gemm_rows(a: &[f32], rhs: &Rhs, c: &mut [f32], r0: usize, r1: usize, k: usize) {
        let n = rhs.n;
        for (b, ldb, j0, w) in rhs.strips() {
            let mut i = r0;
            while i + MR <= r1 {
                let c = &mut c[(i - r0) * n + j0..];
                // SAFETY: AVX support is this function's own precondition.
                unsafe { tile::<MR>(&a[i * k..], k, b, ldb, c, n, w) };
                i += MR;
            }
            if i < r1 {
                let (a, c) = (&a[i * k..], &mut c[(i - r0) * n + j0..]);
                // SAFETY: as above.
                unsafe {
                    match r1 - i {
                        3 => tile::<3>(a, k, b, ldb, c, n, w),
                        2 => tile::<2>(a, k, b, ldb, c, n, w),
                        _ => tile::<1>(a, k, b, ldb, c, n, w),
                    }
                }
            }
        }
    }
}

/// Sequential GEMM for output rows `[r0, r1)`: `c` holds those rows only
/// (`(r1-r0)×n`, zero-initialized), `a` is the full `m×k` left operand.
fn gemm_rows(a: &[f32], rhs: &Rhs, c: &mut [f32], r0: usize, r1: usize, k: usize) {
    #[cfg(target_arch = "x86_64")]
    if avx::available() {
        GEMM_BLOCKS_AVX.inc();
        // SAFETY: `avx::available()` verified CPU support.
        unsafe { avx::gemm_rows(a, rhs, c, r0, r1, k) };
        return;
    }
    GEMM_BLOCKS_SCALAR.inc();
    gemm_rows_portable(a, rhs.b, c, r0, k, rhs.n);
}

/// Portable kernel: each output element accumulates in place in `c`
/// (starting from its zero), over `k` in ascending order — the same
/// per-element operation sequence as the AVX tiles and the naive loop.
fn gemm_rows_portable(a: &[f32], b: &[f32], c: &mut [f32], r0: usize, k: usize, n: usize) {
    for (ci, c_row) in c.chunks_exact_mut(n).enumerate() {
        let a_row = &a[(r0 + ci) * k..(r0 + ci + 1) * k];
        for (&a_ip, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_ip * b_v;
            }
        }
    }
}

/// Shared driver: multiplies row-major `a` (`m×k`) by row-major `b`
/// (`k×n`), splitting output rows across the pool in `MR`-aligned chunks
/// when `threads > 1`.
fn gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, threads: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    if m * n == 0 {
        return out;
    }
    GEMM_CALLS.inc();
    GEMM_FLOPS.add(2 * (m * k * n) as u64);
    let threads = threads.clamp(1, m);
    GEMM_THREADS.record(threads as u64);
    if k == 0 {
        return out;
    }
    let rhs = Rhs::new(b, k, n);
    if threads <= 1 {
        gemm_rows(a, &rhs, &mut out, 0, m, k);
    } else {
        let rows_per = m.div_ceil(threads).next_multiple_of(MR);
        pool::run_chunks(&mut out, rows_per * n, |ci, chunk| {
            let r0 = ci * rows_per;
            let r1 = (r0 + rows_per).min(m);
            gemm_rows(a, &rhs, chunk, r0, r1, k);
        });
    }
    out
}

impl Tensor {
    /// Matrix product `self · rhs` for 2-D tensors (`m×k` times `k×n`).
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions differ.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let threads = if self.ndim() == 2 && rhs.ndim() == 2 {
            let (m, k) = (self.shape()[0], self.shape()[1]);
            thread_count(m, m * k * rhs.shape()[1])
        } else {
            1 // shape asserts below produce the real error
        };
        self.matmul_with_threads(rhs, threads)
    }

    /// [`Tensor::matmul`] with an explicit thread count (clamped to
    /// `[1, m]`) — for determinism tests and callers that must bound their
    /// parallelism. Results are bit-identical at any thread count.
    pub fn matmul_with_threads(&self, rhs: &Tensor, threads: usize) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D, got {:?}", self.shape());
        assert_eq!(rhs.ndim(), 2, "matmul rhs must be 2-D, got {:?}", rhs.shape());
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
        let out = gemm(self.as_slice(), rhs.as_slice(), m, k, n, threads);
        Tensor::from_vec(out, &[m, n]).expect("matmul output shape is consistent by construction")
    }

    /// Matrix product `selfᵀ · rhs` (`k×m`ᵀ times `k×n` → `m×n`).
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the shared dimension differs.
    pub fn matmul_at(&self, rhs: &Tensor) -> Tensor {
        let threads = if self.ndim() == 2 && rhs.ndim() == 2 {
            let (k, m) = (self.shape()[0], self.shape()[1]);
            thread_count(m, m * k * rhs.shape()[1])
        } else {
            1
        };
        self.matmul_at_with_threads(rhs, threads)
    }

    /// [`Tensor::matmul_at`] with an explicit thread count; bit-identical
    /// at any thread count.
    pub fn matmul_at_with_threads(&self, rhs: &Tensor, threads: usize) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_at lhs must be 2-D");
        assert_eq!(rhs.ndim(), 2, "matmul_at rhs must be 2-D");
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        assert_eq!(k, k2, "matmul_at shared dimension mismatch: {k} vs {k2}");
        // Materializing the m×k transpose costs O(mk) — negligible next to
        // the O(mkn) product — and buys the contiguous-row fast path.
        let at = self.transpose();
        let out = gemm(at.as_slice(), rhs.as_slice(), m, k, n, threads);
        Tensor::from_vec(out, &[m, n]).expect("matmul_at output shape is consistent")
    }

    /// Matrix product `self · rhsᵀ` (`m×k` times `n×k`ᵀ → `m×n`).
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the shared dimension differs.
    pub fn matmul_bt(&self, rhs: &Tensor) -> Tensor {
        let threads = if self.ndim() == 2 && rhs.ndim() == 2 {
            let (m, k) = (self.shape()[0], self.shape()[1]);
            thread_count(m, m * k * rhs.shape()[0])
        } else {
            1
        };
        self.matmul_bt_with_threads(rhs, threads)
    }

    /// [`Tensor::matmul_bt`] with an explicit thread count; bit-identical
    /// at any thread count.
    pub fn matmul_bt_with_threads(&self, rhs: &Tensor, threads: usize) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_bt lhs must be 2-D");
        assert_eq!(rhs.ndim(), 2, "matmul_bt rhs must be 2-D");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (rhs.shape()[0], rhs.shape()[1]);
        assert_eq!(k, k2, "matmul_bt shared dimension mismatch: {k} vs {k2}");
        // The kernel reads its right operand row-major, so one operand is
        // transposed first: Bᵀ (`n·k` elements), or, when A has fewer
        // rows, Aᵀ (`m·k`), computing `Cᵀ = B·Aᵀ` and transposing that
        // `n×m` result. Either way each element sums the same products in
        // the same order, and IEEE multiplication is commutative.
        if m < n {
            let ct = gemm(rhs.as_slice(), self.transpose().as_slice(), n, k, m, threads);
            Tensor::from_vec(ct, &[n, m]).expect("matmul_bt output shape is consistent").transpose()
        } else {
            let out = gemm(self.as_slice(), rhs.transpose().as_slice(), m, k, n, threads);
            Tensor::from_vec(out, &[m, n]).expect("matmul_bt output shape is consistent")
        }
    }

    /// Matrix–vector product `self · v` for a 2-D tensor and 1-D vector.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D, `v` is not 1-D, or dimensions mismatch.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matvec matrix must be 2-D");
        assert_eq!(v.ndim(), 1, "matvec vector must be 1-D");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        assert_eq!(k, v.len(), "matvec dimension mismatch: {k} vs {}", v.len());
        MATVEC_CALLS.inc();
        let a = self.as_slice();
        let x = v.as_slice();
        let mut out = vec![0.0f32; m];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &a[i * k..(i + 1) * k];
            *o = row.iter().zip(x).map(|(&a, &b)| a * b).sum();
        }
        Tensor::from_vec(out, &[m]).expect("matvec output shape is consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeededRng;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                *out.at_mut(&[i, j]) = acc;
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "mismatch: {x} vs {y}");
        }
    }

    fn assert_bit_identical(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shapes differ");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} differs: {x} vs {y}");
        }
    }

    /// Odd shapes that exercise every tiling edge: unit, tall/skinny,
    /// wide, and non-multiples of both MR and NR — plus every `m % MR`
    /// row remainder (m = 1..=9) against every `n % NR` column tail
    /// (n = 1..=17, 31, 33) at k ∈ {1, 3, 150}.
    fn shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = vec![
            (1, 1, 1),
            (3, 5, 2),
            (7, 4, 9),
            (16, 16, 16),
            (1, 37, 65),
            (65, 1, 7),
            (13, 29, 1),
            (33, 17, 41),
        ];
        for m in 1..=9 {
            for n in (1..=17).chain([31, 33]) {
                for k in [1, 3, 150] {
                    shapes.push((m, k, n));
                }
            }
        }
        shapes
    }

    /// Thread counts every bit-identity check runs at.
    const THREADS: [usize; 3] = [1, 2, 7];

    /// `m×k` and `k×n` operands for every shape in [`shapes`], each shape
    /// twice: random, then poisoned so that a NaN (row 0) and an ∞ (row
    /// m−1) in A meet a zero of B in the last column, a tail lane whenever
    /// `n % NR != 0`. `0·NaN` and `0·∞` must come out NaN there.
    fn operands(seed: u64) -> Vec<(Tensor, Tensor)> {
        let mut rng = SeededRng::new(seed);
        let mut cases = Vec::new();
        for (m, k, n) in shapes() {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            let (mut pa, mut pb) = (a.clone(), b.clone());
            let p = k / 2;
            *pb.at_mut(&[p, n - 1]) = 0.0;
            *pa.at_mut(&[0, p]) = f32::NAN;
            if m > 1 {
                *pa.at_mut(&[m - 1, p]) = f32::INFINITY;
            }
            cases.push((a, b));
            cases.push((pa, pb));
        }
        cases
    }

    /// [`naive_matmul`], checking that every poisoned tail lane is NaN.
    fn reference(a: &Tensor, b: &Tensor) -> Tensor {
        let want = naive_matmul(a, b);
        let (m, n) = (a.shape()[0], b.shape()[1]);
        if a.at(&[0, a.shape()[1] / 2]).is_nan() {
            assert!(want.at(&[0, n - 1]).is_nan(), "0·NaN must yield NaN");
            assert!(want.at(&[m - 1, n - 1]).is_nan(), "0·∞ must yield NaN");
        }
        want
    }

    #[test]
    fn matmul_hand_example() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = SeededRng::new(3);
        let a = Tensor::randn(&[4, 4], &mut rng);
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        assert_close(&a.matmul(&eye), &a, 1e-6);
        assert_close(&eye.matmul(&a), &a, 1e-6);
    }

    #[test]
    fn matmul_bit_identical_to_naive() {
        for (a, b) in operands(11) {
            let want = reference(&a, &b);
            for threads in THREADS {
                assert_bit_identical(&a.matmul_with_threads(&b, threads), &want, "matmul");
            }
            // The portable kernel, whichever one this CPU dispatches to.
            let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
            let mut c = vec![0.0f32; m * n];
            gemm_rows_portable(a.as_slice(), b.as_slice(), &mut c, 0, k, n);
            let portable = Tensor::from_vec(c, &[m, n]).unwrap();
            assert_bit_identical(&portable, &want, "portable matmul");
        }
    }

    #[test]
    fn matmul_at_bit_identical_to_naive() {
        for (a, b) in operands(17) {
            let want = reference(&a, &b);
            let at = a.transpose();
            for threads in THREADS {
                assert_bit_identical(&at.matmul_at_with_threads(&b, threads), &want, "matmul_at");
            }
        }
    }

    #[test]
    fn matmul_bt_bit_identical_to_naive() {
        for (a, b) in operands(19) {
            let want = reference(&a, &b);
            let bt = b.transpose();
            for threads in THREADS {
                assert_bit_identical(&a.matmul_bt_with_threads(&bt, threads), &want, "matmul_bt");
            }
        }
    }

    #[test]
    fn matmul_thread_count_does_not_change_bits() {
        let mut rng = SeededRng::new(13);
        for &(m, k, n) in &[(33, 17, 41), (96, 96, 96), (5, 64, 3)] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            let one = a.matmul_with_threads(&b, 1);
            for threads in [2, 7] {
                assert_bit_identical(
                    &one,
                    &a.matmul_with_threads(&b, threads),
                    "matmul across thread counts",
                );
            }
            let bt = Tensor::randn(&[n, k], &mut rng);
            let one_bt = a.matmul_bt_with_threads(&bt, 1);
            let at = Tensor::randn(&[k, m], &mut rng);
            let one_at = at.matmul_at_with_threads(&b, 1);
            for threads in [2, 7] {
                assert_bit_identical(
                    &one_bt,
                    &a.matmul_bt_with_threads(&bt, threads),
                    "matmul_bt across thread counts",
                );
                assert_bit_identical(
                    &one_at,
                    &at.matmul_at_with_threads(&b, threads),
                    "matmul_at across thread counts",
                );
            }
        }
    }

    #[test]
    fn matmul_parallel_path_matches_naive() {
        // Large enough to cross PAR_THRESHOLD (work = 96*96*96 ≈ 885k).
        let mut rng = SeededRng::new(13);
        let a = Tensor::randn(&[96, 96], &mut rng);
        let b = Tensor::randn(&[96, 96], &mut rng);
        assert_bit_identical(&a.matmul(&b), &naive_matmul(&a, &b), "parallel matmul");
    }

    #[test]
    fn matmul_propagates_nan_through_zero() {
        // The seed kernel skipped a_ip == 0.0 rows, silently dropping the
        // IEEE-mandated NaN from 0·NaN and 0·∞. The blocked kernel must
        // propagate it, exactly like the naive reference.
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::NAN, 2.0], &[2, 1]).unwrap();
        assert!(a.matmul(&b).as_slice()[0].is_nan(), "0·NaN must yield NaN");
        let binf = Tensor::from_vec(vec![f32::INFINITY, 2.0], &[2, 1]).unwrap();
        assert!(a.matmul(&binf).as_slice()[0].is_nan(), "0·∞ must yield NaN");
        // matmul_at reads the same values through the transposed layout.
        let at = Tensor::from_vec(vec![0.0, 1.0], &[2, 1]).unwrap();
        assert!(at.matmul_at(&b).as_slice()[0].is_nan(), "matmul_at must propagate NaN");
        let bt = Tensor::from_vec(vec![f32::NAN, 2.0], &[1, 2]).unwrap();
        assert!(a.matmul_bt(&bt).as_slice()[0].is_nan(), "matmul_bt must propagate NaN");
    }

    #[test]
    fn matmul_at_equals_explicit_transpose() {
        let mut rng = SeededRng::new(5);
        let a = Tensor::randn(&[6, 3], &mut rng);
        let b = Tensor::randn(&[6, 4], &mut rng);
        assert_close(&a.matmul_at(&b), &a.transpose().matmul(&b), 1e-4);
    }

    #[test]
    fn matmul_bt_equals_explicit_transpose() {
        let mut rng = SeededRng::new(6);
        let a = Tensor::randn(&[5, 3], &mut rng);
        let b = Tensor::randn(&[7, 3], &mut rng);
        assert_close(&a.matmul_bt(&b), &a.matmul(&b.transpose()), 1e-4);
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = SeededRng::new(8);
        let a = Tensor::randn(&[4, 6], &mut rng);
        let v = Tensor::randn(&[6], &mut rng);
        let via_matmul = a.matmul(&v.reshape(&[6, 1]).unwrap());
        let direct = a.matvec(&v);
        for i in 0..4 {
            assert!((direct.as_slice()[i] - via_matmul.as_slice()[i]).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_mismatch() {
        Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[4, 2]));
    }
}
