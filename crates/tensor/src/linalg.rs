//! Matrix multiplication kernels.
//!
//! Three variants cover everything backprop needs: `A·B`, `Aᵀ·B`, and
//! `A·Bᵀ`. All three funnel into one register-tiled GEMM that reads the
//! row-major right operand in place, on the widest of three tiers the CPU
//! supports:
//!
//! - **AVX-512**: a 4×32 (`MR`×`NR_WIDE`) tile keeps eight zmm
//!   accumulators live for every 32-column strip that fits inside the
//!   `n − n % NR` columns of whole 16-wide strips; the AVX tile takes a
//!   16-column strip left over there, and the tail below.
//! - **AVX**: a 4×16 (`MR`×`NR`) tile of eight ymm accumulators streams
//!   each 16-column strip of B straight from its rows.
//! - **portable**: a row loop the compiler vectorizes as it can.
//!
//! On the vector tiers only the `n % NR` tail columns are copied, into one
//! zero-padded strip, so they run through the 16-wide tile instead of a
//! scalar loop. A product narrower than 32 columns therefore takes the
//! same path on both vector tiers. `Aᵀ·B` and `A·Bᵀ` materialize the
//! transposed operand first. Large problems fan out across the persistent
//! [`crate::pool`] by row band.
//!
//! B is never packed. The workspace's products have few output rows (6
//! to 32 test patterns or conv filters against a patch matrix that can be
//! 10k columns wide), so a packed copy of B would be read only `⌈m/MR⌉`
//! times, and copying it cost more than the arithmetic.
//! [`Tensor::matmul_blocks`] goes one step further for an operand that is
//! itself built for the product (a convolution's unfolded patches): B
//! arrives one column block at a time in a reused buffer that stays in
//! cache, and each block is multiplied as it lands.
//!
//! # Bit-exactness
//!
//! Each output element is produced by a single `f32` accumulator walking
//! the shared dimension in ascending order — exactly the naive triple
//! loop's order. Tiers, tile widths, strips, column blocks and row bands
//! only change which elements are computed together, never the float
//! operation order, so every tier is bit-identical to the naive
//! reference, and row-parallel execution is bit-identical at any thread
//! count (bands own disjoint output rows). Multiply and add stay separate
//! operations (never a fused FMA). The kernels also make no zero-skip
//! shortcuts: `0.0 · NaN` and `0.0 · ∞` contribute `NaN` to the
//! accumulator exactly as IEEE 754 (and the naive loop) demand.

use crate::pool;
use crate::simd::Tier;
use crate::Tensor;
use healthmon_telemetry as tel;

// GEMM call and flop counts are per-work-item and thread-count-invariant
// (Stable); the chosen fan-out and per-block kernel dispatch counts vary
// with `HEALTHMON_THREADS` (Volatile).
static GEMM_CALLS: tel::Counter = tel::Counter::new("gemm.calls", tel::Stability::Stable);
static GEMM_FLOPS: tel::Counter = tel::Counter::new("gemm.flops", tel::Stability::Stable);
static GEMM_THREADS: tel::Histogram =
    tel::Histogram::new("gemm.threads", tel::Stability::Volatile);
static GEMM_BLOCKS_AVX512: tel::Counter =
    tel::Counter::new("gemm.row_blocks.avx512", tel::Stability::Volatile);
static GEMM_BLOCKS_AVX: tel::Counter =
    tel::Counter::new("gemm.row_blocks.avx", tel::Stability::Volatile);
static GEMM_BLOCKS_SCALAR: tel::Counter =
    tel::Counter::new("gemm.row_blocks.scalar", tel::Stability::Volatile);
static MATVEC_CALLS: tel::Counter = tel::Counter::new("gemm.matvec_calls", tel::Stability::Stable);

/// Register-tile height: output rows carried per kernel call.
const MR: usize = 4;
/// AVX tile width: output columns per kernel call (two 8-lane vectors).
const NR: usize = 16;
/// AVX-512 tile width (two 16-lane vectors).
const NR_WIDE: usize = 32;

/// Below this many multiply-accumulates, threading costs more than it saves.
const PAR_THRESHOLD: usize = 1 << 18;

fn thread_count(rows: usize, work: usize) -> usize {
    if work < PAR_THRESHOLD {
        return 1;
    }
    pool::max_threads().min(rows).max(1)
}

/// The tiers the GEMM has a kernel for besides the portable loop, widest
/// first. Every tier computes the same bits; the widest one the CPU
/// supports runs (see [`crate::simd`]).
const GEMM_TIERS: [Tier; 2] = [Tier::Avx512, Tier::Avx];

/// The GEMM tier this CPU runs.
fn best_tier() -> Tier {
    Tier::best_of(&GEMM_TIERS)
}

/// The right operand as the kernel reads it: `k` rows of stride `ldb`,
/// of which the first `full` columns are read in place in whole
/// `NR`-column strips, and a zero-padded `k×NR` copy of the remaining
/// `n − full` tail columns, so the tail runs through the same vector tile
/// instead of a scalar loop.
struct Rhs<'a> {
    b: &'a [f32],
    ldb: usize,
    n: usize,
    full: usize,
    tail: Vec<f32>,
}

/// One column strip of the right operand: `b` from its first column, row
/// stride `ldb`, the strip's first output column `j0`, the `lanes` a tile
/// reads (`NR` or `NR_WIDE`) and the `w ≤ lanes` columns it stores.
struct Strip<'a> {
    b: &'a [f32],
    ldb: usize,
    j0: usize,
    lanes: usize,
    w: usize,
}

impl<'a> Rhs<'a> {
    /// Row-major `b` (`k×n`): whole `NR`-column strips in place, the
    /// `n % NR` tail columns copied.
    fn new(b: &'a [f32], k: usize, n: usize) -> Rhs<'a> {
        let full = n - n % NR;
        let mut tail = Vec::new();
        if full < n {
            tail = vec![0.0f32; k * NR];
            for (dst, src) in tail.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
                dst[..n - full].copy_from_slice(&src[full..]);
            }
        }
        Rhs { b, ldb: n, n, full, tail }
    }

    /// The first `n` columns of a buffer of rows of stride `ldb`, a
    /// multiple of `NR_WIDE`, so that every strip reads in place. Lanes past
    /// `n` are computed and never stored, whatever they hold.
    fn block(b: &'a [f32], ldb: usize, n: usize) -> Rhs<'a> {
        debug_assert!(ldb.is_multiple_of(NR_WIDE) && n <= ldb);
        Rhs { b, ldb, n, full: n.next_multiple_of(NR), tail: Vec::new() }
    }

    /// Every column strip, at most `wide` lanes each: `wide`-lane strips
    /// while one fits inside the in-place columns, an `NR`-lane strip for
    /// what is left there, then the copied tail.
    fn strips(&self, wide: usize) -> impl Iterator<Item = Strip<'_>> {
        let body = (0..self.full).step_by(wide).map(move |j0| {
            let lanes = wide.min(self.full - j0);
            Strip { b: &self.b[j0..], ldb: self.ldb, j0, lanes, w: lanes.min(self.n - j0) }
        });
        let tail = (self.full < self.n).then(|| Strip {
            b: &self.tail[..],
            ldb: NR,
            j0: self.full,
            lanes: NR,
            w: self.n - self.full,
        });
        body.chain(tail)
    }
}

/// Calls `f(first row, rows)` for each register tile of a `rows`-row
/// band: `MR`-row tiles, then one tile of the remaining `rows % MR`.
fn row_tiles(rows: usize, mut f: impl FnMut(usize, usize)) {
    let mut i = 0;
    while i + MR <= rows {
        f(i, MR);
        i += MR;
    }
    if i < rows {
        f(i, rows - i);
    }
}

/// AVX kernel: each output element owns one lane of a 256-bit accumulator
/// that walks `k` in ascending order with explicit `mul` + `add` (never
/// fused), so every lane performs the naive loop's IEEE 754 operation
/// sequence and results stay bit-identical to the portable path.
#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{row_tiles, Rhs, Strip, NR};
    use core::arch::x86_64::{
        _mm256_add_ps, _mm256_broadcast_ss, _mm256_loadu_ps, _mm256_mul_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    /// One `ROWS×NR` register tile: `a` holds the tile's rows (`ROWS×k`,
    /// row-major), `s` the strip. Stores the first `s.w` columns of each
    /// row into `c` (row stride `ldc`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX.
    #[target_feature(enable = "avx")]
    unsafe fn tile<const ROWS: usize>(a: &[f32], k: usize, s: &Strip, c: &mut [f32], ldc: usize) {
        let (ldb, w) = (s.ldb, s.w);
        assert!(a.len() >= ROWS * k && (k == 0 || s.b.len() >= (k - 1) * ldb + NR) && w <= NR);
        let (a, b) = (a.as_ptr(), s.b.as_ptr());
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

    /// The `rows`-row (`1..=MR`) tile over strip `s`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX.
    pub unsafe fn tile_rows(
        rows: usize,
        a: &[f32],
        k: usize,
        s: &Strip,
        c: &mut [f32],
        ldc: usize,
    ) {
        // SAFETY: AVX support is this function's own precondition.
        unsafe {
            match rows {
                4 => tile::<4>(a, k, s, c, ldc),
                3 => tile::<3>(a, k, s, c, ldc),
                2 => tile::<2>(a, k, s, c, ldc),
                _ => tile::<1>(a, k, s, c, ldc),
            }
        }
    }

    /// The rows of `a` (`rows×k`) times `rhs` into `c` (row stride `ldc`),
    /// strip by strip.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX.
    pub unsafe fn gemm_rows(a: &[f32], k: usize, rhs: &Rhs, c: &mut [f32], ldc: usize) {
        for s in rhs.strips(NR) {
            row_tiles(a.len() / k, |i, rows| {
                // SAFETY: AVX support is this function's own precondition.
                unsafe { tile_rows(rows, &a[i * k..], k, &s, &mut c[i * ldc + s.j0..], ldc) };
            });
        }
    }
}

/// AVX-512 kernel: the AVX kernel's scheme on 512-bit accumulators, two
/// per row for a 32-column strip. Each lane still walks `k` in ascending
/// order with a separate `mul` and `add`, so results are bit-identical to
/// the other tiers.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{avx, row_tiles, Rhs, Strip, NR, NR_WIDE};
    use core::arch::x86_64::{
        _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };

    /// One `ROWS×NR_WIDE` register tile: `a` holds the tile's rows
    /// (`ROWS×k`, row-major), `s` the strip. Stores the first `s.w`
    /// columns of each row into `c` (row stride `ldc`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn tile<const ROWS: usize>(a: &[f32], k: usize, s: &Strip, c: &mut [f32], ldc: usize) {
        const HALF: usize = NR_WIDE / 2;
        let (ldb, w) = (s.ldb, s.w);
        assert!(
            a.len() >= ROWS * k && (k == 0 || s.b.len() >= (k - 1) * ldb + NR_WIDE) && w <= NR_WIDE
        );
        let (a, b) = (a.as_ptr(), s.b.as_ptr());
        let mut acc = [[_mm512_setzero_ps(); 2]; ROWS];
        for p in 0..k {
            // SAFETY: the assert bounds every read: row `r < ROWS` of `a`
            // ends by `ROWS·k`, and B row `p < k` spans `NR_WIDE` lanes
            // from `p·ldb`.
            unsafe {
                let b_lo = _mm512_loadu_ps(b.add(p * ldb));
                let b_hi = _mm512_loadu_ps(b.add(p * ldb + HALF));
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let a_v = _mm512_set1_ps(*a.add(r * k + p));
                    acc_r[0] = _mm512_add_ps(acc_r[0], _mm512_mul_ps(a_v, b_lo));
                    acc_r[1] = _mm512_add_ps(acc_r[1], _mm512_mul_ps(a_v, b_hi));
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let dst = &mut c[r * ldc..r * ldc + w];
            if w == NR_WIDE {
                // SAFETY: `dst` is exactly the two 16-lane stores wide.
                unsafe {
                    _mm512_storeu_ps(dst.as_mut_ptr(), acc_r[0]);
                    _mm512_storeu_ps(dst.as_mut_ptr().add(HALF), acc_r[1]);
                }
            } else {
                let mut buf = [0.0f32; NR_WIDE];
                // SAFETY: `buf` is exactly the two 16-lane stores wide.
                unsafe {
                    _mm512_storeu_ps(buf.as_mut_ptr(), acc_r[0]);
                    _mm512_storeu_ps(buf.as_mut_ptr().add(HALF), acc_r[1]);
                }
                dst.copy_from_slice(&buf[..w]);
            }
        }
    }

    /// The rows of `a` (`rows×k`) times `rhs` into `c` (row stride `ldc`):
    /// `NR_WIDE`-lane strips on this tile, `NR`-lane strips on the AVX one.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F (which implies AVX).
    pub unsafe fn gemm_rows(a: &[f32], k: usize, rhs: &Rhs, c: &mut [f32], ldc: usize) {
        for s in rhs.strips(NR_WIDE) {
            row_tiles(a.len() / k, |i, rows| {
                let (a, c) = (&a[i * k..], &mut c[i * ldc + s.j0..]);
                // SAFETY: AVX-512F support is this function's own
                // precondition, and it implies AVX.
                unsafe {
                    match (s.lanes == NR_WIDE, rows) {
                        (true, 4) => tile::<4>(a, k, &s, c, ldc),
                        (true, 3) => tile::<3>(a, k, &s, c, ldc),
                        (true, 2) => tile::<2>(a, k, &s, c, ldc),
                        (true, _) => tile::<1>(a, k, &s, c, ldc),
                        (false, _) => {
                            debug_assert_eq!(s.lanes, NR);
                            avx::tile_rows(rows, a, k, &s, c, ldc)
                        }
                    }
                }
            });
        }
    }
}

/// Sequential GEMM on `tier` for a band of output rows: `a` holds the
/// band's rows of the left operand (`rows×k`, `k > 0`), and `c` the
/// band's output rows at row stride `ldc`, from the column `rhs` starts
/// at. Adds each product into `c`'s zeros.
fn gemm_rows(tier: Tier, a: &[f32], k: usize, rhs: &Rhs, c: &mut [f32], ldc: usize) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => {
            GEMM_BLOCKS_AVX512.inc();
            // SAFETY: `best_tier()` (or the test that names the tier)
            // verified CPU support.
            unsafe { avx512::gemm_rows(a, k, rhs, c, ldc) };
        }
        #[cfg(target_arch = "x86_64")]
        Tier::Avx => {
            GEMM_BLOCKS_AVX.inc();
            // SAFETY: as above.
            unsafe { avx::gemm_rows(a, k, rhs, c, ldc) };
        }
        _ => {
            GEMM_BLOCKS_SCALAR.inc();
            gemm_rows_portable(a, k, rhs, c, ldc);
        }
    }
}

/// Portable kernel: each output element accumulates in place in `c`
/// (starting from its zero), over `k` in ascending order — the same
/// per-element operation sequence as the vector tiles and the naive loop.
/// Reads B's `n` columns in place; the vector tiers' tail copy is unused.
fn gemm_rows_portable(a: &[f32], k: usize, rhs: &Rhs, c: &mut [f32], ldc: usize) {
    let (b, ldb, n) = (rhs.b, rhs.ldb, rhs.n);
    for (i, a_row) in a.chunks_exact(k).enumerate() {
        let c_row = &mut c[i * ldc..i * ldc + n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            for (c_v, &b_v) in c_row.iter_mut().zip(&b[p * ldb..p * ldb + n]) {
                *c_v += a_ip * b_v;
            }
        }
    }
}

/// Counts one GEMM call of `m×k` times `k×n` and returns its thread count,
/// clamped to `[1, m]`.
fn count_call(m: usize, k: usize, n: usize, threads: usize) -> usize {
    GEMM_CALLS.inc();
    GEMM_FLOPS.add(2 * (m * k * n) as u64);
    let threads = threads.clamp(1, m);
    GEMM_THREADS.record(threads as u64);
    threads
}

/// Runs `f(r0, r1, band)` over the output (`m` rows of `n` columns):
/// once over all of it when `threads <= 1`, otherwise over `MR`-aligned
/// row bands `[r0, r1)` across the pool, `band` holding those rows only.
fn row_bands(
    out: &mut [f32],
    m: usize,
    n: usize,
    threads: usize,
    f: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    if threads <= 1 {
        f(0, m, out);
        return;
    }
    let rows_per = m.div_ceil(threads).next_multiple_of(MR);
    pool::run_chunks(out, rows_per * n, |ci, band| {
        let r0 = ci * rows_per;
        f(r0, (r0 + rows_per).min(m), band);
    });
}

/// Shared driver: multiplies row-major `a` (`m×k`) by row-major `b`
/// (`k×n`) on `tier`, splitting output rows across the pool when
/// `threads > 1`.
fn gemm(
    tier: Tier,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    if m * n == 0 {
        return out;
    }
    let threads = count_call(m, k, n, threads);
    if k == 0 {
        return out;
    }
    let rhs = Rhs::new(b, k, n);
    row_bands(&mut out, m, n, threads, |r0, r1, band| {
        gemm_rows(tier, &a[r0 * k..r1 * k], k, &rhs, band, n);
    });
    out
}

/// [`gemm`] fed by blocks, behind [`Tensor::matmul_blocks`]: `a` is `m×k`,
/// and B (`k×n`) arrives `block` columns at a time through `fill` into one
/// buffer, each block multiplied as it lands, across the pool by row band
/// when `threads > 1`.
fn gemm_blocks<F>(
    tier: Tier,
    a: &[f32],
    (m, k, n): (usize, usize, usize),
    block: usize,
    threads: usize,
    mut fill: F,
) -> Vec<f32>
where
    F: FnMut(usize, usize, &mut [f32], usize),
{
    let mut out = vec![0.0f32; m * n];
    if m * n == 0 {
        return out;
    }
    let threads = count_call(m, k, n, threads);
    if k == 0 {
        return out;
    }
    let block = block.clamp(1, n);
    let ldb = block.next_multiple_of(NR_WIDE);
    let mut buf = vec![0.0f32; k * ldb];
    for c0 in (0..n).step_by(block) {
        let c1 = (c0 + block).min(n);
        fill(c0, c1, &mut buf, ldb);
        let rhs = Rhs::block(&buf, ldb, c1 - c0);
        row_bands(&mut out, m, n, threads, |r0, r1, band| {
            gemm_rows(tier, &a[r0 * k..r1 * k], k, &rhs, &mut band[c0..], n);
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
        let out = gemm(best_tier(), self.as_slice(), rhs.as_slice(), m, k, n, threads);
        Tensor::from_vec(out, &[m, n]).expect("matmul output shape is consistent by construction")
    }

    /// Matrix product `self · B` (`m×k` times `k×n`) for a right operand
    /// that is never materialized whole: B arrives in column blocks, and
    /// each is multiplied as it lands.
    ///
    /// `fill(c0, c1, buf, ldb)` writes columns `[c0, c1)` of B into `buf`:
    /// `k` rows of stride `ldb` (a multiple of 32), row `p` holding
    /// `B[p][c0..c1]` at `buf[p·ldb..p·ldb + (c1 − c0)]`. Blocks are
    /// `block` columns wide (clamped to `[1, n]`; the last one may be
    /// shorter) and arrive in ascending order. The buffer is zeroed once
    /// and then reused, so an entry `fill` skips keeps what the previous
    /// block left there: a fill that writes the same positions of every
    /// block may leave the rest zero. Entries past column `c1 − c0` never
    /// reach the output. `fill` runs on the calling thread, once per block;
    /// when the product fans out across the pool, each block's product is
    /// split by row band.
    ///
    /// Bit-identical to [`Tensor::matmul`] over the assembled B at any
    /// thread count and block width, and counted as one GEMM call.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D.
    pub fn matmul_blocks<F>(&self, n: usize, block: usize, fill: F) -> Tensor
    where
        F: FnMut(usize, usize, &mut [f32], usize),
    {
        let threads = if self.ndim() == 2 {
            let (m, k) = (self.shape()[0], self.shape()[1]);
            thread_count(m, m * k * n)
        } else {
            1 // the shape assert below produces the real error
        };
        self.matmul_blocks_with_threads(n, block, threads, fill)
    }

    /// [`Tensor::matmul_blocks`] with an explicit thread count (clamped to
    /// `[1, m]`); bit-identical at any thread count.
    pub fn matmul_blocks_with_threads<F>(
        &self,
        n: usize,
        block: usize,
        threads: usize,
        fill: F,
    ) -> Tensor
    where
        F: FnMut(usize, usize, &mut [f32], usize),
    {
        assert_eq!(self.ndim(), 2, "matmul_blocks lhs must be 2-D, got {:?}", self.shape());
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let out = gemm_blocks(best_tier(), self.as_slice(), (m, k, n), block, threads, fill);
        Tensor::from_vec(out, &[m, n]).expect("matmul_blocks output shape is consistent")
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
        let out = gemm(best_tier(), at.as_slice(), rhs.as_slice(), m, k, n, threads);
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
            let at = self.transpose();
            let ct = gemm(best_tier(), rhs.as_slice(), at.as_slice(), n, k, m, threads);
            Tensor::from_vec(ct, &[n, m]).expect("matmul_bt output shape is consistent").transpose()
        } else {
            let bt = rhs.transpose();
            let out = gemm(best_tier(), self.as_slice(), bt.as_slice(), m, k, n, threads);
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
    /// (n = 1..=17) and the widths around one and two 32-column strips
    /// (n = 31..=34, 47..=49, 63..=65) at k ∈ {1, 3, 150}.
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
            for n in (1..=17).chain(31..=34).chain(47..=49).chain(63..=65) {
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

    /// The GEMM tiers this CPU can run, naming each one it skips.
    fn runnable_tiers() -> Vec<Tier> {
        Tier::runnable(&GEMM_TIERS)
    }

    /// `a · b` on one named tier, whichever one the CPU would dispatch to.
    fn matmul_on(tier: Tier, a: &Tensor, b: &Tensor, threads: usize) -> Tensor {
        let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
        let c = gemm(tier, a.as_slice(), b.as_slice(), m, k, n, threads);
        Tensor::from_vec(c, &[m, n]).unwrap()
    }

    /// `a · b` with B fed `block` columns at a time on one named tier. The
    /// fill writes NaN into every lane past the block, so a stored lane
    /// the block does not own shows.
    fn matmul_blocks_on(
        tier: Tier,
        a: &Tensor,
        b: &Tensor,
        block: usize,
        threads: usize,
    ) -> Tensor {
        let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
        let bs = b.as_slice();
        let fill = |c0: usize, c1: usize, buf: &mut [f32], ldb: usize| {
            assert_eq!(ldb % NR_WIDE, 0, "block row stride {ldb}");
            assert_eq!(buf.len(), k * ldb);
            for (dst, src) in buf.chunks_exact_mut(ldb).zip(bs.chunks_exact(n)) {
                dst[..c1 - c0].copy_from_slice(&src[c0..c1]);
                dst[c1 - c0..].fill(f32::NAN);
            }
        };
        let c = gemm_blocks(tier, a.as_slice(), (m, k, n), block, threads, fill);
        Tensor::from_vec(c, &[m, n]).unwrap()
    }

    #[test]
    fn matmul_bit_identical_to_naive() {
        for (a, b) in operands(11) {
            let want = reference(&a, &b);
            for threads in THREADS {
                assert_bit_identical(&a.matmul_with_threads(&b, threads), &want, "matmul");
            }
        }
    }

    /// Each tier on its own, not only the one this CPU dispatches to, on
    /// every shape at every thread count.
    #[test]
    fn every_tier_is_bit_identical_to_naive() {
        let tiers = runnable_tiers();
        assert!(tiers.contains(&Tier::Portable));
        for (a, b) in operands(23) {
            let want = reference(&a, &b);
            for &tier in &tiers {
                for threads in THREADS {
                    let what = format!("{tier:?} at {threads} threads, {:?}", want.shape());
                    assert_bit_identical(&matmul_on(tier, &a, &b, threads), &want, &what);
                }
            }
        }
    }

    /// The block-fed product on each tier, at block widths from one column
    /// to the whole operand: one- and two-strip blocks, blocks that end
    /// mid-strip and a short last block.
    #[test]
    fn block_fed_products_are_bit_identical_to_naive() {
        for (a, b) in operands(29) {
            let want = reference(&a, &b);
            let n = b.shape()[1];
            for tier in runnable_tiers() {
                for (block, threads) in [(1, 1), (5, 2), (16, 7), (33, 1), (n, 2)] {
                    let what =
                        format!("{tier:?} block {block} at {threads} threads, {:?}", want.shape());
                    let got = matmul_blocks_on(tier, &a, &b, block, threads);
                    assert_bit_identical(&got, &want, &what);
                }
            }
        }
        // Through the public entry points, fanned out across the pool: each
        // block is filled once, in ascending order, however many row bands
        // share its product.
        let mut rng = SeededRng::new(31);
        let a = Tensor::randn(&[37, 96], &mut rng);
        let b = Tensor::randn(&[96, 250], &mut rng);
        let want = naive_matmul(&a, &b);
        let blocks: Vec<_> = (0..250).step_by(40).map(|c0| (c0, (c0 + 40).min(250))).collect();
        for threads in [None, Some(7)] {
            let mut filled = Vec::new();
            let fill = |c0: usize, c1: usize, buf: &mut [f32], ldb: usize| {
                filled.push((c0, c1));
                for (dst, src) in buf.chunks_exact_mut(ldb).zip(b.as_slice().chunks_exact(250)) {
                    dst[..c1 - c0].copy_from_slice(&src[c0..c1]);
                }
            };
            let got = match threads {
                None => a.matmul_blocks(250, 40, fill),
                Some(t) => a.matmul_blocks_with_threads(250, 40, t, fill),
            };
            assert_eq!(filled, blocks, "fills at {threads:?} threads");
            assert_bit_identical(&got, &want, "public matmul_blocks");
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
