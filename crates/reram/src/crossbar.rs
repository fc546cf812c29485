//! A single crossbar tile: differential conductance pairs, DAC/ADC
//! conversion, and device-level fault injection.
//!
//! On integer-capable configs (see
//! [`CrossbarConfig::integer_path_capable`]) every product runs one
//! integer kernel, `Crossbar::int_cols`: centered DAC codes laid out one
//! row per word line, the vector lanes over the inputs (a convolution's
//! patches, or a dense batch padded to whole 16-lane blocks), the tile's
//! codes cached as pair words, and the `f64` fold, IR drop and ADC fused
//! per output. Configs without converters keep the `f32` product.

use crate::quant::{narrow_i16, round_fast, ROUND_MAGIC_LIMIT};
use crate::{CrossbarConfig, IrDropModel, ParityCheck, Quantizer, ScrubOutcome};
use healthmon_tensor::simd::{self, Tier};
use healthmon_tensor::{fastmath, intacc, SeededRng, Tensor};
use healthmon_telemetry as tel;
use std::sync::OnceLock;
use std::time::Instant;

// Crossbar telemetry counts deterministic work items (programming, cache
// traffic, converter clipping over bit-identical GEMM outputs), so all
// metrics here are Stable: bit-identical at any HEALTHMON_THREADS.
static XBAR_PROGRAMS: tel::Counter =
    tel::Counter::new("reram.program.tiles", tel::Stability::Stable);
static XBAR_PROGRAM_CELLS: tel::Counter =
    tel::Counter::new("reram.program.cells", tel::Stability::Stable);
static CACHE_LOOKUPS: tel::Counter =
    tel::Counter::new("reram.cache.lookups", tel::Stability::Stable);
static CACHE_BUILDS: tel::Counter =
    tel::Counter::new("reram.cache.builds", tel::Stability::Stable);
static CACHE_INVALIDATIONS: tel::Counter =
    tel::Counter::new("reram.cache.invalidations", tel::Stability::Stable);
static DAC_SAMPLES: tel::Counter = tel::Counter::new("reram.dac.samples", tel::Stability::Stable);
static DAC_CLIPPED: tel::Counter = tel::Counter::new("reram.dac.clipped", tel::Stability::Stable);
static DAC_SATURATION: tel::Gauge =
    tel::Gauge::new("reram.dac.saturation_max", tel::Stability::Stable);
static ADC_SAMPLES: tel::Counter = tel::Counter::new("reram.adc.samples", tel::Stability::Stable);
static ADC_CLIPPED: tel::Counter = tel::Counter::new("reram.adc.clipped", tel::Stability::Stable);
static ADC_SATURATION: tel::Gauge =
    tel::Gauge::new("reram.adc.saturation_max", tel::Stability::Stable);
// Checkup-pipeline latency attribution: wall-clock time spent in each
// analog stage of a matmul. Wall-clock measurements are scheduling- and
// machine-dependent, so unlike the work counters above these are
// Volatile — excluded from the stable byte-comparison surface and
// served live through the metrics exporter (p50/p95/p99).
pub(crate) static PHASE_DAC_NS: tel::Histogram =
    tel::Histogram::new("phase.dac_ns", tel::Stability::Volatile);
pub(crate) static PHASE_ACCUMULATE_NS: tel::Histogram =
    tel::Histogram::new("phase.accumulate_ns", tel::Stability::Volatile);
static PHASE_ADC_NS: tel::Histogram =
    tel::Histogram::new("phase.adc_ns", tel::Stability::Volatile);
static IR_DROP_APPLIED: tel::Counter =
    tel::Counter::new("reram.ir_drop.applied", tel::Stability::Stable);
static IR_DROP_MIN_FACTOR: tel::Gauge =
    tel::Gauge::new("reram.ir_drop.attenuation_min", tel::Stability::Stable);
static CELLS_STUCK: tel::Counter = tel::Counter::new("reram.cells.stuck", tel::Stability::Stable);
static DISTURB_EVENTS: tel::Counter =
    tel::Counter::new("reram.disturb.events", tel::Stability::Stable);
static DRIFT_EVENTS: tel::Counter =
    tel::Counter::new("reram.drift.events", tel::Stability::Stable);
static CELLS_FLIPPED: tel::Counter =
    tel::Counter::new("reram.cells.flipped", tel::Stability::Stable);
// DAC-code cache traffic: the integer-domain execution state (quantized
// conductance codes + column sums + row-block drop factors) cached
// alongside the differential matrix. Counted only on tiles whose config
// is integer-path capable, so the names stay honest on f32-only tiles.
static DAC_CACHE_HITS: tel::Counter =
    tel::Counter::new("reram.dac.cache.hits", tel::Stability::Stable);
static DAC_CACHE_MISSES: tel::Counter =
    tel::Counter::new("reram.dac.cache.misses", tel::Stability::Stable);
static DAC_CACHE_INVALIDATIONS: tel::Counter =
    tel::Counter::new("reram.dac.cache.invalidations", tel::Stability::Stable);
static INT_ROWBLOCKS: tel::Counter =
    tel::Counter::new("reram.int8.rowblocks", tel::Stability::Stable);

/// Records converter saturation stats for one quantization pass: how many
/// samples fell outside `[-range, range]` (and were clamped by the
/// quantizer) plus the worst |value|/range ratio seen. Callers pre-gate on
/// [`tel::enabled`], so the scan never runs when telemetry is off.
fn record_converter(
    values: &[f32],
    range: f32,
    samples: &'static tel::Counter,
    clipped: &'static tel::Counter,
    saturation: &'static tel::Gauge,
) {
    let mut clip = 0u64;
    let mut worst = 0.0f32;
    for &v in values {
        let a = v.abs();
        if a > range {
            clip += 1;
        }
        if a > worst {
            worst = a;
        }
    }
    samples.add(values.len() as u64);
    clipped.add(clip);
    if range > 0.0 {
        saturation.set_max(f64::from(worst / range));
    }
}

/// Rounds a positive normal float up to the next power of two (identity
/// for exact powers of two). Used by the exact cell-storage mode: dividing
/// and re-multiplying by a power of two only shifts the exponent, so the
/// weight → conductance → weight round trip is bitwise lossless.
fn round_up_pow2(x: f32) -> f32 {
    let bits = x.to_bits();
    if bits & 0x007F_FFFF == 0 {
        return x;
    }
    let up = f32::from_bits((bits & 0x7F80_0000) + 0x0080_0000);
    if up.is_finite() {
        up
    } else {
        x
    }
}

/// Word lines per integer-kernel partial sum: IR-drop factors apply at
/// this granularity, and `reram.int8.rowblocks` counts these units.
const ROW_BLOCK: usize = 32;

/// The tiers the per-cell programming loops are built for, widest first
/// (see [`healthmon_tensor::simd`]): [`Crossbar::program`], the
/// full-scale scan it shares with bit slicing, and the pair words and
/// column sums of [`IntState`].
const PROGRAM_TIERS: [Tier; 1] = [Tier::Avx512];

/// Lanes of the full-scale scan's max and finiteness accumulators.
const SCAN_LANES: usize = 16;

/// The full scale of a weight matrix: its largest `|w|` with NaN
/// skipped (0 for an empty or all-NaN matrix), and whether every weight
/// is finite. Built for the widest of [`PROGRAM_TIERS`] the CPU has.
pub(crate) fn full_scale(ws: &[f32]) -> (f32, bool) {
    full_scale_on(Tier::best_of(&PROGRAM_TIERS), ws)
}

/// [`full_scale`] built for a named `tier`.
fn full_scale_on(tier: Tier, ws: &[f32]) -> (f32, bool) {
    simd::run(tier, #[inline(always)] || full_scale_body(ws))
}

/// The body of [`full_scale`]: one fused sweep with a max accumulator
/// per lane (a single-accumulator fold must stay serial) and a `·0.0`
/// probe per lane that turns any NaN or ∞ into a sticky NaN. Every value
/// either accumulates is `|w| ≥ +0` or NaN, where max skips NaN and the
/// probe sum is +0 unless a NaN entered, so how the lanes split the
/// weights never changes the result.
#[inline(always)]
fn full_scale_body(ws: &[f32]) -> (f32, bool) {
    let mut max_lanes = [0.0f32; SCAN_LANES];
    let mut probe = [0.0f32; SCAN_LANES];
    let mut chunks = ws.chunks_exact(SCAN_LANES);
    for ch in chunks.by_ref() {
        for k in 0..SCAN_LANES {
            let a = ch[k].abs();
            max_lanes[k] = max_lanes[k].max(a);
            probe[k] += a * 0.0;
        }
    }
    let mut raw_max = 0.0f32;
    let mut tail_finite = true;
    for &v in chunks.remainder() {
        raw_max = raw_max.max(v.abs());
        tail_finite &= v.is_finite();
    }
    for &m in &max_lanes {
        raw_max = raw_max.max(m);
    }
    (raw_max, tail_finite && probe.iter().all(|p| *p == 0.0))
}

/// Below this many multiply-accumulates the integer path stays on one
/// thread (same rationale as the GEMM threshold in `healthmon-tensor`).
pub(crate) const INT_PAR_THRESHOLD: usize = 1 << 18;

/// Everything one inference through the tile needs, derived lazily from
/// the conductance planes and invalidated as a unit by every conductance
/// mutator (fault injection, disturb, drift, scrub correction, IR-drop
/// model changes).
#[derive(Debug, Clone)]
pub(crate) struct ExecState {
    /// Effective weight matrix `(g_pos − g_neg) · scale`, with any stored
    /// IR-drop attenuation folded in per cell — the `f32` reference path
    /// multiplies it in place. Built on first use: integer-capable tiles
    /// often never touch it (weight read-back and the `f32` path are the
    /// only consumers), and campaign workloads build thousands of
    /// short-lived tiles that must not pay for an operand they will not
    /// use.
    diff: OnceLock<Tensor>,
    /// Integer-domain state when the config supports it (see
    /// [`CrossbarConfig::integer_path_capable`]); `None` also when any
    /// conductance is non-finite, which only the `f32` path propagates
    /// faithfully.
    pub(crate) int: Option<IntState>,
}

/// Cached integer-domain image of the tile: differential conductance
/// codes in the layout the column kernel reads, and the precomputed sums
/// the affine DAC→weight mapping needs.
///
/// With DAC level `idx` representing voltage `lo + idx·step_x` and code
/// `k` representing weight `k·step_w`, one output is
/// `step_w·(step_x·Σ idx_i·k_ij + lo·Σ k_ij)` — an exact `i32` dot plus a
/// per-column affine correction from the cached column sums.
#[derive(Debug, Clone)]
pub(crate) struct IntState {
    /// The signed differential codes as [`intacc::accumulate_col_pairs`]
    /// reads them: one [`intacc::pair_word`] per pair of word lines and
    /// bit line (`[rows.div_ceil(2), cols]`), an odd last word line paired
    /// with code 0.
    words: Vec<i32>,
    /// Per-row-block column sums `[n_blocks, cols]`, for the IR-drop
    /// path's per-block affine correction.
    block_colsums: Vec<i32>,
    /// Whole-tile column sums `[cols]`.
    colsums: Vec<i32>,
    /// Per-(row block, column) mean IR-drop factors `[n_blocks, cols]`,
    /// present when a model with non-zero wire resistance is stored.
    drop: Option<Vec<f32>>,
    /// Weight-domain value of one conductance-code step.
    step_w: f32,
}

impl IntState {
    /// The integer state of a tile whose signed differential codes are
    /// `codes` (`[rows, cols]`, row-major).
    fn new(codes: &[i16], cols: usize, drop: Option<Vec<f32>>, step_w: f32) -> Self {
        Self::new_on(Tier::best_of(&PROGRAM_TIERS), codes, cols, drop, step_w)
    }

    /// [`IntState::new`] built for a named `tier`.
    fn new_on(tier: Tier, codes: &[i16], cols: usize, drop: Option<Vec<f32>>, step_w: f32) -> Self {
        simd::run(tier, #[inline(always)] || Self::new_body(codes, cols, drop, step_w))
    }

    /// The body of [`IntState::new`], inlined into every tier's build.
    #[inline(always)]
    fn new_body(codes: &[i16], cols: usize, drop: Option<Vec<f32>>, step_w: f32) -> Self {
        let rows = codes.len() / cols.max(1);
        let mut words = Vec::with_capacity(rows.div_ceil(2) * cols);
        for pair in codes.chunks(2 * cols.max(1)) {
            let (first, second) = pair.split_at(cols);
            if second.is_empty() {
                words.extend(first.iter().map(|&k| intacc::pair_word(k, 0)));
            } else {
                words.extend(first.iter().zip(second).map(|(&a, &b)| intacc::pair_word(a, b)));
            }
        }
        let mut block_colsums = vec![0i32; rows.div_ceil(ROW_BLOCK) * cols];
        for (r, row) in codes.chunks_exact(cols.max(1)).enumerate() {
            let block = &mut block_colsums[r / ROW_BLOCK * cols..][..cols];
            for (sum, &k) in block.iter_mut().zip(row) {
                *sum += i32::from(k);
            }
        }
        let mut colsums = vec![0i32; cols];
        for block in block_colsums.chunks_exact(cols.max(1)) {
            for (sum, &k) in colsums.iter_mut().zip(block) {
                *sum += k;
            }
        }
        IntState { words, block_colsums, colsums, drop, step_w }
    }
}

/// The largest |input| every DAC is sized for: inputs beyond ±1 clamp
/// to the rails.
pub(crate) const INPUT_RANGE: f32 = 1.0;

/// Records DAC saturation telemetry for one quantization pass over
/// `values`, against [`INPUT_RANGE`]. Lets a tiled caller that quantizes
/// its whole input once record the conversion once too, instead of per
/// (row block, column block). Callers pre-gate on [`tel::enabled`].
pub(crate) fn record_dac(values: &[f32]) {
    record_converter(values, INPUT_RANGE, &DAC_SAMPLES, &DAC_CLIPPED, &DAC_SATURATION);
}

/// The DAC level grid of a tile: voltage of level `idx` is
/// `lo + idx·step`, over ±[`INPUT_RANGE`]. Derived from the config's
/// `dac_bits` alone, so every tile of a [`crate::TiledMatrix`] shares
/// its codes and the whole input can be quantized once per batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DacGrid {
    lo: f32,
    hi: f32,
    step: f32,
    inv_step: f32,
    /// The middle level, `2^(dac_bits − 1)`: codes minus it fit `i16`.
    center: i32,
}

impl DacGrid {
    /// The column kernel's input codes for `values`: each value's DAC
    /// level index minus the middle level, so that every code fits `i16`
    /// (the kernel's fold adds the offset back exactly), or `None` if any
    /// value is NaN — NaN must poison whole output rows, which only the
    /// `f32` reference path reproduces.
    pub(crate) fn centered_codes_for(&self, values: &[f32]) -> Option<Vec<i16>> {
        // 8-lane select loop with no early exit, so the compiler can keep
        // it branch-free. The ·0.0 probe goes sticky-NaN only for NaN
        // inputs: ±∞ clamps to a finite rail first, which is the allowed
        // saturation behaviour, while NaN survives `clamp` and must poison
        // whole output rows — only the `f32` reference path does that.
        // The level index is read straight out of the magic-add mantissa
        // (levels are non-negative and < 2²², so the low bits ARE the
        // rounded integer) — both `.round()` and an `as i32` cast lower
        // to serial scalar code that kept this loop at ~3 ns/element.
        const MAGIC: f32 = 12_582_912.0; // 1.5 · 2²³
        let mut codes = vec![0i16; values.len()];
        let mut probe = [0.0f32; 8];
        let mut chunks = values.chunks_exact(8);
        let mut out = codes.chunks_exact_mut(8);
        for (ch, dst) in chunks.by_ref().zip(out.by_ref()) {
            for k in 0..8 {
                let clamped = ch[k].clamp(self.lo, self.hi);
                probe[k] += clamped * 0.0;
                let v = (clamped - self.lo) * self.inv_step;
                let shifted = v + MAGIC;
                // Ties-to-even from the magic add, bumped up on exact .5
                // ties to match `round`'s half-away rule.
                let bump = i32::from(v - (shifted - MAGIC) == 0.5);
                dst[k] = ((shifted.to_bits() & 0x3F_FFFF) as i32 + bump - self.center) as i16;
            }
        }
        let mut tail_ok = true;
        for (&v, dst) in chunks.remainder().iter().zip(out.into_remainder()) {
            let clamped = v.clamp(self.lo, self.hi);
            tail_ok &= !clamped.is_nan();
            *dst = (round_fast((clamped - self.lo) * self.inv_step) as i32 - self.center) as i16;
        }
        if tail_ok && probe.iter().all(|p| *p == 0.0) {
            Some(codes)
        } else {
            None
        }
    }

    /// The centered code of 0.0: what a padding entry of a patch matrix
    /// reads, so that unfolding the codes of an input equals quantizing
    /// its unfolded patches.
    pub(crate) fn centered_zero(&self) -> i16 {
        self.centered_codes_for(&[0.0]).expect("0.0 is not NaN")[0]
    }

    /// A dense product's input for the column kernel: the centered codes
    /// of `values` (`[batch, rows]`, row-major) transposed to one row per
    /// word line plus a spare row for an odd last word line to pair with,
    /// `[rows + 1, lanes]`, the batch padded to `lanes` = `batch` rounded
    /// up to 16 so the kernel runs whole vector blocks. Padding holds code
    /// 0; its sums are never folded. `None` if any value is NaN.
    pub(crate) fn dense_codes_for(
        &self,
        values: &[f32],
        batch: usize,
        rows: usize,
    ) -> Option<(Vec<i16>, usize)> {
        let codes = self.centered_codes_for(values)?;
        let lanes = batch.next_multiple_of(16);
        let mut cols = vec![0i16; (rows + 1) * lanes];
        for (b, row) in codes.chunks_exact(rows.max(1)).enumerate() {
            for (dst, &code) in cols[b..].iter_mut().step_by(lanes).zip(row) {
                *dst = code;
            }
        }
        Some((cols, lanes))
    }
}

/// A permanent device fault affecting one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellFault {
    /// Cell frozen in the high-resistance state (conductance = `g_min`),
    /// i.e. stuck-at-zero in weight terms.
    StuckLow,
    /// Cell frozen in the low-resistance state (conductance = `g_max`),
    /// i.e. stuck-at-one.
    StuckHigh,
}

/// One programmed crossbar tile storing a weight matrix `[rows, cols]` as
/// differential conductance pairs.
///
/// The tile keeps the scaling needed to map analog bit-line currents back
/// into weight-domain dot products, so a row of [`Crossbar::matmul`] is
/// directly comparable to an ideal `wᵀx`.
#[derive(Debug, Clone)]
pub struct Crossbar {
    config: CrossbarConfig,
    rows: usize,
    cols: usize,
    /// Positive-path conductances, `[rows, cols]`.
    g_pos: Tensor,
    /// Negative-path conductances, `[rows, cols]`.
    g_neg: Tensor,
    /// Weight-domain scale: `w = (g_pos − g_neg) * scale`.
    scale: f32,
    /// Stored IR-drop model (non-destructive: the pristine conductances
    /// stay untouched and the attenuation is folded into the execution
    /// state on rebuild). `None` when no drop is modelled.
    ir_drop: Option<IrDropModel>,
    /// Lazily-computed execution state shared by every inference through
    /// the tile: the effective weight matrix `(g_pos − g_neg) · scale`
    /// (in exact cell mode bitwise the programmed weights, making the
    /// crossbar product bit-identical to the digital one) and — on
    /// integer-capable configs — the quantized conductance codes of the
    /// integer path. Every conductance mutator replaces the cell with a
    /// fresh empty one, so stale state can never be read after fault
    /// injection.
    exec_cache: OnceLock<ExecState>,
    /// Pristine integer image captured at program time, the signed
    /// differential codes `[rows, cols]`: on noise-free integer-capable
    /// configs every conductance lands exactly on the cell grid, so
    /// programming emits the codes directly and the first execution-state
    /// build derives its pair words and sums from them instead of
    /// re-quantizing both planes. Any conductance mutation clears it (see
    /// [`Crossbar::invalidate_cache`]); the planes then become the only
    /// source of truth again.
    int_seed: Option<Vec<i16>>,
    /// Optional online soft-error tolerance: XOR checksum state over the
    /// two conductance planes (`[g_pos, g_neg]`), modelling the spare
    /// checksum columns programmed alongside the weights. `None` (the
    /// default) keeps the unhardened tile byte-identical to pre-parity
    /// behaviour at zero cost.
    parity: Option<Box<[ParityCheck; 2]>>,
}

impl Crossbar {
    /// Programs a weight matrix (`[rows, cols]`, at most the tile
    /// geometry) into a fresh tile, applying cell quantization and the
    /// configured lognormal write noise.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is not 2-D, exceeds the tile geometry, or the
    /// config is invalid.
    pub fn program(weights: &Tensor, config: &CrossbarConfig, rng: &mut SeededRng) -> Self {
        Self::program_on(Tier::best_of(&PROGRAM_TIERS), weights, config, rng)
    }

    /// [`Crossbar::program`] with its per-cell loops built for a named
    /// `tier`; every tier programs the same bits.
    fn program_on(
        tier: Tier,
        weights: &Tensor,
        config: &CrossbarConfig,
        rng: &mut SeededRng,
    ) -> Self {
        simd::run(tier, #[inline(always)] || Self::program_body(weights, config, rng))
    }

    /// The body of [`Crossbar::program`], inlined into every tier's build.
    #[inline(always)]
    fn program_body(weights: &Tensor, config: &CrossbarConfig, rng: &mut SeededRng) -> Self {
        config.validate();
        assert_eq!(weights.ndim(), 2, "crossbar stores a 2-D weight matrix");
        let (rows, cols) = (weights.shape()[0], weights.shape()[1]);
        assert!(
            rows <= config.rows && cols <= config.cols,
            "weights {rows}x{cols} exceed tile geometry {}x{}",
            config.rows,
            config.cols
        );
        // One pass yields both the programming full scale and the
        // finiteness verdict the quantized path branches on.
        let (raw_max, all_finite) = full_scale_body(weights.as_slice());
        let raw_max = raw_max.max(f32::MIN_POSITIVE);
        // Exact cell mode: snapping the full scale to a power of two makes
        // |w|/w_max and the later ·scale re-expansion pure exponent
        // shifts, so programming is bitwise lossless.
        let w_max = if config.exact_cells() { round_up_pow2(raw_max) } else { raw_max };
        // w = (g+ − g−)·scale with g ∈ [g_min, g_max]; full-scale weight
        // uses the full conductance window.
        let window = config.g_max - config.g_min;
        let scale = w_max / window;
        let mut g_pos = Tensor::zeros(&[rows, cols]);
        let mut g_neg = Tensor::zeros(&[rows, cols]);
        let mut int_seed = None;
        if config.exact_cells() {
            for ((gp, gn), &w) in g_pos
                .as_mut_slice()
                .iter_mut()
                .zip(g_neg.as_mut_slice())
                .zip(weights.as_slice())
            {
                let magnitude = (w.abs() / w_max) * window; // ∈ [0, window]
                if w >= 0.0 {
                    *gp = config.g_min + magnitude;
                    *gn = config.g_min;
                } else {
                    *gp = config.g_min;
                    *gn = config.g_min + magnitude;
                }
            }
        } else {
            // Quantized cells in the index domain: the cell quantizer's
            // level choice for `g_min + |w|·window/w_max` reduces to
            // `idx = round(|w|·max_code/w_max)` — one multiply per cell —
            // and `g = g_min + idx·step_g` reconstructs the identical grid
            // point. On noise-free integer-capable configs the signed level
            // index IS the differential conductance code of the i32 fast
            // path, so programming emits the DAC-code cache seed as a
            // by-product instead of leaving `build_int` to re-derive every
            // code from the planes.
            let max_code = (1i32 << config.cell_bits) - 1;
            let step_g = window / max_code as f32;
            let code_scale = max_code as f32 / w_max;
            let step_w = step_g * scale;
            let seedable = config.integer_path_capable()
                && config.write_noise == 0.0
                && step_w.is_finite()
                && step_w > 0.0;
            let gp = g_pos.as_mut_slice();
            let gn = g_neg.as_mut_slice();
            let ws = weights.as_slice();
            if code_scale.is_finite() && all_finite && (max_code as f32) < ROUND_MAGIC_LIMIT {
                // Branch-light select form, so that each tier's build runs
                // these loops as wide as it is (4 lanes on baseline SSE2,
                // 16 with AVX-512's mask-register selects): zip iteration
                // (indexed stores into the two planes leave bounds checks
                // that block the vectorizer), `round_fast` instead of
                // `.round()`'s serial scalar lowering, and on the seeded
                // path `narrow_i16` instead of a scalarizing float→i16
                // cast. One fused pass derives the conductance grid point
                // and the signed seed code from the same rounded level, so
                // the seed and a later scan of the planes agree on every
                // index.
                let fmax = max_code as f32;
                if seedable {
                    let mut codes = vec![0i16; rows * cols];
                    for (((&w, p), n), code) in ws.iter().zip(gp).zip(gn).zip(&mut codes) {
                        let idx = round_fast(w.abs() * code_scale).min(fmax);
                        let g = config.g_min + idx * step_g;
                        let pos = w >= 0.0;
                        *p = if pos { g } else { config.g_min };
                        *n = if pos { config.g_min } else { g };
                        *code = narrow_i16(idx.copysign(w));
                    }
                    int_seed = Some(codes);
                } else {
                    for ((&w, p), n) in ws.iter().zip(gp.iter_mut()).zip(gn.iter_mut()) {
                        let g = config.g_min
                            + round_fast(w.abs() * code_scale).min(fmax) * step_g;
                        let pos = w >= 0.0;
                        *p = if pos { g } else { config.g_min };
                        *n = if pos { config.g_min } else { g };
                    }
                }
            } else {
                // Non-finite weights, a degenerate full scale, or a cell
                // grid too fine for `round_fast`: reproduce the reference
                // semantics exactly via the cell quantizer. NaN/∞ must
                // poison the planes, and no seed is emitted, because
                // `NaN as i32` in Rust saturates to 0, which would
                // silently erase the poison from the integer image.
                let q = Quantizer::new(config.g_min, config.g_max, config.cell_bits);
                for (i, &w) in ws.iter().enumerate() {
                    let magnitude = (w.abs() / w_max) * window;
                    let (p, n) = if w >= 0.0 {
                        (config.g_min + magnitude, config.g_min)
                    } else {
                        (config.g_min, config.g_min + magnitude)
                    };
                    gp[i] = q.quantize(p);
                    gn[i] = q.quantize(n);
                }
            }
        }
        if config.write_noise > 0.0 {
            // Bulk write-noise pass: one block-sampled lognormal draw per
            // cell instead of two scalar draws inside the programming loop.
            let mut noise = vec![0.0f32; g_pos.len() + g_neg.len()];
            rng.fill_lognormal(&mut noise, 0.0, config.write_noise);
            for (g, &f) in g_pos
                .as_mut_slice()
                .iter_mut()
                .chain(g_neg.as_mut_slice())
                .zip(&noise)
            {
                *g = (*g * f).clamp(config.g_min, config.g_max);
            }
        }
        XBAR_PROGRAMS.inc();
        XBAR_PROGRAM_CELLS.add((rows * cols) as u64);
        Crossbar {
            config: *config,
            rows,
            cols,
            g_pos,
            g_neg,
            scale,
            ir_drop: None,
            exec_cache: OnceLock::new(),
            int_seed,
            parity: None,
        }
    }

    /// The execution state (differential matrix, integer codes), computed
    /// on first use and cached until the next conductance mutation. Each
    /// call counts as one cache lookup, so a product fetches it once per
    /// tile use and passes it down.
    pub(crate) fn exec(&self) -> &ExecState {
        CACHE_LOOKUPS.inc();
        let capable = self.config.integer_path_capable();
        if capable && self.exec_cache.get().is_some() {
            DAC_CACHE_HITS.inc();
        }
        self.exec_cache.get_or_init(|| {
            CACHE_BUILDS.inc();
            if capable {
                DAC_CACHE_MISSES.inc();
            }
            self.build_exec()
        })
    }

    /// The effective weight matrix `(g_pos − g_neg) · scale` (IR drop
    /// folded in), shared by every inference through the tile. Built on
    /// first use inside the cached execution state `exec`.
    fn diff<'s>(&'s self, exec: &'s ExecState) -> &'s Tensor {
        exec.diff.get_or_init(|| self.compute_diff())
    }

    /// `(g_pos − g_neg) · scale` with IR drop folded in, computed afresh.
    fn compute_diff(&self) -> Tensor {
        let s = self.scale;
        match &self.ir_drop {
            // Per-cell attenuation of both planes — the same math the
            // destructive application used, now recomputed from pristine
            // conductances so repeated model changes never compound.
            Some(model) => {
                let gp = model.attenuate(&self.g_pos);
                let gn = model.attenuate(&self.g_neg);
                gp.zip_map(&gn, move |p, n| (p - n) * s)
            }
            None => self.g_pos.zip_map(&self.g_neg, move |p, n| (p - n) * s),
        }
    }

    /// Drops the cached execution state after a conductance (or IR-drop
    /// model) mutation.
    fn invalidate_cache(&mut self) {
        self.exec_cache = OnceLock::new();
        // The program-time code image no longer matches the planes; from
        // here on the integer state must be re-derived from conductances.
        self.int_seed = None;
        CACHE_INVALIDATIONS.inc();
        if self.config.integer_path_capable() {
            DAC_CACHE_INVALIDATIONS.inc();
        }
    }

    fn build_exec(&self) -> ExecState {
        ExecState { diff: OnceLock::new(), int: self.build_int() }
    }

    /// Extracts the integer-domain image of the tile, or `None` when the
    /// config is not integer-capable or a conductance is non-finite (a
    /// NaN-poisoned weight must keep poisoning outputs, which only the
    /// `f32` path guarantees).
    ///
    /// Conductances land exactly on the cell grid at program time, so on
    /// an unmutated tile the codes are lossless; post-fault conductances
    /// (disturb/drift/flip and in-window stuck magnitudes) round to the
    /// nearest code — a read-quantization error bounded by half a cell
    /// step. The window endpoints are grid points, so stuck-at faults stay
    /// exactly visible.
    fn build_int(&self) -> Option<IntState> {
        if !self.config.integer_path_capable() {
            return None;
        }
        let window = self.config.g_max - self.config.g_min;
        let max_code = (1i32 << self.config.cell_bits) - 1;
        let step_g = window / max_code as f32;
        let step_w = step_g * self.scale;
        if !(step_w.is_finite() && step_w > 0.0) {
            return None;
        }
        let drop = self.int_drop_factors();
        // Pristine tile: the program-time image is authoritative.
        if let Some(seed) = &self.int_seed {
            return Some(IntState::new(seed, self.cols, drop, step_w));
        }
        let inv_step_g = 1.0 / step_g;
        let mut codes = vec![0i16; self.rows * self.cols];
        for ((code, &p), &n) in codes.iter_mut().zip(self.g_pos.as_slice()).zip(self.g_neg.as_slice())
        {
            let d = p - n;
            if !d.is_finite() {
                return None;
            }
            *code = ((d * inv_step_g).round() as i32).clamp(-max_code, max_code) as i16;
        }
        Some(IntState::new(&codes, self.cols, drop, step_w))
    }

    /// Per-(row block, column) mean IR-drop factors for the integer path
    /// (`[n_blocks, cols]`), or `None` when no resistive model is stored.
    /// One combined loading estimate over both planes: the int path
    /// attenuates the differential partial sum, not each plane, so it sees
    /// one factor per cell group.
    fn int_drop_factors(&self) -> Option<Vec<f32>> {
        self.ir_drop.filter(|m| m.r_wire() > 0.0).map(|model| {
            let gp = self.g_pos.as_slice();
            let gn = self.g_neg.as_slice();
            let g_avg = gp.iter().chain(gn).map(|v| v.abs()).sum::<f32>()
                / (gp.len() + gn.len()).max(1) as f32;
            let mut factors = Vec::with_capacity(self.rows.div_ceil(ROW_BLOCK) * self.cols);
            for r0 in (0..self.rows).step_by(ROW_BLOCK) {
                let r1 = (r0 + ROW_BLOCK).min(self.rows);
                factors.extend((0..self.cols).map(|c| model.mean_factor(r0, r1, c, g_avg)));
            }
            factors
        })
    }

    /// The tile's DAC level grid, exactly when its config runs the
    /// integer path.
    pub(crate) fn dac_grid(&self) -> Option<DacGrid> {
        if !self.config.integer_path_capable() {
            return None;
        }
        let levels = 1u32 << self.config.dac_bits;
        let (lo, hi) = (-INPUT_RANGE, INPUT_RANGE);
        let step = (hi - lo) / (levels - 1) as f32;
        Some(DacGrid { lo, hi, step, inv_step: 1.0 / step, center: (levels / 2) as i32 })
    }

    /// Number of word lines in use.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bit lines in use.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads the effective weight matrix back from the conductances —
    /// what the analog computation actually uses. A tile whose execution
    /// state is cached reads its differential matrix from there; any other
    /// computes the matrix directly, without building the integer state a
    /// read-back never uses.
    pub fn effective_weights(&self) -> Tensor {
        match self.exec_cache.get() {
            Some(_) => self.diff(self.exec()).clone(),
            None => self.compute_diff(),
        }
    }

    /// The tile's configuration.
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// Worst-case weight-domain output magnitude the ADC is sized for:
    /// every word line driven at the DAC's input range into a cell at the
    /// full conductance window.
    pub fn adc_full_scale(&self) -> f32 {
        INPUT_RANGE * self.rows as f32 * (self.config.g_max - self.config.g_min) * self.scale
    }

    /// Stores a first-order IR-drop model on the tile, replacing any
    /// previous one (`r_wire == 0` clears it). The pristine conductances
    /// are left untouched: the `f32` path folds per-cell attenuation (see
    /// [`IrDropModel::attenuate`]) into the effective weight matrix on the
    /// next rebuild, and the integer path applies mean factors to its
    /// `i32` partial sums at row-block (`ROW_BLOCK`) granularity — so enabling IR
    /// drop no longer forces the `f32` slow path, and re-applying a model
    /// is idempotent instead of compounding.
    pub fn apply_ir_drop(&mut self, model: &IrDropModel) {
        self.ir_drop = (model.r_wire() > 0.0).then_some(*model);
        if tel::enabled() {
            IR_DROP_APPLIED.inc();
            // Worst-case wire loss: the smallest factor any live
            // (positive-path) conductance will see on rebuild.
            let gp = self.g_pos.as_slice();
            let g_avg =
                gp.iter().map(|v| v.abs()).sum::<f32>() / gp.len().max(1) as f32;
            let mut min_factor = f64::INFINITY;
            for r in 0..self.rows {
                for c in 0..self.cols {
                    if gp[r * self.cols + c] > 0.0 {
                        min_factor = min_factor.min(f64::from(model.factor(r, c, g_avg)));
                    }
                }
            }
            if min_factor.is_finite() {
                IR_DROP_MIN_FACTOR.set_min(min_factor);
            }
        }
        self.invalidate_cache();
    }

    /// Freezes one differential pair so it reads as the given
    /// weight-domain value: the magnitude (clamped to the representable
    /// range of the tile's programmed scale) lands on the positive or
    /// negative conductance path per the sign convention, and the opposite
    /// path is parked at `g_min`.
    ///
    /// # Panics
    ///
    /// Panics if `row`/`col` are out of bounds or `weight` is non-finite.
    pub fn stick_cell(&mut self, row: usize, col: usize, weight: f32) {
        assert!(
            row < self.rows && col < self.cols,
            "cell ({row}, {col}) outside {}x{} tile",
            self.rows,
            self.cols
        );
        assert!(weight.is_finite(), "stuck weight must be finite, got {weight}");
        let window = self.config.g_max - self.config.g_min;
        let magnitude = (weight.abs() / self.scale).min(window);
        let (p, n) = if weight >= 0.0 {
            (self.config.g_min + magnitude, self.config.g_min)
        } else {
            (self.config.g_min, self.config.g_min + magnitude)
        };
        let idx = row * self.cols + col;
        self.g_pos.as_mut_slice()[idx] = p;
        self.g_neg.as_mut_slice()[idx] = n;
        CELLS_STUCK.inc();
        self.invalidate_cache();
        // A pinned cell is a *known, persistent* defect owned by the
        // checkup/repair path; re-baseline the scrubber around it so
        // online parity stays focused on transient flips.
        self.refresh_parity();
    }

    /// Batched analog inference `wᵀ·x` for `N` input patterns
    /// (`[batch, rows]`, indexed by word line) in one pass, returning
    /// `[batch, cols]` (indexed by bit line): DAC-quantize the inputs,
    /// accumulate bit-line currents, ADC-quantize the outputs.
    ///
    /// The analog accumulate is a single product against the cached
    /// conductance state instead of `batch` single-row sweeps; DAC and ADC
    /// quantization apply elementwise and every output row is computed
    /// independently, so a one-row batch returns bit for bit that row of
    /// any larger batch.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not 2-D with `rows()` columns.
    pub fn matmul(&self, input: &Tensor) -> Tensor {
        self.matmul_in(self.exec(), input)
    }

    /// [`Crossbar::matmul`] against an execution state the caller already
    /// fetched (one cache lookup per tile use).
    pub(crate) fn matmul_in(&self, exec: &ExecState, input: &Tensor) -> Tensor {
        assert_eq!(input.ndim(), 2, "batched input must be [batch, rows]");
        assert_eq!(
            input.shape()[1],
            self.rows,
            "input width {} != word-line count {}",
            input.shape()[1],
            self.rows
        );
        let batch = input.shape()[0];
        // Integer fast path: the batch's DAC codes, transposed to one row
        // per word line, through the column kernel with the fold and the
        // ADC fused, and the `[cols, batch]` result transposed back.
        if let (Some(int), Some(grid)) = (&exec.int, self.dac_grid()) {
            let t_dac = tel::enabled().then(Instant::now);
            if let Some((codes, lanes)) = grid.dense_codes_for(input.as_slice(), batch, self.rows) {
                PHASE_DAC_NS.record_since(t_dac);
                if tel::enabled() {
                    record_dac(input.as_slice());
                }
                let t_acc = tel::enabled().then(Instant::now);
                let mut acc = vec![0i32; self.cols * lanes];
                let mut out = vec![0.0f32; self.cols * batch];
                self.int_cols(int, &grid, &codes, lanes, lanes, &mut acc, &mut out);
                PHASE_ACCUMULATE_NS.record_since(t_acc);
                return Tensor::from_vec(out, &[self.cols, batch])
                    .expect("integer-path output shape is consistent by construction")
                    .transpose();
            }
        }
        // f32 reference path (exact/ideal configs, NaN inputs, or
        // integer-incapable precision settings).
        let mut out = if self.config.dac_bits > 0 {
            let mut v = input.clone();
            if tel::enabled() {
                record_dac(v.as_slice());
            }
            let t_dac = tel::enabled().then(Instant::now);
            let q = Quantizer::new(-INPUT_RANGE, INPUT_RANGE, self.config.dac_bits);
            q.quantize_slice(v.as_mut_slice());
            PHASE_DAC_NS.record_since(t_dac);
            let t_acc = tel::enabled().then(Instant::now);
            let out = v.matmul(self.diff(exec));
            PHASE_ACCUMULATE_NS.record_since(t_acc);
            out
        } else {
            // Analog accumulate directly in the weight domain: the cached
            // differential matrix already carries the (g+ − g−)·scale fold,
            // so one GEMM yields I_bj·scale = Σ_i v_bi (g+_ij − g−_ij)·scale.
            let t_acc = tel::enabled().then(Instant::now);
            let out = input.matmul(self.diff(exec));
            PHASE_ACCUMULATE_NS.record_since(t_acc);
            out
        };
        let t_adc = tel::enabled().then(Instant::now);
        self.adc_quantize(out.as_mut_slice());
        PHASE_ADC_NS.record_since(t_adc);
        out
    }

    /// ADC stage shared by every execution path: records saturation stats
    /// and snaps outputs to the ADC grid when `adc_bits > 0`. Elementwise,
    /// so quantizing an output in pieces equals quantizing it whole, and
    /// the recorded counts and worst ratio add up the same.
    #[inline(always)]
    fn adc_quantize(&self, out: &mut [f32]) {
        if self.config.adc_bits == 0 {
            return;
        }
        // ADC full scale sized to the worst-case current of the tile.
        let full_scale = self.adc_full_scale();
        if tel::enabled() {
            record_converter(out, full_scale, &ADC_SAMPLES, &ADC_CLIPPED, &ADC_SATURATION);
        }
        let q = Quantizer::new(-full_scale, full_scale, self.config.adc_bits);
        q.quantize_slice(out);
    }

    /// The integer product of this tile: the outputs of `w` inputs whose
    /// centered codes (see [`DacGrid::centered_codes_for`]) `x` holds as
    /// one row per word line of the tile, `stride` apart, plus one more
    /// row for an odd last word line to pair with. The kernel runs over
    /// `lanes ≥ w` columns of `x` (a dense batch padded to whole vector
    /// blocks) into `acc` (`[cols, lanes]` scratch); only the first `w`
    /// columns are folded, ADC-quantized and counted, into `dst`
    /// (`[cols, w]`).
    ///
    /// Per output: exact i32 sums per [`ROW_BLOCK`] (vector lanes over
    /// the inputs, see [`intacc::accumulate_col_pairs`]) plus the
    /// centering offset times the column sum, one f64 fold, IR-drop
    /// factors applied per block in ascending order, then the ADC. Each
    /// output depends on its own input column alone, so it is the same
    /// bits at any batch size, padding or split of the columns.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn int_cols(
        &self,
        int: &IntState,
        grid: &DacGrid,
        x: &[i16],
        stride: usize,
        lanes: usize,
        acc: &mut [i32],
        dst: &mut [f32],
    ) {
        #[cfg(target_arch = "x86_64")]
        if Tier::Avx2.supported() {
            // SAFETY: the shared CPU probe verified AVX2 support.
            return unsafe { self.int_cols_avx2(int, grid, x, stride, lanes, acc, dst) };
        }
        self.int_cols_body(int, grid, x, stride, lanes, acc, dst);
    }

    /// [`Crossbar::int_cols`] compiled with AVX2, so the fold and the ADC
    /// loops run four `f64` (eight `f32`) lanes wide. The same IEEE
    /// operations per element as the baseline build (no fused
    /// multiply-add), so the outputs match bit for bit. An explicit
    /// wrapper rather than `simd::run`: passing the seven arguments
    /// through a closure cost the checkup about 1% (DESIGN.md §8).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn int_cols_avx2(
        &self,
        int: &IntState,
        grid: &DacGrid,
        x: &[i16],
        stride: usize,
        lanes: usize,
        acc: &mut [i32],
        dst: &mut [f32],
    ) {
        self.int_cols_body(int, grid, x, stride, lanes, acc, dst);
    }

    /// The body of [`Crossbar::int_cols`], inlined into both builds.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn int_cols_body(
        &self,
        int: &IntState,
        grid: &DacGrid,
        x: &[i16],
        stride: usize,
        lanes: usize,
        acc: &mut [i32],
        dst: &mut [f32],
    ) {
        let (rows, cols) = (self.rows, self.cols);
        let w = dst.len() / cols.max(1);
        if w == 0 {
            return;
        }
        INT_ROWBLOCKS.add((rows.div_ceil(ROW_BLOCK) * w) as u64);
        let step_x = f64::from(grid.step);
        let lo = f64::from(grid.lo);
        let sw = f64::from(int.step_w);
        // Word lines [r0, r1) of the tile; r0 is even, so pair q0 = r0/2.
        let block = |r0: usize, r1: usize, acc: &mut [i32]| {
            let words = &int.words[r0 / 2 * cols..r1.div_ceil(2) * cols];
            intacc::accumulate_col_pairs(&x[r0 * stride..], stride, lanes, words, cols, acc);
        };
        match &int.drop {
            None => {
                acc.fill(0);
                for r0 in (0..rows).step_by(ROW_BLOCK) {
                    block(r0, (r0 + ROW_BLOCK).min(rows), acc);
                }
                let lines = dst.chunks_exact_mut(w).zip(acc.chunks_exact(lanes));
                for ((d, a), &sum) in lines.zip(&int.colsums) {
                    let (offset, bias) = (grid.center * sum, lo * f64::from(sum));
                    for (d, &a) in d.iter_mut().zip(&a[..w]) {
                        *d = ((step_x * f64::from(a + offset) + bias) * sw) as f32;
                    }
                }
            }
            Some(drop) => {
                // Per-block partial sums, each scaled by its block's mean
                // IR-drop factor before the f32 accumulation.
                dst.fill(0.0);
                for (blk, r0) in (0..rows).step_by(ROW_BLOCK).enumerate() {
                    acc.fill(0);
                    block(r0, (r0 + ROW_BLOCK).min(rows), acc);
                    let sums = &int.block_colsums[blk * cols..][..cols];
                    let factors = &drop[blk * cols..][..cols];
                    for (((d, a), &sum), &factor) in
                        dst.chunks_exact_mut(w).zip(acc.chunks_exact(lanes)).zip(sums).zip(factors)
                    {
                        let (offset, bias) = (grid.center * sum, lo * f64::from(sum));
                        let factor = f64::from(factor);
                        for (d, &a) in d.iter_mut().zip(&a[..w]) {
                            *d += (factor * ((step_x * f64::from(a + offset) + bias) * sw)) as f32;
                        }
                    }
                }
            }
        }
        self.adc_quantize(dst);
    }

    /// Freezes a fraction of cells (chosen uniformly over both
    /// differential paths) in the given fault state.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn inject_stuck_cells(&mut self, fault: CellFault, fraction: f64, rng: &mut SeededRng) {
        assert!((0.0..=1.0).contains(&fraction), "fraction {fraction} outside [0, 1]");
        let target = match fault {
            CellFault::StuckLow => self.config.g_min,
            CellFault::StuckHigh => self.config.g_max,
        };
        let mut stuck = 0u64;
        for g in self
            .g_pos
            .as_mut_slice()
            .iter_mut()
            .chain(self.g_neg.as_mut_slice())
        {
            if rng.chance(fraction) {
                *g = target;
                stuck += 1;
            }
        }
        CELLS_STUCK.add(stuck);
        self.invalidate_cache();
    }

    /// Applies lognormal conductance disturbance to every cell,
    /// `g' = g · e^θ` with `θ ~ N(0, σ²)`, clamped to the conductance
    /// window — the in-field counterpart of programming variation.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0`.
    pub fn disturb(&mut self, sigma: f32, rng: &mut SeededRng) {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        let (lo, hi) = (self.config.g_min, self.config.g_max);
        let mut factors = vec![0.0f32; self.g_pos.len() + self.g_neg.len()];
        rng.fill_lognormal(&mut factors, 0.0, sigma);
        for (g, &f) in self
            .g_pos
            .as_mut_slice()
            .iter_mut()
            .chain(self.g_neg.as_mut_slice())
            .zip(&factors)
        {
            *g = (*g * f).clamp(lo, hi);
        }
        DISTURB_EVENTS.inc();
        self.invalidate_cache();
    }

    /// Applies deterministic conductance drift toward the high-resistance
    /// state: `g' = g_min + (g − g_min)·e^(−ν·t)` per cell with
    /// `ν ~ |N(0, nu)|`.
    ///
    /// # Panics
    ///
    /// Panics if `nu` or `time` is negative.
    pub fn drift(&mut self, nu: f32, time: f32, rng: &mut SeededRng) {
        assert!(nu >= 0.0 && time >= 0.0, "drift parameters must be non-negative");
        let lo = self.config.g_min;
        let mut rates = vec![0.0f32; self.g_pos.len() + self.g_neg.len()];
        rng.fill_normal(&mut rates, 0.0, nu);
        for (g, &z) in self
            .g_pos
            .as_mut_slice()
            .iter_mut()
            .chain(self.g_neg.as_mut_slice())
            .zip(&rates)
        {
            *g = lo + (*g - lo) * fastmath::exp(-z.abs() * time);
        }
        DRIFT_EVENTS.inc();
        self.invalidate_cache();
    }

    /// Flips each cell (both differential paths) independently with
    /// probability `probability` to a uniform draw over the conductance
    /// window — the sparse transient-upset counterpart of the dense
    /// [`Crossbar::disturb`] noise, and the device-level image of the
    /// digital `RandomSoftError` fault. Returns the number of flipped
    /// cells.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is not in `[0, 1]`.
    pub fn flip_cells(&mut self, probability: f64, rng: &mut SeededRng) -> usize {
        assert!(
            (0.0..=1.0).contains(&probability),
            "flip probability {probability} outside [0, 1]"
        );
        let (lo, hi) = (self.config.g_min, self.config.g_max);
        let mut flipped = 0usize;
        for g in self
            .g_pos
            .as_mut_slice()
            .iter_mut()
            .chain(self.g_neg.as_mut_slice())
        {
            if rng.chance(probability) {
                *g = rng.uniform(lo, hi);
                flipped += 1;
            }
        }
        CELLS_FLIPPED.add(flipped as u64);
        self.invalidate_cache();
        flipped
    }

    /// Enables online soft-error tolerance: captures XOR checksums over
    /// both conductance planes (the spare checksum columns). Idempotent —
    /// re-enabling re-baselines to the current conductances.
    pub fn enable_parity(&mut self) {
        let pos = ParityCheck::capture(self.rows, self.cols, self.g_pos.as_slice());
        let neg = ParityCheck::capture(self.rows, self.cols, self.g_neg.as_slice());
        self.parity = Some(Box::new([pos, neg]));
    }

    /// Re-baselines the parity checksums to the current conductances —
    /// the scrubber acknowledging legitimate writes or slow expected
    /// aging the checkup path owns. No-op when parity is disabled.
    pub fn refresh_parity(&mut self) {
        if let Some(parity) = &mut self.parity {
            parity[0].refresh(self.g_pos.as_slice());
            parity[1].refresh(self.g_neg.as_slice());
        }
    }

    /// Scrubs both conductance planes against the parity checksums,
    /// restoring correctable transient flips to their exact original bit
    /// patterns (see [`ParityCheck::scrub`]). If any cell was corrected,
    /// the differential-conductance cache is invalidated exactly once.
    /// Returns the merged outcome (empty when parity is disabled).
    pub fn scrub_parity(&mut self) -> ScrubOutcome {
        let Some(parity) = &self.parity else { return ScrubOutcome::default() };
        let mut outcome = parity[0].scrub(self.g_pos.as_mut_slice());
        outcome.merge(parity[1].scrub(self.g_neg.as_mut_slice()));
        if outcome.corrected > 0 {
            self.invalidate_cache();
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TiledMatrix;

    fn ideal_config() -> CrossbarConfig {
        CrossbarConfig::ideal()
    }

    /// One tile's integer product as a plain scalar loop, independent of
    /// the column kernel and its layouts: exact `i32` sums of DAC level
    /// indices times the tile's codes scanned from its conductance
    /// planes, the `f64` fold per output, IR drop per 32-row block in
    /// ascending order, then the ADC. `None` without an integer path or
    /// for a NaN input.
    fn reference_product(tile: &Crossbar, input: &Tensor) -> Option<Tensor> {
        let config = tile.config();
        if !config.integer_path_capable() {
            return None;
        }
        let grid = tile.dac_grid()?;
        let (rows, cols, batch) = (tile.rows(), tile.cols(), input.shape()[0]);
        let levels: Vec<i32> = grid
            .centered_codes_for(input.as_slice())?
            .iter()
            .map(|&c| i32::from(c) + grid.center)
            .collect();
        let max_code = (1i32 << config.cell_bits) - 1;
        let step_g = (config.g_max - config.g_min) / max_code as f32;
        let inv_step_g = 1.0 / step_g;
        let codes: Vec<i32> = tile
            .g_pos
            .as_slice()
            .iter()
            .zip(tile.g_neg.as_slice())
            .map(|(&p, &n)| (((p - n) * inv_step_g).round() as i32).clamp(-max_code, max_code))
            .collect();
        let (step_x, lo) = (f64::from(grid.step), f64::from(grid.lo));
        let step_w = f64::from(step_g * tile.scale);
        let drop = tile.int_drop_factors();
        let mut out = vec![0.0f32; batch * cols];
        for b in 0..batch {
            let x = &levels[b * rows..(b + 1) * rows];
            for j in 0..cols {
                // The exact sum over word lines [r0, r1) and their codes' sum.
                let sums = |r0: usize, r1: usize| {
                    (r0..r1).fold((0i32, 0i32), |(acc, sum), i| {
                        let k = codes[i * cols + j];
                        (acc + x[i] * k, sum + k)
                    })
                };
                let fold = |(acc, sum): (i32, i32)| {
                    (step_x * f64::from(acc) + lo * f64::from(sum)) * step_w
                };
                let dst = &mut out[b * cols + j];
                match &drop {
                    None => *dst = fold(sums(0, rows)) as f32,
                    Some(factors) => {
                        *dst = 0.0;
                        for (blk, r0) in (0..rows).step_by(ROW_BLOCK).enumerate() {
                            let partial = fold(sums(r0, (r0 + ROW_BLOCK).min(rows)));
                            *dst += (f64::from(factors[blk * cols + j]) * partial) as f32;
                        }
                    }
                }
            }
        }
        tile.adc_quantize(&mut out);
        Some(Tensor::from_vec(out, &[batch, cols]).unwrap())
    }

    /// [`reference_product`] over a tile grid: each tile on its word
    /// lines' inputs, partial sums added across row blocks in ascending
    /// order, the first row block assigning.
    fn tiled_reference(tiled: &TiledMatrix, input: &Tensor) -> Tensor {
        let ((m, n), batch) = (tiled.shape(), input.shape()[0]);
        let grid_cols = tiled.tile_grid().1;
        let (row_extent, col_extent) = (tiled.tiles()[0].rows(), tiled.tiles()[0].cols());
        let mut out = vec![0.0f32; batch * n];
        for (k, tile) in tiled.tiles().iter().enumerate() {
            let (br, bc) = (k / grid_cols, k % grid_cols);
            let segment: Vec<f32> = (0..batch)
                .flat_map(|b| input.as_slice()[b * m + br * row_extent..][..tile.rows()].to_vec())
                .collect();
            let segment = Tensor::from_vec(segment, &[batch, tile.rows()]).unwrap();
            let partial = reference_product(tile, &segment).expect("an integer-path tile");
            for b in 0..batch {
                for j in 0..tile.cols() {
                    let p = partial.as_slice()[b * tile.cols() + j];
                    let o = &mut out[b * n + bc * col_extent + j];
                    *o = if br == 0 { p } else { *o + p };
                }
            }
        }
        Tensor::from_vec(out, &[batch, n]).unwrap()
    }

    fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
    }

    #[test]
    fn integer_products_match_the_scalar_reference_bit_for_bit() {
        // A 101 × 12 matrix on 96 × 8 and on 97 × 8 tiles (2 × 2 grids
        // whose row blocks hold odd word-line counts and up to four
        // 32-row blocks), and alone on one 128 × 16 tile, with the 8-bit
        // ADC and without one (whose outputs show every bit of the fold).
        // Pristine tiles read their program-time codes; IR drop and aging
        // (drift plus stuck cells) make them rescan the planes. Batches
        // straddle every 16-lane boundary, and 600 rows split across the
        // pool when more than one thread is configured.
        let mut rng = SeededRng::new(50);
        for (tile_rows, adc_bits) in [(96usize, 8u32), (97, 8), (96, 0), (97, 0)] {
            let base = CrossbarConfig { adc_bits, ..CrossbarConfig::default() };
            let single = CrossbarConfig { rows: 128, cols: 16, ..base };
            let config = CrossbarConfig { rows: tile_rows, cols: 8, ..base };
            for (ir_drop, aged) in [(false, false), (true, false), (false, true), (true, true)] {
                let w = Tensor::randn(&[101, 12], &mut rng).map(|v| v * 0.3);
                let mut tiled = TiledMatrix::program(&w, &config, &mut rng);
                let mut tile = Crossbar::program(&w, &single, &mut rng);
                assert_eq!(tiled.tile_grid(), (2, 2));
                if ir_drop {
                    tiled.apply_ir_drop(&IrDropModel::new(0.05));
                    tile.apply_ir_drop(&IrDropModel::new(0.05));
                }
                if aged {
                    tiled.drift(0.3, 1.0, &mut rng);
                    tiled.inject_stuck_cells(CellFault::StuckLow, 0.05, &mut rng);
                    tiled.inject_stuck_cells(CellFault::StuckHigh, 0.02, &mut rng);
                    tile.drift(0.3, 1.0, &mut rng);
                    tile.inject_stuck_cells(CellFault::StuckLow, 0.05, &mut rng);
                    tile.inject_stuck_cells(CellFault::StuckHigh, 0.02, &mut rng);
                }
                assert_eq!(tile.int_seed.is_some(), !ir_drop && !aged);
                for batch in [1usize, 2, 3, 15, 16, 17, 33, 600] {
                    let mut x = Tensor::randn(&[batch, 101], &mut rng).map(|v| v * 0.6);
                    // ±∞ clamp to the DAC rails and stay on the integer path.
                    x.as_mut_slice()[0] = f32::INFINITY;
                    x.as_mut_slice()[batch * 101 - 1] = f32::NEG_INFINITY;
                    let what = format!(
                        "{tile_rows}-row tiles adc={adc_bits} ir={ir_drop} aged={aged} batch {batch}"
                    );
                    let want = reference_product(&tile, &x).expect("integer path");
                    assert_bits_eq(&tile.matmul(&x), &want, &format!("{what}: one tile"));
                    let want = tiled_reference(&tiled, &x);
                    assert_bits_eq(&tiled.matmul(&x), &want, &format!("{what}: grid"));
                    let cols = tiled.matmul_cols(&x.transpose());
                    assert_bits_eq(&cols, &want.transpose(), &format!("{what}: grid, columns"));
                }
            }
        }
    }

    /// `Crossbar::program`'s per-cell work as it was written before the
    /// loops were built per tier: the 8-lane full-scale scan, then the
    /// exact, seeded or unseeded quantize loop (with `round_fast` spelled
    /// as the `f32::round` it equals on its domain) or the cell quantizer,
    /// then the write noise. Returns both planes, the scale and the seed.
    fn reference_program(
        w: &Tensor,
        config: &CrossbarConfig,
        rng: &mut SeededRng,
    ) -> (Vec<f32>, Vec<f32>, f32, Option<Vec<i16>>) {
        let ws = w.as_slice();
        let (mut max_lanes, mut probe) = ([0.0f32; 8], [0.0f32; 8]);
        let mut chunks = ws.chunks_exact(8);
        for ch in chunks.by_ref() {
            for k in 0..8 {
                let a = ch[k].abs();
                max_lanes[k] = max_lanes[k].max(a);
                probe[k] += a * 0.0;
            }
        }
        let (mut raw_max, mut tail_finite) = (0.0f32, true);
        for &v in chunks.remainder() {
            raw_max = raw_max.max(v.abs());
            tail_finite &= v.is_finite();
        }
        for &m in &max_lanes {
            raw_max = raw_max.max(m);
        }
        let all_finite = tail_finite && probe.iter().all(|p| *p == 0.0);
        let raw_max = raw_max.max(f32::MIN_POSITIVE);
        let w_max = if config.exact_cells() { round_up_pow2(raw_max) } else { raw_max };
        let window = config.g_max - config.g_min;
        let scale = w_max / window;
        let (mut gp, mut gn) = (vec![0.0f32; ws.len()], vec![0.0f32; ws.len()]);
        let mut seed = None;
        let max_code = (1i32 << config.cell_bits) - 1;
        let (step_g, code_scale) = (window / max_code as f32, max_code as f32 / w_max);
        let fast = code_scale.is_finite() && all_finite && (max_code as f32) < ROUND_MAGIC_LIMIT;
        for (i, &w) in ws.iter().enumerate() {
            let pos = w >= 0.0;
            if config.exact_cells() {
                let magnitude = (w.abs() / w_max) * window;
                gp[i] = if pos { config.g_min + magnitude } else { config.g_min };
                gn[i] = if pos { config.g_min } else { config.g_min + magnitude };
            } else if fast {
                let idx = (w.abs() * code_scale).round().min(max_code as f32);
                let g = config.g_min + idx * step_g;
                gp[i] = if pos { g } else { config.g_min };
                gn[i] = if pos { config.g_min } else { g };
            } else {
                let q = Quantizer::new(config.g_min, config.g_max, config.cell_bits);
                let magnitude = (w.abs() / w_max) * window;
                gp[i] = q.quantize(if pos { config.g_min + magnitude } else { config.g_min });
                gn[i] = q.quantize(if pos { config.g_min } else { config.g_min + magnitude });
            }
        }
        let step_w = step_g * scale;
        if !config.exact_cells()
            && fast
            && config.integer_path_capable()
            && config.write_noise == 0.0
            && step_w.is_finite()
            && step_w > 0.0
        {
            let code = |w: f32| ((w.abs() * code_scale).round().min(max_code as f32)).copysign(w);
            seed = Some(ws.iter().map(|&w| code(w) as i16).collect());
        }
        if config.write_noise > 0.0 {
            let mut noise = vec![0.0f32; 2 * ws.len()];
            rng.fill_lognormal(&mut noise, 0.0, config.write_noise);
            for (g, &f) in gp.iter_mut().chain(gn.iter_mut()).zip(&noise) {
                *g = (*g * f).clamp(config.g_min, config.g_max);
            }
        }
        (gp, gn, scale, seed)
    }

    /// `IntState::new` as written before it was built per tier.
    fn reference_int_state(codes: &[i16], cols: usize) -> (Vec<i32>, Vec<i32>, Vec<i32>) {
        let rows = codes.len() / cols;
        let mut words = Vec::new();
        for pair in codes.chunks(2 * cols) {
            let (first, second) = pair.split_at(cols);
            for (j, &a) in first.iter().enumerate() {
                words.push(intacc::pair_word(a, second.get(j).copied().unwrap_or(0)));
            }
        }
        let mut block_colsums = vec![0i32; rows.div_ceil(ROW_BLOCK) * cols];
        for (i, &k) in codes.iter().enumerate() {
            block_colsums[i / cols / ROW_BLOCK * cols + i % cols] += i32::from(k);
        }
        let mut colsums = vec![0i32; cols];
        for (i, &k) in codes.iter().enumerate() {
            colsums[i % cols] += i32::from(k);
        }
        (words, block_colsums, colsums)
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Weight matrices that reach every branch of programming: shapes
    /// around the 8-, 16- and 32-lane boundaries, a 1 × 1 and an all-zero
    /// tile, exact `.5` ties of the 4-bit and 8-bit cell grids, and NaN,
    /// ±∞, −0.0 and subnormal weights.
    fn programming_cases(rng: &mut SeededRng) -> Vec<Tensor> {
        let mut cases = Vec::new();
        for (r, c) in [(1usize, 1usize), (1, 7), (1, 8), (3, 5), (4, 4), (2, 16), (17, 33), (31, 1)] {
            cases.push(Tensor::randn(&[r, c], rng).map(|v| v * 0.2));
        }
        cases.push(Tensor::zeros(&[9, 13]));
        cases.push(Tensor::randn(&[128, 128], rng).map(|v| v * 0.1));
        // Full scale 30/16 makes the 4-bit code scale exactly 8 (and
        // 255/16 the 8-bit one 16), so m/16 and m/32 sit on `.5` ties.
        let ladder = |n: usize, step: f32| -> Vec<f32> {
            (0..n).map(|m| (m as f32 * step).copysign(if m % 3 == 0 { -1.0 } else { 1.0 })).collect()
        };
        cases.push(Tensor::from_vec(ladder(31, 1.0 / 16.0), &[1, 31]).unwrap());
        cases.push(Tensor::from_vec(ladder(511, 1.0 / 32.0), &[7, 73]).unwrap());
        let mut special = Tensor::randn(&[5, 19], rng).map(|v| v * 0.3);
        let tiny = f32::from_bits(1);
        for (i, v) in [-0.0, tiny, -tiny, f32::MIN_POSITIVE / 4.0, 0.0].into_iter().enumerate() {
            special.as_mut_slice()[7 * i] = v;
        }
        cases.push(special.clone());
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut w = special.clone();
            w.as_mut_slice()[40] = poison;
            cases.push(w);
        }
        cases.push(Tensor::from_vec(vec![tiny, -tiny, -0.0], &[1, 3]).unwrap());
        cases
    }

    /// Every tier of `Crossbar::program` (scan, quantize loops, seed codes
    /// and the write-noise pass) programs exactly what the loops it
    /// replaced did, on every config's path.
    #[test]
    fn every_programming_tier_matches_the_reference_loops_bit_for_bit() {
        let mut rng = SeededRng::new(70);
        let cases = programming_cases(&mut rng);
        let configs = [
            CrossbarConfig::default(),
            CrossbarConfig { cell_bits: 8, ..CrossbarConfig::default() },
            CrossbarConfig { write_noise: 0.05, ..CrossbarConfig::default() },
            CrossbarConfig { dac_bits: 0, adc_bits: 0, ..CrossbarConfig::default() },
            CrossbarConfig { g_min: 0.1, g_max: 0.9, ..CrossbarConfig::default() },
            CrossbarConfig::ideal(),
            CrossbarConfig::exact(),
        ];
        for tier in Tier::runnable(&Tier::ALL) {
            for (ci, config) in configs.iter().enumerate() {
                for (wi, w) in cases.iter().enumerate() {
                    let what = format!("{tier:?}, config {ci}, case {wi} {:?}", w.shape());
                    let (mut a, mut b) = (SeededRng::new(wi as u64), SeededRng::new(wi as u64));
                    let (gp, gn, scale, seed) = reference_program(w, config, &mut a);
                    let tile = Crossbar::program_on(tier, w, config, &mut b);
                    assert_eq!(bits(tile.g_pos.as_slice()), bits(&gp), "{what}: g_pos");
                    assert_eq!(bits(tile.g_neg.as_slice()), bits(&gn), "{what}: g_neg");
                    assert_eq!(tile.scale.to_bits(), scale.to_bits(), "{what}: scale");
                    assert_eq!(tile.int_seed, seed, "{what}: seed codes");
                    assert_eq!(a.unit(), b.unit(), "{what}: RNG streams diverged");
                }
            }
        }
    }

    /// The shared full-scale scan on every tier: the largest `|w|` with
    /// NaN skipped and the finiteness verdict, at lengths around the lane
    /// counts and with a poison value at every position of a 33-wide row.
    #[test]
    fn every_full_scale_tier_matches_a_serial_fold() {
        let mut rng = SeededRng::new(71);
        let mut rows: Vec<Vec<f32>> = [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100]
            .into_iter()
            .map(|n| Tensor::randn(&[n.max(1)], &mut rng).as_slice()[..n].to_vec())
            .collect();
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, f32::from_bits(1)] {
            for at in 0..33 {
                let mut row = Tensor::randn(&[33], &mut rng).as_slice().to_vec();
                row[at] = poison;
                rows.push(row);
            }
        }
        rows.push(vec![f32::NAN; 20]);
        for tier in Tier::runnable(&Tier::ALL) {
            for row in &rows {
                let want_max = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                let want_finite = row.iter().all(|v| v.is_finite());
                let (max, finite) = full_scale_on(tier, row);
                assert_eq!(max.to_bits(), want_max.to_bits(), "{tier:?}: max of {row:?}");
                assert_eq!(finite, want_finite, "{tier:?}: finiteness of {row:?}");
            }
        }
    }

    /// `IntState`'s pair words and column sums on every tier, for odd and
    /// even word-line counts across several 32-row blocks and the
    /// extreme codes of an 8-bit cell.
    #[test]
    fn every_int_state_tier_matches_the_reference_loops() {
        let mut rng = SeededRng::new(72);
        for tier in Tier::runnable(&Tier::ALL) {
            for (rows, cols) in [(1usize, 1usize), (2, 1), (3, 5), (32, 16), (33, 17), (97, 8), (128, 128)] {
                let mut codes: Vec<i16> =
                    (0..rows * cols).map(|_| rng.below(511) as i16 - 255).collect();
                codes[0] = -255;
                codes[rows * cols - 1] = 255;
                let (words, block_colsums, colsums) = reference_int_state(&codes, cols);
                let int = IntState::new_on(tier, &codes, cols, None, 0.5);
                let what = format!("{tier:?}, {rows}x{cols}");
                assert_eq!(int.words, words, "{what}: pair words");
                assert_eq!(int.block_colsums, block_colsums, "{what}: block column sums");
                assert_eq!(int.colsums, colsums, "{what}: column sums");
            }
        }
    }

    #[test]
    fn program_read_back_ideal() {
        let mut rng = SeededRng::new(1);
        let w = Tensor::randn(&[6, 4], &mut rng);
        let xbar = Crossbar::program(&w, &ideal_config(), &mut rng);
        let back = xbar.effective_weights();
        for (a, b) in w.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() < 1e-4, "read-back mismatch {a} vs {b}");
        }
    }

    #[test]
    fn matvec_matches_ideal_dot_product() {
        let mut rng = SeededRng::new(2);
        let w = Tensor::randn(&[8, 5], &mut rng);
        let xbar = Crossbar::program(&w, &ideal_config(), &mut rng);
        let x = Tensor::randn(&[1, 8], &mut rng).map(|v| v.clamp(-1.0, 1.0));
        let y = xbar.matmul(&x);
        assert_eq!(y.shape(), &[1, 5]);
        // Ideal: y_j = Σ_i w_ij x_i = (Wᵀ x)_j
        let ideal = w.transpose().matvec(&x.reshape(&[8]).unwrap());
        for (a, b) in y.as_slice().iter().zip(ideal.as_slice()) {
            assert!((a - b).abs() < 1e-3, "matvec mismatch {a} vs {b}");
        }
    }

    #[test]
    fn quantization_bounds_error() {
        let mut rng = SeededRng::new(3);
        let w = Tensor::randn(&[8, 8], &mut rng);
        let config = CrossbarConfig { cell_bits: 4, dac_bits: 0, adc_bits: 0, write_noise: 0.0, ..CrossbarConfig::default() };
        let xbar = Crossbar::program(&w, &config, &mut rng);
        let back = xbar.effective_weights();
        let w_max = w.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let step = w_max / 15.0; // 4-bit magnitude levels
        for (a, b) in w.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= step / 2.0 + 1e-5, "quantization error too large: {a} vs {b}");
        }
    }

    #[test]
    fn coarser_cells_give_larger_error() {
        let mut rng = SeededRng::new(4);
        let w = Tensor::randn(&[16, 16], &mut rng);
        let err_for_bits = |bits: u32, rng: &mut SeededRng| {
            let config = CrossbarConfig { cell_bits: bits, dac_bits: 0, adc_bits: 0, ..CrossbarConfig::default() };
            let xbar = Crossbar::program(&w, &config, rng);
            w.l1_distance(&xbar.effective_weights())
        };
        let coarse = err_for_bits(2, &mut rng);
        let fine = err_for_bits(6, &mut rng);
        assert!(coarse > fine * 2.0, "coarse {coarse} vs fine {fine}");
    }

    #[test]
    fn write_noise_perturbs_weights() {
        let mut rng = SeededRng::new(5);
        let w = Tensor::randn(&[8, 8], &mut rng);
        let config = CrossbarConfig { write_noise: 0.2, cell_bits: 16, dac_bits: 0, adc_bits: 0, ..CrossbarConfig::default() };
        let xbar = Crossbar::program(&w, &config, &mut rng);
        let dist = w.l1_distance(&xbar.effective_weights());
        assert!(dist > 0.1, "write noise had no effect: {dist}");
    }

    #[test]
    fn stuck_high_saturates_cells() {
        let mut rng = SeededRng::new(6);
        let w = Tensor::full(&[4, 4], 0.5);
        let mut xbar = Crossbar::program(&w, &ideal_config(), &mut rng);
        xbar.inject_stuck_cells(CellFault::StuckHigh, 1.0, &mut rng);
        // All cells at g_max: differential pairs cancel, weights -> 0.
        let back = xbar.effective_weights();
        assert!(back.as_slice().iter().all(|&v| v.abs() < 1e-5));
    }

    #[test]
    fn stuck_low_zeroes_positive_weights() {
        let mut rng = SeededRng::new(7);
        let w = Tensor::full(&[4, 4], 0.5);
        let mut xbar = Crossbar::program(&w, &ideal_config(), &mut rng);
        xbar.inject_stuck_cells(CellFault::StuckLow, 1.0, &mut rng);
        let back = xbar.effective_weights();
        assert!(back.as_slice().iter().all(|&v| v.abs() < 1e-5));
    }

    #[test]
    fn drift_decays_toward_zero_weight() {
        let mut rng = SeededRng::new(8);
        let w = Tensor::randn(&[6, 6], &mut rng);
        let mut xbar = Crossbar::program(&w, &ideal_config(), &mut rng);
        let before = xbar.effective_weights().norm_l1();
        xbar.drift(0.5, 2.0, &mut rng);
        let after = xbar.effective_weights().norm_l1();
        assert!(after < before, "drift should shrink weights: {before} -> {after}");
    }

    #[test]
    fn disturb_stays_in_window() {
        let mut rng = SeededRng::new(9);
        let w = Tensor::randn(&[6, 6], &mut rng);
        let mut xbar = Crossbar::program(&w, &CrossbarConfig::default(), &mut rng);
        xbar.disturb(0.5, &mut rng);
        for &g in xbar.g_pos.as_slice().iter().chain(xbar.g_neg.as_slice()) {
            assert!((0.0..=1.0).contains(&g), "conductance {g} escaped window");
        }
    }

    #[test]
    fn dac_quantization_changes_result() {
        let mut rng = SeededRng::new(10);
        let w = Tensor::randn(&[8, 4], &mut rng);
        let coarse_cfg = CrossbarConfig { dac_bits: 2, adc_bits: 0, cell_bits: 16, write_noise: 0.0, ..CrossbarConfig::default() };
        let xbar_c = Crossbar::program(&w, &coarse_cfg, &mut rng);
        let xbar_i = Crossbar::program(&w, &ideal_config(), &mut rng);
        let x = Tensor::randn(&[1, 8], &mut rng).map(|v| (v * 0.3).clamp(-1.0, 1.0));
        let diff = xbar_c.matmul(&x).l1_distance(&xbar_i.matmul(&x));
        assert!(diff > 1e-4, "2-bit DAC should visibly distort the product");
    }

    #[test]
    fn batched_matmul_bit_identical_to_matvec_rows() {
        let mut rng = SeededRng::new(20);
        for config in [CrossbarConfig::default(), ideal_config()] {
            let w = Tensor::randn(&[12, 7], &mut rng);
            let xbar = Crossbar::program(&w, &config, &mut rng);
            let batch = Tensor::randn(&[5, 12], &mut rng).map(|v| v.clamp(-1.0, 1.0));
            let out = xbar.matmul(&batch);
            assert_eq!(out.shape(), &[5, 7]);
            for b in 0..5 {
                let single = xbar.matmul(&batch.row(b).reshape(&[1, 12]).unwrap());
                for (j, (x, y)) in out.row(b).as_slice().iter().zip(single.as_slice()).enumerate()
                {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "batch row {b} col {j}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn fault_injection_invalidates_conductance_cache() {
        let mut rng = SeededRng::new(21);
        let w = Tensor::full(&[4, 4], 0.5);
        let x = Tensor::full(&[1, 4], 1.0);
        for mutate in [
            (|x: &mut Crossbar, r: &mut SeededRng| {
                x.inject_stuck_cells(CellFault::StuckHigh, 1.0, r)
            }) as fn(&mut Crossbar, &mut SeededRng),
            |x, r| x.disturb(0.8, r),
            |x, r| x.drift(1.0, 5.0, r),
        ] {
            let mut xbar = Crossbar::program(&w, &ideal_config(), &mut rng);
            let before = xbar.matmul(&x); // populates the cache
            mutate(&mut xbar, &mut rng);
            let after = xbar.matmul(&x);
            assert!(
                before.l1_distance(&after) > 1e-3,
                "batched result unchanged after fault injection: cache went stale"
            );
            // The cached matrix must agree with a from-scratch read-back.
            let fresh = xbar.g_pos.zip_map(&xbar.g_neg, |p, n| p - n).scale(xbar.scale);
            assert_eq!(
                xbar.effective_weights().as_slice(),
                fresh.as_slice(),
                "cached differential matrix differs from recomputation"
            );
        }
    }

    #[test]
    fn exact_mode_round_trips_bitwise() {
        let mut rng = SeededRng::new(30);
        let w = Tensor::randn(&[16, 9], &mut rng);
        let xbar = Crossbar::program(&w, &CrossbarConfig::exact(), &mut rng);
        let back = xbar.effective_weights();
        for (a, b) in w.as_slice().iter().zip(back.as_slice()) {
            // −0.0 programs as +0.0 (magnitude mapping); numerically equal.
            if *a == 0.0 {
                assert_eq!(*b, 0.0);
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "exact read-back drifted: {a} vs {b}");
            }
        }
    }

    #[test]
    fn exact_mode_matmul_bit_identical_to_digital() {
        let mut rng = SeededRng::new(31);
        let w = Tensor::randn(&[10, 6], &mut rng);
        let xbar = Crossbar::program(&w, &CrossbarConfig::exact(), &mut rng);
        let x = Tensor::randn(&[4, 10], &mut rng);
        let analog = xbar.matmul(&x);
        let digital = x.matmul(&w);
        assert_eq!(analog, digital, "exact-mode crossbar product must be bitwise digital");
    }

    #[test]
    fn stick_cell_pins_one_weight() {
        let mut rng = SeededRng::new(32);
        let w = Tensor::randn(&[5, 5], &mut rng);
        let mut xbar = Crossbar::program(&w, &CrossbarConfig::exact(), &mut rng);
        let x = Tensor::full(&[1, 5], 1.0);
        let before = xbar.matmul(&x); // populate cache
        xbar.stick_cell(2, 3, 0.0);
        xbar.stick_cell(1, 1, -0.25);
        let back = xbar.effective_weights();
        assert_eq!(back.as_slice()[2 * 5 + 3], 0.0);
        assert!((back.as_slice()[5 + 1] + 0.25).abs() < 1e-6);
        let after = xbar.matmul(&x);
        assert_ne!(
            before.as_slice(),
            after.as_slice(),
            "stick_cell left the conductance cache stale"
        );
    }

    #[test]
    fn ir_drop_attenuates_far_corner_and_invalidates_cache() {
        let mut rng = SeededRng::new(33);
        let w = Tensor::full(&[8, 8], 0.5);
        let mut xbar = Crossbar::program(&w, &ideal_config(), &mut rng);
        let x = Tensor::full(&[1, 8], 1.0);
        let before = xbar.matmul(&x);
        xbar.apply_ir_drop(&IrDropModel::new(0.05));
        let after = xbar.matmul(&x);
        assert!(
            before.l1_distance(&after) > 1e-3,
            "IR drop had no effect or the cache went stale"
        );
        let back = xbar.effective_weights();
        // The far corner sees the most wire resistance.
        assert!(back.as_slice()[63] < back.as_slice()[0]);
    }

    #[test]
    fn parity_scrub_restores_flips_and_keeps_cache_coherent() {
        let mut rng = SeededRng::new(40);
        let w = Tensor::randn(&[12, 9], &mut rng);
        let mut xbar = Crossbar::program(&w, &CrossbarConfig::exact(), &mut rng);
        xbar.enable_parity();
        let x = Tensor::randn(&[3, 12], &mut rng);
        let clean = xbar.matmul(&x); // populates the conductance cache
        let golden = xbar.effective_weights();
        let mut flip_rng = SeededRng::new(44);
        let flipped = xbar.flip_cells(0.01, &mut flip_rng);
        assert!(flipped > 0, "seeded flip pass must hit at least one cell");
        // The flip must invalidate the cache (stale results would still
        // read the clean product here)...
        let corrupted = xbar.matmul(&x);
        assert_ne!(clean.as_slice(), corrupted.as_slice(), "cache went stale across flip_cells");
        // ...and the in-situ correction must invalidate it again: after
        // the scrub, both the product and the read-back are bitwise the
        // pre-flip values, which is only possible if the corrected
        // conductances were re-read.
        let outcome = xbar.scrub_parity();
        assert_eq!(outcome.corrected, flipped, "every seeded flip is isolated and correctable");
        assert_eq!(outcome.uncorrectable, 0);
        assert_eq!(xbar.matmul(&x), clean, "corrected product must be bitwise the clean one");
        assert_eq!(xbar.effective_weights(), golden);
    }

    #[test]
    fn exact_mode_with_parity_on_stays_bitwise_digital() {
        let mut rng = SeededRng::new(42);
        let w = Tensor::randn(&[10, 6], &mut rng);
        let mut xbar = Crossbar::program(&w, &CrossbarConfig::exact(), &mut rng);
        xbar.enable_parity();
        let x = Tensor::randn(&[4, 10], &mut rng);
        let digital = x.matmul(&w);
        assert_eq!(xbar.matmul(&x), digital, "parity columns must not perturb the datapath");
        // A scrub over a clean tile is a no-op and keeps bit-identity.
        assert_eq!(xbar.scrub_parity(), ScrubOutcome::default());
        assert_eq!(xbar.matmul(&x), digital);
    }

    #[test]
    fn stick_cell_rebaselines_parity() {
        let mut rng = SeededRng::new(43);
        let w = Tensor::randn(&[6, 6], &mut rng);
        let mut xbar = Crossbar::program(&w, &CrossbarConfig::exact(), &mut rng);
        xbar.enable_parity();
        xbar.stick_cell(2, 2, 0.0);
        // The pinned defect is owned by the checkup path: the scrubber
        // must not "repair" it back to the original weight.
        let pinned = xbar.effective_weights();
        assert_eq!(xbar.scrub_parity(), ScrubOutcome::default());
        assert_eq!(xbar.effective_weights(), pinned);
    }

    #[test]
    #[should_panic(expected = "exceed tile geometry")]
    fn rejects_oversized_matrix() {
        let mut rng = SeededRng::new(11);
        let w = Tensor::zeros(&[200, 4]);
        Crossbar::program(&w, &CrossbarConfig::default(), &mut rng);
    }
}
