//! A single crossbar tile: differential conductance pairs, DAC/ADC
//! conversion, and device-level fault injection.

use crate::quant::{narrow_i16, round_fast, ROUND_MAGIC_LIMIT};
use crate::{CrossbarConfig, IrDropModel, ParityCheck, Quantizer, ScrubOutcome};
use healthmon_tensor::{fastmath, intacc, pool, SeededRng, Tensor};
use healthmon_telemetry as tel;
use std::sync::OnceLock;

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
/// codes and the precomputed sums the affine DAC→weight mapping needs.
///
/// With DAC level `idx` representing voltage `lo + idx·step_x` and code
/// `k` representing weight `k·step_w`, one output is
/// `step_w·(step_x·Σ idx_i·k_ij + lo·Σ k_ij)` — an exact `i32` dot plus a
/// per-column affine correction from the cached column sums.
#[derive(Debug, Clone)]
pub(crate) struct IntState {
    /// `[rows × cols_padded]` signed differential codes, row-major,
    /// zero-padded to a [`intacc::LANES`] multiple.
    codes: Vec<i16>,
    /// Per-row-block column sums `[n_blocks × cols_padded]`, for the
    /// IR-drop path's per-block affine correction.
    block_colsums: Vec<i32>,
    /// Whole-tile column sums `[cols_padded]`.
    colsums: Vec<i32>,
    /// Per-(row block, column) mean IR-drop factors, present when a model
    /// with non-zero wire resistance is stored.
    drop: Option<Vec<f32>>,
    /// Weight-domain value of one conductance-code step.
    step_w: f32,
    cols_padded: usize,
}

/// Program-time integer image of a pristine tile: the signed differential
/// conductance codes (`[rows, cols_padded]`) plus their column sums, laid
/// out exactly as [`IntState`] consumes them. Valid only while the
/// conductance planes are untouched since programming — every mutator
/// drops it.
#[derive(Debug, Clone)]
struct IntSeed {
    codes: Vec<i16>,
    block_colsums: Vec<i32>,
    colsums: Vec<i32>,
}

/// The DAC level grid of a tile: voltage of level `idx` is
/// `lo + idx·step`. Derived from `input_range` and `dac_bits` only, so
/// tiles sharing both (every tile of a [`crate::TiledMatrix`] unless a
/// caller re-calibrated one) share codes and the whole input can be
/// quantized once per batch.
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
    /// Quantizes raw activations to DAC level indices, or `None` if any
    /// value is NaN — NaN must poison whole output rows, which only the
    /// `f32` reference path reproduces.
    pub(crate) fn codes_for(&self, values: &[f32]) -> Option<Vec<i32>> {
        // 8-lane select loop with no early exit, so the compiler can keep
        // it branch-free. The ·0.0 probe goes sticky-NaN only for NaN
        // inputs: ±∞ clamps to a finite rail first, which is the allowed
        // saturation behaviour, while NaN survives `clamp` and must poison
        // whole output rows — only the `f32` reference path does that.
        // The level index is read straight out of the magic-add mantissa
        // (codes are non-negative and < 2²², so the low bits ARE the
        // rounded integer) — both `.round()` and an `as i32` cast lower
        // to serial scalar code that kept this loop at ~3 ns/element.
        const MAGIC: f32 = 12_582_912.0; // 1.5 · 2²³
        let mut codes = vec![0i32; values.len()];
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
                dst[k] = (shifted.to_bits() & 0x3F_FFFF) as i32 + bump;
            }
        }
        let mut tail_ok = true;
        for (&v, dst) in chunks.remainder().iter().zip(out.into_remainder()) {
            let clamped = v.clamp(self.lo, self.hi);
            tail_ok &= !clamped.is_nan();
            *dst = round_fast((clamped - self.lo) * self.inv_step) as i32;
        }
        if tail_ok && probe.iter().all(|p| *p == 0.0) {
            Some(codes)
        } else {
            None
        }
    }

    /// The column kernel's input codes for `values`: the level indices of
    /// [`DacGrid::codes_for`] minus the middle level, so that every code
    /// fits `i16` (the kernel adds the offset back exactly), or `None` if
    /// any value is NaN.
    pub(crate) fn centered_codes_for(&self, values: &[f32]) -> Option<Vec<i16>> {
        let codes = self.codes_for(values)?;
        Some(codes.into_iter().map(|c| (c - self.center) as i16).collect())
    }

    /// The centered code of 0.0: what a padding entry of a patch matrix
    /// reads, so that unfolding the codes of an input equals quantizing
    /// its unfolded patches.
    pub(crate) fn centered_zero(&self) -> i16 {
        self.centered_codes_for(&[0.0]).expect("0.0 is not NaN")[0]
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
    /// Largest |input| the DAC was calibrated for.
    input_range: f32,
    /// Stored IR-drop model (non-destructive: the pristine conductances
    /// stay untouched and the attenuation is folded into the execution
    /// state on rebuild). `None` when no drop is modelled.
    ir_drop: Option<IrDropModel>,
    /// Lazily-computed execution state shared by every inference through
    /// the tile: the effective weight matrix `(g_pos − g_neg) · scale`
    /// (in exact cell mode bitwise the programmed weights, making the
    /// crossbar product bit-identical to the digital one) and — on
    /// integer-capable configs — the quantized conductance codes of the
    /// i32 fast path. Every conductance mutator replaces the cell with a
    /// fresh empty one, so stale state can never be read after fault
    /// injection.
    exec_cache: OnceLock<ExecState>,
    /// Pristine integer image captured at program time: on noise-free
    /// integer-capable configs every conductance lands exactly on the cell
    /// grid, so programming emits the signed codes and their column sums
    /// directly and the first execution-state build is a memcpy instead of
    /// a full re-quantization scan of both planes. Any conductance
    /// mutation clears it (see [`Crossbar::invalidate_cache`]); the planes
    /// then become the only source of truth again.
    int_seed: Option<Box<IntSeed>>,
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
        config.validate();
        assert_eq!(weights.ndim(), 2, "crossbar stores a 2-D weight matrix");
        let (rows, cols) = (weights.shape()[0], weights.shape()[1]);
        assert!(
            rows <= config.rows && cols <= config.cols,
            "weights {rows}x{cols} exceed tile geometry {}x{}",
            config.rows,
            config.cols
        );
        // Fused 8-lane sweep: the per-lane max reduction vectorizes
        // (unlike a single-accumulator fold, which LLVM must keep serial),
        // and the ·0.0 probe turns any NaN/∞ into a sticky NaN per lane —
        // one pass yields both the programming full scale and the
        // finiteness verdict the quantized path branches on.
        let ws_all = weights.as_slice();
        let mut max_lanes = [0.0f32; 8];
        let mut probe = [0.0f32; 8];
        let mut chunks = ws_all.chunks_exact(8);
        for ch in chunks.by_ref() {
            for k in 0..8 {
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
        let all_finite = tail_finite && probe.iter().all(|p| *p == 0.0);
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
            let cols_padded = cols.next_multiple_of(intacc::LANES);
            let gp = g_pos.as_mut_slice();
            let gn = g_neg.as_mut_slice();
            let ws = weights.as_slice();
            let mut codes = None;
            if code_scale.is_finite() && all_finite && (max_code as f32) < ROUND_MAGIC_LIMIT {
                // Branch-light select form the compiler can vectorize:
                // zip iteration (indexed stores into the two planes leave
                // bounds checks that block the vectorizer), `round_fast`
                // instead of `.round()`'s serial scalar lowering, and on
                // the seeded path `narrow_i16` instead of a scalarizing
                // float→i16 cast. One fused pass derives the conductance
                // grid point and the signed seed code from the same
                // rounded level, so the seed and a later scan of the
                // planes agree on every index.
                let fmax = max_code as f32;
                if seedable {
                    let mut image = vec![0i16; rows * cols_padded];
                    for r in 0..rows {
                        let base = r * cols;
                        let row = &mut image[r * cols_padded..r * cols_padded + cols];
                        let wr = &ws[base..base + cols];
                        let gpr = &mut gp[base..base + cols];
                        let gnr = &mut gn[base..base + cols];
                        for (((&w, p), n), code) in
                            wr.iter().zip(gpr).zip(gnr).zip(row)
                        {
                            let idx = round_fast(w.abs() * code_scale).min(fmax);
                            let g = config.g_min + idx * step_g;
                            let pos = w >= 0.0;
                            *p = if pos { g } else { config.g_min };
                            *n = if pos { config.g_min } else { g };
                            *code = narrow_i16(idx.copysign(w));
                        }
                    }
                    codes = Some(image);
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
            int_seed = codes.map(|codes| {
                let n_blocks = rows.div_ceil(ROW_BLOCK);
                let mut block_colsums = vec![0i32; n_blocks * cols_padded];
                let mut colsums = vec![0i32; cols_padded];
                for r in 0..rows {
                    let block = &mut block_colsums[(r / ROW_BLOCK) * cols_padded..];
                    for c in 0..cols_padded {
                        let k = i32::from(codes[r * cols_padded + c]);
                        block[c] += k;
                        colsums[c] += k;
                    }
                }
                Box::new(IntSeed { codes, block_colsums, colsums })
            });
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
            input_range: 1.0,
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
        exec.diff.get_or_init(|| {
            let s = self.scale;
            match &self.ir_drop {
                // Per-cell attenuation of both planes — the same math the
                // destructive application used, now recomputed from
                // pristine conductances so repeated model changes never
                // compound.
                Some(model) => {
                    let gp = model.attenuate(&self.g_pos);
                    let gn = model.attenuate(&self.g_neg);
                    gp.zip_map(&gn, move |p, n| (p - n) * s)
                }
                None => self.g_pos.zip_map(&self.g_neg, move |p, n| (p - n) * s),
            }
        })
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
        let cols_padded = self.cols.next_multiple_of(intacc::LANES);
        let n_blocks = self.rows.div_ceil(ROW_BLOCK);
        if let Some(seed) = &self.int_seed {
            // Pristine tile: the program-time image is authoritative, so
            // the build is three buffer copies plus the drop factors.
            return Some(IntState {
                codes: seed.codes.clone(),
                block_colsums: seed.block_colsums.clone(),
                colsums: seed.colsums.clone(),
                drop: self.int_drop_factors(n_blocks, cols_padded),
                step_w,
                cols_padded,
            });
        }
        let inv_step_g = 1.0 / step_g;
        let gp = self.g_pos.as_slice();
        let gn = self.g_neg.as_slice();
        let mut codes = vec![0i16; self.rows * cols_padded];
        for r in 0..self.rows {
            for c in 0..self.cols {
                let d = gp[r * self.cols + c] - gn[r * self.cols + c];
                if !d.is_finite() {
                    return None;
                }
                let k = (d * inv_step_g).round() as i32;
                codes[r * cols_padded + c] = k.clamp(-max_code, max_code) as i16;
            }
        }
        let mut block_colsums = vec![0i32; n_blocks * cols_padded];
        let mut colsums = vec![0i32; cols_padded];
        for r in 0..self.rows {
            let block = &mut block_colsums[(r / ROW_BLOCK) * cols_padded..];
            for c in 0..cols_padded {
                let k = i32::from(codes[r * cols_padded + c]);
                block[c] += k;
                colsums[c] += k;
            }
        }
        let drop = self.int_drop_factors(n_blocks, cols_padded);
        Some(IntState { codes, block_colsums, colsums, drop, step_w, cols_padded })
    }

    /// Per-(row block, column) mean IR-drop factors for the integer path,
    /// or `None` when no resistive model is stored. One combined loading
    /// estimate over both planes: the int path attenuates the differential
    /// partial sum, not each plane, so it sees one factor per cell group.
    fn int_drop_factors(&self, n_blocks: usize, cols_padded: usize) -> Option<Vec<f32>> {
        self.ir_drop.filter(|m| m.r_wire() > 0.0).map(|model| {
            let gp = self.g_pos.as_slice();
            let gn = self.g_neg.as_slice();
            let g_avg = gp.iter().chain(gn).map(|v| v.abs()).sum::<f32>()
                / (gp.len() + gn.len()).max(1) as f32;
            let mut factors = vec![0.0f32; n_blocks * cols_padded];
            for blk in 0..n_blocks {
                let r0 = blk * ROW_BLOCK;
                let r1 = (r0 + ROW_BLOCK).min(self.rows);
                for c in 0..self.cols {
                    factors[blk * cols_padded + c] = model.mean_factor(r0, r1, c, g_avg);
                }
            }
            factors
        })
    }

    /// The tile's DAC level grid, when a DAC the integer path can use is
    /// configured.
    pub(crate) fn dac_grid(&self) -> Option<DacGrid> {
        if !(1..=16).contains(&self.config.dac_bits) {
            return None;
        }
        let levels = 1u32 << self.config.dac_bits;
        let (lo, hi) = (-self.input_range, self.input_range);
        let step = (hi - lo) / (levels - 1) as f32;
        Some(DacGrid { lo, hi, step, inv_step: 1.0 / step, center: (levels / 2) as i32 })
    }

    /// Records DAC saturation telemetry for one quantization pass over
    /// `values`, against this tile's input range. Lets a tiled caller that
    /// quantizes its whole input once record the conversion once too,
    /// instead of per (row block, column block). Callers pre-gate on
    /// [`tel::enabled`].
    pub(crate) fn record_dac(&self, values: &[f32]) {
        record_converter(values, self.input_range, &DAC_SAMPLES, &DAC_CLIPPED, &DAC_SATURATION);
    }

    /// Number of word lines in use.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bit lines in use.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Calibrates the DAC full-scale range to the largest |input| the tile
    /// will see (default 1.0).
    ///
    /// # Panics
    ///
    /// Panics if `range` is not positive.
    pub fn set_input_range(&mut self, range: f32) {
        assert!(range > 0.0, "input range must be positive, got {range}");
        self.input_range = range;
    }

    /// Reads the effective weight matrix back from the conductances —
    /// what the analog computation actually uses.
    pub fn effective_weights(&self) -> Tensor {
        self.diff(self.exec()).clone()
    }

    /// The tile's configuration.
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// Worst-case weight-domain output magnitude the ADC is sized for:
    /// every word line driven at the calibrated input range into a cell at
    /// the full conductance window.
    pub fn adc_full_scale(&self) -> f32 {
        self.input_range * self.rows as f32 * (self.config.g_max - self.config.g_min) * self.scale
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
        // Integer fast path: DAC codes × cached conductance codes in i32,
        // ADC scaling fused at the tile boundary.
        if let Some(int) = &exec.int {
            let grid = self.dac_grid().expect("integer-capable config implies a live DAC");
            let t_dac = tel::enabled().then(std::time::Instant::now);
            let codes = grid.codes_for(input.as_slice());
            if let Some(codes) = codes {
                if let Some(t0) = t_dac {
                    PHASE_DAC_NS.record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                }
                if tel::enabled() {
                    record_converter(
                        input.as_slice(),
                        self.input_range,
                        &DAC_SAMPLES,
                        &DAC_CLIPPED,
                        &DAC_SATURATION,
                    );
                }
                // The integer kernel fuses the ADC rescale into its tile
                // boundary, so its time lands in the accumulate phase.
                let t_acc = tel::enabled().then(std::time::Instant::now);
                let out = self.int_matmul(int, &grid, &codes, batch, self.rows, 0);
                if let Some(t0) = t_acc {
                    PHASE_ACCUMULATE_NS
                        .record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                }
                return out;
            }
        }
        // f32 reference path (exact/ideal configs, NaN inputs, or
        // integer-incapable precision settings).
        let mut out = if self.config.dac_bits > 0 {
            let mut v = input.clone();
            if tel::enabled() {
                record_converter(
                    v.as_slice(),
                    self.input_range,
                    &DAC_SAMPLES,
                    &DAC_CLIPPED,
                    &DAC_SATURATION,
                );
            }
            let t_dac = tel::enabled().then(std::time::Instant::now);
            let q = Quantizer::new(-self.input_range, self.input_range, self.config.dac_bits);
            q.quantize_slice(v.as_mut_slice());
            if let Some(t0) = t_dac {
                PHASE_DAC_NS.record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            }
            let t_acc = tel::enabled().then(std::time::Instant::now);
            let out = v.matmul(self.diff(exec));
            if let Some(t0) = t_acc {
                PHASE_ACCUMULATE_NS.record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            }
            out
        } else {
            // Analog accumulate directly in the weight domain: the cached
            // differential matrix already carries the (g+ − g−)·scale fold,
            // so one GEMM yields I_bj·scale = Σ_i v_bi (g+_ij − g−_ij)·scale.
            let t_acc = tel::enabled().then(std::time::Instant::now);
            let out = input.matmul(self.diff(exec));
            if let Some(t0) = t_acc {
                PHASE_ACCUMULATE_NS.record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            }
            out
        };
        let t_adc = tel::enabled().then(std::time::Instant::now);
        self.adc_quantize(out.as_mut_slice());
        if let Some(t0) = t_adc {
            PHASE_ADC_NS.record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
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

    /// Integer-domain batched product against pre-quantized DAC codes
    /// laid out as `batch` rows of `stride` codes, of which this tile
    /// consumes `[offset, offset + rows)` — so a tiled caller quantizes
    /// its whole input once and every row-block tile reads its slice in
    /// place. Exact i32 accumulation per row block, affine DAC/weight
    /// rescale at the tile boundary (f64 intermediates), then the shared
    /// ADC stage. Each batch row is computed independently in a fixed
    /// block order, so results are bit-identical at any thread count and
    /// batch size.
    pub(crate) fn int_matmul(
        &self,
        int: &IntState,
        grid: &DacGrid,
        codes: &[i32],
        batch: usize,
        stride: usize,
        offset: usize,
    ) -> Tensor {
        let cols = self.cols;
        let rows = self.rows;
        let n_blocks = rows.div_ceil(ROW_BLOCK);
        INT_ROWBLOCKS.add((n_blocks * batch) as u64);
        let mut out = vec![0.0f32; batch * cols];
        let work = batch * rows * cols;
        let threads = if work < INT_PAR_THRESHOLD {
            1
        } else {
            pool::max_threads().min(batch).max(1)
        };
        if threads <= 1 {
            int_rows(int, grid, codes, 0, batch, stride, offset, rows, cols, &mut out);
        } else {
            let rows_per = batch.div_ceil(threads);
            pool::run_chunks(&mut out, rows_per * cols, |ci, chunk| {
                let b0 = ci * rows_per;
                let b1 = (b0 + rows_per).min(batch);
                int_rows(int, grid, codes, b0, b1, stride, offset, rows, cols, chunk);
            });
        }
        self.adc_quantize(&mut out);
        Tensor::from_vec(out, &[batch, cols])
            .expect("integer-path output shape is consistent by construction")
    }

    /// The tile's conductance codes as the column kernel reads them: one
    /// [`intacc::pair_word`] per pair of word lines and bit line
    /// (`[rows.div_ceil(2), cols]`), an odd last row paired with code 0.
    pub(crate) fn col_pair_words(&self, int: &IntState) -> Vec<i32> {
        let cp = int.cols_padded;
        let code = |r: usize, c: usize| if r < self.rows { int.codes[r * cp + c] } else { 0 };
        let word = move |q: usize, c: usize| intacc::pair_word(code(2 * q, c), code(2 * q + 1, c));
        (0..self.rows.div_ceil(2)).flat_map(|q| (0..self.cols).map(move |c| word(q, c))).collect()
    }

    /// Column-layout integer product: this tile's outputs for `w`
    /// patches, whose centered codes (see [`DacGrid::centered_codes_for`])
    /// `x` holds as one row per word line of the tile, `stride` apart,
    /// plus one more row for an odd last word line to pair with. `words`
    /// is [`Crossbar::col_pair_words`]. Writes `[cols, w]` outputs, folded
    /// and ADC-quantized, into `dst`; `acc` is `[cols, w]` scratch.
    ///
    /// The same arithmetic as [`Crossbar::int_matmul`] per output: exact
    /// i32 sums per [`ROW_BLOCK`] (vector lanes over patches, see
    /// [`intacc::accumulate_col_pairs`]) plus the centering offset times
    /// the column sum, the same f64 fold, IR-drop factors applied per
    /// block in the same order, and the same ADC — so each output equals,
    /// bit for bit, the matching element of the batch-major product over
    /// the transposed codes.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn int_cols(
        &self,
        int: &IntState,
        grid: &DacGrid,
        words: &[i32],
        x: &[i16],
        stride: usize,
        w: usize,
        acc: &mut [i32],
        dst: &mut [f32],
    ) {
        #[cfg(target_arch = "x86_64")]
        if intacc::avx2_available() {
            // SAFETY: `avx2_available()` verified CPU support.
            return unsafe { self.int_cols_avx2(int, grid, words, x, stride, w, acc, dst) };
        }
        self.int_cols_body(int, grid, words, x, stride, w, acc, dst);
    }

    /// [`Crossbar::int_cols`] compiled with AVX2, so the fold and the ADC
    /// loops run four `f64` (eight `f32`) lanes wide. The same IEEE
    /// operations per element as the baseline build (no fused
    /// multiply-add), so the outputs match bit for bit.
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
        words: &[i32],
        x: &[i16],
        stride: usize,
        w: usize,
        acc: &mut [i32],
        dst: &mut [f32],
    ) {
        self.int_cols_body(int, grid, words, x, stride, w, acc, dst);
    }

    /// The body of [`Crossbar::int_cols`], inlined into both builds.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn int_cols_body(
        &self,
        int: &IntState,
        grid: &DacGrid,
        words: &[i32],
        x: &[i16],
        stride: usize,
        w: usize,
        acc: &mut [i32],
        dst: &mut [f32],
    ) {
        if w == 0 {
            return;
        }
        let (rows, cols, cp) = (self.rows, self.cols, int.cols_padded);
        INT_ROWBLOCKS.add((rows.div_ceil(ROW_BLOCK) * w) as u64);
        let step_x = f64::from(grid.step);
        let lo = f64::from(grid.lo);
        let sw = f64::from(int.step_w);
        // Word lines [r0, r1) of the tile; r0 is even, so pair q0 = r0/2.
        let block = |r0: usize, r1: usize, acc: &mut [i32]| {
            let words = &words[r0 / 2 * cols..r1.div_ceil(2) * cols];
            intacc::accumulate_col_pairs(&x[r0 * stride..], stride, w, words, cols, acc);
        };
        match &int.drop {
            None => {
                acc.fill(0);
                for r0 in (0..rows).step_by(ROW_BLOCK) {
                    block(r0, (r0 + ROW_BLOCK).min(rows), acc);
                }
                let lines = dst.chunks_exact_mut(w).zip(acc.chunks_exact(w));
                for ((d, a), &sum) in lines.zip(&int.colsums) {
                    let (offset, bias) = (grid.center * sum, lo * f64::from(sum));
                    for (d, &a) in d.iter_mut().zip(a) {
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
                    let sums = &int.block_colsums[blk * cp..blk * cp + cols];
                    let factors = &drop[blk * cp..blk * cp + cols];
                    for (((d, a), &sum), &factor) in
                        dst.chunks_exact_mut(w).zip(acc.chunks_exact(w)).zip(sums).zip(factors)
                    {
                        let (offset, bias) = (grid.center * sum, lo * f64::from(sum));
                        let factor = f64::from(factor);
                        for (d, &a) in d.iter_mut().zip(a) {
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

    /// Whether online parity is enabled on this tile.
    pub fn parity_enabled(&self) -> bool {
        self.parity.is_some()
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

/// Computes output rows `[b0, b1)` of the integer-domain product into
/// `out` (`(b1-b0) × cols`, caller-sliced). Row blocks accumulate in i32
/// via [`intacc::accumulate_rows`]; the DAC voltage affine
/// (`v = lo + idx·step`) and the weight-code scale `step_w` apply once per
/// block boundary in f64, against the cached column sums.
#[allow(clippy::too_many_arguments)]
fn int_rows(
    int: &IntState,
    grid: &DacGrid,
    codes: &[i32],
    b0: usize,
    b1: usize,
    stride: usize,
    offset: usize,
    rows: usize,
    cols: usize,
    out: &mut [f32],
) {
    let cp = int.cols_padded;
    let n_blocks = rows.div_ceil(ROW_BLOCK);
    let step_x = f64::from(grid.step);
    let lo = f64::from(grid.lo);
    let sw = f64::from(int.step_w);
    // Affine DAC→weight fold shared by the blocked and per-row paths.
    let fold = |acc: &[i32], dst: &mut [f32]| {
        for (j, d) in dst.iter_mut().enumerate() {
            *d = ((step_x * f64::from(acc[j]) + lo * f64::from(int.colsums[j])) * sw) as f32;
        }
    };
    let mut next = b0;
    if int.drop.is_none() {
        // Blocked main loop: four batch rows per sweep, so each widened
        // weight-code load feeds four multiply-adds. Integer addition is
        // exact, so this is bit-identical to the per-row remainder loop
        // below at any batch size or thread split.
        let mut acc4 = vec![0i32; 4 * cp];
        while next + 4 <= b1 {
            acc4.fill(0);
            let x = |k: usize| {
                &codes[(next + k) * stride + offset..(next + k) * stride + offset + rows]
            };
            for blk in 0..n_blocks {
                let r0 = blk * ROW_BLOCK;
                let r1 = (r0 + ROW_BLOCK).min(rows);
                intacc::accumulate_rows_x4(
                    [&x(0)[r0..r1], &x(1)[r0..r1], &x(2)[r0..r1], &x(3)[r0..r1]],
                    &int.codes[r0 * cp..r1 * cp],
                    cp,
                    &mut acc4,
                );
            }
            for k in 0..4 {
                let dst = &mut out[(next - b0 + k) * cols..(next - b0 + k + 1) * cols];
                fold(&acc4[k * cp..(k + 1) * cp], dst);
            }
            next += 4;
        }
    }
    let mut acc = vec![0i32; cp];
    for b in next..b1 {
        let x = &codes[b * stride + offset..b * stride + offset + rows];
        let dst = &mut out[(b - b0) * cols..(b - b0 + 1) * cols];
        match &int.drop {
            None => {
                // One exact i32 accumulate over all word lines, one
                // affine conversion per bit line.
                acc.fill(0);
                for blk in 0..n_blocks {
                    let r0 = blk * ROW_BLOCK;
                    let r1 = (r0 + ROW_BLOCK).min(rows);
                    intacc::accumulate_rows(&x[r0..r1], &int.codes[r0 * cp..r1 * cp], cp, &mut acc);
                }
                fold(&acc, dst);
            }
            Some(drop) => {
                // Per-block partial sums so each block's mean IR-drop
                // factor can scale its contribution before the f32 fold.
                for d in dst.iter_mut() {
                    *d = 0.0;
                }
                for blk in 0..n_blocks {
                    let r0 = blk * ROW_BLOCK;
                    let r1 = (r0 + ROW_BLOCK).min(rows);
                    acc.fill(0);
                    intacc::accumulate_rows(&x[r0..r1], &int.codes[r0 * cp..r1 * cp], cp, &mut acc);
                    let block_sums = &int.block_colsums[blk * cp..(blk + 1) * cp];
                    let factors = &drop[blk * cp..(blk + 1) * cp];
                    for (j, d) in dst.iter_mut().enumerate() {
                        let partial =
                            (step_x * f64::from(acc[j]) + lo * f64::from(block_sums[j])) * sw;
                        *d += (f64::from(factors[j]) * partial) as f32;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal_config() -> CrossbarConfig {
        CrossbarConfig::ideal()
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
    fn exact_mode_with_parity_enabled_stays_bitwise_digital() {
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
