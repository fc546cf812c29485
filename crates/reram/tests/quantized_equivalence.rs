//! Equivalence properties of the integer-domain quantized execution path.
//!
//! The integer path (DAC codes × differential conductance codes
//! accumulated in `i32`) must be indistinguishable from the `f32`
//! reference semantics: bitwise identical when the converters are off
//! (`dac_bits == 0 && adc_bits == 0`, where the `f32` path runs by
//! construction) and within one quantization step otherwise.
//!
//! A convolution's route to the integer kernel (the input pixels quantized
//! once and their codes unfolded) must equal the product over the
//! transposed patch matrix bit for bit. The kernel itself is pinned to a
//! plain scalar loop by the crate's `crossbar` unit tests.
//!
//! `scripts/ci.sh` runs this crate's tests at `HEALTHMON_THREADS=1`, `2`
//! and `7`; every assertion here is thread-count invariant, and the
//! batched and convolution tests drive enough work through the tiles to
//! engage the threaded integer kernel.

use healthmon_nn::models::tiny_mlp;
use healthmon_nn::{InferenceBackend, PatchMap};
use healthmon_reram::{
    BackendSpec, CellFault, Crossbar, CrossbarConfig, IrDropModel, Quantizer, SlicedMatrix,
    TiledMatrix,
};
use healthmon_tensor::{SeededRng, Tensor};
use healthmon_telemetry as tel;

/// The `f32` reference semantics of one crossbar tile, built from public
/// API only: DAC-quantize the activations, multiply by the effective
/// weights the conductances store, ADC-quantize the bit-line sums.
fn f32_reference(crossbar: &Crossbar, x: &Tensor) -> Tensor {
    let config = crossbar.config();
    let mut v = x.clone();
    if config.dac_bits > 0 {
        Quantizer::new(-1.0, 1.0, config.dac_bits).quantize_slice(v.as_mut_slice());
    }
    let mut out = v.matmul(&crossbar.effective_weights());
    if config.adc_bits > 0 {
        let fs = crossbar.adc_full_scale();
        Quantizer::new(-fs, fs, config.adc_bits).quantize_slice(out.as_mut_slice());
    }
    out
}

#[test]
fn converter_free_configs_are_bitwise_f32() {
    // With the DAC disabled the integer path is gated off, and the f32
    // path must reproduce the plain GEMM against the effective weights
    // bit for bit — including quantized-cell storage (cell_bits = 4).
    let mut rng = SeededRng::new(11);
    for cell_bits in [0u32, 4] {
        let config = CrossbarConfig {
            rows: 64,
            cols: 48,
            cell_bits,
            dac_bits: 0,
            adc_bits: 0,
            ..CrossbarConfig::exact()
        };
        let w = Tensor::randn(&[64, 48], &mut rng);
        let crossbar = Crossbar::program(&w, &config, &mut rng);
        let x = Tensor::randn(&[5, 64], &mut rng);
        assert_eq!(crossbar.matmul(&x), f32_reference(&crossbar, &x), "cell_bits={cell_bits}");
    }
}

#[test]
fn quantized_path_matches_f32_reference_within_step() {
    // Integer-path configs across the (cell, dac, adc) space. The i32
    // accumulation is exact, so the only divergence from the f32
    // reference is rounding at the boundary math — bounded by one ADC
    // step (a borderline sum may snap to the adjacent level) plus a small
    // GEMM-rounding epsilon.
    let mut rng = SeededRng::new(12);
    for (cell_bits, dac_bits, adc_bits) in [(4u32, 8u32, 8u32), (2, 4, 0), (8, 8, 8), (1, 8, 4), (4, 8, 0)]
    {
        let config = CrossbarConfig {
            rows: 64,
            cols: 48,
            cell_bits,
            dac_bits,
            adc_bits,
            ..CrossbarConfig::default()
        };
        assert!(config.integer_path_capable(), "case must exercise the integer path");
        let w = Tensor::randn(&[64, 48], &mut rng).map(|v| v * 0.3);
        let crossbar = Crossbar::program(&w, &config, &mut rng);
        let x = Tensor::randn(&[5, 64], &mut rng).map(|v| v.clamp(-1.0, 1.0));
        let got = crossbar.matmul(&x);
        let reference = f32_reference(&crossbar, &x);
        let adc_step = if adc_bits > 0 {
            2.0 * crossbar.adc_full_scale() / ((1u32 << adc_bits) - 1) as f32
        } else {
            0.0
        };
        let tol = adc_step + 1e-3;
        for (i, (a, b)) in got.as_slice().iter().zip(reference.as_slice()).enumerate() {
            assert!(
                (a - b).abs() <= tol,
                "cell={cell_bits} dac={dac_bits} adc={adc_bits} elem {i}: {a} vs {b} (tol {tol})"
            );
        }
    }
}

#[test]
fn backends_agree_with_digital_within_quantization_tolerance() {
    // All three backends on the same network: digital is the bit-pinned
    // reference; the quantized analog and bit-sliced substrates (integer
    // path live on every tile) stay within coarse quantization error.
    // Small inputs keep every layer's activations inside the DAC range
    // (the backends do not calibrate per-layer input ranges), so with the
    // ADC off the remaining divergence is pure DAC/cell quantization —
    // small, and the integer path stays live (capability does not depend
    // on adc_bits).
    let mut rng = SeededRng::new(13);
    let net = tiny_mlp(24, 20, 6, &mut rng);
    let x = Tensor::randn(&[4, 24], &mut rng).map(|v| 0.2 * v.clamp(-1.0, 1.0));
    let digital = net.infer(&x);

    let spec = BackendSpec::digital();
    assert_eq!(spec.instantiate(&net, &mut rng).infer(&x), digital);

    // 8-bit cells: the weight step is ~0.4% of full scale, so the
    // quantized substrates must track digital closely.
    let fine = CrossbarConfig { cell_bits: 8, adc_bits: 0, ..CrossbarConfig::default() };
    assert!(fine.integer_path_capable());
    for spec in [BackendSpec::analog(fine), BackendSpec::bitsliced(fine, 8)] {
        let backend = spec.instantiate(&net, &mut rng);
        let logits = backend.infer(&x);
        let rel = logits.l1_distance(&digital) / digital.norm_l1().max(1e-6);
        assert!(rel < 0.05, "{} diverges from digital: {rel}", backend.backend_name());
    }

    // Default 4-bit cells: the differential weight step is ~7% of the
    // per-layer weight full scale, so the bound is accordingly looser.
    let coarse = CrossbarConfig { adc_bits: 0, ..CrossbarConfig::default() };
    let backend = BackendSpec::analog(coarse).instantiate(&net, &mut rng);
    let rel = backend.infer(&x).l1_distance(&digital) / digital.norm_l1().max(1e-6);
    assert!(rel < 0.15, "4-bit-cell analog diverges from digital: {rel}");

    // With the 8-bit ADC on, its step is sized for the worst-case
    // bit-line sum, which is coarse relative to these small logits; the
    // outputs must still be finite and within the same order of
    // magnitude (matching the f32 reference semantics pinned per-tile by
    // `quantized_path_matches_f32_reference_within_step`).
    let full = BackendSpec::analog(CrossbarConfig::default()).instantiate(&net, &mut rng);
    let logits = full.infer(&x);
    assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    let rel = logits.l1_distance(&digital) / digital.norm_l1().max(1e-6);
    assert!(rel < 1.0, "default analog config diverges from digital: {rel}");
}

#[test]
fn batched_integer_path_bit_identical_to_per_row() {
    // A batch large enough to split across the pool (batch · m · n above
    // the parallel threshold, and more than one 256-column sweep) must
    // still be bit-identical to one-row-at-a-time execution, at any
    // HEALTHMON_THREADS setting.
    let mut rng = SeededRng::new(14);
    let w = Tensor::randn(&[260, 140], &mut rng);
    let tiled = TiledMatrix::program(&w, &CrossbarConfig::default(), &mut rng);
    assert_eq!(tiled.tile_grid(), (3, 2));
    let x = Tensor::randn(&[300, 260], &mut rng).map(|v| v.clamp(-1.0, 1.0));
    let batch = tiled.matmul(&x);
    for b in 0..300 {
        let single = tiled.matmul(&x.row(b).reshape(&[1, 260]).unwrap());
        assert_eq!(batch.row(b).reshape(&[1, 140]).unwrap(), single, "batch row {b}");
    }
}

#[test]
fn live_stuck_cells_invalidate_dac_code_cache() {
    // Regression: the cached DAC-code execution state must be rebuilt
    // after live fault injection — a stale integer cache would keep
    // computing with pre-fault conductances. Checked both behaviorally
    // and through the `reram.dac.cache.invalidations` counter (other
    // concurrent tests may add cache traffic, so the counter assertion is
    // a >= delta).
    let mut rng = SeededRng::new(15);
    let w = Tensor::randn(&[32, 24], &mut rng).map(|v| v * 0.3 + 0.4);
    let config = CrossbarConfig { rows: 32, cols: 24, ..CrossbarConfig::default() };
    let mut crossbar = Crossbar::program(&w, &config, &mut rng);
    assert!(config.integer_path_capable());

    let x = Tensor::randn(&[1, 32], &mut rng).map(|v| v.clamp(-1.0, 1.0));
    tel::set_enabled(true);
    let clean = crossbar.matmul(&x); // builds the integer cache
    let before = invalidation_count();
    crossbar.inject_stuck_cells(CellFault::StuckLow, 1.0, &mut rng);
    let after = invalidation_count();
    let faulty = crossbar.matmul(&x);
    tel::set_enabled(false);

    assert!(after > before, "injection must invalidate the DAC-code cache");
    assert!(
        clean.l1_distance(&faulty) > 1e-3,
        "stuck cells must change the integer-path output"
    );
}

fn invalidation_count() -> u64 {
    tel::snapshot()
        .counters
        .iter()
        .find(|c| c.name == "reram.dac.cache.invalidations")
        .map_or(0, |c| c.value)
}

/// Work (patches · word lines · bit lines) above which the integer
/// kernels split across the pool.
const PARALLEL_WORK: usize = 1 << 18;

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
    }
}

/// The input pixels no patch of `map` reads (possible when the stride
/// exceeds the kernel): unfold the element numbers and see which appear.
fn unread_pixels(map: &PatchMap) -> Vec<usize> {
    let len: usize = map.input_shape().iter().product();
    let numbers: Vec<usize> = (0..len).collect();
    let mut col = vec![usize::MAX; map.rows() * map.cols()];
    map.unfold_into(&numbers, &mut col);
    let mut read = vec![false; len];
    for &i in col.iter().filter(|&&i| i != usize::MAX) {
        read[i] = true;
    }
    (0..len).filter(|&i| !read[i]).collect()
}

/// One crossbar spec of the convolution property: a name and how to
/// program a weight matrix on it.
struct ConvSpec {
    name: &'static str,
    config: CrossbarConfig,
    /// Weight bits of a bit-sliced matrix over `config.cell_bits`; `None`
    /// programs one analog slice.
    weight_bits: Option<u32>,
}

impl ConvSpec {
    fn program(&self, w: &Tensor, rng: &mut SeededRng) -> SlicedMatrix {
        match self.weight_bits {
            None => SlicedMatrix::analog(w, &self.config, rng),
            Some(bits) => SlicedMatrix::program(w, bits, self.config.cell_bits, &self.config, rng),
        }
    }
}

#[test]
fn conv_hook_matches_the_transposed_product_bit_for_bit() {
    // Tiles of 32 word lines × 8 bit lines split both the C·K·K rows and
    // the 12 filters; C·K·K is odd in many geometries, so the last word
    // line pairs with the spare row. Every spec runs every geometry; IR drop and aging
    // (drift plus stuck cells) alternate across geometries so each spec
    // meets all four combinations.
    let tile = |config: CrossbarConfig| CrossbarConfig { rows: 32, cols: 8, ..config };
    let converters = |cell_bits, dac_bits, adc_bits| {
        tile(CrossbarConfig { cell_bits, dac_bits, adc_bits, ..CrossbarConfig::default() })
    };
    let specs = [
        ConvSpec { name: "analog 4/8/8", config: converters(4, 8, 8), weight_bits: None },
        ConvSpec { name: "analog 2/4/0", config: converters(2, 4, 0), weight_bits: None },
        ConvSpec { name: "analog 8/8/6", config: converters(8, 8, 6), weight_bits: None },
        ConvSpec { name: "analog 1/8/4", config: converters(1, 8, 4), weight_bits: None },
        ConvSpec { name: "bitsliced 8/2, 8/8", config: converters(2, 8, 8), weight_bits: Some(8) },
        ConvSpec { name: "bitsliced 8/4, 6/0", config: converters(4, 6, 0), weight_bits: Some(8) },
        // The widest DAC codes, and tiles of an odd word-line count.
        ConvSpec { name: "analog 1/16/8", config: converters(1, 16, 8), weight_bits: None },
        ConvSpec {
            name: "analog 4/8/8, 31-row tiles",
            config: CrossbarConfig { rows: 31, ..converters(4, 8, 8) },
            weight_bits: None,
        },
        // No integer path: the hook must run today's f32 product.
        ConvSpec { name: "exact", config: tile(CrossbarConfig::exact()), weight_bits: None },
        ConvSpec { name: "analog 16/8/8", config: converters(16, 8, 8), weight_bits: None },
    ];
    for spec in &specs[..8] {
        assert!(spec.config.integer_path_capable(), "{} must run the integer path", spec.name);
    }
    let shapes = [(1usize, 2usize, 7usize, 5usize), (3, 3, 17, 19)];
    let filters = 12;
    let mut rng = SeededRng::new(17);
    let (mut cases, mut parallel, mut unread) = (0usize, 0usize, 0usize);
    for k in 1..=5 {
        for s in 1..=3 {
            for p in 0..=k + 1 {
                for &(n, c, h, w) in &shapes {
                    if h.min(w) + 2 * p < k {
                        continue;
                    }
                    let map = PatchMap::new(&[n, c, h, w], k, s, p);
                    let (ir_drop, aged) = (cases % 2 == 1, cases / 2 % 2 == 1);
                    cases += 1;
                    if map.cols() * map.rows() * filters >= PARALLEL_WORK {
                        parallel += 1;
                    }
                    // Inputs: clean, with NaN and ±∞ planted where patches
                    // read them, and with a NaN no patch reads.
                    let clean = Tensor::randn(&[n, c, h, w], &mut rng).map(|v| v * 0.6);
                    let mut inputs = vec![("clean", clean.clone())];
                    let mut specials = clean.clone();
                    let len = specials.len();
                    specials.as_mut_slice()[len / 2] = f32::NAN;
                    specials.as_mut_slice()[len / 3] = f32::INFINITY;
                    specials.as_mut_slice()[len - 1] = f32::NEG_INFINITY;
                    inputs.push(("NaN and ±inf", specials));
                    if let Some(&pixel) = unread_pixels(&map).first() {
                        unread += 1;
                        let mut hidden = clean.clone();
                        hidden.as_mut_slice()[pixel] = f32::NAN;
                        hidden.as_mut_slice()[0] = f32::INFINITY;
                        inputs.push(("unread NaN", hidden));
                    }
                    let weights = Tensor::randn(&[map.rows(), filters], &mut rng).map(|v| v * 0.3);
                    for spec in &specs {
                        let mut matrix = spec.program(&weights, &mut rng);
                        for slice in matrix.slices_mut() {
                            if ir_drop {
                                slice.apply_ir_drop(&IrDropModel::new(0.05));
                            }
                            if aged {
                                slice.drift(0.3, 1.0, &mut rng);
                                slice.inject_stuck_cells(CellFault::StuckLow, 0.05, &mut rng);
                                slice.inject_stuck_cells(CellFault::StuckHigh, 0.02, &mut rng);
                            }
                        }
                        for (input, x) in &inputs {
                            let name = spec.name;
                            let what = format!("{name} k{k} s{s} p{p} [{n},{c},{h},{w}]");
                            let what = format!("{what} ir={ir_drop} aged={aged} {input}");
                            let col = map.unfold(x);
                            let want = matrix.matmul(&col.transpose()).transpose();
                            let cols = matrix.matmul_cols(&col);
                            assert_bits_eq(&matrix.matmul_patches(x, &map), &want, &what);
                            assert_bits_eq(&cols, &want, &format!("{what} cols"));
                        }
                    }
                }
            }
        }
    }
    assert!(cases > 100, "only {cases} geometries ran");
    assert!(parallel > 0 && parallel < cases, "{parallel} of {cases} cases above the threshold");
    assert!(unread > 0, "no geometry left a pixel unread");
}

#[test]
fn conv_hook_falls_back_per_slice_for_a_tile_without_integer_state() {
    // A NaN weight leaves its tile without integer state (only the f32
    // path propagates it). Its slice must run the transposed f32 product
    // while the input still quantizes once for the others.
    let mut rng = SeededRng::new(18);
    let config = CrossbarConfig { rows: 32, cols: 8, ..CrossbarConfig::default() };
    let map = PatchMap::new(&[2, 3, 9, 8], 3, 1, 1);
    let mut weights = Tensor::randn(&[map.rows(), 10], &mut rng).map(|v| v * 0.3);
    weights.as_mut_slice()[40] = f32::NAN;
    let matrix = SlicedMatrix::analog(&weights, &config, &mut rng);
    let x = Tensor::randn(&[2, 3, 9, 8], &mut rng).map(|v| v * 0.6);
    let col = map.unfold(&x);
    let want = matrix.matmul(&col.transpose()).transpose();
    assert!(want.as_slice().iter().any(|v| v.is_nan()), "the NaN weight must reach the output");
    assert_bits_eq(&matrix.matmul_patches(&x, &map), &want, "poisoned tile");
    assert_bits_eq(&matrix.matmul_cols(&col), &want, "poisoned tile cols");
}
