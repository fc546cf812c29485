//! Crossbar weight storage as a list of tiled images.
//!
//! A [`SlicedMatrix`] holds every conductance-mapped matrix of the live
//! backends. An analog matrix is one [`TiledMatrix`] storing the weights
//! themselves. A bit-sliced matrix follows ISAAC ([Shafiee et al.,
//! ISCA'16], the architecture the paper cites): real cells store only a
//! few bits each, so magnitudes are quantized to `total_bits`, split into
//! `cell_bits`-wide digits, each digit plane is programmed onto its own
//! [`TiledMatrix`], and [`SlicedMatrix::matmul`] recombines the per-slice
//! products with their radix weights. Signs use the differential-pair
//! convention of the parent crate (the sign lives in which path of the
//! pair carries the magnitude, here modelled by signed per-slice storage).
//!
//! Conductance mutators (drift, stuck cells, parity, IR drop) are written
//! once, on [`TiledMatrix`]; callers reach every slice through
//! [`SlicedMatrix::slices_mut`]. On integer-path-capable configs (see
//! [`CrossbarConfig::integer_path_capable`]) every slice executes on the
//! quantize-once integer path; the shift-add recombination stays in
//! `f32`. A convolution ([`SlicedMatrix::matmul_patches`]) quantizes its
//! input pixels once for every slice and tile and unfolds the codes.

use crate::crossbar::{full_scale, record_dac, PHASE_DAC_NS};
use crate::quant::{narrow_code, round_fast};
use crate::{CrossbarConfig, Quantizer, TiledMatrix};
use healthmon_nn::PatchMap;
use healthmon_telemetry as tel;
use healthmon_tensor::{SeededRng, Tensor};
use std::cell::OnceCell;
use std::time::Instant;

/// A weight matrix stored as one or more tiled crossbar images.
///
/// # Example
///
/// ```
/// use healthmon_reram::{CrossbarConfig, SlicedMatrix};
/// use healthmon_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let w = Tensor::randn(&[16, 8], &mut rng);
/// // 8-bit weights over 2-bit cells -> 4 slices.
/// let sliced = SlicedMatrix::program(&w, 8, 2, &CrossbarConfig::ideal(), &mut rng);
/// assert_eq!(sliced.num_slices(), 4);
/// let x = Tensor::randn(&[3, 16], &mut rng);
/// assert_eq!(sliced.matmul(&x).shape(), &[3, 8]);
/// // An analog matrix is a single slice storing the weights themselves.
/// let analog = SlicedMatrix::analog(&w, &CrossbarConfig::ideal(), &mut rng);
/// assert_eq!(analog.num_slices(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SlicedMatrix {
    /// One tiled array per slice, least-significant slice first. A
    /// bit-sliced matrix stores the *signed* slice digits, each plane
    /// scaled into its own range.
    slices: Vec<TiledMatrix>,
    /// The digit layout of a bit-sliced matrix; `None` for an analog
    /// matrix, whose single slice stores the weights themselves.
    digits: Option<Digits>,
}

/// How a bit-sliced matrix splits each weight magnitude into digits.
#[derive(Debug, Clone)]
struct Digits {
    total_bits: u32,
    cell_bits: u32,
    /// Radix weight of each slice (1, 2^b, 2^2b, ...), scaled back to the
    /// weight domain.
    scales: Vec<f32>,
}

impl SlicedMatrix {
    /// Programs `weights` as one analog slice: a plain [`TiledMatrix`]
    /// with no digit layout.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is not 2-D or the config is invalid.
    pub fn analog(weights: &Tensor, config: &CrossbarConfig, rng: &mut SeededRng) -> Self {
        SlicedMatrix { slices: vec![TiledMatrix::program(weights, config, rng)], digits: None }
    }

    /// Programs `weights` with `total_bits` of magnitude resolution,
    /// sliced into `cell_bits`-wide digits.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is not 2-D, `total_bits` is not a positive
    /// multiple of `cell_bits`, or either exceeds 16 bits.
    pub fn program(
        weights: &Tensor,
        total_bits: u32,
        cell_bits: u32,
        config: &CrossbarConfig,
        rng: &mut SeededRng,
    ) -> Self {
        assert_eq!(weights.ndim(), 2, "bit slicing requires a 2-D matrix");
        assert!(
            cell_bits >= 1 && total_bits >= cell_bits && total_bits.is_multiple_of(cell_bits),
            "total bits {total_bits} must be a positive multiple of cell bits {cell_bits}"
        );
        assert!(total_bits <= 16, "more than 16 weight bits is not supported");
        let (rows, cols) = (weights.shape()[0], weights.shape()[1]);
        let num_slices = (total_bits / cell_bits) as usize;
        let w_max = full_scale(weights.as_slice()).0.max(f32::MIN_POSITIVE);
        let levels = (1u32 << total_bits) - 1;
        let q = Quantizer::new(0.0, w_max, total_bits);
        let digit_radix = 1u32 << cell_bits;

        // Decompose each |w| into digits, keep sign on every digit. A NaN
        // weight's "sign" is NaN, so the NaN reaches every digit plane and
        // each slice programs it as `Crossbar::program` programs a
        // non-finite weight: it poisons its column, as on an analog matrix.
        //
        // Lowered per the DESIGN.md §8 checklist: quantize once into a
        // code vector with the branch-free round/narrow helpers (instead
        // of `f32::round` + a saturating `as u32` per element), then peel
        // each digit with shift/mask zip loops — `(code >> k·cell_bits) &
        // (radix−1)` equals the former `%`/`÷` cascade for every u32
        // code, and the zip stores carry no bounds checks. Bit-identical
        // to the scalar form on the whole ≤16-bit code domain (codes top
        // out at 2¹⁶, inside `narrow_code`'s window).
        let src = weights.as_slice();
        let qstep = q.step();
        let codes: Vec<u32> = src
            .iter()
            .map(|&w| narrow_code(round_fast(w.abs().min(w_max) / qstep)))
            .collect();
        let signs: Vec<f32> = src
            .iter()
            .map(|&w| if w < 0.0 { -1.0f32 } else if w.is_nan() { f32::NAN } else { 1.0 })
            .collect();
        let mut digit_planes: Vec<Tensor> =
            (0..num_slices).map(|_| Tensor::zeros(&[rows, cols])).collect();
        let mask = digit_radix - 1;
        for (k, plane) in digit_planes.iter_mut().enumerate() {
            let shift = k as u32 * cell_bits;
            for ((d, &code), &sign) in
                plane.as_mut_slice().iter_mut().zip(&codes).zip(&signs)
            {
                *d = sign * ((code >> shift) & mask) as f32;
            }
        }

        // Each plane holds digits in [-digit_max, digit_max]; the tiled
        // programmer normalizes to its own max, so record the plane's
        // weight-domain scale explicitly: value = digit * radix^k * step.
        let step = w_max / levels as f32;
        let mut slices = Vec::with_capacity(num_slices);
        let mut scales = Vec::with_capacity(num_slices);
        for (k, plane) in digit_planes.iter().enumerate() {
            slices.push(TiledMatrix::program(plane, config, rng));
            let radix_weight = (digit_radix as f32).powi(k as i32);
            scales.push(step * radix_weight);
        }
        SlicedMatrix { slices, digits: Some(Digits { total_bits, cell_bits, scales }) }
    }

    /// Number of slices: 1 for an analog matrix, `total_bits / cell_bits`
    /// for a bit-sliced one.
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// Logical matrix dimensions.
    pub fn shape(&self) -> (usize, usize) {
        self.slices[0].shape()
    }

    /// Mutable access to the per-slice arrays (LSB slice first): the one
    /// way to age, fault or scrub the stored conductances.
    pub fn slices_mut(&mut self) -> &mut [TiledMatrix] {
        &mut self.slices
    }

    /// Total crossbar tiles across all slices.
    pub fn tile_count(&self) -> usize {
        self.slices.iter().map(TiledMatrix::tile_count).sum()
    }

    /// Weight-domain scale of each slice (LSB slice first); an analog
    /// slice has scale 1.
    fn scales(&self) -> &[f32] {
        match &self.digits {
            Some(digits) => &digits.scales,
            None => &[1.0],
        }
    }

    /// Worst-case weight-domain output magnitude the (recombined) ADC
    /// chain is sized for. For multi-row-block tilings this sums each
    /// slice's first-tile full scale over its row blocks, an upper bound
    /// on any single output column.
    pub fn adc_full_scale(&self) -> f32 {
        self.slices
            .iter()
            .zip(self.scales())
            .map(|(t, &scale)| t.tiles()[0].adc_full_scale() * t.tile_grid().0 as f32 * scale)
            .sum()
    }

    /// Fraction of the allocated crossbar cells that store weight digits.
    pub fn utilization(&self, config: &CrossbarConfig) -> f32 {
        let (m, n) = self.shape();
        (m * n * self.num_slices()) as f32 / (self.tile_count() * config.rows * config.cols) as f32
    }

    /// Freezes the weight at logical position `(row, col)` to read as
    /// (approximately) `weight`. An analog slice sticks the weight itself;
    /// a bit-sliced matrix re-quantizes the magnitude to its code space
    /// and sticks each slice's digit in its array.
    ///
    /// # Panics
    ///
    /// Panics if `row`/`col` are outside the logical matrix or (bit-sliced
    /// only) `weight` is non-finite.
    pub fn stick_cell(&mut self, row: usize, col: usize, weight: f32) {
        let Some(digits) = &self.digits else {
            return self.slices[0].stick_cell(row, col, weight);
        };
        let (rows, cols) = self.shape();
        assert!(row < rows && col < cols, "cell ({row}, {col}) outside {rows}x{cols} matrix");
        assert!(weight.is_finite(), "stuck weight must be finite, got {weight}");
        let levels = (1u32 << digits.total_bits) - 1;
        let step = digits.scales[0];
        let w_max = step * levels as f32;
        let q = Quantizer::new(0.0, w_max, digits.total_bits);
        let sign = if weight < 0.0 { -1.0f32 } else { 1.0 };
        let mut code = q.index_of(weight.abs().min(w_max));
        let radix = 1u32 << digits.cell_bits;
        for slice in &mut self.slices {
            let digit = code % radix;
            slice.stick_cell(row, col, sign * digit as f32);
            code /= radix;
        }
    }

    /// Applies `f` to every slice and recombines the results with the
    /// radix scales, LSB slice first. An analog slice's result is returned
    /// as is: adding it into a zeroed output would turn −0.0 into +0.0 and
    /// break exact mode's bit-identity with the digital GEMM.
    #[inline]
    fn recombine(&self, f: impl Fn(&TiledMatrix) -> Tensor) -> Tensor {
        let first = f(&self.slices[0]);
        let Some(digits) = &self.digits else { return first };
        let mut out = Tensor::zeros(first.shape());
        out.axpy(digits.scales[0], &first);
        for (slice, &scale) in self.slices.iter().zip(&digits.scales).skip(1) {
            out.axpy(scale, &f(slice));
        }
        out
    }

    /// The weight matrix the slices actually realize.
    pub fn effective_weights(&self) -> Tensor {
        self.recombine(TiledMatrix::effective_weights)
    }

    /// Batched crossbar product `X·W` with shift-add recombination: every
    /// slice runs one tile-level GEMM over the whole `[batch, rows]`
    /// pattern set (see [`TiledMatrix::matmul`]), then the digital
    /// periphery scales by the slice radix and accumulates. An analog
    /// matrix returns its slice's product as is.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not 2-D with `rows` columns.
    #[inline]
    pub fn matmul(&self, input: &Tensor) -> Tensor {
        self.recombine(|slice| slice.matmul(input))
    }

    /// Column-layout product `Wᵀ·C` for `C` of shape `[rows, patches]`,
    /// returning `[cols, patches]`: every slice runs
    /// [`TiledMatrix::matmul_cols`], recombined as in
    /// [`SlicedMatrix::matmul`]. Bit-identical to
    /// `self.matmul(&c.transpose()).transpose()`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not 2-D with `rows` rows.
    pub fn matmul_cols(&self, c: &Tensor) -> Tensor {
        self.recombine(|slice| slice.matmul_cols(c))
    }

    /// A convolution's crossbar product `Wᵀ·col(x)` from its
    /// `[N, C, H, W]` input `x` and patch geometry, returning
    /// `[cols, N·OH·OW]`, bit-identical to
    /// `self.matmul_cols(&patches.unfold(x))`.
    ///
    /// DAC coding is elementwise, so the codes of the unfolded patches are
    /// the unfolded codes of the input, with padding reading the code of
    /// 0.0. When every slice shares one integer-capable DAC grid (the
    /// tiles of a slice share its config), the input pixels are therefore
    /// quantized once and their codes unfolded once for every slice and
    /// tile; a slice whose tiles lack integer state runs on the unfolded
    /// `f32` patches. An input with a NaN anywhere, or slices without a
    /// shared grid (one replaced through [`SlicedMatrix::slices_mut`] with
    /// another config), take [`SlicedMatrix::matmul_cols`] on the unfolded
    /// patches, so a NaN that no patch reads still leaves the integer path
    /// live.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have the shape `patches` maps or the patch
    /// matrix does not have `rows` rows.
    pub fn matmul_patches(&self, x: &Tensor, patches: &PatchMap) -> Tensor {
        assert_eq!(x.shape(), patches.input_shape(), "conv input shape mismatch");
        assert_eq!(patches.rows(), self.shape().0, "inner dimension mismatch");
        let t_dac = tel::enabled().then(Instant::now);
        // One grid per slice: the tiles of a slice share its config.
        let slice_grid = |slice: &TiledMatrix| slice.tiles()[0].dac_grid();
        let grid = slice_grid(&self.slices[0])
            .filter(|&g| self.slices.iter().all(|slice| slice_grid(slice) == Some(g)));
        let pixels = grid.and_then(|g| g.centered_codes_for(x.as_slice()));
        let (Some(grid), Some(pixels)) = (grid, pixels) else {
            return self.matmul_cols(&patches.unfold(x));
        };
        // One spare row for an odd last word line to pair with.
        let len = patches.rows() * patches.cols();
        let mut codes = vec![grid.centered_zero(); len + patches.cols()];
        patches.unfold_into(&pixels, &mut codes[..len]);
        PHASE_DAC_NS.record_since(t_dac);
        if tel::enabled() {
            record_dac(x.as_slice());
        }
        let col = OnceCell::new();
        self.recombine(|slice| {
            let execs = slice.execs();
            match slice.int_states(&execs) {
                Some((_, ints)) => {
                    slice.int_matmul_cols(&grid, &ints, &codes, patches.cols(), patches.cols())
                }
                None => slice.matmul_cols_in(&execs, col.get_or_init(|| patches.unfold(x))),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellFault, IrDropModel};

    #[test]
    fn slice_count() {
        let mut rng = SeededRng::new(1);
        let w = Tensor::randn(&[4, 4], &mut rng);
        let s = SlicedMatrix::program(&w, 8, 2, &CrossbarConfig::ideal(), &mut rng);
        assert_eq!(s.num_slices(), 4);
        let s = SlicedMatrix::program(&w, 6, 3, &CrossbarConfig::ideal(), &mut rng);
        assert_eq!(s.num_slices(), 2);
    }

    #[test]
    fn effective_weights_approximate_original() {
        let mut rng = SeededRng::new(2);
        let w = Tensor::randn(&[8, 6], &mut rng);
        let s = SlicedMatrix::program(&w, 12, 2, &CrossbarConfig::ideal(), &mut rng);
        let back = s.effective_weights();
        let w_max = w.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let tol = w_max / ((1u32 << 12) - 1) as f32 + 1e-4;
        for (a, b) in w.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
        }
    }

    #[test]
    fn matvec_matches_digital_reference() {
        let mut rng = SeededRng::new(3);
        let w = Tensor::randn(&[10, 5], &mut rng);
        let s = SlicedMatrix::program(&w, 12, 4, &CrossbarConfig::ideal(), &mut rng);
        let x = Tensor::randn(&[10], &mut rng).map(|v| v.clamp(-1.0, 1.0));
        let got = s.matmul(&x.reshape(&[1, 10]).unwrap());
        let want = s.effective_weights().transpose().matvec(&x);
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn lowered_digit_decomposition_matches_scalar_reference() {
        // The §8-lowered program() path (round_fast + narrow_code +
        // shift/mask) must be bit-identical to the straightforward
        // index_of + %/÷ cascade it replaced.
        let mut rng = SeededRng::new(77);
        let w = Tensor::randn(&[9, 7], &mut rng).map(|v| v * 3.0);
        let (total_bits, cell_bits) = (16u32, 4u32);
        let w_max = w
            .as_slice()
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()))
            .max(f32::MIN_POSITIVE);
        let q = Quantizer::new(0.0, w_max, total_bits);
        let digit_radix = 1u32 << cell_bits;
        let num_slices = (total_bits / cell_bits) as usize;
        for &weight in w.as_slice() {
            // Scalar reference.
            let mut reference = Vec::new();
            let mut code = q.index_of(weight.abs());
            for _ in 0..num_slices {
                reference.push(code % digit_radix);
                code /= digit_radix;
            }
            // Lowered form, exactly as program() computes it.
            let lowered_code =
                narrow_code(round_fast(weight.abs().min(w_max) / q.step()));
            for (k, &want) in reference.iter().enumerate() {
                let got = (lowered_code >> (k as u32 * cell_bits)) & (digit_radix - 1);
                assert_eq!(got, want, "weight {weight} digit {k}");
            }
        }
    }

    #[test]
    fn more_bits_give_finer_weights() {
        let mut rng = SeededRng::new(4);
        let w = Tensor::randn(&[12, 12], &mut rng);
        let coarse = SlicedMatrix::program(&w, 4, 2, &CrossbarConfig::ideal(), &mut rng)
            .effective_weights();
        let fine = SlicedMatrix::program(&w, 12, 2, &CrossbarConfig::ideal(), &mut rng)
            .effective_weights();
        assert!(w.l1_distance(&coarse) > w.l1_distance(&fine) * 4.0);
    }

    #[test]
    fn msb_slice_faults_hurt_more_than_lsb() {
        let mut rng = SeededRng::new(5);
        let w = Tensor::randn(&[16, 16], &mut rng);
        let run = |slice_idx: usize, rng: &mut SeededRng| {
            let mut s = SlicedMatrix::program(&w, 8, 2, &CrossbarConfig::ideal(), rng);
            let mut fault_rng = SeededRng::new(99);
            s.slices_mut()[slice_idx].inject_stuck_cells(CellFault::StuckLow, 0.5, &mut fault_rng);
            w.l1_distance(&s.effective_weights())
        };
        let lsb_damage = run(0, &mut rng);
        let msb_damage = run(3, &mut rng);
        assert!(
            msb_damage > lsb_damage * 4.0,
            "MSB slice faults must dominate: lsb {lsb_damage} msb {msb_damage}"
        );
    }

    #[test]
    fn sign_preserved() {
        let mut rng = SeededRng::new(6);
        let w = Tensor::from_vec(vec![0.9, -0.9, 0.3, -0.3], &[2, 2]).unwrap();
        let s = SlicedMatrix::program(&w, 8, 4, &CrossbarConfig::ideal(), &mut rng);
        let back = s.effective_weights();
        for (a, b) in w.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.signum(), b.signum());
        }
    }

    #[test]
    fn batched_matmul_bit_identical_to_matvec_rows() {
        let mut rng = SeededRng::new(8);
        let w = Tensor::randn(&[9, 5], &mut rng);
        let s = SlicedMatrix::program(&w, 8, 2, &CrossbarConfig::default(), &mut rng);
        let x = Tensor::randn(&[4, 9], &mut rng).map(|v| v.clamp(-1.0, 1.0));
        let batch = s.matmul(&x);
        assert_eq!(batch.shape(), &[4, 5]);
        for b in 0..4 {
            let single = s.matmul(&x.row(b).reshape(&[1, 9]).unwrap());
            for (j, (p, q)) in batch.row(b).as_slice().iter().zip(single.as_slice()).enumerate() {
                assert_eq!(p.to_bits(), q.to_bits(), "row {b} col {j}: {p} vs {q}");
            }
        }
    }

    #[test]
    fn stick_cell_pins_weight_across_slices() {
        let mut rng = SeededRng::new(9);
        let w = Tensor::randn(&[6, 6], &mut rng);
        let mut s = SlicedMatrix::program(&w, 8, 2, &CrossbarConfig::ideal(), &mut rng);
        let w_max = w.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let step = w_max / 255.0;
        for &(r, c, target) in &[(1usize, 2usize, 0.0f32), (4, 5, -0.4), (0, 0, 0.7)] {
            s.stick_cell(r, c, target);
            let got = s.effective_weights().at(&[r, c]);
            assert!(
                (got - target).abs() <= step + 1e-3,
                "stuck ({r},{c}) reads {got}, wanted ~{target}"
            );
        }
    }

    #[test]
    fn drift_and_ir_drop_propagate_to_slices() {
        let mut rng = SeededRng::new(10);
        let w = Tensor::randn(&[8, 8], &mut rng);
        let mut s = SlicedMatrix::program(&w, 8, 2, &CrossbarConfig::ideal(), &mut rng);
        let before = s.effective_weights().norm_l1();
        for slice in s.slices_mut() {
            slice.drift(0.5, 3.0, &mut rng);
        }
        let after = s.effective_weights().norm_l1();
        assert!(after < before, "drift should shrink: {before} -> {after}");

        let mut s = SlicedMatrix::program(&w, 8, 2, &CrossbarConfig::ideal(), &mut rng);
        let before = s.effective_weights();
        for slice in s.slices_mut() {
            slice.apply_ir_drop(&IrDropModel::new(0.05));
        }
        assert!(before.l1_distance(&s.effective_weights()) > 1e-3);
    }

    /// A NaN weight poisons its column on a bit-sliced matrix exactly as
    /// on an analog one: the product's column and the read-back cell are
    /// NaN, everything else stays finite.
    #[test]
    fn a_nan_weight_poisons_its_column_as_on_analog() {
        let mut rng = SeededRng::new(12);
        let mut w = Tensor::randn(&[8, 4], &mut rng).map(|v| v * 0.1);
        w.as_mut_slice()[3 * 4 + 2] = f32::NAN;
        let x = Tensor::rand_uniform(&[3, 8], 0.0, 1.0, &mut rng);
        let config = CrossbarConfig::default();
        for matrix in [
            SlicedMatrix::analog(&w, &config, &mut rng),
            SlicedMatrix::program(&w, 8, config.cell_bits, &config, &mut rng),
        ] {
            let slices = matrix.num_slices();
            let y = matrix.matmul(&x);
            for (i, v) in y.as_slice().iter().enumerate() {
                assert_eq!(v.is_nan(), i % 4 == 2, "{slices} slices: output {i} = {v}");
            }
            let back = matrix.effective_weights();
            for (i, v) in back.as_slice().iter().enumerate() {
                assert_eq!(v.is_nan(), i == 3 * 4 + 2, "{slices} slices: cell {i} reads {v}");
            }
        }
    }

    /// A slice replaced with another config has its own DAC grid, so the
    /// conv hook must not hand it the codes quantized on the first
    /// slice's grid: every slice runs on the unfolded patches.
    #[test]
    fn conv_hook_with_a_replaced_slice_matches_the_unfolded_product() {
        let mut rng = SeededRng::new(13);
        let map = PatchMap::new(&[2, 3, 6, 6], 3, 1, 1);
        let w = Tensor::randn(&[map.rows(), 5], &mut rng).map(|v| v * 0.3);
        let config = CrossbarConfig::default();
        let mut s = SlicedMatrix::program(&w, 8, config.cell_bits, &config, &mut rng);
        let plane = s.slices_mut()[1].effective_weights();
        let other = CrossbarConfig { dac_bits: 6, ..config };
        s.slices_mut()[1] = TiledMatrix::program(&plane, &other, &mut rng);
        let x = Tensor::randn(&[2, 3, 6, 6], &mut rng).map(|v| v * 0.6);
        let bits = |t: Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(s.matmul_patches(&x, &map)), bits(s.matmul_cols(&map.unfold(&x))));
    }

    #[test]
    #[should_panic(expected = "multiple of cell bits")]
    fn rejects_non_multiple_bits() {
        let mut rng = SeededRng::new(7);
        SlicedMatrix::program(&Tensor::zeros(&[2, 2]), 7, 2, &CrossbarConfig::ideal(), &mut rng);
    }
}
