//! 2-D convolution via im2col + matmul.

use super::{Layer, MatmulEngine, MatmulOrientation, ParamName};
use crate::init::Init;
use healthmon_tensor::{SeededRng, Tensor};
use std::ops::Range;

/// Bytes of `f32` patches [`PatchMap::matmul`] unfolds per block: a
/// quarter of a 2 MB L2, so the block, the output rows it writes and the
/// weights stay resident while the GEMM streams the block `⌈F/4⌉` times.
/// DESIGN §8 records the sweep behind the figure.
const BLOCK_BYTES: usize = 512 * 1024;

/// A 2-D convolution layer over `[N, C, H, W]` inputs.
///
/// Kernels are stored `[filters, in_channels, kh, kw]` and applied through
/// an im2col transformation so the inner loop is a single (thread-parallel)
/// matrix multiplication — the same dataflow a ReRAM crossbar realizes in
/// analog, which is why the fault models in `healthmon-faults` perturb
/// these weights directly.
///
/// # Example
///
/// ```
/// use healthmon_nn::layers::{Conv2d, Layer};
/// use healthmon_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let mut conv = Conv2d::new(1, 6, 5, 1, 2, &mut rng); // 6@5x5, stride 1, pad 2
/// let y = conv.forward(&Tensor::zeros(&[2, 1, 28, 28]));
/// assert_eq!(y.shape(), &[2, 6, 28, 28]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    filters: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// `[filters, in_channels * kernel * kernel]` — the crossbar-mapped view.
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_col: Option<Tensor>,
    cached_input_shape: Option<Vec<usize>>,
    /// Retired im2col buffer, reused by the next same-shape forward so
    /// steady-state training/inference stops allocating the largest
    /// intermediate of the whole network every pass.
    col_workspace: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal kernels and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(
        in_channels: usize,
        filters: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(kernel > 0 && stride > 0, "conv kernel/stride must be non-zero");
        let fan_in = in_channels * kernel * kernel;
        let fan_out = filters * kernel * kernel;
        Conv2d {
            in_channels,
            filters,
            kernel,
            stride,
            padding,
            weight: Init::HeNormal.sample(&[filters, fan_in], fan_in, fan_out, rng),
            bias: Tensor::zeros(&[filters]),
            grad_weight: Tensor::zeros(&[filters, fan_in]),
            grad_bias: Tensor::zeros(&[filters]),
            cached_col: None,
            cached_input_shape: None,
            col_workspace: None,
        }
    }

    /// Number of output filters.
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// The im2col geometry of this layer over an input of `input_shape`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is larger than the padded input.
    fn patch_map(&self, input_shape: &[usize]) -> PatchMap {
        PatchMap::new(input_shape, self.kernel, self.stride, self.padding)
    }

    /// im2col: unfold input patches into a `[C·K·K, N·OH·OW]` matrix,
    /// reusing the retired workspace buffer when its shape still fits.
    fn im2col(&mut self, input: &Tensor, map: &PatchMap) -> Tensor {
        let mut col = match self.col_workspace.take() {
            Some(mut ws) if ws.shape() == [map.rows(), map.cols()] => {
                // Padding positions are never written below, so the
                // recycled buffer must start from zero like a fresh one.
                ws.as_mut_slice().fill(0.0);
                ws
            }
            _ => Tensor::zeros(&[map.rows(), map.cols()]),
        };
        map.unfold_into(input.as_slice(), col.as_mut_slice());
        col
    }

    /// col2im: fold a `[C·K·K, N·OH·OW]` gradient matrix back onto the
    /// input, accumulating overlapping patches. Segments are added in
    /// [`PatchMap::for_each_segment`]'s fixed order, so every input
    /// element sums its terms in the same order on every call.
    fn col2im(&self, col: &Tensor, map: &PatchMap) -> Tensor {
        let s = map.stride;
        let cm = col.as_slice();
        let mut out = Tensor::zeros(map.input_shape());
        let o = out.as_mut_slice();
        map.for_each_segment(|src, dst, len| {
            let seg = &cm[src..src + len];
            if s == 1 {
                for (d, &g) in o[dst..dst + len].iter_mut().zip(seg) {
                    *d += g;
                }
            } else {
                for (d, &g) in o[dst..].iter_mut().step_by(s).zip(seg) {
                    *d += g;
                }
            }
        });
        out
    }

    /// The input checks `forward` and `infer` share: the im2col geometry
    /// of an `[N, C, H, W]` input with this layer's channel count.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 4-D with `in_channels` channels, or the
    /// kernel is larger than the padded input.
    fn checked_map(&self, input: &Tensor) -> PatchMap {
        assert_eq!(input.ndim(), 4, "conv2d expects [N,C,H,W], got {:?}", input.shape());
        assert_eq!(
            input.shape()[1],
            self.in_channels,
            "conv2d expects {} input channels, got {}",
            self.in_channels,
            input.shape()[1]
        );
        self.patch_map(input.shape())
    }

    /// Adds each filter's bias to its row of the `[F, N·OH·OW]` product
    /// (a zero bias adds nothing, so a `-0.0` stays) and gathers the rows
    /// to `[N, F, OH, OW]`.
    fn bias_and_gather(&self, mut mat: Tensor, map: &PatchMap) -> Tensor {
        let (n, (oh, ow), cols) = (map.input_shape()[0], map.out_extent(), map.cols());
        let m = mat.as_mut_slice();
        for (fi, &b) in self.bias.as_slice().iter().enumerate() {
            if b != 0.0 {
                for v in &mut m[fi * cols..(fi + 1) * cols] {
                    *v += b;
                }
            }
        }
        let f = self.filters;
        let plane = oh * ow;
        let mut out = Tensor::zeros(&[n, f, oh, ow]);
        let o = out.as_mut_slice();
        for fi in 0..f {
            let src = fi * cols;
            for ni in 0..n {
                let dst = (ni * f + fi) * plane;
                let s = src + ni * plane;
                o[dst..dst + plane].copy_from_slice(&m[s..s + plane]);
            }
        }
        out
    }

    /// `[N, F, OH, OW]` → `[F, N·OH·OW]` (inverse of `bias_and_gather`'s
    /// gather).
    fn scatter_grad(&self, grad: &Tensor, n: usize, oh: usize, ow: usize) -> Tensor {
        let f = self.filters;
        let plane = oh * ow;
        let cols = n * plane;
        let g = grad.as_slice();
        let mut out = Tensor::zeros(&[f, cols]);
        let o = out.as_mut_slice();
        for ni in 0..n {
            for fi in 0..f {
                let src = (ni * f + fi) * plane;
                let dst = fi * cols + ni * plane;
                o[dst..dst + plane].copy_from_slice(&g[src..src + plane]);
            }
        }
        out
    }
}

/// The im2col correspondence of one convolution call: which element of
/// the `[N, C, H, W]` input each entry of the `[C·K·K, N·OH·OW]` patch
/// matrix `col(x)` reads. Entries at padding positions read nothing.
///
/// One walker, [`PatchMap::for_each_segment`], serves every element type:
/// [`Conv2d`] unfolds `f32` activations and folds gradients back with it,
/// [`PatchMap::matmul`] unfolds a block of whole samples at a time for the
/// digital product, and a crossbar engine unfolds the integer DAC codes of
/// an input with the same segments (see [`MatmulEngine::matmul_patches`]).
///
/// # Example
///
/// ```
/// use healthmon_nn::PatchMap;
/// use healthmon_tensor::Tensor;
///
/// // One 3×3 plane, 2×2 kernel, stride 1, no padding: four patches.
/// let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
/// let map = PatchMap::new(x.shape(), 2, 1, 0);
/// assert_eq!((map.rows(), map.cols()), (4, 4));
/// // Row 0 is the top-left tap of every patch.
/// assert_eq!(&map.unfold(&x).as_slice()[..4], &[1.0, 2.0, 4.0, 5.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchMap {
    /// `[N, C, H, W]`.
    input: [usize; 4],
    kernel: usize,
    stride: usize,
    padding: usize,
    out_h: usize,
    out_w: usize,
}

impl PatchMap {
    /// The patch map of a `kernel`×`kernel` convolution at `stride` and
    /// `padding` over an input of shape `[N, C, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics if `input_shape` is not 4-D, `kernel` or `stride` is zero,
    /// or the kernel is larger than the padded input.
    pub fn new(input_shape: &[usize], kernel: usize, stride: usize, padding: usize) -> Self {
        assert_eq!(input_shape.len(), 4, "patch map expects [N,C,H,W], got {input_shape:?}");
        assert!(kernel > 0 && stride > 0, "conv kernel/stride must be non-zero");
        let extent = |input: usize| {
            let padded = input + 2 * padding;
            assert!(
                padded >= kernel,
                "conv kernel {kernel} larger than padded input extent {padded}"
            );
            (padded - kernel) / stride + 1
        };
        let (h, w) = (input_shape[2], input_shape[3]);
        PatchMap {
            input: [input_shape[0], input_shape[1], h, w],
            kernel,
            stride,
            padding,
            out_h: extent(h),
            out_w: extent(w),
        }
    }

    /// The `[N, C, H, W]` input shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input
    }

    /// The spatial output extent `(OH, OW)`.
    pub fn out_extent(&self) -> (usize, usize) {
        (self.out_h, self.out_w)
    }

    /// Rows of the patch matrix: `C·K·K`, one per kernel tap.
    pub fn rows(&self) -> usize {
        self.input[1] * self.kernel * self.kernel
    }

    /// Columns of the patch matrix: `N·OH·OW`, one per patch.
    pub fn cols(&self) -> usize {
        self.input[0] * self.out_h * self.out_w
    }

    /// The output positions `[lo, hi)` along one axis at which kernel tap
    /// `tap` reads inside an input of this `extent`, i.e.
    /// `0 ≤ o·stride + tap − padding < extent`. Every other position reads
    /// padding.
    fn tap_range(&self, tap: usize, extent: usize, out: usize) -> (usize, usize) {
        let (s, p) = (self.stride, self.padding);
        let hi = if extent + p > tap { (extent + p - tap).div_ceil(s).min(out) } else { 0 };
        let lo = if p > tap { (p - tap).div_ceil(s).min(hi) } else { 0 };
        (lo, hi)
    }

    /// Walks the correspondence one segment at a time: for each kernel tap
    /// `(ci, kh, kw)`, sample and output row, calls `f(col_start,
    /// x_start, len)`, meaning that patch-matrix elements `col_start + j`
    /// (row-major, `N·OH·OW` columns) and input elements
    /// `x_start + j·stride` pair up for `j < len`. Taps that read padding
    /// are left out, so each tap's valid columns and rows are computed
    /// once, not tested per element. The nesting, outermost first, is
    /// `ci, kh, kw, ni, ph`, then `j`.
    pub fn for_each_segment(&self, f: impl FnMut(usize, usize, usize)) {
        self.segments(0..self.input[0], self.cols(), f);
    }

    /// [`PatchMap::for_each_segment`] over the samples `ni` in `samples`
    /// only, into a patch block of row stride `ld` whose column 0 is the
    /// first patch of sample `samples.start`.
    fn segments(&self, samples: Range<usize>, ld: usize, mut f: impl FnMut(usize, usize, usize)) {
        let [_, c, h, w] = self.input;
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let (oh, ow) = (self.out_h, self.out_w);
        for ci in 0..c {
            for kh in 0..k {
                let (ph_lo, ph_hi) = self.tap_range(kh, h, oh);
                for kw in 0..k {
                    let (pw_lo, pw_hi) = self.tap_range(kw, w, ow);
                    // The tap reads only padding; its input offset below
                    // would underflow.
                    if pw_lo == pw_hi {
                        continue;
                    }
                    let row_base = ((ci * k + kh) * k + kw) * ld;
                    for ni in samples.clone() {
                        let plane = (ni * c + ci) * h * w;
                        let col_base = row_base + (ni - samples.start) * oh * ow;
                        for ph in ph_lo..ph_hi {
                            let in_row = plane + (ph * s + kh - p) * w;
                            f(
                                col_base + ph * ow + pw_lo,
                                in_row + pw_lo * s + kw - p,
                                pw_hi - pw_lo,
                            );
                        }
                    }
                }
            }
        }
    }

    /// Unfolds `x` (an `[N, C, H, W]` input, flat) into `col` (the
    /// `[C·K·K, N·OH·OW]` patch matrix, flat). Only the entries that read
    /// inside the input are written, so `col` must arrive filled with the
    /// padding value. Each segment is a slice copy at stride 1 and a
    /// strided gather otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `col` does not have the mapped length.
    pub fn unfold_into<T: Copy>(&self, x: &[T], col: &mut [T]) {
        assert_eq!(x.len(), self.input.iter().product::<usize>(), "input length mismatch");
        assert_eq!(col.len(), self.rows() * self.cols(), "patch matrix length mismatch");
        self.unfold_samples(x, 0..self.input[0], col, self.cols());
    }

    /// Unfolds the patches of `samples` into `col`, rows of stride `ld`,
    /// writing only the entries that read inside the input.
    fn unfold_samples<T: Copy>(&self, x: &[T], samples: Range<usize>, col: &mut [T], ld: usize) {
        let s = self.stride;
        self.segments(samples, ld, |dst, src, len| {
            let seg = &mut col[dst..dst + len];
            if s == 1 {
                seg.copy_from_slice(&x[src..src + len]);
            } else {
                for (d, &v) in seg.iter_mut().zip(x[src..].iter().step_by(s)) {
                    *d = v;
                }
            }
        });
    }

    /// The digital conv product `w · col(x)` for a `[F, C·K·K]` weight and
    /// an `[N, C, H, W]` input, bit-identical to
    /// `w.matmul(&self.unfold(x))` but without the whole patch matrix:
    /// [`Tensor::matmul_blocks`] multiplies a block of whole samples at a
    /// time, as many as fit about 512 KB and at least one, unfolded into
    /// one buffer that stays in cache. Every block then has its
    /// padding at the same positions, so the buffer is zeroed once and
    /// each block writes only the entries that read the input.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have the mapped input shape or `w` is not
    /// `[F, C·K·K]`.
    pub fn matmul(&self, w: &Tensor, x: &Tensor) -> Tensor {
        assert_eq!(x.shape(), self.input_shape(), "conv input shape mismatch");
        assert!(
            w.ndim() == 2 && w.shape()[1] == self.rows(),
            "conv weight {:?} does not take {} patch rows",
            w.shape(),
            self.rows()
        );
        let samples = self.block_samples(BLOCK_BYTES);
        w.matmul_blocks(self.cols(), samples * self.out_h * self.out_w, self.block_fill(x))
    }

    /// Whole samples per patch block: as many as fit `budget` bytes of
    /// `f32` patches, at least one, at most the batch.
    fn block_samples(&self, budget: usize) -> usize {
        let sample_bytes = self.rows() * self.out_h * self.out_w * std::mem::size_of::<f32>();
        (budget / sample_bytes.max(1)).clamp(1, self.input[0].max(1))
    }

    /// The [`Tensor::matmul_blocks`] fill that unfolds `x`'s patches for
    /// columns `[c0, c1)`, which must cover whole samples.
    fn block_fill<'a>(
        &'a self,
        x: &'a Tensor,
    ) -> impl Fn(usize, usize, &mut [f32], usize) + 'a {
        let plane = self.out_h * self.out_w;
        move |c0, c1, buf, ldb| {
            debug_assert!(
                c0.is_multiple_of(plane) && c1.is_multiple_of(plane),
                "patch blocks hold whole samples"
            );
            self.unfold_samples(x.as_slice(), c0 / plane..c1 / plane, buf, ldb);
        }
    }

    /// The patch matrix `col(x)` of an `[N, C, H, W]` tensor, with padding
    /// reading 0.0.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have the mapped input shape.
    pub fn unfold(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape(), self.input_shape(), "unfold input shape mismatch");
        let mut col = Tensor::zeros(&[self.rows(), self.cols()]);
        self.unfold_into(x.as_slice(), col.as_mut_slice());
        col
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        let map = self.checked_map(input);
        // Forward-only callers (inference sweeps) never reach backward, so
        // retire the previous pass's unfolded patches here before they are
        // replaced — that buffer is what im2col recycles.
        if let Some(stale) = self.cached_col.take() {
            self.col_workspace = Some(stale);
        }
        // The whole patch matrix, not `infer`'s cache-sized sample blocks
        // (same bits): `backward` reuses it for the weight gradient.
        let col = self.im2col(input, &map);
        let out = self.bias_and_gather(self.weight.matmul(&col), &map);
        self.cached_col = Some(col);
        self.cached_input_shape = Some(input.shape().to_vec());
        out
    }

    fn infer(&self, input: &Tensor, key_prefix: &str, engine: &dyn MatmulEngine) -> Tensor {
        let map = self.checked_map(input);
        let key = format!("{key_prefix}.weight");
        self.bias_and_gather(engine.matmul_patches(&key, &self.weight, input, &map), &map)
    }

    fn matmuls(&self) -> Vec<(&'static str, MatmulOrientation)> {
        vec![("weight", MatmulOrientation::WX)]
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let col = self.cached_col.take().expect("conv2d backward before forward");
        let input_shape = self
            .cached_input_shape
            .clone()
            .expect("conv2d backward before forward");
        let map = self.patch_map(&input_shape);
        let (n, (oh, ow)) = (input_shape[0], map.out_extent());
        assert_eq!(
            grad_out.shape(),
            &[n, self.filters, oh, ow],
            "conv2d grad shape mismatch"
        );
        let g_mat = self.scatter_grad(grad_out, n, oh, ow); // [F, N*OH*OW]
        // dW = G · colᵀ, db = row sums of G, dcol = Wᵀ · G
        self.grad_weight += &g_mat.matmul_bt(&col);
        {
            let cols = n * oh * ow;
            let g = g_mat.as_slice();
            for (fi, gb) in self.grad_bias.as_mut_slice().iter_mut().enumerate() {
                *gb += g[fi * cols..(fi + 1) * cols].iter().sum::<f32>();
            }
        }
        let grad_col = self.weight.matmul_at(&g_mat); // [CKK, N*OH*OW]
        let out = self.col2im(&grad_col, &map);
        // Retire the unfolded-patch buffer for the next forward pass.
        self.col_workspace = Some(col);
        out
    }

    fn params(&self) -> Vec<(ParamName, &Tensor)> {
        vec![("weight".into(), &self.weight), ("bias".into(), &self.bias)]
    }

    fn params_mut(&mut self) -> Vec<(ParamName, &mut Tensor, &mut Tensor)> {
        vec![
            ("weight".into(), &mut self.weight, &mut self.grad_weight),
            ("bias".into(), &mut self.bias, &mut self.grad_bias),
        ]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{gradcheck, DigitalEngine};

    /// Direct (reference) convolution for testing the im2col path.
    fn naive_conv(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        filters: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Tensor {
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let oh = (h + 2 * padding - kernel) / stride + 1;
        let ow = (w + 2 * padding - kernel) / stride + 1;
        let mut out = Tensor::zeros(&[n, filters, oh, ow]);
        for ni in 0..n {
            for fi in 0..filters {
                for ph in 0..oh {
                    for pw in 0..ow {
                        let mut acc = bias.as_slice()[fi];
                        for ci in 0..c {
                            for kh in 0..kernel {
                                for kw in 0..kernel {
                                    let ih = (ph * stride + kh) as isize - padding as isize;
                                    let iw = (pw * stride + kw) as isize - padding as isize;
                                    if ih < 0 || iw < 0 || ih >= h as isize || iw >= w as isize {
                                        continue;
                                    }
                                    let x = input.at(&[ni, ci, ih as usize, iw as usize]);
                                    let wv =
                                        weight.at(&[fi, (ci * kernel + kh) * kernel + kw]);
                                    acc += x * wv;
                                }
                            }
                        }
                        *out.at_mut(&[ni, fi, ph, pw]) = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_naive() {
        let mut rng = SeededRng::new(1);
        for &(c, f, k, s, p, h) in &[(1, 2, 3, 1, 0, 5), (2, 3, 3, 1, 1, 6), (3, 4, 5, 2, 2, 9)] {
            let mut conv = Conv2d::new(c, f, k, s, p, &mut rng);
            // Random bias so the bias path is exercised too.
            for b in conv.bias.as_mut_slice() {
                *b = rng.normal(0.0, 0.5);
            }
            let x = Tensor::randn(&[2, c, h, h], &mut rng);
            let got = conv.forward(&x);
            let want = naive_conv(&x, &conv.weight, &conv.bias, f, k, s, p);
            assert_eq!(got.shape(), want.shape());
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() < 1e-4, "conv mismatch: {a} vs {b}");
            }
        }
    }

    #[test]
    fn output_shape_formulas() {
        let mut rng = SeededRng::new(2);
        // "same" padding keeps extent with stride 1.
        let mut conv = Conv2d::new(1, 4, 3, 1, 1, &mut rng);
        assert_eq!(conv.forward(&Tensor::zeros(&[1, 1, 7, 7])).shape(), &[1, 4, 7, 7]);
        // valid 5x5 shrinks by 4.
        let mut conv = Conv2d::new(1, 4, 5, 1, 0, &mut rng);
        assert_eq!(conv.forward(&Tensor::zeros(&[1, 1, 14, 14])).shape(), &[1, 4, 10, 10]);
        // stride 2 halves.
        let mut conv = Conv2d::new(1, 4, 2, 2, 0, &mut rng);
        assert_eq!(conv.forward(&Tensor::zeros(&[1, 1, 8, 8])).shape(), &[1, 4, 4, 4]);
    }

    #[test]
    fn input_gradient_check() {
        let mut rng = SeededRng::new(3);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 2, 5, 5], &mut rng);
        let err = gradcheck::input_gradient_error(&mut conv, &x);
        assert!(err < 1e-2, "conv input grad error {err}");
    }

    #[test]
    fn param_gradient_check() {
        let mut rng = SeededRng::new(4);
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        let x = Tensor::randn(&[2, 1, 5, 5], &mut rng);
        let err = gradcheck::param_gradient_error(&mut conv, &x);
        assert!(err < 1e-2, "conv param grad error {err}");
    }

    #[test]
    fn strided_gradient_check() {
        let mut rng = SeededRng::new(5);
        let mut conv = Conv2d::new(2, 2, 3, 2, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 7, 7], &mut rng);
        let err = gradcheck::input_gradient_error(&mut conv, &x);
        assert!(err < 1e-2, "strided conv grad error {err}");
    }

    /// The per-element im2col loop `unfold_into` replaced, kept as its
    /// reference: every element tests both padding bounds.
    fn reference_unfold(conv: &Conv2d, input: &Tensor, oh: usize, ow: usize) -> Tensor {
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let k = conv.kernel;
        let cols = n * oh * ow;
        let mut col = Tensor::zeros(&[c * k * k, cols]);
        let x = input.as_slice();
        let cm = col.as_mut_slice();
        for ci in 0..c {
            for kh in 0..k {
                for kw in 0..k {
                    let row = (ci * k + kh) * k + kw;
                    let row_base = row * cols;
                    for ni in 0..n {
                        let plane = (ni * c + ci) * h * w;
                        let col_base = ni * oh * ow;
                        for ph in 0..oh {
                            let ih = (ph * conv.stride + kh) as isize - conv.padding as isize;
                            if ih < 0 || ih >= h as isize {
                                continue;
                            }
                            let in_row = plane + ih as usize * w;
                            let out_row = row_base + col_base + ph * ow;
                            for pw in 0..ow {
                                let iw = (pw * conv.stride + kw) as isize - conv.padding as isize;
                                if iw < 0 || iw >= w as isize {
                                    continue;
                                }
                                cm[out_row + pw] = x[in_row + iw as usize];
                            }
                        }
                    }
                }
            }
        }
        col
    }

    /// The per-element col2im loop `col2im` replaced, kept as its reference.
    fn reference_col2im(
        conv: &Conv2d,
        col: &Tensor,
        input_shape: &[usize],
        oh: usize,
        ow: usize,
    ) -> Tensor {
        let (n, c, h, w) = (input_shape[0], input_shape[1], input_shape[2], input_shape[3]);
        let k = conv.kernel;
        let cols = n * oh * ow;
        let cm = col.as_slice();
        let mut out = Tensor::zeros(input_shape);
        let o = out.as_mut_slice();
        for ci in 0..c {
            for kh in 0..k {
                for kw in 0..k {
                    let row = (ci * k + kh) * k + kw;
                    let row_base = row * cols;
                    for ni in 0..n {
                        let plane = (ni * c + ci) * h * w;
                        let col_base = ni * oh * ow;
                        for ph in 0..oh {
                            let ih = (ph * conv.stride + kh) as isize - conv.padding as isize;
                            if ih < 0 || ih >= h as isize {
                                continue;
                            }
                            let in_row = plane + ih as usize * w;
                            let src_row = row_base + col_base + ph * ow;
                            for pw in 0..ow {
                                let iw = (pw * conv.stride + kw) as isize - conv.padding as isize;
                                if iw < 0 || iw >= w as isize {
                                    continue;
                                }
                                o[in_row + iw as usize] += cm[src_row + pw];
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
    }

    /// Random values with a NaN, a +inf and a −inf planted at spread-out
    /// positions, so bit-exact moves of non-finite values are checked too.
    fn with_specials(shape: &[usize], rng: &mut SeededRng) -> Tensor {
        let mut t = Tensor::randn(shape, rng);
        let v = t.as_mut_slice();
        let len = v.len();
        v[len / 3] = f32::NAN;
        v[len / 2] = f32::INFINITY;
        v[len - 1] = f32::NEG_INFINITY;
        t
    }

    /// The segment unfold and fold against the per-element reference loops,
    /// to the bit, over kernel 1–5, stride 1–3 and padding 0 through
    /// kernel + 1 (whole output rows and columns in the padding). Per
    /// geometry, one layer runs two same-shape forwards and then one with
    /// H and W swapped: the same `[C·K·K, N·OH·OW]` workspace is recycled
    /// with a different padding layout, so it must come back zeroed.
    #[test]
    fn segment_unfold_and_fold_match_the_per_element_loops() {
        let mut rng = SeededRng::new(7);
        // (batch, channels, h, w), h ≠ w.
        let shapes = [(1, 1, 5, 3), (2, 3, 4, 7), (3, 2, 9, 6), (1, 2, 1, 8), (3, 1, 7, 2)];
        let mut cases = 0;
        for k in 1..=5 {
            for s in 1..=3 {
                for p in 0..=k + 1 {
                    for &(n, c, h, w) in &shapes {
                        if h.min(w) + 2 * p < k {
                            continue;
                        }
                        cases += 1;
                        let mut conv = Conv2d::new(c, 2, k, s, p, &mut rng);
                        for (pass, (hi, wi)) in [(h, w), (h, w), (w, h)].into_iter().enumerate() {
                            let what = format!("k{k} s{s} p{p} [{n},{c},{hi},{wi}] pass {pass}");
                            let x = with_specials(&[n, c, hi, wi], &mut rng);
                            let map = conv.patch_map(x.shape());
                            let (oh, ow) = map.out_extent();
                            let want = reference_unfold(&conv, &x, oh, ow);
                            assert_bits_eq(&map.unfold(&x), &want, &what);

                            let y = conv.forward(&x);
                            let cached = conv.cached_col.as_ref().unwrap();
                            assert_bits_eq(cached, &want, &format!("{what} forward"));
                            let inferred = conv.infer(&x, "layer0", &DigitalEngine);
                            assert_bits_eq(&inferred, &y, &format!("{what} infer"));

                            let grad_col = with_specials(want.shape(), &mut rng);
                            assert_bits_eq(
                                &conv.col2im(&grad_col, &map),
                                &reference_col2im(&conv, &grad_col, x.shape(), oh, ow),
                                &format!("{what} col2im"),
                            );
                            // Skipping one backward leaves the patches cached, so the
                            // next forward retires them itself.
                            if pass == 1 {
                                continue;
                            }
                            let g = Tensor::randn(y.shape(), &mut rng);
                            let g_mat = conv.scatter_grad(&g, n, oh, ow);
                            let dcol = conv.weight.matmul_at(&g_mat);
                            let want_dx = reference_col2im(&conv, &dcol, x.shape(), oh, ow);
                            assert_bits_eq(&conv.backward(&g), &want_dx, &format!("{what} backward"));
                        }
                    }
                }
            }
        }
        assert!(cases > 300, "only {cases} geometries ran");
    }

    /// The walker pairs the same elements whatever the element type: an
    /// `i32` unfold of element numbers, padded with 0, names exactly the
    /// input element the `f32` reference loop copies to each entry.
    #[test]
    fn integer_unfold_reads_the_same_elements() {
        let mut rng = SeededRng::new(8);
        let (n, c, h, w) = (2, 3, 7, 5);
        let numbers =
            Tensor::from_vec((1..=n * c * h * w).map(|v| v as f32).collect(), &[n, c, h, w])
                .unwrap();
        let ints: Vec<i32> = (1..=(n * c * h * w) as i32).collect();
        for k in 1..=5 {
            for s in 1..=3 {
                for p in 0..=k + 1 {
                    if h.min(w) + 2 * p < k {
                        continue;
                    }
                    let conv = Conv2d::new(c, 2, k, s, p, &mut rng);
                    let map = conv.patch_map(numbers.shape());
                    let (oh, ow) = map.out_extent();
                    let want = reference_unfold(&conv, &numbers, oh, ow);
                    let mut got = vec![0i32; map.rows() * map.cols()];
                    map.unfold_into(&ints, &mut got);
                    let want: Vec<i32> = want.as_slice().iter().map(|&v| v as i32).collect();
                    assert_eq!(got, want, "k{k} s{s} p{p}");
                }
            }
        }
    }

    /// Random pixels with one NaN, +∞ or −∞ in every sample, so each
    /// patch block carries non-finite values into the next one's buffer.
    fn with_special_per_sample(shape: &[usize], rng: &mut SeededRng) -> Tensor {
        let mut t = Tensor::randn(shape, rng);
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let sample = shape[1..].iter().product::<usize>();
        for (i, pixels) in t.as_mut_slice().chunks_exact_mut(sample).enumerate() {
            pixels[rng.below(sample)] = specials[i % 3];
        }
        t
    }

    /// The blocked digital product against `w · unfold(x)` over the whole
    /// patch matrix, to the bit: kernel 1–5, stride 1–3, padding 0 through
    /// kernel + 1, batches 1–11 split into blocks of 1–4 samples or one
    /// block (so the last block is often short), planes that are rarely a
    /// multiple of 16, at 1, 2 and 7 threads.
    #[test]
    fn blocked_product_matches_the_whole_patch_matrix() {
        let mut rng = SeededRng::new(10);
        let mut cases = 0;
        for k in 1..=5 {
            for s in 1..=3 {
                for p in 0..=k + 1 {
                    let (n, c) = (1 + cases % 11, 1 + cases % 3);
                    let (h, w) = (5 + cases % 5, 4 + cases % 7);
                    if h.min(w) + 2 * p < k {
                        continue;
                    }
                    cases += 1;
                    let x = with_special_per_sample(&[n, c, h, w], &mut rng);
                    let map = PatchMap::new(x.shape(), k, s, p);
                    let wt = Tensor::randn(&[1 + cases % 9, map.rows()], &mut rng);
                    let want = wt.matmul(&map.unfold(&x));
                    let plane = map.cols() / n;
                    for (spb, threads) in [(1, 1), (2, 2), (3, 7), (4, 1), (n, 2)] {
                        let what =
                            format!("k{k} s{s} p{p} [{n},{c},{h},{w}] {spb}/block {threads}t");
                        let got = wt.matmul_blocks_with_threads(
                            map.cols(),
                            spb * plane,
                            threads,
                            map.block_fill(&x),
                        );
                        assert_bits_eq(&got, &want, &what);
                    }
                    let engine = DigitalEngine.matmul_patches("layer0.weight", &wt, &x, &map);
                    assert_bits_eq(&engine, &want, &format!("k{k} s{s} p{p} engine"));
                }
            }
        }
        assert!(cases > 70, "only {cases} geometries ran");
    }

    /// At the real block budget: lenet5's first conv over 11 samples
    /// unfolds 6 per block (a short second block of 5), convnet7's second
    /// one sample per block.
    #[test]
    fn zoo_shaped_products_block_as_budgeted() {
        let mut rng = SeededRng::new(11);
        for (shape, k, p, filters, per_block) in
            [([11, 1, 28, 28], 5, 2, 6, 6), ([3, 16, 32, 32], 3, 1, 32, 1)]
        {
            let x = with_special_per_sample(&shape, &mut rng);
            let map = PatchMap::new(&shape, k, 1, p);
            assert_eq!(map.block_samples(BLOCK_BYTES), per_block, "{shape:?}");
            let wt = Tensor::randn(&[filters, map.rows()], &mut rng);
            let got = DigitalEngine.matmul_patches("layer0.weight", &wt, &x, &map);
            assert_bits_eq(&got, &wt.matmul(&map.unfold(&x)), &format!("{shape:?}"));
        }
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn rejects_wrong_channel_count() {
        let mut rng = SeededRng::new(6);
        Conv2d::new(3, 2, 3, 1, 1, &mut rng).forward(&Tensor::zeros(&[1, 1, 8, 8]));
    }
}
