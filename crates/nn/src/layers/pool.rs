//! Spatial pooling layers over `[N, C, H, W]` feature maps.

use super::{DigitalEngine, Layer, MatmulEngine};
use healthmon_tensor::Tensor;

fn pooled_extent(input: usize, kernel: usize, stride: usize) -> usize {
    assert!(input >= kernel, "pool kernel {kernel} larger than input extent {input}");
    (input - kernel) / stride + 1
}

/// `[N, C, H, W, OH, OW]` of a `kernel`×`kernel` pool at `stride` over
/// `shape`, checked for the layer `what`.
fn pooled_shape(what: &str, shape: &[usize], kernel: usize, stride: usize) -> [usize; 6] {
    assert_eq!(shape.len(), 4, "{what} expects [N,C,H,W], got {shape:?}");
    let (h, w) = (shape[2], shape[3]);
    let (oh, ow) = (pooled_extent(h, kernel, stride), pooled_extent(w, kernel, stride));
    [shape[0], shape[1], h, w, oh, ow]
}

/// 2-D max pooling.
///
/// # Example
///
/// ```
/// use healthmon_nn::layers::{Layer, MaxPool2d};
/// use healthmon_tensor::Tensor;
///
/// let mut pool = MaxPool2d::new(2, 2);
/// let y = pool.forward(&Tensor::zeros(&[1, 3, 8, 8]));
/// assert_eq!(y.shape(), &[1, 3, 4, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    cached_input_shape: Option<Vec<usize>>,
    /// Linear index (into the input buffer) of each output's winner.
    cached_argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with square kernel and stride.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "pool kernel/stride must be non-zero");
        MaxPool2d { kernel, stride, cached_input_shape: None, cached_argmax: Vec::new() }
    }

    /// The pool of every window and, per output, the input index of its
    /// winner. Every output visits its taps in `kh, kw` order, and
    /// `v > best` is a select, not a branch: which tap wins depends on
    /// the activations, so a branch mispredicts, while the select lowers
    /// to `maxps`, which keeps `best` on a NaN `v` and on equal zeros
    /// exactly as the branch did. A window where nothing beats −∞ (all −∞
    /// or NaN) names its own first element.
    fn windows(&self, input: &Tensor) -> (Tensor, Vec<usize>) {
        let [n, c, h, w, oh, ow] = pooled_shape("maxpool", input.shape(), self.kernel, self.stride);
        let x = input.as_slice();
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let mut argmax = vec![0usize; n * c * oh * ow];
        let o = out.as_mut_slice();
        let mut oi = 0usize;
        for ni in 0..n {
            for ci in 0..c {
                let plane = (ni * c + ci) * h * w;
                for ph in 0..oh {
                    for pw in 0..ow {
                        let window = plane + ph * self.stride * w + pw * self.stride;
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = window;
                        for kh in 0..self.kernel {
                            let row = window + kh * w;
                            for kw in 0..self.kernel {
                                let v = x[row + kw];
                                let better = v > best;
                                best = if better { v } else { best };
                                best_idx = if better { row + kw } else { best_idx };
                            }
                        }
                        o[oi] = best;
                        argmax[oi] = best_idx;
                        oi += 1;
                    }
                }
            }
        }
        (out, argmax)
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (out, argmax) = self.windows(input);
        self.cached_argmax = argmax;
        self.cached_input_shape = Some(input.shape().to_vec());
        out
    }

    fn infer(&self, input: &Tensor, _key_prefix: &str, _engine: &dyn MatmulEngine) -> Tensor {
        if self.kernel != 2 || self.stride != 2 {
            return self.windows(input).0;
        }
        // Every zoo pool: both input rows of an output row in one pass,
        // each output's four taps folded in registers with `windows`'
        // select, which vectorizes across outputs (DESIGN.md §8).
        let [n, c, h, w, oh, ow] = pooled_shape("maxpool", input.shape(), 2, 2);
        let x = input.as_slice();
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let select = |best: f32, v: f32| if v > best { v } else { best };
        for (i, best) in out.as_mut_slice().chunks_exact_mut(ow).enumerate() {
            let top = (i / oh) * h * w + (i % oh) * 2 * w;
            let bottom = x[top + w..][..2 * ow].chunks_exact(2);
            let rows = x[top..][..2 * ow].chunks_exact(2).zip(bottom);
            for (b, (t, u)) in best.iter_mut().zip(rows) {
                *b = [t[0], t[1], u[0], u[1]].into_iter().fold(f32::NEG_INFINITY, select);
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .cached_input_shape
            .as_ref()
            .expect("maxpool backward before forward");
        assert_eq!(grad_out.len(), self.cached_argmax.len(), "maxpool grad shape mismatch");
        let mut grad_in = Tensor::zeros(shape);
        let gi = grad_in.as_mut_slice();
        for (g, &idx) in grad_out.as_slice().iter().zip(&self.cached_argmax) {
            gi[idx] += g;
        }
        grad_in
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// 2-D average pooling.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    kernel: usize,
    stride: usize,
    cached_input_shape: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates an average-pool layer with square kernel and stride.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "pool kernel/stride must be non-zero");
        AvgPool2d { kernel, stride, cached_input_shape: None }
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> &'static str {
        "avgpool2d"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.cached_input_shape = Some(input.shape().to_vec());
        self.infer(input, "", &DigitalEngine)
    }

    fn infer(&self, input: &Tensor, _key_prefix: &str, _engine: &dyn MatmulEngine) -> Tensor {
        let [n, c, h, w, oh, ow] = pooled_shape("avgpool", input.shape(), self.kernel, self.stride);
        let x = input.as_slice();
        let inv_area = 1.0 / (self.kernel * self.kernel) as f32;
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let o = out.as_mut_slice();
        let mut oi = 0usize;
        for ni in 0..n {
            for ci in 0..c {
                let plane = (ni * c + ci) * h * w;
                for ph in 0..oh {
                    for pw in 0..ow {
                        let mut acc = 0.0f32;
                        for kh in 0..self.kernel {
                            let row = plane + (ph * self.stride + kh) * w + pw * self.stride;
                            for kw in 0..self.kernel {
                                acc += x[row + kw];
                            }
                        }
                        o[oi] = acc * inv_area;
                        oi += 1;
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self.cached_input_shape.as_ref().expect("avgpool backward before forward");
        let [n, c, h, w, oh, ow] = pooled_shape("avgpool", shape, self.kernel, self.stride);
        let inv_area = 1.0 / (self.kernel * self.kernel) as f32;
        let mut grad_in = Tensor::zeros(shape);
        let gi = grad_in.as_mut_slice();
        let g = grad_out.as_slice();
        let mut oi = 0usize;
        for ni in 0..n {
            for ci in 0..c {
                let plane = (ni * c + ci) * h * w;
                for ph in 0..oh {
                    for pw in 0..ow {
                        let share = g[oi] * inv_area;
                        for kh in 0..self.kernel {
                            let row = plane + (ph * self.stride + kh) * w + pw * self.stride;
                            for kw in 0..self.kernel {
                                gi[row + kw] += share;
                            }
                        }
                        oi += 1;
                    }
                }
            }
        }
        grad_in
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use healthmon_tensor::SeededRng;

    #[test]
    fn maxpool_hand_example() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_winner() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        pool.forward(&x);
        let g = pool.backward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap());
        assert_eq!(g.as_slice(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn maxpool_window_without_a_winner_routes_to_its_own_first_element() {
        let mut pool = MaxPool2d::new(2, 2);
        let ninf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, ninf, ninf, ninf, ninf], &[2, 1, 2, 2])
            .unwrap();
        assert_eq!(pool.forward(&x).as_slice(), &[4.0, ninf]);
        let g = pool.backward(&Tensor::from_vec(vec![10.0, 100.0], &[2, 1, 1, 1]).unwrap());
        assert_eq!(g.as_slice(), &[0.0, 0.0, 0.0, 10.0, 100.0, 0.0, 0.0, 0.0]);

        // The same for a NaN window that is not the batch's first.
        let nan = f32::NAN;
        let x = Tensor::from_vec(vec![1.0, 2.0, nan, ninf, 3.0, 4.0, nan, nan], &[1, 1, 2, 4])
            .unwrap();
        pool.forward(&x);
        let g = pool.backward(&Tensor::from_vec(vec![10.0, 100.0], &[1, 1, 1, 2]).unwrap());
        assert_eq!(g.as_slice(), &[0.0, 0.0, 100.0, 0.0, 0.0, 10.0, 0.0, 0.0]);
    }

    #[test]
    fn avgpool_hand_example() {
        let mut pool = AvgPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = pool.forward(&x);
        assert_eq!(y.as_slice(), &[2.5]);
        let g = pool.backward(&Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]).unwrap());
        assert_eq!(g.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn maxpool_gradient_check() {
        let mut rng = SeededRng::new(6);
        // Distinct values so the argmax is stable under the FD epsilon.
        let mut x = Tensor::randn(&[2, 2, 4, 4], &mut rng);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            *v += (i as f32) * 0.1;
        }
        let mut pool = MaxPool2d::new(2, 2);
        let err = gradcheck::input_gradient_error(&mut pool, &x);
        assert!(err < 1e-2, "maxpool grad error {err}");
    }

    #[test]
    fn avgpool_gradient_check() {
        let mut rng = SeededRng::new(7);
        let x = Tensor::randn(&[2, 3, 4, 4], &mut rng);
        let mut pool = AvgPool2d::new(2, 2);
        let err = gradcheck::input_gradient_error(&mut pool, &x);
        assert!(err < 1e-2, "avgpool grad error {err}");
    }

    #[test]
    fn stride_one_overlapping_windows() {
        let mut pool = MaxPool2d::new(2, 1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], &[1, 1, 3, 3])
            .unwrap();
        let y = pool.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[5.0, 6.0, 8.0, 9.0]);
    }

    /// The branching per-window loops the selects replaced, kept
    /// as their reference: `(output, winner index)` of each window.
    fn reference_maxpool(x: &Tensor, kernel: usize, stride: usize) -> (Vec<f32>, Vec<usize>) {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let oh = pooled_extent(h, kernel, stride);
        let ow = pooled_extent(w, kernel, stride);
        let x = x.as_slice();
        let (mut out, mut argmax) = (Vec::new(), Vec::new());
        for ni in 0..n {
            for ci in 0..c {
                let plane = (ni * c + ci) * h * w;
                for ph in 0..oh {
                    for pw in 0..ow {
                        let window = plane + ph * stride * w + pw * stride;
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = window;
                        for kh in 0..kernel {
                            let row = window + kh * w;
                            for kw in 0..kernel {
                                let v = x[row + kw];
                                if v > best {
                                    best = v;
                                    best_idx = row + kw;
                                }
                            }
                        }
                        out.push(best);
                        argmax.push(best_idx);
                    }
                }
            }
        }
        (out, argmax)
    }

    /// Random maps where ties, NaN, ±0 and −∞ decide windows: values are
    /// drawn from a small set, so many windows hold equal maxima, zeros of
    /// both signs, NaNs before and after finite values, or nothing above
    /// −∞.
    fn adversarial_map(shape: &[usize], rng: &mut SeededRng) -> Tensor {
        let specials = [f32::NAN, 0.0, -0.0, f32::NEG_INFINITY, 1.0, -1.0, 0.5];
        let mut t = Tensor::randn(shape, rng);
        for v in t.as_mut_slice() {
            let pick = rng.below(10);
            if pick < specials.len() {
                *v = specials[pick];
            }
        }
        t
    }

    /// `infer`, `forward` and the winner indices `backward` routes to,
    /// against the branching reference, to the bit.
    #[test]
    fn selects_match_the_branching_reference() {
        let mut rng = SeededRng::new(9);
        let shapes = [[1, 1, 4, 4], [2, 3, 7, 9], [3, 2, 28, 28], [1, 4, 6, 5], [2, 1, 1, 8]];
        let mut cases = 0;
        for shape in shapes {
            for kernel in 1..=3 {
                for stride in 1..=3 {
                    if shape[2].min(shape[3]) < kernel {
                        continue;
                    }
                    cases += 1;
                    let x = adversarial_map(&shape, &mut rng);
                    let (want, want_idx) = reference_maxpool(&x, kernel, stride);
                    let mut pool = MaxPool2d::new(kernel, stride);
                    let what = format!("{shape:?} k{kernel} s{stride}");
                    let bits =
                        |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                    let inferred = pool.infer(&x, "layer0", &crate::DigitalEngine);
                    assert_eq!(bits(&inferred), want_bits, "{what} infer");
                    assert_eq!(bits(&pool.forward(&x)), want_bits, "{what} forward");
                    assert_eq!(pool.cached_argmax, want_idx, "{what} argmax");
                }
            }
        }
        assert!(cases >= 35, "only {cases} cases ran");
    }

    #[test]
    #[should_panic(expected = "larger than input")]
    fn rejects_kernel_larger_than_input() {
        MaxPool2d::new(3, 1).forward(&Tensor::zeros(&[1, 1, 2, 2]));
    }
}
