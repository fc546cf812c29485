//! Batch normalization over `[N, C, H, W]` feature maps.

use super::{Layer, MatmulEngine, ParamName};
use healthmon_tensor::Tensor;

/// Per-channel batch normalization (Ioffe & Szegedy):
/// `y = γ·(x − μ)/√(σ² + ε) + β`, with batch statistics during training
/// and tracked running statistics during inference.
///
/// Useful when extending the paper's models to deeper networks, where
/// training without normalization becomes unstable; the ReRAM mapping
/// treats γ/β as CMOS-side scale/shift (they are *not* conductance-mapped,
/// so fault injectors leave them alone — their state-dict keys are
/// `gamma`/`beta`, not `weight`).
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    training: bool,
    /// Cached from forward: normalized input and the per-channel inverse
    /// std, needed by backward.
    cached: Option<(Tensor, Tensor)>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channel count must be non-zero");
        BatchNorm2d {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            training: true,
            cached: None,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    fn check_input(&self, input: &Tensor) {
        assert_eq!(input.ndim(), 4, "batchnorm expects [N,C,H,W], got {:?}", input.shape());
        assert_eq!(
            input.shape()[1],
            self.channels,
            "batchnorm configured for {} channels, got {}",
            self.channels,
            input.shape()[1]
        );
    }

    /// Per-channel `1/√(σ² + ε)`.
    fn inv_std(&self, var: &[f32]) -> Vec<f32> {
        var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect()
    }

    /// `y = γ·x̂ + β` with `x̂ = (x − μ)·inv_std`, per channel: the output
    /// and `x̂`.
    fn normalize(&self, input: &Tensor, mean: &[f32], inv_std: &[f32]) -> (Tensor, Tensor) {
        let shape = input.shape();
        let x = input.as_slice();
        let mut x_hat = Tensor::zeros(shape);
        let mut out = Tensor::zeros(shape);
        let (xh, o) = (x_hat.as_mut_slice(), out.as_mut_slice());
        let (gamma, beta) = (self.gamma.as_slice(), self.beta.as_slice());
        Self::for_each_channel_elem(shape, |c, i| {
            xh[i] = (x[i] - mean[c]) * inv_std[c];
            o[i] = gamma[c] * xh[i] + beta[c];
        });
        (out, x_hat)
    }

    /// Iterates channel elements: calls `f(channel, linear_index)`.
    fn for_each_channel_elem(shape: &[usize], mut f: impl FnMut(usize, usize)) {
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let plane = h * w;
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * plane;
                for p in 0..plane {
                    f(ci, base + p);
                }
            }
        }
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> &'static str {
        "batchnorm2d"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.check_input(input);
        let shape = input.shape();
        let count = (shape[0] * shape[2] * shape[3]) as f32;
        let x = input.as_slice();

        let (mean, var) = if self.training {
            let mut mean = vec![0.0f32; self.channels];
            Self::for_each_channel_elem(shape, |c, i| mean[c] += x[i]);
            for m in &mut mean {
                *m /= count;
            }
            let mut var = vec![0.0f32; self.channels];
            Self::for_each_channel_elem(shape, |c, i| {
                let d = x[i] - mean[c];
                var[c] += d * d;
            });
            for v in &mut var {
                *v /= count;
            }
            // Track running statistics for inference.
            for c in 0..self.channels {
                let rm = &mut self.running_mean.as_mut_slice()[c];
                *rm = (1.0 - self.momentum) * *rm + self.momentum * mean[c];
                let rv = &mut self.running_var.as_mut_slice()[c];
                *rv = (1.0 - self.momentum) * *rv + self.momentum * var[c];
            }
            (mean, var)
        } else {
            (
                self.running_mean.as_slice().to_vec(),
                self.running_var.as_slice().to_vec(),
            )
        };

        let inv_std = self.inv_std(&var);
        let (out, x_hat) = self.normalize(input, &mean, &inv_std);
        self.cached = Some((
            x_hat,
            Tensor::from_vec(inv_std, &[self.channels]).expect("channel vector"),
        ));
        out
    }

    fn infer(&self, input: &Tensor, _key_prefix: &str, _engine: &dyn MatmulEngine) -> Tensor {
        self.check_input(input);
        let inv_std = self.inv_std(self.running_var.as_slice());
        self.normalize(input, self.running_mean.as_slice(), &inv_std).0
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (x_hat, inv_std) = self
            .cached
            .as_ref()
            .expect("batchnorm backward before forward");
        let shape = grad_out.shape().to_vec();
        assert_eq!(x_hat.shape(), &shape[..], "batchnorm grad shape mismatch");
        let count = (shape[0] * shape[2] * shape[3]) as f32;
        let g = grad_out.as_slice();
        let xh = x_hat.as_slice();

        // Per-channel reductions: Σ dy and Σ dy·x̂.
        let mut sum_dy = vec![0.0f32; self.channels];
        let mut sum_dy_xhat = vec![0.0f32; self.channels];
        Self::for_each_channel_elem(&shape, |c, i| {
            sum_dy[c] += g[i];
            sum_dy_xhat[c] += g[i] * xh[i];
        });
        for c in 0..self.channels {
            self.grad_beta.as_mut_slice()[c] += sum_dy[c];
            self.grad_gamma.as_mut_slice()[c] += sum_dy_xhat[c];
        }

        let mut grad_in = Tensor::zeros(&shape);
        {
            let gi = grad_in.as_mut_slice();
            let gamma = self.gamma.as_slice();
            let istd = inv_std.as_slice();
            if self.training {
                // dx = γ/√(σ²+ε) · (dy − mean(dy) − x̂ · mean(dy·x̂))
                Self::for_each_channel_elem(&shape, |c, i| {
                    gi[i] = gamma[c] * istd[c]
                        * (g[i] - sum_dy[c] / count - xh[i] * sum_dy_xhat[c] / count);
                });
            } else {
                // Inference statistics are constants: dx = γ/√(σ²+ε)·dy.
                Self::for_each_channel_elem(&shape, |c, i| {
                    gi[i] = gamma[c] * istd[c] * g[i];
                });
            }
        }
        grad_in
    }

    // Deliberately NOT `weight`: γ/β live in CMOS periphery and are
    // excluded from conductance-domain fault injection.
    fn params(&self) -> Vec<(ParamName, &Tensor)> {
        vec![("gamma".into(), &self.gamma), ("beta".into(), &self.beta)]
    }

    fn params_mut(&mut self) -> Vec<(ParamName, &mut Tensor, &mut Tensor)> {
        vec![
            ("gamma".into(), &mut self.gamma, &mut self.grad_gamma),
            ("beta".into(), &mut self.beta, &mut self.grad_beta),
        ]
    }

    fn set_training(&mut self, on: bool) {
        self.training = on;
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
    fn normalizes_per_channel_in_training() {
        let mut rng = SeededRng::new(1);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn(&[4, 3, 5, 5], &mut rng).map(|v| v * 3.0 + 2.0);
        let y = bn.forward(&x);
        // Each channel of the output has ~zero mean, ~unit variance.
        let plane = 25;
        for c in 0..3 {
            let mut vals = Vec::new();
            for n in 0..4 {
                let base = (n * 3 + c) * plane;
                vals.extend_from_slice(&y.as_slice()[base..base + plane]);
            }
            let t = Tensor::from_slice(&vals);
            assert!(t.mean().abs() < 1e-4, "channel {c} mean {}", t.mean());
            assert!((t.std() - 1.0).abs() < 1e-2, "channel {c} std {}", t.std());
        }
    }

    #[test]
    fn gamma_beta_scale_and_shift() {
        let mut rng = SeededRng::new(2);
        let mut bn = BatchNorm2d::new(1);
        bn.gamma.as_mut_slice()[0] = 2.0;
        bn.beta.as_mut_slice()[0] = -1.0;
        let x = Tensor::randn(&[8, 1, 3, 3], &mut rng);
        let y = bn.forward(&x);
        assert!((y.mean() + 1.0).abs() < 1e-4);
        assert!((y.std() - 2.0).abs() < 2e-2);
    }

    #[test]
    fn eval_mode_uses_running_statistics() {
        let mut rng = SeededRng::new(3);
        let mut bn = BatchNorm2d::new(2);
        // Train on shifted data so running stats move.
        for _ in 0..50 {
            let x = Tensor::randn(&[8, 2, 4, 4], &mut rng).map(|v| v + 5.0);
            bn.forward(&x);
        }
        bn.set_training(false);
        // A single eval sample at the training distribution lands near 0.
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng).map(|v| v + 5.0);
        let y = bn.forward(&x);
        assert!(y.mean().abs() < 0.5, "eval-mode mean {}", y.mean());
        // Eval output differs from train-mode output on the same input
        // whenever the batch stats differ from the running stats.
        bn.set_training(true);
        let y_train = bn.forward(&x);
        assert_ne!(y, y_train);
    }

    #[test]
    fn input_gradient_check_training_mode() {
        let mut rng = SeededRng::new(4);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let err = gradcheck::input_gradient_error(&mut bn, &x);
        assert!(err < 2e-2, "batchnorm input grad error {err}");
    }

    #[test]
    fn param_gradient_check() {
        let mut rng = SeededRng::new(5);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let err = gradcheck::param_gradient_error(&mut bn, &x);
        assert!(err < 2e-2, "batchnorm param grad error {err}");
    }

    #[test]
    fn param_names_exclude_conductance_domain() {
        let bn = BatchNorm2d::new(4);
        let names: Vec<_> = bn.params().into_iter().map(|(name, _)| name).collect();
        // Fault injectors only touch keys ending in `weight`.
        assert_eq!(names, ["gamma", "beta"]);
    }

    #[test]
    #[should_panic(expected = "channels")]
    fn rejects_wrong_channel_count() {
        BatchNorm2d::new(3).forward(&Tensor::zeros(&[1, 2, 4, 4]));
    }
}
