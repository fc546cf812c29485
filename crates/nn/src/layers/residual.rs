//! Residual convolution block with an identity skip connection.

use super::{Conv2d, Layer, MatmulEngine, MatmulOrientation, ParamName, Relu};
use healthmon_tensor::{SeededRng, Tensor};

/// A basic pre-classifier residual block: `y = relu(conv2(relu(conv1(x))) + x)`.
///
/// Both convolutions are `3×3`, stride 1, padding 1 over the same channel
/// count, so the block preserves the input shape `[N, C, H, W]` and the
/// skip connection is a pure identity — no projection shortcut. The block
/// is a *composite* layer: it owns two [`Conv2d`] children and exposes
/// their parameters under compound names (`conv1.weight`, `conv1.bias`,
/// `conv2.weight`, `conv2.bias`), so state dicts, fault injection, and
/// crossbar mapping see two ordinary conductance-mappable weight matrices
/// via [`Layer::matmuls`].
#[derive(Debug, Clone)]
pub struct ResidualConv2d {
    conv1: Conv2d,
    relu_mid: Relu,
    conv2: Conv2d,
    relu_out: Relu,
}

impl ResidualConv2d {
    /// Creates a residual block over `channels` feature maps.
    pub fn new(channels: usize, rng: &mut SeededRng) -> Self {
        ResidualConv2d {
            conv1: Conv2d::new(channels, channels, 3, 1, 1, rng),
            relu_mid: Relu::new(),
            conv2: Conv2d::new(channels, channels, 3, 1, 1, rng),
            relu_out: Relu::new(),
        }
    }
}

/// The name of a child's parameter within the block, e.g. `conv1.weight`.
fn child(prefix: &str, name: &str) -> ParamName {
    format!("{prefix}.{name}").into()
}

impl Layer for ResidualConv2d {
    fn name(&self) -> &'static str {
        "residual_conv2d"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        let a = self.conv1.forward(input);
        let b = self.relu_mid.forward(&a);
        let c = self.conv2.forward(&b);
        self.relu_out.forward(&c.add(input))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g_sum = self.relu_out.backward(grad_out);
        let g_mid = self.conv2.backward(&g_sum);
        let g_a = self.relu_mid.backward(&g_mid);
        // The skip contributes the post-activation gradient directly.
        self.conv1.backward(&g_a).add(&g_sum)
    }

    fn infer(&self, input: &Tensor, key_prefix: &str, engine: &dyn MatmulEngine) -> Tensor {
        let a = self.conv1.infer(input, &format!("{key_prefix}.conv1"), engine);
        let b = self.relu_mid.infer(&a, key_prefix, engine);
        let c = self.conv2.infer(&b, &format!("{key_prefix}.conv2"), engine);
        self.relu_out.infer(&c.add(input), key_prefix, engine)
    }

    fn matmuls(&self) -> Vec<(&'static str, MatmulOrientation)> {
        vec![
            ("conv1.weight", MatmulOrientation::WX),
            ("conv2.weight", MatmulOrientation::WX),
        ]
    }

    fn params(&self) -> Vec<(ParamName, &Tensor)> {
        let conv1 = self.conv1.params().into_iter().map(|(name, p)| (child("conv1", &name), p));
        let conv2 = self.conv2.params().into_iter().map(|(name, p)| (child("conv2", &name), p));
        conv1.chain(conv2).collect()
    }

    fn params_mut(&mut self) -> Vec<(ParamName, &mut Tensor, &mut Tensor)> {
        let conv1 = self.conv1.params_mut().into_iter();
        let conv2 = self.conv2.params_mut().into_iter();
        conv1
            .map(|(name, p, g)| (child("conv1", &name), p, g))
            .chain(conv2.map(|(name, p, g)| (child("conv2", &name), p, g)))
            .collect()
    }

    fn set_training(&mut self, on: bool) {
        self.conv1.set_training(on);
        self.conv2.set_training(on);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use crate::layers::DigitalEngine;

    #[test]
    fn preserves_shape_and_skips_identity_at_zero_weights() {
        let mut rng = SeededRng::new(3);
        let mut block = ResidualConv2d::new(2, &mut rng);
        // Zero both convolutions: the block degenerates to relu(x).
        for (_, p, _) in block.params_mut() {
            p.map_inplace(|_| 0.0);
        }
        let x = Tensor::randn(&[2, 2, 4, 4], &mut rng);
        let y = block.forward(&x);
        assert_eq!(y.shape(), x.shape());
        assert_eq!(y, x.map(|v| v.max(0.0)));
    }

    #[test]
    fn input_gradients_check() {
        let mut rng = SeededRng::new(11);
        let mut block = ResidualConv2d::new(2, &mut rng);
        let x = Tensor::randn(&[2, 2, 4, 4], &mut rng).map(|v| v * 0.5);
        assert!(gradcheck::input_gradient_error(&mut block, &x) < 1e-2);
    }

    #[test]
    fn param_gradients_check() {
        let mut rng = SeededRng::new(12);
        let mut block = ResidualConv2d::new(2, &mut rng);
        // Keep every relu pre-activation strictly positive (small weights,
        // positive biases, positive inputs) so the finite-difference probe
        // never steps across a relu kink — the check is then exact and any
        // failure is a real plumbing bug, not quantization of the gate.
        for (i, (_, p, _)) in block.params_mut().into_iter().enumerate() {
            if i % 2 == 0 {
                p.map_inplace(|v| v * 0.1);
            } else {
                p.map_inplace(|_| 0.5);
            }
        }
        let x = Tensor::rand_uniform(&[2, 2, 4, 4], 0.1, 0.9, &mut rng);
        assert!(gradcheck::param_gradient_error(&mut block, &x) < 1e-2);
    }

    #[test]
    fn infer_matches_forward_with_digital_engine() {
        let mut rng = SeededRng::new(13);
        let mut block = ResidualConv2d::new(3, &mut rng);
        let x = Tensor::randn(&[2, 3, 5, 5], &mut rng);
        let trained = block.forward(&x);
        let inferred = block.infer(&x, "layer0", &DigitalEngine);
        assert_eq!(trained, inferred);
    }

    #[test]
    fn exposes_two_mappable_matmuls() {
        let mut rng = SeededRng::new(1);
        let block = ResidualConv2d::new(2, &mut rng);
        assert_eq!(
            block.matmuls(),
            vec![
                ("conv1.weight", MatmulOrientation::WX),
                ("conv2.weight", MatmulOrientation::WX)
            ]
        );
        let names: Vec<_> = block.params().into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["conv1.weight", "conv1.bias", "conv2.weight", "conv2.bias"]);
    }
}
