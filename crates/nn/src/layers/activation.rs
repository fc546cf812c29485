//! Element-wise activation layers.

use super::{DigitalEngine, Layer, MatmulEngine};
use healthmon_tensor::Tensor;

/// Rectified linear unit: `y = max(0, x)`.
///
/// The default activation for every model factory in this crate.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.cached_input = Some(input.clone());
        self.infer(input, "", &DigitalEngine)
    }

    fn infer(&self, input: &Tensor, _key_prefix: &str, _engine: &dyn MatmulEngine) -> Tensor {
        input.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("relu backward before forward");
        input.zip_map(grad_out, |x, g| if x > 0.0 { g } else { 0.0 })
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Hyperbolic tangent activation, as in the original LeNet-5.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Tanh::default()
    }
}

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "tanh"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input, "", &DigitalEngine);
        self.cached_output = Some(out.clone());
        out
    }

    fn infer(&self, input: &Tensor, _key_prefix: &str, _engine: &dyn MatmulEngine) -> Tensor {
        input.map(f32::tanh)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self.cached_output.as_ref().expect("tanh backward before forward");
        y.zip_map(grad_out, |y, g| g * (1.0 - y * y))
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Logistic sigmoid activation.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid::default()
    }
}

impl Layer for Sigmoid {
    fn name(&self) -> &'static str {
        "sigmoid"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input, "", &DigitalEngine);
        self.cached_output = Some(out.clone());
        out
    }

    fn infer(&self, input: &Tensor, _key_prefix: &str, _engine: &dyn MatmulEngine) -> Tensor {
        input.map(|v| 1.0 / (1.0 + (-v).exp()))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self.cached_output.as_ref().expect("sigmoid backward before forward");
        y.zip_map(grad_out, |y, g| g * y * (1.0 - y))
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
    fn relu_forward() {
        let mut l = Relu::new();
        let y = l.forward(&Tensor::from_slice(&[-1.0, 0.0, 2.0]));
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let mut l = Relu::new();
        l.forward(&Tensor::from_slice(&[-1.0, 0.5, 2.0]));
        let g = l.backward(&Tensor::from_slice(&[10.0, 10.0, 10.0]));
        assert_eq!(g.as_slice(), &[0.0, 10.0, 10.0]);
    }

    #[test]
    fn tanh_matches_std() {
        let mut l = Tanh::new();
        let y = l.forward(&Tensor::from_slice(&[0.5]));
        assert!((y.as_slice()[0] - 0.5f32.tanh()).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let mut l = Sigmoid::new();
        let y = l.forward(&Tensor::from_slice(&[-10.0, 0.0, 10.0]));
        assert!(y.as_slice()[0] < 0.001);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(y.as_slice()[2] > 0.999);
    }

    #[test]
    fn gradient_checks() {
        let mut rng = SeededRng::new(5);
        // Keep inputs away from ReLU's kink where finite differences lie.
        let x = Tensor::randn(&[4, 6], &mut rng).map(|v| if v.abs() < 0.2 { v + 0.5 } else { v });
        for layer in [
            Box::new(Relu::new()) as Box<dyn Layer>,
            Box::new(Tanh::new()),
            Box::new(Sigmoid::new()),
        ] {
            let mut layer = layer;
            let err = gradcheck::input_gradient_error(layer.as_mut(), &x);
            assert!(err < 2e-2, "{} gradient error {err}", layer.name());
        }
    }

    #[test]
    fn activations_have_no_params() {
        let l = Relu::new();
        assert!(l.params().is_empty());
    }
}
