//! Fully-connected (dense) layer.

use super::{DigitalEngine, Layer, MatmulEngine, MatmulOrientation, ParamName};
use crate::init::Init;
use healthmon_tensor::{SeededRng, Tensor};

/// A fully-connected layer: `y = x · W + b`.
///
/// Input shape `[N, in_features]`, output `[N, out_features]`; weights are
/// stored `[in_features, out_features]` so the forward pass is a single
/// matmul.
///
/// # Example
///
/// ```
/// use healthmon_nn::layers::{Dense, Layer};
/// use healthmon_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let mut layer = Dense::new(3, 2, &mut rng);
/// let y = layer.forward(&Tensor::zeros(&[4, 3]));
/// assert_eq!(y.shape(), &[4, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-normal weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SeededRng) -> Self {
        Self::with_init(in_features, out_features, Init::HeNormal, rng)
    }

    /// Creates a dense layer with an explicit weight initialization scheme.
    pub fn with_init(
        in_features: usize,
        out_features: usize,
        init: Init,
        rng: &mut SeededRng,
    ) -> Self {
        Dense {
            in_features,
            out_features,
            weight: init.sample(&[in_features, out_features], in_features, out_features, rng),
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[in_features, out_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight matrix (`[in_features, out_features]`).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.cached_input = Some(input.clone());
        self.infer(input, "", &DigitalEngine)
    }

    fn infer(&self, input: &Tensor, key_prefix: &str, engine: &dyn MatmulEngine) -> Tensor {
        assert_eq!(input.ndim(), 2, "dense expects [N, features] input, got {:?}", input.shape());
        assert_eq!(
            input.shape()[1],
            self.in_features,
            "dense expects {} input features, got {}",
            self.in_features,
            input.shape()[1]
        );
        let mut out = engine.matmul_xw(&format!("{key_prefix}.weight"), input, &self.weight);
        let n = out.shape()[0];
        let f = self.out_features;
        let bias = self.bias.as_slice();
        let data = out.as_mut_slice();
        for row in 0..n {
            for (j, &b) in bias.iter().enumerate() {
                data[row * f + j] += b;
            }
        }
        out
    }

    fn matmuls(&self) -> Vec<(&'static str, MatmulOrientation)> {
        vec![("weight", MatmulOrientation::XW)]
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("dense backward called before forward");
        assert_eq!(grad_out.shape(), &[input.shape()[0], self.out_features]);
        // dW = X^T G, db = column sums of G, dX = G W^T
        self.grad_weight += &input.matmul_at(grad_out);
        let n = grad_out.shape()[0];
        let f = self.out_features;
        let g = grad_out.as_slice();
        let gb = self.grad_bias.as_mut_slice();
        for row in 0..n {
            for (j, gb_j) in gb.iter_mut().enumerate() {
                *gb_j += g[row * f + j];
            }
        }
        grad_out.matmul_bt(&self.weight)
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
    use crate::layers::gradcheck;

    #[test]
    fn forward_matches_manual() {
        let mut rng = SeededRng::new(0);
        let mut layer = Dense::new(2, 2, &mut rng);
        // Overwrite with known weights.
        layer.weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        layer.bias = Tensor::from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = layer.forward(&x);
        // [1,1]·[[1,2],[3,4]] + [0.5,-0.5] = [4.5, 5.5]
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn input_gradient_check() {
        let mut rng = SeededRng::new(1);
        let mut layer = Dense::new(5, 4, &mut rng);
        let x = Tensor::randn(&[3, 5], &mut rng);
        let err = gradcheck::input_gradient_error(&mut layer, &x);
        assert!(err < 1e-2, "input gradient error {err}");
    }

    #[test]
    fn param_gradient_check() {
        let mut rng = SeededRng::new(2);
        let mut layer = Dense::new(4, 3, &mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let err = gradcheck::param_gradient_error(&mut layer, &x);
        assert!(err < 1e-2, "param gradient error {err}");
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = SeededRng::new(3);
        let mut layer = Dense::new(2, 2, &mut rng);
        let x = Tensor::randn(&[1, 2], &mut rng);
        let g = Tensor::ones(&[1, 2]);
        layer.forward(&x);
        layer.backward(&g);
        let g1 = layer.params_mut()[0].2.clone();
        layer.forward(&x);
        layer.backward(&g);
        let g2 = layer.params_mut()[0].2.clone();
        for (a, b) in g1.as_slice().iter().zip(g2.as_slice()) {
            assert!((2.0 * a - b).abs() < 1e-5, "grads should accumulate: {a} vs {b}");
        }
        layer.zero_grads();
        assert!(layer.params_mut()[0].2.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn rejects_wrong_feature_count() {
        let mut rng = SeededRng::new(4);
        let mut layer = Dense::new(3, 2, &mut rng);
        layer.forward(&Tensor::zeros(&[1, 4]));
    }
}
