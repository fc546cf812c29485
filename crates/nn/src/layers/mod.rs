//! Network layers.
//!
//! Each layer implements [`Layer`]: a `forward` pass that caches whatever
//! the matching `backward` pass needs, and `backward` both accumulates
//! parameter gradients *and* returns the gradient with respect to the
//! layer input. Input gradients flow all the way back to the image, which
//! is what O-TP pattern optimization and FGSM adversarial generation
//! require.

mod activation;
mod attention;
mod batchnorm;
mod conv;
mod dense;
mod dropout;
mod flatten;
mod pool;
mod residual;

pub use activation::{Relu, Sigmoid, Tanh};
pub use attention::SelfAttention;
pub use batchnorm::BatchNorm2d;
pub use conv::{Conv2d, PatchMap};
pub use dense::Dense;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use pool::{AvgPool2d, MaxPool2d};
pub use residual::ResidualConv2d;

use healthmon_tensor::Tensor;
use std::fmt;

/// Which side of the matmul a layer's weight matrix sits on.
///
/// Execution backends need this to know how a layer's weight matrix meets
/// its activations: a [`Dense`] computes `y = x · W` ([`MatmulOrientation::XW`],
/// activations on the left), while a [`Conv2d`] computes `y = W · col(x)`
/// ([`MatmulOrientation::WX`], weights on the left). A crossbar that
/// programs the weight matrix once must transpose one of the two cases to
/// drive its rows with activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulOrientation {
    /// Activations × weights (`y = x · W`), as in [`Dense`].
    XW,
    /// Weights × activations (`y = W · col(x)`), as in [`Conv2d`].
    WX,
}

/// Executes the weight-matrix multiplications of an inference pass.
///
/// [`crate::Network::infer_with`] threads an engine through every layer's
/// [`Layer::infer`]; weight-bearing layers route their matmul through it
/// (identified by the state-dict `key` of the weight, e.g.
/// `"layer0.weight"`) while biases, activations, pooling and reshapes stay
/// digital. [`DigitalEngine`] reproduces the plain [`Layer::forward`]
/// arithmetic bit-for-bit; analog engines substitute conductance-mapped
/// crossbar matmuls for the same contraction.
pub trait MatmulEngine {
    /// Computes `x · w` for an [`MatmulOrientation::XW`] layer
    /// (`x: [N, in]`, `w: [in, out]`).
    fn matmul_xw(&self, key: &str, x: &Tensor, w: &Tensor) -> Tensor;

    /// Computes `w · x` for an [`MatmulOrientation::WX`] layer
    /// (`w: [F, K]`, `x: [K, cols]`).
    fn matmul_wx(&self, key: &str, w: &Tensor, x: &Tensor) -> Tensor;

    /// Computes `w · col(x)` for a convolution: `x` is the layer's
    /// `[N, C, H, W]` input and `patches` its im2col geometry, so `col(x)`
    /// is the `[C·K·K, N·OH·OW]` patch matrix and the result is
    /// `[F, N·OH·OW]`.
    ///
    /// The default unfolds `x` (padding reads 0.0) and calls
    /// [`MatmulEngine::matmul_wx`]. An engine that does better with the
    /// input itself overrides it: a crossbar converts each input pixel
    /// once instead of every patch element that repeats it.
    fn matmul_patches(&self, key: &str, w: &Tensor, x: &Tensor, patches: &PatchMap) -> Tensor {
        self.matmul_wx(key, w, &patches.unfold(x))
    }
}

/// The reference [`MatmulEngine`]: plain digital [`Tensor::matmul`].
///
/// Bit-identical to the layers' own `forward` arithmetic at any thread
/// count — it calls the very same GEMM the training path uses. A
/// convolution's product runs block by block over its unfolded patches
/// ([`PatchMap::matmul`]) instead of over the whole patch matrix, with the
/// same bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct DigitalEngine;

impl MatmulEngine for DigitalEngine {
    fn matmul_xw(&self, _key: &str, x: &Tensor, w: &Tensor) -> Tensor {
        x.matmul(w)
    }

    fn matmul_wx(&self, _key: &str, w: &Tensor, x: &Tensor) -> Tensor {
        w.matmul(x)
    }

    fn matmul_patches(&self, _key: &str, w: &Tensor, x: &Tensor, patches: &PatchMap) -> Tensor {
        patches.matmul(w, x)
    }
}

/// A differentiable network layer.
///
/// Layers are stateful: `forward` caches activations, `backward` consumes
/// them. A `forward` must precede each `backward` with the same batch.
///
/// The trait is object-safe; networks store `Box<dyn Layer>` so
/// heterogeneous stacks (conv → pool → dense) compose freely.
pub trait Layer: fmt::Debug + Send + Sync {
    /// Short human-readable layer kind, e.g. `"dense"` or `"conv2d"`.
    fn name(&self) -> &'static str;

    /// Computes the layer output for a batch, caching anything `backward`
    /// will need.
    ///
    /// # Panics
    ///
    /// Implementations panic if the input shape is incompatible with the
    /// layer configuration.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Propagates `grad_out` (gradient of the loss w.r.t. this layer's
    /// output) backwards: accumulates parameter gradients and returns the
    /// gradient w.r.t. the layer input.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before `forward`, or if `grad_out`
    /// does not match the cached forward shape.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Inference-mode forward pass through `&self`: no activation caching,
    /// no training-only behaviour (dropout passes through, batch-norm uses
    /// running statistics), with every weight matmul routed through
    /// `engine` under the key `{key_prefix}.weight`.
    ///
    /// With [`DigitalEngine`] the result is bit-identical to
    /// [`Layer::forward`] in evaluation mode.
    ///
    /// # Panics
    ///
    /// Implementations panic if the input shape is incompatible with the
    /// layer configuration.
    fn infer(&self, input: &Tensor, key_prefix: &str, engine: &dyn MatmulEngine) -> Tensor;

    /// How this layer's weight matrix meets its activations, or `None` for
    /// layers without a conductance-mappable weight matmul.
    fn matmul_orientation(&self) -> Option<MatmulOrientation> {
        None
    }

    /// Every conductance-mappable weight matmul this layer performs, as
    /// `(param name, orientation)` pairs. The param name is relative to the
    /// layer (e.g. `"weight"`, or `"conv1.weight"` for composite layers)
    /// and must match an entry of [`Layer::param_names`]; crossbar backends
    /// program one mapped matrix per pair under the state-dict key
    /// `layer{i}.{name}`.
    ///
    /// The default derives a single `"weight"` entry from
    /// [`Layer::matmul_orientation`], so existing one-weight layers need no
    /// override; multi-matmul layers (residual blocks, attention) override
    /// this directly.
    fn matmuls(&self) -> Vec<(&'static str, MatmulOrientation)> {
        self.matmul_orientation().map(|o| vec![("weight", o)]).unwrap_or_default()
    }

    /// Immutable views of the layer's trainable parameter tensors, in a
    /// stable order. Empty for parameter-free layers.
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Mutable views of the trainable parameters, same order as
    /// [`Layer::params`]. Fault injectors use this to perturb weights.
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// Stable names for the parameters, same order as [`Layer::params`]
    /// (e.g. `["weight", "bias"]`). Used to build state-dict keys.
    fn param_names(&self) -> Vec<&'static str> {
        Vec::new()
    }

    /// Mutable (parameter, gradient) pairs, same order as
    /// [`Layer::params`]. Optimizers consume this.
    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        Vec::new()
    }

    /// Resets all accumulated parameter gradients to zero.
    fn zero_grads(&mut self) {}

    /// Switches training-only behaviour (e.g. dropout) on or off.
    /// Inference-only layers ignore this.
    fn set_training(&mut self, _on: bool) {}

    /// Clones the layer into a box. Needed because `Clone` is not
    /// object-safe; fault campaigns clone whole networks per fault model.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking shared by layer tests.

    use super::Layer;
    use healthmon_tensor::Tensor;

    /// Max relative error between analytic and numeric input gradients.
    pub fn input_gradient_error(layer: &mut dyn Layer, input: &Tensor) -> f32 {
        // Scalar loss L = sum(forward(x)) so dL/dy = ones.
        let out = layer.forward(input);
        let grad_out = Tensor::ones(out.shape());
        let analytic = layer.backward(&grad_out);

        let eps = 1e-2f32;
        let mut max_err = 0.0f32;
        for i in 0..input.len() {
            let mut xp = input.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = input.clone();
            xm.as_mut_slice()[i] -= eps;
            let fp = layer.forward(&xp).sum();
            let fm = layer.forward(&xm).sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let a = analytic.as_slice()[i];
            let denom = 1.0f32.max(a.abs()).max(numeric.abs());
            max_err = max_err.max((a - numeric).abs() / denom);
        }
        max_err
    }

    /// Max relative error between analytic and numeric parameter gradients.
    pub fn param_gradient_error(layer: &mut dyn Layer, input: &Tensor) -> f32 {
        let out = layer.forward(input);
        let grad_out = Tensor::ones(out.shape());
        layer.zero_grads();
        layer.backward(&grad_out);
        let analytic: Vec<Tensor> = layer
            .params_and_grads()
            .into_iter()
            .map(|(_, g)| g.clone())
            .collect();

        let eps = 1e-2f32;
        let mut max_err = 0.0f32;
        for (p, analytic_p) in analytic.iter().enumerate() {
            for i in 0..analytic_p.len() {
                let orig = layer.params()[p].as_slice()[i];
                layer.params_mut()[p].as_mut_slice()[i] = orig + eps;
                let fp = layer.forward(input).sum();
                layer.params_mut()[p].as_mut_slice()[i] = orig - eps;
                let fm = layer.forward(input).sum();
                layer.params_mut()[p].as_mut_slice()[i] = orig;
                let numeric = (fp - fm) / (2.0 * eps);
                let a = analytic_p.as_slice()[i];
                let denom = 1.0f32.max(a.abs()).max(numeric.abs());
                max_err = max_err.max((a - numeric).abs() / denom);
            }
        }
        max_err
    }
}
