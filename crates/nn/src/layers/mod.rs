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
use std::borrow::Cow;
use std::fmt;

/// A parameter's name within its layer: `"weight"`, or `"conv1.weight"`
/// for a parameter a composite layer takes from its child `conv1`.
pub type ParamName = Cow<'static, str>;

/// Which side of the matmul a layer's weight matrix sits on, as
/// [`Layer::matmuls`] reports it.
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
/// digital. [`DigitalEngine`] is the plain digital arithmetic, which
/// [`Layer::forward`] runs too; analog engines substitute
/// conductance-mapped crossbar matmuls for the same contraction.
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
/// Layers whose `forward` computes what `infer` does run `infer` through
/// this engine, so the training path and the inference path are one
/// arithmetic at any thread count. A convolution's product runs block by
/// block over its unfolded patches ([`PatchMap::matmul`]) instead of over
/// the whole patch matrix, with the same bits as [`Conv2d`]'s training
/// product.
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
/// Each layer states its parameters once, in [`Layer::params`] and its
/// mutable twin [`Layer::params_mut`], and its arithmetic once: where
/// `forward` computes what `infer` does, it keeps only what `backward`
/// needs and calls `infer` through [`DigitalEngine`].
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

    /// Every conductance-mappable weight matmul this layer performs, as
    /// `(param name, orientation)` pairs. The param name is relative to the
    /// layer (e.g. `"weight"`, or `"conv1.weight"` for composite layers)
    /// and must name an entry of [`Layer::params`]; crossbar backends
    /// program one mapped matrix per pair under the state-dict key
    /// `layer{i}.{name}`. Empty for layers without one.
    fn matmuls(&self) -> Vec<(&'static str, MatmulOrientation)> {
        Vec::new()
    }

    /// The layer's trainable parameters as `(name, value)`, listed once in
    /// a stable order. That order is the order of state-dict keys, fault
    /// RNG streams and optimizer state. Names are relative to the layer
    /// (e.g. `"weight"`, `"bias"`, or `"conv1.weight"` inside a composite
    /// layer). Empty for parameter-free layers.
    fn params(&self) -> Vec<(ParamName, &Tensor)> {
        Vec::new()
    }

    /// The parameters of [`Layer::params`], same names and order, as
    /// `(name, value, gradient)` with the gradient `backward` accumulates.
    /// Fault injectors perturb the values; optimizers step them.
    fn params_mut(&mut self) -> Vec<(ParamName, &mut Tensor, &mut Tensor)> {
        Vec::new()
    }

    /// Resets every gradient [`Layer::params_mut`] yields to zero.
    fn zero_grads(&mut self) {
        for (_, _, grad) in self.params_mut() {
            grad.as_mut_slice().fill(0.0);
        }
    }

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
        let analytic: Vec<Tensor> =
            layer.params_mut().into_iter().map(|(_, _, g)| g.clone()).collect();

        let eps = 1e-2f32;
        let mut max_err = 0.0f32;
        for (p, analytic_p) in analytic.iter().enumerate() {
            for i in 0..analytic_p.len() {
                let orig = layer.params()[p].1.as_slice()[i];
                layer.params_mut()[p].1.as_mut_slice()[i] = orig + eps;
                let fp = layer.forward(input).sum();
                layer.params_mut()[p].1.as_mut_slice()[i] = orig - eps;
                let fm = layer.forward(input).sum();
                layer.params_mut()[p].1.as_mut_slice()[i] = orig;
                let numeric = (fp - fm) / (2.0 * eps);
                let a = analytic_p.as_slice()[i];
                let denom = 1.0f32.max(a.abs()).max(numeric.abs());
                max_err = max_err.max((a - numeric).abs() / denom);
            }
        }
        max_err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use healthmon_tensor::SeededRng;

    /// One layer of every type.
    fn every_layer() -> Vec<Box<dyn Layer>> {
        let rng = &mut SeededRng::new(1);
        vec![
            Box::new(Dense::new(3, 2, rng)),
            Box::new(Conv2d::new(2, 3, 3, 1, 1, rng)),
            Box::new(ResidualConv2d::new(2, rng)),
            Box::new(SelfAttention::new(4, rng)),
            Box::new(BatchNorm2d::new(2)),
            Box::new(Relu::new()),
            Box::new(Tanh::new()),
            Box::new(Sigmoid::new()),
            Box::new(Flatten::new()),
            Box::new(Dropout::new(0.5, rng)),
            Box::new(MaxPool2d::new(2, 2)),
            Box::new(AvgPool2d::new(2, 2)),
        ]
    }

    /// `params` and `params_mut` are one list: the same names, in the same
    /// order, over the same tensors, each with a gradient of its shape;
    /// every matmul names one of them, and `zero_grads` clears them all.
    #[test]
    fn both_parameter_views_list_the_same_parameters() {
        for mut layer in every_layer() {
            let what = layer.name();
            let view: Vec<(String, *const f32)> = layer
                .params()
                .into_iter()
                .map(|(name, t)| (name.into_owned(), t.as_slice().as_ptr()))
                .collect();
            let mut view_mut = Vec::new();
            for (name, value, grad) in layer.params_mut() {
                assert_eq!(grad.shape(), value.shape(), "{what} {name}");
                grad.as_mut_slice().fill(1.0);
                view_mut.push((name.into_owned(), value.as_slice().as_ptr()));
            }
            assert_eq!(view, view_mut, "{what}");
            for (name, _) in layer.matmuls() {
                assert!(view.iter().any(|(n, _)| n == name), "{what} matmul {name}");
            }
            layer.zero_grads();
            for (name, _, grad) in layer.params_mut() {
                assert!(grad.as_slice().iter().all(|&g| g == 0.0), "{what} {name}");
            }
        }
    }
}
