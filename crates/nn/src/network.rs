//! The [`Network`]: an ordered stack of layers with whole-model forward,
//! backward, parameter access and (de)serialization.

use crate::layers::{DigitalEngine, Layer, MatmulEngine};
use healthmon_serdes::{FromJson, Json, JsonError, ToJson};
use healthmon_tensor::Tensor;
use std::error::Error;
use std::fmt;
use std::path::Path;

/// A feed-forward network: an ordered stack of [`Layer`]s.
///
/// `Network` is the object every other crate in the workspace manipulates:
/// trainers optimize it, fault injectors perturb its weights through
/// [`Network::for_each_param_mut`], the crossbar simulator re-maps its
/// weights, and the test-pattern generators differentiate through it back
/// to the input via [`Network::backward`].
///
/// Cloning a network clones all weights; fault campaigns clone the golden
/// model once per fault model.
#[derive(Debug, Clone)]
pub struct Network {
    input_shape: Vec<usize>,
    layers: Vec<Box<dyn Layer>>,
}

/// Summary statistics over all trainable parameters of a network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamStats {
    /// Total number of scalar parameters.
    pub count: usize,
    /// Mean parameter value.
    pub mean: f32,
    /// Population standard deviation of parameter values.
    pub std: f32,
    /// L2 norm of the full parameter vector.
    pub l2: f32,
}

/// Error loading network weights from a state dict or file.
#[derive(Debug)]
pub enum LoadStateError {
    /// Reading the file failed.
    Io(std::io::Error),
    /// The file was not valid JSON of the expected schema.
    Json(JsonError),
    /// A parameter key in the dict does not exist in the network (or a
    /// network parameter is missing from the dict).
    KeyMismatch(String),
    /// A parameter tensor has the wrong shape.
    ShapeMismatch {
        /// Offending parameter key.
        key: String,
        /// Shape in the network.
        expected: Vec<usize>,
        /// Shape in the dict.
        actual: Vec<usize>,
    },
}

impl fmt::Display for LoadStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadStateError::Io(e) => write!(f, "i/o error loading weights: {e}"),
            LoadStateError::Json(e) => write!(f, "malformed weight file: {e}"),
            LoadStateError::KeyMismatch(k) => write!(f, "parameter key mismatch at `{k}`"),
            LoadStateError::ShapeMismatch { key, expected, actual } => {
                write!(f, "parameter `{key}` has shape {actual:?}, expected {expected:?}")
            }
        }
    }
}

impl Error for LoadStateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LoadStateError::Io(e) => Some(e),
            LoadStateError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LoadStateError {
    fn from(e: std::io::Error) -> Self {
        LoadStateError::Io(e)
    }
}

impl From<JsonError> for LoadStateError {
    fn from(e: JsonError) -> Self {
        LoadStateError::Json(e)
    }
}

/// A layer emitted a non-finite activation during a checked forward pass.
///
/// Produced by [`Network::forward_checked`]; identifies the first layer
/// whose output contained a `NaN` or `±∞` so a failing device can be
/// localized instead of silently poisoning every downstream statistic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonFiniteActivation {
    /// Index of the first offending layer (`usize::MAX` when the *input*
    /// itself was non-finite).
    pub layer: usize,
}

impl fmt::Display for NonFiniteActivation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.layer == usize::MAX {
            write!(f, "network input contains non-finite values")
        } else {
            write!(f, "layer {} produced non-finite activations", self.layer)
        }
    }
}

impl Error for NonFiniteActivation {}

/// Why an unchecked [`walk`] cannot fail.
const UNCHECKED: &str = "an unchecked walk reports no non-finite layer";

/// The one layer walk behind every forward and inference entry point:
/// `step(i, x)` maps the previous output `x` through layer `i` of `depth`.
/// With `checked`, the walk stops at the first non-finite output
/// (`layer == usize::MAX` for the input itself).
///
/// # Panics
///
/// Panics if the input shape does not match `[N, ...input_shape]`.
fn walk(
    input_shape: &[usize],
    input: &Tensor,
    checked: bool,
    depth: usize,
    mut step: impl FnMut(usize, &Tensor) -> Tensor,
) -> Result<Tensor, NonFiniteActivation> {
    assert!(
        input.ndim() == input_shape.len() + 1 && input.shape()[1..] == input_shape[..],
        "network expects [N, {input_shape:?}] input, got {:?}",
        input.shape()
    );
    if checked && !input.all_finite() {
        return Err(NonFiniteActivation { layer: usize::MAX });
    }
    let mut x = input.clone();
    for i in 0..depth {
        x = step(i, &x);
        if checked && !x.all_finite() {
            return Err(NonFiniteActivation { layer: i });
        }
    }
    Ok(x)
}

impl Network {
    /// Creates an empty network expecting per-sample inputs of
    /// `input_shape` (batch dimension excluded), e.g. `[1, 28, 28]`.
    ///
    /// # Panics
    ///
    /// Panics if `input_shape` is empty.
    pub fn new(input_shape: Vec<usize>) -> Self {
        assert!(!input_shape.is_empty(), "input shape must be non-empty");
        Network { input_shape, layers: Vec::new() }
    }

    /// Appends a layer to the stack.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Per-sample input shape (without the batch dimension).
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Immutable access to the layer stack.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Forward pass over a batch `[N, ...input_shape]`, returning logits.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match `[N, ...input_shape]`.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let depth = self.layers.len();
        walk(&self.input_shape, input, false, depth, |i, x| self.layers[i].forward(x))
            .expect(UNCHECKED)
    }

    /// Forward pass that checks every layer output for non-finite values.
    ///
    /// A fault-injected (or genuinely failing) device can drive weights to
    /// `NaN`/`±∞`; once that happens the plain [`Network::forward`] output
    /// poisons every comparison made with it (`NaN >= t` is always false).
    /// This variant stops at the first offending layer so callers can
    /// contain the failure and escalate deterministically.
    ///
    /// # Errors
    ///
    /// Returns [`NonFiniteActivation`] naming the first layer whose output
    /// was non-finite (`layer == usize::MAX` means the input itself).
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match `[N, ...input_shape]`.
    pub fn forward_checked(&mut self, input: &Tensor) -> Result<Tensor, NonFiniteActivation> {
        let depth = self.layers.len();
        walk(&self.input_shape, input, true, depth, |i, x| self.layers[i].forward(x))
    }

    /// Inference pass through `&self`: evaluation-mode forward with no
    /// activation caching, bit-identical to
    /// `set_training(false); forward(input)`.
    ///
    /// This is the read-only entry point the detection stack uses: the
    /// network is never mutated, so golden models and device-under-test
    /// references can be shared without cloning for the borrow checker.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match `[N, ...input_shape]`.
    pub fn infer(&self, input: &Tensor) -> Tensor {
        self.infer_with(input, &DigitalEngine)
    }

    /// Inference pass with every weight matmul routed through `engine`.
    ///
    /// Layers are keyed `layer{idx}` (so a Dense at stack index 3 asks the
    /// engine for `layer3.weight`), matching [`Network::state_dict`] keys.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match `[N, ...input_shape]`.
    pub fn infer_with(&self, input: &Tensor, engine: &dyn MatmulEngine) -> Tensor {
        self.infer_walk(input, engine, false).expect(UNCHECKED)
    }

    /// [`Network::infer`] with per-layer non-finite checking, mirroring
    /// [`Network::forward_checked`].
    ///
    /// # Errors
    ///
    /// Returns [`NonFiniteActivation`] naming the first layer whose output
    /// was non-finite (`layer == usize::MAX` means the input itself).
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match `[N, ...input_shape]`.
    pub fn infer_checked(&self, input: &Tensor) -> Result<Tensor, NonFiniteActivation> {
        self.infer_checked_with(input, &DigitalEngine)
    }

    /// [`Network::infer_with`] with per-layer non-finite checking.
    ///
    /// # Errors
    ///
    /// Returns [`NonFiniteActivation`] naming the first layer whose output
    /// was non-finite (`layer == usize::MAX` means the input itself).
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match `[N, ...input_shape]`.
    pub fn infer_checked_with(
        &self,
        input: &Tensor,
        engine: &dyn MatmulEngine,
    ) -> Result<Tensor, NonFiniteActivation> {
        self.infer_walk(input, engine, true)
    }

    /// The inference [`walk`] behind [`Network::infer_with`] and
    /// [`Network::infer_checked_with`].
    fn infer_walk(
        &self,
        input: &Tensor,
        engine: &dyn MatmulEngine,
        checked: bool,
    ) -> Result<Tensor, NonFiniteActivation> {
        walk(&self.input_shape, input, checked, self.layers.len(), |i, x| {
            self.layers[i].infer(x, &format!("layer{i}"), engine)
        })
    }

    /// Forward pass for a single sample of shape `input_shape`; returns a
    /// 1-D logit vector.
    ///
    /// # Panics
    ///
    /// Panics if the sample shape does not match `input_shape`.
    pub fn forward_single(&mut self, sample: &Tensor) -> Tensor {
        assert_eq!(
            sample.shape(),
            &self.input_shape[..],
            "sample shape {:?} != network input shape {:?}",
            sample.shape(),
            self.input_shape
        );
        let mut batch_shape = vec![1usize];
        batch_shape.extend_from_slice(&self.input_shape);
        let batched = sample.reshape(&batch_shape).expect("adding batch dim preserves count");
        let logits = self.forward(&batched);
        let classes = logits.len();
        logits.reshape(&[classes]).expect("single-sample logits flatten")
    }

    /// Backward pass: propagates the loss gradient (w.r.t. the logits of
    /// the *most recent* `forward`) through every layer, accumulating
    /// parameter gradients, and returns the gradient w.r.t. the input.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has been run.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        let mut g = grad_logits.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Resets accumulated gradients in every layer.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Switches training-only behaviour (dropout etc.) on or off.
    pub fn set_training(&mut self, on: bool) {
        for layer in &mut self.layers {
            layer.set_training(on);
        }
    }

    /// Calls `f(key, tensor)` for every trainable parameter, with stable
    /// keys of the form `layer{idx}.{name}` (e.g. `layer0.weight`).
    pub fn for_each_param(&self, mut f: impl FnMut(&str, &Tensor)) {
        for (i, layer) in self.layers.iter().enumerate() {
            for (name, tensor) in layer.params() {
                f(&format!("layer{i}.{name}"), tensor);
            }
        }
    }

    /// Calls `f(key, tensor)` with mutable access to every trainable
    /// parameter. This is the hook the fault injectors use.
    pub fn for_each_param_mut(&mut self, mut f: impl FnMut(&str, &mut Tensor)) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            for (name, tensor, _) in layer.params_mut() {
                f(&format!("layer{i}.{name}"), tensor);
            }
        }
    }

    /// Overwrites every trainable parameter with the corresponding value
    /// from `src`, reusing this network's allocations — the fast path for
    /// campaign scratch networks that re-derive many fault models from one
    /// golden network without cloning each time.
    ///
    /// Only parameters are copied; gradients, activation caches, and layer
    /// modes are untouched (callers typically follow with
    /// [`Network::zero_grads`]).
    ///
    /// # Panics
    ///
    /// Panics if the two networks do not have identical architectures
    /// (layer count, parameter counts, or parameter shapes).
    pub fn copy_params_from(&mut self, src: &Network) {
        assert_eq!(
            self.layers.len(),
            src.layers.len(),
            "copy_params_from: layer count mismatch"
        );
        for (dst_layer, src_layer) in self.layers.iter_mut().zip(&src.layers) {
            let dst_params = dst_layer.params_mut();
            let src_params = src_layer.params();
            assert_eq!(
                dst_params.len(),
                src_params.len(),
                "copy_params_from: parameter count mismatch"
            );
            for ((_, d, _), (_, s)) in dst_params.into_iter().zip(src_params) {
                d.copy_from(s);
            }
        }
    }

    /// Mutable (parameter, gradient) pairs across all layers, in layer
    /// order; consumed by optimizers.
    pub fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .map(|(_, param, grad)| (param, grad))
            .collect()
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        let mut n = 0;
        self.for_each_param(|_, t| n += t.len());
        n
    }

    /// Summary statistics over all parameters.
    pub fn param_stats(&self) -> ParamStats {
        let mut count = 0usize;
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        self.for_each_param(|_, t| {
            count += t.len();
            for &v in t.as_slice() {
                sum += v as f64;
                sum_sq += (v as f64) * (v as f64);
            }
        });
        let mean = if count > 0 { sum / count as f64 } else { 0.0 };
        let var = if count > 0 { (sum_sq / count as f64 - mean * mean).max(0.0) } else { 0.0 };
        ParamStats {
            count,
            mean: mean as f32,
            std: var.sqrt() as f32,
            l2: sum_sq.sqrt() as f32,
        }
    }

    /// Snapshot of all parameters keyed by `layer{idx}.{name}`.
    pub fn state_dict(&self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        self.for_each_param(|k, t| out.push((k.to_owned(), t.clone())));
        out
    }

    /// Loads parameters from a state dict produced by
    /// [`Network::state_dict`] on an identically-structured network.
    ///
    /// # Errors
    ///
    /// Returns [`LoadStateError::KeyMismatch`] if keys differ and
    /// [`LoadStateError::ShapeMismatch`] if a tensor shape differs.
    pub fn load_state_dict(&mut self, dict: &[(String, Tensor)]) -> Result<(), LoadStateError> {
        let mut expected_keys = Vec::new();
        self.for_each_param(|k, _| expected_keys.push(k.to_owned()));
        if expected_keys.len() != dict.len() {
            return Err(LoadStateError::KeyMismatch(format!(
                "expected {} parameters, dict has {}",
                expected_keys.len(),
                dict.len()
            )));
        }
        let mut err: Option<LoadStateError> = None;
        let mut idx = 0usize;
        self.for_each_param_mut(|k, t| {
            if err.is_some() {
                return;
            }
            let (dk, dt) = &dict[idx];
            idx += 1;
            if dk != k {
                err = Some(LoadStateError::KeyMismatch(format!("expected `{k}`, found `{dk}`")));
                return;
            }
            if dt.shape() != t.shape() {
                err = Some(LoadStateError::ShapeMismatch {
                    key: k.to_owned(),
                    expected: t.shape().to_vec(),
                    actual: dt.shape().to_vec(),
                });
                return;
            }
            *t = dt.clone();
        });
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Serializes the state dict as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be written.
    pub fn save_weights(&self, path: impl AsRef<Path>) -> Result<(), LoadStateError> {
        // Same layout the old serde derive produced: a JSON array of
        // [key, tensor] pairs, so weight files from earlier builds load.
        let dict = self.state_dict();
        let json = Json::Array(
            dict.iter()
                .map(|(k, t)| Json::Array(vec![Json::String(k.clone()), t.to_json()]))
                .collect(),
        );
        std::fs::write(path, json.render())?;
        Ok(())
    }

    /// Loads a JSON state dict written by [`Network::save_weights`].
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be read, parsed, or does not
    /// match the network structure.
    pub fn load_weights(&mut self, path: impl AsRef<Path>) -> Result<(), LoadStateError> {
        let json = std::fs::read_to_string(path)?;
        let value = healthmon_serdes::parse(&json)?;
        let dict: Vec<(String, Tensor)> = Vec::from_json(&value)?;
        self.load_state_dict(&dict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use healthmon_tensor::SeededRng;

    fn tiny_net(rng: &mut SeededRng) -> Network {
        let mut net = Network::new(vec![4]);
        net.push(Dense::new(4, 8, rng));
        net.push(Relu::new());
        net.push(Dense::new(8, 3, rng));
        net
    }

    #[test]
    fn forward_shapes() {
        let mut rng = SeededRng::new(1);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[5, 4], &mut rng);
        assert_eq!(net.forward(&x).shape(), &[5, 3]);
        let s = Tensor::randn(&[4], &mut rng);
        assert_eq!(net.forward_single(&s).shape(), &[3]);
    }

    #[test]
    fn forward_single_matches_batch_row() {
        let mut rng = SeededRng::new(2);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[3, 4], &mut rng);
        let batch = net.forward(&x);
        for row in 0..3 {
            let single = net.forward_single(&x.row(row));
            for (a, b) in single.as_slice().iter().zip(batch.row(row).as_slice()) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn param_keys_stable() {
        let mut rng = SeededRng::new(3);
        let net = tiny_net(&mut rng);
        let mut keys = Vec::new();
        net.for_each_param(|k, _| keys.push(k.to_owned()));
        assert_eq!(keys, vec!["layer0.weight", "layer0.bias", "layer2.weight", "layer2.bias"]);
    }

    #[test]
    fn num_params_counts_everything() {
        let mut rng = SeededRng::new(4);
        let net = tiny_net(&mut rng);
        // 4*8 + 8 + 8*3 + 3 = 67
        assert_eq!(net.num_params(), 67);
    }

    #[test]
    fn state_dict_round_trip() {
        let mut rng = SeededRng::new(5);
        let src = tiny_net(&mut rng);
        let mut dst = tiny_net(&mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        dst.load_state_dict(&src.state_dict()).unwrap();
        let mut src = src;
        let a = src.forward(&x);
        let b = dst.forward(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn load_rejects_shape_mismatch() {
        let mut rng = SeededRng::new(6);
        let src = tiny_net(&mut rng);
        let mut other = Network::new(vec![4]);
        other.push(Dense::new(4, 9, &mut rng));
        other.push(Relu::new());
        other.push(Dense::new(9, 3, &mut rng));
        assert!(matches!(
            other.load_state_dict(&src.state_dict()),
            Err(LoadStateError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn save_load_file_round_trip() {
        let mut rng = SeededRng::new(7);
        let src = tiny_net(&mut rng);
        let dir = std::env::temp_dir().join("healthmon_nn_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("weights.json");
        src.save_weights(&path).unwrap();
        let mut dst = tiny_net(&mut rng);
        dst.load_weights(&path).unwrap();
        assert_eq!(src.state_dict(), dst.state_dict());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clone_is_deep() {
        let mut rng = SeededRng::new(8);
        let mut net = tiny_net(&mut rng);
        let mut copy = net.clone();
        copy.for_each_param_mut(|_, t| t.map_inplace(|_| 0.0));
        // Original unchanged.
        let mut nonzero = false;
        net.for_each_param(|_, t| nonzero |= t.as_slice().iter().any(|&v| v != 0.0));
        assert!(nonzero);
        let x = Tensor::randn(&[1, 4], &mut rng);
        assert_ne!(net.forward(&x), copy.forward(&x));
    }

    #[test]
    fn param_stats_consistency() {
        let mut rng = SeededRng::new(9);
        let net = tiny_net(&mut rng);
        let stats = net.param_stats();
        assert_eq!(stats.count, 67);
        assert!(stats.l2 > 0.0);
        assert!(stats.std > 0.0);
    }

    #[test]
    fn input_gradient_flows_to_input() {
        let mut rng = SeededRng::new(10);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let out = net.forward(&x);
        let g = net.backward(&Tensor::ones(out.shape()));
        assert_eq!(g.shape(), x.shape());
        assert!(g.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn forward_checked_passes_healthy_network() {
        let mut rng = SeededRng::new(12);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let checked = net.forward_checked(&x).unwrap();
        let plain = net.forward(&x);
        assert_eq!(checked, plain);
    }

    #[test]
    fn forward_checked_names_poisoned_layer() {
        let mut rng = SeededRng::new(13);
        let mut net = tiny_net(&mut rng);
        // Poison one weight of the final Dense layer (stack index 2).
        net.for_each_param_mut(|k, t| {
            if k == "layer2.weight" {
                t.map_inplace(|_| f32::NAN);
            }
        });
        let x = Tensor::randn(&[1, 4], &mut rng);
        let err = net.forward_checked(&x).unwrap_err();
        assert_eq!(err.layer, 2);
        assert!(err.to_string().contains("layer 2"));
    }

    #[test]
    fn checked_walks_name_an_attention_block_with_a_nan_query_or_key() {
        // The NaN reaches the attention scores, whose softmax must carry
        // it to the block's output instead of panicking.
        let mut rng = SeededRng::new(15);
        let golden = crate::models::attention_net(&mut rng);
        let x = Tensor::rand_uniform(&[2, 28, 28], 0.0, 1.0, &mut rng);
        for key in ["layer0.wq.weight", "layer0.wk.weight"] {
            let mut net = golden.clone();
            net.for_each_param_mut(|k, t| {
                if k == key {
                    t.as_mut_slice()[0] = f32::NAN;
                }
            });
            assert_eq!(net.infer_checked(&x).unwrap_err().layer, 0, "infer_checked, {key}");
            assert_eq!(net.forward_checked(&x).unwrap_err().layer, 0, "forward_checked, {key}");
        }
    }

    #[test]
    fn forward_checked_rejects_non_finite_input() {
        let mut rng = SeededRng::new(14);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::full(&[1, 4], f32::INFINITY);
        let err = net.forward_checked(&x).unwrap_err();
        assert_eq!(err.layer, usize::MAX);
        assert!(err.to_string().contains("input"));
    }

    #[test]
    #[should_panic(expected = "network expects")]
    fn forward_rejects_wrong_shape() {
        let mut rng = SeededRng::new(11);
        let mut net = tiny_net(&mut rng);
        net.forward(&Tensor::zeros(&[2, 5]));
    }
}
