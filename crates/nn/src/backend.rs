//! The [`InferenceBackend`] abstraction: one seam through which the whole
//! detection stack (detector, fault campaigns, diagnosis, repair
//! re-validation, lifetime runtime) executes forward passes.
//!
//! The digital reference lives here: [`Network`] itself implements the
//! trait, so borrowing call sites pass `&Network` directly. Analog
//! implementations that route matmuls through conductance-mapped crossbars
//! live in `healthmon-reram` and plug into the same trait.

use crate::network::{Network, NonFiniteActivation};
use healthmon_tensor::Tensor;

/// An execution substrate for inference.
///
/// Implementations own (or borrow) everything a forward pass needs and
/// expose it behind `&self`, so detection can fan out over shared
/// references without cloning networks for the borrow checker.
///
/// # Contract
///
/// * `infer` must be deterministic: the same backend state and input
///   produce bitwise-identical logits, at any `HEALTHMON_THREADS`.
/// * `infer_checked` must return `Err` naming the first layer whose output
///   is non-finite instead of letting `NaN`/`±∞` poison downstream
///   statistics (`layer == usize::MAX` means the input itself).
/// * `readback` materializes the backend's *effective* weights into a
///   digital [`Network`] — for the digital backend that is a clone; for a
///   crossbar backend it is the conductance read-out, including every
///   fault and drift applied since programming.
pub trait InferenceBackend {
    /// Evaluation-mode forward pass over a batch `[N, ...input_shape]`.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the backend's network.
    fn infer(&self, input: &Tensor) -> Tensor;

    /// [`InferenceBackend::infer`] with per-layer non-finite containment.
    ///
    /// # Errors
    ///
    /// Returns [`NonFiniteActivation`] naming the first offending layer.
    fn infer_checked(&self, input: &Tensor) -> Result<Tensor, NonFiniteActivation>;

    /// Short backend identifier (`"digital"`, `"analog"`, `"bitsliced"`).
    fn backend_name(&self) -> &'static str;

    /// Materializes the effective weights into a digital [`Network`].
    fn readback(&self) -> Network;
}

impl InferenceBackend for Network {
    fn infer(&self, input: &Tensor) -> Tensor {
        Network::infer(self, input)
    }

    fn infer_checked(&self, input: &Tensor) -> Result<Tensor, NonFiniteActivation> {
        Network::infer_checked(self, input)
    }

    fn backend_name(&self) -> &'static str {
        "digital"
    }

    fn readback(&self) -> Network {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{
        AvgPool2d, BatchNorm2d, Conv2d, Dense, Dropout, Flatten, MaxPool2d, Relu, Sigmoid, Tanh,
    };
    use crate::models;
    use healthmon_tensor::SeededRng;

    /// A network exercising every layer kind in one stack.
    fn kitchen_sink(rng: &mut SeededRng) -> Network {
        let mut net = Network::new(vec![2, 8, 8]);
        net.push(Conv2d::new(2, 4, 3, 1, 1, rng));
        net.push(BatchNorm2d::new(4));
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2));
        net.push(Conv2d::new(4, 3, 3, 1, 0, rng));
        net.push(Tanh::new());
        net.push(AvgPool2d::new(2, 1));
        net.push(Flatten::new());
        net.push(Dense::new(3, 6, rng));
        net.push(Sigmoid::new());
        net.push(Dropout::new(0.3, rng));
        net.push(Dense::new(6, 4, rng));
        net
    }

    #[test]
    fn infer_matches_eval_forward_bitwise_all_layers() {
        let mut rng = SeededRng::new(41);
        let mut net = kitchen_sink(&mut rng);
        // Run a training pass first so batch-norm running stats are
        // non-trivial and dropout state is mid-stream.
        let warm = Tensor::randn(&[3, 2, 8, 8], &mut rng);
        net.set_training(true);
        net.forward(&warm);
        let x = Tensor::randn(&[2, 2, 8, 8], &mut rng);
        let inferred = net.infer(&x);
        net.set_training(false);
        let forwarded = net.forward(&x);
        assert_eq!(
            inferred, forwarded,
            "infer must be bit-identical to eval-mode forward"
        );
    }

    #[test]
    fn infer_matches_eval_forward_on_paper_models() {
        let mut rng = SeededRng::new(42);
        for (mut net, shape) in [
            (models::lenet5(&mut rng), vec![2, 1, 28, 28]),
            (models::convnet7(&mut rng), vec![2, 3, 32, 32]),
        ] {
            let x = Tensor::randn(&shape, &mut rng);
            let inferred = net.infer(&x);
            net.set_training(false);
            let forwarded = net.forward(&x);
            assert_eq!(inferred, forwarded);
        }
    }

    #[test]
    fn network_implements_backend() {
        let mut rng = SeededRng::new(43);
        let net = models::tiny_mlp(12, 7, 4, &mut rng);
        let x = Tensor::randn(&[3, 12], &mut rng);
        let backend: &dyn InferenceBackend = &net;
        assert_eq!(backend.backend_name(), "digital");
        assert_eq!(backend.infer(&x), net.infer(&x));
        assert_eq!(backend.infer_checked(&x).unwrap(), net.infer(&x));
        assert_eq!(backend.readback().state_dict(), net.state_dict());
    }

    #[test]
    fn infer_checked_contains_poison() {
        let mut rng = SeededRng::new(45);
        let mut net = models::tiny_mlp(4, 5, 3, &mut rng);
        net.for_each_param_mut(|k, t| {
            if k == "layer2.weight" {
                t.map_inplace(|_| f32::NAN);
            }
        });
        let x = Tensor::randn(&[1, 4], &mut rng);
        let err = InferenceBackend::infer_checked(&net, &x).unwrap_err();
        assert_eq!(err.layer, 2);
    }
}
