//! A small training harness: minibatch SGD with shuffling, learning-rate
//! decay, accuracy evaluation, and optional drop-connect hardening.

use crate::loss::SoftmaxCrossEntropy;
use crate::optim::Optimizer;
use crate::Network;
use healthmon_tensor::{SeededRng, Tensor};

/// Domain-separation salt for the drop-connect mask stream, so masks are
/// independent of the shuffle stream even when the seeds collide.
const DROP_CONNECT_SALT: u64 = 0xD40C_0DAC_2020_0006;

/// Drop-connect hardening schedule: before every optimizer step a seeded
/// Bernoulli mask zeroes a fraction of each weight matrix (biases — the
/// CMOS periphery under the crossbar mapping convention — are never
/// dropped), and the corresponding gradients are masked after backprop so
/// dropped weights neither contribute to nor learn from the step.
///
/// Training under random weight dropping teaches the network to spread
/// function across surviving weights, so the deployed model tolerates
/// stuck crossbar cells it was never shown — the fault-tolerance
/// regularizer proposed for RRAM accelerators (drop-connect hardening).
#[derive(Debug, Clone, PartialEq)]
pub struct DropConnect {
    /// Base probability of dropping each weight per optimizer step.
    pub probability: f32,
    /// Per-layer overrides keyed by parameter name (e.g.
    /// `"layer0.weight"`); unlisted weight layers use `probability`.
    pub per_layer: Vec<(String, f32)>,
    /// Mask stream seed (forked per optimizer step; independent of the
    /// shuffle seed).
    pub seed: u64,
}

impl DropConnect {
    /// A uniform schedule dropping each weight with `probability`.
    pub fn new(probability: f32) -> Self {
        DropConnect { probability, per_layer: Vec::new(), seed: 0 }
    }

    /// Overrides the drop probability for one weight parameter.
    pub fn layer(mut self, key: impl Into<String>, probability: f32) -> Self {
        self.per_layer.push((key.into(), probability));
        self
    }

    /// Sets the mask stream seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The drop probability in effect for a weight parameter.
    pub fn rate_for(&self, key: &str) -> f32 {
        self.per_layer
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, p)| p)
            .unwrap_or(self.probability)
    }

    /// Validates every probability.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1)`.
    pub fn validate(&self) {
        let check = |p: f32, what: &str| {
            assert!(
                (0.0..1.0).contains(&p),
                "drop-connect probability {p} for {what} outside [0, 1)"
            );
        };
        check(self.probability, "the base schedule");
        for (key, p) in &self.per_layer {
            check(*p, key);
        }
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f32,
    /// Shuffle seed (shuffling is deterministic per epoch).
    pub seed: u64,
    /// Print one progress line per epoch to stderr.
    pub verbose: bool,
    /// Optional drop-connect hardening applied at every optimizer step.
    pub drop_connect: Option<DropConnect>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            batch_size: 32,
            lr_decay: 0.9,
            seed: 0,
            verbose: false,
            drop_connect: None,
        }
    }
}

/// Per-epoch record of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean minibatch loss over the epoch.
    pub mean_loss: f32,
    /// Accuracy on the training set sampled at epoch end (fraction).
    pub train_accuracy: f32,
}

/// Result of a full training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Stats for each epoch in order.
    pub epochs: Vec<EpochStats>,
    /// Final accuracy on the held-out set, if one was provided.
    pub test_accuracy: Option<f32>,
}

impl TrainReport {
    /// Final epoch's mean loss.
    ///
    /// # Panics
    ///
    /// Panics if no epochs were run.
    pub fn final_loss(&self) -> f32 {
        self.epochs.last().expect("training ran at least one epoch").mean_loss
    }
}

/// Extracts the samples at `indices` from a sample-major dataset tensor
/// (`[N, ...sample_shape]`) into a new batch tensor.
///
/// # Panics
///
/// Panics if any index is out of bounds.
pub fn gather_batch(images: &Tensor, indices: &[usize]) -> Tensor {
    let n = images.shape()[0];
    let sample_len: usize = images.shape()[1..].iter().product();
    let mut shape = images.shape().to_vec();
    shape[0] = indices.len();
    let mut out = Tensor::zeros(&shape);
    let src = images.as_slice();
    let dst = out.as_mut_slice();
    for (row, &idx) in indices.iter().enumerate() {
        assert!(idx < n, "batch index {idx} out of bounds for {n} samples");
        dst[row * sample_len..(row + 1) * sample_len]
            .copy_from_slice(&src[idx * sample_len..(idx + 1) * sample_len]);
    }
    out
}

/// Classification accuracy of `net` on a labelled dataset, evaluated in
/// minibatches.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the number of samples.
pub fn accuracy(net: &mut Network, images: &Tensor, labels: &[usize], batch_size: usize) -> f32 {
    let n = images.shape()[0];
    assert_eq!(labels.len(), n, "label count {} != sample count {n}", labels.len());
    net.set_training(false);
    let mut correct = 0usize;
    let mut start = 0usize;
    while start < n {
        let end = (start + batch_size).min(n);
        let idx: Vec<usize> = (start..end).collect();
        let batch = gather_batch(images, &idx);
        let logits = net.forward(&batch);
        for (row, &label) in idx.iter().zip(&labels[start..end]) {
            let row_in_batch = row - start;
            if logits.row(row_in_batch).argmax() == label {
                correct += 1;
            }
        }
        start = end;
    }
    correct as f32 / n as f32
}

/// Drives minibatch training of a [`Network`] with any [`Optimizer`].
#[derive(Debug)]
pub struct Trainer<'a, O: Optimizer> {
    net: &'a mut Network,
    optimizer: O,
    config: TrainConfig,
}

impl<'a, O: Optimizer> Trainer<'a, O> {
    /// Creates a trainer borrowing the network for the duration of
    /// training.
    pub fn new(net: &'a mut Network, optimizer: O, config: TrainConfig) -> Self {
        assert!(config.batch_size > 0, "batch size must be non-zero");
        assert!(config.epochs > 0, "epoch count must be non-zero");
        if let Some(dc) = &config.drop_connect {
            dc.validate();
        }
        Trainer { net, optimizer, config }
    }

    /// Runs training on `(images, labels)`; if `test` is provided the
    /// report includes held-out accuracy.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the number of training
    /// samples.
    pub fn fit(
        &mut self,
        images: &Tensor,
        labels: &[usize],
        test: Option<(&Tensor, &[usize])>,
    ) -> TrainReport {
        let n = images.shape()[0];
        assert_eq!(labels.len(), n, "label count {} != sample count {n}", labels.len());
        let mut rng = SeededRng::new(self.config.seed);
        let mut epochs = Vec::with_capacity(self.config.epochs);
        let mut step = 0u64;
        for epoch in 0..self.config.epochs {
            self.net.set_training(true);
            let order = rng.permutation(n);
            let mut loss_sum = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                let batch = gather_batch(images, chunk);
                let batch_labels: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                self.net.zero_grads();
                // Drop-connect: zero the sampled weights for this step so
                // the forward pass runs on the thinned network.
                let masked = self
                    .config
                    .drop_connect
                    .as_ref()
                    .map(|dc| mask_weights(self.net, dc, step));
                let logits = self.net.forward(&batch);
                let out = SoftmaxCrossEntropy::with_labels(&logits, &batch_labels);
                self.net.backward(&out.grad);
                if let Some(masked) = masked {
                    // Restore the dropped weights and zero their
                    // gradients: a dropped weight neither contributes to
                    // the step's loss nor learns from it.
                    unmask_weights(self.net, &masked);
                }
                self.optimizer.step(self.net);
                loss_sum += out.loss as f64;
                batches += 1;
                step += 1;
            }
            let mean_loss = (loss_sum / batches.max(1) as f64) as f32;
            // Sampled train accuracy on up to 1000 samples keeps epochs cheap.
            let probe = n.min(1000);
            let idx: Vec<usize> = (0..probe).collect();
            let probe_images = gather_batch(images, &idx);
            let probe_labels: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();
            let train_accuracy =
                accuracy(self.net, &probe_images, &probe_labels, self.config.batch_size);
            if self.config.verbose {
                // Routed through the quiet-aware logger so a library
                // crate never writes to a stream the host can't redirect.
                healthmon_telemetry::log_info!(
                    "epoch {epoch}: loss {mean_loss:.4}, train acc {:.2}%",
                    train_accuracy * 100.0
                );
            }
            epochs.push(EpochStats { epoch, mean_loss, train_accuracy });
            let lr = self.optimizer.learning_rate() * self.config.lr_decay;
            self.optimizer.set_learning_rate(lr);
        }
        let test_accuracy = test.map(|(imgs, lbls)| {
            accuracy(self.net, imgs, lbls, self.config.batch_size)
        });
        self.net.set_training(false);
        TrainReport { epochs, test_accuracy }
    }
}

/// The weights one parameter had dropped for a single step: the
/// parameter's position in [`Network::params_and_grads`] order plus the
/// `(element index, original value)` pairs to restore.
struct DroppedParam {
    position: usize,
    dropped: Vec<(usize, f32)>,
}

/// Samples and applies this step's drop-connect masks: every weight
/// parameter (keys ending in `weight`; biases are CMOS periphery and
/// never dropped) loses each element with its layer's probability. The
/// mask stream is forked per step from the salted schedule seed and drawn
/// sequentially over parameters in layer order, so masks are a pure
/// function of `(schedule, step)` — bit-identical at any
/// `HEALTHMON_THREADS`.
fn mask_weights(net: &mut Network, dc: &DropConnect, step: u64) -> Vec<DroppedParam> {
    let mut rng = SeededRng::new(dc.seed ^ DROP_CONNECT_SALT).fork(step);
    let mut masked = Vec::new();
    let mut position = 0usize;
    net.for_each_param_mut(|key, tensor| {
        let pos = position;
        position += 1;
        if !key.ends_with("weight") {
            return;
        }
        let p = f64::from(dc.rate_for(key));
        if p <= 0.0 {
            return;
        }
        let mut dropped = Vec::new();
        for (i, w) in tensor.as_mut_slice().iter_mut().enumerate() {
            if rng.chance(p) {
                dropped.push((i, *w));
                *w = 0.0;
            }
        }
        if !dropped.is_empty() {
            masked.push(DroppedParam { position: pos, dropped });
        }
    });
    masked
}

/// Restores the dropped weights and zeroes their gradients after the
/// backward pass (`dL/dW = M ⊙ dL/dW_thinned`), so the optimizer step
/// leaves dropped weights untouched by this minibatch.
fn unmask_weights(net: &mut Network, masked: &[DroppedParam]) {
    let mut pairs = net.params_and_grads();
    for entry in masked {
        let (param, grad) = &mut pairs[entry.position];
        let (param, grad) = (param.as_mut_slice(), grad.as_mut_slice());
        for &(i, w) in &entry.dropped {
            param[i] = w;
            grad[i] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Layer, Relu};
    use crate::optim::Sgd;

    /// A linearly-separable 2-class toy problem.
    fn toy_dataset(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = SeededRng::new(seed);
        let mut images = Tensor::zeros(&[n, 2]);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 2;
            let cx = if label == 0 { -1.0 } else { 1.0 };
            *images.at_mut(&[i, 0]) = cx + rng.normal(0.0, 0.3);
            *images.at_mut(&[i, 1]) = rng.normal(0.0, 0.3);
            labels.push(label);
        }
        (images, labels)
    }

    #[test]
    fn learns_separable_problem() {
        let mut rng = SeededRng::new(0);
        let mut net = Network::new(vec![2]);
        net.push(Dense::new(2, 8, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(8, 2, &mut rng));
        let (train_x, train_y) = toy_dataset(200, 1);
        let (test_x, test_y) = toy_dataset(100, 2);
        let config = TrainConfig { epochs: 10, batch_size: 16, ..TrainConfig::default() };
        let mut trainer = Trainer::new(&mut net, Sgd::new(0.2).momentum(0.9), config);
        let report = trainer.fit(&train_x, &train_y, Some((&test_x, &test_y)));
        assert!(report.test_accuracy.unwrap() > 0.95, "test acc {:?}", report.test_accuracy);
        assert!(report.final_loss() < report.epochs[0].mean_loss);
    }

    #[test]
    fn training_is_deterministic() {
        let build = || {
            let mut rng = SeededRng::new(0);
            let mut net = Network::new(vec![2]);
            net.push(Dense::new(2, 4, &mut rng));
            net.push(Dense::new(4, 2, &mut rng));
            net
        };
        let (x, y) = toy_dataset(64, 3);
        let config = TrainConfig { epochs: 3, batch_size: 8, ..TrainConfig::default() };
        let mut a = build();
        let mut b = build();
        let ra = Trainer::new(&mut a, Sgd::new(0.1), config.clone()).fit(&x, &y, None);
        let rb = Trainer::new(&mut b, Sgd::new(0.1), config).fit(&x, &y, None);
        assert_eq!(ra, rb);
        assert_eq!(a.state_dict(), b.state_dict());
    }

    #[test]
    fn drop_connect_training_is_deterministic() {
        let build = || {
            let mut rng = SeededRng::new(0);
            let mut net = Network::new(vec![2]);
            net.push(Dense::new(2, 8, &mut rng));
            net.push(Relu::new());
            net.push(Dense::new(8, 2, &mut rng));
            net
        };
        let (x, y) = toy_dataset(64, 3);
        let config = TrainConfig {
            epochs: 3,
            batch_size: 8,
            drop_connect: Some(DropConnect::new(0.3).seeded(9)),
            ..TrainConfig::default()
        };
        let mut a = build();
        let mut b = build();
        let ra = Trainer::new(&mut a, Sgd::new(0.1), config.clone()).fit(&x, &y, None);
        let rb = Trainer::new(&mut b, Sgd::new(0.1), config.clone()).fit(&x, &y, None);
        assert_eq!(ra, rb);
        assert_eq!(a.state_dict(), b.state_dict());

        // The mask stream must actually bite: hardened training diverges
        // from plain training on the same data and seeds.
        let mut plain = build();
        let plain_config = TrainConfig { drop_connect: None, ..config };
        Trainer::new(&mut plain, Sgd::new(0.1), plain_config).fit(&x, &y, None);
        assert_ne!(a.state_dict(), plain.state_dict());
    }

    #[test]
    fn drop_connect_hardened_net_still_learns() {
        let mut rng = SeededRng::new(0);
        let mut net = Network::new(vec![2]);
        net.push(Dense::new(2, 8, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(8, 2, &mut rng));
        let (train_x, train_y) = toy_dataset(200, 1);
        let (test_x, test_y) = toy_dataset(100, 2);
        let config = TrainConfig {
            epochs: 10,
            batch_size: 16,
            drop_connect: Some(DropConnect::new(0.2).seeded(4)),
            ..TrainConfig::default()
        };
        let mut trainer = Trainer::new(&mut net, Sgd::new(0.2).momentum(0.9), config);
        let report = trainer.fit(&train_x, &train_y, Some((&test_x, &test_y)));
        assert!(report.test_accuracy.unwrap() > 0.9, "test acc {:?}", report.test_accuracy);
    }

    #[test]
    fn drop_connect_never_touches_biases() {
        let mut rng = SeededRng::new(0);
        let mut net = Network::new(vec![2]);
        net.push(Dense::new(2, 4, &mut rng));
        let dc = DropConnect::new(0.9).seeded(1);
        let masked = mask_weights(&mut net, &dc, 0);
        assert!(!masked.is_empty(), "p=0.9 should drop something");
        // Only layer0.weight (position 0) may appear; layer0.bias is
        // position 1 and must never be masked.
        assert!(masked.iter().all(|m| m.position == 0));
        unmask_weights(&mut net, &masked);
    }

    #[test]
    fn per_layer_override_controls_rate() {
        let dc = DropConnect::new(0.1).layer("layer2.weight", 0.0);
        assert_eq!(dc.rate_for("layer0.weight"), 0.1);
        assert_eq!(dc.rate_for("layer2.weight"), 0.0);

        // A zero override exempts that layer from masking entirely.
        let mut rng = SeededRng::new(0);
        let mut net = Network::new(vec![2]);
        net.push(Dense::new(2, 16, &mut rng));
        net.push(Dense::new(16, 2, &mut rng));
        let dc = DropConnect::new(0.5).layer("layer1.weight", 0.0).seeded(2);
        let masked = mask_weights(&mut net, &dc, 0);
        // layer0.weight is position 0; layer1.weight (position 2) is exempt.
        assert!(masked.iter().all(|m| m.position == 0));
        unmask_weights(&mut net, &masked);
    }

    #[test]
    fn mask_then_unmask_restores_weights_and_zeroes_grads() {
        let mut rng = SeededRng::new(7);
        let mut net = Network::new(vec![2]);
        net.push(Dense::new(2, 8, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(8, 2, &mut rng));
        let before = net.state_dict();
        let dc = DropConnect::new(0.4).seeded(11);
        let masked = mask_weights(&mut net, &dc, 3);
        assert_ne!(net.state_dict(), before, "masking must zero some weights");
        // Run a backward pass so gradients are non-trivial.
        let x = Tensor::randn(&[4, 2], &mut rng);
        let logits = net.forward(&x);
        let out = SoftmaxCrossEntropy::with_labels(&logits, &[0, 1, 0, 1]);
        net.backward(&out.grad);
        unmask_weights(&mut net, &masked);
        assert_eq!(net.state_dict(), before, "unmask must restore weights bitwise");
        // Every dropped position's gradient is zeroed.
        let pairs = net.params_and_grads();
        for entry in &masked {
            let (_, grad) = &pairs[entry.position];
            for &(i, _) in &entry.dropped {
                assert_eq!(grad.as_slice()[i], 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn drop_connect_rejects_invalid_probability() {
        let mut rng = SeededRng::new(0);
        let mut net = Network::new(vec![2]);
        net.push(Dense::new(2, 2, &mut rng));
        let config = TrainConfig {
            drop_connect: Some(DropConnect::new(1.0)),
            ..TrainConfig::default()
        };
        let _ = Trainer::new(&mut net, Sgd::new(0.1), config);
    }

    #[test]
    fn gather_batch_copies_rows() {
        let images = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 2, 2]).unwrap();
        let batch = gather_batch(&images, &[2, 0]);
        assert_eq!(batch.shape(), &[2, 2, 2]);
        assert_eq!(&batch.as_slice()[..4], &[8.0, 9.0, 10.0, 11.0]);
        assert_eq!(&batch.as_slice()[4..], &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn accuracy_on_perfect_predictor() {
        let mut rng = SeededRng::new(1);
        let mut net = Network::new(vec![2]);
        let mut dense = Dense::new(2, 2, &mut rng);
        // Identity-ish weights: class = argmax of inputs.
        dense.params_mut()[0].1.as_mut_slice().copy_from_slice(&[1.0, 0.0, 0.0, 1.0]);
        dense.params_mut()[1].1.as_mut_slice().copy_from_slice(&[0.0, 0.0]);
        net.push(dense);
        let images = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0], &[3, 2]).unwrap();
        assert_eq!(accuracy(&mut net, &images, &[0, 1, 0], 2), 1.0);
        assert!((accuracy(&mut net, &images, &[1, 1, 0], 2) - 2.0 / 3.0).abs() < 1e-6);
    }
}
