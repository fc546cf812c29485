//! Bit-for-bit pins of the training path: `forward` in both modes, the
//! gradients one `backward` accumulates, the parameters the optimizers
//! and drop-connect step to, the state-dict keys, and where the checked
//! walks localize a non-finite weight.
//!
//! No benchmark workload and no zoo golden runs `forward` or `backward`,
//! yet C-TP ranks candidates through `forward`, and AET, O-TP and the
//! drop-connect hardening rung train or differentiate through the layers.
//! These digests fold in every logit, gradient and parameter bit, so a
//! layer edit that moves one of them fails here. The tables were captured
//! from the build before the layers' parameter lists and `forward`
//! arithmetic were merged into one per layer.

use healthmon_nn::layers::{
    AvgPool2d, BatchNorm2d, Conv2d, Dense, Dropout, Flatten, MaxPool2d, Sigmoid, Tanh,
};
use healthmon_nn::optim::{Adam, Optimizer, Sgd};
use healthmon_nn::{
    zoo, DropConnect, Network, NonFiniteActivation, SoftmaxCrossEntropy, TrainConfig, Trainer,
};
use healthmon_tensor::{SeededRng, Tensor};
use std::panic::{self, AssertUnwindSafe};

/// FNV-1a over everything folded in: shapes and lengths as u64, floats as
/// their exact bit patterns.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn tensor(&mut self, t: &Tensor) {
        for &dim in t.shape() {
            self.u64(dim as u64);
        }
        self.u64(t.len() as u64);
        for v in t.as_slice() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    /// Every parameter of `net`, key and bits, in state-dict order.
    fn params(&mut self, net: &Network) {
        net.for_each_param(|key, t| {
            self.bytes(key.as_bytes());
            self.tensor(t);
        });
    }
}

/// The layers no zoo model uses, behind a convolution: batch norm, tanh,
/// a 3×3 average pool (a ninth is not a power of two, so the order of
/// scaling and summing shows), a 3×3 stride-2 max pool, sigmoid and
/// dropout at p = 0.3.
fn handmade(rng: &mut SeededRng) -> Network {
    let mut net = Network::new(vec![2, 9, 9]);
    net.push(Conv2d::new(2, 4, 3, 1, 1, rng)); // 4 x 9 x 9
    net.push(BatchNorm2d::new(4));
    net.push(Tanh::new());
    net.push(AvgPool2d::new(3, 1)); // 4 x 7 x 7
    net.push(MaxPool2d::new(3, 2)); // 4 x 3 x 3
    net.push(Sigmoid::new());
    net.push(Flatten::new()); // 36
    net.push(Dropout::new(0.3, rng));
    net.push(Dense::new(36, 5, rng));
    net
}

/// Every pinned network: the zoo in registry order, then [`handmade`].
fn networks() -> Vec<(&'static str, Network)> {
    let mut nets: Vec<(&str, Network)> = zoo::ZOO
        .iter()
        .enumerate()
        .map(|(i, spec)| (spec.name, spec.build(&mut SeededRng::new(31 + i as u64))))
        .collect();
    nets.push(("handmade", handmade(&mut SeededRng::new(37))));
    nets
}

const BATCH: usize = 4;

/// What each digest of a row covers, in row order.
const ASPECTS: [&str; 8] = [
    "training-mode logits",
    "evaluation-mode logits",
    "parameter and input gradients",
    "parameters after two SGD steps",
    "parameters after two Adam steps",
    "parameters after one drop-connect step",
    "state-dict keys",
    "non-finite layer per poisoned parameter",
];

/// The eight digests of [`ASPECTS`] for `golden`, each taken on a fresh
/// clone so no aspect sees another's dropout draws, batch statistics or
/// optimizer steps.
fn digests(golden: &Network, seed: u64) -> [u64; 8] {
    let mut rng = SeededRng::new(seed);
    let mut shape = vec![BATCH];
    shape.extend_from_slice(golden.input_shape());
    let x = Tensor::randn(&shape, &mut rng);
    let classes = golden.infer(&x).shape()[1];
    let labels: Vec<usize> = (0..BATCH).map(|i| (i * 3) % classes).collect();
    let grad = Tensor::randn(&[BATCH, classes], &mut rng);
    let mut out = [0u64; 8];

    // Logits in both modes; evaluation mode also through `infer`.
    let mut net = golden.clone();
    net.set_training(true);
    let mut h = Fnv::new();
    h.tensor(&net.forward(&x));
    h.tensor(&net.forward(&x));
    out[0] = h.0;
    net.set_training(false);
    let eval = net.forward(&x);
    assert_eq!(eval, net.infer(&x), "evaluation-mode forward and infer disagree");
    let mut h = Fnv::new();
    h.tensor(&eval);
    out[1] = h.0;

    // One backward of a fixed gradient: every parameter gradient, then
    // the input gradient.
    let mut net = golden.clone();
    net.set_training(true);
    net.forward(&x);
    let input_grad = net.backward(&grad);
    let mut h = Fnv::new();
    for (_, g) in net.params_and_grads() {
        h.tensor(g);
    }
    h.tensor(&input_grad);
    out[2] = h.0;

    // Two optimizer steps each, gradients zeroed between them.
    let steps = |opt: &mut dyn Optimizer| {
        let mut net = golden.clone();
        net.set_training(true);
        for _ in 0..2 {
            net.zero_grads();
            let loss = SoftmaxCrossEntropy::with_labels(&net.forward(&x), &labels);
            net.backward(&loss.grad);
            opt.step(&mut net);
        }
        let mut h = Fnv::new();
        h.params(&net);
        h.0
    };
    out[3] = steps(&mut Sgd::new(0.05).momentum(0.9).weight_decay(1e-3));
    out[4] = steps(&mut Adam::new(1e-3));

    // One drop-connect step: the whole set is one minibatch.
    let mut net = golden.clone();
    let config = TrainConfig {
        epochs: 1,
        batch_size: BATCH,
        seed: 3,
        drop_connect: Some(DropConnect::new(0.3).seeded(11)),
        ..TrainConfig::default()
    };
    Trainer::new(&mut net, Sgd::new(0.05), config).fit(&x, &labels, None);
    let mut h = Fnv::new();
    h.params(&net);
    out[5] = h.0;

    let mut h = Fnv::new();
    for (key, _) in golden.state_dict() {
        h.bytes(key.as_bytes());
        h.u64(0);
    }
    out[6] = h.0;

    // Element 0 of each parameter in turn set to NaN: the layer each
    // checked walk names, that it passed, or that it panicked. A NaN in
    // an attention block's query or key projection reaches the softmax,
    // which carries it to every score of its row, so those walks name the
    // block (they panicked before the softmax stopped asserting on NaN;
    // the attention digest was re-pinned then).
    let mut h = Fnv::new();
    for (key, _) in golden.state_dict() {
        let mut net = golden.clone();
        net.set_training(false);
        net.for_each_param_mut(|k, t| {
            if k == key {
                t.as_mut_slice()[0] = f32::NAN;
            }
        });
        let layer = |walk: &mut dyn FnMut() -> Result<Tensor, NonFiniteActivation>| {
            match panic::catch_unwind(AssertUnwindSafe(walk)) {
                Ok(Ok(_)) => u64::MAX - 1,
                Ok(Err(e)) => e.layer as u64,
                Err(_) => u64::MAX - 2,
            }
        };
        h.u64(layer(&mut || net.infer_checked(&x)));
        h.u64(layer(&mut || net.forward_checked(&x)));
    }
    out[7] = h.0;
    out
}

/// Per network, one digest per [`ASPECTS`] entry.
#[rustfmt::skip]
const PINNED: [(&str, [u64; 8]); 7] = [
    ("lenet5", [
        0x150da41d70fc76d9, 0x48f6ad696b8652d8, 0x4f9b34c6f62fec59, 0x9659380e68eefeb0,
        0xe8be9928e0cda305, 0x86c89bad111b05cb, 0xaf81e4a4b4ffb332, 0x60d27ac998113b25,
    ]),
    ("convnet7", [
        0xa3c614ae34858ed5, 0xc0db3543be24ec2d, 0x1a63a6440e4d6edd, 0x76f4b9a4c5425976,
        0x38594bdb1a19d115, 0x63c5e9ba2b251e52, 0x4d64ba6d8672e900, 0x0f3941340bedf365,
    ]),
    ("mlp", [
        0x5b6cc0793860b0e5, 0x624afd7f9d2a764d, 0x05eb440942741d46, 0x597e9f830370a525,
        0x8310f1ad09454043, 0x7400ef234f8b70f7, 0x1008726328b33271, 0xd71af00e226150a5,
    ]),
    ("resnet8", [
        0x66c93bbeb5209f29, 0x2fc4340e6b4aba48, 0xac49baac012f0419, 0x697d07d1d08f68a0,
        0xd800654c27bdcd6e, 0xce3e8ad32c958de0, 0xcc0f27990c6938a8, 0x273b6a5cd80983a5,
    ]),
    ("mlp4", [
        0x53a440da3c0bfb51, 0x657ca14c7bbbb027, 0xc71c1c2512d1e9f2, 0xdcd438135fe3d013,
        0x06ccbcbefe6eee05, 0x6358bf6d5eabb871, 0x1ba9e646a0e416bd, 0x62ab4708e7d45c25,
    ]),
    ("attention", [
        0x82ca08ee2efa36f5, 0x1cc96093a85fd344, 0x0f8c764ae8a69ae4, 0x0d924c96a531e86f,
        0x5af8e9fb2e0753fa, 0xeefc534471b202cb, 0x8f128a5319f562ae, 0x8632c944005ce4a5,
    ]),
    ("handmade", [
        0xd6f7a1c03e162847, 0xd663f54e880ac91d, 0x693fa1a6fcc2a566, 0xc303706f84bed9e6,
        0xedb563d01035ba0a, 0xfe3894170cf8eb73, 0x07665cb599755b80, 0xd975548b0d553865,
    ]),
];

#[test]
fn training_path_reads_its_pinned_digests_for_every_network() {
    let nets = networks();
    assert_eq!(nets.len(), PINNED.len(), "pin a row for every network");
    let mut failures = Vec::new();
    let mut rows = Vec::new();
    for (i, ((name, net), (pinned_name, pinned))) in nets.iter().zip(&PINNED).enumerate() {
        assert_eq!(name, pinned_name);
        let got = digests(net, 41 + i as u64);
        for ((aspect, &g), &want) in ASPECTS.iter().zip(&got).zip(pinned) {
            if g != want {
                failures.push(format!("{name}, {aspect}: digest 0x{g:016x}"));
            }
        }
        let hex: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
        rows.push(format!("    (\"{name}\", [{}]),", hex.join(", ")));
    }
    assert!(
        failures.is_empty(),
        "training path moved:\n{}\nrows now:\n{}",
        failures.join("\n"),
        rows.join("\n")
    );
}
