//! Bit-for-bit pins of the fault path: the weights every fault model
//! derives, the bulk samplers behind them, and the logits of faulted
//! models read through every backend.
//!
//! The zoo campaign goldens pin only two detection rates over four fault
//! models, so a deterministic kernel error that moves logits without
//! flipping a verdict passes them. These digests fold in every parameter
//! bit, every sampled variate and every logit instead, so any change to
//! the sampler, the fault models or crossbar programming that moves one
//! output bit (or shifts the RNG stream by one draw) fails here. The
//! tables were captured from the build before those loops were
//! vectorized.

use healthmon::{BackendSpec, CrossbarConfig, InferenceBackend};
use healthmon_faults::{FaultCampaign, FaultModel};
use healthmon_nn::zoo;
use healthmon_nn::Network;
use healthmon_tensor::{SeededRng, Tensor};

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

    fn f32s(&mut self, values: &[f32]) {
        self.u64(values.len() as u64);
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn tensor(&mut self, t: &Tensor) {
        for &dim in t.shape() {
            self.u64(dim as u64);
        }
        self.f32s(t.as_slice());
    }

    /// Every parameter of `net`, key and bits, in state-dict order.
    fn params(&mut self, net: &Network) {
        net.for_each_param(|key, t| {
            self.bytes(key.as_bytes());
            self.tensor(t);
        });
    }

    /// Where the stream stands: the next draw after the code under test.
    fn next_draw(&mut self, rng: &mut SeededRng) {
        self.f32s(&[rng.unit()]);
    }
}

/// Every fault model variant, with parameters that reach every branch:
/// drift at a campaign's scale and at one that saturates `exp`'s clamp,
/// and a compound nested one level deep.
fn variants() -> [FaultModel; 6] {
    [
        FaultModel::ProgrammingVariation { sigma: 0.3 },
        FaultModel::Drift { nu: 0.02, time: 1.0 },
        FaultModel::Drift { nu: 1.5, time: 40.0 },
        FaultModel::StuckAt { sa0: 0.05, sa1: 0.05 },
        FaultModel::RandomSoftError { probability: 0.01 },
        FaultModel::Compound(vec![
            FaultModel::ProgrammingVariation { sigma: 0.1 },
            FaultModel::Compound(vec![
                FaultModel::Drift { nu: 0.3, time: 2.0 },
                FaultModel::StuckAt { sa0: 0.01, sa1: 0.01 },
            ]),
            FaultModel::RandomSoftError { probability: 0.005 },
        ]),
    ]
}

/// The golden network of zoo model `i`.
fn golden(i: usize) -> Network {
    zoo::ZOO[i].build(&mut SeededRng::new(71 + i as u64))
}

/// Per zoo model, one digest per [`variants`] entry: every parameter bit
/// after the fault applies under seeds 5 and 1 << 40, and the next draw
/// of its stream.
#[rustfmt::skip]
const PINNED_WEIGHTS: [(&str, [u64; 6]); 6] = [
    ("lenet5", [
        0xf05c13c5341fddf9, 0x95c8d8951e3df1c8, 0x2a0b7e5f247398f1, 0x7a8daf827e78fb5a,
        0xed52326cfad8213c, 0xa99d0cd5292058ca,
    ]),
    ("convnet7", [
        0xe347044a0c7667d4, 0x848e1bd115c50c56, 0x65012b899081d831, 0x6c5fa4e08cfd02a3,
        0x7f7f636db58c4903, 0x4792dbf76e52979e,
    ]),
    ("mlp", [
        0xdec9db47a2834f28, 0x9e3c22709a4f248e, 0x35d05501c1850288, 0x39bfbf1adb2b1975,
        0xf41d3ab54b75407c, 0x391af2a1fa987a54,
    ]),
    ("resnet8", [
        0x2ff197bf41f90bfa, 0xc80cf93a82337d1e, 0x8da036e6433077ee, 0xe424c940c210ffc8,
        0xf9aa59f204d71183, 0x7cd8def5e2180e3e,
    ]),
    ("mlp4", [
        0x43c84806a86dc3a0, 0xde5c1c3fc5c09893, 0x72c93e86ecb6c6fc, 0xff25dc3ff904938d,
        0x1df0d79af8e42da3, 0xcd28408f903d04a1,
    ]),
    ("attention", [
        0x3b9bbc4e649d6f21, 0x58ebd9fccf2ec4af, 0x91b4ac5f1311876e, 0x979addbd167e6222,
        0x62712ff7fa0b99f8, 0xc3cec07362b25cde,
    ]),
];

#[test]
fn fault_models_derive_their_pinned_weights_for_every_zoo_model() {
    assert_eq!(zoo::ZOO.len(), PINNED_WEIGHTS.len(), "pin a row for every zoo model");
    let mut failures = Vec::new();
    for (i, (model, (name, pinned))) in zoo::ZOO.iter().zip(&PINNED_WEIGHTS).enumerate() {
        assert_eq!(model.name, *name);
        let net = golden(i);
        for (fault, &want) in variants().iter().zip(pinned) {
            let mut h = Fnv::new();
            for seed in [5u64, 1 << 40] {
                let mut faulty = net.clone();
                let mut rng = SeededRng::new(seed);
                fault.apply(&mut faulty, &mut rng);
                h.params(&faulty);
                h.next_draw(&mut rng);
            }
            if h.0 != want {
                failures.push(format!("{name}, {}: digest 0x{:016x}", fault.describe(), h.0));
            }
        }
    }
    assert!(failures.is_empty(), "fault weights moved:\n{}", failures.join("\n"));
}

/// Lengths around the sampler's 128-variate chunks and its odd tail.
const LENGTHS: [usize; 11] = [0, 1, 2, 63, 127, 128, 129, 255, 256, 257, 4097];
const SIGMAS: [f32; 3] = [0.0, 0.3, 2.0];

/// One digest per σ of [`SIGMAS`] for `fill_normal` (mean 0.5), then
/// one per σ for `fill_lognormal` (μ = 0): every variate at every length
/// of [`LENGTHS`], each fill from a fresh seed, and the next draw after
/// it.
const PINNED_SAMPLERS: [u64; 6] = [
    0x1b52c48521b0f3cc, 0x4c74122ea07b5c7e, 0x772b4323d72b7038,
    0xc7220e337ded624c, 0x0326e7952562a592, 0x89badf0277528ff6,
];

#[test]
fn bulk_samplers_draw_their_pinned_variates() {
    let mut got = Vec::new();
    for lognormal in [false, true] {
        for sigma in SIGMAS {
            let mut h = Fnv::new();
            for (k, len) in LENGTHS.into_iter().enumerate() {
                let mut rng = SeededRng::new(900 + k as u64);
                // NaN everywhere first: a variate left unwritten shows.
                let mut out = vec![f32::NAN; len];
                if lognormal {
                    rng.fill_lognormal(&mut out, 0.0, sigma);
                } else {
                    rng.fill_normal(&mut out, 0.5, sigma);
                }
                h.f32s(&out);
                h.next_draw(&mut rng);
            }
            got.push(h.0);
        }
    }
    let hex: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
    assert_eq!(got, PINNED_SAMPLERS, "sampler digests moved: [{}]", hex.join(", "));
}

/// The backends the campaign logits go through: digital, the default
/// analog crossbar, the same with lognormal write noise, and 8-bit
/// bit-sliced.
fn specs() -> [BackendSpec; 4] {
    [
        BackendSpec::digital(),
        BackendSpec::analog(CrossbarConfig::default()),
        BackendSpec::analog(CrossbarConfig { write_noise: 0.05, ..CrossbarConfig::default() }),
        BackendSpec::bitsliced(CrossbarConfig::default(), 8),
    ]
}

/// Per zoo model, one digest per [`specs`] entry: the logits of 3 probes
/// through campaign fault models 0–3 (σ = 0.3 programming variation,
/// campaign seed 2020), each programmed as a campaign programs it.
#[rustfmt::skip]
const PINNED_LOGITS: [(&str, [u64; 4]); 6] = [
    ("lenet5", [
        0xb63c2c3c1022e03d, 0x5bd86674adf10a15, 0xb94075bd46c97843, 0x48beb284b38bb3f9,
    ]),
    ("convnet7", [
        0x2685649970b4ab17, 0x4d12bbd614d8cf73, 0x0e2ee12b8fe6867f, 0xc9fedc646a175841,
    ]),
    ("mlp", [
        0x36f15174acafc31f, 0xcbad1ed70fe0b1c9, 0x2a3d5a09470247bb, 0x69ae90d9cf7d5790,
    ]),
    ("resnet8", [
        0x31a2e04f11c79092, 0xaaf8d81a9744c111, 0x7e99e66292099c2d, 0xade8a38ab1a66210,
    ]),
    ("mlp4", [
        0xb57ced2287870917, 0xb4e3114381a8c1a1, 0x5f47c42f72a5ff75, 0x1e9f38009dfcf77b,
    ]),
    ("attention", [
        0xcc42defc6aab3dcd, 0xd2cabc16f3d73a5b, 0xb1fa48bf7f4a9799, 0x2617ab5e3a973fee,
    ]),
];

#[test]
fn faulted_models_read_their_pinned_logits_on_every_backend() {
    assert_eq!(zoo::ZOO.len(), PINNED_LOGITS.len(), "pin a row for every zoo model");
    let fault = FaultModel::ProgrammingVariation { sigma: 0.3 };
    let seed = 2020;
    let mut failures = Vec::new();
    for (i, (model, (name, pinned))) in zoo::ZOO.iter().zip(&PINNED_LOGITS).enumerate() {
        assert_eq!(model.name, *name);
        let net = golden(i);
        let mut shape = vec![3];
        shape.extend_from_slice(model.input_shape);
        let probes = Tensor::rand_uniform(&shape, 0.0, 1.0, &mut SeededRng::new(81 + i as u64));
        let campaign = FaultCampaign::new(&net, seed);
        let faulty: Vec<Network> = (0..4).map(|k| campaign.model(&fault, k)).collect();
        for (j, (spec, &want)) in specs().iter().zip(pinned).enumerate() {
            let mut h = Fnv::new();
            for (k, device) in faulty.iter().enumerate() {
                let mut rng = SeededRng::new(seed ^ 0xBAC0).fork(k as u64);
                h.tensor(&spec.instantiate(device, &mut rng).infer(&probes));
            }
            if h.0 != want {
                failures.push(format!("{name}, spec {j} ({spec:?}): digest 0x{:016x}", h.0));
            }
        }
    }
    assert!(failures.is_empty(), "faulted logits moved:\n{}", failures.join("\n"));
}
