//! Cross-backend equivalence and live-analog-state regression tests.
//!
//! The contract under test: an [`AnalogBackend`] configured with exact
//! cells (`cell_bits = 0`), ideal converters, zero write noise and no IR
//! drop computes **bit-identical** logits to the plain digital network —
//! on real paper-scale architectures, not just toy matrices. And the
//! other direction: faults injected into *live* crossbar state (stuck
//! cells, drift) must invalidate the cached differential conductances and
//! change what the concurrent-test detector observes. Finally, the outputs
//! of realistic (quantized, tiled, IR-dropped, bit-sliced) crossbars are
//! pinned by digest, so a refactor of the crossbar layer cannot move them.

use healthmon::{BackendSpec, CrossbarConfig, Detector, InferenceBackend, TestPatternSet};
use healthmon_nn::models::{convnet7, lenet5, tiny_mlp};
use healthmon_nn::zoo;
use healthmon_nn::Network;
use healthmon_reram::{AnalogBackend, CellFault};
use healthmon_tensor::{SeededRng, Tensor};

/// Exact-mode analog spec large enough for every paper-scale layer
/// (crossbars allocate the actual matrix shape, not the tile geometry).
fn exact_spec() -> BackendSpec {
    BackendSpec::analog(CrossbarConfig { rows: 4096, cols: 4096, ..CrossbarConfig::exact() })
}

fn assert_bitwise_eq(digital: &Tensor, analog: &Tensor, what: &str) {
    assert_eq!(digital.shape(), analog.shape(), "{what}: shape mismatch");
    for (i, (d, a)) in digital.as_slice().iter().zip(analog.as_slice()).enumerate() {
        assert_eq!(
            d.to_bits(),
            a.to_bits(),
            "{what}: logit {i} diverges (digital {d} vs analog {a})"
        );
    }
}

#[test]
fn exact_analog_is_bit_identical_to_digital_on_lenet5() {
    let mut rng = SeededRng::new(11);
    let net = lenet5(&mut rng);
    let images = Tensor::rand_uniform(&[4, 1, 28, 28], 0.0, 1.0, &mut rng);
    let backend = AnalogBackend::program(&net, &exact_spec(), &mut rng);
    assert_bitwise_eq(&net.infer(&images), &backend.infer(&images), "lenet5");
}

#[test]
fn exact_analog_is_bit_identical_to_digital_on_convnet7() {
    let mut rng = SeededRng::new(12);
    let net = convnet7(&mut rng);
    let images = Tensor::rand_uniform(&[3, 3, 32, 32], 0.0, 1.0, &mut rng);
    let backend = AnalogBackend::program(&net, &exact_spec(), &mut rng);
    assert_bitwise_eq(&net.infer(&images), &backend.infer(&images), "convnet7");
}

#[test]
fn exact_analog_readback_matches_digital_weights() {
    let mut rng = SeededRng::new(13);
    let net = lenet5(&mut rng);
    let backend = AnalogBackend::program(&net, &exact_spec(), &mut rng);
    let digital = net.state_dict();
    let readback = backend.readback().state_dict();
    for ((dk, dt), (rk, rt)) in digital.iter().zip(&readback) {
        assert_eq!(dk, rk);
        for (d, r) in dt.as_slice().iter().zip(rt.as_slice()) {
            // Exact mode programs -0.0 as +0.0; everything else is
            // bit-preserved.
            if *d == 0.0 && *r == 0.0 {
                continue;
            }
            assert_eq!(d.to_bits(), r.to_bits(), "`{dk}` diverges in read-back");
        }
    }
}

/// Regression for the PR 2 conductance cache: mutating *live* analog
/// state (stuck cells, drift) between detector evaluations must
/// invalidate the cached differential matrices, so the detector sees the
/// aged device — not a stale snapshot from before the fault.
#[test]
fn live_analog_faults_change_detection_responses() {
    let mut rng = SeededRng::new(21);
    let net = tiny_mlp(16, 32, 4, &mut rng);
    let patterns =
        TestPatternSet::new("t", Tensor::rand_uniform(&[8, 16], 0.0, 1.0, &mut rng));
    let detector = Detector::new(&net, patterns);

    let spec = BackendSpec::analog(CrossbarConfig::exact());
    let mut backend = AnalogBackend::program(&net, &spec, &mut rng);

    // Freshly programmed exact-mode backend: indistinguishable from the
    // golden network. This evaluation also populates the conductance
    // cache — the point of the test is that the mutations below evict it.
    let d0 = detector.confidence_distance(&backend);
    assert_eq!(d0.all_classes, 0.0, "exact analog baseline must match golden");

    backend.inject_stuck_cells(CellFault::StuckLow, 0.10, &mut rng);
    let d1 = detector.confidence_distance(&backend);
    let r1 = detector.responses(&backend);
    assert!(
        d1.all_classes > 0.0,
        "stuck cells on live conductances must move the detector (got {d1:?})"
    );

    backend.drift(0.5, 1.0, &mut rng);
    let d2 = detector.confidence_distance(&backend);
    let r2 = detector.responses(&backend);
    assert_ne!(r1, r2, "drift after stuck cells must change the responses again");
    assert!(d2.all_classes > 0.0, "drifted device must stay distinguishable (got {d2:?})");
}

/// The same live-fault visibility holds end-to-end through the monitor's
/// verdict, not just the raw distances.
#[test]
fn live_analog_faults_flip_the_verdict() {
    use healthmon::SdcCriterion;
    let mut rng = SeededRng::new(22);
    let net = tiny_mlp(16, 32, 4, &mut rng);
    let patterns =
        TestPatternSet::new("t", Tensor::rand_uniform(&[8, 16], 0.0, 1.0, &mut rng));
    let detector = Detector::new(&net, patterns);
    let spec = BackendSpec::analog(CrossbarConfig::exact());
    let mut backend = AnalogBackend::program(&net, &spec, &mut rng);
    let criterion = SdcCriterion::SdcA { threshold: 1e-4 };
    assert!(!detector.is_faulty(&backend, criterion), "fresh exact backend is healthy");
    backend.inject_stuck_cells(CellFault::StuckHigh, 0.25, &mut rng);
    assert!(detector.is_faulty(&backend, criterion), "injured backend must be flagged");
}

/// Probe batch in a zoo model's native input shape.
fn zoo_probes(spec: &zoo::ModelSpec, count: usize, rng: &mut SeededRng) -> Tensor {
    let mut shape = vec![count];
    shape.extend_from_slice(spec.input_shape);
    Tensor::rand_uniform(&shape, 0.0, 1.0, rng)
}

/// The exact-analog bit-identity contract is architecture-agnostic: every
/// registered zoo model — including the residual CNN, the deep MLP and
/// the attention block — must produce bitwise-digital logits on exact
/// crossbars. Adding a model to the registry adds it here automatically.
#[test]
fn exact_analog_is_bit_identical_to_digital_for_every_zoo_model() {
    for (i, spec) in zoo::ZOO.iter().enumerate() {
        let mut rng = SeededRng::new(31 + i as u64);
        let net = spec.build(&mut rng);
        let images = zoo_probes(spec, 3, &mut rng);
        let backend = AnalogBackend::program(&net, &exact_spec(), &mut rng);
        assert_bitwise_eq(&net.infer(&images), &backend.infer(&images), spec.name);
    }
}

/// Bit-sliced crossbars quantize each weight to a bounded-precision
/// magnitude before splitting it across cells, so bitwise equality with
/// the digital network is unattainable by construction. The contract is
/// instead: (a) programming is a pure function of (network, spec, seed) —
/// two same-seed programs are bitwise-identical to *each other* — and
/// (b) 16-bit sliced logits stay within a bounded relative envelope of
/// the digital reference, for every zoo architecture. The envelope is
/// loose (15%) because these are untrained random-init networks whose
/// logits nearly cancel, which inflates relative L1; it still catches
/// catastrophic divergence (wrong orientation, dropped slices, broken
/// recombination), which shows up as O(1) error.
#[test]
fn bitsliced_is_deterministic_and_bounded_for_every_zoo_model() {
    let spec16 = BackendSpec::bitsliced(
        CrossbarConfig { cell_bits: 4, dac_bits: 0, adc_bits: 0, ..CrossbarConfig::default() },
        16,
    );
    for (i, spec) in zoo::ZOO.iter().enumerate() {
        let mut rng = SeededRng::new(41 + i as u64);
        let net = spec.build(&mut rng);
        let images = zoo_probes(spec, 3, &mut rng);

        let a = AnalogBackend::program(&net, &spec16, &mut rng.fork(1)).infer(&images);
        let b = AnalogBackend::program(&net, &spec16, &mut rng.fork(1)).infer(&images);
        assert_bitwise_eq(&a, &b, &format!("{} (same-seed bitsliced reprogram)", spec.name));

        let digital = net.infer(&images);
        let rel = a.l1_distance(&digital) / digital.norm_l1().max(1e-6);
        assert!(rel < 0.15, "{}: 16-bit sliced logits diverge too much: {rel}", spec.name);
    }
}

/// Live stuck cells must flip the monitor's verdict on every zoo model:
/// the conductance cache is invalidated per-architecture, not just on the
/// MLPs the original regression used.
#[test]
fn stuck_cells_flip_the_verdict_for_every_zoo_model() {
    use healthmon::SdcCriterion;
    for (i, spec) in zoo::ZOO.iter().enumerate() {
        let mut rng = SeededRng::new(51 + i as u64);
        let net = spec.build(&mut rng);
        let patterns = TestPatternSet::new("zoo", zoo_probes(spec, 4, &mut rng));
        let detector = Detector::new(&net, patterns);
        let mut backend = AnalogBackend::program(&net, &exact_spec(), &mut rng);
        let criterion = SdcCriterion::SdcA { threshold: 1e-4 };
        assert!(
            !detector.is_faulty(&backend, criterion),
            "{}: fresh exact backend must be healthy",
            spec.name
        );
        backend.inject_stuck_cells(CellFault::StuckHigh, 0.25, &mut rng);
        assert!(
            detector.is_faulty(&backend, criterion),
            "{}: stuck cells must flip the verdict",
            spec.name
        );
    }
}

/// FNV-1a over everything folded in: shapes and lengths as u64, floats as
/// their exact bit patterns.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f32(&mut self, v: f32) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn tensor(&mut self, t: &Tensor) {
        for &dim in t.shape() {
            self.u64(dim as u64);
        }
        for &v in t.as_slice() {
            self.f32(v);
        }
    }
}

/// The conductance-mapped weights of `net` in state-dict order, with
/// their digital tensors.
fn mapped_weights(net: &Network) -> Vec<(String, Tensor)> {
    let mut keys = Vec::new();
    for (i, layer) in net.layers().iter().enumerate() {
        for (name, _) in layer.matmuls() {
            keys.push(format!("layer{i}.{name}"));
        }
    }
    net.state_dict().into_iter().filter(|(key, _)| keys.contains(key)).collect()
}

/// The five crossbar specs the pinned digests cover.
fn pinned_specs() -> [BackendSpec; 5] {
    let tiles_64x48 = CrossbarConfig { rows: 64, cols: 48, ..CrossbarConfig::default() };
    let tiles_64x64 = CrossbarConfig { rows: 64, cols: 64, ..CrossbarConfig::default() };
    [
        BackendSpec::analog(CrossbarConfig::default()),
        BackendSpec { ir_drop: 0.02, ..BackendSpec::analog(tiles_64x48) },
        BackendSpec::analog(CrossbarConfig::exact()),
        BackendSpec::bitsliced(CrossbarConfig::default(), 8),
        BackendSpec { ir_drop: 0.01, ..BackendSpec::bitsliced(tiles_64x64, 16) },
    ]
}

/// Runs the whole crossbar surface on one spec and folds every output
/// into one digest: the logits after each step, the deploy report, the
/// flip and scrub counts, and the read-back weights.
fn script_digest(net: &Network, spec: &BackendSpec, probes: &Tensor, seed: u64) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut rng = SeededRng::new(seed);
    let mut backend = AnalogBackend::program(net, spec, &mut rng);
    h.tensor(&backend.infer(probes));
    let report = backend.deploy_report(probes);
    for m in &report.mappings {
        h.str(&m.key);
        for n in [m.shape.0, m.shape.1, m.tiles] {
            h.u64(n as u64);
        }
        for v in [m.mapping_error_l1, m.utilization, m.adc_range_used] {
            h.f32(v);
        }
    }
    h.f32(report.logit_divergence.expect("profiled report has a divergence"));
    backend.enable_parity();
    h.tensor(&backend.infer(probes));
    backend.drift(0.2, 3.0, &mut rng);
    h.tensor(&backend.infer(probes));
    backend.refresh_parity();
    h.u64(backend.flip_cells(0.002, &mut rng) as u64);
    h.tensor(&backend.infer(probes));
    let scrub = backend.scrub_parity();
    h.u64(scrub.corrected as u64);
    h.u64(scrub.uncorrectable as u64);
    h.tensor(&backend.infer(probes));
    backend.disturb(0.05, &mut rng);
    h.tensor(&backend.infer(probes));
    backend.inject_stuck_cells(CellFault::StuckLow, 0.01, &mut rng);
    h.tensor(&backend.infer(probes));
    backend.inject_stuck_cells(CellFault::StuckHigh, 0.01, &mut rng);
    h.tensor(&backend.infer(probes));
    let mapped = mapped_weights(net);
    let (first, first_weights) = &mapped[0];
    let (last, last_weights) = &mapped[mapped.len() - 1];
    backend.stick_cell(first, 0, 0, 0.5);
    let (rows, cols) = (last_weights.shape()[0], last_weights.shape()[1]);
    backend.stick_cell(last, rows - 1, cols - 1, -0.25);
    h.tensor(&backend.infer(probes));
    backend.write_layer(first, &first_weights.map(|v| v * 0.5), &mut rng);
    h.tensor(&backend.infer(probes));
    for (key, tensor) in backend.readback().state_dict() {
        h.str(&key);
        h.tensor(&tensor);
    }
    let owned = backend.into_owned();
    h.tensor(&owned.infer(probes));
    let active = spec.instantiate(net, &mut SeededRng::new(seed ^ 0xA5));
    h.str(active.backend_name());
    h.tensor(&active.infer(probes));
    h.0
}

/// Per zoo model, the digest of each [`pinned_specs`] entry, captured from
/// the build that still had separate analog and bit-sliced backend types.
#[rustfmt::skip]
const PINNED_DIGESTS: [(&str, [u64; 5]); 6] = [
    ("lenet5", [
        0xe8dfb18e7e6987fd, 0xe683cbc8ff922c3a, 0x2d6754eaba829a79, 0x8ad48b4159ce1bc6,
        0x5e2ec060e16707dd,
    ]),
    ("convnet7", [
        0xa157ec12ca3bf387, 0xf8fdeef4034a56fe, 0x15470dc5074e79f5, 0xa140c3353322d263,
        0x6992e225d6a42d8f,
    ]),
    ("mlp", [
        0xba65e0ea74caa03e, 0x0a920c94ab4c41da, 0x0218034b87016ab8, 0x780425634a4c4108,
        0x6fd90781505c4858,
    ]),
    ("resnet8", [
        0xc592bae2f59447e5, 0x0c9d6119a6a04393, 0x1b5152fb5d6e8644, 0x26199ff0ea7ed036,
        0xfd11f05b5323399a,
    ]),
    ("mlp4", [
        0x7ef3853da7393c23, 0xd953636b2a79bbee, 0x60ca628bf7981f5e, 0x872e02d9ec78c2d1,
        0x0b44b1d85e36c04e,
    ]),
    ("attention", [
        0xa10ac5ba4af194ee, 0x6d5573055535e8be, 0x69ab1bba733a0225, 0x75b7ce6a2ca13ad9,
        0x5996f25e1cfa40b6,
    ]),
];

/// Default-config crossbar outputs are pinned byte for byte, on analog
/// and bit-sliced specs alike: programming, reporting, every aging and
/// parity mutator, rewrites and read-back must keep their exact bits (and
/// RNG stream order) across refactors of the crossbar layer.
#[test]
fn crossbar_outputs_match_their_pinned_digests_for_every_zoo_model() {
    assert_eq!(zoo::ZOO.len(), PINNED_DIGESTS.len(), "pin a digest row for every zoo model");
    for (i, (model, (name, pinned))) in zoo::ZOO.iter().zip(&PINNED_DIGESTS).enumerate() {
        assert_eq!(model.name, *name);
        let mut rng = SeededRng::new(61 + i as u64);
        let net = model.build(&mut rng);
        let probes = zoo_probes(model, 3, &mut rng);
        for (j, (spec, &want)) in pinned_specs().iter().zip(pinned).enumerate() {
            let got = script_digest(&net, spec, &probes, 1000 * i as u64 + j as u64);
            assert_eq!(got, want, "{name}, spec {j} ({spec:?}): digest 0x{got:016x}");
        }
    }
}
