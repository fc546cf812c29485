//! Fault localization: which layer of a degraded accelerator is hurting
//! the concurrent-test responses, and which of its cells look stuck.
//!
//! The paper's detector answers *whether* a deployed accelerator is
//! faulty; a repair needs to know *where*. [`diagnose`] answers that with
//! two probes, both reusing the detector's pattern set:
//!
//! 1. **Containment probe** — an
//!    [`InferenceBackend::infer_checked`] replay of the patterns. A
//!    device whose weights went non-finite is localized outright to the
//!    first poisoned layer.
//! 2. **Substitution ranking** — for every conductance-mapped parameter,
//!    a hybrid network (golden weights everywhere except that one layer,
//!    which takes the device's weights) is scored by golden-response
//!    distance. The layer whose substitution moves the responses furthest
//!    carries the most damage. The probes share one walk down the golden
//!    layers: each branches off at the layer that owns its key, through a
//!    [`MatmulEngine`] that hands in the device tensor, so the golden
//!    prefix is computed once and no network is cloned.
//!
//! [`estimate_stuck_cells`] complements the ranking with a march-readback
//! style defect estimate: cells whose device value deviates from the
//! reference by more than a tolerance are flagged as stuck at their read
//! value.

use crate::confidence::{ConfidenceDistance, ResponseSet};
use crate::detect::Detector;
use healthmon_nn::{DigitalEngine, InferenceBackend, MatmulEngine, Network, PatchMap};
use healthmon_repair::{DefectMap, StuckCell};
use healthmon_tensor::Tensor;
use healthmon_telemetry as tel;
use std::cell::Cell;

// One localization pass probes one substitution per mapped layer; both
// counts follow the device's layer structure deterministically (Stable).
static DIAGNOSE_RUNS: tel::Counter =
    tel::Counter::new("diagnose.runs", tel::Stability::Stable);
static DIAGNOSE_PROBES: tel::Counter =
    tel::Counter::new("diagnose.probes", tel::Stability::Stable);

/// One layer's entry in a [`Diagnosis`] ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDiagnosis {
    /// State-dict key of the suspect parameter (e.g. `layer0.weight`).
    pub key: String,
    /// Golden-response distance of the substitution probe: how far the
    /// responses move when *only* this layer takes the device's weights.
    pub distance: ConfidenceDistance,
}

/// The outcome of a localization pass over a degraded device.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// Suspect layers, most damaging first. Poisoned (non-finite)
    /// substitutions rank above every finite one.
    pub ranking: Vec<LayerDiagnosis>,
    /// The first layer index whose activations were non-finite when the
    /// device replayed the pattern set, if any (`usize::MAX` when the
    /// input itself was non-finite — impossible for stored patterns).
    pub poisoned_layer: Option<usize>,
}

impl Diagnosis {
    /// The most suspect layer, if any parameter was rankable.
    pub fn prime_suspect(&self) -> Option<&LayerDiagnosis> {
        self.ranking.first()
    }
}

/// Localizes the damage of `device` relative to `golden` using
/// `detector`'s pattern set.
///
/// The device may be a digital [`Network`] or any live analog backend:
/// the containment probe replays the patterns through the backend itself
/// (so analog non-finite poisoning is caught where it happens), and the
/// substitution ranking operates on the backend's effective-weight
/// read-back ([`InferenceBackend::readback`]).
///
/// Both probes are deterministic pure functions of the three inputs, so a
/// diagnosis replayed from a checkpoint is bit-identical.
///
/// # Panics
///
/// Panics if `device` was not derived from `golden` (mismatched parameter
/// keys or shapes), or if a golden layer holds a `*weight` parameter that
/// it does not route through its [`MatmulEngine`].
pub fn diagnose<B: InferenceBackend + ?Sized>(
    detector: &Detector,
    golden: &Network,
    device: &B,
) -> Diagnosis {
    DIAGNOSE_RUNS.inc();
    let _span = tel::span("diagnose");
    // Containment probe: does the device even produce finite activations?
    let poisoned_layer = device
        .infer_checked(detector.patterns().images())
        .err()
        .map(|e| e.layer);

    // Substitution ranking over conductance-mapped parameters: one walk
    // down the golden layers, each probe branching off at the top-level
    // layer that owns its key.
    let device_net = device.readback();
    let layers = golden.layers();
    let mut ranking = Vec::new();
    // `x` is the golden input of layer `at`.
    let (mut x, mut at) = (detector.patterns().images().clone(), 0);
    for (i, key, weight) in substitutions(golden, &device_net) {
        while at < i {
            x = layers[at].infer(&x, &format!("layer{at}"), &DigitalEngine);
            at += 1;
        }
        let engine = Substitute { key: &key, weight, received: Cell::new(false) };
        let mut logits = layers[i].infer(&x, &format!("layer{i}"), &engine);
        for (j, layer) in layers.iter().enumerate().skip(i + 1) {
            logits = layer.infer(&logits, &format!("layer{j}"), &engine);
        }
        assert!(engine.received.get(), "device parameter `{key}` never reached the matmul engine");
        DIAGNOSE_PROBES.inc();
        let distance =
            ConfidenceDistance::between(detector.golden(), &ResponseSet::from_logits(logits));
        ranking.push(LayerDiagnosis { key, distance });
    }
    // Most damaging first; poisoned distances are +inf so total_cmp ranks
    // them on top. Ties break on the key for determinism.
    ranking.sort_by(|a, b| {
        b.distance
            .all_classes
            .total_cmp(&a.distance.all_classes)
            .then_with(|| a.key.cmp(&b.key))
    });
    Diagnosis { ranking, poisoned_layer }
}

/// The device's `*weight` tensors in state-dict order, each with the
/// index of the top-level layer that owns its key (`layer3.conv1.weight`
/// belongs to layer 3).
///
/// # Panics
///
/// Panics if a device weight has no golden counterpart of the same shape.
fn substitutions<'d>(golden: &Network, device: &'d Network) -> Vec<(usize, String, &'d Tensor)> {
    let mut probes = Vec::new();
    for (i, layer) in device.layers().iter().enumerate() {
        for (name, weight) in layer.params() {
            if !name.ends_with("weight") {
                continue;
            }
            let key = format!("layer{i}.{name}");
            let reference = golden.layers().get(i).and_then(|g| {
                g.params().into_iter().find(|(n, _)| *n == name).map(|(_, t)| t)
            });
            let reference = reference
                .unwrap_or_else(|| panic!("device parameter `{key}` missing from the golden model"));
            assert_eq!(
                reference.shape(),
                weight.shape(),
                "device parameter `{key}` does not match the golden model"
            );
            probes.push((i, key, weight));
        }
    }
    probes
}

/// The golden network's digital arithmetic with the device's tensor
/// handed in for one weight key: a substitution probe without a cloned
/// network. `received` records that a layer asked for the key.
struct Substitute<'a> {
    key: &'a str,
    weight: &'a Tensor,
    received: Cell<bool>,
}

impl Substitute<'_> {
    fn tensor_for<'w>(&'w self, key: &str, golden: &'w Tensor) -> &'w Tensor {
        if key == self.key {
            self.received.set(true);
            self.weight
        } else {
            golden
        }
    }
}

impl MatmulEngine for Substitute<'_> {
    fn matmul_xw(&self, key: &str, x: &Tensor, w: &Tensor) -> Tensor {
        x.matmul(self.tensor_for(key, w))
    }

    fn matmul_wx(&self, key: &str, w: &Tensor, x: &Tensor) -> Tensor {
        self.tensor_for(key, w).matmul(x)
    }

    fn matmul_patches(&self, key: &str, w: &Tensor, x: &Tensor, patches: &PatchMap) -> Tensor {
        patches.matmul(self.tensor_for(key, w), x)
    }
}

/// March-readback style defect estimation: compares a device parameter
/// against its reference and flags every cell deviating by more than
/// `tolerance` as stuck at the device's read value.
///
/// This is a heuristic — smooth drift also moves weights — but it is what
/// an in-field readback can actually observe, and it feeds the same
/// [`DefectMap`] interface the repair hierarchy consumes.
///
/// # Panics
///
/// Panics if the tensors are not 2-D with identical shapes, or
/// `tolerance` is negative or non-finite.
pub fn estimate_stuck_cells(reference: &Tensor, device: &Tensor, tolerance: f32) -> DefectMap {
    assert!(
        tolerance.is_finite() && tolerance >= 0.0,
        "tolerance must be finite and non-negative, got {tolerance}"
    );
    assert_eq!(reference.ndim(), 2, "defect estimation operates on 2-D matrices");
    assert_eq!(reference.shape(), device.shape(), "reference and device shapes differ");
    let (rows, cols) = (reference.shape()[0], reference.shape()[1]);
    let mut cells = Vec::new();
    for row in 0..rows {
        for col in 0..cols {
            let r = reference.at(&[row, col]);
            let d = device.at(&[row, col]);
            if !d.is_finite() || (r - d).abs() > tolerance {
                cells.push(StuckCell { row, col, value: if d.is_finite() { d } else { 0.0 } });
            }
        }
    }
    DefectMap::new(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::TestPatternSet;
    use healthmon_faults::FaultModel;
    use healthmon_nn::layers::{Dense, Layer, ParamName};
    use healthmon_nn::models::tiny_mlp;
    use healthmon_nn::zoo::ZOO;
    use healthmon_reram::{AnalogBackend, BackendSpec, CellFault, CrossbarConfig};
    use healthmon_tensor::SeededRng;

    /// The substitution ranking as a clone of the golden network per
    /// probe, with the device tensor swapped in and the whole forward
    /// rerun through the detector. [`diagnose`] must match it bit for bit.
    fn clone_and_infer<B: InferenceBackend + ?Sized>(
        detector: &Detector,
        golden: &Network,
        device: &B,
    ) -> Diagnosis {
        let poisoned_layer = device
            .infer_checked(detector.patterns().images())
            .err()
            .map(|e| e.layer);
        let device_dict = device.readback().state_dict();
        let mut ranking = Vec::new();
        for (key, device_tensor) in &device_dict {
            if !key.ends_with("weight") {
                continue;
            }
            let mut probe = golden.clone();
            let mut replaced = false;
            probe.for_each_param_mut(|k, t| {
                if k == key {
                    assert_eq!(t.shape(), device_tensor.shape());
                    *t = device_tensor.clone();
                    replaced = true;
                }
            });
            assert!(replaced);
            let distance = detector.confidence_distance(&probe);
            ranking.push(LayerDiagnosis { key: key.clone(), distance });
        }
        ranking.sort_by(|a, b| {
            b.distance
                .all_classes
                .total_cmp(&a.distance.all_classes)
                .then_with(|| a.key.cmp(&b.key))
        });
        Diagnosis { ranking, poisoned_layer }
    }

    fn assert_matches_reference<B: InferenceBackend + ?Sized>(
        detector: &Detector,
        golden: &Network,
        device: &B,
        case: &str,
    ) {
        let bits = |d: &Diagnosis| -> Vec<(String, u32, u32)> {
            d.ranking
                .iter()
                .map(|l| {
                    (l.key.clone(), l.distance.top_ranked.to_bits(), l.distance.all_classes.to_bits())
                })
                .collect()
        };
        let walked = diagnose(detector, golden, device);
        let cloned = clone_and_infer(detector, golden, device);
        assert_eq!(bits(&walked), bits(&cloned), "{case}: ranking differs");
        assert_eq!(walked.poisoned_layer, cloned.poisoned_layer, "{case}: poisoned layer differs");
    }

    /// A zoo model and a detector over 10 of its own input patterns.
    fn zoo_setup(name: &str) -> (Network, Detector) {
        let spec = ZOO.iter().find(|s| s.name == name).expect("zoo model");
        let mut rng = SeededRng::new(19);
        let net = spec.build(&mut rng);
        let mut shape = vec![10];
        shape.extend_from_slice(spec.input_shape);
        let images = Tensor::rand_uniform(&shape, 0.0, 1.0, &mut rng);
        let detector = Detector::new(&net, TestPatternSet::new("zoo", images));
        (net, detector)
    }

    fn weight_keys(net: &Network) -> Vec<String> {
        let mut keys = Vec::new();
        net.for_each_param(|k, _| {
            if k.ends_with("weight") {
                keys.push(k.to_owned());
            }
        });
        keys
    }

    const ZOO_NAMES: [&str; 6] = ["mlp", "mlp4", "lenet5", "convnet7", "resnet8", "attention"];

    #[test]
    fn golden_walk_matches_clone_and_infer_on_damaged_digital_devices() {
        for name in ZOO_NAMES {
            let (net, detector) = zoo_setup(name);
            assert_matches_reference(&detector, &net, &net, &format!("{name} healthy"));
            for key in weight_keys(&net) {
                let mut device = net.clone();
                damage_layer(&mut device, &key, -0.5);
                assert_matches_reference(&detector, &net, &device, &format!("{name} {key}"));
            }
        }
    }

    #[test]
    fn golden_walk_matches_clone_and_infer_on_aged_crossbars() {
        let specs = [
            BackendSpec::analog(CrossbarConfig::default()),
            BackendSpec::bitsliced(CrossbarConfig::default(), 8),
        ];
        for name in ZOO_NAMES {
            let (net, detector) = zoo_setup(name);
            for spec in &specs {
                let mut rng = SeededRng::new(23);
                let mut device = AnalogBackend::program(&net, spec, &mut rng);
                device.drift(0.05, 1.0, &mut rng);
                device.inject_stuck_cells(CellFault::StuckLow, 0.01, &mut rng);
                let case = format!("{name} {}", spec.kind.label());
                assert_matches_reference(&detector, &net, &device, &case);
            }
        }
    }

    #[test]
    fn golden_walk_matches_clone_and_infer_on_subset_detectors() {
        for name in ZOO_NAMES {
            let (net, detector) = zoo_setup(name);
            let mut device = net.clone();
            FaultModel::ProgrammingVariation { sigma: 0.3 }.apply(&mut device, &mut SeededRng::new(29));
            for k in [2, 5] {
                let subset = detector.subset(k).unwrap();
                assert_matches_reference(&subset, &net, &device, &format!("{name} {k} of 10"));
            }
        }
    }

    #[test]
    fn golden_walk_matches_clone_and_infer_with_a_nan_weight() {
        for name in ZOO_NAMES {
            let (net, detector) = zoo_setup(name);
            let keys = weight_keys(&net);
            let middle = &keys[keys.len() / 2];
            let mut device = net.clone();
            device.for_each_param_mut(|k, t| {
                if k == middle {
                    t.as_mut_slice()[1] = f32::NAN;
                }
            });
            assert_matches_reference(&detector, &net, &device, &format!("{name} NaN in {middle}"));
        }
    }

    #[test]
    #[should_panic(expected = "does not match the golden model")]
    fn mismatched_shape_panics() {
        let (net, detector) = setup();
        let device = tiny_mlp(8, 12, 4, &mut SeededRng::new(3));
        diagnose(&detector, &net, &device);
    }

    #[test]
    #[should_panic(expected = "missing from the golden model")]
    fn key_missing_from_golden_panics() {
        let (net, detector) = setup();
        let mut device = net.clone();
        device.push(Dense::new(4, 4, &mut SeededRng::new(4)));
        diagnose(&detector, &net, &device);
    }

    /// Scales its input by a one-element `weight` without asking the
    /// matmul engine for it.
    #[derive(Debug, Clone)]
    struct OffEngineScale {
        weight: Tensor,
        grad: Tensor,
    }

    impl Layer for OffEngineScale {
        fn name(&self) -> &'static str {
            "off_engine_scale"
        }

        fn forward(&mut self, input: &Tensor) -> Tensor {
            self.infer(input, "", &DigitalEngine)
        }

        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.clone()
        }

        fn infer(&self, input: &Tensor, _key_prefix: &str, _engine: &dyn MatmulEngine) -> Tensor {
            let s = self.weight.as_slice()[0];
            input.map(|v| v * s)
        }

        fn params(&self) -> Vec<(ParamName, &Tensor)> {
            vec![("weight".into(), &self.weight)]
        }

        fn params_mut(&mut self) -> Vec<(ParamName, &mut Tensor, &mut Tensor)> {
            vec![("weight".into(), &mut self.weight, &mut self.grad)]
        }

        fn clone_box(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    #[test]
    #[should_panic(expected = "`layer1.weight` never reached the matmul engine")]
    fn weight_outside_the_engine_panics() {
        let mut rng = SeededRng::new(31);
        let mut net = Network::new(vec![8]);
        net.push(Dense::new(8, 6, &mut rng));
        let (weight, grad) = (Tensor::full(&[1], 0.5), Tensor::zeros(&[1]));
        net.push(OffEngineScale { weight, grad });
        net.push(Dense::new(6, 4, &mut rng));
        let patterns =
            TestPatternSet::new("t", Tensor::rand_uniform(&[4, 8], 0.0, 1.0, &mut rng));
        let detector = Detector::new(&net, patterns);
        diagnose(&detector, &net, &net);
    }

    fn setup() -> (Network, Detector) {
        let mut rng = SeededRng::new(3);
        let net = tiny_mlp(8, 16, 4, &mut rng);
        let patterns =
            TestPatternSet::new("t", Tensor::rand_uniform(&[10, 8], 0.0, 1.0, &mut rng));
        let detector = Detector::new(&net, patterns);
        (net, detector)
    }

    fn damage_layer(net: &mut Network, key: &str, scale: f32) {
        net.for_each_param_mut(|k, t| {
            if k == key {
                t.map_inplace(|v| v * scale);
            }
        });
    }

    #[test]
    fn healthy_device_ranks_everything_near_zero() {
        let (net, detector) = setup();
        let d = diagnose(&detector, &net, &net.clone());
        assert!(d.poisoned_layer.is_none());
        assert_eq!(d.ranking.len(), 2);
        for layer in &d.ranking {
            assert_eq!(layer.distance.all_classes, 0.0, "{} should be clean", layer.key);
        }
    }

    #[test]
    fn damaged_layer_ranks_first() {
        let (net, detector) = setup();
        for key in ["layer0.weight", "layer2.weight"] {
            let mut device = net.clone();
            damage_layer(&mut device, key, -2.0);
            let d = diagnose(&detector, &net, &device);
            assert_eq!(
                d.prime_suspect().unwrap().key,
                key,
                "damaged {key} must top the ranking"
            );
            assert!(d.prime_suspect().unwrap().distance.all_classes > 0.0);
        }
    }

    #[test]
    fn poisoned_device_is_localized() {
        let (net, detector) = setup();
        let mut device = net.clone();
        device.for_each_param_mut(|k, t| {
            if k == "layer2.weight" {
                t.as_mut_slice()[0] = f32::NAN;
            }
        });
        let d = diagnose(&detector, &net, &device);
        assert!(d.poisoned_layer.is_some());
        let suspect = d.prime_suspect().unwrap();
        assert_eq!(suspect.key, "layer2.weight");
        assert!(suspect.distance.is_poisoned());
    }

    #[test]
    fn diagnosis_is_deterministic() {
        let (net, detector) = setup();
        let mut device = net.clone();
        damage_layer(&mut device, "layer0.weight", 0.2);
        let a = diagnose(&detector, &net, &device);
        let b = diagnose(&detector, &net, &device);
        assert_eq!(a, b);
    }

    #[test]
    fn stuck_cell_estimation_finds_planted_defects() {
        let mut rng = SeededRng::new(5);
        let reference = Tensor::randn(&[6, 5], &mut rng);
        let mut device = reference.clone();
        *device.at_mut(&[1, 2]) = 0.0;
        *device.at_mut(&[4, 0]) = 9.0;
        *device.at_mut(&[5, 4]) = f32::NAN;
        let map = estimate_stuck_cells(&reference, &device, 3.0);
        // Only cells deviating by > 3.0 (or non-finite) are flagged.
        assert!(map.cells().iter().any(|c| c.row == 4 && c.col == 0 && c.value == 9.0));
        assert!(map.cells().iter().any(|c| c.row == 5 && c.col == 4 && c.value == 0.0));
        // Exact match below tolerance: identical tensors flag nothing.
        assert!(estimate_stuck_cells(&reference, &reference, 0.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "shapes differ")]
    fn estimation_rejects_shape_mismatch() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[2, 3]);
        estimate_stuck_cells(&a, &b, 0.1);
    }
}
