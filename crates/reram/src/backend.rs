//! The live crossbar inference backend: route every matmul of a network
//! through conductance-mapped crossbar state.
//!
//! [`healthmon_nn::InferenceBackend`] is the seam the detection stack
//! executes through; [`AnalogBackend`] is its crossbar implementation,
//! for analog and bit-sliced specs alike (each mapped weight is a
//! [`SlicedMatrix`]). Unlike [`crate::deploy`] — which reads effective
//! weights back into a digital network once — the backend keeps the
//! conductance state *live*: faults injected mid-lifetime
//! ([`AnalogBackend::drift`], [`AnalogBackend::stick_cell`], ...)
//! immediately change what the next forward pass computes, including
//! DAC/ADC quantization and multi-tile partial-sum effects the read-back
//! model cannot express.
//!
//! On integer-path-capable tile configurations (the default; see
//! [`CrossbarConfig::integer_path_capable`]) the crossbar slices execute
//! on the quantized `i32` hot path: activations become DAC codes once per
//! layer call, conductances are cached as differential integer codes, and
//! the ADC applies at tile boundaries. Conductance mutators (`drift`,
//! `stick_cell`, `scrub`, ...) invalidate the cached codes exactly like
//! the `f32` differential cache, so liveness is preserved.

use crate::{
    CellFault, CrossbarConfig, DeployReport, IrDropModel, LayerMapping, ScrubOutcome, SlicedMatrix,
    TiledMatrix,
};
use healthmon_nn::{
    InferenceBackend, MatmulEngine, MatmulOrientation, Network, NonFiniteActivation, PatchMap,
};
use healthmon_tensor::{SeededRng, Tensor};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::str::FromStr;

/// Which execution substrate runs the matmuls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Bit-identical digital reference (plain tensor GEMM).
    Digital,
    /// Differential-pair crossbars via [`TiledMatrix`].
    Analog,
    /// ISAAC-style bit-sliced crossbars via [`SlicedMatrix`].
    BitSliced,
}

impl BackendKind {
    /// Stable lower-case identifier (also the CLI flag value).
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Digital => "digital",
            BackendKind::Analog => "analog",
            BackendKind::BitSliced => "bitsliced",
        }
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "digital" => Ok(BackendKind::Digital),
            "analog" => Ok(BackendKind::Analog),
            "bitsliced" => Ok(BackendKind::BitSliced),
            other => Err(format!(
                "unknown backend `{other}` (expected digital, analog or bitsliced)"
            )),
        }
    }
}

/// A complete, copyable description of an execution backend — enough to
/// re-instantiate it deterministically from a network and a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendSpec {
    /// Substrate selector.
    pub kind: BackendKind,
    /// Crossbar tile parameters (ignored by the digital backend).
    pub crossbar: CrossbarConfig,
    /// Total magnitude bits per weight for the bit-sliced backend
    /// (sliced into `crossbar.cell_bits`-wide digits; ignored otherwise).
    pub weight_bits: u32,
    /// Wire resistance of the first-order IR-drop model applied once after
    /// programming; 0 disables IR drop.
    pub ir_drop: f32,
}

impl BackendSpec {
    /// The digital reference backend.
    pub fn digital() -> Self {
        BackendSpec {
            kind: BackendKind::Digital,
            crossbar: CrossbarConfig::default(),
            weight_bits: 8,
            ir_drop: 0.0,
        }
    }

    /// An analog crossbar backend with the given tile configuration.
    pub fn analog(crossbar: CrossbarConfig) -> Self {
        BackendSpec { kind: BackendKind::Analog, crossbar, weight_bits: 8, ir_drop: 0.0 }
    }

    /// A bit-sliced backend storing `weight_bits` magnitude bits per
    /// weight in `crossbar.cell_bits`-wide digit slices.
    pub fn bitsliced(crossbar: CrossbarConfig, weight_bits: u32) -> Self {
        BackendSpec { kind: BackendKind::BitSliced, crossbar, weight_bits, ir_drop: 0.0 }
    }

    /// Validates the specification.
    ///
    /// # Panics
    ///
    /// Panics if the crossbar config is invalid, the IR-drop resistance is
    /// negative or non-finite, or (bit-sliced only) `weight_bits` is not a
    /// positive multiple of `crossbar.cell_bits` within 16 bits.
    pub fn validate(&self) {
        if self.kind == BackendKind::Digital {
            return;
        }
        self.crossbar.validate();
        assert!(
            self.ir_drop >= 0.0 && self.ir_drop.is_finite(),
            "IR-drop resistance {} must be finite and non-negative",
            self.ir_drop
        );
        if self.kind == BackendKind::BitSliced {
            let cell = self.crossbar.cell_bits;
            assert!(
                cell >= 1
                    && self.weight_bits >= cell
                    && self.weight_bits.is_multiple_of(cell)
                    && self.weight_bits <= 16,
                "bit-sliced backend needs weight bits ({}) to be a positive multiple of cell bits ({cell}) within 16",
                self.weight_bits
            );
        }
    }

    /// Instantiates the backend over `net`.
    ///
    /// The digital backend *borrows* the network (zero-copy, bit-identical
    /// to calling [`Network::infer`] directly); analog and bit-sliced
    /// specs program a fresh [`AnalogBackend`] image from `rng`.
    pub fn instantiate<'a>(&self, net: &'a Network, rng: &mut SeededRng) -> ActiveBackend<'a> {
        match self.kind {
            BackendKind::Digital => ActiveBackend::Digital(net),
            BackendKind::Analog | BackendKind::BitSliced => {
                ActiveBackend::Crossbar(AnalogBackend::program(net, self, rng))
            }
        }
    }
}

impl Default for BackendSpec {
    fn default() -> Self {
        Self::digital()
    }
}

/// Programs one oriented weight matrix per `spec` and applies IR drop
/// when the spec enables it. The only code below [`BackendSpec`] that
/// tells the crossbar kinds apart.
fn program_matrix(oriented: &Tensor, spec: &BackendSpec, rng: &mut SeededRng) -> SlicedMatrix {
    let mut matrix = match spec.kind {
        BackendKind::Digital => unreachable!("digital backend maps no parameters"),
        BackendKind::Analog => SlicedMatrix::analog(oriented, &spec.crossbar, rng),
        BackendKind::BitSliced => SlicedMatrix::program(
            oriented,
            spec.weight_bits,
            spec.crossbar.cell_bits,
            &spec.crossbar,
            rng,
        ),
    };
    if spec.ir_drop > 0.0 {
        let model = IrDropModel::new(spec.ir_drop);
        for slice in matrix.slices_mut() {
            slice.apply_ir_drop(&model);
        }
    }
    matrix
}

/// One conductance-mapped layer: its crossbar state plus the orientation
/// needed to translate between the digital weight layout and the
/// programmed matrix (conv weights `[F, C·K·K]` are programmed transposed
/// so the crossbar contraction runs over the `C·K·K` word lines).
#[derive(Debug, Clone)]
struct MappedLayer {
    matrix: SlicedMatrix,
    orientation: MatmulOrientation,
}

impl MappedLayer {
    /// Maps digital weight coordinates to programmed-matrix coordinates.
    fn physical(&self, row: usize, col: usize) -> (usize, usize) {
        match self.orientation {
            MatmulOrientation::XW => (row, col),
            MatmulOrientation::WX => (col, row),
        }
    }

    /// Orients a digital weight tensor into the programmed layout.
    fn orient(&self, digital: &Tensor) -> Tensor {
        match self.orientation {
            MatmulOrientation::XW => digital.clone(),
            MatmulOrientation::WX => digital.transpose(),
        }
    }

    /// Reads the effective weights back in the digital layout.
    fn readback_digital(&self) -> Tensor {
        let eff = self.matrix.effective_weights();
        match self.orientation {
            MatmulOrientation::XW => eff,
            MatmulOrientation::WX => eff.transpose(),
        }
    }
}

/// Live crossbar backend, analog or bit-sliced: the digital network (for
/// structure, biases, and non-matmul layers) plus a [`SlicedMatrix`] of
/// live conductance state for every conductance-mapped weight, routed
/// into inference through [`MatmulEngine`]. Each matmul runs with DAC/ADC
/// conversion on every slice and, when bit-sliced, shift-add
/// recombination.
#[derive(Debug, Clone)]
pub struct AnalogBackend<'a> {
    /// Borrowed at program time (campaign workloads program thousands of
    /// short-lived backends and must not deep-copy every net); cloned
    /// lazily only if a layer rewrite has to update the digital weights.
    net: Cow<'a, Network>,
    spec: BackendSpec,
    layers: BTreeMap<String, MappedLayer>,
    /// Whether online parity tolerance is enabled (sticky: layer
    /// rewrites re-enable it on the fresh crossbar state).
    parity: bool,
}

impl<'a> AnalogBackend<'a> {
    /// Programs every conductance-mapped weight of `net` onto crossbar
    /// state per `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is invalid or digital.
    pub fn program(net: &'a Network, spec: &BackendSpec, rng: &mut SeededRng) -> Self {
        spec.validate();
        assert!(spec.kind != BackendKind::Digital, "digital backend needs no mapping");
        let mut orientations = BTreeMap::new();
        for (i, layer) in net.layers().iter().enumerate() {
            // Composite layers (residual blocks, attention) expose several
            // mappable matmuls under compound param names; one-weight
            // layers report their single `"weight"` entry via the default.
            for (name, o) in layer.matmuls() {
                orientations.insert(format!("layer{i}.{name}"), o);
            }
        }
        let mut layers = BTreeMap::new();
        net.for_each_param(|key, tensor| {
            let Some(&orientation) = orientations.get(key) else { return };
            // XW weights are already in the programmed layout — map them
            // in place; only WX needs a transposed copy.
            let matrix = match orientation {
                MatmulOrientation::XW => program_matrix(tensor, spec, rng),
                MatmulOrientation::WX => program_matrix(&tensor.transpose(), spec, rng),
            };
            layers.insert(key.to_owned(), MappedLayer { matrix, orientation });
        });
        AnalogBackend { net: Cow::Borrowed(net), spec: *spec, layers, parity: false }
    }

    /// Severs the borrow of the source network by deep-copying it into
    /// the backend — for callers that store the backend beyond the
    /// network's lifetime (e.g. a deployed device). A no-op copy if a
    /// rewrite already forced ownership.
    pub fn into_owned(self) -> AnalogBackend<'static> {
        AnalogBackend {
            net: Cow::Owned(self.net.into_owned()),
            spec: self.spec,
            layers: self.layers,
            parity: self.parity,
        }
    }

    /// The digital network the backend was programmed from (structure,
    /// biases, and the pre-mapping weights).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The specification this backend was programmed with.
    pub fn spec(&self) -> &BackendSpec {
        &self.spec
    }

    /// Every slice of every mapped layer: layers in key order, LSB slice
    /// first. The aging mutators draw one continuous RNG stream in this
    /// order.
    fn slices_mut(&mut self) -> impl Iterator<Item = &mut TiledMatrix> {
        self.layers.values_mut().flat_map(|layer| layer.matrix.slices_mut().iter_mut())
    }

    /// Freezes a fraction of cells across every mapped layer.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn inject_stuck_cells(&mut self, fault: CellFault, fraction: f64, rng: &mut SeededRng) {
        for slice in self.slices_mut() {
            slice.inject_stuck_cells(fault, fraction, rng);
        }
    }

    /// Applies lognormal conductance disturbance to every mapped layer.
    pub fn disturb(&mut self, sigma: f32, rng: &mut SeededRng) {
        for slice in self.slices_mut() {
            slice.disturb(sigma, rng);
        }
    }

    /// Applies conductance drift to every mapped layer.
    pub fn drift(&mut self, nu: f32, time: f32, rng: &mut SeededRng) {
        for slice in self.slices_mut() {
            slice.drift(nu, time, rng);
        }
    }

    /// Flips cells with the given probability across every mapped layer
    /// (one continuous RNG stream) — sparse transient soft errors, the
    /// device-level image of the digital `RandomSoftError` fault. Returns
    /// the flipped cell count.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is not in `[0, 1]`.
    pub fn flip_cells(&mut self, probability: f64, rng: &mut SeededRng) -> usize {
        self.slices_mut().map(|slice| slice.flip_cells(probability, rng)).sum()
    }

    /// Enables online soft-error tolerance: every tile captures XOR parity
    /// checksums over its conductance planes, and layer rewrites keep
    /// parity enabled on the fresh state.
    pub fn enable_parity(&mut self) {
        self.parity = true;
        for slice in self.slices_mut() {
            slice.enable_parity();
        }
    }

    /// Re-baselines every tile's parity checksums to the current
    /// conductances (acknowledging writes or expected aging).
    pub fn refresh_parity(&mut self) {
        for slice in self.slices_mut() {
            slice.refresh_parity();
        }
    }

    /// Scrubs every tile in-situ against its parity checksums, restoring
    /// correctable transient flips bitwise. Returns the merged outcome
    /// (empty when parity was never enabled).
    pub fn scrub_parity(&mut self) -> ScrubOutcome {
        let mut outcome = ScrubOutcome::default();
        for slice in self.slices_mut() {
            outcome.merge(slice.scrub_parity());
        }
        outcome
    }

    /// Freezes one weight (digital coordinates within the named parameter)
    /// at the given value.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not conductance-mapped or the coordinates are
    /// out of bounds.
    pub fn stick_cell(&mut self, key: &str, row: usize, col: usize, weight: f32) {
        let layer = self
            .layers
            .get_mut(key)
            .unwrap_or_else(|| panic!("`{key}` is not a conductance-mapped parameter"));
        let (pr, pc) = layer.physical(row, col);
        layer.matrix.stick_cell(pr, pc, weight);
    }

    /// Reprograms one mapped parameter with new digital weights
    /// (repair/reprogramming path); IR drop is re-applied if the spec
    /// enables it.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not conductance-mapped.
    pub fn write_layer(&mut self, key: &str, weights: &Tensor, rng: &mut SeededRng) {
        let layer = self
            .layers
            .get_mut(key)
            .unwrap_or_else(|| panic!("`{key}` is not a conductance-mapped parameter"));
        layer.matrix = program_matrix(&layer.orient(weights), &self.spec, rng);
        if self.parity {
            for slice in layer.matrix.slices_mut() {
                slice.enable_parity();
            }
        }
        self.net.to_mut().for_each_param_mut(|k, tensor| {
            if k == key {
                *tensor = weights.clone();
            }
        });
    }

    /// Profiles the backend against its digital reference on a probe
    /// batch: per-layer tile counts, area utilization, ADC range usage,
    /// mapping error, and digital-vs-analog logit divergence.
    pub fn deploy_report(&self, probe: &Tensor) -> DeployReport {
        let digital = self.net.infer(probe);
        let recorder = RecordingEngine { inner: self, peaks: RefCell::new(BTreeMap::new()) };
        let analog = self.net.infer_with(probe, &recorder);
        let batch = probe.shape()[0].max(1) as f32;
        let divergence = digital.l1_distance(&analog) / batch;
        let peaks = recorder.peaks.into_inner();
        let mut mappings = Vec::new();
        self.net.for_each_param(|key, tensor| {
            let Some(layer) = self.layers.get(key) else { return };
            let realized = layer.readback_digital();
            let full_scale = layer.matrix.adc_full_scale();
            mappings.push(LayerMapping {
                key: key.to_owned(),
                shape: (tensor.shape()[0], tensor.shape()[1]),
                tiles: layer.matrix.tile_count(),
                mapping_error_l1: tensor.l1_distance(&realized),
                utilization: layer.matrix.utilization(&self.spec.crossbar),
                adc_range_used: peaks
                    .get(key)
                    .map(|&p| if full_scale > 0.0 { p / full_scale } else { 0.0 })
                    .unwrap_or(0.0),
            });
        });
        DeployReport { mappings, logit_divergence: Some(divergence) }
    }
}

impl MatmulEngine for AnalogBackend<'_> {
    fn matmul_xw(&self, key: &str, x: &Tensor, w: &Tensor) -> Tensor {
        match self.layers.get(key) {
            Some(layer) => layer.matrix.matmul(x),
            None => x.matmul(w),
        }
    }

    fn matmul_wx(&self, key: &str, w: &Tensor, x: &Tensor) -> Tensor {
        match self.layers.get(key) {
            // W·X = (Xᵀ·Wᵀ)ᵀ with Wᵀ programmed on the tiles, read in
            // place by the column-layout product.
            Some(layer) => layer.matrix.matmul_cols(x),
            None => w.matmul(x),
        }
    }

    fn matmul_patches(&self, key: &str, w: &Tensor, x: &Tensor, patches: &PatchMap) -> Tensor {
        match self.layers.get(key) {
            Some(layer) => layer.matrix.matmul_patches(x, patches),
            None => patches.matmul(w, x),
        }
    }
}

impl InferenceBackend for AnalogBackend<'_> {
    fn infer(&self, input: &Tensor) -> Tensor {
        self.net.infer_with(input, self)
    }

    fn infer_checked(&self, input: &Tensor) -> Result<Tensor, NonFiniteActivation> {
        self.net.infer_checked_with(input, self)
    }

    fn backend_name(&self) -> &'static str {
        self.spec.kind.label()
    }

    fn readback(&self) -> Network {
        let mut net = self.net.as_ref().clone();
        net.for_each_param_mut(|key, tensor| {
            if let Some(layer) = self.layers.get(key) {
                *tensor = layer.readback_digital();
            }
        });
        net
    }
}

/// A [`MatmulEngine`] that delegates to crossbar state while recording the
/// peak output magnitude per mapped layer — used by
/// [`AnalogBackend::deploy_report`] to estimate ADC range utilization.
struct RecordingEngine<'a> {
    inner: &'a AnalogBackend<'a>,
    peaks: RefCell<BTreeMap<String, f32>>,
}

impl RecordingEngine<'_> {
    fn record(&self, key: &str, out: &Tensor) {
        if self.inner.layers.contains_key(key) {
            let peak = out.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let mut peaks = self.peaks.borrow_mut();
            let entry = peaks.entry(key.to_owned()).or_insert(0.0);
            *entry = entry.max(peak);
        }
    }
}

impl MatmulEngine for RecordingEngine<'_> {
    fn matmul_xw(&self, key: &str, x: &Tensor, w: &Tensor) -> Tensor {
        let out = self.inner.matmul_xw(key, x, w);
        self.record(key, &out);
        out
    }

    fn matmul_wx(&self, key: &str, w: &Tensor, x: &Tensor) -> Tensor {
        let out = self.inner.matmul_wx(key, w, x);
        self.record(key, &out);
        out
    }

    fn matmul_patches(&self, key: &str, w: &Tensor, x: &Tensor, patches: &PatchMap) -> Tensor {
        let out = self.inner.matmul_patches(key, w, x, patches);
        self.record(key, &out);
        out
    }
}

/// A backend instantiated from a [`BackendSpec`]: the digital variant
/// borrows the network (bit-identical, zero-copy); the crossbar variant
/// owns programmed conductance state.
#[derive(Debug)]
pub enum ActiveBackend<'a> {
    /// Borrowed digital reference.
    Digital(&'a Network),
    /// Analog or bit-sliced crossbar state borrowing the programmed net.
    Crossbar(AnalogBackend<'a>),
}

impl InferenceBackend for ActiveBackend<'_> {
    fn infer(&self, input: &Tensor) -> Tensor {
        match self {
            ActiveBackend::Digital(net) => net.infer(input),
            ActiveBackend::Crossbar(b) => b.infer(input),
        }
    }

    fn infer_checked(&self, input: &Tensor) -> Result<Tensor, NonFiniteActivation> {
        match self {
            ActiveBackend::Digital(net) => net.infer_checked(input),
            ActiveBackend::Crossbar(b) => b.infer_checked(input),
        }
    }

    fn backend_name(&self) -> &'static str {
        match self {
            ActiveBackend::Digital(_) => "digital",
            ActiveBackend::Crossbar(b) => b.backend_name(),
        }
    }

    fn readback(&self) -> Network {
        match self {
            ActiveBackend::Digital(net) => (*net).clone(),
            ActiveBackend::Crossbar(b) => b.readback(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use healthmon_nn::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
    use healthmon_nn::models::tiny_mlp;

    /// A small conv net exercising the transposed (WX) programming path.
    fn tiny_cnn(rng: &mut SeededRng) -> Network {
        let mut net = Network::new(vec![1, 8, 8]);
        net.push(Conv2d::new(1, 4, 3, 1, 1, rng));
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2));
        net.push(Flatten::new());
        net.push(Dense::new(4 * 4 * 4, 5, rng));
        net
    }

    fn exact_spec() -> BackendSpec {
        BackendSpec::analog(CrossbarConfig { rows: 4096, cols: 4096, ..CrossbarConfig::exact() })
    }

    #[test]
    fn kind_parses_and_labels() {
        for kind in [BackendKind::Digital, BackendKind::Analog, BackendKind::BitSliced] {
            assert_eq!(kind.label().parse::<BackendKind>().unwrap(), kind);
        }
        assert!("quantum".parse::<BackendKind>().is_err());
    }

    #[test]
    fn exact_analog_is_bitwise_digital_on_mlp() {
        let mut rng = SeededRng::new(1);
        let net = tiny_mlp(12, 16, 5, &mut rng);
        let backend = AnalogBackend::program(&net, &exact_spec(), &mut rng);
        let x = Tensor::randn(&[4, 12], &mut rng);
        assert_eq!(backend.infer(&x), net.infer(&x));
        assert_eq!(backend.infer_checked(&x).unwrap(), net.infer(&x));
    }

    #[test]
    fn exact_analog_is_bitwise_digital_on_cnn() {
        let mut rng = SeededRng::new(2);
        let net = tiny_cnn(&mut rng);
        let backend = AnalogBackend::program(&net, &exact_spec(), &mut rng);
        let x = Tensor::randn(&[2, 1, 8, 8], &mut rng);
        assert_eq!(backend.infer(&x), net.infer(&x), "conv path must be bitwise digital");
    }

    #[test]
    fn exact_readback_matches_weights() {
        let mut rng = SeededRng::new(3);
        let net = tiny_mlp(6, 8, 3, &mut rng);
        let backend = AnalogBackend::program(&net, &exact_spec(), &mut rng);
        let back = InferenceBackend::readback(&backend);
        let mut pairs = Vec::new();
        net.for_each_param(|k, t| pairs.push((k.to_owned(), t.clone())));
        back.for_each_param(|k, t| {
            let (_, orig) = pairs.iter().find(|(pk, _)| pk == k).unwrap();
            if k.ends_with("weight") {
                for (a, b) in orig.as_slice().iter().zip(t.as_slice()) {
                    assert!((a - b).abs() < 1e-7, "{k}: {a} vs {b}");
                }
            } else {
                assert_eq!(orig, t, "{k} (not mapped) must be untouched");
            }
        });
    }

    #[test]
    fn bitsliced_backend_approximates_digital() {
        let mut rng = SeededRng::new(4);
        let net = tiny_mlp(10, 14, 4, &mut rng);
        let spec = BackendSpec::bitsliced(
            CrossbarConfig { cell_bits: 4, dac_bits: 0, adc_bits: 0, ..CrossbarConfig::default() },
            16,
        );
        let backend = AnalogBackend::program(&net, &spec, &mut rng);
        assert_eq!(backend.backend_name(), "bitsliced");
        let x = Tensor::randn(&[3, 10], &mut rng).map(|v| v.clamp(-1.0, 1.0));
        let analog = backend.infer(&x);
        let digital = net.infer(&x);
        let rel = analog.l1_distance(&digital) / digital.norm_l1().max(1e-6);
        assert!(rel < 0.05, "16-bit sliced weights diverge too much: {rel}");
    }

    #[test]
    fn live_faults_change_inference() {
        let mut rng = SeededRng::new(5);
        let net = tiny_mlp(8, 10, 4, &mut rng);
        let mut backend = AnalogBackend::program(&net, &exact_spec(), &mut rng);
        let x = Tensor::randn(&[2, 8], &mut rng);
        let clean = backend.infer(&x);
        backend.inject_stuck_cells(CellFault::StuckHigh, 0.3, &mut rng);
        let faulty = backend.infer(&x);
        assert!(clean.l1_distance(&faulty) > 1e-3, "stuck cells must perturb live inference");
        // And the read-back reflects the faults.
        let back = InferenceBackend::readback(&backend);
        assert!(net.infer(&x).l1_distance(&back.infer(&x)) > 1e-3);
    }

    #[test]
    fn stick_cell_respects_orientation() {
        let mut rng = SeededRng::new(6);
        let net = tiny_cnn(&mut rng);
        let mut backend = AnalogBackend::program(&net, &exact_spec(), &mut rng);
        // layer0 is a conv: weight [F, C·K·K], programmed transposed.
        backend.stick_cell("layer0.weight", 1, 3, 0.5);
        let back = InferenceBackend::readback(&backend);
        back.for_each_param(|k, t| {
            if k == "layer0.weight" {
                assert!((t.at(&[1, 3]) - 0.5).abs() < 1e-6, "got {}", t.at(&[1, 3]));
            }
        });
    }

    #[test]
    fn write_layer_reprograms() {
        let mut rng = SeededRng::new(7);
        let net = tiny_mlp(6, 8, 3, &mut rng);
        let mut backend = AnalogBackend::program(&net, &exact_spec(), &mut rng);
        backend.inject_stuck_cells(CellFault::StuckHigh, 1.0, &mut rng);
        let mut fresh = None;
        net.for_each_param(|k, t| {
            if k == "layer0.weight" {
                fresh = Some(t.clone());
            }
        });
        backend.write_layer("layer0.weight", &fresh.unwrap(), &mut rng);
        let back = InferenceBackend::readback(&backend);
        back.for_each_param(|k, t| {
            if k == "layer0.weight" {
                let mut orig = None;
                net.for_each_param(|k2, t2| {
                    if k2 == k {
                        orig = Some(t2.clone());
                    }
                });
                assert!(orig.unwrap().l1_distance(t) < 1e-6, "rewrite did not restore weights");
            }
        });
    }

    #[test]
    fn deploy_report_profiles_layers() {
        let mut rng = SeededRng::new(8);
        let net = tiny_mlp(8, 12, 4, &mut rng);
        let spec = BackendSpec::analog(CrossbarConfig::default());
        let backend = AnalogBackend::program(&net, &spec, &mut rng);
        let probe = Tensor::randn(&[5, 8], &mut rng).map(|v| v.clamp(-1.0, 1.0));
        let report = backend.deploy_report(&probe);
        assert_eq!(report.mappings.len(), 2);
        let divergence = report.logit_divergence.expect("profiled report has divergence");
        assert!(divergence.is_finite() && divergence >= 0.0);
        for m in &report.mappings {
            assert!(m.utilization > 0.0 && m.utilization <= 1.0, "utilization {}", m.utilization);
            assert!(
                m.adc_range_used > 0.0 && m.adc_range_used <= 1.0,
                "adc range {}",
                m.adc_range_used
            );
            assert!(m.tiles >= 1);
        }
    }

    #[test]
    fn instantiate_digital_borrows() {
        let mut rng = SeededRng::new(9);
        let net = tiny_mlp(5, 6, 3, &mut rng);
        let x = Tensor::randn(&[2, 5], &mut rng);
        let spec = BackendSpec::digital();
        let active = spec.instantiate(&net, &mut rng);
        assert_eq!(active.backend_name(), "digital");
        assert_eq!(active.infer(&x), net.infer(&x));
        let analog = exact_spec().instantiate(&net, &mut rng);
        assert_eq!(analog.backend_name(), "analog");
        assert_eq!(analog.infer(&x), net.infer(&x));
    }

    #[test]
    #[should_panic(expected = "digital backend needs no mapping")]
    fn program_rejects_a_digital_spec() {
        let mut rng = SeededRng::new(10);
        let net = tiny_mlp(4, 5, 2, &mut rng);
        AnalogBackend::program(&net, &BackendSpec::digital(), &mut rng);
    }

    #[test]
    fn aging_and_ir_drop_reach_every_slice_of_every_layer() {
        let mut rng = SeededRng::new(11);
        let net = tiny_cnn(&mut rng);
        // 8-bit weights over 2-bit cells: four slices per mapped layer.
        let config = CrossbarConfig { cell_bits: 2, ..CrossbarConfig::ideal() };
        let spec = BackendSpec::bitsliced(config, 8);
        let slices = |backend: &mut AnalogBackend| -> Vec<Tensor> {
            backend.slices_mut().map(|slice| slice.effective_weights()).collect()
        };
        let pristine = AnalogBackend::program(&net, &spec, &mut rng.fork(1));
        let before = slices(&mut pristine.clone());
        assert_eq!(before.len(), pristine.layers.len() * 4, "the walk must visit every slice");
        let mut drifted = pristine.clone();
        drifted.drift(0.5, 3.0, &mut rng);
        let mut stuck = pristine.clone();
        stuck.inject_stuck_cells(CellFault::StuckHigh, 0.5, &mut rng);
        let ir_spec = BackendSpec { ir_drop: 0.05, ..spec };
        let dropped = AnalogBackend::program(&net, &ir_spec, &mut rng.fork(1));
        let aged = [("drift", drifted), ("stuck cells", stuck), ("IR drop", dropped)];
        for (what, mut backend) in aged {
            for (k, (was, now)) in before.iter().zip(slices(&mut backend)).enumerate() {
                assert!(was.l1_distance(&now) > 0.0, "{what} left slice {k} untouched");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive multiple of cell bits")]
    fn bitsliced_spec_rejects_bad_bits() {
        BackendSpec::bitsliced(CrossbarConfig { cell_bits: 3, ..CrossbarConfig::default() }, 8)
            .validate();
    }
}
