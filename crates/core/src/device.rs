//! The deployed device of a [`crate::LifetimeRuntime`]: one surface over
//! every execution backend, so each rung of the repair ladder has a
//! single code path.
//!
//! [`WeightDevice`] is the digital device, a weight-space [`Network`]
//! plus its parity planes; [`AnalogBackend`], the one crossbar backend
//! (analog or bit-sliced), implements the same [`Device`] surface over
//! its live conductance state. [`program`] is the only place that tells
//! digital and crossbar devices apart; [`restore`] rebuilds a digital
//! device from a checkpoint.

use crate::error::HealthmonError;
use crate::runtime::LifetimeConfig;
use healthmon_faults::FaultModel;
use healthmon_nn::{InferenceBackend, Network, NonFiniteActivation};
use healthmon_reram::{
    deploy, AnalogBackend, BackendKind, DeployReport, ParityCheck, ScrubOutcome,
};
use healthmon_tensor::{SeededRng, Tensor};

/// A deployed device the lifetime runtime ages and repairs. Cells are
/// addressed in the logical (digital) layout of a state-dict parameter.
pub(crate) trait Device: InferenceBackend + std::fmt::Debug + Send {
    /// The programmed image: structure, biases and the last written
    /// weights (crossbar aging shows only in the read-back).
    fn network(&self) -> &Network;
    /// Per-layer mapping report of the programming, profiled on `probe`.
    fn deploy_report(&self, probe: &Tensor) -> DeployReport;
    fn drift(&mut self, nu: f32, time: f32, rng: &mut SeededRng);
    /// Unhardened soft errors: weight flips on the digital device,
    /// lognormal read-disturb jitter on crossbars.
    fn soft_errors(&mut self, probability: f64, rng: &mut SeededRng);
    /// Hardened soft errors: the same weight flips on the digital device,
    /// sparse cell flips on crossbars, which (unlike dense jitter) a
    /// parity column can isolate.
    fn flip_cells(&mut self, probability: f64, rng: &mut SeededRng);
    fn stick_cell(&mut self, key: &str, row: usize, col: usize, weight: f32);
    fn write_layer(&mut self, key: &str, weights: &Tensor, rng: &mut SeededRng);
    /// Writes a retrained network. Crossbars write only the mapped
    /// weights, so their bias updates stay cloud-side.
    fn write_network(&mut self, net: Network, rng: &mut SeededRng);
    fn enable_parity(&mut self);
    fn refresh_parity(&mut self);
    fn scrub_parity(&mut self) -> ScrubOutcome;
    /// The parity planes a checkpoint records (crossbar tile parity is
    /// not checkpointed).
    fn parity_planes(&self) -> &[(String, ParityCheck)];
    fn clone_box(&self) -> Box<dyn Device>;
}

impl Clone for Box<dyn Device> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Programs `golden` onto a fresh device of the configured backend, with
/// parity enabled when the lifetime is hardened.
pub(crate) fn program(
    golden: &Network,
    config: &LifetimeConfig,
    rng: &mut SeededRng,
) -> Box<dyn Device> {
    // 'static: the runtime owns its device outright, so the crossbar
    // backend is severed from `golden` via `into_owned`.
    let mut device: Box<dyn Device> = match config.backend.kind {
        BackendKind::Digital => {
            let (net, report) = deploy(golden, &config.crossbar, rng);
            Box::new(WeightDevice { net, parity: Vec::new(), report })
        }
        BackendKind::Analog | BackendKind::BitSliced => {
            Box::new(AnalogBackend::program(golden, &config.backend, rng).into_owned())
        }
    };
    if config.hardened {
        device.enable_parity();
    }
    device
}

/// Rebuilds a checkpointed device without programming it: `golden`'s
/// structure with the checkpoint's effective weights, and its
/// digest-verified parity planes, which must match those weights. Only
/// digital devices are checkpointed.
pub(crate) fn restore(
    golden: &Network,
    weights: &[(String, Tensor)],
    parity: Vec<(String, ParityCheck)>,
) -> Result<Box<dyn Device>, HealthmonError> {
    let mut net = golden.clone();
    net.load_state_dict(weights)
        .map_err(|e| HealthmonError::CheckpointMismatch(e.to_string()))?;
    // Checkpoints are taken at an epoch boundary, where the parity
    // baseline always matches the device: a stored word that disagrees
    // with the restored weights means either the weights or the parity
    // were tampered with.
    for (key, check) in &parity {
        let (rows, cols) = check.shape();
        let mut consistent = false;
        net.for_each_param(|k, tensor| {
            if k == key {
                consistent = tensor.len() == rows * cols && check.verify(tensor.as_slice());
            }
        });
        if !consistent {
            return Err(HealthmonError::CheckpointMismatch(format!(
                "checkpointed parity for `{key}` does not match the \
                 restored device weights"
            )));
        }
    }
    // Nothing was programmed, so there is no mapping to report.
    let report = DeployReport { mappings: Vec::new(), logit_divergence: None };
    Ok(Box::new(WeightDevice { net, parity, report }))
}

/// The digital device: the deployed weight-space network, with parity
/// planes over its mapped weights once parity is enabled.
#[derive(Debug, Clone)]
struct WeightDevice {
    net: Network,
    parity: Vec<(String, ParityCheck)>,
    report: DeployReport,
}

impl InferenceBackend for WeightDevice {
    fn infer(&self, input: &Tensor) -> Tensor {
        self.net.infer(input)
    }

    fn infer_checked(&self, input: &Tensor) -> Result<Tensor, NonFiniteActivation> {
        self.net.infer_checked(input)
    }

    fn backend_name(&self) -> &'static str {
        "digital"
    }

    fn readback(&self) -> Network {
        self.net.clone()
    }
}

impl Device for WeightDevice {
    fn network(&self) -> &Network {
        &self.net
    }

    fn deploy_report(&self, _probe: &Tensor) -> DeployReport {
        self.report.clone()
    }

    fn drift(&mut self, nu: f32, time: f32, rng: &mut SeededRng) {
        FaultModel::Drift { nu, time }.apply(&mut self.net, rng);
    }

    fn soft_errors(&mut self, probability: f64, rng: &mut SeededRng) {
        FaultModel::RandomSoftError { probability }.apply(&mut self.net, rng);
    }

    fn flip_cells(&mut self, probability: f64, rng: &mut SeededRng) {
        self.soft_errors(probability, rng);
    }

    fn stick_cell(&mut self, key: &str, row: usize, col: usize, weight: f32) {
        self.net.for_each_param_mut(|k, tensor| {
            if k == key {
                *tensor.at_mut(&[row, col]) = weight;
            }
        });
    }

    fn write_layer(&mut self, key: &str, weights: &Tensor, _rng: &mut SeededRng) {
        self.net.for_each_param_mut(|k, tensor| {
            if k == key {
                *tensor = weights.clone();
            }
        });
    }

    fn write_network(&mut self, net: Network, _rng: &mut SeededRng) {
        self.net = net;
    }

    fn enable_parity(&mut self) {
        let mut parity = Vec::new();
        self.net.for_each_param(|key, tensor| {
            if key.ends_with("weight") {
                let rows = tensor.shape()[0];
                let cols = tensor.len() / rows;
                parity.push((key.to_owned(), ParityCheck::capture(rows, cols, tensor.as_slice())));
            }
        });
        self.parity = parity;
    }

    fn refresh_parity(&mut self) {
        let parity = &mut self.parity;
        self.net.for_each_param(|key, tensor| {
            if let Some((_, check)) = parity.iter_mut().find(|(k, _)| k == key) {
                check.refresh(tensor.as_slice());
            }
        });
    }

    fn scrub_parity(&mut self) -> ScrubOutcome {
        let parity = &self.parity;
        let mut outcome = ScrubOutcome::default();
        self.net.for_each_param_mut(|key, tensor| {
            if let Some((_, check)) = parity.iter().find(|(k, _)| k == key) {
                outcome.merge(check.scrub(tensor.as_mut_slice()));
            }
        });
        outcome
    }

    fn parity_planes(&self) -> &[(String, ParityCheck)] {
        &self.parity
    }

    fn clone_box(&self) -> Box<dyn Device> {
        Box::new(self.clone())
    }
}

/// The crossbar device: the live backend's own aging, parity and write
/// methods, with unhardened soft errors as lognormal read disturb.
impl Device for AnalogBackend<'static> {
    fn network(&self) -> &Network {
        AnalogBackend::network(self)
    }

    fn deploy_report(&self, probe: &Tensor) -> DeployReport {
        AnalogBackend::deploy_report(self, probe)
    }

    fn drift(&mut self, nu: f32, time: f32, rng: &mut SeededRng) {
        AnalogBackend::drift(self, nu, time, rng);
    }

    fn soft_errors(&mut self, probability: f64, rng: &mut SeededRng) {
        self.disturb(probability as f32, rng);
    }

    fn flip_cells(&mut self, probability: f64, rng: &mut SeededRng) {
        AnalogBackend::flip_cells(self, probability, rng);
    }

    fn stick_cell(&mut self, key: &str, row: usize, col: usize, weight: f32) {
        AnalogBackend::stick_cell(self, key, row, col, weight);
    }

    fn write_layer(&mut self, key: &str, weights: &Tensor, rng: &mut SeededRng) {
        AnalogBackend::write_layer(self, key, weights, rng);
    }

    fn write_network(&mut self, net: Network, rng: &mut SeededRng) {
        net.for_each_param(|key, tensor| {
            if key.ends_with("weight") {
                AnalogBackend::write_layer(self, key, tensor, rng);
            }
        });
    }

    fn enable_parity(&mut self) {
        AnalogBackend::enable_parity(self);
    }

    fn refresh_parity(&mut self) {
        AnalogBackend::refresh_parity(self);
    }

    fn scrub_parity(&mut self) -> ScrubOutcome {
        AnalogBackend::scrub_parity(self)
    }

    fn parity_planes(&self) -> &[(String, ParityCheck)] {
        &[]
    }

    fn clone_box(&self) -> Box<dyn Device> {
        Box::new(self.clone())
    }
}
