//! **healthmon** — cost-effective concurrent test for ReRAM neural network
//! accelerators.
//!
//! This crate implements the core contribution of *"Monitoring the Health
//! of Emerging Neural Network Accelerators with Cost-effective Concurrent
//! Test"* (Liu et al., DAC 2020): generating a *small* set of test
//! patterns whose inference responses are *highly sensitive* to weight
//! errors, so that comparing a running accelerator's responses against
//! golden responses reveals its fault status without streaming thousands
//! of test images through the device.
//!
//! Three pattern generators are provided:
//!
//! * [`CtpGenerator`] — **C-TP**, "corner data" selection: rank a
//!   candidate pool by the standard deviation of output logits and keep
//!   the smallest (samples closest to *all* decision surfaces at once).
//! * [`OtpGenerator`] — **O-TP**, optimization-based generation
//!   (Algorithm 1): start from random noise and gradient-descend a joint
//!   loss that makes the clean model maximally confused (uniform soft
//!   label) while a reference fault model is maximally confident (hard
//!   label), one pattern per class.
//! * [`AetGenerator`] — **AET**, the state-of-the-art baseline the paper
//!   compares against: FGSM adversarial examples built from random test
//!   images (Li et al., ICCD 2019).
//!
//! Detection uses the SDC metric family ([`SdcCriterion`]) over
//! confidence distances ([`ConfidenceDistance`]), evaluated across
//! statistical fault campaigns by the [`Detector`]. [`stability`]
//! (coefficient of variation, Table IV) and [`efficiency`] (pattern-count
//! convergence, Fig 7) analyses complete the paper's evaluation toolkit.
//!
//! # Quickstart
//!
//! ```
//! use healthmon::{CtpGenerator, Detector, SdcCriterion};
//! use healthmon_data::{DatasetSpec, SynthDigits};
//! use healthmon_faults::FaultModel;
//! use healthmon_nn::models::tiny_mlp;
//! use healthmon_tensor::SeededRng;
//!
//! # fn main() {
//! let mut rng = SeededRng::new(0);
//! // A (untrained, for brevity) model and a candidate pool.
//! let mut model = tiny_mlp(784, 16, 10, &mut rng);
//! let pool = SynthDigits::new(DatasetSpec { train: 1, test: 40, seed: 1, ..Default::default() })
//!     .generate()
//!     .test;
//! // Flattened images for the MLP.
//! let patterns = CtpGenerator::new(10)
//!     .select_flattened(&mut model, &pool);
//! let detector = Detector::new(&model, patterns);
//! let rate = detector.detection_rate(
//!     &model,
//!     &FaultModel::ProgrammingVariation { sigma: 0.4 },
//!     8,     // fault models in the campaign
//!     42,    // campaign seed
//!     SdcCriterion::SdcA { threshold: 0.03 },
//! );
//! assert!((0.0..=1.0).contains(&rate));
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod aet;
mod checkpoint;
mod confidence;
mod ctp;
mod detect;
mod device;
mod diagnose;
mod digest;
pub mod efficiency;
mod error;
pub mod fleet;
pub mod flight;
mod metrics;
pub mod mitigation;
mod monitor;
mod otp;
mod patterns;
pub mod report;
mod runtime;
pub mod stability;
pub mod store;

pub use aet::AetGenerator;
pub use checkpoint::CampaignCheckpoint;
pub use confidence::{ConfidenceDistance, ResponseSet};
pub use ctp::CtpGenerator;
pub use detect::Detector;
pub use diagnose::{diagnose, estimate_stuck_cells, Diagnosis, LayerDiagnosis};
pub use error::HealthmonError;
pub use fleet::{ChaosConfig, FleetConfig, FleetIncident, FleetSupervisor, IncidentKind};
pub use flight::{FlightRecord, CHECKUP_PHASES, FLIGHT_FORMAT};
pub use metrics::SdcCriterion;
pub use mitigation::{
    run_mitigation, CampaignArm, LifetimeArm, MitigationReport, MitigationScenario,
};
pub use monitor::{Checkup, HealthMonitor, HealthState, MonitorPolicy, MonitorSnapshot};
pub use otp::{OtpGenerator, OtpOutcome};
pub use patterns::TestPatternSet;
pub use runtime::{
    AgingModel, IncidentReport, LifetimeConfig, LifetimeEvent, LifetimeRuntime, RepairAction,
    TrainData,
};

// Execution-backend layer: every detection, diagnosis, campaign and
// lifetime entry point is generic over [`InferenceBackend`], so the same
// test stack runs against a digital reference network or live analog
// crossbar state.
pub use healthmon_nn::InferenceBackend;
pub use healthmon_reram::{
    ActiveBackend, AnalogBackend, BackendKind, BackendSpec, CrossbarConfig, DeployReport,
    LayerMapping,
};
