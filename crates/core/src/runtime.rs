//! The closed-loop self-healing lifetime runtime: detect → diagnose →
//! repair → re-validate under aging.
//!
//! The paper's deployment story is a loop, not a one-shot experiment: a
//! crossbar accelerator ages in the field (drift, disturb, wear-out), a
//! cheap concurrent checkup notices, and a repair hierarchy — remapping,
//! spare columns, cloud retraining, graceful degradation — brings the
//! device back before silent data corruption reaches users.
//! [`LifetimeRuntime`] simulates that whole lifetime deterministically:
//!
//! * **Aging** (per epoch): resistance drift, random soft errors, and
//!   Poisson-arriving stuck cells accumulate on the deployed network.
//! * **Detect**: a [`HealthMonitor`] checkup after every epoch.
//! * **Diagnose**: once the state escalates past the configured trigger,
//!   a [`diagnose`] pass localizes the damage per layer.
//! * **Repair**: escalating attempts — reprogram with fault-aware row
//!   remapping, spare-column substitution, fault-aware retraining, and
//!   finally graceful degradation of the pattern budget — each followed
//!   by a re-validation checkup before the repair is acknowledged.
//! * **Park**: exhausting the repair budget (or an epoch panicking)
//!   parks the runtime in `Critical` with a structured
//!   [`IncidentReport`].
//!
//! The lifetime can run on any execution backend
//! ([`LifetimeConfig::backend`]) through one device surface
//! (`crate::device`): the default `digital` backend keeps the device as a
//! weight-space [`Network`] (byte-identical to the historical behaviour),
//! while the `analog` and `bitsliced` backends keep it as live crossbar
//! state, where drift ages the conductance planes directly. Every rung
//! has one code path on every backend: stuck cells are clamped through
//! `stick_cell`, spares and retraining write through the device and then
//! re-clamp, and reprogramming programs a fresh device from the golden
//! copy, then remaps each damaged layer around its defects.
//!
//! Everything is a pure function of the inputs: the per-epoch RNG is
//! derived as `SeededRng::new(seed).fork(epoch)`, so a checkpoint needs
//! no RNG state and a resumed run is **bit-identical** to an
//! uninterrupted one.

use crate::confidence::ConfidenceDistance;
use crate::detect::Detector;
use crate::device::{self, Device};
use crate::diagnose::{diagnose, Diagnosis};
use crate::digest::{check_digest, envelope, fnv1a, Identity, FNV_OFFSET};
use crate::error::HealthmonError;
use crate::monitor::{Checkup, HealthMonitor, HealthState, MonitorPolicy, MonitorSnapshot};
use crate::patterns::TestPatternSet;
use healthmon_faults::sample_cell_arrivals;
use healthmon_nn::Network;
use healthmon_repair::{
    remap_rows, repair_with_spares, retrain_with_faults, DefectMap, FaultyRetrainConfig, StuckCell,
};
use healthmon_reram::{BackendSpec, CrossbarConfig, ParityCheck};
use healthmon_serdes::{FromJson, Json, JsonError, ToJson};
use healthmon_tensor::{SeededRng, Tensor};
use healthmon_telemetry as tel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

// The lifetime is a pure function of (config, golden, patterns), so the
// event-stream tallies are Stable; only the wall-clock histogram is
// scheduling-dependent.
static EV_DEPLOYED: tel::Counter =
    tel::Counter::new("lifetime.events.deployed", tel::Stability::Stable);
static EV_AGED: tel::Counter =
    tel::Counter::new("lifetime.events.aged", tel::Stability::Stable);
static EV_CHECKUP: tel::Counter =
    tel::Counter::new("lifetime.events.checkup", tel::Stability::Stable);
static EV_DIAGNOSED: tel::Counter =
    tel::Counter::new("lifetime.events.diagnosed", tel::Stability::Stable);
static EV_REPAIR: tel::Counter =
    tel::Counter::new("lifetime.events.repair", tel::Stability::Stable);
static EV_DEGRADED: tel::Counter =
    tel::Counter::new("lifetime.events.degraded", tel::Stability::Stable);
static EV_BACKOFF: tel::Counter =
    tel::Counter::new("lifetime.events.backoff", tel::Stability::Stable);
static EV_SCRUBBED: tel::Counter =
    tel::Counter::new("lifetime.events.scrubbed", tel::Stability::Stable);
static EV_PARKED: tel::Counter =
    tel::Counter::new("lifetime.events.parked", tel::Stability::Stable);
static REPAIRS_SUCCEEDED: tel::Counter =
    tel::Counter::new("lifetime.repairs.succeeded", tel::Stability::Stable);
static EPOCH_NS: tel::Histogram =
    tel::Histogram::new("lifetime.epoch_ns", tel::Stability::Volatile);
// Latency attribution across the checkup pipeline (DESIGN.md §7): the
// digital-side phases live here, the converter-side phases
// (phase.dac/accumulate/adc) on the crossbar. All wall-clock, all
// Volatile.
static PHASE_DETECTOR_NS: tel::Histogram =
    tel::Histogram::new("phase.detector_ns", tel::Stability::Volatile);
static PHASE_DIAGNOSE_NS: tel::Histogram =
    tel::Histogram::new("phase.diagnose_ns", tel::Stability::Volatile);
static PHASE_REPAIR_NS: tel::Histogram =
    tel::Histogram::new("phase.repair_ns", tel::Stability::Volatile);

/// The per-kind tally behind the unified [`LifetimeEvent`] stream.
fn event_counter(kind: &str) -> &'static tel::Counter {
    match kind {
        "deployed" => &EV_DEPLOYED,
        "aged" => &EV_AGED,
        "checkup" => &EV_CHECKUP,
        "diagnosed" => &EV_DIAGNOSED,
        "repair" => &EV_REPAIR,
        "degraded" => &EV_DEGRADED,
        "backoff" => &EV_BACKOFF,
        "scrubbed" => &EV_SCRUBBED,
        _ => &EV_PARKED,
    }
}

/// Salt for the reprogram-repair RNG streams, so they never collide with
/// the deploy stream (`fork(0)`) or the per-epoch aging streams
/// (`fork(epoch)`).
const REPROGRAM_SALT: u64 = 0x5EED_0DAC_2020_0001;

/// How the deployed device degrades each epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingModel {
    /// Per-epoch resistance-drift scale (`FaultModel::Drift { nu }`);
    /// zero disables drift.
    pub drift_nu: f32,
    /// Elapsed drift time per epoch.
    pub drift_time: f32,
    /// Per-weight soft-error probability per epoch; zero disables.
    pub soft_error_p: f64,
    /// Expected number of *new* stuck cells arriving per epoch across the
    /// whole device (Poisson); distributed over layers by cell count.
    pub stuck_lambda: f64,
}

impl Default for AgingModel {
    fn default() -> Self {
        AgingModel { drift_nu: 0.01, drift_time: 1.0, soft_error_p: 0.0, stuck_lambda: 0.5 }
    }
}

impl AgingModel {
    /// Validates the model: [`HealthmonError::InvalidPolicy`] if a drift
    /// parameter or the stuck rate is negative or non-finite, or the
    /// soft-error probability lies outside `[0, 1]`.
    fn validate(&self) -> Result<(), HealthmonError> {
        let non_negative = |v: f64| v.is_finite() && v >= 0.0;
        let violation = if !non_negative(self.drift_nu.into()) {
            format!("drift_nu must be finite and non-negative, got {}", self.drift_nu)
        } else if !non_negative(self.drift_time.into()) {
            format!("drift_time must be finite and non-negative, got {}", self.drift_time)
        } else if !(0.0..=1.0).contains(&self.soft_error_p) {
            format!("soft_error_p {} outside [0, 1]", self.soft_error_p)
        } else if !non_negative(self.stuck_lambda) {
            format!("stuck_lambda must be finite and non-negative, got {}", self.stuck_lambda)
        } else {
            return Ok(());
        };
        Err(HealthmonError::InvalidPolicy(violation))
    }
}

/// Full configuration of a [`LifetimeRuntime`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeConfig {
    /// Master seed; every RNG stream of the lifetime forks off it.
    pub seed: u64,
    /// Number of aging epochs to simulate.
    pub epochs: usize,
    /// The per-epoch degradation model.
    pub aging: AgingModel,
    /// Thresholds and hysteresis for the health monitor.
    pub policy: MonitorPolicy,
    /// The crossbar hardware the golden model is deployed onto (the
    /// digital deploy path; analog backends carry their own geometry in
    /// [`LifetimeConfig::backend`]).
    pub crossbar: CrossbarConfig,
    /// Execution backend the lifetime runs on. `digital` reproduces the
    /// historical weight-space simulation byte-for-byte; `analog` and
    /// `bitsliced` keep the device as live crossbar state and apply
    /// aging at the conductance level.
    pub backend: BackendSpec,
    /// Online soft-error tolerance: program spare-column parity
    /// alongside the weights and scrub transient conductance flips
    /// in-situ every epoch, before they can accumulate between checkups.
    /// When `false` (the default) every output is byte-identical to the
    /// historical unhardened runtime.
    pub hardened: bool,
    /// Health state at which a repair session starts (must be above
    /// `Healthy`).
    pub trigger: HealthState,
    /// Total repair attempts allowed over the whole lifetime; exhausting
    /// it parks the runtime in `Critical`.
    pub repair_budget: usize,
    /// Spare bit lines provisioned per conductance-mapped layer.
    pub spare_columns: usize,
    /// Epochs to wait after a failed repair session before trying again;
    /// doubles with each consecutive failure.
    pub backoff_epochs: usize,
    /// Graceful degradation floor: the pattern budget is never halved
    /// below this.
    pub min_patterns: usize,
    /// Fault-aware retraining hyperparameters (used only when training
    /// data is supplied).
    pub retrain: FaultyRetrainConfig,
}

impl Default for LifetimeConfig {
    fn default() -> Self {
        LifetimeConfig {
            seed: 0,
            epochs: 10,
            aging: AgingModel::default(),
            policy: MonitorPolicy::default(),
            crossbar: CrossbarConfig::default(),
            backend: BackendSpec::digital(),
            hardened: false,
            trigger: HealthState::Watch,
            repair_budget: 8,
            spare_columns: 2,
            backoff_epochs: 1,
            min_patterns: 2,
            retrain: FaultyRetrainConfig::default(),
        }
    }
}

impl LifetimeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`HealthmonError::InvalidPolicy`] on a zero epoch count, a
    /// `Healthy` trigger, a zero pattern floor or backoff, or an invalid
    /// policy or aging model.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is invalid ([`BackendSpec::validate`]).
    pub fn validate(&self) -> Result<(), HealthmonError> {
        self.policy.validate()?;
        self.aging.validate()?;
        self.backend.validate();
        let violation = if self.epochs == 0 {
            "a lifetime needs at least one epoch"
        } else if self.trigger <= HealthState::Healthy {
            "the repair trigger must be Watch or Critical — repairing a healthy device loops forever"
        } else if self.min_patterns == 0 {
            "the degradation floor must keep at least one pattern"
        } else if self.backoff_epochs == 0 {
            "backoff must be at least one epoch"
        } else {
            return Ok(());
        };
        Err(HealthmonError::InvalidPolicy(violation.to_owned()))
    }

    /// Checks that a pattern set of `patterns` keeps the degradation
    /// floor.
    ///
    /// # Errors
    ///
    /// [`HealthmonError::InvalidPolicy`] if `patterns` is below
    /// `min_patterns`.
    pub fn check_pattern_floor(&self, patterns: usize) -> Result<(), HealthmonError> {
        if patterns < self.min_patterns {
            return Err(HealthmonError::InvalidPolicy(format!(
                "pattern set ({patterns}) smaller than the degradation floor ({})",
                self.min_patterns
            )));
        }
        Ok(())
    }

    /// FNV-1a digest of the configuration, stored in checkpoints so a
    /// resume under different parameters is rejected instead of silently
    /// diverging.
    pub fn digest(&self) -> u64 {
        fnv1a(FNV_OFFSET, format!("{self:?}").bytes())
    }
}

/// Labelled training data for the retraining rung of the repair ladder.
#[derive(Debug, Clone)]
pub struct TrainData {
    /// Training inputs, `[n, features...]`.
    pub images: Tensor,
    /// One label per input row.
    pub labels: Vec<usize>,
}

healthmon_serdes::json_codec! {
    /// One rung of the escalating repair ladder.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RepairAction {
        /// Program a fresh device from the golden copy, parking known stuck
        /// cells via fault-aware row remapping.
        Reprogram = "reprogram",
        /// Substitute spare bit lines for the most damaged columns of the
        /// most suspect layer, then reprogram it.
        Spares = "spares",
        /// Fault-aware retraining around the stuck cells (cloud-side).
        Retrain = "retrain",
        /// Graceful degradation: halve the concurrent-test pattern budget.
        Degrade = "degrade",
    }
}

healthmon_serdes::json_codec! {
    /// One entry of the lifetime event log, persisted as an object tagged
    /// by its `kind`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum LifetimeEvent by kind {
        /// The golden model was programmed onto the crossbars.
        Deployed = "deployed" {
            /// Crossbar tiles consumed.
            tiles: usize,
            /// Total L1 mapping error of the deployment.
            mapping_error_l1: f32,
        },
        /// One epoch of aging was applied.
        Aged = "aged" {
            /// The epoch (1-based).
            epoch: usize,
            /// Stuck cells that arrived this epoch.
            new_stuck: usize,
            /// Cumulative stuck cells on the device.
            total_stuck: usize,
        },
        /// A concurrent-test checkup ran.
        CheckupDone = "checkup" {
            /// The epoch (0 = post-deployment baseline).
            epoch: usize,
            /// Observed confidence distance.
            distance: ConfidenceDistance,
            /// Hysteresis-filtered state after the checkup.
            state: HealthState,
        },
        /// A diagnosis pass localized the damage.
        Diagnosed = "diagnosed" {
            /// The epoch.
            epoch: usize,
            /// State-dict key of the most suspect layer.
            suspect: String,
        },
        /// One rung of the repair ladder was attempted and re-validated.
        RepairAttempted = "repair" {
            /// The epoch.
            epoch: usize,
            /// Lifetime-cumulative attempt number (1-based).
            attempt: usize,
            /// The rung attempted.
            action: RepairAction,
            /// Health state after the re-validation checkup.
            state_after: HealthState,
            /// Whether the re-validation cleared the trigger.
            success: bool,
        },
        /// The pattern budget was halved (graceful degradation).
        Degraded = "degraded" {
            /// The epoch.
            epoch: usize,
            /// Patterns remaining after the halving.
            patterns: usize,
        },
        /// The online parity scrub caught transient soft errors (hardened
        /// runtimes only).
        Scrubbed = "scrubbed" {
            /// The epoch.
            epoch: usize,
            /// Corrupted cells restored bitwise in-situ.
            corrected: usize,
            /// Corrupted cells detected but not isolatable; left for the
            /// next checkup/repair cycle.
            uncorrectable: usize,
        },
        /// A failed repair session scheduled a backoff.
        Backoff = "backoff" {
            /// The epoch.
            epoch: usize,
            /// No repair session will start before this epoch.
            until_epoch: usize,
        },
        /// The runtime parked in `Critical`.
        Parked = "parked" {
            /// The epoch.
            epoch: usize,
            /// Why the runtime parked.
            reason: String,
        },
    }
}

impl LifetimeEvent {
    /// One deterministic human-readable line for reports.
    pub fn describe(&self) -> String {
        match self {
            LifetimeEvent::Deployed { tiles, mapping_error_l1 } => {
                format!("[deploy] {tiles} tiles, mapping error {mapping_error_l1}")
            }
            LifetimeEvent::Aged { epoch, new_stuck, total_stuck } => {
                format!("[epoch {epoch}] aged: +{new_stuck} stuck (total {total_stuck})")
            }
            LifetimeEvent::CheckupDone { epoch, distance, state } => {
                format!(
                    "[epoch {epoch}] checkup: distance {} -> {}",
                    distance.all_classes,
                    state.label()
                )
            }
            LifetimeEvent::Diagnosed { epoch, suspect } => {
                format!("[epoch {epoch}] diagnosis: prime suspect {suspect}")
            }
            LifetimeEvent::RepairAttempted { epoch, attempt, action, state_after, success } => {
                format!(
                    "[epoch {epoch}] repair #{attempt} ({}): {} ({})",
                    action.label(),
                    state_after.label(),
                    if *success { "healed" } else { "failed" }
                )
            }
            LifetimeEvent::Degraded { epoch, patterns } => {
                format!("[epoch {epoch}] degraded to {patterns} patterns")
            }
            LifetimeEvent::Scrubbed { epoch, corrected, uncorrectable } => {
                format!(
                    "[epoch {epoch}] scrubbed: {corrected} corrected, \
                     {uncorrectable} uncorrectable"
                )
            }
            LifetimeEvent::Backoff { epoch, until_epoch } => {
                format!("[epoch {epoch}] backing off until epoch {until_epoch}")
            }
            LifetimeEvent::Parked { epoch, reason } => {
                format!("[epoch {epoch}] parked: {reason}")
            }
        }
    }
}

healthmon_serdes::json_codec! {
    /// Structured report produced when the runtime parks in `Critical`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct IncidentReport {
        /// Epoch at which the runtime parked.
        pub epoch: usize,
        /// Why it parked (budget exhaustion or a contained panic).
        pub reason: String,
        /// The final health state (always `Critical`).
        pub final_state: HealthState,
        /// Confidence distance of the last checkup before parking.
        pub final_distance: ConfidenceDistance,
        /// Repair attempts consumed over the lifetime.
        pub repairs_attempted: usize,
        /// Stuck cells accumulated on the device.
        pub stuck_cells: usize,
        /// Concurrent-test patterns still active (after any degradation).
        pub active_patterns: usize,
        /// The paper's recommended action for the final state.
        pub recommended_action: String,
    }
}

impl IncidentReport {
    /// Deterministic multi-line rendering for operator-facing reports.
    pub fn render(&self) -> String {
        format!(
            "  epoch: {}\n  reason: {}\n  final state: {}\n  final distance: {}\n  \
             repairs attempted: {}\n  stuck cells: {}\n  active patterns: {}\n  \
             recommended action: {}\n",
            self.epoch,
            self.reason,
            self.final_state.label(),
            self.final_distance.all_classes,
            self.repairs_attempted,
            self.stuck_cells,
            self.active_patterns,
            self.recommended_action
        )
    }
}

healthmon_serdes::json_codec! {
    /// Per-layer repair bookkeeping: accumulated physical defects, the
    /// current logical→physical row assignment, and remaining spare columns.
    #[derive(Debug, Clone, PartialEq)]
    struct LayerState {
        key: String,
        defects: DefectMap,
        assignment: Vec<usize>,
        spares_left: usize,
    }
}

/// The closed-loop lifetime simulation: see the module docs.
#[derive(Debug, Clone)]
pub struct LifetimeRuntime {
    config: LifetimeConfig,
    /// The golden network and its detector over the full pattern set:
    /// the reference every device of a fleet shares.
    pub(crate) golden: Arc<Network>,
    pub(crate) detector: Arc<Detector>,
    train: Option<TrainData>,
    device: Box<dyn Device>,
    monitor: HealthMonitor,
    layers: Vec<LayerState>,
    soft_corrected: usize,
    soft_uncorrectable: usize,
    epoch: usize,
    active_patterns: usize,
    repairs_used: usize,
    failed_sessions: usize,
    next_repair_epoch: usize,
    events: Vec<LifetimeEvent>,
    incident: Option<IncidentReport>,
    /// Per-device health history on the virtual epoch clock. Derived
    /// exclusively from deterministic runtime state, so it is
    /// bit-identical across reruns and thread counts. Never serialized:
    /// checkpoints keep their pre-timeline byte layout, and a resumed
    /// runtime restarts its history from the resume epoch.
    timeline: tel::HealthTimeline,
    /// Supervisor retries absorbed so far (fleet runs bump this via
    /// [`LifetimeRuntime::note_retries`]); folded into timeline points.
    /// Never serialized.
    retries: u64,
    /// Flight-recorder sink: `(directory, device id)`. When set, a park
    /// dumps a postmortem artifact there. Never serialized.
    flight: Option<(std::path::PathBuf, u32)>,
    /// The identity of the inputs, computed on first use: every save
    /// after the first, and every save after a resume, reuses it.
    identity: OnceLock<Identity>,
}

impl LifetimeRuntime {
    /// Deploys `golden` onto the configured crossbars and runs the
    /// post-deployment baseline checkup.
    ///
    /// `train` enables the retraining rung of the repair ladder; without
    /// it that rung is skipped.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid, the pattern set is smaller than
    /// the degradation floor, or `train` labels mismatch its images.
    pub fn new(
        golden: &Network,
        patterns: TestPatternSet,
        config: LifetimeConfig,
        train: Option<TrainData>,
    ) -> Self {
        let detector = Arc::new(Detector::new(golden, patterns));
        LifetimeRuntime::with_reference(Arc::new(golden.clone()), detector, config, train)
    }

    /// [`LifetimeRuntime::new`] on a golden network and its detector over
    /// the patterns that are already held, as a fleet holds them once for
    /// all its devices.
    pub(crate) fn with_reference(
        golden: Arc<Network>,
        detector: Arc<Detector>,
        config: LifetimeConfig,
        train: Option<TrainData>,
    ) -> Self {
        check_inputs(&config, detector.patterns().len(), train.as_ref());
        let device = device::program(&golden, &config, &mut SeededRng::new(config.seed).fork(0));
        let mut runtime = LifetimeRuntime::build(golden, detector, config, train, device);
        let report = runtime.device.deploy_report(runtime.detector.patterns().images());
        runtime.push_event(LifetimeEvent::Deployed {
            tiles: report.total_tiles(),
            mapping_error_l1: report.total_error_l1(),
        });
        let baseline = runtime.run_checkup(None);
        runtime.push_event(LifetimeEvent::CheckupDone {
            epoch: 0,
            distance: baseline.distance,
            state: baseline.state,
        });
        runtime.record_timeline(0);
        runtime
    }

    /// The runtime of a freshly placed `device`, at epoch 0 with no
    /// event: all of [`LifetimeRuntime::new`] but the programming, the
    /// deploy report, the baseline checkup and their events, which a
    /// resume replaces with its checkpoint.
    fn build(
        golden: Arc<Network>,
        detector: Arc<Detector>,
        config: LifetimeConfig,
        train: Option<TrainData>,
        device: Box<dyn Device>,
    ) -> Self {
        let mut layers = Vec::new();
        golden.for_each_param(|key, tensor| {
            if key.ends_with("weight") {
                layers.push(LayerState {
                    key: key.to_owned(),
                    defects: DefectMap::default(),
                    assignment: (0..tensor.shape()[0]).collect(),
                    spares_left: config.spare_columns,
                });
            }
        });
        let monitor = HealthMonitor::new(Arc::clone(&detector), config.policy);
        let active_patterns = detector.patterns().len();
        LifetimeRuntime {
            config,
            golden,
            detector,
            train,
            device,
            monitor,
            layers,
            soft_corrected: 0,
            soft_uncorrectable: 0,
            epoch: 0,
            active_patterns,
            repairs_used: 0,
            failed_sessions: 0,
            next_repair_epoch: 0,
            events: Vec::new(),
            incident: None,
            timeline: tel::HealthTimeline::default(),
            retries: 0,
            flight: None,
            identity: OnceLock::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LifetimeConfig {
        &self.config
    }

    /// Completed epochs.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// The deployed (aged, possibly repaired) device network.
    ///
    /// On analog backends this is the programmed digital image
    /// (structure, biases, last-written weights); conductance-level
    /// aging shows up in [`LifetimeRuntime::device_readback`] instead.
    pub fn device(&self) -> &Network {
        self.device.network()
    }

    /// The device's effective weights as the hardware actually computes
    /// them: a crossbar read-back for analog backends, a clone of the
    /// device network for digital.
    pub fn device_readback(&self) -> Network {
        self.device.readback()
    }

    /// The golden (cloud-side) reference network.
    pub fn golden(&self) -> &Network {
        &self.golden
    }

    /// The health monitor, including its full checkup log.
    pub fn monitor(&self) -> &HealthMonitor {
        &self.monitor
    }

    /// The lifetime event log, oldest first.
    pub fn events(&self) -> &[LifetimeEvent] {
        &self.events
    }

    /// The incident report, if the runtime parked.
    pub fn incident(&self) -> Option<&IncidentReport> {
        self.incident.as_ref()
    }

    /// Repair attempts consumed so far.
    pub fn repairs_used(&self) -> usize {
        self.repairs_used
    }

    /// Concurrent-test patterns currently active (after degradation).
    pub fn active_patterns(&self) -> usize {
        self.active_patterns
    }

    /// Cumulative stuck cells across all layers.
    pub fn total_stuck(&self) -> usize {
        self.layers.iter().map(|l| l.defects.len()).sum()
    }

    /// Soft errors corrected in-situ by the online parity scrub over the
    /// whole lifetime (always zero when the config is not hardened).
    pub fn soft_corrected(&self) -> usize {
        self.soft_corrected
    }

    /// Soft errors the scrub detected but could not isolate; they were
    /// left for the ordinary checkup/repair cycle.
    pub fn soft_uncorrectable(&self) -> usize {
        self.soft_uncorrectable
    }

    /// The per-device health timeline recorded so far (since process
    /// start or resume; timelines are never checkpointed).
    pub fn timeline(&self) -> &tel::HealthTimeline {
        &self.timeline
    }

    /// Records `n` supervisor retries against this device; the running
    /// total is folded into subsequent timeline points and flight
    /// records.
    pub fn note_retries(&mut self, n: u64) {
        self.retries += n;
    }

    /// Supervisor retries absorbed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Points the flight recorder at `dir`: a park now dumps a
    /// postmortem artifact `incident-<device>-<epoch>.json` there.
    pub fn set_flight(&mut self, dir: std::path::PathBuf, device: u32) {
        self.flight = Some((dir, device));
    }

    /// Builds the postmortem artifact for this device's current state.
    /// Only device-deterministic data goes in — see
    /// [`crate::flight`] for the contract.
    pub fn flight_record(
        &self,
        device: u32,
        epoch: u64,
        reason: &str,
        detail: &str,
        config_digest: u64,
    ) -> crate::flight::FlightRecord {
        use crate::flight::{FLIGHT_EVENT_WINDOW, FLIGHT_TIMELINE_WINDOW};
        let mut record = crate::flight::FlightRecord::new(device, epoch, reason, detail, config_digest);
        let start = self.events.len().saturating_sub(FLIGHT_EVENT_WINDOW);
        record.events = self.events[start..].to_vec();
        record.timeline = self
            .timeline
            .series()
            .window(FLIGHT_TIMELINE_WINDOW)
            .iter()
            .map(|(_, point)| point.clone())
            .collect();
        record.push_tally("epoch", self.epoch as u64);
        record.push_tally("checkups", self.monitor.history().len() as u64);
        record.push_tally("repairs_used", self.repairs_used as u64);
        record.push_tally("stuck_cells", self.total_stuck() as u64);
        record.push_tally("soft_corrected", self.soft_corrected as u64);
        record.push_tally("soft_uncorrectable", self.soft_uncorrectable as u64);
        record.push_tally("active_patterns", self.active_patterns as u64);
        record.push_tally("retries", self.retries);
        record
    }

    /// Appends the end-of-epoch observation to the health timeline.
    /// Always recorded (telemetry on or off): the timeline is plain
    /// deterministic data, bounded by downsampling, and the flight
    /// recorder depends on it being present.
    fn record_timeline(&mut self, epoch: usize) {
        let last = self.monitor.history().last();
        let distance = last.map(|c| c.distance).unwrap_or(ConfidenceDistance::POISONED);
        // Accuracy proxy: confidence similarity over all classes. The
        // runtime has no labeled eval set, so 1 − clamped all-classes
        // distance stands in for an accuracy estimate.
        let accuracy = f64::from((1.0 - distance.all_classes).clamp(0.0, 1.0));
        self.timeline.record(tel::TimelinePoint {
            epoch: epoch as u64,
            state: self.state().label().to_owned(),
            accuracy,
            score: f64::from(distance.top_ranked),
            repairs: self.repairs_used as u64,
            scrubs: (self.soft_corrected + self.soft_uncorrectable) as u64,
            retries: self.retries,
        });
    }

    /// Whether the runtime parked in `Critical`.
    pub fn is_parked(&self) -> bool {
        self.incident.is_some()
    }

    /// Whether the lifetime is over (all epochs simulated, or parked).
    pub fn is_finished(&self) -> bool {
        self.incident.is_some() || self.epoch >= self.config.epochs
    }

    /// The current health state (`Critical` once parked).
    pub fn state(&self) -> HealthState {
        if self.is_parked() {
            HealthState::Critical
        } else {
            self.monitor.state()
        }
    }

    /// Runs up to `max_steps` epochs (all remaining if `None`), stopping
    /// early if the runtime parks. Returns the resulting health state.
    pub fn run(&mut self, max_steps: Option<usize>) -> HealthState {
        let mut remaining = max_steps.unwrap_or(usize::MAX);
        while !self.is_finished() && remaining > 0 {
            self.step();
            remaining -= 1;
        }
        self.state()
    }

    /// Simulates one epoch: age → checkup → (if escalated) diagnose and
    /// repair. A panic anywhere inside the epoch is contained: the
    /// runtime parks in `Critical` with the panic message in the
    /// incident report instead of unwinding into the caller.
    ///
    /// # Panics
    ///
    /// Panics if called after [`LifetimeRuntime::is_finished`].
    pub fn step(&mut self) -> HealthState {
        self.step_at(None)
    }

    /// [`LifetimeRuntime::step`] with every checkup of the epoch capped at
    /// `depth` patterns, if given.
    fn step_at(&mut self, depth: Option<usize>) -> HealthState {
        assert!(!self.is_finished(), "lifetime runtime already finished");
        let epoch = self.epoch + 1;
        let _epoch_span = tel::span("lifetime.epoch");
        let t0 = tel::enabled().then(std::time::Instant::now);
        let outcome = catch_unwind(AssertUnwindSafe(|| self.epoch_body(epoch, depth)));
        EPOCH_NS.record_since(t0);
        self.epoch = epoch;
        if let Err(payload) = outcome {
            let message = panic_message(payload);
            self.park(epoch, format!("epoch {epoch} panicked: {message}"));
        }
        self.state()
    }

    /// Like [`LifetimeRuntime::step`], but the epoch's checkup evaluates
    /// at most `max_patterns` test patterns (clamped into `1..=len`). The
    /// cap applies to this one epoch only: the runtime's persistent
    /// pattern budget (`active_patterns`, the degradation ladder state)
    /// is untouched, so a fleet supervisor can shed checkup *depth* under
    /// budget pressure without permanently degrading the device.
    ///
    /// # Panics
    ///
    /// Panics if called after [`LifetimeRuntime::is_finished`].
    pub fn step_shallow(&mut self, max_patterns: usize) -> HealthState {
        self.step_at(Some(max_patterns.clamp(1, self.detector.patterns().len())))
    }

    /// The single choke point of the lifetime event stream: appends to
    /// the in-memory log and, when telemetry is recording, mirrors the
    /// event into the per-kind counters and the ring-buffer recorder —
    /// repair-ladder transitions and epoch milestones land in one stream.
    fn push_event(&mut self, event: LifetimeEvent) {
        if tel::enabled() {
            event_counter(event.kind()).inc();
            if matches!(&event, LifetimeEvent::RepairAttempted { success: true, .. }) {
                REPAIRS_SUCCEEDED.inc();
            }
            tel::record_event("lifetime.event", event.describe());
        }
        self.events.push(event);
    }

    /// Runs one concurrent-test checkup against the live device state.
    ///
    /// A `depth` below the active pattern budget (a
    /// [`LifetimeRuntime::step_shallow`] epoch) checks only that many
    /// patterns, for this one checkup: the monitor keeps its detector, so
    /// budget-shed epochs never leak into the runtime's durable
    /// degradation state.
    fn run_checkup(&mut self, depth: Option<usize>) -> Checkup {
        let _span = tel::span("lifetime.checkup");
        let shallow = depth.filter(|&k| k < self.active_patterns).map(|k| {
            self.detector.subset(k).expect("step_shallow clamps the depth into 1..=len")
        });
        let t0 = tel::enabled().then(std::time::Instant::now);
        let checkup = match &shallow {
            Some(detector) => self.monitor.check_with(detector, &*self.device),
            None => self.monitor.check(&*self.device),
        };
        PHASE_DETECTOR_NS.record_since(t0);
        checkup
    }

    fn epoch_body(&mut self, epoch: usize, depth: Option<usize>) {
        self.age(epoch);
        let checkup = self.run_checkup(depth);
        self.push_event(LifetimeEvent::CheckupDone {
            epoch,
            distance: checkup.distance,
            state: checkup.state,
        });
        if checkup.state >= self.config.trigger && epoch >= self.next_repair_epoch {
            self.repair_session(epoch, depth);
        }
        self.record_timeline(epoch);
    }

    /// Applies one epoch of aging. The RNG is re-derived from the master
    /// seed and the epoch number, so aging is a pure function of
    /// `(seed, epoch)` and checkpoints need no RNG state.
    fn age(&mut self, epoch: usize) {
        let aging = self.config.aging;
        let mut epoch_rng = SeededRng::new(self.config.seed).fork(epoch as u64);
        if aging.drift_nu > 0.0 && aging.drift_time > 0.0 {
            let mut rng = epoch_rng.fork(0);
            self.device.drift(aging.drift_nu, aging.drift_time, &mut rng);
        }
        if aging.soft_error_p > 0.0 {
            let mut rng = epoch_rng.fork(1);
            if self.config.hardened {
                // Re-baseline the parity first: drift is genuine aging,
                // not a transient, and must never be "corrected" away.
                self.device.refresh_parity();
                self.device.flip_cells(aging.soft_error_p, &mut rng);
                let outcome = self.device.scrub_parity();
                self.soft_corrected += outcome.corrected;
                self.soft_uncorrectable += outcome.uncorrectable;
                if outcome.any() {
                    self.push_event(LifetimeEvent::Scrubbed {
                        epoch,
                        corrected: outcome.corrected,
                        uncorrectable: outcome.uncorrectable,
                    });
                }
            } else {
                self.device.soft_errors(aging.soft_error_p, &mut rng);
            }
        }
        let mut new_stuck = 0usize;
        if aging.stuck_lambda > 0.0 {
            let weights: Vec<&Tensor> =
                self.layers.iter().map(|l| param(&self.golden, &l.key)).collect();
            let total_cells: usize = weights.iter().map(|w| w.len()).sum();
            for (li, (layer, w)) in self.layers.iter_mut().zip(&weights).enumerate() {
                let (rows, cols) = (w.shape()[0], w.shape()[1]);
                let lambda = aging.stuck_lambda * (rows * cols) as f64 / total_cells as f64;
                let mut rng = epoch_rng.fork(2 + li as u64);
                let w_max = w.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                for arrival in sample_cell_arrivals(rows, cols, lambda, &mut rng) {
                    let occupied = layer
                        .defects
                        .cells()
                        .iter()
                        .any(|c| c.row == arrival.row && c.col == arrival.col);
                    if occupied {
                        continue;
                    }
                    // Stuck-high freezes at ±w_max keeping the sign the
                    // cell held; stuck-low at zero conductance.
                    let value = if arrival.stuck_high {
                        if w.at(&[arrival.row, arrival.col]) >= 0.0 { w_max } else { -w_max }
                    } else {
                        0.0
                    };
                    let mut cells = layer.defects.cells().to_vec();
                    cells.push(StuckCell { row: arrival.row, col: arrival.col, value });
                    layer.defects = DefectMap::new(cells);
                    new_stuck += 1;
                }
            }
        }
        self.clamp_defects();
        if self.config.hardened {
            // Stuck cells are known persistent defects owned by the
            // checkup/repair path; fold them into the parity baseline so
            // the next scrub never mistakes them for transients.
            self.device.refresh_parity();
        }
        self.push_event(LifetimeEvent::Aged {
            epoch,
            new_stuck,
            total_stuck: self.total_stuck(),
        });
    }

    /// Freezes the device at every stuck position (under the current row
    /// assignments): a stuck cell reads its frozen value no matter what
    /// drift or a repair wrote there. Defect rows are physical; the
    /// device addresses cells in the logical layout.
    fn clamp_defects(&mut self) {
        for layer in &self.layers {
            let logical_of = invert(&layer.assignment);
            for cell in layer.defects.cells() {
                self.device.stick_cell(&layer.key, logical_of[cell.row], cell.col, cell.value);
            }
        }
    }

    /// One repair session: diagnose, then walk the escalating ladder,
    /// re-validating after each rung at the epoch's checkup `depth`.
    /// Success acknowledges the repair; failure schedules an exponential
    /// backoff; exhausting the lifetime budget parks the runtime.
    fn repair_session(&mut self, epoch: usize, depth: Option<usize>) {
        let _span = tel::span("lifetime.repair_session");
        let t0 = tel::enabled().then(std::time::Instant::now);
        let diagnosis = diagnose(self.monitor.detector(), &self.golden, &*self.device);
        PHASE_DIAGNOSE_NS.record_since(t0);
        if let Some(prime) = diagnosis.prime_suspect() {
            self.push_event(LifetimeEvent::Diagnosed { epoch, suspect: prime.key.clone() });
        }
        let ladder = [
            RepairAction::Reprogram,
            RepairAction::Spares,
            RepairAction::Retrain,
            RepairAction::Degrade,
        ];
        let mut healed = false;
        for action in ladder {
            if self.repairs_used >= self.config.repair_budget {
                break;
            }
            let applicable = match action {
                RepairAction::Spares => {
                    self.layers.iter().any(|l| l.spares_left > 0 && !l.defects.is_empty())
                }
                RepairAction::Retrain => self.train.is_some(),
                RepairAction::Degrade => self.active_patterns > self.config.min_patterns,
                RepairAction::Reprogram => true,
            };
            if !applicable {
                continue;
            }
            self.repairs_used += 1;
            let t0 = tel::enabled().then(std::time::Instant::now);
            match action {
                RepairAction::Reprogram => self.reprogram(),
                RepairAction::Spares => self.consume_spares(&diagnosis),
                RepairAction::Retrain => self.retrain(epoch),
                RepairAction::Degrade => self.degrade(epoch),
            }
            PHASE_REPAIR_NS.record_since(t0);
            if self.config.hardened {
                // Repairs rewrite conductances; re-baseline the parity so
                // the next scrub protects the repaired state.
                self.device.refresh_parity();
            }
            let checkup = self.run_checkup(depth);
            let success = checkup.state < self.config.trigger;
            self.push_event(LifetimeEvent::RepairAttempted {
                epoch,
                attempt: self.repairs_used,
                action,
                state_after: checkup.state,
                success,
            });
            if success {
                self.monitor.acknowledge_repair();
                healed = true;
                break;
            }
        }
        if healed {
            self.failed_sessions = 0;
            self.next_repair_epoch = 0;
        } else if self.repairs_used >= self.config.repair_budget {
            self.park(epoch, "repair budget exhausted with the device still degraded".to_owned());
        } else {
            self.failed_sessions += 1;
            let shift = (self.failed_sessions - 1).min(8) as u32;
            let backoff = self.config.backoff_epochs << shift;
            self.next_repair_epoch = epoch + backoff;
            self.push_event(LifetimeEvent::Backoff { epoch, until_epoch: self.next_repair_epoch });
        }
    }

    /// The RNG stream of the current repair attempt's device writes.
    fn repair_rng(&self) -> SeededRng {
        SeededRng::new(self.config.seed ^ REPROGRAM_SALT).fork(self.repairs_used as u64)
    }

    /// Rung 1: program a fresh device from the golden copy, remap every
    /// damaged layer's rows around its known stuck cells, then re-freeze
    /// them under the new assignment.
    fn reprogram(&mut self) {
        let device = device::program(&self.golden, &self.config, &mut self.repair_rng());
        for layer in &mut self.layers {
            layer.assignment = if layer.defects.is_empty() {
                (0..layer.assignment.len()).collect()
            } else {
                remap_rows(param(device.network(), &layer.key), &layer.defects).assignment
            };
        }
        self.device = device;
        self.clamp_defects();
    }

    /// Rung 2: substitute spare bit lines on the most suspect defective
    /// layer, then reprogram that layer with a fresh remap over the
    /// surviving defects.
    fn consume_spares(&mut self, diagnosis: &Diagnosis) {
        let has_work = |l: &LayerState| l.spares_left > 0 && !l.defects.is_empty();
        let target = diagnosis
            .ranking
            .iter()
            .map(|d| d.key.as_str())
            .find(|k| self.layers.iter().any(|l| l.key == *k && has_work(l)))
            .map(str::to_owned)
            .or_else(|| self.layers.iter().find(|l| has_work(l)).map(|l| l.key.clone()));
        let Some(key) = target else { return };
        let golden_w = param(&self.golden, &key);
        let layer = self.layers.iter_mut().find(|l| l.key == key).expect("target layer exists");
        let spare = repair_with_spares(golden_w, &layer.defects, layer.spares_left);
        layer.spares_left -= spare.replaced_columns.len();
        let surviving: Vec<StuckCell> = layer
            .defects
            .cells()
            .iter()
            .copied()
            .filter(|c| !spare.replaced_columns.contains(&c.col))
            .collect();
        layer.defects = DefectMap::new(surviving);
        let remap = remap_rows(golden_w, &layer.defects);
        layer.assignment = remap.assignment;
        self.device.write_layer(&key, &remap.repaired_weights, &mut self.repair_rng());
        self.clamp_defects();
    }

    /// Rung 3: fault-aware retraining (cloud-side) of the device's
    /// effective weights around the stuck cells, in logical coordinates
    /// under the current assignments; the result is written back through
    /// the device.
    fn retrain(&mut self, epoch: usize) {
        let Some(train) = &self.train else { return };
        let defect_layers: Vec<(String, DefectMap)> = self
            .layers
            .iter()
            .filter(|l| !l.defects.is_empty())
            .map(|l| {
                let logical_of = invert(&l.assignment);
                let cells = l
                    .defects
                    .cells()
                    .iter()
                    .map(|c| StuckCell { row: logical_of[c.row], col: c.col, value: c.value })
                    .collect();
                (l.key.clone(), DefectMap::new(cells))
            })
            .collect();
        // The retrain seed mixes in (epoch, attempt) so repeated rungs
        // explore different shuffles, while staying a pure function of
        // checkpointed state.
        let config = FaultyRetrainConfig {
            seed: self
                .config
                .retrain
                .seed
                .wrapping_add((epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(self.repairs_used as u64),
            ..self.config.retrain
        };
        let mut retrained = self.device.readback();
        retrain_with_faults(&mut retrained, &defect_layers, &train.images, &train.labels, config);
        self.device.write_network(retrained, &mut self.repair_rng());
        self.clamp_defects();
    }

    /// Rung 4: graceful degradation — halve the concurrent-test pattern
    /// budget (never below the floor) and keep serving at reduced
    /// assurance.
    fn degrade(&mut self, epoch: usize) {
        let k = (self.active_patterns / 2).max(self.config.min_patterns);
        self.active_patterns = k;
        let detector = self.detector.subset(k).expect("degradation stays within 1..=len");
        self.monitor.set_detector(detector);
        self.push_event(LifetimeEvent::Degraded { epoch, patterns: k });
    }

    /// Parks the runtime in `Critical` with a structured incident report.
    fn park(&mut self, epoch: usize, reason: String) {
        let final_distance = self
            .monitor
            .history()
            .last()
            .map(|c| c.distance)
            .unwrap_or(ConfidenceDistance::POISONED);
        self.push_event(LifetimeEvent::Parked { epoch, reason: reason.clone() });
        self.incident = Some(IncidentReport {
            epoch,
            reason: reason.clone(),
            final_state: HealthState::Critical,
            final_distance,
            repairs_attempted: self.repairs_used,
            stuck_cells: self.total_stuck(),
            active_patterns: self.active_patterns,
            recommended_action: HealthState::Critical.recommended_action().to_owned(),
        });
        if let Some((dir, device)) = self.flight.clone() {
            let record = self.flight_record(
                device,
                epoch as u64,
                "park",
                &reason,
                self.config.digest(),
            );
            if let Err(e) = record.write(&dir) {
                // A failing dump must never take the runtime down with it.
                tel::log_warn!("flight-record dump failed for device {device:04}: {e}");
            }
        }
    }

    /// Deterministic operator-facing report: byte-identical for
    /// byte-identical lifetimes, which is what the resume tests compare.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        out.push_str("== lifetime report ==\n");
        out.push_str(&format!("seed: {}\n", self.config.seed));
        out.push_str(&format!("epochs: {}/{}\n", self.epoch, self.config.epochs));
        out.push_str(&format!("final state: {}\n", self.state().label()));
        out.push_str(&format!("checkups: {}\n", self.monitor.history().len()));
        out.push_str(&format!(
            "repairs used: {}/{}\n",
            self.repairs_used, self.config.repair_budget
        ));
        out.push_str(&format!("stuck cells: {}\n", self.total_stuck()));
        if self.config.hardened {
            // Gated on the flag so unhardened reports stay byte-identical
            // to the historical format.
            out.push_str(&format!(
                "soft errors scrubbed: {} corrected, {} uncorrectable\n",
                self.soft_corrected, self.soft_uncorrectable
            ));
        }
        out.push_str(&format!(
            "active patterns: {}/{}\n",
            self.active_patterns,
            self.detector.patterns().len()
        ));
        out.push_str("events:\n");
        for event in &self.events {
            out.push_str("  ");
            out.push_str(&event.describe());
            out.push('\n');
        }
        match &self.incident {
            Some(incident) => {
                out.push_str("incident:\n");
                out.push_str(&incident.render());
            }
            None => out.push_str("incident: none\n"),
        }
        out
    }

    /// Serializes the full mutable state as a JSON checkpoint.
    ///
    /// The checkpoint embeds digests of the configuration, the golden
    /// network and the pattern set, so [`LifetimeRuntime::resume`] can
    /// reject a resume under different inputs instead of silently
    /// diverging. It does *not* embed the inputs themselves — the caller
    /// supplies them again, exactly as with campaign checkpoints.
    pub fn checkpoint_json(&self) -> String {
        let body = CheckpointBody {
            epoch: self.epoch,
            active_patterns: self.active_patterns,
            repairs_used: self.repairs_used,
            failed_sessions: self.failed_sessions,
            next_repair_epoch: self.next_repair_epoch,
            device: self.device.readback().state_dict(),
            layers: self.layers.clone(),
            monitor: self.monitor.snapshot(),
            events: self.events.clone(),
            incident: self.incident.clone(),
        };
        // Hardened-only fields keep unhardened checkpoints byte-identical
        // to the v1 layout. The parity words are digest-guarded like every
        // other resume input.
        let hardened = self.config.hardened.then(|| {
            let planes = self.device.parity_planes();
            HardenedState {
                hardened: true,
                soft_corrected: self.soft_corrected,
                soft_uncorrectable: self.soft_uncorrectable,
                parity: planes.iter().map(ParityPlane::of).collect(),
                parity_digest: parity_digest(planes),
            }
        });
        let identity = self.identity();
        let mut parts: Vec<&dyn ToJson> = vec![&identity, &body];
        if let Some(hardened) = &hardened {
            parts.push(hardened);
        }
        healthmon_serdes::to_string(&Json::Object(envelope(CHECKPOINT_FORMAT, &parts)))
    }

    /// The identity of this runtime's inputs, stored in its checkpoints.
    fn identity(&self) -> Identity {
        *self.identity.get_or_init(|| {
            Identity::of(self.config.digest(), &self.golden, self.detector.patterns())
        })
    }

    /// Rebuilds a runtime from a checkpoint produced by
    /// [`LifetimeRuntime::checkpoint_json`], given the *same* golden
    /// network, pattern set, config and training data. The resumed
    /// runtime continues bit-identically to the uninterrupted one.
    ///
    /// # Errors
    ///
    /// [`HealthmonError::Json`] on malformed JSON;
    /// [`HealthmonError::CheckpointMismatch`] when the checkpoint was
    /// written under a different config, golden network or pattern set,
    /// or its internal state is inconsistent with them — and always when
    /// `config.backend` is not digital, because checkpoints capture
    /// weight-space device state, not live conductance planes.
    ///
    /// # Panics
    ///
    /// On the inputs [`LifetimeRuntime::new`] panics on.
    pub fn resume(
        golden: &Network,
        patterns: TestPatternSet,
        config: LifetimeConfig,
        train: Option<TrainData>,
        checkpoint: &str,
    ) -> Result<Self, HealthmonError> {
        let detector = Arc::new(Detector::new(golden, patterns));
        let golden = Arc::new(golden.clone());
        LifetimeRuntime::resume_with_reference(golden, detector, config, train, checkpoint)
    }

    /// [`LifetimeRuntime::resume`] on a reference already held, as
    /// [`LifetimeRuntime::with_reference`] takes it. The checkpoint is
    /// verified, then its device restored: nothing is programmed.
    pub(crate) fn resume_with_reference(
        golden: Arc<Network>,
        detector: Arc<Detector>,
        config: LifetimeConfig,
        train: Option<TrainData>,
        checkpoint: &str,
    ) -> Result<Self, HealthmonError> {
        if config.backend.kind != healthmon_reram::BackendKind::Digital {
            return Err(HealthmonError::CheckpointMismatch(format!(
                "lifetime checkpoints capture digital device state only; \
                 resume is not supported on the `{}` backend",
                config.backend.kind.label()
            )));
        }
        let value = healthmon_serdes::parse(checkpoint)?;
        let format = value.field("format")?.as_str()?;
        if format != CHECKPOINT_FORMAT {
            return Err(HealthmonError::CheckpointMismatch(format!(
                "unknown checkpoint format `{format}` (expected `{CHECKPOINT_FORMAT}`)"
            )));
        }
        check_inputs(&config, detector.patterns().len(), train.as_ref());
        let identity = Identity::of(config.digest(), &golden, detector.patterns());
        identity.verify(&value, "configuration", &golden)?;
        let body = CheckpointBody::from_json(&value)?;
        let (mut soft, mut parity) = ((0, 0), Vec::new());
        if config.hardened {
            let hardened = HardenedState::from_json(&value)?;
            if !hardened.hardened {
                return Err(HealthmonError::CheckpointMismatch(
                    "the checkpoint was written by an unhardened runtime".to_owned(),
                ));
            }
            soft = (hardened.soft_corrected, hardened.soft_uncorrectable);
            parity = hardened.parity.into_iter().map(ParityPlane::into_entry).collect();
            check_digest(hardened.parity_digest, parity_digest(&parity), "parity state")?;
        }
        let device = device::restore(&golden, &body.device, parity)?;
        let mut runtime = LifetimeRuntime::build(golden, detector, config, train, device);
        runtime.identity = OnceLock::from(identity);
        runtime.check_layers(&body.layers)?;
        let full = runtime.detector.patterns().len();
        if body.active_patterns == 0 || body.active_patterns > full {
            return Err(HealthmonError::CheckpointMismatch(format!(
                "active pattern count {} outside 1..={full}",
                body.active_patterns
            )));
        }
        let detector = if body.active_patterns < full {
            Arc::new(runtime.detector.subset(body.active_patterns)?)
        } else {
            Arc::clone(&runtime.detector)
        };
        runtime.monitor = HealthMonitor::from_snapshot(detector, config.policy, body.monitor);
        runtime.layers = body.layers;
        runtime.epoch = body.epoch;
        runtime.active_patterns = body.active_patterns;
        runtime.repairs_used = body.repairs_used;
        runtime.failed_sessions = body.failed_sessions;
        runtime.next_repair_epoch = body.next_repair_epoch;
        runtime.events = body.events;
        runtime.incident = body.incident;
        (runtime.soft_corrected, runtime.soft_uncorrectable) = soft;
        Ok(runtime)
    }

    /// Checks restored layer bookkeeping against the golden network before
    /// the runtime indexes with it: the same layers in the same order,
    /// each assignment a permutation of its layer's rows, and every
    /// defect cell inside its layer's matrix.
    fn check_layers(&self, restored: &[LayerState]) -> Result<(), HealthmonError> {
        if restored.len() != self.layers.len()
            || restored.iter().zip(&self.layers).any(|(a, b)| a.key != b.key)
        {
            let list = |ls: &[LayerState]| {
                ls.iter().map(|l| l.key.as_str()).collect::<Vec<_>>().join(", ")
            };
            return Err(HealthmonError::CheckpointMismatch(format!(
                "checkpointed layer keys do not match the golden network: \
                 checkpoint has [{}], golden expects [{}]",
                list(restored),
                list(&self.layers)
            )));
        }
        for layer in restored {
            let shape = param(&self.golden, &layer.key).shape();
            let (rows, cols) = (shape[0], shape[1]);
            let mut seen = vec![false; rows];
            let repeated_or_out_of_range = layer
                .assignment
                .iter()
                .position(|&p| p >= rows || std::mem::replace(&mut seen[p], true));
            if repeated_or_out_of_range.is_some() || layer.assignment.len() != rows {
                let detail = match repeated_or_out_of_range {
                    Some(i) => format!("entry {i} is {}", layer.assignment[i]),
                    None => format!("it covers {} rows", layer.assignment.len()),
                };
                return Err(HealthmonError::CheckpointMismatch(format!(
                    "layer `{}` assignment is not a permutation of its {rows} rows: {detail}",
                    layer.key
                )));
            }
            let outside = |c: &&StuckCell| c.row >= rows || c.col >= cols;
            if let Some(cell) = layer.defects.cells().iter().find(outside) {
                return Err(HealthmonError::CheckpointMismatch(format!(
                    "layer `{}` defect cell ({}, {}) lies outside its {rows}x{cols} matrix",
                    layer.key, cell.row, cell.col
                )));
            }
        }
        Ok(())
    }
}

/// Checkpoint format tag; bumped on incompatible layout changes.
const CHECKPOINT_FORMAT: &str = "healthmon-lifetime-checkpoint-v1";

/// Panics like [`LifetimeRuntime::new`] on inputs it refuses: an invalid
/// config, a pattern set below the degradation floor, or training data
/// without one label per image.
fn check_inputs(config: &LifetimeConfig, patterns: usize, train: Option<&TrainData>) {
    config
        .validate()
        .and_then(|()| config.check_pattern_floor(patterns))
        .unwrap_or_else(|e| panic!("{e}"));
    if let Some(t) = train {
        assert_eq!(t.images.shape()[0], t.labels.len(), "training data needs one label per image");
    }
}

/// The parameter a state-dict key `layer{i}.{name}` names.
fn param<'a>(net: &'a Network, key: &str) -> &'a Tensor {
    key.strip_prefix("layer")
        .and_then(|rest| rest.split_once('.'))
        .and_then(|(index, name)| {
            let layer = net.layers().get(index.parse::<usize>().ok()?)?;
            layer.params().into_iter().find(|(n, _)| n == name).map(|(_, t)| t)
        })
        .unwrap_or_else(|| panic!("parameter `{key}` exists"))
}

/// Inverts a logical→physical row assignment.
fn invert(assignment: &[usize]) -> Vec<usize> {
    let mut logical_of = vec![0usize; assignment.len()];
    for (logical, &physical) in assignment.iter().enumerate() {
        logical_of[physical] = logical;
    }
    logical_of
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    // Note the explicit reborrow: downcasting `&Box<dyn Any>` directly
    // would question the box, not the payload, and always miss.
    let payload: &(dyn std::any::Any + Send) = &*payload;
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

healthmon_serdes::json_codec! {
    /// The mutable state a lifetime checkpoint carries after its identity.
    struct CheckpointBody {
        epoch: usize,
        active_patterns: usize,
        repairs_used: usize,
        failed_sessions: usize,
        next_repair_epoch: usize,
        device: Vec<(String, Tensor)>,
        layers: Vec<LayerState>,
        monitor: MonitorSnapshot,
        events: Vec<LifetimeEvent>,
        incident: Option<IncidentReport>,
    }
}

healthmon_serdes::json_codec! {
    /// The fields only a hardened runtime appends to its checkpoints.
    struct HardenedState {
        hardened: bool,
        soft_corrected: usize,
        soft_uncorrectable: usize,
        parity: Vec<ParityPlane>,
        parity_digest: u64 as healthmon_serdes::decimal,
    }
}

healthmon_serdes::json_codec! {
    /// One checkpointed parity plane: key, shape, and raw checksum words.
    struct ParityPlane {
        key: String,
        rows: usize,
        cols: usize,
        row_words: Vec<u32>,
        col_words: Vec<u32>,
    }
    check ParityPlane::check_shape;
}

impl ParityPlane {
    fn of((key, check): &(String, ParityCheck)) -> Self {
        let (rows, cols) = check.shape();
        ParityPlane {
            key: key.clone(),
            rows,
            cols,
            row_words: check.row_words().to_vec(),
            col_words: check.col_words().to_vec(),
        }
    }

    fn check_shape(&self) -> Result<(), JsonError> {
        let (rows, cols) = (self.rows, self.cols);
        if rows == 0 || cols == 0 || self.row_words.len() != rows || self.col_words.len() != cols {
            return Err(JsonError::invalid(format!(
                "parity plane for `{}` has inconsistent shape {rows}x{cols} \
                 ({} row words, {} column words)",
                self.key,
                self.row_words.len(),
                self.col_words.len()
            )));
        }
        Ok(())
    }

    fn into_entry(self) -> (String, ParityCheck) {
        let check = ParityCheck::from_words(self.rows, self.cols, self.row_words, self.col_words);
        (self.key, check)
    }
}

/// FNV-1a over every parity key, shape, and exact checksum words.
fn parity_digest(parity: &[(String, ParityCheck)]) -> u64 {
    let mut hash = FNV_OFFSET;
    for (key, check) in parity {
        hash = fnv1a(hash, key.bytes());
        let (rows, cols) = check.shape();
        hash = fnv1a(hash, (rows as u64).to_le_bytes());
        hash = fnv1a(hash, (cols as u64).to_le_bytes());
        for &w in check.row_words().iter().chain(check.col_words()) {
            hash = fnv1a(hash, w.to_le_bytes());
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use healthmon_nn::models::tiny_mlp;

    fn setup(seed: u64) -> (Network, TestPatternSet) {
        let mut rng = SeededRng::new(seed);
        let net = tiny_mlp(8, 16, 4, &mut rng);
        let patterns =
            TestPatternSet::new("t", Tensor::rand_uniform(&[6, 8], 0.0, 1.0, &mut rng));
        (net, patterns)
    }

    fn quiet_aging() -> AgingModel {
        AgingModel { drift_nu: 0.0, drift_time: 0.0, soft_error_p: 0.0, stuck_lambda: 0.0 }
    }

    #[test]
    fn quiet_lifetime_stays_healthy() {
        let (net, patterns) = setup(1);
        let config = LifetimeConfig {
            epochs: 3,
            aging: quiet_aging(),
            crossbar: CrossbarConfig::ideal(),
            ..LifetimeConfig::default()
        };
        let mut runtime = LifetimeRuntime::new(&net, patterns, config, None);
        assert_eq!(runtime.run(None), HealthState::Healthy);
        assert!(runtime.is_finished() && !runtime.is_parked());
        assert_eq!(runtime.repairs_used(), 0);
        // deploy + baseline checkup + 3 × (aged + checkup).
        assert_eq!(runtime.events().len(), 8);
        assert!(runtime.render_report().contains("incident: none"));
    }

    #[test]
    fn heavy_drift_escalates_and_reprogram_heals() {
        let (net, patterns) = setup(2);
        let config = LifetimeConfig {
            epochs: 4,
            aging: AgingModel { drift_nu: 0.6, drift_time: 1.0, ..quiet_aging() },
            crossbar: CrossbarConfig::ideal(),
            ..LifetimeConfig::default()
        };
        let mut runtime = LifetimeRuntime::new(&net, patterns, config, None);
        let state = runtime.run(None);
        assert_eq!(state, HealthState::Healthy, "reprogram must heal pure drift");
        assert!(runtime.incident().is_none());
        let healed = runtime.events().iter().any(|e| {
            matches!(e, LifetimeEvent::RepairAttempted { action, success: true, .. }
                if *action == RepairAction::Reprogram)
        });
        assert!(healed, "expected a successful reprogram; events: {:#?}", runtime.events());
    }

    #[test]
    fn stuck_cells_accumulate_monotonically() {
        let (net, patterns) = setup(3);
        let config = LifetimeConfig {
            epochs: 3,
            aging: AgingModel { stuck_lambda: 8.0, ..quiet_aging() },
            crossbar: CrossbarConfig::ideal(),
            // Never repair: observe raw accumulation.
            policy: MonitorPolicy { watch_threshold: 10.0, critical_threshold: 20.0, ..MonitorPolicy::default() },
            ..LifetimeConfig::default()
        };
        let mut runtime = LifetimeRuntime::new(&net, patterns, config, None);
        let mut last_total = 0usize;
        while !runtime.is_finished() {
            runtime.step();
            let total = runtime.total_stuck();
            assert!(total >= last_total, "stuck cells never vanish without a spare repair");
            last_total = total;
        }
        assert!(last_total > 0, "λ=8 over 3 epochs must land some arrivals");
        // The arrivals are recorded in the event log too.
        let logged: usize = runtime
            .events()
            .iter()
            .map(|e| match e {
                LifetimeEvent::Aged { new_stuck, .. } => *new_stuck,
                _ => 0,
            })
            .sum();
        assert_eq!(logged, last_total);
    }

    #[test]
    fn budget_exhaustion_parks_critical_with_complete_report() {
        let (net, patterns) = setup(4);
        // 2-bit cells leave a quantization floor no repair can cross with
        // thresholds this tight, and there is nothing to retrain with.
        let config = LifetimeConfig {
            epochs: 10,
            aging: quiet_aging(),
            crossbar: CrossbarConfig { cell_bits: 2, ..CrossbarConfig::ideal() },
            policy: MonitorPolicy {
                watch_threshold: 1e-7,
                critical_threshold: 1e-6,
                escalation_count: 1,
            },
            repair_budget: 2,
            ..LifetimeConfig::default()
        };
        let mut runtime = LifetimeRuntime::new(&net, patterns.clone(), config, None);
        let state = runtime.run(None);
        assert_eq!(state, HealthState::Critical);
        assert!(runtime.is_parked() && runtime.is_finished());
        let incident = runtime.incident().expect("parked runtime carries a report");
        assert_eq!(incident.final_state, HealthState::Critical);
        assert_eq!(incident.repairs_attempted, 2);
        assert!(incident.reason.contains("budget exhausted"));
        assert!(incident.epoch >= 1);
        assert!(incident.final_distance.all_classes > 1e-7);
        assert!(incident.recommended_action.contains("retraining"));
        let report = runtime.render_report();
        assert!(report.contains("incident:"));
        assert!(report.contains("parked: repair budget exhausted"));
    }

    #[test]
    fn epoch_panic_is_contained_as_incident() {
        let (net, patterns) = setup(5);
        let train = TrainData {
            images: Tensor::rand_uniform(&[12, 8], 0.0, 1.0, &mut SeededRng::new(6)),
            labels: vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3],
        };
        // retrain.epochs == 0 makes the retrain rung panic; the runtime
        // must park instead of unwinding into the caller.
        let config = LifetimeConfig {
            epochs: 5,
            aging: quiet_aging(),
            crossbar: CrossbarConfig { cell_bits: 2, ..CrossbarConfig::ideal() },
            policy: MonitorPolicy {
                watch_threshold: 1e-7,
                critical_threshold: 1e-6,
                escalation_count: 1,
            },
            retrain: FaultyRetrainConfig { epochs: 0, ..FaultyRetrainConfig::default() },
            ..LifetimeConfig::default()
        };
        let mut runtime = LifetimeRuntime::new(&net, patterns, config, Some(train));
        let state = runtime.run(None);
        assert_eq!(state, HealthState::Critical);
        let incident = runtime.incident().expect("contained panic parks the runtime");
        assert!(incident.reason.contains("panicked"), "reason: {}", incident.reason);
        assert!(incident.reason.contains("non-trivial"), "reason: {}", incident.reason);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let (net, patterns) = setup(7);
        let config = LifetimeConfig {
            epochs: 6,
            aging: AgingModel {
                drift_nu: 0.3,
                drift_time: 1.0,
                soft_error_p: 0.002,
                stuck_lambda: 1.5,
            },
            crossbar: CrossbarConfig::ideal(),
            ..LifetimeConfig::default()
        };

        let mut uninterrupted =
            LifetimeRuntime::new(&net, patterns.clone(), config, None);
        uninterrupted.run(None);

        let mut first = LifetimeRuntime::new(&net, patterns.clone(), config, None);
        first.run(Some(2));
        let checkpoint = first.checkpoint_json();
        drop(first); // the "kill" between the two processes
        let mut resumed =
            LifetimeRuntime::resume(&net, patterns, config, None, &checkpoint).unwrap();
        resumed.run(None);

        assert_eq!(resumed.events(), uninterrupted.events());
        assert_eq!(resumed.monitor().history(), uninterrupted.monitor().history());
        assert_eq!(
            resumed.device().state_dict(),
            uninterrupted.device().state_dict(),
            "resumed device weights must be bit-identical"
        );
        assert_eq!(resumed.render_report(), uninterrupted.render_report());
        assert_eq!(resumed.checkpoint_json(), uninterrupted.checkpoint_json());
    }

    #[test]
    fn resume_rejects_mismatched_inputs() {
        let (net, patterns) = setup(8);
        let config =
            LifetimeConfig { epochs: 2, aging: quiet_aging(), ..LifetimeConfig::default() };
        let mut runtime = LifetimeRuntime::new(&net, patterns.clone(), config, None);
        runtime.run(Some(1));
        let checkpoint = runtime.checkpoint_json();

        // Different config.
        let other = LifetimeConfig { seed: 99, ..config };
        let err = LifetimeRuntime::resume(&net, patterns.clone(), other, None, &checkpoint)
            .unwrap_err();
        assert!(matches!(err, HealthmonError::CheckpointMismatch(_)), "{err}");
        assert!(err.to_string().contains("configuration"));

        // Different golden network.
        let (other_net, _) = setup(9);
        let err = LifetimeRuntime::resume(&other_net, patterns.clone(), config, None, &checkpoint)
            .unwrap_err();
        assert!(err.to_string().contains("golden network"), "{err}");

        // Different pattern set.
        let other_patterns = TestPatternSet::new(
            "t",
            Tensor::rand_uniform(&[6, 8], 0.0, 1.0, &mut SeededRng::new(77)),
        );
        let err = LifetimeRuntime::resume(&net, other_patterns, config, None, &checkpoint)
            .unwrap_err();
        assert!(err.to_string().contains("pattern set"), "{err}");

        // Corrupted format tag.
        let bad = checkpoint.replace(CHECKPOINT_FORMAT, "healthmon-lifetime-checkpoint-v0");
        let err = LifetimeRuntime::resume(&net, patterns, config, None, &bad).unwrap_err();
        assert!(err.to_string().contains("format"), "{err}");
    }

    /// Resumes `checkpoint` after `tamper` and returns the refusal.
    fn tampered_resume(tamper: impl Fn(&str) -> String) -> HealthmonError {
        let (net, patterns) = setup(12);
        let config =
            LifetimeConfig { epochs: 3, aging: quiet_aging(), ..LifetimeConfig::default() };
        let mut runtime = LifetimeRuntime::new(&net, patterns.clone(), config, None);
        runtime.run(Some(1));
        let checkpoint = runtime.checkpoint_json();
        let tampered = tamper(&checkpoint);
        assert_ne!(tampered, checkpoint, "the tamper must change the checkpoint");
        LifetimeRuntime::resume(&net, patterns, config, None, &tampered)
            .expect_err("a tampered checkpoint must not resume")
    }

    #[test]
    fn resume_rejects_an_assignment_entry_past_the_rows() {
        let err =
            tampered_resume(|cp| cp.replacen("\"assignment\":[0,", "\"assignment\":[999,", 1));
        assert!(matches!(err, HealthmonError::CheckpointMismatch(_)), "{err}");
        assert!(err.to_string().contains("not a permutation"), "{err}");
    }

    #[test]
    fn resume_rejects_a_duplicated_assignment_entry() {
        let err =
            tampered_resume(|cp| cp.replacen("\"assignment\":[0,1,", "\"assignment\":[1,1,", 1));
        assert!(matches!(err, HealthmonError::CheckpointMismatch(_)), "{err}");
        assert!(err.to_string().contains("not a permutation"), "{err}");
    }

    #[test]
    fn resume_rejects_a_defect_cell_outside_its_layer() {
        let err = tampered_resume(|cp| {
            cp.replacen("\"defects\":[]", "\"defects\":[{\"row\":5000,\"col\":0,\"value\":0}]", 1)
        });
        assert!(matches!(err, HealthmonError::CheckpointMismatch(_)), "{err}");
        assert!(err.to_string().contains("outside its"), "{err}");
    }

    #[test]
    fn events_round_trip_through_json() {
        let distance = ConfidenceDistance { top_ranked: 0.01, all_classes: 0.02 };
        let events = vec![
            LifetimeEvent::Deployed { tiles: 4, mapping_error_l1: 0.125 },
            LifetimeEvent::Aged { epoch: 1, new_stuck: 2, total_stuck: 5 },
            LifetimeEvent::CheckupDone { epoch: 1, distance, state: HealthState::Watch },
            LifetimeEvent::Diagnosed { epoch: 1, suspect: "layer0.weight".to_owned() },
            LifetimeEvent::RepairAttempted {
                epoch: 1,
                attempt: 3,
                action: RepairAction::Spares,
                state_after: HealthState::Healthy,
                success: true,
            },
            LifetimeEvent::Degraded { epoch: 2, patterns: 3 },
            LifetimeEvent::Scrubbed { epoch: 2, corrected: 4, uncorrectable: 1 },
            LifetimeEvent::Backoff { epoch: 2, until_epoch: 4 },
            LifetimeEvent::Parked { epoch: 5, reason: "out of budget".to_owned() },
        ];
        let json = healthmon_serdes::to_string(&events);
        let back: Vec<LifetimeEvent> = healthmon_serdes::from_str(&json).unwrap();
        assert_eq!(back, events);
        // Every event renders a non-empty deterministic line.
        for event in &events {
            assert!(!event.describe().is_empty());
            assert_eq!(event.describe(), event.describe());
        }
        assert!(healthmon_serdes::from_str::<LifetimeEvent>("{\"kind\":\"nope\"}").is_err());
    }

    #[test]
    fn incident_report_round_trips_and_renders() {
        let incident = IncidentReport {
            epoch: 7,
            reason: "repair budget exhausted".to_owned(),
            final_state: HealthState::Critical,
            final_distance: ConfidenceDistance::POISONED,
            repairs_attempted: 8,
            stuck_cells: 13,
            active_patterns: 2,
            recommended_action: "weight reprogramming / cloud retraining".to_owned(),
        };
        let json = healthmon_serdes::to_string(&incident);
        let back: IncidentReport = healthmon_serdes::from_str(&json).unwrap();
        assert_eq!(back, incident);
        let rendered = incident.render();
        assert!(rendered.contains("epoch: 7"));
        assert!(rendered.contains("final state: critical"));
        assert!(rendered.contains("stuck cells: 13"));
    }

    fn analog_config(epochs: usize, aging: AgingModel) -> LifetimeConfig {
        LifetimeConfig {
            epochs,
            aging,
            backend: BackendSpec::analog(healthmon_reram::CrossbarConfig::exact()),
            ..LifetimeConfig::default()
        }
    }

    #[test]
    fn analog_heavy_drift_escalates_and_reprogram_heals() {
        let (net, patterns) = setup(2);
        let config =
            analog_config(4, AgingModel { drift_nu: 0.6, drift_time: 1.0, ..quiet_aging() });
        let mut runtime = LifetimeRuntime::new(&net, patterns, config, None);
        let state = runtime.run(None);
        assert_eq!(state, HealthState::Healthy, "reprogram must heal pure drift");
        let healed = runtime.events().iter().any(|e| {
            matches!(e, LifetimeEvent::RepairAttempted { action, success: true, .. }
                if *action == RepairAction::Reprogram)
        });
        assert!(healed, "expected a successful reprogram; events: {:#?}", runtime.events());
    }

    #[test]
    fn analog_stuck_arrivals_land_on_live_conductances() {
        let (net, patterns) = setup(3);
        let mut config =
            analog_config(3, AgingModel { stuck_lambda: 8.0, ..quiet_aging() });
        // Never repair: observe the raw conductance-level accumulation.
        config.policy = MonitorPolicy {
            watch_threshold: 10.0,
            critical_threshold: 20.0,
            ..MonitorPolicy::default()
        };
        let mut runtime = LifetimeRuntime::new(&net, patterns, config, None);
        runtime.run(None);
        assert!(runtime.total_stuck() > 0, "λ=8 over 3 epochs must land some arrivals");
        // The sticks live on the crossbars, not on the digital image: the
        // read-back differs from the programmed network exactly there.
        let image = runtime.device().state_dict();
        let live = runtime.device_readback().state_dict();
        assert_ne!(image, live, "stuck conductances must be visible in the read-back");
    }

    #[test]
    fn analog_lifetime_is_deterministic() {
        let (net, patterns) = setup(4);
        let config = analog_config(
            3,
            AgingModel { drift_nu: 0.1, drift_time: 1.0, stuck_lambda: 2.0, ..quiet_aging() },
        );
        let mut a = LifetimeRuntime::new(&net, patterns.clone(), config, None);
        let mut b = LifetimeRuntime::new(&net, patterns, config, None);
        a.run(None);
        b.run(None);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.render_report(), b.render_report());
        assert_eq!(
            a.device_readback().state_dict(),
            b.device_readback().state_dict(),
            "analog lifetimes must be bit-reproducible"
        );
    }

    #[test]
    fn analog_resume_is_rejected() {
        let (net, patterns) = setup(5);
        let digital =
            LifetimeConfig { epochs: 2, aging: quiet_aging(), ..LifetimeConfig::default() };
        let mut runtime = LifetimeRuntime::new(&net, patterns.clone(), digital, None);
        runtime.run(Some(1));
        let checkpoint = runtime.checkpoint_json();
        let analog = LifetimeConfig { backend: analog_config(2, quiet_aging()).backend, ..digital };
        let err =
            LifetimeRuntime::resume(&net, patterns, analog, None, &checkpoint).unwrap_err();
        assert!(matches!(err, HealthmonError::CheckpointMismatch(_)), "{err}");
        assert!(err.to_string().contains("resume is not supported"), "{err}");
    }

    /// Soft-error-only aging under tight thresholds and a small repair
    /// budget: the plain ladder burns budget on every flip, the hardened
    /// runtime scrubs them in-situ for free.
    fn soft_error_config(hardened: bool) -> LifetimeConfig {
        LifetimeConfig {
            seed: 16,
            epochs: 6,
            aging: AgingModel { soft_error_p: 0.006, ..quiet_aging() },
            crossbar: CrossbarConfig::exact(),
            policy: MonitorPolicy {
                watch_threshold: 1e-6,
                critical_threshold: 1e-3,
                escalation_count: 1,
            },
            repair_budget: 3,
            hardened,
            ..LifetimeConfig::default()
        }
    }

    #[test]
    fn hardened_digital_scrubs_soft_errors_and_avoids_repairs() {
        let (net, patterns) = setup(16);

        let mut plain = LifetimeRuntime::new(&net, patterns.clone(), soft_error_config(false), None);
        plain.run(None);
        assert!(plain.repairs_used() > 0, "plain ladder must burn repair budget on soft errors");
        assert_eq!(plain.soft_corrected(), 0);

        let mut hardened =
            LifetimeRuntime::new(&net, patterns, soft_error_config(true), None);
        let state = hardened.run(None);
        assert_eq!(state, HealthState::Healthy, "scrubbed soft errors never reach the monitor");
        assert_eq!(hardened.repairs_used(), 0, "online tolerance is a zero-repair-cost rung");
        assert!(hardened.soft_corrected() > 0, "p=0.02 over 6 epochs must flip something");
        assert!(hardened.events().iter().any(|e| matches!(e, LifetimeEvent::Scrubbed { .. })));
        assert!(hardened.repairs_used() < plain.repairs_used());
        // The scrub restores bit patterns exactly: the device ends the
        // lifetime bit-identical to its deployment.
        let report = hardened.render_report();
        assert!(report.contains("soft errors scrubbed:"), "report: {report}");
    }

    #[test]
    fn hardened_scrub_restores_device_bitwise() {
        let (net, patterns) = setup(16);
        let mut runtime = LifetimeRuntime::new(&net, patterns, soft_error_config(true), None);
        let deployed = runtime.device().state_dict();
        runtime.run(None);
        assert!(runtime.soft_corrected() > 0);
        assert_eq!(runtime.soft_uncorrectable(), 0, "isolated flips are always correctable");
        assert_eq!(
            runtime.device().state_dict(),
            deployed,
            "with drift and stuck aging off, every epoch must scrub back to the deployed bits"
        );
    }

    #[test]
    fn hardened_checkpoint_resume_is_bit_identical() {
        let (net, patterns) = setup(13);
        let config = LifetimeConfig {
            epochs: 6,
            aging: AgingModel {
                drift_nu: 0.05,
                drift_time: 1.0,
                soft_error_p: 0.02,
                stuck_lambda: 0.5,
            },
            crossbar: CrossbarConfig::ideal(),
            hardened: true,
            ..LifetimeConfig::default()
        };

        let mut uninterrupted = LifetimeRuntime::new(&net, patterns.clone(), config, None);
        uninterrupted.run(None);
        assert!(uninterrupted.soft_corrected() > 0, "the scenario must exercise the scrubber");

        let mut first = LifetimeRuntime::new(&net, patterns.clone(), config, None);
        first.run(Some(2));
        assert!(
            first.soft_corrected() > 0,
            "resume must happen after at least one corrected soft error"
        );
        let checkpoint = first.checkpoint_json();
        drop(first);
        let mut resumed =
            LifetimeRuntime::resume(&net, patterns, config, None, &checkpoint).unwrap();
        resumed.run(None);

        assert_eq!(resumed.events(), uninterrupted.events());
        assert_eq!(resumed.soft_corrected(), uninterrupted.soft_corrected());
        assert_eq!(resumed.soft_uncorrectable(), uninterrupted.soft_uncorrectable());
        assert_eq!(resumed.device().state_dict(), uninterrupted.device().state_dict());
        assert_eq!(resumed.render_report(), uninterrupted.render_report());
        assert_eq!(resumed.checkpoint_json(), uninterrupted.checkpoint_json());
    }

    #[test]
    fn hardened_resume_rejects_tampered_parity() {
        let (net, patterns) = setup(13);
        let config = LifetimeConfig {
            epochs: 4,
            aging: AgingModel { soft_error_p: 0.02, ..quiet_aging() },
            crossbar: CrossbarConfig::ideal(),
            hardened: true,
            ..LifetimeConfig::default()
        };
        let mut runtime = LifetimeRuntime::new(&net, patterns.clone(), config, None);
        runtime.run(Some(2));
        let checkpoint = runtime.checkpoint_json();

        let digest = parity_digest(runtime.device.parity_planes()).to_string();
        let tampered = checkpoint.replace(&digest, "12345");
        assert_ne!(tampered, checkpoint, "the digest must appear in the checkpoint");
        let err =
            LifetimeRuntime::resume(&net, patterns.clone(), config, None, &tampered).unwrap_err();
        assert!(err.to_string().contains("parity state"), "{err}");

        // An unhardened checkpoint cannot seed a hardened resume.
        let plain_config = LifetimeConfig { hardened: false, ..config };
        let mut plain = LifetimeRuntime::new(&net, patterns.clone(), plain_config, None);
        plain.run(Some(1));
        let plain_checkpoint = plain.checkpoint_json();
        assert!(
            !plain_checkpoint.contains("parity_digest"),
            "unhardened checkpoints keep the historical v1 layout"
        );
        let err = LifetimeRuntime::resume(&net, patterns, config, None, &plain_checkpoint)
            .unwrap_err();
        assert!(matches!(err, HealthmonError::CheckpointMismatch(_)), "{err}");
    }

    #[test]
    fn hardened_analog_scrubs_conductance_flips() {
        let (net, patterns) = setup(16);
        let config = LifetimeConfig {
            backend: BackendSpec::analog(healthmon_reram::CrossbarConfig::exact()),
            epochs: 4,
            ..soft_error_config(true)
        };
        let mut runtime = LifetimeRuntime::new(&net, patterns, config, None);
        let state = runtime.run(None);
        assert_eq!(state, HealthState::Healthy, "scrubbed flips never reach the monitor");
        assert_eq!(runtime.repairs_used(), 0);
        assert!(runtime.soft_corrected() > 0, "p=0.01 over 4 epochs must flip some cells");
        // In exact mode the scrubbed crossbars read back bit-identical to
        // the programmed digital image.
        assert_eq!(
            runtime.device_readback().state_dict(),
            runtime.device().state_dict(),
            "corrected flips must leave no residue in the read-back"
        );
    }

    /// Asserts that every stuck cell reads back its frozen value, within
    /// `step` times the layer's largest read-back magnitude, at its
    /// logical position.
    fn assert_stuck_cells_frozen(runtime: &LifetimeRuntime, step: f32, context: &str) {
        let readback = runtime.device_readback();
        for layer in &runtime.layers {
            let weights = param(&readback, &layer.key);
            let tolerance = step * weights.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let logical_of = invert(&layer.assignment);
            for cell in layer.defects.cells() {
                let got = weights.at(&[logical_of[cell.row], cell.col]);
                assert!(
                    (got - cell.value).abs() <= tolerance,
                    "{context}: `{}` cell ({}, {}) reads {got}, frozen at {}",
                    layer.key,
                    cell.row,
                    cell.col,
                    cell.value
                );
            }
        }
    }

    #[test]
    fn every_rung_keeps_stuck_cells_frozen_on_every_backend() {
        let (net, patterns) = setup(21);
        let mut rng = SeededRng::new(22);
        let train = TrainData {
            images: Tensor::rand_uniform(&[16, 8], 0.0, 1.0, &mut rng),
            labels: (0..16).map(|i| i % 4).collect(),
        };
        // Exact cells read back bitwise; 8-bit slices within one step.
        for (backend, step) in [
            (BackendSpec::digital(), 0.0),
            (BackendSpec::analog(CrossbarConfig::exact()), 0.0),
            (
                BackendSpec::bitsliced(
                    CrossbarConfig { cell_bits: 2, ..CrossbarConfig::ideal() },
                    8,
                ),
                1.0 / 255.0,
            ),
        ] {
            let name = backend.kind.label();
            let config = LifetimeConfig {
                epochs: 6,
                aging: AgingModel {
                    drift_nu: 0.05,
                    drift_time: 1.0,
                    stuck_lambda: 8.0,
                    ..quiet_aging()
                },
                backend,
                // Never repair on its own: the rungs are called directly.
                policy: MonitorPolicy {
                    watch_threshold: 10.0,
                    critical_threshold: 20.0,
                    ..MonitorPolicy::default()
                },
                ..LifetimeConfig::default()
            };
            let mut runtime =
                LifetimeRuntime::new(&net, patterns.clone(), config, Some(train.clone()));
            while runtime.total_stuck() < 8 && !runtime.is_finished() {
                runtime.step();
            }
            assert!(runtime.total_stuck() > 0, "{name}: aging must stick some cells");
            assert_stuck_cells_frozen(&runtime, step, &format!("{name} aging"));

            runtime.repairs_used += 1;
            runtime.reprogram();
            assert_stuck_cells_frozen(&runtime, step, &format!("{name} reprogram"));

            runtime.repairs_used += 1;
            let diagnosis = diagnose(runtime.monitor.detector(), &runtime.golden, &*runtime.device);
            runtime.consume_spares(&diagnosis);
            assert!(
                runtime.layers.iter().any(|l| l.spares_left < runtime.config.spare_columns),
                "{name}: the spares rung must replace a column"
            );
            assert_stuck_cells_frozen(&runtime, step, &format!("{name} spares"));

            runtime.repairs_used += 1;
            runtime.retrain(runtime.epoch);
            assert_stuck_cells_frozen(&runtime, step, &format!("{name} retrain"));
        }
    }

    /// `param` finds the very tensor `for_each_param` names each key
    /// after, by reference, nested keys (`layer3.conv1.weight`,
    /// `layer0.wq.weight`) included.
    #[test]
    fn param_resolves_every_key_of_every_zoo_model() {
        for spec in healthmon_nn::zoo::ZOO {
            let net = spec.build(&mut SeededRng::new(3));
            net.for_each_param(|key, tensor| {
                assert!(std::ptr::eq(param(&net, key), tensor), "{}: {key}", spec.name);
            });
        }
    }

    /// The constructor keeps its documented panic on an invalid config.
    #[test]
    #[should_panic(expected = "trigger must be Watch or Critical")]
    fn rejects_healthy_trigger() {
        let (net, patterns) = setup(9);
        let config = LifetimeConfig { trigger: HealthState::Healthy, ..LifetimeConfig::default() };
        LifetimeRuntime::new(&net, patterns, config, None);
    }

    /// Each invalid knob is an error naming it, not a panic, and the
    /// pattern floor is checked against the count.
    #[test]
    fn invalid_configs_are_errors() {
        let aging = |aging| LifetimeConfig { aging, ..LifetimeConfig::default() };
        let cases = [
            (LifetimeConfig { epochs: 0, ..LifetimeConfig::default() }, "at least one epoch"),
            (
                LifetimeConfig { trigger: HealthState::Healthy, ..LifetimeConfig::default() },
                "trigger must be Watch or Critical",
            ),
            (LifetimeConfig { min_patterns: 0, ..LifetimeConfig::default() }, "at least one pattern"),
            (LifetimeConfig { backoff_epochs: 0, ..LifetimeConfig::default() }, "backoff"),
            (aging(AgingModel { drift_nu: -1.0, ..AgingModel::default() }), "drift_nu"),
            (aging(AgingModel { drift_time: f32::NAN, ..AgingModel::default() }), "drift_time"),
            (aging(AgingModel { soft_error_p: 2.0, ..AgingModel::default() }), "soft_error_p"),
            (aging(AgingModel { stuck_lambda: -0.5, ..AgingModel::default() }), "stuck_lambda"),
            (
                LifetimeConfig {
                    policy: MonitorPolicy { watch_threshold: 0.1, ..MonitorPolicy::default() },
                    ..LifetimeConfig::default()
                },
                "thresholds must satisfy",
            ),
        ];
        for (config, message) in cases {
            let err = config.validate().unwrap_err();
            assert!(matches!(err, HealthmonError::InvalidPolicy(_)), "{err:?}");
            assert!(err.to_string().contains(message), "{err} lacks `{message}`");
        }
        let config = LifetimeConfig::default();
        assert!(config.validate().is_ok());
        assert!(config.check_pattern_floor(config.min_patterns).is_ok());
        let err = config.check_pattern_floor(config.min_patterns - 1).unwrap_err();
        assert!(err.to_string().contains("smaller than the degradation floor"), "{err}");
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn stepping_a_finished_lifetime_panics() {
        let (net, patterns) = setup(10);
        let config =
            LifetimeConfig { epochs: 1, aging: quiet_aging(), ..LifetimeConfig::default() };
        let mut runtime = LifetimeRuntime::new(&net, patterns, config, None);
        runtime.run(None);
        runtime.step();
    }
}
