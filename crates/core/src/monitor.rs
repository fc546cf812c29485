//! In-field health monitoring built on top of the [`Detector`]: the
//! paper's deployment story as a reusable state machine.
//!
//! The paper motivates concurrent test with a repair hierarchy: cheap
//! fixes (fault-aware remapping) for mild degradation, expensive fixes
//! (cloud retraining) for severe degradation. [`HealthMonitor`] turns a
//! stream of confidence-distance observations into triaged
//! [`HealthState`]s with hysteresis, and keeps the history a maintenance
//! log needs.

use crate::confidence::ConfidenceDistance;
use crate::detect::Detector;
use crate::error::HealthmonError;
use healthmon_nn::InferenceBackend;
use healthmon_telemetry as tel;
use std::sync::Arc;

// Checkup verdicts follow the deterministic device/checkup sequence, so
// every monitor tally is Stable.
static MONITOR_CHECKS: tel::Counter =
    tel::Counter::new("monitor.checks", tel::Stability::Stable);
static MONITOR_HEALTHY: tel::Counter =
    tel::Counter::new("monitor.state.healthy", tel::Stability::Stable);
static MONITOR_WATCH: tel::Counter =
    tel::Counter::new("monitor.state.watch", tel::Stability::Stable);
static MONITOR_CRITICAL: tel::Counter =
    tel::Counter::new("monitor.state.critical", tel::Stability::Stable);

healthmon_serdes::json_codec! {
    /// Triage verdict for a monitored accelerator.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum HealthState {
        /// Confidence distance below the watch threshold: no action.
        Healthy = "healthy",
        /// Distance in the watch band: schedule cheap repair (e.g.
        /// fault-aware remapping) at the next maintenance window.
        Watch = "watch",
        /// Distance beyond the critical threshold: the model needs
        /// reprogramming or cloud retraining now.
        Critical = "critical",
    }
}

impl HealthState {
    /// The repair action the paper's hierarchy associates with the state.
    pub fn recommended_action(self) -> &'static str {
        match self {
            HealthState::Healthy => "none",
            HealthState::Watch => "fault-aware remapping",
            HealthState::Critical => "weight reprogramming / cloud retraining",
        }
    }
}

healthmon_serdes::json_codec! {
    /// One entry of the monitoring log.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Checkup {
        /// Monotone check index (0-based).
        pub index: usize,
        /// Observed confidence distance at this check.
        pub distance: ConfidenceDistance,
        /// State after applying thresholds and hysteresis.
        pub state: HealthState,
    }
}

/// Thresholds and hysteresis for [`HealthMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorPolicy {
    /// All-class confidence distance at which the device enters `Watch`.
    pub watch_threshold: f32,
    /// All-class confidence distance at which the device is `Critical`.
    pub critical_threshold: f32,
    /// Consecutive observations required before *escalating* (hysteresis
    /// against one-off noise). De-escalation is immediate: a repaired or
    /// recovered device should read healthy right away.
    pub escalation_count: usize,
}

impl Default for MonitorPolicy {
    fn default() -> Self {
        MonitorPolicy { watch_threshold: 0.02, critical_threshold: 0.06, escalation_count: 1 }
    }
}

impl MonitorPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// [`HealthmonError::InvalidPolicy`] if thresholds are non-positive,
    /// non-finite or inverted, or `escalation_count` is zero.
    pub fn validate(&self) -> Result<(), HealthmonError> {
        // `0.0 < NaN` is false, so non-finite thresholds fail here too.
        if !(0.0 < self.watch_threshold
            && self.watch_threshold < self.critical_threshold
            && self.critical_threshold.is_finite())
        {
            return Err(HealthmonError::InvalidPolicy(format!(
                "thresholds must satisfy 0 < watch ({}) < critical ({}) < inf",
                self.watch_threshold, self.critical_threshold
            )));
        }
        if self.escalation_count == 0 {
            return Err(HealthmonError::InvalidPolicy(
                "escalation count must be non-zero".to_owned(),
            ));
        }
        Ok(())
    }

    fn raw_state(&self, distance: f32) -> HealthState {
        // NaN fails every `>=` here, so without the explicit non-finite
        // clause a poisoned accelerator (non-finite confidence distance)
        // would fall through to `Healthy` — the worst possible misread of
        // a dead device.
        if !distance.is_finite() || distance >= self.critical_threshold {
            HealthState::Critical
        } else if distance >= self.watch_threshold {
            HealthState::Watch
        } else {
            HealthState::Healthy
        }
    }
}

/// A stateful health monitor wrapping a [`Detector`], which monitors of
/// devices holding the same golden reference can share.
///
/// # Example
///
/// ```
/// use healthmon::{Detector, HealthMonitor, HealthState, MonitorPolicy, TestPatternSet};
/// use healthmon_nn::models::tiny_mlp;
/// use healthmon_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let model = tiny_mlp(8, 16, 4, &mut rng);
/// let patterns = TestPatternSet::new("t", Tensor::rand_uniform(&[6, 8], 0.0, 1.0, &mut rng));
/// let detector = Detector::new(&model, patterns);
/// let mut monitor = HealthMonitor::new(detector, MonitorPolicy::default());
///
/// let accelerator = model.clone();
/// let checkup = monitor.check(&accelerator);
/// assert_eq!(checkup.state, HealthState::Healthy);
/// ```
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    detector: Arc<Detector>,
    policy: MonitorPolicy,
    history: Vec<Checkup>,
    pending_state: HealthState,
    pending_count: usize,
    current: HealthState,
}

impl HealthMonitor {
    /// Creates a monitor with the given policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid.
    pub fn new(detector: impl Into<Arc<Detector>>, policy: MonitorPolicy) -> Self {
        policy.validate().unwrap_or_else(|e| panic!("{e}"));
        HealthMonitor {
            detector: detector.into(),
            policy,
            history: Vec::new(),
            pending_state: HealthState::Healthy,
            pending_count: 0,
            current: HealthState::Healthy,
        }
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// The monitoring policy.
    pub fn policy(&self) -> &MonitorPolicy {
        &self.policy
    }

    /// The current (hysteresis-filtered) health state.
    pub fn state(&self) -> HealthState {
        self.current
    }

    /// The full check history, oldest first.
    pub fn history(&self) -> &[Checkup] {
        &self.history
    }

    /// Runs one concurrent-test checkup against the accelerator — a
    /// digital network or any live analog backend — and updates the state
    /// machine.
    pub fn check<B: InferenceBackend + ?Sized>(&mut self, accelerator: &B) -> Checkup {
        let detector = Arc::clone(&self.detector);
        self.check_with(&detector, accelerator)
    }

    /// [`HealthMonitor::check`] against `detector` instead of the wrapped
    /// one, for this one checkup: a budget-shed epoch checks a subset of
    /// the patterns without replacing the monitor's detector.
    pub(crate) fn check_with<B: InferenceBackend + ?Sized>(
        &mut self,
        detector: &Detector,
        accelerator: &B,
    ) -> Checkup {
        let _span = tel::span("monitor.check");
        let distance = detector.confidence_distance(accelerator);
        let observed = self.policy.raw_state(distance.all_classes);
        self.transition(observed, distance.is_poisoned());
        let checkup = Checkup { index: self.history.len(), distance, state: self.current };
        self.history.push(checkup);
        MONITOR_CHECKS.inc();
        match checkup.state {
            HealthState::Healthy => MONITOR_HEALTHY.inc(),
            HealthState::Watch => MONITOR_WATCH.inc(),
            HealthState::Critical => MONITOR_CRITICAL.inc(),
        }
        checkup
    }

    /// Applies one observation to the hysteresis state machine. Split out
    /// of [`HealthMonitor::check`] so the transition rules are directly
    /// unit-testable without crafting devices that hit exact distance
    /// bands.
    fn transition(&mut self, observed: HealthState, poisoned: bool) {
        // A poisoned (non-finite) distance is not one-off noise to be
        // smoothed away — the device emitted NaN/Inf. Containment demands
        // it bypass hysteresis and read `Critical` on the spot.
        if poisoned {
            self.current = HealthState::Critical;
            self.pending_state = HealthState::Critical;
            self.pending_count = 0;
        } else if observed <= self.current {
            // Escalations need `escalation_count` consecutive
            // confirmations; de-escalations apply immediately.
            self.current = observed;
            self.pending_count = 0;
        } else if observed == self.pending_state {
            self.pending_count += 1;
            if self.pending_count >= self.policy.escalation_count {
                self.current = observed;
                self.pending_count = 0;
            }
        } else {
            self.pending_state = observed;
            self.pending_count = 1;
            if self.pending_count >= self.policy.escalation_count {
                self.current = observed;
                self.pending_count = 0;
            }
        }
    }

    /// Notifies the monitor that the accelerator was repaired (weights
    /// reprogrammed): resets the state machine but keeps the log.
    pub fn acknowledge_repair(&mut self) {
        self.current = HealthState::Healthy;
        self.pending_state = HealthState::Healthy;
        self.pending_count = 0;
    }

    /// Replaces the wrapped detector, keeping the state machine and log.
    ///
    /// Used by graceful degradation: when a damaged accelerator cannot be
    /// fully repaired, the lifetime runtime shrinks the pattern budget
    /// ([`Detector::subset`](crate::Detector::subset)) and keeps serving
    /// at reduced assurance.
    pub fn set_detector(&mut self, detector: impl Into<Arc<Detector>>) {
        self.detector = detector.into();
    }

    /// Captures the full mutable state of the monitor (state machine and
    /// log) for checkpointing. Restoring with
    /// [`HealthMonitor::from_snapshot`] under the same detector and policy
    /// reproduces the monitor bit-identically.
    pub fn snapshot(&self) -> MonitorSnapshot {
        MonitorSnapshot {
            current: self.current,
            pending_state: self.pending_state,
            pending_count: self.pending_count,
            history: self.history.clone(),
        }
    }

    /// Rebuilds a monitor from a checkpointed snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid.
    pub fn from_snapshot(
        detector: impl Into<Arc<Detector>>,
        policy: MonitorPolicy,
        snapshot: MonitorSnapshot,
    ) -> Self {
        policy.validate().unwrap_or_else(|e| panic!("{e}"));
        HealthMonitor {
            detector: detector.into(),
            policy,
            history: snapshot.history,
            pending_state: snapshot.pending_state,
            pending_count: snapshot.pending_count,
            current: snapshot.current,
        }
    }
}

healthmon_serdes::json_codec! {
    /// The serializable mutable state of a [`HealthMonitor`], captured by
    /// [`HealthMonitor::snapshot`] for lifetime-runtime checkpoints.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MonitorSnapshot {
        /// The hysteresis-filtered current state.
        pub current: HealthState,
        /// The state awaiting confirmation.
        pub pending_state: HealthState,
        /// Consecutive confirmations so far.
        pub pending_count: usize,
        /// Full checkup log, oldest first.
        pub history: Vec<Checkup>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::TestPatternSet;
    use healthmon_faults::FaultModel;
    use healthmon_nn::models::tiny_mlp;
    use healthmon_nn::Network;
    use healthmon_tensor::{SeededRng, Tensor};

    fn setup(escalation: usize) -> (Network, HealthMonitor) {
        let mut rng = SeededRng::new(1);
        let net = tiny_mlp(8, 16, 4, &mut rng);
        let patterns =
            TestPatternSet::new("t", Tensor::rand_uniform(&[8, 8], 0.0, 1.0, &mut rng));
        let detector = Detector::new(&net, patterns);
        let policy = MonitorPolicy { escalation_count: escalation, ..MonitorPolicy::default() };
        (net, HealthMonitor::new(detector, policy))
    }

    #[test]
    fn healthy_device_stays_healthy() {
        let (net, mut monitor) = setup(1);
        let device = net.clone();
        for _ in 0..3 {
            assert_eq!(monitor.check(&device).state, HealthState::Healthy);
        }
        assert_eq!(monitor.history().len(), 3);
    }

    #[test]
    fn degraded_device_escalates() {
        let (net, mut monitor) = setup(1);
        let mut device = net.clone();
        FaultModel::RandomSoftError { probability: 0.5 }
            .apply(&mut device, &mut SeededRng::new(2));
        let checkup = monitor.check(&device);
        assert!(checkup.state >= HealthState::Watch, "state {:?}", checkup.state);
        assert!(checkup.distance.all_classes > 0.02);
    }

    #[test]
    fn hysteresis_requires_consecutive_confirmations() {
        let (net, mut monitor) = setup(2);
        let mut bad = net.clone();
        FaultModel::RandomSoftError { probability: 0.5 }.apply(&mut bad, &mut SeededRng::new(2));
        // First bad reading: still healthy (pending).
        assert_eq!(monitor.check(&bad).state, HealthState::Healthy);
        // Second consecutive: escalates.
        assert_ne!(monitor.check(&bad).state, HealthState::Healthy);
    }

    #[test]
    fn recovery_deescalates_immediately() {
        let (net, mut monitor) = setup(1);
        let mut bad = net.clone();
        FaultModel::RandomSoftError { probability: 0.5 }.apply(&mut bad, &mut SeededRng::new(2));
        monitor.check(&bad);
        assert_ne!(monitor.state(), HealthState::Healthy);
        let repaired = net.clone();
        assert_eq!(monitor.check(&repaired).state, HealthState::Healthy);
    }

    #[test]
    fn acknowledge_repair_resets_state() {
        let (net, mut monitor) = setup(1);
        let mut bad = net.clone();
        FaultModel::RandomSoftError { probability: 0.5 }.apply(&mut bad, &mut SeededRng::new(2));
        monitor.check(&bad);
        monitor.acknowledge_repair();
        assert_eq!(monitor.state(), HealthState::Healthy);
        // History preserved.
        assert_eq!(monitor.history().len(), 1);
    }

    #[test]
    fn states_order_by_severity() {
        assert!(HealthState::Healthy < HealthState::Watch);
        assert!(HealthState::Watch < HealthState::Critical);
    }

    #[test]
    fn recommended_actions() {
        assert_eq!(HealthState::Healthy.recommended_action(), "none");
        assert!(HealthState::Critical.recommended_action().contains("retraining"));
    }

    #[test]
    fn non_finite_distance_is_always_critical() {
        let policy = MonitorPolicy::default();
        assert_eq!(policy.raw_state(f32::NAN), HealthState::Critical);
        assert_eq!(policy.raw_state(f32::INFINITY), HealthState::Critical);
        assert_eq!(policy.raw_state(f32::NEG_INFINITY), HealthState::Critical);
        // Finite behaviour unchanged.
        assert_eq!(policy.raw_state(0.0), HealthState::Healthy);
        assert_eq!(policy.raw_state(1.0), HealthState::Critical);
    }

    #[test]
    fn validate_reports_violations() {
        assert!(MonitorPolicy::default().validate().is_ok());
        let inverted =
            MonitorPolicy { watch_threshold: 0.5, critical_threshold: 0.1, escalation_count: 1 };
        let err = inverted.validate().unwrap_err();
        assert!(err.to_string().contains("thresholds must satisfy"));
        let nan = MonitorPolicy { watch_threshold: f32::NAN, ..MonitorPolicy::default() };
        assert!(nan.validate().is_err());
        let unbounded =
            MonitorPolicy { critical_threshold: f32::INFINITY, ..MonitorPolicy::default() };
        assert!(unbounded.validate().is_err());
        let never = MonitorPolicy { escalation_count: 0, ..MonitorPolicy::default() };
        assert!(never.validate().unwrap_err().to_string().contains("non-zero"));
    }

    #[test]
    #[should_panic(expected = "thresholds must satisfy")]
    fn rejects_inverted_thresholds() {
        let (_, monitor) = setup(1);
        let detector = monitor.detector().clone();
        HealthMonitor::new(
            detector,
            MonitorPolicy { watch_threshold: 0.5, critical_threshold: 0.1, escalation_count: 1 },
        );
    }

    #[test]
    fn escalation_count_one_promotes_on_first_divergent_observation() {
        // Regression for the `else` arm of the transition: with
        // escalation_count == 1 a *new* pending state must promote
        // immediately (pending_count = 1 >= 1), not wait a second check.
        let (_, mut monitor) = setup(1);
        monitor.transition(HealthState::Watch, false);
        assert_eq!(monitor.state(), HealthState::Watch);
        assert_eq!(monitor.pending_count, 0, "promotion must clear the pending counter");
        // And straight to Critical from Watch, again in one observation.
        monitor.transition(HealthState::Critical, false);
        assert_eq!(monitor.state(), HealthState::Critical);
    }

    #[test]
    fn state_flip_mid_confirmation_resets_pending_count() {
        // Regression: with escalation_count == 3, two Watch observations
        // (pending 2/3) followed by a Critical one must RESTART the count
        // at 1 for Critical — a stale count would let the third divergent
        // observation escalate one check early.
        let (_, mut monitor) = setup(3);
        monitor.transition(HealthState::Watch, false);
        monitor.transition(HealthState::Watch, false);
        assert_eq!(monitor.state(), HealthState::Healthy);
        assert_eq!(monitor.pending_count, 2);

        monitor.transition(HealthState::Critical, false);
        assert_eq!(monitor.state(), HealthState::Healthy, "flip must not escalate yet");
        assert_eq!(monitor.pending_state, HealthState::Critical);
        assert_eq!(monitor.pending_count, 1, "flip must reset the confirmation count");

        // Two more Critical confirmations complete the new count of 3.
        monitor.transition(HealthState::Critical, false);
        assert_eq!(monitor.state(), HealthState::Healthy);
        monitor.transition(HealthState::Critical, false);
        assert_eq!(monitor.state(), HealthState::Critical);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let (net, mut monitor) = setup(2);
        let mut bad = net.clone();
        FaultModel::RandomSoftError { probability: 0.5 }.apply(&mut bad, &mut SeededRng::new(2));
        monitor.check(&bad);
        monitor.check(&bad);
        let snap = monitor.snapshot();
        let json = healthmon_serdes::to_string(&snap);
        let restored: MonitorSnapshot = healthmon_serdes::from_str(&json).unwrap();
        assert_eq!(restored, snap);

        let revived = HealthMonitor::from_snapshot(
            monitor.detector().clone(),
            *monitor.policy(),
            restored,
        );
        assert_eq!(revived.state(), monitor.state());
        assert_eq!(revived.history(), monitor.history());
        // The revived monitor continues exactly where the original is.
        let mut a = monitor;
        let mut b = revived;
        let device = net.clone();
        assert_eq!(a.check(&device), b.check(&device));
    }

    #[test]
    fn health_state_labels_round_trip() {
        for state in [HealthState::Healthy, HealthState::Watch, HealthState::Critical] {
            let json = healthmon_serdes::to_string(&state);
            let back: HealthState = healthmon_serdes::from_str(&json).unwrap();
            assert_eq!(back, state);
        }
        assert!(healthmon_serdes::from_str::<HealthState>("\"zombie\"").is_err());
    }
}
