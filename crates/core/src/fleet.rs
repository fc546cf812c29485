//! Fleet supervision: a registry of independently-seeded
//! [`LifetimeRuntime`] devices driven by a crash-isolated supervisor.
//!
//! The single-device lifetime runtime ages *one* accelerator; the fleet
//! layer turns it into a service that monitors many. Each fleet epoch the
//! [`FleetSupervisor`] schedules a checkup for every live device across
//! the persistent worker pool, with the reliability contract the paper's
//! concurrent-test premise needs at scale:
//!
//! * **Panic isolation** — every device attempt runs under
//!   `catch_unwind`; a wedged or crashing checkup becomes a structured
//!   [`FleetIncident`], never a fleet abort.
//! * **Retry with backoff** — transient failures are retried up to a
//!   bounded attempt count with exponential backoff plus deterministic
//!   jitter, accounted in *virtual* milliseconds so reports stay
//!   byte-identical at any thread count.
//! * **Deadlines** — an attempt whose (injected) stall exceeds the
//!   per-checkup deadline is abandoned before the device transaction
//!   lands, so a timed-out checkup has no side effects and is safe to
//!   retry.
//! * **Quarantine** — a device that exhausts its retries in
//!   `quarantine_threshold` distinct epochs is parked out of the
//!   schedule; repeat offenders cannot starve the healthy fleet.
//! * **Priority + budget shedding** — Critical devices jump the queue;
//!   under a per-epoch pattern-evaluation budget the supervisor first
//!   sheds checkup *depth* on Healthy devices
//!   ([`LifetimeRuntime::step_shallow`]) and only then sheds whole
//!   devices, lowest priority first.
//!
//! Persistence is crash-safe: device state is partitioned into shard
//! files written atomically (temp + fsync + rename, per
//! [`crate::store`]) and guarded by a per-shard FNV digest, so
//! [`FleetSupervisor::resume`] recovers every healthy shard
//! bit-identically and reports torn or bit-flipped shards instead of
//! failing wholesale.
//!
//! Everything above is *proven* by the seeded [`ChaosConfig`] layer:
//! probabilistic checkup panics, virtual stalls, poisoned (NaN) checkup
//! distances, and checkpoint-write truncation/bit-flips, all drawn from
//! a chaos RNG keyed by `(device, epoch, attempt)` — independent of
//! scheduling, so a chaos run is as deterministic as a clean one.

use crate::detect::Detector;
use crate::error::HealthmonError;
use crate::monitor::HealthState;
use crate::patterns::TestPatternSet;
use crate::digest::{envelope, fnv1a, seal, unseal, Identity, FNV_OFFSET};
use crate::runtime::{panic_message, LifetimeConfig, LifetimeRuntime};
use crate::store;
use healthmon_nn::Network;
use healthmon_reram::BackendKind;
use healthmon_serdes::{FromJson, JsonError};
use healthmon_tensor::{pool, SeededRng};
use healthmon_telemetry as tel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

// Fleet rollups are pure functions of (config, golden, patterns): chaos
// draws are keyed by (device, epoch, attempt) and never by thread or
// wall clock, so every counter here is Stable and participates in the
// thread-count-invariance byte comparisons. Only the epoch wall-clock
// histogram is Volatile.
static FLEET_CHECKUPS_OK: tel::Counter =
    tel::Counter::new("fleet.checkups.ok", tel::Stability::Stable);
static FLEET_CHECKUPS_FAILED: tel::Counter =
    tel::Counter::new("fleet.checkups.failed", tel::Stability::Stable);
static FLEET_RETRIES: tel::Counter = tel::Counter::new("fleet.retries", tel::Stability::Stable);
static FLEET_QUARANTINES: tel::Counter =
    tel::Counter::new("fleet.quarantines", tel::Stability::Stable);
static FLEET_INCIDENTS: tel::Counter =
    tel::Counter::new("fleet.incidents", tel::Stability::Stable);
static FLEET_SHED_DEPTH: tel::Counter =
    tel::Counter::new("fleet.shed.depth", tel::Stability::Stable);
static FLEET_SHED_DEVICES: tel::Counter =
    tel::Counter::new("fleet.shed.devices", tel::Stability::Stable);
static FLEET_BACKOFF_MS: tel::Counter =
    tel::Counter::new("fleet.backoff_ms", tel::Stability::Stable);
static FLEET_FLIGHT_RECORDS: tel::Counter =
    tel::Counter::new("fleet.flight_records", tel::Stability::Stable);
static FLEET_EPOCH_NS: tel::Histogram =
    tel::Histogram::new("fleet.epoch_ns", tel::Stability::Volatile);

/// Shard file format tag; bumped on incompatible layout changes.
const SHARD_FORMAT: &str = "healthmon-fleet-shard-v2";

/// Seeded fault injection into the *monitor itself*. All probabilities
/// are per checkup attempt except the checkpoint knobs, which are per
/// shard write. A default (all-zero) config injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the chaos stream; draws are keyed by
    /// `(seed, device, epoch, attempt)` so they are independent of
    /// scheduling and thread count.
    pub seed: u64,
    /// Probability an attempt panics before touching the device.
    pub panic_p: f64,
    /// Probability an attempt stalls for a drawn virtual duration.
    pub stall_p: f64,
    /// Maximum virtual stall in milliseconds (uniform in `1..=stall_ms`).
    pub stall_ms: u64,
    /// Per-shard probability a checkpoint write is truncated mid-file.
    pub truncate_p: f64,
    /// Per-shard probability a single checkpoint byte is bit-flipped.
    pub bitflip_p: f64,
    /// Probability a *successful* checkup's recorded confidence distance
    /// is poisoned to NaN, forcing a priority escalation.
    pub poison_p: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            panic_p: 0.0,
            stall_p: 0.0,
            stall_ms: 250,
            truncate_p: 0.0,
            bitflip_p: 0.0,
            poison_p: 0.0,
        }
    }
}

impl ChaosConfig {
    /// Parses a spec like `panic:0.05,stall:0.1,stallms:400,trunc:1,
    /// flip:0.5,poison:0.02,seed:9`. The literal `off` (or an empty
    /// string) is the inactive default.
    ///
    /// # Errors
    ///
    /// A description of the first malformed `key:value` pair.
    pub fn parse(spec: &str) -> Result<ChaosConfig, String> {
        let mut chaos = ChaosConfig::default();
        if spec.is_empty() || spec == "off" {
            return Ok(chaos);
        }
        for part in spec.split(',') {
            let (key, raw) = part
                .split_once(':')
                .ok_or_else(|| format!("chaos spec part `{part}` must look like key:value"))?;
            let bad = || format!("chaos spec `{key}`: cannot parse `{raw}`");
            match key {
                "panic" => chaos.panic_p = raw.parse().map_err(|_| bad())?,
                "stall" => chaos.stall_p = raw.parse().map_err(|_| bad())?,
                "stallms" => chaos.stall_ms = raw.parse().map_err(|_| bad())?,
                "trunc" => chaos.truncate_p = raw.parse().map_err(|_| bad())?,
                "flip" => chaos.bitflip_p = raw.parse().map_err(|_| bad())?,
                "poison" => chaos.poison_p = raw.parse().map_err(|_| bad())?,
                "seed" => chaos.seed = raw.parse().map_err(|_| bad())?,
                other => {
                    return Err(format!(
                        "unknown chaos knob `{other}` \
                         (panic|stall|stallms|trunc|flip|poison|seed)"
                    ))
                }
            }
        }
        chaos.validate().map_err(|e| e.to_string())?;
        Ok(chaos)
    }

    /// Whether any injection knob is non-zero.
    pub fn is_active(&self) -> bool {
        self.panic_p > 0.0
            || self.stall_p > 0.0
            || self.truncate_p > 0.0
            || self.bitflip_p > 0.0
            || self.poison_p > 0.0
    }

    /// Validates every probability into `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`HealthmonError::InvalidPolicy`] naming the offending knob.
    pub fn validate(&self) -> Result<(), HealthmonError> {
        for (name, p) in [
            ("panic", self.panic_p),
            ("stall", self.stall_p),
            ("trunc", self.truncate_p),
            ("flip", self.bitflip_p),
            ("poison", self.poison_p),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(HealthmonError::InvalidPolicy(format!(
                    "chaos probability `{name}` is {p}, outside [0, 1]"
                )));
            }
        }
        Ok(())
    }

    /// The chaos RNG for one checkup attempt, keyed so draws never depend
    /// on scheduling: same `(seed, device, epoch, attempt)` ⇒ same fault.
    fn attempt_rng(&self, device: usize, epoch: usize, attempt: usize) -> SeededRng {
        let mut h = fnv1a(FNV_OFFSET, self.seed.to_le_bytes());
        h = fnv1a(h, (device as u64).to_le_bytes());
        h = fnv1a(h, (epoch as u64).to_le_bytes());
        h = fnv1a(h, (attempt as u64).to_le_bytes());
        SeededRng::new(h)
    }

    /// The chaos RNG for one shard write.
    fn shard_rng(&self, shard: usize, epoch: usize) -> SeededRng {
        let mut h = fnv1a(FNV_OFFSET, self.seed.to_le_bytes());
        h = fnv1a(h, 0xF_1EE7_CA05u64.to_le_bytes());
        h = fnv1a(h, (shard as u64).to_le_bytes());
        h = fnv1a(h, (epoch as u64).to_le_bytes());
        SeededRng::new(h)
    }
}

/// One attempt's injected faults, drawn up front in a fixed order so the
/// stream is identical whichever faults end up firing.
struct AttemptChaos {
    panic: bool,
    stall_ms: u64,
    poison: bool,
    jitter_ms: u64,
}

fn draw_attempt(chaos: &ChaosConfig, device: usize, epoch: usize, attempt: usize) -> AttemptChaos {
    let mut rng = chaos.attempt_rng(device, epoch, attempt);
    let panic = rng.chance(chaos.panic_p);
    let stalled = rng.chance(chaos.stall_p);
    let stall_ms = if stalled && chaos.stall_ms > 0 {
        1 + rng.below(chaos.stall_ms as usize) as u64
    } else {
        0
    };
    let poison = rng.chance(chaos.poison_p);
    let jitter_ms = rng.below(16) as u64;
    AttemptChaos { panic, stall_ms, poison, jitter_ms }
}

/// Full configuration of a [`FleetSupervisor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Fleet master seed; each device's [`LifetimeConfig::seed`] is an
    /// FNV mix of this and its id.
    pub seed: u64,
    /// Number of devices in the registry.
    pub devices: usize,
    /// Per-device lifetime template (its `seed` field is overridden).
    pub device: LifetimeConfig,
    /// Checkup attempts per device per epoch before it counts as an
    /// offense (must be at least 1).
    pub retry_limit: usize,
    /// Base of the exponential retry backoff, in virtual milliseconds.
    pub backoff_base_ms: u64,
    /// Virtual per-attempt deadline: a stalled attempt exceeding it is
    /// abandoned (before the device transaction lands) and retried.
    pub deadline_ms: u64,
    /// Offenses (epochs with all retries exhausted) before a device is
    /// quarantined out of the schedule (must be at least 1).
    pub quarantine_threshold: usize,
    /// Per-epoch checkup budget in pattern evaluations; 0 = unlimited.
    /// Under pressure the supervisor sheds checkup depth on Healthy
    /// devices first, then sheds whole low-priority devices.
    pub budget: usize,
    /// Checkpoint shard count (must be at least 1).
    pub shards: usize,
    /// Safety bound on fleet epochs; 0 derives `2 * device.epochs + 8`,
    /// enough slack for shed devices to catch up.
    pub max_epochs: usize,
    /// The seeded fault-injection layer.
    pub chaos: ChaosConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 0,
            devices: 8,
            device: LifetimeConfig::default(),
            retry_limit: 3,
            backoff_base_ms: 50,
            deadline_ms: 200,
            quarantine_threshold: 2,
            budget: 0,
            shards: 4,
            max_epochs: 0,
            chaos: ChaosConfig::default(),
        }
    }
}

impl FleetConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`HealthmonError::InvalidPolicy`] naming the first invalid knob.
    pub fn validate(&self) -> Result<(), HealthmonError> {
        self.device.validate()?;
        self.chaos.validate()?;
        let positive = [
            ("devices", self.devices),
            ("retry_limit", self.retry_limit),
            ("quarantine_threshold", self.quarantine_threshold),
            ("shards", self.shards),
        ];
        for (name, v) in positive {
            if v == 0 {
                return Err(HealthmonError::InvalidPolicy(format!(
                    "fleet `{name}` must be at least 1"
                )));
            }
        }
        if self.deadline_ms == 0 {
            return Err(HealthmonError::InvalidPolicy(
                "fleet `deadline_ms` must be at least 1".to_owned(),
            ));
        }
        Ok(())
    }

    /// FNV-1a digest, stored in every shard so a resume under different
    /// parameters is rejected instead of silently diverging.
    pub fn digest(&self) -> u64 {
        fnv1a(FNV_OFFSET, format!("{self:?}").bytes())
    }

    /// The lifetime configuration of device `id`: the template with an
    /// independent derived seed.
    pub fn device_config(&self, id: usize) -> LifetimeConfig {
        let mut seed = fnv1a(FNV_OFFSET, self.seed.to_le_bytes());
        seed = fnv1a(seed, (id as u64).to_le_bytes());
        LifetimeConfig { seed, ..self.device }
    }

    fn epoch_bound(&self) -> usize {
        if self.max_epochs > 0 {
            self.max_epochs
        } else {
            2 * self.device.epochs + 8
        }
    }
}

healthmon_serdes::json_codec! {
    /// What went wrong in one failed (or poisoned) device interaction.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum IncidentKind {
        /// The checkup attempt panicked (isolated by the supervisor).
        CheckupPanic = "checkup-panic",
        /// The attempt stalled past the per-checkup deadline and was
        /// abandoned before the device transaction landed.
        Timeout = "timeout",
        /// The checkup completed but its recorded confidence distance was
        /// non-finite; the device is escalated to Critical priority.
        PoisonedDistance = "poisoned-distance",
    }
}

healthmon_serdes::json_codec! {
    /// A structured supervisor-level incident: a device interaction that
    /// failed (after retries) or returned poisoned data. Device-internal
    /// incidents (parks) stay in the device's own
    /// [`IncidentReport`](crate::IncidentReport).
    #[derive(Debug, Clone, PartialEq)]
    pub struct FleetIncident {
        /// The offending device id.
        pub device: usize,
        /// Fleet epoch of the incident.
        pub epoch: usize,
        /// What happened.
        pub kind: IncidentKind,
        /// Human-readable detail (panic message, timings).
        pub message: String,
    }
}

impl FleetIncident {
    fn describe(&self) -> String {
        format!(
            "device {:04} epoch {}: {} — {}",
            self.device,
            self.epoch,
            self.kind.label(),
            self.message
        )
    }
}

/// One registered device plus its supervision state.
#[derive(Debug, Clone)]
struct DeviceRecord {
    id: usize,
    runtime: LifetimeRuntime,
    /// Epochs in which every retry was exhausted.
    offenses: usize,
    /// Fleet epoch at which the device was quarantined, if it was.
    quarantined_at: Option<usize>,
    /// Total retry attempts across the lifetime.
    retries: usize,
    /// Epochs run with shed checkup depth.
    shed_depth: usize,
    /// Epochs skipped entirely under budget pressure.
    shed_skipped: usize,
    /// Virtual milliseconds lost to stalls, timeouts and backoff.
    backoff_ms: u64,
    /// The last checkup's distance was poisoned; escalates priority
    /// until the next clean checkup.
    poisoned: bool,
    incidents: Vec<FleetIncident>,
}

impl DeviceRecord {
    /// Scheduling priority: higher goes first. Poisoned data is treated
    /// like Critical — non-finite distances bypass hysteresis exactly as
    /// in the single-device monitor.
    fn priority(&self) -> u8 {
        if self.poisoned {
            return 2;
        }
        match self.runtime.state() {
            HealthState::Critical => 2,
            HealthState::Watch => 1,
            HealthState::Healthy => 0,
        }
    }

    fn is_active(&self) -> bool {
        self.quarantined_at.is_none() && !self.runtime.is_finished()
    }

    fn summary(&self) -> String {
        let mut line = format!(
            "device {:04}: state={} epochs={}/{} repairs={} stuck={} \
             offenses={} retries={} shed={}+{} backoff_ms={}",
            self.id,
            self.runtime.state().label(),
            self.runtime.epoch(),
            self.runtime.config().epochs,
            self.runtime.repairs_used(),
            self.runtime.total_stuck(),
            self.offenses,
            self.retries,
            self.shed_depth,
            self.shed_skipped,
            self.backoff_ms,
        );
        if self.runtime.is_parked() {
            line.push_str(" PARKED");
        }
        if let Some(epoch) = self.quarantined_at {
            line.push_str(&format!(" QUARANTINED@{epoch}"));
        }
        line
    }
}

/// What the scheduler decided for one device this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// Not scheduled: quarantined, finished, or shed under budget.
    Skip { shed: bool },
    /// Full-depth checkup.
    Full,
    /// Depth-shed checkup at the given pattern count.
    Shallow(usize),
}

/// The fleet supervisor: owns the registry and drives it epoch by epoch.
/// See the module docs for the supervision contract.
#[derive(Debug)]
pub struct FleetSupervisor {
    config: FleetConfig,
    /// The golden network and its responses over the fleet's patterns,
    /// held once and shared by every device's runtime and monitor.
    golden: Arc<Network>,
    detector: Arc<Detector>,
    devices: Vec<DeviceRecord>,
    fleet_epoch: usize,
    /// Shards reported damaged by the last [`FleetSupervisor::resume`]:
    /// `(shard index, detail)`. Their devices were reinitialized fresh.
    damaged_shards: Vec<(usize, String)>,
    /// Flight-recorder directory: when set, incidents, quarantines and
    /// poisoned distances dump postmortem artifacts there. Runtime
    /// state only — never serialized into shards (checkpoint layout is
    /// unchanged from earlier formats).
    flight_dir: Option<PathBuf>,
}

impl FleetSupervisor {
    /// Builds and deploys the whole registry: one independently-seeded
    /// [`LifetimeRuntime`] per device, constructed in parallel on the
    /// worker pool (construction is a pure function of the device id, so
    /// the result is scheduling-independent).
    ///
    /// # Errors
    ///
    /// [`HealthmonError::InvalidPolicy`] on an invalid configuration.
    pub fn new(
        golden: &Network,
        patterns: TestPatternSet,
        config: FleetConfig,
    ) -> Result<Self, HealthmonError> {
        let mut fleet = FleetSupervisor::empty(golden, patterns, config)?;
        fleet.deploy((0..config.devices).map(|_| None).collect());
        Ok(fleet)
    }

    /// A fleet over checked inputs, with no device yet.
    fn empty(
        golden: &Network,
        patterns: TestPatternSet,
        config: FleetConfig,
    ) -> Result<Self, HealthmonError> {
        config.validate()?;
        config.device.check_pattern_floor(patterns.len())?;
        Ok(FleetSupervisor {
            config,
            golden: Arc::new(golden.clone()),
            detector: Arc::new(Detector::new(golden, patterns)),
            devices: Vec::new(),
            fleet_epoch: 0,
            damaged_shards: Vec::new(),
            flight_dir: None,
        })
    }

    /// Fills the registry from `slots`, one per device id, giving each
    /// empty slot a freshly deployed device; the devices are built in
    /// parallel on the pool as in [`FleetSupervisor::new`].
    fn deploy(&mut self, mut slots: Vec<Option<DeviceRecord>>) {
        let (golden, detector, config) = (&self.golden, &self.detector, &self.config);
        pool::run_chunks(&mut slots, 1, |id, chunk| {
            if chunk[0].is_none() {
                let config = config.device_config(id);
                let (golden, detector) = (Arc::clone(golden), Arc::clone(detector));
                let runtime = LifetimeRuntime::with_reference(golden, detector, config, None);
                chunk[0] = Some(DeviceRecord {
                    id,
                    runtime,
                    offenses: 0,
                    quarantined_at: None,
                    retries: 0,
                    shed_depth: 0,
                    shed_skipped: 0,
                    backoff_ms: 0,
                    poisoned: false,
                    incidents: Vec::new(),
                });
            }
        });
        self.devices = slots
            .into_iter()
            .map(|slot| slot.expect("every construction chunk ran"))
            .collect();
    }

    /// Arms the incident flight recorder: every incident, quarantine
    /// transition, poisoned distance and device park from now on dumps a
    /// self-contained `incident-<device>-<epoch>.json` postmortem into
    /// `dir` (see [`crate::flight`]). Applied after construction *or*
    /// resume, so it covers both paths; it never changes detection
    /// outcomes, reports or checkpoints — artifacts are written on the
    /// side via [`store::write_atomic`].
    pub fn set_flight_dir(&mut self, dir: impl Into<PathBuf>) {
        let dir = dir.into();
        for rec in &mut self.devices {
            rec.runtime.set_flight(dir.clone(), rec.id as u32);
        }
        self.flight_dir = Some(dir);
    }

    /// The armed flight-recorder directory, if any.
    pub fn flight_dir(&self) -> Option<&Path> {
        self.flight_dir.as_deref()
    }

    /// The configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Completed fleet epochs.
    pub fn fleet_epoch(&self) -> usize {
        self.fleet_epoch
    }

    /// Whether every device is finished or quarantined.
    pub fn is_done(&self) -> bool {
        self.devices.iter().all(|r| !r.is_active())
    }

    /// Quarantined device ids, ascending.
    pub fn quarantined(&self) -> Vec<usize> {
        self.devices
            .iter()
            .filter(|r| r.quarantined_at.is_some())
            .map(|r| r.id)
            .collect()
    }

    /// Supervisor-level incidents across all devices, ordered by
    /// `(device, occurrence)`.
    pub fn incidents(&self) -> Vec<FleetIncident> {
        self.devices.iter().flat_map(|r| r.incidents.iter().cloned()).collect()
    }

    /// Total device epochs completed (the fleet's checkup throughput
    /// denominator for the load-generator mode).
    pub fn total_device_epochs(&self) -> usize {
        self.devices.iter().map(|r| r.runtime.epoch()).sum()
    }

    /// Shards the last [`FleetSupervisor::resume`] found damaged:
    /// `(shard index, detail)`.
    pub fn damaged_shards(&self) -> &[(usize, String)] {
        &self.damaged_shards
    }

    /// Per-device state histogram `(healthy, watch, critical)`.
    pub fn state_histogram(&self) -> (usize, usize, usize) {
        let mut h = (0usize, 0usize, 0usize);
        for r in &self.devices {
            match r.runtime.state() {
                HealthState::Healthy => h.0 += 1,
                HealthState::Watch => h.1 += 1,
                HealthState::Critical => h.2 += 1,
            }
        }
        h
    }

    /// One deterministic summary line per device, ascending by id — the
    /// unit the shard-recovery tests compare bit-for-bit.
    pub fn device_summaries(&self) -> Vec<String> {
        self.devices.iter().map(DeviceRecord::summary).collect()
    }

    /// Builds this epoch's schedule: priority order, then budget
    /// shedding (depth before devices).
    fn plan_epoch(&mut self) -> Vec<Plan> {
        let mut plan: Vec<Plan> = self
            .devices
            .iter()
            .map(|r| if r.is_active() { Plan::Full } else { Plan::Skip { shed: false } })
            .collect();
        if self.config.budget == 0 {
            return plan;
        }
        let cost = |rec: &DeviceRecord, p: Plan| -> usize {
            match p {
                Plan::Skip { .. } => 0,
                Plan::Full => rec.runtime.active_patterns(),
                Plan::Shallow(k) => k,
            }
        };
        let mut total: usize =
            self.devices.iter().zip(&plan).map(|(r, &p)| cost(r, p)).sum();
        if total <= self.config.budget {
            return plan;
        }
        // Scheduling order: priority descending, id ascending. Shedding
        // walks it back to front, so the healthiest devices give up
        // checkup depth (and, if that is not enough, their whole slot)
        // before anything is taken from Watch or Critical devices.
        let mut order: Vec<usize> = (0..self.devices.len())
            .filter(|&i| self.devices[i].is_active())
            .collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(self.devices[i].priority()), i));
        let floor = self.config.device.min_patterns;
        // Pass 1: shed depth on Healthy devices, lowest priority first.
        for &i in order.iter().rev() {
            if total <= self.config.budget {
                break;
            }
            let rec = &self.devices[i];
            if rec.priority() > 0 {
                continue;
            }
            let full = rec.runtime.active_patterns();
            if full > floor {
                plan[i] = Plan::Shallow(floor);
                total -= full - floor;
                self.devices[i].shed_depth += 1;
                FLEET_SHED_DEPTH.inc();
            }
        }
        // Pass 2: shed whole devices, lowest priority first.
        for &i in order.iter().rev() {
            if total <= self.config.budget {
                break;
            }
            let c = cost(&self.devices[i], plan[i]);
            plan[i] = Plan::Skip { shed: true };
            total -= c;
            self.devices[i].shed_skipped += 1;
            FLEET_SHED_DEVICES.inc();
        }
        plan
    }

    /// Runs one fleet epoch: plan, fan the scheduled checkups out over
    /// the worker pool with per-device isolation, and fold the outcomes
    /// back into the registry. Chaos (when configured) is injected here.
    pub fn run_epoch(&mut self) {
        let _span = tel::span("fleet.epoch");
        let t0 = tel::enabled().then(std::time::Instant::now);
        self.fleet_epoch += 1;
        let epoch = self.fleet_epoch;
        let plan = self.plan_epoch();
        let config = self.config;
        let flight = self.flight_dir.clone();
        let flight = flight.as_deref();
        pool::run_chunks(&mut self.devices, 1, |i, chunk| {
            let rec = &mut chunk[0];
            match plan[i] {
                Plan::Skip { .. } => {}
                Plan::Full => run_device_epoch(rec, epoch, None, &config, flight),
                Plan::Shallow(k) => run_device_epoch(rec, epoch, Some(k), &config, flight),
            }
        });
        FLEET_EPOCH_NS.record_since(t0);
    }

    /// Runs up to `max_epochs` fleet epochs (until done, or until the
    /// configured safety bound, if `None`).
    pub fn run(&mut self, max_epochs: Option<usize>) {
        let mut remaining = max_epochs.unwrap_or(usize::MAX);
        while !self.is_done() && self.fleet_epoch < self.config.epoch_bound() && remaining > 0 {
            self.run_epoch();
            remaining -= 1;
        }
    }

    /// Deterministic operator-facing report: byte-identical for
    /// byte-identical fleets, at any thread count — the artifact the
    /// chaos-determinism and kill-resume CI gates compare.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        out.push_str("== fleet report ==\n");
        out.push_str(&format!("seed: {}\n", self.config.seed));
        out.push_str(&format!(
            "devices: {} ({} shards)\n",
            self.config.devices, self.config.shards
        ));
        out.push_str(&format!("fleet epochs: {}\n", self.fleet_epoch));
        out.push_str(&format!(
            "chaos: {}\n",
            if self.config.chaos.is_active() { "active" } else { "off" }
        ));
        let (healthy, watch, critical) = self.state_histogram();
        out.push_str(&format!(
            "states: healthy {healthy}, watch {watch}, critical {critical}\n"
        ));
        let parked = self.devices.iter().filter(|r| r.runtime.is_parked()).count();
        out.push_str(&format!("parked devices: {parked}\n"));
        let quarantined = self.quarantined();
        out.push_str(&format!(
            "quarantined devices: {}{}\n",
            quarantined.len(),
            if quarantined.is_empty() {
                String::new()
            } else {
                format!(
                    " [{}]",
                    quarantined
                        .iter()
                        .map(|id| id.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
        ));
        let retries: usize = self.devices.iter().map(|r| r.retries).sum();
        let offenses: usize = self.devices.iter().map(|r| r.offenses).sum();
        let shed_depth: usize = self.devices.iter().map(|r| r.shed_depth).sum();
        let shed_skipped: usize = self.devices.iter().map(|r| r.shed_skipped).sum();
        let backoff: u64 = self.devices.iter().map(|r| r.backoff_ms).sum();
        out.push_str(&format!("retries: {retries}, offenses: {offenses}\n"));
        out.push_str(&format!(
            "shed: {shed_depth} shallow epochs, {shed_skipped} skipped epochs\n"
        ));
        out.push_str(&format!("virtual backoff: {backoff} ms\n"));
        match self.damaged_shards.as_slice() {
            [] => out.push_str("damaged shards: none\n"),
            damaged => {
                out.push_str(&format!("damaged shards: {}\n", damaged.len()));
                for (index, detail) in damaged {
                    out.push_str(&format!("  shard {index:03}: {detail}\n"));
                }
            }
        }
        let incidents = self.incidents();
        out.push_str(&format!("incidents: {}\n", incidents.len()));
        const INCIDENT_CAP: usize = 50;
        for incident in incidents.iter().take(INCIDENT_CAP) {
            out.push_str("  ");
            out.push_str(&incident.describe());
            out.push('\n');
        }
        if incidents.len() > INCIDENT_CAP {
            out.push_str(&format!("  (+{} more)\n", incidents.len() - INCIDENT_CAP));
        }
        out.push_str("devices:\n");
        for line in self.device_summaries() {
            out.push_str("  ");
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Writes the fleet state as `shards` atomic shard files under
    /// `dir`, each guarded by an FNV digest over its content. A kill at
    /// any instant leaves every shard either at its previous complete
    /// state or its new complete state. With chaos checkpoint knobs
    /// active, shard writes are deliberately truncated or bit-flipped
    /// *after* the atomic write — simulating media corruption that the
    /// resume path must detect and contain.
    ///
    /// # Errors
    ///
    /// [`HealthmonError::CheckpointMismatch`] on a non-digital device
    /// backend; [`HealthmonError::CheckpointCorrupt`] on I/O failure.
    pub fn save_checkpoint(&self, dir: impl AsRef<Path>) -> Result<(), HealthmonError> {
        if self.config.device.backend.kind != BackendKind::Digital {
            return Err(HealthmonError::CheckpointMismatch(format!(
                "fleet checkpoints capture digital device state only; \
                 not supported on the `{}` backend",
                self.config.device.backend.kind.label()
            )));
        }
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| HealthmonError::CheckpointCorrupt {
            path: dir.display().to_string(),
            detail: e.to_string(),
        })?;
        let identity = self.identity();
        for shard in 0..self.config.shards {
            let path = shard_path(dir, shard);
            let devices = self
                .devices
                .iter()
                .filter(|r| r.id % self.config.shards == shard)
                .map(DeviceEntry::of)
                .collect();
            let body = ShardBody {
                shard,
                shards: self.config.shards,
                fleet_epoch: self.fleet_epoch,
                devices,
            };
            let mut bytes = seal(envelope(SHARD_FORMAT, &[&identity, &body])).into_bytes();
            let mut rng = self.config.chaos.shard_rng(shard, self.fleet_epoch);
            let truncate = rng.chance(self.config.chaos.truncate_p);
            let flip = rng.chance(self.config.chaos.bitflip_p);
            if truncate && bytes.len() > 2 {
                // A torn write: everything past a drawn offset is lost.
                bytes.truncate(1 + rng.below(bytes.len() - 1));
            } else if flip && !bytes.is_empty() {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            store::write_atomic(&path, &bytes).map_err(|e| {
                HealthmonError::CheckpointCorrupt {
                    path: path.display().to_string(),
                    detail: e.to_string(),
                }
            })?;
        }
        Ok(())
    }

    /// Rebuilds a fleet from the shard files under `dir`, given the same
    /// golden network, pattern set and config. Every shard that reads
    /// back complete and digest-clean restores its devices
    /// bit-identically; torn, bit-flipped or missing shards are recorded
    /// in [`FleetSupervisor::damaged_shards`] and their devices are
    /// reinitialized fresh — a damaged shard never takes the fleet down.
    /// The shards are restored first; only the devices of damaged shards
    /// are then built and deployed.
    ///
    /// # Errors
    ///
    /// [`HealthmonError::CheckpointMismatch`] when a digest-clean shard
    /// was written under a different config, golden network, pattern set
    /// or shard layout, or does not list each of its devices exactly once
    /// (that is operator error, not media corruption);
    /// [`HealthmonError::InvalidPolicy`] on an invalid config.
    pub fn resume(
        golden: &Network,
        patterns: TestPatternSet,
        config: FleetConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Self, HealthmonError> {
        let dir = dir.as_ref();
        let mut fleet = FleetSupervisor::empty(golden, patterns, config)?;
        let identity = fleet.identity();
        let mut slots: Vec<Option<DeviceRecord>> = (0..config.devices).map(|_| None).collect();
        // The *minimum* healthy-shard epoch, not the maximum: a kill
        // mid-save leaves shards at mixed epochs, and resuming from the
        // slowest one replays only what it missed (devices already ahead
        // are finished or re-planned idempotently), so the completed
        // fleet converges to the uninterrupted run byte-for-byte.
        let mut fleet_epoch: Option<usize> = None;
        for shard in 0..config.shards {
            let path = shard_path(dir, shard);
            let loaded = fleet.load_shard(&path, shard, &identity);
            match loaded.map_err(|e| store::mark_corrupt(&path, e)) {
                Ok((epoch, records)) => {
                    fleet_epoch = Some(fleet_epoch.map_or(epoch, |e| e.min(epoch)));
                    for rec in records {
                        let id = rec.id;
                        slots[id] = Some(rec);
                    }
                }
                Err(HealthmonError::CheckpointCorrupt { detail, .. }) => {
                    fleet.damaged_shards.push((shard, detail));
                }
                Err(other) => return Err(other),
            }
        }
        fleet.deploy(slots);
        fleet.fleet_epoch = fleet_epoch.unwrap_or(0);
        Ok(fleet)
    }

    /// Loads one shard: its fleet epoch and the restored records of its
    /// devices. Damage (unreadable, unsealed or undecodable bytes)
    /// surfaces as [`HealthmonError::CheckpointCorrupt`] or as a JSON
    /// error the caller rewraps so; a sealed shard written for other
    /// inputs, or one that does not list each of its devices exactly
    /// once, surfaces as [`HealthmonError::CheckpointMismatch`].
    fn load_shard(
        &self,
        path: &Path,
        shard: usize,
        identity: &Identity,
    ) -> Result<(usize, Vec<DeviceRecord>), HealthmonError> {
        let value = unseal(&store::read_checkpoint(path)?)?;
        let format = value.field("format")?.as_str()?;
        if format != SHARD_FORMAT {
            return Err(JsonError::invalid(format!(
                "unknown shard format `{format}` (expected `{SHARD_FORMAT}`)"
            ))
            .into());
        }
        // Sealed from here on: the bytes are exactly what a supervisor
        // wrote, so a shard for other inputs is operator error.
        identity.verify(&value, "fleet configuration", &self.golden)?;
        let body = ShardBody::from_json(&value)?;
        if body.shards != self.config.shards || body.shard != shard {
            return Err(HealthmonError::CheckpointMismatch(format!(
                "shard file {} claims shard {}/{}, expected {shard}/{}",
                path.display(),
                body.shard,
                body.shards,
                self.config.shards
            )));
        }
        self.check_members(&body.devices, shard)?;
        // Every device resumes before any is returned, so a shard that
        // fails part-way leaves all of its devices to be built fresh.
        let records = body
            .devices
            .into_iter()
            .map(|entry| {
                let runtime = LifetimeRuntime::resume_with_reference(
                    Arc::clone(&self.golden),
                    Arc::clone(&self.detector),
                    self.config.device_config(entry.id),
                    None,
                    &entry.checkpoint,
                )?;
                Ok(entry.into_record(runtime))
            })
            .collect::<Result<_, HealthmonError>>()?;
        Ok((body.fleet_epoch, records))
    }

    /// Checks that `entries` list each device of `shard` exactly once,
    /// naming the first stray, repeated or missing id.
    fn check_members(&self, entries: &[DeviceEntry], shard: usize) -> Result<(), HealthmonError> {
        let (devices, shards) = (self.config.devices, self.config.shards);
        let mut listed = vec![false; devices];
        for entry in entries {
            let id = entry.id;
            let detail = if id >= devices || id % shards != shard {
                format!("device id {id} does not belong to shard {shard}")
            } else if std::mem::replace(&mut listed[id], true) {
                format!("shard {shard} lists device id {id} twice")
            } else {
                continue;
            };
            return Err(HealthmonError::CheckpointMismatch(detail));
        }
        match (shard..devices).step_by(shards).find(|&id| !listed[id]) {
            Some(id) => Err(HealthmonError::CheckpointMismatch(format!(
                "shard {shard} omits device id {id}"
            ))),
            None => Ok(()),
        }
    }

    /// The identity of this fleet's inputs, stored in every shard.
    fn identity(&self) -> Identity {
        Identity::of(self.config.digest(), &self.golden, self.detector.patterns())
    }
}

fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}.json"))
}

healthmon_serdes::json_codec! {
    /// A shard's fields after its identity.
    struct ShardBody {
        shard: usize,
        shards: usize,
        fleet_epoch: usize,
        devices: Vec<DeviceEntry>,
    }
}

healthmon_serdes::json_codec! {
    /// One device in a shard: its supervision state, then its lifetime
    /// checkpoint as the exact string the runtime rendered.
    struct DeviceEntry {
        id: usize,
        offenses: usize,
        quarantined_at: Option<usize>,
        retries: usize,
        shed_depth: usize,
        shed_skipped: usize,
        backoff_ms: u64 as healthmon_serdes::decimal,
        poisoned: bool,
        incidents: Vec<FleetIncident>,
        checkpoint: String,
    }
}

impl DeviceEntry {
    /// The record this entry restores, around its resumed runtime.
    fn into_record(self, runtime: LifetimeRuntime) -> DeviceRecord {
        DeviceRecord {
            id: self.id,
            runtime,
            offenses: self.offenses,
            quarantined_at: self.quarantined_at,
            retries: self.retries,
            shed_depth: self.shed_depth,
            shed_skipped: self.shed_skipped,
            backoff_ms: self.backoff_ms,
            poisoned: self.poisoned,
            incidents: self.incidents,
        }
    }

    fn of(rec: &DeviceRecord) -> Self {
        DeviceEntry {
            id: rec.id,
            offenses: rec.offenses,
            quarantined_at: rec.quarantined_at,
            retries: rec.retries,
            shed_depth: rec.shed_depth,
            shed_skipped: rec.shed_skipped,
            backoff_ms: rec.backoff_ms,
            poisoned: rec.poisoned,
            incidents: rec.incidents.clone(),
            checkpoint: rec.runtime.checkpoint_json(),
        }
    }
}

/// Drives one device through one fleet epoch with panic isolation,
/// deadline enforcement, bounded retry and chaos injection. Runs inside
/// a pool chunk: it must never unwind (a panic here would poison the
/// whole job), so every failure folds into the record instead.
fn run_device_epoch(
    rec: &mut DeviceRecord,
    epoch: usize,
    depth: Option<usize>,
    config: &FleetConfig,
    flight: Option<&Path>,
) {
    let mut last_failure: Option<(IncidentKind, String)> = None;
    for attempt in 1..=config.retry_limit {
        let chaos = draw_attempt(&config.chaos, rec.id, epoch, attempt);
        if chaos.stall_ms > config.deadline_ms {
            // The checkup is wedged past its deadline: abandon the
            // attempt before the device transaction lands, so the retry
            // starts from untouched device state.
            rec.backoff_ms += config.deadline_ms;
            FLEET_CHECKUPS_FAILED.inc();
            last_failure = Some((
                IncidentKind::Timeout,
                format!(
                    "attempt {attempt} stalled {} ms, deadline {} ms",
                    chaos.stall_ms, config.deadline_ms
                ),
            ));
        } else {
            rec.backoff_ms += chaos.stall_ms;
            let runtime = &mut rec.runtime;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if chaos.panic {
                    panic!("chaos: injected checkup panic");
                }
                match depth {
                    Some(k) => runtime.step_shallow(k),
                    None => runtime.step(),
                }
            }));
            match outcome {
                Ok(_state) => {
                    FLEET_CHECKUPS_OK.inc();
                    rec.poisoned = false;
                    if chaos.poison {
                        // The checkup itself succeeded but its reported
                        // distance is non-finite: keep the device state
                        // (the epoch happened) and escalate priority, as
                        // the single-device monitor does for poisoned
                        // confidence distances.
                        rec.poisoned = true;
                        let incident = FleetIncident {
                            device: rec.id,
                            epoch,
                            kind: IncidentKind::PoisonedDistance,
                            message: "checkup distance read back NaN".to_owned(),
                        };
                        tel::record_event("fleet.incident", incident.describe());
                        rec.incidents.push(incident);
                        FLEET_INCIDENTS.inc();
                        if let Some(dir) = flight {
                            dump_flight(
                                rec,
                                epoch,
                                dir,
                                IncidentKind::PoisonedDistance.label(),
                                "checkup distance read back NaN",
                                config,
                            );
                        }
                    }
                    return;
                }
                Err(payload) => {
                    FLEET_CHECKUPS_FAILED.inc();
                    last_failure = Some((
                        IncidentKind::CheckupPanic,
                        format!("attempt {attempt}: {}", panic_message(payload)),
                    ));
                }
            }
        }
        if attempt < config.retry_limit {
            rec.retries += 1;
            rec.runtime.note_retries(1);
            FLEET_RETRIES.inc();
            // Exponential backoff with deterministic jitter, in virtual
            // milliseconds: visible in the report, invisible to the
            // wall clock.
            let backoff = config.backoff_base_ms.saturating_mul(1 << (attempt - 1).min(16))
                + chaos.jitter_ms;
            rec.backoff_ms += backoff;
            FLEET_BACKOFF_MS.add(backoff);
        }
    }
    // Every retry exhausted: one offense, one structured incident.
    let (kind, message) =
        last_failure.expect("retry loop records a failure before exhausting");
    rec.offenses += 1;
    let incident = FleetIncident { device: rec.id, epoch, kind, message: message.clone() };
    tel::record_event("fleet.incident", incident.describe());
    rec.incidents.push(incident);
    FLEET_INCIDENTS.inc();
    let quarantined_now =
        rec.offenses >= config.quarantine_threshold && rec.quarantined_at.is_none();
    if quarantined_now {
        rec.quarantined_at = Some(epoch);
        FLEET_QUARANTINES.inc();
    }
    if let Some(dir) = flight {
        // One artifact per (device, epoch): a quarantine transition
        // subsumes the incident that triggered it.
        let (reason, detail) = if quarantined_now {
            (
                "quarantine",
                format!(
                    "offense {} of {} reached the quarantine threshold; last: {message}",
                    rec.offenses, config.quarantine_threshold
                ),
            )
        } else {
            (kind.label(), message)
        };
        dump_flight(rec, epoch, dir, reason, &detail, config);
    }
}

/// Dumps one postmortem artifact for `rec` at `epoch`. Write failures
/// are logged, never propagated: the flight recorder must not be able
/// to take down the supervisor it observes.
fn dump_flight(
    rec: &DeviceRecord,
    epoch: usize,
    dir: &Path,
    reason: &str,
    detail: &str,
    config: &FleetConfig,
) {
    let mut record =
        rec.runtime
            .flight_record(rec.id as u32, epoch as u64, reason, detail, config.digest());
    record.push_tally("offenses", rec.offenses as u64);
    record.push_tally("fleet_retries", rec.retries as u64);
    record.push_tally("backoff_ms", rec.backoff_ms);
    match record.write(dir) {
        Ok(_) => FLEET_FLIGHT_RECORDS.inc(),
        Err(e) => {
            tel::log_warn!("flight-record dump failed for device {:04}: {e}", rec.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::TestPatternSet;
    use healthmon_nn::models::tiny_mlp;
    use healthmon_tensor::Tensor;

    fn setup(seed: u64) -> (Network, TestPatternSet) {
        let mut rng = SeededRng::new(seed);
        let net = tiny_mlp(8, 16, 4, &mut rng);
        let patterns = TestPatternSet::new("test", Tensor::randn(&[6, 8], &mut rng));
        (net, patterns)
    }

    fn small_config(devices: usize) -> FleetConfig {
        FleetConfig {
            seed: 33,
            devices,
            device: LifetimeConfig {
                epochs: 4,
                ..LifetimeConfig::default()
            },
            shards: 3,
            ..FleetConfig::default()
        }
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("healthmon_fleet_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn chaos_spec_parsing() {
        let c = ChaosConfig::parse("panic:0.05,stall:0.1,stallms:400,seed:9").unwrap();
        assert_eq!(c.panic_p, 0.05);
        assert_eq!(c.stall_p, 0.1);
        assert_eq!(c.stall_ms, 400);
        assert_eq!(c.seed, 9);
        assert!(c.is_active());
        assert!(!ChaosConfig::parse("off").unwrap().is_active());
        assert!(!ChaosConfig::parse("").unwrap().is_active());
        assert!(ChaosConfig::parse("panic").is_err());
        assert!(ChaosConfig::parse("panic:x").is_err());
        assert!(ChaosConfig::parse("frobnicate:1").is_err());
        assert!(ChaosConfig::parse("panic:1.5").is_err());
    }

    /// An invalid device template is an error from `validate` and from
    /// the constructor, not a panic; so is a pattern set below the floor.
    #[test]
    fn invalid_device_template_is_an_error() {
        let (net, patterns) = setup(5);
        let mut config = small_config(2);
        config.device.aging.drift_nu = -1.0;
        let err = config.validate().unwrap_err();
        assert!(matches!(err, HealthmonError::InvalidPolicy(_)), "{err:?}");
        assert!(err.to_string().contains("drift_nu"), "{err}");
        config.device.aging.drift_nu = 0.0;
        config.device.epochs = 0;
        let err = FleetSupervisor::new(&net, patterns.clone(), config).unwrap_err();
        assert!(err.to_string().contains("at least one epoch"), "{err}");
        let mut config = small_config(2);
        config.device.min_patterns = patterns.len() + 1;
        let err = FleetSupervisor::new(&net, patterns, config).unwrap_err();
        assert!(err.to_string().contains("degradation floor"), "{err}");
    }

    #[test]
    fn chaos_draws_are_scheduling_independent() {
        let chaos = ChaosConfig { seed: 7, panic_p: 0.3, stall_p: 0.3, ..Default::default() };
        for device in 0..5 {
            for epoch in 1..4 {
                let a = draw_attempt(&chaos, device, epoch, 1);
                let b = draw_attempt(&chaos, device, epoch, 1);
                assert_eq!(a.panic, b.panic);
                assert_eq!(a.stall_ms, b.stall_ms);
                assert_eq!(a.jitter_ms, b.jitter_ms);
            }
        }
    }

    #[test]
    fn clean_fleet_is_deterministic_and_completes() {
        let (net, patterns) = setup(5);
        let mut a = FleetSupervisor::new(&net, patterns.clone(), small_config(6)).unwrap();
        let mut b = FleetSupervisor::new(&net, patterns, small_config(6)).unwrap();
        a.run(None);
        b.run(None);
        assert!(a.is_done());
        assert_eq!(a.render_report(), b.render_report());
        assert!(a.quarantined().is_empty());
        assert!(a.incidents().is_empty());
    }

    #[test]
    fn chaos_panics_are_isolated_and_quarantine_offenders() {
        let (net, patterns) = setup(5);
        let mut config = small_config(8);
        // Every attempt panics: every device exhausts its retries every
        // epoch and must end up quarantined — with zero fleet aborts.
        config.chaos = ChaosConfig { seed: 3, panic_p: 1.0, ..Default::default() };
        config.quarantine_threshold = 2;
        let mut fleet = FleetSupervisor::new(&net, patterns, config).unwrap();
        fleet.run(None);
        assert!(fleet.is_done());
        assert_eq!(fleet.quarantined().len(), 8);
        assert!(fleet.incidents().iter().all(|i| i.kind == IncidentKind::CheckupPanic));
        // Devices never stepped: the panic fires before the transaction.
        assert_eq!(fleet.total_device_epochs(), 0);
    }

    #[test]
    fn stalls_past_deadline_time_out_and_retries_recover_transients() {
        let (net, patterns) = setup(5);
        let mut config = small_config(6);
        // Half the attempts stall far past the deadline; retries give
        // each epoch several chances, so most devices should still make
        // progress while timeouts show up as incidents or retries.
        config.chaos = ChaosConfig {
            seed: 11,
            stall_p: 0.5,
            stall_ms: 5_000,
            ..Default::default()
        };
        config.deadline_ms = 100;
        config.retry_limit = 4;
        config.quarantine_threshold = 100; // never quarantine here
        let mut fleet = FleetSupervisor::new(&net, patterns, config).unwrap();
        fleet.run(None);
        let report = fleet.render_report();
        assert!(fleet.total_device_epochs() > 0, "retries must recover some epochs");
        let retries: usize = report
            .lines()
            .find(|l| l.starts_with("retries:"))
            .and_then(|l| l.split(&[' ', ','][..]).nth(1).and_then(|v| v.parse().ok()))
            .unwrap();
        assert!(retries > 0, "stalls past the deadline must trigger retries");
    }

    #[test]
    fn poisoned_distances_escalate_priority() {
        let (net, patterns) = setup(5);
        let mut config = small_config(4);
        config.chaos = ChaosConfig { seed: 2, poison_p: 1.0, ..Default::default() };
        let mut fleet = FleetSupervisor::new(&net, patterns, config).unwrap();
        fleet.run_epoch();
        assert!(fleet
            .incidents()
            .iter()
            .all(|i| i.kind == IncidentKind::PoisonedDistance));
        assert_eq!(fleet.incidents().len(), 4);
        // Poisoned devices take top priority in the next plan.
        assert!(fleet.devices.iter().all(|r| r.priority() == 2));
    }

    #[test]
    fn budget_sheds_depth_before_devices() {
        let (net, patterns) = setup(5);
        let mut config = small_config(6);
        // 6 devices x 6 patterns = 36 evaluations; a budget of 20 forces
        // depth shedding (floor 2) on healthy devices: 6 x 2 = 12 fits,
        // so nothing should be skipped outright.
        config.budget = 20;
        let mut fleet = FleetSupervisor::new(&net, patterns, config).unwrap();
        fleet.run_epoch();
        let shed_depth: usize = fleet.devices.iter().map(|r| r.shed_depth).sum();
        let shed_skipped: usize = fleet.devices.iter().map(|r| r.shed_skipped).sum();
        assert!(shed_depth > 0, "budget pressure must shed checkup depth");
        assert_eq!(shed_skipped, 0, "depth shedding fits the budget; no device shed");
        assert_eq!(fleet.total_device_epochs(), 6, "every device still stepped");
        // A budget below the floor total forces device shedding too.
        let (net, patterns) = setup(5);
        let mut config = small_config(6);
        config.budget = 7; // floor total is 12
        let mut fleet = FleetSupervisor::new(&net, patterns, config).unwrap();
        fleet.run_epoch();
        let shed_skipped: usize = fleet.devices.iter().map(|r| r.shed_skipped).sum();
        assert!(shed_skipped > 0, "a floor-busting budget must shed devices");
        assert!(fleet.total_device_epochs() < 6);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let (net, patterns) = setup(9);
        let config = small_config(5);
        let dir = temp_dir("resume");
        let mut reference = FleetSupervisor::new(&net, patterns.clone(), config).unwrap();
        reference.run(None);
        let want = reference.render_report();

        let mut fleet = FleetSupervisor::new(&net, patterns.clone(), config).unwrap();
        fleet.run(Some(2));
        fleet.save_checkpoint(&dir).unwrap();
        let mut resumed = FleetSupervisor::resume(&net, patterns, config, &dir).unwrap();
        assert!(resumed.damaged_shards().is_empty());
        assert_eq!(resumed.fleet_epoch(), 2);
        resumed.run(None);
        assert_eq!(resumed.render_report(), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every device's runtime and monitor share the fleet's one golden
    /// network and detector, after a build and after a resume that both
    /// restores devices and deploys the devices of a torn shard afresh.
    #[test]
    fn every_device_shares_the_fleet_reference() {
        let (net, patterns) = setup(9);
        let config = small_config(7);
        let dir = temp_dir("shared_reference");
        let mut fleet = FleetSupervisor::new(&net, patterns.clone(), config).unwrap();
        let shares = |fleet: &FleetSupervisor| {
            fleet.devices.iter().all(|rec| {
                Arc::ptr_eq(&rec.runtime.golden, &fleet.golden)
                    && Arc::ptr_eq(&rec.runtime.detector, &fleet.detector)
                    && std::ptr::eq(rec.runtime.monitor().detector(), &*fleet.detector)
            })
        };
        assert!(shares(&fleet), "a new fleet holds one reference");
        fleet.run(Some(1));
        fleet.save_checkpoint(&dir).unwrap();
        let torn = dir.join("shard-001.json");
        let bytes = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
        let resumed = FleetSupervisor::resume(&net, patterns, config, &dir).unwrap();
        assert_eq!(resumed.damaged_shards().len(), 1);
        assert!(shares(&resumed), "a resumed fleet holds one reference");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_shard_is_contained_and_reported() {
        let (net, patterns) = setup(9);
        let config = small_config(7); // 3 shards: ids {0,3,6}, {1,4}, {2,5}
        let dir = temp_dir("truncated");
        let mut fleet = FleetSupervisor::new(&net, patterns.clone(), config).unwrap();
        fleet.run(Some(2));
        fleet.save_checkpoint(&dir).unwrap();
        // Tear shard 1 mid-file, as a kill during a non-atomic write
        // would have.
        let path = dir.join("shard-001.json");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let resumed = FleetSupervisor::resume(&net, patterns, config, &dir).unwrap();
        assert_eq!(resumed.damaged_shards().len(), 1);
        assert_eq!(resumed.damaged_shards()[0].0, 1);
        // Healthy-shard devices restored bit-identically...
        let patterns = TestPatternSet::new("test", resumed.detector.patterns().images().clone());
        let mut reference = FleetSupervisor::new(&net, patterns, config).unwrap();
        reference.run(Some(2));
        for id in [0usize, 2, 3, 5, 6] {
            assert_eq!(
                resumed.device_summaries()[id],
                reference.device_summaries()[id],
                "device {id} must resume bit-identically"
            );
        }
        // ...while damaged-shard devices fall back to a fresh registry
        // entry (epoch 0) instead of failing the resume.
        for id in [1usize, 4] {
            assert_eq!(resumed.devices[id].runtime.epoch(), 0);
        }
        assert!(resumed.render_report().contains("damaged shards: 1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flipped_shard_fails_its_digest() {
        let (net, patterns) = setup(9);
        let config = small_config(4);
        let dir = temp_dir("bitflip");
        let mut fleet = FleetSupervisor::new(&net, patterns.clone(), config).unwrap();
        fleet.run(Some(1));
        fleet.save_checkpoint(&dir).unwrap();
        // Flip one bit inside the payload (far from the JSON braces so
        // the file still parses and only the digest can catch it).
        let path = dir.join("shard-002.json");
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        let target = (at..bytes.len())
            .find(|&i| bytes[i].is_ascii_digit())
            .expect("a digit byte exists");
        bytes[target] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let resumed = FleetSupervisor::resume(&net, patterns, config, &dir).unwrap();
        let damaged = resumed.damaged_shards();
        assert_eq!(damaged.len(), 1);
        assert_eq!(damaged[0].0, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_bit_flip_in_any_shard_header_field_damages_exactly_that_shard() {
        let (net, patterns) = setup(9);
        let config = small_config(4);
        let mut fleet = FleetSupervisor::new(&net, patterns.clone(), config).unwrap();
        fleet.run(Some(1));
        for field in [
            "format",
            "config_digest",
            "golden_digest",
            "patterns_digest",
            "shard",
            "shards",
            "fleet_epoch",
        ] {
            let dir = temp_dir(&format!("header_{field}"));
            fleet.save_checkpoint(&dir).unwrap();
            let path = dir.join("shard-001.json");
            let mut bytes = std::fs::read(&path).unwrap();
            let key = format!("\"{field}\":");
            let at = bytes
                .windows(key.len())
                .position(|w| w == key.as_bytes())
                .expect("every header field is present")
                + key.len();
            // The value's first character (past a string's opening quote)
            // flips to a neighbour that still parses: `h`→`i`, `4`→`5`.
            let at = if bytes[at] == b'"' { at + 1 } else { at };
            bytes[at] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            let resumed = FleetSupervisor::resume(&net, patterns.clone(), config, &dir)
                .unwrap_or_else(|e| panic!("a flip in `{field}` aborted the resume: {e}"));
            let damaged: Vec<usize> = resumed.damaged_shards().iter().map(|d| d.0).collect();
            assert_eq!(damaged, vec![1], "a flip in `{field}`");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn resume_rejects_a_different_config() {
        let (net, patterns) = setup(9);
        let config = small_config(4);
        let dir = temp_dir("wrong_config");
        let mut fleet = FleetSupervisor::new(&net, patterns.clone(), config).unwrap();
        fleet.run(Some(1));
        fleet.save_checkpoint(&dir).unwrap();
        let mut other = config;
        other.retry_limit += 1;
        // Sealed shards under a different config digest are intact files
        // for other inputs: operator error, refused outright rather than
        // degraded to fresh devices or silently mixed.
        match FleetSupervisor::resume(&net, patterns, other, &dir) {
            Err(HealthmonError::CheckpointMismatch(detail)) => {
                assert!(detail.contains("fleet configuration"), "detail: {detail}");
            }
            other => panic!("expected CheckpointMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_checkpoint_truncation_is_detected_on_resume() {
        let (net, patterns) = setup(9);
        let mut config = small_config(6);
        config.chaos = ChaosConfig { seed: 4, truncate_p: 0.5, ..Default::default() };
        let dir = temp_dir("chaos_trunc");
        let mut fleet = FleetSupervisor::new(&net, patterns.clone(), config).unwrap();
        fleet.run(Some(2));
        fleet.save_checkpoint(&dir).unwrap();
        // With truncate_p = 0.5 over 3 shards, the seeded draw damages at
        // least one shard (asserted, not assumed — the draw is fixed by
        // the chaos seed).
        let resumed = FleetSupervisor::resume(&net, patterns, config, &dir).unwrap();
        assert!(
            !resumed.damaged_shards().is_empty(),
            "seeded truncation chaos must damage at least one shard"
        );
        assert!(resumed.damaged_shards().len() < config.shards, "some shards survive");
        std::fs::remove_dir_all(&dir).ok();
    }
}
