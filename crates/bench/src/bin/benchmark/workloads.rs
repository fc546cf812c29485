//! The five closed-loop workloads. One client issues each operation after
//! the previous one returns: the monitor schedules its own checkups, so
//! nothing arrives independently and an open loop would not fit.
//!
//! A round builds its inputs from the seed (timed as set-up), runs a fixed
//! sequence of operations (each timed), and folds the simulated outputs
//! into a digest. The same seed and scale give the same digest in every
//! round and at every `HEALTHMON_THREADS`.

use crate::calib::{timed, Sample};
use crate::drill::MappedEngine;
use crate::trace::{span, TracedBackend, Tracer};
use healthmon::{
    AgingModel, AnalogBackend, BackendSpec, CrossbarConfig, Detector, FleetConfig, FleetSupervisor,
    LifetimeConfig, ResponseSet, SdcCriterion, TestPatternSet,
};
use healthmon_faults::{FaultCampaign, FaultModel};
use healthmon_nn::models::tiny_mlp;
use healthmon_nn::{zoo, InferenceBackend, Network};
use healthmon_reram::CellFault;
use healthmon_telemetry as tel;
use healthmon_tensor::{SeededRng, Tensor};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CheckupAnalog,
    CampaignDigital,
    CampaignAnalog,
    FleetAging,
    FleetDurable,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::CheckupAnalog,
        Workload::CampaignDigital,
        Workload::CampaignAnalog,
        Workload::FleetAging,
        Workload::FleetDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CheckupAnalog => "checkup_analog",
            Workload::CampaignDigital => "campaign_digital",
            Workload::CampaignAnalog => "campaign_analog",
            Workload::FleetAging => "fleet_aging",
            Workload::FleetDurable => "fleet_durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The timed operation and the unit of work it completes.
    pub fn op_and_unit(self) -> (&'static str, &'static str) {
        match self {
            Workload::CheckupAnalog => ("checkup", "checkups"),
            Workload::CampaignDigital | Workload::CampaignAnalog => {
                ("detection_rates call", "fault models")
            }
            Workload::FleetAging => ("fleet lifetime: 12 fleet epochs", "device-epochs"),
            Workload::FleetDurable => ("leg: 4 fleet epochs, save, resume", "device-epochs"),
        }
    }

    /// The frozen sizes, for result headers.
    pub fn describe(self, scale: Scale) -> String {
        match self {
            Workload::CheckupAnalog => format!(
                "{} analog devices ({}), {PATTERNS} patterns, {} checkups/round",
                checkup_models().len(),
                CHECKUP_MODELS
                    .map(|(m, n)| format!("{n} x {m}"))
                    .join(" + "),
                scale.of(CHECKUPS)
            ),
            Workload::CampaignDigital => describe_calls(&DIGITAL_MIX, DIGITAL_REPEATS, scale),
            Workload::CampaignAnalog => describe_calls(&ANALOG_MIX, ANALOG_REPEATS, scale),
            Workload::FleetAging => format!(
                "lenet5 digital fleet, {} devices x {FLEET_EPOCHS} epochs",
                scale.of(AGING_DEVICES)
            ),
            Workload::FleetDurable => format!(
                "tiny-MLP fleet, {} devices x {FLEET_EPOCHS} epochs in {} legs with save + resume",
                scale.of(DURABLE_DEVICES),
                FLEET_EPOCHS / LEG_EPOCHS
            ),
        }
    }
}

fn describe_calls(mix: &[(&str, usize)], repeats: usize, scale: Scale) -> String {
    let calls: Vec<String> = mix.iter().map(|&(m, n)| format!("{n} x {m}")).collect();
    format!(
        "{FAULT_MODELS} programming-variation models/call, {} x ({}) calls/round",
        scale.of(repeats),
        calls.join(" + ")
    )
}

/// Full size for measurement, or about 1/20 of it for the smoke mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn of(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => full.div_ceil(20),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

// Frozen workload sizes. A full-size round takes about 0.5-1.2 s at one
// thread on a 2-vCPU host (2.5-3 s for `fleet_aging`), so a 20 s run holds
// 7-30 rounds.
//
// Checkup devices per model. Latency is multimodal by model (mlp4 and
// attention ~0.3 ms, lenet5 ~2.7 ms, resnet8 ~7.5 ms), so the mix keeps
// the median inside the lenet5 mode and the p90 inside the resnet8 mode
// instead of on a boundary between two modes.
const CHECKUP_MODELS: [(&str, usize); 4] =
    [("mlp4", 3), ("attention", 3), ("lenet5", 6), ("resnet8", 4)];
const PATTERNS: usize = 10;
/// Checkups per round: 10 sweeps over the 16 devices.
const CHECKUPS: usize = 160;
const DRIFT_NU: f32 = 0.02;
const STUCK_LOW: f64 = 0.001;
const FAULT_MODELS: usize = 40;
/// A mix of campaign calls per model, and how often a round repeats it.
const DIGITAL_MIX: [(&str, usize); 2] = [("lenet5", 6), ("convnet7", 1)];
const DIGITAL_REPEATS: usize = 1;
const ANALOG_MIX: [(&str, usize); 2] = [("lenet5", 1), ("mlp4", 1)];
const ANALOG_REPEATS: usize = 4;
/// Devices of the aging fleet. Each seed ages the devices differently, so
/// the work of a lifetime varies with the seed: over ten seeds the
/// lifetime's spread was 15% at 16 devices and 5% at 48.
const AGING_DEVICES: usize = 48;
/// Drift per epoch of the aging fleet. At 0.05 about half of a 64-device
/// fleet parks mid-run and the work a seed gives varies by ±7%; at 0.02
/// every device keeps escalating into diagnosis and repair, and the cost
/// of a device-epoch varies by ±3% across seeds.
const AGING_DRIFT: f32 = 0.02;
const DURABLE_DEVICES: usize = 250;
const FLEET_EPOCHS: usize = 12;
/// The aging fleet's golden lenet5 and patterns come from this fixed seed
/// so that every `--seed` runs the same escalation profile; the seed
/// drives the devices' aging.
const GOLDEN_SEED: u64 = 2020;
const LEG_EPOCHS: usize = 4;

/// The checkup criterion: the all-class confidence distance O-TP targets.
const CRITERION: SdcCriterion = SdcCriterion::SdcA { threshold: 0.03 };
const CAMPAIGN_CRITERIA: [SdcCriterion; 2] =
    [SdcCriterion::Sdc1, SdcCriterion::SdcA { threshold: 0.03 }];
const CAMPAIGN_FAULT: FaultModel = FaultModel::ProgrammingVariation { sigma: 0.3 };
/// `Detector::detection_rates_with` programs fault model `i` from
/// `SeededRng::new(seed ^ BACKEND_SALT).fork(i)`; the reference replay
/// must draw the same streams. A copy of the private constant in
/// `crates/core/src/detect.rs`: if the two differ, `campaign_analog`'s
/// reference check fails on every call.
const BACKEND_SALT: u64 = 0xBAC0_0DAC_2020_0004;

/// FNV-1a over the simulated outputs of a round.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// What one round did and produced.
#[derive(Debug)]
pub struct Round {
    pub setup: Sample,
    /// Every timed sample: an operation's latency, or one part of it (a
    /// fleet epoch, a checkpoint save or resume).
    pub samples: Vec<Sample>,
    /// The class of every sample: samples of one class (the same device,
    /// model, epoch or leg part) do the same work in every round.
    pub classes: Vec<usize>,
    /// The operation every sample belongs to, numbered from 0.
    pub ops: Vec<usize>,
    /// Work units the timed operations completed.
    pub work: f64,
    /// Attempted operations: checkups, campaign calls or device-epochs.
    pub attempted: u64,
    /// Operations the program itself reported as failed (fleet incidents).
    pub failed: u64,
    pub digest: u64,
    /// Outcome of the independent reference check, when one was asked for.
    pub check: Result<(), String>,
    pub bytes_written: u64,
}

impl Round {
    /// The time of the timed samples, at the reference host's speed.
    pub fn busy_s(&self) -> f64 {
        self.samples.iter().map(Sample::at_reference).sum()
    }
}

/// Everything a round needs besides the workload.
pub struct RoundCtx<'a> {
    pub seed: u64,
    pub scale: Scale,
    pub tracer: Option<&'a Tracer>,
    /// Also run the workload's independent reference check (untimed).
    pub check: bool,
    /// Scratch directory for checkpoints, inside the checkout.
    pub scratch: &'a Path,
}

pub fn run_round(workload: Workload, ctx: &RoundCtx) -> Round {
    match workload {
        Workload::CheckupAnalog => checkup_analog(ctx),
        Workload::CampaignDigital => campaign(ctx, &DIGITAL_MIX, DIGITAL_REPEATS, None),
        Workload::CampaignAnalog => campaign(
            ctx,
            &ANALOG_MIX,
            ANALOG_REPEATS,
            Some(BackendSpec::analog(CrossbarConfig::default())),
        ),
        Workload::FleetAging => fleet_aging(ctx),
        Workload::FleetDurable => fleet_durable(ctx),
    }
}

/// Builds a zoo model and a random batch of `PATTERNS` patterns for it.
fn model_and_patterns(name: &str, rng: &mut SeededRng) -> (Network, TestPatternSet) {
    let spec = zoo::lookup(name).expect("benchmark models are in the zoo");
    let net = spec.build(rng);
    let mut shape = vec![PATTERNS];
    shape.extend_from_slice(spec.input_shape);
    (
        net,
        TestPatternSet::new("bench", Tensor::randn(&shape, rng)),
    )
}

/// Runs `f` with the program's telemetry off, so that a traced round's
/// counters cover only its set-up and timed operations, not the digest
/// and reference work around them.
fn off_the_record<T>(f: impl FnOnce() -> T) -> T {
    let on = tel::enabled();
    tel::set_enabled(false);
    let out = f();
    tel::set_enabled(on);
    out
}

pub fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

pub struct CheckupDevice {
    pub model: &'static str,
    pub net: Network,
    pub detector: Detector,
    pub backend: AnalogBackend<'static>,
    program_rng: SeededRng,
    age_rng: SeededRng,
}

/// The model of every checkup device, in device order.
fn checkup_models() -> Vec<&'static str> {
    CHECKUP_MODELS
        .iter()
        .flat_map(|&(m, n)| std::iter::repeat_n(m, n))
        .collect()
}

fn checkup_device(seed: u64, index: usize, tracer: Option<&Tracer>) -> CheckupDevice {
    let model = checkup_models()[index];
    let mut rng = SeededRng::new(seed).fork(index as u64);
    let (net, patterns) = {
        let _s = span(tracer, "nn.build");
        model_and_patterns(model, &mut rng)
    };
    let detector = {
        let _s = span(tracer, "detect.golden");
        Detector::new(&net, patterns)
    };
    let (program_rng, age_rng) = (rng.fork(1), rng.fork(2));
    let spec = BackendSpec::analog(CrossbarConfig::default());
    let mut backend = {
        let _s = span(tracer, "reram.program");
        AnalogBackend::program(&net, &spec, &mut program_rng.clone()).into_owned()
    };
    {
        let _s = span(tracer, "reram.age");
        let mut rng = age_rng.clone();
        backend.drift(DRIFT_NU, 1.0, &mut rng);
        backend.inject_stuck_cells(CellFault::StuckLow, STUCK_LOW, &mut rng);
    }
    CheckupDevice {
        model,
        net,
        detector,
        backend,
        program_rng,
        age_rng,
    }
}

impl CheckupDevice {
    /// The same device assembled layer by layer by the benchmark.
    pub fn replica(&self) -> MappedEngine {
        let mut engine = MappedEngine::program(
            &self.net,
            &CrossbarConfig::default(),
            &mut self.program_rng.clone(),
        );
        engine.age(DRIFT_NU, 1.0, STUCK_LOW, &mut self.age_rng.clone());
        engine
    }
}

fn checkup_analog(ctx: &RoundCtx) -> Round {
    let (devices, setup) = timed(|| {
        let _s = span(ctx.tracer, "setup");
        (0..checkup_models().len())
            .map(|i| checkup_device(ctx.seed, i, ctx.tracer))
            .collect::<Vec<CheckupDevice>>()
    });

    let checkups = ctx.scale.of(CHECKUPS);
    let mut samples = Vec::with_capacity(checkups);
    let mut verdicts = Vec::with_capacity(checkups);
    for i in 0..checkups {
        let dev = &devices[i % devices.len()];
        let (faulty, sample) = timed(|| match ctx.tracer {
            None => dev.detector.is_faulty(&dev.backend, CRITERION),
            Some(tracer) => {
                let _s = tracer.span("detect.is_faulty");
                dev.detector.is_faulty(
                    &TracedBackend {
                        inner: &dev.backend,
                        tracer,
                    },
                    CRITERION,
                )
            }
        });
        samples.push(sample);
        verdicts.push(faulty);
    }

    let (digest, check) = off_the_record(|| {
        let mut digest = Digest::new();
        digest.bytes(&verdicts.iter().map(|&v| u8::from(v)).collect::<Vec<_>>());
        for dev in &devices {
            let d = dev.detector.confidence_distance(&dev.backend);
            digest.f32s(&[d.top_ranked, d.all_classes]);
        }
        let check = if ctx.check {
            check_checkups(&devices, &verdicts)
        } else {
            Ok(())
        };
        (digest, check)
    });
    Round {
        setup,
        work: checkups as f64,
        attempted: checkups as u64,
        samples,
        classes: (0..checkups).map(|i| i % devices.len()).collect(),
        ops: (0..checkups).collect(),
        failed: 0,
        digest: digest.0,
        check,
        bytes_written: 0,
    }
}

/// Every device's logits must equal those of its layer-by-layer replica
/// bit for bit, and every timed verdict must equal the criterion applied
/// to the replica's responses.
fn check_checkups(devices: &[CheckupDevice], verdicts: &[bool]) -> Result<(), String> {
    for (i, dev) in devices.iter().enumerate() {
        let images = dev.detector.patterns().images();
        let replica = dev.net.infer_with(images, &dev.replica());
        if !bits_equal(&replica, &dev.backend.infer(images)) {
            return Err(format!(
                "device {i} ({}): replica logits differ from AnalogBackend",
                dev.model
            ));
        }
        let expected = CRITERION.detects(dev.detector.golden(), &ResponseSet::from_logits(replica));
        if let Some(pos) = verdicts
            .iter()
            .skip(i)
            .step_by(devices.len())
            .position(|&v| v != expected)
        {
            return Err(format!(
                "device {i} ({}): checkup {} returned {} but the replica says {expected}",
                dev.model,
                i + pos * devices.len(),
                !expected
            ));
        }
    }
    Ok(())
}

fn campaign(
    ctx: &RoundCtx,
    mix: &[(&'static str, usize)],
    repeats: usize,
    spec: Option<BackendSpec>,
) -> Round {
    let (models, setup) = timed(|| {
        let _s = span(ctx.tracer, "setup");
        mix.iter()
            .enumerate()
            .map(|(mi, &(name, _))| {
                let mut rng = SeededRng::new(ctx.seed).fork(mi as u64);
                let (net, patterns) = {
                    let _s = span(ctx.tracer, "nn.build");
                    model_and_patterns(name, &mut rng)
                };
                let _s = span(ctx.tracer, "detect.golden");
                let detector = Detector::new(&net, patterns);
                (net, detector)
            })
            .collect::<Vec<(Network, Detector)>>()
    });

    // Call k of model m runs its own campaign seed.
    let mut schedule = Vec::new();
    for c in 0..ctx.scale.of(repeats) {
        for (mi, &(_, n)) in mix.iter().enumerate() {
            for k in c * n..(c + 1) * n {
                schedule.push((mi, ctx.seed ^ ((mi as u64) << 40) ^ k as u64));
            }
        }
    }

    let mut samples = Vec::with_capacity(schedule.len());
    let mut digest = Digest::new();
    // Each model's first call, checked against a sequential replay.
    let mut first_call: Vec<Option<(u64, Vec<f32>)>> = vec![None; models.len()];
    for &(mi, campaign_seed) in &schedule {
        let (net, detector) = &models[mi];
        let (rates, sample) = timed(|| {
            let _s = span(ctx.tracer, "detect.detection_rates");
            match &spec {
                None => detector.detection_rates(
                    net,
                    &CAMPAIGN_FAULT,
                    FAULT_MODELS,
                    campaign_seed,
                    &CAMPAIGN_CRITERIA,
                ),
                Some(spec) => detector.detection_rates_with(
                    net,
                    &CAMPAIGN_FAULT,
                    FAULT_MODELS,
                    campaign_seed,
                    &CAMPAIGN_CRITERIA,
                    spec,
                ),
            }
        });
        samples.push(sample);
        digest.f32s(&rates);
        first_call[mi].get_or_insert((campaign_seed, rates));
    }

    let check = if ctx.check {
        off_the_record(|| {
            models
                .iter()
                .zip(&first_call)
                .try_for_each(|((net, detector), first)| match first {
                    Some((seed, rates)) => {
                        check_campaign(net, detector, *seed, spec.as_ref(), rates, ctx.tracer)
                    }
                    None => Ok(()),
                })
        })
    } else {
        Ok(())
    };
    Round {
        setup,
        work: (schedule.len() * FAULT_MODELS) as f64,
        attempted: schedule.len() as u64,
        samples,
        classes: schedule.iter().map(|&(mi, _)| mi).collect(),
        ops: (0..schedule.len()).collect(),
        failed: 0,
        digest: digest.0,
        check,
        bytes_written: 0,
    }
}

/// Replays one campaign call model by model on the calling thread, with
/// no worker pool and no scratch-network reuse, and compares its rates
/// with the timed call's bit for bit.
fn check_campaign(
    net: &Network,
    detector: &Detector,
    seed: u64,
    spec: Option<&BackendSpec>,
    rates: &[f32],
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    let _replay = span(tracer, "replay");
    let campaign = FaultCampaign::new(net, seed);
    let mut detected = vec![0usize; CAMPAIGN_CRITERIA.len()];
    for i in 0..FAULT_MODELS {
        let model = {
            let _s = span(tracer, "faults.model");
            campaign.model(&CAMPAIGN_FAULT, i)
        };
        let responses = match spec {
            None => detector.responses(&model),
            Some(spec) => {
                let backend = {
                    let _s = span(tracer, "reram.program");
                    spec.instantiate(
                        &model,
                        &mut SeededRng::new(seed ^ BACKEND_SALT).fork(i as u64),
                    )
                };
                let _s = span(tracer, "reram.infer");
                detector.responses(&backend)
            }
        };
        for (c, criterion) in CAMPAIGN_CRITERIA.iter().enumerate() {
            detected[c] += usize::from(criterion.detects(detector.golden(), &responses));
        }
    }
    let replayed: Vec<f32> = detected
        .iter()
        .map(|&d| d as f32 / FAULT_MODELS as f32)
        .collect();
    if replayed
        .iter()
        .map(|r| r.to_bits())
        .eq(rates.iter().map(|r| r.to_bits()))
    {
        Ok(())
    } else {
        Err(format!(
            "campaign seed {seed}: rates {rates:?} but the sequential replay gives {replayed:?}"
        ))
    }
}

fn fleet_config(seed: u64, devices: usize, aging: AgingModel) -> FleetConfig {
    FleetConfig {
        seed,
        devices,
        device: LifetimeConfig {
            epochs: FLEET_EPOCHS,
            aging,
            ..LifetimeConfig::default()
        },
        ..FleetConfig::default()
    }
}

/// Runs one fleet epoch if the fleet has any left; returns the device
/// epochs it completed, or `None` when the fleet was already done.
fn timed_epoch(fleet: &mut FleetSupervisor, tracer: Option<&Tracer>) -> Option<(Sample, f64)> {
    let (epoch, before) = (fleet.fleet_epoch(), fleet.total_device_epochs());
    let ((), sample) = timed(|| {
        let _s = span(tracer, "fleet.run_epoch");
        fleet.run(Some(1));
    });
    (fleet.fleet_epoch() != epoch).then(|| (sample, (fleet.total_device_epochs() - before) as f64))
}

fn new_fleet(
    golden: &Network,
    patterns: &TestPatternSet,
    config: FleetConfig,
    tracer: Option<&Tracer>,
) -> FleetSupervisor {
    let _s = span(tracer, "fleet.new");
    FleetSupervisor::new(golden, patterns.clone(), config).expect("benchmark fleet config is valid")
}

fn fleet_aging(ctx: &RoundCtx) -> Round {
    let (mut fleet, setup) = timed(|| {
        let _s = span(ctx.tracer, "setup");
        let mut rng = SeededRng::new(GOLDEN_SEED);
        let (golden, patterns) = {
            let _s = span(ctx.tracer, "nn.build");
            model_and_patterns("lenet5", &mut rng)
        };
        let aging = AgingModel {
            drift_nu: AGING_DRIFT,
            drift_time: 1.0,
            soft_error_p: 0.0,
            stuck_lambda: 0.5,
        };
        let config = fleet_config(ctx.seed, ctx.scale.of(AGING_DEVICES), aging);
        new_fleet(&golden, &patterns, config, ctx.tracer)
    });

    // One operation is the whole lifetime: which epochs are heavy depends
    // on the seed, so percentiles over epochs varied 20-25% across seeds.
    // It is timed epoch by epoch, each epoch a class of its own.
    let (mut samples, mut work) = (Vec::new(), 0.0);
    while let Some((sample, done)) = timed_epoch(&mut fleet, ctx.tracer) {
        samples.push(sample);
        work += done;
    }
    let ops = vec![0; samples.len()];
    fleet_round(setup, samples, ops, work, &fleet, Ok(()), 0)
}

/// A fleet round whose samples are the parts of its operations, each part
/// a class of its own.
fn fleet_round(
    setup: Sample,
    samples: Vec<Sample>,
    ops: Vec<usize>,
    work: f64,
    fleet: &FleetSupervisor,
    check: Result<(), String>,
    bytes_written: u64,
) -> Round {
    let mut digest = Digest::new();
    digest.bytes(fleet.render_report().as_bytes());
    Round {
        setup,
        classes: (0..samples.len()).collect(),
        samples,
        ops,
        work,
        attempted: work as u64,
        failed: fleet.incidents().len() as u64,
        digest: digest.0,
        check,
        bytes_written,
    }
}

fn fleet_durable(ctx: &RoundCtx) -> Round {
    // The golden device and configuration of `healthmon fleet` without
    // `--arch`.
    let ((golden, patterns, config, mut fleet), setup) = timed(|| {
        let mut rng = SeededRng::new(ctx.seed ^ 0xF1EE7);
        let golden = tiny_mlp(16, 24, 6, &mut rng);
        let patterns = TestPatternSet::new("fleet-synth", Tensor::randn(&[8, 16], &mut rng));
        let aging = AgingModel {
            drift_nu: 0.05,
            drift_time: 1.0,
            ..AgingModel::default()
        };
        let config = fleet_config(ctx.seed, ctx.scale.of(DURABLE_DEVICES), aging);
        let fleet = {
            let _s = span(ctx.tracer, "setup");
            new_fleet(&golden, &patterns, config, ctx.tracer)
        };
        (golden, patterns, config, fleet)
    });

    // One operation is a leg, timed in parts: each epoch, the save and the
    // resume.
    let dir = ctx.scratch.join("fleet_durable");
    let (mut samples, mut ops) = (Vec::new(), Vec::new());
    let (mut work, mut bytes_written) = (0.0, 0u64);
    for leg in 0..FLEET_EPOCHS / LEG_EPOCHS {
        let _leg = span(ctx.tracer, "fleet.leg");
        for _ in 0..LEG_EPOCHS {
            let (sample, done) =
                timed_epoch(&mut fleet, ctx.tracer).expect("the fleet has epochs left");
            samples.push(sample);
            work += done;
        }
        let ((), save) = timed(|| {
            let _s = span(ctx.tracer, "store.save");
            fleet
                .save_checkpoint(&dir)
                .expect("checkpoint directory is writable");
        });
        samples.push(save);
        bytes_written += dir_bytes(&dir);
        let (resumed, resume) = timed(|| {
            let _s = span(ctx.tracer, "store.resume");
            FleetSupervisor::resume(&golden, patterns.clone(), config, &dir)
                .expect("a checkpoint written by this process resumes")
        });
        fleet = resumed;
        samples.push(resume);
        ops.resize(samples.len(), leg);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let check = if ctx.check {
        off_the_record(|| {
            let mut straight = FleetSupervisor::new(&golden, patterns.clone(), config)
                .expect("benchmark fleet config is valid");
            straight.run(None);
            if straight.render_report() == fleet.render_report() {
                Ok(())
            } else {
                Err("the resumed fleet's report differs from an uninterrupted run".to_owned())
            }
        })
    } else {
        Ok(())
    };
    fleet_round(setup, samples, ops, work, &fleet, check, bytes_written)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The `reram.layer.*` drill's devices: the first checkup device of each
/// model.
pub fn reram_drill_devices(seed: u64) -> Vec<CheckupDevice> {
    let models = checkup_models();
    CHECKUP_MODELS
        .iter()
        .map(|&(model, _)| {
            let first = models
                .iter()
                .position(|&m| m == model)
                .expect("every model has a device");
            checkup_device(seed, first, None)
        })
        .collect()
}

/// The models of the `reram.layer.*` and `tensor.layer.*` drills.
pub fn drill_models() -> (Vec<&'static str>, Vec<&'static str>) {
    (
        CHECKUP_MODELS.map(|(m, _)| m).to_vec(),
        DIGITAL_MIX.map(|(m, _)| m).to_vec(),
    )
}

pub fn tensor_drill_models(seed: u64) -> Vec<(&'static str, Network, Tensor)> {
    DIGITAL_MIX
        .iter()
        .enumerate()
        .map(|(mi, &(name, _))| {
            let mut rng = SeededRng::new(seed).fork(mi as u64);
            let (net, patterns) = model_and_patterns(name, &mut rng);
            (name, net, patterns.images().clone())
        })
        .collect()
}
