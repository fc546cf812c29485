//! End-to-end lifetime runtime: a trained model deployed on simulated
//! crossbars, aged until the monitor escalates, repaired autonomously,
//! and resumed bit-identically from a mid-run checkpoint.

use healthmon::{
    AgingModel, CtpGenerator, HealthState, LifetimeConfig, LifetimeEvent, LifetimeRuntime,
    MonitorPolicy, RepairAction, SdcCriterion, TestPatternSet, TrainData,
};
use healthmon_data::{Dataset, DatasetSpec, SynthDigits};
use healthmon_faults::FaultModel;
use healthmon_nn::models::tiny_mlp;
use healthmon_nn::optim::Sgd;
use healthmon_nn::trainer::accuracy;
use healthmon_nn::{Network, TrainConfig, Trainer};
use healthmon_reram::CrossbarConfig;
use healthmon_tensor::{SeededRng, Tensor};
use std::sync::OnceLock;

struct Fixture {
    net: Network,
    train: Dataset,
    test: Dataset,
}

fn fixture() -> &'static Fixture {
    static CACHE: OnceLock<Fixture> = OnceLock::new();
    CACHE.get_or_init(|| {
        let spec = DatasetSpec { train: 700, test: 200, seed: 12, noise: 0.1 };
        let raw = SynthDigits::new(spec).generate();
        let n_pixels = 28 * 28;
        let flat = |d: &Dataset| {
            Dataset::new(
                d.images.reshape(&[d.len(), n_pixels]).expect("flatten"),
                d.labels.clone(),
                10,
            )
        };
        let (train, test) = (flat(&raw.train), flat(&raw.test));
        let mut rng = SeededRng::new(2);
        let mut net = tiny_mlp(n_pixels, 40, 10, &mut rng);
        let config = TrainConfig { epochs: 3, batch_size: 32, ..TrainConfig::default() };
        Trainer::new(&mut net, Sgd::new(0.1).momentum(0.9), config).fit(
            &train.images,
            &train.labels,
            None,
        );
        Fixture { net, train, test }
    })
}

fn harsh_config() -> LifetimeConfig {
    LifetimeConfig {
        seed: 2020,
        epochs: 8,
        aging: AgingModel {
            drift_nu: 0.20,
            drift_time: 1.0,
            soft_error_p: 1e-4,
            stuck_lambda: 1.5,
        },
        policy: MonitorPolicy { escalation_count: 1, ..MonitorPolicy::default() },
        ..LifetimeConfig::default()
    }
}

fn train_data(f: &Fixture) -> TrainData {
    TrainData { images: f.train.images.clone(), labels: f.train.labels.clone() }
}

#[test]
fn aging_escalates_and_the_runtime_heals_itself() {
    let f = fixture();
    let mut golden = f.net.clone();
    let patterns = CtpGenerator::new(12).select(&mut golden, &f.test);
    let mut lifetime =
        LifetimeRuntime::new(&f.net, patterns, harsh_config(), Some(train_data(f)));

    let state = lifetime.run(None);
    assert_eq!(state, HealthState::Healthy, "the loop should heal this lifetime");
    assert!(!lifetime.is_parked());
    assert!(lifetime.incident().is_none());

    // The monitor escalated at least once and a repair succeeded.
    let healed = lifetime
        .events()
        .iter()
        .filter(|e| matches!(e, LifetimeEvent::RepairAttempted { success: true, .. }))
        .count();
    assert!(healed >= 1, "expected at least one successful autonomous repair");
    let diagnosed = lifetime
        .events()
        .iter()
        .any(|e| matches!(e, LifetimeEvent::Diagnosed { .. }));
    assert!(diagnosed, "repair sessions must be preceded by a diagnosis");

    // The loop is judged by what it preserves: held-out accuracy of the
    // end-of-life device stays close to the golden model's.
    let golden_acc = accuracy(&mut f.net.clone(), &f.test.images, &f.test.labels, 64);
    let device_acc =
        accuracy(&mut lifetime.device().clone(), &f.test.images, &f.test.labels, 64);
    assert!(
        device_acc >= golden_acc - 0.05,
        "end-of-life accuracy {device_acc} fell too far below golden {golden_acc}"
    );

    // ... and the concurrent test itself: the monitor's (possibly
    // degraded) detector must still catch fresh faults about as well as
    // the full pre-aging detector does.
    let crit = SdcCriterion::SdcT { threshold: 0.05 };
    let fault = FaultModel::ProgrammingVariation { sigma: 0.5 };
    let before =
        lifetime.monitor().detector().detection_rate(&f.net, &fault, 12, 99, crit);
    assert!(
        before >= 0.5,
        "the surviving detector lost its detection capability: rate {before}"
    );
}

#[test]
fn budget_exhaustion_parks_critical_with_a_complete_incident() {
    let f = fixture();
    let mut golden = f.net.clone();
    let patterns = CtpGenerator::new(8).select(&mut golden, &f.test);
    // Coarse 2-bit cells leave a quantization floor no repair can cross
    // with thresholds this tight, and there is no training data, so the
    // tiny budget drains and the runtime parks.
    let config = LifetimeConfig {
        seed: 7,
        epochs: 6,
        aging: AgingModel {
            drift_nu: 0.0,
            drift_time: 0.0,
            soft_error_p: 0.0,
            stuck_lambda: 0.0,
        },
        crossbar: CrossbarConfig { cell_bits: 2, ..CrossbarConfig::ideal() },
        policy: MonitorPolicy {
            watch_threshold: 1e-7,
            critical_threshold: 1e-6,
            escalation_count: 1,
        },
        repair_budget: 2,
        ..LifetimeConfig::default()
    };
    let mut lifetime = LifetimeRuntime::new(&f.net, patterns, config, None);

    let state = lifetime.run(None);
    assert_eq!(state, HealthState::Critical);
    assert!(lifetime.is_parked() && lifetime.is_finished());
    let incident = lifetime.incident().expect("a parked runtime carries an incident report");
    assert_eq!(incident.final_state, HealthState::Critical);
    assert_eq!(incident.repairs_attempted, 2);
    assert!(incident.reason.contains("budget exhausted"), "reason: {}", incident.reason);
    assert!(incident.final_distance.all_classes.is_finite());
    assert!(!incident.recommended_action.is_empty());
    let report = lifetime.render_report();
    assert!(report.contains("parked: repair budget exhausted"));
    // A finished lifetime is inert: run() returns without stepping.
    assert_eq!(lifetime.run(None), HealthState::Critical);
}

#[test]
fn kill_and_resume_is_bit_identical() {
    let f = fixture();
    let mut golden = f.net.clone();
    let patterns = CtpGenerator::new(12).select(&mut golden, &f.test);
    let config = harsh_config();

    // The uninterrupted reference lifetime.
    let mut straight =
        LifetimeRuntime::new(&f.net, patterns.clone(), config, Some(train_data(f)));
    straight.run(None);

    // The same lifetime killed after three epochs and resumed from its
    // checkpoint.
    let mut first_half =
        LifetimeRuntime::new(&f.net, patterns.clone(), config, Some(train_data(f)));
    first_half.run(Some(3));
    assert!(!first_half.is_finished(), "the kill must land mid-lifetime");
    let checkpoint = first_half.checkpoint_json();
    drop(first_half);

    let mut resumed =
        LifetimeRuntime::resume(&f.net, patterns, config, Some(train_data(f)), &checkpoint)
            .expect("checkpoint written by the same inputs must resume");
    assert_eq!(resumed.epoch(), 3);
    resumed.run(None);

    // Bit-identical history, report and device weights.
    assert_eq!(straight.state(), resumed.state());
    assert_eq!(straight.events().len(), resumed.events().len());
    for (a, b) in straight.events().iter().zip(resumed.events().iter()) {
        assert_eq!(a.describe(), b.describe());
    }
    assert_eq!(straight.render_report(), resumed.render_report());
    assert_eq!(straight.checkpoint_json(), resumed.checkpoint_json());
    let (sd, rd) = (straight.device().state_dict(), resumed.device().state_dict());
    for ((ka, ta), (kb, tb)) in sd.iter().zip(rd.iter()) {
        assert_eq!(ka, kb);
        let (a_bits, b_bits): (Vec<u32>, Vec<u32>) = (
            ta.as_slice().iter().map(|v| v.to_bits()).collect(),
            tb.as_slice().iter().map(|v| v.to_bits()).collect(),
        );
        assert_eq!(a_bits, b_bits, "device weights diverged in {ka}");
    }
}

/// A small seeded lifetime whose repair ladder walks reprogram, spares,
/// retrain and degrade, with the parity scrub on when `hardened`.
fn ladder_lifetime(hardened: bool) -> LifetimeRuntime {
    let mut rng = SeededRng::new(31);
    let net = tiny_mlp(8, 16, 4, &mut rng);
    let patterns = TestPatternSet::new("ladder", Tensor::rand_uniform(&[6, 8], 0.0, 1.0, &mut rng));
    let train = TrainData {
        images: Tensor::rand_uniform(&[24, 8], 0.0, 1.0, &mut rng),
        labels: (0..24).map(|i| i % 4).collect(),
    };
    let config = LifetimeConfig {
        seed: 44,
        epochs: 6,
        aging: AgingModel {
            drift_nu: 0.05,
            drift_time: 1.0,
            soft_error_p: 0.002,
            stuck_lambda: 4.0,
        },
        crossbar: CrossbarConfig::ideal(),
        policy: MonitorPolicy {
            watch_threshold: 1e-3,
            critical_threshold: 1e-2,
            escalation_count: 1,
        },
        repair_budget: 12,
        hardened,
        ..LifetimeConfig::default()
    };
    let mut runtime = LifetimeRuntime::new(&net, patterns, config, Some(train));
    runtime.run(None);
    runtime
}

#[test]
fn digital_ladder_checkpoints_match_the_goldens() {
    for (hardened, golden) in [
        (false, include_str!("golden/lifetime_checkpoint.json")),
        (true, include_str!("golden/lifetime_checkpoint_hardened.json")),
    ] {
        let runtime = ladder_lifetime(hardened);
        let rungs: Vec<RepairAction> = runtime
            .events()
            .iter()
            .filter_map(|e| match e {
                LifetimeEvent::RepairAttempted { action, .. } => Some(*action),
                _ => None,
            })
            .collect();
        for rung in [RepairAction::Reprogram, RepairAction::Spares, RepairAction::Retrain] {
            assert!(rungs.contains(&rung), "the ladder must reach {rung:?}: {rungs:?}");
        }
        assert_eq!(
            runtime.checkpoint_json(),
            golden,
            "digital checkpoint bytes moved (hardened: {hardened})"
        );
    }
}
