//! Bit-for-bit pins of the lifetime and fleet paths: the reports,
//! checkpoints, fleet shards and Stable telemetry of lifetimes that
//! repair and degrade on every backend, of a degraded digital lifetime
//! resumed and stepped at a shed checkup depth, and of a fleet whose
//! pattern budget sheds both checkup depth and whole devices.
//!
//! The text goldens pin one digital lifetime and one fleet shard; these
//! pins add the crossbar lifetimes, the hardened ones, every repair rung
//! up to degradation, budget shedding and a resume after degradation,
//! so a change to how a runtime holds its golden reference, swaps its
//! detector or rebuilds its device on resume that moves one byte of any
//! of those outputs, or one Stable counter, fails here. The values were
//! captured from the build in which every device still cloned the
//! golden network and detector and a resume still programmed a device
//! before overwriting it.

use healthmon::{
    AgingModel, BackendSpec, CrossbarConfig, FleetConfig, FleetSupervisor, LifetimeConfig,
    LifetimeEvent, LifetimeRuntime, TestPatternSet, TrainData,
};
use healthmon_nn::models::{lenet5, tiny_mlp};
use healthmon_nn::Network;
use healthmon_tensor::{SeededRng, Tensor};
use healthmon_telemetry as tel;
use std::sync::{Mutex, MutexGuard};

/// FNV-1a over the bytes folded in.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }
}

fn digest(bytes: &[u8]) -> u64 {
    Fnv::new().bytes(bytes).0
}

/// Telemetry state is process-global; every test here serializes on
/// this lock, so no run records into another's counters.
static LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` with telemetry recording and returns its value and an FNV
/// digest of every Stable telemetry line it recorded, sorted.
fn traced<T>(f: impl FnOnce() -> T) -> (T, u64) {
    tel::reset();
    tel::set_enabled(true);
    let out = f();
    let snapshot = tel::snapshot();
    tel::set_enabled(false);
    let mut lines: Vec<String> = tel::render_jsonl(&snapshot)
        .lines()
        .filter(|l| l.contains("\"stable\":true"))
        .map(str::to_owned)
        .collect();
    lines.sort();
    let mut h = Fnv::new();
    for line in &lines {
        h.bytes(line.as_bytes()).bytes(b"\n");
    }
    (out, h.0)
}

/// Collects mismatches as `what: got 0x..., pinned 0x...` lines.
#[derive(Default)]
struct Pins(Vec<String>);

impl Pins {
    fn check(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.0.push(format!("{what}: got 0x{got:016x}, pinned 0x{want:016x}"));
        }
    }

    fn assert_clean(&self, path: &str) {
        assert!(self.0.is_empty(), "{path} moved:\n{}", self.0.join("\n"));
    }
}

/// A tiny MLP wide enough to span two crossbar tiles per layer, eight
/// random patterns and labelled data for the retraining rung.
fn lifetime_fixture() -> (Network, TestPatternSet, TrainData) {
    let mut rng = SeededRng::new(61);
    let net = tiny_mlp(160, 24, 6, &mut rng);
    let patterns =
        TestPatternSet::new("pin", Tensor::rand_uniform(&[8, 160], 0.0, 1.0, &mut rng));
    let train = TrainData {
        images: Tensor::rand_uniform(&[24, 160], 0.0, 1.0, &mut rng),
        labels: (0..24).map(|i| i % 6).collect(),
    };
    (net, patterns, train)
}

/// Aging harsh enough that every backend escalates, walks the repair
/// ladder, heals at least once and degrades its pattern budget.
fn lifetime_config(backend: BackendSpec, hardened: bool) -> LifetimeConfig {
    LifetimeConfig {
        seed: 808,
        epochs: 7,
        aging: AgingModel {
            drift_nu: 0.08,
            drift_time: 1.0,
            soft_error_p: 0.002,
            stuck_lambda: 14.0,
        },
        backend,
        hardened,
        repair_budget: 10,
        ..LifetimeConfig::default()
    }
}

/// The backends pinned, in table order.
fn backends() -> [(&'static str, BackendSpec); 3] {
    [
        ("digital", BackendSpec::digital()),
        ("analog", BackendSpec::analog(CrossbarConfig::default())),
        ("bitsliced 8-bit", BackendSpec::bitsliced(CrossbarConfig::default(), 8)),
    ]
}

/// Whether the lifetime attempted a repair and degraded its budget.
fn repaired_and_degraded(runtime: &LifetimeRuntime) -> bool {
    let events = runtime.events();
    events.iter().any(|e| matches!(e, LifetimeEvent::RepairAttempted { .. }))
        && events.iter().any(|e| matches!(e, LifetimeEvent::Degraded { .. }))
}

/// Per backend, plain then hardened: the digest of the lifetime's
/// report, of its checkpoint (digital only; crossbar lifetimes are not
/// checkpointed) and of its Stable telemetry.
#[rustfmt::skip]
const LIFETIMES: [[(u64, u64, u64); 2]; 3] = [
    [
        (0x07f0ba4425e12a2b, 0x886e21fd22d96621, 0x0e2e7a99ace38a96),
        (0xb6a01708b60e4ccf, 0x03910dcccfa54469, 0x42075bd539871780),
    ],
    [
        (0xd81a4d0942dbd9b9, 0, 0xa151b9ef783a81e8),
        (0x2aba163dd1173d0f, 0, 0xe9eb385e3bbc90dd),
    ],
    [
        (0x13af41722c35282e, 0, 0xf6c7431d60e3e535),
        (0x875473ffbf1a1f4e, 0, 0xeb470ed4a36de023),
    ],
];

#[test]
fn lifetimes_keep_their_pinned_reports_checkpoints_and_telemetry() {
    let _guard = exclusive();
    let (net, patterns, train) = lifetime_fixture();
    let mut pins = Pins::default();
    for ((name, backend), pinned) in backends().into_iter().zip(&LIFETIMES) {
        for (hardened, &(report, checkpoint, stable)) in [false, true].into_iter().zip(pinned) {
            let config = lifetime_config(backend, hardened);
            let (runtime, got_stable) = traced(|| {
                let mut runtime =
                    LifetimeRuntime::new(&net, patterns.clone(), config, Some(train.clone()));
                runtime.run(None);
                runtime
            });
            let what = format!("{name}, hardened {hardened}");
            let rendered = runtime.render_report();
            assert!(repaired_and_degraded(&runtime), "{what}: {rendered}");
            pins.check(&format!("{what}: report"), digest(rendered.as_bytes()), report);
            let got_checkpoint = match name {
                "digital" => digest(runtime.checkpoint_json().as_bytes()),
                _ => 0,
            };
            pins.check(&format!("{what}: checkpoint"), got_checkpoint, checkpoint);
            pins.check(&format!("{what}: stable telemetry"), got_stable, stable);
        }
    }
    pins.assert_clean("lifetime path");
}

/// The degraded resume: the report and checkpoint before the resume,
/// then after each step capped at 8, 1 and 3 patterns. The first cap
/// is the whole set, so that checkup compares against the monitor's
/// restored subset detector.
const DEGRADED_RESUME: [u64; 8] = [
    0xa1f55397a0f1874e,
    0x1a3e78dccbe26104,
    0x088c9a1613cc41f7,
    0x314865c042442be3,
    0x574c2e78afacaf83,
    0xf09ea2c6b506b642,
    0x4a01030f66ea7c66,
    0x9985ee516d13ecf7,
];

#[test]
fn a_degraded_lifetime_resumes_and_steps_shallow_to_its_pinned_bytes() {
    let _guard = exclusive();
    let (net, patterns, train) = lifetime_fixture();
    let config = LifetimeConfig { epochs: 12, ..lifetime_config(BackendSpec::digital(), false) };
    let mut runtime = LifetimeRuntime::new(&net, patterns.clone(), config, Some(train.clone()));
    while runtime.active_patterns() == patterns.len() {
        assert!(!runtime.is_finished(), "the lifetime must degrade: {}", runtime.render_report());
        runtime.step();
    }
    let checkpoint = runtime.checkpoint_json();
    let mut got = vec![digest(runtime.render_report().as_bytes()), digest(checkpoint.as_bytes())];
    drop(runtime);
    let mut resumed =
        LifetimeRuntime::resume(&net, patterns.clone(), config, Some(train), &checkpoint).unwrap();
    assert!(resumed.active_patterns() < patterns.len());
    for depth in [8, 1, 3] {
        assert!(!resumed.is_finished(), "{}", resumed.render_report());
        resumed.step_shallow(depth);
        got.push(digest(resumed.render_report().as_bytes()));
        got.push(digest(resumed.checkpoint_json().as_bytes()));
    }
    let mut pins = Pins::default();
    let steps = ["checkpointed", "shallow 8", "shallow 1", "shallow 3"];
    for (i, (&got, &want)) in got.iter().zip(&DEGRADED_RESUME).enumerate() {
        let part = if i % 2 == 0 { "report" } else { "checkpoint" };
        pins.check(&format!("{}: {part}", steps[i / 2]), got, want);
    }
    pins.assert_clean("degraded resume");
}

/// Six lenet5 devices in three shards under a budget of 10 pattern
/// evaluations an epoch: shedding every healthy device's depth to the
/// floor of 2 is not enough, so whole devices are shed too.
fn fleet_config() -> FleetConfig {
    FleetConfig {
        seed: 91,
        devices: 6,
        shards: 3,
        budget: 10,
        device: LifetimeConfig {
            epochs: 4,
            aging: AgingModel {
                drift_nu: 0.05,
                drift_time: 1.0,
                soft_error_p: 0.0005,
                stuck_lambda: 4.0,
            },
            repair_budget: 6,
            ..LifetimeConfig::default()
        },
        ..FleetConfig::default()
    }
}

fn fleet_fixture() -> (Network, TestPatternSet) {
    let mut rng = SeededRng::new(62);
    let net = lenet5(&mut rng);
    let patterns =
        TestPatternSet::new("pin", Tensor::rand_uniform(&[6, 1, 28, 28], 0.0, 1.0, &mut rng));
    (net, patterns)
}

/// The fleet's report and Stable telemetry, its shards after two
/// epochs, and the report of the fleet resumed from them and run out.
const FLEET: [u64; 4] =
    [0x66b5c8baeb6f452a, 0x87c02d58af3928f4, 0xdc7b5b7ebd867aed, 0x66b5c8baeb6f452a];

#[test]
fn a_budget_shed_fleet_keeps_its_pinned_report_shards_and_telemetry() {
    let _guard = exclusive();
    let (net, patterns) = fleet_fixture();
    let config = fleet_config();
    let (report, stable) = traced(|| {
        let mut fleet = FleetSupervisor::new(&net, patterns.clone(), config).unwrap();
        fleet.run(None);
        fleet.render_report()
    });
    let shed = report.lines().find(|l| l.starts_with("shed:")).expect("a shed line");
    assert!(!shed.starts_with("shed: 0 ") && !shed.ends_with(" 0 skipped epochs"), "{report}");
    let dir = std::env::temp_dir().join("healthmon_lifetime_path_fleet");
    let _ = std::fs::remove_dir_all(&dir);
    let mut fleet = FleetSupervisor::new(&net, patterns.clone(), config).unwrap();
    fleet.run(Some(2));
    fleet.save_checkpoint(&dir).unwrap();
    let mut shards = Fnv::new();
    for shard in 0..config.shards {
        shards.bytes(&std::fs::read(dir.join(format!("shard-{shard:03}.json"))).unwrap());
    }
    let mut resumed = FleetSupervisor::resume(&net, patterns, config, &dir).unwrap();
    assert!(resumed.damaged_shards().is_empty());
    resumed.run(None);
    std::fs::remove_dir_all(&dir).ok();
    let got = [
        digest(report.as_bytes()),
        stable,
        shards.0,
        digest(resumed.render_report().as_bytes()),
    ];
    let mut pins = Pins::default();
    let parts = ["report", "stable telemetry", "shards after 2 epochs", "resumed report"];
    for ((part, got), want) in parts.iter().zip(got).zip(FLEET) {
        pins.check(part, got, want);
    }
    pins.assert_clean("budget-shed fleet");
}
