//! Cross-crate telemetry integration tests.
//!
//! Three contracts are pinned here:
//!
//! 1. **Thread-count invariance** — every metric tagged `Stable` merges
//!    to bit-identical aggregates whether the work ran on 1, 2 or 7
//!    threads.
//! 2. **Round-trip fidelity** — a snapshot survives JSON-lines
//!    serialization through `healthmon-serdes` unchanged.
//! 3. **Pure observation** — enabling telemetry changes no detection
//!    output: campaign rates and lifetime reports are byte-identical
//!    with recording on and off.
//! 4. **Phase attribution** — a checkup on the default analog config
//!    fills the DAC and accumulate phase histograms, and a conv network
//!    on the crossbar's column-layout kernel (fused fold and ADC) gives
//!    the same logits with recording on and off.
//! 5. **Honest cache counters** — each tile use records one DAC-cache
//!    lookup: a miss when the tile's integer state is built, a hit when
//!    it is reused.
//! 6. **Padding is never counted** — a dense product pads its batch to
//!    whole vector blocks, and the ADC and row-block counters still see
//!    the real batch alone.
//! 7. **Resume deploys only what it lost** — a fleet resume restores its
//!    shards without deploying or programming anything, and deploys and
//!    programs fresh exactly the devices of a damaged shard; a lifetime
//!    resume programs nothing either.

use healthmon::{
    AgingModel, AnalogBackend, BackendSpec, CrossbarConfig, Detector, FleetConfig,
    FleetSupervisor, LifetimeConfig, LifetimeRuntime, SdcCriterion, TestPatternSet,
};
use healthmon_faults::{par_map_models_with_threads, FaultModel};
use healthmon_nn::models::{lenet5, tiny_mlp};
use healthmon_nn::{Network, PatchMap};
use healthmon_reram::{Crossbar, SlicedMatrix, TiledMatrix};
use healthmon_tensor::{SeededRng, Tensor};
use healthmon_telemetry as tel;
use std::sync::{Mutex, MutexGuard};

/// Telemetry state is process-global; these tests serialize on this lock
/// and reset the registry while holding it.
static LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    tel::reset();
    guard
}

fn setup() -> (Network, Detector) {
    let mut rng = SeededRng::new(41);
    let net = tiny_mlp(8, 16, 4, &mut rng);
    let patterns =
        TestPatternSet::new("t", Tensor::rand_uniform(&[10, 8], 0.0, 1.0, &mut rng));
    let detector = Detector::new(&net, patterns);
    (net, detector)
}

/// The JSONL lines of every thread-count-invariant series, sorted.
fn stable_lines(snapshot: &tel::MetricsSnapshot) -> Vec<String> {
    let mut lines: Vec<String> = tel::render_jsonl(snapshot)
        .lines()
        .filter(|l| l.contains("\"stable\":true"))
        .map(str::to_owned)
        .collect();
    lines.sort();
    lines
}

/// One campaign pass over `count` fault models on an explicit thread
/// count, mirroring `Detector::detection_rates` internals.
fn run_campaign(net: &Network, detector: &Detector, threads: usize) -> Vec<Vec<bool>> {
    let fault = FaultModel::ProgrammingVariation { sigma: 0.3 };
    let criteria = [SdcCriterion::Sdc1, SdcCriterion::SdcA { threshold: 0.03 }];
    par_map_models_with_threads(net, &fault, 7, 24, threads, |_, model| {
        let responses = detector.responses(&*model);
        criteria
            .iter()
            .map(|c| c.detects(detector.golden(), &responses))
            .collect()
    })
}

#[test]
fn stable_aggregates_are_thread_count_invariant() {
    let _guard = exclusive();
    let (net, detector) = setup();
    let mut per_thread_count: Vec<(usize, Vec<String>, Vec<Vec<bool>>)> = Vec::new();
    for threads in [1usize, 2, 7] {
        tel::reset();
        tel::set_enabled(true);
        let verdicts = run_campaign(&net, &detector, threads);
        // Drive the GEMM/tile counters through explicit thread counts too.
        let mut rng = SeededRng::new(5);
        let a = Tensor::rand_uniform(&[96, 64], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[64, 48], -1.0, 1.0, &mut rng);
        let _ = a.matmul_with_threads(&b, threads);
        let snapshot = tel::snapshot();
        tel::set_enabled(false);
        per_thread_count.push((threads, stable_lines(&snapshot), verdicts));
    }
    let (_, baseline_lines, baseline_verdicts) = &per_thread_count[0];
    assert!(
        baseline_lines.iter().any(|l| l.contains("detect.responses")),
        "expected detector counters in {baseline_lines:#?}"
    );
    assert!(
        baseline_lines.iter().any(|l| l.contains("patterns.logits.batch_rows")),
        "expected the stable histogram in {baseline_lines:#?}"
    );
    assert!(
        baseline_lines.iter().any(|l| l.contains("gemm.calls")),
        "expected GEMM counters in {baseline_lines:#?}"
    );
    for (threads, lines, verdicts) in &per_thread_count[1..] {
        assert_eq!(
            lines, baseline_lines,
            "stable series diverged between 1 and {threads} threads"
        );
        assert_eq!(verdicts, baseline_verdicts, "verdicts diverged at {threads} threads");
    }
}

#[test]
fn snapshot_round_trips_through_serdes_jsonl() {
    let _guard = exclusive();
    tel::set_enabled(true);
    let (net, detector) = setup();
    let rates = detector.detection_rates(
        &net,
        &FaultModel::ProgrammingVariation { sigma: 0.3 },
        8,
        3,
        &[SdcCriterion::Sdc1, SdcCriterion::SdcA { threshold: 0.03 }],
    );
    assert_eq!(rates.len(), 2);
    tel::record_event("test.marker", "round-trip probe");
    let snapshot = tel::snapshot();
    tel::set_enabled(false);
    assert!(!snapshot.counters.is_empty());
    assert!(!snapshot.spans.is_empty(), "detect.campaign span expected");
    assert!(!snapshot.events.is_empty());

    let jsonl = tel::render_jsonl(&snapshot);
    let parsed = tel::parse_jsonl(&jsonl).expect("rendered JSONL must parse");
    assert_eq!(parsed, snapshot);
    assert_eq!(tel::render_jsonl(&parsed), jsonl, "re-render must be byte-identical");
}

#[test]
fn telemetry_is_purely_observational() {
    let _guard = exclusive();
    let fault = FaultModel::ProgrammingVariation { sigma: 0.4 };
    let criteria = [SdcCriterion::Sdc1, SdcCriterion::SdcA { threshold: 0.03 }];
    let lifetime_config = LifetimeConfig {
        seed: 11,
        epochs: 4,
        aging: AgingModel { drift_nu: 0.3, ..AgingModel::default() },
        crossbar: CrossbarConfig::ideal(),
        ..LifetimeConfig::default()
    };

    let run_all = || {
        let (net, detector) = setup();
        let rates: Vec<u32> = detector
            .detection_rates(&net, &fault, 12, 9, &criteria)
            .iter()
            .map(|r| r.to_bits())
            .collect();
        let mut rng = SeededRng::new(41);
        let golden = tiny_mlp(8, 16, 4, &mut rng);
        let patterns =
            TestPatternSet::new("t", Tensor::rand_uniform(&[10, 8], 0.0, 1.0, &mut rng));
        let mut runtime = LifetimeRuntime::new(&golden, patterns, lifetime_config, None);
        runtime.run(None);
        (rates, runtime.render_report(), runtime.checkpoint_json())
    };

    tel::set_enabled(false);
    let off = run_all();
    tel::reset();
    tel::set_enabled(true);
    let on = run_all();
    let recorded = tel::snapshot();
    tel::set_enabled(false);

    assert_eq!(off.0, on.0, "detection rates must not depend on telemetry");
    assert_eq!(off.1, on.1, "lifetime report must be byte-identical");
    assert_eq!(off.2, on.2, "lifetime checkpoint must be byte-identical");
    // And the enabled run did actually record the lifetime stream.
    assert!(
        recorded.counters.iter().any(|c| c.name == "lifetime.events.checkup" && c.value > 0),
        "expected lifetime event counters in {:#?}",
        recorded.counters
    );
    assert!(
        recorded
            .events
            .iter()
            .any(|e| e.name == "lifetime.event" && e.detail.contains("[deploy]")),
        "expected the deployed event in the ring buffer"
    );
}

#[test]
fn default_analog_checkup_records_dac_and_accumulate_phases() {
    let _guard = exclusive();
    let mut rng = SeededRng::new(41);
    let mlp = tiny_mlp(8, 16, 4, &mut rng);
    let mlp_patterns =
        TestPatternSet::new("t", Tensor::rand_uniform(&[10, 8], 0.0, 1.0, &mut rng));
    // lenet5's conv layers run the column-layout kernel with the fold and
    // the ADC fused; with telemetry on, that ADC also records saturation.
    // Both must produce the same bits, on one analog slice and on the
    // shift-add recombination of a bit-sliced matrix.
    let lenet = lenet5(&mut rng);
    let lenet_patterns =
        TestPatternSet::new("t", Tensor::rand_uniform(&[10, 1, 28, 28], 0.0, 1.0, &mut rng));
    // The default config runs `TiledMatrix`'s integer paths.
    let analog = BackendSpec::analog(CrossbarConfig::default());
    let bitsliced = BackendSpec::bitsliced(CrossbarConfig::default(), 8);
    let cases = [
        ("mlp analog", &mlp, &mlp_patterns, analog),
        ("lenet5 analog", &lenet, &lenet_patterns, analog),
        ("lenet5 bitsliced", &lenet, &lenet_patterns, bitsliced),
    ];
    for (what, net, patterns, spec) in cases {
        let detector = Detector::new(net, patterns.clone());
        let checkup = || {
            let backend = AnalogBackend::program(net, &spec, &mut SeededRng::new(5));
            let logits: Vec<u32> =
                patterns.logits(&backend).as_slice().iter().map(|v| v.to_bits()).collect();
            (logits, detector.is_faulty(&backend, SdcCriterion::Sdc1))
        };

        tel::set_enabled(false);
        let off = checkup();
        tel::reset();
        tel::set_enabled(true);
        let on = checkup();
        let recorded = tel::snapshot();
        tel::set_enabled(false);

        assert_eq!(off, on, "{what}: checkup outputs must not depend on telemetry");
        for phase in ["phase.dac_ns", "phase.accumulate_ns"] {
            let count =
                recorded.histograms.iter().find(|h| h.name == phase).map_or(0, |h| h.count);
            assert!(count > 0, "{what}: {phase} recorded no samples");
        }
        assert!(counter(&recorded, "reram.adc.samples") > 0, "{what}: no ADC samples recorded");
    }
}

/// The value of counter `name` in `snapshot` (0 when never recorded).
fn counter(snapshot: &tel::MetricsSnapshot, name: &str) -> u64 {
    snapshot.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
}

#[test]
fn dac_cache_counts_one_lookup_per_tile_use() {
    let _guard = exclusive();
    let mut rng = SeededRng::new(44);
    // (hits, misses) recorded so far.
    let traffic = |s: &tel::MetricsSnapshot| {
        (counter(s, "reram.dac.cache.hits"), counter(s, "reram.dac.cache.misses"))
    };

    // One tile, programmed and read once, then read again: as a bare
    // tile and as the one tile of a tiled matrix.
    let w = Tensor::randn(&[16, 8], &mut rng);
    let x = Tensor::rand_uniform(&[3, 16], -1.0, 1.0, &mut rng);
    let tile = Crossbar::program(&w, &CrossbarConfig::default(), &mut rng);
    let tiled = TiledMatrix::program(&w, &CrossbarConfig::default(), &mut rng);
    let reads: [(&str, &dyn Fn() -> Tensor); 2] =
        [("tile", &|| tile.matmul(&x)), ("tiled matrix", &|| tiled.matmul(&x))];
    for (what, read) in reads {
        tel::reset();
        tel::set_enabled(true);
        read();
        let once = tel::snapshot();
        read();
        let twice = tel::snapshot();
        tel::set_enabled(false);
        assert_eq!(traffic(&once), (0, 1), "{what}: a fresh tile read once is one miss");
        assert_eq!(traffic(&twice), (1, 1), "{what}: read again, one hit");
    }

    // A 2×2 tile grid: each product looks every tile up once, through
    // the dense and the column-layout entry alike.
    let config = CrossbarConfig { rows: 32, cols: 8, ..CrossbarConfig::default() };
    let w = Tensor::randn(&[40, 12], &mut rng);
    let tiled = TiledMatrix::program(&w, &config, &mut rng);
    assert_eq!(tiled.tile_count(), 4);
    tel::reset();
    tel::set_enabled(true);
    tiled.matmul(&Tensor::rand_uniform(&[2, 40], -1.0, 1.0, &mut rng));
    let dense = tel::snapshot();
    tiled.matmul_cols(&Tensor::rand_uniform(&[40, 50], -1.0, 1.0, &mut rng));
    let column = tel::snapshot();
    tel::set_enabled(false);
    assert_eq!(traffic(&dense), (0, 4));
    assert_eq!(traffic(&column), (4, 4));

    // A conv call on a two-slice bit-sliced matrix: one DAC pass over the
    // input, one lookup per tile of every slice.
    let map = PatchMap::new(&[2, 4, 6, 6], 3, 1, 1);
    let w = Tensor::randn(&[map.rows(), 12], &mut rng);
    let sliced = SlicedMatrix::program(&w, 8, 4, &config, &mut rng);
    assert_eq!(sliced.tile_count(), 8);
    let x = Tensor::rand_uniform(&[2, 4, 6, 6], 0.0, 1.0, &mut rng);
    tel::reset();
    tel::set_enabled(true);
    sliced.matmul_patches(&x, &map);
    let conv = tel::snapshot();
    tel::set_enabled(false);
    assert_eq!(traffic(&conv), (0, 8));
    assert_eq!(counter(&conv, "reram.dac.samples"), x.len() as u64, "one DAC sample per pixel");
}

#[test]
fn dense_padding_lanes_are_never_counted() {
    let _guard = exclusive();
    // A 70 × 12 matrix on 64 × 8 tiles: a 2×2 grid of 64 × 8, 64 × 4,
    // 6 × 8 and 6 × 4 tiles, with two, two, one and one 32-row blocks. A
    // batch of 3 runs the kernel over 16 lanes; the counters must see 3
    // samples per bit line and 3 per row block of every tile.
    let mut rng = SeededRng::new(45);
    let config = CrossbarConfig { rows: 64, cols: 8, ..CrossbarConfig::default() };
    let tiled = TiledMatrix::program(&Tensor::randn(&[70, 12], &mut rng), &config, &mut rng);
    assert_eq!(tiled.tile_grid(), (2, 2));
    let x = Tensor::rand_uniform(&[3, 70], -1.0, 1.0, &mut rng);
    tel::reset();
    tel::set_enabled(true);
    tiled.matmul(&x);
    let dense = tel::snapshot();
    tel::set_enabled(false);
    assert_eq!(counter(&dense, "reram.adc.samples"), 3 * (8 + 4 + 8 + 4));
    assert_eq!(counter(&dense, "reram.int8.rowblocks"), 3 * (2 + 2 + 1 + 1));
    assert_eq!(counter(&dense, "reram.dac.samples"), 3 * 70);
}

#[test]
fn fleet_resume_deploys_only_the_devices_of_damaged_shards() {
    let _guard = exclusive();
    // Seven devices in three shards: shard 1 holds devices 1 and 4.
    let mut rng = SeededRng::new(46);
    let net = tiny_mlp(8, 12, 4, &mut rng);
    let patterns = TestPatternSet::new("t", Tensor::rand_uniform(&[6, 8], 0.0, 1.0, &mut rng));
    let config = FleetConfig {
        seed: 5,
        devices: 7,
        shards: 3,
        device: LifetimeConfig { epochs: 3, ..LifetimeConfig::default() },
        ..FleetConfig::default()
    };
    let dir = std::env::temp_dir().join("healthmon_telemetry_fleet_resume");
    let _ = std::fs::remove_dir_all(&dir);
    let mut fleet = FleetSupervisor::new(&net, patterns.clone(), config).unwrap();
    fleet.run(Some(1));
    fleet.save_checkpoint(&dir).unwrap();
    // (damaged shards, devices deployed, tiles and cells programmed) of
    // one resume.
    let resume = || {
        tel::reset();
        tel::set_enabled(true);
        let resumed = FleetSupervisor::resume(&net, patterns.clone(), config, &dir).unwrap();
        let snapshot = tel::snapshot();
        tel::set_enabled(false);
        let count = |name| counter(&snapshot, name);
        (
            resumed.damaged_shards().len(),
            count("lifetime.events.deployed"),
            count("reram.program.tiles"),
            count("reram.program.cells"),
        )
    };
    assert_eq!(resume(), (0, 0, 0, 0), "a healthy checkpoint deploys and programs nothing");
    let torn = dir.join("shard-001.json");
    let bytes = std::fs::read(&torn).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
    // Each fresh device programs two tiles: 8x12 and 12x4 cells.
    assert_eq!(resume(), (1, 2, 4, 288), "a torn shard deploys exactly its own devices");
    std::fs::remove_dir_all(&dir).ok();

    // A lifetime resume restores its device without programming it.
    let config = LifetimeConfig { epochs: 3, ..LifetimeConfig::default() };
    let mut runtime = LifetimeRuntime::new(&net, patterns.clone(), config, None);
    runtime.run(Some(1));
    let checkpoint = runtime.checkpoint_json();
    tel::reset();
    tel::set_enabled(true);
    LifetimeRuntime::resume(&net, patterns, config, None, &checkpoint).unwrap();
    let tiles = counter(&tel::snapshot(), "reram.program.tiles");
    tel::set_enabled(false);
    assert_eq!(tiles, 0, "a lifetime resume programs no tile");
}
