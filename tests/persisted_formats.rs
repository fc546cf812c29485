//! Persisted formats: the exact bytes every writer produces and every
//! reader accepts.
//!
//! The goldens pin layouts the two lifetime-checkpoint goldens never
//! reach: a parked lifetime checkpoint (a `parked` event and a non-null
//! incident report), a campaign checkpoint, every fault-model variant, a
//! flight-recorder artifact and one snapshot-stream frame. They were
//! captured before the codecs moved to `healthmon_serdes::json_codec!`,
//! so byte identity here proves the move changed no persisted byte. The
//! fleet-shard golden was captured before strings were copied in runs,
//! and pins a shard whose escaped device checkpoints hold a repair, its
//! defect maps and a permuted row assignment.
//!
//! Past the goldens, every persisted reader meets damaged and hostile
//! input: random truncations and single-bit flips (a damaged shard costs
//! exactly that shard, a damaged flight record is an error, nothing
//! panics), out-of-range numbers or mistyped maps that must come back
//! as typed JSON errors instead of being cast into range, and sealed
//! shards that omit or repeat a device.

use healthmon::{
    AgingModel, CampaignCheckpoint, FleetConfig, FleetSupervisor, FlightRecord, HealthmonError,
    LifetimeConfig, LifetimeRuntime, MonitorPolicy, SdcCriterion, TestPatternSet,
};
use healthmon_check::{run_cases, Gen};
use healthmon_faults::FaultModel;
use healthmon_nn::models::tiny_mlp;
use healthmon_nn::Network;
use healthmon_reram::CrossbarConfig;
use healthmon_serdes::{Json, JsonError};
use healthmon_telemetry as tel;
use healthmon_tensor::{SeededRng, Tensor};
use std::str::FromStr;

/// The inputs of a small seeded lifetime that drains its repair budget
/// and parks.
fn parked_inputs() -> (Network, TestPatternSet, LifetimeConfig) {
    let mut rng = SeededRng::new(57);
    let net = tiny_mlp(8, 16, 4, &mut rng);
    let patterns = TestPatternSet::new("parked", Tensor::rand_uniform(&[6, 8], 0.0, 1.0, &mut rng));
    // Coarse 2-bit cells leave a quantization floor no repair can cross
    // under thresholds this tight, so the budget drains and it parks.
    let config = LifetimeConfig {
        seed: 9,
        epochs: 6,
        aging: AgingModel { drift_nu: 0.05, drift_time: 1.0, soft_error_p: 0.0, stuck_lambda: 3.0 },
        crossbar: CrossbarConfig { cell_bits: 2, ..CrossbarConfig::ideal() },
        policy: MonitorPolicy {
            watch_threshold: 1e-7,
            critical_threshold: 1e-6,
            escalation_count: 1,
        },
        repair_budget: 3,
        ..LifetimeConfig::default()
    };
    (net, patterns, config)
}

fn parked_lifetime() -> LifetimeRuntime {
    let (net, patterns, config) = parked_inputs();
    let mut runtime = LifetimeRuntime::new(&net, patterns, config, None);
    runtime.run(None);
    assert!(runtime.is_parked(), "the golden lifetime must park");
    runtime
}

fn parked_checkpoint() -> String {
    parked_lifetime().checkpoint_json()
}

fn campaign_checkpoint() -> String {
    let criteria = [
        SdcCriterion::Sdc1,
        SdcCriterion::Sdc5,
        SdcCriterion::SdcT { threshold: 0.05 },
        SdcCriterion::SdcA { threshold: 0.03 },
    ];
    // A seed past 2^53 exercises the decimal-string u64 encoding.
    let mut checkpoint = CampaignCheckpoint::new(u64::MAX - 12_345, 6, &criteria);
    checkpoint.record(4, vec![true, false, true, true]).unwrap();
    checkpoint.record(1, vec![false, false, false, true]).unwrap();
    checkpoint.record(0, vec![true, true, false, false]).unwrap();
    checkpoint.to_json_string()
}

/// One line per fault-model variant, `Compound` last.
fn fault_models() -> String {
    let models = [
        FaultModel::ProgrammingVariation { sigma: 0.2 },
        FaultModel::RandomSoftError { probability: 1e-3 },
        FaultModel::StuckAt { sa0: 0.1, sa1: 0.05 },
        FaultModel::Drift { nu: 0.3, time: 2.5 },
        FaultModel::Compound(vec![
            FaultModel::Drift { nu: 0.1, time: 1.0 },
            FaultModel::Compound(vec![FaultModel::ProgrammingVariation { sigma: 0.4 }]),
            FaultModel::StuckAt { sa0: 0.0, sa1: 0.02 },
        ]),
    ];
    let lines: Vec<String> = models.iter().map(healthmon_serdes::to_string).collect();
    lines.join("\n")
}

fn flight_artifact() -> String {
    let runtime = parked_lifetime();
    let digest = runtime.config().digest();
    let mut record = runtime.flight_record(3, 6, "park", "budget exhausted", digest);
    record.push_tally("offenses", 2);
    record.push_tally("backoff_ms", 1_250);
    record.render()
}

fn snapshot_frame() -> String {
    let snap = tel::MetricsSnapshot {
        counters: vec![tel::CounterSnapshot {
            name: "fleet.checkups.ok".into(),
            value: 96,
            stable: true,
        }],
        gauges: vec![tel::GaugeSnapshot {
            name: "fleet.devices.active".into(),
            value: 23.5,
            stable: false,
        }],
        histograms: vec![tel::HistogramSnapshot {
            name: "fleet.epoch_ns".into(),
            count: 4,
            sum: 9_000,
            buckets: vec![(10, 1), (12, 3)],
            stable: false,
        }],
        spans: vec![tel::SpanSnapshot {
            path: "fleet.epoch".into(),
            calls: 4,
            total_ns: 9_000,
            self_ns: 1_000,
            max_ns: 3_000,
        }],
        events: vec![tel::EventSnapshot {
            seq: 7,
            t_ns: 1_234,
            name: "fleet.incident",
            detail: "device 0003 epoch 2: timeout".into(),
        }],
    };
    let frame = tel::SnapshotFrame {
        seq: 3,
        label: "fleet".into(),
        epoch: 7,
        meta: vec![("critical".into(), 2.0), ("healthy".into(), 20.0), ("watch".into(), 1.0)],
        snap,
    };
    tel::render_frame(&frame)
}

/// A chaos-free tiny-MLP fleet of four devices in two shards. Its first
/// epoch repairs device 2, so shard 0 saved after it holds defect maps, a
/// permuted row assignment and the repair's events.
fn shard_fleet() -> (Network, TestPatternSet, FleetConfig) {
    let mut rng = SeededRng::new(7);
    let net = tiny_mlp(8, 12, 4, &mut rng);
    let patterns = TestPatternSet::new("shard", Tensor::rand_uniform(&[6, 8], 0.0, 1.0, &mut rng));
    let aging = AgingModel { drift_nu: 0.02, drift_time: 1.0, soft_error_p: 0.0, stuck_lambda: 2.0 };
    let config = FleetConfig {
        seed: 0,
        devices: 4,
        shards: 2,
        device: LifetimeConfig { epochs: 4, aging, ..LifetimeConfig::default() },
        ..FleetConfig::default()
    };
    (net, patterns, config)
}

/// `shard_fleet` after one epoch, saved under a fresh `dir`.
fn saved_shard_fleet(dir: &std::path::Path) -> (Network, TestPatternSet, FleetConfig) {
    let (net, patterns, config) = shard_fleet();
    let mut fleet = FleetSupervisor::new(&net, patterns.clone(), config).unwrap();
    fleet.run(Some(1));
    let _ = std::fs::remove_dir_all(dir);
    fleet.save_checkpoint(dir).unwrap();
    (net, patterns, config)
}

fn shard_dir(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("healthmon_persisted_{name}"))
}

#[test]
fn fleet_shard_matches_its_golden() {
    let golden = include_str!("golden/fleet_shard.json");
    let dir = shard_dir("golden_shard");
    saved_shard_fleet(&dir);
    let written = std::fs::read_to_string(dir.join("shard-000.json")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(written, golden, "fleet shard bytes moved");
    // The golden holds what it is meant to pin: a device repaired in
    // epoch 1, its defect maps and a permuted row assignment.
    let field = |v: &Json, key: &str| v.field(key).unwrap().clone();
    let list = |v: Json| v.as_array().unwrap().to_vec();
    let repaired = list(field(&healthmon_serdes::parse(golden).unwrap(), "devices"))
        .iter()
        .map(|d| healthmon_serdes::parse(field(d, "checkpoint").as_str().unwrap()).unwrap())
        .find(|c| c.render().contains(r#""kind":"repair","epoch":1,"#))
        .expect("a device of the golden shard was repaired in epoch 1");
    let layers = list(field(&repaired, "layers"));
    assert!(layers.iter().all(|l| !list(field(l, "defects")).is_empty()));
    let permuted = |l: &Json| {
        let rows = list(field(l, "assignment"));
        rows.iter().enumerate().any(|(i, r)| r.as_number().unwrap() != i as f64)
    };
    assert!(layers.iter().any(permuted));
}

#[test]
fn resuming_the_golden_shard_reproduces_the_uninterrupted_report() {
    let dir = shard_dir("golden_resume");
    let (net, patterns, config) = saved_shard_fleet(&dir);
    std::fs::write(dir.join("shard-000.json"), include_str!("golden/fleet_shard.json")).unwrap();
    let mut resumed = FleetSupervisor::resume(&net, patterns.clone(), config, &dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(resumed.damaged_shards().is_empty(), "{:?}", resumed.damaged_shards());
    resumed.run(None);
    let mut straight = FleetSupervisor::new(&net, patterns, config).unwrap();
    straight.run(None);
    assert_eq!(resumed.render_report(), straight.render_report());
}

/// Resumes `shard_fleet` after its shard 1 (devices 1 and 3) had its
/// device list edited and resealed; the mismatch detail, if refused.
fn resume_with_edited_shard_1(name: &str, edit: impl FnOnce(&mut Vec<Json>)) -> String {
    let dir = shard_dir(name);
    let (net, patterns, config) = saved_shard_fleet(&dir);
    let path = dir.join("shard-001.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut shard = healthmon_serdes::parse(&text).unwrap();
    let Json::Object(fields) = &mut shard else { panic!("a shard is an object") };
    let Some((_, Json::Array(devices))) = fields.iter_mut().find(|(k, _)| k == "devices") else {
        panic!("a shard lists its devices")
    };
    edit(devices);
    let edited = reseal(&shard.render());
    assert_ne!(edited, text, "the edit must land");
    std::fs::write(&path, edited).unwrap();
    let resumed = FleetSupervisor::resume(&net, patterns, config, &dir);
    std::fs::remove_dir_all(&dir).ok();
    match resumed {
        Err(HealthmonError::CheckpointMismatch(detail)) => detail,
        Err(other) => panic!("expected a checkpoint mismatch, got {other}"),
        Ok(fleet) => panic!("resumed with damaged shards {:?}", fleet.damaged_shards()),
    }
}

#[test]
fn a_sealed_shard_that_omits_a_device_is_refused() {
    let detail = resume_with_edited_shard_1("omit", |devices| {
        devices.pop();
    });
    assert_eq!(detail, "shard 1 omits device id 3");
}

#[test]
fn a_sealed_shard_that_repeats_a_device_is_refused() {
    // Device 1 listed twice in place of device 3.
    let detail = resume_with_edited_shard_1("repeat", |devices| devices[1] = devices[0].clone());
    assert_eq!(detail, "shard 1 lists device id 1 twice");
}

#[test]
fn parked_lifetime_checkpoint_matches_its_golden() {
    let golden = include_str!("golden/parked_checkpoint.json");
    assert_eq!(parked_checkpoint(), golden, "parked lifetime checkpoint bytes moved");
}

#[test]
fn campaign_checkpoint_matches_its_golden() {
    let golden = include_str!("golden/campaign_checkpoint.json");
    assert_eq!(campaign_checkpoint(), golden, "campaign checkpoint bytes moved");
}

#[test]
fn every_fault_model_matches_its_golden() {
    let golden = include_str!("golden/fault_models.jsonl");
    assert_eq!(fault_models(), golden, "fault-model bytes moved");
}

#[test]
fn flight_artifact_matches_its_golden() {
    let golden = include_str!("golden/flight_record.json");
    assert_eq!(flight_artifact(), golden, "flight-record bytes moved");
}

#[test]
fn snapshot_frame_matches_its_golden() {
    let golden = include_str!("golden/snapshot_frame.jsonl");
    assert_eq!(snapshot_frame(), golden, "snapshot-frame bytes moved");
}

/// `bytes` truncated at a drawn length or with one drawn bit flipped.
fn damage(bytes: &[u8], g: &mut Gen) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if g.usize_in(0, 2) == 0 {
        out.truncate(g.usize_in(0, bytes.len()));
    } else {
        let at = g.usize_in(0, bytes.len());
        out[at] ^= 1 << g.usize_in(0, 8);
    }
    out
}

#[test]
fn damaged_shards_cost_exactly_themselves() {
    let mut rng = SeededRng::new(5);
    let net = tiny_mlp(8, 12, 4, &mut rng);
    let patterns = TestPatternSet::new("shards", Tensor::rand_uniform(&[5, 8], 0.0, 1.0, &mut rng));
    let config = FleetConfig {
        seed: 3,
        devices: 4,
        device: LifetimeConfig { epochs: 3, ..LifetimeConfig::default() },
        shards: 2,
        ..FleetConfig::default()
    };
    let mut fleet = FleetSupervisor::new(&net, patterns.clone(), config).unwrap();
    fleet.run(Some(1));
    let dir = std::env::temp_dir().join("healthmon_persisted_shards");
    let _ = std::fs::remove_dir_all(&dir);
    fleet.save_checkpoint(&dir).unwrap();
    let shards: Vec<Vec<u8>> = (0..2)
        .map(|k| std::fs::read(dir.join(format!("shard-{k:03}.json"))).unwrap())
        .collect();
    run_cases(24, |g| {
        let k = g.usize_in(0, 2);
        for (i, bytes) in shards.iter().enumerate() {
            let written = if i == k { damage(bytes, g) } else { bytes.clone() };
            std::fs::write(dir.join(format!("shard-{i:03}.json")), written).unwrap();
        }
        let resumed = FleetSupervisor::resume(&net, patterns.clone(), config, &dir)
            .expect("shard damage is contained, never fatal");
        let damaged: Vec<usize> = resumed.damaged_shards().iter().map(|d| d.0).collect();
        assert_eq!(damaged, vec![k], "case {}", g.case());
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_flight_records_never_parse() {
    let text = flight_artifact();
    run_cases(64, |g| {
        let bytes = damage(text.as_bytes(), g);
        // Invalid UTF-8 never reaches the parser: reading the file fails.
        if let Ok(damaged) = std::str::from_utf8(&bytes) {
            assert!(FlightRecord::from_str(damaged).is_err(), "case {}", g.case());
        }
    });
}

#[test]
fn damaged_checkpoints_and_streams_never_panic() {
    let (golden, patterns, config) = parked_inputs();
    let lifetime = parked_checkpoint();
    let campaign = campaign_checkpoint();
    let stream = snapshot_frame().repeat(2);
    let damaged =
        |s: &str, g: &mut Gen| String::from_utf8_lossy(&damage(s.as_bytes(), g)).into_owned();
    run_cases(48, |g| {
        let checkpoint = damaged(&lifetime, g);
        let _ = LifetimeRuntime::resume(&golden, patterns.clone(), config, None, &checkpoint);
        let _ = CampaignCheckpoint::from_json_str(&damaged(&campaign, g));
        let _ = tel::parse_stream(&damaged(&stream, g));
    });
}

/// Re-seals an edited flight record or shard the way a writer would:
/// FNV-1a over the stored bytes up to the final `digest` field, plus the
/// closing brace, so the reader gets past the digest to the edited values.
fn reseal(text: &str) -> String {
    let at = text.rfind(",\"digest\":\"").expect("sealed");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text[..at].bytes().chain(*b"}") {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{},\"digest\":\"{hash}\"}}", &text[..at])
}

fn json_error(err: HealthmonError) -> JsonError {
    match err {
        HealthmonError::Json(e) => e,
        other => panic!("expected a typed JSON error, got {other}"),
    }
}

#[test]
fn hostile_flight_record_numbers_are_typed_errors() {
    let text = flight_artifact();
    assert_eq!(reseal(&text), text, "resealing follows the writer's rule");
    let read = |edited: String| {
        assert_ne!(edited, text, "the edit must land");
        json_error(FlightRecord::from_str(&reseal(&edited)).unwrap_err())
    };
    let err = read(text.replace("\"device\":3,\"epoch\":6", "\"device\":-7,\"epoch\":2.5"));
    assert!(err.to_string().contains("-7 is not a valid u32"), "{err}");
    for bad in ["-1", "2.5", "1e300"] {
        let edited = text.replacen("[{\"epoch\":0,", &format!("[{{\"epoch\":{bad},"), 1);
        let err = read(edited);
        assert!(err.to_string().contains("is not a valid u64"), "timeline epoch {bad}: {err}");
    }
    let listed = text
        .replacen("\"tallies\":{", "\"tallies\":[{", 1)
        .replacen("},\"digest\"", "}],\"digest\"", 1);
    let err = read(listed);
    assert!(matches!(err, JsonError::Type { .. }), "{err}");
}

#[test]
fn hostile_timeline_numbers_are_typed_errors() {
    let point = "{\"epoch\":EPOCH,\"state\":\"watch\",\"accuracy\":0.5,\"score\":0.25,\
                 \"repairs\":REPAIRS,\"scrubs\":0,\"retries\":0}";
    let ok = point.replace("EPOCH", "3").replace("REPAIRS", "1");
    assert!(healthmon_serdes::from_str::<tel::TimelinePoint>(&ok).is_ok());
    for bad in ["-1", "2.5", "1e300"] {
        for (epoch, repairs) in [(bad, "1"), ("3", bad)] {
            let text = point.replace("EPOCH", epoch).replace("REPAIRS", repairs);
            let err = healthmon_serdes::from_str::<tel::TimelinePoint>(&text).unwrap_err();
            assert!(err.to_string().contains("is not a valid u64"), "{bad}: {err}");
        }
    }
}

#[test]
fn hostile_snapshot_markers_are_typed_errors() {
    let frame = snapshot_frame();
    assert_eq!(tel::parse_stream(&frame).unwrap().len(), 1);
    for bad in ["-1", "2.5", "1e300"] {
        for field in ["seq", "epoch"] {
            let from = if field == "seq" { "\"seq\":3" } else { "\"epoch\":7" };
            let text = frame.replacen(from, &format!("\"{field}\":{bad}"), 1);
            let err = tel::parse_stream(&text).unwrap_err();
            assert!(err.to_string().contains("is not a valid u64"), "{field}={bad}: {err}");
        }
    }
    let meta = "\"meta\":{\"critical\":2,\"healthy\":20,\"watch\":1}";
    let listed = frame.replacen(meta, "\"meta\":[2,20,1]", 1);
    assert_ne!(listed, frame);
    let err = tel::parse_stream(&listed).unwrap_err();
    assert!(matches!(err, JsonError::Type { .. }), "{err}");
}
