//! Per-layer metrics of a traced run, named after the crate or module
//! whose time or work they measure.
//!
//! Three sources feed them: the benchmark's own spans around its calls
//! into each layer, a snapshot of the program's `healthmon-telemetry`
//! counters, histograms and spans (switched on for the traced round only),
//! and the layer drills. A metric of a layer the workload never enters
//! reads 0.

use crate::drill::time_layers;
use crate::trace::{stats_by_name, NameStats, SpanRecord};
use crate::workloads::{bits_equal, drill_models, reram_drill_devices, tensor_drill_models};
use healthmon_nn::{zoo, DigitalEngine, InferenceBackend};
use healthmon_telemetry::MetricsSnapshot;
use healthmon_tensor::SeededRng;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        value,
    }
}

fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counters
        .iter()
        .filter(|c| c.name == name)
        .fold(0.0, |sum, c| sum + c.value as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Total and self milliseconds of every telemetry span path ending in
/// `leaf`. Worker threads root their own paths, so a span is found by its
/// last name, wherever it ran.
fn telemetry_span_ms(snap: &MetricsSnapshot, leaf: &str) -> (f64, f64) {
    snap.spans
        .iter()
        .filter(|s| s.path == leaf || s.path.ends_with(&format!("/{leaf}")))
        .fold((0.0, 0.0), |(t, s), span| {
            (
                t + span.total_ns as f64 * 1e-6,
                s + span.self_ns as f64 * 1e-6,
            )
        })
}

/// Per-layer metrics of one traced round (every metric that does not come
/// from a drill), in the order `BENCHMARK.json` lists them.
pub fn round_metrics(
    spans: &[SpanRecord],
    snap: &MetricsSnapshot,
    bytes_written: u64,
    overhead_pct: f64,
) -> Vec<Metric> {
    let by_name = stats_by_name(spans);
    let get = |name: &str| by_name.get(name).copied().unwrap_or_default();
    let (is_faulty, infer, program) = (
        get("detect.is_faulty"),
        get("reram.infer"),
        get("reram.program"),
    );
    let (save, resume): (NameStats, NameStats) = (get("store.save"), get("store.resume"));
    let dac_hits = counter(snap, "reram.dac.cache.hits");
    let dac_misses = counter(snap, "reram.dac.cache.misses");
    let epoch_p50_ms = snap
        .histograms
        .iter()
        .find(|h| h.name == "lifetime.epoch_ns" && h.count > 0)
        .map_or(0.0, |h| h.quantile(0.5) as f64 * 1e-6);
    vec![
        metric("trace_overhead_pct", "%", overhead_pct),
        metric("detect.is_faulty_us", "us", is_faulty.mean_s() * 1e6),
        metric("detect.verdict_us", "us", is_faulty.mean_self_s() * 1e6),
        metric("reram.infer_us", "us", infer.mean_s() * 1e6),
        metric("reram.program_us", "us", program.mean_s() * 1e6),
        metric(
            "reram.program.cells",
            "count",
            counter(snap, "reram.program.cells"),
        ),
        metric(
            "reram.dac_cache_hit_ratio",
            "ratio",
            ratio(dac_hits, dac_hits + dac_misses),
        ),
        metric("tensor.gemm.calls", "count", counter(snap, "gemm.calls")),
        metric(
            "tensor.gemm.gflop",
            "GFLOP",
            counter(snap, "gemm.flops") * 1e-9,
        ),
        metric(
            "tensor.pool.jobs",
            "count",
            counter(snap, "pool.jobs") + counter(snap, "pool.jobs.inline"),
        ),
        metric("faults.model_us", "us", get("faults.model").mean_s() * 1e6),
        metric("diagnose.runs", "count", counter(snap, "diagnose.runs")),
        metric("diagnose.probes", "count", counter(snap, "diagnose.probes")),
        metric("diagnose.ms", "ms", telemetry_span_ms(snap, "diagnose").0),
        metric("runtime.epoch_p50_ms", "ms", epoch_p50_ms),
        metric(
            "runtime.checkup_ms",
            "ms",
            telemetry_span_ms(snap, "lifetime.checkup").0,
        ),
        metric(
            "runtime.repair_ms",
            "ms",
            telemetry_span_ms(snap, "lifetime.repair_session").0,
        ),
        metric(
            "runtime.repair_success_ratio",
            "ratio",
            ratio(
                counter(snap, "lifetime.repairs.succeeded"),
                counter(snap, "lifetime.events.repair"),
            ),
        ),
        metric(
            "fleet.run_epoch_ms",
            "ms",
            get("fleet.run_epoch").mean_s() * 1e3,
        ),
        metric(
            "fleet.supervision_self_ms",
            "ms",
            telemetry_span_ms(snap, "fleet.epoch").1,
        ),
        metric("store.save_ms", "ms", save.mean_s() * 1e3),
        metric("store.resume_ms", "ms", resume.mean_s() * 1e3),
        metric("store.bytes_written", "bytes", bytes_written as f64),
        metric(
            "store.save_mb_per_s",
            "MB/s",
            ratio(bytes_written as f64 * 1e-6, save.total_s),
        ),
    ]
}

/// Inferences per drill model: enough for a steady per-layer mean.
const DRILL_REPS: usize = 20;

/// A drill metric's name: `reram.layer.lenet5.layer3_us` for the weight
/// `layer3.weight`, `reram.layer.resnet8.layer3.conv1_us` for
/// `layer3.conv1.weight`.
fn drill_name(layer: &str, model: &str, key: &str) -> String {
    format!(
        "{layer}.layer.{model}.{}_us",
        key.strip_suffix(".weight").unwrap_or(key)
    )
}

/// Times every mapped layer of each checkup model on its crossbar replica
/// (`reram.layer.*`) and every matmul of the digital campaign models
/// (`tensor.layer.*`). The replica's logits must equal `AnalogBackend`'s
/// bit for bit; the error names the first model where they do not.
pub fn drill_metrics(seed: u64) -> (Vec<Metric>, Result<(), String>) {
    let mut metrics = Vec::new();
    let mut check = Ok(());
    for dev in reram_drill_devices(seed) {
        let images = dev.detector.patterns().images();
        let (means, logits) = time_layers(&dev.net, images, dev.replica(), DRILL_REPS);
        if !bits_equal(&logits, &dev.backend.infer(images)) && check.is_ok() {
            check = Err(format!(
                "{}: drill logits differ from AnalogBackend",
                dev.model
            ));
        }
        metrics.extend(
            means
                .iter()
                .map(|(key, us)| metric(&drill_name("reram", dev.model, key), "us", *us)),
        );
    }
    for (model, net, images) in tensor_drill_models(seed) {
        let (means, _) = time_layers(&net, &images, DigitalEngine, DRILL_REPS);
        metrics.extend(
            means
                .iter()
                .map(|(key, us)| metric(&drill_name("tensor", model, key), "us", *us)),
        );
    }
    (metrics, check)
}

/// Every metric a traced run reports, with value 0, without running
/// anything.
pub fn per_layer_catalog() -> Vec<Metric> {
    let keys = |model: &str| -> Vec<String> {
        let net = zoo::lookup(model)
            .expect("drill models are in the zoo")
            .build(&mut SeededRng::new(0));
        net.layers()
            .iter()
            .enumerate()
            .flat_map(|(i, layer)| {
                layer
                    .matmuls()
                    .into_iter()
                    .map(move |(name, _)| format!("layer{i}.{name}"))
            })
            .collect()
    };
    let (reram, tensor) = drill_models();
    let mut catalog = round_metrics(&[], &MetricsSnapshot::default(), 0, 0.0);
    for (layer, models) in [("reram", reram), ("tensor", tensor)] {
        for model in models {
            catalog.extend(
                keys(model)
                    .iter()
                    .map(|key| metric(&drill_name(layer, model, key), "us", 0.0)),
            );
        }
    }
    catalog
}
