//! One run: a workload for a fixed measuring time, its outputs checked,
//! and one JSON result line.

use crate::calib::{Sample, REFERENCE_S};
use crate::layers::{drill_metrics, metric, per_layer_catalog, round_metrics, Metric};
use crate::stats::{median, quantile};
use crate::trace::{trace_json, Tracer};
use crate::workloads::{run_round, Round, RoundCtx, Scale, Workload};
use crate::Header;
use healthmon_serdes::Json;
use healthmon_telemetry as tel;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Untraced rounds per run, at least: latencies and set-up time are
/// medians over rounds.
const MIN_ROUNDS: usize = 3;
/// Stop starting rounds past this wall time, well inside the 180 s a run
/// may take.
const WALL_LIMIT_S: f64 = 120.0;

pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub out_dir: PathBuf,
}

/// Simulated-output digests checked in for seed 2020, per scale.
const EXPECTED: &str = include_str!("expected_digests.json");
pub const EXPECTED_SEED: u64 = 2020;

fn expected_digest(workload: Workload, scale: Scale) -> Option<u64> {
    let table = healthmon_serdes::parse(EXPECTED).expect("expected_digests.json is valid JSON");
    let hex = table
        .field(scale.label())
        .ok()?
        .field(workload.name())
        .ok()?
        .as_str()
        .ok()?;
    u64::from_str_radix(hex, 16).ok()
}

/// The process's peak resident set size, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs one round, turning a panic into `None`.
fn guarded_round(workload: Workload, ctx: &RoundCtx) -> Option<Round> {
    catch_unwind(AssertUnwindSafe(|| run_round(workload, ctx))).ok()
}

/// The result line: the last line a run prints.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::Object(vec![
                    ("value".into(), Json::Number(m.value)),
                    ("unit".into(), Json::String(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Number(attempted as f64)),
        ("failed".into(), Json::Number(failed as f64)),
        ("metrics".into(), Json::Object(metrics)),
    ])
    .render()
}

pub fn run(opts: RunOpts, header: &Header) -> ExitCode {
    let workload = opts.workload;
    let (op, unit) = workload.op_and_unit();
    print!("{}", header.render());
    println!(
        "workload: {} ({})",
        workload.name(),
        workload.describe(opts.scale)
    );
    println!("operation: {op}; work unit: {unit}");

    let scratch = opts.out_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("benchmark: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let ctx = |tracer, check| RoundCtx {
        seed: opts.seed,
        scale: opts.scale,
        tracer,
        check,
        scratch: &scratch,
    };

    // Untraced rounds until the run length has passed. The first round
    // also runs the independent check. A smoke run, or a run of 0 seconds,
    // is exactly one round.
    let one_round = opts.scale == Scale::Smoke || opts.seconds <= 0.0;
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut panicked = false;
    loop {
        match guarded_round(workload, &ctx(None, rounds.is_empty())) {
            Some(round) => rounds.push(round),
            None => {
                panicked = true;
                break;
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        let out_of_time = elapsed >= opts.seconds || elapsed >= WALL_LIMIT_S;
        if one_round || (rounds.len() >= MIN_ROUNDS && out_of_time) {
            break;
        }
    }
    let peak_rss = peak_rss_mb();

    let expected = if opts.seed == EXPECTED_SEED {
        expected_digest(workload, opts.scale)
    } else {
        None
    };
    let reference = expected.or(rounds.first().map(|r| r.digest));
    let (mut attempted, mut failed) = (u64::from(panicked), u64::from(panicked));
    for (i, round) in rounds.iter().enumerate() {
        attempted += round.attempted;
        let mut problems = Vec::new();
        if let Err(e) = &round.check {
            problems.push(format!("reference check failed: {e}"));
        }
        if Some(round.digest) != reference {
            problems.push(format!(
                "digest {:016x} differs from {:016x}",
                round.digest,
                reference.unwrap_or(0)
            ));
        }
        if problems.is_empty() {
            failed += round.failed;
        } else {
            failed += round.attempted;
            println!("round {i}: {}", problems.join("; "));
        }
    }
    let digest = rounds.first().map_or(0, |r| r.digest);
    let expected_note = match expected {
        Some(e) if e == digest => " (matches the checked-in value)".to_owned(),
        Some(e) => format!(" (checked-in value {e:016x})"),
        None => String::new(),
    };
    println!("digest: {digest:016x}{expected_note}");

    let metrics = if opts.trace {
        traced_metrics(
            &opts,
            &rounds,
            &ctx(None, false),
            &mut attempted,
            &mut failed,
        )
    } else {
        let probes: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.samples.iter().chain([&r.setup]))
            .map(|s| s.probe_s)
            .collect();
        println!(
            "probe burst: median {:.1} us over {} samples, {:.1} us on the reference host",
            median(&probes) * 1e6,
            probes.len(),
            REFERENCE_S * 1e6
        );
        for m in end_to_end(&rounds, peak_rss, Sample::as_measured) {
            println!("as measured: {:<31} {:>14.4} {}", m.name, m.value, m.unit);
        }
        end_to_end(&rounds, peak_rss, Sample::at_reference)
    };
    let _ = std::fs::remove_dir_all(&scratch);

    println!(
        "rounds: {} in {:.1} s",
        rounds.len(),
        started.elapsed().as_secs_f64()
    );
    for m in &metrics {
        println!("{:<44} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("failed_ratio: {failed}/{attempted} operations");
    let correct = failed == 0 && attempted > 0;
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Each operation of a round, with its latency estimated piece by piece,
/// in seconds as `time` reads a sample. A round times every operation, or
/// every part of one (a fleet epoch, a checkpoint save), as a sample of a
/// class: the same device, model, epoch or leg part, which does the same
/// work in every round. Each sample stands for the median of its class
/// over all the rounds, and an operation's latency is the sum over its
/// samples; see README.md.
fn op_latencies(rounds: &[Round], time: fn(&Sample) -> f64) -> Vec<f64> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    let mut pooled: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for round in rounds {
        for (&class, sample) in round.classes.iter().zip(&round.samples) {
            pooled.entry(class).or_default().push(time(sample));
        }
    }
    let estimate: BTreeMap<usize, f64> = pooled
        .into_iter()
        .map(|(class, samples)| (class, median(&samples)))
        .collect();
    let mut ops = vec![0.0; first.ops.iter().max().map_or(0, |&op| op + 1)];
    for (class, &op) in first.classes.iter().zip(&first.ops) {
        ops[op] += estimate[class];
    }
    ops
}

/// The end-to-end metrics of untraced rounds, with every time read from
/// its sample by `time`. Set-up time is the median over the rounds'
/// set-ups.
pub fn end_to_end(rounds: &[Round], peak_rss_mb: f64, time: fn(&Sample) -> f64) -> Vec<Metric> {
    let latencies = op_latencies(rounds, time);
    let work = rounds.first().map_or(0.0, |r| r.work);
    let setup: Vec<f64> = rounds.iter().map(|r| time(&r.setup)).collect();
    vec![
        metric("op_p50_ms", "ms", median(&latencies) * 1e3),
        metric("op_p90_ms", "ms", quantile(&latencies, 0.9) * 1e3),
        metric("work_per_s", "1/s", work / latencies.iter().sum::<f64>()),
        metric("setup_s", "s", median(&setup)),
        metric("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

/// One traced round with the program's telemetry on, then the layer
/// drills. Writes `trace.json` and returns the per-layer metrics.
fn traced_metrics(
    opts: &RunOpts,
    untraced: &[Round],
    base: &RoundCtx,
    attempted: &mut u64,
    failed: &mut u64,
) -> Vec<Metric> {
    let tracer = Tracer::new();
    tel::reset();
    tel::set_enabled(true);
    let round = guarded_round(
        opts.workload,
        &RoundCtx {
            tracer: Some(&tracer),
            check: true,
            ..*base
        },
    );
    tel::set_enabled(false);
    let snap = tel::snapshot();
    let Some(round) = round else {
        *attempted += 1;
        *failed += 1;
        return Vec::new();
    };
    *attempted += round.attempted;
    if round.check.is_err() || untraced.first().is_some_and(|r| r.digest != round.digest) {
        println!("traced round: outputs differ from the untraced rounds");
        *failed += round.attempted;
    }
    let untraced_busy = median(&untraced.iter().map(Round::busy_s).collect::<Vec<_>>());
    let overhead_pct = (round.busy_s() / untraced_busy - 1.0) * 100.0;
    let spans = tracer.spans();
    let mut measured = round_metrics(&spans, &snap, round.bytes_written, overhead_pct);
    let (drills, drill_check) = drill_metrics(opts.seed);
    if let Err(e) = drill_check {
        println!("drill: {e}");
        *attempted += 1;
        *failed += 1;
    }
    measured.extend(drills);
    // Report exactly the catalogue `BENCHMARK.json` lists; a layer the
    // drill did not reach reads 0.
    let metrics: Vec<Metric> = per_layer_catalog()
        .into_iter()
        .map(|m| {
            measured
                .iter()
                .find(|x| x.name == m.name)
                .cloned()
                .unwrap_or(m)
        })
        .collect();

    let dir = opts.out_dir.join("trace").join(opts.workload.name());
    let extra = vec![
        (
            "workload".to_owned(),
            Json::String(opts.workload.name().into()),
        ),
        ("seed".to_owned(), Json::Number(opts.seed as f64)),
        (
            "telemetry".to_owned(),
            Json::String(tel::render_jsonl(&snap)),
        ),
        (
            "metrics".to_owned(),
            Json::Object(
                metrics
                    .iter()
                    .map(|m| (m.name.clone(), Json::Number(m.value)))
                    .collect(),
            ),
        ),
    ];
    match write_trace(&dir, &trace_json(&spans, extra)) {
        Ok(path) => println!("trace: {} ({} spans)", path.display(), spans.len()),
        Err(e) => eprintln!("benchmark: cannot write trace under {}: {e}", dir.display()),
    }
    metrics
}

fn write_trace(dir: &Path, doc: &Json) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("trace.json");
    std::fs::write(&path, doc.render())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(latencies: &[f64], classes: &[usize], ops: &[usize]) -> Round {
        let sample = |seconds| Sample {
            seconds,
            probe_s: 1.0,
        };
        Round {
            setup: sample(0.0),
            samples: latencies.iter().copied().map(sample).collect(),
            classes: classes.to_vec(),
            ops: ops.to_vec(),
            work: 0.0,
            attempted: 0,
            failed: 0,
            digest: 0,
            check: Ok(()),
            bytes_written: 0,
        }
    }

    /// Every sample gets its class's median over all rounds, so a slow
    /// sample of one operation does not count when other operations of its
    /// class ran fast.
    #[test]
    fn latencies_pool_by_class() {
        let (classes, ops) = ([0, 1, 0], [0, 1, 2]);
        let rounds = vec![
            round(&[1.0, 10.0, 9.0], &classes, &ops),
            round(&[2.0, 30.0, 8.0], &classes, &ops),
            round(&[3.0, 20.0, 7.0], &classes, &ops),
        ];
        // Class 0 pools 1, 9, 2, 8, 3, 7: its median is 5.
        assert_eq!(op_latencies(&rounds, Sample::as_measured), [5.0, 20.0, 5.0]);
        assert!(op_latencies(&[], Sample::as_measured).is_empty());
    }

    /// An operation timed in parts is the sum of its parts' estimates,
    /// each taken from its own class.
    #[test]
    fn operations_sum_their_parts() {
        let (classes, ops) = ([0, 1, 2, 3], [0, 0, 1, 1]);
        let rounds = vec![
            round(&[1.0, 9.0, 3.0, 4.0], &classes, &ops),
            round(&[8.0, 2.0, 5.0, 6.0], &classes, &ops),
            round(&[2.0, 4.0, 4.0, 5.0], &classes, &ops),
        ];
        // The median parts came from different rounds; no round's
        // operation 0 took 6.0.
        assert_eq!(op_latencies(&rounds, Sample::as_measured), [6.0, 9.0]);
    }
}
