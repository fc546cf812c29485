//! Subcommand implementations.

use crate::args::ParsedArgs;
use healthmon::{
    run_mitigation, AetGenerator, AgingModel, AnalogBackend, BackendKind, BackendSpec,
    ChaosConfig, CrossbarConfig, CtpGenerator, Detector, FleetConfig, FleetSupervisor,
    FlightRecord, LifetimeConfig, LifetimeRuntime, MitigationScenario, MonitorPolicy,
    OtpGenerator, SdcCriterion, TestPatternSet, TrainData,
};
use healthmon_data::{DataSplit, Dataset, DatasetSpec, SynthDigits, SynthObjects};
use healthmon_faults::{FaultCampaign, FaultModel};
use healthmon_nn::models::tiny_mlp;
use healthmon_nn::optim::Sgd;
use healthmon_nn::zoo::{self, DataFamily};
use healthmon_nn::trainer::accuracy;
use healthmon_nn::{DropConnect, Network, TrainConfig, Trainer};
use healthmon_tensor::{SeededRng, Tensor};
use healthmon_telemetry as tel;
use std::process::ExitCode;

/// Usage text printed on argument errors.
pub const USAGE: &str = "usage:
  healthmon models   lists every registered architecture (the model zoo)
                     with parameter counts and dataset families; all
                     subcommands accept any listed name as --arch
  healthmon train    --arch <lenet5|convnet7|mlp|resnet8|mlp4|attention> --out <model.json>
                     [--epochs N] [--seed N] [--train-size N] [--quiet true]
                     [--drop-connect P]    P in [0, 1): train with seeded
                     per-step weight dropping (fault-tolerance hardening)
  healthmon inject   --arch <A> --model <model.json> --fault <spec> --out <faulty.json>
                     [--seed N]            spec: pv:<sigma> | soft:<p> | stuck:<sa0>,<sa1> | drift:<nu>,<t>
  healthmon generate --arch <A> --model <model.json> --method <ctp|otp|aet> --out <patterns.json>
                     [--count N] [--seed N]
  healthmon check    --arch <A> --model <golden.json> --target <device.json> --patterns <patterns.json>
                     [--threshold F] [--backend <digital|analog|bitsliced>]
                     [--trace true] [--metrics <out.jsonl>]
                     exit 0 = healthy, 2 = faulty
  healthmon campaign --arch <A> --model <model.json> --fault <spec>
                     [--patterns <patterns.json>] [--count N] [--seed N]
                     [--threshold F] [--backend <digital|analog|bitsliced>]
                     [--trace true] [--metrics <out.jsonl>]
                     [--hardened true --hardened-model <hardened.json>]
                     hardened mode renders the mitigation cost/benefit
                     table (plain vs drop-connect model, plain vs
                     scrubbing lifetime); extra knobs: [--epochs N]
                     [--soft F] [--drift F] [--stuck-lambda F] [--watch F]
                     [--critical F] [--budget N] [--json <table.json>]
  healthmon deploy   --arch <A> --model <model.json>
                     [--seed N] [--probes N] [--backend <analog|bitsliced>]
                     [--trace true] [--metrics <out.jsonl>]
  healthmon accuracy --arch <A> --model <model.json> [--seed N]
  healthmon lifetime --arch <A> --model <model.json>
                     [--epochs N] [--seed N] [--count N] [--patterns <patterns.json>]
                     [--drift F] [--soft F] [--stuck-lambda F]
                     [--watch F] [--critical F] [--budget N] [--train-size N]
                     [--checkpoint <cp.json>] [--stop-after N] [--report <out.txt>]
                     [--backend <digital|analog|bitsliced>] (--checkpoint needs digital)
                     [--hardened true]     enable online soft-error
                     scrubbing (checksum-column parity over the device)
                     [--trace true] [--metrics <out.jsonl>]
                     exit 0 = lifetime completed, 2 = parked in critical
  healthmon fleet    --devices N [--arch <A>] [--epochs N] [--seed N] [--chaos <spec>]
                     [--shards N] [--checkpoint-dir <dir>] [--stop-after N]
                     [--report <out.txt>] [--budget N] [--retry N]
                     [--deadline MS] [--quarantine N] [--drift F] [--soft F]
                     [--bench true] [--trace true] [--metrics <out.jsonl>]
                     [--flight-dir <dir>]  dump a digest-guarded postmortem
                     artifact incident-<device>-<epoch>.json per incident,
                     quarantine or poisoned checkup (see `healthmon flight`)
                     [--serve-metrics <addr>]  serve live Prometheus text
                     on http://<addr>/metrics for the duration of the run
                     [--snapshot-log <log.jsonl>]  rotating multi-snapshot
                     stream, one frame per fleet epoch (see `healthmon top`)
                     supervises N independently-seeded device lifetimes
                     with panic isolation, retry/backoff, quarantine and
                     sharded crash-safe checkpoints; --arch swaps the
                     fleet's golden device for a zoo model (default: a
                     tiny seed-derived synthetic MLP); chaos spec:
                     panic:P,stall:P,stallms:N,trunc:P,flip:P,poison:P,seed:N
                     (or `off`); --bench adds a devices/sec line;
                     exit 0 = fleet completed, 2 = any device quarantined
  healthmon metrics  --file <metrics.jsonl> [--stable-only true] [--format <summary|jsonl|prometheus>]
                     [--last N] [--device I]
                     validates a telemetry dump or --snapshot-log stream;
                     --stable-only keeps only thread-count-invariant
                     series (for byte comparison), --last keeps the newest
                     N stream frames, --device keeps only events
                     mentioning device I
  healthmon top      --file <log.jsonl> [--watch true] [--refresh-ms N]
                     fleet health table from a --snapshot-log stream:
                     state histogram, incident tallies, per-phase checkup
                     latency quantiles; --watch refreshes in place
  healthmon flight   --file <incident.json>
                     digest-verifies and summarizes a flight-recorder
                     postmortem artifact written via --flight-dir

  Setting HEALTHMON_TRACE=1 enables telemetry recording for check,
  campaign, deploy and lifetime without any flags; the span/metric report
  goes to stderr, so stdout stays byte-identical to a telemetry-off run.";

/// Dispatches a parsed command line. Returns the process exit code.
pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let args = ParsedArgs::parse(argv)?;
    match args.command.as_str() {
        "train" => cmd_train(&args),
        "inject" => cmd_inject(&args),
        "generate" => cmd_generate(&args),
        "check" => cmd_check(&args),
        "campaign" => cmd_campaign(&args),
        "deploy" => cmd_deploy(&args),
        "accuracy" => cmd_accuracy(&args),
        "lifetime" => cmd_lifetime(&args),
        "fleet" => cmd_fleet(&args),
        "metrics" => cmd_metrics(&args),
        "top" => cmd_top(&args),
        "flight" => cmd_flight(&args),
        "models" => cmd_models(&args),
        "help" | "--help" | "-h" => {
            outln!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// Architectures the CLI can build, resolved through the model registry
/// ([`healthmon_nn::zoo`]); the dataset family is carried by each spec.
/// A typo returns an error enumerating every known model.
fn build_arch(arch: &str, rng: &mut SeededRng) -> Result<Network, String> {
    Ok(zoo::lookup(arch).map_err(|e| e.to_string())?.build(rng))
}

fn dataset_for(arch: &str, seed: u64, train_size: usize) -> Result<DataSplit, String> {
    let model = zoo::lookup(arch).map_err(|e| e.to_string())?;
    let spec = DatasetSpec { train: train_size, test: train_size / 4, seed, noise: 0.12 };
    let mut split = match model.family {
        DataFamily::Digits => SynthDigits::new(spec).generate(),
        DataFamily::Objects => SynthObjects::new(spec).generate(),
    };
    // Reshape samples to the model's native input layout when it differs
    // from the family's image layout (same element budget, e.g. [784] for
    // MLPs or [28, 28] token rows for the attention block).
    if split.train.sample_shape() != model.input_shape {
        let reshaped = |d: &Dataset| {
            let mut shape = vec![d.len()];
            shape.extend_from_slice(model.input_shape);
            Dataset::new(
                d.images.reshape(&shape).expect("family element budget matches input shape"),
                d.labels.clone(),
                d.num_classes,
            )
        };
        split = DataSplit { train: reshaped(&split.train), test: reshaped(&split.test) };
    }
    Ok(split)
}

fn load_model(arch: &str, path: &str, seed: u64) -> Result<Network, String> {
    let mut rng = SeededRng::new(seed);
    let mut net = build_arch(arch, &mut rng)?;
    net.load_weights(path)
        .map_err(|e| format!("loading `{path}`: {e}"))?;
    Ok(net)
}

/// Reads a pattern file and checks that its samples fit `arch`'s input.
fn load_patterns(path: &str, arch: &str) -> Result<TestPatternSet, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))?;
    let images: Tensor =
        healthmon_serdes::from_str(&json).map_err(|e| format!("parsing `{path}`: {e}"))?;
    let expected = zoo::lookup(arch).map_err(|e| e.to_string())?.input_shape;
    let sample = images.shape().get(1..).unwrap_or_default();
    if sample != expected {
        return Err(format!(
            "`{path}` holds samples of shape {sample:?}, but `{arch}` takes samples of shape \
             {expected:?}"
        ));
    }
    Ok(TestPatternSet::new("file", images))
}

/// Parses a fault spec like `pv:0.3`, `soft:0.01`, `stuck:0.02,0.01`,
/// `drift:0.1,2.0`.
fn parse_fault(spec: &str) -> Result<FaultModel, String> {
    let (kind, rest) = spec
        .split_once(':')
        .ok_or_else(|| format!("fault spec `{spec}` must look like kind:params"))?;
    let nums: Vec<f64> = rest
        .split(',')
        .map(|p| p.parse().map_err(|_| format!("bad number `{p}` in fault spec")))
        .collect::<Result<_, _>>()?;
    match (kind, nums.as_slice()) {
        ("pv", [sigma]) => Ok(FaultModel::ProgrammingVariation { sigma: *sigma as f32 }),
        ("soft", [p]) => Ok(FaultModel::RandomSoftError { probability: *p }),
        ("stuck", [sa0, sa1]) => Ok(FaultModel::StuckAt { sa0: *sa0, sa1: *sa1 }),
        ("drift", [nu, t]) => Ok(FaultModel::Drift { nu: *nu as f32, time: *t as f32 }),
        _ => Err(format!(
            "unknown fault `{spec}` (pv:<sigma> | soft:<p> | stuck:<sa0>,<sa1> | drift:<nu>,<t>)"
        )),
    }
}

/// Resolves the telemetry switches shared by the instrumented
/// subcommands: recording turns on when `--trace true` or `--metrics` is
/// given, and otherwise follows the `HEALTHMON_TRACE` environment
/// variable. Returns the `--metrics` output path, if any.
fn telemetry_setup(args: &ParsedArgs) -> Result<Option<String>, String> {
    let trace: bool = args.get_or("trace", false)?;
    let metrics = args.get("metrics").map(str::to_owned);
    if trace || metrics.is_some() {
        tel::set_enabled(true);
    } else {
        tel::init_from_env();
    }
    Ok(metrics)
}

/// Flushes telemetry at the end of an instrumented subcommand: writes
/// the JSON-lines dump to the `--metrics` path when given, and prints
/// the human-readable report to *stderr* — stdout stays byte-identical
/// to a telemetry-off run.
fn telemetry_finish(metrics: Option<&str>) -> Result<(), String> {
    if !tel::enabled() {
        return Ok(());
    }
    let snapshot = tel::snapshot();
    if let Some(path) = metrics {
        std::fs::write(path, tel::render_jsonl(&snapshot))
            .map_err(|e| format!("writing `{path}`: {e}"))?;
    }
    err!("{}", tel::render_report(&snapshot));
    Ok(())
}

/// Resolves `--backend` into a full [`BackendSpec`] (default geometry;
/// bit-sliced backends get 8-bit weights over the default 4-bit cells).
fn parse_backend(args: &ParsedArgs) -> Result<BackendSpec, String> {
    let kind: BackendKind = match args.get("backend") {
        Some(name) => name.parse()?,
        None => BackendKind::Digital,
    };
    Ok(match kind {
        BackendKind::Digital => BackendSpec::digital(),
        BackendKind::Analog => BackendSpec::analog(CrossbarConfig::default()),
        BackendKind::BitSliced => BackendSpec::bitsliced(CrossbarConfig::default(), 8),
    })
}

/// `--count` (patterns to generate, or fault models to campaign over),
/// which must be at least 1: a rate over no models measures nothing.
fn count_flag(args: &ParsedArgs, default: usize) -> Result<usize, String> {
    match args.get_or("count", default)? {
        0 => Err("--count must be at least 1".to_owned()),
        count => Ok(count),
    }
}

fn cmd_train(args: &ParsedArgs) -> Result<ExitCode, String> {
    args.expect_only(&["arch", "out", "epochs", "seed", "train-size", "quiet", "drop-connect"])?;
    let arch = args.required("arch")?;
    let out = args.required("out")?;
    let epochs: usize = args.get_or("epochs", 4)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let train_size: usize = args.get_or("train-size", 2000)?;
    let quiet: bool = args.get_or("quiet", false)?;
    let drop_connect: f32 = args.get_or("drop-connect", 0.0)?;
    if !(0.0..1.0).contains(&drop_connect) {
        return Err(format!("--drop-connect {drop_connect} outside [0, 1)"));
    }

    let split = dataset_for(arch, seed, train_size)?;
    let mut rng = SeededRng::new(seed);
    let mut net = build_arch(arch, &mut rng)?;
    let hardening = if drop_connect > 0.0 {
        Some(DropConnect::new(drop_connect).seeded(seed))
    } else {
        None
    };
    let config = TrainConfig {
        epochs,
        batch_size: 32,
        verbose: !quiet,
        drop_connect: hardening,
        ..TrainConfig::default()
    };
    let report = Trainer::new(&mut net, Sgd::new(0.05).momentum(0.9), config).fit(
        &split.train.images,
        &split.train.labels,
        Some((&split.test.images, &split.test.labels)),
    );
    net.save_weights(out).map_err(|e| format!("writing `{out}`: {e}"))?;
    outln!(
        "trained {arch}: test accuracy {:.2}%, saved to {out}",
        report.test_accuracy.expect("test set provided") * 100.0
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_inject(args: &ParsedArgs) -> Result<ExitCode, String> {
    args.expect_only(&["arch", "model", "fault", "out", "seed"])?;
    let arch = args.required("arch")?;
    let model = args.required("model")?;
    let fault = parse_fault(args.required("fault")?)?;
    let out = args.required("out")?;
    let seed: u64 = args.get_or("seed", 2020)?;

    let net = load_model(arch, model, seed)?;
    let faulty = FaultCampaign::new(&net, seed).model(&fault, 0);
    faulty.save_weights(out).map_err(|e| format!("writing `{out}`: {e}"))?;
    outln!("injected {} into {model}, saved to {out}", fault.describe());
    Ok(ExitCode::SUCCESS)
}

fn cmd_generate(args: &ParsedArgs) -> Result<ExitCode, String> {
    args.expect_only(&["arch", "model", "method", "out", "count", "seed"])?;
    let arch = args.required("arch")?;
    let model = args.required("model")?;
    let method = args.required("method")?;
    let out = args.required("out")?;
    let count = count_flag(args, 50)?;
    let seed: u64 = args.get_or("seed", 777)?;

    let mut net = load_model(arch, model, seed)?;
    let mut rng = SeededRng::new(seed);
    let pool = dataset_for(arch, seed ^ 0xC1D, count.max(50) * 20)?.test;
    let set = match method {
        "ctp" => CtpGenerator::new(count).select(&mut net, &pool),
        "aet" => AetGenerator::new(count, 0.15).generate(&mut net, &pool, &mut rng),
        "otp" => {
            let reference = FaultCampaign::new(&net, seed)
                .model(&FaultModel::ProgrammingVariation { sigma: 0.3 }, 0);
            let classes = pool.num_classes;
            let per_class = count.div_ceil(classes).max(1);
            let (set, outcomes) = OtpGenerator::new()
                .per_class(per_class)
                .generate(&net, &reference, &mut rng);
            errln!(
                "O-TP: {}/{} patterns fully converged",
                outcomes.iter().filter(|o| o.converged).count(),
                outcomes.len()
            );
            set
        }
        other => return Err(format!("unknown method `{other}` (ctp|otp|aet)")),
    };
    let json = healthmon_serdes::to_string(set.images());
    std::fs::write(out, json).map_err(|e| format!("writing `{out}`: {e}"))?;
    outln!("generated {} {} patterns, saved to {out}", set.len(), set.method());
    Ok(ExitCode::SUCCESS)
}

fn cmd_check(args: &ParsedArgs) -> Result<ExitCode, String> {
    args.expect_only(&[
        "arch", "model", "target", "patterns", "threshold", "seed", "backend", "trace", "metrics",
    ])?;
    let metrics = telemetry_setup(args)?;
    let arch = args.required("arch")?;
    let model = args.required("model")?;
    let target = args.required("target")?;
    let patterns = load_patterns(args.required("patterns")?, arch)?;
    let threshold: f32 = args.get_or("threshold", 0.03)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let spec = parse_backend(args)?;

    let golden = load_model(arch, model, seed)?;
    let device = load_model(arch, target, seed)?;
    let detector = Detector::new(&golden, patterns);
    let mut backend_rng = SeededRng::new(seed).fork(1);
    let backend = spec.instantiate(&device, &mut backend_rng);
    if spec.kind != BackendKind::Digital {
        outln!("backend: {}", spec.kind.label());
    }
    let distance = detector.confidence_distance(&backend);
    let faulty = detector.is_faulty(&backend, SdcCriterion::SdcA { threshold });
    outln!(
        "confidence distance: all-class {:.4}, top-ranked {:.4} (threshold {threshold})",
        distance.all_classes, distance.top_ranked
    );
    let code = if faulty {
        outln!("verdict: FAULTY");
        ExitCode::from(2)
    } else {
        outln!("verdict: healthy");
        ExitCode::SUCCESS
    };
    telemetry_finish(metrics.as_deref())?;
    Ok(code)
}

/// Runs a statistical fault-injection campaign and prints the detection
/// rates, with responses evaluated on the chosen execution backend (the
/// digital path is byte-identical to `Detector::detection_rates`).
fn cmd_campaign(args: &ParsedArgs) -> Result<ExitCode, String> {
    if args.get_or("hardened", false)? {
        return cmd_campaign_mitigation(args);
    }
    args.expect_only(&[
        "arch", "model", "patterns", "fault", "count", "seed", "threshold", "backend", "trace",
        "metrics", "hardened",
    ])?;
    let metrics = telemetry_setup(args)?;
    let arch = args.required("arch")?;
    let model = args.required("model")?;
    let fault = parse_fault(args.required("fault")?)?;
    let count = count_flag(args, 32)?;
    let seed: u64 = args.get_or("seed", 2020)?;
    let threshold: f32 = args.get_or("threshold", 0.03)?;
    let spec = parse_backend(args)?;

    let mut golden = load_model(arch, model, seed)?;
    let patterns = match args.get("patterns") {
        Some(path) => load_patterns(path, arch)?,
        None => {
            let pool = dataset_for(arch, seed ^ 0xC1D, 1000)?.test;
            CtpGenerator::new(10).select(&mut golden, &pool)
        }
    };
    let detector = Detector::new(&golden, patterns);
    let criteria = [
        SdcCriterion::SdcA { threshold },
        SdcCriterion::SdcT { threshold },
    ];
    let rates = detector.detection_rates_with(&golden, &fault, count, seed, &criteria, &spec);
    outln!("backend: {}", spec.kind.label());
    outln!("fault: {}", fault.describe());
    outln!("campaign: {count} faulty models, {} patterns", detector.patterns().len());
    outln!("detection rate SDC-A (threshold {threshold}): {:.4}", rates[0]);
    outln!("detection rate SDC-T (threshold {threshold}): {:.4}", rates[1]);
    telemetry_finish(metrics.as_deref())?;
    Ok(ExitCode::SUCCESS)
}

/// `campaign --hardened true`: renders the mitigation cost/benefit
/// table — detection rate and accuracy of the plain vs the
/// drop-connect-hardened model under the fault class, then plain vs
/// scrubbing lifetimes under the identical aging stream (accuracy
/// retained, repairs avoided, pattern budget saved). `--json` writes
/// the same report as a deterministic JSON artifact.
fn cmd_campaign_mitigation(args: &ParsedArgs) -> Result<ExitCode, String> {
    args.expect_only(&[
        "arch",
        "model",
        "hardened",
        "hardened-model",
        "patterns",
        "fault",
        "count",
        "seed",
        "threshold",
        "backend",
        "epochs",
        "soft",
        "drift",
        "stuck-lambda",
        "watch",
        "critical",
        "budget",
        "json",
        "trace",
        "metrics",
    ])?;
    let metrics = telemetry_setup(args)?;
    let arch = args.required("arch")?;
    let model = args.required("model")?;
    let hardened_model = args.required("hardened-model")?;
    let fault = parse_fault(args.required("fault")?)?;
    let count = count_flag(args, 8)?;
    let seed: u64 = args.get_or("seed", 2020)?;
    let threshold: f32 = args.get_or("threshold", 0.03)?;
    let epochs: usize = args.get_or("epochs", 6)?;
    let soft: f64 = args.get_or("soft", 8e-5)?;
    let drift: f32 = args.get_or("drift", 0.0)?;
    let stuck_lambda: f64 = args.get_or("stuck-lambda", 0.0)?;
    let watch: f32 = args.get_or("watch", 1e-6)?;
    let critical: f32 = args.get_or("critical", 1e-3)?;
    let budget: usize = args.get_or("budget", 3)?;
    let spec = parse_backend(args)?;
    let lifetime = LifetimeConfig {
        seed,
        epochs,
        aging: AgingModel { drift_nu: drift, drift_time: 1.0, soft_error_p: soft, stuck_lambda },
        policy: MonitorPolicy {
            watch_threshold: watch,
            critical_threshold: critical,
            escalation_count: 1,
        },
        // The scrub path restores flipped cells bitwise only when the
        // digital deploy is exact; keep the demonstration free of
        // quantization-floor escalations.
        crossbar: CrossbarConfig::exact(),
        backend: spec,
        repair_budget: budget,
        ..LifetimeConfig::default()
    };
    // Checked before anything is loaded or built.
    lifetime.validate().map_err(|e| e.to_string())?;

    let mut plain = load_model(arch, model, seed)?;
    let hardened = load_model(arch, hardened_model, seed)?;
    let patterns = match args.get("patterns") {
        Some(path) => load_patterns(path, arch)?,
        None => {
            let pool = dataset_for(arch, seed ^ 0xC1D, 1000)?.test;
            CtpGenerator::new(10).select(&mut plain, &pool)
        }
    };
    lifetime.check_pattern_floor(patterns.len()).map_err(|e| e.to_string())?;
    let eval_split = dataset_for(arch, seed ^ 0xE7A, 640)?;
    let eval = TrainData { images: eval_split.test.images, labels: eval_split.test.labels };

    let scenario = MitigationScenario {
        seed,
        count,
        threshold,
        faults: vec![fault.clone()],
        backends: vec![spec],
        lifetime,
    };
    let report = run_mitigation(&plain, &hardened, &patterns, &eval, &scenario);
    outln!("backend: {}", spec.kind.label());
    outln!("fault: {}", fault.describe());
    outln!(
        "mitigation analysis: {count} faulty models, {} patterns, {epochs} lifetime epochs",
        patterns.len()
    );
    out!("{}", report.render());
    if let Some(path) = args.get("json") {
        std::fs::write(path, healthmon_serdes::to_string(&report))
            .map_err(|e| format!("writing `{path}`: {e}"))?;
    }
    telemetry_finish(metrics.as_deref())?;
    Ok(ExitCode::SUCCESS)
}

/// Programs the model onto an analog backend and prints the deployment
/// profile: per-layer tiles, area utilization, ADC range usage, mapping
/// error, and the digital-vs-analog logit divergence over a probe batch.
fn cmd_deploy(args: &ParsedArgs) -> Result<ExitCode, String> {
    args.expect_only(&["arch", "model", "seed", "probes", "backend", "trace", "metrics"])?;
    let metrics = telemetry_setup(args)?;
    let arch = args.required("arch")?;
    let model = args.required("model")?;
    let seed: u64 = args.get_or("seed", 2020)?;
    let probes: usize = args.get_or("probes", 16)?;
    if probes == 0 {
        return Err("--probes must be positive".to_owned());
    }
    let spec = match args.get("backend") {
        None => BackendSpec::analog(CrossbarConfig::default()),
        Some(_) => {
            let spec = parse_backend(args)?;
            if spec.kind == BackendKind::Digital {
                return Err(
                    "deploy profiles analog execution; pick --backend analog or bitsliced"
                        .to_owned(),
                );
            }
            spec
        }
    };

    let golden = load_model(arch, model, seed)?;
    let pool = dataset_for(arch, seed ^ 0xD3B, probes.max(50) * 4)?.test;
    let probe = TestPatternSet::new("probe", pool.images.clone())
        .truncated(probes.min(pool.len()))
        .images()
        .clone();
    let mut backend_rng = SeededRng::new(seed).fork(0);
    let report = AnalogBackend::program(&golden, &spec, &mut backend_rng).deploy_report(&probe);
    outln!("backend: {}", spec.kind.label());
    for m in &report.mappings {
        outln!(
            "  {}: {}x{}, {} tiles, utilization {:.1}%, adc range {:.1}%, error l1 {:.4}",
            m.key,
            m.shape.0,
            m.shape.1,
            m.tiles,
            m.utilization * 100.0,
            m.adc_range_used * 100.0,
            m.mapping_error_l1
        );
    }
    outln!("total tiles: {}", report.total_tiles());
    outln!("total mapping error l1: {:.4}", report.total_error_l1());
    match report.logit_divergence {
        Some(d) => outln!("logit divergence vs digital ({probes} probes): {d:.6}"),
        None => outln!("logit divergence vs digital: not profiled"),
    }
    telemetry_finish(metrics.as_deref())?;
    Ok(ExitCode::SUCCESS)
}

/// Simulates a deployed accelerator's lifetime: aging epochs interleaved
/// with concurrent checkups, autonomous diagnosis/repair on escalation,
/// and an incident report if the repair budget runs out.
///
/// With `--checkpoint`, the run resumes from the file when it exists and
/// rewrites it after every invocation, so an interrupted lifetime can be
/// continued bit-identically (`--stop-after` bounds the epochs per
/// invocation). The final report is printed on completion and also
/// written to `--report` when given.
fn cmd_lifetime(args: &ParsedArgs) -> Result<ExitCode, String> {
    args.expect_only(&[
        "arch",
        "model",
        "epochs",
        "seed",
        "count",
        "patterns",
        "drift",
        "soft",
        "stuck-lambda",
        "watch",
        "critical",
        "budget",
        "train-size",
        "checkpoint",
        "stop-after",
        "report",
        "backend",
        "hardened",
        "trace",
        "metrics",
    ])?;
    let metrics = telemetry_setup(args)?;
    let arch = args.required("arch")?;
    let model = args.required("model")?;
    let epochs: usize = args.get_or("epochs", 12)?;
    let seed: u64 = args.get_or("seed", 2020)?;
    let count: usize = args.get_or("count", 10)?;
    let drift: f32 = args.get_or("drift", 0.05)?;
    let soft: f64 = args.get_or("soft", 0.0)?;
    let stuck_lambda: f64 = args.get_or("stuck-lambda", 1.0)?;
    let watch: f32 = args.get_or("watch", 0.02)?;
    let critical: f32 = args.get_or("critical", 0.06)?;
    let budget: usize = args.get_or("budget", 8)?;
    let train_size: usize = args.get_or("train-size", 0)?;
    let stop_after: usize = args.get_or("stop-after", 0)?;
    let hardened: bool = args.get_or("hardened", false)?;
    let backend = parse_backend(args)?;
    if backend.kind != BackendKind::Digital && args.get("checkpoint").is_some() {
        return Err(format!(
            "--checkpoint requires the digital backend: `{}` lifetimes keep live \
             conductance state that checkpoints cannot capture",
            backend.kind.label()
        ));
    }
    let config = LifetimeConfig {
        seed,
        epochs,
        aging: AgingModel {
            drift_nu: drift,
            drift_time: 1.0,
            soft_error_p: soft,
            stuck_lambda,
        },
        policy: MonitorPolicy {
            watch_threshold: watch,
            critical_threshold: critical,
            escalation_count: 1,
        },
        repair_budget: budget,
        backend,
        hardened,
        ..LifetimeConfig::default()
    };
    // Every flag is checked before anything is loaded or built: C-TP will
    // select `count` patterns, and a pattern file is checked once read.
    config.validate().map_err(|e| e.to_string())?;
    if args.get("patterns").is_none() {
        config.check_pattern_floor(count).map_err(|e| e.to_string())?;
    }

    let mut golden = load_model(arch, model, seed)?;
    // The pattern set must be identical across resumes: either a fixed
    // file, or C-TP selection — a pure function of (model, arch, seed).
    let patterns = match args.get("patterns") {
        Some(path) => load_patterns(path, arch)?,
        None => {
            let pool = dataset_for(arch, seed ^ 0xC1D, count.max(50) * 20)?.test;
            CtpGenerator::new(count).select(&mut golden, &pool)
        }
    };
    config.check_pattern_floor(patterns.len()).map_err(|e| e.to_string())?;
    let train = if train_size > 0 {
        let split = dataset_for(arch, seed, train_size)?;
        Some(TrainData { images: split.train.images, labels: split.train.labels })
    } else {
        None
    };

    let checkpoint_path = args.get("checkpoint");
    let mut runtime = match checkpoint_path {
        Some(path) if std::path::Path::new(path).exists() => {
            // A truncated or bit-rotted file surfaces as
            // CheckpointCorrupt naming the path, not a bare parse error.
            let json = healthmon::store::read_checkpoint(path).map_err(|e| e.to_string())?;
            let runtime = LifetimeRuntime::resume(&golden, patterns, config, train, &json)
                .map_err(|e| format!("resuming: {}", healthmon::store::mark_corrupt(path, e)))?;
            errln!("resumed from {path} at epoch {}", runtime.epoch());
            runtime
        }
        _ => LifetimeRuntime::new(&golden, patterns, config, train),
    };

    runtime.run(if stop_after > 0 { Some(stop_after) } else { None });

    if let Some(path) = checkpoint_path {
        // Atomic replace: a kill mid-write leaves the previous complete
        // checkpoint instead of a torn file.
        healthmon::store::write_atomic(path, runtime.checkpoint_json().as_bytes())
            .map_err(|e| format!("writing `{path}`: {e}"))?;
    }
    if !runtime.is_finished() {
        outln!(
            "checkpointed at epoch {}/{} (state: {})",
            runtime.epoch(),
            runtime.config().epochs,
            runtime.state().label()
        );
        telemetry_finish(metrics.as_deref())?;
        return Ok(ExitCode::SUCCESS);
    }
    let report = runtime.render_report();
    out!("{report}");
    if let Some(path) = args.get("report") {
        std::fs::write(path, &report).map_err(|e| format!("writing `{path}`: {e}"))?;
    }
    telemetry_finish(metrics.as_deref())?;
    if runtime.is_parked() {
        Ok(ExitCode::from(2))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// Supervises a fleet of independently-seeded device lifetimes: panic
/// isolation, retry/backoff, deadlines, quarantine, budget shedding and
/// sharded crash-safe checkpoints, with an optional seeded chaos layer
/// (see `ChaosConfig`) injecting faults into the monitor itself.
///
/// The fleet is self-contained: a small seeded model and pattern set are
/// derived from `--seed`, so determinism claims (`--chaos off` runs are
/// byte-identical at any `HEALTHMON_THREADS`) need no input files. With
/// `--checkpoint-dir`, the run resumes from existing shards (damaged
/// shards are reported and their devices restart fresh) and rewrites the
/// shards after every invocation; `--stop-after` bounds the fleet epochs
/// per invocation. `--bench true` appends a wall-clock devices/sec line
/// for the load-generator smoke.
/// Frames retained in a rotating `--snapshot-log` stream.
const SNAPSHOT_STREAM_FRAMES: usize = 16;

/// Appends one frame to the rotating snapshot stream and atomically
/// rewrites the log file with the retained tail, so a reader (or a crash)
/// never sees a torn stream.
fn write_snapshot_frame(
    fleet: &FleetSupervisor,
    log: &str,
    stream: &mut std::collections::VecDeque<String>,
) -> Result<(), String> {
    let (healthy, watch, critical) = fleet.state_histogram();
    let frame = tel::SnapshotFrame {
        seq: fleet.fleet_epoch() as u64,
        label: "fleet".to_owned(),
        epoch: fleet.fleet_epoch() as u64,
        // Sorted by name, per the SnapshotFrame contract.
        meta: vec![
            ("critical".to_owned(), critical as f64),
            ("damaged_shards".to_owned(), fleet.damaged_shards().len() as f64),
            ("device_epochs".to_owned(), fleet.total_device_epochs() as f64),
            ("devices".to_owned(), fleet.config().devices as f64),
            ("healthy".to_owned(), healthy as f64),
            ("incidents".to_owned(), fleet.incidents().len() as f64),
            ("quarantined".to_owned(), fleet.quarantined().len() as f64),
            ("watch".to_owned(), watch as f64),
        ],
        snap: tel::snapshot(),
    };
    stream.push_back(tel::render_frame(&frame));
    while stream.len() > SNAPSHOT_STREAM_FRAMES {
        stream.pop_front();
    }
    let text: String = stream.iter().flat_map(|s| s.chars()).collect();
    healthmon::store::write_atomic(std::path::Path::new(log), text.as_bytes())
        .map_err(|e| format!("writing snapshot log `{log}`: {e}"))
}

fn cmd_fleet(args: &ParsedArgs) -> Result<ExitCode, String> {
    args.expect_only(&[
        "devices",
        "arch",
        "epochs",
        "seed",
        "chaos",
        "shards",
        "checkpoint-dir",
        "stop-after",
        "report",
        "budget",
        "retry",
        "deadline",
        "quarantine",
        "drift",
        "soft",
        "bench",
        "trace",
        "metrics",
        "flight-dir",
        "serve-metrics",
        "snapshot-log",
    ])?;
    let metrics = telemetry_setup(args)?;
    // Live observability paths need the registry recording even when
    // neither --trace nor --metrics asked for it.
    let snapshot_log = args.get("snapshot-log").map(str::to_owned);
    let serve = args.get("serve-metrics");
    if snapshot_log.is_some() || serve.is_some() {
        tel::set_enabled(true);
    }
    let _server = match serve {
        Some(addr) => {
            let server = tel::MetricsServer::start(addr)
                .map_err(|e| format!("binding metrics server on `{addr}`: {e}"))?;
            // Stderr, like the telemetry report: stdout stays
            // byte-identical to an unobserved run.
            errln!("serving Prometheus metrics on http://{}/metrics", server.local_addr());
            Some(server)
        }
        None => None,
    };
    let devices: usize = args.required("devices")?.parse().map_err(|_| {
        "--devices must be a positive integer".to_owned()
    })?;
    let epochs: usize = args.get_or("epochs", 8)?;
    let seed: u64 = args.get_or("seed", 2020)?;
    let shards: usize = args.get_or("shards", 4)?;
    let stop_after: usize = args.get_or("stop-after", 0)?;
    let budget: usize = args.get_or("budget", 0)?;
    let retry: usize = args.get_or("retry", 3)?;
    let deadline: u64 = args.get_or("deadline", 200)?;
    let quarantine: usize = args.get_or("quarantine", 2)?;
    let drift: f32 = args.get_or("drift", 0.05)?;
    let soft: f64 = args.get_or("soft", 0.0)?;
    let bench: bool = args.get_or("bench", false)?;
    let chaos = ChaosConfig::parse(args.get("chaos").unwrap_or("off"))?;
    if chaos.is_active() {
        // Injected checkup panics are caught by the supervisor and become
        // incidents in the report; keep the default hook from spraying a
        // backtrace per attempt. Genuine panics still print.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|msg| msg.starts_with("chaos:"));
            if !injected {
                prev(info);
            }
        }));
    }

    // Self-contained fleet: model and patterns are pure functions of the
    // seed, so no input artifacts are needed and every invocation with
    // the same flags sees the same golden device. `--arch` swaps in a zoo
    // model; the default stays the tiny synthetic MLP so existing runs
    // (and their golden outputs) are untouched.
    let mut rng = SeededRng::new(seed ^ 0xF1EE7);
    let (golden, patterns) = match args.get("arch") {
        Some(arch) => {
            let spec = zoo::lookup(arch).map_err(|e| e.to_string())?;
            let golden = spec.build(&mut rng);
            let mut probe_shape = vec![8usize];
            probe_shape.extend_from_slice(spec.input_shape);
            let patterns =
                TestPatternSet::new("fleet-synth", Tensor::randn(&probe_shape, &mut rng));
            (golden, patterns)
        }
        None => {
            let golden = tiny_mlp(16, 24, 6, &mut rng);
            let patterns = TestPatternSet::new("fleet-synth", Tensor::randn(&[8, 16], &mut rng));
            (golden, patterns)
        }
    };

    let config = FleetConfig {
        seed,
        devices,
        device: LifetimeConfig {
            epochs,
            aging: AgingModel {
                drift_nu: drift,
                drift_time: 1.0,
                soft_error_p: soft,
                ..AgingModel::default()
            },
            ..LifetimeConfig::default()
        },
        retry_limit: retry,
        deadline_ms: deadline,
        quarantine_threshold: quarantine,
        budget,
        shards,
        chaos,
        ..FleetConfig::default()
    };

    let dir = args.get("checkpoint-dir");
    let mut fleet = match dir {
        Some(dir) if std::path::Path::new(dir).join("shard-000.json").exists() => {
            let fleet = FleetSupervisor::resume(&golden, patterns, config, dir)
                .map_err(|e| format!("resuming fleet from `{dir}`: {e}"))?;
            errln!(
                "resumed fleet from {dir} at epoch {} ({} damaged shards)",
                fleet.fleet_epoch(),
                fleet.damaged_shards().len()
            );
            fleet
        }
        _ => FleetSupervisor::new(&golden, patterns, config).map_err(|e| e.to_string())?,
    };
    if let Some(flight_dir) = args.get("flight-dir") {
        std::fs::create_dir_all(flight_dir)
            .map_err(|e| format!("creating flight dir `{flight_dir}`: {e}"))?;
        fleet.set_flight_dir(flight_dir);
    }

    let t0 = std::time::Instant::now();
    let before_epochs = fleet.total_device_epochs();
    match &snapshot_log {
        None => fleet.run(if stop_after > 0 { Some(stop_after) } else { None }),
        Some(log) => {
            // Epoch-by-epoch so the rotating snapshot stream can record a
            // frame after every fleet epoch. `run(Some(1))` preserves the
            // supervisor's own termination rules (done / epoch bound):
            // when it makes no progress, the run is over.
            let mut stream: std::collections::VecDeque<String> = std::collections::VecDeque::new();
            let mut remaining = if stop_after > 0 { stop_after } else { usize::MAX };
            while remaining > 0 {
                let before = fleet.fleet_epoch();
                fleet.run(Some(1));
                if fleet.fleet_epoch() == before {
                    break;
                }
                remaining -= 1;
                write_snapshot_frame(&fleet, log, &mut stream)?;
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();

    if let Some(dir) = dir {
        fleet.save_checkpoint(dir).map_err(|e| format!("checkpointing to `{dir}`: {e}"))?;
    }
    let report = fleet.render_report();
    out!("{report}");
    if let Some(path) = args.get("report") {
        std::fs::write(path, &report).map_err(|e| format!("writing `{path}`: {e}"))?;
    }
    if bench {
        // Wall-clock line, deliberately outside the deterministic report.
        let done = fleet.total_device_epochs() - before_epochs;
        outln!(
            "throughput: {:.1} device-epochs/sec ({done} device-epochs in {elapsed:.3}s)",
            done as f64 / elapsed.max(1e-9)
        );
    }
    telemetry_finish(metrics.as_deref())?;
    if fleet.quarantined().is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(2))
    }
}

/// Validates a telemetry JSONL dump produced with `--metrics` or a
/// multi-snapshot stream produced with `--snapshot-log`: parses every
/// line, then prints a summary, the filtered JSONL, or a
/// Prometheus-style exposition (of the most recent frame). `--last N`
/// keeps only the newest N frames of a stream; `--device I` keeps only
/// events mentioning device I. `--stable-only true` keeps only the
/// series tagged thread-count-invariant (and drops spans/events, which
/// carry wall-clock timings) so two dumps from runs at different
/// `HEALTHMON_THREADS` settings can be byte-compared.
fn cmd_metrics(args: &ParsedArgs) -> Result<ExitCode, String> {
    args.expect_only(&["file", "stable-only", "format", "last", "device"])?;
    let path = args.required("file")?;
    let stable_only: bool = args.get_or("stable-only", false)?;
    let format = args.get("format").unwrap_or("summary");
    let last: usize = args.get_or("last", 0)?;
    let device: Option<usize> = match args.get("device") {
        Some(d) => {
            Some(d.parse().map_err(|_| "--device must be a device id".to_owned())?)
        }
        None => None,
    };

    let text = std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))?;
    let mut frames = tel::parse_stream(&text).map_err(|e| format!("parsing `{path}`: {e}"))?;
    if frames.is_empty() {
        // An empty file validates as one empty snapshot, as it always did.
        frames.push(tel::SnapshotFrame {
            seq: 0,
            label: "snapshot".to_owned(),
            epoch: 0,
            meta: Vec::new(),
            snap: Default::default(),
        });
    }
    if last > 0 {
        let skip = frames.len().saturating_sub(last);
        frames.drain(..skip);
    }
    for frame in &mut frames {
        if let Some(id) = device {
            let tag = format!("device {id:04}");
            frame.snap.events.retain(|e| e.detail.contains(&tag));
        }
        if stable_only {
            frame.snap.counters.retain(|c| c.stable);
            frame.snap.gauges.retain(|g| g.stable);
            frame.snap.histograms.retain(|h| h.stable);
            frame.snap.spans.clear();
            frame.snap.events.clear();
        }
    }
    // A file without snapshot markers (a plain `--metrics` dump) keeps
    // the exact single-snapshot output shape.
    let plain = frames.len() == 1 && frames[0].label == "snapshot";
    match format {
        "summary" => {
            for frame in &frames {
                let s = &frame.snap;
                let counts = format!(
                    "{} counters, {} gauges, {} histograms, {} spans, {} events{}",
                    s.counters.len(),
                    s.gauges.len(),
                    s.histograms.len(),
                    s.spans.len(),
                    s.events.len(),
                    if stable_only { " (stable only)" } else { "" }
                );
                if plain {
                    outln!("{path}: {counts}");
                } else {
                    let meta = frame
                        .meta
                        .iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join(" ");
                    outln!("{path}[{}] epoch {}: {counts} ({meta})", frame.seq, frame.epoch);
                }
            }
        }
        "jsonl" => {
            if plain {
                out!("{}", tel::render_jsonl(&frames[0].snap));
            } else {
                for frame in &frames {
                    out!("{}", tel::render_frame(frame));
                }
            }
        }
        "prometheus" => {
            let newest = frames.last().expect("frames is never empty here");
            out!("{}", tel::render_prometheus(&newest.snap));
        }
        other => return Err(format!("unknown format `{other}` (summary|jsonl|prometheus)")),
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders one refresh of the `healthmon top` fleet health table from
/// the frames of a snapshot stream.
fn render_top(path: &str, frames: &[tel::SnapshotFrame]) -> String {
    let mut out = String::new();
    let Some(newest) = frames.last() else {
        out.push_str(&format!("{path}: no snapshot frames yet\n"));
        return out;
    };
    let meta = |name: &str| newest.meta_value(name).unwrap_or(0.0);
    out.push_str(&format!(
        "== healthmon top == {path} (frame {}, fleet epoch {})\n",
        newest.seq, newest.epoch
    ));
    out.push_str(&format!(
        "devices {}: healthy {}  watch {}  critical {}  quarantined {}\n",
        meta("devices"),
        meta("healthy"),
        meta("watch"),
        meta("critical"),
        meta("quarantined"),
    ));
    out.push_str(&format!(
        "incidents {}  damaged shards {}  device-epochs {}\n",
        meta("incidents"),
        meta("damaged_shards"),
        meta("device_epochs"),
    ));
    let trend: Vec<String> =
        frames.iter().map(|f| format!("{}", f.meta_value("healthy").unwrap_or(0.0))).collect();
    out.push_str(&format!("healthy trend: {}\n", trend.join(" ")));
    let phases: Vec<_> =
        newest.snap.histograms.iter().filter(|h| h.name.starts_with("phase.")).collect();
    if !phases.is_empty() {
        out.push_str("phase latency ns (p50/p95/p99):\n");
        for h in phases {
            out.push_str(&format!(
                "  {:<22} {}/{}/{}  ({} samples)\n",
                h.name,
                h.quantile(0.5),
                h.quantile(0.95),
                h.quantile(0.99),
                h.count
            ));
        }
    }
    let fleet_counters: Vec<_> =
        newest.snap.counters.iter().filter(|c| c.name.starts_with("fleet.")).collect();
    if !fleet_counters.is_empty() {
        out.push_str("fleet counters:\n");
        for c in fleet_counters {
            out.push_str(&format!("  {:<22} {}\n", c.name, c.value));
        }
    }
    out
}

/// Live fleet health table over a `--snapshot-log` stream; `--watch
/// true` refreshes in place until interrupted.
fn cmd_top(args: &ParsedArgs) -> Result<ExitCode, String> {
    args.expect_only(&["file", "watch", "refresh-ms"])?;
    let path = args.required("file")?;
    let watch: bool = args.get_or("watch", false)?;
    let refresh_ms: u64 = args.get_or("refresh-ms", 1000)?;
    loop {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))?;
        let frames = tel::parse_stream(&text).map_err(|e| format!("parsing `{path}`: {e}"))?;
        if watch {
            // Clear and home; the stream file is written atomically, so
            // every refresh sees a complete set of frames.
            out!("\x1b[2J\x1b[H");
        }
        out!("{}", render_top(path, &frames));
        if !watch || crate::output::stdout_closed() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(refresh_ms.max(50)));
    }
    Ok(ExitCode::SUCCESS)
}

/// Inspects a flight-recorder postmortem artifact: digest-verifies it
/// (a tampered or torn artifact is a loud error) and prints the
/// operator summary, tallies and trailing timeline.
fn cmd_flight(args: &ParsedArgs) -> Result<ExitCode, String> {
    use std::str::FromStr;
    args.expect_only(&["file"])?;
    let path = args.required("file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))?;
    let record =
        FlightRecord::from_str(&text).map_err(|e| format!("parsing `{path}`: {e}"))?;
    outln!("{}", record.summary());
    outln!("config digest: {}", record.config_digest);
    outln!("phases: {}", record.phases.join(" -> "));
    outln!("tallies:");
    for (name, value) in &record.tallies {
        outln!("  {name:<20} {value}");
    }
    if let Some(tail) = record.timeline.last() {
        outln!("last timeline point: {}", healthmon_serdes::to_string(tail));
    }
    Ok(ExitCode::SUCCESS)
}

/// Lists the model zoo: one line per registered architecture with its
/// parameter count, input shape, dataset family, and description. The
/// parameter counts come from actually building each model, so the table
/// can never drift from the registry.
fn cmd_models(args: &ParsedArgs) -> Result<ExitCode, String> {
    args.expect_only(&[])?;
    outln!("{:<10} {:>9} {:<12} {:<7} description", "model", "params", "input", "data");
    for spec in zoo::ZOO {
        let mut rng = SeededRng::new(0);
        let net = spec.build(&mut rng);
        let shape = spec
            .input_shape
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("x");
        let family = match spec.family {
            DataFamily::Digits => "digits",
            DataFamily::Objects => "objects",
        };
        outln!(
            "{:<10} {:>9} {:<12} {:<7} {}",
            spec.name,
            net.num_params(),
            shape,
            family,
            spec.description
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_accuracy(args: &ParsedArgs) -> Result<ExitCode, String> {
    args.expect_only(&["arch", "model", "seed"])?;
    let arch = args.required("arch")?;
    let model = args.required("model")?;
    let seed: u64 = args.get_or("seed", 7)?;
    let mut net = load_model(arch, model, seed)?;
    let split = dataset_for(arch, seed, 2000)?;
    let acc = accuracy(&mut net, &split.test.images, &split.test.labels, 64);
    outln!("test accuracy: {:.2}%", acc * 100.0);
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_spec_parsing() {
        assert_eq!(
            parse_fault("pv:0.3").unwrap(),
            FaultModel::ProgrammingVariation { sigma: 0.3 }
        );
        assert_eq!(
            parse_fault("soft:0.01").unwrap(),
            FaultModel::RandomSoftError { probability: 0.01 }
        );
        assert_eq!(
            parse_fault("stuck:0.02,0.01").unwrap(),
            FaultModel::StuckAt { sa0: 0.02, sa1: 0.01 }
        );
        assert_eq!(
            parse_fault("drift:0.1,2.5").unwrap(),
            FaultModel::Drift { nu: 0.1, time: 2.5 }
        );
        assert!(parse_fault("pv").is_err());
        assert!(parse_fault("pv:a").is_err());
        assert!(parse_fault("nope:1").is_err());
        assert!(parse_fault("stuck:0.1").is_err());
    }

    #[test]
    fn arch_construction() {
        let mut rng = SeededRng::new(0);
        assert!(build_arch("lenet5", &mut rng).is_ok());
        assert!(build_arch("mlp", &mut rng).is_ok());
        assert!(build_arch("resnet8", &mut rng).is_ok());
        assert!(build_arch("mlp4", &mut rng).is_ok());
        assert!(build_arch("attention", &mut rng).is_ok());
        // A typo's error message enumerates the whole registry.
        let err = build_arch("resnet", &mut rng).unwrap_err();
        for spec in zoo::ZOO {
            assert!(err.contains(spec.name), "error must list {}: {err}", spec.name);
        }
    }

    #[test]
    fn datasets_match_registry_input_shapes() {
        let split = dataset_for("mlp", 1, 40).unwrap();
        assert_eq!(split.train.sample_shape(), &[784]);
        let split = dataset_for("lenet5", 1, 40).unwrap();
        assert_eq!(split.train.sample_shape(), &[1, 28, 28]);
        let split = dataset_for("attention", 1, 40).unwrap();
        assert_eq!(split.train.sample_shape(), &[28, 28]);
        let split = dataset_for("resnet8", 1, 40).unwrap();
        assert_eq!(split.train.sample_shape(), &[3, 32, 32]);
        let split = dataset_for("mlp4", 1, 40).unwrap();
        assert_eq!(split.train.sample_shape(), &[784]);
    }

    #[test]
    fn models_subcommand_lists_the_zoo() {
        let argv = vec!["models".to_owned()];
        assert_eq!(run(&argv).unwrap(), ExitCode::SUCCESS);
    }

    #[test]
    fn unknown_subcommand_is_rejected() {
        let argv = vec!["frobnicate".to_owned()];
        assert!(run(&argv).is_err());
    }

    #[test]
    fn end_to_end_cli_workflow_mlp() {
        // train -> inject -> generate -> check, through temp files.
        let dir = std::env::temp_dir().join("healthmon_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_owned).collect() };

        let model = p("model.json");
        let faulty = p("faulty.json");
        let patterns = p("patterns.json");

        run(&argv(&format!(
            "train --arch mlp --out {model} --epochs 2 --train-size 300 --quiet true"
        )))
        .unwrap();
        run(&argv(&format!(
            "inject --arch mlp --model {model} --fault pv:0.5 --out {faulty}"
        )))
        .unwrap();
        run(&argv(&format!(
            "generate --arch mlp --model {model} --method ctp --out {patterns} --count 10"
        )))
        .unwrap();
        // Golden device: healthy (exit 0).
        let healthy = run(&argv(&format!(
            "check --arch mlp --model {model} --target {model} --patterns {patterns}"
        )))
        .unwrap();
        assert_eq!(healthy, ExitCode::SUCCESS);
        // Heavily damaged device: faulty (exit 2).
        let verdict = run(&argv(&format!(
            "check --arch mlp --model {model} --target {faulty} --patterns {patterns}"
        )))
        .unwrap();
        assert_eq!(verdict, ExitCode::from(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pattern_files_that_do_not_fit_the_arch_are_rejected() {
        // Samples of shape [3] (and a batch of none at all) for an arch
        // that takes [784]: every reader of `--patterns` must return the
        // error naming both shapes, not panic inside the network.
        let dir = std::env::temp_dir().join("healthmon_cli_pattern_shape_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_owned).collect() };
        let model = p("model.json");
        run(&argv(&format!(
            "train --arch mlp --out {model} --epochs 1 --train-size 100 --quiet true"
        )))
        .unwrap();
        for (name, json) in
            [("wrong.json", r#"{"shape":[2,3],"data":[1,2,3,4,5,6]}"#), ("flat.json", r#"{"shape":[3],"data":[1,2,3]}"#)]
        {
            let patterns = p(name);
            std::fs::write(&patterns, json).unwrap();
            for command in [
                format!("check --arch mlp --model {model} --target {model} --patterns {patterns}"),
                format!("campaign --arch mlp --model {model} --patterns {patterns} --fault pv:0.1 --count 2"),
                format!(
                    "campaign --arch mlp --model {model} --hardened true --hardened-model {model} \
                     --patterns {patterns} --fault pv:0.1 --count 2"
                ),
                format!("lifetime --arch mlp --model {model} --patterns {patterns} --epochs 1"),
            ] {
                let err = run(&argv(&command)).expect_err(&command);
                assert!(err.contains("[784]") && err.contains(name), "{command}: {err}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
