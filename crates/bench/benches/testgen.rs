//! Benchmarks of the test-generation and detection pipeline: the costs a
//! deployment actually pays (pattern generation is one-time at the cloud;
//! detection runs concurrently on-device).
//!
//! Runs on the in-tree [`healthmon_bench::timing`] harness
//! (`cargo bench --bench testgen`).

use healthmon::{AetGenerator, CtpGenerator, Detector, OtpGenerator, SdcCriterion, TestPatternSet};
use healthmon_bench::timing::TimingHarness;
use healthmon_data::{Dataset, DatasetSpec, SynthDigits};
use healthmon_faults::{FaultCampaign, FaultModel};
use healthmon_nn::models::tiny_mlp;
use healthmon_nn::Network;
use healthmon_reram::{BackendSpec, CrossbarConfig};
use healthmon_tensor::{SeededRng, Tensor};
use std::hint::black_box;

fn fixture() -> (Network, Dataset) {
    let spec = DatasetSpec { train: 1, test: 300, seed: 5, noise: 0.1 };
    let raw = SynthDigits::new(spec).generate();
    let n_pixels = 28 * 28;
    let test = Dataset::new(
        raw.test.images.reshape(&[raw.test.len(), n_pixels]).expect("flatten"),
        raw.test.labels.clone(),
        10,
    );
    let mut rng = SeededRng::new(1);
    let net = tiny_mlp(n_pixels, 48, 10, &mut rng);
    (net, test)
}

fn bench_generators() {
    let (net, pool) = fixture();
    let mut group = TimingHarness::new("generation").samples(5);

    let mut ctp_net = net.clone();
    group.case("ctp_select_50_of_300", || {
        black_box(CtpGenerator::new(50).select(&mut ctp_net, &pool))
    });

    let mut aet_net = net.clone();
    group.case("aet_fgsm_50", || {
        let mut rng = SeededRng::new(2);
        black_box(AetGenerator::new(50, 0.15).generate(&mut aet_net, &pool, &mut rng))
    });

    let reference =
        FaultCampaign::new(&net, 7).model(&FaultModel::ProgrammingVariation { sigma: 0.3 }, 0);
    for iters in [50usize, 200] {
        group.case(&format!("otp_10_patterns/{iters}"), || {
            let mut rng = SeededRng::new(3);
            black_box(
                OtpGenerator::new()
                    .max_iters(iters)
                    .generate(&net, &reference, &mut rng),
            )
        });
    }
}

fn bench_detection() {
    let (net, _) = fixture();
    let mut group = TimingHarness::new("detection");
    let mut rng = SeededRng::new(4);
    let golden = net.clone();

    for &patterns in &[10usize, 50] {
        let set = TestPatternSet::new(
            "bench",
            Tensor::rand_uniform(&[patterns, 28 * 28], 0.0, 1.0, &mut rng),
        );
        let detector = Detector::new(&golden, set);
        let mut faulty = net.clone();
        FaultModel::ProgrammingVariation { sigma: 0.3 }
            .apply(&mut faulty, &mut SeededRng::new(5));
        group.case(&format!("concurrent_test_single_device/{patterns}"), || {
            black_box(detector.is_faulty(&faulty, SdcCriterion::SdcA { threshold: 0.03 }))
        });
    }
}

fn bench_fault_injection() {
    let (net, _) = fixture();
    let mut group = TimingHarness::new("fault_injection");
    for (name, fault) in [
        ("programming_variation", FaultModel::ProgrammingVariation { sigma: 0.2 }),
        ("soft_error_1pct", FaultModel::RandomSoftError { probability: 0.01 }),
        ("stuck_at", FaultModel::StuckAt { sa0: 0.05, sa1: 0.05 }),
        ("drift", FaultModel::Drift { nu: 0.1, time: 1.0 }),
    ] {
        group.case(name, || {
            let mut copy = net.clone();
            fault.apply(&mut copy, &mut SeededRng::new(6));
            black_box(copy)
        });
    }
}

/// Fig. 7-style statistical campaign: the cost profile a sweep actually
/// pays — N fault models derived from one golden network, each evaluated
/// on the full pattern set. This is the headline number the execution
/// engine (persistent pool, blocked GEMM, per-worker scratch networks)
/// is built to improve.
fn bench_campaign() {
    let (net, _) = fixture();
    let mut group = TimingHarness::new("campaign").samples(5);
    let mut rng = SeededRng::new(8);
    let golden = net.clone();
    let set = TestPatternSet::new(
        "campaign",
        Tensor::rand_uniform(&[20, 28 * 28], 0.0, 1.0, &mut rng),
    );
    let detector = Detector::new(&golden, set);
    let fault = FaultModel::ProgrammingVariation { sigma: 0.3 };
    group.case("detection_rate_40_models", || {
        black_box(detector.detection_rate(&net, &fault, 40, 11, SdcCriterion::SdcA {
            threshold: 0.03,
        }))
    });
    group.case("campaign_distances_40_models", || {
        black_box(detector.campaign_distances(&net, &fault, 40, 11))
    });
    // The analog counterpart of the headline number: the same 40 fault
    // models programmed onto live crossbar state (default 128×128 tiles,
    // 8-bit converters) before their responses are measured. This is the
    // per-checkup cost the integer-domain crossbar path is built to keep
    // within reach of the digital campaign above.
    let analog = BackendSpec::analog(CrossbarConfig::default());
    group.case("detection_rate_40_models_analog", || {
        black_box(detector.detection_rates_with(
            &net,
            &fault,
            40,
            11,
            &[SdcCriterion::SdcA { threshold: 0.03 }],
            &analog,
        ))
    });
}

fn main() {
    bench_generators();
    bench_detection();
    bench_fault_injection();
    bench_campaign();
}
