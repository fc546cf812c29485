//! Telemetry overhead A/B: the same workloads timed with recording
//! disabled and enabled.
//!
//! Two representative workloads are measured:
//!
//! - `campaign` — a full detection campaign (fault-model sampling, batched
//!   inference, SDC criteria) on a small MLP; exercises the detector,
//!   pattern, pool and GEMM instrumentation on the hot path.
//! - `gemm_lenet5` — the LeNet-5 conv2 im2col GEMM shape, the single
//!   heaviest kernel of the forward pass; isolates the per-call cost of
//!   the GEMM dispatch counters and spans.
//!
//! The off/on deltas back DESIGN.md §7's claim that the disabled path
//! costs less than the host's timing noise.

use healthmon::{Detector, SdcCriterion, TestPatternSet};
use healthmon_bench::timing::TimingHarness;
use healthmon_faults::FaultModel;
use healthmon_nn::models::tiny_mlp;
use healthmon_tensor::{SeededRng, Tensor};
use healthmon_telemetry as tel;
use std::hint::black_box;

fn bench_campaign(group: &mut TimingHarness) {
    let mut rng = SeededRng::new(17);
    let net = tiny_mlp(16, 32, 8, &mut rng);
    let patterns =
        TestPatternSet::new("bench", Tensor::rand_uniform(&[24, 16], 0.0, 1.0, &mut rng));
    let detector = Detector::new(&net, patterns);
    let fault = FaultModel::ProgrammingVariation { sigma: 0.3 };
    let criteria = [SdcCriterion::Sdc1, SdcCriterion::SdcA { threshold: 0.03 }];

    let mut run = || black_box(detector.detection_rates(&net, &fault, 16, 5, &criteria));

    tel::set_enabled(false);
    group.case("campaign/off", &mut run);
    tel::reset();
    tel::set_enabled(true);
    group.case("campaign/on", &mut run);
    tel::set_enabled(false);
    tel::reset();
}

fn bench_gemm(group: &mut TimingHarness) {
    // LeNet-5 conv2 im2col shape: weight [16, 150] x patches [150, 3136].
    let mut rng = SeededRng::new(23);
    let a = Tensor::randn(&[16, 150], &mut rng);
    let b = Tensor::randn(&[150, 3136], &mut rng);

    let mut run = || black_box(a.matmul(&b));

    tel::set_enabled(false);
    group.case("gemm_lenet5/off", &mut run);
    tel::reset();
    tel::set_enabled(true);
    group.case("gemm_lenet5/on", &mut run);
    tel::set_enabled(false);
    tel::reset();
}

fn main() {
    let mut group = TimingHarness::new("telemetry_ab").samples(7);
    bench_campaign(&mut group);
    bench_gemm(&mut group);
    healthmon_bench::timing::write_json_report();
}
