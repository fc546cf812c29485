//! Zoo-wide campaign cost: one detection-campaign case per registered
//! architecture, so the per-checkup cost of the paper's concurrent test
//! is tracked across every model the CLI can field.
//!
//! Each case builds the zoo model fresh from a fixed seed, selects a
//! small synthetic pattern set shaped for that architecture, and times a
//! bounded fault-detection campaign (programming-variation faults, SDC-1
//! and SDC-A criteria) — the same work one fleet device does per checkup,
//! minus aging.

use healthmon::{Detector, SdcCriterion, TestPatternSet};
use healthmon_bench::timing::TimingHarness;
use healthmon_faults::FaultModel;
use healthmon_nn::zoo;
use healthmon_tensor::{SeededRng, Tensor};
use std::hint::black_box;

/// Patterns per campaign; small enough that even convnet7 finishes a
/// smoke sample in well under a second.
const PATTERNS: usize = 6;

fn main() {
    let mut group = TimingHarness::new("zoo_campaign").samples(5);
    let fault = FaultModel::ProgrammingVariation { sigma: 0.3 };
    let criteria = [SdcCriterion::Sdc1, SdcCriterion::SdcA { threshold: 0.03 }];
    for spec in zoo::ZOO {
        let mut rng = SeededRng::new(0x200a);
        let net = spec.build(&mut rng);
        let mut shape = vec![PATTERNS];
        shape.extend_from_slice(spec.input_shape);
        let patterns = TestPatternSet::new("zoo-bench", Tensor::randn(&shape, &mut rng));
        let detector = Detector::new(&net, patterns);
        let mut run = || black_box(detector.detection_rates(&net, &fault, 4, 5, &criteria));
        group.case(&format!("campaign/{}", spec.name), &mut run);
    }
    healthmon_bench::timing::write_json_report();
}
