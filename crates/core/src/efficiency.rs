//! Efficiency analysis: how many test patterns are enough? (paper Fig 7)
//!
//! For each candidate pattern count `k`, the detector is truncated to its
//! first `k` patterns, the confidence distance of every fault model in a
//! campaign is recomputed, and the across-model standard deviation of the
//! distance estimate is reported. A method is *efficient* if this std
//! converges at small `k` — the paper finds O-TP stable at 10 patterns
//! while AET needs ~150 images.

use crate::detect::Detector;
use crate::stability::series_stats;
use healthmon_faults::FaultModel;
use healthmon_nn::Network;

/// One row of the efficiency curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyPoint {
    /// Number of patterns used.
    pub patterns: usize,
    /// Across-fault-model std of the top-ranked confidence distance.
    pub std_top_ranked: f32,
    /// Across-fault-model std of the all-class confidence distance.
    pub std_all_classes: f32,
    /// Across-fault-model mean of the all-class confidence distance.
    pub mean_all_classes: f32,
}

/// Sweeps pattern counts and returns the efficiency curve.
///
/// `counts` must be ascending and bounded by the detector's pattern-set
/// size. Each point runs a full campaign of `campaign_size` fault models
/// (the same models for every count, so the curve isolates the effect of
/// `k`).
///
/// # Panics
///
/// Panics if `counts` is empty, not ascending, or exceeds the pattern
/// count.
pub fn pattern_count_sweep(
    detector: &Detector,
    golden_net: &Network,
    fault: &FaultModel,
    campaign_size: usize,
    seed: u64,
    counts: &[usize],
) -> Vec<EfficiencyPoint> {
    assert!(!counts.is_empty(), "need at least one pattern count");
    assert!(
        counts.windows(2).all(|w| w[0] < w[1]),
        "pattern counts must be strictly ascending"
    );
    assert!(
        *counts.last().expect("non-empty") <= detector.patterns().len(),
        "count {} exceeds pattern-set size {}",
        counts.last().expect("non-empty"),
        detector.patterns().len()
    );
    counts
        .iter()
        .map(|&k| {
            let truncated = detector.truncated(k);
            let distances = truncated.campaign_distances(golden_net, fault, campaign_size, seed);
            let top: Vec<f32> = distances.iter().map(|d| d.top_ranked).collect();
            let all: Vec<f32> = distances.iter().map(|d| d.all_classes).collect();
            let all_stats = series_stats(&all);
            EfficiencyPoint {
                patterns: k,
                std_top_ranked: series_stats(&top).std,
                std_all_classes: all_stats.std,
                mean_all_classes: all_stats.mean,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::TestPatternSet;
    use healthmon_nn::models::tiny_mlp;
    use healthmon_tensor::{SeededRng, Tensor};

    fn setup() -> (Network, Detector) {
        let mut rng = SeededRng::new(1);
        let net = tiny_mlp(8, 16, 4, &mut rng);
        let patterns =
            TestPatternSet::new("rand", Tensor::rand_uniform(&[30, 8], 0.0, 1.0, &mut rng));
        let det = Detector::new(&net, patterns);
        (net, det)
    }

    #[test]
    fn sweep_shape_and_counts() {
        let (net, det) = setup();
        let fault = FaultModel::ProgrammingVariation { sigma: 0.3 };
        let curve = pattern_count_sweep(&det, &net, &fault, 10, 3, &[5, 10, 20, 30]);
        assert_eq!(curve.len(), 4);
        assert_eq!(curve[0].patterns, 5);
        assert_eq!(curve[3].patterns, 30);
        assert!(curve.iter().all(|p| p.std_all_classes >= 0.0));
        assert!(curve.iter().all(|p| p.mean_all_classes > 0.0));
    }

    #[test]
    fn deterministic() {
        let (net, det) = setup();
        let fault = FaultModel::ProgrammingVariation { sigma: 0.3 };
        let a = pattern_count_sweep(&det, &net, &fault, 8, 3, &[5, 15]);
        let b = pattern_count_sweep(&det, &net, &fault, 8, 3, &[5, 15]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn rejects_unsorted_counts() {
        let (net, det) = setup();
        let fault = FaultModel::ProgrammingVariation { sigma: 0.3 };
        pattern_count_sweep(&det, &net, &fault, 4, 3, &[10, 5]);
    }

    #[test]
    #[should_panic(expected = "exceeds pattern-set size")]
    fn rejects_oversized_count() {
        let (net, det) = setup();
        let fault = FaultModel::ProgrammingVariation { sigma: 0.3 };
        pattern_count_sweep(&det, &net, &fault, 4, 3, &[10, 50]);
    }
}
