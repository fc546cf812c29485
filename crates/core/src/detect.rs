//! The concurrent-test detector: golden responses, fault decisions, and
//! campaign-level detection rates.

use crate::checkpoint::CampaignCheckpoint;
use crate::confidence::{ConfidenceDistance, ResponseSet};
use crate::error::HealthmonError;
use crate::metrics::SdcCriterion;
use crate::patterns::TestPatternSet;
use healthmon_faults::{par_map_indices, par_map_models, FaultModel};
use healthmon_nn::{InferenceBackend, Network};
use healthmon_reram::{ActiveBackend, BackendSpec};
use healthmon_tensor::SeededRng;
use healthmon_telemetry as tel;

// Every campaign work item is a pure function of (golden weights, seed,
// fault, index), so all detector tallies are Stable: aggregates are
// bit-identical at any HEALTHMON_THREADS setting.
static RESPONSES_EVALUATED: tel::Counter =
    tel::Counter::new("detect.responses", tel::Stability::Stable);
static VERDICTS_FAULTY: tel::Counter =
    tel::Counter::new("detect.verdict.faulty", tel::Stability::Stable);
static VERDICTS_HEALTHY: tel::Counter =
    tel::Counter::new("detect.verdict.healthy", tel::Stability::Stable);
static CRIT_SDC1_CHECKED: tel::Counter =
    tel::Counter::new("detect.criterion.sdc1.checked", tel::Stability::Stable);
static CRIT_SDC1_DETECTED: tel::Counter =
    tel::Counter::new("detect.criterion.sdc1.detected", tel::Stability::Stable);
static CRIT_SDC5_CHECKED: tel::Counter =
    tel::Counter::new("detect.criterion.sdc5.checked", tel::Stability::Stable);
static CRIT_SDC5_DETECTED: tel::Counter =
    tel::Counter::new("detect.criterion.sdc5.detected", tel::Stability::Stable);
static CRIT_SDCT_CHECKED: tel::Counter =
    tel::Counter::new("detect.criterion.sdct.checked", tel::Stability::Stable);
static CRIT_SDCT_DETECTED: tel::Counter =
    tel::Counter::new("detect.criterion.sdct.detected", tel::Stability::Stable);
static CRIT_SDCA_CHECKED: tel::Counter =
    tel::Counter::new("detect.criterion.sdca.checked", tel::Stability::Stable);
static CRIT_SDCA_DETECTED: tel::Counter =
    tel::Counter::new("detect.criterion.sdca.detected", tel::Stability::Stable);
// One per fault model a campaign programs onto a crossbar backend: the
// unit of work whose cost the integer-domain crossbar path amortizes
// (each program is followed by a full pattern-set sweep against the
// freshly built tile caches).
static BACKEND_PROGRAMS: tel::Counter =
    tel::Counter::new("detect.backend.programs", tel::Stability::Stable);

/// The `(checked, detected)` progress counters for a criterion kind.
fn criterion_counters(c: &SdcCriterion) -> (&'static tel::Counter, &'static tel::Counter) {
    match c {
        SdcCriterion::Sdc1 => (&CRIT_SDC1_CHECKED, &CRIT_SDC1_DETECTED),
        SdcCriterion::Sdc5 => (&CRIT_SDC5_CHECKED, &CRIT_SDC5_DETECTED),
        SdcCriterion::SdcT { .. } => (&CRIT_SDCT_CHECKED, &CRIT_SDCT_DETECTED),
        SdcCriterion::SdcA { .. } => (&CRIT_SDCA_CHECKED, &CRIT_SDCA_DETECTED),
    }
}

/// Records per-criterion detection progress after a campaign's verdict
/// merge. Runs post-merge on the calling thread, so tallies are
/// independent of how the sweep was scheduled.
fn tally_verdicts(criteria: &[SdcCriterion], verdicts: &[Vec<bool>]) {
    if !tel::enabled() {
        return;
    }
    for (ci, criterion) in criteria.iter().enumerate() {
        let (checked, detected) = criterion_counters(criterion);
        checked.add(verdicts.len() as u64);
        detected.add(verdicts.iter().filter(|v| v[ci]).count() as u64);
    }
}

/// Domain separator for the per-fault-model backend programming streams
/// of a campaign: keeps conductance-programming randomness statistically
/// independent of the fault-injection streams derived from the campaign
/// seed itself.
const BACKEND_SALT: u64 = 0xBAC0_0DAC_2020_0004;

/// A concurrent-test detector: a pattern set plus the golden model's
/// responses to it.
///
/// In deployment the golden responses are computed once (at the cloud, on
/// a known-good model) and shipped with the patterns; the accelerator
/// periodically runs the patterns and compares. Here the same object also
/// drives the statistical campaigns of the paper's evaluation.
#[derive(Debug, Clone)]
pub struct Detector {
    patterns: TestPatternSet,
    golden: ResponseSet,
}

impl Detector {
    /// Builds a detector by recording `golden_net`'s responses on
    /// `patterns`.
    ///
    /// The golden responses are always digital: the reference the paper
    /// compares against is the known-good model evaluated exactly, while
    /// the *target* side of every comparison may run on any
    /// [`InferenceBackend`].
    ///
    /// # Panics
    ///
    /// Panics if pattern shapes do not match the network input.
    pub fn new(golden_net: &Network, patterns: TestPatternSet) -> Self {
        let golden = ResponseSet::from_logits(patterns.logits(golden_net));
        Detector { patterns, golden }
    }

    /// The pattern set.
    pub fn patterns(&self) -> &TestPatternSet {
        &self.patterns
    }

    /// The golden responses.
    pub fn golden(&self) -> &ResponseSet {
        &self.golden
    }

    /// A detector over only the first `k` patterns (and the matching
    /// golden responses) — used by the efficiency analysis.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the pattern count.
    pub fn truncated(&self, k: usize) -> Detector {
        Detector { patterns: self.patterns.truncated(k), golden: self.golden.truncated(k) }
    }

    /// Non-panicking [`Detector::truncated`]: a detector over the first
    /// `k` patterns, or a descriptive error when `k` is out of range.
    ///
    /// # Errors
    ///
    /// [`HealthmonError::InvalidTruncation`] if `k` is zero or exceeds
    /// the pattern count.
    pub fn subset(&self, k: usize) -> Result<Detector, HealthmonError> {
        let available = self.patterns.len();
        if k == 0 || k > available {
            return Err(HealthmonError::InvalidTruncation { requested: k, available });
        }
        Ok(self.truncated(k))
    }

    /// Evaluates a target backend's responses on the pattern set. The
    /// target can be a plain digital [`Network`], a live crossbar
    /// `AnalogBackend` (analog or bit-sliced), or any other
    /// [`InferenceBackend`].
    pub fn responses<B: InferenceBackend + ?Sized>(&self, target: &B) -> ResponseSet {
        RESPONSES_EVALUATED.inc();
        ResponseSet::from_logits(self.patterns.logits(target))
    }

    /// Confidence distance of a target backend from the golden responses.
    pub fn confidence_distance<B: InferenceBackend + ?Sized>(
        &self,
        target: &B,
    ) -> ConfidenceDistance {
        ConfidenceDistance::between(&self.golden, &self.responses(target))
    }

    /// Whether `criterion` flags the target backend as faulty.
    pub fn is_faulty<B: InferenceBackend + ?Sized>(
        &self,
        target: &B,
        criterion: SdcCriterion,
    ) -> bool {
        let faulty = criterion.detects(&self.golden, &self.responses(target));
        if faulty {
            VERDICTS_FAULTY.inc();
        } else {
            VERDICTS_HEALTHY.inc();
        }
        faulty
    }

    /// Detection rate over a fault campaign: the fraction of `count` fault
    /// models (derived from `golden_net` with `fault` under `seed`) that
    /// `criterion` flags. This is the paper's headline metric.
    pub fn detection_rate(
        &self,
        golden_net: &Network,
        fault: &FaultModel,
        count: usize,
        seed: u64,
        criterion: SdcCriterion,
    ) -> f32 {
        let rates = self.detection_rates(golden_net, fault, count, seed, &[criterion]);
        rates[0]
    }

    /// Detection rates for several criteria over a single campaign pass
    /// (each fault model is evaluated once; all criteria are applied to
    /// its responses).
    pub fn detection_rates(
        &self,
        golden_net: &Network,
        fault: &FaultModel,
        count: usize,
        seed: u64,
        criteria: &[SdcCriterion],
    ) -> Vec<f32> {
        self.detection_rates_with(golden_net, fault, count, seed, criteria, &BackendSpec::digital())
    }

    /// [`Detector::detection_rates`] executed on an arbitrary backend:
    /// every fault model's weights are *programmed onto live crossbar
    /// state* described by `spec` before its responses are measured, so
    /// detection rates include DAC/ADC quantization, cell resolution, and
    /// tile partial-sum effects. Fault model `i` is programmed under the
    /// deterministic stream `SeededRng::new(seed ^ BACKEND_SALT).fork(i)`,
    /// so rates are reproducible at any thread count.
    pub fn detection_rates_with(
        &self,
        golden_net: &Network,
        fault: &FaultModel,
        count: usize,
        seed: u64,
        criteria: &[SdcCriterion],
        spec: &BackendSpec,
    ) -> Vec<f32> {
        let mut checkpoint = CampaignCheckpoint::new(seed, count, criteria);
        self.sweep(golden_net, fault, criteria, &mut checkpoint, None, spec)
            .expect("a fresh checkpoint matches its own criteria and indices");
        checkpoint.rates()
    }

    /// Advances a checkpointed detection sweep by up to `budget` fault
    /// models (all remaining ones when `budget` is `None`), recording
    /// each evaluated model's verdicts into `checkpoint`.
    ///
    /// Returns `Some(rates)` once the sweep is complete, `None` while
    /// models remain. Because fault model `i` is a pure function of
    /// `(golden weights, checkpoint seed, fault, i)`, a sweep interrupted
    /// at any point and resumed — even from a checkpoint that was
    /// serialized and reloaded — produces rates bit-identical to an
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`HealthmonError::CheckpointMismatch`] if `criteria` differ from
    /// the ones the checkpoint was started with.
    pub fn detection_rates_resumable(
        &self,
        golden_net: &Network,
        fault: &FaultModel,
        criteria: &[SdcCriterion],
        checkpoint: &mut CampaignCheckpoint,
        budget: Option<usize>,
    ) -> Result<Option<Vec<f32>>, HealthmonError> {
        self.sweep(golden_net, fault, criteria, checkpoint, budget, &BackendSpec::digital())?;
        Ok(if checkpoint.is_complete() { Some(checkpoint.rates()) } else { None })
    }

    /// The one campaign sweep behind every detection rate: evaluates up
    /// to `budget` of the fault models `checkpoint` still lacks on the
    /// backend `spec` describes (the digital one borrows the faulty
    /// network) and records their verdicts. An empty sweep records
    /// nothing.
    fn sweep(
        &self,
        golden_net: &Network,
        fault: &FaultModel,
        criteria: &[SdcCriterion],
        checkpoint: &mut CampaignCheckpoint,
        budget: Option<usize>,
        spec: &BackendSpec,
    ) -> Result<(), HealthmonError> {
        checkpoint.verify_criteria(criteria)?;
        spec.validate();
        let mut todo = checkpoint.remaining();
        if let Some(limit) = budget {
            todo.truncate(limit);
        }
        if todo.is_empty() {
            return Ok(());
        }
        let _campaign = tel::span("detect.campaign");
        let seed = checkpoint.seed();
        let verdicts: Vec<Vec<bool>> = par_map_indices(golden_net, fault, seed, &todo, |i, net| {
            let mut program_rng = SeededRng::new(seed ^ BACKEND_SALT).fork(i as u64);
            let backend = spec.instantiate(net, &mut program_rng);
            if let ActiveBackend::Crossbar(_) = backend {
                BACKEND_PROGRAMS.inc();
            }
            let responses = self.responses(&backend);
            criteria.iter().map(|c| c.detects(&self.golden, &responses)).collect()
        });
        tally_verdicts(criteria, &verdicts);
        for (i, row) in todo.into_iter().zip(verdicts) {
            checkpoint.record(i, row)?;
        }
        Ok(())
    }

    /// Confidence distance of every fault model in a campaign, in index
    /// order — the raw series behind Fig 3, Table IV and Fig 7.
    pub fn campaign_distances(
        &self,
        golden_net: &Network,
        fault: &FaultModel,
        count: usize,
        seed: u64,
    ) -> Vec<ConfidenceDistance> {
        par_map_models(golden_net, fault, seed, count, |_, net| {
            self.confidence_distance(&*net)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use healthmon_nn::models::tiny_mlp;
    use healthmon_tensor::{SeededRng, Tensor};

    fn setup() -> (Network, Detector) {
        let mut rng = SeededRng::new(1);
        let net = tiny_mlp(8, 16, 4, &mut rng);
        let patterns =
            TestPatternSet::new("rand", Tensor::rand_uniform(&[12, 8], 0.0, 1.0, &mut rng));
        let detector = Detector::new(&net, patterns);
        (net, detector)
    }

    #[test]
    fn golden_model_is_never_flagged() {
        let (net, detector) = setup();
        for crit in SdcCriterion::paper_suite() {
            // SDC-5 requires >=5 classes; our toy model has 4.
            if matches!(crit, SdcCriterion::Sdc5) {
                continue;
            }
            assert!(!detector.is_faulty(&net, crit), "{} flagged the golden model", crit.label());
        }
        let d = detector.confidence_distance(&net);
        assert_eq!(d.top_ranked, 0.0);
        assert_eq!(d.all_classes, 0.0);
    }

    #[test]
    fn heavy_fault_is_detected() {
        let (net, detector) = setup();
        let mut faulty = net.clone();
        FaultModel::RandomSoftError { probability: 0.6 }
            .apply(&mut faulty, &mut SeededRng::new(9));
        let d = detector.confidence_distance(&faulty);
        assert!(d.all_classes > 0.01, "heavy fault left distance {}", d.all_classes);
        assert!(detector.is_faulty(&faulty, SdcCriterion::SdcA { threshold: 0.01 }));
    }

    #[test]
    fn detection_rate_monotone_in_severity() {
        let (net, detector) = setup();
        let crit = SdcCriterion::SdcA { threshold: 0.02 };
        let mild = detector.detection_rate(
            &net,
            &FaultModel::ProgrammingVariation { sigma: 0.01 },
            16,
            5,
            crit,
        );
        let severe = detector.detection_rate(
            &net,
            &FaultModel::ProgrammingVariation { sigma: 0.8 },
            16,
            5,
            crit,
        );
        assert!(severe >= mild, "severity must not reduce detection: {mild} vs {severe}");
        assert!(severe > 0.8, "σ=0.8 should be detected nearly always, got {severe}");
    }

    #[test]
    fn detection_rates_consistent_with_single() {
        let (net, detector) = setup();
        let fault = FaultModel::ProgrammingVariation { sigma: 0.3 };
        let criteria = [
            SdcCriterion::Sdc1,
            SdcCriterion::SdcA { threshold: 0.03 },
        ];
        let both = detector.detection_rates(&net, &fault, 10, 3, &criteria);
        let one = detector.detection_rate(&net, &fault, 10, 3, criteria[1]);
        assert_eq!(both[1], one);
    }

    #[test]
    fn campaign_distances_len_and_determinism() {
        let (net, detector) = setup();
        let fault = FaultModel::ProgrammingVariation { sigma: 0.2 };
        let a = detector.campaign_distances(&net, &fault, 7, 11);
        let b = detector.campaign_distances(&net, &fault, 7, 11);
        assert_eq!(a.len(), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_detector_consistency() {
        let (net, detector) = setup();
        let t = detector.truncated(5);
        assert_eq!(t.patterns().len(), 5);
        assert_eq!(t.golden().len(), 5);
        let mut faulty = net.clone();
        FaultModel::ProgrammingVariation { sigma: 0.3 }
            .apply(&mut faulty, &mut SeededRng::new(2));
        // Truncated distance computed on prefix only.
        let d_full = detector.confidence_distance(&faulty);
        let d_trunc = t.confidence_distance(&faulty);
        assert!(d_full.all_classes > 0.0 && d_trunc.all_classes > 0.0);
    }

    #[test]
    fn subset_rejects_degenerate_sizes() {
        let (_, detector) = setup();
        let n = detector.patterns().len();
        let err = detector.subset(0).unwrap_err();
        assert!(matches!(
            err,
            HealthmonError::InvalidTruncation { requested: 0, available } if available == n
        ));
        assert!(err.to_string().contains("subset of 0"));
        assert!(detector.subset(n + 1).is_err());
    }

    #[test]
    fn subset_matches_truncated_in_range() {
        let (net, detector) = setup();
        let s = detector.subset(5).unwrap();
        let t = detector.truncated(5);
        assert_eq!(s.patterns().len(), t.patterns().len());
        let device = net.clone();
        let a = s.confidence_distance(&device);
        let b = t.confidence_distance(&device);
        assert_eq!(a, b);
    }

    #[test]
    fn resumable_sweep_matches_one_shot() {
        let (net, detector) = setup();
        let fault = FaultModel::ProgrammingVariation { sigma: 0.3 };
        let criteria = [SdcCriterion::Sdc1, SdcCriterion::SdcA { threshold: 0.03 }];
        let one_shot = detector.detection_rates(&net, &fault, 12, 3, &criteria);

        let mut cp = CampaignCheckpoint::new(3, 12, &criteria);
        // Advance in uneven bites, round-tripping through JSON between
        // them, as an interrupted process would.
        let mut rates = None;
        for budget in [5usize, 1, 100] {
            cp = CampaignCheckpoint::from_json_str(&cp.to_json_string()).unwrap();
            rates = detector
                .detection_rates_resumable(&net, &fault, &criteria, &mut cp, Some(budget))
                .unwrap();
        }
        assert_eq!(rates.unwrap(), one_shot);
    }

    #[test]
    fn resumable_sweep_rejects_swapped_criteria() {
        let (net, detector) = setup();
        let fault = FaultModel::ProgrammingVariation { sigma: 0.3 };
        let mut cp = CampaignCheckpoint::new(3, 4, &[SdcCriterion::Sdc1]);
        let err = detector
            .detection_rates_resumable(
                &net,
                &fault,
                &[SdcCriterion::SdcA { threshold: 0.03 }],
                &mut cp,
                None,
            )
            .unwrap_err();
        assert!(matches!(err, HealthmonError::CheckpointMismatch(_)));
    }

    #[test]
    fn backend_campaign_digital_spec_is_byte_identical() {
        let (net, detector) = setup();
        let fault = FaultModel::ProgrammingVariation { sigma: 0.3 };
        let criteria = [SdcCriterion::Sdc1, SdcCriterion::SdcA { threshold: 0.03 }];
        let plain = detector.detection_rates(&net, &fault, 10, 3, &criteria);
        let routed = detector.detection_rates_with(
            &net,
            &fault,
            10,
            3,
            &criteria,
            &healthmon_reram::BackendSpec::digital(),
        );
        assert_eq!(
            plain.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            routed.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn backend_campaign_exact_analog_matches_digital() {
        use healthmon_reram::{BackendSpec, CrossbarConfig};
        let (net, detector) = setup();
        let fault = FaultModel::ProgrammingVariation { sigma: 0.3 };
        let criteria = [SdcCriterion::SdcA { threshold: 0.03 }];
        let digital = detector.detection_rates(&net, &fault, 8, 3, &criteria);
        let spec = BackendSpec::analog(CrossbarConfig {
            rows: 4096,
            cols: 4096,
            ..CrossbarConfig::exact()
        });
        let analog = detector.detection_rates_with(&net, &fault, 8, 3, &criteria, &spec);
        assert_eq!(digital, analog, "exact analog campaign must reproduce digital rates");
    }

    #[test]
    fn backend_campaign_quantization_is_visible_and_deterministic() {
        use healthmon_reram::{BackendSpec, CrossbarConfig};
        let (net, detector) = setup();
        // A *clean* device on a coarse backend: cell quantization alone
        // perturbs responses, which a tight threshold notices.
        let fault = FaultModel::ProgrammingVariation { sigma: 0.0 };
        let criteria = [SdcCriterion::SdcA { threshold: 1e-4 }];
        let spec = BackendSpec::analog(CrossbarConfig {
            cell_bits: 2,
            dac_bits: 4,
            adc_bits: 4,
            ..CrossbarConfig::default()
        });
        let a = detector.detection_rates_with(&net, &fault, 6, 3, &criteria, &spec);
        let b = detector.detection_rates_with(&net, &fault, 6, 3, &criteria, &spec);
        assert_eq!(a, b, "backend campaign must be deterministic");
        let digital = detector.detection_rates(&net, &fault, 6, 3, &criteria);
        assert!(
            a[0] > digital[0],
            "coarse quantization should trip the tight criterion: analog {} vs digital {}",
            a[0],
            digital[0]
        );
    }

    #[test]
    fn zero_count_campaign() {
        let (net, detector) = setup();
        let r = detector.detection_rates(
            &net,
            &FaultModel::ProgrammingVariation { sigma: 0.1 },
            0,
            0,
            &[SdcCriterion::Sdc1],
        );
        assert_eq!(r, vec![0.0]);
    }
}
