//! Mitigation cost/benefit analysis: does fault-tolerance hardening pay
//! for itself?
//!
//! PR 6 adds two mitigation rungs below the reactive repair ladder —
//! drop-connect-hardened training ([`healthmon_nn::DropConnect`]) and
//! online soft-error scrubbing ([`LifetimeConfig::hardened`]). This
//! module quantifies what they buy, in two complementary views:
//!
//! * **Campaign arms** — for every `fault class × backend × model
//!   variant` cell, the concurrent-test detection rate (SDC-A) and the
//!   mean accuracy of the faulty models. A hardened model that *keeps*
//!   its accuracy under faults needs fewer repair interventions to stay
//!   above the service floor.
//! * **Lifetime arms** — two full [`LifetimeRuntime`] lifetimes under
//!   the *identical* aging stream (the stream is a pure function of
//!   [`LifetimeConfig::seed`]): the plain model on the plain runtime
//!   versus the hardened model on the scrubbing runtime. The derived
//!   summary reports accuracy retained, repair sessions avoided, and
//!   pattern budget saved.
//!
//! Everything is deterministic: the same inputs render byte-identical
//! tables and JSON at any `HEALTHMON_THREADS` setting.

use crate::detect::Detector;
use crate::metrics::SdcCriterion;
use crate::patterns::TestPatternSet;
use crate::report::{percent, TextTable};
use crate::runtime::{LifetimeConfig, LifetimeRuntime, TrainData};
use healthmon_faults::{FaultCampaign, FaultModel};
use healthmon_nn::trainer::accuracy;
use healthmon_nn::Network;
use healthmon_reram::BackendSpec;
use healthmon_serdes::{Json, ToJson};
use healthmon_telemetry as tel;

/// Batch size used for every accuracy evaluation in the analysis.
const EVAL_BATCH: usize = 64;

/// Inputs of a mitigation analysis: which fault classes and backends to
/// sweep in the campaign view, and the lifetime the two arms run.
#[derive(Debug, Clone)]
pub struct MitigationScenario {
    /// Campaign seed (fault model `i` comes from `fork(i)` of it).
    pub seed: u64,
    /// Faulty models per campaign cell.
    pub count: usize,
    /// SDC-A detection threshold.
    pub threshold: f32,
    /// Fault classes swept in the campaign view.
    pub faults: Vec<FaultModel>,
    /// Execution backends swept in the campaign view.
    pub backends: Vec<BackendSpec>,
    /// Lifetime both arms run. [`LifetimeConfig::hardened`] is
    /// overridden per arm (`false` for plain, `true` for hardened), and
    /// [`LifetimeConfig::backend`] is taken as configured.
    pub lifetime: LifetimeConfig,
}

impl MitigationScenario {
    /// Validates the scenario.
    ///
    /// # Panics
    ///
    /// Panics on an empty fault or backend sweep, a non-positive count,
    /// or an invalid nested lifetime configuration.
    pub fn validate(&self) {
        assert!(self.count > 0, "a campaign arm needs at least one faulty model");
        assert!(!self.faults.is_empty(), "the campaign sweep needs at least one fault class");
        assert!(!self.backends.is_empty(), "the campaign sweep needs at least one backend");
        self.lifetime.validate().unwrap_or_else(|e| panic!("{e}"));
    }
}

/// One `fault class × backend × model variant` cell of the campaign view.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignArm {
    /// Human-readable fault description ([`FaultModel::describe`]).
    pub fault: String,
    /// Backend label (`digital` / `analog` / `bitsliced`).
    pub backend: String,
    /// `true` for the drop-connect-hardened model variant.
    pub hardened: bool,
    /// SDC-A detection rate over the campaign.
    pub detection_rate: f32,
    /// Model accuracy on the evaluation set with no fault injected.
    pub clean_accuracy: f32,
    /// Mean accuracy of the faulty models on the evaluation set
    /// (weight-space evaluation, identical for every backend row of the
    /// same fault × variant pair).
    pub faulty_accuracy: f32,
}

/// Outcome of one lifetime arm.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeArm {
    /// `true` for the hardened arm (drop-connect model + scrubbing
    /// runtime).
    pub hardened: bool,
    /// Final health state label.
    pub final_state: String,
    /// Whether the runtime parked in `Critical` with its repair budget
    /// exhausted.
    pub parked: bool,
    /// Repair sessions consumed over the lifetime.
    pub repairs_used: usize,
    /// Test patterns still active at end of life (graceful degradation
    /// halves the budget after failed repairs).
    pub patterns_active: usize,
    /// Accuracy of the end-of-life device readback on the evaluation
    /// set.
    pub end_accuracy: f32,
    /// Accuracy of the same model as deployed, before any aging.
    pub deployed_accuracy: f32,
    /// Transient flips corrected in-situ (zero for the plain arm).
    pub soft_corrected: usize,
    /// Transient flips detected but not isolatable (left for the repair
    /// ladder).
    pub soft_uncorrectable: usize,
}

impl LifetimeArm {
    /// Fraction of the deployed accuracy still delivered at end of life.
    pub fn accuracy_retained(&self) -> f32 {
        if self.deployed_accuracy <= 0.0 {
            return 0.0;
        }
        self.end_accuracy / self.deployed_accuracy
    }
}

/// The full mitigation cost/benefit report.
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationReport {
    /// Campaign view: detection rate and accuracy under each fault
    /// class, per backend, for both model variants.
    pub campaign: Vec<CampaignArm>,
    /// Plain arm: plain model, scrubbing disabled.
    pub plain: LifetimeArm,
    /// Hardened arm: drop-connect model, scrubbing enabled, identical
    /// aging stream.
    pub hardened: LifetimeArm,
}

impl MitigationReport {
    /// Repair sessions the hardened arm avoided.
    pub fn repairs_avoided(&self) -> usize {
        self.plain.repairs_used.saturating_sub(self.hardened.repairs_used)
    }

    /// Test patterns the hardened arm kept that the plain arm lost to
    /// graceful degradation.
    pub fn patterns_saved(&self) -> usize {
        self.hardened.patterns_active.saturating_sub(self.plain.patterns_active)
    }

    /// End-of-life accuracy advantage of the hardened arm (fraction of
    /// the evaluation set, may be negative).
    pub fn accuracy_delta(&self) -> f32 {
        self.hardened.end_accuracy - self.plain.end_accuracy
    }

    /// Renders the report as aligned text tables plus a summary block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("mitigation campaign arms:\n");
        let mut table = TextTable::new(vec![
            "fault".into(),
            "backend".into(),
            "model".into(),
            "detection".into(),
            "clean acc".into(),
            "faulty acc".into(),
        ]);
        for arm in &self.campaign {
            table.push_row(vec![
                arm.fault.clone(),
                arm.backend.clone(),
                variant_label(arm.hardened).into(),
                format!("{:.4}", arm.detection_rate),
                percent(arm.clean_accuracy),
                percent(arm.faulty_accuracy),
            ]);
        }
        out.push_str(&table.render());
        out.push_str("mitigation lifetime arms:\n");
        let mut table = TextTable::new(vec![
            "arm".into(),
            "final state".into(),
            "repairs".into(),
            "patterns".into(),
            "end acc".into(),
            "retained".into(),
            "scrubbed".into(),
        ]);
        for arm in [&self.plain, &self.hardened] {
            table.push_row(vec![
                variant_label(arm.hardened).into(),
                arm.final_state.clone(),
                arm.repairs_used.to_string(),
                arm.patterns_active.to_string(),
                percent(arm.end_accuracy),
                percent(arm.accuracy_retained()),
                format!("{}+{}", arm.soft_corrected, arm.soft_uncorrectable),
            ]);
        }
        out.push_str(&table.render());
        out.push_str(&format!(
            "repairs avoided by hardening: {} of {}\n",
            self.repairs_avoided(),
            self.plain.repairs_used
        ));
        out.push_str(&format!("pattern budget saved: {}\n", self.patterns_saved()));
        out.push_str(&format!(
            "end-of-life accuracy: plain {} -> hardened {}\n",
            percent(self.plain.end_accuracy),
            percent(self.hardened.end_accuracy)
        ));
        out
    }
}

fn variant_label(hardened: bool) -> &'static str {
    if hardened { "hardened" } else { "plain" }
}

impl ToJson for CampaignArm {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("fault".to_owned(), Json::String(self.fault.clone())),
            ("backend".to_owned(), Json::String(self.backend.clone())),
            ("hardened".to_owned(), Json::Bool(self.hardened)),
            ("detection_rate".to_owned(), Json::Number(f64::from(self.detection_rate))),
            ("clean_accuracy".to_owned(), Json::Number(f64::from(self.clean_accuracy))),
            ("faulty_accuracy".to_owned(), Json::Number(f64::from(self.faulty_accuracy))),
        ])
    }
}

impl ToJson for LifetimeArm {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("hardened".to_owned(), Json::Bool(self.hardened)),
            ("final_state".to_owned(), Json::String(self.final_state.clone())),
            ("parked".to_owned(), Json::Bool(self.parked)),
            ("repairs_used".to_owned(), self.repairs_used.to_json()),
            ("patterns_active".to_owned(), self.patterns_active.to_json()),
            ("end_accuracy".to_owned(), Json::Number(f64::from(self.end_accuracy))),
            (
                "deployed_accuracy".to_owned(),
                Json::Number(f64::from(self.deployed_accuracy)),
            ),
            ("soft_corrected".to_owned(), self.soft_corrected.to_json()),
            ("soft_uncorrectable".to_owned(), self.soft_uncorrectable.to_json()),
        ])
    }
}

impl ToJson for MitigationReport {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("campaign".to_owned(), self.campaign.to_json()),
            ("plain".to_owned(), self.plain.to_json()),
            ("hardened".to_owned(), self.hardened.to_json()),
            ("repairs_avoided".to_owned(), self.repairs_avoided().to_json()),
            ("patterns_saved".to_owned(), self.patterns_saved().to_json()),
            ("accuracy_delta".to_owned(), Json::Number(f64::from(self.accuracy_delta()))),
        ])
    }
}

/// Runs the full mitigation analysis: campaign arms over every
/// `fault × backend × variant` cell, then the plain and hardened
/// lifetime arms under the identical aging stream.
///
/// `plain` and `hardened_model` must share an architecture; `patterns`
/// is the shared concurrent-test set (both lifetimes monitor with the
/// same budget so the pattern-savings column is comparable); `eval`
/// provides the labelled accuracy benchmark.
///
/// # Panics
///
/// Panics if the scenario fails [`MitigationScenario::validate`].
pub fn run_mitigation(
    plain: &Network,
    hardened_model: &Network,
    patterns: &TestPatternSet,
    eval: &TrainData,
    scenario: &MitigationScenario,
) -> MitigationReport {
    scenario.validate();
    let _analysis = tel::span("mitigation.analysis");

    let mut campaign = Vec::new();
    for (variant, hardened) in [(plain, false), (hardened_model, true)] {
        let clean_accuracy =
            accuracy(&mut variant.clone(), &eval.images, &eval.labels, EVAL_BATCH);
        let detector = Detector::new(variant, patterns.clone());
        for fault in &scenario.faults {
            let faulty_accuracy = mean_faulty_accuracy(variant, fault, eval, scenario);
            for spec in &scenario.backends {
                let rates = detector.detection_rates_with(
                    variant,
                    fault,
                    scenario.count,
                    scenario.seed,
                    &[SdcCriterion::SdcA { threshold: scenario.threshold }],
                    spec,
                );
                campaign.push(CampaignArm {
                    fault: fault.describe(),
                    backend: spec.kind.label().to_owned(),
                    hardened,
                    detection_rate: rates[0],
                    clean_accuracy,
                    faulty_accuracy,
                });
            }
        }
    }

    let plain_arm = run_lifetime_arm(plain, patterns, eval, scenario, false);
    let hardened_arm = run_lifetime_arm(hardened_model, patterns, eval, scenario, true);
    MitigationReport { campaign, plain: plain_arm, hardened: hardened_arm }
}

/// Mean evaluation-set accuracy over the campaign's faulty models
/// (weight-space: the fault streams match `FaultCampaign` exactly, so
/// the same models the detector judges are the ones scored here).
fn mean_faulty_accuracy(
    golden: &Network,
    fault: &FaultModel,
    eval: &TrainData,
    scenario: &MitigationScenario,
) -> f32 {
    let campaign = FaultCampaign::new(golden, scenario.seed);
    let total: f32 = campaign
        .models(fault, scenario.count)
        .map(|mut faulty| accuracy(&mut faulty, &eval.images, &eval.labels, EVAL_BATCH))
        .sum();
    total / scenario.count as f32
}

fn run_lifetime_arm(
    golden: &Network,
    patterns: &TestPatternSet,
    eval: &TrainData,
    scenario: &MitigationScenario,
    hardened: bool,
) -> LifetimeArm {
    let config = LifetimeConfig { hardened, ..scenario.lifetime };
    let deployed_accuracy =
        accuracy(&mut golden.clone(), &eval.images, &eval.labels, EVAL_BATCH);
    let mut runtime = LifetimeRuntime::new(golden, patterns.clone(), config, None);
    runtime.run(None);
    let end_accuracy =
        accuracy(&mut runtime.device_readback(), &eval.images, &eval.labels, EVAL_BATCH);
    LifetimeArm {
        hardened,
        final_state: runtime.state().label().to_owned(),
        parked: runtime.is_parked(),
        repairs_used: runtime.repairs_used(),
        patterns_active: runtime.active_patterns(),
        end_accuracy,
        deployed_accuracy,
        soft_corrected: runtime.soft_corrected(),
        soft_uncorrectable: runtime.soft_uncorrectable(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::MonitorPolicy;
    use crate::runtime::AgingModel;
    use healthmon_data::{DatasetSpec, SynthDigits};
    use healthmon_nn::models::tiny_mlp;
    use healthmon_nn::optim::Sgd;
    use healthmon_nn::{DropConnect, TrainConfig, Trainer};
    use healthmon_reram::CrossbarConfig;
    use healthmon_tensor::SeededRng;

    /// Trains a tiny plain/hardened model pair plus evaluation data and
    /// a shared pattern set. Pure function of its seeds.
    fn fixture() -> (Network, Network, TestPatternSet, TrainData) {
        let split = SynthDigits::new(DatasetSpec {
            train: 480,
            test: 320,
            seed: 5,
            ..Default::default()
        })
        .generate();
        let flat = |t: &healthmon_tensor::Tensor, n: usize| {
            t.reshape(&[n, 28 * 28]).expect("flatten preserves count")
        };
        let train_images = flat(&split.train.images, split.train.len());
        let test_images = flat(&split.test.images, split.test.len());

        let train = |dc: Option<DropConnect>| {
            let mut rng = SeededRng::new(3);
            let mut net = tiny_mlp(28 * 28, 24, 10, &mut rng);
            let config = TrainConfig {
                epochs: 8,
                batch_size: 32,
                verbose: false,
                drop_connect: dc,
                ..TrainConfig::default()
            };
            Trainer::new(&mut net, Sgd::new(0.05).momentum(0.9), config)
                .fit(&train_images, &split.train.labels, None);
            net
        };
        let plain = train(None);
        let hardened = train(Some(DropConnect::new(0.1).seeded(9)));
        let patterns = TestPatternSet::new("probe", test_images.clone()).truncated(8);
        let eval = TrainData { images: test_images, labels: split.test.labels.clone() };
        (plain, hardened, patterns, eval)
    }

    /// The probe-verified acceptance scenario: sparse transient flips
    /// the scrubbing runtime can fully correct, thresholds tight enough
    /// that the plain runtime burns its whole repair budget on them.
    fn scenario() -> MitigationScenario {
        MitigationScenario {
            seed: 2020,
            count: 4,
            threshold: 0.03,
            faults: vec![FaultModel::ProgrammingVariation { sigma: 0.4 }],
            backends: vec![BackendSpec::digital()],
            lifetime: LifetimeConfig {
                seed: 16,
                epochs: 6,
                aging: AgingModel {
                    drift_nu: 0.0,
                    drift_time: 1.0,
                    soft_error_p: 8e-5,
                    stuck_lambda: 0.0,
                },
                policy: MonitorPolicy {
                    watch_threshold: 1e-6,
                    critical_threshold: 1e-3,
                    escalation_count: 1,
                },
                crossbar: CrossbarConfig::exact(),
                repair_budget: 3,
                ..LifetimeConfig::default()
            },
        }
    }

    #[test]
    fn hardened_arm_strictly_beats_plain_ladder() {
        let (plain, hardened, patterns, eval) = fixture();
        let report = run_mitigation(&plain, &hardened, &patterns, &eval, &scenario());

        // The acceptance inequalities: under the identical aging stream
        // the hardened arm retains strictly more accuracy and consumes
        // strictly fewer repair sessions.
        assert!(
            report.hardened.repairs_used < report.plain.repairs_used,
            "hardened used {} repairs, plain {}",
            report.hardened.repairs_used,
            report.plain.repairs_used
        );
        assert!(
            report.hardened.end_accuracy > report.plain.end_accuracy,
            "hardened ended at {}, plain at {}",
            report.hardened.end_accuracy,
            report.plain.end_accuracy
        );
        assert!(
            report.hardened.accuracy_retained() >= report.plain.accuracy_retained(),
            "hardened retained {}, plain {}",
            report.hardened.accuracy_retained(),
            report.plain.accuracy_retained()
        );
        assert!(report.plain.parked, "plain ladder should exhaust its repair budget");
        assert!(!report.hardened.parked);
        assert!(report.hardened.soft_corrected > 0);
        assert_eq!(report.hardened.soft_uncorrectable, 0);
        assert!(report.repairs_avoided() > 0);
        assert!(report.accuracy_delta() > 0.0);
    }

    #[test]
    fn analysis_is_deterministic() {
        let (plain, hardened, patterns, eval) = fixture();
        let sc = scenario();
        let a = run_mitigation(&plain, &hardened, &patterns, &eval, &sc);
        let b = run_mitigation(&plain, &hardened, &patterns, &eval, &sc);
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert_eq!(
            healthmon_serdes::to_string(&a),
            healthmon_serdes::to_string(&b)
        );
    }

    #[test]
    fn campaign_covers_the_full_cross_product() {
        let (plain, hardened, patterns, eval) = fixture();
        let mut sc = scenario();
        sc.faults = vec![
            FaultModel::ProgrammingVariation { sigma: 0.4 },
            FaultModel::RandomSoftError { probability: 0.05 },
        ];
        sc.backends = vec![
            BackendSpec::digital(),
            BackendSpec::analog(CrossbarConfig::exact()),
        ];
        let report = run_mitigation(&plain, &hardened, &patterns, &eval, &sc);
        // 2 variants × 2 faults × 2 backends.
        assert_eq!(report.campaign.len(), 8);
        for arm in &report.campaign {
            assert!((0.0..=1.0).contains(&arm.detection_rate));
            assert!((0.0..=1.0).contains(&arm.clean_accuracy));
            assert!((0.0..=1.0).contains(&arm.faulty_accuracy));
        }
        let hardened_rows = report.campaign.iter().filter(|a| a.hardened).count();
        assert_eq!(hardened_rows, 4);
    }

    #[test]
    fn render_and_json_carry_the_summary() {
        let (plain, hardened, patterns, eval) = fixture();
        let report = run_mitigation(&plain, &hardened, &patterns, &eval, &scenario());
        let text = report.render();
        assert!(text.contains("mitigation campaign arms:"));
        assert!(text.contains("mitigation lifetime arms:"));
        assert!(text.contains("repairs avoided by hardening:"));
        assert!(text.contains("pattern budget saved:"));
        let json = healthmon_serdes::to_string(&report);
        for key in ["campaign", "plain", "hardened", "repairs_avoided", "accuracy_delta"] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key} in {json}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one fault class")]
    fn rejects_empty_fault_sweep() {
        let mut sc = scenario();
        sc.faults.clear();
        sc.validate();
    }
}

