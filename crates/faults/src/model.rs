//! The fault model taxonomy and its weight-space semantics.

use healthmon_nn::Network;
use healthmon_serdes::{FromJson, Json, JsonError, ToJson};
use healthmon_tensor::{fastmath, SeededRng, Tensor};
use healthmon_telemetry as tel;

// Fault application counts are functions of (model, seed, index) only —
// RNG streams are per-index, never per-thread — so they are Stable.
static PV_APPLIED: tel::Counter = tel::Counter::new("faults.pv.applied", tel::Stability::Stable);
static SOFT_ERROR_FLIPS: tel::Counter =
    tel::Counter::new("faults.soft_error.flips", tel::Stability::Stable);
static STUCK_AT_CELLS: tel::Counter =
    tel::Counter::new("faults.stuck_at.cells", tel::Stability::Stable);
static DRIFT_APPLIED: tel::Counter =
    tel::Counter::new("faults.drift.applied", tel::Stability::Stable);

/// A device-error model applied to a network's ReRAM-mapped weights.
///
/// All models act on parameters whose state-dict key ends in `weight`
/// (conductance-mapped values); biases are implemented in CMOS periphery
/// on the accelerators the paper targets and are left untouched.
///
/// Each variant is deterministic given the injection RNG, serializable,
/// and composable through [`FaultModel::Compound`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultModel {
    /// Programming variation: `w' = w · e^θ` with `θ ~ N(0, σ²)` — the
    /// lognormal multiplicative error of imprecise conductance writes
    /// (paper §II-B / §IV-A).
    ProgrammingVariation {
        /// Noise intensity σ of the underlying normal.
        sigma: f32,
    },
    /// Random soft error: each weight is independently corrupted with
    /// probability `p`. A corrupted weight is replaced by a uniform draw
    /// over `[-m, m]` where `m` is the max |w| of its tensor — the
    /// weight-space image of a conductance state flipping to an arbitrary
    /// level (paper §IV-A).
    RandomSoftError {
        /// Per-weight corruption probability.
        probability: f64,
    },
    /// Stuck-at faults: a fraction `sa0` of cells freeze in the
    /// high-resistance state (weight → 0) and a fraction `sa1` in the
    /// low-resistance state (weight → ±max|w| of the tensor, keeping the
    /// sign of the original value).
    StuckAt {
        /// Fraction of cells stuck at zero conductance.
        sa0: f64,
        /// Fraction of cells stuck at full conductance.
        sa1: f64,
    },
    /// Resistance drift: monotone conductance decay over time,
    /// `w' = w · e^(−ν·t)` with per-cell `ν ~ |N(0, nu)|`. `time` is in
    /// arbitrary units; `t = 0` is the identity.
    Drift {
        /// Scale of the per-cell drift-rate distribution.
        nu: f32,
        /// Elapsed time in arbitrary units.
        time: f32,
    },
    /// Sequential composition: applies each member in order with
    /// independent RNG streams (e.g. programming variation at deployment
    /// followed by drift in the field).
    Compound(
        /// Members applied first-to-last.
        Vec<FaultModel>,
    ),
}

impl FaultModel {
    /// Applies the fault model to `net` in place, drawing randomness from
    /// `rng`.
    ///
    /// # Panics
    ///
    /// Panics if a parameter of the model is out of range (negative σ,
    /// probability outside `[0, 1]`, `sa0 + sa1 > 1`, or negative drift
    /// parameters).
    pub fn apply(&self, net: &mut Network, rng: &mut SeededRng) {
        self.validate();
        match self {
            FaultModel::ProgrammingVariation { sigma } => {
                // The block sampler applies w·e^θ as it draws each θ: the
                // dominant cost of a fault campaign, and several times
                // faster than a per-weight `lognormal()` call.
                for_each_weight(net, |t| {
                    rng.apply_normal(t.as_mut_slice(), 0.0, *sigma, pv_update);
                });
                PV_APPLIED.inc();
            }
            FaultModel::RandomSoftError { probability } => {
                let mut flips = 0u64;
                for_each_weight(net, |t| {
                    let m = max_abs(t);
                    if m == 0.0 {
                        return;
                    }
                    for w in t.as_mut_slice() {
                        if rng.chance(*probability) {
                            *w = rng.uniform(-m, m);
                            flips += 1;
                        }
                    }
                });
                SOFT_ERROR_FLIPS.add(flips);
            }
            FaultModel::StuckAt { sa0, sa1 } => {
                let mut stuck = 0u64;
                for_each_weight(net, |t| {
                    let m = max_abs(t);
                    for w in t.as_mut_slice() {
                        let u = rng.unit() as f64;
                        if u < *sa0 {
                            *w = 0.0;
                            stuck += 1;
                        } else if u < sa0 + sa1 {
                            *w = if *w >= 0.0 { m } else { -m };
                            stuck += 1;
                        }
                    }
                });
                STUCK_AT_CELLS.add(stuck);
            }
            FaultModel::Drift { nu, time } => {
                // `time` by value: read through a captured reference, the
                // per-weight update would not vectorize.
                let time = *time;
                for_each_weight(net, |t| {
                    let update = move |w, z| drift_update(w, z, time);
                    rng.apply_normal(t.as_mut_slice(), 0.0, *nu, update);
                });
                DRIFT_APPLIED.inc();
            }
            FaultModel::Compound(members) => {
                for (i, member) in members.iter().enumerate() {
                    let mut stream = rng.fork(i as u64);
                    member.apply(net, &mut stream);
                }
            }
        }
    }

    /// A short human-readable descriptor, e.g. `pv(sigma=0.20)`.
    pub fn describe(&self) -> String {
        match self {
            FaultModel::ProgrammingVariation { sigma } => format!("pv(sigma={sigma:.2})"),
            FaultModel::RandomSoftError { probability } => format!("soft(p={probability})"),
            FaultModel::StuckAt { sa0, sa1 } => format!("stuck(sa0={sa0},sa1={sa1})"),
            FaultModel::Drift { nu, time } => format!("drift(nu={nu},t={time})"),
            FaultModel::Compound(members) => {
                let inner: Vec<String> = members.iter().map(|m| m.describe()).collect();
                format!("compound[{}]", inner.join("+"))
            }
        }
    }

    fn validate(&self) {
        match self {
            FaultModel::ProgrammingVariation { sigma } => {
                assert!(*sigma >= 0.0, "sigma must be non-negative, got {sigma}");
            }
            FaultModel::RandomSoftError { probability } => {
                assert!(
                    (0.0..=1.0).contains(probability),
                    "probability {probability} outside [0, 1]"
                );
            }
            FaultModel::StuckAt { sa0, sa1 } => {
                assert!(*sa0 >= 0.0 && *sa1 >= 0.0 && sa0 + sa1 <= 1.0,
                    "stuck-at fractions must be non-negative and sum to at most 1, got sa0={sa0}, sa1={sa1}");
            }
            FaultModel::Drift { nu, time } => {
                assert!(*nu >= 0.0 && *time >= 0.0, "drift parameters must be non-negative");
            }
            FaultModel::Compound(_) => {}
        }
    }
}

// Externally-tagged encoding, matching what the previous serde derive
// produced: `{"ProgrammingVariation":{"sigma":0.2}}`,
// `{"Compound":[...]}` — so recorded campaign configs keep loading.
impl ToJson for FaultModel {
    fn to_json(&self) -> Json {
        let (tag, body) = match self {
            FaultModel::ProgrammingVariation { sigma } => (
                "ProgrammingVariation",
                Json::Object(vec![("sigma".to_owned(), sigma.to_json())]),
            ),
            FaultModel::RandomSoftError { probability } => (
                "RandomSoftError",
                Json::Object(vec![("probability".to_owned(), probability.to_json())]),
            ),
            FaultModel::StuckAt { sa0, sa1 } => (
                "StuckAt",
                Json::Object(vec![
                    ("sa0".to_owned(), sa0.to_json()),
                    ("sa1".to_owned(), sa1.to_json()),
                ]),
            ),
            FaultModel::Drift { nu, time } => (
                "Drift",
                Json::Object(vec![
                    ("nu".to_owned(), nu.to_json()),
                    ("time".to_owned(), time.to_json()),
                ]),
            ),
            FaultModel::Compound(members) => ("Compound", members.to_json()),
        };
        Json::Object(vec![(tag.to_owned(), body)])
    }
}

impl FromJson for FaultModel {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let Json::Object(fields) = value else {
            return Err(JsonError::type_error("fault model object", value));
        };
        let [(tag, body)] = fields.as_slice() else {
            return Err(JsonError::invalid(format!(
                "fault model must have exactly one variant tag, got {} fields",
                fields.len()
            )));
        };
        match tag.as_str() {
            "ProgrammingVariation" => Ok(FaultModel::ProgrammingVariation {
                sigma: f32::from_json(body.field("sigma")?)?,
            }),
            "RandomSoftError" => Ok(FaultModel::RandomSoftError {
                probability: f64::from_json(body.field("probability")?)?,
            }),
            "StuckAt" => Ok(FaultModel::StuckAt {
                sa0: f64::from_json(body.field("sa0")?)?,
                sa1: f64::from_json(body.field("sa1")?)?,
            }),
            "Drift" => Ok(FaultModel::Drift {
                nu: f32::from_json(body.field("nu")?)?,
                time: f32::from_json(body.field("time")?)?,
            }),
            "Compound" => Ok(FaultModel::Compound(Vec::from_json(body)?)),
            other => Err(JsonError::invalid(format!("unknown fault model variant `{other}`"))),
        }
    }
}

/// Programming variation's per-weight update: `w·e^θ`.
#[inline(always)]
fn pv_update(w: f32, theta: f32) -> f32 {
    w * fastmath::exp(theta)
}

/// Drift's per-weight update for rate draw `z`: `w·e^(−|z|·t)`.
#[inline(always)]
fn drift_update(w: f32, z: f32, time: f32) -> f32 {
    w * fastmath::exp(-z.abs() * time)
}

/// Applies `f` to every conductance-mapped parameter tensor (keys ending
/// in `weight`).
fn for_each_weight(net: &mut Network, mut f: impl FnMut(&mut Tensor)) {
    net.for_each_param_mut(|key, t| {
        if key.ends_with("weight") {
            f(t);
        }
    });
}

fn max_abs(t: &Tensor) -> f32 {
    t.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use healthmon_nn::models::tiny_mlp;
    use healthmon_tensor::simd::Tier;

    fn golden() -> Network {
        let mut rng = SeededRng::new(7);
        tiny_mlp(6, 12, 4, &mut rng)
    }

    fn weight_vec(net: &Network) -> Vec<f32> {
        let mut v = Vec::new();
        net.for_each_param(|k, t| {
            if k.ends_with("weight") {
                v.extend_from_slice(t.as_slice());
            }
        });
        v
    }

    fn bias_vec(net: &Network) -> Vec<f32> {
        let mut v = Vec::new();
        net.for_each_param(|k, t| {
            if k.ends_with("bias") {
                v.extend_from_slice(t.as_slice());
            }
        });
        v
    }

    #[test]
    fn programming_variation_is_multiplicative_and_sign_preserving() {
        let mut net = golden();
        let before = weight_vec(&net);
        FaultModel::ProgrammingVariation { sigma: 0.3 }.apply(&mut net, &mut SeededRng::new(1));
        let after = weight_vec(&net);
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.signum(), a.signum(), "lognormal factor must preserve sign");
            if *b != 0.0 {
                let factor = a / b;
                assert!(factor > 0.0 && factor < 10.0, "implausible factor {factor}");
            }
        }
    }

    #[test]
    fn zero_sigma_is_identity() {
        let mut net = golden();
        let before = weight_vec(&net);
        FaultModel::ProgrammingVariation { sigma: 0.0 }.apply(&mut net, &mut SeededRng::new(1));
        assert_eq!(before, weight_vec(&net));
    }

    #[test]
    fn biases_untouched_by_all_models() {
        for model in [
            FaultModel::ProgrammingVariation { sigma: 0.5 },
            FaultModel::RandomSoftError { probability: 0.5 },
            FaultModel::StuckAt { sa0: 0.3, sa1: 0.3 },
            FaultModel::Drift { nu: 0.5, time: 2.0 },
        ] {
            let mut net = golden();
            // Make biases non-zero first so "untouched" is meaningful.
            net.for_each_param_mut(|k, t| {
                if k.ends_with("bias") {
                    t.map_inplace(|_| 0.25);
                }
            });
            let before = bias_vec(&net);
            model.apply(&mut net, &mut SeededRng::new(2));
            assert_eq!(before, bias_vec(&net), "{} touched biases", model.describe());
        }
    }

    #[test]
    fn soft_error_corrupts_roughly_p_fraction() {
        let mut net = golden();
        let before = weight_vec(&net);
        FaultModel::RandomSoftError { probability: 0.2 }.apply(&mut net, &mut SeededRng::new(3));
        let after = weight_vec(&net);
        let changed = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        let frac = changed as f64 / before.len() as f64;
        assert!((0.1..0.3).contains(&frac), "corrupted fraction {frac}");
    }

    #[test]
    fn soft_error_zero_probability_is_identity() {
        let mut net = golden();
        let before = weight_vec(&net);
        FaultModel::RandomSoftError { probability: 0.0 }.apply(&mut net, &mut SeededRng::new(3));
        assert_eq!(before, weight_vec(&net));
    }

    #[test]
    fn stuck_at_produces_extremes() {
        let mut net = golden();
        FaultModel::StuckAt { sa0: 0.5, sa1: 0.5 }.apply(&mut net, &mut SeededRng::new(4));
        // With sa0+sa1 = 1 every weight is either 0 or ±max.
        net.for_each_param(|k, t| {
            if k.ends_with("weight") {
                let m = t.as_slice().iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
                for &w in t.as_slice() {
                    assert!(w == 0.0 || w.abs() == m, "weight {w} neither stuck-at-0 nor ±{m}");
                }
            }
        });
    }

    #[test]
    fn drift_shrinks_magnitudes_monotonically() {
        let mut net = golden();
        let before: f32 = weight_vec(&net).iter().map(|v| v.abs()).sum();
        FaultModel::Drift { nu: 0.3, time: 1.0 }.apply(&mut net, &mut SeededRng::new(5));
        let mid: f32 = weight_vec(&net).iter().map(|v| v.abs()).sum();
        FaultModel::Drift { nu: 0.3, time: 1.0 }.apply(&mut net, &mut SeededRng::new(6));
        let after: f32 = weight_vec(&net).iter().map(|v| v.abs()).sum();
        assert!(mid < before && after < mid, "drift must decay: {before} -> {mid} -> {after}");
    }

    /// Programming variation as it was before the sampler took its
    /// update: one `fill_lognormal` per weight tensor into a factor
    /// buffer, then `w *= f`.
    fn two_pass_pv(net: &mut Network, sigma: f32, rng: &mut SeededRng) {
        for_each_weight(net, |t| {
            let mut factors = vec![0.0; t.len()];
            rng.fill_lognormal(&mut factors, 0.0, sigma);
            for (w, &f) in t.as_mut_slice().iter_mut().zip(&factors) {
                *w *= f;
            }
        });
    }

    /// Every parameter bit of `net`.
    fn all_bits(net: &Network) -> Vec<u32> {
        let mut v = Vec::new();
        net.for_each_param(|_, t| v.extend(t.as_slice().iter().map(|w| w.to_bits())));
        v
    }

    /// A tiny network whose weights include NaN, ±∞, −0.0, +0.0 and
    /// subnormals.
    fn special_valued() -> Network {
        let mut net = golden();
        let tiny = f32::from_bits(1);
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, tiny, -tiny];
        net.for_each_param_mut(|k, t| {
            if k.ends_with("weight") {
                for (w, &v) in t.as_mut_slice().iter_mut().step_by(5).zip(specials.iter().cycle()) {
                    *w = v;
                }
            }
        });
        net
    }

    /// Programming variation and drift, fused into the block sampler, on
    /// every zoo model and on special values: through `FaultModel::apply`
    /// and with the fused update built for each tier by name, every
    /// weight bit and the stream position match the two-pass references.
    #[test]
    fn fused_pv_and_drift_match_their_two_pass_references_on_every_tier() {
        let mut nets: Vec<Network> = healthmon_nn::zoo::ZOO
            .iter()
            .enumerate()
            .map(|(i, spec)| spec.build(&mut SeededRng::new(90 + i as u64)))
            .collect();
        nets.push(special_valued());
        let tiers = Tier::runnable(&Tier::ALL);
        for (n, net) in nets.iter().enumerate() {
            for seed in [3u64, 4] {
                for sigma in [0.0f32, 0.3] {
                    let (mut want, mut want_rng) = (net.clone(), SeededRng::new(seed));
                    two_pass_pv(&mut want, sigma, &mut want_rng);
                    let (mut got, mut rng) = (net.clone(), SeededRng::new(seed));
                    FaultModel::ProgrammingVariation { sigma }.apply(&mut got, &mut rng);
                    let what = format!("net {n}, seed {seed}, pv sigma {sigma}");
                    assert_eq!(all_bits(&got), all_bits(&want), "{what}");
                    assert_eq!(rng.unit(), want_rng.unit(), "{what}: stream");
                    for &tier in &tiers {
                        let (mut got, mut rng) = (net.clone(), SeededRng::new(seed));
                        for_each_weight(&mut got, |t| {
                            rng.apply_normal_on(tier, t.as_mut_slice(), 0.0, sigma, pv_update)
                        });
                        assert_eq!(all_bits(&got), all_bits(&want), "{what}, {tier:?}");
                    }
                }
                for (nu, time) in [(0.02f32, 1.0f32), (1.5, 40.0)] {
                    let (mut want, mut want_rng) = (net.clone(), SeededRng::new(seed));
                    scalar_drift(&mut want, nu, time, &mut want_rng);
                    let what = format!("net {n}, seed {seed}, drift({nu}, {time})");
                    for &tier in &tiers {
                        let (mut got, mut rng) = (net.clone(), SeededRng::new(seed));
                        for_each_weight(&mut got, |t| {
                            let update = move |w, z| drift_update(w, z, time);
                            rng.apply_normal_on(tier, t.as_mut_slice(), 0.0, nu, update)
                        });
                        assert_eq!(all_bits(&got), all_bits(&want), "{what}, {tier:?}");
                        assert_eq!(rng.unit(), SeededRng::clone(&want_rng).unit(), "{what}");
                    }
                }
            }
        }
    }

    /// `Drift` as a plain scalar loop: one `fill_normal` draw per weight
    /// tensor, then `w *= exp(-|z|·t)` one element at a time (`black_box`
    /// keeps the compiler from vectorizing it).
    fn scalar_drift(net: &mut Network, nu: f32, time: f32, rng: &mut SeededRng) {
        for_each_weight(net, |t| {
            let mut rates = vec![0.0; t.len()];
            rng.fill_normal(&mut rates, 0.0, nu);
            for (i, w) in t.as_mut_slice().iter_mut().enumerate() {
                let z = std::hint::black_box(rates[i]);
                *w *= fastmath::exp(-z.abs() * time);
            }
        });
    }

    #[test]
    fn drift_matches_a_scalar_loop_bit_for_bit() {
        let lenet5 = healthmon_nn::models::lenet5(&mut SeededRng::new(8));
        for net in [golden(), lenet5] {
            for (nu, time) in [(0.02, 1.0), (0.3, 2.5), (1.5, 40.0)] {
                let (mut fast, mut slow) = (net.clone(), net.clone());
                let (mut fast_rng, mut slow_rng) = (SeededRng::new(12), SeededRng::new(12));
                FaultModel::Drift { nu, time }.apply(&mut fast, &mut fast_rng);
                scalar_drift(&mut slow, nu, time, &mut slow_rng);
                let bits = |n: &Network| -> Vec<u32> {
                    let mut v = Vec::new();
                    n.for_each_param(|_, t| v.extend(t.as_slice().iter().map(|w| w.to_bits())));
                    v
                };
                assert_eq!(bits(&fast), bits(&slow), "drift(nu={nu}, t={time})");
                assert_eq!(fast_rng.unit(), slow_rng.unit(), "RNG streams diverged");
            }
        }
    }

    #[test]
    fn drift_zero_time_is_identity() {
        let mut net = golden();
        let before = weight_vec(&net);
        FaultModel::Drift { nu: 0.3, time: 0.0 }.apply(&mut net, &mut SeededRng::new(5));
        assert_eq!(before, weight_vec(&net));
    }

    #[test]
    fn compound_applies_all_members() {
        let mut net = golden();
        let before = weight_vec(&net);
        FaultModel::Compound(vec![
            FaultModel::ProgrammingVariation { sigma: 0.1 },
            FaultModel::StuckAt { sa0: 0.1, sa1: 0.0 },
        ])
        .apply(&mut net, &mut SeededRng::new(7));
        let after = weight_vec(&net);
        assert_ne!(before, after);
        // Stuck-at-zero member must have produced some exact zeros.
        assert!(after.iter().filter(|&&v| v == 0.0).count() > before.iter().filter(|&&v| v == 0.0).count());
    }

    #[test]
    fn application_is_deterministic() {
        let model = FaultModel::ProgrammingVariation { sigma: 0.25 };
        let mut a = golden();
        let mut b = golden();
        model.apply(&mut a, &mut SeededRng::new(11));
        model.apply(&mut b, &mut SeededRng::new(11));
        assert_eq!(weight_vec(&a), weight_vec(&b));
    }

    #[test]
    fn serde_round_trip() {
        let model = FaultModel::Compound(vec![
            FaultModel::ProgrammingVariation { sigma: 0.2 },
            FaultModel::RandomSoftError { probability: 0.01 },
        ]);
        let json = healthmon_serdes::to_string(&model);
        let back: FaultModel = healthmon_serdes::from_str(&json).unwrap();
        assert_eq!(model, back);
    }

    #[test]
    fn legacy_serde_tagging_loads() {
        // Exactly the externally-tagged layout the old serde derive wrote.
        let json = "{\"Compound\":[{\"ProgrammingVariation\":{\"sigma\":0.2}},\
                     {\"StuckAt\":{\"sa0\":0.1,\"sa1\":0.05}}]}";
        let model: FaultModel = healthmon_serdes::from_str(json).unwrap();
        assert_eq!(
            model,
            FaultModel::Compound(vec![
                FaultModel::ProgrammingVariation { sigma: 0.2 },
                FaultModel::StuckAt { sa0: 0.1, sa1: 0.05 },
            ])
        );
        assert!(healthmon_serdes::from_str::<FaultModel>("{\"NoSuchFault\":{}}").is_err());
    }

    #[test]
    fn describe_is_informative() {
        assert_eq!(
            FaultModel::ProgrammingVariation { sigma: 0.2 }.describe(),
            "pv(sigma=0.20)"
        );
        assert!(FaultModel::Compound(vec![FaultModel::Drift { nu: 0.1, time: 1.0 }])
            .describe()
            .contains("drift"));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_bad_probability() {
        FaultModel::RandomSoftError { probability: 1.5 }
            .apply(&mut golden(), &mut SeededRng::new(0));
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn rejects_bad_stuck_fractions() {
        FaultModel::StuckAt { sa0: 0.7, sa1: 0.7 }.apply(&mut golden(), &mut SeededRng::new(0));
    }
}
