//! Bit-for-bit pins of the detection campaign: the rates every public
//! campaign entry point of `Detector` returns, and every Stable
//! telemetry series each campaign records.
//!
//! A detection rate is the paper's headline number. The zoo campaign
//! goldens print two digital rates at four decimals; these pins hold the
//! exact bits of all six paper criteria on the digital, analog,
//! bit-sliced and IR-dropped backends, through the one-shot and the
//! resumable entry points, together with a digest of the Stable
//! counters, gauges and histograms of each campaign, so a change to how
//! a campaign sweeps its fault models that moves one verdict or one
//! counted work item fails here. The tables were captured from the
//! build that still kept three separate campaign sweeps.

use healthmon::{
    BackendSpec, CampaignCheckpoint, CrossbarConfig, Detector, SdcCriterion, TestPatternSet,
};
use healthmon_faults::FaultModel;
use healthmon_nn::{zoo, Network};
use healthmon_tensor::{SeededRng, Tensor};
use healthmon_telemetry as tel;

/// FNV-1a over the bytes folded in.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The campaigns pinned per model, in table order.
const CAMPAIGNS: [&str; 6] =
    ["detection_rates", "digital spec", "analog", "bitsliced 8-bit", "analog ir_drop", "resumable"];

/// Fault models per campaign.
const COUNT: usize = 8;
const SEED: u64 = 2020;

/// A zoo model's golden network and a detector over random patterns.
fn setup(name: &str) -> (Network, Detector) {
    let spec = zoo::lookup(name).expect("zoo model");
    let mut rng = SeededRng::new(31);
    let net = spec.build(&mut rng);
    let mut shape = vec![6];
    shape.extend_from_slice(spec.input_shape);
    let patterns = TestPatternSet::new("rand", Tensor::rand_uniform(&shape, 0.0, 1.0, &mut rng));
    let detector = Detector::new(&net, patterns);
    (net, detector)
}

/// Runs campaign `which` of [`CAMPAIGNS`] and returns its rates.
fn campaign(which: usize, net: &Network, detector: &Detector) -> Vec<f32> {
    let fault = FaultModel::ProgrammingVariation { sigma: 0.2 };
    let criteria = SdcCriterion::paper_suite();
    let with = |spec: BackendSpec| {
        detector.detection_rates_with(net, &fault, COUNT, SEED, &criteria, &spec)
    };
    match which {
        0 => detector.detection_rates(net, &fault, COUNT, SEED, &criteria),
        1 => with(BackendSpec::digital()),
        2 => with(BackendSpec::analog(CrossbarConfig::default())),
        3 => with(BackendSpec::bitsliced(CrossbarConfig::default(), 8)),
        4 => with(BackendSpec { ir_drop: 0.005, ..BackendSpec::analog(CrossbarConfig::default()) }),
        _ => {
            // Legs of 1, 3 and the rest, reloaded through JSON between
            // legs as an interrupted process would.
            let mut cp = CampaignCheckpoint::new(SEED, COUNT, &criteria);
            let mut rates = None;
            for budget in [Some(1), Some(3), None] {
                assert!(rates.is_none(), "sweep finished before its last leg");
                cp = CampaignCheckpoint::from_json_str(&cp.to_json_string()).unwrap();
                rates = detector
                    .detection_rates_resumable(net, &fault, &criteria, &mut cp, budget)
                    .unwrap();
            }
            rates.expect("the unbounded leg completes the sweep")
        }
    }
}

/// The JSONL lines of every Stable series recorded, sorted.
fn stable_lines(snapshot: &tel::MetricsSnapshot) -> Vec<String> {
    let mut lines: Vec<String> = tel::render_jsonl(snapshot)
        .lines()
        .filter(|l| l.contains("\"stable\":true"))
        .map(str::to_owned)
        .collect();
    lines.sort();
    lines
}

/// One campaign's pin: the `to_bits` of its six rates (in
/// `SdcCriterion::paper_suite` order) and a digest of its Stable
/// telemetry lines.
type Pin = ([u32; 6], u64);

/// Per model, one [`Pin`] per [`CAMPAIGNS`] entry.
#[rustfmt::skip]
const PINNED: [(&str, [Pin; 6]); 2] = [
    ("mlp", [
        ([0x3f000000, 0x3f800000, 0x3f200000, 0x3e000000, 0x00000000, 0x00000000],
            0xdd0eb155103d4b49),
        ([0x3f000000, 0x3f800000, 0x3f200000, 0x3e000000, 0x00000000, 0x00000000],
            0xdd0eb155103d4b49),
        ([0x3f400000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f400000, 0x00000000],
            0x49c49f8f79f34312),
        ([0x3e800000, 0x3f800000, 0x3f800000, 0x3f400000, 0x3f400000, 0x00000000],
            0x725ef6b9050ab2c9),
        ([0x3f200000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f600000, 0x00000000],
            0x8d75df82b4a6da4a),
        ([0x3f000000, 0x3f800000, 0x3f200000, 0x3e000000, 0x00000000, 0x00000000],
            0x1b172c3aeb9c22d7),
    ]),
    ("lenet5", [
        ([0x3ec00000, 0x3f400000, 0x3f600000, 0x3f000000, 0x3f600000, 0x3e000000],
            0x2c0c3ebdc64c3a95),
        ([0x3ec00000, 0x3f400000, 0x3f600000, 0x3f000000, 0x3f600000, 0x3e000000],
            0x2c0c3ebdc64c3a95),
        ([0x3ec00000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f600000],
            0xfa6ea9c7d9ac2936),
        ([0x3f400000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f200000],
            0x5ca51525bea2d371),
        ([0x3f400000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f600000],
            0x9b964cc339141b54),
        ([0x3ec00000, 0x3f400000, 0x3f600000, 0x3f000000, 0x3f600000, 0x3e000000],
            0xb082d15ccb330913),
    ]),
];

#[test]
fn campaigns_return_their_pinned_rates_and_stable_telemetry() {
    let mut failures = Vec::new();
    for (name, pinned) in &PINNED {
        let (net, detector) = setup(name);
        for (which, &(want_rates, want_digest)) in pinned.iter().enumerate() {
            tel::reset();
            tel::set_enabled(true);
            let rates = campaign(which, &net, &detector);
            let snapshot = tel::snapshot();
            tel::set_enabled(false);
            let bits: Vec<u32> = rates.iter().map(|r| r.to_bits()).collect();
            let lines = stable_lines(&snapshot);
            let mut h = Fnv::new();
            for line in &lines {
                h.bytes(line.as_bytes());
                h.bytes(b"\n");
            }
            let what = format!("{name}, {}", CAMPAIGNS[which]);
            if bits != want_rates {
                failures.push(format!("{what}: rates {rates:?}, bits {bits:#010x?}"));
            }
            if h.0 != want_digest {
                failures.push(format!(
                    "{what}: stable digest 0x{:016x} over\n  {}",
                    h.0,
                    lines.join("\n  ")
                ));
            }
        }
    }
    assert!(failures.is_empty(), "campaign path moved:\n{}", failures.join("\n"));
}
