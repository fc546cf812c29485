//! Micro-benchmarks for the numeric kernels underlying every experiment:
//! matmul, whole conv layers, max-pools, crossbar products vs ideal,
//! crossbar conv and dense layers, forward/backward passes, the repair
//! path's diagnosis and drift, deriving and programming campaign fault
//! models, the checkpoint store's codec, save and resume, and whole
//! training steps and C-TP selection.
//!
//! Runs on the in-tree [`healthmon_bench::timing`] harness
//! (`cargo bench --bench kernels`).

use healthmon::{
    diagnose, AgingModel, CtpGenerator, Detector, FleetConfig, FleetSupervisor, LifetimeConfig,
    LifetimeRuntime, TestPatternSet,
};
use healthmon_bench::timing::TimingHarness;
use healthmon_data::{DatasetSpec, SynthDigits};
use healthmon_faults::FaultModel;
use healthmon_nn::layers::{Conv2d, Layer, MaxPool2d, ResidualConv2d};
use healthmon_nn::models::{lenet5, mlp4, resnet8, tiny_mlp};
use healthmon_nn::optim::{Optimizer, Sgd};
use healthmon_nn::{zoo, DigitalEngine, Network, PatchMap, SoftmaxCrossEntropy};
use healthmon_reram::{
    AnalogBackend, BackendSpec, CellFault, Crossbar, CrossbarConfig, SlicedMatrix, TiledMatrix,
};
use healthmon_tensor::{SeededRng, Tensor};
use std::hint::black_box;

fn bench_matmul() {
    let mut group = TimingHarness::new("matmul");
    let mut rng = SeededRng::new(1);
    for &n in &[32usize, 128, 256, 512] {
        let a = Tensor::randn(&[n, n], &mut rng);
        let b = Tensor::randn(&[n, n], &mut rng);
        group.case(&format!("square/{n}"), || black_box(a.matmul(&b)));
    }
    // The conv layers' im2col GEMMs alone: weight [F, C·K·K] times
    // unfolded patches [C·K·K, N·OH·OW]. The product is only part of a
    // conv layer's cost; the `conv` group times the whole layer, unfold
    // and output gather included. Then the 40-model campaign's own
    // products (10 test patterns per model): its conv layers, a dense
    // layer (patterns [10, in] times weight [in, out]) and a 10-class
    // head. All have few output rows.
    for &(label, m, k, n) in &[
        ("lenet5_conv2_b16", 16usize, 150usize, 3136usize),
        ("convnet7_conv_b16", 32, 288, 4096),
        ("lenet5_conv0", 6, 25, 7840),
        ("convnet7_conv2", 16, 144, 10240),
        ("mlp4_fc0", 10, 784, 256),
        ("head_10class", 10, 84, 10),
    ] {
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        group.case(label, || black_box(a.matmul(&b)));
    }
    // The backprop companions at a dense-layer shape.
    let a = Tensor::randn(&[256, 120], &mut rng);
    let g = Tensor::randn(&[256, 64], &mut rng);
    group.case("matmul_at_dense", || black_box(a.matmul_at(&g)));
    let x = Tensor::randn(&[64, 120], &mut rng);
    group.case("matmul_bt_dense", || black_box(x.matmul_bt(&a)));
}

/// Whole conv layers at the campaign's shapes (10 test patterns per
/// model) through `Layer::infer` on the digital engine: the blocked
/// patch product (unfold a block of samples, GEMM), bias and output
/// gather. Every conv layer of lenet5 and convnet7, and one resnet8
/// residual block (two 3×3 convs and the identity add). Then one training
/// step of LeNet-5's padded first layer, whose backward folds the patch
/// gradient back with col2im.
fn bench_conv_layers() {
    let mut group = TimingHarness::new("conv");
    let mut rng = SeededRng::new(4);
    for &(label, c, f, k, p, hw) in &[
        ("lenet5_conv0_infer", 1usize, 6usize, 5usize, 2usize, 28usize),
        ("lenet5_conv3_infer", 6, 16, 5, 0, 14),
        ("convnet7_conv0_infer", 3, 16, 3, 1, 32),
        ("convnet7_conv2_infer", 16, 16, 3, 1, 32),
        ("convnet7_conv5_infer", 16, 32, 3, 1, 16),
        ("convnet7_conv7_infer", 32, 32, 3, 1, 16),
    ] {
        let conv = Conv2d::new(c, f, k, 1, p, &mut rng);
        let x = Tensor::rand_uniform(&[10, c, hw, hw], 0.0, 1.0, &mut rng);
        group.case(label, || black_box(conv.infer(&x, "layer0", &DigitalEngine)));
    }
    let block = ResidualConv2d::new(12, &mut rng);
    let x = Tensor::rand_uniform(&[10, 12, 16, 16], 0.0, 1.0, &mut rng);
    group.case("resnet8_block_infer", || black_box(block.infer(&x, "layer3", &DigitalEngine)));
    let mut conv = Conv2d::new(1, 6, 5, 1, 2, &mut rng);
    let x = Tensor::rand_uniform(&[16, 1, 28, 28], 0.0, 1.0, &mut rng);
    let g = Tensor::randn(&[16, 6, 28, 28], &mut rng);
    group.case("lenet5_conv0_forward_backward_b16", || {
        black_box(conv.forward(&x));
        black_box(conv.backward(&g))
    });
}

/// The zoo's 2×2 max-pools over post-ReLU maps at the campaign's 10
/// patterns: lenet5 layer 2, convnet7 layer 4, resnet8 layer 2.
fn bench_pools() {
    let mut group = TimingHarness::new("pool");
    let mut rng = SeededRng::new(9);
    let pool = MaxPool2d::new(2, 2);
    for &(label, c, hw) in &[
        ("lenet5_pool2_infer", 6usize, 28usize),
        ("convnet7_pool4_infer", 16, 32),
        ("resnet8_pool2_infer", 12, 32),
    ] {
        let x = Tensor::randn(&[10, c, hw, hw], &mut rng).map(|v| v.max(0.0));
        group.case(label, || black_box(pool.infer(&x, "layer0", &DigitalEngine)));
    }
}

fn bench_crossbar_matvec() {
    let mut group = TimingHarness::new("crossbar");
    let mut rng = SeededRng::new(2);
    let w = Tensor::randn(&[128, 128], &mut rng);
    // One input pattern, as a single-row batch.
    let x = Tensor::randn(&[1, 128], &mut rng).map(|v| v.clamp(-1.0, 1.0));

    let analog = Crossbar::program(&w, &CrossbarConfig::default(), &mut rng);
    group.case("tile_matvec_8bit_converters", || black_box(analog.matmul(&x)));

    let ideal = Crossbar::program(&w, &CrossbarConfig::ideal(), &mut rng);
    group.case("tile_matvec_ideal", || black_box(ideal.matmul(&x)));

    let wt = w.transpose();
    let xv = x.reshape(&[128]).expect("one row");
    group.case("digital_matvec_reference", || black_box(wt.matvec(&xv)));

    let big = Tensor::randn(&[512, 256], &mut rng);
    let bx = Tensor::randn(&[1, 512], &mut rng);
    let tiled = TiledMatrix::program(&big, &CrossbarConfig::default(), &mut rng);
    group.case("tiled_512x256_matvec", || black_box(tiled.matmul(&bx)));

    // Batched analog inference: an N-pattern test batch through the same
    // arrays, one product per tile instead of N single-row sweeps.
    let single = TiledMatrix::program(&w, &CrossbarConfig::default(), &mut rng);
    let batch = Tensor::randn(&[32, 128], &mut rng).map(|v| v.clamp(-1.0, 1.0));
    group.case("tiled_128x128_batch32", || black_box(single.matmul(&batch)));
    let big_batch = Tensor::randn(&[32, 512], &mut rng).map(|v| v.clamp(-1.0, 1.0));
    group.case("tiled_512x256_batch32", || black_box(tiled.matmul(&big_batch)));
}

/// A default-config matrix aged as the benchmark ages its checkup
/// devices (drift and stuck-low cells).
fn aged_matrix(w: &Tensor, rng: &mut SeededRng) -> SlicedMatrix {
    let mut matrix = SlicedMatrix::analog(w, &CrossbarConfig::default(), rng);
    for slice in matrix.slices_mut() {
        slice.drift(0.02, 1.0, rng);
        slice.inject_stuck_cells(CellFault::StuckLow, 0.001, rng);
    }
    matrix
}

/// Crossbar conv layers of the zoo models at the checkup's shapes (10
/// test patterns), each on an aged default-config matrix. Each layer runs
/// two routes to the same bits: the column-layout product on the finished
/// patch matrix, and the conv hook (input pixels quantized once, codes
/// unfolded).
fn bench_crossbar_conv() {
    let mut group = TimingHarness::new("crossbar_conv");
    let mut rng = SeededRng::new(5);
    // (label, channels, filters, kernel, padding, extent)
    for &(label, c, f, k, p, hw) in &[
        ("lenet5_conv0", 1usize, 6usize, 5usize, 2usize, 28usize),
        ("lenet5_conv3", 6, 16, 5, 0, 14),
        ("resnet8_block_conv", 12, 12, 3, 1, 16),
        ("convnet7_conv2", 16, 16, 3, 1, 32),
    ] {
        let map = PatchMap::new(&[10, c, hw, hw], k, 1, p);
        let w = Tensor::randn(&[map.rows(), f], &mut rng).map(|v| v * 0.3);
        let matrix = aged_matrix(&w, &mut rng);
        let x = Tensor::rand_uniform(&[10, c, hw, hw], 0.0, 1.0, &mut rng);
        group.case(&format!("{label}/cols"), || black_box(matrix.matmul_cols(&map.unfold(&x))));
        group.case(&format!("{label}/hook"), || black_box(matrix.matmul_patches(&x, &map)));
    }
}

/// Crossbar dense layers of the zoo models on an aged default-config
/// matrix, at the checkup's 10 patterns and at the 1–2 patterns a
/// lifetime whose pattern budget has degraded toward its minimum sends.
fn bench_crossbar_dense() {
    let mut group = TimingHarness::new("crossbar_dense");
    let mut rng = SeededRng::new(6);
    for &(label, m, n) in &[("mlp4_fc0", 784usize, 256usize), ("lenet5_fc0", 400, 120)] {
        let w = Tensor::randn(&[m, n], &mut rng).map(|v| v * 0.1);
        let matrix = aged_matrix(&w, &mut rng);
        for batch in [1usize, 2, 10] {
            let x = Tensor::rand_uniform(&[batch, m], 0.0, 1.0, &mut rng);
            group.case(&format!("{label}/batch{batch}"), || black_box(matrix.matmul(&x)));
        }
    }
}

fn bench_model_passes() {
    let mut group = TimingHarness::new("lenet5").samples(5);
    let mut rng = SeededRng::new(3);
    let mut net = lenet5(&mut rng);
    let batch = Tensor::rand_uniform(&[16, 1, 28, 28], 0.0, 1.0, &mut rng);
    group.case("forward_batch16", || black_box(net.forward(&batch)));
    let mut net2 = lenet5(&mut SeededRng::new(3));
    group.case("forward_backward_batch16", || {
        let out = net2.forward(&batch);
        net2.zero_grads();
        black_box(net2.backward(&Tensor::ones(out.shape())))
    });
}

/// The training path, a whole step per case: forward, backward and an
/// SGD-with-momentum update at batch 32 on four zoo models, and C-TP's
/// selection of 10 patterns from 200 lenet5 candidates, which ranks them
/// through `forward`.
fn bench_training() {
    let mut group = TimingHarness::new("train").samples(5);
    let mut rng = SeededRng::new(11);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    for name in ["lenet5", "resnet8", "mlp4", "attention"] {
        let spec = zoo::lookup(name).expect("zoo model");
        let mut net = spec.build(&mut rng);
        let mut shape = vec![32];
        shape.extend_from_slice(spec.input_shape);
        let x = Tensor::rand_uniform(&shape, 0.0, 1.0, &mut rng);
        let mut sgd = Sgd::new(0.01).momentum(0.9);
        group.case(&format!("sgd_step_{name}_b32"), || {
            net.zero_grads();
            let loss = SoftmaxCrossEntropy::with_labels(&net.forward(&x), &labels);
            net.backward(&loss.grad);
            sgd.step(&mut net);
        });
    }
    let pool = SynthDigits::new(DatasetSpec { train: 1, test: 200, seed: 5, noise: 0.1 })
        .generate()
        .test;
    let mut net = lenet5(&mut rng);
    group.case("ctp_select_10_of_200_lenet5", || {
        black_box(CtpGenerator::new(10).select(&mut net, &pool))
    });
}

/// A detector over 10 random patterns shaped for `net`.
fn detector_for(net: &Network, rng: &mut SeededRng) -> Detector {
    let mut shape = vec![10];
    shape.extend_from_slice(net.input_shape());
    let images = Tensor::rand_uniform(&shape, 0.0, 1.0, rng);
    Detector::new(net, TestPatternSet::new("bench", images))
}

/// The repair path at the checkup's 10 patterns: one diagnosis of an aged
/// device (a digital lenet5 with drifted weights and stuck-at-zero cells,
/// an analog default-config resnet8 aged like `aged_matrix`), and one
/// epoch of weight drift on a lenet5 that keeps aging.
fn bench_repair() {
    let mut group = TimingHarness::new("repair");
    let mut rng = SeededRng::new(7);
    let drift = FaultModel::Drift { nu: 0.02, time: 1.0 };

    let golden = lenet5(&mut rng);
    let detector = detector_for(&golden, &mut rng);
    let mut device = golden.clone();
    drift.apply(&mut device, &mut rng);
    FaultModel::StuckAt { sa0: 0.001, sa1: 0.0 }.apply(&mut device, &mut rng);
    group.case("diagnose/lenet5_digital", || black_box(diagnose(&detector, &golden, &device)));

    let golden = resnet8(&mut rng);
    let detector = detector_for(&golden, &mut rng);
    let spec = BackendSpec::analog(CrossbarConfig::default());
    let mut device = AnalogBackend::program(&golden, &spec, &mut rng);
    device.drift(0.02, 1.0, &mut rng);
    device.inject_stuck_cells(CellFault::StuckLow, 0.001, &mut rng);
    group.case("diagnose/resnet8_analog", || black_box(diagnose(&detector, &golden, &device)));

    let mut aging = lenet5(&mut rng);
    group.case("faults/drift_lenet5", || drift.apply(&mut aging, &mut rng));
}

/// What a crossbar campaign pays per fault model besides its test
/// inference: deriving the model (the golden weights copied, then σ = 0.3
/// programming variation or a campaign-scale drift applied) on lenet5 and
/// mlp4, the bulk normal sampler behind both, and programming: one
/// default-config 128×128 tile, a whole PV-faulted mlp4 on default-config
/// crossbars, and lenet5's first dense layer (400×120) bit-sliced at 8
/// bits over 4-bit cells.
fn bench_fault_path() {
    let mut rng = SeededRng::new(9);
    let pv = FaultModel::ProgrammingVariation { sigma: 0.3 };
    let drift = FaultModel::Drift { nu: 0.02, time: 1.0 };
    let golden_lenet5 = lenet5(&mut rng);
    let golden_mlp4 = mlp4(&mut rng);
    let mut group = TimingHarness::new("faults");
    for (label, fault, golden) in [
        ("pv_lenet5", &pv, &golden_lenet5),
        ("pv_mlp4", &pv, &golden_mlp4),
        ("drift_mlp4", &drift, &golden_mlp4),
    ] {
        let mut net = golden.clone();
        group.case(label, || {
            net.copy_params_from(golden);
            fault.apply(&mut net, &mut rng);
        });
    }

    let mut group = TimingHarness::new("rng");
    let mut buf = vec![0.0f32; 1 << 16];
    group.case("fill_normal_64k", || rng.fill_normal(black_box(&mut buf), 0.0, 1.0));

    let mut group = TimingHarness::new("crossbar");
    let config = CrossbarConfig::default();
    let w = Tensor::randn(&[128, 128], &mut rng).map(|v| v * 0.1);
    group.case("program_tile_128", || black_box(Crossbar::program(&w, &config, &mut rng)));
    let mut faulty = golden_mlp4.clone();
    pv.apply(&mut faulty, &mut rng);
    let spec = BackendSpec::analog(config);
    group.case("program_mlp4", || black_box(AnalogBackend::program(&faulty, &spec, &mut rng)));

    let mut group = TimingHarness::new("bitslice");
    let fc0 = golden_lenet5
        .state_dict()
        .into_iter()
        .find(|(key, t)| key.ends_with("weight") && t.shape() == [400, 120])
        .expect("lenet5's first dense layer maps 400 inputs to 120 outputs")
        .1;
    group.case("program_lenet5_fc0", || {
        black_box(SlicedMatrix::program(&fc0, 8, config.cell_bits, &config, &mut rng))
    });
}

/// The checkpoint store on the benchmark's `fleet_durable` fleet (250
/// tiny-MLP devices, seed 2020) after its first 4-epoch leg: one shard
/// parsed and rendered, the whole fleet saved and resumed; and one
/// lenet5 device checkpoint (about 1.2 MB) resumed.
fn bench_store() {
    let mut group = TimingHarness::new("store").samples(5);
    let mut rng = SeededRng::new(2020 ^ 0xF1EE7);
    let golden = tiny_mlp(16, 24, 6, &mut rng);
    let patterns = TestPatternSet::new("fleet-synth", Tensor::randn(&[8, 16], &mut rng));
    let aging = AgingModel { drift_nu: 0.05, drift_time: 1.0, ..AgingModel::default() };
    let config = FleetConfig {
        seed: 2020,
        devices: 250,
        device: LifetimeConfig { epochs: 12, aging, ..LifetimeConfig::default() },
        ..FleetConfig::default()
    };
    let mut fleet = FleetSupervisor::new(&golden, patterns.clone(), config).expect("valid fleet");
    fleet.run(Some(4));
    let dir = std::env::temp_dir().join("healthmon_bench_store");
    fleet.save_checkpoint(&dir).expect("the temp dir is writable");
    let shard = std::fs::read_to_string(dir.join("shard-000.json")).expect("shard 0 was written");
    let value = healthmon_serdes::parse(&shard).expect("the shard parses");
    group.case("serdes/parse_shard", || black_box(healthmon_serdes::parse(&shard)));
    group.case("serdes/render_shard", || black_box(value.render()));
    group.case("fleet/save_250", || fleet.save_checkpoint(&dir));
    group.case("fleet/resume_250", || {
        black_box(FleetSupervisor::resume(&golden, patterns.clone(), config, &dir))
    });
    std::fs::remove_dir_all(&dir).ok();

    let golden = lenet5(&mut rng);
    let images = Tensor::rand_uniform(&[10, 1, 28, 28], 0.0, 1.0, &mut rng);
    let patterns = TestPatternSet::new("bench", images);
    let config = LifetimeConfig::default();
    let mut runtime = LifetimeRuntime::new(&golden, patterns.clone(), config, None);
    runtime.run(Some(1));
    let checkpoint = runtime.checkpoint_json();
    group.case("lifetime/resume_lenet5", || {
        black_box(LifetimeRuntime::resume(&golden, patterns.clone(), config, None, &checkpoint))
    });
}

fn main() {
    bench_matmul();
    bench_conv_layers();
    bench_pools();
    bench_crossbar_matvec();
    bench_crossbar_conv();
    bench_crossbar_dense();
    bench_model_passes();
    bench_repair();
    bench_fault_path();
    bench_store();
    bench_training();
}
