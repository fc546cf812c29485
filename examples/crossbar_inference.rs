//! Crossbar-level deployment: what the analog arrays do to a trained
//! model.
//!
//! Trains a small digit classifier, deploys it onto simulated ReRAM
//! crossbars at several cell precisions and write-noise levels, and
//! reports the resulting accuracy — then injects stuck-at cells tile by
//! tile and shows a single-row crossbar product with DAC/ADC quantization.
//!
//! Run with:
//! ```sh
//! cargo run --release -p healthmon --example crossbar_inference
//! ```

use healthmon_data::{DatasetSpec, SynthDigits};
use healthmon_nn::models::tiny_mlp;
use healthmon_nn::optim::Sgd;
use healthmon_nn::{TrainConfig, Trainer};
use healthmon_reram::{deploy, CellFault, Crossbar, CrossbarConfig, TiledMatrix};
use healthmon_tensor::{SeededRng, Tensor};

fn main() {
    let spec = DatasetSpec { train: 1500, test: 300, seed: 11, noise: 0.10 };
    let split = SynthDigits::new(spec).generate();
    let n_pixels = 28 * 28;
    let flat_train = split.train.images.reshape(&[split.train.len(), n_pixels]).expect("flatten");
    let flat_test = split.test.images.reshape(&[split.test.len(), n_pixels]).expect("flatten");

    let mut rng = SeededRng::new(1);
    let mut model = tiny_mlp(n_pixels, 48, 10, &mut rng);
    println!("training ...");
    let config = TrainConfig { epochs: 4, batch_size: 32, ..TrainConfig::default() };
    Trainer::new(&mut model, Sgd::new(0.1).momentum(0.9), config).fit(
        &flat_train,
        &split.train.labels,
        None,
    );
    let ideal_acc =
        healthmon_nn::trainer::accuracy(&mut model, &flat_test, &split.test.labels, 64);
    println!("ideal (digital) accuracy: {:.1}%\n", ideal_acc * 100.0);

    // --- Deployment sweep: cell precision and write noise ------------------
    println!("cell_bits | write_noise | tiles | mapping L1 error | accuracy");
    println!("----------+-------------+-------+------------------+---------");
    for (cell_bits, write_noise) in [(16u32, 0.0f32), (6, 0.0), (4, 0.0), (2, 0.0), (4, 0.05), (4, 0.15)] {
        let config = CrossbarConfig { cell_bits, write_noise, ..CrossbarConfig::default() };
        let mut deploy_rng = SeededRng::new(9);
        let (mut deployed, report) = deploy(&model, &config, &mut deploy_rng);
        let acc = healthmon_nn::trainer::accuracy(
            &mut deployed,
            &flat_test,
            &split.test.labels,
            64,
        );
        println!(
            "{cell_bits:>9} | {write_noise:>11.2} | {:>5} | {:>16.2} | {:>7.1}%",
            report.total_tiles(),
            report.total_error_l1(),
            acc * 100.0
        );
    }

    // --- Endurance failures: stuck cells on the deployed arrays ------------
    println!("\nstuck-at-zero cells vs accuracy (4-bit cells):");
    for fraction in [0.0f64, 0.01, 0.05, 0.1, 0.2] {
        let config = CrossbarConfig { cell_bits: 4, ..CrossbarConfig::default() };
        let mut deploy_rng = SeededRng::new(9);
        // Map the first dense layer manually so faults hit the tiles.
        let dict = model.state_dict();
        let (_, w0) = &dict[0];
        let mut tiled = TiledMatrix::program(w0, &config, &mut deploy_rng);
        tiled.inject_stuck_cells(CellFault::StuckLow, fraction, &mut deploy_rng);
        let realized = tiled.effective_weights();
        let mut faulty = model.clone();
        let mut replaced = false;
        faulty.for_each_param_mut(|key, t| {
            if key == "layer0.weight" && !replaced {
                *t = realized.clone();
                replaced = true;
            }
        });
        let acc = healthmon_nn::trainer::accuracy(
            &mut faulty,
            &flat_test,
            &split.test.labels,
            64,
        );
        println!("  {:>5.1}% stuck -> accuracy {:>5.1}%", fraction * 100.0, acc * 100.0);
    }

    // --- One analog dot product, converters included ------------------------
    println!("\nsingle-tile analog matvec (8-bit DAC/ADC vs ideal):");
    let mut xbar_rng = SeededRng::new(3);
    let w = Tensor::randn(&[8, 4], &mut xbar_rng);
    let analog = Crossbar::program(&w, &CrossbarConfig::default(), &mut xbar_rng);
    let digital = Crossbar::program(&w, &CrossbarConfig::ideal(), &mut xbar_rng);
    let x = Tensor::randn(&[1, 8], &mut xbar_rng).map(|v| v.clamp(-1.0, 1.0));
    let ya = analog.matmul(&x);
    let yd = digital.matmul(&x);
    for j in 0..4 {
        println!(
            "  bit line {j}: analog {:+.4}  ideal {:+.4}  (|err| {:.4})",
            ya.as_slice()[j],
            yd.as_slice()[j],
            (ya.as_slice()[j] - yd.as_slice()[j]).abs()
        );
    }
}
