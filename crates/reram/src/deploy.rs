//! Whole-network deployment onto crossbar hardware.

use crate::{CrossbarConfig, TiledMatrix};
use healthmon_nn::Network;
use healthmon_tensor::SeededRng;

/// Per-parameter record of a deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMapping {
    /// State-dict key of the mapped parameter.
    pub key: String,
    /// Logical matrix shape.
    pub shape: (usize, usize),
    /// Number of crossbar tiles used.
    pub tiles: usize,
    /// L1 distance between the trained weights and what the conductances
    /// actually realize (quantization + write noise).
    pub mapping_error_l1: f32,
    /// Fraction of the allocated tile area the logical matrix actually
    /// occupies: `rows·cols / (tiles · tile_rows · tile_cols)`.
    pub utilization: f32,
    /// Fraction of the ADC full-scale range the largest observed output
    /// magnitude reached (0 when no inference has been profiled).
    pub adc_range_used: f32,
}

/// Summary of deploying a network onto crossbars.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployReport {
    /// One record per conductance-mapped parameter.
    pub mappings: Vec<LayerMapping>,
    /// Mean per-image L1 distance between digital and analog logits on the
    /// profiling batch (`None` when no inference was profiled, e.g. for
    /// the plain read-back [`deploy`]).
    pub logit_divergence: Option<f32>,
}

impl DeployReport {
    /// Total crossbar tiles consumed.
    pub fn total_tiles(&self) -> usize {
        self.mappings.iter().map(|m| m.tiles).sum()
    }

    /// Sum of per-parameter mapping errors.
    pub fn total_error_l1(&self) -> f32 {
        self.mappings.iter().map(|m| m.mapping_error_l1).sum()
    }
}

/// Deploys `net` onto crossbar hardware described by `config`: every
/// conductance-mapped parameter (state-dict key ending in `weight`; these
/// are all 2-D in this workspace — dense `[in, out]`, conv `[filters,
/// c·k·k]`) is programmed into a [`TiledMatrix`] and read back, so the
/// returned network computes with exactly the weights the analog arrays
/// realize.
///
/// Because the crossbar MAC is linear in the conductances, running this
/// deployed network's standard forward pass is equivalent to routing every
/// matmul through [`TiledMatrix::matmul`] with ideal converters; DAC/ADC
/// effects are studied separately at the op level (see the crate docs).
///
/// # Panics
///
/// Panics if the config is invalid or a weight parameter is not 2-D.
pub fn deploy(net: &Network, config: &CrossbarConfig, rng: &mut SeededRng) -> (Network, DeployReport) {
    config.validate();
    let mut deployed = net.clone();
    let mut mappings = Vec::new();
    deployed.for_each_param_mut(|key, tensor| {
        if !key.ends_with("weight") {
            return;
        }
        assert_eq!(
            tensor.ndim(),
            2,
            "conductance-mapped parameter `{key}` must be 2-D, got {:?}",
            tensor.shape()
        );
        let tiled = TiledMatrix::program(tensor, config, rng);
        let realized = tiled.effective_weights();
        let (m, n) = tiled.shape();
        mappings.push(LayerMapping {
            key: key.to_owned(),
            shape: tiled.shape(),
            tiles: tiled.tile_count(),
            mapping_error_l1: tensor.l1_distance(&realized),
            utilization: (m * n) as f32 / (tiled.tile_count() * config.rows * config.cols) as f32,
            adc_range_used: 0.0,
        });
        *tensor = realized;
    });
    (deployed, DeployReport { mappings, logit_divergence: None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use healthmon_nn::models::tiny_mlp;
    use healthmon_tensor::Tensor;

    #[test]
    fn ideal_deployment_preserves_outputs() {
        let mut rng = SeededRng::new(1);
        let mut net = tiny_mlp(6, 12, 4, &mut rng);
        let (mut deployed, report) = deploy(&net, &CrossbarConfig::ideal(), &mut rng);
        assert_eq!(report.mappings.len(), 2); // two dense weight matrices
        assert!(report.total_error_l1() < 1e-2, "ideal mapping error {}", report.total_error_l1());
        let x = Tensor::randn(&[3, 6], &mut rng);
        let a = net.forward(&x);
        let b = deployed.forward(&x);
        for (p, q) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((p - q).abs() < 1e-3);
        }
    }

    #[test]
    fn quantized_deployment_reports_error() {
        let mut rng = SeededRng::new(2);
        let net = tiny_mlp(6, 12, 4, &mut rng);
        let coarse = CrossbarConfig { cell_bits: 2, ..CrossbarConfig::ideal() };
        let (_, report) = deploy(&net, &coarse, &mut rng);
        assert!(report.total_error_l1() > 0.05, "2-bit cells must show mapping error");
    }

    #[test]
    fn tile_accounting() {
        let mut rng = SeededRng::new(3);
        let net = tiny_mlp(6, 12, 4, &mut rng);
        let tiny_tiles = CrossbarConfig { rows: 4, cols: 4, ..CrossbarConfig::ideal() };
        let (_, report) = deploy(&net, &tiny_tiles, &mut rng);
        // 6x12 over 4x4 tiles = 2*3 = 6; 12x4 over 4x4 = 3*1 = 3.
        assert_eq!(report.total_tiles(), 9);
    }

    #[test]
    fn deployment_is_deterministic() {
        let mut rng_net = SeededRng::new(4);
        let net = tiny_mlp(4, 8, 3, &mut rng_net);
        let config = CrossbarConfig { write_noise: 0.1, ..CrossbarConfig::default() };
        let (a, _) = deploy(&net, &config, &mut SeededRng::new(9));
        let (b, _) = deploy(&net, &config, &mut SeededRng::new(9));
        assert_eq!(a.state_dict(), b.state_dict());
    }

    #[test]
    fn biases_not_mapped() {
        let mut rng = SeededRng::new(5);
        let net = tiny_mlp(4, 8, 3, &mut rng);
        let (_, report) = deploy(&net, &CrossbarConfig::ideal(), &mut rng);
        assert!(report.mappings.iter().all(|m| m.key.ends_with("weight")));
    }
}
