//! C-TP: corner-data test pattern selection (paper §III-A).

use crate::TestPatternSet;
use healthmon_data::Dataset;
use healthmon_nn::trainer::gather_batch;
use healthmon_nn::Network;
use healthmon_tensor::Tensor;

/// Selects "corner data" from an existing dataset as test patterns.
///
/// The selection rule is the paper's: rank every candidate by the
/// standard deviation of its output **logits** on the clean model,
/// `std(Z(X))`, and keep the `count` smallest. A sample with near-uniform
/// logits sits close to *all* decision surfaces simultaneously, so any
/// weight error is likely to move its prediction — without the
/// `O(n²)` pairwise-class construction a naive corner-data search needs.
///
/// # Example
///
/// ```
/// use healthmon::CtpGenerator;
/// use healthmon_data::{DatasetSpec, SynthDigits};
/// use healthmon_nn::models::lenet5;
/// use healthmon_tensor::SeededRng;
///
/// let mut rng = SeededRng::new(0);
/// let mut model = lenet5(&mut rng);
/// let pool = SynthDigits::new(DatasetSpec { train: 1, test: 30, seed: 1, ..Default::default() })
///     .generate()
///     .test;
/// let patterns = CtpGenerator::new(10).select(&mut model, &pool);
/// assert_eq!(patterns.len(), 10);
/// assert_eq!(patterns.method(), "C-TP");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CtpGenerator {
    count: usize,
    batch_size: usize,
}

impl CtpGenerator {
    /// Creates a generator that keeps the `count` lowest-logit-std
    /// candidates. The paper uses `count = 50` (≥ the class count to
    /// compensate for residual decision bias in real data).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(count: usize) -> Self {
        assert!(count > 0, "pattern count must be non-zero");
        CtpGenerator { count, batch_size: 64 }
    }

    /// Number of patterns this generator selects.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Ranks every sample of `pool` by logit standard deviation on `net`,
    /// ascending. Exposed so callers can inspect the corner-ness margin
    /// or implement custom cuts.
    ///
    /// Returns `(sample_index, logit_std)` pairs sorted ascending by std.
    pub fn logit_std_ranking(&self, net: &mut Network, pool: &Dataset) -> Vec<(usize, f32)> {
        net.set_training(false);
        let n = pool.len();
        let mut ranked: Vec<(usize, f32)> = Vec::with_capacity(n);
        let mut start = 0usize;
        while start < n {
            let end = (start + self.batch_size).min(n);
            let idx: Vec<usize> = (start..end).collect();
            let batch = gather_batch(&pool.images, &idx);
            let logits = net.forward(&batch);
            for (row, &i) in idx.iter().enumerate() {
                ranked.push((i, logits.row(row).std()));
            }
            start = end;
        }
        ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        ranked
    }

    /// Selects the C-TP pattern set from `pool` using `net` as the clean
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if the pool has fewer than `count` samples or sample shapes
    /// do not match the network input.
    pub fn select(&self, net: &mut Network, pool: &Dataset) -> TestPatternSet {
        assert!(
            pool.len() >= self.count,
            "pool has {} samples but {} were requested",
            pool.len(),
            self.count
        );
        let ranking = self.logit_std_ranking(net, pool);
        let chosen: Vec<Tensor> = ranking[..self.count]
            .iter()
            .map(|&(i, _)| pool.sample(i))
            .collect();
        TestPatternSet::from_samples("C-TP", &chosen)
    }

    /// Like [`CtpGenerator::select`] but flattens each sample to 1-D
    /// first, for networks with vector inputs (e.g. MLPs over image
    /// pools).
    ///
    /// # Panics
    ///
    /// Panics if the pool has fewer than `count` samples.
    pub fn select_flattened(&self, net: &mut Network, pool: &Dataset) -> TestPatternSet {
        let sample_len: usize = pool.sample_shape().iter().product();
        let flat_images = pool
            .images
            .reshape(&[pool.len(), sample_len])
            .expect("flatten preserves element count");
        let flat_pool = Dataset::new(flat_images, pool.labels.clone(), pool.num_classes);
        self.select(net, &flat_pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use healthmon_nn::layers::Dense;
    use healthmon_nn::models::tiny_mlp;
    use healthmon_tensor::SeededRng;

    /// A pool where sample 0 is engineered to have uniform logits and the
    /// rest are strongly classified.
    fn rigged_pool_and_net() -> (Network, Dataset) {
        let mut rng = SeededRng::new(1);
        let mut net = Network::new(vec![3]);
        let mut dense = Dense::new(3, 3, &mut rng);
        {
            use healthmon_nn::Layer;
            // Identity weights: logits = input.
            dense.params_mut()[0]
                .1
                .as_mut_slice()
                .copy_from_slice(&[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
            dense.params_mut()[1].1.as_mut_slice().copy_from_slice(&[0.0; 3]);
        }
        net.push(dense);
        let images = Tensor::from_vec(
            vec![
                0.5, 0.5, 0.5, // uniform logits -> corner data
                9.0, 0.0, 0.0, // confident class 0
                0.0, 9.0, 0.0, // confident class 1
                0.1, 0.2, 0.3, // mildly spread
            ],
            &[4, 3],
        )
        .unwrap();
        (net, Dataset::new(images, vec![0, 0, 1, 2], 3))
    }

    #[test]
    fn ranking_orders_by_logit_std() {
        let (mut net, pool) = rigged_pool_and_net();
        let ranking = CtpGenerator::new(1).logit_std_ranking(&mut net, &pool);
        assert_eq!(ranking[0].0, 0, "uniform-logit sample must rank first");
        assert_eq!(ranking[0].1, 0.0);
        // Confident samples rank last.
        let last_two: Vec<usize> = ranking[2..].iter().map(|&(i, _)| i).collect();
        assert!(last_two.contains(&1) && last_two.contains(&2));
    }

    #[test]
    fn select_takes_lowest_std() {
        let (mut net, pool) = rigged_pool_and_net();
        let set = CtpGenerator::new(2).select(&mut net, &pool);
        assert_eq!(set.len(), 2);
        assert_eq!(set.pattern(0), pool.sample(0));
        assert_eq!(set.pattern(1), pool.sample(3));
    }

    #[test]
    fn selected_patterns_have_lower_std_than_pool_average() {
        let mut rng = SeededRng::new(2);
        let mut net = tiny_mlp(8, 16, 4, &mut rng);
        let images = Tensor::randn(&[40, 8], &mut rng);
        let pool = Dataset::new(images, vec![0; 40], 4);
        let gen = CtpGenerator::new(5);
        let ranking = gen.logit_std_ranking(&mut net, &pool);
        let mean_all: f32 = ranking.iter().map(|&(_, s)| s).sum::<f32>() / 40.0;
        let mean_sel: f32 = ranking[..5].iter().map(|&(_, s)| s).sum::<f32>() / 5.0;
        assert!(mean_sel < mean_all);
    }

    #[test]
    fn batching_does_not_change_selection() {
        let mut rng = SeededRng::new(3);
        let mut net = tiny_mlp(6, 12, 3, &mut rng);
        let images = Tensor::randn(&[100, 6], &mut rng);
        let pool = Dataset::new(images, vec![0; 100], 3);
        let small = CtpGenerator { count: 7, batch_size: 3 };
        let large = CtpGenerator { count: 7, batch_size: 64 };
        assert_eq!(
            small.select(&mut net, &pool).images(),
            large.select(&mut net, &pool).images()
        );
    }

    #[test]
    #[should_panic(expected = "pool has")]
    fn rejects_undersized_pool() {
        let (mut net, pool) = rigged_pool_and_net();
        CtpGenerator::new(10).select(&mut net, &pool);
    }
}
