//! Reductions and classification statistics.
//!
//! These are the quantities the paper's test-pattern methods are defined
//! over: logit standard deviation (C-TP's selection rule), softmax
//! confidence vectors (all SDC metrics), and top-k rankings (SDC-1/SDC-5).

use crate::Tensor;

/// Result of a top-k query: class indices and their values, ordered from
/// highest to lowest value.
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    /// Indices of the k largest elements, descending by value.
    pub indices: Vec<usize>,
    /// The corresponding values, descending.
    pub values: Vec<f32>,
}

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Arithmetic mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.len() as f32
    }

    /// Population standard deviation of all elements.
    ///
    /// This is the `std` of the paper's C-TP selection rule
    /// `min sqrt(1/n * sum_i (Z(X)_i - mean(Z(X)))^2)` when applied to a
    /// logit vector.
    pub fn std(&self) -> f32 {
        let mean = self.mean();
        let var =
            self.as_slice().iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / self.len() as f32;
        var.sqrt()
    }

    /// Largest element.
    ///
    /// # Panics
    ///
    /// Panics if any element is NaN.
    pub fn max(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, |a, b| {
                assert!(!b.is_nan(), "max() on tensor containing NaN");
                a.max(b)
            })
    }

    /// Smallest element.
    ///
    /// # Panics
    ///
    /// Panics if any element is NaN.
    pub fn min(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::INFINITY, |a, b| {
                assert!(!b.is_nan(), "min() on tensor containing NaN");
                a.min(b)
            })
    }

    /// Index of the largest element (first occurrence on ties).
    pub fn argmax(&self) -> usize {
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.as_slice().iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// The `k` largest elements and their indices, descending.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > len()`.
    pub fn topk(&self, k: usize) -> TopK {
        assert!(k > 0 && k <= self.len(), "topk k={k} out of range for length {}", self.len());
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let data = self.as_slice();
        idx.sort_by(|&a, &b| data[b].partial_cmp(&data[a]).unwrap_or(std::cmp::Ordering::Equal));
        idx.truncate(k);
        let values = idx.iter().map(|&i| data[i]).collect();
        TopK { indices: idx, values }
    }

    /// The shift of [`Tensor::softmax`] and [`Tensor::log_softmax`]: the
    /// largest element, skipping NaN (`f32::max` returns its other
    /// operand), so a NaN input reaches every output through the sum
    /// instead of panicking.
    fn softmax_shift(&self) -> f32 {
        self.as_slice().iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Numerically-stable softmax over the flattened tensor.
    ///
    /// Returns a probability vector: non-negative, summing to 1. A NaN
    /// element makes every output NaN.
    pub fn softmax(&self) -> Tensor {
        let max = self.softmax_shift();
        let exps: Vec<f32> = self.as_slice().iter().map(|&v| (v - max).exp()).collect();
        let z: f32 = exps.iter().sum();
        Tensor::from_vec(exps.into_iter().map(|e| e / z).collect(), self.shape())
            .expect("softmax preserves shape")
    }

    /// Numerically-stable log-softmax over the flattened tensor. A NaN
    /// element makes every output NaN.
    pub fn log_softmax(&self) -> Tensor {
        let max = self.softmax_shift();
        let log_z = self
            .as_slice()
            .iter()
            .map(|&v| (v - max).exp())
            .sum::<f32>()
            .ln()
            + max;
        self.map(|v| v - log_z)
    }

    /// Row-wise softmax of a 2-D tensor (one distribution per row). A NaN
    /// makes every output of its row NaN and leaves the other rows alone.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "softmax_rows requires a 2-D tensor");
        let rows = self.shape()[0];
        let out: Vec<Tensor> = (0..rows).map(|r| self.row(r).softmax()).collect();
        Tensor::stack_rows(&out)
    }

    /// Cross-entropy `−Σ target_i · log(softmax(self))_i` of a logit vector
    /// against a probability-vector target.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn cross_entropy_with(&self, target: &Tensor) -> f32 {
        assert_eq!(self.len(), target.len(), "cross_entropy length mismatch");
        let log_p = self.log_softmax();
        -target.dot(&log_p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeededRng;

    #[test]
    fn reductions_hand_example() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), 1.0);
        // population std of [1,2,3,4] = sqrt(1.25)
        assert!((t.std() - 1.25f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn std_of_constant_is_zero() {
        assert_eq!(Tensor::full(&[10], 3.0).std(), 0.0);
    }

    #[test]
    fn argmax_first_on_tie() {
        let t = Tensor::from_slice(&[1.0, 5.0, 5.0, 0.0]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn topk_ordering() {
        let t = Tensor::from_slice(&[0.1, 0.9, 0.3, 0.7]);
        let k = t.topk(3);
        assert_eq!(k.indices, vec![1, 3, 2]);
        assert_eq!(k.values, vec![0.9, 0.7, 0.3]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_shift_invariant() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let s = t.softmax();
        assert!((s.sum() - 1.0).abs() < 1e-6);
        let shifted = t.shift(100.0).softmax();
        for (a, b) in s.as_slice().iter().zip(shifted.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let t = Tensor::from_slice(&[1000.0, 999.0]);
        let s = t.softmax();
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
        assert!((s.sum() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let mut rng = SeededRng::new(2);
        let t = Tensor::randn(&[10], &mut rng);
        let ls = t.log_softmax();
        let s = t.softmax();
        for (l, p) in ls.as_slice().iter().zip(s.as_slice()) {
            assert!((l.exp() - p).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_rows_per_row() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 10.0, 0.0], &[2, 2]).unwrap();
        let s = t.softmax_rows();
        assert!((s.row(0).sum() - 1.0).abs() < 1e-6);
        assert!((s.row(1).sum() - 1.0).abs() < 1e-6);
        assert!(s.at(&[1, 0]) > 0.99);
    }

    #[test]
    fn a_nan_poisons_its_softmax_row_without_panicking() {
        let t = Tensor::from_vec(vec![1.0, f32::NAN, 3.0, 0.5, -2.0, 4.0], &[2, 3]).unwrap();
        let s = t.softmax_rows();
        assert!(s.row(0).as_slice().iter().all(|p| p.is_nan()));
        assert_eq!(s.row(1), t.row(1).softmax(), "a finite row keeps its bits");
        assert!(t.row(0).log_softmax().as_slice().iter().all(|l| l.is_nan()));
    }

    #[test]
    fn cross_entropy_uniform_target() {
        // Uniform logits against uniform target: CE = ln(n).
        let t = Tensor::zeros(&[4]);
        let target = Tensor::full(&[4], 0.25);
        assert!((t.cross_entropy_with(&target) - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_confident_correct_is_small() {
        let t = Tensor::from_slice(&[10.0, 0.0, 0.0]);
        let mut target = Tensor::zeros(&[3]);
        *target.at_mut(&[0]) = 1.0;
        assert!(t.cross_entropy_with(&target) < 0.01);
    }
}
