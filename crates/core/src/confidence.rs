//! Confidence responses and confidence-distance measures.
//!
//! Every SDC detection criterion in the paper reduces to comparing two
//! [`ResponseSet`]s — the golden model's softmax responses on the test
//! patterns versus a running accelerator's — through a
//! [`ConfidenceDistance`].

use healthmon_tensor::Tensor;

/// The softmax responses of one model on one pattern set.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseSet {
    /// Raw logits, `[patterns, classes]`.
    logits: Tensor,
    /// Softmax probabilities, `[patterns, classes]`.
    probs: Tensor,
}

impl ResponseSet {
    /// Builds a response set from raw logits.
    ///
    /// A poisoned accelerator emits non-finite logits; softmax would
    /// poison only the rows they sit in, so instead every probability is
    /// marked NaN — which [`ConfidenceDistance::between`] maps to
    /// [`ConfidenceDistance::POISONED`].
    ///
    /// # Panics
    ///
    /// Panics if `logits` is not 2-D.
    pub fn from_logits(logits: Tensor) -> Self {
        assert_eq!(logits.ndim(), 2, "responses must be [patterns, classes]");
        let probs = if logits.all_finite() {
            logits.softmax_rows()
        } else {
            Tensor::from_vec(vec![f32::NAN; logits.len()], logits.shape())
                .expect("poisoned probs keep the logit shape")
        };
        ResponseSet { logits, probs }
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.logits.shape()[0]
    }

    /// Whether there are no patterns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.logits.shape()[1]
    }

    /// Raw logits, `[patterns, classes]`.
    pub fn logits(&self) -> &Tensor {
        &self.logits
    }

    /// Softmax probabilities, `[patterns, classes]`.
    pub fn probs(&self) -> &Tensor {
        &self.probs
    }

    /// Top-1 class of pattern `p`.
    pub fn top1(&self, p: usize) -> usize {
        self.probs.row(p).argmax()
    }

    /// The set of top-`k` classes of pattern `p`, sorted ascending (order
    /// within the top-k is deliberately discarded: SDC-5 asks whether the
    /// *membership* changed).
    pub fn topk_set(&self, p: usize, k: usize) -> Vec<usize> {
        let mut idx = self.probs.row(p).topk(k).indices;
        idx.sort_unstable();
        idx
    }

    /// A response set containing only the first `k` patterns.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the pattern count.
    pub fn truncated(&self, k: usize) -> ResponseSet {
        assert!(k > 0 && k <= self.len(), "cannot truncate {} responses to {k}", self.len());
        let classes = self.classes();
        let rows: Vec<Tensor> = (0..k).map(|p| self.logits.row(p)).collect();
        let logits = Tensor::stack_rows(&rows)
            .reshape(&[k, classes])
            .expect("stack preserves shape");
        ResponseSet::from_logits(logits)
    }
}

healthmon_serdes::json_codec! {
    /// The two confidence-distance aggregates the paper evaluates (Fig 3).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct ConfidenceDistance {
        /// **SDC-T distance**: mean over patterns of
        /// `|p_ideal[c*] − p_target[c*]|` where `c*` is the ideal model's
        /// top-1 class for that pattern.
        pub top_ranked: f32,
        /// **SDC-A distance**: mean over patterns and classes of
        /// `|p_ideal − p_target|`.
        pub all_classes: f32,
    }
}

impl ConfidenceDistance {
    /// The distance reported for a poisoned comparison: both aggregates
    /// at `+inf`, which is `>=` every finite monitoring threshold.
    pub const POISONED: ConfidenceDistance =
        ConfidenceDistance { top_ranked: f32::INFINITY, all_classes: f32::INFINITY };

    /// Whether either aggregate is non-finite — i.e. one of the compared
    /// response sets contained NaN or infinite probabilities.
    pub fn is_poisoned(&self) -> bool {
        !self.top_ranked.is_finite() || !self.all_classes.is_finite()
    }

    /// Computes both distances between an ideal (golden) response set and
    /// a target (possibly faulty) one.
    ///
    /// If either set contains a non-finite probability (a NaN or infinite
    /// logit poisons the whole softmax row) the result is
    /// [`ConfidenceDistance::POISONED`] rather than a NaN-laced mean:
    /// `NaN >= threshold` is false for every threshold, so propagating the
    /// NaN would make a dead accelerator read *healthy* downstream.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different shapes.
    pub fn between(ideal: &ResponseSet, target: &ResponseSet) -> Self {
        assert_eq!(ideal.len(), target.len(), "response sets must cover the same patterns");
        assert_eq!(ideal.classes(), target.classes(), "response sets must share classes");
        if !ideal.probs.all_finite() || !target.probs.all_finite() {
            return ConfidenceDistance::POISONED;
        }
        let n = ideal.len();
        let classes = ideal.classes();
        let pi = ideal.probs.as_slice();
        let pt = target.probs.as_slice();
        let mut top_sum = 0.0f64;
        let mut all_sum = 0.0f64;
        for p in 0..n {
            let row = p * classes;
            let mut top_class = 0usize;
            let mut top_val = f32::NEG_INFINITY;
            let mut row_abs = 0.0f32;
            for c in 0..classes {
                let a = pi[row + c];
                if a > top_val {
                    top_val = a;
                    top_class = c;
                }
                row_abs += (a - pt[row + c]).abs();
            }
            top_sum += (pi[row + top_class] - pt[row + top_class]).abs() as f64;
            all_sum += (row_abs / classes as f32) as f64;
        }
        ConfidenceDistance {
            top_ranked: (top_sum / n as f64) as f32,
            all_classes: (all_sum / n as f64) as f32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(rows: &[&[f32]]) -> ResponseSet {
        let tensors: Vec<Tensor> = rows.iter().map(|r| Tensor::from_slice(r)).collect();
        ResponseSet::from_logits(
            Tensor::stack_rows(&tensors),
        )
    }

    #[test]
    fn identical_sets_have_zero_distance() {
        let a = set(&[&[1.0, 2.0, 3.0], &[0.0, 0.0, 5.0]]);
        let d = ConfidenceDistance::between(&a, &a);
        assert_eq!(d.top_ranked, 0.0);
        assert_eq!(d.all_classes, 0.0);
    }

    #[test]
    fn distances_grow_with_perturbation() {
        let ideal = set(&[&[2.0, 0.0, 0.0]]);
        let near = set(&[&[1.8, 0.1, 0.1]]);
        let far = set(&[&[0.0, 2.0, 0.0]]);
        let d_near = ConfidenceDistance::between(&ideal, &near);
        let d_far = ConfidenceDistance::between(&ideal, &far);
        assert!(d_far.top_ranked > d_near.top_ranked);
        assert!(d_far.all_classes > d_near.all_classes);
    }

    #[test]
    fn top_ranked_uses_ideal_top_class() {
        // Ideal top class is 0; target moved mass from 0 to 1.
        let ideal = set(&[&[3.0, 0.0]]);
        let target = set(&[&[0.0, 3.0]]);
        let d = ConfidenceDistance::between(&ideal, &target);
        let p_hi = 3.0f32.exp() / (3.0f32.exp() + 1.0);
        let expected = p_hi - (1.0 - p_hi);
        assert!((d.top_ranked - expected).abs() < 1e-5);
    }

    #[test]
    fn all_classes_is_mean_l1_over_classes() {
        let ideal = set(&[&[0.0, 0.0]]); // probs (0.5, 0.5)
        let target = set(&[&[f32::ln(3.0), 0.0]]); // probs (0.75, 0.25)
        let d = ConfidenceDistance::between(&ideal, &target);
        assert!((d.all_classes - 0.25).abs() < 1e-5);
    }

    #[test]
    fn top1_and_topk() {
        let a = set(&[&[0.1, 5.0, 2.0, 3.0]]);
        assert_eq!(a.top1(0), 1);
        assert_eq!(a.topk_set(0, 2), vec![1, 3]);
        assert_eq!(a.topk_set(0, 3), vec![1, 2, 3]);
    }

    #[test]
    fn probs_are_normalized() {
        let a = set(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        for p in 0..2 {
            assert!((a.probs().row(p).sum() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn truncated_prefix() {
        let a = set(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 2.0]]);
        let t = a.truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.top1(0), a.top1(0));
        assert_eq!(t.top1(1), a.top1(1));
    }

    #[test]
    fn non_finite_target_poisons_the_distance() {
        let ideal = set(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let target = set(&[&[1.0, 0.0], &[f32::NAN, 1.0]]);
        let d = ConfidenceDistance::between(&ideal, &target);
        assert!(d.is_poisoned());
        assert_eq!(d.top_ranked, f32::INFINITY);
        assert_eq!(d.all_classes, f32::INFINITY);
        // Symmetric: a poisoned golden set is equally invalid.
        let d = ConfidenceDistance::between(&target, &ideal);
        assert!(d.is_poisoned());
    }

    #[test]
    fn infinite_logits_poison_too() {
        let ideal = set(&[&[1.0, 0.0]]);
        // exp(inf - inf) = NaN in the softmax row.
        let target = set(&[&[f32::INFINITY, f32::INFINITY]]);
        assert!(ConfidenceDistance::between(&ideal, &target).is_poisoned());
    }

    #[test]
    fn finite_distances_are_not_poisoned() {
        let a = set(&[&[1.0, 2.0, 3.0]]);
        assert!(!ConfidenceDistance::between(&a, &a).is_poisoned());
    }

    #[test]
    #[should_panic(expected = "same patterns")]
    fn rejects_mismatched_sets() {
        let a = set(&[&[1.0, 0.0]]);
        let b = set(&[&[1.0, 0.0], &[0.0, 1.0]]);
        ConfidenceDistance::between(&a, &b);
    }
}
