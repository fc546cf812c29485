//! Flatten layer: collapses feature maps into vectors at the conv→dense
//! boundary.

use super::{DigitalEngine, Layer, MatmulEngine};
use healthmon_tensor::Tensor;

/// Flattens `[N, C, H, W]` (or any rank ≥ 2) into `[N, C·H·W]`, preserving
/// the batch dimension.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.cached_shape = Some(input.shape().to_vec());
        self.infer(input, "", &DigitalEngine)
    }

    fn infer(&self, input: &Tensor, _key_prefix: &str, _engine: &dyn MatmulEngine) -> Tensor {
        assert!(input.ndim() >= 2, "flatten expects a batched input, got {:?}", input.shape());
        let n = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        input.reshape(&[n, rest]).expect("flatten preserves element count")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self.cached_shape.as_ref().expect("flatten backward before forward");
        grad_out.reshape(shape).expect("flatten backward restores forward shape")
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut l = Flatten::new();
        let x = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 2, 2]).unwrap();
        let y = l.forward(&x);
        assert_eq!(y.shape(), &[2, 12]);
        let g = l.backward(&y);
        assert_eq!(g.shape(), &[2, 3, 2, 2]);
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    fn keeps_2d_unchanged() {
        let mut l = Flatten::new();
        let x = Tensor::zeros(&[4, 7]);
        assert_eq!(l.forward(&x).shape(), &[4, 7]);
    }
}
