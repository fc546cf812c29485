use crate::{SeededRng, Shape, TensorError};

healthmon_serdes::json_codec! {
    /// A dense, contiguous, row-major `f32` tensor.
    ///
    /// The single numeric container used throughout the workspace:
    /// network weights, activations, gradients, images, and logits are all
    /// tensors. It is deliberately simple — owned contiguous storage, no
    /// views, no broadcasting beyond what the explicit ops provide — which
    /// keeps the fault-injection and crossbar-mapping code easy to audit.
    ///
    /// # Example
    ///
    /// ```
    /// use healthmon_tensor::Tensor;
    ///
    /// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// assert_eq!(t.at(&[1, 0]), 3.0);
    /// assert_eq!(t.sum(), 10.0);
    /// # Ok::<(), healthmon_tensor::TensorError>(())
    /// ```
    #[derive(Debug, Clone, PartialEq)]
    pub struct Tensor {
        shape: Shape,
        data: Vec<f32>,
    }
    check crate::serdes::check_tensor;
}

// The structural methods below are `#[inline]`: they sit on the hot
// paths of the nn and reram crates, and without cross-crate inlining the
// analog checkup benchmark runs about 10% slower.
impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    #[inline]
    pub fn zeros(shape: &[usize]) -> Self {
        let shape = Shape::from(shape);
        let len = shape.len();
        Tensor { shape, data: vec![0.0; len] }
    }

    /// Creates a tensor of ones with the given shape.
    #[inline]
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    #[inline]
    pub fn full(shape: &[usize], value: f32) -> Self {
        let shape = Shape::from(shape);
        let len = shape.len();
        Tensor { shape, data: vec![value; len] }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not
    /// equal the product of `shape`.
    #[inline]
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        if shape.is_empty() {
            return Err(TensorError::EmptyShape);
        }
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::LengthMismatch { expected, actual: data.len() });
        }
        Ok(Tensor { shape: Shape::from(shape), data })
    }

    /// Creates a 1-D tensor from a slice.
    #[inline]
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor { shape: Shape::new(vec![data.len().max(1)]), data: data.to_vec() }
    }

    /// The tensor's shape extents.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The tensor's shape as a [`Shape`].
    #[inline]
    pub fn shape_obj(&self) -> &Shape {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true: shapes have
    /// non-zero extents).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Overwrites this tensor's elements with `src`'s, reusing the
    /// existing allocation (the in-place counterpart of cloning).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[inline]
    pub fn copy_from(&mut self, src: &Self) {
        assert_eq!(
            self.shape(),
            src.shape(),
            "copy_from shape mismatch: {:?} vs {:?}",
            self.shape(),
            src.shape()
        );
        self.data.copy_from_slice(&src.data);
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any component is out of bounds.
    #[inline]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any component is out of bounds.
    #[inline]
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if the element counts differ.
    #[inline]
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() || shape.is_empty() {
            return Err(TensorError::ReshapeMismatch {
                from: self.shape.dims().to_vec(),
                to: shape.to_vec(),
            });
        }
        Ok(Tensor { shape: Shape::from(shape), data: self.data.clone() })
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Combines two same-shape tensors element-wise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "zip_map shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// Extracts row `row` of a 2-D tensor as a new 1-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `row` is out of bounds.
    #[inline]
    pub fn row(&self, row: usize) -> Self {
        assert_eq!(self.ndim(), 2, "row() requires a 2-D tensor, got {}", self.shape);
        let cols = self.shape.dim(1);
        let start = row * cols;
        Self::from_slice(&self.data[start..start + cols])
    }

    /// Copies `src` (1-D, length = columns) into row `row` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible or `row` is out of bounds.
    #[inline]
    pub fn set_row(&mut self, row: usize, src: &Self) {
        assert_eq!(self.ndim(), 2, "set_row() requires a 2-D tensor, got {}", self.shape);
        let cols = self.shape.dim(1);
        assert_eq!(src.len(), cols, "row length {} != column count {cols}", src.len());
        let start = row * cols;
        self.data[start..start + cols].copy_from_slice(src.as_slice());
    }

    /// Stacks 1-D tensors of equal length into a 2-D tensor (rows).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or lengths differ.
    #[inline]
    pub fn stack_rows(rows: &[Self]) -> Self {
        assert!(!rows.is_empty(), "stack_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "stack_rows length mismatch");
            data.extend_from_slice(r.as_slice());
        }
        Tensor { shape: Shape::new(vec![rows.len(), cols]), data }
    }

    /// Transposes a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    #[inline]
    pub fn transpose(&self) -> Self {
        assert_eq!(self.ndim(), 2, "transpose() requires a 2-D tensor, got {}", self.shape);
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Self::zeros(&[c, r]);
        if r * c == 0 {
            return out;
        }
        // Sixteen source rows at a time stay in cache while every output
        // row takes its 16-element segment; a row-at-a-time scatter
        // misses on every write once `r` is large.
        const BLOCK: usize = 16;
        for (b, src) in self.data.chunks(BLOCK * c).enumerate() {
            for (j, dst) in out.data.chunks_exact_mut(r).enumerate() {
                for (d, row) in dst[b * BLOCK..].iter_mut().zip(src.chunks_exact(c)) {
                    *d = row[j];
                }
            }
        }
        out
    }

    /// Samples every element i.i.d. from the standard normal distribution.
    pub fn randn(shape: &[usize], rng: &mut SeededRng) -> Self {
        let mut t = Tensor::zeros(shape);
        for v in t.data.iter_mut() {
            *v = rng.normal(0.0, 1.0);
        }
        t
    }

    /// Samples every element i.i.d. uniformly from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut SeededRng) -> Self {
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "invalid uniform bounds [{lo}, {hi})");
        let mut t = Tensor::zeros(shape);
        for v in t.data.iter_mut() {
            *v = rng.uniform(lo, hi);
        }
        t
    }

    /// Clamps every element into `[lo, hi]` in place.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp_inplace(&mut self, lo: f32, hi: f32) {
        assert!(lo <= hi, "clamp bounds inverted: [{lo}, {hi}]");
        self.map_inplace(|v| v.clamp(lo, hi));
    }

    /// Whether every element is finite (no NaN, no ±∞).
    ///
    /// Fault-injected weights and saturated accumulations can poison
    /// activations with non-finite values; the detection pipeline uses
    /// this guard so such devices escalate deterministically instead of
    /// slipping past NaN comparisons.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Default for Tensor {
    /// A single-element zero tensor.
    fn default() -> Self {
        Self::zeros(&[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let o = Tensor::ones(&[4]);
        assert!(o.as_slice().iter().all(|&v| v == 1.0));
        let f = Tensor::full(&[2, 2], 3.5);
        assert_eq!(f.at(&[1, 1]), 3.5);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        let err = Tensor::from_vec(vec![1.0; 5], &[2, 3]).unwrap_err();
        assert_eq!(err, TensorError::LengthMismatch { expected: 6, actual: 5 });
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.at(&[2, 1]), 5.0);
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        *t.at_mut(&[1, 2, 3]) = 7.0;
        assert_eq!(t.at(&[1, 2, 3]), 7.0);
        assert_eq!(t.as_slice()[23], 7.0);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        assert_eq!(a.map(|v| v * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!(a.zip_map(&b, |x, y| x + y).as_slice(), &[11.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_map_rejects_mismatch() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        a.zip_map(&b, |x, _| x);
    }

    #[test]
    fn rows() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        assert_eq!(t.row(1).as_slice(), &[3.0, 4.0, 5.0]);
        let mut t2 = t.clone();
        t2.set_row(0, &Tensor::from_slice(&[9.0, 9.0, 9.0]));
        assert_eq!(t2.row(0).as_slice(), &[9.0, 9.0, 9.0]);
        let stacked = Tensor::stack_rows(&[t.row(0), t.row(1)]);
        assert_eq!(stacked, t);
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transpose();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(&[0, 1]), 4.0);
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn clamp() {
        let mut t = Tensor::from_vec(vec![-2.0, 0.5, 3.0], &[3]).unwrap();
        t.clamp_inplace(0.0, 1.0);
        assert_eq!(t.as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn randn_deterministic_from_seed() {
        let mut r1 = SeededRng::new(7);
        let mut r2 = SeededRng::new(7);
        assert_eq!(Tensor::randn(&[8], &mut r1), Tensor::randn(&[8], &mut r2));
    }

    #[test]
    fn rand_uniform_in_bounds() {
        let mut rng = SeededRng::new(1);
        let t = Tensor::rand_uniform(&[100], -0.5, 0.5, &mut rng);
        assert!(t.as_slice().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }
}
