use std::fmt;

healthmon_serdes::json_codec! {
    /// A tensor shape: the extent of each dimension, row-major.
    ///
    /// `Shape` is a thin, validated wrapper over a `Vec<usize>` providing the
    /// index arithmetic shared by [`crate::Tensor`] and the layer
    /// implementations built on it.
    ///
    /// # Example
    ///
    /// ```
    /// use healthmon_tensor::Shape;
    ///
    /// let s = Shape::new(vec![2, 3, 4]);
    /// assert_eq!(s.len(), 24);
    /// assert_eq!(s.offset(&[1, 2, 3]), 23);
    /// ```
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub struct Shape(Vec<usize>);
    check crate::serdes::check_shape;
}

impl Shape {
    /// Creates a shape from dimension extents.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or any extent is zero.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "shape must have at least one dimension");
        assert!(dims.iter().all(|&d| d > 0), "shape extents must be non-zero, got {dims:?}");
        Shape(dims)
    }

    /// Total number of elements (product of extents).
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// Shapes are never empty, so this is always `false`; provided for
    /// API symmetry with `len`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.0.len()
    }

    /// The extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Extent of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= ndim()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Row-major strides: the linear distance between consecutive elements
    /// along each axis.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Linear offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any component is out of
    /// bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.0.len(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.0.len()
        );
        let mut off = 0usize;
        let mut stride = 1usize;
        for axis in (0..self.0.len()).rev() {
            assert!(
                index[axis] < self.0[axis],
                "index {} out of bounds for axis {axis} with extent {}",
                index[axis],
                self.0[axis]
            );
            off += index[axis] * stride;
            stride *= self.0[axis];
        }
        off
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_is_product_of_dims() {
        assert_eq!(Shape::new(vec![2, 3, 4]).len(), 24);
        assert_eq!(Shape::new(vec![7]).len(), 7);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(vec![2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(vec![5]).strides(), vec![1]);
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 0, 0]), 12);
        assert_eq!(s.offset(&[1, 2, 3]), 23);
        assert_eq!(s.offset(&[0, 1, 1]), 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_rejects_out_of_bounds() {
        Shape::new(vec![2, 3]).offset(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn rejects_empty() {
        Shape::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rejects_zero_extent() {
        Shape::new(vec![2, 0]);
    }

    #[test]
    fn display_and_conversions() {
        let s: Shape = vec![2, 3].into();
        assert_eq!(s.to_string(), "[2, 3]");
        let s2: Shape = (&[2usize, 3][..]).into();
        assert_eq!(s, s2);
    }
}
