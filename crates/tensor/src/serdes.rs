//! The JSON layouts of [`Shape`] and [`Tensor`], declared with the
//! types through `healthmon_serdes::json_codec!`, and their load-time
//! invariants.
//!
//! The wire format matches what the previous `serde` derives produced, so
//! artifact caches written by earlier builds still load:
//! a shape is a bare array (`[2,3]`), a tensor is
//! `{"shape":[2,3],"data":[...]}`. Non-finite elements round-trip through
//! the string encoding of `healthmon-serdes` (`"NaN"`, `"inf"`, `"-inf"`).

use crate::{Shape, Tensor, TensorError};
use healthmon_serdes::JsonError;

/// Load-time invariant of a [`Shape`]: at least one dimension, no zero
/// extent.
pub(crate) fn check_shape(shape: &Shape) -> Result<(), JsonError> {
    let dims = shape.dims();
    if dims.is_empty() {
        return Err(JsonError::invalid("shape must have at least one dimension"));
    }
    if dims.contains(&0) {
        return Err(JsonError::invalid(format!("shape extents must be non-zero, got {dims:?}")));
    }
    Ok(())
}

/// Load-time invariant of a [`Tensor`]: one element per shape position.
pub(crate) fn check_tensor(tensor: &Tensor) -> Result<(), JsonError> {
    let (expected, actual) = (tensor.shape_obj().len(), tensor.len());
    if expected != actual {
        let e = TensorError::LengthMismatch { expected, actual };
        return Err(JsonError::invalid(format!("tensor data does not match shape: {e}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use healthmon_serdes::{from_str, to_string};

    #[test]
    fn shape_round_trip() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(to_string(&s), "[2,3,4]");
        assert_eq!(from_str::<Shape>("[2,3,4]").unwrap(), s);
    }

    #[test]
    fn shape_rejects_degenerate() {
        assert!(from_str::<Shape>("[]").is_err());
        assert!(from_str::<Shape>("[2,0]").is_err());
        assert!(from_str::<Shape>("[-1]").is_err());
    }

    #[test]
    fn tensor_round_trip_is_bit_exact() {
        let t = Tensor::from_vec(vec![0.1, -2.5, 1.0 / 3.0, f32::MIN_POSITIVE, 0.0, -0.0], &[2, 3])
            .unwrap();
        let back: Tensor = from_str(&to_string(&t)).unwrap();
        assert_eq!(back.shape(), t.shape());
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn tensor_with_non_finite_values_round_trips() {
        let t = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0], &[4])
            .unwrap();
        assert!(!t.all_finite());
        let back: Tensor = from_str(&to_string(&t)).unwrap();
        assert!(back.as_slice()[0].is_nan());
        assert_eq!(back.as_slice()[1], f32::INFINITY);
        assert_eq!(back.as_slice()[2], f32::NEG_INFINITY);
        assert_eq!(back.as_slice()[3], 1.0);
    }

    #[test]
    fn tensor_rejects_mismatched_data() {
        assert!(from_str::<Tensor>("{\"shape\":[2,2],\"data\":[1,2,3]}").is_err());
        assert!(from_str::<Tensor>("{\"data\":[1.0]}").is_err());
        assert!(from_str::<Tensor>("{\"shape\":[1]}").is_err());
    }

    #[test]
    fn legacy_serde_format_loads() {
        // Exactly the layout serde derives produced for the same structs.
        let json = "{\"shape\":[2,2],\"data\":[1.0,2.0,3.0,4.0]}";
        let t: Tensor = from_str(json).unwrap();
        assert_eq!(t.at(&[1, 0]), 3.0);
    }
}
