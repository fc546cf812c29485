//! Dense `f32` tensor math for the `healthmon` workspace.
//!
//! This crate provides the numeric substrate the rest of the workspace is
//! built on: a contiguous row-major [`Tensor`], register-tiled matrix
//! multiplication, reductions and classification statistics
//! (softmax/argmax/top-k), and a deterministic random source
//! ([`SeededRng`]) with the normal and lognormal samplers the ReRAM error
//! models require.
//!
//! Everything is written from scratch against the standard library; no BLAS
//! and no external ndarray dependency, so behaviour is fully reproducible
//! across platforms from a seed.
//!
//! # Example
//!
//! ```
//! use healthmon_tensor::{Tensor, SeededRng};
//!
//! let mut rng = SeededRng::new(42);
//! let a = Tensor::randn(&[2, 3], &mut rng);
//! let b = Tensor::randn(&[3, 4], &mut rng);
//! let c = a.matmul(&b);
//! assert_eq!(c.shape(), &[2, 4]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
pub mod intacc;
mod linalg;
mod ops;
pub mod fastmath;
pub mod pool;
mod random;
mod serdes;
mod shape;
pub mod simd;
mod stats;
mod tensor;

pub use error::TensorError;
pub use random::SeededRng;
pub use shape::Shape;
pub use stats::TopK;
pub use tensor::Tensor;
