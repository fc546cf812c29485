//! A from-scratch neural network framework for the `healthmon` workspace.
//!
//! This crate is the DNN substrate the paper's test-pattern methods run on:
//! layer-graph networks with full backpropagation to **both weights and
//! inputs** (O-TP pattern optimization and the FGSM/AET baseline need input
//! gradients), SGD/momentum/Adam optimizers, a small training harness, and
//! factory functions for the paper's two evaluation models —
//! [`models::lenet5`] (MNIST-class 28×28×1) and [`models::convnet7`]
//! (CIFAR10-class 32×32×3, 4 conv + 3 fully-connected layers).
//!
//! Tensors come from [`healthmon_tensor`]; there is no BLAS and no external
//! DL framework, so every number is reproducible from a seed.
//!
//! # Example
//!
//! ```
//! use healthmon_nn::{Network, layers::{Dense, Relu}};
//! use healthmon_tensor::{SeededRng, Tensor};
//!
//! let mut rng = SeededRng::new(0);
//! let mut net = Network::new(vec![4]);
//! net.push(Dense::new(4, 8, &mut rng));
//! net.push(Relu::new());
//! net.push(Dense::new(8, 3, &mut rng));
//!
//! let x = Tensor::randn(&[2, 4], &mut rng); // batch of 2
//! let logits = net.forward(&x);
//! assert_eq!(logits.shape(), &[2, 3]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod init;
pub mod layers;
pub mod loss;
pub mod models;
mod network;
pub mod optim;
pub mod trainer;
pub mod zoo;

pub use backend::InferenceBackend;
pub use layers::{DigitalEngine, Layer, MatmulEngine, MatmulOrientation, PatchMap};
pub use loss::SoftmaxCrossEntropy;
pub use network::{LoadStateError, Network, NonFiniteActivation, ParamStats};
pub use trainer::{DropConnect, TrainConfig, TrainReport, Trainer};
pub use zoo::{DataFamily, ModelSpec, UnknownModel};
