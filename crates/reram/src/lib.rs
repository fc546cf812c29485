//! Behavioural ReRAM crossbar accelerator simulator.
//!
//! The paper's error models are *weight-space images* of device-level
//! phenomena in a resistive crossbar (imprecise conductance programming,
//! state flips, stuck cells, drift). This crate models the device layer
//! those images come from:
//!
//! * [`CrossbarConfig`] — array geometry and converter resolutions.
//! * [`Crossbar`] — one tile: differential-pair conductance storage
//!   (`G⁺ − G⁻`), DAC input quantization, analog dot-product along bit
//!   lines, ADC output quantization, plus device-fault injection
//!   (stuck-at cells, lognormal write noise, drift).
//! * [`TiledMatrix`] — an arbitrary weight matrix partitioned over tiles,
//!   with crossbar-backed products in two layouts: `matmul` (one row per
//!   input) and column-layout `matmul_cols` (one column per input, the
//!   layout of a convolution's patch matrix), which run one integer
//!   kernel on integer-capable configs. Every
//!   conductance mutator (drift, stuck cells, parity, IR drop) is written
//!   once, here.
//! * [`SlicedMatrix`] — the crossbar state of one mapped weight: a list of
//!   tiled images, one for an analog matrix and one per digit for an
//!   ISAAC-style bit-sliced matrix, recombined with radix weights.
//! * [`AnalogBackend`] — the one live crossbar backend, analog or
//!   bit-sliced per its [`BackendSpec`]: a [`SlicedMatrix`] per mapped
//!   weight, routed into inference, and the aging mutators that walk
//!   every slice of every layer.
//! * [`deploy`] — programs every conductance-mapped parameter of a
//!   [`healthmon_nn::Network`] through a crossbar write/read-back cycle,
//!   returning the network as the accelerator would actually compute it.
//!   Because the analog MAC is linear in the conductances, the deployed
//!   network's ordinary forward pass is computationally equivalent to
//!   running every matmul through [`TiledMatrix`] (the DAC/ADC effects can
//!   be studied separately at the op level); this equivalence is what the
//!   integration tests verify.
//!
//! # Example
//!
//! ```
//! use healthmon_reram::{Crossbar, CrossbarConfig};
//! use healthmon_tensor::{SeededRng, Tensor};
//!
//! let config = CrossbarConfig::default();
//! let mut rng = SeededRng::new(1);
//! let w = Tensor::randn(&[8, 8], &mut rng);
//! let xbar = Crossbar::program(&w, &config, &mut rng);
//! let x = Tensor::randn(&[1, 8], &mut rng);
//! let y = xbar.matmul(&x);
//! assert_eq!(y.shape(), &[1, 8]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod bitslice;
mod config;
mod crossbar;
mod deploy;
mod irdrop;
mod parity;
mod quant;
mod tiled;

pub use backend::{ActiveBackend, AnalogBackend, BackendKind, BackendSpec};
pub use bitslice::SlicedMatrix;
pub use config::CrossbarConfig;
pub use crossbar::{CellFault, Crossbar};
pub use deploy::{deploy, DeployReport, LayerMapping};
pub use irdrop::IrDropModel;
pub use parity::{ParityCheck, ScrubOutcome};
pub use quant::Quantizer;
pub use tiled::TiledMatrix;
