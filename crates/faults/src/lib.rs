//! Deterministic fault injection for ReRAM-mapped neural network weights.
//!
//! The paper's evaluation perturbs a trained ("golden") model with two
//! error families and asks whether a small set of test patterns can detect
//! the perturbation:
//!
//! * **Programming variation** — `w' = w · e^θ`, `θ ~ N(0, σ²)`: the
//!   lognormal multiplicative error of imprecise conductance programming
//!   ([`FaultModel::ProgrammingVariation`]).
//! * **Random soft errors** — each weight corrupted independently with
//!   probability `p` ([`FaultModel::RandomSoftError`]), modelling run-time
//!   upsets of stored conductance states.
//!
//! Two further device-motivated models round out the library:
//! stuck-at-zero/one cells ([`FaultModel::StuckAt`]) from fabrication and
//! endurance failures, and monotone resistance drift
//! ([`FaultModel::Drift`]). Models compose via [`FaultModel::Compound`].
//!
//! Injection is **deterministic**: a [`FaultCampaign`] derives one RNG
//! stream per fault-model index from a campaign seed, so every experiment
//! in `EXPERIMENTS.md` can be replayed bit-for-bit.
//!
//! # Example
//!
//! ```
//! use healthmon_faults::{FaultCampaign, FaultModel};
//! use healthmon_nn::models::tiny_mlp;
//! use healthmon_tensor::SeededRng;
//!
//! let mut rng = SeededRng::new(0);
//! let golden = tiny_mlp(4, 8, 3, &mut rng);
//! let campaign = FaultCampaign::new(&golden, 99);
//! let faulty: Vec<_> = campaign
//!     .models(&FaultModel::ProgrammingVariation { sigma: 0.2 }, 5)
//!     .collect();
//! assert_eq!(faulty.len(), 5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arrival;
mod campaign;
mod model;

pub use arrival::{poisson_count, sample_cell_arrivals, CellArrival};
pub use campaign::{
    par_map_indices, par_map_indices_with_threads, par_map_models, par_map_models_with_threads,
    FaultCampaign,
};
pub use model::FaultModel;
