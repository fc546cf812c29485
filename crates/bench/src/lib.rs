//! Experiment regeneration harness for the paper's tables and figures.
//!
//! Each binary under `src/bin/` regenerates one table or figure; shared
//! plumbing (model training/caching, campaign construction, report
//! formatting) lives here. See `DESIGN.md` §4 for the experiment index.

pub mod harness;
pub mod timing;
