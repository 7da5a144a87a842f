//! The repo's benchmark: four workloads over the Table VIII query mix,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced one.  Every layer is measured from outside, by timing calls into
//! the crates' public functions.  See `README.md`.

pub mod json;
pub mod layers;
pub mod paper;
pub mod repeat;
pub mod run;
pub mod serve;
pub mod setup;
pub mod spec;
pub mod stats;
pub mod trace;
