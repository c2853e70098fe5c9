//! End-to-end and per-layer benchmark of the dtm simulator and its
//! online schedulers. See `README.md` beside this crate for the metric
//! table, the workloads and how to run it.

pub mod gen;
pub mod host;
pub mod layers;
pub mod report;
pub mod workload;
