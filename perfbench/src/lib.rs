//! End-to-end and per-layer benchmark of the EnCore training and serving
//! paths.  See `README.md` in this directory for the workloads, the metric
//! map and how to produce a traced run.

pub mod check;
pub mod report;
pub mod run;
pub mod serve;
pub mod trace;
pub mod train;
pub mod workload;
