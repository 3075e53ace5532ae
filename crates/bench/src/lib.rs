#![warn(missing_docs)]

//! # fsmon-bench
//!
//! Shared harness code for the per-table experiment binaries (see
//! `src/bin/table*.rs`). DESIGN.md §4 maps every paper table and
//! figure to its binary.

pub mod harness;

pub use harness::{local_reporting_rate, lustre_throughput, LocalRun, LustreRun, MonitorKind};
