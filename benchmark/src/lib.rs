//! # fsmon-benchmark
//!
//! The repository's one benchmark. It measures the crates from
//! outside — timing calls into their public functions and reading
//! their public stats — and changes no file of theirs. See
//! `benchmark/README.md` for the glossary of workload and metric
//! names and the rule a performance claim is judged by.

#![warn(missing_docs)]

pub mod check;
pub mod gen;
pub mod host;
pub mod json;
pub mod report;
pub mod run;
pub mod span;
pub mod spec;
pub mod stats;
pub mod walk;
