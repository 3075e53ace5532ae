#![warn(missing_docs)]

//! # fsmon-spectrum
//!
//! The paper's stated extension target (§II-B2): "IBM Spectrum Scale
//! has a file audit logging capability from version 5.0. Spectrum Scale
//! File Audit Logging takes locally generated file system events and
//! puts them on a multi-node message queue from which they are consumed
//! and written to a retention enabled fileset. Therefore, FSMonitor can
//! be extended to build a scalable monitoring solution for Spectrum
//! Scale."
//!
//! This crate builds that extension, end to end:
//!
//! * [`audit`] — the audit record type with the real facility's fields
//!   (`event`, `path`, `clusterName`, `nodeName`, `inode`, `fileSize`,
//!   …), its JSON encoding (Spectrum Scale emits audit events as JSON;
//!   the codec is [`fsmon_telemetry::json`]), and its mapping into
//!   FSMonitor's standardized vocabulary.
//! * [`cluster`] — a simulated Spectrum Scale cluster: a shared
//!   namespace mutated through per-protocol-node clients, every
//!   operation emitting an audit record onto the multi-node message
//!   queue (our `fsmon-mq`, standing in for the Kafka-based sink the
//!   real product embeds) and into the retention fileset.
//! * [`dsi`] — [`SpectrumDsi`](dsi::SpectrumDsi): the FSMonitor DSI
//!   that subscribes to the audit queue, parses records, and feeds the
//!   resolution layer — making Spectrum Scale one more pluggable
//!   storage system.
//!
//! ```
//! use fsmon_spectrum::{SpectrumCluster, dsi::SpectrumDsi};
//! use fsmon_core::{FsMonitor, MonitorConfig, EventFilter};
//!
//! let cluster = SpectrumCluster::new("gpfs0", 2);
//! let dsi = SpectrumDsi::connect(&cluster, "/gpfs/fs0").unwrap();
//! let mut monitor = FsMonitor::new(Box::new(dsi), MonitorConfig::without_store());
//! let sub = monitor.subscribe(EventFilter::all());
//!
//! let node = cluster.node_client(0);
//! node.create("/data.bin");
//! monitor.pump_until_idle(16);
//! let events = sub.drain();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].path, "/data.bin");
//! ```

pub mod audit;
pub mod cluster;
pub mod dsi;

pub use audit::{AuditEvent, AuditEventType};
pub use cluster::{NodeClient, SpectrumCluster};
pub use dsi::SpectrumDsi;
