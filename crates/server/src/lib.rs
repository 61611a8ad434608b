//! # swag-server — resident service mode
//!
//! Turns the batch-oriented sharded engine into a long-lived service:
//! named pipelines created over an HTTP control plane, fed over a TCP
//! ingest socket (length-prefixed binary frames or a line-delimited text
//! fallback), observable through the shared metric registry, and durable
//! via versioned binary snapshots whose restore yields bitwise-identical
//! answers.
//!
//! Everything is `std`-only, matching the engine's dependency-free
//! `/metrics` endpoint: `TcpListener`, threads, and bounded channels.
//!
//! ```no_run
//! use swag_server::{PipelineSpec, ServerConfig, SwagServer};
//!
//! let server = SwagServer::start(ServerConfig::default()).unwrap();
//! let spec = PipelineSpec::from_json(
//!     r#"{"name":"bids","op":"sum","algorithm":"slickdeque",
//!         "kind":"count","window":1000}"#,
//! )
//! .unwrap();
//! server.create_pipeline(spec).unwrap();
//! println!("ingest at {}", server.ingest_addr());
//! server.shutdown().unwrap();
//! ```

#![warn(missing_docs)]

mod control;
mod pipeline;
pub mod proto;
mod server;
mod slo;
pub mod snapshot;
mod spec;

pub use pipeline::{AnswerTable, PipelineStatus};
pub use server::{ServerConfig, SwagServer};
pub use spec::{OpKind, PipelineSpec, PlanKind, SloSpec};
