//! # swag-engine — sharded, keyed, multi-threaded window aggregation
//!
//! Scales the single-stream SlickDeque platform to keyed streams and
//! multiple cores: a router hash-partitions `(key, value)` tuples across N
//! worker threads over bounded batch queues ([`shard`]), each worker runs
//! per-key window state — any [`FinalAggregator`] algorithm, a full
//! multi-ACQ shared plan per key ([`keyed`]), or event-time windows closed
//! by the router's watermark ([`event`]: the same router and worker, with
//! late tuples dropped before they are routed) — and per-shard statistics
//! merge into an [`EngineStats`] report ([`stats`]). The router and
//! workers are a [`ResidentEngine`] ([`resident`]), the one way into the
//! shards: each [`ShardedEngine`] run starts one, feeds it a source and
//! stops it; a long-lived caller keeps one and ends each stretch of
//! tuples with a barrier. Live observability — registry-backed metric
//! series, per-shard flight recorders with panic-time dumps, and a
//! dependency-free `/metrics` HTTP endpoint — is opt-in via [`obs`] and
//! [`http`].
//!
//! Determinism: a single router preserves source order and a key lives on
//! exactly one shard, so per-key answers are identical for every shard
//! count.
//!
//! ```
//! use swag_core::algorithms::SlickDequeInv;
//! use swag_core::ops::Sum;
//! use swag_data::keyed::KeyedVecSource;
//! use swag_engine::{EngineConfig, KeyedWindows, ShardedEngine};
//!
//! let engine = ShardedEngine::new(EngineConfig {
//!     shards: 2,
//!     retain_answers: true,
//!     ..EngineConfig::default()
//! });
//! let mut source = KeyedVecSource::new(vec![(1, 2.0), (2, 5.0), (1, 3.0)]);
//! let run = engine.run(&mut source, u64::MAX, |_shard| {
//!     KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), 2)
//! });
//! assert_eq!(run.stats.tuples, 3);
//! let mut answers: Vec<_> = run.answers.into_iter().flatten().collect();
//! answers.sort_by(|a, b| a.partial_cmp(b).unwrap());
//! assert_eq!(answers, vec![(1, 2.0), (1, 5.0), (2, 5.0)]);
//!
//! // A table of each key's latest answer needs only those: with
//! // `latest_only` a shard keeps one answer per entry per drain, and
//! // still counts every answer.
//! let engine = ShardedEngine::new(EngineConfig {
//!     latest_only: true,
//!     ..engine.config().clone()
//! });
//! let mut source = KeyedVecSource::new(vec![(1, 2.0), (2, 5.0), (1, 3.0)]);
//! let run = engine.run(&mut source, u64::MAX, |_shard| {
//!     KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), 2)
//! });
//! assert_eq!(run.stats.answers, 3);
//! let mut answers: Vec<_> = run.answers.into_iter().flatten().collect();
//! answers.sort_by(|a, b| a.partial_cmp(b).unwrap());
//! assert_eq!(answers, vec![(1, 5.0), (2, 5.0)]);
//! ```
//!
//! [`FinalAggregator`]: swag_core::aggregator::FinalAggregator

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod http;
pub mod keyed;
pub mod obs;
mod queue;
pub mod resident;
pub mod shard;
mod slots;
pub mod stats;

pub use event::KeyedEventWindows;
pub use http::HttpServer;
pub use keyed::{KeyedPlans, KeyedWindows, ShardProcessor};
pub use obs::{EngineSample, ObservabilityConfig};
pub use resident::ResidentEngine;
pub use shard::{shard_of, EngineConfig, EngineRun, ShardedEngine};
pub use stats::{EngineStats, ShardStats};
