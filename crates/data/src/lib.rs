//! # swag-data — DEBS12-shaped dataset synthesis and persistence
//!
//! The paper's evaluation replays the DEBS 2012 Grand Challenge dataset
//! (manufacturing-equipment sensor events at 100 Hz: 3 energy readings +
//! 51 state fields per tuple). That dataset is not redistributable, so
//! [`debs`] synthesises a stream of identical shape and ordering
//! statistics (see DESIGN.md §3 for the substitution argument), [`csv`]
//! persists/replays it, and [`synthetic`] provides the characterised
//! workloads (uniform, ramps, sawtooth) the complexity analysis refers to.
//!
//! [`keyed`] lifts both families to keyed `(key, value)` streams for the
//! sharded engine (`swag-engine`), [`nexmark`] synthesises the
//! NEXMark-shaped auction/bid stream that drives the resident service
//! (`swag-server`) in its observability tests, the benchmark's service
//! workloads and `examples/resident_service.rs`, and [`prng`] vendors the
//! SplitMix64/xoshiro256** generators everything draws randomness from,
//! keeping the workspace free of external dependencies.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod csv;
pub mod debs;
pub mod event;
pub mod keyed;
pub mod nexmark;
pub mod prng;
pub mod synthetic;

pub use debs::{energy_stream, generate, DebsEvent, DebsGenerator, DEBS_SAMPLE_HZ};
pub use event::{DisorderedKeyedSource, KeyedEventSource, KeyedVecEventSource};
pub use keyed::{Key, KeyedDebsSource, KeyedSource, KeyedVecSource, KeyedWorkloadSource};
pub use nexmark::{Bid, NexmarkConfig, NexmarkGenerator};
pub use prng::{mix64, SplitMix64, Xoshiro256StarStar};
pub use synthetic::Workload;
