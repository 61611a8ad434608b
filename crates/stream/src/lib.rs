//! # swag-stream — the stand-alone stream aggregator platform
//!
//! The experimental platform of the paper's §5.1, reimplemented in Rust:
//! pull-based [`source`]s (DEBS-shaped, synthetic, or replayed vectors),
//! the [`partial`] aggregator cutting tuples into fragments along a shared
//! plan, [`executor`] loops driving any final aggregator, and [`sink`]s
//! receiving the continuous answers.
//!
//! The optional `obs` feature adds executor instrumentation (the `obs`
//! module): flight-recorder events and slide-latency timing on
//! [`SharedPlanExecutor`], attached via `SharedPlanExecutor::attach_obs`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod executor;
#[cfg(feature = "obs")]
pub mod obs;
pub mod partial;
pub mod reorder;
pub mod sink;
pub mod source;
pub mod time_window;

pub use executor::{run_single_query, GeneralPlanExecutor, RunStats, SharedPlanExecutor};
#[cfg(feature = "obs")]
pub use obs::ExecObs;
pub use partial::PartialAggregator;
pub use reorder::{ReorderBuffer, ReorderError};
pub use sink::{CollectSink, CountSink, NullSink, Sink};
pub use source::{DebsSource, Source, VecSource, WorkloadSource};
pub use time_window::{TimeAnswer, TimeWindowExec, TimeWindowSpec};
