//! # slickdeque — high throughput, low latency sliding-window aggregation
//!
//! A from-scratch Rust reproduction of *SlickDeque: High Throughput and
//! Low Latency Incremental Sliding-Window Aggregation* (Shein,
//! Chrysanthis, Labrinidis — EDBT 2018): the SlickDeque algorithms, every
//! baseline they are compared against, the multi-ACQ shared-plan
//! machinery, and the stand-alone streaming platform used to evaluate
//! them.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! * [`swag_core`] (re-exported as `core`) — operations and the window algorithms;
//! * [`swag_plan`] (`plan`) — ACQs, PATs, shared execution plans;
//! * [`swag_stream`] (`stream`) — sources, executors, sinks;
//! * [`swag_data`] (`data`) — DEBS12-shaped dataset synthesis, keyed sources;
//! * [`swag_engine`] (`engine`) — the sharded, keyed, multi-threaded engine;
//! * [`swag_ooo`] (`ooo`) — event-time out-of-order aggregation (FiBA finger B-tree);
//! * [`swag_metrics`] (`metrics`) — latency/throughput/memory instrumentation.
//!
//! ## Choosing an algorithm
//!
//! | You have | Use | Cost per slide |
//! |---|---|---|
//! | an invertible op (Sum, Mean, …) | [`SlickDequeInv`] | exactly 2 combines |
//! | a selective op (Max, Min, ArgMax, …) | [`SlickDequeNonInv`] | < 2 combines amortized |
//! | any associative op, need low latency | [`Daba`] | ≤ 8 combines worst case |
//! | any associative op, need throughput | [`TwoStacks`] / [`FlatFit`] | 3 combines amortized |
//! | many ACQs over one stream | [`MultiSlickDequeInv`] / [`MultiSlickDequeNonInv`] | 2q / input-dependent |
//!
//! ## Quick start
//!
//! ```
//! use slickdeque::prelude::*;
//!
//! // Maximum stock price over the last 3 ticks.
//! let op = Max::<f64>::new();
//! let mut window = SlickDequeNonInv::new(op, 3);
//! for price in [101.0, 103.5, 102.0, 99.8] {
//!     window.slide(op.lift(&price));
//! }
//! assert_eq!(window.query(), Some(103.5)); // 101.0 expired
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use swag_core as core;
pub use swag_data as data;
pub use swag_engine as engine;
pub use swag_metrics as metrics;
pub use swag_ooo as ooo;
pub use swag_plan as plan;
pub use swag_server as server;
pub use swag_stream as stream;

pub mod cli;

/// Everything needed for typical use, in one import.
pub mod prelude {
    pub use swag_core::aggregator::{FinalAggregator, MemoryFootprint, MultiFinalAggregator};
    pub use swag_core::algorithms::{
        BInt, Daba, FlatFat, FlatFit, Naive, SlickDequeInv, SlickDequeNonInv, SlickDequeRange,
        TimeSlickDequeInv, TimeSlickDequeNonInv, TwoStacks,
    };
    pub use swag_core::multi::{
        MultiBInt, MultiFlatFat, MultiFlatFit, MultiFlatFitSparse, MultiNaive, MultiSlickDequeInv,
        MultiSlickDequeNonInv, MultiTimeSlickDequeInv, MultiTimeSlickDequeNonInv,
    };
    pub use swag_core::ops::{
        AggregateOp, AlphaMax, ArgMax, ArgMin, Count, CountingOp, First, GeometricMean,
        InvertibleOp, Last, Max, MaxF64, Mean, Min, MinF64, MinMax, OpCounter, PairOp, Product,
        Range, SelectiveOp, StdDev, Sum, SumSquares, Variance,
    };
    pub use swag_data::{
        energy_stream, DebsGenerator, DisorderedKeyedSource, Key, KeyedDebsSource,
        KeyedEventSource, KeyedSource, KeyedVecEventSource, KeyedVecSource, KeyedWorkloadSource,
        Workload,
    };
    pub use swag_engine::{
        shard_of, EngineConfig, EngineStats, KeyedEventWindows, KeyedPlans, KeyedWindows,
        ShardProcessor, ShardStats, ShardedEngine,
    };
    pub use swag_metrics::{
        LatencyRecorder, LatencySummary, QueueDepthGauge, Throughput, ThroughputMeter,
    };
    pub use swag_ooo::{FingerBTree, Timestamp};
    pub use swag_plan::{Pat, Query, SharedPlan, TimeQuery};
    pub use swag_stream::{
        run_single_query, CollectSink, CountSink, DebsSource, GeneralPlanExecutor,
        SharedPlanExecutor, Sink, Source, TimeAnswer, TimeWindowExec, TimeWindowSpec, VecSource,
        WorkloadSource,
    };
}

#[doc(inline)]
pub use prelude::*;
