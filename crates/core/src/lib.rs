//! # swag-core — incremental sliding-window aggregation
//!
//! A from-scratch reproduction of the algorithm suite of *SlickDeque: High
//! Throughput and Low Latency Incremental Sliding-Window Aggregation*
//! (Shein, Chrysanthis, Labrinidis — EDBT 2018): the SlickDeque algorithms
//! for invertible and non-invertible aggregates plus every state-of-the-art
//! baseline the paper compares against (Naive/Panes, FlatFAT, B-Int,
//! FlatFIT, TwoStacks, DABA), in both single-query and multi-query forms.
//!
//! ## Layout
//!
//! * [`ops`] — the aggregate-operation framework (⊕ / ⊖, lift/lower,
//!   invertible & selective classes) and a library of concrete operations.
//! * [`algorithms`] — the eight single-query final aggregators behind the
//!   [`FinalAggregator`] interface.
//! * [`multi`] — the multi-query variants behind
//!   [`MultiFinalAggregator`].
//!
//! ## Quick start
//!
//! ```
//! use swag_core::aggregator::FinalAggregator;
//! use swag_core::algorithms::SlickDequeNonInv;
//! use swag_core::ops::{AggregateOp, Max};
//!
//! let op = Max::<f64>::new();
//! let mut window = SlickDequeNonInv::new(op, 3);
//! window.slide(op.lift(&1.0));
//! window.slide(op.lift(&5.0));
//! window.slide(op.lift(&2.0));
//! assert_eq!(window.query(), Some(5.0));
//! window.slide(op.lift(&0.0)); // 1.0 expires
//! assert_eq!(window.query(), Some(5.0));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregator;
pub mod algorithms;
mod answer_ring;
pub mod invariants;
mod monodeque;
pub mod multi;
pub mod ops;
pub mod state;

pub use aggregator::{FinalAggregator, MemoryFootprint, MultiFinalAggregator};
pub use invariants::InvariantViolation;
pub use state::{PartialCodec, StateError, StateReader, StateWriter, StatefulAggregator};
