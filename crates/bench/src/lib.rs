//! # swag-bench — the experiment harness regenerating the paper's tables
//! and figures.
//!
//! One module per experiment of §4-§5; the `experiments` binary drives
//! them (`cargo run -p swag-bench --release --bin experiments -- all`).
//! Criterion micro-benchmarks live in `benches/`.
//!
//! | Paper artifact | Module | Subcommand |
//! |---|---|---|
//! | Table 1 (complexities) | [`table1`] | `table1` |
//! | Fig. 10 (single-query Sum throughput) | [`exp1`] | `exp1a` |
//! | Fig. 11 (single-query Max throughput) | [`exp1`] | `exp1b` |
//! | Fig. 12 (max-multi Sum throughput) | [`exp2`] | `exp2a` |
//! | Fig. 13 (max-multi Max throughput) | [`exp2`] | `exp2b` |
//! | Fig. 14 (latency distribution) | [`exp3`] | `exp3` |
//! | Fig. 15 (memory requirement) | [`exp4`] | `exp4` |
//! | §4 input-dependence ablation (extension) | [`workloads`] | `workloads` |
//! | §2.1 PAT ablation (extension) | [`pats`] | `pats` |
//! | Out-of-order ingestion sweep (extension) | [`ooo`] | `ooo` |
//! | Batch-kernel sweep (extension) | [`kernels`] | `kernels` |
//! | Tail-latency sweep (extension) | [`tails`] | `tails` |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exp1;
pub mod exp2;
pub mod exp3;
pub mod exp4;
pub mod kernels;
pub mod microbench;
#[cfg(feature = "obs")]
pub mod obs_overhead;
pub mod ooo;
pub mod pats;
pub mod registry;
pub mod report;
pub mod table1;
pub mod tails;
pub mod workloads;

use std::time::Duration;

/// Shared experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Largest window/query-count exponent in single-query sweeps
    /// (window = 2^max_exp).
    pub max_exp: u32,
    /// Largest exponent in multi-query sweeps (Naive's n²/2 per slide
    /// caps how far the quadratic baseline can be driven).
    pub multi_max_exp: u32,
    /// Wall-clock budget per measured point.
    pub point_budget: Duration,
    /// Tuples replayed in the latency experiment.
    pub latency_tuples: usize,
    /// RNG seed for the DEBS-shaped stream.
    pub seed: u64,
    /// Directory for JSON result dumps (none = don't write).
    pub out_dir: Option<std::path::PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_exp: 20,
            multi_max_exp: 12,
            point_budget: Duration::from_millis(200),
            latency_tuples: 1_000_000,
            seed: 42,
            out_dir: Some(std::path::PathBuf::from("results")),
        }
    }
}

impl Config {
    /// A fast configuration for smoke tests and CI.
    pub fn quick() -> Self {
        Config {
            max_exp: 10,
            multi_max_exp: 7,
            point_budget: Duration::from_millis(20),
            latency_tuples: 50_000,
            seed: 42,
            out_dir: None,
        }
    }

    /// The window sizes of a single-query sweep: powers of two.
    pub fn window_sweep(&self) -> Vec<usize> {
        (0..=self.max_exp).map(|e| 1usize << e).collect()
    }

    /// The window sizes of a multi-query sweep.
    pub fn multi_window_sweep(&self) -> Vec<usize> {
        (0..=self.multi_max_exp).map(|e| 1usize << e).collect()
    }

    /// Window sizes including non-powers of two (Exp 4 "also included
    /// window sizes that are not powers of two", which exposes the
    /// FlatFAT/B-Int rounding step).
    pub fn window_sweep_with_offsets(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for e in 0..=self.max_exp {
            out.push(1usize << e);
            if e >= 2 {
                out.push((1usize << e) + (1usize << (e - 1))); // 1.5 · 2^e
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}
