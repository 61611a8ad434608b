//! Batch-kernel experiment (extension beyond the paper).
//!
//! Measures the slice kernels added by the block-recurrence pass —
//! `fold_slice`, `prefix_scan_into`, `suffix_scan_into` — against the
//! scalar per-element loops the trait defaults describe, then measures
//! the `bulk_insert` hot paths those kernels feed against a per-tuple
//! `slide` loop, and SlickDeque (Non-Inv)'s frame-wise `bulk_slide`
//! against the same loop keeping its answers. Three row groups:
//!
//! - **kernel rows** (`fold_slice`, `prefix_scan`, `suffix_scan`): raw
//!   kernel throughput on a contiguous slice of lifted partials. The
//!   scalar baseline is exactly the default implementation's loop, so
//!   the speedup column isolates what the specialized override buys
//!   (lane-parallel folds for the arithmetic ops, branchless integer-key
//!   scans for `MaxF64`). Scans are bitwise-sequential by contract, so
//!   their speedup hovers near 1 — they are measured to catch
//!   regressions, not to claim wins.
//! - **`bulk_insert` rows**: end-to-end batch ingestion through
//!   `SlickDequeInv` (Sum/Mean/StdDev) and `SlickDequeNonInv` (Max) vs
//!   a `slide`-per-tuple loop on the same aggregator, window
//!   [`KERNEL_WINDOW`].
//! - **`bulk_slide` rows**: `SlickDequeNonInv::bulk_slide` (Max) vs the
//!   trait default it overrides — a `slide` loop pushing each answer — at
//!   [`FRAME_BATCHES`]. Batch 8 is under the frame kernel's cut-over, so
//!   both sides run the per-slide loop; from 16 up the override answers
//!   frame-wise. An override against its own default, so these rows are
//!   gated like the kernel rows.
//!
//! Rates are elements/sec (`ops_per_sec`) and input bytes/sec
//! (`bytes_per_sec` = elements/sec × partial size). Each (scalar,
//! kernel) pair is measured in alternating best-of-[`ROUNDS`] rounds so
//! the speedup column is robust to scheduler noise. Results go to
//! `results/kernels.json`; the `kernel_bench` binary re-runs this sweep
//! at reduced budget and gates CI on the speedup floor.

use crate::report::save_json;
use crate::Config;
use slickdeque::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};
use swag_metrics::{Json, ToJson};

/// Batch sizes swept; 1 is the degenerate single-element case, 64 the
/// first size where lane kernels engage fully.
pub const KERNEL_BATCHES: &[usize] = &[1, 64, 512, 4096];

/// Batch sizes of the `bulk_slide` rows: either side of the frame
/// kernel's cut-over (16), then the sizes the gate reads.
pub const FRAME_BATCHES: &[usize] = &[8, 16, 64, 512];

/// Window for the `bulk_insert` and `bulk_slide` rows: larger than every batch, so the
/// non-invertible deque keeps live survivors across batches.
pub const KERNEL_WINDOW: usize = 2048;

/// Alternating measurement rounds per (scalar, kernel) pair; the best
/// round of each side is kept.
pub const ROUNDS: usize = 3;

/// One (group, op, batch) measurement.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// `fold_slice`, `prefix_scan`, `suffix_scan`, `bulk_insert`, or
    /// `bulk_slide`.
    pub group: String,
    /// Operation name (`sum`, `max`, `mean`, `stddev`).
    pub op: String,
    /// Slice length (kernel rows) or tuples per `bulk_insert` call.
    pub batch: usize,
    /// Elements per second through the specialized path.
    pub ops_per_sec: f64,
    /// Input bytes per second through the specialized path.
    pub bytes_per_sec: f64,
    /// Elements per second through the scalar baseline loop.
    pub scalar_ops_per_sec: f64,
    /// `ops_per_sec / scalar_ops_per_sec`.
    pub speedup: f64,
}

/// The kernel sweep: specialized vs scalar throughput per kernel.
#[derive(Debug, Clone)]
pub struct KernelTable {
    /// Experiment identifier (`kernels`).
    pub id: String,
    /// Window used by the `bulk_insert` rows.
    pub window: usize,
    /// One row per (group, op, batch).
    pub rows: Vec<KernelRow>,
}

impl KernelTable {
    /// Print as an aligned console table.
    pub fn print(&self) {
        println!("\n== Batch kernels — window {} ==", self.window);
        println!(
            "{:>12} {:>8} {:>6} {:>12} {:>12} {:>12} {:>8}",
            "kernel", "op", "batch", "ops/s", "bytes/s", "scalar/s", "speedup"
        );
        for r in &self.rows {
            println!(
                "{:>12} {:>8} {:>6} {:>12.3e} {:>12.3e} {:>12.3e} {:>7.2}x",
                r.group,
                r.op,
                r.batch,
                r.ops_per_sec,
                r.bytes_per_sec,
                r.scalar_ops_per_sec,
                r.speedup
            );
        }
    }

    /// Write as JSON to `dir/kernels.json`.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<()> {
        save_json(dir, &self.id, &self.to_json())
    }

    /// The row for one (group, op, batch) point.
    pub fn get(&self, group: &str, op: &str, batch: usize) -> Option<&KernelRow> {
        self.rows
            .iter()
            .find(|r| r.group == group && r.op == op && r.batch == batch)
    }

    /// Gate check: kernel-group rows at `batch ≥ 64` whose speedup falls
    /// below `floor`. An empty return means every specialized kernel at
    /// least matches its scalar default (within the tolerance the floor
    /// encodes). `bulk_insert` rows are excluded — they compare different
    /// algorithms (batch vs per-tuple ingestion), not a kernel against
    /// its own default.
    pub fn gate_violations(&self, floor: f64) -> Vec<String> {
        self.rows
            .iter()
            .filter(|r| r.group != "bulk_insert" && r.batch >= 64 && r.speedup < floor)
            .map(|r| {
                format!(
                    "{}/{} batch {}: speedup {:.2} below floor {floor:.2}",
                    r.group, r.op, r.batch, r.speedup
                )
            })
            .collect()
    }
}

impl ToJson for KernelTable {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::str(self.id.as_str())),
            ("window", Json::UInt(self.window as u64)),
            (
                "rows",
                Json::arr(&self.rows, |r| {
                    Json::obj(vec![
                        ("group", Json::str(r.group.as_str())),
                        ("op", Json::str(r.op.as_str())),
                        ("batch", Json::UInt(r.batch as u64)),
                        ("ops_per_sec", Json::Num(r.ops_per_sec)),
                        ("bytes_per_sec", Json::Num(r.bytes_per_sec)),
                        ("scalar_ops_per_sec", Json::Num(r.scalar_ops_per_sec)),
                        ("speedup", Json::Num(r.speedup)),
                    ])
                }),
            ),
        ])
    }
}

/// Elements/sec of `work` (which processes `batch` elements per call)
/// within the given wall-clock budget.
fn rate(budget: Duration, batch: usize, work: &mut dyn FnMut()) -> f64 {
    work(); // warm up: touch the data, fault the scratch
    let mut elems = 0u64;
    let start = Instant::now();
    loop {
        work();
        elems += batch as u64;
        if start.elapsed() >= budget {
            break;
        }
    }
    elems as f64 / start.elapsed().as_secs_f64()
}

/// Best-of-[`ROUNDS`] alternating measurement of a (scalar, kernel)
/// pair; alternation exposes both sides to the same interference.
fn measure_pair(
    budget: Duration,
    batch: usize,
    scalar: &mut dyn FnMut(),
    kernel: &mut dyn FnMut(),
) -> (f64, f64) {
    let slice = budget / (2 * ROUNDS as u32);
    let mut best_scalar = 0.0f64;
    let mut best_kernel = 0.0f64;
    for _ in 0..ROUNDS {
        best_scalar = best_scalar.max(rate(slice, batch, scalar));
        best_kernel = best_kernel.max(rate(slice, batch, kernel));
    }
    (best_scalar, best_kernel)
}

fn push_row(
    rows: &mut Vec<KernelRow>,
    group: &str,
    op: &str,
    batch: usize,
    partial_bytes: usize,
    (scalar, kernel): (f64, f64),
) {
    rows.push(KernelRow {
        group: group.to_string(),
        op: op.to_string(),
        batch,
        ops_per_sec: kernel,
        bytes_per_sec: kernel * partial_bytes as f64,
        scalar_ops_per_sec: scalar,
        speedup: if scalar > 0.0 { kernel / scalar } else { 0.0 },
    });
}

/// Kernel rows for one op: specialized `fold_slice` / `prefix_scan_into`
/// / `suffix_scan_into` vs loops identical to the trait defaults.
fn kernel_rows<O>(name: &str, op: &O, values: &[f64], budget: Duration, rows: &mut Vec<KernelRow>)
where
    O: AggregateOp<Input = f64>,
{
    let lifted: Vec<O::Partial> = values.iter().map(|v| op.lift(v)).collect();
    let bytes = core::mem::size_of::<O::Partial>();
    // Separate scratch per side so the two closures can coexist.
    let mut scalar_out: Vec<O::Partial> = Vec::new();
    let mut kernel_out: Vec<O::Partial> = Vec::new();
    for &batch in KERNEL_BATCHES {
        let slice = &lifted[..batch];

        let pair = measure_pair(
            budget,
            batch,
            &mut || {
                let mut acc = slice[0].clone();
                for p in &slice[1..] {
                    acc = op.combine(&acc, p);
                }
                black_box(&acc);
            },
            &mut || {
                black_box(&op.fold_slice(&slice[0], &slice[1..]));
            },
        );
        push_row(rows, "fold_slice", name, batch, bytes, pair);

        let scalar_scan = |suffix: bool, out: &mut Vec<O::Partial>| {
            out.clear();
            out.extend_from_slice(slice);
            if suffix {
                for k in (0..batch.saturating_sub(1)).rev() {
                    let acc = op.combine(&out[k], &out[k + 1]);
                    out[k] = acc;
                }
            } else {
                for k in 1..batch {
                    let acc = op.combine(&out[k - 1], &out[k]);
                    out[k] = acc;
                }
            }
        };
        let pair = measure_pair(
            budget,
            batch,
            &mut || {
                scalar_scan(false, &mut scalar_out);
                black_box(&scalar_out);
            },
            &mut || {
                op.prefix_scan_into(slice, &mut kernel_out);
                black_box(&kernel_out);
            },
        );
        push_row(rows, "prefix_scan", name, batch, bytes, pair);

        let pair = measure_pair(
            budget,
            batch,
            &mut || {
                scalar_scan(true, &mut scalar_out);
                black_box(&scalar_out);
            },
            &mut || {
                op.suffix_scan_into(slice, &mut kernel_out);
                black_box(&kernel_out);
            },
        );
        push_row(rows, "suffix_scan", name, batch, bytes, pair);
    }
}

/// `bulk_insert` rows for one aggregator: batched ingestion vs a
/// `slide`-per-tuple loop on an identically warmed window.
fn bulk_rows<O, A>(name: &str, op: O, values: &[f64], budget: Duration, rows: &mut Vec<KernelRow>)
where
    O: AggregateOp<Input = f64> + Clone,
    A: FinalAggregator<O>,
{
    let lifted: Vec<O::Partial> = values.iter().map(|v| op.lift(v)).collect();
    let bytes = core::mem::size_of::<O::Partial>();
    for &batch in KERNEL_BATCHES {
        let warm = |op: &O| {
            let mut agg = A::with_capacity(op.clone(), KERNEL_WINDOW);
            for p in lifted.iter().cycle().take(2 * KERNEL_WINDOW) {
                agg.slide(p.clone());
            }
            agg
        };
        let mut scalar_agg = warm(&op);
        let mut kernel_agg = warm(&op);
        let slice = &lifted[..batch];
        let pair = measure_pair(
            budget,
            batch,
            &mut || {
                for p in slice {
                    black_box(&scalar_agg.slide(p.clone()));
                }
            },
            &mut || {
                kernel_agg.bulk_insert(slice);
                black_box(&kernel_agg);
            },
        );
        push_row(rows, "bulk_insert", name, batch, bytes, pair);
    }
}

/// `bulk_slide` rows: SlickDeque (Non-Inv)'s frame-wise override vs the
/// `slide`-and-push loop of the trait default, on identically warmed
/// windows.
fn frame_rows(values: &[f64], budget: Duration, rows: &mut Vec<KernelRow>) {
    let op = MaxF64::new();
    let warm = || {
        let mut agg = SlickDequeNonInv::with_capacity(op, KERNEL_WINDOW);
        for v in values.iter().cycle().take(2 * KERNEL_WINDOW) {
            agg.slide(*v);
        }
        agg
    };
    let mut scalar_out = Vec::new();
    let mut kernel_out = Vec::new();
    for &batch in FRAME_BATCHES {
        let mut scalar_agg = warm();
        let mut kernel_agg = warm();
        let slice = &values[..batch];
        let pair = measure_pair(
            budget,
            batch,
            &mut || {
                scalar_out.clear();
                for p in slice {
                    scalar_out.push(scalar_agg.slide(*p));
                }
                black_box(&scalar_out);
            },
            &mut || {
                kernel_agg.bulk_slide(slice, &mut kernel_out);
                black_box(&kernel_out);
            },
        );
        push_row(
            rows,
            "bulk_slide",
            "max",
            batch,
            core::mem::size_of::<f64>(),
            pair,
        );
    }
}

/// Run the sweep: kernel rows for Sum/Max/Mean/StdDev, `bulk_insert`
/// rows for the two SlickDeque variants, then the `bulk_slide` rows.
pub fn run(cfg: &Config) -> KernelTable {
    let max_batch = *KERNEL_BATCHES.last().expect("non-empty batches");
    let stream = crate::registry::CyclicStream::debs(1 << 14, cfg.seed);
    let values = stream.prefix(max_batch.max(KERNEL_WINDOW)).to_vec();
    let budget = cfg.point_budget;
    let mut rows = Vec::new();

    kernel_rows("sum", &Sum::<f64>::new(), &values, budget, &mut rows);
    kernel_rows("max", &MaxF64::new(), &values, budget, &mut rows);
    kernel_rows("mean", &Mean::new(), &values, budget, &mut rows);
    kernel_rows("stddev", &StdDev::new(), &values, budget, &mut rows);

    bulk_rows::<_, SlickDequeInv<_>>("sum", Sum::<f64>::new(), &values, budget, &mut rows);
    bulk_rows::<_, SlickDequeNonInv<_>>("max", MaxF64::new(), &values, budget, &mut rows);
    bulk_rows::<_, SlickDequeInv<_>>("mean", Mean::new(), &values, budget, &mut rows);
    bulk_rows::<_, SlickDequeInv<_>>("stddev", StdDev::new(), &values, budget, &mut rows);

    frame_rows(&values, budget, &mut rows);

    KernelTable {
        id: "kernels".to_string(),
        window: KERNEL_WINDOW,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> Config {
        let mut cfg = Config::quick();
        cfg.point_budget = Duration::from_millis(6);
        cfg
    }

    #[test]
    fn sweep_covers_every_group_op_and_batch() {
        let t = run(&tiny_cfg());
        // 4 ops × 3 kernels × 4 batches, plus 4 bulk combos × 4 batches,
        // plus the bulk_slide rows.
        assert_eq!(t.rows.len(), 4 * 3 * 4 + 4 * 4 + FRAME_BATCHES.len());
        for r in &t.rows {
            assert!(
                r.ops_per_sec > 0.0,
                "{}/{} batch {}",
                r.group,
                r.op,
                r.batch
            );
            assert!(r.scalar_ops_per_sec > 0.0, "{}/{}", r.group, r.op);
            assert!(r.bytes_per_sec >= r.ops_per_sec, "{}/{}", r.group, r.op);
        }
        assert!(t.get("fold_slice", "sum", 512).is_some());
        assert!(t.get("bulk_insert", "max", 4096).is_some());
        assert!(t.get("bulk_slide", "max", 16).is_some());
    }

    #[test]
    fn gate_flags_only_kernel_rows_below_floor() {
        let mut t = run(&tiny_cfg());
        // No row can beat an impossible floor …
        let all = t.gate_violations(f64::INFINITY);
        assert_eq!(
            all.len(),
            4 * 3 * 3 + 2,
            "batch ≥ 64 kernel and bulk_slide rows only"
        );
        // … and bulk_insert rows are never gated even when slow.
        for r in &mut t.rows {
            if r.group == "bulk_insert" {
                r.speedup = 0.0;
            }
        }
        assert!(t.gate_violations(0.0).is_empty());
    }

    #[test]
    fn json_shape_is_stable() {
        let text = run(&tiny_cfg()).to_json().pretty();
        assert!(text.contains("\"id\": \"kernels\""));
        assert!(text.contains("\"fold_slice\""));
        assert!(text.contains("\"bulk_insert\""));
        assert!(text.contains("\"speedup\""));
    }
}
