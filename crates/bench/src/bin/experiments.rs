//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p swag-bench --release --bin experiments -- all
//! cargo run -p swag-bench --release --bin experiments -- exp1a --max-exp 22
//! ```
//!
//! Subcommands: `table1`, `exp1a`, `exp1b`, `exp2a`, `exp2b`, `exp3`,
//! `exp4`, `workloads`, `pats`, `ooo`, `kernels`, `tails`, `all`. Flags:
//! `--quick`, `--max-exp E`, `--multi-max-exp E`, `--budget-ms N`,
//! `--latency-tuples N`, `--seed S`, `--out DIR`, `--no-save`.

use swag_bench::{exp1, exp2, exp3, exp4, kernels, ooo, pats, table1, tails, workloads, Config};
use swag_metrics::alloc::CountingAllocator;

// Exp 4 measures peak live heap bytes through this allocator.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn usage() -> ! {
    eprintln!(
        "usage: experiments <{}|all> \
         [--quick] [--max-exp E] [--multi-max-exp E] [--budget-ms N] \
         [--latency-tuples N] [--seed S] [--out DIR] [--no-save]",
        SUBCOMMANDS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (Vec<String>, Config) {
    let mut cfg = Config::default();
    let mut commands = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                let out = cfg.out_dir.clone();
                cfg = Config::quick();
                cfg.out_dir = out;
            }
            "--max-exp" => {
                cfg.max_exp = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--multi-max-exp" => {
                cfg.multi_max_exp = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--budget-ms" => {
                let ms: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                cfg.point_budget = std::time::Duration::from_millis(ms);
            }
            "--latency-tuples" => {
                cfg.latency_tuples = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seed" => {
                cfg.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => {
                cfg.out_dir = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--no-save" => cfg.out_dir = None,
            cmd if !cmd.starts_with('-') => commands.push(cmd.to_string()),
            _ => usage(),
        }
    }
    if commands.is_empty() {
        usage();
    }
    (commands, cfg)
}

/// Every live subcommand, in the order `all` runs them.
const SUBCOMMANDS: &[&str] = &[
    "table1",
    "exp1a",
    "exp1b",
    "exp2a",
    "exp2b",
    "exp3",
    "exp4",
    "workloads",
    "pats",
    "ooo",
    "kernels",
    "tails",
];

/// Print a result table and, unless `--no-save`, write it under `--out`;
/// a failed write warns rather than vanishing.
macro_rules! report {
    ($cfg:expr, $table:expr) => {{
        let table = $table;
        table.print();
        if let Some(dir) = &$cfg.out_dir {
            if let Err(e) = table.save(dir) {
                eprintln!("warning: could not save results: {e}");
            }
        }
    }};
}

fn main() {
    let (commands, cfg) = parse_args();
    let commands: Vec<&str> = if commands.iter().any(|c| c == "all") {
        SUBCOMMANDS.to_vec()
    } else {
        commands.iter().map(String::as_str).collect()
    };

    for cmd in commands {
        match cmd {
            "table1" => report!(cfg, table1::run(&cfg)),
            "exp1a" => report!(cfg, exp1::run(&cfg, true)),
            "exp1b" => report!(cfg, exp1::run(&cfg, false)),
            "exp2a" => report!(cfg, exp2::run(&cfg, true)),
            "exp2b" => report!(cfg, exp2::run(&cfg, false)),
            "exp3" => report!(cfg, exp3::run(&cfg)),
            "exp4" => {
                let (measured, analytic) = exp4::run(&cfg);
                report!(cfg, measured);
                report!(cfg, analytic);
            }
            "workloads" => report!(cfg, workloads::run(&cfg)),
            "pats" => report!(cfg, pats::run(&cfg)),
            "ooo" => report!(cfg, ooo::run(&cfg)),
            "kernels" => report!(cfg, kernels::run(&cfg)),
            "tails" => report!(cfg, tails::run(&cfg)),
            _ => usage(),
        }
    }
}
