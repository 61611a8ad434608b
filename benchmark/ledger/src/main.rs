//! `ledger` — the repository's benchmark: four workloads from kernel to
//! wire, end-to-end metrics, and a per-layer cost waterfall. See
//! `benchmark/README.md`.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ledger run --seed <n> [--seconds <s>] [--trace] [--out <runs.json>]
//! ledger agree <runs-a.json> <runs-b.json>
//! ```

mod agree;
mod common;
mod engine;
mod inproc;
mod openloop;
mod probes;
mod replay;
mod span;
mod spec;
mod stats;
mod svc;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use swag_metrics::alloc::CountingAllocator;

use agree::{Run, RunSet, WorkloadResult};
use common::Pass;
use span::Tracer;
use spec::{MetricDef, Report, END_TO_END, PER_LAYER, SETUP_REPEATS, WORKLOADS};

/// Live-heap accounting for `peak_heap_mb`: the paper's memory metric
/// without RSS noise.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Share of `--seconds` the traced pass gives the named workload, once
/// untraced and once traced.
const NAMED_SHARE: f64 = 0.15;

/// Where the traced pass writes its spans (Chrome trace-event format).
const TRACE_FILE: &str = "ledger-trace.json";

/// Measured seconds when `ledger run` is given none: `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: u64 = 20;

const USAGE: &str = "usage:
  ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one workload; the result is one JSON object on the last line of stdout
  ledger run --seed <n> [--seconds <s>] [--trace] [--out <runs.json>]
      every workload, each in its own child process; --trace adds the traced
      pass (per-layer metrics); --out appends the run to a run-set file
  ledger agree <runs-a.json> <runs-b.json>
      compare two run sets of at least 5 runs each on every end-to-end metric
workloads: inproc_count engine_keyed svc_count svc_event_mixed";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("agree") => match &args[1..] {
            [a, b] => agree::command(Path::new(a), Path::new(b)),
            _ => Err(USAGE.to_string()),
        },
        Some(flag) if flag.starts_with("--") => one(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs and bare `--flag`s, in any order.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag) {
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot read {text:?}")),
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(None),
        }
    }

    fn required<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.parsed(flag)?
            .ok_or_else(|| format!("{flag} is required\n{USAGE}"))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// One pass of the named workload.
fn pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    setups: usize,
    options: svc::Options,
    tracer: &mut Tracer,
) -> Pass {
    match workload {
        "inproc_count" => inproc::run(seed, seconds, setups, tracer),
        "engine_keyed" => engine::run(seed, seconds, setups, tracer),
        "svc_count" => svc::run(svc::Kind::Count, seed, seconds, setups, options, tracer),
        "svc_event_mixed" => svc::run(
            svc::Kind::EventMixed,
            seed,
            seconds,
            setups,
            options,
            tracer,
        ),
        other => unreachable!("workload {other:?} was validated"),
    }
}

/// Whether the traced pass of workload `from` is where per-layer metric
/// `name` is read when `named` is the workload asked for. Both service
/// workloads read the pipeline worker, the generator and the watcher;
/// the count service speaks for the pipeline (its cycle is the plain
/// one), the mixed service for the control plane and snapshots, and the
/// generator and watcher readings follow the named workload.
fn reads_layer(from: &str, named: &str, name: &str) -> bool {
    let harness = name.starts_with("gen.") || name.starts_with("watch.");
    match from {
        "svc_count" if harness => named != "svc_event_mixed",
        "svc_event_mixed" if harness => named == "svc_event_mixed",
        "svc_count" => name.starts_with("server.pipeline.") || name.starts_with("server.ingest."),
        "svc_event_mixed" => {
            name.starts_with("server.control.") || name.starts_with("server.snapshot.")
        }
        _ => true,
    }
}

/// Fold a pass's verdict into the report.
fn absorb(report: &mut Report, workload: &str, pass: &Pass) {
    report.correct &= pass.correct;
    report.attempted += pass.attempted;
    report.failed += pass.failed;
    for note in &pass.notes {
        report.notes.push(format!("{workload}: {note}"));
    }
}

/// The untraced pass: every end-to-end metric.
fn end_to_end(workload: &str, seed: u64, seconds: f64) -> Report {
    let mut tracer = Tracer::new(false);
    let pass = pass(
        workload,
        seed,
        seconds,
        SETUP_REPEATS,
        svc::Options::default(),
        &mut tracer,
    );
    let mut report = Report::new();
    absorb(&mut report, workload, &pass);
    report.set("tuples_per_s", pass.tuples_per_s);
    report.set("peak_heap_mb", pass.peak_heap_mb);
    report.set("setup_s", pass.setup_s);
    if let Some(latency) = pass.latency {
        report.set("answer_p50_us", latency.p50_ns / 1e3);
        report.notes.push(format!(
            "{workload}: answer latency over {} samples",
            latency.count
        ));
    }
    report
}

/// The traced pass: every per-layer metric. The named workload runs
/// untraced and traced (their difference is the tracing overhead); the
/// other three run traced and shorter, because every layer's reading is
/// reported whichever workload is named; the micro-probes take the rest.
fn per_layer(workload: &str, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new();
    let options = svc::Options::default();
    let untraced = pass(
        workload,
        seed,
        seconds * NAMED_SHARE,
        1,
        options,
        &mut Tracer::new(false),
    );
    absorb(&mut report, workload, &untraced);

    let mut tracer = Tracer::new(true);
    let mut passes = std::collections::BTreeMap::new();
    for w in &WORKLOADS {
        let share = if w.name == workload {
            NAMED_SHARE
        } else {
            w.trace_share
        };
        let traced = pass(w.name, seed, seconds * share, 1, options, &mut tracer);
        absorb(&mut report, w.name, &traced);
        for (&name, &value) in &traced.extra {
            if reads_layer(w.name, workload, name) {
                report.set(name, value);
            }
        }
        passes.insert(w.name, traced);
    }
    let named = &passes[workload];
    report.set(
        "ledger.tracing_overhead_share",
        1.0 - named.tuples_per_s / untraced.tuples_per_s,
    );
    report.set("proc.cpu_ns_per_tuple", named.cpu_ns_per_tuple);

    // Too few frames met a snapshot in a pass this short: fall back to the
    // mixed workload's own latency tail, which those frames are part of.
    if let Some(tail) = passes["svc_event_mixed"].latency {
        report
            .metrics
            .entry("server.snapshot.stall_p99_us")
            .or_insert(tail.tail_ns / 1e3);
    }
    // The tail is read at the highest percentile that still has ten
    // samples beyond it — p99 only from a thousand samples up.
    if let Some(latency) = named.latency {
        report.set("answer_p99_us", latency.tail_ns / 1e3);
        report.notes.push(format!(
            "{workload}: answer_p99_us read at p{:.2} of {} samples",
            latency.tail_p * 100.0,
            latency.count
        ));
    }

    probes::run(
        seed,
        Duration::from_secs_f64(seconds * 0.2),
        &mut tracer,
        &mut report,
    );

    // Lifecycle-trace sampling: the count service flooded with the
    // server's sampler off and at its default.
    let flood_only = |trace_sample| svc::Options {
        trace_sample,
        rate_share: 0.0,
    };
    let mut flood = |trace_sample| {
        let p = pass(
            "svc_count",
            seed,
            seconds * 0.05,
            1,
            flood_only(trace_sample),
            &mut Tracer::new(false),
        );
        if p.failed > 0 {
            report.correct = false;
            report.failed += p.failed;
            report.notes.extend(p.notes);
        }
        p.tuples_per_s
    };
    let (off, on) = (flood(0), flood(options.trace_sample));
    report.set("trace.sampling_overhead_share", 1.0 - on / off);

    // The service against the engine it wraps, and what of its cost the
    // layers below do not explain.
    let svc_ns = 1e9 / passes["svc_count"].tuples_per_s;
    let s2 = 1e9 / passes["engine_keyed"].tuples_per_s;
    report.set("server.pipeline.ns_per_tuple", svc_ns);
    report.set("engine.shard.s2.ns_per_tuple", s2);
    let get = |r: &Report, name: &str| r.metrics.get(name).copied().unwrap_or(f64::NAN);
    report.set(
        "engine.shard.s2_over_s1",
        s2 / get(&report, "engine.shard.s1.ns_per_tuple"),
    );
    report.set("server.pipeline.over_engine_ratio", svc_ns / s2);
    let explained = get(&report, "server.proto.decode_ns_per_tuple")
        + get(&report, "engine.shard.run_fixed_us") * 1e3
            / get(&report, "server.pipeline.tuples_per_cycle")
        + s2;
    report.set(
        "server.pipeline.unattributed_share",
        1.0 - explained / svc_ns,
    );

    match std::fs::write(TRACE_FILE, tracer.to_chrome_json(workload).pretty()) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {TRACE_FILE} ({} dropped over the cap)",
            tracer.spans().len(),
            tracer.dropped()
        )),
        Err(e) => {
            report.correct = false;
            report.notes.push(format!("{TRACE_FILE}: {e}"));
        }
    }
    for (name, (count, total_ns, self_ns)) in tracer.by_name() {
        report.notes.push(format!(
            "span {name}: {count} spans, {:.3} ms total, {:.3} ms self",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        ));
    }
    report
}

/// Single-workload mode: what the acceptance driver runs.
fn one(args: &[String]) -> Result<bool, String> {
    let flags = Flags(args);
    let workload: String = flags.required("--workload")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload:?}\n{USAGE}"));
    }
    let seed: u64 = flags.required("--seed")?;
    let seconds: f64 = flags.required("--seconds")?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds}: want 1 to 60"));
    }
    let trace = match flags.required::<u8>("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: want 0 or 1")),
    };
    let (report, defs): (Report, &[MetricDef]) = if trace {
        (per_layer(&workload, seed, seconds), PER_LAYER)
    } else {
        (end_to_end(&workload, seed, seconds), END_TO_END)
    };
    for note in &report.notes {
        eprintln!("note: {note}");
    }
    let line = report.result_line(defs)?;
    for d in defs {
        println!(
            "{:<52} {:>18.6} {:<6} ({} is better)",
            d.name, report.metrics[d.name], d.unit, d.better
        );
    }
    println!("{line}");
    Ok(report.correct && report.failed == 0)
}

/// Run one workload in a child process and parse its result line.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no output (exit {})", output.status))?;
    let mut result = WorkloadResult::from_result_line(line)
        .map_err(|e| format!("{workload} (exit {}): {e}", output.status))?;
    result.correct &= output.status.success();
    Ok(result)
}

fn print_results(defs: &[MetricDef], results: &std::collections::BTreeMap<String, WorkloadResult>) {
    for (workload, result) in results {
        println!(
            "== {workload}: {} — {} attempted, {} failed (failed_share {})",
            if result.correct {
                "correct"
            } else {
                "INCORRECT"
            },
            result.attempted,
            result.failed,
            result.failed as f64 / result.attempted.max(1) as f64
        );
        if let Some(w) = WORKLOADS.iter().find(|w| w.name == workload) {
            println!("   ({})", w.why);
        }
        for d in defs {
            if let Some(v) = result.metrics.get(d.name) {
                println!("  {:<52} {:>18.6} {}", d.name, v, d.unit);
            }
        }
    }
}

/// `ledger run`: every workload in its own child process.
fn run_all(args: &[String]) -> Result<bool, String> {
    let flags = Flags(args);
    let seed: u64 = flags.required("--seed")?;
    let seconds: u64 = flags.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let out: Option<PathBuf> = flags.parsed("--out")?;
    let mut all_correct = true;
    let mut collect = |trace: bool| -> Result<_, String> {
        let mut results = std::collections::BTreeMap::new();
        for w in &WORKLOADS {
            let result = child(w.name, seed, seconds, trace)?;
            all_correct &= result.correct && result.failed == 0;
            results.insert(w.name.to_string(), result);
        }
        Ok(results)
    };
    let results = collect(false)?;
    println!("# end-to-end metrics (tracing off), seed {seed}, {seconds} s per workload");
    print_results(END_TO_END, &results);
    if flags.has("--trace") {
        let traced = collect(true)?;
        println!("# per-layer metrics (traced pass), seed {seed}");
        print_results(PER_LAYER, &traced);
    }
    if let Some(path) = out {
        let mut set = RunSet::load(&path)?;
        set.runs.push(Run {
            seed,
            seconds,
            results,
        });
        set.save(&path)?;
        println!("# run {} appended to {}", set.runs.len(), path.display());
    }
    Ok(all_correct)
}
