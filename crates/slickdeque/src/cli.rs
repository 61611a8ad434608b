//! The stand-alone stream aggregator platform as a command-line tool —
//! the paper's §5.1 platform made operable.
//!
//! ```text
//! slickdeque-platform --op max --queries 60:10,600:60 --source debs:42 --tuples 10000
//! slickdeque-platform --op mean --queries 100:25 --source stdin < values.txt
//! ```
//!
//! Queries are `range:slide` pairs (tuples). Invertible operations run on
//! SlickDeque (Inv), selective ones on SlickDeque (Non-Inv); any plan the
//! multi-query engines cannot serve (Cutty punctuations, non-uniform
//! partial counts) falls back to the exact general executor.
//!
//! `--keyed` switches to the sharded engine: the stream is partitioned by
//! key (`--keys` DEBS machines or synthetic streams) across `--shards`
//! worker threads, and the shared plan runs independently per key:
//!
//! ```text
//! slickdeque-platform --op max --queries 60:10 --source debs:42 \
//!     --tuples 100000 --keyed --keys 20 --shards 4
//! ```
//!
//! `--batch N` selects bulk vs scalar ingestion: unkeyed runs feed the
//! shared-plan executor `N`-tuple slices through its batched push path,
//! keyed runs use `N` as the engine's channel batch size. Answers are
//! identical either way; batching only amortises per-tuple overheads.
//!
//! `--ooo` switches a keyed run to event time: each tuple is stamped with
//! its stream position as the event timestamp, `--queries` ranges and
//! slides are read in event-time units, and every key's windows run on a
//! FiBA finger B-tree, emitted when the watermark passes each window end.
//! `--disorder N` shuffles the stream with displacement at most `N`
//! timestamps; `--lateness N` replaces the source's watermark promise
//! with an explicit bound, dropping (and counting) tuples behind it:
//!
//! ```text
//! slickdeque-platform --op sum --queries 60:10 --source debs:42 \
//!     --tuples 100000 --keyed --shards 4 --ooo --disorder 256
//! ```

use crate::prelude::*;
use std::io::{BufRead, Write};
use std::str::FromStr;
use swag_core::ops::MeanPartial;
use swag_data::event::DisorderedKeyedSource;
use swag_data::keyed::{KeyedDebsSource, KeyedSource, KeyedWorkloadSource};
use swag_engine::{EngineConfig, EngineStats, KeyedEventWindows, KeyedPlans, ShardedEngine};
use swag_stream::TimeWindowSpec;

/// Which aggregate operation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpChoice {
    /// Windowed sum (invertible).
    Sum,
    /// Windowed mean (invertible).
    Mean,
    /// Windowed population standard deviation (invertible).
    StdDev,
    /// Windowed maximum (selective).
    Max,
    /// Windowed minimum (selective).
    Min,
}

impl FromStr for OpChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "sum" => Ok(OpChoice::Sum),
            "mean" | "avg" => Ok(OpChoice::Mean),
            "stddev" | "std" => Ok(OpChoice::StdDev),
            "max" => Ok(OpChoice::Max),
            "min" => Ok(OpChoice::Min),
            other => Err(format!(
                "unknown op {other:?} (expected sum|mean|stddev|max|min)"
            )),
        }
    }
}

/// Where the tuples come from.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceChoice {
    /// One `f64` per line on standard input.
    Stdin,
    /// DEBS-shaped synthetic stream: `debs:<seed>[:<channel>]`.
    Debs {
        /// Generator seed.
        seed: u64,
        /// Energy channel (0..3).
        channel: usize,
    },
    /// Characterised synthetic workload: `workload:<name>[:<seed>]`.
    Synthetic {
        /// Workload name (uniform|walk|ascending|descending|sawtooth|constant).
        name: String,
        /// Generator seed.
        seed: u64,
    },
}

impl FromStr for SourceChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(':').collect();
        // An optional numeric field: absent means `default`, malformed is
        // an error rather than a silent default.
        let field = |i: usize, what: &str, default| match parts.get(i) {
            None => Ok(default),
            Some(p) => p.parse().map_err(|_| format!("bad {what} {p:?} in {s:?}")),
        };
        match parts[0] {
            "stdin" if parts.len() == 1 => Ok(SourceChoice::Stdin),
            "debs" if parts.len() <= 3 => {
                let seed = field(1, "seed", 42)?;
                let channel = field(2, "channel", 0)? as usize;
                if channel > 2 {
                    return Err("channel must be 0..3".into());
                }
                Ok(SourceChoice::Debs { seed, channel })
            }
            "workload" if parts.len() <= 3 => {
                let name = parts
                    .get(1)
                    .ok_or("workload needs a name, e.g. workload:uniform")?
                    .to_string();
                parse_workload(&name)?;
                let seed = field(2, "seed", 42)?;
                Ok(SourceChoice::Synthetic { name, seed })
            }
            "stdin" | "debs" | "workload" => Err(format!("too many fields in source {s:?}")),
            other => Err(format!("unknown source {other:?}")),
        }
    }
}

/// Which multi-query engine answers the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineChoice {
    /// SlickDeque (Inv for invertible ops, Non-Inv for selective ones) —
    /// the paper's contribution and the default.
    #[default]
    SlickDeque,
    /// The Naive / Panes final aggregation baseline.
    Naive,
    /// FlatFAT.
    FlatFat,
    /// B-Int.
    BInt,
    /// FlatFIT (dense multi-query regime).
    FlatFit,
    /// The exact general executor: serves any plan, including Cutty
    /// punctuations and non-uniform partial counts.
    General,
}

impl FromStr for EngineChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "slickdeque" => Ok(EngineChoice::SlickDeque),
            "naive" => Ok(EngineChoice::Naive),
            "flatfat" => Ok(EngineChoice::FlatFat),
            "bint" => Ok(EngineChoice::BInt),
            "flatfit" => Ok(EngineChoice::FlatFit),
            "general" => Ok(EngineChoice::General),
            other => Err(format!(
                "unknown engine {other:?} (expected slickdeque|naive|flatfat|bint|flatfit|general)"
            )),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct CliConfig {
    /// The aggregate operation.
    pub op: OpChoice,
    /// The registered ACQs.
    pub queries: Vec<Query>,
    /// Partial-aggregation technique.
    pub pat: Pat,
    /// Multi-query engine.
    pub engine: EngineChoice,
    /// Tuple source.
    pub source: SourceChoice,
    /// Tuples to process (None = until the source ends).
    pub tuples: Option<u64>,
    /// Emit every answer (otherwise a summary only).
    pub emit: bool,
    /// Keyed mode: partition the stream by key and run the plan per key on
    /// the sharded engine.
    pub keyed: bool,
    /// Worker threads in keyed mode.
    pub shards: usize,
    /// Distinct keys the keyed sources generate (DEBS machines /
    /// synthetic streams).
    pub keys: usize,
    /// Ingestion batch size (`--batch`). `None` keeps the defaults:
    /// scalar pull-based execution unkeyed, the engine's default channel
    /// batch keyed. `Some(n > 1)` drives the bulk fast paths: chunked
    /// [`SharedPlanExecutor::push_batch`] unkeyed, `n`-tuple channel
    /// batches keyed.
    pub batch: Option<usize>,
    /// Serve live `/metrics` (Prometheus text) and `/metrics.json` on this
    /// address during a keyed run (e.g. `127.0.0.1:9184`; port 0 picks an
    /// ephemeral port, printed to stderr).
    pub metrics_addr: Option<String>,
    /// Per-shard flight-recorder ring capacity in events. `None` defaults
    /// to 4096 when `--trace-out` is given, otherwise tracing is off.
    pub trace_capacity: Option<usize>,
    /// Directory for `flightrec-<shard>.json` dumps (written on graceful
    /// drain and on worker panic) and, with `--serve`, for the service's
    /// `trace-<pipeline>.json` exports (`results` when absent).
    pub trace_out: Option<std::path::PathBuf>,
    /// Keep the metrics endpoint up this long after the run finishes, so
    /// a scraper can read the final counters (CI smoke uses this).
    pub metrics_hold_ms: u64,
    /// Event-time mode (`--ooo`): stamp tuples with event timestamps and
    /// run watermark-driven time windows on per-key FiBA finger B-trees.
    /// Requires `--keyed`; `--queries` ranges/slides are read in
    /// event-time units.
    pub ooo: bool,
    /// Bounded disorder injected into the event stream (`--disorder N`):
    /// tuples are shuffled with displacement at most `N` timestamps.
    /// 0 keeps the stream in order.
    pub disorder: u64,
    /// Explicit allowed lateness (`--lateness N`): the watermark trails
    /// the largest routed timestamp by `N`; tuples behind it are dropped
    /// and counted. `None` trusts the source's own watermark promise,
    /// under which nothing is late.
    pub lateness: Option<u64>,
    /// Resident-service mode (`--serve`): instead of running one plan to
    /// completion, start a `swag-server` owning named pipelines fed over
    /// a TCP ingest socket and managed over an HTTP control plane
    /// (`--metrics-addr` doubles as the control-plane address).
    pub serve: bool,
    /// Tuple-ingest TCP address in service mode (`--ingest-addr`;
    /// default `127.0.0.1:0`, the bound address is printed).
    pub ingest_addr: Option<String>,
    /// Snapshot directory in service mode (`--snapshot-dir`; default
    /// `results/snapshots`).
    pub snapshot_dir: Option<std::path::PathBuf>,
    /// Pipeline specs (JSON, repeatable `--pipeline`) created at start.
    pub pipelines: Vec<String>,
    /// Pipeline names (repeatable `--restore`) restored from their
    /// snapshots at start.
    pub restores: Vec<String>,
    /// Stop the service after this long (`--serve-hold-ms`; 0 = serve
    /// until the process is killed). Shutdown snapshots every pipeline.
    pub serve_hold_ms: u64,
}

impl CliConfig {
    /// Parse an argument list (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<CliConfig, String> {
        let mut op = OpChoice::Sum;
        let mut queries = Vec::new();
        let mut pat = Pat::Pairs;
        let mut engine = EngineChoice::default();
        let mut source = SourceChoice::Debs {
            seed: 42,
            channel: 0,
        };
        let mut tuples = None;
        let mut emit = false;
        let mut keyed = false;
        let mut shards = 1usize;
        let mut keys = 8usize;
        let mut batch = None;
        let mut metrics_addr = None;
        let mut trace_capacity = None;
        let mut trace_out = None;
        let mut metrics_hold_ms = 0u64;
        let mut ooo = false;
        let mut disorder = 0u64;
        let mut lateness = None;
        let mut serve = false;
        let mut ingest_addr = None;
        let mut snapshot_dir = None;
        let mut pipelines = Vec::new();
        let mut restores = Vec::new();
        let mut serve_hold_ms = 0u64;
        // A flag's numeric value; `what` names it in the error. Flags that
        // count something reject 0.
        fn num<T: FromStr>(raw: String, what: &str) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            raw.parse().map_err(|e| format!("bad {what}: {e}"))
        }
        let positive = |n: usize, flag: &str, unit: &str| match n {
            0 => Err(format!("{flag} must be at least 1{unit}")),
            n => Ok(n),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
            match arg.as_str() {
                "--op" => op = value("--op")?.parse()?,
                "--queries" => {
                    for spec in value("--queries")?.split(',') {
                        let (r, s) = spec
                            .split_once(':')
                            .ok_or_else(|| format!("bad query {spec:?}, expected range:slide"))?;
                        let range: u64 = r.parse().map_err(|e| format!("bad range {r:?}: {e}"))?;
                        let slide: u64 = s.parse().map_err(|e| format!("bad slide {s:?}: {e}"))?;
                        if range == 0 || slide == 0 || slide > range {
                            return Err(format!("invalid query {spec:?} (need 0 < slide ≤ range)"));
                        }
                        queries.push(Query::new(range, slide));
                    }
                }
                "--pat" => {
                    pat = match value("--pat")?.as_str() {
                        "panes" => Pat::Panes,
                        "pairs" => Pat::Pairs,
                        "cutty" => Pat::Cutty,
                        other => return Err(format!("unknown PAT {other:?}")),
                    }
                }
                "--engine" => engine = value("--engine")?.parse()?,
                "--source" => source = value("--source")?.parse()?,
                "--tuples" => tuples = Some(num(value("--tuples")?, "tuple count")?),
                "--emit" => emit = true,
                "--keyed" => keyed = true,
                "--shards" => {
                    shards = positive(num(value("--shards")?, "shard count")?, "--shards", "")?
                }
                "--keys" => keys = positive(num(value("--keys")?, "key count")?, "--keys", "")?,
                "--batch" => {
                    batch = Some(positive(
                        num(value("--batch")?, "batch size")?,
                        "--batch",
                        "",
                    )?)
                }
                "--metrics-addr" => metrics_addr = Some(value("--metrics-addr")?),
                "--trace-capacity" => {
                    trace_capacity = Some(positive(
                        num(value("--trace-capacity")?, "trace capacity")?,
                        "--trace-capacity",
                        " event",
                    )?)
                }
                "--trace-out" => trace_out = Some(std::path::PathBuf::from(value("--trace-out")?)),
                "--metrics-hold-ms" => {
                    metrics_hold_ms = num(value("--metrics-hold-ms")?, "hold duration")?
                }
                "--ooo" => ooo = true,
                "--disorder" => disorder = num(value("--disorder")?, "disorder bound")?,
                "--lateness" => lateness = Some(num(value("--lateness")?, "lateness")?),
                "--serve" => serve = true,
                "--ingest-addr" => ingest_addr = Some(value("--ingest-addr")?),
                "--snapshot-dir" => {
                    snapshot_dir = Some(std::path::PathBuf::from(value("--snapshot-dir")?))
                }
                "--pipeline" => pipelines.push(value("--pipeline")?),
                "--restore" => restores.push(value("--restore")?),
                "--serve-hold-ms" => {
                    serve_hold_ms = num(value("--serve-hold-ms")?, "hold duration")?
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if !serve
            && (ingest_addr.is_some()
                || snapshot_dir.is_some()
                || !pipelines.is_empty()
                || !restores.is_empty()
                || serve_hold_ms > 0)
        {
            return Err(
                "--ingest-addr/--snapshot-dir/--pipeline/--restore/--serve-hold-ms require --serve"
                    .into(),
            );
        }
        if serve && (keyed || ooo || emit || !queries.is_empty()) {
            return Err(
                "--serve is the resident-service mode; windows are configured per pipeline \
                 (--pipeline JSON or the HTTP control plane), not via --queries/--keyed"
                    .into(),
            );
        }
        if queries.is_empty() && !serve {
            return Err("at least one --queries range:slide is required".into());
        }
        if tuples.is_none() && source != SourceChoice::Stdin && !serve {
            return Err("--tuples is required for endless sources".into());
        }
        if keyed && source == SourceChoice::Stdin {
            return Err("--keyed needs a keyed source (debs or workload), not stdin".into());
        }
        if ooo && !keyed {
            return Err("--ooo needs --keyed (event time runs on the sharded engine)".into());
        }
        if !ooo && (disorder > 0 || lateness.is_some()) {
            return Err("--disorder/--lateness require --ooo".into());
        }
        if !keyed
            && !serve
            && (metrics_addr.is_some()
                || trace_capacity.is_some()
                || trace_out.is_some()
                || metrics_hold_ms > 0)
        {
            return Err(
                "--metrics-addr/--trace-capacity/--trace-out/--metrics-hold-ms require --keyed"
                    .into(),
            );
        }
        Ok(CliConfig {
            op,
            queries,
            pat,
            engine,
            source,
            tuples,
            emit,
            keyed,
            shards,
            keys,
            batch,
            metrics_addr,
            trace_capacity,
            trace_out,
            metrics_hold_ms,
            ooo,
            disorder,
            lateness,
            serve,
            ingest_addr,
            snapshot_dir,
            pipelines,
            restores,
            serve_hold_ms,
        })
    }
}

/// Run the resident-service mode (`--serve`): start a [`SwagServer`],
/// create/restore the requested pipelines, and serve until the hold
/// expires (or forever when it is 0). Shutdown snapshots every pipeline.
///
/// [`SwagServer`]: swag_server::SwagServer
pub fn run_serve(cfg: &CliConfig) -> Result<(), String> {
    use swag_server::{PipelineSpec, ServerConfig, SwagServer};

    let mut server_cfg = ServerConfig::default();
    if let Some(addr) = &cfg.ingest_addr {
        server_cfg.ingest_addr = addr.clone();
    }
    if let Some(addr) = &cfg.metrics_addr {
        server_cfg.http_addr = addr.clone();
    }
    if let Some(dir) = &cfg.snapshot_dir {
        server_cfg.snapshot_dir = dir.clone();
    }
    if let Some(dir) = &cfg.trace_out {
        server_cfg.trace_dir = Some(dir.clone());
    }
    let server = SwagServer::start(server_cfg).map_err(|e| format!("start service: {e}"))?;
    eprintln!(
        "serving: tuple ingest on {}, control plane + metrics on http://{}",
        server.ingest_addr(),
        server.http_addr()
    );
    for name in &cfg.restores {
        let spec = server.restore_pipeline(name)?;
        eprintln!("restored pipeline {:?} from its snapshot", spec.name);
    }
    for json in &cfg.pipelines {
        let spec = PipelineSpec::from_json(json)?;
        let name = spec.name.clone();
        server.create_pipeline(spec)?;
        eprintln!("created pipeline {name:?}");
    }
    if cfg.serve_hold_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(cfg.serve_hold_ms));
    } else {
        // Resident until the process is killed; an abrupt kill skips the
        // shutdown snapshot, which is why `DELETE` and `POST …/snapshot`
        // exist on the control plane.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    server.shutdown()
}

/// Drive a shared-plan executor over the whole source: pull-based when the
/// batch size is 1 (scalar), push-based in `batch`-tuple chunks otherwise.
/// Answers are bitwise identical either way.
fn drive_shared<O, M, K>(
    exec: &mut SharedPlanExecutor<O, M>,
    source: &mut VecSource,
    batch: usize,
    sink: &mut K,
) where
    O: AggregateOp<Input = f64> + Clone,
    M: MultiFinalAggregator<O>,
    K: Sink<O::Partial>,
{
    if batch <= 1 {
        exec.run(source, u64::MAX, sink);
    } else {
        let n = source.remaining();
        let values = source.take_values(n);
        for chunk in values.chunks(batch) {
            exec.push_batch(chunk, sink);
        }
    }
}

/// Resolve a workload name from the command line.
fn parse_workload(name: &str) -> Result<Workload, String> {
    Ok(match name {
        "uniform" => Workload::Uniform,
        "walk" => Workload::RandomWalk { sigma: 1.0 },
        "ascending" => Workload::Ascending,
        "descending" => Workload::Descending,
        "sawtooth" => Workload::Sawtooth { period: 512 },
        "constant" => Workload::Constant,
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Materialise the configured source as a bounded tuple vector; `--tuples`
/// counts raw tuples, so endless sources are truncated here.
fn build_source(cfg: &CliConfig, stdin_values: Option<Vec<f64>>) -> Result<VecSource, String> {
    let budget = cfg.tuples.map(|t| t as usize);
    let endless = || budget.ok_or("endless sources need --tuples");
    Ok(match &cfg.source {
        SourceChoice::Stdin => {
            let mut values = stdin_values.unwrap_or_default();
            if let Some(n) = budget {
                values.truncate(n);
            }
            VecSource::new(values)
        }
        SourceChoice::Debs { seed, channel } => {
            let mut src = DebsSource::new(*seed, *channel);
            VecSource::new(src.take_values(endless()?))
        }
        SourceChoice::Synthetic { name, seed } => {
            let mut src = WorkloadSource::new(parse_workload(name)?, *seed);
            VecSource::new(src.take_values(endless()?))
        }
    })
}

/// Materialise the configured source as a keyed source for `--keyed` runs.
fn build_keyed_source(cfg: &CliConfig) -> Result<Box<dyn KeyedSource>, String> {
    match &cfg.source {
        SourceChoice::Stdin => Err("stdin has no keys; use a debs or workload source".into()),
        SourceChoice::Debs { seed, channel } => {
            Ok(Box::new(KeyedDebsSource::new(*seed, cfg.keys, *channel)))
        }
        SourceChoice::Synthetic { name, seed } => Ok(Box::new(KeyedWorkloadSource::new(
            parse_workload(name)?,
            *seed,
            cfg.keys,
        ))),
    }
}

/// One query's outcome in the run summary.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySummary {
    /// The query as registered.
    pub query: Query,
    /// Answers produced.
    pub answers: u64,
    /// The final answer, rendered.
    pub last_answer: String,
}

/// Every registered query, before its first answer.
fn blank_summaries(cfg: &CliConfig) -> Vec<QuerySummary> {
    cfg.queries
        .iter()
        .map(|q| QuerySummary {
            query: *q,
            answers: 0,
            last_answer: "—".to_string(),
        })
        .collect()
}

/// Run the platform; returns per-query summaries. Answers are written to
/// `out` when `emit` is on, one `query_index<TAB>answer` line each.
pub fn run(
    cfg: &CliConfig,
    stdin_values: Option<Vec<f64>>,
    out: &mut dyn Write,
) -> Result<Vec<QuerySummary>, String> {
    if cfg.keyed {
        return run_keyed(cfg, out).map(|(summaries, _)| summaries);
    }
    let plan = SharedPlan::build(&cfg.queries, cfg.pat);
    let mut source = build_source(cfg, stdin_values)?;
    let slides = u64::MAX; // bounded by the materialised source

    if cfg.engine != EngineChoice::General
        && !(plan.all_edges_cut() && plan.uniform_query_ranges().is_some())
    {
        return Err(format!(
            "engine {:?} needs a uniform, punctuation-free plan (this one \
             has Cutty punctuations or non-uniform partial counts); use \
             --engine general",
            cfg.engine
        ));
    }

    let batch = cfg.batch.unwrap_or(1);
    if cfg.engine == EngineChoice::General && batch > 1 {
        return Err(
            "--batch drives the shared-plan executors; --engine general is \
             pull-based and always scalar"
                .into(),
        );
    }

    // The exact general executor serves any plan; the named engines run
    // the corresponding multi-query aggregator over the shared plan and
    // produce identical answers (verified by the test suite). `$slick` is
    // the SlickDeque flavour matching the op class: Inv for invertible
    // ops, Non-Inv for selective ones.
    macro_rules! run_engine {
        ($op:expr, $sink:ident, $slick:ident) => {{
            macro_rules! shared {
                ($multi:ident) => {
                    drive_shared(
                        &mut SharedPlanExecutor::<_, $multi<_>>::new($op, plan.clone()),
                        &mut source,
                        batch,
                        &mut $sink,
                    )
                };
            }
            match cfg.engine {
                EngineChoice::General => {
                    GeneralPlanExecutor::new($op, plan.clone()).run(
                        &mut source,
                        slides,
                        &mut $sink,
                    );
                }
                EngineChoice::SlickDeque => shared!($slick),
                EngineChoice::Naive => shared!(MultiNaive),
                EngineChoice::FlatFat => shared!(MultiFlatFat),
                EngineChoice::BInt => shared!(MultiBInt),
                EngineChoice::FlatFit => shared!(MultiFlatFit),
            }
        }};
    }

    macro_rules! run_op {
        ($op:expr, $render:expr, $class:tt) => {{
            let op = $op;
            let mut sink = CollectSink::new();
            run_engine!(op, sink, $class);
            let mut summaries = blank_summaries(cfg);
            #[allow(clippy::redundant_closure_call)]
            for (qi, answer) in &sink.answers {
                let rendered: String = $render(&op, answer);
                if cfg.emit {
                    writeln!(out, "{qi}\t{rendered}").map_err(|e| e.to_string())?;
                }
                summaries[*qi].answers += 1;
                summaries[*qi].last_answer = rendered;
            }
            Ok(summaries)
        }};
    }

    match cfg.op {
        OpChoice::Sum => run_op!(
            Sum::<f64>::new(),
            |_op: &Sum<f64>, a: &f64| format!("{a:.6}"),
            MultiSlickDequeInv
        ),
        OpChoice::Mean => run_op!(
            Mean::new(),
            |op: &Mean, a: &MeanPartial| format!("{:.6}", op.lower(a)),
            MultiSlickDequeInv
        ),
        OpChoice::StdDev => run_op!(
            StdDev::new(),
            |op: &StdDev, a| format!("{:.6}", op.lower(a)),
            MultiSlickDequeInv
        ),
        OpChoice::Max => run_op!(
            MaxF64::new(),
            |_op: &MaxF64, a: &f64| format!("{a:.6}"),
            MultiSlickDequeNonInv
        ),
        OpChoice::Min => run_op!(
            MinF64::new(),
            |_op: &MinF64, a: &f64| format!("{a:.6}"),
            MultiSlickDequeNonInv
        ),
    }
}

/// Observability wiring for a keyed run: a registry (and live `/metrics`
/// endpoint) when `--metrics-addr` is set, a flight recorder when
/// `--trace-out` or `--trace-capacity` is set. The returned server (if
/// any) must be held until the run finishes, then shut down.
fn build_observability(
    cfg: &CliConfig,
) -> Result<
    (
        Option<swag_engine::HttpServer>,
        swag_engine::ObservabilityConfig,
    ),
    String,
> {
    let registry = cfg
        .metrics_addr
        .as_ref()
        .map(|_| std::sync::Arc::new(swag_metrics::MetricRegistry::new()));
    let server = match (&cfg.metrics_addr, &registry) {
        (Some(addr), Some(registry)) => {
            let server = swag_engine::HttpServer::metrics(addr.as_str(), registry.clone())
                .map_err(|e| format!("--metrics-addr {addr}: {e}"))?;
            eprintln!("metrics: serving http://{}/metrics", server.local_addr());
            Some(server)
        }
        _ => None,
    };
    let obs = swag_engine::ObservabilityConfig {
        registry: registry.clone(),
        trace_capacity: cfg.trace_capacity.unwrap_or(if cfg.trace_out.is_some() {
            4096
        } else {
            0
        }),
        trace_out: cfg.trace_out.clone(),
        sample_interval: registry
            .as_ref()
            .map(|_| std::time::Duration::from_millis(50)),
        labels: Vec::new(),
    };
    Ok((server, obs))
}

/// Run the platform in keyed mode on the sharded engine: the stream is
/// hash-partitioned across `--shards` workers and the queries run
/// independently per key. Returns per-query summaries (aggregated over all
/// keys) plus the engine's run statistics.
///
/// Without `--ooo` the shared plan runs per key over arrival order; with
/// `--emit`, answers are written as `key<TAB>query_index<TAB>answer`
/// lines, grouped by shard; each key's lines are in stream order, but the
/// order of different keys' lines within a batch is unspecified. With
/// `--ooo` each tuple carries its stream position as the event timestamp,
/// `--disorder` shuffles the stream with a provable displacement bound,
/// and every key's `--queries` time windows run on a FiBA finger B-tree
/// and close when the watermark passes their end; `--emit` lines are then
/// `key<TAB>query_index<TAB>window_end<TAB>answer`.
pub fn run_keyed(
    cfg: &CliConfig,
    out: &mut dyn Write,
) -> Result<(Vec<QuerySummary>, EngineStats), String> {
    let tuples = cfg.tuples.ok_or("--tuples is required with --keyed")?;
    // Called by each path once it has refused what it cannot run, so a
    // bad command line starts nothing.
    let set_up = || -> Result<_, String> {
        let source = build_keyed_source(cfg)?;
        let (server, obs) = build_observability(cfg)?;
        let engine = ShardedEngine::try_new(EngineConfig {
            shards: cfg.shards,
            batch: cfg.batch.unwrap_or(EngineConfig::default().batch),
            retain_answers: true,
            obs,
            ..EngineConfig::default()
        })?;
        Ok((source, server, engine))
    };

    let mut summaries = blank_summaries(cfg);
    // Per-key answers are lowered inside the shard workers, so every op
    // and either path tallies the same way; `end` is the closed window's
    // end on the event-time path.
    let mut tally = |key: u64, qi: usize, end: Option<u64>, answer: f64| {
        let rendered = format!("{answer:.6}");
        if cfg.emit {
            match end {
                Some(end) => writeln!(out, "{key}\t{qi}\t{end}\t{rendered}"),
                None => writeln!(out, "{key}\t{qi}\t{rendered}"),
            }
            .map_err(|e| e.to_string())?;
        }
        summaries[qi].answers += 1;
        summaries[qi].last_answer = rendered;
        Ok::<(), String>(())
    };

    let (server, stats) = if cfg.ooo {
        if cfg.engine != EngineChoice::SlickDeque {
            return Err("--ooo always runs time windows on the FiBA finger B-tree; \
                 --engine selects count-based multi-query engines and does not apply"
                .into());
        }
        let (source, server, engine) = set_up()?;
        let specs: Vec<TimeWindowSpec> = cfg
            .queries
            .iter()
            .map(|q| TimeWindowSpec::new(q.range, q.slide))
            .collect();
        // The disorder shuffle is seeded from the source seed so a run
        // line is reproducible end to end.
        let seed = match &cfg.source {
            SourceChoice::Stdin => unreachable!("validated: --keyed rejects stdin"),
            SourceChoice::Debs { seed, .. } | SourceChoice::Synthetic { seed, .. } => *seed,
        };
        let mut source = DisorderedKeyedSource::new(source, cfg.disorder, seed);
        macro_rules! events_op {
            ($op:expr) => {{
                let op = $op;
                engine.run_events(&mut source, tuples, cfg.lateness, |_shard| {
                    KeyedEventWindows::new(op, specs.clone())
                })
            }};
        }
        let run = match cfg.op {
            OpChoice::Sum => events_op!(Sum::<f64>::new()),
            OpChoice::Mean => events_op!(Mean::new()),
            OpChoice::StdDev => events_op!(StdDev::new()),
            OpChoice::Max => events_op!(MaxF64::new()),
            OpChoice::Min => events_op!(MinF64::new()),
        };
        for &(key, (qi, end, answer)) in run.answers.iter().flatten() {
            tally(key, qi, Some(end), answer)?;
        }
        (server, run.stats)
    } else {
        let plan = SharedPlan::build(&cfg.queries, cfg.pat);
        if !(plan.all_edges_cut() && plan.uniform_query_ranges().is_some()) {
            return Err("keyed mode runs shared plans per key and needs a uniform, \
                 punctuation-free plan (this one has Cutty punctuations or \
                 non-uniform partial counts)"
                .into());
        }
        if cfg.engine == EngineChoice::General {
            return Err("--engine general is not available with --keyed".into());
        }
        let (mut source, server, engine) = set_up()?;
        macro_rules! keyed_with {
            ($op:expr, $multi:ident) => {{
                let op = $op;
                engine.run(source.as_mut(), tuples, |_shard| {
                    KeyedPlans::<_, $multi<_>>::new(op, plan.clone())
                })
            }};
        }
        macro_rules! keyed_op {
            ($op:expr, $slick:ident) => {{
                match cfg.engine {
                    EngineChoice::SlickDeque => keyed_with!($op, $slick),
                    EngineChoice::Naive => keyed_with!($op, MultiNaive),
                    EngineChoice::FlatFat => keyed_with!($op, MultiFlatFat),
                    EngineChoice::BInt => keyed_with!($op, MultiBInt),
                    EngineChoice::FlatFit => keyed_with!($op, MultiFlatFit),
                    EngineChoice::General => unreachable!("rejected above"),
                }
            }};
        }
        let run = match cfg.op {
            OpChoice::Sum => keyed_op!(Sum::<f64>::new(), MultiSlickDequeInv),
            OpChoice::Mean => keyed_op!(Mean::new(), MultiSlickDequeInv),
            OpChoice::StdDev => keyed_op!(StdDev::new(), MultiSlickDequeInv),
            OpChoice::Max => keyed_op!(MaxF64::new(), MultiSlickDequeNonInv),
            OpChoice::Min => keyed_op!(MinF64::new(), MultiSlickDequeNonInv),
        };
        for &(key, (qi, answer)) in run.answers.iter().flatten() {
            tally(key, qi, None, answer)?;
        }
        (server, run.stats)
    };

    // Keep the endpoint alive for scrapers (CI smoke) before tearing it
    // down; shutdown is also what Drop would do, but doing it explicitly
    // keeps the hold window deliberate.
    if let Some(server) = server {
        if cfg.metrics_hold_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(cfg.metrics_hold_ms));
        }
        server.shutdown();
    }
    Ok((summaries, stats))
}

/// Read one `f64` per non-empty line.
pub fn read_stdin_values(reader: impl BufRead) -> Result<Vec<f64>, String> {
    let mut values = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        values.push(
            trimmed
                .parse::<f64>()
                .map_err(|e| format!("line {}: {e}", i + 1))?,
        );
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn parses_full_command_line() {
        let cfg = CliConfig::parse(args(
            "--op max --queries 60:10,600:60 --pat cutty --source debs:7:1 --tuples 5000 --emit",
        ))
        .unwrap();
        assert_eq!(cfg.op, OpChoice::Max);
        assert_eq!(cfg.queries, vec![Query::new(60, 10), Query::new(600, 60)]);
        assert_eq!(cfg.pat, Pat::Cutty);
        assert_eq!(
            cfg.source,
            SourceChoice::Debs {
                seed: 7,
                channel: 1
            }
        );
        assert_eq!(cfg.tuples, Some(5000));
        assert!(cfg.emit);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(CliConfig::parse(args("--op juggle --queries 4:1 --tuples 10")).is_err());
        assert!(CliConfig::parse(args("--op sum")).is_err()); // no queries
        assert!(CliConfig::parse(args("--op sum --queries 4:9 --tuples 1")).is_err());
        assert!(CliConfig::parse(args("--op sum --queries 4:1")).is_err()); // endless, no budget
        assert!(CliConfig::parse(args("--op sum --queries 4:1 --source mars --tuples 1")).is_err());
        // Unknown workload names and malformed numeric fields are refused at
        // parse time instead of panicking later or silently defaulting.
        for source in ["workload:bogus", "debs:x", "workload:uniform:x", "debs:1:x"] {
            let line = format!("--op sum --queries 4:1 --source {source} --tuples 1");
            assert!(CliConfig::parse(args(&line)).is_err(), "{source}");
        }
    }

    #[test]
    fn parses_service_mode() {
        let cfg = CliConfig::parse(args(
            "--serve --ingest-addr 127.0.0.1:7878 --metrics-addr 127.0.0.1:9184 \
             --snapshot-dir results/snapshots --restore bids --serve-hold-ms 50",
        ))
        .unwrap();
        assert!(cfg.serve);
        assert_eq!(cfg.ingest_addr.as_deref(), Some("127.0.0.1:7878"));
        assert_eq!(cfg.metrics_addr.as_deref(), Some("127.0.0.1:9184"));
        assert_eq!(cfg.restores, vec!["bids"]);
        assert_eq!(cfg.serve_hold_ms, 50);
        // Service flags without --serve, and batch flags with it, reject.
        assert!(
            CliConfig::parse(args("--op sum --queries 4:1 --tuples 1 --ingest-addr x")).is_err()
        );
        assert!(CliConfig::parse(args("--serve --queries 4:1")).is_err());
        assert!(CliConfig::parse(args("--serve --keyed")).is_err());
    }

    #[test]
    fn serve_mode_creates_pipeline_and_holds() {
        let dir = std::env::temp_dir().join(format!("swag-cli-serve-{}", std::process::id()));
        let cfg = CliConfig::parse(vec![
            "--serve".to_string(),
            "--serve-hold-ms".to_string(),
            "10".to_string(),
            "--snapshot-dir".to_string(),
            dir.display().to_string(),
            "--trace-out".to_string(),
            dir.display().to_string(),
            "--pipeline".to_string(),
            r#"{"name":"p","op":"sum","algorithm":"slickdeque","kind":"count","window":8}"#
                .to_string(),
        ])
        .unwrap();
        run_serve(&cfg).unwrap();
        // The hold expired and shutdown snapshotted the (empty) pipeline.
        assert!(dir.join("p.swag").exists());
        assert!(dir.join("trace-p.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sum_over_stdin_matches_hand_computation() {
        let cfg = CliConfig::parse(args("--op sum --queries 3:1 --source stdin --emit")).unwrap();
        let mut out = Vec::new();
        let summaries = run(&cfg, Some(vec![1.0, 2.0, 3.0, 4.0]), &mut out).unwrap();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].answers, 4);
        assert_eq!(summaries[0].last_answer, "9.000000");
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec!["0\t1.000000", "0\t3.000000", "0\t6.000000", "0\t9.000000"]
        );
    }

    #[test]
    fn max_with_heterogeneous_slides() {
        let cfg = CliConfig::parse(args("--op max --queries 6:2,8:4 --source stdin")).unwrap();
        let values: Vec<f64> = vec![3.0, 7.0, 1.0, 4.0, 9.0, 2.0, 5.0, 8.0];
        let mut out = Vec::new();
        let summaries = run(&cfg, Some(values), &mut out).unwrap();
        // Q1 reports at tuples 2,4,6,8; Q2 at 4,8.
        assert_eq!(summaries[0].answers, 4);
        assert_eq!(summaries[1].answers, 2);
        assert_eq!(summaries[0].last_answer, "9.000000"); // max of tuples 3..8
        assert_eq!(summaries[1].last_answer, "9.000000");
        assert!(out.is_empty(), "no --emit, no per-answer output");
    }

    #[test]
    fn mean_via_synthetic_source() {
        let cfg = CliConfig::parse(args(
            "--op mean --queries 16:4 --source workload:constant --tuples 64",
        ))
        .unwrap();
        let mut out = Vec::new();
        let summaries = run(&cfg, None, &mut out).unwrap();
        assert_eq!(summaries[0].answers, 16);
        assert_eq!(summaries[0].last_answer, "1.000000");
    }

    #[test]
    fn all_engines_agree_on_a_uniform_plan() {
        let values: Vec<f64> = (0..200).map(|i| ((i * 37) % 101) as f64).collect();
        let mut reference: Option<Vec<QuerySummary>> = None;
        for engine in [
            "general",
            "slickdeque",
            "naive",
            "flatfat",
            "bint",
            "flatfit",
        ] {
            for op in ["sum", "max"] {
                let cfg = CliConfig::parse(args(&format!(
                    "--op {op} --queries 24:4,16:8 --engine {engine} --source stdin"
                )))
                .unwrap();
                let mut out = Vec::new();
                let got = run(&cfg, Some(values.clone()), &mut out).unwrap();
                match (&reference, op) {
                    (None, "sum") => reference = Some(got),
                    (Some(r), "sum") => {
                        assert_eq!(&got, r, "engine {engine}");
                    }
                    _ => {
                        // Max answers just need to be produced and equal
                        // across engines; compare against the general run.
                        let gcfg = CliConfig::parse(args(
                            "--op max --queries 24:4,16:8 --engine general --source stdin",
                        ))
                        .unwrap();
                        let mut gout = Vec::new();
                        let gref = run(&gcfg, Some(values.clone()), &mut gout).unwrap();
                        assert_eq!(got, gref, "engine {engine} (max)");
                    }
                }
            }
        }
    }

    #[test]
    fn named_engine_rejects_punctuated_plans() {
        // r=7, s=5 under Cutty produces punctuation edges.
        let cfg = CliConfig::parse(args(
            "--op sum --queries 7:5 --pat cutty --engine slickdeque --source stdin",
        ))
        .unwrap();
        let mut out = Vec::new();
        let err = run(&cfg, Some(vec![1.0; 20]), &mut out).unwrap_err();
        assert!(err.contains("general"), "{err}");
        // The general engine serves it fine.
        let cfg = CliConfig::parse(args(
            "--op sum --queries 7:5 --pat cutty --engine general --source stdin",
        ))
        .unwrap();
        let summaries = run(&cfg, Some(vec![1.0; 20]), &mut out).unwrap();
        assert_eq!(summaries[0].answers, 4);
    }

    #[test]
    fn keyed_flags_parse_and_validate() {
        let cfg = CliConfig::parse(args(
            "--op sum --queries 8:2 --source debs:3 --tuples 100 --keyed --shards 4 --keys 12",
        ))
        .unwrap();
        assert!(cfg.keyed);
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.keys, 12);
        // stdin has no keys.
        assert!(CliConfig::parse(args("--op sum --queries 8:2 --source stdin --keyed")).is_err());
        assert!(CliConfig::parse(args("--op sum --queries 8:2 --tuples 1 --shards 0")).is_err());
    }

    #[test]
    fn observability_flags_parse_and_require_keyed() {
        let cfg = CliConfig::parse(args(
            "--op sum --queries 8:2 --source debs:3 --tuples 100 --keyed \
             --metrics-addr 127.0.0.1:0 --trace-capacity 512 --trace-out results \
             --metrics-hold-ms 250",
        ))
        .unwrap();
        assert_eq!(cfg.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cfg.trace_capacity, Some(512));
        assert_eq!(
            cfg.trace_out.as_deref(),
            Some(std::path::Path::new("results"))
        );
        assert_eq!(cfg.metrics_hold_ms, 250);
        // Defaults when the flags are absent: no registry, no recorder.
        let cfg = CliConfig::parse(args(
            "--op sum --queries 8:2 --source debs:3 --tuples 100 --keyed",
        ))
        .unwrap();
        assert_eq!(cfg.metrics_addr, None);
        assert_eq!(cfg.trace_capacity, None);
        assert_eq!(cfg.trace_out, None);
        assert_eq!(cfg.metrics_hold_ms, 0);
        // The single-threaded path has no shards to observe.
        assert!(CliConfig::parse(args(
            "--op sum --queries 8:2 --tuples 100 --metrics-addr 127.0.0.1:0"
        ))
        .is_err());
        assert!(CliConfig::parse(args(
            "--op sum --queries 8:2 --tuples 100 --trace-out results"
        ))
        .is_err());
        // A zero-capacity ring records nothing and is a config error.
        assert!(CliConfig::parse(args(
            "--op sum --queries 8:2 --source debs:3 --tuples 100 --keyed --trace-capacity 0"
        ))
        .is_err());
    }

    #[test]
    fn batch_flag_parses_and_validates() {
        let cfg = CliConfig::parse(args("--op sum --queries 8:2 --tuples 100 --batch 64")).unwrap();
        assert_eq!(cfg.batch, Some(64));
        let cfg = CliConfig::parse(args("--op sum --queries 8:2 --tuples 100")).unwrap();
        assert_eq!(cfg.batch, None);
        assert!(CliConfig::parse(args("--op sum --queries 8:2 --tuples 100 --batch 0")).is_err());
        assert!(CliConfig::parse(args("--op sum --queries 8:2 --tuples 100 --batch abc")).is_err());
    }

    #[test]
    fn batched_ingestion_matches_scalar() {
        let values: Vec<f64> = (0..300).map(|i| ((i * 37) % 101) as f64).collect();
        for engine in ["slickdeque", "naive", "flatfat"] {
            for op in ["sum", "max", "stddev"] {
                let scalar_cfg = CliConfig::parse(args(&format!(
                    "--op {op} --queries 24:4,16:8 --engine {engine} --source stdin --emit"
                )))
                .unwrap();
                let mut scalar_out = Vec::new();
                let scalar = run(&scalar_cfg, Some(values.clone()), &mut scalar_out).unwrap();

                for batch in [1usize, 7, 64, 512] {
                    let cfg = CliConfig::parse(args(&format!(
                        "--op {op} --queries 24:4,16:8 --engine {engine} --source stdin \
                         --emit --batch {batch}"
                    )))
                    .unwrap();
                    let mut out = Vec::new();
                    let got = run(&cfg, Some(values.clone()), &mut out).unwrap();
                    assert_eq!(got, scalar, "{engine}/{op} batch {batch}");
                    assert_eq!(out, scalar_out, "{engine}/{op} batch {batch} emit");
                }
            }
        }
    }

    #[test]
    fn general_engine_rejects_bulk_batching() {
        let cfg = CliConfig::parse(args(
            "--op sum --queries 8:2 --engine general --source stdin --batch 8",
        ))
        .unwrap();
        let mut out = Vec::new();
        let err = run(&cfg, Some(vec![1.0; 32]), &mut out).unwrap_err();
        assert!(err.contains("--batch"), "{err}");
    }

    #[test]
    fn keyed_batch_size_feeds_engine_config() {
        let cfg = CliConfig::parse(args(
            "--op sum --queries 4:1 --source workload:constant --tuples 64 \
             --keyed --shards 2 --keys 3 --batch 16",
        ))
        .unwrap();
        let mut out = Vec::new();
        let (summaries, stats) = run_keyed(&cfg, &mut out).unwrap();
        assert_eq!(summaries[0].answers, 64);
        // 64 tuples over 16-tuple channel batches cannot need more than a
        // couple of messages per shard.
        assert!(stats.batches >= 4, "batches = {}", stats.batches);
        assert!(stats.tuples_per_batch() <= 16.0);
    }

    /// Per-key answers do not depend on the shard count, in arrival order
    /// or in (disordered) event time: the emitted lines are the same set.
    #[test]
    fn keyed_answers_are_shard_count_invariant() {
        for path in [
            "--queries 16:4,8:2 --keys 7",
            "--queries 32:8 --keys 7 --ooo --disorder 64",
        ] {
            let mut reference: Option<Vec<String>> = None;
            for shards in [1usize, 3] {
                let cfg = CliConfig::parse(args(&format!(
                    "--op max {path} --source debs:9 --tuples 4000 --keyed --shards {shards} --emit"
                )))
                .unwrap();
                let mut out = Vec::new();
                let (summaries, stats) = run_keyed(&cfg, &mut out).unwrap();
                assert_eq!(stats.tuples, 4000, "{path}");
                assert_eq!(stats.shards.len(), shards, "{path}");
                assert_eq!(stats.keys(), 7, "{path}");
                assert_eq!(stats.late_tuples, 0, "the source's promise drops nothing");
                assert!(summaries.iter().all(|s| s.answers > 0), "{path}");
                // Shards interleave differently; compare as a set.
                let mut lines: Vec<String> = String::from_utf8(out)
                    .unwrap()
                    .lines()
                    .map(str::to_string)
                    .collect();
                lines.sort();
                match &reference {
                    None => reference = Some(lines),
                    Some(r) => assert_eq!(&lines, r, "{path} @ {shards} shards"),
                }
            }
        }
    }

    #[test]
    fn keyed_emit_lines_match_per_key_windows() {
        // One key, constant workload: every sum answer over r=4, s=1 after
        // warm-up is 4.0.
        let cfg = CliConfig::parse(args(
            "--op sum --queries 4:1 --source workload:constant --tuples 32 \
             --keyed --shards 2 --keys 1 --emit",
        ))
        .unwrap();
        let mut out = Vec::new();
        let (summaries, _) = run_keyed(&cfg, &mut out).unwrap();
        assert_eq!(summaries[0].answers, 32);
        assert_eq!(summaries[0].last_answer, "4.000000");
        let text = String::from_utf8(out).unwrap();
        let last = text.lines().last().unwrap();
        assert_eq!(last, "0\t0\t4.000000");
    }

    #[test]
    fn keyed_run_routes_through_run_entrypoint() {
        let cfg = CliConfig::parse(args(
            "--op mean --queries 8:2 --source debs:5 --tuples 1000 --keyed --shards 2",
        ))
        .unwrap();
        let mut out = Vec::new();
        let summaries = run(&cfg, None, &mut out).unwrap();
        assert_eq!(summaries.len(), 1);
        assert!(summaries[0].answers > 0);
    }

    #[test]
    fn ooo_flags_parse_and_validate() {
        let cfg = CliConfig::parse(args(
            "--op sum --queries 8:2 --source debs:3 --tuples 100 --keyed \
             --ooo --disorder 16 --lateness 32",
        ))
        .unwrap();
        assert!(cfg.ooo);
        assert_eq!(cfg.disorder, 16);
        assert_eq!(cfg.lateness, Some(32));
        // Defaults: event time is off, streams are in order, the source's
        // watermark promise is trusted.
        let cfg = CliConfig::parse(args(
            "--op sum --queries 8:2 --source debs:3 --tuples 100 --keyed",
        ))
        .unwrap();
        assert!(!cfg.ooo);
        assert_eq!(cfg.disorder, 0);
        assert_eq!(cfg.lateness, None);
        // Event time runs on the sharded engine.
        assert!(CliConfig::parse(args("--op sum --queries 8:2 --tuples 100 --ooo")).is_err());
        // Disorder/lateness describe an event-time stream.
        assert!(CliConfig::parse(args(
            "--op sum --queries 8:2 --source debs:3 --tuples 100 --keyed --disorder 4"
        ))
        .is_err());
        assert!(CliConfig::parse(args(
            "--op sum --queries 8:2 --source debs:3 --tuples 100 --keyed --lateness 4"
        ))
        .is_err());
    }

    #[test]
    fn ooo_emit_reports_window_ends() {
        // One key, constant 1.0 workload, tumbling 8 over timestamps
        // 0..32: four closed windows of sum 8.0 each.
        let cfg = CliConfig::parse(args(
            "--op sum --queries 8:8 --source workload:constant --tuples 32 \
             --keyed --keys 1 --ooo --emit",
        ))
        .unwrap();
        let mut out = Vec::new();
        let (summaries, stats) = run_keyed(&cfg, &mut out).unwrap();
        assert_eq!(summaries[0].answers, 4);
        assert_eq!(summaries[0].last_answer, "8.000000");
        assert_eq!(stats.late_tuples, 0);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "0\t0\t8\t8.000000",
                "0\t0\t16\t8.000000",
                "0\t0\t24\t8.000000",
                "0\t0\t32\t8.000000",
            ]
        );
    }

    #[test]
    fn ooo_rejects_named_engines() {
        let cfg = CliConfig::parse(args(
            "--op sum --queries 8:2 --source debs:3 --tuples 100 --keyed --ooo --engine naive",
        ))
        .unwrap();
        let mut out = Vec::new();
        let err = run_keyed(&cfg, &mut out).unwrap_err();
        assert!(err.contains("--engine"), "{err}");
    }

    #[test]
    fn stdin_reader_parses_and_skips_blanks() {
        let input = "1.5\n\n  2.5 \n-3\n";
        let values = read_stdin_values(input.as_bytes()).unwrap();
        assert_eq!(values, vec![1.5, 2.5, -3.0]);
        assert!(read_stdin_values("abc\n".as_bytes()).is_err());
    }
}
