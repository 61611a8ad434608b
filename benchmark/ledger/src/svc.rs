//! `svc_count` and `svc_event_mixed`: the resident `SwagServer` on
//! loopback, one pipeline created from spec JSON, NEXMark bids as binary
//! frames of 256 over one ingest connection.
//!
//! Two threads besides the server's own: the **generator** (this thread)
//! sends a rate segment on a fixed schedule and then a flood segment as
//! fast as backpressure allows; the **watcher** polls the pipeline's
//! processed-tuple count to time every frame from its due instant, samples
//! the backlog, and — for the mixed workload — reads answers, status and
//! metrics and takes snapshots over HTTP without ever blocking on them.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use swag_metrics::registry::Counter;
use swag_metrics::Json;
use swag_server::proto::IngestClient;
use swag_server::{PipelineSpec, ServerConfig, SwagServer};

use crate::common::{self, HeapMark, Pass};
use crate::openloop::{Schedule, Settled, Settler};
use crate::replay::{self, Tuple};
use crate::span::Tracer;
use crate::spec::{
    BACKLOG_GROWTH_LIMIT, EVENT_LATENESS, EVENT_RANGE, EVENT_SLIDE, R_COUNT, R_EVENT, SVC_BLOCK,
    SVC_FRAME, SVC_RATE_SHARE, SVC_WARM, SVC_WINDOW, WATCH_ANSWERS_EVERY_MS, WATCH_POLL_SLEEP_US,
    WATCH_SNAPSHOT_EVERY_MS, WATCH_STATUS_EVERY_MS,
};
use crate::stats;

/// Which of the two service workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-order count-window pipeline, no control-plane traffic.
    Count,
    /// Out-of-order event-time pipeline with reads and snapshots beside
    /// the writes.
    EventMixed,
}

impl Kind {
    /// The workload's name.
    pub fn workload(self) -> &'static str {
        match self {
            Kind::Count => "svc_count",
            Kind::EventMixed => "svc_event_mixed",
        }
    }

    fn pipeline(self) -> &'static str {
        match self {
            Kind::Count => "bid-sums",
            Kind::EventMixed => "highest-bid",
        }
    }

    /// The frozen rate of the rate segment, tuples/s.
    pub fn rate(self) -> f64 {
        match self {
            Kind::Count => R_COUNT,
            Kind::EventMixed => R_EVENT,
        }
    }

    fn spec_json(self) -> String {
        match self {
            Kind::Count => format!(
                r#"{{"name":"{}","op":"sum","algorithm":"slickdeque","kind":"count","window":{SVC_WINDOW},"shards":2}}"#,
                self.pipeline()
            ),
            Kind::EventMixed => format!(
                r#"{{"name":"{}","op":"max","algorithm":"fiba","kind":"event","range":{EVENT_RANGE},"slide":{EVENT_SLIDE},"lateness":{EVENT_LATENESS},"shards":2}}"#,
                self.pipeline()
            ),
        }
    }

    fn block(self, seed: u64) -> Vec<Tuple> {
        match self {
            Kind::Count => replay::bid_block(seed, SVC_BLOCK),
            Kind::EventMixed => replay::event_bid_block(seed, SVC_BLOCK, EVENT_LATENESS),
        }
    }

    /// The `i`-th tuple of the stream the generator sends.
    fn tuple(self, block: &[Tuple], i: u64) -> Tuple {
        match self {
            Kind::Count => block[(i % block.len() as u64) as usize],
            Kind::EventMixed => replay::replayed_event(block, i),
        }
    }
}

/// What a run varies beyond the workload itself.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// `ServerConfig::trace_sample` (the server's default is 128).
    pub trace_sample: u64,
    /// Share of the measured time the rate segment gets (the flood
    /// segment gets the rest).
    pub rate_share: f64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            trace_sample: ServerConfig::default().trace_sample,
            rate_share: SVC_RATE_SHARE,
        }
    }
}

/// The pipeline's processed-tuple count, read from the server's registry
/// without taking any of its locks: tuples aggregated plus tuples dropped
/// late.
#[derive(Clone)]
struct Processed {
    tuples: Counter,
    late: Counter,
}

impl Processed {
    fn get(&self) -> u64 {
        self.tuples.get() + self.late.get()
    }
}

static RUN_DIRS: AtomicU64 = AtomicU64::new(0);

/// Parent of every scratch directory, in the working directory.
const SCRATCH_ROOT: &str = "ledger-tmp";

/// A fresh scratch directory under [`SCRATCH_ROOT`].
pub fn scratch_dir() -> PathBuf {
    let n = RUN_DIRS.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(SCRATCH_ROOT).join(format!("{}-{n}", std::process::id()))
}

/// Remove a scratch directory, and the root once it is empty.
pub fn remove_scratch(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir(SCRATCH_ROOT);
}

struct Ready {
    kind: Kind,
    block: Vec<Tuple>,
    frame: Vec<Tuple>,
    sends: Vec<(u64, u64, u64)>,
    server: Option<SwagServer>,
    client: Option<IngestClient<TcpStream>>,
    processed: Processed,
    dir: PathBuf,
    /// Tuples sent so far (index of the next tuple of the stream).
    next: u64,
    heap: HeapMark,
}

impl Drop for Ready {
    fn drop(&mut self) {
        // A set-up that is not measured is torn down here.
        drop(self.client.take());
        if let Some(server) = self.server.take() {
            let _ = server.delete_pipeline(self.kind.pipeline(), true);
            let _ = server.shutdown();
        }
        remove_scratch(&self.dir);
    }
}

impl Ready {
    fn server(&self) -> &SwagServer {
        self.server.as_ref().expect("server runs until finish")
    }

    /// Send the next frame of the stream.
    fn send_frame(&mut self) -> std::io::Result<()> {
        self.frame.clear();
        let (kind, block, next) = (self.kind, &self.block, self.next);
        self.frame
            .extend((next..next + SVC_FRAME as u64).map(|i| kind.tuple(block, i)));
        self.client
            .as_mut()
            .expect("connection is open until finish")
            .send(&self.frame)?;
        self.next += SVC_FRAME as u64;
        Ok(())
    }

    /// Where the server writes this pipeline's snapshot.
    fn snapshot_file(&self) -> PathBuf {
        self.dir
            .join("snapshots")
            .join(format!("{}.swag", self.kind.pipeline()))
    }

    /// Wait until the pipeline has processed everything sent.
    fn drain(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.processed.get() < self.next {
            if Instant::now() > deadline {
                return Err(format!(
                    "pipeline stalled at {} of {} tuples",
                    self.processed.get(),
                    self.next
                ));
            }
            std::thread::sleep(Duration::from_micros(WATCH_POLL_SLEEP_US));
        }
        Ok(())
    }
}

fn setup(kind: Kind, seed: u64, seconds: f64, options: Options) -> Ready {
    let block = kind.block(seed);
    let frame = Vec::with_capacity(SVC_FRAME);
    let max_frames = (seconds * kind.rate() * 4.0) as usize / SVC_FRAME + 4096;
    let sends = Vec::with_capacity(max_frames);
    let dir = scratch_dir();
    let heap = HeapMark::start();
    let server = SwagServer::start(ServerConfig {
        snapshot_dir: dir.join("snapshots"),
        trace_sample: options.trace_sample,
        trace_dir: None,
        ..ServerConfig::default()
    })
    .expect("server binds loopback");
    let spec = PipelineSpec::from_json(&kind.spec_json()).expect("workload spec is valid");
    server.create_pipeline(spec).expect("pipeline is created");
    let registry = server.registry();
    let labels = [("pipeline", kind.pipeline())];
    let processed = Processed {
        tuples: registry.counter("swag_pipeline_tuples_total", "Tuples processed", &labels),
        late: registry.counter(
            "swag_pipeline_late_tuples_total",
            "Tuples dropped late",
            &labels,
        ),
    };
    let conn = TcpStream::connect(server.ingest_addr()).expect("ingest connects");
    conn.set_nodelay(true).expect("loopback socket option");
    let client = IngestClient::new(kind.pipeline(), conn).expect("ingest handshake");
    let mut ready = Ready {
        kind,
        block,
        frame,
        sends,
        server: Some(server),
        client: Some(client),
        processed,
        dir,
        next: 0,
        heap,
    };
    // Warm-up: the hot auctions' windows fill (they take half the bids);
    // the long tail of cold auctions never fills a window within a run,
    // which is the workload's nature, not a transient.
    while ready.next < SVC_WARM {
        ready.send_frame().expect("warm-up frame is sent");
    }
    ready.drain().expect("warm-up drains");
    ready
}

/// Wait until `due` after `started`: sleep while the wait is long, spin
/// for the last stretch — a sleep overshoots by more than a frame interval
/// at the rates the segments run at.
fn pace(started: Instant, due: Duration) {
    const SPIN_BELOW: Duration = Duration::from_micros(250);
    while let Some(wait) = due.checked_sub(started.elapsed()) {
        if wait > SPIN_BELOW {
            std::thread::sleep(wait - SPIN_BELOW);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Windows the flood segment's rate is read over.
const FLOOD_WINDOWS: usize = 20;

/// Snapshot the mixed workload's pipeline as its warm-up leaves it, then
/// time `restore_pipeline`: `(restore ms, snapshot bytes)`.
pub fn restore_probe(seed: u64) -> Result<(f64, f64), String> {
    let mut ready = setup(Kind::EventMixed, seed, 1.0, Options::default());
    let name = Kind::EventMixed.pipeline();
    // Closing at a frame boundary ends the stream cleanly; deleting
    // without discard then snapshots the drained pipeline.
    drop(ready.client.take());
    ready.server().delete_pipeline(name, false)?;
    let started = Instant::now();
    ready.server().restore_pipeline(name)?;
    let restore_ms = started.elapsed().as_secs_f64() * 1e3;
    let bytes = std::fs::metadata(ready.snapshot_file())
        .map_err(|e| format!("snapshot file: {e}"))?
        .len();
    Ok((restore_ms, bytes as f64))
}

// ---- watcher ----------------------------------------------------------

const PHASE_IDLE: u8 = 0;
const PHASE_RATE: u8 = 1;
const PHASE_FLOOD: u8 = 2;
const PHASE_DONE: u8 = 3;

/// What the generator tells the watcher.
struct Shared {
    phase: AtomicU8,
    /// When the rate segment started, ns since the tracer's epoch; set
    /// before the phase is raised.
    rate_start_ns: AtomicU64,
    /// The processed count at that instant (the pipeline was drained).
    rate_base: AtomicU64,
    /// Tuples sent in the rate segment so far.
    rate_sent: AtomicU64,
}

/// One finished control-plane request.
#[derive(Debug, Clone, Copy)]
struct HttpDone {
    route: Route,
    start_ns: u64,
    end_ns: u64,
    ok: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Answers,
    Status,
    Metrics,
    Snapshot,
}

impl Route {
    const ALL: [Route; 4] = [
        Route::Answers,
        Route::Status,
        Route::Metrics,
        Route::Snapshot,
    ];

    fn period(self) -> Duration {
        Duration::from_millis(match self {
            Route::Answers => WATCH_ANSWERS_EVERY_MS,
            Route::Status | Route::Metrics => WATCH_STATUS_EVERY_MS,
            Route::Snapshot => WATCH_SNAPSHOT_EVERY_MS,
        })
    }

    fn request(self, pipeline: &str) -> (&'static str, String) {
        match self {
            Route::Answers => ("GET", format!("/pipelines/{pipeline}/answers")),
            Route::Status => ("GET", format!("/pipelines/{pipeline}")),
            Route::Metrics => ("GET", "/metrics".to_string()),
            Route::Snapshot => ("POST", format!("/pipelines/{pipeline}/snapshot")),
        }
    }

    fn span(self) -> &'static str {
        match self {
            Route::Answers => "server.control.get_answers",
            Route::Status => "server.control.get_status",
            Route::Metrics => "server.control.get_metrics",
            Route::Snapshot => "server.snapshot.write",
        }
    }
}

/// A control-plane request in flight on a non-blocking socket, so the
/// watcher keeps polling the processed count while the server answers.
struct HttpPending {
    route: Route,
    stream: TcpStream,
    start_ns: u64,
    response: Vec<u8>,
}

impl HttpPending {
    fn start(addr: SocketAddr, route: Route, pipeline: &str, now_ns: u64) -> std::io::Result<Self> {
        let (method, path) = route.request(pipeline);
        let mut stream = TcpStream::connect(addr)?;
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
        )?;
        stream.set_nonblocking(true)?;
        Ok(HttpPending {
            route,
            stream,
            start_ns: now_ns,
            response: Vec::with_capacity(1 << 16),
        })
    }

    /// Read what has arrived; `Some(ok)` once the server closed the
    /// connection (`ok` = status 200).
    fn poll(&mut self) -> Option<bool> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Some(self.response.starts_with(b"HTTP/1.1 200")),
                Ok(n) => self.response.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return None,
                Err(_) => return Some(false),
            }
        }
    }
}

/// Everything the watcher saw.
struct Watched {
    settled: Vec<Settled>,
    poll_gaps_ns: Vec<u64>,
    /// `(seconds into the rate segment, tuples sent − tuples processed)`.
    backlog: Vec<(f64, f64)>,
    http: Vec<HttpDone>,
}

struct WatchPlan<'a> {
    kind: Kind,
    shared: &'a Shared,
    processed: Processed,
    epoch: Instant,
    http_addr: SocketAddr,
    schedule: Schedule,
    rate_frames: u64,
    gap_cap: usize,
}

fn watch(plan: WatchPlan<'_>) -> Watched {
    let WatchPlan {
        kind,
        shared,
        processed,
        epoch,
        http_addr,
        schedule,
        rate_frames,
        gap_cap,
    } = plan;
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let mut settler = Settler::new(schedule, rate_frames);
    let mut out = Watched {
        settled: Vec::new(),
        poll_gaps_ns: Vec::with_capacity(gap_cap),
        backlog: Vec::with_capacity(1 << 14),
        http: Vec::with_capacity(1 << 12),
    };
    let mut rate_base = 0u64;
    let mut rate_start_ns = 0u64;
    let mut in_rate = false;
    let mut next_backlog_ns = 0u64;
    let started = Instant::now();
    // Stagger the first firing of each route so they do not pile up.
    let mut next_due: Vec<Duration> = Route::ALL
        .iter()
        .enumerate()
        .map(|(i, r)| r.period() / 4 + Duration::from_millis(7 * i as u64))
        .collect();
    let mut pending: Option<HttpPending> = None;
    let mut last_poll = now_ns();
    loop {
        let phase = shared.phase.load(Ordering::Acquire);
        let now = now_ns();
        if phase == PHASE_RATE && out.poll_gaps_ns.len() < out.poll_gaps_ns.capacity() {
            out.poll_gaps_ns.push(now - last_poll);
        }
        last_poll = now;
        let done = processed.get();
        if phase == PHASE_RATE && !in_rate {
            in_rate = true;
            rate_base = shared.rate_base.load(Ordering::Acquire);
            rate_start_ns = shared.rate_start_ns.load(Ordering::Acquire);
        }
        if in_rate && !settler.complete() {
            let into = now.saturating_sub(rate_start_ns);
            settler.observe(done - rate_base, into);
            if into >= next_backlog_ns && out.backlog.len() < out.backlog.capacity() {
                next_backlog_ns = into + 10_000_000;
                let sent = shared.rate_sent.load(Ordering::Acquire);
                out.backlog.push((
                    into as f64 / 1e9,
                    sent.saturating_sub(done - rate_base) as f64,
                ));
            }
        }
        if kind == Kind::EventMixed && (phase == PHASE_RATE || phase == PHASE_FLOOD) {
            if let Some(p) = pending.as_mut() {
                if let Some(ok) = p.poll() {
                    out.http.push(HttpDone {
                        route: p.route,
                        start_ns: p.start_ns,
                        end_ns: now_ns(),
                        ok,
                    });
                    pending = None;
                }
            }
            if pending.is_none() {
                let elapsed = started.elapsed();
                let due = Route::ALL
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| next_due[i] <= elapsed)
                    .min_by_key(|&(i, _)| next_due[i]);
                if let Some((i, &route)) = due {
                    next_due[i] = elapsed + route.period();
                    match HttpPending::start(http_addr, route, kind.pipeline(), now_ns()) {
                        Ok(p) => pending = Some(p),
                        Err(_) => out.http.push(HttpDone {
                            route,
                            start_ns: now,
                            end_ns: now,
                            ok: false,
                        }),
                    }
                }
            }
        }
        if phase == PHASE_DONE {
            break;
        }
        // Frames are only timed in the rate segment; elsewhere the watcher
        // has nothing to resolve finely and stays out of the way.
        let nap = if phase == PHASE_RATE { 1 } else { 10 };
        std::thread::sleep(Duration::from_micros(nap * WATCH_POLL_SLEEP_US));
    }
    out.settled = settler.settled().to_vec();
    out
}

// ---- oracle -----------------------------------------------------------

/// What the service must report after `n` tuples of the stream.
#[derive(Debug, PartialEq)]
struct Expected {
    tuples: u64,
    late: u64,
    answers: u64,
    /// `key → (window end (0 on count pipelines), value)`.
    table: HashMap<u64, (u64, f64)>,
}

fn expect_count(block: &[Tuple], n: u64) -> Expected {
    // Latest answer per key = exact sum of its last `SVC_WINDOW` values.
    let mut tails: HashMap<u64, (usize, f64)> = HashMap::new();
    for i in (0..n).rev() {
        let (key, _, value) = Kind::Count.tuple(block, i);
        let tail = tails.entry(key).or_insert((0, 0.0));
        if tail.0 < SVC_WINDOW {
            tail.0 += 1;
            tail.1 += value;
        }
    }
    Expected {
        tuples: n,
        late: 0,
        answers: n,
        table: tails
            .into_iter()
            .map(|(k, (_, sum))| (k, (0, sum)))
            .collect(),
    }
}

/// Smallest aligned window end `j·slide + range` above `ts`.
fn first_end_above(ts: u64) -> u64 {
    let j = if ts < EVENT_RANGE {
        0
    } else {
        (ts - EVENT_RANGE) / EVENT_SLIDE + 1
    };
    j * EVENT_SLIDE + EVENT_RANGE
}

fn expect_event(block: &[Tuple], n: u64) -> Expected {
    // Pass 1, arrival order: the late-drop set (a tuple is late when it
    // lies more than the allowed lateness below the largest timestamp
    // seen so far), the final watermark, and per key the first window a
    // surviving tuple opened.
    let accepted = |each: &mut dyn FnMut(u64, u64, f64)| -> (u64, u64) {
        let mut frontier = 0u64;
        let mut late = 0u64;
        for i in 0..n {
            let (key, ts, value) = Kind::EventMixed.tuple(block, i);
            frontier = frontier.max(ts);
            if ts < frontier.saturating_sub(EVENT_LATENESS) {
                late += 1;
            } else {
                each(key, ts, value);
            }
        }
        (late, frontier.saturating_sub(EVENT_LATENESS))
    };
    let mut first_end: HashMap<u64, u64> = HashMap::new();
    let (late, watermark) = accepted(&mut |key, ts, _| {
        let end = first_end_above(ts);
        first_end
            .entry(key)
            .and_modify(|e| *e = (*e).min(end))
            .or_insert(end);
    });
    // A key emits every aligned window from its first up to the watermark,
    // empty ones included; the table keeps the last.
    let mut answers = 0u64;
    let mut table: HashMap<u64, (u64, f64)> = HashMap::new();
    for (&key, &first) in &first_end {
        if first <= watermark {
            let emitted = (watermark - first) / EVENT_SLIDE + 1;
            answers += emitted;
            table.insert(
                key,
                (first + (emitted - 1) * EVENT_SLIDE, f64::NEG_INFINITY),
            );
        }
    }
    // Pass 2: the maximum inside each key's last emitted window.
    accepted(&mut |key, ts, value| {
        if let Some((end, max)) = table.get_mut(&key) {
            if ts >= *end - EVENT_RANGE && ts < *end && value > *max {
                *max = value;
            }
        }
    });
    Expected {
        tuples: n - late,
        late,
        answers,
        table,
    }
}

/// Compare the service's final status and answer table with `expected`;
/// returns the tuples to count as failed and what differed.
fn compare(status: &Json, answers: &Json, expected: &Expected) -> (u64, Vec<String>) {
    let mut failed = 0u64;
    let mut notes = Vec::new();
    let stat = |k: &str| {
        status
            .get("status")
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX)
    };
    for (field, want) in [
        ("tuples", expected.tuples),
        ("late_tuples", expected.late),
        ("answers", expected.answers),
    ] {
        let got = stat(field);
        if got != want {
            failed += got.abs_diff(want).max(1);
            notes.push(format!("status {field}: service {got}, oracle {want}"));
        }
    }
    let rows = answers.as_array().unwrap_or(&[]);
    if rows.len() != expected.table.len() {
        failed += 1;
        notes.push(format!(
            "answer table has {} rows, oracle {}",
            rows.len(),
            expected.table.len()
        ));
    }
    let mut wrong = 0u64;
    for row in rows {
        let key = row.get("key").and_then(Json::as_u64);
        let end = row.get("window_end").and_then(Json::as_u64).unwrap_or(0);
        let value = row.get("value").and_then(Json::as_f64);
        let ok = match (key.and_then(|k| expected.table.get(&k)), value) {
            (Some(&(want_end, want)), Some(got)) => {
                end == want_end && got.to_bits() == want.to_bits()
            }
            _ => false,
        };
        if !ok {
            wrong += 1;
        }
    }
    if wrong > 0 {
        failed += wrong;
        notes.push(format!(
            "{wrong} final answers differ bitwise from the oracle"
        ));
    }
    (failed, notes)
}

// ---- the run ----------------------------------------------------------

/// Run the workload: `setups` set-ups (the last one is measured), then
/// `seconds` split between the rate and the flood segment.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    setups: usize,
    options: Options,
    tracer: &mut Tracer,
) -> Pass {
    let (mut ready, setup_s) = common::timed_setups(setups, || setup(kind, seed, seconds, options));
    let root = tracer.open(kind.workload(), None);
    let cpu_before = common::cpu_ns();
    let warm = ready.next;
    let epoch = tracer.epoch();
    let now_ns = move || epoch.elapsed().as_nanos() as u64;

    let schedule = Schedule {
        frame_tuples: SVC_FRAME as u64,
        rate: kind.rate(),
    };
    let rate_secs = seconds * options.rate_share;
    let flood_secs = seconds - rate_secs;
    let rate_frames = schedule.frames_within(rate_secs);
    let shared = Shared {
        phase: AtomicU8::new(PHASE_IDLE),
        rate_start_ns: AtomicU64::new(0),
        rate_base: AtomicU64::new(0),
        rate_sent: AtomicU64::new(0),
    };
    let mut notes = Vec::new();
    let mut failed = 0u64;
    let mut flood = (0u64, 0f64);
    let mut flood_rates = Vec::with_capacity(FLOOD_WINDOWS + 1);
    let mut rate_span = (0u64, 0u64);
    let mut flood_span = (0u64, 0u64);

    let http_addr = ready.server().http_addr();
    let watched = std::thread::scope(|scope| {
        let plan = WatchPlan {
            kind,
            shared: &shared,
            processed: ready.processed.clone(),
            epoch,
            http_addr,
            schedule,
            rate_frames,
            gap_cap: (seconds * 2e4) as usize + 4096,
        };
        let watcher = std::thread::Builder::new()
            .name("ledger-watcher".into())
            .spawn_scoped(scope, move || watch(plan))
            .expect("watcher thread starts");

        // Rate segment: open loop on the fixed schedule. A send that
        // blocks pushes later sends back, never their due times.
        rate_span.0 = now_ns();
        let started = epoch + Duration::from_nanos(rate_span.0);
        shared.rate_start_ns.store(rate_span.0, Ordering::Release);
        shared.rate_base.store(ready.next, Ordering::Release);
        shared.phase.store(PHASE_RATE, Ordering::Release);
        for frame in 0..rate_frames {
            let due = Duration::from_nanos(schedule.due_ns(frame));
            pace(started, due);
            let send_start = started.elapsed();
            if let Err(e) = ready.send_frame() {
                notes.push(format!("rate segment: send failed: {e}"));
                failed += SVC_FRAME as u64;
                break;
            }
            let send_end = started.elapsed();
            shared
                .rate_sent
                .store((frame + 1) * SVC_FRAME as u64, Ordering::Release);
            if ready.sends.len() < ready.sends.capacity() {
                ready.sends.push((
                    due.as_nanos() as u64,
                    send_start.as_nanos() as u64,
                    send_end.as_nanos() as u64,
                ));
            }
        }
        if let Err(e) = ready.drain() {
            notes.push(format!("rate segment: {e}"));
            failed += ready.next - ready.processed.get();
        }
        rate_span.1 = now_ns();

        // Flood segment: as fast as transport backpressure allows, timed
        // until the last answer is out.
        flood_span.0 = now_ns();
        shared.phase.store(PHASE_FLOOD, Ordering::Release);
        let flood_started = Instant::now();
        let before = ready.next;
        // The rate is read per window and the median window reported, so
        // a stall somewhere in the segment does not set the result.
        let window = flood_secs / FLOOD_WINDOWS as f64;
        let mut window_end = window;
        let mut window_start = (0f64, ready.processed.get());
        while flood_started.elapsed().as_secs_f64() < flood_secs {
            if let Err(e) = ready.send_frame() {
                notes.push(format!("flood segment: send failed: {e}"));
                failed += SVC_FRAME as u64;
                break;
            }
            let now = flood_started.elapsed().as_secs_f64();
            if now >= window_end {
                let done = ready.processed.get();
                flood_rates.push((done - window_start.1) as f64 / (now - window_start.0));
                window_start = (now, done);
                // A send that blocked past several window ends closes one
                // long window, not a run of empty ones.
                while window_end <= now {
                    window_end += window;
                }
            }
        }
        if let Err(e) = ready.drain() {
            notes.push(format!("flood segment: {e}"));
            failed += ready.next - ready.processed.get();
        }
        flood = (ready.next - before, flood_started.elapsed().as_secs_f64());
        if flood_rates.is_empty() {
            flood_rates.push(flood.0 as f64 / flood.1);
        }
        flood_span.1 = now_ns();
        shared.phase.store(PHASE_DONE, Ordering::Release);
        watcher.join().expect("watcher thread did not panic")
    });
    let cpu_ns = common::cpu_ns() - cpu_before;
    // Over both segments: under flood a cycle gathers up to its cap, which
    // makes the peak steadier than the rate segment's, where it is set by
    // whichever stall let the most frames pile up.
    let peak_heap_mb = ready.heap.peak_mb();

    // End of stream: the ack must cover every tuple sent.
    let ack_started = Instant::now();
    let sent = ready.next;
    let conn = ready
        .client
        .take()
        .expect("connection is open until finish")
        .finish();
    let mut ack = String::new();
    match conn {
        Ok(conn) => {
            let _ = conn.set_read_timeout(Some(Duration::from_secs(30)));
            let _ = BufReader::new(conn).read_line(&mut ack);
        }
        Err(e) => ack = format!("ERR {e}"),
    }
    let ack_us = ack_started.elapsed().as_secs_f64() * 1e6;
    if ack.trim() != format!("OK {sent}") {
        notes.push(format!(
            "ingest ack {:?}, expected \"OK {sent}\"",
            ack.trim()
        ));
        failed += sent;
    }
    tracer.close(root);

    // Oracle, outside every timed section.
    let expected = match kind {
        Kind::Count => expect_count(&ready.block, sent),
        Kind::EventMixed => expect_event(&ready.block, sent),
    };
    let status = ready.server().status_json(kind.pipeline());
    let answers = ready.server().answers_json(kind.pipeline());
    match (status, answers) {
        (Some(status), Some(answers)) => {
            let (wrong, why) = compare(&status, &answers, &expected);
            failed += wrong;
            notes.extend(why);
        }
        _ => {
            failed += sent;
            notes.push("pipeline vanished before the oracle check".into());
        }
    }

    let mut extra = std::collections::BTreeMap::new();
    pipeline_readings(&ready, kind, &mut extra);
    extra.insert("server.ingest.ack_us", ack_us);

    // Latency: every rate-segment frame from its due instant.
    let mut latencies: Vec<u64> = watched.settled.iter().map(Settled::latency_ns).collect();
    if (watched.settled.len() as u64) < rate_frames {
        notes.push(format!(
            "only {} of {rate_frames} rate-segment frames settled",
            watched.settled.len()
        ));
        failed += (rate_frames - watched.settled.len() as u64) * SVC_FRAME as u64;
    }
    let slope = stats::slope(&watched.backlog);
    extra.insert("gen.backlog_slope_tuples_per_s", slope);
    let unsustained = slope > BACKLOG_GROWTH_LIMIT * kind.rate();
    if unsustained {
        notes.push(format!(
            "unsustained: backlog grew {slope:.0} tuples/s at {} tuples/s",
            kind.rate()
        ));
    }
    let mut lateness: Vec<u64> = ready
        .sends
        .iter()
        .map(|&(due, start, _)| start.saturating_sub(due))
        .collect();
    if let Some(p99) = stats::percentile(&mut lateness, 0.99) {
        extra.insert("gen.late_p99_us", p99 as f64 / 1e3);
    }
    let mut gaps = watched.poll_gaps_ns;
    if let Some(p99) = stats::percentile(&mut gaps, 0.99) {
        extra.insert("watch.poll_gap_p99_us", p99 as f64 / 1e3);
    }
    // Share of the flood the generator spent waiting for the transport
    // rather than working: one unblocked send costs what the median
    // rate-segment send cost.
    let mut send_ns: Vec<u64> = ready.sends.iter().map(|&(_, s, e)| e - s).collect();
    if let Some(unblocked) = stats::percentile(&mut send_ns, 0.5) {
        let frames = (flood.0 / SVC_FRAME as u64) as f64;
        extra.insert(
            "server.ingest.send_blocked_share",
            (1.0 - unblocked as f64 * frames / (flood.1 * 1e9)).max(0.0),
        );
    }
    control_readings(
        &watched.http,
        &watched.settled,
        rate_span.0,
        &mut extra,
        &mut notes,
        &mut failed,
    );
    if let Ok(meta) = std::fs::metadata(ready.snapshot_file()) {
        extra.insert("server.snapshot.bytes", meta.len() as f64);
    }

    // Spans: segments, frames (due → answers seen) with their sends, and
    // the watcher's control-plane requests on their own lane.
    if tracer.enabled() {
        let rate = tracer.record("svc.rate_segment", root, 0, rate_span.0, rate_span.1);
        tracer.record("svc.flood_segment", root, 0, flood_span.0, flood_span.1);
        let base = rate_span.0;
        for (settled, &(_, start, end)) in watched.settled.iter().zip(&ready.sends) {
            let frame = tracer.record(
                "svc.frame",
                rate,
                0,
                base + settled.due_ns,
                base + settled.done_ns,
            );
            tracer.record("server.ingest.send", frame, 0, base + start, base + end);
        }
        for h in &watched.http {
            tracer.record(h.route.span(), root, 1, h.start_ns, h.end_ns);
        }
    }

    let attempted = sent - warm;
    let latency = stats::summarize(&mut latencies);
    let untimed = latency.is_none() && rate_frames > 0;
    if untimed {
        notes.push("too few frames for a latency tail".into());
    }
    let pass = Pass {
        setup_s,
        tuples_per_s: stats::median(&flood_rates),
        latency,
        peak_heap_mb,
        attempted,
        failed,
        correct: failed == 0 && !unsustained && !untimed,
        cpu_ns_per_tuple: cpu_ns as f64 / attempted as f64,
        extra,
        notes,
    };
    drop(ready);
    pass
}

/// Pipeline-worker readings from the server's registry and status.
fn pipeline_readings(
    ready: &Ready,
    kind: Kind,
    extra: &mut std::collections::BTreeMap<&'static str, f64>,
) {
    let snapshot = ready
        .server()
        .registry()
        .snapshot()
        .labelled("pipeline", kind.pipeline());
    let busy = snapshot.sum("swag_pipeline_busy_ns_total") as f64;
    let blocked = snapshot.sum("swag_pipeline_blocked_ns_total") as f64;
    let cycles = snapshot.sum("swag_pipeline_cycles_total") as f64;
    let tuples = snapshot.sum("swag_pipeline_tuples_total") as f64
        + snapshot.sum("swag_pipeline_late_tuples_total") as f64;
    if cycles > 0.0 && busy + blocked > 0.0 {
        extra.insert("server.pipeline.tuples_per_cycle", tuples / cycles);
        extra.insert("server.pipeline.cycle_us", busy / cycles / 1e3);
        extra.insert("server.pipeline.busy_share", busy / (busy + blocked));
        extra.insert("server.pipeline.blocked_share", blocked / (busy + blocked));
    }
    extra.insert(
        "server.pipeline.queue_depth_peak",
        snapshot.max("swag_pipeline_queue_depth_peak") as f64,
    );
}

/// Control-plane round trips and the frames a snapshot overlapped.
fn control_readings(
    http: &[HttpDone],
    settled: &[Settled],
    rate_start_ns: u64,
    extra: &mut std::collections::BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
    failed: &mut u64,
) {
    let refused = http.iter().filter(|h| !h.ok).count();
    if refused > 0 {
        notes.push(format!("{refused} control-plane requests failed"));
        *failed += refused as u64;
    }
    for (route, metric) in [
        (Route::Answers, "server.control.get_answers_ms"),
        (Route::Status, "server.control.get_status_ms"),
        (Route::Metrics, "server.control.get_metrics_ms"),
        (Route::Snapshot, "server.snapshot.write_ms"),
    ] {
        let ms: Vec<f64> = http
            .iter()
            .filter(|h| h.route == route && h.ok)
            .map(|h| (h.end_ns - h.start_ns) as f64 / 1e6)
            .collect();
        if !ms.is_empty() {
            extra.insert(metric, stats::median(&ms));
        }
    }
    // Frames whose due→done interval overlaps a snapshot round trip.
    let base = rate_start_ns;
    let mut stalled: Vec<u64> = settled
        .iter()
        .filter(|s| {
            http.iter().any(|h| {
                h.route == Route::Snapshot
                    && h.start_ns < base + s.done_ns
                    && h.end_ns > base + s.due_ns
            })
        })
        .map(Settled::latency_ns)
        .collect();
    stalled.sort_unstable();
    // Few frames overlap the handful of snapshots a short pass takes:
    // read the highest percentile the sample supports, or its maximum.
    if let Some(&worst) = stalled.last() {
        let stall = match stats::supported_tail(stalled.len()) {
            Some(p) => stats::percentile_sorted(&stalled, p),
            None => worst,
        };
        extra.insert("server.snapshot.stall_p99_us", stall as f64 / 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_ends_are_aligned_and_strictly_above_the_timestamp() {
        assert_eq!(first_end_above(0), EVENT_RANGE);
        assert_eq!(first_end_above(EVENT_RANGE - 1), EVENT_RANGE);
        assert_eq!(first_end_above(EVENT_RANGE), EVENT_RANGE + EVENT_SLIDE);
        assert_eq!(
            first_end_above(EVENT_RANGE + EVENT_SLIDE - 1),
            EVENT_RANGE + EVENT_SLIDE
        );
    }

    #[test]
    fn count_oracle_sums_each_keys_last_window() {
        let block = vec![(1, 0, 5.0), (2, 0, 7.0), (1, 0, 1.0)];
        let e = expect_count(&block, 4); // 5, 7, 1, then 5 again
        assert_eq!(e.tuples, 4);
        assert_eq!(e.table[&1], (0, 11.0));
        assert_eq!(e.table[&2], (0, 7.0));
    }

    #[test]
    fn event_oracle_drops_exactly_the_late_tuples() {
        let l = EVENT_LATENESS;
        // Timestamps: the third is more than `l` below the frontier.
        let block = vec![
            (1, 10_000, 3.0),
            (1, 10_000 + 2 * l, 9.0),
            (1, 10_000 + l - 1, 100.0), // late: below frontier − l
            (1, 10_000 + l, 4.0),       // exactly at the watermark: kept
        ];
        let e = expect_event(&block, 4);
        assert_eq!(e.late, 1);
        assert_eq!(e.tuples, 3);
        // Final watermark 10_000 + l = 60_000 < first window end 64_000:
        // nothing has been emitted yet.
        assert_eq!(e.answers, 0);
        assert!(e.table.is_empty());
    }

    /// The oracle against the real single-threaded executor, watermark
    /// advanced once at the end: same answers count, same final answer.
    #[test]
    fn event_oracle_agrees_with_a_single_threaded_time_window_run() {
        use swag_core::ops::MaxF64;
        use swag_stream::{TimeWindowExec, TimeWindowSpec};
        let block = replay::event_bid_block(9, 4096, EVENT_LATENESS);
        let n = 10_000; // replays the block 2.4 times
        let expected = expect_event(&block, n);
        assert!(expected.late > 0, "the stream carries late tuples");

        let mut execs: HashMap<u64, TimeWindowExec<MaxF64>> = HashMap::new();
        let mut frontier = 0u64;
        let mut late = 0u64;
        for i in 0..n {
            let (key, ts, value) = Kind::EventMixed.tuple(&block, i);
            frontier = frontier.max(ts);
            if ts < frontier.saturating_sub(EVENT_LATENESS) {
                late += 1;
                continue;
            }
            let exec = execs.entry(key).or_insert_with(|| {
                TimeWindowExec::new(
                    MaxF64::new(),
                    vec![TimeWindowSpec::new(EVENT_RANGE, EVENT_SLIDE)],
                )
            });
            assert!(exec.insert(ts, &value));
        }
        assert_eq!(late, expected.late);
        let watermark = frontier - EVENT_LATENESS;
        let mut answers = 0u64;
        let mut table = HashMap::new();
        for (key, exec) in &mut execs {
            let out = exec.advance_watermark(watermark);
            answers += out.len() as u64;
            if let Some(&(_, end, value)) = out.last() {
                table.insert(*key, (end, value));
            }
        }
        assert_eq!(answers, expected.answers);
        assert_eq!(table.len(), expected.table.len());
        for (key, (end, value)) in table {
            let (want_end, want) = expected.table[&key];
            assert_eq!(end, want_end, "key {key}");
            assert_eq!(value.to_bits(), want.to_bits(), "key {key}");
        }
    }
}
