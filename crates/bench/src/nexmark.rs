//! NEXMark-style service scenario (extension beyond the paper).
//!
//! Where every other experiment drives aggregators or the engine
//! in-process, this one exercises the full resident-service path: a
//! [`SwagServer`] is started on loopback, two named pipelines are
//! created, and the NEXMark bid stream ([`swag_data::nexmark`]) is
//! streamed **concurrently over real TCP sockets** through the binary
//! ingest protocol:
//!
//! * **`bid-counts`** — bids per auction over a sliding count window
//!   (arrival order, SlickDeque, `Sum` over `1.0` per bid);
//! * **`highest-bid`** — the highest bid per auction over sliding
//!   event-time windows (FiBA, `Max` over the cent-exact price, with
//!   the generator's bounded disorder absorbed by lateness).
//!
//! Reported per pipeline: the ingest-to-answer latency distribution
//! (p50/p99/p99.9) from the shared registry's
//! `swag_pipeline_ingest_latency_ns` histogram. The latency clock starts
//! at wire decode and stops when the tuple's cycle completes, so it
//! includes queueing — the resident service's honest end-to-end figure.
//! Service throughput is the benchmark's to measure (`svc_count`,
//! `svc_event_mixed` in `benchmark/`): both pipelines here share one
//! socket-ingest wall clock, so no per-pipeline rate can be read off it.
//!
//! The server's default lifecycle tracing (1-in-128 sampling) stays on,
//! so each run also counts the sampled tuples whose full
//! queue-wait/batching/aggregation/emission decomposition survived in
//! the trace ring, and — when saving — exports each pipeline's
//! `trace-<pipeline>.json` (Chrome trace-event format) next to
//! `nexmark.json`.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use swag_data::nexmark::{NexmarkConfig, NexmarkGenerator};
use swag_metrics::registry::MetricValue;
use swag_metrics::Json;
use swag_server::proto::IngestClient;
use swag_server::{PipelineSpec, ServerConfig, SwagServer};

use crate::report::save_json;
use crate::Config;

/// Count-window width of the `bid-counts` pipeline.
pub const COUNT_WINDOW: usize = 1024;

/// Event-time range of the `highest-bid` pipeline, in ns of event time.
pub const EVENT_RANGE: u64 = 64_000;

/// Event-time slide of the `highest-bid` pipeline.
pub const EVENT_SLIDE: u64 = 16_000;

/// Maximum backwards displacement the generator applies; the event
/// pipeline's lateness bound.
pub const MAX_DELAY_NS: u64 = 50_000;

/// Tuples per binary protocol frame.
const FRAME: usize = 512;

/// One pipeline's measurement.
#[derive(Debug, Clone)]
pub struct NexmarkRow {
    /// Pipeline name.
    pub name: String,
    /// Tuples processed (must equal the bid count).
    pub tuples: u64,
    /// Answers produced.
    pub answers: u64,
    /// Ingest-to-answer latency quantiles, nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile — the paper's tail-latency lens applied to the
    /// service path.
    pub p999_ns: u64,
    /// Sampled tuples with lifecycle traces in the ring at drain time.
    pub sampled_traces: u64,
    /// Sampled tuples whose trace decomposes into all four spans.
    pub complete_traces: u64,
}

/// The scenario result: both pipelines, streamed concurrently.
#[derive(Debug, Clone)]
pub struct NexmarkTable {
    /// Experiment identifier (`nexmark`).
    pub id: String,
    /// Bids streamed to each pipeline.
    pub bids: u64,
    /// One row per pipeline.
    pub rows: Vec<NexmarkRow>,
}

impl NexmarkTable {
    /// Print as an aligned console table.
    pub fn print(&self) {
        println!(
            "\n== NEXMark service scenario — {} bids per pipeline, {} concurrent pipelines ==",
            self.bids,
            self.rows.len()
        );
        println!(
            "{:<14} {:>12} {:>10} {:>10} {:>10} {:>10} {:>8}",
            "pipeline", "tuples", "answers", "p50 µs", "p99 µs", "p99.9 µs", "traces"
        );
        for r in &self.rows {
            println!(
                "{:<14} {:>12} {:>10} {:>10.1} {:>10.1} {:>10.1} {:>8}",
                r.name,
                r.tuples,
                r.answers,
                r.p50_ns as f64 / 1e3,
                r.p99_ns as f64 / 1e3,
                r.p999_ns as f64 / 1e3,
                r.complete_traces
            );
        }
    }

    /// Save as `<dir>/nexmark.json`.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<()> {
        let json = Json::obj(vec![
            ("id", Json::str(&self.id)),
            ("bids", Json::UInt(self.bids)),
            ("concurrent_pipelines", Json::UInt(self.rows.len() as u64)),
            (
                "pipelines",
                Json::arr(self.rows.clone(), |r| {
                    Json::obj(vec![
                        ("name", Json::str(&r.name)),
                        ("tuples", Json::UInt(r.tuples)),
                        ("answers", Json::UInt(r.answers)),
                        ("p50_ns", Json::UInt(r.p50_ns)),
                        ("p99_ns", Json::UInt(r.p99_ns)),
                        ("p999_ns", Json::UInt(r.p999_ns)),
                        ("sampled_traces", Json::UInt(r.sampled_traces)),
                        ("complete_traces", Json::UInt(r.complete_traces)),
                    ])
                }),
            ),
        ]);
        save_json(dir, &self.id, &json)
    }
}

fn spec(json: &str) -> PipelineSpec {
    PipelineSpec::from_json(json).expect("scenario spec is valid")
}

/// Stream `tuples` over one fresh TCP connection; panics on a bad ack.
fn stream(addr: std::net::SocketAddr, pipeline: &str, tuples: &[(u64, u64, f64)]) {
    use std::io::BufRead;
    let conn = TcpStream::connect(addr).expect("connect ingest");
    let mut client = IngestClient::new(pipeline, conn).expect("handshake");
    for chunk in tuples.chunks(FRAME) {
        client.send(chunk).expect("send frame");
    }
    let sent = client.sent();
    let conn = client.finish().expect("finish stream");
    let mut ack = String::new();
    std::io::BufReader::new(conn)
        .read_line(&mut ack)
        .expect("read ack");
    assert_eq!(ack.trim(), format!("OK {sent}"), "ingest ack");
}

/// Poll until `name` has processed `expect` tuples.
fn wait_drained(server: &SwagServer, name: &str, expect: u64) {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let tuples = server
            .status_json(name)
            .and_then(|j| {
                j.get("status")
                    .and_then(|s| s.get("tuples").and_then(Json::as_u64))
            })
            .unwrap_or(0);
        if tuples >= expect {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "pipeline {name} stalled at {tuples}/{expect}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Run the scenario; bid count follows `cfg.latency_tuples`.
pub fn run(cfg: &Config) -> NexmarkTable {
    let bids = cfg.latency_tuples;
    let snapshot_dir = std::env::temp_dir().join(format!("swag-nexmark-{}", std::process::id()));
    let server = SwagServer::start(ServerConfig {
        snapshot_dir: snapshot_dir.clone(),
        // Default 1-in-128 lifecycle sampling stays on; deleting the
        // pipelines below exports `trace-<pipeline>.json` here.
        trace_dir: cfg.out_dir.clone(),
        ..ServerConfig::default()
    })
    .expect("server starts");

    server
        .create_pipeline(spec(&format!(
            r#"{{"name":"bid-counts","op":"sum","algorithm":"slickdeque",
                "kind":"count","window":{COUNT_WINDOW},"shards":2}}"#
        )))
        .unwrap();
    server
        .create_pipeline(spec(&format!(
            r#"{{"name":"highest-bid","op":"max","algorithm":"fiba","kind":"event",
                "range":{EVENT_RANGE},"slide":{EVENT_SLIDE},"lateness":{MAX_DELAY_NS},"shards":2}}"#
        )))
        .unwrap();

    let mut generator = NexmarkGenerator::new(NexmarkConfig {
        max_delay_ns: MAX_DELAY_NS,
        seed: cfg.seed,
        ..NexmarkConfig::default()
    });
    let all = generator.bids(bids);
    // Same bid stream, two views: the count pipeline counts bids (1.0
    // per bid, arrival order), the event pipeline maxes prices at event
    // time. Prices are whole cents, so restores stay bitwise (§DESIGN 14).
    let counts: Vec<(u64, u64, f64)> = all.iter().map(|b| (b.auction, 0, 1.0)).collect();
    let prices: Vec<(u64, u64, f64)> = all.iter().map(|b| (b.auction, b.ts, b.price)).collect();
    drop(all);

    let addr = server.ingest_addr();
    let writers = [("bid-counts", counts), ("highest-bid", prices)]
        .map(|(name, tuples)| std::thread::spawn(move || stream(addr, name, &tuples)));
    for w in writers {
        w.join().expect("writer thread");
    }
    wait_drained(&server, "bid-counts", bids as u64);
    wait_drained(&server, "highest-bid", bids as u64);

    let snapshot = server.registry().snapshot();
    let rows = ["bid-counts", "highest-bid"]
        .iter()
        .map(|&name| {
            let status = server.status_json(name).expect("pipeline exists");
            let stat = |k: &str| {
                status
                    .get("status")
                    .and_then(|s| s.get(k).and_then(Json::as_u64))
                    .unwrap_or(0)
            };
            let hist = snapshot
                .metrics
                .iter()
                .find(|m| {
                    m.name == "swag_pipeline_ingest_latency_ns"
                        && m.labels.iter().any(|(k, v)| k == "pipeline" && v == name)
                })
                .and_then(|m| match &m.value {
                    MetricValue::Histogram(h) => Some((**h).clone()),
                    _ => None,
                })
                .expect("latency histogram registered");
            // Lifecycle trace counts from the live ring (server default
            // sampling): how many sampled tuples decomposed fully.
            let trace = server.trace_json(name).expect("pipeline exists");
            let trace_stat = |k: &str| {
                trace
                    .get("otherData")
                    .and_then(|o| o.get(k).and_then(Json::as_u64))
                    .unwrap_or(0)
            };
            NexmarkRow {
                name: name.to_string(),
                tuples: stat("tuples"),
                answers: stat("answers"),
                p50_ns: hist.quantile(0.50),
                p99_ns: hist.quantile(0.99),
                p999_ns: hist.quantile(0.999),
                sampled_traces: trace_stat("traces"),
                complete_traces: trace_stat("complete_traces"),
            }
        })
        .collect();

    // The scenario's state is throwaway: discard instead of snapshotting.
    server.delete_pipeline("bid-counts", true).unwrap();
    server.delete_pipeline("highest-bid", true).unwrap();
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&snapshot_dir);

    NexmarkTable {
        id: "nexmark".into(),
        bids: bids as u64,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scenario_completes_with_latency_tail() {
        let mut cfg = Config::quick();
        cfg.latency_tuples = 20_000;
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 2);
        for r in &t.rows {
            assert_eq!(r.tuples, 20_000, "{}", r.name);
            assert!(r.answers > 0, "{} produced no answers", r.name);
            assert!(r.p999_ns >= r.p50_ns, "{}", r.name);
            assert!(r.p999_ns > 0, "{}: empty latency histogram", r.name);
            // Default 1-in-128 sampling over 20k tuples: the ring must
            // hold sampled tuples with the full four-span decomposition.
            assert!(r.sampled_traces > 0, "{}: nothing sampled", r.name);
            assert!(r.complete_traces > 0, "{}: no complete traces", r.name);
        }
    }
}
