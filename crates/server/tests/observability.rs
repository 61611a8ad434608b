//! Service observability end to end: sampled tuple-lifecycle traces
//! decomposing into stage spans, the Chrome export on delete and on
//! shutdown, SLO burn-rate evaluation with an induced breach, the
//! pipeline-level phase-occupancy/queue series, and two NEXMark
//! pipelines fed concurrently under the default sampling.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use swag_data::nexmark::{NexmarkConfig, NexmarkGenerator};
use swag_metrics::json::Json;
use swag_server::proto::IngestClient;
use swag_server::{PipelineSpec, ServerConfig, SwagServer};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "swag-obs-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A server tuned for tests: every tuple sampled, fast SLO windows,
/// traces exported into `dir`.
fn start_traced(dir: &Path) -> SwagServer {
    SwagServer::start(ServerConfig {
        snapshot_dir: dir.join("snapshots"),
        trace_sample: 1,
        trace_dir: Some(dir.to_path_buf()),
        slo_interval: Duration::from_millis(20),
        ..ServerConfig::default()
    })
    .expect("server starts")
}

fn stream_binary(server: &SwagServer, pipeline: &str, tuples: &[(u64, u64, f64)]) -> String {
    let conn = TcpStream::connect(server.ingest_addr()).expect("connect ingest");
    let mut client = IngestClient::new(pipeline, conn).expect("handshake");
    for chunk in tuples.chunks(97) {
        client.send(chunk).expect("send frame");
    }
    let conn = client.finish().expect("finish");
    let mut ack = String::new();
    BufReader::new(conn).read_line(&mut ack).expect("read ack");
    ack
}

fn wait_tuples(server: &SwagServer, pipeline: &str, expect: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let tuples = server
            .status_json(pipeline)
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
            "pipeline {pipeline:?} stuck at {tuples}/{expect} tuples"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn http(server: &SwagServer, method: &str, path: &str, body: &str) -> (String, String) {
    let mut conn = TcpStream::connect(server.http_addr()).expect("connect control");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(req.as_bytes()).expect("send request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    match response.split_once("\r\n\r\n") {
        Some((head, body)) => (head.to_string(), body.to_string()),
        None => (response, String::new()),
    }
}

/// The four span names a complete sampled tuple decomposes into, in
/// lifecycle order.
const SPANS: [&str; 4] = ["queue-wait", "batching", "aggregation", "emission"];

fn span_names(trace: &Json) -> Vec<String> {
    trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(Json::as_str).map(str::to_string))
        .collect()
}

#[test]
fn sampled_answers_decompose_into_four_stage_spans() {
    let dir = temp_dir("trace");
    let server = start_traced(&dir);
    server
        .create_pipeline(
            PipelineSpec::from_json(
                r#"{"name":"bids","op":"sum","algorithm":"slickdeque","kind":"count","window":32}"#,
            )
            .unwrap(),
        )
        .unwrap();
    let tuples: Vec<(u64, u64, f64)> = (0..500).map(|i| (i % 7, 0, i as f64)).collect();
    assert_eq!(stream_binary(&server, "bids", &tuples).trim(), "OK 500");
    wait_tuples(&server, "bids", 500);

    // The live trace (HTTP route) holds complete traces whose "X" spans
    // cover all four lifecycle stages.
    let (head, body) = http(&server, "GET", "/pipelines/bids/trace", "");
    assert!(head.starts_with("HTTP/1.1 200"), "trace route: {head}");
    let trace = Json::parse(&body).expect("trace parses");
    let complete = trace
        .get("otherData")
        .and_then(|o| o.get("complete_traces"))
        .and_then(Json::as_u64)
        .expect("complete_traces");
    assert!(complete >= 1, "no complete traces in {body}");
    let names = span_names(&trace);
    for span in SPANS {
        assert!(
            names.iter().any(|n| n == span),
            "span {span:?} missing from {names:?}"
        );
    }

    // Per-trace spans come in lifecycle order with coherent timestamps:
    // pick one tid that has all four and check its ts ordering.
    let events: Vec<&Json> = trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    let tid = events[0].get("tid").and_then(Json::as_u64).unwrap();
    let mut ts: Vec<f64> = events
        .iter()
        .filter(|e| e.get("tid").and_then(Json::as_u64) == Some(tid))
        .filter_map(|e| e.get("ts").and_then(Json::as_f64))
        .collect();
    let sorted = {
        let mut s = ts.clone();
        s.sort_by(f64::total_cmp);
        s
    };
    ts.sort_by(f64::total_cmp);
    assert_eq!(ts, sorted);

    // Deleting the pipeline exports results-style `trace-bids.json`.
    let (head, _) = http(&server, "DELETE", "/pipelines/bids", "");
    assert!(head.starts_with("HTTP/1.1 200"), "delete: {head}");
    let exported = std::fs::read_to_string(dir.join("trace-bids.json")).expect("exported trace");
    let exported = Json::parse(&exported).expect("exported trace parses");
    assert!(!span_names(&exported).is_empty());

    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn induced_slo_breach_shows_burn_rate_and_counter() {
    let dir = temp_dir("slo");
    let server = start_traced(&dir);
    // p99.9 ingest latency target of 1ns: every window with traffic
    // breaches, so the budget burns as soon as tuples flow.
    server
        .create_pipeline(
            PipelineSpec::from_json(
                r#"{"name":"hot","op":"sum","algorithm":"slickdeque","kind":"count",
                    "window":16,"slo":{"p999_ingest_ns":1,"error_budget":0.01}}"#,
            )
            .unwrap(),
        )
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    let report = loop {
        let tuples: Vec<(u64, u64, f64)> = (0..200).map(|i| (i % 5, 0, i as f64)).collect();
        stream_binary(&server, "hot", &tuples);
        std::thread::sleep(Duration::from_millis(30));
        let slo = server.slo_json();
        let pipelines = slo.get("pipelines").and_then(Json::as_array).unwrap();
        if let Some(report) = pipelines.first() {
            let breached = report
                .get("breached_windows")
                .and_then(Json::as_u64)
                .unwrap_or(0);
            if breached >= 1 {
                break report.clone();
            }
        }
        assert!(Instant::now() < deadline, "no SLO breach observed in 10s");
    };

    // The burn rate reflects breached windows / budget and flags not-ok.
    let burn = report.get("burn_rate").and_then(Json::as_f64).unwrap();
    assert!(burn > 1.0, "burn rate {burn} should exceed 1.0");
    assert_eq!(report.get("ok"), Some(&Json::Bool(false)));
    let objectives = report.get("objectives").and_then(Json::as_array).unwrap();
    let ingest_obj = objectives
        .iter()
        .find(|o| o.get("objective").and_then(Json::as_str) == Some("p999_ingest_ns"))
        .expect("ingest objective present");
    assert_eq!(ingest_obj.get("breached"), Some(&Json::Bool(true)));
    assert!(ingest_obj.get("observed").and_then(Json::as_u64).unwrap() > 1);
    assert!(
        ingest_obj
            .get("breaches_total")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );

    // The same report serves over HTTP, and the breach counter plus the
    // pipeline phase/queue series are in the Prometheus exposition.
    let (head, body) = http(&server, "GET", "/slo", "");
    assert!(head.starts_with("HTTP/1.1 200"), "GET /slo: {head}");
    assert!(body.contains("burn_rate"), "slo body: {body}");
    let (_, metrics) = http(&server, "GET", "/metrics", "");
    for series in [
        "swag_pipeline_slo_breaches_total",
        "swag_pipeline_busy_ns_total",
        "swag_pipeline_blocked_ns_total",
        "swag_pipeline_queue_depth_peak",
        "swag_pipeline_watermark_lag",
    ] {
        assert!(metrics.contains(series), "missing {series} in exposition");
    }
    // Engine series carry the pipeline label (slide latency is what the
    // p999_slide_ns objective gates).
    assert!(
        metrics.contains("swag_slide_latency_ns_bucket{pipeline=\"hot\""),
        "engine series missing pipeline label"
    );

    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One server, two pipelines over one NEXMark bid stream, fed concurrently
/// over the binary protocol under the default 1-in-128 sampling: the bid
/// volume per auction over its last 1024 bids, and the highest bid per
/// auction over event-time windows that absorb the stream's disorder.
/// Each pipeline records ingest latencies and complete lifecycle traces,
/// exports `trace-<name>.json` on shutdown, and serves — bitwise — the
/// answer table a server running it alone serves. Prices are whole cents,
/// so the sums are exact under any cycle cut.
#[test]
fn concurrent_nexmark_pipelines_answer_as_if_alone() {
    const BIDS: usize = 20_000;
    const MAX_DELAY_NS: u64 = 50_000;
    let specs = [
        r#"{"name":"bid-volume","op":"sum","algorithm":"slickdeque","kind":"count",
            "window":1024,"shards":2}"#,
        r#"{"name":"highest-bid","op":"max","algorithm":"fiba","kind":"event",
            "range":64000,"slide":16000,"lateness":50000,"shards":2}"#,
    ]
    .map(|json| PipelineSpec::from_json(json).unwrap());
    let bids = NexmarkGenerator::new(NexmarkConfig {
        max_delay_ns: MAX_DELAY_NS,
        ..NexmarkConfig::default()
    })
    .bids(BIDS);
    let feeds = [
        bids.iter()
            .map(|b| (b.auction, 0, b.price))
            .collect::<Vec<_>>(),
        bids.iter().map(|b| (b.auction, b.ts, b.price)).collect(),
    ];
    let start = |dir: &Path| {
        SwagServer::start(ServerConfig {
            snapshot_dir: dir.join("snapshots"),
            trace_dir: Some(dir.to_path_buf()),
            ..ServerConfig::default()
        })
        .expect("server starts")
    };

    let alone: Vec<Json> = specs
        .iter()
        .zip(&feeds)
        .map(|(spec, feed)| {
            let dir = temp_dir(&format!("alone-{}", spec.name));
            let server = start(&dir);
            server.create_pipeline(spec.clone()).unwrap();
            assert_eq!(
                stream_binary(&server, &spec.name, feed).trim(),
                format!("OK {BIDS}")
            );
            wait_tuples(&server, &spec.name, BIDS as u64);
            let table = server.answers_json(&spec.name).unwrap();
            let rows = table.as_array().map_or(0, <[Json]>::len);
            assert!(rows > 0, "{}: no answers", spec.name);
            server.shutdown().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            table
        })
        .collect();

    let dir = temp_dir("nexmark");
    let server = start(&dir);
    for spec in &specs {
        server.create_pipeline(spec.clone()).unwrap();
    }
    std::thread::scope(|s| {
        for (spec, feed) in specs.iter().zip(&feeds) {
            let server = &server;
            s.spawn(move || {
                let ack = stream_binary(server, &spec.name, feed);
                assert_eq!(ack.trim(), format!("OK {BIDS}"), "{}", spec.name);
            });
        }
    });
    for (spec, want) in specs.iter().zip(&alone) {
        let name = spec.name.as_str();
        wait_tuples(&server, name, BIDS as u64);
        assert_eq!(&server.answers_json(name).unwrap(), want, "{name}");
        let latency = server.registry().histogram(
            "swag_pipeline_ingest_latency_ns",
            "",
            &[("pipeline", name)],
        );
        assert!(latency.count() > 0, "{name}: empty latency histogram");
        let trace = server.trace_json(name).unwrap();
        let complete = trace
            .get("otherData")
            .and_then(|o| o.get("complete_traces"))
            .and_then(Json::as_u64);
        assert!(complete >= Some(1), "{name}: no complete trace");
    }
    server.shutdown().unwrap();
    for spec in &specs {
        let path = dir.join(format!("trace-{}.json", spec.name));
        let exported = std::fs::read_to_string(&path).expect("trace exported on shutdown");
        assert!(!span_names(&Json::parse(&exported).unwrap()).is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
