//! End-to-end service tests: HTTP control plane, TCP ingest (binary and
//! text), snapshot → restart → restore with bitwise-identical answers.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use swag_metrics::json::Json;
use swag_server::proto::IngestClient;
use swag_server::{PipelineSpec, ServerConfig, SwagServer};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "swag-service-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(dir: &Path) -> SwagServer {
    SwagServer::start(ServerConfig {
        snapshot_dir: dir.to_path_buf(),
        // The default exports Chrome traces into `results/` under the
        // crate directory on every pipeline teardown.
        trace_dir: None,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// Stream tuples over the binary protocol; returns the server's ack.
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

/// Block until the pipeline has processed `expect` tuples (cycles are
/// asynchronous behind the queue).
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

fn count_spec(name: &str) -> PipelineSpec {
    PipelineSpec::from_json(&format!(
        r#"{{"name":"{name}","op":"sum","algorithm":"slickdeque","kind":"count","window":50,"shards":2}}"#
    ))
    .unwrap()
}

fn workload(n: usize) -> Vec<(u64, u64, f64)> {
    // Inexact decimals over 17 keys: order- and state-sensitive sums.
    (0..n)
        .map(|i| (i as u64 % 17, 0u64, (i as f64) * 0.1 - 3.7))
        .collect()
}

/// Tuples over one of the two ingest protocols; returns the ack.
type Stream = fn(&SwagServer, &str, &[(u64, u64, f64)]) -> String;

/// Snapshot → restart → restore → continue through the pipeline loop,
/// against an uninterrupted run: stream the first half, snapshot over
/// HTTP, shut down gracefully (which snapshots again), let `edit` at the
/// snapshot directory, restore over HTTP into a fresh server on fresh
/// ports, stream the second half, and require the answer table read over
/// HTTP to equal — bitwise — the one a server that saw the whole stream
/// in one go serves. Returns the spec the restore reported.
fn assert_restore_is_bitwise(
    tag: &str,
    spec: &PipelineSpec,
    tuples: &[(u64, u64, f64)],
    stream: Stream,
    edit: impl FnOnce(&Path),
) -> PipelineSpec {
    let name = spec.name.as_str();
    let (first, second) = tuples.split_at(tuples.len() / 2);

    let ref_dir = temp_dir(&format!("{tag}-ref"));
    let reference = start(&ref_dir);
    reference.create_pipeline(spec.clone()).unwrap();
    let ack = stream(&reference, name, tuples);
    assert_eq!(ack.trim(), format!("OK {}", tuples.len()), "{tag}");
    wait_tuples(&reference, name, tuples.len() as u64);
    let want = answers_over_http(&reference, name);
    reference.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&ref_dir);

    let dir = temp_dir(tag);
    let server = start(&dir);
    server.create_pipeline(spec.clone()).unwrap();
    stream(&server, name, first);
    wait_tuples(&server, name, first.len() as u64);
    let (head, body) = http(&server, "POST", &format!("/pipelines/{name}/snapshot"), "");
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "{tag}: snapshot: {head}\n{body}"
    );
    let ports = (server.ingest_addr(), server.http_addr());
    server.shutdown().unwrap();
    assert!(
        dir.join(format!("{name}.swag")).exists(),
        "{tag}: shutdown snapshotted"
    );
    edit(&dir);

    let server = start(&dir);
    assert_ne!((server.ingest_addr(), server.http_addr()), ports);
    let restore = format!(r#"{{"name":"{name}","restore":true}}"#);
    let (head, body) = http(&server, "POST", "/pipelines", &restore);
    assert!(
        head.starts_with("HTTP/1.1 201"),
        "{tag}: restore: {head}\n{body}"
    );
    let restored = PipelineSpec::from_json(&body).expect("restore answers the spec");
    stream(&server, name, second);
    wait_tuples(&server, name, second.len() as u64);
    let got = answers_over_http(&server, name);
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    // Json holds f64s; equality here is exact — bitwise answers.
    assert_eq!(
        want, got,
        "{tag}: restored pipeline diverged from uninterrupted run"
    );
    restored
}

/// One pipeline loop, both plans — a count pipeline over binary frames…
#[test]
fn count_snapshot_restart_restore_is_bitwise() {
    let spec = count_spec("bids");
    let restored =
        assert_restore_is_bitwise("count", &spec, &workload(5000), stream_binary, |_| {});
    assert_eq!(restored, spec);
}

/// …and an event-time pipeline over the text fallback survive a restart.
#[test]
fn event_snapshot_restart_restore_is_bitwise() {
    let spec = PipelineSpec::from_json(
        r#"{"name":"high","op":"max","algorithm":"fiba","kind":"event",
            "range":100,"slide":50,"lateness":10,"shards":2}"#,
    )
    .unwrap();
    // Exact values (integers): the FiBA tree is rebuilt from entries at
    // restore, so bitwise equality is the exact-stream guarantee.
    let events: Vec<(u64, u64, f64)> = (0..2000u64)
        .map(|i| (i % 5, i * 3, ((i * 37) % 1000) as f64))
        .collect();
    let restored = assert_restore_is_bitwise("event", &spec, &events, stream_text, |_| {});
    assert_eq!(restored, spec);
}

#[test]
fn restore_across_shard_counts_is_bitwise() {
    // Rewrite the snapshot's spec to 3 shards: keys must re-partition
    // without touching answers (a key's state is shard-independent).
    let reshard = |dir: &Path| {
        let mut snap = swag_server::snapshot::read_snapshot(dir, "w").unwrap();
        snap.spec.shards = 3;
        swag_server::snapshot::write_snapshot(dir, &snap).unwrap();
    };
    let restored = assert_restore_is_bitwise(
        "shards",
        &count_spec("w"),
        &workload(3000),
        stream_binary,
        reshard,
    );
    assert_eq!(restored.shards, 3);
}

/// Stream tuples over the line-delimited text fallback.
fn stream_text(server: &SwagServer, pipeline: &str, tuples: &[(u64, u64, f64)]) -> String {
    let mut conn = TcpStream::connect(server.ingest_addr()).expect("connect ingest");
    let mut payload = format!("{pipeline}\n");
    for &(k, ts, v) in tuples {
        payload.push_str(&format!("{k},{ts},{v}\n"));
    }
    conn.write_all(payload.as_bytes()).unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut ack = String::new();
    BufReader::new(conn).read_line(&mut ack).expect("read ack");
    ack
}

#[test]
fn corrupted_and_truncated_snapshots_are_rejected() {
    let dir = temp_dir("corrupt");
    let server = start(&dir);
    server.create_pipeline(count_spec("p")).unwrap();
    stream_binary(&server, "p", &workload(500));
    wait_tuples(&server, "p", 500);
    server.snapshot_pipeline("p").expect("explicit snapshot");
    server.shutdown().unwrap();

    let path = dir.join("p.swag");
    let good = std::fs::read(&path).unwrap();

    // Truncated file.
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    let server = start(&dir);
    assert!(server.restore_pipeline("p").is_err(), "truncated accepted");
    server.shutdown().unwrap();

    // Single flipped byte fails the checksum.
    let mut bad = good.clone();
    bad[good.len() / 3] ^= 0x40;
    std::fs::write(&path, &bad).unwrap();
    let server = start(&dir);
    assert!(server.restore_pipeline("p").is_err(), "corruption accepted");

    // The pristine bytes still restore.
    std::fs::write(&path, &good).unwrap();
    server.restore_pipeline("p").expect("pristine restores");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /pipelines/{name}/answers`, parsed.
fn answers_over_http(server: &SwagServer, name: &str) -> Json {
    let (head, body) = http(server, "GET", &format!("/pipelines/{name}/answers"), "");
    assert!(head.starts_with("HTTP/1.1 200"), "answers: {head}");
    Json::parse(&body).expect("answers parse")
}

/// Minimal HTTP client against the control plane.
fn http(server: &SwagServer, method: &str, path: &str, body: &str) -> (String, String) {
    let mut conn = TcpStream::connect(server.http_addr()).expect("connect control");
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("head/body split");
    (head.to_string(), body.to_string())
}

#[test]
fn control_plane_crud_and_metrics() {
    let dir = temp_dir("http");
    let server = start(&dir);

    let (head, _) = http(&server, "GET", "/healthz", "");
    assert!(head.starts_with("HTTP/1.1 200"), "healthz: {head}");

    // Create over HTTP.
    let body = r#"{"name":"bids","op":"sum","algorithm":"slickdeque","kind":"count","window":10}"#;
    let (head, _) = http(&server, "POST", "/pipelines", body);
    assert!(head.starts_with("HTTP/1.1 201"), "create: {head}");

    // Duplicate name conflicts.
    let (head, _) = http(&server, "POST", "/pipelines", body);
    assert!(head.starts_with("HTTP/1.1 409"), "duplicate: {head}");

    // Bad spec is a 400.
    let (head, _) = http(&server, "POST", "/pipelines", r#"{"name":"x"}"#);
    assert!(head.starts_with("HTTP/1.1 400"), "bad spec: {head}");

    // Listed with live status.
    let (_, body) = http(&server, "GET", "/pipelines", "");
    let json = Json::parse(&body).expect("list parses");
    let list = json.get("pipelines").and_then(Json::as_array).unwrap();
    assert_eq!(list.len(), 1);
    assert_eq!(
        list[0]
            .get("spec")
            .and_then(|s| s.get("name"))
            .and_then(Json::as_str),
        Some("bids")
    );

    // Ingest, then check status + answers + metrics over HTTP.
    stream_binary(&server, "bids", &workload(100));
    wait_tuples(&server, "bids", 100);
    let (head, body) = http(&server, "GET", "/pipelines/bids", "");
    assert!(head.starts_with("HTTP/1.1 200"), "status: {head}");
    let status = Json::parse(&body).unwrap();
    assert_eq!(
        status
            .get("status")
            .and_then(|s| s.get("tuples"))
            .and_then(Json::as_u64),
        Some(100)
    );
    let (_, body) = http(&server, "GET", "/pipelines/bids/answers", "");
    let answers = Json::parse(&body).unwrap();
    assert_eq!(answers.as_array().unwrap().len(), 17, "one row per key");
    let (_, metrics) = http(&server, "GET", "/metrics", "");
    assert!(
        metrics.contains("swag_pipeline_tuples_total{pipeline=\"bids\"} 100"),
        "pipeline metrics exported: {metrics}"
    );
    let (_, body) = http(&server, "GET", "/metrics.json", "");
    let doc = Json::parse(&body).expect("/metrics.json parses");
    let names: Vec<&str> = doc
        .get("metrics")
        .and_then(Json::as_array)
        .expect("metrics array")
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str))
        .collect();
    for series in [
        "swag_pipeline_tuples_total",
        "swag_pipeline_ingest_latency_ns",
        "swag_server_ingest_connections_total",
    ] {
        assert!(metrics.contains(series), "{series} missing from /metrics");
        assert!(
            names.contains(&series),
            "{series} missing from /metrics.json"
        );
    }

    // Snapshot over HTTP, then delete; the name is free again.
    let (head, _) = http(&server, "POST", "/pipelines/bids/snapshot", "");
    assert!(head.starts_with("HTTP/1.1 200"), "snapshot: {head}");
    assert!(dir.join("bids.swag").exists());
    let (head, _) = http(&server, "DELETE", "/pipelines/bids", "");
    assert!(head.starts_with("HTTP/1.1 200"), "delete: {head}");
    let (head, _) = http(&server, "GET", "/pipelines/bids", "");
    assert!(head.starts_with("HTTP/1.1 404"), "after delete: {head}");

    // Restore over HTTP (spec comes from the snapshot itself), then one
    // tuple per key: the next cycle folds them into the restored window
    // state and repopulates the answer table.
    let (head, _) = http(
        &server,
        "POST",
        "/pipelines",
        r#"{"name":"bids","restore":true}"#,
    );
    assert!(head.starts_with("HTTP/1.1 201"), "restore: {head}");
    stream_binary(&server, "bids", &workload(17));
    wait_tuples(&server, "bids", 17);
    let (_, body) = http(&server, "GET", "/pipelines/bids/answers", "");
    assert_eq!(
        Json::parse(&body).unwrap().as_array().unwrap().len(),
        17,
        "answers repopulate from restored state on the next cycle"
    );

    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Publish before counting: whenever the pipeline's tuple counter
/// covers everything sent, the answer table already holds every key's
/// answer over exactly that prefix. Many one-frame cycles, each checked
/// against an in-memory oracle the moment the counter reaches it.
#[test]
fn the_answer_table_is_complete_when_the_counter_says_so() {
    const WINDOW: usize = 50;
    let dir = temp_dir("publish");
    let server = start(&dir);
    server.create_pipeline(count_spec("fresh")).unwrap();
    let processed = server.registry().counter(
        "swag_pipeline_tuples_total",
        "Tuples processed",
        &[("pipeline", "fresh")],
    );
    let conn = TcpStream::connect(server.ingest_addr()).unwrap();
    conn.set_nodelay(true).unwrap();
    let mut client = IngestClient::new("fresh", conn).unwrap();
    // Integer values: the oracle's sums are exact.
    let tuples: Vec<(u64, u64, f64)> = (0..4000u64)
        .map(|i| ((i * 7) % 17, 0, ((i * 31) % 101) as f64))
        .collect();
    let mut history: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    let mut sent = 0usize;
    for frame in 0.. {
        let len = 1 + (frame * 5) % 13;
        let Some(chunk) = tuples.get(sent..(sent + len).min(tuples.len())) else {
            break;
        };
        if chunk.is_empty() {
            break;
        }
        client.send(chunk).unwrap();
        sent += chunk.len();
        for &(key, _, value) in chunk {
            history.entry(key).or_default().push(value);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while processed.get() < sent as u64 {
            assert!(
                Instant::now() < deadline,
                "stuck at {} of {sent}",
                processed.get()
            );
            std::hint::spin_loop();
        }
        let table = server.answers_json("fresh").unwrap();
        let rows = table.as_array().unwrap();
        assert_eq!(rows.len(), history.len(), "after {sent} tuples");
        for row in rows {
            let key = row.get("key").and_then(Json::as_u64).unwrap();
            let values = &history[&key];
            let expect: f64 = values[values.len().saturating_sub(WINDOW)..].iter().sum();
            let got = row.get("value").and_then(Json::as_f64).unwrap();
            assert_eq!(got, expect, "key {key} after {sent} tuples");
        }
    }
    drop(client);
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A frame holding a NaN is refused whole at the wire: its connection
/// gets `ERR`, none of its tuples is admitted, and after a good stream on
/// a new connection the answer table is that of a run without the frame.
#[test]
fn a_non_finite_frame_is_refused_whole() {
    let good = workload(500);
    let mut bad = workload(40);
    bad[17].2 = f64::NAN;
    let tables: Vec<Json> = [false, true]
        .into_iter()
        .map(|send_bad| {
            let dir = temp_dir(&format!("nan-{send_bad}"));
            let server = start(&dir);
            server.create_pipeline(count_spec("p")).unwrap();
            if send_bad {
                let ack = stream_binary(&server, "p", &bad);
                assert!(ack.starts_with("ERR "), "{ack}");
                assert!(ack.contains("non-finite value"), "{ack}");
                assert!(ack.trim_end().ends_with("(admitted 0)"), "{ack}");
            }
            assert_eq!(stream_binary(&server, "p", &good).trim(), "OK 500");
            wait_tuples(&server, "p", 500);
            let table = server.answers_json("p").unwrap();
            server.shutdown().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            table
        })
        .collect();
    assert_eq!(tables[0], tables[1]);
}

/// A refused text line ends its stream, but the good lines before it in
/// its block stay admitted, as frames before a refused frame do, and the
/// ack names how many were.
#[test]
fn a_refused_text_line_keeps_the_lines_before_it() {
    let dir = temp_dir("text-nan");
    let server = start(&dir);
    server.create_pipeline(count_spec("p")).unwrap();
    let mut conn = TcpStream::connect(server.ingest_addr()).unwrap();
    conn.write_all(b"p\n1,1\n2,2\n3,3\n4,NaN\n5,5\n").unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut ack = String::new();
    BufReader::new(conn).read_line(&mut ack).unwrap();
    assert!(ack.starts_with("ERR "), "{ack}");
    assert!(ack.contains("non-finite value"), "{ack}");
    assert!(ack.trim_end().ends_with("(admitted 3)"), "{ack}");
    wait_tuples(&server, "p", 3);
    let status = server.status_json("p").unwrap();
    let tuples = status.get("status").and_then(|s| s.get("tuples"));
    assert_eq!(tuples.and_then(Json::as_u64), Some(3));
    let table = server.answers_json("p").unwrap();
    assert_eq!(table.as_array().unwrap().len(), 3, "{table:?}");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_pipeline_ingest_gets_err_ack() {
    let dir = temp_dir("nopipe");
    let server = start(&dir);
    let conn = TcpStream::connect(server.ingest_addr()).unwrap();
    let client = IngestClient::new("ghost", conn).unwrap();
    let conn = client.finish().unwrap();
    let mut ack = String::new();
    BufReader::new(conn).read_line(&mut ack).unwrap();
    assert!(ack.starts_with("ERR "), "got ack {ack:?}");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A count window too large to allocate per key is refused with a client
/// error, and the server goes on serving: the pipeline beside it still
/// ingests and answers.
#[test]
fn an_oversized_count_window_is_refused_and_the_server_keeps_serving() {
    let dir = temp_dir("hugewin");
    let server = start(&dir);
    let (head, _) = http(
        &server,
        "POST",
        "/pipelines",
        r#"{"name":"ok","op":"sum","algorithm":"slickdeque","kind":"count","window":10}"#,
    );
    assert!(head.starts_with("HTTP/1.1 201"), "create: {head}");

    let huge = r#"{"name":"huge","op":"sum","algorithm":"slickdeque","kind":"count","window":1099511627776}"#;
    let (head, body) = http(&server, "POST", "/pipelines", huge);
    assert!(head.starts_with("HTTP/1.1 400"), "{head}\n{body}");
    assert!(body.contains("exceeds the largest count window"), "{body}");
    assert!(
        server.status_json("huge").is_none(),
        "a pipeline was created"
    );

    stream_binary(&server, "ok", &workload(100));
    wait_tuples(&server, "ok", 100);
    let (head, _) = http(&server, "GET", "/healthz", "");
    assert!(head.starts_with("HTTP/1.1 200"), "healthz: {head}");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restore name that climbs out of the snapshot directory is refused
/// before any file is read, through the API and over HTTP: a valid
/// snapshot one directory up stays unread and no pipeline appears.
#[test]
fn restore_refuses_names_outside_the_snapshot_dir() {
    let base = temp_dir("escape");
    let server = start(&base);
    server.create_pipeline(count_spec("evil")).unwrap();
    stream_binary(&server, "evil", &workload(100));
    wait_tuples(&server, "evil", 100);
    server.shutdown().unwrap();
    assert!(base.join("evil.swag").exists(), "shutdown snapshotted");

    let server = start(&base.join("inner"));
    let err = server.restore_pipeline("../evil").unwrap_err();
    assert!(err.contains("pipeline name"), "{err}");
    let (head, body) = http(
        &server,
        "POST",
        "/pipelines",
        r#"{"name":"../evil","restore":true}"#,
    );
    assert!(head.starts_with("HTTP/1.1 4"), "{head}\n{body}");
    assert!(
        server.status_json("evil").is_none(),
        "a pipeline was created"
    );
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&base);
}
