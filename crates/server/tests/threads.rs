//! A pipeline keeps one set of shard threads for its whole life: the
//! process holds the same threads after 10 service cycles as after 1 000,
//! and among them exactly one resident worker per shard.
//!
//! One test in its own binary: other tests' threads would move the count.

#![cfg(target_os = "linux")]

use std::net::TcpStream;
use std::time::{Duration, Instant};

use swag_server::proto::IngestClient;
use swag_server::{PipelineSpec, ServerConfig, SwagServer};

/// The names of the process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists the process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

#[test]
fn shard_threads_stay_the_same_across_1000_cycles() {
    let dir = std::env::temp_dir().join(format!("swag-threads-{}", std::process::id()));
    let server = SwagServer::start(ServerConfig {
        snapshot_dir: dir.clone(),
        trace_dir: None,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let spec = r#"{"name":"live","op":"max","algorithm":"slickdeque","kind":"count","window":64,"shards":3}"#;
    server
        .create_pipeline(PipelineSpec::from_json(spec).unwrap())
        .unwrap();
    let processed = server.registry().counter(
        "swag_pipeline_tuples_total",
        "Tuples processed",
        &[("pipeline", "live")],
    );
    let conn = TcpStream::connect(server.ingest_addr()).unwrap();
    conn.set_nodelay(true).unwrap();
    let mut client = IngestClient::new("live", conn).unwrap();
    // One frame, then wait for it: every frame is a cycle of its own.
    let mut cycles = |n: u64| {
        for _ in 0..n {
            let i = client.sent();
            let frame: Vec<(u64, u64, f64)> = (i..i + 8).map(|j| (j % 11, 0, j as f64)).collect();
            client.send(&frame).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while processed.get() < client.sent() {
                assert!(Instant::now() < deadline, "the pipeline stalled");
                std::thread::yield_now();
            }
        }
    };
    cycles(10);
    let after_10 = thread_names();
    cycles(990);
    let after_1000 = thread_names();
    let status = server.status_json("live").unwrap().pretty();
    assert!(status.contains("\"cycles\": 1000"), "{status}");
    assert_eq!(
        after_10.len(),
        after_1000.len(),
        "{after_10:?} vs {after_1000:?}"
    );
    let shard_workers = after_1000.iter().filter(|n| n.starts_with("swag-shard-"));
    assert_eq!(shard_workers.count(), 3, "{after_1000:?}");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
