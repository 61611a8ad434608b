//! A minimal HTTP/1.1 server over `std::net` — no HTTP library, no async
//! runtime — and the metrics exposition routes built on it.
//!
//! [`HttpServer`] binds a `TcpListener` and answers each request with
//! whatever its route function returns; the engine's `/metrics` endpoint
//! ([`HttpServer::metrics`]) and the resident service's control plane are
//! both route functions over it. The metrics routes, served from a shared
//! [`MetricRegistry`]:
//!
//! * `GET /metrics` — Prometheus text exposition format (0.0.4), exactly
//!   [`RegistrySnapshot::to_prometheus_text`]'s rendering;
//! * `GET /metrics.json` — the same snapshot as JSON.
//!
//! Requests are handled sequentially on one thread: a scrape is a
//! registry snapshot plus a small formatted write, control traffic is
//! rare and tiny, and monitoring traffic is one poll every few seconds —
//! concurrency would buy nothing. A request is read with a bounded head
//! and a `Content-Length` body; one that is too large or cut short gets
//! a 400, never a guess. Shutdown sets a stop flag and self-connects to
//! unblock `accept`, so no platform `select`/nonblocking machinery is
//! needed.
//!
//! [`RegistrySnapshot::to_prometheus_text`]: swag_metrics::registry::RegistrySnapshot::to_prometheus_text

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use swag_metrics::json::Json;
use swag_metrics::registry::MetricRegistry;
use swag_metrics::ToJson;

/// Largest accepted request (head + body).
const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// The method token (`GET`, `POST`, …).
    pub method: String,
    /// The request target, query string included.
    pub path: String,
    /// The `Content-Length` body, lossily decoded.
    pub body: String,
}

/// What a route function answers with.
#[derive(Debug)]
pub struct Response {
    /// Status line after the version, e.g. `200 OK`.
    pub status: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body, sent with its `Content-Length`.
    pub body: String,
}

impl Response {
    /// A plain-text response.
    pub fn text(status: &'static str, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// `json`, pretty-printed with a trailing newline.
    pub fn json(status: &'static str, json: &Json) -> Response {
        let mut body = json.pretty();
        body.push('\n');
        Response {
            status,
            content_type: "application/json; charset=utf-8",
            body,
        }
    }

    /// `200 OK` with a JSON body.
    pub fn ok_json(json: &Json) -> Response {
        Response::json("200 OK", json)
    }

    /// `{"error": msg}` under `status`.
    pub fn error(status: &'static str, msg: &str) -> Response {
        Response::json(status, &Json::obj(vec![("error", Json::Str(msg.into()))]))
    }

    /// `404 Not Found` with a JSON error body.
    pub fn not_found(msg: &str) -> Response {
        Response::error("404 Not Found", msg)
    }
}

/// The metrics routes, for any server that shares `registry`: `Some` for
/// `GET /metrics` and `GET /metrics.json`, `None` for everything else.
pub fn metrics_route(registry: &MetricRegistry, method: &str, path: &str) -> Option<Response> {
    match (method, path) {
        ("GET", "/metrics") => Some(Response {
            status: "200 OK",
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: registry.snapshot().to_prometheus_text(),
        }),
        ("GET", "/metrics.json") => Some(Response::ok_json(&registry.snapshot().to_json())),
        _ => None,
    }
}

/// A running HTTP endpoint. Stops serving (and joins its thread) on
/// [`shutdown`](Self::shutdown) or drop.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `127.0.0.1:9184`, or port 0 for an ephemeral
    /// port) and answer every readable request with `route(&request)`
    /// from a thread named `thread_name`, until shutdown.
    pub fn start<A, F>(addr: A, thread_name: &str, route: F) -> io::Result<Self>
    where
        A: ToSocketAddrs,
        F: Fn(&Request) -> Response + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = stop.clone();
        let handle = std::thread::Builder::new()
            .name(thread_name.into())
            .spawn(move || serve(listener, &route, &thread_stop))?;
        Ok(HttpServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The read-only exposition endpoint: the [`metrics_route`]s of
    /// `registry`, a 405 for any other method, a 404 for any other path.
    pub fn metrics<A: ToSocketAddrs>(addr: A, registry: Arc<MetricRegistry>) -> io::Result<Self> {
        HttpServer::start(addr, "swag-metrics-http", move |req| {
            if req.method != "GET" {
                return Response::text("405 Method Not Allowed", "method not allowed\n");
            }
            metrics_route(&registry, &req.method, &req.path).unwrap_or_else(|| {
                Response::text(
                    "404 Not Found",
                    "not found (try /metrics or /metrics.json)\n",
                )
            })
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, finish the in-flight request if any, and join the
    /// server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            // Wake the blocking accept; an error just means the listener
            // is already gone.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve(listener: TcpListener, route: &dyn Fn(&Request) -> Response, stop: &AtomicBool) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        // A stalled client must not wedge the endpoint.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let response = match read_request(&mut stream) {
            Ok(req) => route(&req),
            Err(e) => Response::error("400 Bad Request", &format!("unreadable request: {e}")),
        };
        let wire = format!(
            "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            response.status,
            response.content_type,
            response.body.len(),
            response.body
        );
        // The client may already be gone; the next request is unaffected.
        let _ = stream
            .write_all(wire.as_bytes())
            .and_then(|()| stream.flush());
    }
}

/// Read the head plus `Content-Length` body bytes.
fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    let mut buf = Vec::with_capacity(2048);
    let mut chunk = [0u8; 2048];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() >= MAX_REQUEST_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request too large",
            ));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated request",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.lines();
    let mut request_line = lines.next().unwrap_or("").split_whitespace();
    let method = request_line.next().unwrap_or("").to_string();
    let path = request_line.next().unwrap_or("").to_string();
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_REQUEST_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
    }
    let mut body = buf[head_end..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated body",
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swag_metrics::Json;

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a header/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_prometheus_text_and_json() {
        let registry = Arc::new(MetricRegistry::new());
        registry
            .counter("swag_engine_tuples_total", "Tuples", &[("shard", "0")])
            .add(42);
        let server = HttpServer::metrics("127.0.0.1:0", registry.clone()).unwrap();
        let addr = server.local_addr();

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert_eq!(body, registry.snapshot().to_prometheus_text());
        assert!(body.contains("swag_engine_tuples_total{shard=\"0\"} 42"));

        // The endpoint serves live values, not a startup snapshot.
        registry
            .counter("swag_engine_tuples_total", "Tuples", &[("shard", "0")])
            .add(8);
        let (_, body) = http_get(addr, "/metrics");
        assert!(body.contains("swag_engine_tuples_total{shard=\"0\"} 50"));

        let (head, body) = http_get(addr, "/metrics.json");
        assert!(head.contains("application/json"), "{head}");
        let doc = Json::parse(&body).expect("JSON body parses");
        let metrics = doc.get("metrics").and_then(Json::as_array).unwrap();
        assert_eq!(
            metrics[0].get("value").and_then(Json::as_u64),
            Some(50),
            "live counter value served"
        );
        server.shutdown();
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let server = HttpServer::metrics("127.0.0.1:0", Arc::new(MetricRegistry::new())).unwrap();
        let addr = server.local_addr();
        let (head, _) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
        server.shutdown();
    }

    #[test]
    fn oversized_and_truncated_requests_get_an_explicit_400() {
        let server = HttpServer::metrics("127.0.0.1:0", Arc::new(MetricRegistry::new())).unwrap();
        // Exactly the cap and no terminator: the server consumes all of
        // it before refusing, so its close cannot reset the connection
        // ahead of the response.
        let mut endless_head = String::from("GET /metrics HTTP/1.1\r\nX-Pad: ");
        endless_head.push_str(&"x".repeat(MAX_REQUEST_BYTES - endless_head.len()));
        for (sent, why) in [
            (endless_head.as_str(), "request too large"),
            ("GET /metrics HTTP/1.1\r\nHost: t\r\n", "truncated request"),
            (
                "POST /metrics HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc",
                "truncated body",
            ),
        ] {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            stream.write_all(sent.as_bytes()).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            assert!(response.starts_with("HTTP/1.1 400"), "{why}: {response}");
            assert!(response.contains(why), "{why}: {response}");
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_unblocks_accept_and_joins() {
        let server = HttpServer::metrics("127.0.0.1:0", Arc::new(MetricRegistry::new())).unwrap();
        let addr = server.local_addr();
        server.shutdown();
        // The listener is gone: a fresh bind to the same port succeeds
        // (or the connect below fails) — either way, no thread is stuck.
        assert!(
            TcpListener::bind(addr).is_ok() || TcpStream::connect(addr).is_err(),
            "server released its port"
        );
    }
}
