//! The HTTP control plane: pipeline CRUD, snapshots, answers, metrics.
//!
//! A route function over the same dependency-free HTTP server as the
//! engine's `/metrics` endpoint:
//!
//! | method + path                     | action                          |
//! |-----------------------------------|---------------------------------|
//! | `GET /pipelines`                  | list specs + live status        |
//! | `POST /pipelines`                 | create (spec body) or restore (`{"name":..,"restore":true}`) |
//! | `GET /pipelines/{name}`           | one pipeline's spec + status    |
//! | `DELETE /pipelines/{name}`        | stop + snapshot (`?discard=1` skips the snapshot) |
//! | `POST /pipelines/{name}/snapshot` | snapshot at next cycle boundary |
//! | `GET /pipelines/{name}/answers`   | latest answer table             |
//! | `GET /pipelines/{name}/trace`     | lifecycle trace (Chrome trace-event JSON) |
//! | `GET /slo`                        | per-pipeline SLO burn rates     |
//! | `GET /metrics`, `/metrics.json`   | shared registry                 |
//! | `GET /healthz`                    | liveness                        |
//!
//! Served by the engine's [`HttpServer`] — sequentially, on one thread:
//! control traffic is rare and tiny, and the data path never goes
//! through HTTP.

use std::io;
use std::sync::Arc;

use swag_engine::http::{metrics_route, HttpServer, Request, Response};
use swag_metrics::json::Json;

use crate::server::ServerState;
use crate::spec::PipelineSpec;

/// Bind `addr` and serve the control plane over `state` until shutdown.
pub(crate) fn start(addr: &str, state: Arc<ServerState>) -> io::Result<HttpServer> {
    HttpServer::start(addr, "swag-control-http", move |req| route(req, &state))
}

fn route(req: &Request, state: &ServerState) -> Response {
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.path.as_str(), ""),
    };
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => Response::text("200 OK", "ok\n"),
        ("GET", "/slo") => Response::ok_json(&state.slo_json()),
        ("GET", "/pipelines") => Response::ok_json(&state.list_json()),
        ("POST", "/pipelines") => create_or_restore(&req.body, state),
        (method, p) => match p.strip_prefix("/pipelines/") {
            Some(rest) => pipeline_route(method, rest, query, state),
            None => metrics_route(&state.registry, method, p)
                .unwrap_or_else(|| Response::not_found("no such route")),
        },
    }
}

fn create_or_restore(body: &str, state: &ServerState) -> Response {
    let parsed = Json::parse(body);
    let restore = parsed
        .as_ref()
        .ok()
        .and_then(|j| match j.get("restore") {
            Some(Json::Bool(b)) => Some(*b),
            _ => None,
        })
        .unwrap_or(false);
    if restore {
        let name = parsed
            .ok()
            .and_then(|j| j.get("name").and_then(Json::as_str).map(str::to_owned));
        let Some(name) = name else {
            return Response::error("400 Bad Request", "restore needs a \"name\"");
        };
        match state.restore(&name) {
            Ok(spec) => Response::json("201 Created", &spec.to_json()),
            Err(e) => Response::error("409 Conflict", &e),
        }
    } else {
        match PipelineSpec::from_json(body) {
            Ok(spec) => {
                let json = spec.to_json();
                match state.create(spec) {
                    Ok(()) => Response::json("201 Created", &json),
                    Err(e) => Response::error("409 Conflict", &e),
                }
            }
            Err(e) => Response::error("400 Bad Request", &e),
        }
    }
}

fn pipeline_route(method: &str, rest: &str, query: &str, state: &ServerState) -> Response {
    let (name, sub) = match rest.split_once('/') {
        Some((n, s)) => (n, Some(s)),
        None => (rest, None),
    };
    match (method, sub) {
        ("GET", None) => match state.status_json(name) {
            Some(json) => Response::ok_json(&json),
            None => Response::not_found(&format!("no pipeline named {name:?}")),
        },
        ("DELETE", None) => {
            let discard = query
                .split('&')
                .any(|kv| kv == "discard=1" || kv == "discard=true");
            match state.delete(name, discard) {
                Ok(()) => {
                    Response::ok_json(&Json::obj(vec![("deleted", Json::Str(name.to_string()))]))
                }
                Err(e) => Response::not_found(&e),
            }
        }
        ("POST", Some("snapshot")) => match state.snapshot(name) {
            Ok(path) => Response::ok_json(&Json::obj(vec![(
                "path",
                Json::Str(path.display().to_string()),
            )])),
            Err(e) => Response::not_found(&e),
        },
        ("GET", Some("answers")) => match state.answers_json(name) {
            Some(json) => Response::ok_json(&json),
            None => Response::not_found(&format!("no pipeline named {name:?}")),
        },
        ("GET", Some("trace")) => match state.trace_json(name) {
            Some(Json::Null) => Response::error(
                "409 Conflict",
                &format!("tracing is disabled; pipeline {name:?} has no trace ring"),
            ),
            Some(json) => Response::ok_json(&json),
            None => Response::not_found(&format!("no pipeline named {name:?}")),
        },
        _ => Response::not_found("no such route"),
    }
}
