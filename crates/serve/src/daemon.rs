//! The HTTP daemon: accepts connections and routes requests onto a
//! [`JobManager`]. Thread-per-connection — the daemon is a control plane
//! for a handful of clients, not a public web server.

use crate::http::{ChunkedWriter, DeadlineStream, ReadError, Request, Response};
use crate::jobs::{ApiError, JobManager, JobState};
use mbu_gefin::json::Json;
use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long one event-stream poll blocks before emitting nothing and
/// re-checking the connection.
const EVENT_POLL: Duration = Duration::from_millis(250);

/// How long a refused request's remaining input is read and discarded
/// after the error reply, so closing does not reset the reply away.
const DRAIN_LINGER: Duration = Duration::from_secs(1);

/// Extra `/healthz` fields supplied by the embedding service (governor
/// state, drain state, …).
pub type HealthFn = Box<dyn Fn() -> Vec<(String, Json)> + Send + Sync>;

/// Operational limits for the accept loop.
pub struct ServeOptions {
    /// Maximum concurrent connections; one past the cap gets an immediate
    /// 503 with `Retry-After` instead of a thread.
    pub conn_max: usize,
    /// Whole-connection wall-clock budget for reading the request and
    /// writing the response. A slow-loris peer trickling bytes cannot hold
    /// a thread past this. Event streams are exempt from the whole-stream
    /// budget but bound each chunk write by it.
    pub io_budget: Duration,
    /// Extra `/healthz` fields.
    pub health: Option<HealthFn>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            conn_max: 64,
            io_budget: Duration::from_secs(30),
            health: None,
        }
    }
}

/// Accepts and serves connections forever with default [`ServeOptions`].
///
/// # Errors
///
/// The listener's terminal `accept` error.
pub fn serve(listener: TcpListener, manager: Arc<JobManager>) -> std::io::Result<()> {
    serve_with(listener, manager, ServeOptions::default())
}

/// Decrements the live-connection count when a handler thread finishes,
/// however it finishes.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Accepts and serves connections forever (until `accept` fails), honoring
/// the connection cap and I/O deadlines in `opts`.
///
/// # Errors
///
/// The listener's terminal `accept` error.
pub fn serve_with(
    listener: TcpListener,
    manager: Arc<JobManager>,
    opts: ServeOptions,
) -> std::io::Result<()> {
    let opts = Arc::new(opts);
    let live = Arc::new(AtomicUsize::new(0));
    loop {
        let (stream, _) = listener.accept()?;
        if live.fetch_add(1, Ordering::SeqCst) >= opts.conn_max {
            live.fetch_sub(1, Ordering::SeqCst);
            // Shed load without spawning: a capped write of the 503.
            let budget = opts.io_budget.min(Duration::from_secs(2));
            std::thread::spawn(move || {
                use std::io::Read;
                let mut writer = DeadlineStream::new(stream, budget);
                let _ = Response::error(503, "connection limit reached")
                    .with_header("Retry-After", "1")
                    .write(&mut writer);
                // Drain what the peer already sent before closing: a close
                // with unread bytes in the receive buffer turns into a
                // reset that can tear the 503 out from under the client.
                let mut sink = [0u8; 1024];
                while matches!(writer.read(&mut sink), Ok(n) if n > 0) {}
            });
            continue;
        }
        let manager = Arc::clone(&manager);
        let opts = Arc::clone(&opts);
        let guard = ConnGuard(Arc::clone(&live));
        std::thread::spawn(move || {
            let _guard = guard;
            handle_connection(stream, &manager, &opts);
        });
    }
}

fn handle_connection(stream: TcpStream, manager: &Arc<JobManager>, opts: &ServeOptions) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(DeadlineStream::new(read_half, opts.io_budget));
    let req = match Request::read(&mut reader) {
        Ok(req) => req,
        Err(err) => {
            let response = match &err {
                ReadError::Eof => return,
                // Torn body: the client promised more bytes than it sent.
                // The read side is gone but the reply side may well be
                // open (a half-close), so answer with a typed 400.
                ReadError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                    Response::error(400, "request truncated mid-body")
                }
                ReadError::Io(e) if e.kind() != std::io::ErrorKind::TimedOut => return,
                // The peer may still be sending what we refuse to read.
                ReadError::TooLarge => {
                    let response = Response::error(413, "request body too large");
                    return respond_and_drain(stream, &response, opts);
                }
                ReadError::HeadersTooLarge => {
                    let response = Response::error(431, "request headers too large");
                    return respond_and_drain(stream, &response, opts);
                }
                ReadError::Malformed(m) => Response::error(400, &format!("malformed request: {m}")),
                // Slow-loris or torn body: the read deadline expired first.
                ReadError::Io(_) => Response::error(408, "request read timed out"),
            };
            respond(stream, &response, opts);
            return;
        }
    };
    // Event streams write their own (chunked) response. They outlive the
    // connection deadline — a sweep can run for hours — but every chunk
    // write is still bounded so a stalled reader cannot pin the thread.
    let segments = req.path_segments();
    if req.method == "GET"
        && segments.len() == 3
        && segments[0] == "sweeps"
        && segments[2] == "events"
    {
        let _ = stream.set_read_timeout(None);
        let _ = stream.set_write_timeout(Some(opts.io_budget));
        stream_events(&req, segments[1], stream, manager);
        return;
    }
    let response = route(&req, manager, opts);
    respond(stream, &response, opts);
}

/// Writes a fixed response under a fresh write deadline — fresh because
/// the read may have consumed the whole connection budget (a slow-loris
/// 408 must still make it out).
fn respond(stream: TcpStream, response: &Response, opts: &ServeOptions) {
    let mut writer = DeadlineStream::new(stream, opts.io_budget);
    let _ = response.write(&mut writer);
}

/// [`respond`] for a request whose rest the server refuses to read.
/// Closing a socket with unread input makes the kernel reset the
/// connection and drop any reply bytes still unsent, so the peer could
/// see a torn reply. Instead, half-close after the reply and discard the
/// peer's input until it closes too, for at most [`DRAIN_LINGER`].
fn respond_and_drain(stream: TcpStream, response: &Response, opts: &ServeOptions) {
    let Ok(read_half) = stream.try_clone() else {
        return respond(stream, response, opts);
    };
    respond(stream, response, opts);
    let _ = read_half.shutdown(Shutdown::Write);
    let mut rest = DeadlineStream::new(read_half, opts.io_budget.min(DRAIN_LINGER));
    let _ = std::io::copy(&mut rest, &mut std::io::sink());
}

fn api_error(e: &ApiError) -> Response {
    let response = Response::error(e.status, &e.message);
    if e.status == 503 {
        // Draining: the daemon is about to restart; clients should retry.
        response.with_header("Retry-After", "5")
    } else {
        response
    }
}

fn route(req: &Request, manager: &Arc<JobManager>, opts: &ServeOptions) -> Response {
    let segments = req.path_segments();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let (running, queued) = manager.counts();
            let mut fields = vec![
                ("ok".into(), Json::Bool(true)),
                ("draining".into(), Json::Bool(manager.draining())),
                ("running".into(), Json::usize(running)),
                ("queued".into(), Json::usize(queued)),
            ];
            if let Some(health) = &opts.health {
                fields.extend(health());
            }
            Response::json(200, &Json::Obj(fields))
        }
        ("GET", ["sweeps"]) => Response::json(200, &manager.list()),
        ("POST", ["sweeps"]) => {
            let body = match std::str::from_utf8(&req.body)
                .map_err(|_| "body is not UTF-8".to_string())
                .and_then(|t| Json::parse(t).map_err(|e| e.to_string()))
            {
                Ok(v) => v,
                Err(e) => return Response::error(400, &format!("invalid JSON body: {e}")),
            };
            match manager.submit(&body) {
                Ok(id) => Response::json(
                    201,
                    &Json::Obj(vec![
                        ("id".into(), Json::str(&id)),
                        ("state".into(), Json::str("queued")),
                    ]),
                ),
                Err(e) => api_error(&e),
            }
        }
        ("GET", ["sweeps", id]) => match manager.status(id) {
            Ok(status) => Response::json(200, &status),
            Err(e) => api_error(&e),
        },
        ("POST", ["sweeps", id, "cancel"]) => match manager.cancel(id) {
            Ok(state) => Response::json(
                202,
                &Json::Obj(vec![
                    ("id".into(), Json::str(*id)),
                    (
                        "state".into(),
                        Json::str(match state {
                            JobState::Cancelled => "cancelled",
                            _ => "cancelling",
                        }),
                    ),
                ]),
            ),
            Err(e) => api_error(&e),
        },
        ("GET", ["sweeps", id, tail @ ..]) if !tail.is_empty() => {
            match manager.artifact(id, tail, &req.query) {
                Ok(artifact) => Response::bytes(200, &artifact.content_type, artifact.body),
                Err(e) => api_error(&e),
            }
        }
        (_, ["healthz"]) | (_, ["sweeps"]) | (_, ["sweeps", ..]) => {
            Response::error(405, &format!("method {} not allowed here", req.method))
        }
        _ => Response::error(404, &format!("no route for {}", req.path)),
    }
}

/// Streams `{id}`'s events as one JSON object per line, each line its own
/// chunk, until the job reaches a terminal state (or the client leaves).
fn stream_events(req: &Request, id: &str, writer: TcpStream, manager: &Arc<JobManager>) {
    let mut writer = writer;
    let mut seq = req
        .query_param("from")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    // 404 before committing to a chunked response.
    if let Err(e) = manager.status(id) {
        let _ = api_error(&e).write(&mut writer);
        return;
    }
    let Ok(mut out) = ChunkedWriter::new(&mut writer, 200, "application/x-ndjson") else {
        return;
    };
    while let Ok((events, terminal)) = manager.events_after(id, seq, EVENT_POLL) {
        for event in &events {
            seq = seq.max(event.seq);
            let mut line = event.to_json().encode();
            line.push('\n');
            if out.chunk(line.as_bytes()).is_err() {
                // Client went away.
                return;
            }
        }
        if terminal && events.is_empty() {
            break;
        }
    }
    let _ = out.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http;
    use crate::jobs::{Artifact, JobBackend, JobContext, JobOutcome, Submission};
    use crate::test_support::TempDir;

    struct EchoBackend;

    impl JobBackend for EchoBackend {
        fn validate(&self, body: &Json) -> Result<Submission, ApiError> {
            if body.get("bad").is_some() {
                return Err(ApiError::bad_request("bad field"));
            }
            Ok(Submission {
                title: "echo".into(),
                spec: body.clone(),
            })
        }

        fn execute(&self, ctx: &JobContext) -> JobOutcome {
            ctx.emit("tick", Json::u64(1));
            JobOutcome::Done(ctx.spec.clone())
        }

        fn artifact(
            &self,
            ctx: &JobContext,
            tail: &[&str],
            _query: &[(String, String)],
        ) -> Result<Artifact, ApiError> {
            match tail {
                ["store"] => Ok(Artifact {
                    content_type: "text/csv".into(),
                    body: ctx.spec.encode().into_bytes(),
                }),
                _ => Err(ApiError::not_found("no such artifact")),
            }
        }
    }

    fn boot(tag: &str) -> (String, TempDir, Arc<JobManager>) {
        let dir = TempDir::new(&format!("daemon-{tag}"));
        let manager = JobManager::new(&dir, Arc::new(EchoBackend), 2, 4).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let served = Arc::clone(&manager);
        std::thread::spawn(move || {
            let _ = serve(listener, served);
        });
        (addr, dir, manager)
    }

    #[test]
    fn routes_health_submit_status_and_artifacts() {
        let (addr, _dir, _mgr) = boot("routes");
        let (status, body) = http::request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        let health = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(health.get("draining").and_then(Json::as_bool), Some(false));
        assert!(health.get("running").is_some());
        assert!(health.get("queued").is_some());

        let (status, body) =
            http::request(&addr, "POST", "/sweeps", Some(b"{\"runs\":5}")).unwrap();
        assert_eq!(status, 201);
        let id = Json::parse(std::str::from_utf8(&body).unwrap())
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();

        // Poll until terminal, then fetch the artifact.
        for _ in 0..500 {
            let (_, body) = http::request(&addr, "GET", &format!("/sweeps/{id}"), None).unwrap();
            let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
            if v.get("outcome").is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let (status, body) =
            http::request(&addr, "GET", &format!("/sweeps/{id}/store"), None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"runs\":5}");

        // The event stream replays to terminal and closes.
        let mut lines = Vec::new();
        let status = http::request_stream(
            &addr,
            "GET",
            &format!("/sweeps/{id}/events?from=0"),
            |chunk| {
                lines.push(String::from_utf8(chunk.to_vec()).unwrap());
                true
            },
        )
        .unwrap();
        assert_eq!(status, 200);
        let joined = lines.concat();
        assert!(joined.contains("\"kind\":\"tick\""), "stream: {joined}");
        assert!(joined.contains("\"kind\":\"state\""), "stream: {joined}");
    }

    #[test]
    fn structured_errors_not_connection_drops() {
        let (addr, _dir, _mgr) = boot("errors");
        let cases = [
            ("GET", "/nope", None, 404),
            ("DELETE", "/sweeps", None, 405),
            ("POST", "/sweeps", Some(&b"not json"[..]), 400),
            ("POST", "/sweeps", Some(&b"{\"bad\":1}"[..]), 400),
            ("GET", "/sweeps/j9999", None, 404),
            ("POST", "/sweeps/j9999/cancel", None, 404),
            ("GET", "/sweeps/j9999/store", None, 404),
        ];
        for (method, path, body, want) in cases {
            let (status, body) = http::request(&addr, method, path, body).unwrap();
            assert_eq!(status, want, "{method} {path}");
            let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
            assert!(
                v.get("error").is_some(),
                "{method} {path} body not structured"
            );
        }
    }

    #[test]
    fn drain_refuses_submissions_with_retry_after() {
        use std::io::{Read, Write};
        let (addr, _dir, mgr) = boot("drain503");
        mgr.begin_drain();
        // Raw socket so the Retry-After header is visible.
        let mut sock = TcpStream::connect(&addr).unwrap();
        write!(
            sock,
            "POST /sweeps HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\
             Connection: close\r\n\r\n{{}}"
        )
        .unwrap();
        let mut reply = String::new();
        sock.read_to_string(&mut reply).unwrap();
        assert!(
            reply.starts_with("HTTP/1.1 503 Service Unavailable"),
            "{reply}"
        );
        assert!(reply.contains("Retry-After: 5"), "{reply}");
        // The daemon still answers reads, and healthz reports the drain.
        let (status, body) = http::request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        let health = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(health.get("draining").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn connection_cap_sheds_load_with_503() {
        let dir = TempDir::new("daemon-cap");
        let manager = JobManager::new(&dir, Arc::new(EchoBackend), 2, 4).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let _ = serve_with(
                listener,
                manager,
                ServeOptions {
                    conn_max: 0,
                    ..ServeOptions::default()
                },
            );
        });
        let (status, body) = http::request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 503);
        let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert!(v.get("error").is_some());
    }

    #[test]
    fn slow_loris_gets_typed_408() {
        use std::io::{Read, Write};
        let dir = TempDir::new("daemon-loris");
        let manager = JobManager::new(&dir, Arc::new(EchoBackend), 2, 4).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let _ = serve_with(
                listener,
                manager,
                ServeOptions {
                    io_budget: Duration::from_millis(300),
                    ..ServeOptions::default()
                },
            );
        });
        // Send a partial request line and stall past the deadline.
        let mut sock = TcpStream::connect(&addr).unwrap();
        sock.write_all(b"GET /healthz HT").unwrap();
        sock.flush().unwrap();
        let mut reply = String::new();
        let _ = sock.read_to_string(&mut reply);
        assert!(reply.starts_with("HTTP/1.1 408 Request Timeout"), "{reply}");
    }
}
