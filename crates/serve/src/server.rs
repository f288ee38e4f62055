//! The TCP front end: worker pool, routing, and shutdown.
//!
//! A pool of workers (sized by `HAP_THREADS` via `hap_par::threads()` by
//! default) blocks in `accept()` on one shared listener — pending
//! connections wait in the kernel's listen backlog, not in a user-space
//! queue — parses requests with [`crate::http`], and exchanges jobs with
//! the single model thread through the [`crate::batch::Batcher`]. Every
//! request handler runs under `catch_unwind`, so a panic answers 500 and
//! the worker lives on — untrusted bytes must never take down the pool.

use crate::batch::{Batcher, BatcherClient, CacheStats, Job};
use crate::http::{read_request, write_response, HttpError, Method, Request};
use crate::json::{num, Json};
use crate::service::{graph_from_json, ServiceConfig};
use hap_graph::GraphScalar;
use hap_snapshot::{peek_dtype, ModelSnapshot, SnapshotError};
use hap_tensor::Dtype;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tunables. `Default` is suitable for tests and local use:
/// ephemeral loopback port, auto-sized workers, 1 ms batch window,
/// 1 MiB body cap.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker thread count; `0` means `hap_par::threads()`.
    pub workers: usize,
    /// How long the model thread collects jobs before answering them.
    pub window: Duration,
    /// Maximum jobs collected per window.
    pub max_batch: usize,
    /// Maximum accepted request body, in bytes.
    pub max_body: usize,
    /// Model-side tunables (cache capacity, WL rounds, the `/search`
    /// corpus and its default budget).
    pub service: ServiceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            window: Duration::from_millis(1),
            max_batch: 64,
            max_body: 1 << 20,
            service: ServiceConfig::default(),
        }
    }
}

/// Why the server failed to start.
#[derive(Debug)]
pub enum ServeError {
    /// The snapshot could not rebuild a classifier.
    Snapshot(SnapshotError),
    /// The retrieval index could not be built for `search_corpus`.
    Retrieval(hap_retrieval::RetrievalError),
    /// Bind or listener configuration failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            ServeError::Retrieval(e) => write!(f, "retrieval index build failed: {e}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<hap_retrieval::RetrievalError> for ServeError {
    fn from(e: hap_retrieval::RetrievalError) -> Self {
        ServeError::Retrieval(e)
    }
}

/// A running server. Dropping the handle (or calling
/// [`ServerHandle::shutdown`]) stops the workers, and joins them and the
/// model thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    batcher: Option<Batcher>,
}

impl ServerHandle {
    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins all threads. Each worker first finishes
    /// the connection it is serving; connections still waiting in the
    /// listen backlog are closed unanswered.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // One wake-up connection per worker: each worker leaves at the
        // first connection it accepts after the flag is set.
        for _ in &self.workers {
            let _ = TcpStream::connect(self.addr);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Workers (and their BatcherClients) are gone; this join is the
        // model thread seeing the channel disconnect.
        if let Some(b) = self.batcher.take() {
            b.shutdown();
        }
    }
}

/// Builds the full stack — model thread, listener, worker pool — and
/// returns once the socket is bound and serving.
///
/// # Errors
/// [`ServeError::Snapshot`] for an unusable snapshot,
/// [`ServeError::Retrieval`] when the search index cannot be built,
/// [`ServeError::Io`] when the bind fails.
pub fn serve<T: GraphScalar>(
    snapshot: ModelSnapshot<T>,
    config: ServeConfig,
) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let batcher = Batcher::spawn(
        snapshot,
        config.service.clone(),
        config.window,
        config.max_batch,
    )?;
    let stats = batcher.stats();
    let listener = Arc::new(listener);
    let shutdown = Arc::new(AtomicBool::new(false));

    let worker_count = if config.workers == 0 {
        hap_par::threads().max(1)
    } else {
        config.workers
    };
    let search_enabled = config.service.search_corpus > 0;
    let mut workers = Vec::with_capacity(worker_count);
    for w in 0..worker_count {
        let listener = Arc::clone(&listener);
        let shutdown = Arc::clone(&shutdown);
        let client = batcher.client();
        let stats = Arc::clone(&stats);
        let max_body = config.max_body;
        workers.push(
            std::thread::Builder::new()
                .name(format!("hap-serve-worker-{w}"))
                .spawn(move || {
                    worker_loop(
                        &listener,
                        &shutdown,
                        &client,
                        &stats,
                        max_body,
                        search_enabled,
                    )
                })
                .expect("spawn worker thread"),
        );
    }

    Ok(ServerHandle {
        addr,
        shutdown,
        workers,
        batcher: Some(batcher),
    })
}

/// Loads a snapshot file and serves it at the element type the file
/// records — the runtime dtype-dispatch entry used by the `hap-serve`
/// binary. `require` pins the dtype: when set, a snapshot of any other
/// element type is rejected with the typed
/// [`SnapshotError::DtypeMismatch`] instead of being served (or silently
/// converted) at the wrong precision.
///
/// # Errors
/// [`ServeError::Io`] on read failure, [`ServeError::Snapshot`] for an
/// unusable or wrong-dtype snapshot, [`ServeError::Io`] when the bind
/// fails.
pub fn serve_snapshot_file(
    path: &std::path::Path,
    config: ServeConfig,
    require: Option<Dtype>,
) -> Result<ServerHandle, ServeError> {
    let bytes = std::fs::read(path)?;
    let found = peek_dtype(&bytes).map_err(ServeError::Snapshot)?;
    if let Some(requested) = require {
        if requested != found {
            return Err(ServeError::Snapshot(SnapshotError::DtypeMismatch {
                found,
                requested,
            }));
        }
    }
    match found {
        Dtype::F64 => serve(
            ModelSnapshot::<f64>::from_bytes(&bytes).map_err(ServeError::Snapshot)?,
            config,
        ),
        Dtype::F32 => serve(
            ModelSnapshot::<f32>::from_bytes(&bytes).map_err(ServeError::Snapshot)?,
            config,
        ),
    }
}

fn worker_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    client: &BatcherClient,
    stats: &CacheStats,
    max_body: usize,
    search_enabled: bool,
) {
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok((mut stream, _)) = accepted else {
            continue;
        };
        // A panic inside request handling answers 500 and keeps the
        // worker alive; the connection state is unwind-safe because it
        // is dropped right after either way.
        let result = catch_unwind(AssertUnwindSafe(|| {
            handle_connection(&stream, client, stats, max_body, search_enabled)
        }));
        if result.is_err() {
            hap_obs::inc("serve.panics");
            let _ = write_response(
                &mut stream,
                500,
                "Internal Server Error",
                "{\"error\":\"internal error\"}",
                false,
            );
        }
    }
}

/// Serves one connection: one request/response exchange per loop turn,
/// looping only while the client asked for `Connection: keep-alive` and
/// the exchange succeeded. Error responses (400/413) always close — the
/// request framing may be unreliable at that point. Note a kept-alive
/// connection occupies its worker until the client closes or the 10 s
/// read timeout fires, so persistent clients should stay at or below the
/// worker count.
///
/// One buffered reader serves the whole connection, because a client
/// that pipelines may already have sent the next request behind this one.
fn handle_connection(
    stream: &TcpStream,
    client: &BatcherClient,
    stats: &CacheStats,
    max_body: usize,
    search_enabled: bool,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nodelay(true); // small JSON bodies; don't wait on Nagle
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    loop {
        let start = Instant::now();
        let request = match read_request(&mut reader, max_body) {
            Ok(r) => r,
            Err(HttpError::BadRequest(msg)) => {
                hap_obs::inc("serve.http.400");
                let body = format!("{{\"error\":\"{}\"}}", crate::json::escape(&msg));
                let _ = write_response(&mut writer, 400, "Bad Request", &body, false);
                return;
            }
            Err(HttpError::PayloadTooLarge(n)) => {
                hap_obs::inc("serve.http.413");
                let body = format!("{{\"error\":\"body of {n} bytes exceeds the limit\"}}");
                let _ = write_response(&mut writer, 413, "Payload Too Large", &body, false);
                return;
            }
            Err(HttpError::Io(_)) => return, // client went away; nothing to answer
        };
        let keep_alive = request.keep_alive;
        let (status, reason, body) = route(&request, client, stats, search_enabled);
        hap_obs::inc(match status {
            200 => "serve.http.200",
            400 => "serve.http.400",
            404 => "serve.http.404",
            405 => "serve.http.405",
            503 => "serve.http.503",
            _ => "serve.http.other",
        });
        let ok = write_response(&mut writer, status, reason, &body, keep_alive).is_ok();
        hap_obs::record("serve.latency_ns", start.elapsed().as_nanos() as f64);
        if !keep_alive || !ok {
            return;
        }
    }
}

/// Routes one parsed request; returns `(status, reason, body)`.
fn route(
    request: &Request,
    client: &BatcherClient,
    stats: &CacheStats,
    search_enabled: bool,
) -> (u16, &'static str, String) {
    match (request.method, request.path.as_str()) {
        (Method::Get, "/healthz") => (200, "OK", "{\"status\":\"ok\"}".to_string()),
        (Method::Get, "/metrics") => (200, "OK", metrics_body(stats)),
        (Method::Post, "/classify") => match parse_classify(&request.body) {
            Ok(job) => dispatch(client, job),
            Err(msg) => bad_request(&msg),
        },
        (Method::Post, "/similarity") => match parse_similarity(&request.body) {
            Ok(job) => dispatch(client, job),
            Err(msg) => bad_request(&msg),
        },
        (Method::Post, "/search" | "/update") if !search_enabled => (
            503,
            "Service Unavailable",
            "{\"error\":\"search is not enabled on this server\"}".to_string(),
        ),
        (Method::Post, "/search") => match parse_search(&request.body) {
            Ok(job) => dispatch(client, job),
            Err(msg) => bad_request(&msg),
        },
        (Method::Post, "/update") => match parse_update(&request.body) {
            Ok(job) => dispatch(client, job),
            Err(msg) => bad_request(&msg),
        },
        (_, "/healthz" | "/metrics" | "/classify" | "/similarity" | "/search" | "/update") => (
            405,
            "Method Not Allowed",
            "{\"error\":\"method not allowed\"}".to_string(),
        ),
        _ => (
            404,
            "Not Found",
            "{\"error\":\"no such route\"}".to_string(),
        ),
    }
}

fn bad_request(msg: &str) -> (u16, &'static str, String) {
    (
        400,
        "Bad Request",
        format!("{{\"error\":\"{}\"}}", crate::json::escape(msg)),
    )
}

fn dispatch(client: &BatcherClient, job: Job) -> (u16, &'static str, String) {
    match client.submit(job) {
        Some(Ok(body)) => (200, "OK", body),
        Some(Err(msg)) => bad_request(&msg),
        None => (
            500,
            "Internal Server Error",
            "{\"error\":\"model thread unavailable\"}".to_string(),
        ),
    }
}

fn parse_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Json::parse(text).map_err(|e| e.to_string())
}

pub(crate) fn parse_classify(body: &[u8]) -> Result<Job, String> {
    let v = parse_body(body)?;
    // Accept either a bare graph object or {"graph": {...}}.
    let g = match v.get("graph") {
        Some(inner) => graph_from_json(inner)?,
        None => graph_from_json(&v)?,
    };
    Ok(Job::Classify(g))
}

pub(crate) fn parse_similarity(body: &[u8]) -> Result<Job, String> {
    let v = parse_body(body)?;
    let a = v.get("a").ok_or("missing \"a\" graph")?;
    let b = v.get("b").ok_or("missing \"b\" graph")?;
    Ok(Job::Similarity(graph_from_json(a)?, graph_from_json(b)?))
}

pub(crate) fn parse_search(body: &[u8]) -> Result<Job, String> {
    let v = parse_body(body)?;
    // Accept either a bare graph object or {"graph": {...}, "k": 10,
    // "budget": 200, "rerank": true} — k/budget/rerank are optional.
    let graph = match v.get("graph") {
        Some(inner) => graph_from_json(inner)?,
        None => graph_from_json(&v)?,
    };
    let k = match v.get("k") {
        Some(k) => {
            let k = k
                .as_usize()
                .filter(|&k| (1..=crate::service::MAX_SEARCH_K).contains(&k))
                .ok_or(format!(
                    "\"k\" must be an integer in 1..={}",
                    crate::service::MAX_SEARCH_K
                ))?;
            k
        }
        None => 10,
    };
    let budget = match v.get("budget") {
        Some(b) => Some(
            b.as_usize()
                .filter(|&b| b >= 1)
                .ok_or("\"budget\" must be a positive integer")?,
        ),
        None => None,
    };
    let rerank = match v.get("rerank") {
        Some(r) => r.as_bool().ok_or("\"rerank\" must be a boolean")?,
        None => false,
    };
    Ok(Job::Search {
        graph,
        k,
        budget,
        rerank,
    })
}

/// Decodes the `/update` wire schema:
///
/// ```json
/// {"id": 17, "ops": [{"op":"add","u":0,"v":3,"w":1.0},
///                    {"op":"remove","u":1,"v":2}]}
/// ```
///
/// `w` defaults to `1.0` for `"add"` (the weight every wire and corpus
/// edge carries) and is rejected on `"remove"`. Structural validation
/// against the target graph (endpoint range, self-loops, weight
/// positivity) happens in the model thread, which owns the graph.
pub(crate) fn parse_update(body: &[u8]) -> Result<Job, String> {
    let v = parse_body(body)?;
    let id = v
        .get("id")
        .and_then(Json::as_usize)
        .ok_or("missing or invalid \"id\" (non-negative integer required)")?;
    let raw_ops = v
        .get("ops")
        .ok_or("missing \"ops\" array")?
        .as_array()
        .ok_or("\"ops\" must be an array")?;
    if raw_ops.is_empty() {
        return Err("\"ops\" must not be empty".to_string());
    }
    if raw_ops.len() > crate::service::MAX_UPDATE_OPS {
        return Err(format!(
            "{} ops exceed the limit of {}",
            raw_ops.len(),
            crate::service::MAX_UPDATE_OPS
        ));
    }
    let mut ops = Vec::with_capacity(raw_ops.len());
    for (i, op) in raw_ops.iter().enumerate() {
        let kind = op
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("op {i}: missing \"op\" (\"add\" or \"remove\")"))?;
        let u = op
            .get("u")
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("op {i}: missing or invalid \"u\""))?;
        let vv = op
            .get("v")
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("op {i}: missing or invalid \"v\""))?;
        match kind {
            "add" => {
                let w = match op.get("w") {
                    Some(w) => w
                        .as_f64()
                        .ok_or_else(|| format!("op {i}: \"w\" must be a number"))?,
                    None => 1.0,
                };
                ops.push(hap_graph::EdgeDelta::Upsert { u, v: vv, w });
            }
            "remove" => {
                if op.get("w").is_some() {
                    return Err(format!("op {i}: \"w\" is not allowed on a remove"));
                }
                ops.push(hap_graph::EdgeDelta::Remove { u, v: vv });
            }
            other => {
                return Err(format!(
                    "op {i}: unknown op \"{other}\" (expected \"add\" or \"remove\")"
                ))
            }
        }
    }
    Ok(Job::Update { id, ops })
}

/// `/metrics`: cache stats from the shared atomics, latency quantiles
/// from the `hap-obs` histogram (null until the first request or when
/// observability is off), and the full `hap-obs` registry dump.
fn metrics_body(stats: &CacheStats) -> String {
    let hits = stats.hits.load(Ordering::Relaxed);
    let misses = stats.misses.load(Ordering::Relaxed);
    let total = hits + misses;
    let hit_rate = if total == 0 {
        "null".to_string()
    } else {
        num(hits as f64 / total as f64)
    };
    let (p50, p99) = match hap_obs::histogram("serve.latency_ns") {
        Some(h) => (num(h.quantile(0.5)), num(h.quantile(0.99))),
        None => ("null".to_string(), "null".to_string()),
    };
    format!(
        "{{\"cache\":{{\"hits\":{hits},\"misses\":{misses},\"hit_rate\":{hit_rate}}},\"latency\":{{\"p50_ns\":{p50},\"p99_ns\":{p99}}},\"obs\":{}}}",
        hap_obs::to_json()
    )
}
