//! The serving workloads (`serve-hot`, `serve-cold`, `stream`): the
//! committed snapshot served over loopback HTTP, driven by the load
//! generator, checked against an in-process reference, and — for the
//! traced run — replayed in process through each layer's public functions.

use crate::client::{self, Conn, Outcome};
use crate::plan::{self, Request, Route};
use crate::spec::WorkloadSpec;
use crate::stats;
use crate::trace::Tracer;
use crate::{
    layer_metrics, record_core_self_times, record_validity, LayerValues, Metric, RunResult,
};
use hap_core::HapClassifier;
use hap_data::RetrievalCorpus;
use hap_graph::{
    degree_one_hot, label_one_hot, wl_cache_key, wl_cache_key_from_signature, EdgeDelta, Graph,
    GraphScalar,
};
use hap_pooling::PoolCtx;
use hap_rand::Rng;
use hap_retrieval::{GraphIndex, IndexConfig, QueryEmbedding};
use hap_serve::{
    graph_from_json, Batcher, BatcherClient, Job, Json, ModelService, SearchState, ServeConfig,
    ServiceConfig,
};
use hap_snapshot::ModelSnapshot;
use hap_tensor::Tensor;
use std::collections::{BTreeMap, HashMap};
use std::io::Cursor;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeKind {
    Hot,
    Cold,
    Stream,
}

/// Server worker threads. At least the client connection count: a
/// kept-alive connection pins a worker.
const WORKERS: usize = 2;

/// Share of `--seconds` the closed-loop phase takes on the parent commit;
/// the open-loop phase gets the rest.
const CLOSED_SHARE: f64 = 0.4;

/// Request bodies a server accepts (the server default).
const MAX_BODY: usize = 1 << 20;

/// Client connections of the two-connection workloads: one per core, at
/// most two, and never more than the server's workers.
fn client_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, WORKERS)
}

impl ServeKind {
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "serve-hot" => Some(ServeKind::Hot),
            "serve-cold" => Some(ServeKind::Cold),
            "stream" => Some(ServeKind::Stream),
            _ => None,
        }
    }

    pub fn plan(self, seed: u64, len: usize) -> Vec<Request> {
        match self {
            ServeKind::Hot => plan::serve_hot(seed, len),
            ServeKind::Cold => plan::serve_cold(seed, len),
            ServeKind::Stream => plan::stream(seed, len),
        }
    }

    /// Closed-loop requests per second of the phase: the parent commit's
    /// throughput on the recording host. The closed loop sends a fixed
    /// number of requests, so every run of a seed does the same work and
    /// holds the same state (for `stream`, the same mutated graphs),
    /// however fast the program is; a faster program finishes sooner.
    fn closed_per_s(self) -> f64 {
        match self {
            ServeKind::Hot => 1300.0,
            ServeKind::Cold => 340.0,
            ServeKind::Stream => 400.0,
        }
    }

    /// Requests replayed in process by the traced run.
    fn replay_len(self) -> usize {
        match self {
            ServeKind::Hot => 1000,
            ServeKind::Cold => 200,
            ServeKind::Stream => 400,
        }
    }

    pub fn service(self) -> ServiceConfig {
        ServiceConfig {
            search_corpus: match self {
                ServeKind::Hot => 256,
                ServeKind::Cold => 0,
                ServeKind::Stream => plan::STREAM_CORPUS,
            },
            search_seed: plan::CORPUS_SEED,
            ..ServiceConfig::default()
        }
    }

    /// `stream` is one client writing and reading in order; the others use
    /// one connection per client thread.
    pub fn conns(self) -> usize {
        match self {
            ServeKind::Stream => 1,
            _ => client_threads(),
        }
    }

    /// Set-ups per run; the median is reported.
    fn setups(self) -> usize {
        match self {
            ServeKind::Stream => 3,
            _ => 21,
        }
    }
}

fn serve_config(kind: ServeKind) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        service: kind.service(),
        ..ServeConfig::default()
    }
}

/// Starts a server and waits for `/healthz`; returns it with the set-up
/// time (snapshot load, index build, bind, first 200).
pub fn start(
    kind: ServeKind,
    snapshot: &Path,
) -> Result<(hap_serve::ServerHandle, Duration), String> {
    let t0 = Instant::now();
    let handle = hap_serve::serve_snapshot_file(snapshot, serve_config(kind), None)
        .map_err(|e| format!("cannot serve {}: {e}", snapshot.display()))?;
    let mut conn = Conn::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let (status, body) = conn
        .exchange("GET", "/healthz", "")
        .map_err(|e| format!("/healthz: {e}"))?;
    if status != 200 {
        return Err(format!("/healthz answered {status}: {body}"));
    }
    Ok((handle, t0.elapsed()))
}

/// A request decoded the way the server decodes it. One short-lived value
/// per request, so the variants stay unboxed.
#[allow(clippy::large_enum_variant)]
enum Decoded {
    Classify(Graph),
    Similarity(Graph, Graph),
    Search {
        graph: Graph,
        k: usize,
        rerank: bool,
    },
    Update {
        id: usize,
        ops: Vec<EdgeDelta>,
    },
}

impl Decoded {
    fn job(&self) -> Job {
        match self {
            Decoded::Classify(g) => Job::Classify(g.clone()),
            Decoded::Similarity(a, b) => Job::Similarity(a.clone(), b.clone()),
            Decoded::Search { graph, k, rerank } => Job::Search {
                graph: graph.clone(),
                k: *k,
                budget: None,
                rerank: *rerank,
            },
            Decoded::Update { id, ops } => Job::Update {
                id: *id,
                ops: ops.clone(),
            },
        }
    }
}

fn usize_field(v: &Json, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("missing or invalid \"{key}\""))
}

/// Decodes the parsed body of `route` with `graph_from_json` for every
/// graph (one span per graph).
fn decode(route: Route, v: &Json, tr: &mut Tracer) -> Result<Decoded, String> {
    let mut graph = |v: &Json| tr.time("json.graph_from_json", || graph_from_json(v));
    Ok(match route {
        Route::Classify => Decoded::Classify(graph(v.get("graph").unwrap_or(v))?),
        Route::Similarity => {
            let a = v.get("a").ok_or("missing \"a\"")?;
            let b = v.get("b").ok_or("missing \"b\"")?;
            Decoded::Similarity(graph(a)?, graph(b)?)
        }
        Route::Search => Decoded::Search {
            graph: graph(v.get("graph").unwrap_or(v))?,
            k: v.get("k").map_or(Ok(10), |_| usize_field(v, "k"))?,
            rerank: v.get("rerank").and_then(Json::as_bool).unwrap_or(false),
        },
        Route::Update => {
            let ops = v
                .get("ops")
                .and_then(Json::as_array)
                .ok_or("missing \"ops\"")?
                .iter()
                .map(|op| {
                    let (u, w) = (usize_field(op, "u")?, usize_field(op, "v")?);
                    Ok(match op.get("op").and_then(Json::as_str) {
                        Some("add") => EdgeDelta::Upsert {
                            u,
                            v: w,
                            w: op.get("w").and_then(Json::as_f64).unwrap_or(1.0),
                        },
                        Some("remove") => EdgeDelta::Remove { u, v: w },
                        other => return Err(format!("unknown op {other:?}")),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Decoded::Update {
                id: usize_field(v, "id")?,
                ops,
            }
        }
    })
}

/// Each request's reference body: the plan submitted one request at a
/// time, in plan order, to an in-process model thread with no batch
/// window. Responses are pure functions of the payload, so these are the
/// bodies the server must send, whatever the batching and interleaving.
pub fn reference_bodies<T: GraphScalar>(
    snap: &ModelSnapshot<T>,
    svc: &ServiceConfig,
    plan: &[Request],
) -> Result<Vec<Result<String, String>>, String> {
    let batcher = Batcher::spawn(snap.clone(), svc.clone(), Duration::ZERO, 64)
        .map_err(|e| format!("reference model thread: {e}"))?;
    let client = batcher.client();
    let mut off = Tracer::new(false);
    let out = plan
        .iter()
        .map(|r| {
            let v = Json::parse(&r.body).map_err(|e| e.to_string())?;
            let job = decode(r.route, &v, &mut off)?.job();
            client
                .submit(job)
                .unwrap_or_else(|| Err("model thread gone".into()))
        })
        .collect();
    drop(client);
    batcher.shutdown();
    Ok(out)
}

/// Hash of the golden plan's reference bodies.
pub fn golden_hash<T: GraphScalar>(
    kind: ServeKind,
    snap: &ModelSnapshot<T>,
    spec: &WorkloadSpec,
) -> Result<String, String> {
    let plan = kind.plan(spec.golden.seed, spec.golden.size);
    let bodies = reference_bodies(snap, &kind.service(), &plan)?
        .into_iter()
        .collect::<Result<Vec<_>, String>>()
        .map_err(|e| format!("golden plan request failed: {e}"))?;
    Ok(stats::hash_bodies(&bodies))
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

fn quantile_ms(samples: &[f64], p: f64, what: &str) -> Result<stats::Quantile, String> {
    stats::quantile(samples, p).ok_or_else(|| {
        format!(
            "{what}: {} samples cannot support a p{:.0}",
            samples.len(),
            p * 100.0
        )
    })
}

/// Prints each route's open-loop p50 (and p99 where the sample supports
/// one) with its sample count.
fn report_routes(plan: &[Request], open: &[Outcome]) {
    let mut by_route: BTreeMap<Route, Vec<f64>> = BTreeMap::new();
    for o in open {
        by_route
            .entry(plan[o.index].route)
            .or_default()
            .push(o.latency_ns as f64 / 1e6);
    }
    for (route, lat) in &by_route {
        let p50 = stats::median(lat).unwrap_or(f64::NAN);
        let p99 = stats::tail_ms(lat, 0.99);
        eprintln!(
            "  {}_p50_ms {p50:.3} ms, p99 {p99} (n = {})",
            route.name(),
            lat.len()
        );
    }
}

/// Cache counters from the server's own `/metrics` endpoint.
fn server_cache(addr: std::net::SocketAddr) -> Option<(f64, f64)> {
    let mut c = Conn::connect(addr).ok()?;
    let (_, body) = c.exchange("GET", "/metrics", "").ok()?;
    let v = Json::parse(&body).ok()?;
    let cache = v.get("cache")?;
    Some((cache.get("hits")?.as_f64()?, cache.get("misses")?.as_f64()?))
}

/// One run of a serving workload.
pub fn run<T: GraphScalar>(
    kind: ServeKind,
    snapshot_path: &Path,
    snap: &ModelSnapshot<T>,
    spec: &WorkloadSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    let rate = spec
        .open_rate_per_s
        .ok_or_else(|| format!("spec.json: {} has no open_rate_per_s", spec.name))?;
    let closed_s = seconds * CLOSED_SHARE;
    let schedule = plan::poisson_schedule(seed, rate, Duration::from_secs_f64(seconds - closed_s));
    let closed_len = (kind.closed_per_s() * closed_s) as usize;
    let plan = kind.plan(seed, closed_len + schedule.len());

    let inputs_mb = crate::rss_mb()?;
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..kind.setups() {
        drop(server.take());
        let (handle, took) = start(kind, snapshot_path)?;
        setup_s.push(took.as_secs_f64());
        server = Some(handle);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr();

    // Metrics-level counters feed the traced run's batch sizes; the
    // end-to-end run measures with observability off.
    hap_obs::reset();
    hap_obs::set_level(if trace {
        hap_obs::Level::Metrics
    } else {
        hap_obs::Level::Off
    });
    let conns = kind.conns();
    let (closed, closed_wall) = client::closed_loop(addr, &plan[..closed_len], conns);
    let open = client::open_loop(addr, &plan, closed_len, &schedule, conns);
    let batch_size = hap_obs::histogram("serve.batch_size").map_or(0.0, |h| h.mean());
    let classify_batch = hap_obs::histogram("serve.classify_batch_size").map_or(0.0, |h| h.mean());
    hap_obs::set_level(hap_obs::Level::Off);
    let cache = server_cache(addr);
    drop(server);

    // Output check: every body against the in-process reference.
    let outcomes: Vec<&Outcome> = closed.iter().chain(&open).collect();
    let sent = &plan[..outcomes.len()];
    let expected = reference_bodies(snap, &kind.service(), sent)?;
    let failed = outcomes
        .iter()
        .filter(|o| o.status != 200 || expected[o.index].as_deref() != Ok(o.body.as_str()))
        .count();
    let bodies: Vec<&str> = outcomes.iter().map(|o| o.body.as_str()).collect();
    let golden = golden_hash(kind, snap, spec)?;
    let golden_ok = golden == spec.golden.hash;

    let latency = ms(&open.iter().map(|o| o.latency_ns).collect::<Vec<_>>());
    let p50 = quantile_ms(&latency, 0.5, "open-loop latency")?;
    let lag = ms(&open.iter().map(|o| o.lag_ns).collect::<Vec<_>>());

    eprintln!(
        "{}: seed {seed}, {conns} connection(s); closed loop {} requests in {:.2}s; open loop {} at {}/s",
        spec.name,
        closed.len(),
        closed_wall.as_secs_f64(),
        open.len(),
        rate
    );
    eprintln!(
        "  latency p50 {:.3} ms, p90 {}, p99 {} (n = {})",
        p50.value,
        stats::tail_ms(&latency, 0.9),
        stats::tail_ms(&latency, 0.99),
        p50.count
    );
    report_routes(&plan, &open);
    if let Some((hits, misses)) = cache {
        eprintln!(
            "  cache hits {hits} misses {misses} (hit rate {:.3})",
            hits / (hits + misses).max(1.0)
        );
    }
    eprintln!(
        "  error_rate {:.4} ({failed} of {} failed or wrong)",
        failed as f64 / outcomes.len().max(1) as f64,
        outcomes.len()
    );
    eprintln!(
        "  body hash {} over {} requests",
        stats::hash_bodies(&bodies),
        bodies.len()
    );
    eprintln!(
        "  golden seed {} x {}: {golden} (recorded {}){}",
        spec.golden.seed,
        spec.golden.size,
        spec.golden.hash,
        if golden_ok { "" } else { " MISMATCH" }
    );

    if !trace {
        return Ok(RunResult {
            correct: failed == 0 && golden_ok,
            attempted: outcomes.len(),
            failed,
            metrics: vec![
                Metric::new("setup_s", stats::median(&setup_s).unwrap_or(0.0), "s"),
                Metric::new(
                    "ops_per_s",
                    closed.len() as f64 / closed_wall.as_secs_f64(),
                    "1/s",
                ),
                Metric::new("latency_p50_ms", p50.value, "ms"),
                crate::peak_rss_metric(inputs_mb)?,
            ],
        });
    }

    let n = kind.replay_len().min(outcomes.len());
    let expected: Vec<&str> = bodies[..n].to_vec();
    // Untraced passes on both sides of the traced one, so warm-up and
    // drift do not land on one side of the overhead.
    let before = replay(kind, snap, &plan[..n], &expected, false)?;
    let traced = replay(kind, snap, &plan[..n], &expected, true)?;
    let after = replay(kind, snap, &plan[..n], &expected, false)?;
    let out_path = Path::new("perfbench/out").join(format!("{}-seed{seed}.spans.tsv", spec.name));
    traced
        .tracer
        .write_tsv(&out_path)
        .map_err(|e| format!("write {}: {e}", out_path.display()))?;
    eprintln!("  spans of the traced replay -> {}", out_path.display());
    let mismatches =
        (before.counts.mismatches + traced.counts.mismatches + after.counts.mismatches) as usize;
    if mismatches > 0 {
        eprintln!("  replay: {mismatches} bodies differ from the served ones");
    }
    let facts = LoadFacts {
        batch_size,
        classify_batch,
        // The open loop always has enough samples for a p99 at the
        // recorded rates; the maximum stands in should it not.
        lag_p99_ms: stats::quantile(&lag, 0.99)
            .map_or_else(|| lag.iter().copied().fold(0.0, f64::max), |q| q.value),
        snapshot_load_us: snapshot_load_us::<T>(snapshot_path)?,
    };
    Ok(RunResult {
        correct: failed == 0 && golden_ok && mismatches == 0,
        attempted: outcomes.len(),
        failed: failed + mismatches,
        metrics: layer_metrics(&layer_values(
            &traced,
            (before.wall + after.wall) / 2,
            &facts,
        )),
    })
}

/// Median time to read and decode the snapshot file.
fn snapshot_load_us<T: GraphScalar>(path: &Path) -> Result<f64, String> {
    let mut us = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        ModelSnapshot::<T>::from_bytes(&bytes).map_err(|e| e.to_string())?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(stats::median(&us).unwrap_or(0.0))
}

/// Work counted by the replay (identical in the traced and untraced
/// passes, since both replay the same plan).
#[derive(Default)]
struct Counts {
    requests: u64,
    request_bytes: u64,
    graphs_embedded: u64,
    nodes_embedded: u64,
    spmm_flops: f64,
    cascades: u64,
    scanned: u64,
    pruned: u64,
    coarse_evals: u64,
    refined: u64,
    ged_pairs: u64,
    deltas: u64,
    cache_hits: u64,
    cache_misses: u64,
    build_graphs_per_s: f64,
    mismatches: u64,
}

struct ReplayOut {
    wall: Duration,
    tracer: Tracer,
    counts: Counts,
    /// `hap-core`'s own scope timings, read before the next pass resets
    /// them (traced pass only).
    core: LayerValues,
}

/// The layer-by-layer replica of the service, driven from this thread:
/// its own classifier, retrieval index, overlay and embedding cache, so
/// each layer's public function can be timed on its own.
struct Parts<T: GraphScalar> {
    clf: HapClassifier<T>,
    index: Option<GraphIndex>,
    corpus: RetrievalCorpus,
    overlay: HashMap<usize, Graph>,
    cache: HashMap<u64, Tensor<T>>,
    cfg: ServiceConfig,
    in_dim: usize,
    hidden: usize,
}

impl<T: GraphScalar> Parts<T> {
    fn features(&self, g: &Graph) -> Tensor<T> {
        let f = if g.node_labels().is_some() {
            label_one_hot(g, self.in_dim)
        } else {
            degree_one_hot(g, self.in_dim)
        };
        f.cast()
    }

    /// The embedding of `g` under WL key `key`: from the cache, or through
    /// the CSR build and the forward pass (`batched` picks the service's
    /// classify path, `try_embeddings`, over its single-graph path).
    fn embed(
        &mut self,
        tr: &mut Tracer,
        counts: &mut Counts,
        g: &Graph,
        key: u64,
        batched: bool,
    ) -> Tensor<T> {
        if let Some(e) = self.cache.get(&key) {
            return e.clone();
        }
        let nnz = tr.time("graph.csr", || T::csr_of(g).nnz());
        let e = tr.time("core.embed", || {
            let x = self.features(g);
            let mut rng = Rng::from_seed(0);
            let mut ctx = PoolCtx {
                training: false,
                rng: &mut rng,
            };
            if batched {
                self.clf
                    .try_embeddings(&[(g, &x)], &mut ctx)
                    .map(|mut v| v.remove(0))
            } else {
                self.clf.try_embedding(g, &x, &mut ctx)
            }
        });
        let e = e.expect("planned graphs are non-empty");
        counts.graphs_embedded += 1;
        counts.nodes_embedded += g.n() as u64;
        counts.spmm_flops += crate::spmm_flops(nnz, self.hidden);
        self.cache.insert(key, e.clone());
        e
    }

    fn query(&self, tr: &mut Tracer, g: &Graph, e: &Tensor<T>) -> QueryEmbedding {
        let index = self
            .index
            .as_ref()
            .expect("search workloads build an index");
        tr.time("retrieval.query", || {
            let concat: Vec<f64> = e.cast::<f64>().row(0).to_vec();
            QueryEmbedding::from_concat(
                g,
                &concat,
                index.hidden(),
                index.levels(),
                self.cfg.wl_iterations,
            )
            .expect("embedding width matches the index")
        })
    }

    fn classify(&mut self, tr: &mut Tracer, counts: &mut Counts, g: &Graph) {
        let key = tr.time("graph.wl_key", || wl_cache_key(g, self.cfg.wl_iterations));
        let e = self.embed(tr, counts, g, key, true);
        tr.time("core.head", || self.clf.logits_from_embedding(&e));
    }

    fn similarity(&mut self, tr: &mut Tracer, counts: &mut Counts, a: &Graph, b: &Graph) {
        for g in [a, b] {
            let key = tr.time("graph.wl_key", || wl_cache_key(g, self.cfg.wl_iterations));
            self.embed(tr, counts, g, key, false);
        }
    }

    fn search(&mut self, tr: &mut Tracer, counts: &mut Counts, g: &Graph, k: usize, rerank: bool) {
        let key = tr.time("graph.wl_key", || wl_cache_key(g, self.cfg.wl_iterations));
        let e = self.embed(tr, counts, g, key, false);
        let q = self.query(tr, g, &e);
        let index = self
            .index
            .as_ref()
            .expect("search workloads build an index");
        // The service's clamping of `k` and the default budget.
        let len = index.len().max(1);
        let k = k.clamp(1, hap_serve::service::MAX_SEARCH_K.min(len));
        let budget = self.cfg.search_budget.clamp(k, len);
        let (hits, report) = tr.time("retrieval.cascade", || index.cascade(&q, k, budget));
        counts.cascades += 1;
        counts.scanned += index.len() as u64;
        counts.pruned += (report.skipped_size_degree + report.skipped_wl) as u64;
        counts.coarse_evals += report.coarse_evals as u64;
        counts.refined += report.refined as u64;
        if rerank {
            let (overlay, corpus) = (&self.overlay, &self.corpus);
            tr.time("ged.rerank", || {
                index.rerank_ged_with(
                    |id| {
                        overlay
                            .get(&id)
                            .cloned()
                            .unwrap_or_else(|| corpus.graph(id))
                    },
                    g,
                    &hits,
                    hap_ged::GedMethod::Hungarian,
                    &hap_ged::EditCosts::uniform(),
                )
            });
            counts.ged_pairs += hits.len() as u64;
        }
    }

    fn update(&mut self, tr: &mut Tracer, counts: &mut Counts, id: usize, ops: &[EdgeDelta]) {
        let it = self.cfg.wl_iterations;
        let key_of = |g: &Graph| {
            wl_cache_key_from_signature(&g.wl_signature_cached(it), g.n(), g.num_edges())
        };
        let mut g = self
            .overlay
            .remove(&id)
            .unwrap_or_else(|| self.corpus.graph(id));
        let old_key = tr.time("graph.wl_key", || key_of(&g));
        let applied = tr.time("graph.apply", || {
            ops.iter().filter(|&&op| g.apply(op)).count()
        });
        counts.deltas += ops.len() as u64;
        if applied > 0 {
            let new_key = tr.time("graph.wl_key", || key_of(&g));
            self.cache.remove(&old_key);
            let e = self.embed(tr, counts, &g, new_key, false);
            let q = self.query(tr, &g, &e);
            let index = self
                .index
                .as_mut()
                .expect("search workloads build an index");
            tr.time("retrieval.update_entry", || index.update_entry(id, &q));
        }
        self.overlay.insert(id, g);
    }
}

/// Replays `plan` in process: each request's exact bytes through
/// `http::read_request`, `Json::parse` and `graph_from_json`, the job
/// through `BatcherClient::submit` against a model thread with the
/// workload's batch window, the same operation on a directly held
/// `ModelService`, and the layer-by-layer replica. With `traced`, every
/// call gets a span and `hap_obs` runs at `Level::Trace` (off around
/// `submit`, so the model thread's own timers stay out of the
/// histograms); without, the same calls run bare.
fn replay<T: GraphScalar>(
    kind: ServeKind,
    snap: &ModelSnapshot<T>,
    plan: &[Request],
    expected: &[&str],
    traced: bool,
) -> Result<ReplayOut, String> {
    let cfg = kind.service();
    let serve = serve_config(kind);
    let batcher = Batcher::spawn(snap.clone(), cfg.clone(), serve.window, serve.max_batch)
        .map_err(|e| format!("replay model thread: {e}"))?;
    let client: BatcherClient = batcher.client();
    let corpus = RetrievalCorpus::new(cfg.search_seed, cfg.search_corpus);
    let index_config = IndexConfig {
        wl_iterations: cfg.wl_iterations,
        ..IndexConfig::default()
    };
    let levels = snap.config.cluster_sizes.len().max(1);
    let (_, clf) = snap.build_classifier().map_err(|e| e.to_string())?;
    let mut svc = ModelService::new(
        clf,
        snap.config.in_dim,
        snap.config.hidden,
        levels,
        cfg.clone(),
    );
    let mut counts = Counts::default();
    let mut parts_index = None;
    if cfg.search_corpus > 0 {
        let index =
            GraphIndex::build(snap, &corpus, index_config.clone()).map_err(|e| e.to_string())?;
        svc.enable_search(SearchState::new(index, corpus));
        let t0 = Instant::now();
        parts_index =
            Some(GraphIndex::build(snap, &corpus, index_config).map_err(|e| e.to_string())?);
        counts.build_graphs_per_s = corpus.len() as f64 / t0.elapsed().as_secs_f64();
    }
    let (_, parts_clf) = snap.build_classifier().map_err(|e| e.to_string())?;
    let mut parts = Parts {
        clf: parts_clf,
        index: parts_index,
        corpus,
        overlay: HashMap::new(),
        cache: HashMap::new(),
        cfg: cfg.clone(),
        in_dim: snap.config.in_dim,
        hidden: snap.config.hidden,
    };
    let mut tr = Tracer::new(traced);
    let level = if traced {
        hap_obs::Level::Trace
    } else {
        hap_obs::Level::Off
    };
    hap_obs::reset();
    hap_obs::set_level(level);

    let t0 = Instant::now();
    for (i, r) in plan.iter().enumerate() {
        tr.set_request(i);
        let root = tr.begin("request");
        let wire = r.wire_bytes();
        counts.requests += 1;
        counts.request_bytes += wire.len() as u64;
        let req = tr
            .time("http.read_request", || {
                hap_serve::http::read_request(&mut Cursor::new(&wire), MAX_BODY)
            })
            .map_err(|e| format!("request {i}: {e}"))?;
        let v = tr
            .time("json.parse", || {
                std::str::from_utf8(&req.body)
                    .map_err(|e| e.to_string())
                    .and_then(|s| Json::parse(s).map_err(|e| e.to_string()))
            })
            .map_err(|e| format!("request {i}: {e}"))?;
        let decoded = decode(r.route, &v, &mut tr).map_err(|e| format!("request {i}: {e}"))?;

        let job = decoded.job();
        hap_obs::set_level(hap_obs::Level::Off);
        let reply = tr.time("batch.submit", || client.submit(job));
        hap_obs::set_level(level);
        let body = match reply {
            Some(Ok(body)) => body,
            other => return Err(format!("request {i}: model thread answered {other:?}")),
        };
        if expected.get(i) != Some(&body.as_str()) {
            counts.mismatches += 1;
        }

        match &decoded {
            Decoded::Classify(g) => {
                let g2 = g.clone();
                let ok = tr.time("service.classify", || {
                    svc.classify_batch(std::slice::from_ref(&g2))
                });
                ok[0].as_ref().map_err(|e| e.to_string())?;
                parts.classify(&mut tr, &mut counts, g);
            }
            Decoded::Similarity(a, b) => {
                let (a2, b2) = (a.clone(), b.clone());
                tr.time("service.similarity", || svc.similarity(&a2, &b2))
                    .map_err(|e| e.to_string())?;
                parts.similarity(&mut tr, &mut counts, a, b);
            }
            Decoded::Search { graph, k, rerank } => {
                let g2 = graph.clone();
                tr.time("service.search", || svc.search(&g2, *k, None, *rerank))?;
                parts.search(&mut tr, &mut counts, graph, *k, *rerank);
            }
            Decoded::Update { id, ops } => {
                tr.time("service.update", || svc.update(*id, ops))?;
                parts.update(&mut tr, &mut counts, *id, ops);
            }
        }
        let mut out = Vec::with_capacity(body.len() + 128);
        tr.time("http.write_response", || {
            hap_serve::http::write_response(&mut out, 200, "OK", &body, true)
        })
        .map_err(|e| e.to_string())?;
        tr.end(root);
    }
    let wall = t0.elapsed();
    hap_obs::set_level(hap_obs::Level::Off);
    let mut core = LayerValues::new();
    record_core_self_times(&mut core, None);
    counts.cache_hits = svc.cache_hits();
    counts.cache_misses = svc.cache_misses();
    drop(client);
    batcher.shutdown();
    Ok(ReplayOut {
        wall,
        tracer: tr,
        counts,
        core,
    })
}

/// Per-layer figures measured outside the replay.
struct LoadFacts {
    batch_size: f64,
    classify_batch: f64,
    lag_p99_ms: f64,
    snapshot_load_us: f64,
}

fn layer_values(traced: &ReplayOut, untraced_wall: Duration, facts: &LoadFacts) -> LayerValues {
    let t = traced.tracer.totals();
    let c = &traced.counts;
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let us = |name: &str| get(name).mean_us();
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let service_ns: u64 = [
        "service.classify",
        "service.similarity",
        "service.search",
        "service.update",
    ]
    .iter()
    .map(|s| get(s).self_ns)
    .sum();
    let (submit, embed) = (get("batch.submit"), get("core.embed"));
    let mut v = LayerValues::from([
        ("http.read_request_us", us("http.read_request")),
        ("http.write_response_us", us("http.write_response")),
        (
            "http.request_bytes",
            per(c.request_bytes as f64, c.requests),
        ),
        ("json.parse_us", us("json.parse")),
        ("json.graph_from_json_us", us("json.graph_from_json")),
        ("batch.submit_us", submit.mean_us()),
        // Submit minus the direct service time for the same jobs.
        (
            "batch.wait_us",
            per(
                (submit.self_ns as f64 - service_ns as f64) / 1e3,
                submit.calls,
            ),
        ),
        ("batch.size_mean", facts.batch_size),
        ("batch.classify_size_mean", facts.classify_batch),
        (
            "cache.hit_rate",
            per(c.cache_hits as f64, c.cache_hits + c.cache_misses),
        ),
        ("cache.hits", c.cache_hits as f64),
        ("cache.misses", c.cache_misses as f64),
        ("service.classify_us_per_graph", us("service.classify")),
        ("service.similarity_us", us("service.similarity")),
        ("service.search_us", us("service.search")),
        ("service.update_us", us("service.update")),
        ("graph.wl_key_us", us("graph.wl_key")),
        ("graph.csr_us", us("graph.csr")),
        (
            "graph.apply_us_per_delta",
            per(get("graph.apply").self_ns as f64 / 1e3, c.deltas),
        ),
        ("graph.deltas", c.deltas as f64),
        (
            "core.embed_us_per_graph",
            per(embed.self_ns as f64 / 1e3, c.graphs_embedded),
        ),
        (
            "core.nodes_per_s",
            per(c.nodes_embedded as f64 * 1e9, embed.self_ns),
        ),
        ("core.spmm_flops", per(c.spmm_flops, c.graphs_embedded)),
        ("retrieval.build_graphs_per_s", c.build_graphs_per_s),
        ("retrieval.cascade_us", us("retrieval.cascade")),
        ("retrieval.pruned_share", per(c.pruned as f64, c.scanned)),
        (
            "retrieval.coarse_evals",
            per(c.coarse_evals as f64, c.cascades),
        ),
        ("retrieval.refined", per(c.refined as f64, c.cascades)),
        ("retrieval.update_entry_us", us("retrieval.update_entry")),
        ("ged.rerank_us", us("ged.rerank")),
        ("ged.pairs", c.ged_pairs as f64),
        ("snapshot.load_us", facts.snapshot_load_us),
        ("loadgen.lag_p99_ms", facts.lag_p99_ms),
    ]);
    let attributed: u64 = t
        .iter()
        .filter(|(name, _)| **name != "request")
        .map(|(_, x)| x.self_ns)
        .sum();
    record_validity(&mut v, traced.wall, untraced_wall, attributed);
    v.extend(&traced.core);
    v
}
