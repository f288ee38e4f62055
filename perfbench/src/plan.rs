//! Seeded request plans for the serving workloads and the open-loop
//! arrival schedule.
//!
//! A plan is a pure function of the workload seed: graphs and traffic come
//! from labelled `hap-rand` forks, so the same seed sends the same bytes.
//! The server only ever sees the generated requests.

use hap_data::RetrievalCorpus;
use hap_graph::{generators, EdgeDelta, Graph};
use hap_rand::Rng;
use std::collections::HashMap;
use std::time::Duration;

/// The serving routes a plan exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Route {
    Classify,
    Similarity,
    Search,
    Update,
}

impl Route {
    pub fn path(self) -> &'static str {
        match self {
            Route::Classify => "/classify",
            Route::Similarity => "/similarity",
            Route::Search => "/search",
            Route::Update => "/update",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Route::Classify => "classify",
            Route::Similarity => "similarity",
            Route::Search => "search",
            Route::Update => "update",
        }
    }
}

/// One planned request: the route and its JSON body.
#[derive(Clone, Debug)]
pub struct Request {
    pub route: Route,
    pub body: String,
}

impl Request {
    /// The exact bytes a keep-alive client sends for this request.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut bytes = format!(
            "POST {} HTTP/1.1\r\nHost: perfbench\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n",
            self.route.path(),
            self.body.len()
        )
        .into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        bytes
    }
}

/// Serialises a graph into the serve wire schema (the byte layout loadgen
/// sends: edges in row-major `u < v` order, then the labels of a labelled
/// graph).
pub fn graph_json(g: &Graph) -> String {
    let edges: Vec<String> = g
        .edges()
        .into_iter()
        .map(|(u, v)| format!("[{u},{v}]"))
        .collect();
    let labels = g.node_labels().map_or(String::new(), |l| {
        let l: Vec<String> = l.iter().map(usize::to_string).collect();
        format!(", \"labels\": [{}]", l.join(","))
    });
    format!(
        "{{\"n\": {}, \"edges\": [{}]{labels}}}",
        g.n(),
        edges.join(",")
    )
}

/// Squared-uniform index in `0..len`: mass concentrates on low indices,
/// which gives caches a hot set.
fn skewed_index(rng: &mut Rng, len: usize) -> usize {
    let r = rng.gen_f64();
    ((r * r * len as f64) as usize).min(len - 1)
}

/// `serve-hot`: loadgen's traffic. A 48-graph pool of 6–32-node graphs,
/// squared-uniform skew over the pool and ~75/15/10
/// classify/similarity/search. The first 1000 requests of seed 42 are
/// byte-for-byte loadgen's default run.
pub fn serve_hot(seed: u64, requests: usize) -> Vec<Request> {
    let mut root = Rng::from_seed(seed);
    let mut pool_rng = root.fork("corpus");
    let pool: Vec<String> = (0..48)
        .map(|i| {
            let n = pool_rng.gen_range(6..=32usize);
            let g = match i % 4 {
                0 => generators::erdos_renyi_connected(n, 0.3, &mut pool_rng),
                1 => generators::barabasi_albert(n, 2, &mut pool_rng),
                2 => generators::cycle(n),
                _ => generators::star(n),
            };
            graph_json(&g)
        })
        .collect();
    let mut rng = root.fork("traffic");
    (0..requests)
        .map(|_| {
            let a = skewed_index(&mut rng, pool.len());
            let r = rng.gen_f64();
            if r < 0.15 {
                let b = skewed_index(&mut rng, pool.len());
                Request {
                    route: Route::Similarity,
                    body: format!("{{\"a\": {}, \"b\": {}}}", pool[a], pool[b]),
                }
            } else if r < 0.25 {
                Request {
                    route: Route::Search,
                    body: format!("{{\"graph\": {}, \"k\": 10}}", pool[a]),
                }
            } else {
                Request {
                    route: Route::Classify,
                    body: pool[a].clone(),
                }
            }
        })
        .collect()
}

/// Smallest and largest node count of a `serve-cold` graph.
const COLD_MIN_NODES: usize = 32;
const COLD_MAX_NODES: usize = 512;

/// Node labels of `serve-cold` graphs are drawn from `0..COLD_LABELS`.
const COLD_LABELS: usize = 8;

/// One unique sparse graph for `serve-cold`: `n` log-uniform in
/// `[32, 512]`, mean degree at most 8, from one of four families, with
/// random node labels. Rings and stars get `n/8` to `n/4` random extra
/// edges. The labels keep every graph distinct under the WL cache key:
/// unlabelled, a star with a few extra edges or a random tree often
/// repeats up to isomorphism or 1-WL equivalence under another node
/// order, and the WL-keyed cache then answers with whichever ordering was
/// embedded first — a response that depends on request history.
fn cold_graph(rng: &mut Rng) -> Graph {
    let (lo, hi) = (
        (COLD_MIN_NODES as f64).ln(),
        (COLD_MAX_NODES as f64 + 1.0).ln(),
    );
    let n = (rng.gen_range(lo..hi).exp() as usize).clamp(COLD_MIN_NODES, COLD_MAX_NODES);
    let extra_edges = |g: &mut Graph, rng: &mut Rng| {
        for _ in 0..rng.gen_range(n / 8..=n / 4) {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                g.add_edge(u, v);
            }
        }
    };
    let g = match rng.gen_range(0..4usize) {
        0 => {
            let mean_degree = rng.gen_range(2.0..8.0);
            generators::erdos_renyi(n, mean_degree / (n - 1) as f64, rng)
        }
        1 => generators::barabasi_albert(n, rng.gen_range(1..=4usize), rng),
        2 => {
            let mut g = generators::cycle(n);
            extra_edges(&mut g, rng);
            g
        }
        _ => {
            let mut g = generators::star(n);
            extra_edges(&mut g, rng);
            g
        }
    };
    g.with_node_labels((0..n).map(|_| rng.gen_range(0..COLD_LABELS)).collect())
}

/// `serve-cold`: 80/20 classify/similarity over graphs that never repeat.
pub fn serve_cold(seed: u64, requests: usize) -> Vec<Request> {
    let mut rng = Rng::from_seed(seed).fork("cold");
    (0..requests)
        .map(|_| {
            if rng.gen_f64() < 0.8 {
                Request {
                    route: Route::Classify,
                    body: graph_json(&cold_graph(&mut rng)),
                }
            } else {
                let a = graph_json(&cold_graph(&mut rng));
                let b = graph_json(&cold_graph(&mut rng));
                Request {
                    route: Route::Similarity,
                    body: format!("{{\"a\": {a}, \"b\": {b}}}"),
                }
            }
        })
        .collect()
}

/// Graphs in the `stream` workload's corpus (one index shard).
pub const STREAM_CORPUS: usize = 16_384;

/// Seed of the served retrieval corpus (the server's default).
pub const CORPUS_SEED: u64 = 77;

/// Edit-batch sizes of `stream` updates.
const STREAM_BATCHES: [usize; 4] = [1, 4, 16, 64];

/// Neighbours per `stream` search.
const STREAM_K: usize = 10;

/// `stream`: `/update` and `/search` alternate. Update targets are skewed
/// so hot slots keep warm overlay caches; each batch has 1, 4, 16 or 64
/// ops whose endpoints span the target graph's real node range. The
/// planner mirrors every update on its own copy of the target graph
/// (regenerated via `RetrievalCorpus::graph`), so removals name edges that
/// exist and each search queries the current state of a skewed slot. One
/// search in eight asks for the GED rerank.
pub fn stream(seed: u64, ops: usize) -> Vec<Request> {
    let corpus = RetrievalCorpus::new(CORPUS_SEED, STREAM_CORPUS);
    let mut rng = Rng::from_seed(seed).fork("stream");
    let mut mirror: HashMap<usize, Graph> = HashMap::new();
    let mut searches = 0usize;
    (0..ops)
        .map(|i| {
            let id = skewed_index(&mut rng, corpus.len());
            let g = mirror.entry(id).or_insert_with(|| corpus.graph(id));
            if i % 2 == 0 {
                let batch = STREAM_BATCHES[rng.gen_range(0..STREAM_BATCHES.len())];
                let ops: Vec<String> = (0..batch).map(|_| plan_op(g, &mut rng)).collect();
                Request {
                    route: Route::Update,
                    body: format!("{{\"id\": {id}, \"ops\": [{}]}}", ops.join(",")),
                }
            } else {
                searches += 1;
                let rerank = if searches.is_multiple_of(8) {
                    ", \"rerank\": true"
                } else {
                    ""
                };
                Request {
                    route: Route::Search,
                    body: format!(
                        "{{\"graph\": {}, \"k\": {STREAM_K}{rerank}}}",
                        graph_json(g)
                    ),
                }
            }
        })
        .collect()
}

/// One edit op against `g`, applied to the mirror so later ops see it:
/// half remove an existing edge, half upsert a random pair.
fn plan_op(g: &mut Graph, rng: &mut Rng) -> String {
    let n = g.n();
    if rng.gen_f64() < 0.5 {
        let edges = g.edges();
        if !edges.is_empty() {
            let (u, v) = edges[rng.gen_range(0..edges.len())];
            g.apply(EdgeDelta::Remove { u, v });
            return format!("{{\"op\":\"remove\",\"u\":{u},\"v\":{v}}}");
        }
    }
    let u = rng.gen_range(0..n);
    let v = (u + rng.gen_range(1..n)) % n;
    let w = [1.0, 0.5, 2.0][rng.gen_range(0..3usize)];
    g.apply(EdgeDelta::Upsert { u, v, w });
    format!("{{\"op\":\"add\",\"u\":{u},\"v\":{v},\"w\":{w:?}}}")
}

/// Open-loop arrival offsets from the start of the phase: a Poisson
/// process of `rate` requests per second over `duration`, a pure function
/// of `seed`.
pub fn poisson_schedule(seed: u64, rate: f64, duration: Duration) -> Vec<Duration> {
    assert!(rate > 0.0, "open-loop rate must be positive");
    let mut rng = Rng::from_seed(seed).fork("open-loop");
    let end = duration.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // Exponential gap by inversion; `1 - u` lies in (0, 1].
        t += -(1.0 - rng.gen_f64()).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        let bodies = |plan: Vec<Request>| plan.into_iter().map(|r| r.body).collect::<Vec<_>>();
        assert_eq!(bodies(serve_hot(5, 50)), bodies(serve_hot(5, 50)));
        assert_ne!(bodies(serve_hot(5, 50)), bodies(serve_hot(6, 50)));
        assert_eq!(bodies(serve_cold(5, 8)), bodies(serve_cold(5, 8)));
        assert_eq!(bodies(stream(5, 20)), bodies(stream(5, 20)));
        // A longer plan extends a shorter one: the plan is one stream.
        assert_eq!(bodies(serve_hot(5, 80))[..50], bodies(serve_hot(5, 50))[..]);
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(9, 200.0, Duration::from_secs(5));
        assert_eq!(a, poisson_schedule(9, 200.0, Duration::from_secs(5)));
        assert_ne!(a, poisson_schedule(10, 200.0, Duration::from_secs(5)));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        assert!(a.iter().all(|t| *t < Duration::from_secs(5)));
        // Poisson count over 5 s at 200/s: 1000 ± a few standard deviations.
        assert!((850..1150).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn cold_graphs_are_sparse_and_in_range() {
        let mut rng = Rng::from_seed(3);
        for _ in 0..40 {
            let g = cold_graph(&mut rng);
            assert!((COLD_MIN_NODES..=COLD_MAX_NODES).contains(&g.n()));
            let mean_degree = 2.0 * g.num_edges() as f64 / g.n() as f64;
            assert!(mean_degree <= 8.0, "mean degree {mean_degree}");
        }
    }

    #[test]
    fn stream_ops_stay_inside_each_target_graph() {
        let corpus = RetrievalCorpus::new(CORPUS_SEED, STREAM_CORPUS);
        for r in stream(11, 40).iter().filter(|r| r.route == Route::Update) {
            let v = hap_serve::Json::parse(&r.body).expect("valid JSON");
            let id = v.get("id").and_then(hap_serve::Json::as_usize).expect("id");
            let n = corpus.graph(id).n();
            let ops = v
                .get("ops")
                .and_then(hap_serve::Json::as_array)
                .expect("ops");
            assert!(STREAM_BATCHES.contains(&ops.len()));
            for op in ops {
                for end in ["u", "v"] {
                    let x = op.get(end).and_then(hap_serve::Json::as_usize).expect(end);
                    assert!(x < n, "endpoint {x} outside {n} nodes");
                }
            }
        }
    }
}
