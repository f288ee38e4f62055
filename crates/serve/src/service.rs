//! The model-facing half of the server: request schema → [`Graph`],
//! embedding with the WL-keyed LRU cache in front, and the four
//! operations (`classify`, `similarity`, `search`, `update`).
//!
//! ## Why caching embeddings is sound
//!
//! At eval time (`PoolCtx { training: false, .. }`) a HAP forward pass
//! consumes no RNG draws and is a pure function of the graph (verified by
//! `eval_pass_is_deterministic_training_pass_is_not` in hap-pooling), and
//! the hierarchy embedding is permutation-invariant. `wl_cache_key` is
//! likewise permutation-invariant and sensitive to edges, labels and node
//! count, so key equality implies embedding equality *up to 1-WL
//! resolution* — the documented approximation (see `hap_graph::wl`): pairs
//! of non-isomorphic regular graphs that 1-WL cannot separate share a
//! cache entry. For molecule/social-scale inputs this is the standard
//! trade made by WL-hash dedup in graph ML pipelines.

use crate::cache::LruCache;
use crate::json::Json;
use hap_core::{HapClassifier, HapError, SIMILARITY_SCALE};
use hap_graph::{
    degree_one_hot, label_one_hot, wl_cache_key_from_signature, EdgeDelta, Graph, GraphScalar,
};
use hap_pooling::PoolCtx;
use hap_rand::Rng;
use hap_tensor::Tensor;
use std::collections::HashMap;

/// Hard cap on `n` accepted over the wire. A graph is stored in O(n + m),
/// but `n` alone sizes every level-0 tensor of a request (features,
/// encoder activations, the `N×N'` assignment), so a large `n` in a tiny
/// payload would still buy a large computation.
pub const MAX_GRAPH_NODES: usize = 512;

/// Hard cap on the edge list length (larger than `MAX_GRAPH_NODES²/2`
/// never adds information on a simple graph).
pub const MAX_GRAPH_EDGES: usize = MAX_GRAPH_NODES * MAX_GRAPH_NODES / 2;

/// Hard cap on `k` accepted by `POST /search`.
pub const MAX_SEARCH_K: usize = 100;

/// Hard cap on the number of edge ops accepted by one `POST /update`.
pub const MAX_UPDATE_OPS: usize = 1024;

/// Tunables for [`ModelService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// LRU capacity of the embedding cache, in entries (0 disables).
    pub cache_capacity: usize,
    /// WL refinement rounds used for cache keys.
    pub wl_iterations: usize,
    /// Size of the seeded retrieval corpus served by `POST /search`
    /// (0 disables the route; the index is built at startup).
    pub search_corpus: usize,
    /// Seed of the retrieval corpus.
    pub search_seed: u64,
    /// Default cascade candidate budget when a search request does not
    /// set one.
    pub search_budget: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 1024,
            wl_iterations: 3,
            search_corpus: 0,
            search_seed: 77,
            search_budget: 128,
        }
    }
}

/// Result of `POST /classify`.
#[derive(Clone, Debug)]
pub struct Classification {
    /// Arg-max class index.
    pub label: usize,
    /// Raw logits, one per class.
    pub logits: Vec<f64>,
}

/// Result of `POST /search`: top-k corpus neighbours of the query
/// graph, nearest first.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// `(corpus id, distance)` pairs — retrieval distance, or GED when
    /// `reranked` is set.
    pub hits: Vec<hap_retrieval::Neighbor>,
    /// The cascade budget actually used (after clamping).
    pub budget: usize,
    /// Whether the shortlist was exactly reranked by graph edit
    /// distance.
    pub reranked: bool,
}

/// The retrieval index plus the corpus it was built over ([`ModelService`]
/// search support; the corpus handle regenerates shortlist graphs for
/// the GED rerank stage).
pub struct SearchState {
    /// The pre-built retrieval index.
    pub index: hap_retrieval::GraphIndex,
    /// The corpus the index was built over.
    pub corpus: hap_data::RetrievalCorpus,
    /// Graphs mutated by `POST /update`, keyed by corpus id. Graph
    /// lookups (further updates, the GED rerank stage) consult this
    /// overlay before falling back to seed-corpus regeneration; slots
    /// never touched by an update stay out of it.
    pub overlay: HashMap<usize, Graph>,
}

impl SearchState {
    /// Wraps a freshly built index and its corpus with an empty overlay.
    pub fn new(index: hap_retrieval::GraphIndex, corpus: hap_data::RetrievalCorpus) -> Self {
        SearchState {
            index,
            corpus,
            overlay: HashMap::new(),
        }
    }
}

/// Result of `POST /update`: what one atomic edit batch did to a corpus
/// slot.
#[derive(Clone, Copy, Debug)]
pub struct UpdateResult {
    /// The corpus slot that was addressed.
    pub id: usize,
    /// Ops that changed the stored adjacency (bitwise).
    pub applied: usize,
    /// Ops that were bit-level no-ops (removing an absent edge,
    /// re-upserting an identical weight).
    pub noops: usize,
    /// Node count of the graph (updates never change it).
    pub n: usize,
    /// Edge count after the update.
    pub edges: usize,
    /// Maximum degree after the update.
    pub max_degree: usize,
    /// Whether the graph was re-embedded and its index slot rewritten
    /// in place (false when every op was a no-op).
    pub reembedded: bool,
    /// Whether a stale embedding-cache entry was evicted.
    pub evicted: bool,
}

/// Result of `POST /similarity`.
#[derive(Clone, Debug)]
pub struct Similarity {
    /// Per-pooling-level similarity `exp(-s·‖eₐ - e_b‖)` in `(0, 1]`.
    pub per_level: Vec<f64>,
    /// Mean of `per_level` — the scalar score.
    pub mean: f64,
}

/// A loaded classifier plus its embedding cache, generic over the
/// classifier's element type (default `f64`; `hap-serve` picks the
/// concrete type from the snapshot's recorded dtype). Single-threaded by
/// construction (`HapClassifier` holds `Rc` parameters); the batcher
/// thread owns the only instance.
pub struct ModelService<T: GraphScalar = f64> {
    clf: HapClassifier<T>,
    in_dim: usize,
    levels: usize,
    hidden: usize,
    cfg: ServiceConfig,
    cache: LruCache<Tensor<T>>,
    search: Option<SearchState>,
}

impl<T: GraphScalar> ModelService<T> {
    /// Wraps a rebuilt classifier. `in_dim`/`hidden`/`levels` come from
    /// the snapshot's `HapConfig`.
    pub fn new(
        clf: HapClassifier<T>,
        in_dim: usize,
        hidden: usize,
        levels: usize,
        cfg: ServiceConfig,
    ) -> Self {
        let cache = LruCache::new(cfg.cache_capacity);
        ModelService {
            clf,
            in_dim,
            levels,
            hidden,
            cfg,
            cache,
            search: None,
        }
    }

    /// Installs a pre-built retrieval index (built from the same
    /// snapshot this service's classifier came from, so index and query
    /// embeddings share one parameter set).
    pub fn enable_search(&mut self, state: SearchState) {
        self.search = Some(state);
    }

    /// Whether `POST /search` is backed by an index.
    pub fn search_enabled(&self) -> bool {
        self.search.is_some()
    }

    /// Input feature dimension expected by the loaded model.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Cache hits since startup.
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Cache misses since startup.
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// The hierarchy embedding for `g` (a `1 × levels·hidden` row),
    /// served from the WL-keyed cache when possible.
    ///
    /// # Errors
    /// [`HapError`] from the forward pass (empty graph, feature shape).
    pub fn embedding(&mut self, g: &Graph) -> Result<Tensor<T>, HapError> {
        let key = self.cache_key(g);
        self.embedding_keyed(g, key)
    }

    /// The WL cache key for `g` at this service's configured refinement
    /// depth, derived from the graph's cached WL signature — the one place
    /// this service keys a graph.
    fn cache_key(&self, g: &Graph) -> u64 {
        let sig = g.wl_signature_cached(self.cfg.wl_iterations);
        wl_cache_key_from_signature(&sig, g.n(), g.num_edges())
    }

    /// [`ModelService::embedding`] with the cache key already in hand
    /// (the update path computes old and new keys around a mutation and
    /// must not re-derive them).
    fn embedding_keyed(&mut self, g: &Graph, key: u64) -> Result<Tensor<T>, HapError> {
        if let Some(e) = self.cache.get(key) {
            return Ok(e.clone());
        }
        let features = wire_features::<T>(g, self.in_dim);
        // Eval passes draw nothing from the RNG; a fresh fixed-seed RNG
        // keeps the signature satisfied without threading server state.
        let mut rng = Rng::from_seed(0);
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };
        let e = self.clf.try_embedding(g, &features, &mut ctx)?;
        self.cache.insert(key, e.clone());
        Ok(e)
    }

    /// Classifies one graph.
    ///
    /// # Errors
    /// [`HapError`] from the forward pass.
    pub fn classify(&mut self, g: &Graph) -> Result<Classification, HapError> {
        let e = self.embedding(g)?;
        let logits = self.clf.logits_from_embedding(&e);
        Ok(Classification {
            label: self.clf.predict_from_logits(&logits),
            logits: logits.as_slice().iter().map(|v| (*v).to_f64()).collect(),
        })
    }

    /// [`ModelService::classify`] over `graphs` in order.
    pub fn classify_batch(&mut self, graphs: &[Graph]) -> Vec<Result<Classification, HapError>> {
        graphs.iter().map(|g| self.classify(g)).collect()
    }

    /// Scores a pair of graphs by per-level euclidean distance between
    /// their hierarchy embeddings, mapped through `exp(-s·d)` with
    /// `s` = [`SIMILARITY_SCALE`], the scale `HapMatcher` trains with.
    ///
    /// # Errors
    /// [`HapError`] from either forward pass.
    pub fn similarity(&mut self, a: &Graph, b: &Graph) -> Result<Similarity, HapError> {
        let ea = self.embedding(a)?;
        let eb = self.embedding(b)?;
        let (sa, sb) = (ea.as_slice(), eb.as_slice());
        debug_assert_eq!(sa.len(), self.levels * self.hidden);
        let mut per_level = Vec::with_capacity(self.levels);
        for l in 0..self.levels {
            let lo = l * self.hidden;
            let hi = lo + self.hidden;
            // Accumulate in the model's own dtype (the same order and
            // precision its forward pass used), widen only at the end.
            let d2: f64 = sa[lo..hi]
                .iter()
                .zip(&sb[lo..hi])
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum::<T>()
                .to_f64();
            per_level.push((-SIMILARITY_SCALE * d2.sqrt()).exp());
        }
        let mean = per_level.iter().sum::<f64>() / per_level.len() as f64;
        Ok(Similarity { per_level, mean })
    }

    /// Number of output classes of the loaded head.
    pub fn classes(&self) -> usize {
        self.clf.classes()
    }

    /// Top-`k` most-similar corpus graphs for `g` via the retrieval
    /// cascade. The query embedding goes through the same WL-keyed
    /// cache as `/classify`, so repeated or isomorphic queries skip the
    /// forward pass entirely. `k` is clamped to
    /// `[1, min(MAX_SEARCH_K, corpus size)]` — the wire layer bounds it
    /// by `MAX_SEARCH_K` only, so a valid request can still ask for more
    /// neighbours than a small corpus holds. `budget` defaults to the
    /// configured cascade budget and is clamped to `[k, corpus size]`
    /// *after* `k` is bounded, so the range is never inverted; `rerank`
    /// reorders the shortlist by exact (Hungarian-bounded) graph edit
    /// distance against regenerated corpus graphs.
    ///
    /// # Errors
    /// A client-facing message when search is disabled or the forward
    /// pass rejects the graph.
    pub fn search(
        &mut self,
        g: &Graph,
        k: usize,
        budget: Option<usize>,
        rerank: bool,
    ) -> Result<SearchResult, String> {
        if self.search.is_none() {
            return Err("search is not enabled on this server".to_string());
        }
        let e = self.embedding(g).map_err(|e| e.to_string())?;
        let concat: Vec<f64> = e.cast::<f64>().row(0).to_vec();
        let state = self.search.as_ref().expect("checked above");
        let q = hap_retrieval::QueryEmbedding::from_concat(
            g,
            &concat,
            state.index.hidden(),
            state.index.levels(),
            state.index.config().wl_iterations,
        )
        .map_err(|e| e.to_string())?;
        // `corpus` is ≥ 1 (search is only enabled for a non-empty
        // corpus); clamping `k` by it first keeps the budget range
        // `[k, corpus]` well-formed even when the client asks for more
        // neighbours than the corpus holds — `Ord::clamp` with an
        // inverted range would panic and take the model thread with it.
        let corpus = state.index.len().max(1);
        let k = k.clamp(1, MAX_SEARCH_K.min(corpus));
        let budget = budget.unwrap_or(self.cfg.search_budget).clamp(k, corpus);
        let (hits, report) = {
            let _t = hap_obs::time_scope("retrieval.cascade");
            state.index.cascade(&q, k, budget)
        };
        // The cascade's prune counts, for `/metrics`: every scanned entry
        // is skipped at one of the two filters or gets a coarse distance,
        // and only entries in visited buckets can get one.
        hap_obs::add("retrieval.scanned", state.index.len() as u64);
        hap_obs::add("retrieval.visited", report.visited as u64);
        hap_obs::add(
            "retrieval.skipped_size_degree",
            report.skipped_size_degree as u64,
        );
        hap_obs::add("retrieval.skipped_wl", report.skipped_wl as u64);
        hap_obs::add("retrieval.coarse_evals", report.coarse_evals as u64);
        hap_obs::add("retrieval.refined", report.refined as u64);
        let hits = if rerank {
            // The rerank must see the *current* graphs: mutated slots
            // come from the streaming overlay, untouched ones are
            // regenerated from the seed corpus.
            state.index.rerank_ged_with(
                |id| {
                    state
                        .overlay
                        .get(&id)
                        .cloned()
                        .unwrap_or_else(|| state.corpus.graph(id))
                },
                g,
                &hits,
                hap_ged::GedMethod::Hungarian,
                &hap_ged::EditCosts::uniform(),
            )
        } else {
            hits
        };
        Ok(SearchResult {
            hits,
            budget,
            reranked: rerank,
        })
    }

    /// Applies an atomic batch of edge ops to corpus graph `id`, then —
    /// if anything actually changed — re-embeds the mutated graph and
    /// rewrites its index slot in place ([`GraphIndex::update_entry`];
    /// no index rebuild), evicting the now-stale WL-keyed cache entry.
    /// [`Graph::apply`] drops the graph's derived caches, so the re-embed
    /// rebuilds its CSR Â and WL signature from scratch. A batch in which
    /// every op is a bit-level no-op returns with `reembedded: false` and
    /// touches neither the cache nor the index.
    ///
    /// Validation happens before any mutation: a rejected request
    /// leaves the service state exactly as it was.
    ///
    /// [`GraphIndex::update_entry`]: hap_retrieval::GraphIndex::update_entry
    ///
    /// # Errors
    /// A client-facing message when search is disabled, `id` is out of
    /// range, or any op is malformed (self-loop, endpoint out of range,
    /// non-finite or non-positive weight, empty or oversized batch).
    pub fn update(&mut self, id: usize, ops: &[EdgeDelta]) -> Result<UpdateResult, String> {
        let corpus = match &self.search {
            Some(s) => s.corpus,
            None => return Err("search is not enabled on this server".to_string()),
        };
        if id >= corpus.len() {
            return Err(format!(
                "graph id {id} out of range for a corpus of {} graphs",
                corpus.len()
            ));
        }
        if ops.is_empty() {
            return Err("\"ops\" must not be empty".to_string());
        }
        if ops.len() > MAX_UPDATE_OPS {
            return Err(format!(
                "{} ops exceed the limit of {MAX_UPDATE_OPS}",
                ops.len()
            ));
        }
        // Take the graph out of the overlay (or regenerate the seed
        // graph), and put it back whatever the outcome.
        let state = self.search.as_mut().expect("checked above");
        let mut g = state
            .overlay
            .remove(&id)
            .unwrap_or_else(|| corpus.graph(id));
        let result = self.update_graph(id, &mut g, ops);
        let state = self.search.as_mut().expect("checked above");
        state.overlay.insert(id, g);
        result
    }

    /// [`ModelService::update`] on the graph of slot `id`, taken out of
    /// the overlay.
    fn update_graph(
        &mut self,
        id: usize,
        g: &mut Graph,
        ops: &[EdgeDelta],
    ) -> Result<UpdateResult, String> {
        validate_ops(ops, g.n())?;
        // The old cache key is derived before the mutation drops the
        // graph's WL signature.
        let old_key = self.cache_key(g);
        let applied = ops.iter().filter(|&&op| g.apply(op)).count();
        let mut r = UpdateResult {
            id,
            applied,
            noops: ops.len() - applied,
            n: g.n(),
            edges: g.num_edges(),
            max_degree: g.max_degree(),
            reembedded: false,
            evicted: false,
        };
        if applied == 0 {
            return Ok(r);
        }
        // Evict before re-embedding: if the mutation happens to land on
        // the same WL key (hash collision or balanced edits), removing
        // after the insert would throw the fresh entry away.
        let new_key = self.cache_key(g);
        r.evicted = self.cache.remove(old_key);
        let e = self
            .embedding_keyed(g, new_key)
            .map_err(|e| e.to_string())?;
        let concat: Vec<f64> = e.cast::<f64>().row(0).to_vec();
        let index = &mut self.search.as_mut().expect("checked by update").index;
        let q = hap_retrieval::QueryEmbedding::from_concat(
            g,
            &concat,
            index.hidden(),
            index.levels(),
            index.config().wl_iterations,
        )
        .map_err(|e| e.to_string())?;
        index.update_entry(id, &q);
        r.reembedded = true;
        Ok(r)
    }
}

/// Screens an update batch against graph size `n` before anything is
/// mutated: endpoints in range, no self-loops, upsert weights finite and
/// positive (corpus graphs are simple positive-weight graphs; a zero
/// weight would alias `Remove`, and NaN would poison every downstream
/// distance).
fn validate_ops(ops: &[EdgeDelta], n: usize) -> Result<(), String> {
    for (i, op) in ops.iter().enumerate() {
        let (u, v) = match *op {
            EdgeDelta::Upsert { u, v, w } => {
                if !(w.is_finite() && w > 0.0) {
                    return Err(format!("op {i}: weight must be finite and positive"));
                }
                (u, v)
            }
            EdgeDelta::Remove { u, v } => (u, v),
        };
        if u == v {
            return Err(format!("op {i}: self-loop ({u},{v}) is not allowed"));
        }
        if u >= n || v >= n {
            return Err(format!("op {i}: edge ({u},{v}) out of range for {n} nodes"));
        }
    }
    Ok(())
}

/// Wire-input node features in the model's element type: label one-hots
/// when the graph is labelled, degree one-hots otherwise, both built in
/// `f64` (the canonical feature path) and narrowed entrywise — one-hot
/// entries are 0/1, so the cast is exact for every dtype.
fn wire_features<T: GraphScalar>(g: &Graph, dim: usize) -> Tensor<T> {
    let f = if g.node_labels().is_some() {
        label_one_hot(g, dim)
    } else {
        degree_one_hot(g, dim)
    };
    f.cast()
}

/// Decodes the wire graph schema:
///
/// ```json
/// {"n": 4, "edges": [[0,1],[1,2],[2,3]], "labels": [0,1,1,0]}
/// ```
///
/// `n` is required; `edges` defaults to empty; `labels` (one small
/// non-negative integer per node) is optional — labelled graphs get
/// label one-hot features, unlabelled ones degree one-hots, both at the
/// snapshot's input dimension (labels are capped into range like degrees
/// are).
///
/// # Errors
/// A human-readable message for any schema violation (the caller maps it
/// to a 400).
pub fn graph_from_json(v: &Json) -> Result<Graph, String> {
    let n = v
        .get("n")
        .and_then(Json::as_usize)
        .ok_or("missing or invalid \"n\" (non-negative integer required)")?;
    if n > MAX_GRAPH_NODES {
        return Err(format!(
            "n = {n} exceeds the limit of {MAX_GRAPH_NODES} nodes"
        ));
    }
    let mut edge_list = Vec::new();
    if let Some(edges) = v.get("edges") {
        let edges = edges.as_array().ok_or("\"edges\" must be an array")?;
        if edges.len() > MAX_GRAPH_EDGES {
            return Err(format!(
                "edge list length {} exceeds the limit of {MAX_GRAPH_EDGES}",
                edges.len()
            ));
        }
        edge_list.reserve(edges.len());
        for (i, e) in edges.iter().enumerate() {
            let pair = e
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("edge {i} must be a two-element array [u, v]"))?;
            let u = pair[0]
                .as_usize()
                .ok_or_else(|| format!("edge {i}: endpoints must be non-negative integers"))?;
            let w = pair[1]
                .as_usize()
                .ok_or_else(|| format!("edge {i}: endpoints must be non-negative integers"))?;
            if u >= n || w >= n {
                return Err(format!("edge {i} = [{u}, {w}] out of range for n = {n}"));
            }
            if u == w {
                return Err(format!("edge {i} is a self-loop ([{u}, {w}])"));
            }
            edge_list.push((u, w));
        }
    }
    let mut g = Graph::from_edges(n, &edge_list);
    if let Some(labels) = v.get("labels") {
        let labels = labels.as_array().ok_or("\"labels\" must be an array")?;
        if labels.len() != n {
            return Err(format!(
                "\"labels\" has {} entries but n = {n}",
                labels.len()
            ));
        }
        let parsed: Vec<usize> = labels
            .iter()
            .map(|l| {
                l.as_usize()
                    .filter(|&l| l < MAX_GRAPH_NODES)
                    .ok_or("labels must be small non-negative integers")
            })
            .collect::<Result<_, _>>()?;
        g = g.with_node_labels(parsed);
    }
    Ok(g)
}

/// Caps out-of-range node labels so `label_one_hot` (which panics on
/// `label >= dim`) is total over wire input. Applied by the batcher
/// before embedding.
pub fn clamp_labels(g: &mut Graph, dim: usize) {
    if let Some(labels) = g.node_labels() {
        if labels.iter().any(|&l| l >= dim) {
            let capped: Vec<usize> = labels.iter().map(|&l| l.min(dim - 1)).collect();
            *g = std::mem::replace(g, Graph::empty(0)).with_node_labels(capped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_autograd::ParamStore;
    use hap_core::{HapConfig, HapModel};

    fn tiny_service() -> ModelService {
        let mut rng = Rng::from_seed(3);
        let mut store = ParamStore::<f64>::new();
        let cfg = HapConfig::new(4, 4).with_clusters(&[2]);
        let model = HapModel::new(&mut store, &cfg, &mut rng);
        let clf = HapClassifier::new(&mut store, model, 2, &mut rng);
        ModelService::new(clf, 4, 4, 1, ServiceConfig::default())
    }

    /// A tiny service with a search index over a seeded corpus — the
    /// same wiring `Batcher::spawn` performs, inlined for unit tests.
    fn search_service(corpus_len: usize) -> ModelService {
        let mut rng = Rng::from_seed(3);
        let mut store = ParamStore::<f64>::new();
        let cfg = HapConfig::new(4, 4).with_clusters(&[2]);
        let model = HapModel::new(&mut store, &cfg, &mut rng);
        let clf = HapClassifier::new(&mut store, model, 2, &mut rng);
        let snap = hap_snapshot::ModelSnapshot::capture(&cfg, 2, &store);
        let svc_cfg = ServiceConfig {
            search_corpus: corpus_len,
            ..ServiceConfig::default()
        };
        let corpus = hap_data::RetrievalCorpus::new(svc_cfg.search_seed, corpus_len);
        let index = hap_retrieval::GraphIndex::build(
            &snap,
            &corpus,
            hap_retrieval::IndexConfig {
                wl_iterations: svc_cfg.wl_iterations,
                ..hap_retrieval::IndexConfig::default()
            },
        )
        .expect("index build");
        let mut svc = ModelService::new(clf, 4, 4, 1, svc_cfg);
        svc.enable_search(SearchState::new(index, corpus));
        svc
    }

    /// One op that definitely changes corpus graph `id`: remove its
    /// first edge, or add (0,1) if it has none.
    fn flip_op(g: &Graph) -> EdgeDelta {
        match g.edges().first().copied() {
            Some((u, v)) => EdgeDelta::Remove { u, v },
            None => EdgeDelta::Upsert { u: 0, v: 1, w: 1.0 },
        }
    }

    #[test]
    fn update_rewrites_the_index_slot_and_search_tracks_it() {
        let mut svc = search_service(32);
        let mut g = svc.search.as_ref().unwrap().corpus.graph(5);
        let op = flip_op(&g);
        let r = svc.update(5, &[op]).unwrap();
        assert!(r.reembedded);
        assert_eq!((r.applied, r.noops), (1, 0));
        assert_eq!(r.id, 5);
        // Mirror the mutation locally and query with the mutated graph:
        // slot 5 must now be its own nearest neighbour at *bitwise* zero
        // distance (every term of the hybrid distance vanishes).
        assert!(g.apply(op));
        let res = svc.search(&g, 1, Some(32), false).unwrap();
        assert_eq!(res.hits[0].id, 5, "upserted slot must be its own nearest");
        assert_eq!(res.hits[0].distance.to_bits(), 0.0f64.to_bits());
        // The GED rerank consults the overlay, not the seed corpus: the
        // mutated graph's edit distance to itself is zero.
        let res = svc.search(&g, 3, Some(32), true).unwrap();
        let self_hit = res.hits.iter().find(|h| h.id == 5).expect("id 5 kept");
        assert_eq!(self_hit.distance, 0.0, "overlay graph vs itself");
        // Stats in the result reflect the mutated graph.
        assert_eq!(
            (r.n, r.edges, r.max_degree),
            (g.n(), g.num_edges(), g.max_degree())
        );
    }

    #[test]
    fn noop_update_skips_reembedding_and_eviction() {
        let mut svc = search_service(16);
        let g = svc.search.as_ref().unwrap().corpus.graph(3);
        // Find a non-adjacent pair: removing an absent edge is a
        // bit-level no-op.
        let (u, v) = (0..g.n())
            .flat_map(|u| (u + 1..g.n()).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(u, v))
            .expect("a 16-node corpus graph is not complete");
        // Warm the cache so we can observe that nothing is evicted.
        let _ = svc.search(&g, 1, None, false).unwrap();
        let hits_before = svc.cache_hits();
        let r = svc.update(3, &[EdgeDelta::Remove { u, v }]).unwrap();
        assert!(!r.reembedded);
        assert!(!r.evicted);
        assert_eq!((r.applied, r.noops), (0, 1));
        // The same query still hits the cache — nothing was invalidated.
        let _ = svc.search(&g, 1, None, false).unwrap();
        assert_eq!(
            svc.cache_hits(),
            hits_before + 1,
            "no-op must keep the entry"
        );
    }

    #[test]
    fn update_validates_before_mutating() {
        let mut svc = search_service(8);
        let n = svc.search.as_ref().unwrap().corpus.graph(2).n();
        let baseline = {
            let g = svc.search.as_ref().unwrap().corpus.graph(2);
            svc.search(&g, 3, Some(8), false).unwrap().hits
        };
        let cases: Vec<(usize, Vec<EdgeDelta>)> = vec![
            (99, vec![EdgeDelta::Remove { u: 0, v: 1 }]), // id out of range
            (2, vec![]),                                  // empty batch
            (2, vec![EdgeDelta::Upsert { u: 0, v: 0, w: 1.0 }]), // self-loop
            (2, vec![EdgeDelta::Remove { u: 0, v: n }]),  // endpoint out of range
            (
                2,
                vec![EdgeDelta::Upsert {
                    u: 0,
                    v: 1,
                    w: f64::NAN,
                }],
            ), // NaN weight
            (2, vec![EdgeDelta::Upsert { u: 0, v: 1, w: 0.0 }]), // zero weight
            // One good op after a bad one must not be half-applied.
            (
                2,
                vec![
                    EdgeDelta::Upsert { u: 0, v: 1, w: 1.0 },
                    EdgeDelta::Remove { u: 0, v: n },
                ],
            ),
        ];
        for (id, ops) in cases {
            assert!(svc.update(id, &ops).is_err(), "id {id} ops {ops:?}");
        }
        // No partial mutation leaked: the baseline query answers
        // bitwise identically.
        let g = svc.search.as_ref().unwrap().corpus.graph(2);
        let after = svc.search(&g, 3, Some(8), false).unwrap().hits;
        assert_eq!(baseline.len(), after.len());
        for (a, b) in baseline.iter().zip(&after) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
    }

    #[test]
    fn update_without_search_is_a_client_error() {
        let mut svc = tiny_service();
        let err = svc.update(0, &[EdgeDelta::Remove { u: 0, v: 1 }]);
        assert_eq!(err.unwrap_err(), "search is not enabled on this server");
    }

    #[test]
    fn graph_schema_roundtrip() {
        let v = Json::parse(r#"{"n": 3, "edges": [[0,1],[1,2]], "labels": [1,0,1]}"#).unwrap();
        let g = graph_from_json(&v).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.node_labels(), Some(&[1usize, 0, 1][..]));
    }

    #[test]
    fn graph_schema_rejections() {
        for (doc, why) in [
            (r#"{}"#, "missing n"),
            (r#"{"n": -1}"#, "negative n"),
            (r#"{"n": 100000}"#, "n over cap"),
            (r#"{"n": 2, "edges": [[0,5]]}"#, "endpoint out of range"),
            (r#"{"n": 2, "edges": [[0]]}"#, "not a pair"),
            (r#"{"n": 2, "edges": [[1,1]]}"#, "self-loop"),
            (r#"{"n": 2, "edges": 7}"#, "edges not an array"),
            (r#"{"n": 2, "labels": [0]}"#, "label count mismatch"),
            (r#"{"n": 1, "labels": [-3]}"#, "negative label"),
        ] {
            let v = Json::parse(doc).unwrap();
            assert!(graph_from_json(&v).is_err(), "{why}: {doc}");
        }
    }

    #[test]
    fn classify_hits_the_cache_on_isomorphic_graphs() {
        let mut svc = tiny_service();
        let g1 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        // Same path graph under a node relabelling.
        let g2 = Graph::from_edges(4, &[(3, 2), (2, 0), (0, 1)]);
        let a = svc.classify(&g1).unwrap();
        let b = svc.classify(&g2).unwrap();
        assert_eq!(svc.cache_hits(), 1, "isomorphic graph must hit");
        assert_eq!(svc.cache_misses(), 1);
        assert_eq!(a.label, b.label);
        assert_eq!(a.logits, b.logits, "cached path must be bit-identical");
    }

    #[test]
    fn similarity_is_one_on_self_and_falls_off() {
        let mut svc = tiny_service();
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let h = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let s_self = svc.similarity(&g, &g).unwrap();
        assert!(
            (s_self.mean - 1.0).abs() < 1e-12,
            "self-similarity is exp(0)"
        );
        assert_eq!(s_self.per_level.len(), 1, "one readout per coarsener");
        let s_other = svc.similarity(&g, &h).unwrap();
        assert!(s_other.mean < s_self.mean);
        assert!(s_other.mean > 0.0);
    }

    #[test]
    fn empty_graph_is_a_typed_error_and_n1_works() {
        let mut svc = tiny_service();
        assert!(matches!(
            svc.classify(&Graph::empty(0)),
            Err(HapError::EmptyGraph)
        ));
        let c = svc.classify(&Graph::empty(1)).unwrap();
        assert!(c.label < 2);
        assert_eq!(c.logits.len(), 2);
    }

    #[test]
    fn classify_batch_is_bitwise_equal_to_sequential_classify() {
        let graphs = [
            Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]),
            Graph::empty(1),
            Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]),
            Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]),
        ];
        let mut seq = tiny_service();
        let expected: Vec<Classification> =
            graphs.iter().map(|g| seq.classify(g).unwrap()).collect();
        let mut batched = tiny_service();
        let got = batched.classify_batch(&graphs);
        assert_eq!(got.len(), graphs.len());
        for (e, g) in expected.iter().zip(&got) {
            let g = g.as_ref().unwrap();
            assert_eq!(e.label, g.label);
            let eb: Vec<u64> = e.logits.iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u64> = g.logits.iter().map(|v| v.to_bits()).collect();
            assert_eq!(eb, gb, "batched logits must be bit-identical");
        }
        assert_eq!(batched.cache_misses(), 4);
        assert_eq!(batched.cache_hits(), 0);
    }

    #[test]
    fn classify_batch_gives_per_job_errors_and_serves_the_rest() {
        let mut svc = tiny_service();
        let graphs = [
            Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]),
            Graph::empty(0),
            Graph::from_edges(3, &[(0, 1), (1, 2)]),
        ];
        let got = svc.classify_batch(&graphs);
        assert!(got[0].is_ok());
        assert!(matches!(got[1], Err(HapError::EmptyGraph)));
        assert!(got[2].is_ok());
    }

    #[test]
    fn classify_batch_dedupes_isomorphic_misses_and_hits_the_cache_after() {
        let mut svc = tiny_service();
        let g1 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        // Same path graph under a node relabelling → same WL key.
        let g2 = Graph::from_edges(4, &[(3, 2), (2, 0), (0, 1)]);
        let got = svc.classify_batch(&[g1, g2]);
        // The first graph is computed once; its relabelled copy is a cache
        // hit with bit-identical logits.
        assert_eq!((svc.cache_misses(), svc.cache_hits()), (1, 1));
        let bits = |c: &Result<Classification, HapError>| -> Vec<u64> {
            let c = c.as_ref().unwrap();
            c.logits.iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&got[0]), bits(&got[1]));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut svc = tiny_service();
        assert!(svc.classify_batch(&[]).is_empty());
        assert_eq!(svc.cache_misses(), 0);
    }

    #[test]
    fn f32_service_classifies_and_caches() {
        let mut rng = Rng::from_seed(3);
        let mut store = ParamStore::<f32>::new();
        let cfg = HapConfig::new(4, 4).with_clusters(&[2]);
        let model = HapModel::new(&mut store, &cfg, &mut rng);
        let clf = HapClassifier::new(&mut store, model, 2, &mut rng);
        let mut svc = ModelService::new(clf, 4, 4, 1, ServiceConfig::default());
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let a = svc.classify(&g).unwrap();
        assert_eq!(a.logits.len(), 2);
        assert!(a.logits.iter().all(|l| l.is_finite()));
        let b = svc.classify(&g).unwrap();
        assert_eq!(svc.cache_hits(), 1);
        assert_eq!(a.logits, b.logits, "cached f32 path must be bit-identical");
        let s = svc.similarity(&g, &g).unwrap();
        assert!((s.mean - 1.0).abs() < 1e-6, "f32 self-similarity ~ 1");
    }

    #[test]
    fn clamp_labels_makes_wire_labels_total() {
        let mut g = Graph::empty(2).with_node_labels(vec![0, 99]);
        clamp_labels(&mut g, 4);
        assert_eq!(g.node_labels(), Some(&[0usize, 3][..]));
        assert_eq!(g.n(), 2, "graph structure preserved");
    }
}
