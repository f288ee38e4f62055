//! The retrieval index: per-level HAP embeddings, WL histograms, and
//! size/degree stats over a seeded corpus, laid out struct-of-arrays.
//!
//! ## Retrieval distance
//!
//! The index ranks corpus graphs by a hybrid distance with only
//! non-negative terms:
//!
//! ```text
//! D(q, g) = stat(q, g) + ‖Δe_coarse‖₂ + Σ_l ‖Δe_fine_l‖₂
//! stat(q, g) = w_size·|Δn| + w_degree·|Δmaxdeg| + w_wl·L1(WL_q, WL_g)
//! ```
//!
//! Because every term is ≥ 0, any *prefix* of the sum is an admissible
//! lower bound on D — that is what makes the cascade's filters exact
//! (see [`crate::cascade`]): skipping a graph whose prefix already
//! exceeds the worst retained candidate can never evict a true top-k
//! member. The additions are performed in one fixed left-to-right order
//! everywhere (stats, then coarse, then each finer level), so the
//! cascade's staged accumulation is *bitwise* equal to the exhaustive
//! scan's.
//!
//! ## Storage layout
//!
//! Corpus graphs are never stored (see
//! [`hap_data::RetrievalCorpus`] — they regenerate on demand). The
//! index keeps, per graph: `(n, edges, max_degree)` in parallel `u32`
//! arrays, the compact WL histogram `(hash, count)` pairs in one flat
//! buffer with an offsets array, and the embeddings as flat `f64`
//! row-major buffers — the coarse (last) level contiguous for the hot
//! scan, each finer level in its own buffer touched only for cascade
//! survivors.

use crate::RetrievalError;
use hap_core::HapClassifier;
use hap_data::RetrievalCorpus;
use hap_graph::{wl_signature, Graph, GraphScalar};
use hap_pooling::PoolCtx;
use hap_rand::Rng;
use hap_snapshot::ModelSnapshot;
use hap_tensor::Tensor;

/// Index construction and query-side knobs.
#[derive(Clone, Debug)]
pub struct IndexConfig {
    /// 1-WL refinement rounds for the histogram filter (matches
    /// hap-serve's cache key depth).
    pub wl_iterations: usize,
    /// Graphs per parallel build chunk (one batched forward per chunk).
    pub chunk: usize,
    /// Graphs per scan shard. Shard boundaries are a pure function of
    /// corpus length — never thread count — so scans are byte-identical
    /// at any `HAP_THREADS`.
    pub shard_size: usize,
}

/// Seeded corpus pairs sampled to calibrate the stat-term weights.
const CALIBRATION_PAIRS: usize = 256;

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            wl_iterations: 3,
            chunk: 64,
            shard_size: 16384,
        }
    }
}

/// Size/degree summary of one graph — the cheapest filter tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphStats {
    pub n: u32,
    pub edges: u32,
    pub max_degree: u32,
}

impl GraphStats {
    pub fn of(g: &Graph) -> Self {
        Self {
            n: g.n() as u32,
            edges: g.num_edges() as u32,
            max_degree: g.max_degree() as u32,
        }
    }
}

/// A query prepared for the index: stats, compact WL histogram, and the
/// per-level embedding rows (same level order the model emits —
/// finest first, coarsest last).
#[derive(Clone, Debug)]
pub struct QueryEmbedding {
    pub stats: GraphStats,
    pub wl: Vec<(u64, u32)>,
    /// One `hidden`-wide row per coarsening level, finest → coarsest.
    pub levels: Vec<Vec<f64>>,
}

impl QueryEmbedding {
    /// Assembles a query from a graph and its *concatenated*
    /// hierarchical embedding (the `1×(levels·hidden)` row
    /// [`HapClassifier::try_embeddings`] produces and hap-serve
    /// caches), splitting it back into per-level rows.
    pub fn from_concat(
        g: &Graph,
        concat: &[f64],
        hidden: usize,
        levels: usize,
        wl_iterations: usize,
    ) -> Result<Self, RetrievalError> {
        if concat.len() != hidden * levels {
            return Err(RetrievalError::EmbeddingShape {
                expected: hidden * levels,
                got: concat.len(),
            });
        }
        Ok(Self {
            stats: GraphStats::of(g),
            // Served from the graph's cached WL signature, which the
            // serve path has already computed for the cache key.
            wl: g.wl_signature_cached(wl_iterations).entries().to_vec(),
            levels: concat.chunks(hidden).map(<[f64]>::to_vec).collect(),
        })
    }
}

/// Calibrated stat-term weights.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatWeights {
    pub size: f64,
    pub degree: f64,
    pub wl: f64,
}

/// The corpus-scale retrieval index. See the module docs for layout.
pub struct GraphIndex {
    cfg: IndexConfig,
    len: usize,
    hidden: usize,
    levels: usize,
    weights: StatWeights,
    nodes: Vec<u32>,
    edges: Vec<u32>,
    max_deg: Vec<u32>,
    wl_offsets: Vec<u32>,
    wl_hashes: Vec<u64>,
    wl_counts: Vec<u32>,
    /// Coarsest-level rows, `len × hidden` row-major.
    coarse: Vec<f64>,
    /// Finer levels (finest first), each `len × hidden` row-major.
    fine: Vec<Vec<f64>>,
}

/// One chunk's build output, written into a disjoint slot of the
/// chunk-output vector by its worker.
struct ChunkOut {
    stats: Vec<GraphStats>,
    wl: Vec<Vec<(u64, u32)>>,
    /// Concatenated `levels·hidden` embedding per graph.
    concat: Vec<Vec<f64>>,
    error: Option<RetrievalError>,
}

impl GraphIndex {
    /// Embeds the whole corpus through the batched block-diagonal
    /// forward in parallel chunks and assembles the SoA index.
    ///
    /// Chunk boundaries are a pure function of `(corpus.len(), cfg.chunk)`
    /// and each chunk's outputs land in a disjoint pre-allocated slot,
    /// then a sequential pass assembles them in chunk order — so the
    /// built index is byte-identical at any `HAP_THREADS`. The model's
    /// `Rc`-bound parameters cannot cross threads, so every chunk task
    /// rebuilds its own classifier replica from the snapshot.
    pub fn build<T: GraphScalar>(
        snapshot: &ModelSnapshot<T>,
        corpus: &RetrievalCorpus,
        cfg: IndexConfig,
    ) -> Result<Self, RetrievalError> {
        let len = corpus.len();
        let hidden = snapshot.config.hidden;
        let levels = snapshot.config.cluster_sizes.len().max(1);
        let chunk = cfg.chunk.max(1);
        let num_chunks = len.div_ceil(chunk).max(1);

        let mut outs: Vec<ChunkOut> = (0..num_chunks)
            .map(|_| ChunkOut {
                stats: Vec::new(),
                wl: Vec::new(),
                concat: Vec::new(),
                error: None,
            })
            .collect();

        hap_par::par_chunks_mut(&mut outs, 1, |ci, slot| {
            let out = &mut slot[0];
            let lo = ci * chunk;
            let hi = (lo + chunk).min(len);
            *out = embed_chunk(snapshot, corpus, lo, hi, cfg.wl_iterations, hidden, levels);
        });

        let mut index = GraphIndex {
            cfg,
            len,
            hidden,
            levels,
            weights: StatWeights::default(),
            nodes: Vec::with_capacity(len),
            edges: Vec::with_capacity(len),
            max_deg: Vec::with_capacity(len),
            wl_offsets: Vec::with_capacity(len + 1),
            wl_hashes: Vec::new(),
            wl_counts: Vec::new(),
            coarse: Vec::with_capacity(len * hidden),
            // Not `vec![Vec::with_capacity(..); n]`: `Vec::clone` copies
            // contents (len 0), not capacity, so all but the template
            // buffer would start empty and reallocate while assembling.
            fine: (0..levels - 1)
                .map(|_| Vec::with_capacity(len * hidden))
                .collect(),
        };
        index.wl_offsets.push(0);
        for out in outs {
            if let Some(err) = out.error {
                return Err(err);
            }
            for ((stats, wl), concat) in out.stats.into_iter().zip(out.wl).zip(out.concat) {
                index.nodes.push(stats.n);
                index.edges.push(stats.edges);
                index.max_deg.push(stats.max_degree);
                for (h, c) in wl {
                    index.wl_hashes.push(h);
                    index.wl_counts.push(c);
                }
                index.wl_offsets.push(index.wl_hashes.len() as u32);
                let (fines, coarse) = concat.split_at((levels - 1) * hidden);
                index.coarse.extend_from_slice(coarse);
                for (l, row) in fines.chunks(hidden).enumerate() {
                    index.fine[l].extend_from_slice(row);
                }
            }
        }
        debug_assert_eq!(index.nodes.len(), len);

        index.weights = index.calibrate_weights(corpus.seed());
        Ok(index)
    }

    /// Derives stat weights so the cheap filter terms live on the same
    /// scale as the coarse embedding distance: each weight is
    /// `ratio · mean(coarse distance) / mean(stat delta)` over a seeded
    /// sample of corpus pairs. Purely sequential and seeded, so the
    /// weights (and hence every query result) are reproducible.
    fn calibrate_weights(&self, seed: u64) -> StatWeights {
        // Fewer than two graphs give no pair to sample: the stat terms
        // stay off.
        if self.len < 2 {
            return StatWeights::default();
        }
        let mut rng = Rng::from_seed(seed).fork("retrieval-calibrate");
        let (mut sum_coarse, mut sum_dn, mut sum_dd, mut sum_dwl) = (0.0, 0.0, 0.0, 0.0);
        for _ in 0..CALIBRATION_PAIRS {
            let a = rng.gen_range(0..self.len);
            let b = rng.gen_range(0..self.len);
            if a == b {
                continue;
            }
            sum_coarse += l2_distance(self.coarse_row(a), self.coarse_row(b));
            sum_dn += (f64::from(self.nodes[a]) - f64::from(self.nodes[b])).abs();
            sum_dd += (f64::from(self.max_deg[a]) - f64::from(self.max_deg[b])).abs();
            let (ha, ca) = self.wl_row(a);
            let pairs_a: Vec<(u64, u32)> = ha.iter().copied().zip(ca.iter().copied()).collect();
            let (hb, cb) = self.wl_row(b);
            sum_dwl += wl_l1_split(&pairs_a, hb, cb) as f64;
        }
        // ratio · mean_coarse / mean_delta, with 0-guard: a stat that
        // never varies across the sample gets weight 0 (it cannot
        // discriminate anyway).
        let scale = |ratio: f64, sum_delta: f64| {
            if sum_delta > 0.0 {
                ratio * sum_coarse / sum_delta
            } else {
                0.0
            }
        };
        // The stat ratios deliberately dominate the embedding terms:
        // size/degree/WL agreement is what makes two graphs retrieval
        // neighbours, and a dominant cheap prefix is what lets stage 1
        // reject most of the corpus before any WL merge or embedding
        // distance. The coarse/fine terms then rank within the
        // structurally similar survivors.
        StatWeights {
            size: scale(6.0, sum_dn),
            degree: scale(2.0, sum_dd),
            wl: scale(2.0, sum_dwl),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn hidden(&self) -> usize {
        self.hidden
    }

    pub fn levels(&self) -> usize {
        self.levels
    }

    pub fn config(&self) -> &IndexConfig {
        &self.cfg
    }

    pub fn weights(&self) -> StatWeights {
        self.weights
    }

    pub(crate) fn stats_row(&self, i: usize) -> GraphStats {
        GraphStats {
            n: self.nodes[i],
            edges: self.edges[i],
            max_degree: self.max_deg[i],
        }
    }

    pub(crate) fn wl_row(&self, i: usize) -> (&[u64], &[u32]) {
        let lo = self.wl_offsets[i] as usize;
        let hi = self.wl_offsets[i + 1] as usize;
        (&self.wl_hashes[lo..hi], &self.wl_counts[lo..hi])
    }

    pub(crate) fn coarse_row(&self, i: usize) -> &[f64] {
        &self.coarse[i * self.hidden..(i + 1) * self.hidden]
    }

    pub(crate) fn fine_row(&self, level: usize, i: usize) -> &[f64] {
        &self.fine[level][i * self.hidden..(i + 1) * self.hidden]
    }

    /// `stat(q, i)` — the cheapest admissible prefix of the retrieval
    /// distance, accumulated in the fixed order size → degree → WL.
    pub(crate) fn stat_terms(&self, q: &QueryEmbedding, i: usize) -> (f64, f64) {
        let dn = (f64::from(q.stats.n) - f64::from(self.nodes[i])).abs();
        let dd = (f64::from(q.stats.max_degree) - f64::from(self.max_deg[i])).abs();
        let size_deg = self.weights.size * dn + self.weights.degree * dd;
        let (hashes, counts) = self.wl_row(i);
        let dwl = wl_l1_split(&q.wl, hashes, counts) as f64;
        (size_deg, size_deg + self.weights.wl * dwl)
    }

    /// Full retrieval distance `D(q, i)` with the canonical addition
    /// order; the exhaustive scan and the cascade's refine stage both
    /// go through the partial sums this returns.
    pub(crate) fn full_distance(&self, q: &QueryEmbedding, i: usize) -> f64 {
        let (_, stat) = self.stat_terms(q, i);
        let coarse = stat + l2_distance(&q.levels[self.levels - 1], self.coarse_row(i));
        self.refine_from(q, i, coarse)
    }

    /// Adds the finer-level distances (finest first) onto an
    /// already-accumulated `stat + coarse` prefix.
    pub(crate) fn refine_from(&self, q: &QueryEmbedding, i: usize, mut acc: f64) -> f64 {
        for l in 0..self.levels - 1 {
            acc += l2_distance(&q.levels[l], self.fine_row(l, i));
        }
        acc
    }

    /// Prepares a query graph via an already-built classifier (the
    /// bench path; hap-serve goes through [`QueryEmbedding::from_concat`]
    /// with its cached concatenated embedding instead).
    pub fn embed_query<T: GraphScalar>(
        &self,
        clf: &HapClassifier<T>,
        g: &Graph,
        features: &Tensor<T>,
    ) -> Result<QueryEmbedding, RetrievalError> {
        let mut rng = Rng::from_seed(0);
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };
        let emb = clf
            .try_embeddings(&[(g, features)], &mut ctx)
            .map_err(|e| RetrievalError::Embedding(e.to_string()))?;
        let concat: Vec<f64> = emb[0].cast::<f64>().row(0).to_vec();
        QueryEmbedding::from_concat(g, &concat, self.hidden, self.levels, self.cfg.wl_iterations)
    }

    /// Rewrites graph `id`'s SoA slot in place from a freshly prepared
    /// query embedding — the streaming upsert path (`POST /update`). The
    /// fixed-width columns (stats, coarse and fine rows) are overwritten
    /// directly; the variable-width WL row is spliced into the flat
    /// hash/count buffers with the later offsets shifted. No rebuild, no
    /// recalibration: the stat weights are constants of the distance
    /// function fixed at build time, so admissibility of the cascade's
    /// prefix bounds is unaffected.
    ///
    /// # Panics
    /// Panics when `id` is out of range or the embedding's level count /
    /// hidden width disagree with the index.
    pub fn update_entry(&mut self, id: usize, q: &QueryEmbedding) {
        assert!(
            id < self.len,
            "update_entry: id {id} out of range for {} graphs",
            self.len
        );
        assert_eq!(
            q.levels.len(),
            self.levels,
            "update_entry: level count mismatch"
        );
        for row in &q.levels {
            assert_eq!(
                row.len(),
                self.hidden,
                "update_entry: hidden width mismatch"
            );
        }
        self.nodes[id] = q.stats.n;
        self.edges[id] = q.stats.edges;
        self.max_deg[id] = q.stats.max_degree;
        let lo = self.wl_offsets[id] as usize;
        let hi = self.wl_offsets[id + 1] as usize;
        let delta = q.wl.len() as i64 - (hi - lo) as i64;
        self.wl_hashes.splice(lo..hi, q.wl.iter().map(|&(h, _)| h));
        self.wl_counts.splice(lo..hi, q.wl.iter().map(|&(_, c)| c));
        if delta != 0 {
            for off in &mut self.wl_offsets[id + 1..] {
                *off = (i64::from(*off) + delta) as u32;
            }
        }
        self.coarse[id * self.hidden..(id + 1) * self.hidden]
            .copy_from_slice(&q.levels[self.levels - 1]);
        for l in 0..self.levels - 1 {
            self.fine[l][id * self.hidden..(id + 1) * self.hidden].copy_from_slice(&q.levels[l]);
        }
    }
}

/// Embeds corpus indices `lo..hi` with a fresh classifier replica (the
/// model's parameters are `Rc`-bound and cannot be shared across the
/// pool's threads).
fn embed_chunk<T: GraphScalar>(
    snapshot: &ModelSnapshot<T>,
    corpus: &RetrievalCorpus,
    lo: usize,
    hi: usize,
    wl_iterations: usize,
    hidden: usize,
    levels: usize,
) -> ChunkOut {
    let mut out = ChunkOut {
        stats: Vec::with_capacity(hi - lo),
        wl: Vec::with_capacity(hi - lo),
        concat: Vec::with_capacity(hi - lo),
        error: None,
    };
    let (_store, clf) = match snapshot.build_classifier() {
        Ok(pair) => pair,
        Err(e) => {
            out.error = Some(RetrievalError::Snapshot(e.to_string()));
            return out;
        }
    };
    let graphs: Vec<Graph> = (lo..hi).map(|i| corpus.graph(i)).collect();
    // Corpus graphs are unlabelled by construction, so degree one-hots
    // at the snapshot's input width are exactly the features hap-serve's
    // wire path (`wire_features`) builds for a query — index and query
    // embeddings stay comparable for any snapshot architecture.
    let in_dim = snapshot.config.in_dim;
    let feats: Vec<Tensor<T>> = graphs
        .iter()
        .map(|g| hap_graph::degree_one_hot(g, in_dim).cast())
        .collect();
    let items: Vec<(&Graph, &Tensor<T>)> = graphs.iter().zip(feats.iter()).collect();
    // Eval passes draw no randomness; the seed only fixes construction.
    let mut rng = Rng::from_seed(0);
    let mut ctx = PoolCtx {
        training: false,
        rng: &mut rng,
    };
    let embs = match clf.try_embeddings(&items, &mut ctx) {
        Ok(e) => e,
        Err(e) => {
            out.error = Some(RetrievalError::Embedding(e.to_string()));
            return out;
        }
    };
    debug_assert_eq!(embs.len(), hi - lo);
    for (g, emb) in graphs.iter().zip(embs) {
        out.stats.push(GraphStats::of(g));
        out.wl
            .push(wl_signature(g, wl_iterations).entries().to_vec());
        let row: Vec<f64> = emb.cast::<f64>().row(0).to_vec();
        debug_assert_eq!(row.len(), hidden * levels);
        out.concat.push(row);
    }
    out
}

/// Euclidean distance with a fixed sequential accumulation order.
pub(crate) fn l2_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc.sqrt()
}

/// Multiset L1 between a query's `(hash, count)` pairs and an index
/// row's split hash/count slices (both sorted by hash) — the same merge
/// as [`hap_graph::WlSignature::l1_distance`], specialised to the SoA
/// layout.
pub(crate) fn wl_l1_split(q: &[(u64, u32)], hashes: &[u64], counts: &[u32]) -> u64 {
    let (mut i, mut j) = (0, 0);
    let mut total = 0u64;
    while i < q.len() && j < hashes.len() {
        match q[i].0.cmp(&hashes[j]) {
            std::cmp::Ordering::Less => {
                total += u64::from(q[i].1);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                total += u64::from(counts[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                total += u64::from(q[i].1.abs_diff(counts[j]));
                i += 1;
                j += 1;
            }
        }
    }
    while i < q.len() {
        total += u64::from(q[i].1);
        i += 1;
    }
    while j < hashes.len() {
        total += u64::from(counts[j]);
        j += 1;
    }
    total
}
