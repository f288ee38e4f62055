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
//! index keeps, per graph:
//!
//! - `n` and `max_degree` in parallel `u32` arrays;
//! - a 128-bit set of its WL colours (bit `colour mod 128`), kept beside
//!   its id in its bucket (below) — the cascade's O(1) lower bound on the
//!   WL term;
//! - the compact WL histogram's `(hash, count)` pairs in a slot of `n`
//!   pairs of one flat buffer, with the row's length beside it. A 1-WL
//!   histogram has at most one colour per node and an edit never changes
//!   `n`, so [`GraphIndex::update_entry`] rewrites the slot in place;
//! - the embeddings as flat `f64` row-major buffers — the coarse (last)
//!   level contiguous for the hot scan, each finer level in its own
//!   buffer touched only for cascade survivors.
//!
//! Each scan shard also groups its ids into buckets keyed by
//! `(n, max_degree)`: every member of a bucket has the same size/degree
//! prefix, so the cascade bounds and orders whole buckets at once.

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
    pub max_degree: u32,
}

impl GraphStats {
    pub fn of(g: &Graph) -> Self {
        Self {
            n: g.n() as u32,
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

impl StatWeights {
    /// `w_size·|Δn| + w_degree·|Δmaxdeg|`, the stat prefix ahead of the
    /// WL term. The exhaustive scan and the cascade's buckets both
    /// compute it here, so their sums stay bitwise equal.
    pub(crate) fn size_degree(&self, q: &GraphStats, n: u32, max_degree: u32) -> f64 {
        let dn = (f64::from(q.n) - f64::from(n)).abs();
        let dd = (f64::from(q.max_degree) - f64::from(max_degree)).abs();
        self.size * dn + self.degree * dd
    }

    /// `size_deg + w_wl·l1`: the stat term for the WL L1 `l1`, or a lower
    /// bound on it for a lower bound `l1`, since the same operations on
    /// a smaller integer never round to a larger sum.
    pub(crate) fn stat(&self, size_deg: f64, l1: u64) -> f64 {
        size_deg + self.wl * l1 as f64
    }
}

/// The graphs of one scan shard that share `(n, max_degree)`, ids
/// ascending, each with the set of its WL colours beside it.
#[derive(Clone, Debug)]
pub(crate) struct Bucket {
    pub(crate) n: u32,
    pub(crate) max_degree: u32,
    pub(crate) ids: Vec<u32>,
    /// `colours[j]` has bit `colour mod 128` set for each WL colour of
    /// graph `ids[j]`.
    pub(crate) colours: Vec<u128>,
}

impl Bucket {
    fn key(&self) -> (u32, u32) {
        (self.n, self.max_degree)
    }
}

/// The corpus-scale retrieval index. See the module docs for layout.
pub struct GraphIndex {
    cfg: IndexConfig,
    len: usize,
    hidden: usize,
    levels: usize,
    weights: StatWeights,
    pub(crate) nodes: Vec<u32>,
    pub(crate) max_deg: Vec<u32>,
    /// Per graph, `(start, len)` of its WL row: the slot holds `nodes[i]`
    /// pairs from `start`, of which the first `len` are the histogram.
    wl_slots: Vec<(u32, u32)>,
    wl_hashes: Vec<u64>,
    wl_counts: Vec<u32>,
    /// Per scan shard, its `(n, max_degree)` buckets in key order.
    buckets: Vec<Vec<Bucket>>,
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
            max_deg: Vec::with_capacity(len),
            wl_slots: Vec::with_capacity(len),
            wl_hashes: Vec::new(),
            wl_counts: Vec::new(),
            buckets: Vec::new(),
            coarse: Vec::with_capacity(len * hidden),
            // Not `vec![Vec::with_capacity(..); n]`: `Vec::clone` copies
            // contents (len 0), not capacity, so all but the template
            // buffer would start empty and reallocate while assembling.
            fine: (0..levels - 1)
                .map(|_| Vec::with_capacity(len * hidden))
                .collect(),
        };
        let mut colours = Vec::with_capacity(len);
        for out in outs {
            if let Some(err) = out.error {
                return Err(err);
            }
            for ((stats, wl), concat) in out.stats.into_iter().zip(out.wl).zip(out.concat) {
                index.nodes.push(stats.n);
                index.max_deg.push(stats.max_degree);
                colours.push(colour_set(&wl));
                // A 1-WL histogram has at most one colour per node, so an
                // `n`-pair slot holds every later histogram of the graph.
                let start = index.wl_hashes.len();
                assert!(
                    wl.len() <= stats.n as usize,
                    "a 1-WL histogram has at most one colour per node"
                );
                index.wl_slots.push((
                    u32::try_from(start).expect("WL slots fit in u32 offsets"),
                    wl.len() as u32,
                ));
                index.wl_hashes.extend(wl.iter().map(|&(h, _)| h));
                index.wl_counts.extend(wl.iter().map(|&(_, c)| c));
                index.wl_hashes.resize(start + stats.n as usize, 0);
                index.wl_counts.resize(start + stats.n as usize, 0);
                let (fines, coarse) = concat.split_at((levels - 1) * hidden);
                index.coarse.extend_from_slice(coarse);
                for (l, row) in fines.chunks(hidden).enumerate() {
                    index.fine[l].extend_from_slice(row);
                }
            }
        }
        debug_assert_eq!(index.nodes.len(), len);

        index.buckets = index.bucket_shards(&colours);
        index.weights = index.calibrate_weights(corpus.seed());
        Ok(index)
    }

    /// Groups each scan shard's ids into `(n, max_degree)` buckets, in
    /// key order with ids ascending; `colours[i]` is graph `i`'s colour
    /// set.
    fn bucket_shards(&self, colours: &[u128]) -> Vec<Vec<Bucket>> {
        let shard = self.cfg.shard_size.max(1);
        (0..self.len.div_ceil(shard).max(1))
            .map(|si| {
                let lo = si * shard;
                let hi = (lo + shard).min(self.len);
                let mut keyed: Vec<(u32, u32, u32)> = (lo..hi)
                    .map(|i| {
                        let id = u32::try_from(i).expect("graph ids fit in u32");
                        (self.nodes[i], self.max_deg[i], id)
                    })
                    .collect();
                keyed.sort_unstable();
                let mut buckets: Vec<Bucket> = Vec::new();
                for (n, max_degree, id) in keyed {
                    let set = colours[id as usize];
                    match buckets.last_mut() {
                        Some(b) if b.key() == (n, max_degree) => {
                            b.ids.push(id);
                            b.colours.push(set);
                        }
                        _ => buckets.push(Bucket {
                            n,
                            max_degree,
                            ids: vec![id],
                            colours: vec![set],
                        }),
                    }
                }
                buckets
            })
            .collect()
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

    /// Shard `shard`'s `(n, max_degree)` buckets, in key order.
    pub(crate) fn buckets(&self, shard: usize) -> &[Bucket] {
        &self.buckets[shard]
    }

    pub(crate) fn wl_row(&self, i: usize) -> (&[u64], &[u32]) {
        let (start, len) = self.wl_slots[i];
        let (lo, hi) = (start as usize, (start + len) as usize);
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
    pub(crate) fn stat(&self, q: &QueryEmbedding, i: usize) -> f64 {
        let w = &self.weights;
        let (hashes, counts) = self.wl_row(i);
        w.stat(
            w.size_degree(&q.stats, self.nodes[i], self.max_deg[i]),
            wl_l1_split(&q.wl, hashes, counts),
        )
    }

    /// Full retrieval distance `D(q, i)` with the canonical addition
    /// order; the exhaustive scan and the cascade's refine stage both
    /// go through the partial sums this returns.
    pub(crate) fn full_distance(&self, q: &QueryEmbedding, i: usize) -> f64 {
        let stat = self.stat(q, i);
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
    /// query embedding — the streaming upsert path (`POST /update`).
    /// Every column is overwritten where it lies: the WL histogram goes
    /// into the graph's `n`-pair slot (an edit never changes `n`, and a
    /// 1-WL histogram has at most `n` colours), so no later entry moves.
    /// When `max_degree` changes, the id moves to its new
    /// `(n, max_degree)` bucket, which is created if missing and dropped
    /// once empty. No rebuild, no recalibration: the stat weights are
    /// constants of the distance function fixed at build time, so
    /// admissibility of the cascade's bounds is unaffected.
    ///
    /// # Panics
    /// Panics, before writing anything, when `id` is out of range, the
    /// embedding's level count or hidden width disagree with the index,
    /// `q.stats.n` differs from the graph's stored node count, or the WL
    /// histogram does not count each of those nodes exactly once.
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
        let n = self.nodes[id];
        assert_eq!(
            q.stats.n, n,
            "update_entry: graph {id} has {n} nodes; an update may not change n"
        );
        assert!(
            q.wl.len() <= n as usize && histogram_nodes(&q.wl) == u64::from(n),
            "update_entry: the WL histogram must count each of the {n} nodes once"
        );
        self.rebucket(id, q.stats.max_degree, colour_set(&q.wl));
        let (start, _) = self.wl_slots[id];
        let lo = start as usize;
        let hi = lo + q.wl.len();
        for ((h, c), &(qh, qc)) in self.wl_hashes[lo..hi]
            .iter_mut()
            .zip(&mut self.wl_counts[lo..hi])
            .zip(&q.wl)
        {
            (*h, *c) = (qh, qc);
        }
        self.wl_slots[id].1 = q.wl.len() as u32;
        self.coarse[id * self.hidden..(id + 1) * self.hidden]
            .copy_from_slice(&q.levels[self.levels - 1]);
        for l in 0..self.levels - 1 {
            self.fine[l][id * self.hidden..(id + 1) * self.hidden].copy_from_slice(&q.levels[l]);
        }
    }

    /// Stores graph `id`'s colour set and moves it to the
    /// `(n, max_degree)` bucket when its maximum degree changed, keeping
    /// key and id order; a bucket left empty is dropped.
    fn rebucket(&mut self, id: usize, max_degree: u32, colours: u128) {
        let n = self.nodes[id];
        let old = (n, self.max_deg[id]);
        let shard = &mut self.buckets[id / self.cfg.shard_size.max(1)];
        // Build checked that every id fits in u32.
        let id32 = id as u32;
        let b = shard
            .binary_search_by_key(&old, Bucket::key)
            .expect("every graph sits in its (n, max_degree) bucket");
        let at = shard[b]
            .ids
            .binary_search(&id32)
            .expect("every graph sits in its (n, max_degree) bucket");
        if old.1 == max_degree {
            shard[b].colours[at] = colours;
            return;
        }
        shard[b].ids.remove(at);
        shard[b].colours.remove(at);
        if shard[b].ids.is_empty() {
            shard.remove(b);
        }
        let b = match shard.binary_search_by_key(&(n, max_degree), Bucket::key) {
            Ok(b) => b,
            Err(b) => {
                shard.insert(
                    b,
                    Bucket {
                        n,
                        max_degree,
                        ids: Vec::new(),
                        colours: Vec::new(),
                    },
                );
                b
            }
        };
        let at = shard[b].ids.partition_point(|&x| x < id32);
        shard[b].ids.insert(at, id32);
        shard[b].colours.insert(at, colours);
        self.max_deg[id] = max_degree;
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

/// The set of a WL histogram's colours as 128 bits, bit `colour mod 128`
/// (colours with a zero count are absent). A bit set on one side only
/// marks at least one colour present on that side alone, each adding at
/// least 1 to the L1, so `popcount(a ⊕ b)` never exceeds
/// [`wl_l1_split`]'s value; colliding colours only clear bits.
pub(crate) fn colour_set(wl: &[(u64, u32)]) -> u128 {
    wl.iter()
        .filter(|&&(_, c)| c > 0)
        .fold(0, |set, &(h, _)| set | 1 << (h % 128))
}

/// The number of nodes a WL histogram counts: `n` for a graph's own
/// histogram.
pub(crate) fn histogram_nodes(wl: &[(u64, u32)]) -> u64 {
    wl.iter().map(|&(_, c)| u64::from(c)).sum()
}

/// A lower bound on the WL L1 between two histograms, from their
/// [`colour_set`]s and the difference `dn` of their
/// [`histogram_nodes`]: the L1 is at least each of `popcount(a ⊕ b)` and
/// `dn`, but not their sum.
pub(crate) fn wl_floor(a: u128, b: u128, dn: u64) -> u64 {
    u64::from((a ^ b).count_ones()).max(dn)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A random histogram over a 40-colour pool in which colours
    /// `c`, `c + 128` and `c + 256` collide mod 128.
    fn random_histogram(rng: &mut Rng) -> Vec<(u64, u32)> {
        let mut wl: Vec<(u64, u32)> = (0..rng.gen_range(0..12usize))
            .map(|_| {
                let base = rng.gen_range(0..10u64) * 13;
                let colour = base + 128 * rng.gen_range(0..4u64);
                (colour, rng.gen_range(1..6u32))
            })
            .collect();
        wl.sort_unstable();
        wl.dedup_by_key(|e| e.0);
        wl
    }

    #[test]
    fn colour_and_size_floors_never_exceed_the_wl_l1() {
        let mut rng = Rng::from_seed(0xC010);
        let mut collided = 0;
        for _ in 0..2000 {
            let (a, b) = (random_histogram(&mut rng), random_histogram(&mut rng));
            let hashes: Vec<u64> = b.iter().map(|&(h, _)| h).collect();
            let counts: Vec<u32> = b.iter().map(|&(_, c)| c).collect();
            let l1 = wl_l1_split(&a, &hashes, &counts);
            let pop = u64::from((colour_set(&a) ^ colour_set(&b)).count_ones());
            assert!(pop <= l1, "popcount {pop} > L1 {l1} for {a:?} vs {b:?}");
            let dn = histogram_nodes(&a).abs_diff(histogram_nodes(&b));
            assert!(dn <= l1, "|Δn| {dn} > L1 {l1} for {a:?} vs {b:?}");
            let floor = wl_floor(colour_set(&a), colour_set(&b), dn);
            assert!(floor <= l1, "floor {floor} > L1 {l1} for {a:?} vs {b:?}");
            let distinct: std::collections::BTreeSet<u64> =
                a.iter().chain(&b).map(|&(h, _)| h).collect();
            let bits: std::collections::BTreeSet<u64> = distinct.iter().map(|h| h % 128).collect();
            collided += usize::from(bits.len() < distinct.len());
        }
        assert!(
            collided > 100,
            "only {collided} pairs had colliding colours"
        );
    }
}
