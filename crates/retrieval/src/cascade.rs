//! The staged query cascade and its exhaustive-scan oracle.
//!
//! ## Stages
//!
//! 1. **Best-first bucket walk** — each shard's `(n, max_degree)`
//!    buckets are visited in ascending order of a lower bound every
//!    member's stat term shares: `w_size·|Δn| + w_degree·|Δd| +
//!    w_wl·|Δn|` (the WL L1 between two histograms is never below the
//!    difference of their node counts). The walk stops at the first
//!    bucket whose bound is strictly greater than the worst candidate
//!    retained so far: the threshold only falls and later bounds never
//!    fall, so every entry left would fail it too. Within a bucket, each
//!    graph first meets an O(1) pre-bound on the WL term,
//!    `w_wl·max(popcount(q ⊕ g), |Δn|)` over 128-bit colour sets, and
//!    only then the WL-histogram merge. A graph whose bound already
//!    reaches the threshold *provably* cannot enter the candidate heap —
//!    the remaining terms are all ≥ 0 — so its embedding distance is
//!    never computed.
//! 2. **Coarse scan** — survivors get the coarsest-level embedding
//!    distance added; a bounded heap of `budget` candidates is kept per
//!    shard, ordered by this `stat + coarse` lower bound.
//! 3. **Refine** — shard heaps are merged sequentially in shard order,
//!    truncated to `budget`, and the finer-level distances are added
//!    (same left-to-right order as the exhaustive scan) to produce the
//!    full distance; the best `k` are returned.
//! 4. **Optional exact rerank** — [`rerank_ged`] regenerates the
//!    shortlist's graphs from the corpus and reorders by
//!    [`hap_ged::batch_ged`].
//!
//! ## Why a skip is exactly a rejection
//!
//! Every bound is computed with the same operations, in the same order,
//! as the stat term it bounds, on integers no larger than the ones the
//! stat term uses, and IEEE rounding is monotone — so each bound is at
//! most the `stat + coarse` value the heap would be offered. Each skip
//! compares that bound with the heap's own `(total_cmp, id)` threshold,
//! so a skipped graph is one the heap would have rejected. A shard's
//! final heap therefore holds its `budget` smallest `(bound, id)` items
//! whatever order the walk visits them in, and the answers are the ones
//! an id-order scan of every graph gives, at any budget.
//!
//! ## Determinism
//!
//! Shard boundaries are `cfg.shard_size`-sized slices of `0..len` —
//! a pure function of corpus length, never of `HAP_THREADS`. Each
//! shard is walked sequentially by one task in an order fixed by the
//! query and the index, shard results land in disjoint slots, and the
//! merge walks shards in order; ties break by `(total_cmp(distance),
//! id)`. Results and work counts are therefore byte-identical at any
//! thread count.
//!
//! With `budget ≥ len`, no candidate is ever discarded, so the cascade
//! degenerates to the exhaustive scan *exactly* (bitwise — both paths
//! accumulate the same additions in the same order). Recall loss at
//! smaller budgets comes only from the bounded heap, never from the
//! filters.

use crate::index::{
    colour_set, histogram_nodes, l2_distance, wl_floor, wl_l1_split, Bucket, GraphIndex,
    QueryEmbedding, StatWeights,
};
use hap_data::RetrievalCorpus;
use hap_ged::{batch_ged, EditCosts, GedMethod};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One retrieved graph: corpus id + retrieval distance (or GED after
/// [`GraphIndex::rerank_ged`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    pub id: usize,
    pub distance: f64,
}

/// Work counters for one cascade query — what the pruning actually
/// skipped. `skipped_* + coarse_evals == index.len()` and
/// `coarse_evals ≤ visited ≤ index.len()`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CascadeReport {
    /// Graphs in buckets the walk never reached: their bucket's
    /// size/degree/`|Δn|` bound failed the threshold.
    pub skipped_size_degree: usize,
    /// Graphs in walked buckets rejected by the colour pre-bound or the
    /// WL-histogram term.
    pub skipped_wl: usize,
    /// Graphs whose coarse embedding distance was computed.
    pub coarse_evals: usize,
    /// Candidates refined with finer-level distances.
    pub refined: usize,
    /// Graphs in the buckets the walk visited.
    pub visited: usize,
}

/// Max-heap entry: the *worst* retained candidate is at the top so it
/// can be evicted in O(log budget). Ordering is `(total_cmp(distance),
/// id)` — total over NaN and deterministic on ties.
#[derive(Clone, Copy, Debug)]
struct HeapItem {
    distance: f64,
    id: usize,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        self.distance
            .total_cmp(&other.distance)
            .then(self.id.cmp(&other.id))
    }
}

/// A bounded best-`cap` collector over (distance, id) pairs.
struct BoundedHeap {
    cap: usize,
    heap: BinaryHeap<HeapItem>,
}

impl BoundedHeap {
    fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            heap: BinaryHeap::with_capacity(cap.clamp(1, 65536) + 1),
        }
    }

    /// The current admission threshold: a new item must beat this to
    /// enter. `None` while the heap still has room.
    fn threshold(&self) -> Option<HeapItem> {
        if self.heap.len() == self.cap {
            self.heap.peek().copied()
        } else {
            None
        }
    }

    fn push(&mut self, item: HeapItem) {
        if self.heap.len() < self.cap {
            self.heap.push(item);
        } else if item < *self.heap.peek().expect("cap >= 1") {
            self.heap.pop();
            self.heap.push(item);
        }
    }

    fn into_sorted(self) -> Vec<HeapItem> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }
}

impl GraphIndex {
    /// Ground-truth top-`k`: computes the full retrieval distance for
    /// every corpus graph. Sharded and parallel exactly like the
    /// cascade (and byte-identical at any `HAP_THREADS`), but with no
    /// filtering and every level's distance always computed — the
    /// baseline the cascade's speedup is measured against.
    pub fn exhaustive(&self, q: &QueryEmbedding, k: usize) -> Vec<Neighbor> {
        let shard = self.config().shard_size.max(1);
        let num_shards = self.len().div_ceil(shard).max(1);
        let mut shards: Vec<Vec<HeapItem>> = vec![Vec::new(); num_shards];
        hap_par::par_chunks_mut(&mut shards, 1, |si, slot| {
            let lo = si * shard;
            let hi = (lo + shard).min(self.len());
            let mut heap = BoundedHeap::new(k);
            for i in lo..hi {
                heap.push(HeapItem {
                    distance: self.full_distance(q, i),
                    id: i,
                });
            }
            slot[0] = heap.into_sorted();
        });
        merge_shards(shards, k)
            .into_iter()
            .map(|h| Neighbor {
                id: h.id,
                distance: h.distance,
            })
            .collect()
    }

    /// The staged cascade: best-first bucket walk with admissible
    /// filters → bounded coarse scan → refine the best `budget`
    /// candidates → top-`k`. See the module docs for the determinism and
    /// exactness contracts.
    pub fn cascade(
        &self,
        q: &QueryEmbedding,
        k: usize,
        budget: usize,
    ) -> (Vec<Neighbor>, CascadeReport) {
        let budget = budget.max(k).max(1);
        let shard = self.config().shard_size.max(1);
        let num_shards = self.len().div_ceil(shard).max(1);
        let mut shards: Vec<(Vec<HeapItem>, CascadeReport)> =
            vec![(Vec::new(), CascadeReport::default()); num_shards];
        let coarse_q = &q.levels[self.levels() - 1];
        // The query's colour set, and the node count its WL histogram
        // covers: the WL L1 is never below the difference of two
        // histograms' node counts.
        let (q_colours, q_nodes) = (colour_set(&q.wl), histogram_nodes(&q.wl));
        hap_par::par_chunks_mut(&mut shards, 1, |si, slot| {
            let lo = si * shard;
            let hi = (lo + shard).min(self.len());
            let w = self.weights();
            let buckets = self.buckets(si);
            let mut order: Vec<(f64, usize)> = buckets
                .iter()
                .enumerate()
                .map(|(bi, b)| {
                    let (size_deg, dn) = bucket_prefix(&w, q, q_nodes, b);
                    (w.stat(size_deg, dn), bi)
                })
                .collect();
            order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

            let mut heap = BoundedHeap::new(budget);
            let mut report = CascadeReport::default();
            for (bound, bi) in order {
                // Later buckets' bounds are no smaller and the threshold
                // only falls, so once a bound fails it for every id, the
                // walk is done.
                if heap
                    .threshold()
                    .is_some_and(|t| bound.total_cmp(&t.distance).is_gt())
                {
                    break;
                }
                let bucket = &buckets[bi];
                let (size_deg, dn) = bucket_prefix(&w, q, q_nodes, bucket);
                report.visited += bucket.ids.len();
                for (&id, &colours) in bucket.ids.iter().zip(&bucket.colours) {
                    let i = id as usize;
                    // Stage 1: bounds on the WL term, cheapest first.
                    // Each is compared with the heap's own `(total_cmp,
                    // id)` threshold, so a skip is exactly the rejection
                    // the heap would have performed on the full stage-2
                    // bound.
                    let floor = wl_floor(q_colours, colours, dn);
                    if rejected(heap.threshold(), w.stat(size_deg, floor), i) {
                        report.skipped_wl += 1;
                        continue;
                    }
                    let (hashes, counts) = self.wl_row(i);
                    let stat = w.stat(size_deg, wl_l1_split(&q.wl, hashes, counts));
                    if rejected(heap.threshold(), stat, i) {
                        report.skipped_wl += 1;
                        continue;
                    }
                    // Stage 2: coarse embedding distance onto the prefix.
                    report.coarse_evals += 1;
                    heap.push(HeapItem {
                        distance: stat + l2_distance(coarse_q, self.coarse_row(i)),
                        id: i,
                    });
                }
            }
            report.skipped_size_degree = hi - lo - report.visited;
            slot[0] = (heap.into_sorted(), report);
        });

        let mut report = CascadeReport::default();
        let mut shard_lists = Vec::with_capacity(num_shards);
        for (list, r) in shards {
            report.skipped_size_degree += r.skipped_size_degree;
            report.skipped_wl += r.skipped_wl;
            report.coarse_evals += r.coarse_evals;
            report.visited += r.visited;
            shard_lists.push(list);
        }
        let candidates = merge_shards(shard_lists, budget);

        // Stage 3: refine the surviving candidates with the finer
        // levels, continuing the same accumulation the bound started.
        report.refined = candidates.len();
        let mut refined = BoundedHeap::new(k);
        for c in candidates {
            refined.push(HeapItem {
                distance: self.refine_from(q, c.id, c.distance),
                id: c.id,
            });
        }
        let top = refined
            .into_sorted()
            .into_iter()
            .map(|h| Neighbor {
                id: h.id,
                distance: h.distance,
            })
            .collect();
        (top, report)
    }

    /// Stage 4: exact rerank of a shortlist by graph edit distance.
    /// Regenerates the shortlist's graphs from the corpus (the index
    /// stores none) and reorders by `batch_ged`, tie-broken by id.
    pub fn rerank_ged(
        &self,
        corpus: &RetrievalCorpus,
        query: &hap_graph::Graph,
        shortlist: &[Neighbor],
        method: GedMethod,
        costs: &EditCosts,
    ) -> Vec<Neighbor> {
        self.rerank_ged_with(|id| corpus.graph(id), query, shortlist, method, costs)
    }

    /// [`GraphIndex::rerank_ged`] with an arbitrary graph source — the
    /// streaming serve path passes a lookup that consults its mutated
    /// overlay before falling back to corpus regeneration, so reranks
    /// see the *current* graphs, not the seed ones.
    pub fn rerank_ged_with<F: Fn(usize) -> hap_graph::Graph>(
        &self,
        lookup: F,
        query: &hap_graph::Graph,
        shortlist: &[Neighbor],
        method: GedMethod,
        costs: &EditCosts,
    ) -> Vec<Neighbor> {
        let graphs: Vec<hap_graph::Graph> = shortlist.iter().map(|n| lookup(n.id)).collect();
        let pairs: Vec<(&hap_graph::Graph, &hap_graph::Graph)> =
            graphs.iter().map(|g| (query, g)).collect();
        let costs_out = batch_ged(&pairs, method, costs);
        let mut out: Vec<Neighbor> = shortlist
            .iter()
            .zip(costs_out)
            .map(|(n, d)| Neighbor {
                id: n.id,
                distance: d,
            })
            .collect();
        out.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        out
    }
}

/// The stat prefix every member of bucket `b` shares for query `q`, and
/// the floor `|Δn|` of its WL term; `q_nodes` is the node count `q`'s WL
/// histogram covers.
fn bucket_prefix(w: &StatWeights, q: &QueryEmbedding, q_nodes: u64, b: &Bucket) -> (f64, u64) {
    (
        w.size_degree(&q.stats, b.n, b.max_degree),
        q_nodes.abs_diff(u64::from(b.n)),
    )
}

/// Whether a lower bound `distance` for graph `id` already fails the
/// heap's admission threshold (`None` = heap not yet full, admit).
fn rejected(threshold: Option<HeapItem>, distance: f64, id: usize) -> bool {
    threshold.is_some_and(|t| HeapItem { distance, id } >= t)
}

/// Sequential merge of per-shard sorted candidate lists, in shard
/// order, truncated to the best `cap` overall.
fn merge_shards(shards: Vec<Vec<HeapItem>>, cap: usize) -> Vec<HeapItem> {
    let mut all: Vec<HeapItem> = Vec::with_capacity(shards.iter().map(Vec::len).sum());
    for list in shards {
        all.extend(list);
    }
    all.sort_unstable();
    all.truncate(cap);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::GraphStats;
    use crate::IndexConfig;
    use hap_autograd::ParamStore;
    use hap_core::{HapClassifier, HapConfig, HapModel};
    use hap_rand::{Rng, SliceRandom};
    use hap_snapshot::ModelSnapshot;
    use std::collections::BTreeSet;

    /// Each shard's scan order, given its id range.
    type ScanOrder = dyn Fn(usize, usize) -> Vec<usize> + Sync;

    /// The cascade as it was before the bucket walk, kept verbatim as the
    /// oracle except that each shard scans `order(lo, hi)` instead of
    /// `lo..hi`: every graph in turn meets the size/degree prefix, then
    /// the WL merge, then the coarse distance.
    fn linear_cascade(
        index: &GraphIndex,
        q: &QueryEmbedding,
        k: usize,
        budget: usize,
        order: &ScanOrder,
    ) -> (Vec<Neighbor>, CascadeReport) {
        let budget = budget.max(k).max(1);
        let shard = index.config().shard_size.max(1);
        let num_shards = index.len().div_ceil(shard).max(1);
        let mut shards: Vec<(Vec<HeapItem>, CascadeReport)> =
            vec![(Vec::new(), CascadeReport::default()); num_shards];
        let coarse_q = &q.levels[index.levels() - 1];
        hap_par::par_chunks_mut(&mut shards, 1, |si, slot| {
            let lo = si * shard;
            let hi = (lo + shard).min(index.len());
            let mut heap = BoundedHeap::new(budget);
            let mut report = CascadeReport::default();
            let w = index.weights();
            for i in order(lo, hi) {
                let row = GraphStats {
                    n: index.nodes[i],
                    max_degree: index.max_deg[i],
                };
                let dn = (f64::from(q.stats.n) - f64::from(row.n)).abs();
                let dd = (f64::from(q.stats.max_degree) - f64::from(row.max_degree)).abs();
                let size_deg = w.size * dn + w.degree * dd;
                if rejected(heap.threshold(), size_deg, i) {
                    report.skipped_size_degree += 1;
                    continue;
                }
                let (hashes, counts) = index.wl_row(i);
                let dwl = crate::index::wl_l1_split(&q.wl, hashes, counts) as f64;
                let stat = size_deg + w.wl * dwl;
                if rejected(heap.threshold(), stat, i) {
                    report.skipped_wl += 1;
                    continue;
                }
                report.coarse_evals += 1;
                let bound = stat + crate::index::l2_distance(coarse_q, index.coarse_row(i));
                heap.push(HeapItem {
                    distance: bound,
                    id: i,
                });
            }
            slot[0] = (heap.into_sorted(), report);
        });

        let mut report = CascadeReport::default();
        let mut shard_lists = Vec::with_capacity(num_shards);
        for (list, r) in shards {
            report.skipped_size_degree += r.skipped_size_degree;
            report.skipped_wl += r.skipped_wl;
            report.coarse_evals += r.coarse_evals;
            shard_lists.push(list);
        }
        let candidates = merge_shards(shard_lists, budget);
        report.refined = candidates.len();
        let mut refined = BoundedHeap::new(k);
        for c in candidates {
            refined.push(HeapItem {
                distance: index.refine_from(q, c.id, c.distance),
                id: c.id,
            });
        }
        let top = refined
            .into_sorted()
            .into_iter()
            .map(|h| Neighbor {
                id: h.id,
                distance: h.distance,
            })
            .collect();
        (top, report)
    }

    fn id_order(lo: usize, hi: usize) -> Vec<usize> {
        (lo..hi).collect()
    }

    /// A seeded shuffle of each shard, different per shard.
    fn shuffled_order(lo: usize, hi: usize) -> Vec<usize> {
        let mut ids: Vec<usize> = (lo..hi).collect();
        ids.shuffle(&mut Rng::from_seed(0x5EED ^ lo as u64));
        ids
    }

    const LEN: usize = 700;
    /// Not a divisor of `LEN`, and above the largest partial budget so
    /// the shard heaps fill and prune.
    const SHARD: usize = 256;
    const K: usize = 10;

    fn snapshot() -> ModelSnapshot {
        let mut rng = Rng::from_seed(3);
        let mut store = ParamStore::<f64>::new();
        let cfg = HapConfig::new(hap_data::CORPUS_FEATURE_DIM, 8).with_clusters(&[8, 4, 2]);
        let model = HapModel::new(&mut store, &cfg, &mut rng);
        let _clf = HapClassifier::new(&mut store, model, 2, &mut rng);
        ModelSnapshot::capture(&cfg, 2, &store)
    }

    fn build(snap: &ModelSnapshot, corpus: &RetrievalCorpus) -> GraphIndex {
        let cfg = IndexConfig {
            shard_size: SHARD,
            chunk: 64,
            ..IndexConfig::default()
        };
        GraphIndex::build(snap, corpus, cfg).expect("index build")
    }

    /// 64 graphs from a disjoint corpus seed plus 16 corpus members, whose
    /// own slots (and any duplicates) tie at the top.
    fn queries(
        index: &GraphIndex,
        snap: &ModelSnapshot,
        corpus: &RetrievalCorpus,
    ) -> Vec<QueryEmbedding> {
        let (_store, clf) = snap.build_classifier().expect("classifier");
        let qcorpus = RetrievalCorpus::new(corpus.seed() ^ 0xABCD, 64);
        let outside = (0..64).map(|i| qcorpus.graph(i));
        let members = (0..16).map(|i| corpus.graph(i * 43 % corpus.len()));
        outside
            .chain(members)
            .map(|g| {
                let f = corpus.features::<f64>(&g);
                index.embed_query(&clf, &g, &f).expect("query embedding")
            })
            .collect()
    }

    fn assert_same(a: &[Neighbor], b: &[Neighbor], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id, "{what}: id");
            assert_eq!(
                x.distance.to_bits(),
                y.distance.to_bits(),
                "{what}: distance bits of id {}",
                x.id
            );
        }
    }

    /// The bucket walk against the id-order and shuffled-order oracles at
    /// budgets `k`, `2k`, 64, 128 and `len`, returning the top `k` and,
    /// with `k = budget`, every candidate the shard heaps kept.
    fn assert_walk_matches_oracles(index: &GraphIndex, qs: &[QueryEmbedding]) {
        for (qi, q) in qs.iter().enumerate() {
            for budget in [K, 2 * K, 64, 128, index.len()] {
                for k in [K, budget] {
                    let what = format!("query {qi} budget {budget} k {k}");
                    let (got, report) = index.cascade(q, k, budget);
                    let (linear, linear_report) = linear_cascade(index, q, k, budget, &id_order);
                    let (shuffled, _) = linear_cascade(index, q, k, budget, &shuffled_order);
                    assert_same(&got, &linear, &format!("{what}, id order"));
                    assert_same(&got, &shuffled, &format!("{what}, shuffled order"));
                    assert_eq!(report.refined, linear_report.refined, "{what}: refined");
                    assert_eq!(
                        report.skipped_size_degree + report.skipped_wl + report.coarse_evals,
                        index.len(),
                        "{what}: every graph accounted for"
                    );
                    assert!(
                        report.coarse_evals <= report.visited && report.visited <= index.len(),
                        "{what}: coarse_evals <= visited <= len"
                    );
                }
            }
        }
    }

    #[test]
    fn bucket_walk_matches_id_order_and_shuffled_scans() {
        let snap = snapshot();
        let corpus = RetrievalCorpus::new(19, LEN);
        let index = build(&snap, &corpus);
        let qs = queries(&index, &snap, &corpus);
        assert!(qs.len() >= 64);
        assert_walk_matches_oracles(&index, &qs);
        // The walk must actually stop early somewhere, or the test shows
        // only the exhaustive case.
        let (_, report) = index.cascade(&qs[0], K, K);
        assert!(report.visited < index.len(), "the walk never stopped");
    }

    #[test]
    fn bucket_and_colour_bounds_never_exceed_a_members_stat_term() {
        let snap = snapshot();
        let corpus = RetrievalCorpus::new(19, LEN);
        let index = build(&snap, &corpus);
        let w = index.weights();
        for (qi, q) in queries(&index, &snap, &corpus).iter().enumerate() {
            let (q_colours, q_nodes) = (colour_set(&q.wl), histogram_nodes(&q.wl));
            for si in 0..LEN.div_ceil(SHARD) {
                for b in index.buckets(si) {
                    let (size_deg, dn) = bucket_prefix(&w, q, q_nodes, b);
                    let bound = w.stat(size_deg, dn);
                    for (&id, &colours) in b.ids.iter().zip(&b.colours) {
                        let pre = w.stat(size_deg, wl_floor(q_colours, colours, dn));
                        let stat = index.stat(q, id as usize);
                        assert!(
                            bound.total_cmp(&pre).is_le() && pre.total_cmp(&stat).is_le(),
                            "query {qi} graph {id}: bucket {bound} <= colour {pre} <= stat {stat}"
                        );
                    }
                }
            }
        }
    }

    /// Every `(shard, n, max_degree)` bucket key.
    fn bucket_keys(index: &GraphIndex) -> BTreeSet<(usize, u32, u32)> {
        let shards = index.len().div_ceil(SHARD);
        (0..shards)
            .flat_map(|si| {
                index
                    .buckets(si)
                    .iter()
                    .map(move |b| (si, b.n, b.max_degree))
            })
            .collect()
    }

    #[test]
    fn bucket_walk_matches_oracles_after_updates_move_buckets() {
        let snap = snapshot();
        let corpus = RetrievalCorpus::new(29, LEN);
        let mut index = build(&snap, &corpus);
        let (_store, clf) = snap.build_classifier().expect("classifier");
        let before = bucket_keys(&index);
        let mut rng = Rng::from_seed(0xB0C);
        // Empty one bucket for sure: move every member of shard 0's
        // smallest bucket, then move random graphs.
        let smallest = index
            .buckets(0)
            .iter()
            .min_by_key(|b| b.ids.len())
            .expect("shard 0 has buckets");
        let mut targets: Vec<usize> = smallest.ids.iter().map(|&i| i as usize).collect();
        targets.extend((0..40).map(|_| rng.gen_range(0..LEN)));
        let mut moved = 0;
        for id in targets {
            let mut g = corpus.graph(id);
            let old = g.max_degree();
            // Add or remove edges at random until the maximum degree moves.
            while g.max_degree() == old {
                let (u, v) = (rng.gen_range(0..g.n()), rng.gen_range(0..g.n()));
                if u == v {
                    continue;
                }
                if g.has_edge(u, v) {
                    g.remove_edge(u, v);
                } else {
                    g.add_edge(u, v);
                }
            }
            let f = corpus.features::<f64>(&g);
            let q = index.embed_query(&clf, &g, &f).expect("embed edited graph");
            index.update_entry(id, &q);
            moved += 1;
            // The slot now answers its own embedding at distance zero.
            let top = index.cascade(&q, 1, K).0;
            assert_eq!(
                top[0].distance.to_bits(),
                0.0f64.to_bits(),
                "update {moved}"
            );
        }
        let after = bucket_keys(&index);
        assert!(
            before.difference(&after).next().is_some(),
            "no bucket was emptied"
        );
        assert!(
            after.difference(&before).next().is_some(),
            "no bucket was created"
        );
        for si in 0..LEN.div_ceil(SHARD) {
            let ids: Vec<u32> = index
                .buckets(si)
                .iter()
                .flat_map(|b| b.ids.iter().copied())
                .collect();
            assert_eq!(
                ids.len(),
                SHARD.min(LEN - si * SHARD),
                "shard {si} lost or gained ids"
            );
            for b in index.buckets(si) {
                assert!(b.ids.windows(2).all(|w| w[0] < w[1]), "ids ascending");
                for &i in &b.ids {
                    assert_eq!(
                        (index.nodes[i as usize], index.max_deg[i as usize]),
                        (b.n, b.max_degree)
                    );
                }
            }
        }
        let qs = queries(&index, &snap, &corpus);
        assert_walk_matches_oracles(&index, &qs);
    }
}
