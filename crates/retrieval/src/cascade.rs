//! The staged query cascade and its exhaustive-scan oracle.
//!
//! ## Stages
//!
//! 1. **Admissible filters** — per corpus graph, accumulate the cheap
//!    prefix of the retrieval distance (size/degree, then WL-histogram
//!    L1). If a prefix already reaches the worst candidate retained so
//!    far, the graph *provably* cannot enter the candidate heap — the
//!    remaining terms are all ≥ 0 — so its embedding distance is never
//!    computed. Skipping via a prefix bound is exactly equivalent to
//!    computing the full stage-2 bound and rejecting it, which is the
//!    admissibility property the test suite checks.
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
//! ## Determinism
//!
//! Shard boundaries are `cfg.shard_size`-sized slices of `0..len` —
//! a pure function of corpus length, never of `HAP_THREADS`. Each
//! shard is scanned sequentially in index order by one task, shard
//! results land in disjoint slots, and the merge walks shards in
//! order; ties break by `(total_cmp(distance), id)`. Results are
//! therefore byte-identical at any thread count.
//!
//! With `budget ≥ len`, no candidate is ever discarded, so the cascade
//! degenerates to the exhaustive scan *exactly* (bitwise — both paths
//! accumulate the same additions in the same order). Recall loss at
//! smaller budgets comes only from the bounded heap, never from the
//! filters.

use crate::index::{GraphIndex, QueryEmbedding};
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
/// skipped. `skipped_* + coarse_evals == index.len()`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CascadeReport {
    /// Graphs rejected on the size/degree prefix alone.
    pub skipped_size_degree: usize,
    /// Graphs rejected after adding the WL-histogram term.
    pub skipped_wl: usize,
    /// Graphs whose coarse embedding distance was computed.
    pub coarse_evals: usize,
    /// Candidates refined with finer-level distances.
    pub refined: usize,
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

    /// The staged cascade: admissible filters → bounded coarse scan →
    /// refine the best `budget` candidates → top-`k`. See the module
    /// docs for the determinism and exactness contracts.
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
        hap_par::par_chunks_mut(&mut shards, 1, |si, slot| {
            let lo = si * shard;
            let hi = (lo + shard).min(self.len());
            let mut heap = BoundedHeap::new(budget);
            let mut report = CascadeReport::default();
            let w = self.weights();
            for i in lo..hi {
                // Stage 1: prefix bounds, cheapest first. A prefix that
                // already fails the admission threshold proves the full
                // bound would fail it too (remaining terms are >= 0), so
                // the skip is exactly equivalent to computing the full
                // bound and having the heap reject it — including on
                // ties, because `rejected` uses the heap's own
                // `(total_cmp, id)` order.
                let row = self.stats_row(i);
                let dn = (f64::from(q.stats.n) - f64::from(row.n)).abs();
                let dd = (f64::from(q.stats.max_degree) - f64::from(row.max_degree)).abs();
                let size_deg = w.size * dn + w.degree * dd;
                if rejected(heap.threshold(), size_deg, i) {
                    report.skipped_size_degree += 1;
                    continue;
                }
                let (hashes, counts) = self.wl_row(i);
                let dwl = crate::index::wl_l1_split(&q.wl, hashes, counts) as f64;
                let stat = size_deg + w.wl * dwl;
                if rejected(heap.threshold(), stat, i) {
                    report.skipped_wl += 1;
                    continue;
                }
                // Stage 2: coarse embedding distance onto the prefix.
                report.coarse_evals += 1;
                let bound = stat + crate::index::l2_distance(coarse_q, self.coarse_row(i));
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
