//! The core undirected graph type.

use crate::wl::{wl_signature, WlSignature};
use hap_tensor::{CsrMatrix, Scalar, Tensor};
use std::sync::{Arc, OnceLock};

/// A single edge mutation for [`Graph::apply`].
///
/// `Remove` is sugar for `Upsert` with weight `0.0` — a zero weight *is*
/// edge absence, and the mutators treat the two identically.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EdgeDelta {
    /// Set the undirected edge `(u, v)` to weight `w` (insert, reweight,
    /// or — with `w == 0.0` — delete).
    Upsert {
        /// One endpoint.
        u: usize,
        /// The other endpoint (`u == v` writes the diagonal).
        v: usize,
        /// The new weight; `0.0` removes the edge.
        w: f64,
    },
    /// Remove the undirected edge `(u, v)` (a no-op when absent).
    Remove {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
}

/// An undirected weighted graph with optional discrete node labels.
///
/// # Storage
/// The adjacency `A` is held as one neighbour row per node: row `u` lists
/// `(v, A[u][v])` for every slot whose bits are not `+0.0`, in ascending
/// `v`. Memory is O(n + m), an edit costs O(deg), and every derived
/// structure (the CSR `Â`, the raw-`A` CSR, WL neighbour lists, edge
/// lists) is read off the rows in O(n + m). Rows are visited in ascending
/// column order — the order in which a dense row scan meets the non-zeros
/// — so each derived value is bitwise what the dense formulation gives
/// (ARCHITECTURE.md "CSR adjacency"). A dense `N×N` copy exists only on
/// request ([`Graph::dense_adjacency`]), for the dense pooling baselines,
/// the deeper coarsening levels' oracles and tests.
///
/// The rows are kept symmetric bit for bit by construction:
/// [`Graph::apply`] writes `(u,v)` and `(v,u)` together. Self-loops are
/// permitted (stored on the diagonal) but none of the generators create
/// them — GNN layers add their own self-connections via
/// [`Graph::csr_adjacency_cached`] (Eq. 12's `Ã = A + I`). A `-0.0`
/// weight is stored so that [`Graph::weight`] returns its bits, but it is
/// not an edge.
///
/// # Cache invalidation
/// The derived caches (the CSR Â, its `f32` cast and the WL signature)
/// are built lazily by their readers. A real edit through
/// [`Graph::apply`] (which `add_weighted_edge`/`remove_edge` delegate to)
/// drops all three, and the next reader rebuilds them from scratch, so
/// every cache is always exactly what a fresh build produces. No-op
/// mutations (same stored bits) leave every cache untouched.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Row `u`: `(v, A[u][v])` for every slot not holding `+0.0`, sorted
    /// by `v`.
    rows: Vec<Vec<(usize, f64)>>,
    node_labels: Option<Vec<usize>>,
    /// Maintained undirected edge count (self-loops count once) — kept in
    /// lockstep with `rows` by [`Graph::apply`] so [`Graph::num_edges`]
    /// is O(1).
    edge_count: usize,
    /// Maintained per-node incident-edge counts (the unweighted degrees),
    /// same lockstep contract; a row may also hold `-0.0` slots, so its
    /// length is not the degree.
    degree_table: Vec<usize>,
    /// Lazily built CSR form of `D̃^{-1/2} Ã D̃^{-1/2}` (Eq. 12), shared by
    /// every GNN layer and epoch that propagates over this graph.
    csr_cache: OnceLock<crate::csr::CsrAdjacency>,
    /// The `f32` cast of `csr_cache`'s matrix, serving [`GraphScalar`]
    /// dispatch for single-precision forwards.
    csr_f32_cache: OnceLock<Arc<CsrMatrix<f32>>>,
    /// Lazily computed 1-WL signature, with the iteration count it was
    /// refined to.
    wl_cache: OnceLock<(usize, Arc<WlSignature>)>,
}

/// Equality is structural and value-level, as for the dense matrix: a
/// `-0.0` slot equals an absent one and a NaN weight equals nothing. The
/// caches are derived state and never compared.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.n() == other.n()
            && self.node_labels == other.node_labels
            && self.rows.iter().zip(&other.rows).all(|(a, b)| {
                a.iter()
                    .filter(|e| e.1 != 0.0)
                    .eq(b.iter().filter(|e| e.1 != 0.0))
            })
    }
}

impl Graph {
    /// Assembles a graph from sorted rows, scanning them once to seed the
    /// maintained edge/degree stats.
    pub(crate) fn from_rows(rows: Vec<Vec<(usize, f64)>>, node_labels: Option<Vec<usize>>) -> Self {
        let mut edge_count = 0;
        let mut degree_table = vec![0usize; rows.len()];
        for (u, row) in rows.iter().enumerate() {
            for &(v, w) in row {
                if w != 0.0 {
                    degree_table[u] += 1;
                    if v >= u {
                        edge_count += 1;
                    }
                }
            }
        }
        Self {
            rows,
            node_labels,
            edge_count,
            degree_table,
            csr_cache: OnceLock::new(),
            csr_f32_cache: OnceLock::new(),
            wl_cache: OnceLock::new(),
        }
    }

    /// An edgeless graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        Self::from_rows(vec![Vec::new(); n], None)
    }

    /// Builds a graph on `n` nodes from an undirected edge list (unit
    /// weights; a repeated edge is stored once, `(u, u)` is a self-loop) —
    /// the graph `add_edge` over the list would give, built in one pass
    /// with each row allocated once at its final size.
    ///
    /// # Panics
    /// Panics when an endpoint is out of range
    /// (`edge (u,v) out of range for n nodes`).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut slots = vec![0usize; n];
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of range for {n} nodes");
            slots[u] += 1;
            if v != u {
                slots[v] += 1;
            }
        }
        let mut rows: Vec<Vec<(usize, f64)>> = slots.into_iter().map(Vec::with_capacity).collect();
        for &(u, v) in edges {
            rows[u].push((v, 1.0));
            if v != u {
                rows[v].push((u, 1.0));
            }
        }
        for row in &mut rows {
            row.sort_unstable_by_key(|e| e.0);
            row.dedup_by_key(|e| e.0);
        }
        Self::from_rows(rows, None)
    }

    /// Builds a graph from a dense symmetric adjacency matrix. O(n²): for
    /// tests and for callers that already hold a dense matrix.
    ///
    /// # Panics
    /// Panics when `adj` is not square or not symmetric bit for bit — the
    /// SpMM kernels take `Aᵀ = A` on trust, so an entry that differs from
    /// its mirror even in the last bit is rejected.
    pub fn from_adjacency(adj: Tensor) -> Self {
        assert_eq!(adj.rows(), adj.cols(), "adjacency matrix must be square");
        for r in 0..adj.rows() {
            for c in (r + 1)..adj.cols() {
                assert!(
                    adj[(r, c)].to_bits() == adj[(c, r)].to_bits(),
                    "adjacency must be symmetric; differs at ({r},{c})"
                );
            }
        }
        let rows = (0..adj.rows())
            .map(|r| {
                (0..adj.cols())
                    .map(|c| (c, adj[(r, c)]))
                    .filter(|e| e.1.to_bits() != 0)
                    .collect()
            })
            .collect();
        Self::from_rows(rows, None)
    }

    /// Attaches discrete node labels (consumed builder style). Labels seed
    /// WL round 0, so any cached WL signature is dropped.
    ///
    /// # Panics
    /// Panics when `labels.len() != n`.
    pub fn with_node_labels(mut self, labels: Vec<usize>) -> Self {
        assert_eq!(labels.len(), self.n(), "one label per node required");
        self.node_labels = Some(labels);
        self.wl_cache.take();
        self
    }

    /// Number of nodes `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.rows.len()
    }

    /// Number of undirected edges (self-loops count once). O(1): the count
    /// is maintained by the mutators, not rescanned.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_count
    }

    /// Adds (or overwrites) an undirected unit edge.
    ///
    /// # Panics
    /// Panics when an endpoint is out of range
    /// (`edge (u,v) out of range for n nodes`).
    pub fn add_edge(&mut self, u: usize, v: usize) {
        self.add_weighted_edge(u, v, 1.0);
    }

    /// Adds (or overwrites) an undirected weighted edge. Equivalent to
    /// [`Graph::apply`] with [`EdgeDelta::Upsert`].
    ///
    /// # Panics
    /// Panics when an endpoint is out of range
    /// (`edge (u,v) out of range for n nodes`).
    pub fn add_weighted_edge(&mut self, u: usize, v: usize, w: f64) {
        self.apply(EdgeDelta::Upsert { u, v, w });
    }

    /// Removes an edge if present (a cache-preserving no-op when absent).
    /// Equivalent to [`Graph::apply`] with [`EdgeDelta::Remove`].
    ///
    /// # Panics
    /// Panics when an endpoint is out of range
    /// (`edge (u,v) out of range for n nodes`).
    pub fn remove_edge(&mut self, u: usize, v: usize) {
        self.apply(EdgeDelta::Remove { u, v });
    }

    /// Applies one edge mutation in O(deg), keeping the edge/degree stats
    /// in step and dropping every cached derived structure (the CSR Â, its
    /// `f32` cast, the WL signature) for its next reader to rebuild.
    /// Returns `true` when the graph changed.
    ///
    /// No-op detection is bit-level: writing the weight a slot already
    /// holds (including removing an absent edge) returns `false` without
    /// touching any cache — while `0.0 → -0.0`, which compares equal but
    /// changes stored bits, counts as a change.
    ///
    /// # Panics
    /// Panics when an endpoint is out of range
    /// (`edge (u,v) out of range for n nodes`).
    pub fn apply(&mut self, delta: EdgeDelta) -> bool {
        let (u, v, w) = match delta {
            EdgeDelta::Upsert { u, v, w } => (u, v, w),
            EdgeDelta::Remove { u, v } => (u, v, 0.0),
        };
        let n = self.n();
        assert!(u < n && v < n, "edge ({u},{v}) out of range for {n} nodes");
        let slot = self.rows[u].binary_search_by_key(&v, |e| e.0);
        let old = slot.map_or(0.0, |i| self.rows[u][i].1);
        if old.to_bits() == w.to_bits() {
            return false;
        }
        write_slot(&mut self.rows[u], slot, v, w);
        if v != u {
            let mirror = self.rows[v].binary_search_by_key(&u, |e| e.0);
            write_slot(&mut self.rows[v], mirror, u, w);
        }
        let (was, is) = (old != 0.0, w != 0.0);
        if was != is {
            if is {
                self.edge_count += 1;
                self.degree_table[u] += 1;
                if v != u {
                    self.degree_table[v] += 1;
                }
            } else {
                self.edge_count -= 1;
                self.degree_table[u] -= 1;
                if v != u {
                    self.degree_table[v] -= 1;
                }
            }
        }
        self.csr_cache.take();
        self.csr_f32_cache.take();
        self.wl_cache.take();
        true
    }

    /// Whether `(u, v)` is an edge. O(log deg).
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.weight(u, v) != 0.0
    }

    /// Edge weight of `(u, v)` (`+0.0` when absent). O(log deg).
    ///
    /// # Panics
    /// Panics when an endpoint is out of range.
    pub fn weight(&self, u: usize, v: usize) -> f64 {
        let n = self.n();
        assert!(u < n && v < n, "edge ({u},{v}) out of range for {n} nodes");
        let row = &self.rows[u];
        row.binary_search_by_key(&v, |e| e.0)
            .map_or(0.0, |i| row[i].1)
    }

    /// (Weighted) degree of node `u`: the row sum of the adjacency matrix
    /// in column order, bitwise the dense row sum. Absent slots are `+0.0`
    /// terms; one of them only matters while the running sum is still
    /// `-0.0`, so a single `+0.0` added when any slot is absent stands in
    /// for all of them.
    pub fn degree(&self, u: usize) -> f64 {
        let row = &self.rows[u];
        let s: f64 = row.iter().map(|e| e.1).sum();
        if row.len() < self.n() {
            s + 0.0
        } else {
            s
        }
    }

    /// Unweighted degree: number of incident edges (self-loops count
    /// once). O(1) from the maintained degree table.
    #[inline]
    pub fn degree_count(&self, u: usize) -> usize {
        self.degree_table[u]
    }

    /// Maximum unweighted degree over all nodes (0 for the empty graph).
    /// O(n) over the maintained degree table.
    pub fn max_degree(&self) -> usize {
        self.degree_table.iter().copied().max().unwrap_or(0)
    }

    /// Neighbours of `u` in ascending order (self-loops excluded), without
    /// collecting them.
    pub(crate) fn neighbor_iter(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.rows[u]
            .iter()
            .filter(move |&&(v, w)| w != 0.0 && v != u)
            .map(|e| e.0)
    }

    /// Neighbours of `u` in ascending order (self-loops excluded).
    pub fn neighbors(&self, u: usize) -> Vec<usize> {
        self.neighbor_iter(u).collect()
    }

    /// Undirected edge list `(u, v)` with `u <= v`, sorted. O(n + m).
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.edge_count);
        for (u, row) in self.rows.iter().enumerate() {
            let upper = row.partition_point(|e| e.0 < u);
            out.extend(
                row[upper..]
                    .iter()
                    .filter(|e| e.1 != 0.0)
                    .map(|&(v, _)| (u, v)),
            );
        }
        out
    }

    /// Row `u`'s stored `(v, A[u][v])` slots in ascending `v`, `-0.0`
    /// slots included.
    pub(crate) fn row(&self, u: usize) -> &[(usize, f64)] {
        &self.rows[u]
    }

    /// A dense `N×N` copy of the adjacency `A`, bit for bit (`-0.0` slots
    /// included). O(n²) time and memory: only the dense pooling baselines,
    /// the dense oracles and tests call it.
    pub fn dense_adjacency(&self) -> Tensor {
        let n = self.n();
        let mut adj = Tensor::zeros(n, n);
        for (u, row) in self.rows.iter().enumerate() {
            let out = adj.row_mut(u);
            for &(v, w) in row {
                out[v] = w;
            }
        }
        adj
    }

    /// The raw adjacency `A` (no self-loops added) in CSR form, built from
    /// the rows in O(n + m) on every call. Symmetric bit for bit, as the
    /// rows are, so it can stand on either side of a product — HAP's
    /// level-0 `MᵀA` multiplies by it (`hap_autograd::Tape::matmul_csr`).
    pub fn adjacency_csr(&self) -> CsrMatrix {
        let stored = self.rows.iter().map(Vec::len).sum();
        CsrMatrix::from_rows(
            self.n(),
            stored,
            self.rows.iter().map(|row| row.iter().copied()),
        )
    }

    /// Node labels, when the dataset provides them.
    pub fn node_labels(&self) -> Option<&[usize]> {
        self.node_labels.as_deref()
    }

    /// Label of node `u`, when labelled.
    pub fn node_label(&self, u: usize) -> Option<usize> {
        self.node_labels.as_ref().map(|l| l[u])
    }

    /// The diagonal degree matrix `D` (dense).
    pub fn degree_matrix(&self) -> Tensor {
        let n = self.n();
        let mut d = Tensor::zeros(n, n);
        for u in 0..n {
            d[(u, u)] = self.degree(u);
        }
        d
    }

    /// The GCN propagation matrix `D̃^{-1/2} Ã D̃^{-1/2}` with
    /// `Ã = A + I` (Eq. 12), computed densely from scratch. Isolated nodes
    /// degrade gracefully: their self-loop gives `D̃_ii = 1`.
    ///
    /// Propagation never uses this matrix — it runs on
    /// [`Graph::csr_adjacency_cached`], whose values are bitwise these —
    /// so it serves as the from-scratch oracle for that cache.
    pub fn sym_norm_adjacency(&self) -> Tensor {
        let n = self.n();
        let mut a_tilde = self.dense_adjacency();
        for i in 0..n {
            a_tilde[(i, i)] += 1.0;
        }
        let inv_sqrt: Vec<f64> = (0..n)
            .map(|i| {
                let d: f64 = a_tilde.row(i).iter().sum();
                1.0 / d.sqrt()
            })
            .collect();
        for r in 0..n {
            for c in 0..n {
                a_tilde[(r, c)] *= inv_sqrt[r] * inv_sqrt[c];
            }
        }
        a_tilde
    }

    /// Cached CSR form of [`Graph::sym_norm_adjacency`] — the only cached
    /// form of `Â`, built once per graph and shared across layers and
    /// tapes via its inner `Arc`. An edit drops the graph's handle, so
    /// existing holders keep the matrix they were given.
    pub fn csr_adjacency_cached(&self) -> &crate::csr::CsrAdjacency {
        self.csr_cache
            .get_or_init(|| crate::csr::CsrAdjacency::from_graph(self))
    }

    /// `f32` cast of [`Graph::csr_adjacency_cached`]'s matrix. The cast
    /// recompresses entries that round to `0.0f32`, preserving the CSR
    /// no-stored-zero invariant — and the dense `f32` kernel skips exactly
    /// those zeros, so `f32` SpMM stays byte-identical to a dense `f32`
    /// product just like the `f64` pair.
    pub fn csr_adjacency_cached_f32(&self) -> &Arc<CsrMatrix<f32>> {
        self.csr_f32_cache
            .get_or_init(|| Arc::new(self.csr_adjacency_cached().matrix().cast()))
    }

    /// Cached 1-WL histogram at `iterations` rounds (see
    /// [`wl_signature`]). The first call computes and caches it; a call at
    /// a *different* iteration count than the cached one computes a fresh
    /// signature without disturbing the cache (one fixed count per
    /// deployment is the expected shape).
    pub fn wl_signature_cached(&self, iterations: usize) -> Arc<WlSignature> {
        let (cached_iterations, sig) = self
            .wl_cache
            .get_or_init(|| (iterations, Arc::new(wl_signature(self, iterations))));
        if *cached_iterations == iterations {
            Arc::clone(sig)
        } else {
            Arc::new(wl_signature(self, iterations))
        }
    }

    /// Row-normalised adjacency with self-loops (`D̃^{-1} Ã`, dense), the
    /// simpler mean-aggregation propagation some baselines use.
    pub fn row_norm_adjacency(&self) -> Tensor {
        let n = self.n();
        let mut a_tilde = self.dense_adjacency();
        for i in 0..n {
            a_tilde[(i, i)] += 1.0;
        }
        for r in 0..n {
            let d: f64 = a_tilde.row(r).iter().sum();
            for e in a_tilde.row_mut(r) {
                *e /= d;
            }
        }
        a_tilde
    }

    /// Induced subgraph on the listed nodes (which are renumbered
    /// `0..nodes.len()` in order). Node labels are carried along.
    ///
    /// # Panics
    /// Panics when an index is out of range or repeated.
    pub fn induced_subgraph(&self, nodes: &[usize]) -> Graph {
        let mut new_id = vec![None; self.n()];
        for (i, &u) in nodes.iter().enumerate() {
            assert!(u < self.n(), "node {u} out of range");
            assert!(
                new_id[u].is_none(),
                "duplicate node {u} in subgraph selection"
            );
            new_id[u] = Some(i);
        }
        let rows = nodes
            .iter()
            .map(|&u| {
                let mut row: Vec<(usize, f64)> = self.rows[u]
                    .iter()
                    .filter_map(|&(v, w)| new_id[v].map(|j| (j, w)))
                    .collect();
                row.sort_unstable_by_key(|e| e.0);
                row
            })
            .collect();
        let node_labels = self
            .node_labels
            .as_ref()
            .map(|l| nodes.iter().map(|&u| l[u]).collect());
        Graph::from_rows(rows, node_labels)
    }

    /// Disjoint union: `self` keeps ids `0..n`, `other` is shifted by `n`.
    /// Labels are preserved when *both* graphs are labelled, dropped
    /// otherwise.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let n1 = self.n();
        let mut rows = self.rows.clone();
        rows.extend(
            other
                .rows
                .iter()
                .map(|row| row.iter().map(|&(v, w)| (n1 + v, w)).collect()),
        );
        let node_labels = match (&self.node_labels, &other.node_labels) {
            (Some(a), Some(b)) => {
                let mut l = a.clone();
                l.extend_from_slice(b);
                Some(l)
            }
            _ => None,
        };
        Graph::from_rows(rows, node_labels)
    }
}

/// Writes `w` into `row`'s slot `v`, where `slot` is the row's binary
/// search for `v`, keeping the row sorted: a `+0.0` write removes the
/// slot, any other value inserts or overwrites it.
fn write_slot(row: &mut Vec<(usize, f64)>, slot: Result<usize, usize>, v: usize, w: f64) {
    match slot {
        Ok(i) if w.to_bits() == 0 => {
            row.remove(i);
        }
        Ok(i) => row[i].1 = w,
        Err(i) if w.to_bits() != 0 => row.insert(i, (v, w)),
        Err(_) => {}
    }
}

/// Scalar types a GNN layer can propagate a fixed [`Graph`] in.
///
/// A `Graph` stores its adjacency (and derived propagation caches) in
/// `f64`; generic layers need the same matrices in *their* element type.
/// This trait is the dtype dispatch point: `f64` serves the canonical
/// structures, `f32` their casts (the CSR `Â` cast is cached on the
/// graph). It is implemented for exactly the two [`Scalar`] types and is
/// not meant to be implemented downstream.
pub trait GraphScalar: Scalar {
    /// The cached CSR propagation matrix `D̃^{-1/2}ÃD̃^{-1/2}` in `Self`.
    fn csr_of(g: &Graph) -> &Arc<CsrMatrix<Self>>;
    /// The raw adjacency `A` (no self-loops added) as a CSR matrix in
    /// `Self`, built from the graph's rows on every call (see
    /// [`Graph::adjacency_csr`]). The `f32` form is the cast of the `f64`
    /// one, which drops entries that round to `0.0f32` as
    /// [`CsrMatrix::cast`] does.
    fn adjacency_csr_of(g: &Graph) -> CsrMatrix<Self>;
    /// A dense copy of the raw adjacency `A` in `Self` — O(n²), for the
    /// dense pooling baselines and oracles (see [`Graph::dense_adjacency`]).
    fn adjacency_of(g: &Graph) -> Tensor<Self>;
}

impl GraphScalar for f64 {
    fn csr_of(g: &Graph) -> &Arc<CsrMatrix<f64>> {
        g.csr_adjacency_cached().matrix()
    }
    fn adjacency_csr_of(g: &Graph) -> CsrMatrix<f64> {
        g.adjacency_csr()
    }
    fn adjacency_of(g: &Graph) -> Tensor<f64> {
        g.dense_adjacency()
    }
}

impl GraphScalar for f32 {
    fn csr_of(g: &Graph) -> &Arc<CsrMatrix<f32>> {
        g.csr_adjacency_cached_f32()
    }
    fn adjacency_csr_of(g: &Graph) -> CsrMatrix<f32> {
        g.adjacency_csr().cast()
    }
    fn adjacency_of(g: &Graph) -> Tensor<f32> {
        g.dense_adjacency().cast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_rand::Rng;
    use hap_tensor::testutil::assert_close;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn edge_bookkeeping() {
        let mut g = Graph::empty(4);
        assert_eq!(g.num_edges(), 0);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(g.has_edge(1, 0), "edges must be symmetric");
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), vec![0, 2]);
        assert_eq!(g.degree(1), 2.0);
        assert_eq!(g.degree_count(3), 0);
        g.remove_edge(0, 1);
        assert!(!g.has_edge(0, 1) && !g.has_edge(1, 0));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn weighted_edges_and_degree() {
        let mut g = Graph::empty(2);
        g.add_weighted_edge(0, 1, 2.5);
        assert_eq!(g.weight(1, 0), 2.5);
        assert_eq!(g.degree(0), 2.5);
        assert_eq!(g.degree_count(0), 1);
    }

    #[test]
    fn from_adjacency_rejects_asymmetry() {
        let mut a = Tensor::zeros(2, 2);
        a[(0, 1)] = 1.0;
        let res = std::panic::catch_unwind(|| Graph::from_adjacency(a));
        assert!(res.is_err());
        // A last-bit difference across the diagonal is asymmetry too: the
        // SpMM backward takes `Sᵀ = S` on trust.
        let mut a = Tensor::zeros(3, 3);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0 + 1e-12;
        let res = std::panic::catch_unwind(|| Graph::from_adjacency(a));
        assert!(res.is_err(), "a 1e-12 mismatch must be rejected");
    }

    #[test]
    fn from_edges_matches_an_add_edge_loop() {
        // The one-pass builder against the edit path, over lists with
        // repeats (both orientations), self-loops and unsorted order.
        let mut rng = Rng::from_seed(97);
        for n in [0, 1, 5, 17] {
            let edges: Vec<(usize, usize)> = (0..3 * n)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            let built = Graph::from_edges(n, &edges);
            let mut looped = Graph::empty(n);
            for &(u, v) in &edges {
                looped.add_edge(u, v);
            }
            assert_eq!(built.rows, looped.rows, "n = {n}");
            assert_eq!(built.num_edges(), looped.num_edges());
            assert_eq!(built.degree_table, looped.degree_table);
        }
    }

    #[test]
    fn edges_listing() {
        let g = triangle();
        assert_eq!(g.edges(), vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn degree_matrix_diagonal() {
        let g = triangle();
        let d = g.degree_matrix();
        for i in 0..3 {
            assert_eq!(d[(i, i)], 2.0);
        }
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn sym_norm_adjacency_of_triangle() {
        // Ã = A + I has every row summing to 3, so every nonzero entry of
        // the normalised matrix is 1/3.
        let g = triangle();
        let s = g.sym_norm_adjacency();
        let expect = Tensor::full(3, 3, 1.0 / 3.0);
        assert_close(&s, &expect, 1e-12);
    }

    #[test]
    fn sym_norm_handles_isolated_nodes() {
        let g = Graph::empty(2);
        let s = g.sym_norm_adjacency();
        assert_close(&s, &Tensor::eye(2), 1e-12);
    }

    #[test]
    fn sym_norm_cache_matches_and_is_not_stale_after_mutation() {
        // The cached Â is the CSR; its densification must equal the
        // from-scratch dense oracle before and after every mutation.
        let cached = |g: &Graph| g.csr_adjacency_cached().matrix().to_dense();
        let mut g = triangle();
        let first = cached(&g);
        assert_eq!(first, g.sym_norm_adjacency());

        // adding an edge must refresh the cache
        let mut bigger = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0)]);
        let before = cached(&bigger);
        bigger.add_edge(2, 3);
        let after = cached(&bigger);
        assert_ne!(before, after, "cache served a stale matrix after add_edge");
        assert_eq!(after, bigger.sym_norm_adjacency());

        // removing an edge must refresh it too
        g.remove_edge(0, 1);
        assert_ne!(cached(&g), first);
        assert_eq!(cached(&g), g.sym_norm_adjacency());

        // clones of an already-cached graph keep serving the right matrix
        let clone = g.clone();
        assert_eq!(cached(&clone), g.sym_norm_adjacency());
    }

    #[test]
    fn f32_caches_are_casts_and_are_not_stale_after_mutation() {
        let mut g = triangle();
        // The f32 CSR is the entrywise cast of its f64 counterpart.
        assert_eq!(
            **g.csr_adjacency_cached_f32(),
            g.csr_adjacency_cached().matrix().cast()
        );

        // GraphScalar dispatch serves the same cached references.
        assert!(Arc::ptr_eq(
            <f32 as GraphScalar>::csr_of(&g),
            g.csr_adjacency_cached_f32()
        ));
        assert!(Arc::ptr_eq(
            <f64 as GraphScalar>::csr_of(&g),
            g.csr_adjacency_cached().matrix()
        ));

        // Edge mutation must drop the f32 CSR along with the f64 caches.
        g.remove_edge(0, 1);
        assert_eq!(
            g.csr_adjacency_cached_f32().to_dense(),
            g.sym_norm_adjacency().cast()
        );
    }

    #[test]
    fn noop_mutations_keep_every_cache() {
        let mut g = triangle();
        let csr_arc = Arc::clone(g.csr_adjacency_cached().matrix());
        let csr32_arc = Arc::clone(g.csr_adjacency_cached_f32());
        let wl = g.wl_signature_cached(3);

        // Re-adding an existing unit edge and removing an absent edge
        // (the diagonal is empty in a triangle) are bit-level no-ops:
        // nothing may be dropped or rebuilt.
        assert!(!g.apply(EdgeDelta::Upsert { u: 0, v: 1, w: 1.0 }));
        assert!(!g.apply(EdgeDelta::Remove { u: 2, v: 2 }));
        g.add_edge(0, 1); // wrapper form of the same no-ops
        g.remove_edge(2, 2);
        let mut h = Graph::from_edges(3, &[(0, 1)]);
        let h_arc = Arc::clone(h.csr_adjacency_cached().matrix());
        h.remove_edge(1, 2); // absent edge between distinct nodes
        assert!(Arc::ptr_eq(&h_arc, h.csr_adjacency_cached().matrix()));

        assert!(Arc::ptr_eq(&csr_arc, g.csr_adjacency_cached().matrix()));
        assert!(Arc::ptr_eq(&csr32_arc, g.csr_adjacency_cached_f32()));
        assert!(Arc::ptr_eq(&wl, &g.wl_signature_cached(3)));

        // ...while a real change drops every cache for a rebuild.
        assert!(g.apply(EdgeDelta::Remove { u: 0, v: 1 }));
        assert!(!Arc::ptr_eq(&csr_arc, g.csr_adjacency_cached().matrix()));
        assert!(!Arc::ptr_eq(&wl, &g.wl_signature_cached(3)));
    }

    #[test]
    fn negative_zero_counts_as_a_change() {
        // -0.0 == 0.0 but flips stored bits, so every derived structure's
        // bytes change: no-op detection must be on bits, not values.
        let mut g = Graph::empty(2);
        assert!(g.apply(EdgeDelta::Upsert {
            u: 0,
            v: 1,
            w: -0.0
        }));
        assert_eq!(g.weight(0, 1).to_bits(), (-0.0f64).to_bits());
        assert_eq!(g.num_edges(), 0, "-0.0 is still edge absence");
        assert!(!g.apply(EdgeDelta::Upsert {
            u: 0,
            v: 1,
            w: -0.0
        }));
        assert!(
            g.apply(EdgeDelta::Remove { u: 0, v: 1 }),
            "-0.0 -> 0.0 is a bit change"
        );
    }

    #[test]
    #[should_panic(expected = "edge (0,5) out of range for 3 nodes")]
    fn remove_edge_bounds_are_contextual() {
        triangle().remove_edge(0, 5);
    }

    #[test]
    #[should_panic(expected = "edge (4,1) out of range for 3 nodes")]
    fn add_edge_bounds_are_contextual() {
        triangle().add_edge(4, 1);
    }

    #[test]
    fn maintained_stats_match_scans_under_random_mutations() {
        // Every accessor, after every step, against an independent dense
        // model updated by the same deltas — with -0.0 writes, self-loops,
        // reweights and removes of absent edges in the mix.
        let mut rng = Rng::from_seed(95);
        let n = 11;
        let mut g = Graph::empty(n);
        let mut dense = vec![0.0f64; n * n];
        for step in 0..600 {
            let u = rng.gen_range(0..n);
            let v = if rng.gen_range(0..8u32) == 0 {
                u
            } else {
                rng.gen_range(0..n)
            };
            let w = match rng.gen_range(0..6u32) {
                0 | 1 => 0.0,
                2 => -0.0,
                3 => 1.0,
                _ => rng.gen_f64() * 2.0 - 1.0,
            };
            let delta = if w.to_bits() == 0 && step % 2 == 0 {
                EdgeDelta::Remove { u, v }
            } else {
                EdgeDelta::Upsert { u, v, w }
            };
            let changed = dense[u * n + v].to_bits() != w.to_bits();
            dense[u * n + v] = w;
            dense[v * n + u] = w;
            assert_eq!(g.apply(delta), changed, "step {step}: apply's return");

            let mut edges = Vec::new();
            let mut max_deg = 0;
            for a in 0..n {
                let row = &dense[a * n..(a + 1) * n];
                let mut nbrs = Vec::new();
                for (b, &x) in row.iter().enumerate() {
                    let at = format!("step {step}, slot ({a},{b})");
                    assert_eq!(g.weight(a, b).to_bits(), x.to_bits(), "{at}");
                    assert_eq!(g.has_edge(a, b), x != 0.0, "{at}");
                    if x != 0.0 && b >= a {
                        edges.push((a, b));
                    }
                    if x != 0.0 && b != a {
                        nbrs.push(b);
                    }
                }
                let deg = row.iter().filter(|&&x| x != 0.0).count();
                assert_eq!(g.neighbors(a), nbrs, "step {step}, node {a}");
                assert_eq!(g.degree_count(a), deg, "step {step}, node {a}");
                assert_eq!(
                    g.degree(a).to_bits(),
                    row.iter().sum::<f64>().to_bits(),
                    "step {step}, node {a}"
                );
                max_deg = max_deg.max(deg);
            }
            assert_eq!(g.edges(), edges, "step {step}");
            assert_eq!(g.num_edges(), edges.len(), "step {step}");
            assert_eq!(g.max_degree(), max_deg, "step {step}");
            let export = g.dense_adjacency();
            for (x, y) in export.as_slice().iter().zip(&dense) {
                assert_eq!(x.to_bits(), y.to_bits(), "step {step}: dense export");
            }
            assert_eq!(
                g.adjacency_csr(),
                CsrMatrix::from_dense(&export),
                "step {step}: raw-A CSR"
            );
            assert_eq!(g, Graph::from_adjacency(export), "step {step}: equality");
        }
    }

    #[test]
    fn incremental_caches_are_bitwise_equal_to_fresh_recompute() {
        let mut rng = Rng::from_seed(96);
        let n = 10;
        let mut g = Graph::empty(n);
        // Warm every cache before each mutation, so every step drops
        // caches that were in use and rebuilds them.
        g.add_edge(0, 1);
        for step in 0..120 {
            let _ = g.csr_adjacency_cached();
            let _ = g.csr_adjacency_cached_f32();
            let _ = g.wl_signature_cached(3);
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            let w = match rng.gen_range(0..3u32) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.gen_f64() + 0.25,
            };
            g.apply(EdgeDelta::Upsert { u, v, w });

            // A fresh graph with the same adjacency is the from-scratch
            // oracle for every cache; the dense Â oracle pins the values.
            let fresh = Graph::from_adjacency(g.dense_adjacency());
            let rebuilt = g.csr_adjacency_cached().matrix();
            assert_eq!(
                **rebuilt,
                **fresh.csr_adjacency_cached().matrix(),
                "CSR diverged at step {step}"
            );
            let dense = fresh.sym_norm_adjacency();
            for (x, y) in rebuilt.to_dense().as_slice().iter().zip(dense.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "Â diverged at step {step}");
            }
            assert_eq!(
                **g.csr_adjacency_cached_f32(),
                **fresh.csr_adjacency_cached_f32(),
                "f32 CSR diverged at step {step}"
            );
            assert_eq!(
                *g.wl_signature_cached(3),
                crate::wl::wl_signature(&fresh, 3),
                "WL signature diverged at step {step}"
            );
        }
    }

    #[test]
    fn wl_signature_cached_serves_other_iteration_counts_fresh() {
        let g = triangle();
        let s3 = g.wl_signature_cached(3);
        assert_eq!(*s3, crate::wl::wl_signature(&g, 3));
        // A different count bypasses (without clobbering) the cache.
        let s1 = g.wl_signature_cached(1);
        assert_eq!(*s1, crate::wl::wl_signature(&g, 1));
        assert!(Arc::ptr_eq(&s3, &g.wl_signature_cached(3)));
    }

    #[test]
    fn with_node_labels_drops_stale_wl_state() {
        let g = triangle();
        let unlabelled = g.wl_signature_cached(2);
        let relabelled = g.with_node_labels(vec![1, 2, 3]);
        assert_ne!(*relabelled.wl_signature_cached(2), *unlabelled);
        assert_eq!(
            *relabelled.wl_signature_cached(2),
            crate::wl::wl_signature(&relabelled, 2)
        );
    }

    #[test]
    fn row_norm_rows_sum_to_one() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let r = g.row_norm_adjacency();
        for i in 0..4 {
            let s: f64 = r.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn induced_subgraph_renumbers_and_keeps_labels() {
        let g =
            Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).with_node_labels(vec![10, 11, 12, 13]);
        let s = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(s.n(), 3);
        assert!(s.has_edge(0, 1) && s.has_edge(1, 2) && !s.has_edge(0, 2));
        assert_eq!(s.node_labels().unwrap(), &[11, 12, 13]);
        assert_eq!(s.num_edges(), 2);
        assert_eq!(s.max_degree(), 2);
    }

    #[test]
    fn disjoint_union_shifts_ids() {
        let a = triangle();
        let b = Graph::from_edges(2, &[(0, 1)]);
        let u = a.disjoint_union(&b);
        assert_eq!(u.n(), 5);
        assert_eq!(u.num_edges(), 4);
        assert!(u.has_edge(3, 4));
        assert!(!u.has_edge(2, 3), "components must stay disconnected");
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn induced_subgraph_rejects_duplicates() {
        triangle().induced_subgraph(&[0, 0]);
    }
}
