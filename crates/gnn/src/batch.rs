//! Block-diagonal multi-graph batching.
//!
//! A [`BatchGraph`] packs `B` graphs into one forward pass: node features
//! are row-concatenated into a `(Σnᵢ) × F` matrix, and the per-graph
//! propagation matrices `Âᵢ` are assembled into one block-diagonal CSR.
//! One SpMM (GCN) or one edge-list attention (GAT) then propagates every
//! graph at once — no cross-graph edges exist, so row `r` of the batched
//! result runs the *same* operation sequence as row `r - offset(b)` of
//! graph `b`'s own forward, making the batched embedding byte-identical
//! per node to the graph-at-a-time loop (the differential-test oracle).
//! Per-graph readouts use the segment kernels (`Tape::segment_means` et
//! al.) over the offsets vector.
//!
//! See ARCHITECTURE.md "Block-diagonal batching" for the full contract.

#![deny(missing_docs)]

use hap_graph::{Graph, GraphScalar};
use hap_tensor::{CsrMatrix, Scalar, Tensor};
use std::sync::Arc;

/// `B` graphs fused into one block-diagonal propagation problem.
///
/// Graph `b` owns the contiguous node rows `offsets[b]..offsets[b+1]`;
/// the adjacency is the block-diagonal of each graph's cached CSR `Â` in
/// the batch's element type `T` (see [`GraphScalar`]). Empty graphs are
/// rejected — an empty row segment has no well-defined mean readout.
///
/// ```
/// use hap_autograd::{ParamStore, Tape};
/// use hap_gnn::{AdjacencyRef, BatchGraph, EncoderKind, GnnEncoder};
/// use hap_graph::generators;
/// use hap_rand::Rng;
/// use hap_tensor::Tensor;
///
/// let mut rng = Rng::from_seed(7);
/// let mut store = ParamStore::new();
/// let enc = GnnEncoder::new(&mut store, "enc", EncoderKind::Gcn, &[2, 4], &mut rng);
///
/// let (g1, g2) = (generators::cycle(3), generators::path(2));
/// let (x1, x2) = (Tensor::<f64>::ones(3, 2), Tensor::full(2, 2, 0.5));
///
/// // One batched forward over the 5-node block-diagonal system …
/// let batch = BatchGraph::new(&[&g1, &g2], &[&x1, &x2]);
/// let mut tb = Tape::new();
/// let h = tb.constant(batch.features().clone());
/// let hb = enc.forward_batch(&mut tb, &batch, h);
/// let batched = tb.value(hb);
///
/// // … is byte-identical, node for node, to the per-graph loop.
/// for (b, (g, x)) in [(&g1, &x1), (&g2, &x2)].iter().enumerate() {
///     let mut t = Tape::new();
///     let h = t.constant((*x).clone());
///     let out = enc.forward(&mut t, AdjacencyRef::Fixed(g), h);
///     let single = t.value(out);
///     for (local, r) in batch.node_range(b).enumerate() {
///         for (bv, sv) in batched.row(r).iter().zip(single.row(local)) {
///             assert_eq!(bv.to_bits(), sv.to_bits());
///         }
///     }
/// }
/// ```
#[derive(Clone, Debug)]
pub struct BatchGraph<T: Scalar = f64> {
    csr: Arc<CsrMatrix<T>>,
    offsets: Arc<Vec<usize>>,
    features: Tensor<T>,
}

impl<T: GraphScalar> BatchGraph<T> {
    /// Fuses `graphs` (with per-graph feature matrices, one row per node)
    /// into a block-diagonal batch.
    ///
    /// # Panics
    /// Panics when the batch is empty, when `graphs` and `features`
    /// lengths differ, when any graph has zero nodes, when a feature
    /// matrix's row count differs from its graph's node count, or when
    /// feature widths are inconsistent across the batch.
    pub fn new(graphs: &[&Graph], features: &[&Tensor<T>]) -> Self {
        assert!(!graphs.is_empty(), "batch must contain at least one graph");
        assert_eq!(
            graphs.len(),
            features.len(),
            "one feature matrix per graph required"
        );
        let cols = features[0].cols();
        let mut offsets = Vec::with_capacity(graphs.len() + 1);
        offsets.push(0usize);
        for (b, (g, x)) in graphs.iter().zip(features).enumerate() {
            assert!(g.n() > 0, "graph {b} in batch has no nodes");
            assert_eq!(
                x.rows(),
                g.n(),
                "graph {b}: feature rows {} != node count {}",
                x.rows(),
                g.n()
            );
            assert_eq!(
                x.cols(),
                cols,
                "graph {b}: feature width {} != batch width {cols}",
                x.cols()
            );
            offsets.push(offsets[b] + g.n());
        }

        let blocks: Vec<&CsrMatrix<T>> = graphs.iter().map(|g| T::csr_of(g).as_ref()).collect();
        let csr = Arc::new(CsrMatrix::block_diag(&blocks));

        let total = *offsets.last().expect("non-empty offsets");
        let mut fused = Tensor::zeros(total, cols);
        for (b, x) in features.iter().enumerate() {
            for (local, r) in (offsets[b]..offsets[b + 1]).enumerate() {
                fused.row_mut(r).copy_from_slice(x.row(local));
            }
        }

        Self {
            csr,
            offsets: Arc::new(offsets),
            features: fused,
        }
    }

    /// Number of graphs in the batch.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Always false: construction rejects empty batches.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total node count `Σnᵢ` across the batch.
    pub fn total_nodes(&self) -> usize {
        *self.offsets.last().expect("non-empty offsets")
    }

    /// The segment-offsets vector `[0, n₁, n₁+n₂, …, Σnᵢ]`, shaped for the
    /// `Tape::segment_*` kernels.
    pub fn offsets(&self) -> &Arc<Vec<usize>> {
        &self.offsets
    }

    /// The block-diagonal normalised adjacency (symmetric, CSR).
    pub fn adjacency(&self) -> &Arc<CsrMatrix<T>> {
        &self.csr
    }

    /// The fused `(Σnᵢ) × F` node-feature matrix.
    pub fn features(&self) -> &Tensor<T> {
        &self.features
    }

    /// The node-row range owned by graph `b`.
    ///
    /// # Panics
    /// Panics when `b` is out of range.
    pub fn node_range(&self, b: usize) -> std::ops::Range<usize> {
        self.offsets[b]..self.offsets[b + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_graph::generators;

    #[test]
    fn layout_and_block_diagonal_structure() {
        let g1 = generators::cycle(4);
        let g2 = generators::path(3);
        let x1 = Tensor::<f64>::ones(4, 2);
        let x2 = Tensor::full(3, 2, 2.0);
        let batch = BatchGraph::new(&[&g1, &g2], &[&x1, &x2]);

        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.total_nodes(), 7);
        assert_eq!(**batch.offsets(), vec![0, 4, 7]);
        assert_eq!(batch.node_range(1), 4..7);
        assert_eq!(batch.features().shape(), (7, 2));
        assert_eq!(batch.features()[(5, 0)], 2.0);

        // The fused CSR is the two cached CSRs stacked on the diagonal.
        let dense = batch.adjacency().to_dense();
        let d1 = g1.sym_norm_adjacency();
        let d2 = g2.sym_norm_adjacency();
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(dense[(r, c)].to_bits(), d1[(r, c)].to_bits());
            }
            for c in 4..7 {
                assert_eq!(dense[(r, c)], 0.0, "cross-graph edge at ({r},{c})");
            }
        }
        for r in 4..7 {
            for c in 4..7 {
                assert_eq!(dense[(r, c)].to_bits(), d2[(r - 4, c - 4)].to_bits());
            }
        }
        assert!(batch.adjacency().is_symmetric());
    }

    #[test]
    fn f32_batched_forward_is_byte_identical_to_per_graph_loop() {
        use crate::{AdjacencyRef, EncoderKind, GnnEncoder};
        use hap_autograd::{ParamStore, Tape};
        use hap_rand::Rng;

        let mut rng = Rng::from_seed(7);
        let mut store = ParamStore::<f32>::new();
        let enc = GnnEncoder::new(&mut store, "enc", EncoderKind::Gcn, &[2, 4], &mut rng);

        let (g1, g2) = (generators::cycle(3), generators::path(2));
        let (x1, x2) = (Tensor::<f32>::ones(3, 2), Tensor::<f32>::full(2, 2, 0.5));
        let batch = BatchGraph::new(&[&g1, &g2], &[&x1, &x2]);
        let mut tb = Tape::new();
        let h = tb.constant(batch.features().clone());
        let hb = enc.forward_batch(&mut tb, &batch, h);
        let batched = tb.value(hb);

        for (b, (g, x)) in [(&g1, &x1), (&g2, &x2)].iter().enumerate() {
            let mut t = Tape::new();
            let h = t.constant((*x).clone());
            let out = enc.forward(&mut t, AdjacencyRef::Fixed(g), h);
            let single = t.value(out);
            for (local, r) in batch.node_range(b).enumerate() {
                for (bv, sv) in batched.row(r).iter().zip(single.row(local)) {
                    assert_eq!(bv.to_bits(), sv.to_bits());
                }
            }
        }
    }

    #[test]
    fn single_graph_batch_is_the_graph_itself() {
        let g = generators::cycle(5);
        let x = Tensor::<f64>::ones(5, 3);
        let batch = BatchGraph::new(&[&g], &[&x]);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.adjacency().to_dense(), g.sym_norm_adjacency());
    }

    #[test]
    #[should_panic(expected = "no nodes")]
    fn rejects_empty_graph() {
        let g = hap_graph::Graph::empty(0);
        let x = Tensor::<f64>::zeros(0, 2);
        BatchGraph::new(&[&g], &[&x]);
    }

    #[test]
    #[should_panic(expected = "feature rows")]
    fn rejects_feature_row_mismatch() {
        let g = generators::cycle(3);
        let x = Tensor::<f64>::zeros(2, 2);
        BatchGraph::new(&[&g], &[&x]);
    }

    #[test]
    #[should_panic(expected = "feature width")]
    fn rejects_inconsistent_feature_width() {
        let g1 = generators::cycle(3);
        let g2 = generators::cycle(3);
        let x1 = Tensor::<f64>::zeros(3, 2);
        let x2 = Tensor::<f64>::zeros(3, 4);
        BatchGraph::new(&[&g1, &g2], &[&x1, &x2]);
    }
}
