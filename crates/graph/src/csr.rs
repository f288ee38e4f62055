//! CSR form of the GCN propagation matrix.
//!
//! [`CsrAdjacency`] holds a graph's normalised adjacency
//! `D̃^{-1/2}ÃD̃^{-1/2}` (Eq. 12) as a [`CsrMatrix`], the only cached form
//! of `Â`: every fixed-graph GNN layer propagates with SpMM over it. It is
//! assembled straight from the graph's neighbour rows and the `D̃^{-1/2}`
//! factors in O(n + m), with the exact floating-point operations of
//! [`Graph::sym_norm_adjacency`] on every non-zero entry, so its values
//! are bitwise those of the dense matrix — and because the
//! dense matmul kernel skips zero entries in ascending column order
//! (exactly the CSR row walk), SpMM over it is byte-identical to a dense
//! product (ARCHITECTURE.md "CSR adjacency").

#![deny(missing_docs)]

use crate::Graph;
use hap_tensor::CsrMatrix;
use std::sync::Arc;

/// A graph's symmetric normalised adjacency in CSR form, shareable across
/// tapes and layers via `Arc`.
///
/// Always symmetric (the normalisation `D̃^{-1/2}ÃD̃^{-1/2}` of a symmetric
/// `Ã` is symmetric), which is what lets the SpMM backward reuse the same
/// matrix: `dH = Sᵀ·G = S·G`.
#[derive(Clone, Debug)]
pub struct CsrAdjacency {
    csr: Arc<CsrMatrix>,
}

impl CsrAdjacency {
    /// Builds the CSR propagation matrix for `g` from its neighbour rows.
    /// Every self-loop contributes a structural non-zero, so each of the
    /// `n` rows holds at least its diagonal entry.
    ///
    /// The bitwise match with the dense matrix assumes every `D̃_rr` is
    /// positive, as it is for non-negative weights. Where a negative weight
    /// drives a degree to zero or below, the dense build also turns that
    /// node's absent entries into NaN (`0 · ∞`); this build leaves them
    /// absent.
    ///
    /// ```
    /// use hap_graph::{csr::CsrAdjacency, Graph};
    ///
    /// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
    /// let s = CsrAdjacency::from_graph(&g);
    /// // The triangle's Â is dense (every Ã entry is 1/3) …
    /// assert_eq!(s.matrix().nnz(), 9);
    /// // … and bitwise identical to the from-scratch dense matrix.
    /// assert_eq!(s.matrix().to_dense(), g.sym_norm_adjacency());
    /// ```
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.n();
        // `D̃_rr^{-1/2}`, with the degree summed over row `r` of `Ã = A + I`
        // in column order — the summation `Graph::sym_norm_adjacency`
        // performs, minus its zero terms. The diagonal term `A_rr + 1` is
        // non-zero for every non-negative weight, so the sum is never an
        // all-zero one and skipping `±0` terms cannot change its bits.
        let inv_sqrt: Vec<f64> = (0..n)
            .map(|r| {
                let d: f64 = tilde_row(g, r).map(|e| e.1).sum();
                1.0 / d.sqrt()
            })
            .collect();
        let inv = &inv_sqrt;
        // `Ã_rc · (D̃_rr^{-1/2} · D̃_cc^{-1/2})`, in the factor order of
        // `Graph::sym_norm_adjacency`; an absent `Ã_rc` would give `±0`,
        // which the dense build drops too.
        let entries = (0..n).map(|r| g.row(r).len() + 1).sum();
        let csr = CsrMatrix::from_rows(
            n,
            entries,
            (0..n).map(|r| tilde_row(g, r).map(move |(c, a)| (c, a * (inv[r] * inv[c])))),
        );
        Self { csr: Arc::new(csr) }
    }

    /// The shared CSR matrix, cloneable into tape ops without copying.
    #[inline]
    pub fn matrix(&self) -> &Arc<CsrMatrix> {
        &self.csr
    }
}

/// Row `r` of `Ã = A + I` in ascending column order: the stored slots of
/// row `r`, with the diagonal's `+1` folded into its slot (or inserted as
/// `1.0` where `A_rr` is absent).
fn tilde_row(g: &Graph, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
    let row = g.row(r);
    let split = row.partition_point(|e| e.0 < r);
    let (diag, rest) = match row.get(split) {
        Some(&(c, a)) if c == r => (a + 1.0, &row[split + 1..]),
        _ => (1.0, &row[split..]),
    };
    row[..split]
        .iter()
        .copied()
        .chain(std::iter::once((r, diag)))
        .chain(rest.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_tensor::Tensor;

    #[test]
    fn csr_values_match_dense_normalised_adjacency_bitwise() {
        let mut rng = hap_rand::Rng::from_seed(11);
        let mut g = crate::generators::erdos_renyi(20, 0.15, &mut rng);
        // Non-unit weights and self-loops, so the factor order of each
        // entry shows in its bits.
        for (u, v) in g.edges() {
            g.add_weighted_edge(u, v, 0.25 + rng.gen_f64());
        }
        g.add_weighted_edge(3, 3, 0.7);
        let s = CsrAdjacency::from_graph(&g);
        let dense = g.sym_norm_adjacency();
        let roundtrip = s.matrix().to_dense();
        assert_eq!(roundtrip.shape(), dense.shape());
        for (a, b) in roundtrip.as_slice().iter().zip(dense.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(s.matrix().is_symmetric());
    }

    #[test]
    fn edgeless_graph_is_identity_with_minimal_nnz() {
        let g = Graph::empty(4);
        let s = CsrAdjacency::from_graph(&g);
        assert_eq!(s.matrix().nnz(), 4, "self-loops only");
        assert_eq!(s.matrix().to_dense(), Tensor::eye(4));
    }

    #[test]
    fn cached_csr_is_shared_and_invalidated_by_mutation() {
        let mut g = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        let first = Arc::clone(g.csr_adjacency_cached().matrix());
        // Second call serves the same Arc, not a rebuild.
        assert!(Arc::ptr_eq(&first, g.csr_adjacency_cached().matrix()));

        g.add_edge(2, 3);
        let after = g.csr_adjacency_cached();
        assert!(
            !Arc::ptr_eq(&first, after.matrix()),
            "cache served a stale CSR after add_edge"
        );
        assert_eq!(
            after.matrix().to_dense(),
            g.sym_norm_adjacency(),
            "rebuilt CSR must match the new from-scratch matrix"
        );

        let before_remove = Arc::clone(after.matrix());
        g.remove_edge(0, 1);
        assert!(!Arc::ptr_eq(
            &before_remove,
            g.csr_adjacency_cached().matrix()
        ));
    }
}
