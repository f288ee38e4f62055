//! CSR form of the GCN propagation matrix.
//!
//! [`CsrAdjacency`] holds a graph's normalised adjacency
//! `D̃^{-1/2}ÃD̃^{-1/2}` (Eq. 12) as a [`CsrMatrix`], the only cached form
//! of `Â`: every fixed-graph GNN layer propagates with SpMM over it. It is
//! assembled straight from the adjacency and the `D̃^{-1/2}` factors, with
//! the exact floating-point operations of [`Graph::sym_norm_adjacency`],
//! so its values are bitwise those of the dense matrix — and because the
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
    /// Builds the CSR propagation matrix for `g` from its adjacency. Every
    /// self-loop contributes a structural non-zero, so each of the `n` rows
    /// holds at least its diagonal entry.
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
        let adj = g.adjacency();
        let n = adj.rows();
        // `D̃_rr^{-1/2}`, with the degree summed over row `r` of `Ã = A + I`
        // in column order — the summation `Graph::sym_norm_adjacency`
        // performs.
        let inv_sqrt: Vec<f64> = (0..n)
            .map(|r| {
                let d: f64 = adj
                    .row(r)
                    .iter()
                    .enumerate()
                    .map(|(c, &a)| if c == r { a + 1.0 } else { a })
                    .sum();
                1.0 / d.sqrt()
            })
            .collect();
        let csr = CsrMatrix::from_fn(n, n, |r, c| {
            // `Ã_rc · (D̃_rr^{-1/2} · D̃_cc^{-1/2})`, in the factor order of
            // `Graph::sym_norm_adjacency`.
            let a = adj[(r, c)];
            let a_tilde = if r == c { a + 1.0 } else { a };
            a_tilde * (inv_sqrt[r] * inv_sqrt[c])
        });
        Self { csr: Arc::new(csr) }
    }

    /// The shared CSR matrix, cloneable into tape ops without copying.
    #[inline]
    pub fn matrix(&self) -> &Arc<CsrMatrix> {
        &self.csr
    }
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
