//! DiffPool (Ying et al.) — the first differentiable group pooling method
//! (Sec. 2.1.3), HAP's closest hierarchical competitor.

use crate::{CoarsenModule, PoolCtx};
use hap_autograd::{ParamStore, Tape, Var};
use hap_gnn::{AdjacencyRef, GcnLayer};
use hap_graph::GraphScalar;
use hap_nn::Activation;
use hap_rand::Rng;

/// DiffPool coarsening: two parallel GCNs produce an embedding
/// `Z = GCN_embed(A, H)` and a dense soft assignment
/// `S = softmax(GCN_assign(A, H))` over `N'` clusters; the coarsened pair
/// is `H' = SᵀZ`, `A' = SᵀAS`.
///
/// Grouping is driven by the 1-hop GCN receptive field — exactly the
/// limitation (Fig. 1a) HAP's fully-connected MOA channel addresses.
pub struct DiffPool<T: GraphScalar = f64> {
    embed: GcnLayer<T>,
    assign: GcnLayer<T>,
    clusters: usize,
}

impl<T: GraphScalar> DiffPool<T> {
    /// Creates a DiffPool module mapping width-`dim` features to `clusters`
    /// clusters (feature width is preserved).
    ///
    /// # Panics
    /// Panics when `clusters == 0`.
    pub fn new(
        store: &mut ParamStore<T>,
        name: &str,
        dim: usize,
        clusters: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(clusters > 0, "cluster count must be positive");
        Self {
            embed: GcnLayer::with_activation(
                store,
                &format!("{name}.embed"),
                dim,
                dim,
                Activation::Relu,
                rng,
            ),
            assign: GcnLayer::with_activation(
                store,
                &format!("{name}.assign"),
                dim,
                clusters,
                Activation::Identity,
                rng,
            ),
            clusters,
        }
    }

    /// Number of output clusters `N'`.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Exposes the soft assignment matrix `S` (for inspection/tests).
    pub fn assignment(&self, tape: &mut Tape<T>, adj: Var, h: Var) -> Var {
        let logits = self.assign.forward(tape, AdjacencyRef::Dynamic(adj), h);
        tape.softmax_rows(logits)
    }
}

impl<T: GraphScalar> CoarsenModule<T> for DiffPool<T> {
    fn forward(
        &self,
        tape: &mut Tape<T>,
        adj: AdjacencyRef<'_>,
        h: Var,
        _ctx: &mut PoolCtx<'_>,
    ) -> (Var, Var) {
        let adj = adj.dense(tape);
        let z = self.embed.forward(tape, AdjacencyRef::Dynamic(adj), h);
        let s = self.assignment(tape, adj, h); // N×N'
        let st = tape.transpose(s);
        let h_new = tape.matmul(st, z); // N'×F
        let sa = tape.matmul(st, adj); // N'×N
        let a_new = tape.matmul(sa, s); // N'×N'
        (a_new, h_new)
    }

    fn name(&self) -> &'static str {
        "DiffPool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_graph::generators;
    use hap_rand::Rng;
    use hap_tensor::Tensor;

    #[test]
    fn coarsens_to_fixed_cluster_count() {
        let mut rng = Rng::from_seed(1);
        let mut store = ParamStore::<f64>::new();
        let m = DiffPool::new(&mut store, "dp", 4, 3, &mut rng);
        let g = generators::erdos_renyi_connected(9, 0.4, &mut rng);
        let mut t = Tape::new();
        let a = t.constant(g.dense_adjacency());
        let h = t.constant(Tensor::rand_uniform(9, 4, -1.0, 1.0, &mut rng));
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let (a2, h2) = m.forward(&mut t, AdjacencyRef::Dynamic(a), h, &mut ctx);
        assert_eq!(t.shape(a2), (3, 3));
        assert_eq!(t.shape(h2), (3, 4));
        assert!(t.value(a2).all_finite() && t.value(h2).all_finite());
    }

    #[test]
    fn assignment_rows_are_distributions() {
        let mut rng = Rng::from_seed(2);
        let mut store = ParamStore::<f64>::new();
        let m = DiffPool::new(&mut store, "dp", 3, 4, &mut rng);
        let g = generators::cycle(6);
        let mut t = Tape::new();
        let a = t.constant(g.dense_adjacency());
        let h = t.constant(Tensor::rand_uniform(6, 3, -1.0, 1.0, &mut rng));
        let s = m.assignment(&mut t, a, h);
        let sv = t.value(s);
        for r in 0..6 {
            let sum: f64 = sv.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        assert!(sv.min() >= 0.0);
    }

    #[test]
    fn coarsened_adjacency_preserves_total_edge_mass() {
        // Σ_ij (SᵀAS)_ij = Σ_ij A_ij because S rows are distributions.
        let mut rng = Rng::from_seed(3);
        let mut store = ParamStore::<f64>::new();
        let m = DiffPool::new(&mut store, "dp", 3, 3, &mut rng);
        let g = generators::erdos_renyi_connected(7, 0.5, &mut rng);
        let mut t = Tape::new();
        let a = t.constant(g.dense_adjacency());
        let h = t.constant(Tensor::rand_uniform(7, 3, -1.0, 1.0, &mut rng));
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let (a2, _h2) = m.forward(&mut t, AdjacencyRef::Dynamic(a), h, &mut ctx);
        let mass_before = g.dense_adjacency().sum();
        let mass_after = t.value(a2).sum();
        assert!(
            (mass_before - mass_after).abs() < 1e-9,
            "{mass_before} vs {mass_after}"
        );
    }

    #[test]
    fn gradients_reach_both_gcns() {
        let mut rng = Rng::from_seed(4);
        let mut store = ParamStore::<f64>::new();
        let m = DiffPool::new(&mut store, "dp", 3, 2, &mut rng);
        let g = generators::erdos_renyi_connected(6, 0.5, &mut rng);
        let mut t = Tape::new();
        let a = t.constant(g.dense_adjacency());
        let h = t.constant(Tensor::rand_uniform(6, 3, -1.0, 1.0, &mut rng));
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let (_a2, h2) = m.forward(&mut t, AdjacencyRef::Dynamic(a), h, &mut ctx);
        let sq = t.hadamard(h2, h2);
        let loss = t.sum_all(sq);
        t.backward(loss);
        for p in store.iter() {
            assert!(
                p.grad().frobenius_norm() > 0.0,
                "param {} received no gradient",
                p.name()
            );
        }
    }
}
