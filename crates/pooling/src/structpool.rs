//! StructPool (Yuan & Ji) — structured pooling via conditional random
//! fields (the unsupervised-flavoured baseline of Sec. 2.2).

use crate::{CoarsenModule, PoolCtx};
use hap_autograd::{ParamStore, Tape, Var};
use hap_gnn::AdjacencyRef;
use hap_graph::GraphScalar;
use hap_nn::Linear;
use hap_rand::Rng;
use hap_tensor::Scalar;

/// StructPool coarsening: cluster assignments are treated as a CRF whose
/// Gibbs energy couples a feature-based unary term with a structural
/// pairwise term; inference is mean-field.
///
/// Implemented here as the standard mean-field relaxation:
/// `Q⁰ = softmax(U)` with unary logits `U = H·W`, then for `T` iterations
/// `Qᵗ = softmax(U + λ·A·Qᵗ⁻¹)` — neighbouring nodes pull each other
/// toward the same cluster (Potts compatibility). The full CRF machinery
/// of the original (learned compatibility matrix, multiple energy kinds)
/// is simplified to this fixed Potts model; the defining mechanism —
/// high-order structural relationships entering the assignment through
/// iterative message passing — is preserved.
pub struct StructPool<T: Scalar = f64> {
    unary: Linear<T>,
    clusters: usize,
    iterations: usize,
    coupling: f64,
}

impl<T: Scalar> StructPool<T> {
    /// Creates a StructPool module with `clusters` output clusters and
    /// `iterations` mean-field steps (the original uses a small fixed
    /// number; 2–3 suffices).
    ///
    /// # Panics
    /// Panics when `clusters == 0`.
    pub fn new(
        store: &mut ParamStore<T>,
        name: &str,
        dim: usize,
        clusters: usize,
        iterations: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(clusters > 0, "cluster count must be positive");
        Self {
            unary: Linear::new(store, &format!("{name}.unary"), dim, clusters, false, rng),
            clusters,
            iterations: iterations.max(1),
            coupling: 1.0,
        }
    }

    /// Number of output clusters.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Mean-field assignment matrix `Q` (`N×N'`, rows are distributions).
    pub fn assignment(&self, tape: &mut Tape<T>, adj: Var, h: Var) -> Var {
        let u = self.unary.forward(tape, h); // N×N'
        let mut q = tape.softmax_rows(u);
        for _ in 0..self.iterations {
            let msg = tape.matmul(adj, q); // structural message
            let msg = tape.scale(msg, self.coupling);
            let logits = tape.add(u, msg);
            q = tape.softmax_rows(logits);
        }
        q
    }
}

impl<T: GraphScalar> CoarsenModule<T> for StructPool<T> {
    fn forward(
        &self,
        tape: &mut Tape<T>,
        adj: AdjacencyRef<'_>,
        h: Var,
        _ctx: &mut PoolCtx<'_>,
    ) -> (Var, Var) {
        let adj = adj.dense(tape);
        let q = self.assignment(tape, adj, h);
        let qt = tape.transpose(q);
        let h_new = tape.matmul(qt, h);
        let qa = tape.matmul(qt, adj);
        let a_new = tape.matmul(qa, q);
        (a_new, h_new)
    }

    fn name(&self) -> &'static str {
        "StructPool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_graph::generators;
    use hap_rand::Rng;
    use hap_tensor::Tensor;

    #[test]
    fn output_shapes() {
        let mut rng = Rng::from_seed(1);
        let mut store = ParamStore::<f64>::new();
        let m = StructPool::new(&mut store, "sp", 4, 3, 2, &mut rng);
        let g = generators::erdos_renyi_connected(8, 0.4, &mut rng);
        let mut t = Tape::new();
        let a = t.constant(g.dense_adjacency());
        let h = t.constant(Tensor::rand_uniform(8, 4, -1.0, 1.0, &mut rng));
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let (a2, h2) = m.forward(&mut t, AdjacencyRef::Dynamic(a), h, &mut ctx);
        assert_eq!(t.shape(a2), (3, 3));
        assert_eq!(t.shape(h2), (3, 4));
    }

    #[test]
    fn mean_field_pulls_neighbours_together() {
        // Two cliques joined by one edge: after mean-field refinement,
        // nodes within a clique should agree on their most likely cluster
        // more than across cliques.
        let mut rng = Rng::from_seed(5);
        let mut store = ParamStore::<f64>::new();
        let m = StructPool::new(&mut store, "sp", 2, 2, 3, &mut rng);
        let mut g = generators::clique(4).disjoint_union(&generators::clique(4));
        g.add_edge(0, 4);
        let mut t = Tape::new();
        let a = t.constant(g.dense_adjacency());
        let h = t.constant(Tensor::rand_uniform(8, 2, -1.0, 1.0, &mut rng));
        let q = m.assignment(&mut t, a, h);
        let qv = t.value(q);
        let argmax = |r: usize| if qv[(r, 0)] > qv[(r, 1)] { 0 } else { 1 };
        // majority label within each clique
        let count_a = (0..4).filter(|&r| argmax(r) == argmax(1)).count();
        let count_b = (4..8).filter(|&r| argmax(r) == argmax(5)).count();
        assert!(count_a >= 3, "clique A fragmented: {count_a}");
        assert!(count_b >= 3, "clique B fragmented: {count_b}");
    }

    #[test]
    fn assignment_rows_are_distributions() {
        let mut rng = Rng::from_seed(2);
        let mut store = ParamStore::<f64>::new();
        let m = StructPool::new(&mut store, "sp", 3, 4, 2, &mut rng);
        let g = generators::cycle(6);
        let mut t = Tape::new();
        let a = t.constant(g.dense_adjacency());
        let h = t.constant(Tensor::rand_uniform(6, 3, -1.0, 1.0, &mut rng));
        let q = m.assignment(&mut t, a, h);
        let qv = t.value(q);
        for r in 0..6 {
            let s: f64 = qv.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }
}
