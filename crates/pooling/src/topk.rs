//! Top-K selection pooling: gPool (Graph U-Nets) and SAGPool.

use crate::{ratio_to_k, CoarsenModule, PoolCtx};
use hap_autograd::{Param, ParamStore, Tape, Var};
use hap_gnn::{AdjacencyRef, GcnLayer};
use hap_graph::GraphScalar;
use hap_nn::{xavier_uniform, Activation};
use hap_rand::Rng;
use hap_tensor::Scalar;

/// Selects the `k` highest-scoring rows (data-dependent, not
/// differentiated — standard Top-K pooling semantics) and returns the
/// induced coarsened pair `(A', H'_gated)`.
fn select_top_k<T: Scalar>(
    tape: &mut Tape<T>,
    adj: Var,
    gated_h: Var,
    scores: &[T],
    k: usize,
) -> (Var, Var) {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("non-NaN scores"));
    order.truncate(k);
    order.sort_unstable(); // keep original relative order for readability

    let h_new = tape.gather_rows(gated_h, &order);
    // A' = A[idx][:, idx] via two gathers around a transpose.
    let rows = tape.gather_rows(adj, &order);
    let rows_t = tape.transpose(rows);
    let cols = tape.gather_rows(rows_t, &order);
    let a_new = tape.transpose(cols);
    (a_new, h_new)
}

/// gPool (Gao & Ji, *Graph U-Nets*): node scores are the projection of
/// node features onto a trainable vector, `y = H·p / ‖p‖`; the top
/// `⌈r·N⌉` nodes are kept with their features gated by `sigmoid(y)` (the
/// gate is what lets gradients reach `p`).
pub struct GPool<T: Scalar = f64> {
    p: Param<T>,
    ratio: f64,
}

impl<T: Scalar> GPool<T> {
    /// Creates a gPool layer for feature width `dim` keeping `ratio` of
    /// the nodes.
    ///
    /// # Panics
    /// Panics when `ratio ∉ (0, 1]`.
    pub fn new(
        store: &mut ParamStore<T>,
        name: &str,
        dim: usize,
        ratio: f64,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "ratio must be in (0,1], got {ratio}"
        );
        Self {
            p: store.new_param(format!("{name}.p"), xavier_uniform(dim, 1, rng)),
            ratio,
        }
    }
}

impl<T: GraphScalar> CoarsenModule<T> for GPool<T> {
    fn forward(
        &self,
        tape: &mut Tape<T>,
        adj: AdjacencyRef<'_>,
        h: Var,
        _ctx: &mut PoolCtx<'_>,
    ) -> (Var, Var) {
        let adj = adj.dense(tape);
        let n = tape.shape(h).0;
        let p = tape.param(&self.p);
        // y = H p / ||p||
        let norm = self.p.value().frobenius_norm().max(1e-12);
        let proj = tape.matmul(h, p);
        let y = tape.scale(proj, 1.0 / norm); // N×1
        let gate = tape.sigmoid(y);
        let gated = tape.mul_col(h, gate);
        let scores = tape.value(y).col(0);
        let k = ratio_to_k(n, self.ratio);
        select_top_k(tape, adj, gated, &scores, k)
    }

    fn name(&self) -> &'static str {
        "gPool"
    }
}

/// SAGPool (Lee et al.): scores come from a one-layer GCN over the graph
/// (`y = GCN(A, H)`), so selection sees both features *and* topology;
/// kept nodes are gated by `tanh(y)`.
pub struct SagPool<T: GraphScalar = f64> {
    scorer: GcnLayer<T>,
    ratio: f64,
}

impl<T: GraphScalar> SagPool<T> {
    /// Creates a SAGPool layer for feature width `dim` keeping `ratio` of
    /// the nodes.
    ///
    /// # Panics
    /// Panics when `ratio ∉ (0, 1]`.
    pub fn new(
        store: &mut ParamStore<T>,
        name: &str,
        dim: usize,
        ratio: f64,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "ratio must be in (0,1], got {ratio}"
        );
        Self {
            scorer: GcnLayer::with_activation(
                store,
                &format!("{name}.score"),
                dim,
                1,
                Activation::Identity,
                rng,
            ),
            ratio,
        }
    }
}

impl<T: GraphScalar> CoarsenModule<T> for SagPool<T> {
    fn forward(
        &self,
        tape: &mut Tape<T>,
        adj: AdjacencyRef<'_>,
        h: Var,
        _ctx: &mut PoolCtx<'_>,
    ) -> (Var, Var) {
        let adj = adj.dense(tape);
        let n = tape.shape(h).0;
        let y = self.scorer.forward(tape, AdjacencyRef::Dynamic(adj), h); // N×1
        let gate = tape.tanh(y);
        let gated = tape.mul_col(h, gate);
        let scores = tape.value(y).col(0);
        let k = ratio_to_k(n, self.ratio);
        select_top_k(tape, adj, gated, &scores, k)
    }

    fn name(&self) -> &'static str {
        "SAGPool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_graph::generators;
    use hap_rand::Rng;
    use hap_tensor::Tensor;

    fn run_coarsen(
        m: &dyn CoarsenModule,
        n: usize,
        f: usize,
        seed: u64,
    ) -> ((usize, usize), (usize, usize)) {
        let mut rng = Rng::from_seed(seed);
        let g = generators::erdos_renyi_connected(n, 0.4, &mut rng);
        let mut t = Tape::new();
        let a = t.constant(g.dense_adjacency());
        let h = t.constant(Tensor::rand_uniform(n, f, -1.0, 1.0, &mut rng));
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let (a2, h2) = m.forward(&mut t, AdjacencyRef::Dynamic(a), h, &mut ctx);
        (t.shape(a2), t.shape(h2))
    }

    #[test]
    fn gpool_halves_the_graph() {
        let mut rng = Rng::from_seed(1);
        let mut store = ParamStore::<f64>::new();
        let m = GPool::new(&mut store, "gp", 4, 0.5, &mut rng);
        let (sa, sh) = run_coarsen(&m, 8, 4, 2);
        assert_eq!(sa, (4, 4));
        assert_eq!(sh, (4, 4));
    }

    #[test]
    fn sagpool_keeps_requested_ratio() {
        let mut rng = Rng::from_seed(3);
        let mut store = ParamStore::<f64>::new();
        let m = SagPool::new(&mut store, "sag", 4, 0.25, &mut rng);
        let (sa, sh) = run_coarsen(&m, 8, 4, 4);
        assert_eq!(sa, (2, 2));
        assert_eq!(sh, (2, 4));
    }

    #[test]
    fn induced_adjacency_is_submatrix() {
        // On a path 0-1-2-3 with hand-set scores keeping nodes {1,2}, the
        // coarsened adjacency must contain exactly the 1-2 edge.
        let mut t = Tape::new();
        let g = generators::path(4);
        let a = t.constant(g.dense_adjacency());
        let h = t.constant(Tensor::from_rows(&[
            vec![0.0],
            vec![5.0],
            vec![4.0],
            vec![0.1],
        ]));
        let scores = [0.0, 5.0, 4.0, 0.1];
        let (a2, h2) = super::select_top_k(&mut t, a, h, &scores, 2);
        let av = t.value(a2);
        assert_eq!(av.shape(), (2, 2));
        assert_eq!(av[(0, 1)], 1.0, "edge 1-2 must survive");
        assert_eq!(av[(0, 0)], 0.0);
        let hv = t.value(h2);
        assert_eq!(hv[(0, 0)], 5.0);
        assert_eq!(hv[(1, 0)], 4.0);
    }

    #[test]
    fn gradients_flow_into_scorer_params() {
        let mut rng = Rng::from_seed(5);
        let mut store = ParamStore::<f64>::new();
        let m = GPool::new(&mut store, "gp", 3, 0.5, &mut rng);
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
        let gnorm = store.grad_norm();
        assert!(gnorm > 0.0, "projection vector received no gradient");
    }
}
