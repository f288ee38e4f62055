//! ASAP (Ranjan et al.) — adaptive structure-aware pooling, the hybrid
//! Top-K + grouping baseline of Sec. 2.1.3.

use crate::{ratio_to_k, CoarsenModule, PoolCtx};
use hap_autograd::{ParamStore, Tape, Var};
use hap_gnn::{AdjacencyRef, GatLayer};
use hap_graph::GraphScalar;
use hap_nn::{Activation, Linear};
use hap_rand::Rng;
use hap_tensor::Tensor;

/// ASAP coarsening, with the two documented simplifications noted below.
///
/// Pipeline (per the original paper):
/// 1. **Cluster formation** — each node is the medoid of its 1-hop ego
///    network; a master-attention aggregator builds the cluster
///    representation. *Simplification:* the Master2Token attention is
///    realised with a neighbourhood-masked attention layer
///    ([`GatLayer`]), which computes the same ego-network-restricted
///    weighted aggregation with the master folded into the query.
/// 2. **Cluster scoring** — LEConv fitness
///    `φ = σ(X·w₁ + deg∘(X·w₂) − A·(X·w₃))`, implemented exactly.
/// 3. **Selection** — the top `⌈r·N⌉` clusters survive, their
///    representations gated by fitness. *Simplification:* the coarsened
///    adjacency is the (A + A²) connectivity restricted to the selected
///    medoids — the same "maintain connectivity through shared ego
///    networks" effect as ASAP's `SᵀAS` with ego-masked `S`.
pub struct Asap<T: GraphScalar = f64> {
    former: GatLayer<T>,
    w1: Linear<T>,
    w2: Linear<T>,
    w3: Linear<T>,
    ratio: f64,
}

impl<T: GraphScalar> Asap<T> {
    /// Creates an ASAP module for feature width `dim` keeping `ratio` of
    /// the clusters.
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
            former: GatLayer::with_activation(
                store,
                &format!("{name}.former"),
                dim,
                dim,
                Activation::Relu,
                rng,
            ),
            w1: Linear::new(store, &format!("{name}.le1"), dim, 1, false, rng),
            w2: Linear::new(store, &format!("{name}.le2"), dim, 1, false, rng),
            w3: Linear::new(store, &format!("{name}.le3"), dim, 1, false, rng),
            ratio,
        }
    }

    /// LEConv cluster fitness scores (`N×1`).
    fn fitness(&self, tape: &mut Tape<T>, adj: Var, c: Var) -> Var {
        let s1 = self.w1.forward(tape, c);
        let s2 = self.w2.forward(tape, c);
        let s3 = self.w3.forward(tape, c);
        let deg = tape.row_sums(adj); // N×1
        let local = tape.hadamard(deg, s2);
        let spread = tape.matmul(adj, s3);
        let diff = tape.sub(local, spread);
        let sum = tape.add(s1, diff);
        tape.sigmoid(sum)
    }
}

impl<T: GraphScalar> CoarsenModule<T> for Asap<T> {
    fn forward(
        &self,
        tape: &mut Tape<T>,
        adj: AdjacencyRef<'_>,
        h: Var,
        _ctx: &mut PoolCtx<'_>,
    ) -> (Var, Var) {
        let adj = adj.dense(tape);
        let n = tape.shape(h).0;
        // 1. ego-network cluster representations
        let c = self.former.forward(tape, AdjacencyRef::Dynamic(adj), h);
        // 2. LEConv fitness
        let phi = self.fitness(tape, adj, c);
        let gated = tape.mul_col(c, phi);
        // 3. select top clusters by fitness
        let scores = tape.value(phi).col(0);
        let k = ratio_to_k(n, self.ratio);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("non-NaN fitness"));
        order.truncate(k);
        order.sort_unstable();

        let h_new = tape.gather_rows(gated, &order);
        // connectivity through shared ego networks: A + A²
        let a2 = tape.matmul(adj, adj);
        let reach = tape.add(adj, a2);
        let rows = tape.gather_rows(reach, &order);
        let rows_t = tape.transpose(rows);
        let cols = tape.gather_rows(rows_t, &order);
        let mut a_sel = tape.transpose(cols);
        // zero the diagonal (self-reach from A² is not an edge)
        let mask = {
            let mut m = Tensor::<T>::ones(k, k);
            for i in 0..k {
                m[(i, i)] = T::ZERO;
            }
            tape.constant(m)
        };
        a_sel = tape.hadamard(a_sel, mask);
        (a_sel, h_new)
    }

    fn name(&self) -> &'static str {
        "ASAP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_graph::generators;
    use hap_rand::Rng;

    #[test]
    fn coarsens_with_two_hop_connectivity() {
        // On a path 0-1-2-3-4, selecting alternating nodes {0,2,4} keeps
        // them connected through A² even though A alone would not.
        let mut rng = Rng::from_seed(1);
        let mut store = ParamStore::<f64>::new();
        let m = Asap::new(&mut store, "asap", 3, 0.6, &mut rng);
        let g = generators::path(5);
        let mut t = Tape::new();
        let a = t.constant(g.dense_adjacency());
        let h = t.constant(Tensor::rand_uniform(5, 3, -1.0, 1.0, &mut rng));
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let (a2, h2) = m.forward(&mut t, AdjacencyRef::Dynamic(a), h, &mut ctx);
        assert_eq!(t.shape(a2), (3, 3));
        assert_eq!(t.shape(h2), (3, 3));
        let av = t.value(a2);
        // diagonal zeroed
        for i in 0..3 {
            assert_eq!(av[(i, i)], 0.0);
        }
        assert!(av.all_finite());
    }

    #[test]
    fn fitness_is_in_unit_interval() {
        let mut rng = Rng::from_seed(2);
        let mut store = ParamStore::<f64>::new();
        let m = Asap::new(&mut store, "asap", 4, 0.5, &mut rng);
        let g = generators::erdos_renyi_connected(7, 0.4, &mut rng);
        let mut t = Tape::new();
        let a = t.constant(g.dense_adjacency());
        let h = t.constant(Tensor::rand_uniform(7, 4, -1.0, 1.0, &mut rng));
        let phi = m.fitness(&mut t, a, h);
        let v = t.value(phi);
        assert_eq!(v.shape(), (7, 1));
        assert!(v.min() >= 0.0 && v.max() <= 1.0);
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let mut rng = Rng::from_seed(3);
        let mut store = ParamStore::<f64>::new();
        let m = Asap::new(&mut store, "asap", 3, 0.5, &mut rng);
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
        let with_grad = store
            .iter()
            .filter(|p| p.grad().frobenius_norm() > 0.0)
            .count();
        // w3 may get zero gradient only in degenerate cases; require most
        // parameters to participate.
        assert!(
            with_grad >= store.len() - 1,
            "only {with_grad} of {} params trained",
            store.len()
        );
    }
}
