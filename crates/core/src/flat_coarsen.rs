//! Adapter turning a flat readout into a degenerate coarsening step.

use hap_autograd::{Tape, Var};
use hap_gnn::AdjacencyRef;
use hap_graph::GraphScalar;
use hap_pooling::{CoarsenModule, PoolCtx, Readout};

/// Wraps a flat [`Readout`] (MeanPool, MeanAttPool, …) as a
/// [`CoarsenModule`] that collapses the graph to a single node whose
/// feature is the readout.
///
/// This is how the Table 5 / Table 6 ablations plug flat pooling into the
/// hierarchical HAP framework: replacing the coarsening module with
/// MeanPool means the hierarchy bottoms out immediately — one cluster,
/// a `1×1` self-loop adjacency carrying the residual edge mass — which is
/// exactly the "flat pooling has no hierarchy" behaviour the ablation is
/// designed to expose.
pub struct FlatCoarsen<R> {
    readout: R,
}

impl<R> FlatCoarsen<R> {
    /// Wraps `readout`.
    pub fn new(readout: R) -> Self {
        Self { readout }
    }
}

impl<T: GraphScalar, R: Readout<T>> CoarsenModule<T> for FlatCoarsen<R> {
    fn forward(
        &self,
        tape: &mut Tape<T>,
        adj: AdjacencyRef<'_>,
        h: Var,
        ctx: &mut PoolCtx<'_>,
    ) -> (Var, Var) {
        let adj = adj.dense(tape);
        let pooled = self.readout.forward(tape, adj, h, ctx); // 1×F
                                                              // The 1×1 "adjacency" keeps the total edge mass as a self-loop so
                                                              // downstream degree normalisation stays well-defined.
        let mass = tape.sum_all(adj);
        let (r, c) = tape.shape(mass);
        debug_assert_eq!((r, c), (1, 1));
        (mass, pooled)
    }

    fn name(&self) -> &'static str {
        self.readout.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_pooling::MeanReadout;
    use hap_rand::Rng;
    use hap_tensor::Tensor;

    #[test]
    fn collapses_to_single_node() {
        let m = FlatCoarsen::new(MeanReadout);
        let mut rng = Rng::from_seed(1);
        let mut t = Tape::new();
        let a = t.constant(Tensor::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]));
        let h = t.constant(Tensor::from_rows(&[vec![2.0, 4.0], vec![4.0, 8.0]]));
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let (a2, h2) = m.forward(&mut t, AdjacencyRef::Dynamic(a), h, &mut ctx);
        assert_eq!(t.shape(a2), (1, 1));
        assert_eq!(t.value(a2)[(0, 0)], 2.0, "edge mass preserved");
        assert_eq!(t.shape(h2), (1, 2));
        assert_eq!(t.value(h2).row(0), &[3.0, 6.0]);
        assert_eq!(
            <FlatCoarsen<MeanReadout> as CoarsenModule>::name(&m),
            "MeanPool"
        );
    }
}
