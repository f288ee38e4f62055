//! SimGNN (Bai et al. 2019) — the GNN graph-similarity baseline of
//! Fig. 5.

use hap_autograd::{ParamStore, Tape, Var};
use hap_gnn::{AdjacencyRef, EncoderKind, GnnEncoder};
use hap_graph::Graph;
use hap_nn::{mse_scalar, Activation, Mlp};
use hap_pooling::{MeanAttReadout, PoolCtx, Readout};
use hap_rand::Rng;
use hap_tensor::Tensor;

/// SimGNN: GCN node embeddings, the content-attention graph readout of
/// Eq. 6–7 (the same mechanism as `MeanAttPool`), and a pairwise
/// interaction scorer.
///
/// The original's neural tensor network is simplified to an MLP over the
/// standard interaction features `[h₁∘h₂ ‖ |h₁−h₂|]` (the histogram
/// branch is omitted); the defining training signal is kept: SimGNN
/// regresses the *absolute* pairwise similarity `exp(-GED/scale)`, which
/// is exactly the "single-minded pursuit of pairwise absolute similarity"
/// the paper contrasts with HAP's relative objective (Sec. 6.4).
pub struct SimGnn {
    encoder: GnnEncoder,
    readout: MeanAttReadout,
    scorer: Mlp,
}

impl SimGnn {
    /// Builds SimGNN with a two-layer GCN encoder of width `hidden`.
    pub fn new(store: &mut ParamStore, in_dim: usize, hidden: usize, rng: &mut Rng) -> Self {
        Self {
            encoder: GnnEncoder::new(
                store,
                "simgnn.enc",
                EncoderKind::Gcn,
                &[in_dim, hidden, hidden],
                rng,
            ),
            readout: MeanAttReadout::new(store, "simgnn.att", hidden, rng),
            scorer: Mlp::new(
                store,
                "simgnn.score",
                &[2 * hidden, hidden, 1],
                Activation::Relu,
                rng,
            )
            .with_output_activation(Activation::Sigmoid),
        }
    }

    /// Graph embedding (`1×hidden`).
    fn embed(&self, tape: &mut Tape, g: (&Graph, &Tensor), ctx: &mut PoolCtx<'_>) -> Var {
        let x = tape.constant(g.1.clone());
        let a = tape.constant(g.0.dense_adjacency());
        let h = self.encoder.forward(tape, AdjacencyRef::Fixed(g.0), x);
        self.readout.forward(tape, a, h, ctx)
    }

    /// Predicted pairwise similarity `ŝ ∈ (0,1)` as a tape node.
    pub fn pair_score(
        &self,
        tape: &mut Tape,
        g1: (&Graph, &Tensor),
        g2: (&Graph, &Tensor),
        ctx: &mut PoolCtx<'_>,
    ) -> Var {
        let e1 = self.embed(tape, g1, ctx);
        let e2 = self.embed(tape, g2, ctx);
        let prod = tape.hadamard(e1, e2);
        let diff = tape.sub(e1, e2);
        // |x| = relu(x) + relu(-x)
        let pos = tape.relu(diff);
        let neg = tape.scale(diff, -1.0);
        let neg = tape.relu(neg);
        let absdiff = tape.add(pos, neg);
        let feats = tape.hstack(prod, absdiff);
        self.scorer.forward(tape, feats)
    }

    /// MSE regression loss against the ground-truth similarity
    /// `exp(-GED/scale)` (the SimGNN objective).
    pub fn loss(
        &self,
        tape: &mut Tape,
        g1: (&Graph, &Tensor),
        g2: (&Graph, &Tensor),
        target_similarity: f64,
        ctx: &mut PoolCtx<'_>,
    ) -> Var {
        let s = self.pair_score(tape, g1, g2, ctx);
        mse_scalar(tape, s, target_similarity)
    }

    /// Evaluation-path similarity as a plain number.
    pub fn score(
        &self,
        g1: (&Graph, &Tensor),
        g2: (&Graph, &Tensor),
        ctx: &mut PoolCtx<'_>,
    ) -> f64 {
        let mut tape = Tape::new();
        let s = self.pair_score(&mut tape, g1, g2, ctx);
        tape.scalar(s)
    }

    /// Converts a GED into SimGNN's normalised similarity target
    /// `exp(-2·GED/(n₁+n₂))` (the standard SimGNN normalisation).
    pub fn ged_to_similarity(ged: f64, n1: usize, n2: usize) -> f64 {
        (-2.0 * ged / (n1 + n2).max(1) as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_graph::{degree_one_hot, generators};
    use hap_rand::Rng;

    #[test]
    fn scores_are_probabilities() {
        let mut rng = Rng::from_seed(1);
        let mut store = ParamStore::new();
        let m = SimGnn::new(&mut store, 5, 8, &mut rng);
        let g1 = generators::erdos_renyi_connected(6, 0.4, &mut rng);
        let g2 = generators::erdos_renyi_connected(7, 0.4, &mut rng);
        let (x1, x2) = (degree_one_hot(&g1, 5), degree_one_hot(&g2, 5));
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };
        let s = m.score((&g1, &x1), (&g2, &x2), &mut ctx);
        assert!((0.0..=1.0).contains(&s), "score {s} outside (0,1)");
    }

    #[test]
    fn symmetric_in_its_arguments_up_to_interaction_features() {
        // hadamard and |diff| are symmetric, so the score must be too.
        let mut rng = Rng::from_seed(2);
        let mut store = ParamStore::new();
        let m = SimGnn::new(&mut store, 5, 8, &mut rng);
        let g1 = generators::erdos_renyi_connected(6, 0.4, &mut rng);
        let g2 = generators::star(7);
        let (x1, x2) = (degree_one_hot(&g1, 5), degree_one_hot(&g2, 5));
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };
        let s12 = m.score((&g1, &x1), (&g2, &x2), &mut ctx);
        let s21 = m.score((&g2, &x2), (&g1, &x1), &mut ctx);
        assert!((s12 - s21).abs() < 1e-9);
    }

    #[test]
    fn loss_trains() {
        let mut rng = Rng::from_seed(3);
        let mut store = ParamStore::new();
        let m = SimGnn::new(&mut store, 5, 8, &mut rng);
        let g1 = generators::erdos_renyi_connected(6, 0.4, &mut rng);
        let g2 = generators::erdos_renyi_connected(7, 0.4, &mut rng);
        let (x1, x2) = (degree_one_hot(&g1, 5), degree_one_hot(&g2, 5));
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let mut t = Tape::new();
        let loss = m.loss(&mut t, (&g1, &x1), (&g2, &x2), 0.7, &mut ctx);
        assert!(t.scalar(loss).is_finite());
        t.backward(loss);
        assert!(store.grad_norm() > 0.0);
    }

    #[test]
    fn ged_to_similarity_is_monotone() {
        let s0 = SimGnn::ged_to_similarity(0.0, 5, 5);
        let s2 = SimGnn::ged_to_similarity(2.0, 5, 5);
        let s5 = SimGnn::ged_to_similarity(5.0, 5, 5);
        assert_eq!(s0, 1.0);
        assert!(s0 > s2 && s2 > s5);
        assert!(s5 > 0.0);
    }
}
