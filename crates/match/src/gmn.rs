//! Graph Matching Network (Li et al. 2019) and the GMN-HAP hybrid of
//! Table 4.

use hap_autograd::{ParamStore, Tape, Var};
use hap_core::HapCoarsen;
use hap_gnn::AdjacencyRef;
use hap_graph::Graph;
use hap_nn::{bce_scalar, Linear};
use hap_pooling::{CoarsenModule, PoolCtx};
use hap_rand::Rng;
use hap_tensor::{CsrMatrix, Tensor};
use std::sync::Arc;

const DIST_EPS: f64 = 1e-12;

fn euclidean(tape: &mut Tape, a: Var, b: Var) -> Var {
    let sq = tape.squared_distance(a, b);
    let sq = tape.shift(sq, DIST_EPS);
    tape.sqrt(sq)
}

/// One GMN propagation layer's parameters.
struct GmnLayer {
    w_self: Linear,
    w_msg: Linear,
    w_cross: Linear,
}

/// The cross-graph attention message of GMN: each node of one graph
/// attends over the *other* graph's nodes (dot-product attention) and the
/// message is the difference `μ_i = h_i − Σ_j a_ij h_j^{other}` — the
/// mechanism that "makes the node embedding phase dependent on the pair"
/// (Sec. 6.3).
fn cross_message(tape: &mut Tape, h: Var, h_other: Var) -> Var {
    let scores = tape.matmul_nt(h, h_other); // N1×N2, fused H·H_otherᵀ
    let alpha = tape.softmax_rows(scores);
    let attended = tape.matmul(alpha, h_other); // N1×F
    tape.sub(h, attended)
}

/// Shared GMN encoder: `L` rounds of
/// `H ← ReLU(W_s H + Â (W_m H) + W_c μ)` where `μ` is the cross-graph
/// attention message and `Â` the symmetric-normalised adjacency.
struct GmnEncoder {
    layers: Vec<GmnLayer>,
    embed: Linear,
}

impl GmnEncoder {
    fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        depth: usize,
        rng: &mut Rng,
    ) -> Self {
        let embed = Linear::new(store, &format!("{name}.embed"), in_dim, hidden, true, rng);
        let layers = (0..depth)
            .map(|l| GmnLayer {
                w_self: Linear::new(
                    store,
                    &format!("{name}.l{l}.self"),
                    hidden,
                    hidden,
                    false,
                    rng,
                ),
                w_msg: Linear::new(
                    store,
                    &format!("{name}.l{l}.msg"),
                    hidden,
                    hidden,
                    false,
                    rng,
                ),
                w_cross: Linear::new(
                    store,
                    &format!("{name}.l{l}.cross"),
                    hidden,
                    hidden,
                    false,
                    rng,
                ),
            })
            .collect();
        Self { layers, embed }
    }

    /// Jointly encodes a pair, returning both node-feature matrices.
    fn encode_pair(
        &self,
        tape: &mut Tape,
        g1: (&Graph, &Tensor),
        g2: (&Graph, &Tensor),
    ) -> (Var, Var) {
        let a1 = g1.0.csr_adjacency_cached().matrix();
        let a2 = g2.0.csr_adjacency_cached().matrix();
        let x1 = tape.constant(g1.1.clone());
        let x2 = tape.constant(g2.1.clone());
        let mut h1 = self.embed.forward(tape, x1);
        let mut h2 = self.embed.forward(tape, x2);
        for layer in &self.layers {
            let (n1, n2) = (h1, h2);
            let next = |tape: &mut Tape, h: Var, a: &Arc<CsrMatrix>, other: Var| {
                let s = layer.w_self.forward(tape, h);
                let m = layer.w_msg.forward(tape, h);
                let agg = tape.spmm(a, m);
                let mu = cross_message(tape, h, other);
                let c = layer.w_cross.forward(tape, mu);
                let sum = tape.add(s, agg);
                let sum = tape.add(sum, c);
                tape.relu(sum)
            };
            h1 = next(tape, n1, a1, n2);
            h2 = next(tape, n2, a2, n1);
        }
        (h1, h2)
    }
}

/// The full GMN matcher: cross-graph encoder plus a gated-sum readout
/// `h_G = Σ_i σ(gate(h_i)) ∘ out(h_i)`; pairs are scored
/// `s = exp(-scale·‖h_{G₁} − h_{G₂}‖)` and trained with BCE.
pub struct Gmn {
    encoder: GmnEncoder,
    gate: Linear,
    out: Linear,
    scale: f64,
}

impl Gmn {
    /// Builds a GMN with `depth` propagation layers.
    pub fn new(
        store: &mut ParamStore,
        in_dim: usize,
        hidden: usize,
        depth: usize,
        rng: &mut Rng,
    ) -> Self {
        Self {
            encoder: GmnEncoder::new(store, "gmn", in_dim, hidden, depth, rng),
            gate: Linear::new(store, "gmn.gate", hidden, hidden, true, rng),
            out: Linear::new(store, "gmn.out", hidden, hidden, true, rng),
            scale: 0.5,
        }
    }

    fn readout(&self, tape: &mut Tape, h: Var) -> Var {
        let g = self.gate.forward(tape, h);
        let g = tape.sigmoid(g);
        let o = self.out.forward(tape, h);
        let gated = tape.hadamard(g, o);
        tape.col_sums(gated)
    }

    /// Pair similarity score `s ∈ (0,1)` as a tape node.
    pub fn pair_score(&self, tape: &mut Tape, g1: (&Graph, &Tensor), g2: (&Graph, &Tensor)) -> Var {
        let (h1, h2) = self.encoder.encode_pair(tape, g1, g2);
        let e1 = self.readout(tape, h1);
        let e2 = self.readout(tape, h2);
        let d = euclidean(tape, e1, e2);
        let nd = tape.scale(d, -self.scale);
        tape.exp(nd)
    }

    /// BCE matching loss for a labelled pair.
    pub fn loss(
        &self,
        tape: &mut Tape,
        g1: (&Graph, &Tensor),
        g2: (&Graph, &Tensor),
        label: f64,
    ) -> Var {
        let s = self.pair_score(tape, g1, g2);
        bce_scalar(tape, s, label)
    }

    /// Evaluation-path score as a plain number.
    pub fn score(&self, g1: (&Graph, &Tensor), g2: (&Graph, &Tensor)) -> f64 {
        let mut tape = Tape::new();
        let s = self.pair_score(&mut tape, g1, g2);
        tape.scalar(s)
    }
}

/// GMN-HAP (Table 4): the GMN cross-graph encoder with the gated-sum
/// pooling replaced by HAP graph coarsening modules; pairs are compared
/// hierarchically like [`hap_core::HapMatcher`].
pub struct GmnHap {
    encoder: GmnEncoder,
    coarseners: Vec<HapCoarsen>,
    scale: f64,
}

impl GmnHap {
    /// Builds the hybrid with HAP coarsening sizes `clusters` (e.g.
    /// `[8, 4]`).
    pub fn new(
        store: &mut ParamStore,
        in_dim: usize,
        hidden: usize,
        depth: usize,
        clusters: &[usize],
        rng: &mut Rng,
    ) -> Self {
        assert!(
            !clusters.is_empty(),
            "GMN-HAP needs at least one coarsening module"
        );
        let encoder = GmnEncoder::new(store, "gmnhap", in_dim, hidden, depth, rng);
        let coarseners = clusters
            .iter()
            .enumerate()
            .map(|(i, &n)| HapCoarsen::new(store, &format!("gmnhap.coarsen{i}"), hidden, n, rng))
            .collect();
        Self {
            encoder,
            coarseners,
            scale: 0.5,
        }
    }

    fn embed_hierarchy(
        &self,
        tape: &mut Tape,
        graph: &Graph,
        h0: Var,
        ctx: &mut PoolCtx<'_>,
    ) -> Vec<Var> {
        let mut a = AdjacencyRef::Fixed(graph);
        let mut h = h0;
        let mut out = Vec::new();
        for c in &self.coarseners {
            let (a2, h2) = c.forward(tape, a, h, ctx);
            a = AdjacencyRef::Dynamic(a2);
            h = h2;
            out.push(tape.col_means(h));
        }
        out
    }

    /// Per-level pair similarity scores.
    pub fn pair_scores(
        &self,
        tape: &mut Tape,
        g1: (&Graph, &Tensor),
        g2: (&Graph, &Tensor),
        ctx: &mut PoolCtx<'_>,
    ) -> Vec<Var> {
        let (h1, h2) = self.encoder.encode_pair(tape, g1, g2);
        let e1 = self.embed_hierarchy(tape, g1.0, h1, ctx);
        let e2 = self.embed_hierarchy(tape, g2.0, h2, ctx);
        e1.into_iter()
            .zip(e2)
            .map(|(a, b)| {
                let d = euclidean(tape, a, b);
                let nd = tape.scale(d, -self.scale);
                tape.exp(nd)
            })
            .collect()
    }

    /// Hierarchical BCE matching loss.
    pub fn loss(
        &self,
        tape: &mut Tape,
        g1: (&Graph, &Tensor),
        g2: (&Graph, &Tensor),
        label: f64,
        ctx: &mut PoolCtx<'_>,
    ) -> Var {
        let scores = self.pair_scores(tape, g1, g2, ctx);
        let k = scores.len();
        let mut acc: Option<Var> = None;
        for s in scores {
            let l = bce_scalar(tape, s, label);
            acc = Some(match acc {
                Some(a) => tape.add(a, l),
                None => l,
            });
        }
        let total = acc.expect("at least one level");
        tape.scale(total, 1.0 / k as f64)
    }

    /// Evaluation-path mean similarity.
    pub fn score(
        &self,
        g1: (&Graph, &Tensor),
        g2: (&Graph, &Tensor),
        ctx: &mut PoolCtx<'_>,
    ) -> f64 {
        let mut tape = Tape::new();
        let scores = self.pair_scores(&mut tape, g1, g2, ctx);
        let k = scores.len() as f64;
        scores.into_iter().map(|s| tape.scalar(s)).sum::<f64>() / k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_graph::{degree_one_hot, generators};
    use hap_rand::Rng;

    #[test]
    fn gmn_scores_identical_pair_as_one() {
        let mut rng = Rng::from_seed(1);
        let mut store = ParamStore::new();
        let gmn = Gmn::new(&mut store, 5, 8, 2, &mut rng);
        let g = generators::erdos_renyi_connected(7, 0.4, &mut rng);
        let x = degree_one_hot(&g, 5);
        let s = gmn.score((&g, &x), (&g, &x));
        assert!((s - 1.0).abs() < 1e-5, "self-similarity {s}");
    }

    #[test]
    fn gmn_loss_trains() {
        let mut rng = Rng::from_seed(2);
        let mut store = ParamStore::new();
        let gmn = Gmn::new(&mut store, 5, 8, 2, &mut rng);
        let g1 = generators::erdos_renyi_connected(6, 0.4, &mut rng);
        let g2 = generators::erdos_renyi_connected(9, 0.4, &mut rng);
        let (x1, x2) = (degree_one_hot(&g1, 5), degree_one_hot(&g2, 5));
        let mut t = Tape::new();
        let loss = gmn.loss(&mut t, (&g1, &x1), (&g2, &x2), 0.0);
        assert!(t.scalar(loss).is_finite());
        t.backward(loss);
        assert!(store.grad_norm() > 0.0);
    }

    #[test]
    fn cross_attention_makes_embedding_pair_dependent() {
        // The same graph must embed differently depending on its partner —
        // the defining property of GMN.
        let mut rng = Rng::from_seed(3);
        let mut store = ParamStore::new();
        let gmn = Gmn::new(&mut store, 5, 8, 2, &mut rng);
        let g = generators::erdos_renyi_connected(6, 0.4, &mut rng);
        let p1 = generators::erdos_renyi_connected(6, 0.4, &mut rng);
        let p2 = generators::star(9);
        let x = degree_one_hot(&g, 5);
        let (xp1, xp2) = (degree_one_hot(&p1, 5), degree_one_hot(&p2, 5));

        let embed_with = |partner: (&hap_graph::Graph, &Tensor)| {
            let mut t = Tape::new();
            let (h1, _h2) = gmn.encoder.encode_pair(&mut t, (&g, &x), partner);
            let e = gmn.readout(&mut t, h1);
            t.value(e).clone()
        };
        let e1 = embed_with((&p1, &xp1));
        let e2 = embed_with((&p2, &xp2));
        assert!(
            e1.as_slice()
                .iter()
                .zip(e2.as_slice())
                .any(|(a, b)| (a - b).abs() > 1e-9),
            "embedding ignored the partner graph"
        );
    }

    #[test]
    fn gmn_hap_hierarchical_scores_and_training() {
        let mut rng = Rng::from_seed(4);
        let mut store = ParamStore::new();
        let model = GmnHap::new(&mut store, 5, 8, 2, &[4, 2], &mut rng);
        let g1 = generators::erdos_renyi_connected(7, 0.4, &mut rng);
        let g2 = generators::erdos_renyi_connected(8, 0.4, &mut rng);
        let (x1, x2) = (degree_one_hot(&g1, 5), degree_one_hot(&g2, 5));
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let mut t = Tape::new();
        let loss = model.loss(&mut t, (&g1, &x1), (&g2, &x2), 1.0, &mut ctx);
        assert!(t.scalar(loss).is_finite());
        t.backward(loss);
        assert!(store.grad_norm() > 0.0);

        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };
        let s = model.score((&g1, &x1), (&g1, &x1), &mut ctx);
        assert!((s - 1.0).abs() < 1e-6, "self-similarity {s}");
    }
}
