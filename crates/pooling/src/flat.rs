//! Flat (universal and Top-K) readouts — Sec. 2.1.1 and 2.1.2.

use crate::{PoolCtx, Readout};
use hap_autograd::{Param, ParamStore, Tape, Var};
use hap_nn::{xavier_uniform, Linear};
use hap_rand::Rng;
use hap_tensor::{Scalar, Tensor};

/// Sum pooling (GIN-style; Xu et al. argue it is the most expressive
/// universal aggregator). `h_G = Σ_i h_i`.
#[derive(Default)]
pub struct SumReadout;

impl<T: Scalar> Readout<T> for SumReadout {
    fn forward(&self, tape: &mut Tape<T>, _adj: Var, h: Var, _ctx: &mut PoolCtx<'_>) -> Var {
        tape.col_sums(h)
    }

    fn name(&self) -> &'static str {
        "SumPool"
    }
}

/// Mean pooling. `h_G = (1/N) Σ_i h_i`.
#[derive(Default)]
pub struct MeanReadout;

impl<T: Scalar> Readout<T> for MeanReadout {
    fn forward(&self, tape: &mut Tape<T>, _adj: Var, h: Var, _ctx: &mut PoolCtx<'_>) -> Var {
        tape.col_means(h)
    }

    fn name(&self) -> &'static str {
        "MeanPool"
    }
}

/// Element-wise max pooling. `h_G[c] = max_i h_i[c]`.
#[derive(Default)]
pub struct MaxReadout;

impl<T: Scalar> Readout<T> for MaxReadout {
    fn forward(&self, tape: &mut Tape<T>, _adj: Var, h: Var, _ctx: &mut PoolCtx<'_>) -> Var {
        tape.col_maxes(h)
    }

    fn name(&self) -> &'static str {
        "MaxPool"
    }
}

/// SimGNN-style content attention (the paper's *MeanAttPool* baseline and
/// the *MA* mechanism of Eq. 6–7): a graph content `c = tanh(mean(H)·W)`
/// queries every node, `a_i = sigmoid(h_i · cᵀ)`, and the readout is the
/// attention-weighted sum `h_G = Σ_i a_i h_i`.
pub struct MeanAttReadout<T: Scalar = f64> {
    w: Param<T>,
}

impl<T: Scalar> MeanAttReadout<T> {
    /// Creates the readout for feature width `dim`.
    pub fn new(store: &mut ParamStore<T>, name: &str, dim: usize, rng: &mut Rng) -> Self {
        Self {
            w: store.new_param(format!("{name}.w"), xavier_uniform(dim, dim, rng)),
        }
    }
}

impl<T: Scalar> Readout<T> for MeanAttReadout<T> {
    fn forward(&self, tape: &mut Tape<T>, _adj: Var, h: Var, _ctx: &mut PoolCtx<'_>) -> Var {
        let w = tape.param(&self.w);
        let mean = tape.col_means(h); // 1×F
        let c = tape.matmul(mean, w); // 1×F
        let c = tape.tanh(c);
        let scores = tape.matmul_nt(h, c); // N×1, fused H·cᵀ
        let att = tape.sigmoid(scores);
        let weighted = tape.mul_col(h, att);
        tape.col_sums(weighted)
    }

    fn name(&self) -> &'static str {
        "MeanAttPool"
    }
}

/// Set2Set (Vinyals et al.) readout, with the documented simplification of
/// replacing the LSTM controller by a tanh recurrent cell: for `T`
/// processing steps, a query `q_t = tanh([q_{t-1} ‖ r_{t-1}]·W_q)` attends
/// over nodes, `r_t = Σ_i softmax(h_i·q_tᵀ) h_i`, and the readout is the
/// final `[q_T ‖ r_T]` (width `2F`). The defining mechanism — iterative
/// content-based attention with an order-invariant read — is preserved.
pub struct Set2SetReadout<T: Scalar = f64> {
    w_q: Param<T>,
    steps: usize,
    dim: usize,
}

impl<T: Scalar> Set2SetReadout<T> {
    /// Creates the readout with `steps` processing iterations.
    pub fn new(
        store: &mut ParamStore<T>,
        name: &str,
        dim: usize,
        steps: usize,
        rng: &mut Rng,
    ) -> Self {
        Self {
            w_q: store.new_param(format!("{name}.wq"), xavier_uniform(2 * dim, dim, rng)),
            steps: steps.max(1),
            dim,
        }
    }
}

impl<T: Scalar> Readout<T> for Set2SetReadout<T> {
    fn forward(&self, tape: &mut Tape<T>, _adj: Var, h: Var, _ctx: &mut PoolCtx<'_>) -> Var {
        let mut q = tape.constant(Tensor::zeros(1, self.dim));
        let mut r = tape.col_means(h); // informative start: mean read
        let w_q = tape.param(&self.w_q);
        for _ in 0..self.steps {
            let qr = tape.hstack(q, r); // 1×2F
            let qn = tape.matmul(qr, w_q); // 1×F
            q = tape.tanh(qn);
            let scores = tape.matmul_nt(h, q); // N×1, fused H·qᵀ
            let st = tape.transpose(scores); // 1×N
            let att = tape.softmax_rows(st); // 1×N distribution over nodes
            r = tape.matmul(att, h); // 1×F
        }
        tape.hstack(q, r)
    }

    fn out_dim(&self, in_dim: usize) -> usize {
        2 * in_dim
    }

    fn name(&self) -> &'static str {
        "Set2Set"
    }
}

/// SortPooling (DGCNN, Zhang et al.): sorts nodes by their last feature
/// channel (the "continuous WL color"), keeps the top `k` in sorted order,
/// and maps the flattened `k·F` block through a linear layer (standing in
/// for DGCNN's 1-D convolution). Short graphs are zero-padded.
pub struct SortPoolReadout<T: Scalar = f64> {
    k: usize,
    proj: Linear<T>,
}

impl<T: Scalar> SortPoolReadout<T> {
    /// Creates the readout keeping `k` nodes of width `dim`, projecting to
    /// `out_dim`.
    pub fn new(
        store: &mut ParamStore<T>,
        name: &str,
        dim: usize,
        k: usize,
        out_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        Self {
            k,
            proj: Linear::new(store, &format!("{name}.proj"), k * dim, out_dim, true, rng),
        }
    }
}

impl<T: Scalar> Readout<T> for SortPoolReadout<T> {
    fn forward(&self, tape: &mut Tape<T>, _adj: Var, h: Var, _ctx: &mut PoolCtx<'_>) -> Var {
        let (n, f) = tape.shape(h);
        // Sort rows by the last channel, descending (forward-only: the sort
        // order is data, the gathered values keep their gradients).
        let vals = tape.value(h);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            vals[(b, f - 1)]
                .partial_cmp(&vals[(a, f - 1)])
                .expect("non-NaN features")
        });
        order.truncate(self.k);

        // Zero-pad short graphs by appending a zero row and gathering it.
        let padded = if n < self.k {
            let zeros = tape.constant(Tensor::zeros(1, f));
            let stacked = tape.vstack(h, zeros);
            order.extend(std::iter::repeat(n).take(self.k - n));
            tape.gather_rows(stacked, &order)
        } else {
            tape.gather_rows(h, &order)
        };
        // Flatten k×F to 1×kF: reshape via transpose-free row-major read.
        let flat_vals = tape.value(padded);
        debug_assert_eq!(flat_vals.len(), self.k * f);
        // Keep the flatten on-tape: a k×F → 1×kF reshape is a gather of all
        // elements; express it as hstack of the k rows.
        let mut rows: Vec<Var> = (0..self.k)
            .map(|i| tape.gather_rows(padded, &[i]))
            .collect();
        let mut flat = rows.remove(0);
        for r in rows {
            flat = tape.hstack(flat, r);
        }
        self.proj.forward(tape, flat)
    }

    fn out_dim(&self, _in_dim: usize) -> usize {
        self.proj.out_dim()
    }

    fn name(&self) -> &'static str {
        "SortPooling"
    }
}

/// AttPool (Huang et al.): a global soft-attention scorer
/// `α = softmax(H·u)`, readout `h_G = Σ α_i h_i`. The *local* variant
/// folds node-degree information into the logits (`+ ln(1 + deg_i)`),
/// which "keeps a balance between importance and dispersion".
pub struct AttPoolReadout<T: Scalar = f64> {
    u: Param<T>,
    local: bool,
}

impl<T: Scalar> AttPoolReadout<T> {
    /// Global-attention variant.
    pub fn global(store: &mut ParamStore<T>, name: &str, dim: usize, rng: &mut Rng) -> Self {
        Self {
            u: store.new_param(format!("{name}.u"), xavier_uniform(dim, 1, rng)),
            local: false,
        }
    }

    /// Local (degree-aware) variant.
    pub fn local(store: &mut ParamStore<T>, name: &str, dim: usize, rng: &mut Rng) -> Self {
        Self {
            u: store.new_param(format!("{name}.u"), xavier_uniform(dim, 1, rng)),
            local: true,
        }
    }
}

impl<T: Scalar> Readout<T> for AttPoolReadout<T> {
    fn forward(&self, tape: &mut Tape<T>, adj: Var, h: Var, _ctx: &mut PoolCtx<'_>) -> Var {
        let u = tape.param(&self.u);
        let mut logits = tape.matmul(h, u); // N×1
        if self.local {
            let deg = tape.row_sums(adj); // N×1 (weighted degree)
            let deg1 = tape.shift(deg, 1.0);
            let logdeg = tape.ln(deg1);
            logits = tape.add(logits, logdeg);
        }
        let lt = tape.transpose(logits); // 1×N
        let att = tape.softmax_rows(lt);
        tape.matmul(att, h) // 1×F
    }

    fn name(&self) -> &'static str {
        if self.local {
            "AttPool-local"
        } else {
            "AttPool-global"
        }
    }
}

/// GCN-concat: the weakest Table 3 baseline — node representations are
/// combined with no pooling structure at all. With variable `N` a literal
/// concatenation is ill-defined, so (as in common re-implementations) the
/// per-layer node embeddings are averaged and the *layer* outputs
/// concatenated; this readout handles the final layer (mean), the layer
/// concatenation being the classifier's job.
#[derive(Default)]
pub struct GcnConcatReadout;

impl<T: Scalar> Readout<T> for GcnConcatReadout {
    fn forward(&self, tape: &mut Tape<T>, _adj: Var, h: Var, _ctx: &mut PoolCtx<'_>) -> Var {
        tape.col_means(h)
    }

    fn name(&self) -> &'static str {
        "GCN-concat"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_rand::Rng;
    use hap_tensor::testutil::assert_close;

    fn ctx_rng() -> Rng {
        Rng::from_seed(99)
    }

    fn setup(h: &Tensor) -> (Tape, Var, Var) {
        let mut t = Tape::new();
        let n = h.rows();
        let hv = t.constant(h.clone());
        let a = t.constant(Tensor::zeros(n, n));
        (t, a, hv)
    }

    #[test]
    fn sum_mean_max_values() {
        let h = Tensor::from_rows(&[vec![1.0, -2.0], vec![3.0, 4.0]]);
        let mut rng = ctx_rng();
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };

        let (mut t, a, hv) = setup(&h);
        let s = SumReadout.forward(&mut t, a, hv, &mut ctx);
        assert_close(t.value(s), &Tensor::row_vector(&[4.0, 2.0]), 1e-12);

        let (mut t, a, hv) = setup(&h);
        let m = MeanReadout.forward(&mut t, a, hv, &mut ctx);
        assert_close(t.value(m), &Tensor::row_vector(&[2.0, 1.0]), 1e-12);

        let (mut t, a, hv) = setup(&h);
        let x = MaxReadout.forward(&mut t, a, hv, &mut ctx);
        assert_close(t.value(x), &Tensor::row_vector(&[3.0, 4.0]), 1e-12);
    }

    #[test]
    fn mean_att_shape_and_bounds() {
        let mut rng = ctx_rng();
        let mut store = ParamStore::<f64>::new();
        let r = MeanAttReadout::new(&mut store, "ma", 4, &mut rng);
        let h = Tensor::rand_uniform(6, 4, -1.0, 1.0, &mut rng);
        let (mut t, a, hv) = setup(&h);
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let out = r.forward(&mut t, a, hv, &mut ctx);
        assert_eq!(t.shape(out), (1, 4));
        assert_eq!(r.out_dim(4), 4);
    }

    #[test]
    fn set2set_output_width_doubles() {
        let mut rng = ctx_rng();
        let mut store = ParamStore::<f64>::new();
        let r = Set2SetReadout::new(&mut store, "s2s", 3, 3, &mut rng);
        let h = Tensor::rand_uniform(5, 3, -1.0, 1.0, &mut rng);
        let (mut t, a, hv) = setup(&h);
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let out = r.forward(&mut t, a, hv, &mut ctx);
        assert_eq!(t.shape(out), (1, 6));
        assert_eq!(r.out_dim(3), 6);
    }

    #[test]
    fn set2set_is_node_order_invariant() {
        let mut rng = ctx_rng();
        let mut store = ParamStore::<f64>::new();
        let r = Set2SetReadout::new(&mut store, "s2s", 3, 2, &mut rng);
        let h = Tensor::rand_uniform(5, 3, -1.0, 1.0, &mut rng);
        let perm = hap_graph::Permutation::from_vec(vec![4, 2, 0, 1, 3]);
        let hp = perm.apply_rows(&h);

        let mut out = Vec::new();
        for feats in [&h, &hp] {
            let (mut t, a, hv) = setup(feats);
            let mut ctx = PoolCtx {
                training: false,
                rng: &mut rng,
            };
            let o = r.forward(&mut t, a, hv, &mut ctx);
            out.push(t.value(o).clone());
        }
        assert_close(&out[0], &out[1], 1e-10);
    }

    #[test]
    fn sortpool_selects_by_last_channel_and_pads() {
        let mut rng = ctx_rng();
        let mut store = ParamStore::<f64>::new();
        let r = SortPoolReadout::new(&mut store, "sp", 2, 3, 4, &mut rng);
        // 2 nodes < k=3: must pad
        let h = Tensor::from_rows(&[vec![1.0, 0.5], vec![2.0, 0.9]]);
        let (mut t, a, hv) = setup(&h);
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let out = r.forward(&mut t, a, hv, &mut ctx);
        assert_eq!(t.shape(out), (1, 4));
        assert_eq!(r.out_dim(2), 4);
    }

    #[test]
    fn attpool_local_prefers_high_degree() {
        let mut rng = ctx_rng();
        let mut store = ParamStore::<f64>::new();
        let r = AttPoolReadout::local(&mut store, "ap", 2, &mut rng);
        // zero the scorer so only degree drives attention
        store.iter().next().unwrap().set_value(Tensor::zeros(2, 1));
        let h = Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let mut t = Tape::new();
        let hv = t.constant(h);
        let mut adj = Tensor::zeros(2, 2);
        adj[(0, 1)] = 1.0;
        adj[(1, 0)] = 1.0;
        adj[(0, 0)] = 5.0; // node 0 has much higher weighted degree
        let a = t.constant(adj);
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };
        let out = r.forward(&mut t, a, hv, &mut ctx);
        let v = t.value(out);
        assert!(
            v[(0, 0)] > v[(0, 1)],
            "high-degree node should dominate: {v:?}"
        );
    }

    fn name_of<R: Readout>(r: &R) -> &'static str {
        r.name()
    }

    #[test]
    fn readout_names() {
        let mut rng = ctx_rng();
        let mut store = ParamStore::<f64>::new();
        assert_eq!(name_of(&SumReadout), "SumPool");
        assert_eq!(name_of(&MeanReadout), "MeanPool");
        assert_eq!(name_of(&MaxReadout), "MaxPool");
        assert_eq!(name_of(&GcnConcatReadout), "GCN-concat");
        assert_eq!(
            AttPoolReadout::global(&mut store, "g", 2, &mut rng).name(),
            "AttPool-global"
        );
        assert_eq!(
            AttPoolReadout::local(&mut store, "l", 2, &mut rng).name(),
            "AttPool-local"
        );
    }
}
