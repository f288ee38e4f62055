//! Graph attention layer (Eq. 11 / Eq. 16).

use crate::AdjacencyRef;
use hap_autograd::{Param, ParamStore, Tape, Var};
use hap_graph::GraphScalar;
use hap_nn::{xavier_uniform, Activation, Linear};
use hap_rand::Rng;
use hap_tensor::{CsrMatrix, Scalar, Tensor};
use std::sync::Arc;

/// One (single-head) GAT layer.
///
/// Scores follow Eq. 16: `e_ij = LeakyReLU(aᵀ[Wh_i ‖ Wh_j])`, computed as
/// the rank-1 decomposition `e_ij = s1_i + s2_j` with `s1 = Wh·a₁`,
/// `s2 = Wh·a₂` (the standard GAT implementation trick — identical values,
/// no `2F'`-wide concatenation materialised). Scores exist only on the
/// admitted pairs — the 1-hop neighbourhood plus self-loop — as an edge
/// list: each node's scores are softmaxed over its own edges (this
/// realises `A_k O_att` of Eq. 11) and aggregate `H' = σ(α · W H)`.
///
/// The edge list is bitwise equivalent to a dense `n × n` attention whose
/// non-edges carry a large negative additive mask: those logits underflow
/// to exactly `0` after the softmax, and the dense kernels add the
/// resulting `+0.0` terms exactly. Because no score crosses an edge that
/// is not stored, a block-diagonal batch attends exactly as each graph
/// alone.
///
/// On [`AdjacencyRef::Dynamic`] graphs every pair whose current adjacency
/// weight exceeds `1e-8` is admitted — after HAP's soft sampling the
/// coarsened graph is dense, giving the "fully-connected information
/// channel" of Sec. 4.4.2.
pub struct GatLayer<T: GraphScalar = f64> {
    linear: Linear<T>,
    att_src: Param<T>,
    att_dst: Param<T>,
    activation: Activation,
    leaky_slope: f64,
}

/// The admitted attention pairs in row-major order: edge `e` runs from
/// node `rows[e]` to node `cols[e]`, and `indptr` segments the edges by
/// row for the segment kernels. Every row holds at least its self-loop,
/// so no segment is empty.
struct Edges {
    rows: Vec<usize>,
    cols: Vec<usize>,
    indptr: Arc<Vec<usize>>,
}

impl Edges {
    /// Builds the list from each row's admitted columns, which
    /// `admit(u, out)` pushes in ascending order; the self-loop is inserted
    /// where a row lacks it.
    fn new(n: usize, mut admit: impl FnMut(usize, &mut Vec<usize>)) -> Self {
        let (mut rows, mut cols) = (Vec::new(), Vec::new());
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0);
        for u in 0..n {
            let start = cols.len();
            admit(u, &mut cols);
            if let Err(pos) = cols[start..].binary_search(&u) {
                cols.insert(start + pos, u);
            }
            rows.resize(cols.len(), u);
            indptr.push(cols.len());
        }
        Self {
            rows,
            cols,
            indptr: Arc::new(indptr),
        }
    }

    /// The stored entries of a CSR `Â` (one graph or a block-diagonal
    /// batch) plus the diagonal.
    fn of_csr<T: Scalar>(a_hat: &CsrMatrix<T>) -> Self {
        Self::new(a_hat.rows(), |u, out| out.extend_from_slice(a_hat.row(u).0))
    }

    /// The structure of `adj`: fixed graphs use their cached CSR `Â`;
    /// a tape-resident adjacency admits the entries above `1e-8`.
    /// Structure is data, not a differentiable quantity — same as
    /// `edge_index` in PyG.
    fn of<T: GraphScalar>(tape: &Tape<T>, adj: AdjacencyRef<'_>) -> Self {
        match adj {
            AdjacencyRef::Fixed(g) => Self::of_csr(T::csr_of(g)),
            AdjacencyRef::Dynamic(a) => {
                let av = tape.value(a);
                Self::new(av.rows(), |u, out| {
                    out.extend((0..av.cols()).filter(|&v| av[(u, v)].to_f64() > 1e-8));
                })
            }
        }
    }
}

impl<T: GraphScalar> GatLayer<T> {
    /// Creates a layer with ReLU output activation and the GAT-standard
    /// LeakyReLU(0.2) on attention logits.
    pub fn new(
        store: &mut ParamStore<T>,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        Self::with_activation(store, name, in_dim, out_dim, Activation::Relu, rng)
    }

    /// Creates a layer with an explicit output activation.
    pub fn with_activation(
        store: &mut ParamStore<T>,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut Rng,
    ) -> Self {
        let linear = Linear::new(store, &format!("{name}.lin"), in_dim, out_dim, false, rng);
        let att_src = store.new_param(format!("{name}.att_src"), xavier_uniform(out_dim, 1, rng));
        let att_dst = store.new_param(format!("{name}.att_dst"), xavier_uniform(out_dim, 1, rng));
        Self {
            linear,
            att_src,
            att_dst,
            activation,
            leaky_slope: 0.2,
        }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.linear.in_dim()
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.linear.out_dim()
    }

    /// Applies the layer, returning `N × out_dim` features.
    pub fn forward(&self, tape: &mut Tape<T>, adj: AdjacencyRef<'_>, h: Var) -> Var {
        let edges = Edges::of(tape, adj);
        self.propagate(tape, &edges, h)
    }

    /// Applies the layer over an explicit CSR propagation matrix (a single
    /// graph's `Â` or a block-diagonal batch of them), attending over its
    /// stored entries plus the diagonal.
    pub fn forward_csr(&self, tape: &mut Tape<T>, a_hat: &CsrMatrix<T>, h: Var) -> Var {
        self.propagate(tape, &Edges::of_csr(a_hat), h)
    }

    /// The attention coefficients as a dense `N × N` matrix, zero off the
    /// admitted pairs — for inspection and visualisation.
    pub fn attention(&self, tape: &mut Tape<T>, adj: AdjacencyRef<'_>, h: Var) -> Tensor<T> {
        let n = adj.n(tape);
        let edges = Edges::of(tape, adj);
        let (_, alpha) = self.attend(tape, &edges, h);
        let alpha = tape.value(alpha);
        let mut dense = Tensor::zeros(n, n);
        for (e, (&r, &c)) in edges.rows.iter().zip(&edges.cols).enumerate() {
            dense[(r, c)] = alpha[(e, 0)];
        }
        dense
    }

    /// Records `Wh` and the per-edge attention `α` (`E × 1`), in the op
    /// order of the dense formulation, so gradient contributions reach
    /// `Wh` in the same sequence.
    fn attend(&self, tape: &mut Tape<T>, edges: &Edges, h: Var) -> (Var, Var) {
        let wh = self.linear.forward(tape, h); // N×F'
        let a_src = tape.param(&self.att_src); // F'×1
        let a_dst = tape.param(&self.att_dst);
        let s1 = tape.matmul(wh, a_src); // N×1
        let s2 = tape.matmul(wh, a_dst); // N×1
        let e_dst = tape.gather_rows(s2, &edges.cols); // E×1: s2_j
        let e_src = tape.gather_rows(s1, &edges.rows); // E×1: s1_i
        let e = tape.add(e_dst, e_src);
        let e = tape.leaky_relu(e, self.leaky_slope);
        (wh, tape.segment_softmax(e, &edges.indptr))
    }

    /// `σ(Σ_j α_ij · Wh_j)` over `edges`.
    fn propagate(&self, tape: &mut Tape<T>, edges: &Edges, h: Var) -> Var {
        let (wh, alpha) = self.attend(tape, edges, h);
        let msg = tape.gather_rows(wh, &edges.cols); // E×F': Wh_j
        let msg = tape.mul_col(msg, alpha);
        let agg = tape.segment_sums(msg, &edges.indptr);
        self.activation.apply(tape, agg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_autograd::check_param_grad;
    use hap_graph::{generators, Graph};
    use hap_rand::Rng;

    #[test]
    fn output_shape() {
        let mut rng = Rng::from_seed(1);
        let mut store = ParamStore::<f64>::new();
        let layer = GatLayer::new(&mut store, "gat", 4, 6, &mut rng);
        let g = generators::cycle(5);
        let mut t = Tape::new();
        let h = t.constant(Tensor::ones(5, 4));
        let out = layer.forward(&mut t, AdjacencyRef::Fixed(&g), h);
        assert_eq!(t.shape(out), (5, 6));
        assert_eq!(store.len(), 3); // W, a_src, a_dst
    }

    #[test]
    fn attention_rows_are_distributions_on_neighbourhood() {
        let mut rng = Rng::from_seed(2);
        let mut store = ParamStore::<f64>::new();
        let layer = GatLayer::new(&mut store, "gat", 3, 4, &mut rng);
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)]); // node 3 isolated
        let mut t = Tape::new();
        let h = t.constant(Tensor::rand_uniform(4, 3, -1.0, 1.0, &mut rng));
        let a = layer.attention(&mut t, AdjacencyRef::Fixed(&g), h);
        for r in 0..4 {
            let sum: f64 = a.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {r} sums to {sum}");
        }
        // non-neighbours get (numerically) zero attention
        assert!(a[(0, 2)] < 1e-12);
        assert!(a[(0, 3)] < 1e-12);
        // isolated node attends only to itself
        assert!((a[(3, 3)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gradcheck_all_parameters() {
        let mut rng = Rng::from_seed(3);
        let mut store = ParamStore::<f64>::new();
        let layer = GatLayer::with_activation(&mut store, "gat", 3, 3, Activation::Tanh, &mut rng);
        let g = generators::erdos_renyi_connected(5, 0.5, &mut rng);
        let x = Tensor::rand_uniform(5, 3, -1.0, 1.0, &mut rng);

        let params: Vec<_> = store.iter().cloned().collect();
        assert_eq!(params.len(), 3);
        for p in &params {
            let xc = x.clone();
            let gc = g.clone();
            check_param_grad(p, 1e-5, |t| {
                let h = t.constant(xc.clone());
                let out = layer.forward(t, AdjacencyRef::Fixed(&gc), h);
                let sq = t.hadamard(out, out);
                t.sum_all(sq)
            });
        }
    }

    #[test]
    fn f32_attention_rows_are_distributions_on_neighbourhood() {
        let mut rng = Rng::from_seed(2);
        let mut store = ParamStore::<f32>::new();
        let layer = GatLayer::new(&mut store, "gat", 3, 4, &mut rng);
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)]); // node 3 isolated
        let mut t = Tape::new();
        let h = t.constant(Tensor::<f32>::rand_uniform(4, 3, -1.0, 1.0, &mut rng));
        let a = layer.attention(&mut t, AdjacencyRef::Fixed(&g), h);
        for r in 0..4 {
            let sum: f32 = a.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        assert!(a[(0, 2)] < 1e-12);
        assert!((a[(3, 3)] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn dynamic_dense_adjacency_is_fully_connected_attention() {
        let mut rng = Rng::from_seed(4);
        let mut store = ParamStore::<f64>::new();
        let layer = GatLayer::new(&mut store, "gat", 3, 3, &mut rng);
        let mut t = Tape::new();
        let a = t.constant(Tensor::full(4, 4, 0.25)); // dense soft-sampled adjacency
        let h = t.constant(Tensor::rand_uniform(4, 3, -1.0, 1.0, &mut rng));
        let av = layer.attention(&mut t, AdjacencyRef::Dynamic(a), h);
        // every entry positive: full information channel
        assert!(av.min() > 0.0);
    }
}
