//! Graph convolution layer (Eq. 12).

use crate::AdjacencyRef;
use hap_autograd::{ParamStore, Tape, Var};
use hap_graph::GraphScalar;
use hap_nn::{Activation, Linear};
use hap_rand::Rng;
use hap_tensor::{CsrMatrix, Tensor};
use std::sync::Arc;

/// One GCN layer: `H' = σ(Â H W)` with `Â = D̃^{-1/2}(A+I)D̃^{-1/2}`
/// (Kipf & Welling; the paper's Eq. 12).
///
/// Generic over the tensor element type (default `f64`); a fixed graph
/// serves its propagation matrices in `T` via [`GraphScalar`].
pub struct GcnLayer<T: GraphScalar = f64> {
    linear: Linear<T>,
    activation: Activation,
}

impl<T: GraphScalar> GcnLayer<T> {
    /// Creates a layer with ReLU activation (the paper's default σ).
    pub fn new(
        store: &mut ParamStore<T>,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        Self::with_activation(store, name, in_dim, out_dim, Activation::Relu, rng)
    }

    /// Creates a layer with an explicit activation.
    pub fn with_activation(
        store: &mut ParamStore<T>,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut Rng,
    ) -> Self {
        Self {
            linear: Linear::new(store, name, in_dim, out_dim, false, rng),
            activation,
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

    /// Applies the layer: `σ(Â · H · W)`.
    ///
    /// A [`AdjacencyRef::Fixed`] graph propagates over its cached CSR `Â`
    /// ([`GcnLayer::forward_csr`]); a [`AdjacencyRef::Dynamic`] adjacency
    /// is normalised on the tape and multiplied densely.
    pub fn forward(&self, tape: &mut Tape<T>, adj: AdjacencyRef<'_>, h: Var) -> Var {
        match adj {
            AdjacencyRef::Fixed(g) => self.forward_csr(tape, T::csr_of(g), h),
            AdjacencyRef::Dynamic(a) => {
                let a_hat = sym_norm_on_tape(tape, a);
                let agg = tape.matmul(a_hat, h);
                self.transform(tape, agg)
            }
        }
    }

    /// Applies the layer over an explicit CSR propagation matrix (a single
    /// graph's `Â` or a block-diagonal batch of them): `σ(S · H · W)`.
    pub fn forward_csr(&self, tape: &mut Tape<T>, a_hat: &Arc<CsrMatrix<T>>, h: Var) -> Var {
        let agg = tape.spmm(a_hat, h);
        self.transform(tape, agg)
    }

    /// `σ(agg · W)`, shared by both propagation forms.
    fn transform(&self, tape: &mut Tape<T>, agg: Var) -> Var {
        let lin = self.linear.forward(tape, agg);
        self.activation.apply(tape, lin)
    }
}

/// Records `D̃^{-1/2}(A+I)D̃^{-1/2}` of a tape-resident adjacency, so
/// gradients flow through the normalisation.
fn sym_norm_on_tape<T: GraphScalar>(tape: &mut Tape<T>, a: Var) -> Var {
    let (n, m) = tape.shape(a);
    assert_eq!(n, m, "adjacency must be square");
    let eye = tape.constant(Tensor::eye(n));
    let a_tilde = tape.add(a, eye);
    let deg = tape.row_sums(a_tilde); // N×1, strictly positive
    let inv_sqrt = tape.pow_const(deg, -0.5);
    let left = tape.mul_col(a_tilde, inv_sqrt);
    let inv_sqrt_row = tape.transpose(inv_sqrt);
    tape.mul_row(left, inv_sqrt_row)
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
        let layer = GcnLayer::new(&mut store, "gcn", 4, 8, &mut rng);
        let g = generators::cycle(5);
        let mut t = Tape::new();
        let h = t.constant(Tensor::ones(5, 4));
        let out = layer.forward(&mut t, AdjacencyRef::Fixed(&g), h);
        assert_eq!(t.shape(out), (5, 8));
    }

    #[test]
    fn isolated_graph_behaves_like_per_node_mlp() {
        // With no edges, Â = I, so GCN reduces to a per-node linear map.
        let mut rng = Rng::from_seed(2);
        let mut store = ParamStore::<f64>::new();
        let layer =
            GcnLayer::with_activation(&mut store, "gcn", 3, 3, Activation::Identity, &mut rng);
        let g = Graph::empty(4);
        let x = Tensor::rand_uniform(4, 3, -1.0, 1.0, &mut rng);

        let mut t = Tape::new();
        let h = t.constant(x.clone());
        let out = layer.forward(&mut t, AdjacencyRef::Fixed(&g), h);
        let expect = x.matmul(&layer.linear.weight().value());
        hap_tensor::testutil::assert_close(t.value(out), &expect, 1e-12);
    }

    #[test]
    fn dynamic_adjacency_matches_fixed() {
        // Feeding the same adjacency as a tape constant through the
        // Dynamic path must agree with the precomputed Fixed path.
        let mut rng = Rng::from_seed(3);
        let mut store = ParamStore::<f64>::new();
        let layer = GcnLayer::new(&mut store, "gcn", 4, 4, &mut rng);
        let g = generators::erdos_renyi_connected(6, 0.4, &mut rng);
        let x = Tensor::rand_uniform(6, 4, -1.0, 1.0, &mut rng);

        let mut t1 = Tape::new();
        let h1 = t1.constant(x.clone());
        let out1 = layer.forward(&mut t1, AdjacencyRef::Fixed(&g), h1);

        let mut t2 = Tape::new();
        let h2 = t2.constant(x);
        let a = t2.constant(g.dense_adjacency());
        let out2 = layer.forward(&mut t2, AdjacencyRef::Dynamic(a), h2);

        hap_tensor::testutil::assert_close(t1.value(out1), t2.value(out2), 1e-10);
    }

    #[test]
    fn sparse_dispatch_is_bitwise_equal_to_dense_path() {
        let mut rng = Rng::from_seed(9);
        let mut store = ParamStore::<f64>::new();
        let layer = GcnLayer::new(&mut store, "gcn", 4, 4, &mut rng);
        let g = generators::erdos_renyi_connected(30, 0.08, &mut rng);
        let x = Tensor::rand_uniform(30, 4, -1.0, 1.0, &mut rng);

        // Fixed path: propagates over the cached CSR with SpMM.
        let mut t1 = Tape::new();
        let h1 = t1.constant(x.clone());
        let out1 = layer.forward(&mut t1, AdjacencyRef::Fixed(&g), h1);
        let l1 = t1.sum_all(out1);
        t1.backward(l1);

        // Dense oracle: the from-scratch Â as a constant, then matmul.
        let mut t2 = Tape::new();
        let h2 = t2.constant(x);
        let a = t2.constant(g.sym_norm_adjacency());
        let agg = t2.matmul(a, h2);
        let out2 = layer.transform(&mut t2, agg);
        let l2 = t2.sum_all(out2);
        t2.backward(l2);

        for (which, (a, b)) in [
            ("value", (t1.value(out1).clone(), t2.value(out2).clone())),
            ("dH", (t1.grad(h1), t2.grad(h2))),
        ] {
            assert_eq!(a.shape(), b.shape());
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{which}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn f32_sparse_dispatch_is_bitwise_equal_to_dense_path() {
        // The sparse/dense byte-identity contract holds per dtype: the f32
        // dense kernel skips exactly the zeros the f32 CSR cast dropped.
        let mut rng = Rng::from_seed(9);
        let mut store = ParamStore::<f32>::new();
        let layer = GcnLayer::new(&mut store, "gcn", 4, 4, &mut rng);
        let g = generators::erdos_renyi_connected(30, 0.08, &mut rng);
        let x = Tensor::<f32>::rand_uniform(30, 4, -1.0, 1.0, &mut rng);

        let mut t1 = Tape::new();
        let h1 = t1.constant(x.clone());
        let out1 = layer.forward(&mut t1, AdjacencyRef::Fixed(&g), h1);

        let mut t2 = Tape::new();
        let h2 = t2.constant(x);
        let a = t2.constant(g.sym_norm_adjacency().cast::<f32>());
        let agg = t2.matmul(a, h2);
        let out2 = layer.transform(&mut t2, agg);

        let (v1, v2) = (t1.value(out1), t2.value(out2));
        assert_eq!(v1.shape(), v2.shape());
        for (x, y) in v1.as_slice().iter().zip(v2.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn f32_gradcheck_weights_through_dynamic_normalisation() {
        use hap_autograd::{check_param_grad_default, default_gradcheck_tol};
        assert!(default_gradcheck_tol::<f32>() > default_gradcheck_tol::<f64>());
        let mut rng = Rng::from_seed(4);
        let mut store = ParamStore::<f32>::new();
        let layer = GcnLayer::with_activation(&mut store, "gcn", 3, 2, Activation::Tanh, &mut rng);
        let g = generators::erdos_renyi_connected(5, 0.5, &mut rng);
        let x = Tensor::<f32>::rand_uniform(5, 3, -1.0, 1.0, &mut rng);
        let adj: Tensor<f32> = g.dense_adjacency().cast();

        let params: Vec<_> = store.iter().cloned().collect();
        for p in &params {
            let (xc, ac) = (x.clone(), adj.clone());
            check_param_grad_default(p, |t| {
                let h = t.constant(xc.clone());
                let a = t.constant(ac.clone());
                let out = layer.forward(t, AdjacencyRef::Dynamic(a), h);
                let sq = t.hadamard(out, out);
                t.sum_all(sq)
            });
        }
    }

    #[test]
    fn gradcheck_weights_through_dynamic_normalisation() {
        let mut rng = Rng::from_seed(4);
        let mut store = ParamStore::<f64>::new();
        let layer = GcnLayer::with_activation(&mut store, "gcn", 3, 2, Activation::Tanh, &mut rng);
        let g = generators::erdos_renyi_connected(5, 0.5, &mut rng);
        let x = Tensor::rand_uniform(5, 3, -1.0, 1.0, &mut rng);
        let adj = g.dense_adjacency();

        let params: Vec<_> = store.iter().cloned().collect();
        for p in &params {
            let (xc, ac) = (x.clone(), adj.clone());
            check_param_grad(p, 1e-6, |t| {
                let h = t.constant(xc.clone());
                let a = t.constant(ac.clone());
                let out = layer.forward(t, AdjacencyRef::Dynamic(a), h);
                let sq = t.hadamard(out, out);
                t.sum_all(sq)
            });
        }
    }
}
