//! Multi-layer node & cluster embedding (Sec. 4.3).

use crate::{AdjacencyRef, BatchGraph, GatLayer, GcnLayer};
use hap_autograd::{ParamStore, Tape, Var};
use hap_graph::GraphScalar;
use hap_nn::Activation;
use hap_rand::Rng;

/// Which convolution the encoder stacks — the paper evaluates both GAT and
/// GCN as the node & cluster embedding component and reports the better
/// one (Sec. 6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncoderKind {
    /// Graph convolutional layers (Eq. 12).
    Gcn,
    /// Graph attention layers (Eq. 11 / Eq. 16).
    Gat,
}

enum Layer<T: GraphScalar> {
    Gcn(GcnLayer<T>),
    Gat(GatLayer<T>),
}

/// A stack of GNN layers sharing one adjacency.
///
/// HAP places a two-layer encoder before every coarsening module
/// (Sec. 6.1.3: "two node & cluster embedding layers before every
/// following graph coarsening module"). Generic over the tensor element
/// type (default `f64`).
pub struct GnnEncoder<T: GraphScalar = f64> {
    layers: Vec<Layer<T>>,
    in_dim: usize,
    out_dim: usize,
}

impl<T: GraphScalar> GnnEncoder<T> {
    /// Builds an encoder with the given layer widths, e.g.
    /// `&[in, hidden, out]` for the paper's two-layer configuration. All
    /// hidden layers use ReLU; the final layer too (HAP feeds coarsening
    /// with post-activation features).
    ///
    /// # Panics
    /// Panics when fewer than two dims are supplied.
    pub fn new(
        store: &mut ParamStore<T>,
        name: &str,
        kind: EncoderKind,
        dims: &[usize],
        rng: &mut Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "encoder needs at least in and out dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let lname = format!("{name}.l{i}");
                match kind {
                    EncoderKind::Gcn => Layer::Gcn(GcnLayer::with_activation(
                        store,
                        &lname,
                        w[0],
                        w[1],
                        Activation::Relu,
                        rng,
                    )),
                    EncoderKind::Gat => Layer::Gat(GatLayer::with_activation(
                        store,
                        &lname,
                        w[0],
                        w[1],
                        Activation::Relu,
                        rng,
                    )),
                }
            })
            .collect();
        Self {
            layers,
            in_dim: dims[0],
            out_dim: *dims.last().expect("non-empty dims"),
        }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Number of stacked layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Applies all layers over the shared adjacency.
    pub fn forward(&self, tape: &mut Tape<T>, adj: AdjacencyRef<'_>, h: Var) -> Var {
        let mut x = h;
        for layer in &self.layers {
            x = match layer {
                Layer::Gcn(l) => l.forward(tape, adj, x),
                Layer::Gat(l) => l.forward(tape, adj, x),
            };
        }
        x
    }

    /// Applies all layers over a [`BatchGraph`]'s block-diagonal CSR,
    /// embedding every graph in the batch in one pass, for either layer
    /// kind. Output rows are byte-identical, node for node, to per-graph
    /// [`GnnEncoder::forward`] calls: no cross-graph edges exist, so each
    /// block's SpMM multiply-adds and each node's attention softmax are
    /// unchanged (see the [`BatchGraph`] docs).
    pub fn forward_batch(&self, tape: &mut Tape<T>, batch: &BatchGraph<T>, h: Var) -> Var {
        let mut x = h;
        for layer in &self.layers {
            x = match layer {
                Layer::Gcn(l) => l.forward_csr(tape, batch.adjacency(), x),
                Layer::Gat(l) => l.forward_csr(tape, batch.adjacency(), x),
            };
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_graph::generators;
    use hap_rand::Rng;
    use hap_tensor::Tensor;

    #[test]
    fn two_layer_shapes_both_kinds() {
        let mut rng = Rng::from_seed(1);
        let g = generators::erdos_renyi_connected(7, 0.4, &mut rng);
        for kind in [EncoderKind::Gcn, EncoderKind::Gat] {
            let mut store = ParamStore::<f64>::new();
            let enc = GnnEncoder::new(&mut store, "enc", kind, &[5, 16, 8], &mut rng);
            assert_eq!(enc.depth(), 2);
            assert_eq!(enc.in_dim(), 5);
            assert_eq!(enc.out_dim(), 8);
            let mut t = Tape::new();
            let h = t.constant(Tensor::ones(7, 5));
            let out = enc.forward(&mut t, AdjacencyRef::Fixed(&g), h);
            assert_eq!(t.shape(out), (7, 8));
            assert!(t.value(out).all_finite());
        }
    }

    #[test]
    fn receptive_field_grows_with_depth() {
        // On a path graph, information from node 0 reaches node k only
        // after k layers: check a 2-layer GCN sees exactly 2 hops.
        let mut rng = Rng::from_seed(21);
        let g = generators::path(5);
        let mut store = ParamStore::<f64>::new();
        let enc = GnnEncoder::new(&mut store, "enc", EncoderKind::Gcn, &[1, 4, 4], &mut rng);

        let run = |signal_node: usize| -> Tensor {
            let mut x = Tensor::zeros(5, 1);
            x[(signal_node, 0)] = 1.0;
            let mut t = Tape::new();
            let h = t.constant(x);
            let out = enc.forward(&mut t, AdjacencyRef::Fixed(&g), h);
            t.value(out).clone()
        };
        let base = run(4); // signal far from node 0
        let near = run(2); // signal 2 hops from node 0
                           // node 0's embedding must differ when signal is within 2 hops…
        assert!(
            base.row(0)
                .iter()
                .zip(near.row(0))
                .any(|(a, b)| (a - b).abs() > 1e-9),
            "2-hop signal invisible to node 0"
        );
        // …and the signal at distance 4 must be invisible to node 0
        let far = run(3); // 3 hops away: still invisible to node 0 with depth 2
        assert!(
            base.row(0)
                .iter()
                .zip(far.row(0))
                .all(|(a, b)| (a - b).abs() < 1e-9),
            "3-hop signal leaked into a 2-layer receptive field"
        );
    }
}
