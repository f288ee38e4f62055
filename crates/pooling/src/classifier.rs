//! End-to-end graph classifiers for every baseline pooling method —
//! the models compared against HAP in Table 3.

use crate::{
    Asap, AttPoolReadout, CoarsenModule, DiffPool, GPool, MaxReadout, MeanAttReadout, MeanReadout,
    PoolCtx, Readout, SagPool, Set2SetReadout, SortPoolReadout, StructPool, SumReadout,
};
use hap_autograd::{ParamStore, Tape, Var};
use hap_gnn::{AdjacencyRef, EncoderKind, GnnEncoder};
use hap_graph::{Graph, GraphScalar};
use hap_nn::{Activation, Mlp};
use hap_rand::Rng;
use hap_tensor::Tensor;

/// The thirteen baseline configurations of Table 3 (twelve pooling methods
/// plus the GCN-concat strawman; MaxPool is included as a bonus universal
/// baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineKind {
    /// Concatenated per-layer mean embeddings, no pooling mechanism.
    GcnConcat,
    /// Element-wise sum readout.
    SumPool,
    /// Element-wise mean readout.
    MeanPool,
    /// Element-wise max readout.
    MaxPool,
    /// SimGNN-style content attention readout.
    MeanAttPool,
    /// Iterative attention readout (Vinyals et al.).
    Set2Set,
    /// DGCNN sort-and-truncate readout.
    SortPooling,
    /// Global soft-attention scores (Huang et al.).
    AttPoolGlobal,
    /// Degree-aware soft-attention scores.
    AttPoolLocal,
    /// Projection-score Top-K selection (Graph U-Nets).
    GPool,
    /// GCN-score Top-K selection (Lee et al.).
    SagPool,
    /// Dense differentiable grouping (Ying et al.).
    DiffPool,
    /// Ego-network clusters + LEConv Top-K (Ranjan et al.).
    Asap,
    /// CRF mean-field grouping (Yuan & Ji).
    StructPool,
}

impl BaselineKind {
    /// All variants, in Table 3 order.
    pub fn all() -> &'static [BaselineKind] {
        use BaselineKind::*;
        &[
            GcnConcat,
            SumPool,
            MeanPool,
            MaxPool,
            MeanAttPool,
            Set2Set,
            SortPooling,
            AttPoolGlobal,
            AttPoolLocal,
            GPool,
            SagPool,
            DiffPool,
            Asap,
            StructPool,
        ]
    }

    /// Table 3 row label.
    pub fn label(self) -> &'static str {
        use BaselineKind::*;
        match self {
            GcnConcat => "GCN-concat",
            SumPool => "SumPool",
            MeanPool => "MeanPool",
            MaxPool => "MaxPool",
            MeanAttPool => "MeanAttPool",
            Set2Set => "Set2Set",
            SortPooling => "SortPooling",
            AttPoolGlobal => "AttPool-global",
            AttPoolLocal => "AttPool-local",
            GPool => "gPool",
            SagPool => "SAGPool",
            DiffPool => "DiffPool",
            Asap => "ASAP",
            StructPool => "StructPool",
        }
    }
}

enum Pooler<T: GraphScalar> {
    Flat(Box<dyn Readout<T>>),
    /// Hierarchical: coarsen once, re-embed, sum-read the survivors.
    Hier {
        module: Box<dyn CoarsenModule<T>>,
        post: GnnEncoder<T>,
    },
    /// GCN-concat: no pooling module; per-layer means are concatenated.
    Concat,
}

/// A complete classifier: 2-layer GCN encoder → pooling → 2-layer MLP
/// head producing class logits (Eq. 20 structure with the softmax folded
/// into the loss).
pub struct PoolingClassifier<T: GraphScalar = f64> {
    kind: BaselineKind,
    encoder: GnnEncoder<T>,
    pooler: Pooler<T>,
    head: Mlp<T>,
}

impl<T: GraphScalar> PoolingClassifier<T> {
    /// Builds the classifier for `kind` with `in_dim` input features,
    /// `hidden` embedding width and `classes` output classes.
    pub fn new(
        store: &mut ParamStore<T>,
        kind: BaselineKind,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        rng: &mut Rng,
    ) -> Self {
        let encoder = GnnEncoder::new(
            store,
            "enc",
            EncoderKind::Gcn,
            &[in_dim, hidden, hidden],
            rng,
        );
        let (pooler, head_in): (Pooler<T>, usize) = match kind {
            BaselineKind::GcnConcat => (Pooler::Concat, hidden),
            BaselineKind::SumPool => (Pooler::Flat(Box::new(SumReadout)), hidden),
            BaselineKind::MeanPool => (Pooler::Flat(Box::new(MeanReadout)), hidden),
            BaselineKind::MaxPool => (Pooler::Flat(Box::new(MaxReadout)), hidden),
            BaselineKind::MeanAttPool => (
                Pooler::Flat(Box::new(MeanAttReadout::new(store, "pool", hidden, rng))),
                hidden,
            ),
            BaselineKind::Set2Set => (
                Pooler::Flat(Box::new(Set2SetReadout::new(store, "pool", hidden, 3, rng))),
                2 * hidden,
            ),
            BaselineKind::SortPooling => (
                Pooler::Flat(Box::new(SortPoolReadout::new(
                    store, "pool", hidden, 8, hidden, rng,
                ))),
                hidden,
            ),
            BaselineKind::AttPoolGlobal => (
                Pooler::Flat(Box::new(AttPoolReadout::global(store, "pool", hidden, rng))),
                hidden,
            ),
            BaselineKind::AttPoolLocal => (
                Pooler::Flat(Box::new(AttPoolReadout::local(store, "pool", hidden, rng))),
                hidden,
            ),
            BaselineKind::GPool => {
                let m: Box<dyn CoarsenModule<T>> =
                    Box::new(GPool::new(store, "pool", hidden, 0.5, rng));
                (Self::hier(store, m, hidden, rng), hidden)
            }
            BaselineKind::SagPool => {
                let m: Box<dyn CoarsenModule<T>> =
                    Box::new(SagPool::new(store, "pool", hidden, 0.5, rng));
                (Self::hier(store, m, hidden, rng), hidden)
            }
            BaselineKind::DiffPool => {
                let m: Box<dyn CoarsenModule<T>> =
                    Box::new(DiffPool::new(store, "pool", hidden, 6, rng));
                (Self::hier(store, m, hidden, rng), hidden)
            }
            BaselineKind::Asap => {
                let m: Box<dyn CoarsenModule<T>> =
                    Box::new(Asap::new(store, "pool", hidden, 0.5, rng));
                (Self::hier(store, m, hidden, rng), hidden)
            }
            BaselineKind::StructPool => {
                let m: Box<dyn CoarsenModule<T>> =
                    Box::new(StructPool::new(store, "pool", hidden, 6, 2, rng));
                (Self::hier(store, m, hidden, rng), hidden)
            }
        };
        let head = Mlp::new(
            store,
            "head",
            &[head_in, hidden, classes],
            Activation::Relu,
            rng,
        );
        Self {
            kind,
            encoder,
            pooler,
            head,
        }
    }

    fn hier(
        store: &mut ParamStore<T>,
        module: Box<dyn CoarsenModule<T>>,
        hidden: usize,
        rng: &mut Rng,
    ) -> Pooler<T> {
        let post = GnnEncoder::new(store, "post", EncoderKind::Gcn, &[hidden, hidden], rng);
        Pooler::Hier { module, post }
    }

    /// Which baseline this classifier realises.
    pub fn kind(&self) -> BaselineKind {
        self.kind
    }

    /// The pooled graph-level embedding (input of the prediction head) —
    /// used by the Fig. 4 t-SNE visualisations.
    pub fn embedding(
        &self,
        graph: &Graph,
        features: &Tensor<T>,
        ctx: &mut PoolCtx<'_>,
    ) -> Tensor<T> {
        let mut tape = Tape::new();
        let pooled = self.pooled(&mut tape, graph, features, ctx);
        tape.value(pooled)
    }

    fn pooled(
        &self,
        tape: &mut Tape<T>,
        graph: &Graph,
        features: &Tensor<T>,
        ctx: &mut PoolCtx<'_>,
    ) -> Var {
        let x = tape.constant(features.clone());
        let h = self.encoder.forward(tape, AdjacencyRef::Fixed(graph), x);
        match &self.pooler {
            Pooler::Flat(r) => {
                let a = AdjacencyRef::Fixed(graph).dense(tape);
                r.forward(tape, a, h, ctx)
            }
            Pooler::Hier { module, post } => {
                let (a2, h2) = module.forward(tape, AdjacencyRef::Fixed(graph), h, ctx);
                let h3 = post.forward(tape, AdjacencyRef::Dynamic(a2), h2);
                tape.col_sums(h3)
            }
            Pooler::Concat => tape.col_means(h),
        }
    }

    /// Computes class logits (`1×classes`) for one graph.
    pub fn logits(
        &self,
        tape: &mut Tape<T>,
        graph: &Graph,
        features: &Tensor<T>,
        ctx: &mut PoolCtx<'_>,
    ) -> Var {
        let pooled = self.pooled(tape, graph, features, ctx);
        self.head.forward(tape, pooled)
    }

    /// Predicted class (evaluation path).
    pub fn predict(&self, graph: &Graph, features: &Tensor<T>, ctx: &mut PoolCtx<'_>) -> usize {
        let mut tape = Tape::new();
        let logits = self.logits(&mut tape, graph, features, ctx);
        let v = tape.value(logits);
        (0..v.cols())
            .max_by(|&a, &b| v[(0, a)].partial_cmp(&v[(0, b)]).expect("finite logits"))
            .expect("at least one class")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_graph::degree_one_hot;
    use hap_graph::generators;
    use hap_rand::Rng;

    #[test]
    fn every_baseline_produces_finite_logits() {
        let mut rng = Rng::from_seed(1);
        let g = generators::erdos_renyi_connected(10, 0.35, &mut rng);
        let x = degree_one_hot(&g, 6);
        for &kind in BaselineKind::all() {
            let mut store = ParamStore::<f64>::new();
            let model = PoolingClassifier::new(&mut store, kind, 6, 8, 3, &mut rng);
            let mut t = Tape::new();
            let mut ctx = PoolCtx {
                training: true,
                rng: &mut rng,
            };
            let logits = model.logits(&mut t, &g, &x, &mut ctx);
            assert_eq!(t.shape(logits), (1, 3), "{:?}", kind);
            assert!(t.value(logits).all_finite(), "{:?} produced NaN/inf", kind);
        }
    }

    #[test]
    fn every_baseline_trains_end_to_end_one_step() {
        let mut rng = Rng::from_seed(2);
        let g = generators::erdos_renyi_connected(8, 0.4, &mut rng);
        let x = degree_one_hot(&g, 5);
        for &kind in BaselineKind::all() {
            let mut store = ParamStore::<f64>::new();
            let model = PoolingClassifier::new(&mut store, kind, 5, 6, 2, &mut rng);
            let mut t = Tape::new();
            let mut ctx = PoolCtx {
                training: true,
                rng: &mut rng,
            };
            let logits = model.logits(&mut t, &g, &x, &mut ctx);
            let loss = hap_nn::cross_entropy_logits(&mut t, logits, &[1]);
            t.backward(loss);
            assert!(
                store.grad_norm() > 0.0,
                "{:?}: no gradient reached any parameter",
                kind
            );
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: Vec<_> = BaselineKind::all().iter().map(|k| k.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
