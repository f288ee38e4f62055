//! The hierarchical HAP framework (Sec. 4.1, Fig. 2).

use crate::{FlatCoarsen, HapCoarsen, HapError};
use hap_autograd::{ParamStore, Tape, Var};
use hap_gnn::{AdjacencyRef, BatchGraph, EncoderKind, GnnEncoder};
use hap_graph::{Graph, GraphScalar};
use hap_pooling::{CoarsenModule, DiffPool, MeanAttReadout, MeanReadout, PoolCtx, SagPool};
use hap_rand::Rng;
use hap_tensor::Tensor;

/// Configuration of a [`HapModel`].
#[derive(Clone, Debug)]
pub struct HapConfig {
    /// Input node-feature width `F`.
    pub in_dim: usize,
    /// Hidden feature width (64 for classification, 128 otherwise —
    /// Sec. 6.1.3).
    pub hidden: usize,
    /// Target cluster count of each coarsening module, outermost first;
    /// the paper's default is two modules (Sec. 6.1.3 / Table 6).
    pub cluster_sizes: Vec<usize>,
    /// Node & cluster embedding flavour (GAT or GCN, Sec. 4.3).
    pub encoder: EncoderKind,
    /// Gumbel-Softmax temperature (Eq. 19; paper uses 0.1).
    pub tau: f64,
    /// Whether to apply the Eq. 19 soft-sampling step.
    pub soft_sampling: bool,
}

impl HapConfig {
    /// The paper's default architecture: two embedding layers before each
    /// of two coarsening modules, GCN encoders, τ = 0.1.
    pub fn new(in_dim: usize, hidden: usize) -> Self {
        Self {
            in_dim,
            hidden,
            cluster_sizes: vec![8, 4],
            encoder: EncoderKind::Gcn,
            tau: 0.1,
            soft_sampling: true,
        }
    }

    /// Overrides the coarsening-module sizes (`K = cluster_sizes.len()`).
    pub fn with_clusters(mut self, sizes: &[usize]) -> Self {
        self.cluster_sizes = sizes.to_vec();
        self
    }

    /// Overrides the encoder kind.
    pub fn with_encoder(mut self, kind: EncoderKind) -> Self {
        self.encoder = kind;
        self
    }
}

/// Which module fills the coarsening slot — HAP itself or one of the
/// Table 5 ablation replacements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AblationKind {
    /// The real HAP coarsening module (GCont + MOA).
    Hap,
    /// `HAP-MeanPool`: flat mean readout in the coarsening slot.
    MeanPool,
    /// `HAP-MeanAttPool`: SimGNN content attention in the coarsening slot.
    MeanAttPool,
    /// `HAP-SAGPool`: Top-K selection in the coarsening slot.
    SagPool,
    /// `HAP-DiffPool`: dense GCN grouping in the coarsening slot.
    DiffPool,
}

impl AblationKind {
    /// Table 5 row label.
    pub fn label(self) -> &'static str {
        match self {
            AblationKind::Hap => "HAP",
            AblationKind::MeanPool => "HAP-MeanPool",
            AblationKind::MeanAttPool => "HAP-MeanAttPool",
            AblationKind::SagPool => "HAP-SAGPool",
            AblationKind::DiffPool => "HAP-DiffPool",
        }
    }

    /// All ablation rows in Table 5 order.
    pub fn all() -> &'static [AblationKind] {
        use AblationKind::*;
        &[MeanPool, MeanAttPool, SagPool, DiffPool, Hap]
    }

    /// The module for one coarsening slot: `clusters` targets over
    /// `cfg.hidden`-wide features.
    fn build<T: GraphScalar>(
        self,
        store: &mut ParamStore<T>,
        name: &str,
        cfg: &HapConfig,
        clusters: usize,
        rng: &mut Rng,
    ) -> Box<dyn CoarsenModule<T>> {
        let dim = cfg.hidden;
        match self {
            AblationKind::Hap => {
                let mut m = HapCoarsen::new(store, name, dim, clusters, rng).with_tau(cfg.tau);
                if !cfg.soft_sampling {
                    m = m.without_soft_sampling();
                }
                Box::new(m)
            }
            AblationKind::MeanPool => Box::new(FlatCoarsen::new(MeanReadout)),
            AblationKind::MeanAttPool => {
                Box::new(FlatCoarsen::new(MeanAttReadout::new(store, name, dim, rng)))
            }
            AblationKind::SagPool => Box::new(SagPool::new(store, name, dim, 0.5, rng)),
            AblationKind::DiffPool => Box::new(DiffPool::new(store, name, dim, clusters, rng)),
        }
    }
}

/// Static phase label for coarsening level `k` — hap-obs phases borrow
/// `'static` strings so the provenance stack stays allocation-free.
fn level_label(k: usize) -> &'static str {
    match k {
        0 => "hap.level0",
        1 => "hap.level1",
        2 => "hap.level2",
        3 => "hap.level3",
        _ => "hap.level4+",
    }
}

/// Rejects an empty graph or a feature/node row mismatch, first offender
/// first — the degenerate-input contract of
/// [`HapModel::try_embed_hierarchy`].
fn validate<T: GraphScalar>(graphs: &[(&Graph, &Tensor<T>)]) -> Result<(), HapError> {
    for &(g, x) in graphs {
        if g.n() == 0 {
            return Err(HapError::EmptyGraph);
        }
        if x.rows() != g.n() {
            return Err(HapError::FeatureShape {
                rows: x.rows(),
                nodes: g.n(),
            });
        }
    }
    Ok(())
}

/// The hierarchical HAP model: `K` rounds of (two-layer node & cluster
/// embedding → graph coarsening), producing one intermediate graph
/// embedding per coarsening level (Sec. 4.5.2's hierarchical features).
///
/// With `K = 0` the model degrades to a flat encoder + mean readout —
/// the "baseline" row of Table 6.
pub struct HapModel<T: GraphScalar = f64> {
    encoders: Vec<GnnEncoder<T>>,
    coarseners: Vec<Box<dyn CoarsenModule<T>>>,
    hidden: usize,
}

impl<T: GraphScalar> HapModel<T> {
    /// Builds the model with HAP coarsening modules.
    pub fn new(store: &mut ParamStore<T>, cfg: &HapConfig, rng: &mut Rng) -> Self {
        Self::with_ablation(store, cfg, AblationKind::Hap, rng)
    }

    /// Builds the model with the coarsening slot filled by `kind`
    /// (Table 5 ablations).
    pub fn with_ablation(
        store: &mut ParamStore<T>,
        cfg: &HapConfig,
        kind: AblationKind,
        rng: &mut Rng,
    ) -> Self {
        let k = cfg.cluster_sizes.len();
        let mut encoders = Vec::with_capacity(k.max(1));
        for i in 0..k.max(1) {
            let in_dim = if i == 0 { cfg.in_dim } else { cfg.hidden };
            encoders.push(GnnEncoder::new(
                store,
                &format!("hap.enc{i}"),
                cfg.encoder,
                &[in_dim, cfg.hidden, cfg.hidden],
                rng,
            ));
        }
        let coarseners = cfg
            .cluster_sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| kind.build(store, &format!("hap.coarsen{i}"), cfg, n, rng))
            .collect();
        Self {
            encoders,
            coarseners,
            hidden: cfg.hidden,
        }
    }

    /// Hidden/embedding width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Number of coarsening modules `K`.
    pub fn depth(&self) -> usize {
        self.coarseners.len()
    }

    /// Runs the full hierarchy, returning one `1×hidden` graph embedding
    /// per coarsening level (the Sec. 4.5.2 intermediate features). With
    /// `K = 0` a single flat-readout embedding is returned. The last
    /// element is the final graph-level embedding `h_G`.
    ///
    /// Degenerate-input contract: a **single-node** graph and a graph with
    /// `n ≤ clusters` are both valid — the MOA column reduction zero-pads
    /// (the Claim 3 construction), so the hierarchy degrades gracefully
    /// rather than erroring. An **empty** graph (`n = 0`) is rejected with
    /// [`HapError::EmptyGraph`], and a feature/node row mismatch with
    /// [`HapError::FeatureShape`], instead of panicking later inside the
    /// task heads.
    ///
    /// # Errors
    /// See the degenerate-input contract above.
    pub fn try_embed_hierarchy(
        &self,
        tape: &mut Tape<T>,
        graph: &Graph,
        features: &Tensor<T>,
        ctx: &mut PoolCtx<'_>,
    ) -> Result<Vec<Var>, HapError> {
        let item = [(graph, features)];
        validate(&item)?;
        let _t = hap_obs::time_scope("core.embed_hierarchy");
        let mut out = self.embed_batch(tape, &item, ctx);
        Ok(out.pop().expect("one graph in, one hierarchy out"))
    }

    /// Runs the hierarchy for a whole batch of graphs in one forward pass,
    /// returning per-graph level embeddings (the same `Vec<Var>` shape
    /// [`Self::try_embed_hierarchy`] yields for each graph, which is itself
    /// a batch of one).
    ///
    /// The level-0 encoder runs **once** over the block-diagonal
    /// [`BatchGraph`], for GCN and GAT alike; coarsening and deeper levels
    /// then proceed per graph in batch order on the shared tape, so
    /// `ctx.rng` draws happen in exactly the order the graph-at-a-time loop
    /// makes them. Combined with the block-diagonal byte-identity of
    /// [`hap_gnn::GnnEncoder::forward_batch`], every returned embedding is
    /// **byte-identical** to its looped counterpart — the looped path stays
    /// the differential-test oracle.
    ///
    /// Validation is all-or-nothing: every graph is checked *before* any
    /// compute, and the first [`HapError::EmptyGraph`] /
    /// [`HapError::FeatureShape`] aborts the whole batch. Callers needing
    /// per-item error granularity pre-validate and exclude bad items.
    ///
    /// # Errors
    /// See the validation contract above.
    pub fn try_embed_hierarchy_batch(
        &self,
        tape: &mut Tape<T>,
        graphs: &[(&Graph, &Tensor<T>)],
        ctx: &mut PoolCtx<'_>,
    ) -> Result<Vec<Vec<Var>>, HapError> {
        validate(graphs)?;
        if graphs.is_empty() {
            return Ok(Vec::new());
        }
        let _t = hap_obs::time_scope("core.embed_hierarchy_batch");
        Ok(self.embed_batch(tape, graphs, ctx))
    }

    /// The shared body of both entry points, over a validated, non-empty
    /// batch.
    fn embed_batch(
        &self,
        tape: &mut Tape<T>,
        graphs: &[(&Graph, &Tensor<T>)],
        ctx: &mut PoolCtx<'_>,
    ) -> Vec<Vec<Var>> {
        let gs: Vec<&Graph> = graphs.iter().map(|&(g, _)| g).collect();
        let xs: Vec<&Tensor<T>> = graphs.iter().map(|&(_, x)| x).collect();
        let batch = BatchGraph::new(&gs, &xs);
        let h0 = tape.constant(batch.features().clone());

        if self.coarseners.is_empty() {
            let _p = hap_obs::phase(level_label(0));
            let enc = self.encoders[0].forward_batch(tape, &batch, h0);
            // Per-segment col_means is bitwise the per-graph reduction;
            // each graph then picks out its own 1×hidden row.
            let means = tape.segment_means(enc, batch.offsets());
            return (0..batch.len())
                .map(|b| vec![tape.gather_rows(means, &[b])])
                .collect();
        }

        let enc0 = {
            let _p = hap_obs::phase(level_label(0));
            self.encoders[0].forward_batch(tape, &batch, h0)
        };
        let mut out = Vec::with_capacity(graphs.len());
        for (b, &(g, _)) in graphs.iter().enumerate() {
            let rows: Vec<usize> = batch.node_range(b).collect();
            let mut h = tape.gather_rows(enc0, &rows);
            // Level 0 coarsens the input graph itself; every deeper level
            // the previous level's dense `A'` on the tape.
            let mut a = AdjacencyRef::Fixed(g);
            let mut embeddings = Vec::with_capacity(self.coarseners.len());
            for (k, coarsen) in self.coarseners.iter().enumerate() {
                let _p = hap_obs::phase(level_label(k));
                if k > 0 {
                    h = self.encoders[k].forward(tape, a, h);
                }
                let (a2, h2) = coarsen.forward(tape, a, h, ctx);
                a = AdjacencyRef::Dynamic(a2);
                h = h2;
                embeddings.push(tape.col_means(h));
            }
            out.push(embeddings);
        }
        out
    }

    /// [`Self::try_embed_hierarchy`], panicking on degenerate input.
    ///
    /// # Panics
    /// Panics with the [`HapError`] message on an empty graph or a
    /// feature/node row mismatch — use the `try_` form to handle those.
    pub fn embed_hierarchy(
        &self,
        tape: &mut Tape<T>,
        graph: &Graph,
        features: &Tensor<T>,
        ctx: &mut PoolCtx<'_>,
    ) -> Vec<Var> {
        self.try_embed_hierarchy(tape, graph, features, ctx)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The final graph-level embedding `h_G` (`1×hidden`).
    pub fn embed(
        &self,
        tape: &mut Tape<T>,
        graph: &Graph,
        features: &Tensor<T>,
        ctx: &mut PoolCtx<'_>,
    ) -> Var {
        *self
            .embed_hierarchy(tape, graph, features, ctx)
            .last()
            .expect("hierarchy always yields at least one embedding")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_graph::{degree_one_hot, generators, Permutation};
    use hap_rand::Rng;
    use hap_tensor::testutil::assert_close;

    fn cfg() -> HapConfig {
        HapConfig::new(5, 6).with_clusters(&[4, 2])
    }

    #[test]
    fn hierarchy_produces_one_embedding_per_level() {
        let mut rng = Rng::from_seed(1);
        let mut store = ParamStore::<f64>::new();
        let model = HapModel::new(&mut store, &cfg(), &mut rng);
        assert_eq!(model.depth(), 2);
        let g = generators::erdos_renyi_connected(9, 0.35, &mut rng);
        let x = degree_one_hot(&g, 5);
        let mut t = Tape::new();
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let embeds = model.embed_hierarchy(&mut t, &g, &x, &mut ctx);
        assert_eq!(embeds.len(), 2);
        for e in &embeds {
            assert_eq!(t.shape(*e), (1, 6));
            assert!(t.value(*e).all_finite());
        }
    }

    #[test]
    fn zero_depth_model_is_flat() {
        let mut rng = Rng::from_seed(2);
        let mut store = ParamStore::<f64>::new();
        let model = HapModel::new(&mut store, &cfg().with_clusters(&[]), &mut rng);
        assert_eq!(model.depth(), 0);
        let g = generators::cycle(6);
        let x = degree_one_hot(&g, 5);
        let mut t = Tape::new();
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };
        let embeds = model.embed_hierarchy(&mut t, &g, &x, &mut ctx);
        assert_eq!(embeds.len(), 1);
    }

    #[test]
    fn empty_graph_returns_typed_error() {
        // Regression: n = 0 used to wander into the encoder/MOA algebra
        // and die on an opaque panic; it is now rejected at the boundary.
        let mut rng = Rng::from_seed(20);
        let mut store = ParamStore::<f64>::new();
        let model = HapModel::new(&mut store, &cfg(), &mut rng);
        let g = hap_graph::Graph::empty(0);
        let x = Tensor::zeros(0, 5);
        let mut t = Tape::new();
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };
        let err = model
            .try_embed_hierarchy(&mut t, &g, &x, &mut ctx)
            .unwrap_err();
        assert_eq!(err, crate::HapError::EmptyGraph);
    }

    #[test]
    fn feature_row_mismatch_returns_typed_error() {
        let mut rng = Rng::from_seed(21);
        let mut store = ParamStore::<f64>::new();
        let model = HapModel::new(&mut store, &cfg(), &mut rng);
        let g = generators::cycle(6);
        let x = Tensor::zeros(4, 5); // 4 rows for a 6-node graph
        let mut t = Tape::new();
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };
        let err = model
            .try_embed_hierarchy(&mut t, &g, &x, &mut ctx)
            .unwrap_err();
        assert_eq!(err, crate::HapError::FeatureShape { rows: 4, nodes: 6 });
    }

    #[test]
    fn single_node_graph_embeds_via_zero_padding() {
        // n = 1 < every cluster size: the documented degenerate output —
        // the MOA column reduction zero-pads (Claim 3) and the hierarchy
        // still produces one finite embedding per level.
        let mut rng = Rng::from_seed(22);
        let mut store = ParamStore::<f64>::new();
        let model = HapModel::new(&mut store, &cfg(), &mut rng);
        let g = hap_graph::Graph::empty(1);
        let x = degree_one_hot(&g, 5);
        for training in [false, true] {
            let mut t = Tape::new();
            let mut ctx = PoolCtx {
                training,
                rng: &mut rng,
            };
            let embeds = model.embed_hierarchy(&mut t, &g, &x, &mut ctx);
            assert_eq!(embeds.len(), 2);
            for e in &embeds {
                assert_eq!(t.shape(*e), (1, 6));
                assert!(t.value(*e).all_finite(), "training={training}");
            }
        }
    }

    #[test]
    fn clusters_equal_to_n_embeds() {
        // k = n: no reduction pressure at all — every node can own a
        // cluster. Must run and stay finite (documented degenerate case).
        let mut rng = Rng::from_seed(23);
        let mut store = ParamStore::<f64>::new();
        let model = HapModel::new(
            &mut store,
            &HapConfig::new(5, 6).with_clusters(&[4]),
            &mut rng,
        );
        let g = generators::erdos_renyi_connected(4, 0.5, &mut rng);
        let x = degree_one_hot(&g, 5);
        let mut t = Tape::new();
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let embeds = model.embed_hierarchy(&mut t, &g, &x, &mut ctx);
        assert_eq!(embeds.len(), 1);
        assert!(t.value(embeds[0]).all_finite());
    }

    fn assert_bits(tag: &str, a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape(), "{tag}: shape");
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{tag}: {x} vs {y}");
        }
    }

    /// Embeds `graphs` one at a time and as one batch, at eval and under
    /// training-mode Gumbel sampling (identically seeded rng for both
    /// runs), and asserts every level embedding is bitwise equal.
    fn assert_batched_matches_looped(model: &HapModel, graphs: &[hap_graph::Graph]) {
        let xs: Vec<_> = graphs.iter().map(|g| degree_one_hot(g, 5)).collect();
        for training in [false, true] {
            let mut rng1 = Rng::from_seed(77);
            let mut t1 = Tape::new();
            let mut ctx1 = PoolCtx {
                training,
                rng: &mut rng1,
            };
            let looped: Vec<Vec<Tensor>> = graphs
                .iter()
                .zip(&xs)
                .map(|(g, x)| {
                    model
                        .embed_hierarchy(&mut t1, g, x, &mut ctx1)
                        .into_iter()
                        .map(|v| t1.value(v).clone())
                        .collect()
                })
                .collect();

            let mut rng2 = Rng::from_seed(77);
            let mut t2 = Tape::new();
            let mut ctx2 = PoolCtx {
                training,
                rng: &mut rng2,
            };
            let items: Vec<(&hap_graph::Graph, &Tensor)> = graphs.iter().zip(xs.iter()).collect();
            let batched = model
                .try_embed_hierarchy_batch(&mut t2, &items, &mut ctx2)
                .expect("valid batch");

            assert_eq!(batched.len(), looped.len());
            for (b, (lv_loop, lv_batch)) in looped.iter().zip(&batched).enumerate() {
                assert_eq!(lv_loop.len(), lv_batch.len());
                for (k, (lt, bv)) in lv_loop.iter().zip(lv_batch).enumerate() {
                    assert_bits(
                        &format!("training={training} graph={b} level={k}"),
                        t2.value(*bv),
                        lt,
                    );
                }
            }
        }
    }

    #[test]
    fn batched_hierarchy_is_bitwise_equal_to_looped() {
        // Mixed-size batch including the degenerate n = 1 graph; the
        // looped path is the oracle.
        let mut rng = Rng::from_seed(30);
        let mut store = ParamStore::<f64>::new();
        let model = HapModel::new(&mut store, &cfg(), &mut rng);
        let mut graphs = vec![hap_graph::Graph::empty(1)];
        graphs.push(generators::erdos_renyi_connected(5, 0.4, &mut rng));
        graphs.push(generators::erdos_renyi_connected(9, 0.3, &mut rng));
        assert_batched_matches_looped(&model, &graphs);
    }

    #[test]
    fn batched_flat_model_matches_looped_bitwise() {
        // K = 0: batched encoder + segment means vs per-graph col_means.
        let mut rng = Rng::from_seed(31);
        let mut store = ParamStore::<f64>::new();
        let model = HapModel::new(&mut store, &cfg().with_clusters(&[]), &mut rng);
        let g1 = generators::cycle(6);
        let g2 = generators::path(4);
        let (x1, x2) = (degree_one_hot(&g1, 5), degree_one_hot(&g2, 5));

        let mut t = Tape::new();
        let mut rngc = Rng::from_seed(0);
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rngc,
        };
        let batched = model
            .try_embed_hierarchy_batch(&mut t, &[(&g1, &x1), (&g2, &x2)], &mut ctx)
            .expect("valid batch");
        for (g, x, lv) in [(&g1, &x1, &batched[0]), (&g2, &x2, &batched[1])] {
            let mut ts = Tape::new();
            let mut rngs = Rng::from_seed(0);
            let mut ctxs = PoolCtx {
                training: false,
                rng: &mut rngs,
            };
            let single = model.embed_hierarchy(&mut ts, g, x, &mut ctxs);
            assert_eq!(lv.len(), 1);
            assert_bits("flat", t.value(lv[0]), ts.value(single[0]));
        }
    }

    #[test]
    fn batched_gat_model_matches_looped_bitwise() {
        // GAT batches block-diagonally like GCN: each node's attention
        // softmax only sees its own graph's edges.
        let mut rng = Rng::from_seed(32);
        let mut store = ParamStore::<f64>::new();
        let model = HapModel::new(&mut store, &cfg().with_encoder(EncoderKind::Gat), &mut rng);
        let mut graphs = vec![hap_graph::Graph::empty(1), generators::clique(6)];
        graphs.push(generators::erdos_renyi_connected(7, 0.4, &mut rng));
        graphs.push(hap_graph::Graph::empty(3));
        assert_batched_matches_looped(&model, &graphs);
    }

    #[test]
    fn batch_validation_is_all_or_nothing() {
        let mut rng = Rng::from_seed(33);
        let mut store = ParamStore::<f64>::new();
        let model = HapModel::new(&mut store, &cfg(), &mut rng);
        let good = generators::cycle(4);
        let gx = degree_one_hot(&good, 5);
        let empty = hap_graph::Graph::empty(0);
        let ex = Tensor::zeros(0, 5);
        let mut t = Tape::new();
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };
        let err = model
            .try_embed_hierarchy_batch(&mut t, &[(&good, &gx), (&empty, &ex)], &mut ctx)
            .unwrap_err();
        assert_eq!(err, crate::HapError::EmptyGraph);
        assert!(model
            .try_embed_hierarchy_batch(&mut t, &[], &mut ctx)
            .expect("empty batch is trivially valid")
            .is_empty());
    }

    #[test]
    fn all_ablations_run_and_train() {
        let mut rng = Rng::from_seed(3);
        let g = generators::erdos_renyi_connected(8, 0.4, &mut rng);
        let x = degree_one_hot(&g, 5);
        for &kind in AblationKind::all() {
            let mut store = ParamStore::<f64>::new();
            let model = HapModel::with_ablation(&mut store, &cfg(), kind, &mut rng);
            let mut t = Tape::new();
            let mut ctx = PoolCtx {
                training: true,
                rng: &mut rng,
            };
            let e = model.embed(&mut t, &g, &x, &mut ctx);
            assert_eq!(t.shape(e), (1, 6), "{kind:?}");
            let sq = t.hadamard(e, e);
            let loss = t.sum_all(sq);
            t.backward(loss);
            assert!(store.grad_norm() > 0.0, "{kind:?}: no gradients");
        }
    }

    #[test]
    fn whole_model_is_permutation_invariant_at_eval() {
        let mut rng = Rng::from_seed(4);
        let mut store = ParamStore::<f64>::new();
        let model = HapModel::new(&mut store, &cfg(), &mut rng);
        let g = generators::erdos_renyi_connected(8, 0.4, &mut rng);
        let x = degree_one_hot(&g, 5);
        let perm = Permutation::random(8, &mut rng);
        let gp = perm.apply_graph(&g);
        let xp = perm.apply_rows(&x);

        let run = |g: &hap_graph::Graph, x: &Tensor| {
            let mut rng = Rng::from_seed(0);
            let mut t = Tape::new();
            let mut ctx = PoolCtx {
                training: false,
                rng: &mut rng,
            };
            let e = model.embed(&mut t, g, x, &mut ctx);
            t.value(e).clone()
        };
        assert_close(&run(&g, &x), &run(&gp, &xp), 1e-8);
    }

    #[test]
    fn generalizes_across_graph_sizes() {
        // The same trained parameters must accept 10-node and 100-node
        // graphs (the Table 7 scenario).
        let mut rng = Rng::from_seed(5);
        let mut store = ParamStore::<f64>::new();
        let model = HapModel::new(&mut store, &cfg(), &mut rng);
        for n in [10, 100] {
            let g = generators::erdos_renyi_connected(n, 0.2, &mut rng);
            let x = degree_one_hot(&g, 5);
            let mut t = Tape::new();
            let mut ctx = PoolCtx {
                training: false,
                rng: &mut rng,
            };
            let e = model.embed(&mut t, &g, &x, &mut ctx);
            assert_eq!(t.shape(e), (1, 6));
        }
    }

    #[test]
    fn ablation_labels() {
        assert_eq!(AblationKind::Hap.label(), "HAP");
        assert_eq!(AblationKind::all().len(), 5);
    }
}
