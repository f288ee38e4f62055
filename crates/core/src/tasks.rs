//! Task heads and losses (Sec. 4.5): graph classification, graph
//! matching and graph similarity learning.

use crate::HapModel;
use hap_autograd::{ParamStore, Tape, Var};
use hap_graph::{Graph, GraphScalar};
use hap_nn::{bce_scalar, cross_entropy_logits, mse_scalar, Activation, Mlp};
use hap_pooling::PoolCtx;
use hap_rand::Rng;
use hap_tensor::{Scalar, Tensor};

/// Guard under the square root so the Euclidean distance stays
/// differentiable at zero.
const DIST_EPS: f64 = 1e-12;

/// Differentiable Euclidean distance between two `1×F` embeddings.
fn euclidean<T: Scalar>(tape: &mut Tape<T>, a: Var, b: Var) -> Var {
    let sq = tape.squared_distance(a, b);
    let sq = tape.shift(sq, DIST_EPS);
    tape.sqrt(sq)
}

/// NaN-safe argmax over the first `classes` entries of a `1×classes` logit
/// row.
///
/// Uses [`f64::total_cmp`] — identical to a `partial_cmp` argmax for
/// finite logits, but a total order over all bit patterns: NaN sorts above
/// `+∞`, so a poisoned forward pass yields a deterministic (if arbitrary)
/// class instead of panicking the comparator. The hap-obs sentinel records
/// the event so the degradation is visible rather than silent.
fn argmax_logits<T: Scalar>(v: &Tensor<T>, classes: usize) -> usize {
    hap_obs::guard_scalar(
        "cls.logits",
        v.row(0)[..classes].iter().copied().sum::<T>().to_f64(),
    );
    (0..classes)
        .max_by(|&a, &b| v[(0, a)].total_cmp(&v[(0, b)]))
        .expect("at least one class")
}

/// Graph classification model (Eqs. 20–21): HAP hierarchy → two
/// fully-connected layers → class logits; trained with cross-entropy
/// (softmax folded into the loss for stability).
///
/// The head consumes the **concatenation of the hierarchical level
/// embeddings** (Sec. 4.5.2's intermediate graph features). Using only
/// the final level is mathematically hazardous here: because MOA's rows
/// are distributions, a mean over cluster features of any single level
/// collapses toward a scaled mean of its input features, and the class
/// signal then flows only through the (stochastically soft-sampled)
/// coarsened adjacency — which makes optimization bimodal in practice.
/// The hierarchical concatenation keeps a direct gradient path to every
/// level, exactly the motivation the paper gives for its hierarchical
/// prediction strategy.
pub struct HapClassifier<T: GraphScalar = f64> {
    model: HapModel<T>,
    head: Mlp<T>,
    classes: usize,
}

impl<T: GraphScalar> HapClassifier<T> {
    /// Builds the classifier on top of an existing hierarchy.
    pub fn new(
        store: &mut ParamStore<T>,
        model: HapModel<T>,
        classes: usize,
        rng: &mut Rng,
    ) -> Self {
        let hidden = model.hidden();
        let levels = model.depth().max(1);
        let head = Mlp::new(
            store,
            "cls.head",
            &[levels * hidden, hidden, classes],
            Activation::Relu,
            rng,
        );
        Self {
            model,
            head,
            classes,
        }
    }

    /// The underlying hierarchy.
    pub fn model(&self) -> &HapModel<T> {
        &self.model
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Class logits (`1×classes`) for one graph.
    pub fn logits(
        &self,
        tape: &mut Tape<T>,
        graph: &Graph,
        features: &Tensor<T>,
        ctx: &mut PoolCtx<'_>,
    ) -> Var {
        let e = self.hier_embedding(tape, graph, features, ctx);
        self.head.forward(tape, e)
    }

    /// Concatenated hierarchical embedding (`1×(K·hidden)`).
    fn hier_embedding(
        &self,
        tape: &mut Tape<T>,
        graph: &Graph,
        features: &Tensor<T>,
        ctx: &mut PoolCtx<'_>,
    ) -> Var {
        let levels = self.model.embed_hierarchy(tape, graph, features, ctx);
        let mut it = levels.into_iter();
        let mut e = it.next().expect("at least one level");
        for l in it {
            e = tape.hstack(e, l);
        }
        e
    }

    /// Cross-entropy loss (Eq. 21) for one labelled graph.
    pub fn loss(
        &self,
        tape: &mut Tape<T>,
        graph: &Graph,
        features: &Tensor<T>,
        label: usize,
        ctx: &mut PoolCtx<'_>,
    ) -> Var {
        let logits = self.logits(tape, graph, features, ctx);
        cross_entropy_logits(tape, logits, &[label])
    }

    /// Per-sample cross-entropy losses for a whole labelled batch on one
    /// tape, with the hierarchy embedded batch-wise
    /// ([`HapModel::try_embed_hierarchy_batch`]): the level-0 encoder runs
    /// once over the block-diagonal batch instead of once per graph. Each
    /// returned `Var` is byte-identical to the corresponding
    /// [`HapClassifier::loss`] value, so callers keep per-sample NaN
    /// guards and skip semantics unchanged.
    ///
    /// # Errors
    /// All-or-nothing validation, as documented on
    /// [`HapModel::try_embed_hierarchy_batch`].
    pub fn batch_losses(
        &self,
        tape: &mut Tape<T>,
        items: &[(&Graph, &Tensor<T>, usize)],
        ctx: &mut PoolCtx<'_>,
    ) -> Result<Vec<Var>, crate::HapError> {
        let graphs: Vec<(&Graph, &Tensor<T>)> = items.iter().map(|&(g, x, _)| (g, x)).collect();
        let per_graph = self.model.try_embed_hierarchy_batch(tape, &graphs, ctx)?;
        Ok(per_graph
            .into_iter()
            .zip(items)
            .map(|(levels, &(_, _, label))| {
                let mut it = levels.into_iter();
                let mut e = it.next().expect("at least one level");
                for l in it {
                    e = tape.hstack(e, l);
                }
                let logits = self.head.forward(tape, e);
                cross_entropy_logits(tape, logits, &[label])
            })
            .collect())
    }

    /// Predicted class for one graph (evaluation path).
    ///
    /// Regression note: this argmax used
    /// `partial_cmp(..).expect("finite logits")` and panicked on the first
    /// NaN logit; it now degrades deterministically via the shared
    /// `argmax_logits` helper.
    pub fn predict(&self, graph: &Graph, features: &Tensor<T>, ctx: &mut PoolCtx<'_>) -> usize {
        let mut tape = Tape::new();
        let logits = self.logits(&mut tape, graph, features, ctx);
        let v = tape.value(logits);
        argmax_logits(v, self.classes)
    }

    /// The hierarchical graph embedding (for t-SNE visualisation,
    /// Fig. 4/6).
    pub fn embedding(
        &self,
        graph: &Graph,
        features: &Tensor<T>,
        ctx: &mut PoolCtx<'_>,
    ) -> Tensor<T> {
        self.try_embedding(graph, features, ctx)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`HapClassifier::embedding`] with the degenerate-input contract of
    /// [`HapModel::try_embed_hierarchy`] surfaced as a typed error — the
    /// entry point the serving layer uses, where an empty graph in a
    /// request payload must become a 4xx response rather than a panic in
    /// a worker thread.
    ///
    /// # Errors
    /// [`crate::HapError::EmptyGraph`] / [`crate::HapError::FeatureShape`]
    /// as documented on [`HapModel::try_embed_hierarchy`].
    pub fn try_embedding(
        &self,
        graph: &Graph,
        features: &Tensor<T>,
        ctx: &mut PoolCtx<'_>,
    ) -> Result<Tensor<T>, crate::HapError> {
        let mut tape = Tape::new();
        let levels = self
            .model
            .try_embed_hierarchy(&mut tape, graph, features, ctx)?;
        let mut it = levels.into_iter();
        let mut e = it.next().expect("at least one level");
        for l in it {
            e = tape.hstack(e, l);
        }
        Ok(tape.value(e).clone())
    }

    /// Hierarchical embeddings for a whole batch of graphs, materialised
    /// in submission order — the batched form of
    /// [`HapClassifier::try_embedding`], sharing one tape and one
    /// block-diagonal level-0 forward across the batch. Each returned
    /// tensor is byte-identical to the single-graph call, so training and
    /// retrieval index builds can batch without changing a result.
    ///
    /// # Errors
    /// All-or-nothing validation, as documented on
    /// [`HapModel::try_embed_hierarchy_batch`] — pre-validate items when
    /// per-item errors are needed.
    pub fn try_embeddings(
        &self,
        items: &[(&Graph, &Tensor<T>)],
        ctx: &mut PoolCtx<'_>,
    ) -> Result<Vec<Tensor<T>>, crate::HapError> {
        let mut tape = Tape::new();
        let per_graph = self
            .model
            .try_embed_hierarchy_batch(&mut tape, items, ctx)?;
        Ok(per_graph
            .into_iter()
            .map(|levels| {
                let mut it = levels.into_iter();
                let mut e = it.next().expect("at least one level");
                for l in it {
                    e = tape.hstack(e, l);
                }
                tape.value(e).clone()
            })
            .collect())
    }

    /// Class logits computed from an already-materialised hierarchical
    /// embedding (the `1×(K·hidden)` tensor [`HapClassifier::embedding`]
    /// returns). This is the cache-hit path of `hap-serve`: the expensive
    /// hierarchy is skipped and only the small head runs.
    pub fn logits_from_embedding(&self, embedding: &Tensor<T>) -> Tensor<T> {
        let mut tape = Tape::new();
        let e = tape.constant(embedding.clone());
        let logits = self.head.forward(&mut tape, e);
        tape.value(logits).clone()
    }

    /// Predicted class from the logits
    /// [`HapClassifier::logits_from_embedding`] returned, so a caller that
    /// needs both runs the head once.
    pub fn predict_from_logits(&self, logits: &Tensor<T>) -> usize {
        argmax_logits(logits, self.classes)
    }
}

/// Scale `s` in the similarity kernel `s^k = exp(-s · d^k)` (Eq. 22),
/// the paper's default. [`HapMatcher`] scores pairs with it, and so does
/// any caller that turns embedding distances into similarities.
pub const SIMILARITY_SCALE: f64 = 0.5;

/// Per-level similarity scores of a graph pair.
pub struct PairScore {
    /// `s^k = exp(-s · d^k)` per coarsening level (Eq. 22), with
    /// `s` = [`SIMILARITY_SCALE`].
    pub per_level: Vec<f64>,
}

impl PairScore {
    /// Mean similarity across levels — the quantity thresholded at 0.5
    /// for the matching decision.
    pub fn mean(&self) -> f64 {
        self.per_level.iter().sum::<f64>() / self.per_level.len() as f64
    }

    /// Matching decision.
    pub fn is_match(&self) -> bool {
        self.mean() > 0.5
    }
}

/// Graph matching model (Eqs. 22–23): a siamese HAP hierarchy scores a
/// pair by hierarchical similarity, trained with hierarchical binary
/// cross-entropy.
///
/// Eq. 23 as printed carries only the positive term `Y_p log s`; the
/// standard two-sided BCE is used here (the one-sided form cannot learn
/// from negative pairs), as any runnable implementation must.
pub struct HapMatcher<T: GraphScalar = f64> {
    model: HapModel<T>,
}

impl<T: GraphScalar> HapMatcher<T> {
    /// Wraps a hierarchy; pairs are scored with [`SIMILARITY_SCALE`].
    pub fn new(model: HapModel<T>) -> Self {
        Self { model }
    }

    /// The underlying hierarchy.
    pub fn model(&self) -> &HapModel<T> {
        &self.model
    }

    /// Per-level similarity scores `s^k` as tape nodes (training path).
    pub fn pair_scores(
        &self,
        tape: &mut Tape<T>,
        g1: (&Graph, &Tensor<T>),
        g2: (&Graph, &Tensor<T>),
        ctx: &mut PoolCtx<'_>,
    ) -> Vec<Var> {
        let e1 = self.model.embed_hierarchy(tape, g1.0, g1.1, ctx);
        let e2 = self.model.embed_hierarchy(tape, g2.0, g2.1, ctx);
        debug_assert_eq!(e1.len(), e2.len());
        e1.into_iter()
            .zip(e2)
            .map(|(a, b)| {
                let d = euclidean(tape, a, b);
                let nd = tape.scale(d, -SIMILARITY_SCALE);
                tape.exp(nd)
            })
            .collect()
    }

    /// Hierarchical BCE loss (Eq. 23) for one labelled pair
    /// (`label` = 1 for matching, 0 for non-matching).
    pub fn loss(
        &self,
        tape: &mut Tape<T>,
        g1: (&Graph, &Tensor<T>),
        g2: (&Graph, &Tensor<T>),
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

    /// Evaluation: per-level similarity scores as plain numbers.
    pub fn score(
        &self,
        g1: (&Graph, &Tensor<T>),
        g2: (&Graph, &Tensor<T>),
        ctx: &mut PoolCtx<'_>,
    ) -> PairScore {
        let mut tape = Tape::new();
        let scores = self.pair_scores(&mut tape, g1, g2, ctx);
        PairScore {
            per_level: scores.into_iter().map(|s| tape.scalar(s)).collect(),
        }
    }
}

/// Graph similarity learning model (Eq. 24): hierarchical triplet MSE
/// against the relative GED ground truth of Sec. 4.2.
pub struct HapSimilarity<T: GraphScalar = f64> {
    model: HapModel<T>,
}

impl<T: GraphScalar> HapSimilarity<T> {
    /// Wraps a hierarchy.
    pub fn new(model: HapModel<T>) -> Self {
        Self { model }
    }

    /// The underlying hierarchy.
    pub fn model(&self) -> &HapModel<T> {
        &self.model
    }

    /// The predicted relative distance `d(G₁,G₂) − d(G₁,G₃)`, averaged
    /// across levels (tape node).
    pub fn relative_distance(
        &self,
        tape: &mut Tape<T>,
        g1: (&Graph, &Tensor<T>),
        g2: (&Graph, &Tensor<T>),
        g3: (&Graph, &Tensor<T>),
        ctx: &mut PoolCtx<'_>,
    ) -> Var {
        let e1 = self.model.embed_hierarchy(tape, g1.0, g1.1, ctx);
        let e2 = self.model.embed_hierarchy(tape, g2.0, g2.1, ctx);
        let e3 = self.model.embed_hierarchy(tape, g3.0, g3.1, ctx);
        let k = e1.len();
        let mut acc: Option<Var> = None;
        for ((a, b), c) in e1.into_iter().zip(e2).zip(e3) {
            let d12 = euclidean(tape, a, b);
            let d13 = euclidean(tape, a, c);
            let rel = tape.sub(d12, d13);
            acc = Some(match acc {
                Some(s) => tape.add(s, rel),
                None => rel,
            });
        }
        let total = acc.expect("at least one level");
        tape.scale(total, 1.0 / k as f64)
    }

    /// Eq. 24: squared error between the predicted relative distance and
    /// the relative GED `r = GED(G₁,G₂) − GED(G₁,G₃)`.
    pub fn loss(
        &self,
        tape: &mut Tape<T>,
        g1: (&Graph, &Tensor<T>),
        g2: (&Graph, &Tensor<T>),
        g3: (&Graph, &Tensor<T>),
        relative_ged: f64,
        ctx: &mut PoolCtx<'_>,
    ) -> Var {
        let rel = self.relative_distance(tape, g1, g2, g3, ctx);
        mse_scalar(tape, rel, relative_ged)
    }

    /// Evaluation: does the model order the triplet the same way as the
    /// ground-truth relative GED? (The Fig. 5 accuracy metric: a positive
    /// relative GED means `G₁` is closer to `G₂`… sign agreement.)
    pub fn predict_sign(
        &self,
        g1: (&Graph, &Tensor<T>),
        g2: (&Graph, &Tensor<T>),
        g3: (&Graph, &Tensor<T>),
        ctx: &mut PoolCtx<'_>,
    ) -> f64 {
        let mut tape = Tape::new();
        let rel = self.relative_distance(&mut tape, g1, g2, g3, ctx);
        tape.scalar(rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HapConfig;
    use hap_graph::{degree_one_hot, generators};
    use hap_rand::Rng;

    fn model(seed: u64) -> (ParamStore, HapModel) {
        let mut rng = Rng::from_seed(seed);
        let mut store = ParamStore::<f64>::new();
        let cfg = HapConfig::new(5, 6).with_clusters(&[4, 2]);
        let m = HapModel::new(&mut store, &cfg, &mut rng);
        (store, m)
    }

    #[test]
    fn classifier_logits_loss_and_predict() {
        let (mut store, m) = model(1);
        let mut rng = Rng::from_seed(2);
        let clf = HapClassifier::new(&mut store, m, 3, &mut rng);
        let g = generators::erdos_renyi_connected(8, 0.4, &mut rng);
        let x = degree_one_hot(&g, 5);
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let mut t = Tape::new();
        let loss = clf.loss(&mut t, &g, &x, 1, &mut ctx);
        assert!(t.scalar(loss) > 0.0);
        t.backward(loss);
        assert!(store.grad_norm() > 0.0);
        let pred = clf.predict(&g, &x, &mut ctx);
        assert!(pred < 3);
    }

    #[test]
    fn cached_embedding_path_matches_direct_prediction() {
        // The serve-layer contract: predicting from a materialised
        // embedding must agree with the end-to-end predict path at eval
        // time (same logits, same class).
        let (mut store, m) = model(11);
        let mut rng = Rng::from_seed(12);
        let clf = HapClassifier::new(&mut store, m, 3, &mut rng);
        let g = generators::erdos_renyi_connected(8, 0.4, &mut rng);
        let x = degree_one_hot(&g, 5);
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };
        let emb = clf.try_embedding(&g, &x, &mut ctx).expect("valid graph");
        assert_eq!(emb.shape(), (1, 2 * 6));
        let logits = clf.logits_from_embedding(&emb);
        assert_eq!(logits.shape(), (1, 3));
        let from_cache = clf.predict_from_logits(&logits);
        let direct = clf.predict(&g, &x, &mut ctx);
        assert_eq!(from_cache, direct);

        // the typed-error path the HTTP layer depends on
        let empty = hap_graph::Graph::empty(0);
        let zx = Tensor::zeros(0, 5);
        assert_eq!(
            clf.try_embedding(&empty, &zx, &mut ctx).unwrap_err(),
            crate::HapError::EmptyGraph
        );
    }

    #[test]
    fn nan_logit_no_longer_panics_argmax() {
        // Regression: `predict`'s argmax used
        // `partial_cmp(..).expect("finite logits")` and panicked on a NaN
        // logit. `total_cmp` yields a deterministic answer instead: NaN is
        // the greatest value in the total order, ties keep the last index.
        let v = Tensor::from_rows(&[vec![0.3, f64::NAN, 0.7]]);
        assert_eq!(argmax_logits(&v, 3), 1);
        // finite logits: byte-identical behaviour to the old comparator
        let v = Tensor::from_rows(&[vec![0.3, -1.0, 0.7]]);
        assert_eq!(argmax_logits(&v, 3), 2);
        let v = Tensor::from_rows(&[vec![f64::NEG_INFINITY, -1.0, f64::INFINITY]]);
        assert_eq!(argmax_logits(&v, 3), 2);
    }

    #[test]
    fn matcher_scores_identical_graphs_as_similar() {
        let (_s, m) = model(3);
        let matcher = HapMatcher::new(m);
        let mut rng = Rng::from_seed(4);
        let g = generators::erdos_renyi_connected(7, 0.4, &mut rng);
        let x = degree_one_hot(&g, 5);
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };
        let score = matcher.score((&g, &x), (&g, &x), &mut ctx);
        assert_eq!(score.per_level.len(), 2);
        for s in &score.per_level {
            assert!(
                (s - 1.0).abs() < 1e-6,
                "self-similarity must be ~1, got {s}"
            );
        }
        assert!(score.is_match());
    }

    #[test]
    fn matcher_loss_trains() {
        let (store, m) = model(5);
        let matcher = HapMatcher::new(m);
        let mut rng = Rng::from_seed(6);
        let g1 = generators::erdos_renyi_connected(7, 0.4, &mut rng);
        let g2 = generators::erdos_renyi_connected(9, 0.4, &mut rng);
        let (x1, x2) = (degree_one_hot(&g1, 5), degree_one_hot(&g2, 5));
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let mut t = Tape::new();
        let loss = matcher.loss(&mut t, (&g1, &x1), (&g2, &x2), 0.0, &mut ctx);
        assert!(t.scalar(loss).is_finite());
        t.backward(loss);
        assert!(store.grad_norm() > 0.0);
    }

    #[test]
    fn similarity_triplet_self_relative_distance_is_zero() {
        let (_s, m) = model(7);
        let sim = HapSimilarity::new(m);
        let mut rng = Rng::from_seed(8);
        let g = generators::erdos_renyi_connected(6, 0.5, &mut rng);
        let x = degree_one_hot(&g, 5);
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };
        // d(G,G) - d(G,G) = 0
        let rel = sim.predict_sign((&g, &x), (&g, &x), (&g, &x), &mut ctx);
        assert!(rel.abs() < 1e-9);
    }

    #[test]
    fn similarity_loss_trains() {
        let (store, m) = model(9);
        let sim = HapSimilarity::new(m);
        let mut rng = Rng::from_seed(10);
        let gs: Vec<_> = (0..3)
            .map(|_| generators::erdos_renyi_connected(7, 0.4, &mut rng))
            .collect();
        let xs: Vec<_> = gs.iter().map(|g| degree_one_hot(g, 5)).collect();
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let mut t = Tape::new();
        let loss = sim.loss(
            &mut t,
            (&gs[0], &xs[0]),
            (&gs[1], &xs[1]),
            (&gs[2], &xs[2]),
            1.5,
            &mut ctx,
        );
        assert!(t.scalar(loss).is_finite());
        t.backward(loss);
        assert!(store.grad_norm() > 0.0);
    }
}
