//! Shared experiment logic: train/evaluate one model configuration for
//! each of the three tasks. Every experiment binary is a thin loop over
//! these runners.

use hap_autograd::ParamStore;
use hap_core::{AblationKind, HapClassifier, HapConfig, HapMatcher, HapModel, HapSimilarity};
use hap_data::{ClassificationDataset, GedGraph, MatchingPair, TripletSample};
use hap_ged::{batch_ged, exact_ged, EditCosts, GedMethod};
use hap_match::{Gmn, GmnHap, SimGnn};
use hap_pooling::{BaselineKind, PoolCtx, PoolingClassifier};
use hap_rand::Rng;
use hap_tensor::Tensor;
use hap_train::{train, TrainConfig};
use std::cell::RefCell;
use std::collections::HashMap;

/// The training schedule of every experiment: mini-batches of 8, global
/// gradient clipping at 5, no early stopping, silent, and the trainer's
/// RNG seeded from the experiment seed.
pub fn train_config(epochs: usize, lr: f64, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 8,
        lr,
        seed: seed ^ 0x5eed,
        patience: None,
        grad_clip: Some(5.0),
        log_every: 0,
    }
}

/// The exact-GED similarity target of a corpus pair, for the pairwise
/// objectives (SimGNN, GMN). Each unordered pair's GED is computed once:
/// every epoch asks for the same pairs again.
fn exact_similarity(corpus: &[GedGraph]) -> impl Fn(usize, usize) -> f64 + '_ {
    let costs = EditCosts::uniform();
    let geds = RefCell::new(HashMap::new());
    move |i, j| {
        let (gi, gj) = (&corpus[i].graph, &corpus[j].graph);
        let ged = *geds
            .borrow_mut()
            .entry((i.min(j), i.max(j)))
            .or_insert_with(|| exact_ged(gi, gj, &costs));
        SimGnn::ged_to_similarity(ged, gi.n(), gj.n())
    }
}

/// Which classifier fills a Table 3 / Table 5 row.
#[derive(Clone, Copy, Debug)]
pub enum ClassifierChoice {
    /// One of the twelve baseline pooling methods.
    Baseline(BaselineKind),
    /// HAP, or an ablated HAP (Table 5). `AblationKind::Hap` is the real
    /// model.
    Hap(AblationKind),
}

impl ClassifierChoice {
    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            ClassifierChoice::Baseline(k) => k.label(),
            ClassifierChoice::Hap(k) => k.label(),
        }
    }
}

enum AnyClassifier {
    Baseline(PoolingClassifier),
    Hap(HapClassifier),
}

impl AnyClassifier {
    fn predict(&self, g: &hap_graph::Graph, x: &Tensor, ctx: &mut PoolCtx<'_>) -> usize {
        match self {
            AnyClassifier::Baseline(m) => m.predict(g, x, ctx),
            AnyClassifier::Hap(m) => m.predict(g, x, ctx),
        }
    }

    fn embedding(&self, g: &hap_graph::Graph, x: &Tensor, ctx: &mut PoolCtx<'_>) -> Tensor {
        match self {
            AnyClassifier::Baseline(m) => m.embedding(g, x, ctx),
            AnyClassifier::Hap(m) => m.embedding(g, x, ctx),
        }
    }
}

fn build_classifier(
    choice: ClassifierChoice,
    in_dim: usize,
    hidden: usize,
    classes: usize,
    store: &mut ParamStore,
    rng: &mut Rng,
) -> AnyClassifier {
    match choice {
        ClassifierChoice::Baseline(kind) => AnyClassifier::Baseline(PoolingClassifier::new(
            store, kind, in_dim, hidden, classes, rng,
        )),
        ClassifierChoice::Hap(kind) => {
            let cfg = HapConfig::new(in_dim, hidden).with_clusters(&[8, 4]);
            let model = HapModel::with_ablation(store, &cfg, kind, rng);
            AnyClassifier::Hap(HapClassifier::new(store, model, classes, rng))
        }
    }
}

/// Trains `choice` on `ds` (8:1:1 split) and returns
/// `(test_accuracy, whole-dataset embeddings, labels)` — the
/// embeddings feed the Fig. 4 t-SNE.
pub fn classification_accuracy(
    ds: &ClassificationDataset,
    choice: ClassifierChoice,
    hidden: usize,
    epochs: usize,
    seed: u64,
) -> (f64, Vec<Tensor>, Vec<usize>) {
    let mut rng = Rng::from_seed(seed);
    let mut store = ParamStore::new();
    let model = build_classifier(
        choice,
        ds.feature_dim,
        hidden,
        ds.num_classes,
        &mut store,
        &mut rng,
    );
    let (train_idx, val_idx, test_idx) = hap_data::split_811(ds.samples.len(), &mut rng);
    // The deep coarsening stack needs a gentler learning rate than the
    // flat baselines (lr 0.01 stalls HAP's optimization entirely).
    let lr = match choice {
        ClassifierChoice::Hap(_) => 0.003,
        ClassifierChoice::Baseline(_) => 0.01,
    };
    let cfg = train_config(epochs, lr, seed);
    let report = train(
        &store,
        &cfg,
        &train_idx,
        &val_idx,
        &test_idx,
        &mut |tape, i, ctx| {
            let s = &ds.samples[i];
            match &model {
                AnyClassifier::Baseline(m) => {
                    let logits = m.logits(tape, &s.graph, &s.features, ctx);
                    hap_nn::cross_entropy_logits(tape, logits, &[s.label])
                }
                AnyClassifier::Hap(m) => m.loss(tape, &s.graph, &s.features, s.label, ctx),
            }
        },
        &mut |i, ctx| {
            let s = &ds.samples[i];
            model.predict(&s.graph, &s.features, ctx) == s.label
        },
    );

    let mut eval_rng = Rng::from_seed(seed ^ 0xe4a1);
    let mut embeds = Vec::with_capacity(ds.samples.len());
    let mut labels = Vec::with_capacity(ds.samples.len());
    for s in &ds.samples {
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut eval_rng,
        };
        embeds.push(model.embedding(&s.graph, &s.features, &mut ctx));
        labels.push(s.label);
    }
    (report.test_metric, embeds, labels)
}

/// Convenience for Table 5/6: a HAP classifier with an explicit cluster
/// schedule.
pub fn hap_ablation_classifier(
    ds: &ClassificationDataset,
    kind: AblationKind,
    clusters: &[usize],
    hidden: usize,
    epochs: usize,
    seed: u64,
) -> f64 {
    let mut rng = Rng::from_seed(seed);
    let mut store = ParamStore::new();
    let cfg = HapConfig::new(ds.feature_dim, hidden).with_clusters(clusters);
    let model = HapModel::with_ablation(&mut store, &cfg, kind, &mut rng);
    let clf = HapClassifier::new(&mut store, model, ds.num_classes, &mut rng);
    let (train_idx, val_idx, test_idx) = hap_data::split_811(ds.samples.len(), &mut rng);
    let tcfg = train_config(epochs, 0.003, seed);
    let report = train(
        &store,
        &tcfg,
        &train_idx,
        &val_idx,
        &test_idx,
        &mut |tape, i, ctx| {
            let s = &ds.samples[i];
            clf.loss(tape, &s.graph, &s.features, s.label, ctx)
        },
        &mut |i, ctx| {
            let s = &ds.samples[i];
            clf.predict(&s.graph, &s.features, ctx) == s.label
        },
    );
    report.test_metric
}

// ---------------------------------------------------------------------
// graph matching
// ---------------------------------------------------------------------

/// A trained matcher, evaluable on any pair corpus (Table 4 / 6 / 7).
pub enum TrainedMatcher {
    /// HAP (possibly ablated) with its parameters.
    Hap(HapMatcher, ParamStore),
    /// GMN baseline.
    Gmn(Gmn, ParamStore),
    /// GMN-HAP hybrid.
    GmnHap(GmnHap, ParamStore),
}

/// Evaluation of a pair corpus.
pub trait MatchEval {
    /// Accuracy of the match/non-match decision on `pairs`.
    fn matching_accuracy(&self, pairs: &[MatchingPair], seed: u64) -> f64;
}

impl MatchEval for TrainedMatcher {
    fn matching_accuracy(&self, pairs: &[MatchingPair], seed: u64) -> f64 {
        let mut rng = Rng::from_seed(seed);
        let correct = pairs
            .iter()
            .filter(|p| {
                let mut ctx = PoolCtx {
                    training: false,
                    rng: &mut rng,
                };
                let s = match self {
                    TrainedMatcher::Hap(m, _) => {
                        m.score((&p.g1, &p.x1), (&p.g2, &p.x2), &mut ctx).mean()
                    }
                    TrainedMatcher::Gmn(m, _) => m.score((&p.g1, &p.x1), (&p.g2, &p.x2)),
                    TrainedMatcher::GmnHap(m, _) => {
                        m.score((&p.g1, &p.x1), (&p.g2, &p.x2), &mut ctx)
                    }
                };
                (s > 0.5) == (p.label > 0.5)
            })
            .count();
        correct as f64 / pairs.len().max(1) as f64
    }
}

fn train_matcher_core(
    pairs: &[MatchingPair],
    epochs: usize,
    lr: f64,
    seed: u64,
    store: &ParamStore,
    mut loss: impl FnMut(&mut hap_autograd::Tape, &MatchingPair, &mut PoolCtx<'_>) -> hap_autograd::Var,
    mut eval: impl FnMut(&MatchingPair, &mut PoolCtx<'_>) -> bool,
) {
    let n = pairs.len();
    let split = (n as f64 * 0.9) as usize;
    let train_idx: Vec<usize> = (0..split).collect();
    let val_idx: Vec<usize> = (split..n).collect();
    let cfg = train_config(epochs, lr, seed);
    train(
        store,
        &cfg,
        &train_idx,
        &val_idx,
        &val_idx,
        &mut |tape, i, ctx| loss(tape, &pairs[i], ctx),
        &mut |i, ctx| eval(&pairs[i], ctx),
    );
}

/// Trains a HAP matcher (optionally ablated; `clusters` sets the
/// hierarchy depth for Table 6) on `pairs`.
pub fn train_hap_matcher(
    pairs: &[MatchingPair],
    kind: AblationKind,
    clusters: &[usize],
    hidden: usize,
    epochs: usize,
    seed: u64,
) -> TrainedMatcher {
    let mut rng = Rng::from_seed(seed);
    let mut store = ParamStore::new();
    let in_dim = pairs[0].x1.cols();
    let cfg = HapConfig::new(in_dim, hidden).with_clusters(clusters);
    let model = HapModel::with_ablation(&mut store, &cfg, kind, &mut rng);
    let matcher = HapMatcher::new(model);
    train_matcher_core(
        pairs,
        epochs,
        0.003,
        seed,
        &store,
        |tape, p, ctx| matcher.loss(tape, (&p.g1, &p.x1), (&p.g2, &p.x2), p.label, ctx),
        |p, ctx| {
            let s = matcher.score((&p.g1, &p.x1), (&p.g2, &p.x2), ctx);
            s.is_match() == (p.label > 0.5)
        },
    );
    TrainedMatcher::Hap(matcher, store)
}

/// Trains the GMN baseline on `pairs`.
pub fn matching_accuracy_gmn(
    pairs: &[MatchingPair],
    hidden: usize,
    epochs: usize,
    seed: u64,
) -> TrainedMatcher {
    let mut rng = Rng::from_seed(seed);
    let mut store = ParamStore::new();
    let in_dim = pairs[0].x1.cols();
    let model = Gmn::new(&mut store, in_dim, hidden, 2, &mut rng);
    train_matcher_core(
        pairs,
        epochs,
        0.01,
        seed,
        &store,
        |tape, p, _ctx| model.loss(tape, (&p.g1, &p.x1), (&p.g2, &p.x2), p.label),
        |p, _ctx| (model.score((&p.g1, &p.x1), (&p.g2, &p.x2)) > 0.5) == (p.label > 0.5),
    );
    TrainedMatcher::Gmn(model, store)
}

/// Trains the GMN-HAP hybrid on `pairs`.
pub fn matching_accuracy_gmn_hap(
    pairs: &[MatchingPair],
    clusters: &[usize],
    hidden: usize,
    epochs: usize,
    seed: u64,
) -> TrainedMatcher {
    let mut rng = Rng::from_seed(seed);
    let mut store = ParamStore::new();
    let in_dim = pairs[0].x1.cols();
    let model = GmnHap::new(&mut store, in_dim, hidden, 2, clusters, &mut rng);
    train_matcher_core(
        pairs,
        epochs,
        0.003,
        seed,
        &store,
        |tape, p, ctx| model.loss(tape, (&p.g1, &p.x1), (&p.g2, &p.x2), p.label, ctx),
        |p, ctx| (model.score((&p.g1, &p.x1), (&p.g2, &p.x2), ctx) > 0.5) == (p.label > 0.5),
    );
    TrainedMatcher::GmnHap(model, store)
}

/// Shorthand: train HAP on `pairs` and evaluate on the same distribution
/// (`eval_pairs`).
pub fn matching_accuracy_hap(
    pairs: &[MatchingPair],
    eval_pairs: &[MatchingPair],
    clusters: &[usize],
    hidden: usize,
    epochs: usize,
    seed: u64,
) -> f64 {
    train_hap_matcher(pairs, AblationKind::Hap, clusters, hidden, epochs, seed)
        .matching_accuracy(eval_pairs, seed)
}

// ---------------------------------------------------------------------
// graph similarity learning
// ---------------------------------------------------------------------

/// Conventional GED baseline for Fig. 5.
#[derive(Clone, Copy, Debug)]
pub enum GedAlg {
    /// Beam search with the given width.
    Beam(usize),
    /// Riesen–Bunke with Hungarian LSAP.
    Hungarian,
    /// Riesen–Bunke with Jonker–Volgenant LSAP.
    Vj,
}

impl From<GedAlg> for GedMethod {
    fn from(alg: GedAlg) -> Self {
        match alg {
            GedAlg::Beam(w) => GedMethod::Beam(w),
            GedAlg::Hungarian => GedMethod::Hungarian,
            GedAlg::Vj => GedMethod::Vj,
        }
    }
}

/// Fig. 5 accuracy of a conventional GED algorithm: fraction of triplets
/// where the approximate relative GED agrees in sign with the exact one.
pub fn similarity_accuracy_ged(
    corpus: &[GedGraph],
    triplets: &[TripletSample],
    alg: GedAlg,
) -> f64 {
    let costs = EditCosts::uniform();
    // Each triplet needs ged(a,b) and ged(a,c); batch all 2·T pairs through
    // hap-ged's parallel per-pair dispatch.
    let pairs: Vec<_> = triplets
        .iter()
        .flat_map(|t| {
            [
                (&corpus[t.a].graph, &corpus[t.b].graph),
                (&corpus[t.a].graph, &corpus[t.c].graph),
            ]
        })
        .collect();
    let dists = batch_ged(&pairs, alg.into(), &costs);
    let correct = triplets
        .iter()
        .zip(dists.chunks(2))
        .filter(|(t, d)| {
            let approx = d[0] - d[1];
            approx != 0.0 && (approx < 0.0) == (t.relative_ged < 0.0)
        })
        .count();
    correct as f64 / triplets.len().max(1) as f64
}

fn triplet_split(triplets: &[TripletSample]) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let n = triplets.len();
    let tr = (n as f64 * 0.8) as usize;
    let va = (n as f64 * 0.9) as usize;
    ((0..tr).collect(), (tr..va).collect(), (va..n).collect())
}

/// Fig. 5 / Table 5 / Table 6: trains a HAP similarity model (optionally
/// ablated, with an explicit cluster schedule) and returns the
/// triplet-ordering test accuracy.
pub fn similarity_accuracy_hap_ablation(
    corpus: &[GedGraph],
    triplets: &[TripletSample],
    kind: AblationKind,
    clusters: &[usize],
    hidden: usize,
    epochs: usize,
    seed: u64,
) -> f64 {
    let mut rng = Rng::from_seed(seed);
    let mut store = ParamStore::new();
    let in_dim = corpus[0].features.cols();
    let cfg = HapConfig::new(in_dim, hidden).with_clusters(clusters);
    let model = HapModel::with_ablation(&mut store, &cfg, kind, &mut rng);
    let sim = HapSimilarity::new(model);
    let (train_idx, val_idx, test_idx) = triplet_split(triplets);
    let tcfg = train_config(epochs, 0.003, seed);
    let g = |i: usize| {
        (
            &corpus[triplets[i].a],
            &corpus[triplets[i].b],
            &corpus[triplets[i].c],
        )
    };
    let report = train(
        &store,
        &tcfg,
        &train_idx,
        &val_idx,
        &test_idx,
        &mut |tape, i, ctx| {
            let (a, b, c) = g(i);
            sim.loss(
                tape,
                (&a.graph, &a.features),
                (&b.graph, &b.features),
                (&c.graph, &c.features),
                triplets[i].relative_ged,
                ctx,
            )
        },
        &mut |i, ctx| {
            let (a, b, c) = g(i);
            let rel = sim.predict_sign(
                (&a.graph, &a.features),
                (&b.graph, &b.features),
                (&c.graph, &c.features),
                ctx,
            );
            (rel < 0.0) == (triplets[i].relative_ged < 0.0)
        },
    );
    report.test_metric
}

/// Fig. 5: trains GMN's pair score on the pairwise similarity targets
/// (MSE, like SimGNN) and evaluates triplet ordering by score
/// comparison.
pub fn similarity_accuracy_gmn(
    corpus: &[GedGraph],
    triplets: &[TripletSample],
    hidden: usize,
    epochs: usize,
    seed: u64,
) -> f64 {
    let mut rng = Rng::from_seed(seed);
    let mut store = ParamStore::new();
    let in_dim = corpus[0].features.cols();
    let model = Gmn::new(&mut store, in_dim, hidden, 2, &mut rng);
    let target = exact_similarity(corpus);
    let (train_idx, val_idx, test_idx) = triplet_split(triplets);
    let tcfg = train_config(epochs, 0.01, seed);
    let report = train(
        &store,
        &tcfg,
        &train_idx,
        &val_idx,
        &test_idx,
        &mut |tape, i, _ctx| {
            let t = &triplets[i];
            let (x, y) = if i % 2 == 0 { (t.a, t.b) } else { (t.a, t.c) };
            let tgt = target(x, y);
            let s = model.pair_score(
                tape,
                (&corpus[x].graph, &corpus[x].features),
                (&corpus[y].graph, &corpus[y].features),
            );
            hap_nn::mse_scalar(tape, s, tgt)
        },
        &mut |i, _ctx| {
            let t = &triplets[i];
            let sab = model.score(
                (&corpus[t.a].graph, &corpus[t.a].features),
                (&corpus[t.b].graph, &corpus[t.b].features),
            );
            let sac = model.score(
                (&corpus[t.a].graph, &corpus[t.a].features),
                (&corpus[t.c].graph, &corpus[t.c].features),
            );
            (sab > sac) == (t.relative_ged < 0.0)
        },
    );
    report.test_metric
}

/// Fig. 5: trains SimGNN on the pairwise absolute-similarity objective
/// and evaluates triplet ordering by comparing the two pair scores.
pub fn similarity_accuracy_simgnn(
    corpus: &[GedGraph],
    triplets: &[TripletSample],
    hidden: usize,
    epochs: usize,
    seed: u64,
) -> f64 {
    let mut rng = Rng::from_seed(seed);
    let mut store = ParamStore::new();
    let in_dim = corpus[0].features.cols();
    let model = SimGnn::new(&mut store, in_dim, hidden, &mut rng);
    let target = exact_similarity(corpus);
    let (train_idx, val_idx, test_idx) = triplet_split(triplets);
    let tcfg = train_config(epochs, 0.01, seed);
    let report = train(
        &store,
        &tcfg,
        &train_idx,
        &val_idx,
        &test_idx,
        &mut |tape, i, ctx| {
            let t = &triplets[i];
            // alternate between the two legs of the triplet as training pairs
            let (x, y) = if i % 2 == 0 { (t.a, t.b) } else { (t.a, t.c) };
            let tgt = target(x, y);
            model.loss(
                tape,
                (&corpus[x].graph, &corpus[x].features),
                (&corpus[y].graph, &corpus[y].features),
                tgt,
                ctx,
            )
        },
        &mut |i, ctx| {
            let t = &triplets[i];
            let sab = model.score(
                (&corpus[t.a].graph, &corpus[t.a].features),
                (&corpus[t.b].graph, &corpus[t.b].features),
                ctx,
            );
            let sac = model.score(
                (&corpus[t.a].graph, &corpus[t.a].features),
                (&corpus[t.c].graph, &corpus[t.c].features),
                ctx,
            );
            // higher similarity = smaller GED; relative_ged < 0 means a
            // is closer to b
            (sab > sac) == (t.relative_ged < 0.0)
        },
    );
    report.test_metric
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_rand::Rng;

    #[test]
    fn classification_runner_smoke() {
        let mut rng = Rng::from_seed(1);
        let ds = hap_data::imdb_b(30, &mut rng);
        let (acc, embeds, labels) = classification_accuracy(
            &ds,
            ClassifierChoice::Baseline(BaselineKind::SumPool),
            6,
            3,
            1,
        );
        assert!((0.0..=1.0).contains(&acc));
        assert_eq!(embeds.len(), labels.len());
        assert!(!embeds.is_empty());
    }

    #[test]
    fn matching_runner_smoke() {
        let mut rng = Rng::from_seed(2);
        let pairs = hap_data::matching_corpus(12, 10, &mut rng);
        let m = train_hap_matcher(&pairs, AblationKind::Hap, &[4, 2], 6, 2, 1);
        let acc = m.matching_accuracy(&pairs, 1);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn ged_similarity_runner_smoke() {
        let mut rng = Rng::from_seed(3);
        let corpus = hap_data::linux_like(8, &mut rng);
        let triplets = hap_data::triplet_corpus(&corpus, 10, &mut rng);
        for alg in [
            GedAlg::Beam(1),
            GedAlg::Beam(80),
            GedAlg::Hungarian,
            GedAlg::Vj,
        ] {
            let acc = similarity_accuracy_ged(&corpus, &triplets, alg);
            assert!((0.0..=1.0).contains(&acc), "{alg:?}: {acc}");
        }
        // Beam80 on ≤10-node graphs is near-exact: should order triplets
        // almost perfectly.
        let acc80 = similarity_accuracy_ged(&corpus, &triplets, GedAlg::Beam(80));
        assert!(acc80 >= 0.8, "beam80 accuracy {acc80}");
    }
}
