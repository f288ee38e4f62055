//! End-to-end gradient checks: analytic gradients of the full HAP
//! pipelines (classification loss, matching loss, similarity loss)
//! validated against central finite differences for every parameter.
//!
//! These are the strongest correctness tests in the workspace — they
//! exercise GCont, MOA (including the column-reduction sort), the
//! Gumbel-free soft-sampling path, GCN encoders, the readouts and the
//! loss heads in one differentiation chain.

use hap_autograd::{finite_difference_grad, ParamStore, Tape};
use hap_core::{HapClassifier, HapConfig, HapMatcher, HapModel, HapSimilarity};
use hap_graph::{degree_one_hot, generators};
use hap_pooling::PoolCtx;
use hap_rand::Rng;

/// Verifies `d loss / d p` for every parameter in `store` against finite
/// differences, where `loss_of` recomputes the loss deterministically.
fn check_all_params(store: &ParamStore, tol: f64, mut loss_of: impl FnMut() -> f64) {
    // analytic pass
    store.zero_grads();
    let _ = loss_of(); // warm (deterministic) — value unused
    for p in store.iter() {
        let base = p.value();
        let analytic = p.grad();
        let numeric = finite_difference_grad(&base, 1e-5, |probe| {
            p.set_value(probe.clone());
            loss_of_no_grad(&mut loss_of)
        });
        p.set_value(base);
        hap_tensor::testutil::assert_close(&analytic, &numeric, tol);
    }
}

/// Helper so the closure's gradient side effects don't confuse the
/// finite-difference probes: gradients are zeroed after each call.
fn loss_of_no_grad(loss_of: &mut impl FnMut() -> f64) -> f64 {
    loss_of()
}

#[test]
fn classification_loss_gradients_match_finite_differences() {
    let mut rng = Rng::from_seed(1);
    let mut store = ParamStore::new();
    let cfg = HapConfig::new(4, 4).with_clusters(&[3, 2]);
    let model = HapModel::new(&mut store, &cfg, &mut rng);
    let clf = HapClassifier::new(&mut store, model, 2, &mut rng);
    let g = generators::erdos_renyi_connected(6, 0.5, &mut rng);
    let x = degree_one_hot(&g, 4);

    // deterministic loss: eval-mode soft sampling (no Gumbel noise)
    let loss_of = || {
        store.zero_grads();
        let mut rng = Rng::from_seed(0);
        let mut tape = Tape::new();
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };
        let loss = clf.loss(&mut tape, &g, &x, 1, &mut ctx);
        let v = tape.scalar(loss);
        tape.backward(loss);
        v
    };
    check_all_params(&store, 2e-4, loss_of);
}

#[test]
fn matching_loss_gradients_match_finite_differences() {
    let mut rng = Rng::from_seed(2);
    let mut store = ParamStore::new();
    let cfg = HapConfig::new(4, 4).with_clusters(&[3]);
    let model = HapModel::new(&mut store, &cfg, &mut rng);
    let matcher = HapMatcher::new(model);
    let g1 = generators::erdos_renyi_connected(5, 0.5, &mut rng);
    let g2 = generators::erdos_renyi_connected(6, 0.4, &mut rng);
    let (x1, x2) = (degree_one_hot(&g1, 4), degree_one_hot(&g2, 4));

    let loss_of = || {
        store.zero_grads();
        let mut rng = Rng::from_seed(0);
        let mut tape = Tape::new();
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };
        let loss = matcher.loss(&mut tape, (&g1, &x1), (&g2, &x2), 0.0, &mut ctx);
        let v = tape.scalar(loss);
        tape.backward(loss);
        v
    };
    check_all_params(&store, 2e-4, loss_of);
}

#[test]
fn similarity_loss_gradients_match_finite_differences() {
    let mut rng = Rng::from_seed(3);
    let mut store = ParamStore::new();
    let cfg = HapConfig::new(4, 4).with_clusters(&[3]);
    let model = HapModel::new(&mut store, &cfg, &mut rng);
    let sim = HapSimilarity::new(model);
    let gs: Vec<_> = (0..3)
        .map(|_| generators::erdos_renyi_connected(5, 0.5, &mut rng))
        .collect();
    let xs: Vec<_> = gs.iter().map(|g| degree_one_hot(g, 4)).collect();

    let loss_of = || {
        store.zero_grads();
        let mut rng = Rng::from_seed(0);
        let mut tape = Tape::new();
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };
        let loss = sim.loss(
            &mut tape,
            (&gs[0], &xs[0]),
            (&gs[1], &xs[1]),
            (&gs[2], &xs[2]),
            0.8,
            &mut ctx,
        );
        let v = tape.scalar(loss);
        tape.backward(loss);
        v
    };
    check_all_params(&store, 2e-4, loss_of);
}
