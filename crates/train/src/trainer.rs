//! The generic training loop.

use crate::accuracy;
use hap_autograd::{ParamStore, Tape, Var};
use hap_nn::{Adam, Optimizer};
use hap_pooling::PoolCtx;
use hap_rand::Rng;
use hap_rand::SliceRandom;
use hap_tensor::{Scalar, Tensor};

/// Training hyper-parameters. The defaults mirror Sec. 6.1.3 (Adam,
/// lr 0.01) at quick-experiment scale.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Gradient-accumulation mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// RNG seed for shuffling and stochastic model components.
    pub seed: u64,
    /// Early-stopping patience in epochs (`None` = run all epochs).
    pub patience: Option<usize>,
    /// Global-norm gradient clipping threshold.
    pub grad_clip: Option<f64>,
    /// Print a progress line every `log_every` epochs (0 = silent).
    pub log_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_size: 8,
            lr: 0.01,
            seed: 7,
            patience: Some(10),
            grad_clip: Some(5.0),
            log_every: 0,
        }
    }
}

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub train_losses: Vec<f64>,
    /// Validation metric per epoch.
    pub val_history: Vec<f64>,
    /// Best validation metric seen (the checkpoint that was restored).
    pub best_val: f64,
    /// Test metric of the restored best checkpoint.
    pub test_metric: f64,
    /// Number of epochs actually run.
    pub epochs_run: usize,
}

/// Builds the loss for one training sample: `(tape, sample_index, ctx)`.
pub type LossFn<'a, T = f64> = dyn FnMut(&mut Tape<T>, usize, &mut PoolCtx<'_>) -> Var + 'a;
/// Builds per-sample losses for a whole mini-batch on one tape:
/// `(tape, batch_indices, ctx) → one loss Var per index, in order`.
pub type BatchLossFn<'a, T = f64> =
    dyn FnMut(&mut Tape<T>, &[usize], &mut PoolCtx<'_>) -> Vec<Var> + 'a;
/// Evaluates one sample: `(sample_index, ctx) → correct?`.
pub type EvalFn<'a> = dyn FnMut(usize, &mut PoolCtx<'_>) -> bool + 'a;

/// The training step: the Adam state, one persistent tape, the clip
/// bound and the running sample counter. [`train`], [`train_batched`]
/// and the micro-benchmarks all update parameters through
/// [`Stepper::step`].
pub struct Stepper<T: Scalar> {
    adam: Adam<T>,
    // One tape for the whole run: `reset()` between groups drops the last
    // pass's values and gradients but keeps the node and gradient
    // vectors' capacity, so they are not regrown every step.
    tape: Tape<T>,
    grad_clip: Option<f64>,
    sample_step: u64,
}

impl<T: Scalar> Stepper<T> {
    /// Adam at learning rate `lr`, an empty tape, and global-norm
    /// gradient clipping at `grad_clip` (`None` = never clip).
    pub fn new(lr: f64, grad_clip: Option<f64>) -> Self {
        Stepper {
            adam: Adam::new(lr),
            tape: Tape::new(),
            grad_clip,
            sample_step: 0,
        }
    }

    /// One optimiser step over `batch`.
    ///
    /// The batch is cut into groups of `group` samples. Each group gets
    /// one `tape.reset()`, one `loss_fn` call (with `rng` as the
    /// stochastic model components' source) and one backward through the
    /// sum of its finite losses, seeded `1/batch.len()` so the
    /// accumulated gradient is the batch mean. Then the gradient norm is
    /// guarded, clipped to the bound, and Adam steps once.
    ///
    /// * `group = 1` is the per-sample loop of [`train`]; `group =
    ///   batch.len()` is one shared tape and one backward, as in
    ///   [`train_batched`]. Loss values agree bit for bit; the gradients
    ///   agree in exact arithmetic but are summed in a different order.
    /// * Each finite loss is added to `loss_sum` as it is computed. A
    ///   non-finite one is skipped and reported: it would poison every
    ///   parameter through backprop, so it contributes neither to
    ///   `loss_sum` nor to the gradient.
    /// * A non-finite gradient norm drops the whole update.
    ///
    /// # Panics
    /// If `group` is 0, or `loss_fn` returns a different number of
    /// losses than the group has samples.
    pub fn step(
        &mut self,
        store: &ParamStore<T>,
        batch: &[usize],
        group: usize,
        loss_fn: &mut BatchLossFn<'_, T>,
        rng: &mut Rng,
        loss_sum: &mut f64,
    ) {
        let _bt = hap_obs::time_scope("train.batch");
        store.zero_grads();
        for samples in batch.chunks(group) {
            self.sample_step += samples.len() as u64;
            hap_obs::set_step(self.sample_step);
            self.tape.reset();
            let mut ctx = PoolCtx {
                training: true,
                rng: &mut *rng,
            };
            let losses = loss_fn(&mut self.tape, samples, &mut ctx);
            assert_eq!(
                losses.len(),
                samples.len(),
                "loss closure must return one loss per sample"
            );
            // A finite run never skips, so its trajectory is
            // byte-identical to an unguarded loop.
            let mut total: Option<Var> = None;
            for loss in losses {
                let loss_val = self.tape.scalar(loss);
                if !hap_obs::guard_scalar("train.loss", loss_val) {
                    hap_obs::inc("train.skipped_samples");
                    continue;
                }
                *loss_sum += loss_val;
                hap_obs::inc("train.samples");
                hap_obs::record("train.loss", loss_val);
                total = Some(match total {
                    Some(t) => self.tape.add(t, loss),
                    None => loss,
                });
            }
            if let Some(total) = total {
                self.tape.backward_with_seed(
                    total,
                    Tensor::full(1, 1, T::from_f64(1.0 / batch.len() as f64)),
                );
            }
        }
        // The gradient norm is needed for clipping anyway; reuse it as
        // the NaN sentinel (and compute it just for that when metrics
        // are on). A non-finite norm means some gradient went NaN/∞ —
        // applying Adam would corrupt the whole parameter store, so
        // the batch is dropped instead and the event recorded.
        let norm = (self.grad_clip.is_some() || hap_obs::enabled()).then(|| store.grad_norm());
        let mut apply = true;
        if let Some(norm) = norm {
            hap_obs::record("train.grad_norm", norm);
            if !hap_obs::guard_scalar("train.grad_norm", norm) {
                hap_obs::inc("train.skipped_batches");
                store.zero_grads();
                apply = false;
            } else if let Some(clip) = self.grad_clip.filter(|&clip| norm > clip) {
                store.scale_grads(clip / norm);
            }
        }
        if apply {
            self.adam.step(store);
        }
        hap_obs::inc("train.batches");
    }
}

/// Trains with Adam + gradient accumulation and returns the report.
///
/// * `train_idx` / `val_idx` / `test_idx` index the task's sample storage;
///   the harness never sees the samples themselves.
/// * Every sample gets its own tape and backward ([`Stepper::step`] with
///   groups of one).
/// * After every epoch the validation metric decides checkpointing; the
///   best checkpoint is restored before the final test evaluation.
///
/// All randomness derives from `cfg.seed`, so the same config reproduces
/// the same `TrainReport` bit-for-bit. The root generator is never drawn
/// from directly; it is split into three labelled streams
/// (`fork("shuffle")`, `fork("model")`, `fork("eval")`) so epoch
/// shuffling, stochastic model components (dropout masks, Gumbel noise)
/// and evaluation passes are decorrelated and *independent*: extra draws
/// in one concern (say, an extra eval pass) can never shift another
/// stream and silently change the training trajectory.
pub fn train<T: Scalar>(
    store: &ParamStore<T>,
    cfg: &TrainConfig,
    train_idx: &[usize],
    val_idx: &[usize],
    test_idx: &[usize],
    loss_fn: &mut LossFn<'_, T>,
    eval_fn: &mut EvalFn<'_>,
) -> TrainReport {
    train_core(
        store,
        cfg,
        train_idx,
        val_idx,
        test_idx,
        1,
        &mut |tape, samples, ctx| vec![loss_fn(tape, samples[0], ctx)],
        eval_fn,
    )
}

/// [`train`] with whole mini-batches embedded per forward pass: the
/// closure builds **all** of a batch's per-sample losses on one tape
/// (e.g. via `HapClassifier::batch_losses`, which runs the level-0
/// encoder once over a block-diagonal batch), and a single backward
/// sweep through their sum produces the accumulated gradient
/// ([`Stepper::step`] with one group per batch).
///
/// Semantics versus [`train`]:
/// * Per-sample loss *values* are byte-identical (the batched forward is
///   bitwise the looped forward, and `model_rng` draws happen in the same
///   per-sample order), so the NaN skip-and-report guard still applies
///   sample by sample — a poisoned sample drops out of the summed loss
///   exactly as it dropped out of the per-sample loop.
/// * Accumulated *gradients* are deterministic (same config → same run,
///   bit for bit) but not bitwise-equal to the per-sample loop's: one
///   backward through `Σ lᵢ` accumulates in a different floating-point
///   order than `B` separate backwards. Both are exact-arithmetic equal.
/// * Grad-norm clipping and the non-finite-norm batch drop are unchanged.
pub fn train_batched<T: Scalar>(
    store: &ParamStore<T>,
    cfg: &TrainConfig,
    train_idx: &[usize],
    val_idx: &[usize],
    test_idx: &[usize],
    batch_loss_fn: &mut BatchLossFn<'_, T>,
    eval_fn: &mut EvalFn<'_>,
) -> TrainReport {
    train_core(
        store,
        cfg,
        train_idx,
        val_idx,
        test_idx,
        cfg.batch_size,
        batch_loss_fn,
        eval_fn,
    )
}

/// The epoch loop behind [`train`] and [`train_batched`]; `group` is the
/// [`Stepper::step`] group size.
#[allow(clippy::too_many_arguments)]
fn train_core<T: Scalar>(
    store: &ParamStore<T>,
    cfg: &TrainConfig,
    train_idx: &[usize],
    val_idx: &[usize],
    test_idx: &[usize],
    group: usize,
    loss_fn: &mut BatchLossFn<'_, T>,
    eval_fn: &mut EvalFn<'_>,
) -> TrainReport {
    assert!(!train_idx.is_empty(), "empty training set");
    let mut rng = Rng::from_seed(cfg.seed);
    let mut shuffle_rng = rng.fork("shuffle");
    let mut model_rng = rng.fork("model");
    let mut eval_rng = rng.fork("eval");
    let mut stepper = Stepper::new(cfg.lr, cfg.grad_clip);
    let mut order = train_idx.to_vec();

    let mut best_val = f64::NEG_INFINITY;
    let mut best_snapshot = store.snapshot();
    let mut stale = 0usize;
    let mut train_losses = Vec::with_capacity(cfg.epochs);
    let mut val_history = Vec::with_capacity(cfg.epochs);
    let mut epochs_run = 0;

    for epoch in 0..cfg.epochs {
        epochs_run = epoch + 1;
        order.shuffle(&mut shuffle_rng);
        let mut epoch_loss = 0.0;
        for batch in order.chunks(cfg.batch_size) {
            stepper.step(
                store,
                batch,
                group,
                loss_fn,
                &mut model_rng,
                &mut epoch_loss,
            );
        }
        train_losses.push(epoch_loss / order.len() as f64);

        let val = evaluate(val_idx, &mut eval_rng, eval_fn);
        hap_obs::inc("train.epochs");
        hap_obs::record("train.val_metric", val);
        val_history.push(val);
        if cfg.log_every > 0 && epoch % cfg.log_every == 0 {
            eprintln!(
                "epoch {epoch:>3}: loss {:.4}  val {:.3}",
                train_losses[epoch], val
            );
        }
        if val > best_val {
            best_val = val;
            best_snapshot = store.snapshot();
            stale = 0;
        } else {
            stale += 1;
            if let Some(p) = cfg.patience {
                if stale >= p {
                    break;
                }
            }
        }
    }

    store.restore(&best_snapshot);
    let test_metric = evaluate(test_idx, &mut eval_rng, eval_fn);
    TrainReport {
        train_losses,
        val_history,
        best_val,
        test_metric,
        epochs_run,
    }
}

fn evaluate(idx: &[usize], rng: &mut Rng, eval_fn: &mut EvalFn<'_>) -> f64 {
    let correct: Vec<bool> = idx
        .iter()
        .map(|&i| {
            let mut ctx = PoolCtx {
                training: false,
                rng,
            };
            eval_fn(i, &mut ctx)
        })
        .collect();
    accuracy(&correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_core::{HapClassifier, HapConfig, HapModel};
    use hap_data::imdb_b;
    use hap_rand::Rng;

    #[test]
    fn hap_learns_the_imdb_like_community_signal() {
        // End-to-end smoke: a small HAP classifier should beat chance
        // comfortably on the 2-class community dataset within a few
        // epochs.
        let mut rng = Rng::from_seed(1);
        let ds = imdb_b(60, &mut rng);
        let mut store = hap_autograd::ParamStore::<f64>::new();
        let cfg = HapConfig::new(ds.feature_dim, 8).with_clusters(&[4, 2]);
        let model = HapModel::new(&mut store, &cfg, &mut rng);
        let clf = HapClassifier::new(&mut store, model, ds.num_classes, &mut rng);

        let (train_idx, val_idx, test_idx) = hap_data::split_811(ds.samples.len(), &mut rng);
        let tcfg = TrainConfig {
            epochs: 12,
            batch_size: 8,
            lr: 0.01,
            seed: 3,
            patience: None,
            grad_clip: Some(5.0),
            log_every: 0,
        };
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
        assert_eq!(report.epochs_run, 12);
        assert!(
            report.best_val >= 0.6,
            "validation accuracy {} no better than chance",
            report.best_val
        );
        // loss should broadly decrease
        let first = report.train_losses.first().unwrap();
        let last = report.train_losses.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn non_finite_loss_sample_is_skipped_not_fatal() {
        // Regression: a NaN loss used to flow straight into backward() and
        // Adam, poisoning every parameter. The guard drops the sample's
        // gradient contribution and keeps training on the rest.
        let mut store = hap_autograd::ParamStore::<f64>::new();
        let p = store.new_param("w".to_string(), hap_tensor::Tensor::full(1, 1, 0.5));
        let tcfg = TrainConfig {
            epochs: 2,
            batch_size: 2,
            lr: 0.01,
            seed: 1,
            patience: None,
            grad_clip: Some(5.0),
            log_every: 0,
        };
        let report = train(
            &store,
            &tcfg,
            &[0, 1],
            &[0],
            &[0],
            &mut |tape, i, _ctx| {
                if i == 0 {
                    tape.constant(hap_tensor::Tensor::full(1, 1, f64::NAN))
                } else {
                    let v = tape.param(&p);
                    tape.sum_all(v)
                }
            },
            &mut |_i, _ctx| false,
        );
        assert!(
            report.train_losses.iter().all(|l| l.is_finite()),
            "skipped sample must not leak NaN into the epoch mean: {:?}",
            report.train_losses
        );
        let w = p.value()[(0, 0)];
        assert!(w.is_finite(), "parameters poisoned: {w}");
        assert_ne!(w, 0.5, "the finite sample must still train");
    }

    #[test]
    fn nan_gradient_batch_is_dropped_not_applied() {
        // d/dx sqrt(x) at x = 0 is ∞, and ∞ · 0 = NaN in the chain rule:
        // the loss is finite (0) but every gradient is NaN. Pre-guard,
        // `norm > clip` was silently false for a NaN norm and Adam applied
        // the NaN gradients; now the batch is dropped before the update.
        let mut store = hap_autograd::ParamStore::<f64>::new();
        let p = store.new_param("w".to_string(), hap_tensor::Tensor::full(1, 1, 0.5));
        let tcfg = TrainConfig {
            epochs: 1,
            batch_size: 1,
            lr: 0.01,
            seed: 2,
            patience: None,
            grad_clip: Some(5.0),
            log_every: 0,
        };
        let report = train(
            &store,
            &tcfg,
            &[0],
            &[0],
            &[0],
            &mut |tape, _i, _ctx| {
                let v = tape.param(&p);
                let sq = tape.squared_distance(v, v); // exactly 0
                tape.sqrt(sq)
            },
            &mut |_i, _ctx| false,
        );
        assert!(report.train_losses.iter().all(|l| l.is_finite()));
        assert_eq!(
            p.value()[(0, 0)],
            0.5,
            "a NaN-gradient batch must never reach the optimiser"
        );
    }

    #[test]
    fn batched_training_is_deterministic_and_learns() {
        // Two identical batched runs must produce byte-identical reports
        // and parameters; and the batched loop must still learn the
        // community signal.
        let run = || {
            let mut rng = Rng::from_seed(1);
            let ds = imdb_b(60, &mut rng);
            let mut store = hap_autograd::ParamStore::<f64>::new();
            let cfg = HapConfig::new(ds.feature_dim, 8).with_clusters(&[4, 2]);
            let model = HapModel::new(&mut store, &cfg, &mut rng);
            let clf = HapClassifier::new(&mut store, model, ds.num_classes, &mut rng);
            let (train_idx, val_idx, test_idx) = hap_data::split_811(ds.samples.len(), &mut rng);
            let tcfg = TrainConfig {
                epochs: 12,
                batch_size: 8,
                lr: 0.01,
                seed: 3,
                patience: None,
                grad_clip: Some(5.0),
                log_every: 0,
            };
            let report = train_batched(
                &store,
                &tcfg,
                &train_idx,
                &val_idx,
                &test_idx,
                &mut |tape, batch, ctx| {
                    let items: Vec<_> = batch
                        .iter()
                        .map(|&i| {
                            let s = &ds.samples[i];
                            (&s.graph, &s.features, s.label)
                        })
                        .collect();
                    clf.batch_losses(tape, &items, ctx).expect("valid batch")
                },
                &mut |i, ctx| {
                    let s = &ds.samples[i];
                    clf.predict(&s.graph, &s.features, ctx) == s.label
                },
            );
            let params: Vec<Vec<u64>> = store
                .iter()
                .map(|p| p.value().as_slice().iter().map(|v| v.to_bits()).collect())
                .collect();
            (report, params)
        };
        let (r1, p1) = run();
        let (r2, p2) = run();
        assert_eq!(p1, p2, "batched training must be bitwise deterministic");
        assert_eq!(r1.train_losses, r2.train_losses);
        assert_eq!(r1.val_history, r2.val_history);
        assert!(
            r1.best_val >= 0.6,
            "batched run no better than chance: {}",
            r1.best_val
        );
    }

    #[test]
    fn batched_first_epoch_losses_match_per_sample_bitwise() {
        // Before the first optimiser step the parameters are identical, and
        // batched forwards are byte-identical to looped ones with the same
        // model_rng draw order — so with one batch per epoch, epoch 0's
        // mean training loss must match the per-sample loop bit for bit.
        let build = || {
            let mut rng = Rng::from_seed(5);
            let ds = imdb_b(8, &mut rng);
            let mut store = hap_autograd::ParamStore::<f64>::new();
            let cfg = HapConfig::new(ds.feature_dim, 6).with_clusters(&[3]);
            let model = HapModel::new(&mut store, &cfg, &mut rng);
            let clf = HapClassifier::new(&mut store, model, ds.num_classes, &mut rng);
            (ds, store, clf)
        };
        let tcfg = TrainConfig {
            epochs: 1,
            batch_size: 8, // the whole set: exactly one batch
            lr: 0.01,
            seed: 4,
            patience: None,
            grad_clip: Some(5.0),
            log_every: 0,
        };
        let idx: Vec<usize> = (0..8).collect();

        let (ds, store, clf) = build();
        let per_sample = train(
            &store,
            &tcfg,
            &idx,
            &idx,
            &idx,
            &mut |tape, i, ctx| {
                let s = &ds.samples[i];
                clf.loss(tape, &s.graph, &s.features, s.label, ctx)
            },
            &mut |_i, _ctx| false,
        );

        let (ds, store, clf) = build();
        let batched = train_batched(
            &store,
            &tcfg,
            &idx,
            &idx,
            &idx,
            &mut |tape, batch, ctx| {
                let items: Vec<_> = batch
                    .iter()
                    .map(|&i| {
                        let s = &ds.samples[i];
                        (&s.graph, &s.features, s.label)
                    })
                    .collect();
                clf.batch_losses(tape, &items, ctx).expect("valid batch")
            },
            &mut |_i, _ctx| false,
        );

        assert_eq!(
            per_sample.train_losses[0].to_bits(),
            batched.train_losses[0].to_bits(),
            "epoch-0 loss drifted: {} vs {}",
            per_sample.train_losses[0],
            batched.train_losses[0]
        );
    }

    #[test]
    fn batched_non_finite_loss_sample_is_skipped_not_fatal() {
        // The batched counterpart of the per-sample NaN guard: a poisoned
        // sample drops out of the summed objective; the rest still train.
        let mut store = hap_autograd::ParamStore::<f64>::new();
        let p = store.new_param("w".to_string(), hap_tensor::Tensor::full(1, 1, 0.5));
        let tcfg = TrainConfig {
            epochs: 2,
            batch_size: 2,
            lr: 0.01,
            seed: 1,
            patience: None,
            grad_clip: Some(5.0),
            log_every: 0,
        };
        let report = train_batched(
            &store,
            &tcfg,
            &[0, 1],
            &[0],
            &[0],
            &mut |tape, batch, _ctx| {
                batch
                    .iter()
                    .map(|&i| {
                        if i == 0 {
                            tape.constant(hap_tensor::Tensor::full(1, 1, f64::NAN))
                        } else {
                            let v = tape.param(&p);
                            tape.sum_all(v)
                        }
                    })
                    .collect()
            },
            &mut |_i, _ctx| false,
        );
        assert!(
            report.train_losses.iter().all(|l| l.is_finite()),
            "skipped sample leaked NaN into the epoch mean: {:?}",
            report.train_losses
        );
        let w = p.value()[(0, 0)];
        assert!(w.is_finite(), "parameters poisoned: {w}");
        assert_ne!(w, 0.5, "the finite sample must still train");
    }

    #[test]
    fn early_stopping_halts_on_plateau() {
        let mut rng = Rng::from_seed(2);
        let ds = imdb_b(20, &mut rng);
        let mut store = hap_autograd::ParamStore::<f64>::new();
        let cfg = HapConfig::new(ds.feature_dim, 4).with_clusters(&[2]);
        let model = HapModel::new(&mut store, &cfg, &mut rng);
        let clf = HapClassifier::new(&mut store, model, ds.num_classes, &mut rng);
        let idx: Vec<usize> = (0..ds.samples.len()).collect();
        let tcfg = TrainConfig {
            epochs: 50,
            patience: Some(2),
            ..TrainConfig::default()
        };
        // eval_fn that never improves forces early stop at patience
        let report = train(
            &store,
            &tcfg,
            &idx,
            &idx[..4],
            &idx[..4],
            &mut |tape, i, ctx| {
                let s = &ds.samples[i];
                clf.loss(tape, &s.graph, &s.features, s.label, ctx)
            },
            &mut |_i, _ctx| false,
        );
        assert!(report.epochs_run <= 4, "ran {} epochs", report.epochs_run);
    }
}
