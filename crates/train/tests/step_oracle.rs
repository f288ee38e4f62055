//! `train` and `train_batched` share one step, `Stepper::step`, with a
//! group of one sample or of the whole batch. This file keeps the loop
//! that step replaced — a per-sample arm (one tape and backward per
//! sample) and a batched arm (one tape and one backward per batch) — as
//! a test-only oracle, and demands that both entry points reproduce it
//! bit for bit: every parameter, every field of the report, and the
//! step counters at `Level::Metrics`.
//!
//! The cases cover what a merged step could get wrong: a short last
//! batch (whose backward seed is `1/len` of that batch), a gradient clip
//! that fires on every step, and a sample whose loss is NaN. Each runs
//! in f64 and f32.
//!
//! The obs level is process-global state and cargo runs a binary's tests
//! on parallel threads, so every test here holds [`LEVEL`] while it sets
//! the level and reads the counters.

use hap_autograd::{ParamStore, Tape, Var};
use hap_core::{HapClassifier, HapConfig, HapModel};
use hap_graph::{Graph, GraphScalar};
use hap_nn::{Adam, Optimizer};
use hap_pooling::PoolCtx;
use hap_rand::{Rng, SliceRandom};
use hap_tensor::{Scalar, Tensor};
use hap_train::{
    accuracy, train, train_batched, BatchLossFn, EvalFn, LossFn, TrainConfig, TrainReport,
};
use std::sync::Mutex;

/// Serialises the tests of this file: each one sets the global level.
static LEVEL: Mutex<()> = Mutex::new(());

/// How the oracle turns a mini-batch into gradients: one tape+backward
/// per sample, or one shared tape with a single backward through the
/// summed batch loss.
enum OracleStepper<'a, 'b, T: Scalar> {
    PerSample(&'b mut LossFn<'a, T>),
    Batched(&'b mut BatchLossFn<'a, T>),
}

/// The training loop as it stood before the two arms were merged into
/// `Stepper::step`, unchanged but for its name.
#[allow(clippy::too_many_arguments)]
fn oracle_train<T: Scalar>(
    store: &ParamStore<T>,
    cfg: &TrainConfig,
    train_idx: &[usize],
    val_idx: &[usize],
    test_idx: &[usize],
    mut stepper: OracleStepper<'_, '_, T>,
    eval_fn: &mut EvalFn<'_>,
    rng: &mut Rng,
) -> TrainReport {
    assert!(!train_idx.is_empty(), "empty training set");
    let mut shuffle_rng = rng.fork("shuffle");
    let mut model_rng = rng.fork("model");
    let mut eval_rng = rng.fork("eval");
    let mut adam = Adam::new(cfg.lr);
    let mut order = train_idx.to_vec();

    let mut best_val = f64::NEG_INFINITY;
    let mut best_snapshot = store.snapshot();
    let mut stale = 0usize;
    let mut train_losses = Vec::with_capacity(cfg.epochs);
    let mut val_history = Vec::with_capacity(cfg.epochs);
    let mut epochs_run = 0;

    let mut tape = Tape::new();
    let mut sample_step: u64 = 0;
    for epoch in 0..cfg.epochs {
        epochs_run = epoch + 1;
        order.shuffle(&mut shuffle_rng);
        let mut epoch_loss = 0.0;
        for batch in order.chunks(cfg.batch_size) {
            let _bt = hap_obs::time_scope("train.batch");
            store.zero_grads();
            match &mut stepper {
                OracleStepper::PerSample(loss_fn) => {
                    for &i in batch {
                        sample_step += 1;
                        hap_obs::set_step(sample_step);
                        tape.reset();
                        let mut ctx = PoolCtx {
                            training: true,
                            rng: &mut model_rng,
                        };
                        let loss = loss_fn(&mut tape, i, &mut ctx);
                        let loss_val = tape.scalar(loss);
                        if !hap_obs::guard_scalar("train.loss", loss_val) {
                            hap_obs::inc("train.skipped_samples");
                            continue;
                        }
                        epoch_loss += loss_val;
                        if hap_obs::enabled() {
                            hap_obs::inc("train.samples");
                            hap_obs::record("train.loss", loss_val);
                        }
                        tape.backward_with_seed(
                            loss,
                            hap_tensor::Tensor::full(1, 1, T::from_f64(1.0 / batch.len() as f64)),
                        );
                    }
                }
                OracleStepper::Batched(batch_loss_fn) => {
                    sample_step += batch.len() as u64;
                    hap_obs::set_step(sample_step);
                    tape.reset();
                    let mut ctx = PoolCtx {
                        training: true,
                        rng: &mut model_rng,
                    };
                    let losses = batch_loss_fn(&mut tape, batch, &mut ctx);
                    assert_eq!(
                        losses.len(),
                        batch.len(),
                        "batch loss closure must return one loss per sample"
                    );
                    let mut total: Option<Var> = None;
                    for loss in losses {
                        let loss_val = tape.scalar(loss);
                        if !hap_obs::guard_scalar("train.loss", loss_val) {
                            hap_obs::inc("train.skipped_samples");
                            continue;
                        }
                        epoch_loss += loss_val;
                        if hap_obs::enabled() {
                            hap_obs::inc("train.samples");
                            hap_obs::record("train.loss", loss_val);
                        }
                        total = Some(match total {
                            Some(t) => tape.add(t, loss),
                            None => loss,
                        });
                    }
                    if let Some(total) = total {
                        tape.backward_with_seed(
                            total,
                            hap_tensor::Tensor::full(1, 1, T::from_f64(1.0 / batch.len() as f64)),
                        );
                    }
                }
            }
            let norm = if cfg.grad_clip.is_some() || hap_obs::enabled() {
                Some(store.grad_norm())
            } else {
                None
            };
            let mut skip_update = false;
            if let Some(norm) = norm {
                if hap_obs::enabled() {
                    hap_obs::record("train.grad_norm", norm);
                }
                if !hap_obs::guard_scalar("train.grad_norm", norm) {
                    hap_obs::inc("train.skipped_batches");
                    store.zero_grads();
                    skip_update = true;
                } else if let Some(clip) = cfg.grad_clip {
                    if norm > clip {
                        store.scale_grads(clip / norm);
                    }
                }
            }
            if !skip_update {
                adam.step(store);
            }
            if hap_obs::enabled() {
                hap_obs::inc("train.batches");
            }
        }
        train_losses.push(epoch_loss / order.len() as f64);

        let val = evaluate(val_idx, &mut eval_rng, eval_fn);
        if hap_obs::enabled() {
            hap_obs::inc("train.epochs");
            hap_obs::record("train.val_metric", val);
        }
        val_history.push(val);
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

/// One training configuration under test.
struct Case {
    grad_clip: Option<f64>,
    /// A training sample whose loss is replaced by NaN.
    nan_sample: Option<usize>,
}

#[derive(Clone, Copy, Debug)]
enum Path {
    PerSample,
    Batched,
}

/// Everything a run leaves behind, as bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    params: Vec<Vec<u64>>,
    train_losses: Vec<u64>,
    val_history: Vec<u64>,
    best_val: u64,
    test_metric: u64,
    epochs_run: usize,
    samples: u64,
    skipped_samples: u64,
    batches: u64,
    /// Smallest gradient norm seen (`+∞` when none was recorded).
    min_grad_norm: f64,
}

/// Ten training samples at batch size 3 (so every epoch ends on a
/// one-sample batch), three epochs, a small HAP classifier. `oracle`
/// picks the loop kept above instead of `train`/`train_batched`.
fn run<T: GraphScalar>(case: &Case, path: Path, oracle: bool) -> Outcome {
    let mut root = Rng::from_seed(11);
    let ds = hap_data::imdb_b(16, &mut root.fork("data"));
    let features: Vec<Tensor<T>> = ds.samples.iter().map(|s| s.features.cast()).collect();
    let mut init_rng = root.fork("init");
    let mut store = ParamStore::<T>::new();
    let cfg = HapConfig::new(ds.feature_dim, 6).with_clusters(&[3]);
    let model = HapModel::new(&mut store, &cfg, &mut init_rng);
    let clf = HapClassifier::new(&mut store, model, ds.num_classes, &mut init_rng);
    let train_idx: Vec<usize> = (0..10).collect();
    let (val_idx, test_idx) = ([10, 11, 12], [13, 14, 15]);
    let tcfg = TrainConfig {
        epochs: 3,
        batch_size: 3,
        lr: 0.01,
        seed: 5,
        patience: None,
        grad_clip: case.grad_clip,
        log_every: 0,
    };

    let nan = |tape: &mut Tape<T>| tape.constant(Tensor::full(1, 1, T::from_f64(f64::NAN)));
    let mut loss_fn = |tape: &mut Tape<T>, i: usize, ctx: &mut PoolCtx<'_>| {
        let s = &ds.samples[i];
        let loss = clf.loss(tape, &s.graph, &features[i], s.label, ctx);
        if case.nan_sample == Some(i) {
            nan(tape)
        } else {
            loss
        }
    };
    let mut batch_loss_fn = |tape: &mut Tape<T>, batch: &[usize], ctx: &mut PoolCtx<'_>| {
        let items: Vec<(&Graph, &Tensor<T>, usize)> = batch
            .iter()
            .map(|&i| (&ds.samples[i].graph, &features[i], ds.samples[i].label))
            .collect();
        let mut losses = clf.batch_losses(tape, &items, ctx).expect("valid batch");
        for (loss, &i) in losses.iter_mut().zip(batch) {
            if case.nan_sample == Some(i) {
                *loss = nan(tape);
            }
        }
        losses
    };
    let mut eval_fn = |i: usize, ctx: &mut PoolCtx<'_>| {
        let s = &ds.samples[i];
        clf.predict(&s.graph, &features[i], ctx) == s.label
    };

    hap_obs::set_level(hap_obs::Level::Metrics);
    hap_obs::reset();
    let (tr, va, te) = (&train_idx[..], &val_idx[..], &test_idx[..]);
    let report = match (path, oracle) {
        (Path::PerSample, false) => train(&store, &tcfg, tr, va, te, &mut loss_fn, &mut eval_fn),
        (Path::Batched, false) => {
            train_batched(&store, &tcfg, tr, va, te, &mut batch_loss_fn, &mut eval_fn)
        }
        (Path::PerSample, true) => oracle_train(
            &store,
            &tcfg,
            tr,
            va,
            te,
            OracleStepper::PerSample(&mut loss_fn),
            &mut eval_fn,
            &mut Rng::from_seed(tcfg.seed),
        ),
        (Path::Batched, true) => oracle_train(
            &store,
            &tcfg,
            tr,
            va,
            te,
            OracleStepper::Batched(&mut batch_loss_fn),
            &mut eval_fn,
            &mut Rng::from_seed(tcfg.seed),
        ),
    };
    let outcome = Outcome {
        params: store
            .iter()
            .map(|p| {
                p.value()
                    .as_slice()
                    .iter()
                    .map(|v| v.to_f64().to_bits())
                    .collect()
            })
            .collect(),
        train_losses: report.train_losses.iter().map(|v| v.to_bits()).collect(),
        val_history: report.val_history.iter().map(|v| v.to_bits()).collect(),
        best_val: report.best_val.to_bits(),
        test_metric: report.test_metric.to_bits(),
        epochs_run: report.epochs_run,
        samples: hap_obs::counter("train.samples"),
        skipped_samples: hap_obs::counter("train.skipped_samples"),
        batches: hap_obs::counter("train.batches"),
        min_grad_norm: hap_obs::histogram("train.grad_norm").map_or(f64::INFINITY, |h| h.min),
    };
    hap_obs::set_level(hap_obs::Level::Off);
    hap_obs::reset();
    outcome
}

/// Runs `case` through both entry points and both oracle arms at f64
/// and f32, asserts each pair equal, and returns the four merged-step
/// outcomes.
fn assert_matches_oracle(case: &Case) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    for path in [Path::PerSample, Path::Batched] {
        for (dtype, merged, oracle) in [
            (
                "f64",
                run::<f64>(case, path, false),
                run::<f64>(case, path, true),
            ),
            (
                "f32",
                run::<f32>(case, path, false),
                run::<f32>(case, path, true),
            ),
        ] {
            assert_eq!(
                merged, oracle,
                "{dtype} {path:?} step drifted from the oracle"
            );
            // 10 samples at batch size 3: four batches per epoch.
            assert_eq!(merged.batches, 12, "{dtype} {path:?}");
            outcomes.push(merged);
        }
    }
    outcomes
}

#[test]
fn short_last_batch_matches_the_oracle_bitwise() {
    let _level = LEVEL.lock().unwrap_or_else(|e| e.into_inner());
    let case = Case {
        grad_clip: Some(5.0),
        nan_sample: None,
    };
    for out in assert_matches_oracle(&case) {
        assert_eq!(out.samples, 30);
        assert_eq!(out.skipped_samples, 0);
    }
}

#[test]
fn firing_grad_clip_matches_the_oracle_bitwise() {
    let _level = LEVEL.lock().unwrap_or_else(|e| e.into_inner());
    let clip = 1e-4;
    let case = Case {
        grad_clip: Some(clip),
        nan_sample: None,
    };
    for out in assert_matches_oracle(&case) {
        assert!(
            out.min_grad_norm > clip,
            "the clip must fire on every step: smallest norm {}",
            out.min_grad_norm
        );
    }
}

#[test]
fn nan_loss_sample_matches_the_oracle_bitwise() {
    let _level = LEVEL.lock().unwrap_or_else(|e| e.into_inner());
    let case = Case {
        grad_clip: Some(5.0),
        nan_sample: Some(4),
    };
    for out in assert_matches_oracle(&case) {
        assert_eq!(out.skipped_samples, 3, "one skip per epoch");
        assert_eq!(out.samples, 27);
        assert!(out
            .train_losses
            .iter()
            .all(|&l| f64::from_bits(l).is_finite()));
    }
}
