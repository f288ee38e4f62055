//! The `train` workload: `hap_train::train_batched` on a seeded COLLAB-like
//! dataset — the only workload with an autograd backward pass and Adam,
//! and one with no serving layer at all.

use crate::spec::WorkloadSpec;
use crate::stats;
use crate::trace::Tracer;
use crate::{
    layer_metrics, record_core_self_times, record_validity, LayerValues, Metric, RunResult,
};
use hap_autograd::{ParamStore, Tape, Var};
use hap_core::{HapClassifier, HapConfig, HapModel};
use hap_data::{collab, split_811, ClassificationDataset};
use hap_nn::{Adam, Optimizer};
use hap_pooling::PoolCtx;
use hap_rand::{Rng, SliceRandom};
use hap_tensor::Tensor;
use hap_train::{train_batched, TrainConfig};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Graphs in the dataset and the node-count scale (`collab(.., 0.5)` gives
/// 20–55-node graphs).
const SAMPLES: usize = 96;
const SCALE: f64 = 0.5;
const HIDDEN: usize = 32;
const CLUSTERS: [usize; 2] = [16, 8];
const BATCH: usize = 8;
/// Epochs per `train_batched` call; a run repeats the call, from the same
/// initial parameters, until its time is up.
const EPOCHS: usize = 2;
/// Epochs of the traced comparison: long enough that run-to-run jitter
/// stays small against the tracing overhead.
const TRACE_EPOCHS: usize = 10;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 11;

/// Dataset, split and freshly initialised classifier for one seed.
struct Setup {
    ds: ClassificationDataset,
    store: ParamStore<f64>,
    clf: HapClassifier<f64>,
    split: (Vec<usize>, Vec<usize>, Vec<usize>),
}

fn setup(seed: u64) -> Setup {
    let mut root = Rng::from_seed(seed);
    let ds = collab(SAMPLES, SCALE, &mut root.fork("data"));
    let mut model_rng = root.fork("init");
    let mut store = ParamStore::<f64>::new();
    let cfg = HapConfig::new(ds.feature_dim, HIDDEN).with_clusters(&CLUSTERS);
    let model = HapModel::new(&mut store, &cfg, &mut model_rng);
    let clf = HapClassifier::new(&mut store, model, ds.num_classes, &mut model_rng);
    let split = split_811(ds.samples.len(), &mut root.fork("split"));
    Setup {
        ds,
        store,
        clf,
        split,
    }
}

fn config(seed: u64, epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: BATCH,
        lr: 0.01,
        seed,
        patience: None,
        grad_clip: Some(5.0),
        log_every: 0,
    }
}

/// Hash of the per-epoch training-loss bits.
fn loss_hash(losses: &[f64]) -> String {
    let bits: Vec<[u8; 8]> = losses.iter().map(|l| l.to_bits().to_le_bytes()).collect();
    stats::hash_bodies(&bits)
}

/// One `train_batched` call from the initial parameters `init`. Returns
/// the per-epoch losses, the call's wall time and the start time of every
/// training step.
fn train_once(
    s: &Setup,
    init: &[Tensor<f64>],
    seed: u64,
    epochs: usize,
) -> (Vec<f64>, Duration, Vec<Instant>) {
    s.store.restore(init);
    let steps = RefCell::new(Vec::new());
    let (train_idx, val_idx, test_idx) = &s.split;
    let t0 = Instant::now();
    let report = train_batched(
        &s.store,
        &config(seed, epochs),
        train_idx,
        val_idx,
        test_idx,
        &mut |tape, batch, ctx| {
            steps.borrow_mut().push(Instant::now());
            let items: Vec<_> = batch
                .iter()
                .map(|&i| {
                    let x = &s.ds.samples[i];
                    (&x.graph, &x.features, x.label)
                })
                .collect();
            s.clf.batch_losses(tape, &items, ctx).expect("valid batch")
        },
        &mut |i, ctx| {
            let x = &s.ds.samples[i];
            s.clf.predict(&x.graph, &x.features, ctx) == x.label
        },
    );
    (report.train_losses, t0.elapsed(), steps.into_inner())
}

/// Steps per epoch, for telling step intervals from epoch boundaries.
fn steps_per_epoch(s: &Setup) -> usize {
    s.split.0.len().div_ceil(BATCH)
}

/// The recorded-hash check: a short run at the golden seed.
pub fn golden_hash(spec: &WorkloadSpec) -> String {
    let s = setup(spec.golden.seed);
    let init = s.store.snapshot();
    loss_hash(&train_once(&s, &init, spec.golden.seed, spec.golden.size).0)
}

pub fn run(spec: &WorkloadSpec, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    hap_obs::reset();
    hap_obs::set_level(hap_obs::Level::Off);
    let inputs_mb = crate::rss_mb()?;
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..SETUPS {
        drop(s.take());
        let t0 = Instant::now();
        s = Some(setup(seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one set-up");
    let init = s.store.snapshot();
    let per_epoch = steps_per_epoch(&s);
    let graphs_per_call = (s.split.0.len() * EPOCHS) as f64;

    let golden = golden_hash(spec);
    let golden_ok = golden == spec.golden.hash;

    if trace {
        // Untraced: real `train_batched` calls, on both sides of the traced
        // one so warm-up and drift do not land on one side of the overhead.
        // Traced: the same training, stepped here through the layers'
        // public functions.
        let (losses, before, _) = train_once(&s, &init, seed, TRACE_EPOCHS);
        let expected = loss_hash(&losses);
        s.store.restore(&init);
        let traced = replica(&s, seed, TRACE_EPOCHS);
        let (_, after, _) = train_once(&s, &init, seed, TRACE_EPOCHS);
        let untraced_wall = (before + after) / 2;

        let same = loss_hash(&traced.losses) == expected;
        eprintln!(
            "train: seed {seed}, replica losses {} train_batched's; golden {golden} (recorded {})",
            if same { "match" } else { "DIFFER FROM" },
            spec.golden.hash
        );
        let out = std::path::Path::new("perfbench/out").join(format!("train-seed{seed}.spans.tsv"));
        traced
            .tracer
            .write_tsv(&out)
            .map_err(|e| format!("write {}: {e}", out.display()))?;
        return Ok(RunResult {
            correct: same && golden_ok,
            attempted: 2,
            failed: usize::from(!same),
            metrics: traced.metrics(untraced_wall),
        });
    }

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut calls, mut failed, mut wall) = (0usize, 0usize, Duration::ZERO);
    let mut step_ms = Vec::new();
    let mut first_hash = None;
    while calls == 0 || Instant::now() < deadline {
        let (losses, took, steps) = train_once(&s, &init, seed, EPOCHS);
        let h = loss_hash(&losses);
        if losses.iter().any(|l| !l.is_finite())
            || first_hash.get_or_insert_with(|| h.clone()) != &h
        {
            failed += 1;
        }
        for epoch in steps.chunks(per_epoch) {
            step_ms.extend(epoch.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e3));
        }
        wall += took;
        calls += 1;
    }
    let p50 = stats::quantile(&step_ms, 0.5).expect("at least one step interval");
    let graphs_per_s = graphs_per_call * calls as f64 / wall.as_secs_f64();
    eprintln!(
        "train: seed {seed}, {calls} train_batched calls x {EPOCHS} epochs x {} graphs in {:.2}s",
        s.split.0.len(),
        wall.as_secs_f64()
    );
    eprintln!(
        "  train_graphs_per_s {graphs_per_s:.1}; step p50 {:.3} ms, p90 {}, p99 {} (n = {})",
        p50.value,
        stats::tail_ms(&step_ms, 0.9),
        stats::tail_ms(&step_ms, 0.99),
        p50.count
    );
    eprintln!(
        "  loss hash {} ({failed} calls differ); golden seed {} x {} epochs: {golden} (recorded {}){}",
        first_hash.unwrap_or_default(),
        spec.golden.seed,
        spec.golden.size,
        spec.golden.hash,
        if golden_ok { "" } else { " MISMATCH" }
    );
    Ok(RunResult {
        correct: failed == 0 && golden_ok,
        attempted: calls,
        failed,
        metrics: vec![
            Metric::new("setup_s", stats::median(&setup_s).unwrap_or(0.0), "s"),
            Metric::new("ops_per_s", graphs_per_s, "1/s"),
            Metric::new("latency_p50_ms", p50.value, "ms"),
            crate::peak_rss_metric(inputs_mb)?,
        ],
    })
}

struct Replica {
    losses: Vec<f64>,
    wall: Duration,
    tracer: Tracer,
    steps: u64,
    graphs: u64,
    nodes: u64,
    spmm_flops: f64,
}

/// `train_batched`'s loop, step for step — same RNG forks, shuffles,
/// per-sample loss guard, seed scaling, clipping and Adam — with a span
/// around the forward pass (`batch_losses`), the backward pass
/// (`Tape::backward_with_seed`), the optimiser (`grad_norm`, clipping,
/// `Adam::step`) and each evaluation.
fn replica(s: &Setup, seed: u64, epochs: usize) -> Replica {
    let cfg = config(seed, epochs);
    let mut tr = Tracer::new(true);
    let (train_idx, val_idx, test_idx) = &s.split;
    let mut rng = Rng::from_seed(cfg.seed);
    let mut shuffle_rng = rng.fork("shuffle");
    let mut model_rng = rng.fork("model");
    let mut eval_rng = rng.fork("eval");
    let mut adam = Adam::new(cfg.lr);
    let mut order = train_idx.to_vec();
    let mut tape = Tape::new();
    let mut best = (f64::NEG_INFINITY, s.store.snapshot());
    let (mut losses, mut steps, mut graphs, mut nodes, mut spmm_flops) = (Vec::new(), 0, 0, 0, 0.0);
    let evaluate = |idx: &[usize], tr: &mut Tracer, eval_rng: &mut Rng| {
        tr.time("train.eval", || {
            let correct: Vec<bool> = idx
                .iter()
                .map(|&i| {
                    let mut ctx = PoolCtx {
                        training: false,
                        rng: eval_rng,
                    };
                    let x = &s.ds.samples[i];
                    s.clf.predict(&x.graph, &x.features, &mut ctx) == x.label
                })
                .collect();
            hap_train::accuracy(&correct)
        })
    };
    // Per-graph SpMM work, counted before the timed loop.
    let flops: Vec<f64> =
        s.ds.samples
            .iter()
            .map(|x| crate::spmm_flops(x.graph.csr_adjacency_cached().matrix().nnz(), HIDDEN))
            .collect();
    hap_obs::reset();
    hap_obs::set_level(hap_obs::Level::Trace);
    let t0 = Instant::now();
    for _ in 0..cfg.epochs {
        order.shuffle(&mut shuffle_rng);
        let mut epoch_loss = 0.0;
        for batch in order.chunks(cfg.batch_size) {
            tr.set_request(steps as usize);
            let root = tr.begin("step");
            let items: Vec<_> = batch
                .iter()
                .map(|&i| {
                    let x = &s.ds.samples[i];
                    (&x.graph, &x.features, x.label)
                })
                .collect();
            let total = tr.time("train.forward", || {
                s.store.zero_grads();
                tape.reset();
                let mut ctx = PoolCtx {
                    training: true,
                    rng: &mut model_rng,
                };
                let sample_losses = s
                    .clf
                    .batch_losses(&mut tape, &items, &mut ctx)
                    .expect("valid batch");
                let mut total: Option<Var> = None;
                for loss in sample_losses {
                    let v = tape.scalar(loss);
                    if !v.is_finite() {
                        continue;
                    }
                    epoch_loss += v;
                    total = Some(match total {
                        Some(t) => tape.add(t, loss),
                        None => loss,
                    });
                }
                total
            });
            if let Some(total) = total {
                tr.time("train.backward", || {
                    tape.backward_with_seed(total, Tensor::full(1, 1, 1.0 / batch.len() as f64))
                });
            }
            tr.time("train.optimizer", || {
                let norm = s.store.grad_norm();
                if !norm.is_finite() {
                    s.store.zero_grads();
                    return;
                }
                if let Some(clip) = cfg.grad_clip {
                    if norm > clip {
                        s.store.scale_grads(clip / norm);
                    }
                }
                adam.step(&s.store);
            });
            tr.end(root);
            steps += 1;
            for &i in batch {
                graphs += 1;
                nodes += s.ds.samples[i].graph.n() as u64;
                spmm_flops += flops[i];
            }
        }
        losses.push(epoch_loss / order.len() as f64);
        let val = evaluate(val_idx, &mut tr, &mut eval_rng);
        if val > best.0 {
            best = (val, s.store.snapshot());
        }
    }
    s.store.restore(&best.1);
    evaluate(test_idx, &mut tr, &mut eval_rng);
    let wall = t0.elapsed();
    hap_obs::set_level(hap_obs::Level::Off);
    Replica {
        losses,
        wall,
        tracer: tr,
        steps,
        graphs,
        nodes,
        spmm_flops,
    }
}

impl Replica {
    fn metrics(&self, untraced_wall: Duration) -> Vec<Metric> {
        let t = self.tracer.totals();
        let get = |name: &str| t.get(name).copied().unwrap_or_default();
        let per_step = |name: &str| get(name).self_ns as f64 / self.steps.max(1) as f64 / 1e3;
        // The training forward's embedding, from hap-core's own scope.
        let embed_ns = hap_obs::histogram("time.core.embed_hierarchy_batch").map_or(0.0, |h| h.sum);
        let graphs = self.graphs.max(1) as f64;
        let mut v = LayerValues::from([
            ("core.embed_us_per_graph", embed_ns / graphs / 1e3),
            (
                "core.nodes_per_s",
                if embed_ns > 0.0 {
                    self.nodes as f64 / (embed_ns / 1e9)
                } else {
                    0.0
                },
            ),
            ("core.spmm_flops", self.spmm_flops / graphs),
            ("train.forward_us", per_step("train.forward")),
            ("train.backward_us", per_step("train.backward")),
            ("train.optimizer_us", per_step("train.optimizer")),
            ("train.eval_us", get("train.eval").mean_us()),
        ]);
        let attributed = [
            "train.forward",
            "train.backward",
            "train.optimizer",
            "train.eval",
        ]
        .iter()
        .map(|n| get(n).self_ns)
        .sum();
        record_validity(&mut v, self.wall, untraced_wall, attributed);
        record_core_self_times(&mut v, Some(self.graphs));
        layer_metrics(&v)
    }
}
