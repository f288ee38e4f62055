//! Micro-benchmarks for the Sec. 5 complexity claims — the in-repo
//! replacement for the former criterion benches, built on
//! [`hap_bench::harness`].
//!
//! Four suites:
//! * `coarsen_forward` / `coarsen_forward_backward` — Claim 1: one HAP
//!   coarsening pass scales as O(N²) in source nodes (doubling N should
//!   roughly quadruple the time). Level 0 takes the input graph as
//!   `AdjacencyRef::Fixed`, the path every served and trained graph
//!   takes. `coarsen/level0/n=200/{dense,sparse}` is the interleaved pair
//!   of that level's dense `Mᵀ·A` oracle and the raw-`A` CSR product.
//! * `attention/*` — MOA vs Sec. 3.4 attention mechanisms: GAT attention
//!   over the 1-hop edge list (O(E)), SimGNN master attention (O(N)) and
//!   MOA (O(N·N')).
//! * `pooling/*` — latency of one forward pass per pooling baseline, the
//!   cost side of the Table 3 comparison.
//! * `ged/*` — the Fig. 5 GED solver family on ≤10-node pairs.
//! * `ged/batch_hungarian/*/{seq,par}` — batched GED pinned to one thread
//!   and handing pairs to `hap-par`'s scoped threads (see EXPERIMENTS.md
//!   "Parallelism" for how to read these and how to pin `HAP_THREADS`).
//! * `sparse/spmm/*` — CSR SpMM vs the dense zero-skipping GEMM on the
//!   same `Â`, swept over `n` and edge density up to the complete graph:
//!   the measurement behind propagating every fixed graph on CSR alone
//!   (EXPERIMENTS.md "Sparse vs dense crossover"). Both paths produce
//!   byte-identical output; only time differs.
//! * `sparse/segment_sums` / `sparse/segment_softmax` — the batched
//!   segment reductions (`Tensor::try_segment_sums`,
//!   `try_segment_softmax`) over a block-diagonal batch layout: one
//!   graph-sized segment per batch member of an `N × F` node tensor,
//!   the readout/attention companions to the batched SpMM.
//! * `embed/*` — eval-mode hierarchy embeddings for a batch of graphs:
//!   the graph-at-a-time loop vs one block-diagonal batched forward
//!   (`HapClassifier::try_embeddings`), the retrieval index build's path.
//!   hap-serve embeds one graph at a time (`try_embedding`).
//! * `precision/*` — f32-vs-f64 pairs ([`Bench::run_pair`]) for the two
//!   headline hot paths: the `n=200` square GEMM (the register-blocked
//!   kernel with twice the lanes per register at f32) and the full training
//!   step. The f32/f64 median ratio here is the "Precision" table in
//!   EXPERIMENTS.md, and `scripts/bench_check.sh` gates the matmul pair
//!   at ≥1.6× and the COLLAB-scale train-step pair at ≥1.25×.
//! * `train/train_step` — one full gradient-accumulation step through
//!   `hap_train::Stepper::step` with one sample per group, the step
//!   `hap_train::train` runs (persistent tape, `reset()` per sample); the
//!   training-hot-path headline number. `train/train_step_batched` is the
//!   same workload with the whole batch in one group, the step
//!   `hap_train::train_batched` runs: one shared block-diagonal level-0
//!   forward and one backward for the whole batch.
//!
//! ```text
//! cargo run --release -p hap-bench --bin microbench \
//!     [--quick|--full] [--seed <u64>] [--out <path>]
//! ```
//!
//! Writes a JSON timing report to `--out` (default
//! `results/microbench.json`) and prints a median/p10/p90 table. Built
//! with `--features count-allocs`, [`hap_bench::harness::CountingAlloc`]
//! is installed as the global allocator and every case also reports heap
//! allocations per iteration (`scripts/bench_check.sh` does this).

use hap_autograd::{ParamStore, Tape};
use hap_bench::harness::{black_box, Bench};
use hap_bench::{parse_microbench_args, RunScale};
use hap_core::{GCont, HapClassifier, HapCoarsen, HapConfig, HapModel, Moa};
use hap_ged::{
    batch_ged, beam_ged, bipartite_ged, exact_ged, BipartiteSolver, EditCosts, GedMethod,
};
use hap_gnn::{AdjacencyRef, GatLayer};
use hap_graph::{degree_one_hot, generators, Graph, GraphScalar};
use hap_pooling::{
    CoarsenModule, DiffPool, GPool, MeanAttReadout, MeanReadout, PoolCtx, Readout, SagPool,
    StructPool, SumReadout,
};
use hap_rand::Rng;
use hap_tensor::Tensor;
use hap_train::{Stepper, TrainConfig};

/// With `--features count-allocs`, route every heap allocation through
/// the counting allocator so [`Bench::run`] reports allocations per
/// iteration. Off by default: the plain system allocator.
#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: hap_bench::harness::CountingAlloc = hap_bench::harness::CountingAlloc;

fn coarsening(bench: &mut Bench, sizes: &[usize], seed: u64) {
    let dim = 16;
    for &n in sizes {
        let mut rng = Rng::from_seed(seed);
        let g = generators::erdos_renyi_connected(n, 0.1, &mut rng);
        let x = degree_one_hot(&g, dim);
        let mut store = ParamStore::new();
        let module = HapCoarsen::new(&mut store, "hc", dim, 8, &mut rng);

        bench.run(&format!("coarsen_forward/n={n}"), || {
            let mut rng = Rng::from_seed(1);
            let mut tape = Tape::new();
            let h = tape.constant(x.clone());
            let mut ctx = PoolCtx {
                training: false,
                rng: &mut rng,
            };
            let (a2, h2) = module.forward(&mut tape, AdjacencyRef::Fixed(&g), h, &mut ctx);
            (tape.value(a2).clone(), tape.value(h2).clone())
        });

        // Steady state of the training loop: one persistent tape with
        // `reset()` per step — exactly how `hap_train::train` drives the
        // backward pass — so the tape's buffer pool is warm.
        let mut step_tape = Tape::new();
        bench.run(&format!("coarsen_forward_backward/n={n}"), || {
            let mut rng = Rng::from_seed(1);
            store.zero_grads();
            let tape = &mut step_tape;
            tape.reset();
            let h = tape.constant(x.clone());
            let mut ctx = PoolCtx {
                training: true,
                rng: &mut rng,
            };
            let (_a2, h2) = module.forward(tape, AdjacencyRef::Fixed(&g), h, &mut ctx);
            let sq = tape.hadamard(h2, h2);
            let loss = tape.sum_all(sq);
            tape.backward(loss);
            store.grad_norm()
        });
    }
}

/// Level-0 HAP coarsening of one `n = 200` graph, eval mode, both ways:
/// `dense` puts the dense adjacency on the tape and multiplies `Mᵀ·A`
/// densely (the `AdjacencyRef::Dynamic` oracle), `sparse` multiplies by
/// the graph's raw-`A` CSR (`AdjacencyRef::Fixed`, the served path).
/// Outputs are byte-identical; the pair runs interleaved
/// ([`Bench::run_pair`]).
fn coarsen_level0(bench: &mut Bench, seed: u64) {
    let (n, dim) = (200, 16);
    let mut rng = Rng::from_seed(seed);
    let g = generators::erdos_renyi_connected(n, 0.1, &mut rng);
    let x = degree_one_hot(&g, dim);
    let mut store = ParamStore::new();
    let module = HapCoarsen::new(&mut store, "hc", dim, 8, &mut rng);
    let run = |sparse: bool| {
        let mut rng = Rng::from_seed(1);
        let mut tape = Tape::new();
        let h = tape.constant(x.clone());
        let a = if sparse {
            AdjacencyRef::Fixed(&g)
        } else {
            AdjacencyRef::Dynamic(tape.constant(g.dense_adjacency()))
        };
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };
        let (a2, h2) = module.forward(&mut tape, a, h, &mut ctx);
        (tape.value(a2).clone(), tape.value(h2).clone())
    };
    bench.run_pair(
        &format!("coarsen/level0/n={n}/dense"),
        || run(false),
        &format!("coarsen/level0/n={n}/sparse"),
        || run(true),
    );
}

fn attention(bench: &mut Bench, sizes: &[usize], seed: u64) {
    let dim = 16;
    for &n in sizes {
        let mut rng = Rng::from_seed(seed);
        let g = generators::erdos_renyi_connected(n, 0.1, &mut rng);
        let x = degree_one_hot(&g, dim);

        // masked pairwise self-attention (GAT / HSA)
        let mut store = ParamStore::new();
        let gat = GatLayer::new(&mut store, "gat", dim, dim, &mut rng);
        bench.run(&format!("attention/self_attention/n={n}"), || {
            let mut tape = Tape::new();
            let h = tape.constant(x.clone());
            gat.attention(&mut tape, AdjacencyRef::Fixed(&g), h)
        });

        // master attention (SimGNN MeanAtt)
        let mut store = ParamStore::new();
        let ma = MeanAttReadout::new(&mut store, "ma", dim, &mut rng);
        bench.run(&format!("attention/master_attention/n={n}"), || {
            let mut rng = Rng::from_seed(1);
            let mut tape = Tape::new();
            let h = tape.constant(x.clone());
            let a = tape.constant(g.dense_adjacency());
            let mut ctx = PoolCtx {
                training: false,
                rng: &mut rng,
            };
            let out = ma.forward(&mut tape, a, h, &mut ctx);
            tape.value(out).clone()
        });

        // MOA cross-level attention
        let mut store = ParamStore::new();
        let gcont = GCont::new(&mut store, "gc", dim, 8, &mut rng);
        let moa = Moa::new(&mut store, "moa", 8, &mut rng);
        bench.run(&format!("attention/moa/n={n}"), || {
            let mut tape = Tape::new();
            let h = tape.constant(x.clone());
            let cm = gcont.forward(&mut tape, h);
            let m = moa.forward(&mut tape, cm);
            tape.value(m).clone()
        });
    }
}

fn pooling(bench: &mut Bench, n: usize, seed: u64) {
    let dim = 16;
    let mut rng = Rng::from_seed(seed);
    let g = generators::erdos_renyi_connected(n, 0.08, &mut rng);
    let x = degree_one_hot(&g, dim);

    let flat: Vec<(&str, Box<dyn Readout>)> = {
        let mut store = ParamStore::new();
        vec![
            ("SumPool", Box::new(SumReadout) as Box<dyn Readout>),
            ("MeanPool", Box::new(MeanReadout)),
            (
                "MeanAttPool",
                Box::new(MeanAttReadout::new(&mut store, "ma", dim, &mut rng)),
            ),
        ]
    };
    for (name, r) in &flat {
        bench.run(&format!("pooling/{name}/n={n}"), || {
            let mut rng = Rng::from_seed(1);
            let mut tape = Tape::new();
            let h = tape.constant(x.clone());
            let a = tape.constant(g.dense_adjacency());
            let mut ctx = PoolCtx {
                training: false,
                rng: &mut rng,
            };
            let out = r.forward(&mut tape, a, h, &mut ctx);
            tape.value(out).clone()
        });
    }

    let hier: Vec<(&str, Box<dyn CoarsenModule>)> = {
        let mut store = ParamStore::new();
        vec![
            (
                "gPool",
                Box::new(GPool::new(&mut store, "gp", dim, 0.5, &mut rng))
                    as Box<dyn CoarsenModule>,
            ),
            (
                "SAGPool",
                Box::new(SagPool::new(&mut store, "sp", dim, 0.5, &mut rng)),
            ),
            (
                "DiffPool",
                Box::new(DiffPool::new(&mut store, "dp", dim, 8, &mut rng)),
            ),
            (
                "StructPool",
                Box::new(StructPool::new(&mut store, "st", dim, 8, 2, &mut rng)),
            ),
            (
                "HAP",
                Box::new(HapCoarsen::new(&mut store, "hap", dim, 8, &mut rng)),
            ),
        ]
    };
    for (name, m) in &hier {
        bench.run(&format!("pooling/{name}/n={n}"), || {
            let mut rng = Rng::from_seed(1);
            let mut tape = Tape::new();
            let h = tape.constant(x.clone());
            let mut ctx = PoolCtx {
                training: false,
                rng: &mut rng,
            };
            let (a2, h2) = m.forward(&mut tape, AdjacencyRef::Fixed(&g), h, &mut ctx);
            (tape.value(a2).clone(), tape.value(h2).clone())
        });
    }
}

fn ged(bench: &mut Bench, seed: u64) {
    let mut rng = Rng::from_seed(seed);
    let corpus = hap_data::aids_like(8, &mut rng);
    let pairs: Vec<(usize, usize)> = (0..4).map(|i| (i, i + 4)).collect();
    let costs = EditCosts::uniform();

    bench.run("ged/exact_astar", || {
        for &(i, j) in &pairs {
            black_box(exact_ged(&corpus[i].graph, &corpus[j].graph, &costs));
        }
    });
    bench.run("ged/beam1", || {
        for &(i, j) in &pairs {
            black_box(beam_ged(&corpus[i].graph, &corpus[j].graph, 1, &costs));
        }
    });
    bench.run("ged/beam80", || {
        for &(i, j) in &pairs {
            black_box(beam_ged(&corpus[i].graph, &corpus[j].graph, 80, &costs));
        }
    });
    bench.run("ged/hungarian", || {
        for &(i, j) in &pairs {
            black_box(bipartite_ged(
                &corpus[i].graph,
                &corpus[j].graph,
                BipartiteSolver::Hungarian,
                &costs,
            ));
        }
    });
    bench.run("ged/vj", || {
        for &(i, j) in &pairs {
            black_box(bipartite_ged(
                &corpus[i].graph,
                &corpus[j].graph,
                BipartiteSolver::Vj,
                &costs,
            ));
        }
    });
}

/// Seq-vs-par pairs for batched GED, which hands pairs to scoped
/// threads through `hap-par`. `seq` pins the thread count to one (the
/// sequential path); `par` uses `max(4, available_parallelism)` threads so
/// the helpers genuinely start even on small hosts — on a 1-core machine
/// the par rows therefore measure the fork-join's cost, not speedup (see
/// EXPERIMENTS.md "Parallelism").
fn parallelism(bench: &mut Bench, seed: u64) {
    let default_threads = hap_par::threads();
    let par_threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .max(4);

    let mut rng = Rng::from_seed(seed);
    // Two 200×200 draws that the removed `parallel/matmul*` cases used,
    // kept so the corpus below is drawn from the same stream position.
    let _ = Tensor::<f64>::rand_uniform(200, 200, -1.0, 1.0, &mut rng);
    let _ = Tensor::<f64>::rand_uniform(200, 200, -1.0, 1.0, &mut rng);

    let corpus = hap_data::aids_like(16, &mut rng);
    let pairs: Vec<(&Graph, &Graph)> = (0..8)
        .map(|i| (&corpus[i].graph, &corpus[i + 8].graph))
        .collect();
    // 64 pairs: at the Hungarian par crossover (8 pairs stays on the
    // sequential fallback by design — see `GedMethod::min_par_pairs`).
    let big_pairs: Vec<(&Graph, &Graph)> = (0..64)
        .map(|i| (&corpus[i % 16].graph, &corpus[(i * 7 + 5) % 16].graph))
        .collect();
    let costs = EditCosts::uniform();

    for (mode, threads) in [("seq", 1), ("par", par_threads)] {
        hap_par::set_threads(threads);
        bench.run(&format!("ged/batch_hungarian/pairs=8/{mode}"), || {
            batch_ged(&pairs, GedMethod::Hungarian, &costs)
        });
        bench.run(&format!("ged/batch_hungarian/pairs=64/{mode}"), || {
            batch_ged(&big_pairs, GedMethod::Hungarian, &costs)
        });
    }
    hap_par::set_threads(default_threads);
}

/// CSR SpMM vs the dense zero-skipping GEMM on the same normalised
/// adjacency `Â`, over a grid of `n` × edge density, with a complete graph
/// (density 1.0) as the densest row. Both kernels run the identical FMA
/// sequence on the stored non-zeros (ARCHITECTURE.md "CSR adjacency"),
/// so the medians isolate the cost of *visiting* zeros — the data behind
/// propagating every fixed graph on CSR alone.
fn sparse_spmm(bench: &mut Bench, sizes: &[usize], seed: u64) {
    let dim = 16;
    for &n in sizes {
        // `None` is the complete graph: the densest Â any graph can have.
        for p in [Some(0.02), Some(0.1), Some(0.3), None] {
            let mut rng = Rng::from_seed(seed);
            let (label, g) = match p {
                Some(p) => (
                    format!("p={p}"),
                    generators::erdos_renyi_connected(n, p, &mut rng),
                ),
                None => ("clique".to_string(), generators::clique(n)),
            };
            let h = Tensor::rand_uniform(n, dim, -1.0, 1.0, &mut rng);
            let csr = std::sync::Arc::clone(g.csr_adjacency_cached().matrix());
            let a_hat = csr.to_dense();
            let density = csr.density();
            bench.run_pair(
                &format!("sparse/spmm/n={n}/{label}/density={density:.3}/csr"),
                || csr.spmm(&h),
                &format!("sparse/spmm/n={n}/{label}/density={density:.3}/dense"),
                || a_hat.matmul(&h),
            );
        }
    }
}

/// The batched segment reductions from `hap_tensor::segment` over a
/// block-diagonal batch layout: one graph-sized segment (6–24 rows) per
/// batch member of an `N × 16` node tensor. `segment_sums` is the
/// batched readout reduction, `segment_softmax` the attention-readout
/// normaliser — the companion kernels to the batched SpMM above.
fn segment_reductions(bench: &mut Bench, seed: u64) {
    let dim = 16;
    let mut rng = Rng::from_seed(seed);
    for segments in [8usize, 32] {
        let mut offsets = vec![0usize];
        for _ in 0..segments {
            let n = rng.gen_range(6..=24);
            offsets.push(offsets.last().expect("non-empty") + n);
        }
        let rows = *offsets.last().expect("non-empty");
        let h: Tensor<f64> = Tensor::rand_uniform(rows, dim, -1.0, 1.0, &mut rng);
        bench.run(
            &format!("sparse/segment_sums/segments={segments}/rows={rows}"),
            || h.try_segment_sums(&offsets).expect("valid layout"),
        );
        bench.run(
            &format!("sparse/segment_softmax/segments={segments}/rows={rows}"),
            || h.try_segment_softmax(&offsets).expect("valid layout"),
        );
    }
}

/// Eval-mode hierarchy embeddings for a batch of IMDB-B-like graphs —
/// the retrieval index build's workload. `looped` calls
/// `HapClassifier::try_embedding` per graph; `batched` embeds the whole
/// batch through one block-diagonal level-0 forward
/// (`HapClassifier::try_embeddings`). Outputs are byte-identical.
///
/// The two cases run interleaved ([`Bench::run_pair`]) so host drift
/// over the session cannot bias the looped-vs-batched comparison.
fn embed_batch(bench: &mut Bench, seed: u64) {
    let mut rng = Rng::from_seed(seed);
    let ds = hap_data::imdb_b(16, &mut rng);
    let mut store = ParamStore::new();
    let cfg = HapConfig::new(ds.feature_dim, 8).with_clusters(&[4, 2]);
    let model = HapModel::new(&mut store, &cfg, &mut rng);
    let clf = HapClassifier::new(&mut store, model, ds.num_classes, &mut rng);
    let batch: Vec<usize> = (0..8).collect();

    bench.run_pair(
        "embed/looped/batch=8",
        || {
            let mut rng = Rng::from_seed(1);
            let mut ctx = PoolCtx {
                training: false,
                rng: &mut rng,
            };
            batch
                .iter()
                .map(|&i| {
                    let s = &ds.samples[i];
                    clf.try_embedding(&s.graph, &s.features, &mut ctx)
                        .expect("embed")
                })
                .collect::<Vec<Tensor>>()
        },
        "embed/batched/batch=8",
        || {
            let mut rng = Rng::from_seed(1);
            let mut ctx = PoolCtx {
                training: false,
                rng: &mut rng,
            };
            let items: Vec<(&Graph, &Tensor)> = batch
                .iter()
                .map(|&i| (&ds.samples[i].graph, &ds.samples[i].features))
                .collect();
            clf.try_embeddings(&items, &mut ctx).expect("embed")
        },
    );
}

/// One full gradient-accumulation training step on IMDB-scale graphs
/// (~20 nodes, width 8, an 8-sample batch) through
/// `hap_train::Stepper::step`, the code `hap_train::train` and
/// `train_batched` run for every mini-batch. Under
/// `--features count-allocs` its allocations-per-iteration figure is the
/// headline number for the tape buffer-reuse work (EXPERIMENTS.md
/// "Training hot path").
///
/// `batched = false` is `train`'s step: every sample gets its own
/// `tape.reset()`, `HapClassifier::loss` forward and backward.
/// `batched = true` is `train_batched`'s step: one `tape.reset()`, all
/// eight losses from a single `HapClassifier::batch_losses` call (shared
/// block-diagonal level-0 forward) and one backward through their sum.
/// Per-loss values are byte-identical; the pair measures what sharing
/// the forward and the backward buys.
///
/// The `/obs` variant re-times the identical workload with
/// `hap-obs` at `Level::Trace` (`HAP_TRACE=1` semantics: phase timers
/// plus whole-tensor finiteness scans); comparing the two medians is
/// the observability-overhead acceptance check (budget: < 5%).
fn train_step_workload<T: GraphScalar>(seed: u64, batched: bool) -> impl FnMut() -> f64 {
    let mut rng = Rng::from_seed(seed);
    let ds = hap_data::imdb_b(16, &mut rng);
    step_workload::<T>(rng, ds, 8, &[4, 2], 8, batched)
}

/// One `Stepper::step` over the first `batch_size` samples of `ds`,
/// with `rng` initialising the classifier, at `TrainConfig::default()`'s
/// learning rate and clip bound, the ones every trainer in the workspace
/// runs with: each step also takes the gradient norm and clips the
/// gradients when the norm exceeds the bound.
///
/// Each case rebuilds its model/optimiser state from the same seeds:
/// sharing one evolving model across cases would confound the
/// comparison, because the arithmetic cost drifts as training
/// progresses (the Adam trajectory differs iteration to iteration).
///
/// Generic over the element type so the `precision/*` pairs time the
/// *identical* workload at both dtypes: data synthesis and splits stay
/// f64 and features are cast once up front, exactly as
/// `train_snapshot --dtype` does.
fn step_workload<T: GraphScalar>(
    mut rng: Rng,
    ds: hap_data::ClassificationDataset,
    hidden: usize,
    clusters: &[usize],
    batch_size: usize,
    batched: bool,
) -> impl FnMut() -> f64 {
    let features: Vec<Tensor<T>> = ds.samples.iter().map(|s| s.features.cast()).collect();
    let mut store = ParamStore::<T>::new();
    let cfg = HapConfig::new(ds.feature_dim, hidden).with_clusters(clusters);
    let model = HapModel::new(&mut store, &cfg, &mut rng);
    let clf = HapClassifier::new(&mut store, model, ds.num_classes, &mut rng);
    let train_cfg = TrainConfig::default();
    let mut stepper = Stepper::new(train_cfg.lr, train_cfg.grad_clip);
    let mut model_rng = Rng::from_seed(1);
    let batch: Vec<usize> = (0..batch_size).collect();
    let group = if batched { batch_size } else { 1 };

    move || {
        let mut loss_sum = 0.0;
        stepper.step(
            &store,
            &batch,
            group,
            &mut |tape, samples, ctx| {
                if batched {
                    let items: Vec<(&Graph, &Tensor<T>, usize)> = samples
                        .iter()
                        .map(|&i| (&ds.samples[i].graph, &features[i], ds.samples[i].label))
                        .collect();
                    clf.batch_losses(tape, &items, ctx).expect("batch losses")
                } else {
                    samples
                        .iter()
                        .map(|&i| {
                            let s = &ds.samples[i];
                            clf.loss(tape, &s.graph, &features[i], s.label, ctx)
                        })
                        .collect()
                }
            },
            &mut model_rng,
            &mut loss_sum,
        );
        loss_sum
    }
}

/// The looped and batched step run interleaved ([`Bench::run_pair`]):
/// their gap (a few percent) is smaller than the drift this host
/// accumulates over a sustained session, so a sequential layout would
/// systematically penalise whichever case ran second.
fn train_step(bench: &mut Bench, seed: u64) {
    bench.run_pair(
        "train/train_step/batch=8",
        train_step_workload::<f64>(seed, false),
        "train/train_step_batched/batch=8",
        train_step_workload::<f64>(seed, true),
    );

    hap_obs::set_level(hap_obs::Level::Trace);
    bench.run(
        "train/train_step/batch=8/obs",
        train_step_workload::<f64>(seed, false),
    );
    hap_obs::set_level(hap_obs::Level::Off);
    hap_obs::reset();
}

/// f32-vs-f64 pairs over the same inputs (f32 operands are one-time
/// casts of the f64 ones). Interleaved so the dtype ratio — the number
/// the generic-scalar refactor exists to improve — is immune to host
/// drift. `scripts/bench_check.sh` reads the matmul and COLLAB
/// train-step pairs and fails below 1.6× and 1.25×.
fn precision(bench: &mut Bench, seed: u64) {
    let mut rng = Rng::from_seed(seed);
    let a64 = Tensor::<f64>::rand_uniform(200, 200, -1.0, 1.0, &mut rng);
    let b64 = Tensor::<f64>::rand_uniform(200, 200, -1.0, 1.0, &mut rng);
    let a32: Tensor<f32> = a64.cast();
    let b32: Tensor<f32> = b64.cast();
    bench.run_pair(
        "precision/matmul/n=200/f64",
        || a64.matmul(&b64),
        "precision/matmul/n=200/f32",
        || a32.matmul(&b32),
    );
    bench.run_pair(
        "precision/train_step/batch=8/f64",
        train_step_workload::<f64>(seed, false),
        "precision/train_step/batch=8/f32",
        train_step_workload::<f32>(seed, false),
    );
    bench.run_pair(
        "precision/train_step_collab/batch=4/f64",
        collab_step_workload::<f64>(seed),
        "precision/train_step_collab/batch=4/f32",
        collab_step_workload::<f32>(seed),
    );
}

/// The compute-bound training step: `hap_train::train`'s per-sample
/// `Stepper::step` on a 4-sample batch of COLLAB-scale graphs (40–110
/// nodes, paper avg 74) at hidden width 32, where the per-node GEMMs
/// dominate and the tape's fixed bookkeeping does not. This is the pair
/// `bench_check.sh` gates at ≥1.25×: on the IMDB-scale micro step above
/// (~20-node graphs, width 8) the arithmetic is too small for lane width
/// to matter and the dtype ratio sits near 1.1× — see the EXPERIMENTS.md
/// "Precision" table for both numbers side by side.
fn collab_step_workload<T: GraphScalar>(seed: u64) -> impl FnMut() -> f64 {
    let mut rng = Rng::from_seed(seed);
    let ds = hap_data::collab(8, 1.0, &mut rng);
    step_workload::<T>(rng, ds, 32, &[16, 8], 4, false)
}

fn main() {
    let args = parse_microbench_args();
    let (scale, seed) = (args.scale, args.seed);
    let (mut bench, coarsen_sizes, attn_sizes): (Bench, &[usize], &[usize]) = match scale {
        RunScale::Quick => (Bench::with_iters(3, 30), &[25, 50, 100], &[50, 100]),
        RunScale::Full => (
            Bench::with_iters(10, 100),
            &[25, 50, 100, 200],
            &[50, 100, 200],
        ),
    };

    eprintln!("== HAP micro-benchmarks ({scale:?}, seed {seed}) ==");
    coarsening(&mut bench, coarsen_sizes, seed);
    coarsen_level0(&mut bench, seed);
    attention(&mut bench, attn_sizes, seed);
    pooling(&mut bench, 100, seed);
    ged(&mut bench, seed);
    parallelism(&mut bench, seed);
    sparse_spmm(&mut bench, coarsen_sizes, seed);
    segment_reductions(&mut bench, seed);
    embed_batch(&mut bench, seed);
    train_step(&mut bench, seed);
    precision(&mut bench, seed);

    bench.write_json(&args.out).expect("write JSON report");
    eprintln!(
        "wrote {} cases to {}",
        bench.results().len(),
        args.out.display()
    );
}
