//! Quickstart: build a graph, run one HAP coarsening step, train a tiny
//! HAP classifier, and inspect what the model learned.
//!
//! ```text
//! cargo run --release -p hap-examples --example quickstart
//! ```

use hap_autograd::{ParamStore, Tape};
use hap_core::{HapClassifier, HapCoarsen, HapConfig, HapModel};
use hap_gnn::AdjacencyRef;
use hap_graph::{degree_one_hot, generators};
use hap_pooling::{CoarsenModule, PoolCtx};
use hap_rand::Rng;

fn main() {
    let mut rng = Rng::from_seed(42);

    // ------------------------------------------------------------------
    // 1. One coarsening step on one graph
    // ------------------------------------------------------------------
    println!("== One HAP coarsening step ==");
    let g = generators::erdos_renyi_connected(12, 0.3, &mut rng);
    let x = degree_one_hot(&g, 8); // Sec. 6.1.3 degree one-hot features
    println!("input graph: {} nodes, {} edges", g.n(), g.num_edges());

    let mut store = ParamStore::new();
    let coarsen = HapCoarsen::new(&mut store, "demo", 8, 4, &mut rng);
    let mut tape = Tape::new();
    let h = tape.constant(x.clone());
    let mut ctx = PoolCtx {
        training: false,
        rng: &mut rng,
    };
    // The MOA assignment (Eq. 14–15): rows = nodes, columns = clusters.
    let m = coarsen.assignment(&mut tape, h);
    let mv = tape.value(m);
    println!("MOA assignment for node 0: {:?}", mv.row(0));

    let (a2, h2) = coarsen.forward(&mut tape, AdjacencyRef::Fixed(&g), h, &mut ctx);
    println!(
        "coarsened: {} clusters (features {:?}, adjacency {:?})",
        tape.shape(h2).0,
        tape.shape(h2),
        tape.shape(a2),
    );

    // ------------------------------------------------------------------
    // 2. Train a HAP classifier on a small synthetic dataset
    // ------------------------------------------------------------------
    println!("\n== Training a HAP classifier (IMDB-B-like data) ==");
    let ds = hap_data::imdb_b(80, &mut rng);
    let mut store = ParamStore::new();
    let cfg = HapConfig::new(ds.feature_dim, 16).with_clusters(&[8, 4]);
    let model = HapModel::new(&mut store, &cfg, &mut rng);
    let clf = HapClassifier::new(&mut store, model, ds.num_classes, &mut rng);
    println!(
        "model: {} parameters in {} tensors, K = {} coarsening modules",
        store.num_scalars(),
        store.len(),
        clf.model().depth(),
    );

    let (train_idx, val_idx, test_idx) = hap_data::split_811(ds.samples.len(), &mut rng);
    let tcfg = hap_train::TrainConfig {
        epochs: 15,
        log_every: 5,
        ..hap_train::TrainConfig::default()
    };
    let report = hap_train::train(
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
    println!(
        "trained {} epochs: best val acc {:.1}%, test acc {:.1}%",
        report.epochs_run,
        report.best_val * 100.0,
        report.test_metric * 100.0,
    );

    // ------------------------------------------------------------------
    // 3. Graph-level embeddings are what pooling is about
    // ------------------------------------------------------------------
    let mut ctx = PoolCtx {
        training: false,
        rng: &mut rng,
    };
    let s0 = &ds.samples[0];
    let e = clf.embedding(&s0.graph, &s0.features, &mut ctx);
    println!(
        "\ngraph 0 (label {}) embeds to a 1x{} vector; first entries {:?}",
        s0.label,
        e.cols(),
        &e.row(0)[..4.min(e.cols())]
    );
}
