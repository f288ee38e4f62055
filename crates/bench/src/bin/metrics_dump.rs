//! Exports the `hap-obs` metric registry of one short instrumented run
//! to JSON — the observability counterpart of `microbench`.
//!
//! Forces `Level::Trace` (the `HAP_TRACE=1` semantics: counters, value
//! histograms, phase timers, finiteness scans), trains a small HAP
//! classifier on the synthetic IMDB-B corpus, scores one batched GED
//! sweep, then writes everything `hap-obs` accumulated to `--out`
//! (default `results/metrics.json`) in the same flat hand-rolled JSON
//! style as `results/microbench.json`. After training it prints the
//! autograd tape's top ops by time to standard error.
//!
//! ```text
//! cargo run --release -p hap-bench --bin metrics-dump \
//!     [--seed <u64>] [--epochs <usize>] [--out <path>]
//! ```
//!
//! The run itself is seeded and deterministic; only the `time.*`
//! histograms (wall-clock nanoseconds) vary between invocations.

use hap_autograd::ParamStore;
use hap_core::{HapClassifier, HapConfig, HapModel};
use hap_ged::{batch_ged, EditCosts, GedMethod};
use hap_graph::Graph;
use hap_rand::Rng;
use hap_train::{train, TrainConfig};

struct Args {
    seed: u64,
    epochs: usize,
    out: std::path::PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: metrics-dump [--seed <u64>] [--epochs <usize>] [--out <path>]");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 7,
        epochs: 2,
        out: std::path::PathBuf::from("results/metrics.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--seed requires a value"));
                args.seed = v.parse().unwrap_or_else(|_| usage("--seed must be a u64"));
            }
            "--epochs" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--epochs requires a value"));
                args.epochs = v
                    .parse()
                    .unwrap_or_else(|_| usage("--epochs must be a usize"));
            }
            "--out" => {
                let v = it.next().unwrap_or_else(|| usage("--out requires a path"));
                args.out = std::path::PathBuf::from(v);
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    args
}

/// Prints the autograd tape's `top` ops by time (its sampled passes).
fn print_tape_profile(top: usize) {
    let mut ops = hap_obs::timings();
    ops.retain(|(name, _)| name.starts_with("tape."));
    ops.sort_by(|a, b| b.1.sum.total_cmp(&a.1.sum));
    let total: f64 = ops.iter().map(|(_, h)| h.sum).sum();
    eprintln!("tape profile ({:.2} ms in sampled passes):", total / 1e6);
    for (name, h) in ops.iter().take(top) {
        let (n, ms, pct) = (h.count, h.sum / 1e6, 100.0 * h.sum / total);
        eprintln!("  {name:<28} {n:>7}x {ms:>8.2} ms {pct:>5.1}%");
    }
}

fn main() {
    let args = parse_args();
    // Force full instrumentation regardless of the environment: this
    // binary exists to produce a populated registry.
    hap_obs::set_level(hap_obs::Level::Trace);

    let mut root = Rng::from_seed(args.seed);
    let mut data_rng = root.fork("data");
    let mut init_rng = root.fork("init");

    let ds = hap_data::imdb_b(40, &mut data_rng);
    let mut store = ParamStore::new();
    let cfg = HapConfig::new(ds.feature_dim, 6).with_clusters(&[3]);
    let model = HapModel::new(&mut store, &cfg, &mut init_rng);
    let clf = HapClassifier::new(&mut store, model, ds.num_classes, &mut init_rng);
    let (train_idx, val_idx, test_idx) = hap_data::split_811(ds.samples.len(), &mut data_rng);

    let tcfg = TrainConfig {
        epochs: args.epochs,
        batch_size: 8,
        lr: 0.01,
        seed: args.seed,
        patience: None,
        grad_clip: Some(5.0),
        log_every: 0,
    };
    eprintln!(
        "== metrics-dump: {} epochs on synthetic IMDB-B (seed {}) ==",
        args.epochs, args.seed
    );
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
    eprintln!(
        "trained {} epochs, best val {:.3}, test {:.3}",
        report.epochs_run, report.best_val, report.test_metric
    );
    print_tape_profile(10);

    // One batched GED sweep so the `ged.*` metric family is populated.
    let corpus = hap_data::aids_like(16, &mut data_rng);
    let pairs: Vec<(&Graph, &Graph)> = (0..8)
        .map(|i| (&corpus[i].graph, &corpus[i + 8].graph))
        .collect();
    let costs = EditCosts::uniform();
    for method in [GedMethod::Hungarian, GedMethod::Vj, GedMethod::Beam(8)] {
        let d = batch_ged(&pairs, method, &costs);
        eprintln!(
            "ged {}: {} pairs, mean distance {:.2}",
            method.label(),
            d.len(),
            d.iter().sum::<f64>() / d.len() as f64
        );
    }

    hap_obs::write_json(&args.out).expect("write metrics JSON");
    eprintln!(
        "wrote metrics ({} non-finite events) to {}",
        hap_obs::nonfinite_total(),
        args.out.display()
    );
}
