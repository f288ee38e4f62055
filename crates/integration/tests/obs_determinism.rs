//! Observability must be a pure observer: turning `hap-obs` all the way
//! up (`Level::Trace` — phase timers, whole-tensor finiteness scans,
//! loss/grad-norm recording) must leave a training run *byte-identical*
//! to the same run with instrumentation off, at any `HAP_THREADS`.
//!
//! The same holds for serving: `/search` and `/update` answer the same
//! bytes with every probe live, while the cascade's prune counters reach
//! the registry that `/metrics` exports.
//!
//! The obs level is process-global state and cargo runs a binary's tests
//! on parallel threads, so every test here holds [`LEVEL`] while it
//! toggles the level. `scripts/ci.sh` executes this file under both
//! `HAP_THREADS=1` and the host default.

use hap_autograd::ParamStore;
use hap_core::{HapClassifier, HapConfig, HapModel};
use hap_rand::Rng;
use hap_train::{train, TrainConfig, TrainReport};
use std::sync::Mutex;
use std::time::Duration;

/// Serialises the tests of this file: each one sets the global level.
static LEVEL: Mutex<()> = Mutex::new(());

/// The determinism-suite experiment: synthetic IMDB-B, one coarsening
/// level, four epochs, every draw forked from `seed`.
fn run_experiment(seed: u64) -> TrainReport {
    let mut root = Rng::from_seed(seed);
    let mut data_rng = root.fork("data");
    let mut init_rng = root.fork("init");

    let ds = hap_data::imdb_b(40, &mut data_rng);
    let mut store = ParamStore::new();
    let cfg = HapConfig::new(ds.feature_dim, 6).with_clusters(&[3]);
    let model = HapModel::new(&mut store, &cfg, &mut init_rng);
    let clf = HapClassifier::new(&mut store, model, ds.num_classes, &mut init_rng);
    let (train_idx, val_idx, test_idx) = hap_data::split_811(ds.samples.len(), &mut data_rng);

    let tcfg = TrainConfig {
        epochs: 4,
        batch_size: 8,
        lr: 0.01,
        seed,
        patience: None,
        grad_clip: Some(5.0),
        log_every: 0,
    };
    train(
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
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn full_trace_instrumentation_does_not_perturb_training() {
    let _level = LEVEL.lock().unwrap_or_else(|e| e.into_inner());
    // Baseline: instrumentation fully off (the HAP_TRACE-unset path).
    hap_obs::set_level(hap_obs::Level::Off);
    hap_obs::reset();
    let off = run_experiment(7);
    assert_eq!(
        hap_obs::counter("train.samples"),
        0,
        "Level::Off must record nothing"
    );
    assert!(
        hap_obs::timings().is_empty(),
        "Level::Off must time nothing"
    );

    // Same experiment with every probe live.
    hap_obs::set_level(hap_obs::Level::Trace);
    hap_obs::reset();
    let on = run_experiment(7);

    assert_eq!(
        bits(&off.train_losses),
        bits(&on.train_losses),
        "tracing changed the loss trajectory"
    );
    assert_eq!(bits(&off.val_history), bits(&on.val_history));
    assert_eq!(off.best_val.to_bits(), on.best_val.to_bits());
    assert_eq!(off.test_metric.to_bits(), on.test_metric.to_bits());
    assert_eq!(off.epochs_run, on.epochs_run);

    // The traced run must actually have observed the training loop.
    assert!(hap_obs::counter("train.samples") > 0);
    assert!(hap_obs::counter("train.epochs") == on.epochs_run as u64);
    assert!(
        hap_obs::histogram("time.core.coarsen").is_some(),
        "phase timers missing under Level::Trace"
    );
    // The tape's per-op profile: the sampled passes time every node,
    // forward and backward.
    for scope in [
        "tape.fwd.matmul",
        "tape.bwd.matmul",
        "tape.bwd.gather_entries",
    ] {
        let h = hap_obs::histogram(&format!("time.{scope}"));
        assert!(
            h.is_some_and(|h| h.count > 0),
            "{scope} missing under Level::Trace"
        );
    }
    let ops = |kind: &str| -> u64 {
        let prefix = format!("tape.{kind}.");
        hap_obs::timings()
            .iter()
            .filter(|(name, _)| name.starts_with(&prefix))
            .map(|(_, h)| h.count)
            .sum()
    };
    assert!(
        ops("bwd") > 0 && ops("bwd") <= ops("fwd"),
        "a backward sweep visits at most the recorded nodes"
    );
    assert_eq!(
        hap_obs::counter("train.skipped_samples"),
        0,
        "healthy run must not trip the NaN guard"
    );
    assert_eq!(hap_obs::nonfinite_total(), 0);

    // Leave the process-global level as the environment dictates.
    hap_obs::set_level(hap_obs::Level::Off);
    hap_obs::reset();
}

/// A fixed `/search` + `/update` stream against a tiny untrained model
/// with a 48-graph index, answered by a fresh model thread; returns every
/// response body in order.
fn serve_search_update_bodies() -> Vec<String> {
    let mut rng = Rng::from_seed(3);
    let mut store = ParamStore::<f64>::new();
    let cfg = HapConfig::new(4, 4).with_clusters(&[2]);
    let model = HapModel::new(&mut store, &cfg, &mut rng);
    let _clf = HapClassifier::new(&mut store, model, 2, &mut rng);
    let snapshot = hap_snapshot::ModelSnapshot::capture(&cfg, 2, &store);
    let service = hap_serve::ServiceConfig {
        search_corpus: 48,
        ..hap_serve::ServiceConfig::default()
    };
    let batcher = hap_serve::Batcher::spawn(snapshot, service, Duration::from_micros(200), 8)
        .expect("model thread starts");
    let client = batcher.client();
    let search = |graph: hap_graph::Graph, rerank: bool| hap_serve::Job::Search {
        graph,
        k: 5,
        budget: Some(8),
        rerank,
    };
    let update = |id: usize| hap_serve::Job::Update {
        id,
        ops: vec![
            hap_graph::EdgeDelta::Remove { u: 0, v: 1 },
            hap_graph::EdgeDelta::Upsert { u: 0, v: 2, w: 1.0 },
        ],
    };
    let jobs = vec![
        search(hap_graph::generators::cycle(6), false),
        update(7),
        search(hap_graph::generators::path(5), true),
        update(30),
        search(hap_graph::generators::cycle(6), false),
        search(hap_graph::generators::path(9), false),
    ];
    jobs.into_iter()
        .map(
            |job| match client.submit(job).expect("model thread answers") {
                Ok(body) => body,
                Err(msg) => panic!("the stream is valid, got: {msg}"),
            },
        )
        .collect()
}

#[test]
fn full_trace_instrumentation_does_not_perturb_search_or_update() {
    let _level = LEVEL.lock().unwrap_or_else(|e| e.into_inner());
    hap_obs::set_level(hap_obs::Level::Off);
    hap_obs::reset();
    let off = serve_search_update_bodies();
    assert_eq!(
        hap_obs::counter("retrieval.scanned"),
        0,
        "Level::Off must record nothing"
    );

    hap_obs::set_level(hap_obs::Level::Trace);
    hap_obs::reset();
    let on = serve_search_update_bodies();
    assert_eq!(off, on, "tracing changed a /search or /update body");

    // Four searches over a 48-graph index: every entry is either skipped
    // by one of the two filters or gets a coarse distance, and only
    // entries in visited buckets can get one.
    let searches = 4;
    let scanned = hap_obs::counter("retrieval.scanned");
    assert_eq!(scanned, searches * 48);
    let coarse = hap_obs::counter("retrieval.coarse_evals");
    assert_eq!(
        hap_obs::counter("retrieval.skipped_size_degree")
            + hap_obs::counter("retrieval.skipped_wl")
            + coarse,
        scanned
    );
    let visited = hap_obs::counter("retrieval.visited");
    assert!(
        coarse <= visited && visited <= scanned,
        "coarse_evals {coarse} <= visited {visited} <= scanned {scanned}"
    );
    assert!(coarse > 0);
    assert!(hap_obs::counter("retrieval.refined") > 0);
    // One cascade timing per `/search`.
    let cascade = hap_obs::histogram("time.retrieval.cascade").expect("cascade timed at Trace");
    assert_eq!(cascade.count, searches);

    hap_obs::set_level(hap_obs::Level::Off);
    hap_obs::reset();
}
