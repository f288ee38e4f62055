//! Admissibility and determinism contracts for the retrieval cascade.
//!
//! - With `budget ≥ corpus size`, the cascade must equal the exhaustive
//!   scan *bitwise* — the filters are prefix lower bounds of a
//!   non-negative sum, so they can only skip graphs the bounded heap
//!   would have rejected anyway.
//! - With any budget, every distance the cascade reports must equal the
//!   exhaustive distance for the same id (the staged accumulation is
//!   the same addition sequence), and the stat prefix must never exceed
//!   the full distance.
//! - Results must be byte-identical under `hap_par::set_threads(1)` and
//!   a multi-thread setting.

use hap_autograd::ParamStore;
use hap_core::{HapClassifier, HapConfig, HapModel};
use hap_data::RetrievalCorpus;
use hap_rand::Rng;
use hap_retrieval::{GraphIndex, IndexConfig, Neighbor, QueryEmbedding};
use hap_snapshot::ModelSnapshot;
use std::sync::Mutex;

/// The thread-count override is process-global; tests that flip it must
/// not interleave, so every such test body runs under this lock.
static THREAD_TOGGLE: Mutex<()> = Mutex::new(());

fn snapshot(seed: u64) -> ModelSnapshot {
    let mut rng = Rng::from_seed(seed);
    let mut store = ParamStore::<f64>::new();
    let cfg = HapConfig::new(hap_data::CORPUS_FEATURE_DIM, 8).with_clusters(&[8, 4, 2]);
    let model = HapModel::new(&mut store, &cfg, &mut rng);
    let _clf = HapClassifier::new(&mut store, model, 2, &mut rng);
    ModelSnapshot::capture(&cfg, 2, &store)
}

fn small_index(corpus_seed: u64, len: usize) -> (GraphIndex, RetrievalCorpus, ModelSnapshot) {
    let snap = snapshot(3);
    let corpus = RetrievalCorpus::new(corpus_seed, len);
    let cfg = IndexConfig {
        shard_size: 37, // deliberately not a divisor of len
        chunk: 16,
        ..IndexConfig::default()
    };
    let index = GraphIndex::build(&snap, &corpus, cfg).expect("index build");
    (index, corpus, snap)
}

fn queries(
    index: &GraphIndex,
    snap: &ModelSnapshot,
    corpus_seed: u64,
    count: usize,
) -> Vec<QueryEmbedding> {
    let (_store, clf) = snap.build_classifier().expect("classifier");
    // Query graphs come from a *different* corpus seed so they are not
    // corpus members.
    let qcorpus = RetrievalCorpus::new(corpus_seed ^ 0xABCD, count);
    (0..count)
        .map(|i| {
            let g = qcorpus.graph(i);
            let f = qcorpus.features::<f64>(&g);
            index.embed_query(&clf, &g, &f).expect("query embedding")
        })
        .collect()
}

fn assert_bitwise_eq(a: &[Neighbor], b: &[Neighbor], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{what}: id mismatch");
        assert_eq!(
            x.distance.to_bits(),
            y.distance.to_bits(),
            "{what}: distance bits differ for id {}",
            x.id
        );
    }
}

#[test]
fn cascade_with_full_budget_equals_exhaustive_bitwise() {
    for corpus_seed in [5u64, 11, 17] {
        let (index, _corpus, snap) = small_index(corpus_seed, 150);
        for (qi, q) in queries(&index, &snap, corpus_seed, 4).iter().enumerate() {
            let truth = index.exhaustive(q, 10);
            let (got, report) = index.cascade(q, 10, index.len());
            assert_bitwise_eq(&truth, &got, &format!("seed {corpus_seed} query {qi}"));
            // With budget == len nothing may be dropped between stages.
            assert_eq!(
                report.skipped_size_degree + report.skipped_wl + report.coarse_evals,
                index.len(),
                "every graph must be accounted for"
            );
        }
    }
}

#[test]
fn filters_never_evict_a_true_topk_graph() {
    // Property form of admissibility: at *any* budget >= k, every graph
    // the cascade returns carries its exact exhaustive distance, and
    // the true top-k under the bound-ordered scan survives whenever the
    // budget keeps it. The budget is the only lossy part — verify that
    // recall against the oracle is monotone in budget and reaches 1.
    let (index, _corpus, snap) = small_index(23, 200);
    let k = 10;
    for (qi, q) in queries(&index, &snap, 23, 3).iter().enumerate() {
        let truth = index.exhaustive(q, k);
        let truth_ids: Vec<usize> = truth.iter().map(|n| n.id).collect();
        let mut last_recall = 0.0;
        for budget in [k, 25, 50, 100, index.len()] {
            let (got, _) = index.cascade(q, k, budget);
            // Exactness of reported distances: same id => same bits.
            for n in &got {
                if let Some(t) = truth.iter().find(|t| t.id == n.id) {
                    assert_eq!(
                        n.distance.to_bits(),
                        t.distance.to_bits(),
                        "query {qi}: cascade distance for id {} differs from exhaustive",
                        n.id
                    );
                }
            }
            let hits = got.iter().filter(|n| truth_ids.contains(&n.id)).count();
            let recall = hits as f64 / k as f64;
            assert!(
                recall >= last_recall - 1e-12,
                "query {qi}: recall not monotone in budget ({last_recall} -> {recall})"
            );
            last_recall = recall;
        }
        assert_eq!(last_recall, 1.0, "query {qi}: full budget must be exact");
    }
}

#[test]
fn stat_prefix_is_a_lower_bound_of_the_full_distance() {
    // The admissibility precondition itself: for every corpus graph the
    // reported full distance dominates the reported candidates' stage-2
    // bounds. Checked indirectly: cascade(k, budget=len) distances are
    // exhaustive distances (previous tests), so here we check the
    // ordering contract — exhaustive results are sorted by
    // (distance, id) and distances are non-negative.
    let (index, _corpus, snap) = small_index(31, 120);
    for q in queries(&index, &snap, 31, 3) {
        let truth = index.exhaustive(&q, 20);
        for w in truth.windows(2) {
            assert!(
                (w[0].distance, w[0].id) <= (w[1].distance, w[1].id),
                "exhaustive results must be sorted by (distance, id)"
            );
        }
        for n in &truth {
            assert!(
                n.distance >= 0.0,
                "distances are sums of non-negative terms"
            );
        }
    }
}

#[test]
fn results_are_byte_identical_across_thread_counts() {
    let _guard = THREAD_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    let (index, _corpus, snap) = small_index(47, 180);
    let qs = queries(&index, &snap, 47, 3);

    hap_par::set_threads(1);
    let single: Vec<(Vec<Neighbor>, Vec<Neighbor>)> = qs
        .iter()
        .map(|q| (index.exhaustive(q, 10), index.cascade(q, 10, 40).0))
        .collect();

    hap_par::set_threads(4);
    let multi: Vec<(Vec<Neighbor>, Vec<Neighbor>)> = qs
        .iter()
        .map(|q| (index.exhaustive(q, 10), index.cascade(q, 10, 40).0))
        .collect();
    hap_par::set_threads(1);

    for (qi, ((se, sc), (me, mc))) in single.iter().zip(&multi).enumerate() {
        assert_bitwise_eq(se, me, &format!("exhaustive query {qi}"));
        assert_bitwise_eq(sc, mc, &format!("cascade query {qi}"));
    }
}

#[test]
fn index_build_is_byte_identical_across_thread_counts() {
    let _guard = THREAD_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    let snap = snapshot(3);
    let corpus = RetrievalCorpus::new(53, 96);
    let cfg = IndexConfig {
        chunk: 16,
        shard_size: 29,
        ..IndexConfig::default()
    };

    hap_par::set_threads(1);
    let a = GraphIndex::build(&snap, &corpus, cfg.clone()).expect("build single");
    hap_par::set_threads(4);
    let b = GraphIndex::build(&snap, &corpus, cfg).expect("build multi");
    hap_par::set_threads(1);

    // Compare through query results: identical indices answer every
    // query identically, bit for bit.
    for q in queries(&a, &snap, 53, 4) {
        let (ra, _) = a.cascade(&q, 10, 32);
        let (rb, _) = b.cascade(&q, 10, 32);
        assert_bitwise_eq(&ra, &rb, "index built at different thread counts");
    }
    let (wa, wb) = (a.weights(), b.weights());
    assert_eq!(wa.size.to_bits(), wb.size.to_bits());
    assert_eq!(wa.degree.to_bits(), wb.degree.to_bits());
    assert_eq!(wa.wl.to_bits(), wb.wl.to_bits());
}

#[test]
fn update_entry_upserts_slot_in_place_and_keeps_admissibility() {
    let (mut index, corpus, snap) = small_index(71, 90);
    let (_store, clf) = snap.build_classifier().expect("classifier");
    // Mutate corpus graph 17: flip one edge, re-embed, upsert in place.
    let mut g = corpus.graph(17);
    match g.edges().first().copied() {
        Some((u, v)) => g.remove_edge(u, v),
        None => g.add_edge(0, 1),
    }
    let f = corpus.features::<f64>(&g);
    let q = index
        .embed_query(&clf, &g, &f)
        .expect("embed mutated graph");
    index.update_entry(17, &q);

    // The mutated graph's own embedding must now retrieve slot 17 at
    // exactly zero distance (every term of the hybrid distance vanishes).
    let top = index.exhaustive(&q, 1);
    assert_eq!(top[0].id, 17, "upserted slot must be its own nearest");
    assert_eq!(top[0].distance.to_bits(), 0.0f64.to_bits());

    // The rewritten WL slot and embedding rows must keep the SoA
    // layout coherent: the cascade stays bitwise equal to the exhaustive
    // scan for unrelated queries.
    for (qi, q) in queries(&index, &snap, 71, 3).iter().enumerate() {
        let truth = index.exhaustive(q, 10);
        let (got, _) = index.cascade(q, 10, index.len());
        assert_bitwise_eq(&truth, &got, &format!("post-upsert query {qi}"));
    }

    // rerank_ged_with consults the caller's lookup, not the seed corpus:
    // serving the mutated graph for id 17 yields GED 0 against itself.
    use hap_ged::{EditCosts, GedMethod};
    let shortlist = index.exhaustive(&q, 5);
    let reranked = index.rerank_ged_with(
        |id| {
            if id == 17 {
                g.clone()
            } else {
                corpus.graph(id)
            }
        },
        &g,
        &shortlist,
        GedMethod::Hungarian,
        &EditCosts::uniform(),
    );
    let self_hit = reranked.iter().find(|n| n.id == 17).expect("id 17 kept");
    assert_eq!(self_hit.distance, 0.0, "GED of the mutated graph to itself");
}

#[test]
fn update_entry_with_a_different_node_count_panics_before_writing() {
    let (mut index, corpus, snap) = small_index(83, 60);
    let (_store, clf) = snap.build_classifier().expect("classifier");
    let n = corpus.graph(9).n();
    let other = (0..corpus.len())
        .map(|i| corpus.graph(i))
        .find(|g| g.n() != n)
        .expect("the corpus mixes graph sizes");
    let f = corpus.features::<f64>(&other);
    let q = index.embed_query(&clf, &other, &f).expect("embed");
    let probes = queries(&index, &snap, 83, 3);
    let before: Vec<Vec<Neighbor>> = probes
        .iter()
        .map(|p| index.cascade(p, 10, index.len()).0)
        .collect();

    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        index.update_entry(9, &q);
    }))
    .expect_err("a different n must panic");
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or_default();
    assert!(msg.contains("may not change n"), "panic message: {msg}");

    // Nothing was written: every answer is unchanged, bit for bit.
    for (p, want) in probes.iter().zip(&before) {
        assert_bitwise_eq(
            &index.cascade(p, 10, index.len()).0,
            want,
            "after the panic",
        );
    }
}

#[test]
fn ged_rerank_orders_shortlist_and_preserves_ids() {
    use hap_ged::{EditCosts, GedMethod};
    let (index, corpus, snap) = small_index(61, 80);
    let q = &queries(&index, &snap, 61, 1)[0];
    let (shortlist, _) = index.cascade(q, 8, 32);
    let qcorpus = RetrievalCorpus::new(61 ^ 0xABCD, 1);
    let qg = qcorpus.graph(0);
    let reranked = index.rerank_ged(
        &corpus,
        &qg,
        &shortlist,
        GedMethod::Hungarian,
        &EditCosts::uniform(),
    );
    assert_eq!(reranked.len(), shortlist.len());
    let mut before: Vec<usize> = shortlist.iter().map(|n| n.id).collect();
    let mut after: Vec<usize> = reranked.iter().map(|n| n.id).collect();
    before.sort_unstable();
    after.sort_unstable();
    assert_eq!(before, after, "rerank must not add or drop ids");
    for w in reranked.windows(2) {
        assert!(
            (w[0].distance, w[0].id) <= (w[1].distance, w[1].id),
            "rerank output must be sorted by (ged, id)"
        );
    }
}
