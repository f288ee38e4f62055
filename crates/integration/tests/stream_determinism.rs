//! Streaming-update determinism: a graph mutated through
//! [`hap_graph::Graph::apply`] must hold *bitwise* the same cached
//! structures — the CSR Â, its f32 cast, the 1-WL signature, and the
//! maintained edge/degree stats — as a graph rebuilt from scratch from
//! the same adjacency and labels. The contract is exact equality of
//! bytes, not approximate agreement: an edit must drop every cache it
//! invalidates, so a stale cache shows up as a difference, and
//! `scripts/ci.sh` runs this suite under `HAP_THREADS=1` and with the
//! variable unset to pin thread-count independence on top.

use hap_graph::{wl_signature, EdgeDelta, Graph};
use hap_rand::Rng;
use hap_tensor::CsrMatrix;

/// Structural + bitwise equality of two CSR matrices (no-stored-zero
/// invariant means equal rows ⇒ equal matrices).
fn assert_csr_bitwise<T: hap_tensor::Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    assert_eq!(a.nnz(), b.nnz(), "{what}: nnz");
    for r in 0..a.rows() {
        let (ac, av) = a.row(r);
        let (bc, bv) = b.row(r);
        assert_eq!(ac, bc, "{what}: row {r} columns");
        for (x, y) in av.iter().zip(bv) {
            assert_eq!(
                x.to_f64().to_bits(),
                y.to_f64().to_bits(),
                "{what}: row {r} value bits"
            );
        }
    }
}

/// Asserts every cached structure of `g` (already warmed and mutated)
/// equals the same structure computed fresh on a graph rebuilt from its
/// adjacency and node labels.
fn assert_matches_fresh(g: &Graph, wl_iterations: usize, step: usize) {
    let mut fresh = Graph::from_adjacency(g.dense_adjacency());
    if let Some(labels) = g.node_labels() {
        fresh = fresh.with_node_labels(labels.to_vec());
    }

    // Maintained stats vs O(n²) scans on the rebuild.
    assert_eq!(g.num_edges(), fresh.num_edges(), "step {step}: num_edges");
    assert_eq!(
        g.max_degree(),
        fresh.max_degree(),
        "step {step}: max_degree"
    );
    for u in 0..g.n() {
        assert_eq!(
            g.degree_count(u),
            fresh.degree_count(u),
            "step {step}: degree_count({u})"
        );
    }

    // CSR, cached vs rebuilt, and its values vs the dense oracle.
    let cached = g.csr_adjacency_cached().matrix();
    assert_csr_bitwise(
        cached,
        fresh.csr_adjacency_cached().matrix(),
        &format!("step {step}: f64 CSR"),
    );
    let scratch = fresh.sym_norm_adjacency();
    for (i, (a, b)) in cached
        .to_dense()
        .as_slice()
        .iter()
        .zip(scratch.as_slice())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "step {step}: Â entry {i} ({a} vs {b})"
        );
    }

    // f32 CSR cast.
    assert_csr_bitwise(
        g.csr_adjacency_cached_f32(),
        fresh.csr_adjacency_cached_f32(),
        &format!("step {step}: f32 CSR"),
    );

    // WL signature: integer colours (no floating point), so plain
    // equality is bit-equality.
    assert_eq!(
        *g.wl_signature_cached(wl_iterations),
        wl_signature(&fresh, wl_iterations),
        "step {step}: WL signature"
    );
}

/// One random delta. Mixes real inserts/deletes/reweights with
/// deliberate bit-level no-ops (removing absent edges, re-upserting the
/// current weight) and the occasional self-loop.
fn random_delta(g: &Graph, rng: &mut Rng) -> EdgeDelta {
    let n = g.n();
    let u = rng.gen_range(0..n);
    let v = rng.gen_range(0..n);
    match rng.gen_range(0..10usize) {
        // Insert / reweight with a handful of distinct weights.
        0..=3 => EdgeDelta::Upsert {
            u,
            v,
            w: [1.0, 0.5, 2.0, 0.25][rng.gen_range(0..4usize)],
        },
        // Delete (alias forms: Remove and Upsert-to-zero).
        4..=6 => EdgeDelta::Remove { u, v },
        7 => EdgeDelta::Upsert { u, v, w: 0.0 },
        // Deliberate no-op: re-upsert the exact current weight.
        8 => EdgeDelta::Upsert {
            u,
            v,
            w: g.weight(u, v),
        },
        // Self-loop churn.
        _ => EdgeDelta::Upsert { u: v, v, w: 1.0 },
    }
}

#[test]
fn fuzzed_mutation_streams_keep_every_cache_bitwise_fresh() {
    for (seed, n, p, wl_iterations, labelled) in [
        (11u64, 18usize, 0.15, 3usize, false),
        (23, 25, 0.30, 2, false),
        (47, 9, 0.50, 4, false),
        // WL round 0 on a labelled graph: the signature is the label
        // histogram, which no edit may lose.
        (59, 14, 0.25, 0, true),
    ] {
        let mut rng = Rng::from_seed(seed);
        let mut g = hap_graph::erdos_renyi(n, p, &mut rng);
        if labelled {
            let labels = (0..n).map(|_| rng.gen_range(0..3usize)).collect();
            g = g.with_node_labels(labels);
        }
        // Warm every cache up front so the first delta drops caches that
        // were in use, not lazy ones.
        let _ = g.csr_adjacency_cached();
        let _ = g.csr_adjacency_cached_f32();
        let _ = g.wl_signature_cached(wl_iterations);
        for step in 0..160 {
            g.apply(random_delta(&g, &mut rng));
            // Interleave occasional reads mid-stream (the serving access
            // pattern), and check the full contract every few steps.
            if step % 3 == 0 {
                let _ = g.csr_adjacency_cached();
                let _ = g.wl_signature_cached(wl_iterations);
            }
            if step % 8 == 0 || step == 159 {
                assert_matches_fresh(&g, wl_iterations, step);
            }
        }
    }
}

#[test]
fn batched_deltas_commute_with_a_single_rebuild() {
    // Applying k deltas one by one must land on exactly the state a
    // from-scratch construction over the final adjacency reaches —
    // independent of batch boundaries.
    let mut rng = Rng::from_seed(91);
    let mut g = hap_graph::erdos_renyi(20, 0.2, &mut rng);
    let _ = g.csr_adjacency_cached();
    let _ = g.wl_signature_cached(3);
    for batch in 0..12 {
        for _ in 0..16 {
            g.apply(random_delta(&g, &mut rng));
        }
        assert_matches_fresh(&g, 3, batch);
    }
}

#[test]
fn mutated_graph_embeds_bitwise_like_a_fresh_copy() {
    // End to end through the model: the HAP forward pass consumes the
    // cached CSR Â, so a stream of updates must leave the *embedding*
    // bitwise equal to embedding a freshly rebuilt graph. This is the
    // property the streaming /update route leans on.
    use hap_autograd::ParamStore;
    use hap_core::{HapClassifier, HapConfig, HapModel};
    use hap_graph::degree_one_hot;
    use hap_pooling::PoolCtx;

    let mut rng = Rng::from_seed(5);
    let mut store = ParamStore::<f64>::new();
    let cfg = HapConfig::new(8, 8).with_clusters(&[4, 2]);
    let model = HapModel::new(&mut store, &cfg, &mut rng);
    let clf = HapClassifier::new(&mut store, model, 2, &mut rng);

    let mut graph_rng = Rng::from_seed(17);
    let mut g = hap_graph::erdos_renyi(22, 0.18, &mut graph_rng);
    let _ = g.csr_adjacency_cached();
    for round in 0..6 {
        for _ in 0..9 {
            g.apply(random_delta(&g, &mut graph_rng));
        }
        let fresh = Graph::from_adjacency(g.dense_adjacency());
        let features = degree_one_hot(&g, 8);
        let eval = |graph: &Graph| {
            let mut rng = Rng::from_seed(0);
            let mut ctx = PoolCtx {
                training: false,
                rng: &mut rng,
            };
            clf.try_embedding(graph, &features, &mut ctx)
                .expect("embedding")
        };
        let a = eval(&g);
        let b = eval(&fresh);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "round {round}: embedding must not depend on mutation history"
            );
        }
    }
}
