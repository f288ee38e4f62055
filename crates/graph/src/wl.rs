//! Weisfeiler–Lehman colour refinement (Shervashidze et al., the paper's
//! ref. \[29\]).
//!
//! WL colours are the discrete analogue of the "continuous WL colors"
//! SortPooling sorts by (Sec. 2.1.2); they also give a sound (never
//! wrongly-positive) isomorphism pre-check that complements VF2.
//!
//! # Colours are hashes
//! As in the WL subtree kernel, each round relabels a node's signature to
//! a short label instead of nesting it: a colour is a 64-bit hash of the
//! node's previous colour, its neighbour count and its neighbours'
//! previous colours sorted ascending; round 0 hashes the node label. The
//! mixer is the fixed splitmix64 finaliser, so colours (and every key
//! derived from them) agree across processes, runs and thread counts.
//! Two colours are equal iff their colour trees are equal, except when
//! two distinct trees share a 64-bit hash — probability ≈ 2⁻⁶⁴ per pair,
//! the same collision class the cache key has always accepted.

use crate::Graph;
use std::collections::HashMap;

/// The splitmix64 finaliser: a fixed bijective 64-bit mixer.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds `x` into the running hash `h`. The golden-ratio offset keeps
/// `fold(0, 0)` away from the mixer's fixed point at zero.
#[inline]
fn fold(h: u64, x: u64) -> u64 {
    mix(h.wrapping_add(0x9E37_79B9_7F4A_7C15) ^ x)
}

/// Runs `iterations` rounds of 1-WL colour refinement and returns each
/// node's final colour compacted to `0..k` in order of first appearance.
///
/// Round 0 colours are node labels (0 for unlabelled graphs). The ids are
/// per-graph: two nodes of one graph share an id iff they share a colour.
/// To compare colours across graphs, use [`wl_signature`].
pub fn wl_colors(g: &Graph, iterations: usize) -> Vec<usize> {
    let mut ids: HashMap<u64, usize> = HashMap::new();
    refine(g, iterations)
        .into_iter()
        .map(|c| {
            let fresh = ids.len();
            *ids.entry(c).or_insert(fresh)
        })
        .collect()
}

/// The canonical 1-WL colour **histogram** of a graph after a fixed
/// number of refinement rounds: sorted `(colour, count)` pairs, where each
/// colour is the cross-graph-comparable hash described in the module
/// docs. Isomorphic graphs always produce equal signatures; unequal
/// signatures prove non-isomorphism. Equal signatures mean 1-WL
/// equivalence up to the documented 2⁻⁶⁴ hash collision.
///
/// This is the single shared computation behind both the serving cache
/// key ([`wl_cache_key`]) and the retrieval-index admissible WL-overlap
/// filter (`hap-retrieval`): the cache hashes the histogram, the filter
/// takes L1 distances between histograms — one refinement pass feeds
/// both.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WlSignature {
    /// `(colour, multiplicity)` sorted by colour, colours distinct.
    entries: Vec<(u64, u32)>,
}

impl WlSignature {
    /// The sorted `(colour, count)` pairs — the compact form index
    /// structures store directly.
    pub fn entries(&self) -> &[(u64, u32)] {
        &self.entries
    }

    /// Total node count (the sum of all multiplicities).
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|&(_, c)| c as u64).sum()
    }

    /// L1 distance between the two colour multisets: the number of nodes
    /// that would have to change colour (counting both sides) to make the
    /// histograms equal. Zero iff the signatures are equal.
    pub fn l1_distance(&self, other: &WlSignature) -> u64 {
        let (mut i, mut j, mut d) = (0, 0, 0u64);
        let (a, b) = (&self.entries, &other.entries);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    d += a[i].1 as u64;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    d += b[j].1 as u64;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    d += (a[i].1 as i64 - b[j].1 as i64).unsigned_abs();
                    i += 1;
                    j += 1;
                }
            }
        }
        d += a[i..].iter().map(|&(_, c)| c as u64).sum::<u64>();
        d += b[j..].iter().map(|&(_, c)| c as u64).sum::<u64>();
        d
    }
}

/// Runs `iterations` rounds of refinement and returns the canonical
/// colour histogram — the one shared computation behind [`wl_cache_key`]
/// and the retrieval filters.
pub fn wl_signature(g: &Graph, iterations: usize) -> WlSignature {
    histogram(refine(g, iterations))
}

/// Every node's colour after `iterations` rounds of refinement; round 0
/// hashes the node labels. A round's colour is the hash of the node's own
/// colour, its neighbour count and its neighbours' colours sorted
/// ascending — it depends only on the previous round, so only that round
/// is kept.
fn refine(g: &Graph, iterations: usize) -> Vec<u64> {
    let mut colours: Vec<u64> = match g.node_labels() {
        Some(l) => l.iter().map(|&x| fold(0, x as u64)).collect(),
        None => vec![fold(0, 0); g.n()],
    };
    let mut scratch = Vec::new();
    for _ in 0..iterations {
        // Neighbours come straight off the graph's rows (ascending,
        // self-loops excluded): O(n + m) per round.
        colours = (0..g.n())
            .map(|u| {
                scratch.clear();
                scratch.extend(g.neighbor_iter(u).map(|v| colours[v]));
                scratch.sort_unstable();
                scratch
                    .iter()
                    .fold(fold(colours[u], scratch.len() as u64), |h, &c| fold(h, c))
            })
            .collect();
    }
    colours
}

/// Sorts per-node colours and run-length-encodes them into the canonical
/// histogram.
fn histogram(mut colours: Vec<u64>) -> WlSignature {
    colours.sort_unstable();
    let mut entries: Vec<(u64, u32)> = Vec::new();
    for c in colours {
        match entries.last_mut() {
            Some((last, count)) if *last == c => *count += 1,
            _ => entries.push((c, 1)),
        }
    }
    WlSignature { entries }
}

/// A compact canonical cache key for a graph: the hash of the node count,
/// the edge count and the [`wl_signature`] histogram after `iterations`
/// rounds of refinement.
///
/// # Invariance
/// The key is a pure function of the graph's isomorphism-relevant
/// structure at 1-WL resolution: **relabelling nodes (any permutation)
/// never changes it**, while adding/removing an edge, changing the node
/// count or changing a node label does (except in the collision cases
/// below). This is exactly the contract an embedding cache wants, because
/// HAP embeddings at eval time are permutation-invariant — isomorphic
/// graphs *should* share a cache entry.
///
/// # Collision contract
/// Two distinct graphs can collide in two ways, and any consumer (the
/// `hap-serve` LRU embedding cache) must tolerate both:
///
/// 1. **1-WL-equivalent non-isomorphic graphs** — e.g. any two d-regular
///    graphs with equal node/edge counts (C₆ vs 2×C₃). These are rare in
///    practice (vanishingly so for random or molecule-like graphs) but
///    *structural*: no iteration count fixes them. A cache keyed by this
///    hash serves such a pair the embedding of whichever member arrived
///    first — an **approximation, not an error**, and precisely the
///    approximation 1-WL-based graph kernels make by design.
/// 2. **64-bit hash collisions** — two distinct colour trees sharing a
///    colour, or two distinct histograms sharing a key; probability
///    ≈ 2⁻⁶⁴ per pair, negligible against (1).
///
/// Consumers that cannot tolerate (1) must verify graph equality on hit;
/// the serving cache deliberately does not.
pub fn wl_cache_key(g: &Graph, iterations: usize) -> u64 {
    wl_cache_key_from_signature(&wl_signature(g, iterations), g.n(), g.num_edges())
}

/// The [`wl_cache_key`] computed from an already-derived histogram — a
/// **pure function** of `(signature, n, num_edges)`, nothing else. Callers
/// that need both the histogram (for overlap filtering) and the cache key
/// (for embedding lookup) run the refinement once and derive both from
/// the same [`WlSignature`].
pub fn wl_cache_key_from_signature(sig: &WlSignature, n: usize, num_edges: usize) -> u64 {
    let head = fold(
        fold(fold(0, n as u64), num_edges as u64),
        sig.entries.len() as u64,
    );
    sig.entries
        .iter()
        .fold(head, |h, &(c, k)| fold(fold(h, c), k as u64))
}

/// Sound non-isomorphism test: `true` means the graphs are *possibly*
/// isomorphic (1-WL cannot distinguish them); `false` is a proof of
/// non-isomorphism. Run before VF2 to cut its search space.
pub fn wl_maybe_isomorphic(a: &Graph, b: &Graph, iterations: usize) -> bool {
    a.n() == b.n()
        && a.num_edges() == b.num_edges()
        && wl_signature(a, iterations) == wl_signature(b, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, Permutation};
    use hap_rand::Rng;

    /// Nested-string refinement, the oracle the hashed colours must agree
    /// with: a round's colour is `(own|n1,n2,…)` over the sorted
    /// neighbour colours, round 0 is `l{label}`, and the histogram is the
    /// sorted `(string, count)` run-length encoding. Strings are
    /// injective, so equal strings mean equal colour trees.
    mod oracle {
        use crate::Graph;

        pub fn signature(g: &Graph, iterations: usize) -> Vec<(String, u32)> {
            let mut sigs: Vec<String> = match g.node_labels() {
                Some(l) => l.iter().map(|x| format!("l{x}")).collect(),
                None => vec!["l0".to_string(); g.n()],
            };
            for _ in 0..iterations {
                sigs = (0..g.n())
                    .map(|u| {
                        let mut neigh: Vec<&str> =
                            g.neighbors(u).iter().map(|&v| sigs[v].as_str()).collect();
                        neigh.sort_unstable();
                        format!("({}|{})", sigs[u], neigh.join(","))
                    })
                    .collect();
            }
            sigs.sort_unstable();
            let mut entries: Vec<(String, u32)> = Vec::new();
            for sig in sigs {
                match entries.last_mut() {
                    Some((last, count)) if *last == sig => *count += 1,
                    _ => entries.push((sig, 1)),
                }
            }
            entries
        }
    }

    /// Multiset L1 between two histograms sorted by colour id.
    fn id_l1(a: &[(u32, u32)], b: &[(u32, u32)]) -> u64 {
        let mut counts: std::collections::BTreeMap<u32, i64> = Default::default();
        for &(c, k) in a {
            *counts.entry(c).or_default() += k as i64;
        }
        for &(c, k) in b {
            *counts.entry(c).or_default() -= k as i64;
        }
        counts.values().map(|d| d.unsigned_abs()).sum()
    }

    /// A seeded mix of at least 300 graphs on 1..=64 nodes: sparse ER and
    /// BA graphs, cycles, stars and paths, labelled and unlabelled, each
    /// with two permuted copies and a one-edge edit, plus the regular
    /// pairs 1-WL cannot separate.
    fn oracle_corpus() -> Vec<Graph> {
        let mut rng = Rng::from_seed(2024);
        let mut out = Vec::new();
        for i in 0..80usize {
            let n = 1 + (i * 37) % 64;
            let mut g = match i % 5 {
                0 => generators::erdos_renyi(n, (2.5 / n as f64).min(1.0), &mut rng),
                1 => generators::barabasi_albert(n.max(2), 1 + i % 2, &mut rng),
                2 => generators::cycle(n),
                3 => generators::star(n),
                _ => generators::path(n),
            };
            if i % 2 == 1 {
                let labels = (0..g.n()).map(|_| rng.gen_range(0..3usize)).collect();
                g = g.with_node_labels(labels);
            }
            for _ in 0..2 {
                let p = Permutation::random(g.n(), &mut rng);
                out.push(p.apply_graph(&g));
            }
            // A one-edge edit of the same graph: a near miss at equal n.
            let mut edited = g.clone();
            let (u, v) = (rng.gen_range(0..g.n()), rng.gen_range(0..g.n()));
            if u != v {
                if edited.has_edge(u, v) {
                    edited.remove_edge(u, v);
                } else {
                    edited.add_edge(u, v);
                }
            }
            out.push(edited);
            out.push(g);
        }
        for k in [3usize, 4, 5] {
            // C_{2k} vs 2×C_k: 2-regular, 1-WL equivalent, not isomorphic.
            out.push(generators::cycle(2 * k));
            out.push(generators::cycle(k).disjoint_union(&generators::cycle(k)));
        }
        out
    }

    #[test]
    fn hashed_colours_split_graphs_exactly_like_the_string_oracle() {
        let graphs = oracle_corpus();
        assert!(graphs.len() >= 300, "{} graphs", graphs.len());
        for iterations in 0..=4 {
            // Intern oracle strings to ids so pairwise checks stay cheap.
            let mut ids: HashMap<String, u32> = HashMap::new();
            let oracle: Vec<Vec<(u32, u32)>> = graphs
                .iter()
                .map(|g| {
                    let mut h: Vec<(u32, u32)> = oracle::signature(g, iterations)
                        .into_iter()
                        .map(|(s, k)| {
                            let fresh = ids.len() as u32;
                            (*ids.entry(s).or_insert(fresh), k)
                        })
                        .collect();
                    h.sort_unstable();
                    h
                })
                .collect();
            let sigs: Vec<WlSignature> =
                graphs.iter().map(|g| wl_signature(g, iterations)).collect();
            let keys: Vec<u64> = graphs.iter().map(|g| wl_cache_key(g, iterations)).collect();
            for i in 0..graphs.len() {
                assert_eq!(
                    sigs[i].entries().len(),
                    oracle[i].len(),
                    "it={iterations} g{i}"
                );
                for j in i..graphs.len() {
                    let same = oracle[i] == oracle[j];
                    let same_key = same
                        && graphs[i].n() == graphs[j].n()
                        && graphs[i].num_edges() == graphs[j].num_edges();
                    assert_eq!(
                        sigs[i] == sigs[j],
                        same,
                        "it={iterations} pair ({i},{j}): signature equality"
                    );
                    assert_eq!(
                        keys[i] == keys[j],
                        same_key,
                        "it={iterations} pair ({i},{j}): key equality"
                    );
                    assert_eq!(
                        sigs[i].l1_distance(&sigs[j]),
                        id_l1(&oracle[i], &oracle[j]),
                        "it={iterations} pair ({i},{j}): l1 distance"
                    );
                }
            }
        }
    }

    #[test]
    fn refinement_distinguishes_degrees_after_one_round() {
        let g = generators::star(4); // hub degree 3, leaves degree 1
        let c = wl_colors(&g, 1);
        assert_ne!(c[0], c[1], "hub and leaf must differ");
        assert_eq!(c[1], c[2]);
        assert_eq!(c[2], c[3]);
    }

    #[test]
    fn colors_stabilise_on_vertex_transitive_graphs() {
        // every node of a cycle is equivalent: one colour forever
        let g = generators::cycle(6);
        for it in 0..4 {
            let c = wl_colors(&g, it);
            assert!(c.iter().all(|&x| x == c[0]), "iteration {it}: {c:?}");
        }
    }

    #[test]
    fn isomorphic_graphs_share_histograms() {
        let mut rng = Rng::from_seed(3);
        for _ in 0..5 {
            let g = generators::erdos_renyi(8, 0.4, &mut rng);
            let p = Permutation::random(8, &mut rng);
            let h = p.apply_graph(&g);
            assert!(wl_maybe_isomorphic(&g, &h, 3));
        }
    }

    #[test]
    fn wl_separates_cycle_from_two_triangles() {
        // C6 vs 2×C3 have equal degree sequences but different 2-WL-1
        // neighbourhood structure… actually 1-WL cannot separate these
        // two (both are 2-regular) — the classic counterexample. Verify
        // WL's *soundness* (returns maybe-isomorphic) and contrast with
        // an honestly distinguishable pair.
        let c6 = generators::cycle(6);
        let two_c3 = generators::cycle(3).disjoint_union(&generators::cycle(3));
        assert!(
            wl_maybe_isomorphic(&c6, &two_c3, 3),
            "1-WL is blind to regular graphs — this is expected"
        );
        // path vs star: same node and edge count, different degrees
        let p4 = generators::path(4);
        let s4 = generators::star(4);
        assert!(!wl_maybe_isomorphic(&p4, &s4, 1));
    }

    #[test]
    fn cache_key_is_invariant_under_node_permutation() {
        // The serving-cache soundness property: relabelling nodes must
        // never change the key (isomorphic graphs share an entry).
        let mut rng = Rng::from_seed(11);
        for trial in 0..10 {
            let n = 5 + trial % 7;
            let mut g = generators::erdos_renyi_connected(n, 0.4, &mut rng);
            if trial % 2 == 0 {
                // labelled graphs must be invariant too
                let labels = (0..n).map(|u| u % 3).collect();
                g = g.with_node_labels(labels);
            }
            let key = wl_cache_key(&g, 3);
            for _ in 0..4 {
                let p = Permutation::random(n, &mut rng);
                let h = p.apply_graph(&g);
                assert_eq!(
                    wl_cache_key(&h, 3),
                    key,
                    "trial {trial}: permutation changed the cache key"
                );
            }
        }
    }

    #[test]
    fn cache_key_changes_with_edges_and_labels() {
        let mut rng = Rng::from_seed(12);
        let g = generators::erdos_renyi_connected(8, 0.4, &mut rng);
        let key = wl_cache_key(&g, 3);

        // adding an edge changes the key
        let mut plus = g.clone();
        'outer: for u in 0..8 {
            for v in (u + 1)..8 {
                if !plus.has_edge(u, v) {
                    plus.add_edge(u, v);
                    break 'outer;
                }
            }
        }
        assert_ne!(wl_cache_key(&plus, 3), key, "edge insert must re-key");

        // removing an edge changes the key
        let mut minus = g.clone();
        let (u, v) = g.edges()[0];
        minus.remove_edge(u, v);
        assert_ne!(wl_cache_key(&minus, 3), key, "edge delete must re-key");

        // node labels (the discrete feature channel WL refines over)
        // change the key even on identical topology
        let labelled = g.clone().with_node_labels(vec![1; 8]);
        let relabelled = g.clone().with_node_labels({
            let mut l = vec![1; 8];
            l[0] = 2;
            l
        });
        assert_ne!(
            wl_cache_key(&labelled, 3),
            wl_cache_key(&relabelled, 3),
            "label change must re-key"
        );

        // a different node count trivially re-keys
        let bigger = g.disjoint_union(&crate::Graph::empty(1));
        assert_ne!(wl_cache_key(&bigger, 3), key);
    }

    #[test]
    fn cache_key_documents_wl_blindness() {
        // The documented collision case: 1-WL cannot separate 2-regular
        // graphs with equal counts, so C6 and 2×C3 share a key. The
        // serving cache treats this as an accepted approximation.
        let c6 = generators::cycle(6);
        let two_c3 = generators::cycle(3).disjoint_union(&generators::cycle(3));
        assert_eq!(wl_cache_key(&c6, 3), wl_cache_key(&two_c3, 3));
        // ...while an honestly distinguishable same-size pair separates.
        let p4 = generators::path(4);
        let s4 = generators::star(4);
        assert_ne!(wl_cache_key(&p4, 1), wl_cache_key(&s4, 1));
    }

    #[test]
    fn cache_key_is_a_pure_function_of_the_signature() {
        // The satellite contract: wl_cache_key must be derivable from the
        // histogram alone (plus the n/edge counts the histogram's caller
        // already has) — no hidden dependence on graph internals.
        let mut rng = Rng::from_seed(41);
        for trial in 0..8 {
            let n = 4 + trial % 6;
            let g = generators::erdos_renyi_connected(n, 0.4, &mut rng);
            let sig = wl_signature(&g, 3);
            assert_eq!(
                wl_cache_key(&g, 3),
                wl_cache_key_from_signature(&sig, g.n(), g.num_edges()),
                "trial {trial}"
            );
            // Equal signatures (same n, m) imply equal keys: the classic
            // 1-WL-blind pair shares a signature and therefore a key.
        }
        let c6 = generators::cycle(6);
        let two_c3 = generators::cycle(3).disjoint_union(&generators::cycle(3));
        let (s1, s2) = (wl_signature(&c6, 3), wl_signature(&two_c3, 3));
        assert_eq!(s1, s2, "1-WL cannot separate 2-regular graphs");
        assert_eq!(
            wl_cache_key_from_signature(&s1, 6, 6),
            wl_cache_key_from_signature(&s2, 6, 6)
        );
    }

    #[test]
    fn signature_matches_legacy_serialisation_and_counts_nodes() {
        let mut rng = Rng::from_seed(42);
        let g = generators::erdos_renyi_connected(9, 0.35, &mut rng);
        let sig = wl_signature(&g, 3);
        assert_eq!(sig.total(), 9);
        // One entry per oracle colour string, with the same multiplicities.
        let legacy = oracle::signature(&g, 3);
        let mut counts: Vec<u32> = sig.entries().iter().map(|&(_, k)| k).collect();
        let mut legacy_counts: Vec<u32> = legacy.iter().map(|&(_, k)| k).collect();
        counts.sort_unstable();
        legacy_counts.sort_unstable();
        assert_eq!(counts, legacy_counts);
        // Entries are sorted and deduplicated.
        for w in sig.entries().windows(2) {
            assert!(w[0].0 < w[1].0, "entries must be strictly sorted");
        }
    }

    #[test]
    fn l1_distance_is_a_metric_on_histograms() {
        let p = generators::path(5);
        let s = generators::star(5);
        let c = generators::cycle(5);
        let (sp, ss, sc) = (
            wl_signature(&p, 2),
            wl_signature(&s, 2),
            wl_signature(&c, 2),
        );
        assert_eq!(sp.l1_distance(&sp), 0, "identity");
        assert_eq!(sp.l1_distance(&ss), ss.l1_distance(&sp), "symmetry");
        assert!(sp.l1_distance(&ss) > 0);
        // Triangle inequality on this triple.
        assert!(sp.l1_distance(&sc) <= sp.l1_distance(&ss) + ss.l1_distance(&sc));
        // Disjoint histograms: distance is the total node count of both.
        let labelled = crate::Graph::from_edges(2, &[(0, 1)]).with_node_labels(vec![7, 7]);
        let sl = wl_signature(&labelled, 0);
        assert_eq!(sp.l1_distance(&sl), sp.total() + sl.total());
    }

    #[test]
    fn wl_state_refresh_matches_full_rebuild_over_random_flips() {
        // An edit drops the graph's cached signature: after every flip on
        // a warm graph, the cached signature is a fresh refinement.
        let mut rng = Rng::from_seed(77);
        for iterations in [0usize, 1, 2, 3, 4] {
            let mut g = generators::erdos_renyi_connected(14, 0.25, &mut rng);
            let _ = g.wl_signature_cached(iterations);
            for step in 0..40 {
                let u = rng.gen_range(0..14usize);
                let v = rng.gen_range(0..14usize);
                if u == v {
                    continue;
                }
                if g.has_edge(u, v) {
                    g.remove_edge(u, v);
                } else {
                    g.add_edge(u, v);
                }
                assert_eq!(
                    *g.wl_signature_cached(iterations),
                    wl_signature(&g, iterations),
                    "it={iterations} step={step}: cached signature is stale"
                );
            }
        }
    }

    #[test]
    fn wl_state_takes_both_incremental_and_fallback_paths() {
        // A flip at the end of a long path changes few colours; a hub
        // flip on a star changes every node's. Either way the cached
        // signature after the edit equals a fresh one.
        let mut p = generators::path(30);
        let _ = p.wl_signature_cached(3);
        p.remove_edge(0, 1);
        assert_eq!(*p.wl_signature_cached(3), wl_signature(&p, 3));

        let mut s = generators::star(12);
        let _ = s.wl_signature_cached(3);
        s.remove_edge(0, 5);
        assert_eq!(*s.wl_signature_cached(3), wl_signature(&s, 3));
    }

    #[test]
    fn labels_seed_the_refinement() {
        let a = crate::Graph::from_edges(2, &[(0, 1)]).with_node_labels(vec![0, 0]);
        let b = crate::Graph::from_edges(2, &[(0, 1)]).with_node_labels(vec![0, 1]);
        assert!(!wl_maybe_isomorphic(&a, &b, 0));
    }
}
