//! The synthetic graph-matching corpus of Sec. 6.1.1.
//!
//! "a collection of labeled graph pairs (G₁, G₂) with edge probability
//! p ∈ [0.2, 0.5] generated by the VF2 graph matching library. Given a
//! graph G, a positive sample is the maximum connected subgraph randomly
//! extracted with 1 to 3 nodes less than G. And a negative sample is
//! created by randomly adding 3 to 7 nodes with the same edge
//! probability."

use hap_graph::{degree_one_hot, generators, is_connected, Graph};
use hap_rand::Rng;
use hap_tensor::Tensor;

/// Degree-one-hot width; shared between all graph sizes so a model
/// trained on 20-node graphs accepts 200-node graphs (the Table 7
/// generalization scenario requires "the same form of features").
const DEGREE_DIM: usize = 16;

/// One labelled matching pair.
pub struct MatchingPair {
    /// Reference graph `G₁`.
    pub g1: Graph,
    /// Features of `G₁`.
    pub x1: Tensor,
    /// Candidate graph `G₂`.
    pub g2: Graph,
    /// Features of `G₂`.
    pub x2: Tensor,
    /// 1.0 for matching (subgraph-extracted), 0.0 for non-matching.
    pub label: f64,
}

/// Removes `k` random nodes while keeping the graph connected (each step
/// removes a uniformly chosen non-cut vertex), yielding the paper's
/// "maximum connected subgraph with 1 to 3 nodes less".
fn connected_subgraph(g: &Graph, k: usize, rng: &mut Rng) -> Graph {
    let mut current = g.clone();
    for _ in 0..k {
        if current.n() <= 2 {
            break;
        }
        // candidate removals that keep the remainder connected
        let keepable: Vec<usize> = (0..current.n())
            .filter(|&u| {
                let keep: Vec<usize> = (0..current.n()).filter(|&v| v != u).collect();
                is_connected(&current.induced_subgraph(&keep))
            })
            .collect();
        if keepable.is_empty() {
            break;
        }
        let u = keepable[rng.gen_range(0..keepable.len())];
        let keep: Vec<usize> = (0..current.n()).filter(|&v| v != u).collect();
        current = current.induced_subgraph(&keep);
    }
    current
}

/// Adds `k` new nodes, each wired to existing nodes with probability `p`
/// (at least one edge so the result stays connected).
fn grow(g: &Graph, k: usize, p: f64, rng: &mut Rng) -> Graph {
    let n0 = g.n();
    // `g` plus `k` isolated nodes, then wired in below.
    let mut out = g.disjoint_union(&Graph::empty(k));
    for new in n0..n0 + k {
        let mut connected = false;
        for v in 0..new {
            if rng.gen_bool(p) {
                out.add_edge(new, v);
                connected = true;
            }
        }
        if !connected {
            out.add_edge(new, rng.gen_range(0..new));
        }
    }
    out
}

/// Generates `count` labelled pairs over base graphs of `n_nodes` nodes
/// (alternating positive/negative, so the corpus is balanced).
pub fn matching_corpus(count: usize, n_nodes: usize, rng: &mut Rng) -> Vec<MatchingPair> {
    assert!(n_nodes >= 5, "base graphs need at least 5 nodes");
    (0..count)
        .map(|i| {
            let p = rng.gen_range(0.2..0.5);
            let g1 = generators::erdos_renyi_connected(n_nodes, p, rng);
            let positive = i % 2 == 0;
            let g2 = if positive {
                let k = rng.gen_range(1..=3);
                connected_subgraph(&g1, k, rng)
            } else {
                let k = rng.gen_range(3..=7);
                grow(&g1, k, p, rng)
            };
            let x1 = degree_one_hot(&g1, DEGREE_DIM);
            let x2 = degree_one_hot(&g2, DEGREE_DIM);
            MatchingPair {
                g1,
                x1,
                g2,
                x2,
                label: if positive { 1.0 } else { 0.0 },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_match::Vf2;
    use hap_rand::Rng;

    #[test]
    fn corpus_is_balanced_with_correct_sizes() {
        let mut rng = Rng::from_seed(1);
        let pairs = matching_corpus(20, 20, &mut rng);
        let positives = pairs.iter().filter(|p| p.label == 1.0).count();
        assert_eq!(positives, 10);
        for p in &pairs {
            assert_eq!(p.g1.n(), 20);
            if p.label == 1.0 {
                assert!(
                    p.g2.n() >= 17 && p.g2.n() < 20,
                    "positive size {}",
                    p.g2.n()
                );
            } else {
                assert!(
                    p.g2.n() >= 23 && p.g2.n() <= 27,
                    "negative size {}",
                    p.g2.n()
                );
            }
            assert!(is_connected(&p.g2));
            assert_eq!(p.x1.cols(), DEGREE_DIM);
        }
    }

    #[test]
    fn positive_pairs_are_vf2_subgraph_isomorphic() {
        // The defining property of the construction: a positive candidate
        // embeds into the reference as an induced subgraph.
        let mut rng = Rng::from_seed(2);
        let pairs = matching_corpus(6, 12, &mut rng);
        for p in pairs.iter().filter(|p| p.label == 1.0) {
            assert!(
                Vf2::subgraph(&p.g2, &p.g1).exists(),
                "positive pair not subgraph-isomorphic"
            );
        }
    }

    #[test]
    fn negative_pairs_differ_in_node_count() {
        let mut rng = Rng::from_seed(3);
        let pairs = matching_corpus(6, 12, &mut rng);
        for p in pairs.iter().filter(|p| p.label == 0.0) {
            assert!(p.g2.n() > p.g1.n());
        }
    }
}
