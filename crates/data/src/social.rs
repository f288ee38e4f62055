//! Social-network dataset simulators: IMDB-B, IMDB-M, COLLAB.
//!
//! The real datasets are actor/author ego networks; classes correlate
//! with community structure (an actor working in one vs. several genres,
//! a researcher's collaboration style). The simulators plant exactly that
//! signal: dense communities bridged at an ego node. Features are degree
//! one-hots (Sec. 6.1.3: "For social network datasets IMDB and COLLAB
//! with no informative node features, we use one-hot encoding of node
//! degrees").

use crate::{ClassificationDataset, GraphSample};
use hap_graph::{degree_one_hot, generators, Graph};
use hap_rand::Rng;

/// Degree-one-hot width shared by the social simulators; degrees are
/// bucketed at `DEGREE_DIM - 1` so any graph size is encodable.
const DEGREE_DIM: usize = 16;

/// An ego network with `communities` dense groups, each of `sizes[i]`
/// members with internal edge probability `p_in`; node 0 is the ego,
/// connected to every member; communities are otherwise disjoint. The
/// retrieval corpus's community family draws from it too.
pub(crate) fn ego_communities(sizes: &[usize], p_in: f64, rng: &mut Rng) -> Graph {
    let total: usize = 1 + sizes.iter().sum::<usize>();
    let mut edges = Vec::new();
    let mut base = 1;
    for &size in sizes {
        for u in base..base + size {
            edges.push((0, u));
            for v in (u + 1)..base + size {
                if rng.gen_bool(p_in) {
                    edges.push((u, v));
                }
            }
        }
        base += size;
    }
    Graph::from_edges(total, &edges)
}

fn community_dataset(
    name: &str,
    num_graphs: usize,
    class_communities: &[usize],
    avg_members: usize,
    rng: &mut Rng,
) -> ClassificationDataset {
    let num_classes = class_communities.len();
    let mut samples = Vec::with_capacity(num_graphs);
    for i in 0..num_graphs {
        let label = i % num_classes;
        let communities = class_communities[label];
        let sizes: Vec<usize> = (0..communities)
            .map(|_| {
                let lo = (avg_members / 2).max(2);
                let hi = avg_members + avg_members / 2;
                rng.gen_range(lo..=hi)
            })
            .collect();
        let p_in = rng.gen_range(0.6..0.9);
        let graph = ego_communities(&sizes, p_in, rng);
        let features = degree_one_hot(&graph, DEGREE_DIM);
        samples.push(GraphSample {
            graph,
            features,
            label,
        });
    }
    ClassificationDataset {
        name: name.into(),
        samples,
        num_classes,
        feature_dim: DEGREE_DIM,
    }
}

/// IMDB-B-like: 2 classes — single-genre egos (1 community) vs
/// two-genre egos (2 communities). Paper stats: 1000 graphs, avg 19.8
/// nodes.
pub fn imdb_b(num_graphs: usize, rng: &mut Rng) -> ClassificationDataset {
    community_dataset("IMDB-B", num_graphs, &[1, 2], 9, rng)
}

/// IMDB-M-like: 3 classes — 1, 2 or 3 communities. Paper stats: 1500
/// graphs, avg 13.0 nodes.
pub fn imdb_m(num_graphs: usize, rng: &mut Rng) -> ClassificationDataset {
    community_dataset("IMDB-M", num_graphs, &[1, 2, 3], 5, rng)
}

/// COLLAB-like: 3 classes of collaboration *style* rather than community
/// count — dense clique-like (High-Energy), hub-dominated preferential
/// attachment (Astro), and loosely-coupled multi-group (Condensed
/// Matter). Paper stats: 5000 graphs, avg 74 nodes; `scale` shrinks node
/// counts for quick runs (1.0 ≈ paper sizes).
pub fn collab(num_graphs: usize, scale: f64, rng: &mut Rng) -> ClassificationDataset {
    assert!(scale > 0.0, "scale must be positive");
    let mut samples = Vec::with_capacity(num_graphs);
    for i in 0..num_graphs {
        let label = i % 3;
        let n = ((rng.gen_range(40.0..110.0) * scale) as usize).max(8);
        let graph = match label {
            0 => generators::erdos_renyi_connected(n, 0.35, rng),
            1 => generators::barabasi_albert(n, 2, rng),
            _ => {
                let k = rng.gen_range(2..=3);
                let sizes: Vec<usize> = (0..k).map(|_| (n - 1) / k).collect();
                ego_communities(&sizes, 0.5, rng)
            }
        };
        let features = degree_one_hot(&graph, DEGREE_DIM);
        samples.push(GraphSample {
            graph,
            features,
            label,
        });
    }
    ClassificationDataset {
        name: "COLLAB".into(),
        samples,
        num_classes: 3,
        feature_dim: DEGREE_DIM,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_graph::is_connected;
    use hap_rand::Rng;

    #[test]
    fn imdb_b_shape_and_balance() {
        let mut rng = Rng::from_seed(1);
        let ds = imdb_b(40, &mut rng);
        assert_eq!(ds.samples.len(), 40);
        assert_eq!(ds.num_classes, 2);
        assert_eq!(ds.class_counts(), vec![20, 20]);
        for s in &ds.samples {
            assert!(is_connected(&s.graph), "ego networks are connected");
            assert_eq!(s.features.rows(), s.graph.n());
            assert_eq!(s.features.cols(), DEGREE_DIM);
        }
    }

    #[test]
    fn imdb_m_has_three_balanced_classes() {
        let mut rng = Rng::from_seed(2);
        let ds = imdb_m(30, &mut rng);
        assert_eq!(ds.num_classes, 3);
        assert_eq!(ds.class_counts(), vec![10, 10, 10]);
    }

    #[test]
    fn class_signal_is_structural() {
        // 2-community graphs should be systematically larger and less
        // dense around the ego than 1-community graphs — the signal a
        // hierarchical pooler can pick up.
        let mut rng = Rng::from_seed(3);
        let ds = imdb_b(60, &mut rng);
        let avg_n = |label: usize| {
            let v: Vec<f64> = ds
                .samples
                .iter()
                .filter(|s| s.label == label)
                .map(|s| s.graph.n() as f64)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(avg_n(1) > avg_n(0), "2-community egos should be larger");
    }

    #[test]
    fn collab_styles_differ_structurally() {
        let mut rng = Rng::from_seed(4);
        let ds = collab(30, 0.3, &mut rng);
        assert_eq!(ds.num_classes, 3);
        // BA graphs (class 1) should have the highest max degree on
        // average (hub-dominated).
        let avg_max_deg = |label: usize| {
            let v: Vec<f64> = ds
                .samples
                .iter()
                .filter(|s| s.label == label)
                .map(|s| s.graph.max_degree() as f64)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        // ego-communities (class 2) hubs everything through the ego, so
        // compare BA against the ER class only.
        assert!(
            avg_max_deg(1) > avg_max_deg(0) * 0.5,
            "BA collaboration graphs should show hubs"
        );
    }

    #[test]
    fn determinism_under_seed() {
        let ds1 = imdb_b(10, &mut Rng::from_seed(7));
        let ds2 = imdb_b(10, &mut Rng::from_seed(7));
        for (a, b) in ds1.samples.iter().zip(&ds2.samples) {
            assert_eq!(a.graph, b.graph);
            assert_eq!(a.label, b.label);
        }
    }
}
