//! Retrieval corpus: a seeded, *stateless* collection of synthetic graphs
//! for corpus-scale top-k similarity search (ROADMAP item 4).
//!
//! At 100k graphs, materialising every `Graph` is prohibitive — the dense
//! adjacency cache alone is ~3 KB per 20-node graph. Instead the corpus
//! stores only `(seed, len)` and regenerates `graph(i)` on demand as a
//! pure function of `(seed, i)`: a fresh [`Rng`] is forked per index with
//! a label derived from `i`, so any subset of graphs can be produced in
//! any order (or in parallel) and is byte-identical across runs. The
//! retrieval index keeps embeddings + summary stats; when the exact-GED
//! rerank stage needs the shortlist's actual graphs, it regenerates just
//! those.
//!
//! Graphs are unlabelled (degree one-hot features, like the social
//! simulators) and mix four families so the corpus has both
//! community-structured and degree-skewed neighbourhoods:
//! ego-communities, connected Erdős–Rényi, Barabási–Albert, and chorded
//! cycles.

use crate::social::ego_communities;
use hap_graph::{degree_one_hot, generators, Graph};
use hap_rand::Rng;
use hap_tensor::{Scalar, Tensor};

/// Degree-one-hot feature width for corpus graphs (matches the social
/// simulators' `DEGREE_DIM`).
pub const CORPUS_FEATURE_DIM: usize = 16;

/// A virtual corpus of `len` seeded synthetic graphs. Holds no graph
/// storage: [`RetrievalCorpus::graph`] regenerates index `i` on demand.
#[derive(Clone, Copy, Debug)]
pub struct RetrievalCorpus {
    seed: u64,
    len: usize,
}

impl RetrievalCorpus {
    pub fn new(seed: u64, len: usize) -> Self {
        Self { seed, len }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Regenerates graph `i` — a pure function of `(self.seed, i)`,
    /// independent of call order and of every other index.
    ///
    /// # Panics
    /// Panics when `i >= len`.
    pub fn graph(&self, i: usize) -> Graph {
        assert!(i < self.len, "corpus index {i} out of range ({})", self.len);
        // `Rng::from_seed(seed)` always emits the same stream, so the
        // labelled fork below depends only on (seed, i) — no shared
        // mutable RNG state between indices.
        let mut rng = Rng::from_seed(self.seed).fork(&format!("retrieval-corpus/{i}"));
        match i % 4 {
            0 => {
                // Ego-communities: 1–3 dense groups hanging off a hub.
                let communities = rng.gen_range(1..=3usize);
                let sizes: Vec<usize> = (0..communities)
                    .map(|_| rng.gen_range(3..=7usize))
                    .collect();
                let p_in = rng.gen_range(0.5..0.85);
                ego_communities(&sizes, p_in, &mut rng)
            }
            1 => {
                let n = rng.gen_range(6..=24usize);
                let p = rng.gen_range(0.2..0.5);
                generators::erdos_renyi_connected(n, p, &mut rng)
            }
            2 => {
                let n = rng.gen_range(6..=24usize);
                let m = rng.gen_range(1..=3usize);
                generators::barabasi_albert(n, m, &mut rng)
            }
            _ => {
                // Chorded cycle: a ring plus a few random shortcuts.
                let n = rng.gen_range(6..=24usize);
                let mut edges = generators::cycle(n).edges();
                let chords = rng.gen_range(1..=n / 3);
                for _ in 0..chords {
                    let u = rng.gen_range(0..n);
                    let v = rng.gen_range(0..n);
                    if u != v {
                        edges.push((u, v));
                    }
                }
                Graph::from_edges(n, &edges)
            }
        }
    }

    /// Degree-one-hot features for a corpus graph, width
    /// [`CORPUS_FEATURE_DIM`], cast to the requested scalar.
    pub fn features<T: Scalar>(&self, g: &Graph) -> Tensor<T> {
        degree_one_hot(g, CORPUS_FEATURE_DIM).cast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regeneration_is_stateless_and_order_independent() {
        let corpus = RetrievalCorpus::new(7, 64);
        // Forward order vs reverse order vs repeated single-index access
        // all produce the same graphs.
        let forward: Vec<Graph> = (0..corpus.len()).map(|i| corpus.graph(i)).collect();
        for i in (0..corpus.len()).rev() {
            let g = corpus.graph(i);
            assert_eq!(g.n(), forward[i].n(), "index {i}");
            assert_eq!(g.edges(), forward[i].edges(), "index {i}");
        }
        let again = corpus.graph(13);
        assert_eq!(again.edges(), forward[13].edges());
    }

    #[test]
    fn different_seeds_differ_and_graphs_are_nonempty() {
        let a = RetrievalCorpus::new(1, 32);
        let b = RetrievalCorpus::new(2, 32);
        let mut any_diff = false;
        for i in 0..32 {
            let (ga, gb) = (a.graph(i), b.graph(i));
            assert!(ga.n() >= 4, "index {i} too small: {}", ga.n());
            assert!(ga.num_edges() > 0, "index {i} has no edges");
            if ga.edges() != gb.edges() {
                any_diff = true;
            }
        }
        assert!(any_diff, "seeds 1 and 2 produced identical corpora");
    }

    #[test]
    fn features_cover_every_node() {
        let corpus = RetrievalCorpus::new(3, 8);
        for i in 0..8 {
            let g = corpus.graph(i);
            let f: Tensor<f64> = corpus.features(&g);
            assert_eq!(f.shape(), (g.n(), CORPUS_FEATURE_DIM));
            // Each row is a one-hot: sums to exactly 1.
            for u in 0..g.n() {
                let row_sum: f64 = f.row(u).iter().sum();
                assert_eq!(row_sum, 1.0, "graph {i} node {u}");
            }
        }
    }
}
