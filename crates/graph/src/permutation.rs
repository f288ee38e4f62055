//! Node permutations — the machinery behind the Claim-2
//! permutation-invariance tests (`f(A, X) = f(PAPᵀ, PX)`).

use crate::Graph;
use hap_rand::Rng;
use hap_rand::SliceRandom;
use hap_tensor::Tensor;

/// A bijection on `0..n`, stored as `map[i] = image of i`.
///
/// Applying a permutation to a graph relabels node `i` to `map[i]`,
/// which corresponds to `A → P A Pᵀ` and `X → P X` with the 0/1
/// permutation matrix of Definition 5.1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    map: Vec<usize>,
}

impl Permutation {
    /// The identity permutation on `n` elements.
    pub fn identity(n: usize) -> Self {
        Self {
            map: (0..n).collect(),
        }
    }

    /// Builds a permutation from an explicit image vector.
    ///
    /// # Panics
    /// Panics when `map` is not a bijection on `0..map.len()`.
    pub fn from_vec(map: Vec<usize>) -> Self {
        let n = map.len();
        let mut seen = vec![false; n];
        for &i in &map {
            assert!(i < n, "permutation image {i} out of range for n={n}");
            assert!(!seen[i], "permutation image {i} repeated");
            seen[i] = true;
        }
        Self { map }
    }

    /// A uniformly random permutation (Fisher–Yates via `shuffle`).
    pub fn random(n: usize, rng: &mut Rng) -> Self {
        let mut map: Vec<usize> = (0..n).collect();
        map.shuffle(rng);
        Self { map }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether this permutes zero elements.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Image of `i`.
    #[inline]
    pub fn apply(&self, i: usize) -> usize {
        self.map[i]
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Self {
        let mut inv = vec![0; self.map.len()];
        for (i, &j) in self.map.iter().enumerate() {
            inv[j] = i;
        }
        Self { map: inv }
    }

    /// The dense permutation matrix `P` with `P[map[i], i] = 1`
    /// (Definition 5.1), so `P·x` moves entry `i` of `x` to `map[i]`.
    pub fn matrix(&self) -> Tensor {
        let n = self.map.len();
        let mut p = Tensor::zeros(n, n);
        for (i, &j) in self.map.iter().enumerate() {
            p[(j, i)] = 1.0;
        }
        p
    }

    /// Applies the permutation to a graph: node `i` becomes `map[i]`,
    /// i.e. `A → P A Pᵀ`, labels are carried along.
    ///
    /// # Panics
    /// Panics when sizes differ.
    pub fn apply_graph(&self, g: &Graph) -> Graph {
        assert_eq!(self.len(), g.n(), "permutation size must match graph size");
        let n = g.n();
        let mut rows = vec![Vec::new(); n];
        for u in 0..n {
            let mut image: Vec<(usize, f64)> =
                g.row(u).iter().map(|&(v, w)| (self.map[v], w)).collect();
            image.sort_unstable_by_key(|e| e.0);
            rows[self.map[u]] = image;
        }
        let mut out = Graph::from_rows(rows, None);
        if let Some(labels) = g.node_labels() {
            let mut new_labels = vec![0; n];
            for (i, &l) in labels.iter().enumerate() {
                new_labels[self.map[i]] = l;
            }
            out = out.with_node_labels(new_labels);
        }
        out
    }

    /// Applies the permutation to the rows of a feature matrix (`X → P X`).
    ///
    /// # Panics
    /// Panics when the row count differs from the permutation size.
    pub fn apply_rows(&self, x: &Tensor) -> Tensor {
        assert_eq!(
            self.len(),
            x.rows(),
            "permutation size must match row count"
        );
        let mut out = Tensor::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            out.row_mut(self.map[r]).copy_from_slice(x.row(r));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_rand::Rng;
    use hap_tensor::testutil::assert_close;

    #[test]
    fn identity_is_noop() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let p = Permutation::identity(3);
        assert_eq!(p.apply_graph(&g), g);
    }

    #[test]
    fn from_vec_validates() {
        assert!(std::panic::catch_unwind(|| Permutation::from_vec(vec![0, 0])).is_err());
        assert!(std::panic::catch_unwind(|| Permutation::from_vec(vec![0, 2])).is_err());
        let p = Permutation::from_vec(vec![1, 0]);
        assert_eq!(p.apply(0), 1);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let mut rng = Rng::from_seed(11);
        let p = Permutation::random(7, &mut rng);
        let inv = p.inverse();
        for i in 0..7 {
            assert_eq!(inv.apply(p.apply(i)), i);
        }
    }

    #[test]
    fn matrix_agrees_with_apply_rows() {
        let mut rng = Rng::from_seed(3);
        let p = Permutation::random(5, &mut rng);
        let x = Tensor::rand_uniform(5, 3, -1.0, 1.0, &mut rng);
        let via_matrix = p.matrix().matmul(&x);
        assert_close(&via_matrix, &p.apply_rows(&x), 1e-12);
    }

    #[test]
    fn graph_permutation_matches_matrix_conjugation() {
        let mut rng = Rng::from_seed(5);
        let g = crate::generators::erdos_renyi(6, 0.5, &mut rng);
        let p = Permutation::random(6, &mut rng);
        let pm = p.matrix();
        let conj = pm.matmul(&g.dense_adjacency()).matmul_nt(&pm);
        assert_close(&p.apply_graph(&g).dense_adjacency(), &conj, 1e-12);
    }

    #[test]
    fn permutation_preserves_degree_multiset() {
        let mut rng = Rng::from_seed(9);
        let g = crate::generators::erdos_renyi(8, 0.4, &mut rng);
        let p = Permutation::random(8, &mut rng);
        let h = p.apply_graph(&g);
        let mut dg: Vec<usize> = (0..8).map(|u| g.degree_count(u)).collect();
        let mut dh: Vec<usize> = (0..8).map(|u| h.degree_count(u)).collect();
        dg.sort_unstable();
        dh.sort_unstable();
        assert_eq!(dg, dh);
    }

    #[test]
    fn labels_travel_with_nodes() {
        let g = Graph::from_edges(3, &[(0, 1)]).with_node_labels(vec![7, 8, 9]);
        let p = Permutation::from_vec(vec![2, 0, 1]);
        let h = p.apply_graph(&g);
        // node 0 (label 7) became node 2
        assert_eq!(h.node_label(2), Some(7));
        assert_eq!(h.node_label(0), Some(8));
    }
}
