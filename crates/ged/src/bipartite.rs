//! Riesen–Bunke bipartite GED approximation (the `Hungarian` and `VJ`
//! baselines of Fig. 5).

use crate::assignment::{hungarian, lapjv, FORBIDDEN};
use crate::{induced_edit_cost, node_labels_differ, EditCosts};
use hap_graph::Graph;

/// Which LSAP solver grounds the approximation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BipartiteSolver {
    /// Kuhn–Munkres (Riesen & Bunke 2009).
    Hungarian,
    /// Jonker–Volgenant shortest augmenting path (Fankhauser, Riesen &
    /// Bunke 2011 — the paper's "VJ").
    Vj,
}

/// Builds the `(n₁+n₂)×(n₁+n₂)` Riesen–Bunke cost matrix:
///
/// ```text
/// ┌──────────────┬──────────────┐
/// │ substitution │   deletion   │   C[i][j]        = c(uᵢ → vⱼ)
/// │   (n₁×n₂)    │ (diag, n₁×n₁)│   C[i][n₂+i]     = c(uᵢ → ε)
/// ├──────────────┼──────────────┤
/// │  insertion   │     zero     │   C[n₁+j][j]     = c(ε → vⱼ)
/// │ (diag, n₂×n₂)│   (n₂×n₁)    │   C[n₁+j][n₂+i]  = 0
/// └──────────────┴──────────────┘
/// ```
///
/// Substitution entries estimate the local edge impact by the degree
/// difference (the cost of optimally matching the unlabelled incident
/// edge sets); deletion/insertion entries charge the node plus all its
/// incident edges.
fn cost_matrix(g1: &Graph, g2: &Graph, costs: &EditCosts) -> Vec<Vec<f64>> {
    let (n1, n2) = (g1.n(), g2.n());
    let dim = n1 + n2;
    let mut c = vec![vec![FORBIDDEN; dim]; dim];

    for (i, row) in c.iter_mut().enumerate().take(n1) {
        for (j, cell) in row.iter_mut().enumerate().take(n2) {
            let node = if node_labels_differ(g1, i, g2, j) {
                costs.node_subst
            } else {
                0.0
            };
            let (d1, d2) = (g1.degree_count(i), g2.degree_count(j));
            let edge = if d1 > d2 {
                (d1 - d2) as f64 * costs.edge_del
            } else {
                (d2 - d1) as f64 * costs.edge_ins
            };
            // Incident edges are shared between two endpoints; halving
            // avoids double-charging (standard refinement).
            *cell = node + 0.5 * edge;
        }
    }
    for i in 0..n1 {
        c[i][n2 + i] = costs.node_del + 0.5 * g1.degree_count(i) as f64 * costs.edge_del;
    }
    for j in 0..n2 {
        c[n1 + j][j] = costs.node_ins + 0.5 * g2.degree_count(j) as f64 * costs.edge_ins;
    }
    for j in 0..n2 {
        for i in 0..n1 {
            c[n1 + j][n2 + i] = 0.0;
        }
    }
    c
}

/// Approximate GED via linear sum assignment on the Riesen–Bunke cost
/// matrix. The optimal assignment induces a complete node mapping whose
/// true edit cost ([`induced_edit_cost`]) is returned — a valid **upper
/// bound** on the exact GED.
pub fn bipartite_ged(g1: &Graph, g2: &Graph, solver: BipartiteSolver, costs: &EditCosts) -> f64 {
    let (n1, n2) = (g1.n(), g2.n());
    if n1 == 0 && n2 == 0 {
        return 0.0;
    }
    let c = cost_matrix(g1, g2, costs);
    let (assignment, _lsap_cost) = match solver {
        BipartiteSolver::Hungarian => hungarian(&c),
        BipartiteSolver::Vj => lapjv(&c),
    };
    // rows 0..n1 are g1 nodes; columns < n2 are substitutions, ≥ n2 are
    // deletions.
    let mapping: Vec<Option<usize>> = (0..n1)
        .map(|i| {
            let j = assignment[i];
            (j < n2).then_some(j)
        })
        .collect();
    induced_edit_cost(g1, g2, &mapping, costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_ged;
    use hap_graph::{generators, Permutation};
    use hap_rand::Rng;

    fn uniform() -> EditCosts {
        EditCosts::uniform()
    }

    #[test]
    fn identical_stars_score_zero() {
        // On a star any degree-respecting assignment is an automorphism,
        // so the approximation is guaranteed to find the zero-cost
        // mapping. (On graphs with degree-tied non-equivalent nodes the
        // bipartite method may legitimately return a positive value even
        // for isomorphic inputs — it is an upper bound, not exact.)
        let g = generators::star(6);
        for solver in [BipartiteSolver::Hungarian, BipartiteSolver::Vj] {
            assert_eq!(bipartite_ged(&g, &g, solver, &uniform()), 0.0);
        }
    }

    #[test]
    fn isomorphic_stars_score_zero() {
        let mut rng = Rng::from_seed(1);
        let g = generators::star(7);
        let p = Permutation::random(7, &mut rng);
        let h = p.apply_graph(&g);
        for solver in [BipartiteSolver::Hungarian, BipartiteSolver::Vj] {
            assert_eq!(bipartite_ged(&g, &h, solver, &uniform()), 0.0);
        }
    }

    #[test]
    fn upper_bounds_exact_ged() {
        let mut rng = Rng::from_seed(2);
        for trial in 0..12 {
            let g1 = generators::erdos_renyi(6, 0.4, &mut rng);
            let g2 = generators::erdos_renyi(6, 0.5, &mut rng);
            let exact = exact_ged(&g1, &g2, &uniform());
            for solver in [BipartiteSolver::Hungarian, BipartiteSolver::Vj] {
                let approx = bipartite_ged(&g1, &g2, solver, &uniform());
                assert!(
                    approx >= exact - 1e-9,
                    "trial {trial} {solver:?}: approx {approx} < exact {exact}"
                );
            }
        }
    }

    #[test]
    fn approximation_is_usually_tight_on_small_graphs() {
        let mut rng = Rng::from_seed(3);
        let mut close = 0;
        let trials = 20;
        for _ in 0..trials {
            let g1 = generators::erdos_renyi(5, 0.4, &mut rng);
            let g2 = generators::erdos_renyi(5, 0.4, &mut rng);
            let exact = exact_ged(&g1, &g2, &uniform());
            let approx = bipartite_ged(&g1, &g2, BipartiteSolver::Hungarian, &uniform());
            if approx - exact <= 2.0 {
                close += 1;
            }
        }
        assert!(
            close >= trials * 3 / 4,
            "only {close}/{trials} within 2 of exact"
        );
    }

    #[test]
    fn handles_size_mismatch_and_empty() {
        let g1 = generators::path(3);
        let g2 = hap_graph::Graph::empty(0);
        for solver in [BipartiteSolver::Hungarian, BipartiteSolver::Vj] {
            assert_eq!(bipartite_ged(&g1, &g2, solver, &uniform()), 5.0);
            assert_eq!(bipartite_ged(&g2, &g1, solver, &uniform()), 5.0);
            assert_eq!(bipartite_ged(&g2, &g2, solver, &uniform()), 0.0);
        }
    }

    #[test]
    fn labelled_substitution_costs_respected() {
        let g1 = hap_graph::Graph::empty(2).with_node_labels(vec![0, 1]);
        let g2 = hap_graph::Graph::empty(2).with_node_labels(vec![1, 0]);
        // swapping the assignment makes this free
        assert_eq!(
            bipartite_ged(&g1, &g2, BipartiteSolver::Hungarian, &uniform()),
            0.0
        );
    }
}
