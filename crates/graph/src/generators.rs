//! Random and deterministic graph generators.
//!
//! These stand in for the unavailable benchmark datasets (see DESIGN.md's
//! substitution table): Erdős–Rényi graphs drive the paper's own synthetic
//! matching corpus (Sec. 6.1.1, edge probability `p ∈ [0.2, 0.5]`), while
//! cliques/cycles/stars/planted motifs are the building blocks of the
//! dataset simulators in `hap-data`.

use crate::{algorithms::is_connected, Graph};
use hap_rand::Rng;

/// Erdős–Rényi `G(n, p)`: each of the `n(n-1)/2` possible edges appears
/// independently with probability `p`.
pub fn erdos_renyi(n: usize, p: f64, rng: &mut Rng) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Erdős–Rényi conditioned on connectivity: resamples up to `max_tries`
/// times, then force-connects remaining components with random bridge
/// edges (keeps the generator total for small `p`).
pub fn erdos_renyi_connected(n: usize, p: f64, rng: &mut Rng) -> Graph {
    const MAX_TRIES: usize = 50;
    for _ in 0..MAX_TRIES {
        let g = erdos_renyi(n, p, rng);
        if is_connected(&g) {
            return g;
        }
    }
    // Fallback: connect components of the last sample with bridges.
    let mut g = erdos_renyi(n, p, rng);
    let comps = crate::algorithms::connected_components(&g);
    for pair in comps.windows(2) {
        let u = pair[0][rng.gen_range(0..pair[0].len())];
        let v = pair[1][rng.gen_range(0..pair[1].len())];
        g.add_edge(u, v);
    }
    g
}

/// Barabási–Albert preferential attachment: starts from a small clique on
/// `m` nodes, each arriving node attaches `m` edges preferring high-degree
/// targets. Produces the heavy-tailed degree distributions of social
/// networks (IMDB/COLLAB simulators).
///
/// # Panics
/// Panics when `n < m` or `m == 0`.
pub fn barabasi_albert(n: usize, m: usize, rng: &mut Rng) -> Graph {
    assert!(m > 0, "attachment count must be positive");
    assert!(n >= m, "need at least m={m} nodes, got {n}");
    let mut edges = clique(m).edges();
    // Repeated-endpoint list: sampling uniformly from it is sampling
    // proportionally to degree.
    let mut endpoints: Vec<usize> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
    if endpoints.is_empty() {
        endpoints.push(0); // m == 1: seed graph has no edges
    }
    for new in m..n {
        let mut targets = Vec::with_capacity(m);
        while targets.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t != new && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            edges.push((new, t));
            endpoints.push(new);
            endpoints.push(t);
        }
    }
    Graph::from_edges(n, &edges)
}

/// The complete graph `K_n`.
pub fn clique(n: usize) -> Graph {
    let edges: Vec<_> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .collect();
    Graph::from_edges(n, &edges)
}

/// The cycle `C_n` (empty for `n < 3`).
pub fn cycle(n: usize) -> Graph {
    let edges: Vec<_> = if n >= 3 {
        (0..n).map(|u| (u, (u + 1) % n)).collect()
    } else {
        Vec::new()
    };
    Graph::from_edges(n, &edges)
}

/// The path `P_n`.
pub fn path(n: usize) -> Graph {
    let edges: Vec<_> = (1..n).map(|u| (u - 1, u)).collect();
    Graph::from_edges(n, &edges)
}

/// The star `S_n`: node 0 is the hub connected to `n-1` leaves.
pub fn star(n: usize) -> Graph {
    let edges: Vec<_> = (1..n).map(|u| (0, u)).collect();
    Graph::from_edges(n, &edges)
}

/// Plants `motif` into `host`: disjoint union plus `bridges` random
/// connecting edges so the result is one component containing the motif as
/// a (noisy-attached) substructure. Used by the MUTAG-like generator where
/// the class signal is a higher-order arrangement around a shared motif.
pub fn planted_union(host: &Graph, motif: &Graph, bridges: usize, rng: &mut Rng) -> Graph {
    let mut g = host.disjoint_union(motif);
    if host.n() == 0 || motif.n() == 0 {
        return g;
    }
    for _ in 0..bridges.max(1) {
        let u = rng.gen_range(0..host.n());
        let v = host.n() + rng.gen_range(0..motif.n());
        g.add_edge(u, v);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_rand::Rng;

    #[test]
    fn er_edge_count_tracks_probability() {
        let mut rng = Rng::from_seed(1);
        let g = erdos_renyi(40, 0.3, &mut rng);
        let possible = 40 * 39 / 2;
        let frac = g.num_edges() as f64 / possible as f64;
        assert!(
            (frac - 0.3).abs() < 0.08,
            "edge fraction {frac} too far from 0.3"
        );
    }

    #[test]
    fn er_extremes() {
        let mut rng = Rng::from_seed(2);
        assert_eq!(erdos_renyi(10, 0.0, &mut rng).num_edges(), 0);
        assert_eq!(erdos_renyi(10, 1.0, &mut rng).num_edges(), 45);
    }

    #[test]
    fn er_connected_is_connected() {
        let mut rng = Rng::from_seed(3);
        for _ in 0..10 {
            let g = erdos_renyi_connected(12, 0.15, &mut rng);
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn ba_has_expected_edge_count_and_connectivity() {
        let mut rng = Rng::from_seed(4);
        let (n, m) = (30, 2);
        let g = barabasi_albert(n, m, &mut rng);
        assert_eq!(g.n(), n);
        // clique(m) edges + m per arriving node
        assert_eq!(g.num_edges(), m * (m - 1) / 2 + (n - m) * m);
        assert!(is_connected(&g));
    }

    #[test]
    fn ba_degrees_are_heavy_tailed() {
        let mut rng = Rng::from_seed(5);
        let g = barabasi_albert(100, 2, &mut rng);
        // hubs should emerge: max degree far above the attachment count
        assert!(
            g.max_degree() >= 8,
            "max degree {} too small",
            g.max_degree()
        );
    }

    #[test]
    fn deterministic_families() {
        assert_eq!(clique(5).num_edges(), 10);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(cycle(2).num_edges(), 0);
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(star(5).num_edges(), 4);
        assert_eq!(star(5).degree_count(0), 4);
    }

    #[test]
    fn planted_union_is_connected_when_parts_are() {
        let mut rng = Rng::from_seed(6);
        let host = cycle(6);
        let motif = clique(4);
        let g = planted_union(&host, &motif, 2, &mut rng);
        assert_eq!(g.n(), 10);
        assert!(is_connected(&g));
        // motif edges survive intact
        for u in 0..4 {
            for v in (u + 1)..4 {
                assert!(g.has_edge(6 + u, 6 + v));
            }
        }
    }
}
