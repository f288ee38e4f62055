//! Batched GED over a corpus of graph pairs, parallelised per pair.
//!
//! Training the similarity head (Sec. 6.4) and the Fig. 5 baseline sweep
//! both score thousands of independent pairs; each pair's distance lands
//! in its own output slot, so handing pairs to `hap-par`'s scoped threads
//! changes nothing about any individual computation — batch results are
//! byte-identical to a sequential loop at every thread count.

use crate::{beam_ged, bipartite_ged, exact_ged, BipartiteSolver, EditCosts};
use hap_graph::Graph;

/// Which GED algorithm a batch dispatches to (the Fig. 5 baselines).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GedMethod {
    /// Exact A\* search — only feasible for graphs of ≤ 10 nodes.
    Exact,
    /// Beam-k suboptimal search with the given beam width.
    Beam(usize),
    /// Riesen–Bunke bipartite approximation, Hungarian LSAP solver.
    Hungarian,
    /// Riesen–Bunke bipartite approximation, Jonker–Volgenant solver.
    Vj,
}

impl GedMethod {
    /// Computes the edit distance of one pair with this method.
    pub fn compute(self, g1: &Graph, g2: &Graph, costs: &EditCosts) -> f64 {
        match self {
            GedMethod::Exact => exact_ged(g1, g2, costs),
            GedMethod::Beam(width) => beam_ged(g1, g2, width, costs),
            GedMethod::Hungarian => bipartite_ged(g1, g2, BipartiteSolver::Hungarian, costs),
            GedMethod::Vj => bipartite_ged(g1, g2, BipartiteSolver::Vj, costs),
        }
    }

    /// Stable lower-case label for metric names and reports.
    pub fn label(self) -> &'static str {
        match self {
            GedMethod::Exact => "exact",
            GedMethod::Beam(_) => "beam",
            GedMethod::Hungarian => "hungarian",
            GedMethod::Vj => "vj",
        }
    }

    /// Smallest batch worth handing to scoped threads for this method.
    ///
    /// Starting the helper thread of one [`hap_par::par_chunks_mut`] call
    /// costs about 40–75 µs on a 2-vCPU host (EXPERIMENTS.md
    /// "Parallelism"). The cheap bipartite approximations (about 6 µs per
    /// pair in `ged/batch_hungarian/*`) need dozens of pairs to amortise
    /// it: at 64 pairs the scoped threads beat the loop by a median 7 %
    /// in microbench's `ged/batch_hungarian/pairs=64/{seq,par}` (EXPERIMENTS.md
    /// "Kernels on the calling thread"), and fewer pairs were not shown to
    /// pay. The search-based methods are expensive enough per pair that
    /// even two pairs win.
    fn min_par_pairs(self) -> usize {
        match self {
            GedMethod::Exact => 2,
            GedMethod::Beam(width) if width >= 8 => 2,
            GedMethod::Beam(_) => 16,
            GedMethod::Hungarian | GedMethod::Vj => 64,
        }
    }
}

/// Computes the edit distance of every pair, in input order.
///
/// Pairs are handed to scoped threads by [`hap_par::par_chunks_mut`] (one
/// output slot per pair); small batches — below a per-method crossover —
/// and `HAP_THREADS=1` run a plain sequential loop instead, with identical
/// results either way.
///
/// ```
/// use hap_ged::{batch_ged, EditCosts, GedMethod};
/// use hap_graph::generators;
/// let (p, c) = (generators::path(4), generators::cycle(4));
/// let pairs = [(&p, &p), (&p, &c)];
/// let d = batch_ged(&pairs, GedMethod::Exact, &EditCosts::uniform());
/// assert_eq!(d[0], 0.0);
/// assert!(d[1] > 0.0);
/// ```
pub fn batch_ged(pairs: &[(&Graph, &Graph)], method: GedMethod, costs: &EditCosts) -> Vec<f64> {
    let mut out = vec![0.0; pairs.len()];
    if pairs.is_empty() {
        return out;
    }
    let _t = hap_obs::time_scope("ged.batch");
    if hap_obs::enabled() {
        hap_obs::inc("ged.batches");
        hap_obs::add(&format!("ged.pairs.{}", method.label()), pairs.len() as u64);
    }
    if pairs.len() < method.min_par_pairs() || hap_par::threads() == 1 {
        for (slot, &(g1, g2)) in out.iter_mut().zip(pairs) {
            *slot = method.compute(g1, g2, costs);
        }
        return out;
    }
    hap_par::par_chunks_mut(&mut out, 1, |i, slot| {
        let (g1, g2) = pairs[i];
        slot[0] = method.compute(g1, g2, costs);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_graph::generators;

    #[test]
    fn batch_matches_sequential_loop_for_every_method() {
        let graphs = [
            generators::path(4),
            generators::cycle(5),
            generators::star(4),
            generators::clique(4),
        ];
        let mut pairs = Vec::new();
        for a in &graphs {
            for b in &graphs {
                pairs.push((a, b));
            }
        }
        let costs = EditCosts::uniform();
        for method in [
            GedMethod::Exact,
            GedMethod::Beam(8),
            GedMethod::Hungarian,
            GedMethod::Vj,
        ] {
            let batch = batch_ged(&pairs, method, &costs);
            for (k, &(g1, g2)) in pairs.iter().enumerate() {
                let single = method.compute(g1, g2, &costs);
                assert_eq!(
                    batch[k].to_bits(),
                    single.to_bits(),
                    "{method:?} pair {k}: batch {} vs single {single}",
                    batch[k]
                );
            }
        }
    }

    #[test]
    fn method_labels_are_stable() {
        assert_eq!(GedMethod::Exact.label(), "exact");
        assert_eq!(GedMethod::Beam(8).label(), "beam");
        assert_eq!(GedMethod::Hungarian.label(), "hungarian");
        assert_eq!(GedMethod::Vj.label(), "vj");
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(batch_ged(&[], GedMethod::Hungarian, &EditCosts::uniform()).is_empty());
    }

    #[test]
    fn identical_graphs_have_zero_distance() {
        let g = generators::cycle(6);
        let d = batch_ged(&[(&g, &g)], GedMethod::Hungarian, &EditCosts::uniform());
        assert_eq!(d, vec![0.0]);
    }
}
