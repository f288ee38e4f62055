//! Exact t-SNE (van der Maaten & Hinton 2008).
//!
//! O(N²) affinities are fine at our scale — the paper's Fig. 4/6 embeds a
//! few hundred graph-level vectors. The implementation follows the
//! original: perplexity calibration by per-point binary search over the
//! Gaussian bandwidth, symmetrised `P`, Student-t low-dimensional
//! affinities, gradient descent with momentum and early exaggeration.

use hap_rand::Rng;
use hap_tensor::Tensor;

/// t-SNE hyper-parameters.
#[derive(Clone, Debug)]
pub struct TsneConfig {
    /// Target perplexity (effective neighbour count).
    pub perplexity: f64,
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Early-exaggeration factor applied for the first quarter of the
    /// iterations.
    pub exaggeration: f64,
    /// RNG seed for the initial layout.
    pub seed_std: f64,
}

impl Default for TsneConfig {
    fn default() -> Self {
        Self {
            perplexity: 20.0,
            iterations: 300,
            learning_rate: 100.0,
            exaggeration: 4.0,
            seed_std: 1e-2,
        }
    }
}

/// Embeds the rows of `data` (`N×F`) into 2-D. Returns an `N×2` tensor.
///
/// # Panics
/// Panics when `data` has fewer than 3 rows.
// Index loops mirror the pairwise formulas and fix the summation order
// the committed figures were produced with.
#[allow(clippy::needless_range_loop)]
pub fn tsne(data: &Tensor, cfg: &TsneConfig, rng: &mut Rng) -> Tensor {
    let n = data.rows();
    assert!(n >= 3, "t-SNE needs at least 3 points, got {n}");
    let perplexity = cfg.perplexity.min((n as f64 - 1.0) / 3.0).max(2.0);

    // squared pairwise distances in high-dimensional space
    let mut d2 = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let dist: f64 = data
                .row(i)
                .iter()
                .zip(data.row(j))
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum();
            d2[i][j] = dist;
            d2[j][i] = dist;
        }
    }

    // per-point bandwidth calibration to the target perplexity
    let target_entropy = perplexity.ln();
    let mut p = vec![vec![0.0; n]; n];
    for i in 0..n {
        let (mut beta, mut lo, mut hi) = (1.0, 0.0_f64, f64::INFINITY);
        for _ in 0..50 {
            // conditional distribution p_{j|i} under bandwidth beta
            let mut sum = 0.0;
            let mut h = 0.0;
            for j in 0..n {
                if j == i {
                    continue;
                }
                let pj = (-beta * d2[i][j]).exp();
                sum += pj;
                h += beta * d2[i][j] * pj;
            }
            let entropy = if sum > 0.0 { sum.ln() + h / sum } else { 0.0 };
            if (entropy - target_entropy).abs() < 1e-5 {
                break;
            }
            if entropy > target_entropy {
                lo = beta;
                beta = if hi.is_finite() {
                    (beta + hi) / 2.0
                } else {
                    beta * 2.0
                };
            } else {
                hi = beta;
                beta = (beta + lo) / 2.0;
            }
        }
        let mut sum = 0.0;
        for j in 0..n {
            if j != i {
                p[i][j] = (-beta * d2[i][j]).exp();
                sum += p[i][j];
            }
        }
        if sum > 0.0 {
            for j in 0..n {
                p[i][j] /= sum;
            }
        }
    }
    // symmetrise
    let mut pij = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            pij[i][j] = ((p[i][j] + p[j][i]) / (2.0 * n as f64)).max(1e-12);
        }
    }

    // gradient descent on the 2-D layout
    let mut y = Tensor::rand_normal(n, 2, cfg.seed_std, rng);
    let mut velocity = Tensor::<f64>::zeros(n, 2);
    let exag_until = cfg.iterations / 4;

    for iter in 0..cfg.iterations {
        let exag = if iter < exag_until {
            cfg.exaggeration
        } else {
            1.0
        };
        let momentum = if iter < exag_until { 0.5 } else { 0.8 };

        // Student-t affinities q_ij ∝ (1 + ||y_i - y_j||²)^-1
        let mut num = vec![vec![0.0; n]; n];
        let mut qsum: f64 = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = y[(i, 0)] - y[(j, 0)];
                let dy = y[(i, 1)] - y[(j, 1)];
                let t = 1.0 / (1.0 + dx * dx + dy * dy);
                num[i][j] = t;
                num[j][i] = t;
                qsum += 2.0 * t;
            }
        }
        let qsum = qsum.max(1e-12);

        let mut grad = Tensor::<f64>::zeros(n, 2);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let q = (num[i][j] / qsum).max(1e-12);
                let mult = 4.0 * (exag * pij[i][j] - q) * num[i][j];
                grad[(i, 0)] += mult * (y[(i, 0)] - y[(j, 0)]);
                grad[(i, 1)] += mult * (y[(i, 1)] - y[(j, 1)]);
            }
        }
        for i in 0..n {
            for d in 0..2 {
                velocity[(i, d)] = momentum * velocity[(i, d)] - cfg.learning_rate * grad[(i, d)];
                y[(i, d)] += velocity[(i, d)];
            }
        }
        // re-centre to keep the layout bounded
        let cm = y.col_means();
        for i in 0..n {
            y[(i, 0)] -= cm[(0, 0)];
            y[(i, 1)] -= cm[(0, 1)];
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_rand::Rng;

    /// Three well-separated Gaussian blobs in 8-D.
    fn blobs(rng: &mut Rng) -> (Tensor, Vec<usize>) {
        let per = 15;
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3 {
            for _ in 0..per {
                let mut row = vec![0.0; 8];
                for (d, r) in row.iter_mut().enumerate() {
                    let center = if d % 3 == c { 8.0 } else { 0.0 };
                    *r = center + rng.gen_range(-0.5..0.5);
                }
                rows.push(row);
                labels.push(c);
            }
        }
        (Tensor::from_rows(&rows), labels)
    }

    #[test]
    fn separates_well_separated_blobs() {
        let mut rng = Rng::from_seed(1);
        let (data, labels) = blobs(&mut rng);
        let y = tsne(&data, &TsneConfig::default(), &mut rng);
        assert_eq!(y.shape(), (45, 2));
        assert!(y.all_finite());

        // mean intra-class distance must be far below inter-class
        let dist = |i: usize, j: usize| {
            let dx = y[(i, 0)] - y[(j, 0)];
            let dy = y[(i, 1)] - y[(j, 1)];
            (dx * dx + dy * dy).sqrt()
        };
        let (mut intra, mut ni) = (0.0, 0);
        let (mut inter, mut nx) = (0.0, 0);
        for i in 0..45 {
            for j in (i + 1)..45 {
                if labels[i] == labels[j] {
                    intra += dist(i, j);
                    ni += 1;
                } else {
                    inter += dist(i, j);
                    nx += 1;
                }
            }
        }
        let (intra, inter) = (intra / ni as f64, inter / nx as f64);
        assert!(
            inter > 1.5 * intra,
            "clusters not separated: intra {intra}, inter {inter}"
        );
    }

    #[test]
    fn output_is_centred() {
        let mut rng = Rng::from_seed(2);
        let (data, _) = blobs(&mut rng);
        let y = tsne(&data, &TsneConfig::default(), &mut rng);
        let cm = y.col_means();
        assert!(cm[(0, 0)].abs() < 1e-6 && cm[(0, 1)].abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least 3 points")]
    fn rejects_tiny_inputs() {
        let mut rng = Rng::from_seed(3);
        tsne(&Tensor::zeros(2, 4), &TsneConfig::default(), &mut rng);
    }
}
