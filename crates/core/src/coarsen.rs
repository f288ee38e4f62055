//! The HAP graph coarsening module (Sec. 4.4, Algorithm 1).

use crate::{GCont, Moa};
use hap_autograd::{ParamStore, Tape, Var};
use hap_gnn::AdjacencyRef;
use hap_graph::GraphScalar;
use hap_pooling::{CoarsenModule, PoolCtx};
use hap_rand::Rng;
use hap_tensor::{Scalar, Tensor};
use std::sync::Arc;

/// Numerical floor added to `A'` before the `log` in Eq. 19.
const LOG_EPS: f64 = 1e-9;

/// Standard Gumbel(0, 1) noise `g = −ln(−ln u)` from a uniform draw, with
/// `u` clamped into the open interval `(0, 1)`.
///
/// The double log blows up at both ends: `u = 0` gives `g = −∞` and
/// `u = 1` gives `g = +∞` — and the uniform-range sampler can produce an
/// endpoint through floating-point rounding of `lo + u·(hi − lo)` even
/// when the requested range excludes it. A non-finite `g` poisons one
/// logit row of the Eq. 19 softmax and from there the whole coarsened
/// adjacency. Clamping to `[ε, 1 − ε]` caps the noise at ≈ ±36.7 (the
/// finite value of the nearest representable interior point), leaving
/// every interior draw bit-identical.
fn gumbel_from_uniform(u: f64) -> f64 {
    let u = u.clamp(f64::EPSILON, 1.0 - f64::EPSILON);
    -(-u.ln()).ln()
}

/// One HAP coarsening step: GCont → MOA → cluster formation → soft
/// sampling.
///
/// Given `(A, H)` with `N` nodes:
/// 1. `C = H·T` (Eq. 13, [`GCont`]);
/// 2. `M = softmax(LeakyReLU(aᵀ[C_row ‖ C_col]))` (Eqs. 14–15, [`Moa`]);
/// 3. `H' = MᵀH`, `A' = MᵀAM` (Eqs. 17–18);
/// 4. soft sampling `Ã'_ij = softmax_j((ln A'_ij + g_ij)/τ)` with Gumbel
///    noise `g` at training time and τ = 0.1 (Eq. 19), reducing the dense
///    coarsened graph towards a near-one-hot edge structure. At evaluation
///    time the noise is omitted (deterministic annealed softmax).
///
/// ```
/// use hap_autograd::{ParamStore, Tape};
/// use hap_core::HapCoarsen;
/// use hap_gnn::AdjacencyRef;
/// use hap_graph::{degree_one_hot, generators};
/// use hap_pooling::{CoarsenModule, PoolCtx};
/// use hap_rand::Rng;
///
/// let mut rng = Rng::from_seed(7);
/// let g = generators::erdos_renyi_connected(10, 0.3, &mut rng);
/// let x = degree_one_hot(&g, 6);
///
/// let mut params = ParamStore::new();
/// let coarsen = HapCoarsen::new(&mut params, "demo", 6, 4, &mut rng);
///
/// let mut tape = Tape::new();
/// let h = tape.constant(x);
/// let mut ctx = PoolCtx { training: false, rng: &mut rng };
/// let (a2, h2) = coarsen.forward(&mut tape, AdjacencyRef::Fixed(&g), h, &mut ctx);
/// assert_eq!(tape.shape(h2), (4, 6));   // 10 nodes -> 4 clusters
/// assert_eq!(tape.shape(a2), (4, 4));
/// ```
pub struct HapCoarsen<T: Scalar = f64> {
    gcont: GCont<T>,
    moa: Moa<T>,
    tau: f64,
    soft_sampling: bool,
}

impl<T: Scalar> HapCoarsen<T> {
    /// Creates a coarsening module mapping width-`dim` features onto
    /// `clusters` target clusters, with the paper's τ = 0.1.
    pub fn new(
        store: &mut ParamStore<T>,
        name: &str,
        dim: usize,
        clusters: usize,
        rng: &mut Rng,
    ) -> Self {
        Self {
            gcont: GCont::new(store, &format!("{name}.gcont"), dim, clusters, rng),
            moa: Moa::new(store, &format!("{name}.moa"), clusters, rng),
            tau: 0.1,
            soft_sampling: true,
        }
    }

    /// Overrides the Gumbel-Softmax temperature (paper default 0.1).
    pub fn with_tau(mut self, tau: f64) -> Self {
        assert!(tau > 0.0, "temperature must be positive");
        self.tau = tau;
        self
    }

    /// Disables the Eq. 19 soft-sampling step (ablation switch; `A'` then
    /// stays the dense `MᵀAM`).
    pub fn without_soft_sampling(mut self) -> Self {
        self.soft_sampling = false;
        self
    }

    /// Number of target clusters `N'`.
    pub fn clusters(&self) -> usize {
        self.moa.clusters()
    }

    /// The GCont component.
    pub fn gcont(&self) -> &GCont<T> {
        &self.gcont
    }

    /// The MOA component.
    pub fn moa(&self) -> &Moa<T> {
        &self.moa
    }

    /// Computes the MOA assignment matrix `M` (`N×N'`) for inspection.
    pub fn assignment(&self, tape: &mut Tape<T>, h: Var) -> Var {
        let c = self.gcont.forward(tape, h);
        self.moa.forward(tape, c)
    }

    /// Eq. 19: row-wise annealed softmax over `ln A' (+ Gumbel noise)`.
    fn soft_sample(&self, tape: &mut Tape<T>, a: Var, ctx: &mut PoolCtx<'_>) -> Var {
        let _t = hap_obs::time_scope("core.coarsen.soft_sample");
        let (n, m) = tape.shape(a);
        let shifted = tape.shift(a, LOG_EPS);
        let log_a = tape.ln(shifted);
        let noisy = if ctx.training {
            // g = -ln(-ln u), u ~ Uniform(0,1) — same draw sequence from
            // the forked model stream as before the boundary guard, so
            // seeded trajectories are unchanged (the clamp only rewrites
            // endpoint draws, which previously produced ±∞). Drawn and
            // transformed in f64 regardless of T, then narrowed — both
            // dtypes consume the identical RNG stream.
            let mut g = Tensor::zeros(n, m);
            for e in g.as_mut_slice() {
                let u: f64 = ctx.rng.gen_range(f64::EPSILON..1.0);
                *e = T::from_f64(gumbel_from_uniform(u));
            }
            let g = tape.constant(g);
            tape.add(log_a, g)
        } else {
            log_a
        };
        let scaled = tape.scale(noisy, 1.0 / self.tau);
        tape.softmax_rows(scaled)
    }

    /// Steps 1–9 of Algorithm 1: the assignment `M` and `H' = MᵀH`
    /// (Eq. 17). Returns `(M, Mᵀ, H')`.
    fn cluster_features(&self, tape: &mut Tape<T>, h: Var) -> (Var, Var, Var) {
        let m = {
            let _t = hap_obs::time_scope("core.coarsen.assignment");
            self.assignment(tape, h)
        };
        let mt = tape.transpose(m);
        let h_new = tape.matmul(mt, h);
        (m, mt, h_new)
    }
}

impl<T: GraphScalar> CoarsenModule<T> for HapCoarsen<T> {
    fn forward(
        &self,
        tape: &mut Tape<T>,
        adj: AdjacencyRef<'_>,
        h: Var,
        ctx: &mut PoolCtx<'_>,
    ) -> (Var, Var) {
        let _t = hap_obs::time_scope("core.coarsen");
        let (m, mt, h_new) = self.cluster_features(tape, h);
        // Step 10: A' = MᵀAM (Eq. 18). A fixed input graph enters as its
        // raw-A CSR, so MᵀA costs O(m·N') and no N×N matrix is formed;
        // the product is bitwise the dense one (`Tape::matmul_csr`).
        let ma = match adj {
            AdjacencyRef::Fixed(g) => tape.matmul_csr(mt, &Arc::new(T::adjacency_csr_of(g))),
            AdjacencyRef::Dynamic(a) => tape.matmul(mt, a),
        };
        let a_new = tape.matmul(ma, m);
        // Steps 11–13: soft sampling (Eq. 19).
        let a_out = if self.soft_sampling {
            self.soft_sample(tape, a_new, ctx)
        } else {
            a_new
        };
        if hap_obs::trace_enabled() {
            hap_obs::check_finite("coarsen.adjacency", tape.value(a_out).as_slice());
            hap_obs::check_finite("coarsen.features", tape.value(h_new).as_slice());
        }
        (a_out, h_new)
    }

    /// `H'` alone: no `MᵀA`, `(MᵀA)M` or Eq. 19. A training pass with soft
    /// sampling still draws Eq. 19's `N'²` uniforms, so `ctx.rng` ends
    /// where [`CoarsenModule::forward`] leaves it.
    fn forward_features(
        &self,
        tape: &mut Tape<T>,
        _adj: AdjacencyRef<'_>,
        h: Var,
        ctx: &mut PoolCtx<'_>,
    ) -> Var {
        let _t = hap_obs::time_scope("core.coarsen");
        let (m, _, h_new) = self.cluster_features(tape, h);
        if self.soft_sampling && ctx.training {
            // The draws `soft_sample` makes for its Gumbel noise.
            let clusters = tape.shape(m).1;
            for _ in 0..clusters * clusters {
                let _: f64 = ctx.rng.gen_range(f64::EPSILON..1.0);
            }
        }
        if hap_obs::trace_enabled() {
            hap_obs::check_finite("coarsen.features", tape.value(h_new).as_slice());
        }
        h_new
    }

    fn name(&self) -> &'static str {
        "HAP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_graph::{generators, Permutation};
    use hap_rand::Rng;
    use hap_tensor::testutil::assert_close;

    fn module(dim: usize, clusters: usize, seed: u64) -> (ParamStore, HapCoarsen) {
        let mut rng = Rng::from_seed(seed);
        let mut store = ParamStore::<f64>::new();
        let m = HapCoarsen::new(&mut store, "hc", dim, clusters, &mut rng);
        (store, m)
    }

    #[test]
    fn gumbel_noise_is_finite_at_uniform_boundaries() {
        // Regression: `-(-u.ln()).ln()` is −∞ at u = 0 and +∞ at u = 1,
        // and a rounding in the range sampler's `lo + u·(hi − lo)` can
        // yield an exact endpoint. The clamp caps the noise at the nearest
        // representable interior point instead.
        for u in [
            0.0,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            0.5,
            1.0 - f64::EPSILON,
            1.0,
        ] {
            let g = gumbel_from_uniform(u);
            assert!(g.is_finite(), "gumbel({u}) = {g} must be finite");
        }
        // interior draws are untouched by the clamp
        let u = 0.37;
        assert_eq!(
            gumbel_from_uniform(u).to_bits(),
            (-(-u.ln()).ln()).to_bits()
        );
        // the boundary values cap at the interior extremes, keeping the
        // noise ordered: g(0) is the most negative, g(1) the most positive
        assert!(gumbel_from_uniform(0.0) < gumbel_from_uniform(0.5));
        assert!(gumbel_from_uniform(0.5) < gumbel_from_uniform(1.0));
    }

    #[test]
    fn boundary_uniform_draws_survive_the_sampler() {
        // Drive the boundary values through the full Eq. 19 soft-sampling
        // path: even if every Gumbel draw were an endpoint, the coarsened
        // adjacency must stay a finite row-stochastic matrix.
        let noise: Vec<f64> = [0.0, 1.0, 0.0, 1.0]
            .iter()
            .map(|&u| gumbel_from_uniform(u))
            .collect();
        let logits = Tensor::from_rows(&[noise.clone(), noise.iter().rev().copied().collect()]);
        let sm = logits.softmax_rows();
        assert!(sm.all_finite());
        for r in 0..2 {
            let s: f64 = sm.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn output_shapes_and_finiteness() {
        let (_s, m) = module(4, 3, 1);
        let mut rng = Rng::from_seed(2);
        let g = generators::erdos_renyi_connected(9, 0.4, &mut rng);
        let mut t = Tape::new();
        let h = t.constant(Tensor::rand_uniform(9, 4, -1.0, 1.0, &mut rng));
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let (a2, h2) = m.forward(&mut t, AdjacencyRef::Fixed(&g), h, &mut ctx);
        assert_eq!(t.shape(a2), (3, 3));
        assert_eq!(t.shape(h2), (3, 4));
        assert!(t.value(a2).all_finite());
        assert!(t.value(h2).all_finite());
    }

    #[test]
    fn soft_sampled_rows_are_distributions_close_to_one_hot() {
        let (_s, m) = module(3, 4, 3);
        let mut rng = Rng::from_seed(3);
        let g = generators::erdos_renyi_connected(8, 0.5, &mut rng);
        let mut t = Tape::new();
        let h = t.constant(Tensor::rand_uniform(8, 3, -1.0, 1.0, &mut rng));
        let mut ctx = PoolCtx {
            training: false, // deterministic annealed softmax
            rng: &mut rng,
        };
        let (a2, _h2) = m.forward(&mut t, AdjacencyRef::Fixed(&g), h, &mut ctx);
        let av = t.value(a2);
        for r in 0..4 {
            let sum: f64 = av.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {r} not a distribution");
            // τ = 0.1 pushes towards one-hot: the max should dominate
            let mx = av.row(r).iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!(mx > 0.5, "row {r} max {mx} not dominant");
        }
    }

    #[test]
    fn eval_pass_is_deterministic_training_pass_is_not() {
        let (_s, m) = module(3, 3, 5);
        let mut rng = Rng::from_seed(6);
        let g = generators::erdos_renyi_connected(7, 0.5, &mut rng);
        let x = Tensor::rand_uniform(7, 3, -1.0, 1.0, &mut rng);

        let run = |training: bool, seed: u64| {
            let mut rng = Rng::from_seed(seed);
            let mut t = Tape::new();
            let h = t.constant(x.clone());
            let mut ctx = PoolCtx {
                training,
                rng: &mut rng,
            };
            let (a2, _) = m.forward(&mut t, AdjacencyRef::Fixed(&g), h, &mut ctx);
            t.value(a2).clone()
        };
        assert_close(&run(false, 1), &run(false, 2), 1e-12);
        let t1 = run(true, 1);
        let t2 = run(true, 2);
        assert!(
            t1.as_slice()
                .iter()
                .zip(t2.as_slice())
                .any(|(a, b)| (a - b).abs() > 1e-9),
            "gumbel noise should differ across seeds"
        );
    }

    #[test]
    fn claim2_permutation_invariance_of_coarsening() {
        // f(A, X) == f(PAPᵀ, PX): coarsened features and adjacency are
        // identical under any relabelling of the source nodes.
        let (_s, m) = module(3, 3, 7);
        let mut rng = Rng::from_seed(8);
        let g = generators::erdos_renyi_connected(8, 0.4, &mut rng);
        let x = Tensor::rand_uniform(8, 3, -1.0, 1.0, &mut rng);
        let perm = Permutation::random(8, &mut rng);
        let gp = perm.apply_graph(&g);
        let xp = perm.apply_rows(&x);

        let run = |g: &hap_graph::Graph, x: &Tensor| {
            let mut rng = Rng::from_seed(0);
            let mut t = Tape::new();
            let h = t.constant(x.clone());
            let mut ctx = PoolCtx {
                training: false,
                rng: &mut rng,
            };
            let (a2, h2) = m.forward(&mut t, AdjacencyRef::Fixed(g), h, &mut ctx);
            (t.value(a2).clone(), t.value(h2).clone())
        };
        let (a_orig, h_orig) = run(&g, &x);
        let (a_perm, h_perm) = run(&gp, &xp);
        assert_close(&a_orig, &a_perm, 1e-9);
        assert_close(&h_orig, &h_perm, 1e-9);
    }

    #[test]
    fn gradients_flow_to_gcont_and_moa() {
        let (store, m) = module(3, 3, 9);
        let mut rng = Rng::from_seed(10);
        let g = generators::erdos_renyi_connected(7, 0.5, &mut rng);
        let mut t = Tape::new();
        let h = t.constant(Tensor::rand_uniform(7, 3, -1.0, 1.0, &mut rng));
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let (_a2, h2) = m.forward(&mut t, AdjacencyRef::Fixed(&g), h, &mut ctx);
        let sq = t.hadamard(h2, h2);
        let loss = t.sum_all(sq);
        t.backward(loss);
        for p in store.iter() {
            assert!(
                p.grad().frobenius_norm() > 0.0,
                "{} received no gradient",
                p.name()
            );
        }
    }

    #[test]
    fn without_soft_sampling_preserves_edge_mass() {
        // Σ (MᵀAM) = Σ A when M's rows are distributions.
        let mut rng = Rng::from_seed(11);
        let mut store = ParamStore::<f64>::new();
        let m = HapCoarsen::new(&mut store, "hc", 3, 3, &mut rng).without_soft_sampling();
        let g = generators::erdos_renyi_connected(6, 0.5, &mut rng);
        let mut t = Tape::new();
        let h = t.constant(Tensor::rand_uniform(6, 3, -1.0, 1.0, &mut rng));
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut rng,
        };
        let (a2, _) = m.forward(&mut t, AdjacencyRef::Fixed(&g), h, &mut ctx);
        assert!((t.value(a2).sum() - g.dense_adjacency().sum()).abs() < 1e-9);
    }

    #[test]
    fn readout_of_coarsened_features_is_the_mean_node_over_clusters() {
        // Rows of M are distributions, so col_means(MᵀH) = Σᵢ Hᵢ / N' for
        // any parameters: the level's mean readout cannot depend on the
        // assignment beyond rounding (ROADMAP item 4). Soft sampling only
        // touches A', so training mode holds too.
        for seed in 0..8u64 {
            let mut rng = Rng::from_seed(200 + seed);
            let (dim, clusters) = ([3, 6, 16][seed as usize % 3], [2, 3, 8][seed as usize % 3]);
            let (store, module) = module(dim, clusters, seed);
            for p in store.iter() {
                let (r, c) = p.shape();
                p.set_value(Tensor::rand_uniform(r, c, -5.0, 5.0, &mut rng));
            }
            let n = [5, 12, 40, 90][seed as usize % 4];
            let g = generators::erdos_renyi_connected(n, 0.2, &mut rng);
            let x = Tensor::rand_uniform(n, dim, -3.0, 3.0, &mut rng);
            let expect = x.col_sums().scale(1.0 / clusters as f64);
            for training in [false, true] {
                let mut t = Tape::new();
                let h = t.constant(x.clone());
                let mut ctx = PoolCtx {
                    training,
                    rng: &mut rng,
                };
                let (_, h2) = module.forward(&mut t, AdjacencyRef::Fixed(&g), h, &mut ctx);
                let got = t.value(h2).col_means();
                let tol = 1e-12 * x.map(f64::abs).col_sums().max().max(1.0);
                assert_close(&got, &expect, tol);
            }
        }
    }
}
