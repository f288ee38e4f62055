//! Eq. 19 soft sampling as an integration property: with Gumbel noise
//! active (training mode) and the paper's τ = 0.1, the sampled coarse
//! adjacency `Ã'` must stay a row-stochastic matrix — every row a valid
//! probability distribution — across graphs, cluster counts and noise
//! draws. The softmax guarantees this analytically; the test pins it
//! end-to-end through the tape, the `hap-rand` noise source and the
//! LOG_EPS floor.

use hap_autograd::{ParamStore, Tape};
use hap_core::HapCoarsen;
use hap_gnn::AdjacencyRef;
use hap_graph::{degree_one_hot, generators};
use hap_pooling::{CoarsenModule, PoolCtx};
use hap_rand::Rng;

const SEED: u64 = 0x9a2f_11d7;
const CASES: usize = 24;

fn for_each_case(label: &str, mut body: impl FnMut(&mut Rng)) {
    let mut root = Rng::from_seed(SEED).fork(label);
    for case in 0..CASES {
        body(&mut root.fork(&format!("case.{case}")));
    }
}

fn coarsen_once(
    rng: &mut Rng,
    n: usize,
    clusters: usize,
    tau: f64,
    training: bool,
) -> Vec<Vec<f64>> {
    let dim = 6;
    let g = generators::erdos_renyi_connected(n, 0.3, rng);
    let x = degree_one_hot(&g, dim);
    let mut store = ParamStore::new();
    let module = HapCoarsen::new(&mut store, "hc", dim, clusters, rng).with_tau(tau);

    let mut tape = Tape::new();
    let h = tape.constant(x);
    let mut ctx = PoolCtx { training, rng };
    let (a2, _h2) = module.forward(&mut tape, AdjacencyRef::Fixed(&g), h, &mut ctx);
    let av = tape.value(a2);
    (0..clusters).map(|r| av.row(r).to_vec()).collect()
}

#[test]
fn gumbel_sampled_adjacency_is_row_stochastic_at_tau_point_one() {
    for_each_case("rowstoch", |rng| {
        let n = 6 + (rng.gen_range(0..8usize));
        let clusters = 2 + (rng.gen_range(0..3usize));
        let rows = coarsen_once(rng, n, clusters, 0.1, true);
        for (r, row) in rows.iter().enumerate() {
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "row {r} sums to {sum}, not a distribution (n={n}, clusters={clusters})"
            );
            for (c, &p) in row.iter().enumerate() {
                assert!(
                    (0.0..=1.0).contains(&p) && p.is_finite(),
                    "entry ({r},{c}) = {p} outside [0,1]"
                );
            }
        }
    });
}

#[test]
fn low_temperature_sharpens_towards_one_hot() {
    // τ = 0.1 should concentrate each row far more than τ = 5.0: compare
    // the mean row maximum under identical graphs and parameters. Noise
    // off (eval mode) so the only difference is the annealing temperature.
    let mean_max = |tau: f64| {
        let mut total = 0.0;
        let mut rows_seen = 0usize;
        for_each_case("sharpen", |rng| {
            let rows = coarsen_once(rng, 10, 3, tau, false);
            for row in &rows {
                total += row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                rows_seen += 1;
            }
        });
        total / rows_seen as f64
    };
    let sharp = mean_max(0.1);
    let smooth = mean_max(5.0);
    assert!(
        sharp > smooth + 0.1,
        "τ=0.1 mean row max {sharp:.3} not sharper than τ=5.0's {smooth:.3}"
    );
}

#[test]
fn noise_draws_perturb_but_never_break_stochasticity() {
    // Two different noise draws on the same module+graph give different
    // matrices (the sampling is genuinely stochastic) while both stay
    // row-stochastic.
    let mut setup_rng = Rng::from_seed(SEED).fork("perturb");
    let dim = 6;
    let g = generators::erdos_renyi_connected(9, 0.3, &mut setup_rng);
    let x = degree_one_hot(&g, dim);
    let mut store = ParamStore::new();
    let module = HapCoarsen::new(&mut store, "hc", dim, 3, &mut setup_rng);

    let run = |noise_seed: u64| {
        let mut rng = Rng::from_seed(noise_seed);
        let mut tape = Tape::new();
        let h = tape.constant(x.clone());
        let mut ctx = PoolCtx {
            training: true,
            rng: &mut rng,
        };
        let (a2, _) = module.forward(&mut tape, AdjacencyRef::Fixed(&g), h, &mut ctx);
        tape.value(a2).clone()
    };
    let m1 = run(1);
    let m2 = run(2);
    assert!(
        m1.as_slice()
            .iter()
            .zip(m2.as_slice())
            .any(|(a, b)| (a - b).abs() > 1e-9),
        "distinct noise draws produced identical samples"
    );
    for m in [&m1, &m2] {
        for r in 0..3 {
            let sum: f64 = m.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {r} sum {sum}");
        }
    }
}
