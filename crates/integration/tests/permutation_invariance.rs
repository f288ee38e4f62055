//! Claim 2 (Sec. 5.2) as a property: the HAP coarsening module — and the
//! full hierarchical model — are invariant under node relabelling,
//! `f(A, X) = f(PAPᵀ, PX)`, for arbitrary graphs and permutations.
//!
//! Properties run over a deterministic family of seeded cases — the
//! offline replacement for the old proptest strategies.

use hap_autograd::{ParamStore, Tape};
use hap_core::{HapCoarsen, HapConfig, HapModel};
use hap_gnn::AdjacencyRef;
use hap_graph::{degree_one_hot, Graph, Permutation};
use hap_pooling::{CoarsenModule, PoolCtx};
use hap_rand::Rng;
use hap_tensor::{testutil::assert_close, Tensor};

const CASES: u64 = 24;

fn for_each_case(label: &str, mut body: impl FnMut(&mut Rng)) {
    let mut root = Rng::from_seed(0x9E27).fork(label);
    for case in 0..CASES {
        body(&mut root.fork(&format!("case.{case}")));
    }
}

/// A random undirected graph on 4..12 nodes plus a random permutation of
/// its nodes.
fn arb_case(rng: &mut Rng) -> (Graph, Permutation) {
    let n = rng.gen_range(4..12usize);
    let g = hap_graph::generators::erdos_renyi(n, 0.4, rng);
    let p = Permutation::random(n, rng);
    (g, p)
}

#[test]
fn coarsening_module_is_permutation_invariant() {
    for_each_case("coarsen", |rng| {
        let (g, perm) = arb_case(rng);
        let mut store = ParamStore::new();
        let module = HapCoarsen::new(&mut store, "hc", 5, 3, rng);
        let x = Tensor::rand_uniform(g.n(), 5, -1.0, 1.0, rng);
        let gp = perm.apply_graph(&g);
        let xp = perm.apply_rows(&x);

        let run = |graph: &Graph, feats: &Tensor| {
            let mut rng = Rng::from_seed(0);
            let mut tape = Tape::new();
            let h = tape.constant(feats.clone());
            let mut ctx = PoolCtx {
                training: false,
                rng: &mut rng,
            };
            let (a2, h2) = module.forward(&mut tape, AdjacencyRef::Fixed(graph), h, &mut ctx);
            (tape.value(a2), tape.value(h2))
        };
        let (a1, h1) = run(&g, &x);
        let (a2, h2) = run(&gp, &xp);
        assert_close(&a1, &a2, 1e-8);
        assert_close(&h1, &h2, 1e-8);
    });
}

#[test]
fn full_model_embedding_is_permutation_invariant() {
    for_each_case("model", |rng| {
        let (g, perm) = arb_case(rng);
        let mut store = ParamStore::new();
        let cfg = HapConfig::new(6, 5).with_clusters(&[3, 2]);
        let model = HapModel::new(&mut store, &cfg, rng);
        let x = degree_one_hot(&g, 6);
        let gp = perm.apply_graph(&g);
        let xp = perm.apply_rows(&x);

        let run = |graph: &Graph, feats: &Tensor| {
            let mut rng = Rng::from_seed(0);
            let mut tape = Tape::new();
            let mut ctx = PoolCtx {
                training: false,
                rng: &mut rng,
            };
            let e = model.embed(&mut tape, graph, feats, &mut ctx);
            tape.value(e)
        };
        assert_close(&run(&g, &x), &run(&gp, &xp), 1e-7);
    });
}

#[test]
fn flat_readout_baselines_are_permutation_invariant() {
    use hap_pooling::{MeanReadout, Readout, SumReadout};
    for_each_case("readout", |rng| {
        let (g, perm) = arb_case(rng);
        let x = Tensor::rand_uniform(g.n(), 4, -1.0, 1.0, rng);
        let xp = perm.apply_rows(&x);
        let gp = perm.apply_graph(&g);

        let readouts: Vec<Box<dyn Readout>> = vec![Box::new(SumReadout), Box::new(MeanReadout)];
        for r in &readouts {
            let run = |graph: &Graph, feats: &Tensor| {
                let mut rng = Rng::from_seed(0);
                let mut tape = Tape::new();
                let a = tape.constant(graph.dense_adjacency());
                let h = tape.constant(feats.clone());
                let mut ctx = PoolCtx {
                    training: false,
                    rng: &mut rng,
                };
                let out = r.forward(&mut tape, a, h, &mut ctx);
                tape.value(out)
            };
            assert_close(&run(&g, &x), &run(&gp, &xp), 1e-10);
        }
    });
}
