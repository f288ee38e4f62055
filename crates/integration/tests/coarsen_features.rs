//! `CoarsenModule::forward_features`, which the last level of a HAP
//! hierarchy calls, against `forward(..).1` as its oracle: for every
//! coarsening module, in training and evaluation, over the input graph
//! (`AdjacencyRef::Fixed`) and a dense adjacency on the tape (`Dynamic`),
//! the features are the same bits and the next draw from `ctx.rng` is the
//! same number, in f64 and f32.

use hap_autograd::{ParamStore, Tape};
use hap_core::{FlatCoarsen, HapCoarsen};
use hap_gnn::AdjacencyRef;
use hap_graph::{generators, GraphScalar};
use hap_pooling::{
    Asap, CoarsenModule, DiffPool, GPool, MeanAttReadout, MeanReadout, PoolCtx, SagPool, StructPool,
};
use hap_rand::Rng;
use hap_tensor::Tensor;

const DIM: usize = 5;

/// Every coarsening module, each with its own parameters.
fn modules<T: GraphScalar>(
    store: &mut ParamStore<T>,
    rng: &mut Rng,
) -> Vec<Box<dyn CoarsenModule<T>>> {
    vec![
        Box::new(HapCoarsen::new(store, "hap", DIM, 3, rng)),
        Box::new(HapCoarsen::new(store, "hap.plain", DIM, 4, rng).without_soft_sampling()),
        Box::new(FlatCoarsen::new(MeanReadout)),
        Box::new(FlatCoarsen::new(MeanAttReadout::new(
            store, "meanatt", DIM, rng,
        ))),
        Box::new(GPool::new(store, "gpool", DIM, 0.5, rng)),
        Box::new(SagPool::new(store, "sag", DIM, 0.5, rng)),
        Box::new(DiffPool::new(store, "diff", DIM, 3, rng)),
        Box::new(Asap::new(store, "asap", DIM, 0.5, rng)),
        Box::new(StructPool::new(store, "struct", DIM, 3, 2, rng)),
    ]
}

/// Runs one pass from a fresh tape and an `Rng` seeded with `seed`:
/// `features_only` picks `forward_features` over `forward(..).1`. Returns
/// the feature bits and the next `u64` the stream would have drawn.
fn pass<T: GraphScalar>(
    module: &dyn CoarsenModule<T>,
    graph: &hap_graph::Graph,
    x: &Tensor<T>,
    dynamic: bool,
    training: bool,
    features_only: bool,
    seed: u64,
) -> (Vec<u64>, u64) {
    let mut rng = Rng::from_seed(seed);
    let mut tape = Tape::<T>::new();
    let h = tape.constant(x.clone());
    let dense;
    let adj = if dynamic {
        dense = tape.constant(T::adjacency_of(graph));
        AdjacencyRef::Dynamic(dense)
    } else {
        AdjacencyRef::Fixed(graph)
    };
    let mut ctx = PoolCtx {
        training,
        rng: &mut rng,
    };
    let h2 = if features_only {
        module.forward_features(&mut tape, adj, h, &mut ctx)
    } else {
        module.forward(&mut tape, adj, h, &mut ctx).1
    };
    let bits = tape
        .value(h2)
        .as_slice()
        .iter()
        .map(|v| v.to_bits_u64())
        .collect();
    (bits, rng.next_u64())
}

fn check<T: GraphScalar>(dtype: &str) {
    let mut rng = Rng::from_seed(0xFEA7);
    let mut store = ParamStore::<T>::new();
    let modules = modules(&mut store, &mut rng);
    for (case, n) in [2usize, 3, 7, 12].into_iter().enumerate() {
        let g = generators::erdos_renyi_connected(n, 0.4, &mut rng);
        let x: Tensor<T> = Tensor::<f64>::rand_uniform(n, DIM, -2.0, 2.0, &mut rng).cast();
        for module in &modules {
            for dynamic in [false, true] {
                for training in [false, true] {
                    let seed = 100 + case as u64;
                    let run = |features_only| {
                        pass(
                            module.as_ref(),
                            &g,
                            &x,
                            dynamic,
                            training,
                            features_only,
                            seed,
                        )
                    };
                    let tag = format!(
                        "{dtype} {} n={n} dynamic={dynamic} training={training}",
                        module.name()
                    );
                    let (oracle, next_after_forward) = run(false);
                    let (got, next_after_features) = run(true);
                    assert_eq!(got, oracle, "{tag}: features");
                    assert_eq!(next_after_features, next_after_forward, "{tag}: next draw");
                }
            }
        }
    }
}

#[test]
fn features_only_coarsening_matches_forward_and_leaves_the_rng_in_step() {
    check::<f64>("f64");
    check::<f32>("f32");
}

#[test]
fn hap_training_pass_draws_the_soft_sampling_uniforms() {
    // The check above would pass vacuously if no module drew anything:
    // HAP's training pass must move the stream, and its eval pass not.
    let mut rng = Rng::from_seed(3);
    let mut store = ParamStore::<f64>::new();
    let module = HapCoarsen::new(&mut store, "hap", DIM, 3, &mut rng);
    let g = generators::erdos_renyi_connected(6, 0.5, &mut rng);
    let x = Tensor::rand_uniform(6, DIM, -1.0, 1.0, &mut rng);
    let untouched = Rng::from_seed(9).next_u64();
    let (_, after_eval) = pass(&module, &g, &x, false, false, true, 9);
    let (_, after_training) = pass(&module, &g, &x, false, true, true, 9);
    assert_eq!(after_eval, untouched);
    assert_ne!(after_training, untouched);
}
