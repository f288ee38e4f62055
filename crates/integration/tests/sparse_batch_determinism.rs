//! Differential tests for the sparse/batched execution contract
//! (ARCHITECTURE.md "CSR adjacency" and "Block-diagonal batching").
//!
//! The contract is threefold and stronger than numerical closeness:
//!
//! 1. **Sparse = dense, bitwise.** `CsrMatrix::spmm` walks each row's
//!    stored columns in ascending order — the same FMA sequence the dense
//!    zero-skipping GEMM performs — so the CSR path must be byte-identical
//!    to the dense product on the same operands, forward and backward.
//! 2. **Fixed-graph layers = their dense formulations, bitwise.** GCN
//!    over the cached CSR `Â` matches a dense `constant`+`matmul`
//!    oracle, and edge-list GAT matches a dense attention with an
//!    additive `-1e9` mask on non-edges, forward and backward, in `f64`
//!    and `f32`, from the edgeless graph to the complete one.
//! 3. **Batched = looped, bitwise.** A block-diagonal `BatchGraph`
//!    forward must reproduce every per-graph embedding bit-for-bit, at
//!    any batch composition and for either encoder kind.
//! 4. **Sparse level-0 coarsening = dense, bitwise.** HAP's `A' = MᵀAM`
//!    over a fixed graph multiplies `Mᵀ` by the graph's raw-`A` CSR; it
//!    must match the dense `Mᵀ·A` oracle in `A'`, `H'`, `dH` and every
//!    parameter gradient, in eval and Gumbel training mode, `f64` and
//!    `f32`.
//!
//! Every property must additionally hold across thread counts
//! (`HAP_THREADS=1` vs a multi-worker pool), because the sparse kernel
//! has its own parallel row-block dispatch. Problem sizes below include
//! cases above the `nnz·m ≥ 250 000` parallel crossover so the parallel
//! code path genuinely executes.

use hap_autograd::{Param, ParamStore, Tape, Var};
use hap_core::{HapClassifier, HapCoarsen, HapConfig, HapModel};
use hap_gnn::{AdjacencyRef, BatchGraph, EncoderKind, GatLayer, GcnLayer, GnnEncoder};
use hap_graph::{degree_one_hot, generators, Graph, GraphScalar};
use hap_pooling::{CoarsenModule, PoolCtx};
use hap_rand::Rng;
use hap_tensor::{CsrMatrix, Scalar, Tensor};
use std::sync::Arc;
use std::sync::Mutex;

/// The thread-count override is process-global; tests that flip it must
/// not interleave, so every test body runs under this lock.
static THREAD_TOGGLE: Mutex<()> = Mutex::new(());

/// Runs `f` under `HAP_THREADS=1` semantics and again on a 4-worker pool,
/// returning both results.
fn seq_and_par<T>(mut f: impl FnMut() -> T) -> (T, T) {
    let _guard = THREAD_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    hap_par::set_threads(1);
    let seq = f();
    hap_par::set_threads(4);
    let par = f();
    hap_par::set_threads(1);
    (seq, par)
}

fn assert_bits_equal<T: Scalar>(what: &str, a: &Tensor<T>, b: &Tensor<T>) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape changed");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        // Widening f32 → f64 is exact, so this compares f32 bits too.
        assert_eq!(
            x.to_f64().to_bits(),
            y.to_f64().to_bits(),
            "{what}: element {i} differs: {x} vs {y}"
        );
    }
}

/// A random symmetric matrix with ~`density` non-zero off-diagonal mass
/// and a positive diagonal — the shape class `Â` lives in.
fn random_symmetric(n: usize, density: f64, seed: u64) -> Tensor {
    let mut rng = Rng::from_seed(seed);
    let mut m = Tensor::zeros(n, n);
    for i in 0..n {
        m[(i, i)] = 0.5 + rng.gen_f64();
        for j in (i + 1)..n {
            if rng.gen_f64() < density {
                let w = rng.gen_f64() - 0.5;
                m[(i, j)] = w;
                m[(j, i)] = w;
            }
        }
    }
    m
}

#[test]
fn spmm_is_bitwise_equal_to_dense_matmul_across_thread_counts() {
    // (n, density, m): the last case has nnz·m well above the parallel
    // crossover; the first is the degenerate 1×1.
    for (n, density, m, seed) in [
        (1, 1.0, 1, 1),
        (30, 0.15, 8, 2),
        (120, 0.08, 16, 3),
        (300, 0.15, 64, 4),
    ] {
        let dense = random_symmetric(n, density, seed);
        let csr = CsrMatrix::from_dense(&dense);
        assert!(csr.is_symmetric());
        let mut rng = Rng::from_seed(seed + 100);
        let h = Tensor::rand_uniform(n, m, -1.0, 1.0, &mut rng);
        let (seq, par) = seq_and_par(|| (csr.spmm(&h), dense.matmul(&h)));
        assert_bits_equal(&format!("spmm n={n} seq vs dense"), &seq.0, &seq.1);
        assert_bits_equal(&format!("spmm n={n} par vs dense"), &par.0, &par.1);
        assert_bits_equal(&format!("spmm n={n} across threads"), &seq.0, &par.0);
    }
}

#[test]
fn spmm_backward_matches_dense_tape_path_across_thread_counts() {
    // Tape-level differential: y = S·H·W through `tape.spmm` vs through a
    // dense constant + matmul. Value and dH must agree bit-for-bit at
    // both thread settings. The second size (about 580k multiply-adds)
    // takes SpMM's parallel path.
    for (n, m) in [(220, 24), (300, 64)] {
        spmm_backward_case(n, m);
    }
}

fn spmm_backward_case(n: usize, m: usize) {
    let dense = random_symmetric(n, 0.1, 7);
    let csr = Arc::new(CsrMatrix::from_dense(&dense));
    let mut rng = Rng::from_seed(8);
    let h0 = Tensor::rand_uniform(n, m, -1.0, 1.0, &mut rng);
    let w0 = Tensor::rand_uniform(m, m, -1.0, 1.0, &mut rng);

    let run = |sparse: bool| {
        let mut tape = Tape::new();
        let h = tape.constant(h0.clone());
        let w = tape.constant(w0.clone());
        let agg = if sparse {
            tape.spmm(&csr, h)
        } else {
            let s = tape.constant(dense.clone());
            tape.matmul(s, h)
        };
        let y = tape.matmul(agg, w);
        let sq = tape.hadamard(y, y);
        let loss = tape.sum_all(sq);
        tape.backward(loss);
        (tape.value(y), tape.grad(h))
    };

    let (seq, par) = seq_and_par(|| (run(true), run(false)));
    let ((sp_y, sp_g), (dn_y, dn_g)) = seq;
    assert_bits_equal("value seq sparse vs dense", &sp_y, &dn_y);
    assert_bits_equal("grad seq sparse vs dense", &sp_g, &dn_g);
    let ((pp_y, pp_g), _) = par;
    assert_bits_equal("value across threads", &sp_y, &pp_y);
    assert_bits_equal("grad across threads", &sp_g, &pp_g);
}

#[test]
fn batched_embeddings_match_looped_across_thread_counts() {
    // A deliberately awkward batch: a single isolated node, an empty-edge
    // graph, and two random graphs of different sizes — exercising the
    // n = 1 and zero-edge corners of the block-diagonal path.
    let dim = 6;
    let mut grng = Rng::from_seed(21);
    let graphs: Vec<Graph> = vec![
        Graph::empty(1),
        Graph::empty(5),
        generators::erdos_renyi_connected(9, 0.3, &mut grng),
        generators::erdos_renyi_connected(14, 0.2, &mut grng),
    ];
    let features: Vec<Tensor> = graphs.iter().map(|g| degree_one_hot(g, dim)).collect();

    let (seq, par) = seq_and_par(|| {
        let mut rng = Rng::from_seed(5);
        let mut store = ParamStore::new();
        let cfg = HapConfig::new(dim, 8).with_clusters(&[4, 2]);
        let model = HapModel::new(&mut store, &cfg, &mut rng);
        let clf = HapClassifier::new(&mut store, model, 2, &mut rng);

        let mut ctx_rng = Rng::from_seed(9);
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut ctx_rng,
        };
        let looped: Vec<Tensor> = graphs
            .iter()
            .zip(&features)
            .map(|(g, x)| clf.try_embedding(g, x, &mut ctx).expect("looped embed"))
            .collect();

        let items: Vec<(&Graph, &Tensor)> = graphs.iter().zip(features.iter()).collect();
        let mut ctx_rng = Rng::from_seed(9);
        let mut ctx = PoolCtx {
            training: false,
            rng: &mut ctx_rng,
        };
        let batched = clf.try_embeddings(&items, &mut ctx).expect("batched embed");
        (looped, batched)
    });

    for (mode, (looped, batched)) in [("seq", &seq), ("par", &par)] {
        assert_eq!(looped.len(), batched.len());
        for (k, (l, b)) in looped.iter().zip(batched).enumerate() {
            assert_bits_equal(&format!("{mode} graph {k} batched vs looped"), l, b);
        }
    }
    for (k, (s, p)) in seq.1.iter().zip(&par.1).enumerate() {
        assert_bits_equal(&format!("graph {k} batched across threads"), s, p);
    }
}

/// The graphs the fixed-graph differential tests sweep: the degenerate
/// corners, Erdős–Rényi from sparse to dense (the densest above the
/// SpMM parallel crossover at width 16), a weighted graph with self-loops
/// (so `Â`'s factor order shows in its bits), and a clique (density 1.0).
fn sweep_graphs() -> Vec<(String, Graph)> {
    let mut rng = Rng::from_seed(31);
    let mut out = vec![
        ("edgeless".to_string(), Graph::empty(6)),
        ("n=1".to_string(), Graph::empty(1)),
    ];
    for p in [0.05, 0.3, 0.6] {
        let g = generators::erdos_renyi(120, p, &mut rng);
        out.push((format!("er p={p}"), g));
    }
    let mut weighted = generators::erdos_renyi(40, 0.2, &mut rng);
    for (u, v) in weighted.edges() {
        weighted.add_weighted_edge(u, v, 0.25 + rng.gen_f64());
    }
    for u in (0..40).step_by(5) {
        weighted.add_weighted_edge(u, u, 0.5 + rng.gen_f64());
    }
    out.push(("weighted".to_string(), weighted));
    out.push(("clique".to_string(), generators::clique(100)));
    out
}

/// A value, the input gradient and every parameter gradient of one
/// forward + backward over `loss = Σ out²`.
fn forward_backward<T: GraphScalar>(
    store: &ParamStore<T>,
    x: &Tensor<T>,
    forward: impl FnOnce(&mut Tape<T>, Var) -> Var,
) -> Vec<Tensor<T>> {
    store.zero_grads();
    let mut t = Tape::new();
    let h = t.constant(x.clone());
    let out = forward(&mut t, h);
    let sq = t.hadamard(out, out);
    let loss = t.sum_all(sq);
    t.backward(loss);
    let mut res = vec![t.value(out), t.grad(h)];
    res.extend(store.iter().map(Param::grad));
    res
}

fn gcn_matches_dense_oracle<T: GraphScalar>() {
    for (label, g) in sweep_graphs() {
        let mut rng = Rng::from_seed(41);
        let mut store = ParamStore::<T>::new();
        let layer = GcnLayer::new(&mut store, "gcn", 16, 8, &mut rng);
        let w = store.iter().next().expect("weight").clone();
        let x = Tensor::<T>::rand_uniform(g.n(), 16, -1.0, 1.0, &mut rng);
        let (seq, par) = seq_and_par(|| {
            let csr = forward_backward(&store, &x, |t, h| {
                layer.forward(t, AdjacencyRef::Fixed(&g), h)
            });
            // The dense oracle: Â as a tape constant, then matmul.
            let dense = forward_backward(&store, &x, |t, h| {
                let a = t.constant(g.sym_norm_adjacency().cast::<T>());
                let agg = t.matmul(a, h);
                let wv = t.param(&w);
                let lin = t.matmul(agg, wv);
                t.relu(lin)
            });
            (csr, dense)
        });
        for (mode, (csr, dense)) in [("seq", &seq), ("par", &par)] {
            for (k, what) in ["value", "dH", "dW"].iter().enumerate() {
                let tag = format!("gcn {label} {mode} {what}");
                assert_bits_equal(&tag, &csr[k], &dense[k]);
            }
        }
        assert_bits_equal(&format!("gcn {label} across threads"), &seq.0[0], &par.0[0]);
    }
}

#[test]
fn gcn_csr_forward_and_backward_match_dense_oracle() {
    gcn_matches_dense_oracle::<f64>();
    gcn_matches_dense_oracle::<f32>();
}

/// One level-0 HAP coarsening forward + backward over
/// `loss = Σ A'² + Σ H'²`, so the gradient reaches `Mᵀ` through both
/// products: `A'`, `H'`, `dH` and every GCont/MOA parameter gradient.
/// `fixed` takes the graph as `AdjacencyRef::Fixed` (the raw-`A` CSR
/// product); otherwise the dense oracle puts `A` on the tape and
/// multiplies densely.
fn coarsen_level0<T: GraphScalar>(
    module: &HapCoarsen<T>,
    store: &ParamStore<T>,
    g: &Graph,
    x: &Tensor<T>,
    training: bool,
    fixed: bool,
) -> Vec<Tensor<T>> {
    store.zero_grads();
    // Both runs draw the same Gumbel noise.
    let mut rng = Rng::from_seed(52);
    let mut t = Tape::new();
    let h = t.constant(x.clone());
    let adj = if fixed {
        AdjacencyRef::Fixed(g)
    } else {
        AdjacencyRef::Dynamic(t.constant(T::adjacency_of(g)))
    };
    let mut ctx = PoolCtx {
        training,
        rng: &mut rng,
    };
    let (a2, h2) = module.forward(&mut t, adj, h, &mut ctx);
    let sa = t.hadamard(a2, a2);
    let la = t.sum_all(sa);
    let sh = t.hadamard(h2, h2);
    let lh = t.sum_all(sh);
    let loss = t.add(la, lh);
    t.backward(loss);
    let mut res = vec![t.value(a2), t.value(h2), t.grad(h)];
    res.extend(store.iter().map(Param::grad));
    res
}

fn coarsen_level0_matches_dense_oracle<T: GraphScalar>() {
    for (label, g) in sweep_graphs() {
        let mut rng = Rng::from_seed(51);
        let mut store = ParamStore::<T>::new();
        // 16 clusters put the densest graphs' SpMM (nnz · 16) and the
        // dense oracle's GEMM above the parallel crossover.
        let module = HapCoarsen::new(&mut store, "hc", 16, 16, &mut rng);
        let x = Tensor::<T>::rand_uniform(g.n(), 16, -1.0, 1.0, &mut rng);
        for training in [false, true] {
            let (seq, par) = seq_and_par(|| {
                (
                    coarsen_level0(&module, &store, &g, &x, training, true),
                    coarsen_level0(&module, &store, &g, &x, training, false),
                )
            });
            for (mode, (csr, dense)) in [("seq", &seq), ("par", &par)] {
                assert_eq!(csr.len(), dense.len());
                for (k, (c, d)) in csr.iter().zip(dense).enumerate() {
                    let what = ["A'", "H'", "dH"].get(k).copied().unwrap_or("param grad");
                    let tag = format!("coarsen {label} training={training} {mode} {what} #{k}");
                    assert_bits_equal(&tag, c, d);
                }
            }
            for (k, (s, p)) in seq.0.iter().zip(&par.0).enumerate() {
                let tag = format!("coarsen {label} training={training} across threads #{k}");
                assert_bits_equal(&tag, s, p);
            }
        }
    }
}

#[test]
fn coarsen_level0_csr_matches_dense_oracle() {
    coarsen_level0_matches_dense_oracle::<f64>();
    coarsen_level0_matches_dense_oracle::<f32>();
}

/// Additive mask value of the dense GAT oracle for non-admitted pairs.
const NEG_MASK: f64 = -1e9;

/// The dense GAT formulation the edge-list layer replaced: `n × n` logits
/// `s1_i + s2_j` built by broadcasting, an additive [`NEG_MASK`] on every
/// pair `admitted` rejects, a row softmax and a dense aggregation. The
/// params are the layer's own `[W, a_src, a_dst]`, bound in the layer's
/// order.
fn dense_gat<T: GraphScalar>(
    t: &mut Tape<T>,
    params: &[Param<T>],
    admitted: &impl Fn(usize, usize) -> bool,
    h: Var,
) -> Var {
    let n = t.shape(h).0;
    let w = t.param(&params[0]);
    let wh = t.matmul(h, w);
    let a_src = t.param(&params[1]);
    let a_dst = t.param(&params[2]);
    let s1 = t.matmul(wh, a_src);
    let s2 = t.matmul(wh, a_dst);
    let zeros = t.constant(Tensor::zeros(n, n));
    let s2t = t.transpose(s2);
    let e = t.add_row(zeros, s2t);
    let e = t.add_col(e, s1);
    let e = t.leaky_relu(e, 0.2);
    let mut mask = Tensor::full(n, n, T::from_f64(NEG_MASK));
    for u in 0..n {
        for v in 0..n {
            if u == v || admitted(u, v) {
                mask[(u, v)] = T::ZERO;
            }
        }
    }
    let mask = t.constant(mask);
    let e = t.add(e, mask);
    let alpha = t.softmax_rows(e);
    let agg = t.matmul(alpha, wh);
    t.relu(agg)
}

/// Soft-sampled-style dense adjacencies for the `Dynamic` path: mostly
/// positive weights, with exact zeros and sub-threshold entries mixed in.
fn dynamic_adjacencies<T: GraphScalar>() -> Vec<Tensor<T>> {
    let mut rng = Rng::from_seed(61);
    [1usize, 5, 16]
        .iter()
        .map(|&n| {
            let mut a = Tensor::<T>::rand_uniform(n, n, 0.0, 1.0, &mut rng);
            for u in 0..n {
                for v in 0..n {
                    match (u * 7 + v * 3) % 5 {
                        0 => a[(u, v)] = T::ZERO,
                        1 => a[(u, v)] = T::from_f64(1e-9),
                        _ => {}
                    }
                }
            }
            a
        })
        .collect()
}

/// The structure a GAT differential case attends over.
#[derive(Clone, Copy)]
enum Structure<'a, T: Scalar> {
    Fixed(&'a Graph),
    Dynamic(&'a Tensor<T>),
}

/// Edge-list GAT over `structure` vs [`dense_gat`] masked by `admitted`:
/// value, dH and every parameter gradient, at both thread counts.
fn check_gat<T: GraphScalar>(
    label: &str,
    structure: Structure<'_, T>,
    admitted: impl Fn(usize, usize) -> bool,
) {
    let n = match structure {
        Structure::Fixed(g) => g.n(),
        Structure::Dynamic(a) => a.rows(),
    };
    let mut rng = Rng::from_seed(43);
    let mut store = ParamStore::<T>::new();
    let layer = GatLayer::new(&mut store, "gat", 16, 8, &mut rng);
    let params: Vec<Param<T>> = store.iter().cloned().collect();
    let x = Tensor::<T>::rand_uniform(n, 16, -1.0, 1.0, &mut rng);
    let (seq, par) = seq_and_par(|| {
        let edges = forward_backward(&store, &x, |t, h| {
            let adj = match structure {
                Structure::Fixed(g) => AdjacencyRef::Fixed(g),
                Structure::Dynamic(a) => AdjacencyRef::Dynamic(t.constant(a.clone())),
            };
            layer.forward(t, adj, h)
        });
        let dense = forward_backward(&store, &x, |t, h| dense_gat(t, &params, &admitted, h));
        (edges, dense)
    });
    for (mode, (edges, dense)) in [("seq", &seq), ("par", &par)] {
        for (k, what) in ["value", "dH", "dW", "da_src", "da_dst"].iter().enumerate() {
            let tag = format!("gat {label} {mode} {what}");
            assert_bits_equal(&tag, &edges[k], &dense[k]);
        }
    }
}

fn gat_matches_dense_oracle<T: GraphScalar>() {
    for (label, g) in sweep_graphs() {
        let csr = T::csr_of(&g);
        check_gat(
            &format!("fixed {label}"),
            Structure::<T>::Fixed(&g),
            |u, v| csr.row(u).0.contains(&v),
        );
    }
    for a in dynamic_adjacencies::<T>() {
        check_gat(
            &format!("dynamic n={}", a.rows()),
            Structure::Dynamic(&a),
            |u, v| a[(u, v)].to_f64() > 1e-8,
        );
    }
}

#[test]
fn gat_edge_attention_matches_dense_mask_oracle() {
    gat_matches_dense_oracle::<f64>();
    gat_matches_dense_oracle::<f32>();
}

fn gat_batch_matches_loop<T: GraphScalar>() {
    let graphs = sweep_graphs();
    let mut rng = Rng::from_seed(51);
    let mut store = ParamStore::<T>::new();
    let enc = GnnEncoder::new(&mut store, "enc", EncoderKind::Gat, &[16, 8, 8], &mut rng);
    let xs: Vec<Tensor<T>> = graphs
        .iter()
        .map(|(_, g)| Tensor::rand_uniform(g.n(), 16, -1.0, 1.0, &mut rng))
        .collect();
    let (seq, par) = seq_and_par(|| {
        let gs: Vec<&Graph> = graphs.iter().map(|(_, g)| g).collect();
        let xr: Vec<&Tensor<T>> = xs.iter().collect();
        let batch = BatchGraph::new(&gs, &xr);
        let mut tb = Tape::new();
        let h = tb.constant(batch.features().clone());
        let hb = enc.forward_batch(&mut tb, &batch, h);
        let batched = tb.value(hb);
        let looped: Vec<Tensor<T>> = gs
            .iter()
            .zip(&xs)
            .map(|(g, x)| {
                let mut t = Tape::new();
                let h = t.constant(x.clone());
                let out = enc.forward(&mut t, AdjacencyRef::Fixed(g), h);
                t.value(out)
            })
            .collect();
        (batch, batched, looped)
    });
    for (mode, (batch, batched, looped)) in [("seq", &seq), ("par", &par)] {
        for (b, single) in looped.iter().enumerate() {
            let rows = batch.node_range(b);
            let block = batched.slice_rows(rows.start, rows.end);
            let tag = format!("gat batch {mode} graph {}", graphs[b].0);
            assert_bits_equal(&tag, &block, single);
        }
    }
    assert_bits_equal("gat batch across threads", &seq.1, &par.1);
}

#[test]
fn gat_forward_batch_matches_per_graph_loop() {
    gat_batch_matches_loop::<f64>();
    gat_batch_matches_loop::<f32>();
}
