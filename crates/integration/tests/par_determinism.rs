//! Differential determinism tests for the `hap-par` kernel layer.
//!
//! The workspace's parallelism contract (DESIGN.md "Thread-count
//! invariance") is that every parallel kernel partitions work so each
//! output cell is written by exactly one worker in the sequential kernel's
//! arithmetic order — so `HAP_THREADS=1` and any multi-threaded setting
//! produce **byte-identical** f64 results, not merely close ones. These
//! tests run the hot paths once in forced-sequential mode and once on a
//! 4-worker pool and compare every output bit pattern.
//!
//! Each kernel has cases *above* its parallel crossover (`n = 200`
//! attention = 40 000-element score matrices, dense products from 640 000
//! multiply–adds, CSR SpMM from `nnz·m = 250 000`), so the parallel code
//! path genuinely executes regardless of the host's core count. Older
//! cases from before those thresholds moved stay beside them.

use hap_autograd::{ParamStore, Tape};
use hap_core::{HapCoarsen, Moa};
use hap_gnn::{AdjacencyRef, GatLayer};
use hap_graph::generators;
use hap_pooling::{CoarsenModule, PoolCtx};
use hap_rand::Rng;
use hap_tensor::Tensor;
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

fn assert_bits_equal(what: &str, seq: &Tensor, par: &Tensor) {
    assert_eq!(seq.shape(), par.shape(), "{what}: shape changed");
    for (i, (a, b)) in seq.as_slice().iter().zip(par.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: element {i} differs: seq {a} vs par {b}"
        );
    }
}

#[test]
fn matmul_is_byte_identical_across_thread_counts() {
    let mut rng = Rng::from_seed(11);
    // 120×80 · 80×60 = 576k multiply-adds — far above the parallel
    // crossover.
    let a = Tensor::rand_uniform(120, 80, -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(80, 60, -1.0, 1.0, &mut rng);
    let (seq, par) = seq_and_par(|| a.matmul(&b));
    assert_bits_equal("matmul", &seq, &par);
    // 200×40·40×100 = 800k multiply-adds: above the 640k crossover.
    let a = Tensor::rand_uniform(200, 40, -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(40, 100, -1.0, 1.0, &mut rng);
    let (seq, par) = seq_and_par(|| a.matmul(&b));
    assert_bits_equal("matmul 200x40x100", &seq, &par);
}

#[test]
fn csr_spmm_is_byte_identical_across_thread_counts() {
    // A 300-node graph with ~14k stored entries times 32 columns: about
    // 450k multiply-adds, above SpMM's 250k crossover.
    let mut rng = Rng::from_seed(18);
    let g = generators::erdos_renyi_connected(300, 0.15, &mut rng);
    let csr = std::sync::Arc::clone(g.csr_adjacency_cached().matrix());
    let h = Tensor::rand_uniform(300, 32, -1.0, 1.0, &mut rng);
    assert!(csr.nnz() * 32 >= 250_000, "case must cross the crossover");
    let (seq, par) = seq_and_par(|| csr.spmm(&h));
    assert_bits_equal("csr spmm", &seq, &par);
}

#[test]
fn fused_transposed_matmuls_match_composed_path_bitwise() {
    // The fused kernels' contract (DESIGN.md "Fused transposed GEMM") is
    // stronger than thread-count invariance: `a.matmul_nt(&b)` must be
    // byte-identical to `a.matmul(&b.transpose())` and `a.matmul_tn(&b)` to
    // `a.transpose().matmul(&b)` at *every* thread setting, so the autograd
    // tape can swap the composed pair for one fused node without perturbing
    // training goldens. Shapes cover below- and above-crossover sizes, tall,
    // wide, and degenerate single-row/column cases.
    let mut rng = Rng::from_seed(17);
    let shapes: [(usize, usize, usize); 7] = [
        (1, 1, 1),
        (3, 5, 2),
        (64, 64, 64),
        (120, 80, 60),
        (7, 300, 150),
        (200, 16, 200),
        (160, 50, 120),
    ];
    for (n, k, m) in shapes {
        // NT: (n×k) · (m×k)ᵀ.
        let a = Tensor::rand_uniform(n, k, -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(m, k, -2.0, 2.0, &mut rng);
        let (seq, par) = seq_and_par(|| (a.matmul_nt(&b), a.matmul(&b.transpose())));
        assert_bits_equal(
            &format!("matmul_nt {n}x{k}x{m} seq vs composed"),
            &seq.0,
            &seq.1,
        );
        assert_bits_equal(
            &format!("matmul_nt {n}x{k}x{m} par vs composed"),
            &par.0,
            &par.1,
        );
        assert_bits_equal(
            &format!("matmul_nt {n}x{k}x{m} across threads"),
            &seq.0,
            &par.0,
        );

        // TN: (k×n)ᵀ · (k×m).
        let c = Tensor::rand_uniform(k, n, -2.0, 2.0, &mut rng);
        let d = Tensor::rand_uniform(k, m, -2.0, 2.0, &mut rng);
        let (seq, par) = seq_and_par(|| (c.matmul_tn(&d), c.transpose().matmul(&d)));
        assert_bits_equal(
            &format!("matmul_tn {k}x{n}x{m} seq vs composed"),
            &seq.0,
            &seq.1,
        );
        assert_bits_equal(
            &format!("matmul_tn {k}x{n}x{m} par vs composed"),
            &par.0,
            &par.1,
        );
        assert_bits_equal(
            &format!("matmul_tn {k}x{n}x{m} across threads"),
            &seq.0,
            &par.0,
        );
    }
}

#[test]
fn elementwise_kernels_are_byte_identical_across_thread_counts() {
    let mut rng = Rng::from_seed(12);
    let a = Tensor::<f64>::rand_uniform(250, 200, -3.0, 3.0, &mut rng); // 50k elements
    let b = Tensor::rand_uniform(250, 200, -3.0, 3.0, &mut rng);
    let (seq, par) = seq_and_par(|| {
        (
            a.map(|x| (x * 1.7).tanh()),
            a.try_add(&b).unwrap(),
            a.softmax_rows(),
        )
    });
    assert_bits_equal("map", &seq.0, &par.0);
    assert_bits_equal("add", &seq.1, &par.1);
    assert_bits_equal("softmax_rows", &seq.2, &par.2);
}

#[test]
fn self_attention_is_byte_identical_across_thread_counts() {
    // The benchmarked hot path: GAT attention on a 200-node graph.
    let make = || {
        let mut rng = Rng::from_seed(13);
        let mut store = ParamStore::new();
        let layer = GatLayer::new(&mut store, "gat", 16, 16, &mut rng);
        let g = generators::erdos_renyi_connected(200, 0.05, &mut rng);
        let h = Tensor::rand_uniform(200, 16, -1.0, 1.0, &mut rng);
        (layer, g, h)
    };
    let (seq, par) = seq_and_par(|| {
        let (layer, g, h) = make();
        let mut t = Tape::new();
        let hv = t.constant(h);
        layer.attention(&mut t, AdjacencyRef::Fixed(&g), hv)
    });
    assert_bits_equal("self_attention", &seq, &par);
}

#[test]
fn moa_forward_is_byte_identical_across_thread_counts() {
    // n = 300: MOA's column selection is sequential, and its products are
    // below the pool's crossover, so this pins that nothing in the
    // forward depends on the thread count.
    let (seq, par) = seq_and_par(|| {
        let mut rng = Rng::from_seed(14);
        let mut store = ParamStore::new();
        let moa = Moa::new(&mut store, "moa", 6, &mut rng);
        let c = Tensor::rand_uniform(300, 6, -1.0, 1.0, &mut rng);
        let mut t = Tape::new();
        let cv = t.constant(c);
        let m = moa.forward(&mut t, cv);
        t.value(m)
    });
    assert_bits_equal("moa_forward", &seq, &par);
}

#[test]
fn coarsen_forward_and_backward_are_byte_identical_across_thread_counts() {
    // Forward through a full HAP coarsening module on a 200-node graph
    // (Eqs. 13–19), then backward; gradients must match bit-for-bit too.
    let (seq, par) = seq_and_par(|| {
        let mut rng = Rng::from_seed(15);
        let mut store = ParamStore::new();
        let module = HapCoarsen::new(&mut store, "hc", 16, 8, &mut rng);
        let g = generators::erdos_renyi_connected(200, 0.05, &mut rng);
        let h = Tensor::rand_uniform(200, 16, -1.0, 1.0, &mut rng);

        let mut t = Tape::new();
        let hv = t.constant(h);
        let mut ctx = PoolCtx {
            training: false, // deterministic: no Gumbel draws
            rng: &mut rng,
        };
        let (a2, h2) = module.forward(&mut t, AdjacencyRef::Fixed(&g), hv, &mut ctx);
        let prod = t.hadamard(h2, h2);
        let loss = t.sum_all(prod);
        t.backward(loss);

        let mut outs = vec![t.value(a2), t.value(h2)];
        for p in store.iter() {
            outs.push(p.grad().clone());
        }
        outs
    });
    assert_eq!(seq.len(), par.len());
    for (k, (s, p)) in seq.iter().zip(&par).enumerate() {
        assert_bits_equal(&format!("coarsen output/grad {k}"), s, p);
    }
}

#[test]
fn batched_ged_is_byte_identical_across_thread_counts() {
    use hap_ged::{batch_ged, EditCosts, GedMethod};
    let mut rng = Rng::from_seed(16);
    let graphs: Vec<_> = (0..12)
        .map(|_| generators::erdos_renyi_connected(8, 0.4, &mut rng))
        .collect();
    let pairs: Vec<_> = graphs.iter().zip(graphs.iter().cycle().skip(1)).collect();
    let costs = EditCosts::uniform();
    for method in [GedMethod::Beam(8), GedMethod::Hungarian, GedMethod::Vj] {
        let (seq, par) = seq_and_par(|| batch_ged(&pairs, method, &costs));
        for (k, (a, b)) in seq.iter().zip(&par).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{method:?} pair {k}: seq {a} vs par {b}"
            );
        }
    }
}
