//! MOA — Master-Orthogonal Attention (Sec. 4.4.2, Eqs. 14–15).

use hap_autograd::{Param, ParamStore, Tape, Var, GATHER_PAD};
use hap_nn::xavier_uniform;
use hap_rand::Rng;
use hap_tensor::{Scalar, Tensor};
use std::cmp::Reverse;

/// The cross-level attention mechanism between rows (source nodes) and
/// columns (target clusters) of the GCont matrix `C`:
///
/// `M_ij = LeakyReLU(aᵀ [C_(i,·) ‖ C_(·,j)])`  (Eq. 14), then row
/// softmax (Eq. 15).
///
/// **Relaxation (Claim 3).** The raw concatenation would need
/// `a ∈ R^{N+N'}`, which depends on the input's node count; the paper
/// relaxes it to `a ∈ R^{2N'}` by reducing the column vector
/// `C_(·,j) ∈ R^N` to `N'` entries (zero-padding when `N < N'`). Which
/// `N'` of the `N` entries survive is unspecified in the paper; this
/// implementation keeps the **`N'` largest entries, in descending
/// order**. This choice (a) realises the zero-padding argument of
/// Proof 3 exactly when `N ≤ N'` — verified by a unit test below — and
/// (b) is a *symmetric function of the column*, which is what makes the
/// coarsening module permutation invariant (Claim 2); a truncation tied
/// to node positions would break invariance.
///
/// Splitting `a = [a₁; a₂]`, the logits decompose as
/// `M_ij = LeakyReLU((C·a₁)_i + (Ĉ_j·a₂))` where `Ĉ_j` is the reduced
/// column — computed with two small matmuls instead of materialising the
/// `N×N'×2N'` concatenation. The `N'×N'` matrix of reduced columns is a
/// single tape node, whatever `N'` is.
pub struct Moa<T: Scalar = f64> {
    /// `a₁ ∈ R^{N'}` — weights for the row (node) part.
    a_row: Param<T>,
    /// `a₂ ∈ R^{N'}` — weights for the reduced column (cluster) part.
    a_col: Param<T>,
    clusters: usize,
    leaky_slope: f64,
}

impl<T: Scalar> Moa<T> {
    /// Creates the attention parameters for `clusters` target clusters.
    ///
    /// # Panics
    /// Panics when `clusters == 0`.
    pub fn new(store: &mut ParamStore<T>, name: &str, clusters: usize, rng: &mut Rng) -> Self {
        assert!(clusters > 0, "cluster count must be positive");
        Self {
            a_row: store.new_param(format!("{name}.a_row"), xavier_uniform(clusters, 1, rng)),
            a_col: store.new_param(format!("{name}.a_col"), xavier_uniform(clusters, 1, rng)),
            clusters,
            leaky_slope: 0.2,
        }
    }

    /// Number of target clusters `N'`.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Reduces each column of `C` to its `N'` largest entries (descending,
    /// zero-padded), returning an `N'×N'` matrix whose row `j` is `Ĉ_j`.
    /// The matrix is one [`Tape::gather_entries`] node over `C`, so the
    /// tape does not grow with `N'`.
    ///
    /// Order: value descending by [`Scalar::total_cmp`] (an upstream NaN
    /// sorts above `+∞` and surfaces as a NaN logit), then row ascending.
    /// The `N'` largest are selected before only they are sorted.
    fn reduced_columns(&self, tape: &mut Tape<T>, c: Var) -> Var {
        let (n, nc) = tape.shape(c);
        debug_assert_eq!(nc, self.clusters);
        let vals = tape.value(c);
        let vals = vals.as_slice();

        // Row `j` of `src` holds the flat indices of column `j`'s entries
        // in that order; past `N` it stays `GATHER_PAD` (the zero padding).
        let mut src = vec![GATHER_PAD; nc * nc];
        let mut order: Vec<(Reverse<i64>, usize)> = Vec::with_capacity(n);
        for (j, row) in src.chunks_mut(nc).enumerate() {
            order.clear();
            order.extend((0..n).map(|r| (Reverse(vals[r * nc + j].total_key()), r)));
            if n > nc {
                order.select_nth_unstable(nc - 1);
                order.truncate(nc);
            }
            order.sort_unstable();
            for (slot, &(_, r)) in row.iter_mut().zip(&order) {
                *slot = r * nc + j;
            }
        }
        tape.gather_entries(c, nc, nc, src) // N'×N'
    }

    /// Computes the raw (pre-softmax) attention logits `N×N'`.
    pub fn logits(&self, tape: &mut Tape<T>, c: Var) -> Var {
        let (n, nc) = tape.shape(c);
        assert_eq!(
            nc, self.clusters,
            "content matrix has {nc} columns, MOA expects {}",
            self.clusters
        );
        let a_row = tape.param(&self.a_row); // N'×1
        let a_col = tape.param(&self.a_col);

        let row_part = tape.matmul(c, a_row); // N×1: (C·a₁)_i
        let reduced = self.reduced_columns(tape, c); // N'×N'
        let col_part = tape.matmul(reduced, a_col); // N'×1: Ĉ_j·a₂
        let col_part_row = tape.transpose(col_part); // 1×N'

        let zeros = tape.constant(Tensor::zeros(n, nc));
        let e = tape.add_row(zeros, col_part_row);
        let e = tape.add_col(e, row_part);
        tape.leaky_relu(e, self.leaky_slope)
    }

    /// The full MOA matrix: row-softmax of the logits (Eq. 15). Row `i`
    /// is node `i`'s attention distribution over the `N'` clusters.
    ///
    /// Under `HAP_TRACE` the attention matrix is scanned for non-finite
    /// entries — a degenerate softmax row (all `-∞` logits) is recorded at
    /// its source instead of surfacing later in the coarsened adjacency.
    pub fn forward(&self, tape: &mut Tape<T>, c: Var) -> Var {
        let _t = hap_obs::time_scope("core.moa");
        let e = self.logits(tape, c);
        let m = tape.softmax_rows(e);
        if hap_obs::trace_enabled() {
            hap_obs::check_finite("moa.attention", tape.value(m).as_slice());
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_graph::Permutation;
    use hap_rand::Rng;
    use hap_tensor::testutil::assert_close;

    fn make_moa(clusters: usize, seed: u64) -> (ParamStore, Moa) {
        let mut rng = Rng::from_seed(seed);
        let mut store = ParamStore::<f64>::new();
        let moa = Moa::new(&mut store, "moa", clusters, &mut rng);
        (store, moa)
    }

    #[test]
    fn rows_are_distributions() {
        let (_s, moa) = make_moa(3, 1);
        let mut rng = Rng::from_seed(2);
        let mut t = Tape::new();
        let c = t.constant(Tensor::rand_uniform(6, 3, -1.0, 1.0, &mut rng));
        let m = moa.forward(&mut t, c);
        let mv = t.value(m);
        assert_eq!(mv.shape(), (6, 3));
        for r in 0..6 {
            let s: f64 = mv.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        assert!(
            mv.min() > 0.0,
            "fully-connected channel: all weights positive"
        );
    }

    #[test]
    fn permutation_of_nodes_permutes_attention_rows() {
        // M(PC) = P·M(C): the column reduction is a symmetric function,
        // so permuting source nodes only permutes attention rows.
        let (_s, moa) = make_moa(3, 3);
        let mut rng = Rng::from_seed(4);
        let c = Tensor::rand_uniform(7, 3, -1.0, 1.0, &mut rng);
        let perm = Permutation::random(7, &mut rng);
        let cp = perm.apply_rows(&c);

        let mut t1 = Tape::new();
        let cv = t1.constant(c);
        let m1 = moa.forward(&mut t1, cv);
        let mut t2 = Tape::new();
        let cpv = t2.constant(cp);
        let m2 = moa.forward(&mut t2, cpv);

        let expected = perm.apply_rows(&t1.value(m1));
        assert_close(&expected, &t2.value(m2), 1e-10);
    }

    #[test]
    fn claim3_small_graph_matches_zero_padding() {
        // When N ≤ N', the reduction zero-pads — exactly Proof 3's
        // construction: the reduced column holds all N entries (sorted)
        // plus zeros. Verify against a manual zero-padded dot product.
        let (_s, moa) = make_moa(4, 5);
        let mut rng = Rng::from_seed(6);
        let c = Tensor::rand_uniform(2, 4, -1.0, 1.0, &mut rng); // N=2 < N'=4
        let mut t = Tape::new();
        let cv = t.constant(c.clone());
        let logits = moa.logits(&mut t, cv);
        let got = t.value(logits);

        let a1 = moa.a_row.value();
        let a2 = moa.a_col.value();
        for i in 0..2 {
            for j in 0..4 {
                let row_part: f64 = (0..4).map(|k| c[(i, k)] * a1[(k, 0)]).sum();
                // column j of C sorted descending, zero-padded to 4
                let mut col: Vec<f64> = (0..2).map(|r| c[(r, j)]).collect();
                col.sort_by(|a, b| b.total_cmp(a));
                col.resize(4, 0.0);
                let col_part: f64 = col.iter().zip(0..4).map(|(&v, k)| v * a2[(k, 0)]).sum();
                let pre = row_part + col_part;
                let expect = if pre >= 0.0 { pre } else { 0.2 * pre };
                assert!(
                    (got[(i, j)] - expect).abs() < 1e-10,
                    "logit ({i},{j}): {} vs {expect}",
                    got[(i, j)]
                );
            }
        }
    }

    #[test]
    fn gradients_reach_both_attention_parameters() {
        let (store, moa) = make_moa(3, 7);
        let mut rng = Rng::from_seed(8);
        let mut t = Tape::new();
        let c = t.constant(Tensor::rand_uniform(5, 3, -1.0, 1.0, &mut rng));
        let m = moa.forward(&mut t, c);
        // weight by a non-uniform constant so softmax grads are nonzero
        let w = t.constant(Tensor::rand_uniform(5, 3, 0.0, 1.0, &mut rng));
        let wm = t.hadamard(m, w);
        let loss = t.sum_all(wm);
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
    fn nan_content_no_longer_panics_column_reduction() {
        // Regression: the per-column sort in `reduced_columns` used
        // `partial_cmp(..).expect("non-NaN content")` and panicked on the
        // first NaN content entry. With `total_cmp` the NaN instead flows
        // through as a NaN logit the observability sentinel can attribute.
        let (_s, moa) = make_moa(3, 11);
        let mut rng = Rng::from_seed(12);
        let mut c = Tensor::rand_uniform(6, 3, -1.0, 1.0, &mut rng);
        c[(2, 1)] = f64::NAN;
        let mut t = Tape::new();
        let cv = t.constant(c);
        let logits = moa.logits(&mut t, cv);
        let v = t.value(logits);
        assert_eq!(v.shape(), (6, 3));
        assert!(
            v.as_slice().iter().any(|x| x.is_nan()),
            "the NaN must propagate into the logits instead of panicking"
        );
    }

    /// The column reduction as it was built before the single
    /// `gather_entries` node: per cluster a stable sort of the whole
    /// column, a gather, a transpose, a second gather and a second
    /// transpose, then `N'−1` row stacks. Kept as the oracle for the
    /// one-node form (its parallel sort branch, bitwise the sequential
    /// one, is gone with the production one).
    fn reduced_columns_oracle<T: Scalar>(clusters: usize, tape: &mut Tape<T>, c: Var) -> Var {
        let (n, nc) = tape.shape(c);
        debug_assert_eq!(nc, clusters);
        let ct = tape.transpose(c); // N'×N, row j = column j of C
        let vals = tape.value(ct);

        let vals = &vals;
        let compute_order = move |j: usize| -> Vec<usize> {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| vals[(j, b)].total_cmp(&vals[(j, a)]));
            order.truncate(clusters);
            order
        };
        let orders: Vec<Vec<usize>> = (0..nc).map(compute_order).collect();

        let mut rows: Vec<Var> = Vec::with_capacity(nc);
        for (j, order) in orders.into_iter().enumerate() {
            // gather the sorted entries of this column as a column vector
            let col_j = tape.gather_rows(ct, &[j]); // 1×N
            let col_j = tape.transpose(col_j); // N×1
            let picked = if n < clusters {
                // zero-pad: append a zero row and gather it repeatedly
                let zeros = tape.constant(Tensor::zeros(1, 1));
                let padded = tape.vstack(col_j, zeros);
                let mut idx = order.clone();
                idx.extend(std::iter::repeat(n).take(clusters - n));
                tape.gather_rows(padded, &idx)
            } else {
                tape.gather_rows(col_j, &order)
            }; // N'×1
            rows.push(tape.transpose(picked)); // 1×N'
        }
        let mut out = rows.remove(0);
        for r in rows {
            out = tape.vstack(out, r);
        }
        out // N'×N'
    }

    /// Runs `reduce` on `c` under a fixed downstream loss
    /// `sum((R ∘ W)²)` and returns the bits of `R` and of `dL/dC`.
    fn reduce_bits<T: Scalar>(
        c: &Tensor<T>,
        w: &Tensor<T>,
        reduce: impl FnOnce(&mut Tape<T>, Var) -> Var,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut t = Tape::new();
        let cv = t.constant(c.clone());
        let r = reduce(&mut t, cv);
        let wv = t.constant(w.clone());
        let z = t.hadamard(r, wv);
        let z = t.hadamard(z, z);
        let loss = t.sum_all(z);
        t.backward(loss);
        // Widening to f64 is exact, so f32 bit patterns survive it.
        let widen = |x: Tensor<T>| x.as_slice().iter().map(|v| v.to_f64()).collect();
        (widen(t.value(r)), widen(t.grad(cv)))
    }

    /// Any NaN matches any NaN in a gradient: Rust leaves the sign and
    /// payload of an arithmetic NaN unspecified. Values are copies, so
    /// they are compared bit for bit, NaNs included.
    fn same_grad_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// `specials` are written down column 1 (and, reversed, column 2)
    /// twice over, so each of them also ties with itself.
    fn one_node_reduction_matches_oracle<T: Scalar>(specials: &[T]) {
        // N < N' (zero padding), N = N', N > N', N ≥ 256, and N ≫ N'.
        for (n, nc, seed) in [
            (3, 5, 21),
            (4, 4, 22),
            (9, 3, 23),
            (300, 4, 24),
            (40, 3, 27),
            (64, 4, 28),
        ] {
            let mut rng = Rng::from_seed(seed);
            let mut store = ParamStore::<T>::new();
            let moa = Moa::<T>::new(&mut store, "moa", nc, &mut rng);
            let mut c = Tensor::<T>::rand_uniform(n, nc, -1.0, 1.0, &mut rng);
            // Column 0 is full of ties, a -0.0 among them: the stable
            // sort must break them the same way in both forms.
            for r in (0..n).step_by(2) {
                c[(r, 0)] = T::from_f64(0.25);
            }
            c[(n - 1, 0)] = T::from_f64(-0.0);
            if n >= 2 * specials.len() && nc >= 3 {
                for (k, &v) in specials.iter().chain(specials).enumerate() {
                    let r = k * n / (2 * specials.len());
                    c[(r, 1)] = v;
                    c[(n - 1 - r, 2)] = v;
                }
            }
            let w = Tensor::<T>::rand_uniform(nc, nc, 0.5, 2.0, &mut rng);

            let got = reduce_bits(&c, &w, |t, cv| moa.reduced_columns(t, cv));
            let want = reduce_bits(&c, &w, |t, cv| reduced_columns_oracle(nc, t, cv));
            for (what, g, e) in [("value", &got.0, &want.0), ("dC", &got.1, &want.1)] {
                assert_eq!(g.len(), e.len(), "{what} n={n} nc={nc}");
                for (i, (&a, &b)) in g.iter().zip(e).enumerate() {
                    let same = if what == "value" {
                        a.to_bits() == b.to_bits()
                    } else {
                        same_grad_bits(a, b)
                    };
                    assert!(same, "{what} n={n} nc={nc} entry {i}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn one_node_reduction_matches_the_per_column_chain_bitwise() {
        // NaNs of both signs and two payloads, ±∞, ±0.0, subnormals of
        // both signs and the extremes. Two NaNs with different bits, and
        // +0.0 against −0.0, are distinct in the total order, so the
        // reduced columns' bits show whether the order was kept.
        one_node_reduction_matches_oracle::<f64>(&[
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0x7ffc_0000_0000_0000),
            f64::from_bits(0xfff8_0000_0000_0002),
            f64::from_bits(0xfffc_0000_0000_0000),
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE / 2.0,
            f64::MAX,
            f64::MIN,
        ]);
        one_node_reduction_matches_oracle::<f32>(&[
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0x7fe0_0000),
            f32::from_bits(0xffc0_0002),
            f32::from_bits(0xffe0_0000),
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1e-45,
            -1e-45,
            f32::MIN_POSITIVE / 2.0,
            f32::MAX,
            f32::MIN,
        ]);
    }

    #[test]
    fn reduction_tape_length_does_not_grow_with_clusters() {
        let mut rng = Rng::from_seed(25);
        let added = |nc: usize, rng: &mut Rng| {
            let (_s, moa) = make_moa(nc, 26);
            let mut t = Tape::new();
            let c = t.constant(Tensor::rand_uniform(10, nc, -1.0, 1.0, rng));
            let before = t.len();
            moa.reduced_columns(&mut t, c);
            t.len() - before
        };
        let small = added(3, &mut rng);
        let large = added(16, &mut rng);
        assert_eq!(small, 1);
        assert_eq!(small, large, "N'=3 and N'=16 must record the same nodes");
    }

    #[test]
    fn single_cluster_degenerates_to_uniform() {
        // N' = 1: softmax over one column is identically 1.
        let (_s, moa) = make_moa(1, 9);
        let mut t = Tape::new();
        let c = t.constant(Tensor::col_vector(&[0.3, -2.0, 5.0]));
        let m = moa.forward(&mut t, c);
        let mv = t.value(m);
        for r in 0..3 {
            assert!((mv[(r, 0)] - 1.0).abs() < 1e-12);
        }
    }
}
