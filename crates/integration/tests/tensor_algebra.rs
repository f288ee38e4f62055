//! Algebraic laws of the tensor substrate, as properties over random
//! matrices — the foundation everything else builds on.
//!
//! Each property is checked over a deterministic family of seeded cases
//! (the offline replacement for the old proptest strategies): case `i`
//! forks the stream `case.<i>` from one labelled root, so every run
//! checks an identical, reproducible batch of random matrices.

use hap_rand::Rng;
use hap_tensor::{testutil::assert_close, Tensor};

const CASES: u64 = 32;

/// Runs `body` over [`CASES`] independent seeded rngs.
fn for_each_case(label: &str, mut body: impl FnMut(&mut Rng)) {
    let mut root = Rng::from_seed(0x0A16_EB7A).fork(label);
    for case in 0..CASES {
        body(&mut root.fork(&format!("case.{case}")));
    }
}

fn arb_tensor(rows: usize, cols: usize, rng: &mut Rng) -> Tensor {
    Tensor::rand_uniform(rows, cols, -2.0, 2.0, rng)
}

#[test]
fn matmul_is_associative() {
    for_each_case("assoc", |rng| {
        let a = arb_tensor(3, 4, rng);
        let b = arb_tensor(4, 5, rng);
        let c = arb_tensor(5, 2, rng);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert_close(&left, &right, 1e-9);
    });
}

#[test]
fn matmul_distributes_over_addition() {
    for_each_case("distrib", |rng| {
        let a = arb_tensor(3, 4, rng);
        let b = arb_tensor(4, 2, rng);
        let c = arb_tensor(4, 2, rng);
        let left = a.matmul(&(&b + &c));
        let right = &a.matmul(&b) + &a.matmul(&c);
        assert_close(&left, &right, 1e-9);
    });
}

#[test]
fn transpose_reverses_products() {
    for_each_case("transpose", |rng| {
        let a = arb_tensor(3, 4, rng);
        let b = arb_tensor(4, 2, rng);
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        assert_close(&left, &right, 1e-9);
    });
}

#[test]
fn softmax_rows_is_shift_invariant() {
    for_each_case("shift", |rng| {
        let a = arb_tensor(4, 5, rng);
        let shift = rng.gen_range(-10.0..10.0);
        let s1 = a.softmax_rows();
        let s2 = a.shift(shift).softmax_rows();
        assert_close(&s1, &s2, 1e-9);
    });
}

#[test]
fn softmax_rows_yields_distributions() {
    for_each_case("softmax", |rng| {
        let a = arb_tensor(4, 6, rng);
        let s = a.softmax_rows();
        assert!(s.min() >= 0.0);
        for r in 0..s.rows() {
            let sum: f64 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    });
}

#[test]
fn hadamard_is_commutative() {
    for_each_case("hadamard", |rng| {
        let a = arb_tensor(3, 3, rng);
        let b = arb_tensor(3, 3, rng);
        assert_close(&a.hadamard(&b), &b.hadamard(&a), 1e-12);
    });
}

#[test]
fn stacking_roundtrips() {
    for_each_case("stack", |rng| {
        let a = arb_tensor(3, 2, rng);
        let b = arb_tensor(3, 4, rng);
        let h = a.hstack(&b);
        assert_close(&h.slice_cols(0, 2), &a, 1e-12);
        assert_close(&h.slice_cols(2, 6), &b, 1e-12);
        let v = a.vstack(&a);
        assert_close(&v.slice_rows(0, 3), &a, 1e-12);
        assert_close(&v.slice_rows(3, 6), &a, 1e-12);
    });
}

#[test]
fn reductions_are_consistent() {
    for_each_case("reduce", |rng| {
        let a = arb_tensor(4, 3, rng);
        assert!((a.row_sums().sum() - a.sum()).abs() < 1e-9);
        assert!((a.col_sums().sum() - a.sum()).abs() < 1e-9);
        assert!((a.col_means().scale(a.rows() as f64).sum() - a.sum()).abs() < 1e-9);
        assert!(a.max() >= a.mean() && a.mean() >= a.min());
    });
}

#[test]
fn frobenius_norm_is_subadditive() {
    for_each_case("frob", |rng| {
        let a = arb_tensor(3, 3, rng);
        let b = arb_tensor(3, 3, rng);
        let sum = (&a + &b).frobenius_norm();
        assert!(sum <= a.frobenius_norm() + b.frobenius_norm() + 1e-9);
    });
}

#[test]
fn gather_rows_matches_manual_copy() {
    for_each_case("gather", |rng| {
        let a = arb_tensor(5, 3, rng);
        let i1 = rng.gen_range(0..5usize);
        let i2 = rng.gen_range(0..5usize);
        let g = a.gather_rows(&[i1, i2, i1]);
        assert_eq!(g.row(0), a.row(i1));
        assert_eq!(g.row(1), a.row(i2));
        assert_eq!(g.row(2), a.row(i1));
    });
}
