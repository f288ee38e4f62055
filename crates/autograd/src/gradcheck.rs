//! Finite-difference gradient checking.
//!
//! Every differentiable operator in this crate is validated by comparing
//! the analytic gradient produced by [`crate::Tape::backward`] against a
//! central finite-difference estimate. The helper here is also re-exported
//! for downstream crates (`hap-nn`, `hap-gnn`, `hap-core`) to grad-check
//! their composite layers.

use crate::{Param, Tape, Var};
use hap_tensor::{Dtype, Scalar, Tensor};

/// Default central-difference step per dtype.
///
/// `1e-5` balances truncation against rounding error for `f64`; `f32`'s
/// ~1e-7 relative evaluation noise needs a much larger step (`1e-2`)
/// before the difference quotient stops amplifying it.
pub fn default_fd_eps<T: Scalar>() -> f64 {
    match T::DTYPE {
        Dtype::F32 => 1e-2,
        Dtype::F64 => 1e-5,
    }
}

/// Default pass tolerance per dtype for [`check_unary_op_default`] /
/// [`check_param_grad_default`].
pub fn default_gradcheck_tol<T: Scalar>() -> f64 {
    match T::DTYPE {
        Dtype::F32 => 5e-2,
        Dtype::F64 => 1e-6,
    }
}

/// Estimates `d f / d input` by central differences.
///
/// `f` must rebuild the computation from scratch for a given input value
/// and return the scalar output. See [`default_fd_eps`] for how to pick
/// `eps` per dtype.
pub fn finite_difference_grad<T: Scalar>(
    input: &Tensor<T>,
    eps: f64,
    mut f: impl FnMut(&Tensor<T>) -> f64,
) -> Tensor<T> {
    let eps_t = T::from_f64(eps);
    let mut grad = Tensor::zeros(input.rows(), input.cols());
    let mut probe = input.clone();
    for r in 0..input.rows() {
        for c in 0..input.cols() {
            let orig = probe[(r, c)];
            probe[(r, c)] = orig + eps_t;
            let up = f(&probe);
            probe[(r, c)] = orig - eps_t;
            let down = f(&probe);
            probe[(r, c)] = orig;
            grad[(r, c)] = T::from_f64((up - down) / (2.0 * eps));
        }
    }
    grad
}

/// Grad-checks a scalar-valued tape computation against finite differences.
///
/// `build` receives a tape and the input variable and must return the
/// scalar output variable. Panics (with per-element diagnostics) when the
/// analytic and numeric gradients disagree beyond `tol`.
pub fn check_unary_op<T: Scalar>(
    input: Tensor<T>,
    tol: f64,
    mut build: impl FnMut(&mut Tape<T>, Var) -> Var,
) {
    let mut tape = Tape::new();
    let x = tape.constant(input.clone());
    let out = build(&mut tape, x);
    assert_eq!(tape.shape(out), (1, 1), "grad check requires scalar output");
    tape.backward(out);
    let analytic = tape.grad(x);

    let numeric = finite_difference_grad(&input, default_fd_eps::<T>(), |probe| {
        let mut t = Tape::new();
        let x = t.constant(probe.clone());
        let out = build(&mut t, x);
        t.scalar(out)
    });

    hap_tensor::testutil::assert_close(&analytic, &numeric, tol);
}

/// [`check_unary_op`] with the per-dtype default tolerance
/// ([`default_gradcheck_tol`]).
pub fn check_unary_op_default<T: Scalar>(
    input: Tensor<T>,
    build: impl FnMut(&mut Tape<T>, Var) -> Var,
) {
    check_unary_op(input, default_gradcheck_tol::<T>(), build);
}

/// Grad-checks the gradient flowing into a parameter for an arbitrary
/// model closure (`build` maps tape → scalar output, binding `param`
/// itself).
pub fn check_param_grad<T: Scalar>(
    param: &Param<T>,
    tol: f64,
    mut build: impl FnMut(&mut Tape<T>) -> Var,
) {
    param.zero_grad();
    let mut tape = Tape::new();
    let out = build(&mut tape);
    assert_eq!(tape.shape(out), (1, 1), "grad check requires scalar output");
    tape.backward(out);
    let analytic = param.grad();

    let base = param.value();
    let numeric = finite_difference_grad(&base, default_fd_eps::<T>(), |probe| {
        param.set_value(probe.clone());
        let mut t = Tape::new();
        let out = build(&mut t);
        t.scalar(out)
    });
    param.set_value(base);
    param.zero_grad();

    hap_tensor::testutil::assert_close(&analytic, &numeric, tol);
}

/// [`check_param_grad`] with the per-dtype default tolerance.
pub fn check_param_grad_default<T: Scalar>(
    param: &Param<T>,
    build: impl FnMut(&mut Tape<T>) -> Var,
) {
    check_param_grad(param, default_gradcheck_tol::<T>(), build);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_rand::Rng;

    fn rand_input(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = Rng::from_seed(seed);
        Tensor::rand_uniform(rows, cols, -1.0, 1.0, &mut rng)
    }

    /// Positive-valued input for ln/sqrt checks.
    fn rand_positive(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = Rng::from_seed(seed);
        Tensor::rand_uniform(rows, cols, 0.5, 2.0, &mut rng)
    }

    #[test]
    fn gradcheck_matmul() {
        let w = rand_input(4, 3, 1);
        check_unary_op(rand_input(3, 4, 2), 1e-6, |t, x| {
            let w = t.constant(w.clone());
            let y = t.matmul(x, w);
            t.sum_all(y)
        });
    }

    #[test]
    fn gradcheck_matmul_rhs() {
        let a = rand_input(3, 4, 3);
        check_unary_op(rand_input(4, 2, 4), 1e-6, |t, x| {
            let a = t.constant(a.clone());
            let y = t.matmul(a, x);
            let sq = t.hadamard(y, y);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_matmul_nt() {
        // y = X · Wᵀ with X the differentiated input
        let w = rand_input(5, 3, 11);
        check_unary_op(rand_input(4, 3, 12), 1e-6, |t, x| {
            let w = t.constant(w.clone());
            let y = t.matmul_nt(x, w);
            let sq = t.hadamard(y, y);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_matmul_nt_rhs() {
        // y = A · Xᵀ with X the differentiated input
        let a = rand_input(4, 3, 13);
        check_unary_op(rand_input(5, 3, 14), 1e-6, |t, x| {
            let a = t.constant(a.clone());
            let y = t.matmul_nt(a, x);
            let sq = t.hadamard(y, y);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_add_sub_hadamard() {
        let b = rand_input(3, 3, 5);
        check_unary_op(rand_input(3, 3, 6), 1e-6, |t, x| {
            let b = t.constant(b.clone());
            let s = t.add(x, b);
            let d = t.sub(s, x);
            let h = t.hadamard(d, x);
            t.sum_all(h)
        });
    }

    #[test]
    fn gradcheck_broadcasts() {
        // x is the broadcast row vector
        let base = rand_input(4, 3, 7);
        check_unary_op(rand_input(1, 3, 8), 1e-6, |t, x| {
            let base = t.constant(base.clone());
            let y = t.add_row(base, x);
            let sq = t.hadamard(y, y);
            t.sum_all(sq)
        });
        // x is the broadcast column vector
        check_unary_op(rand_input(4, 1, 9), 1e-6, |t, x| {
            let base = t.constant(base.clone());
            let y = t.add_col(base, x);
            let sq = t.hadamard(y, y);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_mul_col_both_sides() {
        let gate = rand_input(4, 1, 10);
        check_unary_op(rand_input(4, 3, 11), 1e-6, |t, x| {
            let g = t.constant(gate.clone());
            let y = t.mul_col(x, g);
            let sq = t.hadamard(y, y);
            t.sum_all(sq)
        });
        let base = rand_input(4, 3, 12);
        check_unary_op(rand_input(4, 1, 13), 1e-6, |t, x| {
            let b = t.constant(base.clone());
            let y = t.mul_col(b, x);
            let sq = t.hadamard(y, y);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_activations() {
        // Shift inputs away from the relu/leaky kink to keep finite
        // differences well-defined.
        let inp = rand_input(3, 4, 14).map(|v| if v.abs() < 0.05 { v + 0.1 } else { v });
        check_unary_op(inp.clone(), 1e-5, |t, x| {
            let y = t.relu(x);
            let sq = t.hadamard(y, y);
            t.sum_all(sq)
        });
        check_unary_op(inp.clone(), 1e-5, |t, x| {
            let y = t.leaky_relu(x, 0.2);
            let sq = t.hadamard(y, y);
            t.sum_all(sq)
        });
        check_unary_op(inp.clone(), 1e-6, |t, x| {
            let y = t.sigmoid(x);
            let sq = t.hadamard(y, y);
            t.sum_all(sq)
        });
        check_unary_op(inp, 1e-6, |t, x| {
            let y = t.tanh(x);
            let sq = t.hadamard(y, y);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_softmax_and_log_softmax() {
        let w = rand_input(3, 4, 15);
        check_unary_op(rand_input(3, 4, 16), 1e-6, |t, x| {
            let y = t.softmax_rows(x);
            let w = t.constant(w.clone());
            let wy = t.hadamard(y, w); // arbitrary non-uniform weighting
            let sq = t.hadamard(wy, y);
            t.sum_all(sq)
        });
        check_unary_op(rand_input(3, 4, 17), 1e-6, |t, x| {
            let y = t.log_softmax_rows(x);
            let sq = t.hadamard(y, y);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_exp_ln_sqrt() {
        check_unary_op(rand_input(2, 3, 18), 1e-6, |t, x| {
            let y = t.exp(x);
            t.sum_all(y)
        });
        check_unary_op(rand_positive(2, 3, 19), 1e-6, |t, x| {
            let y = t.ln(x);
            let sq = t.hadamard(y, y);
            t.sum_all(sq)
        });
        check_unary_op(rand_positive(2, 3, 20), 1e-6, |t, x| {
            let y = t.sqrt(x);
            t.sum_all(y)
        });
    }

    #[test]
    fn gradcheck_stacks_and_transpose() {
        let b = rand_input(3, 2, 21);
        check_unary_op(rand_input(3, 2, 22), 1e-6, |t, x| {
            let b = t.constant(b.clone());
            let h = t.hstack(x, b);
            let v = t.vstack(h, h);
            let tr = t.transpose(v);
            let sq = t.hadamard(tr, tr);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_reductions() {
        check_unary_op(rand_input(4, 3, 23), 1e-6, |t, x| {
            let s = t.col_sums(x);
            let sq = t.hadamard(s, s);
            t.sum_all(sq)
        });
        check_unary_op(rand_input(4, 3, 24), 1e-6, |t, x| {
            let m = t.col_means(x);
            let sq = t.hadamard(m, m);
            t.sum_all(sq)
        });
        check_unary_op(rand_input(4, 3, 25), 1e-6, |t, x| {
            let m = t.row_sums(x);
            let sq = t.hadamard(m, m);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_gather_and_scale_shift() {
        check_unary_op(rand_input(5, 2, 27), 1e-6, |t, x| {
            let y = t.gather_rows(x, &[4, 0, 0, 2]);
            let z = t.scale(y, 2.5);
            let z = t.shift(z, -0.75);
            let sq = t.hadamard(z, z);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_pow_const_and_mul_row() {
        check_unary_op(rand_positive(3, 3, 28), 1e-6, |t, x| {
            let y = t.pow_const(x, -0.5);
            t.sum_all(y)
        });
        let row = rand_input(1, 3, 29);
        check_unary_op(rand_input(4, 3, 30), 1e-6, |t, x| {
            let r = t.constant(row.clone());
            let y = t.mul_row(x, r);
            let sq = t.hadamard(y, y);
            t.sum_all(sq)
        });
        let base = rand_input(4, 3, 31);
        check_unary_op(rand_input(1, 3, 32), 1e-6, |t, x| {
            let b = t.constant(base.clone());
            let y = t.mul_row(b, x);
            let sq = t.hadamard(y, y);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_f32_core_ops_with_default_tolerances() {
        // The f32 path uses the per-dtype defaults: a coarser
        // finite-difference step and a looser pass tolerance.
        let mut rng = Rng::from_seed(77);
        let x: Tensor<f32> = Tensor::rand_uniform(3, 4, -1.0, 1.0, &mut rng);
        let w: Tensor<f32> = Tensor::rand_uniform(4, 2, -1.0, 1.0, &mut rng);
        check_unary_op_default(x.clone(), |t, xv| {
            let wv = t.constant(w.clone());
            let y = t.matmul(xv, wv);
            let s = t.sigmoid(y);
            let sq = t.hadamard(s, s);
            t.sum_all(sq)
        });
        check_unary_op_default(x, |t, xv| {
            let y = t.log_softmax_rows(xv);
            let sq = t.hadamard(y, y);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_f32_param_grad() {
        let mut rng = Rng::from_seed(78);
        let w: Param<f32> = Param::new("w", Tensor::rand_uniform(3, 2, -1.0, 1.0, &mut rng));
        let x: Tensor<f32> = Tensor::rand_uniform(2, 3, -1.0, 1.0, &mut rng);
        let wc = w.clone();
        check_param_grad_default(&w, move |t| {
            let xv = t.constant(x.clone());
            let wv = t.param(&wc);
            let y = t.matmul(xv, wv);
            let a = t.tanh(y);
            let sq = t.hadamard(a, a);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_param_through_two_layer_net() {
        let mut rng = Rng::from_seed(42);
        let w1 = Param::<f64>::new("w1", Tensor::rand_uniform(3, 4, -1.0, 1.0, &mut rng));
        let w2 = Param::new("w2", Tensor::rand_uniform(4, 2, -1.0, 1.0, &mut rng));
        let x = Tensor::rand_uniform(2, 3, -1.0, 1.0, &mut rng);

        for p in [&w1, &w2] {
            let (xc, w1c, w2c) = (x.clone(), w1.clone(), w2.clone());
            check_param_grad(p, 1e-6, move |t| {
                let x = t.constant(xc.clone());
                let w1 = t.param(&w1c);
                let w2 = t.param(&w2c);
                let h = t.matmul(x, w1);
                let h = t.tanh(h);
                let y = t.matmul(h, w2);
                let sq = t.hadamard(y, y);
                t.sum_all(sq)
            });
        }
    }
}
