//! First-order optimizers.
//!
//! The paper trains every task with Adam (Sec. 6.1.3: "Adma optimizer is
//! used with initial learning rate 0.01 …"); plain SGD is provided for
//! ablations and tests.

use hap_autograd::ParamStore;
use hap_tensor::{Scalar, Tensor};
use std::collections::HashMap;

/// A gradient-descent update rule over a [`ParamStore`].
///
/// Contract: `step` consumes the *currently accumulated* gradients and
/// updates parameter values; it does **not** zero gradients — call
/// [`ParamStore::zero_grads`] before accumulating the next batch, so
/// callers control gradient-accumulation windows (HAP trains with
/// per-batch accumulation over variable-size graphs).
pub trait Optimizer<T: Scalar = f64> {
    /// Applies one update using the gradients currently in `store`.
    fn step(&mut self, store: &ParamStore<T>);
}

/// Stochastic gradient descent with optional momentum.
///
/// Hyper-parameters stay `f64` for every dtype (one canonical value);
/// moment buffers live in `T`, and per-step scalar factors are narrowed at
/// the kernel boundary.
pub struct Sgd<T: Scalar = f64> {
    lr: f64,
    momentum: f64,
    velocity: HashMap<usize, Tensor<T>>,
}

impl<T: Scalar> Sgd<T> {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f64) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// SGD with classical momentum `mu`.
    pub fn with_momentum(lr: f64, momentum: f64) -> Self {
        Self {
            lr,
            momentum,
            velocity: HashMap::new(),
        }
    }
}

impl<T: Scalar> Optimizer<T> for Sgd<T> {
    fn step(&mut self, store: &ParamStore<T>) {
        for p in store.iter() {
            if self.momentum == 0.0 {
                p.update_with(|v, g| *v = &*v - &g.scale(self.lr));
                continue;
            }
            let (r, c) = p.shape();
            let vel = self
                .velocity
                .entry(p.key())
                .or_insert_with(|| Tensor::zeros(r, c));
            p.update_with(|v, g| {
                *vel = &vel.scale(self.momentum) + g;
                *v = &*v - &vel.scale(self.lr);
            });
        }
    }
}

/// Adam (Kingma & Ba 2015) with bias-corrected first and second moments.
pub struct Adam<T: Scalar = f64> {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    moments: HashMap<usize, (Tensor<T>, Tensor<T>)>,
}

impl<T: Scalar> Adam<T> {
    /// Adam with the paper's defaults (`β₁ = 0.9`, `β₂ = 0.999`,
    /// `ε = 1e-8`).
    pub fn new(lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments: HashMap::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f64 {
        self.lr
    }
}

impl<T: Scalar> Optimizer<T> for Adam<T> {
    /// In place, element by element, in the tensor form's operation order.
    fn step(&mut self, store: &ParamStore<T>) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let t = T::from_f64;
        let (b1, c1) = (t(self.beta1), t(1.0 - self.beta1));
        let (b2, c2) = (t(self.beta2), t(1.0 - self.beta2));
        let (inv_bc1, inv_bc2, eps, lr) = (t(1.0 / bc1), t(1.0 / bc2), t(self.eps), t(self.lr));
        for p in store.iter() {
            let (r, c) = p.shape();
            let (m, v) = self
                .moments
                .entry(p.key())
                .or_insert_with(|| (Tensor::zeros(r, c), Tensor::zeros(r, c)));
            p.update_with(|val, g| {
                let (m, v, g) = (m.as_mut_slice(), v.as_mut_slice(), g.as_slice());
                for (i, x) in val.as_mut_slice().iter_mut().enumerate() {
                    m[i] = m[i] * b1 + g[i] * c1;
                    v[i] = v[i] * b2 + g[i] * g[i] * c2;
                    let (m_hat, v_hat) = (m[i] * inv_bc1, v[i] * inv_bc2);
                    *x -= m_hat / (v_hat.sqrt() + eps) * lr;
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_autograd::{ParamStore, Tape};

    /// Minimise (w - 3)² and check convergence.
    fn quadratic_descent(optim: &mut dyn Optimizer, steps: usize) -> f64 {
        let mut store = ParamStore::new();
        let w = store.new_param("w", Tensor::zeros(1, 1));
        for _ in 0..steps {
            store.zero_grads();
            let mut t = Tape::new();
            let wv = t.param(&w);
            let d = t.shift(wv, -3.0);
            let loss = t.hadamard(d, d);
            t.backward(loss);
            optim.step(&store);
        }
        w.value()[(0, 0)]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let w = quadratic_descent(&mut Sgd::new(0.1), 100);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let w = quadratic_descent(&mut Sgd::with_momentum(0.05, 0.9), 200);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = quadratic_descent(&mut Adam::new(0.1), 300);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn adam_handles_multiple_params_independently() {
        let mut store = ParamStore::new();
        let a = store.new_param("a", Tensor::zeros(1, 1));
        let b = store.new_param("b", Tensor::full(1, 1, 10.0));
        let mut adam = Adam::new(0.2);
        for _ in 0..400 {
            store.zero_grads();
            let mut t = Tape::new();
            let av = t.param(&a);
            let bv = t.param(&b);
            let da = t.shift(av, -1.0);
            let db = t.shift(bv, 2.0);
            let la = t.hadamard(da, da);
            let lb = t.hadamard(db, db);
            let loss = t.add(la, lb);
            t.backward(loss);
            adam.step(&store);
        }
        assert!((a.value()[(0, 0)] - 1.0).abs() < 1e-2);
        assert!((b.value()[(0, 0)] + 2.0).abs() < 1e-2);
    }

    /// `Adam::step` as it was before it updated in place: tensor
    /// temporaries for every intermediate, and a cloned gradient. Kept as
    /// the oracle for the in-place step.
    struct AdamOracle<T: Scalar> {
        lr: f64,
        beta1: f64,
        beta2: f64,
        eps: f64,
        t: u64,
        moments: HashMap<usize, (Tensor<T>, Tensor<T>)>,
    }

    impl<T: Scalar> AdamOracle<T> {
        fn step(&mut self, store: &ParamStore<T>) {
            self.t += 1;
            let bc1 = 1.0 - self.beta1.powi(self.t as i32);
            let bc2 = 1.0 - self.beta2.powi(self.t as i32);
            for p in store.iter() {
                let g = p.grad();
                let (r, c) = p.shape();
                let (m, v) = self
                    .moments
                    .entry(p.key())
                    .or_insert_with(|| (Tensor::zeros(r, c), Tensor::zeros(r, c)));
                *m = &m.scale(self.beta1) + &g.scale(1.0 - self.beta1);
                let g2 = g.hadamard(&g);
                *v = &v.scale(self.beta2) + &g2.scale(1.0 - self.beta2);
                let m_hat = m.scale(1.0 / bc1);
                let v_hat = v.scale(1.0 / bc2);
                let eps_t = T::from_f64(self.eps);
                let denom = v_hat.map(move |x| x.sqrt() + eps_t);
                let step = m_hat.try_div(&denom).expect("same shape").scale(self.lr);
                p.set_value(&p.value() - &step);
            }
        }
    }

    fn bits<T: Scalar>(t: &Tensor<T>) -> Vec<u64> {
        t.as_slice().iter().map(|x| x.to_bits_u64()).collect()
    }

    /// Four steps of both forms on twin stores. On even steps the
    /// gradients are large enough that clipping (the trainers'
    /// `scale_grads` by `clip / norm`) fires; on odd steps it does not.
    /// Every step then writes `−0.0`, `+0.0` and subnormals of both signs
    /// into the gradients Adam reads.
    fn in_place_adam_matches_oracle<T: Scalar>(subnormal: T) {
        let make = || {
            let mut store = ParamStore::<T>::new();
            let mut rng = hap_rand::Rng::from_seed(3);
            store.new_param("w", Tensor::rand_uniform(3, 4, -1.0, 1.0, &mut rng));
            store.new_param("b", Tensor::rand_uniform(1, 5, -1.0, 1.0, &mut rng));
            store
        };
        let (fast_store, oracle_store) = (make(), make());
        let mut fast = Adam::<T>::new(0.01);
        let mut oracle = AdamOracle::<T> {
            lr: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments: HashMap::new(),
        };
        let mut rng = hap_rand::Rng::from_seed(4);
        for step in 0..4 {
            let clip = step % 2 == 0;
            let scale = if clip { 40.0 } else { 0.1 };
            for (pf, po) in fast_store.iter().zip(oracle_store.iter()) {
                let (r, c) = pf.shape();
                let g = Tensor::<T>::rand_uniform(r, c, -scale, scale, &mut rng);
                pf.set_grad(g.clone());
                po.set_grad(g);
            }
            for store in [&fast_store, &oracle_store] {
                let norm = store.grad_norm();
                assert_eq!(norm > 5.0, clip, "step {step}: norm {norm}");
                if clip {
                    store.scale_grads(5.0 / norm);
                }
                for p in store.iter() {
                    let mut g = p.grad();
                    let gs = g.as_mut_slice();
                    gs[0] = T::from_f64(-0.0);
                    gs[1] = subnormal;
                    gs[2] = -subnormal;
                    gs[3] = T::from_f64(0.0);
                    p.set_grad(g);
                }
            }
            fast.step(&fast_store);
            oracle.step(&oracle_store);
            for (pf, po) in fast_store.iter().zip(oracle_store.iter()) {
                let what = format!("{} {} step {step}", T::DTYPE, pf.name());
                assert_eq!(bits(&pf.value()), bits(&po.value()), "value, {what}");
                let (mf, vf) = &fast.moments[&pf.key()];
                let (mo, vo) = &oracle.moments[&po.key()];
                assert_eq!(bits(mf), bits(mo), "first moment, {what}");
                assert_eq!(bits(vf), bits(vo), "second moment, {what}");
            }
        }
    }

    #[test]
    fn in_place_adam_step_matches_tensor_oracle_bitwise() {
        in_place_adam_matches_oracle::<f64>(5e-324);
        in_place_adam_matches_oracle::<f32>(1e-45);
    }

    #[test]
    fn step_without_grads_is_stable() {
        let mut store = ParamStore::<f64>::new();
        let w = store.new_param("w", Tensor::ones(2, 2));
        let mut adam = Adam::new(0.1);
        adam.step(&store); // zero gradients -> value unchanged
        hap_tensor::testutil::assert_close(&w.value(), &Tensor::ones(2, 2), 1e-12);
    }
}
