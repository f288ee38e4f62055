//! Activation functions as a small closed enum.

use hap_autograd::{Tape, Var};
use hap_tensor::Scalar;

/// A pointwise nonlinearity selectable at model-construction time.
///
/// The HAP paper uses ReLU/Sigmoid inside node-embedding layers (Eq. 11),
/// LeakyReLU inside MOA (Eq. 14, Definition 5.2) and Softmax on prediction
/// heads; softmax lives on the tape directly
/// ([`Tape::softmax_rows`]) since it is row-wise rather than pointwise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Activation {
    /// `max(x, 0)`.
    Relu,
    /// `x` for `x ≥ 0`, `αx` otherwise.
    LeakyRelu(f64),
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Pass-through (useful for final layers).
    Identity,
}

impl Activation {
    /// Records the activation on `tape`.
    pub fn apply<T: Scalar>(self, tape: &mut Tape<T>, x: Var) -> Var {
        match self {
            Activation::Relu => tape.relu(x),
            Activation::LeakyRelu(alpha) => tape.leaky_relu(x, alpha),
            Activation::Sigmoid => tape.sigmoid(x),
            Activation::Tanh => tape.tanh(x),
            Activation::Identity => x,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_tensor::Tensor;

    fn eval(act: Activation, x: f64) -> f64 {
        let mut t = Tape::new();
        let v = t.constant(Tensor::from_vec(1, 1, vec![x]));
        let y = act.apply(&mut t, v);
        t.value(y)[(0, 0)]
    }

    #[test]
    fn pointwise_values() {
        assert_eq!(eval(Activation::Relu, -2.0), 0.0);
        assert_eq!(eval(Activation::Relu, 3.0), 3.0);
        assert_eq!(eval(Activation::LeakyRelu(0.2), -2.0), -0.4);
        assert!((eval(Activation::Sigmoid, 0.0) - 0.5).abs() < 1e-12);
        assert!((eval(Activation::Tanh, 0.0)).abs() < 1e-12);
        assert_eq!(eval(Activation::Identity, -7.5), -7.5);
    }

    #[test]
    fn identity_does_not_add_nodes() {
        let mut t = Tape::new();
        let v = t.constant(Tensor::<f64>::zeros(1, 1));
        let before = t.len();
        let y = Activation::Identity.apply(&mut t, v);
        assert_eq!(t.len(), before);
        assert_eq!(y, v);
    }
}
