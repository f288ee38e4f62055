//! # hap-autograd
//!
//! Tape-based reverse-mode automatic differentiation over
//! [`hap_tensor::Tensor`].
//!
//! This crate is the substitute for the PyTorch autograd engine the HAP
//! paper's implementation relies on (Rust has no mature equivalent — the
//! reproduction gate called out in DESIGN.md). The design is deliberately
//! simple and inspectable:
//!
//! * A [`Tape`] records a computation as an append-only list of nodes.
//!   Because nodes can only reference earlier nodes, the list is already a
//!   topological order and backward is a single reverse sweep.
//! * Each node stores its forward value and an [`Op`] describing how it was
//!   produced. Backward is a `match` over `Op` — no boxed closures, so the
//!   graph is cheap to build and easy to unit-test op by op.
//! * Trainable parameters live outside the tape in a [`ParamStore`];
//!   a tape references them by handle and `backward` *accumulates* into
//!   their gradient buffers. One tape is built per forward pass and dropped
//!   afterwards, which mirrors the define-by-run model HAP's variable-size
//!   graphs require (every input graph has a different `N`).
//!
//! Gradient correctness for every operator is verified against central
//! finite differences in this crate's test suite (see `gradcheck`).
//!
//! All of it is generic over the tensor element type: a [`Tape<T>`] built
//! over `hap_tensor::Scalar` scalars records `Tensor<T>` nodes and
//! accumulates `Tensor<T>` gradients into `Param<T>` buffers. The default
//! `T = f64` keeps existing call sites unchanged; the gradcheck helpers
//! pick per-dtype finite-difference steps and tolerances (see
//! [`default_fd_eps`] / [`default_gradcheck_tol`]).

mod gradcheck;
mod op;
mod param;
mod tape;

pub use gradcheck::{
    check_param_grad, check_param_grad_default, check_unary_op, check_unary_op_default,
    default_fd_eps, default_gradcheck_tol, finite_difference_grad,
};
pub use op::{Op, GATHER_PAD};
pub use param::{Param, ParamStore};
pub use tape::{Tape, Var, PROFILE_ONE_PASS_IN};
