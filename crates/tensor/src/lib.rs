//! # hap-tensor
//!
//! Dense 2-D matrix (`Tensor`) substrate for the HAP reproduction.
//!
//! The whole HAP stack — autograd, neural-network layers, GNN message
//! passing, the MOA attention mechanism — operates on dense row-major
//! matrices generic over an IEEE-754 element type: [`Tensor<T>`] for any
//! [`Scalar`] (`f64`, the golden-pinned default, or `f32`, the fast path
//! with half the memory traffic and twice the SIMD lanes). Graphs in the
//! paper's evaluation are small (tens to a few hundred nodes), so a
//! straightforward dense representation is the default and matches the
//! paper's own formulation of the coarsening module (Eqs. 13–19 are dense
//! matrix products). For sparse propagation matrices the crate also
//! provides [`CsrMatrix`] with an SpMM that is *byte-identical* to the
//! dense product (the dense kernel already skips zero entries in the same
//! order), plus segment reductions ([`Tensor::segment_sums`],
//! [`Tensor::segment_means`], [`Tensor::segment_softmax`]) for
//! block-diagonal multi-graph batches — see ARCHITECTURE.md "Sparse &
//! batched execution".
//!
//! Design notes:
//! * Shapes are `(rows, cols)`; storage is row-major `Vec<T>`. The type
//!   parameter defaults to `f64`, so `Tensor` with no argument is the
//!   historical double-precision type and existing call sites compile
//!   unchanged.
//! * Scalar-valued API parameters and results (`scale`, `sum`, norms,
//!   tolerances…) stay `f64` regardless of `T`: kernels accumulate in `T`
//!   and convert at the boundary, so the `f64` instantiation is
//!   bit-for-bit the pre-generic code.
//! * Matrix products run through a register-blocked GEMM kernel,
//!   compiled for AVX2 as well and picked at run time (see `ops.rs` module
//!   docs for the tiling scheme and the bitwise contract it preserves).
//! * Fallible construction and shape-sensitive operations come in two
//!   flavours: `try_*` methods returning [`Result`]`<`[`Tensor`]`,`
//!   [`ShapeError`]`>`, and panicking convenience wrappers (including the
//!   `std::ops` operator impls) for call sites where a mismatch is a
//!   programming error. The panicking wrappers always report both shapes.
//! * Random constructors take an explicit `&mut impl Rng` and draw in
//!   `f64` regardless of `T`, narrowing per sample — an `f32` tensor is
//!   the rounding of the `f64` tensor drawn from the same seed, and both
//!   dtypes consume the RNG stream identically.
//! * Every kernel runs on its calling thread and starts no thread. HAP
//!   pools one small graph at a time: no product of the benchmark
//!   workloads reaches a million multiply–adds, and handing one to
//!   another thread costs more than it saves (EXPERIMENTS.md
//!   "Parallelism"). Whole tasks go to other threads one level up, through
//!   `hap-par`.

#![deny(missing_docs)]

mod error;
mod ops;
mod scalar;
mod segment;
mod sparse;
mod tensor;

pub use error::ShapeError;
pub use scalar::{Dtype, Scalar};
pub use segment::validate_segments;
pub use sparse::CsrMatrix;
pub use tensor::Tensor;

/// Numeric tolerance helpers shared by tests across the workspace.
pub mod testutil {
    use crate::{Scalar, Tensor};

    /// Asserts two tensors are elementwise equal within `tol` (compared
    /// after widening to `f64`).
    ///
    /// # Panics
    /// Panics with a diagnostic message naming the first offending element
    /// when the shapes differ or any element pair differs by more than
    /// `tol`.
    pub fn assert_close<T: Scalar>(a: &Tensor<T>, b: &Tensor<T>, tol: f64) {
        assert_eq!(
            a.shape(),
            b.shape(),
            "shape mismatch: {:?} vs {:?}",
            a.shape(),
            b.shape()
        );
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                let (x, y) = (a[(r, c)].to_f64(), b[(r, c)].to_f64());
                assert!(
                    (x - y).abs() <= tol,
                    "tensors differ at ({r},{c}): {x} vs {y} (tol {tol})"
                );
            }
        }
    }
}
