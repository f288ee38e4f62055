//! The operation vocabulary of the tape.
//!
//! Each tape node records which [`Op`] produced it; the backward pass in
//! [`crate::Tape::backward`] dispatches on this enum. Keeping the op set an
//! enum (rather than boxed closures) makes the differentiation rules
//! unit-testable one by one and keeps node construction allocation-light.

use crate::param::Param;
use hap_tensor::{CsrMatrix, Scalar};
use std::sync::Arc;

/// A source index for [`crate::Tape::gather_entries`] that reads no entry:
/// the output entry is `+0.0` and passes no gradient back.
pub const GATHER_PAD: usize = usize::MAX;

/// How a tape node's value was computed from its parents.
///
/// Generic over the tensor element type `T` (default `f64`); scalar op
/// metadata (scale factors, shifts, slopes, exponents) is stored as `f64`
/// regardless of `T` — one canonical value per recorded op, converted at
/// the kernel boundary with [`Scalar::from_f64`] (the identity for `f64`).
///
/// The gradient rule for every variant is documented inline and verified
/// against finite differences in the crate tests.
#[derive(Clone)]
pub enum Op<T: Scalar = f64> {
    /// A constant input (no gradient flows into it, but its gradient is
    /// still tracked so callers can inspect `d loss / d input`).
    Constant,
    /// A leaf bound to a trainable [`Param`]; backward accumulates into the
    /// parameter's gradient buffer.
    Leaf(Param<T>),
    /// `C = A · B`. Gradients: `dA = G·Bᵀ`, `dB = Aᵀ·G` (computed with the
    /// fused `matmul_nt` / `matmul_tn` kernels — byte-identical to the
    /// composed transpose+matmul, without materialising the transposes).
    MatMul,
    /// Fused `C = A · Bᵀ` (`A`: `n×k`, `B`: `m×k`). Gradients:
    /// `dA = G·B`, `dB = Gᵀ·A`.
    MatMulNT,
    /// `C = A + B` (same shape). Gradients: `dA = G`, `dB = G`.
    Add,
    /// `C = A - B`. Gradients: `dA = G`, `dB = -G`.
    Sub,
    /// Elementwise product. Gradients: `dA = G∘B`, `dB = G∘A`.
    Hadamard,
    /// `C = X + r` broadcasting a `1×F` row across all rows.
    /// Gradients: `dX = G`, `dr = col_sums(G)`.
    AddRow,
    /// `C = X + c` broadcasting an `N×1` column across all columns.
    /// Gradients: `dX = G`, `dc = row_sums(G)`.
    AddCol,
    /// `C_ij = X_ij · c_i` scaling row `i` by column-vector entry `c_i`.
    /// Gradients: `dX = G ∘ broadcast(c)`, `dc = row_sums(G ∘ X)`.
    MulCol,
    /// `C = s · X`. Gradient: `dX = s·G`.
    Scale(f64),
    /// `C = X + s`. Gradient: `dX = G`.
    Shift(f64),
    /// `C = Xᵀ`. Gradient: `dX = Gᵀ`.
    Transpose,
    /// `C = max(X, 0)`. Gradient: `dX = G ∘ 1[X > 0]`.
    Relu,
    /// `C = X` for `X ≥ 0`, `α·X` otherwise (paper Definition 5.2 with
    /// slope `α = 1/a`). Gradient: `dX = G ∘ (1 or α)`.
    LeakyRelu(f64),
    /// Logistic sigmoid. Gradient: `dX = G ∘ y(1-y)`.
    Sigmoid,
    /// Hyperbolic tangent. Gradient: `dX = G ∘ (1-y²)`.
    Tanh,
    /// Row-wise softmax (Eq. 15 normalisation). Gradient per row:
    /// `dx = y ∘ (g - <g, y>)`.
    SoftmaxRows,
    /// Row-wise log-softmax (numerically stable cross-entropy path).
    /// Gradient per row: `dx = g - softmax(x)·sum(g)`.
    LogSoftmaxRows,
    /// Elementwise `exp`. Gradient: `dX = G ∘ y`.
    Exp,
    /// Elementwise `ln`. Gradient: `dX = G ∘ (1/X)`.
    Ln,
    /// Elementwise square root. Gradient: `dX = G ∘ 1/(2√X)`.
    Sqrt,
    /// Elementwise constant power `y = x^p` (callers guarantee positivity
    /// for non-integer `p`). Gradient: `dX = G ∘ p·x^{p-1}`.
    PowConst(f64),
    /// `[A ‖ B]` column concatenation. Gradient: split `G` by columns.
    HStack,
    /// Row concatenation. Gradient: split `G` by rows.
    VStack,
    /// Row selection (with repetition allowed): `C = X[indices, :]`.
    /// Gradient: scatter-add rows of `G` back to their source rows.
    GatherRows(Vec<usize>),
    /// Entry selection (repetition allowed): output entry `k` (row-major)
    /// is `X`'s row-major entry `src[k]`, or `+0.0` where `src[k]` is
    /// [`GATHER_PAD`]. Gradient: add `G[k]` into a zeroed `dX` at
    /// `src[k]`.
    GatherEntries(Vec<usize>),
    /// Sum of all elements, producing a `1×1` scalar.
    /// Gradient: `dX = G[0,0] · 1`.
    SumAll,
    /// Column sums `N×F → 1×F` (graph sum-pooling). Gradient: broadcast `G`
    /// to every row.
    ColSums,
    /// Column means `N×F → 1×F` (graph mean-pooling). Gradient: broadcast
    /// `G/N`.
    ColMeans,
    /// Column maxima `N×F → 1×F` (graph max-pooling); records argmax row per
    /// column. Gradient routes `G[0,c]` to the argmax row only.
    ColMaxes(Vec<usize>),
    /// Row sums `N×F → N×1`. Gradient: broadcast `G` to every column.
    RowSums,
    /// Sparse propagation `C = S · H` where `S` is a **symmetric** CSR
    /// matrix held by the op (not a tape node — propagation structure is
    /// never trained) and `H` is the differentiable parent. Gradient:
    /// `dH = Sᵀ·G = S·G` by symmetry, computed with the same SpMM kernel
    /// — byte-identical to the dense `matmul` path's `matmul_tn`
    /// backward, which skips the same zeros in the same order.
    Spmm(Arc<CsrMatrix<T>>),
    /// Right product `C = X · S` by a **symmetric** CSR matrix held by
    /// the op (HAP's level-0 `MᵀA`), computed with
    /// `CsrMatrix::spmm_left`. Gradient: `dX = G·Sᵀ = G·S`, the same
    /// kernel again; `S` gets none. Byte-identical to the dense `matmul`
    /// path's value and `dA` for finite operands (see `Tape::matmul_csr`).
    MatMulCsr(Arc<CsrMatrix<T>>),
    /// Per-segment column sums `N×F → B×F` over the contiguous row
    /// segments described by the offsets vector (see
    /// `hap_tensor::validate_segments`). Gradient: broadcast segment `b`'s
    /// gradient row to every row of segment `b`.
    SegmentSums(Arc<Vec<usize>>),
    /// Per-segment column means `N×F → B×F`. Gradient: broadcast
    /// `G[b]/len(b)` to every row of segment `b`.
    SegmentMeans(Arc<Vec<usize>>),
    /// Per-column softmax within each row segment (`N×F → N×F`). Gradient
    /// per segment and column: `dx = y ∘ (g − Σ_rows y∘g)`, the softmax
    /// Jacobian applied down each segment's column.
    SegmentSoftmax(Arc<Vec<usize>>),
}

/// One list of every variant's short name, expanded into [`Op::name`]
/// and the timing scopes of the tape's per-op profile.
macro_rules! op_names {
    ($($pat:pat => $name:literal,)*) => {
        impl<T: Scalar> Op<T> {
            /// Short operator name for debugging output.
            pub fn name(&self) -> &'static str {
                match self {
                    $($pat => $name,)*
                }
            }

            /// The forward and backward timing scopes of this op
            /// (`tape.fwd.<name>`, `tape.bwd.<name>`).
            pub(crate) fn scopes(&self) -> (&'static str, &'static str) {
                match self {
                    $($pat => (concat!("tape.fwd.", $name), concat!("tape.bwd.", $name)),)*
                }
            }
        }
    };
}

op_names! {
    Op::Constant => "constant",
    Op::Leaf(_) => "param",
    Op::MatMul => "matmul",
    Op::MatMulNT => "matmul_nt",
    Op::Add => "add",
    Op::Sub => "sub",
    Op::Hadamard => "hadamard",
    Op::AddRow => "add_row",
    Op::AddCol => "add_col",
    Op::MulCol => "mul_col",
    Op::Scale(_) => "scale",
    Op::Shift(_) => "shift",
    Op::Transpose => "transpose",
    Op::Relu => "relu",
    Op::LeakyRelu(_) => "leaky_relu",
    Op::Sigmoid => "sigmoid",
    Op::Tanh => "tanh",
    Op::SoftmaxRows => "softmax_rows",
    Op::LogSoftmaxRows => "log_softmax_rows",
    Op::Exp => "exp",
    Op::Ln => "ln",
    Op::Sqrt => "sqrt",
    Op::PowConst(_) => "pow_const",
    Op::HStack => "hstack",
    Op::VStack => "vstack",
    Op::GatherRows(_) => "gather_rows",
    Op::GatherEntries(_) => "gather_entries",
    Op::SumAll => "sum_all",
    Op::ColSums => "col_sums",
    Op::ColMeans => "col_means",
    Op::ColMaxes(_) => "col_maxes",
    Op::RowSums => "row_sums",
    Op::Spmm(_) => "spmm",
    Op::MatMulCsr(_) => "matmul_csr",
    Op::SegmentSums(_) => "segment_sums",
    Op::SegmentMeans(_) => "segment_means",
    Op::SegmentSoftmax(_) => "segment_softmax",
}

impl<T: Scalar> std::fmt::Debug for Op<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}
