//! The computation tape: forward recording and the reverse sweep.

use crate::op::{Op, GATHER_PAD};
use crate::param::Param;
use hap_tensor::{CsrMatrix, Scalar, Tensor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Handle to a value recorded on a [`Tape`].
///
/// `Var` is a plain index — `Copy`, 8 bytes — valid only for the tape that
/// produced it. Using a `Var` from one tape with another is a logic error
/// and is caught by shape/bounds assertions in debug builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

struct Node<T: Scalar> {
    value: Tensor<T>,
    op: Op<T>,
    /// Indices of parent nodes, in operand order (`usize::MAX` where the
    /// op has fewer than two).
    parents: [usize; 2],
}

/// A define-by-run computation graph.
///
/// Build one tape per forward pass: record constants and parameters as
/// leaves, combine them with the operator methods, then call
/// [`Tape::backward`] on the (scalar) output. Parameter gradients are
/// accumulated into their [`Param`] buffers; gradients of any intermediate
/// can be read back with [`Tape::grad`] after the sweep.
///
/// ```
/// use hap_autograd::{Param, Tape};
/// use hap_tensor::Tensor;
///
/// let w = Param::new("w", Tensor::full(1, 1, 3.0));
/// let mut tape = Tape::new();
/// let x = tape.constant(Tensor::full(1, 1, 2.0));
/// let wv = tape.param(&w);
/// let y = tape.hadamard(x, wv);     // y = w·x
/// let loss = tape.hadamard(y, y);   // loss = (w·x)² = 36
/// assert_eq!(tape.scalar(loss), 36.0);
/// tape.backward(loss);
/// // d loss / d w = 2·w·x² = 24
/// assert_eq!(w.grad()[(0, 0)], 24.0);
/// ```
///
/// A trainer reuses one tape across steps with [`Tape::reset`]. Forward
/// values and gradients are plain allocations owned by the tape, and
/// `reset` drops them all; only the node and gradient vectors keep their
/// capacity.
///
/// At [`hap_obs::Level::Trace`], one pass in [`PROFILE_ONE_PASS_IN`]
/// (from `new` or `reset` to the next reset, across all tapes) is timed
/// node by node, one clock read each: a node is charged the time since
/// the previous node of its sweep, in histogram `time.tape.fwd.<op>` or
/// `time.tape.bwd.<op>` ([`Op::name`]). A forward node's time thus
/// includes its caller's work since the previous node (MOA's column
/// selection lands on `gather_entries`). The `reset` that ends a profiled
/// pass is timed as `time.tape.reset`. Below `Trace` this costs one
/// relaxed atomic load per pass.
pub struct Tape<T: Scalar = f64> {
    nodes: Vec<Node<T>>,
    /// Gradients from the most recent `backward` call, parallel to `nodes`.
    grads: Vec<Option<Tensor<T>>>,
    /// In a profiled pass, when the last node was recorded (see above).
    clock: Option<Instant>,
}

/// At [`hap_obs::Level::Trace`], one tape pass in this many is profiled
/// ([`Tape`]'s per-op profile).
pub const PROFILE_ONE_PASS_IN: u64 = 32;

/// Passes started at `Level::Trace`, across all tapes and threads.
static TRACED_PASSES: AtomicU64 = AtomicU64::new(0);

/// The profile clock of the pass that starts now: the time, if the pass
/// is profiled.
fn profile_next_pass() -> Option<Instant> {
    let profiled = hap_obs::trace_enabled()
        && TRACED_PASSES.fetch_add(1, Ordering::Relaxed) % PROFILE_ONE_PASS_IN == 0;
    profiled.then(Instant::now)
}

/// Charges the time since `last` to timing scope `scope` and returns now.
fn lap(scope: &'static str, last: Instant) -> Instant {
    let now = Instant::now();
    hap_obs::record_duration(scope, now - last);
    now
}

impl<T: Scalar> Default for Tape<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> Tape<T> {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            grads: Vec::new(),
            clock: profile_next_pass(),
        }
    }

    /// Clears the tape for a fresh forward pass.
    ///
    /// Drops every forward value and gradient of the last pass; the node
    /// and gradient vectors keep their capacity. A trainer calls `reset`
    /// between steps instead of building a new `Tape`. Results do not
    /// depend on it: a reset tape computes the same bits as a new one.
    pub fn reset(&mut self) {
        let start = self.clock.map(|_| Instant::now());
        self.nodes.clear();
        self.grads.clear();
        if let Some(start) = start {
            hap_obs::record_duration("tape.reset", start.elapsed());
        }
        self.clock = profile_next_pass();
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Tensor<T>, op: Op<T>, parents: &[usize]) -> Var {
        if let Some(last) = &mut self.clock {
            *last = lap(op.scopes().0, *last);
        }
        debug_assert!(parents.len() <= 2);
        debug_assert!(parents.iter().all(|&p| p < self.nodes.len()));
        let mut ps = [usize::MAX; 2];
        for (slot, &p) in ps.iter_mut().zip(parents) {
            *slot = p;
        }
        self.nodes.push(Node {
            value,
            op,
            parents: ps,
        });
        Var(self.nodes.len() - 1)
    }

    /// The forward value of `v`, lent; clone it to keep it past the
    /// tape's next mutation.
    pub fn value(&self, v: Var) -> &Tensor<T> {
        &self.nodes[v.0].value
    }

    /// Shape of `v`.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    /// The value of a `1×1` node as a scalar.
    ///
    /// # Panics
    /// Panics when `v` is not `1×1`.
    pub fn scalar(&self, v: Var) -> f64 {
        let t = &self.nodes[v.0].value;
        assert_eq!(t.shape(), (1, 1), "scalar() called on non-scalar node");
        t[(0, 0)].to_f64()
    }

    // ----- leaves ---------------------------------------------------------

    /// Records a constant input. Gradients are tracked (readable via
    /// [`Tape::grad`]) but not accumulated anywhere.
    pub fn constant(&mut self, value: Tensor<T>) -> Var {
        self.push(value, Op::Constant, &[])
    }

    /// Binds a trainable parameter into this tape; backward will accumulate
    /// into the parameter's gradient buffer.
    pub fn param(&mut self, p: &Param<T>) -> Var {
        self.push(p.value(), Op::Leaf(p.clone()), &[])
    }

    // ----- binary ops -----------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(v, Op::MatMul, &[a.0, b.0])
    }

    /// Fused product against a transposed right operand: `a · bᵀ`,
    /// recorded as a single node. Byte-identical to
    /// `transpose(b)` + `matmul` (see [`Tensor::matmul_nt`]) but skips the
    /// intermediate transpose node and its allocation — use it when the
    /// transpose has no other consumer.
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.matmul_nt(&self.nodes[b.0].value);
        self.push(v, Op::MatMulNT, &[a.0, b.0])
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = &self.nodes[a.0].value + &self.nodes[b.0].value;
        self.push(v, Op::Add, &[a.0, b.0])
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = &self.nodes[a.0].value - &self.nodes[b.0].value;
        self.push(v, Op::Sub, &[a.0, b.0])
    }

    /// Elementwise product.
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.hadamard(&self.nodes[b.0].value);
        self.push(v, Op::Hadamard, &[a.0, b.0])
    }

    /// Broadcast-adds a `1×F` row vector to each row of `x`.
    pub fn add_row(&mut self, x: Var, row: Var) -> Var {
        let v = self.nodes[x.0].value.add_row(&self.nodes[row.0].value);
        self.push(v, Op::AddRow, &[x.0, row.0])
    }

    /// Broadcast-adds an `N×1` column vector to each column of `x`.
    pub fn add_col(&mut self, x: Var, col: Var) -> Var {
        let v = self.nodes[x.0].value.add_col(&self.nodes[col.0].value);
        self.push(v, Op::AddCol, &[x.0, col.0])
    }

    /// Scales row `i` of `x` by entry `i` of an `N×1` column vector
    /// (the gating step of gPool / SAGPool).
    pub fn mul_col(&mut self, x: Var, col: Var) -> Var {
        let xv = &self.nodes[x.0].value;
        let cv = &self.nodes[col.0].value;
        assert_eq!(cv.cols(), 1, "mul_col: gate must be a column vector");
        assert_eq!(cv.rows(), xv.rows(), "mul_col: row counts must agree");
        let mut out = xv.clone();
        for r in 0..out.rows() {
            let s = cv[(r, 0)];
            for e in out.row_mut(r) {
                *e *= s;
            }
        }
        self.push(out, Op::MulCol, &[x.0, col.0])
    }

    /// Column concatenation `[a ‖ b]` (Eq. 14's concatenation).
    pub fn hstack(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.hstack(&self.nodes[b.0].value);
        self.push(v, Op::HStack, &[a.0, b.0])
    }

    /// Row concatenation.
    pub fn vstack(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.vstack(&self.nodes[b.0].value);
        self.push(v, Op::VStack, &[a.0, b.0])
    }

    // ----- unary ops --------------------------------------------------------

    /// Scalar multiple.
    pub fn scale(&mut self, x: Var, s: f64) -> Var {
        let v = self.nodes[x.0].value.scale(s);
        self.push(v, Op::Scale(s), &[x.0])
    }

    /// Scalar shift (`x + s`), e.g. the ε-stabilisation before `ln`.
    pub fn shift(&mut self, x: Var, s: f64) -> Var {
        let v = self.nodes[x.0].value.shift(s);
        self.push(v, Op::Shift(s), &[x.0])
    }

    /// Transpose.
    pub fn transpose(&mut self, x: Var) -> Var {
        let v = self.nodes[x.0].value.transpose();
        self.push(v, Op::Transpose, &[x.0])
    }

    /// ReLU activation.
    pub fn relu(&mut self, x: Var) -> Var {
        let v = self.nodes[x.0].value.map(|e| e.max(T::ZERO));
        self.push(v, Op::Relu, &[x.0])
    }

    /// LeakyReLU with negative slope `alpha` (paper Definition 5.2, slope
    /// `1/a`).
    pub fn leaky_relu(&mut self, x: Var, alpha: f64) -> Var {
        let alpha_t = T::from_f64(alpha);
        let v = self.nodes[x.0]
            .value
            .map(move |e| if e >= T::ZERO { e } else { alpha_t * e });
        self.push(v, Op::LeakyRelu(alpha), &[x.0])
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let v = self.nodes[x.0]
            .value
            .map(|e| T::ONE / (T::ONE + (-e).exp()));
        self.push(v, Op::Sigmoid, &[x.0])
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        let v = self.nodes[x.0].value.map(T::tanh);
        self.push(v, Op::Tanh, &[x.0])
    }

    /// Row-wise softmax (Eq. 15).
    pub fn softmax_rows(&mut self, x: Var) -> Var {
        let v = self.nodes[x.0].value.softmax_rows();
        self.push(v, Op::SoftmaxRows, &[x.0])
    }

    /// Row-wise log-softmax (stable cross-entropy path).
    pub fn log_softmax_rows(&mut self, x: Var) -> Var {
        let xv = &self.nodes[x.0].value;
        let mut out = xv.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let m = row.iter().copied().fold(T::NEG_INFINITY, T::max);
            let lse = m + row.iter().map(|&e| (e - m).exp()).sum::<T>().ln();
            for e in row.iter_mut() {
                *e -= lse;
            }
        }
        self.push(out, Op::LogSoftmaxRows, &[x.0])
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, x: Var) -> Var {
        let v = self.nodes[x.0].value.map(T::exp);
        self.push(v, Op::Exp, &[x.0])
    }

    /// Elementwise natural logarithm. Callers are responsible for
    /// positivity (use [`Tape::shift`] with an ε first when needed).
    pub fn ln(&mut self, x: Var) -> Var {
        let v = self.nodes[x.0].value.map(T::ln);
        self.push(v, Op::Ln, &[x.0])
    }

    /// Elementwise square root.
    pub fn sqrt(&mut self, x: Var) -> Var {
        let v = self.nodes[x.0].value.map(T::sqrt);
        self.push(v, Op::Sqrt, &[x.0])
    }

    /// Elementwise constant power `x^p`. For non-integer `p` callers must
    /// guarantee positive inputs (degree vectors are, after the `Ã = A+I`
    /// self-loop shift).
    pub fn pow_const(&mut self, x: Var, p: f64) -> Var {
        let v = self.nodes[x.0].value.map(|e| e.powf(p));
        self.push(v, Op::PowConst(p), &[x.0])
    }

    /// Broadcast-multiplies each column of `x` elementwise by a `1×F` row
    /// vector (composition of transposes around [`Tape::mul_col`]).
    pub fn mul_row(&mut self, x: Var, row: Var) -> Var {
        let xt = self.transpose(x);
        let rt = self.transpose(row);
        let yt = self.mul_col(xt, rt);
        self.transpose(yt)
    }

    /// Selects rows `indices` (repetition allowed) — the Top-K step of
    /// gPool/SAGPool/SortPooling.
    pub fn gather_rows(&mut self, x: Var, indices: &[usize]) -> Var {
        let v = self.nodes[x.0].value.gather_rows(indices);
        self.push(v, Op::GatherRows(indices.to_vec()), &[x.0])
    }

    /// A `rows×cols` matrix whose row-major entry `k` is `x`'s row-major
    /// entry `src[k]`, or `+0.0` where `src[k]` is [`GATHER_PAD`]. One
    /// node for any rearrangement of entries (repetition allowed) — MOA's
    /// reduced columns. Every value is a copy; the backward pass adds
    /// each `G[k]` into a zeroed `dx` at `src[k]`.
    ///
    /// # Panics
    /// Panics when `src.len() != rows·cols` or an index is out of range.
    pub fn gather_entries(&mut self, x: Var, rows: usize, cols: usize, src: Vec<usize>) -> Var {
        assert_eq!(src.len(), rows * cols, "gather_entries: src length");
        let xs = self.nodes[x.0].value.as_slice();
        let v = src
            .iter()
            .map(|&s| if s == GATHER_PAD { T::ZERO } else { xs[s] })
            .collect();
        let v = Tensor::from_vec(rows, cols, v);
        self.push(v, Op::GatherEntries(src), &[x.0])
    }

    // ----- reductions -------------------------------------------------------

    /// Sum of all elements → `1×1`.
    pub fn sum_all(&mut self, x: Var) -> Var {
        // `sum()` accumulates in `T` and widens; `from_f64` narrows back —
        // an exact round-trip, so this is the `T`-native total.
        let v = Tensor::from_vec(1, 1, vec![T::from_f64(self.nodes[x.0].value.sum())]);
        self.push(v, Op::SumAll, &[x.0])
    }

    /// Column sums `N×F → 1×F` (sum-pooling readout).
    pub fn col_sums(&mut self, x: Var) -> Var {
        let v = self.nodes[x.0].value.col_sums();
        self.push(v, Op::ColSums, &[x.0])
    }

    /// Column means `N×F → 1×F` (mean-pooling readout).
    pub fn col_means(&mut self, x: Var) -> Var {
        let v = self.nodes[x.0].value.col_means();
        self.push(v, Op::ColMeans, &[x.0])
    }

    /// Column maxima `N×F → 1×F` (max-pooling readout). Ties route the
    /// gradient to the first maximal row, matching PyTorch's `max`.
    pub fn col_maxes(&mut self, x: Var) -> Var {
        let xv = &self.nodes[x.0].value;
        assert!(xv.rows() > 0, "col_maxes of empty tensor");
        let mut argmax = vec![0usize; xv.cols()];
        let mut out = Tensor::zeros(1, xv.cols());
        for c in 0..xv.cols() {
            let mut best = T::NEG_INFINITY;
            for r in 0..xv.rows() {
                if xv[(r, c)] > best {
                    best = xv[(r, c)];
                    argmax[c] = r;
                }
            }
            out[(0, c)] = best;
        }
        self.push(out, Op::ColMaxes(argmax), &[x.0])
    }

    /// Row sums `N×F → N×1`.
    pub fn row_sums(&mut self, x: Var) -> Var {
        let v = self.nodes[x.0].value.row_sums();
        self.push(v, Op::RowSums, &[x.0])
    }

    // ----- sparse & segmented ops -------------------------------------------

    /// Sparse propagation `S · h` where `S` is a **symmetric** CSR matrix
    /// (e.g. the normalised adjacency `D̃^{-1/2}ÃD̃^{-1/2}` of an
    /// undirected graph, or a block-diagonal batch of them). The matrix is
    /// captured by the op rather than recorded as a tape node: propagation
    /// structure is constant, so no gradient is computed for it, and the
    /// backward pass exploits `Sᵀ = S` to reuse the same CSR.
    ///
    /// Both the forward product and the `dH = S·G` backward are
    /// byte-identical to the dense `constant(S) → matmul` path — the dense
    /// kernels skip zero entries in ascending column order, which is
    /// exactly the CSR walk — so sparse dispatch never changes results.
    ///
    /// # Panics
    /// Panics when the shapes do not chain; debug builds also assert
    /// symmetry.
    pub fn spmm(&mut self, s: &Arc<CsrMatrix<T>>, h: Var) -> Var {
        debug_assert!(s.is_symmetric(), "spmm requires a symmetric matrix");
        let v = s.spmm(&self.nodes[h.0].value);
        self.push(v, Op::Spmm(Arc::clone(s)), &[h.0])
    }

    /// Right product `x · S` by a **symmetric** CSR matrix — HAP's level-0
    /// `MᵀA` (Eq. 18) over a fixed graph's raw adjacency, so no dense
    /// `N×N` matrix is formed. Computed by [`CsrMatrix::spmm_left`], term
    /// for term `(S·xᵀ)ᵀ`; the backward `dx = G·S` uses it again. Like
    /// [`Tape::spmm`], `S` is held by the op and gets no gradient.
    ///
    /// Value and `dx` are byte-identical to `constant(S) → matmul(x, ·)`
    /// whenever `x`, `S` and the incoming gradient are finite. The dense
    /// kernel adds `x[i][k]·S[k][j]` in ascending `k` from `+0.0`; a term
    /// it adds for a zero `S[k][j]`, or skips for a zero `x[i][k]`, is
    /// `±0`, and a `±0` term cannot change a running sum that starts at
    /// `+0.0` (ARCHITECTURE.md "CSR adjacency"). The SpMM walk adds the
    /// remaining terms in the same ascending order, each the same product
    /// since `S[j][k] = S[k][j]` bit for bit.
    ///
    /// # Panics
    /// Panics when the shapes do not chain; debug builds also assert
    /// symmetry.
    pub fn matmul_csr(&mut self, x: Var, s: &Arc<CsrMatrix<T>>) -> Var {
        let v = s.spmm_left(&self.nodes[x.0].value);
        self.push(v, Op::MatMulCsr(Arc::clone(s)), &[x.0])
    }

    /// Per-segment column sums `N×F → B×F` (the batched form of
    /// [`Tape::col_sums`]; segment `b` covers rows
    /// `offsets[b]..offsets[b+1]`).
    ///
    /// # Panics
    /// Panics when `offsets` is not a valid segment layout for `x`.
    pub fn segment_sums(&mut self, x: Var, offsets: &Arc<Vec<usize>>) -> Var {
        let v = self.nodes[x.0].value.segment_sums(offsets);
        self.push(v, Op::SegmentSums(Arc::clone(offsets)), &[x.0])
    }

    /// Per-segment column means `N×F → B×F`: row `b` is byte-identical to
    /// [`Tape::col_means`] of segment `b`'s rows, which is what makes
    /// batched readouts match the per-graph oracle bit for bit.
    ///
    /// # Panics
    /// Panics when `offsets` is not a valid segment layout for `x`.
    pub fn segment_means(&mut self, x: Var, offsets: &Arc<Vec<usize>>) -> Var {
        let v = self.nodes[x.0].value.segment_means(offsets);
        self.push(v, Op::SegmentMeans(Arc::clone(offsets)), &[x.0])
    }

    /// Per-column softmax within each row segment (`N×F → N×F`), the
    /// attention normaliser for segment-structured batches: one graph's
    /// node scores compete only with each other.
    ///
    /// # Panics
    /// Panics when `offsets` is not a valid segment layout for `x`.
    pub fn segment_softmax(&mut self, x: Var, offsets: &Arc<Vec<usize>>) -> Var {
        let v = self.nodes[x.0].value.segment_softmax(offsets);
        self.push(v, Op::SegmentSoftmax(Arc::clone(offsets)), &[x.0])
    }

    // ----- composite helpers -------------------------------------------------

    /// Squared Euclidean distance between two same-shape values → `1×1`.
    /// This is the `d(G₁,G₂)` of Eq. 22, kept differentiable.
    pub fn squared_distance(&mut self, a: Var, b: Var) -> Var {
        let d = self.sub(a, b);
        let sq = self.hadamard(d, d);
        self.sum_all(sq)
    }

    // ----- backward -----------------------------------------------------------

    /// Runs the reverse sweep from `output`, which must be `1×1`.
    ///
    /// Parameter gradients are *accumulated* (call
    /// [`crate::ParamStore::zero_grads`] between optimizer steps); gradients
    /// of every node are retained for inspection via [`Tape::grad`].
    pub fn backward(&mut self, output: Var) {
        self.backward_with_seed(output, Tensor::ones(1, 1));
    }

    /// Reverse sweep with an explicit seed gradient for `output` (shape must
    /// match the output node). Used to weight multiple losses.
    pub fn backward_with_seed(&mut self, output: Var, seed: Tensor<T>) {
        assert_eq!(
            self.nodes[output.0].value.shape(),
            seed.shape(),
            "backward seed shape must match output shape"
        );
        self.grads.clear();
        self.grads.resize_with(self.nodes.len(), || None);
        self.grads[output.0] = Some(seed);

        if let Some(last) = &mut self.clock {
            *last = Instant::now();
        }
        for i in (0..=output.0).rev() {
            let Some(g) = self.grads[i].take() else {
                continue;
            };
            let node = &self.nodes[i];
            node.propagate(&self.nodes, &g, &mut self.grads);
            if let Some(last) = &mut self.clock {
                *last = lap(node.op.scopes().1, *last);
            }
            self.grads[i] = Some(g);
        }
    }

    /// Gradient of the last backward sweep at `v` (zero tensor when the node
    /// did not participate).
    pub fn grad(&self, v: Var) -> Tensor<T> {
        match self.grads.get(v.0).and_then(|g| g.as_ref()) {
            Some(g) => g.clone(),
            None => {
                let (r, c) = self.nodes[v.0].value.shape();
                Tensor::zeros(r, c)
            }
        }
    }
}

/// Adds `delta` into the gradient slot `idx`, in place when the slot is
/// already filled: `add_in_place` gives the bits of `&*g + &delta`.
fn accumulate<T: Scalar>(grads: &mut [Option<Tensor<T>>], idx: usize, delta: Tensor<T>) {
    match &mut grads[idx] {
        Some(g) => g.add_in_place(&delta),
        slot => *slot = Some(delta),
    }
}

/// [`accumulate`] of a borrowed delta: copies it only into an empty slot.
fn accumulate_ref<T: Scalar>(grads: &mut [Option<Tensor<T>>], idx: usize, delta: &Tensor<T>) {
    match &mut grads[idx] {
        Some(g) => g.add_in_place(delta),
        slot => *slot = Some(delta.clone()),
    }
}

impl<T: Scalar> Node<T> {
    /// Adds this node's contribution, given its own gradient `g`, into
    /// its parents' gradient slots. `nodes` is the whole tape, so that
    /// the op is borrowed in place rather than cloned per sweep.
    fn propagate(&self, nodes: &[Node<T>], g: &Tensor<T>, grads: &mut [Option<Tensor<T>>]) {
        let [p0, p1] = self.parents;
        let parent = |k: usize| &nodes[self.parents[k]].value;
        let y = &self.value;
        match &self.op {
            Op::Constant => {}
            Op::Leaf(param) => param.accumulate_grad(g),
            Op::MatMul => {
                // Fused kernels: same summation order and zero-skip as the
                // former `g.matmul(&Bᵀ)` / `Aᵀ.matmul(g)`, minus two
                // transpose allocations per node per sweep.
                accumulate(grads, p0, g.matmul_nt(parent(1)));
                accumulate(grads, p1, parent(0).matmul_tn(g));
            }
            Op::MatMulNT => {
                // C = A·Bᵀ: dA = G·B, dB = Gᵀ·A
                accumulate(grads, p0, g.matmul(parent(1)));
                accumulate(grads, p1, g.matmul_tn(parent(0)));
            }
            Op::Add => {
                accumulate_ref(grads, p0, g);
                accumulate_ref(grads, p1, g);
            }
            Op::Sub => {
                accumulate_ref(grads, p0, g);
                accumulate(grads, p1, g.scale(-1.0));
            }
            Op::Hadamard => {
                accumulate(grads, p0, g.hadamard(parent(1)));
                accumulate(grads, p1, g.hadamard(parent(0)));
            }
            Op::AddRow => {
                accumulate_ref(grads, p0, g);
                accumulate(grads, p1, g.col_sums());
            }
            Op::AddCol => {
                accumulate_ref(grads, p0, g);
                accumulate(grads, p1, g.row_sums());
            }
            Op::MulCol => {
                let dc = g.hadamard(parent(0)).row_sums();
                let c = parent(1); // N×1 gate
                let mut dx = g.clone();
                for r in 0..dx.rows() {
                    let s = c[(r, 0)];
                    for e in dx.row_mut(r) {
                        *e *= s;
                    }
                }
                accumulate(grads, p0, dx);
                accumulate(grads, p1, dc);
            }
            Op::Scale(s) => accumulate(grads, p0, g.scale(*s)),
            Op::Shift(_) => accumulate_ref(grads, p0, g),
            Op::Transpose => accumulate(grads, p0, g.transpose()),
            Op::Relu => {
                let mask = parent(0).map(|e| if e > T::ZERO { T::ONE } else { T::ZERO });
                accumulate(grads, p0, g.hadamard(&mask));
            }
            Op::LeakyRelu(alpha) => {
                let alpha_t = T::from_f64(*alpha);
                let mask = parent(0).map(move |e| if e >= T::ZERO { T::ONE } else { alpha_t });
                accumulate(grads, p0, g.hadamard(&mask));
            }
            Op::Sigmoid => {
                let dy = y.map(|e| e * (T::ONE - e));
                accumulate(grads, p0, g.hadamard(&dy));
            }
            Op::Tanh => {
                let dy = y.map(|e| T::ONE - e * e);
                accumulate(grads, p0, g.hadamard(&dy));
            }
            Op::SoftmaxRows => {
                let (rows, cols) = y.shape();
                let mut dx = Tensor::zeros(rows, cols);
                for r in 0..rows {
                    let dot: T = g.row(r).iter().zip(y.row(r)).map(|(&a, &b)| a * b).sum();
                    for c in 0..cols {
                        dx[(r, c)] = y[(r, c)] * (g[(r, c)] - dot);
                    }
                }
                accumulate(grads, p0, dx);
            }
            Op::LogSoftmaxRows => {
                // y = x - lse(x); dx = g - softmax(x) * rowsum(g)
                let sm = parent(0).softmax_rows();
                let mut dx = g.clone();
                for r in 0..dx.rows() {
                    let gs: T = g.row(r).iter().copied().sum();
                    for c in 0..dx.cols() {
                        dx[(r, c)] -= sm[(r, c)] * gs;
                    }
                }
                accumulate(grads, p0, dx);
            }
            Op::Exp => accumulate(grads, p0, g.hadamard(y)),
            Op::Ln => {
                let inv = parent(0).map(|e| T::ONE / e);
                accumulate(grads, p0, g.hadamard(&inv));
            }
            Op::Sqrt => {
                let half = T::from_f64(0.5);
                let dy = y.map(move |e| half / e);
                accumulate(grads, p0, g.hadamard(&dy));
            }
            Op::PowConst(p) => {
                let (p, pt) = (*p, T::from_f64(*p));
                let dy = parent(0).map(move |e| pt * e.powf(p - 1.0));
                accumulate(grads, p0, g.hadamard(&dy));
            }
            Op::HStack => {
                let ca = parent(0).cols();
                accumulate(grads, p0, g.slice_cols(0, ca));
                accumulate(grads, p1, g.slice_cols(ca, g.cols()));
            }
            Op::VStack => {
                let ra = parent(0).rows();
                accumulate(grads, p0, g.slice_rows(0, ra));
                accumulate(grads, p1, g.slice_rows(ra, g.rows()));
            }
            Op::GatherRows(indices) => {
                let (rows, cols) = parent(0).shape();
                let mut dx = Tensor::zeros(rows, cols);
                for (gi, &src) in indices.iter().enumerate() {
                    for (d, &gv) in dx.row_mut(src).iter_mut().zip(g.row(gi)) {
                        *d += gv;
                    }
                }
                accumulate(grads, p0, dx);
            }
            Op::GatherEntries(src) => {
                let (rows, cols) = parent(0).shape();
                let mut dx = Tensor::zeros(rows, cols);
                let d = dx.as_mut_slice();
                for (&s, &gv) in src.iter().zip(g.as_slice()) {
                    if s != GATHER_PAD {
                        d[s] += gv;
                    }
                }
                accumulate(grads, p0, dx);
            }
            Op::SumAll => {
                let (rows, cols) = parent(0).shape();
                accumulate(grads, p0, Tensor::full(rows, cols, g[(0, 0)]));
            }
            Op::ColSums => {
                let (rows, cols) = parent(0).shape();
                let mut dx = Tensor::zeros(rows, cols);
                for r in 0..rows {
                    dx.row_mut(r).copy_from_slice(g.row(0));
                }
                accumulate(grads, p0, dx);
            }
            Op::ColMeans => {
                let (rows, cols) = parent(0).shape();
                let n = T::from_f64(rows as f64);
                let mut dx = Tensor::zeros(rows, cols);
                for r in 0..rows {
                    for (d, &gv) in dx.row_mut(r).iter_mut().zip(g.row(0)) {
                        *d = gv / n;
                    }
                }
                accumulate(grads, p0, dx);
            }
            Op::ColMaxes(argmax) => {
                let (rows, cols) = parent(0).shape();
                let mut dx = Tensor::zeros(rows, cols);
                for (c, &r) in argmax.iter().enumerate() {
                    dx[(r, c)] += g[(0, c)];
                }
                accumulate(grads, p0, dx);
            }
            Op::RowSums => {
                let (rows, cols) = parent(0).shape();
                let mut dx = Tensor::zeros(rows, cols);
                for r in 0..rows {
                    dx.row_mut(r).fill(g[(r, 0)]);
                }
                accumulate(grads, p0, dx);
            }
            Op::Spmm(s) => {
                // dH = Sᵀ·G = S·G by the symmetry contract. Byte-identical
                // to the dense path's `matmul_tn(S, G)` backward: that
                // kernel skips S's zeros and accumulates ascending, which
                // is again the CSR row walk.
                accumulate(grads, p0, s.spmm(g));
            }
            Op::MatMulCsr(s) => {
                // dX = G·Sᵀ = G·S by the symmetry contract; the dense
                // path's `matmul_nt(G, S)` adds the same non-zero terms in
                // the same ascending order.
                accumulate(grads, p0, s.spmm_left(g));
            }
            Op::SegmentSums(offsets) => {
                let (rows, cols) = parent(0).shape();
                let mut dx = Tensor::zeros(rows, cols);
                for b in 0..offsets.len() - 1 {
                    for r in offsets[b]..offsets[b + 1] {
                        dx.row_mut(r).copy_from_slice(g.row(b));
                    }
                }
                accumulate(grads, p0, dx);
            }
            Op::SegmentMeans(offsets) => {
                let (rows, cols) = parent(0).shape();
                let mut dx = Tensor::zeros(rows, cols);
                for b in 0..offsets.len() - 1 {
                    let n = T::from_f64((offsets[b + 1] - offsets[b]) as f64);
                    for r in offsets[b]..offsets[b + 1] {
                        for (d, &gv) in dx.row_mut(r).iter_mut().zip(g.row(b)) {
                            *d = gv / n;
                        }
                    }
                }
                accumulate(grads, p0, dx);
            }
            Op::SegmentSoftmax(offsets) => {
                // Softmax Jacobian down each (segment, column):
                // dx = y ∘ (g − Σ_segment y∘g).
                let (rows, cols) = y.shape();
                let mut dx = Tensor::zeros(rows, cols);
                for b in 0..offsets.len() - 1 {
                    let seg = offsets[b]..offsets[b + 1];
                    let mut dots = vec![T::ZERO; cols];
                    for r in seg.clone() {
                        for ((dot, &yv), &gv) in dots.iter_mut().zip(y.row(r)).zip(g.row(r)) {
                            *dot += yv * gv;
                        }
                    }
                    for r in seg {
                        for c in 0..cols {
                            dx[(r, c)] = y[(r, c)] * (g[(r, c)] - dots[c]);
                        }
                    }
                }
                accumulate(grads, p0, dx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_tensor::testutil::assert_close;

    #[test]
    fn forward_values_match_tensor_ops() {
        let mut t = Tape::new();
        let a = t.constant(Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let b = t.constant(Tensor::eye(2));
        let c = t.matmul(a, b);
        assert_close(t.value(c), t.value(a), 1e-12);
        let s = t.sum_all(c);
        assert_eq!(t.scalar(s), 10.0);
    }

    #[test]
    fn backward_through_matmul_chain() {
        // loss = sum(A·B); dA = 1·Bᵀ, dB = Aᵀ·1
        let mut t = Tape::new();
        let a = t.constant(Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let b = t.constant(Tensor::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]));
        let c = t.matmul(a, b);
        let loss = t.sum_all(c);
        t.backward(loss);
        let da = t.grad(a);
        // ones(2,2)·Bᵀ = [[11,15],[11,15]]
        assert_close(
            &da,
            &Tensor::from_rows(&[vec![11.0, 15.0], vec![11.0, 15.0]]),
            1e-12,
        );
        let db = t.grad(b);
        // Aᵀ·ones = [[4,4],[6,6]]
        assert_close(
            &db,
            &Tensor::from_rows(&[vec![4.0, 4.0], vec![6.0, 6.0]]),
            1e-12,
        );
    }

    #[test]
    fn param_gradients_accumulate_across_tapes() {
        let p = Param::<f64>::new("w", Tensor::ones(1, 1));
        for _ in 0..3 {
            let mut t = Tape::new();
            let w = t.param(&p);
            let loss = t.sum_all(w);
            t.backward(loss);
        }
        assert_eq!(p.grad()[(0, 0)], 3.0);
    }

    #[test]
    fn fan_out_gradients_sum() {
        // loss = sum(x ∘ x) -> dx = 2x
        let mut t = Tape::new();
        let x = t.constant(Tensor::row_vector(&[1.0, -2.0, 3.0]));
        let sq = t.hadamard(x, x);
        let loss = t.sum_all(sq);
        t.backward(loss);
        assert_close(&t.grad(x), &Tensor::row_vector(&[2.0, -4.0, 6.0]), 1e-12);
    }

    #[test]
    fn softmax_rows_grad_is_zero_for_uniform_seed() {
        // d softmax / dx with uniform upstream gradient vanishes because
        // softmax outputs sum to a constant.
        let mut t = Tape::new();
        let x = t.constant(Tensor::row_vector(&[0.3, -1.0, 2.0]));
        let y = t.softmax_rows(x);
        let loss = t.sum_all(y);
        t.backward(loss);
        let g = t.grad(x);
        for &v in g.as_slice() {
            assert!(v.abs() < 1e-12, "expected zero grad, got {v}");
        }
    }

    #[test]
    fn squared_distance_grad() {
        let mut t = Tape::new();
        let a = t.constant(Tensor::row_vector(&[1.0, 2.0]));
        let b = t.constant(Tensor::row_vector(&[4.0, 6.0]));
        let d = t.squared_distance(a, b);
        assert_eq!(t.scalar(d), 25.0);
        t.backward(d);
        assert_close(&t.grad(a), &Tensor::row_vector(&[-6.0, -8.0]), 1e-12);
        assert_close(&t.grad(b), &Tensor::row_vector(&[6.0, 8.0]), 1e-12);
    }

    #[test]
    fn gather_rows_scatters_gradient() {
        let mut t = Tape::new();
        let x = t.constant(Tensor::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]));
        let y = t.gather_rows(x, &[2, 2, 0]);
        let loss = t.sum_all(y);
        t.backward(loss);
        assert_close(
            &t.grad(x),
            &Tensor::from_rows(&[vec![1.0], vec![0.0], vec![2.0]]),
            1e-12,
        );
    }

    #[test]
    fn gather_entries_copies_pads_and_scatters_gradient() {
        let mut t = Tape::<f64>::new();
        let x = t.constant(Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let y = t.gather_entries(x, 2, 2, vec![3, GATHER_PAD, 3, 0]);
        assert_eq!(
            t.value(y).as_slice(),
            &[4.0, 0.0, 4.0, 1.0],
            "row-major copies, +0.0 at the pad"
        );
        assert_eq!(t.value(y)[(0, 1)].to_bits(), 0.0f64.to_bits());
        let loss = t.sum_all(y);
        t.backward(loss);
        assert_close(
            &t.grad(x),
            &Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]),
            1e-12,
        );
    }

    #[test]
    fn gradcheck_gather_entries_with_padding() {
        use crate::gradcheck::check_unary_op;
        let mut rng = hap_rand::Rng::from_seed(43);
        let x = Tensor::<f64>::rand_uniform(3, 2, -1.5, 1.5, &mut rng);
        // Non-uniform downstream weights so every routed gradient differs.
        let w = Tensor::rand_uniform(2, 4, 0.2, 2.0, &mut rng);
        let src = vec![5, GATHER_PAD, 0, 2, 5, 1, GATHER_PAD, 3];
        check_unary_op(x, 1e-6, move |t, x| {
            let y = t.gather_entries(x, 2, 4, src.clone());
            let w = t.constant(w.clone());
            let z = t.hadamard(y, w);
            let z = t.hadamard(z, z);
            t.sum_all(z)
        });
    }

    #[test]
    fn col_maxes_routes_to_argmax() {
        let mut t = Tape::new();
        let x = t.constant(Tensor::from_rows(&[vec![1.0, 5.0], vec![3.0, 2.0]]));
        let y = t.col_maxes(x);
        assert_close(t.value(y), &Tensor::row_vector(&[3.0, 5.0]), 1e-12);
        let loss = t.sum_all(y);
        t.backward(loss);
        assert_close(
            &t.grad(x),
            &Tensor::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]),
            1e-12,
        );
    }

    #[test]
    #[should_panic(expected = "seed shape")]
    fn backward_rejects_mismatched_seed() {
        let mut t = Tape::new();
        let x = t.constant(Tensor::<f64>::zeros(2, 2));
        t.backward_with_seed(x, Tensor::zeros(1, 1));
    }

    fn assert_bits_equal(what: &str, a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matmul_nt_matches_composed_transpose_matmul_bitwise() {
        let av = Tensor::from_rows(&[vec![1.0, 0.0, 2.5], vec![-3.0, 4.0, 0.0]]);
        let bv = Tensor::from_rows(&[vec![0.5, -1.5, 2.0], vec![3.0, 0.0, -0.25]]);
        // fused
        let mut tf = Tape::new();
        let (a, b) = (tf.constant(av.clone()), tf.constant(bv.clone()));
        let c = tf.matmul_nt(a, b);
        let loss = tf.sum_all(c);
        tf.backward(loss);
        // composed
        let mut tc = Tape::new();
        let (a2, b2) = (tc.constant(av), tc.constant(bv));
        let bt = tc.transpose(b2);
        let c2 = tc.matmul(a2, bt);
        let loss2 = tc.sum_all(c2);
        tc.backward(loss2);
        assert_bits_equal("value", tf.value(c), tc.value(c2));
        assert_bits_equal("dA", &tf.grad(a), &tc.grad(a2));
        assert_bits_equal("dB", &tf.grad(b), &tc.grad(b2));
    }

    #[test]
    fn reset_reuses_storage_without_changing_results() {
        let p = Param::new("w", Tensor::from_rows(&[vec![2.0, -1.0], vec![0.5, 3.0]]));
        let xv = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);

        // Reference: fresh tape per step.
        let reference: Vec<Tensor> = (0..3)
            .map(|_| {
                p.zero_grad();
                let mut t = Tape::new();
                let x = t.constant(xv.clone());
                let w = t.param(&p);
                let y = t.matmul(x, w);
                let z = t.relu(y);
                let loss = t.sum_all(z);
                t.backward(loss);
                p.grad()
            })
            .collect();

        // Same steps on one reused tape.
        let mut t = Tape::new();
        for expect in &reference {
            p.zero_grad();
            t.reset();
            assert!(t.is_empty());
            let x = t.constant(xv.clone());
            let w = t.param(&p);
            let y = t.matmul(x, w);
            let z = t.relu(y);
            let loss = t.sum_all(z);
            t.backward(loss);
            assert_bits_equal("param grad after reset", &p.grad(), expect);
        }
    }

    #[test]
    fn reset_then_smaller_graph_is_correct() {
        // Nothing from the first pass may leak into a later, differently
        // shaped computation on the reset tape.
        let mut t = Tape::new();
        let x = t.constant(Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let y = t.hadamard(x, x);
        let loss = t.sum_all(y);
        t.backward(loss);

        t.reset();
        let a = t.constant(Tensor::row_vector(&[1.0, -2.0, 3.0]));
        let sq = t.hadamard(a, a);
        let loss2 = t.sum_all(sq);
        t.backward(loss2);
        assert_close(&t.grad(a), &Tensor::row_vector(&[2.0, -4.0, 6.0]), 1e-12);
    }

    /// Random symmetric matrix with ~`density` non-zeros, as both dense
    /// tensor and CSR.
    fn random_symmetric_sparse(n: usize, density: f64, seed: u64) -> (Tensor, Arc<CsrMatrix>) {
        let mut rng = hap_rand::Rng::from_seed(seed);
        let mut dense = Tensor::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                if rng.gen_f64() < density {
                    let v = rng.gen_f64() * 2.0 - 1.0;
                    dense[(i, j)] = v;
                    dense[(j, i)] = v;
                }
            }
        }
        let csr = Arc::new(CsrMatrix::from_dense(&dense));
        (dense, csr)
    }

    #[test]
    fn spmm_forward_and_backward_are_bitwise_equal_to_dense_path() {
        for (n, f, density, seed) in [(1, 1, 1.0, 1), (6, 3, 0.4, 2), (25, 8, 0.1, 3)] {
            let (dense, csr) = random_symmetric_sparse(n, density, seed);
            let mut rng = hap_rand::Rng::from_seed(seed ^ 0xabcd);
            let hv = Tensor::rand_uniform(n, f, -1.0, 1.0, &mut rng);
            let w = Tensor::rand_uniform(f, f, -1.0, 1.0, &mut rng);

            // Sparse path: spmm node.
            let mut ts = Tape::new();
            let hs = ts.constant(hv.clone());
            let ys = ts.spmm(&csr, hs);
            let ws = ts.constant(w.clone());
            let zs = ts.matmul(ys, ws);
            let ls = ts.sum_all(zs);
            ts.backward(ls);

            // Dense oracle: constant(S) → matmul.
            let mut td = Tape::new();
            let hd = td.constant(hv.clone());
            let sd = td.constant(dense.clone());
            let yd = td.matmul(sd, hd);
            let wd = td.constant(w.clone());
            let zd = td.matmul(yd, wd);
            let ld = td.sum_all(zd);
            td.backward(ld);

            assert_bits_equal("spmm value", ts.value(ys), td.value(yd));
            assert_bits_equal("spmm dH", &ts.grad(hs), &td.grad(hd));
        }
    }

    #[test]
    fn matmul_csr_forward_and_backward_are_bitwise_equal_to_dense_path() {
        // x·S through the CSR op against constant(S) → matmul, with a
        // zero row in x (the dense kernel skips it, the SpMM walk adds
        // ±0 terms) and an edgeless S.
        for (n, f, density, seed) in [
            (1, 1, 1.0, 4),
            (7, 3, 0.4, 5),
            (30, 4, 0.1, 6),
            (5, 2, 0.0, 7),
        ] {
            let (dense, csr) = random_symmetric_sparse(n, density, seed);
            let mut rng = hap_rand::Rng::from_seed(seed ^ 0x5eed);
            let mut xv = Tensor::rand_uniform(f, n, -1.0, 1.0, &mut rng);
            xv.row_mut(0).fill(0.0);
            let w = Tensor::rand_uniform(n, 2, -1.0, 1.0, &mut rng);

            let mut ts = Tape::new();
            let xs = ts.constant(xv.clone());
            let ys = ts.matmul_csr(xs, &csr);
            let ws = ts.constant(w.clone());
            let zs = ts.matmul(ys, ws);
            let ls = ts.sum_all(zs);
            ts.backward(ls);

            let mut td = Tape::new();
            let xd = td.constant(xv.clone());
            let sd = td.constant(dense.clone());
            let yd = td.matmul(xd, sd);
            let wd = td.constant(w.clone());
            let zd = td.matmul(yd, wd);
            let ld = td.sum_all(zd);
            td.backward(ld);

            assert_bits_equal("matmul_csr value", ts.value(ys), td.value(yd));
            assert_bits_equal("matmul_csr dX", &ts.grad(xs), &td.grad(xd));
        }
    }

    #[test]
    fn gradcheck_segment_ops() {
        use crate::gradcheck::check_unary_op;
        let mut rng = hap_rand::Rng::from_seed(41);
        let x = Tensor::<f64>::rand_uniform(7, 3, -1.5, 1.5, &mut rng);
        // Non-uniform upstream weights so softmax/means gradients are
        // non-degenerate.
        let w = Tensor::rand_uniform(7, 3, 0.2, 2.0, &mut rng);
        let wb = Tensor::rand_uniform(3, 3, 0.2, 2.0, &mut rng);
        let offsets = Arc::new(vec![0usize, 2, 3, 7]);

        let off = Arc::clone(&offsets);
        let wc = wb.clone();
        check_unary_op(x.clone(), 1e-6, move |t, x| {
            let y = t.segment_sums(x, &off);
            let w = t.constant(wc.clone());
            let z = t.hadamard(y, w);
            t.sum_all(z)
        });

        let off = Arc::clone(&offsets);
        check_unary_op(x.clone(), 1e-6, move |t, x| {
            let y = t.segment_means(x, &off);
            let w = t.constant(wb.clone());
            let z = t.hadamard(y, w);
            t.sum_all(z)
        });

        let off = Arc::clone(&offsets);
        check_unary_op(x, 1e-5, move |t, x| {
            let y = t.segment_softmax(x, &off);
            let w = t.constant(w.clone());
            let z = t.hadamard(y, w);
            t.sum_all(z)
        });
    }

    #[test]
    fn segment_means_single_segment_matches_col_means_bitwise() {
        let mut rng = hap_rand::Rng::from_seed(42);
        let xv = Tensor::rand_uniform(5, 4, -1.0, 1.0, &mut rng);
        let offsets = Arc::new(vec![0usize, 5]);

        let mut ta = Tape::new();
        let xa = ta.constant(xv.clone());
        let ya = ta.segment_means(xa, &offsets);
        let la = ta.sum_all(ya);
        ta.backward(la);

        let mut tb = Tape::new();
        let xb = tb.constant(xv);
        let yb = tb.col_means(xb);
        let lb = tb.sum_all(yb);
        tb.backward(lb);

        assert_bits_equal("value", ta.value(ya), tb.value(yb));
        assert_bits_equal("grad", &ta.grad(xa), &tb.grad(xb));
    }
}
