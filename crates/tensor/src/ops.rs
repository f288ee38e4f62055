//! Linear-algebra and elementwise operations on [`Tensor`].
//!
//! Every shape-sensitive operation has a `try_*` form returning
//! `Result<Tensor, ShapeError>`; the short names (and the `std::ops`
//! operator impls) panic with the same diagnostic. The panicking forms are
//! what the autograd layer uses internally — by the time a tape executes,
//! shapes have already been validated at graph-construction time.
//!
//! # The GEMM kernel
//!
//! All three matrix products (`matmul`, `matmul_nt`, `matmul_tn`) run one
//! register-blocked block driver, which reads the right operand in place:
//!
//! * The output is walked in `MR × NR` tiles (`NR` is 8 for `f64` and 16
//!   for `f32`, one 64-byte cache line of a right-operand row either way).
//!   A tile keeps all `MR × NR` of its accumulators in SIMD registers over
//!   the whole depth, under a fixed `MR`-row loop, and stores them once.
//!   Tiles on the bottom and right edges run the same full block and store
//!   only their live corner.
//! * Row `p` of a tile's right-operand strip is the `NR` contiguous
//!   entries at `b[p·m + j₀..]`, read where they lie: nothing is packed.
//!   `matmul_tn` swaps in a transposed left accessor (`a[p·k + i]`), and
//!   `matmul_nt` is one `transpose` of its right operand feeding
//!   `matmul`, the composed form it is documented to equal.
//! * The block driver is compiled twice: once for the build's baseline
//!   target (SSE2 on x86-64), and once inside a
//!   `#[target_feature(enable = "avx2")]` function that every call picks
//!   when `is_x86_feature_detected!("avx2")` holds. Only `avx2` is
//!   enabled, never `fma`, and there is no switch: a CPU without AVX2
//!   runs the portable compile. AVX2 doubles the lanes per register, so a
//!   tile's accumulators take eight of the sixteen registers instead of
//!   spilling. On an AVX2 host the tests check the portable compile's
//!   bits by calling it directly, but its speed is not measured there.
//!
//! **Bitwise contract** (what the committed determinism goldens pin): for
//! every output element, contributions are accumulated in ascending `p`,
//! starting from `+0.0`, with no FMA contraction, and the contribution of
//! an exact zero of the left operand (`a[i][p] == 0.0`) is skipped. A full
//! tile whose right operand is all finite (one scan per call) adds that
//! zero's product instead of branching on it: the product is `±0.0`, and
//! an accumulator that starts at `+0.0` is never `−0.0` (round-to-nearest
//! gives `−0.0` only for `−0.0 + −0.0`), so adding `±0.0` leaves its bits
//! as the skip would. A right operand holding `±∞` or NaN keeps the
//! skipping tile, since `0 · ∞` is a NaN that the skip never adds. Tiling
//! and the vector width change only where values live, not which
//! additions happen in which order, so results are the same bits on any
//! x86-64 CPU, with or without AVX2 (a NaN result is NaN, but Rust leaves
//! its sign and payload unspecified); and the CSR SpMM walk (which visits
//! the same non-zeros in the same ascending order) stays byte-identical to
//! the dense product.
//!
//! # Threads
//!
//! Every operation here runs on its calling thread. The products HAP
//! computes are small: the largest in the benchmark workloads is 0.38M
//! multiply–adds (a `train` step), where the two-thread row blocking this
//! module once had needed about 0.64M to break even, and a scoped thread
//! costs tens of microseconds to start (EXPERIMENTS.md "Parallelism").
//! `HAP_THREADS` therefore cannot change a bit here. Callers that hand
//! whole graphs, shards or pairs to other threads do so through `hap-par`.

use crate::{Dtype, Scalar, ShapeError, Tensor};
use std::ops::{Add, Mul, Neg, Sub};

/// Register-tile height: rows of the output accumulated simultaneously.
const MR: usize = 4;

/// Left-operand accessor: lets the one block driver serve both the plain
/// (`a[i·lda + p]`) and transposed (`a[p·lda + i]`) left layouts without a
/// copy. Monomorphised away — `at` compiles to a single indexed load.
trait Lhs<T: Scalar> {
    fn at(&self, i: usize, p: usize) -> T;
}

/// Row-major left operand: element `(i, p)` at `a[i * lda + p]`.
struct LhsRows<'a, T> {
    a: &'a [T],
    lda: usize,
}

impl<T: Scalar> Lhs<T> for LhsRows<'_, T> {
    #[inline(always)]
    fn at(&self, i: usize, p: usize) -> T {
        self.a[i * self.lda + p]
    }
}

/// Transposed left operand (for `Aᵀ · B`): element `(i, p)` of `Aᵀ` at
/// `a[p * lda + i]` — reads a contiguous run `a[p·lda + i..i+MR]` per
/// tile step, never materialising the transpose.
struct LhsCols<'a, T> {
    a: &'a [T],
    lda: usize,
}

impl<T: Scalar> Lhs<T> for LhsCols<'_, T> {
    #[inline(always)]
    fn at(&self, i: usize, p: usize) -> T {
        self.a[p * self.lda + i]
    }
}

/// The operands of one dense product: output element `(i, j)` is the sum
/// over `p = 0..depth` of `lhs.at(i, p) · b[p·m + j]`, where `b` is the
/// `depth × m` right operand, row-major, read in place.
struct Gemm<'a, T, L> {
    lhs: L,
    depth: usize,
    b: &'a [T],
    m: usize,
    /// Every entry of `b` is finite, so a full tile may add a zero left
    /// entry's `±0.0` product instead of skipping it (module docs).
    finite: bool,
}

impl<'a, T: Scalar, L: Lhs<T>> Gemm<'a, T, L> {
    fn new(lhs: L, depth: usize, b: &'a [T], m: usize) -> Self {
        let finite = b.iter().all(|x| x.is_finite());
        Self {
            lhs,
            depth,
            b,
            m,
            finite,
        }
    }

    /// Fills `out` (zeros on entry) on the calling thread: [`Gemm::block`]
    /// in its AVX2 compile when the CPU has AVX2, and in its portable
    /// compile otherwise.
    fn run(&self, out: &mut Tensor<T>) {
        if self.m == 0 {
            return;
        }
        let out = out.as_mut_slice();
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: `block_avx2` requires a CPU with AVX2, which
            // `is_x86_feature_detected!("avx2")` has just confirmed.
            return unsafe { self.block_avx2(out) };
        }
        self.block(out);
    }

    /// [`Gemm::block`] compiled with AVX2 code generation. The body is the
    /// same source, so it performs the same operations in the same order:
    /// only the register width differs.
    ///
    /// # Safety
    /// The CPU running it must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn block_avx2(&self, out: &mut [T]) {
        self.block(out);
    }

    /// The block driver: fills `out`, the whole row-major output, tile by
    /// tile. Each output element is accumulated by exactly one tile in the
    /// fixed ascending-`p` order.
    #[inline(always)]
    fn block(&self, out: &mut [T]) {
        // Tile width `NR`: 8 `f64`s or 16 `f32`s, 64 bytes either way, so
        // a tile row of `b` is one cache line and the accumulator block
        // is `MR` cache lines of SIMD registers.
        match T::DTYPE {
            Dtype::F64 => self.block_w::<8>(out),
            Dtype::F32 => self.block_w::<16>(out),
        }
    }

    #[inline(always)]
    fn block_w<const W: usize>(&self, out: &mut [T]) {
        let m = self.m;
        let rows = out.len() / m;
        let mut i0 = 0;
        while i0 < rows {
            let mr = MR.min(rows - i0);
            let mut j0 = 0;
            while j0 < m {
                let w = W.min(m - j0);
                let tile_out = &mut out[i0 * m + j0..];
                // Three inlined calls, so that the full tile and the bottom
                // edge each see constant strip widths.
                if mr == MR && w == W && self.finite {
                    self.tile::<W, false>(i0, MR, j0, W, tile_out);
                } else if w == W {
                    self.tile::<W, true>(i0, mr, j0, W, tile_out);
                } else {
                    self.tile::<W, true>(i0, mr, j0, w, tile_out);
                }
                j0 += w;
            }
            i0 += mr;
        }
    }

    /// One tile of `mr ≤ MR` output rows (from row `i0`) and
    /// `w ≤ W` columns (from `j0`), written at the head of `out` with row
    /// stride `m`. It always runs the full `MR × W` register block and
    /// stores only the live `mr × w` corner: a bottom-edge tile reads zero
    /// left entries for its missing rows, which the skip passes over.
    /// `SKIP` branches past zero left entries; without it their `±0.0`
    /// products are added, which needs a finite `b` (module docs).
    #[inline(always)]
    fn tile<const W: usize, const SKIP: bool>(
        &self,
        i0: usize,
        mr: usize,
        j0: usize,
        w: usize,
        out: &mut [T],
    ) {
        let m = self.m;
        let mut acc = [[T::ZERO; W]; MR];
        for p in 0..self.depth {
            // A right-edge tile (`w < W`) reads a full window, which runs on
            // into the next row of `b`; the sums of those extra lanes are
            // never stored. Only at the end of `b`, where no next row
            // remains, is the strip zero-padded. Full-width tiles index
            // directly, which keeps that fallback out of their loop.
            let start = p * m + j0;
            let window = if w == W {
                Some(&self.b[start..start + W])
            } else {
                self.b.get(start..start + W)
            };
            let bp: [T; W] = match window {
                Some(window) => window.try_into().expect("window is W wide"),
                None => std::array::from_fn(|c| if c < w { self.b[start + c] } else { T::ZERO }),
            };
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = if r < mr {
                    self.lhs.at(i0 + r, p)
                } else {
                    T::ZERO
                };
                if SKIP && av == T::ZERO {
                    continue; // adjacency matrices are mostly zeros
                }
                for (a, &bv) in acc_r.iter_mut().zip(&bp) {
                    *a += av * bv;
                }
            }
        }
        for (r, acc_r) in acc.iter().take(mr).enumerate() {
            out[r * m..][..w].copy_from_slice(&acc_r[..w]);
        }
    }
}

impl<T: Scalar> Tensor<T> {
    // ----- matrix multiplication ----------------------------------------

    /// Matrix product `self · rhs`.
    ///
    /// Shapes must chain: an `n × k` left operand requires a `k × m` right
    /// operand and produces an `n × m` result.
    ///
    /// ```
    /// use hap_tensor::Tensor;
    /// let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0]]); // 1 × 3
    /// let b = Tensor::eye(3);                            // 3 × 3
    /// assert_eq!(a.try_matmul(&b).unwrap().shape(), (1, 3));
    /// ```
    ///
    /// # Errors
    /// Returns a [`ShapeError`] carrying both operand shapes when the inner
    /// dimensions disagree (`self.cols() != rhs.rows()`):
    ///
    /// ```
    /// use hap_tensor::Tensor;
    /// let err = Tensor::<f64>::zeros(2, 3).try_matmul(&Tensor::zeros(2, 3)).unwrap_err();
    /// let msg = err.to_string();
    /// assert!(msg.contains("matmul") && msg.contains("(2, 3)"), "got: {msg}");
    /// ```
    ///
    /// Runs the register-blocked GEMM kernel (see the module docs) on the
    /// calling thread.
    pub fn try_matmul(&self, rhs: &Tensor<T>) -> Result<Tensor<T>, ShapeError> {
        if self.cols() != rhs.rows() {
            return Err(ShapeError::binary(
                "matmul",
                self.shape(),
                rhs.shape(),
                "inner dimensions must agree",
            ));
        }
        let (n, k, m) = (self.rows(), self.cols(), rhs.cols());
        let mut out = Tensor::zeros(n, m);
        let lhs = LhsRows {
            a: self.as_slice(),
            lda: k,
        };
        Gemm::new(lhs, k, rhs.as_slice(), m).run(&mut out);
        Ok(out)
    }

    /// Panicking variant of [`Tensor::try_matmul`].
    ///
    /// # Panics
    /// Panics with the [`ShapeError`] display message — which names the op
    /// and both operand shapes — when the inner dimensions disagree. Use
    /// [`Tensor::try_matmul`] to handle the mismatch instead; the autograd
    /// layer calls this form because tape construction has already
    /// validated shapes.
    pub fn matmul(&self, rhs: &Tensor<T>) -> Tensor<T> {
        self.try_matmul(rhs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Product against a transposed right operand: `self · rhsᵀ`.
    ///
    /// An `n × k` left operand requires an `m × k` right operand (both
    /// column counts agree) and produces an `n × m` result. It is one
    /// `transpose` of `rhs` feeding the [`Tensor::try_matmul`] kernel, so
    /// the result is byte-identical to `self.matmul(&rhs.transpose())`:
    ///
    /// ```
    /// use hap_tensor::Tensor;
    /// let a = Tensor::from_rows(&[vec![1.0, 0.0], vec![2.0, 3.0]]);
    /// let b = Tensor::from_rows(&[vec![4.0, 5.0], vec![6.0, 7.0], vec![8.0, 9.0]]);
    /// assert_eq!(a.try_matmul_nt(&b).unwrap(), a.matmul(&b.transpose()));
    /// ```
    ///
    /// # Errors
    /// Returns a [`ShapeError`] carrying both operand shapes when the
    /// column counts disagree:
    ///
    /// ```
    /// use hap_tensor::Tensor;
    /// let err = Tensor::<f64>::zeros(2, 3).try_matmul_nt(&Tensor::zeros(3, 2)).unwrap_err();
    /// assert!(err.to_string().contains("matmul_nt"));
    /// ```
    pub fn try_matmul_nt(&self, rhs: &Tensor<T>) -> Result<Tensor<T>, ShapeError> {
        if self.cols() != rhs.cols() {
            return Err(ShapeError::binary(
                "matmul_nt",
                self.shape(),
                rhs.shape(),
                "inner dimensions (both column counts) must agree",
            ));
        }
        Ok(self.matmul(&rhs.transpose()))
    }

    /// Panicking variant of [`Tensor::try_matmul_nt`].
    ///
    /// # Panics
    /// Panics with the [`ShapeError`] display message when the column
    /// counts disagree.
    pub fn matmul_nt(&self, rhs: &Tensor<T>) -> Tensor<T> {
        self.try_matmul_nt(rhs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fused product against a transposed left operand: `selfᵀ · rhs`.
    ///
    /// An `n × k` left operand requires an `n × m` right operand (row
    /// counts agree) and produces a `k × m` result — without ever
    /// materialising `selfᵀ`: the kernel swaps in the transposed
    /// left-operand accessor (`a[p·k + i]`, a contiguous `MR`-run per
    /// step) and reads `rhs` in place like [`Tensor::try_matmul`].
    /// Summation order and the zero-skip condition (`a[p, i] == 0.0`, i.e.
    /// the transposed left element) match the composed form exactly, so
    /// the result is byte-identical to `self.transpose().matmul(rhs)`:
    ///
    /// ```
    /// use hap_tensor::Tensor;
    /// let a = Tensor::from_rows(&[vec![1.0, 0.0], vec![2.0, 3.0], vec![0.0, 4.0]]);
    /// let b = Tensor::from_rows(&[vec![5.0], vec![6.0], vec![7.0]]);
    /// assert_eq!(a.try_matmul_tn(&b).unwrap(), a.transpose().matmul(&b));
    /// ```
    ///
    /// # Errors
    /// Returns a [`ShapeError`] carrying both operand shapes when the row
    /// counts disagree:
    ///
    /// ```
    /// use hap_tensor::Tensor;
    /// let err = Tensor::<f64>::zeros(2, 3).try_matmul_tn(&Tensor::zeros(3, 2)).unwrap_err();
    /// assert!(err.to_string().contains("matmul_tn"));
    /// ```
    pub fn try_matmul_tn(&self, rhs: &Tensor<T>) -> Result<Tensor<T>, ShapeError> {
        if self.rows() != rhs.rows() {
            return Err(ShapeError::binary(
                "matmul_tn",
                self.shape(),
                rhs.shape(),
                "inner dimensions (both row counts) must agree",
            ));
        }
        let (n, k, m) = (self.rows(), self.cols(), rhs.cols());
        let mut out = Tensor::zeros(k, m);
        let lhs = LhsCols {
            a: self.as_slice(),
            lda: k,
        };
        Gemm::new(lhs, n, rhs.as_slice(), m).run(&mut out);
        Ok(out)
    }

    /// Panicking variant of [`Tensor::try_matmul_tn`].
    ///
    /// # Panics
    /// Panics with the [`ShapeError`] display message when the row counts
    /// disagree.
    pub fn matmul_tn(&self, rhs: &Tensor<T>) -> Tensor<T> {
        self.try_matmul_tn(rhs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Transpose.
    ///
    /// Processed in square tiles so that both the strided reads and the
    /// strided writes stay within a cache-line-sized working set; for the
    /// matrices in this workspace (up to a few hundred rows) this roughly
    /// halves the cost of the naive row-major sweep.
    pub fn transpose(&self) -> Tensor<T> {
        const BLOCK: usize = 32;
        let (r, c) = (self.rows(), self.cols());
        let mut out = Tensor::zeros(c, r);
        let src = self.as_slice();
        let dst = out.as_mut_slice();
        for rb in (0..r).step_by(BLOCK) {
            let r_end = (rb + BLOCK).min(r);
            for cb in (0..c).step_by(BLOCK) {
                let c_end = (cb + BLOCK).min(c);
                for i in rb..r_end {
                    for j in cb..c_end {
                        dst[j * r + i] = src[i * c + j];
                    }
                }
            }
        }
        out
    }

    // ----- elementwise binary ops ---------------------------------------

    fn zip_with(
        &self,
        rhs: &Tensor<T>,
        op_name: &'static str,
        f: impl Fn(T, T) -> T,
    ) -> Result<Tensor<T>, ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::binary(
                op_name,
                self.shape(),
                rhs.shape(),
                "elementwise operands must have identical shapes",
            ));
        }
        let (a, b) = (self.as_slice(), rhs.as_slice());
        let data = a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect();
        Ok(Tensor::from_vec(self.rows(), self.cols(), data))
    }

    /// Elementwise sum.
    pub fn try_add(&self, rhs: &Tensor<T>) -> Result<Tensor<T>, ShapeError> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// In-place elementwise sum: `self ← self + rhs`.
    ///
    /// Byte-identical to `&*self + rhs` (same per-element `a + b`) but
    /// writes into `self`'s existing buffer instead of allocating a result — the
    /// autograd tape uses it to accumulate gradient contributions without
    /// a fresh allocation per summand.
    ///
    /// ```
    /// use hap_tensor::Tensor;
    /// let mut a = Tensor::from_rows(&[vec![1.0, 2.0]]);
    /// a.try_add_in_place(&Tensor::from_rows(&[vec![10.0, 20.0]])).unwrap();
    /// assert_eq!(a, Tensor::from_rows(&[vec![11.0, 22.0]]));
    /// ```
    ///
    /// # Errors
    /// Returns a [`ShapeError`] carrying both shapes when they differ.
    pub fn try_add_in_place(&mut self, rhs: &Tensor<T>) -> Result<(), ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::binary(
                "add_in_place",
                self.shape(),
                rhs.shape(),
                "elementwise operands must have identical shapes",
            ));
        }
        for (d, &y) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *d += y;
        }
        Ok(())
    }

    /// Panicking variant of [`Tensor::try_add_in_place`].
    ///
    /// # Panics
    /// Panics with the [`ShapeError`] display message when the shapes
    /// differ.
    pub fn add_in_place(&mut self, rhs: &Tensor<T>) {
        self.try_add_in_place(rhs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Elementwise difference.
    pub fn try_sub(&self, rhs: &Tensor<T>) -> Result<Tensor<T>, ShapeError> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn try_hadamard(&self, rhs: &Tensor<T>) -> Result<Tensor<T>, ShapeError> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    /// Panicking variant of [`Tensor::try_hadamard`].
    pub fn hadamard(&self, rhs: &Tensor<T>) -> Tensor<T> {
        self.try_hadamard(rhs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Elementwise division.
    pub fn try_div(&self, rhs: &Tensor<T>) -> Result<Tensor<T>, ShapeError> {
        self.zip_with(rhs, "div", |a, b| a / b)
    }

    // ----- scalar & map ops ---------------------------------------------

    /// Applies `f` to each element.
    pub fn map(&self, f: impl Fn(T) -> T) -> Tensor<T> {
        let data = self.as_slice().iter().map(|&x| f(x)).collect();
        Tensor::from_vec(self.rows(), self.cols(), data)
    }

    /// Multiplies every element by `s` (converted once with
    /// [`Scalar::from_f64`] — the identity for `f64`).
    pub fn scale(&self, s: f64) -> Tensor<T> {
        let sv = T::from_f64(s);
        self.map(move |x| x * sv)
    }

    /// Adds `s` to every element (converted once, like [`Tensor::scale`]).
    pub fn shift(&self, s: f64) -> Tensor<T> {
        let sv = T::from_f64(s);
        self.map(move |x| x + sv)
    }

    // ----- broadcasting -------------------------------------------------

    /// Adds a `1 × cols` row vector to every row.
    pub fn try_add_row(&self, row: &Tensor<T>) -> Result<Tensor<T>, ShapeError> {
        if row.rows() != 1 || row.cols() != self.cols() {
            return Err(ShapeError::binary(
                "add_row",
                self.shape(),
                row.shape(),
                "broadcast operand must be 1 × cols",
            ));
        }
        let mut out = self.clone();
        for r in 0..out.rows() {
            for (o, &b) in out.row_mut(r).iter_mut().zip(row.as_slice()) {
                *o += b;
            }
        }
        Ok(out)
    }

    /// Panicking variant of [`Tensor::try_add_row`].
    pub fn add_row(&self, row: &Tensor<T>) -> Tensor<T> {
        self.try_add_row(row).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Adds a `rows × 1` column vector to every column.
    pub fn try_add_col(&self, col: &Tensor<T>) -> Result<Tensor<T>, ShapeError> {
        if col.cols() != 1 || col.rows() != self.rows() {
            return Err(ShapeError::binary(
                "add_col",
                self.shape(),
                col.shape(),
                "broadcast operand must be rows × 1",
            ));
        }
        let mut out = self.clone();
        for r in 0..out.rows() {
            let b = col[(r, 0)];
            for o in out.row_mut(r) {
                *o += b;
            }
        }
        Ok(out)
    }

    /// Panicking variant of [`Tensor::try_add_col`].
    pub fn add_col(&self, col: &Tensor<T>) -> Tensor<T> {
        self.try_add_col(col).unwrap_or_else(|e| panic!("{e}"))
    }

    // ----- concatenation & slicing --------------------------------------

    /// Horizontal concatenation `[self ‖ rhs]` (same row count).
    pub fn try_hstack(&self, rhs: &Tensor<T>) -> Result<Tensor<T>, ShapeError> {
        if self.rows() != rhs.rows() {
            return Err(ShapeError::binary(
                "hstack",
                self.shape(),
                rhs.shape(),
                "row counts must agree",
            ));
        }
        let mut out = Tensor::zeros(self.rows(), self.cols() + rhs.cols());
        for r in 0..self.rows() {
            out.row_mut(r)[..self.cols()].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols()..].copy_from_slice(rhs.row(r));
        }
        Ok(out)
    }

    /// Panicking variant of [`Tensor::try_hstack`].
    pub fn hstack(&self, rhs: &Tensor<T>) -> Tensor<T> {
        self.try_hstack(rhs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Vertical concatenation (same column count).
    pub fn try_vstack(&self, rhs: &Tensor<T>) -> Result<Tensor<T>, ShapeError> {
        if self.cols() != rhs.cols() {
            return Err(ShapeError::binary(
                "vstack",
                self.shape(),
                rhs.shape(),
                "column counts must agree",
            ));
        }
        let mut data = Vec::with_capacity(self.len() + rhs.len());
        data.extend_from_slice(self.as_slice());
        data.extend_from_slice(rhs.as_slice());
        Ok(Tensor::from_vec(
            self.rows() + rhs.rows(),
            self.cols(),
            data,
        ))
    }

    /// Panicking variant of [`Tensor::try_vstack`].
    pub fn vstack(&self, rhs: &Tensor<T>) -> Tensor<T> {
        self.try_vstack(rhs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Copies rows `[start, end)` into a new tensor.
    ///
    /// # Panics
    /// Panics when the range is out of bounds or reversed.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor<T> {
        assert!(
            start <= end && end <= self.rows(),
            "slice_rows: invalid range {start}..{end} for {} rows",
            self.rows()
        );
        let data = self.as_slice()[start * self.cols()..end * self.cols()].to_vec();
        Tensor::from_vec(end - start, self.cols(), data)
    }

    /// Copies columns `[start, end)` into a new tensor.
    ///
    /// # Panics
    /// Panics when the range is out of bounds or reversed.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor<T> {
        assert!(
            start <= end && end <= self.cols(),
            "slice_cols: invalid range {start}..{end} for {} cols",
            self.cols()
        );
        let mut out = Tensor::zeros(self.rows(), end - start);
        for r in 0..self.rows() {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Gathers the listed rows, in order, into a new tensor.
    ///
    /// # Panics
    /// Panics when any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor<T> {
        let mut out = Tensor::zeros(indices.len(), self.cols());
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    // ----- reductions ----------------------------------------------------

    /// Sum of all elements, accumulated in `T` (element order) and widened
    /// to `f64` at the end — identical to the historical result for `f64`.
    pub fn sum(&self) -> f64 {
        self.as_slice().iter().copied().sum::<T>().to_f64()
    }

    /// Mean of all elements (`NaN` for empty tensors).
    pub fn mean(&self) -> f64 {
        self.sum() / self.len() as f64
    }

    /// Maximum element (`-inf` for empty tensors).
    pub fn max(&self) -> f64 {
        self.as_slice()
            .iter()
            .copied()
            .fold(T::NEG_INFINITY, T::max)
            .to_f64()
    }

    /// Minimum element (`+inf` for empty tensors).
    pub fn min(&self) -> f64 {
        self.as_slice()
            .iter()
            .copied()
            .fold(T::INFINITY, T::min)
            .to_f64()
    }

    /// Per-row sums as an `rows × 1` column vector.
    pub fn row_sums(&self) -> Tensor<T> {
        let sums: Vec<T> = (0..self.rows())
            .map(|r| self.row(r).iter().copied().sum())
            .collect();
        Tensor::col_vector(&sums)
    }

    /// Per-column sums as a `1 × cols` row vector.
    pub fn col_sums(&self) -> Tensor<T> {
        let mut sums = vec![T::ZERO; self.cols()];
        for r in 0..self.rows() {
            for (s, &x) in sums.iter_mut().zip(self.row(r)) {
                *s += x;
            }
        }
        Tensor::row_vector(&sums)
    }

    /// Per-column means as a `1 × cols` row vector.
    pub fn col_means(&self) -> Tensor<T> {
        self.col_sums().scale(1.0 / self.rows() as f64)
    }

    /// Per-column elementwise maxima as a `1 × cols` row vector.
    pub fn col_maxes(&self) -> Tensor<T> {
        let mut maxes = vec![T::NEG_INFINITY; self.cols()];
        for r in 0..self.rows() {
            for (m, &x) in maxes.iter_mut().zip(self.row(r)) {
                *m = m.max(x);
            }
        }
        Tensor::row_vector(&maxes)
    }

    /// Frobenius norm (squares accumulated in `T`, root taken in `f64`).
    pub fn frobenius_norm(&self) -> f64 {
        self.as_slice()
            .iter()
            .map(|&x| x * x)
            .sum::<T>()
            .to_f64()
            .sqrt()
    }

    /// Squared Euclidean distance between two same-shape tensors.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn squared_distance(&self, rhs: &Tensor<T>) -> f64 {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "squared_distance: shapes {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        self.as_slice()
            .iter()
            .zip(rhs.as_slice())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<T>()
            .to_f64()
    }

    // ----- numerically-stable softmax -----------------------------------

    /// Row-wise softmax with the standard max-subtraction stabilisation.
    pub fn softmax_rows(&self) -> Tensor<T> {
        let mut out = self.clone();
        let cols = out.cols();
        if cols == 0 {
            return out;
        }
        for row in out.as_mut_slice().chunks_mut(cols) {
            let m = row.iter().copied().fold(T::NEG_INFINITY, T::max);
            let mut z = T::ZERO;
            for x in row.iter_mut() {
                *x = (*x - m).exp();
                z += *x;
            }
            // Debug-gated row-sum sanity: `z` is 0 when every logit is −∞
            // (the division then manufactures NaNs) and NaN when any logit
            // is NaN. Catch the degenerate row at its source in debug/test
            // builds; release builds keep the branch-free hot loop.
            debug_assert!(
                z.is_finite() && z > T::ZERO,
                "softmax row normaliser must be positive and finite, got {z} \
                 (row max {m})"
            );
            for x in row.iter_mut() {
                *x /= z;
            }
        }
        out
    }

    /// Checks all elements are finite (no NaN/inf) — used as a training
    /// sanity assertion.
    pub fn all_finite(&self) -> bool {
        self.as_slice().iter().all(|x| x.is_finite())
    }
}

// ----- operator impls (panicking, by reference) ------------------------

impl<T: Scalar> Add for &Tensor<T> {
    type Output = Tensor<T>;
    fn add(self, rhs: &Tensor<T>) -> Tensor<T> {
        self.try_add(rhs).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl<T: Scalar> Sub for &Tensor<T> {
    type Output = Tensor<T>;
    fn sub(self, rhs: &Tensor<T>) -> Tensor<T> {
        self.try_sub(rhs).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl<T: Scalar> Mul<f64> for &Tensor<T> {
    type Output = Tensor<T>;
    fn mul(self, s: f64) -> Tensor<T> {
        self.scale(s)
    }
}

impl<T: Scalar> Neg for &Tensor<T> {
    type Output = Tensor<T>;
    fn neg(self) -> Tensor<T> {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::{Gemm, Lhs, LhsCols, LhsRows};
    use crate::testutil::assert_close;
    use crate::{Scalar, Tensor};

    fn from_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Tensor {
        let mut t = Tensor::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                t[(i, j)] = f(i, j);
            }
        }
        t
    }

    /// The pre-microkernel streaming reference: per output row, ascending
    /// `p` with the zero-skip, accumulating in the output buffer. This is
    /// the arithmetic-sequence oracle the kernel must reproduce
    /// bit-for-bit.
    fn reference_matmul<T: Scalar>(a: &Tensor<T>, b: &Tensor<T>) -> Tensor<T> {
        assert_eq!(a.cols(), b.rows());
        let (n, k, m) = (a.rows(), a.cols(), b.cols());
        let mut out = Tensor::<T>::zeros(n, m);
        for i in 0..n {
            for p in 0..k {
                let a_ip = a[(i, p)];
                if a_ip == T::ZERO {
                    continue;
                }
                for j in 0..m {
                    let v = out[(i, j)] + a_ip * b[(p, j)];
                    out[(i, j)] = v;
                }
            }
        }
        out
    }

    /// `lhs · b` through the portable compile of the block driver, called
    /// directly: the code a CPU without AVX2 runs, checked on any host.
    fn portable<T: Scalar, L: Lhs<T>>(
        lhs: L,
        depth: usize,
        b: &Tensor<T>,
        rows: usize,
    ) -> Tensor<T> {
        let m = b.cols();
        let mut out = Tensor::zeros(rows, m);
        if m > 0 {
            Gemm::new(lhs, depth, b.as_slice(), m).block(out.as_mut_slice());
        }
        out
    }

    /// `a · b` through the portable driver.
    fn portable_matmul<T: Scalar>(a: &Tensor<T>, b: &Tensor<T>) -> Tensor<T> {
        let lhs = LhsRows {
            a: a.as_slice(),
            lda: a.cols(),
        };
        portable(lhs, a.cols(), b, a.rows())
    }

    /// `aᵀ · b` through the portable driver.
    fn portable_matmul_tn<T: Scalar>(a: &Tensor<T>, b: &Tensor<T>) -> Tensor<T> {
        let lhs = LhsCols {
            a: a.as_slice(),
            lda: a.cols(),
        };
        portable(lhs, a.rows(), b, a.cols())
    }

    /// Same bits, element by element, except that any NaN matches any
    /// NaN: Rust leaves the sign and payload of a NaN that arithmetic
    /// produces unspecified, and x86 returns the first NaN operand of an
    /// addition, whose operand order the compiler may swap.
    fn bits_eq<T: Scalar>(tag: &str, a: &Tensor<T>, b: &Tensor<T>) {
        assert_eq!(a.shape(), b.shape(), "{tag}: shape");
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            if !(x.is_nan() && y.is_nan()) {
                assert_eq!(x.to_bits_u64(), y.to_bits_u64(), "{tag}: {x} vs {y}");
            }
        }
    }

    /// Shapes `(n, k, m)` of `a · b` straddling every tile boundary: under,
    /// at and over `MR` (4) rows and both `NR` widths (8 for f64, 16 for
    /// f32) of columns, `k = 0`, one-row and one-column operands, and
    /// one `n = 200` product.
    const SHAPES: [(usize, usize, usize); 19] = [
        (1, 1, 1),
        (3, 5, 7),
        (4, 8, 8),
        (5, 9, 8),
        (4, 6, 9),
        (4, 7, 16),
        (8, 5, 17),
        (13, 17, 19),
        (16, 16, 16),
        (17, 33, 23),
        (12, 10, 33),
        (1, 40, 50),
        (50, 40, 1),
        (9, 3, 31),
        (7, 0, 9),
        (4, 0, 16),
        (1, 9, 1),
        (6, 1, 40),
        (200, 30, 37),
    ];

    /// The special values the operands carry: ±0.0, a subnormal of each
    /// dtype (1e-310 in f64, 1e-40 in f32), ±∞ and NaN.
    const SPECIALS: [f64; 7] = [
        0.0,
        -0.0,
        1e-310,
        1e-40,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    /// Operands `a` (`n × k`) and `b` (`k × m`) of three kinds, all with
    /// exact zeros in `a`:
    /// * `0`: every entry finite;
    /// * `1`: `a` also holds every special value and `b` stays finite, so
    ///   full tiles add zero left entries' products instead of skipping;
    /// * `2`: both hold them, and row `k / 2` of `b` is `±∞`/NaN while
    ///   column `k / 2` of `a` is zero in all but every fifth row, so only
    ///   the skip keeps most outputs from being NaN.
    fn operands(n: usize, k: usize, m: usize, kind: usize) -> (Tensor, Tensor) {
        let special = |i: usize, j: usize, every: usize| {
            let h = i * 31 + j * 17 + 5;
            (kind > 0 && h % every == 0).then(|| SPECIALS[(h / every) % SPECIALS.len()])
        };
        let a = from_fn(n, k, |i, j| {
            if kind == 2 && j == k / 2 {
                return if i % 5 == 0 { 1.5 } else { 0.0 };
            }
            special(i, j, 7).unwrap_or(if (i + 2 * j) % 5 == 0 {
                0.0
            } else {
                (i as f64 - 0.7 * j as f64) * 0.31
            })
        });
        let b = from_fn(k, m, |i, j| {
            if kind == 2 && i == k / 2 {
                return [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][j % 3];
            }
            let v = (i as f64 * 1.3 - j as f64) * 0.17 + 0.05;
            if kind == 2 {
                special(j, i, 11).unwrap_or(v)
            } else {
                v
            }
        });
        (a, b)
    }

    #[test]
    fn matmul_small_known_result() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Tensor::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        let expect = Tensor::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]);
        assert_close(&c, &expect, 1e-12);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_close(&a.matmul(&Tensor::eye(3)), &a, 1e-12);
        assert_close(&Tensor::eye(2).matmul(&a), &a, 1e-12);
    }

    #[test]
    fn matmul_rejects_bad_inner_dim() {
        let a = Tensor::<f64>::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        assert!(a.try_matmul(&b).is_err());
    }

    #[test]
    fn microkernel_matches_streaming_reference_bitwise() {
        fn check<T: Scalar>(tag: &str, a: &Tensor<T>, b: &Tensor<T>) {
            let expect = reference_matmul(a, b);
            bits_eq(&format!("{tag} dispatched"), &a.matmul(b), &expect);
            bits_eq(&format!("{tag} portable"), &portable_matmul(a, b), &expect);
        }
        for &(n, k, m) in &SHAPES {
            for kind in 0..3 {
                let (a, b) = operands(n, k, m, kind);
                check(&format!("f64 kind {kind} ({n},{k},{m})"), &a, &b);
                let (a32, b32): (Tensor<f32>, Tensor<f32>) = (a.cast(), b.cast());
                check(&format!("f32 kind {kind} ({n},{k},{m})"), &a32, &b32);
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_close(&t.transpose(), &a, 1e-12);
    }

    #[test]
    fn transpose_blocked_matches_naive_across_block_boundaries() {
        // Shapes straddling the 32-wide tile edge: exact multiple, one
        // under, one over, and a thin strip.
        for &(r, c) in &[(32, 32), (31, 33), (64, 65), (1, 100), (100, 1), (33, 7)] {
            let a = from_fn(r, c, |i, j| (i * c + j) as f64 * 0.5 - 3.0);
            let t = a.transpose();
            assert_eq!(t.shape(), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t[(j, i)], a[(i, j)], "({r}x{c}) at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn matmul_nt_matches_composed_bitwise() {
        fn check<T: Scalar>(tag: &str, a: &Tensor<T>, b: &Tensor<T>) {
            let composed = a.matmul(&b.transpose());
            bits_eq(&format!("{tag} dispatched"), &a.matmul_nt(b), &composed);
            bits_eq(
                &format!("{tag} portable"),
                &portable_matmul(a, &b.transpose()),
                &composed,
            );
        }
        for &(n, k, m) in &SHAPES {
            for kind in 0..3 {
                // `a · bᵀ` with `b` stored `m × k`.
                let (a, bt) = operands(n, k, m, kind);
                let b = bt.transpose();
                check(&format!("f64 nt kind {kind} ({n},{k},{m})"), &a, &b);
                let (a32, b32): (Tensor<f32>, Tensor<f32>) = (a.cast(), b.cast());
                check(&format!("f32 nt kind {kind} ({n},{k},{m})"), &a32, &b32);
            }
        }
    }

    #[test]
    fn matmul_tn_matches_composed_bitwise() {
        fn check<T: Scalar>(tag: &str, a: &Tensor<T>, b: &Tensor<T>) {
            let composed = a.transpose().matmul(b);
            bits_eq(&format!("{tag} dispatched"), &a.matmul_tn(b), &composed);
            bits_eq(
                &format!("{tag} portable"),
                &portable_matmul_tn(a, b),
                &composed,
            );
        }
        for &(n, k, m) in &SHAPES {
            for kind in 0..3 {
                // `aᵀ · b` with `a` stored `k × n`.
                let (at, b) = operands(n, k, m, kind);
                let a = at.transpose();
                check(&format!("f64 tn kind {kind} ({n},{k},{m})"), &a, &b);
                let (a32, b32): (Tensor<f32>, Tensor<f32>) = (a.cast(), b.cast());
                check(&format!("f32 tn kind {kind} ({n},{k},{m})"), &a32, &b32);
            }
        }
    }

    #[test]
    fn fused_matmuls_reject_bad_shapes() {
        assert!(Tensor::<f64>::zeros(2, 3)
            .try_matmul_nt(&Tensor::zeros(3, 2))
            .is_err());
        assert!(Tensor::<f64>::zeros(2, 3)
            .try_matmul_nt(&Tensor::zeros(4, 3))
            .is_ok());
        assert!(Tensor::<f64>::zeros(2, 3)
            .try_matmul_tn(&Tensor::zeros(3, 2))
            .is_err());
        assert!(Tensor::<f64>::zeros(2, 3)
            .try_matmul_tn(&Tensor::zeros(2, 4))
            .is_ok());
    }

    #[test]
    fn add_in_place_matches_out_of_place_bitwise() {
        let a = from_fn(6, 5, |i, j| (i as f64 * 1.7 - j as f64) * 0.31);
        let b = from_fn(6, 5, |i, j| (j as f64 * 2.3 + i as f64) * 0.13);
        let expect = &a + &b;
        let mut got = a.clone();
        got.add_in_place(&b);
        for i in 0..6 {
            for j in 0..5 {
                assert_eq!(got[(i, j)].to_bits(), expect[(i, j)].to_bits());
            }
        }
        assert!(got.try_add_in_place(&Tensor::zeros(5, 6)).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0]]);
        let b = Tensor::from_rows(&[vec![3.0, 4.0]]);
        assert_close(&(&a + &b), &Tensor::from_rows(&[vec![4.0, 6.0]]), 1e-12);
        assert_close(&(&a - &b), &Tensor::from_rows(&[vec![-2.0, -2.0]]), 1e-12);
        assert_close(
            &a.hadamard(&b),
            &Tensor::from_rows(&[vec![3.0, 8.0]]),
            1e-12,
        );
        assert_close(
            &a.try_div(&b).unwrap(),
            &Tensor::from_rows(&[vec![1.0 / 3.0, 0.5]]),
            1e-12,
        );
    }

    #[test]
    fn broadcasting_row_and_col() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let row = Tensor::row_vector(&[10.0, 20.0]);
        let col = Tensor::col_vector(&[100.0, 200.0]);
        assert_close(
            &a.add_row(&row),
            &Tensor::from_rows(&[vec![11.0, 22.0], vec![13.0, 24.0]]),
            1e-12,
        );
        assert_close(
            &a.add_col(&col),
            &Tensor::from_rows(&[vec![101.0, 102.0], vec![203.0, 204.0]]),
            1e-12,
        );
        assert!(a.try_add_row(&col).is_err());
        assert!(a.try_add_col(&row).is_err());
    }

    #[test]
    fn stacking() {
        let a = Tensor::from_rows(&[vec![1.0], vec![2.0]]);
        let b = Tensor::from_rows(&[vec![3.0], vec![4.0]]);
        let h = a.hstack(&b);
        assert_eq!(h.shape(), (2, 2));
        assert_eq!(h.row(0), &[1.0, 3.0]);
        let v = a.vstack(&b);
        assert_eq!(v.shape(), (4, 1));
        assert_eq!(v.col(0), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn slicing_and_gather() {
        let a = Tensor::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ]);
        assert_close(
            &a.slice_rows(1, 3),
            &Tensor::from_rows(&[vec![4.0, 5.0, 6.0], vec![7.0, 8.0, 9.0]]),
            1e-12,
        );
        assert_close(
            &a.slice_cols(0, 2),
            &Tensor::from_rows(&[vec![1.0, 2.0], vec![4.0, 5.0], vec![7.0, 8.0]]),
            1e-12,
        );
        assert_close(
            &a.gather_rows(&[2, 0]),
            &Tensor::from_rows(&[vec![7.0, 8.0, 9.0], vec![1.0, 2.0, 3.0]]),
            1e-12,
        );
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), 1.0);
        assert_close(&a.row_sums(), &Tensor::col_vector(&[3.0, 7.0]), 1e-12);
        assert_close(&a.col_sums(), &Tensor::row_vector(&[4.0, 6.0]), 1e-12);
        assert_close(&a.col_maxes(), &Tensor::row_vector(&[3.0, 4.0]), 1e-12);
        assert!((a.frobenius_norm() - 30.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn f32_ops_agree_with_f64_within_tolerance() {
        let a = from_fn(12, 10, |i, j| (i as f64 * 0.7 - j as f64 * 0.3) * 0.11);
        let b = from_fn(10, 9, |i, j| (j as f64 - i as f64 * 0.4) * 0.21);
        let c64 = a.matmul(&b);
        let c32 = a.cast::<f32>().matmul(&b.cast::<f32>());
        for (x, y) in c64.as_slice().iter().zip(c32.as_slice()) {
            assert!((x - y.to_f64()).abs() < 1e-4, "{x} vs {y}");
        }
        let s64 = a.softmax_rows();
        let s32 = a.cast::<f32>().softmax_rows();
        for (x, y) in s64.as_slice().iter().zip(s32.as_slice()) {
            assert!((x - y.to_f64()).abs() < 1e-5, "{x} vs {y}");
        }
        assert!((a.sum() - a.cast::<f32>().sum()).abs() < 1e-3);
    }

    #[test]
    fn softmax_rows_sums_to_one_and_is_stable() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![1000.0, 1000.0, 1000.0]]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f64 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
        // huge logits must not overflow
        assert!(s.all_finite());
        // uniform logits -> uniform distribution
        assert!((s[(1, 0)] - 1.0 / 3.0).abs() < 1e-12);
        // monotone: bigger logit, bigger probability
        assert!(s[(0, 2)] > s[(0, 1)] && s[(0, 1)] > s[(0, 0)]);
    }

    #[test]
    fn squared_distance_matches_manual() {
        let a = Tensor::row_vector(&[1.0, 2.0]);
        let b = Tensor::row_vector(&[4.0, 6.0]);
        assert_eq!(a.squared_distance(&b), 9.0 + 16.0);
    }
}
