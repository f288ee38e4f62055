//! Compressed-sparse-row matrices and the sparse–dense product (SpMM).
//!
//! [`CsrMatrix`] stores only the strictly non-zero entries of a matrix,
//! each row's entries in **ascending column order**. That ordering is the
//! whole determinism story: the dense GEMM microkernel (`ops.rs`) skips
//! `a[i][p] == 0.0` entries and accumulates the survivors in ascending
//! `p`, so a CSR row walk performs the *exact same sequence* of
//! multiply–adds per output row — [`CsrMatrix::spmm`] is byte-identical to
//! [`Tensor::matmul`] on the densified matrix, not merely close. Both run
//! on the calling thread. Propagating sparse therefore never changes a
//! result, which is what lets every fixed-graph propagation in the
//! workspace run on CSR alone. The contract holds for both element types
//! ([`crate::Scalar`]): the kernels are generic and monomorphise to the
//! same arithmetic per dtype.

use crate::{Scalar, ShapeError, Tensor};

/// A sparse matrix in compressed-sparse-row form.
///
/// Invariants (maintained by every constructor):
/// * `indptr.len() == rows + 1`, `indptr[0] == 0`,
///   `indptr[rows] == indices.len() == values.len()`;
/// * within each row, `indices` are strictly increasing and `< cols`;
/// * `values` contains no `0.0` entries (so the multiply–add sequence of
///   [`CsrMatrix::spmm`] matches the zero-skipping dense kernel exactly).
///
/// The element type defaults to `f64` (the workspace's golden-pinned
/// precision); `CsrMatrix<f32>` carries the same invariants for the fast
/// path.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix<T: Scalar = f64> {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Compresses a dense matrix, dropping every `0.0` entry (including
    /// negative zero, which the dense kernel also skips).
    ///
    /// ```
    /// use hap_tensor::{CsrMatrix, Tensor};
    /// let d = Tensor::from_rows(&[vec![0.0, 2.0], vec![3.0, 0.0]]);
    /// let s = CsrMatrix::from_dense(&d);
    /// assert_eq!(s.nnz(), 2);
    /// assert_eq!(s.to_dense(), d);
    /// ```
    pub fn from_dense(dense: &Tensor<T>) -> CsrMatrix<T> {
        let (rows, cols) = dense.shape();
        Self::from_fn(rows, cols, |r, c| dense[(r, c)])
    }

    /// Builds a `rows × cols` matrix from an entry function: visits every
    /// `(r, c)` in row-major order and stores the entries that are not
    /// `0.0`. This is the loop behind [`CsrMatrix::from_dense`], for
    /// callers that can compute entries without materialising a dense
    /// matrix first.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        mut entry: impl FnMut(usize, usize) -> T,
    ) -> CsrMatrix<T> {
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for r in 0..rows {
            for c in 0..cols {
                let v = entry(r, c);
                if v != T::ZERO {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Builds a matrix with `cols` columns from one `(column, value)` run
    /// per row, each in strictly ascending column order, storing the
    /// entries that are not `0.0` — the sparse-input counterpart of
    /// [`CsrMatrix::from_fn`]: it yields the same matrix as `from_fn` over
    /// the densified rows in O(rows + entries) instead of O(rows · cols).
    /// `nnz` sizes the arrays up front: the number of entries the rows
    /// yield (a wrong count costs reallocation, never correctness).
    ///
    /// ```
    /// use hap_tensor::{CsrMatrix, Tensor};
    /// let s = CsrMatrix::from_rows(3, 3, [vec![(1, 2.0)], vec![(0, 3.0), (2, 0.0)]]);
    /// assert_eq!(s.nnz(), 2);
    /// assert_eq!(s.to_dense(), Tensor::from_rows(&[vec![0.0, 2.0, 0.0], vec![3.0, 0.0, 0.0]]));
    /// ```
    ///
    /// # Panics
    /// Panics when a column reaches `cols`, or when a row's stored
    /// (non-zero) columns are not strictly ascending.
    pub fn from_rows<R: IntoIterator<Item = (usize, T)>>(
        cols: usize,
        nnz: usize,
        rows: impl IntoIterator<Item = R>,
    ) -> CsrMatrix<T> {
        let rows = rows.into_iter();
        let mut indptr = Vec::with_capacity(rows.size_hint().0 + 1);
        indptr.push(0);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for row in rows {
            let mut next = 0; // smallest column the next stored entry may take
            for (c, v) in row {
                assert!(
                    c < cols && c >= next,
                    "from_rows: column {c} out of order or out of range for {cols} columns"
                );
                if v != T::ZERO {
                    indices.push(c);
                    values.push(v);
                    next = c + 1;
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: indptr.len() - 1,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Expands back to a dense [`Tensor`].
    pub fn to_dense(&self) -> Tensor<T> {
        let mut out = Tensor::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let row = out.row_mut(r);
            for idx in self.indptr[r]..self.indptr[r + 1] {
                row[self.indices[idx]] = self.values[idx];
            }
        }
        out
    }

    /// Converts every stored value with `U::from_f64(v.to_f64())` — the
    /// structure (indices, indptr) is shared logic, only the values
    /// change width. Narrowing `f64 → f32` rounds to nearest; note a value
    /// can round to `0.0`, so the result is re-compressed to preserve the
    /// no-stored-zeros invariant.
    pub fn cast<U: Scalar>(&self) -> CsrMatrix<U> {
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices = Vec::with_capacity(self.indices.len());
        let mut values = Vec::with_capacity(self.values.len());
        indptr.push(0);
        for r in 0..self.rows {
            for idx in self.indptr[r]..self.indptr[r + 1] {
                let v = U::from_f64(self.values[idx].to_f64());
                if v != U::ZERO {
                    indices.push(self.indices[idx]);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr,
            indices,
            values,
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are non-zero (`0.0` for an empty shape).
    pub fn density(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// The column indices and values of row `r`.
    ///
    /// # Panics
    /// Panics when `r >= rows`.
    pub fn row(&self, r: usize) -> (&[usize], &[T]) {
        let span = self.indptr[r]..self.indptr[r + 1];
        (&self.indices[span.clone()], &self.values[span])
    }

    /// Whether the matrix equals its transpose (structure *and* values).
    /// Every propagation matrix in this workspace (`D̃^{-1/2}ÃD̃^{-1/2}`
    /// of an undirected graph, and block-diagonals thereof) is symmetric;
    /// the SpMM tape op relies on it for its backward pass.
    pub fn is_symmetric(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let (tcols, tvals) = self.row(c);
                match tcols.binary_search(&r) {
                    Ok(pos) if tvals[pos] == v => {}
                    _ => return false,
                }
            }
        }
        true
    }

    /// Stacks square blocks along the diagonal: the result has
    /// `Σ rowsᵢ` rows/cols and block `i`'s entries shifted by the sizes of
    /// the blocks before it. This is the multi-graph batch adjacency: one
    /// SpMM against vertically concatenated features computes every
    /// graph's propagation in a single pass, and each output row's
    /// multiply–add sequence is identical to the per-block product (the
    /// shifted column indices select exactly the corresponding block of
    /// the stacked features).
    ///
    /// # Panics
    /// Panics when any block is non-square.
    pub fn block_diag(blocks: &[&CsrMatrix<T>]) -> CsrMatrix<T> {
        let n: usize = blocks.iter().map(|b| b.rows).sum();
        let nnz: usize = blocks.iter().map(|b| b.nnz()).sum();
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        let mut offset = 0;
        for b in blocks {
            assert_eq!(
                b.rows,
                b.cols,
                "block_diag: blocks must be square, got {:?}",
                b.shape()
            );
            for r in 0..b.rows {
                let (cols, vals) = b.row(r);
                indices.extend(cols.iter().map(|&c| c + offset));
                values.extend_from_slice(vals);
                indptr.push(indices.len());
            }
            offset += b.rows;
        }
        CsrMatrix {
            rows: n,
            cols: n,
            indptr,
            indices,
            values,
        }
    }

    /// Sparse × dense product `self · rhs`.
    ///
    /// Byte-identical to `self.to_dense().matmul(rhs)`: the dense kernel
    /// skips zero left-entries and accumulates the rest in ascending
    /// column order, which is exactly the CSR row walk. Each non-zero's
    /// contribution streams across its output row; the zero entries the
    /// dense kernel would skip are pre-skipped by construction.
    ///
    /// # Errors
    /// Returns a [`ShapeError`] when `self.cols() != rhs.rows()`.
    pub fn try_spmm(&self, rhs: &Tensor<T>) -> Result<Tensor<T>, ShapeError> {
        if self.cols != rhs.rows() {
            return Err(ShapeError::binary(
                "spmm",
                self.shape(),
                rhs.shape(),
                "inner dimensions must agree",
            ));
        }
        let m = rhs.cols();
        let mut out = Tensor::zeros(self.rows, m);
        if m == 0 {
            return Ok(out);
        }
        self.spmm_rows(rhs.as_slice(), m, out.as_mut_slice());
        Ok(out)
    }

    /// The SpMM row walk: fills `out` (`rows × m`, zeros on entry) from
    /// this matrix and `b` (`cols × m`), both row-major. Kept out of line
    /// so that `out` arrives as its own `&mut` argument, which the
    /// compiler knows cannot overlap `b`: inlined into
    /// [`CsrMatrix::try_spmm`], it guarded the vector loop with an overlap
    /// check per stored entry and ran about 10 % slower in an in-process
    /// A/B (EXPERIMENTS.md "Kernels on the calling thread").
    #[inline(never)]
    fn spmm_rows(&self, b: &[T], m: usize, out: &mut [T]) {
        for (i, out_row) in out.chunks_mut(m).enumerate() {
            for idx in self.indptr[i]..self.indptr[i + 1] {
                let a_ip = self.values[idx];
                let b_row = &b[self.indices[idx] * m..self.indices[idx] * m + m];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += a_ip * bv;
                }
            }
        }
    }

    /// Panicking variant of [`CsrMatrix::try_spmm`].
    ///
    /// # Panics
    /// Panics with the [`ShapeError`] message when the inner dimensions
    /// disagree.
    pub fn spmm(&self, rhs: &Tensor<T>) -> Tensor<T> {
        self.try_spmm(rhs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Dense × sparse product `lhs · self` for a **symmetric** `self`:
    /// output `(i, j)` walks row `j`'s stored entries — which are column
    /// `j`'s by symmetry — adding `self[j][k] · lhs[i][k]` in ascending
    /// `k` from `0.0`. That is term for term the sum [`CsrMatrix::spmm`]
    /// forms for `(self · lhsᵀ)ᵀ`, without either transpose. Sequential:
    /// its work is `nnz · lhs.rows()`, the sparse share of a product the
    /// dense kernel would spend `cols² · lhs.rows()` on.
    ///
    /// # Panics
    /// Panics when `lhs.cols() != self.rows()`; debug builds also assert
    /// symmetry.
    pub fn spmm_left(&self, lhs: &Tensor<T>) -> Tensor<T> {
        assert_eq!(
            lhs.cols(),
            self.rows,
            "spmm_left: lhs {:?} does not chain with {:?}",
            lhs.shape(),
            self.shape()
        );
        debug_assert!(self.is_symmetric(), "spmm_left requires a symmetric matrix");
        let mut out = Tensor::zeros(lhs.rows(), self.cols);
        for (i, out_row) in (0..lhs.rows()).zip(out.as_mut_slice().chunks_mut(self.cols.max(1))) {
            let x = lhs.row(i);
            for (j, o) in out_row.iter_mut().enumerate() {
                let span = self.indptr[j]..self.indptr[j + 1];
                for (&k, &a) in self.indices[span.clone()].iter().zip(&self.values[span]) {
                    *o += a * x[k];
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_rand::Rng;

    fn random_sparse(n: usize, m: usize, density: f64, seed: u64) -> Tensor {
        let mut rng = Rng::from_seed(seed);
        let mut t = Tensor::zeros(n, m);
        for r in 0..n {
            for c in 0..m {
                if rng.gen_f64() < density {
                    t[(r, c)] = rng.gen_f64() * 2.0 - 1.0;
                }
            }
        }
        t
    }

    #[test]
    fn roundtrip_and_counts() {
        let d = random_sparse(17, 13, 0.2, 7);
        let s = CsrMatrix::from_dense(&d);
        assert_eq!(s.to_dense(), d);
        assert_eq!(s.nnz(), d.as_slice().iter().filter(|&&x| x != 0.0).count());
        assert!((s.density() - s.nnz() as f64 / (17.0 * 13.0)).abs() < 1e-15);
    }

    #[test]
    fn spmm_is_bitwise_equal_to_dense_matmul() {
        for (n, k, m, density) in [(1, 1, 1, 1.0), (5, 5, 3, 0.3), (40, 40, 16, 0.05)] {
            let a = random_sparse(n, k, density, 11);
            let b = random_sparse(k, m, 1.0, 12);
            let s = CsrMatrix::from_dense(&a);
            let dense = a.matmul(&b);
            let sparse = s.spmm(&b);
            assert_eq!(dense.shape(), sparse.shape());
            for (x, y) in dense.as_slice().iter().zip(sparse.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn spmm_left_is_bitwise_equal_to_transposed_spmm_and_dense_matmul() {
        for (n, rows, density) in [(1, 1, 1.0), (7, 3, 0.4), (30, 5, 0.1), (6, 2, 0.0)] {
            let mut rng = Rng::from_seed(13);
            let mut a = Tensor::zeros(n, n);
            for i in 0..n {
                for j in i..n {
                    if rng.gen_f64() < density {
                        let v = rng.gen_f64() - 0.5;
                        a[(i, j)] = v;
                        a[(j, i)] = v;
                    }
                }
            }
            let s = CsrMatrix::from_dense(&a);
            let mut x = random_sparse(rows, n, 1.0, 14);
            x.row_mut(0).fill(0.0); // the dense kernel skips it, the walk adds ±0
            let left = s.spmm_left(&x);
            let via_spmm = s.spmm(&x.transpose()).transpose();
            let dense = x.matmul(&a);
            for (l, (v, d)) in left
                .as_slice()
                .iter()
                .zip(via_spmm.as_slice().iter().zip(dense.as_slice()))
            {
                assert_eq!(l.to_bits(), v.to_bits(), "n = {n}");
                assert_eq!(l.to_bits(), d.to_bits(), "n = {n}");
            }
        }
    }

    #[test]
    fn f32_spmm_is_bitwise_equal_to_f32_dense_matmul() {
        for (n, k, m, density) in [(5, 5, 3, 0.3), (40, 40, 16, 0.05), (9, 9, 20, 0.5)] {
            let a64 = random_sparse(n, k, density, 21);
            let b64 = random_sparse(k, m, 1.0, 22);
            let a: Tensor<f32> = a64.cast();
            let b: Tensor<f32> = b64.cast();
            let s = CsrMatrix::from_dense(&a);
            let dense = a.matmul(&b);
            let sparse = s.spmm(&b);
            for (x, y) in dense.as_slice().iter().zip(sparse.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn cast_preserves_structure_and_recompresses_underflow() {
        let d = random_sparse(8, 6, 0.4, 31);
        let s = CsrMatrix::from_dense(&d);
        let s32: CsrMatrix<f32> = s.cast();
        assert_eq!(s32.shape(), s.shape());
        assert_eq!(s32.to_dense(), d.cast::<f32>());
        // A value below f32's subnormal range rounds to zero and must be
        // dropped, not stored.
        let mut tiny = Tensor::zeros(1, 2);
        tiny[(0, 0)] = 1.0e-60;
        tiny[(0, 1)] = 2.0;
        let st: CsrMatrix<f32> = CsrMatrix::from_dense(&tiny).cast();
        assert_eq!(st.nnz(), 1);
        assert_eq!(st.row(0).0, &[1]);
    }

    #[test]
    fn spmm_empty_matrix_and_shape_error() {
        let s = CsrMatrix::from_dense(&Tensor::<f64>::zeros(3, 3));
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.spmm(&Tensor::ones(3, 2)), Tensor::zeros(3, 2));
        assert!(s.try_spmm(&Tensor::ones(4, 2)).is_err());
    }

    #[test]
    fn block_diag_matches_manual_embedding() {
        let a = random_sparse(3, 3, 0.5, 1);
        let b = random_sparse(2, 2, 0.9, 2);
        let sa = CsrMatrix::from_dense(&a);
        let sb = CsrMatrix::from_dense(&b);
        let bd = CsrMatrix::block_diag(&[&sa, &sb]);
        assert_eq!(bd.shape(), (5, 5));
        let dense = bd.to_dense();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(dense[(r, c)], a[(r, c)]);
            }
        }
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(dense[(3 + r, 3 + c)], b[(r, c)]);
            }
        }
        assert_eq!(bd.nnz(), sa.nnz() + sb.nnz());
    }

    #[test]
    fn from_rows_matches_from_dense_bitwise() {
        let d = random_sparse(9, 7, 0.3, 43);
        let dr = &d;
        let rows = (0..9).map(|r| (0..7).map(move |c| (c, dr[(r, c)])).filter(|e| e.1 != 0.0));
        let built = CsrMatrix::from_rows(7, 0, rows);
        let fresh = CsrMatrix::from_dense(&d);
        assert_eq!(built, fresh);
        // Zeros (either sign) are dropped like `from_fn` drops them.
        let z = CsrMatrix::from_rows(3, 2, [vec![(0, -0.0), (2, 1.0)], vec![]]);
        assert_eq!((z.rows(), z.nnz()), (2, 1));
        let bad =
            std::panic::catch_unwind(|| CsrMatrix::from_rows(3, 2, [vec![(2, 1.0), (1, 1.0)]]));
        assert!(bad.is_err(), "descending columns must be rejected");
    }

    #[test]
    fn splice_from_dense_matches_from_dense_bitwise() {
        // `from_fn` is the builder `CsrAdjacency` rebuilds Â with after an
        // edit: over an edited matrix it must equal `from_dense` bit for
        // bit, including entries that appear or vanish.
        let mut d = random_sparse(12, 12, 0.3, 41);
        // Edit rows/columns 3 and 7: rewrite both full rows (zero ↔
        // non-zero) and rescale the two matching columns of every other
        // row.
        let touched = [3usize, 7];
        for &t in &touched {
            for c in 0..12 {
                d[(t, c)] = if (t + c) % 3 == 0 {
                    0.0
                } else {
                    0.1 * (t + c) as f64
                };
            }
        }
        for r in 0..12 {
            if touched.contains(&r) {
                continue;
            }
            for &t in &touched {
                if d[(r, t)] != 0.0 {
                    d[(r, t)] *= 1.5;
                }
            }
        }
        let built = CsrMatrix::from_fn(12, 12, |r, c| d[(r, c)]);
        let fresh = CsrMatrix::from_dense(&d);
        assert_eq!(built, fresh);
        for (x, y) in built.values.iter().zip(&fresh.values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn splice_from_dense_rejects_structure_change_outside_touched_rows() {
        // Structure changes in rows an edit did not rewrite: `from_fn`
        // stores exactly the entries `from_dense` does, bit for bit.
        let bits = |m: &CsrMatrix| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut d = random_sparse(6, 6, 0.5, 42);
        d[(1, 4)] = 0.0; // ensure a hole at an untouched row / touched col
        d[(2, 4)] = 1.0; // ensure an entry at an untouched row / touched col
        let old = CsrMatrix::from_dense(&d);
        // Entry appears at (1, 4).
        let mut appear = d.clone();
        appear[(1, 4)] = 2.0;
        let built = CsrMatrix::from_fn(6, 6, |r, c| appear[(r, c)]);
        let fresh = CsrMatrix::from_dense(&appear);
        assert_eq!(built, fresh);
        assert_eq!(bits(&built), bits(&fresh));
        assert_eq!(built.nnz(), old.nnz() + 1);
        assert!(built.row(1).0.binary_search(&4).is_ok());
        // Entry vanishes at (2, 4).
        let mut vanish = d.clone();
        vanish[(2, 4)] = 0.0;
        let built = CsrMatrix::from_fn(6, 6, |r, c| vanish[(r, c)]);
        let fresh = CsrMatrix::from_dense(&vanish);
        assert_eq!(built, fresh);
        assert_eq!(bits(&built), bits(&fresh));
        assert_eq!(built.nnz(), old.nnz() - 1);
        assert!(built.row(2).0.binary_search(&4).is_err());
    }

    #[test]
    fn symmetry_check() {
        let mut d = Tensor::zeros(3, 3);
        d[(0, 1)] = 2.0;
        d[(1, 0)] = 2.0;
        d[(2, 2)] = 1.0;
        assert!(CsrMatrix::from_dense(&d).is_symmetric());
        d[(1, 0)] = 3.0;
        assert!(!CsrMatrix::from_dense(&d).is_symmetric());
        assert!(!CsrMatrix::from_dense(&Tensor::<f64>::zeros(2, 3)).is_symmetric());
    }
}
