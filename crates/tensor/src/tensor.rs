//! The dense row-major matrix type.

use crate::{Scalar, ShapeError};
use hap_rand::Rng;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense 2-D matrix with row-major storage, generic over its element
/// type `T` ([`Scalar`]: `f64` or `f32`). The type parameter defaults to
/// `f64` — the workspace's reference precision — so `Tensor` written with
/// no parameter means exactly what it always has.
///
/// `Tensor` is the single numeric container used throughout the HAP
/// workspace: node feature matrices `H ∈ R^{N×F}`, adjacency matrices
/// `A ∈ R^{N×N}`, the global graph content `C ∈ R^{N×N'}` and the MOA
/// attention matrix `M` are all `Tensor`s. Vectors are represented as
/// `N×1` (column) or `1×N` (row) matrices.
///
/// ```
/// use hap_tensor::Tensor;
///
/// let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = Tensor::eye(2);
/// assert_eq!(a.matmul(&b), a);
/// assert_eq!(a.row_sums().col(0), vec![3.0, 7.0]);
/// assert_eq!(a.transpose()[(0, 1)], 3.0);
///
/// // The f32 fast path holds the same data at half the width.
/// let a32: Tensor<f32> = a.cast();
/// assert_eq!(a32[(1, 0)], 3.0_f32);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor<T: Scalar = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Tensor<T> {
    // ----- constructors -------------------------------------------------

    /// Creates a `rows × cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: T) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a `rows × cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, T::ZERO)
    }

    /// Creates a `rows × cols` tensor of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, T::ONE)
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t[(i, i)] = T::ONE;
        }
        t
    }

    /// Builds a tensor from a flat row-major buffer.
    ///
    /// Returns a [`ShapeError`] when `data.len() != rows * cols`.
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::unary(
                "from_vec",
                (rows, cols),
                format!(
                    "buffer has {} elements, expected {}",
                    data.len(),
                    rows * cols
                ),
            ));
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        Self::try_from_vec(rows, cols, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a tensor from nested row slices.
    ///
    /// # Panics
    /// Panics when rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<T>]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                n_cols,
                "from_rows: row {i} has {} elements, expected {n_cols}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Self {
            rows: n_rows,
            cols: n_cols,
            data,
        }
    }

    /// A column vector (`n × 1`) from a slice.
    pub fn col_vector(values: &[T]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// A row vector (`1 × n`) from a slice.
    pub fn row_vector(values: &[T]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Uniform random tensor on `[lo, hi)` drawn from `rng`.
    ///
    /// The bounds stay `f64` and each draw is made in `f64` then narrowed
    /// with [`Scalar::from_f64`], so an `f32` tensor consumes the exact
    /// same RNG stream as its `f64` counterpart (`f32` init is the rounding
    /// of `f64` init — the differential suites rely on this).
    pub fn rand_uniform(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut Rng) -> Self {
        let data = (0..rows * cols)
            .map(|_| T::from_f64(rng.gen_range(lo..hi)))
            .collect();
        Self { rows, cols, data }
    }

    /// Standard-normal random tensor (Box–Muller) scaled by `std`.
    ///
    /// Like [`Tensor::rand_uniform`], the transform runs in `f64` and each
    /// sample narrows at the end, keeping the RNG stream dtype-independent.
    pub fn rand_normal(rows: usize, cols: usize, std: f64, rng: &mut Rng) -> Self {
        let n = rows * cols;
        let mut data = Vec::with_capacity(n);
        let mut pending = Vec::with_capacity(n);
        while pending.len() < n {
            // Box–Muller transform: two uniforms -> two independent normals.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            pending.push(r * theta.cos() * std);
            if pending.len() < n {
                pending.push(r * theta.sin() * std);
            }
        }
        data.extend(pending.into_iter().map(T::from_f64));
        Self { rows, cols, data }
    }

    /// Converts every element to another [`Scalar`] type via `f64`
    /// (widening is exact; narrowing rounds to nearest). `cast` to the
    /// same type is a plain copy.
    pub fn cast<U: Scalar>(&self) -> Tensor<U> {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| U::from_f64(x.to_f64())).collect(),
        }
    }

    // ----- shape accessors ----------------------------------------------

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    /// Panics when `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds (rows={})",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r` as a slice.
    ///
    /// # Panics
    /// Panics when `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds (rows={})",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Column `c` copied into a `Vec`.
    ///
    /// # Panics
    /// Panics when `c >= cols`.
    pub fn col(&self, c: usize) -> Vec<T> {
        assert!(
            c < self.cols,
            "col index {c} out of bounds (cols={})",
            self.cols
        );
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Reinterprets the buffer with a new shape of identical element count.
    pub fn try_reshape(&self, rows: usize, cols: usize) -> Result<Self, ShapeError> {
        if rows * cols != self.data.len() {
            return Err(ShapeError::unary(
                "reshape",
                self.shape(),
                format!(
                    "cannot reshape {} elements to ({rows}, {cols})",
                    self.data.len()
                ),
            ));
        }
        Ok(Self {
            rows,
            cols,
            data: self.data.clone(),
        })
    }

    /// Panicking variant of [`Tensor::try_reshape`].
    pub fn reshape(&self, rows: usize, cols: usize) -> Self {
        self.try_reshape(rows, cols)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

impl<T: Scalar> Index<(usize, usize)> for Tensor<T> {
    type Output = T;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Tensor<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl<T: Scalar> fmt::Debug for Tensor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor<{}>({}x{}) [", T::DTYPE, self.rows, self.cols)?;
        // Print at most 8 rows / 8 cols to keep assertion output readable.
        let rmax = self.rows.min(8);
        let cmax = self.cols.min(8);
        for r in 0..rmax {
            write!(f, "  [")?;
            for c in 0..cmax {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(r, c)])?;
            }
            if cmax < self.cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if rmax < self.rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_rand::Rng;

    #[test]
    fn constructors_have_expected_shape_and_content() {
        let z = Tensor::<f64>::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let o = Tensor::<f64>::ones(3, 1);
        assert_eq!(o.shape(), (3, 1));
        assert!(o.as_slice().iter().all(|&x| x == 1.0));

        let e = Tensor::<f64>::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(e[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::try_from_vec(2, 2, vec![1.0; 4]).is_ok());
        let err = Tensor::try_from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert_eq!(err.op, "from_vec");
    }

    #[test]
    fn from_rows_builds_row_major() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(t[(0, 1)], 2.0);
        assert_eq!(t[(1, 0)], 3.0);
        assert_eq!(t.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "from_rows")]
    fn from_rows_rejects_ragged_input() {
        Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    fn row_and_col_access() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
        assert_eq!(t.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn rand_uniform_respects_bounds_and_seed() {
        let mut rng = Rng::from_seed(7);
        let a = Tensor::rand_uniform(4, 4, -0.5, 0.5, &mut rng);
        assert!(a.as_slice().iter().all(|&x| (-0.5..0.5).contains(&x)));

        let mut rng2 = Rng::from_seed(7);
        let b = Tensor::rand_uniform(4, 4, -0.5, 0.5, &mut rng2);
        assert_eq!(a, b, "same seed must reproduce the same tensor");
    }

    #[test]
    fn rand_normal_is_roughly_centered() {
        let mut rng = Rng::from_seed(13);
        let t = Tensor::rand_normal(50, 50, 1.0, &mut rng);
        let mean: f64 = t.as_slice().iter().sum::<f64>() / t.len() as f64;
        assert!(mean.abs() < 0.1, "sample mean {mean} too far from 0");
        let var: f64 = t
            .as_slice()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / t.len() as f64;
        assert!(
            (var - 1.0).abs() < 0.15,
            "sample variance {var} too far from 1"
        );
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = t.reshape(3, 2);
        assert_eq!(r.shape(), (3, 2));
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.try_reshape(4, 2).is_err());
    }

    #[test]
    fn col_vector_and_row_vector() {
        let c = Tensor::col_vector(&[1.0, 2.0]);
        assert_eq!(c.shape(), (2, 1));
        let r = Tensor::row_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(r.shape(), (1, 3));
    }

    #[test]
    fn f32_tensors_share_the_rng_stream_with_f64() {
        // Same seed: the f32 tensor must be the elementwise rounding of the
        // f64 one, because draws happen in f64 before narrowing.
        let mut r1 = Rng::from_seed(42);
        let mut r2 = Rng::from_seed(42);
        let a: Tensor<f64> = Tensor::rand_uniform(5, 3, -1.0, 1.0, &mut r1);
        let b: Tensor<f32> = Tensor::rand_uniform(5, 3, -1.0, 1.0, &mut r2);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!((*x as f32).to_bits(), y.to_bits());
        }
        let mut r1 = Rng::from_seed(43);
        let mut r2 = Rng::from_seed(43);
        let a: Tensor<f64> = Tensor::rand_normal(4, 4, 0.7, &mut r1);
        let b: Tensor<f32> = Tensor::rand_normal(4, 4, 0.7, &mut r2);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!((*x as f32).to_bits(), y.to_bits());
        }
    }

    #[test]
    fn cast_roundtrip_and_identity() {
        let t = Tensor::from_rows(&[vec![1.0, -2.5], vec![0.125, 3.0]]);
        let t32: Tensor<f32> = t.cast();
        assert_eq!(t32[(0, 1)], -2.5_f32);
        let back: Tensor<f64> = t32.cast();
        // These values are exactly representable in f32, so the roundtrip
        // is lossless.
        assert_eq!(back, t);
        let same: Tensor<f64> = t.cast();
        assert_eq!(same, t);
    }

    #[test]
    fn debug_output_names_the_dtype() {
        let d = format!("{:?}", Tensor::<f32>::zeros(1, 1));
        assert!(d.contains("Tensor<f32>"), "{d}");
    }
}
