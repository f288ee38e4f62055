//! Segment reductions over contiguous row ranges.
//!
//! A *segment layout* partitions the rows of an `N × F` tensor into `B`
//! contiguous, non-empty blocks described by an offsets vector
//! `[0, n₁, n₁+n₂, …, N]` of length `B + 1` — the block-diagonal batch
//! layout of `hap_gnn::BatchGraph`, where segment `b` holds graph `b`'s
//! nodes. Each kernel reduces (or normalises) within segments:
//!
//! * [`Tensor::segment_sums`] / [`Tensor::segment_means`] — the batched
//!   forms of [`Tensor::col_sums`] / [`Tensor::col_means`] applied per
//!   segment. Rows are accumulated in ascending order, then (for means)
//!   scaled by `1/len` — the *same* operation sequence as the per-graph
//!   reductions, so segment row `b` is byte-identical to
//!   `block_b.col_means()`.
//! * [`Tensor::segment_softmax`] — per-column softmax *across the rows of
//!   each segment* (max-subtraction stabilised), the attention-readout
//!   normaliser of ASAP-style pooling: scores for one graph's nodes
//!   compete only with each other, never across graphs in a batch.
//!
//! Like every kernel in this crate, all three run on the calling thread,
//! one segment after another in a fixed arithmetic order.

use crate::{Scalar, ShapeError, Tensor};

/// Validates a segment-offsets vector against a row count: offsets must
/// start at `0`, end at `rows`, and be strictly increasing (no empty
/// segments — an empty segment has no well-defined mean or softmax).
///
/// # Errors
/// Returns a [`ShapeError`] describing the violation.
pub fn validate_segments(offsets: &[usize], rows: usize) -> Result<(), ShapeError> {
    let ok = offsets.len() >= 2
        && offsets[0] == 0
        && *offsets.last().expect("len >= 2") == rows
        && offsets.windows(2).all(|w| w[0] < w[1]);
    if ok {
        Ok(())
    } else {
        Err(ShapeError::unary(
            "segment_offsets",
            (rows, offsets.len()),
            format!("offsets {offsets:?} must run 0 < … < {rows} with no empty segments"),
        ))
    }
}

impl<T: Scalar> Tensor<T> {
    /// Per-segment column sums: returns a `B × cols` tensor whose row `b`
    /// is `col_sums` of rows `offsets[b]..offsets[b+1]`, accumulated in
    /// ascending row order (byte-identical to the per-block reduction).
    ///
    /// # Errors
    /// Returns a [`ShapeError`] for an invalid segment layout.
    pub fn try_segment_sums(&self, offsets: &[usize]) -> Result<Tensor<T>, ShapeError> {
        validate_segments(offsets, self.rows())?;
        let segments = offsets.len() - 1;
        let mut out = Tensor::zeros(segments, self.cols());
        for b in 0..segments {
            let acc = out.row_mut(b);
            for r in offsets[b]..offsets[b + 1] {
                for (s, &x) in acc.iter_mut().zip(self.row(r)) {
                    *s += x;
                }
            }
        }
        Ok(out)
    }

    /// Panicking variant of [`Tensor::try_segment_sums`].
    ///
    /// # Panics
    /// Panics with the [`ShapeError`] message on an invalid layout.
    pub fn segment_sums(&self, offsets: &[usize]) -> Tensor<T> {
        self.try_segment_sums(offsets)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Per-segment column means: row `b` equals
    /// `rows[offsets[b]..offsets[b+1]].col_means()` bit-for-bit (sum in
    /// ascending row order, then multiply by `1/len` exactly as
    /// [`Tensor::col_means`] does).
    ///
    /// # Errors
    /// Returns a [`ShapeError`] for an invalid segment layout.
    pub fn try_segment_means(&self, offsets: &[usize]) -> Result<Tensor<T>, ShapeError> {
        let mut out = self.try_segment_sums(offsets)?;
        for b in 0..out.rows() {
            let inv = T::from_f64(1.0 / (offsets[b + 1] - offsets[b]) as f64);
            for x in out.row_mut(b) {
                *x *= inv;
            }
        }
        Ok(out)
    }

    /// Panicking variant of [`Tensor::try_segment_means`].
    ///
    /// # Panics
    /// Panics with the [`ShapeError`] message on an invalid layout.
    pub fn segment_means(&self, offsets: &[usize]) -> Tensor<T> {
        self.try_segment_means(offsets)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Per-column softmax within each row segment, with the standard
    /// max-subtraction stabilisation (the segmented counterpart of
    /// [`Tensor::softmax_rows`], normalising down each column of a
    /// segment instead of across a row).
    ///
    /// # Errors
    /// Returns a [`ShapeError`] for an invalid segment layout.
    pub fn try_segment_softmax(&self, offsets: &[usize]) -> Result<Tensor<T>, ShapeError> {
        validate_segments(offsets, self.rows())?;
        let mut out = self.clone();
        let cols = out.cols();
        if cols == 0 {
            return Ok(out);
        }
        let segments = offsets.len() - 1;
        for b in 0..segments {
            let rows = offsets[b]..offsets[b + 1];
            let mut maxes = vec![T::NEG_INFINITY; cols];
            for r in rows.clone() {
                for (m, &x) in maxes.iter_mut().zip(out.row(r)) {
                    *m = m.max(x);
                }
            }
            let mut z = vec![T::ZERO; cols];
            for r in rows.clone() {
                for ((x, &m), zc) in out.row_mut(r).iter_mut().zip(&maxes).zip(z.iter_mut()) {
                    *x = (*x - m).exp();
                    *zc += *x;
                }
            }
            for r in rows {
                for (x, &zc) in out.row_mut(r).iter_mut().zip(&z) {
                    debug_assert!(
                        zc.is_finite() && zc > T::ZERO,
                        "segment softmax normaliser must be positive and finite, got {zc}"
                    );
                    *x /= zc;
                }
            }
        }
        Ok(out)
    }

    /// Panicking variant of [`Tensor::try_segment_softmax`].
    ///
    /// # Panics
    /// Panics with the [`ShapeError`] message on an invalid layout.
    pub fn segment_softmax(&self, offsets: &[usize]) -> Tensor<T> {
        self.try_segment_softmax(offsets)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::assert_close;
    use hap_rand::Rng;

    fn bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn segment_sums_and_means_match_per_block_reductions_bitwise() {
        let mut rng = Rng::from_seed(5);
        let x = Tensor::rand_uniform(7, 3, -2.0, 2.0, &mut rng);
        let offsets = [0usize, 1, 4, 7];
        let sums = x.segment_sums(&offsets);
        let means = x.segment_means(&offsets);
        for b in 0..3 {
            let block = x.slice_rows(offsets[b], offsets[b + 1]);
            bits_eq(&sums.slice_rows(b, b + 1), &block.col_sums());
            bits_eq(&means.slice_rows(b, b + 1), &block.col_means());
        }
    }

    #[test]
    fn single_segment_equals_whole_tensor_reduction() {
        let mut rng = Rng::from_seed(6);
        let x = Tensor::rand_uniform(5, 4, -1.0, 1.0, &mut rng);
        bits_eq(&x.segment_means(&[0, 5]), &x.col_means());
    }

    #[test]
    fn segment_softmax_normalises_each_column_per_segment() {
        let mut rng = Rng::from_seed(7);
        let x = Tensor::rand_uniform(6, 2, -3.0, 3.0, &mut rng);
        let offsets = [0usize, 2, 6];
        let y = x.segment_softmax(&offsets);
        // Columns sum to 1 within each segment…
        let sums = y.segment_sums(&offsets);
        assert_close(&sums, &Tensor::ones(2, 2), 1e-12);
        // …and a segment's softmax equals the block-local computation.
        let block = x.slice_rows(2, 6);
        bits_eq(&y.slice_rows(2, 6), &block.segment_softmax(&[0, 4]));
    }

    #[test]
    fn invalid_layouts_are_rejected() {
        let x = Tensor::<f64>::zeros(4, 2);
        for bad in [
            vec![0usize],     // too short
            vec![1, 4],       // does not start at 0
            vec![0, 2],       // does not end at rows
            vec![0, 2, 2, 4], // empty segment
            vec![0, 3, 2, 4], // decreasing
        ] {
            assert!(x.try_segment_sums(&bad).is_err(), "{bad:?}");
            assert!(x.try_segment_softmax(&bad).is_err(), "{bad:?}");
        }
    }
}
