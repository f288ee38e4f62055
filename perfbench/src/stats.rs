//! Sample statistics and output hashing.
//!
//! Every quantile the benchmark reports comes from the sorted raw samples,
//! never from `hap_obs::Histogram::quantile`, whose log2 buckets carry up
//! to a factor-2 error.

/// A quantile read off sorted raw samples, with the sample count it rests
/// on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    /// The sample at the quantile's rank.
    pub value: f64,
    /// How many samples the quantile was read from.
    pub count: usize,
}

/// Fewest samples that must lie above a reported percentile: below this a
/// tail quantile is one or two outliers, not a measurement.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `p`-quantile (`0 < p < 1`) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `p · n` samples at or below it.
/// `None` when fewer than [`MIN_TAIL_SAMPLES`] samples lie above that rank
/// (so a p99 needs at least 1000 samples), or when `samples` is empty.
pub fn quantile(samples: &[f64], p: f64) -> Option<Quantile> {
    assert!(p > 0.0 && p < 1.0, "quantile p must lie in (0, 1), got {p}");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    // A median needs no tail; any higher percentile needs a real tail.
    if p > 0.5 && n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(Quantile {
        value: sorted[rank - 1],
        count: n,
    })
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5).map(|q| q.value)
}

/// A tail quantile for the report, or why there is none.
pub fn tail_ms(samples: &[f64], p: f64) -> String {
    quantile(samples, p).map_or("n/a (too few samples)".to_string(), |q| {
        format!("{:.3} ms", q.value)
    })
}

/// FNV-1a over `bodies` in order, with a `0xFF` separator after each body
/// so `["ab", ""]` and `["a", "b"]` differ — the construction `loadgen`
/// and `stream_bench` use for their `response_hash` — as 16 hex digits.
pub fn hash_bodies<S: AsRef<[u8]>>(bodies: &[S]) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for body in bodies {
        for &byte in body.as_ref() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
        h ^= 0xFF;
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        // Nearest rank: the 2nd of 4 sorted samples.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(
            quantile(&[7.0], 0.5),
            Some(Quantile {
                value: 7.0,
                count: 1
            })
        );
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1..=1000: the 990th sample is the p99 and 10 samples lie above it.
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(
            quantile(&samples, 0.99),
            Some(Quantile {
                value: 990.0,
                count: 1000
            })
        );
        // One sample fewer leaves only 9 above the rank: not reportable.
        assert_eq!(quantile(&samples[..999], 0.99), None);
        // p90 of 100 samples has exactly 10 above it.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.9).map(|q| q.value), Some(90.0));
    }

    #[test]
    fn quantiles_are_exact_not_bucketed() {
        // A log2 histogram would put 1025 and 2047 in one bucket; the raw
        // samples keep them apart.
        let mut samples = vec![1025.0; 600];
        samples.extend(std::iter::repeat_n(2047.0, 400));
        assert_eq!(median(&samples), Some(1025.0));
        assert_eq!(quantile(&samples, 0.7).map(|q| q.value), Some(2047.0));
    }

    #[test]
    fn body_hash_matches_the_loadgen_construction() {
        // FNV-1a offset basis folded with only the separator byte.
        let expected = (0xCBF2_9CE4_8422_2325u64 ^ 0xFF).wrapping_mul(0x0000_0100_0000_01B3);
        assert_eq!(hash_bodies(&[""]), format!("{expected:016x}"));
        assert_ne!(hash_bodies(&["ab", ""]), hash_bodies(&["a", "b"]));
    }
}
