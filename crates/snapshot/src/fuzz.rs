//! Seeded fuzzing of the snapshot parser.
//!
//! Valid `f64` and `f32` snapshots are mutated with `hap-rand` (byte
//! flips, truncations, duplicated spans, `u32` fields overwritten with
//! boundary values) and, half of the time, re-sealed with a fresh
//! checksum so the mutation reaches the checks behind it. Each input goes
//! through `peek_dtype` and `ModelSnapshot::from_bytes` at both dtypes.
//! Properties: nothing panics or allocates for a shape the bytes do not
//! hold; `peek_dtype` fails exactly as the full parse does; an accepted
//! input re-serialises to itself. A fixed seed and budget keep each run
//! reproducible and inside `cargo test`.

use crate::{fnv1a, peek_dtype, ModelSnapshot, SnapshotError};
use hap_autograd::ParamStore;
use hap_core::{HapClassifier, HapConfig, HapModel};
use hap_graph::GraphScalar;
use hap_rand::Rng;

/// Mutated inputs per dtype.
const BUDGET: usize = 3000;

/// Boundary values written over `u32` fields (shapes, counts, lengths,
/// the version).
const FIELDS: &[u32] = &[0, 1, 2, 4, 8, 255, 0xFFFF, 0x7FFF_FFFF, u32::MAX];

fn sample<T: GraphScalar>() -> ModelSnapshot<T> {
    let mut rng = Rng::from_seed(3);
    let mut store = ParamStore::<T>::new();
    let cfg = HapConfig::new(5, 6).with_clusters(&[4, 2]);
    let model = HapModel::new(&mut store, &cfg, &mut rng);
    let _clf = HapClassifier::new(&mut store, model, 3, &mut rng);
    ModelSnapshot::capture(&cfg, 3, &store)
}

/// Rewrites the trailing checksum to match the bytes before it.
fn reseal(bytes: &mut [u8]) {
    if let Some(end) = bytes.len().checked_sub(8) {
        let sum = fnv1a(&bytes[..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
    }
}

/// Applies one to three random mutations to `input`, then re-seals the
/// checksum with probability ½.
fn mutate(rng: &mut Rng, input: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    for _ in 0..rng.gen_range(1..=3usize) {
        match rng.gen_range(0..4u32) {
            0 if !out.is_empty() => {
                let i = rng.gen_range(0..out.len());
                out[i] ^= rng.gen_range(1..=255u8);
            }
            1 => {
                let cut = rng.gen_range(0..=out.len());
                out.truncate(cut);
            }
            2 if !out.is_empty() => {
                let a = rng.gen_range(0..out.len());
                let b = rng.gen_range(a..=out.len());
                let at = rng.gen_range(0..=out.len());
                let span = out[a..b].to_vec();
                out.splice(at..at, span);
            }
            _ if out.len() >= 4 => {
                let at = rng.gen_range(0..=out.len() - 4);
                let v = FIELDS[rng.gen_range(0..FIELDS.len())];
                out[at..at + 4].copy_from_slice(&v.to_le_bytes());
            }
            _ => {}
        }
    }
    if rng.gen_bool(0.5) {
        reseal(&mut out);
    }
    out
}

/// Parses `bytes` as a `T` snapshot and checks the properties that tie it
/// to `peek_dtype` and to the writer.
fn check<T: GraphScalar>(bytes: &[u8], peeked: &Result<hap_tensor::Dtype, SnapshotError>) {
    match (ModelSnapshot::<T>::from_bytes(bytes), peeked) {
        (Err(e), Err(p)) => assert_eq!(&e, p, "peek_dtype and from_bytes disagree"),
        (Err(_), Ok(_)) => {}
        (Ok(_), Err(p)) => panic!("from_bytes accepted what peek_dtype refused: {p:?}"),
        (Ok(snap), Ok(dtype)) => {
            assert_eq!(*dtype, T::DTYPE);
            // Version-1 input re-serialises as version 2.
            if bytes[8..12] == 2u32.to_le_bytes() {
                assert_eq!(snap.to_bytes(), bytes, "accepted input must round-trip");
            }
        }
    }
}

fn fuzz_from<T: GraphScalar>(seed: u64) {
    let valid = sample::<T>().to_bytes();
    let mut rng = Rng::from_seed(seed);
    for _ in 0..BUDGET {
        let bytes = mutate(&mut rng, &valid);
        let peeked = peek_dtype(&bytes);
        check::<f64>(&bytes, &peeked);
        check::<f32>(&bytes, &peeked);
    }
}

#[test]
fn parser_survives_mutated_f64_snapshots() {
    fuzz_from::<f64>(0x5A9_0064);
}

#[test]
fn parser_survives_mutated_f32_snapshots() {
    fuzz_from::<f32>(0x5A9_0032);
}

/// Byte offset of the first parameter's `rows` field in version-2 bytes:
/// the fixed 31-byte header, the cluster list, `classes`, `n_params`,
/// then the first name.
fn first_shape_offset(bytes: &[u8]) -> usize {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let name_len_at = 35 + 4 * u32_at(31) + 8;
    name_len_at + 4 + u32_at(name_len_at)
}

fn huge_first_shape<T: GraphScalar>() {
    let mut bytes = sample::<T>().to_bytes();
    let at = first_shape_offset(&bytes);
    bytes[at..at + 8].copy_from_slice(&[0xFF; 8]);
    assert!(matches!(
        ModelSnapshot::<T>::from_bytes(&bytes),
        Err(SnapshotError::Truncated { offset, .. }) if offset == at + 8
    ));
}

#[test]
fn u32_max_by_u32_max_shape_is_truncated_not_a_capacity_overflow() {
    // Regression: the parser reserved rows × cols elements before it
    // checked that the bytes exist, so this shape panicked with
    // "capacity overflow" (and a smaller huge one asked for gigabytes).
    huge_first_shape::<f64>();
    huge_first_shape::<f32>();
}
