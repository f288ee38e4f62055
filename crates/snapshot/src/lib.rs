//! # hap-snapshot
//!
//! A hand-rolled, versioned, length-prefixed **binary snapshot format**
//! for trained HAP models: the [`hap_core::HapConfig`] architecture
//! description, the classifier head width, and every parameter tensor in
//! registration order, with an FNV-1a integrity checksum at the tail.
//! This is the hand-off artifact between the offline world (`hap-train`
//! writes a snapshot after training) and the online one (`hap-serve`
//! loads it at startup) — no external serialisation crate, per the
//! workspace's zero-dependency invariant.
//!
//! ## Wire format (version 2, all integers little-endian)
//!
//! ```text
//! magic        8  b"HAPSNAP\n"
//! version      u32                        (= 2)
//! dtype        u8                         (element width: 4 = f32, 8 = f64)
//! in_dim       u32  ┐
//! hidden       u32  │
//! tau          f64  │ HapConfig
//! soft_sampling u8  │
//! encoder      u8   │ (0 = GCN, 1 = GAT)
//! k            u32  │ number of coarsening modules
//! clusters     k × u32 ┘
//! classes      u32                        (classifier head output width)
//! n_params     u32
//! n_params × [ name_len u32, name bytes,
//!              rows u32, cols u32, rows·cols × element ]
//! checksum     u64   FNV-1a over every preceding byte
//! ```
//!
//! Elements are stored in the snapshot's own dtype (`dtype.bytes()` per
//! value). Version-1 files — identical except that the `dtype` byte is
//! absent and elements are always `f64` — remain loadable: the committed
//! pre-dtype baselines parse as `ModelSnapshot<f64>` unchanged. Loading a
//! snapshot into the wrong element type (e.g. an `f64` file through
//! `ModelSnapshot::<f32>::load`) is rejected with the typed
//! [`SnapshotError::DtypeMismatch`] — precision is never converted
//! silently, because a cast would break the byte-identity contract.
//!
//! Values are raw IEEE-754 bit patterns, so a save → load → save cycle is
//! **byte-identical** (the golden test below pins this): snapshots can be
//! content-addressed, diffed and committed as binary baselines.
//!
//! Every malformed input — wrong magic, unsupported version, truncation
//! at any offset, a trailing-garbage tail, a corrupted byte — is rejected
//! with a typed [`SnapshotError`] instead of a panic, because the loader
//! sits on the serving startup path where a bad file must degrade into a
//! clean process exit, not UB-adjacent chaos. Seeded mutation fuzzing
//! (`src/fuzz.rs`) holds the parser to that inside `cargo test`.

#![deny(missing_docs)]

#[cfg(test)]
mod fuzz;

use hap_autograd::ParamStore;
use hap_core::{HapClassifier, HapConfig, HapModel};
use hap_gnn::EncoderKind;
use hap_graph::GraphScalar;
use hap_rand::Rng;
use hap_tensor::{Dtype, Scalar, Tensor};
use std::fmt;
use std::path::Path;

/// Leading magic bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"HAPSNAP\n";
/// The wire-format version this build writes. Version 1 (the pre-dtype
/// format: no `dtype` byte, elements always `f64`) is still read.
pub const VERSION: u32 = 2;
/// The oldest wire-format version this build still reads.
pub const MIN_VERSION: u32 = 1;

/// Why a snapshot failed to parse or apply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file is a snapshot, but of a version this build cannot read.
    BadVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The file ended before a field it promised; `offset` is where the
    /// read started and `needed` how many bytes it required.
    Truncated {
        /// Byte offset of the failed read.
        offset: usize,
        /// Bytes the field needed.
        needed: usize,
    },
    /// Structurally well-formed but semantically broken content (failed
    /// checksum, trailing garbage, an out-of-range enum tag, …).
    Corrupt(String),
    /// The snapshot parsed, but does not fit the model being restored
    /// (wrong parameter name/shape/count).
    ParamMismatch(String),
    /// The snapshot stores a different element type than the one it is
    /// being loaded into. Precision is never converted silently; re-train
    /// or re-export in the requested dtype instead.
    DtypeMismatch {
        /// Element type recorded in the file.
        found: Dtype,
        /// Element type the caller asked to load.
        requested: Dtype,
    },
    /// An underlying I/O failure (message-only; `std::io::Error` carries
    /// no `Eq`, and callers only route on the variant).
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a HAP snapshot (bad magic)"),
            SnapshotError::BadVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads {supported})"
            ),
            SnapshotError::Truncated { offset, needed } => write!(
                f,
                "truncated snapshot: needed {needed} byte(s) at offset {offset}"
            ),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::ParamMismatch(msg) => write!(f, "snapshot/model mismatch: {msg}"),
            SnapshotError::DtypeMismatch { found, requested } => write!(
                f,
                "snapshot stores {found} elements but {requested} was requested"
            ),
            SnapshotError::Io(msg) => write!(f, "snapshot I/O error: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

/// FNV-1a over a byte string (the workspace's stock integrity hash).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A parsed (or to-be-written) model snapshot: architecture + parameters
/// in element type `T` (default `f64`).
#[derive(Clone, Debug)]
pub struct ModelSnapshot<T: Scalar = f64> {
    /// The architecture the parameters belong to.
    pub config: HapConfig,
    /// Output width of the classification head.
    pub classes: usize,
    /// `(name, value)` per parameter, in [`ParamStore`] registration
    /// order.
    pub params: Vec<(String, Tensor<T>)>,
}

/// Reads the element type a snapshot byte string stores, without parsing
/// the body — the dtype-dispatch hook for callers (`hap-serve`) that pick
/// the concrete `ModelSnapshot<T>` to load at runtime.
///
/// # Errors
/// [`SnapshotError::BadMagic`] / [`SnapshotError::BadVersion`] /
/// [`SnapshotError::Truncated`] as for a full parse; version-1 files
/// report [`Dtype::F64`].
pub fn peek_dtype(bytes: &[u8]) -> Result<Dtype, SnapshotError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    match r.u32()? {
        1 => Ok(Dtype::F64),
        2 => dtype_tag(r.u8()?),
        v => Err(SnapshotError::BadVersion {
            found: v,
            supported: VERSION,
        }),
    }
}

/// Decodes the self-describing dtype tag byte (the element width).
fn dtype_tag(b: u8) -> Result<Dtype, SnapshotError> {
    match b {
        4 => Ok(Dtype::F32),
        8 => Ok(Dtype::F64),
        x => Err(SnapshotError::Corrupt(format!("unknown dtype tag {x}"))),
    }
}

impl<T: Scalar> ModelSnapshot<T> {
    /// Captures the current parameter values of `store` together with the
    /// architecture that produced them.
    pub fn capture(config: &HapConfig, classes: usize, store: &ParamStore<T>) -> Self {
        Self {
            config: config.clone(),
            classes,
            params: store
                .iter()
                .map(|p| (p.name().to_string(), p.value()))
                .collect(),
        }
    }

    /// Serialises to the version-2 wire format (always written with the
    /// dtype byte, even for `f64`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(T::BYTES as u8);
        out.extend_from_slice(&(self.config.in_dim as u32).to_le_bytes());
        out.extend_from_slice(&(self.config.hidden as u32).to_le_bytes());
        out.extend_from_slice(&self.config.tau.to_le_bytes());
        out.push(self.config.soft_sampling as u8);
        out.push(match self.config.encoder {
            EncoderKind::Gcn => 0,
            EncoderKind::Gat => 1,
        });
        out.extend_from_slice(&(self.config.cluster_sizes.len() as u32).to_le_bytes());
        for &c in &self.config.cluster_sizes {
            out.extend_from_slice(&(c as u32).to_le_bytes());
        }
        out.extend_from_slice(&(self.classes as u32).to_le_bytes());
        out.extend_from_slice(&(self.params.len() as u32).to_le_bytes());
        for (name, value) in &self.params {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(value.rows() as u32).to_le_bytes());
            out.extend_from_slice(&(value.cols() as u32).to_le_bytes());
            for v in value.as_slice() {
                v.write_le(&mut out);
            }
        }
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses the wire format — version 2, or a legacy version-1 file
    /// (implicitly `f64`).
    ///
    /// # Errors
    /// Every malformed input maps to a typed [`SnapshotError`]; this
    /// function never panics on untrusted bytes. A well-formed snapshot
    /// whose stored dtype differs from `T` fails with
    /// [`SnapshotError::DtypeMismatch`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        let dtype = match version {
            1 => Dtype::F64,
            2 => dtype_tag(r.u8()?)?,
            v => {
                return Err(SnapshotError::BadVersion {
                    found: v,
                    supported: VERSION,
                })
            }
        };
        if dtype != T::DTYPE {
            return Err(SnapshotError::DtypeMismatch {
                found: dtype,
                requested: T::DTYPE,
            });
        }
        let in_dim = r.u32()? as usize;
        let hidden = r.u32()? as usize;
        let tau = f64::from_le_bytes(r.array::<8>()?);
        if !tau.is_finite() {
            return Err(SnapshotError::Corrupt(format!("non-finite tau {tau}")));
        }
        let soft_sampling = match r.u8()? {
            0 => false,
            1 => true,
            x => {
                return Err(SnapshotError::Corrupt(format!(
                    "soft_sampling flag must be 0/1, got {x}"
                )))
            }
        };
        let encoder = match r.u8()? {
            0 => EncoderKind::Gcn,
            1 => EncoderKind::Gat,
            x => return Err(SnapshotError::Corrupt(format!("unknown encoder tag {x}"))),
        };
        let k = r.u32()? as usize;
        let mut cluster_sizes = Vec::with_capacity(k.min(1024));
        for _ in 0..k {
            cluster_sizes.push(r.u32()? as usize);
        }
        let classes = r.u32()? as usize;
        let n_params = r.u32()? as usize;
        let mut params = Vec::with_capacity(n_params.min(4096));
        for _ in 0..n_params {
            let name_len = r.u32()? as usize;
            let name = String::from_utf8(r.take(name_len)?.to_vec())
                .map_err(|_| SnapshotError::Corrupt("param name is not UTF-8".into()))?;
            let rows = r.u32()? as usize;
            let cols = r.u32()? as usize;
            // The shape is checked against the bytes left before anything
            // is allocated for it; a product that overflows cannot fit.
            let len = rows.saturating_mul(cols).saturating_mul(T::BYTES);
            let data = r
                .take(len)?
                .chunks_exact(T::BYTES)
                .map(T::read_le)
                .collect();
            params.push((name, Tensor::from_vec(rows, cols, data)));
        }
        let payload_end = r.pos;
        let stored = u64::from_le_bytes(r.array::<8>()?);
        let computed = fnv1a(&bytes[..payload_end]);
        if stored != computed {
            return Err(SnapshotError::Corrupt(format!(
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        if r.pos != bytes.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing byte(s) after checksum",
                bytes.len() - r.pos
            )));
        }
        let config = HapConfig {
            in_dim,
            hidden,
            cluster_sizes,
            encoder,
            tau,
            soft_sampling,
        };
        Ok(Self {
            config,
            classes,
            params,
        })
    }

    /// Writes [`ModelSnapshot::to_bytes`] to `path`, creating parent
    /// directories.
    ///
    /// # Errors
    /// Propagates I/O failures as [`SnapshotError::Io`].
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads and parses a snapshot file.
    ///
    /// # Errors
    /// [`SnapshotError::Io`] on read failure, any parse variant on
    /// malformed content.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

impl<T: GraphScalar> ModelSnapshot<T> {
    /// Reconstructs a ready-to-serve classifier: builds the architecture
    /// described by `config` (deterministic throw-away init), then
    /// overwrites every parameter with the snapshot values, verifying
    /// name and shape in registration order.
    ///
    /// # Errors
    /// [`SnapshotError::ParamMismatch`] when the snapshot does not fit
    /// the architecture it claims (count, name or shape deviates).
    pub fn build_classifier(&self) -> Result<(ParamStore<T>, HapClassifier<T>), SnapshotError> {
        // The init values are immediately overwritten; the seed only has
        // to be fixed so construction itself is deterministic.
        let mut rng = Rng::from_seed(0);
        let mut store = ParamStore::new();
        let model = HapModel::new(&mut store, &self.config, &mut rng);
        let clf = HapClassifier::new(&mut store, model, self.classes, &mut rng);
        if store.len() != self.params.len() {
            return Err(SnapshotError::ParamMismatch(format!(
                "architecture registers {} parameters, snapshot carries {}",
                store.len(),
                self.params.len()
            )));
        }
        for (p, (name, value)) in store.iter().zip(&self.params) {
            if p.name() != name {
                return Err(SnapshotError::ParamMismatch(format!(
                    "parameter order mismatch: model has {:?}, snapshot has {name:?}",
                    p.name()
                )));
            }
            if p.shape() != value.shape() {
                return Err(SnapshotError::ParamMismatch(format!(
                    "parameter {name:?}: model shape {:?}, snapshot shape {:?}",
                    p.shape(),
                    value.shape()
                )));
            }
            p.set_value(value.clone());
        }
        Ok((store, clf))
    }
}

/// Cursor over the raw bytes; every read reports truncation with its
/// offset instead of slicing out of bounds.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.bytes.len() - self.pos < n {
            return Err(SnapshotError::Truncated {
                offset: self.pos,
                needed: n,
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        Ok(self.take(N)?.try_into().expect("length checked"))
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.array::<4>()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> ModelSnapshot {
        let mut rng = Rng::from_seed(3);
        let mut store = ParamStore::<f64>::new();
        let cfg = HapConfig::new(5, 6).with_clusters(&[4, 2]);
        let model = HapModel::new(&mut store, &cfg, &mut rng);
        let _clf = HapClassifier::new(&mut store, model, 3, &mut rng);
        ModelSnapshot::capture(&cfg, 3, &store)
    }

    fn sample_snapshot_f32() -> ModelSnapshot<f32> {
        let mut rng = Rng::from_seed(3);
        let mut store = ParamStore::<f32>::new();
        let cfg = HapConfig::new(5, 6).with_clusters(&[4, 2]);
        let model = HapModel::new(&mut store, &cfg, &mut rng);
        let _clf = HapClassifier::new(&mut store, model, 3, &mut rng);
        ModelSnapshot::capture(&cfg, 3, &store)
    }

    /// Rewrites version-2 bytes into the legacy version-1 layout (drop the
    /// dtype byte, patch the version field, recompute the checksum) — the
    /// shape of every snapshot committed before the dtype tag existed.
    fn as_version1(v2: &[u8]) -> Vec<u8> {
        let payload = &v2[..v2.len() - 8]; // strip checksum
        let mut out = Vec::with_capacity(payload.len() - 1);
        out.extend_from_slice(&payload[..8]);
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&payload[13..]); // skip version (8..12) + dtype byte (12)
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    #[test]
    fn f32_roundtrip_is_byte_identical() {
        // The dtype-generic golden property: an f32 snapshot's raw bit
        // patterns survive serialise → parse → serialise untouched.
        let snap = sample_snapshot_f32();
        let bytes = snap.to_bytes();
        assert_eq!(bytes[12], 4, "f32 tag byte must be the element width");
        let back = ModelSnapshot::<f32>::from_bytes(&bytes).expect("parse");
        for ((n1, v1), (n2, v2)) in back.params.iter().zip(&snap.params) {
            assert_eq!(n1, n2);
            assert_eq!(v1, v2, "f32 values must roundtrip bit-exactly ({n1})");
        }
        assert_eq!(back.to_bytes(), bytes, "resave must be byte-identical");
    }

    #[test]
    fn wrong_dtype_load_is_typed_both_directions() {
        let f64_bytes = sample_snapshot().to_bytes();
        assert_eq!(
            ModelSnapshot::<f32>::from_bytes(&f64_bytes).unwrap_err(),
            SnapshotError::DtypeMismatch {
                found: Dtype::F64,
                requested: Dtype::F32
            }
        );
        let f32_bytes = sample_snapshot_f32().to_bytes();
        assert_eq!(
            ModelSnapshot::<f64>::from_bytes(&f32_bytes).unwrap_err(),
            SnapshotError::DtypeMismatch {
                found: Dtype::F32,
                requested: Dtype::F64
            }
        );
    }

    #[test]
    fn truncation_at_the_dtype_byte_is_typed() {
        // A version-2 header cut right before its dtype byte must report
        // the exact offset/need — not fall through to a v1 parse.
        let bytes = sample_snapshot().to_bytes();
        assert_eq!(
            ModelSnapshot::<f64>::from_bytes(&bytes[..12]).unwrap_err(),
            SnapshotError::Truncated {
                offset: 12,
                needed: 1
            }
        );
    }

    #[test]
    fn version1_files_still_load_as_f64() {
        // Back-compat: pre-dtype snapshots (the committed baselines) parse
        // into ModelSnapshot<f64> with identical values …
        let snap = sample_snapshot();
        let v1 = as_version1(&snap.to_bytes());
        let back = ModelSnapshot::<f64>::from_bytes(&v1).expect("v1 parse");
        assert_eq!(back.params.len(), snap.params.len());
        for ((n1, v1_), (n2, v2_)) in back.params.iter().zip(&snap.params) {
            assert_eq!(n1, n2);
            assert_eq!(v1_, v2_);
        }
        // … and are rejected for f32 (implicitly f64, never converted).
        assert_eq!(
            ModelSnapshot::<f32>::from_bytes(&v1).unwrap_err(),
            SnapshotError::DtypeMismatch {
                found: Dtype::F64,
                requested: Dtype::F32
            }
        );
    }

    #[test]
    fn peek_dtype_reads_the_tag_without_parsing() {
        assert_eq!(
            peek_dtype(&sample_snapshot().to_bytes()).unwrap(),
            Dtype::F64
        );
        assert_eq!(
            peek_dtype(&sample_snapshot_f32().to_bytes()).unwrap(),
            Dtype::F32
        );
        assert_eq!(
            peek_dtype(&as_version1(&sample_snapshot().to_bytes())).unwrap(),
            Dtype::F64,
            "version-1 files are implicitly f64"
        );
        assert_eq!(
            peek_dtype(b"NOTASNAP....").unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn f32_build_classifier_restores_values() {
        let snap = sample_snapshot_f32();
        let (store, clf) = snap.build_classifier().expect("build");
        assert_eq!(clf.classes(), 3);
        for (p, (name, value)) in store.iter().zip(&snap.params) {
            assert_eq!(p.name(), name);
            assert_eq!(&p.value(), value);
        }
    }

    #[test]
    fn roundtrip_preserves_config_and_params() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes();
        let back = ModelSnapshot::<f64>::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back.config.in_dim, snap.config.in_dim);
        assert_eq!(back.config.hidden, snap.config.hidden);
        assert_eq!(back.config.cluster_sizes, snap.config.cluster_sizes);
        assert_eq!(back.config.encoder, snap.config.encoder);
        assert_eq!(back.config.tau, snap.config.tau);
        assert_eq!(back.config.soft_sampling, snap.config.soft_sampling);
        assert_eq!(back.classes, snap.classes);
        assert_eq!(back.params.len(), snap.params.len());
        for ((n1, v1), (n2, v2)) in back.params.iter().zip(&snap.params) {
            assert_eq!(n1, n2);
            assert_eq!(v1, v2, "values must roundtrip bit-exactly ({n1})");
        }
    }

    #[test]
    fn resave_is_byte_identical() {
        // The golden property: parse(serialise(x)) serialises to the same
        // bytes, so snapshots are content-addressable artifacts.
        let bytes = sample_snapshot().to_bytes();
        let resaved = ModelSnapshot::<f64>::from_bytes(&bytes).unwrap().to_bytes();
        assert_eq!(bytes, resaved);
    }

    #[test]
    fn build_classifier_restores_values() {
        let snap = sample_snapshot();
        let (store, clf) = snap.build_classifier().expect("build");
        assert_eq!(clf.classes(), 3);
        assert_eq!(store.len(), snap.params.len());
        for (p, (name, value)) in store.iter().zip(&snap.params) {
            assert_eq!(p.name(), name);
            assert_eq!(&p.value(), value);
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            ModelSnapshot::<f64>::from_bytes(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            ModelSnapshot::<f64>::from_bytes(b"").unwrap_err(),
            SnapshotError::Truncated {
                offset: 0,
                needed: 8
            }
        );
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            ModelSnapshot::<f64>::from_bytes(&bytes).unwrap_err(),
            SnapshotError::BadVersion {
                found: 99,
                supported: VERSION
            }
        );
    }

    #[test]
    fn truncation_at_every_prefix_is_typed_not_a_panic() {
        // Chop the file at every length: each prefix must fail with
        // Truncated (or a checksum Corrupt for prefixes that happen to
        // end exactly on the checksum field) — never a panic.
        let bytes = sample_snapshot().to_bytes();
        for len in 0..bytes.len() {
            let err =
                ModelSnapshot::<f64>::from_bytes(&bytes[..len]).expect_err("prefix must not parse");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::Corrupt(_)
                ),
                "len {len}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn bitflip_fails_the_checksum() {
        let mut bytes = sample_snapshot().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        match ModelSnapshot::<f64>::from_bytes(&bytes) {
            Err(SnapshotError::Corrupt(msg)) => {
                assert!(msg.contains("checksum"), "{msg}")
            }
            other => panic!("bit flip must fail the checksum, got {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes.push(0);
        match ModelSnapshot::<f64>::from_bytes(&bytes) {
            Err(SnapshotError::Corrupt(msg)) => {
                assert!(msg.contains("trailing"), "{msg}")
            }
            other => panic!("expected trailing-garbage rejection, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_architecture_is_typed() {
        let mut snap = sample_snapshot();
        snap.params.pop();
        assert!(matches!(
            snap.build_classifier(),
            Err(SnapshotError::ParamMismatch(_))
        ));

        let mut snap2 = sample_snapshot();
        snap2.params[0].0 = "wrong.name".into();
        assert!(matches!(
            snap2.build_classifier(),
            Err(SnapshotError::ParamMismatch(_))
        ));
    }

    #[test]
    fn save_load_file_roundtrip() {
        let snap = sample_snapshot();
        let dir = std::env::temp_dir().join("hap_snapshot_test");
        let path = dir.join("model.snap");
        snap.save(&path).expect("save");
        let back = ModelSnapshot::<f64>::load(&path).expect("load");
        assert_eq!(back.to_bytes(), snap.to_bytes());
        assert!(matches!(
            ModelSnapshot::<f64>::load(&dir.join("missing.snap")),
            Err(SnapshotError::Io(_))
        ));
    }
}
