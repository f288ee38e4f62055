//! # hap-retrieval
//!
//! Corpus-scale top-k graph retrieval over hierarchical HAP embeddings
//! (ROADMAP item 4): the paper's coarsening hierarchy used for what it
//! is — a cheap stand-in for the full graph that lets most distance
//! computations be *skipped* rather than accelerated.
//!
//! - [`GraphIndex`] — SoA index over a seeded
//!   [`hap_data::RetrievalCorpus`]: per-level embeddings (coarsest
//!   level in one contiguous buffer), 1-WL histograms in fixed `n`-pair
//!   slots, 128-bit colour sets, and size/degree stats, with each shard
//!   grouped into `(n, max_degree)` buckets. Built through the batched
//!   block-diagonal forward in parallel chunks.
//! - [`GraphIndex::cascade`] — staged query path: a best-first walk of
//!   the buckets that stops at the heap threshold, admissible colour and
//!   WL filters → bounded coarse-level scan → fine-level refine, with an
//!   optional exact [`GraphIndex::rerank_ged`] stage.
//! - [`GraphIndex::exhaustive`] — the full-distance oracle the
//!   cascade is measured against; with `budget ≥ corpus size` the
//!   cascade is bitwise-equal to it.
//!
//! Everything is byte-identical at any `HAP_THREADS`: shard and chunk
//! boundaries are pure functions of corpus length, shard work is
//! sequential within one task, and merges walk shards in order.

mod cascade;
mod index;

pub use cascade::{CascadeReport, Neighbor};
pub use index::{GraphIndex, GraphStats, IndexConfig, QueryEmbedding, StatWeights};

use std::fmt;

/// Typed errors for index construction and query preparation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RetrievalError {
    /// The snapshot could not be instantiated into a classifier.
    Snapshot(String),
    /// A corpus or query graph failed to embed.
    Embedding(String),
    /// A concatenated embedding had the wrong width for the index's
    /// `hidden × levels` layout.
    EmbeddingShape { expected: usize, got: usize },
}

impl fmt::Display for RetrievalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetrievalError::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
            RetrievalError::Embedding(e) => write!(f, "embedding failed: {e}"),
            RetrievalError::EmbeddingShape { expected, got } => {
                write!(f, "embedding width {got}, index expects {expected}")
            }
        }
    }
}

impl std::error::Error for RetrievalError {}
