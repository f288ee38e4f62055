//! # hap-graph
//!
//! Graph data structures and algorithms for the HAP reproduction.
//!
//! A [`Graph`] is an undirected weighted graph — the adjacency
//! `A ∈ R^{N×N}` of the paper's equations (Sec. 3.1), stored as sorted
//! per-node neighbour rows in O(n + m) and exported densely only on
//! request — with optional discrete node labels (the set `X` of
//! Sec. 3.1, present for molecule-like datasets, absent for social
//! networks).
//!
//! The crate also provides:
//! * normalisation matrices for GNN layers — degree matrix `D`, the
//!   self-loop-augmented symmetric normalisation `D̃^{-1/2}ÃD̃^{-1/2}` of
//!   Eq. 12 (cached as CSR), and the raw adjacency as CSR for HAP's
//!   level-0 `MᵀA`;
//! * traversal utilities (BFS, connected components) used by dataset
//!   generators and by the matching-corpus construction of Sec. 6.1.1;
//! * random generators (Erdős–Rényi, Barabási–Albert, rings, cliques,
//!   planted motifs) standing in for the unavailable TU datasets;
//! * node permutations, used by the Claim-2 permutation-invariance
//!   property tests;
//! * one-hot feature encoders (degree one-hots for social graphs, label
//!   one-hots for molecules — Sec. 6.1.3).

pub mod algorithms;
pub mod csr;
pub mod features;
pub mod generators;
mod graph;
mod permutation;
pub mod wl;

pub use algorithms::{bfs_distances, connected_components, is_connected, largest_component};
pub use csr::CsrAdjacency;
pub use features::{constant_features, degree_one_hot, label_one_hot};
pub use generators::{
    barabasi_albert, clique, cycle, erdos_renyi, erdos_renyi_connected, path, planted_union, star,
};
pub use graph::{EdgeDelta, Graph, GraphScalar};
pub use permutation::Permutation;
pub use wl::{
    wl_cache_key, wl_cache_key_from_signature, wl_colors, wl_maybe_isomorphic, wl_signature,
    WlSignature,
};
