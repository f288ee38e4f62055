//! # hap-core
//!
//! The HAP paper's primary contribution: **H**ierarchical **A**daptive
//! **P**ooling for graph-level representation learning.
//!
//! The crate implements the full Sec. 4 pipeline:
//!
//! * [`GCont`] — the auto-learned global graph content
//!   `C = H·T ∈ R^{N×N'}` (Eq. 13), rows ↔ source-graph nodes, columns ↔
//!   target coarsened clusters;
//! * [`Moa`] — Master-Orthogonal Attention (Eqs. 14–15), the cross-level
//!   attention between rows and columns of `C`, with the attentional
//!   parameter relaxed from `R^{N+N'}` to `R^{2N'}` (Sec. 4.4.2 /
//!   Claim 3);
//! * [`HapCoarsen`] — the graph coarsening module (Algorithm 1):
//!   cluster formation `H' = MᵀH`, `A' = MᵀAM` (Eqs. 17–18) and
//!   Gumbel-Softmax soft sampling with τ = 0.1 (Eq. 19);
//! * [`HapModel`] — the hierarchical framework (Fig. 2): alternating
//!   node & cluster embedding (Sec. 4.3) and coarsening, producing the
//!   hierarchical graph embeddings used by the Sec. 4.5 losses;
//! * task heads — [`HapClassifier`] (Eqs. 20–21), [`HapMatcher`]
//!   (Eqs. 22–23) and [`HapSimilarity`] (Eq. 24), plus the triplet
//!   machinery of Sec. 4.2;
//! * ablation support — any [`hap_pooling::CoarsenModule`] can replace
//!   [`HapCoarsen`] inside [`HapModel`] (Table 5's HAP-MeanPool,
//!   HAP-MeanAttPool, HAP-SAGPool, HAP-DiffPool), with flat readouts
//!   adapted via [`FlatCoarsen`].
//!
//! The permutation-invariance of the coarsening module (Claim 2) and the
//! validity of the attentional-parameter relaxation (Claim 3) are verified
//! by tests in this crate and property tests in `crates/integration`.

mod coarsen;
mod error;
mod flat_coarsen;
mod gcont;
mod moa;
mod model;
mod tasks;

pub use coarsen::HapCoarsen;
pub use error::HapError;
pub use flat_coarsen::FlatCoarsen;
pub use gcont::GCont;
pub use moa::Moa;
pub use model::{AblationKind, HapConfig, HapModel};
pub use tasks::{HapClassifier, HapMatcher, HapSimilarity, PairScore, SIMILARITY_SCALE};
