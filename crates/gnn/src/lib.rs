//! # hap-gnn
//!
//! Graph neural-network layers: the node & cluster embedding components of
//! the HAP framework (Sec. 4.3) and of every baseline pooling method.
//!
//! * [`GcnLayer`] — Kipf & Welling graph convolution, Eq. 12:
//!   `H_{k+1} = σ(D̃^{-1/2} Ã D̃^{-1/2} H_k W_k)`.
//! * [`GatLayer`] — graph attention (Veličković et al.), the classical
//!   attention of Eq. 16 masked to the 1-hop neighbourhood, realising the
//!   paper's Eq. 11.
//! * [`GnnEncoder`] — a stack of either layer kind; HAP uses a two-layer
//!   encoder before each coarsening module (Sec. 6.1.3).
//! * [`BatchGraph`] — a block-diagonal fusion of several graphs so one
//!   forward embeds a whole batch, byte-identical per node to the
//!   graph-at-a-time loop, for either layer kind (see
//!   [`GnnEncoder::forward_batch`]).
//!
//! Fixed-graph propagation has one code path: the graph's cached CSR `Â`.
//! GCN multiplies by it with SpMM; GAT attends over its stored entries as
//! an edge list (`gather_rows` → `segment_softmax` → `segment_sums`). Both
//! are byte-identical to the dense formulations (ARCHITECTURE.md "CSR
//! adjacency").
//!
//! ## Static vs. dynamic adjacency
//!
//! At the input level the graph is fixed, so its propagation structure is
//! a precomputed constant ([`AdjacencyRef::Fixed`]). After a HAP coarsening
//! step the adjacency `A' = MᵀAM` is itself a differentiable tape value
//! ([`AdjacencyRef::Dynamic`]); layers then normalise degrees *on the
//! tape* (via `pow_const`) so gradients flow through the coarsened
//! structure, matching what DiffPool-style implementations do.

mod batch;
mod encoder;
mod gat;
mod gcn;

pub use batch::BatchGraph;
pub use encoder::{EncoderKind, GnnEncoder};
pub use gat::GatLayer;
pub use gcn::GcnLayer;

use hap_autograd::{Tape, Var};
use hap_graph::{Graph, GraphScalar};

/// How a GNN layer should see the graph structure.
///
/// The enum itself is dtype-agnostic: a `Fixed` graph serves its cached
/// CSR `Â` in whichever element type the calling tape requires (`f64`
/// canonical or its cached `f32` cast, via [`GraphScalar`]).
#[derive(Clone, Copy)]
pub enum AdjacencyRef<'a> {
    /// A fixed input graph: layers propagate over its cached CSR `Â`,
    /// which enters the tape as constant structure.
    Fixed(&'a Graph),
    /// A coarsened graph whose (dense, non-negative) adjacency lives on the
    /// tape; normalisation happens differentiably.
    Dynamic(Var),
}

impl AdjacencyRef<'_> {
    /// Number of nodes of the underlying graph.
    pub fn n<T: GraphScalar>(&self, tape: &Tape<T>) -> usize {
        match self {
            AdjacencyRef::Fixed(g) => g.n(),
            AdjacencyRef::Dynamic(a) => tape.shape(*a).0,
        }
    }

    /// The adjacency as a dense tape value: a `Dynamic` one as it is, a
    /// `Fixed` graph's raw `A` exported densely (O(n²)) onto the tape as a
    /// constant. For the dense pooling baselines; HAP's own coarsening
    /// multiplies a `Fixed` graph by its raw-`A` CSR instead.
    pub fn dense<T: GraphScalar>(self, tape: &mut Tape<T>) -> Var {
        match self {
            AdjacencyRef::Fixed(g) => tape.constant(T::adjacency_of(g)),
            AdjacencyRef::Dynamic(a) => a,
        }
    }
}
