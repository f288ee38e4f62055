//! # hap-pooling
//!
//! The twelve baseline graph-pooling methods the HAP paper compares
//! against (Table 3), re-implemented from their defining equations behind
//! two small traits so they can also be swapped into the HAP framework for
//! the Table 5 ablation:
//!
//! * [`Readout`] — *flat* pooling: `N×F` node features → `1×F_G` graph
//!   embedding. Implementations: [`SumReadout`], [`MeanReadout`],
//!   [`MaxReadout`], [`MeanAttReadout`] (SimGNN-style content attention),
//!   [`Set2SetReadout`], [`SortPoolReadout`], [`AttPoolReadout`]
//!   (global/local), [`GcnConcatReadout`].
//! * [`CoarsenModule`] — *hierarchical* pooling: `(A, H)` with `N` nodes →
//!   `(A', H')` with `N' < N` nodes, all on the tape so gradients flow.
//!   Implementations: [`GPool`], [`SagPool`] (Top-K selectors),
//!   [`DiffPool`], [`Asap`], [`StructPool`] (group/CRF methods), plus
//!   HAP's own coarsening module in `hap-core`.
//!
//! Where a published method depends on machinery we deliberately do not
//! rebuild (Set2Set's LSTM, ASAP's LEConv, StructPool's full CRF
//! inference), the implementation makes the documented simplification and
//! keeps the method's *defining mechanism* (iterative attention readout,
//! ego-network cluster scoring, mean-field refinement respectively); see
//! each type's docs and DESIGN.md.

mod asap;
mod classifier;
mod diffpool;
mod flat;
mod structpool;
mod topk;

pub use asap::Asap;
pub use classifier::{BaselineKind, PoolingClassifier};
pub use diffpool::DiffPool;
pub use flat::{
    AttPoolReadout, GcnConcatReadout, MaxReadout, MeanAttReadout, MeanReadout, Set2SetReadout,
    SortPoolReadout, SumReadout,
};
pub use structpool::StructPool;
pub use topk::{GPool, SagPool};

use hap_autograd::{Tape, Var};
use hap_gnn::AdjacencyRef;
use hap_graph::GraphScalar;
use hap_rand::Rng;
use hap_tensor::Scalar;

/// Shared context for pooling passes: training mode (affects stochastic
/// relaxations such as Gumbel noise) and a random source.
pub struct PoolCtx<'r> {
    /// Whether the pass is a training pass.
    pub training: bool,
    /// Random source for stochastic pooling components.
    pub rng: &'r mut Rng,
}

/// Flat graph readout: collapses node features into one graph-level row
/// vector. Generic over the tape element type (default `f64`).
pub trait Readout<T: Scalar = f64> {
    /// `h` is `N×F` (already encoded node features); `adj` is the raw
    /// adjacency on the tape, for readouts that use structure (AttPool's
    /// local degree weighting). Returns a `1×out_dim(F)` embedding.
    fn forward(&self, tape: &mut Tape<T>, adj: Var, h: Var, ctx: &mut PoolCtx<'_>) -> Var;

    /// Output width as a function of the input feature width.
    fn out_dim(&self, in_dim: usize) -> usize {
        in_dim
    }

    /// Method name for experiment tables.
    fn name(&self) -> &'static str;
}

/// One hierarchical coarsening step `(A, H) → (A', H')`. Generic over the
/// tape element type (default `f64`).
pub trait CoarsenModule<T: GraphScalar = f64> {
    /// Coarsens the graph. `adj` is the input graph itself at level 0
    /// ([`AdjacencyRef::Fixed`]) and the previous level's tape value after
    /// it ([`AdjacencyRef::Dynamic`]); `h` and the returned pair live on
    /// `tape`, so modules can be chained and gradients flow end-to-end.
    /// The dense baselines take a `Fixed` graph's adjacency densely
    /// ([`AdjacencyRef::dense`]).
    fn forward(
        &self,
        tape: &mut Tape<T>,
        adj: AdjacencyRef<'_>,
        h: Var,
        ctx: &mut PoolCtx<'_>,
    ) -> (Var, Var);

    /// Coarsens the graph and returns only `H'`, for the last level of a
    /// hierarchy, where nothing reads `A'`. Its value is bitwise
    /// `forward(..).1`, and it leaves `ctx.rng` where `forward` would. The
    /// default is `forward(..).1`; a module overrides it to skip building
    /// `A'`.
    fn forward_features(
        &self,
        tape: &mut Tape<T>,
        adj: AdjacencyRef<'_>,
        h: Var,
        ctx: &mut PoolCtx<'_>,
    ) -> Var {
        self.forward(tape, adj, h, ctx).1
    }

    /// Method name for experiment tables.
    fn name(&self) -> &'static str;
}

/// Resolves a ratio-based cluster budget: `ceil(ratio · n)`, at least 1,
/// at most `n`.
pub(crate) fn ratio_to_k(n: usize, ratio: f64) -> usize {
    ((n as f64 * ratio).ceil() as usize).clamp(1, n.max(1))
}

#[cfg(test)]
mod tests {
    use super::ratio_to_k;

    #[test]
    fn ratio_budgets() {
        assert_eq!(ratio_to_k(10, 0.5), 5);
        assert_eq!(ratio_to_k(10, 0.05), 1);
        assert_eq!(ratio_to_k(3, 0.34), 2);
        assert_eq!(ratio_to_k(1, 0.9), 1);
        assert_eq!(ratio_to_k(4, 2.0), 4, "ratio > 1 clamps to n");
    }
}
