//! # hap-train
//!
//! The training harness shared by every experiment: seeded runs,
//! per-graph gradient accumulation (graphs have variable `N`, so
//! "batching" means accumulating gradients over a mini-batch of
//! separately embedded graphs before one Adam step — the standard PyG
//! pattern), gradient clipping, best-validation checkpointing and early
//! stopping.
//!
//! Every parameter update goes through one [`Stepper`]: [`train`] gives
//! each sample its own tape and backward, [`train_batched`] embeds a
//! whole mini-batch on one tape with one backward, and the two differ
//! only in the group size passed to [`Stepper::step`].
//!
//! The harness is model-agnostic: tasks supply a `loss_fn` (build a tape,
//! return the scalar loss) and an `eval_fn` (0/1 correctness per sample),
//! so HAP, every Table 3 baseline, GMN, SimGNN and the Table 5 ablations
//! all train through the same code path.

mod metrics;
mod snapshot;
mod trainer;

pub use metrics::accuracy;
pub use snapshot::export_snapshot;
pub use trainer::{
    train, train_batched, BatchLossFn, EvalFn, LossFn, Stepper, TrainConfig, TrainReport,
};
