//! # hap-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (Sec. 6), plus the in-repo [`harness`] micro-benchmarks
//! (`cargo run --release -p hap-bench --bin microbench`) for the Sec. 5
//! complexity claims. See DESIGN.md's experiment index for the mapping.
//!
//! Binaries accept `--quick` (default; minutes on one core) and `--full`
//! (larger corpora, closer to paper scale), plus `--seed <u64>`.
//! All results print as ASCII tables mirroring the paper's rows; the
//! measured numbers are recorded in EXPERIMENTS.md.

pub mod check;
mod cli;
pub mod harness;
mod runners;
mod table;

pub use cli::{parse_args, parse_microbench_args, MicrobenchArgs, RunScale};
pub use runners::{
    classification_accuracy, hap_ablation_classifier, matching_accuracy_gmn,
    matching_accuracy_gmn_hap, matching_accuracy_hap, similarity_accuracy_ged,
    similarity_accuracy_gmn, similarity_accuracy_hap_ablation, similarity_accuracy_simgnn,
    train_config, train_hap_matcher, ClassifierChoice, GedAlg, MatchEval, TrainedMatcher,
};
pub use table::TablePrinter;
