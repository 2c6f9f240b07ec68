//! # moma-eval — reproduction harness for the MOMA evaluation
//!
//! One [`Artifact`] row per table and figure of the paper (Thor & Rahm,
//! CIDR 2007, Section 5): its `run` takes an [`EvalContext`] (a
//! generated scenario plus cached intermediate mappings) and returns a
//! [`Report`] with the rows the paper reports, its `paper` holds the
//! paper's numbers and its `claims` the paper's conclusions.
//! `EXPERIMENTS.md` at the repository root is the output of `repro all`.
//!
//! Run everything via this crate's `repro` binary (exit status 1 when a
//! claim fails):
//!
//! ```text
//! cargo run --release -p moma-eval --bin repro -- all
//! cargo run --release -p moma-eval --bin repro -- table4
//! cargo run --release -p moma-eval --bin repro -- fig6
//! ```

pub mod artifact;
pub mod experiments;
pub mod figures;
pub mod metrics;
pub mod report;
pub mod setup;

pub use artifact::{Artifact, Claim, Group, ARTIFACTS};
pub use metrics::MatchQuality;
pub use report::Report;
pub use setup::EvalContext;
