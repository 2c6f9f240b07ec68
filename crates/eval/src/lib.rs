//! # moma-eval — reproduction harness for the MOMA evaluation
//!
//! One module per table and figure of the paper (Thor & Rahm, CIDR 2007,
//! Section 5). Each experiment takes an [`EvalContext`] (a generated
//! scenario plus cached intermediate mappings) and returns a [`Report`]
//! that prints the same rows the paper reports; EXPERIMENTS.md records
//! paper-vs-measured values.
//!
//! Run everything via this crate's `repro` binary:
//!
//! ```text
//! cargo run --release -p moma-eval --bin repro -- all
//! cargo run --release -p moma-eval --bin repro -- table4
//! cargo run --release -p moma-eval --bin repro -- fig6
//! ```

pub mod experiments;
pub mod figures;
pub mod metrics;
pub mod report;
pub mod setup;

pub use metrics::MatchQuality;
pub use report::Report;
pub use setup::EvalContext;
