//! Parallel execution configuration for matchers.
//!
//! This module re-exports the deterministic sharded-execution layer from
//! [`moma_table::exec`] and is the canonical place the rest of the
//! matching stack imports it from. A [`Parallelism`] value travels inside
//! every [`MatchContext`](crate::MatchContext):
//!
//! * **Attribute / multi-attribute matchers** shard their domain values
//!   across threads; every shard probes the shared read-only
//!   [`CandidateIndex`](crate::blocking::CandidateIndex) and scores its
//!   candidates independently, and the per-shard correspondence lists are
//!   concatenated in shard order.
//! * **Column preparation** tokenizes a column in shards, each with a
//!   gram dictionary of its own that the match's dictionary absorbs in
//!   shard order.
//! * **Index construction** (a `CandidateIndex`,
//!   [`TrigramIndex::build_par`](crate::blocking::TrigramIndex::build_par))
//!   builds per-shard postings merged in shard order.
//!
//! All are bit-identical to their sequential counterparts — the
//! shards are contiguous input ranges and the merge order is fixed — so
//! determinism guarantees (and their tests) hold at every thread count.
//!
//! The mapping operators ([`crate::ops`], [`crate::cluster`]) are
//! sequential run scans over sorted tables and take no [`Parallelism`]:
//! sharding the compose loop measured 0.92–1.00× at two threads
//! (`exec.par_speedup` on the benchmark's `workflow_ops` workload).
//! [`compose_with`](crate::ops::compose::compose_with) is an alias of
//! `compose` kept for the frozen benchmark.
//!
//! The default for a fresh context is [`Parallelism::auto`], one thread
//! per available CPU; a deployment caps it through its own
//! configuration (`moma run` / `moma serve --threads`), and tests pin
//! explicit counts.
//!
//! ```
//! use moma_core::exec::Parallelism;
//!
//! let seq = Parallelism::sequential();
//! assert!(!seq.is_parallel());
//! let four = Parallelism::new(4);
//! assert_eq!(four.threads, 4);
//! ```

pub use moma_table::exec::{Parallelism, DEFAULT_MIN_SHARD};
