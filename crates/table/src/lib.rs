//! # moma-table — relational mapping-table engine
//!
//! MOMA represents every instance mapping "by a mapping table with three
//! columns. Each row represents a correspondence consisting of the ids of
//! the domain and range objects and the corresponding similarity value"
//! (paper Definition 1). The paper further notes that mapping composition
//! "can be computed very efficiently in our implementation by joining the
//! mapping tables" (Section 5.3).
//!
//! This crate is that storage and join engine:
//!
//! * [`MappingTable`] — a dense vector of [`Correspondence`] rows
//!   (`u32` domain index, `u32` range index, `f64` similarity) kept in
//!   canonical order: `(domain, range)`-sorted and pair-unique,
//! * [`agg`] — grouping over that order and by dense instance id:
//!   [`agg::cogroup`], the co-scan under merge and the set operations,
//!   [`agg::IdGroups`], the counting sort by one id column, and
//!   [`agg::PathStats`], the per-pair fold of the compose operator,
//! * [`Adjacency`] — a CSR index over the domain column: the neighbor
//!   lookup the join probes,
//! * [`join`] — the index join and the nested-loop reference it is
//!   tested against,
//! * [`exec`] — the deterministic sharded-execution layer
//!   ([`Parallelism`]) behind the parallel matchers,
//! * [`gram_index`] — the one incrementally maintainable inverted gram
//!   index (size-bucketed postings, tombstoned removal + amortized
//!   compaction) under all three probes of `moma-core`'s blocking:
//!   CPMerge-style count-filtered merging for threshold-exact plans,
//!   the rarest-grams union for the prefix filter and the size-bounded
//!   union of a TF-IDF query's heaviest tokens,
//! * [`names`] — the spec-name helpers behind every `NAMES` table of
//!   accepted spellings (operator functions, blocking plans, measures),
//! * [`postings`] — the blocked key list the index stores per gram, and
//!   the galloping lower bound the count-filtered probe searches it with,
//! * [`tsv`] — the field escaping of the repository's plain-text files,
//! * [`hash`] — a fast FxHash-style hasher used for all internal maps
//!   (the operators and the join group by dense id and hash nothing).
//!
//! Object ids are *local instance indexes* of the owning logical data
//! source (see `moma-model`); a row is therefore 16 bytes and tables with
//! millions of correspondences stay cache-friendly.

pub mod agg;
pub mod exec;
pub mod gram_index;
pub mod hash;
pub mod index;
pub mod join;
pub mod mapping_table;
pub mod names;
pub mod postings;
pub mod stats;
pub mod tsv;

pub use exec::Parallelism;
pub use gram_index::{GramIndex, ProbeScratch};
pub use hash::{FxHashMap, FxHashSet};
pub use index::Adjacency;
pub use mapping_table::{Correspondence, MappingTable};
pub use postings::BlockList;
pub use stats::TableStats;
