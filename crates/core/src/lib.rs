//! # moma-core — the MOMA mapping-based object-matching framework
//!
//! This crate is the paper's primary contribution (Thor & Rahm, *MOMA — A
//! Mapping-based Object Matching System*, CIDR 2007): a domain-independent
//! framework in which object matching is performed by *workflows* that
//! execute matchers and combine **instance mappings**.
//!
//! ## Concepts
//!
//! * [`Mapping`] — a set of correspondences `(a, b, s)` between two
//!   logical data sources, tagged as a **same-mapping** (semantic
//!   equality) or an **association mapping** (e.g. publication→author).
//! * [`ops::merge`](ops::merge()) — n-ary merge of mappings between the same sources
//!   with combination functions Avg / Min / Max / Weighted / PreferMap
//!   and configurable treatment of missing correspondences (Section 3.1).
//! * [`ops::compose`](ops::compose()) — composition `LDS_A → LDS_C → LDS_B` with per-path
//!   function `f` and path-aggregation `g` including the Relative family
//!   that rewards pairs reached via multiple compose paths (Section 3.2).
//! * [`ops::select`](ops::select()) — Threshold, Best-n, Best-1+Delta and constraint
//!   based selection of correspondences (Section 3.3).
//! * [`matchers`] — the extensible matcher library: the generic
//!   [`matchers::AttributeMatcher`], the
//!   [`matchers::MultiAttributeMatcher`], and the
//!   [`matchers::neighborhood::nh_match`] neighborhood matcher built from
//!   two composes (Section 4.2).
//! * [`repository`] — the mapping repository that makes results reusable
//!   across match tasks. A match workflow (Section 2.2, Figure 3) is an
//!   iFuice script (`moma-ifuice`) or a sequence of direct calls of the
//!   items above.
//! * [`cluster`] — duplicate clusters from self-mappings (Section 4.3).
//! * [`exec`] — deterministic parallel execution: a [`Parallelism`]
//!   config threaded through [`MatchContext`] shards matcher probing
//!   and index construction across threads with bit-identical results at every thread count (the mapping operators
//!   are sequential).
//! * [`delta`] — incremental matching for evolving sources: a
//!   [`DeltaMatchState`] patches a materialized mapping under source
//!   deltas in time proportional to the delta, bit-identical to a full
//!   re-match, and repository version stamps propagate the patch to
//!   derived compose/set-op results.
//!
//! ## Quick start
//!
//! ```
//! use moma_model::{AttrDef, LogicalSource, ObjectType, SourceRegistry};
//! use moma_core::matchers::{AttributeMatcher, MatchContext, Matcher};
//! use moma_core::ops::{select, Selection};
//! use moma_simstring::SimFn;
//!
//! let mut reg = SourceRegistry::new();
//! let mut dblp = LogicalSource::new("DBLP", ObjectType::new("Publication"),
//!     vec![AttrDef::text("title")]);
//! dblp.insert_record("d1", vec![("title", "Generic Schema Matching with Cupid".into())]).unwrap();
//! let mut acm = LogicalSource::new("ACM", ObjectType::new("Publication"),
//!     vec![AttrDef::text("title")]);
//! acm.insert_record("a1", vec![("title", "Generic schema matching with CUPID".into())]).unwrap();
//! let d = reg.register(dblp).unwrap();
//! let a = reg.register(acm).unwrap();
//!
//! let matcher = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.8);
//! let ctx = MatchContext::new(&reg);
//! let mapping = matcher.execute(&ctx, d, a).unwrap();
//! let mapping = select::select(&mapping, &Selection::Threshold(0.8));
//! assert_eq!(mapping.len(), 1);
//! ```

pub mod blocking;
pub mod cluster;
pub mod delta;
pub mod error;
pub mod exec;
pub mod mapping;
pub mod matchers;
pub mod ops;
pub mod repository;

pub use delta::DeltaMatchState;
pub use error::{CoreError, Result};
pub use exec::Parallelism;
pub use mapping::{Mapping, MappingKind};
pub use matchers::{MatchContext, Matcher};
pub use repository::{MappingRepository, Recipe, SnapshotEntry};
