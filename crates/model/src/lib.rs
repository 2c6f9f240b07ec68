//! # moma-model — object & source data model for MOMA
//!
//! This crate implements the data model underlying the MOMA object-matching
//! framework (Thor & Rahm, CIDR 2007, Section 2.1). The paper's
//! source-mapping model (SMM, Figure 2) is not a separate structure here;
//! each of its concepts lives once:
//!
//! * **Physical data source** (PDS) — e.g. `DBLP`, `ACM`, `GS`: the
//!   [`LogicalSource::pds`] name of the sources it hosts.
//! * **Logical data source** (LDS) — a set of object instances of one
//!   semantic [`ObjectType`] hosted by one PDS, e.g. `Publication@DBLP`: a
//!   [`LogicalSource`], registered in a [`SourceRegistry`].
//! * **Object instances** — identified by an id value, carrying optional
//!   attribute values described by a per-LDS schema.
//! * **Mapping type** — same-mapping or a named association: the
//!   `MappingKind` of a mapping in `moma-core`'s repository.
//!
//! Figure 2 itself is drawn by `moma-eval`'s `figures/architecture.rs`.
//!
//! The model is deliberately schema-light: web objects may have only a few,
//! partially missing attributes. Attribute values are dynamically typed
//! ([`AttrValue`]) and stored columnar-aligned to the LDS schema so that
//! matchers can project an attribute across all instances cheaply.

pub mod attr;
pub mod delta;
pub mod error;
pub mod instance;
pub mod lds;
pub mod registry;

pub use attr::{AttrDef, AttrKind, AttrValue};
pub use delta::{AppliedDelta, DeltaOp, SourceDelta};
pub use error::{ModelError, Result};
pub use instance::ObjectInstance;
pub use lds::{LdsId, LogicalSource, ObjectType};
pub use registry::SourceRegistry;
