//! # moma-ifuice — a miniature iFuice data-integration platform
//!
//! MOMA "has been implemented within the iFuice data integration
//! platform" (paper Section 4): iFuice contributes operators for querying
//! data sources and traversing mappings, plus a *script* facility in
//! which match workflows are written.
//!
//! This crate rebuilds those capabilities:
//!
//! * [`source`] — the [`source::DataSource`] keyword-query access layer,
//! * [`ops`] — the traverse operator,
//! * [`script`] — the iFuice script language: lexer, parser and
//!   interpreter able to run the paper's own listings, e.g. the
//!   Section 4.3 duplicate-author workflow:
//!
//! ```text
//! $CoAuthSim = nhMatch(DBLP.CoAuthor, DBLP.AuthorAuthor, DBLP.CoAuthor);
//! $NameSim   = attrMatch(DBLP.Author, DBLP.Author, Trigram, 0.5, "[name]", "[name]");
//! $Merged    = merge($CoAuthSim, $NameSim, Average);
//! $Result    = select($Merged, "[domain.id]<>[range.id]");
//! RETURN $Result;
//! ```

pub mod loader;
pub mod ops;
pub mod script;
pub mod source;

pub use script::interp::{Interpreter, Value};
pub use script::{run_script, run_script_with};
pub use source::{DataSource, InMemorySource};
