//! The iFuice script language.
//!
//! MOMA match workflows are written "within script programs" executed on
//! the iFuice platform (paper Section 4). The language is small:
//! variables (`$Result`), calls (`merge(...)`, `compose(...)`,
//! `attrMatch(...)`, `nhMatch(...)`, `select(...)`), qualified source /
//! mapping references (`DBLP.CoAuthor`), `PROCEDURE name($a, $b) … END`
//! definitions and `RETURN`.
//!
//! The interpreter parses a matcher call and lowers it to the core's
//! constructors (`attrMatch` to [`moma_core::matchers::AttributeMatcher`],
//! its measure a [`moma_core::matchers::MatcherSim`] name); the matcher
//! picks its own blocking and refuses a threshold outside `[0, 1]`.
//!
//! ```
//! # use moma_model::{SourceRegistry, LogicalSource, ObjectType, AttrDef};
//! # use moma_core::MappingRepository;
//! # use moma_ifuice::script::run_script;
//! # let mut reg = SourceRegistry::new();
//! # let mut lds = LogicalSource::new("DBLP", ObjectType::new("Author"),
//! #     vec![AttrDef::text("name")]);
//! # lds.insert_record("a0", vec![("name", "Erhard Rahm".into())]).unwrap();
//! # lds.insert_record("a1", vec![("name", "Erhard Rahms".into())]).unwrap();
//! # reg.register(lds).unwrap();
//! # let repo = MappingRepository::new();
//! let value = run_script(
//!     r#"
//!     $NameSim = attrMatch(DBLP.Author, DBLP.Author, Trigram, 0.5, "[name]", "[name]");
//!     $Result  = select($NameSim, "[domain.id]<>[range.id]");
//!     RETURN $Result;
//!     "#,
//!     &reg,
//!     &repo,
//! ).unwrap();
//! assert_eq!(value.as_mapping().unwrap().len(), 2); // (a0,a1) and (a1,a0)
//! ```

pub mod ast;
pub mod interp;
pub mod lexer;
pub mod parser;

use moma_core::exec::Parallelism;
use moma_core::MappingRepository;
use moma_model::SourceRegistry;

pub use interp::{Interpreter, ScriptError, Value};

/// Parse and run a script against a registry and repository; returns the
/// `RETURN` value (or the value of the last statement). Matchers
/// execute with [`Parallelism::auto`]; use [`run_script_with`] to
/// configure parallelism programmatically.
pub fn run_script(
    source: &str,
    registry: &SourceRegistry,
    repository: &MappingRepository,
) -> Result<Value, ScriptError> {
    run_script_with(source, registry, repository, Parallelism::auto())
}

/// [`run_script`] with an explicit [`Parallelism`] for the script's
/// matchers, joins and composes. Results are identical at every thread
/// count.
pub fn run_script_with(
    source: &str,
    registry: &SourceRegistry,
    repository: &MappingRepository,
    parallelism: Parallelism,
) -> Result<Value, ScriptError> {
    let script = parser::parse(source)?;
    let mut interp = Interpreter::new(registry, repository).with_parallelism(parallelism);
    interp.run(&script)
}
