//! The extensible matcher library (paper Section 2.2).
//!
//! "There is an extensible library of matcher algorithms that can be used
//! for a specific match task. Matchers conform to the same interfaces as
//! a match process, in particular they generate a same-mapping."
//!
//! Front ends (the wire `match`, the script's `attrMatch` /
//! `multiAttrMatch`, the eval harness) only parse a matcher — attribute
//! pair, [`MatcherSim`] by name, threshold — and lower it to these
//! constructors. The core alone picks the plan: a matcher's default
//! [`Blocking`](crate::blocking::Blocking) is the rule over its measure,
//! and a threshold outside `[0, 1]` is refused when the matcher runs.

pub mod attribute;
pub(crate) mod kernel;
pub mod multi_attribute;
pub mod neighborhood;

use moma_model::{LdsId, SourceRegistry};

use crate::error::{CoreError, Result};
use crate::exec::Parallelism;
use crate::mapping::Mapping;
use crate::repository::MappingRepository;

pub use attribute::{AttributeMatcher, MatcherSim};
pub use multi_attribute::{AttrPair, MultiAttributeMatcher};
pub use neighborhood::nh_match;

/// Context a matcher executes in: the source registry (instance data),
/// optionally the mapping repository (existing mappings to reuse), and
/// the parallel-execution configuration.
pub struct MatchContext<'a> {
    /// Instance data of all logical sources.
    pub registry: &'a SourceRegistry,
    /// Existing mappings available for reuse.
    pub repository: Option<&'a MappingRepository>,
    /// Parallel execution of matcher probing and index construction.
    /// Defaults to [`Parallelism::auto`] (one thread per CPU); results
    /// are identical at every thread count.
    pub parallelism: Parallelism,
}

impl<'a> MatchContext<'a> {
    /// Context without a repository.
    pub fn new(registry: &'a SourceRegistry) -> Self {
        Self {
            registry,
            repository: None,
            parallelism: Parallelism::auto(),
        }
    }

    /// Context with a repository.
    pub fn with_repository(registry: &'a SourceRegistry, repo: &'a MappingRepository) -> Self {
        Self {
            registry,
            repository: Some(repo),
            parallelism: Parallelism::auto(),
        }
    }

    /// Override the parallel-execution configuration (builder style).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// A result threshold is a similarity: outside `[0, 1]` (NaN included)
/// it would keep every pair or none, so a matcher refuses it.
pub(crate) fn check_threshold(threshold: f64) -> Result<()> {
    if (0.0..=1.0).contains(&threshold) {
        return Ok(());
    }
    Err(CoreError::InvalidConfig(format!(
        "threshold {threshold} must be in [0, 1]"
    )))
}

/// A matcher: executes against two logical sources and produces a
/// same-mapping.
pub trait Matcher: Send + Sync {
    /// Matcher name (for traces).
    fn name(&self) -> String;

    /// Run the matcher for `domain` × `range`.
    fn execute(&self, ctx: &MatchContext<'_>, domain: LdsId, range: LdsId) -> Result<Mapping>;
}
