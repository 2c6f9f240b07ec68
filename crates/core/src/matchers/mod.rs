//! The extensible matcher library (paper Section 2.2).
//!
//! "There is an extensible library of matcher algorithms that can be used
//! for a specific match task. Matchers conform to the same interfaces as
//! a match process, in particular they generate a same-mapping."

pub mod attribute;
pub(crate) mod kernel;
pub mod multi_attribute;
pub mod neighborhood;

use moma_model::{LdsId, SourceRegistry};

use crate::error::Result;
use crate::exec::Parallelism;
use crate::mapping::Mapping;
use crate::repository::MappingRepository;

pub use attribute::{AttributeMatcher, MatcherSim};
pub use multi_attribute::{AttrPair, MultiAttributeMatcher};
pub use neighborhood::{nh_match, nh_match_threshold, NeighborhoodMatcher};

/// Context a matcher executes in: the source registry (instance data),
/// optionally the mapping repository (existing mappings to reuse), and
/// the parallel-execution configuration.
pub struct MatchContext<'a> {
    /// Instance data of all logical sources.
    pub registry: &'a SourceRegistry,
    /// Existing mappings available for reuse.
    pub repository: Option<&'a MappingRepository>,
    /// Parallel execution of matcher probing and index construction.
    /// Defaults to [`Parallelism::from_env`] (`MOMA_THREADS` or one
    /// thread per CPU); results are identical at every thread count.
    pub parallelism: Parallelism,
}

impl<'a> MatchContext<'a> {
    /// Context without a repository.
    pub fn new(registry: &'a SourceRegistry) -> Self {
        Self {
            registry,
            repository: None,
            parallelism: Parallelism::from_env(),
        }
    }

    /// Context with a repository.
    pub fn with_repository(registry: &'a SourceRegistry, repo: &'a MappingRepository) -> Self {
        Self {
            registry,
            repository: Some(repo),
            parallelism: Parallelism::from_env(),
        }
    }

    /// Override the parallel-execution configuration (builder style).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// A matcher: executes against two logical sources and produces a
/// same-mapping.
pub trait Matcher: Send + Sync {
    /// Matcher name (for traces).
    fn name(&self) -> String;

    /// Run the matcher for `domain` × `range`.
    fn execute(&self, ctx: &MatchContext<'_>, domain: LdsId, range: LdsId) -> Result<Mapping>;
}
