//! Match workflows (paper Section 2.2, Figure 3).
//!
//! "The MOMA match process is a workflow consisting of a sequence of
//! steps. Each such step generates a same-mapping that can be refined by
//! additional steps. … Each workflow step consists of two parts: matcher
//! execution and mapping combination. The execution of selected matchers
//! is actually optional, i.e., a step may only combine existing or
//! previously computed mappings."

use std::sync::Arc;

use moma_model::LdsId;

use crate::error::{CoreError, Result};
use crate::mapping::Mapping;
use crate::matchers::{MatchContext, Matcher};
use crate::ops::compose::{compose, PathAgg, PathCombine};
use crate::ops::merge::{merge, MergeFn, MissingPolicy};
use crate::ops::select::{select, Selection};
use crate::repository::MappingCache;

/// One input of a workflow step.
#[derive(Clone)]
pub enum StepInput {
    /// Execute a matcher on the workflow's (domain, range) sources.
    Matcher(Arc<dyn Matcher>),
    /// Use a mapping from the cache (first) or repository (fallback).
    Existing(String),
    /// The result of the previous step.
    Previous,
}

impl std::fmt::Debug for StepInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepInput::Matcher(m) => write!(f, "Matcher({})", m.name()),
            StepInput::Existing(n) => write!(f, "Existing({n})"),
            StepInput::Previous => write!(f, "Previous"),
        }
    }
}

/// The mapping operator of a combiner.
#[derive(Debug, Clone)]
pub enum CombineOp {
    /// Merge all step inputs.
    Merge {
        /// Combination function.
        f: MergeFn,
        /// Missing-correspondence policy.
        missing: MissingPolicy,
    },
    /// Compose the step inputs left-to-right (fold).
    Compose {
        /// Per-path combination function.
        f: PathCombine,
        /// Path aggregation function.
        g: PathAgg,
    },
}

/// A mapping combiner: operator followed by optional selections
/// (paper: "a combiner is specified by a mapping operator followed by an
/// optional selection").
#[derive(Debug, Clone)]
pub struct Combiner {
    /// The operator.
    pub op: CombineOp,
    /// Selections applied in order to the operator result.
    pub selections: Vec<Selection>,
}

impl Combiner {
    /// Merge with Avg over available values and no selection.
    pub fn merge_avg() -> Self {
        Self {
            op: CombineOp::Merge {
                f: MergeFn::Avg,
                missing: MissingPolicy::Ignore,
            },
            selections: vec![],
        }
    }

    /// Add a selection (builder style).
    pub fn with_selection(mut self, sel: Selection) -> Self {
        self.selections.push(sel);
        self
    }
}

/// One step: gather inputs, combine, select, optionally publish to the
/// cache under a name.
#[derive(Debug, Clone)]
pub struct WorkflowStep {
    /// Step inputs (matchers / existing mappings / previous result).
    pub inputs: Vec<StepInput>,
    /// The combiner.
    pub combiner: Combiner,
    /// Cache name to publish the step result under.
    pub publish: Option<String>,
}

/// A match workflow for one (domain, range) source pair.
#[derive(Debug, Clone)]
pub struct Workflow {
    /// Workflow name (for the matcher library).
    pub name: String,
    /// Display name of the domain LDS, e.g. `Publication@DBLP`.
    pub domain: String,
    /// Display name of the range LDS.
    pub range: String,
    /// The steps, applied in order.
    pub steps: Vec<WorkflowStep>,
}

impl Workflow {
    /// Empty workflow.
    pub fn new(
        name: impl Into<String>,
        domain: impl Into<String>,
        range: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            domain: domain.into(),
            range: range.into(),
            steps: vec![],
        }
    }

    /// Append a step (builder style).
    pub fn step(mut self, step: WorkflowStep) -> Self {
        self.steps.push(step);
        self
    }

    /// Run the workflow. Intermediate results live in `cache`; the final
    /// same-mapping is returned (and also published if the last step
    /// names a target).
    ///
    /// The matcher inputs of one step are independent of each other, so
    /// when the context's [`Parallelism`](crate::exec::Parallelism)
    /// allows it they execute concurrently (each may additionally shard
    /// its own scoring). Results are gathered back in declaration order
    /// — and on failure the first error in declaration order is reported
    /// — so the returned mapping (or error) is identical to sequential
    /// execution. One caveat: under fan-out the later matchers of a
    /// failing step still run to completion before the error is
    /// reported; only `threads == 1` short-circuits them entirely.
    pub fn run(&self, ctx: &MatchContext<'_>, cache: &MappingCache) -> Result<Mapping> {
        if self.steps.is_empty() {
            return Err(CoreError::InvalidConfig(format!(
                "workflow `{}` has no steps",
                self.name
            )));
        }
        let domain = ctx.registry.resolve(&self.domain)?;
        let range = ctx.registry.resolve(&self.range)?;
        let mut previous: Option<Mapping> = None;
        for (i, step) in self.steps.iter().enumerate() {
            // Execute the matcher inputs of this step concurrently when
            // there are several and the context allows it. The fan-out
            // workers split the context's thread budget between them
            // (each matcher shards its own scoring with the remainder),
            // so the configured cap bounds total workers, not workers
            // per level. With one matcher or one thread, matchers run
            // lazily inside the input loop below — preserving the
            // sequential semantics that an earlier failing input stops
            // later matchers from executing at all.
            let matchers: Vec<&Arc<dyn Matcher>> = step
                .inputs
                .iter()
                .filter_map(|input| match input {
                    StepInput::Matcher(m) => Some(m),
                    _ => None,
                })
                .collect();
            let fan_out = ctx.parallelism.threads > 1 && matchers.len() > 1;
            let mut matcher_results = if fan_out {
                let workers = ctx.parallelism.threads.min(matchers.len());
                let inner_ctx = MatchContext {
                    registry: ctx.registry,
                    repository: ctx.repository,
                    parallelism: crate::exec::Parallelism {
                        threads: (ctx.parallelism.threads / workers).max(1),
                        ..ctx.parallelism
                    },
                };
                Some(
                    ctx.parallelism
                        .run_tasks(matchers.len(), |t| {
                            matchers[t].execute(&inner_ctx, domain, range)
                        })
                        .into_iter(),
                )
            } else {
                None
            };

            let mut inputs: Vec<Mapping> = Vec::with_capacity(step.inputs.len());
            for input in &step.inputs {
                match input {
                    StepInput::Matcher(m) => inputs.push(match matcher_results.as_mut() {
                        Some(results) => results.next().expect("one result per matcher")?,
                        None => m.execute(ctx, domain, range)?,
                    }),
                    StepInput::Existing(name) => {
                        let found = cache
                            .get(name)
                            .or_else(|| ctx.repository.and_then(|r| r.get(name)))
                            .ok_or_else(|| CoreError::UnknownMapping(name.clone()))?;
                        inputs.push((*found).clone());
                    }
                    StepInput::Previous => {
                        let prev = previous.clone().ok_or_else(|| {
                            CoreError::InvalidConfig(format!(
                                "step {i} of `{}` uses Previous but no prior step exists",
                                self.name
                            ))
                        })?;
                        inputs.push(prev);
                    }
                }
            }
            if inputs.is_empty() {
                return Err(CoreError::EmptyInput(format!("workflow step {i}")));
            }
            let mut result = match &step.combiner.op {
                CombineOp::Merge { f, missing } => {
                    let refs: Vec<&Mapping> = inputs.iter().collect();
                    merge(&refs, f.clone(), *missing)?
                }
                CombineOp::Compose { f, g } => {
                    let mut iter = inputs.iter();
                    let first = iter.next().expect("non-empty inputs");
                    let mut acc = first.clone();
                    for next in iter {
                        acc = compose(&acc, next, *f, *g)?;
                    }
                    acc
                }
            };
            for sel in &step.combiner.selections {
                result = select(&result, sel);
            }
            if let Some(name) = &step.publish {
                cache.store_as(name.clone(), result.clone());
            }
            previous = Some(result);
        }
        let mut final_mapping = previous.expect("at least one step ran");
        final_mapping.name = self.name.clone();
        Ok(final_mapping)
    }
}

/// A workflow wrapped as a [`Matcher`] — "selected workflows can be added
/// to the matcher library for use in other match tasks".
pub struct WorkflowMatcher(pub Workflow);

impl Matcher for WorkflowMatcher {
    fn name(&self) -> String {
        format!("workflow({})", self.0.name)
    }

    fn execute(&self, ctx: &MatchContext<'_>, domain: LdsId, range: LdsId) -> Result<Mapping> {
        // The wrapped workflow declares its own sources; verify they
        // agree with the requested pair.
        let d = ctx.registry.resolve(&self.0.domain)?;
        let r = ctx.registry.resolve(&self.0.range)?;
        if d != domain || r != range {
            return Err(CoreError::Incompatible(format!(
                "workflow `{}` is defined for ({}, {})",
                self.0.name, self.0.domain, self.0.range
            )));
        }
        let cache = MappingCache::new();
        self.0.run(ctx, &cache)
    }
}

/// Named matcher and workflow library (paper Figure 3, "Matcher Library").
#[derive(Default)]
pub struct MatcherLibrary {
    matchers: moma_table::FxHashMap<String, Arc<dyn Matcher>>,
}

impl MatcherLibrary {
    /// Empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a matcher under a name.
    pub fn register(&mut self, name: impl Into<String>, matcher: Arc<dyn Matcher>) {
        self.matchers.insert(name.into(), matcher);
    }

    /// Register a workflow as a matcher.
    pub fn register_workflow(&mut self, workflow: Workflow) {
        let name = workflow.name.clone();
        self.matchers
            .insert(name, Arc::new(WorkflowMatcher(workflow)));
    }

    /// Fetch a matcher.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Matcher>> {
        self.matchers.get(name).cloned()
    }

    /// All names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.matchers.keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of registered matchers.
    pub fn len(&self) -> usize {
        self.matchers.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.matchers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matchers::AttributeMatcher;
    use crate::ops::select::Side;
    use crate::repository::MappingRepository;
    use moma_model::{AttrDef, LogicalSource, ObjectType, SourceRegistry};
    use moma_simstring::SimFn;
    use moma_table::MappingTable;

    fn setup() -> SourceRegistry {
        let mut reg = SourceRegistry::new();
        let mut dblp = LogicalSource::new(
            "DBLP",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title"), AttrDef::year("year")],
        );
        dblp.insert_record(
            "d0",
            vec![
                ("title", "View Selection Problem".into()),
                ("year", 2001u16.into()),
            ],
        )
        .unwrap();
        dblp.insert_record(
            "d1",
            vec![
                ("title", "Schema Matching with Cupid".into()),
                ("year", 2001u16.into()),
            ],
        )
        .unwrap();
        dblp.insert_record(
            "d2",
            vec![("title", "Potter's Wheel".into()), ("year", 2000u16.into())],
        )
        .unwrap();
        let mut acm = LogicalSource::new(
            "ACM",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title"), AttrDef::year("year")],
        );
        acm.insert_record(
            "a0",
            vec![
                ("title", "View Selection Problem".into()),
                ("year", 2001u16.into()),
            ],
        )
        .unwrap();
        acm.insert_record(
            "a1",
            vec![
                ("title", "Schema Matching w. Cupid".into()),
                ("year", 2001u16.into()),
            ],
        )
        .unwrap();
        acm.insert_record(
            "a2",
            vec![
                ("title", "Unrelated Paper".into()),
                ("year", 1999u16.into()),
            ],
        )
        .unwrap();
        reg.register(dblp).unwrap();
        reg.register(acm).unwrap();
        reg
    }

    fn title_matcher() -> Arc<dyn Matcher> {
        Arc::new(AttributeMatcher::new("title", "title", SimFn::Trigram, 0.5))
    }

    fn year_matcher() -> Arc<dyn Matcher> {
        Arc::new(AttributeMatcher::new("year", "year", SimFn::Year(0), 1.0))
    }

    #[test]
    fn single_step_merge_workflow() {
        let reg = setup();
        let ctx = MatchContext::new(&reg);
        let cache = MappingCache::new();
        let wf =
            Workflow::new("PubMatch", "Publication@DBLP", "Publication@ACM").step(WorkflowStep {
                inputs: vec![
                    StepInput::Matcher(title_matcher()),
                    StepInput::Matcher(year_matcher()),
                ],
                combiner: Combiner {
                    op: CombineOp::Merge {
                        f: MergeFn::Avg,
                        missing: MissingPolicy::Ignore,
                    },
                    selections: vec![Selection::Threshold(0.8)],
                },
                publish: Some("step1".into()),
            });
        let r = wf.run(&ctx, &cache).unwrap();
        assert_eq!(r.name, "PubMatch");
        assert!(r.table.sim_of(0, 0).is_some());
        assert!(r.table.sim_of(1, 1).is_some());
        assert!(r.table.sim_of(2, 2).is_none());
        assert!(cache.contains("step1"));
    }

    #[test]
    fn multi_step_refinement_uses_previous() {
        let reg = setup();
        let ctx = MatchContext::new(&reg);
        let cache = MappingCache::new();
        let wf = Workflow::new("Refined", "Publication@DBLP", "Publication@ACM")
            .step(WorkflowStep {
                inputs: vec![StepInput::Matcher(title_matcher())],
                combiner: Combiner::merge_avg(),
                publish: None,
            })
            .step(WorkflowStep {
                inputs: vec![StepInput::Previous, StepInput::Matcher(year_matcher())],
                combiner: Combiner {
                    op: CombineOp::Merge {
                        f: MergeFn::Min,
                        missing: MissingPolicy::Zero,
                    },
                    selections: vec![Selection::BestN {
                        n: 1,
                        side: Side::Domain,
                    }],
                },
                publish: None,
            });
        let r = wf.run(&ctx, &cache).unwrap();
        // Min-0 intersects title and year agreement; best-1 keeps top.
        assert!(r.table.sim_of(0, 0).is_some());
        assert!(r.table.sim_of(2, 2).is_none());
    }

    #[test]
    fn existing_inputs_resolve_cache_then_repo() {
        let reg = setup();
        let repo = MappingRepository::new();
        repo.store(Mapping::same(
            "FromRepo",
            reg.resolve("Publication@DBLP").unwrap(),
            reg.resolve("Publication@ACM").unwrap(),
            MappingTable::from_triples([(2, 2, 1.0)]),
        ));
        let ctx = MatchContext::with_repository(&reg, &repo);
        let cache = MappingCache::new();
        let wf = Workflow::new("UseExisting", "Publication@DBLP", "Publication@ACM").step(
            WorkflowStep {
                inputs: vec![
                    StepInput::Matcher(title_matcher()),
                    StepInput::Existing("FromRepo".into()),
                ],
                combiner: Combiner {
                    op: CombineOp::Merge {
                        f: MergeFn::Max,
                        missing: MissingPolicy::Ignore,
                    },
                    selections: vec![],
                },
                publish: None,
            },
        );
        let r = wf.run(&ctx, &cache).unwrap();
        // The repo mapping contributed the otherwise unmatched pair.
        assert_eq!(r.table.sim_of(2, 2), Some(1.0));
    }

    #[test]
    fn compose_step_folds() {
        let reg = setup();
        let repo = MappingRepository::new();
        let d = reg.resolve("Publication@DBLP").unwrap();
        let a = reg.resolve("Publication@ACM").unwrap();
        // d -> a and a -> a (an ACM self-mapping to fold through).
        repo.store(Mapping::same(
            "DA",
            d,
            a,
            MappingTable::from_triples([(0, 0, 1.0), (1, 1, 0.8)]),
        ));
        repo.store(Mapping::same(
            "AA",
            a,
            a,
            MappingTable::from_triples([(0, 0, 1.0), (1, 1, 1.0)]),
        ));
        let ctx = MatchContext::with_repository(&reg, &repo);
        let cache = MappingCache::new();
        let wf =
            Workflow::new("Composed", "Publication@DBLP", "Publication@ACM").step(WorkflowStep {
                inputs: vec![
                    StepInput::Existing("DA".into()),
                    StepInput::Existing("AA".into()),
                ],
                combiner: Combiner {
                    op: CombineOp::Compose {
                        f: PathCombine::Min,
                        g: PathAgg::Max,
                    },
                    selections: vec![],
                },
                publish: None,
            });
        let r = wf.run(&ctx, &cache).unwrap();
        assert_eq!(r.table.sim_of(0, 0), Some(1.0));
        assert_eq!(r.table.sim_of(1, 1), Some(0.8));
    }

    #[test]
    fn error_cases() {
        let reg = setup();
        let ctx = MatchContext::new(&reg);
        let cache = MappingCache::new();
        // No steps.
        assert!(matches!(
            Workflow::new("Empty", "Publication@DBLP", "Publication@ACM").run(&ctx, &cache),
            Err(CoreError::InvalidConfig(_))
        ));
        // Previous in first step.
        let wf =
            Workflow::new("BadPrev", "Publication@DBLP", "Publication@ACM").step(WorkflowStep {
                inputs: vec![StepInput::Previous],
                combiner: Combiner::merge_avg(),
                publish: None,
            });
        assert!(matches!(
            wf.run(&ctx, &cache),
            Err(CoreError::InvalidConfig(_))
        ));
        // Unknown existing mapping.
        let wf =
            Workflow::new("BadName", "Publication@DBLP", "Publication@ACM").step(WorkflowStep {
                inputs: vec![StepInput::Existing("ghost".into())],
                combiner: Combiner::merge_avg(),
                publish: None,
            });
        assert!(matches!(
            wf.run(&ctx, &cache),
            Err(CoreError::UnknownMapping(_))
        ));
        // Unknown source.
        let wf = Workflow::new("BadSrc", "Nope@X", "Publication@ACM");
        assert!(wf.run(&ctx, &cache).is_err());
    }

    #[test]
    fn workflow_as_matcher_in_library() {
        let reg = setup();
        let ctx = MatchContext::new(&reg);
        let wf =
            Workflow::new("TitleOnly", "Publication@DBLP", "Publication@ACM").step(WorkflowStep {
                inputs: vec![StepInput::Matcher(title_matcher())],
                combiner: Combiner::merge_avg().with_selection(Selection::Threshold(0.8)),
                publish: None,
            });
        let mut lib = MatcherLibrary::new();
        lib.register("plainTitle", title_matcher());
        lib.register_workflow(wf);
        assert_eq!(lib.len(), 2);
        assert_eq!(
            lib.names(),
            vec!["TitleOnly".to_owned(), "plainTitle".to_owned()]
        );
        let m = lib.get("TitleOnly").unwrap();
        let d = reg.resolve("Publication@DBLP").unwrap();
        let a = reg.resolve("Publication@ACM").unwrap();
        let r = m.execute(&ctx, d, a).unwrap();
        assert!(r.len() >= 2);
        // Executing against the wrong pair is rejected.
        assert!(m.execute(&ctx, a, d).is_err());
    }

    #[test]
    fn parallel_fanout_matches_sequential() {
        use crate::exec::Parallelism;
        let reg = setup();
        let cache = MappingCache::new();
        let wf = Workflow::new("Fan", "Publication@DBLP", "Publication@ACM").step(WorkflowStep {
            inputs: vec![
                StepInput::Matcher(title_matcher()),
                StepInput::Matcher(year_matcher()),
            ],
            combiner: Combiner::merge_avg(),
            publish: None,
        });
        let seq = wf
            .run(
                &MatchContext::new(&reg).with_parallelism(Parallelism::sequential()),
                &cache,
            )
            .unwrap();
        for threads in [2usize, 8] {
            let ctx = MatchContext::new(&reg)
                .with_parallelism(Parallelism::new(threads).with_min_shard_size(1));
            let par = wf.run(&ctx, &cache).unwrap();
            assert_eq!(seq.table.rows(), par.table.rows(), "threads={threads}");
        }
    }

    #[test]
    fn sequential_step_short_circuits_on_error() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// Counts executions; fails if `fail` is set.
        struct Probe {
            calls: Arc<AtomicUsize>,
            fail: bool,
        }
        impl Matcher for Probe {
            fn name(&self) -> String {
                "probe".into()
            }
            fn execute(&self, _: &MatchContext<'_>, _: LdsId, _: LdsId) -> Result<Mapping> {
                self.calls.fetch_add(1, Ordering::SeqCst);
                if self.fail {
                    Err(CoreError::EmptyInput("probe".into()))
                } else {
                    unreachable!("later matcher must not run after an error")
                }
            }
        }
        let reg = setup();
        let calls = Arc::new(AtomicUsize::new(0));
        let wf = Workflow::new("SC", "Publication@DBLP", "Publication@ACM").step(WorkflowStep {
            inputs: vec![
                StepInput::Matcher(Arc::new(Probe {
                    calls: Arc::clone(&calls),
                    fail: true,
                })),
                StepInput::Matcher(Arc::new(Probe {
                    calls: Arc::clone(&calls),
                    fail: false,
                })),
            ],
            combiner: Combiner::merge_avg(),
            publish: None,
        });
        // At threads=1 the first failing matcher stops the step before
        // the second matcher ever executes.
        let ctx = MatchContext::new(&reg).with_parallelism(crate::exec::Parallelism::sequential());
        assert!(wf.run(&ctx, &MappingCache::new()).is_err());
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn step_input_debug() {
        let dbg = format!("{:?}", StepInput::Existing("X".into()));
        assert_eq!(dbg, "Existing(X)");
        assert_eq!(format!("{:?}", StepInput::Previous), "Previous");
    }
}
