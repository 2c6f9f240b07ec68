//! Shared evaluation context: the generated scenario, and the paper's
//! match workflows run over it. The workflows are iFuice scripts in
//! `crates/eval/workflows/*.ifuice` — `paper.ifuice` for every table
//! built at scenario scale, `table9.ifuice` for the Section 4.3
//! duplicate search — and an artifact reads the mappings a script
//! stored in the scenario's repository ("MOMA not only processes the
//! input instances but also utilizes the mappings of the repository",
//! Section 2.2).

use std::sync::{Arc, OnceLock};

use moma_core::Mapping;
use moma_datagen::{Scenario, WorldConfig};
use moma_ifuice::script::run_script;

/// The workflows of Tables 2–8, 10, Figure 11 and the extension; each
/// mapping a report reads is stored under `Paper.`.
pub const PAPER_SCRIPT: &str = include_str!("../workflows/paper.ifuice");

/// A scenario and the paper's workflows over it.
pub struct EvalContext {
    /// The generated evaluation scenario.
    pub scenario: Scenario,
    paper_run: OnceLock<()>,
}

impl EvalContext {
    /// Wrap a scenario.
    pub fn new(scenario: Scenario) -> Self {
        Self {
            scenario,
            paper_run: OnceLock::new(),
        }
    }

    /// Paper-scale context (Table 1 sized).
    pub fn paper_scale() -> Self {
        Self::new(Scenario::paper_scale())
    }

    /// Small context for tests.
    pub fn small() -> Self {
        Self::new(Scenario::small())
    }

    /// Context from a custom configuration.
    pub fn with_config(config: WorldConfig) -> Self {
        Self::new(Scenario::generate(config))
    }

    /// The repository mapping `name` — one [`PAPER_SCRIPT`] stores, or
    /// one of the scenario's own. The script runs on the first call.
    pub fn mapping(&self, name: &str) -> Arc<Mapping> {
        let Scenario {
            registry,
            repository,
            ..
        } = &self.scenario;
        self.paper_run.get_or_init(|| {
            run_script(PAPER_SCRIPT, registry, repository).expect("the paper workflows run");
        });
        repository
            .get(name)
            .unwrap_or_else(|| panic!("no repository mapping `{name}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_script_runs_once() {
        let ctx = EvalContext::small();
        let a = ctx.mapping("Paper.TitleDA");
        let b = ctx.mapping("Paper.TitleDA");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!a.is_empty());
    }

    #[test]
    fn low_threshold_is_superset() {
        use moma_core::matchers::{AttributeMatcher, MatchContext, Matcher};
        use moma_simstring::SimFn;

        let ctx = EvalContext::small();
        let high = ctx.mapping("Paper.TitleDA");
        let Scenario { registry, ids, .. } = &ctx.scenario;
        let low = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.45)
            .execute(&MatchContext::new(registry), ids.pub_dblp, ids.pub_acm)
            .expect("attribute matcher");
        assert!(low.len() >= high.len());
        let low_pairs = low.table.pair_set();
        for c in high.table.iter() {
            assert!(low_pairs.contains(&(c.domain, c.range)));
        }
    }

    #[test]
    fn venue_same_mapping_mostly_correct() {
        let ctx = EvalContext::small();
        let venue = ctx.mapping("Paper.VenueBest1");
        let gold = &ctx.scenario.gold.venue_dblp_acm;
        let correct = venue
            .table
            .iter()
            .filter(|c| gold.contains(c.domain, c.range))
            .count();
        assert!(
            correct as f64 >= 0.8 * gold.len() as f64,
            "venue matching too weak: {correct}/{}",
            gold.len()
        );
    }

    #[test]
    fn year_matcher_covers_everything() {
        let ctx = EvalContext::small();
        let year = ctx.mapping("Paper.YearDA");
        // Year matching is essentially the cross product within years:
        // recall must be ~100%, precision tiny (the Table 2 shape).
        let q = crate::metrics::MatchQuality::evaluate(&year, &ctx.scenario.gold.pub_dblp_acm);
        assert!(q.recall() > 0.88, "year recall {}", q.recall());
        assert!(q.precision() < 0.2, "year precision {}", q.precision());
    }
}
