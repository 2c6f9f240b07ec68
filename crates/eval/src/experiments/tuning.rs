//! Self-tuning ablation (paper Section 2.2).
//!
//! Compares, on the DBLP-ACM publication task:
//! 1. the hand-picked paper configuration (title trigram ≥ 0.8),
//! 2. the grid-searched single-feature configuration,
//! 3. a CART decision tree over multi-feature similarity vectors.
//!
//! Training data comes from half of the gold standard; all three are
//! evaluated on the held-out half.

use moma_simstring::SimFn;
use moma_tune::{
    build_dataset, candidate_pairs, train_test_split, DecisionTree, FeatureSpec, GridSearch,
    TreeConfig,
};

use crate::artifact::{Artifact, Claim, Group};
use crate::report::Report;
use crate::setup::EvalContext;

/// Feature space offered to the tuner.
fn specs() -> Vec<FeatureSpec> {
    vec![
        FeatureSpec::new("title", "title", SimFn::Trigram),
        FeatureSpec::new("title", "title", SimFn::TokenJaccard),
        FeatureSpec::new("authors", "authors", SimFn::Trigram),
        FeatureSpec::new("year", "year", SimFn::Year(0)),
    ]
}

/// Human-readable feature names aligned with the tuner feature space.
pub const FEATURE_NAMES: [&str; 4] = ["title:trigram", "title:jaccard", "authors:trigram", "year"];

/// Run the tuning ablation.
pub fn run(ctx: &EvalContext) -> Report {
    let scenario = &ctx.scenario;
    let (d, r) = (scenario.ids.pub_dblp, scenario.ids.pub_acm);
    let gold = &scenario.gold.pub_dblp_acm;

    let mut candidates = candidate_pairs(&scenario.registry, d, r, "title", gold);
    // The permissive blocking floor yields millions of candidates at
    // paper scale; training needs a sample, not the population. Keep all
    // gold positives plus a deterministic stride of negatives (~40k).
    const MAX_NEGATIVES: usize = 40_000;
    let negatives = candidates
        .iter()
        .filter(|&&(a, b)| !gold.contains(a, b))
        .count();
    if negatives > MAX_NEGATIVES {
        let stride = negatives.div_ceil(MAX_NEGATIVES);
        let mut kept = Vec::with_capacity(MAX_NEGATIVES + gold.len());
        let mut i = 0usize;
        for &(a, b) in &candidates {
            if gold.contains(a, b) {
                kept.push((a, b));
            } else {
                if i.is_multiple_of(stride) {
                    kept.push((a, b));
                }
                i += 1;
            }
        }
        candidates = kept;
    }
    let data = build_dataset(&scenario.registry, d, r, &specs(), &candidates, gold);
    let (train, test) = train_test_split(data, 0.5, scenario.world.config.seed);

    // 1. Paper default: title trigram >= 0.8 (feature 0).
    let default_f1 = moma_tune::dataset::f1_of(&test, |p| p.features[0] >= 0.8);
    // 2. Grid search.
    let grid = GridSearch::default().search(&train, &test).expect("data");
    // 3. Decision tree.
    let tree = DecisionTree::fit(&train, TreeConfig::default());
    let tree_f1 = moma_tune::dataset::f1_of(&test, |p| tree.classify(&p.features));

    let mut report = Report::new(
        "Self-tuning ablation: DBLP-ACM publications (held-out F-measure)",
        vec!["Configuration", "Test F", "Detail"],
    );
    report.row(
        "Hand-picked (paper)",
        vec![
            Report::pct(default_f1 * 100.0),
            "title:trigram >= 0.80".into(),
        ],
    );
    report.row(
        "Grid search",
        vec![
            Report::pct(grid.test_f1 * 100.0),
            format!("{} >= {:.2}", FEATURE_NAMES[grid.feature], grid.threshold),
        ],
    );
    report.row(
        "Decision tree",
        vec![
            Report::pct(tree_f1 * 100.0),
            format!("{} nodes, depth {}", tree.node_count(), tree.depth()),
        ],
    );
    report.note(format!(
        "training candidates: {} ({} positive)",
        train.len(),
        train.iter().filter(|p| p.label).count()
    ));
    report
}

/// The Section 2.2 self-tuning outlook, as an experiment.
pub const ARTIFACT: Artifact = Artifact {
    id: "tuning",
    group: Group::Extra,
    run,
    paper: &[],
    claims: &[
        Claim {
            text: "a grid-searched configuration never loses to the hand-picked one",
            holds: |r| r.num("Grid search", "Test F") + 1e-9 >= r.num("Hand-picked (paper)", "Test F"),
        },
        Claim {
            text: "a decision tree over several similarity features is competitive: above 50% and within 5 points of the grid",
            holds: |r| {
                let tree = r.num("Decision tree", "Test F");
                tree > 50.0 && tree + 5.0 >= r.num("Grid search", "Test F")
            },
        },
    ],
};
