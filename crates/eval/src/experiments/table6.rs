//! Table 6: matching DBLP-ACM authors with the n:m publication
//! neighborhood matcher.
//!
//! Shape: plain name matching is precise but misses abbreviated
//! identities (ACM's "J. Smith"); the publication neighborhood alone
//! over-matches co-author groups; the Min-merge of a permissive name
//! mapping with the neighborhood recovers abbreviated authors while
//! keeping precision.

use std::sync::Arc;

use moma_core::matchers::neighborhood::nh_match;
use moma_core::ops::compose::PathAgg;
use moma_core::ops::merge::{merge, MergeFn, MissingPolicy};
use moma_core::ops::select::{select, Selection};
use moma_core::Mapping;

use crate::artifact::{Artifact, Claim, Group};
use crate::metrics::MatchQuality;
use crate::report::Report;
use crate::setup::EvalContext;

/// Raw n:m publication neighborhood mapping over authors.
pub fn nh_mapping(ctx: &EvalContext) -> Arc<Mapping> {
    ctx.cached("table6.nh", || {
        let repo = &ctx.scenario.repository;
        let asso1 = repo.get("DBLP.AuthorPub").expect("assoc");
        let asso2 = repo.get("ACM.PubAuthor").expect("assoc");
        let pub_same = ctx.pub_title_dblp_acm();
        nh_match(&asso1, &pub_same, &asso2, PathAgg::Relative).expect("nh")
    })
}

/// The Table 6 merged mapping: Min-with-zero merge (intersection
/// semantics) of the permissive name mapping and the thresholded
/// neighborhood, followed by a 0.45 threshold on the combined value.
pub fn merged_mapping(ctx: &EvalContext) -> Arc<Mapping> {
    ctx.cached("table6.merge", || {
        let name_low = ctx.author_name_low_dblp_acm();
        let nh = select(&nh_mapping(ctx), &Selection::Threshold(0.25));
        let merged = merge(&[&name_low, &nh], MergeFn::Min, MissingPolicy::Zero).expect("merge");
        select(&merged, &Selection::Threshold(0.35))
    })
}

/// Run the Table 6 experiment.
pub fn run(ctx: &EvalContext) -> Report {
    let gold = &ctx.scenario.gold.author_dblp_acm;
    let attr = MatchQuality::evaluate(&ctx.author_name_dblp_acm(), gold);
    let nh_alone = select(&nh_mapping(ctx), &Selection::Threshold(0.25));
    let nh = MatchQuality::evaluate(&nh_alone, gold);
    let merged = MatchQuality::evaluate(&merged_mapping(ctx), gold);

    let mut r = Report::new(
        "Table 6. Matching DBLP-ACM authors using neighborhood matcher (n:m publication)",
        vec!["Metric", ATTR, NH, "Merge"],
    );
    r.quality_rows(&[attr, nh, merged]);
    r
}

const ATTR: &str = "Attribute (Name)";
const NH: &str = "Neighborhood (Publication)";

/// Table 6 of the paper.
pub const ARTIFACT: Artifact = Artifact {
    id: "table6",
    group: Group::Table,
    run,
    paper: &[
        ("Precision", ATTR, 99.3),
        ("Recall", ATTR, 81.3),
        ("F-Measure", ATTR, 89.4),
        ("Precision", NH, 24.8),
        ("Recall", NH, 99.3),
        ("F-Measure", NH, 39.7),
        ("Precision", "Merge", 99.9),
        ("Recall", "Merge", 94.0),
        ("F-Measure", "Merge", 96.9),
    ],
    claims: &[
        Claim {
            text: "name matching is precise but misses abbreviated identities",
            holds: |r| r.num("Precision", ATTR) > 85.0 && r.num("Recall", ATTR) < 95.0,
        },
        Claim {
            text: "the publication neighborhood alone over-matches co-author groups: higher recall, poor precision",
            holds: |r| r.num("Recall", NH) > r.num("Recall", ATTR) && r.num("Precision", NH) < 70.0,
        },
        Claim {
            text: "the merge recovers abbreviated authors at comparable precision (within 8 points)",
            holds: |r| {
                r.num("Recall", "Merge") > r.num("Recall", ATTR)
                    && r.num("Precision", "Merge") + 8.0 >= r.num("Precision", ATTR)
            },
        },
        Claim {
            text: "the merge beats both single matchers",
            holds: |r| {
                let merged = r.num("F-Measure", "Merge");
                merged > r.num("F-Measure", ATTR) && merged > r.num("F-Measure", NH)
            },
        },
    ],
};
