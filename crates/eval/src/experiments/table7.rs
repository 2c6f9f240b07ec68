//! Table 7: matching DBLP-GS publications with the n:m author
//! neighborhood matcher.
//!
//! Shape: Google Scholar's extraction-noisy titles cap plain title
//! matching around 81%; the author neighborhood (with RelativeLeft,
//! because GS author lists are truncated) recovers noisy-title entries,
//! lifting recall substantially while precision holds.

use std::sync::Arc;

use moma_core::matchers::neighborhood::nh_match;
use moma_core::ops::compose::PathAgg;
use moma_core::ops::select::{select, Selection};
use moma_core::ops::setops::{intersection, union};
use moma_core::Mapping;

use crate::artifact::{Artifact, Claim, Group};
use crate::metrics::MatchQuality;
use crate::report::Report;
use crate::setup::EvalContext;

/// Raw author-neighborhood mapping DBLP→GS with `g = RelativeLeft`
/// (robust against missing GS authors, paper Section 5.4.3).
pub fn nh_mapping(ctx: &EvalContext) -> Arc<Mapping> {
    ctx.cached("table7.nh", || {
        let repo = &ctx.scenario.repository;
        let asso1 = repo.get("DBLP.PubAuthor").expect("assoc");
        let asso2 = repo.get("GS.AuthorPub").expect("assoc");
        let author_same = ctx.author_same_dblp_gs();
        nh_match(&asso1, &author_same, &asso2, PathAgg::RelativeLeft).expect("nh")
    })
}

/// The Table 7 merged mapping: the strict title mapping united with
/// permissive-title pairs that the author neighborhood confirms.
pub fn merged_mapping(ctx: &EvalContext) -> Arc<Mapping> {
    ctx.cached("table7.merge", || {
        let title = ctx.pub_title_dblp_gs();
        let title_low = ctx.pub_title_low_dblp_gs();
        let nh = select(&nh_mapping(ctx), &Selection::Threshold(0.4));
        let confirmed = intersection(&title_low, &nh).expect("intersection");
        union(&title, &confirmed).expect("union")
    })
}

/// Run the Table 7 experiment.
pub fn run(ctx: &EvalContext) -> Report {
    let gold = &ctx.scenario.gold.pub_dblp_gs;
    let attr = MatchQuality::evaluate(&ctx.pub_title_dblp_gs(), gold);
    let nh_alone = select(&nh_mapping(ctx), &Selection::Threshold(0.35));
    let nh = MatchQuality::evaluate(&nh_alone, gold);
    let merged = MatchQuality::evaluate(&merged_mapping(ctx), gold);

    let mut r = Report::new(
        "Table 7. Matching DBLP-GS publications using neighborhood matcher (n:m author)",
        vec!["Metric", ATTR, NH, "Merge"],
    );
    r.quality_rows(&[attr, nh, merged]);
    r.note("RelativeLeft used because GS author lists are incomplete");
    r
}

pub(crate) const ATTR: &str = "Attribute (Title)";
pub(crate) const NH: &str = "Neighborhood (Author)";

/// Table 7 of the paper.
pub const ARTIFACT: Artifact = Artifact {
    id: "table7",
    group: Group::Table,
    run,
    paper: &[
        ("Precision", ATTR, 81.1),
        ("Recall", ATTR, 81.6),
        ("F-Measure", ATTR, 81.3),
        ("Precision", NH, 15.2),
        ("Recall", NH, 76.0),
        ("F-Measure", NH, 25.4),
        ("Precision", "Merge", 85.1),
        ("Recall", "Merge", 92.9),
        ("F-Measure", "Merge", 88.9),
    ],
    claims: &[
        Claim {
            text: "dirty GS titles keep attribute-only matching well below the DBLP-ACM level",
            holds: |r| r.num("F-Measure", ATTR) < 97.0,
        },
        Claim {
            text: "the author neighborhood alone is less precise than the title matcher",
            holds: |r| r.num("Precision", NH) < r.num("Precision", ATTR),
        },
        Claim {
            text: "the merge recovers noisy-title entries: recall rises by more than 3 points while precision holds (within 8)",
            holds: |r| {
                r.num("Recall", "Merge") > r.num("Recall", ATTR) + 3.0
                    && r.num("Precision", "Merge") + 8.0 >= r.num("Precision", ATTR)
            },
        },
        Claim {
            text: "the merge beats the title matcher",
            holds: |r| r.num("F-Measure", "Merge") > r.num("F-Measure", ATTR),
        },
    ],
};
