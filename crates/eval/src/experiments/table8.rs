//! Table 8: matching GS-ACM publications with the n:m author
//! neighborhood matcher.
//!
//! Same mechanism as Table 7 for the second dirty pair.

use std::sync::Arc;

use moma_core::matchers::neighborhood::nh_match;
use moma_core::ops::compose::PathAgg;
use moma_core::ops::select::{select, Selection};
use moma_core::ops::setops::{intersection, union};
use moma_core::Mapping;

use crate::artifact::{Artifact, Claim, Group};
use crate::experiments::table7::{ATTR, NH};
use crate::metrics::MatchQuality;
use crate::report::Report;
use crate::setup::EvalContext;

/// Raw author-neighborhood mapping GS→ACM (`g = RelativeLeft`: the GS
/// side's truncated author lists sit on the left here).
pub fn nh_mapping(ctx: &EvalContext) -> Arc<Mapping> {
    ctx.cached("table8.nh", || {
        let repo = &ctx.scenario.repository;
        let asso1 = repo.get("GS.PubAuthor").expect("assoc");
        let asso2 = repo.get("ACM.AuthorPub").expect("assoc");
        let author_same = ctx.author_same_gs_acm();
        nh_match(&asso1, &author_same, &asso2, PathAgg::RelativeLeft).expect("nh")
    })
}

/// The Table 8 merged mapping (same recipe as Table 7).
pub fn merged_mapping(ctx: &EvalContext) -> Arc<Mapping> {
    ctx.cached("table8.merge", || {
        let title = ctx.pub_title_gs_acm();
        let title_low = ctx.pub_title_low_gs_acm();
        let nh = select(&nh_mapping(ctx), &Selection::Threshold(0.4));
        let confirmed = intersection(&title_low, &nh).expect("intersection");
        union(&title, &confirmed).expect("union")
    })
}

/// Run the Table 8 experiment.
pub fn run(ctx: &EvalContext) -> Report {
    let gold = &ctx.scenario.gold.pub_gs_acm;
    let attr = MatchQuality::evaluate(&ctx.pub_title_gs_acm(), gold);
    let nh_alone = select(&nh_mapping(ctx), &Selection::Threshold(0.35));
    let nh = MatchQuality::evaluate(&nh_alone, gold);
    let merged = MatchQuality::evaluate(&merged_mapping(ctx), gold);

    let mut r = Report::new(
        "Table 8. Matching GS-ACM publications using neighborhood matcher (n:m author)",
        vec!["Metric", ATTR, NH, "Merge"],
    );
    r.quality_rows(&[attr, nh, merged]);
    r
}

/// Table 8 of the paper.
pub const ARTIFACT: Artifact = Artifact {
    id: "table8",
    group: Group::Table,
    run,
    paper: &[
        ("Precision", ATTR, 86.7),
        ("Recall", ATTR, 81.7),
        ("F-Measure", ATTR, 84.1),
        ("Precision", NH, 16.2),
        ("Recall", NH, 75.6),
        ("F-Measure", NH, 26.7),
        ("Precision", "Merge", 84.6),
        ("Recall", "Merge", 92.1),
        ("F-Measure", "Merge", 88.2),
    ],
    claims: &[
        Claim {
            text: "dirty GS titles keep attribute-only matching well below the DBLP-ACM level",
            holds: |r| r.num("F-Measure", ATTR) < 97.0,
        },
        Claim {
            text: "the merge lifts recall by more than 2 points while precision holds (within 10)",
            holds: |r| {
                r.num("Recall", "Merge") > r.num("Recall", ATTR) + 2.0
                    && r.num("Precision", "Merge") + 10.0 >= r.num("Precision", ATTR)
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
