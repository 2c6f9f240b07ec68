//! Table 8: matching GS-ACM publications with the n:m author
//! neighborhood matcher.
//!
//! Same mechanism as Table 7 for the second dirty pair.

use crate::artifact::{Artifact, Claim, Group};
use crate::experiments::table7::{ATTR, NH};
use crate::metrics::MatchQuality;
use crate::report::Report;
use crate::setup::EvalContext;

/// Run the Table 8 experiment.
pub fn run(ctx: &EvalContext) -> Report {
    let gold = &ctx.scenario.gold.pub_gs_acm;
    let quality = |name| MatchQuality::evaluate(&ctx.mapping(name), gold);
    let columns = ["Paper.TitleGA", "Paper.PubNh35GA", "Paper.Table8"];

    let mut r = Report::new(
        "Table 8. Matching GS-ACM publications using neighborhood matcher (n:m author)",
        vec!["Metric", ATTR, NH, "Merge"],
    );
    r.quality_rows(&columns.map(quality));
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
