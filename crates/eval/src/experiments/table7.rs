//! Table 7: matching DBLP-GS publications with the n:m author
//! neighborhood matcher.
//!
//! Shape: Google Scholar's extraction-noisy titles cap plain title
//! matching around 81%; the author neighborhood (with RelativeLeft,
//! because GS author lists are truncated) recovers noisy-title entries,
//! lifting recall substantially while precision holds.

use crate::artifact::{Artifact, Claim, Group};
use crate::metrics::MatchQuality;
use crate::report::Report;
use crate::setup::EvalContext;

/// Run the Table 7 experiment.
pub fn run(ctx: &EvalContext) -> Report {
    let gold = &ctx.scenario.gold.pub_dblp_gs;
    let quality = |name| MatchQuality::evaluate(&ctx.mapping(name), gold);
    let columns = ["Paper.TitleDG", "Paper.PubNh35DG", "Paper.Table7"];

    let mut r = Report::new(
        "Table 7. Matching DBLP-GS publications using neighborhood matcher (n:m author)",
        vec!["Metric", ATTR, NH, "Merge"],
    );
    r.quality_rows(&columns.map(quality));
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
