//! Table 2: matching DBLP-ACM publications with attribute matchers.
//!
//! The shape to reproduce: the title matcher dominates but is imperfect
//! (conference/journal twins, recurring newsletter titles); year matching
//! alone is hopeless (precision ≈ 0 at perfect recall); merging with Avg
//! and an 80% threshold lifts precision above the title matcher at a
//! small recall cost.

use crate::artifact::{Artifact, Claim, Group};
use crate::metrics::MatchQuality;
use crate::report::Report;
use crate::setup::EvalContext;

/// Run the Table 2 experiment.
pub fn run(ctx: &EvalContext) -> Report {
    let gold = &ctx.scenario.gold.pub_dblp_acm;
    let quality = |name| MatchQuality::evaluate(&ctx.mapping(name), gold);
    let columns = [
        "Paper.TitleDA",
        "Paper.AuthorsDA",
        "Paper.YearDA",
        "Paper.Table2",
    ];

    let mut r = Report::new(
        "Table 2. Matching DBLP-ACM publications using attribute matchers",
        vec!["Metric", "Title", "Author", "Year", "Merge"],
    );
    r.quality_rows(&columns.map(quality));
    r
}

/// Table 2 of the paper.
pub const ARTIFACT: Artifact = Artifact {
    id: "table2",
    group: Group::Table,
    run,
    paper: &[
        ("Precision", "Title", 86.7),
        ("Recall", "Title", 97.7),
        ("F-Measure", "Title", 91.9),
        ("Precision", "Author", 38.0),
        ("Recall", "Author", 87.9),
        ("F-Measure", "Author", 53.1),
        ("Precision", "Year", 0.4),
        ("Recall", "Year", 100.0),
        ("F-Measure", "Year", 0.8),
        ("Precision", "Merge", 97.3),
        ("Recall", "Merge", 93.9),
        ("F-Measure", "Merge", 95.5),
    ],
    claims: &[
        Claim {
            text: "the title matcher dominates the author and year matchers",
            holds: |r| {
                let title = r.num("F-Measure", "Title");
                title > r.num("F-Measure", "Author") && title > r.num("F-Measure", "Year")
            },
        },
        Claim {
            text: "year matching alone is hopeless: near-perfect recall, near-zero precision",
            holds: |r| r.num("Recall", "Year") > 88.0 && r.num("Precision", "Year") < 15.0,
        },
        Claim {
            text: "merging the three matchers lifts precision above the title matcher",
            holds: |r| r.num("Precision", "Merge") > r.num("Precision", "Title"),
        },
        Claim {
            text: "the merge is at least on par with the title matcher (within 2 points of F)",
            holds: |r| r.num("F-Measure", "Merge") + 2.0 >= r.num("F-Measure", "Title"),
        },
    ],
};
