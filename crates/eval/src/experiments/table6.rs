//! Table 6: matching DBLP-ACM authors with the n:m publication
//! neighborhood matcher.
//!
//! Shape: plain name matching is precise but misses abbreviated
//! identities (ACM's "J. Smith"); the publication neighborhood alone
//! over-matches co-author groups; the Min-merge of a permissive name
//! mapping with the neighborhood recovers abbreviated authors while
//! keeping precision.

use crate::artifact::{Artifact, Claim, Group};
use crate::metrics::MatchQuality;
use crate::report::Report;
use crate::setup::EvalContext;

/// Run the Table 6 experiment.
pub fn run(ctx: &EvalContext) -> Report {
    let gold = &ctx.scenario.gold.author_dblp_acm;
    let quality = |name| MatchQuality::evaluate(&ctx.mapping(name), gold);
    let columns = ["Paper.NameDA", "Paper.AuthorNh25DA", "Paper.Table6"];

    let mut r = Report::new(
        "Table 6. Matching DBLP-ACM authors using neighborhood matcher (n:m publication)",
        vec!["Metric", ATTR, NH, "Merge"],
    );
    r.quality_rows(&columns.map(quality));
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
