//! Table 3: matching publications via different compose paths.
//!
//! Shape: the native GS→ACM links are poor; composing via the clean hub
//! DBLP beats them decisively; composing through GS or the GS-ACM links
//! degrades; merging direct and composed retains the better alternative
//! per pair.

use crate::artifact::{Artifact, Claim, Group};
use crate::metrics::MatchQuality;
use crate::report::Report;
use crate::setup::EvalContext;

/// Per row, the mapping of each column: the direct one, the one composed
/// via the third source (DBLP→ACM→GS, DBLP→GS→ACM, GS→DBLP→ACM) and
/// their merge.
const ROWS: [(&str, [&str; 3]); 3] = [
    ("Direct", ["Paper.TitleDG", "Paper.TitleDA", "GS.LinksACM"]),
    (
        "Compose",
        ["Paper.ComposeDG", "Paper.ComposeDA", "Paper.ComposeGA"],
    ),
    ("Merge", ["Paper.MergeDG", "Paper.MergeDA", "Paper.MergeGA"]),
];

/// Run the Table 3 experiment.
pub fn run(ctx: &EvalContext) -> Report {
    let gold = &ctx.scenario.gold;
    let golds = [&gold.pub_dblp_gs, &gold.pub_dblp_acm, &gold.pub_gs_acm];
    let mut r = Report::new(
        "Table 3. Matching publications via different compose paths (F-Measure)",
        vec!["Matcher", PAIRS[0], PAIRS[1], PAIRS[2]],
    );
    let f = |(name, gold)| {
        let f1 = MatchQuality::evaluate(&ctx.mapping(name), gold).f1();
        Report::pct(f1 * 100.0)
    };
    for (label, names) in ROWS {
        r.row(label, names.into_iter().zip(golds).map(f).collect());
    }
    let links_recall = MatchQuality::evaluate(&ctx.mapping("GS.LinksACM"), golds[2]).recall();
    r.row(
        "Direct (recall)",
        vec!["-".into(), "-".into(), Report::pct(links_recall * 100.0)],
    );
    r
}

const PAIRS: [&str; 3] = [
    "DBLP-GS (via ACM)",
    "DBLP-ACM (via GS)",
    "GS-ACM (via DBLP)",
];

/// Table 3 of the paper (plus the recall of the native GS→ACM links
/// its text quotes).
pub const ARTIFACT: Artifact = Artifact {
    id: "table3",
    group: Group::Table,
    run,
    paper: &[
        ("Direct", PAIRS[0], 81.3),
        ("Direct", PAIRS[1], 91.9),
        ("Direct", PAIRS[2], 35.3),
        ("Compose", PAIRS[0], 33.9),
        ("Compose", PAIRS[1], 63.7),
        ("Compose", PAIRS[2], 83.9),
        ("Merge", PAIRS[0], 81.3),
        ("Merge", PAIRS[1], 91.6),
        ("Merge", PAIRS[2], 83.7),
        ("Direct (recall)", PAIRS[2], 21.6),
    ],
    claims: &[
        Claim {
            text: "composing via the hub DBLP beats the weak native GS-ACM links by more than 15 points",
            holds: |r| r.num("Compose", PAIRS[2]) > r.num("Direct", PAIRS[2]) + 15.0,
        },
        Claim {
            text: "composing through the dirty source or the weak links degrades the two good direct mappings",
            holds: |r| {
                r.num("Compose", PAIRS[1]) < r.num("Direct", PAIRS[1])
                    && r.num("Compose", PAIRS[0]) < r.num("Direct", PAIRS[0])
            },
        },
        Claim {
            text: "merging direct and composed retains the better alternative per pair (within 6 points)",
            holds: |r| {
                PAIRS.iter().all(|pair| {
                    let best = r.num("Direct", pair).max(r.num("Compose", pair));
                    r.num("Merge", pair) >= best - 6.0
                })
            },
        },
    ],
};
