//! Table 10: summary of matching results (F-measure).

use crate::artifact::{Artifact, Claim, Group};
use crate::metrics::MatchQuality;
use crate::report::Report;
use crate::setup::EvalContext;

/// Run the Table 10 summary (computes the best workflow per cell).
pub fn run(ctx: &EvalContext) -> Report {
    let gold = &ctx.scenario.gold;
    let f = |name, gold| MatchQuality::evaluate(&ctx.mapping(name), gold).f1();
    let venue_f = f("Paper.VenueBest1", &gold.venue_dblp_acm);
    let pub_da_f = f("Paper.Table5", &gold.pub_dblp_acm);
    let author_da_f = f("Paper.Table6", &gold.author_dblp_acm);
    let pub_dg_f = f("Paper.Table7", &gold.pub_dblp_gs);
    let pub_ga_f = f("Paper.Table8", &gold.pub_gs_acm);

    let mut r = Report::new(
        "Table 10. Summary of matching results (F-Measure)",
        vec!["Pair", "Venues", "Publications", "Authors"],
    );
    r.row(
        "DBLP - ACM",
        vec![
            Report::pct(venue_f * 100.0),
            Report::pct(pub_da_f * 100.0),
            Report::pct(author_da_f * 100.0),
        ],
    );
    r.row(
        "DBLP - GS",
        vec!["-".into(), Report::pct(pub_dg_f * 100.0), "-".into()],
    );
    r.row(
        "GS - ACM",
        vec!["-".into(), Report::pct(pub_ga_f * 100.0), "-".into()],
    );
    r
}

/// Table 10 of the paper.
pub const ARTIFACT: Artifact = Artifact {
    id: "table10",
    group: Group::Table,
    run,
    paper: &[
        ("DBLP - ACM", "Venues", 98.8),
        ("DBLP - ACM", "Publications", 98.6),
        ("DBLP - ACM", "Authors", 96.9),
        ("DBLP - GS", "Publications", 88.9),
        ("GS - ACM", "Publications", 88.2),
    ],
    claims: &[
        Claim {
            text: "the best DBLP-ACM workflows are excellent: venues and publications above 90%, authors above 85%",
            holds: |r| {
                r.num("DBLP - ACM", "Venues") > 90.0
                    && r.num("DBLP - ACM", "Publications") > 90.0
                    && r.num("DBLP - ACM", "Authors") > 85.0
            },
        },
        Claim {
            text: "both Google Scholar pairs trail the clean pair yet stay above 60%",
            holds: |r| {
                ["DBLP - GS", "GS - ACM"].iter().all(|pair| {
                    let dirty = r.num(pair, "Publications");
                    dirty < r.num("DBLP - ACM", "Publications") && dirty > 60.0
                })
            },
        },
    ],
};
