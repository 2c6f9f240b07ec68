//! Table 1: number of instances for the considered data sources.

use crate::artifact::{Artifact, Claim, Group};
use crate::report::Report;
use crate::setup::EvalContext;

/// Count instances per source and object type.
pub fn run(ctx: &EvalContext) -> Report {
    let reg = &ctx.scenario.registry;
    let ids = ctx.scenario.ids;
    let mut r = Report::new(
        "Table 1. Number of instances for the considered data sources",
        vec!["Source", "Venues", "Publications", "Authors"],
    );
    r.row(
        "DBLP",
        vec![
            reg.lds(ids.venue_dblp).len().to_string(),
            reg.lds(ids.pub_dblp).len().to_string(),
            reg.lds(ids.author_dblp).len().to_string(),
        ],
    );
    r.row(
        "ACM DL",
        vec![
            reg.lds(ids.venue_acm).len().to_string(),
            reg.lds(ids.pub_acm).len().to_string(),
            reg.lds(ids.author_acm).len().to_string(),
        ],
    );
    r.row(
        "Google Scholar",
        vec![
            "-".into(),
            reg.lds(ids.pub_gs).len().to_string(),
            format!("({})", reg.lds(ids.author_gs).len()),
        ],
    );
    r.note("GS authors parenthesized: author *name strings*, not resolved entities");
    r
}

/// Table 1 of the paper.
pub const ARTIFACT: Artifact = Artifact {
    id: "table1",
    group: Group::Table,
    run,
    paper: &[
        ("DBLP", "Venues", 130.0),
        ("DBLP", "Publications", 2616.0),
        ("DBLP", "Authors", 3319.0),
        ("ACM DL", "Venues", 128.0),
        ("ACM DL", "Publications", 2294.0),
        ("ACM DL", "Authors", 3547.0),
        ("Google Scholar", "Publications", 64263.0),
        ("Google Scholar", "Authors", 81296.0),
    ],
    claims: &[
        Claim {
            text: "ACM lacks exactly two DBLP venues (VLDB 2002/2003)",
            holds: |r| r.num("ACM DL", "Venues") == r.num("DBLP", "Venues") - 2.0,
        },
        Claim {
            text: "ACM covers fewer publications than DBLP",
            holds: |r| r.num("ACM DL", "Publications") < r.num("DBLP", "Publications"),
        },
        Claim {
            text: "Google Scholar dwarfs DBLP (duplicates and noise entries)",
            holds: |r| r.num("Google Scholar", "Publications") > r.num("DBLP", "Publications"),
        },
        Claim {
            text: "ACM splits author identities: more authors than DBLP despite fewer publications",
            holds: |r| r.num("ACM DL", "Authors") > r.num("DBLP", "Authors"),
        },
    ],
};
