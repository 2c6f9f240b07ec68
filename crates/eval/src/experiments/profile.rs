//! Dataset profile: descriptive statistics of the generated scenario's
//! association mappings — the neighborhood-size facts the paper cites
//! ("about 60-120 publications" per conference, "2-26 per issue",
//! "about 3 authors per paper on average", Sections 5.4.1-5.4.3).

use moma_table::TableStats;

use crate::artifact::{Artifact, Claim, Group};
use crate::report::Report;
use crate::setup::EvalContext;

const CONFERENCES: &str = "DBLP.VenuePub (conferences)";
const JOURNALS: &str = "DBLP.VenuePub (journal issues)";

/// Profile the key association mappings.
pub fn run(ctx: &EvalContext) -> Report {
    let repo = &ctx.scenario.repository;
    let mut r = Report::new(
        "Dataset profile: association mapping statistics",
        vec!["Mapping", "Rows", "Domains", "Mean fanout", "Max fanout"],
    );
    let mut profile = |label: &str, s: TableStats| {
        r.row(
            label,
            vec![
                s.rows.to_string(),
                s.distinct_domains.to_string(),
                format!("{:.1}", s.mean_domain_fanout),
                s.max_domain_fanout.to_string(),
            ],
        );
    };
    for name in [
        "DBLP.VenuePub",
        "DBLP.PubAuthor",
        "DBLP.AuthorPub",
        "DBLP.CoAuthor",
        "ACM.VenuePub",
        "GS.PubAuthor",
        "GS.Clusters",
        "GS.LinksACM",
    ] {
        let mapping = repo.get(name).expect("scenario mapping");
        profile(name, TableStats::of(&mapping.table));
    }
    // Conference vs journal neighborhood sizes (the Table 4 mechanism).
    let venue_pub = repo.get("DBLP.VenuePub").expect("assoc");
    let is_conf = &ctx.scenario.dblp_venue_is_conf;
    for (label, conference) in [(CONFERENCES, true), (JOURNALS, false)] {
        let venues = venue_pub
            .table
            .filtered(|c| is_conf[c.domain as usize] == conference);
        profile(label, TableStats::of(&venues));
    }
    r
}

/// The neighborhood sizes the paper's Sections 5.4.1-5.4.3 quote.
pub const ARTIFACT: Artifact = Artifact {
    id: "profile",
    group: Group::Extra,
    run,
    paper: &[("DBLP.PubAuthor", "Mean fanout", 3.0)],
    claims: &[
        Claim {
            text: "about 3 authors per paper on average",
            holds: |r| (2.0..=4.0).contains(&r.num("DBLP.PubAuthor", "Mean fanout")),
        },
        Claim {
            text: "conferences (60-120 publications in the paper) dwarf journal issues (2-26)",
            holds: |r| r.num(CONFERENCES, "Mean fanout") > 2.0 * r.num(JOURNALS, "Mean fanout"),
        },
    ],
};
