//! Figures 2 and 3: the source-mapping model and the MOMA architecture.

use crate::artifact::{Artifact, Claim, Group};
use crate::report::Report;
use crate::setup::EvalContext;

/// The physical sources of Figure 2: name, access mode (paper Section
/// 2.1: DBLP can be downloaded completely, ACM DL and Google Scholar only
/// queried) and the logical sources each hosts.
const PDS: [(&str, &str, &[&str]); 3] = [
    ("DBLP", "downloadable", &["Publication", "Author", "Venue"]),
    ("ACM", "query-only", &["Publication", "Author", "Venue"]),
    ("GoogleScholar", "query-only", &["Publication"]),
];

/// The association mapping types of Figure 2: name, domain, range,
/// cardinality and inverse type.
#[rustfmt::skip]
const ASSOC_TYPES: [(&str, &str, &str, &str, Option<&str>); 5] = [
    ("AuthorPub@DBLP", "Author@DBLP", "Publication@DBLP", "n:m", Some("PubAuthor@DBLP")),
    ("VenuePub@DBLP", "Venue@DBLP", "Publication@DBLP", "1:n", Some("PubVenue@DBLP")),
    ("CoAuthor@DBLP", "Author@DBLP", "Author@DBLP", "n:m", None),
    ("AuthorPub@ACM", "Author@ACM", "Publication@ACM", "n:m", Some("PubAuthor@ACM")),
    ("VenuePub@ACM", "Venue@ACM", "Publication@ACM", "1:n", Some("PubVenue@ACM")),
];

/// Figure 2: the bibliographic source-mapping model, one line per
/// physical source, logical source and association mapping type.
pub fn fig2(_: &EvalContext) -> Report {
    let mut r = Report::new(
        "Figure 2. Source-mapping model for the bibliographic domain",
        vec!["SMM"],
    );
    r.row("Source-Mapping Model", vec![]);
    r.row("====================", vec![]);
    for (pds, access, types) in PDS {
        r.row(format!("PDS {pds} ({access})"), vec![]);
        for ty in types {
            r.row(format!("  LDS {ty}@{pds}"), vec![]);
        }
    }
    r.row("Association mapping types:", vec![]);
    for (name, domain, range, cardinality, inverse) in ASSOC_TYPES {
        let inverse = inverse.map_or(String::new(), |i| format!("  (inverse: {i})"));
        r.row(
            format!("  {name} : {domain} -> {range}  [{cardinality}]{inverse}"),
            vec![],
        );
    }
    r
}

/// Figure 2 of the paper.
pub const FIG2: Artifact = Artifact {
    id: "fig2",
    group: Group::Figure,
    run: fig2,
    paper: &[],
    claims: &[Claim {
        text: "DBLP is downloadable, ACM and Google Scholar are query-only, and venue-publication associations are 1:n",
        holds: |r| {
            let has = |line: &str| r.rows.iter().any(|(label, _)| label.contains(line));
            has("PDS DBLP (downloadable)")
                && has("PDS ACM (query-only)")
                && has("PDS GoogleScholar (query-only)")
                && has("VenuePub@DBLP : Venue@DBLP -> Publication@DBLP  [1:n]")
        },
    }],
};

/// Figure 3: the MOMA architecture — enumerated as components with the
/// role each plays in this implementation.
pub fn fig3(_: &EvalContext) -> Report {
    let mut r = Report::new(
        "Figure 3. MOMA architecture components and their realization",
        vec!["Component", "Realization"],
    );
    for (component, realization) in [
        ("Mapping repository", "moma_core::repository::MappingRepository (TSV persistence)"),
        ("Mapping cache", "moma_core::repository::MappingRepository (a second instance holds intermediate results)"),
        ("Matcher library", "moma_core::matchers (attribute / multi-attribute / neighborhood) + moma_ifuice::script procedures (workflows as matchers)"),
        ("Matcher implementation", "moma_core::matchers::AttributeMatcher (n-gram, TF/IDF, affix, ... via moma-simstring)"),
        ("Mapping combiner: operator", "moma_core::ops::{merge, compose}"),
        ("Mapping combiner: selection", "moma_core::ops::select (Threshold, Best-n, Best-1+Delta, constraints)"),
        ("Match workflow", "moma_ifuice::script (an iFuice script: matcher calls + combiner calls)"),
        ("Self-tuning", "moma_tune (grid search + decision tree over matcher configurations)"),
        ("Script facility (iFuice)", "moma_ifuice::script (lexer, parser, interpreter)"),
    ] {
        r.row(component, vec![realization.to_owned()]);
    }
    r
}

/// Figure 3 of the paper.
pub const FIG3: Artifact = Artifact {
    id: "fig3",
    group: Group::Figure,
    run: fig3,
    paper: &[],
    claims: &[Claim {
        text: "every component of the architecture is realized",
        holds: |r| r.rows.len() == 9 && r.rows.iter().all(|(_, cells)| !cells[0].is_empty()),
    }],
};
