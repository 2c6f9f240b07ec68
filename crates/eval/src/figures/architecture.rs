//! Figures 2 and 3: the source-mapping model and the MOMA architecture.

use moma_model::cardinality::Cardinality;
use moma_model::smm::{AssocTypeDef, PhysicalSource, SourceMappingModel};
use moma_model::LdsId;

use crate::artifact::{Artifact, Claim, Group};
use crate::report::Report;
use crate::setup::EvalContext;

/// Figure 2: the bibliographic source-mapping model, built and rendered.
pub fn fig2(_: &EvalContext) -> Report {
    let mut smm = SourceMappingModel::new();
    smm.add_physical(PhysicalSource::downloadable("DBLP"));
    smm.add_physical(PhysicalSource::query_only("ACM"));
    smm.add_physical(PhysicalSource::query_only("GoogleScholar"));
    let names = [
        "Publication@DBLP",
        "Author@DBLP",
        "Venue@DBLP",
        "Publication@ACM",
        "Author@ACM",
        "Venue@ACM",
        "Publication@GoogleScholar",
    ];
    for (i, n) in names.iter().enumerate() {
        smm.add_logical(LdsId(i as u32), *n);
    }
    for (name, d, r, card, inv) in [
        (
            "AuthorPub@DBLP",
            1u32,
            0u32,
            Cardinality::ManyToMany,
            Some("PubAuthor@DBLP"),
        ),
        (
            "VenuePub@DBLP",
            2,
            0,
            Cardinality::OneToMany,
            Some("PubVenue@DBLP"),
        ),
        ("CoAuthor@DBLP", 1, 1, Cardinality::ManyToMany, None),
        (
            "AuthorPub@ACM",
            4,
            3,
            Cardinality::ManyToMany,
            Some("PubAuthor@ACM"),
        ),
        (
            "VenuePub@ACM",
            5,
            3,
            Cardinality::OneToMany,
            Some("PubVenue@ACM"),
        ),
    ] {
        smm.add_assoc_type(AssocTypeDef {
            name: name.into(),
            domain: LdsId(d),
            range: LdsId(r),
            cardinality: card,
            inverse: inv.map(str::to_owned),
        });
    }
    let rendered = smm.render_ascii();
    let mut r = Report::new(
        "Figure 2. Source-mapping model for the bibliographic domain",
        vec!["SMM"],
    );
    for line in rendered.lines() {
        r.row(line, vec![]);
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
