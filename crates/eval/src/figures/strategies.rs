//! Figures 7, 8, 10 and 11: match-strategy illustrations, each realized
//! as an executable scenario.

use moma_core::matchers::neighborhood::nh_match;
use moma_core::ops::compose::{compose, PathAgg, PathCombine};
use moma_core::ops::select::{select, Selection};
use moma_core::Mapping;
use moma_model::LdsId;
use moma_table::MappingTable;

use crate::artifact::{Artifact, Claim, Group};
use crate::metrics::MatchQuality;
use crate::report::Report;
use crate::setup::EvalContext;

/// Figure 7: how duplicates and coverage gaps in the intermediate source
/// impair composed same-mappings.
///
/// DBLP p1..p4; GS merges p2/p3 into one entry and misses p4; ACM
/// p'1..p'4. Composing DBLP→GS→ACM yields 4 correspondences for the
/// p2/p3 block (precision loss) and drops p4 (recall loss) — exactly the
/// figure's point.
pub fn fig7(_: &EvalContext) -> Report {
    // DBLP: 0..4, GS: 0 (=p1), 1 (=p2+p3 merged), ACM: 0..4.
    let dblp_gs = Mapping::same(
        "DBLP-GS",
        LdsId(0),
        LdsId(1),
        MappingTable::from_triples([(0, 0, 1.0), (1, 1, 1.0), (2, 1, 1.0)]),
    );
    let gs_acm = Mapping::same(
        "GS-ACM",
        LdsId(1),
        LdsId(2),
        MappingTable::from_triples([(0, 0, 1.0), (1, 1, 1.0), (1, 2, 1.0)]),
    );
    let composed = compose(&dblp_gs, &gs_acm, PathCombine::Min, PathAgg::Max).expect("compose");
    // True mapping: i -> i for 0..4.
    let gold = moma_datagen::GoldStandard::from_pairs([(0, 0), (1, 1), (2, 2), (3, 3)]);
    let q = MatchQuality::evaluate(&composed, &gold);

    let block = composed
        .table
        .iter()
        .filter(|c| c.domain == 1 || c.domain == 2);
    let p4 = match composed.table.sim_of(3, 3) {
        Some(_) => "yes",
        None => "no (no GS counterpart)",
    };
    let mut r = Report::new(
        "Figure 7. Composing same-mappings through a dirty/incomplete source",
        vec!["Effect", "Observed"],
    );
    r.row(FIG7_BLOCK, vec![block.count().to_string()]);
    r.row(FIG7_P4, vec![p4.into()]);
    r.row("Composed quality", vec![q.to_string()]);
    r
}

const FIG7_BLOCK: &str = "Correspondences for the p2/p3 same-title block (2 are true)";
const FIG7_P4: &str = "p4 -> p'4 derivable?";

/// Figure 7 of the paper.
pub const FIG7: Artifact = Artifact {
    id: "fig7",
    group: Group::Figure,
    run: fig7,
    paper: &[(FIG7_BLOCK, "Observed", 4.0)],
    claims: &[
        Claim {
            text: "a duplicate in the intermediate source blows the p2/p3 block up to 4 correspondences (precision loss)",
            holds: |r| r.num(FIG7_BLOCK, "Observed") == 4.0,
        },
        Claim {
            text: "an entry the intermediate source misses cannot be derived (recall loss)",
            holds: |r| r.cell(FIG7_P4, "Observed") == Some("no (no GS counterpart)"),
        },
    ],
};

/// Figure 8: the hub infrastructure — five sources, all matched through
/// the curated hub (DBLP), needing only n-1 same-mappings instead of
/// n(n-1)/2.
pub fn fig8(_: &EvalContext) -> Report {
    // Five sources with 6 publications each; source 0 is the hub.
    // Peripheral sources are noisy subsets.
    let hub_maps: Vec<Mapping> = (1..5u32)
        .map(|s| {
            // Hub covers everything; source s misses publication s.
            let rows: Vec<(u32, u32, f64)> =
                (0..6u32).filter(|&p| p != s).map(|p| (p, p, 1.0)).collect();
            Mapping::same(
                format!("hub-{s}"),
                LdsId(0),
                LdsId(s),
                MappingTable::from_triples(rows),
            )
        })
        .collect();
    // Match source 1 with source 4 via the hub.
    let via_hub = compose(
        &hub_maps[0].inverse(),
        &hub_maps[3],
        PathCombine::Min,
        PathAgg::Max,
    )
    .expect("compose");
    let gold = moma_datagen::GoldStandard::from_pairs(
        (0..6u32).filter(|&p| p != 1 && p != 4).map(|p| (p, p)),
    );
    let q = MatchQuality::evaluate(&via_hub, &gold);
    let mut r = Report::new(
        "Figure 8. Hub infrastructure for composing same-mappings",
        vec!["Quantity", "Value"],
    );
    let sources = hub_maps.len() + 1;
    r.row("Sources", vec![sources.to_string()]);
    r.row(FIG8_HUB, vec![hub_maps.len().to_string()]);
    r.row(FIG8_MESH, vec![(sources * (sources - 1) / 2).to_string()]);
    r.row(FIG8_VIA_HUB, vec![Report::pct(q.f1() * 100.0)]);
    r
}

const FIG8_HUB: &str = "Same-mappings maintained (hub)";
const FIG8_MESH: &str = "Same-mappings for full mesh";
const FIG8_VIA_HUB: &str = "Source1-Source4 via hub (F-Measure)";

/// Figure 8 of the paper.
pub const FIG8: Artifact = Artifact {
    id: "fig8",
    group: Group::Figure,
    run: fig8,
    paper: &[],
    claims: &[
        Claim {
            text: "a hub needs n-1 same-mappings where a full mesh needs n(n-1)/2",
            holds: |r| r.num(FIG8_HUB, "Value") == 4.0 && r.num(FIG8_MESH, "Value") == 10.0,
        },
        Claim {
            text: "composing two hub mappings matches two peripheral sources exactly",
            holds: |r| r.num(FIG8_VIA_HUB, "Value") == 100.0,
        },
    ],
};

/// Figure 10: neighborhood matching under the three association
/// cardinalities — measuring how each confines the candidate space.
pub fn fig10(_: &EvalContext) -> Report {
    // A miniature two-source world: 2 venues x 3 pubs, 4 authors.
    // Source A ids: venues 0..2, pubs 0..6, authors 0..4 (same for B).
    let venue_pub_a = Mapping::association(
        "VenuePubA",
        "publications of venue",
        LdsId(0),
        LdsId(1),
        MappingTable::from_triples([
            (0, 0, 1.0),
            (0, 1, 1.0),
            (0, 2, 1.0),
            (1, 3, 1.0),
            (1, 4, 1.0),
            (1, 5, 1.0),
        ]),
    );
    let pub_venue_b = venue_pub_a.inverse().named("PubVenueB");
    let pub_same = Mapping::same(
        "PubSame",
        LdsId(1),
        LdsId(1),
        MappingTable::from_triples((0..6).map(|p| (p, p, 1.0))),
    );
    // 1:n — venue matching: perfect.
    let venues = nh_match(&venue_pub_a, &pub_same, &pub_venue_b, PathAgg::Relative).unwrap();
    let venues = select(&venues, &Selection::Threshold(0.5));
    // n:1 — publication matching via venues: confined to same venue.
    let venue_same = venues.clone();
    let pub_candidates = nh_match(
        &venue_pub_a.inverse().named("PubVenueA"),
        &venue_same,
        &venue_pub_a.clone().named("VenuePubB"),
        PathAgg::Relative,
    )
    .unwrap();
    // n:m — author matching via publications.
    let author_pub = Mapping::association(
        "AuthorPub",
        "publications of author",
        LdsId(2),
        LdsId(1),
        MappingTable::from_triples([
            (0, 0, 1.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (2, 3, 1.0),
            (3, 4, 1.0),
            (3, 5, 1.0),
        ]),
    );
    let authors = nh_match(
        &author_pub,
        &pub_same,
        &author_pub.inverse().named("PubAuthor"),
        PathAgg::Relative,
    )
    .unwrap();

    let mut r = Report::new(
        "Figure 10. Neighborhood matching w.r.t. semantic cardinality",
        vec!["Case", "Candidates", "All pairs", "Note"],
    );
    r.row(
        "1:n (venue-publication)",
        vec![
            venues.len().to_string(),
            "4".into(),
            "perfect 1:1 venue mapping".into(),
        ],
    );
    r.row(
        "n:1 (publication-venue)",
        vec![
            pub_candidates.len().to_string(),
            "36".into(),
            "confined to same-venue pairs".into(),
        ],
    );
    r.row(
        "n:m (author-publication)",
        vec![
            authors.len().to_string(),
            "16".into(),
            "authors sharing publications".into(),
        ],
    );
    r
}

/// Figure 10 of the paper.
pub const FIG10: Artifact = Artifact {
    id: "fig10",
    group: Group::Figure,
    run: fig10,
    paper: &[],
    claims: &[
        Claim {
            text: "1:n neighborhoods match the two venues one to one",
            holds: |r| r.num("1:n (venue-publication)", "Candidates") == 2.0,
        },
        Claim {
            text: "n:1 and n:m neighborhoods confine the candidates to a fraction of all pairs",
            holds: |r| {
                ["n:1 (publication-venue)", "n:m (author-publication)"]
                    .iter()
                    .all(|case| r.num(case, "Candidates") < r.num(case, "All pairs"))
            },
        },
    ],
};

/// Figure 11: the n:m match workflow — nhMatch and attrMatch executed in
/// parallel, merged, then selected (the Table 6 pipeline on the real
/// scenario).
pub fn fig11(ctx: &EvalContext) -> Report {
    let gold = &ctx.scenario.gold.author_dblp_acm;
    let nh = crate::experiments::table6::nh_mapping(ctx);
    let attr = ctx.author_name_dblp_acm();
    let merged = crate::experiments::table6::merged_mapping(ctx);

    let mut r = Report::new(
        "Figure 11. Match workflow for the n:m case (authors)",
        vec!["Stage", "Correspondences", "Quality"],
    );
    let q = |m: &Mapping| MatchQuality::evaluate(m, gold).to_string();
    r.row(FIG11_NH, vec![nh.len().to_string(), q(&nh)]);
    r.row(
        "attrMatch(name, trigram, 0.8)",
        vec![attr.len().to_string(), q(&attr)],
    );
    r.row(FIG11_MERGED, vec![merged.len().to_string(), q(&merged)]);
    r
}

const FIG11_NH: &str = "nhMatch(AuthorPub, PubSame, PubAuthor)";
const FIG11_MERGED: &str = "merge -> select";

/// Figure 11 of the paper, on the generated scenario.
pub const FIG11: Artifact = Artifact {
    id: "fig11",
    group: Group::Figure,
    run: fig11,
    paper: &[],
    claims: &[Claim {
        text: "merging with the attribute matcher and selecting prunes the neighborhood matcher's candidates",
        holds: |r| r.num(FIG11_MERGED, "Correspondences") < r.num(FIG11_NH, "Correspondences"),
    }],
};
