//! Figures with concrete numbers: re-executed, the paper's values claimed.

use moma_core::matchers::neighborhood::nh_match;
use moma_core::ops::compose::{compose, PathAgg, PathCombine};
use moma_core::ops::merge::{merge, MergeFn, MissingPolicy};
use moma_core::Mapping;
use moma_model::LdsId;
use moma_simstring::ngram::trigram;
use moma_simstring::numeric::year_window;
use moma_table::MappingTable;

use crate::artifact::{Artifact, Claim, Group};
use crate::report::Report;
use crate::setup::EvalContext;

const MADHAVAN: &str = "conf/VLDB/MadhavanBR01";
const CHIRKOVA_CONF: &str = "conf/VLDB/ChirkovaHS01";
const CHIRKOVA_JOURNAL: &str = "journals/VLDB/ChirkovaHS02";

/// Figure 1: the DBLP/ACM publication instances and their same-mapping.
///
/// We rebuild the three DBLP and three ACM instances from the figure
/// and compute the Avg-merge of title trigram and windowed year
/// similarity; pairs below 0.6 are not correspondences.
pub fn fig1(_: &EvalContext) -> Report {
    let view_selection = "A formal perspective on the view selection problem";
    let dblp = [
        (MADHAVAN, "Generic Schema Matching with Cupid", 2001u16),
        (CHIRKOVA_CONF, view_selection, 2001),
        (CHIRKOVA_JOURNAL, view_selection, 2002),
    ];
    let acm = [
        ("P-672191", "Generic Schema Matching with Cupid", 2001u16),
        ("P-672216", view_selection, 2001),
        ("P-641272", view_selection, 2002),
    ];
    let mut r = Report::new(
        "Figure 1. Publication instances and same-mapping (DBLP vs ACM)",
        vec!["DBLP key", acm[0].0, acm[1].0, acm[2].0],
    );
    for (dblp_key, dblp_title, dblp_year) in dblp {
        let sims = acm.iter().map(|&(_, acm_title, acm_year)| {
            let sim = (trigram(dblp_title, acm_title) + year_window(dblp_year, acm_year, 1)) / 2.0;
            if sim >= 0.6 {
                format!("{sim:.2}")
            } else {
                "-".into()
            }
        });
        r.row(dblp_key, sims.collect());
    }
    r
}

/// Figure 1 of the paper.
pub const FIG1: Artifact = Artifact {
    id: "fig1",
    group: Group::Figure,
    run: fig1,
    paper: &[
        (MADHAVAN, "P-672191", 1.0),
        (CHIRKOVA_CONF, "P-672216", 1.0),
        (CHIRKOVA_CONF, "P-641272", 0.6),
        (CHIRKOVA_JOURNAL, "P-672216", 0.6),
        (CHIRKOVA_JOURNAL, "P-641272", 1.0),
    ],
    claims: &[
        Claim {
            text: "the three true pairs match with similarity 1",
            holds: |r| {
                r.num(MADHAVAN, "P-672191") == 1.0
                    && r.num(CHIRKOVA_CONF, "P-672216") == 1.0
                    && r.num(CHIRKOVA_JOURNAL, "P-641272") == 1.0
            },
        },
        Claim {
            text: "the conference/journal twins are correspondences too, at a reduced similarity",
            holds: |r| {
                let reduced = |sim: f64| 0.0 < sim && sim < 1.0;
                reduced(r.num(CHIRKOVA_CONF, "P-641272"))
                    && reduced(r.num(CHIRKOVA_JOURNAL, "P-672216"))
            },
        },
        Claim {
            text: "unrelated publications are not correspondences",
            holds: |r| {
                r.cell(MADHAVAN, "P-672216") == Some("-")
                    && r.cell(CHIRKOVA_CONF, "P-672191") == Some("-")
            },
        },
    ],
};

/// Figure 4: the merge operator worked example.
pub fn fig4(_: &EvalContext) -> Report {
    // a1=1, a2=2, a3=3; b1=11, b2=12, b3=13, b5=15.
    let map1 = Mapping::same(
        "map1",
        LdsId(0),
        LdsId(1),
        MappingTable::from_triples([(1, 11, 1.0), (2, 12, 0.8)]),
    );
    let map2 = Mapping::same(
        "map2",
        LdsId(0),
        LdsId(1),
        MappingTable::from_triples([(1, 11, 0.6), (1, 15, 1.0), (3, 13, 0.9)]),
    );
    let min0 = merge(&[&map1, &map2], MergeFn::Min, MissingPolicy::Zero).expect("merge");
    let avg = merge(&[&map1, &map2], MergeFn::Avg, MissingPolicy::Ignore).expect("merge");
    let avg0 = merge(&[&map1, &map2], MergeFn::Avg, MissingPolicy::Zero).expect("merge");
    let prefer = merge(&[&map1, &map2], MergeFn::Prefer(0), MissingPolicy::Ignore).expect("merge");

    let mut r = Report::new(
        "Figure 4. Merge operator worked example",
        vec!["Pair", "Min-0", "Avg", "Avg-0", "Prefer map1"],
    );
    let names = [
        (1u32, 11u32, "a1-b1"),
        (2, 12, "a2-b2"),
        (3, 13, "a3-b3"),
        (1, 15, "a1-b5"),
    ];
    for (a, b, label) in names {
        let cell = |m: &Mapping| {
            m.table
                .sim_of(a, b)
                .map(|s| format!("{s:.2}"))
                .unwrap_or_else(|| "-".into())
        };
        r.row(
            label,
            vec![cell(&min0), cell(&avg), cell(&avg0), cell(&prefer)],
        );
    }
    r
}

/// Figure 4 of the paper: its four result tables.
pub const FIG4: Artifact = Artifact {
    id: "fig4",
    group: Group::Figure,
    run: fig4,
    paper: &[
        ("a1-b1", "Min-0", 0.6),
        ("a1-b1", "Avg", 0.8),
        ("a2-b2", "Avg", 0.8),
        ("a3-b3", "Avg", 0.9),
        ("a1-b5", "Avg", 1.0),
        ("a1-b1", "Avg-0", 0.8),
        ("a2-b2", "Avg-0", 0.4),
        ("a3-b3", "Avg-0", 0.45),
        ("a1-b5", "Avg-0", 0.5),
        ("a1-b1", "Prefer map1", 1.0),
        ("a2-b2", "Prefer map1", 0.8),
        ("a3-b3", "Prefer map1", 0.9),
    ],
    claims: &[
        Claim {
            text: "every merged similarity equals the paper's",
            holds: |r| r.agrees_with(FIG4.paper, 0.005),
        },
        Claim {
            text: "Min-0 keeps only the pair both mappings hold; Prefer map1 drops the pair a1 already has a partner for",
            holds: |r| {
                let absent = |pair, f| r.cell(pair, f) == Some("-");
                ["a2-b2", "a3-b3", "a1-b5"].iter().all(|pair| absent(pair, "Min-0"))
                    && absent("a1-b5", "Prefer map1")
            },
        },
    ],
};

/// Figure 5: the auxiliary values n(a), n(b) and s(a,b) of the Relative
/// similarity functions, computed for the Figure 6 inputs.
pub fn fig5(_: &EvalContext) -> Report {
    let (map1, map2) = fig6_inputs();
    let n_a = map1.table.domain_degrees();
    let n_b = map2.table.range_degrees();
    let mut r = Report::new(
        "Figure 5. Auxiliary values for the Relative similarity functions",
        vec!["Object", "n(.)"],
    );
    r.row("n(v1)", vec![n_a[&1].to_string()]);
    r.row("n(v2)", vec![n_a[&2].to_string()]);
    r.row("n(v'1)", vec![n_b[&11].to_string()]);
    r.row("n(v'2)", vec![n_b[&12].to_string()]);
    r.note("s(a,b) sums the per-path similarities (see Figure 6 results)");
    r
}

/// Figure 5 of the paper, on the Figure 6 inputs.
pub const FIG5: Artifact = Artifact {
    id: "fig5",
    group: Group::Figure,
    run: fig5,
    paper: &[
        ("n(v1)", "n(.)", 3.0),
        ("n(v2)", "n(.)", 2.0),
        ("n(v'1)", "n(.)", 2.0),
        ("n(v'2)", "n(.)", 1.0),
    ],
    claims: &[Claim {
        text: "n(a) and n(b) count the correspondences of each object as in the paper",
        holds: |r| r.agrees_with(FIG5.paper, 0.0),
    }],
};

fn fig6_inputs() -> (Mapping, Mapping) {
    // v1=1, v2=2; p1=101, p2=102, p3=103; v'1=11, v'2=12.
    let map1 = Mapping::association(
        "map1",
        "publications of venue",
        LdsId(0),
        LdsId(1),
        MappingTable::from_triples([
            (1, 101, 1.0),
            (1, 102, 1.0),
            (1, 103, 0.6),
            (2, 102, 0.6),
            (2, 103, 1.0),
        ]),
    );
    let map2 = Mapping::association(
        "map2",
        "venue of publication",
        LdsId(1),
        LdsId(2),
        MappingTable::from_triples([(101, 11, 1.0), (102, 11, 1.0), (103, 12, 1.0)]),
    );
    (map1, map2)
}

/// Figure 6: the compose operator worked example (f = Min, g = Relative).
pub fn fig6(_: &EvalContext) -> Report {
    let (map1, map2) = fig6_inputs();
    let result = compose(&map1, &map2, PathCombine::Min, PathAgg::Relative).expect("compose");
    let derivations = [
        (1u32, 11u32, "v1-v'1 = 2*(1+1)/(3+2)"),
        (1, 12, "v1-v'2 = 2*0.6/(3+1)"),
        (2, 11, "v2-v'1 = 2*0.6/(2+2)"),
        (2, 12, "v2-v'2 = 2*1/(2+1)"),
    ];
    let mut r = Report::new(
        "Figure 6. Compose operator worked example (f=Min, g=Relative)",
        vec!["Pair", "Sim", "Derivation"],
    );
    for (a, b, derivation) in derivations {
        let sim = result.table.sim_of(a, b);
        let sim = sim.map_or("-".into(), |s| format!("{s:.2}"));
        r.row(format!("({a},{b})"), vec![sim, derivation.to_owned()]);
    }
    r
}

/// Figure 6 of the paper: its four output similarities.
pub const FIG6: Artifact = Artifact {
    id: "fig6",
    group: Group::Figure,
    run: fig6,
    paper: &[
        ("(1,11)", "Sim", 0.8),
        ("(1,12)", "Sim", 0.3),
        ("(2,11)", "Sim", 0.3),
        ("(2,12)", "Sim", 0.67),
    ],
    claims: &[Claim {
        text: "every composed similarity equals the paper's; Relative rewards the pair reached via two paths",
        holds: |r| r.agrees_with(FIG6.paper, 0.005),
    }],
};

/// Figure 9: the neighborhood matcher sample execution on the Figure 1
/// publication same-mapping.
pub fn fig9(_: &EvalContext) -> Report {
    // DBLP venues: conf/VLDB/2001=0, journals/VLDB/2002=1.
    // DBLP pubs: MadhavanBR01=0, ChirkovaHS01=1, ChirkovaHS02=2.
    // ACM pubs: P-672191=0, P-672216=1, P-641272=2.
    // ACM venues: V-645927=0, V-641268=1.
    let asso1 = Mapping::association(
        "VenuePub@DBLP",
        "publications of venue",
        LdsId(0),
        LdsId(1),
        MappingTable::from_triples([(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)]),
    );
    let same = Mapping::same(
        "PubSame",
        LdsId(1),
        LdsId(2),
        MappingTable::from_triples([
            (0, 0, 1.0),
            (1, 1, 1.0),
            (1, 2, 0.6),
            (2, 1, 0.6),
            (2, 2, 1.0),
        ]),
    );
    let asso2 = Mapping::association(
        "PubVenue@ACM",
        "venue of publication",
        LdsId(2),
        LdsId(3),
        MappingTable::from_triples([(0, 0, 1.0), (1, 0, 1.0), (2, 1, 1.0)]),
    );
    let result = nh_match(&asso1, &same, &asso2, PathAgg::Relative).expect("nhMatch");
    let (venue_d, venue_a) = (VENUES_DBLP, ["V-645927", "V-641268"]);
    let mut r = Report::new(
        "Figure 9. Neighborhood matcher execution for DBLP venues",
        vec!["DBLP venue", venue_a[0], venue_a[1]],
    );
    for (d, label) in venue_d.iter().enumerate() {
        let sims = (0..2).map(|a| {
            let sim = result.table.sim_of(d as u32, a);
            sim.map_or("-".into(), |s| format!("{s:.2}"))
        });
        r.row(*label, sims.collect());
    }
    r
}

const VENUES_DBLP: [&str; 2] = ["conf/VLDB/2001", "journals/VLDB/2002"];

/// Figure 9 of the paper: its four venue similarities.
pub const FIG9: Artifact = Artifact {
    id: "fig9",
    group: Group::Figure,
    run: fig9,
    paper: &[
        (VENUES_DBLP[0], "V-645927", 0.8),
        (VENUES_DBLP[0], "V-641268", 0.3),
        (VENUES_DBLP[1], "V-645927", 0.3),
        (VENUES_DBLP[1], "V-641268", 0.67),
    ],
    claims: &[Claim {
        text: "every venue similarity equals the paper's: the true venue pairs win",
        holds: |r| r.agrees_with(FIG9.paper, 0.005),
    }],
};
