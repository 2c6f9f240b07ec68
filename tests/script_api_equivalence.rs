//! The iFuice script language and the direct Rust API must agree.

use moma::core::exec::Parallelism;
use moma::core::matchers::neighborhood::nh_match;
use moma::core::matchers::{AttributeMatcher, MatchContext, Matcher};
use moma::core::ops::compose::PathAgg;
use moma::core::ops::merge::{merge, MergeFn, MissingPolicy};
use moma::core::ops::select::{select, select_constraint, Selection};
use moma::core::Mapping;
use moma::datagen::{Scenario, WorldConfig};
use moma::eval::{EvalContext, MatchQuality};
use moma::ifuice::script::{parser, run_script, Interpreter, Value};
use moma::server::{protocol, Engine};
use moma::simstring::SimFn;

fn assert_same_mapping(a: &moma::core::Mapping, b: &moma::core::Mapping) {
    assert_eq!(a.table.pair_set(), b.table.pair_set());
    for c in a.table.iter() {
        let s = b.table.sim_of(c.domain, c.range).unwrap();
        assert!(
            (s - c.sim).abs() < 1e-9,
            "pair ({},{}): {} vs {}",
            c.domain,
            c.range,
            c.sim,
            s
        );
    }
}

#[test]
fn section_4_3_script_equals_api() {
    let scenario = Scenario::small();

    // Script execution.
    let script_result = run_script(
        r#"
        $CoAuthSim = nhMatch(DBLP.CoAuthor, DBLP.AuthorAuthor, DBLP.CoAuthor);
        $NameSim = attrMatch(DBLP.Author, DBLP.Author, Trigram, 0.5, "[name]", "[name]");
        $Merged = merge($CoAuthSim, $NameSim, Average, Zero);
        $Result = select($Merged, "[domain.id]<>[range.id]");
        RETURN $Result;
        "#,
        &scenario.registry,
        &scenario.repository,
    )
    .unwrap();
    let via_script = script_result.as_mapping().unwrap();

    // The same pipeline through the Rust API.
    let coauthor = scenario.repository.require("DBLP.CoAuthor").unwrap();
    let identity = scenario.repository.require("DBLP.AuthorAuthor").unwrap();
    let coauth_sim = nh_match(&coauthor, &identity, &coauthor, PathAgg::Relative).unwrap();
    let ctx = MatchContext::with_repository(&scenario.registry, &scenario.repository);
    let name_sim = AttributeMatcher::new("name", "name", moma::simstring::SimFn::Trigram, 0.5)
        .execute(&ctx, scenario.ids.author_dblp, scenario.ids.author_dblp)
        .unwrap();
    let merged = merge(&[&coauth_sim, &name_sim], MergeFn::Avg, MissingPolicy::Zero).unwrap();
    let via_api = select_constraint(&merged, |d, r, _| d != r);

    assert_same_mapping(via_script, &via_api);
}

#[test]
fn script_compose_equals_api_compose() {
    use moma::core::ops::compose::PathCombine;
    let scenario = Scenario::small();
    let venue_pub = scenario.repository.require("DBLP.VenuePub").unwrap();
    let pub_author = scenario.repository.require("DBLP.PubAuthor").unwrap();
    for (script_fg, f, g) in [
        ("Min, Relative", PathCombine::Min, PathAgg::Relative),
        // The serve protocol's spellings: one vocabulary for both front
        // ends (the interpreter used to refuse both names).
        (
            "\"weighted:0.3\", \"relative-left\"",
            PathCombine::Weighted(0.3),
            PathAgg::RelativeLeft,
        ),
    ] {
        let script_result = run_script(
            &format!(
                "RETURN compose(get(\"DBLP.VenuePub\"), get(\"DBLP.PubAuthor\"), {script_fg});"
            ),
            &scenario.registry,
            &scenario.repository,
        )
        .unwrap();
        let via_script = script_result.as_mapping().unwrap();
        let via_api = moma::core::ops::compose::compose(&venue_pub, &pub_author, f, g).unwrap();
        assert_same_mapping(via_script, &via_api);
        // Semantic check: venue -> authors publishing there.
        assert!(!via_api.is_empty());
    }
}

#[test]
fn script_selection_builders_equal_api() {
    let scenario = Scenario::small();
    let ctx = MatchContext::with_repository(&scenario.registry, &scenario.repository);
    let mapping = AttributeMatcher::new("title", "title", moma::simstring::SimFn::Trigram, 0.4)
        .execute(&ctx, scenario.ids.pub_dblp, scenario.ids.pub_acm)
        .unwrap();
    scenario.repository.store_as("test.m", mapping.clone());

    for (script_sel, api_sel) in [
        (
            "threshold(0.8)",
            moma::core::ops::select::Selection::Threshold(0.8),
        ),
        (
            "bestN(1, domain)",
            moma::core::ops::select::Selection::best1(),
        ),
        (
            "best1delta(0.05, abs, range)",
            moma::core::ops::select::Selection::Best1Delta {
                delta: 0.05,
                relative: false,
                side: moma::core::ops::select::Side::Range,
            },
        ),
    ] {
        let src = format!("RETURN select(get(\"test.m\"), {script_sel});");
        let via_script = run_script(&src, &scenario.registry, &scenario.repository).unwrap();
        let via_api = moma::core::ops::select::select(&mapping, &api_sel);
        assert_same_mapping(via_script.as_mapping().unwrap(), &via_api);
    }
}

/// The Table 2 pipeline — title + authors + year matchers, `merge(…,
/// Average, Zero)`, `select(…, 0.8)` — as a script and as direct calls.
#[test]
fn workflow_engine_reproduces_manual_pipeline() {
    let scenario = Scenario::small();
    let script_result = run_script(
        r#"
        $Title = attrMatch(DBLP.Publication, ACM.Publication, Trigram, 0.45, "[title]", "[title]");
        $Authors = attrMatch(DBLP.Publication, ACM.Publication, Trigram, 0.45, "[authors]", "[authors]");
        $Year = attrMatch(DBLP.Publication, ACM.Publication, Year, 1.0, "[year]", "[year]");
        $Merged = merge($Title, $Authors, $Year, Average, Zero);
        RETURN select($Merged, threshold(0.8));
        "#,
        &scenario.registry,
        &scenario.repository,
    )
    .unwrap();
    let via_script = script_result.as_mapping().unwrap();

    let ctx = MatchContext::with_repository(&scenario.registry, &scenario.repository);
    let (d, a) = (scenario.ids.pub_dblp, scenario.ids.pub_acm);
    let matched = |attr: &str, sim: SimFn, threshold: f64| {
        let matcher = AttributeMatcher::new(attr, attr, sim, threshold);
        matcher.execute(&ctx, d, a).unwrap()
    };
    let title = matched("title", SimFn::Trigram, 0.45);
    let authors = matched("authors", SimFn::Trigram, 0.45);
    let year = matched("year", SimFn::Year(0), 1.0);
    let merged = merge(
        &[&title, &authors, &year],
        MergeFn::Avg,
        MissingPolicy::Zero,
    )
    .unwrap();
    let via_api = select(&merged, &Selection::Threshold(0.8));

    assert_same_mapping(via_script, &via_api);
    let q = MatchQuality::evaluate(via_script, &scenario.gold.pub_dblp_acm);
    assert!(q.f1() > 0.9, "workflow quality too low: {q}");
}

/// A second script consumes the mapping a first one stored.
#[test]
fn repository_reuse_between_workflows() {
    let scenario = Scenario::small();
    let run = |src: &str| run_script(src, &scenario.registry, &scenario.repository).unwrap();
    run(
        r#"store(attrMatch(DBLP.Publication, ACM.Publication, Trigram, 0.8, "[title]", "[title]"), "shared.title");"#,
    );
    let refined = run(r#"RETURN select(get("shared.title"), bestN(1, domain));"#);
    let refined = refined.as_mapping().unwrap();

    let shared = scenario.repository.require("shared.title").unwrap();
    assert_same_mapping(refined, &select(&shared, &Selection::best1()));
    assert!(!refined.is_empty());
    for (_, count) in refined.table.domain_degrees() {
        assert_eq!(
            count, 1,
            "best-1 must leave one correspondence per instance"
        );
    }
}

/// The attribute a measure is matched on in the lowering test: years are
/// read from `year`, everything else from `title`.
fn attr_for(sim: &str) -> &'static str {
    if sim.starts_with("year") {
        "year"
    } else {
        "title"
    }
}

/// The wire `match` and the script's `attrMatch` lower to the same
/// matcher: the same rows, bit for bit, for every spelling of a measure,
/// and the same refusals of a measure or threshold the core rejects.
#[test]
fn wire_and_script_lower_to_the_same_matcher() {
    let scenario = Scenario::small();
    let mut engine = Engine::new(scenario.registry.clone(), Parallelism::sequential());
    let (d, r) = ("Publication@DBLP", "Publication@ACM");
    let mut wire = |sim: &str, t: f64| {
        let attr = attr_for(sim);
        let reply = engine.execute(&protocol::match_request("m", d, r, attr, attr, sim, t));
        let ok = reply.get("ok").and_then(|v| v.as_bool()) == Some(true);
        ok.then(|| engine.repository().require("m").unwrap())
    };
    let script = |sim: &str, t: f64| {
        let attr = attr_for(sim);
        let text = format!(
            r#"RETURN attrMatch(DBLP.Publication, ACM.Publication, "{sim}", $T, "[{attr}]", "[{attr}]");"#
        );
        let mut interp = Interpreter::new(&scenario.registry, &scenario.repository);
        interp.bind("T", Value::Num(t));
        let value = interp.run(&parser::parse(&text).unwrap()).ok()?;
        Some(value.as_mapping().unwrap().clone())
    };
    let bits = |m: &moma::core::Mapping| -> Vec<(u32, u32, u64)> {
        m.table
            .iter()
            .map(|c| (c.domain, c.range, c.sim.to_bits()))
            .collect()
    };
    let sims = [
        "trigram",
        "tfidf",
        "TfIdf",
        "jaro",
        "personname",
        "year:1",
        "qgramjaccard:2",
    ];
    for sim in sims {
        for t in [0.5, 0.8] {
            let via_wire = wire(sim, t).unwrap_or_else(|| panic!("wire refused {sim} at {t}"));
            let via_script =
                script(sim, t).unwrap_or_else(|| panic!("script refused {sim} at {t}"));
            assert_eq!(bits(&via_wire), bits(&via_script), "{sim} at {t}");
            assert!(!via_wire.is_empty(), "{sim} at {t} matched nothing");
        }
    }
    for (sim, t) in [
        ("qgram:0", 0.5),
        ("year:x", 0.5),
        ("nosuch", 0.5),
        ("trigram", -0.1),
        ("trigram", 1.5),
    ] {
        assert!(wire(sim, t).is_none(), "wire accepted {sim} at {t}");
        assert!(script(sim, t).is_none(), "script accepted {sim} at {t}");
    }
}

/// The Rust construction each `Paper.*` mapping of the paper workflow
/// script (`crates/eval/workflows/paper.ifuice`) replaced: the eval's
/// attribute-matcher list, its venue neighbourhood and the per-table
/// neighbourhood and merge builders of Tables 2–8, kept here as the
/// reference.
fn paper_workflows_in_rust(scenario: &Scenario) -> Vec<(&'static str, Mapping)> {
    use moma::core::ops::compose::{compose, PathCombine};
    use moma::core::ops::setops::{intersection, union};
    use moma::table::MappingTable;

    let ids = scenario.ids;
    let ctx = MatchContext::with_repository(&scenario.registry, &scenario.repository);
    let attr = |(domain, range), attribute: &str, sim: SimFn, threshold: f64| {
        let matcher = AttributeMatcher::new(attribute, attribute, sim, threshold);
        matcher.execute(&ctx, domain, range).unwrap()
    };
    let assoc = |name: &str| scenario.repository.require(name).unwrap();
    let nh = |asso1: &str, same: &Mapping, asso2: &str, g: PathAgg| {
        nh_match(&assoc(asso1), same, &assoc(asso2), g).unwrap()
    };
    let threshold = |m: &Mapping, t: f64| select(m, &Selection::Threshold(t));
    let (da, dg, ga) = (
        (ids.pub_dblp, ids.pub_acm),
        (ids.pub_dblp, ids.pub_gs),
        (ids.pub_gs, ids.pub_acm),
    );
    let authors_da = (ids.author_dblp, ids.author_acm);

    let title_da = attr(da, "title", SimFn::Trigram, 0.8);
    let title_low_da = attr(da, "title", SimFn::Trigram, 0.45);
    let title_dg = attr(dg, "title", SimFn::Trigram, 0.75);
    let title_low_dg = attr(dg, "title", SimFn::Trigram, 0.45);
    let title_ga = attr(ga, "title", SimFn::Trigram, 0.75);
    let title_low_ga = attr(ga, "title", SimFn::Trigram, 0.45);
    let author_list_da = attr(da, "authors", SimFn::Trigram, 0.8);
    let author_list_low_da = attr(da, "authors", SimFn::Trigram, 0.45);
    let year_da = attr(da, "year", SimFn::Year(0), 1.0);
    let name_da = attr(authors_da, "name", SimFn::Trigram, 0.8);
    let name_low_da = attr(authors_da, "name", SimFn::Trigram, 0.3);
    let author_dg = attr(
        (ids.author_dblp, ids.author_gs),
        "name",
        SimFn::PersonName,
        0.85,
    );
    let author_ga = attr(
        (ids.author_gs, ids.author_acm),
        "name",
        SimFn::PersonName,
        0.85,
    );

    let table2 = merge(
        &[&title_low_da, &author_list_low_da, &year_da],
        MergeFn::Avg,
        MissingPolicy::Zero,
    )
    .unwrap();
    let table2 = threshold(&table2, 0.8);

    let links = assoc("GS.LinksACM");
    let via = |a: &Mapping, b: &Mapping| compose(a, b, PathCombine::Min, PathAgg::Max).unwrap();
    let max_merge = |direct: &Mapping, composed: &Mapping| {
        merge(&[direct, composed], MergeFn::Max, MissingPolicy::Ignore).unwrap()
    };
    let compose_dg = via(&title_da, &links.inverse());
    let compose_da = via(&title_dg, &links);
    let compose_ga = via(&title_dg.inverse(), &title_da);

    let venue_nh = nh(
        "DBLP.VenuePub",
        &title_da,
        "ACM.PubVenue",
        PathAgg::Relative,
    );
    let venue_same = select(&venue_nh, &Selection::best1());

    let pub_nh_da = nh(
        "DBLP.PubVenue",
        &venue_same,
        "ACM.VenuePub",
        PathAgg::Relative,
    );
    // Intersection keeps min(sim), the tiny neighbourhood score; the
    // title similarity is restored.
    let mut table5 = intersection(&title_da, &pub_nh_da).unwrap();
    let rows: Vec<(u32, u32, f64)> = table5
        .table
        .iter()
        .map(|c| {
            let sim = title_da.table.sim_of(c.domain, c.range).unwrap_or(c.sim);
            (c.domain, c.range, sim)
        })
        .collect();
    table5.table = MappingTable::from_triples(rows);

    let author_nh_da = nh(
        "DBLP.AuthorPub",
        &title_da,
        "ACM.PubAuthor",
        PathAgg::Relative,
    );
    let author_nh25_da = threshold(&author_nh_da, 0.25);
    let table6 = merge(
        &[&name_low_da, &author_nh25_da],
        MergeFn::Min,
        MissingPolicy::Zero,
    )
    .unwrap();
    let table6 = threshold(&table6, 0.35);

    let confirmed = |title: &Mapping, title_low: &Mapping, nh: &Mapping| {
        let confirmed = intersection(title_low, &threshold(nh, 0.4)).unwrap();
        union(title, &confirmed).unwrap()
    };
    let pub_nh_dg = nh(
        "DBLP.PubAuthor",
        &author_dg,
        "GS.AuthorPub",
        PathAgg::RelativeLeft,
    );
    let pub_nh_ga = nh(
        "GS.PubAuthor",
        &author_ga,
        "ACM.AuthorPub",
        PathAgg::RelativeLeft,
    );

    vec![
        ("Paper.AuthorNh25DA", author_nh25_da),
        ("Paper.AuthorNhDA", author_nh_da),
        ("Paper.AuthorsDA", author_list_da),
        ("Paper.ComposeDA", compose_da.clone()),
        ("Paper.ComposeDG", compose_dg.clone()),
        ("Paper.ComposeGA", compose_ga.clone()),
        ("Paper.MergeDA", max_merge(&title_da, &compose_da)),
        ("Paper.MergeDG", max_merge(&title_dg, &compose_dg)),
        ("Paper.MergeGA", max_merge(&links, &compose_ga)),
        ("Paper.NameDA", name_da),
        ("Paper.PubNh35DG", threshold(&pub_nh_dg, 0.35)),
        ("Paper.PubNh35GA", threshold(&pub_nh_ga, 0.35)),
        ("Paper.PubNhDA", pub_nh_da),
        ("Paper.Table2", table2),
        ("Paper.Table5", table5),
        ("Paper.Table6", table6),
        (
            "Paper.Table7",
            confirmed(&title_dg, &title_low_dg, &pub_nh_dg),
        ),
        (
            "Paper.Table8",
            confirmed(&title_ga, &title_low_ga, &pub_nh_ga),
        ),
        ("Paper.TitleDA", title_da.clone()),
        ("Paper.TitleDG", title_dg.clone()),
        ("Paper.TitleGA", title_ga),
        ("Paper.Venue50", threshold(&venue_nh, 0.5)),
        ("Paper.Venue80", threshold(&venue_nh, 0.8)),
        ("Paper.VenueBest1", venue_same),
        ("Paper.YearDA", year_da),
    ]
}

/// The paper workflow script stores exactly the mappings the Rust
/// construction built, row for row and bit for bit, on four generated
/// worlds (`repro`'s diff compares rounded percentages at one seed).
#[test]
fn paper_script_is_the_rust_workflows_bit_for_bit() {
    let bits = |m: &Mapping| -> Vec<(u32, u32, u64)> {
        m.table
            .iter()
            .map(|c| (c.domain, c.range, c.sim.to_bits()))
            .collect()
    };
    for seed in [7, 42, 1, 2] {
        let ctx = EvalContext::with_config(WorldConfig {
            seed,
            ..WorldConfig::small()
        });
        let reference = paper_workflows_in_rust(&ctx.scenario);
        ctx.mapping("Paper.Table2");
        let stored: Vec<String> = ctx.scenario.repository.names();
        let stored: Vec<&str> = stored
            .iter()
            .map(String::as_str)
            .filter(|name| name.starts_with("Paper."))
            .collect();
        let expected: Vec<&str> = reference.iter().map(|(name, _)| *name).collect();
        assert_eq!(stored, expected, "seed {seed}: the names the script stores");
        for (name, mapping) in &reference {
            let via_script = ctx.mapping(name);
            assert_eq!(bits(&via_script), bits(mapping), "seed {seed}: {name}");
            assert!(!mapping.is_empty(), "seed {seed}: {name} is empty");
        }
    }
}
