//! The iFuice script language and the direct Rust API must agree.

use moma::core::exec::Parallelism;
use moma::core::matchers::neighborhood::nh_match;
use moma::core::matchers::{AttributeMatcher, MatchContext, Matcher};
use moma::core::ops::compose::PathAgg;
use moma::core::ops::merge::{merge, MergeFn, MissingPolicy};
use moma::core::ops::select::{select, select_constraint, Selection};
use moma::datagen::Scenario;
use moma::eval::MatchQuality;
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
