//! Cross-crate persistence and determinism guarantees.

use moma::core::matchers::{AttributeMatcher, MatchContext, Matcher};
use moma::core::MappingRepository;
use moma::datagen::{Scenario, WorldConfig};
use moma::simstring::SimFn;

#[test]
fn repository_roundtrip_through_disk() {
    let scenario = Scenario::small();
    let ctx = MatchContext::with_repository(&scenario.registry, &scenario.repository);
    let mapping = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.8)
        .execute(&ctx, scenario.ids.pub_dblp, scenario.ids.pub_acm)
        .unwrap();
    let repo = MappingRepository::new();
    repo.store_as("roundtrip.title", mapping.clone());
    // Persist a real association mapping too (different kind).
    repo.store_as(
        "roundtrip.assoc",
        (*scenario.repository.require("DBLP.VenuePub").unwrap()).clone(),
    );

    let dir = std::env::temp_dir().join("moma_integration_persist");
    let _ = std::fs::remove_dir_all(&dir);
    repo.persist_dir(&dir, &scenario.registry).unwrap();

    let restored = MappingRepository::new();
    let loaded = restored.load_dir(&dir, &scenario.registry).unwrap();
    assert_eq!(loaded, 2);
    let back = restored.require("roundtrip.title").unwrap();
    assert_eq!(back.table.pair_set(), mapping.table.pair_set());
    for c in mapping.table.iter() {
        let s = back.table.sim_of(c.domain, c.range).unwrap();
        assert!((s - c.sim).abs() < 1e-9);
    }
    let assoc = restored.require("roundtrip.assoc").unwrap();
    assert!(matches!(
        assoc.kind,
        moma::core::MappingKind::Association(_)
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_pipeline_is_deterministic() {
    let run_once = || {
        let ctx = moma::eval::EvalContext::small();
        moma::eval::experiments::table2::run(&ctx)
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn different_seeds_give_different_worlds_same_shapes() {
    let mut cfg_a = WorldConfig::small();
    cfg_a.seed = 1;
    let mut cfg_b = WorldConfig::small();
    cfg_b.seed = 2;
    let ctx_a = moma::eval::EvalContext::with_config(cfg_a);
    let ctx_b = moma::eval::EvalContext::with_config(cfg_b);

    // Worlds differ...
    let title_a = ctx_a
        .scenario
        .registry
        .lds(ctx_a.scenario.ids.pub_dblp)
        .get(0)
        .unwrap()
        .value(0)
        .unwrap()
        .to_match_string();
    let title_b = ctx_b
        .scenario
        .registry
        .lds(ctx_b.scenario.ids.pub_dblp)
        .get(0)
        .unwrap()
        .value(0)
        .unwrap()
        .to_match_string();
    assert_ne!(title_a, title_b);

    // ...but the evaluation shape is seed-independent: merge beats title
    // matching on precision in both worlds (the Table 2 claim).
    for ctx in [&ctx_a, &ctx_b] {
        let r = moma::eval::experiments::table2::run(ctx);
        let p_merge = r.num("Precision", "Merge");
        let p_title = r.num("Precision", "Title");
        assert!(
            p_merge > p_title,
            "seed-dependent shape: merge {p_merge} vs title {p_title}"
        );
    }
}

#[test]
fn gold_standards_are_internally_consistent() {
    let s = Scenario::small();
    // Venue gold pairs only reference venues that exist.
    let n_venues_d = s.registry.lds(s.ids.venue_dblp).len() as u32;
    let n_venues_a = s.registry.lds(s.ids.venue_acm).len() as u32;
    for (d, a) in s.gold.venue_dblp_acm.iter() {
        assert!(d < n_venues_d);
        assert!(a < n_venues_a);
    }
    // Publication golds: DBLP-GS ∘ GS-ACM ⊆ DBLP-ACM (transitivity).
    let dg = &s.gold.pub_dblp_gs;
    let ga = &s.gold.pub_gs_acm;
    let da = &s.gold.pub_dblp_acm;
    for (d, g) in dg.iter() {
        for (g2, a) in ga.iter() {
            if g == g2 {
                assert!(
                    da.contains(d, a),
                    "gold transitivity violated: ({d},{g}) + ({g},{a})"
                );
            }
        }
    }
}
