//! Incremental ≡ full recompute, property-tested across random worlds
//! and random delta sequences.
//!
//! The delta engine (`moma_core::delta`) promises that feeding applied
//! source deltas through `DeltaMatchState::apply` yields a mapping
//! **bit-for-bit identical** — pair set, similarity scores, row order —
//! to re-executing the matcher from scratch on the mutated registry.
//! These properties drive that promise across randomly generated datagen
//! scenarios, random delta streams (adds / removes / attribute updates,
//! deliberately including duplicate removals and no-op updates), every
//! resolved candidate plan plus the full-re-match fallbacks (the `PLANS`
//! table), self-mappings, and thread counts 1 and 8 (the same extremes
//! CI's MOMA_THREADS matrix pins for the whole suite).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use moma::core::blocking::Blocking;
use moma::core::exec::Parallelism;
use moma::core::matchers::{AttributeMatcher, MatchContext, Matcher};
use moma::core::ops::compose::{PathAgg, PathCombine};
use moma::core::{MappingRepository, Recipe};
use moma::datagen::{DeltaStream, EvolveConfig, Scenario, WorldConfig};
use moma::model::{LdsId, SourceDelta};
use moma::simstring::SimFn;
use proptest::prelude::*;

/// Thread counts under test; 1 must hit the sequential path, 8 must
/// shard (min_shard_size is forced to 1).
const THREADS: [usize; 2] = [1, 8];

/// A micro random world (see tests/parallel_equivalence.rs for the
/// sizing rationale). Worlds are cached by seed and registries *cloned*
/// per case — delta application mutates them.
fn random_world(seed: u64) -> Arc<Scenario> {
    static CACHE: OnceLock<Mutex<HashMap<u64, Arc<Scenario>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = cache.lock().unwrap();
    guard
        .entry(seed)
        .or_insert_with(|| {
            let mut cfg = WorldConfig::small();
            cfg.seed = seed;
            cfg.start_year = 2001;
            cfg.end_year = 2001;
            cfg.person_pool = 60;
            cfg.vldb_papers = (3, 5);
            cfg.sigmod_papers = (2, 4);
            cfg.tods = (1, (1, 2));
            cfg.vldbj = (1, (1, 2));
            cfg.record = (1, (1, 3));
            cfg.gs_noise_entries = 5 + (seed % 4) as usize * 5;
            Arc::new(Scenario::generate(cfg))
        })
        .clone()
}

fn par(threads: usize) -> Parallelism {
    Parallelism::new(threads).with_min_shard_size(1)
}

/// A churny delta stream with plenty of junk ops (duplicate removals,
/// no-op updates) — the robustness half of the property.
fn stream(seed: u64, churn: f64, lds: LdsId) -> DeltaStream {
    let mut cfg = EvolveConfig::with_churn(churn);
    cfg.seed = seed;
    cfg.junk_prob = 0.3;
    cfg.burst_prob = 0.2;
    cfg.burst_factor = 4.0;
    DeltaStream::new(cfg, lds)
}

/// The matcher configurations under test, by name: each resolved
/// candidate plan the delta engine patches incrementally, and the two
/// kinds of configuration it must re-match in full (`incremental ==
/// false`).
struct Plan {
    name: &'static str,
    matcher: fn() -> AttributeMatcher,
    incremental: bool,
}

fn title(sim: SimFn, t: f64, blocking: Blocking) -> AttributeMatcher {
    AttributeMatcher::new("title", "title", sim, t).with_blocking(blocking)
}

const PLANS: [Plan; 7] = [
    Plan {
        name: "allpairs-trigram",
        matcher: || title(SimFn::Trigram, 0.7, Blocking::AllPairs),
        incremental: true,
    },
    Plan {
        name: "threshold-trigram",
        matcher: || title(SimFn::Trigram, 0.7, Blocking::Threshold),
        incremental: true,
    },
    Plan {
        name: "threshold-qgramjaccard2",
        matcher: || title(SimFn::QgramJaccard(2), 0.6, Blocking::Threshold),
        incremental: true,
    },
    Plan {
        name: "prefix-trigram",
        matcher: || title(SimFn::Trigram, 0.6, Blocking::TrigramPrefix),
        incremental: true,
    },
    // No q-gram bound: `Threshold` falls back to all pairs.
    Plan {
        name: "fallback-jarowinkler",
        matcher: || title(SimFn::JaroWinkler, 0.9, Blocking::Threshold),
        incremental: true,
    },
    // The corpus shifts under every delta.
    Plan {
        name: "tfidf",
        matcher: || AttributeMatcher::tfidf("title", "title", 0.6),
        incremental: false,
    },
    // The Dice floor is not exact for Jaro in either probe direction.
    Plan {
        name: "prefix-jaro",
        matcher: || title(SimFn::Jaro, 0.9, Blocking::TrigramPrefix),
        incremental: false,
    },
];

fn plan(name: &str) -> &'static Plan {
    PLANS
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no plan named {name}"))
}

/// Drive `steps` delta batches (alternating between the range and the
/// domain source; a self-mapping gets every batch on both sides) through
/// the delta engine at every thread count, asserting bit-identity with a
/// full re-match after each batch — and that the state runs in the
/// regime the plan names: incremental states never re-match, the others
/// pay exactly one full re-match per relevant batch.
fn assert_equivalence(
    plan: &Plan,
    (domain, range): (LdsId, LdsId),
    scenario: &Scenario,
    stream_seed: u64,
    churn: f64,
    steps: usize,
) {
    let matcher = (plan.matcher)();
    for threads in THREADS {
        let mut reg = scenario.registry.clone();
        let ctx = MatchContext::new(&reg).with_parallelism(par(threads));
        let mut state = matcher.prime(&ctx, domain, range).unwrap();
        assert_eq!(state.is_incremental(), plan.incremental, "{}", plan.name);
        let mut domain_stream = stream(stream_seed, churn, domain);
        let mut range_stream = stream(stream_seed.wrapping_add(1), churn, range);
        for step in 0..steps {
            // (One stream per source: two would mint the same new ids.)
            let delta = if step % 2 == 0 || domain == range {
                range_stream.next_delta(&reg)
            } else {
                domain_stream.next_delta(&reg)
            };
            let applied = reg.apply_delta(&delta).unwrap();
            let ctx = MatchContext::new(&reg).with_parallelism(par(threads));
            let before = state.full_rematches();
            let incremental = state.apply(&ctx, &[&applied]).unwrap();
            let full = matcher.execute(&ctx, domain, range).unwrap();
            assert_eq!(
                incremental.table.rows(),
                full.table.rows(),
                "plan={} stream={stream_seed} threads={threads} step={step}",
                plan.name
            );
            let relevant = state.last_touched() && !plan.incremental;
            assert_eq!(
                state.full_rematches() - before,
                u64::from(relevant),
                "plan={} step={step}",
                plan.name
            );
        }
    }
}

/// [`assert_equivalence`] on the DBLP × GS titles of a random world.
fn assert_dblp_gs(name: &str, seed: u64, stream_seed: u64, churn: f64, steps: usize) {
    let scenario = random_world(seed);
    let sources = (scenario.ids.pub_dblp, scenario.ids.pub_gs);
    assert_equivalence(plan(name), sources, &scenario, stream_seed, churn, steps);
}

proptest! {
    /// Explicit all-pairs, trigram scoring.
    #[test]
    fn incremental_equals_full_allpairs(
        seed in 0u64..6,
        stream_seed in 0u64..1000,
        churn in 0.02f64..0.15,
        steps in 1usize..4,
    ) {
        assert_dblp_gs("allpairs-trigram", seed, stream_seed, churn, steps);
    }

    /// The default plan: threshold-exact indexes on both sides, for two
    /// q-gram measures.
    #[test]
    fn incremental_equals_full_threshold(
        seed in 0u64..6,
        stream_seed in 0u64..1000,
        churn in 0.02f64..0.15,
        steps in 1usize..4,
        measure in 0usize..2,
    ) {
        let name = ["threshold-trigram", "threshold-qgramjaccard2"][measure];
        assert_dblp_gs(name, seed, stream_seed, churn, steps);
    }

    /// Prefix-filtered trigram blocking (both-side index maintenance,
    /// tombstones, inverse probes).
    #[test]
    fn incremental_equals_full_blocked(
        seed in 0u64..6,
        stream_seed in 0u64..1000,
        churn in 0.02f64..0.15,
        steps in 1usize..4,
    ) {
        assert_dblp_gs("prefix-trigram", seed, stream_seed, churn, steps);
    }

    /// A non-trigram measure under all-pairs blocking is also exactly
    /// incremental (the guarantee needs filter exactness, and all-pairs
    /// has no filter).
    #[test]
    fn incremental_equals_full_jaro_allpairs(
        seed in 0u64..4,
        stream_seed in 0u64..1000,
    ) {
        assert_dblp_gs("fallback-jarowinkler", seed, stream_seed, 0.08, 2);
    }

    /// Configurations without the identical-result guarantee re-match in
    /// full — once per relevant batch — and still return the right
    /// mapping.
    #[test]
    fn full_rematch_fallback_equals_full(
        seed in 0u64..4,
        stream_seed in 0u64..1000,
        config in 0usize..2,
    ) {
        assert_dblp_gs(["tfidf", "prefix-jaro"][config], seed, stream_seed, 0.08, 2);
    }

    /// Self-mapping (duplicate detection inside one source): every delta
    /// touches both sides, and the forward and inverse probes overlap.
    #[test]
    fn incremental_equals_full_self_mapping(
        seed in 0u64..4,
        stream_seed in 0u64..1000,
        churn in 0.02f64..0.15,
        plan_ix in 0usize..4, // the four indexed / all-pairs trigram and q-gram rows
    ) {
        let scenario = random_world(seed);
        let acm = scenario.ids.pub_acm;
        assert_equivalence(&PLANS[plan_ix], (acm, acm), &scenario, stream_seed, churn, 3);
    }
}

/// Hand-written delta sequences covering the exact edge cases the issue
/// names: no-op updates, duplicate removals within and across batches,
/// clearing an attribute, and re-adding a removed id.
#[test]
fn explicit_edge_case_deltas() {
    let scenario = random_world(1);
    let (dblp, gs) = (scenario.ids.pub_dblp, scenario.ids.pub_gs);
    let matcher = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.6)
        .with_blocking(Blocking::TrigramPrefix);
    for threads in THREADS {
        let mut reg = scenario.registry.clone();
        let victim = reg
            .lds(gs)
            .iter()
            .next()
            .map(|(_, i)| i.id.clone())
            .unwrap();
        let survivor = reg
            .lds(gs)
            .iter()
            .nth(1)
            .map(|(_, i)| i.id.clone())
            .unwrap();
        let survivor_title = reg
            .lds(gs)
            .by_id(&survivor)
            .and_then(|i| i.value(0).cloned());
        let ctx = MatchContext::new(&reg).with_parallelism(par(threads));
        let mut state = matcher.prime(&ctx, dblp, gs).unwrap();
        let deltas = vec![
            // Duplicate removal inside one batch + an unknown id.
            SourceDelta::new(gs)
                .remove(victim.clone())
                .remove(victim.clone())
                .remove("no-such-id"),
            // Removal of the same id again in a later batch.
            SourceDelta::new(gs).remove(victim.clone()),
            // No-op update: write the current title back; then clear it.
            SourceDelta::new(gs)
                .update(survivor.clone(), "title", survivor_title.clone())
                .update(survivor.clone(), "title", None),
            // Re-add the removed id as a brand-new instance.
            SourceDelta::new(gs).add(
                victim.clone(),
                vec![("title".into(), "A freshly re-added entry".into())],
            ),
            // Empty batch.
            SourceDelta::new(gs),
        ];
        for (i, delta) in deltas.into_iter().enumerate() {
            let applied = reg.apply_delta(&delta).unwrap();
            let ctx = MatchContext::new(&reg).with_parallelism(par(threads));
            let incremental = state.apply(&ctx, &[&applied]).unwrap();
            let full = matcher.execute(&ctx, dblp, gs).unwrap();
            assert_eq!(
                incremental.table.rows(),
                full.table.rows(),
                "threads={threads} delta #{i}"
            );
        }
    }
}

/// The default context (no explicit Parallelism) honors MOMA_THREADS —
/// this is the leg CI's MOMA_THREADS={1,8} matrix actually varies.
#[test]
fn equivalence_under_env_parallelism() {
    let scenario = random_world(2);
    let (dblp, gs) = (scenario.ids.pub_dblp, scenario.ids.pub_gs);
    let matcher = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.6)
        .with_blocking(Blocking::TrigramPrefix);
    let mut reg = scenario.registry.clone();
    let ctx = MatchContext::new(&reg);
    let mut state = matcher.prime(&ctx, dblp, gs).unwrap();
    let mut s = stream(7, 0.1, gs);
    for _ in 0..3 {
        let delta = s.next_delta(&reg);
        let applied = reg.apply_delta(&delta).unwrap();
        let ctx = MatchContext::new(&reg);
        let incremental = state.apply(&ctx, &[&applied]).unwrap();
        let full = matcher.execute(&ctx, dblp, gs).unwrap();
        assert_eq!(incremental.table.rows(), full.table.rows());
    }
}

/// End-to-end workflow-layer invalidation: a matcher patch flows through
/// the repository into a derived compose result, which stays equal to
/// deriving from scratch.
#[test]
fn downstream_compose_refresh_matches_recompute() {
    let scenario = random_world(3);
    let (dblp, gs) = (scenario.ids.pub_dblp, scenario.ids.pub_gs);
    let matcher = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.6)
        .with_blocking(Blocking::TrigramPrefix);
    for threads in THREADS {
        let p = par(threads);
        let mut reg = scenario.registry.clone();
        let repo = MappingRepository::new();
        let ctx = MatchContext::new(&reg).with_parallelism(p);
        let mut state = matcher.prime(&ctx, dblp, gs).unwrap();
        repo.store_as("TitleSame", state.mapping().clone());
        repo.store(moma::core::Mapping::identity(
            dblp,
            reg.lds(dblp).len() as u32,
        ));
        let recipe = Recipe::Compose {
            left: format!("Identity({})", dblp.0),
            right: "TitleSame".into(),
            f: PathCombine::Min,
            g: PathAgg::Max,
        };
        repo.store_derived("Composed", recipe.clone()).unwrap();

        let mut s = stream(11, 0.1, gs);
        for _ in 0..3 {
            let delta = s.next_delta(&reg);
            let applied = reg.apply_delta(&delta).unwrap();
            let ctx = MatchContext::new(&reg).with_parallelism(p);
            let refreshed = state
                .patch_and_refresh(&ctx, &[&applied], &repo, "TitleSame")
                .unwrap();
            assert_eq!(refreshed, vec!["Composed".to_owned()]);
            // The refreshed derived entry equals a from-scratch derivation.
            let from_scratch = MappingRepository::new();
            from_scratch.store_as("TitleSame", state.mapping().clone());
            from_scratch.store(moma::core::Mapping::identity(
                dblp,
                reg.lds(dblp).len() as u32,
            ));
            let fresh = from_scratch
                .store_derived("Composed", recipe.clone())
                .unwrap();
            assert_eq!(
                repo.get("Composed").unwrap().table.rows(),
                fresh.table.rows(),
                "threads={threads}"
            );
        }
    }
}
