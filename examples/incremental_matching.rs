//! Incremental matching: patching a materialized mapping under source
//! deltas instead of re-matching from scratch.
//!
//! The example generates the synthetic bibliographic world, matches
//! `Publication@DBLP` × `Publication@GS` once (priming a
//! `DeltaMatchState`), then streams seeded deltas — adds, removals,
//! attribute updates — through the incremental engine. Every step checks
//! the patched mapping is **bit-identical** to a full re-match and
//! prints both costs. Finally, a compose result derived in the mapping
//! repository is refreshed through version-stamp invalidation.
//!
//! ```bash
//! cargo run --release --example incremental_matching
//! MOMA_THREADS=8 cargo run --release --example incremental_matching
//! ```

use std::time::Instant;

use moma::core::blocking::Blocking;
use moma::core::matchers::{AttributeMatcher, MatchContext, Matcher};
use moma::core::ops::compose::{PathAgg, PathCombine};
use moma::core::{MappingRepository, Recipe};
use moma::datagen::{DeltaStream, EvolveConfig, Scenario, WorldConfig};
use moma::simstring::SimFn;

fn main() {
    // A mid-size world: enough GS rows for incremental savings to show.
    let mut cfg = WorldConfig::small();
    cfg.gs_noise_entries = 1_500;
    let scenario = Scenario::generate(cfg);
    let mut registry = scenario.registry;
    let (dblp, gs) = (scenario.ids.pub_dblp, scenario.ids.pub_gs);

    // --- prime: one full match captures the incremental state ---------
    let matcher = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.75)
        .with_blocking(Blocking::TrigramPrefix);
    let ctx = MatchContext::new(&registry);
    let t0 = Instant::now();
    let mut state = matcher.prime(&ctx, dblp, gs).expect("prime");
    println!(
        "primed with {} correspondences in {:?} (incremental mode: {})",
        state.mapping().len(),
        t0.elapsed(),
        state.is_incremental(),
    );
    assert!(state.is_incremental());

    // Materialize the mapping and derive a compose result from it: the
    // repository's version stamps keep the derived entry fresh below.
    // (The identity leaf sits on the DBLP side, which this example never
    // mutates — a leaf whose source churns would have to be re-stored by
    // its owner, like "TitleSame" is.)
    let repository = MappingRepository::new();
    repository.store_as("TitleSame", state.mapping().clone());
    repository.store(moma::core::Mapping::identity(
        dblp,
        registry.lds(dblp).len() as u32,
    ));
    repository
        .store_derived(
            "DblpToGs",
            Recipe::Compose {
                left: format!("Identity({})", dblp.0),
                right: "TitleSame".into(),
                f: PathCombine::Min,
                g: PathAgg::Max,
            },
        )
        .expect("derive compose");

    // --- stream deltas through the incremental engine -----------------
    let mut stream = DeltaStream::new(EvolveConfig::with_churn(0.02), gs);
    let (mut incr_total, mut full_total) = (0.0f64, 0.0f64);
    for step in 1..=5 {
        let delta = stream.next_delta(&registry);
        let applied = registry.apply_delta(&delta).expect("apply delta");
        let ctx = MatchContext::new(&registry);

        let t = Instant::now();
        let refreshed = state
            .patch_and_refresh(&ctx, &[&applied], &repository, "TitleSame")
            .expect("incremental apply");
        let incr_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let full = matcher.execute(&ctx, dblp, gs).expect("full re-match");
        let full_ms = t.elapsed().as_secs_f64() * 1e3;

        assert_eq!(
            state.mapping().table.rows(),
            full.table.rows(),
            "incremental result must be bit-identical to a full re-match"
        );
        assert_eq!(refreshed, vec!["DblpToGs".to_owned()]);
        assert!(!repository.is_stale("DblpToGs"));
        println!(
            "step {step}: |delta| {:>3}, re-scored {:>3} values, \
             incremental {incr_ms:>7.2} ms vs full {full_ms:>7.2} ms",
            delta.len(),
            state.last_rescored,
        );
        incr_total += incr_ms;
        full_total += full_ms;
    }
    // The downstream compose tracked every patch.
    let composed = repository.get("DblpToGs").expect("derived entry");
    assert_eq!(composed.table.pair_set(), state.mapping().table.pair_set());
    println!(
        "all steps bit-identical; incremental total {incr_total:.1} ms vs \
         full total {full_total:.1} ms ({:.0}x)",
        full_total / incr_total.max(1e-9)
    );
}
