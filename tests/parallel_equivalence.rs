//! Parallel ≡ sequential, property-tested across random worlds.
//!
//! The exec layer (`moma_core::exec`) promises that every parallel path
//! — attribute-matcher sharding, multi-attribute sharding — produces
//! results *bit-identical* to sequential execution. These properties drive that
//! promise across randomly generated datagen scenarios and thread counts
//! 1 / 2 / 8 (far oversubscribing small inputs on purpose: shard
//! boundaries, not thread scheduling, are what could break equivalence).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use moma::core::blocking::Blocking;
use moma::core::exec::Parallelism;
use moma::core::matchers::{
    AttrPair, AttributeMatcher, MatchContext, Matcher, MultiAttributeMatcher,
};
use moma::datagen::{Scenario, WorldConfig};
use moma::simstring::SimFn;
use proptest::prelude::*;

/// Thread counts under test; 1 must hit the sequential path, 2 and 8
/// must shard (min_shard_size is forced to 1).
const THREADS: [usize; 3] = [1, 2, 8];

/// A micro random world: the structure of `WorldConfig::small` shrunk to
/// a few dozen publications (proptest cases × 4 runs each must stay
/// cheap in debug builds). The seed also varies the GS noise level.
/// Worlds are cached by seed — the proptest cases redraw seeds from a
/// small pool, and generation (not matching) dominates the cost.
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

proptest! {
    /// Parallel attribute matcher ≡ sequential attribute matcher: same
    /// mapping — same pairs, same similarities, same row order — on the
    /// dirty DBLP×GS pair with blocking, at every thread count.
    #[test]
    fn attribute_matcher_parallel_equals_sequential(seed in 0u64..12) {
        let s = random_world(seed);
        let matcher = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.7)
            .with_blocking(Blocking::TrigramPrefix);
        let seq_ctx = MatchContext::with_repository(&s.registry, &s.repository)
            .with_parallelism(Parallelism::sequential());
        let reference = matcher.execute(&seq_ctx, s.ids.pub_dblp, s.ids.pub_gs).unwrap();
        for threads in THREADS {
            let ctx = MatchContext::with_repository(&s.registry, &s.repository)
                .with_parallelism(par(threads));
            let got = matcher.execute(&ctx, s.ids.pub_dblp, s.ids.pub_gs).unwrap();
            prop_assert_eq!(
                got.table.rows(), reference.table.rows(),
                "seed={} threads={}", seed, threads
            );
        }
    }

    /// Same property for the multi-attribute matcher (combined
    /// title+year similarity, blocking on the primary attribute).
    #[test]
    fn multi_attribute_matcher_parallel_equals_sequential(seed in 0u64..12) {
        let s = random_world(seed);
        let matcher = MultiAttributeMatcher::new(
            vec![
                AttrPair::new("title", "title", SimFn::Trigram, 2.0),
                AttrPair::new("year", "year", SimFn::Year(0), 1.0),
            ],
            0.7,
        )
        .with_blocking(Blocking::TrigramPrefix);
        let seq_ctx = MatchContext::with_repository(&s.registry, &s.repository)
            .with_parallelism(Parallelism::sequential());
        let reference = matcher.execute(&seq_ctx, s.ids.pub_dblp, s.ids.pub_acm).unwrap();
        for threads in THREADS {
            let ctx = MatchContext::with_repository(&s.registry, &s.repository)
                .with_parallelism(par(threads));
            let got = matcher.execute(&ctx, s.ids.pub_dblp, s.ids.pub_acm).unwrap();
            prop_assert_eq!(
                got.table.rows(), reference.table.rows(),
                "seed={} threads={}", seed, threads
            );
        }
    }
}
