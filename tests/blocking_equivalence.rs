//! Blocking ≡ AllPairs, property-tested across every candidate
//! generator.
//!
//! The candidate engines in `moma_core::blocking` promise that an
//! attribute matcher produces **the exact same mapping** — pair set,
//! similarity scores, row order — whether candidates are pruned or not:
//!
//! * [`Blocking::Threshold`] for *every* q-gram measure (trigram Dice,
//!   q-gram Dice/Jaccard/cosine/overlap) at any positive threshold —
//!   the T-occurrence bounds are exact,
//! * [`Blocking::Threshold`] for TF-IDF cosine — the weighted
//!   (max-weight prefix) bounds are exact over the frozen match corpus,
//!   and both plans score through the same cached vectors, so equality
//!   is bit-for-bit,
//! * [`Blocking::TrigramPrefix`] for trigram-Dice scoring at the
//!   matcher threshold (the prefix-filter guarantee),
//! * both falling back transparently (non-q-gram fixed measures under
//!   `Threshold` score all pairs).
//!
//! These properties drive that promise across randomly generated
//! datagen scenarios, thresholds {0.5, 0.7, 0.8, 0.9}, hostile value shapes
//! (empty, punctuation-only, sub-trigram-length, repeat-heavy strings)
//! and thread counts 1 and 8 — the sequential path and an
//! oversubscribed one. One more leg pins the TF-IDF
//! matcher's rows, bit for bit, to those of the previous release
//! (`data/parent_tfidf_rows.tsv`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use moma::core::blocking::{Blocking, TfIdfIndex, ThresholdIndex, TrigramIndex};
use moma::core::exec::Parallelism;
use moma::core::matchers::multi_attribute::{AttrPair, MultiAttributeMatcher};
use moma::core::matchers::{AttributeMatcher, MatchContext, Matcher};
use moma::datagen::{Scenario, WorldConfig};
use moma::model::{AttrDef, LogicalSource, ObjectType, SourceRegistry};
use moma::simstring::{QgramMeasure, SimFn, TfIdfCorpus};
use proptest::prelude::*;

/// Thread counts under test; 1 must hit the sequential path, 8 must
/// shard (min_shard_size is forced to 1).
const THREADS: [usize; 2] = [1, 8];

/// The satellite thresholds every equivalence leg sweeps (0.8 sits last
/// because the random-scenario legs draw an index into the first three).
const THRESHOLDS: [f64; 4] = [0.5, 0.7, 0.9, 0.8];

/// Every similarity function the threshold engine is exact for.
fn qgram_family() -> Vec<SimFn> {
    vec![
        SimFn::Trigram,
        SimFn::QgramDice(2),
        SimFn::QgramJaccard(3),
        SimFn::QgramCosine(3),
        SimFn::QgramOverlap(2),
    ]
}

/// A micro random world (see tests/parallel_equivalence.rs for the
/// sizing rationale), cached by seed.
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

/// Assert `blocking` produces row-for-row the reference (all-pairs)
/// mapping for this matcher configuration, at every thread count.
fn assert_matches_allpairs(
    reg: &SourceRegistry,
    domain: moma::model::LdsId,
    range: moma::model::LdsId,
    sim: SimFn,
    threshold: f64,
    blocking: Blocking,
) {
    let reference = AttributeMatcher::new("title", "title", sim.clone(), threshold)
        .with_blocking(Blocking::AllPairs)
        .execute(
            &MatchContext::new(reg).with_parallelism(Parallelism::sequential()),
            domain,
            range,
        )
        .unwrap();
    for threads in THREADS {
        let ctx = MatchContext::new(reg).with_parallelism(par(threads));
        let blocked = AttributeMatcher::new("title", "title", sim.clone(), threshold)
            .with_blocking(blocking)
            .execute(&ctx, domain, range)
            .unwrap();
        assert_eq!(
            reference.table.rows(),
            blocked.table.rows(),
            "sim={} t={threshold} blocking={blocking:?} threads={threads}",
            sim
        );
    }
}

/// As [`assert_matches_allpairs`] for the TF-IDF matcher (the corpus is
/// rebuilt from both columns inside every execution, so pruned and
/// unpruned runs see identical weights) under every [`Blocking`]
/// variant: both pruning choices resolve to the exact weighted-prefix
/// plan.
fn assert_tfidf_matches_allpairs(
    reg: &SourceRegistry,
    domain: moma::model::LdsId,
    range: moma::model::LdsId,
    threshold: f64,
) {
    let reference = AttributeMatcher::tfidf("title", "title", threshold)
        .with_blocking(Blocking::AllPairs)
        .execute(
            &MatchContext::new(reg).with_parallelism(Parallelism::sequential()),
            domain,
            range,
        )
        .unwrap();
    for blocking in [
        Blocking::AllPairs,
        Blocking::Threshold,
        Blocking::TrigramPrefix,
    ] {
        for threads in THREADS {
            let ctx = MatchContext::new(reg).with_parallelism(par(threads));
            let pruned = AttributeMatcher::tfidf("title", "title", threshold)
                .with_blocking(blocking)
                .execute(&ctx, domain, range)
                .unwrap();
            assert_eq!(
                reference.table.rows(),
                pruned.table.rows(),
                "tfidf t={threshold} blocking={blocking:?} threads={threads}"
            );
        }
    }
}

/// A source of hostile values: empties, punctuation-only (normalizes to
/// nothing), sub-trigram-length and repeat-heavy strings, plus a few
/// plausible titles. Exercises the gramless edge (empty ↔ empty pairs
/// score 1.0 and must be matched), padded short grams and the
/// multiset/set distinction.
fn hostile_world() -> (SourceRegistry, moma::model::LdsId, moma::model::LdsId) {
    let values = [
        "",
        "!!",
        "?!?",
        "a",
        "ab",
        "aaa",
        "aaaa",
        "ab ab ab",
        "aa bb aa",
        "data cleaning",
        "data cleaning!",
        "Data  Cleaning",
        "schema matching",
        "a b a b",
        "bbbb aaaa",
        "...",
    ];
    let mut reg = SourceRegistry::new();
    let mk = |name: &str, skip: usize| {
        let mut src =
            LogicalSource::new(name, ObjectType::new("Thing"), vec![AttrDef::text("title")]);
        for (i, v) in values.iter().enumerate().skip(skip) {
            src.insert_record(format!("{name}{i}"), vec![("title", (*v).into())])
                .unwrap();
        }
        src
    };
    let a = mk("A", 0);
    let b = mk("B", 1); // offset so the sides differ
    let a = reg.register(a).unwrap();
    let b = reg.register(b).unwrap();
    (reg, a, b)
}

/// Threshold blocking ≡ all-pairs on the hostile world, for every
/// q-gram measure × satellite threshold × thread count. Deterministic
/// (no proptest): this is the edge-case grid the issue pins.
#[test]
fn threshold_exact_on_hostile_values() {
    let (reg, a, b) = hostile_world();
    for sim in qgram_family() {
        for t in THRESHOLDS {
            assert_matches_allpairs(&reg, a, b, sim.clone(), t, Blocking::Threshold);
        }
    }
}

/// TF-IDF threshold blocking ≡ all-pairs on the hostile world — the
/// token-free values (empty, punctuation-only) must still pair up at
/// cosine 1.0 through the empty-vector edge of the weighted index.
#[test]
fn tfidf_threshold_exact_on_hostile_values() {
    let (reg, a, b) = hostile_world();
    for t in THRESHOLDS {
        assert_tfidf_matches_allpairs(&reg, a, b, t);
    }
}

/// The prefix filter is exact for trigram-Dice scoring — including the
/// gramless edge (empty ↔ punctuation-only pairs) it historically
/// missed.
#[test]
fn trigram_prefix_exact_on_hostile_values() {
    let (reg, a, b) = hostile_world();
    for t in THRESHOLDS {
        assert_matches_allpairs(&reg, a, b, SimFn::Trigram, t, Blocking::TrigramPrefix);
    }
}

/// Non-q-gram measures under Threshold blocking transparently score all
/// pairs — still exactly equal to AllPairs, hostile values included.
#[test]
fn threshold_fallback_exact_for_non_qgram_measures() {
    let (reg, a, b) = hostile_world();
    for sim in [SimFn::Jaro, SimFn::Levenshtein, SimFn::TokenJaccard] {
        assert_matches_allpairs(&reg, a, b, sim, 0.7, Blocking::Threshold);
    }
}

/// Multi-attribute: per-attribute threshold indexes (derived bounds,
/// intersection, missing-value handling) ≡ all-pairs on random
/// scenarios with genuinely missing values, and the primary-only prefix
/// index ⊆ all-pairs.
///
/// Two configurations stress complementary paths:
/// - DBLP ↔ GS adds a `pages` q-gram attribute that Google Scholar
///   records never carry, so that index's range side is entirely
///   unconditional and must prune nothing;
/// - DBLP ↔ ACM pairs two indexable q-gram attributes (`title`,
///   `pages`) so candidates really are the intersection of two
///   independently pruned sets.
#[test]
fn multi_attribute_threshold_exact() {
    for seed in 0..3u64 {
        let scenario = random_world(seed);
        let reg = &scenario.registry;
        let configs = [
            (
                scenario.ids.pub_dblp,
                scenario.ids.pub_gs,
                vec![
                    AttrPair::new("title", "title", SimFn::Trigram, 2.0),
                    AttrPair::new("year", "year", SimFn::Year(1), 1.0),
                    AttrPair::new("pages", "pages", SimFn::QgramDice(2), 1.0),
                ],
            ),
            (
                scenario.ids.pub_dblp,
                scenario.ids.pub_acm,
                vec![
                    AttrPair::new("title", "title", SimFn::Trigram, 2.0),
                    AttrPair::new("pages", "pages", SimFn::QgramDice(2), 1.0),
                ],
            ),
        ];
        for (domain, range, attrs) in configs {
            for t in THRESHOLDS {
                let base = MultiAttributeMatcher::new(attrs.clone(), t);
                let reference = base
                    .clone()
                    .with_blocking(Blocking::AllPairs)
                    .execute(
                        &MatchContext::new(reg).with_parallelism(Parallelism::sequential()),
                        domain,
                        range,
                    )
                    .unwrap();
                for threads in THREADS {
                    let ctx = MatchContext::new(reg).with_parallelism(par(threads));
                    let run = |blocking| {
                        let m = base.clone().with_blocking(blocking);
                        m.execute(&ctx, domain, range).unwrap()
                    };
                    assert_eq!(
                        reference.table.rows(),
                        run(Blocking::Threshold).table.rows(),
                        "seed={seed} t={t} threads={threads}"
                    );
                    // The prefix filter on the primary probes at the
                    // derived bound: every row it returns is an all-pairs
                    // row with the bit-equal similarity. Its set-vs-multiset
                    // carve-out still allows a miss on repeat-heavy
                    // titles, so only the subset direction is a property.
                    for c in run(Blocking::TrigramPrefix).table.iter() {
                        assert_eq!(
                            reference.table.sim_of(c.domain, c.range),
                            Some(c.sim),
                            "seed={seed} t={t} threads={threads} row={c:?}"
                        );
                    }
                }
            }
        }
    }
}

/// Candidate dominance on generated titles: probing every DBLP title
/// against the GS title indexes at t = 0.8, the threshold-exact engine
/// generates no more candidates than the prefix filter and prunes ≥ 3×
/// harder, and the TF-IDF weighted-prefix index ≥ 10× harder than
/// all-pairs. These are properties of datagen titles, not theorems: the
/// set-based prefix filter and the multiset T-occurrence filter are not
/// nested per query (`"caccccc"` / `"ccccc"` at 0.75 passes the latter
/// and is missed by the former), so only the sums are compared. The
/// exactly-repeating counts behind the ratios are `blocking.candidates`
/// and `tfidf.candidates` of the benchmark's `match_cold --trace 1`.
#[test]
fn threshold_candidates_dominate_prefix_on_generated_titles() {
    const T: f64 = 0.8;
    let mut cfg = WorldConfig::small();
    cfg.seed = 7;
    // 182 × 8 297 titles: the largest scenario that keeps this test
    // under ~2 s in a debug build.
    cfg.gs_noise_entries = 8_000;
    let s = Scenario::generate(cfg);
    let titles = |lds| -> Vec<(u32, String)> {
        s.registry
            .lds(lds)
            .project("title")
            .unwrap()
            .into_iter()
            .map(|(i, v)| (i, v.to_match_string()))
            .collect()
    };
    let (dblp, gs) = (titles(s.ids.pub_dblp), titles(s.ids.pub_gs));
    let all_pairs = dblp.len() * gs.len();

    let prefix_index = TrigramIndex::build_par(&gs, &par(1));
    let threshold_index = ThresholdIndex::build_par(QgramMeasure::Dice, 3, T, &gs, &par(1));
    let sum = |candidates: &dyn Fn(&str) -> usize| -> usize {
        dblp.iter().map(|(_, v)| candidates(v)).sum()
    };
    let prefix = sum(&|v| prefix_index.candidates(v, T).len());
    let threshold = sum(&|v| threshold_index.candidates(v).len());
    assert!(
        threshold <= prefix,
        "threshold {threshold} > prefix {prefix}"
    );
    assert!(
        prefix as f64 / threshold.max(1) as f64 >= 3.0,
        "prefix {prefix} / threshold {threshold} < 3"
    );

    // The matcher's TF-IDF path: one corpus over both columns, cached
    // vectors, the weighted-prefix index over the range side.
    let corpus = TfIdfCorpus::build(dblp.iter().chain(&gs).map(|(_, v)| v.as_str()));
    let gs_vecs: Vec<Vec<(u32, f64)>> = gs.iter().map(|(_, v)| corpus.vector(v)).collect();
    let tfidf_index = TfIdfIndex::build(
        T,
        gs_vecs
            .iter()
            .enumerate()
            .map(|(p, v)| (p as u32, v.as_slice())),
    );
    let tfidf = sum(&|v| tfidf_index.candidates(&corpus.vector(v)).len());
    assert!(
        all_pairs as f64 / tfidf.max(1) as f64 >= 10.0,
        "all-pairs {all_pairs} / tf-idf {tfidf} < 10"
    );
}

/// The TF-IDF matcher's rows of DBLP × GS titles at `t` (the small
/// world at seed 7) as lines of the golden file: `t`, domain, range and
/// `f64::to_bits` of the similarity in hex.
fn tfidf_row_lines(s: &Scenario, t: f64, par: Parallelism) -> String {
    let ctx = MatchContext::new(&s.registry).with_parallelism(par);
    let m = AttributeMatcher::tfidf("title", "title", t)
        .execute(&ctx, s.ids.pub_dblp, s.ids.pub_gs)
        .unwrap();
    m.table
        .iter()
        .map(|c| format!("{t}\t{}\t{}\t{:016x}\n", c.domain, c.range, c.sim.to_bits()))
        .collect()
}

/// `TfIdfIndex::candidates` of every DBLP title against the GS titles at
/// `t`, summed — one corpus over both columns, as the matcher builds it.
fn tfidf_candidate_total(s: &Scenario, t: f64) -> usize {
    let titles = |lds| -> Vec<String> {
        s.registry
            .lds(lds)
            .project("title")
            .unwrap()
            .into_iter()
            .map(|(_, v)| v.to_match_string())
            .collect()
    };
    let (dblp, gs) = (titles(s.ids.pub_dblp), titles(s.ids.pub_gs));
    let corpus = TfIdfCorpus::build(dblp.iter().chain(&gs).map(String::as_str));
    let gs_vecs: Vec<_> = gs.iter().map(|v| corpus.vector(v)).collect();
    let index = TfIdfIndex::build(
        t,
        gs_vecs
            .iter()
            .enumerate()
            .map(|(p, v)| (p as u32, v.as_slice())),
    );
    dblp.iter()
        .map(|v| index.candidates(&corpus.vector(v)).len())
        .sum()
}

/// The TF-IDF matcher reproduces the previous release's rows byte for
/// byte, and its index generates no more candidates.
/// `data/parent_tfidf_rows.tsv` was written by the release before TF-IDF
/// moved onto the shared gram index and dictionary, with the two
/// functions above: one `candidates  t  total` line per threshold
/// (t ∈ {0.5, 0.8}), then the rows. Token ids — and with them the order
/// every dot product and norm adds in — must be numbered as they were,
/// however the columns are sharded: the rows are compared at 1, 2 and 8
/// threads with single-value shards.
#[test]
fn tfidf_rows_are_the_previous_releases() {
    let mut cfg = WorldConfig::small();
    cfg.seed = 7;
    let s = Scenario::generate(cfg);
    let golden = include_str!("data/parent_tfidf_rows.tsv");
    let (totals, rows): (Vec<&str>, Vec<&str>) =
        golden.lines().partition(|l| l.starts_with("candidates"));
    let mut thresholds = Vec::new();
    for line in totals {
        let fields: Vec<&str> = line.split('\t').collect();
        let &[_, t, parent] = fields.as_slice() else {
            panic!("malformed total line {line:?}")
        };
        let (t, parent): (f64, usize) = (t.parse().unwrap(), parent.parse().unwrap());
        let total = tfidf_candidate_total(&s, t);
        assert!(
            total <= parent,
            "t={t}: {total} candidates, the previous release {parent}"
        );
        thresholds.push(t);
    }
    assert_eq!(thresholds, [0.5, 0.8]);
    let want: String = rows.iter().map(|l| format!("{l}\n")).collect();
    for threads in [1, 2, 8] {
        let got: String = thresholds
            .iter()
            .map(|&t| tfidf_row_lines(&s, t, par(threads)))
            .collect();
        assert!(
            got == want,
            "threads={threads}: rows differ from the previous release's"
        );
    }
}

proptest! {
    /// Threshold blocking ≡ all-pairs on random datagen worlds for a
    /// randomly drawn q-gram measure and satellite threshold.
    #[test]
    fn threshold_equals_allpairs_random_scenarios(
        seed in 0u64..6,
        sim_ix in 0usize..5,
        t_ix in 0usize..3,
    ) {
        let scenario = random_world(seed);
        let sim = qgram_family()[sim_ix].clone();
        assert_matches_allpairs(
            &scenario.registry,
            scenario.ids.pub_dblp,
            scenario.ids.pub_gs,
            sim,
            THRESHOLDS[t_ix],
            Blocking::Threshold,
        );
    }

    /// TF-IDF under Threshold blocking (weighted-prefix pruning over
    /// cached vectors) is bit-identical to all-pairs on random datagen
    /// worlds at every satellite threshold and thread count.
    #[test]
    fn tfidf_threshold_equals_allpairs_random_scenarios(
        seed in 0u64..6,
        t_ix in 0usize..3,
    ) {
        let scenario = random_world(seed);
        assert_tfidf_matches_allpairs(
            &scenario.registry,
            scenario.ids.pub_dblp,
            scenario.ids.pub_gs,
            THRESHOLDS[t_ix],
        );
    }

    /// The prefix filter stays exact for trigram scoring on random
    /// scenarios (its historical guarantee, now including gramless
    /// values).
    #[test]
    fn trigram_prefix_equals_allpairs_random_scenarios(
        seed in 0u64..6,
        t_ix in 0usize..3,
    ) {
        let scenario = random_world(seed);
        assert_matches_allpairs(
            &scenario.registry,
            scenario.ids.pub_dblp,
            scenario.ids.pub_gs,
            SimFn::Trigram,
            THRESHOLDS[t_ix],
            Blocking::TrigramPrefix,
        );
    }

    /// Threshold blocking ≡ all-pairs on fully random hostile strings
    /// over a tiny alphabet (maximal gram collisions and repeats),
    /// self-match configuration.
    #[test]
    fn threshold_equals_allpairs_random_strings(
        // A tiny alphabet with punctuation and spaces: length 0 gives
        // empty strings, pure punctuation normalizes to gramless, and
        // the a–c letters collide constantly (repeat-heavy multisets).
        values in prop::collection::vec("[a-c!?. ]{0,8}", 2..16),
        sim_ix in 0usize..5,
        t_ix in 0usize..3,
    ) {
        let mut reg = SourceRegistry::new();
        let mut src = LogicalSource::new(
            "R",
            ObjectType::new("Thing"),
            vec![AttrDef::text("title")],
        );
        for (i, v) in values.iter().enumerate() {
            src.insert_record(format!("r{i}"), vec![("title", v.clone().into())])
                .unwrap();
        }
        let r = reg.register(src).unwrap();
        let sim = qgram_family()[sim_ix].clone();
        let t = THRESHOLDS[t_ix];
        let reference = AttributeMatcher::new("title", "title", sim.clone(), t)
            .with_blocking(Blocking::AllPairs)
            .execute(&MatchContext::new(&reg), r, r)
            .unwrap();
        for threads in THREADS {
            let ctx = MatchContext::new(&reg).with_parallelism(par(threads));
            let blocked = AttributeMatcher::new("title", "title", sim.clone(), t)
                .with_blocking(Blocking::Threshold)
                .execute(&ctx, r, r)
                .unwrap();
            prop_assert_eq!(
                reference.table.rows(),
                blocked.table.rows(),
                "sim={} t={} threads={}", sim, t, threads
            );
        }
    }
}
