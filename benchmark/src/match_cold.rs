//! Workload `match_cold`: repeated cold execution of the DBLP×GS
//! publication match workflow on scenario P.
//!
//! One iteration builds everything from the instance data: two title
//! matchers (trigram and TF-IDF, both threshold-exact), an author-name
//! matcher on the author sources lifted to publications by the
//! neighbourhood matcher, then merge (Avg, missing = 0) and selection
//! (Best-1+Delta per GS entry, then a threshold). Nothing is cached
//! between iterations.

use std::time::Instant;

use moma_core::blocking::{Blocking, TfIdfIndex, ThresholdIndex, TrigramIndex};
use moma_core::exec::Parallelism;
use moma_core::matchers::{nh_match, AttributeMatcher, MatchContext, Matcher, MatcherSim};
use moma_core::ops::{merge, select, MergeFn, MissingPolicy, PathAgg, Selection, Side};
use moma_core::Mapping;
use moma_datagen::Scenario;
use moma_eval::metrics::MatchQuality;
use moma_model::{LdsId, LogicalSource, SourceRegistry};
use moma_simstring::tfidf::cosine_vectors;
use moma_simstring::{QgramMeasure, SimFn, TfIdfCorpus};
use moma_table::{Correspondence, FxHashMap, MappingTable};

use crate::common::{self, checksum, generate, par, Checks, Outcome};
use crate::measure::{self, Tracer};
use crate::RunArgs;

pub const TITLE_T: f64 = 0.8;
pub const AUTHOR_T: f64 = 0.85;
/// Dice bound of the prefix filter under the person-name measure (the
/// matcher's default floor for non-q-gram measures).
const AUTHOR_FLOOR: f64 = 0.3;
const SELECT_DELTA: f64 = 0.05;
const SELECT_T: f64 = 0.35;
/// DBLP rows of the slice on which blocked and all-pairs execution are
/// compared bit for bit.
const ALLPAIRS_SLICE: usize = 100;
/// Rounds of the timed phase; each sets up (generates P) afresh.
const ROUNDS: usize = 3;

pub fn title_trigram() -> AttributeMatcher {
    AttributeMatcher::new("title", "title", SimFn::Trigram, TITLE_T)
        .with_blocking(Blocking::Threshold)
}

pub fn title_tfidf() -> AttributeMatcher {
    AttributeMatcher::tfidf("title", "title", TITLE_T).with_blocking(Blocking::Threshold)
}

/// Author names are matched through the trigram prefix filter, as the
/// scripts and `moma-eval` do for non-q-gram measures.
pub fn author_name() -> AttributeMatcher {
    AttributeMatcher::new("name", "name", SimFn::PersonName, AUTHOR_T)
        .with_blocking(Blocking::TrigramPrefix)
}

/// The author same-mapping lifted to publications: DBLP publication →
/// its authors → matching GS authors → their GS publications.
fn lift_authors(s: &Scenario, authors: &Mapping) -> Mapping {
    nh_match(
        &s.repository.require("DBLP.PubAuthor").expect("association"),
        authors,
        &s.repository.require("GS.AuthorPub").expect("association"),
        PathAgg::RelativeLeft,
    )
    .expect("nhMatch")
}

/// merge (Avg, missing = 0).
fn merge_evidence(title: &Mapping, tfidf: &Mapping, nh: &Mapping) -> Mapping {
    merge(&[title, tfidf, nh], MergeFn::Avg, MissingPolicy::Zero).expect("merge same sources")
}

/// Best-1+Delta per GS entry, then a threshold.
fn select_final(merged: &Mapping) -> Mapping {
    let best = select(
        merged,
        &Selection::Best1Delta {
            delta: SELECT_DELTA,
            relative: false,
            side: Side::Range,
        },
    );
    select(&best, &Selection::Threshold(SELECT_T))
}

/// One cold execution of the workflow. The context is fresh and holds
/// no cache; the repository is read only for the association mappings.
/// Returns the selected mapping and the wall time of the three
/// `AttributeMatcher::execute` calls together, seconds.
pub fn run_workflow(s: &Scenario, par: Parallelism) -> (Mapping, f64) {
    let ids = s.ids;
    let ctx = MatchContext::with_repository(&s.registry, &s.repository).with_parallelism(par);
    let mut matchers_s = 0.0;
    let mut timed = |m: AttributeMatcher, d: LdsId, r: LdsId| {
        let t0 = Instant::now();
        let out = m.execute(&ctx, d, r).expect("matcher executes");
        matchers_s += t0.elapsed().as_secs_f64();
        out
    };
    let title = timed(title_trigram(), ids.pub_dblp, ids.pub_gs);
    let tfidf = timed(title_tfidf(), ids.pub_dblp, ids.pub_gs);
    let authors = timed(author_name(), ids.author_dblp, ids.author_gs);
    let merged = merge_evidence(&title, &tfidf, &lift_authors(s, &authors));
    (select_final(&merged), matchers_s)
}

fn project(reg: &SourceRegistry, lds: LdsId, attr: &str) -> Vec<(u32, String)> {
    reg.lds(lds)
        .project(attr)
        .expect("attribute exists")
        .into_iter()
        .map(|(i, v)| (i, v.to_match_string()))
        .collect()
}

/// A registry holding a slice of both sources: the first `rows` DBLP
/// publications, every GS entry of one of those publications (so the
/// true matches are all there to be found) and every 30th other GS
/// entry. All-pairs scoring costs ~10 µs a pair, which rules out the
/// full GS side.
fn sliced_registry(s: &Scenario, rows: usize) -> (SourceRegistry, LdsId, LdsId) {
    let slice_of = |lds: LdsId, keep: &dyn Fn(usize) -> bool| {
        let full = s.registry.lds(lds);
        let mut slice = LogicalSource::new(
            full.pds.clone(),
            full.object_type.clone(),
            full.schema.clone(),
        );
        for (i, inst) in full.iter() {
            if keep(i as usize) {
                slice.insert(inst.clone()).expect("unique ids");
            }
        }
        slice
    };
    let mut reg = SourceRegistry::new();
    // World publication indexes are DBLP row indexes.
    let d = reg
        .register(slice_of(s.ids.pub_dblp, &|i| i < rows))
        .expect("register DBLP slice");
    let r = reg
        .register(slice_of(s.ids.pub_gs, &|i| {
            i % 30 == 0 || s.gs_entry_pub[i].is_some_and(|p| p < rows)
        }))
        .expect("register GS slice");
    (reg, d, r)
}

/// Blocked execution must equal all-pairs execution row for row.
fn check_against_allpairs(s: &Scenario, checks: &mut Checks) {
    let (reg, d, r) = sliced_registry(s, ALLPAIRS_SLICE);
    let ctx = MatchContext::new(&reg).with_parallelism(par());
    for (name, matcher) in [("trigram", title_trigram()), ("tfidf", title_tfidf())] {
        let blocked = matcher.execute(&ctx, d, r).expect("blocked");
        let all = matcher
            .clone()
            .with_blocking(Blocking::AllPairs)
            .execute(&ctx, d, r)
            .expect("all pairs");
        checks.same(
            &format!(
                "{name}: Blocking::Threshold == AllPairs on a {ALLPAIRS_SLICE}-row DBLP slice"
            ),
            checksum(&blocked),
            checksum(&all),
        );
        checks.check(
            &format!("{name}: the slice has matches to find"),
            blocked.len() >= ALLPAIRS_SLICE / 2,
            || format!("{} rows", blocked.len()),
        );
    }
}

struct Timed {
    iter_s: Vec<f64>,
    /// Per iteration, the three matcher calls together.
    matcher_s: Vec<f64>,
    sums: Vec<u64>,
    last: Mapping,
    /// One `Scenario::generate` time per round.
    setup_s: Vec<f64>,
    /// The last round's scenario, for the checks that follow.
    scenario: Scenario,
}

/// The timed phase, in `rounds` rounds. Each round generates scenario P
/// afresh and runs the workflow back to back for its share of
/// `seconds` (at least once). The same workflow on the same data runs
/// up to ±8 % faster or slower depending on where the allocator happened
/// to place the data; within one placement iterations agree to 1 %.
/// Several placements per run, with the iterations of all of them
/// taken together, take that luck out of the reported figure — and
/// give set-up time a sample per round.
fn timed_rounds(seed: u64, seconds: f64, rounds: usize) -> Timed {
    let mut iter_s = Vec::new();
    let mut matcher_s = Vec::new();
    let mut sums = Vec::new();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for round in 0..rounds {
        let (s, generate_s) = generate(seed);
        setup_s.push(generate_s);
        if round == 0 {
            println!(
                "scenario P seed {seed}: DBLP {} / ACM {} / GS {} publications, {} / {} DBLP/GS authors",
                s.registry.lds(s.ids.pub_dblp).len(),
                s.registry.lds(s.ids.pub_acm).len(),
                s.registry.lds(s.ids.pub_gs).len(),
                s.registry.lds(s.ids.author_dblp).len(),
                s.registry.lds(s.ids.author_gs).len(),
            );
            run_workflow(&s, par()); // warm-up, untimed
        }
        let round_start = Instant::now();
        let last = loop {
            let t0 = Instant::now();
            let (m, times) = run_workflow(&s, par());
            iter_s.push(t0.elapsed().as_secs_f64());
            matcher_s.push(times);
            sums.push(checksum(&m));
            if round_start.elapsed().as_secs_f64() >= seconds / rounds as f64 {
                break m;
            }
        };
        kept = Some((s, last));
    }
    let (scenario, last) = kept.expect("at least one round");
    Timed {
        iter_s,
        matcher_s,
        sums,
        last,
        setup_s,
        scenario,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut checks = Checks::new(args.self_test);
    if args.trace {
        return traced(args, checks);
    }

    let t = timed_rounds(args.seed, args.seconds, ROUNDS);
    let s = &t.scenario;
    let n = t.iter_s.len() as u64;
    checks.check(
        "mapping checksum identical on every iteration",
        t.sums.iter().all(|&c| c == t.sums[0]),
        || format!("{:x?}", t.sums),
    );
    let (seq, _) = run_workflow(s, Parallelism::sequential());
    checks.same("1 thread == 2 threads", checksum(&seq), t.sums[0]);
    check_against_allpairs(s, &mut checks);
    let quality = MatchQuality::evaluate(&t.last, &s.gold.pub_dblp_gs).f1();
    checks.check("f1 above 0.8", quality > 0.8, || format!("f1 = {quality}"));
    checks.count_ops(n, 0);
    let iters = measure::summarize(&t.iter_s);
    println!(
        "iterations: n={} min {:.4} s median {:.4} s MAD {:.4} s",
        iters.n, iters.min, iters.median, iters.mad
    );

    // An iteration outlasts any window worth cutting, so each iteration
    // is its own window: its median and its tail are the iteration.
    let ms: Vec<f64> = t.iter_s.iter().map(|s| s * 1e3).collect();
    let windows = measure::block_stats(&ms, 1, 0.5);
    windows.print("ms");

    let mut out = Outcome::new(checks);
    out.set("setup_s", measure::median(&t.setup_s), ROUNDS as u64);
    out.set("peak_rss_mb", common::peak_rss_mb(), 1);
    out.set("op_p50_ms", measure::quiet_quartile(&windows.p50, false), n);
    out.set(
        "op_tail_ms",
        measure::quiet_quartile(&windows.tail, false),
        n,
    );
    out.set("ops_per_s", measure::quiet_quartile(&windows.rate, true), n);
    out.set("f1", quality, t.last.len() as u64);
    out
}

#[derive(Default)]
struct Counts {
    blocking_candidates: u64,
    tfidf_candidates: u64,
    pairs_scored: u64,
    rows_kept: u64,
}

/// The matcher's probe-and-score loop, in the matcher's own shape: the
/// domain items are sharded across threads, and each item is probed
/// and its candidates scored before the next. Probing and scoring
/// interleave per item, so neither has an interval of its own; the
/// loop's wall time is split between the two spans in proportion to
/// per-item clock readings summed over the shards. Returns the kept
/// rows and the candidate count.
fn probe_and_score<T: Sync, C>(
    tr: &mut Tracer,
    (probe_span, score_span): (&'static str, &'static str),
    items: &[T],
    probe: impl Fn(&T) -> Vec<C> + Sync,
    score: impl Fn(&T, C) -> Option<Correspondence> + Sync,
) -> (Vec<Correspondence>, u64) {
    let start_ns = tr.now_ns();
    let shards = par().run_sharded(items, |chunk| {
        let mut rows = Vec::new();
        let (mut probe_ns, mut score_ns, mut candidates) = (0u64, 0u64, 0u64);
        for item in chunk {
            let t0 = Instant::now();
            let cands = probe(item);
            let t1 = Instant::now();
            candidates += cands.len() as u64;
            rows.extend(cands.into_iter().filter_map(|c| score(item, c)));
            probe_ns += (t1 - t0).as_nanos() as u64;
            score_ns += t1.elapsed().as_nanos() as u64;
        }
        (rows, probe_ns, score_ns, candidates)
    });
    let end_ns = tr.now_ns();
    let (mut rows, mut probe_ns, mut score_ns, mut candidates) = (Vec::new(), 0u64, 0u64, 0u64);
    for (r, p, s, c) in shards {
        rows.extend(r);
        probe_ns += p;
        score_ns += s;
        candidates += c;
    }
    let share = probe_ns as f64 / (probe_ns + score_ns).max(1) as f64;
    let split_ns = start_ns + ((end_ns - start_ns) as f64 * share) as u64;
    tr.record(probe_span, start_ns, split_ns);
    tr.record(score_span, split_ns, end_ns);
    (rows, candidates)
}

/// A fixed-similarity matcher taken apart into the layers it calls, in
/// the matcher's own order: project, build the candidate index, probe
/// it and score the candidates for every domain value, collect.
fn traced_fixed(
    tr: &mut Tracer,
    counts: &mut Counts,
    reg: &SourceRegistry,
    (d, r): (LdsId, LdsId),
    matcher: &AttributeMatcher,
) -> Mapping {
    enum Index {
        Threshold(ThresholdIndex),
        Prefix(TrigramIndex),
    }
    let MatcherSim::Fixed(sim) = &matcher.sim else {
        unreachable!("the TF-IDF matcher has its own replay")
    };
    let threshold = matcher.threshold;
    let par = par();
    let id = tr.begin("matchers.attribute");
    let d_vals = project(reg, d, &matcher.domain_attr);
    let r_vals = project(reg, r, &matcher.range_attr);
    let index = tr.span("blocking.index_build", |_| match matcher.blocking {
        Blocking::Threshold => Index::Threshold(ThresholdIndex::build_par(
            QgramMeasure::Dice,
            3,
            threshold,
            &r_vals,
            &par,
        )),
        _ => Index::Prefix(TrigramIndex::build_par(&r_vals, &par)),
    });
    let pos_of: FxHashMap<u32, usize> = r_vals
        .iter()
        .enumerate()
        .map(|(p, (i, _))| (*i, p))
        .collect();
    let (rows, candidates) = probe_and_score(
        tr,
        ("blocking.candidate_gen", "simstring.score"),
        &d_vals,
        |(_, q)| match &index {
            Index::Threshold(i) => i.candidates(q).into_iter().collect(),
            Index::Prefix(i) => i.candidates(q, AUTHOR_FLOOR).into_iter().collect(),
        },
        |(d_idx, d_val), cand: u32| {
            let (r_idx, r_val) = &r_vals[pos_of[&cand]];
            let s = sim.eval(d_val, r_val);
            (s >= threshold).then(|| Correspondence::new(*d_idx, *r_idx, s))
        },
    );
    counts.blocking_candidates += candidates;
    counts.pairs_scored += candidates;
    counts.rows_kept += rows.len() as u64;
    let table = MappingTable::from_rows(rows);
    tr.end(id);
    Mapping::same(matcher.name(), d, r, table)
}

/// The TF-IDF matcher taken apart the same way: corpus and vectors,
/// weighted-prefix index, probe and cosine over cached vectors, collect.
fn traced_tfidf(
    tr: &mut Tracer,
    counts: &mut Counts,
    reg: &SourceRegistry,
    (d, r): (LdsId, LdsId),
    name: &str,
) -> Mapping {
    type Vecs = Vec<(u32, Vec<(u32, f64)>)>;
    let par = par();
    let id = tr.begin("matchers.attribute");
    let d_vals = project(reg, d, "title");
    let r_vals = project(reg, r, "title");
    let (d_items, r_items): (Vecs, Vecs) = tr.span("tfidf.corpus_build", |_| {
        let mut corpus = TfIdfCorpus::new();
        for (_, v) in d_vals.iter().chain(r_vals.iter()) {
            corpus.add_document(v);
        }
        let vectorize = |vals: &[(u32, String)]| -> Vecs {
            let shards = par.run_sharded(vals, |chunk| {
                chunk
                    .iter()
                    .map(|(i, v)| (*i, corpus.vector(v)))
                    .collect::<Vec<_>>()
            });
            shards.into_iter().flatten().collect()
        };
        (vectorize(&d_vals), vectorize(&r_vals))
    });
    let index = tr.span("tfidf.index_build", |_| {
        TfIdfIndex::build(
            TITLE_T,
            r_items
                .iter()
                .enumerate()
                .map(|(p, (_, v))| (p as u32, v.as_slice())),
        )
    });
    let (rows, candidates) = probe_and_score(
        tr,
        ("tfidf.candidate_gen", "simstring.score"),
        &d_items,
        |(_, d_vec)| index.candidates(d_vec).into_iter().collect(),
        |(d_idx, d_vec), p: u32| {
            let (r_idx, r_vec) = &r_items[p as usize];
            let s = cosine_vectors(d_vec, r_vec);
            (s >= TITLE_T).then(|| Correspondence::new(*d_idx, *r_idx, s))
        },
    );
    counts.tfidf_candidates += candidates;
    counts.pairs_scored += candidates;
    counts.rows_kept += rows.len() as u64;
    let table = MappingTable::from_rows(rows);
    tr.end(id);
    Mapping::same(name, d, r, table)
}

/// One iteration with a span around every call into a layer.
fn traced_iteration(tr: &mut Tracer, s: &Scenario, counts: &mut Counts) -> Mapping {
    let ids = s.ids;
    let pubs = (ids.pub_dblp, ids.pub_gs);
    let root = tr.begin("iteration");
    let title = traced_fixed(tr, counts, &s.registry, pubs, &title_trigram());
    let tfidf = traced_tfidf(tr, counts, &s.registry, pubs, &title_tfidf().name());
    let authors = traced_fixed(
        tr,
        counts,
        &s.registry,
        (ids.author_dblp, ids.author_gs),
        &author_name(),
    );
    let nh = tr.span("ops.compose", |_| lift_authors(s, &authors));
    let merged = tr.span("ops.merge", |_| merge_evidence(&title, &tfidf, &nh));
    let kept = tr.span("ops.select", |_| select_final(&merged));
    tr.end(root);
    kept
}

/// Title-trigram match time on scenario P with `noise` GS noise
/// entries, at 2 threads and at 1: `(gs_rows, s_at_2, s_at_1)`.
fn ladder_point(seed: u64, noise: usize) -> (f64, f64, f64) {
    let mut cfg = common::paper_config(seed);
    cfg.gs_noise_entries = noise;
    let s = Scenario::generate(cfg);
    let time = |par: Parallelism| {
        let ctx = MatchContext::new(&s.registry).with_parallelism(par);
        let t0 = Instant::now();
        let m = title_trigram()
            .execute(&ctx, s.ids.pub_dblp, s.ids.pub_gs)
            .expect("match");
        std::hint::black_box(m.len());
        t0.elapsed().as_secs_f64()
    };
    let two = time(par()).min(time(par()));
    let one = time(Parallelism::sequential());
    (s.registry.lds(s.ids.pub_gs).len() as f64, two, one)
}

/// Least-squares slope of `ln y` on `ln x`.
fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (lx, ly): (Vec<f64>, Vec<f64>) = points.iter().map(|(x, y)| (x.ln(), y.ln())).unzip();
    let (mx, my) = (lx.iter().sum::<f64>() / n, ly.iter().sum::<f64>() / n);
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx).powi(2)).sum();
    cov / var
}

fn traced(args: &RunArgs, mut checks: Checks) -> Outcome {
    // Untraced reference: the end-to-end figure the spans must add up to.
    let reference = timed_rounds(args.seed, args.seconds / 3.0, 2);
    let s = &reference.scenario;
    let e2e_s = measure::median(&reference.iter_s);
    let whole_s = measure::median(&reference.matcher_s);

    let mut tr = Tracer::with_capacity(4096);
    let mut counts = Counts::default();
    let mut traced_s = Vec::new();
    let phase = Instant::now();
    let mut last = None;
    traced_iteration(&mut Tracer::with_capacity(64), s, &mut Counts::default()); // warm-up
    while phase.elapsed().as_secs_f64() < args.seconds / 3.0 || traced_s.len() < 3 {
        tr.set_op(traced_s.len() as u32);
        let t0 = Instant::now();
        last = Some(traced_iteration(&mut tr, s, &mut counts));
        traced_s.push(t0.elapsed().as_secs_f64());
    }
    let reps = traced_s.len() as f64;
    checks.same(
        "layer-by-layer replay produces the workflow's mapping",
        checksum(&last.expect("at least one traced iteration")),
        reference.sums[0],
    );
    let own = measure::self_times_ns(tr.spans());
    let ms = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / 1e6 / reps;
    let covered: f64 = own
        .iter()
        .filter(|(k, _)| **k != "iteration")
        .map(|(_, v)| *v as f64 / 1e9)
        .sum::<f64>()
        / reps;
    let traced_med = measure::median(&traced_s);
    measure::print_self_time_shares(&own, reps);

    // One thread against two, best run of each.
    let seq = (0..2)
        .map(|_| {
            let t0 = Instant::now();
            run_workflow(s, Parallelism::sequential());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let best_s = reference
        .iter_s
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let ladder: Vec<(f64, f64, f64)> = [2_000, 8_000, 32_000]
        .into_iter()
        .map(|n| ladder_point(args.seed, n))
        .collect();
    let slope = loglog_slope(&ladder.iter().map(|&(x, y, _)| (x, y)).collect::<Vec<_>>());

    let spans = tr.spans().len() as u64;
    crate::write_trace("match_cold", tr.spans());
    checks.count_ops(reference.iter_s.len() as u64 + traced_s.len() as u64, 0);

    let n = traced_s.len() as u64;
    let per = |total: u64| total as f64 / reps;
    let score_ms = ms("simstring.score");
    let parts_ms = ms("blocking.index_build")
        + ms("blocking.candidate_gen")
        + ms("tfidf.corpus_build")
        + ms("tfidf.index_build")
        + ms("tfidf.candidate_gen")
        + score_ms;
    let mut out = Outcome::new(checks);
    out.set(
        "datagen.generate_ms",
        measure::median(&reference.setup_s) * 1e3,
        reference.setup_s.len() as u64,
    );
    out.set("blocking.index_build_ms", ms("blocking.index_build"), n);
    out.set("blocking.candidate_gen_ms", ms("blocking.candidate_gen"), n);
    out.set("blocking.candidates", per(counts.blocking_candidates), n);
    out.set(
        "blocking.candidates_per_result",
        (counts.blocking_candidates + counts.tfidf_candidates) as f64
            / counts.rows_kept.max(1) as f64,
        n,
    );
    out.set("tfidf.corpus_build_ms", ms("tfidf.corpus_build"), n);
    out.set("tfidf.index_build_ms", ms("tfidf.index_build"), n);
    out.set("tfidf.candidate_gen_ms", ms("tfidf.candidate_gen"), n);
    out.set("tfidf.candidates", per(counts.tfidf_candidates), n);
    out.set("simstring.score_ms", score_ms, n);
    out.set("simstring.pairs_scored", per(counts.pairs_scored), n);
    out.set(
        "simstring.ns_per_pair",
        score_ms * 1e6 / per(counts.pairs_scored).max(1.0),
        n,
    );
    out.set(
        "matchers.attribute_ms",
        whole_s * 1e3,
        reference.iter_s.len() as u64,
    );
    out.set("matchers.residual_ms", whole_s * 1e3 - parts_ms, n);
    out.set("exec.par_speedup", seq / best_s, 2);
    out.set("exec.t1_match_s", seq, 2);
    for (&(_, two, one), name) in ladder.iter().zip([
        "exec.par_speedup_n2k",
        "exec.par_speedup_n8k",
        "exec.par_speedup_n32k",
    ]) {
        out.set(name, one / two, 1);
    }
    out.set("match.scale_exponent", slope, 3);
    for (&(_, two, _), name) in ladder
        .iter()
        .zip(["match.s_n2k", "match.s_n8k", "match.s_n32k"])
    {
        out.set(name, two, 2);
    }
    out.set("ops.compose_ms", ms("ops.compose"), n);
    out.set("ops.merge_ms", ms("ops.merge"), n);
    out.set("ops.select_ms", ms("ops.select"), n);
    out.set("trace.spans", spans as f64, n);
    out.set("trace.coverage", covered / e2e_s, n);
    out.set("trace.overhead_share", (traced_med - e2e_s) / e2e_s, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_a_power_law() {
        let pts: Vec<(f64, f64)> = [1.0f64, 2.0, 4.0, 8.0]
            .iter()
            .map(|&x| (x, 3.0 * x.powf(1.5)))
            .collect();
        assert!((loglog_slope(&pts) - 1.5).abs() < 1e-12);
    }

    /// The layer-by-layer replay must be the matcher, not something
    /// like it: same rows, same order, same bits.
    #[test]
    fn replay_equals_the_workflow_on_a_small_scenario() {
        let s = Scenario::small();
        let (whole, _) = run_workflow(&s, par());
        let mut tr = Tracer::with_capacity(64);
        let replay = traced_iteration(&mut tr, &s, &mut Counts::default());
        assert_eq!(whole.table.rows(), replay.table.rows());
        assert!(!whole.is_empty());
        let own = measure::self_times_ns(tr.spans());
        let root = &tr.spans()[0];
        assert_eq!(own.values().sum::<u64>(), root.end_ns - root.start_ns);
    }
}
