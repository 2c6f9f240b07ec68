//! Workload `workflow_ops`: an iFuice script that only combines
//! mappings — the paper's operators, with no matcher in the loop.
//!
//! Set-up computes the base same-mappings (the three matchers of
//! `match_cold` for DBLP–ACM, ACM–GS and DBLP–GS, plus a low-threshold
//! title mapping) and stores them in the repository. One iteration runs
//! `workloads/ops.ifuice` through the interpreter and then clusters the
//! GS self-mapping the script stored.

use std::sync::Arc;
use std::time::Instant;

use moma_core::cluster::clusters;
use moma_core::exec::Parallelism;
use moma_core::matchers::{nh_match, AttributeMatcher, MatchContext, Matcher};
use moma_core::ops::compose::compose_with;
use moma_core::ops::{
    intersection, merge, select, select_constraint, union, MergeFn, MissingPolicy, PathAgg,
    PathCombine, Selection, Side,
};
use moma_core::Mapping;
use moma_datagen::Scenario;
use moma_eval::metrics::MatchQuality;
use moma_ifuice::run_script_with;
use moma_ifuice::script::parser;
use moma_model::{AttrValue, LdsId};
use moma_simstring::SimFn;
use moma_table::join::hash_join;
use moma_table::MappingTable;

use crate::common::{self, checksum, generate, par, Checks, Outcome};
use crate::match_cold::{author_name, title_tfidf, title_trigram};
use crate::measure::{self, Tracer};
use crate::RunArgs;

const SCRIPT: &str = include_str!("../workloads/ops.ifuice");
const LOW_T: f64 = 0.7;
/// Consecutive iterations that make one window of the timed phase
/// (about a second).
const BLOCK: usize = 8;

/// Run the base matchers and store their mappings as `Base.*`.
fn store_base_mappings(s: &Scenario) {
    let ids = s.ids;
    let ctx = MatchContext::new(&s.registry).with_parallelism(par());
    let run = |name: &str, m: AttributeMatcher, d: LdsId, r: LdsId| {
        let mapping = m.execute(&ctx, d, r).expect("base matcher executes");
        s.repository.store_as(name, mapping);
    };
    for (suffix, pubs, authors) in [
        (
            "DA",
            (ids.pub_dblp, ids.pub_acm),
            (ids.author_dblp, ids.author_acm),
        ),
        (
            "AG",
            (ids.pub_acm, ids.pub_gs),
            (ids.author_acm, ids.author_gs),
        ),
        (
            "DG",
            (ids.pub_dblp, ids.pub_gs),
            (ids.author_dblp, ids.author_gs),
        ),
    ] {
        run(
            &format!("Base.Title{suffix}"),
            title_trigram(),
            pubs.0,
            pubs.1,
        );
        run(
            &format!("Base.Tfidf{suffix}"),
            title_tfidf(),
            pubs.0,
            pubs.1,
        );
        run(
            &format!("Base.Author{suffix}"),
            author_name(),
            authors.0,
            authors.1,
        );
    }
    run(
        "Base.TitleLowDG",
        AttributeMatcher::new("title", "title", SimFn::Trigram, LOW_T),
        ids.pub_dblp,
        ids.pub_gs,
    );
}

/// What one iteration leaves behind, reduced to numbers that must
/// repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IterationSums {
    pubs: u64,
    venues: u64,
    gs_self: u64,
    clusters: u64,
}

impl IterationSums {
    fn folded(&self) -> u64 {
        self.pubs ^ self.venues.rotate_left(16) ^ self.gs_self.rotate_left(32) ^ self.clusters
    }
}

fn cluster_gs(s: &Scenario, gs_self: &Mapping) -> u64 {
    let n = s.registry.lds(s.ids.pub_gs).len() as u32;
    let groups = clusters(gs_self, n).expect("self-mapping");
    groups.iter().map(|g| g.len() as u64).sum::<u64>() ^ ((groups.len() as u64) << 32)
}

/// One iteration through the interpreter.
fn script_iteration(s: &Scenario, par: Parallelism) -> (IterationSums, Arc<Mapping>) {
    let value = run_script_with(SCRIPT, &s.registry, &s.repository, par).expect("script runs");
    let fin = value
        .as_mapping()
        .expect("script returns a mapping")
        .clone();
    let repo = &s.repository;
    let gs_self = repo.require("Result.GsSelf").expect("stored by the script");
    let sums = IterationSums {
        pubs: checksum(&fin),
        venues: checksum(&repo.require("Result.VenueDA").expect("stored")),
        gs_self: checksum(&gs_self),
        clusters: cluster_gs(s, &gs_self),
    };
    (sums, Arc::new(fin))
}

/// Rows read and written by the operator calls of one replay, and the
/// compose input pairs (for the join probes).
#[derive(Default)]
struct Replay {
    rows_in: u64,
    rows_out: u64,
    join_inputs: Vec<(Arc<Mapping>, Arc<Mapping>)>,
    /// `(asso1, same, asso2)` of every neighbourhood match; its second
    /// join reads an intermediate the operator does not hand out.
    nh_inputs: Vec<[Arc<Mapping>; 3]>,
    compose_outputs: Vec<Arc<Mapping>>,
}

/// The script's operator sequence through the API, a span around every
/// call. Must leave exactly what the script leaves.
fn api_iteration(
    tr: &mut Tracer,
    s: &Scenario,
    par: Parallelism,
    rp: &mut Replay,
) -> (IterationSums, Arc<Mapping>) {
    let repo = &s.repository;
    let root = tr.begin("iteration");
    let get = |tr: &mut Tracer, name: &str| -> Arc<Mapping> {
        tr.span("repository.lookup", |_| {
            repo.require(name).expect("stored mapping")
        })
    };
    fn io(rp: &mut Replay, inputs: &[&Mapping], out: &Mapping) {
        rp.rows_in += inputs.iter().map(|m| m.len() as u64).sum::<u64>();
        rp.rows_out += out.len() as u64;
    }
    let nh = |tr: &mut Tracer,
              rp: &mut Replay,
              a1: &Arc<Mapping>,
              same: &Arc<Mapping>,
              a2: &Arc<Mapping>,
              g| {
        let out = tr.span("ops.compose", |_| {
            nh_match(a1, same, a2, g).expect("nhMatch")
        });
        io(rp, &[a1, same, a2], &out);
        rp.nh_inputs.push([a1.clone(), same.clone(), a2.clone()]);
        let out = Arc::new(out);
        rp.compose_outputs.push(out.clone());
        out
    };
    let cmp = |tr: &mut Tracer, rp: &mut Replay, l: &Arc<Mapping>, r: &Arc<Mapping>, g| {
        let out = tr.span("ops.compose", |_| {
            compose_with(l, r, PathCombine::Min, g, &par).expect("compose")
        });
        io(rp, &[l, r], &out);
        rp.join_inputs.push((l.clone(), r.clone()));
        let out = Arc::new(out);
        rp.compose_outputs.push(out.clone());
        out
    };
    let mrg = |tr: &mut Tracer, rp: &mut Replay, inputs: &[&Mapping], f, missing| {
        let out = tr.span("ops.merge", |_| merge(inputs, f, missing).expect("merge"));
        io(rp, inputs, &out);
        out
    };
    let sel = |tr: &mut Tracer, rp: &mut Replay, m: &Mapping, how: &Selection| {
        let out = tr.span("ops.select", |_| select(m, how));
        io(rp, &[m], &out);
        out
    };
    let best1delta = |delta, side| Selection::Best1Delta {
        delta,
        relative: false,
        side,
    };

    // 1. neighbourhood matching
    let title_da = get(tr, "Base.TitleDA");
    let title_dg = get(tr, "Base.TitleDG");
    let venue_pub = get(tr, "DBLP.VenuePub");
    let pub_venue = get(tr, "ACM.PubVenue");
    let author_pub = get(tr, "DBLP.AuthorPub");
    let gs_pub_author = get(tr, "GS.PubAuthor");
    let pub_author = get(tr, "DBLP.PubAuthor");
    let gs_author_pub = get(tr, "GS.AuthorPub");
    let venue_nh = nh(tr, rp, &venue_pub, &title_da, &pub_venue, PathAgg::Relative);
    let venue_same = sel(
        tr,
        rp,
        &venue_nh,
        &Selection::BestN {
            n: 1,
            side: Side::Domain,
        },
    );
    let author_nh = nh(
        tr,
        rp,
        &author_pub,
        &title_dg,
        &gs_pub_author,
        PathAgg::RelativeLeft,
    );
    let author_best = sel(tr, rp, &author_nh, &best1delta(0.1, Side::Domain));
    let author_dg = get(tr, "Base.AuthorDG");
    let author_both = mrg(
        tr,
        rp,
        &[&author_best, &author_dg],
        MergeFn::Avg,
        MissingPolicy::Ignore,
    );
    let author_same = Arc::new(sel(
        tr,
        rp,
        &author_both,
        &Selection::BestN {
            n: 2,
            side: Side::Domain,
        },
    ));
    let pub_nh = nh(
        tr,
        rp,
        &pub_author,
        &author_same,
        &gs_author_pub,
        PathAgg::RelativeLeft,
    );

    // 2. hub compose
    let title_ag = get(tr, "Base.TitleAG");
    let via_max = cmp(tr, rp, &title_da, &title_ag, PathAgg::Max);
    let via_rel = cmp(tr, rp, &title_da, &title_ag, PathAgg::Relative);

    // 3. merge
    let tfidf_dg = get(tr, "Base.TfidfDG");
    let low_dg = get(tr, "Base.TitleLowDG");
    let avg = mrg(
        tr,
        rp,
        &[&title_dg, &tfidf_dg, &pub_nh],
        MergeFn::Avg,
        MissingPolicy::Zero,
    );
    let strict = mrg(
        tr,
        rp,
        &[&title_dg, &via_max],
        MergeFn::Min,
        MissingPolicy::Ignore,
    );
    let wide = mrg(
        tr,
        rp,
        &[&title_dg, &via_rel, &low_dg],
        MergeFn::Prefer(0),
        MissingPolicy::Ignore,
    );

    // 4. select
    let best = sel(tr, rp, &avg, &best1delta(0.05, Side::Range));
    let kept = sel(tr, rp, &best, &Selection::Threshold(0.35));
    let year = tr.span("ops.select", |_| year_within_one(s, &wide));
    io(rp, &[&wide], &year);
    let top = sel(
        tr,
        rp,
        &year,
        &Selection::BestN {
            n: 1,
            side: Side::Range,
        },
    );

    // 5. set operations
    let mut setop = |tr: &mut Tracer, a: &Mapping, b: &Mapping, is_union: bool| {
        let out = tr.span("ops.setops", |_| {
            if is_union {
                union(a, b)
            } else {
                intersection(a, b)
            }
            .expect("same sources")
        });
        io(rp, &[a, b], &out);
        out
    };
    let either = setop(tr, &kept, &strict, true);
    let both = setop(tr, &either, &top, false);
    let fin = Arc::new(setop(tr, &kept, &both, true));

    // 6. duplicates among GS entries
    let inverse = Arc::new(tr.span("ops.setops", |_| fin.inverse()));
    let dup = cmp(tr, rp, &inverse, &fin, PathAgg::Max);
    let gs_clusters = get(tr, "GS.Clusters");
    let gs_self = tr.span("ops.setops", |_| {
        union(&dup, &gs_clusters).expect("GS x GS")
    });
    io(rp, &[&dup, &gs_clusters], &gs_self);

    let venue_sum = checksum(&venue_same);
    let gs_self = tr.span("repository.store", |_| {
        repo.store_as("Result.VenueDA", venue_same);
        let kept = repo.store_as("Result.GsSelf", gs_self);
        repo.store_as("Result.PubDG", (*fin).clone());
        kept
    });
    let cluster_sum = tr.span("ops.cluster", |_| cluster_gs(s, &gs_self));
    tr.end(root);
    let sums = IterationSums {
        pubs: checksum(&fin),
        venues: venue_sum,
        gs_self: checksum(&gs_self),
        clusters: cluster_sum,
    };
    (sums, fin)
}

/// `|[domain.year]-[range.year]|<=1`, as the interpreter evaluates it:
/// a missing year cannot violate the bound.
fn year_within_one(s: &Scenario, m: &Mapping) -> Mapping {
    let (d_lds, r_lds) = (s.registry.lds(m.domain), s.registry.lds(m.range));
    let d_slot = d_lds.attr_slot("year").expect("year attribute");
    let r_slot = r_lds.attr_slot("year").expect("year attribute");
    let num = |v: Option<&AttrValue>| match v {
        Some(AttrValue::Int(i)) => Some(*i as f64),
        Some(AttrValue::Year(y)) => Some(*y as f64),
        Some(AttrValue::Real(r)) => Some(*r),
        _ => None,
    };
    select_constraint(m, |d, r, _| {
        let dv = num(d_lds.get(d).and_then(|i| i.value(d_slot)));
        let rv = num(r_lds.get(r).and_then(|i| i.value(r_slot)));
        match (dv, rv) {
            (Some(a), Some(b)) => (a - b).abs() <= 1.0,
            _ => true,
        }
    })
}

/// Generate P and run the base matchers: `(scenario, whole set-up
/// seconds, its `Scenario::generate` part)`.
fn set_up(seed: u64) -> (Scenario, f64, f64) {
    let t0 = Instant::now();
    let (s, generate_s) = generate(seed);
    store_base_mappings(&s);
    (s, t0.elapsed().as_secs_f64(), generate_s)
}

struct Timed {
    iter_s: Vec<f64>,
    sums: Vec<IterationSums>,
    last: Arc<Mapping>,
    setup_s: f64,
    generate_s: f64,
    scenario: Scenario,
}

/// Set up once, warm up with one untimed iteration, then run the script
/// back to back for `seconds`.
///
/// The phase runs on the process's first set-up on purpose. The script
/// allocates and frees tables of a few MB every iteration, and how fast
/// that goes depends on what the heap has been through: after a second
/// set-up (with the first scenario freed, or still alive) the same
/// script ran 20–35 % slower, and which of the two states a run landed
/// in depended on the seed. A fresh heap is one state, and it is the
/// one a `moma run` sees.
fn timed_phase(seed: u64, seconds: f64) -> Timed {
    let (scenario, setup_s, generate_s) = set_up(seed);
    println!(
        "set-up: {} repository mappings, base rows {:?}",
        scenario.repository.len(),
        [
            "Base.TitleDA",
            "Base.TitleAG",
            "Base.TitleDG",
            "Base.TitleLowDG"
        ]
        .map(|n| scenario.repository.require(n).expect("stored").len())
    );
    let mut iter_s = Vec::new();
    let mut sums = Vec::new();
    let (_, mut last) = script_iteration(&scenario, par()); // warm-up, untimed
    let phase = Instant::now();
    while phase.elapsed().as_secs_f64() < seconds || iter_s.len() < BLOCK {
        let t0 = Instant::now();
        let (it, fin) = script_iteration(&scenario, par());
        iter_s.push(t0.elapsed().as_secs_f64());
        sums.push(it);
        last = fin;
    }
    Timed {
        iter_s,
        sums,
        last,
        setup_s,
        generate_s,
        scenario,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut checks = Checks::new(args.self_test);
    if args.trace {
        return traced(args, checks);
    }

    let t = timed_phase(args.seed, args.seconds);
    let s = &t.scenario;
    let n = t.iter_s.len() as u64;
    checks.check(
        "result checksums identical on every iteration",
        t.sums.iter().all(|c| *c == t.sums[0]),
        || format!("{:?} ... {:?}", t.sums[0], t.sums.last()),
    );
    let (seq, _) = script_iteration(s, Parallelism::sequential());
    checks.same("1 thread == 2 threads", seq.folded(), t.sums[0].folded());
    let (api, _) = api_iteration(
        &mut Tracer::with_capacity(128),
        s,
        par(),
        &mut Replay::default(),
    );
    checks.same("script == API path", api.folded(), t.sums[0].folded());
    let quality = MatchQuality::evaluate(&t.last, &s.gold.pub_dblp_gs).f1();
    checks.check("f1 above 0.8", quality > 0.8, || format!("f1 = {quality}"));
    checks.count_ops(n, 0);
    let whole = measure::summarize(&t.iter_s);
    println!(
        "iterations: n={n}, whole phase min {:.3} ms median {:.3} ms MAD {:.3} ms",
        whole.min * 1e3,
        whole.median * 1e3,
        whole.mad * 1e3
    );
    // Per block of iterations the median, the upper quartile (too few
    // iterations for more) and the rate.
    let ms: Vec<f64> = t.iter_s.iter().map(|s| s * 1e3).collect();
    let windows = measure::block_stats(&ms, BLOCK, 0.75);
    windows.print("ms");

    let mut out = Outcome::new(checks);
    out.set("peak_rss_mb", common::peak_rss_mb(), 1);
    out.set("op_p50_ms", measure::quiet_quartile(&windows.p50, false), n);
    out.set(
        "op_tail_ms",
        measure::quiet_quartile(&windows.tail, false),
        n,
    );
    out.set("ops_per_s", measure::quiet_quartile(&windows.rate, true), n);
    out.set("f1", quality, t.last.len() as u64);
    // A second set-up, only to give set-up time a second sample.
    let first_s = t.setup_s;
    drop(t);
    let (_, second_s, _) = set_up(args.seed);
    out.set("setup_s", measure::median(&[first_s, second_s]), 2);
    out
}

/// Median time of `f` over `reps` calls, microseconds.
fn micro_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    measure::median(&v)
}

fn traced(args: &RunArgs, mut checks: Checks) -> Outcome {
    let reference = timed_phase(args.seed, args.seconds / 3.0);
    let s = &reference.scenario;
    let e2e_s = measure::median(&reference.iter_s);

    let mut tr = Tracer::with_capacity(1 << 16);
    let mut replay = Replay::default();
    let mut replay_s = Vec::new();
    let mut sums = Vec::new();
    api_iteration(
        &mut Tracer::with_capacity(128),
        s,
        par(),
        &mut Replay::default(),
    ); // warm-up
    let phase = Instant::now();
    while phase.elapsed().as_secs_f64() < args.seconds / 3.0 || replay_s.len() < 5 {
        tr.set_op(replay_s.len() as u32);
        replay = Replay::default();
        let t0 = Instant::now();
        let (it, _) = api_iteration(&mut tr, s, par(), &mut replay);
        replay_s.push(t0.elapsed().as_secs_f64());
        sums.push(it);
    }
    let reps = replay_s.len() as f64;
    let n = replay_s.len() as u64;
    checks.same(
        "operator replay through the API leaves what the script leaves",
        sums[0].folded(),
        reference.sums[0].folded(),
    );
    let own = measure::self_times_ns(tr.spans());
    let ms = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / 1e6 / reps;
    let covered: f64 = own
        .iter()
        .filter(|(k, _)| **k != "iteration")
        .map(|(_, v)| *v as f64 / 1e9)
        .sum::<f64>()
        / reps;
    measure::print_self_time_shares(&own, reps);
    let replay_med = measure::median(&replay_s);

    // Join and table probes on the replay's real compose inputs. A
    // neighbourhood match is two joins; its intermediate is rebuilt here.
    for [a1, same, a2] in &replay.nh_inputs {
        let temp = compose_with(a1, same, PathCombine::Min, PathAgg::Avg, &par()).expect("compose");
        replay.join_inputs.push((a1.clone(), same.clone()));
        replay.join_inputs.push((Arc::new(temp), a2.clone()));
    }
    let mut paths = 0u64;
    let join_ms = micro_us(5, || {
        paths = 0;
        for (l, r) in &replay.join_inputs {
            hash_join(&l.table, &r.table, |p| paths += (p.a != u32::MAX) as u64);
        }
    }) / 1e3;
    let from_triples_ms = micro_us(5, || {
        for m in &replay.compose_outputs {
            let t = MappingTable::from_triples(m.table.iter().map(|c| (c.domain, c.range, c.sim)));
            std::hint::black_box(t.len());
        }
    }) / 1e3;
    let parse_us = micro_us(200, || {
        std::hint::black_box(parser::parse(SCRIPT).expect("script parses"));
    });
    let repo = &s.repository;
    let lookup_us = micro_us(2000, || {
        std::hint::black_box(repo.require("Base.TitleDG").expect("stored"));
    });
    let small = (*repo.require("Result.VenueDA").expect("stored")).clone();
    let mut copies = vec![small; 500];
    let store_us = micro_us(500, || {
        repo.store_as("Probe.Store", copies.pop().expect("one copy per call"));
    });
    repo.remove("Probe.Store");
    let snapshot_us = micro_us(500, || {
        std::hint::black_box(repo.snapshot().len());
    });

    let seq_s = {
        let t0 = Instant::now();
        script_iteration(s, Parallelism::sequential());
        let first = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        script_iteration(s, Parallelism::sequential());
        first.min(t0.elapsed().as_secs_f64())
    };

    let spans = tr.spans().len() as u64;
    crate::write_trace("workflow_ops", tr.spans());
    checks.count_ops(reference.iter_s.len() as u64 + n, 0);

    let mut out = Outcome::new(checks);
    out.set("datagen.generate_ms", reference.generate_s * 1e3, 1);
    out.set("exec.par_speedup", seq_s / e2e_s, 2);
    out.set("exec.t1_match_s", seq_s, 2);
    out.set("ops.compose_ms", ms("ops.compose"), n);
    out.set("ops.merge_ms", ms("ops.merge"), n);
    out.set("ops.select_ms", ms("ops.select"), n);
    out.set("ops.setops_ms", ms("ops.setops"), n);
    out.set("ops.cluster_ms", ms("ops.cluster"), n);
    out.set("ops.rows_in", replay.rows_in as f64, n);
    out.set("ops.rows_out", replay.rows_out as f64, n);
    let ops_s = (ms("ops.compose") + ms("ops.merge") + ms("ops.select") + ms("ops.setops")) / 1e3;
    out.set(
        "ops.rows_per_s",
        (replay.rows_in + replay.rows_out) as f64 / ops_s,
        n,
    );
    out.set("table.join_ms", join_ms, 5);
    out.set("table.join_rows_per_s", paths as f64 / (join_ms / 1e3), 5);
    out.set("table.from_triples_ms", from_triples_ms, 5);
    out.set("ifuice.parse_us", parse_us, 200);
    out.set(
        "ifuice.interp_overhead_ms",
        (e2e_s - replay_med) * 1e3,
        reference.iter_s.len() as u64,
    );
    out.set("repository.lookup_us", lookup_us, 2000);
    out.set("repository.store_us", store_us, 500);
    out.set("repository.snapshot_us", snapshot_us, 500);
    out.set("trace.spans", spans as f64, n);
    out.set("trace.coverage", covered / e2e_s, n);
    out.set("trace.overhead_share", (replay_med - e2e_s) / e2e_s, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The API replay must be the script: same three stored mappings,
    /// same clusters, at one thread and at two.
    #[test]
    fn script_and_api_agree_on_a_small_scenario() {
        let s = Scenario::small();
        store_base_mappings(&s);
        let (script, fin) = script_iteration(&s, par());
        assert!(!fin.is_empty());
        let (seq, _) = script_iteration(&s, Parallelism::sequential());
        assert_eq!(script, seq);
        let mut tr = Tracer::with_capacity(128);
        let mut rp = Replay::default();
        let (api, api_fin) = api_iteration(&mut tr, &s, par(), &mut rp);
        assert_eq!(script, api);
        assert_eq!(fin.table.rows(), api_fin.table.rows());
        assert!(
            rp.rows_in > 0
                && rp.rows_out > 0
                && rp.join_inputs.len() == 3
                && rp.nh_inputs.len() == 3
        );
        let own = measure::self_times_ns(tr.spans());
        for layer in [
            "ops.compose",
            "ops.merge",
            "ops.select",
            "ops.setops",
            "ops.cluster",
        ] {
            assert!(own.contains_key(layer), "{layer} has a span");
        }
    }
}
